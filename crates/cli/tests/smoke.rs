//! Real-process smoke tests: each test launches the `nptsn` binary itself
//! as `serve` and `router` child processes and drives them over HTTP. This
//! covers what in-process tests cannot: the CLI's flag parsing, its
//! lifecycle lines (`listening on`, `jobs re-enqueued`, `drained and
//! stopped`, `nptsn-router stopped`) and recovery from a real SIGKILL.
//!
//! ```text
//! cargo test -p nptsn-cli --test smoke [test-name]
//! ```

use std::fs::{self, File};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{Mutex, MutexGuard};
use std::thread::sleep;
use std::time::{Duration, Instant};

use nptsn::{Planner, PlannerConfig};
use nptsn_format::json::Object;
use nptsn_format::parse_problem;
use nptsn_nn::{params_to_bytes, Module};
use nptsn_obs::json::{self, Value};
use nptsn_obs::promtext;
use nptsn_router::trace_for_job;
use nptsn_serve::client::{BackoffConfig, Client, ClientResponse};

const NPTSN: &str = env!("CARGO_BIN_EXE_nptsn");

const DOC: &str = "\
[nodes]
es camera
es ecu
sw s0
sw s1
[links]
camera s0
camera s1
ecu s0
ecu s1
s0 s1
[flows]
camera ecu 500 256
";

const PLAN: &str = "\
[switches]
s0 A
[plan-links]
camera s0
ecu s0
";

/// The tests run one at a time: the fleet tests time health probes and
/// failovers, which a neighbouring test loading the CPU would skew.
static SERIAL: Mutex<()> = Mutex::new(());

/// One test's temp directory, held together with the serial lock.
/// Dropping it removes the directory; declare it before the test's
/// [`Member`]s so they are killed first.
struct Smoke {
    dir: PathBuf,
    _serial: MutexGuard<'static, ()>,
}

impl Smoke {
    fn new(test: &str) -> Smoke {
        // The lock guards no data, so a test that panicked holding it
        // leaves nothing behind for the next one.
        let serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("nptsn-smoke-{}-{test}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create the temp dir");
        Smoke { dir, _serial: serial }
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }

    /// Starts `nptsn <args> --addr 127.0.0.1:0` with stdout and stderr in
    /// `<dir>/<log>.log`, then waits for its `listening on` line and a
    /// `200` from `/readyz`.
    fn start(&self, log: &str, args: &[&str]) -> Member {
        let log = self.dir.join(format!("{log}.log"));
        let out = File::create(&log).expect("create the log");
        let err = out.try_clone().expect("share the log");
        let child = Command::new(NPTSN)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .expect("spawn nptsn");
        // Built before the address is known, so a failed start still kills
        // the child.
        let mut member = Member { child, log, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };

        let deadline = Instant::now() + Duration::from_secs(30);
        member.addr = loop {
            let listening = member.log().lines().find_map(|line| {
                line.split_once(" listening on ")?.1.split_whitespace().next()?.parse().ok()
            });
            if let Some(addr) = listening {
                break addr;
            }
            if let Some(status) = member.child.try_wait().expect("poll the child") {
                panic!("nptsn {args:?} exited ({status}) before listening:\n{}", member.log());
            }
            assert!(Instant::now() < deadline, "nptsn {args:?} never listened:\n{}", member.log());
            sleep(Duration::from_millis(20));
        };

        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            // A fresh client per attempt: a refused connection must not
            // poison a kept-alive socket.
            if member.client().get("/readyz").is_ok_and(|r| r.status == 200) {
                return member;
            }
            assert!(Instant::now() < deadline, "{} never became ready", member.addr);
            sleep(Duration::from_millis(50));
        }
    }

    /// Starts fleet shard `name`: one worker, durable in `<dir>/<name>`,
    /// logging to `<dir>/<name>.log`.
    fn shard(&self, name: &str, queue_depth: &str) -> Member {
        let data = self.path(name);
        self.start(
            name,
            &[
                "serve",
                "--serve-workers",
                "1",
                "--queue-depth",
                queue_depth,
                "--data-dir",
                &data,
                "--shard-name",
                name,
            ],
        )
    }

    /// Starts a router over `shards`, which [`Smoke::shard`] started as
    /// `s0`, `s1`, … in that order, with the space-separated `flags`.
    fn router(&self, shards: &[&Member], flags: &str) -> Member {
        let names: Vec<String> = (0..shards.len()).map(|i| format!("s{i}")).collect();
        let addrs: Vec<String> = shards.iter().map(|s| s.addr.to_string()).collect();
        let dirs: Vec<String> = names.iter().map(|n| self.path(n)).collect();
        let (addrs, dirs, names) = (addrs.join(","), dirs.join(","), names.join(","));
        let mut args = vec!["router", "--shards", &addrs, "--data-dirs", &dirs, "--names", &names];
        args.extend(flags.split_whitespace());
        self.start("router", &args)
    }
}

impl Drop for Smoke {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// A running `nptsn` child. Dropping it SIGKILLs and reaps the child.
struct Member {
    child: Child,
    log: PathBuf,
    addr: SocketAddr,
}

impl Member {
    fn client(&self) -> Client {
        Client::new(self.addr)
    }

    fn kill9(&mut self) {
        self.child.kill().expect("SIGKILL the child");
        self.child.wait().expect("reap the child");
    }

    fn wait_exit(&mut self) -> ExitStatus {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().expect("poll the child") {
                return status;
            }
            assert!(Instant::now() < deadline, "{} never exited:\n{}", self.addr, self.log());
            sleep(Duration::from_millis(20));
        }
    }

    fn log(&self) -> String {
        fs::read_to_string(&self.log).unwrap_or_default()
    }
}

impl Drop for Member {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Posts `/shutdown` and checks that `member` exits 0 with `last_line`
/// in its log.
fn shut_down(member: &mut Member, last_line: &str) {
    let response = member.client().post("/shutdown", &[]).expect("POST /shutdown");
    assert_eq!(response.status, 200, "{}", response.text());
    let status = member.wait_exit();
    let log = member.log();
    assert!(status.success(), "exited with {status}:\n{log}");
    assert!(log.contains(last_line), "no '{last_line}' in the log:\n{log}");
}

/// A router client that retries through the failover window: while a
/// dead shard is still on the ring, a submission placed there is answered
/// `503`, un-acked.
fn routed(router: &Member) -> Client {
    router.client().with_backoff(BackoffConfig {
        max_retries: 40,
        base_ms: 25,
        cap_ms: 400,
        seed: 7,
        deadline_ms: 0,
    })
}

fn parse(text: &str) -> Value {
    json::parse(text).unwrap_or_else(|e| panic!("{e}: {text}"))
}

fn int(doc: &Value, key: &str) -> u64 {
    doc.get(key).and_then(Value::as_num).unwrap_or_else(|| panic!("no {key} in {doc:?}")) as u64
}

fn string<'v>(doc: &'v Value, key: &str) -> &'v str {
    doc.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("no {key} in {doc:?}"))
}

fn get_ok(client: &mut Client, path: &str) -> ClientResponse {
    let response = client.get(path).unwrap_or_else(|e| panic!("GET {path}: {e}"));
    assert_eq!(response.status, 200, "GET {path}: {}", response.text());
    response
}

fn get_json(client: &mut Client, path: &str) -> Value {
    parse(&get_ok(client, path).text())
}

/// The value of the unlabelled sample `name` in a Prometheus exposition.
fn metric(text: &str, name: &str) -> u64 {
    promtext::parse(text)
        .iter()
        .flat_map(|family| &family.samples)
        .find(|sample| sample.name == name && sample.labels.is_empty())
        .unwrap_or_else(|| panic!("no {name} sample in /metrics:\n{text}"))
        .value as u64
}

/// Submits a job and returns its id, expecting `202 Accepted`.
fn submit(client: &mut Client, path: &str, body: &[u8]) -> u64 {
    let response = client.post(path, body).unwrap_or_else(|e| panic!("POST {path}: {e}"));
    assert_eq!(response.status, 202, "POST {path}: {}", response.text());
    int(&parse(&response.text()), "id")
}

fn burns(client: &mut Client, n: usize, millis: u32) -> Vec<u64> {
    (0..n).map(|_| submit(client, &format!("/jobs/burn?millis={millis}"), &[])).collect()
}

/// Where a job poll goes: straight to the `nptsn serve` holding the job,
/// which must answer every poll `200`, or through `nptsn router`, which
/// may answer otherwise while the job's shard fails over.
#[derive(Clone, Copy)]
enum Via {
    Serve,
    Router,
}

/// Polls `GET /jobs/<id>` until the job is terminal and returns its
/// status. A transport error fails the test at once.
fn wait_terminal(client: &mut Client, id: u64, via: Via) -> Value {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let response =
            client.get(&format!("/jobs/{id}")).unwrap_or_else(|e| panic!("GET /jobs/{id}: {e}"));
        let body = response.text();
        if response.status == 200 {
            let status = parse(&body);
            if matches!(string(&status, "state"), "done" | "failed" | "cancelled") {
                return status;
            }
        } else if let Via::Serve = via {
            panic!("GET /jobs/{id}: {} {body}", response.status);
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {} {body}", response.status);
        sleep(Duration::from_millis(20));
    }
}

fn wait_done(client: &mut Client, ids: &[u64], via: Via) {
    for &id in ids {
        let status = wait_terminal(client, id, via);
        assert_eq!(string(&status, "state"), "done", "job {id}: {status:?}");
    }
}

fn wait_live(client: &mut Client, shards: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while int(&get_json(client, "/healthz"), "live_shards") != shards {
        assert!(Instant::now() < deadline, "the fleet never reached {shards} live shards");
        sleep(Duration::from_millis(10));
    }
}

/// A structurally valid, untrained policy checkpoint for [`DOC`].
fn checkpoint() -> Vec<u8> {
    let parsed = parse_problem(DOC).expect("fixture problem parses");
    let planner = Planner::new(parsed.problem, PlannerConfig::quick());
    params_to_bytes(&planner.build_policy().parameters())
}

/// Announces shard `name` at `shard`'s address through `POST
/// /admin/shards` and returns the router's answer.
fn announce(client: &mut Client, smoke: &Smoke, name: &str, shard: &Member) -> Value {
    let mut body = Object::new();
    body.str("name", name);
    body.str("addr", &shard.addr.to_string());
    body.str("data_dir", &smoke.path(name));
    let body = body.finish();
    let response = client.post("/admin/shards", body.as_bytes()).expect("POST /admin/shards");
    assert_eq!(response.status, 200, "{}", response.text());
    parse(&response.text())
}

#[test]
fn plan_trace() {
    let smoke = Smoke::new("plan-trace");
    let (problem, trace) = (smoke.path("smoke.tssdn"), smoke.path("trace.json"));
    fs::write(&problem, DOC).expect("write the problem");
    let output = Command::new(NPTSN)
        .args(["plan", &problem, "--epochs", "1", "--steps", "32", "--seed", "1"])
        .args(["--trace-out", &trace, "--profile"])
        .output()
        .expect("run nptsn plan");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}{}", String::from_utf8_lossy(&output.stderr));

    let doc = parse(&fs::read_to_string(&trace).expect("read the trace"));
    let events = doc.get("traceEvents").and_then(Value::as_arr).expect("no traceEvents");
    assert!(!events.is_empty(), "the trace recorded no events");
    let names: Vec<&str> = events.iter().filter_map(|e| e.get("name")?.as_str()).collect();
    for span in
        ["planner.run", "planner.epoch", "planner.rollout", "analyzer.analyze", "soag.generate"]
    {
        assert!(names.contains(&span), "no {span} span in the trace");
    }
    assert!(stdout.contains("planner.epoch"), "no profile table on stdout:\n{stdout}");
}

#[test]
fn serve_plan_and_drain() {
    let smoke = Smoke::new("serve");
    let mut serve = smoke.start("serve", &["serve", "--serve-workers", "1", "--queue-depth", "4"]);
    let mut client = serve.client();
    get_ok(&mut client, "/healthz");

    let id = submit(&mut client, "/jobs/plan?greedy=1&seed=0", DOC.as_bytes());
    wait_done(&mut client, &[id], Via::Serve);
    let plan = get_ok(&mut client, &format!("/jobs/{id}/plan")).text();
    assert!(plan.contains("[switches]"), "not a plan file: {plan}");

    let metrics = get_ok(&mut client, "/metrics").text();
    assert_eq!(metric(&metrics, "nptsn_jobs_completed_total"), 1);
    assert!(metrics.contains("nptsn_http_requests_total"), "{metrics}");
    shut_down(&mut serve, "nptsn-serve drained and stopped");
}

#[test]
fn store_survives_kill9() {
    let smoke = Smoke::new("store");
    let data = smoke.path("data");
    let args =
        ["serve", "--serve-workers", "1", "--queue-depth", "16", "--data-dir", data.as_str()];
    let mut first = smoke.start("first", &args);
    let mut client = first.client();
    let put = client.put("/checkpoints/smoke", &checkpoint()).expect("PUT checkpoint");
    assert_eq!(put.status, 200, "{}", put.text());
    // The answer names the version it registered.
    int(&parse(&put.text()), "version");
    let verify = submit(&mut client, "/jobs/verify", format!("{DOC}{PLAN}").as_bytes());
    wait_done(&mut client, &[verify], Via::Serve);
    let result = get_ok(&mut client, &format!("/jobs/{verify}/result")).body;
    // Load the queue so the kill lands mid-work: one long burn runs while
    // the rest wait.
    let burn_ids: Vec<u64> = [5_000, 1, 1, 1]
        .iter()
        .map(|millis| submit(&mut client, &format!("/jobs/burn?millis={millis}"), &[]))
        .collect();
    first.kill9();

    let mut second = smoke.start("second", &args);
    let mut client = second.client();
    let status = get_json(&mut client, &format!("/jobs/{verify}"));
    assert_eq!(string(&status, "state"), "done", "{status:?}");
    let recovered = get_ok(&mut client, &format!("/jobs/{verify}/result")).body;
    assert_eq!(recovered, result, "the recovered result is not byte-identical");
    let registered = get_ok(&mut client, "/checkpoints/smoke").body;
    assert_eq!(registered, checkpoint(), "checkpoint bytes changed across the restart");
    for id in burn_ids {
        let status = wait_terminal(&mut client, id, Via::Serve);
        let state = string(&status, "state");
        assert!(state == "done" || state == "failed", "re-enqueued job {id} ended {state}");
    }
    shut_down(&mut second, "nptsn-serve drained and stopped");
    let log = second.log();
    assert!(log.contains("jobs re-enqueued"), "the restart reported no recovery:\n{log}");
    assert!(!log.contains("(0 jobs re-enqueued)"), "the restart re-enqueued nothing:\n{log}");
}

#[test]
fn infer_coalesces() {
    let smoke = Smoke::new("infer");
    let mut serve = smoke.start(
        "serve",
        &["serve", "--serve-workers", "1", "--queue-depth", "16", "--infer-batch-max", "8"],
    );
    let mut client = serve.client();
    let put = client.put("/checkpoints/smoke", &checkpoint()).expect("PUT checkpoint");
    assert_eq!(put.status, 200, "{}", put.text());

    // Occupy the single worker so the infer jobs pile up and coalesce.
    let burn = submit(&mut client, "/jobs/burn?millis=1000", &[]);
    let deadline = Instant::now() + Duration::from_secs(10);
    while string(&get_json(&mut client, &format!("/jobs/{burn}")), "state") != "running" {
        assert!(Instant::now() < deadline, "the burn job never started");
        sleep(Duration::from_millis(5));
    }
    let infer = "/jobs/infer?checkpoint=smoke&attempts=2&seed=7";
    let ids: Vec<u64> = (0..4).map(|_| submit(&mut client, infer, DOC.as_bytes())).collect();

    // Identical submissions end identical, apart from their ids: batching
    // never changes a result.
    let outcomes: Vec<Vec<(String, Value)>> = ids
        .iter()
        .map(|&id| match wait_terminal(&mut client, id, Via::Serve) {
            Value::Obj(fields) => fields.into_iter().filter(|(key, _)| key != "id").collect(),
            other => panic!("job {id} status is not an object: {other:?}"),
        })
        .collect();
    for (id, outcome) in ids.iter().zip(&outcomes).skip(1) {
        assert_eq!(outcome, &outcomes[0], "job {id} diverged from its identical twin");
    }

    let metrics = get_ok(&mut client, "/metrics").text();
    assert!(metric(&metrics, "nptsn_infer_batched_forwards_total") >= 1, "{metrics}");
    metric(&metrics, "nptsn_infer_batch_jobs_total");
    shut_down(&mut serve, "nptsn-serve drained and stopped");
}

#[test]
fn router_kill9_failover() {
    let smoke = Smoke::new("router");
    let mut s0 = smoke.shard("s0", "32");
    let s1 = smoke.shard("s1", "32");
    let mut router = smoke.router(&[&s0, &s1], "");
    let mut client = routed(&router);
    assert_eq!(int(&get_json(&mut client, "/healthz"), "live_shards"), 2);

    // SIGKILL s0 mid-submission: every job the router acked must still
    // reach `done` through the router, whichever shard it landed on.
    let mut acked = Vec::new();
    for n in 0..24 {
        if n == 12 {
            s0.kill9();
        }
        acked.push(submit(&mut client, "/jobs/burn?millis=20", &[]));
    }
    wait_done(&mut client, &acked, Via::Router);
    assert_eq!(int(&get_json(&mut client, "/healthz"), "live_shards"), 1);

    let metrics = get_ok(&mut client, "/metrics").text();
    assert!(metric(&metrics, "nptsn_router_failovers_total") >= 1, "no failover recorded");
    assert!(
        metric(&metrics, "nptsn_router_replayed_jobs_total") >= 1,
        "nothing was replayed from the dead shard"
    );
    shut_down(&mut router, "nptsn-router stopped");
}

#[test]
fn fleet_trace() {
    let smoke = Smoke::new("fleet-trace");
    let s0 = smoke.shard("s0", "32");
    let s1 = smoke.shard("s1", "32");
    let mut router = smoke.router(&[&s0, &s1], "--flight-capacity 1024");
    let mut client = routed(&router);
    let id = submit(&mut client, "/jobs/burn?millis=20", &[]);
    wait_done(&mut client, &[id], Via::Router);

    // The shard persists its timeline just after the job goes terminal:
    // poll the merged document until spans from both sides are in.
    let deadline = Instant::now() + Duration::from_secs(30);
    let trace = loop {
        let response = client.get(&format!("/jobs/{id}/trace")).expect("GET the trace");
        let body = response.text();
        if response.status == 200 && body.contains("job.run") && body.contains("router.forward") {
            break parse(&body);
        }
        assert!(Instant::now() < deadline, "the merged trace never completed: {body}");
        sleep(Duration::from_millis(25));
    };
    let events = trace.get("traceEvents").and_then(Value::as_arr).expect("no traceEvents");
    let of_phase = |ph: &'static str| {
        events.iter().filter(move |e| e.get("ph").and_then(Value::as_str) == Some(ph))
    };
    let processes: Vec<&str> =
        of_phase("M").filter_map(|e| e.get("args")?.get("name")?.as_str()).collect();
    for process in ["router", "s0", "s1"] {
        assert!(processes.contains(&process), "no {process} process row: {processes:?}");
    }
    let spans: Vec<&str> = of_phase("X").filter_map(|e| e.get("name")?.as_str()).collect();
    for span in ["job.run", "router.forward"] {
        assert!(spans.contains(&span), "no {span} span: {spans:?}");
    }
    let hex = format!("{:032x}", trace_for_job(id).trace_id);
    let traces: Vec<Option<&str>> =
        of_phase("X").map(|e| e.get("args")?.get("trace")?.as_str()).collect();
    assert!(
        traces.iter().all(|t| *t == Some(hex.as_str())),
        "a span strayed from the minted trace id {hex}: {traces:?}"
    );

    let flight = get_json(&mut client, "/debug/flight");
    assert_eq!(int(&flight, "capacity"), 1024, "--flight-capacity was not honoured");
    let entries = flight.get("entries").and_then(Value::as_arr).expect("no flight entries");
    assert!(!entries.is_empty(), "the flight ring recorded nothing");

    let metrics = get_ok(&mut client, "/metrics").text();
    assert!(metrics.contains("shard=\""), "no shard-labelled series in /metrics");
    assert!(metrics.contains("nptsn_fleet_jobs_total"), "no fleet sums in /metrics");
    shut_down(&mut router, "nptsn-router stopped");
}

#[test]
fn membership_rf2() {
    let smoke = Smoke::new("membership");
    let mut s0 = smoke.shard("s0", "256");
    let s1 = smoke.shard("s1", "256");
    let flags = "--replication 2 --health-interval-ms 20 --health-failures 2 \
                 --forward-deadline-ms 1000";
    let mut router = smoke.router(&[&s0, &s1], flags);
    let mut client = routed(&router);
    let ready = get_json(&mut client, "/readyz");
    assert_eq!(int(&ready, "live_shards"), 2);
    assert!(int(&ready, "ring_generation") >= 1, "{ready:?}");

    // A healthy RF2 fleet mirrors every acked job to its successor.
    let first = burns(&mut client, 24, 5);
    wait_done(&mut client, &first, Via::Router);

    // SIGKILL the primary: promotion, not replay, keeps every acked job
    // reachable on the survivor.
    s0.kill9();
    wait_live(&mut client, 1);
    wait_done(&mut client, &first, Via::Router);
    let metrics = get_ok(&mut client, "/metrics").text();
    assert!(
        metric(&metrics, "nptsn_router_replica_promotions_total") >= 1,
        "the death promoted no passive replica"
    );

    // The degraded fleet keeps accepting.
    let second = burns(&mut client, 24, 5);
    wait_done(&mut client, &second, Via::Router);

    // Restart s0 on its data dir (at a fresh port) and re-announce it: it
    // rejoins and catches up on what it missed.
    let restarted = smoke.shard("s0", "256");
    let answer = announce(&mut client, &smoke, "s0", &restarted);
    assert_eq!(string(&answer, "status"), "rejoined");
    wait_live(&mut client, 2);
    let metrics = get_ok(&mut client, "/metrics").text();
    assert!(metric(&metrics, "nptsn_router_rejoins_total") >= 1, "no rejoin recorded");
    assert!(
        metric(&metrics, "nptsn_router_migrated_jobs_total") >= 1,
        "the rejoin catch-up migrated nothing"
    );
    assert!(
        metric(&metrics, "nptsn_router_ring_generation") >= 3,
        "the ring generation never advanced through death and rejoin"
    );
    wait_done(&mut client, &first, Via::Router);
    wait_done(&mut client, &second, Via::Router);

    // Live scale-out: a brand-new shard joins and drains its share, and
    // every earlier job stays reachable throughout.
    let s2 = smoke.shard("s2", "256");
    let answer = announce(&mut client, &smoke, "s2", &s2);
    assert_eq!(string(&answer, "status"), "joined");
    wait_live(&mut client, 3);
    wait_done(&mut client, &first, Via::Router);
    wait_done(&mut client, &second, Via::Router);
    let third = burns(&mut client, 12, 5);
    wait_done(&mut client, &third, Via::Router);
    shut_down(&mut router, "nptsn-router stopped");
}
