//! Chaos and timeout end-to-end tests over real TCP.
//!
//! Separate test binary: an armed [`nptsn_chaos::FaultPlan`] is
//! process-global, and cargo runs test binaries sequentially, so plans
//! armed here cannot leak into the clean `e2e` tests. Within this binary
//! every test takes `arm_scoped` (with an empty plan when it needs no
//! faults) so the armed state never crosses test threads.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use nptsn_chaos::{arm_scoped, FaultKind, FaultPlan, SiteRule};
use nptsn_serve::{BackoffConfig, Client, JobState, ServeConfig, Server};

mod common;
use common::int_field;

fn start(config: ServeConfig) -> Server {
    Server::bind(config).expect("bind an ephemeral port")
}

/// Satellite fix: server connections are bounded by socket timeouts and a
/// header deadline — a stalled, idle, or byte-dripping (slowloris) peer
/// cannot pin a connection thread, and the server keeps serving others.
#[test]
fn stalled_and_slowloris_connections_are_timed_out() {
    let _guard = arm_scoped(FaultPlan::new(0)); // serialize only; no faults
    let server = start(ServeConfig {
        workers: 1,
        queue_depth: 4,
        io_timeout_ms: 200,
        header_deadline_ms: 400,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    // A peer that sends part of a request line and stalls gets a 408 and
    // a closed connection once the read times out.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"GET /healthz HT").unwrap();
        let started = Instant::now();
        let mut response = String::new();
        raw.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 408"), "{response}");
        assert!(started.elapsed() < Duration::from_secs(5), "timeout took too long");
    }

    // An idle connection that never sends a byte is closed quietly — no
    // 408 goes out for a keep-alive session that simply ended.
    {
        let raw = TcpStream::connect(addr).unwrap();
        let mut response = String::new();
        (&raw).read_to_string(&mut response).unwrap();
        assert!(response.is_empty(), "idle close should send nothing: {response}");
    }

    // A slowloris peer drips header bytes fast enough to reset the
    // per-read socket timeout; the total header deadline still kills it.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let started = Instant::now();
        let mut response = Vec::new();
        loop {
            // One header byte every 50ms: each read succeeds well inside
            // the 200ms socket timeout.
            raw.write_all(b"X").ok();
            std::thread::sleep(Duration::from_millis(50));
            let mut buf = [0u8; 512];
            raw.set_nonblocking(true).unwrap();
            match raw.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => response.extend_from_slice(&buf[..n]),
                Err(_) => {}
            }
            raw.set_nonblocking(false).unwrap();
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "slowloris connection was never terminated"
            );
        }
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.1 408"), "expected 408, got: {text}");
    }

    // Throughout all of that, a well-behaved client is still served.
    let mut client = Client::new(addr);
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);

    server.stop();
    server.wait();
}

/// The in-tree client's capped jittered backoff turns `503` backpressure
/// into an eventual `202`, honoring `Retry-After` (capped) between tries.
#[test]
fn client_backoff_rides_out_backpressure() {
    let _guard = arm_scoped(FaultPlan::new(0));
    let server = start(ServeConfig { workers: 1, queue_depth: 1, ..ServeConfig::default() });
    let addr = server.local_addr();

    // Occupy the single worker and fill the one queue slot.
    let mut plain = Client::new(addr);
    let running = plain.post("/jobs/burn?millis=400", &[]).unwrap();
    assert_eq!(running.status, 202);
    let deadline = Instant::now() + Duration::from_secs(10);
    let queued = loop {
        let r = plain.post("/jobs/burn?millis=1", &[]).unwrap();
        if r.status == 202 {
            break r;
        }
        // The first job may not be running yet; the slot frees when it is.
        assert!(Instant::now() < deadline, "never got a job queued");
        std::thread::sleep(Duration::from_millis(5));
    };
    let _ = queued;
    // Now the queue is full (one running, one queued) — without backoff
    // this submission is a plain 503.
    let refused = plain.post("/jobs/burn?millis=1", &[]).unwrap();
    assert_eq!(refused.status, 503);
    assert!(refused.header("retry-after").is_some());

    // With backoff, the same submission retries through the 503s and
    // lands once the burn jobs drain.
    let before = nptsn_obs::telemetry().snapshot();
    let mut retrying = Client::new(addr).with_backoff(BackoffConfig {
        max_retries: 40,
        base_ms: 40,
        cap_ms: 200, // also caps the server's 1s Retry-After hint
        seed: 11,
        ..BackoffConfig::default()
    });
    let accepted = retrying.post("/jobs/burn?millis=1", &[]).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.text());
    let after = nptsn_obs::telemetry().snapshot();
    assert!(
        after.recovery_client_retries > before.recovery_client_retries,
        "the accepted submission should have gone through at least one retry"
    );

    server.stop();
    server.wait();
}

/// A poisoned job inside a fused infer batch fails alone. Chaos site
/// `infer.batch` fires once per lane before its episodes start; with
/// `every=3 max=1` exactly the third lane of the batch is poisoned. That
/// job fails with the injected error while its two batch-mates complete
/// with identical outcomes — per-job error isolation inside one fused
/// forward.
#[test]
fn poisoned_infer_job_in_a_batch_fails_alone() {
    let _guard = arm_scoped(FaultPlan::new(7).with_rule(SiteRule {
        site: "infer.batch".to_string(),
        kind: FaultKind::Error,
        every: 3,
        rate: 1.0,
        max_count: 1,
    }));
    let server = start(ServeConfig { workers: 1, queue_depth: 16, ..ServeConfig::default() });
    let queue = server.queue();
    let mut client = Client::new(server.local_addr());

    const DOC: &str = "\
[nodes]
es a
es b
sw s0
sw s1
[links]
a s0
a s1
b s0
b s1
s0 s1
[flows]
a b 500 128
";
    let parsed = nptsn_format::parse_problem(DOC).expect("fixture parses");
    let planner = nptsn::Planner::new(parsed.problem.clone(), nptsn::PlannerConfig::quick());
    let bytes = nptsn_nn::params_to_bytes(&nptsn_nn::Module::parameters(&planner.build_policy()));
    let put = client.put("/checkpoints/smoke", &bytes).unwrap();
    assert_eq!(put.status, 200, "{}", put.text());

    // Pile three identical infer jobs behind a burn so the single worker
    // fuses them into one batch.
    let burn = client.post("/jobs/burn?millis=1000", &[]).unwrap();
    assert_eq!(burn.status, 202, "{}", burn.text());
    let burn_id = int_field(&burn.text(), "id");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let body = client.get(&format!("/jobs/{burn_id}")).unwrap().text();
        if body.contains("\"state\":\"running\"") {
            break;
        }
        assert!(Instant::now() < deadline, "burn job never started: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }
    let ids: Vec<u64> = (0..3)
        .map(|_| {
            let r = client
                .post("/jobs/infer?checkpoint=smoke&attempts=2&seed=5", DOC.as_bytes())
                .unwrap();
            assert_eq!(r.status, 202, "{}", r.text());
            int_field(&r.text(), "id")
        })
        .collect();

    let deadline = Instant::now() + Duration::from_secs(60);
    for &id in &ids {
        loop {
            let body = client.get(&format!("/jobs/{id}")).unwrap().text();
            let terminal = ["done", "failed", "cancelled"]
                .iter()
                .any(|s| body.contains(&format!("\"state\":\"{s}\"")));
            if terminal {
                break;
            }
            assert!(Instant::now() < deadline, "job {id} never finished: {body}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    server.stop();
    server.wait();

    let snaps: Vec<nptsn_serve::JobSnapshot> =
        ids.iter().map(|&id| queue.snapshot(id).expect("job tracked")).collect();
    let poisoned: Vec<&nptsn_serve::JobSnapshot> = snaps
        .iter()
        .filter(|s| {
            s.error.as_deref().is_some_and(|e| e.contains("chaos: injected fault at infer.batch"))
        })
        .collect();
    assert_eq!(
        poisoned.len(),
        1,
        "exactly one lane must carry the injected fault: {:?}",
        snaps.iter().map(|s| (s.state, s.error.clone())).collect::<Vec<_>>()
    );
    let survivors: Vec<&nptsn_serve::JobSnapshot> = snaps
        .iter()
        .filter(|s| !s.error.as_deref().is_some_and(|e| e.contains("chaos")))
        .collect();
    assert_eq!(survivors.len(), 2);
    assert_eq!(
        (survivors[0].state, &survivors[0].outcome, &survivors[0].error),
        (survivors[1].state, &survivors[1].outcome, &survivors[1].error),
        "the two healthy batch-mates diverged"
    );
    // The injection really landed at the batch site, exactly once.
    let counts = nptsn_chaos::injection_counts();
    assert!(
        counts.iter().any(|(site, n)| site == "infer.batch" && *n == 1),
        "no infer.batch injection recorded: {counts:?}"
    );
}

/// Chaos site `obs.flush`: a faulted timeline flush degrades the trace —
/// the job itself completes and is served untouched, the failure is
/// counted, and `GET /jobs/<id>/trace` answers with an empty timeline
/// instead of an error. Observability must never break the job contract.
#[test]
fn a_faulted_trace_flush_degrades_the_timeline_never_the_job() {
    let _guard = arm_scoped(FaultPlan::new(3).with_rule(SiteRule {
        site: "obs.flush".to_string(),
        kind: FaultKind::Error,
        every: 0,
        rate: 1.0,
        max_count: 0,
    }));
    let failures = nptsn_obs::telemetry().registry.counter(
        "nptsn_obs_trace_flush_failures_total",
        "Job trace timelines that failed to persist (degraded, job unaffected)",
    );
    let before = failures.get();
    let server = start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut client = Client::new(server.local_addr());

    // Stamp a trace context onto the submission, as the router would —
    // without one there is no timeline to flush and the site never runs.
    let trace = nptsn_obs::TraceContext::from_seed(0xfaded);
    let accepted = client
        .post_with_headers(
            "/jobs/burn?millis=1",
            &[(nptsn_obs::TRACE_HEADER, trace.header_value())],
            &[],
        )
        .unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.text());
    let id = int_field(&accepted.text(), "id");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let body = client.get(&format!("/jobs/{id}")).unwrap().text();
        if body.contains("\"state\":\"done\"") {
            break;
        }
        assert!(Instant::now() < deadline, "the job never finished: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The flush runs just after the job goes terminal; wait for its
    // failure to be counted rather than racing it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while failures.get() == before {
        assert!(Instant::now() < deadline, "no flush failure was counted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let counts = nptsn_chaos::injection_counts();
    assert!(
        counts.iter().any(|(site, n)| site == "obs.flush" && *n > 0),
        "no obs.flush injection recorded: {counts:?}"
    );

    // The timeline degraded to empty; the trace route still answers 200.
    let timeline = client.get(&format!("/jobs/{id}/trace")).unwrap();
    assert_eq!(timeline.status, 200, "{}", timeline.text());
    assert!(timeline.text().contains("\"spans\":[]"), "{}", timeline.text());

    server.stop();
    server.wait();
}

/// A seeded fault storm over the full serve stack: dropped accepts,
/// dropped response writes, and failing jobs. The retrying client makes
/// progress through all of it, nothing hangs, and at drain time every
/// accepted job has a terminal state — zero lost jobs.
#[test]
fn seeded_storm_loses_no_jobs_and_drains_clean() {
    let _guard = arm_scoped(
        FaultPlan::new(1337)
            .with_rule(SiteRule {
                site: "serve.accept".to_string(),
                kind: FaultKind::Error,
                every: 0,
                rate: 0.25,
                max_count: 0,
            })
            .with_rule(SiteRule {
                site: "serve.conn.write".to_string(),
                kind: FaultKind::Error,
                every: 0,
                rate: 0.15,
                max_count: 0,
            })
            .with_rule(SiteRule {
                site: "serve.job".to_string(),
                kind: FaultKind::Error,
                every: 0,
                rate: 0.4,
                max_count: 0,
            }),
    );
    let before = nptsn_obs::telemetry().snapshot();
    let server = start(ServeConfig { workers: 2, queue_depth: 8, ..ServeConfig::default() });
    let queue = server.queue();
    let metrics = server.metrics();

    let mut client = Client::new(server.local_addr()).with_backoff(BackoffConfig {
        max_retries: 12,
        base_ms: 5,
        cap_ms: 50,
        seed: 99,
        ..BackoffConfig::default()
    });

    // Drive a stream of jobs through the storm. Connection-level faults
    // are invisible here thanks to the retries; job-level faults surface
    // as `failed` — a recorded outcome, not a loss.
    let mut ids = Vec::new();
    for _ in 0..12 {
        let response = client.post("/jobs/burn?millis=1", &[]).expect("submit through storm");
        if response.status == 202 {
            ids.push(int_field(&response.text(), "id"));
        } else {
            assert_eq!(response.status, 503, "{}", response.text());
        }
    }
    assert!(!ids.is_empty(), "no job made it through the storm");

    // Every accepted job reaches a terminal state — polling through the
    // same faulty stack.
    let deadline = Instant::now() + Duration::from_secs(30);
    for &id in &ids {
        loop {
            let body = client.get(&format!("/jobs/{id}")).expect("poll through storm").text();
            let done = ["done", "failed", "cancelled"]
                .iter()
                .any(|s| body.contains(&format!("\"state\":\"{s}\"")));
            if done {
                break;
            }
            assert!(Instant::now() < deadline, "job {id} hung in the storm: {body}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    server.stop();
    server.wait();

    // Accounting: submitted == completed + failed + cancelled, exactly.
    let submitted = metrics.jobs_submitted.get();
    let terminal =
        metrics.jobs_completed.get() + metrics.jobs_failed.get() + metrics.jobs_cancelled.get();
    assert_eq!(submitted, terminal, "a job was lost in the storm");
    for &id in &ids {
        let snap = queue.snapshot(id).expect("job tracked after drain");
        assert!(snap.state.is_terminal(), "job {id} not terminal after drain");
        if snap.state == JobState::Failed {
            assert!(snap.error.is_some(), "failed job {id} has no error message");
        }
    }

    // The storm actually stormed, and the injections reached telemetry.
    let after = nptsn_obs::telemetry().snapshot();
    assert!(after.chaos_faults > before.chaos_faults, "no faults were injected");
    let counts = nptsn_chaos::injection_counts();
    assert!(
        counts.iter().any(|(site, n)| site == "serve.job" && *n > 0),
        "no job faults recorded: {counts:?}"
    );
}
