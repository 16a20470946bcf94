//! The served path: a `Router` over two `Server` shards, all in this
//! process, driven by a closed-loop verify client.
//!
//! The shards keep their jobs in memory. With durable stores every
//! submission waits for an fsync of the host's shared virtual disk, whose
//! latency swung job time by 2x between runs minutes apart (1.3 to 2.6 ms
//! at the median) and run length from 22 to 80 s; the workload then
//! measured the neighbours' disk traffic, not the router or the shards.
//!
//! A job is a chain of hand-overs between threads, each a wake-up of a
//! sleeping thread. On the virtual machine the benchmark was sized on, a
//! core with nothing to run halts, and the host is slow to resume it when
//! its own cores are busy: such runs showed 10-25 s of steal time, the
//! median job took 0.5-0.74 ms instead of 0.4 ms and the p99 reached
//! 9-13 ms. [`KeepCoresAwake`] spins on every core at the lowest priority
//! while the workload runs, so no core halts; the median then repeated
//! within 0.39-0.43 ms over eight runs, steal time or not.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nptsn::{FailureAnalyzer, ScenarioCache};
use nptsn_format::json::analysis_report_json;
use nptsn_format::{parse_plan, parse_problem};
use nptsn_rand::rngs::StdRng;
use nptsn_rand::{Rng, SeedableRng};
use nptsn_router::{Router, RouterConfig, ShardSpec};
use nptsn_serve::{Client, ServeConfig, Server};

use crate::stats::percentile;
use crate::trace::{AnalyzerCounters, ClientTimers, LayerInputs, Layers};
use crate::workload::{digest, millis, repeat_setup, sub_seed, Opts, Outcome};

const SHARDS: usize = 2;
/// Fleet set-ups before the measurement, and again after it. Each takes
/// a millisecond or two and swings by a third, so the median needs many.
const SETUP_REPEATS: usize = 16;
pub const VARIANTS: usize = 8;
const FLOWS_PER_VARIANT: usize = 6;
const POLL_INTERVAL: Duration = Duration::from_micros(100);
/// A traced run folds the tracer's buffer into its totals this often.
const DRAIN_EVERY: usize = 256;

/// Four dual-homed end stations on two switches. The flows are drawn from
/// the seed.
const NETWORK: &str = "\
[nodes]
es a
es b
es c
es d
sw s0
sw s1
[links]
a s0
a s1
b s0
b s1
c s0
c s1
d s0
d s1
s0 s1
";
const STATIONS: [&str; 4] = ["a", "b", "c", "d"];

/// Both switches at ASIL A: either one failing alone is survivable, both
/// failing together is a safe fault at R = 1e-6.
const PLAN: &str = "\
[switches]
s0 A
s1 A
[plan-links]
a s0
a s1
b s0
b s1
c s0
c s1
d s0
d s1
s0 s1
";

/// One verify request and the answer the service must give for it.
struct Variant {
    body: String,
    expected: String,
    cost: f64,
}

impl Variant {
    fn new(seed: u64) -> Result<Variant, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut problem = format!("{NETWORK}[flows]\n");
        for _ in 0..FLOWS_PER_VARIANT {
            let s = rng.gen_range(0..STATIONS.len());
            let d = (s + rng.gen_range(1..STATIONS.len())) % STATIONS.len();
            problem.push_str(&format!("{} {} 500 256\n", STATIONS[s], STATIONS[d]));
        }
        let parsed = parse_problem(&problem)?;
        let topology = parse_plan(&parsed, PLAN)?;
        let report = FailureAnalyzer::new()
            .with_shared_cache(Arc::new(ScenarioCache::new()))
            .try_analyze(&parsed.problem, &topology)
            .map_err(|e| e.to_string())?;
        if !report.verdict.is_reliable() {
            return Err(format!(
                "the embedded plan is not reliable: {:?}",
                report.verdict
            ));
        }
        let cost = topology.network_cost(parsed.problem.library());
        let expected = analysis_report_json(&parsed.problem, &report, Some(cost));
        Ok(Variant {
            body: format!("{problem}{PLAN}"),
            expected,
            cost,
        })
    }
}

/// Two shards and the router in front of them. Dropping it stops
/// everything.
struct Fleet {
    router: Option<Router>,
    shards: Vec<Server>,
}

impl Fleet {
    fn start() -> std::io::Result<Fleet> {
        let mut fleet = Fleet {
            router: None,
            shards: Vec::new(),
        };
        let mut specs = Vec::new();
        for i in 0..SHARDS {
            let name = format!("s{i}");
            let server = Server::bind(ServeConfig {
                workers: 1,
                shard_name: Some(name.clone()),
                ..ServeConfig::default()
            })?;
            specs.push(ShardSpec {
                name,
                addr: server.local_addr(),
                data_dir: None,
            });
            fleet.shards.push(server);
        }
        fleet.router = Some(Router::bind(RouterConfig {
            shards: specs,
            ..RouterConfig::default()
        })?);
        Ok(fleet)
    }

    fn addr(&self) -> std::net::SocketAddr {
        self.router
            .as_ref()
            .expect("the router runs until drop")
            .local_addr()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Some(router) = self.router.take() {
            router.stop();
            router.wait();
        }
        for shard in self.shards.drain(..) {
            shard.stop();
            shard.wait();
        }
    }
}

/// While alive, keeps every core busy with a thread at the `SCHED_IDLE`
/// priority, which runs only when no other thread wants the core and
/// yields it as soon as one does. Dropping it stops and joins them.
struct KeepCoresAwake {
    /// Publishes nothing but itself, so `Relaxed` suffices.
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepCoresAwake {
    fn start() -> KeepCoresAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !lowest_priority() {
                        eprintln!("benchmark: cannot lower a spinner's priority; cores may halt");
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepCoresAwake { stop, threads }
    }
}

impl Drop for KeepCoresAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            // A spinner has nothing to report; a panic in one is ignored
            // here because `Drop` must not panic.
            let _ = thread.join();
        }
    }
}

/// Moves the calling thread to the `SCHED_IDLE` policy; false where that
/// is not possible.
#[cfg(target_os = "linux")]
fn lowest_priority() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` has the layout of C's `struct sched_param` and lives
    // for the whole call; pid 0 names the calling thread, and lowering its
    // own priority needs no privilege.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn lowest_priority() -> bool {
    false
}

/// What the client measured.
#[derive(Default)]
struct ClientLog {
    op_ms: Vec<f64>,
    submit_us: Vec<f64>,
    result_us: Vec<f64>,
    polls: usize,
    failed: usize,
    wrong: Vec<String>,
}

/// Submits one verify job, polls it to completion and fetches its result.
/// `Err` is a failed job: a refused submission, a failed job or a
/// transport error.
fn job(client: &mut Client, variant: &Variant, log: &mut ClientLog) -> Result<Vec<u8>, String> {
    let begun = Instant::now();
    let submit = client
        .post("/jobs/verify", variant.body.as_bytes())
        .map_err(|e| e.to_string())?;
    log.submit_us.push(millis(begun.elapsed()) * 1e3);
    let text = submit.text();
    let parsed = nptsn_obs::json::parse(&text).map_err(|e| e.to_string())?;
    let id = match (submit.status, parsed.get("id").and_then(|v| v.as_num())) {
        (202, Some(id)) => id as u64,
        (status, _) => return Err(format!("submit answered {status}: {text}")),
    };
    loop {
        std::thread::sleep(POLL_INTERVAL);
        let status = client
            .get(&format!("/jobs/{id}"))
            .map_err(|e| e.to_string())?;
        log.polls += 1;
        let text = status.text();
        let parsed = nptsn_obs::json::parse(&text).map_err(|e| e.to_string())?;
        match (status.status, parsed.get("state").and_then(|v| v.as_str())) {
            (200, Some("done")) => break,
            (200, Some("submitted" | "running")) => {}
            (code, _) => return Err(format!("job {id} status {code}: {text}")),
        }
    }
    let begun = Instant::now();
    let result = client
        .get(&format!("/jobs/{id}/result"))
        .map_err(|e| e.to_string())?;
    log.result_us.push(millis(begun.elapsed()) * 1e3);
    if result.status != 200 {
        return Err(format!(
            "job {id} result status {}: {}",
            result.status,
            result.text()
        ));
    }
    Ok(result.body)
}

/// The closed-loop client: one job outstanding, each job's threads
/// handing over to each other, so at most two want a core at once. Two
/// clients swung the median by a fifth between runs (0.45 to 0.58 ms),
/// and a 16-job window swung throughput by a quarter.
fn client_loop(
    addr: std::net::SocketAddr,
    variants: &[Variant],
    ops: usize,
    mut traced: Option<&mut Layers>,
) -> ClientLog {
    let mut client = Client::new(addr);
    let mut log = ClientLog::default();
    for i in 0..ops {
        let variant = &variants[i % variants.len()];
        let begun = Instant::now();
        let outcome = {
            let _root = nptsn_obs::span("bench.job");
            job(&mut client, variant, &mut log)
        };
        log.op_ms.push(millis(begun.elapsed()));
        match outcome {
            Ok(body) if body == variant.expected.as_bytes() => {}
            Ok(body) => log.wrong.push(format!(
                "job {i}: result differs from the in-process report: {}",
                String::from_utf8_lossy(&body)
            )),
            Err(e) => {
                log.failed += 1;
                log.wrong.push(format!("job {i} failed: {e}"));
            }
        }
        if let Some(layers) = traced.as_deref_mut() {
            if i.is_multiple_of(DRAIN_EVERY) {
                layers.absorb(&nptsn_obs::drain());
            }
        }
    }
    log
}

pub fn routed_verify(opts: &Opts) -> Outcome {
    let variants: Result<Vec<Variant>, String> = (0..VARIANTS as u64)
        .map(|i| Variant::new(sub_seed(opts.seed, i)))
        .collect();
    let variants = match variants {
        Ok(v) => v,
        Err(e) => {
            return Outcome {
                errors: vec![e],
                ..Outcome::default()
            }
        }
    };

    // Set-ups and jobs alike are chains of thread wake-ups.
    let _awake = KeepCoresAwake::start();
    // A fleet set-up is a fresh router and shards, ready once the first
    // job through them has opened the router's forward connections. Half
    // the repetitions run before the measurement and half after it, so
    // that they see more than one phase of the host's contention.
    let start_fleet = || {
        let fleet = Fleet::start()?;
        job(
            &mut Client::new(fleet.addr()),
            &variants[0],
            &mut ClientLog::default(),
        )
        .map_err(std::io::Error::other)?;
        Ok::<Fleet, std::io::Error>(fleet)
    };
    let (fleet, mut setup_s) = repeat_setup(SETUP_REPEATS, start_fleet);
    let fleet = match fleet {
        Ok(fleet) => fleet,
        Err(e) => {
            return Outcome {
                errors: vec![format!("fleet set-up: {e}")],
                ..Outcome::default()
            }
        }
    };

    nptsn_obs::set_enabled(opts.traced);
    let counters = AnalyzerCounters::now();
    let mut layers = Layers::default();
    let start = Instant::now();
    let log = client_loop(
        fleet.addr(),
        &variants,
        opts.ops,
        opts.traced.then_some(&mut layers),
    );
    let wall_s = start.elapsed().as_secs_f64();
    // Stopping the fleet joins its threads, which flushes their spans.
    drop(fleet);
    nptsn_obs::set_enabled(false);
    let analyzer = AnalyzerCounters::now().since(counters);
    layers.absorb(&nptsn_obs::drain());
    let (last, after) = repeat_setup(SETUP_REPEATS, start_fleet);
    setup_s.extend(after);
    let late_setup_error = last.err();

    let jobs = log.op_ms.len();
    let layers = opts.traced.then(|| LayerInputs {
        layers,
        ops: jobs,
        analyzer,
        client: ClientTimers {
            submit_us_p50: percentile(&log.submit_us, 50.0),
            result_us_p50: percentile(&log.result_us, 50.0),
            polls_per_job: log.polls as f64 / jobs.max(1) as f64,
        },
        ..LayerInputs::default()
    });
    let mut errors: Vec<String> = log.wrong.iter().take(3).cloned().collect();
    if log.wrong.len() > 3 {
        errors.push(format!("… and {} more", log.wrong.len() - 3));
    }
    if let Some(e) = late_setup_error {
        errors.push(format!("fleet set-up after the measurement: {e}"));
    }
    Outcome {
        setup_s,
        op_ms: log.op_ms,
        wall_s,
        plan_cost: variants[0].cost,
        failed: log.failed,
        errors,
        digest: digest(variants.iter().map(|v| v.expected.as_str())),
        layers,
    }
}
