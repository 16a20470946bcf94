//! Tracing-overhead benchmark: what does `nptsn-obs` instrumentation cost
//! on the micro analyzer workload, with recording disabled and enabled?
//!
//! Writes the `obs` ledger (`BENCH_obs.json`, see `nptsn_bench::ledger`;
//! a smoke run shrinks iteration counts to a plumbing check):
//!
//! * `span_ns` — the cost of one `span()` open/close, disabled (a relaxed
//!   atomic load and a branch) and enabled (timestamping + a buffered
//!   record).
//! * `workload` — median wall-clock of one `Planner::plan_with_policy`
//!   call (4 attempts of an untrained policy on ORION with 10 flows, one
//!   thread), disabled vs enabled in alternating runs, the spans one
//!   traced call records, and the enabled overhead percentage. A re-plan
//!   opens spans at the planner's density (an environment step, SOAG,
//!   analyzer and GCN forward per step), so the enabled cost shows above
//!   the run-to-run noise; the analyzer run it replaced recorded one
//!   span.
//! * `overhead_disabled_pct` — the measured disabled-path cost charged to
//!   the workload: spans recorded per run × disabled span cost, as a
//!   percentage of the disabled workload median. This is the number the
//!   "<5% overhead with tracing off" acceptance gate reads; it bounds the
//!   instrumentation cost left in the hot path for untraced runs.
//! * `flight` — the always-on flight recorder: per-span record cost with
//!   the ring armed (tracing still off) and the cost of one full-ring
//!   snapshot (the `/debug/flight` drain).
//! * `routed` — submit-to-drain over an in-process two-shard fleet with
//!   the flight recorder armed, and the armed-tracing overhead charged to
//!   that path (flight spans per round × armed record premium). Gated
//!   ≤5% like the disabled gate.
//!
//! Section order matters: everything before `flight_init` measures the
//! pure disabled path (two relaxed loads per span); arming the ring is
//! irreversible for the life of the process.

use std::hint::black_box;
use std::time::Instant;

use nptsn::{Planner, PlannerConfig};
use nptsn_bench::{json_u64, percentile, problem_for, write_ledger};
use nptsn_router::{Router, RouterConfig, ShardSpec};
use nptsn_scenarios::{orion, random_flows};
use nptsn_serve::client::Client;
use nptsn_serve::{ServeConfig, Server};

/// Median of timed runs of `f`, in nanoseconds.
fn median_ns(warmup: usize, iters: usize, mut f: impl FnMut()) -> u64 {
    for _ in 0..warmup {
        f();
    }
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    percentile(&samples, 50.0) as u64
}

/// One submit-to-drain round over the routed fleet: submit `jobs` burn
/// jobs through the router and poll every one of them to `done`.
fn routed_round(client: &mut Client, jobs: usize) {
    let ids: Vec<u64> = (0..jobs)
        .map(|_| {
            let accepted = client.post("/jobs/burn?millis=0", &[]).expect("routed submit");
            assert_eq!(accepted.status, 202, "{}", accepted.text());
            json_u64(&accepted.text(), "id")
        })
        .collect();
    for id in ids {
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        loop {
            if let Ok(status) = client.get(&format!("/jobs/{id}")) {
                if status.text().contains("\"state\":\"done\"") {
                    break;
                }
            }
            assert!(Instant::now() < deadline, "job {id} never finished");
            std::thread::yield_now();
        }
    }
}

fn main() {
    let smoke = nptsn_bench::smoke();
    let (warmup, iters, span_loops) =
        if smoke { (1usize, 3usize, 20_000u64) } else { (3, 15, 2_000_000) };
    assert!(!nptsn_obs::enabled(), "tracing must start disabled");
    assert!(!nptsn_obs::flight_armed(), "the flight ring must start unarmed");

    // --- Span primitive cost -------------------------------------------
    let span_disabled_ns = median_ns(1, 5, || {
        for _ in 0..span_loops {
            let _span = nptsn_obs::span("bench.span");
            black_box(&_span);
        }
    }) as f64
        / span_loops as f64;

    nptsn_obs::set_enabled(true);
    let span_enabled_ns = median_ns(1, 5, || {
        for _ in 0..span_loops {
            let _span = nptsn_obs::span("bench.span");
            black_box(&_span);
        }
        // Keep the sink bounded; draining outside the timed window would
        // be fairer but the append amortizes to ~nothing per span anyway.
        let _ = nptsn_obs::drain();
    }) as f64
        / span_loops as f64;
    nptsn_obs::set_enabled(false);
    let _ = nptsn_obs::drain();

    // --- Re-planning workload, disabled vs enabled ---------------------
    // One thread, so that every span of a call is recorded on this one.
    let scenario = orion();
    let problem = problem_for(&scenario, random_flows(&scenario.graph, 10, 2023));
    let planner = Planner::new(problem, PlannerConfig { workers: 1, ..PlannerConfig::smoke_test() });
    let policy = planner.build_policy();
    let attempts = if smoke { 1 } else { 4 };
    let replan = || black_box(planner.plan_with_policy(&policy, attempts, 7));
    for _ in 0..warmup {
        replan();
    }

    nptsn_obs::set_enabled(true);
    // Count the spans one traced run records, for the disabled-cost model.
    replan();
    let spans_per_run = nptsn_obs::drain()
        .iter()
        .filter(|r| matches!(r, nptsn_obs::Record::Span { .. }))
        .count() as u64;
    // Disabled and enabled runs alternate, so that the host's drift over
    // the measurement falls on both alike; the sink drains outside the
    // timed window.
    let timed = || {
        let start = Instant::now();
        replan();
        start.elapsed().as_nanos() as f64
    };
    let (mut disabled, mut enabled) = (Vec::new(), Vec::new());
    let runs = iters * 3;
    for _ in 0..runs {
        nptsn_obs::set_enabled(false);
        disabled.push(timed());
        nptsn_obs::set_enabled(true);
        enabled.push(timed());
        let _ = nptsn_obs::drain();
    }
    nptsn_obs::set_enabled(false);
    let _ = nptsn_obs::drain();
    let (disabled_ns, enabled_ns) =
        (percentile(&disabled, 50.0) as u64, percentile(&enabled, 50.0) as u64);

    let overhead_enabled_pct =
        (enabled_ns as f64 - disabled_ns as f64) / disabled_ns.max(1) as f64 * 100.0;
    // With recording off, each instrumented call site costs one disabled
    // `span()` (the counters behind `enabled()` are cheaper still).
    let overhead_disabled_pct =
        spans_per_run as f64 * span_disabled_ns / disabled_ns.max(1) as f64 * 100.0;

    // --- Flight recorder: record and drain cost ------------------------
    // Arming is irreversible; every measurement past this line sees the
    // armed ring.
    nptsn_obs::flight_init(0);
    assert!(nptsn_obs::flight_armed());
    let flight_span_ns = median_ns(1, 5, || {
        for _ in 0..span_loops {
            let _span = nptsn_obs::span("bench.flight");
            black_box(&_span);
        }
    }) as f64
        / span_loops as f64;
    // The ring is saturated by the loop above; snapshot cost is the
    // worst-case `/debug/flight` drain.
    let flight_entries = nptsn_obs::flight_snapshot().len();
    let flight_snapshot_ns = median_ns(1, 5, || {
        black_box(nptsn_obs::flight_snapshot());
    });

    // --- Routed submit-to-drain with the flight recorder armed ---------
    let (rounds, jobs_per_round) = if smoke { (2usize, 4usize) } else { (7, 16) };
    let shard_a = Server::bind(ServeConfig {
        workers: 2,
        queue_depth: 64,
        shard_name: Some("bench-a".to_string()),
        ..ServeConfig::default()
    })
    .expect("bind shard a");
    let shard_b = Server::bind(ServeConfig {
        workers: 2,
        queue_depth: 64,
        shard_name: Some("bench-b".to_string()),
        ..ServeConfig::default()
    })
    .expect("bind shard b");
    let router = Router::bind(RouterConfig {
        shards: vec![
            ShardSpec {
                name: "bench-a".to_string(),
                addr: shard_a.local_addr(),
                data_dir: None,
            },
            ShardSpec {
                name: "bench-b".to_string(),
                addr: shard_b.local_addr(),
                data_dir: None,
            },
        ],
        ..RouterConfig::default()
    })
    .expect("bind router");
    let mut client = Client::new(router.local_addr());

    routed_round(&mut client, jobs_per_round); // warmup
    // Count the flight spans one round records (everything the fleet
    // does lands in this process's ring): entries newer than the
    // pre-round high-water timestamp.
    let mark = nptsn_obs::flight_snapshot().last().map_or(0, |e| e.ts_ns);
    routed_round(&mut client, jobs_per_round);
    let spans_per_round = nptsn_obs::flight_snapshot()
        .iter()
        .filter(|e| e.kind == nptsn_obs::FlightKind::Span && e.ts_ns > mark)
        .count() as u64;
    let routed_ns = median_ns(0, rounds, || routed_round(&mut client, jobs_per_round));
    router.stop();
    shard_a.stop();
    shard_a.wait();
    shard_b.stop();
    shard_b.wait();

    // The armed premium per span is what the always-on ring adds over the
    // bare disabled path; charge one round's spans against its median.
    let overhead_armed_pct = spans_per_round as f64
        * (flight_span_ns - span_disabled_ns).max(0.0)
        / routed_ns.max(1) as f64
        * 100.0;

    println!(
        "obs_bench: span {span_disabled_ns:.2} ns disabled, {span_enabled_ns:.1} ns enabled"
    );
    println!(
        "obs_bench: workload median {disabled_ns} ns disabled, {enabled_ns} ns enabled \
         ({attempts} re-plan attempts, {spans_per_run} spans/run)"
    );
    println!(
        "obs_bench: overhead {overhead_disabled_pct:.4}% disabled, \
         {overhead_enabled_pct:.2}% enabled"
    );
    println!(
        "obs_bench: flight span {flight_span_ns:.2} ns armed, snapshot of {flight_entries} \
         entries {flight_snapshot_ns} ns"
    );
    println!(
        "obs_bench: routed round median {routed_ns} ns ({jobs_per_round} jobs, \
         {spans_per_round} flight spans/round, armed overhead {overhead_armed_pct:.4}%)"
    );

    write_ledger("obs", "tracing_overhead_orion_replan", |l| {
        l.int("iters", iters as u64)
            .object("span_ns", |o| {
                o.num("disabled", span_disabled_ns).num("enabled", span_enabled_ns);
            })
            .object("workload", |o| {
                o.int("replan_attempts", attempts as u64)
                    .int("runs_per_side", runs as u64)
                    .int("spans_per_run", spans_per_run)
                    .int("median_ns_disabled", disabled_ns)
                    .int("median_ns_enabled", enabled_ns);
            })
            .num("overhead_disabled_pct", overhead_disabled_pct)
            .num("overhead_enabled_pct", overhead_enabled_pct)
            .object("flight", |o| {
                o.int("capacity", nptsn_obs::flight_capacity() as u64)
                    .num("span_ns_armed", flight_span_ns)
                    .int("snapshot_entries", flight_entries as u64)
                    .int("snapshot_ns", flight_snapshot_ns);
            })
            .object("routed", |o| {
                o.int("jobs_per_round", jobs_per_round as u64)
                    .int("rounds", rounds as u64)
                    .int("median_ns", routed_ns)
                    .int("flight_spans_per_round", spans_per_round)
                    .num("overhead_armed_pct", overhead_armed_pct);
            });
    });

    if overhead_disabled_pct >= 5.0 {
        eprintln!(
            "obs_bench: FAIL — disabled-tracing overhead {overhead_disabled_pct:.2}% >= 5%"
        );
        std::process::exit(1);
    }
    if overhead_armed_pct >= 5.0 {
        eprintln!(
            "obs_bench: FAIL — armed-tracing overhead on the routed path \
             {overhead_armed_pct:.2}% >= 5%"
        );
        std::process::exit(1);
    }
}
