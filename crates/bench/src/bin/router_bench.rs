//! Router benchmark: routed-path overhead and failover latency against a
//! real multi-process shard fleet.
//!
//! Measures the two numbers that decide whether the front tier is worth
//! running:
//!
//! 1. **routed overhead** — submit-to-drain throughput of durable no-op
//!    jobs through the router over its two-shard fleet, against the same
//!    load submitted directly to a single shard. The router adds a hop;
//!    the second shard adds capacity — the gate is that the routed path
//!    gives up at most 25% of direct throughput.
//! 2. **failover latency** — over several rounds: `kill -9` one shard
//!    mid-work and time from the kill to the first job from the dead
//!    shard's log reaching a terminal state through the router (detect →
//!    rebalance → replay → execute). Every round also asserts the zero-
//!    loss contract: every acked job terminal, none lost.
//!
//! Writes `BENCH_router.json` to the working directory (override with
//! `NPTSN_BENCH_OUT`); `NPTSN_BENCH_SMOKE=1` shrinks the counts to a
//! plumbing check. Exits non-zero if the overhead gate or the zero-loss
//! gate fails.
//!
//! ```text
//! cargo run --release -p nptsn-bench --bin router_bench
//! ```

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use nptsn_bench::fleet::{maybe_run_shard_child, spawn_shard, ShardProc};
use nptsn_bench::json_u64;
use nptsn_router::{Router, RouterConfig, ShardSpec};
use nptsn_serve::client::{BackoffConfig, Client};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nptsn-router-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn retrying(addr: SocketAddr, seed: u64) -> Client {
    Client::new(addr).with_backoff(BackoffConfig {
        max_retries: 40,
        base_ms: 10,
        cap_ms: 200,
        seed,
        deadline_ms: 0,
    })
}

/// Submits `jobs` no-op burns from `threads` clients and waits for every
/// one to drain; returns (jobs per second, acked ids).
///
/// Every submission carries a trace header. The router stamps one on
/// every forward regardless, so the shard behind it captures and
/// persists a per-job timeline; stamping the direct leg too keeps both
/// legs doing identical per-job work — the overhead gate isolates the
/// forwarding hop, not the cost of the timeline feature (obs_bench owns
/// that gate).
fn drive(addr: SocketAddr, jobs: usize, threads: usize) -> (f64, Vec<u64>) {
    let started = Instant::now();
    let per_thread = jobs / threads;
    let ids: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = retrying(addr, t as u64);
                    (0..per_thread)
                        .map(|n| {
                            let trace = nptsn_obs::TraceContext::from_seed(
                                ((t as u64) << 32) | n as u64,
                            );
                            let headers =
                                [(nptsn_obs::TRACE_HEADER, trace.header_value())];
                            let accepted = client
                                .post_with_headers("/jobs/burn?millis=0", &headers, &[])
                                .expect("submit");
                            assert_eq!(accepted.status, 202, "job {n}: {}", accepted.text());
                            json_u64(&accepted.text(), "id")
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("submit thread")).collect()
    });
    let mut client = retrying(addr, 99);
    for &id in &ids {
        loop {
            let status = client.get(&format!("/jobs/{id}")).expect("poll");
            if status.status == 200 && status.text().contains("\"state\":\"done\"") {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    (ids.len() as f64 / started.elapsed().as_secs_f64().max(1e-9), ids)
}

fn shutdown_fleet(router: Router, mut shards: Vec<ShardProc>) {
    let mut client = Client::new(router.local_addr());
    let _ = client.post("/shutdown", &[]);
    router.wait();
    for shard in &mut shards {
        let mut direct = Client::new(shard.addr);
        if direct.post("/shutdown", &[]).is_ok() {
            shard.join();
        } else {
            shard.kill9();
        }
    }
}

/// One failover round: 2 shards + router, queue work, `kill -9` the shard
/// owning the most queued jobs, and time kill → first dead-shard job
/// terminal through the router. Returns (latency, replayed jobs acked and
/// verified terminal).
fn failover_round(round: usize, jobs: usize) -> Duration {
    let a_dir = temp_dir(&format!("fo{round}-a"));
    let b_dir = temp_dir(&format!("fo{round}-b"));
    let shard_a = spawn_shard(Some(&a_dir), 1, 1024);
    let shard_b = spawn_shard(Some(&b_dir), 1, 1024);
    let router = Router::bind(RouterConfig {
        shards: vec![
            ShardSpec { name: "s0".into(), addr: shard_a.addr, data_dir: Some(a_dir.clone()) },
            ShardSpec { name: "s1".into(), addr: shard_b.addr, data_dir: Some(b_dir.clone()) },
        ],
        health_interval_ms: 25,
        health_failures: 2,
        forward_deadline_ms: 1_000,
        ..RouterConfig::default()
    })
    .expect("bind router");
    let mut client = retrying(router.local_addr(), round as u64);

    // Slow-ish burns so the victim dies with queued and running work.
    let ids: Vec<u64> = (0..jobs)
        .map(|n| {
            let accepted = client.post("/jobs/burn?millis=30", &[]).expect("submit");
            assert_eq!(accepted.status, 202, "job {n}: {}", accepted.text());
            json_u64(&accepted.text(), "id")
        })
        .collect();
    let ring = router.ring();
    let on_a: Vec<u64> =
        ids.iter().copied().filter(|&id| ring.place(id) == Some("s0")).collect();
    assert!(!on_a.is_empty(), "no job landed on the victim shard");

    let mut shards = vec![shard_a, shard_b];
    shards[0].kill9();
    let killed_at = Instant::now();

    // First dead-shard job terminal through the router = the failover is
    // end-to-end live again for that key range.
    let probe = on_a[0];
    let first_replayed = loop {
        let status = client.get(&format!("/jobs/{probe}")).expect("poll replayed");
        if status.status == 200 && status.text().contains("\"state\":\"done\"") {
            break killed_at.elapsed();
        }
        assert!(
            killed_at.elapsed() < Duration::from_secs(60),
            "job {probe} not replayed in time: {} {}",
            status.status,
            status.text()
        );
        std::thread::sleep(Duration::from_millis(2));
    };

    // Zero acked loss: every job of the round, either shard, terminal.
    for &id in &ids {
        loop {
            let status = client.get(&format!("/jobs/{id}")).expect("poll");
            if status.status == 200 && status.text().contains("\"state\":\"done\"") {
                break;
            }
            assert!(
                killed_at.elapsed() < Duration::from_secs(120),
                "acked job {id} lost after failover"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    shutdown_fleet(router, shards);
    first_replayed
}

fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1_000.0
}

fn main() {
    maybe_run_shard_child();
    let smoke = std::env::var("NPTSN_BENCH_SMOKE").is_ok();
    let (load_jobs, threads, rounds, round_jobs) =
        if smoke { (64usize, 4usize, 2usize, 16usize) } else { (256, 4, 5, 24) };

    // 1. Direct baseline: one durable shard, no router.
    let direct_dir = temp_dir("direct");
    let mut direct_shard = spawn_shard(Some(&direct_dir), 2, 1024);
    let (direct_jps, _) = drive(direct_shard.addr, load_jobs, threads);
    let mut direct_client = Client::new(direct_shard.addr);
    direct_client.post("/shutdown", &[]).expect("shut down direct shard");
    direct_shard.join();
    println!("router_bench: direct {direct_jps:.0} jobs/s ({load_jobs} durable no-op jobs)");

    // 2. Routed: two durable shards behind the router, same load.
    let a_dir = temp_dir("routed-a");
    let b_dir = temp_dir("routed-b");
    let shard_a = spawn_shard(Some(&a_dir), 2, 1024);
    let shard_b = spawn_shard(Some(&b_dir), 2, 1024);
    let router = Router::bind(RouterConfig {
        shards: vec![
            ShardSpec { name: "s0".into(), addr: shard_a.addr, data_dir: Some(a_dir.clone()) },
            ShardSpec { name: "s1".into(), addr: shard_b.addr, data_dir: Some(b_dir.clone()) },
        ],
        ..RouterConfig::default()
    })
    .expect("bind router");
    let (routed_jps, _) = drive(router.local_addr(), load_jobs, threads);
    shutdown_fleet(router, vec![shard_a, shard_b]);
    let overhead_pct = (1.0 - routed_jps / direct_jps.max(1e-9)) * 100.0;
    println!(
        "router_bench: routed {routed_jps:.0} jobs/s over 2 shards (overhead {overhead_pct:.1}%)"
    );

    // 3. Failover rounds: kill -9 → first replayed job terminal.
    let mut latencies: Vec<Duration> =
        (0..rounds).map(|round| failover_round(round, round_jobs)).collect();
    latencies.sort();
    let p50 = percentile_ms(&latencies, 0.50);
    let p99 = percentile_ms(&latencies, 0.99);
    println!(
        "router_bench: failover→first-replayed-job p50 {p50:.0}ms p99 {p99:.0}ms ({rounds} rounds, zero acked loss)"
    );

    // Hand-written JSON: the workspace is hermetic, no serde.
    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"router\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!(
        "  \"throughput\": {{\"jobs\": {load_jobs}, \"threads\": {threads}, \
         \"direct_jobs_per_sec\": {direct_jps:.1}, \"routed_jobs_per_sec\": {routed_jps:.1}, \
         \"routed_overhead_pct\": {overhead_pct:.1}}},\n"
    ));
    json.push_str(&format!(
        "  \"failover\": {{\"rounds\": {rounds}, \"jobs_per_round\": {round_jobs}, \
         \"first_replayed_ms_p50\": {p50:.1}, \"first_replayed_ms_p99\": {p99:.1}, \
         \"acked_jobs_lost\": 0}}\n"
    ));
    json.push_str("}\n");
    let out_path =
        std::env::var("NPTSN_BENCH_OUT").unwrap_or_else(|_| "BENCH_router.json".to_string());
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("router_bench: wrote {out_path}");

    // The acceptance gate: the routed path may give up at most 25% of
    // direct single-shard throughput. (Loss of any acked job panics in
    // the rounds above, so reaching this point is the zero-loss gate.)
    if overhead_pct > 25.0 {
        eprintln!("router_bench: GATE FAILED — routed overhead {overhead_pct:.1}% > 25%");
        std::process::exit(1);
    }
    println!("router_bench: PASS (overhead {overhead_pct:.1}% <= 25%)");
}
