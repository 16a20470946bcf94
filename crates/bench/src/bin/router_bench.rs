//! Router benchmark: routed-path overhead against a real multi-process
//! shard fleet.
//!
//! Submit-to-drain throughput of durable no-op jobs through the router
//! over its two-shard fleet, against the same load submitted directly to a
//! single shard. The router adds a hop; the second shard adds capacity —
//! the gate is that the routed path gives up at most 25% of direct
//! throughput. Failover latency is `membership_bench`'s: its replication
//! factor 1 rounds time the kill → served event of a dead-log replay.
//!
//! One sample of each path is too noisy to gate on: on a shared 2-core
//! virtual machine, the overhead of one direct and one routed run read
//! from −20% to +30% with no code change. So the bench takes [`PAIRS`]
//! pairs of samples, each on fresh fleets and alternating which path runs
//! first, and the gate judges the median of the pairs' overheads.
//!
//! Writes the `router` ledger (`BENCH_router.json`, see
//! `nptsn_bench::ledger`); a smoke run shrinks the counts to a plumbing
//! check. Exits non-zero if the overhead gate fails.
//!
//! ```text
//! cargo run --release -p nptsn-bench --bin router_bench
//! ```

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use nptsn_bench::fleet::{maybe_run_shard_child, spawn_shard, ShardProc};
use nptsn_bench::{json_u64, percentile, temp_dir, write_ledger};
use nptsn_router::{Router, RouterConfig, ShardSpec};
use nptsn_serve::client::{BackoffConfig, Client};

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
/// one to drain; returns jobs per second.
///
/// Every submission carries a trace header. The router stamps one on
/// every forward regardless, so the shard behind it captures and
/// persists a per-job timeline; stamping the direct leg too keeps both
/// legs doing identical per-job work — the overhead gate isolates the
/// forwarding hop, not the cost of the timeline feature (obs_bench owns
/// that gate).
fn drive(addr: SocketAddr, jobs: usize, threads: usize) -> f64 {
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
    ids.len() as f64 / started.elapsed().as_secs_f64().max(1e-9)
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

/// Pairs of direct and routed samples. Each pair gives one overhead; the
/// gate judges their median. Odd, so the median is one pair's.
const PAIRS: usize = 9;

/// One pair of samples on fresh fleets, each durable in new temp dirs: a
/// direct shard with no router, and two shards behind the router, driven
/// with the same load. Returns (direct, routed) jobs per second.
///
/// Fresh fleets keep every shard under its job retention (1024 finished
/// jobs), past which each finished job also pays a durable delete. Fleets
/// kept up for all pairs would put the direct shard, which serves every
/// direct job, past it pairs before the two routed shards that split the
/// routed jobs.
fn sample_pair(load_jobs: usize, threads: usize, routed_first: bool) -> (f64, f64) {
    let dirs = ["router-direct", "router-routed-a", "router-routed-b"].map(temp_dir);
    let direct_shard = spawn_shard(Some(&dirs[0]), 2, 1024);
    let shard_a = spawn_shard(Some(&dirs[1]), 2, 1024);
    let shard_b = spawn_shard(Some(&dirs[2]), 2, 1024);
    let router = Router::bind(RouterConfig {
        shards: vec![
            ShardSpec { name: "s0".into(), addr: shard_a.addr, data_dir: Some(dirs[1].clone()) },
            ShardSpec { name: "s1".into(), addr: shard_b.addr, data_dir: Some(dirs[2].clone()) },
        ],
        ..RouterConfig::default()
    })
    .expect("bind router");
    let (direct_addr, routed_addr) = (direct_shard.addr, router.local_addr());
    let jobs_per_sec = if routed_first {
        let routed = drive(routed_addr, load_jobs, threads);
        (drive(direct_addr, load_jobs, threads), routed)
    } else {
        let direct = drive(direct_addr, load_jobs, threads);
        (direct, drive(routed_addr, load_jobs, threads))
    };
    shutdown_fleet(router, vec![shard_a, shard_b, direct_shard]);
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    jobs_per_sec
}

fn main() {
    maybe_run_shard_child();
    let (load_jobs, threads) = if nptsn_bench::smoke() { (64usize, 4usize) } else { (256, 4) };

    // Pair `i` runs the direct sample first when `i` is even, the routed
    // one first when it is odd, so a drift of the host's speed falls on
    // both paths alike.
    let mut pairs: Vec<(f64, f64, f64)> = (0..PAIRS)
        .map(|pair| {
            let (direct_jps, routed_jps) = sample_pair(load_jobs, threads, pair % 2 == 1);
            let overhead_pct = (1.0 - routed_jps / direct_jps.max(1e-9)) * 100.0;
            println!(
                "router_bench: pair {pair}: direct {direct_jps:.0} jobs/s, routed {routed_jps:.0} \
                 jobs/s over 2 shards (overhead {overhead_pct:.1}%)"
            );
            (direct_jps, routed_jps, overhead_pct)
        })
        .collect();
    pairs.sort_by(|a, b| a.2.total_cmp(&b.2));
    let overheads: Vec<f64> = pairs.iter().map(|p| p.2).collect();
    let [q1, q3] = [25.0, 75.0].map(|p| percentile(&overheads, p));
    // The median pair: the ledger's throughputs are its own, so they give
    // the overhead the gate judges.
    let (direct_jps, routed_jps, overhead_pct) = pairs[PAIRS / 2];
    println!(
        "router_bench: median overhead {overhead_pct:.1}% [{q1:.1}, {q3:.1}] over {PAIRS} pairs \
         of {load_jobs} durable no-op jobs"
    );

    write_ledger("router", "router", |l| {
        l.object("throughput", |o| {
            o.int("jobs", load_jobs as u64)
                .int("threads", threads as u64)
                .int("pairs", PAIRS as u64)
                .num("direct_jobs_per_sec", direct_jps)
                .num("routed_jobs_per_sec", routed_jps)
                .num("routed_overhead_pct", overhead_pct)
                .num("routed_overhead_pct_q1", q1)
                .num("routed_overhead_pct_q3", q3);
        });
    });

    // The acceptance gate: the routed path may give up at most 25% of
    // direct single-shard throughput, in the median pair.
    if overhead_pct > 25.0 {
        eprintln!("router_bench: GATE FAILED — median routed overhead {overhead_pct:.1}% > 25%");
        std::process::exit(1);
    }
    println!("router_bench: PASS (median overhead {overhead_pct:.1}% <= 25%)");
}
