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
use nptsn_bench::{json_u64, temp_dir, write_ledger};
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

fn main() {
    maybe_run_shard_child();
    let (load_jobs, threads) = if nptsn_bench::smoke() { (64usize, 4usize) } else { (256, 4) };

    // 1. Direct baseline: one durable shard, no router.
    let direct_dir = temp_dir("router-direct");
    let mut direct_shard = spawn_shard(Some(&direct_dir), 2, 1024);
    let (direct_jps, _) = drive(direct_shard.addr, load_jobs, threads);
    let mut direct_client = Client::new(direct_shard.addr);
    direct_client.post("/shutdown", &[]).expect("shut down direct shard");
    direct_shard.join();
    let _ = std::fs::remove_dir_all(&direct_dir);
    println!("router_bench: direct {direct_jps:.0} jobs/s ({load_jobs} durable no-op jobs)");

    // 2. Routed: two durable shards behind the router, same load.
    let a_dir = temp_dir("router-routed-a");
    let b_dir = temp_dir("router-routed-b");
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
    for dir in [a_dir, b_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let overhead_pct = (1.0 - routed_jps / direct_jps.max(1e-9)) * 100.0;
    println!(
        "router_bench: routed {routed_jps:.0} jobs/s over 2 shards (overhead {overhead_pct:.1}%)"
    );

    write_ledger("router", "router", |l| {
        l.object("throughput", |o| {
            o.int("jobs", load_jobs as u64)
                .int("threads", threads as u64)
                .num("direct_jobs_per_sec", direct_jps)
                .num("routed_jobs_per_sec", routed_jps)
                .num("routed_overhead_pct", overhead_pct);
        });
    });

    // The acceptance gate: the routed path may give up at most 25% of
    // direct single-shard throughput.
    if overhead_pct > 25.0 {
        eprintln!("router_bench: GATE FAILED — routed overhead {overhead_pct:.1}% > 25%");
        std::process::exit(1);
    }
    println!("router_bench: PASS (overhead {overhead_pct:.1}% <= 25%)");
}
