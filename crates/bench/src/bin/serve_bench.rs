//! Serving benchmark: request throughput and status-poll latency against
//! an in-process `nptsn-serve` instance over real TCP.
//!
//! Measures three things a deployment cares about:
//!
//! 1. **status-poll latency** — `GET /jobs/<id>` p50/p99 while a worker is
//!    busy (the common client loop while a plan trains);
//! 2. **request throughput** — keep-alive `GET /healthz` round trips per
//!    second on one connection;
//! 3. **queue throughput** — submit-to-drain rate for no-op jobs (queue +
//!    worker-pool overhead per job).
//!
//! Writes the `serve` ledger (`BENCH_serve.json`, see
//! `nptsn_bench::ledger`); a smoke run shrinks the request counts to a
//! plumbing check.
//!
//! ```text
//! cargo run --release -p nptsn-bench --bin serve_bench
//! ```

use std::time::{Duration, Instant};

use nptsn_bench::{json_u64, percentile, write_ledger};
use nptsn_serve::{Client, ServeConfig, Server};

fn main() {
    let (warmup, polls, health_reqs, drain_jobs) = if nptsn_bench::smoke() {
        (20usize, 200usize, 200usize, 32usize)
    } else {
        (200, 5_000, 10_000, 512)
    };

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 1024,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let mut client = Client::new(server.local_addr());
    println!("serve_bench: server on {}", server.local_addr());

    // A long-running job so status polls hit the realistic case: a busy
    // worker, a progress snapshot taken under the queue lock.
    let busy = client.post("/jobs/burn?millis=600000", &[]).expect("submit burn");
    assert_eq!(busy.status, 202, "{}", busy.text());
    let busy_id = json_u64(&busy.text(), "id");

    // 1. Status-poll latency.
    for _ in 0..warmup {
        let r = client.get(&format!("/jobs/{busy_id}")).expect("poll");
        assert_eq!(r.status, 200);
    }
    let mut samples = Vec::with_capacity(polls);
    for _ in 0..polls {
        let start = Instant::now();
        let r = client.get(&format!("/jobs/{busy_id}")).expect("poll");
        samples.push(start.elapsed().as_nanos() as f64);
        assert_eq!(r.status, 200);
    }
    let poll_p50 = percentile(&samples, 50.0) as u64;
    let poll_p99 = percentile(&samples, 99.0) as u64;
    println!(
        "serve_bench: status poll p50 {:?}  p99 {:?}  ({polls} polls)",
        Duration::from_nanos(poll_p50),
        Duration::from_nanos(poll_p99),
    );

    // 2. Keep-alive request throughput.
    let start = Instant::now();
    for _ in 0..health_reqs {
        let r = client.get("/healthz").expect("healthz");
        assert_eq!(r.status, 200);
    }
    let elapsed = start.elapsed();
    let rps = health_reqs as f64 / elapsed.as_secs_f64().max(1e-9);
    println!("serve_bench: {rps:.0} req/s over one keep-alive connection ({health_reqs} reqs)");

    // 3. Queue submit-to-drain throughput with no-op jobs.
    let start = Instant::now();
    let mut last_id = 0;
    for _ in 0..drain_jobs {
        let r = client.post("/jobs/burn?millis=0", &[]).expect("submit");
        assert_eq!(r.status, 202, "{}", r.text());
        last_id = json_u64(&r.text(), "id");
    }
    loop {
        let body = client.get(&format!("/jobs/{last_id}")).expect("poll").text();
        if body.contains("\"state\":\"done\"") {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let drain_elapsed = start.elapsed();
    let jobs_per_sec = drain_jobs as f64 / drain_elapsed.as_secs_f64().max(1e-9);
    println!("serve_bench: {jobs_per_sec:.0} jobs/s submit-to-drain ({drain_jobs} no-op jobs)");

    // Wind down: cancel the burner, drain, stop.
    let cancelled = client.delete(&format!("/jobs/{busy_id}")).expect("cancel");
    assert!(cancelled.status == 200 || cancelled.status == 202, "{}", cancelled.text());
    let shutdown = client.post("/shutdown", &[]).expect("shutdown");
    assert_eq!(shutdown.status, 200);
    server.wait();

    write_ledger("serve", "serve_http", |l| {
        l.int("workers", 2)
            .object("status_poll", |o| {
                o.int("requests", polls as u64).int("p50_ns", poll_p50).int("p99_ns", poll_p99);
            })
            .object("throughput", |o| {
                o.int("requests", health_reqs as u64).num("requests_per_sec", rps);
            })
            .object("queue", |o| {
                o.int("jobs", drain_jobs as u64).num("jobs_per_sec", jobs_per_sec);
            });
    });
}
