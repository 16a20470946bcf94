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
//! Writes `BENCH_serve.json` to the working directory (override with
//! `NPTSN_BENCH_OUT`); `NPTSN_BENCH_SMOKE=1` shrinks the request counts to
//! a plumbing check.
//!
//! ```text
//! cargo run --release -p nptsn-bench --bin serve_bench
//! ```

use std::time::{Duration, Instant};

use nptsn_bench::json_u64;
use nptsn_serve::{Client, ServeConfig, Server};

/// The `q`-quantile of a sorted sample set, in nanoseconds.
fn percentile_ns(sorted: &[Duration], q: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_nanos()
}

fn main() {
    let smoke = std::env::var("NPTSN_BENCH_SMOKE").is_ok();
    let (warmup, polls, health_reqs, drain_jobs) =
        if smoke { (20usize, 200usize, 200usize, 32usize) } else { (200, 5_000, 10_000, 512) };

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
        samples.push(start.elapsed());
        assert_eq!(r.status, 200);
    }
    samples.sort();
    let poll_p50 = percentile_ns(&samples, 0.50);
    let poll_p99 = percentile_ns(&samples, 0.99);
    println!(
        "serve_bench: status poll p50 {:?}  p99 {:?}  ({polls} polls)",
        Duration::from_nanos(poll_p50 as u64),
        Duration::from_nanos(poll_p99 as u64),
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

    // Hand-written JSON: the workspace is hermetic, no serde.
    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"serve_http\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"cpu_cores\": {},\n", nptsn_bench::cpu_cores()));
    json.push_str("  \"workers\": 2,\n");
    json.push_str(&format!(
        "  \"status_poll\": {{\"requests\": {polls}, \"p50_ns\": {poll_p50}, \
         \"p99_ns\": {poll_p99}}},\n"
    ));
    json.push_str(&format!(
        "  \"throughput\": {{\"requests\": {health_reqs}, \"requests_per_sec\": {rps:.1}}},\n"
    ));
    json.push_str(&format!(
        "  \"queue\": {{\"jobs\": {drain_jobs}, \"jobs_per_sec\": {jobs_per_sec:.1}}}\n"
    ));
    json.push_str("}\n");

    let out_path =
        std::env::var("NPTSN_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".to_string());
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("serve_bench: wrote {out_path}");
}
