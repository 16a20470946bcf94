//! Membership benchmark: what elastic membership (DESIGN.md §16) costs
//! and what replication buys.
//!
//! Two phases over real shard child processes:
//!
//! * **Rejoin catch-up** — a two-shard fleet loses `s0`, accepts a
//!   backlog on the survivor, then `s0` restarts on its old data dir and
//!   is re-announced. The re-announcement round trip IS the rejoin cost:
//!   re-admission handshake, ring re-entry and the synchronous catch-up
//!   transfer of the backlog share the rejoiner missed.
//! * **Failover: promotion vs replay** — repeated rounds of the same
//!   experiment at replication factor 1 and 2: a batch runs to `done`,
//!   `s0` is SIGKILLed, and the clock runs from the kill until the
//!   router serves a job the dead shard owned (the LAST acked one — the
//!   worst case for replay order). At RF1 that waits for death detection
//!   plus the dead-log replay onto the survivor; at RF2 the survivor
//!   already holds every record as a passive replica, so promotion makes
//!   the whole range serveable at the moment of the ring swap. The RF1
//!   rounds are the fleet's one failover number: kill → served through
//!   the dead-log replay.
//!
//! Every round still demands zero acked loss: after the measurement all
//! acked jobs must reach `done` through the router.
//!
//! Writes the `membership` ledger (`BENCH_membership.json`, see
//! `nptsn_bench::ledger`; a smoke run shrinks rounds and batches). The
//! binary itself fails if the RF2 kill-to-served p99 (nearest rank: the
//! slowest of fewer than 100 rounds) reaches 50 ms — the pause-free
//! failover promise — or any acked job is lost.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use nptsn_bench::fleet::{maybe_run_shard_child, spawn_named_shard, ShardProc};
use nptsn_bench::{json_u64, percentile, temp_dir, write_ledger};
use nptsn_router::{Router, RouterConfig, ShardSpec};
use nptsn_serve::client::{BackoffConfig, Client};

/// One freshly spawned two-shard fleet behind an in-process router.
struct Fleet {
    shard_a: ShardProc,
    shard_b: ShardProc,
    router: Router,
    dir_a: PathBuf,
    dir_b: PathBuf,
}

impl Fleet {
    fn spawn(tag: &str, replication_factor: u32) -> Fleet {
        let dir_a = temp_dir(&format!("member-{tag}-a"));
        let dir_b = temp_dir(&format!("member-{tag}-b"));
        let shard_a = spawn_named_shard(Some(&dir_a), 1, 1024, Some("s0"));
        let shard_b = spawn_named_shard(Some(&dir_b), 1, 1024, Some("s1"));
        let router = Router::bind(RouterConfig {
            shards: vec![
                ShardSpec { name: "s0".into(), addr: shard_a.addr, data_dir: Some(dir_a.clone()) },
                ShardSpec { name: "s1".into(), addr: shard_b.addr, data_dir: Some(dir_b.clone()) },
            ],
            replication_factor,
            // An aggressive detector, so the failover numbers measure the
            // recovery mechanism, not the probe cadence.
            health_interval_ms: 5,
            health_failures: 2,
            forward_deadline_ms: 1_000,
            ..RouterConfig::default()
        })
        .expect("bind bench router");
        Fleet { shard_a, shard_b, router, dir_a, dir_b }
    }

    fn client(&self) -> Client {
        Client::new(self.router.local_addr()).with_backoff(BackoffConfig {
            max_retries: 40,
            base_ms: 2,
            cap_ms: 50,
            seed: 23,
            deadline_ms: 0,
        })
    }

    fn shutdown(mut self) {
        let _ = Client::new(self.router.local_addr()).post("/shutdown", &[]);
        self.router.wait();
        for shard in [&mut self.shard_a, &mut self.shard_b] {
            let mut direct = Client::new(shard.addr);
            if direct.post("/shutdown", &[]).is_ok() {
                shard.join();
            } else {
                shard.kill9();
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir_a);
        let _ = std::fs::remove_dir_all(&self.dir_b);
    }
}

fn submit_batch(client: &mut Client, n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| {
            let accepted = client.post("/jobs/burn?millis=2", &[]).expect("submit");
            assert_eq!(accepted.status, 202, "submission {i}: {}", accepted.text());
            json_u64(&accepted.text(), "id")
        })
        .collect()
}

fn poll_done(client: &mut Client, ids: &[u64], what: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    for &id in ids {
        loop {
            let status = client.get(&format!("/jobs/{id}")).expect("poll");
            if status.status == 200 && status.text().contains("\"state\":\"done\"") {
                break;
            }
            assert!(Instant::now() < deadline, "{what}: acked job {id} was lost");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Phase A: the re-announcement round trip of a restarted shard — the
/// handshake, the ring re-entry and the synchronous catch-up drain of the
/// backlog accepted while it was dead.
fn rejoin_catchup(jobs: usize) -> (f64, usize) {
    let mut fleet = Fleet::spawn("rejoin", 1);
    let mut client = fleet.client();
    let first = submit_batch(&mut client, jobs);
    poll_done(&mut client, &first, "rejoin warm-up");
    fleet.shard_a.kill9();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let health = client.get("/healthz").expect("healthz");
        if json_u64(&health.text(), "live_shards") == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "death was never detected");
        std::thread::sleep(Duration::from_millis(2));
    }
    // The backlog the rejoiner will have to catch up on.
    let backlog = submit_batch(&mut client, jobs);
    poll_done(&mut client, &backlog, "rejoin backlog");

    let shard_a2 = spawn_named_shard(Some(&fleet.dir_a), 1, 1024, Some("s0"));
    let announce = format!(
        "{{\"name\":\"s0\",\"addr\":\"{}\",\"data_dir\":\"{}\"}}",
        shard_a2.addr,
        fleet.dir_a.display()
    );
    let started = Instant::now();
    let response = client.post("/admin/shards", announce.as_bytes()).expect("re-announce");
    let catchup_ms = started.elapsed().as_secs_f64() * 1_000.0;
    assert_eq!(response.status, 200, "{}", response.text());
    assert!(response.text().contains("\"status\":\"rejoined\""), "{}", response.text());
    poll_done(&mut client, &first, "post-rejoin first batch");
    poll_done(&mut client, &backlog, "post-rejoin backlog");
    fleet.shard_a = shard_a2; // reaped by shutdown below
    fleet.shutdown();
    (catchup_ms, jobs)
}

/// Phase B, one round: kill `s0` under a finished batch and time how long
/// until the router serves the dead shard's worst-placed job again.
fn failover_round(tag: &str, replication_factor: u32, jobs: usize) -> f64 {
    let mut fleet = Fleet::spawn(tag, replication_factor);
    let mut client = fleet.client();
    let acked = submit_batch(&mut client, jobs);
    poll_done(&mut client, &acked, "failover warm-up");
    let ring = fleet.router.ring();
    let target = acked
        .iter()
        .rev()
        .find(|&&id| ring.place(id) == Some("s0"))
        .copied()
        .expect("some acked job landed on the victim");
    // A raw, non-retrying client: the measurement loop wants to see every
    // 502/503/404 of the failover window, not smooth them over.
    let mut probe = Client::new(fleet.router.local_addr());
    fleet.shard_a.kill9();
    let started = Instant::now();
    let deadline = started + Duration::from_secs(60);
    loop {
        if let Ok(response) = probe.get(&format!("/jobs/{target}")) {
            if response.status == 200 {
                break;
            }
        }
        assert!(Instant::now() < deadline, "job {target} never came back");
        std::thread::sleep(Duration::from_millis(1));
    }
    let failover_ms = started.elapsed().as_secs_f64() * 1_000.0;
    // Zero acked loss, every round: the whole batch must still finish.
    poll_done(&mut client, &acked, "failover accounting");
    fleet.shutdown();
    failover_ms
}

/// The pause-free failover promise: the RF2 kill-to-served p99 stays
/// under this.
const RF2_P99_GATE_MS: f64 = 50.0;

fn main() {
    maybe_run_shard_child();
    let smoke = nptsn_bench::smoke();
    // The full-mode batch is big enough that the RF1 dead-log replay
    // (one HTTP ingest per record) visibly dwarfs RF2's local promotion.
    let (rounds, jobs) = if smoke { (3usize, 32usize) } else { (7, 256) };

    let watchdog_secs: u64 = if smoke { 240 } else { 480 };
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(watchdog_secs));
        eprintln!("membership_bench: WATCHDOG — still running after {watchdog_secs}s");
        std::process::exit(3);
    });

    let (rejoin_ms, backlog) = rejoin_catchup(jobs);
    println!(
        "membership_bench: rejoin catch-up {rejoin_ms:.1} ms ({backlog}-job backlog)"
    );

    let mut rf1 = Vec::with_capacity(rounds);
    let mut rf2 = Vec::with_capacity(rounds);
    for round in 0..rounds {
        rf1.push(failover_round(&format!("rf1-{round}"), 1, jobs));
        rf2.push(failover_round(&format!("rf2-{round}"), 2, jobs));
        println!(
            "membership_bench: round {round}: replay {:.1} ms, promotion {:.1} ms",
            rf1[round], rf2[round]
        );
    }
    let rf1_p50 = percentile(&rf1, 50.0);
    let rf1_p99 = percentile(&rf1, 99.0);
    let rf2_p50 = percentile(&rf2, 50.0);
    let rf2_p99 = percentile(&rf2, 99.0);
    println!(
        "membership_bench: kill-to-served p50/p99 — replay (RF1) {rf1_p50:.1}/{rf1_p99:.1} ms, \
         promotion (RF2) {rf2_p50:.1}/{rf2_p99:.1} ms"
    );

    write_ledger("membership", "membership", |l| {
        l.int("rounds", rounds as u64)
            .int("jobs_per_round", jobs as u64)
            .int("rejoin_backlog_jobs", backlog as u64)
            .num("rejoin_catchup_ms", rejoin_ms)
            .num("rf1_failover_p50_ms", rf1_p50)
            .num("rf1_failover_p99_ms", rf1_p99)
            .num("rf2_failover_p50_ms", rf2_p50)
            .num("rf2_failover_p99_ms", rf2_p99)
            .num("rf2_p99_gate_ms", RF2_P99_GATE_MS)
            .bool("zero_acked_loss", true);
    });

    // The pause-free failover promise: with a passive replica, the kill
    // window to first-served must stay under 50 ms at p99.
    if rf2_p99 >= RF2_P99_GATE_MS {
        eprintln!(
            "membership_bench: FAIL — RF2 kill-to-served p99 {rf2_p99:.1} ms >= 50 ms"
        );
        std::process::exit(1);
    }
    println!("membership_bench: all gates passed");
}
