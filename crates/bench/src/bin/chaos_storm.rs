//! Seeded chaos storm over the full stack: the acceptance harness for the
//! fault-injection framework (`nptsn-chaos`, DESIGN.md §11).
//!
//! Six phases, each gated — any gate failure exits non-zero:
//!
//! 1. **Determinism**: two planner training runs under the same armed
//!    fault plan (a poisoned PPO update) must produce byte-identical
//!    rollback schedules and injection counts. Same seed, same storm.
//! 2. **Serve storm**: a server is bombarded through dropped accepts,
//!    dropped response writes, failing jobs and over-deadline jobs while
//!    a backoff client keeps submitting. Gates: nothing hangs (a
//!    watchdog aborts the whole process), every accepted job reaches a
//!    terminal state (`submitted == completed + failed + cancelled`),
//!    and the recovery counters actually moved.
//! 3. **Kill-and-restart**: a durable job queue (`nptsn-store` segment
//!    log) is killed mid-traffic — dropped without a drain, exactly what
//!    the memory sees after `kill -9` — and reopened, several times, with
//!    store-level write faults armed throughout. Gates: at every restart
//!    `terminal_loaded + requeued == submitted`, after the final drain
//!    `completed + failed + cancelled == submitted + replays` (a replay is
//!    a job whose terminal persist was lost to an injected store fault —
//!    at-least-once execution, exactly-once result), at least one job was
//!    actually recovered, and two same-seed storms produce byte-identical
//!    per-job outcome digests.
//! 4. **Router storm**: a two-shard fleet (real child processes) behind
//!    the `nptsn-router` front tier, with forward, health-probe and
//!    replay-ingest faults armed. Every job is submitted through the
//!    router (retrying through injected forward failures), then one shard
//!    is `kill -9`ed with queued work and every acked job must still
//!    reach `done` through the router. Gates: exact accounting (every
//!    acked job terminal — zero loss), the failover and replay counters
//!    moved, and two same-seed storms produce byte-identical per-job
//!    digests (submission is single-threaded and polling starts only
//!    after the last ack, so the `router.forward` fault schedule — and
//!    with it the id sequence — replays exactly).
//! 5. **Membership storm**: a replication-factor-2 two-shard fleet loses
//!    a shard mid-storm (`kill -9`), keeps serving on the survivor via
//!    replica promotion, accepts more work degraded, then the dead shard
//!    restarts on its old `--data-dir` and rejoins through
//!    `POST /admin/shards` — with `router.join`, `router.migrate` and
//!    `router.health` faults armed (capped, so the storm converges).
//!    Gates: exact accounting (every acked job reaches `done` through the
//!    router — zero loss across death, promotion, rejoin and catch-up),
//!    the rejoin/migration/promotion counters all moved, and two
//!    same-seed storms produce byte-identical per-job digests.
//! 6. **Overhead**: a disarmed `chaos::point` must stay a no-op — its
//!    measured per-call cost, charged per request, must be under 10% of
//!    the clean request time.
//!
//! Writes the `chaos` ledger (`BENCH_chaos.json`, see
//! `nptsn_bench::ledger`; a smoke run shrinks the workload to a plumbing
//! check).
//! Usage: `chaos_storm [--seed N]` — the seed drives the fault plan and
//! the client jitter, so a storm replays exactly from its seed.

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nptsn::{Planner, PlannerConfig, PlanningProblem};
use nptsn_bench::fleet::{maybe_run_shard_child, spawn_named_shard, spawn_shard};
use nptsn_bench::{json_u64, percentile, temp_dir, write_ledger};
use nptsn_chaos::{FaultKind, FaultPlan, SiteRule};
use nptsn_router::{Router, RouterConfig, ShardSpec};
use nptsn_rand::rngs::StdRng;
use nptsn_rand::{Rng, SeedableRng};
use nptsn_sched::{FlowSet, FlowSpec, ShortestPathRecovery, TasConfig};
use nptsn_serve::jobs::JobKind;
use nptsn_serve::{
    BackoffConfig, Client, JobQueue, RetentionConfig, ServeConfig, ServeMetrics, Server,
};
use nptsn_store::{LogStore, Storage};
use nptsn_topo::{ComponentLibrary, ConnectionGraph};

/// The theta network: two end stations, two optional switches, five
/// candidate links — the smallest problem with a non-trivial plan space.
fn theta_problem() -> PlanningProblem {
    let mut gc = ConnectionGraph::new();
    let a = gc.add_end_station("a");
    let b = gc.add_end_station("b");
    let s0 = gc.add_switch("s0");
    let s1 = gc.add_switch("s1");
    for (u, v) in [(a, s0), (s0, b), (a, s1), (s1, b), (s0, s1)] {
        gc.add_candidate_link(u, v, 1.0).expect("candidate link");
    }
    let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).expect("flows");
    PlanningProblem::new(
        Arc::new(gc),
        ComponentLibrary::automotive(),
        TasConfig::default(),
        flows,
        1e-6,
        Arc::new(ShortestPathRecovery::new()),
    )
    .expect("problem")
}

fn rate_rule(site: &str, kind: FaultKind, rate: f64) -> SiteRule {
    SiteRule { site: site.to_string(), kind, every: 0, rate, max_count: 0 }
}

/// One determinism run: trains under a poisoned PPO update and digests
/// everything the storm decided — the rollback schedule and the per-site
/// injection counts. Two runs of this function must return equal strings.
fn determinism_run(seed: u64) -> String {
    nptsn_chaos::arm(FaultPlan::new(seed).with_rule(SiteRule {
        site: "planner.ppo_update".to_string(),
        kind: FaultKind::Error,
        every: 2,
        rate: 1.0,
        max_count: 1,
    }));
    let report = Planner::new(theta_problem(), PlannerConfig::smoke_test()).run();
    let mut digest = String::new();
    for epoch in &report.epochs {
        digest.push_str(&format!(
            "epoch rollbacks={} scenarios={}\n",
            epoch.ppo_rollbacks, epoch.scenarios_checked
        ));
    }
    for (site, n) in nptsn_chaos::injection_counts() {
        digest.push_str(&format!("injected {site}={n}\n"));
    }
    nptsn_chaos::disarm();
    digest
}

/// Submits `jobs` burn jobs and polls each to a terminal state; returns
/// (jobs per second, per-submission accept latencies in ms). Panics on a
/// job that never terminates — backed up by the process watchdog.
fn drive_jobs(client: &mut Client, jobs: usize) -> (f64, Vec<f64>) {
    let started = Instant::now();
    let mut ids = Vec::new();
    let mut accept_latencies = Vec::new();
    for _ in 0..jobs {
        let submit_started = Instant::now();
        let response = client.post("/jobs/burn?millis=1", &[]).expect("submit");
        accept_latencies.push(submit_started.elapsed().as_secs_f64() * 1_000.0);
        if response.status == 202 {
            ids.push(json_u64(&response.text(), "id"));
        } else {
            assert_eq!(response.status, 503, "unexpected status: {}", response.text());
        }
    }
    assert!(!ids.is_empty(), "no job was accepted");
    for &id in &ids {
        loop {
            let body = client.get(&format!("/jobs/{id}")).expect("poll").text();
            let terminal = ["done", "failed", "cancelled"]
                .iter()
                .any(|s| body.contains(&format!("\"state\":\"{s}\"")));
            if terminal {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    (ids.len() as f64 / elapsed, accept_latencies)
}

/// What one kill-and-restart storm produced: a per-job outcome digest
/// (two same-seed storms must agree byte for byte) and its accounting.
struct KillRestart {
    digest: String,
    submitted: u64,
    recovered: u64,
    replays: u64,
}

/// One kill-and-restart storm over a durable queue in `dir`.
///
/// Runs `segments` process lifetimes in sequence: each opens the store,
/// recovers, submits and executes seeded burn traffic (`run_one` keeps
/// execution single-threaded, so the fault sequence is deterministic),
/// then "dies" — the queue is dropped WITHOUT a drain, exactly the memory
/// state `kill -9` leaves behind. Store write faults are armed the whole
/// time, so some submissions are refused (no ack, no obligation) and some
/// transition persists degrade to best-effort. The final lifetime drains
/// everything and checks exact accounting.
fn kill_restart_storm(seed: u64, dir: &std::path::Path, jobs_total: usize) -> KillRestart {
    let _ = std::fs::remove_dir_all(dir);
    let segments = 4;
    let metrics = ServeMetrics::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b69_6c6c);
    let mut submitted_ids: Vec<u64> = Vec::new();
    let mut recovered = 0u64;
    // Ids we watched finish whose terminal persist may still have been
    // lost to an injected store fault. Any of them found back in the
    // queue after a restart is a replay: it will run — and be counted —
    // again. That's the at-least-once contract, and the accounting gate
    // below demands the count match exactly.
    let mut finished: HashSet<u64> = HashSet::new();
    let mut replays = 0u64;
    nptsn_chaos::arm(
        FaultPlan::new(seed)
            .with_rule(rate_rule("serve.job", FaultKind::Error, 0.2))
            .with_rule(rate_rule("store.append", FaultKind::Error, 0.05)),
    );
    let open = |recovered: &mut u64, acked: usize| -> JobQueue {
        let store: Arc<dyn Storage> = Arc::new(LogStore::open(dir).expect("reopen store"));
        let (queue, report) =
            JobQueue::open(8192, store, RetentionConfig::default()).expect("recover queue");
        // Restart gate: everything ever acknowledged is accounted for —
        // finished with its result, or back in the queue. Nothing leaks,
        // nothing is invented.
        assert_eq!(
            report.terminal_loaded + report.requeued,
            acked as u64,
            "recovery accounting broke: {report:?} vs {acked} acked submissions"
        );
        assert_eq!(report.failed_to_recover, 0, "a live record failed to re-validate");
        *recovered += report.requeued;
        queue
    };
    // After a restart, a job we saw finish that is no longer terminal had
    // its terminal persist eaten by a store fault — it is queued again and
    // will be executed (and counted) a second time.
    let reap_replays = |queue: &JobQueue, finished: &mut HashSet<u64>| -> u64 {
        let replayed: Vec<u64> = finished
            .iter()
            .copied()
            .filter(|&id| {
                let snapshot = queue.snapshot(id).expect("acked job is tracked");
                !["done", "failed", "cancelled"].contains(&snapshot.state.label())
            })
            .collect();
        for id in &replayed {
            finished.remove(id);
        }
        replayed.len() as u64
    };
    for _ in 0..segments {
        let queue = open(&mut recovered, submitted_ids.len());
        replays += reap_replays(&queue, &mut finished);
        for _ in 0..jobs_total / segments {
            // A refused submission (store fault) was never acknowledged:
            // the client got an error, so it owes no accounting entry.
            if let Ok(id) = queue.submit(JobKind::Burn { millis: rng.gen_range(0..2) }) {
                submitted_ids.push(id);
            }
            if rng.gen_range(0..3) == 0 {
                if let Some(id) = queue.run_one(&metrics) {
                    finished.insert(id);
                }
            }
        }
        drop(queue); // kill -9: no drain, no flush, no goodbyes
    }
    let queue = open(&mut recovered, submitted_ids.len());
    replays += reap_replays(&queue, &mut finished);
    while queue.run_one(&metrics).is_some() {}
    let terminal =
        metrics.jobs_completed.get() + metrics.jobs_failed.get() + metrics.jobs_cancelled.get();
    assert_eq!(
        terminal,
        submitted_ids.len() as u64 + replays,
        "kill-restart storm lost or duplicated a job ({replays} known replays)"
    );
    let mut digest = String::new();
    for &id in &submitted_ids {
        let snapshot = queue.snapshot(id).expect("every submitted job is tracked");
        digest.push_str(&format!(
            "job {id} {} error={:?}\n",
            snapshot.state.label(),
            snapshot.error
        ));
    }
    nptsn_chaos::disarm();
    let _ = std::fs::remove_dir_all(dir);
    KillRestart { digest, submitted: submitted_ids.len() as u64, recovered, replays }
}

/// What one router storm produced: a per-job digest (two same-seed storms
/// must agree byte for byte) plus the counters its gates check.
struct RouterStorm {
    digest: String,
    acked: u64,
    failovers: u64,
    replayed: u64,
}

/// One router storm: two durable shard child processes behind an
/// in-process router, with `router.forward` (dropped forwards),
/// `router.health` (spurious failed probes, capped below the death
/// threshold) and `router.replay` (transient ingest failures) armed.
///
/// All jobs are submitted — single-threaded, retrying through injected
/// forward failures until acked — BEFORE the first poll, so the
/// `router.forward` per-site call sequence during the submission window
/// is a pure function of the plan seed, and with it the set of burned and
/// acked job ids. Then shard `s0` is `kill -9`ed with queued work, and
/// every acked job must reach `done` through the router (survivor
/// executes its own jobs plus the dead shard's replayed ones). The digest
/// is each acked job's full status body in submission order: ids are
/// deterministic, bodies carry no timestamps, so same seed ⇒ same bytes.
fn router_storm(seed: u64, tag: &str, jobs: usize) -> RouterStorm {
    let dir_a = temp_dir(&format!("chaos-router-{tag}-a"));
    let dir_b = temp_dir(&format!("chaos-router-{tag}-b"));
    let mut shard_a = spawn_shard(Some(&dir_a), 1, 1024);
    let mut shard_b = spawn_shard(Some(&dir_b), 1, 1024);
    let router = Router::bind(RouterConfig {
        shards: vec![
            ShardSpec { name: "s0".into(), addr: shard_a.addr, data_dir: Some(dir_a.clone()) },
            ShardSpec { name: "s1".into(), addr: shard_b.addr, data_dir: Some(dir_b.clone()) },
        ],
        health_interval_ms: 25,
        // 3 consecutive failures: the capped health faults below fire at
        // widely separated call indices, so only a real death trips it.
        health_failures: 3,
        forward_deadline_ms: 1_000,
        ..RouterConfig::default()
    })
    .expect("bind storm router");
    let before = nptsn_obs::telemetry().snapshot();
    nptsn_chaos::arm(
        FaultPlan::new(seed)
            .with_rule(rate_rule("router.forward", FaultKind::Error, 0.15))
            .with_rule(SiteRule {
                site: "router.health".to_string(),
                kind: FaultKind::Error,
                every: 7,
                rate: 1.0,
                max_count: 2,
            })
            .with_rule(SiteRule {
                site: "router.replay".to_string(),
                kind: FaultKind::Error,
                every: 3,
                rate: 1.0,
                max_count: 4,
            }),
    );
    let mut client = Client::new(router.local_addr()).with_backoff(BackoffConfig {
        max_retries: 40,
        base_ms: 2,
        cap_ms: 50,
        seed: seed ^ 0x726f_7574,
        ..BackoffConfig::default()
    });
    // Slow-ish burns so the victim dies with work still queued; every
    // submission retries through injected forward faults until acked.
    let acked: Vec<u64> = (0..jobs)
        .map(|n| {
            let response = client.post("/jobs/burn?millis=25", &[]).expect("submit via router");
            assert_eq!(response.status, 202, "submission {n}: {}", response.text());
            json_u64(&response.text(), "id")
        })
        .collect();
    let ring = router.ring();
    assert!(
        acked.iter().any(|&id| ring.place(id) == Some("s0")),
        "no acked job landed on the victim shard"
    );
    shard_a.kill9();
    for &id in &acked {
        loop {
            let response = client.get(&format!("/jobs/{id}")).expect("poll via router");
            if response.status == 200 && response.text().contains("\"state\":\"done\"") {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    // Digest after everything is terminal: full bodies, submission order.
    let mut digest = String::new();
    for &id in &acked {
        let body = client.get(&format!("/jobs/{id}")).expect("digest poll").text();
        digest.push_str(&format!("job {id} {body}\n"));
    }
    nptsn_chaos::disarm();
    let after = nptsn_obs::telemetry().snapshot();
    let _ = client.post("/shutdown", &[]);
    router.wait();
    let mut direct = Client::new(shard_b.addr);
    if direct.post("/shutdown", &[]).is_ok() {
        shard_b.join();
    } else {
        shard_b.kill9();
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    RouterStorm {
        digest,
        acked: acked.len() as u64,
        failovers: after.router_failovers - before.router_failovers,
        replayed: after.router_replayed_jobs - before.router_replayed_jobs,
    }
}

/// What one membership storm produced: a per-job digest (two same-seed
/// storms must agree byte for byte) plus the counters its gates check.
struct MembershipStorm {
    digest: String,
    acked: u64,
    rejoins: u64,
    migrated: u64,
    promotions: u64,
}

/// One membership storm over a replication-factor-2 two-shard fleet:
///
/// 1. a full batch runs to `done` on the healthy fleet (RF2 mirrors each
///    submission to its ring successor as a passive replica);
/// 2. `s0` is `kill -9`ed — the death promotes the survivor's passive
///    copies instead of pausing for the dead-log replay;
/// 3. a second batch runs on the degraded one-shard fleet;
/// 4. `s0` restarts on its old data dir at a fresh port and is
///    re-announced through `POST /admin/shards` — rejoin handshake, ring
///    re-entry at a bumped generation, catch-up transfer of the records
///    it missed (through injected `router.join` and `router.migrate`
///    faults, capped so the storm converges);
/// 5. a third batch runs on the whole fleet again.
///
/// The digest is each acked job's full status body in submission order,
/// taken after everything is terminal. Submission is single-threaded and
/// nothing nondeterministic leaks into a status body, so same seed ⇒
/// same bytes.
fn membership_storm(seed: u64, tag: &str, jobs: usize) -> MembershipStorm {
    let dir_a = temp_dir(&format!("chaos-member-{tag}-a"));
    let dir_b = temp_dir(&format!("chaos-member-{tag}-b"));
    let mut shard_a = spawn_named_shard(Some(&dir_a), 1, 1024, Some("s0"));
    let mut shard_b = spawn_named_shard(Some(&dir_b), 1, 1024, Some("s1"));
    let router = Router::bind(RouterConfig {
        shards: vec![
            ShardSpec { name: "s0".into(), addr: shard_a.addr, data_dir: Some(dir_a.clone()) },
            ShardSpec { name: "s1".into(), addr: shard_b.addr, data_dir: Some(dir_b.clone()) },
        ],
        replication_factor: 2,
        health_interval_ms: 25,
        health_failures: 3,
        forward_deadline_ms: 1_000,
        ..RouterConfig::default()
    })
    .expect("bind membership router");
    let before = nptsn_obs::telemetry().snapshot();
    nptsn_chaos::arm(
        FaultPlan::new(seed ^ 0x6d65_6d62)
            // The first rejoin attempt is rejected — membership must be
            // re-entrant, the next announcement retries from scratch.
            .with_rule(SiteRule {
                site: "router.join".to_string(),
                kind: FaultKind::Error,
                every: 1,
                rate: 1.0,
                max_count: 1,
            })
            // Transient catch-up ingest failures; `ingest_one` retries.
            .with_rule(SiteRule {
                site: "router.migrate".to_string(),
                kind: FaultKind::Error,
                every: 3,
                rate: 1.0,
                max_count: 4,
            })
            // Spurious probe failures, capped below the death threshold:
            // Suspect is still routable, so these never change placement.
            .with_rule(SiteRule {
                site: "router.health".to_string(),
                kind: FaultKind::Error,
                every: 9,
                rate: 1.0,
                max_count: 2,
            }),
    );
    let mut client = Client::new(router.local_addr()).with_backoff(BackoffConfig {
        max_retries: 40,
        base_ms: 2,
        cap_ms: 50,
        seed: seed ^ 0x6d62_7273,
        ..BackoffConfig::default()
    });
    let submit_batch = |client: &mut Client, n: usize| -> Vec<u64> {
        (0..n)
            .map(|i| {
                let response = client.post("/jobs/burn?millis=2", &[]).expect("submit");
                assert_eq!(response.status, 202, "submission {i}: {}", response.text());
                json_u64(&response.text(), "id")
            })
            .collect()
    };
    let poll_done = |client: &mut Client, ids: &[u64]| {
        for &id in ids {
            loop {
                let response = client.get(&format!("/jobs/{id}")).expect("poll");
                if response.status == 200 && response.text().contains("\"state\":\"done\"") {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    };
    let wait_live = |client: &mut Client, n: u64| loop {
        let health = client.get("/healthz").expect("healthz");
        if json_u64(&health.text(), "live_shards") == n {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    };

    // Phase 1: healthy RF2 fleet — every submission is mirrored.
    let first = submit_batch(&mut client, jobs);
    poll_done(&mut client, &first);
    let ring = router.ring();
    assert!(
        first.iter().any(|&id| ring.place(id) == Some("s0")),
        "no acked job landed on the victim shard"
    );

    // Phase 2: kill the victim; promotion keeps the fleet serving.
    shard_a.kill9();
    wait_live(&mut client, 1);

    // Phase 3: the degraded fleet keeps taking work.
    let second = submit_batch(&mut client, jobs);
    poll_done(&mut client, &second);

    // Phase 4: restart on the same data dir (fresh port), re-announce,
    // and keep announcing until the fleet is whole — the first attempt is
    // rejected by the armed `router.join` fault, and a concurrent
    // health-loop rejoin is an equally valid way to get there.
    let mut shard_a2 = spawn_named_shard(Some(&dir_a), 1, 1024, Some("s0"));
    let announce = format!(
        "{{\"name\":\"s0\",\"addr\":\"{}\",\"data_dir\":\"{}\"}}",
        shard_a2.addr,
        dir_a.display()
    );
    loop {
        let _ = client.post("/admin/shards", announce.as_bytes());
        let health = client.get("/healthz").expect("healthz");
        if json_u64(&health.text(), "live_shards") == 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Phase 5: the whole fleet takes work again.
    let third = submit_batch(&mut client, jobs / 2);
    poll_done(&mut client, &third);

    // Digest after everything is terminal — the final poll also rides out
    // the catch-up drain (a mid-transfer read is a retriable 503, never a
    // 404).
    let acked: Vec<u64> =
        first.iter().chain(&second).chain(&third).copied().collect();
    poll_done(&mut client, &acked);
    let mut digest = String::new();
    for &id in &acked {
        let body = client.get(&format!("/jobs/{id}")).expect("digest poll").text();
        digest.push_str(&format!("job {id} {body}\n"));
    }
    nptsn_chaos::disarm();
    let after = nptsn_obs::telemetry().snapshot();
    let _ = client.post("/shutdown", &[]);
    router.wait();
    for shard in [&mut shard_a2, &mut shard_b] {
        let mut direct = Client::new(shard.addr);
        if direct.post("/shutdown", &[]).is_ok() {
            shard.join();
        } else {
            shard.kill9();
        }
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    MembershipStorm {
        digest,
        acked: acked.len() as u64,
        rejoins: after.router_rejoins - before.router_rejoins,
        migrated: after.router_migrated_jobs - before.router_migrated_jobs,
        promotions: after.router_replica_promotions - before.router_replica_promotions,
    }
}

fn main() {
    maybe_run_shard_child();
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an unsigned integer");
            }
            other => panic!("unknown argument {other:?} (usage: chaos_storm [--seed N])"),
        }
    }
    let smoke = nptsn_bench::smoke();
    let (jobs, point_loops) = if smoke { (24usize, 200_000u64) } else { (120, 2_000_000) };

    // Zero-hang gate: the whole storm must finish well inside the budget
    // or the watchdog takes the process down with a distinct exit code.
    let watchdog_secs = if smoke { 240 } else { 560 };
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(watchdog_secs));
        eprintln!("chaos_storm: WATCHDOG — still running after {watchdog_secs}s, aborting");
        std::process::exit(3);
    });

    let before = nptsn_obs::telemetry().snapshot();

    // --- Phase 1: determinism ------------------------------------------
    let first = determinism_run(seed);
    let second = determinism_run(seed);
    let determinism = first == second;
    println!(
        "chaos_storm: determinism {} ({} digest lines)",
        if determinism { "ok" } else { "MISMATCH" },
        first.lines().count()
    );
    if !determinism {
        eprintln!("chaos_storm: FAIL — same seed, different storm:\n{first}---\n{second}");
        std::process::exit(1);
    }
    assert!(
        first.contains("rollbacks=1"),
        "the poisoned update should have rolled back exactly once:\n{first}"
    );

    // --- Phase 2a: clean baseline --------------------------------------
    let serve_config = ServeConfig {
        workers: 2,
        queue_depth: 8,
        io_timeout_ms: 5_000,
        header_deadline_ms: 5_000,
        job_deadline_ms: 150,
        ..ServeConfig::default()
    };
    let clean_server = Server::bind(serve_config.clone()).expect("bind clean server");
    let mut clean_client = Client::new(clean_server.local_addr()).with_backoff(BackoffConfig {
        max_retries: 30,
        base_ms: 2,
        cap_ms: 40,
        seed,
        ..BackoffConfig::default()
    });
    let (clean_jobs_per_s, clean_latencies) = drive_jobs(&mut clean_client, jobs);
    clean_server.stop();
    clean_server.wait();
    let clean_p50_ms = percentile(&clean_latencies, 50.0);

    // --- Phase 2b: the storm -------------------------------------------
    let storm_server = Server::bind(serve_config).expect("bind storm server");
    let metrics = storm_server.metrics();
    let queue = storm_server.queue();
    nptsn_chaos::arm(
        FaultPlan::new(seed)
            .with_rule(rate_rule("serve.accept", FaultKind::Error, 0.25))
            .with_rule(rate_rule("serve.conn.write", FaultKind::Error, 0.15))
            .with_rule(rate_rule("serve.job", FaultKind::Error, 0.35)),
    );
    let mut storm_client = Client::new(storm_server.local_addr()).with_backoff(BackoffConfig {
        max_retries: 30,
        base_ms: 2,
        cap_ms: 40,
        seed: seed ^ 1,
        ..BackoffConfig::default()
    });
    let (storm_jobs_per_s, storm_latencies) = drive_jobs(&mut storm_client, jobs);
    let p99_recovery_ms = percentile(&storm_latencies, 99.0);

    let faults_injected: u64 = nptsn_chaos::injection_counts().iter().map(|(_, n)| n).sum();
    nptsn_chaos::disarm();

    // Over-deadline jobs: each must come back `failed` with the worker
    // alive, not wedge its worker thread. Probed with chaos disarmed so
    // the kill is guaranteed to come from the deadline, not from a
    // coincidental injected job error.
    let mut deadline_ids = Vec::new();
    for _ in 0..2 {
        let response = storm_client.post("/jobs/burn?millis=1200", &[]).expect("submit long");
        if response.status == 202 {
            deadline_ids.push(json_u64(&response.text(), "id"));
        }
    }
    for &id in &deadline_ids {
        loop {
            let body = storm_client.get(&format!("/jobs/{id}")).expect("poll long").text();
            if body.contains("\"state\":\"failed\"") {
                break;
            }
            assert!(
                !body.contains("\"state\":\"done\""),
                "an over-deadline job completed instead of being killed: {body}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    storm_server.stop();
    storm_server.wait();

    // Lost-job gate: exact accounting after a full drain.
    let submitted = metrics.jobs_submitted.get();
    let terminal =
        metrics.jobs_completed.get() + metrics.jobs_failed.get() + metrics.jobs_cancelled.get();
    assert_eq!(submitted, terminal, "a job was lost in the storm");
    for &id in &deadline_ids {
        let snapshot = queue.snapshot(id).expect("deadline job tracked");
        assert!(snapshot.error.is_some(), "deadline-killed job has no error message");
    }

    // --- Phase 3: kill-and-restart over the durable store --------------
    let kill_jobs = if smoke { 80 } else { 400 };
    let first_storm = kill_restart_storm(seed, &temp_dir("chaos-kill-a"), kill_jobs);
    let second_storm = kill_restart_storm(seed, &temp_dir("chaos-kill-b"), kill_jobs);
    let kill_restart_identical = first_storm.digest == second_storm.digest
        && first_storm.recovered == second_storm.recovered
        && first_storm.replays == second_storm.replays;
    println!(
        "chaos_storm: kill-restart {} jobs, {} recovered across restarts, {} replayed, replay {}",
        first_storm.submitted,
        first_storm.recovered,
        first_storm.replays,
        if kill_restart_identical { "identical" } else { "DIVERGED" }
    );

    // --- Phase 4: router storm over a two-shard child fleet ------------
    let router_jobs = if smoke { 16 } else { 48 };
    let first_router = router_storm(seed, "a", router_jobs);
    let second_router = router_storm(seed, "b", router_jobs);
    let router_identical = first_router.digest == second_router.digest
        && first_router.acked == second_router.acked;
    println!(
        "chaos_storm: router storm {} jobs acked, {} failovers, {} replayed, replay {}",
        first_router.acked,
        first_router.failovers,
        first_router.replayed,
        if router_identical { "identical" } else { "DIVERGED" }
    );

    // --- Phase 5: membership storm (RF2 + kill + rejoin) ---------------
    let membership_jobs = if smoke { 12 } else { 32 };
    let first_member = membership_storm(seed, "a", membership_jobs);
    let second_member = membership_storm(seed, "b", membership_jobs);
    let membership_identical = first_member.digest == second_member.digest
        && first_member.acked == second_member.acked;
    println!(
        "chaos_storm: membership storm {} jobs acked, {} rejoins, {} migrated, \
         {} promotions, replay {}",
        first_member.acked,
        first_member.rejoins,
        first_member.migrated,
        first_member.promotions,
        if membership_identical { "identical" } else { "DIVERGED" }
    );

    // --- Phase 6: disarmed overhead ------------------------------------
    assert!(!nptsn_chaos::is_armed());
    let point_started = Instant::now();
    for _ in 0..point_loops {
        black_box(nptsn_chaos::point("bench.disarmed.site")).expect("disarmed point is Ok");
    }
    let disarmed_point_ns = point_started.elapsed().as_nanos() as f64 / point_loops as f64;
    // Cost model mirroring `obs_bench`: each request crosses a handful of
    // sites (accept, response write, job dispatch); charge generously and
    // compare against the measured clean p50 request time.
    let sites_per_request = 8.0;
    let disarmed_overhead_pct =
        disarmed_point_ns * sites_per_request / (clean_p50_ms * 1e6).max(1.0) * 100.0;

    let after = nptsn_obs::telemetry().snapshot();
    let recovered = Recovered {
        faults: after.chaos_faults - before.chaos_faults,
        rollbacks: after.recovery_ppo_rollbacks - before.recovery_ppo_rollbacks,
        deadline_kills: after.recovery_deadline_kills - before.recovery_deadline_kills,
        client_retries: after.recovery_client_retries - before.recovery_client_retries,
    };

    println!(
        "chaos_storm: clean {clean_jobs_per_s:.0} jobs/s, storm {storm_jobs_per_s:.0} jobs/s, \
         p99 accept-through-storm {p99_recovery_ms:.2} ms"
    );
    println!(
        "chaos_storm: {} faults injected (bench-local), {} rollbacks, {} deadline kills, \
         {} client retries",
        faults_injected, recovered.rollbacks, recovered.deadline_kills, recovered.client_retries
    );
    println!(
        "chaos_storm: disarmed point {disarmed_point_ns:.2} ns \
         ({disarmed_overhead_pct:.5}% of a clean request)"
    );

    write_ledger("chaos", "chaos_storm", |l| {
        l.int("seed", seed)
            .bool("determinism", determinism)
            .int("jobs_per_phase", jobs as u64)
            .num("clean_jobs_per_s", clean_jobs_per_s)
            .num("storm_jobs_per_s", storm_jobs_per_s)
            .num("p99_recovery_ms", p99_recovery_ms)
            .int("faults_injected", recovered.faults)
            .int("ppo_rollbacks", recovered.rollbacks)
            .int("deadline_kills", recovered.deadline_kills)
            .int("client_retries", recovered.client_retries)
            .int("kill_restart_jobs", first_storm.submitted)
            .int("kill_restart_recovered", first_storm.recovered)
            .int("kill_restart_replays", first_storm.replays)
            .bool("kill_restart_identical", kill_restart_identical)
            .int("router_jobs_acked", first_router.acked)
            .int("router_failovers", first_router.failovers)
            .int("router_replayed", first_router.replayed)
            .bool("router_identical", router_identical)
            .int("membership_jobs_acked", first_member.acked)
            .int("membership_rejoins", first_member.rejoins)
            .int("membership_migrated", first_member.migrated)
            .int("membership_promotions", first_member.promotions)
            .bool("membership_identical", membership_identical)
            .num("disarmed_point_ns", disarmed_point_ns)
            .num("disarmed_overhead_pct", disarmed_overhead_pct);
    });

    // Recovery gates: the storm must actually have stormed, and every
    // self-healing path must have fired at least once.
    let mut failed = false;
    if recovered.faults == 0 {
        eprintln!("chaos_storm: FAIL — no faults were injected");
        failed = true;
    }
    for (name, count) in [
        ("ppo_rollbacks", recovered.rollbacks),
        ("deadline_kills", recovered.deadline_kills),
        ("client_retries", recovered.client_retries),
    ] {
        if count == 0 {
            eprintln!("chaos_storm: FAIL — recovery counter {name} never moved");
            failed = true;
        }
    }
    if first_storm.recovered == 0 {
        eprintln!("chaos_storm: FAIL — the kill-restart storm never recovered a job");
        failed = true;
    }
    if !kill_restart_identical {
        eprintln!(
            "chaos_storm: FAIL — same seed, different kill-restart storm:\n{}---\n{}",
            first_storm.digest, second_storm.digest
        );
        failed = true;
    }
    // Router gates: exact accounting held inside router_storm (every acked
    // job polled to `done` — a loss hangs into the watchdog); here: the
    // failover actually happened, the dead shard's log was replayed, and
    // the same seed replayed the same storm byte for byte.
    if first_router.acked != router_jobs as u64 {
        eprintln!(
            "chaos_storm: FAIL — router storm acked {} of {router_jobs} submissions",
            first_router.acked
        );
        failed = true;
    }
    if first_router.failovers == 0 {
        eprintln!("chaos_storm: FAIL — the router storm never failed over");
        failed = true;
    }
    if first_router.replayed == 0 {
        eprintln!("chaos_storm: FAIL — the router storm replayed nothing from the dead shard");
        failed = true;
    }
    if !router_identical {
        eprintln!(
            "chaos_storm: FAIL — same seed, different router storm:\n{}---\n{}",
            first_router.digest, second_router.digest
        );
        failed = true;
    }
    // Membership gates: the fleet lost a shard, promoted replicas, took
    // the shard back and caught it up — and did so reproducibly.
    if first_member.rejoins == 0 {
        eprintln!("chaos_storm: FAIL — the membership storm never rejoined a shard");
        failed = true;
    }
    if first_member.migrated == 0 {
        eprintln!("chaos_storm: FAIL — the rejoin catch-up migrated nothing");
        failed = true;
    }
    if first_member.promotions == 0 {
        eprintln!("chaos_storm: FAIL — the RF2 death promoted no passive replica");
        failed = true;
    }
    if !membership_identical {
        eprintln!(
            "chaos_storm: FAIL — same seed, different membership storm:\n{}---\n{}",
            first_member.digest, second_member.digest
        );
        failed = true;
    }
    if disarmed_overhead_pct >= 10.0 {
        eprintln!(
            "chaos_storm: FAIL — disarmed overhead {disarmed_overhead_pct:.2}% >= 10%"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("chaos_storm: all gates passed");
}

struct Recovered {
    faults: u64,
    rollbacks: u64,
    deadline_kills: u64,
    client_retries: u64,
}
