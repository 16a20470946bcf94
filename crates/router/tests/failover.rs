//! End-to-end failover: losing a shard loses no acked job.
//!
//! Two in-process shards with durable stores sit behind one router. When
//! a shard goes away, the router must declare it dead, rebalance the ring
//! and replay the dead shard's segment log onto the survivor — after
//! which every job the fleet ever acked is served through the router with
//! a byte-identical status document.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nptsn_router::{Router, RouterConfig, ShardSpec};
use nptsn_serve::client::Client;
use nptsn_serve::jobs::{JobOutcome, JobState};
use nptsn_serve::persist::{encode_next_id, encode_record, job_key, JobSpec, NEXT_ID_KEY};
use nptsn_serve::{ServeConfig, Server};
use nptsn_store::{LogStore, Storage};

mod common;
use common::int_field;

fn temp_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("nptsn-router-fo-{}-{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn shard(dir: &Path, name: &str) -> Server {
    Server::bind(ServeConfig {
        workers: 1,
        data_dir: Some(dir.to_string_lossy().into_owned()),
        shard_name: Some(name.to_string()),
        ..ServeConfig::default()
    })
    .expect("bind shard")
}

fn fleet_router(shards: Vec<ShardSpec>) -> Router {
    Router::bind(RouterConfig {
        shards,
        health_interval_ms: 20,
        health_failures: 2,
        forward_deadline_ms: 1_000,
        ..RouterConfig::default()
    })
    .expect("bind router")
}

/// Polls `f` until it returns `Some`, panicking after `secs` seconds.
fn poll<T>(secs: u64, what: &str, mut f: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn a_lost_shard_replays_onto_the_survivor_byte_identically() {
    let a_dir = temp_dir("lost-a");
    let b_dir = temp_dir("lost-b");
    let a = shard(&a_dir, "s0");
    let b = shard(&b_dir, "s1");
    let router = fleet_router(vec![
        ShardSpec { name: "s0".to_string(), addr: a.local_addr(), data_dir: Some(a_dir.clone()) },
        ShardSpec { name: "s1".to_string(), addr: b.local_addr(), data_dir: Some(b_dir.clone()) },
    ]);
    let mut client = Client::new(router.local_addr());

    let ids: Vec<u64> = (0..16)
        .map(|_| {
            let accepted = client.post("/jobs/burn?millis=1", &[]).unwrap();
            assert_eq!(accepted.status, 202, "{}", accepted.text());
            int_field(&accepted.text(), "id")
        })
        .collect();
    // The sample must actually exercise both shards or the test is
    // vacuous. Placement is deterministic, so this cannot flake.
    let ring = router.ring();
    for name in ["s0", "s1"] {
        assert!(
            ids.iter().any(|&id| ring.place(id) == Some(name)),
            "no sampled job landed on {name}"
        );
    }

    let before: Vec<String> = ids
        .iter()
        .map(|&id| {
            poll(10, "job to finish", || {
                let status = client.get(&format!("/jobs/{id}")).ok()?;
                let body = status.text();
                body.contains("\"state\":\"done\"").then_some(body)
            })
        })
        .collect();

    // Take down shard s0. A graceful stop still exercises the full
    // failover path: the port closes, probes fail, the ring rebalances
    // and the log replays (kill -9 is covered by the process-level smoke
    // and bench, which this test mirrors in-process).
    a.stop();
    a.wait();

    poll(15, "the router to declare s0 dead", || {
        let health = client.get("/healthz").ok()?;
        health.text().contains("\"live_shards\":1").then_some(())
    });

    // Every acked job — including those that lived on s0 — must come back
    // through the router with the exact bytes it served before the loss.
    for (&id, expected) in ids.iter().zip(&before) {
        poll(15, "a replayed job to reappear", || {
            let status = client.get(&format!("/jobs/{id}")).ok()?;
            (status.status == 200 && status.text() == *expected).then_some(())
        });
    }
    assert!(router.next_id_watermark() >= 16);
    assert!(nptsn_obs::telemetry().router_failovers.get() >= 1);

    router.stop();
    b.stop();
    b.wait();
}

#[test]
fn a_prebuilt_dead_log_replays_through_the_validation_gate() {
    // Hand-build a dead shard's log: one interrupted job with a spec, one
    // interrupted job without (unrecoverable), one terminal job.
    let dead_dir = temp_dir("gate-dead");
    {
        let store = LogStore::open(&dead_dir).unwrap();
        store.put(NEXT_ID_KEY, &encode_next_id(9)).unwrap();
        store
            .put(
                &job_key(7),
                &encode_record(
                    JobState::Submitted,
                    Some(&JobSpec::Burn { millis: 1 }),
                    None,
                    None,
                ),
            )
            .unwrap();
        store.put(&job_key(8), &encode_record(JobState::Running, None, None, None)).unwrap();
        store
            .put(
                &job_key(9),
                &encode_record(
                    JobState::Done,
                    Some(&JobSpec::Burn { millis: 1 }),
                    Some(&JobOutcome::Burn),
                    None,
                ),
            )
            .unwrap();
    }

    let live_dir = temp_dir("gate-live");
    let live = shard(&live_dir, "s0");
    // The dead shard's address is a port nothing listens on.
    let vacant = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap()
    };
    let router = fleet_router(vec![
        ShardSpec {
            name: "s0".to_string(),
            addr: live.local_addr(),
            data_dir: Some(live_dir.clone()),
        },
        ShardSpec { name: "s1".to_string(), addr: vacant, data_dir: Some(dead_dir.clone()) },
    ]);
    let mut client = Client::new(router.local_addr());

    // The interrupted job with a spec re-validates, re-enqueues and runs
    // to completion on the survivor.
    poll(15, "job 7 to replay and finish", || {
        let status = client.get("/jobs/7").ok()?;
        status.text().contains("\"state\":\"done\"").then_some(())
    });
    // The spec-less interrupted job cannot be re-run; the replay records
    // it failed rather than losing it or faking a result.
    let eight = poll(15, "job 8 to replay", || {
        let status = client.get("/jobs/8").ok()?;
        (status.status == 200).then(|| status.text())
    });
    assert!(eight.contains("\"state\":\"failed\""), "{eight}");
    // The terminal job replays verbatim.
    let nine = poll(15, "job 9 to replay", || {
        let status = client.get("/jobs/9").ok()?;
        (status.status == 200).then(|| status.text())
    });
    assert!(nine.contains("\"state\":\"done\""), "{nine}");

    // The watermark cleared the replayed ids: a fresh submission through
    // the router must not collide with them.
    assert!(router.next_id_watermark() >= 9);
    let accepted = client.post("/jobs/burn?millis=1", &[]).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.text());
    assert!(int_field(&accepted.text(), "id") >= 10);

    router.stop();
    live.stop();
    live.wait();
}
