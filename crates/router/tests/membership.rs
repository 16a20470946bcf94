//! End-to-end elastic membership: a restarted shard rejoins a live
//! fleet, a new shard joins it, and replication promotes passive copies
//! on a death — in every case without losing an acked job.

use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nptsn_format::json::Object;
use nptsn_router::{Router, RouterConfig, ShardSpec};
use nptsn_serve::client::Client;
use nptsn_serve::{ServeConfig, Server};

mod common;
use common::int_field;

fn temp_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("nptsn-router-mem-{}-{test}", std::process::id()));
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

fn fleet_router(shards: Vec<ShardSpec>, replication_factor: u32) -> Router {
    Router::bind(RouterConfig {
        shards,
        replication_factor,
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

fn submit_burns(client: &mut Client, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| {
            let accepted = client.post("/jobs/burn?millis=1", &[]).unwrap();
            assert_eq!(accepted.status, 202, "{}", accepted.text());
            int_field(&accepted.text(), "id")
        })
        .collect()
}

fn wait_done(client: &mut Client, ids: &[u64]) -> Vec<String> {
    ids.iter()
        .map(|&id| {
            poll(15, "job to finish", || {
                let status = client.get(&format!("/jobs/{id}")).ok()?;
                let body = status.text();
                body.contains("\"state\":\"done\"").then_some(body)
            })
        })
        .collect()
}

#[test]
fn a_restarted_shard_rejoins_and_catches_up() {
    let a_dir = temp_dir("rejoin-a");
    let b_dir = temp_dir("rejoin-b");
    let a = shard(&a_dir, "s0");
    let b = shard(&b_dir, "s1");
    let router = fleet_router(
        vec![
            ShardSpec {
                name: "s0".to_string(),
                addr: a.local_addr(),
                data_dir: Some(a_dir.clone()),
            },
            ShardSpec {
                name: "s1".to_string(),
                addr: b.local_addr(),
                data_dir: Some(b_dir.clone()),
            },
        ],
        1,
    );
    let mut client = Client::new(router.local_addr());
    let rejoins_before = nptsn_obs::telemetry().router_rejoins.get();
    let migrated_before = nptsn_obs::telemetry().router_migrated_jobs.get();

    // Phase 1: a healthy fleet accepts and finishes a batch.
    let first = submit_burns(&mut client, 16);
    let first_bodies = wait_done(&mut client, &first);

    // Phase 2: s0 goes away; the router declares it dead and replays.
    a.stop();
    a.wait();
    poll(15, "the router to declare s0 dead", || {
        let health = client.get("/healthz").ok()?;
        health.text().contains("\"live_shards\":1").then_some(())
    });

    // Phase 3: the degraded fleet keeps accepting; these are the records
    // the rejoiner will have missed.
    let second = submit_burns(&mut client, 16);
    wait_done(&mut client, &second);

    // Phase 4: restart s0 on the same data dir. The OS hands the new
    // process a different port, so it must be re-announced.
    let a2 = shard(&a_dir, "s0");
    let announce = format!(
        "{{\"name\":\"s0\",\"addr\":\"{}\",\"data_dir\":\"{}\"}}",
        a2.local_addr(),
        a_dir.to_string_lossy()
    );
    let rejoined = poll(15, "the re-announcement to be accepted", || {
        let response = client.post("/admin/shards", announce.as_bytes()).ok()?;
        (response.status == 200).then(|| response.text())
    });
    assert!(rejoined.contains("\"status\":\"rejoined\""), "{rejoined}");
    poll(15, "the fleet to be whole again", || {
        let health = client.get("/healthz").ok()?;
        health.text().contains("\"live_shards\":2").then_some(())
    });
    // init(1) → death(2) → rejoin(3).
    assert!(router.ring_generation() >= 3, "generation {}", router.ring_generation());
    assert!(nptsn_obs::telemetry().router_rejoins.get() > rejoins_before);
    // The rejoiner owns some of the while-dead batch, so the synchronous
    // catch-up must have actually moved records.
    assert!(nptsn_obs::telemetry().router_migrated_jobs.get() > migrated_before);

    // Every job from before the death still serves byte-identically, and
    // every while-dead job serves from wherever it now lives.
    for (&id, expected) in first.iter().zip(&first_bodies) {
        poll(15, "a pre-death job to serve", || {
            let status = client.get(&format!("/jobs/{id}")).ok()?;
            (status.status == 200 && status.text() == *expected).then_some(())
        });
    }
    for &id in &second {
        poll(15, "a while-dead job to serve", || {
            let status = client.get(&format!("/jobs/{id}")).ok()?;
            (status.status == 200 && status.text().contains("\"state\":\"done\""))
                .then_some(())
        });
    }
    // And the whole fleet keeps taking work.
    let third = submit_burns(&mut client, 4);
    wait_done(&mut client, &third);

    router.stop();
    a2.stop();
    a2.wait();
    b.stop();
    b.wait();
}

/// A stranger on a recycled port: answers every request `200` with a
/// body that is not JSON.
fn impostor() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the impostor");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            let _ = stream.read(&mut [0; 1024]);
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
        }
    });
    addr
}

#[test]
fn a_new_shard_joins_a_running_fleet_and_drains_its_share() {
    // The second name needs JSON escaping wherever it crosses the wire:
    // in the announcement and in the newcomer's `/readyz` handshake.
    for (n, newcomer) in ["s1", "s\"1\\"].into_iter().enumerate() {
        scale_out(&format!("join-{n}"), newcomer);
    }
}

fn scale_out(test: &str, newcomer: &str) {
    let a_dir = temp_dir(&format!("{test}-a"));
    let a = shard(&a_dir, "s0");
    let router = fleet_router(
        vec![ShardSpec {
            name: "s0".to_string(),
            addr: a.local_addr(),
            data_dir: Some(a_dir.clone()),
        }],
        1,
    );
    let mut client = Client::new(router.local_addr());

    let ids = submit_burns(&mut client, 16);
    let bodies = wait_done(&mut client, &ids);

    // Scale out: a brand-new shard with an empty store joins live.
    let b_dir = temp_dir(&format!("{test}-b"));
    let b = shard(&b_dir, newcomer);
    let announce = |addr: SocketAddr| {
        let mut body = Object::new();
        body.str("name", newcomer);
        body.str("addr", &addr.to_string());
        body.str("data_dir", &b_dir.to_string_lossy());
        body.finish()
    };
    // The handshake refuses a `200` that is not JSON: that answer did not
    // come from one of our shards, and the ring stays as it was.
    let refused = client.post("/admin/shards", announce(impostor()).as_bytes()).unwrap();
    assert_eq!(refused.status, 502, "{}", refused.text());
    assert_eq!(router.ring_generation(), 1, "a refused join moved the ring");
    let announce = announce(b.local_addr());
    let joined = poll(15, "the join to be accepted", || {
        let response = client.post("/admin/shards", announce.as_bytes()).ok()?;
        (response.status == 200).then(|| response.text())
    });
    assert!(joined.contains("\"status\":\"joined\""), "{joined}");
    assert!(router.ring_generation() >= 2);

    // The ring must actually hand the newcomer a share of the old batch
    // (deterministic placement — this cannot flake), and each of those
    // records must migrate over and serve byte-identically through the
    // router, which now routes them to the newcomer.
    let ring = router.ring();
    let stolen = ids.iter().filter(|&&id| ring.place(id) == Some(newcomer)).count();
    assert!(stolen > 0, "the newcomer stole no keys from a 16-job batch");
    for (&id, expected) in ids.iter().zip(&bodies) {
        poll(15, "a migrated job to serve", || {
            let status = client.get(&format!("/jobs/{id}")).ok()?;
            (status.status == 200 && status.text() == *expected).then_some(())
        });
    }
    // New submissions land on both shards.
    let fresh = submit_burns(&mut client, 8);
    wait_done(&mut client, &fresh);

    router.stop();
    a.stop();
    a.wait();
    b.stop();
    b.wait();
}

#[test]
fn replication_promotes_passive_copies_when_the_primary_dies() {
    let a_dir = temp_dir("rf2-a");
    let b_dir = temp_dir("rf2-b");
    let a = shard(&a_dir, "s0");
    let b = shard(&b_dir, "s1");
    let router = fleet_router(
        vec![
            ShardSpec {
                name: "s0".to_string(),
                addr: a.local_addr(),
                data_dir: Some(a_dir.clone()),
            },
            ShardSpec {
                name: "s1".to_string(),
                addr: b.local_addr(),
                data_dir: Some(b_dir.clone()),
            },
        ],
        2,
    );
    let mut client = Client::new(router.local_addr());
    let promotions_before = nptsn_obs::telemetry().router_replica_promotions.get();

    let ids = submit_burns(&mut client, 16);
    wait_done(&mut client, &ids);
    // With two shards, every submission's successor is the other shard,
    // so each shard holds a passive copy of the other's batch.
    let ring = router.ring();
    let on_s0 = ids.iter().filter(|&&id| ring.place(id) == Some("s0")).count();
    assert!(on_s0 > 0, "no sampled job landed on s0");

    a.stop();
    a.wait();
    poll(15, "the router to declare s0 dead", || {
        let health = client.get("/healthz").ok()?;
        health.text().contains("\"live_shards\":1").then_some(())
    });

    // The survivor promoted its passive copies; every acked job reaches a
    // terminal state through the router with zero loss. (Promoted
    // non-terminal copies re-run — burn results are deterministic.)
    for &id in &ids {
        poll(15, "a promoted job to serve", || {
            let status = client.get(&format!("/jobs/{id}")).ok()?;
            (status.status == 200 && status.text().contains("\"state\":\"done\""))
                .then_some(())
        });
    }
    assert!(
        nptsn_obs::telemetry().router_replica_promotions.get() >= promotions_before + on_s0 as u64,
        "expected at least {on_s0} promotions"
    );

    router.stop();
    b.stop();
    b.wait();
}
