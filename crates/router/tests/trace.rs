//! End-to-end fleet observability: the router mints one trace id per
//! job, the owning shard's spans adopt it, the merged timeline shows
//! both processes on their own rows, and a dead shard's timeline
//! survives replay onto the survivor. The router's own HTTP surface is
//! pinned here too: its flight ring, its federated `/metrics`, and the
//! per-code counts of requests it could not read.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nptsn_obs::json::{self, Value};
use nptsn_router::{trace_for_job, Router, RouterConfig, ShardSpec};
use nptsn_serve::client::Client;
use nptsn_serve::{ServeConfig, Server};

mod common;
use common::int_field;

fn temp_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("nptsn-router-tr-{}-{test}", std::process::id()));
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

/// The `pid → process name` pairs from a merged trace's metadata events.
fn process_names(doc: &Value) -> Vec<(f64, String)> {
    doc.get("traceEvents")
        .and_then(Value::as_arr)
        .map(|events| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
                .filter_map(|e| {
                    let pid = e.get("pid").and_then(Value::as_num)?;
                    let name = e
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Value::as_str)?
                        .to_string();
                    Some((pid, name))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// The `"X"` span events of a merged trace as (pid, name, trace) tuples.
fn spans_of(doc: &Value) -> Vec<(f64, String, String)> {
    doc.get("traceEvents")
        .and_then(Value::as_arr)
        .map(|events| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
                .map(|e| {
                    (
                        e.get("pid").and_then(Value::as_num).unwrap_or(0.0),
                        e.get("name").and_then(Value::as_str).unwrap_or("").to_string(),
                        e.get("args")
                            .and_then(|a| a.get("trace"))
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn a_routed_job_s_spans_share_the_router_minted_trace_id() {
    let a_dir = temp_dir("mint-a");
    let b_dir = temp_dir("mint-b");
    let a = shard(&a_dir, "s0");
    let b = shard(&b_dir, "s1");
    let router = fleet_router(vec![
        ShardSpec { name: "s0".to_string(), addr: a.local_addr(), data_dir: Some(a_dir.clone()) },
        ShardSpec { name: "s1".to_string(), addr: b.local_addr(), data_dir: Some(b_dir.clone()) },
    ]);
    let mut client = Client::new(router.local_addr());

    let accepted = client.post("/jobs/burn?millis=1", &[]).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.text());
    let id = int_field(&accepted.text(), "id");
    poll(10, "the job to finish", || {
        let status = client.get(&format!("/jobs/{id}")).ok()?;
        status.text().contains("\"state\":\"done\"").then_some(())
    });
    let hex = format!("{:032x}", trace_for_job(id).trace_id);

    // The owning shard's persisted fragment carries the router-minted
    // trace id — the header crossed the process boundary and the worker
    // thread recorded its spans under it.
    let ring = router.ring();
    let owner = ring.place(id).expect("placement");
    let mut direct = Client::new(if owner == "s0" { a.local_addr() } else { b.local_addr() });
    let fragment = poll(10, "the shard to persist the timeline", || {
        let status = direct.get(&format!("/jobs/{id}/trace")).ok()?;
        let body = status.text();
        body.contains("job.run").then_some(body)
    });
    assert!(fragment.contains(&format!("\"trace\":\"{hex}\"")), "{fragment}");
    assert!(fragment.contains(&format!("\"shard\":\"{owner}\"")), "{fragment}");

    // The merged document names every fleet member and holds spans from
    // both processes — router and shard — under the one trace id.
    let merged = poll(10, "the merged trace", || {
        let status = client.get(&format!("/jobs/{id}/trace")).ok()?;
        let body = status.text();
        (status.status == 200 && body.contains("job.run") && body.contains("router.forward"))
            .then_some(body)
    });
    let doc = json::parse(&merged).expect("merged trace parses");
    let names = process_names(&doc);
    for name in ["router", "s0", "s1"] {
        assert!(names.iter().any(|(_, n)| n == name), "{merged}");
    }
    let router_pid = names.iter().find(|(_, n)| n == "router").unwrap().0;
    let owner_pid = names.iter().find(|(_, n)| n == owner).unwrap().0;
    let spans = spans_of(&doc);
    assert!(
        spans.iter().any(|(pid, name, trace)| *pid == router_pid
            && name == "router.forward"
            && trace == &hex),
        "{merged}"
    );
    assert!(
        spans
            .iter()
            .any(|(pid, name, trace)| *pid == owner_pid && name == "job.run" && trace == &hex),
        "{merged}"
    );

    // An id nobody has ever seen merges to nothing.
    let missing = client.get("/jobs/999983/trace").unwrap();
    assert_eq!(missing.status, 404, "{}", missing.text());

    router.stop();
    a.stop();
    a.wait();
    b.stop();
    b.wait();
}

#[test]
fn the_router_federates_shard_metrics_and_serves_its_flight_ring() {
    let a_dir = temp_dir("fed-a");
    let b_dir = temp_dir("fed-b");
    let a = shard(&a_dir, "s0");
    let b = shard(&b_dir, "s1");
    let router = fleet_router(vec![
        ShardSpec { name: "s0".to_string(), addr: a.local_addr(), data_dir: Some(a_dir.clone()) },
        ShardSpec { name: "s1".to_string(), addr: b.local_addr(), data_dir: Some(b_dir.clone()) },
    ]);
    let mut client = Client::new(router.local_addr());

    let accepted = client.post("/jobs/burn?millis=1", &[]).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.text());
    let id = int_field(&accepted.text(), "id");
    poll(10, "the job to finish", || {
        let status = client.get(&format!("/jobs/{id}")).ok()?;
        status.text().contains("\"state\":\"done\"").then_some(())
    });

    // Both shards are scraped and re-labeled; the fleet alias sums the
    // shard-side submission counters; the router's own histograms render.
    let metrics = poll(10, "a federated scrape", || {
        let response = client.get("/metrics").ok()?;
        let text = response.text();
        (text.contains("shard=\"s0\"") && text.contains("shard=\"s1\"")).then_some(text)
    });
    assert!(metrics.contains("nptsn_fleet_jobs_total"), "{metrics}");
    assert!(metrics.contains("nptsn_router_forward_duration_seconds_bucket"), "{metrics}");
    assert!(metrics.contains("nptsn_router_replay_duration_seconds"), "{metrics}");

    // The always-on flight ring answers with structure: a capacity and
    // recorded entries (the forwards above at minimum).
    let flight = client.get("/debug/flight").unwrap();
    assert_eq!(flight.status, 200, "{}", flight.text());
    let doc = json::parse(&flight.text()).expect("flight json parses");
    assert!(doc.get("capacity").and_then(Value::as_num).unwrap_or(0.0) >= 1.0);
    assert!(
        !doc.get("entries").and_then(Value::as_arr).expect("entries array").is_empty(),
        "flight ring recorded nothing"
    );

    router.stop();
    a.stop();
    a.wait();
    b.stop();
    b.wait();
}

/// Sends `raw` on a fresh connection and reads until the router closes
/// it: the whole response of a connection the router refuses to reuse.
fn exchange_until_close(router: &Router, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(router.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(raw).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("the router closes the connection");
    response
}

#[test]
fn the_router_answers_unreadable_requests_and_counts_them() {
    let dir = temp_dir("unreadable");
    let a = shard(&dir, "s0");
    let router = fleet_router(vec![ShardSpec {
        name: "s0".to_string(),
        addr: a.local_addr(),
        data_dir: Some(dir.clone()),
    }]);

    // A malformed request line: 400, and the connection closes.
    let bad = exchange_until_close(&router, b"NOT-HTTP\r\n\r\n");
    assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
    assert!(bad.contains("Connection: close\r\n"), "{bad}");

    // A declared body one byte over the 4 MiB limit: 413 before a single
    // body byte is sent, and the connection closes.
    let head = format!(
        "POST /jobs/verify HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        4 * 1024 * 1024 + 1
    );
    let large = exchange_until_close(&router, head.as_bytes());
    assert!(large.starts_with("HTTP/1.1 413"), "{large}");
    assert!(large.contains("Connection: close\r\n"), "{large}");
    assert!(large.contains("4194304-byte limit"), "{large}");

    // Both answers are counted per code in the router's own series.
    let metrics = Client::new(router.local_addr()).get("/metrics").unwrap().text();
    for code in ["400", "413"] {
        let series = format!("nptsn_router_http_responses_total{{code=\"{code}\"}} 1\n");
        assert!(metrics.contains(&series), "no {series} in:\n{metrics}");
    }

    router.stop();
    router.wait();
    a.stop();
    a.wait();
}

#[test]
fn a_dead_shard_s_timeline_survives_in_the_merged_trace() {
    let a_dir = temp_dir("dead-a");
    let b_dir = temp_dir("dead-b");
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
    let ring = router.ring();
    let victim =
        *ids.iter().find(|&&id| ring.place(id) == Some("s0")).expect("a job placed on s0");
    for &id in &ids {
        poll(10, "a job to finish", || {
            let status = client.get(&format!("/jobs/{id}")).ok()?;
            status.text().contains("\"state\":\"done\"").then_some(())
        });
    }
    // The victim's timeline must be in s0's durable log before the loss.
    // Ask the shard directly: in this in-process fleet all three
    // "processes" share one flight ring, so the router's merged view
    // shows job.run spans on its own row and cannot witness persistence.
    let mut direct_a = Client::new(a.local_addr());
    poll(10, "s0 to persist the victim's timeline", || {
        let status = direct_a.get(&format!("/jobs/{victim}/trace")).ok()?;
        status.text().contains("job.run").then_some(())
    });

    a.stop();
    a.wait();
    poll(15, "the router to declare s0 dead", || {
        let health = client.get("/healthz").ok()?;
        health.text().contains("\"live_shards\":1").then_some(())
    });

    // Replay carries the trace record to the survivor, still naming the
    // shard that recorded it.
    let mut direct_b = Client::new(b.local_addr());
    poll(15, "the survivor to ingest the replayed timeline", || {
        let status = direct_b.get(&format!("/jobs/{victim}/trace")).ok()?;
        let body = status.text();
        (body.contains("\"shard\":\"s0\"") && body.contains("job.run")).then_some(())
    });

    // The merged timeline still attributes the spans to the dead shard,
    // under the job's original trace id.
    let hex = format!("{:032x}", trace_for_job(victim).trace_id);
    let merged = {
        let response = client.get(&format!("/jobs/{victim}/trace")).unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
        response.text()
    };
    let doc = json::parse(&merged).expect("merged trace parses");
    let names = process_names(&doc);
    let s0_pid = names.iter().find(|(_, n)| n == "s0").expect("s0 process row").0;
    let spans = spans_of(&doc);
    assert!(
        spans
            .iter()
            .any(|(pid, name, trace)| *pid == s0_pid && name == "job.run" && trace == &hex),
        "{merged}"
    );

    router.stop();
    b.stop();
    b.wait();
}
