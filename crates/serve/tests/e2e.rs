//! End-to-end tests over real TCP: a bound server, the in-tree client, and
//! the full submit → poll → fetch → verify loop, plus backpressure,
//! drain-on-shutdown and checkpoint-upload hardening.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nptsn::{FailureAnalyzer, Planner, PlannerConfig, Solution, Verdict};
use nptsn_format::{parse_plan, parse_problem, write_plan};
use nptsn_nn::{params_from_bytes, params_to_bytes, Module};
use nptsn_serve::{Client, ClientResponse, JobState, ServeConfig, Server};

mod common;
use common::int_field;

const DOC: &str = "\
[nodes]
es a
es b
sw s0
sw s1
[links]
a s0
a s1
b s0
b s1
s0 s1
[flows]
a b 500 128
";

fn start(workers: usize, queue_depth: usize) -> (Server, Client) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_depth,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let client = Client::new(server.local_addr());
    (server, client)
}

fn submit(client: &mut Client, path: &str, body: &[u8]) -> u64 {
    let response = client.post(path, body).expect("submit");
    assert_eq!(response.status, 202, "{}", response.text());
    int_field(&response.text(), "id")
}

/// Polls `GET /jobs/<id>` until the job reaches a terminal state,
/// returning the final status body and the largest `epochs_completed`
/// observed across the polls.
fn poll_until_done(client: &mut Client, id: u64) -> (String, u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut max_epochs = 0;
    loop {
        let response = client.get(&format!("/jobs/{id}")).expect("poll");
        assert_eq!(response.status, 200, "{}", response.text());
        let body = response.text();
        max_epochs = max_epochs.max(int_field(&body, "epochs_completed"));
        let terminal = [
            JobState::Done.label(),
            JobState::Failed.label(),
            JobState::Cancelled.label(),
        ]
        .iter()
        .any(|s| body.contains(&format!("\"state\":\"{s}\"")));
        if terminal {
            return (body, max_epochs);
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn state_of(body: &str) -> &str {
    for state in ["submitted", "running", "done", "failed", "cancelled"] {
        if body.contains(&format!("\"state\":\"{state}\"")) {
            return state;
        }
    }
    panic!("no state in {body}");
}

#[test]
fn plan_poll_fetch_verify_roundtrip() {
    let (server, mut client) = start(2, 8);

    // Submit an RL plan job with a tiny training budget.
    let id = submit(&mut client, "/jobs/plan?epochs=2&steps=48&seed=1", DOC.as_bytes());

    // Poll until done; the status stream must surface live epoch stats.
    let (body, max_epochs) = poll_until_done(&mut client, id);
    assert_eq!(state_of(&body), "done", "{body}");
    assert!(max_epochs >= 1, "no EpochStats update observed while polling: {body}");
    assert!(body.contains("\"latest_epoch\":{"), "{body}");
    assert!(body.contains("\"mean_episode_return\":"), "{body}");
    assert!(body.contains("\"checkpoint_available\":true"), "{body}");

    // Fetch the plan file.
    let plan = client.get(&format!("/jobs/{id}/plan")).unwrap();
    assert_eq!(plan.status, 200);
    let plan_text = plan.text();
    assert!(plan_text.contains("[switches]"), "{plan_text}");

    // The service's verify endpoint and a direct in-process analysis (the
    // CLI's `verify` code path) must agree on the verdict.
    let parsed = parse_problem(DOC).unwrap();
    let topology = parse_plan(&parsed, &plan_text).unwrap();
    let direct = FailureAnalyzer::new().analyze(&parsed.problem, &topology);
    assert_eq!(direct, Verdict::Reliable);

    let verify_body = format!("{DOC}{plan_text}");
    let verify_id = submit(&mut client, "/jobs/verify", verify_body.as_bytes());
    let (status, _) = poll_until_done(&mut client, verify_id);
    assert_eq!(state_of(&status), "done", "{status}");
    assert!(status.contains("\"reliable\":true"), "{status}");
    let result = client.get(&format!("/jobs/{verify_id}/result")).unwrap();
    assert_eq!(result.status, 200);
    let report = result.text();
    assert!(report.contains("\"verdict\":\"reliable\""), "{report}");
    assert!(report.contains("\"scenarios_checked\":"), "{report}");

    // The trained policy checkpoint round-trips through the infer
    // endpoint: download it, upload it, plan without learning.
    let checkpoint = client.get(&format!("/jobs/{id}/checkpoint")).unwrap();
    assert_eq!(checkpoint.status, 200);
    assert!(checkpoint.body.starts_with(b"NPTSNCK"), "not a checkpoint");

    let mut infer_body = DOC.as_bytes().to_vec();
    infer_body.extend_from_slice(&checkpoint.body);
    let infer = client
        .post_with_headers(
            "/jobs/infer?attempts=4&seed=1",
            &[("X-Problem-Length", DOC.len().to_string())],
            &infer_body,
        )
        .unwrap();
    assert_eq!(infer.status, 202, "{}", infer.text());
    let infer_id = int_field(&infer.text(), "id");
    let (infer_status, _) = poll_until_done(&mut client, infer_id);
    assert_eq!(state_of(&infer_status), "done", "{infer_status}");
    let inferred_plan = client.get(&format!("/jobs/{infer_id}/plan")).unwrap();
    assert_eq!(inferred_plan.status, 200);
    assert!(inferred_plan.text().contains("[switches]"));

    // Metrics reflect the work done, over the same keep-alive connection.
    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    assert!(text.contains("nptsn_jobs_completed_total 3"), "{text}");
    assert!(text.contains("nptsn_planner_epochs_total 2"), "{text}");
    assert!(text.contains("nptsn_analyzer_scenarios_checked_total"), "{text}");
    assert!(text.contains("nptsn_http_request_seconds_bucket"), "{text}");

    server.stop();
    server.wait();
}

#[test]
fn full_queue_answers_503_with_retry_after() {
    let (server, mut client) = start(1, 2);

    // Occupy the single worker, then wait until the job is running so the
    // queue occupancy is deterministic.
    let running = submit(&mut client, "/jobs/burn?millis=60000", &[]);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let body = client.get(&format!("/jobs/{running}")).unwrap().text();
        if state_of(&body) == "running" {
            break;
        }
        assert!(Instant::now() < deadline, "burn job never started: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Fill the queue to its depth...
    let queued_a = submit(&mut client, "/jobs/burn?millis=1", &[]);
    let queued_b = submit(&mut client, "/jobs/burn?millis=1", &[]);

    // ...and the next submission is backpressure, not an error.
    let rejected = client.post("/jobs/burn?millis=1", &[]).unwrap();
    assert_eq!(rejected.status, 503, "{}", rejected.text());
    assert_eq!(rejected.header("retry-after"), Some("1"));
    assert!(rejected.text().contains("queue full"), "{}", rejected.text());

    // Cancelling a queued job frees a slot immediately.
    let cancelled = client.delete(&format!("/jobs/{queued_a}")).unwrap();
    assert_eq!(cancelled.status, 200);
    assert!(cancelled.text().contains("\"state\":\"cancelled\""));
    let accepted = client.post("/jobs/burn?millis=1", &[]).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.text());

    // Cancelling the running job signals it; it winds down at the next
    // cancellation point.
    let signalled = client.delete(&format!("/jobs/{running}")).unwrap();
    assert_eq!(signalled.status, 202);
    assert!(signalled.text().contains("cancelling"));
    let (final_status, _) = poll_until_done(&mut client, running);
    assert_eq!(state_of(&final_status), "cancelled", "{final_status}");

    // Fetching the plan of a cancelled job is a 409, not a hang or crash.
    let conflict = client.get(&format!("/jobs/{running}/plan")).unwrap();
    assert_eq!(conflict.status, 409);
    let _ = queued_b;

    server.stop();
    server.wait();
}

#[test]
fn shutdown_drains_accepted_jobs_without_dropping_results() {
    let (server, mut client) = start(1, 8);
    let queue = server.queue();
    let metrics = server.metrics();

    let ids: Vec<u64> = (0..3)
        .map(|_| submit(&mut client, "/jobs/burn?millis=100", &[]))
        .collect();

    // Shutdown over HTTP: the response arrives and the connection closes.
    let response = client.post("/shutdown", &[]).unwrap();
    assert_eq!(response.status, 200);
    assert!(response.text().contains("shutting down"));

    // wait() returns only after the queue is fully drained.
    server.wait();

    for id in &ids {
        let snapshot = queue.snapshot(*id).expect("job still tracked after drain");
        assert_eq!(snapshot.state, JobState::Done, "job {id} was dropped by shutdown");
    }
    assert_eq!(metrics.jobs_completed.get(), 3);
    assert_eq!(metrics.jobs_queued.get(), 0);
}

#[test]
fn checkpoint_uploads_are_hardened() {
    let (server, mut client) = start(1, 4);

    // A structurally valid checkpoint for this problem's architecture.
    let parsed = parse_problem(DOC).unwrap();
    let planner = Planner::new(parsed.problem.clone(), PlannerConfig::quick());
    let policy = planner.build_policy();
    let valid = params_to_bytes(&policy.parameters());

    let post_infer = |client: &mut Client, checkpoint: &[u8]| -> ClientResponse {
        let mut body = DOC.as_bytes().to_vec();
        body.extend_from_slice(checkpoint);
        client
            .post_with_headers(
                "/jobs/infer?attempts=2&seed=0",
                &[("X-Problem-Length", DOC.len().to_string())],
                &body,
            )
            .expect("request completes")
    };

    // Truncated body: checksum/framing fails, clean 422.
    let truncated = post_infer(&mut client, &valid[..valid.len() - 5]);
    assert_eq!(truncated.status, 422, "{}", truncated.text());
    assert!(truncated.text().contains("checkpoint"), "{}", truncated.text());

    // Flipped payload bit: the CRC-32 trailer catches it.
    let mut corrupt = valid.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    let bad_crc = post_infer(&mut client, &corrupt);
    assert_eq!(bad_crc.status, 422, "{}", bad_crc.text());

    // Garbage magic.
    let garbage = post_infer(&mut client, b"GARBAGE-not-a-checkpoint");
    assert_eq!(garbage.status, 422, "{}", garbage.text());

    // Missing framing header.
    let mut body = DOC.as_bytes().to_vec();
    body.extend_from_slice(&valid);
    let unframed = client.post("/jobs/infer", &body).unwrap();
    assert_eq!(unframed.status, 400, "{}", unframed.text());

    // Oversized upload: rejected before the body is buffered.
    let (small_server, mut small_client) = {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 4,
            max_body_bytes: 16 * 1024,
            ..ServeConfig::default()
        })
        .unwrap();
        let client = Client::new(server.local_addr());
        (server, client)
    };
    let oversized = small_client.post("/jobs/infer", &vec![0u8; 64 * 1024]).unwrap();
    assert_eq!(oversized.status, 413, "{}", oversized.text());
    let health = small_client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    small_server.stop();
    small_server.wait();

    // No partial state: after every rejection, zero jobs were submitted
    // and a valid upload still works end to end.
    let metrics_text = client.get("/metrics").unwrap().text();
    assert!(metrics_text.contains("nptsn_jobs_submitted_total 0"), "{metrics_text}");

    let ok = post_infer(&mut client, &valid);
    assert_eq!(ok.status, 202, "{}", ok.text());
    let id = int_field(&ok.text(), "id");
    let (status, _) = poll_until_done(&mut client, id);
    // An untrained policy may or may not find a plan; either way the job
    // terminates cleanly rather than poisoning the worker.
    assert!(
        matches!(state_of(&status), "done" | "failed"),
        "unexpected terminal state: {status}"
    );

    server.stop();
    server.wait();
}

#[test]
fn keep_alive_and_malformed_requests() {
    let (server, mut client) = start(1, 4);

    // Many requests over one connection.
    for _ in 0..5 {
        let health = client.get("/healthz").unwrap();
        assert_eq!(health.status, 200);
    }
    let metrics = client.get("/metrics").unwrap().text();
    let requests: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("nptsn_http_requests_total "))
        .and_then(|v| v.parse().ok())
        .expect("request counter present");
    assert!(requests >= 6, "expected keep-alive requests to accumulate: {requests}");

    // Unknown endpoints and wrong methods are clean errors...
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.delete("/metrics").unwrap().status, 405);
    assert_eq!(client.get("/jobs/12345").unwrap().status, 404);

    // ...and raw garbage gets a 400 and a closed connection, while the
    // server keeps serving everyone else.
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        let mut response = String::new();
        raw.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    }
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    server.stop();
    server.wait();
}

/// Tentpole e2e: concurrent infer jobs against *mixed* checkpoints. The
/// single worker coalesces compatible jobs per checkpoint into fused
/// batched forwards, and every job's result is identical to a solo
/// in-process run of the same (checkpoint, attempts, seed) — batching
/// never cross-contaminates results between groups.
#[test]
fn concurrent_mixed_checkpoint_infer_jobs_batch_without_contamination() {
    const DOC2: &str = "\
[nodes]
es a
es b
sw s0
sw s1
sw s2
[links]
a s0
a s1
a s2
b s0
b s1
b s2
s0 s1
[flows]
a b 500 128
a b 1000 256
";
    // One worker, so everything submitted behind the burn job piles up
    // and the leader finds its batch-mates already queued.
    let (server, mut client) = start(1, 16);

    // Register one checkpoint per problem architecture.
    for (name, doc) in [("ck-a", DOC), ("ck-b", DOC2)] {
        let parsed = parse_problem(doc).unwrap();
        let planner = Planner::new(parsed.problem.clone(), PlannerConfig::quick());
        let bytes = params_to_bytes(&planner.build_policy().parameters());
        let put = client.put(&format!("/checkpoints/{name}"), &bytes).unwrap();
        assert_eq!(put.status, 200, "{}", put.text());
    }

    // The exact solo deployment the service performs for one infer job,
    // run in-process: restore the registered checkpoint, plan greedily.
    let reference = |doc: &str, attempts: usize, seed: u64| -> Option<Solution> {
        let parsed = parse_problem(doc).unwrap();
        let config =
            PlannerConfig { max_epochs: 1, steps_per_epoch: 1, seed, ..PlannerConfig::quick() };
        let planner = Planner::new(parsed.problem.clone(), config);
        let policy = planner.build_policy();
        let bytes = params_to_bytes(
            &Planner::new(parsed.problem.clone(), PlannerConfig::quick())
                .build_policy()
                .parameters(),
        );
        params_from_bytes(&policy.parameters(), &bytes).unwrap();
        planner.plan_with_policy(&policy, attempts, seed)
    };

    // Occupy the worker so the infer submissions queue up behind it.
    let burn = submit(&mut client, "/jobs/burn?millis=1500", &[]);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let body = client.get(&format!("/jobs/{burn}")).unwrap().text();
        if state_of(&body) == "running" {
            break;
        }
        assert!(Instant::now() < deadline, "burn job never started: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Interleaved submissions against both checkpoints, with a duplicate
    // pair that must come back identical.
    let specs: Vec<(&str, &str, usize, u64)> = vec![
        ("ck-a", DOC, 2, 9),
        ("ck-b", DOC2, 2, 9),
        ("ck-a", DOC, 3, 21),
        ("ck-b", DOC2, 3, 21),
        ("ck-a", DOC, 2, 9), // duplicate of the first job
        ("ck-b", DOC2, 2, 9),
    ];
    let ids: Vec<u64> = specs
        .iter()
        .map(|(name, doc, attempts, seed)| {
            submit(
                &mut client,
                &format!("/jobs/infer?checkpoint={name}&attempts={attempts}&seed={seed}"),
                doc.as_bytes(),
            )
        })
        .collect();

    // Every job terminates with exactly its solo reference result.
    let mut bodies = Vec::new();
    for (&id, (_, doc, attempts, seed)) in ids.iter().zip(&specs) {
        let (body, _) = poll_until_done(&mut client, id);
        match reference(doc, *attempts, *seed) {
            Some(solution) => {
                assert_eq!(state_of(&body), "done", "job {id}: {body}");
                let plan = client.get(&format!("/jobs/{id}/plan")).unwrap();
                assert_eq!(plan.status, 200);
                assert_eq!(
                    plan.text(),
                    write_plan(&solution.topology),
                    "job {id} diverged from its solo reference"
                );
            }
            None => {
                assert_eq!(state_of(&body), "failed", "job {id}: {body}");
                assert!(body.contains("no valid plan"), "job {id}: {body}");
            }
        }
        bodies.push(body);
    }
    // The duplicate pair (same checkpoint, attempts, seed) agrees even
    // though the two jobs may have landed in different batches.
    assert_eq!(
        bodies[0].replace(&format!("\"id\":{}", ids[0]), ""),
        bodies[4].replace(&format!("\"id\":{}", ids[4]), ""),
        "identical submissions diverged"
    );

    // The worker actually fused batches: one per checkpoint group.
    let metrics = client.get("/metrics").unwrap().text();
    let batched: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("nptsn_infer_batched_forwards_total "))
        .and_then(|v| v.parse().ok())
        .expect("batched-forwards counter present");
    assert!(batched >= 2, "expected at least two fused batches: {batched}\n{metrics}");
    assert!(
        metrics.contains("nptsn_infer_batch_size_bucket"),
        "batch-size histogram missing:\n{metrics}"
    );

    server.stop();
    server.wait();
}

/// The shared JSON serializer is what both the CLI `--json` flag and the
/// verify endpoint emit — spot-check the document against a direct
/// analysis so the schema cannot drift silently.
#[test]
fn verify_endpoint_matches_direct_analysis() {
    let (server, mut client) = start(1, 4);

    // A deliberately fragile plan: one ASIL-A switch carries everything.
    let plan = "[switches]\ns0 A\n[plan-links]\na s0\nb s0\n";
    let body = format!("{DOC}{plan}");
    let id = submit(&mut client, "/jobs/verify", body.as_bytes());
    let (status, _) = poll_until_done(&mut client, id);
    assert_eq!(state_of(&status), "done", "{status}");
    assert!(status.contains("\"reliable\":false"), "{status}");

    let report = client.get(&format!("/jobs/{id}/result")).unwrap().text();
    assert!(report.contains("\"verdict\":\"unreliable\""), "{report}");
    assert!(report.contains("\"failed_switches\":[\"s0\"]"), "{report}");

    let parsed = parse_problem(DOC).unwrap();
    let topology = parse_plan(&parsed, plan).unwrap();
    let direct = FailureAnalyzer::new()
        .with_shared_cache(Arc::new(nptsn::ScenarioCache::new()))
        .try_analyze(&parsed.problem, &topology)
        .unwrap();
    assert!(!direct.verdict.is_reliable());
    let expected = nptsn_format::json::analysis_report_json(
        &parsed.problem,
        &direct,
        Some(topology.network_cost(parsed.problem.library())),
    );
    assert_eq!(report, expected, "endpoint and CLI serializers diverged");

    // The retired `analyzer-workers` parameter is ignored like any unknown
    // query parameter: the job is accepted and reports the same body.
    let id = submit(&mut client, "/jobs/verify?analyzer-workers=4", body.as_bytes());
    let (status, _) = poll_until_done(&mut client, id);
    assert_eq!(state_of(&status), "done", "{status}");
    let ignored = client.get(&format!("/jobs/{id}/result")).unwrap().text();
    assert_eq!(ignored, report);

    server.stop();
    server.wait();
}

/// Pins `/metrics` compatibility across the serve→obs registry move: every
/// pre-existing series name still renders, each with its `# HELP`/`# TYPE`
/// block, and the response declares the Prometheus text exposition
/// content type. A scrape config written against the pre-move service
/// must keep working unchanged.
#[test]
fn metrics_exposition_survives_the_registry_move() {
    let (server, mut client) = start(1, 4);

    // Drive one verify job through the queue so the planner/analyzer
    // telemetry series carry real samples, not just registrations.
    let plan = "[switches]\ns0 A\ns1 A\n[plan-links]\na s0\na s1\nb s0\nb s1\ns0 s1\n";
    let body = format!("{DOC}{plan}");
    let id = submit(&mut client, "/jobs/verify", body.as_bytes());
    poll_until_done(&mut client, id);

    let response = client.get("/metrics").unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("content-type"),
        Some("text/plain; version=0.0.4"),
        "{:?}",
        response.headers
    );
    let text = response.text();

    // Every series name the pre-move registry exported, by family kind.
    let counters = [
        "nptsn_http_requests_total",
        "nptsn_jobs_submitted_total",
        "nptsn_jobs_completed_total",
        "nptsn_jobs_failed_total",
        "nptsn_jobs_cancelled_total",
        "nptsn_jobs_rejected_total",
        "nptsn_planner_epochs_total",
        "nptsn_planner_solutions_total",
        "nptsn_analyzer_scenarios_checked_total",
        "nptsn_analyzer_cache_hits_total",
        "nptsn_analyzer_cache_misses_total",
    ];
    let gauges = ["nptsn_jobs_queued", "nptsn_jobs_running"];
    for name in counters {
        assert!(text.contains(&format!("# HELP {name} ")), "{name} lost its HELP:\n{text}");
        assert!(text.contains(&format!("# TYPE {name} counter")), "{name} lost its TYPE");
        assert!(text.contains(&format!("\n{name} ")), "{name} lost its sample line");
    }
    for name in gauges {
        assert!(text.contains(&format!("# HELP {name} ")), "{name} lost its HELP");
        assert!(text.contains(&format!("# TYPE {name} gauge")), "{name} lost its TYPE");
        assert!(text.contains(&format!("\n{name} ")), "{name} lost its sample line");
    }
    // Labeled counter family: per-status-code responses.
    assert!(text.contains("# TYPE nptsn_http_responses_total counter"), "{text}");
    assert!(text.contains("nptsn_http_responses_total{code=\"200\"}"), "{text}");
    // Histogram family: bucket/sum/count triplet with a +Inf bound.
    assert!(text.contains("# TYPE nptsn_http_request_seconds histogram"), "{text}");
    assert!(text.contains("nptsn_http_request_seconds_bucket{le=\"+Inf\"}"), "{text}");
    assert!(text.contains("nptsn_http_request_seconds_sum "), "{text}");
    assert!(text.contains("nptsn_http_request_seconds_count "), "{text}");
    // The analyzer work done by the verify job reached the shared
    // registry (one source of truth for jobs, CLI and embedders).
    let scenarios: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("nptsn_analyzer_scenarios_checked_total "))
        .and_then(|v| v.parse().ok())
        .expect("analyzer scenario counter present");
    assert!(scenarios > 0, "verify job recorded no scenarios:\n{text}");
    // New-in-this-PR series ride along in the same exposition.
    assert!(text.contains("# TYPE nptsn_planner_poisoned_workers_total counter"), "{text}");
    assert!(text.contains("# TYPE nptsn_analyzer_budget_exhausted_total counter"), "{text}");

    server.stop();
    server.wait();
}
