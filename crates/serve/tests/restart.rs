//! Durability end-to-end: a server with a `data_dir` is stopped and a new
//! process-equivalent (fresh `Server`, same directory) takes over. Job
//! results, the checkpoint registry, and deletions must all survive, and
//! recovered results must be byte-identical to what the first server
//! served.

use std::time::{Duration, Instant};

use nptsn::{Planner, PlannerConfig};
use nptsn_format::parse_problem;
use nptsn_nn::{params_to_bytes, Module};
use nptsn_serve::{Client, ServeConfig, Server};

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

fn bind(data_dir: &std::path::Path) -> (Server, Client) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 8,
        data_dir: Some(data_dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    })
    .expect("bind with a data dir");
    let client = Client::new(server.local_addr());
    (server, client)
}

fn poll_terminal(client: &mut Client, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let body = client.get(&format!("/jobs/{id}")).expect("poll").text();
        if ["done", "failed", "cancelled"]
            .iter()
            .any(|s| body.contains(&format!("\"state\":\"{s}\"")))
        {
            return body;
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {body}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn results_registry_and_deletions_survive_a_restart() {
    let dir = std::env::temp_dir().join(format!("nptsn-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A structurally valid checkpoint for this problem's architecture.
    let parsed = parse_problem(DOC).unwrap();
    let planner = Planner::new(parsed.problem.clone(), PlannerConfig::quick());
    let checkpoint = params_to_bytes(&planner.build_policy().parameters());

    // ---- First server: do real work, then drain cleanly. ----
    let (verify_id, verify_result, deleted_id, max_id) = {
        let (server, mut client) = bind(&dir);

        let put = client.put("/checkpoints/prod", &checkpoint).unwrap();
        assert_eq!(put.status, 200, "{}", put.text());
        assert_eq!(int_field(&put.text(), "version"), 1);

        let plan = "[switches]\ns0 A\n[plan-links]\na s0\nb s0\n";
        let body = format!("{DOC}{plan}");
        let submit = client.post("/jobs/verify", body.as_bytes()).unwrap();
        assert_eq!(submit.status, 202, "{}", submit.text());
        let verify_id = int_field(&submit.text(), "id");
        poll_terminal(&mut client, verify_id);
        let verify_result = client.get(&format!("/jobs/{verify_id}/result")).unwrap();
        assert_eq!(verify_result.status, 200);

        // A finished job the operator deletes must stay deleted.
        let doomed = client.post("/jobs/burn?millis=1", &[]).unwrap();
        assert_eq!(doomed.status, 202);
        let deleted_id = int_field(&doomed.text(), "id");
        poll_terminal(&mut client, deleted_id);
        let deleted = client.delete(&format!("/jobs/{deleted_id}")).unwrap();
        assert_eq!(deleted.status, 200, "{}", deleted.text());
        assert!(deleted.text().contains("\"state\":\"deleted\""), "{}", deleted.text());
        assert_eq!(client.get(&format!("/jobs/{deleted_id}")).unwrap().status, 404);

        let shutdown = client.post("/shutdown", &[]).unwrap();
        assert_eq!(shutdown.status, 200);
        server.wait();
        (verify_id, verify_result.body, deleted_id, deleted_id.max(verify_id))
    };

    // ---- Second server on the same directory. ----
    let (server, mut client) = bind(&dir);

    // The verify job is back, terminal, with a byte-identical result.
    let status = client.get(&format!("/jobs/{verify_id}")).unwrap();
    assert_eq!(status.status, 200, "{}", status.text());
    assert!(status.text().contains("\"state\":\"done\""), "{}", status.text());
    let result = client.get(&format!("/jobs/{verify_id}/result")).unwrap();
    assert_eq!(result.status, 200);
    assert_eq!(result.body, verify_result, "recovered result is not byte-identical");

    // The deletion survived too.
    assert_eq!(client.get(&format!("/jobs/{deleted_id}")).unwrap().status, 404);

    // The registry survived: same bytes, same version, and a named infer
    // job runs against it without re-uploading.
    let fetched = client.get("/checkpoints/prod").unwrap();
    assert_eq!(fetched.status, 200);
    assert_eq!(fetched.header("x-checkpoint-version"), Some("1"));
    assert_eq!(fetched.body, checkpoint);

    let infer = client
        .post("/jobs/infer?checkpoint=prod&attempts=2&seed=0", DOC.as_bytes())
        .unwrap();
    assert_eq!(infer.status, 202, "{}", infer.text());
    let infer_id = int_field(&infer.text(), "id");
    // Ids never rewind past the pre-restart watermark, even though the
    // highest pre-restart id was deleted.
    assert!(infer_id > max_id, "id {infer_id} reissued at or below watermark {max_id}");
    let body = poll_terminal(&mut client, infer_id);
    // An untrained policy may or may not find a plan; both are clean ends.
    assert!(
        body.contains("\"state\":\"done\"") || body.contains("\"state\":\"failed\""),
        "{body}"
    );

    server.stop();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
