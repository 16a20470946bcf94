//! Record transfer between shards: dead-shard replay, rejoin catch-up
//! and scale-out migration all move durable job records through the same
//! idempotent shard-side gate.
//!
//! The shard-side contract makes this safe to run at any time, any number
//! of times:
//!
//! * the records come from [`nptsn_store::LogStore::export_live`] (or its
//!   cursor-bounded sibling `export_live_since`), a read-only fold over a
//!   shard's segment log — the directory is never mutated, so a half-dead
//!   process (or a later forensic read) sees exactly the bytes it wrote;
//! * each record goes through `POST /internal/replay/<id>` on the target,
//!   which feeds the **same validation gate** as HTTP submission — a
//!   corrupt or malformed record is recorded as failed, never executed;
//! * ingest is idempotent by job id: a terminal record is stored verbatim
//!   (byte-identical result bytes), a non-terminal record is re-validated
//!   and re-enqueued, and an id the target already knows is a no-op — so
//!   retrying a whole replay after a mid-replay crash cannot duplicate
//!   work or flip a result.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use nptsn_serve::persist::{job_id_from_key, trace_id_from_key};
use nptsn_store::LogStore;

use crate::ring::{key_hash, Ring};
use crate::server::{trace_for_job, Shard, Shared};

/// What one replay accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Records ingested onto a survivor (terminal, requeued or recorded
    /// failed).
    pub replayed: u64,
    /// Records the survivor already knew — no-ops.
    pub already_known: u64,
    /// Records that could not be ingested (malformed, or the owner stayed
    /// unreachable through every retry).
    pub failed: u64,
    /// Ingest attempts that needed a retry.
    pub retries: u64,
}

/// Attempts to ingest one record on `target`, retrying transient
/// failures. The chaos site (`router.replay` for dead-shard replay,
/// `router.migrate` for catch-up and migration drains) fires per attempt.
/// Returns `Some(replay_kind)` on a `200`.
fn ingest_one(
    shared: &Arc<Shared>,
    target: &Arc<Shard>,
    id: u64,
    bytes: &[u8],
    report: &mut ReplayReport,
    site: &'static str,
) -> Option<String> {
    let telemetry = nptsn_obs::telemetry();
    for attempt in 0..5u32 {
        if attempt > 0 {
            report.retries += 1;
            telemetry.router_replay_retries.inc();
        }
        // Chaos: a faulted attempt is a transient ingest failure — the
        // loop retries, exactly as it would for a flaky survivor.
        if nptsn_chaos::point(site).is_err() {
            continue;
        }
        let mut client = shared.forward_client(target.addr(), key_hash(id) ^ 0x5265_706c_6179);
        // Re-stamp the job's deterministic trace context: the successor's
        // ingest (and any re-run) joins the timeline the job started.
        let headers = [(nptsn_obs::TRACE_HEADER, trace_for_job(id).header_value())];
        let Ok(response) =
            client.send("POST", &format!("/internal/replay/{id}"), &headers, bytes)
        else {
            continue;
        };
        match response.status {
            200 => {
                let doc = nptsn_obs::json::parse(&response.text()).ok();
                let kind = doc.as_ref().and_then(|doc| doc.get("replay")?.as_str());
                return Some(kind.unwrap_or("unknown").to_string());
            }
            // A 400 is a verdict, not a transient: the record itself does
            // not decode. Nothing a retry could change.
            400 => return None,
            _ => continue,
        }
    }
    None
}

/// Replays the dead shard's segment log onto the survivors, placing each
/// job on its current ring owner. Called with the ring already rebuilt
/// over the survivors.
pub(crate) fn replay_dead_shard(shared: &Arc<Shared>, dead: &Arc<Shard>) -> ReplayReport {
    let _span = nptsn_obs::span("router.replay");
    let telemetry = nptsn_obs::telemetry();
    let mut report = ReplayReport::default();
    let Some(dir) = dead.data_dir() else {
        return report;
    };
    let records = match LogStore::export_live(&dir) {
        Ok(records) => records,
        Err(e) => {
            if nptsn_obs::enabled() {
                nptsn_obs::event(
                    nptsn_obs::Level::Error,
                    "router.replay",
                    &format!("export of {} failed: {e:?}", dir.display()),
                );
            }
            return report;
        }
    };
    for (key, bytes) in records {
        // Trace timelines replay alongside their jobs — best effort, so a
        // dead shard's spans survive in the merged fleet trace. Everything
        // else that is not a job record (the watermark, the checkpoint
        // registry, passive-replica markers) is shard-local bookkeeping
        // and stays behind.
        if let Some(id) = trace_id_from_key(&key) {
            if let Some(owner) =
                shared.current_ring().place(id).and_then(|name| shared.routable_shard(name))
            {
                replay_trace(shared, &owner, id, &bytes, &mut report);
            }
            continue;
        }
        let Some(id) = job_id_from_key(&key) else { continue };
        let ring = shared.current_ring();
        let Some(owner) = ring.place(id).and_then(|name| shared.routable_shard(name)) else {
            report.failed += 1;
            continue;
        };
        let trace = trace_for_job(id);
        let _trace = nptsn_obs::with_trace(Some(trace));
        let _span = nptsn_obs::span("router.replay.job");
        let started = Instant::now();
        match ingest_one(shared, &owner, id, &bytes, &mut report, "router.replay") {
            Some(kind) if kind == "already_known" => report.already_known += 1,
            Some(_) => {
                report.replayed += 1;
                telemetry.router_replayed_jobs.inc();
            }
            None => report.failed += 1,
        }
        shared.metrics.replay_seconds.observe(started.elapsed().as_secs_f64());
        shared.next_id.fetch_max(id, Ordering::SeqCst);
    }
    report
}

/// Transfers onto `target` every record in `records` that `ring` places
/// on it — the work unit of rejoin catch-up and scale-out migration
/// drains. Records placed elsewhere are skipped without a network round
/// trip; records the target already holds count as no-ops. Returns the
/// number of job records actually moved (what
/// `nptsn_router_migrated_jobs_total` counts).
pub(crate) fn transfer_owned(
    shared: &Arc<Shared>,
    target: &Arc<Shard>,
    ring: &Ring,
    records: &[(String, Vec<u8>)],
) -> u64 {
    let telemetry = nptsn_obs::telemetry();
    let mut report = ReplayReport::default();
    let mut moved = 0u64;
    for (key, bytes) in records {
        if let Some(id) = trace_id_from_key(key) {
            if ring.place(id) == Some(target.name.as_str()) {
                replay_trace(shared, target, id, bytes, &mut report);
            }
            continue;
        }
        let Some(id) = job_id_from_key(key) else { continue };
        if ring.place(id) != Some(target.name.as_str()) {
            continue;
        }
        let trace = trace_for_job(id);
        let _trace = nptsn_obs::with_trace(Some(trace));
        let _span = nptsn_obs::span("router.migrate.job");
        let started = Instant::now();
        match ingest_one(shared, target, id, bytes, &mut report, "router.migrate") {
            Some(kind) if kind == "already_known" => {}
            Some(_) => {
                moved += 1;
                telemetry.router_migrated_jobs.inc();
            }
            None => {}
        }
        shared.metrics.replay_seconds.observe(started.elapsed().as_secs_f64());
        shared.next_id.fetch_max(id, Ordering::SeqCst);
    }
    moved
}

/// Replays one persisted trace timeline onto `target`. Failures are not
/// counted against the job transfer — a lost timeline degrades the merged
/// trace, never the durability contract.
fn replay_trace(
    shared: &Arc<Shared>,
    target: &Arc<Shard>,
    id: u64,
    bytes: &[u8],
    report: &mut ReplayReport,
) {
    let trace = trace_for_job(id);
    let _trace = nptsn_obs::with_trace(Some(trace));
    let _span = nptsn_obs::span("router.replay.trace");
    let started = Instant::now();
    for attempt in 0..5u32 {
        if attempt > 0 {
            report.retries += 1;
            nptsn_obs::telemetry().router_replay_retries.inc();
        }
        if nptsn_chaos::point("router.replay").is_err() {
            continue;
        }
        let mut client = shared.forward_client(target.addr(), key_hash(id) ^ 0x0054_7261_6365);
        let headers = [(nptsn_obs::TRACE_HEADER, trace.header_value())];
        match client.send("POST", &format!("/internal/trace/{id}"), &headers, bytes) {
            Ok(response) if response.status == 200 => break,
            // A 400 is a verdict: the record does not decode.
            Ok(response) if response.status == 400 => break,
            _ => continue,
        }
    }
    shared.metrics.replay_seconds.observe(started.elapsed().as_secs_f64());
}
