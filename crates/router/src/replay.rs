//! Record transfer between shards. Dead-shard replay, rejoin catch-up and
//! scale-out migration are one operation, `ship`: a shard's segment log
//! exported from a cursor, each job record (and its trace timeline)
//! placed against the current ring and sent through one ingest loop. A
//! replay starts from the empty cursor — a dead log does not grow — and
//! sends every record to its owner; a drain chases each donor's cursor
//! and sends a record only when its owner is the drain's target. The
//! `Mode` names what a transfer reports under.
//!
//! The shard-side contract makes this safe to run at any time, any number
//! of times:
//!
//! * [`nptsn_store::LogStore::export_live_since`] is a read-only fold over
//!   a shard's segment log — the directory is never mutated, so a
//!   half-dead process (or a later forensic read) sees exactly the bytes
//!   it wrote;
//! * each job record goes through `POST /internal/replay/<id>` on the
//!   target, which feeds the **same gate** as crash recovery — a corrupt
//!   or malformed record is recorded as failed, never executed;
//! * ingest is idempotent by job id: a terminal record is stored verbatim
//!   (byte-identical result bytes), a non-terminal record is re-validated
//!   and re-enqueued, and an id the target already knows is a no-op — so
//!   retrying a whole transfer after a mid-transfer crash cannot duplicate
//!   work or flip a result.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use nptsn_obs::json::Value;
use nptsn_obs::metrics::Counter;
use nptsn_serve::persist::{job_id_from_key, trace_id_from_key};
use nptsn_store::{ExportCursor, LogStore, StoreError};

use crate::ring::key_hash;
use crate::server::{trace_for_job, Shard, Shared};

/// What one transfer accomplished.
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

/// Which transfer a record moves in. Only the names differ: the chaos
/// site every ingest attempt fires, the per-job span and the job counter.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Mode {
    /// Dead-shard replay.
    Replay,
    /// Rejoin catch-up or scale-out migration.
    Migrate,
}

impl Mode {
    fn site(self) -> &'static str {
        match self {
            Mode::Replay => "router.replay",
            Mode::Migrate => "router.migrate",
        }
    }

    fn job_span(self) -> &'static str {
        match self {
            Mode::Replay => "router.replay.job",
            Mode::Migrate => "router.migrate.job",
        }
    }

    /// `nptsn_router_replayed_jobs_total` / `nptsn_router_migrated_jobs_total`.
    fn jobs(self) -> &'static Counter {
        let telemetry = nptsn_obs::telemetry();
        match self {
            Mode::Replay => &telemetry.router_replayed_jobs,
            Mode::Migrate => &telemetry.router_migrated_jobs,
        }
    }
}

/// Ships the live records of the log in `dir` that were appended after
/// `cursor`, placing each one against the current ring as it goes. With
/// `only_to`, a record is sent only when its owner is the shard of that
/// name, and records placed elsewhere are skipped without a round trip;
/// without it, every record goes to its owner. A job record with no
/// routable owner counts in [`ReplayReport::failed`]. Trace timelines
/// travel with their jobs, best effort; everything else in the log (the
/// watermark, the checkpoint registry, passive-replica markers) is
/// shard-local bookkeeping and stays behind. Returns the cursor to resume
/// from.
pub(crate) fn ship(
    shared: &Arc<Shared>,
    dir: &Path,
    cursor: Option<ExportCursor>,
    only_to: Option<&str>,
    mode: Mode,
    report: &mut ReplayReport,
) -> Result<ExportCursor, StoreError> {
    let (records, next) = LogStore::export_live_since(dir, cursor)?;
    for (key, bytes) in records {
        let (id, route) = match (job_id_from_key(&key), trace_id_from_key(&key)) {
            (Some(id), _) => (id, "replay"),
            (None, Some(id)) => (id, "trace"),
            (None, None) => continue,
        };
        // Re-read per record: a shard that stops owning the id mid-transfer
        // never receives it.
        let owner = shared.current_ring().place(id).and_then(|name| shared.routable_shard(name));
        let Some(owner) = owner else {
            if route == "replay" {
                report.failed += 1;
            }
            continue;
        };
        if only_to.is_some_and(|target| target != owner.name) {
            continue;
        }
        let _trace = nptsn_obs::with_trace(Some(trace_for_job(id)));
        let _span =
            nptsn_obs::span(if route == "trace" { "router.replay.trace" } else { mode.job_span() });
        let started = Instant::now();
        let response = ingest(shared, &owner, route, id, &bytes, mode, report);
        // A lost timeline degrades the merged trace, never the durability
        // contract: only job records are counted.
        if route == "replay" {
            match response {
                Some(text) if already_known(&text) => report.already_known += 1,
                Some(_) => {
                    report.replayed += 1;
                    mode.jobs().inc();
                }
                None => report.failed += 1,
            }
            shared.next_id.fetch_max(id, Ordering::SeqCst);
        }
        shared.metrics.replay_seconds.observe(started.elapsed().as_secs_f64());
    }
    Ok(next)
}

/// Posts one record to `/internal/<route>/<id>` on `target`, retrying
/// transient failures: 5 attempts, the mode's chaos site firing on each.
/// Returns the response body of a `200`; `None` when every attempt
/// failed or the target answered `400` — a verdict on the record's
/// bytes that no retry could change.
fn ingest(
    shared: &Arc<Shared>,
    target: &Shard,
    route: &str,
    id: u64,
    bytes: &[u8],
    mode: Mode,
    report: &mut ReplayReport,
) -> Option<String> {
    // Re-stamp the job's deterministic trace context: the successor's
    // ingest (and any re-run) joins the timeline the job started.
    let headers = [(nptsn_obs::TRACE_HEADER, trace_for_job(id).header_value())];
    let path = format!("/internal/{route}/{id}");
    // Jitter seeds ("Replay" / "\0Trace") keep each route's backoff
    // schedule a pure function of the id.
    let salt = if route == "trace" { 0x0054_7261_6365 } else { 0x5265_706c_6179 };
    for attempt in 0..5u32 {
        if attempt > 0 {
            report.retries += 1;
            nptsn_obs::telemetry().router_replay_retries.inc();
        }
        // Chaos: a faulted attempt is a transient ingest failure — the
        // loop retries, exactly as it would for a flaky target.
        if nptsn_chaos::point(mode.site()).is_err() {
            continue;
        }
        let mut client = shared.forward_client(target.addr(), key_hash(id) ^ salt);
        match client.send("POST", &path, &headers, bytes) {
            Ok(response) if response.status == 200 => return Some(response.text()),
            Ok(response) if response.status == 400 => return None,
            _ => continue,
        }
    }
    None
}

/// Whether an `/internal/replay` answer says the target already held the
/// record (its `replay` kind is `already_known`).
fn already_known(text: &str) -> bool {
    let doc = nptsn_obs::json::parse(text).ok();
    doc.is_some_and(|doc| doc.get("replay").and_then(Value::as_str) == Some("already_known"))
}

/// Replays the dead shard's segment log onto the survivors, placing each
/// job on its current ring owner. Called with the ring already rebuilt
/// over the survivors.
pub(crate) fn replay_dead_shard(shared: &Arc<Shared>, dead: &Shard) -> ReplayReport {
    let _span = nptsn_obs::span("router.replay");
    let mut report = ReplayReport::default();
    let Some(dir) = dead.data_dir() else {
        return report;
    };
    // A dead log does not grow: one pass from the empty cursor reads it all.
    if let Err(e) = ship(shared, &dir, None, None, Mode::Replay, &mut report) {
        if nptsn_obs::enabled() {
            nptsn_obs::event(
                nptsn_obs::Level::Error,
                "router.replay",
                &format!("export of {} failed: {e:?}", dir.display()),
            );
        }
    }
    report
}
