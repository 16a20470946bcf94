//! The bounded job queue and worker-pool executor behind the service.
//!
//! Lifecycle: `submitted → running → done | failed | cancelled`. The queue
//! depth is fixed at construction; a submission against a full queue is
//! rejected immediately (the HTTP layer maps that to `503` +
//! `Retry-After`) so heavy traffic degrades with backpressure instead of
//! unbounded memory growth. Shutdown is a *drain*: the queue stops
//! accepting work, the workers finish every job already accepted — running
//! and queued — and no result is dropped.
//!
//! Request payloads are parsed and validated at submission time (problem
//! text, plan text, checkpoint structure), so every malformed upload is a
//! synchronous `4xx` and a worker never picks up a job that cannot start.
//!
//! # Durability
//!
//! Every lifecycle transition is written through a [`Storage`] before it
//! is acknowledged: a submission is not `202` until its record (and the
//! id watermark) is durable, and a result is recorded on disk before the
//! worker moves on. [`JobQueue::open`] replays those records after a
//! restart — terminal jobs come back with byte-identical results,
//! submitted and running-at-crash jobs are re-validated from their raw
//! request text and re-enqueued (idempotently: re-running an interrupted
//! job is always safe because nothing was acknowledged for it), and
//! records that no longer validate are recorded `failed` instead of being
//! silently dropped. A record replayed from another shard's log
//! ([`JobQueue::ingest_record`]) or promoted from a passive replica
//! ([`JobQueue::promote`]) takes the same decision: one gate turns a
//! decoded record into a job, whichever way the record arrived.
//!
//! Terminal jobs are bounded by a [`RetentionConfig`]: beyond the count
//! cap (and optionally a TTL) the oldest are evicted from memory *and*
//! the store, so sustained traffic cannot leak either.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use nptsn::{
    plan_with_policy_batch, EpochStats, FailureAnalyzer, GreedyPlanner, InferLane, Planner,
    PlannerConfig, ScenarioCache, Solution,
};
use nptsn_format::json::{analysis_report_json, epoch_stats_json, Object};
use nptsn_format::{write_plan, ParsedProblem};
use nptsn_store::{MemStore, Storage, StoreError};
use nptsn_topo::Topology;

use crate::metrics::{Counter, Histogram};
use crate::persist::{
    decode_next_id, decode_record, decode_trace, encode_next_id, encode_record, encode_trace,
    job_id_from_key, job_key, replica_id_from_key, replica_key, trace_key, JobRecord, JobSpec,
    TraceRecord, TraceSpan, JOB_PREFIX, NEXT_ID_KEY, REPLICA_PREFIX,
};
use crate::registry::CheckpointRegistry;
use crate::server::ServeMetrics;

/// Most infer jobs one worker coalesces into one lockstep batch.
const INFER_BATCH_MAX: usize = 8;

/// How long an infer leader that found no batchmate waits, once, for a
/// straggler before it runs alone.
const INFER_BATCH_WINDOW: Duration = Duration::from_micros(200);

/// Telemetry for the infer micro-batching path, registered once on the
/// process-wide registry so `/metrics` (which merges it) exposes the
/// series whether infer runs through a batch or solo.
struct InferMetrics {
    /// Jobs coalesced per infer execution (solo executions observe 1).
    batch_size: Arc<Histogram>,
    /// Executions that fused two or more jobs into one batched forward.
    batched_forwards: Arc<Counter>,
    /// Infer jobs executed alone (deadline mode, `run_one`, no mates).
    solo_forwards: Arc<Counter>,
    /// Total infer jobs served through a batched forward.
    batch_jobs: Arc<Counter>,
}

fn infer_metrics() -> &'static InferMetrics {
    static METRICS: OnceLock<InferMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = &nptsn_obs::telemetry().registry;
        InferMetrics {
            batch_size: registry.histogram(
                "nptsn_infer_batch_size",
                "Infer jobs coalesced into one policy execution",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
            ),
            batched_forwards: registry.counter(
                "nptsn_infer_batched_forwards_total",
                "Infer executions that fused multiple jobs into one batched forward",
            ),
            solo_forwards: registry.counter(
                "nptsn_infer_solo_forwards_total",
                "Infer jobs executed without batch-mates",
            ),
            batch_jobs: registry.counter(
                "nptsn_infer_batch_jobs_total",
                "Infer jobs served through a batched forward",
            ),
        }
    })
}

/// Identifies one submitted job.
pub type JobId = u64;

/// A validated plan request: train (or greedily construct) a topology for
/// the parsed problem.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// The parsed problem (validated at submission).
    pub parsed: ParsedProblem,
    /// Training epochs (ignored for greedy).
    pub epochs: usize,
    /// Environment steps per epoch (ignored for greedy).
    pub steps: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Use the greedy ablation planner instead of RL.
    pub greedy: bool,
}

/// A validated verify request: run the failure analyzer on a submitted
/// plan.
#[derive(Debug, Clone)]
pub struct VerifyRequest {
    /// The parsed problem.
    pub parsed: ParsedProblem,
    /// The topology parsed from the uploaded plan file.
    pub topology: Topology,
}

/// Where an infer job's `NPTSNCK2` policy bytes come from.
#[derive(Debug, Clone)]
pub enum CheckpointSource {
    /// Uploaded inline with the submission (structurally validated there).
    Inline(Vec<u8>),
    /// A checkpoint registry name, resolved when the job runs — so an
    /// infer job always uses the *current* registered version.
    Named(String),
}

/// A validated inference request: restore an `NPTSNCK2` policy checkpoint
/// and plan without learning.
#[derive(Debug, Clone)]
pub struct InferRequest {
    /// The parsed problem.
    pub parsed: ParsedProblem,
    /// The checkpoint to restore.
    pub checkpoint: CheckpointSource,
    /// Deployment episodes to attempt.
    pub attempts: usize,
    /// Base RNG seed.
    pub seed: u64,
}

/// What a worker executes.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// Train/construct a plan.
    Plan(PlanRequest),
    /// Verify a plan's reliability guarantee.
    Verify(VerifyRequest),
    /// Checkpoint-backed policy inference.
    Infer(InferRequest),
    /// A diagnostic job that busy-waits for the given duration — the
    /// load-generation stand-in used by the backpressure tests and the
    /// serving benchmark.
    Burn {
        /// How long the job occupies a worker, in milliseconds.
        millis: u64,
    },
}

impl JobKind {
    /// A short lowercase label for status output and metrics.
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Plan(_) => "plan",
            JobKind::Verify(_) => "verify",
            JobKind::Infer(_) => "infer",
            JobKind::Burn { .. } => "burn",
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting in the queue.
    Submitted,
    /// Picked up by a worker.
    Running,
    /// Finished with a result.
    Done,
    /// Finished with an error.
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
}

impl JobState {
    /// The lowercase label used in status JSON.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Submitted => "submitted",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }
}

/// The output of a finished job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// A plan (from `plan` or `infer`): the plan file, its cost, and — for
    /// RL runs — the trained policy checkpoint.
    Plan {
        /// The plan file text.
        planfile: String,
        /// Network cost of the solution.
        cost: f64,
        /// Human-readable solution summary.
        summary: String,
        /// `NPTSNCK2` bytes of the trained policy (RL plan jobs only).
        checkpoint: Option<Vec<u8>>,
    },
    /// A verification report, pre-serialized with the shared JSON
    /// serializer (identical to `nptsn verify --json`).
    Verify {
        /// The `analysis_report_json` text.
        json: String,
        /// Whether the verdict was `Reliable`.
        reliable: bool,
    },
    /// A completed burn job.
    Burn,
}

/// Live progress of a running job (epoch stats stream for plan jobs).
#[derive(Debug, Default)]
pub struct Progress {
    epochs: Mutex<Vec<EpochStats>>,
}

impl Progress {
    fn push(&self, stats: EpochStats) {
        self.epochs.lock().unwrap_or_else(|e| e.into_inner()).push(stats);
    }

    /// Number of epochs completed so far and the latest stats, if any.
    pub fn snapshot(&self) -> (usize, Option<EpochStats>) {
        let epochs = self.epochs.lock().unwrap_or_else(|e| e.into_inner());
        (epochs.len(), epochs.last().cloned())
    }
}

/// One tracked job.
#[derive(Debug)]
struct JobEntry {
    kind_name: &'static str,
    /// Present while the job waits in the queue; taken by the worker.
    pending: Option<JobKind>,
    /// The replayable submission, persisted with every transition.
    spec: Option<JobSpec>,
    state: JobState,
    cancel: Arc<AtomicBool>,
    progress: Arc<Progress>,
    outcome: Option<JobOutcome>,
    error: Option<String>,
    /// When the job reached a terminal state (drives TTL retention).
    finished_at: Option<Instant>,
    /// The trace context active when the job was accepted (router-minted
    /// for forwarded submissions). Re-installed on the worker thread so
    /// `job.run` and everything beneath it shares the request's trace id.
    /// In-memory only: a router recomputes a job's trace id from its id,
    /// so the job record codec does not carry it.
    trace: Option<nptsn_obs::TraceContext>,
}

impl JobEntry {
    /// A job waiting in the queue for a worker.
    fn queued(
        kind: JobKind,
        spec: Option<JobSpec>,
        trace: Option<nptsn_obs::TraceContext>,
    ) -> JobEntry {
        JobEntry {
            kind_name: kind.name(),
            pending: Some(kind),
            spec,
            state: JobState::Submitted,
            cancel: Arc::new(AtomicBool::new(false)),
            progress: Arc::new(Progress::default()),
            outcome: None,
            error: None,
            finished_at: None,
            trace,
        }
    }

    /// A job installed already terminal: a persisted result, or a record
    /// that could not be recovered (`failed`, with the reason).
    fn finished(
        spec: Option<JobSpec>,
        state: JobState,
        outcome: Option<JobOutcome>,
        error: Option<String>,
    ) -> JobEntry {
        JobEntry {
            kind_name: spec.as_ref().map_or("unknown", JobSpec::kind_name),
            pending: None,
            spec,
            state,
            cancel: Arc::new(AtomicBool::new(false)),
            progress: Arc::new(Progress::default()),
            outcome,
            error,
            // TTL restarts at install: `Instant` does not survive the
            // process, and a fresh window errs toward keeping results
            // readable.
            finished_at: Some(Instant::now()),
            trace: None,
        }
    }

    fn persisted_record(&self) -> Vec<u8> {
        encode_record(self.state, self.spec.as_ref(), self.outcome.as_ref(), self.error.as_deref())
    }
}

/// A point-in-time view of one job, safe to serialize outside the lock.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// The job id.
    pub id: JobId,
    /// The kind label (`plan`, `verify`, `infer`, `burn`).
    pub kind: &'static str,
    /// Lifecycle state.
    pub state: JobState,
    /// Epochs completed so far (plan jobs).
    pub epochs_completed: usize,
    /// The most recent epoch diagnostics (plan jobs).
    pub latest_epoch: Option<EpochStats>,
    /// The outcome, once terminal.
    pub outcome: Option<JobOutcome>,
    /// The failure message, if the job failed.
    pub error: Option<String>,
}

impl JobSnapshot {
    /// The status JSON served by `GET /jobs/<id>`.
    pub fn to_json(&self) -> String {
        let mut obj = Object::new();
        obj.int("id", self.id);
        obj.str("kind", self.kind);
        obj.str("state", self.state.label());
        obj.int("epochs_completed", self.epochs_completed as u64);
        match &self.latest_epoch {
            Some(stats) => obj.raw("latest_epoch", &epoch_stats_json(stats)),
            None => obj.null("latest_epoch"),
        }
        match &self.outcome {
            Some(JobOutcome::Plan { cost, summary, checkpoint, .. }) => {
                obj.num("cost", *cost);
                obj.str("summary", summary);
                obj.bool("checkpoint_available", checkpoint.is_some());
            }
            Some(JobOutcome::Verify { reliable, .. }) => {
                obj.bool("reliable", *reliable);
            }
            Some(JobOutcome::Burn) | None => {}
        }
        match &self.error {
            Some(e) => obj.str("error", e),
            None => obj.null("error"),
        }
        obj.finish()
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — retry later (HTTP 503 + `Retry-After`).
    Full,
    /// The service is draining for shutdown.
    ShuttingDown,
    /// The durable store refused the submission record — nothing was
    /// accepted (no ack without durability). Retryable.
    Storage,
    /// An explicit-id submission named an id this queue already tracks
    /// (HTTP 409): the caller must pick a fresh id.
    Duplicate,
}

/// What [`JobQueue::ingest_record`] did with a replayed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The id already exists here — replay is an idempotent no-op and the
    /// existing entry (with its byte-identical persisted result, if
    /// terminal) stays authoritative.
    AlreadyKnown,
    /// A terminal record was installed verbatim, result bytes and all.
    Terminal,
    /// A non-terminal record re-validated through [`JobSpec::validate`]
    /// and was enqueued for execution.
    Requeued,
    /// The record decoded but its spec no longer validates (or carried
    /// none) — recorded `failed`, never silently dropped.
    RecordedFailed,
    /// The record was stored as a **passive replica**
    /// ([`JobQueue::ingest_passive`]): durable here, owned and executed
    /// elsewhere, held until a promotion activates it.
    Passive,
}

/// Why [`JobQueue::ingest_record`] refused a replayed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The record bytes do not decode (HTTP 400) — nothing was stored.
    Malformed(String),
    /// The queue is draining for shutdown (HTTP 503).
    ShuttingDown,
    /// The durable store refused the record — nothing was ingested.
    /// Retryable (HTTP 503).
    Storage,
}

/// The result of a cancellation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued and is now cancelled.
    Cancelled,
    /// The job is running; the cancel flag is set and the job will wind
    /// down at its next cancellation point (epoch boundary).
    Signalled,
    /// The job had already finished.
    AlreadyFinished,
    /// No such job.
    NotFound,
}

/// Bounds on how long terminal jobs (and their persisted records) are
/// retained. `max_terminal == 0` and `ttl == None` disable each bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct RetentionConfig {
    /// Keep at most this many terminal jobs; the oldest (lowest id) are
    /// evicted first. `0` = unbounded.
    pub max_terminal: usize,
    /// Evict terminal jobs this long after they finish (checked on every
    /// submission and completion, not by a timer).
    pub ttl: Option<std::time::Duration>,
}

/// What [`JobQueue::open`] found in the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Terminal jobs loaded with their persisted results.
    pub terminal_loaded: u64,
    /// Submitted/running-at-crash jobs re-validated and re-enqueued.
    pub requeued: u64,
    /// Records that could not be decoded or re-validated — recorded as
    /// `failed`, never silently dropped.
    pub failed_to_recover: u64,
    /// Passive-replica records held for their primaries instead of being
    /// re-enqueued (the `replica/<id>` marker says the job is owned
    /// elsewhere).
    pub passive_held: u64,
}

#[derive(Debug, Default)]
struct QueueState {
    next_id: JobId,
    queue: VecDeque<JobId>,
    jobs: HashMap<JobId, JobEntry>,
    /// Passive-replica holdings: job id → primary shard name. Durable as
    /// `replica/<id>` markers; never visible through `GET /jobs/<id>` and
    /// never executed until [`JobQueue::promote`] activates them.
    passive: HashMap<JobId, String>,
    open: bool,
}

/// The bounded job queue shared by the HTTP handlers and the worker pool.
#[derive(Debug)]
pub struct JobQueue {
    depth: usize,
    state: Mutex<QueueState>,
    work_ready: Condvar,
    store: Arc<dyn Storage>,
    registry: CheckpointRegistry,
    retention: RetentionConfig,
    evicted: AtomicU64,
    /// The shard name stamped into persisted trace timelines (first set
    /// wins; empty until the server configures it).
    shard_label: OnceLock<String>,
}

impl JobQueue {
    /// A queue admitting at most `depth` waiting jobs (running jobs do not
    /// count against the depth), backed by an ephemeral in-memory store.
    pub fn new(depth: usize) -> JobQueue {
        let (queue, _report) =
            JobQueue::open(depth, Arc::new(MemStore::new()), RetentionConfig::default())
                .expect("an empty in-memory store always opens");
        queue
    }

    /// A queue backed by `store`, recovering every persisted job: terminal
    /// jobs come back with their results, interrupted jobs are
    /// re-validated and re-enqueued in id order, unrecoverable records are
    /// marked `failed`. See the module docs for the durability contract.
    pub fn open(
        depth: usize,
        store: Arc<dyn Storage>,
        retention: RetentionConfig,
    ) -> Result<(JobQueue, RecoveryReport), StoreError> {
        let registry = CheckpointRegistry::new(Arc::clone(&store));
        let queue = JobQueue {
            depth: depth.max(1),
            state: Mutex::new(QueueState { open: true, ..QueueState::default() }),
            work_ready: Condvar::new(),
            store,
            registry,
            retention,
            evicted: AtomicU64::new(0),
            shard_label: OnceLock::new(),
        };
        let mut report = RecoveryReport::default();
        {
            let mut state = queue.lock();
            // Passive-replica markers: a job record named here was written
            // through by a router as a replication-factor-2 copy — another
            // shard owns and executes it, so recovery must hold it passive
            // rather than re-enqueue it (which would double-run the job).
            let mut passive_markers: HashMap<JobId, String> = HashMap::new();
            for key in queue.store.keys_with_prefix(REPLICA_PREFIX)? {
                let Some(id) = replica_id_from_key(&key) else { continue };
                let Some(bytes) = queue.store.get(&key)? else { continue };
                passive_markers.insert(id, String::from_utf8_lossy(&bytes).into_owned());
            }
            // Sorted prefix scan = submission order: requeued jobs rerun
            // in the order they were originally accepted.
            for key in queue.store.keys_with_prefix(JOB_PREFIX)? {
                let Some(id) = job_id_from_key(&key) else { continue };
                let Some(bytes) = queue.store.get(&key)? else { continue };
                let entry = match decode_record(&bytes) {
                    Err(e) => {
                        report.failed_to_recover += 1;
                        let message = format!("unrecoverable job record: {e}");
                        JobEntry::finished(None, JobState::Failed, None, Some(message))
                    }
                    Ok(record) => {
                        if let Some(primary) = passive_markers.remove(&id) {
                            // A marked non-terminal record is a passive
                            // replica: hold it (durably unchanged) for its
                            // primary. The id still advances the watermark
                            // — it was assigned fleet-wide.
                            if !record.state.is_terminal() {
                                state.passive.insert(id, primary);
                                state.next_id = state.next_id.max(id);
                                report.passive_held += 1;
                                continue;
                            }
                            // A terminal record trumps a stale replica
                            // marker (promotion ran the job here, or the
                            // marker's delete never landed): keep the
                            // result, drop the marker.
                            let _ = queue.store.delete(&replica_key(id));
                        }
                        let (entry, rebuilt) = rebuild(record, Via::Restart);
                        match rebuilt {
                            IngestOutcome::Terminal => report.terminal_loaded += 1,
                            IngestOutcome::Requeued => {
                                report.requeued += 1;
                                state.queue.push_back(id);
                            }
                            _ => report.failed_to_recover += 1,
                        }
                        entry
                    }
                };
                // Re-persist the post-recovery state (running → submitted,
                // unrecoverable → failed) so a second crash replays to the
                // same place — recovery is idempotent.
                let payload = entry.persisted_record();
                queue.persist(id, &payload);
                state.next_id = state.next_id.max(id);
                state.jobs.insert(id, entry);
            }
            if let Some(bytes) = queue.store.get(NEXT_ID_KEY)? {
                if let Some(watermark) = decode_next_id(&bytes) {
                    // The watermark outlives deleted records, so a restart
                    // never reissues the id of a job deleted pre-crash.
                    state.next_id = state.next_id.max(watermark);
                }
            }
        }
        if report.failed_to_recover > 0 {
            nptsn_obs::telemetry()
                .registry
                .counter(
                    "nptsn_jobs_unrecoverable_total",
                    "Persisted jobs that could not be re-validated after restart",
                )
                .add(report.failed_to_recover);
        }
        Ok((queue, report))
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The configured queue depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of jobs currently waiting.
    pub fn queued(&self) -> usize {
        self.lock().queue.len()
    }

    /// The checkpoint registry sharing this queue's store.
    pub fn registry(&self) -> &CheckpointRegistry {
        &self.registry
    }

    /// The backing store (for stats endpoints and tests).
    pub fn store(&self) -> &Arc<dyn Storage> {
        &self.store
    }

    /// Terminal jobs evicted by retention since this queue was opened.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Names this queue's shard in persisted trace timelines (first call
    /// wins; later calls are ignored).
    pub fn set_shard_label(&self, name: &str) {
        let _ = self.shard_label.set(name.to_string());
    }

    /// The shard name stamped into trace records (empty until set).
    pub fn shard_label(&self) -> &str {
        self.shard_label.get().map_or("", String::as_str)
    }

    /// Persists the spans the flight recorder captured under a finished
    /// job's trace id — the durable per-job timeline behind
    /// `GET /jobs/<id>/trace`. Strictly best-effort: a chaos fault or
    /// store error here degrades the timeline, never the job (which was
    /// already recorded terminal), and failures are counted. The write
    /// is relaxed (no fsync) — a timeline must never cost a synced
    /// append on the job hot path.
    fn persist_trace(&self, id: JobId, trace: Option<nptsn_obs::TraceContext>) {
        let Some(trace) = trace else { return };
        let spans: Vec<TraceSpan> = nptsn_obs::flight_spans_for_trace(trace.trace_id)
            .into_iter()
            .map(|e| TraceSpan {
                name: e.name.to_string(),
                tid: e.tid,
                start_ns: e.ts_ns,
                dur_ns: e.dur_ns,
                // Flight entries carry no child-time accounting; self
                // time approximates to the full duration.
                self_ns: e.dur_ns,
            })
            .collect();
        if spans.is_empty() {
            return; // flight recorder disarmed, or nothing captured
        }
        let record = TraceRecord {
            trace_id: trace.trace_id,
            shard: self.shard_label().to_string(),
            spans,
        };
        let flushed = nptsn_chaos::point("obs.flush")
            .map_err(|e| e.to_string())
            .and_then(|()| {
                self.store
                    .put_relaxed(&trace_key(id), &encode_trace(&record))
                    .map_err(|e| e.to_string())
            });
        if flushed.is_err() {
            nptsn_obs::telemetry()
                .registry
                .counter(
                    "nptsn_obs_trace_flush_failures_total",
                    "Job trace timelines that failed to persist (degraded, job unaffected)",
                )
                .inc();
        }
    }

    /// The persisted trace timeline for a job, if one was captured.
    pub fn trace_record(&self, id: JobId) -> Option<TraceRecord> {
        let bytes = self.store.get(&trace_key(id)).ok()??;
        decode_trace(&bytes).ok()
    }

    /// Ingests a trace timeline replayed from a dead shard's durable log,
    /// stored verbatim (after a decode check) so the merged fleet trace
    /// survives the shard that recorded it. Idempotent by key overwrite.
    pub fn ingest_trace(&self, id: JobId, bytes: &[u8]) -> Result<(), IngestError> {
        decode_trace(bytes).map_err(IngestError::Malformed)?;
        self.store.put_relaxed(&trace_key(id), bytes).map_err(|_| IngestError::Storage)
    }

    /// Claims up to `INFER_BATCH_MAX - 1` queued infer jobs compatible with
    /// `leader` — same checkpoint source and same policy-network
    /// dimensions, so one restored policy serves the whole batch — marking
    /// each running (persisted) exactly like [`JobQueue::next_job`] would.
    fn claim_infer_batchmates(
        &self,
        leader: &InferRequest,
    ) -> Vec<(JobId, InferRequest, Arc<AtomicBool>)> {
        // The dims `Planner::network_dims` gives a job's planner, without
        // building one under the lock.
        let k_paths = service_config(1, 1, leader.seed).k_paths;
        let leader_dims = leader.parsed.problem.network_dims(k_paths);
        let mut state = self.lock();
        let mut claimed = Vec::new();
        let ids: Vec<JobId> = state.queue.iter().copied().collect();
        for id in ids {
            if claimed.len() + 1 >= INFER_BATCH_MAX {
                break;
            }
            let taken = {
                let Some(entry) = state.jobs.get_mut(&id) else { continue };
                let compatible = matches!(
                    &entry.pending,
                    Some(JobKind::Infer(req))
                        if same_checkpoint(&req.checkpoint, &leader.checkpoint)
                            && req.parsed.problem.network_dims(k_paths) == leader_dims
                );
                if !compatible {
                    None
                } else {
                    let Some(JobKind::Infer(req)) = entry.pending.take() else {
                        unreachable!("compatibility check matched an infer kind")
                    };
                    entry.state = JobState::Running;
                    Some((entry.persisted_record(), Arc::clone(&entry.cancel), req))
                }
            };
            if let Some((payload, cancel, req)) = taken {
                state.queue.retain(|&q| q != id);
                self.persist(id, &payload);
                claimed.push((id, req, cancel));
            }
        }
        claimed
    }

    /// Runs a claimed batch of compatible infer jobs through [`run_infer`]
    /// in lockstep, splitting per-job results back out. Error isolation
    /// mirrors a lone job: a chaos fault at `serve.job` or a lane failure
    /// marks *that* job `failed` while its batch-mates complete, with the
    /// message a lone job would have had.
    fn run_infer_batch(
        &self,
        jobs: Vec<(JobId, InferRequest, Arc<AtomicBool>)>,
        metrics: &ServeMetrics,
    ) {
        let _span = nptsn_obs::span("job.infer_batch");
        let size = jobs.len();
        let im = infer_metrics();
        im.batch_size.observe(size as f64);
        im.batched_forwards.inc();
        im.batch_jobs.add(size as u64);
        metrics.jobs_running.add(size as i64);
        metrics.jobs_queued.set(self.queued() as i64);

        // Per-job chaos gate, the site `execute` passes for a lone job: an
        // injected error (or panic) fails one job, not the batch.
        let gates: Vec<Result<(), String>> = jobs
            .iter()
            .map(
                |_| match std::panic::catch_unwind(|| nptsn_chaos::point("serve.job")) {
                    Ok(gate) => gate.map_err(|e| e.to_string()),
                    Err(_) => Err("job panicked".to_string()),
                },
            )
            .collect();
        let live: Vec<&InferRequest> = jobs
            .iter()
            .zip(&gates)
            .filter(|(_, gate)| gate.is_ok())
            .map(|((_, req, _), _)| req)
            .collect();
        let mut planned = run_infer(&self.registry, &live, true).into_iter();

        metrics.jobs_running.sub(size as i64);
        for ((id, _req, cancel), gate) in jobs.into_iter().zip(gates) {
            let result = gate.and_then(|()| planned.next().expect("one result per live job"));
            self.finish_job(id, result, false, &cancel, metrics);
        }
    }

    /// Best-effort persistence for transitions after acceptance: the job
    /// already exists durably, so a failed update here loses freshness,
    /// not the job — recovery replays from the previous state, which is
    /// always safe. Failures are counted, never silently swallowed.
    fn persist(&self, id: JobId, payload: &[u8]) {
        if let Err(e) = self.store.put(&job_key(id), payload) {
            nptsn_obs::telemetry()
                .registry
                .counter(
                    "nptsn_store_persist_errors_total",
                    "Job state transitions that failed to persist",
                )
                .inc();
            if nptsn_obs::enabled() {
                nptsn_obs::event(
                    nptsn_obs::Level::Error,
                    "store.persist",
                    &format!("job {id}: transition not persisted: {e}"),
                );
            }
        }
    }

    /// Accepts a job, or rejects it with backpressure. Derives a
    /// replayable spec where the kind alone carries one (burn jobs);
    /// HTTP submissions use [`JobQueue::submit_validated`] so every job
    /// kind recovers.
    pub fn submit(&self, kind: JobKind) -> Result<JobId, SubmitError> {
        let spec = match &kind {
            JobKind::Burn { millis } => Some(JobSpec::Burn { millis: *millis }),
            _ => None,
        };
        self.submit_validated(kind, spec)
    }

    /// Accepts a pre-validated job with its replayable spec. The record
    /// and the id watermark are durable before the id is returned — a
    /// `kill -9` after this call never loses the job.
    pub fn submit_validated(
        &self,
        kind: JobKind,
        spec: Option<JobSpec>,
    ) -> Result<JobId, SubmitError> {
        let mut state = self.lock();
        if !state.open {
            return Err(SubmitError::ShuttingDown);
        }
        if state.queue.len() >= self.depth {
            return Err(SubmitError::Full);
        }
        let id = state.next_id + 1;
        self.admit_at(&mut state, id, kind, spec)?;
        drop(state);
        self.work_ready.notify_one();
        Ok(id)
    }

    /// [`JobQueue::submit_validated`] at a caller-chosen id — the sharded
    /// path, where a router owns id assignment and the shard merely hosts
    /// the job. The watermark advances to `max(current, id)` so locally
    /// assigned ids never collide with router-assigned ones, and an id
    /// this queue already tracks is refused with
    /// [`SubmitError::Duplicate`] (the router retries with a fresh id).
    pub fn submit_validated_with_id(
        &self,
        id: JobId,
        kind: JobKind,
        spec: Option<JobSpec>,
    ) -> Result<JobId, SubmitError> {
        let mut state = self.lock();
        if !state.open {
            return Err(SubmitError::ShuttingDown);
        }
        if state.queue.len() >= self.depth {
            return Err(SubmitError::Full);
        }
        if id == 0 || state.jobs.contains_key(&id) {
            return Err(SubmitError::Duplicate);
        }
        self.admit_at(&mut state, id, kind, spec)?;
        drop(state);
        self.work_ready.notify_one();
        Ok(id)
    }

    /// The core of every acceptance path: persist the watermark, then the
    /// record, then mutate memory. Callers hold the lock and have already
    /// checked open/depth/duplicate.
    fn admit_at(
        &self,
        state: &mut QueueState,
        id: JobId,
        kind: JobKind,
        spec: Option<JobSpec>,
    ) -> Result<(), SubmitError> {
        let watermark = state.next_id.max(id);
        let payload = encode_record(JobState::Submitted, spec.as_ref(), None, None);
        if self.store.put(NEXT_ID_KEY, &encode_next_id(watermark)).is_err()
            || self.store.put(&job_key(id), &payload).is_err()
        {
            // Not accepted: no in-memory entry, no id consumed. Watermark
            // first: a half-failure can only burn an id (watermark without
            // a record), never leave an orphan record that recovery would
            // resurrect as a job nobody was ever promised.
            return Err(SubmitError::Storage);
        }
        state.next_id = watermark;
        // The trace is adopted from the HTTP thread (which installed the
        // X-Nptsn-Trace context before dispatching).
        state.jobs.insert(id, JobEntry::queued(kind, spec, nptsn_obs::current_trace()));
        state.queue.push_back(id);
        self.enforce_retention(state);
        Ok(())
    }

    /// Ingests one raw persisted job record replayed from another shard's
    /// durable log, through exactly the same decode → re-validate gate as
    /// crash recovery ([`JobQueue::open`]): terminal records install
    /// verbatim (byte-identical results), non-terminal records re-validate
    /// their spec and enqueue, and records that no longer validate are
    /// recorded `failed`. Idempotent by id — an id this queue already
    /// tracks is an [`IngestOutcome::AlreadyKnown`] no-op, which is what
    /// makes it safe for a router to retry a replay after any failure.
    ///
    /// Deliberately bypasses the queue-depth bound: the replayed set is
    /// bounded by the dead shard's durable log, and refusing half a replay
    /// would turn a shard death into acked-job loss.
    pub fn ingest_record(&self, id: JobId, bytes: &[u8]) -> Result<IngestOutcome, IngestError> {
        self.ingest_with(id, bytes, true)
    }

    /// The shared ingest core. `durable` selects fsync'd puts (replay —
    /// the ack promises the record stuck) or relaxed ones (promotion —
    /// the identical bytes are already in this store from the passive
    /// write-through, and the dead primary's fsync'd log remains the
    /// authoritative fallback).
    fn ingest_with(
        &self,
        id: JobId,
        bytes: &[u8],
        durable: bool,
    ) -> Result<IngestOutcome, IngestError> {
        let record = decode_record(bytes).map_err(IngestError::Malformed)?;
        let mut state = self.lock();
        if !state.open {
            return Err(IngestError::ShuttingDown);
        }
        if id == 0 || state.jobs.contains_key(&id) {
            return Ok(IngestOutcome::AlreadyKnown);
        }
        let (entry, outcome) = rebuild(record, Via::Replay);
        // Same durability ordering as submission: watermark, then record,
        // then memory — and no ack (Ok) until both writes stuck.
        let watermark = state.next_id.max(id);
        let payload = entry.persisted_record();
        let written = if durable {
            self.store.put(NEXT_ID_KEY, &encode_next_id(watermark)).is_ok()
                && self.store.put(&job_key(id), &payload).is_ok()
        } else {
            self.store.put_relaxed(NEXT_ID_KEY, &encode_next_id(watermark)).is_ok()
                && self.store.put_relaxed(&job_key(id), &payload).is_ok()
        };
        if !written {
            return Err(IngestError::Storage);
        }
        state.next_id = watermark;
        let enqueue = outcome == IngestOutcome::Requeued;
        state.jobs.insert(id, entry);
        if enqueue {
            state.queue.push_back(id);
        }
        self.enforce_retention(&mut state);
        drop(state);
        if enqueue {
            self.work_ready.notify_one();
        }
        Ok(outcome)
    }

    /// Stores one job record as a **passive replica** for `primary`: the
    /// record and a `replica/<id>` marker become durable here, but the job
    /// is neither enqueued nor visible through the job API — `primary`
    /// owns and executes it. [`JobQueue::promote`] (the primary died)
    /// activates held replicas through the normal ingest gate.
    ///
    /// Idempotent by id: an id this queue already tracks as an *active*
    /// job is an [`IngestOutcome::AlreadyKnown`] no-op (a replica must
    /// never downgrade a real job), and re-replicating a held id just
    /// refreshes its bytes.
    ///
    /// Writes are relaxed (page cache, no fsync): the replica guards
    /// against the primary's `kill -9`, not a simultaneous power cut, and
    /// the write-through sits on the submission hot path. The durable
    /// fallback for the relaxed window is the classic dead-log replay.
    pub fn ingest_passive(
        &self,
        id: JobId,
        primary: &str,
        bytes: &[u8],
    ) -> Result<IngestOutcome, IngestError> {
        decode_record(bytes).map_err(IngestError::Malformed)?;
        let mut state = self.lock();
        if !state.open {
            return Err(IngestError::ShuttingDown);
        }
        if id == 0 || state.jobs.contains_key(&id) {
            return Ok(IngestOutcome::AlreadyKnown);
        }
        let watermark = state.next_id.max(id);
        if self.store.put_relaxed(NEXT_ID_KEY, &encode_next_id(watermark)).is_err()
            || self.store.put_relaxed(&job_key(id), bytes).is_err()
            || self.store.put_relaxed(&replica_key(id), primary.as_bytes()).is_err()
        {
            return Err(IngestError::Storage);
        }
        state.next_id = watermark;
        state.passive.insert(id, primary.to_string());
        Ok(IngestOutcome::Passive)
    }

    /// Activates every passive replica held for `primary` (the primary
    /// shard died): the stored record goes through the same validate gate
    /// as replay, so terminal records install verbatim and non-terminal
    /// ones re-validate and enqueue, and then each marker is dropped.
    /// Returns how many replicas were activated.
    ///
    /// Promotion is the pause-free half of failover, so nothing on it may
    /// fsync per record: the record bytes are already on this shard's log
    /// from the passive write-through, so the installs use relaxed puts
    /// (and the dead primary's fsync'd log remains the durable fallback),
    /// and the marker tombstones — which each sync — are handed to a
    /// background thread so the promote response returns the moment every
    /// record is live and serving.
    ///
    /// Crash-safe in both orders: a marker surviving an installed record
    /// means a restart holds the record passive again until the next
    /// promote — and the dead-log replay re-delivers it regardless; a
    /// marker deleted for a job that finished first means recovery sees a
    /// terminal record and discards nothing it needs.
    pub fn promote(&self, primary: &str) -> u64 {
        let ids: Vec<JobId> = {
            let mut state = self.lock();
            let ids: Vec<JobId> = state
                .passive
                .iter()
                .filter(|(_, held_for)| held_for.as_str() == primary)
                .map(|(&id, _)| id)
                .collect();
            for id in &ids {
                state.passive.remove(id);
            }
            ids
        };
        // Activate in id order — the order the fleet originally accepted.
        let mut ids = ids;
        ids.sort_unstable();
        let mut promoted = 0u64;
        for &id in &ids {
            let Ok(Some(bytes)) = self.store.get(&job_key(id)) else { continue };
            if self.ingest_with(id, &bytes, false).is_ok() {
                promoted += 1;
            }
        }
        let store = Arc::clone(&self.store);
        let markers = ids.clone();
        let cleanup = std::thread::Builder::new()
            .name("nptsn-serve-promote-gc".to_string())
            .spawn(move || {
                for id in markers {
                    let _ = store.delete(&replica_key(id));
                }
            });
        if cleanup.is_err() {
            // No thread available: delete inline rather than leak markers.
            for id in ids {
                let _ = self.store.delete(&replica_key(id));
            }
        }
        promoted
    }

    /// Passive replicas currently held (all primaries).
    pub fn passive_count(&self) -> usize {
        self.lock().passive.len()
    }

    /// The id watermark: the highest job id this queue has durably
    /// promised never to reissue. A router seeds its own id assignment
    /// above the maximum watermark of its fleet.
    pub fn next_id_watermark(&self) -> JobId {
        self.lock().next_id
    }

    /// A snapshot of one job, or `None` if the id is unknown.
    pub fn snapshot(&self, id: JobId) -> Option<JobSnapshot> {
        let state = self.lock();
        let entry = state.jobs.get(&id)?;
        let (epochs_completed, latest_epoch) = entry.progress.snapshot();
        Some(JobSnapshot {
            id,
            kind: entry.kind_name,
            state: entry.state,
            epochs_completed,
            latest_epoch,
            outcome: entry.outcome.clone(),
            error: entry.error.clone(),
        })
    }

    /// Requests cancellation of a job.
    pub fn cancel(&self, id: JobId) -> CancelOutcome {
        let mut state = self.lock();
        let Some(entry) = state.jobs.get_mut(&id) else {
            return CancelOutcome::NotFound;
        };
        match entry.state {
            JobState::Submitted => {
                entry.state = JobState::Cancelled;
                entry.pending = None;
                entry.finished_at = Some(Instant::now());
                let payload = entry.persisted_record();
                state.queue.retain(|&q| q != id);
                self.persist(id, &payload);
                self.enforce_retention(&mut state);
                CancelOutcome::Cancelled
            }
            JobState::Running => {
                entry.cancel.store(true, Ordering::Relaxed);
                CancelOutcome::Signalled
            }
            _ => CancelOutcome::AlreadyFinished,
        }
    }

    /// Removes a *terminal* job entirely — from memory and from the store
    /// (a tombstone in the log, reclaimed at the next compaction). Returns
    /// `false` if the job is unknown or not yet terminal.
    pub fn forget_terminal(&self, id: JobId) -> bool {
        let mut state = self.lock();
        match state.jobs.get(&id) {
            Some(entry) if entry.state.is_terminal() => {
                state.jobs.remove(&id);
                drop(state);
                let _ = self.store.delete(&trace_key(id));
                if let Err(e) = self.store.delete(&job_key(id)) {
                    // The entry is gone from memory either way; a surviving
                    // record resurfaces as a terminal job after restart.
                    if nptsn_obs::enabled() {
                        nptsn_obs::event(
                            nptsn_obs::Level::Error,
                            "store.persist",
                            &format!("job {id}: record not deleted: {e}"),
                        );
                    }
                }
                true
            }
            _ => false,
        }
    }

    /// Evicts terminal jobs beyond the retention bounds (memory + store).
    fn enforce_retention(&self, state: &mut QueueState) {
        let mut evict: Vec<JobId> = Vec::new();
        if let Some(ttl) = self.retention.ttl {
            evict.extend(state.jobs.iter().filter_map(|(&id, entry)| {
                (entry.state.is_terminal()
                    && entry.finished_at.is_some_and(|at| at.elapsed() >= ttl))
                .then_some(id)
            }));
        }
        if self.retention.max_terminal > 0 {
            let mut terminal: Vec<JobId> = state
                .jobs
                .iter()
                .filter(|(id, entry)| entry.state.is_terminal() && !evict.contains(id))
                .map(|(&id, _)| id)
                .collect();
            let over = terminal.len().saturating_sub(self.retention.max_terminal);
            if over > 0 {
                terminal.sort_unstable();
                evict.extend(&terminal[..over]);
            }
        }
        if evict.is_empty() {
            return;
        }
        for &id in &evict {
            state.jobs.remove(&id);
            let _ = self.store.delete(&job_key(id));
            let _ = self.store.delete(&trace_key(id));
        }
        self.evicted.fetch_add(evict.len() as u64, Ordering::Relaxed);
        nptsn_obs::telemetry()
            .registry
            .counter("nptsn_jobs_evicted_total", "Terminal jobs evicted by retention")
            .add(evict.len() as u64);
    }

    /// Stops accepting new jobs and wakes every worker so the queue
    /// drains; already-accepted jobs still run to completion.
    pub fn close(&self) {
        self.lock().open = false;
        self.work_ready.notify_all();
    }

    /// Claims the next queued job, marking it running (persisted). With
    /// `block`, waits on the condvar until work arrives or the queue
    /// closes; without, returns `None` immediately when the queue is idle.
    fn next_job(&self, block: bool) -> Option<ClaimedJob> {
        let mut state = self.lock();
        loop {
            if let Some(id) = state.queue.pop_front() {
                let entry = state.jobs.get_mut(&id).expect("queued job exists");
                let kind = entry.pending.take().expect("queued job has a kind");
                entry.state = JobState::Running;
                let payload = entry.persisted_record();
                self.persist(id, &payload);
                return Some((
                    id,
                    kind,
                    Arc::clone(&entry.cancel),
                    Arc::clone(&entry.progress),
                    entry.trace,
                ));
            }
            if !state.open || !block {
                return None;
            }
            state = self.work_ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Records one finished job — memory first, then the store, then the
    /// retention sweep — mirroring the tail of the old worker loop.
    fn finish_job(
        &self,
        id: JobId,
        result: Result<JobOutcome, String>,
        timed_out: bool,
        cancel: &AtomicBool,
        metrics: &ServeMetrics,
    ) {
        let mut state = self.lock();
        let entry = state.jobs.get_mut(&id).expect("running job exists");
        if timed_out {
            // A deadline kill is always `failed` — even if a cancel
            // arrived concurrently, the deadline is what ended it, and
            // the distinction matters for the recovery counters.
            entry.state = JobState::Failed;
            entry.error = result.err();
            entry.finished_at = Some(Instant::now());
            let payload = entry.persisted_record();
            self.persist(id, &payload);
            self.enforce_retention(&mut state);
            metrics.jobs_failed.inc();
            nptsn_obs::telemetry().recovery_deadline_kills.inc();
            drop(state);
            // Signal *after* recording: the orphaned computation can only
            // observe the flag once `failed` is already visible.
            cancel.store(true, Ordering::Relaxed);
            return;
        }
        match result {
            Ok(outcome) => {
                entry.outcome = Some(outcome);
                if cancel.load(Ordering::Relaxed) {
                    entry.state = JobState::Cancelled;
                    metrics.jobs_cancelled.inc();
                } else {
                    entry.state = JobState::Done;
                    metrics.jobs_completed.inc();
                }
            }
            Err(message) => {
                if cancel.load(Ordering::Relaxed) {
                    entry.state = JobState::Cancelled;
                    metrics.jobs_cancelled.inc();
                } else {
                    entry.state = JobState::Failed;
                    metrics.jobs_failed.inc();
                }
                entry.error = Some(message);
            }
        }
        entry.finished_at = Some(Instant::now());
        let payload = entry.persisted_record();
        self.persist(id, &payload);
        self.enforce_retention(&mut state);
    }

    /// One worker's run loop: take jobs until the queue is closed *and*
    /// drained. Results are recorded on the job entry — nothing accepted
    /// is ever dropped.
    ///
    /// With a `job_deadline`, each job runs on a helper thread and is
    /// abandoned when the wall clock expires: the job is recorded as
    /// `failed`, the worker moves straight on to the next job, and the
    /// orphaned computation gets its cancel flag set so it winds down at
    /// its next cancellation point. Its late result is discarded.
    pub fn worker_loop(&self, metrics: &ServeMetrics, job_deadline: Option<Duration>) {
        while let Some(job) = self.next_job(true) {
            // Micro-batching: an infer leader scoops compatible queued
            // infer jobs into one lockstep batch. Deadline mode runs every
            // job alone — each job needs its own helper thread and clock.
            // Batched execution runs untraced by design: one batched
            // forward serves many jobs, so per-job span attribution
            // would be fiction.
            if job_deadline.is_none() {
                if let (id, JobKind::Infer(req), cancel, ..) = &job {
                    let mut batch = self.claim_infer_batchmates(req);
                    if batch.is_empty() {
                        // One bounded wait for stragglers, then alone.
                        std::thread::sleep(INFER_BATCH_WINDOW);
                        batch = self.claim_infer_batchmates(req);
                    }
                    if !batch.is_empty() {
                        batch.insert(0, (*id, req.clone(), Arc::clone(cancel)));
                        self.run_infer_batch(batch, metrics);
                        continue;
                    }
                }
            }
            self.run_claimed(job, metrics, job_deadline);
        }
    }

    /// Runs exactly one queued job to completion on the calling thread,
    /// with no deadline. Returns the job id, or `None` if the queue is
    /// idle. This is the deterministic-execution primitive the chaos
    /// kill-and-restart storm uses: run K jobs, drop the queue without a
    /// drain (every transition is already durable), reopen, and the replay
    /// is exact.
    pub fn run_one(&self, metrics: &ServeMetrics) -> Option<JobId> {
        let job = self.next_job(false)?;
        let id = job.0;
        self.run_claimed(job, metrics, None);
        Some(id)
    }

    /// Runs one claimed job alone — on the calling thread, or on a helper
    /// thread under `job_deadline` — and records its result and its trace.
    fn run_claimed(
        &self,
        (id, kind, cancel, progress, trace): ClaimedJob,
        metrics: &ServeMetrics,
        job_deadline: Option<Duration>,
    ) {
        metrics.jobs_running.add(1);
        metrics.jobs_queued.set(self.queued() as i64);
        let (result, timed_out) = {
            // The worker adopts the submission's trace context, so
            // `job.run` and the spans beneath it carry the trace id
            // minted at the router.
            let _trace = nptsn_obs::with_trace(trace);
            match job_deadline {
                None => (run_caught(&kind, &cancel, &progress, &self.registry), false),
                Some(limit) => run_with_deadline(&kind, &cancel, &progress, &self.registry, limit),
            }
        };
        metrics.jobs_running.sub(1);
        self.finish_job(id, result, timed_out, &cancel, metrics);
        self.persist_trace(id, trace);
    }
}

/// What [`JobQueue::next_job`] hands a worker: id, kind, cancel flag,
/// progress sink, and the submission's trace context.
type ClaimedJob =
    (JobId, JobKind, Arc<AtomicBool>, Arc<Progress>, Option<nptsn_obs::TraceContext>);

/// Whether two infer jobs restore the same checkpoint — half of the
/// batching compatibility key (the other half is the policy network's
/// dimensions, [`nptsn::PlanningProblem::network_dims`]).
fn same_checkpoint(a: &CheckpointSource, b: &CheckpointSource) -> bool {
    match (a, b) {
        (CheckpointSource::Named(x), CheckpointSource::Named(y)) => x == y,
        (CheckpointSource::Inline(x), CheckpointSource::Inline(y)) => x == y,
        _ => false,
    }
}

/// How a record reached [`rebuild`]; its recovered-failure errors say so.
#[derive(Debug, Clone, Copy)]
enum Via {
    /// Crash recovery in [`JobQueue::open`].
    Restart,
    /// Ingest from another shard's log, or a promotion.
    Replay,
}

/// The one gate from a decoded job record to the entry it becomes here,
/// shared by crash recovery ([`JobQueue::open`]) and ingest
/// ([`JobQueue::ingest_record`], promotion). A terminal record installs
/// as it was ([`IngestOutcome::Terminal`]). A non-terminal one
/// re-validates its spec through [`JobSpec::validate`] and queues
/// ([`IngestOutcome::Requeued`]), adopting the current trace context: a
/// router re-stamps a replayed job's trace header, so the re-run keeps
/// its trace id, and recovery runs with none installed. A record with no
/// spec, or one that no longer validates, is recorded `failed`
/// ([`IngestOutcome::RecordedFailed`]), never silently dropped.
fn rebuild(record: JobRecord, via: Via) -> (JobEntry, IngestOutcome) {
    if record.state.is_terminal() {
        let entry = JobEntry::finished(record.spec, record.state, record.outcome, record.error);
        return (entry, IngestOutcome::Terminal);
    }
    let (no_spec, after) = match via {
        Via::Restart => ("interrupted by a restart with no replayable spec", "restart"),
        Via::Replay => ("replayed with no replayable spec", "replay"),
    };
    let failed = |spec, message| {
        let entry = JobEntry::finished(spec, JobState::Failed, None, Some(message));
        (entry, IngestOutcome::RecordedFailed)
    };
    let Some(spec) = record.spec else {
        return failed(None, no_spec.to_string());
    };
    match spec.validate() {
        Ok(kind) => {
            let entry = JobEntry::queued(kind, Some(spec), nptsn_obs::current_trace());
            (entry, IngestOutcome::Requeued)
        }
        Err(e) => failed(Some(spec), format!("spec no longer validates after {after}: {e}")),
    }
}

/// Executes a job under `catch_unwind`: a panicking job poisons only
/// itself, never the worker (same policy as the planner's rollout
/// workers).
fn run_caught(
    kind: &JobKind,
    cancel: &AtomicBool,
    progress: &Progress,
    registry: &CheckpointRegistry,
) -> Result<JobOutcome, String> {
    let _span = nptsn_obs::span("job.run");
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute(kind, cancel, progress, registry)
    }))
    .unwrap_or_else(|_| {
        // A worker panic is exactly what the flight recorder exists for:
        // dump the ring before the evidence scrolls out of it.
        nptsn_obs::flight_dump_auto("panic");
        Err("job panicked".to_string())
    })
}

/// Executes one job on a helper thread with a wall-clock deadline.
/// Returns the job's own result and `false` when it finished in time, or
/// a deadline error and `true` when the clock expired first (the helper
/// thread is detached and its eventual result discarded).
fn run_with_deadline(
    kind: &JobKind,
    cancel: &Arc<AtomicBool>,
    progress: &Arc<Progress>,
    registry: &CheckpointRegistry,
    limit: std::time::Duration,
) -> (Result<JobOutcome, String>, bool) {
    type Slot = Arc<(Mutex<Option<Result<JobOutcome, String>>>, Condvar)>;
    let slot: Slot = Arc::new((Mutex::new(None), Condvar::new()));
    let spawned = {
        let slot = Arc::clone(&slot);
        let kind = kind.clone();
        let cancel = Arc::clone(cancel);
        let progress = Arc::clone(progress);
        let registry = registry.clone();
        std::thread::Builder::new()
            .name("nptsn-serve-job".to_string())
            .spawn(move || {
                let result = run_caught(&kind, &cancel, &progress, &registry);
                let (lock, cv) = &*slot;
                *lock.lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
                cv.notify_all();
            })
    };
    if spawned.is_err() {
        // Thread exhaustion: degrade to an inline run rather than losing
        // the job.
        return (run_caught(kind, cancel, progress, registry), false);
    }
    let (lock, cv) = &*slot;
    let guard = lock.lock().unwrap_or_else(|e| e.into_inner());
    let (mut guard, wait) = cv
        .wait_timeout_while(guard, limit, |r| r.is_none())
        .unwrap_or_else(|e| e.into_inner());
    match guard.take() {
        Some(result) => (result, false),
        None => {
            debug_assert!(wait.timed_out());
            let message = format!("job exceeded the {}ms deadline", limit.as_millis());
            (Err(message), true)
        }
    }
}

/// The planner configuration a service job uses: the laptop-scale `quick`
/// architecture with the request's budget knobs. Inference rebuilds the
/// same architecture, so checkpoints produced by service plan jobs always
/// restore cleanly.
fn service_config(epochs: usize, steps: usize, seed: u64) -> PlannerConfig {
    PlannerConfig { max_epochs: epochs, steps_per_epoch: steps, seed, ..PlannerConfig::quick() }
}

fn plan_outcome(solution: Solution, checkpoint: Option<Vec<u8>>) -> JobOutcome {
    JobOutcome::Plan {
        planfile: write_plan(&solution.topology),
        cost: solution.cost,
        summary: solution.to_string(),
        checkpoint,
    }
}

/// Runs one job to completion. Returns `Err` with a message for planning
/// dead-ends and restoration failures; infrastructure-level panics are
/// caught by the worker loop.
fn execute(
    kind: &JobKind,
    cancel: &AtomicBool,
    progress: &Progress,
    registry: &CheckpointRegistry,
) -> Result<JobOutcome, String> {
    // Chaos: an error here is a failed job, a panic exercises the
    // catch_unwind in the worker loop, a delay triggers job deadlines.
    nptsn_chaos::point("serve.job").map_err(|e| e.to_string())?;
    match kind {
        JobKind::Plan(req) => {
            let config = service_config(req.epochs, req.steps, req.seed);
            if req.greedy {
                let best = GreedyPlanner::new(req.parsed.problem.clone(), config.k_paths)
                    .run(8, req.seed);
                return match best {
                    Some(solution) => Ok(plan_outcome(solution, None)),
                    None => Err("greedy planner found no valid plan".to_string()),
                };
            }
            let planner = Planner::new(req.parsed.problem.clone(), config);
            // Epoch/solution telemetry is recorded by the planner itself
            // (nptsn-obs global registry); the job only tracks progress.
            let report = planner.run_until(|stats| {
                progress.push(stats.clone());
                !cancel.load(Ordering::Relaxed)
            });
            match report.best {
                Some(solution) => Ok(plan_outcome(solution, Some(report.policy_checkpoint))),
                None if cancel.load(Ordering::Relaxed) => {
                    Err("cancelled before a valid plan was found".to_string())
                }
                None => Err("no valid plan found; raise epochs/steps".to_string()),
            }
        }
        JobKind::Verify(req) => {
            let analyzer =
                FailureAnalyzer::new().with_shared_cache(Arc::new(ScenarioCache::new()));
            // Scenario/cache telemetry is recorded inside `try_analyze`.
            let report = analyzer
                .try_analyze(&req.parsed.problem, &req.topology)
                .map_err(|e| format!("analysis failed: {e}"))?;
            let reliable = report.verdict.is_reliable();
            let cost = req.topology.network_cost(req.parsed.problem.library());
            let json = analysis_report_json(&req.parsed.problem, &report, Some(cost));
            Ok(JobOutcome::Verify { json, reliable })
        }
        JobKind::Infer(req) => run_infer(registry, &[req], false)
            .pop()
            .expect("one result per infer job"),
        JobKind::Burn { millis } => {
            // Sleep in slices so cancellation stays responsive.
            let mut remaining = *millis;
            while remaining > 0 && !cancel.load(Ordering::Relaxed) {
                let slice = remaining.min(10);
                std::thread::sleep(std::time::Duration::from_millis(slice));
                remaining -= slice;
            }
            Ok(JobOutcome::Burn)
        }
    }
}

/// The infer job body, one for a lone job ([`execute`]) and a coalesced
/// batch ([`JobQueue::run_infer_batch`]): resolves the jobs' one
/// checkpoint, restores the policy once and maps each job's plan to its
/// result, in job order. A lone job plans through
/// [`Planner::plan_with_policy`], on its threads, and a panic there
/// unwinds to [`run_caught`], which dumps the flight recorder. A
/// `coalesced` batch plans through [`plan_with_policy_batch`], in
/// lockstep on this thread, and a panic there fails every job of it.
fn run_infer(
    registry: &CheckpointRegistry,
    reqs: &[&InferRequest],
    coalesced: bool,
) -> Vec<Result<JobOutcome, String>> {
    let Some(leader) = reqs.first() else {
        return Vec::new();
    };
    let failed =
        |message: String| -> Vec<Result<JobOutcome, String>> { vec![Err(message); reqs.len()] };
    // Named checkpoints resolve at execution time, so a recovered or
    // delayed infer job uses the registry's current version. Batchmates
    // name the leader's checkpoint (`same_checkpoint`).
    let bytes = match &leader.checkpoint {
        CheckpointSource::Inline(bytes) => bytes.clone(),
        CheckpointSource::Named(name) => match registry.get(name) {
            Ok(Some((_version, bytes))) => bytes,
            Ok(None) => return failed(format!("checkpoint '{name}' is not registered")),
            Err(e) => return failed(format!("checkpoint '{name}' unavailable: {e}")),
        },
    };
    // A batch records its series in `run_infer_batch`; a lone job counts
    // once its checkpoint resolves.
    if !coalesced {
        let im = infer_metrics();
        im.solo_forwards.inc();
        im.batch_size.observe(1.0);
    }
    let planners: Vec<Planner> = reqs
        .iter()
        .map(|req| Planner::new(req.parsed.problem.clone(), service_config(1, 1, req.seed)))
        .collect();
    let policy = planners[0].build_policy();
    if let Err(e) = nptsn_nn::params_from_bytes(&nptsn_nn::Module::parameters(&policy), &bytes) {
        return failed(format!("checkpoint rejected: {e}"));
    }
    let plans = if coalesced {
        let lanes: Vec<InferLane<'_>> = reqs
            .iter()
            .zip(&planners)
            .map(|(req, planner)| InferLane {
                planner,
                attempts: req.attempts,
                seed: req.seed,
            })
            .collect();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan_with_policy_batch(&policy, &lanes)
        }))
        .unwrap_or_else(|_| vec![Err("job panicked".to_string()); reqs.len()])
    } else {
        // `quick()`'s 4 workers: the attempts run on as many threads as a
        // plan job's PPO update, up to the cores.
        vec![Ok(planners[0].plan_with_policy(
            &policy,
            leader.attempts,
            leader.seed,
        ))]
    };
    plans
        .into_iter()
        .map(|plan| match plan {
            Ok(Some(solution)) => Ok(plan_outcome(solution, None)),
            Ok(None) => Err("the restored policy found no valid plan".to_string()),
            Err(message) => Err(message),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeMetrics;

    fn burn(millis: u64) -> JobKind {
        JobKind::Burn { millis }
    }

    #[test]
    fn backpressure_rejects_when_full() {
        let queue = JobQueue::new(2);
        queue.submit(burn(0)).unwrap();
        queue.submit(burn(0)).unwrap();
        assert_eq!(queue.submit(burn(0)), Err(SubmitError::Full));
        assert_eq!(queue.queued(), 2);
    }

    #[test]
    fn closed_queue_refuses_submissions_but_drains() {
        let metrics = ServeMetrics::new();
        let queue = Arc::new(JobQueue::new(8));
        let a = queue.submit(burn(1)).unwrap();
        let b = queue.submit(burn(1)).unwrap();
        queue.close();
        assert_eq!(queue.submit(burn(0)), Err(SubmitError::ShuttingDown));
        // A worker started after close still drains both jobs, then exits.
        queue.worker_loop(&metrics, None);
        for id in [a, b] {
            let snap = queue.snapshot(id).unwrap();
            assert_eq!(snap.state, JobState::Done, "job {id}");
            assert!(matches!(snap.outcome, Some(JobOutcome::Burn)));
        }
        assert_eq!(metrics.jobs_completed.get(), 2);
    }

    #[test]
    fn queued_jobs_cancel_instantly() {
        let queue = JobQueue::new(4);
        let id = queue.submit(burn(1000)).unwrap();
        assert_eq!(queue.cancel(id), CancelOutcome::Cancelled);
        assert_eq!(queue.snapshot(id).unwrap().state, JobState::Cancelled);
        assert_eq!(queue.queued(), 0);
        assert_eq!(queue.cancel(id), CancelOutcome::AlreadyFinished);
        assert_eq!(queue.cancel(999), CancelOutcome::NotFound);
    }

    #[test]
    fn snapshots_serialize_states() {
        let queue = JobQueue::new(4);
        let id = queue.submit(burn(0)).unwrap();
        let json = queue.snapshot(id).unwrap().to_json();
        assert!(json.contains("\"state\":\"submitted\""), "{json}");
        assert!(json.contains("\"kind\":\"burn\""));
        assert!(json.contains("\"latest_epoch\":null"));
        assert!(queue.snapshot(99).is_none());
    }

    #[test]
    fn expired_deadline_fails_the_job_and_the_worker_survives() {
        let before = nptsn_obs::telemetry().snapshot();
        let metrics = ServeMetrics::new();
        let queue = Arc::new(JobQueue::new(8));
        // The first job overruns a 30ms deadline; the second is instant.
        // Both results must be recorded by the *same* worker pass.
        let slow = queue.submit(burn(60_000)).unwrap();
        let fast = queue.submit(burn(0)).unwrap();
        queue.close();
        queue.worker_loop(&metrics, Some(std::time::Duration::from_millis(30)));

        let snap = queue.snapshot(slow).unwrap();
        assert_eq!(snap.state, JobState::Failed);
        assert!(
            snap.error.as_deref().unwrap_or("").contains("deadline"),
            "{:?}",
            snap.error
        );
        assert_eq!(queue.snapshot(fast).unwrap().state, JobState::Done);
        assert_eq!(metrics.jobs_failed.get(), 1);
        assert_eq!(metrics.jobs_completed.get(), 1);
        let after = nptsn_obs::telemetry().snapshot();
        assert!(after.recovery_deadline_kills > before.recovery_deadline_kills);
    }

    #[test]
    fn jobs_inside_the_deadline_complete_normally() {
        let metrics = ServeMetrics::new();
        let queue = Arc::new(JobQueue::new(4));
        let id = queue.submit(burn(1)).unwrap();
        queue.close();
        queue.worker_loop(&metrics, Some(std::time::Duration::from_secs(30)));
        assert_eq!(queue.snapshot(id).unwrap().state, JobState::Done);
        assert_eq!(metrics.jobs_completed.get(), 1);
    }

    #[test]
    fn job_states_know_terminality() {
        assert!(!JobState::Submitted.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert_eq!(JobState::Running.label(), "running");
    }

    // ------------------------------------------------------------------
    // Durability: the MemStore outlives the queue, so dropping one queue
    // and opening another on the same store is a faithful in-process
    // stand-in for `kill -9` + restart (nothing in the queue's memory
    // survives; only what was persisted does).
    // ------------------------------------------------------------------

    #[test]
    fn restart_recovers_terminal_results_and_requeues_interrupted_jobs() {
        let store: Arc<dyn Storage> = Arc::new(MemStore::new());
        let metrics = ServeMetrics::new();
        let (done, interrupted) = {
            let (queue, report) =
                JobQueue::open(8, Arc::clone(&store), RetentionConfig::default()).unwrap();
            assert_eq!(report, RecoveryReport::default());
            let done = queue.submit(burn(0)).unwrap();
            let interrupted = queue.submit(burn(0)).unwrap();
            assert_eq!(queue.run_one(&metrics), Some(done));
            // `interrupted` is still queued when the process "dies".
            (done, interrupted)
        };

        let (queue, report) =
            JobQueue::open(8, Arc::clone(&store), RetentionConfig::default()).unwrap();
        assert_eq!(report.terminal_loaded, 1);
        assert_eq!(report.requeued, 1);
        assert_eq!(report.failed_to_recover, 0);
        let snap = queue.snapshot(done).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert!(matches!(snap.outcome, Some(JobOutcome::Burn)));
        assert_eq!(queue.snapshot(interrupted).unwrap().state, JobState::Submitted);
        // The requeued job drains normally.
        assert_eq!(queue.run_one(&metrics), Some(interrupted));
        assert_eq!(queue.snapshot(interrupted).unwrap().state, JobState::Done);
        // Ids continue past the watermark, never reusing.
        let next = queue.submit(burn(0)).unwrap();
        assert!(next > interrupted);
    }

    #[test]
    fn running_at_crash_jobs_are_reenqueued() {
        let store: Arc<dyn Storage> = Arc::new(MemStore::new());
        let id = {
            let (queue, _) =
                JobQueue::open(4, Arc::clone(&store), RetentionConfig::default()).unwrap();
            let id = queue.submit(burn(0)).unwrap();
            // Claim the job (persists `running`) and "die" before it ends.
            let claimed = queue.next_job(false).unwrap();
            assert_eq!(claimed.0, id);
            id
        };
        let (queue, report) =
            JobQueue::open(4, Arc::clone(&store), RetentionConfig::default()).unwrap();
        assert_eq!(report.requeued, 1);
        assert_eq!(queue.snapshot(id).unwrap().state, JobState::Submitted);
        assert_eq!(queue.run_one(&ServeMetrics::new()), Some(id));
        assert_eq!(queue.snapshot(id).unwrap().state, JobState::Done);
    }

    #[test]
    fn retention_cap_evicts_oldest_terminal_jobs_everywhere() {
        let store: Arc<dyn Storage> = Arc::new(MemStore::new());
        let retention = RetentionConfig { max_terminal: 2, ttl: None };
        let metrics = ServeMetrics::new();
        let (queue, _) = JobQueue::open(16, Arc::clone(&store), retention).unwrap();
        let ids: Vec<JobId> = (0..4).map(|_| queue.submit(burn(0)).unwrap()).collect();
        while queue.run_one(&metrics).is_some() {}
        // 4 terminal, cap 2: the two oldest are gone from memory…
        assert_eq!(queue.evicted(), 2);
        assert!(queue.snapshot(ids[0]).is_none());
        assert!(queue.snapshot(ids[1]).is_none());
        assert_eq!(queue.snapshot(ids[3]).unwrap().state, JobState::Done);
        // …and from the store: a restart sees only the retained two.
        drop(queue);
        let (reopened, report) = JobQueue::open(16, store, retention).unwrap();
        assert_eq!(report.terminal_loaded, 2);
        assert!(reopened.snapshot(ids[0]).is_none());
        assert!(reopened.snapshot(ids[3]).is_some());
    }

    #[test]
    fn ttl_retention_expires_terminal_jobs() {
        let store: Arc<dyn Storage> = Arc::new(MemStore::new());
        let retention =
            RetentionConfig { max_terminal: 0, ttl: Some(std::time::Duration::ZERO) };
        let metrics = ServeMetrics::new();
        let (queue, _) = JobQueue::open(4, store, retention).unwrap();
        let id = queue.submit(burn(0)).unwrap();
        queue.run_one(&metrics);
        // A zero TTL evicts at the next sweep — triggered by a submission.
        queue.submit(burn(0)).unwrap();
        assert!(queue.snapshot(id).is_none());
        assert_eq!(queue.evicted(), 1);
    }

    #[test]
    fn forget_terminal_deletes_the_persisted_record() {
        let store: Arc<dyn Storage> = Arc::new(MemStore::new());
        let metrics = ServeMetrics::new();
        let id = {
            let (queue, _) =
                JobQueue::open(4, Arc::clone(&store), RetentionConfig::default()).unwrap();
            let id = queue.submit(burn(0)).unwrap();
            assert!(!queue.forget_terminal(id), "non-terminal jobs cannot be deleted");
            queue.run_one(&metrics);
            assert!(queue.forget_terminal(id));
            assert!(queue.snapshot(id).is_none());
            assert!(!queue.forget_terminal(id), "already deleted");
            id
        };
        // The deletion is durable, and the id is never reissued.
        let (reopened, report) =
            JobQueue::open(4, store, RetentionConfig::default()).unwrap();
        assert_eq!(report.terminal_loaded, 0);
        assert!(reopened.snapshot(id).is_none());
        assert!(reopened.submit(burn(0)).unwrap() > id);
    }

    #[test]
    fn recovery_accounting_is_exact() {
        // submitted == terminal_loaded + requeued, with no store faults.
        let store: Arc<dyn Storage> = Arc::new(MemStore::new());
        let metrics = ServeMetrics::new();
        let submitted = 6u64;
        {
            let (queue, _) =
                JobQueue::open(16, Arc::clone(&store), RetentionConfig::default()).unwrap();
            for _ in 0..submitted {
                queue.submit(burn(0)).unwrap();
            }
            for _ in 0..3 {
                queue.run_one(&metrics);
            }
            // Kill with 3 done, 3 queued.
        }
        let (_queue, report) =
            JobQueue::open(16, store, RetentionConfig::default()).unwrap();
        assert_eq!(report.terminal_loaded + report.requeued, submitted);
        assert_eq!(report.failed_to_recover, 0);
    }

    const INFER_DOC: &str =
        "[nodes]\nes a\nes b\nsw s0\nsw s1\n[links]\na s0\na s1\nb s0\nb s1\ns0 s1\n[flows]\na b 500 128\n";

    #[test]
    fn worker_batches_compatible_infer_jobs_with_solo_identical_results() {
        let metrics = ServeMetrics::new();
        let queue = JobQueue::new(16);
        let parsed = nptsn_format::parse_problem(INFER_DOC).expect("valid problem");

        // A structurally valid checkpoint for this problem's architecture.
        let planner = Planner::new(parsed.problem.clone(), service_config(1, 1, 0));
        let policy = planner.build_policy();
        let bytes = nptsn_nn::params_to_bytes(&nptsn_nn::Module::parameters(&policy));

        // Solo references computed in-process: what each job must report.
        let solo: Vec<Option<Solution>> = [(2usize, 7u64), (3, 11), (2, 42)]
            .iter()
            .map(|&(attempts, seed)| {
                let planner =
                    Planner::new(parsed.problem.clone(), service_config(1, 1, seed));
                let policy = planner.build_policy();
                nptsn_nn::params_from_bytes(&nptsn_nn::Module::parameters(&policy), &bytes)
                    .expect("checkpoint restores");
                planner.plan_with_policy(&policy, attempts, seed)
            })
            .collect();

        let before_batched = infer_metrics().batched_forwards.get();
        let ids: Vec<JobId> = [(2usize, 7u64), (3, 11), (2, 42)]
            .iter()
            .map(|&(attempts, seed)| {
                queue
                    .submit(JobKind::Infer(InferRequest {
                        parsed: parsed.clone(),
                        checkpoint: CheckpointSource::Inline(bytes.clone()),
                        attempts,
                        seed,
                    }))
                    .expect("submit")
            })
            .collect();
        // An incompatible straggler (different checkpoint source) must NOT
        // join the batch; it runs solo afterwards.
        let named = queue
            .submit(JobKind::Infer(InferRequest {
                parsed: parsed.clone(),
                checkpoint: CheckpointSource::Named("missing".to_string()),
                attempts: 1,
                seed: 0,
            }))
            .expect("submit");
        queue.close();
        queue.worker_loop(&metrics, None);

        assert!(
            infer_metrics().batched_forwards.get() > before_batched,
            "no batched forward was recorded"
        );
        for (id, reference) in ids.iter().zip(&solo) {
            let snap = queue.snapshot(*id).expect("job tracked");
            match reference {
                Some(solution) => {
                    assert_eq!(snap.state, JobState::Done, "job {id}: {:?}", snap.error);
                    match &snap.outcome {
                        Some(JobOutcome::Plan { cost, planfile, .. }) => {
                            assert_eq!(*cost, solution.cost, "job {id} cost diverged");
                            assert_eq!(
                                planfile,
                                &write_plan(&solution.topology),
                                "job {id} plan diverged"
                            );
                        }
                        other => panic!("job {id}: unexpected outcome {other:?}"),
                    }
                }
                None => {
                    assert_eq!(snap.state, JobState::Failed);
                    assert_eq!(
                        snap.error.as_deref(),
                        Some("the restored policy found no valid plan")
                    );
                }
            }
        }
        let named_snap = queue.snapshot(named).expect("straggler tracked");
        assert_eq!(named_snap.state, JobState::Failed);
        assert!(
            named_snap.error.as_deref().unwrap_or("").contains("not registered"),
            "{:?}",
            named_snap.error
        );
    }

    /// Eight dual-homed end stations on a four-switch mesh with six flows:
    /// large enough that an infer job's plan depends on its seed.
    const SEEDED_DOC: &str = concat!(
        "[nodes]\nes e0\nes e1\nes e2\nes e3\nes e4\nes e5\nes e6\nes e7\n",
        "sw s0\nsw s1\nsw s2\nsw s3\n",
        "[links]\ne0 s0\ne0 s2\ne1 s1\ne1 s3\ne2 s0\ne2 s2\ne3 s1\ne3 s3\n",
        "e4 s0\ne4 s2\ne5 s1\ne5 s3\ne6 s0\ne6 s2\ne7 s1\ne7 s3\n",
        "s0 s1\ns0 s2\ns0 s3\ns1 s2\ns1 s3\ns2 s3\n",
        "[flows]\ne0 e4 500 256\ne1 e5 500 256\ne2 e6 500 256\ne3 e7 500 256\n",
        "e7 e0 500 256\ne6 e1 500 256\n",
    );

    /// One infer request through every entry point that runs one: alone
    /// through `worker_loop`, under a job deadline, through `run_one`, and
    /// coalesced with a batchmate. Each plan is byte-equal to
    /// `Planner::plan_with_policy`'s, and an unregistered or a rejected
    /// checkpoint fails with one message alone and coalesced.
    #[test]
    fn every_infer_entry_point_runs_one_body() {
        let parsed = nptsn_format::parse_problem(SEEDED_DOC).expect("valid problem");
        let (attempts, seed) = (2, 0);
        let bytes = nptsn_nn::params_to_bytes(&nptsn_nn::Module::parameters(
            &Planner::new(parsed.problem.clone(), service_config(1, 1, 7)).build_policy(),
        ));
        // The reference: the checkpoint restored and planned as one
        // worker would, with no queue.
        let planner = Planner::new(parsed.problem.clone(), service_config(1, 1, seed));
        let policy = planner.build_policy();
        nptsn_nn::params_from_bytes(&nptsn_nn::Module::parameters(&policy), &bytes)
            .expect("the checkpoint restores");
        let plan = |seed| -> Result<(String, f64), String> {
            let solution = planner.plan_with_policy(&policy, attempts, seed).expect("a plan");
            Ok((write_plan(&solution.topology), solution.cost))
        };
        let planned = plan(seed);
        assert_ne!(planned, plan(seed + 1), "the plan must depend on the seed");
        // A checkpoint of another architecture: it decodes, but this
        // problem's policy rejects it.
        let other = nptsn_format::parse_problem(INFER_DOC).expect("valid problem");
        let other = Planner::new(other.problem, service_config(1, 1, seed)).build_policy();
        let foreign = nptsn_nn::params_to_bytes(&nptsn_nn::Module::parameters(&other));
        let rejected = nptsn_nn::params_from_bytes(&nptsn_nn::Module::parameters(&policy), &foreign)
            .expect_err("a foreign architecture is rejected");
        let cases = [
            (CheckpointSource::Inline(bytes), planned),
            (
                CheckpointSource::Named("missing".to_string()),
                Err("checkpoint 'missing' is not registered".to_string()),
            ),
            (CheckpointSource::Inline(foreign), Err(format!("checkpoint rejected: {rejected}"))),
        ];
        // (entry point, copies of the request submitted, how the queue runs)
        type Run = fn(&JobQueue, &ServeMetrics);
        let entries: [(&str, usize, Run); 4] = [
            ("alone", 1, |queue, metrics| queue.worker_loop(metrics, None)),
            ("deadline", 1, |queue, metrics| {
                queue.worker_loop(metrics, Some(Duration::from_secs(600)))
            }),
            ("run_one", 1, |queue, metrics| while queue.run_one(metrics).is_some() {}),
            ("coalesced", 2, |queue, metrics| queue.worker_loop(metrics, None)),
        ];
        for (checkpoint, expected) in &cases {
            for (entry, copies, run) in entries {
                let before = infer_metrics().batched_forwards.get();
                let queue = JobQueue::new(8);
                let ids: Vec<JobId> = (0..copies)
                    .map(|_| {
                        let req = InferRequest {
                            parsed: parsed.clone(),
                            checkpoint: checkpoint.clone(),
                            attempts,
                            seed,
                        };
                        queue.submit(JobKind::Infer(req)).expect("submit")
                    })
                    .collect();
                queue.close();
                run(&queue, &ServeMetrics::new());
                if copies > 1 {
                    assert!(infer_metrics().batched_forwards.get() > before, "{entry}: no batch");
                }
                for id in ids {
                    let job = queue.snapshot(id).expect("job tracked");
                    let got = match (job.state, job.outcome, job.error) {
                        (JobState::Done, Some(JobOutcome::Plan { planfile, cost, .. }), None) => {
                            Ok((planfile, cost))
                        }
                        (JobState::Failed, None, Some(error)) => Err(error),
                        other => panic!("{entry}: job {id} ended {other:?}"),
                    };
                    assert_eq!(&got, expected, "{entry}: job {id}");
                }
            }
        }
    }

    #[test]
    fn run_one_refreshes_the_queued_gauge() {
        let metrics = ServeMetrics::new();
        let queue = JobQueue::new(4);
        for _ in 0..3 {
            queue.submit(burn(0)).unwrap();
        }
        assert!(queue.run_one(&metrics).is_some());
        assert_eq!(queue.queued(), 2);
        assert_eq!(metrics.jobs_queued.get(), queue.queued() as i64);
    }

    #[test]
    fn named_infer_jobs_fail_cleanly_without_a_registration() {
        let queue = JobQueue::new(4);
        let registry = queue.registry().clone();
        let cancel = AtomicBool::new(false);
        let progress = Progress::default();
        let parsed = nptsn_format::parse_problem(
            "[nodes]\nes a\nes b\nsw s0\n[links]\na s0\nb s0\n[flows]\na b 500 128\n",
        )
        .expect("valid problem");
        let kind = JobKind::Infer(InferRequest {
            parsed,
            checkpoint: CheckpointSource::Named("missing".to_string()),
            attempts: 1,
            seed: 0,
        });
        let result = execute(&kind, &cancel, &progress, &registry);
        assert!(result.unwrap_err().contains("not registered"));
    }

    #[test]
    fn explicit_id_submission_advances_the_watermark_and_rejects_duplicates() {
        let store: Arc<dyn Storage> = Arc::new(MemStore::new());
        let (queue, _) = JobQueue::open(8, Arc::clone(&store), RetentionConfig::default()).unwrap();
        // A router-assigned id far above the local watermark.
        assert_eq!(queue.submit_validated_with_id(100, burn(0), Some(JobSpec::Burn { millis: 0 })), Ok(100));
        assert_eq!(queue.next_id_watermark(), 100);
        // The same id again is a duplicate, as is id 0.
        assert_eq!(
            queue.submit_validated_with_id(100, burn(0), None),
            Err(SubmitError::Duplicate)
        );
        assert_eq!(queue.submit_validated_with_id(0, burn(0), None), Err(SubmitError::Duplicate));
        // Local (implicit-id) submission continues above the watermark.
        assert_eq!(queue.submit(burn(0)), Ok(101));
        // The watermark survives a restart: ids never collide after reopen.
        drop(queue);
        let (queue, _) = JobQueue::open(8, Arc::clone(&store), RetentionConfig::default()).unwrap();
        assert_eq!(queue.submit(burn(0)), Ok(102));
    }

    #[test]
    fn ingest_replays_terminal_records_verbatim_and_requeues_interrupted_ones() {
        let metrics = ServeMetrics::new();
        // The "dead shard": run one job to done, leave one submitted.
        let dead_store: Arc<dyn Storage> = Arc::new(MemStore::new());
        let (dead, _) =
            JobQueue::open(8, Arc::clone(&dead_store), RetentionConfig::default()).unwrap();
        let finished = dead.submit(burn(0)).unwrap();
        let interrupted = dead.submit(burn(0)).unwrap();
        assert_eq!(dead.run_one(&metrics), Some(finished));
        let finished_bytes = dead_store.get(&job_key(finished)).unwrap().unwrap();
        let interrupted_bytes = dead_store.get(&job_key(interrupted)).unwrap().unwrap();

        // The survivor ingests both records.
        let (live, _) =
            JobQueue::open(2, Arc::new(MemStore::new()), RetentionConfig::default()).unwrap();
        assert_eq!(live.ingest_record(finished, &finished_bytes), Ok(IngestOutcome::Terminal));
        assert_eq!(
            live.ingest_record(interrupted, &interrupted_bytes),
            Ok(IngestOutcome::Requeued)
        );
        // Idempotent: a retried replay is a no-op for both.
        assert_eq!(live.ingest_record(finished, &finished_bytes), Ok(IngestOutcome::AlreadyKnown));
        assert_eq!(
            live.ingest_record(interrupted, &interrupted_bytes),
            Ok(IngestOutcome::AlreadyKnown)
        );
        // The terminal record came over byte-identical.
        assert_eq!(
            live.store().get(&job_key(finished)).unwrap().unwrap(),
            finished_bytes
        );
        let snap = live.snapshot(finished).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert!(matches!(snap.outcome, Some(JobOutcome::Burn)));
        // The interrupted one runs to completion on the survivor.
        assert_eq!(live.run_one(&metrics), Some(interrupted));
        assert_eq!(live.snapshot(interrupted).unwrap().state, JobState::Done);
        // The watermark moved past every ingested id.
        assert!(live.next_id_watermark() >= interrupted);
        // Garbage bytes are refused without storing anything.
        assert!(matches!(
            live.ingest_record(999, b"not a record"),
            Err(IngestError::Malformed(_))
        ));
        assert!(live.snapshot(999).is_none());
    }

    /// Crash recovery and replay ingest share one record-to-job gate: for
    /// every record shape, `open` over a store holding the record and
    /// `ingest_record` into an empty queue build the same job, count it
    /// under the same branch, and persist a terminal record byte for byte.
    #[test]
    fn recovery_and_ingest_rebuild_every_record_shape_alike() {
        let burn = Some(JobSpec::Burn { millis: 1 });
        let stale = Some(JobSpec::Plan {
            problem: "[nonsense".to_string(),
            epochs: 1,
            steps: 1,
            seed: 0,
            greedy: true,
        });
        let verify = Some(JobOutcome::Verify { json: "{}".to_string(), reliable: true });
        let shapes = [
            (JobState::Done, burn.clone(), Some(JobOutcome::Burn), None),
            (JobState::Done, None, verify, None),
            (JobState::Failed, burn.clone(), None, Some("boom")),
            (JobState::Failed, stale.clone(), None, Some("spec rotted")),
            (JobState::Cancelled, burn.clone(), Some(JobOutcome::Burn), None),
            (JobState::Cancelled, None, None, Some("cancelled")),
            (JobState::Submitted, burn.clone(), None, None),
            (JobState::Running, burn, None, None),
            (JobState::Submitted, stale.clone(), None, None),
            (JobState::Running, stale, None, None),
            (JobState::Submitted, None, None, None),
            (JobState::Running, None, None, None),
        ];
        let id = 7;
        let trace = nptsn_obs::TraceContext::from_seed(11);
        for (state, spec, outcome, error) in shapes {
            let shape = format!("{state:?} {spec:?} {outcome:?} {error:?}");
            let bytes = encode_record(state, spec.as_ref(), outcome.as_ref(), error);
            let store: Arc<dyn Storage> = Arc::new(MemStore::new());
            store.put(&job_key(id), &bytes).unwrap();
            let (recovered, report) =
                JobQueue::open(4, store, RetentionConfig::default()).unwrap();
            let ingested = JobQueue::new(4);
            let ingest = {
                let _trace = nptsn_obs::with_trace(Some(trace));
                ingested.ingest_record(id, &bytes).unwrap()
            };

            let (a, b) = (recovered.snapshot(id).unwrap(), ingested.snapshot(id).unwrap());
            assert_eq!(
                (a.state, a.kind, &a.outcome, a.error.is_some()),
                (b.state, b.kind, &b.outcome, b.error.is_some()),
                "{shape}"
            );
            let counted = match ingest {
                IngestOutcome::Terminal => report.terminal_loaded,
                IngestOutcome::Requeued => report.requeued,
                IngestOutcome::RecordedFailed => report.failed_to_recover,
                other => panic!("{shape}: ingest answered {other:?}"),
            };
            assert_eq!(counted, 1, "{shape}: {report:?}");
            assert_eq!(ingest == IngestOutcome::Terminal, state.is_terminal(), "{shape}");
            if state.is_terminal() {
                for queue in [&recovered, &ingested] {
                    assert_eq!(queue.store().get(&job_key(id)).unwrap().unwrap(), bytes, "{shape}");
                }
            }
            // A requeued job adopts the installed trace: recovery has none,
            // a replay carries the router's.
            let expected = (ingest == IngestOutcome::Requeued).then_some(trace);
            assert_eq!(recovered.lock().jobs[&id].trace, None, "{shape}");
            assert_eq!(ingested.lock().jobs[&id].trace, expected, "{shape}");
        }
    }

    /// A record persisted before the caps existed re-validates against
    /// them on reopen: it fails instead of running.
    #[test]
    fn an_over_cap_record_recovers_as_a_failure() {
        use crate::persist::{CheckpointRef, MAX_ATTEMPTS, MAX_STEPS};
        let plan = |epochs, steps| JobSpec::Plan {
            problem: INFER_DOC.to_string(),
            epochs,
            steps,
            seed: 0,
            greedy: false,
        };
        let infer = JobSpec::Infer {
            problem: INFER_DOC.to_string(),
            checkpoint: CheckpointRef::Named("prod".to_string()),
            attempts: MAX_ATTEMPTS + 1,
            seed: 0,
        };
        for (spec, cap) in [
            (plan(1_000_000_000_000, 1), "MAX_EPOCHS"),
            (plan(1, MAX_STEPS + 1), "MAX_STEPS"),
            (infer, "MAX_ATTEMPTS"),
        ] {
            let store: Arc<dyn Storage> = Arc::new(MemStore::new());
            let record = encode_record(JobState::Submitted, Some(&spec), None, None);
            store.put(&job_key(7), &record).unwrap();
            let (queue, report) = JobQueue::open(4, store, RetentionConfig::default()).unwrap();
            assert_eq!((report.failed_to_recover, report.requeued), (1, 0), "{cap}");
            assert_eq!(queue.queued(), 0, "{cap}");
            let job = queue.snapshot(7).unwrap();
            assert_eq!(job.state, JobState::Failed, "{cap}");
            let error = job.error.unwrap();
            assert!(error.contains("spec no longer validates") && error.contains(cap), "{error}");
        }
    }

    #[test]
    fn ingest_bypasses_queue_depth_but_submission_does_not() {
        let (queue, _) =
            JobQueue::open(1, Arc::new(MemStore::new()), RetentionConfig::default()).unwrap();
        queue.submit(burn(0)).unwrap();
        assert_eq!(queue.submit(burn(0)), Err(SubmitError::Full));
        assert_eq!(
            queue.submit_validated_with_id(50, burn(0), None),
            Err(SubmitError::Full)
        );
        // Replay must not be refused by backpressure: losing half a dead
        // shard's log to a full queue would turn failover into data loss.
        let record = encode_record(JobState::Submitted, Some(&JobSpec::Burn { millis: 0 }), None, None);
        assert_eq!(queue.ingest_record(50, &record), Ok(IngestOutcome::Requeued));
        assert_eq!(queue.queued(), 2);
    }
}
