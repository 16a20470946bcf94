//! The planning service: its routes, job queue and worker pool, served on
//! the shared HTTP runtime ([`crate::runtime`]), which also answers
//! `POST /shutdown` and `GET /debug/flight`.
//!
//! # Endpoints
//!
//! | Method & path              | Purpose                                       |
//! |----------------------------|-----------------------------------------------|
//! | `GET /healthz`             | Liveness + queue occupancy                    |
//! | `GET /readyz`              | Readiness: store + queue state; 503 draining  |
//! | `GET /metrics`             | Prometheus text exposition                    |
//! | `POST /jobs/plan`          | Submit a `.tssdn` problem for planning        |
//! | `POST /jobs/verify`        | Submit a problem + plan for verification      |
//! | `POST /jobs/infer`         | Plan from an uploaded `NPTSNCK2` checkpoint   |
//! | `POST /jobs/burn`          | Diagnostic load job (tests, benchmarks)       |
//! | `GET /jobs/<id>`           | Job status with live epoch stats              |
//! | `GET /jobs/<id>/plan`      | The resulting plan file                       |
//! | `GET /jobs/<id>/result`    | The full result document                      |
//! | `GET /jobs/<id>/checkpoint`| The trained policy checkpoint (`NPTSNCK2`)    |
//! | `DELETE /jobs/<id>`        | Cancel a live job / delete a terminal one     |
//! | `GET /checkpoints`         | List registered checkpoints                   |
//! | `PUT /checkpoints/<name>`  | Register (or overwrite) a named checkpoint    |
//! | `GET /checkpoints/<name>`  | Download a registered checkpoint              |
//! | `DELETE /checkpoints/<name>`| Unregister a checkpoint                      |
//! | `GET /jobs/<id>/trace`     | The persisted span timeline for the job       |
//! | `GET /debug/flight`        | The in-memory flight-recorder ring            |
//! | `POST /internal/replay/<id>`| Ingest a raw job record (dead-shard replay)  |
//! | `POST /internal/trace/<id>`| Ingest a replayed trace timeline              |
//! | `POST /shutdown`           | Drain the queue and stop                      |
//!
//! A full queue answers `503` with a `Retry-After` header — backpressure,
//! not an error. Shutdown closes the queue, lets the workers finish every
//! accepted job, then stops the acceptor; nothing accepted is dropped.
//!
//! With a `data_dir` configured, the queue and the checkpoint registry are
//! backed by the `nptsn-store` segment log: every lifecycle transition is
//! durable before it is acknowledged, and a restarted server (even after
//! `kill -9`) recovers terminal results byte-identically and re-enqueues
//! the jobs the crash interrupted. `POST /jobs/infer?checkpoint=<name>`
//! plans from a registered checkpoint without re-uploading it.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use nptsn_format::json::Object;
use nptsn_nn::checkpoint_shapes;
use nptsn_store::{LogStore, MemStore, Storage, StoreError};

use crate::http::{Request, Response};
use crate::jobs::{
    CancelOutcome, IngestError, IngestOutcome, JobOutcome, JobQueue, JobState, RetentionConfig,
    SubmitError,
};
use crate::metrics::{Counter, Gauge, Registry};
use crate::persist::{CheckpointRef, JobSpec, SpecError};
use crate::registry::valid_name;
use crate::runtime::{self, HttpServer, Limits, Listener, Service, ShutdownLatch};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The address to bind (`host:port`; port `0` picks an ephemeral one).
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Maximum number of jobs waiting in the queue.
    pub queue_depth: usize,
    /// Maximum accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Per-connection socket read/write timeout in milliseconds (`0`
    /// disables). Bounds every individual socket operation so a stalled
    /// or vanished peer can never pin a connection thread forever.
    pub io_timeout_ms: u64,
    /// Total deadline for reading one request head (request line +
    /// headers) in milliseconds (`0` disables). Slowloris protection: a
    /// peer dripping bytes resets the per-read timeout but not this.
    pub header_deadline_ms: u64,
    /// Wall-clock deadline for one job's execution in milliseconds (`0`
    /// disables). An expired job is recorded as `failed` and its worker
    /// moves on; the orphaned computation is signalled to wind down.
    pub job_deadline_ms: u64,
    /// Directory for the durable job & checkpoint store. `None` (the
    /// default) keeps everything in memory — nothing survives a restart.
    pub data_dir: Option<String>,
    /// Keep at most this many terminal jobs (memory *and* store); the
    /// oldest are evicted first. `0` disables the cap.
    pub job_retention: usize,
    /// Evict terminal jobs this many seconds after they finish (`0`
    /// disables). The clock restarts at recovery.
    pub job_ttl_secs: u64,
    /// The shard name this process answers to in a routed fleet, reported
    /// by `GET /readyz`. Purely informational — routing is by address.
    pub shard_name: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        let limits = Limits::default();
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            max_body_bytes: limits.max_body_bytes,
            io_timeout_ms: limits.io_timeout_ms,
            header_deadline_ms: limits.header_deadline_ms,
            job_deadline_ms: 0,
            data_dir: None,
            job_retention: 1024,
            job_ttl_secs: 0,
            shard_name: None,
        }
    }
}

/// Every metric the service records, with pre-registered handles so the
/// hot paths never touch the registry lock. The runtime registers its
/// per-request `nptsn_http_*` series here at bind.
#[derive(Debug)]
pub struct ServeMetrics {
    /// The registry backing `/metrics`.
    pub registry: Registry,
    /// Jobs accepted into the queue.
    pub jobs_submitted: Arc<Counter>,
    /// Jobs that finished with a result.
    pub jobs_completed: Arc<Counter>,
    /// Jobs that finished with an error.
    pub jobs_failed: Arc<Counter>,
    /// Jobs cancelled before or during execution.
    pub jobs_cancelled: Arc<Counter>,
    /// Submissions refused with backpressure.
    pub jobs_rejected: Arc<Counter>,
    /// Interrupted jobs re-enqueued by restart recovery.
    pub jobs_recovered: Arc<Counter>,
    /// Jobs currently waiting in the queue.
    pub jobs_queued: Arc<Gauge>,
    /// Jobs currently executing.
    pub jobs_running: Arc<Gauge>,
}

impl ServeMetrics {
    /// Registers the full metric set on a fresh registry.
    pub fn new() -> ServeMetrics {
        let registry = Registry::new();
        let jobs_submitted =
            registry.counter("nptsn_jobs_submitted_total", "Jobs accepted into the queue");
        let jobs_completed =
            registry.counter("nptsn_jobs_completed_total", "Jobs finished successfully");
        let jobs_failed = registry.counter("nptsn_jobs_failed_total", "Jobs finished in error");
        let jobs_cancelled = registry.counter("nptsn_jobs_cancelled_total", "Jobs cancelled");
        let jobs_rejected = registry
            .counter("nptsn_jobs_rejected_total", "Submissions refused with backpressure");
        let jobs_recovered = registry
            .counter("nptsn_jobs_recovered_total", "Interrupted jobs re-enqueued after restart");
        let jobs_queued = registry.gauge("nptsn_jobs_queued", "Jobs waiting in the queue");
        let jobs_running = registry.gauge("nptsn_jobs_running", "Jobs currently executing");
        ServeMetrics {
            registry,
            jobs_submitted,
            jobs_completed,
            jobs_failed,
            jobs_cancelled,
            jobs_rejected,
            jobs_recovered,
            jobs_queued,
            jobs_running,
        }
    }
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        ServeMetrics::new()
    }
}

/// State shared between the connection handlers and workers.
struct Shared {
    config: ServeConfig,
    queue: Arc<JobQueue>,
    metrics: Arc<ServeMetrics>,
    shutdown: Arc<ShutdownLatch>,
}

impl Service for Shared {
    const SPAN: &'static str = "http.request";
    const METRIC_PREFIX: &'static str = "nptsn";
    const THREAD_PREFIX: &'static str = "nptsn-serve";
    const CHAOS_SITES: bool = true;
    const ADOPT_TRACE: bool = true;
    const ROUTE: fn(&Arc<Shared>, &Request) -> Response = route;

    fn registry(&self) -> &Registry {
        &self.metrics.registry
    }

    /// Stops accepting jobs; the workers drain what was accepted and exit.
    fn on_shutdown(&self) {
        self.queue.close();
    }
}

/// The running service: the HTTP runtime plus the worker pool.
pub struct Server {
    http: HttpServer<Shared>,
}

impl Server {
    /// Binds the listener and starts the worker pool and acceptor.
    ///
    /// With `config.data_dir` set, opens (or creates) the durable store
    /// there and recovers every persisted job before accepting traffic:
    /// terminal jobs reload with their results, interrupted jobs are
    /// re-enqueued (counted in `nptsn_jobs_recovered_total`).
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = Listener::bind(&config.addr)?;
        let metrics = Arc::new(ServeMetrics::new());
        let store: Arc<dyn Storage> = match &config.data_dir {
            Some(dir) => Arc::new(LogStore::open(dir).map_err(store_io_error)?),
            None => Arc::new(MemStore::new()),
        };
        let retention = RetentionConfig {
            max_terminal: config.job_retention,
            ttl: (config.job_ttl_secs > 0).then(|| Duration::from_secs(config.job_ttl_secs)),
        };
        let (queue, recovered) =
            JobQueue::open(config.queue_depth, store, retention).map_err(store_io_error)?;
        if let Some(name) = &config.shard_name {
            queue.set_shard_label(name);
        }
        if let Some(dir) = &config.data_dir {
            nptsn_obs::flight_set_dump_dir(std::path::Path::new(dir));
        }
        let queue = Arc::new(queue);
        metrics.jobs_recovered.add(recovered.requeued);
        if nptsn_obs::enabled() && recovered != crate::jobs::RecoveryReport::default() {
            nptsn_obs::event(
                nptsn_obs::Level::Info,
                "serve.recovery",
                &format!(
                    "recovered {} terminal, requeued {}, failed {}",
                    recovered.terminal_loaded, recovered.requeued, recovered.failed_to_recover
                ),
            );
        }
        let limits = Limits {
            max_body_bytes: config.max_body_bytes,
            io_timeout_ms: config.io_timeout_ms,
            header_deadline_ms: config.header_deadline_ms,
        };
        let shutdown = listener.shutdown_latch();
        let shared = Arc::new(Shared { config, queue, metrics, shutdown });

        let job_deadline = (shared.config.job_deadline_ms > 0)
            .then(|| Duration::from_millis(shared.config.job_deadline_ms));
        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nptsn-serve-worker-{i}"))
                    .spawn(move || shared.queue.worker_loop(&shared.metrics, job_deadline))
                    .expect("spawn worker thread")
            })
            .collect();

        Ok(Server { http: listener.serve(shared, limits, workers) })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// The service metrics (for embedding / tests).
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.http.service().metrics)
    }

    /// The job queue (for embedding / tests — e.g. inspecting results
    /// after a drain, when the acceptor is already gone).
    pub fn queue(&self) -> Arc<JobQueue> {
        Arc::clone(&self.http.service().queue)
    }

    /// Initiates shutdown from the embedding process, as `POST /shutdown`
    /// would.
    pub fn stop(&self) {
        self.http.stop();
    }

    /// Blocks until shutdown is requested (via `POST /shutdown` or
    /// [`Server::stop`]), then drains the queue and joins every thread.
    /// Every job accepted before the shutdown has its result recorded
    /// before this returns.
    pub fn wait(self) {
        self.http.wait();
    }
}

/// Maps a store failure at startup into the `bind` error.
fn store_io_error(e: StoreError) -> std::io::Error {
    match e {
        StoreError::Io(inner) => inner,
        StoreError::Corrupt(message) => {
            std::io::Error::new(std::io::ErrorKind::InvalidData, message)
        }
    }
}

/// Parses a query parameter as `T`, with a default when absent.
fn query_number<T: std::str::FromStr>(
    request: &Request,
    name: &str,
    default: T,
) -> Result<T, Response> {
    match request.query_param(name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| {
            Response::error(400, &format!("query parameter {name}={raw} is not a valid number"))
        }),
    }
}

/// Dispatches one request. Pure routing — all state lives in `shared`.
fn route(shared: &Arc<Shared>, request: &Request) -> Response {
    let path = request.path.as_str();
    let method = request.method.as_str();
    match (method, path) {
        ("GET", "/healthz") => {
            let mut obj = Object::new();
            obj.str("status", "ok");
            obj.int("queued", shared.queue.queued() as u64);
            obj.int("queue_depth", shared.queue.depth() as u64);
            obj.int("workers", shared.config.workers as u64);
            Response::json(200, obj.finish())
        }
        ("GET", "/readyz") => readyz(shared),
        ("GET", "/metrics") => {
            runtime::metrics_response(runtime::exposition(&shared.metrics.registry))
        }
        ("POST", "/jobs/plan") => submit_plan(shared, request),
        ("POST", "/jobs/verify") => submit_verify(shared, request),
        ("POST", "/jobs/infer") => submit_infer(shared, request),
        ("POST", "/jobs/burn") => {
            let millis = match query_number(request, "millis", 0u64) {
                Ok(v) => v,
                Err(r) => return r,
            };
            submit_spec(shared, request, JobSpec::Burn { millis })
        }
        ("GET", "/checkpoints") => list_checkpoints(shared),
        _ if path.starts_with("/checkpoints/") => route_checkpoint(shared, request),
        ("POST", "/internal/promote") => route_promote(shared, request),
        _ if path.starts_with("/internal/replay/") => route_replay(shared, request),
        _ if path.starts_with("/internal/trace/") => route_trace_ingest(shared, request),
        _ => route_job(shared, request),
    }
}

/// `GET /readyz`: readiness, distinct from `/healthz` liveness. By
/// construction the acceptor only starts after store recovery completed
/// and the worker pool is up ([`Server::bind`] does both before binding
/// returns), so a 200 here means the shard can accept *and execute* jobs;
/// once shutdown begins it answers 503 so a router stops placing work
/// here. The body carries the signals a router health-checker feeds on:
/// queue occupancy, the id watermark, persist-error and store occupancy
/// counters.
fn readyz(shared: &Arc<Shared>) -> Response {
    if shared.shutdown.is_set() {
        let mut obj = Object::new();
        obj.str("status", "draining");
        return Response::json(503, obj.finish()).retry_later();
    }
    // Get-or-create returns the same counter the persist path increments.
    let persist_errors = nptsn_obs::telemetry()
        .registry
        .counter(
            "nptsn_store_persist_errors_total",
            "Job state transitions that failed to persist",
        )
        .get();
    let stats = shared.queue.store().stats();
    let mut obj = Object::new();
    obj.str("status", "ready");
    if let Some(name) = &shared.config.shard_name {
        obj.str("shard", name);
    }
    obj.int("queued", shared.queue.queued() as u64);
    obj.int("queue_depth", shared.queue.depth() as u64);
    obj.int("running", shared.metrics.jobs_running.get().max(0) as u64);
    obj.int("workers", shared.config.workers as u64);
    obj.int("next_id", shared.queue.next_id_watermark());
    obj.int("persist_errors", persist_errors);
    obj.int("store_live_keys", stats.live_keys);
    obj.int("store_segments", stats.segments);
    // Re-admission handshake fields: how many interrupted jobs recovery
    // re-enqueued, and how many passive replica records this shard holds
    // for peers — a router rejoining this shard reads both.
    obj.int("recovered", shared.metrics.jobs_recovered.get());
    obj.int("passive", shared.queue.passive_count() as u64);
    Response::json(200, obj.finish())
}

/// Routes `POST /internal/replay/<id>`: ingest one raw persisted job
/// record replayed from a dead shard's durable log, through the same
/// decode → re-validate gate as crash recovery. Idempotent by id, so a
/// router can retry after any failure without double-running a job.
fn route_replay(shared: &Arc<Shared>, request: &Request) -> Response {
    let id_text = &request.path["/internal/replay/".len()..];
    if request.method != "POST" {
        return Response::error(405, "method not allowed");
    }
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(400, "replay id is not a valid job id");
    };
    if id == 0 {
        return Response::error(400, "job id 0 is reserved");
    }
    // A replica write-through: the record is held passive under the
    // primary's name instead of being activated, so a later promotion
    // (`POST /internal/promote`) can requeue it without a dead-log replay.
    if let Some(primary) = request.header("x-nptsn-passive-for") {
        let primary = primary.trim().to_string();
        if primary.is_empty() {
            return Response::error(400, "X-Nptsn-Passive-For names no shard");
        }
        return match shared.queue.ingest_passive(id, &primary, &request.body) {
            Ok(outcome) => {
                let mut obj = Object::new();
                obj.int("id", id);
                obj.str(
                    "replay",
                    match outcome {
                        IngestOutcome::Passive => "passive",
                        _ => "already_known",
                    },
                );
                Response::json(200, obj.finish())
            }
            Err(e) => ingest_failure(e, "record"),
        };
    }
    match shared.queue.ingest_record(id, &request.body) {
        Ok(outcome) => {
            shared
                .metrics
                .registry
                .counter(
                    "nptsn_jobs_replay_ingested_total",
                    "Job records ingested through dead-shard replay",
                )
                .inc();
            if outcome == IngestOutcome::Requeued {
                shared.metrics.jobs_queued.set(shared.queue.queued() as i64);
            }
            let mut obj = Object::new();
            obj.int("id", id);
            obj.str(
                "replay",
                match outcome {
                    IngestOutcome::AlreadyKnown => "already_known",
                    IngestOutcome::Terminal => "terminal",
                    IngestOutcome::Requeued => "requeued",
                    IngestOutcome::RecordedFailed => "recorded_failed",
                    IngestOutcome::Passive => unreachable!("ingest_record never holds passive"),
                },
            );
            Response::json(200, obj.finish())
        }
        Err(e) => ingest_failure(e, "record"),
    }
}

/// The answer to a failed ingest: `400` when the `what` bytes do not
/// decode, a retriable `503` when the shard cannot take them now.
fn ingest_failure(error: IngestError, what: &str) -> Response {
    match error {
        IngestError::Malformed(e) => Response::error(400, &format!("{what} does not decode: {e}")),
        IngestError::ShuttingDown => Response::unavailable("service is shutting down"),
        IngestError::Storage => Response::unavailable("job store unavailable, retry later"),
    }
}

/// `POST /internal/promote?for=<shard>`: activate every passive replica
/// record held on behalf of the named (now dead) primary. Each record
/// goes through the same decode → re-validate gate as dead-shard replay,
/// so promotion is just replay with the bytes already local — no
/// cross-process export, which is what makes failover pause-free.
fn route_promote(shared: &Arc<Shared>, request: &Request) -> Response {
    let Some(primary) = request.query_param("for") else {
        return Response::error(400, "promote needs ?for=<shard name>");
    };
    if primary.trim().is_empty() {
        return Response::error(400, "promote needs a non-empty shard name");
    }
    let promoted = shared.queue.promote(primary.trim());
    shared.metrics.jobs_queued.set(shared.queue.queued() as i64);
    let mut obj = Object::new();
    obj.str("for", primary.trim());
    obj.int("promoted", promoted);
    obj.int("passive_held", shared.queue.passive_count() as u64);
    Response::json(200, obj.finish())
}

/// Routes `POST /internal/trace/<id>`: ingest one persisted trace
/// timeline replayed from a dead shard's durable log, stored verbatim so
/// the merged fleet trace outlives the shard that recorded it.
fn route_trace_ingest(shared: &Arc<Shared>, request: &Request) -> Response {
    let id_text = &request.path["/internal/trace/".len()..];
    if request.method != "POST" {
        return Response::error(405, "method not allowed");
    }
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(400, "trace id is not a valid job id");
    };
    if id == 0 {
        return Response::error(400, "job id 0 is reserved");
    }
    match shared.queue.ingest_trace(id, &request.body) {
        Ok(()) => {
            let mut obj = Object::new();
            obj.int("id", id);
            obj.str("trace", "ingested");
            Response::json(200, obj.finish())
        }
        Err(e) => ingest_failure(e, "trace record"),
    }
}

/// `GET /jobs/<id>/trace`: the persisted span timeline for one job, as
/// JSON the router merges into a fleet-wide Chrome trace. A job that has
/// not finished (or predates tracing) answers with an empty span list —
/// the timeline is written at the terminal transition.
fn job_trace(shared: &Arc<Shared>, id: u64) -> Response {
    let (trace_id, shard, spans) = match shared.queue.trace_record(id) {
        Some(record) => (record.trace_id, record.shard, record.spans),
        None => (0, shared.queue.shard_label().to_string(), Vec::new()),
    };
    let entries: Vec<String> = spans
        .iter()
        .map(|span| {
            let mut obj = Object::new();
            obj.str("name", &span.name);
            obj.int("tid", span.tid);
            obj.int("start_ns", span.start_ns);
            obj.int("dur_ns", span.dur_ns);
            obj.int("self_ns", span.self_ns);
            obj.finish()
        })
        .collect();
    let mut head = Object::new();
    head.int("id", id);
    head.str("trace", &format!("{trace_id:032x}"));
    head.str("shard", &shard);
    let head = head.finish();
    // Splice the spans array into the object by hand — the tiny JSON
    // builder has no nested-array support.
    let body = format!("{},\"spans\":[{}]}}", &head[..head.len() - 1], entries.join(","));
    Response::json(200, body)
}

/// Routes `/checkpoints/<name>` (PUT / GET / DELETE).
fn route_checkpoint(shared: &Arc<Shared>, request: &Request) -> Response {
    let name = &request.path["/checkpoints/".len()..];
    if !valid_name(name) {
        return Response::error(
            400,
            "checkpoint names are 1-128 characters of [A-Za-z0-9._-], not starting with '.'",
        );
    }
    let registry = shared.queue.registry();
    match request.method.as_str() {
        "PUT" => {
            // Same structural gate as an inline infer upload: magic,
            // version, framing, CRC-32.
            if let Err(e) = checkpoint_shapes(&request.body) {
                return Response::error(422, &format!("invalid checkpoint: {e}"));
            }
            match registry.put(name, &request.body) {
                Ok(version) => {
                    let mut obj = Object::new();
                    obj.str("name", name);
                    obj.int("version", version);
                    obj.int("bytes", request.body.len() as u64);
                    Response::json(200, obj.finish())
                }
                Err(e) => Response::error(503, &format!("checkpoint store unavailable: {e}")),
            }
        }
        "GET" => match registry.get(name) {
            Ok(Some((version, bytes))) => Response {
                status: 200,
                content_type: "application/octet-stream",
                body: bytes,
                extra_headers: vec![("X-Checkpoint-Version".to_string(), version.to_string())],
                close: false,
            },
            Ok(None) => Response::error(404, &format!("no checkpoint '{name}'")),
            Err(e) => Response::error(503, &format!("checkpoint store unavailable: {e}")),
        },
        "DELETE" => match registry.delete(name) {
            Ok(true) => {
                let mut obj = Object::new();
                obj.str("name", name);
                obj.bool("deleted", true);
                Response::json(200, obj.finish())
            }
            Ok(false) => Response::error(404, &format!("no checkpoint '{name}'")),
            Err(e) => Response::error(503, &format!("checkpoint store unavailable: {e}")),
        },
        _ => Response::error(405, "method not allowed"),
    }
}

/// `GET /checkpoints`: every registered name with version and size.
fn list_checkpoints(shared: &Arc<Shared>) -> Response {
    match shared.queue.registry().list() {
        Ok(infos) => {
            let entries: Vec<String> = infos
                .iter()
                .map(|info| {
                    let mut obj = Object::new();
                    obj.str("name", &info.name);
                    obj.int("version", info.version);
                    obj.int("bytes", info.bytes);
                    obj.finish()
                })
                .collect();
            Response::json(200, format!("{{\"checkpoints\":[{}]}}", entries.join(",")))
        }
        Err(e) => Response::error(503, &format!("checkpoint store unavailable: {e}")),
    }
}

/// Routes `/jobs/<id>[/<resource>]` paths; everything else is a 404/405.
fn route_job(shared: &Arc<Shared>, request: &Request) -> Response {
    let Some(rest) = request.path.strip_prefix("/jobs/") else {
        return match request.path.as_str() {
            "/healthz" | "/readyz" | "/metrics" | "/shutdown" | "/jobs/plan" | "/jobs/verify"
            | "/jobs/infer" | "/jobs/burn" => Response::error(405, "method not allowed"),
            _ => Response::error(404, "no such endpoint"),
        };
    };
    let (id_text, resource) = match rest.split_once('/') {
        Some((id, resource)) => (id, Some(resource)),
        None => (rest, None),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        // `/jobs/plan` with a non-POST method lands here too.
        return match (request.method.as_str(), resource) {
            ("POST", _) => Response::error(404, "no such endpoint"),
            _ => Response::error(405, "method not allowed"),
        };
    };
    let Some(snapshot) = shared.queue.snapshot(id) else {
        return Response::error(404, &format!("no job {id}"));
    };
    match (request.method.as_str(), resource) {
        ("GET", None) => Response::json(200, snapshot.to_json()),
        ("DELETE", None) => match shared.queue.cancel(id) {
            CancelOutcome::Cancelled => {
                shared.metrics.jobs_cancelled.inc();
                shared.metrics.jobs_queued.set(shared.queue.queued() as i64);
                let mut obj = Object::new();
                obj.int("id", id);
                obj.str("state", "cancelled");
                Response::json(200, obj.finish())
            }
            CancelOutcome::Signalled => {
                let mut obj = Object::new();
                obj.int("id", id);
                obj.str("state", "cancelling");
                Response::json(202, obj.finish())
            }
            // A terminal job has nothing to cancel — DELETE removes it
            // instead, from memory and the durable store (a tombstone,
            // reclaimed at the next compaction).
            CancelOutcome::AlreadyFinished => {
                if shared.queue.forget_terminal(id) {
                    let mut obj = Object::new();
                    obj.int("id", id);
                    obj.str("state", "deleted");
                    Response::json(200, obj.finish())
                } else {
                    Response::error(404, &format!("no job {id}"))
                }
            }
            CancelOutcome::NotFound => Response::error(404, &format!("no job {id}")),
        },
        ("GET", Some("plan")) => match require_done(&snapshot) {
            Err(r) => r,
            Ok(()) => match &snapshot.outcome {
                Some(JobOutcome::Plan { planfile, .. }) => Response::text(200, planfile.clone()),
                _ => Response::error(409, &format!("job {id} produced no plan")),
            },
        },
        ("GET", Some("result")) => match require_done(&snapshot) {
            Err(r) => r,
            Ok(()) => match &snapshot.outcome {
                Some(JobOutcome::Verify { json, .. }) => Response::json(200, json.clone()),
                _ => Response::json(200, snapshot.to_json()),
            },
        },
        ("GET", Some("checkpoint")) => match require_done(&snapshot) {
            Err(r) => r,
            Ok(()) => match &snapshot.outcome {
                Some(JobOutcome::Plan { checkpoint: Some(bytes), .. }) => Response {
                    status: 200,
                    content_type: "application/octet-stream",
                    body: bytes.clone(),
                    extra_headers: Vec::new(),
                    close: false,
                },
                _ => Response::error(409, &format!("job {id} has no policy checkpoint")),
            },
        },
        ("GET", Some("trace")) => job_trace(shared, id),
        ("GET", Some(_)) => Response::error(404, "no such job resource"),
        _ => Response::error(405, "method not allowed"),
    }
}

/// 409 unless the job reached `Done`.
fn require_done(snapshot: &crate::jobs::JobSnapshot) -> Result<(), Response> {
    match snapshot.state {
        JobState::Done => Ok(()),
        JobState::Failed => Err(Response::error(
            409,
            snapshot.error.as_deref().unwrap_or("job failed"),
        )),
        JobState::Cancelled => Err(Response::error(409, "job was cancelled")),
        _ => Err(Response::error(
            409,
            &format!("job is still {}", snapshot.state.label()),
        )),
    }
}

/// The accepted-job response and the backpressure mapping shared by every
/// submission path.
fn submit_result(shared: &Arc<Shared>, result: Result<u64, SubmitError>) -> Response {
    match result {
        Ok(id) => {
            shared.metrics.jobs_submitted.inc();
            shared.metrics.jobs_queued.set(shared.queue.queued() as i64);
            let mut obj = Object::new();
            obj.int("id", id);
            obj.str("state", "submitted");
            Response::json(202, obj.finish())
        }
        Err(SubmitError::Duplicate) => {
            // Not backpressure: the explicit id is already taken here and a
            // retry with the same id can never succeed — the router picks a
            // fresh id instead.
            shared.metrics.jobs_rejected.inc();
            Response::error(409, "job id already exists on this shard")
        }
        Err(reason) => {
            shared.metrics.jobs_rejected.inc();
            let message = match reason {
                SubmitError::Full => "queue full, retry later",
                SubmitError::ShuttingDown => "service is shutting down",
                SubmitError::Storage => "job store unavailable, retry later",
                SubmitError::Duplicate => unreachable!("handled above"),
            };
            Response::unavailable(message)
        }
    }
}

/// The router-assigned explicit job id, if the submission carries one
/// (`X-Nptsn-Job-Id`). Direct submissions have none and the queue assigns
/// the next local id.
fn explicit_id(request: &Request) -> Result<Option<u64>, Response> {
    match request.header("x-nptsn-job-id") {
        None => Ok(None),
        Some(raw) => match raw.trim().parse::<u64>() {
            Ok(id) if id > 0 => Ok(Some(id)),
            _ => Err(Response::error(400, "X-Nptsn-Job-Id is not a valid job id")),
        },
    }
}

/// Validates a replayable spec and submits it — the single gate shared
/// with crash recovery and dead-shard replay, so a submission that queues
/// today re-validates identically after a restart or a failover.
fn submit_spec(shared: &Arc<Shared>, request: &Request, spec: JobSpec) -> Response {
    let kind = match spec.validate() {
        Ok(kind) => kind,
        Err(SpecError::Malformed(message)) => return Response::error(400, &message),
        Err(SpecError::Invalid(message)) => return Response::error(422, &message),
    };
    let id = match explicit_id(request) {
        Ok(id) => id,
        Err(r) => return r,
    };
    // Replication factor 2: the router names the successor shard and this
    // shard mirrors the accepted record there as a passive replica. The
    // record is encoded up front because submission consumes the spec.
    let replica = request
        .header("x-nptsn-replica")
        .and_then(|raw| raw.trim().parse::<SocketAddr>().ok());
    let record = replica
        .map(|_| crate::persist::encode_record(JobState::Submitted, Some(&spec), None, None));
    let result = match id {
        None => shared.queue.submit_validated(kind, Some(spec)),
        Some(id) => shared.queue.submit_validated_with_id(id, kind, Some(spec)),
    };
    if let (Ok(id), Some(addr), Some(record)) = (&result, replica, record) {
        mirror_to_replica(shared, *id, addr, &record);
    }
    submit_result(shared, result)
}

/// Best-effort write-through of one accepted submission to its successor
/// shard as a passive replica. A few immediate retries, then give up —
/// the dead-log replay path remains the safety net, so a missed mirror
/// costs failover latency, never an acked job.
fn mirror_to_replica(shared: &Arc<Shared>, id: u64, addr: SocketAddr, record: &[u8]) {
    let Some(primary) = shared.config.shard_name.clone() else {
        // Without an identity the replica could never be promoted by
        // name; replication needs named shards.
        return;
    };
    let mut client = crate::client::Client::new(addr);
    let path = format!("/internal/replay/{id}");
    let headers = [("X-Nptsn-Passive-For", primary)];
    for _ in 0..3 {
        match client.post_with_headers(&path, &headers, record) {
            // 2xx stored (or already known); 4xx is terminal — retrying
            // the same bytes cannot change the answer.
            Ok(response) if response.status < 500 => return,
            _ => {}
        }
    }
}

fn submit_plan(shared: &Arc<Shared>, request: &Request) -> Response {
    let text = match std::str::from_utf8(&request.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "problem body is not UTF-8"),
    };
    let epochs = match query_number(request, "epochs", 3u64) {
        Ok(v) => v.max(1),
        Err(r) => return r,
    };
    let steps = match query_number(request, "steps", 64u64) {
        Ok(v) => v.max(1),
        Err(r) => return r,
    };
    let seed = match query_number(request, "seed", 0u64) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let greedy = matches!(request.query_param("greedy"), Some("1" | "true"));
    submit_spec(
        shared,
        request,
        JobSpec::Plan { problem: text.to_string(), epochs, steps, seed, greedy },
    )
}

fn submit_verify(shared: &Arc<Shared>, request: &Request) -> Response {
    let text = match std::str::from_utf8(&request.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "verify body is not UTF-8"),
    };
    // The body is the problem document followed by the plan file; the
    // spec's validation splits them at the first `[switches]` line.
    submit_spec(shared, request, JobSpec::Verify { body: text.to_string() })
}

fn submit_infer(shared: &Arc<Shared>, request: &Request) -> Response {
    let attempts = match query_number(request, "attempts", 8u64) {
        Ok(v) => v.max(1),
        Err(r) => return r,
    };
    let seed = match query_number(request, "seed", 0u64) {
        Ok(v) => v,
        Err(r) => return r,
    };
    // `?checkpoint=<name>`: the body is the problem alone and the policy
    // comes from the registry (resolved again when the job runs).
    if let Some(name) = request.query_param("checkpoint") {
        if !valid_name(name) {
            return Response::error(400, &format!("invalid checkpoint name '{name}'"));
        }
        let text = match std::str::from_utf8(&request.body) {
            Ok(t) => t,
            Err(_) => return Response::error(400, "problem body is not UTF-8"),
        };
        // Fail fast on an unknown name; the job re-resolves at run time.
        match shared.queue.registry().get(name) {
            Ok(Some(_)) => {}
            Ok(None) => {
                return Response::error(422, &format!("checkpoint '{name}' is not registered"))
            }
            Err(e) => return Response::error(503, &format!("checkpoint store unavailable: {e}")),
        }
        return submit_spec(
            shared,
            request,
            JobSpec::Infer {
                problem: text.to_string(),
                checkpoint: CheckpointRef::Named(name.to_string()),
                attempts,
                seed,
            },
        );
    }
    let Some(problem_len_text) = request.header("x-problem-length") else {
        return Response::error(
            400,
            "X-Problem-Length header required (problem bytes preceding the checkpoint), \
             or ?checkpoint=<name> to use a registered checkpoint",
        );
    };
    let Ok(problem_len) = problem_len_text.parse::<usize>() else {
        return Response::error(400, "X-Problem-Length is not a valid number");
    };
    if problem_len > request.body.len() {
        return Response::error(400, "X-Problem-Length exceeds the body size");
    }
    let (problem_bytes, checkpoint) = request.body.split_at(problem_len);
    let text = match std::str::from_utf8(problem_bytes) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "problem body is not UTF-8"),
    };
    submit_spec(
        shared,
        request,
        JobSpec::Infer {
            problem: text.to_string(),
            checkpoint: CheckpointRef::Inline(checkpoint.to_vec()),
            attempts,
            seed,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_obs::json;

    fn test_shared() -> Arc<Shared> {
        Arc::new(Shared {
            config: ServeConfig::default(),
            queue: Arc::new(JobQueue::new(2)),
            metrics: Arc::new(ServeMetrics::new()),
            shutdown: Arc::default(),
        })
    }

    fn request(method: &str, path: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: Vec::new(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn routing_rejects_unknown_paths_and_methods() {
        let shared = test_shared();
        assert_eq!(route(&shared, &request("GET", "/nope")).status, 404);
        assert_eq!(route(&shared, &request("POST", "/healthz")).status, 405);
        assert_eq!(route(&shared, &request("DELETE", "/metrics")).status, 405);
        assert_eq!(route(&shared, &request("GET", "/jobs/plan")).status, 405);
        assert_eq!(route(&shared, &request("GET", "/jobs/77")).status, 404);
        assert_eq!(route(&shared, &request("PUT", "/jobs/abc")).status, 405);
    }

    #[test]
    fn healthz_reports_queue_shape() {
        let shared = test_shared();
        let response = route(&shared, &request("GET", "/healthz"));
        assert_eq!(response.status, 200);
        let body = String::from_utf8(response.body).unwrap();
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"queue_depth\":2"), "{body}");
    }

    #[test]
    fn burn_submissions_hit_backpressure() {
        let shared = test_shared();
        // Depth 2; no workers are draining in this test.
        assert_eq!(route(&shared, &request("POST", "/jobs/burn")).status, 202);
        assert_eq!(route(&shared, &request("POST", "/jobs/burn")).status, 202);
        let rejected = route(&shared, &request("POST", "/jobs/burn"));
        assert_eq!(rejected.status, 503);
        assert!(rejected
            .extra_headers
            .iter()
            .any(|(name, value)| name == "Retry-After" && value == "1"));
        assert_eq!(shared.metrics.jobs_rejected.get(), 1);
        assert_eq!(shared.metrics.jobs_submitted.get(), 2);
    }

    #[test]
    fn plan_submission_validates_the_problem() {
        let shared = test_shared();
        let mut bad = request("POST", "/jobs/plan");
        bad.body = b"[nonsense".to_vec();
        assert_eq!(route(&shared, &bad).status, 422);
        let mut binary = request("POST", "/jobs/plan");
        binary.body = vec![0xff, 0xfe];
        assert_eq!(route(&shared, &binary).status, 400);
    }

    #[test]
    fn over_cap_counts_are_unprocessable_and_nothing_queues() {
        use crate::persist::{MAX_ATTEMPTS, MAX_EPOCHS, MAX_STEPS};
        let shared = test_shared();
        let problem = "[nodes]\nes a\nes b\nsw s0\n[links]\na s0\nb s0\n[flows]\na b 500 128\n";
        let over = [
            ("/jobs/plan", "epochs", "1000000000000".to_string(), "MAX_EPOCHS"),
            ("/jobs/plan", "epochs", (MAX_EPOCHS + 1).to_string(), "MAX_EPOCHS"),
            ("/jobs/plan", "steps", (MAX_STEPS + 1).to_string(), "MAX_STEPS"),
            ("/jobs/infer", "attempts", (MAX_ATTEMPTS + 1).to_string(), "MAX_ATTEMPTS"),
        ];
        for (path, name, value, cap) in over {
            let mut submission = request("POST", path);
            submission.query.push((name.to_string(), value.clone()));
            submission.body = problem.as_bytes().to_vec();
            submission.headers.push(("x-problem-length".into(), problem.len().to_string()));
            let response = route(&shared, &submission);
            let body = String::from_utf8(response.body).unwrap();
            assert_eq!(response.status, 422, "{name}={value}: {body}");
            assert!(body.contains(cap), "{name}={value}: {body}");
        }
        assert_eq!(shared.metrics.jobs_submitted.get(), 0);
        assert_eq!(shared.queue.queued(), 0);
        // The caps themselves are accepted.
        for (name, cap) in [("epochs", MAX_EPOCHS), ("steps", MAX_STEPS)] {
            let mut submission = request("POST", "/jobs/plan");
            submission.query.push((name.to_string(), cap.to_string()));
            submission.body = problem.as_bytes().to_vec();
            assert_eq!(route(&shared, &submission).status, 202, "{name}={cap}");
        }
    }

    #[test]
    fn verify_submission_requires_both_documents() {
        let shared = test_shared();
        let mut lone = request("POST", "/jobs/verify");
        lone.body = b"[nodes]\nes a\n".to_vec();
        let response = route(&shared, &lone);
        assert_eq!(response.status, 400);
        let body = String::from_utf8(response.body).unwrap();
        assert!(body.contains("[switches]"), "{body}");
    }

    #[test]
    fn verify_submission_with_a_bad_tas_section_is_unprocessable() {
        let shared = test_shared();
        let mut bad = request("POST", "/jobs/verify");
        bad.body = b"[tas]\nslots = 3\n[nodes]\nes a\nes b\nsw s0\n[links]\na s0\nb s0\n\
            [flows]\na b 500 128\n[switches]\ns0 D\n[plan-links]\na s0\nb s0\n"
            .to_vec();
        let response = route(&shared, &bad);
        assert_eq!(response.status, 422);
        let body = String::from_utf8(response.body).unwrap();
        assert!(body.contains("invalid problem: line 2:"), "{body}");
    }

    #[test]
    fn verify_submission_with_tas_sizes_the_scheduler_cannot_hold_is_unprocessable() {
        let shared = test_shared();
        let rest = "[nodes]\nes a\nes b\nsw s0\n[links]\na s0\nb s0\n\
            [flows]\na b 500 128\n[switches]\ns0 D\n[plan-links]\na s0\nb s0\n";
        // A 64 MB schedule table per NBF call for 2 links, and a slot
        // capacity of 3.1e10 bytes: both refused before anything queues.
        let tas = [
            ("[tas]\nbase_period_us = 1000000\nslots = 1000000\n", "line 3:"),
            ("[tas]\nbandwidth_mbps = 10000000000\n", "line 2:"),
        ];
        for (section, line) in tas {
            let mut bad = request("POST", "/jobs/verify");
            bad.body = format!("{section}{rest}").into_bytes();
            let response = route(&shared, &bad);
            assert_eq!(response.status, 422);
            let body = String::from_utf8(response.body).unwrap();
            assert!(body.contains(&format!("invalid problem: {line}")), "{body}");
        }
        assert_eq!(shared.metrics.jobs_submitted.get(), 0);
    }

    #[test]
    fn infer_submission_validates_the_checkpoint() {
        let shared = test_shared();
        let mut no_header = request("POST", "/jobs/infer");
        no_header.body = b"x".to_vec();
        assert_eq!(route(&shared, &no_header).status, 400);

        let mut too_long = request("POST", "/jobs/infer");
        too_long.headers.push(("x-problem-length".into(), "99".into()));
        too_long.body = b"short".to_vec();
        assert_eq!(route(&shared, &too_long).status, 400);
    }

    #[test]
    fn checkpoint_routes_validate_names_and_payloads() {
        let shared = test_shared();
        assert_eq!(route(&shared, &request("PUT", "/checkpoints/.hidden")).status, 400);
        assert_eq!(route(&shared, &request("PUT", "/checkpoints/has space")).status, 400);

        let mut garbage = request("PUT", "/checkpoints/prod");
        garbage.body = b"not a checkpoint".to_vec();
        assert_eq!(route(&shared, &garbage).status, 422);

        assert_eq!(route(&shared, &request("GET", "/checkpoints/prod")).status, 404);
        assert_eq!(route(&shared, &request("DELETE", "/checkpoints/prod")).status, 404);
        assert_eq!(route(&shared, &request("POST", "/checkpoints/prod")).status, 405);

        let list = route(&shared, &request("GET", "/checkpoints"));
        assert_eq!(list.status, 200);
        let body = String::from_utf8(list.body).unwrap();
        assert!(body.contains("\"checkpoints\":[]"), "{body}");

        // Infer against an unregistered name is a clean 422 at submission.
        let mut infer = request("POST", "/jobs/infer");
        infer.query.push(("checkpoint".to_string(), "prod".to_string()));
        infer.body = b"[nodes]\nes a\nes b\nsw s0\n[links]\na s0\nb s0\n[flows]\na b 500 128\n"
            .to_vec();
        let response = route(&shared, &infer);
        assert_eq!(response.status, 422);
        let body = String::from_utf8(response.body).unwrap();
        assert!(body.contains("not registered"), "{body}");
    }

    #[test]
    fn delete_on_a_terminal_job_removes_it() {
        let shared = test_shared();
        let accepted = route(&shared, &request("POST", "/jobs/burn"));
        assert_eq!(accepted.status, 202);
        let body = String::from_utf8(accepted.body).unwrap();
        let doc = json::parse(&body).expect("a JSON response");
        let id = doc.get("id").and_then(json::Value::as_num).expect("id in response") as u64;
        shared.queue.run_one(&shared.metrics).expect("one job runs");

        let deleted = route(&shared, &request("DELETE", &format!("/jobs/{id}")));
        assert_eq!(deleted.status, 200);
        assert!(String::from_utf8(deleted.body).unwrap().contains("\"state\":\"deleted\""));
        // Gone for good: status is a 404, a second DELETE too.
        assert_eq!(route(&shared, &request("GET", &format!("/jobs/{id}"))).status, 404);
        assert_eq!(route(&shared, &request("DELETE", &format!("/jobs/{id}"))).status, 404);
    }

    #[test]
    fn the_shutdown_hook_closes_the_queue() {
        let shared = test_shared();
        assert_eq!(route(&shared, &request("POST", "/jobs/burn")).status, 202);

        // The runtime calls this once the `POST /shutdown` answer is out.
        shared.on_shutdown();
        let refused = route(&shared, &request("POST", "/jobs/burn"));
        assert_eq!(refused.status, 503);
        assert!(refused
            .extra_headers
            .iter()
            .any(|(name, value)| name == "Retry-After" && value == "1"));
    }

    #[test]
    fn readyz_reports_ready_then_draining() {
        let shared = test_shared();
        let response = route(&shared, &request("GET", "/readyz"));
        assert_eq!(response.status, 200);
        let body = String::from_utf8(response.body).unwrap();
        assert!(body.contains("\"status\":\"ready\""), "{body}");
        assert!(body.contains("\"queue_depth\":2"), "{body}");
        assert!(body.contains("\"next_id\":"), "{body}");
        assert!(body.contains("\"persist_errors\":"), "{body}");
        assert_eq!(route(&shared, &request("POST", "/readyz")).status, 405);

        assert!(shared.shutdown.trip());
        let draining = route(&shared, &request("GET", "/readyz"));
        assert_eq!(draining.status, 503);
        let body = String::from_utf8(draining.body).unwrap();
        assert!(body.contains("\"status\":\"draining\""), "{body}");
    }

    #[test]
    fn readyz_names_the_shard_when_configured() {
        let mut shared = test_shared();
        Arc::get_mut(&mut shared).unwrap().config.shard_name = Some("s1".to_string());
        let response = route(&shared, &request("GET", "/readyz"));
        let body = String::from_utf8(response.body).unwrap();
        assert!(body.contains("\"shard\":\"s1\""), "{body}");
    }

    #[test]
    fn explicit_id_submissions_place_and_conflict() {
        let shared = test_shared();
        let mut routed = request("POST", "/jobs/burn");
        routed.headers.push(("x-nptsn-job-id".into(), "42".into()));
        let accepted = route(&shared, &routed);
        assert_eq!(accepted.status, 202);
        assert!(String::from_utf8(accepted.body).unwrap().contains("\"id\":42"));
        // Same id again: a 409, not backpressure.
        let conflict = route(&shared, &routed);
        assert_eq!(conflict.status, 409);
        assert!(conflict.extra_headers.iter().all(|(name, _)| name != "Retry-After"));
        // Garbage ids are a 400 before anything is queued.
        for bad in ["abc", "0", "-3"] {
            let mut r = request("POST", "/jobs/burn");
            r.headers.push(("x-nptsn-job-id".into(), bad.into()));
            assert_eq!(route(&shared, &r).status, 400, "{bad}");
        }
    }

    #[test]
    fn job_trace_serves_empty_until_a_record_exists() {
        let shared = test_shared();
        shared.queue.set_shard_label("s1");
        let accepted = route(&shared, &request("POST", "/jobs/burn"));
        assert_eq!(accepted.status, 202);
        let body = String::from_utf8(accepted.body).unwrap();
        let doc = json::parse(&body).expect("a JSON response");
        let id = doc.get("id").and_then(json::Value::as_num).expect("id in response") as u64;

        // Known job, no timeline yet: an empty span list, not a 404.
        let trace = route(&shared, &request("GET", &format!("/jobs/{id}/trace")));
        assert_eq!(trace.status, 200);
        let body = String::from_utf8(trace.body).unwrap();
        assert!(body.contains("\"spans\":[]"), "{body}");
        assert!(body.contains("\"shard\":\"s1\""), "{body}");
        // Unknown job: 404, same as every other job resource.
        assert_eq!(route(&shared, &request("GET", "/jobs/999/trace")).status, 404);
    }

    #[test]
    fn trace_ingest_round_trips_through_the_job_trace_route() {
        let shared = test_shared();
        let record = crate::persist::TraceRecord {
            trace_id: 0xabcd_0123,
            shard: "dead-shard".to_string(),
            spans: vec![crate::persist::TraceSpan {
                name: "job.run".to_string(),
                tid: 3,
                start_ns: 100,
                dur_ns: 50,
                self_ns: 50,
            }],
        };
        // The trace rides a replayed job so the id resolves.
        let job = crate::persist::encode_record(
            JobState::Submitted,
            Some(&JobSpec::Burn { millis: 0 }),
            None,
            None,
        );
        let mut replay = request("POST", "/internal/replay/7");
        replay.body = job;
        assert_eq!(route(&shared, &replay).status, 200);

        let mut ingest = request("POST", "/internal/trace/7");
        ingest.body = crate::persist::encode_trace(&record);
        assert_eq!(route(&shared, &ingest).status, 200);

        let trace = route(&shared, &request("GET", "/jobs/7/trace"));
        assert_eq!(trace.status, 200);
        let body = String::from_utf8(trace.body).unwrap();
        assert!(body.contains("\"shard\":\"dead-shard\""), "{body}");
        assert!(body.contains("\"name\":\"job.run\""), "{body}");
        assert!(body.contains(&format!("\"trace\":\"{:032x}\"", 0xabcd_0123u128)), "{body}");

        // Garbage bytes: 400. Bad ids: 400. Wrong method: 405.
        let mut garbage = request("POST", "/internal/trace/8");
        garbage.body = b"junk".to_vec();
        assert_eq!(route(&shared, &garbage).status, 400);
        assert_eq!(route(&shared, &request("POST", "/internal/trace/abc")).status, 400);
        assert_eq!(route(&shared, &request("POST", "/internal/trace/0")).status, 400);
        assert_eq!(route(&shared, &request("GET", "/internal/trace/7")).status, 405);
    }

    #[test]
    fn replay_endpoint_ingests_records_idempotently() {
        let shared = test_shared();
        let record = crate::persist::encode_record(
            JobState::Submitted,
            Some(&JobSpec::Burn { millis: 0 }),
            None,
            None,
        );
        let mut replay = request("POST", "/internal/replay/7");
        replay.body = record;
        let first = route(&shared, &replay);
        assert_eq!(first.status, 200);
        assert!(String::from_utf8(first.body).unwrap().contains("\"replay\":\"requeued\""));
        let second = route(&shared, &replay);
        assert_eq!(second.status, 200);
        assert!(String::from_utf8(second.body).unwrap().contains("\"replay\":\"already_known\""));
        assert_eq!(shared.queue.queued(), 1);

        // Garbage bytes: 400. Bad ids: 400. Wrong method: 405.
        let mut garbage = request("POST", "/internal/replay/8");
        garbage.body = b"junk".to_vec();
        assert_eq!(route(&shared, &garbage).status, 400);
        assert_eq!(route(&shared, &request("POST", "/internal/replay/abc")).status, 400);
        assert_eq!(route(&shared, &request("POST", "/internal/replay/0")).status, 400);
        assert_eq!(route(&shared, &request("GET", "/internal/replay/7")).status, 405);
    }
}
