//! The router process: an HTTP front tier that owns job-id assignment,
//! places each job on a shard via the consistent-hash [`Ring`], and fans
//! requests out to the serve fleet over the retrying
//! [`nptsn_serve::Client`].
//!
//! | Route | Behavior |
//! |---|---|
//! | `GET /healthz` | router liveness + per-shard membership state table |
//! | `GET /readyz` | `200` iff at least one shard is live; ring generation + live/total shards |
//! | `GET /metrics` | federated: router registry + telemetry + every live shard's metrics re-labeled `shard="<name>"` + `nptsn_fleet_*` sums |
//! | `GET /jobs/<id>/trace` | merged fleet-wide Chrome trace for the job (router + shard spans, one trace id) |
//! | `GET /debug/flight` | the router's in-memory flight-recorder ring |
//! | `POST /shutdown` | drain and stop the router (shards keep running) |
//! | `POST /admin/shards` | add a shard to the running fleet, or re-announce a dead one at a new address |
//! | `POST /jobs/{plan,verify,infer,burn}` | assign an id, place it on the ring, forward with `X-Nptsn-Job-Id` |
//! | `GET/DELETE /jobs/<id>` | forward to the ring owner of `<id>` |
//! | `/checkpoints`, `/checkpoints/<name>` | reads from the first live shard; writes fan out to **every** live shard |
//!
//! The durability contract is inherited from the shards, not weakened by
//! the extra hop: the router answers `202` only by relaying a shard's
//! `202`, which the shard sends only after the job record is durable. A
//! forward that dies mid-flight is answered `503` — the client retries and
//! no acked job existed. When a shard is declared dead (K consecutive
//! failed `/readyz` probes), its ring range is rebalanced to the survivors
//! and its segment log is replayed onto them ([`crate::replay`]), so every
//! acked job reaches a terminal state on some live shard.
//!
//! # Membership
//!
//! Membership is a self-healing state machine, not a one-way trap door:
//! `live → suspect → dead → rejoining → live`. A probe failure moves a
//! shard to *suspect* (still routable); K consecutive failures declare it
//! *dead* — removed from the ring at a bumped ring generation, its log
//! replayed. The health loop keeps probing dead shards, and a shard that
//! answers its `/readyz` re-admission handshake again (same process
//! restarted on the same `--data-dir`, or re-announced at a new address
//! via `POST /admin/shards`) becomes *rejoining*: it receives a catch-up
//! transfer of the records it missed (multi-pass, cursor-bounded, through
//! the idempotent `/internal/replay/<id>` gate), then re-enters the ring.
//! `POST /admin/shards` with a fresh name is live scale-out: the ring's
//! ≤1/N remap drives a background migration drain to the newcomer.
//!
//! With `replication_factor` 2, every accepted submission is written
//! through to the key's ring successor as a passive replica. Because the
//! successor is by construction where the key lands when its owner leaves
//! the ring, a death promotes local records (`POST /internal/promote`)
//! instead of pausing for a cross-process log export — failover becomes a
//! ring flip, with the dead-log replay demoted to a background safety net.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nptsn_format::json::Object;
use nptsn_obs::json::{self, Value};
use nptsn_obs::metrics::{Counter, Gauge, Histogram, Registry};
use nptsn_obs::{MergedSpan, ProcessTrace, TraceContext};
use nptsn_serve::client::{BackoffConfig, Client, ClientResponse};
use nptsn_serve::http::{read_request_deadline, HttpError, Request, Response};
use nptsn_store::{ExportCursor, LogStore};

use crate::replay;
use crate::ring::{key_hash, Ring};

/// One shard of the serve fleet, as configured at router start.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The shard's stable name — the identity hashed onto the ring.
    pub name: String,
    /// The shard's listen address.
    pub addr: SocketAddr,
    /// The shard's `--data-dir`, when the router can reach it for
    /// dead-shard replay. `None` disables replay for this shard.
    pub data_dir: Option<PathBuf>,
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address; port `0` picks a free port.
    pub addr: String,
    /// The initial shard fleet. Shards can die, rejoin after a restart,
    /// and new ones can join a running fleet via `POST /admin/shards`.
    pub shards: Vec<ShardSpec>,
    /// Copies of every accepted submission (`1` disables replication).
    /// At `2`, each submission is written through to the key's ring
    /// successor as a passive replica, and a shard death promotes those
    /// replicas instead of pausing for a dead-log replay.
    pub replication_factor: u32,
    /// Virtual nodes per shard on the ring.
    pub vnodes: u32,
    /// Health-probe period per shard, in milliseconds.
    pub health_interval_ms: u64,
    /// Consecutive failed probes before a shard is declared dead.
    pub health_failures: u32,
    /// Total elapsed cap on one forwarded request's retry schedule
    /// ([`BackoffConfig::deadline_ms`]) — one slow shard cannot pin a
    /// routed request beyond this.
    pub forward_deadline_ms: u64,
    /// Largest accepted request body (mirrors the shard limit).
    pub max_body_bytes: usize,
    /// Per-read/write socket timeout on router connections.
    pub io_timeout_ms: u64,
    /// Total deadline on reading one request head.
    pub header_deadline_ms: u64,
    /// `Retry-After` hint on `503` answers, in seconds.
    pub retry_after_secs: u32,
    /// Flight-recorder ring capacity in entries (`0` uses the built-in
    /// default). Armed unconditionally at bind, like the shards.
    pub flight_capacity: usize,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            replication_factor: 1,
            vnodes: 64,
            health_interval_ms: 100,
            health_failures: 3,
            forward_deadline_ms: 2_000,
            max_body_bytes: 4 * 1024 * 1024,
            io_timeout_ms: 30_000,
            header_deadline_ms: 10_000,
            retry_after_secs: 1,
            flight_capacity: 0,
        }
    }
}

/// Router-local metrics (the cross-cutting `nptsn_router_*_total` series
/// live in the process-wide telemetry so benchmarks and the CLI see them).
#[derive(Debug)]
pub struct RouterMetrics {
    /// The router's own registry; render it for `/metrics`.
    pub registry: Registry,
    /// Requests received by the router (`nptsn_router_http_requests_total`).
    pub http_requests: Arc<Counter>,
    /// Forwards that failed after retries (`nptsn_router_forward_errors_total`).
    pub forward_errors: Arc<Counter>,
    /// Submissions re-tried under a fresh id after a `409` id collision
    /// (`nptsn_router_submit_conflicts_total`).
    pub submit_conflicts: Arc<Counter>,
    /// Live shards on the ring (`nptsn_router_live_shards`).
    pub live_shards: Arc<Gauge>,
    /// Monotonic ring version, bumped on every membership change
    /// (`nptsn_router_ring_generation`).
    pub ring_generation: Arc<Gauge>,
    /// Latency of one forwarded request, retries included
    /// (`nptsn_router_forward_duration_seconds`).
    pub forward_seconds: Arc<Histogram>,
    /// Latency of one replayed record's ingest, retries included
    /// (`nptsn_router_replay_duration_seconds`).
    pub replay_seconds: Arc<Histogram>,
    /// Shard `/metrics` scrapes that failed — the federated exposition
    /// degraded to the shards that answered
    /// (`nptsn_router_scrape_errors_total`).
    pub scrape_errors: Arc<Counter>,
}

impl RouterMetrics {
    /// Registers the router metric set on a fresh registry.
    pub fn new() -> RouterMetrics {
        let registry = Registry::new();
        let http_requests =
            registry.counter("nptsn_router_http_requests_total", "Requests received by the router");
        let forward_errors = registry
            .counter("nptsn_router_forward_errors_total", "Forwards that failed after retries");
        let submit_conflicts = registry.counter(
            "nptsn_router_submit_conflicts_total",
            "Submissions retried under a fresh id after a 409",
        );
        let live_shards =
            registry.gauge("nptsn_router_live_shards", "Shards currently live on the ring");
        let ring_generation = registry.gauge(
            "nptsn_router_ring_generation",
            "Monotonic ring version, bumped on every membership change",
        );
        let forward_seconds = registry.histogram(
            "nptsn_router_forward_duration_seconds",
            "Latency of one forwarded request, retries included",
            &Histogram::latency_bounds(),
        );
        let replay_seconds = registry.histogram(
            "nptsn_router_replay_duration_seconds",
            "Latency of one replayed record's ingest, retries included",
            &Histogram::latency_bounds(),
        );
        let scrape_errors = registry.counter(
            "nptsn_router_scrape_errors_total",
            "Shard metrics scrapes that failed during federation",
        );
        RouterMetrics {
            registry,
            http_requests,
            forward_errors,
            submit_conflicts,
            live_shards,
            ring_generation,
            forward_seconds,
            replay_seconds,
            scrape_errors,
        }
    }

    /// The full `/metrics` exposition: the router registry followed by the
    /// process-wide telemetry (which carries `nptsn_router_forwards_total`,
    /// `nptsn_router_failovers_total`, `nptsn_router_replayed_jobs_total`
    /// and `nptsn_router_replay_retries_total`).
    pub fn render(&self) -> String {
        let mut text = self.registry.render();
        text.push_str(&nptsn_obs::telemetry().registry.render());
        text
    }

    /// The per-status-code response counter
    /// (`nptsn_router_http_responses_total`).
    pub fn response_counter(&self, code: u16) -> Arc<Counter> {
        self.registry.counter_labeled(
            "nptsn_router_http_responses_total",
            &format!("code=\"{code}\""),
            "Router responses by status code",
        )
    }
}

impl Default for RouterMetrics {
    fn default() -> RouterMetrics {
        RouterMetrics::new()
    }
}

/// One shard's membership state. The machine is
/// `live → suspect → dead → rejoining → live`; *suspect* (a probe just
/// failed) and *live* shards are routable, *dead* and *rejoining* ones
/// are not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ShardState {
    /// Probes are passing; the shard owns its ring range.
    Live = 0,
    /// At least one probe failed but the death threshold is not reached;
    /// still routable (the forward path has its own retries).
    Suspect = 1,
    /// Declared dead: off the ring, its range rebalanced, its log
    /// replayed. Probed in the background for a possible rejoin.
    Dead = 2,
    /// Passed the re-admission handshake; catch-up transfer in progress.
    Rejoining = 3,
}

impl ShardState {
    fn from_u8(raw: u8) -> ShardState {
        match raw {
            0 => ShardState::Live,
            1 => ShardState::Suspect,
            3 => ShardState::Rejoining,
            _ => ShardState::Dead,
        }
    }

    /// The label used in `/healthz` and log events.
    pub fn label(self) -> &'static str {
        match self {
            ShardState::Live => "live",
            ShardState::Suspect => "suspect",
            ShardState::Dead => "dead",
            ShardState::Rejoining => "rejoining",
        }
    }
}

/// One shard's runtime state. The address and data dir are mutable
/// because a dead shard may be re-announced at a new address
/// (`POST /admin/shards`) — a restarted process rarely gets its old port
/// back from the OS.
pub(crate) struct Shard {
    pub(crate) name: String,
    addr: Mutex<SocketAddr>,
    data_dir: Mutex<Option<PathBuf>>,
    state: AtomicU8,
    /// Consecutive failed probes (reset on success; reported in
    /// `/healthz`).
    pub(crate) probe_failures: AtomicU32,
    /// Idle keep-alive clients for the forward path. Per-request TCP
    /// connects dominate routed overhead on small requests; reusing the
    /// connection amortizes the handshake away. Checked out per forward,
    /// returned only on success — a failed client's connection is suspect
    /// and is dropped. Cleared whenever the address changes.
    pool: Mutex<Vec<Client>>,
}

/// Upper bound on idle kept-alive connections retained per shard.
const POOL_CAP: usize = 8;

impl Shard {
    fn new(spec: &ShardSpec) -> Shard {
        Shard {
            name: spec.name.clone(),
            addr: Mutex::new(spec.addr),
            data_dir: Mutex::new(spec.data_dir.clone()),
            state: AtomicU8::new(ShardState::Live as u8),
            probe_failures: AtomicU32::new(0),
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Pops a pooled keep-alive client, or opens a fresh one. A pooled
    /// connection may have gone stale while idle; `Client` drops it and
    /// retries once on a fresh connection, so stale checkouts self-heal.
    fn checkout(&self) -> Client {
        let pooled = self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop();
        pooled.unwrap_or_else(|| Client::new(self.addr()))
    }

    /// Returns a client whose request succeeded to the pool, stripped of
    /// its per-request retry policy (the next checkout applies its own).
    fn checkin(&self, client: Client) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < POOL_CAP {
            pool.push(client.without_backoff());
        }
    }

    /// Drops every pooled connection — they point at the old address.
    fn clear_pool(&self) {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    pub(crate) fn state(&self) -> ShardState {
        ShardState::from_u8(self.state.load(Ordering::SeqCst))
    }

    fn set_state(&self, state: ShardState) {
        self.state.store(state as u8, Ordering::SeqCst);
    }

    /// Whether the router forwards requests here (live or suspect).
    pub(crate) fn is_routable(&self) -> bool {
        matches!(self.state(), ShardState::Live | ShardState::Suspect)
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        *self.addr.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn data_dir(&self) -> Option<PathBuf> {
        self.data_dir.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// State shared between the acceptor, connection handlers and the health
/// thread.
pub(crate) struct Shared {
    pub(crate) config: RouterConfig,
    pub(crate) local_addr: SocketAddr,
    /// The shard set. Grows on scale-out joins; never shrinks (a dead
    /// shard keeps its slot so it can rejoin). Read-mostly.
    pub(crate) shards: RwLock<Vec<Arc<Shard>>>,
    /// The current placement ring over routable shards. Swapped
    /// atomically (short lock, `Arc` clone out) on membership changes.
    pub(crate) ring: Mutex<Arc<Ring>>,
    /// Monotonic ring version; bumped under the membership lock on every
    /// ring swap.
    pub(crate) ring_generation: AtomicU64,
    /// The highest job id assigned or observed anywhere in the fleet.
    pub(crate) next_id: AtomicU64,
    /// Set while a dead shard's log is being replayed — a `404` for a job
    /// in flight between shards answers `503 Retry-After` instead.
    pub(crate) replaying: AtomicBool,
    /// Catch-up / migration drains in flight. While positive, a `404`
    /// from a shard answers `503 Retry-After` — the record may still be
    /// on its way to its new owner.
    pub(crate) migrating: AtomicU64,
    /// Serializes membership transitions (death, rejoin, scale-out join)
    /// so two ring swaps can never interleave.
    pub(crate) membership: Mutex<()>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) metrics: Arc<RouterMetrics>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Shared {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor so it observes the flag.
        let _ = TcpStream::connect(self.local_addr);
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        *done = true;
        self.done_cv.notify_all();
    }

    pub(crate) fn current_ring(&self) -> Arc<Ring> {
        Arc::clone(&self.ring.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// A point-in-time copy of the shard set.
    pub(crate) fn shards_snapshot(&self) -> Vec<Arc<Shard>> {
        self.shards.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The shard named `name`, whatever its state.
    pub(crate) fn shard_named(&self, name: &str) -> Option<Arc<Shard>> {
        self.shards
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .find(|s| s.name == name)
            .cloned()
    }

    /// The routable (live or suspect) shard named `name`, if any.
    pub(crate) fn routable_shard(&self, name: &str) -> Option<Arc<Shard>> {
        self.shard_named(name).filter(|s| s.is_routable())
    }

    fn live_count(&self) -> usize {
        self.shards
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|s| s.is_routable())
            .count()
    }

    /// Swaps in a new ring and bumps the generation. Callers hold the
    /// membership lock.
    fn swap_ring(&self, next: Ring) {
        {
            let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
            *ring = Arc::new(next);
        }
        let generation = self.ring_generation.fetch_add(1, Ordering::SeqCst) + 1;
        self.metrics.ring_generation.set(generation as i64);
        self.metrics.live_shards.set(self.live_count() as i64);
    }

    /// The retry policy for one forwarded request. The jitter seed is
    /// derived from the request key so a replayed run retries on the same
    /// schedule.
    pub(crate) fn forward_backoff(&self, seed: u64) -> BackoffConfig {
        BackoffConfig {
            max_retries: 4,
            base_ms: 20,
            cap_ms: 250,
            seed,
            deadline_ms: self.config.forward_deadline_ms,
        }
    }

    /// A retrying client for one forwarded request.
    pub(crate) fn forward_client(&self, addr: SocketAddr, seed: u64) -> Client {
        Client::new(addr).with_backoff(self.forward_backoff(seed))
    }
}

/// The running router: a TCP acceptor plus the health/failover thread.
pub struct Router {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    health: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds the listener, seeds the id watermark from the shards'
    /// `/readyz` reports (best effort — the health loop keeps it fresh and
    /// `409` collisions are retried under a fresh id), and starts the
    /// acceptor and health threads.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the shard list is empty or has duplicate names;
    /// otherwise whatever binding the listener returns.
    pub fn bind(config: RouterConfig) -> io::Result<Router> {
        // Arm the flight recorder before anything can record: it is the
        // always-on ring behind `/debug/flight` and the source of the
        // router's own spans in merged per-job timelines.
        nptsn_obs::flight_init(config.flight_capacity);
        if config.shards.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "no shards configured"));
        }
        let mut seen = HashSet::new();
        for spec in &config.shards {
            if !seen.insert(spec.name.as_str()) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("duplicate shard name {:?}", spec.name),
                ));
            }
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let names: Vec<String> = config.shards.iter().map(|s| s.name.clone()).collect();
        let ring = Arc::new(Ring::build(&names, config.vnodes));
        let shards: Vec<Arc<Shard>> =
            config.shards.iter().map(|spec| Arc::new(Shard::new(spec))).collect();
        let metrics = Arc::new(RouterMetrics::new());
        metrics.live_shards.set(shards.len() as i64);
        metrics.ring_generation.set(1);
        let shared = Arc::new(Shared {
            config,
            local_addr,
            shards: RwLock::new(shards),
            ring: Mutex::new(ring),
            ring_generation: AtomicU64::new(1),
            next_id: AtomicU64::new(0),
            replaying: AtomicBool::new(false),
            migrating: AtomicU64::new(0),
            membership: Mutex::new(()),
            shutdown: AtomicBool::new(false),
            metrics,
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });

        // Seed the watermark before taking traffic so the first assigned
        // id is above anything already durable on a shard.
        for shard in shared.shards_snapshot() {
            for attempt in 0..3u32 {
                if probe_shard(&shared, &shard) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20 << attempt));
            }
        }

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("nptsn-router-acceptor".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor thread")
        };
        let health = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("nptsn-router-health".to_string())
                .spawn(move || health_loop(&shared))
                .expect("spawn health thread")
        };
        Ok(Router { shared, acceptor: Some(acceptor), health: Some(health) })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The router metrics (for embedding / tests).
    pub fn metrics(&self) -> Arc<RouterMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The current placement ring (for embedding / tests).
    pub fn ring(&self) -> Arc<Ring> {
        self.shared.current_ring()
    }

    /// The id watermark — the highest job id assigned or observed.
    pub fn next_id_watermark(&self) -> u64 {
        self.shared.next_id.load(Ordering::SeqCst)
    }

    /// The current ring generation — the membership version, bumped on
    /// every death, rejoin, or scale-out join.
    pub fn ring_generation(&self) -> u64 {
        self.shared.ring_generation.load(Ordering::SeqCst)
    }

    /// Initiates shutdown, as `POST /shutdown` would. Shards are not
    /// touched — the router is a front tier, not a supervisor.
    pub fn stop(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until shutdown is requested, then joins the acceptor and
    /// health threads.
    pub fn wait(mut self) {
        {
            let mut done = self.shared.done.lock().unwrap_or_else(|e| e.into_inner());
            while !*done {
                done = self.shared.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
            }
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(health) = self.health.take() {
            let _ = health.join();
        }
        // Park the flight ring on disk (when a dump dir is configured) so
        // the router's final moments survive the shutdown.
        nptsn_obs::flight_dump_auto("drain");
    }
}

/// The deterministic trace context for a job id. Any router instance (or
/// a restarted one) recomputes the same 128-bit trace id from the id
/// alone, so `GET /jobs/<id>/trace` needs no stored id→trace mapping and
/// a replayed job re-joins the timeline it started.
pub fn trace_for_job(id: u64) -> TraceContext {
    TraceContext::from_seed(key_hash(id) ^ 0x4e70_7473_6e54_7263)
}

/// A non-negative integer field of a parsed JSON object.
fn int_field(doc: &Value, key: &str) -> Option<u64> {
    doc.get(key)?.as_num().filter(|n| *n >= 0.0 && n.fract() == 0.0).map(|n| n as u64)
}

/// Folds the id watermark (`next_id`) of a shard's `/readyz` body into
/// the router's.
fn fold_watermark(shared: &Shared, readyz: &Value) {
    if let Some(next_id) = int_field(readyz, "next_id") {
        shared.next_id.fetch_max(next_id, Ordering::SeqCst);
    }
}

/// One `/readyz` probe: returns whether the shard answered `200`, and
/// folds its id watermark into the router's. The `200` alone is the
/// health signal; a body without a watermark just carries none.
fn probe_shard(shared: &Arc<Shared>, shard: &Arc<Shard>) -> bool {
    let mut client = Client::new(shard.addr());
    match client.get("/readyz") {
        Ok(response) if response.status == 200 => {
            if let Ok(doc) = json::parse(&response.text()) {
                fold_watermark(shared, &doc);
            }
            true
        }
        _ => false,
    }
}

/// The re-admission handshake: a `200` `/readyz` whose reported shard
/// name (when the shard reports one) matches the slot being rejoined.
/// The name check is what stops a recycled address — some other process
/// now listening on the dead shard's old port — from being admitted as
/// the shard it isn't. Folds the shard's recovered id watermark into the
/// router's, which is the "id watermark reconciled" half of re-admission.
fn handshake(shared: &Arc<Shared>, shard: &Arc<Shard>) -> bool {
    let mut client = Client::new(shard.addr());
    let Ok(response) = client.get("/readyz") else { return false };
    if response.status != 200 {
        return false;
    }
    // A `200` that is not JSON did not come from one of our shards.
    let Ok(doc) = json::parse(&response.text()) else { return false };
    if let Some(reported) = doc.get("shard").and_then(Value::as_str) {
        if reported != shard.name {
            return false;
        }
    }
    fold_watermark(shared, &doc);
    true
}

/// The health/membership loop. Routable shards are probed every interval:
/// a failure moves them `live → suspect`, K consecutive failures
/// `suspect → dead` (ring rebalance + replay/promotion). Dead shards keep
/// being probed — one that answers its re-admission handshake again is
/// rejoined with a catch-up transfer.
fn health_loop(shared: &Arc<Shared>) {
    let interval = Duration::from_millis(shared.config.health_interval_ms.max(2));
    let threshold = shared.config.health_failures.max(1);
    while !shared.shutdown.load(Ordering::SeqCst) {
        for shard in shared.shards_snapshot() {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            match shard.state() {
                ShardState::Rejoining => continue,
                ShardState::Dead => {
                    // No chaos point here: the dead-probe is pure
                    // observation, and rejoin has its own `router.join`
                    // gate inside `attempt_rejoin`.
                    if handshake(shared, &shard) {
                        attempt_rejoin(shared, &shard);
                    }
                }
                ShardState::Live | ShardState::Suspect => {
                    // Chaos: a faulted probe counts as a failed probe —
                    // enough of them in a row and the router declares a
                    // live shard dead, exercising the failover path
                    // against a healthy fleet.
                    let healthy = nptsn_chaos::point("router.health").is_ok()
                        && probe_shard(shared, &shard);
                    if healthy {
                        shard.probe_failures.store(0, Ordering::SeqCst);
                        shard.set_state(ShardState::Live);
                        continue;
                    }
                    let consecutive = shard.probe_failures.fetch_add(1, Ordering::SeqCst) + 1;
                    if consecutive >= threshold {
                        declare_dead(shared, &shard);
                    } else {
                        shard.set_state(ShardState::Suspect);
                    }
                }
            }
        }
        // Sleep in short steps so shutdown stays prompt even under a
        // long interval; a sub-5ms interval (tight failure-detection
        // budgets) sleeps in one piece.
        let step = interval.min(Duration::from_millis(5));
        let deadline = Instant::now() + interval;
        while Instant::now() < deadline && !shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(step);
        }
    }
}

/// Declares a shard dead: removes it from the ring at a bumped
/// generation, then recovers its jobs. With replication the successor
/// shards already hold passive copies of everything the dead shard
/// accepted, so promotion (`POST /internal/promote`, a local requeue) is
/// the recovery path and the dead-log replay runs behind it as a
/// background safety net. Without replication the replay runs inline,
/// exactly as it always has.
fn declare_dead(shared: &Arc<Shared>, shard: &Arc<Shard>) {
    let _membership = shared.membership.lock().unwrap_or_else(|e| e.into_inner());
    if shard.state() == ShardState::Dead {
        return;
    }
    shard.set_state(ShardState::Dead);
    nptsn_obs::telemetry().router_failovers.inc();
    let survivors: Vec<String> = shared
        .shards_snapshot()
        .iter()
        .filter(|s| s.is_routable())
        .map(|s| s.name.clone())
        .collect();
    shared.swap_ring(shared.current_ring().retain(&survivors));
    if nptsn_obs::enabled() {
        nptsn_obs::event(
            nptsn_obs::Level::Info,
            "router.failover",
            &format!("shard {} declared dead, {} survivors", shard.name, survivors.len()),
        );
    }
    if survivors.is_empty() {
        return;
    }
    let replicated = shared.config.replication_factor >= 2;
    if replicated {
        promote_replicas(shared, &shard.name);
    }
    if shard.data_dir().is_none() {
        return;
    }
    if !replicated {
        // Classic inline replay: the health loop blocks until every
        // record from the dead log is re-ingested on a survivor.
        shared.replaying.store(true, Ordering::SeqCst);
        let report = replay::replay_dead_shard(shared, shard);
        shared.replaying.store(false, Ordering::SeqCst);
        log_replay(&shard.name, &report);
        return;
    }
    // Promotion already restored service; the replay now only backstops
    // replicas that were lost (e.g. a mirror that never landed), so it
    // runs off the hot path. Idempotent ingest makes the overlap safe.
    shared.replaying.store(true, Ordering::SeqCst);
    let background_shared = Arc::clone(shared);
    let background_shard = Arc::clone(shard);
    let spawned = std::thread::Builder::new()
        .name("nptsn-router-replay".to_string())
        .spawn(move || {
            let report = replay::replay_dead_shard(&background_shared, &background_shard);
            background_shared.replaying.store(false, Ordering::SeqCst);
            log_replay(&background_shard.name, &report);
        });
    if spawned.is_err() {
        shared.replaying.store(false, Ordering::SeqCst);
    }
}

fn log_replay(name: &str, report: &replay::ReplayReport) {
    if nptsn_obs::enabled() {
        nptsn_obs::event(
            nptsn_obs::Level::Info,
            "router.replay",
            &format!(
                "shard {name}: {} replayed, {} already known, {} failed, {} retries",
                report.replayed, report.already_known, report.failed, report.retries
            ),
        );
    }
}

/// Fans `POST /internal/promote?for=<dead>` out to every routable shard:
/// each activates the passive replica records it holds for the dead
/// primary. The sum lands in `nptsn_router_replica_promotions_total`.
fn promote_replicas(shared: &Arc<Shared>, dead: &str) -> u64 {
    let mut promoted = 0u64;
    for shard in shared.shards_snapshot() {
        if !shard.is_routable() {
            continue;
        }
        let mut client = shared.forward_client(shard.addr(), key_hash(promoted) ^ 0x50726f6d);
        match client.post(&format!("/internal/promote?for={}", url_encode(dead)), &[]) {
            Ok(response) if response.status == 200 => {
                let doc = json::parse(&response.text()).ok();
                promoted += doc.and_then(|doc| int_field(&doc, "promoted")).unwrap_or(0);
            }
            _ => {
                // A shard that cannot promote right now still holds its
                // replicas durably; the background replay covers the gap.
            }
        }
    }
    if promoted > 0 {
        nptsn_obs::telemetry().router_replica_promotions.add(promoted);
    }
    if nptsn_obs::enabled() {
        nptsn_obs::event(
            nptsn_obs::Level::Info,
            "router.promote",
            &format!("shard {dead}: {promoted} passive replicas promoted"),
        );
    }
    promoted
}

/// Re-admits a dead shard: handshake, ring re-entry at a bumped
/// generation, then a catch-up transfer of everything it missed. Returns
/// whether the shard is live again. Serialized with every other
/// membership transition.
fn attempt_rejoin(shared: &Arc<Shared>, shard: &Arc<Shard>) -> bool {
    let membership = shared.membership.lock().unwrap_or_else(|e| e.into_inner());
    if shard.state() != ShardState::Dead {
        return false; // Raced another transition; nothing to do.
    }
    // Chaos: a faulted rejoin leaves the shard dead — the health loop
    // simply tries again next interval, proving rejoin is re-entrant.
    if nptsn_chaos::point("router.join").is_err() {
        return false;
    }
    shard.set_state(ShardState::Rejoining);
    let admitted = (0..3).any(|_| handshake(shared, shard));
    if !admitted {
        shard.set_state(ShardState::Dead);
        return false;
    }
    // Ring first, catch-up second: the rejoiner starts taking new
    // submissions immediately (its store already holds everything from
    // before it died), and `migrating > 0` turns a premature 404 for an
    // in-transfer record into a retriable 503.
    shard.probe_failures.store(0, Ordering::SeqCst);
    shard.set_state(ShardState::Live);
    shared.swap_ring(shared.current_ring().add(&shard.name));
    nptsn_obs::telemetry().router_rejoins.inc();
    if nptsn_obs::enabled() {
        nptsn_obs::event(
            nptsn_obs::Level::Info,
            "router.rejoin",
            &format!(
                "shard {} rejoined at ring generation {}",
                shard.name,
                shared.ring_generation.load(Ordering::SeqCst)
            ),
        );
    }
    drop(membership);
    let moved = drain_to(shared, shard);
    if nptsn_obs::enabled() {
        nptsn_obs::event(
            nptsn_obs::Level::Info,
            "router.rejoin",
            &format!("shard {}: catch-up transferred {moved} records", shard.name),
        );
    }
    true
}

/// Transfers to `target` every record the current ring places there but
/// some other shard still holds. Runs in passes: the first pass walks
/// each donor's full live export, later passes only the delta after the
/// previous pass's cursor ([`LogStore::export_live_since`]), until a pass
/// moves nothing. Donor logs are read-only; ingest on the target is
/// idempotent, so overlap with concurrent writes is safe and convergence
/// is guaranteed by the cursor monotonically chasing the log tail.
fn drain_to(shared: &Arc<Shared>, target: &Arc<Shard>) -> u64 {
    shared.migrating.fetch_add(1, Ordering::SeqCst);
    let mut cursors: HashMap<String, ExportCursor> = HashMap::new();
    let mut moved_total = 0u64;
    for _pass in 0..5 {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let ring = shared.current_ring();
        let mut moved_this_pass = 0u64;
        for donor in shared.shards_snapshot() {
            if donor.name == target.name || !donor.is_routable() {
                continue;
            }
            let Some(dir) = donor.data_dir() else { continue };
            let cursor = cursors.get(&donor.name).copied();
            let Ok((records, next)) = LogStore::export_live_since(&dir, cursor) else {
                continue;
            };
            cursors.insert(donor.name.clone(), next);
            moved_this_pass += replay::transfer_owned(shared, target, &ring, &records);
        }
        moved_total += moved_this_pass;
        if moved_this_pass == 0 {
            break;
        }
    }
    shared.migrating.fetch_sub(1, Ordering::SeqCst);
    moved_total
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("nptsn-router-conn".to_string())
            .spawn(move || handle_connection(&shared, stream));
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let io_timeout = (shared.config.io_timeout_ms > 0)
        .then(|| Duration::from_millis(shared.config.io_timeout_ms));
    if stream.set_read_timeout(io_timeout).is_err() || stream.set_write_timeout(io_timeout).is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        let started = Instant::now();
        let header_deadline = (shared.config.header_deadline_ms > 0)
            .then(|| started + Duration::from_millis(shared.config.header_deadline_ms));
        let mut is_shutdown = false;
        let response = match read_request_deadline(
            &mut reader,
            shared.config.max_body_bytes,
            header_deadline,
        ) {
            Ok(request) => {
                let _span = nptsn_obs::span("router.request");
                shared.metrics.http_requests.inc();
                is_shutdown = request.method == "POST" && request.path == "/shutdown";
                let mut response = route(shared, &request);
                response.close = response.close
                    || request.wants_close()
                    || shared.shutdown.load(Ordering::SeqCst);
                response
            }
            Err(HttpError::Closed) => return,
            Err(HttpError::BadRequest(message)) => {
                shared.metrics.http_requests.inc();
                let mut r = Response::error(400, &message);
                r.close = true;
                r
            }
            Err(HttpError::PayloadTooLarge { declared, limit }) => {
                shared.metrics.http_requests.inc();
                let mut r = Response::error(
                    413,
                    &format!("body of {declared} bytes exceeds the {limit}-byte limit"),
                );
                r.close = true;
                r
            }
            Err(HttpError::Timeout { mid_request: false }) => return,
            Err(HttpError::Timeout { mid_request: true }) => {
                shared.metrics.http_requests.inc();
                let mut r = Response::error(408, "request timed out");
                r.close = true;
                r
            }
            Err(HttpError::Io(_)) => return,
        };
        shared.metrics.response_counter(response.status).inc();
        let write_ok = response.write_to(&mut writer).is_ok();
        if is_shutdown {
            shared.begin_shutdown();
        }
        if !write_ok || response.close {
            return;
        }
    }
}

/// A `503` with the configured `Retry-After` hint.
fn unavailable(shared: &Arc<Shared>, message: &str) -> Response {
    Response::error(503, message)
        .with_header("Retry-After", shared.config.retry_after_secs.to_string())
}

/// Dispatches one request.
fn route(shared: &Arc<Shared>, request: &Request) -> Response {
    let path = request.path.as_str();
    let method = request.method.as_str();
    match (method, path) {
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/readyz") => {
            if shared.shutdown.load(Ordering::SeqCst) {
                return unavailable(shared, "router is shutting down");
            }
            if shared.live_count() == 0 {
                return unavailable(shared, "no live shards");
            }
            let mut obj = Object::new();
            obj.str("status", "ready");
            obj.int("live_shards", shared.live_count() as u64);
            obj.int("shards_total", shared.shards_snapshot().len() as u64);
            obj.int("ring_generation", shared.ring_generation.load(Ordering::SeqCst));
            obj.int("next_id", shared.next_id.load(Ordering::SeqCst));
            Response::json(200, obj.finish())
        }
        ("POST", "/admin/shards") => route_admin_add_shard(shared, request),
        ("GET", "/metrics") => metrics_federated(shared),
        ("GET", "/debug/flight") => Response::json(200, nptsn_obs::flight_json()),
        ("POST", "/shutdown") => {
            let mut obj = Object::new();
            obj.str("status", "shutting down");
            let mut r = Response::json(200, obj.finish());
            r.close = true;
            r
        }
        ("POST", "/jobs/plan" | "/jobs/verify" | "/jobs/infer" | "/jobs/burn") => {
            route_submit(shared, request)
        }
        ("GET", "/checkpoints") => forward_first_live(shared, request),
        _ if path.starts_with("/checkpoints/") => route_checkpoint(shared, request),
        _ if path.starts_with("/jobs/") => route_job(shared, request),
        _ => Response::error(404, &format!("{method} {path} is not routed")),
    }
}

/// `GET /metrics`: the fleet-wide exposition. The router's own registry
/// and telemetry pass through unchanged; every live shard's `/metrics` is
/// scraped, each sample re-labeled with `shard="<name>"`, and the shard
/// counters additionally summed into `nptsn_fleet_*` series — one scrape
/// target tells the whole fleet's story. A shard that fails to answer
/// (or a `router.scrape` chaos fault) degrades that shard to absent and
/// counts in `nptsn_router_scrape_errors_total`; the exposition itself
/// always renders.
fn metrics_federated(shared: &Arc<Shared>) -> Response {
    let mut scraped: Vec<(String, String)> = Vec::new();
    for shard in shared.shards_snapshot() {
        if !shard.is_routable() {
            continue;
        }
        // Chaos: a faulted scrape is one shard missing from this render —
        // degrade, don't break.
        if nptsn_chaos::point("router.scrape").is_err() {
            shared.metrics.scrape_errors.inc();
            continue;
        }
        let mut client = Client::new(shard.addr());
        match client.get("/metrics") {
            Ok(response) if response.status == 200 => {
                scraped.push((shard.name.clone(), response.text()));
            }
            _ => shared.metrics.scrape_errors.inc(),
        }
    }
    let shards: Vec<(&str, &str)> =
        scraped.iter().map(|(name, text)| (name.as_str(), text.as_str())).collect();
    // Render the local registry after the scrape loop so the scrape
    // errors this very request counted are already in the exposition.
    let local = shared.metrics.render();
    let mut r = Response::text(200, nptsn_obs::promtext::federate(&local, &shards));
    r.content_type = "text/plain; version=0.0.4";
    r
}

/// `GET /jobs/<id>/trace`: the fleet-wide timeline for one job as a
/// Chrome trace-event document (loadable in Perfetto / `chrome://tracing`).
/// The router contributes its own forward/replay spans straight from the
/// flight ring; every live shard is asked for its persisted fragment and
/// the pieces merge under one trace id, each process on its own `pid` row.
/// A fragment recorded by a since-dead shard still appears — replay moved
/// the record to a survivor, and the record names its original recorder.
fn merged_trace(shared: &Arc<Shared>, id: u64) -> Response {
    let trace = trace_for_job(id);
    let router_spans: Vec<MergedSpan> = nptsn_obs::flight_spans_for_trace(trace.trace_id)
        .into_iter()
        .map(|e| MergedSpan {
            name: e.name.to_string(),
            tid: e.tid,
            start_ns: e.ts_ns,
            dur_ns: e.dur_ns,
            self_ns: e.dur_ns,
            trace_id: e.trace_id,
        })
        .collect();
    // One process row per known shard (dead ones included — their spans
    // may have been replayed onto a survivor), keyed by the name the
    // *record* carries, which is the shard that recorded it.
    let fleet = shared.shards_snapshot();
    let mut order: Vec<String> = fleet.iter().map(|s| s.name.clone()).collect();
    let mut per_shard: std::collections::BTreeMap<String, Vec<MergedSpan>> =
        order.iter().map(|name| (name.clone(), Vec::new())).collect();
    let mut found = false;
    for shard in &fleet {
        if !shard.is_routable() {
            continue;
        }
        let mut client = Client::new(shard.addr());
        let Ok(response) = client.get(&format!("/jobs/{id}/trace")) else { continue };
        if response.status != 200 {
            continue;
        }
        found = true;
        let Ok(doc) = json::parse(&response.text()) else { continue };
        let recorder = doc
            .get("shard")
            .and_then(|v| v.as_str())
            .filter(|s| !s.is_empty())
            .unwrap_or(&shard.name)
            .to_string();
        let Some(spans) = doc.get("spans").and_then(|v| v.as_arr()) else { continue };
        let bucket = per_shard.entry(recorder.clone()).or_insert_with(|| {
            order.push(recorder.clone());
            Vec::new()
        });
        for span in spans {
            let name = span.get("name").and_then(|v| v.as_str()).unwrap_or("?").to_string();
            let num = |key: &str| span.get(key).and_then(|v| v.as_num()).unwrap_or(0.0) as u64;
            bucket.push(MergedSpan {
                name,
                tid: num("tid"),
                start_ns: num("start_ns"),
                dur_ns: num("dur_ns"),
                self_ns: num("self_ns"),
                trace_id: trace.trace_id,
            });
        }
    }
    if !found && router_spans.is_empty() {
        return Response::error(404, &format!("no trace for job {id}"));
    }
    let mut processes = vec![ProcessTrace { name: "router".to_string(), spans: router_spans }];
    for name in &order {
        processes.push(ProcessTrace {
            name: name.clone(),
            spans: per_shard.remove(name).unwrap_or_default(),
        });
    }
    Response::json(200, nptsn_obs::chrome_trace_merged(&processes))
}

/// `GET /healthz`: the router's own liveness plus the shard membership
/// table (state, consecutive probe failures).
fn healthz(shared: &Arc<Shared>) -> Response {
    let shards: Vec<String> = shared
        .shards_snapshot()
        .iter()
        .map(|s| {
            let mut obj = Object::new();
            obj.str("name", &s.name);
            obj.str("addr", &s.addr().to_string());
            obj.str("state", s.state().label());
            obj.bool("alive", s.is_routable());
            obj.int("probe_failures", s.probe_failures.load(Ordering::SeqCst) as u64);
            obj.finish()
        })
        .collect();
    let mut obj = Object::new();
    obj.str("status", "ok");
    obj.int("live_shards", shared.live_count() as u64);
    obj.int("ring_shards", shared.current_ring().len() as u64);
    obj.int("ring_generation", shared.ring_generation.load(Ordering::SeqCst));
    obj.bool("replaying", shared.replaying.load(Ordering::SeqCst));
    obj.bool("migrating", shared.migrating.load(Ordering::SeqCst) > 0);
    obj.raw("shards", &format!("[{}]", shards.join(",")));
    Response::json(200, obj.finish())
}

/// `POST /admin/shards`: live membership change. The JSON body names a
/// shard (`{"name":..,"addr":..,"data_dir":..}`). An unknown name is a
/// scale-out join: the shard is handshake-probed, appended to the fleet,
/// entered on the ring at a bumped generation, and a background migration
/// drain moves the ≤1/N of existing records the ring now places on it. A
/// known *dead* name is a re-announcement (the restarted process rarely
/// gets its old port back): the address is updated and the full rejoin
/// path — handshake, ring re-entry, synchronous catch-up — runs before
/// the response. A known live name is a `409`.
fn route_admin_add_shard(shared: &Arc<Shared>, request: &Request) -> Response {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "body is not UTF-8");
    };
    let Ok(doc) = json::parse(text) else {
        return Response::error(400, "body is not valid JSON");
    };
    let Some(name) = doc.get("name").and_then(|v| v.as_str()).filter(|s| !s.is_empty())
    else {
        return Response::error(400, "missing shard name");
    };
    let Some(addr) =
        doc.get("addr").and_then(|v| v.as_str()).and_then(|s| s.parse::<SocketAddr>().ok())
    else {
        return Response::error(400, "missing or invalid shard addr");
    };
    let data_dir = doc
        .get("data_dir")
        .and_then(|v| v.as_str())
        .filter(|s| !s.is_empty())
        .map(PathBuf::from);

    if let Some(existing) = shared.shard_named(name) {
        if existing.state() != ShardState::Dead {
            return Response::error(
                409,
                &format!("shard {name} is already {}", existing.state().label()),
            );
        }
        // Re-announcement of a dead shard at a (possibly new) address.
        *existing.addr.lock().unwrap_or_else(|e| e.into_inner()) = addr;
        existing.clear_pool();
        if data_dir.is_some() {
            *existing.data_dir.lock().unwrap_or_else(|e| e.into_inner()) = data_dir;
        }
        // `attempt_rejoin` can lose a benign race: the health loop's own
        // dead-shard handshake may complete the rejoin first, in which
        // case the shard is already routable and this announcement
        // succeeded in every way that matters.
        return if attempt_rejoin(shared, &existing) || existing.is_routable() {
            let mut obj = Object::new();
            obj.str("shard", name);
            obj.str("status", "rejoined");
            obj.int("ring_generation", shared.ring_generation.load(Ordering::SeqCst));
            Response::json(200, obj.finish())
        } else {
            Response::error(502, &format!("shard {name} failed the re-admission handshake"))
        };
    }

    // Scale-out join of a brand-new shard.
    if nptsn_chaos::point("router.join").is_err() {
        return unavailable(shared, "membership change rejected, retry");
    }
    let newcomer = Arc::new(Shard::new(&ShardSpec {
        name: name.to_string(),
        addr,
        data_dir,
    }));
    if !(0..3).any(|_| handshake(shared, &newcomer)) {
        return Response::error(502, &format!("shard {name} failed the admission handshake"));
    }
    {
        let membership = shared.membership.lock().unwrap_or_else(|e| e.into_inner());
        {
            let mut shards = shared.shards.write().unwrap_or_else(|e| e.into_inner());
            if shards.iter().any(|s| s.name == newcomer.name) {
                return Response::error(409, &format!("shard {name} joined concurrently"));
            }
            shards.push(Arc::clone(&newcomer));
        }
        shared.swap_ring(shared.current_ring().add(&newcomer.name));
        drop(membership);
    }
    if nptsn_obs::enabled() {
        nptsn_obs::event(
            nptsn_obs::Level::Info,
            "router.join",
            &format!(
                "shard {name} joined at ring generation {}",
                shared.ring_generation.load(Ordering::SeqCst)
            ),
        );
    }
    // The newcomer serves fresh submissions immediately; existing records
    // it now owns migrate over in the background (`migrating > 0` shields
    // reads racing the drain).
    let drain_shared = Arc::clone(shared);
    let drain_target = Arc::clone(&newcomer);
    let _ = std::thread::Builder::new()
        .name("nptsn-router-migrate".to_string())
        .spawn(move || {
            let moved = drain_to(&drain_shared, &drain_target);
            if nptsn_obs::enabled() {
                nptsn_obs::event(
                    nptsn_obs::Level::Info,
                    "router.migrate",
                    &format!(
                        "shard {}: migration drain moved {moved} records",
                        drain_target.name
                    ),
                );
            }
        });
    let mut obj = Object::new();
    obj.str("shard", name);
    obj.str("status", "joined");
    obj.int("ring_generation", shared.ring_generation.load(Ordering::SeqCst));
    obj.int("live_shards", shared.live_count() as u64);
    Response::json(200, obj.finish())
}

/// Percent-encodes one query component for the forwarded request line.
/// The inverse of the minimal `url_decode` on the other side.
fn url_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Rebuilds the request target (path + encoded query) for forwarding.
fn forward_target(request: &Request) -> String {
    let mut target = request.path.clone();
    for (i, (key, value)) in request.query.iter().enumerate() {
        target.push(if i == 0 { '?' } else { '&' });
        target.push_str(&url_encode(key));
        if !value.is_empty() {
            target.push('=');
            target.push_str(&url_encode(value));
        }
    }
    target
}

/// Headers worth forwarding: everything except the hop-by-hop fields the
/// client rebuilds and the id/trace/replication headers the router owns.
/// The router is the trace minter — an incoming `X-Nptsn-Trace` is
/// dropped, never relayed, so one job cannot impersonate another's
/// timeline; `X-Nptsn-Replica` and `X-Nptsn-Passive-For` are likewise
/// stripped so a client cannot steer replication.
fn forward_headers(
    request: &Request,
    job_id: Option<u64>,
    trace: Option<TraceContext>,
    replica: Option<SocketAddr>,
) -> Vec<(&str, String)> {
    let mut headers: Vec<(&str, String)> = request
        .headers
        .iter()
        .filter(|(name, _)| {
            !matches!(
                name.as_str(),
                "host"
                    | "content-length"
                    | "connection"
                    | "x-nptsn-job-id"
                    | "x-nptsn-trace"
                    | "x-nptsn-replica"
                    | "x-nptsn-passive-for"
            )
        })
        .map(|(name, value)| (name.as_str(), value.clone()))
        .collect();
    if let Some(id) = job_id {
        headers.push(("X-Nptsn-Job-Id", id.to_string()));
    }
    if let Some(trace) = trace {
        headers.push((nptsn_obs::TRACE_HEADER, trace.header_value()));
    }
    if let Some(addr) = replica {
        headers.push(("X-Nptsn-Replica", addr.to_string()));
    }
    headers
}

/// Forwards `request` to `shard`. The chaos site `router.forward` fires
/// before any bytes leave the router, so an injected fault is always a
/// clean un-acked failure. With `replica` set, the target shard mirrors
/// the accepted record to that address as a passive copy.
fn forward(
    shared: &Arc<Shared>,
    shard: &Arc<Shard>,
    request: &Request,
    job_id: Option<u64>,
    trace: Option<TraceContext>,
    replica: Option<SocketAddr>,
) -> io::Result<ClientResponse> {
    nptsn_chaos::point("router.forward").map_err(io::Error::from)?;
    nptsn_obs::telemetry().router_forwards.inc();
    let seed = key_hash(job_id.unwrap_or(0));
    let mut client = shard.checkout().with_backoff(shared.forward_backoff(seed));
    let started = Instant::now();
    let result = client.send(
        &request.method,
        &forward_target(request),
        &forward_headers(request, job_id, trace, replica),
        &request.body,
    );
    shared.metrics.forward_seconds.observe(started.elapsed().as_secs_f64());
    if result.is_ok() {
        shard.checkin(client);
    }
    result
}

/// One forwarding attempt with no client-side retries — for callers that
/// own the retry loop themselves and re-resolve ownership between
/// attempts (see `route_job`), so a death mid-request fails over with
/// the ring instead of pinning on the dead shard's backoff schedule.
fn forward_once(
    shared: &Arc<Shared>,
    shard: &Arc<Shard>,
    request: &Request,
    trace: Option<TraceContext>,
) -> io::Result<ClientResponse> {
    nptsn_chaos::point("router.forward").map_err(io::Error::from)?;
    nptsn_obs::telemetry().router_forwards.inc();
    let mut client = shard.checkout();
    let started = Instant::now();
    let result = client.send(
        &request.method,
        &forward_target(request),
        &forward_headers(request, None, trace, None),
        &request.body,
    );
    shared.metrics.forward_seconds.observe(started.elapsed().as_secs_f64());
    if result.is_ok() {
        shard.checkin(client);
    }
    result
}

/// Maps an upstream response onto the router's (static) content types.
fn relay(shared: &Arc<Shared>, upstream: ClientResponse) -> Response {
    let content_type = match upstream.header("content-type") {
        Some("application/json") => "application/json",
        Some(ct) if ct.starts_with("text/plain; version=0.0.4") => "text/plain; version=0.0.4",
        Some(ct) if ct.starts_with("text/plain") => "text/plain; charset=utf-8",
        _ => "application/octet-stream",
    };
    let mut response = Response {
        status: upstream.status,
        content_type,
        body: upstream.body,
        extra_headers: Vec::new(),
        close: false,
    };
    if let Some(hint) = upstream.headers.iter().find(|(n, _)| n == "retry-after") {
        response = response.with_header("Retry-After", hint.1.clone());
    } else if upstream.status == 503 {
        response =
            response.with_header("Retry-After", shared.config.retry_after_secs.to_string());
    }
    response
}

/// `POST /jobs/*`: assign an id, place it, forward with `X-Nptsn-Job-Id`.
/// A `409` means the watermark lagged a shard (e.g. a router restart): the
/// id is burned, the watermark refreshed from the fleet and the submission
/// retried under a fresh id. A transport failure is answered `503` — the
/// job was never acked, so the client's retry cannot duplicate it.
fn route_submit(shared: &Arc<Shared>, request: &Request) -> Response {
    for _ in 0..3 {
        let ring = shared.current_ring();
        let id = shared.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        let Some(owner) = ring.place(id).and_then(|name| shared.routable_shard(name)) else {
            return unavailable(shared, "no live shards");
        };
        // Replication: name the key's ring successor so the owner mirrors
        // the accepted record there as a passive replica. The successor
        // is exactly where the key lands if the owner leaves the ring, so
        // a later promotion never moves the record a second time.
        let replica = (shared.config.replication_factor >= 2)
            .then(|| ring.successor(id).and_then(|name| shared.routable_shard(name)))
            .flatten()
            .map(|shard| shard.addr());
        // Mint the job's trace context and work under it: the forward
        // span below lands in the flight ring tagged with the same trace
        // id the shard adopts from the stamped header.
        let trace = trace_for_job(id);
        let _trace = nptsn_obs::with_trace(Some(trace));
        let _span = nptsn_obs::span("router.forward");
        match forward(shared, &owner, request, Some(id), Some(trace), replica) {
            Ok(upstream) if upstream.status == 409 => {
                shared.metrics.submit_conflicts.inc();
                for other in shared.shards_snapshot() {
                    if other.is_routable() {
                        probe_shard(shared, &other);
                    }
                }
            }
            Ok(upstream) => return relay(shared, upstream),
            Err(_) => {
                shared.metrics.forward_errors.inc();
                return unavailable(shared, "shard unreachable, job not accepted");
            }
        }
    }
    unavailable(shared, "id watermark contention, retry")
}

/// `GET`/`DELETE /jobs/<id>[...]`: forward to the ring owner of `<id>`.
fn route_job(shared: &Arc<Shared>, request: &Request) -> Response {
    let rest = &request.path["/jobs/".len()..];
    let Ok(id) = rest.split('/').next().unwrap_or("").parse::<u64>() else {
        return Response::error(400, "job id is not a number");
    };
    if request.method == "GET" && rest.split('/').nth(1) == Some("trace") {
        return merged_trace(shared, id);
    }
    let trace = trace_for_job(id);
    let _trace = nptsn_obs::with_trace(Some(trace));
    let _span = nptsn_obs::span("router.forward");
    // Job reads re-resolve ownership between attempts: a poll caught in
    // flight by a shard death migrates to the new owner the moment the
    // ring is swapped, instead of burning a whole retry budget against
    // the dead address. This is what makes replica promotion pause-free
    // from the client's side — the first post-swap attempt already lands
    // on the successor holding the promoted record.
    let deadline = Instant::now() + Duration::from_millis(shared.config.forward_deadline_ms);
    let mut delay = Duration::from_millis(2);
    loop {
        let ring = shared.current_ring();
        let Some(owner) = ring.place(id).and_then(|name| shared.routable_shard(name)) else {
            return unavailable(shared, "no live shards");
        };
        let in_transfer = shared.replaying.load(Ordering::SeqCst)
            || shared.migrating.load(Ordering::SeqCst) > 0;
        match forward_once(shared, &owner, request, Some(trace)) {
            Ok(upstream) if upstream.status == 404 && in_transfer => {
                // The job may be mid-flight between shards (dead-log
                // replay, rejoin catch-up, or a migration drain); a retry
                // lands after the transfer settles.
                return unavailable(shared, "job may be mid-transfer, retry");
            }
            Ok(upstream) => return relay(shared, upstream),
            Err(_) => {
                shared.metrics.forward_errors.inc();
                if Instant::now() + delay > deadline {
                    return unavailable(shared, "shard unreachable");
                }
                std::thread::sleep(delay);
                // Cap low: each retry re-resolves the ring, so the cap
                // bounds how far past a failover's ring swap a caught
                // request can oversleep — it is paid straight into the
                // kill-to-served latency the fleet promises.
                delay = (delay * 2).min(Duration::from_millis(10));
            }
        }
    }
}

/// Forwards a read to the first live shard (checkpoint listings are
/// identical fleet-wide because writes fan out to every live shard).
fn forward_first_live(shared: &Arc<Shared>, request: &Request) -> Response {
    let Some(shard) = shared.shards_snapshot().into_iter().find(|s| s.is_routable()) else {
        return unavailable(shared, "no live shards");
    };
    match forward(shared, &shard, request, None, None, None) {
        Ok(upstream) => relay(shared, upstream),
        Err(_) => {
            shared.metrics.forward_errors.inc();
            unavailable(shared, "shard unreachable")
        }
    }
}

/// `/checkpoints/<name>`: reads go to the first live shard; writes
/// (`PUT`/`DELETE`) fan out to **every** live shard so any shard can run
/// an infer job against any registered checkpoint. A partial write is a
/// `503`: the client retries the whole fan-out (registration is
/// idempotent shard-side).
fn route_checkpoint(shared: &Arc<Shared>, request: &Request) -> Response {
    if request.method != "PUT" && request.method != "DELETE" {
        return forward_first_live(shared, request);
    }
    let mut last = None;
    for shard in shared.shards_snapshot() {
        if !shard.is_routable() {
            continue;
        }
        match forward(shared, &shard, request, None, None, None) {
            Ok(upstream) if upstream.status < 300 => last = Some(upstream),
            Ok(upstream) => return relay(shared, upstream),
            Err(_) => {
                shared.metrics.forward_errors.inc();
                return unavailable(shared, "checkpoint fan-out incomplete, retry");
            }
        }
    }
    match last {
        Some(upstream) => relay(shared, upstream),
        None => unavailable(shared, "no live shards"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_targets_round_trip_the_query() {
        let request = Request {
            method: "POST".to_string(),
            path: "/jobs/burn".to_string(),
            query: vec![("millis".to_string(), "5".to_string()), ("q".to_string(), "a b".to_string())],
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(forward_target(&request), "/jobs/burn?millis=5&q=a%20b");
    }

    #[test]
    fn hop_by_hop_headers_are_stripped() {
        let request = Request {
            method: "POST".to_string(),
            path: "/jobs/plan".to_string(),
            query: Vec::new(),
            headers: vec![
                ("host".to_string(), "x".to_string()),
                ("content-length".to_string(), "3".to_string()),
                ("connection".to_string(), "close".to_string()),
                ("x-nptsn-job-id".to_string(), "999".to_string()),
                ("x-nptsn-trace".to_string(), "forged".to_string()),
                ("x-nptsn-replica".to_string(), "10.0.0.1:1".to_string()),
                ("x-nptsn-passive-for".to_string(), "mallory".to_string()),
                ("x-problem-length".to_string(), "7".to_string()),
            ],
            body: Vec::new(),
        };
        let headers = forward_headers(&request, Some(12), None, None);
        assert_eq!(
            headers,
            vec![("x-problem-length", "7".to_string()), ("X-Nptsn-Job-Id", "12".to_string())]
        );
        // With a minted trace, the router's own header is appended — the
        // forged incoming one stays stripped.
        let trace = trace_for_job(12);
        let headers = forward_headers(&request, Some(12), Some(trace), None);
        assert!(headers
            .iter()
            .any(|(name, value)| *name == "X-Nptsn-Trace" && *value == trace.header_value()));
        // The replica target the router itself picks is stamped; the
        // client-supplied one above stays stripped.
        let replica: SocketAddr = "127.0.0.1:9999".parse().unwrap();
        let headers = forward_headers(&request, Some(12), None, Some(replica));
        assert!(headers
            .iter()
            .any(|(name, value)| *name == "X-Nptsn-Replica" && *value == "127.0.0.1:9999"));
        assert!(!headers.iter().any(|(_, value)| value == "10.0.0.1:1"));
    }

    #[test]
    fn int_field_reads_non_negative_integers_only() {
        let field = |text: &str| int_field(&json::parse(text).unwrap(), "next_id");
        assert_eq!(field("{\"a\":3,\"next_id\":41}"), Some(41));
        assert_eq!(field("{\"next_id\":\"x\"}"), None);
        assert_eq!(field("{}"), None);
        assert_eq!(field("{\"next_id\":-1}"), None);
        assert_eq!(field("{\"next_id\":4.5}"), None);
    }

    #[test]
    fn shard_states_round_trip_and_label() {
        for state in
            [ShardState::Live, ShardState::Suspect, ShardState::Dead, ShardState::Rejoining]
        {
            assert_eq!(ShardState::from_u8(state as u8), state);
            assert!(!state.label().is_empty());
        }
        let spec = ShardSpec {
            name: "s0".to_string(),
            addr: "127.0.0.1:1".parse().unwrap(),
            data_dir: None,
        };
        let shard = Shard::new(&spec);
        assert_eq!(shard.state(), ShardState::Live);
        assert!(shard.is_routable());
        shard.set_state(ShardState::Suspect);
        assert!(shard.is_routable());
        shard.set_state(ShardState::Dead);
        assert!(!shard.is_routable());
        shard.set_state(ShardState::Rejoining);
        assert!(!shard.is_routable());
    }

    #[test]
    fn job_traces_are_deterministic_and_distinct() {
        assert_eq!(trace_for_job(7), trace_for_job(7));
        assert_ne!(trace_for_job(7).trace_id, trace_for_job(8).trace_id);
        assert_ne!(trace_for_job(7).trace_id, 0);
    }

    #[test]
    fn bind_rejects_empty_and_duplicate_fleets() {
        assert!(Router::bind(RouterConfig::default()).is_err());
        let spec = ShardSpec {
            name: "s0".to_string(),
            addr: "127.0.0.1:1".parse().unwrap(),
            data_dir: None,
        };
        let config = RouterConfig {
            shards: vec![spec.clone(), spec],
            ..RouterConfig::default()
        };
        assert!(Router::bind(config).is_err());
    }
}
