//! The HTTP server runtime shared by the `nptsn serve` shard
//! ([`crate::Server`]) and the `nptsn router`: the listener, the acceptor,
//! the keep-alive connection loop under its [`Limits`] with its
//! `400`/`408`/`413` answers, the per-request metrics, `POST /shutdown`,
//! `GET /debug/flight`, and the [`ShutdownLatch`] behind `stop`/`wait`.
//! A server plugs in as a [`Service`], whose constants fix what differs
//! between the two; none of it is a user setting.

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nptsn_format::json::Object;
use nptsn_obs::metrics::{Counter, Histogram, Registry};
use nptsn_obs::TraceContext;

use crate::http::{read_request_deadline, HttpError, Request, Response};

/// Per-connection limits, as documented on [`crate::ServeConfig`]. A zero
/// timeout disables it.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Read/write timeout of every socket operation, in milliseconds.
    pub io_timeout_ms: u64,
    /// Total deadline for reading one request head, in milliseconds.
    pub header_deadline_ms: u64,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_body_bytes: 4 * 1024 * 1024,
            io_timeout_ms: 30_000,
            header_deadline_ms: 10_000,
        }
    }
}

/// A server that runs on this runtime.
pub trait Service: Send + Sync + 'static {
    /// The span every request is answered under.
    const SPAN: &'static str;
    /// The prefix of the per-request metric names
    /// (`<prefix>_http_requests_total`, …).
    const METRIC_PREFIX: &'static str;
    /// The prefix of the runtime's thread names (`<prefix>-acceptor`,
    /// `<prefix>-conn`).
    const THREAD_PREFIX: &'static str;
    /// Whether the chaos sites `serve.accept` and `serve.conn.write` fire.
    const CHAOS_SITES: bool;
    /// Whether a request's `X-Nptsn-Trace` context is adopted before its
    /// span opens.
    const ADOPT_TRACE: bool;
    /// Answers one request. `POST /shutdown` and `GET /debug/flight` are
    /// answered by the runtime and never reach it.
    const ROUTE: fn(&Arc<Self>, &Request) -> Response;

    /// The registry the per-request series are registered on.
    fn registry(&self) -> &Registry;

    /// Runs once when shutdown begins: after the answer to
    /// `POST /shutdown` is on the wire, or on [`HttpServer::stop`].
    fn on_shutdown(&self) {}
}

/// The shutdown latch: set once, by `POST /shutdown` or
/// [`HttpServer::stop`], and never reset.
#[derive(Debug, Default)]
pub struct ShutdownLatch(OnceLock<()>);

impl ShutdownLatch {
    /// Whether shutdown has begun.
    pub fn is_set(&self) -> bool {
        self.0.get().is_some()
    }

    /// Sets the latch; returns whether this call was the one that set it.
    pub(crate) fn trip(&self) -> bool {
        self.0.set(()).is_ok()
    }
}

/// A bound listener whose acceptor has not started, and the latch the
/// server it starts will stop on.
#[derive(Debug)]
pub struct Listener {
    listener: TcpListener,
    local_addr: SocketAddr,
    shutdown: Arc<ShutdownLatch>,
}

impl Listener {
    /// Arms the flight recorder and binds `addr` (`host:port`; port `0`
    /// picks an ephemeral one). Nothing is accepted before
    /// [`Listener::serve`].
    pub fn bind(addr: &str) -> io::Result<Listener> {
        // Arm the flight recorder before anything can record: it is the
        // always-on ring behind `/debug/flight` and the panic/drain dumps.
        // The first call sizes the ring, so a capacity the CLI set earlier
        // (`--flight-capacity`) wins over this default.
        nptsn_obs::flight_init(0);
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Listener { listener, local_addr, shutdown: Arc::default() })
    }

    /// The latch the server started from this listener stops on.
    pub fn shutdown_latch(&self) -> Arc<ShutdownLatch> {
        Arc::clone(&self.shutdown)
    }

    /// Starts the acceptor for `service`. `threads` are the server's own
    /// threads; [`HttpServer::wait`] joins them after the acceptor.
    pub fn serve<S: Service>(
        self,
        service: Arc<S>,
        limits: Limits,
        threads: Vec<JoinHandle<()>>,
    ) -> HttpServer<S> {
        let prefix = S::METRIC_PREFIX;
        let registry = service.registry();
        let requests =
            registry.counter(&format!("{prefix}_http_requests_total"), "HTTP requests received");
        let seconds = registry.histogram(
            &format!("{prefix}_http_request_seconds"),
            "HTTP request handling latency",
            &Histogram::latency_bounds(),
        );
        let runtime = Arc::new(Runtime {
            requests,
            seconds,
            responses: format!("{prefix}_http_responses_total"),
            service,
            limits,
            local_addr: self.local_addr,
            shutdown: self.shutdown,
        });
        let acceptor = {
            let runtime = Arc::clone(&runtime);
            std::thread::Builder::new()
                .name(format!("{}-acceptor", S::THREAD_PREFIX))
                .spawn(move || accept_loop(&self.listener, &runtime))
                .expect("spawn acceptor thread")
        };
        HttpServer { runtime, acceptor, threads }
    }
}

/// A server running on the runtime: its acceptor, its own threads, and
/// the latch they stop on.
pub struct HttpServer<S: Service> {
    runtime: Arc<Runtime<S>>,
    acceptor: JoinHandle<()>,
    threads: Vec<JoinHandle<()>>,
}

impl<S: Service> HttpServer<S> {
    /// The bound address, with the resolved port.
    pub fn local_addr(&self) -> SocketAddr {
        self.runtime.local_addr
    }

    /// The service behind the runtime.
    pub fn service(&self) -> &Arc<S> {
        &self.runtime.service
    }

    /// Begins shutdown, as `POST /shutdown` would.
    pub fn stop(&self) {
        self.runtime.begin_shutdown();
    }

    /// Blocks until shutdown begins, then joins the acceptor and every
    /// server thread, then parks the flight ring on disk.
    pub fn wait(self) {
        self.runtime.shutdown.0.wait();
        let _ = self.acceptor.join();
        for thread in self.threads {
            let _ = thread.join();
        }
        // Last act before the process exits: park the flight ring on disk
        // (when a dump dir is configured) so "what were the final moments"
        // survives the shutdown.
        nptsn_obs::flight_dump_auto("drain");
    }
}

/// The runtime state the acceptor and the connection threads share.
struct Runtime<S> {
    service: Arc<S>,
    limits: Limits,
    local_addr: SocketAddr,
    shutdown: Arc<ShutdownLatch>,
    requests: Arc<Counter>,
    seconds: Arc<Histogram>,
    /// The name of the per-status-code response counter family.
    responses: String,
}

impl<S: Service> Runtime<S> {
    /// Begins shutdown exactly once: trip the latch (which releases
    /// `wait()`), run the service's hook, wake the acceptor.
    fn begin_shutdown(&self) {
        if !self.shutdown.trip() {
            return;
        }
        self.service.on_shutdown();
        // Wake the acceptor so it observes the latch; errors are fine (the
        // listener may already be gone).
        let _ = TcpStream::connect(self.local_addr);
    }

    /// Answers one request read off the wire, under the request span.
    fn answer(&self, request: &Request) -> Response {
        // A shard adopts the caller's (router-minted) trace context before
        // opening its span, so this span and everything the request causes
        // share one fleet-wide trace id.
        let adopted = S::ADOPT_TRACE
            .then(|| request.header(nptsn_obs::TRACE_HEADER).and_then(TraceContext::parse))
            .flatten();
        let _trace = nptsn_obs::with_trace(adopted);
        let _span = nptsn_obs::span(S::SPAN);
        self.requests.inc();
        let mut response = match (request.method.as_str(), request.path.as_str()) {
            // Only the confirmation: the connection loop begins shutdown
            // once it is flushed.
            ("POST", "/shutdown") => {
                let mut obj = Object::new();
                obj.str("status", "shutting down");
                let mut r = Response::json(200, obj.finish());
                r.close = true;
                r
            }
            // The flight recorder: the last few thousand spans/events this
            // process recorded, always on, for post-hoc "what just happened".
            ("GET", "/debug/flight") => Response::json(200, nptsn_obs::flight_json()),
            _ => (S::ROUTE)(&self.service, request),
        };
        if nptsn_obs::enabled() {
            nptsn_obs::event(
                nptsn_obs::Level::Debug,
                S::SPAN,
                &format!("{} {} -> {}", request.method, request.path, response.status),
            );
        }
        response.close = response.close || request.wants_close() || self.shutdown.is_set();
        response
    }
}

fn accept_loop<S: Service>(listener: &TcpListener, runtime: &Arc<Runtime<S>>) {
    for stream in listener.incoming() {
        if runtime.shutdown.is_set() {
            return;
        }
        let Ok(stream) = stream else { continue };
        // Chaos: a faulted accept drops the connection before a handler
        // exists — the client sees a reset and must retry.
        if S::CHAOS_SITES && nptsn_chaos::point("serve.accept").is_err() {
            drop(stream);
            continue;
        }
        let runtime = Arc::clone(runtime);
        // Connection handlers are detached: they end when the client
        // closes or after the first response once shutdown begins.
        let _ = std::thread::Builder::new()
            .name(format!("{}-conn", S::THREAD_PREFIX))
            .spawn(move || handle_connection(&runtime, stream));
    }
}

fn handle_connection<S: Service>(runtime: &Runtime<S>, stream: TcpStream) {
    let limits = runtime.limits;
    // Socket timeouts first: every read and write on this connection is
    // individually bounded. Both halves share the underlying socket, so
    // setting them once on the original stream covers the clone too.
    let io_timeout =
        (limits.io_timeout_ms > 0).then(|| Duration::from_millis(limits.io_timeout_ms));
    if stream.set_read_timeout(io_timeout).is_err() || stream.set_write_timeout(io_timeout).is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        let started = Instant::now();
        let header_deadline = (limits.header_deadline_ms > 0)
            .then(|| started + Duration::from_millis(limits.header_deadline_ms));
        let mut is_shutdown = false;
        let response =
            match read_request_deadline(&mut reader, limits.max_body_bytes, header_deadline) {
                Ok(request) => {
                    is_shutdown = request.method == "POST" && request.path == "/shutdown";
                    runtime.answer(&request)
                }
                Err(error) => match unreadable(error) {
                    Some(response) => {
                        runtime.requests.inc();
                        response
                    }
                    None => return,
                },
            };
        runtime.seconds.observe(started.elapsed().as_secs_f64());
        let code = format!("code=\"{}\"", response.status);
        let registry = runtime.service.registry();
        registry.counter_labeled(&runtime.responses, &code, "HTTP responses by status code").inc();
        // Chaos: a faulted write drops the connection with the response
        // unsent — the client sees the connection die mid-exchange.
        if S::CHAOS_SITES && nptsn_chaos::point("serve.conn.write").is_err() {
            return;
        }
        let write_ok = response.write_to(&mut writer).is_ok();
        // Shutdown begins only after the 200 is on the wire: `wait()` (and
        // thus process exit) races this thread, so flushing first is what
        // lets the requester actually see the confirmation.
        if is_shutdown {
            runtime.begin_shutdown();
        }
        if !write_ok || response.close {
            return;
        }
    }
}

/// The answer to a request that could not be read, or `None` when the
/// connection simply ends: a clean close, a socket error, or an idle
/// keep-alive connection timing out (the normal end of a session).
fn unreadable(error: HttpError) -> Option<Response> {
    let (status, message) = match error {
        HttpError::Closed | HttpError::Io(_) | HttpError::Timeout { mid_request: false } => {
            return None
        }
        HttpError::BadRequest(message) => (400, message),
        HttpError::Timeout { mid_request: true } => (408, error.to_string()),
        HttpError::PayloadTooLarge { .. } => (413, error.to_string()),
    };
    let mut response = Response::error(status, &message);
    // Part of the request is still on the wire: the connection cannot be
    // reused.
    response.close = true;
    Some(response)
}

/// A registry's Prometheus text exposition followed by the process-wide
/// telemetry, which every server's `/metrics` includes.
pub fn exposition(registry: &Registry) -> String {
    let mut text = registry.render();
    text.push_str(&nptsn_obs::telemetry().registry.render());
    text
}

/// A `/metrics` answer: Prometheus text exposition format version 0.0.4.
pub fn metrics_response(text: String) -> Response {
    let mut response = Response::text(200, text);
    response.content_type = "text/plain; version=0.0.4";
    response
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;
    use crate::client::Client;

    /// Answers every routed request with its path and counts the shutdown
    /// hooks it sees.
    #[derive(Default)]
    struct Echo {
        registry: Registry,
        hooks: AtomicU64,
    }

    impl Service for Echo {
        const SPAN: &'static str = "test.request";
        const METRIC_PREFIX: &'static str = "test";
        const THREAD_PREFIX: &'static str = "test-http";
        const CHAOS_SITES: bool = false;
        const ADOPT_TRACE: bool = false;
        const ROUTE: fn(&Arc<Echo>, &Request) -> Response =
            |_, request| Response::text(200, request.path.clone());

        fn registry(&self) -> &Registry {
            &self.registry
        }

        fn on_shutdown(&self) {
            self.hooks.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn the_runtime_answers_its_own_routes_and_shuts_down_once() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let latch = listener.shutdown_latch();
        let http = listener.serve(Arc::new(Echo::default()), Limits::default(), Vec::new());
        let service = Arc::clone(http.service());
        let mut client = Client::new(http.local_addr());

        let routed = client.get("/anything").unwrap();
        assert_eq!((routed.status, routed.text()), (200, "/anything".to_string()));
        let flight = client.get("/debug/flight").unwrap();
        assert_eq!(flight.status, 200);
        assert!(flight.text().contains("\"entries\":["), "{}", flight.text());

        // The confirmation arrives on a closing connection; shutdown
        // begins once it is flushed. `stop` racing it is a no-op: the
        // service's hook runs exactly once.
        let confirmed = client.post("/shutdown", &[]).unwrap();
        assert_eq!(confirmed.status, 200);
        assert!(confirmed.text().contains("shutting down"), "{}", confirmed.text());
        assert_eq!(confirmed.header("connection"), Some("close"));
        http.stop();
        http.wait();
        assert!(latch.is_set());
        assert_eq!(service.hooks.load(Ordering::SeqCst), 1);

        // Every answer is counted under the service's prefix.
        let text = exposition(&service.registry);
        assert!(text.contains("\ntest_http_requests_total 3\n"), "{text}");
        assert!(text.contains("test_http_responses_total{code=\"200\"} 3"), "{text}");
        assert!(text.contains("\ntest_http_request_seconds_count 3\n"), "{text}");
    }

    #[test]
    fn unreadable_requests_map_to_400_408_413_and_close() {
        let answer = |error| unreadable(error).map(|r: Response| (r.status, r.close));
        assert_eq!(answer(HttpError::BadRequest("x".into())), Some((400, true)));
        assert_eq!(answer(HttpError::Timeout { mid_request: true }), Some((408, true)));
        assert_eq!(
            answer(HttpError::PayloadTooLarge { declared: 9, limit: 4 }),
            Some((413, true))
        );
        assert_eq!(answer(HttpError::Closed), None);
        assert_eq!(answer(HttpError::Timeout { mid_request: false }), None);
        assert_eq!(answer(HttpError::Io(io::Error::other("reset"))), None);
        // The 400 body echoes the parser's message as is; the 413 names
        // the declared size and the limit.
        let bad = unreadable(HttpError::BadRequest("empty request line".into())).unwrap();
        assert_eq!(bad.body, b"{\"error\":\"empty request line\"}");
        let large = unreadable(HttpError::PayloadTooLarge { declared: 9, limit: 4 }).unwrap();
        assert_eq!(large.body, b"{\"error\":\"body of 9 bytes exceeds the 4-byte limit\"}");
    }
}
