//! nptsn-obs: workspace-wide structured tracing, profiling and the shared
//! telemetry registry.
//!
//! Three layers, all on `std` alone:
//!
//! * **Spans and events** — hierarchical wall-clock spans with per-thread
//!   span stacks ([`span`]) and leveled log events ([`event`]). Tracing is
//!   off by default; a disabled [`span`] is a single relaxed atomic load
//!   and **allocates nothing** (pinned by a counting-allocator test), so
//!   instrumentation can sit on the planner/analyzer hot paths
//!   permanently.
//! * **Exporters** ([`export`]) — the recorded stream renders either as a
//!   Chrome trace-event file (loadable in Perfetto / `chrome://tracing`)
//!   or as an end-of-run profile table aggregated by span self-time.
//! * **Telemetry** ([`metrics`], [`telemetry`](mod@telemetry)) — the Prometheus-text
//!   metrics registry (moved here from `nptsn-serve`) plus one
//!   process-wide [`Telemetry`] instance holding the planner/analyzer
//!   counters, so the CLI, the service and the library crates all report
//!   through the same source of truth.
//!
//! # Recording model
//!
//! Every thread owns a span stack and a small record buffer; closing a
//! span pops the stack, charges the duration to the parent's child-time
//! (so self-time is exact) and appends a [`Record`] to the thread buffer.
//! Buffers flush into a global sink when they reach a small threshold and
//! when the thread exits, so short-lived rollout workers lose nothing.
//! [`drain`] collects the sink; call it from the coordinating thread after
//! worker threads have been joined.
//!
//! ```
//! nptsn_obs::set_enabled(true);
//! {
//!     let _outer = nptsn_obs::span("example.outer");
//!     let _inner = nptsn_obs::span("example.inner");
//! }
//! let records = nptsn_obs::drain();
//! nptsn_obs::set_enabled(false);
//! assert_eq!(records.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod context;
pub mod crc;
pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod promtext;
pub mod telemetry;

pub use crc::crc32;
pub use context::{
    current_trace, set_current_trace, with_trace, TraceContext, TraceScope, TRACE_HEADER,
};
pub use export::{
    chrome_trace_json, chrome_trace_merged, profile_table, span_stats, write_chrome_trace,
    MergedSpan, ProcessTrace, SpanStat,
};
pub use flight::{
    flight_armed, flight_capacity, flight_dump, flight_dump_auto, flight_init, flight_json,
    flight_set_dump_dir, flight_snapshot, flight_spans_for_trace, FlightEntry, FlightKind,
    DEFAULT_FLIGHT_CAPACITY,
};
pub use telemetry::{telemetry, Telemetry};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Event severity. Events at a level above the configured [`log_level`]
/// are dropped at the call site.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// No events at all.
    Off = 0,
    /// Unexpected failures.
    Error = 1,
    /// Lifecycle milestones (default).
    Info = 2,
    /// Per-request / per-step detail.
    Debug = 3,
}

impl Level {
    /// Parses `off|error|info|debug` (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Some(Level::Off),
            "error" => Some(Level::Error),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    /// The lowercase name.
    pub fn label(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Off,
            1 => Level::Error,
            3 => Level::Debug,
            _ => Level::Info,
        }
    }
}

/// One recorded trace item. Timestamps are nanoseconds since the first
/// use of the tracer in this process (a monotonic [`Instant`] epoch).
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A completed span.
    Span {
        /// Static span name, e.g. `"planner.epoch"`.
        name: &'static str,
        /// Recording thread.
        tid: u64,
        /// Start offset from the process trace epoch.
        start_ns: u64,
        /// Total wall-clock duration.
        dur_ns: u64,
        /// Duration minus time spent in child spans on the same thread.
        self_ns: u64,
        /// The [`TraceContext`] trace id active when the span opened
        /// (0 = untraced work).
        trace_id: u128,
    },
    /// A leveled log event.
    Event {
        /// Static event name.
        name: &'static str,
        /// Severity.
        level: Level,
        /// Recording thread.
        tid: u64,
        /// Timestamp.
        ts_ns: u64,
        /// Free-form message.
        message: String,
    },
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static LOG_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Record>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Thread buffers flush into the global sink at this size.
const FLUSH_AT: usize = 64;

/// Nanoseconds since the process trace epoch (first call wins the epoch).
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span and event recording on or off, process-wide.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the epoch before the first span so timestamps are small.
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the maximum severity recorded by [`event`].
pub fn set_log_level(level: Level) {
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current event severity ceiling.
pub fn log_level() -> Level {
    Level::from_u8(LOG_LEVEL.load(Ordering::Relaxed))
}

struct OpenSpan {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    trace_id: u128,
}

struct ThreadCtx {
    tid: u64,
    stack: Vec<OpenSpan>,
    buf: Vec<Record>,
}

impl ThreadCtx {
    fn flush_into_sink(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        sink.append(&mut self.buf);
    }

    fn push(&mut self, record: Record) {
        self.buf.push(record);
        if self.buf.len() >= FLUSH_AT {
            self.flush_into_sink();
        }
    }
}

impl Drop for ThreadCtx {
    fn drop(&mut self) {
        // Thread exit: whatever the worker recorded reaches the sink even
        // if nobody called `flush_thread` on it.
        self.flush_into_sink();
    }
}

thread_local! {
    // No destructor, so first access never allocates — the flight
    // recorder reads this on the tracing-disabled path.
    static TID: Cell<u64> = const { Cell::new(0) };

    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx {
        tid: current_tid(),
        stack: Vec::new(),
        buf: Vec::new(),
    });
}

/// The current thread's stable trace thread-id (assigned on first use,
/// shared by the span recorder and the flight recorder).
fn current_tid() -> u64 {
    TID.try_with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
    .unwrap_or(0)
}

/// An open span; the span closes (and is recorded) when the guard drops.
///
/// Constructed through [`span`]. With both tracing and the flight
/// recorder off at construction the guard is inert and its drop is a
/// branch.
#[must_use = "a span closes when its guard drops; bind it with `let _span = ...`"]
pub struct SpanGuard {
    name: &'static str,
    start_ns: u64,
    trace_id: u128,
    tracing: bool,
    flight: bool,
}

/// Opens a span named `name` on the current thread.
///
/// Nesting is by construction order on each thread: the span closed last
/// charges its duration to the enclosing span's child-time, so the
/// profile's *self* column is exact. The span carries the thread's
/// current [`TraceContext`] trace id, if any. With tracing disabled and
/// the flight recorder disarmed this is two relaxed atomic loads and no
/// allocation; an armed flight recorder alone adds one ring write at
/// close, still allocation-free.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let tracing = enabled();
    let flight = flight::armed();
    if !tracing && !flight {
        return SpanGuard { name, start_ns: 0, trace_id: 0, tracing: false, flight: false };
    }
    let start_ns = now_ns();
    let trace_id = context::current_trace_id();
    let tracing = tracing
        && CTX
            .try_with(|c| {
                c.borrow_mut().stack.push(OpenSpan { name, start_ns, child_ns: 0, trace_id });
            })
            .is_ok();
    SpanGuard { name, start_ns, trace_id, tracing, flight }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.tracing && !self.flight {
            return;
        }
        let end_ns = now_ns();
        let dur_ns = end_ns.saturating_sub(self.start_ns);
        if self.flight {
            // Flight records carry no child-time accounting, so self time
            // approximates to the full duration there.
            flight::record(
                FlightKind::Span,
                self.name,
                Level::Off,
                current_tid(),
                self.start_ns,
                dur_ns,
                self.trace_id,
            );
        }
        if !self.tracing {
            return;
        }
        let _ = CTX.try_with(|c| {
            let mut ctx = c.borrow_mut();
            let Some(open) = ctx.stack.pop() else { return };
            let dur_ns = end_ns.saturating_sub(open.start_ns);
            let self_ns = dur_ns.saturating_sub(open.child_ns);
            if let Some(parent) = ctx.stack.last_mut() {
                parent.child_ns += dur_ns;
            }
            let tid = ctx.tid;
            ctx.push(Record::Span {
                name: open.name,
                tid,
                start_ns: open.start_ns,
                dur_ns,
                self_ns,
                trace_id: open.trace_id,
            });
        });
    }
}

/// The name of the innermost span open on this thread, while tracing is
/// enabled. A helper thread working for its caller opens a span of the
/// same name, so that per-thread attribution (a planner's update phase,
/// say) covers the helper's work too.
pub fn current_span() -> Option<&'static str> {
    if !enabled() {
        return None;
    }
    CTX.try_with(|c| c.borrow().stack.last().map(|open| open.name)).ok().flatten()
}

/// Records a leveled log event if `level` is at or below the configured
/// [`log_level`] and either tracing is enabled or the flight recorder is
/// armed (flight entries keep the name and level, not the message).
///
/// Callers formatting a message should guard the `format!` behind
/// [`enabled`] to keep the disabled path allocation-free.
pub fn event(level: Level, name: &'static str, message: &str) {
    if level == Level::Off || (level as u8) > LOG_LEVEL.load(Ordering::Relaxed) {
        return;
    }
    let tracing = enabled();
    let flight = flight::armed();
    if !tracing && !flight {
        return;
    }
    let ts_ns = now_ns();
    if flight {
        flight::record(
            FlightKind::Event,
            name,
            level,
            current_tid(),
            ts_ns,
            0,
            context::current_trace_id(),
        );
    }
    if !tracing {
        return;
    }
    let _ = CTX.try_with(|c| {
        let mut ctx = c.borrow_mut();
        let tid = ctx.tid;
        ctx.push(Record::Event { name, level, tid, ts_ns, message: message.to_string() });
    });
}

/// Flushes the current thread's buffered records into the global sink.
///
/// Worker threads flush automatically when their thread-local storage is
/// destroyed, but joins that only wait for the closure to return (e.g.
/// `std::thread::scope`) can observe the join *before* that destructor
/// runs — short-lived workers should call this as their last statement.
pub fn flush_thread() {
    let _ = CTX.try_with(|c| c.borrow_mut().flush_into_sink());
}

/// Takes every flushed record out of the global sink (flushing the calling
/// thread first). Records from threads still running may be missing —
/// drain from the coordinating thread after joining workers.
pub fn drain() -> Vec<Record> {
    flush_thread();
    std::mem::take(&mut *SINK.lock().unwrap_or_else(|e| e.into_inner()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parses_and_labels() {
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("DEBUG"), Some(Level::Debug));
        assert_eq!(Level::parse("Info"), Some(Level::Info));
        assert_eq!(Level::parse("warn"), None);
        assert_eq!(Level::Error.label(), "error");
        assert_eq!(Level::from_u8(Level::Debug as u8), Level::Debug);
    }
}
