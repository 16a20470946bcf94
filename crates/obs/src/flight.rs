//! The always-on flight recorder: a fixed-capacity ring of the most
//! recent spans and events, recorded even when tracing is *disabled*, so
//! a post-mortem of a chaos storm needs no pre-armed `--trace-out`.
//!
//! # Design
//!
//! One global ring, split into `SEGMENTS` per-thread-claimed segments
//! (a thread writes to segment `tid % SEGMENTS`), each an array of
//! fixed-size slots guarded by a per-slot seqlock:
//!
//! * a **writer** bumps the slot's version to odd, stores the fields with
//!   relaxed atomics, then publishes the even successor version — no
//!   locks, no allocation, ~one cache line per record;
//! * a **reader** ([`flight_snapshot`]) skips any slot whose version is
//!   odd or changes across the field reads, so a torn slot is dropped,
//!   never misread.
//!
//! Two writers can only collide on one slot when one of them lags a full
//! ring wrap behind the other; the version CAS makes the loser drop its
//! record — bounded loss, never corruption.
//!
//! All storage is allocated once at [`flight_init`]; recording allocates
//! nothing, which is what lets the counting-allocator pin cover the
//! armed-flight / disabled-tracing path. Capacity math: one slot is eight
//! `u64` words (64 bytes), so the default 4096-slot ring costs 256 KiB
//! plus 16 cursor words — fixed for the process lifetime.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::Level;

/// Per-thread-claimed segments in the ring (threads map by `tid % 16`).
const SEGMENTS: usize = 16;

/// Ring capacity (total slots) when [`flight_init`] is passed `0`.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// What one flight-recorder entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A completed span (`dur_ns` is meaningful).
    Span,
    /// A log event (`level` is meaningful; the message is not retained —
    /// flight recording never allocates).
    Event,
}

impl FlightKind {
    /// The lowercase label used in the `/debug/flight` JSON.
    pub fn label(self) -> &'static str {
        match self {
            FlightKind::Span => "span",
            FlightKind::Event => "event",
        }
    }
}

/// One decoded entry out of the ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEntry {
    /// Span or event.
    pub kind: FlightKind,
    /// The static name recorded at the call site.
    pub name: &'static str,
    /// Event severity (events only; `Level::Off` otherwise).
    pub level: Level,
    /// Recording thread.
    pub tid: u64,
    /// Start (spans) or event timestamp, nanoseconds since the process
    /// trace epoch.
    pub ts_ns: u64,
    /// Span duration (0 for events).
    pub dur_ns: u64,
    /// The propagated trace id, or 0 when the work was untraced.
    pub trace_id: u128,
}

/// One seqlocked slot: `version` odd = a writer is mid-flight.
struct Slot {
    version: AtomicU64,
    name_ptr: AtomicUsize,
    name_len: AtomicUsize,
    /// `kind` (8 bits) | `level` (8 bits) | `tid` (48 bits).
    meta: AtomicU64,
    ts_ns: AtomicU64,
    dur_ns: AtomicU64,
    trace_lo: AtomicU64,
    trace_hi: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            name_ptr: AtomicUsize::new(0),
            name_len: AtomicUsize::new(0),
            meta: AtomicU64::new(0),
            ts_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
            trace_lo: AtomicU64::new(0),
            trace_hi: AtomicU64::new(0),
        }
    }
}

struct Segment {
    cursor: AtomicU64,
    slots: Vec<Slot>,
}

struct Ring {
    segments: Vec<Segment>,
    capacity: usize,
}

static RING: OnceLock<Ring> = OnceLock::new();
static ARMED: AtomicBool = AtomicBool::new(false);

/// Arms the flight recorder with `capacity` total slots (`0` = the
/// default). Idempotent, first call wins the capacity; returns whether
/// this call installed the ring. All memory is allocated here — recording
/// afterwards is allocation-free.
pub fn flight_init(capacity: usize) -> bool {
    let mut installed = false;
    RING.get_or_init(|| {
        installed = true;
        let capacity = if capacity == 0 { DEFAULT_FLIGHT_CAPACITY } else { capacity };
        let per_segment = capacity.div_ceil(SEGMENTS).max(1);
        let segments = (0..SEGMENTS)
            .map(|_| Segment {
                cursor: AtomicU64::new(0),
                slots: (0..per_segment).map(|_| Slot::empty()).collect(),
            })
            .collect();
        Ring { segments, capacity: per_segment * SEGMENTS }
    });
    ARMED.store(true, Ordering::Release);
    installed
}

/// Whether the flight recorder is armed (hot-path check).
#[inline]
pub(crate) fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Whether the flight recorder is armed.
pub fn flight_armed() -> bool {
    armed()
}

/// The armed ring's slot capacity (0 while disarmed).
pub fn flight_capacity() -> usize {
    RING.get().map_or(0, |ring| ring.capacity)
}

fn pack_meta(kind: FlightKind, level: Level, tid: u64) -> u64 {
    let kind = match kind {
        FlightKind::Span => 1u64,
        FlightKind::Event => 2,
    };
    (kind << 56) | ((level as u64) << 48) | (tid & 0x0000_ffff_ffff_ffff)
}

fn unpack_meta(meta: u64) -> Option<(FlightKind, Level, u64)> {
    let kind = match meta >> 56 {
        1 => FlightKind::Span,
        2 => FlightKind::Event,
        _ => return None,
    };
    let level = match (meta >> 48) & 0xff {
        0 => Level::Off,
        1 => Level::Error,
        3 => Level::Debug,
        _ => Level::Info,
    };
    Some((kind, level, meta & 0x0000_ffff_ffff_ffff))
}

/// Writes one record into the ring. Lock-free and allocation-free; drops
/// the record (never blocks, never corrupts) on a full-wrap writer race.
pub(crate) fn record(
    kind: FlightKind,
    name: &'static str,
    level: Level,
    tid: u64,
    ts_ns: u64,
    dur_ns: u64,
    trace_id: u128,
) {
    let Some(ring) = RING.get() else { return };
    let segment = &ring.segments[(tid as usize) % SEGMENTS];
    let seq = segment.cursor.fetch_add(1, Ordering::Relaxed);
    let slot = &segment.slots[(seq as usize) % segment.slots.len()];
    let version = slot.version.load(Ordering::Acquire);
    if version & 1 == 1 {
        return; // another writer owns the slot (full-wrap race) — drop.
    }
    if slot
        .version
        .compare_exchange(version, version + 1, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        return;
    }
    slot.name_ptr.store(name.as_ptr() as usize, Ordering::Relaxed);
    slot.name_len.store(name.len(), Ordering::Relaxed);
    slot.meta.store(pack_meta(kind, level, tid), Ordering::Relaxed);
    slot.ts_ns.store(ts_ns, Ordering::Relaxed);
    slot.dur_ns.store(dur_ns, Ordering::Relaxed);
    slot.trace_lo.store(trace_id as u64, Ordering::Relaxed);
    slot.trace_hi.store((trace_id >> 64) as u64, Ordering::Relaxed);
    slot.version.store(version + 2, Ordering::Release);
}

/// Reads one slot under the seqlock; `None` for empty, mid-write or torn.
fn read_slot(slot: &Slot) -> Option<FlightEntry> {
    let before = slot.version.load(Ordering::Acquire);
    if before == 0 || before & 1 == 1 {
        return None;
    }
    let name_ptr = slot.name_ptr.load(Ordering::Relaxed);
    let name_len = slot.name_len.load(Ordering::Relaxed);
    let meta = slot.meta.load(Ordering::Relaxed);
    let ts_ns = slot.ts_ns.load(Ordering::Relaxed);
    let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
    let trace_lo = slot.trace_lo.load(Ordering::Relaxed);
    let trace_hi = slot.trace_hi.load(Ordering::Relaxed);
    std::sync::atomic::fence(Ordering::Acquire);
    if slot.version.load(Ordering::Relaxed) != before {
        return None; // torn: a writer republished while we read.
    }
    let (kind, level, tid) = unpack_meta(meta)?;
    if name_ptr == 0 {
        return None;
    }
    // SAFETY: `name_ptr`/`name_len` were stored together from one
    // `&'static str` by the single writer that published `before` (odd →
    // even transition), and the unchanged-version check above proves we
    // read that writer's pair, not a mix of two writes. Static string
    // data lives for the whole program, so the reconstructed reference is
    // valid UTF-8 for `'static`.
    let name: &'static str = unsafe {
        std::str::from_utf8_unchecked(std::slice::from_raw_parts(name_ptr as *const u8, name_len))
    };
    Some(FlightEntry {
        kind,
        name,
        level,
        tid,
        ts_ns,
        dur_ns,
        trace_id: ((trace_hi as u128) << 64) | (trace_lo as u128),
    })
}

/// Snapshots every live entry in the ring, oldest first (by timestamp,
/// then thread). Torn or mid-write slots are skipped. Returns an empty
/// vector while the recorder is disarmed.
pub fn flight_snapshot() -> Vec<FlightEntry> {
    let Some(ring) = RING.get() else { return Vec::new() };
    let mut entries: Vec<FlightEntry> = ring
        .segments
        .iter()
        .flat_map(|segment| segment.slots.iter().filter_map(read_slot))
        .collect();
    entries.sort_by(|a, b| a.ts_ns.cmp(&b.ts_ns).then(a.tid.cmp(&b.tid)));
    entries
}

/// The recorded spans belonging to `trace_id`, oldest first — the source
/// for a shard's persisted per-job timeline. Filters while scanning the
/// ring and sorts only the matches: this runs once per terminal job, so
/// it must not pay the full-snapshot sort for a handful of spans.
pub fn flight_spans_for_trace(trace_id: u128) -> Vec<FlightEntry> {
    let Some(ring) = RING.get() else { return Vec::new() };
    let mut entries: Vec<FlightEntry> = ring
        .segments
        .iter()
        .flat_map(|segment| segment.slots.iter().filter_map(read_slot))
        .filter(|e| e.kind == FlightKind::Span && e.trace_id == trace_id)
        .collect();
    entries.sort_by(|a, b| a.ts_ns.cmp(&b.ts_ns).then(a.tid.cmp(&b.tid)));
    entries
}

/// Renders the ring as the `/debug/flight` JSON document:
/// `{"capacity":N,"entries":[{...},...]}`, entries oldest first.
pub fn flight_json() -> String {
    use std::fmt::Write as _;
    let entries = flight_snapshot();
    let mut out = String::with_capacity(64 + entries.len() * 96);
    let _ = write!(out, "{{\"capacity\":{},\"entries\":[", flight_capacity());
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"kind\":\"{}\",\"name\":\"{}\",\"tid\":{},\"ts_ns\":{}",
            e.kind.label(),
            e.name,
            e.tid,
            e.ts_ns
        );
        match e.kind {
            FlightKind::Span => {
                let _ = write!(out, ",\"dur_ns\":{}", e.dur_ns);
            }
            FlightKind::Event => {
                let _ = write!(out, ",\"level\":\"{}\"", e.level.label());
            }
        }
        if e.trace_id != 0 {
            let _ = write!(out, ",\"trace\":\"{:032x}\"", e.trace_id);
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Best-effort dump of the current ring to `<dir>/<file>` — used on
/// worker panic and graceful drain. Errors are swallowed: a failed dump
/// must never worsen the failure being recorded.
pub fn flight_dump(dir: &std::path::Path, file: &str) {
    let _ = std::fs::write(dir.join(file), flight_json());
}

static DUMP_DIR: OnceLock<std::path::PathBuf> = OnceLock::new();

/// Configures where automatic flight dumps (worker panic, drain) land.
/// First call wins; returns whether this call set it. Server processes
/// point this at their data directory so post-mortems sit next to the
/// durable log.
pub fn flight_set_dump_dir(dir: &std::path::Path) -> bool {
    let mut installed = false;
    DUMP_DIR.get_or_init(|| {
        installed = true;
        dir.to_path_buf()
    });
    installed
}

/// Dumps the ring to `<dump_dir>/flight-<reason>.json` if a dump
/// directory was configured; a silent no-op otherwise. Best-effort by
/// design — called from panic paths.
pub fn flight_dump_auto(reason: &str) {
    if let Some(dir) = DUMP_DIR.get() {
        flight_dump(dir, &format!("flight-{reason}.json"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ring is process-global and first-init-wins, so every test in
    // this module shares one small ring; sizes are chosen so each test's
    // assertions hold under any interleaving with the others.
    fn armed_ring() {
        flight_init(256);
    }

    #[test]
    fn init_is_idempotent_and_first_wins() {
        armed_ring();
        assert!(armed());
        let capacity = flight_capacity();
        assert!(capacity >= 256, "{capacity}");
        assert!(!flight_init(99_999), "second init must not reinstall");
        assert_eq!(flight_capacity(), capacity);
    }

    #[test]
    fn records_round_trip_through_the_ring() {
        armed_ring();
        record(FlightKind::Span, "flight.test.span", Level::Off, 7, 100, 25, 0xabcd);
        record(FlightKind::Event, "flight.test.event", Level::Error, 7, 200, 0, 0);
        let entries = flight_snapshot();
        let span = entries.iter().find(|e| e.name == "flight.test.span").expect("span recorded");
        assert_eq!(span.kind, FlightKind::Span);
        assert_eq!(span.dur_ns, 25);
        assert_eq!(span.trace_id, 0xabcd);
        let event = entries.iter().find(|e| e.name == "flight.test.event").expect("event");
        assert_eq!(event.level, Level::Error);
    }

    #[test]
    fn the_ring_wraps_instead_of_growing() {
        armed_ring();
        let capacity = flight_capacity();
        for i in 0..(capacity as u64 * 3) {
            record(FlightKind::Span, "flight.test.wrap", Level::Off, 9, i, 1, 0);
        }
        let entries = flight_snapshot();
        assert!(entries.len() <= capacity, "{} > {capacity}", entries.len());
        // The survivors on thread 9's segment are the most recent writes.
        let max_ts =
            entries.iter().filter(|e| e.name == "flight.test.wrap").map(|e| e.ts_ns).max();
        assert_eq!(max_ts, Some(capacity as u64 * 3 - 1));
    }

    #[test]
    fn spans_filter_by_trace_id() {
        armed_ring();
        record(FlightKind::Span, "flight.test.t1", Level::Off, 11, 1, 1, 0x77);
        record(FlightKind::Span, "flight.test.t2", Level::Off, 11, 2, 1, 0x88);
        record(FlightKind::Event, "flight.test.t1e", Level::Info, 11, 3, 0, 0x77);
        let spans = flight_spans_for_trace(0x77);
        assert!(spans.iter().any(|e| e.name == "flight.test.t1"));
        assert!(spans.iter().all(|e| e.trace_id == 0x77 && e.kind == FlightKind::Span));
    }

    #[test]
    fn flight_json_parses_and_carries_traces() {
        armed_ring();
        record(FlightKind::Span, "flight.test.json", Level::Off, 13, 5, 9, 0xfeed);
        let text = flight_json();
        let value = crate::json::parse(&text).expect("flight json parses");
        assert!(value.get("capacity").and_then(crate::json::Value::as_num).unwrap() >= 256.0);
        let entries = value.get("entries").and_then(crate::json::Value::as_arr).unwrap();
        let hex = format!("{:032x}", 0xfeedu128);
        assert!(
            entries.iter().any(|e| {
                e.get("name").and_then(crate::json::Value::as_str) == Some("flight.test.json")
                    && e.get("trace").and_then(crate::json::Value::as_str) == Some(hex.as_str())
            }),
            "{text}"
        );
    }
}
