//! Seeded mutational fuzzing of the decoders that read what another
//! process sent: the JSON parser (shard responses, `POST /admin/shards`
//! bodies), the Prometheus text parser (shard `/metrics` scrapes) and the
//! `X-Nptsn-Trace` header.
//!
//! A few valid inputs, plus generated deep nesting, long strings and bad
//! escapes, are mutated — byte flips, truncation, inserted delimiters,
//! duplicated runs, wrapping in brackets — and decoded. The contract:
//!
//! * every case returns `Ok`/`Err` (or `Some`/`None`), never panics, and a
//!   JSON document nested past [`json::MAX_DEPTH`] is an `Err`;
//! * the largest single allocation stays within the decoder's declared
//!   bound: a JSON value or a metric family slot per input byte (plus
//!   4 KiB), and none at all for the trace header.
//!
//! Its own test binary, and one test: it installs a global allocator that
//! records the largest single allocation, which other tests running at
//! the same time would disturb.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use nptsn_obs::json::{self, Value};
use nptsn_obs::promtext::{self, Family};
use nptsn_obs::TraceContext;
use nptsn_rand::{rngs::StdRng, Rng, SeedableRng};

/// Records the size of the largest allocation since the last reset.
struct LargestAllocation;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the only
// addition is a relaxed atomic update, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: the caller upholds `realloc`'s contract, and `ptr` came
        // from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LargestAllocation = LargestAllocation;

const SEED: u64 = 0x4445_434f_4445_5a5a;
const CASES: u64 = 1500;
const SLACK: usize = 4096;

const JSON_SEEDS: [&str; 4] = [
    r#"{"name":"s0","addr":"127.0.0.1:7000","data_dir":"/var/lib/nptsn/s0"}"#,
    r#"{"traceEvents":[{"name":"soag.generate","ph":"X","ts":1.5,"dur":2e3,"args":{"k":16}}]}"#,
    r#"["é😀\n\t\"\\\/",-0.5e-3,[],{},true,false,null]"#,
    r#"{"status":"ok","live_shards":2,"shards":[{"name":"s1","state":"live"}]}"#,
];

const PROM_SEED: &str = "# HELP nptsn_jobs_submitted_total Jobs accepted\n\
# TYPE nptsn_jobs_submitted_total counter\n\
nptsn_jobs_submitted_total 7\n\
# HELP nptsn_http_responses_total Responses by code\n\
# TYPE nptsn_http_responses_total counter\n\
nptsn_http_responses_total{code=\"200\"} 3\n\
nptsn_http_responses_total{code=\"503\"} 1\n\
# TYPE nptsn_job_seconds histogram\n\
nptsn_job_seconds_bucket{le=\"0.1\"} 1\n\
nptsn_job_seconds_bucket{le=\"+Inf\"} 2\n\
nptsn_job_seconds_sum 0.35\n\
nptsn_job_seconds_count 2\n\
untyped_series 1.5e3\n";

const TRACE_SEED: &str = "0123456789abcdef0123456789abcdef-fedcba9876543210";

/// Byte mutations; the result is read back as (lossy) UTF-8, as the
/// callers do with a request body.
fn mutate(rng: &mut StdRng, mut bytes: Vec<u8>, delimiters: &[u8]) -> String {
    for _ in 0..rng.gen_range(1..=4u32) {
        match rng.gen_range(0..5u32) {
            0 if !bytes.is_empty() => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= rng.gen_range(1..=255u32) as u8;
            }
            1 => bytes.truncate(rng.gen_range(0..=bytes.len())),
            2 => {
                for _ in 0..rng.gen_range(1..=8u32) {
                    let at = rng.gen_range(0..=bytes.len());
                    bytes.insert(at, delimiters[rng.gen_range(0..delimiters.len())]);
                }
            }
            3 if bytes.len() < 4096 => {
                let at = rng.gen_range(0..=bytes.len());
                let len = rng.gen_range(0..=bytes.len() - at);
                let copy = bytes[at..at + len].repeat(rng.gen_range(1..=4usize));
                bytes.splice(at..at, copy);
            }
            _ => {
                let at = rng.gen_range(0..=bytes.len());
                let text = ["é", "😀", "\u{0}", "\\", "\\u", "\"", "-", " "];
                bytes.splice(at..at, text[rng.gen_range(0..text.len())].bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A JSON case and the nesting it was built with, when that is known to
/// exceed [`json::MAX_DEPTH`] (the case is then an error whatever else).
fn json_case(rng: &mut StdRng) -> (String, bool) {
    match rng.gen_range(0..8u32) {
        0 => {
            let depth = rng.gen_range(json::MAX_DEPTH - 2..=json::MAX_DEPTH + 2);
            let (open, close) = if rng.gen_bool(0.5) { ("[", "]") } else { ("{\"k\":", "}") };
            let body = format!("{}0{}", open.repeat(depth), close.repeat(depth));
            (body, depth > json::MAX_DEPTH)
        }
        1 => ("[".repeat(rng.gen_range(1_000..=100_000usize)), true),
        2 => {
            let text = "x".repeat(rng.gen_range(1..=64 * 1024usize));
            let closed = if rng.gen_bool(0.5) { "\"" } else { "" };
            (format!("{{\"name\":\"{text}{closed}}}"), false)
        }
        3 => {
            let escapes = [r"\x", r"\u12", r"\ud800", r"\ud800A", r"\udc00", r"\u", r"\"];
            let bad = escapes[rng.gen_range(0..escapes.len())];
            (format!("[\"a{bad}b\"]"), false)
        }
        _ => {
            let seed = JSON_SEEDS[rng.gen_range(0..JSON_SEEDS.len())];
            let mut text = mutate(rng, seed.as_bytes().to_vec(), b"[]{},:\"\\0123456789.eE-+");
            if rng.gen_range(0..8u32) == 0 {
                let depth = rng.gen_range(1..=2 * json::MAX_DEPTH);
                text = format!("{}{text}", "[".repeat(depth));
            }
            (text, false)
        }
    }
}

/// Runs `decode` on a case, returning its result and the largest single
/// allocation it made; a panic fails the test with the case shown.
fn measured<T>(what: &str, case: u64, input: &str, decode: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let result = catch_unwind(AssertUnwindSafe(decode));
    let largest = LARGEST.load(Ordering::Relaxed);
    let shown: String = input.chars().take(200).collect();
    match result {
        Ok(value) => (value, largest),
        Err(_) => panic!("{what} case {case} panicked on {shown:?}"),
    }
}

#[test]
fn obs_decoders_survive_mutated_input_within_their_allocation_bounds() {
    let started = std::time::Instant::now();
    let (mut json_ok, mut json_err, mut deep) = (0, 0, 0);
    let (mut samples, mut traces) = (0, 0);
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(SEED ^ case);

        let (text, too_deep) = json_case(&mut rng);
        let bound = size_of::<Value>() * text.len() + SLACK;
        let (parsed, largest) = measured("json", case, &text, || json::parse(&text));
        assert!(largest <= bound, "json case {case}: {largest} bytes at once, bound {bound}");
        match parsed {
            Ok(_) => {
                assert!(!too_deep, "json case {case} parsed past the depth bound");
                json_ok += 1;
            }
            Err(_) => json_err += 1,
        }
        deep += usize::from(too_deep);
        drop(text);

        let text = mutate(&mut rng, PROM_SEED.as_bytes().to_vec(), b"{}#\n =\",_");
        let bound = size_of::<Family>() * text.len() + SLACK;
        let (families, largest) = measured("promtext", case, &text, || promtext::parse(&text));
        assert!(largest <= bound, "promtext case {case}: {largest} bytes at once, bound {bound}");
        samples += families.iter().map(|f| f.samples.len()).sum::<usize>();
        drop(families);

        let text = mutate(&mut rng, TRACE_SEED.as_bytes().to_vec(), b"-0fF+ ");
        let (context, largest) = measured("trace", case, &text, || TraceContext::parse(&text));
        assert_eq!(largest, 0, "trace case {case} allocated {largest} bytes");
        if let Some(context) = context {
            assert_eq!(TraceContext::parse(&context.header_value()), Some(context));
            traces += 1;
        }
    }
    // The cases reach both outcomes of each decoder.
    assert!(json_ok > 0 && json_err > 0 && deep > 0, "json {json_ok} ok, {json_err} err");
    assert!(samples > 0 && traces > 0 && traces < CASES, "{samples} samples, {traces} traces");
    eprintln!(
        "{CASES} cases in {:?}: json {json_ok} ok / {json_err} err ({deep} too deep), \
         {samples} samples, {traces} trace headers",
        started.elapsed()
    );
}
