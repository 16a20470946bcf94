//! Seeded mutational fuzzing of the HTTP request reader.
//!
//! A few valid requests are mutated — byte flips, truncation, inserted
//! CR/LF/`:`/`%`, more than 64 headers, a line over 8 KiB, a huge,
//! negative or non-numeric `Content-Length`, a `Transfer-Encoding` header —
//! and every case is read with [`read_request_deadline`] from a `Cursor`.
//! The contract:
//!
//! * every case returns `Ok` or `Err`, never panics: the reader is called
//!   until the stream ends or a read fails, as on a keep-alive connection;
//! * a case whose head is intact and declares a body over the limit is
//!   [`HttpError::PayloadTooLarge`], and that error only ever names a
//!   declared length over the limit;
//! * no case allocates a block larger than the body limit plus 16 KiB.
//!
//! Its own test binary: it installs a global allocator that records the
//! largest single allocation, which other tests in the process would
//! disturb.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use nptsn_rand::{rngs::StdRng, Rng, SeedableRng};
use nptsn_serve::http::{read_request_deadline, HttpError};

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

/// The body limit the cases are read under.
const MAX_BODY: usize = 64 * 1024;
/// The largest single allocation a case may make.
const ALLOCATION_BOUND: usize = MAX_BODY + 16 * 1024;
const SEED: u64 = 0x4854_5450_4655_5a5a;
const CASES: u64 = 4000;

/// The valid requests every case starts from.
const SEEDS: [&[u8]; 3] = [
    b"GET /jobs/7?verbose=1&q=a%20b HTTP/1.1\r\nHost: shard\r\nAccept: */*\r\n\r\n",
    b"POST /jobs/verify HTTP/1.1\r\nHost: shard\r\nContent-Length: 12\r\n\r\n[nodes]\nes a",
    b"GET /healthz HTTP/1.1\r\nHost: shard\r\n\r\n\
      POST /jobs/burn?millis=1 HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbody",
];

/// One generated case.
struct Case {
    bytes: Vec<u8>,
    /// The request head is intact — only the `Content-Length` of the first
    /// request was changed — and declares more than [`MAX_BODY`].
    declares_too_much: bool,
}

/// The end of the first request head (just past its blank line).
fn head_end(bytes: &[u8]) -> usize {
    bytes.windows(4).position(|w| w == b"\r\n\r\n").map_or(bytes.len(), |i| i + 4)
}

/// Inserts `header` as the first request's last header line.
fn insert_header(bytes: &mut Vec<u8>, header: &[u8]) {
    let at = head_end(bytes).saturating_sub(2).min(bytes.len());
    bytes.splice(at..at, header.iter().copied().chain(*b"\r\n"));
}

/// Sets the first request's `Content-Length` to `value`, adding the header
/// when the request has none.
fn set_content_length(bytes: &mut Vec<u8>, value: &str) {
    let end = head_end(bytes);
    let head = &bytes[..end];
    let found = head.windows(16).position(|w| w.eq_ignore_ascii_case(b"content-length: "));
    match found {
        Some(start) => {
            let from = start + 16;
            let to = from + head[from..].iter().position(|&b| b == b'\r').unwrap_or(0);
            bytes.splice(from..to, value.bytes());
        }
        None => insert_header(bytes, format!("Content-Length: {value}").as_bytes()),
    }
}

/// A declared length over the limit: mostly just over it, sometimes as
/// large as a `u64` gets.
fn oversized_length(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..4u32) {
        0 => u64::MAX - rng.gen_range(0..1000u64),
        1 => rng.gen_range(MAX_BODY as u64 + 1..=u64::MAX / 2),
        _ => rng.gen_range(MAX_BODY as u64 + 1..=16 * MAX_BODY as u64),
    }
}

fn generate(rng: &mut StdRng) -> Case {
    let mut bytes = SEEDS[rng.gen_range(0..SEEDS.len())].to_vec();
    // One case in eight keeps its head intact and only declares too much;
    // the assertions then know the exact answer.
    if rng.gen_range(0..8u32) == 0 {
        set_content_length(&mut bytes, &oversized_length(rng).to_string());
        return Case { bytes, declares_too_much: true };
    }
    for _ in 0..rng.gen_range(1..=3u32) {
        match rng.gen_range(0..10u32) {
            0 if !bytes.is_empty() => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= rng.gen_range(1..=255u32) as u8;
            }
            1 => {
                let at = rng.gen_range(0..=bytes.len());
                bytes.truncate(at);
            }
            2 => {
                for _ in 0..rng.gen_range(1..=4u32) {
                    let at = rng.gen_range(0..=bytes.len());
                    bytes.insert(at, [b'\r', b'\n', b':', b'%'][rng.gen_range(0..4usize)]);
                }
            }
            3 => {
                let count = rng.gen_range(60..=80u32);
                let lines: Vec<String> = (0..count).map(|i| format!("X-Fuzz-{i}: {i}")).collect();
                insert_header(&mut bytes, lines.join("\r\n").as_bytes());
            }
            4 => {
                let value = "v".repeat(rng.gen_range(8 * 1024 - 16..=9 * 1024));
                insert_header(&mut bytes, format!("X-Long: {value}").as_bytes());
            }
            5 => set_content_length(&mut bytes, &oversized_length(rng).to_string()),
            6 => {
                let value = format!("-{}", rng.gen_range(1..=1_000_000u64));
                set_content_length(&mut bytes, &value);
            }
            7 => {
                let garbage = ["abc", "1e3", "0x10", "", " 12", "99999999999999999999999", "4 4"];
                set_content_length(&mut bytes, garbage[rng.gen_range(0..garbage.len())]);
            }
            8 => insert_header(&mut bytes, b"Transfer-Encoding: chunked"),
            _ => {
                let at = rng.gen_range(0..=bytes.len());
                let len = rng.gen_range(0..=bytes.len() - at);
                let copy = bytes[at..at + len].to_vec();
                bytes.splice(at..at, copy);
            }
        }
    }
    Case { bytes, declares_too_much: false }
}

/// Reads requests off `bytes` as a keep-alive connection would, until the
/// stream ends or a read fails, and returns how it ended.
fn read_all(bytes: &[u8]) -> HttpError {
    let mut cursor = Cursor::new(bytes);
    loop {
        match read_request_deadline(&mut cursor, MAX_BODY, None) {
            Ok(request) => assert!(request.body.len() <= MAX_BODY),
            Err(end) => return end,
        }
    }
}

#[test]
fn request_reader_survives_mutated_requests_within_its_allocation_bound() {
    let started = std::time::Instant::now();
    let mut outcomes = [0u64; 5];
    for case in 0..CASES {
        let seed = SEED ^ case;
        let Case { bytes, declares_too_much } = generate(&mut StdRng::seed_from_u64(seed));
        LARGEST.store(0, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| read_all(&bytes)));
        let largest = LARGEST.load(Ordering::Relaxed);
        let shown = String::from_utf8_lossy(&bytes[..bytes.len().min(300)]).into_owned();
        let outcome = outcome.unwrap_or_else(|_| panic!("seed {seed:#x} panicked on {shown:?}"));
        assert!(
            largest <= ALLOCATION_BOUND,
            "seed {seed:#x} allocated {largest} bytes at once on {shown:?}"
        );
        match &outcome {
            HttpError::PayloadTooLarge { declared, limit } => {
                assert!(
                    *limit == MAX_BODY && *declared > *limit as u64,
                    "seed {seed:#x}: {declared} over {limit} on {shown:?}"
                );
            }
            other if declares_too_much => {
                panic!("seed {seed:#x} read as {other:?}, not PayloadTooLarge: {shown:?}")
            }
            _ => {}
        }
        outcomes[match outcome {
            HttpError::Closed => 0,
            HttpError::BadRequest(_) => 1,
            HttpError::PayloadTooLarge { .. } => 2,
            HttpError::Timeout { .. } => 3,
            HttpError::Io(_) => 4,
        }] += 1;
    }
    // The mutators reach both ends of the reader: whole requests read to
    // a clean close, and each rejection the cases aim at.
    let [closed, bad, too_large, _, _] = outcomes;
    assert!(closed > 0 && bad > 0 && too_large > 0, "outcomes {outcomes:?}");
    eprintln!("{CASES} cases in {:?}: outcomes {outcomes:?}", started.elapsed());
}
