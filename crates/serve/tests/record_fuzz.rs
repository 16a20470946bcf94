//! Seeded mutational fuzzing of the persisted-record decoders that every
//! restart, replay, catch-up, migration and promotion feeds into the
//! record-to-job gate: [`decode_record`], [`decode_trace`] and
//! [`decode_next_id`].
//!
//! The seeds are encoded records of every shape — each spec kind, each
//! outcome, with and without an error, terminal and not — trace records
//! with 0–3 spans, and the 8-byte id watermark. Each case mutates one of
//! them (byte flips, truncation, extension, a length prefix or count set
//! to 0, 1, off by one, the input length or `u64::MAX`, an unknown tag)
//! and hands the bytes to all three decoders. The contract:
//!
//! * every decoder returns `Ok`/`Some` or `Err`/`None`, never panics;
//! * no case allocates a block larger than the input plus
//!   [`ALLOCATION_SLACK`].
//!
//! Its own test binary: it installs a global allocator that records the
//! largest single allocation, which other tests in the process would
//! disturb.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use nptsn_rand::{rngs::StdRng, Rng, SeedableRng};
use nptsn_serve::jobs::{JobOutcome, JobState};
use nptsn_serve::persist::{
    decode_next_id, decode_record, decode_trace, encode_next_id, encode_record, encode_trace,
    CheckpointRef, JobSpec, TraceRecord, TraceSpan,
};

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

/// How far past the input length one allocation may reach. It covers the
/// error messages and the trace decoder's span vector, which reserves at
/// most one 56-byte span per 40 bytes left in the record — at most 0.4×
/// the input over it, under this slack for every input up to
/// [`MAX_INPUT`].
const ALLOCATION_SLACK: usize = 512;
/// The longest case this test builds (checked per case).
const MAX_INPUT: usize = 1024;
const SEED: u64 = 0x5245_434f_5244_465a;
const CASES: u64 = 4000;

/// Encoded records of every shape, trace records with 0–3 spans, and the
/// id watermark.
fn seeds() -> Vec<Vec<u8>> {
    let problem = "[nodes]\nes a\nes b\nsw s0\n[links]\na s0\nb s0\n[flows]\na b 500 128\n";
    let specs = [
        None,
        Some(JobSpec::Plan {
            problem: problem.to_string(),
            epochs: 3,
            steps: 64,
            seed: 7,
            greedy: true,
        }),
        Some(JobSpec::Verify { body: format!("{problem}[switches]\ns0 D\n") }),
        Some(JobSpec::Infer {
            problem: problem.to_string(),
            checkpoint: CheckpointRef::Inline(b"NPTSNCK2\x01\x02\x03".to_vec()),
            attempts: 4,
            seed: 9,
        }),
        Some(JobSpec::Infer {
            problem: "[nodes]\n".to_string(),
            checkpoint: CheckpointRef::Named("prod".to_string()),
            attempts: 1,
            seed: 0,
        }),
        Some(JobSpec::Burn { millis: 5 }),
    ];
    let outcomes = [
        None,
        Some(JobOutcome::Plan {
            planfile: "[switches]\ns0 D\n".to_string(),
            cost: 12.5,
            summary: "ok".to_string(),
            checkpoint: Some(vec![9; 12]),
        }),
        Some(JobOutcome::Plan {
            planfile: String::new(),
            cost: -0.0,
            summary: "greedy".to_string(),
            checkpoint: None,
        }),
        Some(JobOutcome::Verify { json: "{\"reliable\":false}".to_string(), reliable: false }),
        Some(JobOutcome::Burn),
    ];
    let states = [
        JobState::Submitted,
        JobState::Running,
        JobState::Done,
        JobState::Failed,
        JobState::Cancelled,
    ];
    let mut seeds = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        for (j, outcome) in outcomes.iter().enumerate() {
            let state = states[(i + j) % states.len()];
            let error = (state == JobState::Failed).then_some("deadline exceeded");
            seeds.push(encode_record(state, spec.as_ref(), outcome.as_ref(), error));
        }
    }
    for spans in 0..=3u64 {
        let record = TraceRecord {
            trace_id: 0x0123_4567_89ab_cdef_u128 << 64 | u128::from(spans),
            shard: if spans % 2 == 0 { String::new() } else { "s1".to_string() },
            spans: (0..spans)
                .map(|n| TraceSpan {
                    name: ["job.run", "", "router.replay.job"][n as usize % 3].to_string(),
                    tid: n,
                    start_ns: 1_000 * n,
                    dur_ns: 900,
                    self_ns: 100,
                })
                .collect(),
        };
        seeds.push(encode_trace(&record));
    }
    seeds.push(encode_next_id(41));
    seeds
}

/// The offsets of 8-byte little-endian words whose value is no larger
/// than the input: the length prefixes and counts of the encoding (and a
/// few small scalar fields, which are harmless to mutate too).
fn small_words(bytes: &[u8]) -> Vec<usize> {
    (0..bytes.len().saturating_sub(7))
        .filter(|&at| word(bytes, at) <= bytes.len() as u64)
        .collect()
}

fn word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

fn mutate(rng: &mut StdRng, seeds: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = seeds[rng.gen_range(0..seeds.len())].clone();
    for _ in 0..rng.gen_range(1..=3u32) {
        match rng.gen_range(0..6u32) {
            0 if !bytes.is_empty() => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= rng.gen_range(1..=255u32) as u8;
            }
            1 => {
                let at = rng.gen_range(0..=bytes.len());
                bytes.truncate(at);
            }
            2 => {
                for _ in 0..rng.gen_range(1..=64u32) {
                    bytes.push(rng.gen_range(0..=255u32) as u8);
                }
            }
            3 | 4 => {
                let words = small_words(&bytes);
                if words.is_empty() {
                    continue;
                }
                let at = words[rng.gen_range(0..words.len())];
                let old = word(&bytes, at);
                let len = bytes.len() as u64;
                let value = [0, 1, old.wrapping_sub(1), old + 1, len, u64::MAX, u64::MAX - 7]
                    [rng.gen_range(0..7usize)];
                bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            }
            _ => {
                // An unknown tag: the version, state and spec tags sit at
                // the front, other tags and flags are the small bytes.
                let tags: Vec<usize> = (0..bytes.len())
                    .filter(|&at| at < 4 || bytes[at] <= 4)
                    .collect();
                if tags.is_empty() {
                    continue;
                }
                let at = tags[rng.gen_range(0..tags.len())];
                bytes[at] = rng.gen_range(5..=255u32) as u8;
            }
        }
    }
    bytes
}

/// Runs every decoder on `bytes`; returns how many accepted them.
fn decode_all(bytes: &[u8]) -> usize {
    usize::from(decode_record(bytes).is_ok())
        + usize::from(decode_trace(bytes).is_ok())
        + usize::from(decode_next_id(bytes).is_some())
}

#[test]
fn record_decoders_survive_mutated_records_within_their_allocation_bound() {
    let started = std::time::Instant::now();
    let seeds = seeds();
    for seed in &seeds {
        assert_eq!(decode_all(seed), 1, "every seed decodes under exactly one decoder");
    }
    // The case that once failed: a 33-byte trace record (no shard name, no
    // spans) whose span count claims `u64::MAX` reserved 4096 spans
    // (229 376 bytes) before failing on the first one.
    let empty = TraceRecord { trace_id: 1, shard: String::new(), spans: Vec::new() };
    let mut forged = encode_trace(&empty);
    forged[25..].copy_from_slice(&u64::MAX.to_le_bytes());
    LARGEST.store(0, Ordering::Relaxed);
    assert!(decode_trace(&forged).is_err());
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest <= forged.len() + ALLOCATION_SLACK, "a forged count allocated {largest} bytes");
    let mut accepted = 0u64;
    for case in 0..CASES {
        let seed = SEED ^ case;
        let bytes = mutate(&mut StdRng::seed_from_u64(seed), &seeds);
        assert!(bytes.len() <= MAX_INPUT, "seed {seed:#x} built {} bytes", bytes.len());
        LARGEST.store(0, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| decode_all(&bytes)));
        let largest = LARGEST.load(Ordering::Relaxed);
        let accepts = outcome.unwrap_or_else(|_| panic!("seed {seed:#x} panicked on {bytes:?}"));
        assert!(
            largest <= bytes.len() + ALLOCATION_SLACK,
            "seed {seed:#x} allocated {largest} bytes at once on {} input bytes: {bytes:?}",
            bytes.len()
        );
        accepted += u64::from(accepts > 0);
    }
    // The mutators reach both ends: some cases still decode, most do not.
    assert!(accepted > 0 && accepted < CASES, "{accepted} of {CASES} cases decoded");
    eprintln!("{CASES} cases in {:?}: {accepted} decoded", started.elapsed());
}
