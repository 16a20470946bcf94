//! Seeded mutational fuzzing of the segment-log frame decoder behind
//! [`LogStore::open`] and [`LogStore::export_live_since`].
//!
//! The seeds are segment logs written by `LogStore` itself: puts and
//! deletes with keys and values from 0 bytes to a few KiB, across several
//! segment rotations. Each case copies one seed log, mutates one of its
//! segments (byte flips, truncation, appended garbage, a frame's length
//! prefix set to 0, to the minimum payload − 1, to the bytes left ± 1 or
//! to `u32::MAX`, and re-checksummed payloads with an unknown op, a key
//! length past the payload, a non-UTF-8 key or a delete that carries a
//! value), then exports and reopens it. The contract:
//!
//! * `export_live_since` and `open` return `Ok` or `Err`, never panic;
//! * no case allocates a block larger than its largest segment plus
//!   [`ALLOCATION_SLACK`];
//! * every value the export or the reopened store returns was written for
//!   that key.
//!
//! Its own test binary: it installs a global allocator that records the
//! largest single allocation, which other tests in the process would
//! disturb.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use nptsn_obs::crc32;
use nptsn_rand::{rngs::StdRng, Rng, SeedableRng};
use nptsn_store::{LogConfig, LogStore, Storage};

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

/// How far past the largest segment one allocation may reach: the
/// index, the key list, paths and error messages are all far smaller.
const ALLOCATION_SLACK: usize = 4096;
const SEED: u64 = 0x5345_474d_454e_5446;
const CASES: u64 = 400;
/// Frame header: payload length + CRC (the format in `log.rs`).
const FRAME_HEADER: usize = 8;
/// Minimum payload: op byte + key length.
const MIN_PAYLOAD: usize = 5;

/// One seed: the segment files a `LogStore` wrote, every value written per
/// key, and what a clean reopen must recover.
struct SeedLog {
    segments: Vec<(String, Vec<u8>)>,
    written: HashMap<String, Vec<Vec<u8>>>,
    latest: BTreeMap<String, Vec<u8>>,
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nptsn-frame-fuzz-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A log of puts and deletes over a small key pool, in 2 KiB segments so
/// that values of up to 3 KiB rotate it several times.
fn seed_log(seed: u64) -> SeedLog {
    let mut rng = StdRng::seed_from_u64(seed);
    let dir = temp_dir(&format!("seed-{seed}"));
    let config = LogConfig { segment_bytes: 2048, sync_writes: false, auto_compact_bytes: 0 };
    let store = LogStore::open_with(&dir, config).expect("open a seed store");
    let keys = ["", "a", "job/0000000001", "job/0000000002", "ключ", &"k".repeat(300)];
    let mut written: HashMap<String, Vec<Vec<u8>>> = HashMap::new();
    let mut latest = BTreeMap::new();
    for _ in 0..40 {
        let key = keys[rng.gen_range(0..keys.len())];
        if rng.gen_range(0..5u32) == 0 {
            store.delete(key).expect("seed delete");
            latest.remove(key);
        } else {
            let len = [0, 1, 17, 300, 3000][rng.gen_range(0..5usize)];
            let value: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
            store.put(key, &value).expect("seed put");
            written.entry(key.to_string()).or_default().push(value.clone());
            latest.insert(key.to_string(), value);
        }
    }
    drop(store);
    let mut segments: Vec<(String, Vec<u8>)> = fs::read_dir(&dir)
        .expect("list the seed store")
        .map(|entry| {
            let entry = entry.expect("seed entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, fs::read(entry.path()).expect("read a seed segment"))
        })
        .collect();
    segments.sort();
    let _ = fs::remove_dir_all(&dir);
    assert!(segments.len() >= 3, "seed {seed:#x} never rotated: {} segments", segments.len());
    SeedLog { segments, written, latest }
}

/// The start offsets of the frames in `bytes` a walk of the length
/// prefixes reaches.
fn frame_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut at = 8; // the segment magic
    while at + FRAME_HEADER <= bytes.len() {
        starts.push(at);
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        at = at.saturating_add(FRAME_HEADER + len);
    }
    starts
}

/// Rewrites the payload of the frame at `at` with `edit` and refreshes its
/// CRC, so the decoder's checks behind the checksum see the damage.
fn edit_payload(bytes: &mut [u8], at: usize, edit: impl FnOnce(&mut [u8])) {
    let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
    let Some(end) = (at + FRAME_HEADER).checked_add(len).filter(|&end| end <= bytes.len()) else {
        return;
    };
    let payload = &mut bytes[at + FRAME_HEADER..end];
    if payload.len() < MIN_PAYLOAD {
        return;
    }
    edit(payload);
    let crc = crc32(payload);
    bytes[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
}

fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    for _ in 0..rng.gen_range(1..=3u32) {
        let frames = frame_starts(bytes);
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
            3 if !frames.is_empty() => {
                let at = frames[rng.gen_range(0..frames.len())];
                let left = (bytes.len() - at - FRAME_HEADER) as u32;
                let len = [0, MIN_PAYLOAD as u32 - 1, left.wrapping_sub(1), left + 1, u32::MAX]
                    [rng.gen_range(0..5usize)];
                bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
            }
            4 | 5 if !frames.is_empty() => {
                let at = frames[rng.gen_range(0..frames.len())];
                let damage = rng.gen_range(0..4u32);
                let bad_op = rng.gen_range(3..=255u32) as u8;
                let past = rng.gen_range(1..=u32::MAX);
                edit_payload(bytes, at, |payload| {
                    let key_len =
                        u32::from_le_bytes(payload[1..5].try_into().expect("4 bytes")) as usize;
                    match damage {
                        0 => payload[0] = bad_op,
                        1 => {
                            let room = (payload.len() - MIN_PAYLOAD) as u32;
                            let key_len = room.saturating_add(past);
                            payload[1..5].copy_from_slice(&key_len.to_le_bytes());
                        }
                        2 if key_len > 0 && MIN_PAYLOAD + key_len <= payload.len() => {
                            payload[MIN_PAYLOAD] = 0xff; // never a UTF-8 lead byte
                        }
                        3 if MIN_PAYLOAD + key_len < payload.len() => {
                            payload[0] = 2; // a delete, with the put's value behind it
                        }
                        _ => {}
                    }
                });
            }
            _ => {}
        }
    }
}

/// Asserts every `(key, value)` pair was written for its key.
fn assert_written(seed: u64, what: &str, log: &SeedLog, pairs: &[(String, Vec<u8>)]) {
    for (key, value) in pairs {
        let known = log.written.get(key).is_some_and(|values| values.contains(value));
        let len = value.len();
        assert!(known, "seed {seed:#x}: {what} returned {len} bytes never written for {key:?}");
    }
}

/// Everything a reopened store serves.
fn served(store: &LogStore) -> Vec<(String, Vec<u8>)> {
    let keys = store.keys_with_prefix("").expect("list keys");
    keys.into_iter()
        .map(|key| {
            let value = store.get(&key).expect("read a listed key").expect("a listed key is live");
            (key, value)
        })
        .collect()
}

fn write_log(dir: &Path, segments: &[(String, Vec<u8>)]) {
    fs::create_dir_all(dir).expect("create the case dir");
    for (name, bytes) in segments {
        fs::write(dir.join(name), bytes).expect("write a segment");
    }
}

#[test]
fn segment_decoder_survives_mutated_logs_within_its_allocation_bound() {
    let started = std::time::Instant::now();
    let logs: Vec<SeedLog> = (0..3).map(|i| seed_log(SEED.rotate_left(i))).collect();
    let dir = temp_dir("case");
    for log in &logs {
        // Every seed reopens to exactly its last writes.
        write_log(&dir, &log.segments);
        let store = LogStore::open(&dir).expect("a clean seed opens");
        let recovered: BTreeMap<String, Vec<u8>> = served(&store).into_iter().collect();
        assert_eq!(recovered, log.latest);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }
    let (mut opened, mut dropped) = (0u64, 0u64);
    for case in 0..CASES {
        let seed = SEED ^ case;
        let mut rng = StdRng::seed_from_u64(seed);
        let log = &logs[rng.gen_range(0..logs.len())];
        let mut segments = log.segments.clone();
        let victim = rng.gen_range(0..segments.len());
        mutate(&mut rng, &mut segments[victim].1);
        let largest_segment = segments.iter().map(|(_, bytes)| bytes.len()).max().unwrap_or(0);
        write_log(&dir, &segments);

        LARGEST.store(0, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let export = LogStore::export_live_since(&dir, None).map(|(pairs, _)| pairs);
            let reopened = LogStore::open(&dir).map(|store| (served(&store), store.recovery()));
            (export, reopened)
        }));
        let largest = LARGEST.load(Ordering::Relaxed);
        let (export, reopened) =
            outcome.unwrap_or_else(|_| panic!("seed {seed:#x} panicked (segment {victim})"));
        assert!(
            largest <= largest_segment + ALLOCATION_SLACK,
            "seed {seed:#x} allocated {largest} bytes at once; largest segment {largest_segment}"
        );
        if let Ok(pairs) = &export {
            assert_written(seed, "the export", log, pairs);
        }
        if let Ok((pairs, recovery)) = &reopened {
            assert_written(seed, "the reopened store", log, pairs);
            opened += 1;
            dropped += u64::from(recovery.torn_records_dropped > 0);
        }
        let _ = fs::remove_dir_all(&dir);
    }
    // The mutators reach both ends: most logs reopen, and some of those
    // lost frames to the damage.
    let tally = format!("{opened} of {CASES} reopened, {dropped} of them dropped frames");
    assert!(opened > CASES / 2 && dropped > 0, "{tally}");
    eprintln!("{CASES} cases in {:?}: {tally}", started.elapsed());
}
