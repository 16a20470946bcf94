//! Seeded mutational fuzzing of the `NPTSNCK2` checkpoint decoders.
//!
//! Training resumes through [`params_from_bytes`] and the serving layer
//! guards checkpoint uploads with [`checkpoint_shapes`]. Checkpoints of a
//! policy's parameter list (a two-layer GCN and two MLP heads, laid out as
//! `nptsn::PolicyNetwork` lays them out) and of small lists are mutated —
//! byte flips, truncation, extension, the tensor count or one tensor's
//! rows or cols set to 0, 1, its value ± 1 or `u64::MAX`, and a bad
//! version byte — and after half of the mutations the CRC trailer is
//! recomputed, so that well-framed mutants get past the checksum. Every
//! case is decoded by both functions. The contract:
//!
//! * every case returns `Ok` or `Err`, never panics;
//! * no case allocates a block larger than the input plus
//!   [`ALLOCATION_SLACK`];
//! * on `Err`, `params_from_bytes` leaves the target parameters untouched.
//!
//! Its own test binary: it installs a global allocator that records the
//! largest single allocation, which other tests in the process would
//! disturb.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use nptsn_nn::{checkpoint_shapes, params_from_bytes, params_to_bytes, Activation, Gcn, Mlp, Module};
use nptsn_rand::{rngs::StdRng, Rng, SeedableRng};
use nptsn_tensor::Tensor;

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

/// What a decode may allocate at once beyond the length of its input: the
/// decoded values never outgrow the bytes that hold them, and the
/// per-tensor bookkeeping is a few words per tensor the input frames.
const ALLOCATION_SLACK: usize = 1024;
const SEED: u64 = 0x4e50_5453_4e43_4b32;
const CASES: u64 = 3000;

/// The bytes before the first tensor: the 8-byte magic and the count.
const HEADER: usize = 16;

/// A policy's parameter list as `nptsn::PolicyNetwork` builds it: GCN
/// weights `[f, e, e]`, then the actor and critic MLPs over the pooled
/// embedding and the auxiliary vector.
fn policy(seed: u64) -> Vec<Tensor> {
    let (features, embedding, aux, actions) = (12, 10, 8, 7);
    let mut rng = StdRng::seed_from_u64(seed);
    let gcn = Gcn::new(&mut rng, &[features, embedding, embedding]);
    let head = |rng: &mut StdRng, out: usize| {
        Mlp::new(rng, &[embedding + aux, 16, 16, out], Activation::Tanh, Activation::Identity)
    };
    let actor = head(&mut rng, actions);
    let critic = head(&mut rng, 1);
    let mut params = gcn.parameters();
    params.extend(actor.parameters());
    params.extend(critic.parameters());
    params
}

/// Small lists: one scalar, and a row, a column and a square.
fn small(seed: u64) -> Vec<Vec<Tensor>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tensor = |rows: usize, cols: usize| {
        Tensor::param(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0f32)).collect())
    };
    vec![vec![tensor(1, 1)], vec![tensor(1, 3), tensor(4, 1), tensor(2, 2)]]
}

/// The IEEE CRC-32 the format's trailer carries.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// Byte offsets of each tensor's rows field in a well-formed checkpoint.
fn shape_offsets(params: &[Tensor]) -> Vec<usize> {
    let mut at = HEADER;
    params
        .iter()
        .map(|p| {
            let here = at;
            at += 16 + 4 * p.len();
            here
        })
        .collect()
}

/// A replacement for a `u64` header field whose true value is `value`.
fn field_value(rng: &mut StdRng, value: u64) -> u64 {
    match rng.gen_range(0..5u32) {
        0 => 0,
        1 => 1,
        2 => value.wrapping_sub(1),
        3 => value + 1,
        _ => u64::MAX,
    }
}

fn set_u64(bytes: &mut [u8], at: usize, value: u64) {
    if let Some(field) = bytes.get_mut(at..at + 8) {
        field.copy_from_slice(&value.to_le_bytes());
    }
}

fn mutate(rng: &mut StdRng, clean: &[u8], params: &[Tensor]) -> Vec<u8> {
    let mut bytes = clean.to_vec();
    let offsets = shape_offsets(params);
    for _ in 0..rng.gen_range(1..=2u32) {
        match rng.gen_range(0..6u32) {
            0 if !bytes.is_empty() => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= rng.gen_range(1..=255u32) as u8;
            }
            1 => bytes.truncate(rng.gen_range(0..=bytes.len())),
            2 => {
                let extra = rng.gen_range(1..=64usize);
                bytes.extend((0..extra).map(|_| rng.gen_range(0..=255u32) as u8));
            }
            3 => {
                let count = field_value(rng, params.len() as u64);
                set_u64(&mut bytes, 8, count);
            }
            4 => {
                let i = rng.gen_range(0..params.len());
                let (rows, cols) = params[i].shape();
                let (at, value) = if rng.gen_range(0..2u32) == 0 {
                    (offsets[i], rows)
                } else {
                    (offsets[i] + 8, cols)
                };
                let value = field_value(rng, value as u64);
                set_u64(&mut bytes, at, value);
            }
            _ if bytes.len() > 7 => bytes[7] = rng.gen_range(0..=255u32) as u8,
            _ => {}
        }
    }
    // Reframe half of the mutants with a valid trailer.
    if rng.gen_range(0..2u32) == 0 && bytes.len() >= 4 {
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
    }
    bytes
}

fn bits(params: &[Tensor]) -> Vec<Vec<u32>> {
    params.iter().map(|p| p.data().iter().map(|v| v.to_bits()).collect()).collect()
}

#[test]
fn decoders_survive_mutated_checkpoints_within_their_allocation_bound() {
    let started = std::time::Instant::now();
    let mut sources = vec![policy(1)];
    sources.extend(small(2));
    // A target of each source's shapes, holding other values.
    let mut targets = vec![policy(3)];
    targets.extend(small(4));
    let cleans: Vec<Vec<u8>> = sources.iter().map(|p| params_to_bytes(p)).collect();
    for (clean, source) in cleans.iter().zip(&sources) {
        let shapes: Vec<_> = source.iter().map(Tensor::shape).collect();
        assert_eq!(checkpoint_shapes(clean), Ok(shapes));
    }
    let initial: Vec<Vec<Vec<f32>>> =
        targets.iter().map(|t| t.iter().map(Tensor::to_vec).collect()).collect();

    let mut outcomes = [0u64; 2];
    for case in 0..CASES {
        let seed = SEED ^ case;
        let mut rng = StdRng::seed_from_u64(seed);
        let which = rng.gen_range(0..sources.len());
        let bytes = mutate(&mut rng, &cleans[which], &sources[which]);
        let target = &targets[which];
        for (p, v) in target.iter().zip(&initial[which]) {
            p.set_data(v);
        }
        let before = bits(target);
        let bound = bytes.len() + ALLOCATION_SLACK;

        LARGEST.store(0, Ordering::Relaxed);
        let restored = catch_unwind(AssertUnwindSafe(|| params_from_bytes(target, &bytes)));
        let largest = LARGEST.load(Ordering::Relaxed);
        let restored = restored.unwrap_or_else(|_| panic!("seed {seed:#x}: params_from_bytes panicked"));
        assert!(largest <= bound, "seed {seed:#x}: params_from_bytes allocated {largest} bytes at once");
        if restored.is_err() {
            assert!(bits(target) == before, "seed {seed:#x}: a failed restore changed the target");
        }

        LARGEST.store(0, Ordering::Relaxed);
        let shapes = catch_unwind(AssertUnwindSafe(|| checkpoint_shapes(&bytes)));
        let largest = LARGEST.load(Ordering::Relaxed);
        let shapes = shapes.unwrap_or_else(|_| panic!("seed {seed:#x}: checkpoint_shapes panicked"));
        assert!(largest <= bound, "seed {seed:#x}: checkpoint_shapes allocated {largest} bytes at once");
        // The guard and the restore agree on what a well-formed stream is:
        // a restore succeeds exactly when the stream frames the target's
        // shapes.
        let fits = shapes.as_ref().is_ok_and(|s| s.iter().copied().eq(target.iter().map(Tensor::shape)));
        assert_eq!(restored.is_ok(), fits, "seed {seed:#x}: {restored:?} against {shapes:?}");
        outcomes[usize::from(restored.is_ok())] += 1;
    }
    // The mutations leave some checkpoints restorable and break the others.
    let restored = outcomes[1];
    assert!(restored > 0 && restored < CASES, "{restored} of {CASES} cases restored");
    eprintln!("{CASES} cases in {:?}: {restored} restored", started.elapsed());
}
