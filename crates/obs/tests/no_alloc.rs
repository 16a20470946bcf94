//! Pins the "near-zero cost when disabled" claim: with tracing off, spans
//! and events perform **zero heap allocations**.
//!
//! This test lives in its own integration-test binary because it installs
//! a counting global allocator — sharing a process with unrelated tests
//! would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn disabled_tracing_does_not_allocate() {
    assert!(!nptsn_obs::enabled(), "tracing must start disabled");

    // Arm the flight recorder: its ring allocates *here*, once, and the
    // recording path below must stay allocation-free even while armed
    // (the always-on server configuration).
    nptsn_obs::flight_init(1024);
    assert!(nptsn_obs::flight_armed());

    // Warm up any lazy one-time state outside the measured window.
    {
        let _span = nptsn_obs::span("warmup");
        nptsn_obs::event(nptsn_obs::Level::Error, "warmup", "static message");
    }

    // The counter is process-global, so the libtest harness thread can
    // allocate concurrently with the probe window. A per-call allocation in
    // disabled tracing would show up in every attempt (>= 10k counts), so one
    // clean attempt proves the zero-allocation claim; retries only absorb
    // unrelated harness noise.
    let mut best = u64::MAX;
    for _attempt in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..10_000 {
            let _span = nptsn_obs::span("hot.span");
            nptsn_obs::event(nptsn_obs::Level::Error, "hot.event", "static message");
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        best = best.min(after - before);
        if best == 0 {
            break;
        }
    }

    assert_eq!(
        best, 0,
        "disabled tracing allocated {best} times across 20k probe calls in the cleanest attempt"
    );

    // The probes above ran with the flight recorder armed, so the ring
    // must actually have captured them — zero-alloc *and* recording.
    let snapshot = nptsn_obs::flight_snapshot();
    assert!(
        snapshot.iter().any(|e| e.name == "hot.span"),
        "armed flight recorder captured the probe spans"
    );
}
