//! Seeded mutational fuzzing of the `.tssdn` problem parser and the plan
//! parser.
//!
//! `examples/data/quickstart.tssdn` (alone, with the optional
//! `[library]`, `[constraints]` and `[nbf]` sections appended, or with a
//! `[tas]` section of huge sizes appended) and a plan that `write_plan`
//! produces for it are mutated — byte flips, truncation, swapped or
//! duplicated sections, and numbers replaced by zero, huge, negative,
//! `NaN`, infinite or non-numeric values — and every case is parsed: a
//! mutated problem with `parse_problem` (and, when it parses, the plan
//! against it), a mutated plan with `parse_plan` against the original
//! problem. The contract:
//!
//! * every case returns `Ok` or `Err`, never panics;
//! * no case allocates a block larger than [`ALLOCATION_BOUND`];
//! * a problem that parses has a schedule table within
//!   [`MAX_SCHEDULE_CELLS`] and a slot capacity that fits in a `u32`, so
//!   the scheduler can hold whatever the parser accepts.
//!
//! Its own test binary: it installs a global allocator that records the
//! largest single allocation, which other tests in the process would
//! disturb.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use nptsn::MAX_SCHEDULE_CELLS;
use nptsn_format::{parse_plan, parse_problem, write_plan, ParsedProblem};
use nptsn_rand::{rngs::StdRng, Rng, SeedableRng};
use nptsn_topo::Asil;

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

/// The largest single allocation a case may make while parsing. A mutated
/// document is at most a few KiB; nothing in it may size an allocation.
const ALLOCATION_BOUND: usize = 64 * 1024;
const SEED: u64 = 0x5453_5344_4e46_5a5a;
const CASES: u64 = 3000;

const PROBLEM: &str = include_str!("../../../examples/data/quickstart.tssdn");
/// The sections and keys the quickstart problem leaves at their defaults.
const OPTIONAL_SECTIONS: &str = "\
[library]
combine_rounds = 1
[constraints]
max_end_station_degree = 2
max_switch_degree = 8
[nbf]
mechanism = shortest-path
";

/// A `[tas]` section that asks for a million slots of a million
/// microseconds at 10^10 Mbit/s: a 6.4 GB schedule table per NBF call at
/// ORION's size, and a slot capacity far beyond `u32`.
const HUGE_TAS: &str = "\
[tas]
base_period_us = 1000000
slots = 1000000
bandwidth_mbps = 10000000000
";

/// Values a number is replaced with.
const VALUES: [&str; 19] = [
    "0",
    "-0",
    "-1",
    "-5",
    "3",
    "7",
    "NaN",
    "inf",
    "-inf",
    "1e308",
    "100000",
    "1000000",
    "10000000000",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "abc",
    "0x10",
];

/// A plan for the quickstart problem: both switches at ASIL B with every
/// candidate link.
fn plan_for(parsed: &ParsedProblem) -> String {
    let gc = parsed.problem.connection_graph();
    let mut topo = gc.empty_topology();
    for &sw in gc.switches() {
        topo.add_switch(sw, Asil::B).unwrap();
    }
    for link in gc.links() {
        let (u, v) = gc.link_endpoints(link);
        topo.add_link(u, v).unwrap();
    }
    write_plan(&topo)
}

/// The byte ranges of the whitespace- or `=`-separated tokens that parse
/// as numbers.
fn numbers(text: &str) -> Vec<Range<usize>> {
    let mut spans = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices().chain([(text.len(), ' ')]) {
        let separator = c.is_whitespace() || c == '=';
        match (start, separator) {
            (None, false) => start = Some(i),
            (Some(s), true) => {
                if text[s..i].parse::<f64>().is_ok() {
                    spans.push(s..i);
                }
                start = None;
            }
            _ => {}
        }
    }
    spans
}

/// The byte ranges of the sections: each from its `[header]` line to the
/// next one.
fn sections(text: &str) -> Vec<Range<usize>> {
    let mut starts: Vec<usize> = Vec::new();
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        if line.trim_start().starts_with('[') {
            starts.push(offset);
        }
        offset += line.len();
    }
    let ends = starts.iter().skip(1).copied().chain([offset]);
    starts.iter().zip(ends).map(|(&s, e)| s..e).collect()
}

fn mutate(rng: &mut StdRng, text: &str) -> String {
    let mut text = text.to_string();
    for _ in 0..rng.gen_range(1..=3u32) {
        match rng.gen_range(0..6u32) {
            0 if !text.is_empty() => {
                let mut bytes = text.into_bytes();
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= rng.gen_range(1..=255u32) as u8;
                text = String::from_utf8_lossy(&bytes).into_owned();
            }
            1 => {
                let mut at = rng.gen_range(0..=text.len());
                while !text.is_char_boundary(at) {
                    at -= 1;
                }
                text.truncate(at);
            }
            2 => {
                let spans = sections(&text);
                if spans.len() >= 2 {
                    let a = rng.gen_range(0..spans.len());
                    let b = rng.gen_range(0..spans.len());
                    let mut order: Vec<Range<usize>> = spans.clone();
                    order.swap(a, b);
                    let head = text[..spans[0].start].to_string();
                    text = head + &order.into_iter().map(|r| &text[r]).collect::<String>();
                }
            }
            3 => {
                let spans = sections(&text);
                if !spans.is_empty() {
                    let copy = text[spans[rng.gen_range(0..spans.len())].clone()].to_string();
                    let at = spans[rng.gen_range(0..spans.len())].start;
                    text.insert_str(at, &copy);
                }
            }
            _ => {
                let spans = numbers(&text);
                if !spans.is_empty() {
                    let span = spans[rng.gen_range(0..spans.len())].clone();
                    text.replace_range(span, VALUES[rng.gen_range(0..VALUES.len())]);
                }
            }
        }
    }
    text
}

#[test]
fn parsers_survive_mutated_documents_within_their_allocation_bound() {
    let started = std::time::Instant::now();
    let original = parse_problem(PROBLEM).expect("the quickstart problem parses");
    let extended = format!("{PROBLEM}{OPTIONAL_SECTIONS}");
    parse_problem(&extended).expect("the quickstart problem with every section parses");
    let huge = format!("{PROBLEM}{HUGE_TAS}");
    parse_problem(&huge).expect_err("a million slots of 10^10 Mbit/s are rejected");
    let seeds = [PROBLEM, &extended, &huge];
    let plan = plan_for(&original);
    parse_plan(&original, &plan).expect("the written plan parses");
    let mut parsed = [0u64; 2];
    for case in 0..CASES {
        let seed = SEED ^ case;
        let mut rng = StdRng::seed_from_u64(seed);
        let mutate_problem = rng.gen_range(0..2u32) == 0;
        let (problem, plan) = if mutate_problem {
            let base = seeds[rng.gen_range(0..seeds.len())];
            (mutate(&mut rng, base), plan.clone())
        } else {
            (PROBLEM.to_string(), mutate(&mut rng, &plan))
        };
        LARGEST.store(0, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if !mutate_problem {
                return Ok(parse_plan(&original, &plan).is_ok());
            }
            parse_problem(&problem).map(|p| {
                let (gc, tas) = (p.problem.connection_graph(), p.problem.tas());
                let cells = 2 * gc.candidate_link_count() as u64 * tas.slots() as u64;
                assert!(cells <= MAX_SCHEDULE_CELLS, "{cells} schedule-table cells");
                let bits = u128::from(tas.bandwidth_mbps()) * u128::from(tas.slot_duration_us());
                assert_eq!(u128::from(tas.slot_capacity_bytes()), bits / 8);
                parse_plan(&p, &plan).is_ok()
            })
        }));
        let largest = LARGEST.load(Ordering::Relaxed);
        let shown = if mutate_problem { &problem } else { &plan };
        let outcome = outcome.unwrap_or_else(|_| panic!("seed {seed:#x} panicked on {shown:?}"));
        assert!(
            largest <= ALLOCATION_BOUND,
            "seed {seed:#x} allocated {largest} bytes at once on {shown:?}"
        );
        if let Ok(plan_ok) = outcome {
            parsed[usize::from(plan_ok)] += 1;
        }
    }
    // The mutations leave some documents valid and break the others.
    let accepted = parsed[1];
    assert!(accepted > 0 && accepted < CASES, "{accepted} of {CASES} cases parsed");
    eprintln!("{CASES} cases in {:?}: {accepted} parsed whole", started.elapsed());
}
