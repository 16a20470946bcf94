//! Pins the lazy shortest-path NBF to the eager one it replaced.
//!
//! `eager_recover` below is the former `ShortestPathRecovery::recover`: it
//! builds all `path_attempts` Yen paths of a flow up front (a single
//! Dijkstra search when `path_attempts` is 1) and then tries them in order.
//! The lazy NBF computes a path only after the one before it did not
//! schedule. On seeded random topologies, under the no-fault case, every
//! single-switch fault and some switch pairs, with `path_attempts` 1–4,
//! both must return equal `RecoveryOutcome`s. The TAS configurations have
//! 2–5 or 20 slots, so congested flows fall back to their 2nd or 3rd
//! path, and 100 or 128, so windows cross the 64-bit words of the
//! schedule table. Some flows have frames larger than a slot or periods
//! the cycle cannot hold, which stop at the first path with an error.
//! Every recovered flow state is replayed through the frame-level
//! simulator.
//!
//! The eager NBF shares neither the schedule table nor
//! `schedule_flow_on_path` with the lazy one: it keeps a `Vec<bool>` of
//! slots per directed link and finds each hop's slot by trying the slots
//! of the window in order. The simulator would accept a later free slot
//! too, so only this comparison shows that the table finds the earliest.
//! Nor does it read the links its paths carry: it resolves every hop
//! through `ConnectionGraph::link_between`, and its assignments hold paths
//! rebuilt from their nodes, so the links a search records are pinned
//! too.

use std::sync::Arc;

use nptsn_rand::rngs::StdRng;
use nptsn_rand::{Rng, SeedableRng};
use nptsn_sched::{
    simulate, ErrorReport, FlowAssignment, FlowSet, FlowSpec, FlowState, NetworkBehavior,
    RecoveryOutcome, ShortestPathRecovery, TasConfig,
};
use nptsn_topo::{
    dijkstra_shortest_path, k_shortest_paths, Asil, ConnectionGraph, FailureScenario, NodeId,
    Path, Topology,
};

const SEED: u64 = 0x4e42_4600;
const CASES: u64 = 150;

/// What the eager NBF saw while recovering.
#[derive(Default)]
struct Tally {
    /// Flows that scheduled on their 2nd path or later.
    fallbacks: usize,
    /// Flows stopped by a specification error.
    errors: usize,
    /// Flows left unrecovered.
    unrecovered: usize,
}

/// Earliest-slot scheduling of `spec` along `path`, slot by slot:
/// `busy[2 * link + dir]` holds the taken slots of a directed link, `dir`
/// 0 when sending from the link's lower-indexed endpoint. `None` when a
/// hop has no free slot left in its window, `Err` for a frame over the
/// slot capacity or a period the cycle cannot hold.
fn schedule_slot_by_slot(
    busy: &mut [Vec<bool>],
    topology: &Topology,
    tas: &TasConfig,
    spec: &FlowSpec,
    path: &Path,
) -> Result<Option<FlowAssignment>, ()> {
    if spec.frame_bytes() > tas.slot_capacity_bytes() {
        return Err(());
    }
    let reps = tas.repetitions(spec.period_us()).map_err(|_| ())?;
    let window = tas.slots() / reps;
    let gc = topology.connection_graph();
    let mut rows = Vec::new();
    for (u, v) in path.edges() {
        let Some(link) = gc.link_between(u, v) else { return Ok(None) };
        rows.push(2 * link.index() + usize::from(u.index() > v.index()));
    }
    let mut slots = Vec::new();
    for r in 0..reps {
        let mut hops = Vec::new();
        let mut earliest = r * window;
        for &row in &rows {
            let Some(t) = (earliest..(r + 1) * window).find(|&t| !busy[row][t]) else {
                return Ok(None);
            };
            hops.push(t);
            earliest = t + 1;
        }
        slots.push(hops);
    }
    for hops in &slots {
        for (&t, &row) in hops.iter().zip(&rows) {
            busy[row][t] = true;
        }
    }
    Ok(Some(FlowAssignment::new(Path::new(gc, path.nodes().to_vec()), slots)))
}

/// The former `ShortestPathRecovery::recover`, with all paths built first.
fn eager_recover(
    path_attempts: usize,
    topology: &Topology,
    failure: &FailureScenario,
    tas: &TasConfig,
    flows: &FlowSet,
    tally: &mut Tally,
) -> RecoveryOutcome {
    let path_attempts = path_attempts.max(1);
    let adj = topology.residual_adjacency(failure);
    let directed = 2 * topology.connection_graph().candidate_link_count();
    let mut busy = vec![vec![false; tas.slots()]; directed];
    let mut state = FlowState::unassigned(flows.len());
    let mut errors = ErrorReport::empty();
    for (flow, spec) in flows.iter() {
        let candidates = if path_attempts == 1 {
            dijkstra_shortest_path(&adj, spec.source(), spec.destination()).into_iter().collect()
        } else {
            k_shortest_paths(&adj, spec.source(), spec.destination(), path_attempts)
        };
        let mut recovered = false;
        for (attempt, path) in candidates.iter().enumerate() {
            match schedule_slot_by_slot(&mut busy, topology, tas, spec, path) {
                Ok(Some(assignment)) => {
                    state.assign(flow, assignment);
                    recovered = true;
                    tally.fallbacks += usize::from(attempt > 0);
                    break;
                }
                Ok(None) => continue,
                Err(_) => {
                    tally.errors += 1;
                    break;
                }
            }
        }
        if !recovered {
            tally.unrecovered += 1;
            errors.record(spec.source(), spec.destination());
        }
    }
    RecoveryOutcome { state, errors }
}

/// 2–4 end stations of degree up to 3 and 2–5 switches; each switch links
/// to each other node with probability 0.8, lengths 1–2, and the topology
/// holds every switch and every link the degree limits allow.
fn random_topology(rng: &mut StdRng) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
    let mut gc = ConnectionGraph::new();
    gc.set_max_end_station_degree(3);
    let stations: Vec<NodeId> =
        (0..rng.gen_range(2usize..5)).map(|i| gc.add_end_station(format!("es{i}"))).collect();
    let switches: Vec<NodeId> =
        (0..rng.gen_range(2usize..6)).map(|i| gc.add_switch(format!("sw{i}"))).collect();
    for (i, &s) in switches.iter().enumerate() {
        for &t in stations.iter().chain(&switches[i + 1..]) {
            if rng.gen_range(0..10u32) < 8 {
                gc.add_candidate_link(s, t, rng.gen_range(1..=2u32) as f64).unwrap();
            }
        }
    }
    let gc = Arc::new(gc);
    let mut topo = Topology::empty(Arc::clone(&gc));
    for &s in &switches {
        topo.add_switch(s, Asil::A).unwrap();
    }
    for link in gc.links() {
        let (u, v) = gc.link_endpoints(link);
        let _ = topo.add_link(u, v);
    }
    (topo, stations, switches)
}

/// 3–12 flows between distinct stations. Periods are the cycle or, with
/// enough slots, half of it; about one flow in ten has a frame over the
/// slot capacity and one in twenty a period the cycle cannot hold.
fn random_flows(rng: &mut StdRng, stations: &[NodeId], tas: &TasConfig) -> FlowSet {
    let base = tas.base_period_us();
    // Two repetitions need a window of more than one slot per hop.
    let fraction = if tas.slots() >= 4 { 2 } else { 1 };
    let flows = (0..rng.gen_range(3usize..13))
        .map(|_| {
            let s = rng.gen_range(0..stations.len());
            let d = (s + rng.gen_range(1..stations.len())) % stations.len();
            let period = match rng.gen_range(0..20u32) {
                0 => base * 3 / 5,
                1..=5 => base / fraction,
                _ => base,
            };
            let bytes = match rng.gen_range(0..10u32) {
                0 => tas.slot_capacity_bytes() + rng.gen_range(1..=512u32),
                _ => rng.gen_range(64..=1500u32),
            };
            FlowSpec::new(stations[s], stations[d], period, bytes)
        })
        .collect();
    FlowSet::new(flows).unwrap()
}

/// The no-fault case, every single-switch fault and up to three pairs.
fn failures(rng: &mut StdRng, switches: &[NodeId]) -> Vec<FailureScenario> {
    let mut failures = vec![FailureScenario::none()];
    failures.extend(switches.iter().map(|&s| FailureScenario::switches(vec![s])));
    for _ in 0..3 {
        let a = rng.gen_range(0..switches.len());
        let b = rng.gen_range(0..switches.len());
        if a != b {
            failures.push(FailureScenario::switches(vec![switches[a], switches[b]]));
        }
    }
    failures
}

#[test]
fn lazy_recovery_equals_eager_recovery() {
    let started = std::time::Instant::now();
    let configs = [
        TasConfig::default(),
        TasConfig::new(500, 2, 1000),
        TasConfig::new(600, 3, 1000),
        TasConfig::new(500, 4, 1000),
        TasConfig::new(500, 5, 1000),
        TasConfig::new(500, 100, 10_000),
        TasConfig::new(640, 128, 10_000),
    ];
    let mut tally = Tally::default();
    let mut calls = 0;
    for case in 0..CASES {
        let seed = SEED + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let (topo, stations, switches) = random_topology(&mut rng);
        let tas = configs[rng.gen_range(0..configs.len())];
        let flows = random_flows(&mut rng, &stations, &tas);
        for failure in failures(&mut rng, &switches) {
            for attempts in 1..=4 {
                let lazy = ShortestPathRecovery::with_path_attempts(attempts)
                    .recover(&topo, &failure, &tas, &flows);
                let eager = eager_recover(attempts, &topo, &failure, &tas, &flows, &mut tally);
                assert_eq!(lazy, eager, "seed {seed:#x}, {failure:?}, {attempts} attempts");
                if let Err(e) = simulate(&topo, &failure, &tas, &flows, &lazy.state) {
                    panic!("seed {seed:#x}, {failure:?}, {attempts} attempts: {e}");
                }
                calls += 1;
            }
        }
    }
    // The sweep reaches every branch of the recovery loop.
    let Tally { fallbacks, errors, unrecovered } = tally;
    assert!(
        fallbacks > 0 && errors > 0 && unrecovered > errors,
        "fallbacks {fallbacks}, errors {errors}, unrecovered {unrecovered}"
    );
    eprintln!(
        "{calls} recoveries in {:?}: {fallbacks} fallbacks, {errors} errors, \
         {unrecovered} unrecovered",
        started.elapsed()
    );
}
