//! Pins every shipped NBF's session to its stateless `recover`: one
//! session per topology recovers a random sequence of failures, and each
//! outcome, flow state and errors, must equal what a fresh `recover`
//! returns for that failure.
//!
//! The topologies are seeded random dual-homed meshes. Link lengths are 0,
//! 1 or 2, so zero-length links and routes of equal length are common.
//! Some end stations keep one link or none, so some pairs are
//! unreachable. Slot tables of 2–20 slots fill up, so flows fall back to
//! their 2nd and 3rd paths, and some periods do not fit the cycle. A
//! sequence fails switches, end stations (flow endpoints among them),
//! present and absent links, mixes of these and nothing, repeats failures
//! it already recovered, and follows no enumeration order.
//!
//! `recover` is a session of one failure for `ShortestPathRecovery` and
//! the stateless adapter, so each of their outcomes must also equal a
//! reference that shares no session code: the former eager
//! `ShortestPathRecovery::recover`, which builds the residual adjacency
//! and a flow's three Yen paths up front, and the adapter's definition,
//! `IncrementalRecovery` applied relative to its recovery of no failure.
//! The other two NBFs keep the default session, which calls `recover`.
//!
//! For `ShortestPathRecovery` the sweep also checks the fact its session
//! rests on: where a failure spares a flow's nominal path, its shortest
//! path on every present link, that path is also its shortest path on
//! the residual network. The sweep must reach such spared nominal paths
//! from a session's second recovery on, fallbacks to a later path (after
//! a spared nominal path too), failed flow endpoints, link failures on
//! nominal paths, unreachable pairs and failed recoveries.
//!
//! Four mutations of the shortest-path session fail this test: a reuse
//! check that reads failed switches but not failed links, reuse of a path
//! an earlier non-nominal recovery found, a schedule table kept between
//! recoveries, and a node filter in place of the link filter.

use std::sync::Arc;

use nptsn_rand::rngs::StdRng;
use nptsn_rand::{Rng, SeedableRng};
use nptsn_sched::{
    schedule_flow_on_path, ErrorReport, FlowSet, FlowSpec, FlowState, IncrementalRecovery,
    LoadBalancedRecovery, NetworkBehavior, RecoveryOutcome, RedundantRecovery, ScheduleTable,
    ShortestPathRecovery, Stateless, StatefulBehavior, TasConfig,
};
use nptsn_topo::{
    dijkstra_shortest_path, k_shortest_paths, Asil, ConnectionGraph, FailureScenario, LinkId,
    NodeId, Path, Topology,
};

const SEED: u64 = 0x5e55_1000;
const CASES: u64 = 400;

/// An outcome computed without the NBF under test.
type Reference = fn(&Case, &FailureScenario) -> RecoveryOutcome;

/// The NBFs this repository ships, each with a reference for `recover`
/// where `recover` runs the session's code.
fn nbfs() -> Vec<(Box<dyn NetworkBehavior>, Option<Reference>)> {
    vec![
        (Box::new(ShortestPathRecovery::new()), Some(eager_shortest_path)),
        (Box::new(LoadBalancedRecovery::new()), None),
        (Box::new(RedundantRecovery::new(2)), None),
        (Box::new(Stateless::new(IncrementalRecovery::new())), Some(adapter)),
    ]
}

/// The former `ShortestPathRecovery::recover`: on the residual adjacency,
/// a flow's three shortest paths are built first, then tried in order.
/// Each path is rebuilt from its nodes, its links resolved through
/// `ConnectionGraph::link_between`, so the links a search records are
/// pinned too.
fn eager_shortest_path(case: &Case, failure: &FailureScenario) -> RecoveryOutcome {
    let (topology, tas) = (&case.topology, &case.tas);
    let gc = topology.connection_graph();
    let adj = topology.residual_adjacency(failure);
    let mut table = ScheduleTable::new(gc, tas);
    let mut state = FlowState::unassigned(case.flows.len());
    let mut errors = ErrorReport::empty();
    for (flow, spec) in case.flows.iter() {
        let mut recovered = false;
        for path in k_shortest_paths(&adj, spec.source(), spec.destination(), 3) {
            let path = Arc::new(Path::new(gc, path.nodes().to_vec()));
            match schedule_flow_on_path(&mut table, tas, spec, &path) {
                Ok(Some(assignment)) => {
                    state.assign(flow, assignment);
                    recovered = true;
                    break;
                }
                Ok(None) => continue,
                Err(_) => break,
            }
        }
        if !recovered {
            errors.record(spec.source(), spec.destination());
        }
    }
    RecoveryOutcome { state, errors }
}

/// The stateless adapter by its definition: `IncrementalRecovery`
/// relative to `FI_0`, its recovery of no failure.
fn adapter(case: &Case, failure: &FailureScenario) -> RecoveryOutcome {
    let (topology, tas, flows) = (&case.topology, &case.tas, &case.flows);
    let inner = IncrementalRecovery::new();
    let empty = FlowState::unassigned(flows.len());
    let initial = inner.recover_from(topology, &FailureScenario::none(), tas, flows, &empty);
    if failure.is_empty() {
        return initial;
    }
    inner.recover_from(topology, failure, tas, flows, &initial.state)
}

/// One random problem: a topology, its TAS and flows.
struct Case {
    topology: Topology,
    tas: TasConfig,
    flows: FlowSet,
    stations: Vec<NodeId>,
    switches: Vec<NodeId>,
}

fn pick<T: Copy>(items: &[T], rng: &mut StdRng) -> T {
    items[rng.gen_range(0..items.len())]
}

fn random_case(rng: &mut StdRng) -> Case {
    let tas = TasConfig::new(500, pick(&[2, 4, 5, 10, 10, 20, 20], rng), 1000);
    let mut gc = ConnectionGraph::new();
    let stations: Vec<NodeId> =
        (0..rng.gen_range(3usize..7)).map(|i| gc.add_end_station(format!("es{i}"))).collect();
    let switches: Vec<NodeId> =
        (0..rng.gen_range(2usize..7)).map(|i| gc.add_switch(format!("sw{i}"))).collect();
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    for &e in &stations {
        pairs.extend(switches.iter().map(|&s| (e, s)));
    }
    for (i, &u) in switches.iter().enumerate() {
        pairs.extend(switches[i + 1..].iter().map(|&v| (u, v)));
    }
    for &(u, v) in &pairs {
        gc.add_candidate_link(u, v, pick(&[0.0, 1.0, 1.0, 2.0], rng)).unwrap();
    }
    let mut topology = gc.empty_topology();
    for &s in &switches {
        topology.add_switch(s, Asil::A).unwrap();
    }
    for &e in &stations {
        // Dual-homed, or one link or none, which leaves pairs unreachable.
        let first = rng.gen_range(0..switches.len());
        let second = (first + rng.gen_range(1..switches.len())) % switches.len();
        let homes = [switches[first], switches[second]];
        for &s in &homes[..pick(&[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 0], rng)] {
            // A link past the switch's degree bound is refused.
            let _ = topology.add_link(e, s);
        }
    }
    for (i, &u) in switches.iter().enumerate() {
        for &v in &switches[i + 1..] {
            if rng.gen_range(0..3u32) > 0 {
                let _ = topology.add_link(u, v);
            }
        }
    }
    let flows = (0..rng.gen_range(2usize..7))
        .map(|_| {
            let source = pick(&stations, rng);
            let others: Vec<NodeId> = stations.iter().copied().filter(|&e| e != source).collect();
            FlowSpec::new(source, pick(&others, rng), pick(&[500, 500, 500, 250], rng), 256)
        })
        .collect();
    Case { topology, tas, flows: FlowSet::new(flows).unwrap(), stations, switches }
}

/// A failure of one random kind; `earlier` supplies repeats.
fn random_failure(case: &Case, earlier: &[FailureScenario], rng: &mut StdRng) -> FailureScenario {
    let present: Vec<LinkId> = case.topology.links().collect();
    let candidates: Vec<LinkId> = case.topology.connection_graph().links().collect();
    let endpoint = |rng: &mut StdRng| {
        let spec = case.flows.specs()[rng.gen_range(0..case.flows.len())];
        pick(&[spec.source(), spec.destination()], rng)
    };
    match rng.gen_range(0..8u32) {
        0 => FailureScenario::none(),
        1 => FailureScenario::switches(vec![pick(&case.switches, rng)]),
        2 => FailureScenario::switches(vec![pick(&case.switches, rng), pick(&case.switches, rng)]),
        3 => FailureScenario::switches(vec![endpoint(rng)]),
        4 if !present.is_empty() => {
            FailureScenario::links(vec![pick(&present, rng), pick(&present, rng)])
        }
        5 => FailureScenario::links(vec![pick(&candidates, rng)]),
        6 => FailureScenario::new(
            vec![pick(&case.switches, rng), pick(&case.stations, rng)],
            vec![pick(&candidates, rng)],
        ),
        _ if !earlier.is_empty() => earlier[rng.gen_range(0..earlier.len())].clone(),
        _ => FailureScenario::none(),
    }
}

/// What the sweep reached.
#[derive(Debug, Default)]
struct Reached {
    outcomes: usize,
    failed_recoveries: usize,
    /// Flows whose nominal path a failure spared, from a session's second
    /// recovery on: the shortest-path session takes those paths without a
    /// search.
    spared_nominal: usize,
    /// Of those, flows that scheduled on a later path.
    spared_then_fallback: usize,
    /// Flows that scheduled on a later path than their first.
    fallbacks: usize,
    /// Flows whose nominal path a failed link cut, a failed switch not.
    cut_by_links: usize,
    /// Flows whose source or destination failed.
    failed_endpoints: usize,
    unreachable: usize,
}

/// Tallies one shortest-path outcome, `index` the failure's place in its
/// session, and checks that a spared nominal path is the residual's
/// shortest path.
fn tally(
    case: &Case,
    failure: &FailureScenario,
    index: usize,
    outcome: &RecoveryOutcome,
    reached: &mut Reached,
) {
    let topology = &case.topology;
    let (present, residual) = (topology.adjacency(), topology.residual_adjacency(failure));
    let by_switches = FailureScenario::switches(failure.failed_switches().to_vec());
    let switch_residual = topology.residual_adjacency(&by_switches);
    for (flow, spec) in case.flows.iter() {
        let (source, destination) = spec.endpoints();
        let nominal = dijkstra_shortest_path(&present, source, destination);
        let first = dijkstra_shortest_path(&residual, source, destination);
        let assigned = outcome.state.assignment(flow).map(|a| &**a.path());
        reached.unreachable += usize::from(nominal.is_none());
        reached.failed_endpoints +=
            usize::from(failure.contains_switch(source) || failure.contains_switch(destination));
        reached.fallbacks += usize::from(assigned.is_some() && assigned != first.as_ref());
        let Some(nominal) = nominal else { continue };
        if nominal.length_in(&residual).is_some() {
            assert_eq!(first.as_ref(), Some(&nominal), "a spared nominal path under {failure}");
            if index > 0 {
                reached.spared_nominal += 1;
                reached.spared_then_fallback +=
                    usize::from(assigned.is_some_and(|path| path != &nominal));
            }
        } else if nominal.length_in(&switch_residual).is_some() {
            reached.cut_by_links += 1;
        }
    }
}

#[test]
fn sessions_match_fresh_recovery() {
    let mut reached = Reached::default();
    for case_index in 0..CASES {
        let mut rng = StdRng::seed_from_u64(SEED + case_index);
        let case = random_case(&mut rng);
        let mut failures: Vec<FailureScenario> = Vec::new();
        for _ in 0..rng.gen_range(2usize..10) {
            let failure = random_failure(&case, &failures, &mut rng);
            failures.push(failure);
        }
        let (topology, tas, flows) = (&case.topology, &case.tas, &case.flows);
        for (n, (nbf, reference)) in nbfs().iter().enumerate() {
            let mut session = nbf.session(topology, tas, flows);
            for (index, failure) in failures.iter().enumerate() {
                let outcome = session.recover(failure);
                let fresh = nbf.recover(topology, failure, tas, flows);
                assert!(
                    outcome == fresh,
                    "case {case_index}: {}'s session at recovery {index} ({failure}) returned \
                     {outcome:?}, a fresh recovery {fresh:?}",
                    nbf.name()
                );
                if let Some(reference) = reference {
                    let expected = reference(&case, failure);
                    assert!(
                        fresh == expected,
                        "case {case_index}: {} under {failure} returned {fresh:?}, its \
                         reference {expected:?}",
                        nbf.name()
                    );
                }
                reached.outcomes += 1;
                reached.failed_recoveries += usize::from(!outcome.is_success());
                if n == 0 {
                    tally(&case, failure, index, &outcome, &mut reached);
                }
            }
        }
    }
    eprintln!("{reached:?}");
    assert!(
        reached.spared_nominal > 0
            && reached.spared_then_fallback > 0
            && reached.fallbacks > 0
            && reached.cut_by_links > 0
            && reached.failed_endpoints > 0
            && reached.unreachable > 0
            && reached.failed_recoveries > 0
            && reached.failed_recoveries < reached.outcomes,
        "the sweep must reach spared nominal paths, fallbacks after them and after searches, \
         nominal paths cut by links, failed endpoints, unreachable pairs, and failed and \
         recovered outcomes: {reached:?}"
    );
}
