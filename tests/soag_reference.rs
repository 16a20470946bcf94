//! Pins the memoized SOAG to the generator it was before the memo.
//!
//! `Soag::generate` takes its K shortest paths from the problem's path
//! memo, keyed by the graph Yen searches (the selected switches that did
//! not fail, the failed end stations and the failed links), K and the
//! drawn endpoint pair, and computes the mask against the topology at
//! every call. [`reference`] below is the former `generate`: the filtered
//! candidate adjacency and Yen at every call, no memo. On ORION and ADS,
//! for random switch subsets, ASILs and link sets, under no failure,
//! switch failures, link failures, end-station failures (the
//! counterexamples of an `AllNodes` analysis carry them) and mixes, with
//! K in {1, 4, 16}, both must return the same actions and mask and leave
//! the RNG in the same state, on the call that fills an entry and on the
//! hits that follow.
//!
//! A model of the memo (every search graph filled since the last reset,
//! with the links, ASILs, selected switches and failure of the call that
//! filled it) checks that a call hits exactly when its graph was filled
//! before. Each switch set also runs on a topology without one of its
//! switches, so that the set under that switch's failure and the smaller
//! set search one graph. The sweep must reach hits from a topology whose
//! links differ from the filler's, hits whose ASILs differ, hits whose
//! selected switches and failure differ but whose graph is the same, and
//! a capacity reset: a key that left out the failed links, the switch set
//! or the failed stations, or a memoized mask, fails it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use nptsn::{Action, PathMemoStats, PlanningProblem, Soag, PATH_MEMO_CAPACITY};
use nptsn_rand::rngs::StdRng;
use nptsn_rand::{Rng, RngCore, SeedableRng};
use nptsn_scenarios::{ads, orion, random_flows, Scenario};
use nptsn_sched::{ErrorReport, ShortestPathRecovery};
use nptsn_topo::{
    k_shortest_paths, Asil, ComponentLibrary, FailureScenario, LinkId, NodeId, Path, Topology,
};

const SEED: u64 = 0x50a6_0000;
const KS: [usize; 3] = [1, 4, 16];
/// Topologies per switch set: the same keys under other links and ASILs.
const TOPOLOGIES: usize = 3;
const ORION_STATES: usize = 24;
/// ADS switch sets: each adds about 39 keys to the memo, so this many
/// fill it past its capacity once (the test asserts the reset).
const ADS_STATES: usize = 2 * PATH_MEMO_CAPACITY / 39;

/// The former `Soag::generate`, with its result as plain vectors and the
/// pair it drew.
fn reference(
    k: usize,
    problem: &PlanningProblem,
    topology: &Topology,
    failure: &FailureScenario,
    errors: &ErrorReport,
    rng: &mut impl Rng,
) -> (Vec<Action>, Vec<bool>, Option<(NodeId, NodeId)>) {
    let gc = problem.connection_graph();
    let mut actions = Vec::new();
    let mut mask = Vec::new();
    for &sw in gc.switches() {
        actions.push(Action::UpgradeSwitch(sw));
        mask.push(match topology.switch_asil(sw) {
            None => true,
            Some(asil) => asil.upgraded().is_some(),
        });
    }
    let mut paths: Vec<Path> = Vec::new();
    let mut pair = None;
    if !errors.is_empty() {
        let (s, d) = errors.pairs()[rng.gen_range(0..errors.len())];
        pair = Some((s, d));
        let mut adj: Vec<Vec<(NodeId, LinkId, f64)>> = vec![Vec::new(); gc.node_count()];
        for link in gc.links() {
            if failure.contains_link(link) {
                continue;
            }
            let (u, v) = gc.link_endpoints(link);
            let blocked = |x: NodeId| {
                failure.contains_switch(x) || (gc.is_switch(x) && !topology.contains_switch(x))
            };
            if blocked(u) || blocked(v) {
                continue;
            }
            let len = gc.link_length(link);
            adj[u.index()].push((v, link, len));
            adj[v.index()].push((u, link, len));
        }
        paths = k_shortest_paths(&adj, s, d, k);
    }
    for i in 0..k {
        match paths.get(i) {
            Some(path) => {
                let present =
                    |(u, v)| gc.link_between(u, v).is_some_and(|l| topology.contains_link(l));
                let adds_link = !path.edges().all(present);
                mask.push(adds_link && topology.can_add_path(path));
                actions.push(Action::AddPath(path.clone()));
            }
            None => {
                actions.push(Action::Unavailable);
                mask.push(false);
            }
        }
    }
    (actions, mask, pair)
}

/// The graph Yen searches (K, the selected switches that did not fail,
/// the failed end stations, the failed links) and the pair.
type Key = (usize, Vec<NodeId>, Vec<NodeId>, Vec<LinkId>, (NodeId, NodeId));

fn key(k: usize, topology: &Topology, failure: &FailureScenario, pair: (NodeId, NodeId)) -> Key {
    let gc = topology.connection_graph();
    let switches = topology.selected_switches().iter().copied();
    let failed = failure.failed_switches().iter().copied();
    (
        k,
        switches.filter(|&s| !failure.contains_switch(s)).collect(),
        failed.filter(|&x| gc.is_end_station(x)).collect(),
        failure.failed_links().to_vec(),
        pair,
    )
}

/// A call's links and switch ASILs, and its selected switches and
/// failure.
type Selection = (Vec<LinkId>, Vec<Option<Asil>>, Vec<NodeId>, FailureScenario);

fn selection(topology: &Topology, failure: &FailureScenario) -> Selection {
    let gc = topology.connection_graph();
    (
        topology.links().collect(),
        gc.switches().iter().map(|&s| topology.switch_asil(s)).collect(),
        topology.selected_switches().to_vec(),
        failure.clone(),
    )
}

/// What the sweep reached.
#[derive(Debug, Default)]
struct Coverage {
    calls: usize,
    hits: usize,
    hits_other_links: usize,
    hits_other_asils: usize,
    /// Hits whose selected switches or failure differ from the filler's.
    hits_same_graph: usize,
    link_failures: usize,
    station_failures: usize,
    resets: usize,
}

/// The keys filled since the last reset, with their filler's selection.
#[derive(Default)]
struct Model {
    filled: HashMap<Key, Selection>,
}

impl Model {
    /// Checks one call's memo counters against the model and updates it.
    fn record(
        &mut self,
        key: Option<Key>,
        current: Selection,
        before: PathMemoStats,
        after: PathMemoStats,
        coverage: &mut Coverage,
    ) {
        let Some(key) = key else {
            assert_eq!(before, after, "a call without an error pair must not touch the memo");
            return;
        };
        if after.resets > before.resets {
            self.filled.clear();
            coverage.resets += 1;
        }
        if after.hits == before.hits + 1 {
            assert_eq!(after.misses, before.misses);
            let filler = self
                .filled
                .get(&key)
                .unwrap_or_else(|| panic!("a hit on a key never filled: {key:?}"));
            coverage.hits += 1;
            coverage.hits_other_links += usize::from(filler.0 != current.0);
            coverage.hits_other_asils += usize::from(filler.1 != current.1);
            coverage.hits_same_graph +=
                usize::from((&filler.2, &filler.3) != (&current.2, &current.3));
        } else {
            assert_eq!((after.hits, after.misses), (before.hits, before.misses + 1));
            assert!(self.filled.insert(key, current).is_none(), "a miss on a key filled before");
        }
    }
}

fn problem(scenario: &Scenario, rng: &mut StdRng) -> PlanningProblem {
    PlanningProblem::new(
        Arc::clone(&scenario.graph),
        ComponentLibrary::automotive(),
        scenario.tas,
        random_flows(&scenario.graph, 8, rng.next_u64()),
        1e-6,
        Arc::new(ShortestPathRecovery::new()),
    )
    .unwrap()
}

/// The given switches at random ASILs and a random share of the candidate
/// links they admit (those past a degree bound are refused).
fn topology(scenario: &Scenario, switches: &[NodeId], rng: &mut StdRng) -> Topology {
    let gc = &scenario.graph;
    let mut topology = gc.empty_topology();
    for &sw in switches {
        topology.add_switch(sw, Asil::ALL[rng.gen_range(0..4usize)]).unwrap();
    }
    let share = rng.gen_range(0.1..0.9);
    let mut links: Vec<LinkId> = gc.links().collect();
    for i in (1..links.len()).rev() {
        links.swap(i, rng.gen_range(0..=i));
    }
    for link in links {
        if rng.gen_bool(share) {
            let (u, v) = gc.link_endpoints(link);
            let _ = topology.add_link(u, v);
        }
    }
    topology
}

/// No failure, one switch, one link at an error endpoint (so it tends to
/// lie on the paths), a switch and a link, two links, an error endpoint
/// (an `AllNodes` counterexample that fails a flow's own station), and a
/// switch and any end station.
fn failures(
    scenario: &Scenario,
    switches: &[NodeId],
    errors: &ErrorReport,
    rng: &mut StdRng,
) -> Vec<FailureScenario> {
    let gc = &scenario.graph;
    let pool = if switches.is_empty() { gc.switches() } else { switches };
    let mut switch = || pool[rng.gen_range(0..pool.len())];
    let (a, b, c) = (switch(), switch(), switch());
    let stations = gc.end_stations();
    let ends: Vec<NodeId> = errors.pairs().iter().flat_map(|&(s, d)| [s, d]).collect();
    let end = if ends.is_empty() { stations } else { &ends[..] };
    let (e1, e2) =
        (end[rng.gen_range(0..end.len())], stations[rng.gen_range(0..stations.len())]);
    let near: Vec<LinkId> = gc
        .links()
        .filter(|&l| {
            let (u, v) = gc.link_endpoints(l);
            ends.contains(&u) || ends.contains(&v)
        })
        .collect();
    let all: Vec<LinkId> = gc.links().collect();
    let near = if near.is_empty() { &all } else { &near };
    let mut link = || near[rng.gen_range(0..near.len())];
    let (l1, l2, l3, l4) = (link(), link(), link(), link());
    vec![
        FailureScenario::none(),
        FailureScenario::switches(vec![a]),
        FailureScenario::links(vec![l1]),
        FailureScenario::new(vec![b], vec![l2]),
        FailureScenario::links(vec![l3, l4]),
        FailureScenario::switches(vec![e1]),
        FailureScenario::switches(vec![c, e2]),
    ]
}

/// Up to three distinct ordered end-station pairs; one report in twelve
/// is empty (the SOAG then offers no paths and leaves the memo alone).
fn error_report(scenario: &Scenario, rng: &mut StdRng) -> ErrorReport {
    let stations = scenario.graph.end_stations();
    let mut errors = ErrorReport::empty();
    if rng.gen_range(0..12u32) == 0 {
        return errors;
    }
    for _ in 0..rng.gen_range(1..=3usize) {
        let s = stations[rng.gen_range(0..stations.len())];
        let d = stations[rng.gen_range(0..stations.len())];
        if s != d {
            errors.record(s, d);
        }
    }
    errors
}

/// Runs `states` switch sets on one problem: for each, every topology ×
/// failure × K in a shuffled order, on the problem or a clone of it. The
/// last topology leaves out the switch the second failure fails.
fn sweep(scenario: &Scenario, states: usize, rng: &mut StdRng, coverage: &mut Coverage) {
    let problems = {
        let problem = problem(scenario, rng);
        [problem.clone(), problem]
    };
    let mut model = Model::default();
    for _ in 0..states {
        let keep = rng.gen_range(0.2..1.0);
        let switches: Vec<NodeId> =
            scenario.graph.switches().iter().copied().filter(|_| rng.gen_bool(keep)).collect();
        let errors = error_report(scenario, rng);
        let failures = failures(scenario, &switches, &errors, rng);
        let mut topologies: Vec<Topology> =
            (0..TOPOLOGIES).map(|_| topology(scenario, &switches, rng)).collect();
        let fewer: Vec<NodeId> =
            switches.iter().copied().filter(|&s| !failures[1].contains_switch(s)).collect();
        topologies.push(topology(scenario, &fewer, rng));
        let mut calls: Vec<(usize, usize, usize)> = (0..topologies.len())
            .flat_map(|t| (0..failures.len()).flat_map(move |f| KS.map(|k| (t, f, k))))
            .collect();
        for i in (1..calls.len()).rev() {
            calls.swap(i, rng.gen_range(0..=i));
        }
        for (t, f, k) in calls {
            let (topology, failure) = (&topologies[t], &failures[f]);
            let problem = &problems[rng.gen_range(0..2usize)];
            let seed = rng.next_u64();
            let before = problem.path_memo_stats();
            let mut memo_rng = StdRng::seed_from_u64(seed);
            let set = Soag::new(k).generate(problem, topology, failure, &errors, &mut memo_rng);
            let after = problem.path_memo_stats();
            let mut ref_rng = StdRng::seed_from_u64(seed);
            let (actions, mask, pair) =
                reference(k, problem, topology, failure, &errors, &mut ref_rng);
            let what =
                format!("{} k={k} {failure} switches {switches:?} pair {pair:?}", scenario.name);
            assert_eq!(set.actions(), &actions[..], "actions: {what}");
            assert_eq!(set.mask(), &mask[..], "mask: {what}");
            assert_eq!(memo_rng.next_u64(), ref_rng.next_u64(), "rng state: {what}");
            let key = pair.map(|pair| key(k, topology, failure, pair));
            model.record(key, selection(topology, failure), before, after, coverage);
            coverage.calls += 1;
            coverage.link_failures += usize::from(!failure.failed_links().is_empty());
            let failed = failure.failed_switches();
            coverage.station_failures +=
                usize::from(failed.iter().any(|&x| scenario.graph.is_end_station(x)));
        }
    }
}

#[test]
fn memoized_soag_matches_the_unmemoized_generator() {
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut coverage = Coverage::default();
    sweep(&orion(), ORION_STATES, &mut rng, &mut coverage);
    // ADS is small enough to fill the memo past its capacity in a second.
    let before = coverage.calls;
    sweep(&ads(), ADS_STATES, &mut rng, &mut coverage);
    let ads_calls = coverage.calls - before;
    assert!(
        coverage.hits > 0
            && coverage.hits_other_links > 0
            && coverage.hits_other_asils > 0
            && coverage.hits_same_graph > 0
            && coverage.link_failures > 0
            && coverage.station_failures > 0
            && coverage.resets > 0,
        "the sweep must reach hits under other links and ASILs, hits on the same graph from \
         another switch set or failure, link and station failures, and a reset: {coverage:?}"
    );
    eprintln!("{coverage:?} ({ads_calls} on ADS) in {:?}", started.elapsed());
}
