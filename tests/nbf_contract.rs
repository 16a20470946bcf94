//! Pins the contract the planner's episode memo of NBF outcomes rests on:
//! an NBF's outcome depends on the topology only through its links, the
//! links present and those alive under the failure (`Topology::live_links`).
//!
//! On seeded ORION and ADS planning states (random valid actions from an
//! empty network, as an episode reaches them), under no failure, a switch
//! failure and a link failure, each NBF this repository ships must return
//! a bit-identical `RecoveryOutcome` after three changes that keep both
//! link sets: every selected switch below ASIL D raised one level, an
//! unselected switch selected without links, and that switch and an end
//! station without links added to the failure. An NBF that reads an ASIL
//! or the switch selection fails the test.
//!
//! A fourth change adds a link that the failure kills, which keeps the
//! live links only. The NBFs that read the residual network alone must
//! not move. The stateless adapter over `IncrementalRecovery` recovers
//! relative to the nominal flow state, built on every present link, so
//! such a link can move its outcome: a hand-built case shows it, which is
//! why the memo's key holds the present links too.

use std::sync::Arc;

use nptsn::{NetworkBehavior, PlanningEnv, PlanningProblem};
use nptsn_rand::rngs::StdRng;
use nptsn_rand::{Rng, RngCore, SeedableRng};
use nptsn_scenarios::{ads, orion, random_flows, Scenario};
use nptsn_sched::{
    FlowSet, FlowSpec, IncrementalRecovery, LoadBalancedRecovery, RecoveryOutcome,
    RedundantRecovery, ShortestPathRecovery, Stateless, TasConfig,
};
use nptsn_topo::{Asil, ConnectionGraph, FailureScenario, LinkId, NodeId, Topology};

const SEED: u64 = 0x4bf0_0000;
/// Planning states per scenario.
const STATES: usize = 16;

/// The NBFs under the contract, each with whether it reads the residual
/// network alone.
fn nbfs() -> Vec<(Box<dyn NetworkBehavior>, bool)> {
    vec![
        (Box::new(ShortestPathRecovery::new()), true),
        (Box::new(LoadBalancedRecovery::new()), true),
        (Box::new(RedundantRecovery::new(2)), true),
        (Box::new(Stateless::new(IncrementalRecovery::new())), false),
    ]
}

fn problem(scenario: &Scenario, rng: &mut StdRng) -> PlanningProblem {
    PlanningProblem::new(
        Arc::clone(&scenario.graph),
        nptsn_topo::ComponentLibrary::automotive(),
        scenario.tas,
        random_flows(&scenario.graph, 8, rng.next_u64()),
        1e-6,
        Arc::new(ShortestPathRecovery::new()),
    )
    .unwrap()
}

/// A planning state `steps` random valid actions into an episode.
fn state(problem: &PlanningProblem, seed: u64, steps: usize) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut env = PlanningEnv::new(problem.clone(), 8, 1e3, 64, &mut rng);
    for _ in 0..steps {
        let valid: Vec<usize> = (0..env.action_count()).filter(|&i| env.mask()[i]).collect();
        if valid.is_empty() {
            break;
        }
        let idx = valid[rng.gen_range(0..valid.len())];
        if env.step(idx, &mut rng).done {
            break;
        }
    }
    env.topology().clone()
}

fn pick<T: Copy>(items: &[T], rng: &mut StdRng) -> Option<T> {
    (!items.is_empty()).then(|| items[rng.gen_range(0..items.len())])
}

/// What the sweep reached.
#[derive(Debug, Default)]
struct Coverage {
    outcomes: usize,
    failed_recoveries: usize,
    raised: usize,
    linkless_switches: usize,
    linkless_stations: usize,
    dead_links: usize,
}

fn assert_same(
    nbf: &dyn NetworkBehavior,
    problem: &PlanningProblem,
    (topology, failure): (&Topology, &FailureScenario),
    expected: &RecoveryOutcome,
    what: &str,
) {
    let outcome = nbf.recover(topology, failure, problem.tas(), problem.flows());
    assert!(&outcome == expected, "{}: {what} changed the outcome under {failure}", nbf.name());
}

fn sweep(scenario: &Scenario, rng: &mut StdRng, coverage: &mut Coverage) {
    let gc = &scenario.graph;
    for _ in 0..STATES {
        let problem = problem(scenario, rng);
        let topology = state(&problem, rng.next_u64(), rng.gen_range(0..40usize));
        let selected = topology.selected_switches().to_vec();
        let links: Vec<LinkId> = topology.links().collect();
        let mut failures = vec![FailureScenario::none()];
        failures.extend(pick(&selected, rng).map(|s| FailureScenario::switches(vec![s])));
        failures.extend(pick(&links, rng).map(|l| FailureScenario::links(vec![l])));

        // Every selected switch below ASIL D one level up.
        let mut raised = topology.clone();
        for &s in &selected {
            let _ = raised.upgrade_switch(s);
        }
        // An unselected switch, selected at a random ASIL without links.
        let unselected: Vec<NodeId> =
            gc.switches().iter().copied().filter(|&s| !topology.contains_switch(s)).collect();
        let linkless_switch = pick(&unselected, rng);
        let mut with_switch = topology.clone();
        if let Some(s) = linkless_switch {
            with_switch.add_switch(s, Asil::ALL[rng.gen_range(0..4usize)]).unwrap();
        }
        let bare: Vec<NodeId> =
            gc.end_stations().iter().copied().filter(|&e| topology.degree(e) == 0).collect();
        let linkless_station = pick(&bare, rng);
        // A link at the failed switch that the topology lacks and admits.
        let dead_link = failures.get(1).filter(|f| !f.failed_switches().is_empty()).and_then(|f| {
            let s = f.failed_switches()[0];
            gc.links().find_map(|l| {
                let (u, v) = gc.link_endpoints(l);
                let mut grown = topology.clone();
                ((u == s || v == s) && grown.add_link(u, v).is_ok()).then(|| (f.clone(), grown))
            })
        });

        coverage.raised += usize::from(raised != topology);
        coverage.linkless_switches += usize::from(linkless_switch.is_some());
        coverage.linkless_stations += usize::from(linkless_station.is_some());
        coverage.dead_links += usize::from(dead_link.is_some());
        for (nbf, residual_only) in nbfs() {
            for failure in &failures {
                let expected = nbf.recover(&topology, failure, problem.tas(), problem.flows());
                coverage.outcomes += 1;
                coverage.failed_recoveries += usize::from(!expected.is_success());
                let nbf = nbf.as_ref();
                assert_same(nbf, &problem, (&raised, failure), &expected, "raising ASILs");
                assert_same(nbf, &problem, (&with_switch, failure), &expected, "a linkless switch");
                let mut dead = failure.failed_switches().to_vec();
                dead.extend(linkless_switch);
                dead.extend(linkless_station);
                let widened = FailureScenario::new(dead, failure.failed_links().to_vec());
                assert_same(
                    nbf,
                    &problem,
                    (&with_switch, &widened),
                    &expected,
                    "failing linkless nodes",
                );
            }
            if let Some((failure, grown)) = dead_link.as_ref().filter(|_| residual_only) {
                let expected = nbf.recover(&topology, failure, problem.tas(), problem.flows());
                assert_same(nbf.as_ref(), &problem, (grown, failure), &expected, "a dead link");
            }
        }
    }
}

#[test]
fn outcomes_depend_only_on_the_links() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut coverage = Coverage::default();
    sweep(&orion(), &mut rng, &mut coverage);
    sweep(&ads(), &mut rng, &mut coverage);
    assert!(
        coverage.failed_recoveries > 0
            && coverage.failed_recoveries < coverage.outcomes
            && coverage.raised > 0
            && coverage.linkless_switches > 0
            && coverage.linkless_stations > 0
            && coverage.dead_links > 0,
        "the sweep must reach recovered and failed outcomes, raised ASILs, linkless switches \
         and stations, and dead links: {coverage:?}"
    );
    eprintln!("{coverage:?}");
}

/// Flow 0 (a → b) and flow 1 (c → b) share the link s1 → b when flow 0
/// routes through s1. With the link s0 – b, flow 0's nominal path takes
/// the shorter s0, so under the failure of s0 it is re-routed after flow
/// 1 kept its slot, and the two flows swap slots on s1 → b. Without that
/// link, which the failure kills, flow 0 keeps its nominal slot.
#[test]
fn the_stateless_adapter_reads_the_present_links() {
    let mut gc = ConnectionGraph::new();
    let [a, b, c] = ["a", "b", "c"].map(|name| gc.add_end_station(name));
    let [s0, s1] = ["s0", "s1"].map(|name| gc.add_switch(name));
    for (u, v, length) in [(a, s0, 1.0), (s0, b, 1.0), (a, s1, 2.0), (s1, b, 2.0), (c, s1, 1.0)] {
        gc.add_candidate_link(u, v, length).unwrap();
    }
    let mut topology = gc.empty_topology();
    for s in [s0, s1] {
        topology.add_switch(s, Asil::A).unwrap();
    }
    for (u, v) in [(a, s0), (a, s1), (s1, b), (c, s1)] {
        topology.add_link(u, v).unwrap();
    }
    let mut grown = topology.clone();
    grown.add_link(s0, b).unwrap();
    let failure = FailureScenario::switches(vec![s0]);
    let live = |t: &Topology| t.live_links(&failure).collect::<Vec<_>>();
    assert_eq!(live(&topology), live(&grown));
    let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128), FlowSpec::new(c, b, 500, 128)])
        .unwrap();
    let tas = TasConfig::default();
    let adapter = Stateless::new(IncrementalRecovery::new());
    let before = adapter.recover(&topology, &failure, &tas, &flows);
    let after = adapter.recover(&grown, &failure, &tas, &flows);
    assert!(before.is_success() && after.is_success());
    assert_ne!(before.state, after.state, "the dead link s0 - b moved the recovered slots");
    let direct = ShortestPathRecovery::new();
    let recover = |t: &Topology| direct.recover(t, &failure, &tas, &flows);
    assert_eq!(recover(&topology), recover(&grown));
}
