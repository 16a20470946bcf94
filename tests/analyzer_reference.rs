//! Pins the failure analyzer to a textbook Algorithm 3, and the lazy NBF
//! to the eager one.
//!
//! The reference below is the paper's enumeration written as plainly as
//! possible: switch candidates sorted by decreasing failure probability,
//! `maxord`, lexicographic combinations from `maxord` down, survivors kept
//! as a list of scenarios with an element-wise subset scan, and a plain
//! budget counter. No bitsets, no memo buckets, no cache. It recovers
//! through [`EagerRecovery`], the former `ShortestPathRecovery::recover`.
//! On seeded random problems and planning states, [`FailureAnalyzer`] must
//! return the same verdict (counterexample scenario and error pairs
//! included), the same `scenarios_checked` and the same `exhausted`: over
//! the lazy `ShortestPathRecovery` and over the eager NBF uncached, over
//! the lazy one with one cache shared across several topologies of a
//! problem (cold, then warm), and under every budget. Some slot tables are
//! tight enough that flows fall back to a later path.
//!
//! An analysis through a fresh [`ScenarioCache`], the way `nptsn verify`
//! and the serve verify job run one, reports no hit and one miss per
//! checked scenario on every topology of the sweeps: one analysis checks
//! each scenario once, so a per-call cache only counts.
//!
//! The episode memo ([`RecoveryMemo`], keyed by the links present and
//! those alive under a scenario) is pinned on seeded episodes of random
//! valid actions, one memo per episode, as [`PlanningEnv`] keeps it, over
//! the shortest-path NBF and over the stateless adapter: after every
//! step, [`FailureAnalyzer::try_analyze_with`] must match the textbook
//! Algorithm 3, unbounded and under a budget, and every check must be
//! one hit or one miss. The sweep must reach hits right after an ASIL
//! upgrade and right after a switch is added. A hand-built episode of
//! the adapter has two states with the same live links and different
//! errors. A key of the present links alone, of the live links alone, a
//! key that keeps a failed switch's links, or a hit left out of
//! `scenarios_checked` fails them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nptsn::{
    Action, AnalysisBudget, AnalysisReport, FailureAnalyzer, NetworkBehavior, PlanningEnv,
    PlanningProblem, RecoveryMemo, ScenarioCache, Verdict,
};
use nptsn_rand::rngs::StdRng;
use nptsn_rand::{Rng, RngCore, SeedableRng};
use nptsn_sched::{
    schedule_flow_on_path, ErrorReport, FlowSet, FlowSpec, FlowState, IncrementalRecovery,
    RecoveryOutcome, ScheduleTable, ShortestPathRecovery, Stateless, TasConfig,
};
use nptsn_topo::{
    k_shortest_paths, Asil, ComponentLibrary, ConnectionGraph, FailureScenario, NodeId, Path,
    Topology,
};

/// The path attempts of `ShortestPathRecovery::new()`, which the random
/// problems use.
const PATH_ATTEMPTS: usize = 3;

/// The former `ShortestPathRecovery::recover`: a flow's `PATH_ATTEMPTS`
/// shortest paths are all built first, then tried in order. Each path is
/// rebuilt from its nodes, its links resolved through
/// `ConnectionGraph::link_between`, so the links a search records are
/// pinned too. It counts the flows that scheduled on a later path, so a
/// sweep can show it reached them.
#[derive(Default)]
struct EagerRecovery {
    fallbacks: AtomicUsize,
}

impl NetworkBehavior for EagerRecovery {
    fn recover(
        &self,
        topology: &Topology,
        failure: &FailureScenario,
        tas: &TasConfig,
        flows: &FlowSet,
    ) -> RecoveryOutcome {
        let gc = topology.connection_graph();
        let adj = topology.residual_adjacency(failure);
        let mut table = ScheduleTable::new(gc, tas);
        let mut state = FlowState::unassigned(flows.len());
        let mut errors = ErrorReport::empty();
        for (flow, spec) in flows.iter() {
            let (source, destination) = (spec.source(), spec.destination());
            let candidates = k_shortest_paths(&adj, source, destination, PATH_ATTEMPTS);
            let mut recovered = false;
            for (attempt, path) in candidates.iter().enumerate() {
                let path = Arc::new(Path::new(gc, path.nodes().to_vec()));
                match schedule_flow_on_path(&mut table, tas, spec, &path) {
                    Ok(Some(assignment)) => {
                        state.assign(flow, assignment);
                        recovered = true;
                        self.fallbacks.fetch_add(usize::from(attempt > 0), Ordering::Relaxed);
                        break;
                    }
                    Ok(None) => continue,
                    Err(_) => break,
                }
            }
            if !recovered {
                errors.record(source, destination);
            }
        }
        RecoveryOutcome { state, errors }
    }
}

/// `problem` with the eager NBF in place of `ShortestPathRecovery::new()`,
/// and that NBF.
fn eager_twin(problem: &PlanningProblem) -> (PlanningProblem, Arc<EagerRecovery>) {
    let nbf = Arc::new(EagerRecovery::default());
    let twin = PlanningProblem::new(
        problem.connection_graph_arc(),
        problem.library().clone(),
        *problem.tas(),
        problem.flows().clone(),
        problem.reliability_goal(),
        Arc::clone(&nbf) as Arc<dyn NetworkBehavior>,
    )
    .unwrap();
    (twin, nbf)
}

/// A random dual-homed candidate mesh. Lenient goals leave most faults
/// safe; strict ones raise `maxord` so that pruning engages. A slot table
/// of 2–5 slots instead of 20 fills up, so flows fall back to later paths.
fn random_problem(rng: &mut StdRng, reliability_goal: f64) -> PlanningProblem {
    let slots = [2, 4, 5, 20][rng.gen_range(0..4usize)];
    let tas = TasConfig::new(500, slots, 1000);
    let es = rng.gen_range(3usize..5);
    let sw = rng.gen_range(2usize..6);
    let nflows = rng.gen_range(1usize..5);
    let mut gc = ConnectionGraph::new();
    let stations: Vec<NodeId> = (0..es).map(|i| gc.add_end_station(format!("es{i}"))).collect();
    let switches: Vec<NodeId> = (0..sw).map(|i| gc.add_switch(format!("sw{i}"))).collect();
    for &e in &stations {
        for &s in &switches {
            gc.add_candidate_link(e, s, 1.0).unwrap();
        }
    }
    for i in 0..switches.len() {
        for j in i + 1..switches.len() {
            gc.add_candidate_link(switches[i], switches[j], 1.0).unwrap();
        }
    }
    let mut flows = Vec::new();
    for _ in 0..nflows {
        let s = stations[rng.gen_range(0..stations.len())];
        let mut d = stations[rng.gen_range(0..stations.len())];
        if d == s {
            d = stations[(s.index() + 1) % stations.len()];
        }
        flows.push(FlowSpec::new(s, d, 500, 256));
    }
    PlanningProblem::new(
        Arc::new(gc),
        ComponentLibrary::automotive(),
        tas,
        FlowSet::new(flows).unwrap(),
        reliability_goal,
        Arc::new(ShortestPathRecovery::new()),
    )
    .unwrap()
}

/// A mid-construction topology reached by stepping the environment with
/// random valid actions: the states the analyzer sees during training.
fn random_topology(problem: &PlanningProblem, seed: u64, steps: usize) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut env = PlanningEnv::new(problem.clone(), 6, 1e3, 64, &mut rng);
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

/// Every `k`-element subset of `0..n`, ascending within, in lexicographic
/// order.
fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for first in 0..n {
        for rest in combinations(n - first - 1, k - 1) {
            let mut combo = vec![first];
            combo.extend(rest.iter().map(|&i| first + 1 + i));
            out.push(combo);
        }
    }
    out
}

/// The non-safe switch faults (probability ≥ R), nominal included, in the
/// order Algorithm 3 visits them.
fn non_safe_faults(problem: &PlanningProblem, topology: &Topology) -> Vec<FailureScenario> {
    // Line 1: candidates by decreasing failure probability, ties by id,
    // and maxord, the most failures whose joint probability reaches R.
    let mut candidates: Vec<(NodeId, f64)> = topology
        .selected_switches()
        .iter()
        .map(|&s| (s, topology.switch_asil(s).unwrap().failure_probability()))
        .collect();
    candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    let r = problem.reliability_goal();
    let probability = |combo: &[usize]| combo.iter().map(|&i| candidates[i].1).product::<f64>();
    let all: Vec<usize> = (0..candidates.len()).collect();
    let maxord = (0..=candidates.len()).rev().find(|&k| probability(&all[..k]) >= r).unwrap();
    // Lines 2-3: from maxord down, every combination that is not safe.
    let mut faults = Vec::new();
    for order in (0..=maxord).rev() {
        for combo in combinations(candidates.len(), order) {
            if probability(&combo) >= r {
                let switches = combo.iter().map(|&i| candidates[i].0).collect();
                faults.push(FailureScenario::switches(switches));
            }
        }
    }
    faults
}

/// Algorithm 3 with an optional scenario budget: the verdict,
/// `scenarios_checked` and `exhausted`.
fn reference(
    problem: &PlanningProblem,
    topology: &Topology,
    budget: Option<u64>,
) -> (Verdict, u64, bool) {
    let mut survivors: Vec<FailureScenario> = Vec::new();
    let mut checked = 0u64;
    for failure in non_safe_faults(problem, topology) {
        // A subset of a survived scenario survives too.
        let covered = survivors.iter().any(|survivor| {
            failure.failed_switches().iter().all(|s| survivor.failed_switches().contains(s))
        });
        if covered {
            continue;
        }
        if budget == Some(checked) {
            return (Verdict::Inconclusive { scenarios_checked: checked }, checked, false);
        }
        checked += 1;
        let errors =
            problem.nbf().recover(topology, &failure, problem.tas(), problem.flows()).errors;
        if !errors.is_empty() {
            return (Verdict::Unreliable { failure, errors }, checked, true);
        }
        survivors.push(failure);
    }
    (Verdict::Reliable, checked, true)
}

fn assert_agrees(expected: &(Verdict, u64, bool), report: &AnalysisReport, label: &str) {
    let actual = (report.verdict.clone(), report.scenarios_checked, report.exhausted);
    assert_eq!(&actual, expected, "{label}");
}

/// What a sweep reached.
#[derive(Default)]
struct Reached {
    /// Topologies the reference found unreliable.
    unreliable: usize,
    /// Flows the eager NBF scheduled on a later path.
    fallbacks: usize,
}

/// Checks `topologies` of one problem uncached over the lazy and the eager
/// NBF, through a fresh cache each, then over the lazy one through one
/// shared cache cold and warm.
fn assert_matches_reference(
    problem: &PlanningProblem,
    topologies: &[Topology],
    case: u64,
    reached: &mut Reached,
) {
    let (eager, eager_nbf) = eager_twin(problem);
    let expected: Vec<_> = topologies.iter().map(|t| reference(&eager, t, None)).collect();
    let cached = FailureAnalyzer::new().with_shared_cache(Arc::new(ScenarioCache::new()));
    for (i, topology) in topologies.iter().enumerate() {
        let label = format!("case {case} topology {i}");
        let faults = FailureAnalyzer::new().non_safe_faults(problem, topology).unwrap();
        assert_eq!(faults, non_safe_faults(problem, topology), "{label}: non-safe faults");
        let uncached = FailureAnalyzer::new().try_analyze(problem, topology).unwrap();
        assert_agrees(&expected[i], &uncached, &format!("{label} uncached"));
        assert_eq!((uncached.cache_hits, uncached.cache_misses), (0, 0), "{label}");
        let over_eager = FailureAnalyzer::new().try_analyze(&eager, topology).unwrap();
        assert_agrees(&expected[i], &over_eager, &format!("{label} uncached, eager NBF"));
        assert_fresh_cache_never_hits(problem, topology, &expected[i], &label);
        let cold = cached.try_analyze(problem, topology).unwrap();
        assert_agrees(&expected[i], &cold, &format!("{label} cold cache"));
    }
    for (i, topology) in topologies.iter().enumerate() {
        let warm = cached.try_analyze(problem, topology).unwrap();
        let label = format!("case {case} topology {i} warm cache");
        assert_agrees(&expected[i], &warm, &label);
        assert_eq!(warm.cache_hits, warm.scenarios_checked, "{label}: every check hits");
    }
    let unreliable = expected.iter().filter(|e| matches!(e.0, Verdict::Unreliable { .. }));
    reached.unreliable += unreliable.count();
    reached.fallbacks += eager_nbf.fallbacks.load(Ordering::Relaxed);
}

/// An analysis through its own fresh cache agrees with the reference,
/// and every scenario it checks is a miss.
fn assert_fresh_cache_never_hits(
    problem: &PlanningProblem,
    topology: &Topology,
    expected: &(Verdict, u64, bool),
    label: &str,
) {
    let fresh = FailureAnalyzer::new()
        .with_shared_cache(Arc::new(ScenarioCache::new()))
        .try_analyze(problem, topology)
        .unwrap();
    assert_agrees(expected, &fresh, &format!("{label} fresh cache"));
    assert_eq!(
        (fresh.cache_hits, fresh.cache_misses),
        (0, fresh.scenarios_checked),
        "{label}: a fresh cache hit"
    );
}

#[test]
fn analyzer_matches_textbook_algorithm_3() {
    let mut reached = Reached::default();
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xe9a0_0000 + case);
        let goal = [1e-6, 1e-9, 1e-12][case as usize % 3];
        let problem = random_problem(&mut rng, goal);
        // Three planning states part-way through an episode, and one at
        // its end, which is usually reliable and so exercises pruning.
        let mut topologies: Vec<Topology> = (0..3)
            .map(|_| random_topology(&problem, rng.next_u64(), rng.gen_range(0usize..10)))
            .collect();
        topologies.push(random_topology(&problem, rng.next_u64(), 64));
        assert_matches_reference(&problem, &topologies, case, &mut reached);
    }
    assert!(reached.fallbacks > 0, "the sweep never reached a fallback path");
    eprintln!("{} fallbacks, {} unreliable", reached.fallbacks, reached.unreliable);
}

/// Shallow states under the strictest goal are mostly unreliable, so the
/// counterexample and its error pairs are compared, not just the verdict.
#[test]
fn counterexamples_match_textbook_algorithm_3() {
    let mut reached = Reached::default();
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xceed_0000 + case);
        let problem = random_problem(&mut rng, 1e-12);
        let topologies: Vec<Topology> = (0..2)
            .map(|_| random_topology(&problem, rng.next_u64(), rng.gen_range(0usize..4)))
            .collect();
        assert_matches_reference(&problem, &topologies, case, &mut reached);
    }
    assert!(reached.unreliable > 0, "the sweep never exercised the Unreliable arm");
}

#[test]
fn every_budget_matches_textbook_algorithm_3() {
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0x6b5d_0000 + case);
        let goal = [1e-9, 1e-12][case as usize % 2];
        let problem = random_problem(&mut rng, goal);
        let partial = random_topology(&problem, rng.next_u64(), rng.gen_range(0usize..8));
        let finished = random_topology(&problem, rng.next_u64(), 64);
        let (eager, _) = eager_twin(&problem);
        for (state, topology) in [("partial", partial), ("finished", finished)] {
            let unbounded = reference(&eager, &topology, None);
            let total = unbounded.1;
            let label = format!("case {case} {state}");
            assert_fresh_cache_never_hits(&problem, &topology, &unbounded, &label);
            let warm = FailureAnalyzer::new().with_shared_cache(Arc::new(ScenarioCache::new()));
            warm.try_analyze(&problem, &topology).unwrap();
            for budget in 0..=total + 1 {
                let expected = reference(&eager, &topology, Some(budget));
                for (name, analyzer) in
                    [("uncached", FailureAnalyzer::new()), ("warm", warm.clone())]
                {
                    let report = analyzer
                        .with_budget(AnalysisBudget::scenarios(budget))
                        .try_analyze(&problem, &topology)
                        .unwrap();
                    let label = format!("case {case} {state} budget {budget} {name}");
                    assert_agrees(&expected, &report, &label);
                }
            }
        }
    }
}

/// The kind of action a step applied.
#[derive(Clone, Copy)]
enum Step {
    Upgrade,
    NewSwitch,
    AddPath,
}

/// What the episode sweep reached: memo hits in the analysis after each
/// kind of step.
#[derive(Debug, Default)]
struct MemoCoverage {
    analyses: usize,
    hits: u64,
    misses: u64,
    hits_after_upgrade: u64,
    hits_after_new_switch: u64,
    hits_after_path: u64,
}

/// One analysis of an episode through its memo, unbounded against the
/// reference, and under a random budget through a copy of the memo.
fn assert_memo_agrees(
    problem: &PlanningProblem,
    eager: &PlanningProblem,
    topology: &Topology,
    memo: &mut RecoveryMemo,
    rng: &mut StdRng,
    label: &str,
) -> u64 {
    let expected = reference(eager, topology, None);
    let mut budgeted_memo = memo.clone();
    let before = memo.hits() + memo.misses();
    let hits = memo.hits();
    let report = FailureAnalyzer::new().try_analyze_with(problem, topology, memo).unwrap();
    assert_agrees(&expected, &report, label);
    assert_eq!(
        memo.hits() + memo.misses() - before,
        report.scenarios_checked,
        "{label}: every check is one hit or one miss"
    );
    let budget = rng.gen_range(0..=expected.1 + 1);
    let budgeted = FailureAnalyzer::new()
        .with_budget(AnalysisBudget::scenarios(budget))
        .try_analyze_with(problem, topology, &mut budgeted_memo)
        .unwrap();
    let expected = reference(eager, topology, Some(budget));
    assert_agrees(&expected, &budgeted, &format!("{label} budget {budget}"));
    memo.hits() - hits
}

/// `problem` with the stateless adapter over `IncrementalRecovery` as
/// its NBF, which recovers relative to the nominal flow state.
fn adapter_twin(problem: &PlanningProblem) -> PlanningProblem {
    PlanningProblem::new(
        problem.connection_graph_arc(),
        problem.library().clone(),
        *problem.tas(),
        problem.flows().clone(),
        problem.reliability_goal(),
        Arc::new(Stateless::new(IncrementalRecovery::new())),
    )
    .unwrap()
}

#[test]
fn episode_memo_matches_textbook_algorithm_3() {
    let mut coverage = MemoCoverage::default();
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x3e30_0000 + case);
        let goal = [1e-6, 1e-9, 1e-12][case as usize % 3];
        let problem = random_problem(&mut rng, goal);
        let (eager, _) = eager_twin(&problem);
        let adapter = adapter_twin(&problem);
        let seed = rng.next_u64();
        run_episode(&problem, &eager, seed, &format!("case {case}"), &mut coverage);
        run_episode(&adapter, &adapter, seed, &format!("case {case} adapter"), &mut coverage);
    }
    assert!(
        coverage.hits_after_upgrade > 0 && coverage.hits_after_new_switch > 0,
        "the sweep must reach hits after an ASIL upgrade and after a new switch: {coverage:?}"
    );
    eprintln!("{coverage:?}");
}

/// Two states of one episode under the stateless adapter, the second
/// with the link s0 – b, which the failure of s0 kills. Flow 0 (a → b)
/// and flow 1 (c → b) fit the 2-slot cycle only on different switches.
/// Without the link, flow 0 takes s1 first and flow 1 fails; with it,
/// the nominal state puts flow 0 on s0, so under the failure of s0 flow
/// 0 is re-routed after flow 1 kept its slot, and flow 0 fails. The live
/// links under that failure are the same, the errors are not: the memo
/// must answer the second analysis from the NBF.
#[test]
fn episode_memo_keys_on_the_present_links_too() {
    let mut gc = ConnectionGraph::new();
    let [a, b, c] = ["a", "b", "c"].map(|name| gc.add_end_station(name));
    let [s0, s1] = ["s0", "s1"].map(|name| gc.add_switch(name));
    for (u, v, length) in [(a, s0, 1.0), (s0, b, 1.0), (a, s1, 2.0), (s1, b, 2.0), (c, s1, 1.0)] {
        gc.add_candidate_link(u, v, length).unwrap();
    }
    let flows = vec![FlowSpec::new(a, b, 500, 128), FlowSpec::new(c, b, 500, 128)];
    let problem = PlanningProblem::new(
        Arc::new(gc),
        ComponentLibrary::automotive(),
        TasConfig::new(500, 2, 1000),
        FlowSet::new(flows).unwrap(),
        1e-6,
        Arc::new(Stateless::new(IncrementalRecovery::new())),
    )
    .unwrap();
    let mut topology = problem.connection_graph().empty_topology();
    for s in [s0, s1] {
        topology.add_switch(s, Asil::A).unwrap();
    }
    for (u, v) in [(a, s0), (a, s1), (s1, b), (c, s1)] {
        topology.add_link(u, v).unwrap();
    }
    let mut grown = topology.clone();
    grown.add_link(s0, b).unwrap();
    let mut memo = RecoveryMemo::new();
    let mut errors = Vec::new();
    for (state, topology) in [("without s0 - b", &topology), ("with s0 - b", &grown)] {
        let expected = reference(&problem, topology, None);
        let report = FailureAnalyzer::new().try_analyze_with(&problem, topology, &mut memo);
        assert_agrees(&expected, &report.unwrap(), state);
        match expected.0 {
            Verdict::Unreliable { failure, errors: pairs } => {
                assert_eq!(failure, FailureScenario::switches(vec![s0]), "{state}");
                errors.push(pairs);
            }
            other => panic!("{state}: the failure of s0 must be the counterexample: {other:?}"),
        }
    }
    assert_ne!(errors[0], errors[1], "the same live links, other errors");
}

/// One episode of random valid actions from `seed`, one memo for it: the
/// analysis after every step through the memo against the textbook
/// Algorithm 3 over `reference`'s NBF.
fn run_episode(
    problem: &PlanningProblem,
    reference: &PlanningProblem,
    seed: u64,
    case: &str,
    coverage: &mut MemoCoverage,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut env = PlanningEnv::new(problem.clone(), 6, 1e3, 64, &mut rng);
    let mut memo = RecoveryMemo::new();
    let label = format!("{case} reset");
    assert_memo_agrees(problem, reference, env.topology(), &mut memo, &mut rng, &label);
    for step in 0..64 {
        let valid: Vec<usize> = (0..env.action_count()).filter(|&i| env.mask()[i]).collect();
        if valid.is_empty() {
            break;
        }
        let idx = valid[rng.gen_range(0..valid.len())];
        let kind = match env.actions().valid_action(idx) {
            Some(Action::UpgradeSwitch(s)) if env.topology().contains_switch(*s) => Step::Upgrade,
            Some(Action::UpgradeSwitch(_)) => Step::NewSwitch,
            _ => Step::AddPath,
        };
        let done = env.step(idx, &mut rng).done;
        let label = format!("{case} step {step}");
        let topology = env.topology();
        let hits = assert_memo_agrees(problem, reference, topology, &mut memo, &mut rng, &label);
        coverage.analyses += 1;
        match kind {
            Step::Upgrade => coverage.hits_after_upgrade += hits,
            Step::NewSwitch => coverage.hits_after_new_switch += hits,
            Step::AddPath => coverage.hits_after_path += hits,
        }
        if done {
            break;
        }
    }
    coverage.hits += memo.hits();
    coverage.misses += memo.misses();
}
