//! The failure analyzer: Algorithm 3, the failure injection check.
//!
//! This is the planner's hot path — every RL environment step runs it —
//! so the enumeration engine is built for speed without changing a single
//! verdict (see `DESIGN.md` §8):
//!
//! * scenarios are [`ScenarioBits`] bitsets and survivors live in an
//!   order-bucketed [`SupersetMemo`], so the superset-pruning test is a
//!   few word operations instead of a linear element-wise scan;
//! * a [`RecoveryMemo`] passed to [`FailureAnalyzer::try_analyze_with`]
//!   answers a check whose links, present and alive, an earlier check of
//!   the episode already recovered: the planning environment's path,
//!   where about two thirds of the checks of an ORION re-plan hit. Its
//!   key is built from the present links, found once per analysis;
//! * the NBF checks the rest through one [`RecoverySession`] per
//!   analysis, opened at its first NBF call, which shares work between
//!   the failures of the topology;
//! * an optional [`ScenarioCache`] keyed by `(topology fingerprint,
//!   scenario)` ([`FailureAnalyzer::with_shared_cache`]) answers a
//!   scenario the NBF already judged on the same topology — sound because
//!   the NBF is stateless. Only the verify path attaches one, fresh per
//!   call: one analysis visits each scenario once, so it never hits.
//!
//! The enumeration is one sequential loop on the calling thread. The
//! planner's rollout workers, which each run their own analyses, are the
//! only parallelism.

use std::sync::Arc;

use nptsn_sched::{ErrorReport, RecoverySession};
use nptsn_topo::{FailureScenario, NodeId, Topology};

use crate::error::NptsnError;
use crate::problem::PlanningProblem;
use crate::recovery_memo::{LinkKey, RecoveryMemo};
use crate::scenario_cache::{ScenarioBits, ScenarioCache, SupersetMemo};

/// Which nodes the analyzer injects failures into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeScope {
    /// Only selected switches — sound for networks without flow-level
    /// redundancy thanks to the link-ASIL invariant and the reduction of
    /// Eq. 6 (Section V).
    SwitchesOnly,
    /// Every node including end stations — required when flows carry
    /// redundant instances and the NBF only reports errors once all
    /// instances fail (Section V, complexity `O(|V^t|^maxord)`).
    AllNodes,
}

/// The analyzer's verdict for one topology.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Every non-safe fault is survivable: the reliability guarantee holds.
    Reliable,
    /// A non-safe fault the recovery cannot handle, with the NBF's error
    /// message — the input to the SOAG for the next action generation.
    Unreliable {
        /// The non-recoverable failure scenario found first.
        failure: FailureScenario,
        /// The endpoint pairs the NBF failed to restore under it.
        errors: ErrorReport,
    },
    /// The analysis budget ran out before every non-safe fault was checked:
    /// no counterexample was found, but reliability is *not* guaranteed.
    /// Only produced by budgeted analyzers (never by the unbounded
    /// default).
    Inconclusive {
        /// How many failure scenarios were injected before the budget ran
        /// out.
        scenarios_checked: u64,
    },
}

impl Verdict {
    /// Whether the reliability guarantee holds.
    pub fn is_reliable(&self) -> bool {
        matches!(self, Verdict::Reliable)
    }
}

/// A deterministic work budget for [`FailureAnalyzer::analyze`], measured
/// in failure scenarios checked (each one NBF invocation, or a cache or
/// memo answer) — not wall-clock time, so budgeted runs stay
/// reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisBudget(Option<u64>);

impl AnalysisBudget {
    /// No limit: Algorithm 3 runs to completion (the default).
    pub const UNBOUNDED: AnalysisBudget = AnalysisBudget(None);

    /// At most `n` failure scenarios are injected; the verdict degrades to
    /// [`Verdict::Inconclusive`] if enumeration is cut short.
    pub fn scenarios(n: u64) -> AnalysisBudget {
        AnalysisBudget(Some(n))
    }

    /// The scenario limit, or `None` when unbounded.
    pub fn limit(&self) -> Option<u64> {
        self.0
    }
}

impl Default for AnalysisBudget {
    fn default() -> AnalysisBudget {
        AnalysisBudget::UNBOUNDED
    }
}

/// The outcome of one analysis run with coverage statistics, so callers
/// that trade soundness-of-claim for latency can see exactly what they
/// bought.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// The verdict (anytime: [`Verdict::Inconclusive`] when the budget ran
    /// out).
    pub verdict: Verdict,
    /// How many failure scenarios were injected. Scenarios answered from
    /// a cache or a [`RecoveryMemo`] count too — the scenario was
    /// *checked*, the NBF work was just already paid for — so this figure
    /// is identical with and without them, and the budget stays
    /// configuration-independent.
    pub scenarios_checked: u64,
    /// Whether the enumeration ran to completion. `true` means the verdict
    /// is exactly what the unbounded analyzer would have produced; `false`
    /// means the budget was exhausted first.
    pub exhausted: bool,
    /// Scenario checks answered from the attached [`ScenarioCache`] during
    /// this run (0 without a cache, and 0 with a fresh one, since one run
    /// checks each scenario once).
    pub cache_hits: u64,
    /// Scenario checks that invoked the NBF and recorded the outcome in
    /// the attached cache (0 without a cache).
    pub cache_misses: u64,
}

/// Failure injection per Algorithm 3: checks every switch-failure subset
/// with probability ≥ `R`, from the highest possible order (`maxord`) down
/// to the empty failure (nominal schedulability), skipping subsets of
/// scenarios that already survived.
///
/// Checking switches only: any non-safe fault containing link failures
/// maps (Eq. 6) to the switch-only fault obtained by replacing each failed
/// link with its lower-ASIL endpoint; since link ASIL equals the minimum
/// endpoint ASIL, the mapped fault is at least as probable, and its
/// residual network is a subgraph of the original's. A skipped subset of
/// a surviving scenario likewise leaves a residual network that contains
/// the survivor's.
///
/// What this makes sound: the flow state the NBF returned for a survivor
/// uses only components alive under every fault the survivor covers (its
/// subsets, and the link faults that map into them), so that stored
/// state replays under each of those faults. It does not make a rerun of
/// the NBF on a covered fault succeed. The greedy
/// [`ShortestPathRecovery`](nptsn_sched::ShortestPathRecovery) can fail
/// with more of the network alive: one flow takes a shorter path and
/// uses the slots a later flow needed. ROADMAP.md item 1 gives three
/// seeded cases. A RELIABLE verdict is thus a guarantee for a recovery
/// that applies the stored schedule, not for one that reruns the NBF.
///
/// One analysis recovers its scenarios through one NBF session
/// ([`NetworkBehavior::session`](nptsn_sched::NetworkBehavior::session)),
/// opened at its first NBF call, behind the cache and the memo: an
/// analysis they answer whole opens none. A session returns what
/// `recover` returns for each failure, so the verdict is the one
/// per-call recovery gives; the shortest-path NBF's session shares its
/// path searches between the analysis's failures. It is dropped when
/// the analysis returns.
///
/// # Examples
///
/// ```
/// use nptsn::{FailureAnalyzer, PlanningProblem, Verdict};
/// use nptsn_sched::{FlowSet, FlowSpec, ShortestPathRecovery, TasConfig};
/// use nptsn_topo::{Asil, ComponentLibrary, ConnectionGraph};
/// use std::sync::Arc;
///
/// let mut gc = ConnectionGraph::new();
/// let a = gc.add_end_station("a");
/// let b = gc.add_end_station("b");
/// let s = gc.add_switch("s");
/// gc.add_candidate_link(a, s, 1.0).unwrap();
/// gc.add_candidate_link(b, s, 1.0).unwrap();
/// let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
/// let problem = PlanningProblem::new(
///     Arc::new(gc), ComponentLibrary::automotive(), TasConfig::default(),
///     flows, 1e-6, Arc::new(ShortestPathRecovery::new()),
/// ).unwrap();
/// let analyzer = FailureAnalyzer::new();
///
/// // A single ASIL-A switch: its failure (probability ~1e-3 >= R) kills
/// // the only path.
/// let mut topo = problem.connection_graph().empty_topology();
/// topo.add_switch(s, Asil::A).unwrap();
/// topo.add_link(a, s).unwrap();
/// topo.add_link(b, s).unwrap();
/// assert!(!analyzer.analyze(&problem, &topo).is_reliable());
///
/// // Upgrading it to ASIL-D makes the failure a safe fault (< 1e-6).
/// for _ in 0..3 { topo.upgrade_switch(s).unwrap(); }
/// assert!(analyzer.analyze(&problem, &topo).is_reliable());
/// ```
#[derive(Debug, Clone)]
pub struct FailureAnalyzer {
    scope: NodeScope,
    budget: AnalysisBudget,
    cache: Option<Arc<ScenarioCache>>,
}

impl FailureAnalyzer {
    /// An analyzer over switch failures only with an unbounded budget (the
    /// default, sound without flow-level redundancy) and no cache.
    pub fn new() -> FailureAnalyzer {
        FailureAnalyzer {
            scope: NodeScope::SwitchesOnly,
            budget: AnalysisBudget::UNBOUNDED,
            cache: None,
        }
    }

    /// An analyzer with an explicit node scope.
    pub fn with_scope(scope: NodeScope) -> FailureAnalyzer {
        FailureAnalyzer { scope, ..FailureAnalyzer::new() }
    }

    /// Returns this analyzer with the given work budget (builder-style).
    pub fn with_budget(mut self, budget: AnalysisBudget) -> FailureAnalyzer {
        self.budget = budget;
        self
    }

    /// Returns this analyzer with a shared NBF-outcome cache
    /// (builder-style). The cache must only ever be shared between
    /// analyzers over the *same* planning problem and node scope.
    pub fn with_shared_cache(mut self, cache: Arc<ScenarioCache>) -> FailureAnalyzer {
        self.cache = Some(cache);
        self
    }

    /// The configured node scope.
    pub fn scope(&self) -> NodeScope {
        self.scope
    }

    /// The configured work budget.
    pub fn budget(&self) -> AnalysisBudget {
        self.budget
    }

    /// Runs Algorithm 3 on `topology`.
    ///
    /// With the default unbounded budget the result is exact; with a
    /// [`AnalysisBudget::scenarios`] budget it may be
    /// [`Verdict::Inconclusive`]. For coverage statistics use
    /// [`try_analyze`](FailureAnalyzer::try_analyze).
    ///
    /// # Panics
    ///
    /// Panics if the topology is internally inconsistent (a selected switch
    /// without an ASIL) — impossible through the public `Topology` API.
    pub fn analyze(&self, problem: &PlanningProblem, topology: &Topology) -> Verdict {
        self.try_analyze(problem, topology).expect("inconsistent topology").verdict
    }

    /// Runs Algorithm 3 and returns the verdict with coverage statistics,
    /// surfacing internal inconsistencies as errors instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`NptsnError::Topo`] if the topology is internally
    /// inconsistent (e.g. a selected switch without an ASIL).
    pub fn try_analyze(
        &self,
        problem: &PlanningProblem,
        topology: &Topology,
    ) -> Result<AnalysisReport, NptsnError> {
        self.try_analyze_recorded(problem, topology, None)
    }

    /// [`try_analyze`](FailureAnalyzer::try_analyze) with the NBF behind
    /// `memo`: a check whose links the memo holds (those present and those
    /// alive under the scenario, [`Topology::live_links`]) takes the
    /// recorded errors, and the NBF's outcome of every other check is
    /// recorded. The report is the one `try_analyze`
    /// returns; a check the memo answers counts in `scenarios_checked`
    /// and against the budget like any other. `memo` must only ever see
    /// this problem.
    ///
    /// # Errors
    ///
    /// As [`try_analyze`](FailureAnalyzer::try_analyze).
    pub fn try_analyze_with(
        &self,
        problem: &PlanningProblem,
        topology: &Topology,
        memo: &mut RecoveryMemo,
    ) -> Result<AnalysisReport, NptsnError> {
        self.try_analyze_recorded(problem, topology, Some(memo))
    }

    /// One analysis in its span, recorded in the process-wide telemetry.
    fn try_analyze_recorded(
        &self,
        problem: &PlanningProblem,
        topology: &Topology,
        memo: Option<&mut RecoveryMemo>,
    ) -> Result<AnalysisReport, NptsnError> {
        let _span = nptsn_obs::span("analyzer.analyze");
        let report = self.try_analyze_inner(problem, topology, memo)?;
        let telemetry = nptsn_obs::telemetry();
        telemetry.analyzer_scenarios_checked.add(report.scenarios_checked);
        telemetry.analyzer_cache_hits.add(report.cache_hits);
        telemetry.analyzer_cache_misses.add(report.cache_misses);
        if !report.exhausted {
            telemetry.analyzer_budget_exhausted.inc();
        }
        Ok(report)
    }

    /// The non-safe faults of `topology` over this analyzer's node scope:
    /// every failure scenario with probability ≥ `R`, the nominal (empty)
    /// scenario included. This is the set Algorithm 3 enumerates before
    /// superset pruning, built from the same candidate order, `maxord` and
    /// probability test as [`try_analyze`](FailureAnalyzer::try_analyze),
    /// and listed in its enumeration order: from `maxord` down to the
    /// nominal case, each order lexicographic over the candidates sorted by
    /// decreasing probability (ties by [`NodeId`]).
    ///
    /// # Errors
    ///
    /// Returns [`NptsnError::Topo`] if the topology is internally
    /// inconsistent (e.g. a selected switch without an ASIL).
    pub fn non_safe_faults(
        &self,
        problem: &PlanningProblem,
        topology: &Topology,
    ) -> Result<Vec<FailureScenario>, NptsnError> {
        let candidates = Candidates::new(self.scope, problem, topology)?;
        let mut faults = Vec::new();
        let mut combo: Vec<usize> = (0..candidates.maxord).collect();
        loop {
            if !candidates.is_safe(&combo) {
                faults.push(candidates.scenario(combo.iter().copied()));
            }
            if !next_scenario(&mut combo, candidates.nodes.len()) {
                return Ok(faults);
            }
        }
    }

    fn try_analyze_inner(
        &self,
        problem: &PlanningProblem,
        topology: &Topology,
        recoveries: Option<&mut RecoveryMemo>,
    ) -> Result<AnalysisReport, NptsnError> {
        let candidates = Candidates::new(self.scope, problem, topology)?;
        // Lines 2-14: check subsets from maxord down to the empty failure.
        // The budget caps the number of scenario checks; safe faults and
        // superset-pruned subsets are free (no recovery is attempted).
        let limit = self.budget.limit().unwrap_or(u64::MAX);
        let mut checks = Checks {
            problem,
            topology,
            candidates: &candidates,
            cache: self.cache.as_deref().map(|cache| (cache, topology.fingerprint())),
            memo: recoveries.map(|memo| (memo, LinkKey::new(topology))),
            session: None,
        };
        let mut report = AnalysisReport {
            verdict: Verdict::Reliable,
            scenarios_checked: 0,
            exhausted: true,
            cache_hits: 0,
            cache_misses: 0,
        };
        let mut memo = SupersetMemo::new();
        let mut bits = ScenarioBits::with_capacity(candidates.nodes.len());
        let mut combo: Vec<usize> = (0..candidates.maxord).collect();
        loop {
            if !candidates.is_safe(&combo) {
                bits.clear();
                for &i in &combo {
                    bits.insert(i);
                }
                if !memo.covers(&bits, combo.len()) {
                    if report.scenarios_checked == limit {
                        report.verdict = Verdict::Inconclusive { scenarios_checked: limit };
                        report.exhausted = false;
                        return Ok(report);
                    }
                    report.scenarios_checked += 1;
                    let errors = checks.errors(&bits, &mut report);
                    if !errors.is_empty() {
                        let failure = candidates.scenario(bits.iter());
                        report.verdict = Verdict::Unreliable { failure, errors };
                        return Ok(report);
                    }
                    // `covers` reads only buckets of strictly higher order,
                    // so recording a survivor now prunes exactly what
                    // recording it after its order would.
                    memo.insert(bits.clone(), combo.len());
                }
            }
            if !next_scenario(&mut combo, candidates.nodes.len()) {
                return Ok(report);
            }
        }
    }
}

/// The fault candidates of Algorithm 3, line 1.
struct Candidates {
    /// Candidate fault nodes with their failure probabilities, sorted by
    /// decreasing probability, ties by `NodeId`.
    nodes: Vec<(NodeId, f64)>,
    /// The largest `k` whose `k` most probable failures still have a
    /// combined probability ≥ `R`: no fault of a higher order is non-safe.
    maxord: usize,
    /// The reliability goal `R`.
    goal: f64,
}

impl Candidates {
    fn new(
        scope: NodeScope,
        problem: &PlanningProblem,
        topology: &Topology,
    ) -> Result<Candidates, NptsnError> {
        let mut nodes: Vec<(NodeId, f64)> = Vec::new();
        for &s in topology.selected_switches() {
            let asil = topology.switch_asil(s).ok_or_else(|| {
                NptsnError::internal(format!("selected switch {s} has no ASIL"))
            })?;
            nodes.push((s, asil.failure_probability()));
        }
        if scope == NodeScope::AllNodes {
            let gc = topology.connection_graph();
            nodes.extend(
                gc.end_stations().iter().map(|&e| (e, gc.end_station_asil(e).failure_probability())),
            );
        }
        nodes.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        let goal = problem.reliability_goal();
        let mut maxord = 0;
        let mut product = 1.0;
        for &(_, p) in &nodes {
            product *= p;
            if product >= goal {
                maxord += 1;
            } else {
                break;
            }
        }
        Ok(Candidates { nodes, maxord, goal })
    }

    /// Whether the candidate-index combination is a safe fault
    /// (probability < `R`), which Algorithm 3 never injects.
    fn is_safe(&self, combo: &[usize]) -> bool {
        combo.iter().map(|&i| self.nodes[i].1).product::<f64>() < self.goal
    }

    /// Materializes the `FailureScenario` of candidate indices — only ever
    /// called for scenarios that reach the NBF or a result.
    fn scenario(&self, indices: impl Iterator<Item = usize>) -> FailureScenario {
        FailureScenario::switches(indices.map(|i| self.nodes[i].0).collect())
    }
}

/// How one analysis checks its scenarios: the cache first, then the
/// memo, then the NBF through the analysis's session, opened at its first
/// NBF call.
struct Checks<'a> {
    problem: &'a PlanningProblem,
    topology: &'a Topology,
    candidates: &'a Candidates,
    cache: Option<(&'a ScenarioCache, u128)>,
    /// The episode memo with the key of the scenario being checked.
    memo: Option<(&'a mut RecoveryMemo, LinkKey)>,
    session: Option<Box<dyn RecoverySession + 'a>>,
}

impl Checks<'_> {
    /// The NBF's errors under the scenario of candidate indices `bits`.
    /// Only an NBF call materializes its `FailureScenario`.
    fn errors(&mut self, bits: &ScenarioBits, report: &mut AnalysisReport) -> ErrorReport {
        let Checks { problem, topology, candidates, cache, memo, session } = self;
        if let Some((cache, fingerprint)) = *cache {
            if let Some(errors) = cache.lookup(fingerprint, bits) {
                report.cache_hits += 1;
                return errors;
            }
        }
        let mut recover = || {
            let session = session.get_or_insert_with(|| {
                problem.nbf().session(topology, problem.tas(), problem.flows())
            });
            session.recover(&candidates.scenario(bits.iter())).errors
        };
        let errors = match memo {
            Some((memo, key)) => {
                let failed = bits.iter().map(|i| candidates.nodes[i].0);
                key.fail(topology.connection_graph(), failed, &[]);
                memo.errors(key, recover)
            }
            None => recover(),
        };
        if let Some((cache, fingerprint)) = *cache {
            report.cache_misses += 1;
            cache.insert(fingerprint, bits.clone(), errors.clone());
        }
        errors
    }
}

impl Default for FailureAnalyzer {
    fn default() -> FailureAnalyzer {
        FailureAnalyzer::new()
    }
}

/// Steps `combo` to the next scenario in Algorithm 3's enumeration order
/// over `n` candidates: the next combination of the same order in
/// lexicographic order, else the first combination one order lower.
/// Returns `false` after the nominal (empty) scenario.
fn next_scenario(combo: &mut Vec<usize>, n: usize) -> bool {
    let k = combo.len();
    // The rightmost index that can still move right.
    match (0..k).rev().find(|&i| combo[i] != i + n - k) {
        Some(i) => {
            combo[i] += 1;
            for j in i + 1..k {
                combo[j] = combo[j - 1] + 1;
            }
            true
        }
        None if k == 0 => false,
        None => {
            combo.clear();
            combo.extend(0..k - 1);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_sched::{FlowSet, FlowSpec, ShortestPathRecovery, TasConfig};
    use nptsn_topo::{Asil, ComponentLibrary, ConnectionGraph};
    use std::sync::Arc;

    #[test]
    fn scenario_enumeration_order() {
        // From maxord = 2 over 3 candidates: lexicographic within an order,
        // orders descending, the nominal scenario last.
        let mut combo = vec![0, 1];
        let mut seen = vec![combo.clone()];
        while next_scenario(&mut combo, 3) {
            seen.push(combo.clone());
        }
        let expected: [&[usize]; 7] = [&[0, 1], &[0, 2], &[1, 2], &[0], &[1], &[2], &[]];
        assert_eq!(seen, expected);
        let mut all = vec![0, 1, 2];
        assert!(next_scenario(&mut all, 3), "a full combination steps down an order");
        assert_eq!(all, vec![0, 1]);
        assert!(!next_scenario(&mut Vec::new(), 0));
    }

    /// Theta network: a and b connected via two parallel switches.
    fn theta_problem() -> (PlanningProblem, Topology, NodeId, NodeId) {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s0 = gc.add_switch("s0");
        let s1 = gc.add_switch("s1");
        for (u, v) in [(a, s0), (s0, b), (a, s1), (s1, b)] {
            gc.add_candidate_link(u, v, 1.0).unwrap();
        }
        let gc = Arc::new(gc);
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        let problem = PlanningProblem::new(
            Arc::clone(&gc),
            ComponentLibrary::automotive(),
            TasConfig::default(),
            flows,
            1e-6,
            Arc::new(ShortestPathRecovery::new()),
        )
        .unwrap();
        let mut topo = gc.empty_topology();
        topo.add_switch(s0, Asil::A).unwrap();
        topo.add_switch(s1, Asil::A).unwrap();
        for (u, v) in [(a, s0), (s0, b), (a, s1), (s1, b)] {
            topo.add_link(u, v).unwrap();
        }
        (problem, topo, s0, s1)
    }

    #[test]
    fn redundant_asil_a_topology_is_reliable_at_1e6() {
        // Two ASIL-A switches: each single failure (1e-3) must be
        // survivable and is (parallel paths); the dual failure has
        // probability (1-e^-1e-3)^2 < 1e-6 and is a safe fault.
        let (problem, topo, ..) = theta_problem();
        assert_eq!(FailureAnalyzer::new().analyze(&problem, &topo), Verdict::Reliable);
    }

    #[test]
    fn stricter_goal_activates_dual_failures() {
        // At R = 1e-9 the dual-A failure (~1e-6) is non-safe and the theta
        // network cannot survive it.
        let (problem, topo, s0, s1) = theta_problem();
        let strict = PlanningProblem::new(
            problem.connection_graph_arc(),
            problem.library().clone(),
            *problem.tas(),
            problem.flows().clone(),
            1e-9,
            problem.nbf_arc(),
        )
        .unwrap();
        match FailureAnalyzer::new().analyze(&strict, &topo) {
            Verdict::Unreliable { failure, errors } => {
                assert_eq!(failure.failed_switches(), &[s0, s1]);
                assert!(!errors.is_empty());
            }
            other => panic!("dual failure should not be survivable: {other:?}"),
        }
    }

    #[test]
    fn single_attachment_needs_asil_d() {
        // One switch, single-attached stations: reliable iff the switch is
        // ASIL-D (its failure becomes a safe fault).
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s = gc.add_switch("s");
        gc.add_candidate_link(a, s, 1.0).unwrap();
        gc.add_candidate_link(b, s, 1.0).unwrap();
        let gc = Arc::new(gc);
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        let problem = PlanningProblem::new(
            Arc::clone(&gc),
            ComponentLibrary::automotive(),
            TasConfig::default(),
            flows,
            1e-6,
            Arc::new(ShortestPathRecovery::new()),
        )
        .unwrap();
        let analyzer = FailureAnalyzer::new();
        for asil in [Asil::A, Asil::B, Asil::C] {
            let mut topo = gc.empty_topology();
            topo.add_switch(s, asil).unwrap();
            topo.add_link(a, s).unwrap();
            topo.add_link(b, s).unwrap();
            assert!(
                !analyzer.analyze(&problem, &topo).is_reliable(),
                "{asil} should not suffice"
            );
        }
        let mut topo = gc.empty_topology();
        topo.add_switch(s, Asil::D).unwrap();
        topo.add_link(a, s).unwrap();
        topo.add_link(b, s).unwrap();
        assert!(analyzer.analyze(&problem, &topo).is_reliable());
    }

    #[test]
    fn empty_topology_reports_nominal_failure() {
        let (problem, ..) = theta_problem();
        let topo = problem.connection_graph().empty_topology();
        match FailureAnalyzer::new().analyze(&problem, &topo) {
            Verdict::Unreliable { failure, errors } => {
                assert!(failure.is_empty(), "the empty failure is the culprit");
                assert_eq!(errors.len(), 1);
            }
            other => panic!("no links: nominal scheduling must fail: {other:?}"),
        }
    }

    #[test]
    fn unschedulable_nominal_network_is_unreliable() {
        // Connected but with a 2-slot cycle and three flows on one path:
        // nominal scheduling fails (line 9 at order 0).
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s = gc.add_switch("s");
        gc.add_candidate_link(a, s, 1.0).unwrap();
        gc.add_candidate_link(b, s, 1.0).unwrap();
        let gc = Arc::new(gc);
        let flows = FlowSet::new(vec![
            FlowSpec::new(a, b, 500, 128),
            FlowSpec::new(a, b, 500, 128),
            FlowSpec::new(a, b, 500, 128),
        ])
        .unwrap();
        let problem = PlanningProblem::new(
            Arc::clone(&gc),
            ComponentLibrary::automotive(),
            TasConfig::new(500, 2, 1000),
            flows,
            1e-6,
            Arc::new(ShortestPathRecovery::new()),
        )
        .unwrap();
        let mut topo = gc.empty_topology();
        topo.add_switch(s, Asil::D).unwrap();
        topo.add_link(a, s).unwrap();
        topo.add_link(b, s).unwrap();
        assert!(!FailureAnalyzer::new().analyze(&problem, &topo).is_reliable());
    }

    #[test]
    fn all_nodes_scope_includes_end_stations() {
        // With AllNodes scope and a strict goal, even an end-station
        // failure (ASIL-D, ~1e-6 >= 1e-9) is injected, and the flow's own
        // source failing is never recoverable.
        let (problem, topo, ..) = theta_problem();
        let strict = PlanningProblem::new(
            problem.connection_graph_arc(),
            problem.library().clone(),
            *problem.tas(),
            problem.flows().clone(),
            1e-9,
            problem.nbf_arc(),
        )
        .unwrap();
        let analyzer = FailureAnalyzer::with_scope(NodeScope::AllNodes);
        assert_eq!(analyzer.scope(), NodeScope::AllNodes);
        match analyzer.analyze(&strict, &topo) {
            Verdict::Unreliable { failure, .. } => {
                assert!(!failure.is_empty());
            }
            other => panic!("source failure cannot be survived: {other:?}"),
        }
    }

    #[test]
    fn verdict_helpers() {
        assert!(Verdict::Reliable.is_reliable());
        let v = Verdict::Unreliable {
            failure: FailureScenario::none(),
            errors: ErrorReport::empty(),
        };
        assert!(!v.is_reliable());
        assert!(!Verdict::Inconclusive { scenarios_checked: 3 }.is_reliable());
    }

    #[test]
    fn unbounded_report_is_exhausted_and_matches_analyze() {
        let (problem, topo, ..) = theta_problem();
        let analyzer = FailureAnalyzer::new();
        assert_eq!(analyzer.budget(), AnalysisBudget::UNBOUNDED);
        let report = analyzer.try_analyze(&problem, &topo).unwrap();
        assert!(report.exhausted);
        assert!(report.scenarios_checked > 0);
        assert_eq!(report.verdict, analyzer.analyze(&problem, &topo));
    }

    #[test]
    fn small_budget_returns_inconclusive_with_coverage() {
        // The theta network needs 2 NBF invocations (the two single
        // failures; the nominal check is superset-pruned after they
        // survive), so a budget of 1 must cut enumeration short.
        let (problem, topo, ..) = theta_problem();
        let analyzer = FailureAnalyzer::new().with_budget(AnalysisBudget::scenarios(1));
        let report = analyzer.try_analyze(&problem, &topo).unwrap();
        assert!(!report.exhausted);
        assert_eq!(report.scenarios_checked, 1);
        assert_eq!(report.verdict, Verdict::Inconclusive { scenarios_checked: 1 });
        // The anytime verdict also comes through the panicking wrapper.
        assert!(!analyzer.analyze(&problem, &topo).is_reliable());
    }

    #[test]
    fn sufficient_budget_matches_unbounded_verdict() {
        let (problem, topo, ..) = theta_problem();
        let unbounded = FailureAnalyzer::new().try_analyze(&problem, &topo).unwrap();
        let budgeted = FailureAnalyzer::new()
            .with_budget(AnalysisBudget::scenarios(unbounded.scenarios_checked))
            .try_analyze(&problem, &topo)
            .unwrap();
        assert!(budgeted.exhausted);
        assert_eq!(budgeted.verdict, unbounded.verdict);
        assert_eq!(budgeted.scenarios_checked, unbounded.scenarios_checked);
    }

    #[test]
    fn budget_counts_only_nbf_invocations() {
        // Safe faults and superset-pruned scenarios must not consume
        // budget: with exactly the unbounded run's scenario count, the
        // verdict stays exact even though many more subsets exist.
        let (problem, topo, s0, s1) = theta_problem();
        let strict = PlanningProblem::new(
            problem.connection_graph_arc(),
            problem.library().clone(),
            *problem.tas(),
            problem.flows().clone(),
            1e-9,
            problem.nbf_arc(),
        )
        .unwrap();
        let unbounded = FailureAnalyzer::new().try_analyze(&strict, &topo).unwrap();
        let budgeted = FailureAnalyzer::new()
            .with_budget(AnalysisBudget::scenarios(unbounded.scenarios_checked))
            .try_analyze(&strict, &topo)
            .unwrap();
        match budgeted.verdict {
            Verdict::Unreliable { failure, .. } => {
                assert_eq!(failure.failed_switches(), &[s0, s1]);
            }
            other => panic!("expected the dual failure, got {other:?}"),
        }
    }

    #[test]
    fn budget_accessors() {
        assert_eq!(AnalysisBudget::default().limit(), None);
        assert_eq!(AnalysisBudget::scenarios(7).limit(), Some(7));
        let a = FailureAnalyzer::new().with_budget(AnalysisBudget::scenarios(7));
        assert_eq!(a.budget().limit(), Some(7));
    }

    #[test]
    fn cache_survives_across_runs_and_counts_checks() {
        let (problem, topo, ..) = theta_problem();
        let analyzer = FailureAnalyzer::new().with_shared_cache(Arc::new(ScenarioCache::new()));
        let cold = analyzer.try_analyze(&problem, &topo).unwrap();
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.cache_misses, cold.scenarios_checked);
        let warm = analyzer.try_analyze(&problem, &topo).unwrap();
        assert_eq!(warm.cache_hits, warm.scenarios_checked, "warm run is all hits");
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(warm.verdict, cold.verdict);
        // Mutating the topology changes the fingerprint: no stale reuse.
        let mut upgraded = topo.clone();
        upgraded.upgrade_switch(upgraded.selected_switches()[0]).unwrap();
        let fresh = analyzer.try_analyze(&problem, &upgraded).unwrap();
        assert_eq!(fresh.cache_hits, 0, "different topology must not hit");
    }
}
