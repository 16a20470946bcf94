//! The RL environment: Algorithm 2's inner-loop semantics.

use nptsn_sched::ErrorReport;
use nptsn_topo::{FailureScenario, Topology};
use nptsn_rand::Rng;

use crate::analyzer::{FailureAnalyzer, Verdict};
use crate::encode::{encode_observation, Observation};
use crate::problem::PlanningProblem;
use crate::recovery_memo::RecoveryMemo;
use crate::soag::{apply_action, ActionSet, Soag};
use crate::solution::Solution;

/// Result of one environment step.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// The scaled reward: previous cost minus new cost, divided by the
    /// reward scaling factor, minus 1 on dead ends (Section IV-C).
    pub reward: f32,
    /// Whether the episode ended (solution found, dead end, or step cap).
    pub done: bool,
    /// Whether the episode was cut by the step cap rather than a terminal
    /// state; callers should bootstrap the return with the critic value.
    pub truncated: bool,
    /// A verified solution, when this step completed one.
    pub solution: Option<Solution>,
}

/// The TSSDN construction environment.
///
/// State is the TSSDN under construction plus the current dynamic action
/// set; a step applies one SOAG action, re-runs the failure analysis and
/// regenerates actions (Fig. 2). Episodes start from the empty TSSDN (end
/// stations only) and end when the reliability requirement is met, when
/// every action is masked (dead end, −1 penalty), or at the step cap.
///
/// Each analysis goes through the episode's [`RecoveryMemo`], which
/// [`reset`](PlanningEnv::reset) clears: a scenario check whose links,
/// present and alive, an earlier check of the episode recovered takes
/// that outcome without calling the NBF. Verdicts and scenario counts are those of a plain
/// [`FailureAnalyzer::try_analyze`].
///
/// # Examples
///
/// ```
/// use nptsn::{PlanningEnv, PlanningProblem};
/// use nptsn_sched::{FlowSet, FlowSpec, ShortestPathRecovery, TasConfig};
/// use nptsn_topo::{ComponentLibrary, ConnectionGraph};
/// use nptsn_rand::{rngs::StdRng, SeedableRng};
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
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut env = PlanningEnv::new(problem, 4, 1e3, 64, &mut rng);
/// assert_eq!(env.action_count(), 1 + 4);
/// assert!(!env.mask().iter().all(|&m| !m));
/// ```
#[derive(Debug, Clone)]
pub struct PlanningEnv {
    problem: PlanningProblem,
    soag: Soag,
    reward_scaling: f32,
    max_episode_steps: usize,
    topology: Topology,
    actions: ActionSet,
    observation: Observation,
    last_cost: f64,
    episode_steps: usize,
    scenarios_checked: u64,
    recoveries: RecoveryMemo,
}

impl PlanningEnv {
    /// Creates the environment and performs the first reset.
    pub fn new(
        problem: PlanningProblem,
        k_paths: usize,
        reward_scaling: f32,
        max_episode_steps: usize,
        rng: &mut impl Rng,
    ) -> PlanningEnv {
        let topology = Topology::empty(problem.connection_graph_arc());
        let soag = Soag::new(k_paths);
        let mut env = PlanningEnv {
            problem,
            soag,
            reward_scaling,
            max_episode_steps,
            topology: topology.clone(),
            // Placeholders, replaced by reset below.
            actions: ActionSet::placeholder(),
            observation: Observation {
                node_count: 0,
                feature_count: 0,
                ahat: Vec::new(),
                features: Vec::new(),
                aux: Vec::new(),
            },
            last_cost: 0.0,
            episode_steps: 0,
            scenarios_checked: 0,
            recoveries: RecoveryMemo::new(),
        };
        env.reset(rng);
        env
    }

    /// Runs the failure analysis on the current topology, accumulating the
    /// environment's scenario counter (the analyzer itself feeds the
    /// process-wide telemetry).
    fn analyze_counted(&mut self) -> Verdict {
        let report = FailureAnalyzer::new()
            .try_analyze_with(&self.problem, &self.topology, &mut self.recoveries)
            .expect("environment topologies are consistent by construction");
        self.scenarios_checked += report.scenarios_checked;
        report.verdict
    }

    /// Failure scenarios checked by this environment's analyzer since
    /// construction (across steps and resets).
    pub fn scenarios_checked(&self) -> u64 {
        self.scenarios_checked
    }

    /// Resets the TSSDN to end stations only, clears the episode's
    /// [`RecoveryMemo`] and regenerates the action space from a fresh
    /// failure analysis (Algorithm 2 line 3).
    pub fn reset(&mut self, rng: &mut impl Rng) {
        self.topology = Topology::empty(self.problem.connection_graph_arc());
        self.recoveries.clear();
        self.last_cost = 0.0;
        self.episode_steps = 0;
        let (failure, errors) = match self.analyze_counted() {
            Verdict::Unreliable { failure, errors } => (failure, errors),
            // Degenerate: an empty network already meets the goal. Offer
            // switch actions only; the caller will record the zero-cost
            // solution on its first analysis. (Inconclusive needs a
            // budget, and the environment's analyzer has none.)
            Verdict::Reliable | Verdict::Inconclusive { .. } => {
                (FailureScenario::none(), ErrorReport::empty())
            }
        };
        self.actions =
            self.soag.generate(&self.problem, &self.topology, &failure, &errors, rng);
        self.observation = encode_observation(&self.problem, &self.topology, &self.actions);
    }

    /// The current observation.
    pub fn observation(&self) -> &Observation {
        &self.observation
    }

    /// The current action mask.
    pub fn mask(&self) -> &[bool] {
        self.actions.mask()
    }

    /// The current action set.
    pub fn actions(&self) -> &ActionSet {
        &self.actions
    }

    /// The topology under construction.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The planning problem.
    pub fn problem(&self) -> &PlanningProblem {
        &self.problem
    }

    /// Total number of action slots (`|V^c_sw| + K`).
    pub fn action_count(&self) -> usize {
        self.problem.connection_graph().switches().len() + self.soag.k()
    }

    /// Applies action `index` (Algorithm 2 lines 8–16). The caller must
    /// pick a masked-in action (the RL sampler guarantees this).
    ///
    /// # Panics
    ///
    /// Panics when `index` is masked out or out of range.
    pub fn step(&mut self, index: usize, rng: &mut impl Rng) -> StepOutcome {
        let _span = nptsn_obs::span("env.step");
        let action = self
            .actions
            .valid_action(index)
            .unwrap_or_else(|| panic!("action {index} is masked out"))
            .clone();
        apply_action(&mut self.topology, &action).expect("masked actions are applicable");
        self.episode_steps += 1;

        let new_cost = self.topology.network_cost(self.problem.library());
        let mut reward = ((self.last_cost - new_cost) as f32) / self.reward_scaling;
        self.last_cost = new_cost;

        let (failure, errors) = match self.analyze_counted() {
            Verdict::Reliable => {
                let solution =
                    Solution { topology: self.topology.clone(), cost: new_cost };
                return StepOutcome {
                    reward,
                    done: true,
                    truncated: false,
                    solution: Some(solution),
                };
            }
            Verdict::Unreliable { failure, errors } => (failure, errors),
            // Inconclusive needs a budget, which the environment's analyzer
            // does not have; were it reached, the network is not verified
            // reliable, so building would go on with an empty report.
            Verdict::Inconclusive { .. } => (FailureScenario::none(), ErrorReport::empty()),
        };
        self.actions =
            self.soag.generate(&self.problem, &self.topology, &failure, &errors, rng);
        if self.actions.all_masked() {
            // Dead end: no valid action can repair the network.
            reward -= 1.0;
            return StepOutcome { reward, done: true, truncated: false, solution: None };
        }
        self.observation = encode_observation(&self.problem, &self.topology, &self.actions);
        if self.episode_steps >= self.max_episode_steps {
            return StepOutcome { reward, done: true, truncated: true, solution: None };
        }
        StepOutcome { reward, done: false, truncated: false, solution: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_sched::{FlowSet, FlowSpec, ShortestPathRecovery, TasConfig};
    use nptsn_topo::{Asil, ComponentLibrary, ConnectionGraph, NodeId};
    use nptsn_rand::rngs::StdRng;
    use nptsn_rand::SeedableRng;
    use std::sync::Arc;

    fn theta_problem() -> (PlanningProblem, NodeId, NodeId, NodeId, NodeId) {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s0 = gc.add_switch("s0");
        let s1 = gc.add_switch("s1");
        for (u, v) in [(a, s0), (s0, b), (a, s1), (s1, b), (s0, s1)] {
            gc.add_candidate_link(u, v, 1.0).unwrap();
        }
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        let problem = PlanningProblem::new(
            Arc::new(gc),
            ComponentLibrary::automotive(),
            TasConfig::default(),
            flows,
            1e-6,
            Arc::new(ShortestPathRecovery::new()),
        )
        .unwrap();
        (problem, a, b, s0, s1)
    }

    fn env() -> (PlanningEnv, StdRng) {
        let (problem, ..) = theta_problem();
        let mut rng = StdRng::seed_from_u64(42);
        let env = PlanningEnv::new(problem, 6, 1e3, 64, &mut rng);
        (env, rng)
    }

    /// Index of the first masked-in action matching `pred`.
    fn find_action(
        env: &PlanningEnv,
        pred: impl Fn(&crate::soag::Action) -> bool,
    ) -> Option<usize> {
        (0..env.action_count())
            .find(|&i| env.actions().valid_action(i).map(&pred).unwrap_or(false))
    }

    #[test]
    fn rewards_are_negative_scaled_cost_deltas() {
        let (mut env, mut rng) = env();
        let add_switch = find_action(&env, |a| matches!(a, crate::soag::Action::UpgradeSwitch(_)))
            .expect("switch addition available");
        let out = env.step(add_switch, &mut rng);
        // Adding an ASIL-A 4-port switch costs 8: reward = -8/1000.
        assert!((out.reward + 8.0 / 1000.0).abs() < 1e-6, "reward {}", out.reward);
        assert!(!out.done);
        assert!(out.solution.is_none());
    }

    #[test]
    fn constructing_a_redundant_network_completes_an_episode() {
        // Scripted episode: add both switches, then keep adding paths until
        // the verdict flips to reliable.
        let (mut env, mut rng) = env();
        let mut episode_reward = 0.0;
        let mut solution = None;
        for _ in 0..32 {
            // Prefer path additions once available, otherwise add a switch.
            let idx = find_action(&env, |a| matches!(a, crate::soag::Action::AddPath(_)))
                .or_else(|| find_action(&env, |_| true))
                .expect("some action must be valid");
            let out = env.step(idx, &mut rng);
            episode_reward += out.reward;
            if out.done {
                solution = out.solution;
                break;
            }
        }
        let solution = solution.expect("the theta graph admits a reliable plan");
        assert!(solution.cost > 0.0);
        // Episode return approximates -cost / 1000 (Section IV-C).
        assert!((episode_reward + (solution.cost as f32) / 1000.0).abs() < 1e-4);
        // Either redundancy (two ASIL-A switches) or a single ASIL-D
        // switch whose failure is a safe fault; both are valid plans.
        let hist = solution.asil_histogram();
        assert!(
            solution.switch_count() == 2 || hist[3] == 1,
            "unexpected plan: {solution}"
        );
    }

    #[test]
    fn reset_restores_the_empty_network() {
        let (mut env, mut rng) = env();
        let idx = find_action(&env, |_| true).unwrap();
        let _ = env.step(idx, &mut rng);
        assert!(env.topology().selected_switches().len() + env.topology().link_count() > 0);
        env.reset(&mut rng);
        assert_eq!(env.topology().selected_switches().len(), 0);
        assert_eq!(env.topology().link_count(), 0);
    }

    #[test]
    #[should_panic(expected = "masked out")]
    fn masked_actions_panic() {
        let (mut env, mut rng) = env();
        let masked = (0..env.action_count())
            .find(|&i| !env.mask()[i])
            .expect("some action is masked at reset");
        let _ = env.step(masked, &mut rng);
    }

    #[test]
    fn truncation_flag_set_at_step_cap() {
        let (problem, ..) = theta_problem();
        let mut rng = StdRng::seed_from_u64(0);
        // Step cap of 1: the very first (non-terminal) step truncates.
        let mut env = PlanningEnv::new(problem, 6, 1e3, 1, &mut rng);
        let idx = (0..env.action_count()).find(|&i| env.mask()[i]).unwrap();
        let out = env.step(idx, &mut rng);
        assert!(out.done && out.truncated);
    }

    #[test]
    fn dead_end_applies_penalty() {
        // A problem where reliability is unreachable: a single switch and a
        // reliability goal stricter than any ASIL can deliver. All upgrade
        // actions exhaust at ASIL-D and no redundant path exists.
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s = gc.add_switch("s");
        gc.add_candidate_link(a, s, 1.0).unwrap();
        gc.add_candidate_link(b, s, 1.0).unwrap();
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        let problem = PlanningProblem::new(
            Arc::new(gc),
            ComponentLibrary::automotive(),
            TasConfig::default(),
            flows,
            1e-12, // even an ASIL-D failure is non-safe
            Arc::new(ShortestPathRecovery::new()),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut env = PlanningEnv::new(problem, 4, 1e3, 64, &mut rng);
        let mut last = None;
        for _ in 0..64 {
            let Some(idx) = (0..env.action_count()).find(|&i| env.mask()[i]) else {
                break;
            };
            let out = env.step(idx, &mut rng);
            last = Some(out.clone());
            if out.done {
                break;
            }
        }
        let last = last.expect("steps were taken");
        assert!(last.done);
        assert!(last.solution.is_none());
        assert!(last.reward <= -1.0, "dead-end penalty missing: {}", last.reward);
        let _ = Asil::D;
    }
}
