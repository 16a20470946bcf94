//! NeuroPlan \[16\] adapted to TSSDN planning: static link-level actions.

use nptsn::{encode_graph, FailureAnalyzer, Observation, PlannerConfig, PlanningProblem,
            PolicyNetwork, Solution, Verdict};
use nptsn_nn::Adam;
use nptsn_rl::{ppo_update, sample_action, ActorCritic, PpoConfig, RolloutBuffer};
use nptsn_topo::{Asil, LinkId, NodeId, Topology};
use nptsn_rand::rngs::StdRng;
use nptsn_rand::SeedableRng;

/// The static actions of the adapted NeuroPlan agent.
#[derive(Debug, Clone, PartialEq)]
enum NpAction {
    /// Add the candidate switch at ASIL A or upgrade it one level — the
    /// ASIL-assignment extension the paper gives the baseline.
    UpgradeSwitch(NodeId),
    /// Add one candidate link; unselected endpoint switches are selected
    /// at ASIL A as a side effect.
    AddLink(LinkId),
}

/// Training report of the NeuroPlan baseline.
#[derive(Debug, Clone)]
pub struct NeuroPlanReport {
    /// Best verified solution, if any epoch found one.
    pub best: Option<Solution>,
    /// Mean episode return per epoch.
    pub reward_curve: Vec<f32>,
    /// Episodes that ended at a dead end (typically saturated switch
    /// ports) rather than a solution — the failure mode Section VI-A
    /// attributes to the long link-level decision trajectory.
    pub dead_ends: usize,
}

/// The NeuroPlan-style planner: the same GCN + actor/critic + PPO stack
/// as NPTSN, the same reward (scaled cost decrease) and reliability check,
/// but a *static* action space over individual candidate links and switch
/// upgrades, with no survival-oriented pruning and no dynamic action
/// encoding.
///
/// Its rollout is kept single-threaded: the baseline exists for
/// solution-quality comparison, not speed. The PPO update runs on
/// [`PlannerConfig::threads`] threads, as the planner's does, with
/// the same results as on one.
pub struct NeuroPlanAgent {
    problem: PlanningProblem,
    config: PlannerConfig,
}

impl NeuroPlanAgent {
    /// Creates the agent. `config` fields for K-paths are ignored (there
    /// is no SOAG); network sizes, learning rates and budgets apply.
    pub fn new(problem: PlanningProblem, config: PlannerConfig) -> NeuroPlanAgent {
        NeuroPlanAgent { problem, config }
    }

    fn actions(&self) -> Vec<NpAction> {
        let gc = self.problem.connection_graph();
        let mut actions: Vec<NpAction> =
            gc.switches().iter().map(|&s| NpAction::UpgradeSwitch(s)).collect();
        actions.extend(gc.links().map(NpAction::AddLink));
        actions
    }

    fn mask(&self, topology: &Topology, actions: &[NpAction]) -> Vec<bool> {
        let gc = self.problem.connection_graph();
        actions
            .iter()
            .map(|a| match a {
                NpAction::UpgradeSwitch(s) => match topology.switch_asil(*s) {
                    None => true,
                    Some(asil) => asil.upgraded().is_some(),
                },
                NpAction::AddLink(link) => {
                    if topology.contains_link(*link) {
                        return false;
                    }
                    let (u, v) = gc.link_endpoints(*link);
                    topology.degree(u) < gc.max_degree(u)
                        && topology.degree(v) < gc.max_degree(v)
                }
            })
            .collect()
    }

    fn apply(&self, topology: &mut Topology, action: &NpAction) {
        match action {
            NpAction::UpgradeSwitch(s) => {
                if topology.contains_switch(*s) {
                    topology.upgrade_switch(*s).expect("masked action valid");
                } else {
                    topology.add_switch(*s, Asil::A).expect("masked action valid");
                }
            }
            NpAction::AddLink(link) => {
                let gc = self.problem.connection_graph();
                let (u, v) = gc.link_endpoints(*link);
                for node in [u, v] {
                    if gc.is_switch(node) && !topology.contains_switch(node) {
                        topology.add_switch(node, Asil::A).expect("switch id valid");
                    }
                }
                topology.add_link(u, v).expect("masked action valid");
            }
        }
    }

    /// Observation without the dynamic-action block: switch costs, link
    /// costs and flow counts only (NeuroPlan has no dynamic actions to
    /// encode).
    fn observe(&self, topology: &Topology) -> Observation {
        let gc = self.problem.connection_graph();
        let n = gc.node_count();
        let es = gc.end_stations();
        let f = 1 + n + es.len();
        let (ahat, features) = encode_graph(&self.problem, topology, f);
        let flows = self.problem.flows();
        let tas = self.problem.tas();
        let aux = vec![
            flows.len() as f32 / es.len().max(1) as f32,
            1.0,
            0.1,
            tas.slots() as f32 / 32.0,
        ];
        Observation { node_count: n, feature_count: f, ahat, features, aux }
    }

    /// Trains the agent and returns the best solution found.
    pub fn run(&self) -> NeuroPlanReport {
        let gc = self.problem.connection_graph();
        let n = gc.node_count();
        let feature_count = 1 + n + gc.end_stations().len();
        let actions = self.actions();
        let action_count = actions.len();

        let net = PolicyNetwork::new(&self.config, n, feature_count, action_count, self.config.seed);
        let mut actor_opt = Adam::new(net.actor_parameters(), self.config.actor_lr);
        let mut critic_opt = Adam::new(net.critic_parameters(), self.config.critic_lr);
        let ppo = PpoConfig {
            clip_ratio: self.config.clip_ratio,
            gamma: self.config.discount,
            lambda: self.config.gae_lambda,
            train_pi_iters: self.config.train_pi_iters,
            train_v_iters: self.config.train_v_iters,
            target_kl: self.config.target_kl,
        };
        let analyzer = FailureAnalyzer::new();
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(17));

        let mut best: Option<Solution> = None;
        let mut reward_curve = Vec::new();
        let mut dead_ends = 0;

        for _epoch in 0..self.config.max_epochs {
            let mut buffer = RolloutBuffer::new(self.config.discount, self.config.gae_lambda);
            let mut episode_returns = Vec::new();
            let mut episode_return = 0.0f32;
            let mut topology = gc.empty_topology();
            let mut last_cost = 0.0f64;
            let mut episode_steps = 0usize;

            for step in 0..self.config.steps_per_epoch {
                let obs = self.observe(&topology);
                let mask = self.mask(&topology, &actions);
                let (logps, value) = net.evaluate(&obs, &mask);
                let (a, logp) = sample_action(&logps.to_vec(), &mut rng);
                self.apply(&mut topology, &actions[a]);
                episode_steps += 1;

                let cost = topology.network_cost(self.problem.library());
                let mut reward = ((last_cost - cost) as f32) / self.config.reward_scaling;
                last_cost = cost;

                let mut done = false;
                match analyzer.analyze(&self.problem, &topology) {
                    Verdict::Reliable => {
                        let sol = Solution { topology: topology.clone(), cost };
                        match &best {
                            Some(b) if b.cost <= sol.cost => {}
                            _ => best = Some(sol),
                        }
                        done = true;
                    }
                    Verdict::Unreliable { .. } | Verdict::Inconclusive { .. } => {
                        let next_mask = self.mask(&topology, &actions);
                        if next_mask.iter().all(|&m| !m) {
                            reward -= 1.0;
                            dead_ends += 1;
                            done = true;
                        } else if episode_steps >= self.config.max_episode_steps {
                            done = true;
                        }
                    }
                }

                buffer.store(obs, a, mask, reward, value.item(), logp);
                episode_return += reward;
                if done {
                    buffer.finish_path(0.0);
                    episode_returns.push(episode_return);
                    episode_return = 0.0;
                    topology = gc.empty_topology();
                    last_cost = 0.0;
                    episode_steps = 0;
                } else if step + 1 == self.config.steps_per_epoch {
                    let obs = self.observe(&topology);
                    let mask = self.mask(&topology, &actions);
                    let (_, v) = net.evaluate(&obs, &mask);
                    buffer.finish_path(v.item());
                }
            }
            let mean = if episode_returns.is_empty() {
                episode_return
            } else {
                episode_returns.iter().sum::<f32>() / episode_returns.len() as f32
            };
            reward_curve.push(mean);
            let batch = buffer.drain();
            let threads = self.config.threads();
            let _ = ppo_update(&net, threads, &mut actor_opt, &mut critic_opt, &batch, &ppo);
        }

        NeuroPlanReport { best, reward_curve, dead_ends }
    }
}

impl std::fmt::Debug for NeuroPlanAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NeuroPlanAgent")
            .field("actions", &self.actions().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_sched::{FlowSet, FlowSpec, ShortestPathRecovery, TasConfig};
    use nptsn_topo::{ComponentLibrary, ConnectionGraph};
    use std::sync::Arc;

    fn theta_problem() -> PlanningProblem {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s0 = gc.add_switch("s0");
        let s1 = gc.add_switch("s1");
        for (u, v) in [(a, s0), (s0, b), (a, s1), (s1, b), (s0, s1)] {
            gc.add_candidate_link(u, v, 1.0).unwrap();
        }
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        PlanningProblem::new(
            Arc::new(gc),
            ComponentLibrary::automotive(),
            TasConfig::default(),
            flows,
            1e-6,
            Arc::new(ShortestPathRecovery::new()),
        )
        .unwrap()
    }

    #[test]
    fn action_space_is_static_switches_plus_links() {
        let agent = NeuroPlanAgent::new(theta_problem(), PlannerConfig::smoke_test());
        assert_eq!(agent.actions().len(), 2 + 5);
        assert!(format!("{agent:?}").contains('7'));
    }

    #[test]
    fn masks_track_state() {
        let agent = NeuroPlanAgent::new(theta_problem(), PlannerConfig::smoke_test());
        let actions = agent.actions();
        let gc = agent.problem.connection_graph();
        let mut topo = gc.empty_topology();
        let m0 = agent.mask(&topo, &actions);
        assert!(m0.iter().all(|&m| m), "everything valid at the start");
        // Apply the first link action; it should become masked.
        let link_idx = 2;
        agent.apply(&mut topo, &actions[link_idx]);
        let m1 = agent.mask(&topo, &actions);
        assert!(!m1[link_idx]);
        // Auto-selected endpoint switches exist now.
        assert!(!topo.selected_switches().is_empty());
    }

    #[test]
    fn smoke_training_can_find_a_plan() {
        // Give the baseline a little more budget than NPTSN's smoke test:
        // its trajectory is longer by design.
        let config = PlannerConfig {
            max_epochs: 6,
            steps_per_epoch: 96,
            ..PlannerConfig::smoke_test()
        };
        let agent = NeuroPlanAgent::new(theta_problem(), config);
        let report = agent.run();
        assert_eq!(report.reward_curve.len(), 6);
        if let Some(best) = &report.best {
            assert!(nptsn::verify_topology(&agent.problem, &best.topology).is_reliable());
        }
    }
}
