//! The NPTSN training loop: Algorithm 2 with parallel rollout workers.

use std::sync::atomic::{AtomicUsize, Ordering};

use nptsn_nn::{export_params, import_params, Adam, Module};
use nptsn_rl::{ppo_update, sample_action, ActorCritic, Batch, PpoConfig, RolloutBuffer};
use nptsn_rand::rngs::StdRng;
use nptsn_rand::SeedableRng;

use crate::config::PlannerConfig;
use crate::encode::Observation;
use crate::env::PlanningEnv;
use crate::model::PolicyNetwork;
use crate::problem::PlanningProblem;
use crate::solution::{keep_best, Solution};

/// Per-epoch training diagnostics.
///
/// `mean_episode_return` is the "epoch reward" plotted in Fig. 5: the
/// average sum of (scaled) rewards over the episodes completed during the
/// epoch, which approximates `-cost / reward_scaling` for successful
/// episodes and includes the −1 dead-end penalty otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index, starting at 0.
    pub epoch: usize,
    /// Average episode return over the epoch (the Fig. 5 metric).
    pub mean_episode_return: f32,
    /// Episodes completed during the epoch.
    pub episodes: usize,
    /// Verified solutions found during the epoch.
    pub solutions_found: usize,
    /// Best cost discovered so far, if any.
    pub best_cost: Option<f64>,
    /// Final PPO policy loss.
    pub policy_loss: f32,
    /// Final critic loss.
    pub value_loss: f32,
    /// Approximate KL divergence at the last actor step.
    pub approx_kl: f32,
    /// Mean policy entropy.
    pub entropy: f32,
    /// Rollout workers whose episode panicked this epoch. Poisoned workers
    /// contribute no experience; the epoch continues with the rest (see the
    /// error-handling policy in `DESIGN.md`).
    pub poisoned_workers: usize,
    /// Failure scenarios the analyzer checked across this epoch's rollouts:
    /// one check each, answered by the NBF or by the episode's
    /// [`RecoveryMemo`](crate::RecoveryMemo). A seeded run reproduces it,
    /// like every other field.
    pub scenarios_checked: u64,
    /// 1 when this epoch's PPO update produced a non-finite loss or
    /// parameter and was rolled back to the pre-update snapshot (both Adam
    /// optimizers reset); 0 for a clean update. The epoch's experience is
    /// discarded, the run continues.
    pub ppo_rollbacks: usize,
}

/// The outcome of a planning run.
#[derive(Debug, Clone)]
pub struct PlannerReport {
    /// The best verified solution across all epochs, if any was found.
    pub best: Option<Solution>,
    /// Per-epoch diagnostics (the reward curves of Fig. 5).
    pub epochs: Vec<EpochStats>,
    /// Checkpoint of the final policy parameters; restore it into a fresh
    /// network from [`Planner::build_policy`] with
    /// [`nptsn_nn::params_from_bytes`].
    pub policy_checkpoint: Vec<u8>,
}

impl PlannerReport {
    /// The per-epoch mean episode returns, ready for plotting.
    pub fn reward_curve(&self) -> Vec<f32> {
        self.epochs.iter().map(|e| e.mean_episode_return).collect()
    }
}

/// The NPTSN planner: trains the RL decision maker on the planning problem
/// and returns the best TSSDN discovered (Algorithm 2).
///
/// Rollouts are collected by `config.workers` threads, each running its own
/// replica of the policy (parameters synchronized at every epoch boundary)
/// and its own environment — the thread-based equivalent of the paper's
/// 8-way MPI parallelization. Gradients are computed once over the merged
/// batch, which equals averaging the per-worker gradient estimators; the
/// PPO update then runs its step graphs on the same number of threads, up
/// to the core count, bit-identical to a sequential update (see
/// [`PlannerConfig::threads`]). A re-plan with a trained policy
/// ([`Planner::plan_with_policy`]) runs its attempts on those threads too.
pub struct Planner {
    pub(crate) problem: PlanningProblem,
    pub(crate) config: PlannerConfig,
}

impl Planner {
    /// Creates a planner.
    pub fn new(problem: PlanningProblem, config: PlannerConfig) -> Planner {
        Planner { problem, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// The `(node_count, feature_count, action_count)` dimensions of the
    /// policy network for this problem.
    pub fn network_dims(&self) -> (usize, usize, usize) {
        self.problem.network_dims(self.config.k_paths)
    }

    /// Constructs an untrained policy network of the right dimensions;
    /// restore a [`PlannerReport::policy_checkpoint`] into it with
    /// [`nptsn_nn::params_from_bytes`] to reuse a trained decision maker.
    pub fn build_policy(&self) -> PolicyNetwork {
        let (n, f, a) = self.network_dims();
        PolicyNetwork::new(&self.config, n, f, a, self.config.seed)
    }

    /// Runs the full training loop.
    pub fn run(&self) -> PlannerReport {
        self.run_with_progress(|_| {})
    }

    /// Plans with an already-trained policy, no learning: runs `attempts`
    /// episodes selecting the policy's most probable valid action at every
    /// step and returns the cheapest verified solution found.
    ///
    /// This is the deployment path for a restored
    /// [`PlannerReport::policy_checkpoint`] (see
    /// [`Planner::build_policy`]): planning a variant problem, or
    /// re-planning after a specification change, without re-training. The
    /// SOAG still randomizes which error pair it targets, so `attempts`
    /// with different seeds explore different construction orders.
    ///
    /// # Threads
    ///
    /// The attempts run on [`PlannerConfig::threads`] threads, and on no
    /// more threads than there are attempts. Each thread claims the next
    /// attempt index from a shared counter until none is left. The caller
    /// runs its attempts on `policy`; each helper builds a replica of this
    /// planner's architecture on its own thread (tensors are `Rc`) and
    /// loads `policy`'s parameters into it, so `policy` must have this
    /// planner's architecture, as [`Planner::build_policy`] builds it.
    /// Attempt `i` draws from its own RNG stream (`seed + i`) in its own
    /// environment, so its plan does not depend on the thread that ran
    /// it. The plans fold in attempt order, and an
    /// equal-cost tie goes to the earliest attempt, so the result is the
    /// same as one thread running attempts `0..attempts` in turn, for any
    /// thread count and any schedule.
    ///
    /// Helpers run under the caller's trace context and inside a span
    /// named like the caller's innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when an attempt panics, on the caller or on a helper. The
    /// other threads finish the attempts left before the panic reaches the
    /// caller.
    pub fn plan_with_policy(
        &self,
        policy: &PolicyNetwork,
        attempts: usize,
        seed: u64,
    ) -> Option<Solution> {
        self.plan_on_threads(policy, attempts, seed, self.config.threads())
    }

    /// [`Planner::plan_with_policy`] on up to `threads` threads.
    pub(crate) fn plan_on_threads(
        &self,
        policy: &PolicyNetwork,
        attempts: usize,
        seed: u64,
        threads: usize,
    ) -> Option<Solution> {
        let threads = threads.clamp(1, attempts.max(1));
        // Hands out attempt indices only; the plans come back through the
        // joins, so `Relaxed` suffices.
        let next = AtomicUsize::new(0);
        // Every attempt that found a plan, tagged with its index.
        let run = |policy: &PolicyNetwork| -> Vec<(usize, Solution)> {
            std::iter::from_fn(|| Some(next.fetch_add(1, Ordering::Relaxed)))
                .take_while(|&attempt| attempt < attempts)
                .filter_map(|attempt| Some((attempt, self.attempt(policy, seed, attempt)?)))
                .collect()
        };
        let snapshot = if threads > 1 { export_params(&policy.parameters()) } else { Vec::new() };
        let phase = nptsn_obs::current_span();
        let trace = nptsn_obs::current_trace();
        let mut found = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let _trace = nptsn_obs::with_trace(trace);
                        let found = {
                            let _phase = phase.map(nptsn_obs::span);
                            run(&self.replica(&snapshot))
                        };
                        // The scope's join does not wait for TLS destructors.
                        nptsn_obs::flush_thread();
                        found
                    })
                })
                .collect();
            let mut found = run(policy);
            for helper in helpers {
                match helper.join() {
                    Ok(theirs) => found.extend(theirs),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            found
        });
        found.sort_unstable_by_key(|&(attempt, _)| attempt);
        let mut best = None;
        for (_, solution) in found {
            keep_best(&mut best, solution);
        }
        best
    }

    /// Attempt `attempt` of a [`Planner::plan_with_policy`] call with base
    /// `seed`: its RNG stream and its freshly reset environment. The solo
    /// and the batched ([`crate::plan_with_policy_batch`]) deployment paths
    /// both start their attempts here.
    pub(crate) fn start_attempt(&self, seed: u64, attempt: usize) -> (StdRng, PlanningEnv) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(attempt as u64));
        let env = self.env(&mut rng);
        (rng, env)
    }

    /// One greedy episode: the policy's most probable valid action at every
    /// step, until the episode ends or no action is valid. Returns the plan
    /// it verified, if any; a plan always ends an episode. Each step runs
    /// the inference forward on one item, as a lane of the batched path
    /// does: the GCN builds no autograd graph and the critic does not run.
    ///
    /// # Panics
    ///
    /// Panics when `policy` does not have this planner's dimensions.
    fn attempt(&self, policy: &PolicyNetwork, seed: u64, attempt: usize) -> Option<Solution> {
        let (mut rng, mut env) = self.start_attempt(seed, attempt);
        while env.mask().iter().any(|&m| m) {
            let log_probs = policy
                .try_evaluate_many(&[(env.observation(), env.mask())])
                .expect("the policy has this planner's dimensions");
            let (action, _) = nptsn_rl::best_action(&log_probs[0]);
            let outcome = env.step(action, &mut rng);
            if outcome.done {
                return outcome.solution;
            }
        }
        None
    }

    /// A fresh environment for this planner's problem and configuration.
    fn env(&self, rng: &mut StdRng) -> PlanningEnv {
        PlanningEnv::new(
            self.problem.clone(),
            self.config.k_paths,
            self.config.reward_scaling,
            self.config.max_episode_steps,
            rng,
        )
    }

    /// A network of this planner's architecture built on the calling thread,
    /// holding `values` (an [`export_params`] snapshot). Tensors are `Rc`,
    /// so every thread that evaluates the policy builds its own: the
    /// rollout workers and the re-planning helpers.
    fn replica(&self, values: &[Vec<f32>]) -> PolicyNetwork {
        let replica = self.build_policy();
        import_params(&replica.parameters(), values);
        replica
    }

    /// Runs the full training loop, invoking `progress` after every epoch.
    pub fn run_with_progress(&self, mut progress: impl FnMut(&EpochStats)) -> PlannerReport {
        self.run_until(move |stats| {
            progress(stats);
            true
        })
    }

    /// Runs the training loop until completion or until `progress` returns
    /// `false`, which stops training cleanly at the end of that epoch (the
    /// epoch's stats are still recorded and the report carries everything
    /// learned so far, including the policy checkpoint).
    ///
    /// This is the cancellation hook of the serving layer: a `DELETE` on a
    /// running plan job flips a flag the callback observes, and the run
    /// winds down at the next epoch boundary instead of being killed
    /// mid-update.
    pub fn run_until(&self, progress: impl FnMut(&EpochStats) -> bool) -> PlannerReport {
        self.train(None, progress).expect("training without a resume checkpoint cannot fail")
    }

    /// Resumes training from a previously saved policy checkpoint (the
    /// bytes of a [`PlannerReport::policy_checkpoint`] or of the file a
    /// [`PlannerConfig::checkpoint_path`] run wrote): the master policy
    /// starts from the saved parameters instead of a fresh initialization,
    /// then trains exactly like [`Planner::run_until`]. This is the
    /// crash-resume path — a run killed mid-training continues from its
    /// last completed epoch.
    ///
    /// # Errors
    ///
    /// Returns a description of the failure when the checkpoint does not
    /// validate against this problem's policy shape (corrupted, truncated,
    /// or from a different problem/configuration).
    pub fn run_until_resumed(
        &self,
        checkpoint: &[u8],
        progress: impl FnMut(&EpochStats) -> bool,
    ) -> Result<PlannerReport, String> {
        self.train(Some(checkpoint), progress)
    }

    fn train(
        &self,
        resume: Option<&[u8]>,
        mut progress: impl FnMut(&EpochStats) -> bool,
    ) -> Result<PlannerReport, String> {
        let _run_span = nptsn_obs::span("planner.run");
        let master = self.build_policy();
        if let Some(bytes) = resume {
            nptsn_nn::params_from_bytes(&master.parameters(), bytes)
                .map_err(|e| format!("resume checkpoint: {e}"))?;
            nptsn_obs::telemetry().recovery_checkpoint_resumes.inc();
        }
        let mut actor_opt = Adam::new(master.actor_parameters(), self.config.actor_lr);
        let mut critic_opt = Adam::new(master.critic_parameters(), self.config.critic_lr);
        let ppo = PpoConfig {
            clip_ratio: self.config.clip_ratio,
            gamma: self.config.discount,
            lambda: self.config.gae_lambda,
            train_pi_iters: self.config.train_pi_iters,
            train_v_iters: self.config.train_v_iters,
            target_kl: self.config.target_kl,
        };

        let mut best: Option<Solution> = None;
        let mut epochs = Vec::new();

        for epoch in 0..self.config.max_epochs {
            let _epoch_span = nptsn_obs::span("planner.epoch");
            let snapshot = export_params(&master.parameters());
            let workers = self.config.workers.max(1);
            let steps_per_worker = (self.config.steps_per_epoch / workers).max(1);

            // Each worker's rollout runs under `catch_unwind`: a panic in
            // one episode (a poisoned NBF, a malformed scenario) poisons
            // only that worker's share of the epoch, never the run.
            // Rollout threads start bare; install the epoch's trace
            // context so their spans join the same per-job timeline.
            let trace = nptsn_obs::current_trace();
            let results: Vec<Option<WorkerResult>> = std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for worker in 0..workers {
                    let snapshot = &snapshot;
                    handles.push(scope.spawn(move || {
                        let _trace = nptsn_obs::with_trace(trace);
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            self.collect_rollout(
                                snapshot,
                                steps_per_worker,
                                // Distinct stream per (epoch, worker).
                                self.config.seed.wrapping_add(
                                    1 + epoch as u64 * workers as u64 + worker as u64,
                                ),
                            )
                        }))
                        .ok();
                        // The scope's implicit join does not wait for TLS
                        // destructors; flush trace buffers explicitly.
                        nptsn_obs::flush_thread();
                        result
                    }));
                }
                // A join error means the panic escaped `catch_unwind`
                // (possible for foreign exceptions): count it as poisoned
                // too instead of propagating.
                handles.into_iter().map(|h| h.join().ok().flatten()).collect()
            });

            let mut batches = Vec::new();
            let mut episode_returns = Vec::new();
            let mut solutions_found = 0;
            let mut poisoned_workers = 0;
            let mut scenarios_checked = 0u64;
            for r in results {
                match r {
                    Some(r) => {
                        batches.push(r.batch);
                        episode_returns.extend(r.episode_returns);
                        solutions_found += r.solutions_found;
                        scenarios_checked += r.scenarios_checked;
                        if let Some(sol) = r.best {
                            keep_best(&mut best, sol);
                        }
                    }
                    None => poisoned_workers += 1,
                }
            }
            let batch = Batch::merge(batches);
            // With every worker poisoned there is no experience to learn
            // from; record the epoch and move on.
            let mut stats = if batch.is_empty() {
                nptsn_rl::PpoStats::default()
            } else {
                let _ppo_span = nptsn_obs::span("planner.ppo_update");
                let threads = self.config.threads();
                ppo_update(&master, threads, &mut actor_opt, &mut critic_opt, &batch, &ppo)
            };
            // Chaos site `planner.ppo_update`: a firing rule poisons this
            // epoch's update exactly like a NaN gradient would, so storms
            // exercise the rollback guard below.
            if nptsn_chaos::point("planner.ppo_update").is_err() {
                stats.policy_loss = f32::NAN;
                if let Some(p) = master.parameters().first() {
                    p.set_data(&vec![f32::NAN; p.len()]);
                }
            }

            // Divergence guard: a non-finite loss/KL or a non-finite master
            // parameter means this update cannot be trusted. Roll back to
            // the pre-update snapshot, reset both Adam optimizers (their
            // moments may share the contamination) and carry on — the next
            // epoch draws fresh rollout streams, so training re-seeds
            // instead of dying.
            let update_is_finite = stats.policy_loss.is_finite()
                && stats.value_loss.is_finite()
                && stats.approx_kl.is_finite()
                && master
                    .parameters()
                    .iter()
                    .all(|p| p.data().iter().all(|v| v.is_finite()));
            let ppo_rollbacks = if update_is_finite {
                0
            } else {
                import_params(&master.parameters(), &snapshot);
                actor_opt = Adam::new(master.actor_parameters(), self.config.actor_lr);
                critic_opt = Adam::new(master.critic_parameters(), self.config.critic_lr);
                stats = nptsn_rl::PpoStats::default();
                if nptsn_obs::enabled() {
                    nptsn_obs::event(
                        nptsn_obs::Level::Error,
                        "planner.rollback",
                        &format!("epoch {epoch}: non-finite PPO update rolled back"),
                    );
                }
                1
            };

            let mean_return = if episode_returns.is_empty() {
                0.0
            } else {
                episode_returns.iter().sum::<f32>() / episode_returns.len() as f32
            };
            let epoch_stats = EpochStats {
                epoch,
                mean_episode_return: mean_return,
                episodes: episode_returns.len(),
                solutions_found,
                best_cost: best.as_ref().map(|s| s.cost),
                policy_loss: stats.policy_loss,
                value_loss: stats.value_loss,
                approx_kl: stats.approx_kl,
                entropy: stats.entropy,
                poisoned_workers,
                scenarios_checked,
                ppo_rollbacks,
            };
            let telemetry = nptsn_obs::telemetry();
            telemetry.planner_epochs.inc();
            telemetry.planner_solutions.add(solutions_found as u64);
            telemetry.planner_poisoned_workers.add(poisoned_workers as u64);
            telemetry.recovery_ppo_rollbacks.add(ppo_rollbacks as u64);
            // Periodic crash checkpoint: after this epoch's (possibly
            // rolled-back) update the master parameters are exactly what
            // the final report would carry if the run stopped now, so the
            // file always restores to a state the run actually reached.
            if let Some(path) = &self.config.checkpoint_path {
                let bytes = nptsn_nn::params_to_bytes(&master.parameters());
                if let Err(e) = nptsn_nn::write_checkpoint(path, &bytes) {
                    if nptsn_obs::enabled() {
                        nptsn_obs::event(
                            nptsn_obs::Level::Error,
                            "planner.checkpoint",
                            &format!("epoch {epoch}: periodic checkpoint failed: {e}"),
                        );
                    }
                }
            }
            if nptsn_obs::enabled() {
                nptsn_obs::event(
                    nptsn_obs::Level::Info,
                    "planner.epoch",
                    &format!(
                        "epoch {epoch}: return {mean_return:.3}, {} episodes, \
                         {solutions_found} solutions, {scenarios_checked} scenarios",
                        episode_returns.len()
                    ),
                );
            }
            let keep_going = progress(&epoch_stats);
            epochs.push(epoch_stats);
            if !keep_going {
                break;
            }
        }

        let policy_checkpoint = nptsn_nn::params_to_bytes(&master.parameters());
        Ok(PlannerReport { best, epochs, policy_checkpoint })
    }
}

struct WorkerResult {
    batch: Batch<Observation>,
    episode_returns: Vec<f32>,
    solutions_found: usize,
    best: Option<Solution>,
    scenarios_checked: u64,
}

impl Planner {
    /// Collects `steps` environment steps with a frozen policy replica
    /// (Algorithm 2 lines 3–18, one worker's share).
    fn collect_rollout(&self, snapshot: &[Vec<f32>], steps: usize, seed: u64) -> WorkerResult {
        let _rollout_span = nptsn_obs::span("planner.rollout");
        // Chaos site `planner.rollout`: the worker runs under `catch_unwind`,
        // so both `panic` and `error` rules surface the same way a buggy NBF
        // would — this worker poisoned, the epoch continuing without it.
        if let Err(e) = nptsn_chaos::point("planner.rollout") {
            panic!("{e}");
        }
        let net = self.replica(snapshot);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut env = self.env(&mut rng);
        let mut buffer = RolloutBuffer::new(self.config.discount, self.config.gae_lambda);
        let mut episode_returns = Vec::new();
        let mut episode_return = 0.0f32;
        let mut solutions_found = 0;
        let mut best: Option<Solution> = None;

        for step in 0..steps {
            let obs = env.observation().clone();
            let mask = env.mask().to_vec();
            let (logps, value) = net.evaluate(&obs, &mask);
            let (action, logp) = sample_action(&logps.to_vec(), &mut rng);
            let outcome = env.step(action, &mut rng);
            buffer.store(obs, action, mask, outcome.reward, value.item(), logp);
            episode_return += outcome.reward;

            if let Some(sol) = outcome.solution {
                solutions_found += 1;
                keep_best(&mut best, sol);
            }
            if outcome.done {
                // Truncated episodes bootstrap with the critic's estimate of
                // the successor state; terminal ones close at zero.
                let boot = if outcome.truncated {
                    let (_, v) = net.evaluate(env.observation(), env.mask());
                    v.item()
                } else {
                    0.0
                };
                buffer.finish_path(boot);
                episode_returns.push(episode_return);
                episode_return = 0.0;
                env.reset(&mut rng);
            } else if step + 1 == steps {
                // Epoch cut mid-episode: bootstrap.
                let (_, v) = net.evaluate(env.observation(), env.mask());
                buffer.finish_path(v.item());
            }
        }

        WorkerResult {
            batch: buffer.drain(),
            episode_returns,
            solutions_found,
            best,
            scenarios_checked: env.scenarios_checked(),
        }
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
    fn smoke_training_finds_a_valid_plan() {
        let planner = Planner::new(theta_problem(), PlannerConfig::smoke_test());
        let mut calls = 0;
        let report = planner.run_with_progress(|s| {
            calls += 1;
            assert!(s.episodes > 0, "every epoch should complete episodes");
        });
        assert_eq!(calls, report.epochs.len());
        assert_eq!(report.epochs.len(), PlannerConfig::smoke_test().max_epochs);
        let best = report.best.expect("the theta graph has reliable plans");
        // Valid plans range from the cheapest (two ASIL-A switches + 4
        // links = 20) to a single ASIL-D switch (27 + 2x8 = 43) and
        // costlier mixtures.
        assert!(best.cost >= 20.0, "cost {}", best.cost);
        assert!(best.cost <= 80.0, "smoke training should avoid absurd plans: {best}");
        // And it verifies.
        let analyzer = crate::analyzer::FailureAnalyzer::new();
        assert!(analyzer.analyze(&planner.problem, &best.topology).is_reliable());
    }

    #[test]
    fn run_until_stops_at_the_epoch_boundary() {
        let planner = Planner::new(theta_problem(), PlannerConfig::smoke_test());
        // Cancel after the second epoch: exactly two epochs are recorded
        // and the checkpoint still restores into a fresh network.
        let report = planner.run_until(|stats| stats.epoch < 1);
        assert_eq!(report.epochs.len(), 2);
        assert_eq!(report.epochs[1].epoch, 1);
        let policy = planner.build_policy();
        nptsn_nn::params_from_bytes(
            &nptsn_nn::Module::parameters(&policy),
            &report.policy_checkpoint,
        )
        .unwrap();
        // An always-continue run_until matches run_with_progress exactly.
        let full = planner.run_until(|_| true);
        let reference = planner.run();
        assert_eq!(full.reward_curve(), reference.reward_curve());
        assert_eq!(full.policy_checkpoint, reference.policy_checkpoint);
    }

    #[test]
    fn reward_curve_has_one_point_per_epoch() {
        let planner = Planner::new(theta_problem(), PlannerConfig::smoke_test());
        let report = planner.run();
        assert_eq!(report.reward_curve().len(), report.epochs.len());
        // Returns land in the documented range: roughly [-1.15, 0).
        for r in report.reward_curve() {
            assert!(r < 0.0 && r > -2.0, "epoch return {r} out of range");
        }
    }

    #[test]
    fn trained_policy_plans_deterministically_without_learning() {
        let planner = Planner::new(theta_problem(), PlannerConfig::smoke_test());
        let report = planner.run();
        let trained_best = report.best.as_ref().expect("training found a plan").cost;
        // Restore the policy and deploy it greedily.
        let policy = planner.build_policy();
        nptsn_nn::params_from_bytes(
            &nptsn_nn::Module::parameters(&policy),
            &report.policy_checkpoint,
        )
        .unwrap();
        let deployed = planner
            .plan_with_policy(&policy, 4, 123)
            .expect("a trained policy should reconstruct a plan");
        assert!(
            crate::analyzer::FailureAnalyzer::new()
                .analyze(&planner.problem, &deployed.topology)
                .is_reliable()
        );
        // Deployment should be in the same cost ballpark as training's best
        // (identical is not guaranteed: argmax vs sampled exploration).
        assert!(deployed.cost <= trained_best * 3.0, "{} vs {}", deployed.cost, trained_best);
    }

    #[test]
    fn three_threads_plan_what_one_thread_plans() {
        // `PlannerConfig::threads` stops at the core count; this runs three
        // threads on any host. The theta graph's two switches give plans of
        // equal cost and different topologies, so the fold order shows.
        let planner = Planner::new(theta_problem(), PlannerConfig::smoke_test());
        let policy = planner.build_policy();
        for seed in 0..8 {
            let plan = |threads| {
                planner
                    .plan_on_threads(&policy, 7, seed, threads)
                    .map(|s| (s.cost.to_bits(), s.topology))
            };
            assert_eq!(plan(3), plan(1), "seed {seed}");
        }
    }

    #[test]
    fn a_helper_panic_reaches_the_caller_at_three_threads() {
        // A policy with one hidden layer fewer evaluates fine on the
        // caller, but no helper's replica can load its parameters.
        let planner = Planner::new(theta_problem(), PlannerConfig::smoke_test());
        let (n, f, a) = planner.network_dims();
        let other = PlannerConfig { mlp_hidden: vec![32], ..PlannerConfig::smoke_test() };
        let policy = PolicyNetwork::new(&other, n, f, a, 0);
        let _ = planner.plan_on_threads(&policy, 4, 0, 1);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            planner.plan_on_threads(&policy, 4, 0, 3)
        }))
        .expect_err("a helper's panic must reach the caller");
        let message = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.contains("parameter count mismatch"), "{message}");
    }

    #[test]
    fn checkpoint_restores_the_trained_policy() {
        let planner = Planner::new(theta_problem(), PlannerConfig::smoke_test());
        let report = planner.run();
        assert!(!report.policy_checkpoint.is_empty());
        // Restore into a fresh network and compare behavior on a fixed
        // observation.
        let restored = planner.build_policy();
        nptsn_nn::params_from_bytes(
            &nptsn_nn::Module::parameters(&restored),
            &report.policy_checkpoint,
        )
        .unwrap();
        // A second restore into another fresh network must agree exactly.
        let twin = planner.build_policy();
        nptsn_nn::params_from_bytes(
            &nptsn_nn::Module::parameters(&twin),
            &report.policy_checkpoint,
        )
        .unwrap();
        use nptsn_rl::ActorCritic;
        let mut rng = nptsn_rand::rngs::StdRng::seed_from_u64(0);
        let env = crate::env::PlanningEnv::new(planner.problem.clone(), 4, 1e3, 64, &mut rng);
        let mask = env.mask().to_vec();
        let (a, va) = restored.evaluate(env.observation(), &mask);
        let (b, vb) = twin.evaluate(env.observation(), &mask);
        assert_eq!(a.to_vec(), b.to_vec());
        assert_eq!(va.item(), vb.item());
    }

    #[test]
    fn deterministic_given_a_seed() {
        let cfg = PlannerConfig { workers: 2, ..PlannerConfig::smoke_test() };
        let a = Planner::new(theta_problem(), cfg.clone()).run();
        let b = Planner::new(theta_problem(), cfg).run();
        assert_eq!(a.reward_curve(), b.reward_curve());
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(
            a.best.as_ref().map(|s| s.cost),
            b.best.as_ref().map(|s| s.cost)
        );
        // Structural equality of the planned networks, not just cost.
        assert_eq!(
            a.best.as_ref().map(|s| &s.topology),
            b.best.as_ref().map(|s| &s.topology)
        );
        assert_eq!(a.policy_checkpoint, b.policy_checkpoint);
    }

    #[test]
    fn panicking_episodes_poison_workers_not_the_run() {
        // An NBF that panics on every invocation — a stand-in for a buggy
        // controller plug-in (the NBF is an externally supplied black box).
        struct PanickingNbf;
        impl nptsn_sched::NetworkBehavior for PanickingNbf {
            fn recover(
                &self,
                _: &nptsn_topo::Topology,
                _: &nptsn_topo::FailureScenario,
                _: &TasConfig,
                _: &FlowSet,
            ) -> nptsn_sched::RecoveryOutcome {
                panic!("injected NBF fault");
            }
            fn name(&self) -> &str {
                "panicking"
            }
        }

        let base = theta_problem();
        let problem = PlanningProblem::new(
            base.connection_graph_arc(),
            base.library().clone(),
            *base.tas(),
            base.flows().clone(),
            1e-6,
            Arc::new(PanickingNbf),
        )
        .unwrap();
        let cfg =
            PlannerConfig { workers: 2, max_epochs: 2, ..PlannerConfig::smoke_test() };
        let report = Planner::new(problem, cfg.clone()).run();
        // The run completes every epoch instead of aborting the process;
        // each poisoned worker is accounted for and no plan is reported.
        assert_eq!(report.epochs.len(), cfg.max_epochs);
        for epoch in &report.epochs {
            assert_eq!(epoch.poisoned_workers, cfg.workers);
            assert_eq!(epoch.episodes, 0);
        }
        assert!(report.best.is_none());
    }
}
