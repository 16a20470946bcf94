//! The PPO clip update (Eq. 5) with KL early stopping, plus the critic
//! regression, on one stacked forward and one backward per iteration.

use nptsn_nn::Adam;
use nptsn_tensor::Tensor;

use crate::buffer::Batch;
use crate::dist::entropy_of_log_probs;
use crate::{ActorCritic, Head};

/// PPO hyper-parameters.
///
/// The clip ratio, discount and GAE λ follow Table II of the paper (0.2,
/// 0.99, 0.97), the KL early-stop threshold follows SpinningUp. The
/// planner does not use this type's defaults: it builds its `PpoConfig`
/// from `PlannerConfig`, whose iteration counts are Table II's 80 + 80
/// in `default_paper`, 8 + 8 in `quick`, 3 + 3 in `smoke_test`, and
/// 6 + 6 in the benchmark. The 20 + 20 default here only sizes this
/// crate's own examples and tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpoConfig {
    /// Clip ratio ε of Eq. 5.
    pub clip_ratio: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// GAE-λ coefficient.
    pub lambda: f32,
    /// Maximum actor gradient steps per epoch.
    pub train_pi_iters: usize,
    /// Critic gradient steps per epoch.
    pub train_v_iters: usize,
    /// Early-stop threshold on the approximate KL divergence (stop at
    /// 1.5x this value, as SpinningUp does).
    pub target_kl: f32,
}

impl Default for PpoConfig {
    fn default() -> PpoConfig {
        PpoConfig {
            clip_ratio: 0.2,
            gamma: 0.99,
            lambda: 0.97,
            train_pi_iters: 20,
            train_v_iters: 20,
            target_kl: 0.015,
        }
    }
}

/// Diagnostics of one PPO update.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PpoStats {
    /// Final clipped-surrogate policy loss.
    pub policy_loss: f32,
    /// Final mean-squared value loss.
    pub value_loss: f32,
    /// Approximate KL divergence between old and new policy at the last
    /// actor step.
    pub approx_kl: f32,
    /// Mean policy entropy over the batch (under the new policy).
    pub entropy: f32,
    /// Actor gradient steps actually taken before the KL early stop.
    pub policy_iters: usize,
}

/// Runs one PPO epoch update over `batch` (Algorithm 2 lines 19–21).
///
/// The actor is trained on the clipped surrogate objective of Eq. 5 —
/// `E[min(r A, clip(r, 1−ε, 1+ε) A)]` with `r` the masked-policy
/// probability ratio — via `actor_opt`; the critic minimizes the mean
/// squared error to the reward-to-go returns via `critic_opt`. Model
/// parameters shared between the two heads (the GCN in NPTSN) receive
/// gradients from both, exactly as the paper describes ("the weights of
/// the GCN are updated twice").
///
/// Log-probabilities are recomputed under the *stored masks*, keeping the
/// gradient correct on the dynamic action space.
///
/// # Threads
///
/// The model stacks the batch once ([`ActorCritic::stack_steps`]); every
/// iteration then runs one forward over all steps and one backward from
/// the loss. The update runs on the caller's thread; the model's stacked
/// forward and its backward may split their kernels over `threads`
/// threads (NPTSN's GCN does). When the model keeps the
/// [`StackedSteps`](crate::StackedSteps) contract, the update is
/// bit-identical to one `backward()` over the steps' solo graphs,
/// concatenated in step order, for any `threads`.
///
/// # Panics
///
/// Panics when the batch is empty, or when the model's forward or
/// backward panics on any of its threads.
pub fn ppo_update<O, M: ActorCritic<O>>(
    model: &M,
    threads: usize,
    actor_opt: &mut Adam,
    critic_opt: &mut Adam,
    batch: &Batch<O>,
    cfg: &PpoConfig,
) -> PpoStats {
    assert!(!batch.is_empty(), "cannot update from an empty batch");
    let _span = nptsn_obs::span("ppo.update");
    // Every iteration builds a graph of the same shapes: keep its buffers.
    nptsn_tensor::recycling(|| update(model, threads, actor_opt, critic_opt, batch, cfg))
}

/// The actor and critic loops of [`ppo_update`].
fn update<O, M: ActorCritic<O>>(
    model: &M,
    threads: usize,
    actor_opt: &mut Adam,
    critic_opt: &mut Adam,
    batch: &Batch<O>,
    cfg: &PpoConfig,
) -> PpoStats {
    let steps = model.stack_steps(batch, threads);
    let n = batch.len();
    let adv = Tensor::from_vec(n, 1, batch.advantages.clone());
    let old_logp = Tensor::from_vec(n, 1, batch.old_log_probs.clone());
    let ret = Tensor::from_vec(n, 1, batch.returns.clone());

    let mut policy_loss = 0.0;
    let mut approx_kl = 0.0;
    let mut entropy = 0.0;
    let mut policy_iters = 0;

    // Actor: clipped surrogate with KL early stop.
    for _ in 0..cfg.train_pi_iters {
        let logps = steps.forward(Head::Actor);
        let mut ent = 0.0;
        for row in logps.data().chunks_exact(logps.cols()) {
            ent += entropy_of_log_probs(row);
        }
        let ent = ent / n as f32;
        let new_logp = logps.gather_cols(&batch.actions);
        let ratio = new_logp.sub(&old_logp).exp();
        let surr = ratio.mul(&adv);
        let clipped = ratio.clamp(1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio).mul(&adv);
        let loss = surr.minimum(&clipped).mean().neg();

        // Diagnostics before stepping.
        let kl: f32 = old_logp
            .to_vec()
            .iter()
            .zip(new_logp.to_vec().iter())
            .map(|(o, n)| o - n)
            .sum::<f32>()
            / n as f32;
        policy_loss = loss.item();
        approx_kl = kl;
        entropy = ent;
        if kl > 1.5 * cfg.target_kl && policy_iters > 0 {
            break;
        }
        actor_opt.zero_grad();
        {
            let _bw = nptsn_obs::span("ppo.backward");
            loss.backward();
        }
        actor_opt.step();
        policy_iters += 1;
    }

    // Critic: MSE regression to the returns.
    let mut value_loss = 0.0;
    for _ in 0..cfg.train_v_iters {
        let values = steps.forward(Head::Critic);
        let loss = values.sub(&ret).square().mean();
        value_loss = loss.item();
        critic_opt.zero_grad();
        {
            let _bw = nptsn_obs::span("ppo.backward");
            loss.backward();
        }
        critic_opt.step();
    }

    PpoStats { policy_loss, value_loss, approx_kl, entropy, policy_iters }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{masked_log_probs, sample_action};
    use crate::RolloutBuffer;
    use nptsn_nn::{Activation, Mlp, Module};
    use nptsn_rand::rngs::StdRng;
    use nptsn_rand::SeedableRng;

    /// A contextual bandit: obs is a one-hot context of width 2; action
    /// matching the context pays 1.
    struct ContextBandit {
        actor: Mlp,
        critic: Mlp,
    }

    impl ContextBandit {
        fn new(rng: &mut StdRng, hidden: usize) -> ContextBandit {
            ContextBandit {
                actor: Mlp::new(rng, &[2, hidden, 2], Activation::Tanh, Activation::Identity),
                critic: Mlp::new(rng, &[2, hidden, 1], Activation::Tanh, Activation::Identity),
            }
        }

    }

    impl ActorCritic<Vec<f32>> for ContextBandit {
        fn evaluate(&self, obs: &Vec<f32>, mask: &[bool]) -> (Tensor, Tensor) {
            let x = Tensor::from_vec(1, obs.len(), obs.clone());
            (masked_log_probs(&self.actor.forward(&x), mask), self.critic.forward(&x))
        }
    }

    fn run_training(mask_second: bool) -> (ContextBandit, f32) {
        let mut rng = StdRng::seed_from_u64(0);
        let model = ContextBandit::new(&mut rng, 32);
        let mut pi_opt = Adam::new(model.actor.parameters(), 3e-3);
        let mut v_opt = Adam::new(model.critic.parameters(), 1e-2);
        let cfg = PpoConfig::default();
        let mut mean_reward = 0.0;
        for epoch in 0..15 {
            let mut buf = RolloutBuffer::new(cfg.gamma, cfg.lambda);
            let mut total = 0.0;
            for step in 0..64 {
                let ctx = step % 2;
                let obs = vec![(ctx == 0) as u8 as f32, (ctx == 1) as u8 as f32];
                let mask = if mask_second { vec![true, false] } else { vec![true, true] };
                let (logps, value) = model.evaluate(&obs, &mask);
                let (a, logp) = sample_action(&logps.to_vec(), &mut rng);
                let reward = if a == ctx { 1.0 } else { 0.0 };
                total += reward;
                buf.store(obs, a, mask, reward, value.item(), logp);
                buf.finish_path(0.0);
            }
            let batch = buf.drain();
            let stats = ppo_update(&model, 2, &mut pi_opt, &mut v_opt, &batch, &cfg);
            assert!(stats.policy_iters >= 1);
            if epoch == 14 {
                mean_reward = total / 64.0;
            }
        }
        (model, mean_reward)
    }

    #[test]
    fn learns_the_contextual_bandit() {
        let (model, mean_reward) = run_training(false);
        assert!(mean_reward > 0.85, "policy did not learn: mean reward {mean_reward}");
        // The learned policy matches the context deterministically enough.
        for ctx in 0..2 {
            let obs = vec![(ctx == 0) as u8 as f32, (ctx == 1) as u8 as f32];
            let (logps, _) = model.evaluate(&obs, &[true, true]);
            let v = logps.to_vec();
            assert!(v[ctx] > v[1 - ctx], "context {ctx}: {v:?}");
        }
    }

    #[test]
    fn masked_training_stays_on_valid_actions() {
        // With action 1 always masked, the policy can only play action 0 and
        // the update must remain numerically stable.
        let (model, _) = run_training(true);
        let (logps, _) = model.evaluate(&vec![1.0, 0.0], &[true, false]);
        let v = logps.to_vec();
        assert!(v[0] > -1e-3, "valid action should have probability ~1, got {v:?}");
        assert!(v[1] < -20.0);
    }

    #[test]
    fn critic_fits_returns() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = ContextBandit::new(&mut rng, 16);
        let mut pi_opt = Adam::new(model.actor.parameters(), 1e-9); // frozen actor
        let mut v_opt = Adam::new(model.critic.parameters(), 1e-2);
        let cfg = PpoConfig { train_v_iters: 50, ..PpoConfig::default() };
        // Constant reward 1 on every step: the value should approach 1.
        let mut last_loss = f32::INFINITY;
        for _ in 0..10 {
            let mut buf = RolloutBuffer::new(cfg.gamma, cfg.lambda);
            for _ in 0..32 {
                let obs = vec![1.0, 0.0];
                let mask = vec![true, true];
                let (logps, value) = model.evaluate(&obs, &mask);
                let (a, logp) = sample_action(&logps.to_vec(), &mut rng);
                buf.store(obs, a, mask, 1.0, value.item(), logp);
                buf.finish_path(0.0);
            }
            let stats = ppo_update(&model, 3, &mut pi_opt, &mut v_opt, &buf.drain(), &cfg);
            last_loss = stats.value_loss;
        }
        assert!(last_loss < 0.05, "value loss did not shrink: {last_loss}");
        let (_, v) = model.evaluate(&vec![1.0, 0.0], &[true, true]);
        assert!((v.item() - 1.0).abs() < 0.25, "value {}", v.item());
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let model = ContextBandit::new(&mut StdRng::seed_from_u64(99), 4);
        let mut pi_opt = Adam::new(model.actor.parameters(), 1e-3);
        let mut v_opt = Adam::new(model.critic.parameters(), 1e-3);
        let batch: Batch<Vec<f32>> = Batch::merge(vec![]);
        let cfg = PpoConfig::default();
        let _ = ppo_update(&model, 1, &mut pi_opt, &mut v_opt, &batch, &cfg);
    }

    #[test]
    fn kl_early_stop_bounds_iterations() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = ContextBandit::new(&mut rng, 16);
        // Huge learning rate forces a big policy shift, tripping the stop.
        let mut pi_opt = Adam::new(model.actor.parameters(), 0.5);
        let mut v_opt = Adam::new(model.critic.parameters(), 1e-3);
        let cfg = PpoConfig { train_pi_iters: 50, target_kl: 1e-4, ..PpoConfig::default() };
        let mut buf = RolloutBuffer::new(cfg.gamma, cfg.lambda);
        for i in 0..16 {
            let obs = vec![1.0, 0.0];
            let mask = vec![true, true];
            let (logps, value) = model.evaluate(&obs, &mask);
            let (a, logp) = sample_action(&logps.to_vec(), &mut rng);
            buf.store(obs, a, mask, (i % 2) as f32, value.item(), logp);
            buf.finish_path(0.0);
        }
        let stats = ppo_update(&model, 2, &mut pi_opt, &mut v_opt, &buf.drain(), &cfg);
        assert!(stats.policy_iters < 50, "early stop never triggered");
    }
}
