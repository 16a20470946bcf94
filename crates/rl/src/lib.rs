//! Actor-critic reinforcement learning with invalid-action masking:
//! masked categorical policies, GAE-λ advantage estimation and the PPO
//! clip objective.
//!
//! This crate is the training engine behind the NPTSN decision maker
//! (Section IV-C of the paper, Algorithm 2). It is deliberately
//! environment-agnostic: the planner in `nptsn` (and the NeuroPlan baseline
//! in `nptsn-baselines`) provide an [`ActorCritic`] model over their own
//! observation type and drive rollouts themselves; this crate supplies
//!
//! * [`masked_log_probs`] / [`sample_action`] — the invalid-action-masking
//!   policy head: masked logits are driven to −∞ before the softmax so
//!   invalid actions have probability (and gradient) zero,
//! * [`RolloutBuffer`] — experience storage with GAE-λ advantages and
//!   reward-to-go returns, and
//! * [`ppo_update`] — the clipped-surrogate actor update (Eq. 5) with KL
//!   early stopping plus the mean-squared-error critic update, each running
//!   through its own Adam optimizer exactly as in Algorithm 2 (lines
//!   19–21: the shared GCN receives gradients from both heads). Each
//!   iteration runs one forward over all steps, stacked by the model
//!   ([`ActorCritic::stack_steps`]), and one backward, bit-identical to a
//!   backward over the steps' own graphs.
//!
//! # Examples
//!
//! A tiny two-armed bandit learned end to end:
//!
//! ```
//! use nptsn_nn::{Activation, Adam, Mlp, Module};
//! use nptsn_rl::{ppo_update, ActorCritic, PpoConfig, RolloutBuffer};
//! use nptsn_tensor::Tensor;
//! use nptsn_rand::{rngs::StdRng, SeedableRng};
//!
//! struct Bandit {
//!     actor: Mlp,
//!     critic: Mlp,
//! }
//! impl Bandit {
//!     fn new(seed: u64) -> Bandit {
//!         let mut rng = StdRng::seed_from_u64(seed);
//!         Bandit {
//!             actor: Mlp::new(&mut rng, &[1, 16, 2], Activation::Tanh, Activation::Identity),
//!             critic: Mlp::new(&mut rng, &[1, 16, 1], Activation::Tanh, Activation::Identity),
//!         }
//!     }
//! }
//! impl ActorCritic<()> for Bandit {
//!     fn evaluate(&self, _obs: &(), mask: &[bool]) -> (Tensor, Tensor) {
//!         let x = Tensor::from_vec(1, 1, vec![1.0]);
//!         let logits = self.actor.forward(&x);
//!         let value = self.critic.forward(&x);
//!         (nptsn_rl::masked_log_probs(&logits, mask), value)
//!     }
//! }
//! let mut rng = StdRng::seed_from_u64(0);
//! let model = Bandit::new(0);
//! let mut pi_opt = Adam::new(model.actor.parameters(), 3e-3);
//! let mut v_opt = Adam::new(model.critic.parameters(), 1e-2);
//! let cfg = PpoConfig::default();
//!
//! for _ in 0..10 {
//!     let mut buf = RolloutBuffer::new(cfg.gamma, cfg.lambda);
//!     for _ in 0..64 {
//!         let mask = vec![true, true];
//!         let (logps, value) = model.evaluate(&(), &mask);
//!         let (a, logp) = nptsn_rl::sample_action(&logps.to_vec(), &mut rng);
//!         let reward = if a == 1 { 1.0 } else { 0.0 };
//!         buf.store((), a, mask.clone(), reward, value.item(), logp);
//!         buf.finish_path(0.0); // one-step episodes
//!     }
//!     let batch = buf.drain();
//!     // One thread: the default stacked forward evaluates step by step.
//!     ppo_update(&model, 1, &mut pi_opt, &mut v_opt, &batch, &cfg);
//! }
//! // The policy should now clearly prefer arm 1.
//! let (logps, _) = model.evaluate(&(), &[true, true]);
//! assert!(logps.to_vec()[1] > logps.to_vec()[0]);
//! ```

#![warn(missing_docs)]

mod buffer;
mod dist;
mod ppo;

pub use buffer::{Batch, RolloutBuffer};
pub use dist::{best_action, entropy_of_log_probs, masked_log_probs, sample_action};
pub use ppo::{ppo_update, PpoConfig, PpoStats};

use nptsn_tensor::Tensor;

/// An actor-critic model over observations of type `O`.
///
/// `evaluate` must return the *masked* log-probability row `(1, actions)`
/// (use [`masked_log_probs`]) and the value estimate `(1, 1)`; both must be
/// differentiable back to the model parameters so [`ppo_update`] can train
/// through them.
pub trait ActorCritic<O> {
    /// Computes the masked policy log-probabilities and the value for one
    /// observation.
    fn evaluate(&self, obs: &O, mask: &[bool]) -> (Tensor, Tensor);

    /// Prepares the steps of `batch` for the forwards of one PPO update,
    /// whose kernels may run on `threads` threads.
    ///
    /// The default evaluates every step with
    /// [`evaluate`](ActorCritic::evaluate) and stacks the rows with
    /// [`Tensor::concat_rows`], in step order: the reference the
    /// [`StackedSteps`] contract is stated against. A model overrides it
    /// to evaluate all steps as one batch.
    fn stack_steps<'a>(&'a self, batch: &'a Batch<O>, threads: usize) -> Box<dyn StackedSteps + 'a> {
        let _ = threads;
        Box::new(StepByStep { model: self, batch })
    }
}

/// Which output of an [`ActorCritic`] a stacked forward ends in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Head {
    /// The masked log-probabilities of every action.
    Actor,
    /// The value estimate.
    Critic,
}

/// One PPO update's steps, stacked by [`ActorCritic::stack_steps`] for a
/// forward per iteration.
///
/// [`ppo_update`] is bit-identical to the reference update (the default
/// [`ActorCritic::stack_steps`]) when `forward` keeps two promises. Its
/// rows are the bits [`ActorCritic::evaluate`] gives for each step. And a
/// backward through it leaves each parameter's cleared gradient (the
/// update clears them before every backward) with the bits of one
/// through the steps' own graphs, concatenated in step order: one
/// contribution per step and use, the last step's first, each formed by
/// the same kernels on the same operands.
pub trait StackedSteps {
    /// Evaluates every step under the current parameters, differentiably:
    /// row `s` is step `s`'s output of `head`, its masked log-probabilities
    /// (`(steps, actions)` in all) or its value (`(steps, 1)`).
    fn forward(&self, head: Head) -> Tensor;
}

/// The default [`StackedSteps`]: one graph per step.
struct StepByStep<'a, O, M: ?Sized> {
    model: &'a M,
    batch: &'a Batch<O>,
}

impl<O, M: ActorCritic<O> + ?Sized> StackedSteps for StepByStep<'_, O, M> {
    fn forward(&self, head: Head) -> Tensor {
        let rows: Vec<Tensor> = self
            .batch
            .observations
            .iter()
            .zip(&self.batch.masks)
            .map(|(obs, mask)| {
                let (log_probs, value) = self.model.evaluate(obs, mask);
                match head {
                    Head::Actor => log_probs,
                    Head::Critic => value,
                }
            })
            .collect();
        Tensor::concat_rows(&rows)
    }
}
