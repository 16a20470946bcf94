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
//!   iteration's step graphs run on several threads, and the gradients
//!   fold back bit-identical to one sequential backward.
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
//! impl Module for Bandit {
//!     fn parameters(&self) -> Vec<Tensor> {
//!         let mut p = self.actor.parameters();
//!         p.extend(self.critic.parameters());
//!         p
//!     }
//! }
//!
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
//!     // Two threads: the caller and one helper on its own replica.
//!     ppo_update(&model, || Bandit::new(0), 2, &mut pi_opt, &mut v_opt, &batch, &cfg);
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
/// through them. Every leaf with a gradient that they reach must be one of
/// the model's [`Module::parameters`](nptsn_nn::Module::parameters), and
/// two observations' graphs may share no other node that carries a
/// gradient, so that each step's backward can run on its own thread.
pub trait ActorCritic<O> {
    /// Computes the masked policy log-probabilities and the value for one
    /// observation.
    fn evaluate(&self, obs: &O, mask: &[bool]) -> (Tensor, Tensor);
}
