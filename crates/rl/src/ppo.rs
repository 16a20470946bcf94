//! The PPO clip update (Eq. 5) with KL early stopping, plus the critic
//! regression, with each iteration's step graphs spread over threads.

use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Arc;

use nptsn_nn::{export_params, import_params, Adam, Module};
use nptsn_tensor::{BackwardPass, Delta, Tensor};

use crate::buffer::Batch;
use crate::dist::entropy_of_log_probs;
use crate::ActorCritic;

/// PPO hyper-parameters.
///
/// Defaults follow Table II of the paper (clip ratio 0.2, discount 0.99,
/// GAE λ 0.97) and SpinningUp's KL early-stop threshold. The per-epoch
/// gradient iteration counts are reduced from SpinningUp's 80/80 to 20/20
/// — with the small networks used here this converges the same while
/// keeping figure-regeneration runs quick; raise them for full fidelity.
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
/// Every iteration's step graphs run on `workers` threads: step `s` on
/// thread `s % workers`. Thread 0 is the caller, on `model` itself; each
/// helper evaluates a replica that `replica` builds on the helper's own
/// thread (tensors are not `Send`) and that imports `model`'s parameters
/// at the start of every iteration. The caller builds the loss over the
/// gathered per-step outputs, backpropagates it to them, and then, for
/// `s` from the last step down to 0, either runs step `s`'s backward on
/// its own graph or adds the contributions a helper streams back for
/// it. Each parameter's gradient so takes the same additions in the same
/// order as one `backward()` over the concatenated steps (see
/// [`BackwardPass`]), and the update is bit-identical for any `workers`.
/// With `workers = 1` no helper starts.
///
/// Helpers run under the caller's trace context and inside a span named
/// like the caller's innermost open span, and a panic on a helper
/// reaches the caller as a panic.
///
/// # Panics
///
/// Panics when the batch is empty, or when a helper panics.
pub fn ppo_update<O: Sync, M: ActorCritic<O> + Module>(
    model: &M,
    replica: impl Fn() -> M + Sync,
    workers: usize,
    actor_opt: &mut Adam,
    critic_opt: &mut Adam,
    batch: &Batch<O>,
    cfg: &PpoConfig,
) -> PpoStats {
    assert!(!batch.is_empty(), "cannot update from an empty batch");
    let phase = nptsn_obs::current_span();
    let _span = nptsn_obs::span("ppo.update");
    let threads = workers.clamp(1, batch.len());
    let trace = nptsn_obs::current_trace();
    let replica = &replica;
    std::thread::scope(|scope| {
        let helpers = (1..threads)
            .map(|thread| {
                let (orders, order_rx) = mpsc::channel();
                let (reply_tx, replies) = mpsc::sync_channel(STEPS_IN_FLIGHT);
                let (spent, spent_rx) = mpsc::channel();
                scope.spawn(move || {
                    let _trace = nptsn_obs::with_trace(trace);
                    {
                        let _phase = phase.map(nptsn_obs::span);
                        help(&replica(), batch, thread, threads, order_rx, reply_tx, spent_rx);
                    }
                    // The scope's join does not wait for TLS destructors.
                    nptsn_obs::flush_thread();
                });
                Helper { orders, replies, spent }
            })
            .collect();
        let mut team = Team {
            model,
            params: model.parameters(),
            batch,
            threads,
            helpers,
            roots: Vec::new(),
        };
        update(&mut team, actor_opt, critic_opt, cfg)
    })
}

/// The actor and critic loops of one update.
fn update<O, M: ActorCritic<O> + Module>(
    team: &mut Team<'_, O, M>,
    actor_opt: &mut Adam,
    critic_opt: &mut Adam,
    cfg: &PpoConfig,
) -> PpoStats {
    let batch = team.batch;
    let n = batch.len();
    let adv = Tensor::from_vec(1, n, batch.advantages.clone());
    let old_logp = Tensor::from_vec(1, n, batch.old_log_probs.clone());
    let ret = Tensor::from_vec(1, n, batch.returns.clone());

    let mut policy_loss = 0.0;
    let mut approx_kl = 0.0;
    let mut entropy = 0.0;
    let mut policy_iters = 0;

    // Actor: clipped surrogate with KL early stop.
    for _ in 0..cfg.train_pi_iters {
        let steps = team.forward(Head::Actor);
        let new_logp = Tensor::param(1, n, steps.iter().map(|&(logp, _)| logp).collect());
        let mut ent = 0.0;
        for &(_, step_entropy) in &steps {
            ent += step_entropy;
        }
        let ent = ent / n as f32;
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
            team.backward(&new_logp.grad());
        }
        actor_opt.step();
        policy_iters += 1;
    }

    // Critic: MSE regression to the returns.
    let mut value_loss = 0.0;
    for _ in 0..cfg.train_v_iters {
        let steps = team.forward(Head::Critic);
        let values = Tensor::param(1, n, steps.iter().map(|&(value, _)| value).collect());
        let loss = values.sub(&ret).square().mean();
        value_loss = loss.item();
        critic_opt.zero_grad();
        {
            let _bw = nptsn_obs::span("ppo.backward");
            loss.backward();
            team.backward(&values.grad());
        }
        critic_opt.step();
    }

    PpoStats { policy_loss, value_loss, approx_kl, entropy, policy_iters }
}

/// Steps' worth of contributions a helper may stream ahead of the
/// caller's fold. One step's contributions are at most the size of the
/// parameters, so this bounds what is in flight per helper.
const STEPS_IN_FLIGHT: usize = 16;

/// Which head's output a step graph ends in.
#[derive(Debug, Clone, Copy)]
enum Head {
    /// The log-probability of the step's action.
    Actor,
    /// The value estimate.
    Critic,
}

/// The caller's orders to a helper.
enum Order {
    /// Import these parameters and evaluate your steps.
    Forward(Head, Arc<Vec<Vec<f32>>>),
    /// Backpropagate your steps from these upstream gradients (one per
    /// step of the batch), last step first.
    Backward(Arc<Vec<f32>>),
}

/// One step's leaf contributions as `(parameter index, delta)`, in the
/// order its backward made them.
type Contributions = Vec<(usize, Delta<'static>)>;

/// A helper's replies, in the order the caller consumes them.
enum Reply {
    /// Each of the helper's steps' `(output, entropy)`, in step order.
    Forward(Vec<(f32, f32)>),
    /// One step's contributions.
    Step(Contributions),
}

/// The caller's ends of one helper's channels. Folded contributions go
/// back on `spent`, so that each thread frees only what it allocated: a
/// free from another thread contends for the allocating thread's heap.
struct Helper {
    orders: Sender<Order>,
    replies: Receiver<Reply>,
    spent: Sender<Contributions>,
}

/// The caller's side of an update: the master model, its parameters, and
/// the graphs of the caller's own steps from the latest forward.
struct Team<'a, O, M> {
    model: &'a M,
    params: Vec<Tensor>,
    batch: &'a Batch<O>,
    threads: usize,
    helpers: Vec<Helper>,
    roots: Vec<Tensor>,
}

impl<O, M: ActorCritic<O> + Module> Team<'_, O, M> {
    /// Evaluates every step under the current parameters and returns each
    /// step's `(output, entropy)` in step order.
    fn forward(&mut self, head: Head) -> Vec<(f32, f32)> {
        // The last iteration's graphs go before this one's are built.
        self.roots.clear();
        if !self.helpers.is_empty() {
            let snapshot = Arc::new(export_params(&self.params));
            for helper in &self.helpers {
                if helper.orders.send(Order::Forward(head, Arc::clone(&snapshot))).is_err() {
                    helper_died();
                }
            }
        }
        let (roots, own) = evaluate_steps(self.model, self.batch, 0, self.threads, head);
        self.roots = roots;
        let mut steps = vec![(0.0, 0.0); self.batch.len()];
        let mut place = |thread: usize, outputs: Vec<(f32, f32)>| {
            for (i, output) in outputs.into_iter().enumerate() {
                steps[thread + i * self.threads] = output;
            }
        };
        place(0, own);
        for (i, helper) in self.helpers.iter().enumerate() {
            match helper.replies.recv() {
                Ok(Reply::Forward(outputs)) => place(i + 1, outputs),
                _ => helper_died(),
            }
        }
        steps
    }

    /// Backpropagates `upstream`, the loss gradient with respect to each
    /// step's output, through every step graph of the latest forward, and
    /// adds each contribution into the master parameters: step `n − 1`'s
    /// first, step 0's last, each step's in its own backward order.
    fn backward(&mut self, upstream: &[f32]) {
        if !self.helpers.is_empty() {
            let shared = Arc::new(upstream.to_vec());
            for helper in &self.helpers {
                if helper.orders.send(Order::Backward(Arc::clone(&shared))).is_err() {
                    helper_died();
                }
            }
        }
        let mut pass = BackwardPass::new();
        for s in (0..self.batch.len()).rev() {
            let thread = s % self.threads;
            if thread == 0 {
                let root = &self.roots[s / self.threads];
                pass.seeded(root, &[upstream[s]], &mut |leaf, delta| leaf.accumulate(&delta));
                continue;
            }
            let helper = &self.helpers[thread - 1];
            match helper.replies.recv() {
                Ok(Reply::Step(contributions)) => {
                    for (i, delta) in &contributions {
                        self.params[*i].accumulate(delta);
                    }
                    // A helper that is gone no longer needs them back.
                    let _ = helper.spent.send(contributions);
                }
                _ => helper_died(),
            }
        }
    }
}

/// A helper thread's loop: runs the steps `thread, thread + threads, …`
/// of each order on `model` until the caller hangs up, and frees the
/// contributions the caller hands back on `spent`.
fn help<O, M: ActorCritic<O> + Module>(
    model: &M,
    batch: &Batch<O>,
    thread: usize,
    threads: usize,
    orders: Receiver<Order>,
    replies: SyncSender<Reply>,
    spent: Receiver<Contributions>,
) {
    let params = model.parameters();
    let mut roots = Vec::new();
    for order in orders {
        let sent = match order {
            Order::Forward(head, snapshot) => {
                roots.clear();
                import_params(&params, &snapshot);
                // The caller drops its copy only after this reply, so the
                // thread that allocated the snapshot frees it.
                drop(snapshot);
                let (step_roots, outputs) = evaluate_steps(model, batch, thread, threads, head);
                roots = step_roots;
                replies.send(Reply::Forward(outputs))
            }
            Order::Backward(upstream) => {
                let _bw = nptsn_obs::span("ppo.backward");
                let seeds: Vec<f32> = upstream.iter().skip(thread).step_by(threads).copied().collect();
                drop(upstream);
                let mut pass = BackwardPass::new();
                let mut sent = Ok(());
                for (root, &seed) in roots.iter().zip(&seeds).rev() {
                    spent.try_iter().for_each(drop);
                    let mut contributions = Vec::new();
                    pass.seeded(root, &[seed], &mut |leaf, delta| {
                        let index = params
                            .iter()
                            .position(|p| p.same_node(leaf))
                            .expect("every leaf a step's gradient reaches is a model parameter");
                        contributions.push((index, delta.into_owned()));
                    });
                    sent = replies.send(Reply::Step(contributions));
                    if sent.is_err() {
                        break;
                    }
                }
                sent
            }
        };
        // A closed channel means the caller is unwinding; stop quietly.
        if sent.is_err() {
            return;
        }
    }
}

/// Evaluates steps `first, first + stride, …` of `batch` and returns each
/// one's graph root (the action's log-probability or the value) and its
/// `(output, entropy of the log-probabilities)`.
fn evaluate_steps<O>(
    model: &impl ActorCritic<O>,
    batch: &Batch<O>,
    first: usize,
    stride: usize,
    head: Head,
) -> (Vec<Tensor>, Vec<(f32, f32)>) {
    (first..batch.len())
        .step_by(stride)
        .map(|s| {
            let (logps, value) = model.evaluate(&batch.observations[s], &batch.masks[s]);
            let entropy = entropy_of_log_probs(&logps.to_vec());
            let root = match head {
                Head::Actor => logps.gather_cols(&[batch.actions[s]]),
                Head::Critic => value,
            };
            let output = root.item();
            (root, (output, entropy))
        })
        .unzip()
}

fn helper_died() -> ! {
    panic!("a PPO update helper thread panicked")
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

        /// A helper's replica: the shapes matter, the values are imported.
        fn replica(hidden: usize) -> ContextBandit {
            ContextBandit::new(&mut StdRng::seed_from_u64(99), hidden)
        }
    }

    impl ActorCritic<Vec<f32>> for ContextBandit {
        fn evaluate(&self, obs: &Vec<f32>, mask: &[bool]) -> (Tensor, Tensor) {
            let x = Tensor::from_vec(1, obs.len(), obs.clone());
            (masked_log_probs(&self.actor.forward(&x), mask), self.critic.forward(&x))
        }
    }

    impl Module for ContextBandit {
        fn parameters(&self) -> Vec<Tensor> {
            let mut p = self.actor.parameters();
            p.extend(self.critic.parameters());
            p
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
            let replica = || ContextBandit::replica(32);
            let stats = ppo_update(&model, replica, 2, &mut pi_opt, &mut v_opt, &batch, &cfg);
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
            let replica = || ContextBandit::replica(16);
            let stats = ppo_update(&model, replica, 3, &mut pi_opt, &mut v_opt, &buf.drain(), &cfg);
            last_loss = stats.value_loss;
        }
        assert!(last_loss < 0.05, "value loss did not shrink: {last_loss}");
        let (_, v) = model.evaluate(&vec![1.0, 0.0], &[true, true]);
        assert!((v.item() - 1.0).abs() < 0.25, "value {}", v.item());
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let model = ContextBandit::replica(4);
        let mut pi_opt = Adam::new(model.actor.parameters(), 1e-3);
        let mut v_opt = Adam::new(model.critic.parameters(), 1e-3);
        let batch: Batch<Vec<f32>> = Batch::merge(vec![]);
        let replica = || ContextBandit::replica(4);
        let cfg = PpoConfig::default();
        let _ = ppo_update(&model, replica, 1, &mut pi_opt, &mut v_opt, &batch, &cfg);
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
        let replica = || ContextBandit::replica(16);
        let stats = ppo_update(&model, replica, 2, &mut pi_opt, &mut v_opt, &buf.drain(), &cfg);
        assert!(stats.policy_iters < 50, "early stop never triggered");
    }
}
