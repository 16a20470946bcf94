//! The PPO update's contract with its caller on threads: the update and
//! its spans run on the caller's thread, one `ppo.backward` per
//! iteration, and a panic on a thread of the model's kernels panics the
//! update instead of hanging it.
//!
//! Tracing state is process-global, so this is its own test binary and
//! its tests take `TRACE_LOCK`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use nptsn_nn::{Activation, Adam, Mlp, Module};
use nptsn_obs::Record;
use nptsn_rand::rngs::StdRng;
use nptsn_rand::SeedableRng;
use nptsn_rl::{
    masked_log_probs, ppo_update, ActorCritic, Batch, Head, PpoConfig, RolloutBuffer, StackedSteps,
};
use nptsn_tensor::{kernels, Tensor};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// A two-armed bandit policy whose stacked forward first runs a kernel
/// split over the update's threads, which can be told to panic on every
/// thread but the caller's.
struct Bandit {
    actor: Mlp,
    critic: Mlp,
    panics: bool,
}

impl Bandit {
    fn new(panics: bool) -> Bandit {
        let mut rng = StdRng::seed_from_u64(3);
        Bandit {
            actor: Mlp::new(&mut rng, &[2, 8, 2], Activation::Tanh, Activation::Identity),
            critic: Mlp::new(&mut rng, &[2, 8, 1], Activation::Tanh, Activation::Identity),
            panics,
        }
    }
}

impl ActorCritic<Vec<f32>> for Bandit {
    fn evaluate(&self, obs: &Vec<f32>, mask: &[bool]) -> (Tensor, Tensor) {
        let x = Tensor::from_vec(1, obs.len(), obs.clone());
        (
            masked_log_probs(&self.actor.forward(&x), mask),
            self.critic.forward(&x),
        )
    }

    fn stack_steps<'a>(
        &'a self,
        batch: &'a Batch<Vec<f32>>,
        threads: usize,
    ) -> Box<dyn StackedSteps + 'a> {
        Box::new(Stacked {
            model: self,
            batch,
            threads,
        })
    }
}

struct Stacked<'a> {
    model: &'a Bandit,
    batch: &'a Batch<Vec<f32>>,
    threads: usize,
}

impl StackedSteps for Stacked<'_> {
    fn forward(&self, head: Head) -> Tensor {
        let (mut units, panics) = (vec![0.0f32; self.batch.len()], self.model.panics);
        kernels::split_units(self.threads, &mut units, 1, |first, _| {
            assert!(!panics || first == 0, "injected kernel failure");
        });
        let rows: Vec<Tensor> = self
            .batch
            .observations
            .iter()
            .zip(&self.batch.masks)
            .map(|(obs, mask)| {
                let (log_probs, value) = self.model.evaluate(obs, mask);
                if head == Head::Actor {
                    log_probs
                } else {
                    value
                }
            })
            .collect();
        Tensor::concat_rows(&rows)
    }
}

fn batch(steps: usize) -> Batch<Vec<f32>> {
    let mut buffer = RolloutBuffer::new(0.99, 0.97);
    for i in 0..steps {
        let obs = vec![(i % 2) as f32, 1.0 - (i % 2) as f32];
        buffer.store(obs, i % 2, vec![true, true], (i % 3) as f32, 0.0, -0.7);
        buffer.finish_path(0.0);
    }
    buffer.drain()
}

fn update(model: &Bandit, threads: usize, cfg: &PpoConfig) {
    let mut actor_opt = Adam::new(model.actor.parameters(), 1e-3);
    let mut critic_opt = Adam::new(model.critic.parameters(), 1e-3);
    ppo_update(
        model,
        threads,
        &mut actor_opt,
        &mut critic_opt,
        &batch(12),
        cfg,
    );
}

#[test]
fn the_update_traces_one_backward_per_iteration_on_the_callers_thread() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = PpoConfig {
        train_pi_iters: 2,
        train_v_iters: 3,
        target_kl: 1e9,
        ..PpoConfig::default()
    };
    let _ = nptsn_obs::drain();
    nptsn_obs::set_enabled(true);
    update(&Bandit::new(false), 2, &cfg);
    nptsn_obs::set_enabled(false);
    let records = nptsn_obs::drain();

    let mut updates = Vec::new();
    let mut backwards = Vec::new();
    for record in &records {
        if let Record::Span { name, tid, .. } = *record {
            match name {
                "ppo.update" => updates.push(tid),
                "ppo.backward" => backwards.push(tid),
                _ => {}
            }
        }
    }
    assert_eq!(updates.len(), 1, "{records:?}");
    assert_eq!(backwards.len(), 2 + 3, "{records:?}");
    assert!(
        backwards.iter().all(|&tid| tid == updates[0]),
        "a backward left the caller's thread"
    );
}

#[test]
fn a_panicking_kernel_thread_panics_the_update() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = PpoConfig {
        train_pi_iters: 2,
        train_v_iters: 2,
        ..PpoConfig::default()
    };
    let model = Bandit::new(true);
    for threads in [2, 3] {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            update(&model, threads, &cfg);
        }));
        assert!(
            outcome.is_err(),
            "{threads} threads: the kernel thread's panic was swallowed"
        );
    }
    // The model is still usable afterwards: on one thread there is no
    // other thread to fail, and it trains to the bits of a fresh one.
    let fresh = Bandit::new(true);
    update(&model, 1, &cfg);
    update(&fresh, 1, &cfg);
    assert_eq!(bits(&model), bits(&fresh));
}

/// Every parameter of the model, as bits.
fn bits(model: &Bandit) -> Vec<u32> {
    model
        .actor
        .parameters()
        .iter()
        .chain(&model.critic.parameters())
        .flat_map(|p| p.to_vec())
        .map(f32::to_bits)
        .collect()
}
