//! The threaded PPO update's contract with its caller: helper threads
//! trace inside the caller's phase span on their own thread, and a helper
//! that panics fails the update with a panic instead of hanging it.
//!
//! Tracing state is process-global, so this is its own test binary and
//! its tests take `TRACE_LOCK`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use nptsn_nn::{Activation, Adam, Mlp, Module};
use nptsn_obs::Record;
use nptsn_rand::rngs::StdRng;
use nptsn_rand::SeedableRng;
use nptsn_rl::{masked_log_probs, ppo_update, ActorCritic, Batch, PpoConfig, RolloutBuffer};
use nptsn_tensor::Tensor;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// A two-armed bandit policy that can be told to panic in `evaluate`.
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
        assert!(!self.panics, "injected evaluate failure");
        let x = Tensor::from_vec(1, obs.len(), obs.clone());
        (masked_log_probs(&self.actor.forward(&x), mask), self.critic.forward(&x))
    }
}

impl Module for Bandit {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.actor.parameters();
        p.extend(self.critic.parameters());
        p
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

fn update(model: &Bandit, replica: impl Fn() -> Bandit + Sync, workers: usize, cfg: &PpoConfig) {
    let mut actor_opt = Adam::new(model.actor.parameters(), 1e-3);
    let mut critic_opt = Adam::new(model.critic.parameters(), 1e-3);
    ppo_update(model, replica, workers, &mut actor_opt, &mut critic_opt, &batch(12), cfg);
}

#[test]
fn helpers_trace_inside_the_callers_phase_span() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = PpoConfig { train_pi_iters: 2, train_v_iters: 3, target_kl: 1e9, ..PpoConfig::default() };
    let _ = nptsn_obs::drain();
    nptsn_obs::set_enabled(true);
    {
        let _phase = nptsn_obs::span("test.phase");
        assert_eq!(nptsn_obs::current_span(), Some("test.phase"));
        update(&Bandit::new(false), || Bandit::new(false), 2, &cfg);
    }
    nptsn_obs::set_enabled(false);
    assert_eq!(nptsn_obs::current_span(), None, "no span is recorded while tracing is off");
    let records = nptsn_obs::drain();

    let mut phases: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let mut backwards = Vec::new();
    for record in &records {
        if let Record::Span { name, tid, start_ns, dur_ns, .. } = *record {
            match name {
                "test.phase" => phases.entry(tid).or_default().push((start_ns, start_ns + dur_ns)),
                "ppo.backward" => backwards.push((tid, start_ns, start_ns + dur_ns)),
                _ => {}
            }
        }
    }
    // One phase span on the caller's thread and one on the helper's.
    assert_eq!(phases.len(), 2, "{phases:?}");
    // One backward span per thread per iteration, each inside its own
    // thread's phase span.
    assert_eq!(backwards.len(), 2 * (2 + 3), "{backwards:?}");
    for (tid, start, end) in backwards {
        let enclosed = phases.get(&tid).is_some_and(|spans| {
            spans.iter().any(|&(s, e)| s <= start && end <= e)
        });
        assert!(enclosed, "ppo.backward on thread {tid} outside its phase span");
    }
}

#[test]
fn a_panicking_helper_panics_the_update() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = PpoConfig { train_pi_iters: 2, train_v_iters: 2, ..PpoConfig::default() };
    let model = Bandit::new(false);
    for workers in [2, 3] {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            update(&model, || Bandit::new(true), workers, &cfg);
        }));
        assert!(outcome.is_err(), "{workers} workers: the helper's panic was swallowed");
    }
    // The caller's model is still usable afterwards.
    update(&model, || Bandit::new(false), 2, &cfg);
}
