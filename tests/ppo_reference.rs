//! The batched, threaded PPO update pinned to the sequential one it
//! replaced.
//!
//! `nptsn_rl::ppo_update` runs each iteration as one forward of
//! `PolicyNetwork` over all steps, stacked last step first on the GCN's
//! block layout with its kernels split over `workers` threads, and one
//! backward. This test keeps the sequential update as the reference:
//! every step evaluated on its own graph, the steps concatenated, one
//! `loss.backward()`. Both sides start from equal parameters with fresh
//! optimizers and take several consecutive updates on observations
//! encoded by `PlanningEnv`, at every GCN depth the repository trains
//! (Fig. 5a's GCN-0, -2 and -4); after every update the statistics,
//! every parameter and every parameter's gradient must agree bit for bit.

use std::sync::Arc;

use nptsn::{Observation, PlannerConfig, PlanningEnv, PlanningProblem, PolicyNetwork};
use nptsn_nn::{Adam, Module};
use nptsn_rand::rngs::StdRng;
use nptsn_rand::SeedableRng;
use nptsn_rl::{
    entropy_of_log_probs, ppo_update, sample_action, ActorCritic, Batch, PpoConfig, PpoStats,
    RolloutBuffer,
};
use nptsn_scenarios::{ads, random_flows};
use nptsn_sched::ShortestPathRecovery;
use nptsn_tensor::Tensor;
use nptsn_topo::ComponentLibrary;

/// The sequential PPO update: the reference for the threaded one.
fn reference_update(
    model: &PolicyNetwork,
    actor_opt: &mut Adam,
    critic_opt: &mut Adam,
    batch: &Batch<Observation>,
    cfg: &PpoConfig,
) -> PpoStats {
    let n = batch.len();
    let adv = Tensor::from_vec(1, n, batch.advantages.clone());
    let old_logp = Tensor::from_vec(1, n, batch.old_log_probs.clone());
    let ret = Tensor::from_vec(1, n, batch.returns.clone());

    let mut policy_loss = 0.0;
    let mut approx_kl = 0.0;
    let mut entropy = 0.0;
    let mut policy_iters = 0;
    for _ in 0..cfg.train_pi_iters {
        let (new_logp, ent) = batch_log_probs(model, batch);
        let ratio = new_logp.sub(&old_logp).exp();
        let surr = ratio.mul(&adv);
        let clipped = ratio
            .clamp(1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio)
            .mul(&adv);
        let loss = surr.minimum(&clipped).mean().neg();
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
        loss.backward();
        actor_opt.step();
        policy_iters += 1;
    }

    let mut value_loss = 0.0;
    for _ in 0..cfg.train_v_iters {
        let values = batch_values(model, batch);
        let loss = values.sub(&ret).square().mean();
        value_loss = loss.item();
        critic_opt.zero_grad();
        loss.backward();
        critic_opt.step();
    }

    PpoStats {
        policy_loss,
        value_loss,
        approx_kl,
        entropy,
        policy_iters,
    }
}

fn batch_log_probs(model: &PolicyNetwork, batch: &Batch<Observation>) -> (Tensor, f32) {
    let mut parts = Vec::with_capacity(batch.len());
    let mut entropy = 0.0;
    for ((obs, mask), &action) in batch
        .observations
        .iter()
        .zip(batch.masks.iter())
        .zip(batch.actions.iter())
    {
        let (logps, _) = model.evaluate(obs, mask);
        entropy += entropy_of_log_probs(&logps.to_vec());
        parts.push(logps.gather_cols(&[action]));
    }
    (Tensor::concat_cols(&parts), entropy / batch.len() as f32)
}

fn batch_values(model: &PolicyNetwork, batch: &Batch<Observation>) -> Tensor {
    let parts: Vec<Tensor> = batch
        .observations
        .iter()
        .zip(batch.masks.iter())
        .map(|(obs, mask)| model.evaluate(obs, mask).1)
        .collect();
    Tensor::concat_cols(&parts)
}

fn config() -> PlannerConfig {
    PlannerConfig {
        gcn_layers: 2,
        mlp_hidden: vec![32, 32],
        embedding_dim: Some(16),
        k_paths: 4,
        seed: 5,
        ..PlannerConfig::default_paper()
    }
}

fn problem() -> PlanningProblem {
    let scenario = ads();
    let flows = random_flows(&scenario.graph, 8, 3);
    PlanningProblem::new(
        Arc::clone(&scenario.graph),
        ComponentLibrary::automotive(),
        scenario.tas,
        flows,
        1e-6,
        Arc::new(ShortestPathRecovery::new()),
    )
    .unwrap()
}

/// The policy network for `problem`, built from the config's seed.
fn network(problem: &PlanningProblem, cfg: &PlannerConfig) -> PolicyNetwork {
    let gc = problem.connection_graph();
    let n = gc.node_count();
    let features = 1 + n + gc.end_stations().len() + cfg.k_paths;
    let actions = gc.switches().len() + cfg.k_paths;
    PolicyNetwork::new(cfg, n, features, actions, cfg.seed)
}

/// `steps` environment steps sampled from the untrained policy, with
/// GAE advantages, as a rollout worker collects them.
fn rollout(problem: &PlanningProblem, cfg: &PlannerConfig, steps: usize) -> Batch<Observation> {
    let net = network(problem, cfg);
    let mut rng = StdRng::seed_from_u64(steps as u64);
    let mut env = PlanningEnv::new(problem.clone(), cfg.k_paths, 1e3, 64, &mut rng);
    let mut buffer = RolloutBuffer::new(cfg.discount, cfg.gae_lambda);
    for step in 0..steps {
        let obs = env.observation().clone();
        let mask = env.mask().to_vec();
        let (logps, value) = net.evaluate(&obs, &mask);
        let (action, logp) = sample_action(&logps.to_vec(), &mut rng);
        let outcome = env.step(action, &mut rng);
        buffer.store(obs, action, mask, outcome.reward, value.item(), logp);
        if outcome.done {
            buffer.finish_path(0.0);
            env.reset(&mut rng);
        } else if step + 1 == steps {
            buffer.finish_path(net.evaluate(env.observation(), env.mask()).1.item());
        }
    }
    buffer.drain()
}

/// What one update leaves behind, as bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    stats: [u32; 4],
    policy_iters: usize,
    params: Vec<Vec<u32>>,
    grads: Vec<Vec<u32>>,
}

fn outcome(stats: PpoStats, model: &PolicyNetwork) -> Outcome {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let params = model.parameters();
    Outcome {
        stats: [
            stats.policy_loss.to_bits(),
            stats.value_loss.to_bits(),
            stats.approx_kl.to_bits(),
            stats.entropy.to_bits(),
        ],
        policy_iters: stats.policy_iters,
        params: params.iter().map(|p| bits(&p.data())).collect(),
        grads: params.iter().map(|p| bits(&p.grad())).collect(),
    }
}

/// Runs `updates` consecutive updates on fresh optimizers, from the
/// config's initial parameters, and records each one's outcome.
fn run(
    problem: &PlanningProblem,
    cfg: &PlannerConfig,
    batch: &Batch<Observation>,
    ppo: &PpoConfig,
    updates: usize,
    workers: Option<usize>,
) -> Vec<Outcome> {
    let model = network(problem, cfg);
    let mut actor_opt = Adam::new(model.actor_parameters(), cfg.actor_lr);
    let mut critic_opt = Adam::new(model.critic_parameters(), cfg.critic_lr);
    (0..updates)
        .map(|_| {
            let stats = match workers {
                None => reference_update(&model, &mut actor_opt, &mut critic_opt, batch, ppo),
                Some(workers) => {
                    ppo_update(&model, workers, &mut actor_opt, &mut critic_opt, batch, ppo)
                }
            };
            outcome(stats, &model)
        })
        .collect()
}

#[test]
fn threaded_update_matches_the_sequential_one_bit_for_bit() {
    let problem = problem();
    let base = config();
    // 64 steps running every actor iteration; 37 steps, which 2 and 3
    // threads do not divide, with a KL target and step size that stop
    // the actor loop early; and the same two on GCN-0, whose pooling
    // reads the raw features, and GCN-4.
    let cases = [
        (
            64,
            base.clone(),
            PpoConfig {
                train_pi_iters: 3,
                train_v_iters: 3,
                target_kl: 1e9,
                ..PpoConfig::default()
            },
        ),
        (
            37,
            PlannerConfig {
                actor_lr: 3e-2,
                ..base.clone()
            },
            PpoConfig {
                train_pi_iters: 4,
                train_v_iters: 2,
                target_kl: 1e-6,
                ..PpoConfig::default()
            },
        ),
        (
            48,
            PlannerConfig {
                gcn_layers: 0,
                ..base.clone()
            },
            PpoConfig {
                train_pi_iters: 3,
                train_v_iters: 3,
                target_kl: 1e9,
                ..PpoConfig::default()
            },
        ),
        (
            29,
            PlannerConfig {
                gcn_layers: 4,
                actor_lr: 3e-2,
                ..base.clone()
            },
            PpoConfig {
                train_pi_iters: 4,
                train_v_iters: 2,
                target_kl: 1e-6,
                ..PpoConfig::default()
            },
        ),
    ];
    for (steps, cfg, ppo) in &cases {
        let batch = rollout(&problem, cfg, *steps);
        assert_eq!(batch.len(), *steps);
        assert!(
            batch.masks.iter().any(|m| m.iter().any(|&valid| !valid)),
            "the batch should hold invalid actions"
        );
        let expected = run(&problem, cfg, &batch, ppo, 3, None);
        if ppo.target_kl < 1e-3 {
            for e in &expected {
                assert!(
                    e.policy_iters < ppo.train_pi_iters,
                    "the KL stop never fired"
                );
            }
        } else {
            assert!(expected
                .iter()
                .all(|e| e.policy_iters == ppo.train_pi_iters));
        }
        for workers in 1..=3 {
            let got = run(&problem, cfg, &batch, ppo, 3, Some(workers));
            for (update, (g, e)) in got.iter().zip(&expected).enumerate() {
                let at = format!("{steps} steps, {workers} workers, update {update}");
                assert_eq!(g.stats, e.stats, "stats, {at}");
                assert_eq!(g.policy_iters, e.policy_iters, "policy_iters, {at}");
                for (i, (gp, ep)) in g.params.iter().zip(&e.params).enumerate() {
                    assert!(gp == ep, "parameter {i} data, {at}");
                }
                for (i, (gg, eg)) in g.grads.iter().zip(&e.grads).enumerate() {
                    assert!(gg == eg, "parameter {i} gradient, {at}");
                }
            }
        }
    }
}
