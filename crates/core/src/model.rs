//! The GCN + actor/critic policy network (Fig. 3).

use nptsn_nn::{Activation, Gcn, GcnBatchItem, GcnStack, Mlp, Module, ShapeError};
use nptsn_rl::{masked_log_probs, ActorCritic, Batch, Head, StackedSteps};
use nptsn_tensor::Tensor;
use nptsn_rand::rngs::StdRng;
use nptsn_rand::SeedableRng;

use crate::config::PlannerConfig;
use crate::encode::{Observation, AUX_LEN};
use crate::error::NptsnError;

/// Logit offset for masked actions, identical to the one
/// `nptsn_rl::masked_log_probs` applies (NeuroPlan's −1e9 technique).
const MASK_OFFSET: f32 = -1e9;

/// The RL decision maker's neural networks: a GCN extracting a graph
/// embedding from the encoded TSSDN, mean-pooled and concatenated with the
/// auxiliary parameter vector, feeding an actor MLP (action logits) and a
/// critic MLP (value estimate).
///
/// Not `Send`: tensors are `Rc`-based. Parallel rollout workers construct
/// their own replica (same seed) and synchronize values with
/// [`export_params`](nptsn_nn::export_params) /
/// [`import_params`](nptsn_nn::import_params).
#[derive(Debug)]
pub struct PolicyNetwork {
    gcn: Gcn,
    actor: Mlp,
    critic: Mlp,
    node_count: usize,
    feature_count: usize,
}

impl PolicyNetwork {
    /// Builds the network for a problem with `node_count` candidate nodes,
    /// `feature_count` node features and `action_count` action slots,
    /// deterministically from `seed`.
    pub fn new(
        config: &PlannerConfig,
        node_count: usize,
        feature_count: usize,
        action_count: usize,
        seed: u64,
    ) -> PolicyNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let emb = config.embedding_dim_for(node_count);
        // GCN dims: feature_count -> emb -> ... (gcn_layers times).
        let mut dims = vec![feature_count];
        dims.extend(std::iter::repeat_n(emb, config.gcn_layers));
        let gcn = Gcn::new(&mut rng, &dims);
        let pooled = gcn.output_dim(feature_count) + AUX_LEN;
        let mut actor_sizes = vec![pooled];
        actor_sizes.extend_from_slice(&config.mlp_hidden);
        actor_sizes.push(action_count);
        let actor = Mlp::new(&mut rng, &actor_sizes, Activation::Tanh, Activation::Identity);
        let mut critic_sizes = vec![pooled];
        critic_sizes.extend_from_slice(&config.mlp_hidden);
        critic_sizes.push(1);
        let critic = Mlp::new(&mut rng, &critic_sizes, Activation::Tanh, Activation::Identity);
        PolicyNetwork { gcn, actor, critic, node_count, feature_count }
    }

    /// The GCN embedding + auxiliary input for one observation.
    fn embed(&self, obs: &Observation) -> Tensor {
        debug_assert_eq!(obs.node_count, self.node_count);
        debug_assert_eq!(obs.feature_count, self.feature_count);
        let ahat = Tensor::from_vec(obs.node_count, obs.node_count, obs.ahat.clone());
        let h = Tensor::from_vec(obs.node_count, obs.feature_count, obs.features.clone());
        let node_embeddings = self.gcn.forward(&ahat, &h);
        let graph_embedding = node_embeddings.mean_rows();
        let aux = Tensor::from_vec(1, obs.aux.len(), obs.aux.clone());
        Tensor::concat_cols(&[graph_embedding, aux])
    }

    /// Parameters trained by the actor update: GCN + actor MLP
    /// (Algorithm 2 line 20).
    pub fn actor_parameters(&self) -> Vec<Tensor> {
        let mut p = self.gcn.parameters();
        p.extend(self.actor.parameters());
        p
    }

    /// Parameters trained by the critic update: GCN + critic MLP
    /// (Algorithm 2 line 21; the GCN is updated twice per epoch).
    pub fn critic_parameters(&self) -> Vec<Tensor> {
        let mut p = self.gcn.parameters();
        p.extend(self.critic.parameters());
        p
    }

    /// Number of candidate nodes this network was built for.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The deployment forward: evaluates K `(observation, mask)` pairs in
    /// one pass and returns each pair's action log-probabilities exactly
    /// as [`ActorCritic::evaluate`] would. It returns no value: greedy
    /// planning reads none, so the critic head does not run.
    ///
    /// The K GCNs run graph by graph on the calling thread, pooled, with
    /// no autograd graph ([`Gcn::pooled_many`]); the actor MLP runs once on
    /// the K stacked pooled embeddings (its layers are row-independent)
    /// and the mask/log-softmax applies row-wise — every step reuses the
    /// solo path's kernels on the same per-row data, so the log-probs are
    /// **bitwise identical** to K solo `evaluate` calls (pinned by this
    /// crate's equivalence tests). This is the inference path: the solo
    /// re-plan ([`Planner::plan_with_policy`], one item per call) and the
    /// served batch ([`plan_with_policy_batch`]) both evaluate here.
    ///
    /// [`Planner::plan_with_policy`]: crate::Planner::plan_with_policy
    /// [`plan_with_policy_batch`]: crate::plan_with_policy_batch
    ///
    /// # Errors
    ///
    /// Any shape mismatch or all-false mask fails the whole call with an
    /// [`NptsnError`] naming the item (the serve micro-batcher
    /// pre-validates per job, so one bad job never reaches this point
    /// alongside good ones).
    pub fn try_evaluate_many(
        &self,
        batch: &[(&Observation, &[bool])],
    ) -> Result<Vec<Vec<f32>>, NptsnError> {
        let Some((_, mask)) = batch.first() else {
            return Ok(Vec::new());
        };
        let (n, f, actions) = (self.node_count, self.feature_count, mask.len());
        for (i, (obs, mask)) in batch.iter().enumerate() {
            let (on, of) = (obs.node_count, obs.feature_count);
            let detail = if (on, of) != (n, f) {
                format!("observation is {on} x {of}, network expects {n} x {f}")
            } else if obs.ahat.len() != n * n {
                format!("adjacency has {} entries, expected {n} x {n}", obs.ahat.len())
            } else if obs.features.len() != n * f {
                format!("features have {} entries, expected {n} x {f}", obs.features.len())
            } else if obs.aux.len() != AUX_LEN {
                format!("aux has {} entries, expected {AUX_LEN}", obs.aux.len())
            } else if mask.len() != actions {
                format!("mask has {} bits, item 0 has {actions}", mask.len())
            } else if !mask.contains(&true) {
                "all actions masked; the episode must reset".to_string()
            } else {
                continue;
            };
            let detail = format!("item {i}: {detail}");
            return Err(ShapeError { op: "evaluate_many", detail }.into());
        }
        let items: Vec<GcnBatchItem<'_>> = batch
            .iter()
            .map(|(obs, _)| GcnBatchItem { ahat: &obs.ahat, n, h: &obs.features })
            .collect();
        let aux = batch.iter().flat_map(|(obs, _)| obs.aux.iter().copied()).collect();
        let aux = Tensor::from_vec(batch.len(), AUX_LEN, aux);
        let input = Tensor::concat_cols(&[self.gcn.pooled_many(&items), aux]);
        let masks = mask_offsets(batch.iter().map(|(_, mask)| *mask));
        let log_probs = self.head_rows(Head::Actor, &input, &masks, 1);
        let rows = log_probs.data().chunks_exact(actions).map(<[f32]>::to_vec).collect();
        Ok(rows)
    }

    /// One head on stacked rows of pooled embeddings and auxiliary vectors,
    /// its products split by rows over `threads` threads: the actor's
    /// log-probabilities under the mask offsets `masks`, or the critic's
    /// values. Every op is row-local, so each row has the bits a solo
    /// [`ActorCritic::evaluate`] gives its observation.
    fn head_rows(&self, head: Head, input: &Tensor, masks: &Tensor, threads: usize) -> Tensor {
        match head {
            Head::Actor => self.actor.forward_rows(input, threads).add(masks).log_softmax_rows(),
            Head::Critic => self.critic.forward_rows(input, threads),
        }
    }
}

/// The `(K, actions)` logit offsets of K masks: 0 for a valid action,
/// [`MASK_OFFSET`] for a masked one, as `masked_log_probs` adds them.
fn mask_offsets<'m>(masks: impl ExactSizeIterator<Item = &'m [bool]>) -> Tensor {
    let rows = masks.len();
    let offsets: Vec<f32> = masks
        .flat_map(|mask| mask.iter().map(|&m| if m { 0.0 } else { MASK_OFFSET }))
        .collect();
    Tensor::from_vec(rows, offsets.len() / rows, offsets)
}

/// One PPO update's observations on the GCN's block layout
/// ([`Gcn::stack`]), stacked from the last step to the first.
///
/// Every stacked op of the forward gives each row the bits a solo
/// [`ActorCritic::evaluate`] gives its step, as
/// [`try_evaluate_many`](PolicyNetwork::try_evaluate_many) does. In the backward,
/// the GCN adds its weight gradients block by block, and each head's
/// weights ([`Mlp::forward_rows`]) and biases sum the stacked rows' terms,
/// all in ascending order from a cleared gradient: with the last step on
/// top, that is the order a backward over the per-step graphs adds the
/// steps' contributions in. The output rows are put back in step order at
/// the end.
struct StackedObservations<'a> {
    net: &'a PolicyNetwork,
    gcn: GcnStack,
    threads: usize,
    /// Each step's auxiliary vector, `(steps, AUX_LEN)`.
    aux: Tensor,
    /// Each step's mask offsets, `(steps, actions)`.
    masks: Tensor,
}

impl StackedSteps for StackedObservations<'_> {
    fn forward(&self, head: Head) -> Tensor {
        let pooled = self.net.gcn.pooled_stack(&self.gcn);
        let input = Tensor::concat_cols(&[pooled, self.aux.clone()]);
        let rows = self.net.head_rows(head, &input, &self.masks, self.threads);
        rows.reverse_rows()
    }
}

impl Module for PolicyNetwork {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.gcn.parameters();
        p.extend(self.actor.parameters());
        p.extend(self.critic.parameters());
        p
    }
}

impl ActorCritic<Observation> for PolicyNetwork {
    fn evaluate(&self, obs: &Observation, mask: &[bool]) -> (Tensor, Tensor) {
        let input = self.embed(obs);
        let logits = self.actor.forward(&input);
        let value = self.critic.forward(&input);
        (masked_log_probs(&logits, mask), value)
    }

    /// The batched training forward: one GCN over every step's graph on
    /// the block layout, its kernels split over `threads` threads, and
    /// each MLP head once on the stacked pooled rows
    /// (`StackedObservations`).
    fn stack_steps<'a>(
        &'a self,
        batch: &'a Batch<Observation>,
        threads: usize,
    ) -> Box<dyn StackedSteps + 'a> {
        let last_first = || batch.observations.iter().rev();
        let items: Vec<GcnBatchItem<'_>> = last_first()
            .map(|obs| GcnBatchItem { ahat: &obs.ahat, n: obs.node_count, h: &obs.features })
            .collect();
        let aux = last_first().flat_map(|obs| obs.aux.iter().copied()).collect();
        Box::new(StackedObservations {
            net: self,
            gcn: self.gcn.stack(&items, threads),
            threads,
            aux: Tensor::from_vec(batch.len(), AUX_LEN, aux),
            masks: mask_offsets(batch.masks.iter().rev().map(Vec::as_slice)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_nn::{export_params, import_params};

    fn toy_obs(n: usize, f: usize) -> Observation {
        let mut ahat = vec![0.0f32; n * n];
        for i in 0..n {
            ahat[i * n + i] = 1.0;
        }
        Observation {
            node_count: n,
            feature_count: f,
            ahat,
            features: (0..n * f).map(|i| (i % 7) as f32 * 0.1).collect(),
            aux: vec![0.5; AUX_LEN],
        }
    }

    fn toy_config() -> PlannerConfig {
        PlannerConfig {
            mlp_hidden: vec![16, 16],
            embedding_dim: Some(8),
            ..PlannerConfig::default()
        }
    }

    #[test]
    fn evaluate_produces_masked_distribution_and_value() {
        let cfg = toy_config();
        let net = PolicyNetwork::new(&cfg, 4, 10, 6, 0);
        let obs = toy_obs(4, 10);
        let mask = vec![true, false, true, true, false, true];
        let (logps, value) = net.evaluate(&obs, &mask);
        assert_eq!(logps.shape(), (1, 6));
        assert_eq!(value.shape(), (1, 1));
        let p: Vec<f32> = logps.to_vec().iter().map(|x| x.exp()).collect();
        assert!(p[1] < 1e-12 && p[4] < 1e-12);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert_eq!(net.node_count(), 4);
    }

    #[test]
    fn same_seed_same_network() {
        let cfg = toy_config();
        let a = PolicyNetwork::new(&cfg, 4, 10, 6, 7);
        let b = PolicyNetwork::new(&cfg, 4, 10, 6, 7);
        let obs = toy_obs(4, 10);
        let mask = vec![true; 6];
        assert_eq!(a.evaluate(&obs, &mask).0.to_vec(), b.evaluate(&obs, &mask).0.to_vec());
    }

    #[test]
    fn param_transfer_replicates_behavior() {
        let cfg = toy_config();
        let a = PolicyNetwork::new(&cfg, 4, 10, 6, 1);
        let b = PolicyNetwork::new(&cfg, 4, 10, 6, 2);
        let obs = toy_obs(4, 10);
        let mask = vec![true; 6];
        assert_ne!(a.evaluate(&obs, &mask).0.to_vec(), b.evaluate(&obs, &mask).0.to_vec());
        import_params(&b.parameters(), &export_params(&a.parameters()));
        assert_eq!(a.evaluate(&obs, &mask).0.to_vec(), b.evaluate(&obs, &mask).0.to_vec());
    }

    #[test]
    fn gcn_is_shared_between_heads() {
        let cfg = toy_config();
        let net = PolicyNetwork::new(&cfg, 3, 8, 4, 0);
        let actor_p = net.actor_parameters();
        let critic_p = net.critic_parameters();
        // The two GCN layers appear in both lists (same underlying data).
        assert_eq!(cfg.gcn_layers, 2);
        for i in 0..cfg.gcn_layers {
            let before = actor_p[i].to_vec();
            assert_eq!(before, critic_p[i].to_vec());
            actor_p[i].set_data(&vec![0.123; actor_p[i].len()]);
            assert_eq!(critic_p[i].to_vec(), vec![0.123; critic_p[i].len()]);
        }
    }

    #[test]
    fn evaluate_many_bit_identical_to_solo_evaluates() {
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // GCN-0 (Fig. 5a) and the default two layers.
        for gcn_layers in [0, 2] {
            let cfg = PlannerConfig { gcn_layers, ..toy_config() };
            let net = PolicyNetwork::new(&cfg, 4, 10, 6, 3);
            // Distinct observations and masks per lane.
            let mut observations = Vec::new();
            let mut masks = Vec::new();
            for lane in 0..5usize {
                let mut obs = toy_obs(4, 10);
                obs.features.iter_mut().for_each(|v| *v += lane as f32 * 0.01);
                observations.push(obs);
                let mut mask = vec![true; 6];
                mask[lane % 6] = false;
                masks.push(mask);
            }
            let batch: Vec<(&Observation, &[bool])> = observations
                .iter()
                .zip(&masks)
                .map(|(o, m)| (o, m.as_slice()))
                .collect();
            let many = net.try_evaluate_many(&batch).expect("well-shaped batch");
            assert_eq!(many.len(), 5);
            for (i, (obs, mask)) in batch.iter().enumerate() {
                let solo = bits(&net.evaluate(obs, mask).0.to_vec());
                // Bitwise equality with the solo path, alone in its call
                // (the greedy re-plan's call) and in the batch.
                let alone = net.try_evaluate_many(&batch[i..=i]).expect("well-shaped item");
                let at = format!("{gcn_layers} GCN layers, lane {i}");
                assert_eq!(bits(&many[i]), solo, "{at}: in the batch");
                assert_eq!(bits(&alone[0]), solo, "{at}: alone");
            }
        }
    }

    #[test]
    fn try_evaluate_many_isolates_bad_items() {
        let cfg = toy_config();
        let net = PolicyNetwork::new(&cfg, 4, 10, 6, 3);
        let obs = toy_obs(4, 10);
        let good: &[bool] = &[true; 6];
        assert!(net.try_evaluate_many(&[(&obs, good)]).is_ok());
        // All-false mask rejected with the item index.
        let all_false: &[bool] = &[false; 6];
        let err = net.try_evaluate_many(&[(&obs, good), (&obs, all_false)]).unwrap_err();
        assert!(err.to_string().contains("item 1"), "got: {err}");
        // Wrong node count rejected.
        let small = toy_obs(3, 10);
        assert!(net.try_evaluate_many(&[(&small, good)]).is_err());
        // An adjacency or features shorter than the node count says are
        // rejected with the item index, before any kernel reads them.
        let mut short_ahat = toy_obs(4, 10);
        short_ahat.ahat.pop();
        let err = net.try_evaluate_many(&[(&obs, good), (&short_ahat, good)]).unwrap_err();
        assert!(err.to_string().contains("item 1: adjacency"), "got: {err}");
        let mut short_features = toy_obs(4, 10);
        short_features.features.truncate(39);
        let err = net.try_evaluate_many(&[(&obs, good), (&short_features, good)]).unwrap_err();
        assert!(err.to_string().contains("item 1: features"), "got: {err}");
        // Empty batch is a no-op.
        assert!(net.try_evaluate_many(&[]).unwrap().is_empty());
    }

    #[test]
    fn zero_layer_gcn_supported() {
        let cfg = PlannerConfig { gcn_layers: 0, ..toy_config() };
        let net = PolicyNetwork::new(&cfg, 4, 10, 6, 0);
        let obs = toy_obs(4, 10);
        let (logps, _) = net.evaluate(&obs, &[true; 6]);
        assert_eq!(logps.cols(), 6);
        // Actor parameters = 0 GCN weights + 3 Linear layers x 2.
        assert_eq!(net.actor_parameters().len(), 6);
    }
}
