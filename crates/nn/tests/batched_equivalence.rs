//! Seeded equivalence sweep for the batched GCN forwards: across random
//! batch sizes, graph sizes and layer stacks, the stacked training forward
//! (`Gcn::stack`, `Gcn::pooled_stack`), gradients included, and the
//! inference batch (`Gcn::pooled_many`) must give every graph the pooled
//! rows of a solo `forward`, **bit for bit** — the contract the PPO update
//! and the serve micro-batcher rely on to batch without changing a result.

use nptsn_nn::{normalized_adjacency, Gcn, GcnBatchItem, Module};
use nptsn_rand::rngs::StdRng;
use nptsn_rand::{Rng, SeedableRng};
use nptsn_tensor::Tensor;

fn random_adjacency(rng: &mut StdRng, n: usize) -> Vec<f32> {
    let mut adj = vec![0.0f32; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_range(0.0f32..1.0) < 0.4 {
                adj[i * n + j] = 1.0;
                adj[j * n + i] = 1.0;
            }
        }
    }
    adj
}

#[test]
fn stacked_training_forward_matches_solo_graphs_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x57ac_4ed0);
    for case in 0..24 {
        let feat = rng.gen_range(1usize..20);
        let layers = [0, 1, 2, 4][case % 4];
        let mut dims = vec![feat];
        for _ in 0..layers {
            dims.push(rng.gen_range(1usize..20));
        }
        let gcn = Gcn::new(&mut rng, &dims);
        let out_dim = gcn.output_dim(feat);
        let (steps, n) = (rng.gen_range(1usize..9), rng.gen_range(1usize..12));
        let ahats: Vec<Vec<f32>> =
            (0..steps).map(|_| normalized_adjacency(&random_adjacency(&mut rng, n), n)).collect();
        // Half the features are zero, as in the planner's one-hot encoding.
        let feats: Vec<Vec<f32>> = (0..steps)
            .map(|_| {
                (0..n * feat)
                    .map(|_| if rng.gen_bool(0.5) { 0.0 } else { rng.gen_range(-2.0f32..2.0) })
                    .collect()
            })
            .collect();
        let weights: Vec<f32> = (0..steps * out_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let grads = || -> Vec<Vec<u32>> {
            gcn.parameters().iter().map(|p| bits(&p.grad())).collect()
        };

        // The reference: each step's solo graph, pooled, in step order.
        let pooled: Vec<Tensor> = (0..steps)
            .map(|i| {
                let ahat = Tensor::from_vec(n, n, ahats[i].clone());
                let h = Tensor::from_vec(n, feat, feats[i].clone());
                gcn.forward(&ahat, &h).mean_rows()
            })
            .collect();
        let reference = Tensor::concat_rows(&pooled);
        let loss = |t: &Tensor| t.mul(&Tensor::from_vec(steps, out_dim, weights.clone())).sum();
        for p in gcn.parameters() {
            p.zero_grad();
        }
        if layers > 0 {
            loss(&reference).backward();
        }
        let expected = (reference.to_vec(), grads());

        // The inference batch, in step order.
        let items: Vec<GcnBatchItem<'_>> =
            (0..steps).map(|i| GcnBatchItem { ahat: &ahats[i], n, h: &feats[i] }).collect();
        let inferred = gcn.pooled_many(&items);
        let at = format!("case {case}: dims {dims:?}, {steps} steps of {n} nodes");
        assert_eq!(bits(&inferred.to_vec()), bits(&expected.0), "inference, {at}");
        assert!(!inferred.requires_grad(), "inference keeps no graph, {at}");

        // The stack, last step first, on 1, 2 and 3 threads.
        for threads in 1..=3 {
            let items: Vec<GcnBatchItem<'_>> = (0..steps)
                .rev()
                .map(|i| GcnBatchItem { ahat: &ahats[i], n, h: &feats[i] })
                .collect();
            let stacked = gcn.pooled_stack(&gcn.stack(&items, threads)).reverse_rows();
            for p in gcn.parameters() {
                p.zero_grad();
            }
            if layers > 0 {
                loss(&stacked).backward();
            }
            let at = format!("case {case}: dims {dims:?}, {steps} steps of {n} nodes, {threads} threads");
            assert_eq!(bits(&stacked.to_vec()), bits(&expected.0), "forward, {at}");
            assert_eq!(grads(), expected.1, "gradients, {at}");
        }
    }
}
