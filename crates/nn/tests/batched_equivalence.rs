//! Seeded equivalence sweep for the fused batched GCN forward: across
//! random batch sizes, topology sizes and layer stacks, `try_forward_many`
//! must produce outputs **bitwise identical** to K independent solo
//! `forward` calls — the contract the serve micro-batcher relies on to
//! coalesce infer jobs without changing their answers. The stacked
//! training forward (`Gcn::stack`, `Gcn::pooled_stack`) is pinned the
//! same way, gradients included.

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
fn batched_forward_bit_identical_to_solo_forwards() {
    let mut rng = StdRng::seed_from_u64(0xba7c_4ed0);
    for case in 0..30 {
        let feat = rng.gen_range(1usize..8);
        let layers = rng.gen_range(0usize..3);
        let mut dims = vec![feat];
        for _ in 0..layers {
            dims.push(rng.gen_range(1usize..12));
        }
        let gcn = Gcn::new(&mut rng, &dims);

        let batch = rng.gen_range(1usize..7);
        let mut ahats = Vec::with_capacity(batch);
        let mut feats = Vec::with_capacity(batch);
        let mut sizes = Vec::with_capacity(batch);
        for _ in 0..batch {
            let n = rng.gen_range(1usize..10);
            ahats.push(normalized_adjacency(&random_adjacency(&mut rng, n), n));
            feats.push(
                (0..n * feat)
                    .map(|_| rng.gen_range(-2.0f32..2.0))
                    .collect::<Vec<f32>>(),
            );
            sizes.push(n);
        }

        let items: Vec<GcnBatchItem<'_>> = (0..batch)
            .map(|i| GcnBatchItem { ahat: &ahats[i], n: sizes[i], h: &feats[i] })
            .collect();
        let out = gcn.try_forward_many(&items).expect("well-shaped batch");
        assert_eq!(out.items(), batch);
        assert_eq!(out.out_dim, gcn.output_dim(feat));

        for i in 0..batch {
            let ahat = Tensor::from_vec(sizes[i], sizes[i], ahats[i].clone());
            let h = Tensor::from_vec(sizes[i], feat, feats[i].clone());
            let solo = gcn.forward(&ahat, &h).to_vec();
            // Bitwise equality — not even the last ulp may move.
            assert_eq!(
                out.block(i),
                solo.as_slice(),
                "case {case}: item {i} (n={}, dims={dims:?}, batch={batch})",
                sizes[i]
            );
            assert_eq!(out.block_rows(i), sizes[i]);
        }
    }
}

#[test]
fn try_forward_many_rejects_bad_shapes_per_item() {
    let mut rng = StdRng::seed_from_u64(1);
    let gcn = Gcn::new(&mut rng, &[3, 4]);
    let ahat = normalized_adjacency(&[0.0; 4], 2);
    let good = [0.5f32; 6];
    let short = [0.5f32; 5];
    let ok = GcnBatchItem { ahat: &ahat, n: 2, h: &good };
    assert!(gcn.try_forward_many(&[ok]).is_ok());
    let bad = GcnBatchItem { ahat: &ahat, n: 2, h: &short };
    let err = gcn.try_forward_many(&[ok, bad]).unwrap_err();
    assert!(err.to_string().contains("item 1"), "got: {err}");
    // Adjacency length mismatch is caught too.
    let bad_adj = GcnBatchItem { ahat: &ahat[..3], n: 2, h: &good };
    assert!(gcn.try_forward_many(&[bad_adj]).is_err());
}

#[test]
fn empty_batch_is_ok_and_empty() {
    let mut rng = StdRng::seed_from_u64(2);
    let gcn = Gcn::new(&mut rng, &[3, 4]);
    let out = gcn.try_forward_many(&[]).unwrap();
    assert_eq!(out.items(), 0);
    assert!(out.data.is_empty());
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
