//! Randomized gradient checking: random compositions of tensor
//! operations must match central-difference estimates.
//!
//! Formerly proptest-based; now seeded deterministic sweeps driven by
//! `nptsn-rand` so the workspace needs no external dev-dependencies.

use nptsn_rand::rngs::StdRng;
use nptsn_rand::{Rng, SeedableRng};
use nptsn_tensor::{numeric_gradient, Tensor};

const CASES: u64 = 64;

/// Values kept away from the kinks of relu/clamp/minimum so finite
/// differences stay valid: grid points `v * 0.1 + 0.05` for `v` in
/// `-20..20`, excluding anything within 0.02 of zero.
fn smooth_values(rng: &mut StdRng, n: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = rng.gen_range(-20i64..20) as f32;
        let x = v * 0.1 + 0.05;
        if x.abs() > 0.02 {
            out.push(x);
        }
    }
    out
}

fn check(rows: usize, cols: usize, x0: &[f32], build: impl Fn(&Tensor) -> Tensor) {
    let p = Tensor::param(rows, cols, x0.to_vec());
    let loss = build(&p);
    loss.backward();
    let analytic = p.grad();
    let numeric = numeric_gradient(x0, 1e-2, |x| {
        let q = Tensor::param(rows, cols, x.to_vec());
        build(&q).item()
    });
    for (i, (a, n)) in analytic.iter().zip(numeric.iter()).enumerate() {
        let tol = 2e-2 * (1.0 + n.abs());
        assert!(
            (a - n).abs() < tol,
            "grad mismatch at element {i}: analytic {a}, numeric {n}"
        );
    }
}

#[test]
fn mlp_like_composition() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(gradcheck_base(0) + case);
        let x0 = smooth_values(&mut rng, 6);
        let w = smooth_values(&mut rng, 6);
        let b = smooth_values(&mut rng, 2);
        check(2, 3, &x0, |p| {
            let w = Tensor::from_vec(3, 2, w.clone());
            let b = Tensor::from_vec(1, 2, b.clone());
            p.matmul(&w).add(&b).tanh().square().mean()
        });
    }
}

#[test]
fn gcn_like_composition() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(gradcheck_base(1) + case);
        let x0 = smooth_values(&mut rng, 9);
        let w = smooth_values(&mut rng, 6);
        check(3, 3, &x0, |p| {
            // Symmetric "normalized adjacency" constant. Uses tanh rather
            // than the GCN's relu: the matmul chain can land intermediate
            // values arbitrarily close to relu's kink, where central
            // differences are invalid regardless of the input filtering
            // (relu's gradient is covered by the deterministic unit
            // gradchecks at kink-safe probe points).
            let ahat = Tensor::from_vec(
                3,
                3,
                vec![0.5, 0.3, 0.2, 0.3, 0.4, 0.3, 0.2, 0.3, 0.5],
            );
            let w = Tensor::from_vec(3, 2, w.clone());
            ahat.matmul(p).matmul(&w).tanh().mean_rows().square().sum()
        });
    }
}

#[test]
fn policy_like_composition() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(gradcheck_base(2) + case);
        let x0 = smooth_values(&mut rng, 8);
        check(2, 4, &x0, |p| p.log_softmax_rows().gather_cols(&[1, 3]).mean().neg());
    }
}

#[test]
fn masked_logits_composition() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(gradcheck_base(3) + case);
        let x0 = smooth_values(&mut rng, 4);
        // Masking via a large negative constant addend, as the RL decision
        // maker does for invalid actions.
        check(1, 4, &x0, |p| {
            let mask = Tensor::from_vec(1, 4, vec![0.0, -1e4, 0.0, 0.0]);
            p.add(&mask).log_softmax_rows().gather_cols(&[2]).sum()
        });
    }
}

#[test]
fn tanh_exp_chain() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(gradcheck_base(4) + case);
        let x0 = smooth_values(&mut rng, 5);
        check(1, 5, &x0, |p| p.tanh().exp().mean());
    }
}

#[test]
fn sub_scale_chain() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(gradcheck_base(5) + case);
        let x0 = smooth_values(&mut rng, 6);
        check(3, 2, &x0, |p| {
            let c = Tensor::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
            p.sub(&c).scale(1.7).square().sum()
        });
    }
}

/// backward() twice without zero_grad doubles the gradient exactly.
#[test]
fn accumulation_is_linear() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(gradcheck_base(6) + case);
        let x0 = smooth_values(&mut rng, 4);
        let p = Tensor::param(2, 2, x0.clone());
        p.square().mean().backward();
        let once = p.grad();
        p.square().mean().backward();
        let twice = p.grad();
        for (a, b) in once.iter().zip(twice.iter()) {
            assert!((2.0 * a - b).abs() < 1e-6);
        }
    }
}

/// Distinct seed block per test so cases never overlap across tests.
const fn gradcheck_base(test: u64) -> u64 {
    0x67d0_0000 + test * 0x1000
}
