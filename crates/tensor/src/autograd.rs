//! The reverse-mode backward pass.

use std::collections::HashSet;
use std::rc::Rc;

use crate::{kernels, recycle};
use crate::ops::{Broadcast, Op};
use crate::tensor::Tensor;

impl Tensor {
    /// Backpropagates from this scalar, accumulating gradients into every
    /// reachable tensor with `requires_grad`.
    ///
    /// Gradients *accumulate* in leaves: call
    /// [`zero_grad`](Tensor::zero_grad) on the parameters (or rebuild them)
    /// between independent backward passes. Only leaves keep a gradient:
    /// each intermediate tensor's gradient is moved out as it is
    /// propagated, so [`grad`](Tensor::grad) on a non-leaf (this loss
    /// included) reads zeros afterwards.
    ///
    /// Nodes are visited in reverse DFS post-order from the loss, an op's
    /// inputs in the order it takes them, and every contribution is added
    /// into its target's gradient, which starts at `+0.0`. So when several
    /// graphs reach the loss through one [`concat_rows`](Tensor::concat_rows)
    /// or [`concat_cols`](Tensor::concat_cols), a parameter they share
    /// takes the last graph's contribution first.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not `(1, 1)` or does not require
    /// gradients (no parameter is reachable).
    ///
    /// # Examples
    ///
    /// ```
    /// use nptsn_tensor::Tensor;
    ///
    /// let w = Tensor::param(1, 1, vec![3.0]);
    /// let loss = w.square().scale(0.5); // d/dw 0.5 w^2 = w
    /// loss.backward();
    /// assert_eq!(w.grad(), vec![3.0]);
    /// ```
    pub fn backward(&self) {
        assert_eq!(self.shape(), (1, 1), "backward starts from a scalar loss");
        assert!(self.requires_grad(), "backward requires a graph with at least one parameter");
        let mut order = Vec::new();
        topo_visit(self, &mut HashSet::new(), &mut order);
        self.accumulate_grad(&[1.0]);
        for t in order.iter().rev() {
            if matches!(t.node.op, Op::Leaf) {
                continue;
            }
            // Every consumer of `t` comes earlier in this order, so its
            // gradient is complete: move it out rather than copy it.
            let grad = std::mem::take(&mut *t.node.grad.borrow_mut());
            if grad.is_empty() {
                continue;
            }
            propagate(t, &grad);
            recycle::give_back(grad);
        }
    }
}

fn node_key(t: &Tensor) -> usize {
    Rc::as_ptr(&t.node) as usize
}

fn topo_visit(t: &Tensor, visited: &mut HashSet<usize>, order: &mut Vec<Tensor>) {
    if !t.requires_grad() {
        return;
    }
    if !visited.insert(node_key(t)) {
        return;
    }
    for child in t.node.op.children() {
        topo_visit(child, visited, order);
    }
    order.push(t.clone());
}

/// Sums `grad` (shaped like `lhs`) down to the broadcast shape of the rhs.
fn reduce_broadcast(grad: &[f32], lhs_cols: usize, broadcast: Broadcast) -> Vec<f32> {
    match broadcast {
        Broadcast::None => grad.to_vec(),
        Broadcast::Scalar => vec![grad.iter().sum()],
        Broadcast::Row => {
            let mut out = vec![0.0f32; lhs_cols];
            for row in grad.chunks_exact(lhs_cols) {
                kernels::acc_in_place(&mut out, row);
            }
            out
        }
    }
}

/// Expands a broadcast rhs value to index `i` of the lhs layout.
fn rhs_at(rhs: &[f32], i: usize, lhs_cols: usize, broadcast: Broadcast) -> f32 {
    match broadcast {
        Broadcast::None => rhs[i],
        Broadcast::Scalar => rhs[0],
        Broadcast::Row => rhs[i % lhs_cols],
    }
}

/// `t`'s data transposed.
fn transposed(t: &Tensor) -> Vec<f32> {
    kernels::transpose(&t.data(), t.rows(), t.cols())
}

/// `da = g · bᵀ` for `g (m, n)`, given `bt = bᵀ (n, k)`: a kernel matmul.
/// Every element sums `g[i][j] · b[p][j]` in ascending `j` from `+0.0`, as
/// the textbook dot-product loop does, so the result is bitwise identical
/// to it; skipping the zeros of `g` is exact for a finite `b` (see
/// [`kernels::matmul`]). Split by rows of `da` over `threads` threads.
fn matmul_grad_a(
    g: &[f32],
    bt: &[f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) -> Vec<f32> {
    let mut da = recycle::overwritten(m * k);
    kernels::matmul_split(threads, g, bt, &mut da, n, k);
    da
}

/// `db = aᵀ · g` for `g (m, n)`, given `at = aᵀ (k, m)`: a kernel matmul.
/// Every element sums `a[i][p] · g[i][j]` in ascending `i` and skips the
/// zeros of `a`, exactly as the textbook loop does, so the result is
/// bitwise identical to it. Split by rows of `db` over `threads` threads.
fn matmul_grad_b(
    at: &[f32],
    g: &[f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) -> Vec<f32> {
    let mut db = recycle::overwritten(k * n);
    kernels::matmul_split(threads, at, g, &mut db, m, n);
    db
}

fn propagate(t: &Tensor, grad: &[f32]) {
    match &t.node.op {
        Op::Leaf => {}
        Op::Add(a, b, bc) => {
            if a.requires_grad() {
                a.accumulate_grad(grad);
            }
            if b.requires_grad() {
                b.accumulate_owned_grad(reduce_broadcast(grad, a.cols(), *bc));
            }
        }
        Op::Sub(a, b, bc) => {
            if a.requires_grad() {
                a.accumulate_grad(grad);
            }
            if b.requires_grad() {
                let mut r = reduce_broadcast(grad, a.cols(), *bc);
                for g in &mut r {
                    *g = -*g;
                }
                b.accumulate_owned_grad(r);
            }
        }
        Op::Mul(a, b, bc) => {
            if a.requires_grad() {
                let bd = b.data();
                let da: Vec<f32> = grad
                    .iter()
                    .enumerate()
                    .map(|(i, &g)| g * rhs_at(&bd, i, a.cols(), *bc))
                    .collect();
                drop(bd);
                a.accumulate_owned_grad(da);
            }
            if b.requires_grad() {
                let ad = a.data();
                let scaled: Vec<f32> =
                    grad.iter().zip(ad.iter()).map(|(&g, &x)| g * x).collect();
                drop(ad);
                b.accumulate_owned_grad(reduce_broadcast(&scaled, a.cols(), *bc));
            }
        }
        Op::MatMul(a, b, threads) => {
            let (m, k) = a.shape();
            let n = b.cols();
            if a.requires_grad() {
                a.accumulate_sum_grad(matmul_grad_a(grad, &transposed(b), m, k, n, *threads));
            }
            if b.requires_grad() {
                b.accumulate_sum_grad(matmul_grad_b(&transposed(a), grad, m, k, n, *threads));
            }
        }
        Op::Scale(a, f) => {
            if a.requires_grad() {
                let da: Vec<f32> = grad.iter().map(|&g| g * f).collect();
                a.accumulate_owned_grad(da);
            }
        }
        Op::Neg(a) => {
            if a.requires_grad() {
                let da: Vec<f32> = grad.iter().map(|&g| -g).collect();
                a.accumulate_owned_grad(da);
            }
        }
        Op::Relu(a) => {
            if a.requires_grad() {
                let mut da = recycle::copied(grad);
                for (d, &x) in da.iter_mut().zip(a.data().iter()) {
                    *d = if x > 0.0 { *d } else { 0.0 };
                }
                a.accumulate_owned_grad(da);
            }
        }
        Op::Tanh(a) => {
            if a.requires_grad() {
                let mut da = recycle::copied(grad);
                for (d, &y) in da.iter_mut().zip(t.node.data.borrow().iter()) {
                    *d *= 1.0 - y * y;
                }
                a.accumulate_owned_grad(da);
            }
        }
        Op::Exp(a) => {
            if a.requires_grad() {
                let y = t.node.data.borrow();
                let da: Vec<f32> = grad.iter().zip(y.iter()).map(|(&g, &y)| g * y).collect();
                drop(y);
                a.accumulate_owned_grad(da);
            }
        }
        Op::Sum(a) => {
            if a.requires_grad() {
                a.accumulate_owned_grad(vec![grad[0]; a.len()]);
            }
        }
        Op::Mean(a) => {
            if a.requires_grad() {
                a.accumulate_owned_grad(vec![grad[0] / a.len() as f32; a.len()]);
            }
        }
        Op::MeanRows(a) => {
            if a.requires_grad() {
                let (m, n) = a.shape();
                let mut da = vec![0.0f32; m * n];
                for i in 0..m {
                    for (j, &g) in grad.iter().enumerate() {
                        da[i * n + j] = g / m as f32;
                    }
                }
                a.accumulate_owned_grad(da);
            }
        }
        Op::LogSoftmaxRows(a) => {
            if a.requires_grad() {
                let (m, n) = a.shape();
                let y = t.node.data.borrow();
                let mut da = vec![0.0f32; m * n];
                for i in 0..m {
                    let gsum: f32 = grad[i * n..(i + 1) * n].iter().sum();
                    for j in 0..n {
                        let softmax = y[i * n + j].exp();
                        da[i * n + j] = grad[i * n + j] - softmax * gsum;
                    }
                }
                drop(y);
                a.accumulate_owned_grad(da);
            }
        }
        Op::GatherCols(a, indices) => {
            if a.requires_grad() {
                let (m, n) = a.shape();
                let mut da = vec![0.0f32; m * n];
                for (i, &j) in indices.iter().enumerate() {
                    da[i * n + j] = grad[i];
                }
                a.accumulate_owned_grad(da);
            }
        }
        Op::ConcatCols(parts) => {
            let m = t.node.rows;
            let total = t.node.cols;
            let mut offset = 0;
            for p in parts {
                let c = p.cols();
                if p.requires_grad() {
                    let mut dp = Vec::with_capacity(m * c);
                    for i in 0..m {
                        dp.extend_from_slice(&grad[i * total + offset..i * total + offset + c]);
                    }
                    p.accumulate_owned_grad(dp);
                }
                offset += c;
            }
        }
        Op::ConcatRows(parts) => {
            let mut offset = 0;
            for p in parts {
                if p.requires_grad() {
                    p.accumulate_grad(&grad[offset..offset + p.len()]);
                }
                offset += p.len();
            }
        }
        Op::ReverseRows(a) => {
            if a.requires_grad() {
                let da: Vec<f32> = grad.chunks_exact(a.cols()).rev().flatten().copied().collect();
                a.accumulate_owned_grad(da);
            }
        }
        Op::Clamp(a, lo, hi) => {
            if a.requires_grad() {
                let ad = a.data();
                let da: Vec<f32> = grad
                    .iter()
                    .zip(ad.iter())
                    .map(|(&g, &x)| if x >= *lo && x <= *hi { g } else { 0.0 })
                    .collect();
                drop(ad);
                a.accumulate_owned_grad(da);
            }
        }
        Op::Minimum(a, b) => {
            let ad = a.data();
            let bd = b.data();
            if a.requires_grad() {
                let da: Vec<f32> = grad
                    .iter()
                    .zip(ad.iter().zip(bd.iter()))
                    .map(|(&g, (&x, &y))| if x <= y { g } else { 0.0 })
                    .collect();
                a.accumulate_owned_grad(da);
            }
            if b.requires_grad() {
                let db: Vec<f32> = grad
                    .iter()
                    .zip(ad.iter().zip(bd.iter()))
                    .map(|(&g, (&x, &y))| if y < x { g } else { 0.0 })
                    .collect();
                b.accumulate_owned_grad(db);
            }
        }
        Op::BlockGcn(diag, input, weights, saved) => {
            diag.gcn_backward(input, weights, saved, grad);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{matmul_grad_a, matmul_grad_b};
    use crate::blocks::{BlockDiag, Blocks};
    use crate::kernels;
    use crate::numeric_gradient;
    use crate::tensor::Tensor;
    use nptsn_rand::rngs::StdRng;
    use nptsn_rand::{Rng, SeedableRng};

    /// Checks the analytic gradient of `build` (a scalar function of a
    /// single parameter tensor) against central differences.
    fn gradcheck(rows: usize, cols: usize, x0: Vec<f32>, build: impl Fn(&Tensor) -> Tensor) {
        let p = Tensor::param(rows, cols, x0.clone());
        let loss = build(&p);
        loss.backward();
        let analytic = p.grad();
        let numeric = numeric_gradient(&x0, 1e-2, |x| {
            let q = Tensor::param(rows, cols, x.to_vec());
            build(&q).item()
        });
        for (i, (a, n)) in analytic.iter().zip(numeric.iter()).enumerate() {
            let tol = 1e-2 * (1.0 + n.abs());
            assert!(
                (a - n).abs() < tol,
                "grad mismatch at {i}: analytic {a}, numeric {n}"
            );
        }
    }

    #[test]
    fn gradcheck_add_mul_chain() {
        gradcheck(2, 2, vec![0.5, -1.0, 2.0, 0.1], |p| {
            let c = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
            p.add(&c).mul(p).mean()
        });
    }

    #[test]
    fn gradcheck_broadcast_row() {
        gradcheck(1, 3, vec![0.3, -0.2, 0.9], |p| {
            let x = Tensor::from_vec(4, 3, (0..12).map(|i| i as f32 * 0.1).collect());
            x.add(p).square().mean()
        });
    }

    #[test]
    fn gradcheck_broadcast_scalar() {
        gradcheck(1, 1, vec![0.7], |p| {
            let x = Tensor::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
            x.mul(p).sum()
        });
    }

    #[test]
    fn gradcheck_matmul_lhs_and_rhs() {
        gradcheck(2, 3, vec![0.1, 0.2, -0.3, 0.4, 0.5, -0.6], |p| {
            let b = Tensor::from_vec(3, 2, vec![1.0, -1.0, 0.5, 2.0, -0.5, 1.5]);
            p.matmul(&b).square().mean()
        });
        gradcheck(3, 2, vec![0.1, 0.2, -0.3, 0.4, 0.5, -0.6], |p| {
            let a = Tensor::from_vec(2, 3, vec![1.0, -1.0, 0.5, 2.0, -0.5, 1.5]);
            a.matmul(p).square().mean()
        });
    }

    #[test]
    fn gradcheck_activations() {
        // Relu is kinked at 0; keep probes away from it.
        gradcheck(1, 4, vec![0.5, -0.7, 1.2, -0.1], |p| p.relu().sum());
        gradcheck(1, 4, vec![0.5, -0.7, 1.2, -0.1], |p| p.tanh().sum());
        gradcheck(1, 4, vec![0.5, -0.7, 1.2, -0.1], |p| p.exp().mean());
    }

    #[test]
    fn gradcheck_log_softmax_gather() {
        gradcheck(2, 3, vec![0.1, 0.9, -0.4, 1.2, 0.0, -0.8], |p| {
            p.log_softmax_rows().gather_cols(&[1, 2]).mean()
        });
    }

    #[test]
    fn gradcheck_mean_rows_concat() {
        gradcheck(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6], |p| {
            let extra = Tensor::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
            Tensor::concat_cols(&[p.clone(), extra]).mean_rows().square().sum()
        });
    }

    #[test]
    fn gradcheck_clamp_minimum() {
        // Probes away from the clamp boundaries and the min crossover.
        gradcheck(1, 4, vec![-0.8, 0.3, 0.7, 1.9], |p| p.clamp(0.0, 1.0).sum());
        gradcheck(1, 3, vec![0.2, 0.9, -0.5], |p| {
            let other = Tensor::from_vec(1, 3, vec![0.5, 0.5, 0.5]);
            p.minimum(&other).sum()
        });
    }

    #[test]
    fn gradcheck_ppo_like_objective() {
        // min(r * adv, clip(r, 1-eps, 1+eps) * adv) with r = exp(p - old).
        gradcheck(4, 1, vec![0.1, -0.2, 0.05, 0.3], |p| {
            let old = Tensor::from_vec(4, 1, vec![0.0, 0.0, 0.0, 0.0]);
            let adv = Tensor::from_vec(4, 1, vec![1.0, -1.0, 0.5, -2.0]);
            let ratio = p.sub(&old).exp();
            let clipped = ratio.clamp(0.8, 1.2);
            ratio.mul(&adv).minimum(&clipped.mul(&adv)).mean().neg()
        });
    }

    #[test]
    fn gradcheck_row_stacking() {
        gradcheck(2, 3, vec![0.1, 0.2, -0.3, 0.4, 0.5, -0.6], |p| {
            let extra = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
            let weights = Tensor::from_vec(3, 3, (0..9).map(|i| i as f32 - 4.0).collect());
            Tensor::concat_rows(&[p.clone(), extra]).reverse_rows().square().mul(&weights).sum()
        });
    }

    #[test]
    fn gradcheck_block_ops() {
        // Two blocks of two rows through a two-layer GCN, pooled, and
        // four rows through a row-split matmul.
        let blocks = Blocks { count: 2, rows: 2, threads: 2 };
        let diag = std::rc::Rc::new(BlockDiag::new(
            blocks,
            vec![0.5, 0.5, 0.25, 1.0, 1.0, -0.5, 0.0, 0.75],
        ));
        let input = Tensor::from_vec(4, 2, vec![0.1, 0.9, -0.4, 1.2, 0.3, -0.8, 0.6, 0.2]);
        let w1 = Tensor::from_vec(3, 2, vec![0.7, -0.3, 0.2, 0.9, -0.5, 0.4]);
        gradcheck(2, 3, vec![0.3, -0.2, 0.9, 0.4, 0.1, -0.6], |w0| {
            diag.gcn_pooled(&input, &[w0.clone(), w1.clone()]).square().sum()
        });
        let w0 = Tensor::from_vec(2, 3, vec![0.3, -0.2, 0.9, 0.4, 0.1, -0.6]);
        gradcheck(3, 2, vec![0.7, -0.3, 0.2, 0.9, -0.5, 0.4], |w1| {
            diag.gcn_pooled(&input, &[w0.clone(), w1.clone()]).square().sum()
        });
        gradcheck(4, 2, vec![0.1, 0.9, -0.4, 1.2, 0.3, -0.8, 0.6, 0.2], |x| {
            x.matmul_rows(&w0, 2).tanh().square().sum()
        });
        gradcheck(2, 3, vec![0.3, -0.2, 0.9, 0.4, 0.1, -0.6], |w| {
            input.matmul_rows(w, 2).tanh().square().sum()
        });
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let p = Tensor::param(1, 1, vec![2.0]);
        p.square().scale(0.5).backward(); // grad = 2
        p.square().scale(0.5).backward(); // grad += 2
        assert_eq!(p.grad(), vec![4.0]);
        p.zero_grad();
        p.square().scale(0.5).backward();
        assert_eq!(p.grad(), vec![2.0]);
    }

    #[test]
    fn shared_subexpression_counted_once_per_use() {
        // loss = (p + p).sum() -> dp = 2.
        let p = Tensor::param(1, 1, vec![1.0]);
        p.add(&p).sum().backward();
        assert_eq!(p.grad(), vec![2.0]);
    }

    #[test]
    fn diamond_graph_gradient() {
        // y = p^2, loss = (y + y^2).sum(); dp = 2p + 4p^3 = 2 + 4 = 6 at p=1.
        let p = Tensor::param(1, 1, vec![1.0]);
        let y = p.square();
        y.add(&y.square()).sum().backward();
        assert_eq!(p.grad(), vec![6.0]);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_from_non_scalar_panics() {
        let p = Tensor::param(1, 2, vec![1.0, 2.0]);
        p.relu().backward();
    }

    #[test]
    fn constants_do_not_collect_gradients() {
        let p = Tensor::param(1, 1, vec![1.0]);
        let c = Tensor::scalar(5.0);
        p.mul(&c).backward();
        assert_eq!(c.grad(), vec![0.0]);
        assert_eq!(p.grad(), vec![5.0]);
    }

    /// The textbook `da = g · bᵀ` loop, the reference `matmul_grad_a`
    /// must match bitwise: one scalar dot product per element, ascending
    /// `j`, no zero skipping.
    fn reference_grad_a(g: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut da = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                let mut acc = 0.0;
                for j in 0..n {
                    acc += g[i * n + j] * b[p * n + j];
                }
                da[i * k + p] = acc;
            }
        }
        da
    }

    /// The textbook `db = aᵀ · g` loop, the reference `matmul_grad_b`
    /// must match bitwise: ascending `i`, zeros of `a` skipped.
    fn reference_grad_b(a: &[f32], g: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut db = vec![0.0f32; k * n];
        for p in 0..k {
            for i in 0..m {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    db[p * n + j] += av * g[i * n + j];
                }
            }
        }
        db
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Values spread over 2^-12..2^12 so that any change in summation
    /// order moves low bits; `zeros` of them are `+0.0` or `-0.0`.
    fn values(rng: &mut StdRng, len: usize, zeros: f32) -> Vec<f32> {
        (0..len)
            .map(|_| {
                if rng.gen_range(0.0f32..1.0) < zeros {
                    if rng.gen_bool(0.5) {
                        -0.0
                    } else {
                        0.0
                    }
                } else {
                    let scale = 2f32.powi(rng.gen_range(-12i32..13));
                    rng.gen_range(-1.0f32..1.0) * scale
                }
            })
            .collect()
    }

    /// A symmetric-normalized adjacency with self-loops over `m` nodes:
    /// the sparse `Â` a GCN multiplies by.
    fn ahat_like(rng: &mut StdRng, m: usize) -> Vec<f32> {
        let mut adj = vec![0.0f32; m * m];
        for i in 0..m {
            adj[i * m + i] = 1.0;
            for j in 0..i {
                if rng.gen_range(0.0f32..1.0) < 0.1 {
                    adj[i * m + j] = 1.0;
                    adj[j * m + i] = 1.0;
                }
            }
        }
        let deg: Vec<f32> = adj.chunks(m).map(|r| r.iter().sum()).collect();
        for i in 0..m {
            for j in 0..m {
                adj[i * m + j] /= (deg[i] * deg[j]).sqrt();
            }
        }
        adj
    }

    /// Dimensions on both sides of the matmul's 8-column strip, of its
    /// `KC` panel width (64), and above 32, where the 32-column strips
    /// run; `m` is the contraction of `db`, `n` of `da`.
    const DIMS: [usize; 14] = [1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 129, 150];

    #[test]
    fn matmul_grads_are_bitwise_the_textbook_loops() {
        let mut rng = StdRng::seed_from_u64(0xbac_4a2d);
        for case in 0..160 {
            // Every fourth case is a single row: the MLP's (1, d) input.
            // Every third multiplies by a square, sparse `Â` as the GCN does.
            let m = if case % 4 == 0 { 1 } else { DIMS[rng.gen_range(0..DIMS.len())] };
            let ahat = case % 3 == 0;
            let k = if ahat { m } else { DIMS[rng.gen_range(0..DIMS.len())] };
            let n = DIMS[rng.gen_range(0..DIMS.len())];
            let a = if ahat {
                ahat_like(&mut rng, m)
            } else {
                let zeros = rng.gen_range(0.0f32..0.9);
                values(&mut rng, m * k, zeros)
            };
            let b_zeros = rng.gen_range(0.0f32..0.5);
            let b = values(&mut rng, k * n, b_zeros);
            // Relu-masked upstream gradients: about half zeros.
            let g = values(&mut rng, m * n, 0.5);
            let what = format!("case {case}: a ({m},{k}), b ({k},{n})");
            let bt = kernels::transpose(&b, k, n);
            let at = kernels::transpose(&a, m, k);
            for threads in 1..=3 {
                assert_eq!(
                    bits(&matmul_grad_a(&g, &bt, m, k, n, threads)),
                    bits(&reference_grad_a(&g, &b, m, k, n)),
                    "da, {what}, {threads} threads"
                );
                assert_eq!(
                    bits(&matmul_grad_b(&at, &g, m, k, n, threads)),
                    bits(&reference_grad_b(&a, &g, m, k, n)),
                    "db, {what}, {threads} threads"
                );
            }

            // The same through `backward`, with each operand requiring
            // grad alone and both together, as a leaf (transpose kept for
            // the pass) or behind an exact `scale(1.0)` (transposed on the
            // spot). loss = sum(a·b ⊙ g) hands the matmul the upstream
            // gradient `+0 + g`, and each leaf receives `+0 + d`.
            let upstream: Vec<f32> = g.iter().map(|&x| 0.0 + x).collect();
            let accumulated = |d: Vec<f32>| -> Vec<f32> { d.iter().map(|&x| 0.0 + x).collect() };
            let expect_a = accumulated(reference_grad_a(&upstream, &b, m, k, n));
            let expect_b = accumulated(reference_grad_b(&a, &upstream, m, k, n));
            for (a_grad, b_grad) in [(true, false), (false, true), (true, true)] {
                for behind_op in [false, true] {
                    let leaf = |trainable, rows, cols, data: &[f32]| {
                        if trainable {
                            Tensor::param(rows, cols, data.to_vec())
                        } else {
                            Tensor::from_vec(rows, cols, data.to_vec())
                        }
                    };
                    let a_leaf = leaf(a_grad, m, k, &a);
                    let b_leaf = leaf(b_grad, k, n, &b);
                    let operand = |t: &Tensor| if behind_op { t.scale(1.0) } else { t.clone() };
                    let weights = Tensor::from_vec(m, n, g.clone());
                    let product = operand(&a_leaf).matmul(&operand(&b_leaf));
                    product.mul(&weights).sum().backward();
                    let what = format!("{what}, behind an op: {behind_op}");
                    if a_grad {
                        assert_eq!(bits(&a_leaf.grad()), bits(&expect_a), "a.grad, {what}");
                    }
                    if b_grad {
                        assert_eq!(bits(&b_leaf.grad()), bits(&expect_b), "b.grad, {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_rows_matches_one_matmul_per_row() {
        let mut rng = StdRng::seed_from_u64(0x0b1c);
        for &(m, k, n) in &[(7, 9, 130), (15, 70, 8), (1, 3, 4)] {
            let (x, w0) = (values(&mut rng, m * k, 0.5), values(&mut rng, k * n, 0.1));
            let weights = values(&mut rng, m * n, 0.3);
            // The reference: one graph per row, each row's loss, last row
            // first, so that its backward adds row 0's contribution first.
            let wr = Tensor::param(k, n, w0.clone());
            let rows: Vec<Tensor> = (0..m)
                .map(|r| Tensor::from_vec(1, k, x[r * k..(r + 1) * k].to_vec()).matmul(&wr))
                .collect();
            let expected = Tensor::concat_rows(&rows).to_vec();
            let losses: Vec<Tensor> = rows
                .iter()
                .enumerate()
                .rev()
                .map(|(r, row)| {
                    row.mul(&Tensor::from_vec(
                        1,
                        n,
                        weights[r * n..(r + 1) * n].to_vec(),
                    ))
                    .sum()
                })
                .collect();
            Tensor::concat_cols(&losses).sum().backward();
            for threads in 1..=3 {
                let (xs, ws) = (
                    Tensor::param(m, k, x.clone()),
                    Tensor::param(k, n, w0.clone()),
                );
                let out = xs.matmul_rows(&ws, threads);
                assert_eq!(
                    bits(&out.to_vec()),
                    bits(&expected),
                    "forward, {threads} threads"
                );
                out.mul(&Tensor::from_vec(m, n, weights.clone()))
                    .sum()
                    .backward();
                assert_eq!(
                    bits(&ws.grad()),
                    bits(&wr.grad()),
                    "weight gradient, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn a_shared_weight_stays_exact() {
        // Eight single-row inputs times one weight leaf, as in a PPO batch
        // of per-step MLP graphs: every input's gradient still matches the
        // textbook loop against that weight.
        let mut rng = StdRng::seed_from_u64(0x5a4e);
        let (k, n) = (65, 129);
        let b = values(&mut rng, k * n, 0.2);
        let w = Tensor::param(k, n, b.clone());
        let steps: Vec<(Tensor, Vec<f32>)> = (0..8)
            .map(|_| (Tensor::param(1, k, values(&mut rng, k, 0.3)), values(&mut rng, n, 0.5)))
            .collect();
        let parts: Vec<Tensor> = steps
            .iter()
            .map(|(x, g)| x.matmul(&w).mul(&Tensor::from_vec(1, n, g.clone())).sum())
            .collect();
        Tensor::concat_cols(&parts).sum().backward();
        for (i, (x, g)) in steps.iter().enumerate() {
            let upstream: Vec<f32> = g.iter().map(|&v| 0.0 + v).collect();
            let expect: Vec<f32> =
                reference_grad_a(&upstream, &b, 1, k, n).iter().map(|&v| 0.0 + v).collect();
            assert_eq!(bits(&x.grad()), bits(&expect), "step {i}");
        }
    }

    #[test]
    fn backward_keeps_leaf_gradients_and_drops_intermediate_ones() {
        let p = Tensor::param(1, 2, vec![1.0, -2.0]);
        let hidden = p.scale(3.0);
        let loss = hidden.sum();
        loss.backward();
        assert_eq!(p.grad(), vec![3.0, 3.0]);
        assert_eq!(hidden.grad(), vec![0.0, 0.0]);
        assert_eq!(loss.grad(), vec![0.0]);
        // A second pass over the same graph adds exactly one more
        // contribution: nothing stale was left in the intermediates.
        loss.backward();
        assert_eq!(p.grad(), vec![6.0, 6.0]);
    }
}
