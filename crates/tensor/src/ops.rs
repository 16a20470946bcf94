//! Forward operations; each builds a new graph node.

use std::rc::Rc;

use crate::blocks::{BlockDiag, GcnActivations};
use crate::{kernels, recycle};
use crate::tensor::Tensor;

/// How a right-hand operand is broadcast against the left-hand shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Broadcast {
    /// Same shape.
    None,
    /// `(1, cols)` row repeated over every row of the lhs.
    Row,
    /// `(1, 1)` scalar.
    Scalar,
}

/// The operation that produced a tensor, with handles to its inputs.
pub(crate) enum Op {
    Leaf,
    Add(Tensor, Tensor, Broadcast),
    Sub(Tensor, Tensor, Broadcast),
    Mul(Tensor, Tensor, Broadcast),
    /// `a · b`, its kernel calls split by rows over the given threads.
    MatMul(Tensor, Tensor, usize),
    Scale(Tensor, f32),
    Neg(Tensor),
    Relu(Tensor),
    Tanh(Tensor),
    Exp(Tensor),
    Sum(Tensor),
    Mean(Tensor),
    MeanRows(Tensor),
    LogSoftmaxRows(Tensor),
    GatherCols(Tensor, Vec<usize>),
    ConcatCols(Vec<Tensor>),
    ConcatRows(Vec<Tensor>),
    ReverseRows(Tensor),
    Clamp(Tensor, f32, f32),
    Minimum(Tensor, Tensor),
    BlockGcn(Rc<BlockDiag>, Tensor, Vec<Tensor>, GcnActivations),
}

impl Op {
    /// The input tensors of this operation.
    pub(crate) fn children(&self) -> Vec<&Tensor> {
        match self {
            Op::Leaf => Vec::new(),
            Op::Add(a, b, _) | Op::Sub(a, b, _) | Op::Mul(a, b, _) => vec![a, b],
            Op::MatMul(a, b, _) | Op::Minimum(a, b) => vec![a, b],
            Op::Scale(a, _)
            | Op::Neg(a)
            | Op::Relu(a)
            | Op::Tanh(a)
            | Op::Exp(a)
            | Op::Sum(a)
            | Op::Mean(a)
            | Op::MeanRows(a)
            | Op::LogSoftmaxRows(a)
            | Op::GatherCols(a, _)
            | Op::ReverseRows(a)
            | Op::Clamp(a, _, _) => vec![a],
            Op::ConcatCols(xs) | Op::ConcatRows(xs) => xs.iter().collect(),
            Op::BlockGcn(_, input, weights, _) => std::iter::once(input).chain(weights).collect(),
        }
    }
}

fn broadcast_of(lhs: &Tensor, rhs: &Tensor, op: &str) -> Broadcast {
    if lhs.shape() == rhs.shape() {
        Broadcast::None
    } else if rhs.shape() == (1, 1) {
        Broadcast::Scalar
    } else if rhs.rows() == 1 && rhs.cols() == lhs.cols() {
        Broadcast::Row
    } else {
        panic!(
            "{op}: incompatible shapes {:?} and {:?} (rhs must match, be (1, cols) or (1, 1))",
            lhs.shape(),
            rhs.shape()
        );
    }
}

fn zip_broadcast(
    lhs: &Tensor,
    rhs: &Tensor,
    broadcast: Broadcast,
    f: impl Fn(f32, f32) -> f32,
) -> Vec<f32> {
    let a = lhs.data();
    let b = rhs.data();
    let cols = lhs.cols();
    match broadcast {
        // Explicit lane loop (same-shape add/sub/mul are inference hot
        // paths); the generic closure inlines, so each arm autovectorizes.
        Broadcast::None => {
            let mut out = recycle::overwritten(a.len());
            let mut oc = out.chunks_exact_mut(kernels::LANES);
            let mut ac = a.chunks_exact(kernels::LANES);
            let mut bc = b.chunks_exact(kernels::LANES);
            for ((o, av), bv) in oc.by_ref().zip(ac.by_ref()).zip(bc.by_ref()) {
                for l in 0..kernels::LANES {
                    o[l] = f(av[l], bv[l]);
                }
            }
            for ((o, &x), &y) in oc
                .into_remainder()
                .iter_mut()
                .zip(ac.remainder())
                .zip(bc.remainder())
            {
                *o = f(x, y);
            }
            out
        }
        Broadcast::Scalar => a.iter().map(|&x| f(x, b[0])).collect(),
        Broadcast::Row => {
            let mut out = recycle::copied(&a);
            for row in out.chunks_exact_mut(cols) {
                for (o, &y) in row.iter_mut().zip(b.iter()) {
                    *o = f(*o, y);
                }
            }
            out
        }
    }
}

impl Tensor {
    fn unary(&self, data: Vec<f32>, op: Op) -> Tensor {
        Tensor::new_internal(self.rows(), self.cols(), data, op, self.requires_grad())
    }

    /// Elementwise addition. `other` may be the same shape, a `(1, cols)`
    /// row (broadcast over rows) or a `(1, 1)` scalar.
    ///
    /// # Panics
    ///
    /// Panics on incompatible shapes.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let b = broadcast_of(self, other, "add");
        let data = zip_broadcast(self, other, b, |x, y| x + y);
        let rg = self.requires_grad() || other.requires_grad();
        Tensor::new_internal(self.rows(), self.cols(), data, Op::Add(self.clone(), other.clone(), b), rg)
    }

    /// Elementwise subtraction with the same broadcasting as
    /// [`add`](Tensor::add).
    pub fn sub(&self, other: &Tensor) -> Tensor {
        let b = broadcast_of(self, other, "sub");
        let data = zip_broadcast(self, other, b, |x, y| x - y);
        let rg = self.requires_grad() || other.requires_grad();
        Tensor::new_internal(self.rows(), self.cols(), data, Op::Sub(self.clone(), other.clone(), b), rg)
    }

    /// Elementwise (Hadamard) product with the same broadcasting as
    /// [`add`](Tensor::add).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        let b = broadcast_of(self, other, "mul");
        let data = zip_broadcast(self, other, b, |x, y| x * y);
        let rg = self.requires_grad() || other.requires_grad();
        Tensor::new_internal(self.rows(), self.cols(), data, Op::Mul(self.clone(), other.clone(), b), rg)
    }

    /// Matrix product `self (m, k) @ other (k, n) -> (m, n)`.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.matmul_rows(other, 1)
    }

    /// [`Tensor::matmul`] with the product and both of its gradients split
    /// by rows over `threads` threads: the rows of the product, of
    /// `self`'s gradient `g · otherᵀ` and of `other`'s gradient
    /// `selfᵀ · g` ([`kernels::split_units`]). No value depends on
    /// `threads`. When the rows of `self` are independent steps, such as
    /// an MLP's batch, `other`'s gradient sums each element's terms in
    /// row order from `+0.0`: added into a cleared gradient, it has the
    /// bits of one matmul per row, row 0 first.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul_rows(&self, other: &Tensor, threads: usize) -> Tensor {
        let (m, k) = self.shape();
        let (k2, n) = other.shape();
        assert_eq!(k, k2, "matmul: inner dimensions {k} and {k2} disagree");
        let a = self.data();
        let b = other.data();
        let mut out = recycle::overwritten(m * n);
        kernels::matmul_split(threads, &a, &b, &mut out, k, n);
        drop(a);
        drop(b);
        let rg = self.requires_grad() || other.requires_grad();
        let op = Op::MatMul(self.clone(), other.clone(), threads);
        Tensor::new_internal(m, n, out, op, rg)
    }

    /// Multiplies every element by `factor`.
    pub fn scale(&self, factor: f32) -> Tensor {
        let mut data = self.data().to_vec();
        kernels::scale_in_place(&mut data, factor);
        self.unary(data, Op::Scale(self.clone(), factor))
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        let data = self.data().iter().map(|&x| -x).collect();
        self.unary(data, Op::Neg(self.clone()))
    }

    /// Elementwise `max(x, 0)`.
    pub fn relu(&self) -> Tensor {
        let mut data = recycle::copied(&self.data());
        kernels::relu_in_place(&mut data);
        self.unary(data, Op::Relu(self.clone()))
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.tanh_rows(1)
    }

    /// [`Tensor::tanh`] with the rows split over `threads` threads
    /// ([`kernels::split_units`]). Each element's value depends on that
    /// element alone, so no bit depends on `threads`.
    pub fn tanh_rows(&self, threads: usize) -> Tensor {
        let mut data = recycle::copied(&self.data());
        kernels::split_units(threads, &mut data, self.cols(), |_, rows| {
            for x in rows {
                *x = x.tanh();
            }
        });
        self.unary(data, Op::Tanh(self.clone()))
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        let data = self.data().iter().map(|&x| x.exp()).collect();
        self.unary(data, Op::Exp(self.clone()))
    }

    /// Elementwise square (sugar for `mul(self)` without doubling the
    /// graph fan-in).
    pub fn square(&self) -> Tensor {
        self.mul(self)
    }

    /// Sum of all elements as a `(1, 1)` scalar.
    pub fn sum(&self) -> Tensor {
        let s = self.data().iter().sum();
        Tensor::new_internal(1, 1, vec![s], Op::Sum(self.clone()), self.requires_grad())
    }

    /// Mean of all elements as a `(1, 1)` scalar.
    pub fn mean(&self) -> Tensor {
        let s: f32 = self.data().iter().sum();
        let m = s / self.len() as f32;
        Tensor::new_internal(1, 1, vec![m], Op::Mean(self.clone()), self.requires_grad())
    }

    /// Column-wise mean over rows: `(m, n) -> (1, n)`. This is the graph
    /// readout (mean pooling) that turns GCN node embeddings into the graph
    /// embedding vector.
    pub fn mean_rows(&self) -> Tensor {
        let (m, n) = self.shape();
        let data = self.data();
        let mut out = vec![0.0f32; n];
        kernels::mean_rows(&data, m, n, &mut out);
        drop(data);
        Tensor::new_internal(1, n, out, Op::MeanRows(self.clone()), self.requires_grad())
    }

    /// Row-wise log-softmax: each row becomes `x - logsumexp(row)`,
    /// numerically stabilized by the row maximum.
    pub fn log_softmax_rows(&self) -> Tensor {
        let (m, n) = self.shape();
        let data = self.data();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let row = &data[i * n..(i + 1) * n];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = max + row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
            for (j, &x) in row.iter().enumerate() {
                out[i * n + j] = x - lse;
            }
        }
        drop(data);
        Tensor::new_internal(m, n, out, Op::LogSoftmaxRows(self.clone()), self.requires_grad())
    }

    /// Gathers one element per row: `out[i, 0] = self[i, indices[i]]`.
    ///
    /// Used to pick the log-probability of the chosen action out of each
    /// step's policy row.
    ///
    /// # Panics
    ///
    /// Panics when `indices.len() != rows` or an index is out of range.
    pub fn gather_cols(&self, indices: &[usize]) -> Tensor {
        let (m, n) = self.shape();
        assert_eq!(indices.len(), m, "one index per row required");
        let data = self.data();
        let mut out = Vec::with_capacity(m);
        for (i, &j) in indices.iter().enumerate() {
            assert!(j < n, "gather index {j} out of range for {n} columns");
            out.push(data[i * n + j]);
        }
        drop(data);
        Tensor::new_internal(
            m,
            1,
            out,
            Op::GatherCols(self.clone(), indices.to_vec()),
            self.requires_grad(),
        )
    }

    /// Concatenates tensors with equal row counts along the column axis.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols needs at least one tensor");
        let m = parts[0].rows();
        assert!(
            parts.iter().all(|p| p.rows() == m),
            "concat_cols requires equal row counts"
        );
        let n: usize = parts.iter().map(Tensor::cols).sum();
        let mut out = Vec::with_capacity(m * n);
        let borrows: Vec<_> = parts.iter().map(|p| p.data()).collect();
        for i in 0..m {
            for (p, b) in parts.iter().zip(&borrows) {
                let c = p.cols();
                out.extend_from_slice(&b[i * c..(i + 1) * c]);
            }
        }
        drop(borrows);
        let rg = parts.iter().any(Tensor::requires_grad);
        Tensor::new_internal(m, n, out, Op::ConcatCols(parts.to_vec()), rg)
    }

    /// Stacks tensors with equal column counts along the row axis.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or column counts differ.
    pub fn concat_rows(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows needs at least one tensor");
        let n = parts[0].cols();
        assert!(
            parts.iter().all(|p| p.cols() == n),
            "concat_rows requires equal column counts"
        );
        let m = parts.iter().map(Tensor::rows).sum();
        let mut out = Vec::with_capacity(m * n);
        for p in parts {
            out.extend_from_slice(&p.data());
        }
        let rg = parts.iter().any(Tensor::requires_grad);
        Tensor::new_internal(m, n, out, Op::ConcatRows(parts.to_vec()), rg)
    }

    /// The rows in reverse order.
    pub fn reverse_rows(&self) -> Tensor {
        let n = self.cols();
        let out = self.data().chunks_exact(n).rev().flatten().copied().collect();
        self.unary(out, Op::ReverseRows(self.clone()))
    }

    /// Elementwise clamp into `[lo, hi]`; the gradient passes only where
    /// the input lies inside the interval (PyTorch convention).
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        assert!(lo <= hi, "clamp bounds inverted: {lo} > {hi}");
        let data = self.data().iter().map(|&x| x.clamp(lo, hi)).collect();
        self.unary(data, Op::Clamp(self.clone(), lo, hi))
    }

    /// Elementwise minimum of two same-shape tensors (the PPO objective's
    /// pessimistic bound, Eq. 5).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn minimum(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "minimum requires equal shapes");
        let data = self
            .data()
            .iter()
            .zip(other.data().iter())
            .map(|(&x, &y)| x.min(y))
            .collect();
        let rg = self.requires_grad() || other.requires_grad();
        Tensor::new_internal(
            self.rows(),
            self.cols(),
            data,
            Op::Minimum(self.clone(), other.clone()),
            rg,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_broadcasts() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let row = Tensor::from_vec(1, 2, vec![10.0, 20.0]);
        let scalar = Tensor::scalar(100.0);
        assert_eq!(a.add(&row).to_vec(), vec![11.0, 22.0, 13.0, 24.0]);
        assert_eq!(a.add(&scalar).to_vec(), vec![101.0, 102.0, 103.0, 104.0]);
        assert_eq!(a.add(&a).to_vec(), vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "incompatible shapes")]
    fn bad_broadcast_panics() {
        let a = Tensor::from_vec(2, 2, vec![0.0; 4]);
        let b = Tensor::from_vec(2, 1, vec![0.0; 2]);
        let _ = a.add(&b);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.to_vec(), vec![58.0, 64.0, 139.0, 154.0]);
    }

    /// Textbook triple loop over `at(i, p) * at(p, j)` in ascending-p
    /// order — the reference the blocked kernel must match bitwise.
    fn matmul_reference(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (m, k) = a.shape();
        let (_, n) = b.shape();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    out[i * n + j] += a.at(i, p) * b.at(p, j);
                }
            }
        }
        out
    }

    #[test]
    fn matmul_blocked_matches_reference_on_random_shapes() {
        use nptsn_rand::rngs::StdRng;
        use nptsn_rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed_a7a7);
        for case in 0..40 {
            // Shapes straddling the KC=64 panel boundary, plus tiny ones;
            // outputs up to four 32-column strips, most with a shifted
            // last strip.
            let m = rng.gen_range(1usize..24);
            let k = rng.gen_range(1usize..200);
            let n = rng.gen_range(1usize..140);
            let sparsity = rng.gen_range(0.0f32..0.9);
            let gen = |rng: &mut StdRng, len: usize| -> Vec<f32> {
                (0..len)
                    .map(|_| {
                        if rng.gen_range(0.0f32..1.0) < sparsity {
                            0.0
                        } else {
                            rng.gen_range(-2.0f32..2.0)
                        }
                    })
                    .collect()
            };
            let a = Tensor::from_vec(m, k, gen(&mut rng, m * k));
            let b = Tensor::from_vec(k, n, gen(&mut rng, k * n));
            let expect = matmul_reference(&a, &b);
            let got = a.matmul(&b).to_vec();
            // Bitwise equality: the kernel preserves the ascending-p
            // accumulation order, so not even the last ulp may move.
            assert_eq!(got, expect, "case {case}: shapes ({m},{k})x({k},{n})");
        }
    }

    #[test]
    fn matmul_exact_on_k_above_panel_width() {
        // k = 130 spans three KC=64 panels; ones x identity-like patterns
        // make any mis-indexing visible as an integer discrepancy.
        let k = 130;
        let a = Tensor::from_vec(1, k, (0..k).map(|p| (p % 7) as f32).collect());
        let b = Tensor::from_vec(k, 1, vec![1.0; k]);
        let expect: f32 = (0..k).map(|p| (p % 7) as f32).sum();
        assert_eq!(a.matmul(&b).to_vec(), vec![expect]);
    }

    #[test]
    fn activations() {
        let x = Tensor::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        assert_eq!(x.relu().to_vec(), vec![0.0, 0.0, 2.0]);
        assert_eq!(x.neg().to_vec(), vec![1.0, 0.0, -2.0]);
        let t = x.tanh().to_vec();
        assert!((t[0] + 0.7616).abs() < 1e-4);
        let e = x.exp().to_vec();
        assert!((e[2] - 2.0f32.exp()).abs() < 1e-5);
    }

    #[test]
    fn tanh_rows_matches_tanh_on_any_thread_count() {
        let x = Tensor::from_vec(5, 3, (0..15).map(|i| i as f32 * 0.37 - 2.5).collect());
        let expect: Vec<u32> = x.to_vec().iter().map(|v| v.tanh().to_bits()).collect();
        for threads in 1..=6 {
            let got: Vec<u32> =
                x.tanh_rows(threads).to_vec().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expect, "{threads} threads");
        }
    }

    #[test]
    fn reductions() {
        let x = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(x.sum().item(), 10.0);
        assert_eq!(x.mean().item(), 2.5);
        assert_eq!(x.mean_rows().to_vec(), vec![2.0, 3.0]);
    }

    #[test]
    fn log_softmax_rows_is_normalized() {
        let x = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        let ls = x.log_softmax_rows();
        for i in 0..2 {
            let total: f32 = (0..3).map(|j| ls.at(i, j).exp()).sum();
            assert!((total - 1.0).abs() < 1e-5, "row {i} sums to {total}");
        }
        // Invariance under shifts: the same rows, each 1000 higher.
        let shifted = Tensor::from_vec(2, 3, vec![1001.0, 1002.0, 1003.0, 995.0, 1000.0, 1005.0])
            .log_softmax_rows();
        for i in 0..2 {
            for j in 0..3 {
                assert!((ls.at(i, j) - shifted.at(i, j)).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn gather_and_concat() {
        let x = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(x.gather_cols(&[2, 0]).to_vec(), vec![3.0, 4.0]);
        let y = Tensor::from_vec(2, 1, vec![7.0, 8.0]);
        let c = Tensor::concat_cols(&[x.clone(), y]);
        assert_eq!(c.shape(), (2, 4));
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 7.0, 4.0, 5.0, 6.0, 8.0]);
        let z = Tensor::from_vec(1, 3, vec![9.0, 10.0, 11.0]);
        let r = Tensor::concat_rows(&[x, z]);
        assert_eq!(r.shape(), (3, 3));
        assert_eq!(r.to_vec(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0, 10.0, 11.0]);
        assert_eq!(r.reverse_rows().to_vec(), vec![9.0, 10.0, 11.0, 4.0, 5.0, 6.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn clamp_and_minimum() {
        let x = Tensor::from_vec(1, 4, vec![-2.0, 0.5, 1.5, 3.0]);
        assert_eq!(x.clamp(0.0, 1.0).to_vec(), vec![0.0, 0.5, 1.0, 1.0]);
        let y = Tensor::from_vec(1, 4, vec![0.0, 0.0, 2.0, 2.0]);
        assert_eq!(x.minimum(&y).to_vec(), vec![-2.0, 0.0, 1.5, 2.0]);
    }

    #[test]
    fn requires_grad_propagates() {
        let p = Tensor::param(1, 2, vec![1.0, 2.0]);
        let c = Tensor::from_vec(1, 2, vec![3.0, 4.0]);
        assert!(p.add(&c).requires_grad());
        assert!(!c.scale(2.0).requires_grad());
        assert!(Tensor::concat_cols(&[c.clone(), p.clone()]).requires_grad());
    }
}
