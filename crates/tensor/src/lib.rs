//! Minimal reverse-mode automatic differentiation over 2-D `f32` tensors.
//!
//! This crate is the numerical substrate of the NPTSN reproduction: the
//! PyTorch stack used by the paper is replaced with a small, dependency-free
//! autodiff engine providing exactly the operations the GCN + actor/critic
//! networks and the PPO objective need (Section IV-C of the paper).
//!
//! A [`Tensor`] is an immutable node of a dynamically built computation
//! graph. Leaf tensors are created with [`Tensor::from_vec`] (constants) or
//! [`Tensor::param`] (trainable parameters); every operation returns a new
//! tensor that remembers its inputs. Calling [`Tensor::backward`] on a
//! scalar accumulates gradients into every reachable parameter.
//!
//! The engine is eager, and its graphs live on one thread. Threads appear
//! only inside [`Tensor::matmul_rows`] and the block ops ([`Blocks`],
//! [`BlockDiag`]), which evaluate a stack of equal-sized graphs, such as
//! one GCN per PPO step, as one graph: they split their kernel calls over
//! threads so that every result is the same bits on any thread count.
//! [`gcn_pooled_graphs`] runs the same GCN layers forward only, graph by
//! graph on the calling thread, for inference. A loop that builds the same
//! large graph again and again runs inside [`recycling`], which keeps the
//! buffers of dropped tensors for the next iteration.
//!
//! # Examples
//!
//! ```
//! use nptsn_tensor::Tensor;
//!
//! // f(w) = mean((x @ w - y)^2), a one-step linear regression.
//! let x = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
//! let y = Tensor::from_vec(2, 1, vec![1.0, -1.0]);
//! let w = Tensor::param(2, 1, vec![0.0, 0.0]);
//! let loss = x.matmul(&w).sub(&y).square().mean();
//! loss.backward();
//! // d/dw mean((w - y)^2) = 2 (w - y) / 2 = w - y.
//! assert_eq!(w.grad(), vec![-1.0, 1.0]);
//! ```

#![warn(missing_docs)]

mod autograd;
mod blocks;
pub mod kernels;
mod ops;
mod recycle;
mod tensor;

pub use blocks::{gcn_pooled_graphs, BlockDiag, Blocks};
pub use recycle::recycling;
pub use tensor::Tensor;

/// Numerically estimates the gradient of `f` at `x` with central
/// differences; the reference implementation used by the gradient-checking
/// tests of this crate and of `nptsn-nn`.
///
/// # Examples
///
/// ```
/// use nptsn_tensor::numeric_gradient;
///
/// let grad = numeric_gradient(&[3.0], 1e-3, |x| x[0] * x[0]);
/// assert!((grad[0] - 6.0).abs() < 1e-2);
/// ```
pub fn numeric_gradient(x: &[f32], eps: f32, mut f: impl FnMut(&[f32]) -> f32) -> Vec<f32> {
    let mut grad = Vec::with_capacity(x.len());
    let mut probe = x.to_vec();
    for i in 0..x.len() {
        let orig = probe[i];
        probe[i] = orig + eps;
        let hi = f(&probe);
        probe[i] = orig - eps;
        let lo = f(&probe);
        probe[i] = orig;
        grad.push((hi - lo) / (2.0 * eps));
    }
    grad
}
