//! Stacks of equal row blocks: the layout a batched GCN trains on.
//!
//! One PPO update evaluates one graph per step. Stacking the steps' node
//! rows gives one buffer per layer, and the normalized adjacencies the
//! block-diagonal `diag(Â_1 .. Â_K)`, whose zero blocks are never stored.
//! The ops here run on that layout on up to [`Blocks::threads`] threads,
//! each thread taking a contiguous run of blocks (or, for a shared
//! weight's gradient, of the weight's rows). Every block is computed by
//! the kernel calls of its graph alone, on the same operands in the same
//! order, and a weight shared by the blocks takes one gradient
//! contribution per block, block 0 first. So no result depends on the
//! thread count.
//!
//! The GCN's forward has one per-graph layer body. [`BlockDiag::gcn_pooled`]
//! runs it on every block of a training stack and keeps the activations;
//! [`gcn_pooled_graphs`] runs it on one graph after another for inference,
//! in one graph's scratch, and keeps nothing.

use std::cell::RefMut;
use std::ops::Range;
use std::rc::Rc;

use crate::ops::Op;
use crate::tensor::Tensor;
use crate::{kernels, recycle};

/// How the rows of a stacked tensor split into equal blocks, and how many
/// threads the block ops on it may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocks {
    /// Number of blocks.
    pub count: usize,
    /// Rows per block.
    pub rows: usize,
    /// Threads a block op may run on; 0 counts as 1.
    pub threads: usize,
}

impl Blocks {
    fn check(self, t: &Tensor, op: &str) {
        assert_eq!(
            t.rows(),
            self.count * self.rows,
            "{op}: {} rows do not stack {} blocks of {}",
            t.rows(),
            self.count,
            self.rows
        );
    }

    /// The runs of blocks the threads take, the calling thread's first,
    /// as [`kernels::split_units`] cuts them.
    fn runs(self) -> Vec<Range<usize>> {
        let per = self
            .count
            .div_ceil(self.threads.clamp(1, self.count.max(1)))
            .max(1);
        (0..self.count)
            .step_by(per)
            .map(|first| first..(first + per).min(self.count))
            .collect()
    }
}

/// Cuts `buffer`, blocks of `unit` floats, into one piece per run.
fn cut<'b>(mut buffer: &'b mut [f32], unit: usize, runs: &[Range<usize>]) -> Vec<&'b mut [f32]> {
    runs.iter()
        .map(|run| {
            let (piece, rest) = std::mem::take(&mut buffer).split_at_mut(run.len() * unit);
            buffer = rest;
            piece
        })
        .collect()
}

/// A block-diagonal matrix of square blocks, `diag(A_1 .. A_K)` with every
/// `A_i` of shape `(rows, rows)`: the normalized adjacency of K graphs of
/// one size. Each block's transpose is made once, here, for backwards.
#[derive(Debug)]
pub struct BlockDiag {
    blocks: Blocks,
    data: Vec<f32>,
    transposed: Vec<f32>,
}

impl BlockDiag {
    /// The block-diagonal matrix whose blocks are stored one after the
    /// other in `data`, each row-major.
    ///
    /// # Panics
    ///
    /// Panics when a dimension is zero or `data` does not hold
    /// `count` blocks of `rows × rows`.
    pub fn new(blocks: Blocks, data: Vec<f32>) -> BlockDiag {
        let size = blocks.rows * blocks.rows;
        assert!(
            size > 0 && blocks.count > 0,
            "block dimensions must be positive"
        );
        assert_eq!(
            data.len(),
            blocks.count * size,
            "data must hold every block"
        );
        let transposed = data
            .chunks_exact(size)
            .flat_map(|block| kernels::transpose(block, blocks.rows, blocks.rows))
            .collect();
        BlockDiag {
            blocks,
            data,
            transposed,
        }
    }

    fn block(&self, b: usize) -> &[f32] {
        let size = self.blocks.rows * self.blocks.rows;
        &self.data[b * size..(b + 1) * size]
    }

    fn transposed_block(&self, b: usize) -> &[f32] {
        let size = self.blocks.rows * self.blocks.rows;
        &self.transposed[b * size..(b + 1) * size]
    }

    /// `diag(A_1 .. A_K) · x` for `x` stacking K blocks of `(rows, cols)`,
    /// without a graph: block `i` is `A_i · x_i`, the kernel matmul
    /// [`Tensor::matmul`] runs for it alone. A GCN's first propagation of
    /// its constant input features.
    ///
    /// # Panics
    ///
    /// Panics when `x` does not hold K blocks of `(rows, cols)`.
    pub fn product(&self, x: &[f32], cols: usize) -> Vec<f32> {
        let rows = self.blocks.rows;
        assert_eq!(
            x.len(),
            self.blocks.count * rows * cols,
            "BlockDiag::product: shape mismatch"
        );
        let mut out = recycle::overwritten(x.len());
        kernels::split_units(
            self.blocks.threads,
            &mut out,
            rows * cols,
            |first, chunk| {
                for (i, out) in chunk.chunks_exact_mut(rows * cols).enumerate() {
                    let x = &x[(first + i) * rows * cols..(first + i + 1) * rows * cols];
                    kernels::matmul(self.block(first + i), x, out, rows, rows, cols);
                }
            },
        );
        out
    }

    /// The GCN of Eq. 4 on every graph, mean-pooled, as one op.
    ///
    /// `input` holds `Â_i · H_i` for every graph `i` (see
    /// [`BlockDiag::product`]). Row `i` of the `(K, width)` result is
    /// `Y_L.mean_rows()` for `Y_1 = relu(input_i · W_1)` and
    /// `Y_l = relu(Â_i · Y_{l−1} · W_l)`: the bits of a GCN forward on graph
    /// `i` alone, pooled. Each thread takes every layer of one block before
    /// the next block, so a block's activations stay in cache, and keeps
    /// them for the backward. In the backward each weight takes one
    /// contribution per block, block 0 first, formed as the backward of
    /// that graph alone forms it. `input` is a constant and gets no
    /// gradient.
    ///
    /// # Panics
    ///
    /// Panics when `weights` is empty, `input` requires a gradient, or the
    /// shapes do not chain.
    pub fn gcn_pooled(self: &Rc<Self>, input: &Tensor, weights: &[Tensor]) -> Tensor {
        let blocks = self.blocks;
        blocks.check(input, "gcn_pooled");
        assert!(
            !weights.is_empty(),
            "gcn_pooled: a GCN with no layer is its input"
        );
        assert!(
            !input.requires_grad(),
            "gcn_pooled: the input is a constant"
        );
        let widths = chain(input.cols(), weights, "gcn_pooled");
        let rows = blocks.rows;
        let stacked = |width: &usize| recycle::overwritten(blocks.count * rows * width);
        let mut saved = GcnActivations {
            outputs: widths[1..].iter().map(stacked).collect(),
            propagated: widths[1..weights.len()].iter().map(stacked).collect(),
        };
        let width = widths[weights.len()];
        let mut pooled = vec![0.0f32; blocks.count * width];
        {
            let input = input.data();
            let weights: Vec<_> = weights.iter().map(Tensor::data).collect();
            let weights: Vec<&[f32]> = weights.iter().map(|w| &w[..]).collect();
            let layers = Layers {
                rows,
                widths: &widths,
                weights: &weights,
            };
            let mut outputs = pieces(&mut saved.outputs, &widths[1..], rows);
            let mut propagated = pieces(&mut saved.propagated, &widths[1..], rows);
            // Each block's adjacency, input, slots and pooled row, in one
            // run of blocks per thread.
            let mut graphs = (self.data.chunks_exact(rows * rows))
                .zip(input.chunks_exact(rows * widths[0]))
                .zip(pooled.chunks_exact_mut(width))
                .map(|(graph, pooled)| {
                    let slots = (next_pieces(&mut outputs), next_pieces(&mut propagated));
                    (graph, slots, pooled)
                });
            let work = (blocks.runs().into_iter())
                .map(|run| graphs.by_ref().take(run.len()).collect())
                .collect();
            kernels::on_threads(work, |run: Vec<_>| {
                for ((ahat, x), (mut outputs, mut propagated), pooled) in run {
                    layers.graph(ahat, x, &mut outputs, &mut propagated, pooled);
                }
            });
        }
        let rg = weights.iter().any(Tensor::requires_grad);
        let op = Op::BlockGcn(Rc::clone(self), input.clone(), weights.to_vec(), saved);
        Tensor::new_internal(blocks.count, width, pooled, op, rg)
    }

    /// The backward of [`BlockDiag::gcn_pooled`] from `grad`, the gradient
    /// of its pooled rows: adds every weight's contributions into the
    /// weight's gradient, block 0 first. The first run of blocks adds its
    /// own as it forms them; the other runs keep theirs, and the caller
    /// adds them in block order once every run is done, split by the
    /// weight's rows.
    pub(crate) fn gcn_backward(
        &self,
        input: &Tensor,
        weights: &[Tensor],
        saved: &GcnActivations,
        grad: &[f32],
    ) {
        let (blocks, runs) = (self.blocks, self.blocks.runs());
        let widths: Vec<usize> = std::iter::once(weights[0].rows())
            .chain(weights.iter().map(Tensor::cols))
            .collect();
        let transposed: Vec<Vec<f32>> = weights
            .iter()
            .map(|w| kernels::transpose(&w.data(), w.rows(), w.cols()))
            .collect();
        let takes: Vec<bool> = weights.iter().map(Tensor::requires_grad).collect();
        let mut grads: Vec<Option<RefMut<'_, Vec<f32>>>> = weights
            .iter()
            .map(|w| w.requires_grad().then(|| w.grad_mut()))
            .collect();
        let later = blocks.count - runs[0].len();
        let mut kept: Vec<Vec<f32>> = widths
            .windows(2)
            .map(|d| recycle::overwritten(later * d[0] * d[1]))
            .collect();
        {
            let input = input.data();
            let gcn = Gcn {
                diag: self,
                input: &input,
                widths: &widths,
            };
            let transposed: Vec<&[f32]> = transposed.iter().map(|w| &w[..]).collect();
            let first: Vec<Sink<'_>> = grads
                .iter_mut()
                .map(|g| g.as_deref_mut().map_or(Sink::Skip, |g| Sink::Add(g)))
                .collect();
            let mut rest: Vec<_> = kept
                .iter_mut()
                .zip(widths.windows(2))
                .map(|(k, d)| cut(k, d[0] * d[1], &runs[1..]).into_iter())
                .collect();
            let mut work = vec![(runs[0].clone(), first)];
            for run in &runs[1..] {
                let sinks = next_pieces(&mut rest)
                    .into_iter()
                    .zip(&takes)
                    .map(|(piece, &takes)| if takes { Sink::Keep(piece) } else { Sink::Skip })
                    .collect();
                work.push((run.clone(), sinks));
            }
            kernels::on_threads(work, |(run, mut sinks)| {
                gcn.backward(run, &transposed, saved, grad, &mut sinks);
            });
        }
        for ((grad, kept), d) in grads.iter_mut().zip(&kept).zip(widths.windows(2)) {
            let (Some(grad), (k, n)) = (grad, (d[0], d[1])) else {
                continue;
            };
            kernels::split_units(blocks.threads, grad, n, |first, acc| {
                let part = acc.len() / n;
                for product in kept.chunks_exact(k * n) {
                    kernels::acc_in_place(acc, &product[first * n..(first + part) * n]);
                }
            });
        }
        kept.into_iter().for_each(recycle::give_back);
    }
}

/// The GCN of [`BlockDiag::gcn_pooled`] on each graph `(Â_i, H_i)` of
/// `graphs`, forward only: row `i` of the `(K, width)` result is the row
/// `gcn_pooled` gives graph `i`, and with no weights the column means of
/// `H_i`. Every graph has `rows` nodes and `feat` features, row-major.
/// The graphs run one after the other on the calling thread, each through
/// the same kernel calls as a block of `gcn_pooled`, in one graph's scratch:
/// no block-diagonal matrix is built and no activation is kept, so the
/// result has no gradient.
///
/// # Panics
///
/// Panics when `graphs` is empty, a graph's `Â` is not `rows × rows` or its
/// `H` not `rows × feat`, or the weights do not chain from `feat`.
pub fn gcn_pooled_graphs(
    graphs: &[(&[f32], &[f32])],
    rows: usize,
    feat: usize,
    weights: &[Tensor],
) -> Tensor {
    let widths = chain(feat, weights, "gcn_pooled_graphs");
    let width = widths[weights.len()];
    let mut pooled = vec![0.0f32; graphs.len() * width];
    // One graph's scratch: its `Â · H₀`, each layer's output, and `Â` times
    // the previous output for each layer after the first.
    let scratch = |width: &usize| vec![0.0f32; rows * width];
    let mut input = scratch(&feat);
    let mut outputs: Vec<Vec<f32>> = widths[1..].iter().map(scratch).collect();
    let hidden = weights.len().saturating_sub(1);
    let mut propagated: Vec<Vec<f32>> = widths[1..].iter().take(hidden).map(scratch).collect();
    let mut outputs: Vec<&mut [f32]> = outputs.iter_mut().map(Vec::as_mut_slice).collect();
    let mut propagated: Vec<&mut [f32]> = propagated.iter_mut().map(Vec::as_mut_slice).collect();
    let weights: Vec<_> = weights.iter().map(Tensor::data).collect();
    let weights: Vec<&[f32]> = weights.iter().map(|w| &w[..]).collect();
    let layers = Layers {
        rows,
        widths: &widths,
        weights: &weights,
    };
    for (&(ahat, h), pooled) in graphs.iter().zip(pooled.chunks_exact_mut(width)) {
        assert!(
            ahat.len() == rows * rows && h.len() == rows * feat,
            "gcn_pooled_graphs: a graph is not {rows} nodes with {feat} features"
        );
        if weights.is_empty() {
            kernels::mean_rows(h, rows, feat, pooled);
        } else {
            kernels::matmul(ahat, h, &mut input, rows, rows, feat);
            layers.graph(ahat, &input, &mut outputs, &mut propagated, pooled);
        }
    }
    Tensor::from_vec(graphs.len(), width, pooled)
}

/// The input width `feat`, then each layer's output width.
///
/// # Panics
///
/// Panics when the weights' shapes do not chain from `feat`.
fn chain(feat: usize, weights: &[Tensor], op: &str) -> Vec<usize> {
    let mut widths = vec![feat];
    for w in weights {
        assert_eq!(
            w.rows(),
            widths[widths.len() - 1],
            "{op}: layer shapes do not chain"
        );
        widths.push(w.cols());
    }
    widths
}

/// The shapes and weights of a GCN forward, which its graphs share.
struct Layers<'a> {
    /// Nodes per graph.
    rows: usize,
    /// The input width, then each layer's output width.
    widths: &'a [usize],
    weights: &'a [&'a [f32]],
}

impl Layers<'_> {
    /// Every layer of one graph, mean-pooled: the forward body of both GCN
    /// ops here. `input` is the graph's `Â · H₀`. Layer `l` writes
    /// `Y_l = relu(X_l · W_l)` into `outputs[l]`, where `X_0` is `input` and
    /// `X_l = Â · Y_{l−1}` is written into `propagated[l − 1]`; `pooled`
    /// takes the column means of the last `Y_l`. These are the kernel calls
    /// of [`Tensor::matmul`], [`Tensor::relu`] and [`Tensor::mean_rows`] on
    /// that graph alone, in the same order.
    fn graph(
        &self,
        ahat: &[f32],
        input: &[f32],
        outputs: &mut [&mut [f32]],
        propagated: &mut [&mut [f32]],
        pooled: &mut [f32],
    ) {
        let rows = self.rows;
        for (l, w) in self.weights.iter().enumerate() {
            let (k, n) = (self.widths[l], self.widths[l + 1]);
            let (before, after) = outputs.split_at_mut(l);
            let x: &[f32] = if l == 0 {
                input
            } else {
                let p = &mut *propagated[l - 1];
                kernels::matmul(ahat, before[l - 1], p, rows, rows, k);
                p
            };
            kernels::matmul(x, w, after[0], rows, k, n);
            kernels::relu_in_place(after[0]);
        }
        let last = self.weights.len();
        kernels::mean_rows(outputs[last - 1], rows, self.widths[last], pooled);
    }
}

/// Each stacked buffer cut into one piece per block, in block order.
fn pieces<'b>(
    buffers: &'b mut [Vec<f32>],
    widths: &[usize],
    rows: usize,
) -> Vec<std::slice::ChunksExactMut<'b, f32>> {
    buffers
        .iter_mut()
        .zip(widths)
        .map(|(b, w)| b.chunks_exact_mut(rows * w))
        .collect()
}

/// The next piece of every buffer.
fn next_pieces<'b, I: Iterator<Item = &'b mut [f32]>>(pieces: &mut [I]) -> Vec<&'b mut [f32]> {
    pieces
        .iter_mut()
        .map(|p| p.next().expect("a piece for each"))
        .collect()
}

/// The activations [`BlockDiag::gcn_pooled`] keeps for its backward, every
/// block stacked.
#[derive(Debug)]
pub(crate) struct GcnActivations {
    /// Each layer's relu output.
    outputs: Vec<Vec<f32>>,
    /// For each layer after the first: `Â` times the previous output.
    propagated: Vec<Vec<f32>>,
}

impl Drop for GcnActivations {
    fn drop(&mut self) {
        self.outputs
            .drain(..)
            .chain(self.propagated.drain(..))
            .for_each(recycle::give_back);
    }
}

/// Where a run puts a weight's contributions.
enum Sink<'b> {
    /// Added into the weight's gradient, block by block.
    Add(&'b mut [f32]),
    /// Kept, block by block, for the caller to add.
    Keep(&'b mut [f32]),
    /// The weight takes no gradient.
    Skip,
}

/// The constant inputs of a GCN backward, which its threads share.
struct Gcn<'a> {
    diag: &'a BlockDiag,
    input: &'a [f32],
    /// The input width, then each layer's output width.
    widths: &'a [usize],
}

impl Gcn<'_> {
    /// The backward of the blocks of `run`: for each block, from the last
    /// layer to the first, the relu's mask, the weight's contribution
    /// `Pᵀ · dZ` and the gradient `Âᵀ · (dZ · Wᵀ)` of the layer's input.
    fn backward(
        &self,
        run: Range<usize>,
        transposed: &[&[f32]],
        saved: &GcnActivations,
        grad: &[f32],
        sinks: &mut [Sink<'_>],
    ) {
        let rows = self.diag.blocks.rows;
        let layers = transposed.len();
        let widest = self.widths.iter().copied().max().unwrap_or(0);
        // The gradient of the current layer's output, and of its propagated
        // input.
        let (mut dy, mut dp) = (vec![0.0f32; rows * widest], vec![0.0f32; rows * widest]);
        let mut product = WeightProduct::default();
        for (i, b) in run.enumerate() {
            // Through the mean: every row of the block takes `g / rows`.
            let n = self.widths[layers];
            let (first, rest) = dy[..rows * n].split_at_mut(n);
            for (d, &g) in first.iter_mut().zip(&grad[b * n..(b + 1) * n]) {
                *d = g / rows as f32;
            }
            for row in rest.chunks_exact_mut(n) {
                row.copy_from_slice(first);
            }
            for l in (0..layers).rev() {
                let (k, n) = (self.widths[l], self.widths[l + 1]);
                let y = &saved.outputs[l][b * rows * n..(b + 1) * rows * n];
                let dz = &mut dy[..rows * n];
                for (d, &y) in dz.iter_mut().zip(y) {
                    *d = if y > 0.0 { *d } else { 0.0 };
                }
                let a = match l {
                    0 => &self.input[b * rows * k..(b + 1) * rows * k],
                    _ => &saved.propagated[l - 1][b * rows * k..(b + 1) * rows * k],
                };
                match &mut sinks[l] {
                    Sink::Add(acc) => product.form((a, dz), (rows, k, n), acc, true),
                    Sink::Keep(kept) => {
                        let dst = &mut kept[i * k * n..(i + 1) * k * n];
                        product.form((a, dz), (rows, k, n), dst, false);
                    }
                    Sink::Skip => {}
                }
                if l > 0 {
                    let dp = &mut dp[..rows * k];
                    kernels::matmul(&dy[..rows * n], transposed[l], dp, rows, n, k);
                    let at = self.diag.transposed_block(b);
                    kernels::matmul(at, dp, &mut dy[..rows * k], rows, rows, k);
                }
            }
        }
    }
}

/// Work buffers for one block's weight-gradient product.
#[derive(Default)]
struct WeightProduct {
    /// `aᵀ`.
    left: Vec<f32>,
    product: Vec<f32>,
}

impl WeightProduct {
    /// Adds (`add`) or writes `aᵀ · g` into `dst`, `(k, n)` row-major, for
    /// one block's `a (rows, k)` and `g (rows, n)`: the kernel matmul of
    /// `aᵀ` and `g`, whose element `(p, j)` sums `a[r][p] · g[r][j]` over
    /// the rows `r` in ascending order from `+0.0`, as the backward of a
    /// [`Tensor::matmul`] forms it.
    fn form(
        &mut self,
        (a, g): (&[f32], &[f32]),
        (rows, k, n): (usize, usize, usize),
        dst: &mut [f32],
        add: bool,
    ) {
        self.left.resize(k * rows, 0.0);
        for (r, row) in a.chunks_exact(k).enumerate() {
            for (p, &v) in row.iter().enumerate() {
                self.left[p * rows + r] = v;
            }
        }
        if add {
            self.product.resize(k * n, 0.0);
            kernels::matmul(&self.left, g, &mut self.product, k, rows, n);
            kernels::acc_in_place(dst, &self.product);
        } else {
            kernels::matmul(&self.left, g, dst, k, rows, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_rand::rngs::StdRng;
    use nptsn_rand::{Rng, SeedableRng};

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Values over 2^-8..2^8, so that a change of summation order moves
    /// low bits, with `zeros` of them `±0.0`.
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
                    rng.gen_range(-1.0f32..1.0) * 2f32.powi(rng.gen_range(-8i32..9))
                }
            })
            .collect()
    }

    /// Parameters and per-step inputs of a two-layer GCN, pooled.
    struct Case {
        rows: usize,
        feat: usize,
        ahats: Vec<Vec<f32>>,
        features: Vec<Vec<f32>>,
        w0: Vec<f32>,
        w1: Vec<f32>,
        weights: Vec<f32>,
    }

    impl Case {
        fn new(rng: &mut StdRng, steps: usize, rows: usize, feat: usize, emb: usize) -> Case {
            Case {
                rows,
                feat,
                ahats: (0..steps).map(|_| values(rng, rows * rows, 0.7)).collect(),
                features: (0..steps).map(|_| values(rng, rows * feat, 0.5)).collect(),
                w0: values(rng, feat * emb, 0.1),
                w1: values(rng, emb * emb, 0.1),
                weights: values(rng, steps * emb, 0.2),
            }
        }

        fn params(&self) -> (Tensor, Tensor) {
            let emb = self.w0.len() / self.feat;
            (
                Tensor::param(self.feat, emb, self.w0.clone()),
                Tensor::param(emb, emb, self.w1.clone()),
            )
        }

        /// One graph per step, each `relu(Â relu(Â H W0) W1)` pooled, the
        /// steps concatenated in step order: the reference.
        fn per_step(&self) -> (Tensor, Tensor, Vec<f32>) {
            let (w0, w1) = self.params();
            let parts: Vec<Tensor> = self
                .ahats
                .iter()
                .zip(&self.features)
                .map(|(ahat, h)| {
                    let ahat = Tensor::from_vec(self.rows, self.rows, ahat.clone());
                    let h = Tensor::from_vec(self.rows, self.feat, h.clone());
                    let h1 = ahat.matmul(&h).matmul(&w0).relu();
                    ahat.matmul(&h1).matmul(&w1).relu().mean_rows()
                })
                .collect();
            let pooled = Tensor::concat_cols(&parts);
            let out = pooled.to_vec();
            let weights = Tensor::from_vec(1, self.weights.len(), self.weights.clone());
            pooled.mul(&weights).sum().backward();
            (w0, w1, out)
        }

        /// The same on the block layout, steps stacked last first.
        fn stacked(&self, threads: usize) -> (Tensor, Tensor, Vec<f32>) {
            let (w0, w1) = self.params();
            let steps = self.ahats.len();
            let blocks = Blocks {
                count: steps,
                rows: self.rows,
                threads,
            };
            let ahats = self.ahats.iter().rev().flatten().copied().collect();
            let diag = Rc::new(BlockDiag::new(blocks, ahats));
            let h: Vec<f32> = self.features.iter().rev().flatten().copied().collect();
            let input = Tensor::from_vec(steps * self.rows, self.feat, diag.product(&h, self.feat));
            let pooled = diag
                .gcn_pooled(&input, &[w0.clone(), w1.clone()])
                .reverse_rows();
            let out = pooled.to_vec();
            let emb = w1.cols();
            let weights = Tensor::from_vec(steps, emb, self.weights.clone());
            pooled.mul(&weights).sum().backward();
            (w0, w1, out)
        }
    }

    #[test]
    fn stacked_gcn_matches_per_step_graphs_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0xb10c);
        // Shapes on both sides of the matmul's 8-column strip and its
        // panel width, and a single step.
        for (case, &(steps, rows, feat, emb)) in
            [(5, 7, 9, 8), (1, 3, 4, 5), (6, 13, 70, 17), (9, 4, 3, 65)]
                .iter()
                .enumerate()
        {
            let c = Case::new(&mut rng, steps, rows, feat, emb);
            let (w0, w1, out) = c.per_step();
            for threads in 1..=3 {
                let (sw0, sw1, sout) = c.stacked(threads);
                let at = format!("case {case}, {threads} threads");
                assert_eq!(bits(&sout), bits(&out), "forward, {at}");
                assert_eq!(bits(&sw0.grad()), bits(&w0.grad()), "w0 gradient, {at}");
                assert_eq!(bits(&sw1.grad()), bits(&w1.grad()), "w1 gradient, {at}");
            }
        }
    }

    #[test]
    fn split_units_covers_every_unit_once_on_any_thread_count() {
        for threads in [0, 1, 2, 3, 7, 40] {
            for units in [0usize, 1, 2, 5, 9] {
                let mut out = vec![0usize; units * 3];
                kernels::split_units(threads, &mut out, 3, |first, chunk| {
                    for (i, unit) in chunk.chunks_exact_mut(3).enumerate() {
                        unit.fill(first + i + 1);
                    }
                });
                let expect: Vec<usize> = (0..units).flat_map(|u| [u + 1; 3]).collect();
                assert_eq!(out, expect, "{threads} threads, {units} units");
            }
        }
    }

    #[test]
    fn a_panic_on_a_split_thread_reaches_the_caller() {
        let outcome = std::panic::catch_unwind(|| {
            let mut out = vec![0.0f32; 4];
            kernels::split_units(2, &mut out, 1, |first, _| {
                assert!(first == 0, "injected failure on a helper");
            });
        });
        assert!(outcome.is_err());
    }
}
