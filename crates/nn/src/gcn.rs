//! Graph convolutional networks (Kipf & Welling, Eq. 4 of the paper).

use std::rc::Rc;

use nptsn_tensor::{kernels, BlockDiag, Blocks, Tensor};
use nptsn_rand::Rng;

use crate::init::xavier_uniform;
use crate::Module;

/// A shape mismatch rejected by one of this crate's fallible (`try_*`)
/// entry points. Carries the operation name and a human-readable
/// description so callers can surface it without panicking a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// The operation that rejected its input (e.g. `"gcn.forward_many"`).
    pub op: &'static str,
    /// What disagreed with what.
    pub detail: String,
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.op, self.detail)
    }
}

impl std::error::Error for ShapeError {}

/// Computes the constant GCN propagation matrix
/// `D^-1/2 (A + I) D^-1/2` from a dense adjacency matrix (row-major,
/// `n x n`), where `D` is the degree matrix of the self-connected
/// adjacency, and returns it row-major.
///
/// The result is a constant (no gradient flows through the graph
/// structure), recomputed whenever the topology changes; wrap it with
/// [`Tensor::from_vec`] for [`Gcn::forward`].
///
/// # Panics
///
/// Panics when `adjacency.len() != n * n`.
///
/// # Examples
///
/// ```
/// use nptsn_nn::normalized_adjacency;
///
/// // Two connected nodes: A + I is all-ones, degrees are 2.
/// let ahat = normalized_adjacency(&[0.0, 1.0, 1.0, 0.0], 2);
/// for v in ahat {
///     assert!((v - 0.5).abs() < 1e-6);
/// }
/// ```
pub fn normalized_adjacency(adjacency: &[f32], n: usize) -> Vec<f32> {
    assert_eq!(adjacency.len(), n * n, "adjacency must be n x n");
    // A + I.
    let mut a_hat: Vec<f32> = adjacency.to_vec();
    for i in 0..n {
        a_hat[i * n + i] += 1.0;
    }
    // D^-1/2 of the self-connected adjacency.
    let inv_sqrt_deg: Vec<f32> = (0..n)
        .map(|i| {
            let deg: f32 = a_hat[i * n..(i + 1) * n].iter().sum();
            if deg > 0.0 {
                deg.sqrt().recip()
            } else {
                0.0
            }
        })
        .collect();
    for i in 0..n {
        for j in 0..n {
            a_hat[i * n + j] *= inv_sqrt_deg[i] * inv_sqrt_deg[j];
        }
    }
    a_hat
}

/// One topology's slice of a batched GCN forward: its normalized
/// adjacency `Â` and node features, both row-major.
#[derive(Debug, Clone, Copy)]
pub struct GcnBatchItem<'a> {
    /// Normalized adjacency data (`n x n`), as produced by
    /// [`normalized_adjacency`].
    pub ahat: &'a [f32],
    /// Node count of this topology.
    pub n: usize,
    /// Node features (`n x f`); `f` must match the network's input width
    /// and be the same for every item in the batch.
    pub h: &'a [f32],
}

/// The stacked result of [`Gcn::try_forward_many`]: all K embeddings in one
/// row-major buffer, addressed per item through row offsets.
#[derive(Debug, Clone)]
pub struct GcnBatchOut {
    /// Stacked embeddings, `(sum of n_i) x out_dim` row-major.
    pub data: Vec<f32>,
    /// `offsets[i]..offsets[i + 1]` is the row range of item `i`
    /// (`offsets.len() == items + 1`).
    pub offsets: Vec<usize>,
    /// Output feature width of every row.
    pub out_dim: usize,
}

impl GcnBatchOut {
    /// The embedding rows of item `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn block(&self, i: usize) -> &[f32] {
        &self.data[self.offsets[i] * self.out_dim..self.offsets[i + 1] * self.out_dim]
    }

    /// Number of node rows of item `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn block_rows(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Number of items in the batch.
    pub fn items(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// Graphs of one node count stacked for [`Gcn::pooled_stack`]: their
/// normalized adjacencies as one block-diagonal matrix, and the first
/// layer's propagation `Â·H₀` of their stacked node features. That product
/// depends on no parameter, so a stack that several forwards share (one
/// PPO update's iterations) computes it once. For a GCN without layers it
/// holds the pooled features themselves.
#[derive(Debug)]
pub struct GcnStack {
    adjacency: Rc<BlockDiag>,
    first: Tensor,
}

/// A stack of graph convolutional layers implementing Eq. 4:
/// `H^{l+1} = relu(Â H^l W^l)` with `Â` the normalized self-connected
/// adjacency.
///
/// With zero layers the GCN is the identity on the node features — the
/// "GCN-0" configuration of the sensitivity study (Fig. 5a).
///
/// # Examples
///
/// ```
/// use nptsn_nn::{normalized_adjacency, Gcn, Module};
/// use nptsn_tensor::Tensor;
/// use nptsn_rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// // 2 layers turning 5 node features into 8-dimensional embeddings.
/// let gcn = Gcn::new(&mut rng, &[5, 8, 8]);
/// let ahat = Tensor::from_vec(3, 3, normalized_adjacency(&vec![0.0; 9], 3));
/// let h = Tensor::from_vec(3, 5, vec![0.1; 15]);
/// let out = gcn.forward(&ahat, &h);
/// assert_eq!(out.shape(), (3, 8));
/// assert_eq!(gcn.layer_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Gcn {
    weights: Vec<Tensor>,
}

impl Gcn {
    /// Creates a GCN from feature dimensions: `dims[0]` is the input
    /// feature width, each subsequent entry one layer's output width.
    /// `dims` of length 1 yields the zero-layer identity GCN.
    ///
    /// # Panics
    ///
    /// Panics when `dims` is empty.
    pub fn new(rng: &mut impl Rng, dims: &[usize]) -> Gcn {
        assert!(!dims.is_empty(), "at least the input dimension is required");
        let weights = dims
            .windows(2)
            .map(|w| xavier_uniform(rng, w[0], w[1]))
            .collect();
        Gcn { weights }
    }

    /// Applies the propagation rule to node features `h` (`n x f`) using
    /// the precomputed normalized adjacency `ahat` (`n x n`).
    pub fn forward(&self, ahat: &Tensor, h: &Tensor) -> Tensor {
        let _span = nptsn_obs::span("gcn.forward");
        let mut out = h.clone();
        for w in &self.weights {
            out = ahat.matmul(&out).matmul(w).relu();
        }
        out
    }

    /// Fused batched forward: applies the propagation rule to K
    /// topologies at once and returns their embeddings stacked row-wise.
    ///
    /// The batch is the block-diagonal system
    /// `diag(Â_1 .. Â_K) · stack(H_1 .. H_K) · W` — but the zero blocks
    /// are never materialized: each `Â_i H_i` product runs on its own
    /// block (zero blocks contribute nothing), while the shared-weight
    /// `(Â H) W` multiply runs as one kernel call per cache-sized tile of
    /// stacked rows (whole blocks, never split) and the relu as one pass.
    /// Because every output row sees exactly the
    /// operations, operands and accumulation order of a solo
    /// [`Gcn::forward`] on its item, the result is bitwise identical to K
    /// independent forwards (pinned by this crate's equivalence sweep).
    ///
    /// The output carries no autograd graph — this is the inference path.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] naming the first item whose adjacency or
    /// features do not match its node count and the network's input
    /// width.
    pub fn try_forward_many(&self, items: &[GcnBatchItem<'_>]) -> Result<GcnBatchOut, ShapeError> {
        let _span = nptsn_obs::span("gcn.forward_many");
        // The shared input width: fixed by layer 0 when there is one,
        // inferred from the first item for the zero-layer identity GCN.
        let feat = match self.weights.first() {
            Some(w) => w.rows(),
            None => match items.first() {
                Some(it) if it.n > 0 => it.h.len() / it.n,
                _ => 0,
            },
        };
        let mut offsets = Vec::with_capacity(items.len() + 1);
        offsets.push(0usize);
        for (i, it) in items.iter().enumerate() {
            if it.ahat.len() != it.n * it.n {
                return Err(ShapeError {
                    op: "gcn.forward_many",
                    detail: format!(
                        "item {i}: adjacency has {} entries, expected {} x {}",
                        it.ahat.len(),
                        it.n,
                        it.n
                    ),
                });
            }
            if it.h.len() != it.n * feat {
                return Err(ShapeError {
                    op: "gcn.forward_many",
                    detail: format!(
                        "item {i}: features have {} entries, expected {} x {feat}",
                        it.h.len(),
                        it.n
                    ),
                });
            }
            offsets.push(offsets[i] + it.n);
        }
        let total = *offsets.last().unwrap();

        let out_cols = self.output_dim(feat);
        let weight_data: Vec<_> = self.weights.iter().map(Tensor::data).collect();

        // Depth-first tiling: a cache-sized group of whole blocks runs
        // through *all* layers before the next group starts, so every
        // intermediate buffer is tile-sized — only the final stacked
        // embedding is batch-sized, and it is written once, streaming.
        // Blocks are independent (the adjacency is block-diagonal) and a
        // tile never splits a block, so every output row still sees exactly
        // the operands and accumulation order of a solo forward — the
        // tiling cannot perturb the bitwise equivalence.
        const TILE_ROWS: usize = 512;
        let mut out_data = vec![0.0f32; total * out_cols];
        let (mut cur, mut prop, mut next) = (Vec::new(), Vec::new(), Vec::new());
        let mut tile_start = 0usize;
        while tile_start < items.len() {
            // Grow the tile by whole blocks up to the row budget (always at
            // least one block, however large).
            let mut tile_end = tile_start + 1;
            while tile_end < items.len()
                && offsets[tile_end + 1] - offsets[tile_start] <= TILE_ROWS
            {
                tile_end += 1;
            }
            let rows = offsets[tile_end] - offsets[tile_start];

            // Stack the tile's feature blocks.
            cur.clear();
            for it in &items[tile_start..tile_end] {
                cur.extend_from_slice(it.h);
            }
            let mut cur_cols = feat;
            for (w, wd) in self.weights.iter().zip(&weight_data) {
                let (wr, wc) = w.shape();
                debug_assert_eq!(wr, cur_cols);
                // Â H, block by block: the only non-zero blocks of the
                // block-diagonal product.
                prop.clear();
                prop.resize(rows * cur_cols, 0.0);
                for bi in tile_start..tile_end {
                    let r0 = (offsets[bi] - offsets[tile_start]) * cur_cols;
                    let r1 = (offsets[bi + 1] - offsets[tile_start]) * cur_cols;
                    let n = items[bi].n;
                    kernels::matmul(items[bi].ahat, &cur[r0..r1], &mut prop[r0..r1], n, n, cur_cols);
                }
                // (Â H) W + relu: one call each over the tile's stacked rows.
                next.clear();
                next.resize(rows * wc, 0.0);
                kernels::matmul(&prop, wd, &mut next, rows, cur_cols, wc);
                kernels::relu_in_place(&mut next);
                std::mem::swap(&mut cur, &mut next);
                cur_cols = wc;
            }
            debug_assert_eq!(cur_cols, out_cols);
            out_data[offsets[tile_start] * out_cols..offsets[tile_end] * out_cols]
                .copy_from_slice(&cur);
            tile_start = tile_end;
        }
        Ok(GcnBatchOut { data: out_data, offsets, out_dim: out_cols })
    }

    /// Stacks `items` for [`Gcn::pooled_stack`], whose kernels may run on
    /// `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics when `items` is empty, the items' node counts differ, or an
    /// item's adjacency or features do not match its node count and the
    /// network's input width.
    pub fn stack(&self, items: &[GcnBatchItem<'_>], threads: usize) -> GcnStack {
        let _span = nptsn_obs::span("gcn.forward");
        let n = items.first().expect("a stack needs at least one graph").n;
        let feat = match self.weights.first() {
            Some(w) => w.rows(),
            None => items[0].h.len() / n.max(1),
        };
        let blocks = Blocks { count: items.len(), rows: n, threads };
        let mut ahat = Vec::with_capacity(items.len() * n * n);
        let mut features = Vec::with_capacity(items.len() * n * feat);
        for (i, it) in items.iter().enumerate() {
            assert!(
                it.n == n && it.ahat.len() == n * n && it.h.len() == n * feat,
                "gcn.stack: item {i} is not a {n}-node graph with {feat} features"
            );
            ahat.extend_from_slice(it.ahat);
            features.extend_from_slice(it.h);
        }
        let adjacency = Rc::new(BlockDiag::new(blocks, ahat));
        let first = if self.weights.is_empty() {
            let mut pooled = vec![0.0f32; items.len() * feat];
            for (graph, row) in features.chunks_exact(n * feat).zip(pooled.chunks_exact_mut(feat)) {
                kernels::mean_rows(graph, n, feat, row);
            }
            Tensor::from_vec(items.len(), feat, pooled)
        } else {
            Tensor::from_vec(items.len() * n, feat, adjacency.product(&features, feat))
        };
        GcnStack { adjacency, first }
    }

    /// The mean-pooled embedding of every graph of a stack, with autograd:
    /// row `i` is `forward(Â_i, H_i).mean_rows()` of item `i`, bit for bit
    /// ([`BlockDiag::gcn_pooled`]). Each weight's gradient takes one
    /// contribution per item, item 0 first, each formed as a backward
    /// through that item's own graph forms it. A backward over the items'
    /// solo graphs concatenated in order adds the last item's first, so a
    /// caller that wants those bits stacks its items in reverse.
    pub fn pooled_stack(&self, stack: &GcnStack) -> Tensor {
        let _span = nptsn_obs::span("gcn.forward");
        if self.weights.is_empty() {
            stack.first.clone()
        } else {
            stack.adjacency.gcn_pooled(&stack.first, &self.weights)
        }
    }

    /// Number of convolution layers.
    pub fn layer_count(&self) -> usize {
        self.weights.len()
    }

    /// Output feature width (the input width for zero layers).
    pub fn output_dim(&self, input_dim: usize) -> usize {
        self.weights.last().map(Tensor::cols).unwrap_or(input_dim)
    }
}

impl Module for Gcn {
    fn parameters(&self) -> Vec<Tensor> {
        self.weights.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_rand::rngs::StdRng;
    use nptsn_rand::SeedableRng;

    #[test]
    fn normalized_adjacency_rows_of_path_graph() {
        // Path 0-1-2: degrees of A+I are 2, 3, 2.
        let adj = vec![0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
        let ahat = normalized_adjacency(&adj, 3);
        let d = [2.0f32, 3.0, 2.0];
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j {
                    1.0 / d[i]
                } else if (i as i32 - j as i32).abs() == 1 {
                    1.0 / (d[i] * d[j]).sqrt()
                } else {
                    0.0
                };
                assert!((ahat[i * 3 + j] - expected).abs() < 1e-6, "({i},{j})");
            }
        }
    }

    #[test]
    fn isolated_nodes_get_self_loop_only() {
        assert_eq!(normalized_adjacency(&[0.0; 4], 2), vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn zero_layer_gcn_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let gcn = Gcn::new(&mut rng, &[4]);
        assert_eq!(gcn.layer_count(), 0);
        assert_eq!(gcn.output_dim(4), 4);
        let ahat = Tensor::from_vec(3, 3, normalized_adjacency(&[0.0; 9], 3));
        let h = Tensor::from_vec(3, 4, (0..12).map(|i| i as f32).collect());
        assert_eq!(gcn.forward(&ahat, &h).to_vec(), h.to_vec());
    }

    #[test]
    fn message_passing_spreads_information() {
        let mut rng = StdRng::seed_from_u64(1);
        let gcn = Gcn::new(&mut rng, &[1, 4]);
        // Path 0-1-2; only node 0 carries a feature.
        let adj = vec![0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
        let ahat = Tensor::from_vec(3, 3, normalized_adjacency(&adj, 3));
        let h = Tensor::from_vec(3, 1, vec![1.0, 0.0, 0.0]);
        let out = gcn.forward(&ahat, &h);
        // Node 1 (adjacent) receives signal; node 2 (two hops) does not in
        // a single layer.
        let row = |i: usize| (0..4).map(|j| out.at(i, j).abs()).sum::<f32>();
        assert!(row(1) > 0.0);
        assert_eq!(row(2), 0.0);
        // A second layer propagates two hops.
        let mut rng2 = StdRng::seed_from_u64(1);
        let gcn2 = Gcn::new(&mut rng2, &[1, 4, 4]);
        let out2 = gcn2.forward(&ahat, &h);
        let row2 = |i: usize| (0..4).map(|j| out2.at(i, j).abs()).sum::<f32>();
        // Relu may zero some channels; with seed 1 signal survives.
        assert!(row2(2) > 0.0, "two layers should reach node 2");
    }

    #[test]
    fn gradients_flow_through_gcn() {
        let mut rng = StdRng::seed_from_u64(1);
        let gcn = Gcn::new(&mut rng, &[2, 3, 3]);
        let ahat = Tensor::from_vec(2, 2, normalized_adjacency(&[0.0, 1.0, 1.0, 0.0], 2));
        let h = Tensor::from_vec(2, 2, vec![0.5, -0.5, 0.25, 0.75]);
        gcn.forward(&ahat, &h).mean().backward();
        for (i, p) in gcn.parameters().iter().enumerate() {
            assert!(p.grad().iter().any(|&g| g != 0.0), "layer {i} got no gradient");
        }
    }
}
