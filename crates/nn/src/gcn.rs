//! Graph convolutional networks (Kipf & Welling, Eq. 4 of the paper).

use std::rc::Rc;

use nptsn_tensor::{gcn_pooled_graphs, BlockDiag, Blocks, Tensor};
use nptsn_rand::Rng;

use crate::init::xavier_uniform;
use crate::Module;

/// A shape mismatch rejected by a fallible (`try_*`) entry point, such as
/// the policy network's batched evaluation in `nptsn`. Carries the
/// operation name and a human-readable description so callers can surface
/// it without panicking a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// The operation that rejected its input (e.g. `"evaluate_many"`).
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

/// One graph of a batched GCN forward ([`Gcn::stack`],
/// [`Gcn::pooled_many`]): its normalized adjacency `Â` and node features,
/// both row-major.
#[derive(Debug, Clone, Copy)]
pub struct GcnBatchItem<'a> {
    /// Normalized adjacency data (`n x n`), as produced by
    /// [`normalized_adjacency`].
    pub ahat: &'a [f32],
    /// Node count of this graph; the same for every item of a batch.
    pub n: usize,
    /// Node features (`n x f`); `f` must match the network's input width
    /// and be the same for every item in the batch.
    pub h: &'a [f32],
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
        let (n, feat) = self.batch_shape(items, "gcn.stack");
        let blocks = Blocks { count: items.len(), rows: n, threads };
        let mut ahat = Vec::with_capacity(items.len() * n * n);
        let mut features = Vec::with_capacity(items.len() * n * feat);
        for it in items {
            ahat.extend_from_slice(it.ahat);
            features.extend_from_slice(it.h);
        }
        let adjacency = Rc::new(BlockDiag::new(blocks, ahat));
        let first = if self.weights.is_empty() {
            gcn_pooled_graphs(&graphs(items), n, feat, &[])
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

    /// The inference batch: the mean-pooled embedding of every graph of
    /// `items`, row `i` `forward(Â_i, H_i).mean_rows()` of item `i`, bit for
    /// bit, with no autograd graph. The graphs run one after the other on
    /// the calling thread ([`gcn_pooled_graphs`]).
    ///
    /// # Panics
    ///
    /// Panics when `items` is empty, the items' node counts differ, or an
    /// item's adjacency or features do not match its node count and the
    /// network's input width.
    pub fn pooled_many(&self, items: &[GcnBatchItem<'_>]) -> Tensor {
        let _span = nptsn_obs::span("gcn.forward");
        let (n, feat) = self.batch_shape(items, "gcn.pooled_many");
        gcn_pooled_graphs(&graphs(items), n, feat, &self.weights)
    }

    /// The node count and input width of the graphs of a batch, checked.
    fn batch_shape(&self, items: &[GcnBatchItem<'_>], op: &str) -> (usize, usize) {
        let Some(first) = items.first() else {
            panic!("{op}: a batch needs at least one graph");
        };
        let n = first.n;
        let feat = match self.weights.first() {
            Some(w) => w.rows(),
            None => first.h.len() / n.max(1),
        };
        for (i, it) in items.iter().enumerate() {
            assert!(
                it.n == n && it.ahat.len() == n * n && it.h.len() == n * feat,
                "{op}: item {i} is not a {n}-node graph with {feat} features"
            );
        }
        (n, feat)
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

/// Each item's `(Â, H)`.
fn graphs<'a>(items: &[GcnBatchItem<'a>]) -> Vec<(&'a [f32], &'a [f32])> {
    items.iter().map(|it| (it.ahat, it.h)).collect()
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
