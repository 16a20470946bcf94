//! Multi-layer perceptrons.

use nptsn_tensor::Tensor;
use nptsn_rand::Rng;

use crate::linear::Linear;
use crate::Module;

/// Elementwise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// `max(x, 0)`.
    Relu,
    /// Hyperbolic tangent — the SpinningUp default for PPO hidden layers.
    Tanh,
    /// No-op (linear output heads).
    Identity,
}

impl Activation {
    /// Applies the activation.
    pub fn apply(self, x: &Tensor) -> Tensor {
        self.apply_rows(x, 1)
    }

    /// [`Activation::apply`] with `tanh` split by rows over `threads`
    /// threads ([`Tensor::tanh_rows`]): the same bits on any thread count.
    pub fn apply_rows(self, x: &Tensor, threads: usize) -> Tensor {
        match self {
            Activation::Relu => x.relu(),
            Activation::Tanh => x.tanh_rows(threads),
            Activation::Identity => x.clone(),
        }
    }
}

/// A multi-layer perceptron: `Linear -> activation` repeated, with a
/// configurable output activation.
///
/// The NPTSN decision maker uses two of these: the actor head producing
/// action logits and the critic head producing the value estimate, both on
/// top of the GCN graph embedding (Fig. 3). The paper's default hidden
/// size is 256x256 (Table II).
///
/// # Examples
///
/// ```
/// use nptsn_nn::{Activation, Mlp, Module};
/// use nptsn_tensor::Tensor;
/// use nptsn_rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mlp = Mlp::new(&mut rng, &[4, 256, 256, 3], Activation::Tanh, Activation::Identity);
/// let x = Tensor::from_vec(1, 4, vec![0.1, 0.2, 0.3, 0.4]);
/// assert_eq!(mlp.forward(&x).shape(), (1, 3));
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes (`sizes[0]` is the input
    /// width, `sizes.last()` the output width).
    ///
    /// # Panics
    ///
    /// Panics when fewer than two sizes are given.
    pub fn new(
        rng: &mut impl Rng,
        sizes: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
    ) -> Mlp {
        assert!(sizes.len() >= 2, "an MLP needs at least input and output sizes");
        let layers = sizes
            .windows(2)
            .map(|w| Linear::new(rng, w[0], w[1]))
            .collect();
        Mlp { layers, hidden_activation, output_activation }
    }

    /// Applies the network to a `(batch, inputs)` tensor.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.forward_rows(x, 1)
    }

    /// [`Mlp::forward`] on rows that are independent steps, each layer's
    /// products and activation split by rows over `threads` threads
    /// ([`Linear::forward_rows`], [`Activation::apply_rows`]).
    pub fn forward_rows(&self, x: &Tensor, threads: usize) -> Tensor {
        let mut h = x.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward_rows(&h, threads);
            let activation =
                if i == last { self.output_activation } else { self.hidden_activation };
            h = activation.apply_rows(&h, threads);
        }
        h
    }

    /// Input width.
    pub fn inputs(&self) -> usize {
        self.layers[0].inputs()
    }

    /// Output width.
    pub fn outputs(&self) -> usize {
        self.layers[self.layers.len() - 1].outputs()
    }
}

impl Module for Mlp {
    fn parameters(&self) -> Vec<Tensor> {
        self.layers.iter().flat_map(Linear::parameters).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_rand::rngs::StdRng;
    use nptsn_rand::SeedableRng;

    #[test]
    fn shapes_and_parameters() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&mut rng, &[3, 8, 8, 2], Activation::Relu, Activation::Identity);
        assert_eq!(mlp.inputs(), 3);
        assert_eq!(mlp.outputs(), 2);
        assert_eq!(mlp.parameters().len(), 6);
        let x = Tensor::from_vec(5, 3, vec![0.1; 15]);
        assert_eq!(mlp.forward(&x).shape(), (5, 2));
    }

    #[test]
    fn activations_change_output() {
        let mut rng = StdRng::seed_from_u64(0);
        let relu = Mlp::new(&mut rng, &[2, 4, 1], Activation::Relu, Activation::Identity);
        let mut rng2 = StdRng::seed_from_u64(0);
        let tanh = Mlp::new(&mut rng2, &[2, 4, 1], Activation::Tanh, Activation::Identity);
        let x = Tensor::from_vec(1, 2, vec![0.9, -0.4]);
        assert_ne!(relu.forward(&x).to_vec(), tanh.forward(&x).to_vec());
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn too_few_sizes_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Mlp::new(&mut rng, &[3], Activation::Relu, Activation::Identity);
    }

    #[test]
    fn gradient_reaches_every_layer() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&mut rng, &[2, 4, 4, 1], Activation::Tanh, Activation::Identity);
        let x = Tensor::from_vec(1, 2, vec![0.5, -0.5]);
        mlp.forward(&x).sum().backward();
        for (i, p) in mlp.parameters().iter().enumerate() {
            // Biases of later layers always receive gradient; weights do
            // unless activations are exactly zero, which tanh avoids.
            assert!(
                p.grad().iter().any(|&g| g != 0.0),
                "parameter {i} received no gradient"
            );
        }
    }
}
