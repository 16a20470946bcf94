//! Fully connected layers.

use nptsn_tensor::Tensor;
use nptsn_rand::Rng;

use crate::init::xavier_uniform;
use crate::Module;

/// A fully connected layer `y = x W + b` with `W: (inputs, outputs)` and a
/// row-broadcast bias `b: (1, outputs)`.
///
/// # Examples
///
/// ```
/// use nptsn_nn::{Linear, Module};
/// use nptsn_tensor::Tensor;
/// use nptsn_rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let layer = Linear::new(&mut rng, 3, 2);
/// let x = Tensor::from_vec(4, 3, vec![0.0; 12]);
/// assert_eq!(layer.forward(&x).shape(), (4, 2));
/// assert_eq!(layer.parameters().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
}

impl Linear {
    /// Creates a layer with Xavier-initialized weights and zero bias.
    pub fn new(rng: &mut impl Rng, inputs: usize, outputs: usize) -> Linear {
        Linear {
            weight: xavier_uniform(rng, inputs, outputs),
            bias: Tensor::param(1, outputs, vec![0.0; outputs]),
        }
    }

    /// Applies the layer to a `(batch, inputs)` tensor.
    ///
    /// # Panics
    ///
    /// Panics when the input column count differs from `inputs`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        x.matmul(&self.weight).add(&self.bias)
    }

    /// [`Linear::forward`] on rows that are independent steps, its
    /// products split by rows over `threads` threads
    /// ([`Tensor::matmul_rows`]): the same values, and a weight gradient
    /// that sums the rows' terms row 0 first, as one matmul per row adds
    /// them into a cleared gradient.
    pub fn forward_rows(&self, x: &Tensor, threads: usize) -> Tensor {
        x.matmul_rows(&self.weight, threads).add(&self.bias)
    }

    /// Input width.
    pub fn inputs(&self) -> usize {
        self.weight.rows()
    }

    /// Output width.
    pub fn outputs(&self) -> usize {
        self.weight.cols()
    }

    /// The weight matrix.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias row.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }
}

impl Module for Linear {
    fn parameters(&self) -> Vec<Tensor> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_rand::rngs::StdRng;
    use nptsn_rand::SeedableRng;

    #[test]
    fn forward_is_affine() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = Linear::new(&mut rng, 2, 2);
        let zero = Tensor::from_vec(1, 2, vec![0.0, 0.0]);
        // Zero input yields the bias (zero at init).
        assert_eq!(layer.forward(&zero).to_vec(), vec![0.0, 0.0]);
        // Linearity: f(2x) = 2 f(x) with zero bias.
        let x = Tensor::from_vec(1, 2, vec![0.3, -0.7]);
        let fx = layer.forward(&x).to_vec();
        let f2x = layer.forward(&x.scale(2.0)).to_vec();
        for (a, b) in fx.iter().zip(f2x.iter()) {
            assert!((2.0 * a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn gradients_flow_to_both_parameters() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = Linear::new(&mut rng, 2, 1);
        let x = Tensor::from_vec(1, 2, vec![1.0, -1.0]);
        layer.forward(&x).sum().backward();
        assert!(layer.weight().grad().iter().any(|&g| g != 0.0));
        assert!(layer.bias().grad().iter().all(|&g| g == 1.0));
        assert_eq!(layer.inputs(), 2);
        assert_eq!(layer.outputs(), 1);
    }
}
