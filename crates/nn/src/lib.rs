//! Neural-network layers, initializers and the Adam optimizer, built on
//! [`nptsn_tensor`].
//!
//! Provides exactly the architecture the NPTSN decision maker needs
//! (Section IV-C, Fig. 3 of the paper):
//!
//! * [`Linear`] — a fully connected layer.
//! * [`Mlp`] — multi-layer perceptrons for the actor and critic heads.
//! * [`Gcn`] — graph convolutional layers implementing the propagation
//!   rule of Eq. 4, `H' = σ(D^-1/2 (A+I) D^-1/2 H W)`, together with
//!   [`normalized_adjacency`] to precompute the constant propagation
//!   matrix.
//! * [`Adam`] — the Adam optimizer \[27\].
//! * [`Module`] — parameter enumeration, with [`export_params`] /
//!   [`import_params`] for synchronizing parameters across rollout workers.
//!
//! # Examples
//!
//! ```
//! use nptsn_nn::{Activation, Adam, Mlp, Module};
//! use nptsn_tensor::Tensor;
//! use nptsn_rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mlp = Mlp::new(&mut rng, &[2, 16, 1], Activation::Tanh, Activation::Identity);
//! let mut adam = Adam::new(mlp.parameters(), 1e-2);
//!
//! // Fit y = x0 + x1 on four points.
//! let x = Tensor::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
//! let y = Tensor::from_vec(4, 1, vec![0.0, 1.0, 1.0, 2.0]);
//! let mut last = f32::INFINITY;
//! for _ in 0..200 {
//!     adam.zero_grad();
//!     let loss = mlp.forward(&x).sub(&y).square().mean();
//!     loss.backward();
//!     adam.step();
//!     last = loss.item();
//! }
//! assert!(last < 0.05, "loss should shrink, got {last}");
//! ```

#![warn(missing_docs)]

mod adam;
mod checkpoint;
mod gcn;
mod init;
mod linear;
mod mlp;

pub use adam::Adam;
pub use checkpoint::{
    checkpoint_shapes, params_from_bytes, params_to_bytes, read_checkpoint, write_checkpoint,
    CheckpointError,
};
pub use gcn::{normalized_adjacency, Gcn, GcnBatchItem, GcnStack, ShapeError};
pub use init::xavier_uniform;
pub use linear::Linear;
pub use mlp::{Activation, Mlp};

use nptsn_tensor::Tensor;

/// Anything that owns trainable parameters.
pub trait Module {
    /// The trainable parameter tensors, in a stable order.
    fn parameters(&self) -> Vec<Tensor>;

    /// Total number of scalar parameters.
    fn parameter_count(&self) -> usize {
        self.parameters().iter().map(Tensor::len).sum()
    }
}

/// Snapshots parameter values (for checkpointing or shipping to rollout
/// worker threads).
pub fn export_params(params: &[Tensor]) -> Vec<Vec<f32>> {
    params.iter().map(Tensor::to_vec).collect()
}

/// Loads snapshots produced by [`export_params`] back into parameters.
///
/// # Panics
///
/// Panics when counts or shapes disagree.
pub fn import_params(params: &[Tensor], values: &[Vec<f32>]) {
    assert_eq!(params.len(), values.len(), "parameter count mismatch");
    for (p, v) in params.iter().zip(values) {
        p.set_data(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_rand::rngs::StdRng;
    use nptsn_rand::SeedableRng;

    #[test]
    fn export_import_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Mlp::new(&mut rng, &[3, 4, 2], Activation::Relu, Activation::Identity);
        let b = Mlp::new(&mut rng, &[3, 4, 2], Activation::Relu, Activation::Identity);
        let x = Tensor::from_vec(1, 3, vec![0.1, 0.2, 0.3]);
        assert_ne!(a.forward(&x).to_vec(), b.forward(&x).to_vec());
        import_params(&b.parameters(), &export_params(&a.parameters()));
        assert_eq!(a.forward(&x).to_vec(), b.forward(&x).to_vec());
    }

    #[test]
    fn parameter_count_adds_up() {
        let mut rng = StdRng::seed_from_u64(7);
        let mlp = Mlp::new(&mut rng, &[3, 5, 2], Activation::Relu, Activation::Identity);
        // (3*5 + 5) + (5*2 + 2) = 20 + 12.
        assert_eq!(mlp.parameter_count(), 32);
    }
}
