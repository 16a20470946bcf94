//! Parameter initialization.

use nptsn_tensor::Tensor;
use nptsn_rand::Rng;

/// Xavier/Glorot uniform initialization: a `(rows, cols)` parameter drawn
/// from `U(-a, a)` with `a = sqrt(6 / (rows + cols))`.
///
/// Keeps activation variances stable across layers for tanh/linear
/// networks and is a solid default for relu at these widths.
///
/// # Examples
///
/// ```
/// use nptsn_nn::xavier_uniform;
/// use nptsn_rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let w = xavier_uniform(&mut rng, 64, 64);
/// let bound = (6.0f32 / 128.0).sqrt();
/// assert!(w.to_vec().iter().all(|v| v.abs() <= bound));
/// ```
pub fn xavier_uniform(rng: &mut impl Rng, rows: usize, cols: usize) -> Tensor {
    let bound = (6.0 / (rows + cols) as f32).sqrt();
    let data = (0..rows * cols).map(|_| rng.gen_range(-bound..=bound)).collect();
    Tensor::param(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_rand::rngs::StdRng;
    use nptsn_rand::SeedableRng;

    #[test]
    fn values_within_bound_and_nondegenerate() {
        let mut rng = StdRng::seed_from_u64(42);
        let w = xavier_uniform(&mut rng, 10, 30);
        let bound = (6.0f32 / 40.0).sqrt();
        let vals = w.to_vec();
        assert!(vals.iter().all(|v| v.abs() <= bound));
        // Not all identical.
        assert!(vals.iter().any(|&v| (v - vals[0]).abs() > 1e-6));
        assert!(w.requires_grad());
    }

    #[test]
    fn seeded_reproducibility() {
        let a = xavier_uniform(&mut StdRng::seed_from_u64(1), 4, 4).to_vec();
        let b = xavier_uniform(&mut StdRng::seed_from_u64(1), 4, 4).to_vec();
        assert_eq!(a, b);
    }
}
