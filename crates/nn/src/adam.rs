//! The Adam gradient optimizer (Kingma & Ba).

use nptsn_tensor::Tensor;

/// Adam: adaptive moment estimation over a fixed parameter list.
///
/// All gradient updates in the paper use Adam (Section IV-C); the defaults
/// here are the standard `beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`.
///
/// # Examples
///
/// ```
/// use nptsn_nn::Adam;
/// use nptsn_tensor::Tensor;
///
/// let w = Tensor::param(1, 1, vec![5.0]);
/// let mut adam = Adam::new(vec![w.clone()], 0.1);
/// for _ in 0..500 {
///     adam.zero_grad();
///     w.square().mean().backward();
///     adam.step();
/// }
/// assert!(w.item().abs() < 0.1, "should approach the minimum at 0");
/// ```
#[derive(Debug)]
pub struct Adam {
    params: Vec<Tensor>,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    t: u64,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
}

impl Adam {
    /// Creates an optimizer over `params` with learning rate `lr` and the
    /// standard moment coefficients.
    pub fn new(params: Vec<Tensor>, lr: f32) -> Adam {
        Adam::with_betas(params, lr, 0.9, 0.999, 1e-8)
    }

    /// Creates an optimizer with explicit moment coefficients.
    pub fn with_betas(params: Vec<Tensor>, lr: f32, beta1: f32, beta2: f32, eps: f32) -> Adam {
        let m = params.iter().map(|p| vec![0.0; p.len()]).collect();
        let v = params.iter().map(|p| vec![0.0; p.len()]).collect();
        Adam { params, m, v, t: 0, lr, beta1, beta2, eps }
    }

    /// The current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Replaces the learning rate (e.g. for schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Clears the gradients of every managed parameter.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Applies one Adam update using the currently accumulated gradients.
    pub fn step(&mut self) {
        let _span = nptsn_obs::span("adam.step");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in self.params.iter().enumerate() {
            let grad = p.grad();
            let (m, v) = (&mut self.m[i], &mut self.v[i]);
            let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
            p.update_data(|j, x| {
                m[j] = b1 * m[j] + (1.0 - b1) * grad[j];
                v[j] = b2 * v[j] + (1.0 - b2) * grad[j] * grad[j];
                let m_hat = m[j] / bc1;
                let v_hat = v[j] / bc2;
                x - lr * m_hat / (v_hat.sqrt() + eps)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_a_quadratic() {
        let w = Tensor::param(1, 2, vec![3.0, -4.0]);
        let target = Tensor::from_vec(1, 2, vec![1.0, 2.0]);
        let mut adam = Adam::new(vec![w.clone()], 0.05);
        for _ in 0..1000 {
            adam.zero_grad();
            w.sub(&target).square().mean().backward();
            adam.step();
        }
        let v = w.to_vec();
        assert!((v[0] - 1.0).abs() < 0.05 && (v[1] - 2.0).abs() < 0.05, "{v:?}");
    }

    #[test]
    fn first_step_moves_by_about_lr() {
        // Adam's bias correction makes the first step ~= lr * sign(grad).
        let w = Tensor::param(1, 1, vec![0.0]);
        let mut adam = Adam::new(vec![w.clone()], 0.01);
        w.scale(3.0).mean().backward(); // grad = 3
        adam.step();
        assert!((w.item() + 0.01).abs() < 1e-4, "moved {}", w.item());
    }

    #[test]
    fn zero_grad_clears_accumulation() {
        let w = Tensor::param(1, 1, vec![1.0]);
        let adam = Adam::new(vec![w.clone()], 0.01);
        w.square().mean().backward();
        assert!(w.grad()[0] != 0.0);
        adam.zero_grad();
        assert_eq!(w.grad(), vec![0.0]);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut adam = Adam::new(vec![Tensor::param(1, 1, vec![0.0])], 0.5);
        assert_eq!(adam.learning_rate(), 0.5);
        adam.set_learning_rate(0.25);
        assert_eq!(adam.learning_rate(), 0.25);
    }
}
