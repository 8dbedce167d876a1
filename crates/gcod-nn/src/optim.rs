//! First-order optimisers.
//!
//! The paper trains all models with Adam (lr = 0.01) for 400 epochs.

use crate::Tensor;

/// Adam optimiser with bias-corrected first and second moments.
#[derive(Debug, Clone)]
pub(crate) struct Adam {
    learning_rate: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    weight_decay: f32,
    step: u64,
    first_moments: Vec<Tensor>,
    second_moments: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimiser with the paper's default learning rate 0.01.
    pub(crate) fn new(learning_rate: f32) -> Self {
        Self {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            weight_decay: 0.0,
            step: 0,
            first_moments: Vec::new(),
            second_moments: Vec::new(),
        }
    }

    /// Adds decoupled weight decay.
    pub(crate) fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    /// Applies one update step. `params` and `grads` must be parallel slices
    /// with matching shapes; moment buffers are created lazily on the first
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()` or a shape changes between
    /// calls.
    pub(crate) fn step(&mut self, params: &mut [&mut Tensor], grads: &[Tensor]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        if self.first_moments.is_empty() {
            self.first_moments = grads
                .iter()
                .map(|g| Tensor::zeros(g.rows(), g.cols()))
                .collect();
            self.second_moments = self.first_moments.clone();
        }
        self.step += 1;
        let bias1 = 1.0 - self.beta1.powi(self.step as i32);
        let bias2 = 1.0 - self.beta2.powi(self.step as i32);
        for ((param, grad), (m, v)) in params
            .iter_mut()
            .zip(grads)
            .zip(self.first_moments.iter_mut().zip(&mut self.second_moments))
        {
            assert_eq!(
                param.shape(),
                grad.shape(),
                "parameter/gradient shape mismatch"
            );
            let pdata = param.data_mut();
            let gdata = grad.data();
            let mdata = m.data_mut();
            let vdata = v.data_mut();
            for i in 0..pdata.len() {
                let g = gdata[i] + self.weight_decay * pdata[i];
                mdata[i] = self.beta1 * mdata[i] + (1.0 - self.beta1) * g;
                vdata[i] = self.beta2 * vdata[i] + (1.0 - self.beta2) * g * g;
                let m_hat = mdata[i] / bias1;
                let v_hat = vdata[i] / bias2;
                pdata[i] -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimises f(x) = (x - 3)^2 with gradient 2(x - 3).
    fn quadratic_descent<F: FnMut(&mut Tensor, &Tensor)>(mut apply: F) -> f32 {
        let mut x = Tensor::from_vec(1, 1, vec![10.0]).unwrap();
        for _ in 0..300 {
            let g = Tensor::from_vec(1, 1, vec![2.0 * (x.get(0, 0) - 3.0)]).unwrap();
            apply(&mut x, &g);
        }
        x.get(0, 0)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.1);
        let x = quadratic_descent(|x, g| adam.step(&mut [x], std::slice::from_ref(g)));
        assert!((x - 3.0).abs() < 0.1, "converged to {x}");
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut adam = Adam::new(0.01).with_weight_decay(0.5);
        let mut x = Tensor::from_vec(1, 1, vec![5.0]).unwrap();
        let zero_grad = Tensor::zeros(1, 1);
        for _ in 0..200 {
            adam.step(&mut [&mut x], std::slice::from_ref(&zero_grad));
        }
        assert!(x.get(0, 0).abs() < 5.0, "decay should shrink the parameter");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut adam = Adam::new(0.01);
        let mut x = Tensor::zeros(1, 1);
        adam.step(&mut [&mut x], &[]);
    }
}
