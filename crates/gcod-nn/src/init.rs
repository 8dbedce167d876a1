//! Weight initialisation.

use crate::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Glorot/Xavier uniform initialisation: samples from
/// `U(-limit, limit)` with `limit = sqrt(6 / (fan_in + fan_out))`.
///
/// The limit matches the initialisation used by the reference GCN
/// implementation the paper builds on.
pub(crate) fn glorot_uniform(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let limit = (6.0 / (rows + cols) as f64).sqrt();
    let data = (0..rows * cols)
        .map(|_| ((rng.gen::<f64>() * 2.0 - 1.0) * limit) as f32)
        .collect();
    Tensor::from_vec(rows, cols, data).expect("length matches by construction")
}

/// Zero initialisation (used for biases).
pub(crate) fn zeros(rows: usize, cols: usize) -> Tensor {
    Tensor::zeros(rows, cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glorot_respects_limit() {
        let w = glorot_uniform(64, 32, 0);
        let limit = (6.0f64 / 96.0).sqrt() as f32;
        assert!(w.data().iter().all(|&v| v.abs() <= limit));
    }

    #[test]
    fn glorot_is_seeded() {
        assert_eq!(glorot_uniform(8, 8, 1), glorot_uniform(8, 8, 1));
        assert_ne!(glorot_uniform(8, 8, 1), glorot_uniform(8, 8, 2));
    }

    #[test]
    fn glorot_is_roughly_centred() {
        let w = glorot_uniform(100, 100, 3);
        assert!(w.mean().abs() < 0.01);
    }

    #[test]
    fn zeros_shape() {
        let b = zeros(1, 16);
        assert_eq!(b.shape(), (1, 16));
        assert!(b.data().iter().all(|&v| v == 0.0));
    }
}
