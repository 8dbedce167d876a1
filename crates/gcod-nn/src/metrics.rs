//! Classification metrics.

use crate::Tensor;
use gcod_graph::NodeMask;

/// Fraction of masked nodes whose argmax prediction matches the label.
/// Returns 0 when the mask is empty.
pub fn masked_accuracy(logits: &Tensor, labels: &[u32], mask: &NodeMask) -> f64 {
    let predictions = logits.argmax_rows();
    let mut correct = 0usize;
    let mut total = 0usize;
    for node in mask.iter() {
        if node < labels.len() {
            total += 1;
            if predictions[node] == labels[node] as usize {
                correct += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_of_perfect_predictions() {
        let logits = Tensor::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0]).unwrap();
        let labels = vec![0, 1, 0];
        let mask = NodeMask::from_indices(3, &[0, 1, 2]);
        assert_eq!(masked_accuracy(&logits, &labels, &mask), 1.0);
    }

    #[test]
    fn accuracy_respects_mask() {
        let logits = Tensor::from_vec(2, 2, vec![1.0, 0.0, 1.0, 0.0]).unwrap();
        let labels = vec![0, 1]; // node 1 is wrong but excluded by the mask
        let mask = NodeMask::from_indices(2, &[0]);
        assert_eq!(masked_accuracy(&logits, &labels, &mask), 1.0);
    }

    #[test]
    fn empty_mask_gives_zero() {
        let logits = Tensor::zeros(2, 2);
        assert_eq!(masked_accuracy(&logits, &[0, 0], &NodeMask::new(2)), 0.0);
    }
}
