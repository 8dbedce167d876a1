//! Node permutations.
//!
//! GCoD's split-and-conquer step reorders the nodes so that each degree class
//! and each group occupies a contiguous index range; everything downstream
//! (adjacency relabelling, feature rows, labels, masks) is expressed through
//! a [`Permutation`].

use crate::{GraphError, Result};
use serde::{Deserialize, Serialize};

/// A bijective mapping from old node indices to new node indices.
///
/// `perm.apply(old) == new`. The inverse mapping is materialised lazily by
/// [`Permutation::inverse`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Permutation {
    forward: Vec<u32>,
}

impl Permutation {
    /// Identity permutation over `n` elements.
    pub fn identity(n: usize) -> Self {
        Self {
            forward: (0..n as u32).collect(),
        }
    }

    /// Builds the permutation that places the nodes in the order given by
    /// `order`: the node `order[k]` is mapped to position `k`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if `order` is not a
    /// permutation of `0..order.len()`.
    pub fn from_order(order: &[usize]) -> Result<Self> {
        let n = order.len();
        let mut forward = vec![u32::MAX; n];
        for (new_pos, &old) in order.iter().enumerate() {
            if old >= n || forward[old] != u32::MAX {
                return Err(GraphError::InvalidParameter {
                    name: "order",
                    reason: format!("order is not a permutation of 0..{n}"),
                });
            }
            forward[old] = new_pos as u32;
        }
        Ok(Self { forward })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether the permutation is over zero elements.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Maps an old index to its new index.
    ///
    /// # Panics
    ///
    /// Panics if `old >= self.len()`.
    pub fn apply(&self, old: usize) -> usize {
        self.forward[old] as usize
    }

    /// The forward map as a slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.forward
    }

    /// The inverse permutation (new index -> old index).
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0u32; self.forward.len()];
        for (old, &new) in self.forward.iter().enumerate() {
            inv[new as usize] = old as u32;
        }
        Permutation { forward: inv }
    }

    /// Permutes the rows of a table with `row_len` contiguous values per
    /// element (used for feature matrices stored row-major).
    pub(crate) fn permute_rows<T: Copy + Default>(&self, data: &[T], row_len: usize) -> Vec<T> {
        assert_eq!(data.len(), self.len() * row_len, "data shape mismatch");
        let mut out = vec![T::default(); data.len()];
        for old in 0..self.len() {
            let new = self.apply(old);
            out[new * row_len..(new + 1) * row_len]
                .copy_from_slice(&data[old * row_len..(old + 1) * row_len]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let p = Permutation::identity(5);
        assert_eq!(p.as_slice(), &[0, 1, 2, 3, 4]);
        assert_eq!(p.apply(3), 3);
        assert_eq!(p.inverse(), p);
    }

    #[test]
    fn from_order_rejects_non_permutation() {
        assert!(Permutation::from_order(&[0, 0, 1]).is_err());
        assert!(Permutation::from_order(&[0, 3, 1]).is_err());
        assert!(Permutation::from_order(&[2, 0, 1]).is_ok());
    }

    #[test]
    fn from_order_places_nodes() {
        // order = [2, 0, 1]: node 2 goes to position 0.
        let p = Permutation::from_order(&[2, 0, 1]).unwrap();
        assert_eq!(p.apply(2), 0);
        assert_eq!(p.apply(0), 1);
        assert_eq!(p.apply(1), 2);
    }

    #[test]
    fn inverse_undoes_forward() {
        let p = Permutation::from_order(&[1, 3, 0, 2]).unwrap();
        let inv = p.inverse();
        for i in 0..4 {
            assert_eq!(inv.apply(p.apply(i)), i);
        }
    }

    #[test]
    fn permute_rows_moves_feature_rows() {
        let p = Permutation::from_order(&[1, 0]).unwrap();
        let data = vec![1.0f32, 2.0, 3.0, 4.0]; // two rows of two
        let permuted = p.permute_rows(&data, 2);
        assert_eq!(permuted, vec![3.0, 4.0, 1.0, 2.0]);
    }

    #[test]
    fn empty_permutation() {
        let p = Permutation::identity(0);
        assert!(p.is_empty());
    }
}
