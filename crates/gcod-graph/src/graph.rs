//! The attributed graph type consumed by the GNN models.

use crate::{CsrMatrix, GraphError, Permutation, Result};
use serde::{Deserialize, Serialize};

/// Boolean mask over nodes for one split.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeMask {
    bits: Vec<bool>,
}

impl NodeMask {
    /// A mask of `n` nodes, all unset.
    pub fn new(n: usize) -> Self {
        Self {
            bits: vec![false; n],
        }
    }

    /// Builds a mask from the listed node indices.
    pub fn from_indices(n: usize, indices: &[usize]) -> Self {
        let mut mask = Self::new(n);
        for &i in indices {
            if i < n {
                mask.bits[i] = true;
            }
        }
        mask
    }

    /// Number of nodes covered by the mask.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the mask covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Whether node `i` is selected.
    pub fn contains(&self, i: usize) -> bool {
        self.bits.get(i).copied().unwrap_or(false)
    }

    /// Number of selected nodes.
    pub fn count(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Iterates over the selected node indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| if b { Some(i) } else { None })
    }

    /// Permutes the mask alongside a node reordering.
    pub fn permute(&self, perm: &Permutation) -> NodeMask {
        let mut bits = vec![false; self.bits.len()];
        for (old, &b) in self.bits.iter().enumerate() {
            bits[perm.apply(old)] = b;
        }
        NodeMask { bits }
    }
}

/// An attributed graph: adjacency, node features, labels and split masks.
///
/// Features are stored row-major (`num_nodes × feature_dim`), labels as one
/// class id per node. This is the single input type shared by the GNN models,
/// the GCoD training pipeline and the accelerator simulators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    adjacency: CsrMatrix,
    features: Vec<f32>,
    feature_dim: usize,
    labels: Vec<u32>,
    num_classes: usize,
    train_mask: NodeMask,
    val_mask: NodeMask,
    test_mask: NodeMask,
    name: String,
}

impl Graph {
    /// Builds a graph from its parts.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DimensionMismatch`] when the adjacency matrix is
    /// not square or the feature/label/mask lengths disagree with the number
    /// of nodes.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        adjacency: CsrMatrix,
        features: Vec<f32>,
        feature_dim: usize,
        labels: Vec<u32>,
        num_classes: usize,
        train_mask: NodeMask,
        val_mask: NodeMask,
        test_mask: NodeMask,
    ) -> Result<Self> {
        let n = adjacency.rows();
        if adjacency.cols() != n {
            return Err(GraphError::DimensionMismatch {
                context: format!(
                    "adjacency must be square, got {}x{}",
                    adjacency.rows(),
                    adjacency.cols()
                ),
            });
        }
        if feature_dim == 0 || features.len() != n * feature_dim {
            return Err(GraphError::DimensionMismatch {
                context: format!(
                    "features length {} != nodes {} * feature_dim {}",
                    features.len(),
                    n,
                    feature_dim
                ),
            });
        }
        if labels.len() != n {
            return Err(GraphError::DimensionMismatch {
                context: format!("labels length {} != nodes {}", labels.len(), n),
            });
        }
        if labels.iter().any(|&l| l as usize >= num_classes) {
            return Err(GraphError::DimensionMismatch {
                context: format!("a label exceeds num_classes {num_classes}"),
            });
        }
        for (mask, which) in [
            (&train_mask, "train"),
            (&val_mask, "validation"),
            (&test_mask, "test"),
        ] {
            if mask.len() != n {
                return Err(GraphError::DimensionMismatch {
                    context: format!("{which} mask length {} != nodes {}", mask.len(), n),
                });
            }
        }
        Ok(Self {
            adjacency,
            features,
            feature_dim,
            labels,
            num_classes,
            train_mask,
            val_mask,
            test_mask,
            name: name.into(),
        })
    }

    /// Dataset name (e.g. "cora").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adjacency.rows()
    }

    /// Number of stored directed edges (twice the undirected edge count for a
    /// symmetric adjacency).
    pub fn num_edges(&self) -> usize {
        self.adjacency.nnz()
    }

    /// Feature dimension per node.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Number of label classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Adjacency matrix.
    pub fn adjacency(&self) -> &CsrMatrix {
        &self.adjacency
    }

    /// Replaces the adjacency matrix (used by the GCoD graph tuning steps),
    /// keeping features, labels and masks.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DimensionMismatch`] if the new matrix has a
    /// different number of nodes.
    pub fn with_adjacency(&self, adjacency: CsrMatrix) -> Result<Graph> {
        if adjacency.rows() != self.num_nodes() || adjacency.cols() != self.num_nodes() {
            return Err(GraphError::DimensionMismatch {
                context: format!(
                    "replacement adjacency {}x{} does not match {} nodes",
                    adjacency.rows(),
                    adjacency.cols(),
                    self.num_nodes()
                ),
            });
        }
        let mut g = self.clone();
        g.adjacency = adjacency;
        Ok(g)
    }

    /// Node features, row-major `num_nodes × feature_dim`.
    pub fn features(&self) -> &[f32] {
        &self.features
    }

    /// Class labels per node.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Training mask.
    pub fn train_mask(&self) -> &NodeMask {
        &self.train_mask
    }

    /// Validation mask.
    pub fn val_mask(&self) -> &NodeMask {
        &self.val_mask
    }

    /// Test mask.
    pub fn test_mask(&self) -> &NodeMask {
        &self.test_mask
    }

    /// Degrees of all nodes.
    pub fn degrees(&self) -> Vec<usize> {
        self.adjacency.row_degrees()
    }

    /// Sparsity of the adjacency matrix (fraction of zero entries).
    pub fn sparsity(&self) -> f64 {
        1.0 - self.adjacency.density()
    }

    /// Applies a node permutation to the whole graph: adjacency, features,
    /// labels and masks move together.
    pub fn permute(&self, perm: &Permutation) -> Graph {
        assert_eq!(perm.len(), self.num_nodes(), "permutation length mismatch");
        let adjacency = self.adjacency.permute_symmetric(perm);
        let features = perm.permute_rows(&self.features, self.feature_dim);
        let mut labels = vec![0u32; self.labels.len()];
        for (old, &l) in self.labels.iter().enumerate() {
            labels[perm.apply(old)] = l;
        }
        Graph {
            adjacency,
            features,
            feature_dim: self.feature_dim,
            labels,
            num_classes: self.num_classes,
            train_mask: self.train_mask.permute(perm),
            val_mask: self.val_mask.permute(perm),
            test_mask: self.test_mask.permute(perm),
            name: self.name.clone(),
        }
    }

    /// Approximate in-memory footprint in bytes (adjacency + features).
    pub fn storage_bytes(&self) -> usize {
        self.adjacency.storage_bytes() + self.features.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn tiny_graph() -> Graph {
        let mut coo = CooMatrix::new(4, 4);
        for (a, b) in [(0, 1), (1, 2), (2, 3)] {
            coo.push(a, b, 1.0).unwrap();
            coo.push(b, a, 1.0).unwrap();
        }
        let adj = coo.to_csr();
        let features = vec![0.5f32; 4 * 3];
        let labels = vec![0, 1, 0, 1];
        Graph::new(
            "tiny",
            adj,
            features,
            3,
            labels,
            2,
            NodeMask::from_indices(4, &[0, 1]),
            NodeMask::from_indices(4, &[2]),
            NodeMask::from_indices(4, &[3]),
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let g = tiny_graph();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.feature_dim(), 3);
        assert_eq!(g.num_classes(), 2);
        assert_eq!(g.name(), "tiny");
        assert_eq!(g.features().len(), 4 * 3);
    }

    #[test]
    fn new_rejects_bad_shapes() {
        let adj = CooMatrix::new(3, 4).to_csr();
        let err = Graph::new(
            "bad",
            adj,
            vec![0.0; 9],
            3,
            vec![0, 0, 0],
            1,
            NodeMask::new(3),
            NodeMask::new(3),
            NodeMask::new(3),
        );
        assert!(matches!(err, Err(GraphError::DimensionMismatch { .. })));
    }

    #[test]
    fn new_rejects_label_out_of_range() {
        let adj = CooMatrix::new(2, 2).to_csr();
        let err = Graph::new(
            "bad",
            adj,
            vec![0.0; 2],
            1,
            vec![0, 5],
            2,
            NodeMask::new(2),
            NodeMask::new(2),
            NodeMask::new(2),
        );
        assert!(err.is_err());
    }

    #[test]
    fn mask_counts_and_iteration() {
        let mask = NodeMask::from_indices(5, &[1, 3]);
        assert_eq!(mask.count(), 2);
        assert_eq!(mask.iter().collect::<Vec<_>>(), vec![1, 3]);
        assert!(!mask.contains(0));
        assert!(mask.contains(3));
    }

    #[test]
    fn permute_preserves_structure() {
        let g = tiny_graph();
        let perm = Permutation::from_order(&[3, 2, 1, 0]).unwrap();
        let p = g.permute(&perm);
        assert_eq!(p.num_edges(), g.num_edges());
        // Edge (0,1) becomes (3,2).
        assert_eq!(p.adjacency().get(3, 2), 1.0);
        // Label of old node 1 moves to new node 2.
        assert_eq!(p.labels()[2], g.labels()[1]);
        // Train mask follows.
        assert!(p.train_mask().contains(3));
    }

    #[test]
    fn with_adjacency_checks_node_count() {
        let g = tiny_graph();
        let smaller = CooMatrix::new(3, 3).to_csr();
        assert!(g.with_adjacency(smaller).is_err());
        let same = g.adjacency().clone();
        assert!(g.with_adjacency(same).is_ok());
    }

    #[test]
    fn sparsity_of_a_path() {
        let g = tiny_graph();
        assert!(g.sparsity() > 0.5);
    }
}
