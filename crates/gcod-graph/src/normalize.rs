//! Degree computation and adjacency normalization.
//!
//! GCN inference uses the symmetrically normalized adjacency
//! `Â = D^{-1/2} (A + I) D^{-1/2}` (Kipf & Welling formulation referenced in
//! Sec. IV-A of the paper). GraphSAGE-style mean aggregation uses the row
//! normalized variant `D^{-1} A`.

use crate::{CooMatrix, CsrMatrix};

/// Whether to add self loops before normalizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelfLoops {
    /// Add the identity to the adjacency matrix before normalizing (the GCN
    /// renormalization trick). This is the default.
    #[default]
    Add,
    /// Normalize the adjacency matrix as given.
    Keep,
}

/// Returns the degree of every node, counting stored entries per row.
///
/// For a symmetric adjacency matrix this is the ordinary node degree; for a
/// directed one it is the out-degree.
pub(crate) fn degree_vector(adj: &CsrMatrix) -> Vec<f64> {
    (0..adj.rows()).map(|r| adj.row_nnz(r) as f64).collect()
}

/// Symmetric normalization `D^{-1/2} (A [+ I]) D^{-1/2}`.
///
/// Isolated nodes (degree zero after optional self-loop insertion) keep a
/// zero row rather than producing NaNs.
pub fn normalize_symmetric(adj: &CsrMatrix, self_loops: SelfLoops) -> CsrMatrix {
    let with_loops = match self_loops {
        SelfLoops::Add => add_self_loops(adj),
        SelfLoops::Keep => adj.clone(),
    };
    let degrees = degree_vector(&with_loops);
    let inv_sqrt: Vec<f64> = degrees
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    scale_entries(&with_loops, |r, c, v| {
        (v as f64 * inv_sqrt[r] * inv_sqrt[c]) as f32
    })
}

/// Row normalization `D^{-1} (A [+ I])` (mean aggregation).
pub fn normalize_row(adj: &CsrMatrix, self_loops: SelfLoops) -> CsrMatrix {
    let with_loops = match self_loops {
        SelfLoops::Add => add_self_loops(adj),
        SelfLoops::Keep => adj.clone(),
    };
    let degrees = degree_vector(&with_loops);
    let inv: Vec<f64> = degrees
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
        .collect();
    scale_entries(&with_loops, |r, _c, v| (v as f64 * inv[r]) as f32)
}

fn add_self_loops(adj: &CsrMatrix) -> CsrMatrix {
    let n = adj.rows();
    let mut coo = adj.to_coo();
    for i in 0..n {
        if adj.get(i, i) == 0.0 {
            coo.push(i, i, 1.0).expect("diagonal index is in range");
        }
    }
    coo.to_csr()
}

fn scale_entries<F>(adj: &CsrMatrix, mut scale: F) -> CsrMatrix
where
    F: FnMut(usize, usize, f32) -> f32,
{
    let mut coo = CooMatrix::with_capacity(adj.rows(), adj.cols(), adj.nnz());
    for (r, c, v) in adj.iter() {
        coo.push(r, c, scale(r, c, v))
            .expect("indices already valid");
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn triangle() -> CsrMatrix {
        let mut coo = CooMatrix::new(3, 3);
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            coo.push(a, b, 1.0).unwrap();
            coo.push(b, a, 1.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn degree_vector_counts_neighbors() {
        let adj = triangle();
        assert_eq!(degree_vector(&adj), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn symmetric_normalization_rows_bounded_by_one() {
        let adj = triangle();
        let norm = normalize_symmetric(&adj, SelfLoops::Add);
        // With self loops every node has degree 3, so each entry is 1/3.
        for (_, _, v) in norm.iter() {
            assert!((v - 1.0 / 3.0).abs() < 1e-6);
        }
        assert_eq!(norm.nnz(), adj.nnz() + 3);
    }

    #[test]
    fn symmetric_normalization_without_self_loops() {
        let adj = triangle();
        let norm = normalize_symmetric(&adj, SelfLoops::Keep);
        assert_eq!(norm.nnz(), adj.nnz());
        for (_, _, v) in norm.iter() {
            assert!((v - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn row_normalization_rows_sum_to_one() {
        let adj = triangle();
        let norm = normalize_row(&adj, SelfLoops::Add);
        for r in 0..norm.rows() {
            let (_, vals) = norm.row(r);
            let sum: f32 = vals.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn isolated_nodes_do_not_produce_nan() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        let adj = coo.to_csr();
        let norm = normalize_symmetric(&adj, SelfLoops::Keep);
        for (_, _, v) in norm.iter() {
            assert!(v.is_finite());
        }
        // Node 2 is isolated and keeps an empty row.
        assert_eq!(norm.row_nnz(2), 0);
    }

    #[test]
    fn self_loops_not_duplicated() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        let adj = coo.to_csr();
        let norm = normalize_symmetric(&adj, SelfLoops::Add);
        // Node 0 already had a self loop; only node 1 gains one.
        assert_eq!(norm.nnz(), adj.nnz() + 1);
    }
}
