//! Patch density and whole-matrix statistics.
//!
//! Two consumers rely on these statistics:
//!
//! * the GCoD **structural sparsification** step prunes patches whose
//!   non-zero count falls below a threshold η (Step 3, Sec. IV-B),
//! * the **accelerator simulator** estimates per-chunk workloads from the
//!   non-zero distribution over the block-diagonal (denser) and off-diagonal
//!   (sparser) regions.

use crate::CsrMatrix;
use serde::{Deserialize, Serialize};

/// A uniform grid of square patches over the adjacency matrix.
///
/// This is the "patch" granularity of Fig. 2 in the paper: structural
/// sparsification removes entire patches, and the visualization in Fig. 4
/// renders patch densities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatchGrid {
    patch_size: usize,
    grid_rows: usize,
    grid_cols: usize,
    counts: Vec<u32>,
}

impl PatchGrid {
    /// Computes patch non-zero counts for `adj` with square patches of
    /// `patch_size` (the last row/column of patches may be ragged).
    ///
    /// # Panics
    ///
    /// Panics if `patch_size == 0`.
    pub fn compute(adj: &CsrMatrix, patch_size: usize) -> Self {
        assert!(patch_size > 0, "patch_size must be positive");
        let grid_rows = adj.rows().div_ceil(patch_size);
        let grid_cols = adj.cols().div_ceil(patch_size);
        let mut counts = vec![0u32; grid_rows * grid_cols];
        for (r, c, _) in adj.iter() {
            let pr = r / patch_size;
            let pc = c / patch_size;
            counts[pr * grid_cols + pc] += 1;
        }
        Self {
            patch_size,
            grid_rows,
            grid_cols,
            counts,
        }
    }

    /// Number of patch rows.
    pub fn grid_rows(&self) -> usize {
        self.grid_rows
    }

    /// Number of patch columns.
    pub fn grid_cols(&self) -> usize {
        self.grid_cols
    }

    /// Non-zero count of the patch at grid position `(pr, pc)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is outside the grid.
    pub fn count(&self, pr: usize, pc: usize) -> u32 {
        self.counts[pr * self.grid_cols + pc]
    }

    /// Iterates `(patch_row, patch_col, nnz)` over all patches.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, u32)> + '_ {
        (0..self.grid_rows)
            .flat_map(move |pr| (0..self.grid_cols).map(move |pc| (pr, pc, self.count(pr, pc))))
    }

    /// The maximum patch count (the densest patch).
    pub fn max_count(&self) -> u32 {
        self.counts.iter().copied().max().unwrap_or(0)
    }
}

/// Whole-matrix summary statistics used in reports and by the workload
/// models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Number of nodes (rows of the adjacency matrix).
    pub nodes: usize,
    /// Number of stored non-zeros (directed edges).
    pub nnz: usize,
    /// Fraction of zero entries.
    pub sparsity: f64,
    /// Average node degree.
    pub average_degree: f64,
    /// Maximum node degree.
    pub max_degree: usize,
    /// Gini coefficient of the degree distribution (0 = perfectly even,
    /// values close to 1 = extremely hub dominated). Quantifies the
    /// "power-law irregularity" the paper describes.
    pub degree_gini: f64,
    /// Fraction of non-zeros lying within the block-diagonal band of width
    /// `nodes / 8` (a locality proxy used in reports).
    pub diagonal_mass: f64,
}

impl GraphStats {
    /// Computes statistics for an adjacency matrix.
    pub fn compute(adj: &CsrMatrix) -> Self {
        let nodes = adj.rows();
        let nnz = adj.nnz();
        let degrees = adj.row_degrees();
        let max_degree = degrees.iter().copied().max().unwrap_or(0);
        let average_degree = if nodes > 0 {
            nnz as f64 / nodes as f64
        } else {
            0.0
        };
        let degree_gini = gini(&degrees);
        let band = (nodes / 8).max(1);
        let diag_nnz = adj
            .iter()
            .filter(|&(r, c, _)| r.abs_diff(c) <= band)
            .count();
        let diagonal_mass = if nnz > 0 {
            diag_nnz as f64 / nnz as f64
        } else {
            0.0
        };
        Self {
            nodes,
            nnz,
            sparsity: 1.0 - adj.density(),
            average_degree,
            max_degree,
            degree_gini,
            diagonal_mass,
        }
    }
}

fn gini(values: &[usize]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("degrees are finite"));
    let n = sorted.len() as f64;
    let sum: f64 = sorted.iter().sum();
    if sum == 0.0 {
        return 0.0;
    }
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as f64 + 1.0) * v)
        .sum();
    (2.0 * weighted) / (n * sum) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::GeneratorConfig;
    use crate::{CooMatrix, GraphGenerator};

    fn block_diag_matrix() -> CsrMatrix {
        // Two dense 4x4 blocks on the diagonal of an 8x8 matrix.
        let mut coo = CooMatrix::new(8, 8);
        for offset in [0usize, 4] {
            for a in 0..4 {
                for b in 0..4 {
                    if a != b {
                        coo.push(offset + a, offset + b, 1.0).unwrap();
                    }
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn patch_grid_counts_blocks() {
        let adj = block_diag_matrix();
        let grid = PatchGrid::compute(&adj, 4);
        assert_eq!(grid.grid_rows(), 2);
        assert_eq!(grid.grid_cols(), 2);
        assert_eq!(grid.count(0, 0), 12);
        assert_eq!(grid.count(1, 1), 12);
        assert_eq!(grid.count(0, 1), 0);
        assert_eq!(grid.count(1, 0), 0);
        assert_eq!(grid.max_count(), 12);
    }

    #[test]
    fn ragged_grids_cover_whole_matrix() {
        let mut coo = CooMatrix::new(10, 10);
        coo.push(9, 9, 1.0).unwrap();
        let grid = PatchGrid::compute(&coo.to_csr(), 4);
        assert_eq!(grid.grid_rows(), 3);
        assert_eq!(grid.count(2, 2), 1);
    }

    #[test]
    fn stats_of_block_diagonal_matrix() {
        let adj = block_diag_matrix();
        let stats = GraphStats::compute(&adj);
        assert_eq!(stats.nodes, 8);
        assert_eq!(stats.nnz, 24);
        assert_eq!(stats.max_degree, 3);
        assert!((stats.average_degree - 3.0).abs() < 1e-9);
        assert!(
            stats.degree_gini.abs() < 1e-9,
            "uniform degrees => zero gini"
        );
    }

    #[test]
    fn gini_detects_hub_dominance() {
        let cfg = GeneratorConfig {
            nodes: 500,
            edges: 1500,
            communities: 5,
            feature_dim: 4,
            power_law_exponent: 2.0,
            community_mixing: 0.2,
            splits: (0.5, 0.2, 0.3),
            feature_noise: 0.3,
        };
        let g = GraphGenerator::new(9).generate_with(&cfg, "g").unwrap();
        let stats = GraphStats::compute(g.adjacency());
        assert!(
            stats.degree_gini > 0.2,
            "power-law graph should be unequal, gini = {}",
            stats.degree_gini
        );
    }

    #[test]
    #[should_panic(expected = "patch_size must be positive")]
    fn zero_patch_size_panics() {
        let adj = block_diag_matrix();
        let _ = PatchGrid::compute(&adj, 0);
    }
}
