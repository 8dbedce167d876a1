//! Step 3: patch-based structural sparsification.
//!
//! After polarization the off-diagonal region still contains scattered
//! non-zeros. GCoD prunes entire patches whose non-zero count falls below a
//! threshold η (10–30 in the paper), producing the "vacancies" visible in
//! Fig. 4 and letting the sparser-branch hardware skip whole columns. Patches
//! that overlap the block-diagonal subgraphs are never pruned — those carry
//! the accuracy-critical community structure the denser branch processes.

use crate::SubgraphLayout;
use gcod_graph::{CooMatrix, CsrMatrix, PatchGrid};
use serde::{Deserialize, Serialize};

/// Outcome summary of structural sparsification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StructuralReport {
    /// Patch side length used.
    pub patch_size: usize,
    /// Threshold η.
    pub threshold: u32,
    /// Number of patches pruned.
    pub patches_pruned: usize,
    /// Directed non-zeros removed.
    pub nnz_removed: usize,
    /// Directed non-zeros before.
    pub nnz_before: usize,
    /// Directed non-zeros after.
    pub nnz_after: usize,
    /// Structural sparsity gained (`nnz_removed / nnz_before`); the paper
    /// reports 5–15%.
    pub structural_sparsity: f64,
}

/// Prunes off-diagonal patches with fewer than `threshold` non-zeros.
///
/// `adj` must already be in the layout's node order. Symmetry is preserved by
/// pruning mirrored patches together: an entry is removed if *either* its
/// patch or the transposed patch is below the threshold.
pub fn structural_sparsify(
    adj: &CsrMatrix,
    layout: &SubgraphLayout,
    patch_size: usize,
    threshold: u32,
) -> (CsrMatrix, StructuralReport) {
    let grid = PatchGrid::compute(adj, patch_size);
    let n = adj.rows();

    // A patch is protected when it intersects any subgraph's diagonal block.
    let mut protected = vec![false; grid.grid_rows() * grid.grid_cols()];
    for info in layout.subgraphs() {
        let pr_start = info.start / patch_size;
        let pr_end = (info.start + info.len)
            .div_ceil(patch_size)
            .min(grid.grid_rows());
        for pr in pr_start..pr_end {
            for pc in pr_start..pr_end {
                if pc < grid.grid_cols() {
                    protected[pr * grid.grid_cols() + pc] = true;
                }
            }
        }
    }

    // Decide per patch whether it dies.
    let mut prune = vec![false; protected.len()];
    let mut patches_pruned = 0usize;
    for (pr, pc, count) in grid.iter() {
        let idx = pr * grid.grid_cols() + pc;
        if !protected[idx] && count > 0 && count < threshold {
            prune[idx] = true;
            patches_pruned += 1;
        }
    }
    // Symmetrise the decision: prune (i,j) entries whenever either (pr,pc) or
    // (pc,pr) is marked, so the adjacency stays symmetric.
    let is_pruned = |r: usize, c: usize| -> bool {
        let pr = r / patch_size;
        let pc = c / patch_size;
        prune[pr * grid.grid_cols() + pc] || prune[pc * grid.grid_cols() + pr]
    };

    let nnz_before = adj.nnz();
    let mut coo = CooMatrix::with_capacity(n, n, nnz_before);
    for (r, c, v) in adj.iter() {
        if !is_pruned(r, c) {
            coo.push(r, c, v).expect("indices already valid");
        }
    }
    let pruned_adj = coo.to_csr();
    let nnz_after = pruned_adj.nnz();
    let report = StructuralReport {
        patch_size,
        threshold,
        patches_pruned,
        nnz_removed: nnz_before - nnz_after,
        nnz_before,
        nnz_after,
        structural_sparsity: if nnz_before > 0 {
            (nnz_before - nnz_after) as f64 / nnz_before as f64
        } else {
            0.0
        },
    };
    (pruned_adj, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GcodConfig, SubgraphLayout};
    use gcod_graph::{DatasetProfile, Graph, GraphGenerator};

    fn setup() -> (Graph, SubgraphLayout) {
        let g = GraphGenerator::new(31)
            .generate(&DatasetProfile::custom("str", 300, 1200, 8, 4))
            .unwrap();
        let cfg = GcodConfig {
            num_classes: 2,
            num_subgraphs: 8,
            num_groups: 2,
            ..GcodConfig::default()
        };
        let layout = SubgraphLayout::build(&g, &cfg, 0).unwrap();
        let permuted = layout.apply(&g);
        (permuted, layout)
    }

    #[test]
    fn removes_sparse_off_diagonal_patches() {
        let (g, layout) = setup();
        let (pruned, report) = structural_sparsify(g.adjacency(), &layout, 16, 8);
        assert!(report.nnz_after <= report.nnz_before);
        assert_eq!(report.nnz_before - report.nnz_after, report.nnz_removed);
        assert_eq!(pruned.nnz(), report.nnz_after);
        assert!(report.structural_sparsity < 0.6, "should not gut the graph");
    }

    #[test]
    fn higher_threshold_removes_more() {
        let (g, layout) = setup();
        let (_, low) = structural_sparsify(g.adjacency(), &layout, 16, 3);
        let (_, high) = structural_sparsify(g.adjacency(), &layout, 16, 30);
        assert!(high.nnz_removed >= low.nnz_removed);
    }

    #[test]
    fn zero_threshold_is_a_noop() {
        let (g, layout) = setup();
        let (pruned, report) = structural_sparsify(g.adjacency(), &layout, 16, 0);
        assert_eq!(pruned.nnz(), g.num_edges());
        assert_eq!(report.patches_pruned, 0);
        assert_eq!(report.structural_sparsity, 0.0);
    }

    #[test]
    fn diagonal_blocks_are_protected() {
        let (g, layout) = setup();
        let before_diag: usize = layout.subgraphs().iter().map(|s| s.internal_nnz).sum();
        let (pruned, _) = structural_sparsify(g.adjacency(), &layout, 16, 1000);
        // Count remaining intra-subgraph edges.
        let mut after_diag = 0usize;
        for info in layout.subgraphs() {
            after_diag += pruned.block_nnz(
                info.start,
                info.start + info.len,
                info.start,
                info.start + info.len,
            );
        }
        assert_eq!(
            after_diag, before_diag,
            "block-diagonal edges must never be structurally pruned"
        );
    }

    #[test]
    fn result_stays_symmetric() {
        let (g, layout) = setup();
        let (pruned, _) = structural_sparsify(g.adjacency(), &layout, 16, 10);
        for (r, c, v) in pruned.iter() {
            assert_eq!(pruned.get(c, r), v, "asymmetry at ({r},{c})");
        }
    }
}
