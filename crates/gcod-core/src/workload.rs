//! Denser/sparser workload extraction.
//!
//! The GCoD accelerator's two branches consume two different views of the
//! tuned adjacency matrix (Fig. 1 and Fig. 6):
//!
//! * the **denser branch** processes the block-diagonal subgraphs, one
//!   hardware chunk per degree class, with COO/dense inputs,
//! * the **sparser branch** processes everything off the block diagonal,
//!   stored in CSC so whole columns can be consumed (and structurally empty
//!   columns skipped).
//!
//! [`SplitWorkload::extract`] performs that split for a reordered, tuned
//! adjacency matrix.

use crate::SubgraphLayout;
use gcod_graph::{CooMatrix, CscMatrix, CsrMatrix};
use serde::{Deserialize, Serialize};

/// One block-diagonal dense block (a subgraph) of the denser workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DenseBlock {
    /// Degree class (= hardware chunk) the block belongs to.
    pub class: usize,
    /// Group the subgraph was assigned to.
    pub group: usize,
    /// First node position of the block.
    pub start: usize,
    /// Number of nodes in the block.
    pub len: usize,
    /// Non-zeros inside the block.
    pub nnz: usize,
}

impl DenseBlock {
    /// Density of the block.
    #[cfg(test)]
    pub(crate) fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.nnz as f64 / (self.len * self.len) as f64
        }
    }
}

/// The two-level workload split the accelerator consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitWorkload {
    /// Block-diagonal dense blocks (denser branch), in layout order.
    pub blocks: Vec<DenseBlock>,
    /// Off-diagonal remainder (sparser branch), CSC format.
    pub sparser: CscMatrix,
    /// Total non-zeros in the denser branch.
    pub denser_nnz: usize,
    /// Total non-zeros in the sparser branch.
    pub sparser_nnz: usize,
    /// Number of degree classes (hardware chunks).
    pub num_classes: usize,
}

impl SplitWorkload {
    /// Splits a reordered adjacency matrix into denser blocks and the sparser
    /// remainder according to `layout`.
    pub fn extract(adj: &CsrMatrix, layout: &SubgraphLayout) -> Self {
        let n = adj.rows();
        // Map node position -> subgraph index (or MAX).
        let mut block_of = vec![usize::MAX; n];
        for (idx, info) in layout.subgraphs().iter().enumerate() {
            for pos in info.range() {
                if pos < n {
                    block_of[pos] = idx;
                }
            }
        }

        let mut block_nnz = vec![0usize; layout.subgraphs().len()];
        let mut sparser_coo = CooMatrix::with_capacity(n, n, adj.nnz() / 2);
        for (r, c, v) in adj.iter() {
            if block_of[r] != usize::MAX && block_of[r] == block_of[c] {
                block_nnz[block_of[r]] += 1;
            } else {
                sparser_coo
                    .push(r, c, v)
                    .expect("indices already validated by the adjacency matrix");
            }
        }

        let blocks: Vec<DenseBlock> = layout
            .subgraphs()
            .iter()
            .enumerate()
            .map(|(idx, info)| DenseBlock {
                class: info.class,
                group: info.group,
                start: info.start,
                len: info.len,
                nnz: block_nnz[idx],
            })
            .collect();
        let denser_nnz: usize = block_nnz.iter().sum();
        let sparser = sparser_coo.to_csc();
        let sparser_nnz = sparser.nnz();
        Self {
            blocks,
            sparser,
            denser_nnz,
            sparser_nnz,
            num_classes: layout.num_classes(),
        }
    }

    /// Total non-zeros across both branches.
    pub fn total_nnz(&self) -> usize {
        self.denser_nnz + self.sparser_nnz
    }

    /// Fraction of the non-zeros handled by the sparser branch. The paper
    /// quotes around 30% for Cora after GCoD training.
    pub fn sparser_fraction(&self) -> f64 {
        if self.total_nnz() == 0 {
            0.0
        } else {
            self.sparser_nnz as f64 / self.total_nnz() as f64
        }
    }

    /// Blocks belonging to one class (the workload of one hardware chunk).
    pub fn blocks_of_class(&self, class: usize) -> Vec<&DenseBlock> {
        self.blocks.iter().filter(|b| b.class == class).collect()
    }

    /// Non-zeros per class (used for proportional resource allocation in the
    /// accelerator).
    pub fn nnz_per_class(&self) -> Vec<usize> {
        let mut per_class = vec![0usize; self.num_classes];
        for block in &self.blocks {
            per_class[block.class] += block.nnz;
        }
        per_class
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GcodConfig, Polarizer, SubgraphLayout};
    use gcod_graph::{DatasetProfile, Graph, GraphGenerator};

    fn setup() -> (Graph, SubgraphLayout, GcodConfig) {
        let g = GraphGenerator::new(41)
            .generate(&DatasetProfile::custom("wl", 300, 1200, 8, 4))
            .unwrap();
        let cfg = GcodConfig {
            num_classes: 2,
            num_subgraphs: 8,
            num_groups: 2,
            ..GcodConfig::default()
        };
        let layout = SubgraphLayout::build(&g, &cfg, 0).unwrap();
        let permuted = layout.apply(&g);
        (permuted, layout, cfg)
    }

    #[test]
    fn split_conserves_every_nonzero() {
        let (g, layout, _) = setup();
        let split = SplitWorkload::extract(g.adjacency(), &layout);
        assert_eq!(split.total_nnz(), g.num_edges());
        assert_eq!(split.blocks.len(), layout.subgraphs().len());
    }

    #[test]
    fn sparser_matrix_excludes_block_diagonal_entries() {
        let (g, layout, _) = setup();
        let split = SplitWorkload::extract(g.adjacency(), &layout);
        for info in layout.subgraphs() {
            for (r, c, _) in split.sparser.iter() {
                let r_in = info.range().contains(&r);
                let c_in = info.range().contains(&c);
                assert!(!(r_in && c_in), "sparser branch holds a diagonal entry");
            }
        }
    }

    #[test]
    fn class_nnz_sums_to_denser_total() {
        let (g, layout, cfg) = setup();
        let split = SplitWorkload::extract(g.adjacency(), &layout);
        let per_class = split.nnz_per_class();
        assert_eq!(per_class.len(), cfg.num_classes);
        assert_eq!(per_class.iter().sum::<usize>(), split.denser_nnz);
        for (class, &class_nnz) in per_class.iter().enumerate().take(cfg.num_classes) {
            let blocks_sum: usize = split.blocks_of_class(class).iter().map(|b| b.nnz).sum();
            assert_eq!(blocks_sum, class_nnz);
        }
    }

    #[test]
    fn polarized_graph_shifts_mass_to_denser_branch() {
        let (g, layout, mut cfg) = setup();
        let before = SplitWorkload::extract(g.adjacency(), &layout);
        cfg.prune_ratio = 0.3;
        cfg.polarization_weight = 1.5;
        let (tuned, _) = Polarizer::new(cfg).tune(g.adjacency(), &layout).unwrap();
        let after = SplitWorkload::extract(&tuned, &layout);
        assert!(
            after.sparser_fraction() <= before.sparser_fraction(),
            "polarization should shrink the sparser branch share: {} -> {}",
            before.sparser_fraction(),
            after.sparser_fraction()
        );
    }

    #[test]
    fn block_density_exceeds_global_density() {
        let (g, layout, _) = setup();
        let split = SplitWorkload::extract(g.adjacency(), &layout);
        let global = g.num_edges() as f64 / (g.num_nodes() as f64 * g.num_nodes() as f64);
        let avg_block: f64 = split.blocks.iter().map(DenseBlock::density).sum::<f64>()
            / split.blocks.len().max(1) as f64;
        assert!(
            avg_block > global,
            "blocks should be denser than the whole matrix ({avg_block} vs {global})"
        );
    }
}
