//! The denser and sparser aggregation branches (Fig. 6).
//!
//! During aggregation the two branches run in parallel:
//!
//! * the **denser branch** processes the block-diagonal subgraphs with one
//!   chunk per degree class; its inputs are COO blocks and the combined
//!   features already resident in each chunk's buffers,
//! * the **sparser branch** processes the off-diagonal remainder from a CSC
//!   copy held on chip; the combined-feature rows it needs are fetched
//!   through query-based weight forwarding from the denser chunks when
//!   possible (≈63% of the time in the paper) and from HBM otherwise.
//!
//! Each function returns the branch's cycle count and accumulates its memory
//! traffic into the shared [`TrafficCounter`].

use crate::chunk::{allocate_chunks, denser_branch_cycles, ChunkAllocation};
use crate::config::AcceleratorConfig;
use gcod_core::SplitWorkload;
use gcod_platform::memory::{Phase, TrafficCounter};
use serde::{Deserialize, Serialize};

/// Cycle count and utilization of one branch for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct BranchOutcome {
    /// Compute cycles on the branch's critical path.
    pub cycles: u64,
    /// PE utilization of the branch (work / capacity at the critical path).
    pub utilization: f64,
    /// MACs executed by the branch.
    pub macs: u64,
}

/// Simulates the denser branch for one layer.
///
/// `out_dim` is the output feature width of the layer (each adjacency
/// non-zero contributes `out_dim` MACs), `element_bytes` the per-scalar size.
/// Returns the branch outcome plus the chunk allocations used (needed for
/// reporting).
pub(crate) fn denser_branch(
    config: &AcceleratorConfig,
    split: &SplitWorkload,
    out_dim: usize,
    element_bytes: u64,
    traffic: &mut TrafficCounter,
) -> (BranchOutcome, Vec<ChunkAllocation>) {
    let nnz_per_class = split.nnz_per_class();
    let macs_per_class: Vec<u64> = nnz_per_class
        .iter()
        .map(|&nnz| nnz as u64 * out_dim as u64)
        .collect();
    // Bytes a chunk touches: its adjacency entries (8 bytes of indices +
    // value) plus the combined-feature rows of its blocks.
    let bytes_per_class: Vec<u64> =
        split
            .blocks
            .iter()
            .fold(vec![0u64; split.num_classes], |mut acc, block| {
                acc[block.class] += block.nnz as u64 * (8 + element_bytes)
                    + block.len as u64 * out_dim as u64 * element_bytes;
                acc
            });
    let allocations = allocate_chunks(config, &macs_per_class, &bytes_per_class);
    let (cycles, utilization) = denser_branch_cycles(&allocations);

    // Adjacency blocks are streamed from HBM once (COO), the combined
    // features they multiply are already on chip (written there by the
    // combination phase), and the partial outputs stay in the chunk output
    // buffers.
    let adjacency_bytes: u64 = split.denser_nnz as u64 * (8 + element_bytes);
    traffic.read_off_chip(Phase::Aggregation, adjacency_bytes);
    let feature_bytes_on_chip: u64 = bytes_per_class.iter().sum();
    traffic.move_on_chip(Phase::Aggregation, feature_bytes_on_chip);

    let total_macs: u64 = macs_per_class.iter().sum();
    (
        BranchOutcome {
            cycles,
            utilization,
            macs: total_macs,
        },
        allocations,
    )
}

/// Simulates the sparser branch for one layer.
pub(crate) fn sparser_branch(
    config: &AcceleratorConfig,
    split: &SplitWorkload,
    out_dim: usize,
    element_bytes: u64,
    traffic: &mut TrafficCounter,
) -> BranchOutcome {
    let macs = split.sparser_nnz as u64 * out_dim as u64;
    let pes = config.sparser_pes().max(1);
    let cycles = macs.div_ceil(pes as u64);

    // The CSC structure is compact enough to live on chip; it is read from
    // HBM once per layer.
    let csc_bytes =
        split.sparser_nnz as u64 * (4 + element_bytes) + (split.sparser.cols() as u64 + 1) * 8;
    traffic.read_off_chip(Phase::Aggregation, csc_bytes);

    // Combined-feature rows: under distributed aggregation each *column* of
    // the sparser adjacency consumes one row of `X·W`, reused by every
    // non-zero in that column, so the demand is bounded by the number of
    // (non-empty) columns rather than the non-zero count. The rows are served
    // either by weight forwarding (on-chip) or by HBM.
    let active_columns = (split.sparser_nnz as u64).min(split.sparser.cols() as u64);
    let weight_bytes = active_columns * out_dim as u64 * element_bytes;
    let forwarded = (weight_bytes as f64 * config.weight_forwarding_rate) as u64;
    traffic.move_on_chip(Phase::Aggregation, forwarded);
    traffic.read_off_chip(Phase::Aggregation, weight_bytes - forwarded);

    let utilization = if cycles == 0 {
        1.0
    } else {
        macs as f64 / (cycles as f64 * pes as f64)
    };
    BranchOutcome {
        cycles,
        utilization,
        macs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcod_core::{GcodConfig, SubgraphLayout};
    use gcod_graph::{DatasetProfile, GraphGenerator};

    fn split() -> SplitWorkload {
        let g = GraphGenerator::new(91)
            .generate(&DatasetProfile::custom("br", 300, 1200, 8, 4))
            .unwrap();
        let cfg = GcodConfig {
            num_classes: 2,
            num_subgraphs: 8,
            num_groups: 2,
            ..GcodConfig::default()
        };
        let layout = SubgraphLayout::build(&g, &cfg, 0).unwrap();
        let permuted = layout.apply(&g);
        SplitWorkload::extract(permuted.adjacency(), &layout)
    }

    #[test]
    fn denser_branch_macs_match_split() {
        let s = split();
        let cfg = AcceleratorConfig::small_test();
        let mut traffic = TrafficCounter::new();
        let (outcome, allocations) = denser_branch(&cfg, &s, 16, 4, &mut traffic);
        assert_eq!(outcome.macs, s.denser_nnz as u64 * 16);
        assert_eq!(allocations.len(), s.num_classes);
        assert!(outcome.cycles > 0);
        assert!(outcome.utilization > 0.3);
        assert!(traffic.off_chip_read_aggregation > 0);
    }

    #[test]
    fn sparser_branch_macs_match_split() {
        let s = split();
        let cfg = AcceleratorConfig::small_test();
        let mut traffic = TrafficCounter::new();
        let outcome = sparser_branch(&cfg, &s, 16, 4, &mut traffic);
        assert_eq!(outcome.macs, s.sparser_nnz as u64 * 16);
        assert!(outcome.utilization > 0.5);
    }

    #[test]
    fn weight_forwarding_reduces_off_chip_traffic() {
        let s = split();
        let mut with_fw = AcceleratorConfig::small_test();
        with_fw.weight_forwarding_rate = 0.63;
        let mut without_fw = AcceleratorConfig::small_test();
        without_fw.weight_forwarding_rate = 0.0;
        let mut t1 = TrafficCounter::new();
        let mut t2 = TrafficCounter::new();
        sparser_branch(&with_fw, &s, 16, 4, &mut t1);
        sparser_branch(&without_fw, &s, 16, 4, &mut t2);
        assert!(
            t1.off_chip_read_aggregation < t2.off_chip_read_aggregation,
            "forwarding must cut HBM reads"
        );
        assert!(t1.on_chip_aggregation > t2.on_chip_aggregation);
    }

    #[test]
    fn branches_scale_with_output_width() {
        let s = split();
        let cfg = AcceleratorConfig::small_test();
        let mut t = TrafficCounter::new();
        let narrow = sparser_branch(&cfg, &s, 8, 4, &mut t).cycles;
        let wide = sparser_branch(&cfg, &s, 64, 4, &mut t).cycles;
        assert!(wide > narrow);
    }

    #[test]
    fn more_pes_fewer_cycles() {
        let s = split();
        let small = AcceleratorConfig::small_test();
        let big = AcceleratorConfig::vcu128();
        let mut t = TrafficCounter::new();
        let (slow, _) = denser_branch(&small, &s, 16, 4, &mut t);
        let (fast, _) = denser_branch(&big, &s, 16, 4, &mut t);
        assert!(fast.cycles <= slow.cycles);
    }
}
