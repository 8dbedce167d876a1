//! Chunk-based sub-accelerators and proportional resource allocation.
//!
//! The denser branch consists of one sub-accelerator ("chunk") per degree
//! class. Resources are allocated proportionally to each chunk's workload
//! (Sec. V-B): PEs in proportion to the MAC count, on-chip memory and
//! off-chip bandwidth in proportion to the data footprint. Because the GCoD
//! algorithm already balanced the subgraphs inside every class, this static
//! allocation achieves workload balance without AWB-GCN-style runtime
//! autotuning.

use crate::config::AcceleratorConfig;
use serde::{Deserialize, Serialize};

/// Resources granted to one chunk (sub-accelerator).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct ChunkAllocation {
    /// Degree class this chunk serves.
    pub class: usize,
    /// Number of PEs.
    pub pes: usize,
    /// On-chip buffer bytes.
    pub buffer_bytes: u64,
    /// Off-chip bandwidth share in GB/s.
    pub bandwidth_gbps: f64,
    /// MACs assigned to this chunk (its share of the denser workload).
    pub assigned_macs: u64,
    /// Bytes of features/weights this chunk touches.
    pub assigned_bytes: u64,
}

impl ChunkAllocation {
    /// Ideal compute time of this chunk in cycles (MACs / PEs).
    pub(crate) fn compute_cycles(&self) -> u64 {
        if self.pes == 0 {
            return u64::MAX;
        }
        self.assigned_macs.div_ceil(self.pes as u64)
    }
}

/// Allocates the denser-branch resources across one chunk per class,
/// proportionally to each class's MAC and byte workload.
///
/// `macs_per_class` and `bytes_per_class` must have the same length (the
/// number of classes). Every chunk receives at least one PE and a minimal
/// buffer so that empty classes do not divide by zero.
pub(crate) fn allocate_chunks(
    config: &AcceleratorConfig,
    macs_per_class: &[u64],
    bytes_per_class: &[u64],
) -> Vec<ChunkAllocation> {
    assert_eq!(
        macs_per_class.len(),
        bytes_per_class.len(),
        "per-class workload vectors must align"
    );
    let classes = macs_per_class.len();
    if classes == 0 {
        return Vec::new();
    }
    let denser_pes = config.denser_pes();
    // Reserve a slice of the on-chip memory for the sparser branch (it keeps
    // its CSC workload resident); the rest is shared by the chunks.
    let denser_bytes = (config.on_chip_bytes as f64 * 0.75) as u64;
    let denser_bw = config.off_chip_gbps * 0.75;

    let total_macs: u64 = macs_per_class.iter().sum::<u64>().max(1);
    let total_bytes: u64 = bytes_per_class.iter().sum::<u64>().max(1);

    let mut allocations: Vec<ChunkAllocation> = (0..classes)
        .map(|class| {
            let mac_share = macs_per_class[class] as f64 / total_macs as f64;
            let byte_share = bytes_per_class[class] as f64 / total_bytes as f64;
            ChunkAllocation {
                class,
                pes: ((denser_pes as f64 * mac_share) as usize).max(1),
                buffer_bytes: ((denser_bytes as f64 * byte_share) as u64).max(1024),
                bandwidth_gbps: (denser_bw * byte_share).max(0.1),
                assigned_macs: macs_per_class[class],
                assigned_bytes: bytes_per_class[class],
            }
        })
        .collect();

    // Fix up rounding so the PE total never exceeds the budget.
    let mut used: usize = allocations.iter().map(|a| a.pes).sum();
    while used > denser_pes {
        if let Some(max) = allocations.iter_mut().max_by_key(|a| a.pes) {
            if max.pes > 1 {
                max.pes -= 1;
                used -= 1;
            } else {
                break;
            }
        } else {
            break;
        }
    }
    allocations
}

/// The denser branch finishes when its slowest chunk finishes; this returns
/// that critical-path cycle count together with the utilization it implies
/// (1.0 = perfectly balanced chunks).
pub(crate) fn denser_branch_cycles(allocations: &[ChunkAllocation]) -> (u64, f64) {
    if allocations.is_empty() {
        return (0, 1.0);
    }
    let cycles: Vec<u64> = allocations
        .iter()
        .map(ChunkAllocation::compute_cycles)
        .collect();
    let critical = cycles.iter().copied().max().unwrap_or(0);
    if critical == 0 {
        return (0, 1.0);
    }
    let total_work: u64 = allocations.iter().map(|a| a.assigned_macs).sum();
    let total_capacity: u64 = allocations
        .iter()
        .map(|a| a.pes as u64 * critical)
        .sum::<u64>()
        .max(1);
    (critical, total_work as f64 / total_capacity as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> AcceleratorConfig {
        AcceleratorConfig::small_test()
    }

    #[test]
    fn allocation_is_proportional_to_macs() {
        let cfg = config();
        let allocs = allocate_chunks(&cfg, &[300, 100], &[3000, 1000]);
        assert_eq!(allocs.len(), 2);
        assert!(allocs[0].pes > allocs[1].pes);
        assert!(allocs[0].buffer_bytes > allocs[1].buffer_bytes);
        assert!(allocs[0].bandwidth_gbps > allocs[1].bandwidth_gbps);
        let total_pes: usize = allocs.iter().map(|a| a.pes).sum();
        assert!(total_pes <= cfg.denser_pes());
    }

    #[test]
    fn every_chunk_gets_minimum_resources() {
        let cfg = config();
        let allocs = allocate_chunks(&cfg, &[1000, 0], &[1000, 0]);
        assert!(allocs[1].pes >= 1);
        assert!(allocs[1].buffer_bytes >= 1024);
    }

    #[test]
    fn balanced_workloads_yield_high_utilization() {
        let cfg = config();
        let allocs = allocate_chunks(&cfg, &[500, 500], &[500, 500]);
        let (_, utilization) = denser_branch_cycles(&allocs);
        assert!(utilization > 0.9, "utilization {utilization}");
    }

    #[test]
    fn imbalanced_workloads_with_proportional_allocation_stay_balanced() {
        // Proportional allocation is the whole point: even a 4:1 imbalance in
        // workload should keep the chunks finishing around the same time.
        let cfg = AcceleratorConfig::vcu128();
        let allocs = allocate_chunks(&cfg, &[4_000_000, 1_000_000], &[4_000_000, 1_000_000]);
        let (_, utilization) = denser_branch_cycles(&allocs);
        assert!(utilization > 0.8, "utilization {utilization}");
    }

    #[test]
    fn critical_path_is_max_of_chunk_cycles() {
        let allocs = vec![
            ChunkAllocation {
                class: 0,
                pes: 10,
                buffer_bytes: 0,
                bandwidth_gbps: 1.0,
                assigned_macs: 1000,
                assigned_bytes: 0,
            },
            ChunkAllocation {
                class: 1,
                pes: 1,
                buffer_bytes: 0,
                bandwidth_gbps: 1.0,
                assigned_macs: 500,
                assigned_bytes: 0,
            },
        ];
        let (cycles, util) = denser_branch_cycles(&allocs);
        assert_eq!(cycles, 500);
        assert!(util < 0.5);
    }

    #[test]
    fn empty_allocation_is_trivial() {
        let (cycles, util) = denser_branch_cycles(&[]);
        assert_eq!(cycles, 0);
        assert_eq!(util, 1.0);
        assert!(allocate_chunks(&config(), &[], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        allocate_chunks(&config(), &[1], &[]);
    }
}
