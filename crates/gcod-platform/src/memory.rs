//! Off-chip traffic and bandwidth accounting.
//!
//! The paper's Fig. 11 reports two memory-side metrics: the peak off-chip
//! bandwidth an accelerator needs to sustain its compute, and the total
//! number of off-chip accesses. [`TrafficCounter`] accumulates byte counts
//! per phase and converts them into both metrics.

use serde::{Deserialize, Serialize};

/// Which GCN execution phase a transfer belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Feature combination (`X · W`).
    Combination,
    /// Neighbourhood aggregation (`Â · (XW)`).
    Aggregation,
}

/// Byte counters for one simulation run, split by phase and direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TrafficCounter {
    /// Off-chip bytes read during combination.
    pub off_chip_read_combination: u64,
    /// Off-chip bytes written during combination.
    pub off_chip_write_combination: u64,
    /// Off-chip bytes read during aggregation.
    pub off_chip_read_aggregation: u64,
    /// Off-chip bytes written during aggregation.
    pub off_chip_write_aggregation: u64,
    /// On-chip bytes moved during combination.
    pub on_chip_combination: u64,
    /// On-chip bytes moved during aggregation.
    pub on_chip_aggregation: u64,
}

impl TrafficCounter {
    /// Creates an all-zero counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an off-chip read.
    pub fn read_off_chip(&mut self, phase: Phase, bytes: u64) {
        match phase {
            Phase::Combination => self.off_chip_read_combination += bytes,
            Phase::Aggregation => self.off_chip_read_aggregation += bytes,
        }
    }

    /// Records an off-chip write.
    pub fn write_off_chip(&mut self, phase: Phase, bytes: u64) {
        match phase {
            Phase::Combination => self.off_chip_write_combination += bytes,
            Phase::Aggregation => self.off_chip_write_aggregation += bytes,
        }
    }

    /// Records on-chip movement (buffer reads/writes).
    pub fn move_on_chip(&mut self, phase: Phase, bytes: u64) {
        match phase {
            Phase::Combination => self.on_chip_combination += bytes,
            Phase::Aggregation => self.on_chip_aggregation += bytes,
        }
    }

    /// Total off-chip bytes (both directions, both phases).
    pub fn total_off_chip(&self) -> u64 {
        self.off_chip_read_combination
            + self.off_chip_write_combination
            + self.off_chip_read_aggregation
            + self.off_chip_write_aggregation
    }

    /// Off-chip bytes attributable to one phase.
    pub(crate) fn off_chip_for(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Combination => self.off_chip_read_combination + self.off_chip_write_combination,
            Phase::Aggregation => self.off_chip_read_aggregation + self.off_chip_write_aggregation,
        }
    }

    /// Number of off-chip accesses assuming `access_bytes` per transaction
    /// (e.g. a 64-byte HBM burst).
    pub fn off_chip_accesses(&self, access_bytes: u64) -> u64 {
        self.total_off_chip().div_ceil(access_bytes.max(1))
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &TrafficCounter) {
        self.off_chip_read_combination += other.off_chip_read_combination;
        self.off_chip_write_combination += other.off_chip_write_combination;
        self.off_chip_read_aggregation += other.off_chip_read_aggregation;
        self.off_chip_write_aggregation += other.off_chip_write_aggregation;
        self.on_chip_combination += other.on_chip_combination;
        self.on_chip_aggregation += other.on_chip_aggregation;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_by_phase() {
        let mut t = TrafficCounter::new();
        t.read_off_chip(Phase::Combination, 100);
        t.write_off_chip(Phase::Combination, 50);
        t.read_off_chip(Phase::Aggregation, 200);
        t.move_on_chip(Phase::Aggregation, 1000);
        assert_eq!(t.total_off_chip(), 350);
        assert_eq!(t.off_chip_for(Phase::Combination), 150);
        assert_eq!(t.off_chip_for(Phase::Aggregation), 200);
        assert_eq!(t.on_chip_aggregation, 1000);
    }

    #[test]
    fn access_count_rounds_up_bursts() {
        let mut t = TrafficCounter::new();
        t.read_off_chip(Phase::Aggregation, 130);
        assert_eq!(t.off_chip_accesses(64), 3);
        assert_eq!(t.off_chip_accesses(0), 130);
    }

    #[test]
    fn merge_adds_all_fields() {
        let mut a = TrafficCounter::new();
        a.read_off_chip(Phase::Combination, 10);
        let mut b = TrafficCounter::new();
        b.write_off_chip(Phase::Aggregation, 20);
        b.move_on_chip(Phase::Combination, 5);
        a.merge(&b);
        assert_eq!(a.total_off_chip(), 30);
        assert_eq!(a.on_chip_combination, 5);
    }
}
