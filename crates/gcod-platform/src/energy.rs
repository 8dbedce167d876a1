//! Energy model (Fig. 12).
//!
//! The breakdown distinguishes compute energy (MAC operations), on-chip
//! buffer accesses and off-chip HBM accesses, separately for the combination
//! and aggregation phases. The per-operation constants are the commonly used
//! 28 nm estimates (Horowitz-style): they set the relative magnitudes —
//! off-chip ≫ on-chip ≫ MAC — which is what the figure's shape depends on.

use crate::memory::{Phase, TrafficCounter};
use serde::{Deserialize, Serialize};

/// Per-operation energy constants in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Energy per 32-bit MAC (pJ).
    pub pj_per_mac: f64,
    /// Energy per byte moved within on-chip SRAM (pJ).
    pub pj_per_on_chip_byte: f64,
    /// Energy per byte moved to/from HBM (pJ).
    pub pj_per_off_chip_byte: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            pj_per_mac: 1.0,
            pj_per_on_chip_byte: 1.5,
            pj_per_off_chip_byte: 40.0,
        }
    }
}

impl EnergyModel {
    /// Scales the MAC energy for reduced precision (INT8 MACs cost roughly a
    /// quarter of 32-bit ones).
    pub fn with_precision_scale(mut self, scale: f64) -> Self {
        self.pj_per_mac *= scale;
        self
    }
}

/// Energy totals in joules, broken down the way Fig. 12 plots them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Compute energy of the combination phase.
    pub compute_combination: f64,
    /// On-chip access energy of the combination phase.
    pub on_chip_combination: f64,
    /// Off-chip access energy of the combination phase.
    pub off_chip_combination: f64,
    /// Compute energy of the aggregation phase.
    pub compute_aggregation: f64,
    /// On-chip access energy of the aggregation phase.
    pub on_chip_aggregation: f64,
    /// Off-chip access energy of the aggregation phase.
    pub off_chip_aggregation: f64,
}

impl EnergyBreakdown {
    /// Computes the breakdown from MAC counts and a traffic counter.
    pub fn from_counts(
        model: &EnergyModel,
        combination_macs: u64,
        aggregation_macs: u64,
        traffic: &TrafficCounter,
    ) -> Self {
        let pj_to_j = 1.0e-12;
        Self {
            compute_combination: combination_macs as f64 * model.pj_per_mac * pj_to_j,
            on_chip_combination: traffic.on_chip_combination as f64
                * model.pj_per_on_chip_byte
                * pj_to_j,
            off_chip_combination: traffic.off_chip_for(Phase::Combination) as f64
                * model.pj_per_off_chip_byte
                * pj_to_j,
            compute_aggregation: aggregation_macs as f64 * model.pj_per_mac * pj_to_j,
            on_chip_aggregation: traffic.on_chip_aggregation as f64
                * model.pj_per_on_chip_byte
                * pj_to_j,
            off_chip_aggregation: traffic.off_chip_for(Phase::Aggregation) as f64
                * model.pj_per_off_chip_byte
                * pj_to_j,
        }
    }

    /// Total energy in joules.
    pub fn total(&self) -> f64 {
        self.compute_combination
            + self.on_chip_combination
            + self.off_chip_combination
            + self.compute_aggregation
            + self.on_chip_aggregation
            + self.off_chip_aggregation
    }

    /// Energy attributable to the combination phase.
    pub fn combination_total(&self) -> f64 {
        self.compute_combination + self.on_chip_combination + self.off_chip_combination
    }

    /// Fractional breakdown in the order Fig. 12 stacks its bars:
    /// `[comb compute, comb on-chip, comb off-chip,
    ///   aggr compute, aggr on-chip, aggr off-chip]`.
    pub fn fractions(&self) -> [f64; 6] {
        let total = self.total();
        if total <= 0.0 {
            return [0.0; 6];
        }
        [
            self.compute_combination / total,
            self.on_chip_combination / total,
            self.off_chip_combination / total,
            self.compute_aggregation / total,
            self.on_chip_aggregation / total,
            self.off_chip_aggregation / total,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_chip_dominates_per_byte() {
        let m = EnergyModel::default();
        assert!(m.pj_per_off_chip_byte > 10.0 * m.pj_per_on_chip_byte / 1.5);
        assert!(m.pj_per_on_chip_byte > m.pj_per_mac);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let mut traffic = TrafficCounter::new();
        traffic.read_off_chip(Phase::Combination, 1_000_000);
        traffic.read_off_chip(Phase::Aggregation, 2_000_000);
        traffic.move_on_chip(Phase::Combination, 5_000_000);
        let b =
            EnergyBreakdown::from_counts(&EnergyModel::default(), 10_000_000, 5_000_000, &traffic);
        let aggregation = b.compute_aggregation + b.on_chip_aggregation + b.off_chip_aggregation;
        let parts = b.combination_total() + aggregation;
        assert!((parts - b.total()).abs() < 1e-15);
        let fracs = b.fractions();
        let sum: f64 = fracs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_work_zero_energy() {
        let b = EnergyBreakdown::from_counts(&EnergyModel::default(), 0, 0, &TrafficCounter::new());
        assert_eq!(b.total(), 0.0);
        assert_eq!(b.fractions(), [0.0; 6]);
    }

    #[test]
    fn precision_scale_reduces_mac_energy() {
        let base = EnergyModel::default();
        let int8 = EnergyModel::default().with_precision_scale(0.25);
        assert!(int8.pj_per_mac < base.pj_per_mac);
        assert_eq!(int8.pj_per_off_chip_byte, base.pj_per_off_chip_byte);
    }

    #[test]
    fn more_off_chip_traffic_means_more_energy() {
        let model = EnergyModel::default();
        let mut little = TrafficCounter::new();
        little.read_off_chip(Phase::Aggregation, 1_000);
        let mut much = TrafficCounter::new();
        much.read_off_chip(Phase::Aggregation, 1_000_000);
        let small = EnergyBreakdown::from_counts(&model, 100, 100, &little);
        let large = EnergyBreakdown::from_counts(&model, 100, 100, &much);
        assert!(large.total() > small.total());
    }
}
