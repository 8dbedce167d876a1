//! Hardware configurations of the GCoD accelerator.

use gcod_nn::quant::Precision;
use serde::{Deserialize, Serialize};

/// Which inter-phase pipeline the accelerator uses (Tab. II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PipelineKind {
    /// Row-wise combination feeding column-wise aggregation: maximum data
    /// reuse at the cost of buffering a full aggregation output on chip.
    /// Best for small/medium graphs.
    EfficiencyAware,
    /// Column-wise combination and aggregation: only one output column is
    /// buffered, trading some reuse for a tiny on-chip footprint. Used for
    /// billion-edge graphs (e.g. Reddit).
    ResourceAware,
    /// Let the simulator pick per graph: efficiency-aware when the
    /// aggregation output fits on chip, resource-aware otherwise (this is
    /// what the paper describes GCoD doing).
    Auto,
}

/// Resource description of one GCoD accelerator instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    /// Human-readable name used in reports.
    pub name: String,
    /// Total number of processing elements (MAC units).
    pub num_pes: usize,
    /// Clock frequency in MHz.
    pub clock_mhz: f64,
    /// Total on-chip memory in bytes (BRAM + URAM on the VCU128).
    pub on_chip_bytes: u64,
    /// Off-chip (HBM) bandwidth in GB/s.
    pub off_chip_gbps: f64,
    /// Arithmetic precision of features and weights.
    pub precision: Precision,
    /// Inter-phase pipeline selection.
    pub pipeline: PipelineKind,
    /// Fraction of sparser-branch weight reads served by query-based weight
    /// forwarding from the denser-branch chunks instead of off-chip memory
    /// (the paper measures about 63%).
    pub weight_forwarding_rate: f64,
    /// Fraction of the PE budget reserved for the sparser branch.
    pub sparser_pe_fraction: f64,
}

impl AcceleratorConfig {
    /// The paper's VCU128 configuration: 4096 PEs at 330 MHz, 42 MB on-chip
    /// (9 MB BRAM + 33 MB URAM), 460 GB/s HBM, 32-bit arithmetic.
    pub fn vcu128() -> Self {
        Self {
            name: "gcod".to_string(),
            num_pes: 4096,
            clock_mhz: 330.0,
            on_chip_bytes: 42 * 1024 * 1024,
            off_chip_gbps: 460.0,
            precision: Precision::Fp32,
            pipeline: PipelineKind::Auto,
            weight_forwarding_rate: 0.63,
            sparser_pe_fraction: 0.25,
        }
    }

    /// The GCoD (8-bit) variant: INT8 arithmetic lets the same bandwidth feed
    /// 10240 PEs (Table V footnote).
    pub fn vcu128_int8() -> Self {
        Self {
            name: "gcod-8bit".to_string(),
            num_pes: 10_240,
            precision: Precision::Int8,
            ..Self::vcu128()
        }
    }

    /// A down-scaled configuration for unit tests: same ratios, fewer PEs.
    pub fn small_test() -> Self {
        Self {
            name: "gcod-test".to_string(),
            num_pes: 64,
            clock_mhz: 100.0,
            on_chip_bytes: 256 * 1024,
            off_chip_gbps: 8.0,
            precision: Precision::Fp32,
            pipeline: PipelineKind::Auto,
            weight_forwarding_rate: 0.63,
            sparser_pe_fraction: 0.25,
        }
    }

    /// Cycle time in nanoseconds.
    pub(crate) fn cycle_ns(&self) -> f64 {
        1_000.0 / self.clock_mhz
    }

    /// Peak MACs per second.
    pub fn peak_macs_per_second(&self) -> f64 {
        self.num_pes as f64 * self.clock_mhz * 1.0e6
    }

    /// Off-chip bandwidth in bytes per second.
    pub(crate) fn off_chip_bytes_per_second(&self) -> f64 {
        self.off_chip_gbps * 1.0e9
    }

    /// PEs assigned to the denser branch.
    pub(crate) fn denser_pes(&self) -> usize {
        let sparser = (self.num_pes as f64 * self.sparser_pe_fraction) as usize;
        self.num_pes - sparser.min(self.num_pes)
    }

    /// PEs assigned to the sparser branch.
    pub(crate) fn sparser_pes(&self) -> usize {
        self.num_pes - self.denser_pes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vcu128_matches_table5() {
        let cfg = AcceleratorConfig::vcu128();
        assert_eq!(cfg.num_pes, 4096);
        assert_eq!(cfg.clock_mhz, 330.0);
        assert_eq!(cfg.off_chip_gbps, 460.0);
        assert_eq!(cfg.on_chip_bytes, 44_040_192);
        assert_eq!(cfg.precision, Precision::Fp32);
    }

    #[test]
    fn int8_variant_has_more_pes() {
        let fp32 = AcceleratorConfig::vcu128();
        let int8 = AcceleratorConfig::vcu128_int8();
        assert!(int8.num_pes > fp32.num_pes);
        assert_eq!(int8.num_pes, 10_240);
        assert_eq!(int8.precision, Precision::Int8);
    }

    #[test]
    fn derived_rates_are_consistent() {
        let cfg = AcceleratorConfig::vcu128();
        assert!((cfg.cycle_ns() - 3.0303).abs() < 0.01);
        let peak = cfg.peak_macs_per_second();
        assert!((peak - 4096.0 * 330.0e6).abs() < 1.0);
        assert_eq!(cfg.denser_pes() + cfg.sparser_pes(), cfg.num_pes);
        assert!(cfg.denser_pes() > cfg.sparser_pes());
    }
}
