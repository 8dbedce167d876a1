//! AWB-GCN baseline (Geng et al., MICRO 2020).
//!
//! AWB-GCN runs 4096 PEs at 330 MHz on an Intel D5005 FPGA with a 244 Mb
//! scratchpad and 76.8 GB/s of DDR4 (Table V). It adopts *distributed*
//! (column-wise) aggregation and fixes the resulting workload imbalance with
//! three runtime autotuning techniques, reaching high PE utilization — the
//! paper credits it as the strongest prior accelerator, and GCoD's average
//! gain over it is 2.5×. Its remaining weaknesses, which the GCoD co-design
//! attacks, are (1) the full aggregation-result buffer that spills off chip
//! for larger graphs and (2) a DDR4 memory system with a sixth of GCoD's HBM
//! bandwidth.

use crate::{AggregationStyle, PlatformSpec};
use gcod_platform::energy::EnergyModel;

/// Peak MAC throughput: 4096 PEs at 330 MHz.
const AWBGCN_PEAK_MACS: f64 = 4096.0 * 330.0e6;

/// The AWB-GCN accelerator model.
pub fn awb_gcn() -> PlatformSpec {
    PlatformSpec {
        name: "awb-gcn".to_string(),
        peak_macs_per_second: AWBGCN_PEAK_MACS,
        off_chip_gbps: 76.8,
        on_chip_bytes: 244 * 1024 * 1024 / 8, // 244 Mb scratchpad
        combination_efficiency: 0.85,
        // Runtime rebalancing recovers most — not all — of the imbalance.
        aggregation_efficiency: 0.55,
        style: AggregationStyle::Distributed,
        per_layer_overhead_s: 0.0,
        energy: EnergyModel {
            pj_per_mac: 1.5,
            pj_per_on_chip_byte: 1.5,
            pj_per_off_chip_byte: 55.0, // DDR4 costs more per byte than HBM
        },
        power_watts: 215.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hygcn::hygcn;
    use crate::{Platform, SimRequest};
    use gcod_graph::{DatasetProfile, GraphGenerator};
    use gcod_nn::models::{ModelConfig, ModelKind};
    use gcod_nn::quant::Precision;
    use gcod_nn::workload::InferenceWorkload;

    /// Cora-scale workload with the real dataset's sparse bag-of-words
    /// features (≈1.3% density) so the aggregation phase — not the feature
    /// streaming — differentiates the accelerators, as in the paper.
    fn cora_workload() -> InferenceWorkload {
        let profile = DatasetProfile::cora();
        let tiny = GraphGenerator::new(9)
            .generate(&profile.scaled(0.02))
            .unwrap();
        let mut cfg = ModelConfig::for_kind(ModelKind::Gcn, &tiny);
        cfg.input_dim = profile.feature_dim;
        cfg.hidden_dim = 16;
        InferenceWorkload::from_stats(
            "cora",
            profile.nodes,
            profile.edges * 2,
            0.013,
            &cfg,
            Precision::Fp32,
        )
    }

    #[test]
    fn awbgcn_beats_hygcn() {
        // The paper reports AWB-GCN as roughly 3x faster than HyGCN on
        // average; our models must preserve the ordering.
        let w = SimRequest::new(cora_workload());
        let hy = hygcn().simulate(&w).unwrap().latency_ms;
        let awb = awb_gcn().simulate(&w).unwrap().latency_ms;
        assert!(awb < hy, "awb {awb} !< hygcn {hy}");
    }

    #[test]
    fn utilization_is_high_thanks_to_rebalancing() {
        let w = SimRequest::new(cora_workload());
        let report = awb_gcn().simulate(&w).unwrap();
        assert!(
            report.utilization > 0.1,
            "utilization {}",
            report.utilization
        );
    }

    #[test]
    fn peak_compute_matches_4096_pes() {
        assert!((awb_gcn().peak_macs_per_second - 1.35168e12).abs() / 1.35e12 < 0.01);
    }
}
