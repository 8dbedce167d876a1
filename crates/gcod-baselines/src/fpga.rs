//! Deepburning-GL FPGA baselines (Liang et al., ICCAD 2020).
//!
//! Deepburning-GL automatically generates GNN accelerators for a target FPGA
//! board. The paper evaluates three boards (Table V): the small ZC706
//! (900 DSPs, 19.2 MB, 12.8 GB/s DDR3), the mid-range KCU1500 (5520 DSPs,
//! 75.9 MB, 76.8 GB/s DDR4) and the HBM-equipped Alveo U50 (5952 DSPs,
//! 227.3 MB, 316 GB/s). Being auto-generated rather than hand-tuned, these
//! designs reach only a fraction of the per-DSP efficiency of HyGCN/AWB-GCN —
//! which is why the paper's speedups over them are in the hundreds to
//! thousands.

use crate::{AggregationStyle, PlatformSpec};
use gcod_platform::energy::EnergyModel;

fn deepburning(
    name: &str,
    dsps: f64,
    clock_hz: f64,
    on_chip_mb: f64,
    gbps: f64,
    watts: f64,
) -> PlatformSpec {
    PlatformSpec {
        name: name.to_string(),
        peak_macs_per_second: dsps * clock_hz,
        off_chip_gbps: gbps,
        on_chip_bytes: (on_chip_mb * 1024.0 * 1024.0) as u64,
        // Auto-generated designs: far below the hand-tuned accelerators on
        // both phases (the paper's speedups over Deepburning-GL are in the
        // hundreds to thousands).
        combination_efficiency: 0.10,
        aggregation_efficiency: 0.015,
        style: AggregationStyle::Gathered {
            locality: 0.4,
            overfetch: 3.0,
        },
        per_layer_overhead_s: 0.0,
        energy: EnergyModel {
            pj_per_mac: 2.5,
            pj_per_on_chip_byte: 2.0,
            pj_per_off_chip_byte: 60.0,
        },
        power_watts: watts,
    }
}

/// Deepburning-GL on the Zynq ZC706 (220 MHz, 900 DSPs, 12.8 GB/s DDR3).
pub(crate) fn zc706() -> PlatformSpec {
    deepburning("zc706", 900.0, 150.0e6, 19.2, 12.8, 10.0)
}

/// Deepburning-GL on the Kintex KCU1500 (5520 DSPs, 76.8 GB/s DDR4).
pub(crate) fn kcu1500() -> PlatformSpec {
    deepburning("kcu1500", 5520.0, 200.0e6, 75.9, 76.8, 25.0)
}

/// Deepburning-GL on the Alveo U50 (5952 DSPs, 316 GB/s HBM2).
pub(crate) fn alveo_u50() -> PlatformSpec {
    deepburning("alveo-u50", 5952.0, 200.0e6, 227.3, 316.0, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Platform, SimRequest};
    use gcod_graph::{DatasetProfile, GraphGenerator};
    use gcod_nn::models::ModelConfig;
    use gcod_nn::quant::Precision;
    use gcod_nn::workload::InferenceWorkload;

    fn workload() -> InferenceWorkload {
        let g = GraphGenerator::new(11)
            .generate(&DatasetProfile::custom("fpga", 700, 2800, 64, 4))
            .unwrap();
        InferenceWorkload::build(&g, &ModelConfig::gcn(&g), Precision::Fp32)
    }

    #[test]
    fn larger_boards_are_faster() {
        let w = SimRequest::new(workload());
        let small = zc706().simulate(&w).unwrap().latency_ms;
        let mid = kcu1500().simulate(&w).unwrap().latency_ms;
        let big = alveo_u50().simulate(&w).unwrap().latency_ms;
        assert!(mid < small, "kcu1500 {mid} !< zc706 {small}");
        assert!(big <= mid, "alveo {big} !> kcu1500 {mid}");
    }

    #[test]
    fn board_parameters_follow_table5() {
        assert_eq!(zc706().off_chip_gbps, 12.8);
        assert_eq!(kcu1500().off_chip_gbps, 76.8);
        assert_eq!(alveo_u50().off_chip_gbps, 316.0);
        assert!(zc706().peak_macs_per_second < kcu1500().peak_macs_per_second);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(zc706().name(), "zc706");
        assert_eq!(kcu1500().name(), "kcu1500");
        assert_eq!(alveo_u50().name(), "alveo-u50");
    }
}
