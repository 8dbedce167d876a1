//! HyGCN baseline (Yan et al., HPCA 2020).
//!
//! HyGCN is a hybrid-architecture ASIC: 32 SIMD cores handle the aggregation
//! phase, an 8-lane systolic array handles the combination phase, backed by
//! 22 MB of on-chip buffers and a 256 GB/s HBM (Table V). Its aggregation is
//! *gathered*: for every node the neighbour feature vectors are fetched and
//! reduced, with a window-sliding/shrinking optimisation that improves — but
//! does not eliminate — the irregular off-chip feature traffic. Coarse
//! block-wise scheduling leaves part of the compute idle on power-law graphs,
//! which is the utilization gap GCoD's chunk design closes (and the source of
//! the paper's average 7.8× speedup over HyGCN).

use crate::{AggregationStyle, PlatformSpec};
use gcod_platform::energy::EnergyModel;

/// Peak MAC throughput: 32 SIMD16 cores + 8×128 systolic MACs at 1 GHz.
const HYGCN_PEAK_MACS: f64 = (32.0 * 16.0 + 8.0 * 128.0) * 1.0e9;

/// The HyGCN accelerator model.
pub fn hygcn() -> PlatformSpec {
    PlatformSpec {
        name: "hygcn".to_string(),
        peak_macs_per_second: HYGCN_PEAK_MACS,
        off_chip_gbps: 256.0,
        on_chip_bytes: 22 * 1024 * 1024 + 128 * 1024,
        // Coarse-grained block scheduling: decent dense efficiency, poor
        // utilization on the irregular aggregation phase.
        combination_efficiency: 0.60,
        aggregation_efficiency: 0.22,
        style: AggregationStyle::Gathered {
            locality: 0.45,
            overfetch: 6.0,
        },
        per_layer_overhead_s: 0.0,
        energy: EnergyModel {
            pj_per_mac: 1.2,
            pj_per_on_chip_byte: 1.8,
            pj_per_off_chip_byte: 40.0,
        },
        power_watts: 6.7,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::pyg_cpu;
    use crate::gpu::pyg_gpu;
    use crate::{Platform, SimRequest};
    use gcod_graph::{DatasetProfile, GraphGenerator};
    use gcod_nn::models::ModelConfig;
    use gcod_nn::quant::Precision;
    use gcod_nn::workload::InferenceWorkload;

    fn workload() -> InferenceWorkload {
        let g = GraphGenerator::new(7)
            .generate(&DatasetProfile::custom("hy", 600, 2500, 64, 4))
            .unwrap();
        InferenceWorkload::build(&g, &ModelConfig::gcn(&g), Precision::Fp32)
    }

    #[test]
    fn hygcn_beats_cpu_and_gpu() {
        let w = SimRequest::new(workload());
        let cpu = pyg_cpu().simulate(&w).unwrap().latency_ms;
        let gpu = pyg_gpu().simulate(&w).unwrap().latency_ms;
        let hy = hygcn().simulate(&w).unwrap().latency_ms;
        assert!(hy < gpu, "hygcn {hy} !< gpu {gpu}");
        assert!(hy < cpu);
    }

    #[test]
    fn gathered_aggregation_generates_feature_traffic() {
        let w = SimRequest::new(workload());
        let report = hygcn().simulate(&w).unwrap();
        // Aggregation-phase off-chip traffic should exceed the raw adjacency
        // size because neighbour features are re-fetched.
        let adjacency_bytes: u64 = w.workload.layers.iter().map(|l| l.adjacency_bytes).sum();
        assert!(report.traffic.off_chip_read_aggregation > adjacency_bytes);
    }

    #[test]
    fn matches_published_power_budget() {
        assert!((hygcn().power_watts - 6.7).abs() < 1e-9);
    }
}
