//! CPU baselines: PyTorch Geometric and DGL on the Intel Xeon E5-2680 v3
//! workstation of Table V (2.5 GHz, 24 cores, 30 MB L3, 136.5 GB/s DDR4,
//! 150 W).
//!
//! The efficiency factors encode two observations behind the paper's
//! CPU numbers: (1) sparse scatter/gather aggregation achieves a tiny
//! fraction of peak FLOPs on CPUs, and (2) framework dispatch overhead
//! (Python, kernel launches, graph bookkeeping) dominates small citation
//! graphs — which is why the paper's speedups over PyG-CPU reach four to five
//! digits. DGL's fused kernels have markedly lower overhead than PyG, which
//! reproduces the paper's DGL-CPU ≈ 14× PyG-CPU gap.

use crate::{AggregationStyle, PlatformSpec};
use gcod_platform::energy::EnergyModel;

/// Peak MAC throughput of the 24-core Xeon E5-2680 v3 (AVX2 FMA).
const XEON_PEAK_MACS: f64 = 24.0 * 2.5e9 * 8.0;

/// PyTorch Geometric on the Xeon CPU.
pub(crate) fn pyg_cpu() -> PlatformSpec {
    PlatformSpec {
        name: "pyg-cpu".to_string(),
        peak_macs_per_second: XEON_PEAK_MACS,
        off_chip_gbps: 136.5,
        on_chip_bytes: 30 * 1024 * 1024,
        combination_efficiency: 0.05,
        aggregation_efficiency: 0.0005,
        style: AggregationStyle::Distributed,
        per_layer_overhead_s: 0.030,
        energy: cpu_energy(),
        power_watts: 150.0,
    }
}

/// Deep Graph Library on the Xeon CPU.
pub(crate) fn dgl_cpu() -> PlatformSpec {
    PlatformSpec {
        name: "dgl-cpu".to_string(),
        combination_efficiency: 0.10,
        aggregation_efficiency: 0.006,
        per_layer_overhead_s: 0.0025,
        ..pyg_cpu()
    }
}

fn cpu_energy() -> EnergyModel {
    // CPUs burn far more energy per operation than a dedicated accelerator:
    // out-of-order overhead, cache hierarchy, DRAM instead of HBM.
    EnergyModel {
        pj_per_mac: 50.0,
        pj_per_on_chip_byte: 10.0,
        pj_per_off_chip_byte: 70.0,
    }
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
        let g = GraphGenerator::new(3)
            .generate(&DatasetProfile::custom("cpu", 500, 2000, 64, 4))
            .unwrap();
        InferenceWorkload::build(&g, &ModelConfig::gcn(&g), Precision::Fp32)
    }

    #[test]
    fn dgl_is_faster_than_pyg_on_cpu() {
        let w = SimRequest::new(workload());
        let pyg = pyg_cpu().simulate(&w).unwrap();
        let dgl = dgl_cpu().simulate(&w).unwrap();
        assert!(
            dgl.latency_ms < pyg.latency_ms,
            "dgl {} !< pyg {}",
            dgl.latency_ms,
            pyg.latency_ms
        );
        // The paper's gap is roughly an order of magnitude.
        assert!(pyg.latency_ms / dgl.latency_ms > 3.0);
    }

    #[test]
    fn small_graph_latency_is_overhead_dominated() {
        let w = SimRequest::new(workload());
        let pyg = pyg_cpu().simulate(&w).unwrap();
        // Two layers x 30 ms overhead = at least 60 ms.
        assert!(pyg.latency_ms >= 60.0);
    }

    #[test]
    fn names_match_report_labels() {
        assert_eq!(pyg_cpu().name(), "pyg-cpu");
        assert_eq!(dgl_cpu().name(), "dgl-cpu");
    }

    #[test]
    fn peak_compute_matches_xeon_spec() {
        let spec = pyg_cpu();
        assert!((spec.peak_macs_per_second - 4.8e11).abs() / 4.8e11 < 0.01);
    }
}
