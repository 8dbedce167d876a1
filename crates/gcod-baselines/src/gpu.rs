//! GPU baselines: PyTorch Geometric and DGL on the NVIDIA RTX 8000 of
//! Table V (1.35 GHz, 4352 CUDA cores, 5.5 MB L2, 616 GB/s GDDR6, 250 W).
//!
//! GPUs execute the dense combination phase near their roofline but the
//! sparse aggregation phase at a small fraction of peak (uncoalesced gathers,
//! atomics, load imbalance across warps). Kernel-launch overhead per layer is
//! far smaller than on the CPU but not zero — on the citation graphs it is
//! still the dominant term, which is why the paper's GPU speedups over
//! PyG-CPU sit around 25–50× for Cora-sized graphs.

use crate::{AggregationStyle, PlatformSpec};
use gcod_platform::energy::EnergyModel;

/// Peak MAC throughput of the RTX 8000 (FP32 FMA on 4352 cores).
const RTX8000_PEAK_MACS: f64 = 4352.0 * 1.35e9;

/// PyTorch Geometric on the RTX 8000.
pub(crate) fn pyg_gpu() -> PlatformSpec {
    PlatformSpec {
        name: "pyg-gpu".to_string(),
        peak_macs_per_second: RTX8000_PEAK_MACS,
        off_chip_gbps: 616.0,
        on_chip_bytes: 5_767_168, // 5.5 MB L2
        combination_efficiency: 0.35,
        aggregation_efficiency: 0.02,
        style: AggregationStyle::Distributed,
        per_layer_overhead_s: 0.0007,
        energy: gpu_energy(),
        power_watts: 250.0,
    }
}

/// Deep Graph Library on the RTX 8000. DGL's GPU kernels carry a little more
/// per-layer graph-preparation overhead than PyG's, matching the paper's
/// ordering (PyG-GPU speedups > DGL-GPU speedups over the same CPU anchor).
pub(crate) fn dgl_gpu() -> PlatformSpec {
    PlatformSpec {
        name: "dgl-gpu".to_string(),
        aggregation_efficiency: 0.025,
        per_layer_overhead_s: 0.0012,
        ..pyg_gpu()
    }
}

fn gpu_energy() -> EnergyModel {
    EnergyModel {
        pj_per_mac: 8.0,
        pj_per_on_chip_byte: 4.0,
        pj_per_off_chip_byte: 25.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::pyg_cpu;
    use crate::{Platform, SimRequest};
    use gcod_graph::{DatasetProfile, GraphGenerator};
    use gcod_nn::models::ModelConfig;
    use gcod_nn::quant::Precision;
    use gcod_nn::workload::InferenceWorkload;

    fn workload() -> InferenceWorkload {
        let g = GraphGenerator::new(5)
            .generate(&DatasetProfile::custom("gpu", 500, 2000, 64, 4))
            .unwrap();
        InferenceWorkload::build(&g, &ModelConfig::gcn(&g), Precision::Fp32)
    }

    #[test]
    fn gpu_is_much_faster_than_cpu() {
        let w = SimRequest::new(workload());
        let cpu = pyg_cpu().simulate(&w).unwrap();
        let gpu = pyg_gpu().simulate(&w).unwrap();
        let speedup = cpu.latency_ms / gpu.latency_ms;
        assert!(speedup > 10.0, "GPU speedup over CPU only {speedup:.1}x");
    }

    #[test]
    fn pyg_gpu_beats_dgl_gpu_on_small_graphs() {
        // Matches the paper's ordering of speedups (294x vs 460x over the
        // respective backends implies PyG-GPU has the lower latency).
        let w = SimRequest::new(workload());
        let pyg = pyg_gpu().simulate(&w).unwrap();
        let dgl = dgl_gpu().simulate(&w).unwrap();
        assert!(pyg.latency_ms < dgl.latency_ms);
    }

    #[test]
    fn gpu_energy_per_inference_is_lower_than_cpu() {
        let w = SimRequest::new(workload());
        let cpu = pyg_cpu().simulate(&w).unwrap();
        let gpu = pyg_gpu().simulate(&w).unwrap();
        assert!(gpu.energy_joules() < cpu.energy_joules());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(pyg_gpu().name(), "pyg-gpu");
        assert_eq!(dgl_gpu().name(), "dgl-gpu");
    }
}
