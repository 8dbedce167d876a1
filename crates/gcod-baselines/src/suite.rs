//! The full platform suite, in the order the paper's figures enumerate the
//! platforms.

use crate::{awbgcn, cpu, fpga, gpu, hygcn, PlatformSpec};
use gcod_accel::config::AcceleratorConfig;
use gcod_accel::simulator::GcodAccelerator;
use gcod_platform::Platform;

/// All nine baseline platforms of Fig. 9/10: PyG/DGL on CPU and GPU, HyGCN,
/// AWB-GCN and the three Deepburning-GL FPGAs.
pub(crate) fn all_baselines() -> Vec<PlatformSpec> {
    vec![
        cpu::pyg_cpu(),
        cpu::dgl_cpu(),
        gpu::pyg_gpu(),
        gpu::dgl_gpu(),
        hygcn::hygcn(),
        awbgcn::awb_gcn(),
        fpga::zc706(),
        fpga::kcu1500(),
        fpga::alveo_u50(),
    ]
}

/// The complete co-design comparison field behind one `dyn Platform`
/// surface: the nine baselines followed by the GCoD accelerator (VCU128)
/// and its 8-bit variant, in the column order of Fig. 9/10.
///
/// Baselines ignore a request's GCoD split; the two accelerator entries
/// require one (`requires_split()` tells them apart, and their
/// `native_precision()` names the workload precision they are built for).
pub fn all_platforms() -> Vec<Box<dyn Platform>> {
    let mut platforms: Vec<Box<dyn Platform>> = Vec::new();
    for spec in all_baselines() {
        platforms.push(Box::new(spec));
    }
    platforms.push(Box::new(GcodAccelerator::new(AcceleratorConfig::vcu128())));
    platforms.push(Box::new(GcodAccelerator::new(
        AcceleratorConfig::vcu128_int8(),
    )));
    platforms
}

/// The reference platform every speedup in the paper is normalized to.
pub fn reference_platform() -> PlatformSpec {
    cpu::pyg_cpu()
}

/// Looks a baseline up by its report name.
pub fn by_name(name: &str) -> Option<PlatformSpec> {
    all_baselines()
        .into_iter()
        .find(|p| p.name == name.to_ascii_lowercase())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcod_graph::{DatasetProfile, GraphGenerator};
    use gcod_nn::models::ModelConfig;
    use gcod_nn::quant::Precision;
    use gcod_nn::workload::InferenceWorkload;
    use gcod_platform::{PlatformError, SimRequest};

    fn request(seed: u64, nodes: usize, edges: usize, feats: usize) -> SimRequest {
        let g = GraphGenerator::new(seed)
            .generate(&DatasetProfile::custom("suite", nodes, edges, feats, 4))
            .unwrap();
        SimRequest::new(InferenceWorkload::build(
            &g,
            &ModelConfig::gcn(&g),
            Precision::Fp32,
        ))
    }

    #[test]
    fn suite_has_nine_platforms_with_unique_names() {
        let suite = all_baselines();
        assert_eq!(suite.len(), 9);
        let names: std::collections::HashSet<&str> =
            suite.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn full_suite_adds_the_two_accelerators() {
        let suite = all_platforms();
        assert_eq!(suite.len(), 11);
        let names: std::collections::HashSet<String> =
            suite.iter().map(|p| p.name().to_string()).collect();
        assert_eq!(names.len(), 11);
        assert!(names.contains("gcod"));
        assert!(names.contains("gcod-8bit"));
        assert_eq!(suite.iter().filter(|p| p.requires_split()).count(), 2);
    }

    #[test]
    fn split_platforms_reject_plain_requests() {
        let req = request(23, 300, 1200, 16);
        for platform in all_platforms() {
            let result = platform.simulate(&req);
            if platform.requires_split() {
                assert!(matches!(result, Err(PlatformError::MissingSplit { .. })));
            } else {
                assert!(result.unwrap().latency_ms > 0.0);
            }
        }
    }

    #[test]
    fn lookup_by_name_round_trips() {
        for p in all_baselines() {
            assert_eq!(by_name(&p.name).unwrap().name, p.name);
        }
        assert!(by_name("tpu").is_none());
    }

    #[test]
    fn reference_is_pyg_cpu_and_is_the_slowest_general_platform() {
        let reference = reference_platform();
        assert_eq!(reference.name, "pyg-cpu");
        let req = request(13, 500, 2000, 32);
        let ref_latency = reference.simulate(&req).unwrap().latency_ms;
        for p in all_baselines() {
            let lat = p.simulate(&req).unwrap().latency_ms;
            assert!(
                lat <= ref_latency * 1.001,
                "{} is slower than the PyG-CPU anchor ({lat} vs {ref_latency})",
                p.name
            );
        }
    }

    #[test]
    fn dedicated_accelerators_beat_general_platforms() {
        let req = request(17, 600, 2400, 64);
        let gpu_latency = by_name("pyg-gpu")
            .unwrap()
            .simulate(&req)
            .unwrap()
            .latency_ms;
        for name in ["hygcn", "awb-gcn"] {
            let lat = by_name(name).unwrap().simulate(&req).unwrap().latency_ms;
            assert!(lat < gpu_latency, "{name} should beat the GPU");
        }
    }
}
