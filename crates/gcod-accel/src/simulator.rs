//! Top-level GCoD accelerator simulator.
//!
//! The simulator walks the per-layer [`InferenceWorkload`], models the
//! combination phase on the full PE array and the aggregation phase on the
//! two parallel branches, applies the roofline constraint against the HBM
//! bandwidth, and accumulates traffic and energy into a [`PerfReport`].

use crate::branches::{denser_branch, sparser_branch};
use crate::config::AcceleratorConfig;
use crate::pipeline::plan_layer;
use gcod_core::SplitWorkload;
use gcod_nn::quant::Precision;
use gcod_nn::workload::InferenceWorkload;
use gcod_platform::energy::{EnergyBreakdown, EnergyModel};
use gcod_platform::memory::{Phase, TrafficCounter};
use gcod_platform::report::PerfReport;
use gcod_platform::{Platform, PlatformError, SimRequest};

/// The GCoD two-pronged accelerator.
#[derive(Debug, Clone)]
pub struct GcodAccelerator {
    config: AcceleratorConfig,
    energy_model: EnergyModel,
}

impl GcodAccelerator {
    /// Creates an accelerator instance from a hardware configuration.
    pub fn new(config: AcceleratorConfig) -> Self {
        let energy_model = match config.precision {
            Precision::Fp32 => EnergyModel::default(),
            Precision::Int16 => EnergyModel::default().with_precision_scale(0.5),
            Precision::Int8 => EnergyModel::default().with_precision_scale(0.25),
        };
        Self {
            config,
            energy_model,
        }
    }

    /// Simulates one full inference of `workload` whose adjacency has been
    /// split into `split` by the GCoD algorithm (the body of
    /// [`Platform::simulate`], once the request's split is known present).
    fn simulate_split(&self, workload: &InferenceWorkload, split: &SplitWorkload) -> PerfReport {
        let mut traffic = TrafficCounter::new();
        let mut total_cycles = 0u64;
        let mut utilization_acc = 0.0f64;
        let mut utilization_samples = 0usize;
        let mut peak_bandwidth: f64 = 0.0;
        let element_bytes = self.config.precision.bytes() as u64;
        let cycle_seconds = self.config.cycle_ns() * 1e-9;

        // Predefined resource allocation (Sec. V-B): the sparser branch gets a
        // PE share proportional to its share of the aggregation non-zeros, so
        // both branches finish at a similar pace.
        let total_nnz = split.total_nnz().max(1);
        let sparser_share = (split.sparser_nnz as f64 / total_nnz as f64).clamp(0.05, 0.5);
        let branch_config = AcceleratorConfig {
            sparser_pe_fraction: sparser_share,
            ..self.config.clone()
        };

        for layer in &workload.layers {
            let plan = plan_layer(&self.config, layer);

            // ---- Combination phase: dense/sparse X · W on the whole array.
            let comb_macs = layer.combination_macs;
            let comb_compute_cycles = comb_macs.div_ceil(self.config.num_pes as u64);
            // Input features: first layer streams them from HBM (scaled by
            // their density since zero rows are skipped), later layers reuse
            // the previous layer's output which the pipeline kept on chip
            // unless it spilled.
            let input_bytes = if layer.index == 0 {
                (layer.input_feature_bytes as f64 * workload.feature_density.max(0.001)) as u64
            } else if plan.output_spills {
                layer.input_feature_bytes
            } else {
                0
            };
            traffic.read_off_chip(Phase::Combination, input_bytes);
            // Weights are small and fetched once per layer.
            traffic.read_off_chip(Phase::Combination, layer.weight_bytes);
            // The combined features land in the chunk buffers (on-chip) or
            // spill when the efficiency-aware buffer cannot hold them.
            if plan.output_spills {
                traffic.write_off_chip(Phase::Combination, layer.intermediate_bytes);
            } else {
                traffic.move_on_chip(Phase::Combination, layer.intermediate_bytes);
            }
            let comb_offchip = input_bytes
                + layer.weight_bytes
                + if plan.output_spills {
                    layer.intermediate_bytes
                } else {
                    0
                };
            let comb_memory_cycles = bytes_to_cycles(
                comb_offchip,
                self.config.off_chip_bytes_per_second(),
                cycle_seconds,
            );
            let comb_cycles = comb_compute_cycles.max(comb_memory_cycles);

            // ---- Aggregation phase: both branches in parallel.
            let (denser, _allocs) = denser_branch(
                &branch_config,
                split,
                layer.out_dim,
                element_bytes,
                &mut traffic,
            );
            let sparser = sparser_branch(
                &branch_config,
                split,
                layer.out_dim,
                element_bytes,
                &mut traffic,
            );
            // Resource-aware pipelines re-stream the combined features.
            if plan.extra_feature_reads > 0 {
                traffic.read_off_chip(Phase::Aggregation, plan.extra_feature_reads);
            }
            // Aggregation outputs: kept on chip when the plan allows it,
            // written back otherwise (and always written back for the final
            // layer's logits, which are tiny).
            if plan.output_spills {
                traffic.write_off_chip(Phase::Aggregation, layer.output_feature_bytes);
            } else {
                traffic.move_on_chip(Phase::Aggregation, layer.output_feature_bytes);
            }
            let agg_compute_cycles = denser.cycles.max(sparser.cycles);
            let forwarding_miss_bytes = ((split.sparser_nnz as u64)
                .min(split.sparser.cols() as u64)
                * layer.out_dim as u64
                * element_bytes) as f64
                * (1.0 - self.config.weight_forwarding_rate);
            let agg_offchip_this_layer = split.denser_nnz as u64 * (8 + element_bytes)
                + split.sparser_nnz as u64 * (4 + element_bytes)
                + forwarding_miss_bytes as u64
                + plan.extra_feature_reads
                + if plan.output_spills {
                    layer.output_feature_bytes
                } else {
                    0
                };
            let agg_memory_cycles = bytes_to_cycles(
                agg_offchip_this_layer,
                self.config.off_chip_bytes_per_second(),
                cycle_seconds,
            );
            let agg_cycles = agg_compute_cycles.max(agg_memory_cycles);

            // Per-layer peak bandwidth *requirement*: the bandwidth needed to
            // keep the PEs busy, i.e. phase traffic over the phase's
            // compute-only time (Fig. 11 (a) plots this demand, which can
            // exceed what the board provides).
            for (bytes, cycles) in [
                (comb_offchip, comb_compute_cycles),
                (agg_offchip_this_layer, agg_compute_cycles),
            ] {
                if cycles > 0 {
                    let seconds = cycles as f64 * cycle_seconds;
                    peak_bandwidth = peak_bandwidth.max(bytes as f64 / seconds / 1.0e9);
                }
            }

            total_cycles += comb_cycles + agg_cycles;
            let layer_util = {
                let compute = comb_compute_cycles + agg_compute_cycles;
                let wall = comb_cycles + agg_cycles;
                if wall == 0 {
                    1.0
                } else {
                    (compute as f64 / wall as f64)
                        * (denser.utilization + sparser.utilization + 1.0)
                        / 3.0
                }
            };
            utilization_acc += layer_util;
            utilization_samples += 1;
        }

        let latency_ms = total_cycles as f64 * cycle_seconds * 1.0e3;
        let energy = EnergyBreakdown::from_counts(
            &self.energy_model,
            workload.combination_macs(),
            workload.aggregation_macs(),
            &traffic,
        );
        PerfReport {
            platform: self.config.name.clone(),
            dataset: workload.dataset.clone(),
            model: workload.model.clone(),
            latency_ms,
            cycles: total_cycles,
            off_chip_bytes: traffic.total_off_chip(),
            off_chip_accesses: traffic.off_chip_accesses(64),
            peak_bandwidth_gbps: peak_bandwidth,
            utilization: if utilization_samples == 0 {
                0.0
            } else {
                (utilization_acc / utilization_samples as f64).min(1.0)
            },
            energy,
            traffic,
        }
    }
}

impl Platform for GcodAccelerator {
    fn name(&self) -> &str {
        &self.config.name
    }

    fn requires_split(&self) -> bool {
        true
    }

    fn native_precision(&self) -> Option<Precision> {
        Some(self.config.precision)
    }

    fn simulate(&self, request: &SimRequest) -> gcod_platform::Result<PerfReport> {
        let split = request
            .split
            .as_ref()
            .ok_or_else(|| PlatformError::MissingSplit {
                platform: self.config.name.clone(),
            })?;
        Ok(self.simulate_split(&request.workload, split))
    }
}

fn bytes_to_cycles(bytes: u64, bytes_per_second: f64, cycle_seconds: f64) -> u64 {
    if bytes == 0 || bytes_per_second <= 0.0 {
        return 0;
    }
    let seconds = bytes as f64 / bytes_per_second;
    (seconds / cycle_seconds).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcod_core::{GcodConfig, Polarizer, SubgraphLayout};
    use gcod_graph::{DatasetProfile, GraphGenerator};
    use gcod_nn::models::ModelConfig;
    use gcod_nn::workload::InferenceWorkload;

    fn setup() -> SimRequest {
        let g = GraphGenerator::new(101)
            .generate(&DatasetProfile::custom("sim", 400, 1600, 32, 4))
            .unwrap();
        let cfg = GcodConfig {
            num_classes: 2,
            num_subgraphs: 8,
            num_groups: 2,
            ..GcodConfig::default()
        };
        let layout = SubgraphLayout::build(&g, &cfg, 0).unwrap();
        let permuted = layout.apply(&g);
        let split = SplitWorkload::extract(permuted.adjacency(), &layout);
        let workload =
            InferenceWorkload::build(&permuted, &ModelConfig::gcn(&permuted), Precision::Fp32);
        SimRequest::with_split(workload, split)
    }

    fn simulate(config: AcceleratorConfig, request: &SimRequest) -> PerfReport {
        GcodAccelerator::new(config)
            .simulate(request)
            .expect("request carries a split")
    }

    #[test]
    fn simulation_produces_positive_metrics() {
        let report = simulate(AcceleratorConfig::vcu128(), &setup());
        assert!(report.latency_ms > 0.0);
        assert!(report.cycles > 0);
        assert!(report.off_chip_bytes > 0);
        assert!(report.utilization > 0.0 && report.utilization <= 1.0);
        assert!(report.energy_joules() > 0.0);
        assert_eq!(report.platform, "gcod");
    }

    #[test]
    fn int8_variant_is_faster_and_moves_fewer_bytes() {
        let g = GraphGenerator::new(103)
            .generate(&DatasetProfile::custom("sim8", 400, 1600, 32, 4))
            .unwrap();
        let cfg = GcodConfig::default();
        let layout = SubgraphLayout::build(&g, &cfg, 0).unwrap();
        let permuted = layout.apply(&g);
        let split = SplitWorkload::extract(permuted.adjacency(), &layout);
        let fp32_w =
            InferenceWorkload::build(&permuted, &ModelConfig::gcn(&permuted), Precision::Fp32);
        let int8_w =
            InferenceWorkload::build(&permuted, &ModelConfig::gcn(&permuted), Precision::Int8);
        let fp32 = simulate(
            AcceleratorConfig::vcu128(),
            &SimRequest::with_split(fp32_w, split.clone()),
        );
        let int8 = simulate(
            AcceleratorConfig::vcu128_int8(),
            &SimRequest::with_split(int8_w, split),
        );
        assert!(int8.latency_ms <= fp32.latency_ms);
        assert!(int8.off_chip_bytes < fp32.off_chip_bytes);
    }

    #[test]
    fn pruned_split_is_faster_than_full_split() {
        let g = GraphGenerator::new(105)
            .generate(&DatasetProfile::custom("simp", 400, 1600, 32, 4))
            .unwrap();
        let cfg = GcodConfig {
            prune_ratio: 0.3,
            polarization_weight: 1.0,
            ..GcodConfig::default()
        };
        let layout = SubgraphLayout::build(&g, &cfg, 0).unwrap();
        let permuted = layout.apply(&g);
        let full_split = SplitWorkload::extract(permuted.adjacency(), &layout);
        let (tuned, _) = Polarizer::new(cfg)
            .tune(permuted.adjacency(), &layout)
            .unwrap();
        let pruned_split = SplitWorkload::extract(&tuned, &layout);
        let model_cfg = ModelConfig::gcn(&permuted);
        let full_w = InferenceWorkload::build(&permuted, &model_cfg, Precision::Fp32);
        let pruned_w = InferenceWorkload::build_with_adjacency_nnz(
            &permuted,
            &model_cfg,
            Precision::Fp32,
            pruned_split.total_nnz(),
        );
        let full = simulate(
            AcceleratorConfig::small_test(),
            &SimRequest::with_split(full_w, full_split),
        );
        let pruned = simulate(
            AcceleratorConfig::small_test(),
            &SimRequest::with_split(pruned_w, pruned_split),
        );
        assert!(pruned.cycles <= full.cycles);
        assert!(pruned.off_chip_bytes <= full.off_chip_bytes);
    }

    #[test]
    fn bigger_accelerator_is_not_slower() {
        let request = setup();
        let small = simulate(AcceleratorConfig::small_test(), &request);
        let big = simulate(AcceleratorConfig::vcu128(), &request);
        assert!(big.latency_ms <= small.latency_ms);
    }

    #[test]
    fn peak_bandwidth_requirement_is_positive() {
        let report = simulate(AcceleratorConfig::vcu128(), &setup());
        assert!(report.peak_bandwidth_gbps > 0.0);
    }

    #[test]
    fn energy_has_both_phases() {
        let report = simulate(AcceleratorConfig::vcu128(), &setup());
        assert!(report.energy.combination_total() > 0.0);
        assert!(report.energy.total() > report.energy.combination_total());
    }
}
