//! Efficiency-aware vs resource-aware inter-phase pipelines (Fig. 7, Tab. II).
//!
//! Both pipelines keep the weight matrix on chip and reuse the combined
//! features `X·W` spatially during aggregation. They differ in how much of
//! the aggregation *output* has to stay on chip:
//!
//! * the **efficiency-aware** pipeline produces whole rows of `X·W` and needs
//!   a buffer for the full aggregation output (maximum reuse, high on-chip
//!   storage),
//! * the **resource-aware** pipeline works column-by-column and only ever
//!   holds one output column (minimal storage, slightly more off-chip traffic
//!   because the combined features are re-read per output tile).

use crate::config::{AcceleratorConfig, PipelineKind};
use gcod_nn::workload::LayerWorkload;
use serde::{Deserialize, Serialize};

/// The pipeline actually used for a layer after `Auto` resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum ResolvedPipeline {
    /// Efficiency-aware (full aggregation output buffered on chip).
    EfficiencyAware,
    /// Resource-aware (one output column buffered on chip).
    ResourceAware,
}

/// Per-layer memory behaviour implied by the chosen pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct PipelinePlan {
    /// The pipeline chosen for this layer.
    pub pipeline: ResolvedPipeline,
    /// On-chip bytes needed for the aggregation output.
    pub output_buffer_bytes: u64,
    /// Whether the aggregation output spills off chip (only possible for the
    /// efficiency-aware pipeline on graphs that exceed the on-chip budget).
    pub output_spills: bool,
    /// Extra off-chip read traffic caused by re-reading combined features
    /// (resource-aware pipeline re-streams `X·W` once more).
    pub extra_feature_reads: u64,
}

/// Chooses the pipeline for one layer and derives its memory plan.
pub(crate) fn plan_layer(config: &AcceleratorConfig, layer: &LayerWorkload) -> PipelinePlan {
    let full_output = layer.output_feature_bytes;
    // Reserve half the on-chip memory for adjacency/weights/features; the
    // output buffer competes for the other half.
    let output_budget = config.on_chip_bytes / 2;
    let pipeline = match config.pipeline {
        PipelineKind::EfficiencyAware => ResolvedPipeline::EfficiencyAware,
        PipelineKind::ResourceAware => ResolvedPipeline::ResourceAware,
        PipelineKind::Auto => {
            if full_output <= output_budget {
                ResolvedPipeline::EfficiencyAware
            } else {
                ResolvedPipeline::ResourceAware
            }
        }
    };
    match pipeline {
        ResolvedPipeline::EfficiencyAware => {
            let spills = full_output > output_budget;
            PipelinePlan {
                pipeline,
                output_buffer_bytes: full_output.min(output_budget),
                output_spills: spills,
                extra_feature_reads: 0,
            }
        }
        ResolvedPipeline::ResourceAware => {
            // One column of the output: nodes × element size.
            let column_bytes = (layer.nodes as u64)
                * (layer.output_feature_bytes
                    / (layer.nodes.max(1) as u64 * layer.out_dim.max(1) as u64))
                    .max(1);
            PipelinePlan {
                pipeline,
                output_buffer_bytes: column_bytes,
                output_spills: false,
                // The combined features are streamed once more from off-chip
                // when they do not fit on chip alongside the adjacency.
                extra_feature_reads: if layer.intermediate_bytes > config.on_chip_bytes / 2 {
                    layer.intermediate_bytes
                } else {
                    0
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcod_nn::workload::LayerWorkload;

    fn layer(nodes: usize, out_dim: usize) -> LayerWorkload {
        LayerWorkload {
            index: 0,
            nodes,
            in_dim: 64,
            out_dim,
            adjacency_nnz: nodes * 5,
            aggregation_macs: (nodes * 5 * out_dim) as u64,
            combination_macs: (nodes * 64 * out_dim) as u64,
            input_feature_bytes: (nodes * 64 * 4) as u64,
            intermediate_bytes: (nodes * out_dim * 4) as u64,
            output_feature_bytes: (nodes * out_dim * 4) as u64,
            weight_bytes: (64 * out_dim * 4) as u64,
            adjacency_bytes: (nodes * 5 * 8) as u64,
        }
    }

    #[test]
    fn auto_picks_efficiency_aware_for_small_graphs() {
        let cfg = AcceleratorConfig::vcu128();
        let plan = plan_layer(&cfg, &layer(3_000, 16));
        assert_eq!(plan.pipeline, ResolvedPipeline::EfficiencyAware);
        assert!(!plan.output_spills);
        assert_eq!(plan.extra_feature_reads, 0);
    }

    #[test]
    fn auto_picks_resource_aware_for_reddit_scale() {
        let cfg = AcceleratorConfig::vcu128();
        // Reddit: 233k nodes × 41 classes output would be fine, but the wide
        // hidden layer (233k × 602 features) exceeds the on-chip budget.
        let plan = plan_layer(&cfg, &layer(233_000, 602));
        assert_eq!(plan.pipeline, ResolvedPipeline::ResourceAware);
        assert!(plan.output_buffer_bytes < cfg.on_chip_bytes / 2);
    }

    #[test]
    fn forced_pipelines_are_respected() {
        let mut cfg = AcceleratorConfig::vcu128();
        cfg.pipeline = PipelineKind::ResourceAware;
        assert_eq!(
            plan_layer(&cfg, &layer(1_000, 16)).pipeline,
            ResolvedPipeline::ResourceAware
        );
        cfg.pipeline = PipelineKind::EfficiencyAware;
        assert_eq!(
            plan_layer(&cfg, &layer(1_000, 16)).pipeline,
            ResolvedPipeline::EfficiencyAware
        );
    }

    #[test]
    fn forced_efficiency_on_huge_graph_spills() {
        let mut cfg = AcceleratorConfig::vcu128();
        cfg.pipeline = PipelineKind::EfficiencyAware;
        let plan = plan_layer(&cfg, &layer(500_000, 602));
        assert!(plan.output_spills);
    }

    #[test]
    fn resource_aware_buffer_is_one_column() {
        let mut cfg = AcceleratorConfig::vcu128();
        cfg.pipeline = PipelineKind::ResourceAware;
        let l = layer(10_000, 64);
        let plan = plan_layer(&cfg, &l);
        assert_eq!(plan.output_buffer_bytes, 10_000 * 4);
    }
}
