//! Inference workload descriptors.
//!
//! The accelerator and baseline platform models do not run the actual
//! numerics — they need to know, for every layer, how much aggregation work
//! (SpMM against the adjacency), how much combination work (dense matmul
//! against the weights) and how many bytes of each operand the layer touches.
//! [`InferenceWorkload::build`] derives that from a graph and a model
//! configuration, which is exactly the information the paper's Table IV +
//! Table III pairs define.

use crate::models::ModelConfig;
use crate::quant::Precision;
use gcod_graph::Graph;
use serde::{Deserialize, Serialize};

/// Work and data-volume of a single layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerWorkload {
    /// Layer index.
    pub index: usize,
    /// Number of nodes (rows of the feature matrix).
    pub nodes: usize,
    /// Input feature dimension of this layer.
    pub in_dim: usize,
    /// Output feature dimension of this layer.
    pub out_dim: usize,
    /// Non-zeros of the adjacency matrix used for aggregation.
    pub adjacency_nnz: usize,
    /// MACs of the aggregation SpMM (`nnz × out_dim` under the
    /// combination-first ordering used by AWB-GCN and GCoD).
    pub aggregation_macs: u64,
    /// MACs of the combination dense matmul (`nodes × in_dim × out_dim`,
    /// discounted by feature sparsity for the first layer).
    pub combination_macs: u64,
    /// Bytes of the input feature matrix.
    pub input_feature_bytes: u64,
    /// Bytes of the combined (`X·W`) intermediate matrix.
    pub intermediate_bytes: u64,
    /// Bytes of the output feature matrix.
    pub output_feature_bytes: u64,
    /// Bytes of the weight matrix.
    pub weight_bytes: u64,
    /// Bytes of the adjacency structure (CSR: indices + pointers + values).
    pub adjacency_bytes: u64,
}

impl LayerWorkload {
    /// Total MAC count of the layer.
    pub fn total_macs(&self) -> u64 {
        self.aggregation_macs + self.combination_macs
    }
}

/// Work and data-volume of a full model inference on one graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceWorkload {
    /// Dataset name.
    pub dataset: String,
    /// Model name.
    pub model: String,
    /// Numeric precision of features/weights.
    pub precision: Precision,
    /// Per-layer workloads.
    pub layers: Vec<LayerWorkload>,
    /// Density of the input feature matrix (fraction of non-zero entries);
    /// citation-graph features are sparse bag-of-words vectors.
    pub feature_density: f64,
}

impl InferenceWorkload {
    /// Builds the workload for running `config` on `graph` at `precision`.
    pub fn build(graph: &Graph, config: &ModelConfig, precision: Precision) -> Self {
        Self::build_with_adjacency_nnz(graph, config, precision, graph.num_edges())
    }

    /// Same as [`InferenceWorkload::build`] but with an explicit adjacency
    /// non-zero count — used after GCoD pruning, where the pruned edge count
    /// differs from the original graph's.
    pub fn build_with_adjacency_nnz(
        graph: &Graph,
        config: &ModelConfig,
        precision: Precision,
        adjacency_nnz: usize,
    ) -> Self {
        Self::from_stats(
            graph.name(),
            graph.num_nodes(),
            adjacency_nnz,
            estimate_feature_density(graph),
            config,
            precision,
        )
    }

    /// Builds a workload purely from dataset statistics, without materialising
    /// the graph. This is how the benchmark harness models the paper's
    /// full-size datasets (e.g. Reddit with 229 M directed edges), whose
    /// adjacency matrices would be wasteful to instantiate just to count
    /// work: only `nodes`, `adjacency_nnz` and the input feature density
    /// matter to the platform models.
    pub fn from_stats(
        dataset: &str,
        nodes: usize,
        adjacency_nnz: usize,
        feature_density: f64,
        config: &ModelConfig,
        precision: Precision,
    ) -> Self {
        let bytes = precision.bytes() as u64;
        let feature_density = feature_density.clamp(0.001, 1.0);
        let layers = config
            .layer_dims()
            .iter()
            .enumerate()
            .map(|(index, &(in_dim, out_dim))| {
                // The combination-first ordering (Fig. 7) multiplies X·W first,
                // so aggregation operates on out_dim-wide rows.
                let aggregation_macs = adjacency_nnz as u64 * out_dim as u64;
                // The first layer's feature matrix is sparse; later layers are
                // dense activations.
                let density = if index == 0 { feature_density } else { 1.0 };
                let combination_macs =
                    (nodes as f64 * in_dim as f64 * out_dim as f64 * density) as u64;
                LayerWorkload {
                    index,
                    nodes,
                    in_dim,
                    out_dim,
                    adjacency_nnz,
                    aggregation_macs,
                    combination_macs,
                    input_feature_bytes: nodes as u64 * in_dim as u64 * bytes,
                    intermediate_bytes: nodes as u64 * out_dim as u64 * bytes,
                    output_feature_bytes: nodes as u64 * out_dim as u64 * bytes,
                    weight_bytes: in_dim as u64 * out_dim as u64 * bytes,
                    adjacency_bytes: adjacency_nnz as u64 * (4 + bytes) + (nodes as u64 + 1) * 8,
                }
            })
            .collect();
        Self {
            dataset: dataset.to_string(),
            model: config.kind.name().to_string(),
            precision,
            layers,
            feature_density,
        }
    }

    /// Total MACs across layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(LayerWorkload::total_macs).sum()
    }

    /// Total aggregation MACs.
    pub fn aggregation_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.aggregation_macs).sum()
    }

    /// Total combination MACs.
    pub fn combination_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.combination_macs).sum()
    }

    /// Total floating point operations (2 per MAC), matching the FLOPs
    /// numbers the paper's introduction quotes.
    pub fn total_flops(&self) -> u64 {
        self.total_macs() * 2
    }
}

fn estimate_feature_density(graph: &Graph) -> f64 {
    let total = graph.features().len();
    if total == 0 {
        return 1.0;
    }
    // Sample at most ~200k entries to keep this cheap for Reddit-scale
    // graphs.
    let stride = (total / 200_000).max(1);
    let mut nonzero = 0usize;
    let mut sampled = 0usize;
    let mut idx = 0usize;
    while idx < total {
        if graph.features()[idx].abs() > 1e-6 {
            nonzero += 1;
        }
        sampled += 1;
        idx += stride;
    }
    (nonzero as f64 / sampled as f64).clamp(0.001, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelConfig;
    use gcod_graph::{DatasetProfile, GraphGenerator};

    fn graph() -> Graph {
        GraphGenerator::new(7)
            .generate(&DatasetProfile::custom("w", 100, 400, 32, 5))
            .unwrap()
    }

    #[test]
    fn workload_layer_count_matches_model() {
        let g = graph();
        let cfg = ModelConfig::gin(&g);
        let w = InferenceWorkload::build(&g, &cfg, Precision::Fp32);
        assert_eq!(w.layers.len(), 3);
        assert_eq!(w.model, "gin");
        assert_eq!(w.dataset, "w");
    }

    #[test]
    fn aggregation_macs_scale_with_edges() {
        let g = graph();
        let cfg = ModelConfig::gcn(&g);
        let w = InferenceWorkload::build(&g, &cfg, Precision::Fp32);
        let expected_first: u64 = g.num_edges() as u64 * cfg.layer_dims()[0].1 as u64;
        assert_eq!(w.layers[0].aggregation_macs, expected_first);
    }

    #[test]
    fn pruned_adjacency_reduces_aggregation_work() {
        let g = graph();
        let cfg = ModelConfig::gcn(&g);
        let full = InferenceWorkload::build(&g, &cfg, Precision::Fp32);
        let pruned = InferenceWorkload::build_with_adjacency_nnz(
            &g,
            &cfg,
            Precision::Fp32,
            g.num_edges() / 2,
        );
        assert!(pruned.aggregation_macs() < full.aggregation_macs());
        assert_eq!(pruned.combination_macs(), full.combination_macs());
    }

    #[test]
    fn int8_halves_or_better_the_byte_counts() {
        let g = graph();
        let cfg = ModelConfig::gcn(&g);
        let fp32 = InferenceWorkload::build(&g, &cfg, Precision::Fp32);
        let int8 = InferenceWorkload::build(&g, &cfg, Precision::Int8);
        for (q, f) in int8.layers.iter().zip(&fp32.layers) {
            assert!(q.weight_bytes * 2 <= f.weight_bytes);
            assert!(q.intermediate_bytes * 2 <= f.intermediate_bytes);
        }
        // MAC counts do not change with precision.
        assert_eq!(int8.total_macs(), fp32.total_macs());
    }

    #[test]
    fn flops_double_macs() {
        let g = graph();
        let w = InferenceWorkload::build(&g, &ModelConfig::gcn(&g), Precision::Fp32);
        assert_eq!(w.total_flops(), w.total_macs() * 2);
    }

    #[test]
    fn reddit_scale_gcn_flops_are_in_the_billions() {
        // The paper quotes ~19 GFLOPs for a 2-layer GCN on Reddit. We build
        // the workload from the full-size profile without generating the
        // graph (statistics only matter here).
        let profile = DatasetProfile::reddit();
        let small = GraphGenerator::new(0)
            .generate(&profile.scaled(0.0004))
            .unwrap();
        let mut cfg = ModelConfig::gcn(&small);
        cfg.input_dim = profile.feature_dim;
        cfg.hidden_dim = 64;
        let w = InferenceWorkload::build_with_adjacency_nnz(
            &small,
            &cfg,
            Precision::Fp32,
            profile.edges * 2,
        );
        // Aggregation over 229M directed edges × 64 features alone is ~15 G
        // MACs; assert the order of magnitude.
        assert!(w.total_flops() > 10_000_000_000u64);
    }

    #[test]
    fn gat_heads_widen_the_combination() {
        let g = graph();
        let gcn = InferenceWorkload::build(&g, &ModelConfig::gcn(&g), Precision::Fp32);
        let gat = InferenceWorkload::build(&g, &ModelConfig::gat(&g), Precision::Fp32);
        assert!(gat.layers[0].out_dim > gcn.layers[0].out_dim);
    }
}
