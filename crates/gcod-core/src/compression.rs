//! GCN compression baselines of Table VII.
//!
//! The paper compares GCoD's accuracy against four compression baselines:
//! Random Pruning (RP), the SGCN graph sparsifier, quantization-aware
//! training (QAT) and Degree-Quant. Each is reproduced here in the form the
//! comparison needs — the same graph/model/training substrate with the
//! baseline's graph- or weight-level transformation applied — so the relative
//! accuracy ordering (GCoD ≥ vanilla ≥ smart pruning ≥ random pruning) can be
//! measured end-to-end.

use crate::Result;
use gcod_graph::{CooMatrix, Graph, QuantWidth};
use gcod_nn::models::{GnnModel, ModelConfig, ModelKind};
use gcod_nn::quant::QuantizedModel;
use gcod_nn::train::{TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A compression baseline from Table VII.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CompressionMethod {
    /// No compression: the vanilla model.
    Vanilla,
    /// Random pruning of a fraction of the edges.
    RandomPruning {
        /// Fraction of undirected edges removed uniformly at random.
        ratio: f64,
    },
    /// SGCN-style sparsification: removes the lowest-importance edges, where
    /// importance is the symmetric-normalized edge weight (edges between
    /// high-degree nodes go first).
    Sgcn {
        /// Fraction of undirected edges removed.
        ratio: f64,
    },
    /// Quantization-aware training: weights round-tripped through INT8 at
    /// evaluation time.
    Qat,
    /// Degree-Quant: INT8 quantization that protects high-degree nodes by
    /// evaluating them in full precision (modelled as INT8 evaluation with
    /// full-precision fallback for the top-degree decile, which keeps the
    /// accuracy above plain QAT).
    DegreeQuant,
}

impl CompressionMethod {
    /// Short name used in report tables.
    pub fn name(&self) -> &'static str {
        match self {
            CompressionMethod::Vanilla => "vanilla",
            CompressionMethod::RandomPruning { .. } => "rp",
            CompressionMethod::Sgcn { .. } => "sgcn",
            CompressionMethod::Qat => "qat",
            CompressionMethod::DegreeQuant => "degree-quant",
        }
    }
}

/// Result of evaluating one compression method.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressionOutcome {
    /// Which method.
    pub method: String,
    /// Test accuracy achieved.
    pub test_accuracy: f64,
    /// Number of directed edges the training graph retained.
    pub edges_retained: usize,
    /// Whether evaluation happened at INT8.
    pub quantized: bool,
}

/// Trains `model_kind` on `graph` under `method` and reports the resulting
/// test accuracy.
///
/// # Errors
///
/// Propagates graph and training errors.
pub fn evaluate_compression(
    graph: &Graph,
    model_kind: ModelKind,
    method: CompressionMethod,
    epochs: usize,
    seed: u64,
) -> Result<CompressionOutcome> {
    let train_graph = match method {
        CompressionMethod::RandomPruning { ratio } => random_prune(graph, ratio, seed)?,
        CompressionMethod::Sgcn { ratio } => importance_prune(graph, ratio)?,
        _ => graph.clone(),
    };
    let mut model = GnnModel::new(ModelConfig::for_kind(model_kind, &train_graph), seed)?;
    Trainer::new(TrainConfig {
        epochs,
        ..TrainConfig::default()
    })
    .fit(&mut model, &train_graph)?;

    // One integer model serves both quantized arms.
    let int8_logits = || QuantizedModel::from_model(&model, QuantWidth::I8).forward(&train_graph);
    let (logits, quantized) = match method {
        CompressionMethod::Qat => (int8_logits()?, true),
        CompressionMethod::DegreeQuant => {
            // Full-precision logits for the protected hubs, INT8 elsewhere.
            let fp32 = model.forward(&train_graph)?;
            let int8 = int8_logits()?;
            let degrees = train_graph.degrees();
            let mut sorted = degrees.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let cutoff = sorted[(sorted.len() / 10).min(sorted.len().saturating_sub(1))];
            (mix_logits(&fp32, &int8, &degrees, cutoff), true)
        }
        _ => (model.forward(&train_graph)?, false),
    };
    let test_accuracy =
        gcod_nn::metrics::masked_accuracy(&logits, train_graph.labels(), train_graph.test_mask());
    Ok(CompressionOutcome {
        method: method.name().to_string(),
        test_accuracy,
        edges_retained: train_graph.num_edges(),
        quantized,
    })
}

fn mix_logits(
    fp32: &gcod_nn::Tensor,
    int8: &gcod_nn::Tensor,
    degrees: &[usize],
    cutoff: usize,
) -> gcod_nn::Tensor {
    let mut out = int8.clone();
    for (node, &d) in degrees.iter().enumerate() {
        if d >= cutoff {
            for c in 0..out.cols() {
                out.set(node, c, fp32.get(node, c));
            }
        }
    }
    out
}

/// Removes `ratio` of the undirected edges uniformly at random.
fn random_prune(graph: &Graph, ratio: f64, seed: u64) -> Result<Graph> {
    let adj = graph.adjacency();
    let mut rng = StdRng::seed_from_u64(seed);
    let undirected: Vec<(usize, usize)> = adj
        .iter()
        .filter(|&(r, c, _)| r < c)
        .map(|(r, c, _)| (r, c))
        .collect();
    let keep_flags: std::collections::HashMap<(usize, usize), bool> = undirected
        .iter()
        .map(|&e| (e, rng.gen::<f64>() >= ratio))
        .collect();
    rebuild(graph, |r, c| {
        let key = (r.min(c), r.max(c));
        keep_flags.get(&key).copied().unwrap_or(true)
    })
}

/// Removes the `ratio` lowest-importance undirected edges, importance being
/// the symmetric-normalized weight `1/sqrt(d_i d_j)`.
fn importance_prune(graph: &Graph, ratio: f64) -> Result<Graph> {
    let adj = graph.adjacency();
    let degrees = adj.row_degrees();
    let mut edges: Vec<(usize, usize, f64)> = adj
        .iter()
        .filter(|&(r, c, _)| r < c)
        .map(|(r, c, _)| {
            let importance =
                1.0 / ((degrees[r].max(1) as f64).sqrt() * (degrees[c].max(1) as f64).sqrt());
            (r, c, importance)
        })
        .collect();
    edges.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"));
    let remove = (edges.len() as f64 * ratio) as usize;
    let victims: std::collections::HashSet<(usize, usize)> =
        edges.iter().take(remove).map(|&(r, c, _)| (r, c)).collect();
    rebuild(graph, |r, c| !victims.contains(&(r.min(c), r.max(c))))
}

fn rebuild<F: Fn(usize, usize) -> bool>(graph: &Graph, keep: F) -> Result<Graph> {
    let adj = graph.adjacency();
    let mut coo = CooMatrix::with_capacity(adj.rows(), adj.cols(), adj.nnz());
    for (r, c, v) in adj.iter() {
        if keep(r, c) {
            coo.push(r, c, v)?;
        }
    }
    Ok(graph.with_adjacency(coo.to_csr())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcod_graph::{DatasetProfile, GraphGenerator};

    fn graph() -> Graph {
        GraphGenerator::new(71)
            .generate(&DatasetProfile::custom("cmp", 150, 500, 12, 4))
            .unwrap()
    }

    #[test]
    fn random_pruning_removes_roughly_the_requested_fraction() {
        let g = graph();
        let pruned = random_prune(&g, 0.3, 0).unwrap();
        let kept = pruned.num_edges() as f64 / g.num_edges() as f64;
        assert!(kept > 0.55 && kept < 0.85, "kept fraction {kept}");
        // Symmetry preserved.
        for (r, c, v) in pruned.adjacency().iter() {
            assert_eq!(pruned.adjacency().get(c, r), v);
        }
    }

    #[test]
    fn importance_pruning_removes_hub_to_hub_edges_first() {
        let g = graph();
        let pruned = importance_prune(&g, 0.2).unwrap();
        assert!(pruned.num_edges() < g.num_edges());
        let degrees = g.degrees();
        // Mean endpoint degree of removed edges should exceed that of kept
        // edges (hub-hub edges are "least important" under the SGCN score).
        let kept: std::collections::HashSet<(usize, usize)> = pruned
            .adjacency()
            .iter()
            .filter(|&(r, c, _)| r < c)
            .map(|(r, c, _)| (r, c))
            .collect();
        let mut removed_deg = Vec::new();
        let mut kept_deg = Vec::new();
        for (r, c, _) in g.adjacency().iter().filter(|&(r, c, _)| r < c) {
            let d = degrees[r] + degrees[c];
            if kept.contains(&(r, c)) {
                kept_deg.push(d as f64);
            } else {
                removed_deg.push(d as f64);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(mean(&removed_deg) > mean(&kept_deg));
    }

    #[test]
    fn table7_ordering_gcod_vs_random_pruning() {
        // Smart methods should beat aggressive random pruning on accuracy.
        let g = graph();
        let epochs = 30;
        let vanilla =
            evaluate_compression(&g, ModelKind::Gcn, CompressionMethod::Vanilla, epochs, 0)
                .unwrap();
        let rp = evaluate_compression(
            &g,
            ModelKind::Gcn,
            CompressionMethod::RandomPruning { ratio: 0.5 },
            epochs,
            0,
        )
        .unwrap();
        assert!(
            vanilla.test_accuracy >= rp.test_accuracy - 0.05,
            "vanilla {} vs RP {}",
            vanilla.test_accuracy,
            rp.test_accuracy
        );
        assert!(rp.edges_retained < vanilla.edges_retained);
    }

    #[test]
    fn quantized_methods_report_quantized_flag() {
        let g = graph();
        let qat = evaluate_compression(&g, ModelKind::Gcn, CompressionMethod::Qat, 15, 0).unwrap();
        assert!(qat.quantized);
        let dq = evaluate_compression(&g, ModelKind::Gcn, CompressionMethod::DegreeQuant, 15, 0)
            .unwrap();
        assert!(dq.quantized);
        assert_eq!(qat.edges_retained, g.num_edges());
    }

    #[test]
    fn method_names_are_stable() {
        assert_eq!(CompressionMethod::Vanilla.name(), "vanilla");
        assert_eq!(CompressionMethod::RandomPruning { ratio: 0.1 }.name(), "rp");
        assert_eq!(CompressionMethod::Sgcn { ratio: 0.1 }.name(), "sgcn");
        assert_eq!(CompressionMethod::Qat.name(), "qat");
        assert_eq!(CompressionMethod::DegreeQuant.name(), "degree-quant");
    }
}
