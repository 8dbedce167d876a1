//! The three-step GCoD training pipeline (Fig. 3).
//!
//! 1. **Pretrain** the GCN on the partitioned (reordered) graph — optionally
//!    with early-bird early stopping (Sec. IV-B2),
//! 2. **Tune** the graph: sparsify + polarize, then retrain to recover
//!    accuracy,
//! 3. **Structurally sparsify** the adjacency patches, then retrain again.
//!
//! The pipeline returns everything downstream consumers need: the tuned
//! graph, the layout, the denser/sparser workload split, per-step reports and
//! the accuracy before/after (Table VII's GCoD rows), plus a training-cost
//! estimate in epoch-equivalents (the paper reports 0.7×–1.1× the standard
//! training cost).

use crate::polarize::{PolarizeReport, Polarizer};
use crate::structural::{structural_sparsify, StructuralReport};
use crate::workload::SplitWorkload;
use crate::{GcodConfig, Result, SubgraphLayout};
use gcod_graph::Graph;
use gcod_nn::models::{GnnModel, ModelConfig, ModelKind};
use gcod_nn::train::{TrainConfig, Trainer};
use serde::{Deserialize, Serialize};

/// Training-cost accounting in epoch-equivalents.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingCost {
    /// Epochs spent in Step 1 (pretraining).
    pub pretrain_epochs: usize,
    /// Epochs spent retraining after Step 2.
    pub tune_retrain_epochs: usize,
    /// Epochs spent retraining after Step 3.
    pub structural_retrain_epochs: usize,
    /// Epochs a standard (non-GCoD) training run would use, for the relative
    /// overhead comparison.
    pub standard_epochs: usize,
}

impl TrainingCost {
    /// Total GCoD epochs.
    pub fn total(&self) -> usize {
        self.pretrain_epochs + self.tune_retrain_epochs + self.structural_retrain_epochs
    }

    /// GCoD training cost relative to standard training (the paper reports
    /// 0.7×–1.1×).
    pub fn relative_overhead(&self) -> f64 {
        if self.standard_epochs == 0 {
            0.0
        } else {
            self.total() as f64 / self.standard_epochs as f64
        }
    }
}

/// Everything produced by a GCoD training run.
#[derive(Debug, Clone)]
pub struct GcodResult {
    /// The reordered, sparsified, polarized graph (node order = layout
    /// order).
    pub graph: Graph,
    /// The split-and-conquer layout (classes, subgraphs, groups,
    /// permutation).
    pub layout: SubgraphLayout,
    /// The denser/sparser workload split of the final adjacency matrix.
    pub split: SplitWorkload,
    /// The trained model (on the tuned graph).
    pub model: GnnModel,
    /// Test accuracy of the baseline model trained on the untouched graph.
    pub baseline_accuracy: f64,
    /// Test accuracy after the full GCoD pipeline.
    pub gcod_accuracy: f64,
    /// Report of the sparsify + polarize step.
    pub polarize_report: PolarizeReport,
    /// Report of the structural sparsification step.
    pub structural_report: StructuralReport,
    /// Training-cost accounting.
    pub training_cost: TrainingCost,
    /// Epoch at which the early-bird criterion fired (None when disabled or
    /// never triggered).
    pub early_bird_epoch: Option<usize>,
}

impl GcodResult {
    /// Overall edge reduction relative to the original graph.
    pub fn total_prune_ratio(&self) -> f64 {
        let before = self.polarize_report.nnz_before;
        let after = self.structural_report.nnz_after;
        if before == 0 {
            0.0
        } else {
            1.0 - after as f64 / before as f64
        }
    }

    /// Accuracy delta of GCoD over the vanilla baseline (positive = GCoD is
    /// better, which Table VII reports for every dataset).
    pub fn accuracy_delta(&self) -> f64 {
        self.gcod_accuracy - self.baseline_accuracy
    }
}

/// Orchestrates the three-step GCoD training flow.
#[derive(Debug, Clone)]
pub struct GcodPipeline {
    config: GcodConfig,
}

impl GcodPipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: GcodConfig) -> Self {
        Self { config }
    }

    /// Runs the full pipeline for `model_kind` on `graph`.
    ///
    /// # Errors
    ///
    /// Propagates configuration, partitioning and training errors.
    pub fn run(&self, graph: &Graph, model_kind: ModelKind, seed: u64) -> Result<GcodResult> {
        self.config.validate()?;

        // Baseline: standard training on the untouched graph, used for the
        // accuracy comparison and the relative-cost accounting.
        let standard_epochs = self.config.pretrain_epochs + 2 * self.config.retrain_epochs;
        let mut baseline_model = GnnModel::new(ModelConfig::for_kind(model_kind, graph), seed)?
            .with_kernel(self.config.kernel)
            .with_workers(self.config.workers)
            .with_precision(self.config.precision);
        let baseline_report = Trainer::new(TrainConfig {
            epochs: standard_epochs,
            ..TrainConfig::default()
        })
        .fit(&mut baseline_model, graph)?;

        // Step 1: partition + reorder, then pretrain on the partitioned graph.
        let layout = SubgraphLayout::build(graph, &self.config, seed)?;
        let reordered = layout.apply(graph);
        let mut model = GnnModel::new(ModelConfig::for_kind(model_kind, &reordered), seed)?
            .with_kernel(self.config.kernel)
            .with_workers(self.config.workers)
            .with_precision(self.config.precision);
        let (pretrain_epochs, early_bird_epoch) = self.pretrain(&mut model, &reordered, seed)?;

        // Step 2: sparsify + polarize the adjacency, retrain to recover.
        let polarizer = Polarizer::new(self.config.clone());
        let (tuned_adj, polarize_report) = polarizer.tune(reordered.adjacency(), &layout)?;
        let tuned_graph = reordered.with_adjacency(tuned_adj)?;
        Trainer::new(TrainConfig {
            epochs: self.config.retrain_epochs,
            ..TrainConfig::default()
        })
        .fit(&mut model, &tuned_graph)?;

        // Step 3: structural sparsification, retrain again.
        let (structural_adj, structural_report) = structural_sparsify(
            tuned_graph.adjacency(),
            &layout,
            self.config.patch_size,
            self.config.patch_threshold,
        );
        let final_graph = tuned_graph.with_adjacency(structural_adj)?;
        let final_report = Trainer::new(TrainConfig {
            epochs: self.config.retrain_epochs,
            ..TrainConfig::default()
        })
        .fit(&mut model, &final_graph)?;

        let split = SplitWorkload::extract(final_graph.adjacency(), &layout);
        Ok(GcodResult {
            graph: final_graph,
            layout,
            split,
            model,
            baseline_accuracy: baseline_report.final_test_accuracy,
            gcod_accuracy: final_report.final_test_accuracy,
            polarize_report,
            structural_report,
            training_cost: TrainingCost {
                pretrain_epochs,
                tune_retrain_epochs: self.config.retrain_epochs,
                structural_retrain_epochs: self.config.retrain_epochs,
                standard_epochs,
            },
            early_bird_epoch,
        })
    }

    /// Step 1 pretraining with optional early-bird stopping.
    ///
    /// The early-bird criterion of Sec. IV-B2 watches the set of "important"
    /// connections; when that mask stops changing between checks the winning
    /// subnetwork has emerged and pretraining stops. The importance mask here
    /// is the top-half of edges ranked by the trained model's first-layer
    /// feature agreement — a cheap proxy with the same fixed-point behaviour.
    fn pretrain(
        &self,
        model: &mut GnnModel,
        graph: &Graph,
        _seed: u64,
    ) -> Result<(usize, Option<usize>)> {
        if !self.config.early_bird {
            Trainer::new(TrainConfig {
                epochs: self.config.pretrain_epochs,
                ..TrainConfig::default()
            })
            .fit(model, graph)?;
            return Ok((self.config.pretrain_epochs, None));
        }
        // Train in slices, checking mask drift between consecutive slices.
        let slice = (self.config.pretrain_epochs / 5).max(1);
        let trainer = Trainer::new(TrainConfig {
            epochs: slice,
            ..TrainConfig::default()
        });
        let mut previous_mask: Option<Vec<bool>> = None;
        let mut epochs_run = 0usize;
        let mut fired_at = None;
        while epochs_run < self.config.pretrain_epochs {
            trainer.fit(model, graph)?;
            epochs_run += slice;
            let mask = important_edge_mask(model, graph)?;
            if let Some(prev) = &previous_mask {
                let changed = prev.iter().zip(&mask).filter(|(a, b)| a != b).count();
                let drift = changed as f64 / mask.len().max(1) as f64;
                if drift <= self.config.early_bird_tolerance {
                    fired_at = Some(epochs_run);
                    break;
                }
            }
            previous_mask = Some(mask);
        }
        Ok((epochs_run, fired_at))
    }
}

/// Boolean mask over the undirected edges marking the top-50% by endpoint
/// logit agreement under the current model. Used only for the early-bird
/// drift criterion.
fn important_edge_mask(model: &GnnModel, graph: &Graph) -> Result<Vec<bool>> {
    let logits = model.forward(graph)?;
    let predictions = logits.argmax_rows();
    let mut scores: Vec<(usize, f64)> = Vec::new();
    let mut idx = 0usize;
    for (r, c, _) in graph.adjacency().iter() {
        if r < c {
            // Edges joining nodes the model currently assigns to the same
            // class are the ones graph tuning would keep.
            let score = if predictions[r] == predictions[c] {
                1.0
            } else {
                0.0
            };
            scores.push((idx, score));
            idx += 1;
        }
    }
    let keep = scores.len() / 2;
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].1.partial_cmp(&scores[a].1).expect("finite"));
    let mut mask = vec![false; scores.len()];
    for &i in order.iter().take(keep) {
        mask[i] = true;
    }
    Ok(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcod_graph::{DatasetProfile, GraphGenerator};

    fn graph() -> Graph {
        GraphGenerator::new(51)
            .generate(&DatasetProfile::custom("pipe", 200, 700, 16, 4))
            .unwrap()
    }

    fn fast_config() -> GcodConfig {
        GcodConfig {
            num_classes: 2,
            num_subgraphs: 6,
            num_groups: 2,
            pretrain_epochs: 15,
            retrain_epochs: 10,
            prune_ratio: 0.1,
            patch_size: 16,
            patch_threshold: 6,
            ..GcodConfig::default()
        }
    }

    #[test]
    fn full_pipeline_produces_consistent_result() {
        let g = graph();
        let result = GcodPipeline::new(fast_config())
            .run(&g, ModelKind::Gcn, 0)
            .unwrap();
        // The tuned graph must have fewer or equal edges.
        assert!(result.graph.num_edges() <= g.num_edges());
        assert!(result.total_prune_ratio() >= 0.0);
        // The workload split covers the whole tuned adjacency.
        assert_eq!(result.split.total_nnz(), result.graph.num_edges());
        // Reports chain together: structural step starts from the polarize output.
        assert_eq!(
            result.structural_report.nnz_before,
            result.polarize_report.nnz_after
        );
    }

    #[test]
    fn accuracy_stays_close_to_baseline() {
        let g = graph();
        let result = GcodPipeline::new(fast_config())
            .run(&g, ModelKind::Gcn, 1)
            .unwrap();
        // Table VII: GCoD matches or improves accuracy. On tiny synthetic
        // graphs we allow a modest drop but no collapse.
        assert!(
            result.gcod_accuracy >= result.baseline_accuracy - 0.15,
            "GCoD {} vs baseline {}",
            result.gcod_accuracy,
            result.baseline_accuracy
        );
        assert!(result.gcod_accuracy > 0.3);
    }

    #[test]
    fn early_bird_reduces_pretraining_epochs() {
        let g = graph();
        let mut cfg = fast_config();
        cfg.pretrain_epochs = 40;
        cfg.early_bird = true;
        cfg.early_bird_tolerance = 0.2; // generous so it fires on a tiny graph
        let with_eb = GcodPipeline::new(cfg.clone())
            .run(&g, ModelKind::Gcn, 2)
            .unwrap();
        cfg.early_bird = false;
        let without = GcodPipeline::new(cfg).run(&g, ModelKind::Gcn, 2).unwrap();
        assert!(
            with_eb.training_cost.pretrain_epochs <= without.training_cost.pretrain_epochs,
            "early bird should not train longer"
        );
        assert!(without.early_bird_epoch.is_none());
    }

    #[test]
    fn training_cost_is_comparable_to_standard() {
        let g = graph();
        let result = GcodPipeline::new(fast_config())
            .run(&g, ModelKind::Gcn, 3)
            .unwrap();
        let overhead = result.training_cost.relative_overhead();
        assert!(
            overhead > 0.3 && overhead < 1.5,
            "relative overhead {overhead} outside the plausible band"
        );
        assert_eq!(
            result.training_cost.total(),
            result.training_cost.pretrain_epochs
                + result.training_cost.tune_retrain_epochs
                + result.training_cost.structural_retrain_epochs
        );
    }

    #[test]
    fn kernel_choice_does_not_change_pipeline_results() {
        let g = graph();
        let run_with = |kernel| {
            let cfg = GcodConfig {
                kernel,
                ..fast_config()
            };
            GcodPipeline::new(cfg).run(&g, ModelKind::Gcn, 7).unwrap()
        };
        let naive = run_with(gcod_nn::kernels::KernelKind::NaiveCsr);
        let parallel = run_with(gcod_nn::kernels::KernelKind::ParallelCsr);
        assert_eq!(naive.baseline_accuracy, parallel.baseline_accuracy);
        assert_eq!(naive.gcod_accuracy, parallel.gcod_accuracy);
        assert_eq!(naive.split.total_nnz(), parallel.split.total_nnz());
        assert_eq!(naive.graph.num_edges(), parallel.graph.num_edges());
    }

    #[test]
    fn worker_count_does_not_change_pipeline_results() {
        let g = graph();
        let run_with = |workers| {
            let cfg = GcodConfig {
                workers,
                kernel: gcod_nn::kernels::KernelKind::ParallelCsr,
                ..fast_config()
            };
            GcodPipeline::new(cfg).run(&g, ModelKind::Gcn, 9).unwrap()
        };
        let one = run_with(1);
        let two = run_with(2);
        let auto = run_with(0);
        assert_eq!(one.baseline_accuracy, two.baseline_accuracy);
        assert_eq!(one.gcod_accuracy, two.gcod_accuracy);
        assert_eq!(one.gcod_accuracy, auto.gcod_accuracy);
        assert_eq!(one.split.total_nnz(), auto.split.total_nnz());
        assert_eq!(one.graph.num_edges(), two.graph.num_edges());
    }

    #[test]
    fn pipeline_rejects_invalid_config() {
        let g = graph();
        let cfg = GcodConfig {
            num_classes: 0,
            ..fast_config()
        };
        assert!(GcodPipeline::new(cfg).run(&g, ModelKind::Gcn, 0).is_err());
    }

    #[test]
    fn works_for_graphsage_too() {
        let g = graph();
        let result = GcodPipeline::new(fast_config())
            .run(&g, ModelKind::GraphSage, 4)
            .unwrap();
        assert!(result.gcod_accuracy > 0.25);
    }
}
