//! GCoD hyper-parameters.

use crate::{GcodError, Result};
use gcod_nn::kernels::KernelKind;
use gcod_nn::quant::Precision;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the GCoD split-and-conquer algorithm.
///
/// The two knobs the paper's ablation sweeps (Sec. VI-C) are the number of
/// degree classes `C` ([`GcodConfig::num_classes`], which equals the number
/// of denser-branch sub-accelerators) and the total number of subgraphs `S`
/// ([`GcodConfig::num_subgraphs`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GcodConfig {
    /// Number of degree classes `C` (one hardware chunk per class). The
    /// paper sweeps 1–4 and defaults to 2.
    pub num_classes: usize,
    /// Total number of subgraphs `S` across all classes. The paper sweeps
    /// {8, 12, 16, 20}.
    pub num_subgraphs: usize,
    /// Number of groups `G` the subgraphs are distributed over.
    pub num_groups: usize,
    /// Explicit degree-partition thresholds `\hat d_1 .. \hat d_{C-1}`; when
    /// `None` the thresholds are chosen from degree quantiles so classes are
    /// roughly node-balanced.
    pub degree_thresholds: Option<Vec<usize>>,
    /// Target fraction of edges to prune in the sparsify step (the paper
    /// matches SGCN's 10% without accuracy loss).
    pub prune_ratio: f64,
    /// Weight of the polarization term `L_pola` relative to the sparsity
    /// term when scoring edges.
    pub polarization_weight: f64,
    /// Number of outer sparsify/polarize iterations (the ADMM outer loop;
    /// each iteration prunes a slice of the target ratio and is followed by a
    /// retraining pass in the full pipeline).
    pub tune_iterations: usize,
    /// Patch side length for structural sparsification.
    pub patch_size: usize,
    /// Structural-sparsification threshold η: off-diagonal patches with fewer
    /// non-zeros are removed entirely (the paper uses 10–30).
    pub patch_threshold: u32,
    /// Epochs of GCN pretraining on the partitioned graph (Step 1).
    pub pretrain_epochs: usize,
    /// Epochs of each GCN retraining pass (Steps 2–3).
    pub retrain_epochs: usize,
    /// Enable the early-bird early stopping of Sec. IV-B2: pretraining stops
    /// once the important-edge mask stabilises, cutting training cost.
    pub early_bird: bool,
    /// Early-bird mask-distance threshold (fraction of the edge mask allowed
    /// to change between consecutive checks before training is considered
    /// converged enough to stop).
    pub early_bird_tolerance: f64,
    /// SpMM kernel every GCN trained by the pipeline aggregates with. All
    /// kernels are bit-for-bit identical, so this changes training
    /// wall-clock only — never accuracies, splits or simulated-perf results.
    pub kernel: KernelKind,
    /// Worker lanes every GCN trained by the pipeline runs its parallel
    /// kernels (SpMM and dense GEMM) with: 0 selects the global
    /// `gcod_runtime` pool's lane count (`GCOD_WORKERS` /
    /// `available_parallelism`). Like the kernel, bit-deterministic — worker
    /// count changes wall-clock only.
    pub workers: usize,
    /// Numeric precision every GCN built by the pipeline evaluates with.
    /// Unlike `kernel`/`workers` this DOES change numerics: at
    /// [`Precision::Int8`]/[`Precision::Int16`] inference (`forward`,
    /// accuracy evaluation) runs the integer compute path, while training
    /// gradients always stay f32 (post-training quantization).
    pub precision: Precision,
}

impl Default for GcodConfig {
    fn default() -> Self {
        Self {
            num_classes: 2,
            num_subgraphs: 8,
            num_groups: 2,
            degree_thresholds: None,
            prune_ratio: 0.10,
            polarization_weight: 0.5,
            tune_iterations: 3,
            patch_size: 32,
            patch_threshold: 20,
            pretrain_epochs: 60,
            retrain_epochs: 30,
            early_bird: true,
            early_bird_tolerance: 0.02,
            kernel: KernelKind::default(),
            workers: 0,
            precision: Precision::Fp32,
        }
    }
}

impl GcodConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`GcodError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        if self.num_classes == 0 {
            return Err(GcodError::InvalidConfig {
                context: "num_classes must be at least 1".to_string(),
            });
        }
        if self.num_groups == 0 {
            return Err(GcodError::InvalidConfig {
                context: "num_groups must be at least 1".to_string(),
            });
        }
        if self.num_subgraphs < self.num_classes {
            return Err(GcodError::InvalidConfig {
                context: format!(
                    "num_subgraphs ({}) must be at least num_classes ({})",
                    self.num_subgraphs, self.num_classes
                ),
            });
        }
        if !(0.0..1.0).contains(&self.prune_ratio) {
            return Err(GcodError::InvalidConfig {
                context: format!("prune_ratio {} must lie in [0, 1)", self.prune_ratio),
            });
        }
        if self.tune_iterations == 0 {
            return Err(GcodError::InvalidConfig {
                context: "tune_iterations must be at least 1".to_string(),
            });
        }
        if self.patch_size == 0 {
            return Err(GcodError::InvalidConfig {
                context: "patch_size must be positive".to_string(),
            });
        }
        if let Some(thresholds) = &self.degree_thresholds {
            if thresholds.len() + 1 != self.num_classes {
                return Err(GcodError::InvalidConfig {
                    context: format!(
                        "degree_thresholds needs {} entries for {} classes, got {}",
                        self.num_classes - 1,
                        self.num_classes,
                        thresholds.len()
                    ),
                });
            }
            if thresholds.windows(2).any(|w| w[0] >= w[1]) {
                return Err(GcodError::InvalidConfig {
                    context: "degree_thresholds must be strictly increasing".to_string(),
                });
            }
        }
        Ok(())
    }

    /// Number of subgraphs assigned to each class (evenly split, remainder to
    /// the first classes).
    pub(crate) fn subgraphs_per_class(&self) -> Vec<usize> {
        let base = self.num_subgraphs / self.num_classes;
        let extra = self.num_subgraphs % self.num_classes;
        (0..self.num_classes)
            .map(|c| base + usize::from(c < extra))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(GcodConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_zero_classes_and_groups() {
        let cfg = GcodConfig {
            num_classes: 0,
            ..GcodConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = GcodConfig {
            num_groups: 0,
            ..GcodConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_fewer_subgraphs_than_classes() {
        let cfg = GcodConfig {
            num_classes: 4,
            num_subgraphs: 2,
            ..GcodConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_bad_prune_ratio() {
        let cfg = GcodConfig {
            prune_ratio: 1.0,
            ..GcodConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_inconsistent_thresholds() {
        let cfg = GcodConfig {
            num_classes: 3,
            degree_thresholds: Some(vec![5]),
            ..GcodConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = GcodConfig {
            num_classes: 3,
            degree_thresholds: Some(vec![8, 5]),
            ..GcodConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = GcodConfig {
            num_classes: 3,
            degree_thresholds: Some(vec![5, 8]),
            ..GcodConfig::default()
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn subgraphs_per_class_distributes_remainder() {
        let cfg = GcodConfig {
            num_classes: 3,
            num_subgraphs: 8,
            ..GcodConfig::default()
        };
        assert_eq!(cfg.subgraphs_per_class(), vec![3, 3, 2]);
        let total: usize = cfg.subgraphs_per_class().iter().sum();
        assert_eq!(total, 8);
    }
}
