//! Full-batch semi-supervised training loop.
//!
//! Mirrors the paper's training settings (Sec. VI-A): Adam with learning rate
//! 0.01, full-batch gradient descent on the masked cross-entropy loss, with a
//! configurable epoch budget (the paper uses 400; the test-suite uses far
//! fewer on scaled-down graphs).
//!
//! Every epoch runs on the persistent [`gcod_runtime::Pool`]: the cached
//! forward pass, the backward pass and the in-loop evaluation (which takes
//! [`GnnModel::forward`]'s lean, cache-free path) all inherit the model's
//! kernel and worker settings, so the whole epoch — sparse aggregation and
//! dense combination alike — is multi-core while staying bit-deterministic
//! across worker counts. The frozen benchmark's `nn.train_epoch_ms` probe
//! times one epoch of this loop.

use crate::loss::masked_cross_entropy;
use crate::metrics::masked_accuracy;
use crate::models::GnnModel;
use crate::optim::Adam;
use crate::Result;
use gcod_graph::Graph;
use serde::{Deserialize, Serialize};

/// Training-loop hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Record train/val accuracy every `log_every` epochs (0 = never).
    pub log_every: usize,
    /// Stop early when the validation accuracy has not improved for this many
    /// epochs (0 disables early stopping).
    pub patience: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 400,
            learning_rate: 0.01,
            weight_decay: 5e-4,
            log_every: 0,
            patience: 0,
        }
    }
}

/// One logged point of the training curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Training loss.
    pub loss: f32,
    /// Training accuracy.
    pub train_accuracy: f64,
    /// Validation accuracy.
    pub val_accuracy: f64,
}

/// Summary of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Number of epochs actually run (early stopping may cut it short).
    pub epochs_run: usize,
    /// Final loss on the training mask.
    pub final_loss: f32,
    /// Final accuracy on the training mask.
    pub final_train_accuracy: f64,
    /// Final accuracy on the validation mask.
    pub final_val_accuracy: f64,
    /// Final accuracy on the test mask.
    pub final_test_accuracy: f64,
    /// Logged curve (empty when `log_every == 0`).
    pub curve: Vec<EpochRecord>,
}

/// Full-batch trainer.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `model` on `graph` and returns the summary report.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the forward/backward passes (e.g. a graph
    /// that does not match the model configuration).
    pub fn fit(&self, model: &mut GnnModel, graph: &Graph) -> Result<TrainReport> {
        let mut optimizer =
            Adam::new(self.config.learning_rate).with_weight_decay(self.config.weight_decay);
        let mut curve = Vec::new();
        let mut best_val = 0.0f64;
        let mut since_best = 0usize;
        let mut epochs_run = 0usize;
        let mut final_loss = 0.0f32;

        for epoch in 0..self.config.epochs {
            let cache = model.forward_cached(graph)?;
            let loss_out = masked_cross_entropy(&cache.logits, graph.labels(), graph.train_mask())?;
            let (wgrads, bgrads) = model.backward(&cache, &loss_out.grad_logits)?;
            let grads = GnnModel::collect_grads(wgrads, bgrads);
            let mut params = model.parameters_mut();
            optimizer.step(&mut params, &grads);
            final_loss = loss_out.loss;
            epochs_run = epoch + 1;

            let should_log = self.config.log_every > 0 && (epoch % self.config.log_every == 0);
            let need_val = should_log || self.config.patience > 0;
            if need_val {
                let logits = model.forward(graph)?;
                let train_acc = masked_accuracy(&logits, graph.labels(), graph.train_mask());
                let val_acc = masked_accuracy(&logits, graph.labels(), graph.val_mask());
                if should_log {
                    curve.push(EpochRecord {
                        epoch,
                        loss: loss_out.loss,
                        train_accuracy: train_acc,
                        val_accuracy: val_acc,
                    });
                }
                if self.config.patience > 0 {
                    if val_acc > best_val + 1e-9 {
                        best_val = val_acc;
                        since_best = 0;
                    } else {
                        since_best += 1;
                        if since_best >= self.config.patience {
                            break;
                        }
                    }
                }
            }
        }

        let logits = model.forward(graph)?;
        Ok(TrainReport {
            epochs_run,
            final_loss,
            final_train_accuracy: masked_accuracy(&logits, graph.labels(), graph.train_mask()),
            final_val_accuracy: masked_accuracy(&logits, graph.labels(), graph.val_mask()),
            final_test_accuracy: masked_accuracy(&logits, graph.labels(), graph.test_mask()),
            curve,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelConfig;
    use gcod_graph::{DatasetProfile, GraphGenerator};

    fn graph() -> Graph {
        GraphGenerator::new(5)
            .generate(&DatasetProfile::custom("train", 120, 360, 16, 4))
            .unwrap()
    }

    #[test]
    fn gcn_learns_the_synthetic_labels() {
        let g = graph();
        let mut model = GnnModel::new(ModelConfig::gcn(&g), 0).unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 60,
            ..TrainConfig::default()
        });
        let before = masked_accuracy(&model.forward(&g).unwrap(), g.labels(), g.train_mask());
        let report = trainer.fit(&mut model, &g).unwrap();
        assert!(report.final_train_accuracy > before.max(0.5));
        assert!(
            report.final_test_accuracy > 0.4,
            "test acc {}",
            report.final_test_accuracy
        );
        assert!(report.final_loss.is_finite());
    }

    #[test]
    fn loss_decreases_over_training() {
        let g = graph();
        let mut model = GnnModel::new(ModelConfig::gcn(&g), 2).unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 40,
            log_every: 1,
            ..TrainConfig::default()
        });
        let report = trainer.fit(&mut model, &g).unwrap();
        let first = report.curve.first().unwrap().loss;
        let last = report.curve.last().unwrap().loss;
        assert!(last < first, "loss {first} -> {last} should decrease");
    }

    #[test]
    fn graphsage_also_trains() {
        let g = graph();
        let mut model = GnnModel::new(ModelConfig::graphsage(&g), 1).unwrap();
        let report = Trainer::new(TrainConfig {
            epochs: 40,
            ..TrainConfig::default()
        })
        .fit(&mut model, &g)
        .unwrap();
        assert!(report.final_train_accuracy > 0.5);
    }

    #[test]
    fn gin_also_trains() {
        let g = graph();
        let mut model = GnnModel::new(ModelConfig::gin(&g), 1).unwrap();
        let report = Trainer::new(TrainConfig {
            epochs: 40,
            learning_rate: 0.005,
            ..TrainConfig::default()
        })
        .fit(&mut model, &g)
        .unwrap();
        assert!(report.final_train_accuracy > 0.4);
    }

    #[test]
    fn early_stopping_cuts_training_short() {
        let g = graph();
        let mut model = GnnModel::new(ModelConfig::gcn(&g), 3).unwrap();
        let report = Trainer::new(TrainConfig {
            epochs: 200,
            patience: 5,
            ..TrainConfig::default()
        })
        .fit(&mut model, &g)
        .unwrap();
        assert!(
            report.epochs_run < 200,
            "should stop early, ran {}",
            report.epochs_run
        );
    }

    #[test]
    fn logging_interval_respected() {
        let g = graph();
        let mut model = GnnModel::new(ModelConfig::gcn(&g), 4).unwrap();
        let report = Trainer::new(TrainConfig {
            epochs: 10,
            log_every: 5,
            ..TrainConfig::default()
        })
        .fit(&mut model, &g)
        .unwrap();
        assert_eq!(report.curve.len(), 2);
        assert_eq!(report.curve[0].epoch, 0);
        assert_eq!(report.curve[1].epoch, 5);
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let g = graph();
        let run = || {
            let mut model = GnnModel::new(ModelConfig::gcn(&g), 9).unwrap();
            Trainer::new(TrainConfig {
                epochs: 15,
                ..TrainConfig::default()
            })
            .fit(&mut model, &g)
            .unwrap()
            .final_train_accuracy
        };
        assert_eq!(run(), run());
    }
}
