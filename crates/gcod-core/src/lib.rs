//! The GCoD split-and-conquer training algorithm (the paper's primary
//! contribution, Sec. IV).
//!
//! GCoD resolves the accuracy-vs-regularity dilemma of GCN acceleration by
//! *polarizing* the graph adjacency matrix during training: nodes are
//! clustered into degree classes, each class is partitioned into
//! workload-balanced subgraphs, subgraphs are spread over groups, and a
//! regularized graph-tuning step concentrates the edge mass inside the
//! resulting block-diagonal structure while pruning a target fraction of
//! edges. The outcome is an adjacency matrix with exactly two kinds of
//! workload — a **denser** block-diagonal part and a **sparser** off-diagonal
//! remainder — which the dedicated two-pronged accelerator in `gcod-accel`
//! exploits.
//!
//! The crate is organised along the three steps of Fig. 3:
//!
//! 1. [`SubgraphLayout`]: degree classes, balanced subgraph
//!    partitioning (METIS stand-in), group distribution and the induced node
//!    reordering (Step 1),
//! 2. [`Polarizer`]: sparsify + polarize graph tuning (Step 2),
//! 3. [`structural_sparsify`]: patch-based structural sparsification (Step 3),
//!
//! with [`GcodPipeline`] orchestrating pretraining, tuning and retraining
//! (including the early-bird early-stopping variant of Sec. IV-B2),
//! [`workload`] extracting the denser/sparser split consumed by the
//! accelerator, [`render_adjacency`] drawing Fig. 4-style adjacency views, and
//! [`compression`] implementing the baselines of Table VII.
//!
//! # Example
//!
//! ```
//! use gcod_core::{GcodConfig, GcodPipeline};
//! use gcod_graph::{DatasetProfile, GraphGenerator};
//! use gcod_nn::models::ModelKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = GraphGenerator::new(0).generate(&DatasetProfile::cora().scaled(0.03))?;
//! let config = GcodConfig { pretrain_epochs: 10, retrain_epochs: 10, ..GcodConfig::default() };
//! let result = GcodPipeline::new(config).run(&graph, ModelKind::Gcn, 0)?;
//! assert!(result.split.denser_nnz + result.split.sparser_nnz > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod classify;
pub mod compression;
mod config;
mod error;
mod layout;
mod pipeline;
mod polarize;
mod structural;
mod visualize;
pub mod workload;

pub use compression::{CompressionMethod, CompressionOutcome};
pub use config::GcodConfig;
pub use error::GcodError;
pub use layout::{SubgraphInfo, SubgraphLayout};
pub use pipeline::{GcodPipeline, GcodResult, TrainingCost};
pub use polarize::{PolarizeReport, Polarizer};
pub use structural::{structural_sparsify, StructuralReport};
pub use visualize::render_adjacency;
pub use workload::{DenseBlock, SplitWorkload};

/// Result alias for the GCoD algorithm crate.
pub type Result<T> = std::result::Result<T, GcodError>;
