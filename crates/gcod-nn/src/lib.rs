//! Minimal neural-network substrate for the GCoD reproduction.
//!
//! The paper trains five GCN variants (GCN, GIN, GAT, GraphSAGE, ResGCN)
//! with PyTorch Geometric / DGL. Those frameworks do not exist in Rust, so
//! this crate provides the pieces the GCoD algorithm actually needs, built
//! from scratch:
//!
//! * a row-major dense [`Tensor`] with the matrix ops GCNs use
//!   (matmul, transpose, row softmax, ReLU, elementwise arithmetic),
//! * sparse-dense multiplication ([`spmm`]) against the CSR adjacency,
//!   behind a selectable kernel suite ([`kernels`]): the reference scalar
//!   loop, a cache-tiled kernel, a row-range-parallel kernel and a
//!   degree-binned dispatch kernel — all bit-for-bit identical, selected
//!   per run via [`kernels::KernelKind`] (see the [`kernels`] module docs
//!   for how selection flows through training and the `gcod` facade),
//! * Glorot initialisation (`init`),
//! * the per-layer template `H' = σ(P·H·W + b)` ([`layers`]), spelled once
//!   per numeric domain — `layers::graph_conv_forward` in f32,
//!   `layers::graph_conv_forward_quant` on integers — and run by every
//!   forward path: lean inference, the cached training pass, quantized
//!   inference and the shard workers ([`layers::shard_layer_forward`]),
//! * the model zoo ([`models`]) covering Table IV of the paper, one layer
//!   loop shared by all of those paths,
//! * manual-gradient training for the two-layer GCN (the model the GCoD
//!   graph-tuning loss is formulated on), with an `optim::Adam` optimiser
//!   and cross-entropy loss,
//! * a real int8/int16 compute path ([`quant`] for storage and the
//!   [`QuantizedModel`] runner, [`qkernels`] for the integer SpMM/GEMM
//!   kernels with widened-integer accumulation) backing the GCoD (8-bit)
//!   variant — selectable per model via [`models::GnnModel::with_precision`],
//! * workload descriptors ([`workload`]) that feed the accelerator and
//!   baseline platform models.
//!
//! # Example
//!
//! ```
//! use gcod_graph::{DatasetProfile, GraphGenerator};
//! use gcod_nn::models::{GnnModel, ModelConfig};
//! use gcod_nn::train::{TrainConfig, Trainer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = GraphGenerator::new(0).generate(&DatasetProfile::cora().scaled(0.03))?;
//! let mut model = GnnModel::new(ModelConfig::gcn(&graph), 0)?;
//! let report = Trainer::new(TrainConfig { epochs: 30, ..TrainConfig::default() })
//!     .fit(&mut model, &graph)?;
//! assert!(report.final_train_accuracy > 0.3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod init;
pub mod kernels;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod models;
mod optim;
pub mod qkernels;
pub mod quant;
pub mod sparse_ops;
mod tensor;
pub mod train;
pub mod workload;

pub use error::NnError;
pub use kernels::{KernelKind, SpmmKernel};
pub use qkernels::QuantSpmmKernel;
pub use quant::{Precision, QuantizedModel, QuantizedTensor};
pub use sparse_ops::spmm;
pub use tensor::Tensor;

/// Below this many multiply-accumulates, the parallel kernels (dense matmul
/// and `ParallelCsr` SpMM alike) stay on the calling thread instead of
/// submitting to the [`gcod_runtime::Pool`]: a pool submission costs a queue
/// lock and a wake-up (single-digit microseconds), which dominates products
/// smaller than this. One shared constant so the dense and sparse cut-offs
/// cannot drift apart when the pool's dispatch cost is retuned.
pub(crate) const POOL_DISPATCH_MIN_MACS: u64 = 1 << 16;

/// Result alias for the neural-network substrate.
pub type Result<T> = std::result::Result<T, NnError>;
