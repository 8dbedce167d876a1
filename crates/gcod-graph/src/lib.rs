//! Sparse graph substrate for the GCoD reproduction.
//!
//! This crate provides every graph-side building block the GCoD paper relies
//! on:
//!
//! * sparse matrix formats ([`CooMatrix`], [`CsrMatrix`], [`CscMatrix`]) with
//!   loss-less conversions between them,
//! * reduced-precision sparse storage ([`QuantizedCsr`], int8/int16 values
//!   behind a symmetric per-matrix scale) for the quantized compute path,
//! * the [`Graph`] type used by the GNN models (adjacency + features +
//!   labels + train/val/test masks),
//! * degree computation and the symmetric normalization
//!   `D^{-1/2} (A + I) D^{-1/2}` used by GCNs,
//! * synthetic dataset generators reproducing the statistics of the six
//!   graphs in Table III of the paper (Cora, CiteSeer, Pubmed, NELL,
//!   ogbn-arxiv, Reddit),
//! * a from-scratch multilevel balanced edge-cut partitioner standing in for
//!   METIS,
//! * node permutation handling,
//! * block/patch density statistics used by the structural sparsification
//!   step and by the accelerator simulator.
//!
//! # Example
//!
//! ```
//! use gcod_graph::{DatasetProfile, GraphGenerator};
//!
//! # fn main() -> Result<(), gcod_graph::GraphError> {
//! let profile = DatasetProfile::cora().scaled(0.1);
//! let graph = GraphGenerator::new(42).generate(&profile)?;
//! assert_eq!(graph.num_nodes(), profile.nodes);
//! assert!(graph.adjacency().nnz() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod coo;
mod csc;
mod csr;
mod datasets;
mod error;
mod generators;
mod graph;
mod normalize;
mod partition;
mod permutation;
mod quant;
mod stats;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use datasets::{DatasetProfile, DatasetStats, KNOWN_DATASETS};
pub use error::GraphError;
pub use generators::GraphGenerator;
pub use graph::{Graph, NodeMask};
pub use normalize::{normalize_row, normalize_symmetric, SelfLoops};
pub use partition::{PartitionConfig, Partitioner, Partitioning};
pub use permutation::Permutation;
pub use quant::{QuantValues, QuantWidth, QuantizedCsr};
pub use stats::{GraphStats, PatchGrid};

/// Result alias used across the graph substrate.
pub type Result<T> = std::result::Result<T, GraphError>;
