//! Baseline platform models for the GCoD evaluation (Table V).
//!
//! The paper compares GCoD against nine baselines: PyTorch Geometric and DGL
//! on a Xeon E5-2680 v3 CPU and an RTX 8000 GPU, the HyGCN and AWB-GCN
//! dedicated accelerators, and Deepburning-GL on three FPGA boards (ZC706,
//! KCU1500, Alveo U50). Each baseline is reproduced here as an analytical
//! platform model parameterised with its Table V system configuration plus
//! the microarchitectural behaviour that differentiates it:
//!
//! * CPUs/GPUs (`cpu`, `gpu`) are rooflines with framework-efficiency
//!   factors for the irregular aggregation phase,
//! * HyGCN (`hygcn`) uses *gathered* aggregation: neighbour features are
//!   fetched per edge, so feature traffic scales with the edge count and is
//!   only partially absorbed by its window-sliding locality optimisation,
//! * AWB-GCN (`awbgcn`) uses *distributed* aggregation with runtime
//!   workload rebalancing: good utilization but the full intermediate
//!   aggregation buffer spills off chip for large graphs,
//! * the Deepburning-GL FPGAs (`fpga`) are generic DSP rooflines.
//!
//! All models return the same [`gcod_platform::report::PerfReport`] as the GCoD
//! simulator, so the benchmark harness can compare them directly.
//!
//! # Example
//!
//! ```
//! use gcod_baselines::{suite, Platform, SimRequest};
//! use gcod_graph::{DatasetProfile, GraphGenerator};
//! use gcod_nn::models::ModelConfig;
//! use gcod_nn::quant::Precision;
//! use gcod_nn::workload::InferenceWorkload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = GraphGenerator::new(0).generate(&DatasetProfile::cora().scaled(0.05))?;
//! let workload = InferenceWorkload::build(&graph, &ModelConfig::gcn(&graph), Precision::Fp32);
//! let request = SimRequest::new(workload);
//! for platform in suite::all_platforms() {
//!     if !platform.requires_split() {
//!         assert!(platform.simulate(&request)?.latency_ms > 0.0);
//!     }
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod awbgcn;
mod cpu;
mod fpga;
mod gpu;
mod hygcn;
mod platform;
pub mod suite;

pub use gcod_platform::{Platform, PlatformError, SimRequest};
pub use platform::{AggregationStyle, PlatformSpec};
