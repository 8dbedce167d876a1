//! Performance, memory-traffic and energy model of the GCoD two-pronged
//! accelerator (Sec. V of the paper).
//!
//! The paper implements GCoD on a Xilinx VCU128 FPGA (330 MHz, 4096 PEs,
//! 42 MB of on-chip memory, 460 GB/s HBM). This crate reproduces the
//! accelerator as a calibrated analytical/event-driven model with the same
//! resource parameters:
//!
//! * [`config`] — hardware configurations (the paper's VCU128 instance, the
//!   8-bit variant with 10240 PEs, and custom configurations),
//! * [`chunk`] — chunk-based sub-accelerators with resources allocated
//!   proportionally to their assigned workload,
//! * [`branches`] — the denser branch (block-diagonal subgraphs, one chunk
//!   per degree class) and the sparser branch (off-diagonal CSC workload with
//!   query-based weight forwarding),
//! * [`pipeline`] — the efficiency-aware and resource-aware inter-phase
//!   pipelines (Fig. 7, Tab. II),
//! * [`simulator`] — the top-level [`GcodAccelerator`] that ties everything
//!   together behind the shared [`gcod_platform::Platform`] contract.
//!
//! Off-chip traffic accounting, the energy breakdown of Fig. 12 and the
//! [`PerfReport`](gcod_platform::report::PerfReport) every platform returns
//! live in `gcod-platform` ([`gcod_platform::memory`],
//! [`gcod_platform::energy`], [`gcod_platform::report`]).
//!
//! # Example
//!
//! ```
//! use gcod_accel::config::AcceleratorConfig;
//! use gcod_accel::simulator::GcodAccelerator;
//! use gcod_core::{GcodConfig, SubgraphLayout, SplitWorkload};
//! use gcod_graph::{DatasetProfile, GraphGenerator};
//! use gcod_nn::models::ModelConfig;
//! use gcod_nn::quant::Precision;
//! use gcod_nn::workload::InferenceWorkload;
//! use gcod_platform::{Platform, SimRequest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = GraphGenerator::new(0).generate(&DatasetProfile::cora().scaled(0.05))?;
//! let layout = SubgraphLayout::build(&graph, &GcodConfig::default(), 0)?;
//! let reordered = layout.apply(&graph);
//! let split = SplitWorkload::extract(reordered.adjacency(), &layout);
//! let workload = InferenceWorkload::build(&reordered, &ModelConfig::gcn(&reordered), Precision::Fp32);
//! let request = SimRequest::with_split(workload, split);
//! let report = GcodAccelerator::new(AcceleratorConfig::vcu128()).simulate(&request)?;
//! assert!(report.latency_ms > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod branches;
pub mod chunk;
pub mod compiler;
pub mod config;
pub mod pipeline;
pub mod simulator;

pub use simulator::GcodAccelerator;
