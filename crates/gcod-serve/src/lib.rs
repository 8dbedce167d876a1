//! Batched inference serving over trained GCoD models.
//!
//! This crate is the front-end the ROADMAP's serving item called for: it
//! owns trained [`GnnModel`](gcod_nn::models::GnnModel)s (packaged as
//! [`ServedModel`]s, typically built via the facade's `Experiment::serve()`
//! stage) and answers two request families through one queued surface:
//!
//! * **node classification** ([`ServeRequest::Classify`]) — executed on the
//!   CPU kernel path, once: a served model's first classification runs the
//!   full-graph forward pass over the `gcod-runtime` pool and keeps the
//!   logits, and every request after it is a row gather (a GCN layer reads
//!   every node's neighbourhood, and nothing mutates a registered model).
//!   A batcher coalesces compatible requests (same served model, hence same
//!   dataset / architecture / precision) into **one fused gather** and
//!   splits the stacked logit rows back out per request. Batching and
//!   caching are bit-deterministic: every answer carries exactly the bytes
//!   of an uncached `GnnModel::forward_rows` (pinned by this crate's tests
//!   and the workspace `serve_differential` suite). A [`ShardedModel`] puts
//!   a shard fabric in front of the same plan and answers from it again
//!   when the fabric degrades.
//! * **perf prediction** ([`ServeRequest::PredictPerf`]) — routed across the
//!   platform suite by scoring each eligible backend with
//!   [`Platform::predicted_cost_ms`](gcod_platform::Platform::predicted_cost_ms)
//!   and dispatching to the cheapest (or an explicitly named) platform
//!   model.
//!
//! The dispatcher is **event-driven**: submissions, control changes
//! (pause/resume/shutdown) and shard worker-recovery events raise sticky
//! bits on a [`gcod_runtime::Reactor`], and the dispatcher blocks in
//! `Reactor::wait` whenever the queue runs dry — there is no polling
//! interval anywhere in the serving path. Batching is **deadline-aware**:
//! each fused pass is sized so the oldest queued deadline survives it
//! (given the observed per-request service time), and submissions whose
//! deadline would expire waiting for the backlog are shed at the door with
//! [`RejectReason::Overloaded`].
//!
//! The client surface is synchronous-client + handle-based async-style:
//! [`Server::spawn`] starts the dispatcher and returns a cloneable
//! [`Handle`]; [`Handle::submit`] takes the request plus [`SubmitOptions`]
//! (deadline, full-queue policy), enqueues onto a **bounded** queue and
//! returns a [`Ticket`]; [`Ticket::wait`] blocks for the response. All
//! admission failures surface as [`ServeError::Rejected`] carrying a
//! [`RejectReason`]. [`Handle::shutdown`] (or dropping the last handle)
//! drains and resolves every accepted ticket before the dispatcher exits.
//!
//! ```
//! use gcod_graph::{DatasetProfile, GraphGenerator};
//! use gcod_nn::models::{GnnModel, ModelConfig};
//! use gcod_serve::{ServedModel, ServeRequest, Server, SubmitOptions};
//! use std::time::Duration;
//!
//! # fn main() -> gcod_serve::Result<()> {
//! let graph = GraphGenerator::new(1)
//!     .generate(&DatasetProfile::custom("demo", 80, 240, 8, 3))
//!     .expect("generate");
//! let model = GnnModel::new(ModelConfig::gcn(&graph), 1).expect("model");
//! let server = Server::new().register(ServedModel::new("demo-gcn", graph, model));
//!
//! let handle = server.spawn();
//! let ticket = handle.submit(
//!     ServeRequest::classify("demo-gcn", vec![0, 5, 2]),
//!     SubmitOptions::default().deadline(Duration::from_secs(5)),
//! )?;
//! let response = ticket.wait()?;
//! assert_eq!(response.as_classification().unwrap().classes.len(), 3);
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod error;
mod model;
mod request;
mod server;
mod shard;
mod ticket;

pub use error::{RejectReason, Result, ServeError};
pub use model::ServedModel;
pub use request::{Backend, Classification, PerfPrediction, ServeRequest, ServeResponse};
pub use server::{Handle, Server, ServerConfig, ServerStats, SubmitOptions};
pub use shard::{
    ShardHealth, ShardOptions, ShardShutdownOutcome, ShardTransportStats, ShardedModel,
    ShutdownReport, SpawnMode, SupervisorPolicy,
};
pub use ticket::Ticket;
