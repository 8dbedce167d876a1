//! Cross-process sharded serving for the GCoD reproduction.
//!
//! Production-scale graphs (the Reddit-class workloads of the paper's
//! Table III) do not fit one serving process: the feature matrix alone is
//! hundreds of megabytes before any activations. This crate splits one
//! served GCN across OS processes the way BNS-GCN splits training — each
//! worker owns a partition of the nodes plus a *halo* of 1-hop boundary
//! neighbours, and shards exchange boundary activations between layers.
//!
//! The pieces, bottom-up:
//!
//! * `wire` — hand-rolled, zero-dependency binary serialisation with
//!   fully-typed decode errors (corrupt bytes never panic),
//! * `frame` — length-prefixed frames with a version byte and CRC-32,
//! * `proto` — the shard control messages ([`ShardRequest`] /
//!   [`ShardReply`]) and the self-contained [`ShardSpec`],
//! * `transport` — Unix-domain sockets with a TCP loopback fallback,
//!   with per-connection read/write deadlines,
//! * `fault` — deterministic, [`FaultPlan`]-scripted fault injection
//!   ([`ChaosConn`] drops/delays/truncates/corrupts scripted frames) so
//!   the supervisor's recovery paths are tested, not hoped for,
//! * `plan` — [`ShardPlan`]: partition the graph, slice propagation
//!   rows, build the halo-exchange routing map,
//! * [`worker`] — the `ShardWorker` state machine plus the socket loop
//!   and CLI entry point worker binaries delegate to.
//!
//! The router side (scatter requests, relay halo activations, gather and
//! reduce results) lives in `gcod-serve`, next to the single-process
//! serving path it is bit-identical to.
//!
//! # Bit-identity
//!
//! Sharded inference reproduces the single-process forward pass *exactly*
//! (same f32 bits), because the plan slices the full-graph propagation
//! matrix (degrees are whole-graph), keeps local node orderings sorted by
//! global id (monotone column remap ⇒ identical accumulation order), and
//! each worker mirrors `GnnModel::forward`'s per-layer operation sequence
//! via `gcod_nn::layers::shard_layer_forward`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod fault;
mod frame;
mod plan;
mod proto;
mod transport;
mod wire;
pub mod worker;

pub use error::{Result, ShardError};
pub use fault::{ChaosConn, FaultAction, FaultEntry, FaultPlan};
pub use frame::{crc32, read_frame, write_frame};
pub use plan::{ShardPlan, ShardPlanConfig};
pub use proto::{ShardReply, ShardRequest, ShardSpec};
pub use transport::{ShardAddr, ShardConn, ShardListener, TransportKind};
pub use wire::{Wire, WireError, WireReader, WireResult};
pub use worker::{run as run_worker, worker_main};
