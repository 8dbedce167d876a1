//! The shard router: serve one model from `k` worker processes (or
//! threads) over the `gcod-shard` wire protocol, supervised for fault
//! tolerance.
//!
//! ```text
//!                    ┌─ worker 0 (owns partition 0 + halo) ─┐
//! ShardedModel ──UDS─┼─ worker 1 (owns partition 1 + halo) ─┤ halo rows
//!  (router +         └─ worker k-1 ...                      ┘ relayed by
//!   supervisor)                                               the router
//! ```
//!
//! The router drives the layer lockstep: it sends `RunLayer` to each
//! shard, collects the shard's exported boundary activations, reassembles
//! per-shard halo tensors using the plan's halo-source map, and ships them
//! back with `Advance` before the next layer. After the final layer,
//! `forward_rows` answers classification requests with `Gather`
//! round-trips that fetch only the requested rows from the owning shards.
//!
//! # Fault tolerance
//!
//! Every RPC runs under a supervisor ([`SupervisorPolicy`]) that
//! classifies failures and picks the cheapest sound recovery:
//!
//! | observed failure | classification | recovery |
//! |---|---|---|
//! | CRC/decode reject (either direction) | `Reject` | retry the idempotent RPC with capped exponential backoff |
//! | socket deadline expired | `Timeout` | `try_wait` + `Ping` probe; clean `Pong` ⇒ stream in sync ⇒ retry |
//! | EOF / transport error / failed probe | `Disconnect` | respawn the worker, replay its state |
//! | protocol violation, model error | `Fatal` | propagate — not a fault-tolerance situation |
//!
//! Retries are sound because every shard RPC is idempotent (`RunLayer`
//! recomputes from the worker's held activations, `Advance` overwrites the
//! halo, `Gather`/`Ping` are pure) and the length-prefixed framing means a
//! rejected frame never desynchronises the byte stream. A respawned worker
//! is replayed to the exact state of the fabric — from the router's cached
//! per-layer exports once a full pass has completed, or by restarting the
//! (deterministic) pass from layer 0 — so recovery is bit-identical to an
//! unfaulted run. When a shard exhausts its respawn budget the model
//! *degrades*: the remaining workers are reaped and requests are answered
//! by the [`ServedModel`] the router owns — the same cached-logits plan a
//! local registration runs — bit-identical and flagged
//! [`ShardHealth::Degraded`] in [`ShardTransportStats`]. In-flight
//! requests always resolve — with rows, a typed error, or a fallback
//! answer — never by hanging.
//!
//! Because the plan slices the *full-graph* propagation matrix and keeps
//! local orderings sorted by global id, the logits reassembled here are
//! bit-identical to the single-process `GnnModel::forward` path — pinned
//! by `tests/shard_differential.rs` and the chaos suites.

use crate::error::{RejectReason, Result, ServeError};
use crate::model::ServedModel;
use gcod_graph::Graph;
use gcod_nn::models::GnnModel;
use gcod_nn::Tensor;
use gcod_runtime::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use gcod_runtime::sync::{thread, Mutex};
use gcod_runtime::{RecoveryGate, Waker};
use gcod_shard::{
    read_frame, write_frame, ChaosConn, FaultEntry, FaultPlan, ShardError, ShardListener,
    ShardPlan, ShardPlanConfig, ShardReply, ShardRequest, TransportKind, WireError,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// How the router obtains its worker endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpawnMode {
    /// In-process worker threads (each still speaks the full wire protocol
    /// over a real socket). Cheap, hermetic — the default, and what the
    /// serving benches use.
    Thread,
    /// One OS process per shard: the binary at this path is spawned with
    /// `--addr <addr> --shard <id>` and must delegate to
    /// [`gcod_shard::worker_main`] (the workspace ships
    /// `src/bin/shard_worker.rs`).
    Process(PathBuf),
}

/// Parses a `GCOD_SHARD_TIMEOUT_MS`-style override; `None`, junk and zero
/// fall back to the 5-second default.
pub(crate) fn shard_timeout_ms(value: Option<&str>) -> u64 {
    value
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(5_000)
}

/// Recovery policy of the shard supervisor: how hard to try before a
/// worker is declared dead, and how many deaths to absorb before the model
/// degrades to local execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// In-place retries of one RPC (checksum rejects, probed timeouts)
    /// before escalating to a respawn.
    pub max_retries: u32,
    /// First retry backoff; doubles per retry (capped) — checksum rejects
    /// under real interference tend to cluster.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// Worker respawns absorbed per shard (launch retries included) before
    /// the model degrades to the local fallback path.
    pub respawn_budget: u32,
    /// Socket read/write deadline on every shard connection. Defaults to
    /// the `GCOD_SHARD_TIMEOUT_MS` environment variable, or 5000.
    pub rpc_timeout_ms: u64,
    /// Read deadline of the `Ping` liveness probe sent after an RPC
    /// timeout.
    pub heartbeat_timeout_ms: u64,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_retries: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 64,
            respawn_budget: 3,
            rpc_timeout_ms: shard_timeout_ms(
                std::env::var("GCOD_SHARD_TIMEOUT_MS").ok().as_deref(),
            ),
            heartbeat_timeout_ms: 1_000,
        }
    }
}

/// Launch options for a [`ShardedModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOptions {
    /// Number of shards (`k`); each owns one graph partition.
    pub shards: usize,
    /// Socket flavour carrying the wire protocol.
    pub transport: TransportKind,
    /// Worker threads or worker processes.
    pub mode: SpawnMode,
    /// Supervisor recovery policy (retries, deadlines, respawn budget).
    pub policy: SupervisorPolicy,
    /// Deterministic fault script, for chaos tests. Empty (the default)
    /// means a pass-through transport.
    pub faults: FaultPlan,
}

impl ShardOptions {
    /// `shards` thread-mode workers over the default transport (UDS where
    /// available, TCP loopback otherwise).
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            transport: TransportKind::default(),
            mode: SpawnMode::Thread,
            policy: SupervisorPolicy::default(),
            faults: FaultPlan::new(),
        }
    }

    /// Selects the socket flavour.
    #[must_use]
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Spawns each shard as an OS process running `worker_bin`.
    #[must_use]
    pub fn with_worker_bin(mut self, worker_bin: impl Into<PathBuf>) -> Self {
        self.mode = SpawnMode::Process(worker_bin.into());
        self
    }

    /// Overrides the supervisor recovery policy.
    #[must_use]
    pub fn with_policy(mut self, policy: SupervisorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Installs a deterministic fault script on the launch connections.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// Health of the sharded fabric behind a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardHealth {
    /// All shards serving over the wire.
    #[default]
    Healthy,
    /// A shard exhausted its respawn budget: the fabric was torn down and
    /// requests are answered by the router's local [`ServedModel`] plan
    /// (bit-identical, but without the sharded memory ceiling).
    Degraded,
}

/// A point-in-time snapshot of shard-transport counters, aggregated over
/// every sharded model a server owns (all zeros when none are sharded).
/// Surfaced through [`ServerStats`](crate::ServerStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardTransportStats {
    /// Worker endpoints across all sharded models.
    pub shards: u64,
    /// Halo (replicated boundary) node slots across all shards — the
    /// memory cost of the BNS-style decomposition.
    pub halo_nodes: u64,
    /// Protocol frames written by routers.
    pub frames_sent: u64,
    /// Protocol frames read by routers.
    pub frames_received: u64,
    /// Bytes written by routers (length prefix and checksum included).
    pub bytes_sent: u64,
    /// Bytes read by routers.
    pub bytes_received: u64,
    /// Halo activation rows relayed between shards across all layers.
    pub halo_rows: u64,
    /// Full layer-lockstep forward passes driven (cached afterwards —
    /// stays at 1 per sharded model under a fixed graph).
    pub forward_passes: u64,
    /// Logit rows answered from shard `Gather` round-trips.
    pub rows_gathered: u64,
    /// Peak number of concurrent `forward_rows` calls queued on one
    /// router (the per-shard request queue depth).
    pub peak_queue_depth: u64,
    /// RPCs reissued by the supervisor (after a reject or probed timeout).
    pub retries: u64,
    /// Workers replaced (launch retries included).
    pub respawns: u64,
    /// Requests answered by the degraded local-fallback path.
    pub fallbacks: u64,
    /// Frames rejected by a CRC/decode check on either side of a shard
    /// connection.
    pub checksum_rejects: u64,
    /// Liveness probes that went unanswered (dead process or no `Pong`).
    pub heartbeat_misses: u64,
    /// Worst health across the aggregated models.
    pub health: ShardHealth,
}

impl ShardTransportStats {
    /// Field-wise sum (peaks take the max, health takes the worst), for
    /// aggregating across models.
    pub(crate) fn merge(&mut self, other: &ShardTransportStats) {
        self.shards += other.shards;
        self.halo_nodes += other.halo_nodes;
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.halo_rows += other.halo_rows;
        self.forward_passes += other.forward_passes;
        self.rows_gathered += other.rows_gathered;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.retries += other.retries;
        self.respawns += other.respawns;
        self.fallbacks += other.fallbacks;
        self.checksum_rejects += other.checksum_rejects;
        self.heartbeat_misses += other.heartbeat_misses;
        if other.health == ShardHealth::Degraded {
            self.health = ShardHealth::Degraded;
        }
    }
}

/// Shared atomics behind [`ShardTransportStats`]; the server's dispatcher
/// holds a clone of the `Arc` so `Handle::stats` sees live counters.
#[derive(Debug, Default)]
pub(crate) struct ShardStatsAtomics {
    shards: AtomicU64,
    halo_nodes: AtomicU64,
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    halo_rows: AtomicU64,
    forward_passes: AtomicU64,
    rows_gathered: AtomicU64,
    queue_depth: AtomicU64,
    peak_queue_depth: AtomicU64,
    retries: AtomicU64,
    respawns: AtomicU64,
    fallbacks: AtomicU64,
    checksum_rejects: AtomicU64,
    heartbeat_misses: AtomicU64,
    degraded: AtomicBool,
}

impl ShardStatsAtomics {
    pub(crate) fn snapshot(&self) -> ShardTransportStats {
        ShardTransportStats {
            shards: self.shards.load(Ordering::SeqCst),
            halo_nodes: self.halo_nodes.load(Ordering::SeqCst),
            frames_sent: self.frames_sent.load(Ordering::SeqCst),
            frames_received: self.frames_received.load(Ordering::SeqCst),
            bytes_sent: self.bytes_sent.load(Ordering::SeqCst),
            bytes_received: self.bytes_received.load(Ordering::SeqCst),
            halo_rows: self.halo_rows.load(Ordering::SeqCst),
            forward_passes: self.forward_passes.load(Ordering::SeqCst),
            rows_gathered: self.rows_gathered.load(Ordering::SeqCst),
            peak_queue_depth: self.peak_queue_depth.load(Ordering::SeqCst),
            retries: self.retries.load(Ordering::SeqCst),
            respawns: self.respawns.load(Ordering::SeqCst),
            fallbacks: self.fallbacks.load(Ordering::SeqCst),
            checksum_rejects: self.checksum_rejects.load(Ordering::SeqCst),
            heartbeat_misses: self.heartbeat_misses.load(Ordering::SeqCst),
            health: if self.degraded.load(Ordering::SeqCst) {
                ShardHealth::Degraded
            } else {
                ShardHealth::Healthy
            },
        }
    }
}

/// One live worker endpoint, joined at shutdown. `Gone` marks a handle
/// already taken for reaping (respawn replaces it with a fresh one).
enum WorkerHandle {
    Thread(thread::JoinHandle<()>),
    Process(std::process::Child),
    Gone,
}

/// Joins/waits one worker to completion; `true` when it was reaped.
fn reap(worker: WorkerHandle) -> bool {
    match worker {
        WorkerHandle::Thread(handle) => handle.join().is_ok(),
        WorkerHandle::Process(mut child) => child.wait().is_ok(),
        WorkerHandle::Gone => false,
    }
}

/// Severs the shard's connection and force-kills a process worker (the
/// handle stays in place for a later [`reap`]).
fn kill_endpoint(state: &mut RouterState, shard: usize) {
    if let Some(conn) = state.conns.get(shard) {
        conn.shutdown_both();
    }
    if let Some(WorkerHandle::Process(child)) = state.workers.get_mut(shard) {
        let _ = child.kill();
    }
}

/// Mutable router state: one connection per shard plus the forward cache.
/// Guarded by one mutex — the layer lockstep is inherently a whole-model
/// critical section, and `Gather`s reuse its ordering.
struct RouterState {
    conns: Vec<ChaosConn>,
    workers: Vec<WorkerHandle>,
    /// Per-layer exported boundary activations of the last full pass,
    /// `exports_cache[layer][shard]` — the replay source that restores a
    /// respawned worker bit-identically without touching its peers.
    exports_cache: Vec<Vec<Tensor>>,
    /// Supervised RPCs issued per shard (drives scripted `KillWorker`
    /// faults).
    rpc_seq: Vec<u64>,
    /// Pending scripted kills, as `(shard, nth RPC)` — one-shot.
    kills: Vec<(u32, u64)>,
    /// Respawn budget consumed per shard.
    respawns_used: Vec<u32>,
    /// Workers hold post-forward activations; set after the first driven
    /// pass so later requests skip straight to `Gather`.
    forward_done: bool,
    shut_down: bool,
    /// The fabric was torn down; requests run on the local plan.
    degraded: bool,
}

/// Per-shard outcome of [`ShardedModel::shutdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardShutdownOutcome {
    /// The shard this outcome describes.
    pub shard: usize,
    /// `None` for a clean `Shutdown`/`Bye` goodbye; otherwise what went
    /// wrong on the wire (the worker is reaped regardless).
    pub error: Option<String>,
    /// Whether the worker thread/process was joined/waited to completion.
    pub reaped: bool,
}

/// Outcome of [`ShardedModel::shutdown`]: one entry per shard that still
/// had a live connection (none when the model had already degraded —
/// degradation reaps the fabric eagerly).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShutdownReport {
    /// Per-shard goodbye/reap outcomes.
    pub outcomes: Vec<ShardShutdownOutcome>,
    /// Whether the model was serving degraded at shutdown time.
    pub degraded: bool,
}

impl ShutdownReport {
    /// `true` when every shard said goodbye cleanly and was reaped.
    pub fn is_clean(&self) -> bool {
        self.outcomes.iter().all(|o| o.error.is_none() && o.reaped)
    }
}

/// Supervisor failure taxonomy (see the module docs for the recovery
/// matched to each class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailureClass {
    /// CRC/decode reject on an intact, still-framed stream.
    Reject,
    /// A socket deadline expired; the peer may be alive.
    Timeout,
    /// EOF or a broken transport.
    Disconnect,
    /// Not a fault-tolerance situation.
    Fatal,
}

fn classify(err: &ServeError) -> FailureClass {
    match err {
        ServeError::Shard(ShardError::Wire(w)) => match w {
            WireError::TimedOut { .. } => FailureClass::Timeout,
            WireError::Closed | WireError::Io { .. } => FailureClass::Disconnect,
            // Decode-level rejects (checksum, version, tag, truncation…):
            // the frame was consumed whole, the stream is still framed.
            _ => FailureClass::Reject,
        },
        // The worker rejected one of *our* frames on its CRC/decode check
        // (see `gcod_shard::worker::run`) and stayed in its loop.
        ServeError::Shard(ShardError::Worker { message, .. })
            if message.starts_with("bad frame:") =>
        {
            FailureClass::Reject
        }
        _ => FailureClass::Fatal,
    }
}

/// Why one supervised RPC gave up on the current connection.
enum RpcFail {
    /// The worker/connection must be replaced before retrying.
    Respawn,
    /// Propagate to the caller — retrying cannot help.
    Fatal(ServeError),
}

/// Why the supervisor gave up on the sharded fabric for this request.
enum Outage {
    /// Respawn budget exhausted — serve from the local fallback.
    Degrade,
    /// Propagate to the caller.
    Fatal(ServeError),
}

impl From<ServeError> for Outage {
    fn from(err: ServeError) -> Self {
        Outage::Fatal(err)
    }
}

/// Capped exponential backoff between in-place RPC retries.
fn backoff(policy: &SupervisorPolicy, attempt: u32) {
    let exp = attempt.saturating_sub(1).min(16);
    let ms = policy
        .backoff_base_ms
        .saturating_mul(1u64 << exp)
        .min(policy.backoff_cap_ms);
    if ms > 0 {
        // gcod-check: allow(thread-sleep) — retry backoff: there is no peer to park on a condvar for; the point is to let transient interference clear.
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// One served model executed across `k` shard workers; the drop-in sharded
/// counterpart of [`ServedModel`] (which it owns: the shard fabric is
/// transport in front of that one local plan).
pub struct ShardedModel {
    /// The local plan: what a degraded model answers from, what validates
    /// node indices, and what perf prediction routes on. Costs one extra
    /// copy of graph + weights on the router — the price of a fallback
    /// that needs no worker.
    served: ServedModel,
    plan: ShardPlan,
    options: ShardOptions,
    /// Serialises respawn cycles and lets shutdown block new ones — the
    /// begin/finish/await/close state machine model-checked in
    /// `tests/model_supervisor.rs`.
    gate: RecoveryGate,
    state: Mutex<RouterState>,
    stats: Arc<ShardStatsAtomics>,
    /// Pinged after every completed recovery transition (respawn or
    /// degrade) so an event-driven host — the serving reactor — can observe
    /// worker death handling without polling. `None` outside a server.
    recovery_waker: Mutex<Option<Waker>>,
}

impl std::fmt::Debug for ShardedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedModel")
            .field("name", &self.name())
            .field("shards", &self.plan.shards())
            .field("num_nodes", &self.plan.num_nodes())
            .field("halo_nodes", &self.plan.total_halo_nodes())
            .finish()
    }
}

impl ShardedModel {
    /// Plans the shards, launches one worker per shard (thread or process
    /// per `options.mode`), connects, and loads each worker's
    /// [`ShardSpec`](gcod_shard::ShardSpec). On return every worker is
    /// loaded and idle; the first classification drives the forward pass.
    ///
    /// Launch failures of the spawn/handshake kind are retried against the
    /// per-shard respawn budget; exhausting it yields a *degraded* model
    /// (local fallback), not an error.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shard`] on plan rejection (zero shards, more shards
    /// than nodes, feature-dependent propagation) or protocol violations
    /// during the handshake.
    pub fn launch(
        name: impl Into<String>,
        graph: &Graph,
        model: &GnnModel,
        options: &ShardOptions,
    ) -> Result<ShardedModel> {
        let plan = ShardPlan::build(graph, model, &ShardPlanConfig::new(options.shards))?;
        let stats = Arc::new(ShardStatsAtomics::default());
        stats.shards.store(plan.shards() as u64, Ordering::SeqCst);
        stats
            .halo_nodes
            .store(plan.total_halo_nodes() as u64, Ordering::SeqCst);

        let k = plan.shards();
        let mut conns = Vec::with_capacity(k);
        let mut workers = Vec::with_capacity(k);
        let mut respawns_used = vec![0u32; k];
        let mut degraded = false;
        'shards: for (shard, used) in respawns_used.iter_mut().enumerate() {
            // The scripted transport faults ride the first connection
            // attempt only; retries get a clean wire.
            let mut faults = options.faults.transport_entries(shard as u32);
            loop {
                match Self::connect_worker(
                    &plan,
                    options,
                    shard,
                    std::mem::take(&mut faults),
                    &stats,
                ) {
                    Ok((conn, worker)) => {
                        conns.push(conn);
                        workers.push(worker);
                        continue 'shards;
                    }
                    Err(e) if classify(&e) == FailureClass::Fatal => return Err(e),
                    Err(_) => {
                        if *used >= options.policy.respawn_budget {
                            degraded = true;
                            break 'shards;
                        }
                        *used += 1;
                        stats.respawns.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        }

        let sharded = ShardedModel {
            served: ServedModel::new(name, graph.clone(), model.clone()),
            plan,
            options: options.clone(),
            gate: RecoveryGate::new(),
            state: Mutex::new(RouterState {
                conns,
                workers,
                exports_cache: Vec::new(),
                rpc_seq: vec![0; k],
                kills: options.faults.kill_entries(),
                respawns_used,
                forward_done: false,
                shut_down: false,
                degraded: false,
            }),
            stats,
            recovery_waker: Mutex::new(None),
        };
        if degraded {
            sharded.degrade(&mut sharded.state.lock_unpoisoned());
        }
        Ok(sharded)
    }

    /// Binds a listener, spawns one worker, accepts its connection, arms
    /// the socket deadlines and runs the `Hello`/`Load`/`Loaded`
    /// handshake. On any failure the worker is reaped before the error is
    /// returned — no half-launched endpoints leak.
    fn connect_worker(
        plan: &ShardPlan,
        options: &ShardOptions,
        shard: usize,
        faults: Vec<FaultEntry>,
        stats: &ShardStatsAtomics,
    ) -> Result<(ChaosConn, WorkerHandle)> {
        let listener = ShardListener::bind(options.transport)?;
        let addr = listener.local_addr()?;
        let worker = match &options.mode {
            SpawnMode::Thread => {
                let shard_id = shard as u32;
                WorkerHandle::Thread(thread::spawn_named(
                    &format!("gcod-shard-worker-{shard}"),
                    move || {
                        // Connect/protocol failures surface router-side
                        // as handshake or read errors.
                        if let Ok(conn) = gcod_shard::ShardConn::dial(&addr) {
                            let _ = gcod_shard::run_worker(conn, shard_id);
                        }
                    },
                ))
            }
            SpawnMode::Process(bin) => {
                let child = std::process::Command::new(bin)
                    .arg("--addr")
                    .arg(addr.to_string())
                    .arg("--shard")
                    .arg(shard.to_string())
                    .spawn()
                    .map_err(|e| ShardError::Spawn {
                        context: format!("spawning {}: {e}", bin.display()),
                    })?;
                WorkerHandle::Process(child)
            }
        };
        let mut conn = ChaosConn::with_faults(listener.accept()?, faults);
        let timeout = Duration::from_millis(options.policy.rpc_timeout_ms);
        let handshake = (|| -> Result<()> {
            conn.set_read_timeout(Some(timeout))?;
            conn.set_write_timeout(Some(timeout))?;
            match recv(&mut conn, shard as u32, stats)? {
                ShardReply::Hello { shard: said } if said == shard as u32 => {}
                other => {
                    let expected = format_args!("Hello{{{shard}}}");
                    return Err(unexpected(shard, expected, &other));
                }
            }
            send(
                &mut conn,
                &ShardRequest::Load(Box::new(plan.spec(shard).clone())),
                stats,
            )?;
            match recv(&mut conn, shard as u32, stats)? {
                ShardReply::Loaded { owned, halo }
                    if owned as usize == plan.owned(shard).len()
                        && halo as usize == plan.halo(shard).len() => {}
                other => {
                    let expected = format!(
                        "Loaded{{owned: {}, halo: {}}}",
                        plan.owned(shard).len(),
                        plan.halo(shard).len()
                    );
                    return Err(unexpected(shard, expected, &other));
                }
            }
            Ok(())
        })();
        if let Err(e) = handshake {
            conn.shutdown_both();
            match worker {
                WorkerHandle::Thread(handle) => {
                    let _ = handle.join();
                }
                WorkerHandle::Process(mut child) => {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                WorkerHandle::Gone => {}
            }
            return Err(e);
        }
        Ok((conn, worker))
    }

    /// The serving key (batching compatibility, like `ServedModel::name`).
    pub fn name(&self) -> &str {
        self.served.name()
    }

    /// The local plan this router fronts.
    pub(crate) fn served(&self) -> &ServedModel {
        &self.served
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.plan.shards()
    }

    /// The shard plan driving this router.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Snapshot of this model's transport counters.
    pub fn stats(&self) -> ShardTransportStats {
        self.stats.snapshot()
    }

    /// Whether the model has degraded to its local plan.
    pub fn is_degraded(&self) -> bool {
        self.state.lock_unpoisoned().degraded
    }

    pub(crate) fn stats_arc(&self) -> Arc<ShardStatsAtomics> {
        Arc::clone(&self.stats)
    }

    /// Registers the reactor waker the supervisor pings after every
    /// recovery transition (worker respawned, or degraded to the local
    /// fallback). Installed by `Server::spawn`.
    pub(crate) fn set_recovery_waker(&self, waker: Waker) {
        *self.recovery_waker.lock_unpoisoned() = Some(waker);
    }

    /// Pings the registered recovery waker, if any.
    fn notify_recovery(&self) {
        if let Some(waker) = self.recovery_waker.lock_unpoisoned().as_ref() {
            waker.wake();
        }
    }

    /// Kills one worker out from under the router — severs its connection
    /// and SIGKILLs a process worker. A test/bench hook: the next RPC to
    /// that shard exercises the full detect → respawn → replay path.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shard`] when the shard index is out of range or the
    /// fabric is already gone (shut down or degraded).
    pub fn kill_worker(&self, shard: usize) -> Result<()> {
        let mut state = self.state.lock_unpoisoned();
        if state.shut_down || state.degraded || shard >= state.conns.len() {
            return Err(protocol(format!(
                "kill_worker({shard}): no live worker (shards: {}, degraded: {})",
                state.conns.len(),
                state.degraded
            )));
        }
        kill_endpoint(&mut state, shard);
        Ok(())
    }

    /// Logit rows for `nodes` (request order, duplicates allowed),
    /// bit-identical to `GnnModel::forward_rows` on the unsharded graph.
    ///
    /// The first call drives the full layer lockstep across all shards and
    /// caches the result worker-side; later calls are pure `Gather`
    /// round-trips to the owning shards. Worker/transport failures are
    /// absorbed by the supervisor (retry → respawn+replay → degrade);
    /// the answer is bit-identical on every recovery path.
    ///
    /// # Errors
    ///
    /// [`ServeError::Nn`] for out-of-range nodes (raised before any RPC,
    /// the same error a local model reports), [`ServeError::Shard`] for
    /// protocol violations, [`ServeError::Rejected`] with
    /// [`RejectReason::ShuttingDown`] when a failure races
    /// [`shutdown`](ShardedModel::shutdown).
    pub fn forward_rows(&self, nodes: &[usize]) -> Result<Tensor> {
        self.served.check_nodes(nodes)?;
        let depth = self.stats.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
        self.stats
            .peak_queue_depth
            .fetch_max(depth, Ordering::SeqCst);
        let result = self.forward_rows_inner(nodes);
        self.stats.queue_depth.fetch_sub(1, Ordering::SeqCst);
        if result.is_ok() {
            self.stats
                .rows_gathered
                .fetch_add(nodes.len() as u64, Ordering::SeqCst);
        }
        result
    }

    /// Routes one request: over the fabric while it stands, and from the
    /// local plan — the same cached-logits gather a local registration
    /// serves, hence bit-identical — once it has degraded (possibly while
    /// answering this very request).
    fn forward_rows_inner(&self, nodes: &[usize]) -> Result<Tensor> {
        let mut state = self.state.lock_unpoisoned();
        if state.shut_down {
            return Err(protocol(format!(
                "sharded model `{}` is shut down",
                self.name()
            )));
        }
        if !state.degraded {
            match self.fabric_rows(&mut state, nodes) {
                Ok(rows) => return Ok(rows),
                Err(Outage::Fatal(e)) => return Err(e),
                Err(Outage::Degrade) => self.degrade(&mut state),
            }
        }
        self.stats.fallbacks.fetch_add(1, Ordering::SeqCst);
        self.served.forward_rows(nodes)
    }

    /// Answers one request from the shard workers: drives the layer
    /// lockstep if no pass has completed yet, then gathers the requested
    /// rows from their owning shards.
    fn fabric_rows(
        &self,
        state: &mut RouterState,
        nodes: &[usize],
    ) -> std::result::Result<Tensor, Outage> {
        if !state.forward_done {
            self.run_full_forward(state)?;
            state.forward_done = true;
            self.stats.forward_passes.fetch_add(1, Ordering::SeqCst);
        }

        // Group the request by owning shard, remembering where each row of
        // the per-shard answer lands in the caller's order.
        let k = self.plan.shards();
        let mut shard_rows: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut placement = Vec::with_capacity(nodes.len());
        for &node in nodes {
            let (shard, rank) = self.plan.locate(node).map_err(ServeError::from)?;
            placement.push((shard, shard_rows[shard].len()));
            shard_rows[shard].push(rank as u32);
        }
        let mut gathered: Vec<Option<Tensor>> = (0..k).map(|_| None).collect();
        for (shard, rows) in shard_rows.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let req = ShardRequest::Gather { rows: rows.clone() };
            let piece = loop {
                match self.rpc(state, shard, &req) {
                    Ok(ShardReply::Rows(rows)) => break rows,
                    Ok(other) => return Err(unexpected(shard, "Rows", &other).into()),
                    Err(RpcFail::Fatal(e)) => return Err(e.into()),
                    // Fresh worker, replayed — reissue.
                    Err(RpcFail::Respawn) => self.respawn(state, shard)?,
                }
            };
            gathered[shard] = Some(piece);
        }

        let mut out = Tensor::zeros(nodes.len(), self.plan.output_dim());
        for (row, &(shard, offset)) in placement.iter().enumerate() {
            let piece = gathered[shard]
                .as_ref()
                .ok_or_else(|| protocol(format!("shard {shard}: missing Gather answer")))?;
            if piece.cols() != self.plan.output_dim() || offset >= piece.rows() {
                return Err(protocol(format!(
                    "shard {shard}: Gather answer shape {:?} does not cover row {offset}",
                    piece.shape()
                ))
                .into());
            }
            out.row_mut(row).copy_from_slice(piece.row(offset));
        }
        Ok(out)
    }

    /// Consults the scripted kill list for the RPC about to be issued.
    fn note_scripted_kill(&self, state: &mut RouterState, shard: usize) {
        state.rpc_seq[shard] += 1;
        let seq = state.rpc_seq[shard];
        if let Some(pos) = state
            .kills
            .iter()
            .position(|&(s, n)| s as usize == shard && n == seq)
        {
            state.kills.remove(pos);
            kill_endpoint(state, shard);
        }
    }

    /// One supervised RPC: send, receive, and absorb recoverable failures
    /// in place (reject → backoff + retry, timeout → probe + retry).
    /// Escalates to [`RpcFail::Respawn`] when the connection is beyond
    /// saving, [`RpcFail::Fatal`] when retrying cannot help.
    fn rpc(
        &self,
        state: &mut RouterState,
        shard: usize,
        req: &ShardRequest,
    ) -> std::result::Result<ShardReply, RpcFail> {
        self.note_scripted_kill(state, shard);
        let mut attempts = 0u32;
        loop {
            let outcome = send(&mut state.conns[shard], req, &self.stats)
                .and_then(|()| recv(&mut state.conns[shard], shard as u32, &self.stats));
            let err = match outcome {
                Ok(reply) => return Ok(reply),
                Err(e) => e,
            };
            let class = classify(&err);
            match class {
                FailureClass::Fatal => return Err(RpcFail::Fatal(err)),
                FailureClass::Disconnect => return Err(RpcFail::Respawn),
                FailureClass::Reject | FailureClass::Timeout => {
                    if class == FailureClass::Reject {
                        self.stats.checksum_rejects.fetch_add(1, Ordering::SeqCst);
                    } else if !self.probe_alive(state, shard) {
                        return Err(RpcFail::Respawn);
                    }
                    if attempts >= self.options.policy.max_retries {
                        return Err(RpcFail::Respawn);
                    }
                    attempts += 1;
                    self.stats.retries.fetch_add(1, Ordering::SeqCst);
                    if class == FailureClass::Reject {
                        backoff(&self.options.policy, attempts);
                    }
                }
            }
        }
    }

    /// Liveness check after an RPC timeout: a process that `try_wait`s as
    /// exited is dead; otherwise a `Ping` with a short deadline must come
    /// back as a clean `Pong` — which also proves the byte stream is still
    /// in frame sync, making an RPC retry sound.
    fn probe_alive(&self, state: &mut RouterState, shard: usize) -> bool {
        if let Some(WorkerHandle::Process(child)) = state.workers.get_mut(shard) {
            if !matches!(child.try_wait(), Ok(None)) {
                self.stats.heartbeat_misses.fetch_add(1, Ordering::SeqCst);
                return false;
            }
        }
        let conn = &mut state.conns[shard];
        let _ = conn.set_read_timeout(Some(Duration::from_millis(
            self.options.policy.heartbeat_timeout_ms,
        )));
        let alive = send(conn, &ShardRequest::Ping, &self.stats)
            .and_then(|()| recv(conn, shard as u32, &self.stats))
            .map(|reply| matches!(reply, ShardReply::Pong))
            .unwrap_or(false);
        let _ = conn.set_read_timeout(Some(Duration::from_millis(
            self.options.policy.rpc_timeout_ms,
        )));
        if !alive {
            self.stats.heartbeat_misses.fetch_add(1, Ordering::SeqCst);
        }
        alive
    }

    /// Replaces one dead worker: reaps the corpse, spawns + loads a fresh
    /// one (burning respawn budget per attempt), and replays it to the
    /// fabric's post-forward state from the cached exports. Runs under the
    /// [`RecoveryGate`] so shutdown can fence new recovery cycles.
    fn respawn(&self, state: &mut RouterState, shard: usize) -> std::result::Result<(), Outage> {
        let Some(token) = self.gate.begin_recovery() else {
            return Err(if self.gate.is_closed() {
                Outage::Fatal(ServeError::Rejected(RejectReason::ShuttingDown))
            } else {
                Outage::Fatal(protocol(format!(
                    "shard {shard}: recovery gate busy outside the router lock"
                )))
            });
        };
        let result = self.respawn_locked(state, shard);
        self.gate.finish(token);
        // Whatever the outcome — fresh worker, degrade, or fatal — a
        // recovery transition completed; let the reactor observe it.
        self.notify_recovery();
        result
    }

    fn respawn_locked(
        &self,
        state: &mut RouterState,
        shard: usize,
    ) -> std::result::Result<(), Outage> {
        loop {
            if state.respawns_used[shard] >= self.options.policy.respawn_budget {
                return Err(Outage::Degrade);
            }
            state.respawns_used[shard] += 1;
            self.stats.respawns.fetch_add(1, Ordering::SeqCst);

            // Reap the corpse: sever, kill (process mode), join/wait.
            state.conns[shard].shutdown_both();
            match std::mem::replace(&mut state.workers[shard], WorkerHandle::Gone) {
                WorkerHandle::Thread(handle) => {
                    let _ = handle.join();
                }
                WorkerHandle::Process(mut child) => {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                WorkerHandle::Gone => {}
            }

            match Self::connect_worker(&self.plan, &self.options, shard, Vec::new(), &self.stats) {
                Ok((conn, worker)) => {
                    state.conns[shard] = conn;
                    state.workers[shard] = worker;
                }
                Err(e) => {
                    if classify(&e) == FailureClass::Fatal {
                        return Err(Outage::Fatal(e));
                    }
                    continue; // burn more budget on another attempt
                }
            }

            if state.forward_done {
                match self.replay_shard(state, shard) {
                    Ok(()) => return Ok(()),
                    Err(RpcFail::Fatal(e)) => return Err(Outage::Fatal(e)),
                    Err(RpcFail::Respawn) => continue,
                }
            }
            return Ok(());
        }
    }

    /// Re-runs the layer lockstep on `shard` alone, feeding the halo rows
    /// every other shard contributed to the *original* pass from the
    /// router's export cache — deterministic worker compute on identical
    /// inputs, so the restored state matches the lost one bit for bit.
    fn replay_shard(
        &self,
        state: &mut RouterState,
        shard: usize,
    ) -> std::result::Result<(), RpcFail> {
        let num_layers = self.plan.num_layers();
        for layer in 0..num_layers {
            match self.rpc(
                state,
                shard,
                &ShardRequest::RunLayer {
                    layer: layer as u32,
                },
            )? {
                ShardReply::LayerDone { exports } => {
                    state.exports_cache[layer][shard] = exports;
                }
                other => {
                    let expected = "LayerDone during replay";
                    return Err(RpcFail::Fatal(unexpected(shard, expected, &other)));
                }
            }
            if layer + 1 == num_layers {
                break;
            }
            let halo = self
                .halo_for(shard, layer, &state.exports_cache[layer])
                .map_err(RpcFail::Fatal)?;
            match self.rpc(state, shard, &ShardRequest::Advance { halo })? {
                ShardReply::Advanced => {}
                other => {
                    let expected = "Advanced during replay";
                    return Err(RpcFail::Fatal(unexpected(shard, expected, &other)));
                }
            }
        }
        Ok(())
    }

    /// Assembles `shard`'s halo tensor for `layer` from the per-shard
    /// export set, via the plan's halo-source map.
    fn halo_for(&self, shard: usize, layer: usize, exports: &[Tensor]) -> Result<Tensor> {
        // Width of this layer's activations (all shards share the model,
        // so shard 0's layer stack is authoritative).
        let width = self.plan.spec(0).layers[layer].bias.cols();
        let sources = self.plan.halo_sources(shard);
        let mut data = Vec::with_capacity(sources.len() * width);
        for &(owner, idx) in sources {
            let export = &exports[owner as usize];
            if idx as usize >= export.rows() || export.cols() != width {
                return Err(protocol(format!(
                    "shard {owner}: export {idx} out of range of {:?}",
                    export.shape()
                )));
            }
            data.extend_from_slice(export.row(idx as usize));
        }
        self.stats
            .halo_rows
            .fetch_add(sources.len() as u64, Ordering::SeqCst);
        let halo = Tensor::from_vec(sources.len(), width, data).map_err(ShardError::Nn)?;
        Ok(halo)
    }

    /// Drives the layer lockstep: `RunLayer` each shard, reassemble
    /// per-shard halo tensors via the plan's halo-source map, `Advance`,
    /// repeat — caching every export layer so a later respawn can replay a
    /// single shard. A mid-pass respawn restarts the whole (deterministic)
    /// pass from layer 0; `RunLayer{0}` resets every worker's state.
    fn run_full_forward(&self, state: &mut RouterState) -> std::result::Result<(), Outage> {
        let k = self.plan.shards();
        let num_layers = self.plan.num_layers();
        'restart: loop {
            let mut cache: Vec<Vec<Tensor>> = Vec::with_capacity(num_layers);
            for layer in 0..num_layers {
                let mut exports = Vec::with_capacity(k);
                for shard in 0..k {
                    match self.rpc(
                        state,
                        shard,
                        &ShardRequest::RunLayer {
                            layer: layer as u32,
                        },
                    ) {
                        Ok(ShardReply::LayerDone { exports: e }) => exports.push(e),
                        Ok(other) => {
                            return Err(Outage::Fatal(unexpected(shard, "LayerDone", &other)))
                        }
                        Err(RpcFail::Fatal(e)) => return Err(Outage::Fatal(e)),
                        Err(RpcFail::Respawn) => {
                            self.respawn(state, shard)?;
                            continue 'restart;
                        }
                    }
                }
                if layer + 1 < num_layers {
                    for shard in 0..k {
                        let halo = self.halo_for(shard, layer, &exports)?;
                        match self.rpc(state, shard, &ShardRequest::Advance { halo }) {
                            Ok(ShardReply::Advanced) => {}
                            Ok(other) => {
                                return Err(Outage::Fatal(unexpected(shard, "Advanced", &other)))
                            }
                            Err(RpcFail::Fatal(e)) => return Err(Outage::Fatal(e)),
                            Err(RpcFail::Respawn) => {
                                self.respawn(state, shard)?;
                                continue 'restart;
                            }
                        }
                    }
                }
                cache.push(exports);
            }
            state.exports_cache = cache;
            return Ok(());
        }
    }

    /// Tears the fabric down and flips the model to the local fallback:
    /// sever every connection, reap every worker (never leak a child),
    /// drop the export cache, raise [`ShardHealth::Degraded`].
    fn degrade(&self, state: &mut RouterState) {
        state.degraded = true;
        self.stats.degraded.store(true, Ordering::SeqCst);
        for conn in &state.conns {
            conn.shutdown_both();
        }
        state.conns.clear();
        for worker in state.workers.drain(..) {
            reap(worker);
        }
        state.exports_cache.clear();
    }

    /// Gracefully stops every worker: closes the recovery gate (no new
    /// respawn cycles), says `Shutdown`/`Bye` over the wire, then joins
    /// threads / waits on child processes — **every** worker is reaped,
    /// goodbye failures notwithstanding. Idempotent; also run (best
    /// effort) on drop.
    ///
    /// # Errors
    ///
    /// None today — per-shard goodbye failures are returned in the
    /// [`ShutdownReport`] instead of short-circuiting the teardown.
    pub fn shutdown(&self) -> Result<ShutdownReport> {
        self.gate.close();
        let mut state = self.state.lock_unpoisoned();
        if state.shut_down {
            return Ok(ShutdownReport::default());
        }
        state.shut_down = true;
        let mut outcomes = Vec::with_capacity(state.workers.len());
        let conns = std::mem::take(&mut state.conns);
        for (shard, mut conn) in conns.into_iter().enumerate() {
            let goodbye = send(&mut conn, &ShardRequest::Shutdown, &self.stats).and_then(|()| {
                match recv(&mut conn, shard as u32, &self.stats)? {
                    ShardReply::Bye => Ok(()),
                    other => Err(unexpected(shard, "Bye", &other)),
                }
            });
            outcomes.push(ShardShutdownOutcome {
                shard,
                error: goodbye.err().map(|e| e.to_string()),
                reaped: false,
            });
            // A worker that missed the goodbye must still observe EOF.
            conn.shutdown_both();
        }
        for (shard, worker) in state.workers.drain(..).enumerate() {
            let reaped = reap(worker);
            if let Some(outcome) = outcomes.get_mut(shard) {
                outcome.reaped = reaped;
            }
        }
        Ok(ShutdownReport {
            outcomes,
            degraded: state.degraded,
        })
    }
}

impl Drop for ShardedModel {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

fn protocol(context: String) -> ServeError {
    ServeError::Shard(ShardError::Protocol { context })
}

/// The protocol error for a well-formed reply of the wrong kind (or with the
/// wrong contents) from `shard`.
fn unexpected(shard: usize, expected: impl std::fmt::Display, got: &ShardReply) -> ServeError {
    protocol(format!("shard {shard}: expected {expected}, got {got:?}"))
}

/// Writes one frame, maintaining the transport counters.
fn send(conn: &mut ChaosConn, msg: &ShardRequest, stats: &ShardStatsAtomics) -> Result<()> {
    let bytes = write_frame(conn, msg).map_err(ShardError::Wire)?;
    stats.frames_sent.fetch_add(1, Ordering::SeqCst);
    stats.bytes_sent.fetch_add(bytes as u64, Ordering::SeqCst);
    Ok(())
}

/// Reads one frame, maintaining the transport counters; a worker `Err`
/// reply is promoted to [`ShardError::Worker`].
fn recv(conn: &mut ChaosConn, shard: u32, stats: &ShardStatsAtomics) -> Result<ShardReply> {
    let (reply, bytes): (ShardReply, usize) = read_frame(conn).map_err(ShardError::Wire)?;
    stats.frames_received.fetch_add(1, Ordering::SeqCst);
    stats
        .bytes_received
        .fetch_add(bytes as u64, Ordering::SeqCst);
    match reply {
        ShardReply::Err { message } => {
            Err(ServeError::Shard(ShardError::Worker { shard, message }))
        }
        reply => Ok(reply),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcod_graph::{DatasetProfile, GraphGenerator};
    use gcod_nn::models::ModelConfig;
    use gcod_shard::FaultAction;

    fn graph_and_model() -> (Graph, GnnModel) {
        let graph = GraphGenerator::new(17)
            .generate(&DatasetProfile::custom("shardtest", 120, 420, 10, 4))
            .expect("generate");
        let model = GnnModel::new(ModelConfig::gcn(&graph), 3).expect("model");
        (graph, model)
    }

    /// Short deadlines so drop-style faults cost milliseconds, not the
    /// 5-second production default.
    fn fast_policy() -> SupervisorPolicy {
        SupervisorPolicy {
            rpc_timeout_ms: 250,
            heartbeat_timeout_ms: 250,
            ..SupervisorPolicy::default()
        }
    }

    #[test]
    fn sharded_forward_matches_single_process_bitwise() {
        let (graph, model) = graph_and_model();
        let nodes: Vec<usize> = vec![0, 7, 3, 119, 7, 64];
        let expected = model.forward_rows(&graph, &nodes).expect("oracle");
        for k in [1usize, 2, 3] {
            let sharded =
                ShardedModel::launch("m", &graph, &model, &ShardOptions::new(k)).expect("launch");
            let got = sharded.forward_rows(&nodes).expect("forward");
            assert_eq!(got.data(), expected.data(), "k={k} diverged");
            assert_eq!(got.shape(), expected.shape());
            sharded.shutdown().expect("shutdown");
        }
    }

    #[test]
    fn stats_count_frames_bytes_and_halo_rows() {
        let (graph, model) = graph_and_model();
        let sharded =
            ShardedModel::launch("m", &graph, &model, &ShardOptions::new(2)).expect("launch");
        let after_launch = sharded.stats();
        assert_eq!(after_launch.shards, 2);
        // Handshake: Hello + Load/Loaded per shard.
        assert_eq!(after_launch.frames_sent, 2);
        assert_eq!(after_launch.frames_received, 4);
        assert!(after_launch.bytes_sent > 0 && after_launch.bytes_received > 0);
        assert_eq!(after_launch.forward_passes, 0);

        sharded.forward_rows(&[0, 5]).expect("forward");
        let after = sharded.stats();
        assert_eq!(after.forward_passes, 1);
        assert_eq!(after.rows_gathered, 2);
        assert!(after.peak_queue_depth >= 1);
        assert_eq!(
            after.halo_rows,
            after_launch.halo_nodes * (sharded.plan().num_layers() as u64 - 1),
            "every halo slot is refreshed between consecutive layers"
        );
        assert_eq!(after.health, ShardHealth::Healthy);
        assert_eq!(after.retries + after.respawns + after.fallbacks, 0);

        // Second call hits the worker-side cache: no RunLayer/Advance, only
        // one Gather round-trip to the owning shard.
        let frames_before = after.frames_sent;
        sharded.forward_rows(&[1]).expect("forward");
        assert_eq!(sharded.stats().forward_passes, 1);
        assert_eq!(sharded.stats().frames_sent, frames_before + 1);
        sharded.shutdown().expect("shutdown");
    }

    #[test]
    fn shutdown_is_idempotent_and_blocks_later_requests() {
        let (graph, model) = graph_and_model();
        let sharded =
            ShardedModel::launch("m", &graph, &model, &ShardOptions::new(2)).expect("launch");
        let report = sharded.shutdown().expect("first");
        assert!(report.is_clean(), "clean fabric says goodbye cleanly");
        assert_eq!(report.outcomes.len(), 2);
        let second = sharded.shutdown().expect("second");
        assert!(second.outcomes.is_empty(), "idempotent second shutdown");
        assert!(matches!(
            sharded.forward_rows(&[0]),
            Err(ServeError::Shard(ShardError::Protocol { .. }))
        ));
    }

    #[test]
    fn out_of_range_nodes_are_typed_errors() {
        let (graph, model) = graph_and_model();
        let local = ServedModel::new("m", graph.clone(), model.clone());
        let expected = local.forward_rows(&[0, 10_000]).expect_err("local");
        // Raised up front, yet the very error the uncached gather reports.
        let reference = model
            .forward_rows(&graph, &[0, 10_000])
            .expect_err("oracle");
        assert_eq!(expected, ServeError::Nn(reference));

        let policy = SupervisorPolicy {
            respawn_budget: 0,
            ..fast_policy()
        };
        let options = ShardOptions::new(2).with_policy(policy);
        let sharded = ShardedModel::launch("m", &graph, &model, &options).expect("launch");
        // Healthy and cold: rejected before any RPC, let alone the lockstep.
        let frames = sharded.stats().frames_sent;
        assert_eq!(sharded.forward_rows(&[0, 10_000]), Err(expected.clone()));
        assert_eq!(sharded.stats().frames_sent, frames);
        // The router survives the bad request; with a dead worker and no
        // respawn budget the good one degrades it.
        sharded.kill_worker(0).expect("kill");
        assert_eq!(sharded.forward_rows(&[0]).expect("fallback").rows(), 1);
        assert!(sharded.is_degraded());
        assert_eq!(sharded.forward_rows(&[0, 10_000]), Err(expected));
        assert_eq!(sharded.stats().forward_passes, 0);
        sharded.shutdown().expect("shutdown");
    }

    #[test]
    fn launch_rejects_more_shards_than_nodes() {
        let (graph, model) = graph_and_model();
        assert!(matches!(
            ShardedModel::launch("m", &graph, &model, &ShardOptions::new(10_000)),
            Err(ServeError::Shard(ShardError::InvalidConfig { .. }))
        ));
    }

    #[test]
    fn corrupted_frames_are_rejected_and_retried_bit_identically() {
        let (graph, model) = graph_and_model();
        let nodes: Vec<usize> = vec![0, 7, 3, 119, 7, 64];
        let expected = model.forward_rows(&graph, &nodes).expect("oracle");
        // Shard 0, 2nd sent frame = RunLayer{0} (Load was the 1st); shard 1,
        // 3rd received frame = its first LayerDone (after Hello + Loaded).
        let faults = FaultPlan::new().with(0, 2, FaultAction::CorruptSend).with(
            1,
            3,
            FaultAction::CorruptRecv,
        );
        let options = ShardOptions::new(2)
            .with_faults(faults)
            .with_policy(fast_policy());
        let sharded = ShardedModel::launch("m", &graph, &model, &options).expect("launch");
        let got = sharded.forward_rows(&nodes).expect("forward");
        assert_eq!(
            got.data(),
            expected.data(),
            "recovery must be bit-identical"
        );
        let stats = sharded.stats();
        assert!(
            stats.checksum_rejects >= 2,
            "both corruptions caught by CRC"
        );
        assert!(stats.retries >= 2, "both RPCs retried in place");
        assert_eq!(stats.respawns, 0, "rejects never cost a respawn");
        assert_eq!(stats.health, ShardHealth::Healthy);
        sharded.shutdown().expect("shutdown");
    }

    #[test]
    fn dropped_frame_is_probed_and_retried() {
        let (graph, model) = graph_and_model();
        let nodes: Vec<usize> = (0..20).collect();
        let expected = model.forward_rows(&graph, &nodes).expect("oracle");
        // Swallow shard 1's first RunLayer: the router times out, probes
        // Ping/Pong, and reissues on the still-synchronised stream.
        let faults = FaultPlan::new().with(1, 2, FaultAction::DropSend);
        let options = ShardOptions::new(2)
            .with_faults(faults)
            .with_policy(fast_policy());
        let sharded = ShardedModel::launch("m", &graph, &model, &options).expect("launch");
        let got = sharded.forward_rows(&nodes).expect("forward");
        assert_eq!(got.data(), expected.data());
        let stats = sharded.stats();
        assert!(stats.retries >= 1);
        assert_eq!(stats.health, ShardHealth::Healthy);
        sharded.shutdown().expect("shutdown");
    }

    #[test]
    fn killed_worker_respawns_and_recovers_bit_identically() {
        let (graph, model) = graph_and_model();
        let nodes: Vec<usize> = (0..120).collect();
        let expected = model.forward_rows(&graph, &nodes).expect("oracle");
        let options = ShardOptions::new(2).with_policy(fast_policy());
        let sharded = ShardedModel::launch("m", &graph, &model, &options).expect("launch");
        assert_eq!(
            sharded.forward_rows(&nodes).expect("warm forward").data(),
            expected.data()
        );
        // Steady-state kill: the next Gather detects the dead worker, the
        // supervisor respawns and replays it from the export cache.
        sharded.kill_worker(1).expect("kill");
        let started = std::time::Instant::now();
        let got = sharded.forward_rows(&nodes).expect("recovered forward");
        let recovery = started.elapsed();
        assert_eq!(got.data(), expected.data(), "post-respawn answer diverged");
        // The dead endpoint is seen at disconnect, not by waiting out the
        // RPC deadline.
        assert!(
            recovery < Duration::from_millis(fast_policy().rpc_timeout_ms),
            "recovery took {recovery:?}, not faster than the RPC deadline"
        );
        let stats = sharded.stats();
        assert_eq!(stats.respawns, 1);
        assert_eq!(stats.health, ShardHealth::Healthy);
        assert_eq!(stats.forward_passes, 1, "replay is not a new full pass");
        sharded.shutdown().expect("shutdown");
    }

    #[test]
    fn scripted_mid_forward_kill_restarts_the_pass() {
        let (graph, model) = graph_and_model();
        let nodes: Vec<usize> = (0..60).collect();
        let expected = model.forward_rows(&graph, &nodes).expect("oracle");
        // Kill shard 0 right before its 2nd supervised RPC — mid first
        // forward, between RunLayer{0} and Advance.
        let faults = FaultPlan::new().with(0, 2, FaultAction::KillWorker);
        let options = ShardOptions::new(2)
            .with_faults(faults)
            .with_policy(fast_policy());
        let sharded = ShardedModel::launch("m", &graph, &model, &options).expect("launch");
        let got = sharded.forward_rows(&nodes).expect("forward");
        assert_eq!(got.data(), expected.data());
        let stats = sharded.stats();
        assert!(stats.respawns >= 1);
        assert_eq!(stats.health, ShardHealth::Healthy);
        sharded.shutdown().expect("shutdown");
    }

    #[test]
    fn exhausted_respawn_budget_degrades_to_local_fallback() {
        let (graph, model) = graph_and_model();
        let nodes: Vec<usize> = vec![3, 50, 119, 3];
        let expected = model.forward_rows(&graph, &nodes).expect("oracle");
        let policy = SupervisorPolicy {
            respawn_budget: 0,
            ..fast_policy()
        };
        let options = ShardOptions::new(2).with_policy(policy);
        let sharded = ShardedModel::launch("m", &graph, &model, &options).expect("launch");
        sharded.kill_worker(0).expect("kill");
        let got = sharded.forward_rows(&nodes).expect("fallback forward");
        assert_eq!(
            got.data(),
            expected.data(),
            "fallback must be bit-identical"
        );
        assert!(sharded.is_degraded());
        let stats = sharded.stats();
        assert_eq!(stats.health, ShardHealth::Degraded);
        assert!(stats.fallbacks >= 1);
        // Later requests keep resolving from the cached local logits.
        let again = sharded.forward_rows(&nodes).expect("degraded steady state");
        assert_eq!(again.data(), expected.data());
        let report = sharded.shutdown().expect("shutdown");
        assert!(report.degraded);
        assert!(report.outcomes.is_empty(), "fabric already reaped");
    }

    #[test]
    fn launch_failure_past_the_budget_yields_a_degraded_model() {
        let (graph, model) = graph_and_model();
        let nodes: Vec<usize> = vec![3, 50, 119, 3];
        let expected = model.forward_rows(&graph, &nodes).expect("oracle");
        // Cut shard 1's `Load` (its first sent frame) short and sever: the
        // handshake fails after shard 0 is already up, and with no respawn
        // budget the launch degrades — reaping shard 0 — instead of erroring.
        let faults = FaultPlan::new().with(1, 1, FaultAction::TruncateSend { keep: 4 });
        let policy = SupervisorPolicy {
            respawn_budget: 0,
            ..fast_policy()
        };
        let options = ShardOptions::new(2).with_faults(faults).with_policy(policy);
        let sharded = ShardedModel::launch("m", &graph, &model, &options).expect("launch");
        assert!(sharded.is_degraded());
        assert_eq!(sharded.stats().health, ShardHealth::Degraded);
        let got = sharded.forward_rows(&nodes).expect("local plan");
        assert_eq!(got.data(), expected.data());
        assert_eq!(sharded.stats().forward_passes, 0);
        let report = sharded.shutdown().expect("shutdown");
        assert!(report.degraded);
        assert!(report.outcomes.is_empty(), "fabric reaped at launch");
    }

    #[test]
    fn shutdown_reports_outcomes_and_reaps_a_pre_killed_worker() {
        let (graph, model) = graph_and_model();
        let sharded = ShardedModel::launch(
            "m",
            &graph,
            &model,
            &ShardOptions::new(2).with_policy(fast_policy()),
        )
        .expect("launch");
        sharded.forward_rows(&[0]).expect("forward");
        // Kill one worker, then shut down without any intervening request:
        // the goodbye to shard 0 fails, but every worker is still reaped.
        sharded.kill_worker(0).expect("kill");
        let report = sharded.shutdown().expect("shutdown");
        assert_eq!(report.outcomes.len(), 2);
        assert!(
            report.outcomes[0].error.is_some(),
            "dead shard's goodbye must surface an error"
        );
        assert!(report.outcomes[0].reaped, "dead worker still reaped");
        assert!(report.outcomes[1].error.is_none());
        assert!(report.outcomes[1].reaped);
    }

    #[test]
    fn seeded_fault_sweep_recovers_bit_identically() {
        let (graph, model) = graph_and_model();
        let nodes: Vec<usize> = (0..120).step_by(3).collect();
        let expected = model.forward_rows(&graph, &nodes).expect("oracle");
        for k in [2usize, 4] {
            for seed in [1u64, 7, 23] {
                let options = ShardOptions::new(k)
                    .with_faults(FaultPlan::seeded(seed, k as u32, 4))
                    .with_policy(fast_policy());
                let sharded = ShardedModel::launch("m", &graph, &model, &options).expect("launch");
                let got = sharded.forward_rows(&nodes).expect("forward");
                assert_eq!(
                    got.data(),
                    expected.data(),
                    "k={k} seed={seed} recovery diverged"
                );
                sharded.shutdown().expect("shutdown");
            }
        }
    }

    #[test]
    fn timeout_env_parse_defaults_and_overrides() {
        assert_eq!(shard_timeout_ms(None), 5_000);
        assert_eq!(shard_timeout_ms(Some("250")), 250);
        assert_eq!(shard_timeout_ms(Some(" 250 ")), 250);
        assert_eq!(shard_timeout_ms(Some("0")), 5_000);
        assert_eq!(shard_timeout_ms(Some("junk")), 5_000);
    }

    #[test]
    fn merge_takes_worst_health_and_sums_counters() {
        let mut a = ShardTransportStats {
            retries: 1,
            checksum_rejects: 2,
            ..ShardTransportStats::default()
        };
        let b = ShardTransportStats {
            retries: 2,
            respawns: 1,
            health: ShardHealth::Degraded,
            ..ShardTransportStats::default()
        };
        a.merge(&b);
        assert_eq!(a.retries, 3);
        assert_eq!(a.respawns, 1);
        assert_eq!(a.checksum_rejects, 2);
        assert_eq!(a.health, ShardHealth::Degraded);
    }
}
