//! The serving engine: an event-driven reactor dispatching a bounded
//! submission queue into deadline-aware fused batches, plus the cost-scored
//! backend router for perf predictions.
//!
//! ```text
//! clients ──submit(SubmitOptions)──▶ SyncQueue (bounded; Full/Overloaded = backpressure)
//!              │ raise(EV_SUBMIT)        │ try_pop (dispatcher thread)
//!              ▼                         ▼
//!          Reactor ◀─EV_CONTROL── pause/resume/shutdown
//!          (sticky  ◀─EV_RECOVERY─ shard supervisor (worker respawned)
//!           event
//!           bits)   batcher: deadline triage → group by served model
//!              │         → adaptive fusion window (oldest deadline ÷
//!              ▼           observed service time)     │
//!        wait() blocks only      │                    ▼
//!        when queue empty        ▼              Platform cost router
//!        and nothing raised  one row gather     (cheapest / named
//!                            per window          accelerator model)
//!                                │                    │
//!                                └──▶ Ticket.fulfill ◀┘
//! ```
//!
//! A window's gather reads the served model's full-graph logits, which the
//! model's first classification computes and every later one reuses (a
//! [`ServedModel`] locally; worker-held activations behind a healthy
//! [`ShardedModel`], which falls back to its own `ServedModel` when it
//! degrades). No request after the first pays for a graph pass.
//!
//! The dispatcher never polls: it pops greedily, and when the queue is
//! empty it blocks in [`gcod_runtime::Reactor::wait`] until a submission,
//! control change, or worker-recovery event raises a sticky bit. The wakeup
//! protocol (and the drain-on-shutdown contract: every accepted ticket
//! resolves) is model-checked in `tests/model_reactor.rs`.

use crate::batch::{adaptive_max_batch, group_in_arrival_order, split_stacked};
use crate::error::{RejectReason, Result, ServeError};
use crate::model::ServedModel;
use crate::request::{Backend, Classification, PerfPrediction, ServeRequest, ServeResponse};
use crate::shard::{ShardStatsAtomics, ShardTransportStats, ShardedModel};
use crate::ticket::{ticket_pair, Completion, Ticket};
use gcod_baselines::suite;
use gcod_nn::Tensor;
use gcod_platform::{cheapest_platform, Platform};
use gcod_runtime::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use gcod_runtime::sync::{thread, Condvar, Mutex};
use gcod_runtime::{PushError, Reactor, SyncQueue, Wake};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reactor bit: a submission was pushed onto the queue.
const EV_SUBMIT: u64 = 1 << 0;
/// Reactor bit: a control flag (pause/resume) changed.
const EV_CONTROL: u64 = 1 << 1;
/// Reactor bit: a shard supervisor finished a recovery transition
/// (worker respawned or the model degraded to its local fallback).
const EV_RECOVERY: u64 = 1 << 2;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Capacity of the bounded submission queue; a full queue rejects
    /// submissions with [`RejectReason::QueueFull`] (backpressure).
    pub queue_capacity: usize,
    /// Most requests one fused batch may coalesce. Deadline-carrying
    /// traffic may fuse fewer (see [`ServerStats::est_request_ns`]); never
    /// more.
    pub max_batch: usize,
    /// Deadline applied to submissions that carry none (`None` = requests
    /// never expire).
    pub default_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            max_batch: 32,
            default_deadline: None,
        }
    }
}

/// A point-in-time snapshot of server counters (see `Handle::stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Submissions accepted into the queue.
    pub submitted: u64,
    /// Submissions rejected at the door (queue-full backpressure plus
    /// overload shedding).
    pub rejected: u64,
    /// Of the rejected, those shed by admission control: the deadline would
    /// have expired waiting for the backlog ([`RejectReason::Overloaded`]).
    pub shed: u64,
    /// Accepted requests whose deadline expired before execution.
    pub expired: u64,
    /// Requests completed successfully.
    pub completed_ok: u64,
    /// Requests completed with an error (deadline expiries included).
    pub completed_err: u64,
    /// Dispatcher batches executed (each may fuse several requests).
    pub batches: u64,
    /// Largest number of requests fused into one gather so far.
    pub largest_batch: usize,
    /// Worker-recovery events the reactor observed (a shard supervisor
    /// respawned a dead worker or degraded to the local fallback).
    pub worker_events: u64,
    /// Running estimate of per-request fused service time in nanoseconds
    /// (EWMA over successful fused passes; 0 until the first pass). This is
    /// the signal adaptive batching and overload shedding act on.
    pub est_request_ns: u64,
    /// Shard-transport counters, aggregated over every sharded model the
    /// server owns (all zeros when nothing is sharded).
    pub shard: ShardTransportStats,
}

/// One queued unit of work: the request, its deadline, and the write half of
/// the client's ticket.
struct Submission {
    request: ServeRequest,
    deadline: Option<Instant>,
    completion: Completion,
}

#[derive(Default)]
struct Stats {
    submitted: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    completed_ok: AtomicU64,
    completed_err: AtomicU64,
    batches: AtomicU64,
    largest_batch: AtomicUsize,
    worker_events: AtomicU64,
    est_request_ns: AtomicU64,
}

impl Stats {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            submitted: self.submitted.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            expired: self.expired.load(Ordering::SeqCst),
            completed_ok: self.completed_ok.load(Ordering::SeqCst),
            completed_err: self.completed_err.load(Ordering::SeqCst),
            batches: self.batches.load(Ordering::SeqCst),
            largest_batch: self.largest_batch.load(Ordering::SeqCst),
            worker_events: self.worker_events.load(Ordering::SeqCst),
            est_request_ns: self.est_request_ns.load(Ordering::SeqCst),
            shard: ShardTransportStats::default(),
        }
    }
}

struct ControlState {
    paused: bool,
    /// Set by the dispatcher while it is parked in the pause wait — the
    /// acknowledgement `Handle::pause` blocks on.
    parked: bool,
}

/// State shared between client handles and the dispatcher thread.
struct Shared {
    queue: SyncQueue<Submission>,
    /// The wakeup hub: submissions, control changes and worker-recovery
    /// events raise sticky bits here; the dispatcher blocks in
    /// [`Reactor::wait`] instead of polling.
    reactor: Reactor,
    control: Mutex<ControlState>,
    control_changed: Condvar,
    stats: Stats,
    /// Live transport counters of every sharded model the server owns, so
    /// `Handle::stats` can fold them into the snapshot.
    shard_stats: Vec<Arc<ShardStatsAtomics>>,
    queue_capacity: usize,
    default_deadline: Option<Duration>,
}

impl Shared {
    fn new(config: &ServerConfig, shard_stats: Vec<Arc<ShardStatsAtomics>>) -> Self {
        Self {
            queue: SyncQueue::bounded(config.queue_capacity),
            reactor: Reactor::new(),
            control: Mutex::new(ControlState {
                paused: false,
                parked: false,
            }),
            control_changed: Condvar::new(),
            stats: Stats::default(),
            shard_stats,
            queue_capacity: config.queue_capacity.max(1),
            default_deadline: config.default_deadline,
        }
    }

    /// Counter snapshot with the shard-transport counters folded in.
    fn server_stats(&self) -> ServerStats {
        let mut stats = self.stats.snapshot();
        for shard in &self.shard_stats {
            stats.shard.merge(&shard.snapshot());
        }
        stats
    }

    /// Folds a reactor wakeup's event bits into the counters.
    fn record_wake(&self, wake: &Wake) {
        if wake.has(EV_RECOVERY) {
            self.stats.worker_events.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Parks the dispatcher while paused; returns when unpaused or when the
    /// reactor is closed (shutdown must always reach the drain). The park
    /// itself blocks in [`Reactor::wait`] — no timed polling — relying on
    /// `resume`/`shutdown` raising `EV_CONTROL`/closing the reactor.
    fn park_while_paused(&self) {
        loop {
            {
                let mut control = self.control.lock_unpoisoned();
                if !control.paused || self.reactor.is_closed() {
                    control.parked = false;
                    return;
                }
                if !control.parked {
                    control.parked = true;
                    self.control_changed.notify_all();
                }
            }
            let wake = self.reactor.wait();
            self.record_wake(&wake);
        }
    }

    /// Folds one successful fused pass into the per-request service-time
    /// estimate (EWMA, ~4-pass horizon). Only the dispatcher writes, so the
    /// load/store pair needs no compare-and-swap; clamped to ≥ 1 ns because
    /// 0 means "nothing measured yet".
    fn observe_service_time(&self, elapsed: Duration, members: usize) {
        let sample = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX) / members.max(1) as u64;
        let prev = self.stats.est_request_ns.load(Ordering::SeqCst);
        let next = if prev == 0 {
            sample
        } else {
            (prev.saturating_mul(3).saturating_add(sample)) / 4
        };
        self.stats
            .est_request_ns
            .store(next.max(1), Ordering::SeqCst);
    }
}

/// One registered model: answered in-process or routed across shard
/// workers. Either way the entry owns a [`ServedModel`] — the local plan a
/// sharded model degrades to, and what perf prediction routes on.
enum ModelEntry {
    Local(Box<ServedModel>),
    Sharded(Box<ShardedModel>),
}

impl ModelEntry {
    fn served(&self) -> &ServedModel {
        match self {
            ModelEntry::Local(m) => m,
            ModelEntry::Sharded(m) => m.served(),
        }
    }

    /// Logit rows for `nodes`, bit-identical between the two variants (the
    /// shard plan's contract, pinned by `tests/shard_differential.rs`).
    fn forward_rows(&self, nodes: &[usize]) -> Result<Tensor> {
        match self {
            ModelEntry::Local(m) => m.forward_rows(nodes),
            ModelEntry::Sharded(m) => m.forward_rows(nodes),
        }
    }
}

/// The serving front-end: owns trained [`ServedModel`]s (and/or
/// [`ShardedModel`] routers) and the platform suite, and answers
/// [`ServeRequest`]s either synchronously ([`serve_one`](Server::serve_one))
/// or through the queued, batching dispatcher ([`spawn`](Server::spawn)).
pub struct Server {
    models: BTreeMap<String, ModelEntry>,
    platforms: Vec<Box<dyn Platform>>,
    config: ServerConfig,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("models", &self.model_names())
            .field("platforms", &self.platforms.len())
            .field("config", &self.config)
            .finish()
    }
}

impl Default for Server {
    fn default() -> Self {
        Self::new()
    }
}

impl Server {
    /// An empty server with the default configuration and the full platform
    /// suite ([`suite::all_platforms`]) as backend candidates.
    pub fn new() -> Self {
        Self::with_config(ServerConfig::default())
    }

    /// An empty server with an explicit configuration.
    pub fn with_config(config: ServerConfig) -> Self {
        Self {
            models: BTreeMap::new(),
            platforms: suite::all_platforms(),
            config,
        }
    }

    /// Registers a served model (replacing any previous model of the same
    /// name).
    #[must_use]
    pub fn register(mut self, model: ServedModel) -> Self {
        self.models
            .insert(model.name().to_string(), ModelEntry::Local(Box::new(model)));
        self
    }

    /// Registers a sharded model (replacing any previous model of the same
    /// name): classification requests are routed across its shard workers,
    /// bit-identical to a local registration of the same trained model.
    /// Perf-prediction requests route on the local plan the sharded model
    /// keeps, exactly as for a local registration of that model.
    #[must_use]
    pub fn register_sharded(mut self, model: ShardedModel) -> Self {
        self.models.insert(
            model.name().to_string(),
            ModelEntry::Sharded(Box::new(model)),
        );
        self
    }

    /// Names of every served model, sorted.
    pub(crate) fn model_names(&self) -> Vec<String> {
        self.models.keys().cloned().collect()
    }

    /// Answers one request synchronously on the calling thread — the
    /// sequential oracle the batched path is bit-identical to.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] / [`ServeError::UnknownBackend`] /
    /// [`ServeError::NoEligibleBackend`] for unroutable requests, plus
    /// model-execution and simulation failures.
    pub fn serve_one(&self, request: &ServeRequest) -> Result<ServeResponse> {
        match request {
            ServeRequest::Classify { model, nodes } => {
                let logits = self.lookup(model)?.forward_rows(nodes)?;
                let answer = classification(model, nodes.clone(), logits);
                Ok(ServeResponse::Classification(answer))
            }
            ServeRequest::PredictPerf { model, backend } => {
                let served = self.lookup(model)?.served();
                Ok(ServeResponse::Perf(self.predict_perf(served, backend)?))
            }
        }
    }

    /// Starts the dispatcher thread and hands back the (cloneable) client
    /// handle. The server shuts down when [`Handle::shutdown`] is called or
    /// the last handle is dropped — either way the queue is drained and
    /// every accepted ticket resolves first.
    pub fn spawn(self) -> Handle {
        let shard_stats = self
            .models
            .values()
            .filter_map(|entry| match entry {
                ModelEntry::Sharded(m) => Some(m.stats_arc()),
                ModelEntry::Local(_) => None,
            })
            .collect();
        let shared = Arc::new(Shared::new(&self.config, shard_stats));
        // Worker death is a routine scheduling event: every shard
        // supervisor pings the reactor when a recovery transition completes.
        for entry in self.models.values() {
            if let ModelEntry::Sharded(m) = entry {
                m.set_recovery_waker(shared.reactor.waker(EV_RECOVERY));
            }
        }
        let dispatcher_shared = Arc::clone(&shared);
        let thread = thread::spawn_named("gcod-serve-dispatcher", move || {
            self.dispatcher_loop(&dispatcher_shared)
        });
        Handle {
            shared: Arc::clone(&shared),
            joiner: Arc::new(Joiner {
                shared,
                thread: Mutex::new(Some(thread)),
            }),
        }
    }

    fn lookup(&self, name: &str) -> Result<&ModelEntry> {
        self.models
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel {
                name: name.to_string(),
                known: self.model_names(),
            })
    }

    fn predict_perf(&self, served: &ServedModel, backend: &Backend) -> Result<PerfPrediction> {
        match backend {
            Backend::Auto => {
                let candidates = self
                    .platforms
                    .iter()
                    .filter(|p| served.request_for(p.as_ref()).is_some())
                    .count();
                let (index, report) =
                    cheapest_platform(&self.platforms, |p| served.request_for(p))?.ok_or_else(
                        || ServeError::NoEligibleBackend {
                            model: served.name().to_string(),
                        },
                    )?;
                Ok(PerfPrediction {
                    model: served.name().to_string(),
                    platform: self.platforms[index].name().to_string(),
                    report,
                    candidates,
                })
            }
            Backend::Named(name) => {
                let platform = self
                    .platforms
                    .iter()
                    .find(|p| p.name() == name)
                    .ok_or_else(|| ServeError::UnknownBackend { name: name.clone() })?;
                let request = served.request_for(platform.as_ref()).ok_or_else(|| {
                    ServeError::NoEligibleBackend {
                        model: served.name().to_string(),
                    }
                })?;
                let report = platform.simulate(request)?;
                Ok(PerfPrediction {
                    model: served.name().to_string(),
                    platform: name.clone(),
                    report,
                    candidates: 1,
                })
            }
        }
    }

    /// The reactor loop: pop greedily; when the queue runs dry, block in
    /// [`Reactor::wait`] until something is raised. Termination is decided
    /// on the *queue's* closed flag (which shutdown sets before closing the
    /// reactor): once the queue is closed no push can succeed, so observing
    /// closed-and-empty proves every accepted submission has been executed
    /// — the graceful-drain contract.
    fn dispatcher_loop(self, shared: &Shared) {
        loop {
            shared.park_while_paused();
            let first = match shared.queue.try_pop() {
                Some(submission) => submission,
                None => {
                    if shared.queue.is_closed() {
                        if shared.queue.is_empty() {
                            break;
                        }
                        // A submission raced in between our pop and the
                        // close; go around and pop it normally.
                        continue;
                    }
                    let wake = shared.reactor.wait();
                    shared.record_wake(&wake);
                    continue;
                }
            };
            let mut pending = vec![first];
            while pending.len() < self.config.max_batch.max(1) {
                match shared.queue.try_pop() {
                    Some(submission) => pending.push(submission),
                    None => break,
                }
            }
            shared.stats.batches.fetch_add(1, Ordering::SeqCst);
            self.execute_pending(shared, pending);
        }
    }

    /// Executes one dispatcher batch: deadline triage, then perf requests
    /// individually and classification requests fused per served model, in
    /// fusion windows sized by the oldest deadline in each group.
    fn execute_pending(&self, shared: &Shared, pending: Vec<Submission>) {
        // gcod-check: allow(wall-clock) — request-deadline triage is real elapsed time by definition; simulated time lives in gcod-platform.
        let now = Instant::now();
        let mut classify = Vec::new();
        let mut perf = Vec::new();
        for submission in pending {
            if submission.deadline.map(|d| now >= d).unwrap_or(false) {
                shared.stats.expired.fetch_add(1, Ordering::SeqCst);
                finish(
                    shared,
                    submission.completion,
                    Err(ServeError::Rejected(RejectReason::DeadlineExpired)),
                );
                continue;
            }
            match submission.request {
                ServeRequest::Classify { .. } => classify.push(submission),
                ServeRequest::PredictPerf { .. } => perf.push(submission),
            }
        }
        for submission in perf {
            let result = self.serve_one(&submission.request);
            finish(shared, submission.completion, result);
        }
        let groups = group_in_arrival_order(classify, |s| s.request.model().to_string());
        for (model_name, members) in groups {
            // Adaptive fusion window: one fused pass may carry only as many
            // members as the group's *oldest* deadline can absorb at the
            // observed per-request service time — mixed fast/slow traffic
            // must not convoy behind one maximal pass. Without deadlines or
            // without an estimate the window is the configured max, which
            // is what keeps this bit-identical to fixed-batch execution.
            let slack_ns = members.iter().filter_map(|m| m.deadline).min().map(|d| {
                u64::try_from(d.saturating_duration_since(now).as_nanos()).unwrap_or(u64::MAX)
            });
            let est = shared.stats.est_request_ns.load(Ordering::SeqCst);
            let window = adaptive_max_batch(self.config.max_batch, slack_ns, est);
            let mut members = members;
            while !members.is_empty() {
                let rest = members.split_off(window.min(members.len()));
                self.execute_classify_group(shared, &model_name, members);
                members = rest;
            }
        }
    }

    /// Answers one coalesced classification window with a single gather of
    /// the stacked node lists, splitting the stacked logits back out per
    /// member. Falls back to per-member execution when the fused gather
    /// fails (e.g. one member holds an out-of-range node index) so a bad
    /// request cannot poison its batch mates and each gets its own error.
    fn execute_classify_group(&self, shared: &Shared, model_name: &str, members: Vec<Submission>) {
        shared
            .stats
            .largest_batch
            .fetch_max(members.len(), Ordering::SeqCst);
        fn nodes_of(member: &Submission) -> &[usize] {
            match &member.request {
                ServeRequest::Classify { nodes, .. } => nodes,
                ServeRequest::PredictPerf { .. } => unreachable!("perf routed separately"),
            }
        }
        let lens: Vec<usize> = members.iter().map(|m| nodes_of(m).len()).collect();
        let stacked_nodes: Vec<usize> = members.iter().flat_map(nodes_of).copied().collect();
        // gcod-check: allow(wall-clock) — service-time observation feeds the adaptive-batching estimate.
        let started = Instant::now();
        let fused = self
            .lookup(model_name)
            .and_then(|entry| entry.forward_rows(&stacked_nodes))
            .and_then(|stacked| Ok(split_stacked(&stacked, &lens)?));
        match fused {
            Ok(pieces) => {
                shared.observe_service_time(started.elapsed(), members.len());
                for (member, logits) in members.into_iter().zip(pieces) {
                    let ServeRequest::Classify { nodes, .. } = member.request else {
                        unreachable!("perf routed separately")
                    };
                    let answer = classification(model_name, nodes, logits);
                    let response = ServeResponse::Classification(answer);
                    finish(shared, member.completion, Ok(response));
                }
            }
            Err(_) => {
                for member in members {
                    let result = self.serve_one(&member.request);
                    finish(shared, member.completion, result);
                }
            }
        }
    }
}

/// Packages the logit rows the model named `model` produced for `nodes` as
/// the answer.
fn classification(model: &str, nodes: Vec<usize>, logits: Tensor) -> Classification {
    Classification {
        model: model.to_string(),
        nodes,
        classes: logits.argmax_rows(),
        logits,
    }
}

/// Fulfils a ticket and maintains the completion counters.
fn finish(shared: &Shared, completion: Completion, result: Result<ServeResponse>) {
    let counter = if result.is_ok() {
        &shared.stats.completed_ok
    } else {
        &shared.stats.completed_err
    };
    counter.fetch_add(1, Ordering::SeqCst);
    completion.fulfill(result);
}

/// Joins the dispatcher exactly once, at explicit shutdown or when the last
/// handle is dropped.
struct Joiner {
    shared: Arc<Shared>,
    thread: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Joiner {
    fn shutdown_and_join(&self) {
        // Order matters: close the queue first (rejects new submissions,
        // keeps the backlog poppable — the dispatcher's termination proof
        // relies on queue-closed preceding reactor-closed), then close the
        // reactor (wakes a blocked dispatcher), then clear any pause under
        // the control lock so a parked dispatcher and a blocked
        // `Handle::pause` both observe the shutdown.
        self.shared.queue.close();
        self.shared.reactor.close();
        {
            let mut control = self.shared.control.lock_unpoisoned();
            control.paused = false;
        }
        self.shared.control_changed.notify_all();
        let handle = self.thread.lock_unpoisoned().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for Joiner {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Per-submission options of [`Handle::submit`]: an optional deadline and
/// the full-queue policy, builder-style.
///
/// ```
/// use gcod_serve::SubmitOptions;
/// use std::time::Duration;
///
/// // Fire-and-forget, server defaults:
/// let _ = SubmitOptions::default();
/// // Must answer within 250ms, and wait for a queue slot rather than
/// // bounce on backpressure:
/// let _ = SubmitOptions::default()
///     .deadline(Duration::from_millis(250))
///     .blocking();
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    deadline: Option<Duration>,
    blocking: bool,
}

impl SubmitOptions {
    /// Requires an answer within `within` of submission; requests still
    /// queued when the deadline passes resolve with
    /// [`RejectReason::DeadlineExpired`] instead of executing, and the
    /// deadline participates in overload shedding and adaptive batching.
    #[must_use]
    pub fn deadline(mut self, within: Duration) -> Self {
        self.deadline = Some(within);
        self
    }

    /// Blocks the submitting thread while the queue is full instead of
    /// rejecting with [`RejectReason::QueueFull`].
    #[must_use]
    pub fn blocking(mut self) -> Self {
        self.blocking = true;
        self
    }

    /// The requested deadline, if any.
    #[must_use]
    pub(crate) fn deadline_within(&self) -> Option<Duration> {
        self.deadline
    }

    /// Whether a full queue blocks instead of rejecting.
    #[must_use]
    pub(crate) fn is_blocking(&self) -> bool {
        self.blocking
    }
}

/// The cloneable client handle of a spawned [`Server`].
///
/// Submissions return a [`Ticket`] immediately (async-style); clients block
/// on [`Ticket::wait`] when they need the answer. The dispatcher shuts down
/// — draining all accepted work first — on [`shutdown`](Handle::shutdown) or
/// when the last clone is dropped.
#[derive(Clone)]
pub struct Handle {
    shared: Arc<Shared>,
    joiner: Arc<Joiner>,
}

impl std::fmt::Debug for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle")
            .field("queue_len", &self.shared.queue.len())
            .field("stats", &self.shared.server_stats())
            .finish()
    }
}

impl Handle {
    /// Submits a request under `options` and returns its [`Ticket`].
    ///
    /// This is the single submission surface: `SubmitOptions::default()`
    /// submits without blocking under the server's default deadline;
    /// [`SubmitOptions::deadline`] attaches a per-request deadline;
    /// [`SubmitOptions::blocking`] waits for a queue slot instead of
    /// bouncing on backpressure.
    ///
    /// # Errors
    ///
    /// All admission failures surface as [`ServeError::Rejected`]:
    ///
    /// * [`RejectReason::QueueFull`] — the bounded queue is at capacity and
    ///   the options are non-blocking (nothing was enqueued),
    /// * [`RejectReason::Overloaded`] — the deadline would expire waiting
    ///   for the current backlog at the observed service time (shed at the
    ///   door instead of doing doomed work),
    /// * [`RejectReason::ShuttingDown`] — shutdown has begun.
    pub fn submit(&self, request: ServeRequest, options: SubmitOptions) -> Result<Ticket> {
        let within = options.deadline_within().or(self.shared.default_deadline);
        // Admission control: with a deadline and a warmed service-time
        // estimate, reject work whose deadline the backlog already spends.
        if let Some(within) = within {
            let est = self.shared.stats.est_request_ns.load(Ordering::SeqCst);
            if est > 0 {
                let backlog = self.shared.queue.len() as u64 + 1;
                let predicted = est.saturating_mul(backlog);
                let budget = u64::try_from(within.as_nanos()).unwrap_or(u64::MAX);
                if predicted > budget {
                    self.shared.stats.rejected.fetch_add(1, Ordering::SeqCst);
                    self.shared.stats.shed.fetch_add(1, Ordering::SeqCst);
                    return Err(ServeError::Rejected(RejectReason::Overloaded));
                }
            }
        }
        let (ticket, completion) = ticket_pair();
        let submission = Submission {
            request,
            // gcod-check: allow(wall-clock) — client deadlines are wall-clock contracts, not simulated time.
            deadline: within.map(|d| Instant::now() + d),
            completion,
        };
        let pushed = if options.is_blocking() {
            self.shared.queue.push_blocking(submission)
        } else {
            self.shared.queue.try_push(submission)
        };
        match pushed {
            Ok(()) => {
                self.shared.stats.submitted.fetch_add(1, Ordering::SeqCst);
                self.shared.reactor.raise(EV_SUBMIT);
                Ok(ticket)
            }
            Err(PushError::Full(_rejected)) => {
                self.shared.stats.rejected.fetch_add(1, Ordering::SeqCst);
                Err(ServeError::Rejected(RejectReason::QueueFull {
                    capacity: self.shared.queue_capacity,
                }))
            }
            Err(PushError::Closed(_rejected)) => {
                Err(ServeError::Rejected(RejectReason::ShuttingDown))
            }
        }
    }

    /// Number of submissions currently queued (excluding the batch being
    /// executed).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Pauses the dispatcher **between** batches and returns once it is
    /// parked: afterwards no new batch starts until [`resume`](Handle::resume)
    /// (submissions keep queueing — this is how tests and drain-style
    /// maintenance build deterministic queue states).
    pub fn pause(&self) {
        {
            let mut control = self.shared.control.lock_unpoisoned();
            control.paused = true;
        }
        self.shared.reactor.raise(EV_CONTROL);
        let mut control = self.shared.control.lock_unpoisoned();
        while !control.parked && !self.shared.reactor.is_closed() {
            // Untimed wait: the dispatcher notifies `control_changed` when
            // it parks, and shutdown notifies it after closing the reactor.
            control = self.shared.control_changed.wait(control);
        }
    }

    /// Resumes a paused dispatcher.
    pub fn resume(&self) {
        {
            let mut control = self.shared.control.lock_unpoisoned();
            control.paused = false;
        }
        self.shared.control_changed.notify_all();
        self.shared.reactor.raise(EV_CONTROL);
    }

    /// A snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.server_stats()
    }

    /// Shuts the server down gracefully: stops accepting submissions, drains
    /// and resolves every accepted ticket, joins the dispatcher, and returns
    /// the final counters. Idempotent; later submissions report
    /// [`RejectReason::ShuttingDown`].
    pub fn shutdown(&self) -> ServerStats {
        self.joiner.shutdown_and_join();
        self.shared.server_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcod_graph::{DatasetProfile, GraphGenerator};
    use gcod_nn::models::{GnnModel, ModelConfig};

    /// Two tiny served models (distinct datasets) on a deterministic seed —
    /// building the server twice yields bit-identical models, which is what
    /// lets the tests compare a spawned server against a fresh oracle.
    fn build_server(config: ServerConfig) -> Server {
        let mut server = Server::with_config(config);
        for (name, nodes, seed) in [("alpha", 70usize, 5u64), ("beta", 50, 9)] {
            let graph = GraphGenerator::new(seed)
                .generate(&DatasetProfile::custom(name, nodes, nodes * 3, 8, 3))
                .unwrap();
            let model = GnnModel::new(ModelConfig::gcn(&graph), seed).unwrap();
            server = server.register(ServedModel::new(format!("{name}-gcn"), graph, model));
        }
        server
    }

    fn classify_requests() -> Vec<ServeRequest> {
        vec![
            ServeRequest::classify("alpha-gcn", vec![0, 3, 7]),
            ServeRequest::classify("beta-gcn", vec![1, 2]),
            ServeRequest::classify("alpha-gcn", vec![7, 7, 12]),
            ServeRequest::classify("beta-gcn", vec![0]),
            ServeRequest::classify("alpha-gcn", vec![42]),
        ]
    }

    #[test]
    fn serve_one_answers_classification_and_perf() {
        let server = build_server(ServerConfig::default());
        let response = server
            .serve_one(&ServeRequest::classify("alpha-gcn", vec![0, 1]))
            .unwrap();
        let c = response.as_classification().unwrap();
        assert_eq!(c.nodes, vec![0, 1]);
        assert_eq!(c.classes.len(), 2);
        assert_eq!(c.logits.shape(), (2, 3));
        let response = server
            .serve_one(&ServeRequest::predict_perf("alpha-gcn"))
            .unwrap();
        let p = response.as_perf().unwrap();
        assert!(p.candidates >= 9, "all split-less platforms are candidates");
        assert!(p.report.latency_ms > 0.0);
    }

    #[test]
    fn unknown_names_are_reported_with_the_known_set() {
        let server = build_server(ServerConfig::default());
        let err = server
            .serve_one(&ServeRequest::classify("nope", vec![0]))
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::UnknownModel { ref name, ref known }
                if name == "nope" && known == &vec!["alpha-gcn".to_string(), "beta-gcn".to_string()]
        ));
        let err = server
            .serve_one(&ServeRequest::PredictPerf {
                model: "alpha-gcn".into(),
                backend: Backend::named("not-a-platform"),
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownBackend { .. }));
        // Split-aware accelerators are ineligible for split-less models.
        let err = server
            .serve_one(&ServeRequest::PredictPerf {
                model: "alpha-gcn".into(),
                backend: Backend::named("gcod"),
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::NoEligibleBackend { .. }));
    }

    #[test]
    fn perf_prediction_on_a_sharded_model_matches_the_local_registration() {
        let graph = GraphGenerator::new(5)
            .generate(&DatasetProfile::custom("alpha", 70, 210, 8, 3))
            .unwrap();
        let model = GnnModel::new(ModelConfig::gcn(&graph), 5).unwrap();
        let local = Server::new().register(ServedModel::new("m", graph.clone(), model.clone()));
        let sharded =
            ShardedModel::launch("m", &graph, &model, &crate::ShardOptions::new(2)).unwrap();
        let sharded = Server::new().register_sharded(sharded);
        // Auto-routed, and a split-aware accelerator neither registration
        // carries a split for: the same answer and the same typed error.
        for backend in [Backend::Auto, Backend::named("gcod")] {
            let request = ServeRequest::PredictPerf {
                model: "m".into(),
                backend,
            };
            assert_eq!(sharded.serve_one(&request), local.serve_one(&request));
        }
        assert!(local.serve_one(&ServeRequest::predict_perf("m")).is_ok());
    }

    #[test]
    fn auto_routing_picks_the_cheapest_eligible_backend() {
        let server = build_server(ServerConfig::default());
        let auto = server
            .serve_one(&ServeRequest::predict_perf("beta-gcn"))
            .unwrap();
        let auto = auto.as_perf().unwrap();
        // No named backend beats the auto-routed one.
        for platform in suite::all_platforms() {
            let named = server.serve_one(&ServeRequest::PredictPerf {
                model: "beta-gcn".into(),
                backend: Backend::named(platform.name()),
            });
            if let Ok(response) = named {
                assert!(
                    auto.report.latency_ms <= response.as_perf().unwrap().report.latency_ms,
                    "{} undercuts the auto route",
                    platform.name()
                );
            }
        }
    }

    #[test]
    fn batched_execution_is_bit_identical_to_the_sequential_oracle() {
        let oracle = build_server(ServerConfig::default());
        let requests = classify_requests();
        let expected: Vec<_> = requests.iter().map(|r| oracle.serve_one(r)).collect();

        let handle = build_server(ServerConfig::default()).spawn();
        // Pause so every submission lands in one dispatcher drain — maximal
        // coalescing.
        handle.pause();
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| handle.submit(r.clone(), SubmitOptions::default()).unwrap())
            .collect();
        handle.resume();
        for (ticket, expected) in tickets.into_iter().zip(expected) {
            assert_eq!(ticket.wait(), expected);
        }
        let stats = handle.shutdown();
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.completed_ok, 5);
        assert!(stats.largest_batch >= 3, "alpha requests must coalesce");
        assert!(stats.est_request_ns > 0, "fused passes warm the estimate");
    }

    #[test]
    fn full_queue_reports_backpressure_without_losing_accepted_work() {
        let handle = build_server(ServerConfig {
            queue_capacity: 2,
            ..ServerConfig::default()
        })
        .spawn();
        handle.pause();
        let a = handle
            .submit(
                ServeRequest::classify("alpha-gcn", vec![0]),
                SubmitOptions::default(),
            )
            .unwrap();
        let b = handle
            .submit(
                ServeRequest::classify("alpha-gcn", vec![1]),
                SubmitOptions::default(),
            )
            .unwrap();
        let err = handle
            .submit(
                ServeRequest::classify("alpha-gcn", vec![2]),
                SubmitOptions::default(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::Rejected(RejectReason::QueueFull { capacity: 2 })
        );
        assert_eq!(handle.queue_len(), 2);
        handle.resume();
        assert!(a.wait().is_ok());
        assert!(b.wait().is_ok());
        let stats = handle.shutdown();
        assert_eq!((stats.submitted, stats.rejected), (2, 1));
        assert_eq!(stats.shed, 0, "queue-full is not overload shedding");
    }

    #[test]
    fn blocking_submit_waits_for_a_slot_instead_of_rejecting() {
        let handle = build_server(ServerConfig {
            queue_capacity: 1,
            ..ServerConfig::default()
        })
        .spawn();
        handle.pause();
        let first = handle
            .submit(
                ServeRequest::classify("beta-gcn", vec![0]),
                SubmitOptions::default(),
            )
            .unwrap();
        let blocked = {
            let handle = handle.clone();
            std::thread::spawn(move || {
                handle
                    .submit(
                        ServeRequest::classify("beta-gcn", vec![1]),
                        SubmitOptions::default().blocking(),
                    )
                    .unwrap()
                    .wait()
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        handle.resume();
        assert!(first.wait().is_ok());
        assert!(blocked.join().unwrap().is_ok());
        handle.shutdown();
    }

    #[test]
    fn expired_deadlines_resolve_with_deadline_expired() {
        let handle = build_server(ServerConfig::default()).spawn();
        handle.pause();
        let expired = handle
            .submit(
                ServeRequest::classify("alpha-gcn", vec![0]),
                SubmitOptions::default().deadline(Duration::ZERO),
            )
            .unwrap();
        let alive = handle
            .submit(
                ServeRequest::classify("alpha-gcn", vec![0]),
                SubmitOptions::default(),
            )
            .unwrap();
        handle.resume();
        assert_eq!(
            expired.wait(),
            Err(ServeError::Rejected(RejectReason::DeadlineExpired))
        );
        assert!(alive.wait().is_ok());
        let stats = handle.shutdown();
        assert_eq!(stats.expired, 1);
        assert_eq!((stats.completed_ok, stats.completed_err), (1, 1));
    }

    #[test]
    fn warmed_estimate_sheds_doomed_deadlines_at_the_door() {
        let handle = build_server(ServerConfig::default()).spawn();
        handle.pause();
        // Fake a warmed estimate: 1s per request. With one queued request,
        // a 100ms deadline predicts 2s of wait — shed at submission.
        let queued = handle
            .submit(
                ServeRequest::classify("alpha-gcn", vec![0]),
                SubmitOptions::default(),
            )
            .unwrap();
        handle
            .shared
            .stats
            .est_request_ns
            .store(1_000_000_000, Ordering::SeqCst);
        let err = handle
            .submit(
                ServeRequest::classify("alpha-gcn", vec![1]),
                SubmitOptions::default().deadline(Duration::from_millis(100)),
            )
            .unwrap_err();
        assert_eq!(err, ServeError::Rejected(RejectReason::Overloaded));
        // A generous deadline clears admission even with the backlog.
        let generous = handle
            .submit(
                ServeRequest::classify("alpha-gcn", vec![1]),
                SubmitOptions::default().deadline(Duration::from_secs(3600)),
            )
            .unwrap();
        // Deadline-less submissions are never shed.
        let free = handle
            .submit(
                ServeRequest::classify("alpha-gcn", vec![2]),
                SubmitOptions::default(),
            )
            .unwrap();
        handle.resume();
        assert!(queued.wait().is_ok());
        assert!(generous.wait().is_ok());
        assert!(free.wait().is_ok());
        let stats = handle.shutdown();
        assert_eq!((stats.rejected, stats.shed), (1, 1));
        assert_eq!(stats.completed_ok, 3);
    }

    #[test]
    fn adaptive_window_splits_tight_deadline_groups_deterministically() {
        let oracle = build_server(ServerConfig::default());
        let requests: Vec<ServeRequest> = (0..4)
            .map(|i| ServeRequest::classify("alpha-gcn", vec![i, i + 1]))
            .collect();
        let expected: Vec<_> = requests.iter().map(|r| oracle.serve_one(r)).collect();

        let handle = build_server(ServerConfig::default()).spawn();
        handle.pause();
        // 10s deadlines with a faked 30s/request estimate: the fusion
        // window is deterministically 1 (slack/est < 1 clamps to one), so
        // the group executes as four single-member passes — and must still
        // be bit-identical to the oracle.
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| {
                handle
                    .submit(
                        r.clone(),
                        SubmitOptions::default().deadline(Duration::from_secs(10)),
                    )
                    .unwrap()
            })
            .collect();
        handle
            .shared
            .stats
            .est_request_ns
            .store(30_000_000_000, Ordering::SeqCst);
        handle.resume();
        for (ticket, expected) in tickets.iter().zip(expected) {
            assert_eq!(ticket.wait(), expected);
        }
        let stats = handle.shutdown();
        assert_eq!(
            stats.largest_batch, 1,
            "tight deadlines must cap every fusion window at one"
        );
        assert_eq!(stats.completed_ok, 4);
        assert_eq!(stats.batches, 1, "one dispatcher drain, four windows");
    }

    #[test]
    fn shutdown_drains_accepted_work_and_rejects_later_submissions() {
        let handle = build_server(ServerConfig::default()).spawn();
        handle.pause();
        let tickets: Vec<Ticket> = classify_requests()
            .into_iter()
            .map(|r| handle.submit(r, SubmitOptions::default()).unwrap())
            .collect();
        // Shutdown while paused with a full backlog: the drain must still
        // execute and resolve every accepted ticket.
        let stats = handle.shutdown();
        assert_eq!(stats.completed_ok, 5);
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        assert_eq!(
            handle
                .submit(
                    ServeRequest::classify("alpha-gcn", vec![0]),
                    SubmitOptions::default()
                )
                .unwrap_err(),
            ServeError::Rejected(RejectReason::ShuttingDown)
        );
    }

    #[test]
    fn bad_member_cannot_poison_its_batch_mates() {
        let oracle = build_server(ServerConfig::default());
        let good = ServeRequest::classify("alpha-gcn", vec![1, 2]);
        let bad = ServeRequest::classify("alpha-gcn", vec![10_000]);
        let expected_good = oracle.serve_one(&good);

        let handle = build_server(ServerConfig::default()).spawn();
        handle.pause();
        let good_ticket = handle.submit(good, SubmitOptions::default()).unwrap();
        let bad_ticket = handle.submit(bad, SubmitOptions::default()).unwrap();
        handle.resume();
        assert_eq!(good_ticket.wait(), expected_good);
        assert!(matches!(bad_ticket.wait(), Err(ServeError::Nn(_))));
        handle.shutdown();
    }

    #[test]
    fn last_handle_drop_shuts_the_dispatcher_down() {
        let handle = build_server(ServerConfig::default()).spawn();
        let ticket = handle
            .submit(
                ServeRequest::classify("beta-gcn", vec![0]),
                SubmitOptions::default(),
            )
            .unwrap();
        drop(handle); // joins the dispatcher after the drain
        assert!(ticket.wait().is_ok());
    }
}
