//! Persistent worker-pool runtime shared by every parallel code path in the
//! GCoD workspace.
//!
//! PR 3's `ParallelCsr` kernel paid a `std::thread::scope` spawn on *every*
//! SpMM call — tens of microseconds that dominate the small and medium
//! matrices a GCN training epoch is made of. This crate replaces per-call
//! spawning with one process-wide pool:
//!
//! * [`Pool::global`] — a lazily-started pool whose worker count comes from
//!   the `GCOD_WORKERS` environment variable (unset, empty, `0` or `auto`
//!   selects [`std::thread::available_parallelism`]); workers are spawned
//!   once and reused by every subsequent parallel call,
//! * [`Pool::run`] — scoped execution of a batch of closures that may borrow
//!   caller data (the pool joins the whole batch before returning),
//! * [`Pool::parallel_for_ranges`] — the deterministic data-parallel
//!   primitive the kernels build on: an index range is split into contiguous
//!   sub-ranges balanced by a caller-supplied cost function
//!   ([`split_by_cost`]), a mutable output slice is split into the matching
//!   disjoint chunks, and the batch is joined in submission order,
//! * graceful single-core fallback — a pool with one worker lane spawns **no
//!   threads at all** and runs every task inline, in submission order.
//!
//! # Determinism
//!
//! The pool never makes results depend on the worker count. The range split
//! is a pure function of the cost function and lane count, ranges are
//! disjoint, and every task writes only its own output chunk — so a kernel
//! that computes each output element in a fixed order inside one task
//! produces bit-for-bit identical results at 1, 2 or N lanes. The
//! differential suites in `gcod-nn` and the golden-report tests in
//! `gcod-bench` pin this end to end.
//!
//! # Example
//!
//! ```
//! use gcod_runtime::Pool;
//!
//! // Double each element in parallel; 7 items, cost-uniform split.
//! let mut out = vec![0u64; 7];
//! Pool::global().parallel_for_ranges(7, &mut out, 0, |_| 1, |range, chunk| {
//!     for (slot, i) in chunk.iter_mut().zip(range) {
//!         *slot = 2 * i as u64;
//!     }
//! });
//! assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod queue;
pub mod reactor;
pub mod sync;

pub use queue::{PushError, SyncQueue};
pub use reactor::{Event, Reactor, Wake, Waker};

use crate::sync::{thread::JoinHandle, Condvar, Mutex};
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

/// A type-erased, lifetime-erased unit of work queued to the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// True on pool worker threads. A nested [`Pool::run`] issued from inside
    /// a pooled task runs inline instead of re-queueing, so a task that
    /// itself uses parallel tensor ops can never deadlock the pool.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A panic payload carried from a pooled task back to the submitting thread.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Counts a batch of work items down to zero and wakes every waiter, with a
/// side slot carrying the first panic payload of the batch back to the
/// submitting thread.
///
/// The pool joins every [`Pool::run`] batch behind one of these. The counter
/// only moves down — a `Latch` is a one-shot join, not a reusable barrier.
pub struct Latch {
    remaining: Mutex<usize>,
    all_done: Condvar,
    panic_payload: Mutex<Option<PanicPayload>>,
}

impl std::fmt::Debug for Latch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Latch")
            .field("remaining", &*self.remaining.lock_unpoisoned())
            .finish()
    }
}

impl Latch {
    /// A latch waiting for `count` completions ([`Latch::wait`] on a 0-count
    /// latch returns immediately).
    pub fn new(count: usize) -> Self {
        Self {
            remaining: Mutex::new(count),
            all_done: Condvar::new(),
            panic_payload: Mutex::new(None),
        }
    }

    /// Records one completion, waking every waiter when the count reaches
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics (on underflow) when called more than `count` times.
    pub fn complete_one(&self) {
        let mut remaining = self.remaining.lock_unpoisoned();
        *remaining -= 1;
        if *remaining == 0 {
            self.all_done.notify_all();
        }
    }

    /// Records the first panic payload of the batch (later ones are dropped).
    fn record_panic(&self, payload: PanicPayload) {
        let mut slot = self.panic_payload.lock_unpoisoned();
        slot.get_or_insert(payload);
    }

    fn take_panic(&self) -> Option<PanicPayload> {
        self.panic_payload.lock_unpoisoned().take()
    }

    /// Blocks until the completion count reaches zero.
    pub fn wait(&self) {
        let mut remaining = self.remaining.lock_unpoisoned();
        while *remaining > 0 {
            remaining = self.all_done.wait(remaining);
        }
    }

    /// Whether the completion count has reached zero.
    pub fn is_done(&self) -> bool {
        *self.remaining.lock_unpoisoned() == 0
    }
}

/// Serialises failure recovery: at most one recovery in flight, and
/// shutdown fences new cycles without stranding the one in flight.
///
/// The `gcod-serve` shard supervisor uses one gate per sharded model to
/// guarantee **no double respawn** (only the thread holding the token may
/// replace a worker). Nothing blocks on the gate: a caller that finds a
/// recovery in flight or the gate closed gets `None` from
/// [`begin_recovery`](RecoveryGate::begin_recovery) and decides for
/// itself. Built on the [`sync`] facade, so the same code is exhaustively
/// model-checked under bounded preemption
/// (`gcod-serve/tests/model_supervisor.rs`).
#[derive(Debug, Default)]
pub struct RecoveryGate {
    state: Mutex<GateState>,
}

#[derive(Debug, Default)]
struct GateState {
    recovering: bool,
    closed: bool,
    /// Completed recoveries — lets a token detect it outlived its gate
    /// cycle in debug assertions, and gives tests an observable count.
    generation: u64,
}

/// Exclusive permission to run one recovery; returned by
/// [`RecoveryGate::begin_recovery`] and redeemed with
/// [`RecoveryGate::finish`].
///
/// The token is deliberately not `Clone` and carries the generation it was
/// issued for: exactly one liveness-restoring actor exists per cycle.
#[derive(Debug)]
#[must_use = "a recovery token must be finished, or no further recovery can begin"]
pub struct RecoveryToken {
    generation: u64,
}

impl RecoveryGate {
    /// A new gate in the healthy (not recovering, not closed) state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Claims the exclusive right to run a recovery.
    ///
    /// Returns `None` when a recovery is already in flight (someone else
    /// owns the token) or when the gate is closed (use
    /// [`is_closed`](RecoveryGate::is_closed) to distinguish).
    /// This is what makes a double respawn impossible by construction.
    pub fn begin_recovery(&self) -> Option<RecoveryToken> {
        let mut state = self.state.lock_unpoisoned();
        if state.closed || state.recovering {
            return None;
        }
        state.recovering = true;
        Some(RecoveryToken {
            generation: state.generation,
        })
    }

    /// Completes the recovery the token was issued for, whether or not it
    /// succeeded — the caller communicates success out of band, e.g. by
    /// degrading.
    pub fn finish(&self, token: RecoveryToken) {
        let mut state = self.state.lock_unpoisoned();
        debug_assert!(
            state.recovering && token.generation == state.generation,
            "finish() must redeem the token of the in-flight recovery"
        );
        state.recovering = false;
        state.generation = state.generation.wrapping_add(1);
    }

    /// Closes the gate: future
    /// [`begin_recovery`](RecoveryGate::begin_recovery) calls return
    /// `None`. An in-flight recovery may still
    /// [`finish`](RecoveryGate::finish); closing only stops *new* cycles,
    /// so shutdown-during-recovery drains instead of deadlocking.
    /// Idempotent.
    pub fn close(&self) {
        self.state.lock_unpoisoned().closed = true;
    }

    /// Whether a recovery is currently in flight.
    pub fn is_recovering(&self) -> bool {
        self.state.lock_unpoisoned().recovering
    }

    /// Whether the gate has been closed.
    pub fn is_closed(&self) -> bool {
        self.state.lock_unpoisoned().closed
    }

    /// Completed recovery cycles so far.
    #[cfg(test)]
    fn generation(&self) -> u64 {
        self.state.lock_unpoisoned().generation
    }
}

/// A persistent pool of worker threads executing scoped task batches.
///
/// A pool with `workers` lanes spawns `workers - 1` background threads; the
/// thread submitting a batch is the final lane and always executes the last
/// task of the batch itself. A single-lane pool therefore spawns nothing and
/// runs every batch inline — the graceful single-core fallback.
///
/// Most code should use the process-wide [`Pool::global`]; explicit pools
/// exist for tests and tools that need an isolated worker count.
pub struct Pool {
    /// The job feed every worker blocks on; `None` for inline 1-lane pools.
    /// Closing the queue (see [`SyncQueue::close`]) is the shutdown signal.
    shared: Option<Arc<SyncQueue<Job>>>,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers)
            .finish()
    }
}

static GLOBAL_POOL: OnceLock<Pool> = OnceLock::new();

impl Pool {
    /// The process-wide pool, started lazily on first use.
    ///
    /// The worker count comes from `worker_count_from_env` applied to the
    /// `GCOD_WORKERS` environment variable, read once at first access.
    pub fn global() -> &'static Pool {
        GLOBAL_POOL.get_or_init(Pool::from_env)
    }

    /// A pool sized by the `GCOD_WORKERS` environment variable (see
    /// [`worker_count_from_env`]).
    pub(crate) fn from_env() -> Pool {
        Pool::new(worker_count_from_env(
            std::env::var("GCOD_WORKERS").ok().as_deref(),
        ))
    }

    /// A pool with exactly `workers` lanes (clamped to at least 1).
    ///
    /// Spawns `workers - 1` background threads; a 1-lane pool spawns none.
    /// Dropping a non-global pool shuts its workers down and joins them.
    pub fn new(workers: usize) -> Pool {
        let workers = workers.max(1);
        if workers == 1 {
            return Pool {
                shared: None,
                workers: 1,
                handles: Vec::new(),
            };
        }
        let shared = Arc::new(SyncQueue::unbounded());
        let handles = (0..workers - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                crate::sync::thread::spawn_named(&format!("gcod-worker-{i}"), move || {
                    worker_loop(&shared)
                })
            })
            .collect();
        Pool {
            shared: Some(shared),
            workers,
            handles,
        }
    }

    /// Number of parallel lanes (background threads + the submitting
    /// thread). Always at least 1.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Resolves a caller-requested lane count: 0 selects the pool's own lane
    /// count, anything else is honoured as-is.
    pub fn effective_workers(&self, requested: usize) -> usize {
        if requested == 0 {
            self.workers
        } else {
            requested
        }
    }

    /// Executes a batch of tasks and returns once **all** of them have
    /// completed (an in-order join: the call observes every task finished,
    /// exactly as if they had been joined in submission order).
    ///
    /// Tasks may borrow caller data: the batch is fully joined before `run`
    /// returns **or unwinds** — a panic in any task (including the one the
    /// submitting thread runs itself) is caught, the join completes, and
    /// only then does the panic propagate. Batches of one task, calls on a
    /// single-lane pool, and calls issued from inside a pool worker all run
    /// inline in submission order. While its batch finishes, the submitting
    /// thread keeps draining queued jobs, so batches larger than the lane
    /// count never leave it idle.
    ///
    /// # Panics
    ///
    /// Re-raises the first panicking task's original payload after the join
    /// (the panic does not kill pool workers — they survive and keep
    /// serving later batches).
    pub fn run<F>(&self, mut tasks: Vec<F>)
    where
        F: FnOnce() + Send,
    {
        if tasks.is_empty() {
            return;
        }
        let run_inline =
            self.shared.is_none() || tasks.len() == 1 || IN_POOL_WORKER.with(Cell::get);
        if run_inline {
            for task in tasks {
                task();
            }
            return;
        }
        let shared = self.shared.as_ref().expect("checked above");
        // The submitting thread is a lane too: it executes the batch's last
        // task itself while the workers drain the rest.
        let last = tasks.pop().expect("batch is non-empty");
        let latch = Arc::new(Latch::new(tasks.len()));
        let jobs: Vec<Job> = tasks
            .into_iter()
            .map(|task| {
                let latch = Arc::clone(&latch);
                // The job itself catches its panic and parks the payload in
                // the latch so the submitting thread can re-raise the real
                // error (message, location) instead of a generic one; the
                // latch is decremented on every path.
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                        latch.record_panic(payload);
                    }
                    latch.complete_one();
                });
                // SAFETY: `run` always reaches `latch.wait()` below — the
                // submitter-lane task runs under `catch_unwind`, so even its
                // panic cannot unwind past the join — and the job catches
                // its own panic before counting the latch down, so a
                // panicking job still counts down. Every borrow captured by
                // the job therefore strictly outlives its execution. Only
                // the lifetime is erased; the type is otherwise identical.
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) }
            })
            .collect();
        // The queue is only ever closed by `Drop`, which cannot race a live
        // `run` call (it takes `&mut self`), so the batch push cannot fail.
        shared
            .push_many(jobs)
            .unwrap_or_else(|_| unreachable!("pool queue closed while running"));
        // Deferring the submitter task's panic until after the join is what
        // keeps the lifetime erasure above sound: unwinding here while
        // queued jobs still borrow caller data would be a use-after-free.
        let last_result = catch_unwind(AssertUnwindSafe(last));
        // Help drain the queue while the batch finishes: with more ranges
        // than lanes, the submitting thread keeps executing queued jobs
        // (its own batch's or a concurrent caller's) instead of sleeping on
        // the latch while a lane sits idle.
        while !latch.is_done() {
            match shared.try_pop() {
                Some(job) => {
                    let _ = catch_unwind(AssertUnwindSafe(job));
                }
                None => break,
            }
        }
        latch.wait();
        if let Err(payload) = last_result {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = latch.take_panic() {
            std::panic::resume_unwind(payload);
        }
    }

    /// The deterministic data-parallel primitive: splits `items` indices
    /// into contiguous ranges balanced by `cost` (see [`split_by_cost`]),
    /// splits `out` into the matching disjoint chunks (`out.len()` must be a
    /// multiple of `items`), and runs `body(range, chunk)` for each pair,
    /// joining the whole batch before returning.
    ///
    /// `workers` bounds the number of ranges: 0 uses the pool's lane count,
    /// an explicit value is honoured even beyond it (extra ranges queue and
    /// run as lanes free up). Because the split depends only on `cost` and
    /// the resolved lane count never changes *how* an element is computed —
    /// each output element lives in exactly one chunk — any `body` that
    /// fills its chunk in a fixed per-element order is bit-deterministic
    /// across worker counts.
    ///
    /// # Panics
    ///
    /// Panics when `items > 0` and `out.len()` is not a multiple of `items`,
    /// or when a `body` invocation panics.
    pub fn parallel_for_ranges<T, C, F>(
        &self,
        items: usize,
        out: &mut [T],
        workers: usize,
        cost: C,
        body: F,
    ) where
        T: Send,
        C: Fn(usize) -> u64,
        F: Fn(Range<usize>, &mut [T]) + Send + Sync,
    {
        if items == 0 {
            return;
        }
        assert!(
            out.len().is_multiple_of(items),
            "parallel_for_ranges: output length {} is not a multiple of {items} items",
            out.len()
        );
        let unit = out.len() / items;
        let lanes = self.effective_workers(workers).min(items);
        let ranges = split_by_cost(items, lanes, cost);
        let body = &body;
        let mut rest = out;
        let mut tasks = Vec::with_capacity(ranges.len());
        for range in ranges {
            let (chunk, tail) = rest.split_at_mut(range.len() * unit);
            rest = tail;
            tasks.push(move || body(range, chunk));
        }
        self.run(tasks);
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            shared.close();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &SyncQueue<Job>) {
    IN_POOL_WORKER.with(|flag| flag.set(true));
    // `pop` blocks until a job arrives and returns `None` only once the
    // queue is closed (pool drop) and fully drained.
    while let Some(job) = shared.pop() {
        // A panicking task must not kill the worker: the completion guard
        // inside the job records the panic for the submitter, and the
        // worker moves on to the next batch.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// Resolves a `GCOD_WORKERS`-style setting to a worker-lane count.
///
/// Unset, empty, `0`, `auto` and unparsable values all select
/// [`std::thread::available_parallelism`] (1 when unavailable); an explicit
/// positive integer is honoured as-is.
pub(crate) fn worker_count_from_env(value: Option<&str>) -> usize {
    let auto = || {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    };
    match value.map(str::trim) {
        None | Some("") | Some("0") | Some("auto") => auto(),
        Some(raw) => raw
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(auto),
    }
}

/// Splits `[0, len)` into at most `parts` non-empty contiguous ranges with
/// roughly equal total `cost`, covering the whole interval in order.
///
/// The split is a pure function of `len`, `parts` and `cost` — the same
/// inputs always produce the same ranges, which is what makes the pool's
/// data-parallel calls deterministic. `cost(i)` is the relative weight of
/// index `i` (e.g. a CSR row's non-zero count); a uniform `|_| 1` yields
/// (nearly) equal-length ranges.
pub fn split_by_cost<C>(len: usize, parts: usize, cost: C) -> Vec<Range<usize>>
where
    C: Fn(usize) -> u64,
{
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    if parts == 1 {
        return std::iter::once(0..len).collect();
    }
    let total: u64 = (0..len).map(&cost).sum();
    let per_part = total / parts as u64 + 1;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    // Cost of [0, end) maintained incrementally across the walk.
    let mut prefix = 0u64;
    for p in 0..parts {
        if start >= len {
            break;
        }
        // Everything after this range still needs at least one index per
        // remaining part.
        let remaining = parts - p - 1;
        let max_end = len - remaining.min(len - start - 1);
        let target = ((p as u64 + 1) * per_part).min(total);
        let mut end = start + 1;
        prefix += cost(start);
        while end < max_end && prefix < target {
            prefix += cost(end);
            end += 1;
        }
        if remaining == 0 {
            end = len;
        }
        ranges.push(start..end);
        start = end;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;

    fn assert_ranges_partition(ranges: &[Range<usize>], len: usize, parts: usize) {
        assert!(!ranges.is_empty());
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, len);
        assert!(ranges.len() <= parts);
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "ranges must be contiguous");
        }
        for range in ranges {
            assert!(!range.is_empty(), "ranges must be non-empty");
        }
    }

    #[test]
    fn split_covers_and_respects_part_count() {
        for len in [1usize, 2, 7, 97, 256] {
            for parts in [1usize, 2, 3, 8, 300] {
                let ranges = split_by_cost(len, parts, |_| 1);
                assert_ranges_partition(&ranges, len, parts.clamp(1, len));
            }
        }
        assert!(split_by_cost(0, 4, |_| 1).is_empty());
    }

    #[test]
    fn split_balances_skewed_costs() {
        // One huge index at the front: it should get its own range.
        let cost = |i: usize| if i == 0 { 1_000 } else { 1 };
        let ranges = split_by_cost(100, 4, cost);
        assert_ranges_partition(&ranges, 100, 4);
        assert_eq!(ranges[0], 0..1, "the heavy index dominates its range");
    }

    #[test]
    fn split_is_deterministic() {
        let a = split_by_cost(250, 7, |i| (i % 13) as u64);
        let b = split_by_cost(250, 7, |i| (i % 13) as u64);
        assert_eq!(a, b);
    }

    #[test]
    fn run_executes_every_task() {
        for workers in [1usize, 2, 4] {
            let pool = Pool::new(workers);
            let counter = AtomicUsize::new(0);
            let tasks: Vec<_> = (0..64)
                .map(|_| {
                    || {
                        counter.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .collect();
            pool.run(tasks);
            assert_eq!(counter.load(Ordering::SeqCst), 64, "{workers} workers");
        }
    }

    #[test]
    fn workers_are_reused_across_calls() {
        // ThreadIds are never reused within a process, so per-call spawning
        // would accumulate fresh ids batch after batch. A persistent 3-lane
        // pool can only ever show 3 distinct ids (2 workers + the caller).
        let pool = Pool::new(3);
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        for _ in 0..8 {
            let tasks: Vec<_> = (0..16)
                .map(|_| {
                    || {
                        seen.lock_unpoisoned().insert(std::thread::current().id());
                        // Give the other lanes a chance to pick up work too.
                        std::thread::yield_now();
                    }
                })
                .collect();
            pool.run(tasks);
        }
        let distinct = seen.lock_unpoisoned().len();
        assert!(
            distinct <= 3,
            "a persistent pool must reuse its workers, saw {distinct} distinct threads"
        );
    }

    #[test]
    fn single_lane_pool_runs_inline_in_order() {
        let pool = Pool::new(1);
        assert_eq!(pool.workers(), 1);
        let order = Mutex::new(Vec::new());
        let caller = std::thread::current().id();
        let ids = Mutex::new(HashSet::new());
        let tasks: Vec<_> = (0..10)
            .map(|i| {
                let order = &order;
                let ids = &ids;
                move || {
                    order.lock_unpoisoned().push(i);
                    ids.lock_unpoisoned().insert(std::thread::current().id());
                }
            })
            .collect();
        pool.run(tasks);
        assert_eq!(*order.lock_unpoisoned(), (0..10).collect::<Vec<_>>());
        assert_eq!(
            *ids.lock_unpoisoned(),
            HashSet::from([caller]),
            "a 1-lane pool must never leave the calling thread"
        );
    }

    #[test]
    fn parallel_for_ranges_fills_disjoint_chunks() {
        for workers in [1usize, 2, 5] {
            let pool = Pool::new(workers);
            let mut out = vec![0usize; 30];
            // Two output slots per item, skewed cost.
            pool.parallel_for_ranges(
                15,
                &mut out,
                0,
                |i| 1 + i as u64,
                |range, chunk| {
                    for (pair, i) in chunk.chunks_exact_mut(2).zip(range) {
                        pair[0] = i;
                        pair[1] = i * i;
                    }
                },
            );
            let expected: Vec<usize> = (0..15).flat_map(|i| [i, i * i]).collect();
            assert_eq!(out, expected, "{workers} workers");
        }
    }

    #[test]
    fn parallel_for_ranges_honours_explicit_worker_count() {
        let pool = Pool::new(1);
        let mut out = vec![0u8; 8];
        // An explicit worker count beyond the pool's lanes still covers
        // everything (ranges queue and run inline on the single lane).
        pool.parallel_for_ranges(
            8,
            &mut out,
            4,
            |_| 1,
            |range, chunk| {
                for (slot, i) in chunk.iter_mut().zip(range) {
                    *slot = i as u8 + 1;
                }
            },
        );
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn parallel_for_ranges_rejects_misaligned_output() {
        Pool::new(1).parallel_for_ranges(3, &mut [0u8; 4], 0, |_| 1, |_, _| {});
    }

    #[test]
    fn submitter_lane_panic_still_joins_queued_jobs_first() {
        // The soundness of the lifetime erasure in `run` depends on every
        // queued job finishing before the call unwinds — even when the task
        // the submitting thread executes itself is the one that panics.
        let pool = Pool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let mut tasks: Vec<Box<dyn FnOnce() + Send>> = (0..7)
            .map(|_| {
                let counter = Arc::clone(&counter);
                Box::new(move || {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        // The last task is the one `run` executes on the submitting lane.
        tasks.push(Box::new(|| panic!("submitter boom")));
        let result = catch_unwind(AssertUnwindSafe(|| pool.run(tasks)));
        assert!(result.is_err(), "the submitter panic must propagate");
        assert_eq!(
            counter.load(Ordering::SeqCst),
            7,
            "every queued job must have completed before `run` unwound"
        );
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let pool = Pool::new(2);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
            Box::new(|| {}),
            Box::new(|| panic!("boom")),
            Box::new(|| {}),
            Box::new(|| {}),
        ];
        let result = catch_unwind(AssertUnwindSafe(|| pool.run(tasks)));
        let payload = result.expect_err("the panic must reach the submitter");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"boom"),
            "the original panic payload must be preserved, not a generic message"
        );
        // The pool keeps serving batches after a task panicked.
        let counter = AtomicUsize::new(0);
        let tasks: Vec<_> = (0..8)
            .map(|_| {
                || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn nested_run_from_a_pooled_task_does_not_deadlock() {
        let pool = Pool::new(2);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<_> = (0..4)
            .map(|_| {
                let counter = &counter;
                move || {
                    // A nested batch issued from whatever lane runs this
                    // task (worker or caller) must complete inline.
                    let inner: Vec<_> = (0..4)
                        .map(|_| {
                            || {
                                counter.fetch_add(1, Ordering::SeqCst);
                            }
                        })
                        .collect();
                    Pool::global().run(inner);
                }
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn worker_count_from_env_parses_all_forms() {
        assert!(worker_count_from_env(None) >= 1);
        assert_eq!(worker_count_from_env(Some("3")), 3);
        assert_eq!(worker_count_from_env(Some(" 12 ")), 12);
        // Auto selectors and garbage all fall back to the hardware count.
        let auto = worker_count_from_env(None);
        for raw in ["", "0", "auto", "-4", "lots", "1.5"] {
            assert_eq!(worker_count_from_env(Some(raw)), auto, "{raw:?}");
        }
    }

    #[test]
    fn gcod_workers_env_is_honoured() {
        // `from_env` reads GCOD_WORKERS at construction time; the global
        // pool does the same at first access.
        std::env::set_var("GCOD_WORKERS", "5");
        let pool = Pool::from_env();
        assert_eq!(pool.workers(), 5);
        std::env::remove_var("GCOD_WORKERS");
    }

    #[test]
    fn latch_counts_down_and_wakes_waiter() {
        let latch = Latch::new(2);
        assert!(!latch.is_done());
        latch.complete_one();
        latch.complete_one();
        assert!(latch.is_done());
        latch.wait(); // returns immediately once done
                      // Cross-thread: a waiter wakes when another thread counts down.
        let shared = Arc::new(Latch::new(1));
        let waiter = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.wait())
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        shared.complete_one();
        waiter.join().unwrap();
    }

    #[test]
    fn recovery_gate_admits_exactly_one_recoverer() {
        let gate = RecoveryGate::new();
        assert!(!gate.is_recovering());
        let token = gate.begin_recovery().expect("first claim");
        assert!(gate.is_recovering());
        assert!(gate.begin_recovery().is_none(), "no double respawn");
        gate.finish(token);
        assert!(!gate.is_recovering());
        assert_eq!(gate.generation(), 1);
        // A fresh cycle can begin after the previous one finished.
        let token = gate.begin_recovery().expect("second cycle");
        gate.finish(token);
        assert_eq!(gate.generation(), 2);
    }

    #[test]
    fn recovery_gate_close_blocks_new_cycles() {
        let gate = RecoveryGate::new();
        let token = gate.begin_recovery().expect("claim");
        // Shutdown races the in-flight recovery.
        gate.close();
        assert!(gate.is_closed());
        assert!(gate.begin_recovery().is_none(), "closed gate admits no one");
        // The in-flight recovery still drains cleanly.
        gate.finish(token);
        assert!(!gate.is_recovering());
        gate.close(); // idempotent
    }

    #[test]
    fn effective_workers_resolves_zero_to_pool_lanes() {
        let pool = Pool::new(4);
        assert_eq!(pool.effective_workers(0), 4);
        assert_eq!(pool.effective_workers(2), 2);
        assert_eq!(pool.effective_workers(9), 9);
    }
}
