//! A deterministic-interleaving model checker (a miniature loom) for the
//! workspace's concurrency primitives.
//!
//! # How it works
//!
//! [`check`] runs a closure over and over, each time under a different
//! thread interleaving, until the bounded-preemption schedule space is
//! exhausted. Inside a checked execution, every thread spawned through the
//! [`sync`](super) facade is a real OS thread — but only **one** runs at a
//! time. Each facade operation (lock acquisition, condvar wait/notify,
//! atomic access, spawn, join, thread exit) is a *scheduling point*: the
//! running thread hands control to the scheduler, which picks the next
//! thread to run from the currently enabled set. The sequence of picks is
//! the schedule; the explorer enumerates schedules depth-first, replaying a
//! recorded prefix and then extending it, so every run is deterministic and
//! reproducible.
//!
//! Exhaustive exploration is exponential, so the space is cut with the
//! classic *preemption bound* ([`Model::max_preemptions`]): a schedule may
//! switch away from a still-runnable thread at most N times (forced
//! switches — the running thread blocking or exiting — are free). Bounded
//! preemption finds practically all real concurrency bugs at N = 2..3
//! (CHESS's empirical result) while keeping small tests in the thousands of
//! interleavings.
//!
//! What the checker detects:
//!
//! * **Deadlocks** — an execution where some thread is blocked (on a lock,
//!   a condvar wait, or a join) and no thread can run. This is how
//!   a *lost wakeup* manifests: a consumer that misses its notification
//!   blocks forever on an interleaving the explorer is guaranteed to reach.
//! * **Panics** — assertion failures inside the closure (invariant
//!   violations, `unwrap` on impossible states) abort the exploration and
//!   re-raise with the failing schedule's decision count for context.
//!
//! The facade has no timed waits, and condvar waits never wake spuriously
//! — which is exactly what makes a missing re-check loop or a lost
//! notification observable as a deadlock.
//!
//! # What it is not
//!
//! Weak memory orderings are not modelled: executions are sequentially
//! consistent (one thread runs at a time), so bugs that only exist under
//! relaxed-ordering reorderings are out of scope. All workspace primitives
//! use `SeqCst` atomics and lock-based critical sections, so this matches
//! what the code relies on.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, PoisonError};

/// Panic message used internally to unwind threads of an aborted execution;
/// never surfaces to callers.
const ABORT_MSG: &str = "gcod-model: execution aborted";

thread_local! {
    /// The scheduler controlling the current thread, when it is a model
    /// thread inside a [`check`] execution.
    static CURRENT: RefCell<Option<(Arc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

/// The scheduler/thread-id pair of the calling thread, when model-controlled.
fn current() -> Option<(Arc<Scheduler>, usize)> {
    CURRENT.with(|slot| slot.borrow().clone())
}

fn lock_state(scheduler: &Scheduler) -> std::sync::MutexGuard<'_, SchedState> {
    scheduler
        .state
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// How one model thread may currently proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    /// May be scheduled.
    Runnable,
    /// Waiting for a mutex to be released.
    BlockedLock(usize),
    /// Waiting on a condvar until notified.
    BlockedCond(usize),
    /// Waiting for another model thread to finish.
    BlockedJoin(usize),
    /// Exited (normally or by panic).
    Finished,
}

#[derive(Debug)]
struct ThreadState {
    name: String,
    run: Run,
}

#[derive(Debug, Default)]
struct MutexState {
    owner: Option<usize>,
}

#[derive(Debug, Default)]
struct CondvarState {
    waiters: VecDeque<usize>,
}

/// One recorded scheduling decision.
#[derive(Debug, Clone)]
struct Decision {
    /// Thread ids that could be scheduled, free choice first.
    enabled: Vec<usize>,
    /// Whether choosing any entry but the first costs a preemption: true
    /// when the running thread is still runnable (it sits first, and
    /// switching away from it costs one); a forced switch (the running
    /// thread blocked or exited) is free whichever thread it picks.
    preemptive: bool,
    /// Index into `enabled` that was chosen.
    chosen: usize,
    /// Preemptions spent before this decision.
    preemptions_before: u32,
}

/// Why an execution was cut short.
#[derive(Debug, Clone)]
enum Abort {
    /// No thread can run but some are still blocked.
    Deadlock(String),
    /// A model thread panicked; the payload is re-raised by the explorer.
    Panic,
}

#[derive(Debug)]
struct SchedState {
    threads: Vec<ThreadState>,
    mutexes: Vec<MutexState>,
    condvars: Vec<CondvarState>,
    /// The one thread currently allowed to run.
    active: Option<usize>,
    /// Threads not yet finished.
    live: usize,
    /// Replay prefix: choice indices for the first `prefix.len()` decisions.
    prefix: Vec<usize>,
    decisions: Vec<Decision>,
    preemptions: u32,
    abort: Option<Abort>,
    panic_payload: Option<Box<dyn std::any::Any + Send>>,
}

/// The per-execution scheduler; all model threads of one execution share it.
#[derive(Debug)]
pub(super) struct Scheduler {
    state: StdMutex<SchedState>,
    changed: StdCondvar,
    /// Distinguishes executions so facade objects reused across executions
    /// re-register instead of reusing a stale id.
    serial: u64,
    /// Real join handles of every model OS thread, joined at execution end.
    os_handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

static NEXT_SERIAL: AtomicU64 = AtomicU64::new(1);

impl Scheduler {
    fn new(prefix: Vec<usize>) -> Self {
        Self {
            state: StdMutex::new(SchedState {
                threads: Vec::new(),
                mutexes: Vec::new(),
                condvars: Vec::new(),
                active: None,
                live: 0,
                prefix,
                decisions: Vec::new(),
                preemptions: 0,
                abort: None,
                panic_payload: None,
            }),
            changed: StdCondvar::new(),
            serial: NEXT_SERIAL.fetch_add(1, AtomicOrdering::SeqCst),
            os_handles: StdMutex::new(Vec::new()),
        }
    }

    /// Picks the next thread to run: replays the prefix, then defaults to
    /// letting the running thread continue (no preemption) or the first
    /// enabled thread. Records the decision. Detects deadlock and execution
    /// end. Must be called with the state lock held.
    fn pick_next(&self, st: &mut SchedState) {
        let mut enabled: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.run == Run::Runnable)
            .map(|(id, _)| id)
            .collect();
        let was_running = st.active;
        // Keep the free continuation at index 0 — the DFS explores
        // alternatives upward from the chosen index, so the default choice
        // must sit first for every other thread to be reachable. The free
        // continuation is the running thread while it stays runnable, and
        // any runnable thread on a forced switch.
        let running_still_runnable = match was_running {
            Some(running) => {
                if let Some(pos) = enabled.iter().position(|&id| id == running) {
                    enabled.remove(pos);
                    enabled.insert(0, running);
                    true
                } else {
                    false
                }
            }
            None => false,
        };
        if enabled.is_empty() {
            st.active = None;
            if st.live > 0 && st.abort.is_none() {
                let blocked: Vec<String> = st
                    .threads
                    .iter()
                    .filter(|t| t.run != Run::Finished)
                    .map(|t| format!("`{}` {:?}", t.name, t.run))
                    .collect();
                st.abort = Some(Abort::Deadlock(format!(
                    "deadlock: no runnable thread, {} still blocked: {}",
                    blocked.len(),
                    blocked.join(", ")
                )));
            }
            self.changed.notify_all();
            return;
        }
        let step = st.decisions.len();
        let chosen = if step < st.prefix.len() {
            st.prefix[step].min(enabled.len() - 1)
        } else {
            // Default policy: index 0 — the running thread when it is still
            // enabled (zero preemptions, the canonical first schedule of the
            // DFS), the lowest-id enabled thread otherwise.
            0
        };
        let preemptions_before = st.preemptions;
        if running_still_runnable && chosen > 0 {
            st.preemptions += 1;
        }
        st.decisions.push(Decision {
            enabled: enabled.clone(),
            preemptive: running_still_runnable,
            chosen,
            preemptions_before,
        });
        assert!(
            st.decisions.len() < 100_000,
            "gcod-model: execution exceeded 100000 scheduling decisions — \
             the scenario likely contains an unbounded polling loop"
        );
        st.active = Some(enabled[chosen]);
        self.changed.notify_all();
    }

    /// Blocks the calling model thread until it is the active one. Unwinds
    /// with [`ABORT_MSG`] when the execution was aborted meanwhile.
    fn wait_for_turn<'a>(
        &'a self,
        mut st: std::sync::MutexGuard<'a, SchedState>,
        me: usize,
    ) -> std::sync::MutexGuard<'a, SchedState> {
        loop {
            if st.abort.is_some() {
                drop(st);
                // gcod-check: allow(no-unwrap) — deliberate: aborting an execution unwinds every model thread.
                panic!("{ABORT_MSG}");
            }
            if st.active == Some(me) {
                return st;
            }
            st = self
                .changed
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A plain scheduling point: the calling thread stays runnable, the
    /// scheduler may hand control to another thread before it proceeds.
    fn yield_op(&self, me: usize) {
        let mut st = lock_state(self);
        self.pick_next(&mut st);
        let _st = self.wait_for_turn(st, me);
    }

    /// Registers a new mutex, returning its id.
    fn register_mutex(&self) -> usize {
        let mut st = lock_state(self);
        st.mutexes.push(MutexState::default());
        st.mutexes.len() - 1
    }

    /// Registers a new condvar, returning its id.
    fn register_condvar(&self) -> usize {
        let mut st = lock_state(self);
        st.condvars.push(CondvarState::default());
        st.condvars.len() - 1
    }

    /// Acquires model mutex `mid` for thread `me`, scheduling around the
    /// acquisition and blocking while another thread owns it.
    fn mutex_lock(&self, mid: usize, me: usize) {
        self.yield_op(me);
        let mut st = lock_state(self);
        loop {
            if st.mutexes[mid].owner.is_none() {
                st.mutexes[mid].owner = Some(me);
                return;
            }
            st.threads[me].run = Run::BlockedLock(mid);
            self.pick_next(&mut st);
            st = self.wait_for_turn(st, me);
        }
    }

    /// Releases model mutex `mid`, marking lock waiters runnable (they
    /// re-contend when next scheduled).
    fn mutex_unlock(&self, mid: usize, me: usize) {
        let mut st = lock_state(self);
        debug_assert_eq!(st.mutexes[mid].owner, Some(me), "unlock by non-owner");
        st.mutexes[mid].owner = None;
        for thread in st.threads.iter_mut() {
            if thread.run == Run::BlockedLock(mid) {
                thread.run = Run::Runnable;
            }
        }
    }

    /// The condvar wait protocol: atomically release `mid`, enqueue on
    /// `cvid` and block; once woken (and scheduled), re-acquire `mid`.
    fn cond_wait(&self, cvid: usize, mid: usize, me: usize) {
        let mut st = lock_state(self);
        debug_assert_eq!(st.mutexes[mid].owner, Some(me), "wait without the lock");
        st.mutexes[mid].owner = None;
        for thread in st.threads.iter_mut() {
            if thread.run == Run::BlockedLock(mid) {
                thread.run = Run::Runnable;
            }
        }
        st.condvars[cvid].waiters.push_back(me);
        st.threads[me].run = Run::BlockedCond(cvid);
        self.pick_next(&mut st);
        st = self.wait_for_turn(st, me);
        // Re-acquire the mutex (we are scheduled; contend like a fresh lock
        // but without an extra scheduling point — the wake was the decision).
        loop {
            if st.mutexes[mid].owner.is_none() {
                st.mutexes[mid].owner = Some(me);
                return;
            }
            st.threads[me].run = Run::BlockedLock(mid);
            self.pick_next(&mut st);
            st = self.wait_for_turn(st, me);
        }
    }

    /// Wakes the longest-waiting waiter of `cvid`, if any.
    fn notify_one(&self, cvid: usize, me: usize) {
        self.yield_op(me);
        let mut st = lock_state(self);
        if let Some(waiter) = st.condvars[cvid].waiters.pop_front() {
            st.threads[waiter].run = Run::Runnable;
        }
    }

    /// Wakes every waiter of `cvid`.
    fn notify_all(&self, cvid: usize, me: usize) {
        self.yield_op(me);
        let mut st = lock_state(self);
        while let Some(waiter) = st.condvars[cvid].waiters.pop_front() {
            st.threads[waiter].run = Run::Runnable;
        }
    }

    /// Registers a model thread (runnable, not yet scheduled).
    fn register_thread(&self, name: &str) -> usize {
        let mut st = lock_state(self);
        st.threads.push(ThreadState {
            name: name.to_string(),
            run: Run::Runnable,
        });
        st.live += 1;
        st.threads.len() - 1
    }

    /// Thread exit protocol: mark finished, wake joiners, pick the next
    /// thread (or record the panic and abort the execution).
    fn finish(&self, me: usize, panic_payload: Option<Box<dyn std::any::Any + Send>>) {
        let mut st = lock_state(self);
        st.threads[me].run = Run::Finished;
        st.live -= 1;
        for thread in st.threads.iter_mut() {
            if thread.run == Run::BlockedJoin(me) {
                thread.run = Run::Runnable;
            }
        }
        if let Some(payload) = panic_payload {
            // The internal abort unwind is bookkeeping, not a finding.
            let internal = payload
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(ABORT_MSG))
                || payload
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains(ABORT_MSG));
            if !internal && st.abort.is_none() {
                st.abort = Some(Abort::Panic);
                st.panic_payload = Some(payload);
            }
            st.active = None;
            self.changed.notify_all();
            return;
        }
        if st.abort.is_some() {
            st.active = None;
            self.changed.notify_all();
            return;
        }
        self.pick_next(&mut st);
    }

    /// Blocks thread `me` until thread `child` finishes.
    fn join_thread(&self, child: usize, me: usize) {
        self.yield_op(me);
        let mut st = lock_state(self);
        while st.threads[child].run != Run::Finished {
            st.threads[me].run = Run::BlockedJoin(child);
            self.pick_next(&mut st);
            st = self.wait_for_turn(st, me);
        }
    }

    /// Spawns a model OS thread running `body` as thread id `id`.
    fn spawn_os_thread(
        self: &Arc<Self>,
        id: usize,
        name: &str,
        body: impl FnOnce() + Send + 'static,
    ) {
        let scheduler = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("gcod-model-{name}"))
            .spawn(move || {
                CURRENT.with(|slot| *slot.borrow_mut() = Some((Arc::clone(&scheduler), id)));
                {
                    let st = lock_state(&scheduler);
                    // Block until first scheduled; unwinds on abort.
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        drop(scheduler.wait_for_turn(st, id));
                        body()
                    }));
                    scheduler.finish(id, result.err());
                }
                CURRENT.with(|slot| *slot.borrow_mut() = None);
            })
            .expect("gcod-model: failed to spawn model thread");
        self.os_handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(handle);
    }

    /// Blocks the (non-model) explorer thread until the execution finishes.
    fn wait_execution_done(&self) {
        let mut st = lock_state(self);
        while st.live > 0 && st.abort.is_none() {
            st = self
                .changed
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if st.abort.is_some() {
            // Unblock every surviving thread so it can unwind and exit.
            self.changed.notify_all();
            while st.live > 0 {
                st = self
                    .changed
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Exploration knobs; [`Model::default`] matches the workspace CI setup.
#[derive(Debug, Clone)]
pub struct Model {
    /// Most times a schedule may switch away from a still-runnable thread.
    /// 2–3 finds practically all real interleaving bugs (the CHESS result);
    /// raising it grows the space combinatorially.
    pub max_preemptions: u32,
    /// Hard cap on explored executions; exceeding it fails the check (the
    /// test should shrink its scenario instead of silently under-exploring).
    pub max_executions: usize,
}

impl Default for Model {
    fn default() -> Self {
        Self {
            max_preemptions: 2,
            max_executions: 500_000,
        }
    }
}

/// What [`check`] explored; the counts CI prints to keep runtime honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Complete executions explored (each is one distinct interleaving).
    pub interleavings: usize,
    /// Scheduling decisions in the longest execution.
    pub max_decisions: usize,
}

/// Explores `f` under [`Model::default`]; see [`Model::check`].
pub fn check(name: &str, f: impl Fn() + Send + Sync + 'static) -> Report {
    Model::default().check(name, f)
}

impl Model {
    /// Runs `f` under every schedule within the preemption bound (see the
    /// [module docs](self)), panicking on the first deadlock or thread
    /// panic with the failing schedule's context. Prints and returns the
    /// exploration counts.
    ///
    /// `f` must be deterministic apart from scheduling, and must create the
    /// state it checks (queues, latches, threads) *inside* the closure so
    /// every execution starts fresh.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any model thread; panics on deadlock;
    /// panics when the schedule space exceeds [`Model::max_executions`].
    pub fn check(&self, name: &str, f: impl Fn() + Send + Sync + 'static) -> Report {
        assert!(
            current().is_none(),
            "gcod-model: nested check() inside a model execution"
        );
        let f = Arc::new(f);
        let mut prefix: Vec<usize> = Vec::new();
        let mut interleavings = 0usize;
        let mut max_decisions = 0usize;
        loop {
            let scheduler = Arc::new(Scheduler::new(prefix.clone()));
            let root_id = scheduler.register_thread("root");
            let body = {
                let f = Arc::clone(&f);
                move || f()
            };
            scheduler.spawn_os_thread(root_id, "root", body);
            {
                // Initial pick: start the root thread.
                let mut st = lock_state(&scheduler);
                scheduler.pick_next(&mut st);
            }
            scheduler.wait_execution_done();
            for handle in scheduler
                .os_handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .drain(..)
            {
                let _ = handle.join();
            }
            interleavings += 1;
            let mut st = lock_state(&scheduler);
            max_decisions = max_decisions.max(st.decisions.len());
            match st.abort.take() {
                Some(Abort::Deadlock(message)) => {
                    // gcod-check: allow(no-unwrap) — deliberate: a deadlock is the checker's failure report.
                    panic!(
                        "model `{name}`: {message} (interleaving #{interleavings}, \
                         {} decisions: {:?})",
                        st.decisions.len(),
                        st.decisions
                            .iter()
                            .map(|d| d.enabled[d.chosen])
                            .collect::<Vec<_>>()
                    );
                }
                Some(Abort::Panic) => {
                    let payload = st
                        .panic_payload
                        .take()
                        .unwrap_or_else(|| Box::new("model thread panicked"));
                    eprintln!(
                        "model `{name}`: thread panic on interleaving #{interleavings} \
                         ({} decisions)",
                        st.decisions.len()
                    );
                    drop(st);
                    resume_unwind(payload);
                }
                None => {}
            }
            let next = next_prefix(&st.decisions, self.max_preemptions);
            drop(st);
            match next {
                Some(p) => prefix = p,
                None => break,
            }
            assert!(
                interleavings < self.max_executions,
                "model `{name}`: exceeded {} executions — shrink the scenario \
                 or lower max_preemptions",
                self.max_executions
            );
        }
        println!(
            "model `{name}`: {interleavings} interleavings explored \
             (max {max_decisions} decisions/run, preemption bound {})",
            self.max_preemptions
        );
        Report {
            interleavings,
            max_decisions,
        }
    }
}

/// The DFS backtrack: the deepest decision with an untried alternative
/// within the preemption bound, as a new replay prefix.
fn next_prefix(decisions: &[Decision], max_preemptions: u32) -> Option<Vec<usize>> {
    for (i, decision) in decisions.iter().enumerate().rev() {
        for alt in decision.chosen + 1..decision.enabled.len() {
            let extra = u32::from(decision.preemptive);
            if decision.preemptions_before + extra <= max_preemptions {
                let mut prefix: Vec<usize> = decisions[..i].iter().map(|d| d.chosen).collect();
                prefix.push(alt);
                return Some(prefix);
            }
        }
    }
    None
}

/// The instrumented facade types (model-mode [`Mutex`](facade::Mutex),
/// [`Condvar`](facade::Condvar), [`atomic`](facade::atomic),
/// [`thread`](facade::thread)); outside a [`check`] execution they behave
/// exactly like their `std` counterparts.
pub mod facade {
    use super::*;

    /// Packs `(execution serial, id + 1)` so facade objects reused across
    /// executions re-register instead of aliasing a stale id.
    #[derive(Debug, Default)]
    struct ModelId(AtomicU64);

    impl ModelId {
        const fn new() -> Self {
            Self(AtomicU64::new(0))
        }

        /// The object's id within `scheduler`'s execution, registering it
        /// on first use.
        fn get_or_register(
            &self,
            scheduler: &Arc<Scheduler>,
            register: impl FnOnce() -> usize,
        ) -> usize {
            let tag = self.0.load(AtomicOrdering::SeqCst);
            let serial = tag >> 32;
            if serial == (scheduler.serial & 0xffff_ffff) && tag & 0xffff_ffff != 0 {
                return ((tag & 0xffff_ffff) - 1) as usize;
            }
            let id = register();
            self.0.store(
                ((scheduler.serial & 0xffff_ffff) << 32) | (id as u64 + 1),
                AtomicOrdering::SeqCst,
            );
            id
        }
    }

    /// Model-mode mutex: a real [`std::sync::Mutex`] plus scheduler
    /// bookkeeping when a model execution is active.
    #[derive(Debug, Default)]
    pub struct Mutex<T> {
        inner: StdMutex<T>,
        id: ModelId,
    }

    /// Model-mode guard; releases the scheduler-side ownership on drop.
    #[derive(Debug)]
    pub struct MutexGuard<'a, T> {
        lock: &'a Mutex<T>,
        inner: Option<std::sync::MutexGuard<'a, T>>,
        /// `(scheduler, mutex id)` when acquired inside a model execution.
        model: Option<(Arc<Scheduler>, usize)>,
    }

    impl<T> Mutex<T> {
        /// A new unlocked mutex holding `value`.
        pub const fn new(value: T) -> Self {
            Self {
                inner: StdMutex::new(value),
                id: ModelId::new(),
            }
        }

        fn std_guard(&self) -> std::sync::MutexGuard<'_, T> {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Acquires the lock, recovering from poisoning; a scheduling point
        /// under an active model execution.
        pub fn lock_unpoisoned(&self) -> MutexGuard<'_, T> {
            match current() {
                Some((scheduler, me)) => {
                    let mid = self
                        .id
                        .get_or_register(&scheduler, || scheduler.register_mutex());
                    scheduler.mutex_lock(mid, me);
                    MutexGuard {
                        lock: self,
                        inner: Some(self.std_guard()),
                        model: Some((scheduler, mid)),
                    }
                }
                None => MutexGuard {
                    lock: self,
                    inner: Some(self.std_guard()),
                    model: None,
                },
            }
        }
    }

    impl<'a, T> MutexGuard<'a, T> {
        /// Drops the real guard and detaches the scheduler bookkeeping
        /// without releasing scheduler-side ownership (the condvar wait
        /// protocol releases it itself).
        fn dismantle(mut self) -> (&'a Mutex<T>, Option<(Arc<Scheduler>, usize)>) {
            let lock = self.lock;
            let model = self.model.take();
            self.inner = None;
            std::mem::forget(self);
            (lock, model)
        }
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard dismantled")
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard dismantled")
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // Release the real lock before the scheduler-side ownership so
            // the next scheduled thread can actually acquire it.
            self.inner = None;
            if let Some((scheduler, mid)) = self.model.take() {
                if let Some((_, me)) = current() {
                    scheduler.mutex_unlock(mid, me);
                }
            }
        }
    }

    /// Model-mode condition variable.
    #[derive(Debug, Default)]
    pub struct Condvar {
        inner: StdCondvar,
        id: ModelId,
    }

    impl Condvar {
        /// A new condition variable.
        pub const fn new() -> Self {
            Self {
                inner: StdCondvar::new(),
                id: ModelId::new(),
            }
        }

        /// Atomically releases `guard` and blocks until notified.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            match (current(), &guard.model) {
                (Some((scheduler, me)), Some(_)) => {
                    let cvid = self
                        .id
                        .get_or_register(&scheduler, || scheduler.register_condvar());
                    let (lock, model) = guard.dismantle();
                    let (_, mid) = model.expect("checked above");
                    scheduler.cond_wait(cvid, mid, me);
                    MutexGuard {
                        lock,
                        inner: Some(lock.std_guard()),
                        model: Some((scheduler, mid)),
                    }
                }
                _ => {
                    // Outside a model execution: plain std wait on the real
                    // mutex through the real condvar.
                    let (lock, model) = guard.dismantle();
                    let g = self
                        .inner
                        // gcod-check: allow(condvar-wait-while) — facade delegation; the caller owns the predicate loop.
                        .wait(lock.std_guard())
                        .unwrap_or_else(PoisonError::into_inner);
                    MutexGuard {
                        lock,
                        inner: Some(g),
                        model,
                    }
                }
            }
        }

        /// Wakes one blocked waiter.
        pub fn notify_one(&self) {
            match current() {
                Some((scheduler, me)) => {
                    let cvid = self
                        .id
                        .get_or_register(&scheduler, || scheduler.register_condvar());
                    scheduler.notify_one(cvid, me);
                }
                None => self.inner.notify_one(),
            }
        }

        /// Wakes every blocked waiter.
        pub fn notify_all(&self) {
            match current() {
                Some((scheduler, me)) => {
                    let cvid = self
                        .id
                        .get_or_register(&scheduler, || scheduler.register_condvar());
                    scheduler.notify_all(cvid, me);
                }
                None => self.inner.notify_all(),
            }
        }
    }

    /// Model-mode atomics: every access is a scheduling point under an
    /// active execution (sequentially consistent — see the
    /// [module docs](super::super::model)).
    pub mod atomic {
        use super::{current, AtomicOrdering};

        pub use std::sync::atomic::Ordering;

        fn yield_point() {
            if let Some((scheduler, me)) = current() {
                scheduler.yield_op(me);
            }
        }

        macro_rules! model_atomic {
            ($name:ident, $std:ty, $value:ty) => {
                /// A facade atomic; every access is a scheduling point
                /// inside a model execution.
                #[derive(Debug, Default)]
                pub struct $name($std);

                impl $name {
                    /// A new atomic holding `value`.
                    pub const fn new(value: $value) -> Self {
                        Self(<$std>::new(value))
                    }

                    /// Atomic load.
                    pub fn load(&self, order: Ordering) -> $value {
                        yield_point();
                        self.0.load(order)
                    }

                    /// Atomic store.
                    pub fn store(&self, value: $value, order: Ordering) {
                        yield_point();
                        self.0.store(value, order)
                    }

                    /// Atomic swap.
                    pub fn swap(&self, value: $value, order: Ordering) -> $value {
                        yield_point();
                        self.0.swap(value, order)
                    }
                }
            };
        }

        model_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
        model_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
        model_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);

        impl AtomicUsize {
            /// Atomic add, returning the previous value.
            pub fn fetch_add(&self, value: usize, order: Ordering) -> usize {
                yield_point();
                self.0.fetch_add(value, order)
            }

            /// Atomic max, returning the previous value.
            pub fn fetch_max(&self, value: usize, order: Ordering) -> usize {
                yield_point();
                self.0.fetch_max(value, order)
            }
        }

        impl AtomicU64 {
            /// Atomic add, returning the previous value.
            pub fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
                yield_point();
                self.0.fetch_add(value, order)
            }

            /// Atomic subtract, returning the previous value.
            pub fn fetch_sub(&self, value: u64, order: Ordering) -> u64 {
                yield_point();
                self.0.fetch_sub(value, order)
            }

            /// Atomic max, returning the previous value.
            pub fn fetch_max(&self, value: u64, order: Ordering) -> u64 {
                yield_point();
                self.0.fetch_max(value, order)
            }
        }

        const _: () = {
            // AtomicOrdering is re-imported for the scheduler itself; keep
            // the use alive without exposing it.
            let _ = AtomicOrdering::SeqCst;
        };
    }

    /// Model-mode thread spawning.
    pub mod thread {
        use super::*;

        /// Model-mode join handle: either a plain std handle (spawned
        /// outside a model execution) or a scheduler-managed model thread.
        #[derive(Debug)]
        pub struct JoinHandle<T>(Inner<T>);

        #[derive(Debug)]
        enum Inner<T> {
            /// Spawned outside any model execution.
            Std(std::thread::JoinHandle<T>),
            /// Spawned inside a model execution.
            Model {
                /// The scheduler controlling the thread.
                scheduler: Arc<Scheduler>,
                /// The thread's model id.
                id: usize,
                /// Filled by the thread before it reports finished.
                result: Arc<StdMutex<Option<std::thread::Result<T>>>>,
            },
        }

        impl<T> JoinHandle<T> {
            /// Waits for the thread to finish and returns its result
            /// (`Err` carries the panic payload, as with std).
            pub fn join(self) -> std::thread::Result<T> {
                match self.0 {
                    Inner::Std(handle) => handle.join(),
                    Inner::Model {
                        scheduler,
                        id,
                        result,
                    } => {
                        let (_, me) = current().expect(
                            "gcod-model: joining a model thread from outside its execution",
                        );
                        scheduler.join_thread(id, me);
                        result
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .take()
                            .expect("finished model thread must have stored its result")
                    }
                }
            }
        }

        /// Spawns a named thread; a model thread (scheduler-controlled)
        /// when called from inside a model execution.
        ///
        /// # Panics
        ///
        /// Panics when the OS refuses to spawn a thread.
        pub fn spawn_named<T, F>(name: &str, f: F) -> JoinHandle<T>
        where
            T: Send + 'static,
            F: FnOnce() -> T + Send + 'static,
        {
            match current() {
                Some((scheduler, me)) => {
                    let id = scheduler.register_thread(name);
                    let result: Arc<StdMutex<Option<std::thread::Result<T>>>> =
                        Arc::new(StdMutex::new(None));
                    let slot = Arc::clone(&result);
                    scheduler.spawn_os_thread(id, name, move || {
                        // Panics unwind into the exit protocol, which aborts
                        // the execution and re-raises the payload from the
                        // explorer — a model thread panic is always a
                        // finding, never a value `join` hands back.
                        let value = f();
                        *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(Ok(value));
                    });
                    scheduler.yield_op(me);
                    JoinHandle(Inner::Model {
                        scheduler,
                        id,
                        result,
                    })
                }
                None => JoinHandle(Inner::Std(
                    std::thread::Builder::new()
                        .name(name.to_string())
                        .spawn(f)
                        .expect("gcod-runtime: failed to spawn thread"),
                )),
            }
        }
    }
}
