//! The synchronisation facade every concurrency primitive in the workspace
//! is built on: [`Mutex`], [`Condvar`], [`atomic`] integers and
//! [`thread::spawn_named`].
//!
//! # Why a facade
//!
//! `SyncQueue`, `Latch`, the `Pool` job feed and the `gcod-serve` dispatcher
//! all rest on hand-rolled blocking primitives, and every correctness claim
//! they make (no lost wakeups, drain-on-shutdown, panic safety) is an
//! *interleaving* property that example-based tests cannot explore. This
//! module gives those primitives a single seam:
//!
//! * **Normally** (no `model` feature, no `--cfg gcod_model`) every type
//!   here compiles to a thin zero-cost wrapper over its [`std::sync`]
//!   counterpart — same types, same waits, same wakeups, bit-identical
//!   behaviour.
//! * **Under `cfg(gcod_model)` or the `model` cargo feature** the same API
//!   compiles to instrumented versions driven by the deterministic DFS
//!   scheduler in `model`: every lock acquisition, condvar wait/notify,
//!   atomic access and spawn becomes a scheduling decision the
//!   `model::check` explorer enumerates exhaustively (with a bounded
//!   number of preemptions), so small multi-threaded tests can *prove*
//!   properties like "`close()` wakes every blocked consumer" instead of
//!   hoping the OS scheduler stumbles onto the bad interleaving.
//!
//! Even in an instrumented build, code that runs outside a `model::check`
//! execution falls back to plain `std` behaviour — the scheduler only
//! controls threads it spawned itself, so a `--features model` build still
//! passes the ordinary test suite.
//!
//! # Lock poisoning policy
//!
//! The facade exposes [`Mutex::lock_unpoisoned`] instead of `lock`: lock
//! poisoning is *recovered from*, not propagated. Every critical section in
//! the workspace's primitives restores its invariants before returning (the
//! worker pool additionally catches task panics before they can unwind
//! through a held lock), so a poisoned lock carries no extra information —
//! propagating it only converts one thread's failure into a process-wide
//! panic cascade. The name makes the policy greppable, and the `gcod-check`
//! lint pass enforces that raw `.unwrap()` never reappears on a lock.
//!
//! # Example
//!
//! ```
//! use gcod_runtime::sync::{Condvar, Mutex};
//!
//! let slot = Mutex::new(None);
//! let ready = Condvar::new();
//! *slot.lock_unpoisoned() = Some(7);
//! ready.notify_all();
//! let mut guard = slot.lock_unpoisoned();
//! while guard.is_none() {
//!     guard = ready.wait(guard); // condvar waits always sit in a loop
//! }
//! assert_eq!(*guard, Some(7));
//! ```

#[cfg(any(feature = "model", gcod_model))]
pub mod model;

#[cfg(not(any(feature = "model", gcod_model)))]
mod imp {
    //! The production path: zero-cost delegation to [`std::sync`].

    use std::sync::PoisonError;

    /// The facade's guard type; on the production path this is exactly
    /// [`std::sync::MutexGuard`].
    pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

    /// A mutual-exclusion lock; see the [module docs](super) for the
    /// poisoning policy behind [`lock_unpoisoned`](Mutex::lock_unpoisoned).
    #[derive(Debug, Default)]
    pub struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        /// A new unlocked mutex holding `value`.
        pub const fn new(value: T) -> Self {
            Self(std::sync::Mutex::new(value))
        }

        /// Acquires the lock, recovering from poisoning (see the
        /// [module docs](super)). Blocks while another thread holds it.
        pub fn lock_unpoisoned(&self) -> MutexGuard<'_, T> {
            self.0.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// A condition variable; waits must sit in a `while` loop re-checking
    /// the guarded predicate (the `gcod-check` lint pass enforces this).
    #[derive(Debug, Default)]
    pub struct Condvar(std::sync::Condvar);

    impl Condvar {
        /// A new condition variable.
        pub const fn new() -> Self {
            Self(std::sync::Condvar::new())
        }

        /// Atomically releases `guard` and blocks until notified, then
        /// reacquires the lock (recovering from poisoning).
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            // gcod-check: allow(condvar-wait-while) — facade delegation; the caller owns the predicate loop.
            self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
        }

        /// Wakes one blocked waiter.
        pub fn notify_one(&self) {
            self.0.notify_one();
        }

        /// Wakes every blocked waiter.
        pub fn notify_all(&self) {
            self.0.notify_all();
        }
    }

    /// Facade atomics: on the production path, re-exports of [`std::sync::atomic`].
    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    }

    /// Thread spawning through the facade.
    pub mod thread {
        /// The facade's join handle; on the production path this is exactly
        /// [`std::thread::JoinHandle`].
        pub type JoinHandle<T> = std::thread::JoinHandle<T>;

        /// Spawns a named thread.
        ///
        /// # Panics
        ///
        /// Panics when the OS refuses to spawn a thread (out of resources).
        pub fn spawn_named<T, F>(name: &str, f: F) -> JoinHandle<T>
        where
            T: Send + 'static,
            F: FnOnce() -> T + Send + 'static,
        {
            std::thread::Builder::new()
                .name(name.to_string())
                .spawn(f)
                .expect("gcod-runtime: failed to spawn thread")
        }
    }
}

#[cfg(any(feature = "model", gcod_model))]
mod imp {
    //! The instrumented path: delegate to the model checker's facade types,
    //! which fall back to `std` behaviour outside a [`super::model::check`]
    //! execution.

    pub use super::model::facade::{atomic, thread, Condvar, Mutex, MutexGuard};
}

pub use imp::{atomic, thread, Condvar, Mutex, MutexGuard};
