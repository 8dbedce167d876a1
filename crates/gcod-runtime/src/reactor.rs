//! Event-driven wakeup core: a single-consumer reactor with sticky event
//! bits, plus the one-shot [`Event`] completion cell built on it.
//!
//! The design mirrors an `eventfd`/epoll pair reduced to its essentials. A
//! [`Reactor`] owns a 64-bit mask of *sticky* pending events: raising a bit
//! that is already set is idempotent, and a raise that happens before the
//! consumer blocks is observed by the very next [`Reactor::wait`] — the
//! classic lost-wakeup window between "check for work" and "go to sleep"
//! cannot exist, because the bit outlives the notification. Producers hold
//! cheap [`Waker`] handles (a reactor reference plus a fixed mask) and call
//! [`Waker::wake`]; the consumer loops on [`Reactor::wait`], which blocks
//! until at least one bit is pending or the reactor is closed, then returns
//! and clears the whole mask in one step.
//!
//! Events are *level-style hints, not queued messages*: consumers must treat
//! a wakeup as "go re-examine the real state" (a queue, a flag) rather than
//! as a one-to-one work token. That is what makes the mask coalescible —
//! a thousand raises between two waits collapse into one wakeup — and it is
//! the invariant the model suite checks: no schedule of raise/wait/close may
//! strand the consumer or drop the *fact* that something happened.
//!
//! Everything here is built on [`crate::sync`], so `--features model` (or
//! `--cfg gcod_model`) explores every bounded interleaving of the wakeup
//! protocol and reports a lost wakeup as a deadlock.

use std::sync::Arc;

use crate::sync::{Condvar, Mutex};

/// Sticky-bit event multiplexer: many producers raise bits, one (or more)
/// consumers wait for any bit. Cheaply clonable — clones share state.
///
/// See the [module docs](self) for the wakeup protocol and its guarantees.
#[derive(Clone, Debug, Default)]
pub struct Reactor {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    state: Mutex<State>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct State {
    pending: u64,
    closed: bool,
}

/// What one [`Reactor::wait`] observed: the pending bits taken (cleared) by
/// this wakeup, and whether the reactor has been closed.
///
/// `events` and `closed` are not exclusive — a close racing a raise can
/// deliver both at once, and consumers draining on shutdown rely on seeing
/// the final events alongside the close.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Wake {
    /// The event bits this wakeup consumed (zero only on close).
    pub events: u64,
    /// Whether [`Reactor::close`] has been called.
    pub closed: bool,
}

impl Wake {
    /// Whether any bit of `mask` was part of this wakeup.
    #[must_use]
    pub fn has(&self, mask: u64) -> bool {
        self.events & mask != 0
    }
}

impl Reactor {
    /// A fresh reactor with no pending events.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A producer-side handle that raises `events` on this reactor.
    #[must_use]
    pub fn waker(&self, events: u64) -> Waker {
        Waker {
            inner: Arc::clone(&self.inner),
            events,
        }
    }

    /// ORs `events` into the pending mask and wakes every waiter.
    ///
    /// Raising is sticky: if no consumer is blocked right now, the next
    /// [`Reactor::wait`] still observes the bits. `notify_all` (never
    /// `notify_one`) because heterogeneous waiter classes share the one
    /// condvar — a targeted notify could wake a waiter the bits don't
    /// concern while the one they do concern sleeps on.
    pub fn raise(&self, events: u64) {
        let mut state = self.inner.state.lock_unpoisoned();
        state.pending |= events;
        drop(state);
        self.inner.changed.notify_all();
    }

    /// Closes the reactor: every current and future wait returns with
    /// `closed == true` (after delivering any still-pending bits).
    /// Idempotent.
    pub fn close(&self) {
        let mut state = self.inner.state.lock_unpoisoned();
        state.closed = true;
        drop(state);
        self.inner.changed.notify_all();
    }

    /// Whether [`Reactor::close`] has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.inner.state.lock_unpoisoned().closed
    }

    /// Blocks until at least one event is pending or the reactor is closed,
    /// then takes (clears) the whole pending mask.
    ///
    /// The wait is untimed by design: the sticky mask makes polling
    /// unnecessary, and under the model scheduler an untimed wait turns any
    /// lost wakeup into a reported deadlock instead of a silent spin.
    #[must_use]
    pub fn wait(&self) -> Wake {
        let mut state = self.inner.state.lock_unpoisoned();
        while state.pending == 0 && !state.closed {
            state = self.inner.changed.wait(state);
        }
        Wake {
            events: std::mem::take(&mut state.pending),
            closed: state.closed,
        }
    }

    /// Takes whatever is pending right now without blocking.
    #[must_use]
    pub fn try_wait(&self) -> Wake {
        let mut state = self.inner.state.lock_unpoisoned();
        Wake {
            events: std::mem::take(&mut state.pending),
            closed: state.closed,
        }
    }
}

/// A producer-side handle bound to one reactor and one event mask.
///
/// Cheap to clone and `Send`/`Sync`; producers keep one per event source
/// (submission arrived, control changed, worker recovered, …).
#[derive(Clone, Debug)]
pub struct Waker {
    inner: Arc<Inner>,
    events: u64,
}

impl Waker {
    /// Raises this waker's event bits on its reactor (sticky; see
    /// [`Reactor::raise`]).
    pub fn wake(&self) {
        let mut state = self.inner.state.lock_unpoisoned();
        state.pending |= self.events;
        drop(state);
        self.inner.changed.notify_all();
    }
}

/// A one-shot, sticky completion cell: `set` once, observable forever.
///
/// This is the reactor-native replacement for counting down a
/// [`crate::Latch`] when the count is always one: producers call
/// [`Event::set`] exactly once (further calls are no-ops), consumers may
/// poll [`Event::is_set`] or block in [`Event::wait`] — all through `&self`, any number of times, from any thread. A `set`
/// that precedes the wait is observed immediately; the set-then-notify
/// sequence runs under one lock, so there is no window for a lost wakeup.
#[derive(Debug, Default)]
pub struct Event {
    set: Mutex<bool>,
    changed: Condvar,
}

impl Event {
    /// A fresh, unset event.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the event complete and wakes every waiter. Idempotent.
    pub fn set(&self) {
        let mut set = self.set.lock_unpoisoned();
        *set = true;
        drop(set);
        self.changed.notify_all();
    }

    /// Whether [`Event::set`] has happened.
    #[must_use]
    pub fn is_set(&self) -> bool {
        *self.set.lock_unpoisoned()
    }

    /// Blocks until the event is set (returns immediately if it already is).
    pub fn wait(&self) {
        let mut set = self.set.lock_unpoisoned();
        while !*set {
            set = self.changed.wait(set);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::thread;

    const EV_A: u64 = 1 << 0;
    const EV_B: u64 = 1 << 1;

    #[test]
    fn raise_before_wait_is_never_lost() {
        let reactor = Reactor::new();
        reactor.raise(EV_A);
        let wake = reactor.wait();
        assert!(wake.has(EV_A));
        assert!(!wake.closed);
        // The mask was cleared by the wait.
        let again = reactor.try_wait();
        assert_eq!(again.events, 0);
    }

    #[test]
    fn raises_coalesce_into_one_wake() {
        let reactor = Reactor::new();
        reactor.raise(EV_A);
        reactor.raise(EV_A);
        reactor.raise(EV_B);
        let wake = reactor.wait();
        assert_eq!(wake.events, EV_A | EV_B);
    }

    #[test]
    fn wakers_raise_their_mask_across_threads() {
        let reactor = Reactor::new();
        let waker = reactor.waker(EV_B);
        let producer = thread::spawn_named("waker", move || waker.wake());
        let wake = reactor.wait();
        assert!(wake.has(EV_B));
        producer.join().expect("producer ran");
    }

    #[test]
    fn close_wakes_and_reports_closed() {
        let reactor = Reactor::new();
        let consumer = {
            let reactor = reactor.clone();
            thread::spawn_named("consumer", move || reactor.wait())
        };
        reactor.close();
        let wake = consumer.join().expect("consumer ran");
        assert!(wake.closed);
        assert!(reactor.is_closed());
        // Closed reactors still deliver bits raised afterwards.
        reactor.raise(EV_A);
        let wake = reactor.wait();
        assert!(wake.closed && wake.has(EV_A));
    }

    #[test]
    fn event_is_sticky_and_idempotent() {
        let event = Event::new();
        assert!(!event.is_set());
        event.set();
        event.set();
        assert!(event.is_set());
        event.wait(); // returns immediately once set
    }

    #[test]
    fn event_set_wakes_a_blocked_waiter() {
        let event = Arc::new(Event::new());
        let waiter = {
            let event = Arc::clone(&event);
            thread::spawn_named("waiter", move || event.wait())
        };
        event.set();
        waiter.join().expect("waiter ran");
        assert!(event.is_set());
    }
}
