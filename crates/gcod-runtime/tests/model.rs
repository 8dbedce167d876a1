//! Deterministic-interleaving model tests for the concurrency substrate.
//!
//! Each test hands a small multi-threaded scenario to
//! [`gcod_runtime::sync::model::check`], which explores every schedule within
//! the preemption bound and fails on the first deadlock (how a lost wakeup
//! manifests) or assertion panic. Build with `--features model` or
//! `RUSTFLAGS='--cfg gcod_model'`; on a plain build this file compiles to
//! nothing.
//!
//! Run with `-- --nocapture` to see the per-test interleaving counts CI
//! tracks.

#![cfg(any(feature = "model", gcod_model))]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use gcod_runtime::sync::model::{self, Model};
use gcod_runtime::sync::{thread, Condvar, Mutex};
use gcod_runtime::{Latch, Pool, Reactor, SyncQueue};

/// Every schedule of two producers racing one consumer must hand both items
/// over — a lost wakeup would strand the consumer in `pop` and show up as a
/// deadlock.
#[test]
fn queue_push_pop_loses_no_wakeup() {
    let model = Model {
        max_preemptions: 4,
        ..Model::default()
    };
    let report = model.check("queue-push-pop", || {
        let q = Arc::new(SyncQueue::unbounded());
        let producers: Vec<_> = (1..=2u32)
            .map(|v| {
                let q = Arc::clone(&q);
                thread::spawn_named(&format!("producer-{v}"), move || {
                    q.try_push(v).expect("queue is open");
                })
            })
            .collect();
        let mut got = [q.pop(), q.pop()];
        got.sort();
        assert_eq!(
            got,
            [Some(1), Some(2)],
            "both pushes must reach the consumer"
        );
        for producer in producers {
            producer.join().expect("producer ran to completion");
        }
    });
    assert!(
        report.interleavings >= 1000,
        "expected a meaningful exploration, got {} interleavings",
        report.interleavings
    );
}

/// `close()` must wake every blocked consumer on every schedule — consumers
/// that entered `pop` before, during and after the close all observe the
/// drain-then-`None` protocol.
#[test]
fn queue_close_wakes_all_blocked_consumers() {
    let model = Model {
        max_preemptions: 3,
        ..Model::default()
    };
    let report = model.check("queue-close-wakes-all", || {
        let q: Arc<SyncQueue<u8>> = Arc::new(SyncQueue::unbounded());
        let consumers: Vec<_> = (0..2)
            .map(|i| {
                let q = Arc::clone(&q);
                thread::spawn_named(&format!("consumer-{i}"), move || q.pop())
            })
            .collect();
        q.try_push(9).expect("queue is open");
        q.close();
        let mut popped: Vec<Option<u8>> = consumers
            .into_iter()
            .map(|c| c.join().expect("consumer ran to completion"))
            .collect();
        popped.sort();
        // Exactly one consumer got the queued item; the other drained to the
        // closed state. Neither may hang.
        assert_eq!(popped, vec![None, Some(9)]);
    });
    assert!(
        report.interleavings >= 1000,
        "expected a meaningful exploration, got {} interleavings",
        report.interleavings
    );
}

/// A `Latch` waiter must wake on every schedule of the completing threads —
/// the count-to-zero notification can never be lost.
#[test]
fn latch_wait_never_hangs() {
    let model = Model {
        max_preemptions: 3,
        ..Model::default()
    };
    let report = model.check("latch-wait", || {
        let latch = Arc::new(Latch::new(3));
        let completers: Vec<_> = (0..3)
            .map(|i| {
                let latch = Arc::clone(&latch);
                thread::spawn_named(&format!("completer-{i}"), move || latch.complete_one())
            })
            .collect();
        latch.wait();
        assert!(latch.is_done());
        for completer in completers {
            completer.join().expect("completer ran to completion");
        }
    });
    assert!(
        report.interleavings >= 1000,
        "expected a meaningful exploration, got {} interleavings",
        report.interleavings
    );
}

/// A full pool lifecycle — spawn a worker, run a batch, drop (close + join)
/// — must complete on every schedule: the batch join must see every task and
/// shutdown must wake the blocked worker.
#[test]
fn pool_run_and_shutdown_never_hang() {
    use gcod_runtime::sync::atomic::{AtomicUsize, Ordering};
    // The pool scenario has a deeper decision trace than the queue tests;
    // one preemption keeps the space in the thousands while still crossing
    // every pair of adjacent critical sections.
    let model = Model {
        max_preemptions: 1,
        ..Model::default()
    };
    model.check("pool-run-shutdown", || {
        let pool = Pool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 2);
        drop(pool); // close the feed, join the worker — must not hang
    });
}

/// A raise racing the consumer's block must be observed on every schedule —
/// the sticky event mask is exactly the mechanism that closes the classic
/// check-then-sleep window, and a lost raise would strand the consumer in
/// `wait` (reported as a deadlock by the scheduler).
#[test]
fn reactor_raise_is_never_lost() {
    let model = Model {
        max_preemptions: 4,
        ..Model::default()
    };
    let report = model.check("reactor-raise-wait", || {
        let reactor = Reactor::new();
        let producers: Vec<_> = [1u64, 2]
            .into_iter()
            .map(|bit| {
                let waker = reactor.waker(1 << bit);
                thread::spawn_named(&format!("raiser-{bit}"), move || waker.wake())
            })
            .collect();
        // Two raises may coalesce into one wake or arrive as two; either
        // way both bits must be seen, and neither wait may hang.
        let mut seen = 0u64;
        while seen != (1 << 1) | (1 << 2) {
            let wake = reactor.wait();
            assert!(!wake.closed, "nobody closed the reactor");
            assert_ne!(wake.events, 0, "an open reactor only wakes for events");
            seen |= wake.events;
        }
        for producer in producers {
            producer.join().expect("producer ran to completion");
        }
    });
    assert!(
        report.interleavings >= 100,
        "expected a meaningful exploration, got {} interleavings",
        report.interleavings
    );
}

/// `close()` racing a raise must wake a blocked consumer on every schedule
/// and never swallow the raised bit: the final wake carries the close flag,
/// and the bit is observed either with it or before it.
#[test]
fn reactor_close_wakes_consumer_without_dropping_events() {
    let model = Model {
        max_preemptions: 4,
        ..Model::default()
    };
    let report = model.check("reactor-close-vs-raise", || {
        let reactor = Reactor::new();
        let raiser = {
            let waker = reactor.waker(1);
            thread::spawn_named("raiser", move || waker.wake())
        };
        let closer = {
            let reactor = reactor.clone();
            thread::spawn_named("closer", move || reactor.close())
        };
        let mut seen = 0u64;
        loop {
            let wake = reactor.wait();
            seen |= wake.events;
            if wake.closed {
                break;
            }
        }
        // The close delivered. Once the raiser has finished, its bit must
        // be accounted for — seen before the close or still sticky after it.
        raiser.join().expect("raiser ran to completion");
        closer.join().expect("closer ran to completion");
        seen |= reactor.try_wait().events;
        assert_eq!(seen, 1, "the raised bit survived the close race");
    });
    assert!(
        report.interleavings >= 100,
        "expected a meaningful exploration, got {} interleavings",
        report.interleavings
    );
}

/// A queue with the classic lost-wakeup bug: `pop` checks for an item,
/// **releases the lock**, and only then re-acquires it to wait. A push that
/// lands inside that window notifies nobody — the notification is lost and
/// the consumer sleeps forever. Kept here (test-only) to prove the model
/// checker actually catches the bug class the `SyncQueue` tests above claim
/// to rule out.
struct BrokenQueue {
    items: Mutex<VecDeque<u32>>,
    not_empty: Condvar,
}

impl BrokenQueue {
    fn new() -> Self {
        Self {
            items: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
        }
    }

    fn push(&self, value: u32) {
        self.items.lock_unpoisoned().push_back(value);
        self.not_empty.notify_one();
    }

    /// The broken pop: the empty-check and the wait happen under *separate*
    /// lock acquisitions, leaving a window where a concurrent push's
    /// notification is lost.
    fn pop_lost_wakeup(&self) -> u32 {
        loop {
            {
                let mut items = self.items.lock_unpoisoned();
                if let Some(value) = items.pop_front() {
                    return value;
                }
            } // lock released: a push landing here notifies nobody
            let guard = self.items.lock_unpoisoned();
            drop(self.not_empty.wait(guard));
        }
    }
}

/// Regression test for the detector itself: the model checker must flag the
/// broken queue's lost wakeup as a deadlock. If this starts passing silently,
/// the scheduler stopped exploring the racy window.
#[test]
fn model_catches_lost_wakeup_in_broken_queue() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        model::check("broken-queue-lost-wakeup", || {
            let q = Arc::new(BrokenQueue::new());
            let producer = {
                let q = Arc::clone(&q);
                thread::spawn_named("producer", move || q.push(7))
            };
            assert_eq!(q.pop_lost_wakeup(), 7);
            producer.join().expect("producer ran to completion");
        });
    }));
    let payload = result.expect_err("the model checker must catch the lost wakeup");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "<non-string panic payload>".to_string());
    assert!(
        message.contains("deadlock"),
        "expected a deadlock report naming the stuck consumer, got: {message}"
    );
}
