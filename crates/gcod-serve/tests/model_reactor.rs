//! Deterministic-interleaving model test for the serving dispatcher's
//! reactor wakeup protocol.
//!
//! The full `Server` is too heavy to model-check directly (every explored
//! execution would train models), so this test checks the *protocol
//! skeleton* the dispatcher in `gcod_serve::server` is built from: a
//! bounded [`SyncQueue`] of submissions whose tickets are sticky
//! [`Event`]s, a [`Reactor`] the submitters raise `EV_SUBMIT` on, and the
//! pop-until-empty / closed-check / `Reactor::wait` loop. Properties
//! proved on every schedule:
//!
//! * **no lost wakeup** — a submission pushed-then-raised is always
//!   executed; if the raise could be lost the dispatcher would block in
//!   `Reactor::wait` forever and the checker would report the stuck
//!   schedule as a deadlock;
//! * **drain-on-shutdown** — closing the queue and then the reactor, even
//!   racing in-flight submitters or the dispatcher's first pop of a
//!   pre-existing backlog, terminates the dispatcher with every *accepted*
//!   ticket resolved (and every rejected one untouched);
//! * **pause/park handshake** — the `paused`/`parked` condvar protocol
//!   (`Handle::pause` blocks until the dispatcher parks; the parked
//!   dispatcher blocks in `Reactor::wait` until `EV_CONTROL`) neither
//!   loses the park acknowledgement nor strands the dispatcher after
//!   resume.
//!
//! Build with `--features model` or `RUSTFLAGS='--cfg gcod_model'`; on a
//! plain build this file compiles to nothing.

#![cfg(any(feature = "model", gcod_model))]

use std::sync::Arc;

use gcod_runtime::reactor::Event;
use gcod_runtime::sync::model::Model;
use gcod_runtime::sync::{thread, Condvar, Mutex};
use gcod_runtime::{Reactor, SyncQueue};

/// The dispatcher's submit bit (mirrors `EV_SUBMIT` in `gcod_serve`).
const EV_SUBMIT: u64 = 1 << 0;
/// The dispatcher's control bit (mirrors `EV_CONTROL` in `gcod_serve`).
const EV_CONTROL: u64 = 1 << 1;

/// The dispatcher skeleton: pop greedily; on empty decide termination on
/// the queue's closed flag (re-popping once to absorb a submission racing
/// the close), otherwise block on the reactor. Exactly the loop in
/// `Server::dispatcher_loop`, with "execute" reduced to setting the
/// ticket's event.
fn dispatcher_loop(queue: &SyncQueue<Arc<Event>>, reactor: &Reactor) {
    loop {
        match queue.try_pop() {
            Some(ticket) => ticket.set(),
            None => {
                if queue.is_closed() {
                    if queue.is_empty() {
                        break;
                    }
                    continue;
                }
                let _wake = reactor.wait();
            }
        }
    }
}

/// Two submitters race the dispatcher: push-then-raise must never be lost,
/// on any schedule — every ticket resolves, and the dispatcher (woken only
/// through the reactor) terminates once the queue closes behind them.
#[test]
fn submit_wakeups_are_never_lost() {
    let report = Model {
        max_preemptions: 2,
        ..Model::default()
    }
    .check("serve-reactor-no-lost-submit", || {
        let queue = Arc::new(SyncQueue::bounded(4));
        let reactor = Arc::new(Reactor::new());
        let tickets: Vec<Arc<Event>> = (0..2).map(|_| Arc::new(Event::new())).collect();

        let dispatcher = {
            let queue = Arc::clone(&queue);
            let reactor = Arc::clone(&reactor);
            thread::spawn_named("dispatcher", move || dispatcher_loop(&queue, &reactor))
        };
        let submitters: Vec<_> = tickets
            .iter()
            .map(|ticket| {
                let queue = Arc::clone(&queue);
                let reactor = Arc::clone(&reactor);
                let ticket = Arc::clone(ticket);
                thread::spawn_named("submitter", move || {
                    queue.try_push(ticket).expect("queue sized for the test");
                    reactor.raise(EV_SUBMIT);
                })
            })
            .collect();
        for submitter in submitters {
            submitter.join().expect("submitter");
        }
        queue.close();
        reactor.close();
        dispatcher.join().expect("dispatcher");
        for ticket in &tickets {
            assert!(ticket.is_set(), "an accepted submission was never executed");
        }
    });
    assert!(
        report.interleavings >= 100,
        "expected meaningful schedule coverage, got {}",
        report.interleavings
    );
}

/// Shutdown races an in-flight submitter: whatever the schedule, the
/// dispatcher terminates, an accepted ticket resolves, and a rejected one
/// stays untouched — no schedule strands a client or the dispatcher.
#[test]
fn shutdown_drain_resolves_every_accepted_ticket() {
    let report = Model {
        max_preemptions: 2,
        ..Model::default()
    }
    .check("serve-reactor-drain-on-shutdown", || {
        let queue = Arc::new(SyncQueue::bounded(2));
        let reactor = Arc::new(Reactor::new());
        let ticket = Arc::new(Event::new());

        let dispatcher = {
            let queue = Arc::clone(&queue);
            let reactor = Arc::clone(&reactor);
            thread::spawn_named("dispatcher", move || dispatcher_loop(&queue, &reactor))
        };
        let submitter = {
            let queue = Arc::clone(&queue);
            let reactor = Arc::clone(&reactor);
            let ticket = Arc::clone(&ticket);
            thread::spawn_named("submitter", move || {
                let accepted = queue.try_push(ticket).is_ok();
                reactor.raise(EV_SUBMIT);
                accepted
            })
        };
        let closer = {
            let queue = Arc::clone(&queue);
            let reactor = Arc::clone(&reactor);
            thread::spawn_named("closer", move || {
                // Shutdown order matters: queue first (no new accepts, the
                // backlog stays poppable), then the reactor (wakes a
                // blocked dispatcher).
                queue.close();
                reactor.close();
            })
        };
        let accepted = submitter.join().expect("submitter");
        closer.join().expect("closer");
        dispatcher.join().expect("dispatcher");
        assert_eq!(
            ticket.is_set(),
            accepted,
            "accepted tickets must resolve; rejected tickets must not"
        );
    });
    assert!(
        report.interleavings >= 100,
        "expected meaningful schedule coverage, got {}",
        report.interleavings
    );
}

/// The backlog case: a submission accepted *before* the dispatcher thread
/// exists, with shutdown racing the dispatcher's very first pop. The close
/// may land before, between or after the pop and the closed-check; on every
/// schedule the queued ticket resolves and the dispatcher terminates.
#[test]
fn close_racing_the_first_pop_leaves_nothing_stranded() {
    Model::default().check("serve-reactor-close-races-first-pop", || {
        let queue = Arc::new(SyncQueue::bounded(2));
        let reactor = Arc::new(Reactor::new());
        let ticket = Arc::new(Event::new());
        queue
            .try_push(Arc::clone(&ticket))
            .expect("fresh queue accepts the submission");
        reactor.raise(EV_SUBMIT);

        let dispatcher = {
            let queue = Arc::clone(&queue);
            let reactor = Arc::clone(&reactor);
            thread::spawn_named("dispatcher", move || dispatcher_loop(&queue, &reactor))
        };
        let closer = {
            let queue = Arc::clone(&queue);
            let reactor = Arc::clone(&reactor);
            thread::spawn_named("closer", move || {
                queue.close();
                reactor.close();
            })
        };
        closer.join().expect("closer");
        dispatcher.join().expect("dispatcher");
        assert!(ticket.is_set(), "the queued ticket must resolve");
    });
}

/// The pause/park handshake: `pause()` (set `paused`, raise `EV_CONTROL`,
/// wait for the `parked` acknowledgement) rendezvouses with the dispatcher
/// park loop on every schedule, and `resume()` always un-parks it — no
/// lost acknowledgement, no stranded dispatcher, and the submission
/// accepted before the pause still resolves after it.
#[test]
fn pause_park_handshake_never_loses_the_acknowledgement() {
    struct Control {
        paused: bool,
        parked: bool,
    }
    let report = Model {
        max_preemptions: 2,
        ..Model::default()
    }
    .check("serve-reactor-pause-park", || {
        let queue = Arc::new(SyncQueue::<Arc<Event>>::bounded(2));
        let reactor = Arc::new(Reactor::new());
        let control = Arc::new((
            Mutex::new(Control {
                paused: true,
                parked: false,
            }),
            Condvar::new(),
        ));
        let ticket = Arc::new(Event::new());
        queue
            .try_push(Arc::clone(&ticket))
            .expect("queue sized for the test");

        // The dispatcher: park while paused (mirroring
        // `Shared::park_while_paused`), then drain and exit.
        let dispatcher = {
            let queue = Arc::clone(&queue);
            let reactor = Arc::clone(&reactor);
            let control = Arc::clone(&control);
            thread::spawn_named("dispatcher", move || {
                loop {
                    {
                        let (lock, changed) = &*control;
                        let mut state = lock.lock_unpoisoned();
                        if !state.paused || reactor.is_closed() {
                            state.parked = false;
                            break;
                        }
                        if !state.parked {
                            state.parked = true;
                            changed.notify_all();
                        }
                    }
                    let _wake = reactor.wait();
                }
                dispatcher_loop(&queue, &reactor);
            })
        };
        // The client: block until the park is acknowledged, then resume.
        let pauser = {
            let reactor = Arc::clone(&reactor);
            let control = Arc::clone(&control);
            thread::spawn_named("pauser", move || {
                {
                    let (lock, changed) = &*control;
                    let mut state = lock.lock_unpoisoned();
                    while !state.parked {
                        state = changed.wait(state);
                    }
                    state.paused = false;
                }
                control.1.notify_all();
                reactor.raise(EV_CONTROL);
            })
        };
        pauser.join().expect("pauser");
        queue.close();
        reactor.close();
        dispatcher.join().expect("dispatcher");
        assert!(ticket.is_set(), "the pre-pause submission must still run");
    });
    assert!(
        report.interleavings >= 100,
        "expected meaningful schedule coverage, got {}",
        report.interleavings
    );
}
