//! The client-side half of an asynchronous submission: a [`Ticket`] the
//! client polls or blocks on, and the server-side [`Completion`] that
//! fulfils it.
//!
//! Completion signalling rides on [`gcod_runtime::reactor::Event`], the
//! reactor's one-shot sticky completion cell: the dispatcher fills the
//! result slot, then sets the event, so a waiter can never observe "done"
//! without the result being readable. The wakeup protocol is the same
//! model-checked set-then-notify sequence the serving reactor itself uses.

use crate::error::{Result, ServeError};
use crate::request::ServeResponse;
use gcod_runtime::reactor::Event;
use gcod_runtime::sync::Mutex;
use std::sync::Arc;

struct TicketState {
    done: Event,
    result: Mutex<Option<Result<ServeResponse>>>,
}

/// A handle to one in-flight request, returned by `Handle::submit`.
///
/// # Contract
///
/// The ticket resolves **exactly once** — with the server's response, or
/// with the error that prevented execution (a rejection such as
/// [`RejectReason::DeadlineExpired`], [`ServeError::UnknownModel`], …) —
/// and every accessor takes `&self`, so a resolved ticket can be read any
/// number of times, from any thread, in any order:
///
/// * [`try_result`](Ticket::try_result) — non-blocking; `Some(outcome)`
///   once resolved, `None` while pending,
/// * [`wait`](Ticket::wait) — blocks until resolved and returns the
///   outcome.
///
/// Both agree: once either observes completion, so does the other, and
/// both return clones of the same stored outcome. Tickets are
/// `Clone`; clones share the same completion state.
///
/// [`RejectReason::DeadlineExpired`]: crate::RejectReason::DeadlineExpired
#[derive(Debug, Clone)]
pub struct Ticket {
    state: Arc<TicketState>,
}

impl std::fmt::Debug for TicketState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TicketState")
            .field("done", &self.done.is_set())
            .finish()
    }
}

impl Ticket {
    /// Blocks until the server resolves the ticket and returns the outcome.
    pub fn wait(&self) -> Result<ServeResponse> {
        self.state.done.wait();
        self.take_result()
    }

    /// Non-blocking probe: the outcome if resolved, `None` while pending.
    pub fn try_result(&self) -> Option<Result<ServeResponse>> {
        if self.state.done.is_set() {
            Some(self.take_result())
        } else {
            None
        }
    }

    /// Clones the stored outcome (the slot is filled exactly once before the
    /// event is set, so this never observes an empty slot after `done`).
    fn take_result(&self) -> Result<ServeResponse> {
        self.state
            .result
            .lock_unpoisoned()
            .clone()
            .unwrap_or(Err(ServeError::Canceled))
    }
}

/// The server-side write half of a ticket. Fulfils exactly once; dropping an
/// unfulfilled completion resolves the ticket with [`ServeError::Canceled`]
/// so a crashing dispatcher can never leave clients blocked forever.
#[derive(Debug)]
pub(crate) struct Completion {
    state: Arc<TicketState>,
    fulfilled: bool,
}

impl Completion {
    /// Resolves the ticket with `result`, waking every waiter.
    pub(crate) fn fulfill(mut self, result: Result<ServeResponse>) {
        self.fulfill_inner(result);
    }

    fn fulfill_inner(&mut self, result: Result<ServeResponse>) {
        if self.fulfilled {
            return;
        }
        self.fulfilled = true;
        *self.state.result.lock_unpoisoned() = Some(result);
        // Publish after the slot is filled: waiters wake through the event.
        self.state.done.set();
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if !self.fulfilled {
            self.fulfill_inner(Err(ServeError::Canceled));
        }
    }
}

/// Creates a linked ticket/completion pair.
pub(crate) fn ticket_pair() -> (Ticket, Completion) {
    let state = Arc::new(TicketState {
        done: Event::new(),
        result: Mutex::new(None),
    });
    (
        Ticket {
            state: Arc::clone(&state),
        },
        Completion {
            state,
            fulfilled: false,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Classification, ServeResponse};
    use gcod_nn::Tensor;
    use std::time::Duration;

    fn response() -> ServeResponse {
        ServeResponse::Classification(Classification {
            model: "m".into(),
            nodes: vec![0],
            classes: vec![1],
            logits: Tensor::zeros(1, 2),
        })
    }

    #[test]
    fn fulfilled_ticket_resolves_for_every_accessor() {
        let (ticket, completion) = ticket_pair();
        assert!(ticket.try_result().is_none());
        completion.fulfill(Ok(response()));
        assert_eq!(ticket.try_result().unwrap().unwrap(), response());
        // `wait` borrows: a resolved ticket can be read again and again.
        assert_eq!(ticket.wait().unwrap(), response());
        assert_eq!(ticket.wait().unwrap(), response());
    }

    #[test]
    fn wait_blocks_until_fulfilled_cross_thread() {
        let (ticket, completion) = ticket_pair();
        let waiter = std::thread::spawn(move || ticket.wait());
        std::thread::sleep(Duration::from_millis(10));
        completion.fulfill(Ok(response()));
        assert_eq!(waiter.join().unwrap().unwrap(), response());
    }

    #[test]
    fn clones_share_the_same_completion() {
        let (ticket, completion) = ticket_pair();
        let twin = ticket.clone();
        completion.fulfill(Ok(response()));
        assert_eq!(twin.wait().unwrap(), response());
        assert_eq!(ticket.wait().unwrap(), response());
    }

    #[test]
    fn dropped_completion_cancels_instead_of_hanging() {
        let (ticket, completion) = ticket_pair();
        drop(completion);
        assert_eq!(ticket.wait(), Err(ServeError::Canceled));
    }
}
