//! A closeable multi-producer/multi-consumer queue with optional capacity.
//!
//! [`SyncQueue`] is the one queue primitive of the workspace: the worker
//! [`Pool`](crate::Pool) drains an unbounded instance for its job feed
//! (`close` is the pool's shutdown signal), and the `gcod-serve` front-end
//! uses a bounded instance as its request submission queue — `try_push`
//! returning [`PushError::Full`] is precisely the queue-full backpressure a
//! loaded server reports to its clients.
//!
//! The queue is deliberately condvar-based (no lock-free cleverness): every
//! consumer blocks on `not_empty`, every bounded producer on `not_full`, and
//! [`SyncQueue::close`] wakes both sides so nothing sleeps through shutdown.
//! Items already queued at close time remain poppable — consumers drain the
//! backlog and only then observe the closed state, which is what lets a
//! server shut down gracefully without dropping accepted work.

use crate::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::Duration;

/// Why a push was rejected; the item (or batch) is handed back untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushError<P> {
    /// The queue is at capacity (bounded queues only). Retry later or treat
    /// as backpressure.
    Full(P),
    /// The queue was closed; no further items are accepted.
    Closed(P),
}

impl<P> PushError<P> {
    /// The rejected item (or batch), regardless of the reason.
    pub fn into_inner(self) -> P {
        match self {
            PushError::Full(p) | PushError::Closed(p) => p,
        }
    }
}

/// Outcome of a [`SyncQueue::pop_timeout`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PopTimeout<T> {
    /// An item was popped.
    Item(T),
    /// The timeout elapsed with the queue open but empty.
    TimedOut,
    /// The queue is closed and fully drained; no item will ever arrive.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A blocking MPMC queue with optional capacity and close-to-shut-down
/// semantics (see the `queue` module docs).
pub struct SyncQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: Option<usize>,
}

impl<T> std::fmt::Debug for SyncQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock_unpoisoned();
        f.debug_struct("SyncQueue")
            .field("len", &inner.items.len())
            .field("capacity", &self.capacity)
            .field("closed", &inner.closed)
            .finish()
    }
}

impl<T> Default for SyncQueue<T> {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl<T> SyncQueue<T> {
    /// A queue without a capacity limit: pushes only fail after
    /// [`close`](SyncQueue::close).
    pub fn unbounded() -> Self {
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: None,
        }
    }

    /// A queue holding at most `capacity` items (clamped to at least 1);
    /// pushes beyond it report [`PushError::Full`].
    pub fn bounded(capacity: usize) -> Self {
        Self {
            capacity: Some(capacity.max(1)),
            ..Self::unbounded()
        }
    }

    /// The capacity limit, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock_unpoisoned().items.len()
    }

    /// Whether the queue currently holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`close`](SyncQueue::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock_unpoisoned().closed
    }

    /// Closes the queue: every later push is rejected with
    /// [`PushError::Closed`], already-queued items stay poppable, and all
    /// blocked producers and consumers are woken. Idempotent.
    pub fn close(&self) {
        let mut inner = self.inner.lock_unpoisoned();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn has_space(&self, inner: &Inner<T>, incoming: usize) -> bool {
        self.capacity
            .map(|cap| inner.items.len() + incoming <= cap)
            .unwrap_or(true)
    }

    /// Pushes without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] after [`close`](SyncQueue::close),
    /// [`PushError::Full`] when a bounded queue is at capacity; the item is
    /// returned inside the error either way.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock_unpoisoned();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if !self.has_space(&inner, 1) {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pushes, blocking while a bounded queue is at capacity.
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] when the queue is (or becomes, while waiting)
    /// closed; the item is returned inside the error.
    pub fn push_blocking(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock_unpoisoned();
        loop {
            if inner.closed {
                return Err(PushError::Closed(item));
            }
            if self.has_space(&inner, 1) {
                inner.items.push_back(item);
                drop(inner);
                self.not_empty.notify_one();
                return Ok(());
            }
            inner = self.not_full.wait(inner);
        }
    }

    /// Pushes a whole batch atomically (all items become visible to
    /// consumers together) and wakes every blocked consumer.
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] after close, [`PushError::Full`] when a bounded
    /// queue cannot absorb the entire batch; the untouched batch is returned
    /// inside the error — partial pushes never happen.
    pub(crate) fn push_many(&self, items: Vec<T>) -> Result<(), PushError<Vec<T>>> {
        if items.is_empty() {
            return Ok(());
        }
        let mut inner = self.inner.lock_unpoisoned();
        if inner.closed {
            return Err(PushError::Closed(items));
        }
        if !self.has_space(&inner, items.len()) {
            return Err(PushError::Full(items));
        }
        inner.items.extend(items);
        drop(inner);
        self.not_empty.notify_all();
        Ok(())
    }

    /// Pops without blocking; `None` when the queue is currently empty
    /// (whether or not it is closed).
    pub fn try_pop(&self) -> Option<T> {
        let mut inner = self.inner.lock_unpoisoned();
        let item = inner.items.pop_front();
        if item.is_some() {
            drop(inner);
            self.not_full.notify_one();
        }
        item
    }

    /// Pops, blocking until an item arrives; `None` once the queue is closed
    /// **and** fully drained (the consumer's signal to exit).
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock_unpoisoned();
        loop {
            if let Some(item) = inner.items.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner);
        }
    }

    /// Pops, blocking at most `timeout`; distinguishes an elapsed timeout
    /// from the closed-and-drained terminal state so polling consumers can
    /// interleave queue draining with control-flag checks.
    pub fn pop_timeout(&self, timeout: Duration) -> PopTimeout<T> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.inner.lock_unpoisoned();
        loop {
            if let Some(item) = inner.items.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return PopTimeout::Item(item);
            }
            if inner.closed {
                return PopTimeout::Closed;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return PopTimeout::TimedOut;
            }
            let (guard, timed_out) = self.not_empty.wait_timeout(inner, deadline - now);
            inner = guard;
            if timed_out && inner.items.is_empty() && !inner.closed {
                return PopTimeout::TimedOut;
            }
        }
    }

    /// Removes and returns everything currently queued, waking blocked
    /// producers.
    pub fn drain(&self) -> Vec<T> {
        let mut inner = self.inner.lock_unpoisoned();
        let items: Vec<T> = inner.items.drain(..).collect();
        drop(inner);
        self.not_full.notify_all();
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_len() {
        let q = SyncQueue::unbounded();
        assert!(q.is_empty());
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        let popped: Vec<i32> = std::iter::from_fn(|| q.try_pop()).collect();
        assert_eq!(popped, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bounded_queue_reports_full_and_returns_the_item() {
        let q = SyncQueue::bounded(2);
        assert_eq!(q.capacity(), Some(2));
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        let err = q.try_push("c").unwrap_err();
        assert_eq!(err, PushError::Full("c"));
        // Popping frees a slot.
        assert_eq!(q.try_pop(), Some("a"));
        q.try_push("c").unwrap();
    }

    #[test]
    fn close_rejects_pushes_but_drains_backlog() {
        let q = SyncQueue::unbounded();
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.try_push(3), Err(PushError::Closed(3)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        // Closed and drained: pop returns None instead of blocking.
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_many_is_all_or_nothing() {
        let q = SyncQueue::bounded(3);
        q.try_push(0).unwrap();
        let err = q.push_many(vec![1, 2, 3]).unwrap_err();
        assert_eq!(err, PushError::Full(vec![1, 2, 3]));
        assert_eq!(q.len(), 1, "a failed batch must push nothing");
        q.push_many(vec![1, 2]).unwrap();
        assert_eq!(q.len(), 3);
        q.close();
        assert_eq!(q.push_many(vec![9]), Err(PushError::Closed(vec![9])));
    }

    #[test]
    fn pop_blocks_until_an_item_arrives() {
        let q = Arc::new(SyncQueue::unbounded());
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                q.try_push(42).unwrap();
            })
        };
        assert_eq!(q.pop(), Some(42));
        producer.join().unwrap();
    }

    #[test]
    fn push_blocking_waits_for_space() {
        let q = Arc::new(SyncQueue::bounded(1));
        q.try_push(1).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_blocking(2))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop(), Some(1));
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn push_blocking_unblocks_on_close() {
        let q = Arc::new(SyncQueue::bounded(1));
        q.try_push(1).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_blocking(2))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(producer.join().unwrap(), Err(PushError::Closed(2)));
    }

    #[test]
    fn pop_timeout_distinguishes_timeout_from_closed() {
        let q: SyncQueue<u8> = SyncQueue::unbounded();
        assert_eq!(
            q.pop_timeout(Duration::from_millis(10)),
            PopTimeout::TimedOut
        );
        q.try_push(7).unwrap();
        assert_eq!(
            q.pop_timeout(Duration::from_millis(10)),
            PopTimeout::Item(7)
        );
        q.close();
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), PopTimeout::Closed);
    }

    #[test]
    fn drain_empties_the_queue() {
        let q = SyncQueue::unbounded();
        q.push_many(vec![1, 2, 3]).unwrap();
        assert_eq!(q.drain(), vec![1, 2, 3]);
        assert!(q.is_empty());
        assert_eq!(q.drain(), Vec::<i32>::new());
    }

    #[test]
    fn many_producers_one_consumer() {
        let q = Arc::new(SyncQueue::bounded(4));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..25 {
                        q.push_blocking(p * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        let mut seen = Vec::new();
        while seen.len() < 100 {
            if let Some(v) = q.pop() {
                seen.push(v);
            }
        }
        for producer in producers {
            producer.join().unwrap();
        }
        seen.sort_unstable();
        let expected: Vec<i32> = (0..4)
            .flat_map(|p| (0..25).map(move |i| p * 100 + i))
            .collect();
        assert_eq!(seen, expected);
    }
}
