//! Bounded MPMC queues with closing semantics — the server's admission
//! queue between connection threads and fusion workers.
//!
//! Each queue has a hard capacity, and producers never block:
//! `Bounded::try_push` fails fast so the caller can shed load with a
//! typed `Overloaded` frame instead of growing memory.
//!
//! Closing is drain-first: after `Bounded::close` producers are refused
//! but consumers keep popping until the queue is empty, which is exactly
//! the graceful-shutdown contract ("finish what was admitted, accept
//! nothing new"). Queue depth is exported continuously as the
//! `at_serve_queue_depth{queue=..}` gauge.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

struct Inner<T> {
    q: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue (mutex + condvar; the
/// hand-off rate here is thousands per second, far below contention).
pub(crate) struct Bounded<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    cap: usize,
    depth: Arc<at_obs::metrics::Gauge>,
}

impl<T> Bounded<T> {
    /// A queue holding at most `cap` items, exporting its depth under the
    /// gauge label `queue=label`.
    ///
    /// # Panics
    /// Panics if `cap` is zero.
    pub(crate) fn new(cap: usize, label: &'static str) -> Self {
        assert!(cap > 0, "a bounded queue needs capacity");
        Self {
            inner: Mutex::new(Inner {
                q: VecDeque::with_capacity(cap),
                closed: false,
            }),
            not_empty: Condvar::new(),
            cap,
            depth: at_obs::global().gauge("at_serve_queue_depth", &[("queue", label)]),
        }
    }

    /// Non-blocking push: `Err(item)` back immediately when the queue is
    /// full or closed. This is the admission-control edge — the caller
    /// decides what "refused" means (shed, retry, error frame).
    pub(crate) fn try_push(&self, item: T) -> Result<(), T> {
        let mut g = self.inner.lock().expect("queue poisoned");
        if g.closed || g.q.len() >= self.cap {
            return Err(item);
        }
        g.q.push_back(item);
        self.depth.set(g.q.len() as f64);
        drop(g);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking pop: waits for an item, returning `None` only once the
    /// queue is closed *and* drained.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut g = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = g.q.pop_front() {
                self.depth.set(g.q.len() as f64);
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.not_empty.wait(g).expect("queue poisoned");
        }
    }

    /// Closes the queue: producers are refused from now on, consumers
    /// drain what is already queued and then see `None`.
    pub(crate) fn close(&self) {
        let mut g = self.inner.lock().expect("queue poisoned");
        g.closed = true;
        drop(g);
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn try_push_sheds_when_full() {
        let q = Bounded::new(2, "unit_shed");
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
    }

    #[test]
    fn close_drains_then_stops() {
        let q = Bounded::new(4, "unit_drain");
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c"), Err("c"));
        // Consumers still see everything admitted before the close.
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q: Arc<Bounded<u8>> = Arc::new(Bounded::new(1, "unit_wake"));
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop())
        };
        thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }
}
