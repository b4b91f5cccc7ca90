//! Request batching: gathering localize requests that arrive close
//! together into one hand-off to a fusion worker. The worker still runs
//! one engine sweep per request, back to back on its warm scratch, so a
//! batch shares only the exec-queue hop and the worker's wake-up.
//!
//! The batcher holds the first request of a batch for at most
//! [`BatchPolicy::window`], absorbing whatever else arrives in that window
//! (up to [`BatchPolicy::max_batch`]), and hands the group downstream as
//! one unit. Under light load the window is the only added latency; under
//! heavy load batches fill instantly and the window never expires.

use crate::queue::Bounded;
use std::time::{Duration, Instant};

/// How localize requests are gathered into batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Longest the first request of a batch waits for company. Bounds the
    /// latency cost of batching under light load.
    pub window: Duration,
    /// Most requests handed to a worker as one job. Bounds the latency
    /// cost of batching under heavy load (a request never waits behind
    /// more than `max_batch - 1` peers in its own batch).
    pub max_batch: usize,
}

impl Default for BatchPolicy {
    /// A 100 µs window and at most 8 requests. The window is short because
    /// on the measured workloads every batch holds one request: waiting
    /// longer for company would only add latency.
    fn default() -> Self {
        Self {
            window: Duration::from_micros(100),
            max_batch: 8,
        }
    }
}

/// Pulls the next batch off `queue`: blocks for the first item, then
/// absorbs arrivals until the window closes or the batch is full. Returns
/// `None` once the queue is closed and drained — the batcher's exit
/// signal.
pub(crate) fn gather<T>(queue: &Bounded<T>, policy: &BatchPolicy) -> Option<Vec<T>> {
    let first = queue.pop()?;
    let mut batch = vec![first];
    let deadline = Instant::now() + policy.window;
    while batch.len() < policy.max_batch {
        let Some(left) = deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
        else {
            break;
        };
        match queue.pop_timeout(left) {
            Some(item) => batch.push(item),
            None => break,
        }
    }
    Some(batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(window_ms: u64, max_batch: usize) -> BatchPolicy {
        BatchPolicy {
            window: Duration::from_millis(window_ms),
            max_batch,
        }
    }

    #[test]
    fn gather_takes_what_is_queued() {
        let q = Bounded::new(8, "unit_batch");
        for i in 0..3 {
            q.try_push(i).unwrap();
        }
        let batch = gather(&q, &policy(5, 8)).unwrap();
        assert_eq!(batch, vec![0, 1, 2]);
    }

    #[test]
    fn gather_caps_at_max_batch() {
        let q = Bounded::new(8, "unit_batch_cap");
        for i in 0..6 {
            q.try_push(i).unwrap();
        }
        let batch = gather(&q, &policy(50, 4)).unwrap();
        assert_eq!(batch, vec![0, 1, 2, 3]);
        // The remainder stays for the next gather.
        assert_eq!(gather(&q, &policy(1, 4)).unwrap(), vec![4, 5]);
    }

    #[test]
    fn gather_returns_none_when_closed_and_drained() {
        let q: Bounded<u8> = Bounded::new(2, "unit_batch_close");
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(gather(&q, &policy(1, 8)).unwrap(), vec![7]);
        assert_eq!(gather(&q, &policy(1, 8)), None);
    }

    #[test]
    fn window_bounds_light_load_latency() {
        let q: Bounded<u8> = Bounded::new(2, "unit_batch_window");
        q.try_push(1).unwrap();
        let start = Instant::now();
        let batch = gather(&q, &policy(10, 8)).unwrap();
        assert_eq!(batch, vec![1]);
        // The single request waited roughly one window, not forever.
        assert!(start.elapsed() < Duration::from_millis(200));
    }
}
