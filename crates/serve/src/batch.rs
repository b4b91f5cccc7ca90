//! Request batching: coalescing localize requests that arrive close
//! together into one hand-off to a fusion worker, which fuses them back
//! to back on one warm scratch and the shared epoch engine.
//!
//! The batcher holds the first request of a batch for at most
//! [`BatchPolicy::window`], absorbing whatever else arrives in that window
//! (up to [`BatchPolicy::max_batch`]), and hands the group downstream as
//! one unit. Under light load the window is the
//! only added latency; under heavy load batches fill instantly and the
//! window never expires.

use crate::queue::Bounded;
use at_obs::metrics::{Gauge, Histogram, HistogramSnapshot};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Gauge reporting the coalescing window the batcher is currently using,
/// in seconds (moves only when adaptive batching is on).
pub(crate) const BATCH_WINDOW_GAUGE: &str = "at_serve_batch_window_seconds";

/// How aggressively localize requests are coalesced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Longest the first request of a batch waits for company. Bounds the
    /// latency cost of batching under light load.
    pub window: Duration,
    /// Most requests fused in one engine sweep. Bounds the latency cost of
    /// batching under heavy load (a request never waits behind more than
    /// `max_batch - 1` peers in its own batch).
    pub max_batch: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            window: Duration::from_millis(1),
            max_batch: 8,
        }
    }
}

impl BatchPolicy {
    /// Checks the policy: a batch holds at least one request.
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        if self.max_batch < 1 {
            return Err("a batch holds at least one request");
        }
        Ok(())
    }
}

/// Bounds and cadence of adaptive window sizing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptivePolicy {
    /// The floor the window decays to when the queue runs dry.
    pub min_window: Duration,
    /// The ceiling the window grows to under sustained backlog.
    pub max_window: Duration,
    /// Batches gathered between window recomputations (the controller
    /// needs a population of dwell samples, not single observations).
    pub period: u32,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        Self {
            min_window: Duration::from_micros(100),
            max_window: Duration::from_millis(4),
            period: 32,
        }
    }
}

impl AdaptivePolicy {
    /// Checks the policy: a non-zero period and an ordered window range.
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        if self.period < 1 {
            return Err("adaptive period must be at least 1 batch");
        }
        if self.min_window > self.max_window {
            return Err("adaptive window range is inverted");
        }
        Ok(())
    }
}

/// Sizes the coalescing window from the admission queue's observed dwell
/// distribution (the `serve_queue` stage histogram in `at-obs`).
///
/// Every [`AdaptivePolicy::period`] batches the controller takes the
/// dwell histogram's delta since its last decision and sets
/// `window = clamp(p50_dwell / 2, min_window, max_window)`:
///
/// - under light load a lone request dwells almost exactly one window
///   (the gather timeout is the only wait), so halving drives the window
///   down to `min_window` — batching stops taxing latency when there is
///   nothing to coalesce;
/// - under backlog dwell is queueing delay, far above the window, so the
///   window expands toward `max_window` and each engine sweep amortizes
///   over a fuller batch.
///
/// The active window is exported on the [`BATCH_WINDOW_GAUGE`] gauge.
#[derive(Debug)]
pub(crate) struct BatchController {
    policy: BatchPolicy,
    adaptive: Option<AdaptivePolicy>,
    dwell: Arc<Histogram>,
    gauge: Arc<Gauge>,
    batches: u32,
    prev: HistogramSnapshot,
}

impl BatchController {
    /// A controller starting from `policy`; a `None` adaptive policy
    /// pins the window (the controller becomes a pass-through). With
    /// adaptation on, the window starts at [`AdaptivePolicy::min_window`]
    /// rather than `policy.window`: a fresh server's first requests arrive
    /// one at a time, and each would otherwise sit out the full starting
    /// window before the first recomputation could shrink it. Both
    /// policies were checked by [`crate::ServeConfig::check`].
    pub(crate) fn new(mut policy: BatchPolicy, adaptive: Option<AdaptivePolicy>) -> Self {
        if let Some(a) = &adaptive {
            policy.window = a.min_window;
        }
        let dwell = at_obs::stages::stage_histogram(at_obs::stages::SERVE_QUEUE);
        let gauge = at_obs::metrics::global().gauge(BATCH_WINDOW_GAUGE, &[]);
        gauge.set(policy.window.as_secs_f64());
        let prev = dwell.snapshot();
        Self {
            policy,
            adaptive,
            dwell,
            gauge,
            batches: 0,
            prev,
        }
    }

    /// The policy to gather the next batch under.
    pub(crate) fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// Records one gathered batch and, at the adaptive period, re-derives
    /// the window from the dwell observed since the last decision.
    pub(crate) fn on_batch(&mut self) {
        let Some(adaptive) = self.adaptive else {
            return;
        };
        self.batches += 1;
        if self.batches < adaptive.period {
            return;
        }
        self.batches = 0;
        let cur = self.dwell.snapshot();
        if let Some(p50) = delta_quantile(&self.prev, &cur, 0.5) {
            let window = Duration::from_secs_f64((p50 / 2.0).clamp(
                adaptive.min_window.as_secs_f64(),
                adaptive.max_window.as_secs_f64(),
            ));
            self.policy.window = window;
            self.gauge.set(window.as_secs_f64());
        }
        self.prev = cur;
    }
}

/// Quantile of the observations recorded between two snapshots of the
/// same histogram; `None` when nothing was recorded in between.
fn delta_quantile(prev: &HistogramSnapshot, cur: &HistogramSnapshot, q: f64) -> Option<f64> {
    let delta = HistogramSnapshot {
        bounds: cur.bounds.clone(),
        counts: cur
            .counts
            .iter()
            .zip(&prev.counts)
            .map(|(c, p)| c.saturating_sub(*p))
            .collect(),
        sum: cur.sum - prev.sum,
        count: cur.count.saturating_sub(prev.count),
    };
    if delta.count == 0 {
        return None;
    }
    delta.quantile(q)
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
    fn adaptive_window_tracks_observed_dwell() {
        // One test drives both directions sequentially: the controller
        // and this test share the process-global dwell histogram, so
        // splitting them across concurrently-run tests would cross-feed.
        let adaptive = AdaptivePolicy {
            min_window: Duration::from_micros(100),
            max_window: Duration::from_millis(4),
            period: 2,
        };
        let mut ctl = BatchController::new(policy(1, 8), Some(adaptive));
        assert_eq!(ctl.policy().window, adaptive.min_window);
        let dwell = at_obs::stages::stage_histogram(at_obs::stages::SERVE_QUEUE);

        // Backlog: dwell ≈ 100 ms ⇒ the window expands to the cap.
        for _ in 0..64 {
            dwell.observe(0.1);
        }
        ctl.on_batch();
        ctl.on_batch();
        assert_eq!(ctl.policy().window, adaptive.max_window);

        // Quiet period (no dwell recorded): the window holds steady.
        ctl.on_batch();
        ctl.on_batch();
        assert_eq!(ctl.policy().window, adaptive.max_window);

        // Light load: dwell ≈ a few µs ⇒ the window decays to the floor.
        for _ in 0..64 {
            dwell.observe(1e-6);
        }
        ctl.on_batch();
        ctl.on_batch();
        assert_eq!(ctl.policy().window, adaptive.min_window);
    }

    #[test]
    fn pinned_window_never_moves() {
        let mut ctl = BatchController::new(policy(7, 8), None);
        for _ in 0..100 {
            ctl.on_batch();
        }
        assert_eq!(ctl.policy().window, Duration::from_millis(7));
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
