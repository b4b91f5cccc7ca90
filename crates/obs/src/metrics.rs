//! The lock-free metrics registry: counters, gauges, and fixed-bucket
//! histograms with p50/p95/p99 estimation.
//!
//! Hot-path operations ([`Counter::inc`], [`Gauge::set`],
//! [`Histogram::observe`]) are plain atomic read-modify-writes — no locks,
//! no allocation. The registry itself takes a short write lock only on
//! first registration of a metric; instrumented call sites cache the
//! returned `Arc` handle (see the [`count!`](crate::count!) /
//! [`time_stage!`](crate::time_stage!) macros), so steady-state recording
//! never touches the registry map at all.
//!
//! Naming scheme (see DESIGN.md §"Observability"): metric names are
//! `at_`-prefixed snake case with unit suffixes (`_seconds`, `_total`),
//! labels are static lowercase keys (`stage`, `kind`, `reason`, `ap`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonically increasing event counter.
///
/// The underlying value is a `u64` that **wraps on overflow** (the
/// semantics of `AtomicU64::fetch_add`); consumers that diff snapshots
/// must treat an observed decrease as a wrap or a process restart, exactly
/// as Prometheus clients do.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n` (wrapping on `u64` overflow).
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-written-wins floating-point gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (compare-and-swap loop; lock-free).
    pub(crate) fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram: cumulative-free per-bucket counts plus a
/// running sum, all atomics.
///
/// Bucket `i` counts observations `v <= bounds[i]` and `> bounds[i-1]`;
/// one extra overflow bucket counts `v > bounds.last()`.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    sum: Gauge,
    count: Counter,
}

/// Default duration buckets, seconds: powers of two from 1 µs to ≈ 8.4 s.
/// Wide enough for every pipeline stage (a MUSIC frame is ~10⁻⁴ s, a cold
/// exhaustive localize ~10⁻² s) with ≤ 2× relative quantile error.
pub(crate) fn duration_buckets() -> Vec<f64> {
    (0..24).map(|k| 1e-6 * f64::powi(2.0, k)).collect()
}

impl Histogram {
    /// A histogram over the given ascending, finite bucket upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty, unsorted, or non-finite.
    pub(crate) fn with_buckets(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly ascending"
        );
        let mut counts = Vec::with_capacity(bounds.len() + 1);
        counts.resize_with(bounds.len() + 1, AtomicU64::default);
        Self {
            bounds: bounds.to_vec(),
            counts,
            sum: Gauge::default(),
            count: Counter::default(),
        }
    }

    /// Records one observation (lock-free: one atomic add per call plus
    /// the sum CAS).
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.add(v);
        self.count.inc();
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.get(),
            count: self.count.get(),
        }
    }
}

/// An immutable copy of a [`Histogram`], with quantile estimation.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (ascending, finite).
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `counts[bounds.len()]` is the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimated quantile `q ∈ [0, 1]` by linear interpolation inside the
    /// containing bucket (the Prometheus `histogram_quantile` rule). The
    /// overflow bucket clamps to the last finite bound. Returns `None` on
    /// an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return None;
        }
        let rank = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev = cum;
            cum += c;
            if (cum as f64) >= rank && c > 0 {
                if i >= self.bounds.len() {
                    return Some(*self.bounds.last().expect("non-empty bounds"));
                }
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let frac = (rank - prev as f64) / c as f64;
                return Some(lo + (hi - lo) * frac.clamp(0.0, 1.0));
            }
        }
        Some(*self.bounds.last().expect("non-empty bounds"))
    }

    /// Median estimate.
    pub(crate) fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub(crate) fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub(crate) fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// A metric identity: name plus sorted label pairs. Orders by name, then
/// labels, so snapshots iterate deterministically.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// Metric name (`at_*` snake case).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }

    /// Canonical `name{k="v",...}` form (Prometheus series syntax).
    pub(crate) fn canonical(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let pairs: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        format!("{}{{{}}}", self.name, pairs.join(","))
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A point-in-time value of one metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Full histogram state.
    Histogram(HistogramSnapshot),
}

/// The registry: owns every metric in the process (or a scoped test
/// instance). Registration is lock-guarded and idempotent; recording
/// through the returned handles is lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<MetricId, Metric>>,
}

impl Registry {
    /// An empty registry (tests use scoped instances; production code uses
    /// [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (registering on first use) the counter `name{labels}`.
    ///
    /// # Panics
    /// Panics if the series is already registered as a different type.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let id = MetricId::new(name, labels);
        if let Metric::Counter(c) = self.get_or_insert(id, || Metric::Counter(Arc::default())) {
            return c;
        }
        panic!("metric {name} already registered with a different type");
    }

    /// Returns (registering on first use) the gauge `name{labels}`.
    ///
    /// # Panics
    /// Panics if the series is already registered as a different type.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let id = MetricId::new(name, labels);
        if let Metric::Gauge(g) = self.get_or_insert(id, || Metric::Gauge(Arc::default())) {
            return g;
        }
        panic!("metric {name} already registered with a different type");
    }

    /// Returns (registering on first use) the duration histogram
    /// `name{labels}` with the default buckets.
    ///
    /// # Panics
    /// Panics if the series is already registered as a different type.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram_with(name, labels, &duration_buckets())
    }

    /// Returns (registering on first use) a histogram with explicit bucket
    /// bounds. Bounds are fixed by whoever registers first.
    ///
    /// # Panics
    /// Panics if the series is already registered as a different type.
    pub(crate) fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        let id = MetricId::new(name, labels);
        if let Metric::Histogram(h) = self.get_or_insert(id, || {
            Metric::Histogram(Arc::new(Histogram::with_buckets(bounds)))
        }) {
            return h;
        }
        panic!("metric {name} already registered with a different type");
    }

    fn get_or_insert(&self, id: MetricId, make: impl FnOnce() -> Metric) -> Metric {
        if let Some(m) = self.metrics.read().expect("registry poisoned").get(&id) {
            return m.clone();
        }
        let mut map = self.metrics.write().expect("registry poisoned");
        map.entry(id).or_insert_with(make).clone()
    }

    /// A deterministic point-in-time snapshot of every registered metric,
    /// ordered by [`MetricId`].
    pub fn snapshot(&self) -> crate::snapshot::MetricsSnapshot {
        let map = self.metrics.read().expect("registry poisoned");
        let entries = map
            .iter()
            .map(|(id, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (id.clone(), v)
            })
            .collect();
        crate::snapshot::MetricsSnapshot { entries }
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every pipeline stage records into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_wraps_on_overflow() {
        let c = Counter::default();
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), 0, "counters wrap, matching AtomicU64::fetch_add");
        c.add(5);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::default();
        g.set(1.5);
        g.add(2.25);
        assert_eq!(g.get(), 3.75);
        g.add(-5.0);
        assert_eq!(g.get(), -1.25);
    }

    #[test]
    fn histogram_bucket_boundaries_are_le() {
        // Bounds [1, 2, 4]: a value exactly on a bound lands in that
        // bucket (`le` semantics), strictly-greater spills to the next.
        let h = Histogram::with_buckets(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.0001, 2.0, 4.0, 4.0001, 1e9] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 1, 2]);
        assert_eq!(s.count, 7);
        let expected_sum = 0.5 + 1.0 + 1.0001 + 2.0 + 4.0 + 4.0001 + 1e9;
        assert!((s.sum - expected_sum).abs() < 1e-6);
    }

    #[test]
    fn quantiles_interpolate_within_bucket() {
        let h = Histogram::with_buckets(&[1.0, 2.0, 3.0, 4.0]);
        // 100 observations uniform over (0, 4]: 25 per bucket.
        for i in 0..100 {
            h.observe(0.04 * (i + 1) as f64);
        }
        let s = h.snapshot();
        // p50 rank = 50 → end of bucket 2 (cum 25, 50): interpolates to 2.0.
        assert!((s.p50().unwrap() - 2.0).abs() < 1e-12);
        // p95 rank = 95 → bucket (3, 4], 20/25 through it: 3.8.
        assert!((s.p95().unwrap() - 3.8).abs() < 1e-12);
        assert!((s.quantile(0.0).unwrap() - 0.0).abs() < 1e-12);
        assert!((s.quantile(1.0).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_clamps_overflow_bucket() {
        let h = Histogram::with_buckets(&[1.0, 2.0]);
        h.observe(100.0);
        let s = h.snapshot();
        assert_eq!(s.p50(), Some(2.0), "overflow clamps to last bound");
        assert_eq!(s.p99(), Some(2.0));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let s = Histogram::with_buckets(&duration_buckets()).snapshot();
        assert_eq!(s.p50(), None);
    }

    #[test]
    fn duration_buckets_cover_stage_range() {
        let b = duration_buckets();
        assert_eq!(b.len(), 24);
        assert_eq!(b[0], 1e-6);
        assert!(*b.last().unwrap() > 8.0, "covers multi-second stages");
    }

    #[test]
    fn registry_is_idempotent_and_typed() {
        let r = Registry::new();
        let a = r.counter("at_x_total", &[("k", "v")]);
        let b = r.counter("at_x_total", &[("k", "v")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same series → same handle");
        assert_eq!(r.counter("at_x_total", &[("k", "w")]).get(), 0);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_conflicts_rejected() {
        let r = Registry::new();
        r.counter("at_y", &[]);
        r.gauge("at_y", &[]);
    }

    #[test]
    fn metric_id_canonical_sorts_labels() {
        let id = MetricId::new("at_z", &[("b", "2"), ("a", "1")]);
        assert_eq!(id.canonical(), "at_z{a=\"1\",b=\"2\"}");
        assert_eq!(MetricId::new("at_z", &[]).canonical(), "at_z");
    }
}
