//! Canonical pipeline stage names and the one-liner stage timer every
//! instrumented call site uses.
//!
//! Stage names are the `stage` label of the shared
//! [`STAGE_SECONDS`] histogram family, mirroring Figure 1's information
//! flow: capture → preamble detection → (smoothing → eigendecomposition →
//! scan) = spectrum → suppression → fusion → localize. DESIGN.md
//! §"Observability" documents the scheme.

use crate::metrics::{global, Histogram};
use crate::trace::{deliver, tracing_enabled, SpanRecord};
use std::sync::Arc;
use std::time::Instant;

/// Histogram family every stage records into: `at_stage_seconds{stage=..}`.
pub const STAGE_SECONDS: &str = "at_stage_seconds";

/// Raw-sample capture at an AP front end (channel + radio simulation).
pub const CAPTURE: &str = "capture";
/// Preamble detection on the captured stream (§4.4's `Td`).
pub const DETECT: &str = "detect";
/// Spatial smoothing of the correlation matrix (§2.3.2).
pub const SMOOTHING: &str = "smoothing";
/// Eigendecomposition of the (smoothed) correlation matrix.
pub const MUSIC_EIG: &str = "music_eig";
/// MUSIC pseudospectrum scan over the steering continuum.
pub const MUSIC_SCAN: &str = "music_scan";
/// One full frame → AoA spectrum (`process_frame`: MUSIC + weighting +
/// symmetry; the paper table's "spectrum" stage).
pub const SPECTRUM: &str = "spectrum";
/// Multipath suppression across a frame group (§2.4).
pub const SUPPRESSION: &str = "suppression";
/// Spectra synthesis across APs (engine coarse-to-fine search, §2.5; the
/// paper table's "fusion" stage).
pub const FUSION: &str = "fusion";
/// One server-side localization request end to end (`try_localize`).
pub const LOCALIZE: &str = "localize";
/// One AP's full spectrum acquisition (capture + retries + processing).
pub const ACQUIRE: &str = "acquire";
/// One networked localize request end to end: frame receipt to reply
/// written (at-serve connection thread).
pub const SERVE_REQUEST: &str = "serve_request";
/// Admission-queue dwell plus batch gathering (at-serve batcher).
pub const SERVE_QUEUE: &str = "serve_queue";
/// One coalesced engine sweep over a batch of localize requests
/// (at-serve worker).
pub const SERVE_BATCH: &str = "serve_batch";

/// Every stage name, in pipeline order.
#[cfg(test)]
pub(crate) const ALL_STAGES: &[&str] = &[
    CAPTURE,
    DETECT,
    SMOOTHING,
    MUSIC_EIG,
    MUSIC_SCAN,
    SPECTRUM,
    SUPPRESSION,
    FUSION,
    LOCALIZE,
    ACQUIRE,
    SERVE_REQUEST,
    SERVE_QUEUE,
    SERVE_BATCH,
];

/// The `at_stage_seconds{stage=..}` histogram for a stage (registered on
/// first use). Call sites on the hot path should cache the handle — the
/// [`time_stage!`](crate::time_stage) macro does so via a per-site
/// `OnceLock`.
pub fn stage_histogram(stage: &'static str) -> Arc<Histogram> {
    global().histogram(STAGE_SECONDS, &[("stage", stage)])
}

/// An RAII stage timer: on drop it records the elapsed seconds into the
/// stage histogram (always) and emits a trace span (when a sink is
/// installed). The mandatory cost is two `Instant` reads and one lock-free
/// histogram observation.
#[derive(Debug)]
pub struct StageSpan {
    stage: &'static str,
    hist: Arc<Histogram>,
    fields: Vec<(&'static str, String)>,
    start: Instant,
}

impl StageSpan {
    /// Starts timing `stage` with a pre-resolved histogram handle.
    pub fn with_histogram(stage: &'static str, hist: Arc<Histogram>) -> Self {
        Self {
            stage,
            hist,
            fields: Vec::new(),
            start: Instant::now(),
        }
    }

    /// Starts timing `stage`, resolving the histogram through the registry
    /// (fine off the hot path).
    #[cfg(test)]
    pub(crate) fn new(stage: &'static str) -> Self {
        Self::with_histogram(stage, stage_histogram(stage))
    }

    /// Attaches a structured field to the trace span (no-op unless a sink
    /// is installed; the histogram is unaffected).
    pub fn field(mut self, key: &'static str, value: impl std::fmt::Display) -> Self {
        if tracing_enabled() {
            self.fields.push((key, value.to_string()));
        }
        self
    }
}

impl Drop for StageSpan {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.hist.observe(elapsed.as_secs_f64());
        if tracing_enabled() {
            let mut fields = std::mem::take(&mut self.fields);
            fields.insert(0, ("stage", self.stage.to_string()));
            deliver(SpanRecord {
                name: self.stage,
                fields,
                duration_ns: elapsed.as_nanos() as u64,
            });
        }
    }
}

/// Times the enclosing scope as pipeline stage `$stage` (a `&'static str`
/// stage name, usually one of this module's constants). The histogram
/// handle is resolved once per call site and cached in a `OnceLock`, so
/// the steady state never locks the registry. Optional `key => value`
/// pairs become trace-span fields.
///
/// ```
/// let _t = at_obs::time_stage!(at_obs::stages::FUSION, "aps" => 3);
/// ```
#[macro_export]
macro_rules! time_stage {
    ($stage:expr $(, $k:literal => $v:expr)* $(,)?) => {{
        static __HIST: std::sync::OnceLock<std::sync::Arc<$crate::metrics::Histogram>> =
            std::sync::OnceLock::new();
        let __h = __HIST.get_or_init(|| $crate::stages::stage_histogram($stage));
        #[allow(unused_mut)]
        let mut __s = $crate::stages::StageSpan::with_histogram($stage, __h.clone());
        $(__s = __s.field($k, $v);)*
        __s
    }};
}

/// Increments the counter `$name{$k=$v, ...}` by one, with the handle
/// cached per call site (labels must be string literals for the cache to
/// be sound).
#[macro_export]
macro_rules! count {
    ($name:expr $(, $k:literal => $v:literal)* $(,)?) => {{
        static __C: std::sync::OnceLock<std::sync::Arc<$crate::metrics::Counter>> =
            std::sync::OnceLock::new();
        __C.get_or_init(|| $crate::metrics::global().counter($name, &[$(($k, $v)),*]))
            .inc()
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_span_records_into_global_histogram() {
        let before = stage_histogram("unit_test_stage").snapshot().count;
        {
            let _t = StageSpan::new("unit_test_stage");
        }
        let after = stage_histogram("unit_test_stage").snapshot();
        assert_eq!(after.count, before + 1);
        assert!(after.sum >= 0.0);
    }

    #[test]
    fn time_stage_macro_caches_and_records() {
        for _ in 0..3 {
            let _t = crate::time_stage!("unit_macro_stage", "ap" => 1);
        }
        let s = stage_histogram("unit_macro_stage").snapshot();
        assert_eq!(s.count, 3);
    }

    #[test]
    fn count_macro_increments() {
        crate::count!("at_unit_events_total", "kind" => "x");
        crate::count!("at_unit_events_total", "kind" => "x");
        let s = crate::metrics::global().snapshot();
        assert_eq!(s.counter("at_unit_events_total", &[("kind", "x")]), Some(2));
    }

    #[test]
    fn all_stages_are_distinct() {
        let mut names = ALL_STAGES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_STAGES.len());
    }
}
