//! # at-obs — the ArrayTrack observability layer
//!
//! ArrayTrack's headline claim is system-level: ~100 ms added latency from
//! frame-on-air to location fix (paper §4.4). Holding that claim while the
//! system grows requires seeing *every* pipeline stage, all the time, at a
//! cost that is noise next to the stages themselves. This crate is the
//! zero-dependency layer the rest of the workspace records into:
//!
//! - [`metrics`] — a lock-free registry of counters, gauges, and
//!   fixed-bucket histograms (p50/p95/p99); hot-path recording is plain
//!   relaxed atomics, handles are cached per call site by the
//!   [`time_stage!`] / [`count!`] macros.
//! - [`trace`] — a structured tracing facade: spans with stage/AP/client
//!   fields, delivered to a ring-buffer subscriber or a JSON-lines sink.
//!   Off by default; one atomic load when off.
//! - [`snapshot`] — deterministic [`MetricsSnapshot`]s exportable as
//!   Prometheus text and JSON, with a human-readable diff.
//! - [`stages`] — the canonical stage names (Figure 1's flow) and the
//!   [`StageSpan`] RAII timer every instrumented site uses.
//! - [`budget`] — the measured per-stage latency budget (detection /
//!   spectrum / fusion, mirroring the paper's table) plus the tolerance
//!   gate `ci.sh`'s bench-smoke stage enforces against `BENCH_PERF.json`.
//!
//! Instrumentation lives in the crates that own each stage: `at-dsp`
//! (preamble detection), `at-core` (smoothing, eigendecomposition, scan,
//! suppression, fusion, server localize, health/fault counters),
//! `at-frontend` (capture buffers), and `at-testbed` (capture,
//! acquisition). See DESIGN.md §"Observability" for the naming scheme and
//! the measured overhead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod metrics;
pub mod names;
pub mod snapshot;
pub mod stages;
pub mod trace;

pub use budget::{BudgetViolation, LatencyBudget};
pub use metrics::{global, Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use snapshot::MetricsSnapshot;
pub use stages::StageSpan;
pub use trace::{clear_sink, set_sink, span, RingBufferSink, Span, SpanRecord, TraceSink};
