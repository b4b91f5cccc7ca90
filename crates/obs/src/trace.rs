//! The structured tracing facade: spans with stage/AP/client fields and a
//! ring-buffer subscriber.
//!
//! Tracing is **off by default** and costs one relaxed atomic load per
//! span when off — the hot path's only mandatory work is the histogram
//! observation a [`StageSpan`](crate::stages::StageSpan) records. When a
//! sink is installed (a ring buffer for tests and postmortems), finished
//! spans are delivered to it as [`SpanRecord`]s.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// A finished span, as delivered to sinks.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Span (stage) name.
    pub name: &'static str,
    /// Structured fields (`ap`, `client`, `kind`, ...), in attach order.
    pub fields: Vec<(&'static str, String)>,
    /// Wall-clock duration of the span, nanoseconds.
    pub duration_ns: u64,
}

impl SpanRecord {
    /// One JSON object, no trailing newline.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"span\":\"{}\",\"duration_ns\":{}",
            self.name, self.duration_ns
        );
        for (k, v) in &self.fields {
            out.push_str(&format!(",\"{k}\":\"{}\"", v.replace('"', "\\\"")));
        }
        out.push('}');
        out
    }
}

/// Receives finished spans. Implementations must be cheap and non-blocking
/// enough for the pipeline hot path.
pub trait TraceSink: Send + Sync {
    /// Called once per finished span.
    fn record(&self, rec: SpanRecord);
}

/// A bounded in-memory ring of the most recent spans (postmortems, tests).
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    buf: Mutex<std::collections::VecDeque<SpanRecord>>,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` records (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer needs capacity");
        Self {
            capacity,
            buf: Mutex::new(std::collections::VecDeque::with_capacity(capacity)),
        }
    }

    /// A copy of the buffered records, oldest first.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.buf
            .lock()
            .expect("ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("ring poisoned").len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, rec: SpanRecord) {
        let mut buf = self.buf.lock().expect("ring poisoned");
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(rec);
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn TraceSink>>> = RwLock::new(None);

/// Installs (or replaces) the process-wide trace sink and enables span
/// delivery.
pub fn set_sink(sink: Arc<dyn TraceSink>) {
    *SINK.write().expect("sink poisoned") = Some(sink);
    ENABLED.store(true, Ordering::Release);
}

/// Removes the sink; spans go back to metrics-only (the default).
pub fn clear_sink() {
    ENABLED.store(false, Ordering::Release);
    *SINK.write().expect("sink poisoned") = None;
}

/// Whether a sink is installed (one relaxed load; the hot path's guard).
pub(crate) fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

pub(crate) fn deliver(rec: SpanRecord) {
    if let Some(sink) = SINK.read().expect("sink poisoned").as_ref() {
        sink.record(rec);
    }
}

/// An in-flight span. Create via [`span`]; it reports itself on drop.
/// Field formatting is skipped entirely when no sink is installed.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    fields: Vec<(&'static str, String)>,
    start: Instant,
}

/// Opens a span named `name`.
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        fields: Vec::new(),
        start: Instant::now(),
    }
}

impl Span {
    /// Attaches a structured field (no-op unless a sink is installed).
    #[cfg(test)]
    pub(crate) fn field(mut self, key: &'static str, value: impl std::fmt::Display) -> Self {
        if tracing_enabled() {
            self.fields.push((key, value.to_string()));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if tracing_enabled() {
            deliver(SpanRecord {
                name: self.name,
                fields: std::mem::take(&mut self.fields),
                duration_ns: self.start.elapsed().as_nanos() as u64,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace-sink state is process-global; serialize the tests that touch it.
    static GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn ring_buffer_evicts_oldest() {
        let ring = RingBufferSink::new(2);
        for i in 0..3 {
            ring.record(SpanRecord {
                name: "s",
                fields: vec![("i", i.to_string())],
                duration_ns: i,
            });
        }
        let recs = ring.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].duration_ns, 1);
        assert_eq!(recs[1].duration_ns, 2);
    }

    #[test]
    fn spans_deliver_to_installed_sink() {
        let _g = GUARD.lock().unwrap();
        let ring = Arc::new(RingBufferSink::new(8));
        set_sink(ring.clone());
        {
            let _s = span("unit_stage").field("ap", 3).field("client", 7);
        }
        clear_sink();
        let recs = ring.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, "unit_stage");
        assert_eq!(recs[0].fields[0], ("ap", "3".to_string()));
        assert_eq!(recs[0].fields[1], ("client", "7".to_string()));
    }

    #[test]
    fn disabled_tracing_skips_fields_and_delivery() {
        let _g = GUARD.lock().unwrap();
        clear_sink();
        let s = span("quiet").field("k", "v");
        assert!(s.fields.is_empty(), "fields must not materialize when off");
        drop(s);
        assert!(!tracing_enabled());
    }

    #[test]
    fn span_record_json_is_one_escaped_line() {
        let line = SpanRecord {
            name: "x",
            fields: vec![("stage", "eig \"q\"".to_string())],
            duration_ns: 42,
        }
        .to_json();
        assert_eq!(line.lines().count(), 1);
        assert!(line.contains("\"span\":\"x\""));
        assert!(line.contains("\"duration_ns\":42"));
        assert!(line.contains("\\\"q\\\""), "quotes escaped: {line}");
    }
}
