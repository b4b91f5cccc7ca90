//! The structured tracing facade: a process-wide sink that receives each
//! finished [`StageSpan`](crate::stages::StageSpan) with its
//! stage/AP/client fields, and a ring-buffer subscriber.
//!
//! Tracing is **off by default** and costs one relaxed atomic load per
//! span when off — the hot path's only mandatory work is the histogram
//! observation a `StageSpan` records. When a sink is installed (a ring
//! buffer for tests and postmortems), finished spans are delivered to it
//! as [`SpanRecord`]s.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

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

#[cfg(test)]
mod tests {
    use super::*;

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
