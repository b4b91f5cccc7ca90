//! In-memory span recording for the traced run, written out at the end.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; the program under test is not instrumented.
//! Each span has a name, start and end (ns since the tracer's origin), an
//! optional parent, and the request id it belongs to. A layer's self time
//! is its span minus the part of that interval its children cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: u32,
    /// Layer name, e.g. `dsp.detect`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Request (frame, fix or submit) the span belongs to.
    pub request: u64,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
}

/// An append-only span buffer; disabled tracers record nothing.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`; share the origin between
    /// tracers on different threads so their spans line up.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            origin,
            enabled,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserves an id for a span that will be closed later with
    /// [`Tracer::close`], so its children can name it as their parent.
    pub fn open(&mut self) -> u32 {
        self.next += 1;
        self.next
    }

    /// Records a span opened with [`Tracer::open`] that started at `start`.
    pub fn close(
        &mut self,
        id: u32,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        start: u64,
    ) {
        if self.enabled {
            let end = self.now();
            self.spans.push(Span {
                id,
                name,
                parent,
                request,
                start,
                end,
            });
        }
    }

    /// Times `f` as a child span of `parent`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.now();
        let out = f();
        let id = self.open();
        self.close(id, name, parent, request, start);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (ids are re-based to stay unique).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.next;
        for mut s in other.spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
        self.next += other.next;
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.request, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, in ns, in the order of `spans`: its duration
/// minus the union of its children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Self times grouped by span name, in microseconds.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name).or_default().push(t as f64 / 1e3);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            id,
            name: "x",
            parent,
            request: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0, 100) with children [10, 30) and [50, 60); the first
        // child has a grandchild [12, 20) that only reduces the child.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 60),
            span(4, Some(2), 12, 20),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
        // Self times of a tree sum to its root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),  // overlaps the first child
            span(4, Some(1), 90, 120), // runs past the parent's end
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 10);
    }

    #[test]
    fn tracer_records_parented_spans() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.open();
        let start = t.now();
        let v = t.span("child", Some(root), 7, || 41 + 1);
        t.close(root, "root", None, 7, start);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(root));
        assert_eq!(spans[1].id, root);
        assert!(spans[1].start <= spans[0].start && spans[0].end <= spans[1].end);

        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("child", None, 0, || 3), 3);
        assert!(off.spans().is_empty());
    }
}
