//! Point-in-time metric snapshots, exportable as Prometheus text
//! exposition format and JSON, plus the snapshot diff the CI gate prints.

use crate::metrics::{MetricId, MetricValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A deterministic copy of every metric in a [`crate::metrics::Registry`]
/// at one instant, ordered by [`MetricId`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All series, sorted by name then labels.
    pub entries: BTreeMap<MetricId, MetricValue>,
}

impl MetricsSnapshot {
    /// Looks up a series by name and labels.
    pub(crate) fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        let id = MetricId {
            name: name.to_string(),
            labels,
        };
        self.entries.get(&id)
    }

    /// Counter value of a series, if present and a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.get(name, labels)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram state of a series, if present and a histogram.
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<&crate::metrics::HistogramSnapshot> {
        match self.get(name, labels)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Prometheus text exposition format (one `# TYPE` line per metric
    /// name, histograms expanded into `_bucket`/`_sum`/`_count` series
    /// with cumulative `le` buckets).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for (id, value) in &self.entries {
            if id.name != last_name {
                let kind = match value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {} {kind}", id.name);
                last_name = &id.name;
            }
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{} {v}", id.canonical());
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{} {v}", id.canonical());
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, &c) in h.counts.iter().enumerate() {
                        cum += c;
                        let le = if i < h.bounds.len() {
                            format_float(h.bounds[i])
                        } else {
                            "+Inf".to_string()
                        };
                        let _ = writeln!(
                            out,
                            "{} {cum}",
                            with_label(&id.name, "_bucket", &id.labels, Some(("le", &le)))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{} {}",
                        with_label(&id.name, "_sum", &id.labels, None),
                        format_float(h.sum)
                    );
                    let _ = writeln!(
                        out,
                        "{} {}",
                        with_label(&id.name, "_count", &id.labels, None),
                        h.count
                    );
                }
            }
        }
        out
    }

    /// JSON object keyed by the canonical series name; histograms carry
    /// bounds, counts, sum, count, and the three headline quantiles.
    /// Deterministic: keys appear in [`MetricId`] order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        for (id, value) in &self.entries {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(out, "  {}: ", json_string(&id.canonical()));
            match value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "{v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "{}", format_float(*v));
                }
                MetricValue::Histogram(h) => {
                    let bounds: Vec<String> = h.bounds.iter().map(|b| format_float(*b)).collect();
                    let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
                    let _ = write!(
                        out,
                        "{{ \"bounds\": [{}], \"counts\": [{}], \"sum\": {}, \"count\": {}, \
                         \"p50\": {}, \"p95\": {}, \"p99\": {} }}",
                        bounds.join(", "),
                        counts.join(", "),
                        format_float(h.sum),
                        h.count,
                        json_opt(h.p50()),
                        json_opt(h.p95()),
                        json_opt(h.p99()),
                    );
                }
            }
        }
        out.push_str("\n}\n");
        out
    }

    /// Human-readable diff against an older snapshot: one line per series
    /// whose value changed, `name: old -> new`. Histograms diff by count
    /// and p50. Series only present on one side are listed as added or
    /// removed. Returns an empty string when nothing changed.
    pub fn diff(&self, older: &MetricsSnapshot) -> String {
        let mut out = String::new();
        for (id, new) in &self.entries {
            match older.entries.get(id) {
                None => {
                    let _ = writeln!(out, "+ {}: {}", id.canonical(), summarize(new));
                }
                Some(old) if old != new => {
                    let _ = writeln!(
                        out,
                        "~ {}: {} -> {}",
                        id.canonical(),
                        summarize(old),
                        summarize(new)
                    );
                }
                Some(_) => {}
            }
        }
        for id in older.entries.keys() {
            if !self.entries.contains_key(id) {
                let _ = writeln!(out, "- {}", id.canonical());
            }
        }
        out
    }
}

fn summarize(v: &MetricValue) -> String {
    match v {
        MetricValue::Counter(c) => c.to_string(),
        MetricValue::Gauge(g) => format_float(*g),
        MetricValue::Histogram(h) => format!(
            "count={} p50={}",
            h.count,
            h.p50().map_or("n/a".into(), format_float)
        ),
    }
}

fn with_label(
    name: &str,
    suffix: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
) -> String {
    let mut pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        format!("{name}{suffix}")
    } else {
        format!("{name}{suffix}{{{}}}", pairs.join(","))
    }
}

/// Formats a float compactly but losslessly enough for export (shortest
/// round-trip via `{}`; integers keep no trailing `.0` per JSON norms).
fn format_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or("null".into(), format_float)
}

/// Escapes a string for JSON.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample() -> MetricsSnapshot {
        let r = Registry::new();
        r.counter("at_events_total", &[("kind", "ok")]).add(3);
        r.gauge("at_load", &[]).set(0.5);
        let h = r.histogram_with("at_lat_seconds", &[("stage", "x")], &[0.001, 0.01, 0.1]);
        h.observe(0.005);
        h.observe(0.005);
        h.observe(0.5);
        r.snapshot()
    }

    #[test]
    fn prometheus_export_is_valid_and_cumulative() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE at_events_total counter"));
        assert!(text.contains("at_events_total{kind=\"ok\"} 3"));
        assert!(text.contains("# TYPE at_lat_seconds histogram"));
        // Cumulative buckets: 0, 2, 2, then +Inf picks up the overflow.
        assert!(text.contains("at_lat_seconds_bucket{stage=\"x\",le=\"0.001\"} 0"));
        assert!(text.contains("at_lat_seconds_bucket{stage=\"x\",le=\"0.01\"} 2"));
        assert!(text.contains("at_lat_seconds_bucket{stage=\"x\",le=\"0.1\"} 2"));
        assert!(text.contains("at_lat_seconds_bucket{stage=\"x\",le=\"+Inf\"} 3"));
        assert!(text.contains("at_lat_seconds_count{stage=\"x\"} 3"));
        assert!(text.contains("at_load 0.5"));
        // Every line is either a comment or `series value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# TYPE ") || line.split(' ').count() == 2,
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn json_export_is_deterministic_and_parsable_shape() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b, "snapshot export must be deterministic");
        assert!(a.contains("\"at_events_total{kind=\\\"ok\\\"}\": 3"));
        assert!(a.contains("\"p50\":"));
        // Balanced braces/brackets (cheap structural validity check).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                a.matches(open).count(),
                a.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn diff_reports_changes_only() {
        let r = Registry::new();
        let c = r.counter("at_n_total", &[]);
        c.inc();
        let before = r.snapshot();
        assert_eq!(before.diff(&before), "");
        c.add(4);
        r.gauge("at_new", &[]).set(1.0);
        let after = r.snapshot();
        let d = after.diff(&before);
        assert!(d.contains("~ at_n_total: 1 -> 5"), "{d}");
        assert!(d.contains("+ at_new: 1"), "{d}");
    }

    #[test]
    fn lookup_by_unsorted_labels() {
        let r = Registry::new();
        r.counter("at_c", &[("b", "2"), ("a", "1")]).inc();
        let s = r.snapshot();
        assert_eq!(s.counter("at_c", &[("a", "1"), ("b", "2")]), Some(1));
        assert_eq!(s.counter("at_c", &[("a", "1")]), None);
    }
}
