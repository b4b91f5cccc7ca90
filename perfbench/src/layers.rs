//! Per-layer metrics of the traced run, computed from the recorded spans
//! plus the counters read from the server and the process.

use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::{self_times_by_name, Span};
use std::collections::HashMap;

/// Layer self times reported as `<name>.us_p50`.
const SELF_TIME_LAYERS: &[&str] = &[
    "dsp.detect",
    "dsp.rxx",
    "core.pipeline.inrow",
    "core.smoothing",
    "linalg.eig",
    "core.steering.scan",
    "core.symmetry",
    "core.suppression",
    "serve.codec.compress",
    "serve.codec.decompress",
    "serve.store.snapshot",
    "serve.store.submit",
    "core.pipeline.plan",
];

/// Counters the traced run reads outside the spans.
#[derive(Default)]
pub struct Counters {
    /// Frames whose detection was missed or misplaced.
    pub detect_misses: u64,
    /// Mean compressed blob size of the frame path, bytes.
    pub codec_bytes_per_spectrum: f64,
    /// Sessions the server evicted under cap pressure.
    pub cap_evictions: u64,
    /// Highest resident-spectra count sampled from the server.
    pub resident_max: u64,
    /// Localize requests the server shed.
    pub shed: u64,
    /// Fixes the server produced during the timed phase.
    pub fixes: u64,
    /// `serve_batch` executions during the timed phase.
    pub batches: u64,
    /// Process allocations per fix during the untraced timed segment.
    pub allocs_per_fix: f64,
    /// Process allocations per operation during the untraced timed segment.
    pub allocs_per_op: f64,
    /// Workload latency p50 traced ÷ untraced.
    pub trace_overhead: f64,
}

fn durations_by_request(spans: &[Span], name: &str) -> HashMap<u64, f64> {
    let mut out = HashMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.request).or_insert(0.0) += (s.end - s.start) as f64;
    }
    out
}

/// For every request holding both an `outer` span and an `inner` span,
/// the outer span's duration minus the inner span's children (the
/// in-process layer sum), in ms.
pub fn handoffs(spans: &[Span], outer: &str, inner: &str) -> Vec<f64> {
    let inner_ids: HashMap<u32, u64> = spans
        .iter()
        .filter(|s| s.name == inner)
        .map(|s| (s.id, s.request))
        .collect();
    let mut layer_sum: HashMap<u64, f64> = HashMap::new();
    for s in spans {
        if let Some(req) = s.parent.and_then(|p| inner_ids.get(&p)) {
            *layer_sum.entry(*req).or_insert(0.0) += (s.end - s.start) as f64;
        }
    }
    let mut out: Vec<f64> = durations_by_request(spans, outer)
        .into_iter()
        .filter_map(|(req, d)| layer_sum.get(&req).map(|l| (d - l) / 1e6))
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

fn p50_of(by_name: &std::collections::BTreeMap<&str, Vec<f64>>, name: &str) -> Result<f64, String> {
    by_name
        .get(name)
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .ok_or_else(|| format!("the traced run recorded no {name} span"))
}

/// Adds every per-layer metric to `report`.
pub fn report(report: &mut Report, spans: &[Span], c: &Counters) -> Result<(), String> {
    let by_name = self_times_by_name(spans);
    for name in SELF_TIME_LAYERS {
        report.metric(format!("{name}.us_p50"), p50_of(&by_name, name)?, "us");
    }
    report.metric("dsp.detect.misses", c.detect_misses as f64, "count");

    // The frame waterfall: the share of all frame time that the layer
    // spans cover. Totals, not medians, so that suppression and compress,
    // which run on one frame in three, count at their true rate.
    let frame_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "ap.frame")
        .map(|s| (s.end - s.start) as f64 / 1e3)
        .collect();
    if frame_us.is_empty() {
        return Err("the traced run recorded no ap.frame span".into());
    }
    let frame_self: f64 = by_name["ap.frame"].iter().sum();
    let frame_total: f64 = frame_us.iter().sum();
    report.metric("ap.frame.us_p50", median(&frame_us), "us");
    report.metric("ap.frame.self.us_p50", p50_of(&by_name, "ap.frame")?, "us");
    report.metric(
        "ap.layers_over_frame",
        1.0 - frame_self / frame_total,
        "ratio",
    );

    report.metric(
        "serve.codec.bytes_per_spectrum",
        c.codec_bytes_per_spectrum,
        "B",
    );
    let decode = durations_by_request(spans, "serve.proto.decode");
    let encode = durations_by_request(spans, "serve.proto.encode");
    let proto_us: Vec<f64> = decode
        .iter()
        .filter_map(|(req, d)| encode.get(req).map(|e| (d + e) / 1e3))
        .collect();
    if proto_us.is_empty() {
        return Err("the traced run recorded no proto spans".into());
    }
    report.metric("serve.proto.us_p50", median(&proto_us), "us");
    report.metric(
        "core.engine.sweep.ms_p50",
        p50_of(&by_name, "core.engine.sweep")? / 1e3,
        "ms",
    );
    report.metric("serve.store.cap_evictions", c.cap_evictions as f64, "count");
    report.metric("serve.store.resident_max", c.resident_max as f64, "count");

    let fix = handoffs(spans, "client.fix", "inproc.fix");
    let submit = handoffs(spans, "client.submit", "inproc.submit");
    if fix.is_empty() || submit.is_empty() {
        return Err("the traced run paired no fix or no submit".into());
    }
    report.metric("serve.handoff.ms_p50", median(&fix), "ms");
    report.metric("serve.handoff.ms_p95", percentile(&fix, 95.0), "ms");
    report.metric("serve.submit_handoff.ms_p50", median(&submit), "ms");
    report.metric("serve.shed", c.shed as f64, "count");
    report.metric(
        "serve.batch.requests_per_batch",
        c.fixes as f64 / c.batches.max(1) as f64,
        "ratio",
    );
    report.metric("process.allocs_per_fix", c.allocs_per_fix, "count");
    report.metric("process.allocs_per_op", c.allocs_per_op, "count");
    report.metric("trace.overhead_ratio", c.trace_overhead, "ratio");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        start: u64,
        end: u64,
    ) -> Span {
        Span {
            id,
            name,
            parent,
            request,
            start,
            end,
        }
    }

    #[test]
    fn handoff_is_rtt_minus_the_layer_sum() {
        let ms = 1_000_000;
        let spans = [
            // Request 1: 5 ms on the wire, 2 + 1 ms of layers in-process.
            span(1, "client.fix", None, 1, 0, 5 * ms),
            span(2, "inproc.fix", None, 1, 6 * ms, 10 * ms),
            span(3, "core.engine.sweep", Some(2), 1, 6 * ms, 8 * ms),
            span(4, "serve.proto.decode", Some(2), 1, 8 * ms, 9 * ms),
            // Request 2 has no in-process twin and is not paired.
            span(5, "client.fix", None, 2, 0, ms),
        ];
        assert_eq!(handoffs(&spans, "client.fix", "inproc.fix"), vec![2.0]);
    }
}
