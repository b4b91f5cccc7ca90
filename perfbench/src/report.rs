//! The run's result: operation counts, correctness, and named metrics,
//! printed as one JSON object on the last line of standard output.

use crate::ap::FrameLog;
use crate::serving::Tally;
use std::fmt::Write as _;

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: frames, submits and fixes.
    pub attempted: u64,
    /// Operations that failed: refusals, errors, oracle mismatches, missed
    /// or misplaced detections.
    pub failed: u64,
    /// Failures that are wrong outputs (oracle mismatches and wrong
    /// detections) rather than refusals.
    pub mismatches: u64,
    /// The first failure seen, for the context line.
    pub first_error: Option<String>,
    metrics: Vec<(String, f64, &'static str)>,
    context: Vec<(&'static str, String)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds a context entry (printed on the line before the result).
    pub fn context(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.context.push((key, value.to_string()));
    }

    /// Counts a frame-path log: every frame is an operation, and a missed
    /// or misplaced detection is a wrong output.
    pub fn frames(&mut self, log: &FrameLog) {
        self.attempted += log.frames();
        self.failed += log.failed();
        self.mismatches += log.failed();
        if log.failed() > 0 {
            self.error(format!(
                "{} missed and {} misplaced detections",
                log.misses, log.wrong_offsets
            ));
        }
    }

    /// Counts a serving tally.
    pub fn tally(&mut self, t: &Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.mismatches += t.mismatches;
        if let Some(e) = &t.first_error {
            self.error(e.clone());
        }
    }

    /// Counts one wrong output found by a check that is not an operation.
    pub fn mismatch(&mut self, why: String) {
        self.failed += 1;
        self.mismatches += 1;
        self.error(why);
    }

    fn error(&mut self, why: String) {
        self.first_error.get_or_insert(why);
    }

    /// The context line and the result line, in print order.
    pub fn render(&self) -> Result<(String, String), String> {
        let mut ctx = String::from("{\"context\": {");
        for (i, (k, v)) in self.context.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(ctx, "{sep}\"{k}\": {}", json_value(v));
        }
        if let Some(e) = &self.first_error {
            let _ = write!(ctx, ", \"first_error\": {}", json_string(e));
        }
        ctx.push_str("}}");

        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.mismatches == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok((ctx, out))
    }
}

/// A context value: numbers and booleans as they are, anything else as a
/// JSON string.
fn json_value(v: &str) -> String {
    if v == "true" || v == "false" || v.parse::<f64>().is_ok_and(f64::is_finite) {
        v.to_string()
    } else {
        json_string(v)
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
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

    #[test]
    fn renders_the_result_contract() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.metric("latency_ms", 1.25, "ms");
        r.metric("setup_s", 0.5, "s");
        r.context("seed", 7);
        r.context("workload", "ap-frames");
        let (ctx, line) = r.render().expect("finite");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(
            ctx,
            "{\"context\": {\"seed\": 7, \"workload\": \"ap-frames\"}}"
        );

        r.mismatch("a \"quoted\" reason".into());
        let (ctx, line) = r.render().expect("finite");
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1,"));
        assert!(ctx.ends_with("\"first_error\": \"a \\\"quoted\\\" reason\"}}"));

        r.metric("bad", f64::NAN, "ms");
        assert!(r.render().is_err());
    }
}
