//! The per-stage latency budget: the paper's §4.4 table (detection /
//! spectrum / fusion) read out of a live [`MetricsSnapshot`] instead of
//! assumed, plus the tolerance comparison the CI bench-smoke gate runs.

use crate::snapshot::MetricsSnapshot;
use crate::stages;
use std::fmt;

/// Observed per-stage p50 latencies, milliseconds — the measured
/// counterpart of the paper's latency table (`Td` = detect, `Tp` =
/// spectrum + fusion).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyBudget {
    /// Preamble detection p50, ms (`Td`).
    pub detect_ms: f64,
    /// Frame → AoA spectrum p50, ms (MUSIC + weighting + symmetry).
    pub spectrum_ms: f64,
    /// Multi-AP fusion p50, ms (engine coarse-to-fine synthesis).
    pub fusion_ms: f64,
}

impl LatencyBudget {
    /// Reads the budget from a snapshot's `at_stage_seconds` histograms.
    /// Returns `None` if any of the three stages has no observations.
    pub fn from_snapshot(s: &MetricsSnapshot) -> Option<Self> {
        let p50_ms = |stage: &str| -> Option<f64> {
            s.histogram(stages::STAGE_SECONDS, &[("stage", stage)])?
                .p50()
                .map(|v| v * 1e3)
        };
        Some(Self {
            detect_ms: p50_ms(stages::DETECT)?,
            spectrum_ms: p50_ms(stages::SPECTRUM)?,
            fusion_ms: p50_ms(stages::FUSION)?,
        })
    }

    /// Server-side processing total, ms (the paper's `Tp`: everything after
    /// detection).
    pub fn processing_ms(&self) -> f64 {
        self.spectrum_ms + self.fusion_ms
    }

    /// The stage values in pipeline order: detect, spectrum, fusion.
    pub fn stage_ms(&self) -> [(&'static str, f64); 3] {
        [
            (stages::DETECT, self.detect_ms),
            (stages::SPECTRUM, self.spectrum_ms),
            (stages::FUSION, self.fusion_ms),
        ]
    }

    /// Gates this (observed) budget against a committed `baseline`: every
    /// stage must satisfy `observed <= baseline * tolerance + slack_ms`.
    /// `slack_ms` absorbs timer granularity on near-zero stages. Returns
    /// the list of violations (empty = pass).
    pub fn regressions_vs(
        &self,
        baseline: &LatencyBudget,
        tolerance: f64,
        slack_ms: f64,
    ) -> Vec<BudgetViolation> {
        assert!(tolerance >= 1.0, "tolerance is a multiplier >= 1");
        self.stage_ms()
            .iter()
            .zip(baseline.stage_ms())
            .filter_map(|(&(stage, got), (_, base))| {
                let limit = base * tolerance + slack_ms;
                (got > limit).then_some(BudgetViolation {
                    stage,
                    observed_ms: got,
                    baseline_ms: base,
                    limit_ms: limit,
                })
            })
            .collect()
    }
}

impl fmt::Display for LatencyBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "detect {:.3} ms | spectrum {:.3} ms | fusion {:.3} ms (Tp = {:.3} ms)",
            self.detect_ms,
            self.spectrum_ms,
            self.fusion_ms,
            self.processing_ms()
        )
    }
}

/// One stage exceeding its budget limit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BudgetViolation {
    /// Stage name.
    pub stage: &'static str,
    /// Observed p50, ms.
    pub observed_ms: f64,
    /// Committed baseline p50, ms.
    pub baseline_ms: f64,
    /// The gate limit that was exceeded, ms.
    pub limit_ms: f64,
}

impl fmt::Display for BudgetViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stage `{}` regressed: {:.3} ms observed > {:.3} ms limit (baseline {:.3} ms)",
            self.stage, self.observed_ms, self.limit_ms, self.baseline_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn registry_with_stages(detect: f64, spectrum: f64, fusion: f64) -> Registry {
        let r = Registry::new();
        for (stage, v) in [
            (stages::DETECT, detect),
            (stages::SPECTRUM, spectrum),
            (stages::FUSION, fusion),
        ] {
            r.histogram(stages::STAGE_SECONDS, &[("stage", stage)])
                .observe(v);
        }
        r
    }

    #[test]
    fn budget_reads_stage_histograms() {
        let r = registry_with_stages(20e-6, 0.9e-3, 1.1e-3);
        let b = LatencyBudget::from_snapshot(&r.snapshot()).expect("all stages present");
        // p50 of a single observation interpolates inside its 2^k bucket;
        // the estimate must be within one bucket (2x) of the truth.
        assert!(b.detect_ms > 0.01 && b.detect_ms < 0.04, "{b}");
        assert!(b.spectrum_ms > 0.45 && b.spectrum_ms < 1.8, "{b}");
        assert!((b.processing_ms() - b.spectrum_ms - b.fusion_ms).abs() < 1e-12);
    }

    #[test]
    fn missing_stage_yields_none() {
        let r = Registry::new();
        r.histogram(stages::STAGE_SECONDS, &[("stage", stages::DETECT)])
            .observe(1e-5);
        assert_eq!(LatencyBudget::from_snapshot(&r.snapshot()), None);
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let base = LatencyBudget {
            detect_ms: 0.02,
            spectrum_ms: 0.07,
            fusion_ms: 0.9,
        };
        let ok = LatencyBudget {
            detect_ms: 0.05,
            spectrum_ms: 0.2,
            fusion_ms: 2.6,
        };
        assert!(ok.regressions_vs(&base, 3.0, 0.05).is_empty());

        let bad = LatencyBudget {
            fusion_ms: 3.0,
            ..ok
        };
        let viol = bad.regressions_vs(&base, 3.0, 0.05);
        assert_eq!(viol.len(), 1);
        assert_eq!(viol[0].stage, stages::FUSION);
        assert!(viol[0].to_string().contains("regressed"));
    }

    #[test]
    fn slack_absorbs_timer_granularity() {
        let base = LatencyBudget {
            detect_ms: 0.0,
            spectrum_ms: 0.0,
            fusion_ms: 0.0,
        };
        let tiny = LatencyBudget {
            detect_ms: 0.01,
            spectrum_ms: 0.01,
            fusion_ms: 0.01,
        };
        assert!(tiny.regressions_vs(&base, 3.0, 0.05).is_empty());
        assert_eq!(tiny.regressions_vs(&base, 3.0, 0.0).len(), 3);
    }
}
