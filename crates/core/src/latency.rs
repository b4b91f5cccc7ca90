//! System latency accounting (paper §4.4, Fig. 21).
//!
//! The end-to-end latency from a frame hitting the air to a location
//! estimate decomposes into:
//!
//! | term | meaning                         | paper value            |
//! |------|---------------------------------|------------------------|
//! | `T`  | frame airtime                   | 222 µs – 12 ms         |
//! | `Td` | preamble detection              | 16 µs                  |
//! | `Tt` | WARP→PC serialization           | 2.56 ms at 1 Mbit/s    |
//! | `Tl` | WARP→PC bus latency             | ≈ 30 ms                |
//! | `Tp` | server-side processing          | ≈ 100 ms (Matlab/Xeon) |
//!
//! ArrayTrack only needs 10 preamble samples, so everything after `Td`
//! happens while the rest of the frame is still on the air; the added
//! latency from the end of the packet is `Td + Tt + Tl + Tp − T ≈ 100 ms`.
//!
//! # Model vs. measurement
//!
//! This module is the *prediction* side of the latency story; the
//! [`at_obs`] metrics layer is the *observation* side. The two meet in
//! [`LatencyModel::observed`], which fills `Td` and `Tp` from the
//! per-stage histograms the instrumented pipeline records
//! (`at_stage_seconds{stage=detect|spectrum|fusion}`, read out as an
//! [`at_obs::LatencyBudget`]) instead of assuming the paper's Matlab-era
//! numbers. The end-to-end test in `tests/obs_end_to_end.rs` asserts the
//! model's processing term agrees with wall-clock measurements of the same
//! stages within tolerance on the simulated testbed.

use at_obs::LatencyBudget;
use std::time::Duration;

/// Bits per complex sample shipped from AP to server (16-bit I + 16-bit Q).
pub(crate) const BITS_PER_SAMPLE: f64 = 32.0;

/// The latency budget of one ArrayTrack location fix.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Frame airtime `T`, seconds.
    pub airtime: f64,
    /// Preamble detection time `Td`, seconds (10 short + 2 long symbols).
    pub detection: f64,
    /// Sample serialization time `Tt`, seconds.
    pub transfer: f64,
    /// Bus latency `Tl`, seconds.
    pub bus: f64,
    /// Server processing time `Tp`, seconds.
    pub processing: f64,
}

impl LatencyModel {
    /// The paper's operating point for a given frame airtime and a measured
    /// (or assumed) processing time.
    pub fn paper_defaults(airtime: f64, processing: f64) -> Self {
        Self {
            airtime,
            detection: 16e-6,
            transfer: transfer_time(10, 8, 1.0e6),
            bus: 30e-3,
            processing,
        }
    }

    /// The paper's operating point with the detection and processing terms
    /// *measured* rather than assumed: `Td` from the observed preamble
    /// detection p50 and `Tp` from the observed spectrum + fusion p50s
    /// (an [`at_obs::LatencyBudget`], usually read from a live
    /// [`at_obs::MetricsSnapshot`] via [`LatencyBudget::from_snapshot`]).
    /// Transfer and bus terms keep the paper's WARP link values — the
    /// simulation has no serial link to measure.
    pub fn observed(airtime: f64, budget: &LatencyBudget) -> Self {
        Self {
            airtime,
            detection: budget.detect_ms * 1e-3,
            transfer: transfer_time(10, 8, 1.0e6),
            bus: 30e-3,
            processing: budget.processing_ms() * 1e-3,
        }
    }

    /// Total latency added beyond the end of the packet:
    /// `Td + Tt + Tl + Tp − T`, floored at zero (for very long frames the
    /// pipeline finishes before the frame does).
    pub fn added_latency(&self) -> Duration {
        let s =
            (self.detection + self.transfer + self.bus + self.processing - self.airtime).max(0.0);
        Duration::from_secs_f64(s)
    }
}

/// Airtime of a frame of `bytes` payload at `rate_bps`, plus the 20 µs
/// PLCP preamble+header (§4.4 quotes 222 µs for 1500 B at 54 Mbit/s).
pub fn frame_airtime(bytes: usize, rate_bps: f64) -> f64 {
    assert!(rate_bps > 0.0);
    20e-6 + bytes as f64 * 8.0 / rate_bps
}

/// Serialization time for shipping `samples` complex samples from `radios`
/// radios over a link of `link_bps` (paper eq. in §4.4: 2.56 ms for
/// 10 samples × 8 radios over 1 Mbit/s).
pub fn transfer_time(samples: usize, radios: usize, link_bps: f64) -> f64 {
    assert!(link_bps > 0.0);
    samples as f64 * BITS_PER_SAMPLE * radios as f64 / link_bps
}

/// Network overhead of continuous ArrayTrack operation at a given refresh
/// interval (paper §4.3.3: 0.0256 Mbit/s for 10 samples, 8 radios, 100 ms).
pub fn traffic_bps(samples: usize, radios: usize, refresh_s: f64) -> f64 {
    assert!(refresh_s > 0.0);
    samples as f64 * BITS_PER_SAMPLE * radios as f64 / refresh_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_airtime_range_reproduced() {
        // ~222 µs for 1500 B at 54 Mbit/s; ~12 ms at 1 Mbit/s.
        let fast = frame_airtime(1500, 54e6);
        let slow = frame_airtime(1500, 1e6);
        assert!((fast - 222e-6).abs() < 30e-6, "{fast}");
        assert!((slow - 12e-3).abs() < 0.1e-3, "{slow}");
    }

    #[test]
    fn paper_transfer_time_reproduced() {
        // (10 samples)(32 bits)(8 radios) / 1 Mbit/s = 2.56 ms.
        let tt = transfer_time(10, 8, 1.0e6);
        assert!((tt - 2.56e-3).abs() < 1e-9, "{tt}");
    }

    #[test]
    fn paper_traffic_overhead_reproduced() {
        // 0.0256 Mbit/s at a 100 ms refresh interval.
        let bps = traffic_bps(10, 8, 0.100);
        assert!((bps - 25_600.0).abs() < 1e-6, "{bps}");
    }

    #[test]
    fn added_latency_near_100ms_at_paper_point() {
        // 1500 B at 54 Mbit/s with a 100 ms processing stage (Matlab-era).
        let m = LatencyModel::paper_defaults(frame_airtime(1500, 54e6), 100e-3);
        let added = m.added_latency().as_secs_f64();
        assert!((added - 0.1323).abs() < 0.003, "{added}");
        // The paper's ≈100 ms summary excludes the 30 ms bus latency
        // ("total latency that ArrayTrack adds ... (excluding bus latency)").
        let without_bus = added - m.bus;
        assert!((without_bus - 0.102).abs() < 0.003, "{without_bus}");
    }

    #[test]
    fn long_frames_hide_the_pipeline() {
        // A 12 ms frame at 1 Mbit/s still can't hide a 130 ms pipeline, but
        // a hypothetical long frame would floor at zero.
        let m = LatencyModel {
            airtime: 1.0,
            detection: 16e-6,
            transfer: 2.56e-3,
            bus: 30e-3,
            processing: 0.1,
        };
        assert_eq!(m.added_latency(), Duration::ZERO);
    }

    #[test]
    fn observed_model_mirrors_budget() {
        let budget = LatencyBudget {
            detect_ms: 0.02,
            spectrum_ms: 0.08,
            fusion_ms: 0.9,
        };
        let m = LatencyModel::observed(frame_airtime(1500, 54e6), &budget);
        assert!((m.detection - 20e-6).abs() < 1e-12);
        assert!((m.processing - 0.98e-3).abs() < 1e-12);
        // This repo's measured pipeline beats the paper's 100 ms Matlab
        // processing budget by orders of magnitude, so the added latency is
        // dominated by the (unchanged) transfer + bus model terms.
        let added = m.added_latency().as_secs_f64();
        let matlab = LatencyModel::paper_defaults(m.airtime, 100e-3)
            .added_latency()
            .as_secs_f64();
        assert!(added < matlab);
        // 1e-9 tolerance: `Duration` quantizes to whole nanoseconds.
        assert!(
            (added - (m.detection + m.transfer + m.bus + m.processing - m.airtime)).abs() < 1e-9
        );
    }
}
