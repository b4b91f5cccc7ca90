//! Array geometry weighting (paper §2.3.3, eq. 7).
//!
//! A linear array's bearing resolution collapses near its own axis: the
//! derivative of the inter-element phase `π·cosθ` vanishes as `θ → 0°` or
//! `180°`. ArrayTrack therefore de-weights spectrum information near the
//! axis with the window
//!
//! ```text
//! W(θ) = 1      if 15° < |θ| < 165°
//!        sin θ  otherwise
//! ```
//!
//! extended symmetrically to the full circle (the axis pathology is the
//! same on both sides of the array).
//!
//! Beyond the geometry window, this module also hosts the *confidence*
//! reweighting used by the server's graceful-degradation policy
//! ([`confidence_weighted`]): a per-AP exponent on the normalized
//! pseudospectrum that interpolates between full trust and a flat
//! (fusion-neutral) factor for APs whose health is suspect.

use crate::spectrum::AoaSpectrum;
use std::f64::consts::PI;

/// Lower edge of the full-confidence region, radians (15°).
pub(crate) const INNER_EDGE: f64 = 15.0 * PI / 180.0;

/// The geometry window `W(θ)` for a bearing measured from the array axis,
/// evaluated on the folded angle so both mirror sides are treated alike.
pub fn geometry_weight(theta: f64) -> f64 {
    // Fold to [0, π]: the angular distance from the array axis.
    let folded = {
        let t = theta.rem_euclid(2.0 * PI);
        if t > PI {
            2.0 * PI - t
        } else {
            t
        }
    };
    if folded > INNER_EDGE && folded < PI - INNER_EDGE {
        1.0
    } else {
        folded.sin().abs()
    }
}

/// Applies the geometry window to a spectrum in place.
pub fn apply_geometry_weighting(spectrum: &mut AoaSpectrum) {
    spectrum.apply_window(geometry_weight);
}

/// Reweights a pseudospectrum by confidence `w ∈ [0, 1]` for fusion.
///
/// The synthesis likelihood is a product of per-AP factors (eq. 8), so
/// trusting an AP "half as much" means raising its (normalized) factor to
/// the power `w` — the standard log-linear tempering of a likelihood term:
///
/// - `w = 1`: returns the spectrum **unchanged** (bit-identical clone), so
///   the all-healthy fused path matches the fault-free path exactly;
/// - `w = 0`: returns a flat all-ones spectrum — a multiplicative identity
///   under peak-normalized fusion, so the AP is effectively excluded and
///   fusing `n` APs with `k` zero-weighted equals fusing only the other
///   `n - k` (the k-of-n proptest pins this equivalence down);
/// - `0 < w < 1`: normalizes to peak 1 and flattens by `P ↦ P^w`, keeping
///   the peak bearing but shrinking the dynamic range: the AP still votes,
///   but can no longer veto.
pub fn confidence_weighted(spectrum: &AoaSpectrum, w: f64) -> AoaSpectrum {
    assert!((0.0..=1.0).contains(&w), "confidence must be in [0, 1]");
    if w == 1.0 {
        return spectrum.clone();
    }
    if w == 0.0 {
        return AoaSpectrum::from_fn(spectrum.bins(), |_| 1.0);
    }
    let normalized = spectrum.normalized();
    AoaSpectrum::from_values(normalized.values().iter().map(|v| v.powf(w)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_region_is_unweighted() {
        for deg in [20.0f64, 45.0, 90.0, 120.0, 160.0] {
            assert_eq!(geometry_weight(deg.to_radians()), 1.0, "{deg}°");
        }
    }

    #[test]
    fn axis_endpoints_are_zeroed() {
        assert!(geometry_weight(0.0) < 1e-12);
        assert!(geometry_weight(PI) < 1e-12);
        assert!(geometry_weight(2.0 * PI - 1e-9) < 1e-6);
    }

    #[test]
    fn edge_region_follows_sine() {
        let t = 10f64.to_radians();
        assert!((geometry_weight(t) - t.sin()).abs() < 1e-12);
        let t2 = 170f64.to_radians();
        assert!((geometry_weight(t2) - t2.sin()).abs() < 1e-12);
    }

    #[test]
    fn window_is_mirror_symmetric() {
        for deg in [5.0f64, 30.0, 90.0, 170.0] {
            let t = deg.to_radians();
            let a = geometry_weight(t);
            let b = geometry_weight(2.0 * PI - t);
            assert!((a - b).abs() < 1e-12, "{deg}°");
        }
    }

    #[test]
    fn weight_is_continuous_at_edges() {
        // sin(15°) ≈ 0.259 jumps to 1.0 in the paper's formula — the window
        // as specified is discontinuous; verify we reproduce the spec
        // rather than smoothing it.
        let just_in = geometry_weight(15.1f64.to_radians());
        let just_out = geometry_weight(14.9f64.to_radians());
        assert_eq!(just_in, 1.0);
        assert!((just_out - 14.9f64.to_radians().sin()).abs() < 1e-12);
    }

    #[test]
    fn confidence_one_is_bit_identical() {
        let s = AoaSpectrum::from_fn(360, |t| (t.sin() + 1.1) * 0.7);
        let w = confidence_weighted(&s, 1.0);
        assert_eq!(s, w, "w = 1 must be the exact identity");
    }

    #[test]
    fn confidence_zero_is_flat_ones() {
        let s = AoaSpectrum::from_fn(360, |t| (-(t - 1.0).powi(2)).exp() + 1e-6);
        let w = confidence_weighted(&s, 0.0);
        assert!(w.values().iter().all(|&v| v == 1.0));
        assert_eq!(w.bins(), 360);
    }

    #[test]
    fn partial_confidence_flattens_but_keeps_peak() {
        let s = AoaSpectrum::from_fn(360, |t| (-((t - 2.0) / 0.2).powi(2)).exp() + 1e-3);
        let w = confidence_weighted(&s, 0.5);
        // Peak bearing unchanged.
        let p0 = s.find_peaks(0.5)[0];
        let p1 = w.find_peaks(0.5)[0];
        assert!((p0.theta - p1.theta).abs() < 1e-12);
        // Dynamic range shrinks: the off-peak floor rises relative to peak.
        let floor0 = s.normalized().sample(5.0);
        let floor1 = w.sample(5.0) / w.max_value();
        assert!(floor1 > floor0, "tempering must lift the floor");
        // Output stays finite and non-negative everywhere.
        assert!(w.values().iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    #[should_panic(expected = "confidence must be")]
    fn out_of_range_confidence_rejected() {
        let s = AoaSpectrum::from_fn(64, |_| 1.0);
        confidence_weighted(&s, 1.5);
    }

    #[test]
    fn applying_window_deweights_axis_peaks() {
        let mut s = AoaSpectrum::from_fn(360, |t| {
            // Peaks near 5° (axis) and 90° (broadside).
            (-((t - 0.087) / 0.1).powi(2)).exp() + (-((t - 1.571) / 0.1).powi(2)).exp() + 1e-6
        });
        apply_geometry_weighting(&mut s);
        let peaks = s.find_peaks(0.1);
        // The broadside peak must now dominate.
        assert!((peaks[0].theta - 1.571).abs() < 0.05);
    }
}
