//! Angle-of-arrival spectra: the central data structure of ArrayTrack.
//!
//! An AoA spectrum (paper Fig. 3) estimates incoming signal power as a
//! function of bearing. We represent it as a uniformly sampled function on
//! `[0, 2π)` measured from the array axis. Spectra from a plain linear
//! array are mirror-symmetric about the axis (the paper's "180° spectrum
//! mirrored to 360°", §2.3.4) until symmetry removal resolves the side.

use at_channel::geometry::angle_diff;
use std::f64::consts::TAU;

/// A peak in an AoA spectrum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Peak {
    /// Bearing of the peak, radians from the array axis in `[0, 2π)`.
    pub theta: f64,
    /// Spectrum value at the peak.
    pub power: f64,
}

/// A sampled AoA (pseudo)spectrum over the full circle.
#[derive(Clone, Debug, PartialEq)]
pub struct AoaSpectrum {
    values: Vec<f64>,
}

impl AoaSpectrum {
    /// Builds a spectrum from uniformly spaced samples starting at bearing 0.
    ///
    /// # Panics
    /// Panics if fewer than 8 bins or any value is not finite/non-negative.
    pub fn from_values(values: Vec<f64>) -> Self {
        assert!(
            values.len() >= 8,
            "a spectrum needs a reasonable resolution"
        );
        assert!(
            values.iter().all(|v| v.is_finite() && *v >= 0.0),
            "spectrum values must be finite and non-negative"
        );
        Self { values }
    }

    /// Builds a spectrum by evaluating `f(θ)` at `bins` uniform bearings.
    pub fn from_fn(bins: usize, mut f: impl FnMut(f64) -> f64) -> Self {
        Self::from_values((0..bins).map(|i| f(i as f64 * TAU / bins as f64)).collect())
    }

    /// Number of angular bins.
    pub fn bins(&self) -> usize {
        self.values.len()
    }

    /// Angular resolution in radians.
    pub(crate) fn resolution(&self) -> f64 {
        TAU / self.bins() as f64
    }

    /// The bearing of bin `i`.
    pub fn theta_of(&self, i: usize) -> f64 {
        i as f64 * self.resolution()
    }

    /// Raw sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable sample values (used by the multipath-suppression and
    /// symmetry-removal passes).
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Linear interpolation of the spectrum at an arbitrary bearing.
    pub fn sample(&self, theta: f64) -> f64 {
        let n = self.bins() as f64;
        let pos = (theta.rem_euclid(TAU)) / TAU * n;
        let i = pos.floor() as usize % self.bins();
        let j = (i + 1) % self.bins();
        let frac = pos - pos.floor();
        self.values[i] * (1.0 - frac) + self.values[j] * frac
    }

    /// Maximum spectrum value.
    pub fn max_value(&self) -> f64 {
        self.values.iter().cloned().fold(0.0, f64::max)
    }

    /// Normalizes the spectrum to peak 1 (no-op for all-zero spectra).
    pub fn normalized(&self) -> AoaSpectrum {
        let m = self.max_value();
        if m == 0.0 {
            return self.clone();
        }
        AoaSpectrum {
            values: self.values.iter().map(|v| v / m).collect(),
        }
    }

    /// In-place equivalent of `*self = src.normalized()` for same-length
    /// spectra: overwrites this spectrum's bins with `src` normalized to
    /// peak 1, reusing the existing allocation. Bit-identical values to
    /// [`Self::normalized`] (same per-bin division, same all-zero
    /// fallback) — scratch arenas rely on that.
    ///
    /// # Panics
    /// Panics if the bin counts differ.
    pub(crate) fn copy_normalized_from(&mut self, src: &AoaSpectrum) {
        assert_eq!(
            self.values.len(),
            src.values.len(),
            "in-place normalize needs matching resolutions"
        );
        let m = src.max_value();
        if m == 0.0 {
            self.values.copy_from_slice(&src.values);
            return;
        }
        for (d, v) in self.values.iter_mut().zip(&src.values) {
            *d = v / m;
        }
    }

    /// Finds local maxima at least `rel_threshold` × the global maximum,
    /// sorted by descending power. Adjacent bins are compared circularly.
    pub fn find_peaks(&self, rel_threshold: f64) -> Vec<Peak> {
        let n = self.bins();
        let max = self.max_value();
        if max == 0.0 {
            return Vec::new();
        }
        let floor = max * rel_threshold;
        let mut peaks = Vec::new();
        for i in 0..n {
            let v = self.values[i];
            if v < floor {
                continue;
            }
            let prev = self.values[(i + n - 1) % n];
            let next = self.values[(i + 1) % n];
            // Strict rise on one side avoids double-counting flat tops.
            if v > prev && v >= next {
                peaks.push(Peak {
                    theta: self.theta_of(i),
                    power: v,
                });
            }
        }
        peaks.sort_by(|a, b| b.power.partial_cmp(&a.power).expect("finite powers"));
        peaks
    }

    /// Whether any peak lies within `tol` radians of `theta`.
    pub fn has_peak_near(&self, theta: f64, tol: f64, rel_threshold: f64) -> bool {
        self.find_peaks(rel_threshold)
            .iter()
            .any(|p| angle_diff(p.theta, theta) <= tol)
    }

    /// Removes the peak at bin index nearest `theta`: walks downhill to the
    /// surrounding local minima and levels that span to the minimum value.
    /// Implements "remove peaks from the primary" (§2.4 step 2).
    pub(crate) fn remove_peak(&mut self, theta: f64) {
        let n = self.bins();
        let center = ((theta.rem_euclid(TAU)) / self.resolution()).round() as usize % n;
        // Walk to the local max near the requested bearing first (the
        // caller's peak estimate may be a bin or two off).
        let mut apex = center;
        loop {
            let up = (apex + 1) % n;
            let down = (apex + n - 1) % n;
            if self.values[up] > self.values[apex] {
                apex = up;
            } else if self.values[down] > self.values[apex] {
                apex = down;
            } else {
                break;
            }
        }
        // Walk downhill each way to the local minima.
        let mut left = apex;
        while self.values[(left + n - 1) % n] < self.values[left] {
            left = (left + n - 1) % n;
            if left == apex {
                break; // safety for pathological single-lobe spectra
            }
        }
        let mut right = apex;
        while self.values[(right + 1) % n] < self.values[right] {
            right = (right + 1) % n;
            if right == apex {
                break;
            }
        }
        let fill = self.values[left].min(self.values[right]);
        let mut i = left;
        loop {
            self.values[i] = self.values[i].min(fill);
            if i == right {
                break;
            }
            i = (i + 1) % n;
        }
    }

    /// Scales the lobe containing the peak nearest `theta` by `factor`:
    /// walks to the apex, then downhill to the surrounding local minima,
    /// multiplying every bin in that span. Used by per-peak symmetry
    /// resolution to attenuate a mirror ghost without a hard zero.
    pub fn scale_lobe(&mut self, theta: f64, factor: f64) {
        assert!((0.0..=1.0).contains(&factor), "factor must be in [0, 1]");
        let n = self.bins();
        let center = ((theta.rem_euclid(TAU)) / self.resolution()).round() as usize % n;
        let mut apex = center;
        loop {
            let up = (apex + 1) % n;
            let down = (apex + n - 1) % n;
            if self.values[up] > self.values[apex] {
                apex = up;
            } else if self.values[down] > self.values[apex] {
                apex = down;
            } else {
                break;
            }
        }
        let mut left = apex;
        while self.values[(left + n - 1) % n] < self.values[left] {
            left = (left + n - 1) % n;
            if left == apex {
                break;
            }
        }
        let mut right = apex;
        while self.values[(right + 1) % n] < self.values[right] {
            right = (right + 1) % n;
            if right == apex {
                break;
            }
        }
        let mut i = left;
        loop {
            self.values[i] *= factor;
            if i == right {
                break;
            }
            i = (i + 1) % n;
        }
    }

    /// Multiplies the spectrum by a bearing-dependent window.
    pub(crate) fn apply_window(&mut self, w: impl Fn(f64) -> f64) {
        for i in 0..self.bins() {
            let theta = self.theta_of(i);
            self.values[i] *= w(theta);
        }
    }

    /// Total power on the `[0, π)` side vs. the `[π, 2π)` side of the
    /// array axis (for symmetry removal, §2.3.4).
    #[cfg(test)]
    pub(crate) fn side_powers(&self) -> (f64, f64) {
        let n = self.bins();
        let mut up = 0.0;
        let mut down = 0.0;
        for i in 0..n {
            let theta = self.theta_of(i);
            if theta < std::f64::consts::PI {
                up += self.values[i];
            } else {
                down += self.values[i];
            }
        }
        (up, down)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// A smooth two-lobe test spectrum with peaks at 60° and 200°.
    fn two_lobe() -> AoaSpectrum {
        AoaSpectrum::from_fn(360, |t| {
            let l1 = (-((t - 60f64.to_radians()) / 0.2).powi(2)).exp();
            let l2 = 0.5 * (-((t - 200f64.to_radians()) / 0.15).powi(2)).exp();
            l1 + l2 + 1e-4
        })
    }

    #[test]
    fn sampling_interpolates_circularly() {
        let s = AoaSpectrum::from_fn(8, |t| t.cos() + 2.0);
        // Interpolation between last bin and bin 0 wraps.
        let v = s.sample(TAU - s.resolution() / 2.0);
        let expect = (s.values()[7] + s.values()[0]) / 2.0;
        assert!((v - expect).abs() < 1e-12);
        // Sampling beyond 2π wraps too.
        assert!((s.sample(TAU + 0.1) - s.sample(0.1)).abs() < 1e-12);
        assert!((s.sample(-0.1) - s.sample(TAU - 0.1)).abs() < 1e-12);
    }

    #[test]
    fn peaks_found_and_ordered() {
        let peaks = two_lobe().find_peaks(0.1);
        assert_eq!(peaks.len(), 2);
        assert!((peaks[0].theta - 60f64.to_radians()).abs() < 0.02);
        assert!((peaks[1].theta - 200f64.to_radians()).abs() < 0.02);
        assert!(peaks[0].power > peaks[1].power);
    }

    #[test]
    fn threshold_filters_weak_peaks() {
        let peaks = two_lobe().find_peaks(0.8);
        assert_eq!(peaks.len(), 1);
    }

    #[test]
    fn has_peak_near_respects_tolerance() {
        let s = two_lobe();
        assert!(s.has_peak_near(60f64.to_radians(), 0.05, 0.1));
        assert!(!s.has_peak_near(120f64.to_radians(), 0.05, 0.1));
        // Circular: peak at 1° found near 359°.
        let edge = AoaSpectrum::from_fn(360, |t| (-((t - 0.02) / 0.1).powi(2)).exp() + 1e-5);
        assert!(edge.has_peak_near(TAU - 0.02, 0.1, 0.5));
    }

    #[test]
    fn remove_peak_levels_one_lobe_only() {
        let mut s = two_lobe();
        s.remove_peak(200f64.to_radians());
        let peaks = s.find_peaks(0.05);
        assert_eq!(peaks.len(), 1, "{peaks:?}");
        assert!((peaks[0].theta - 60f64.to_radians()).abs() < 0.02);
        // The removed lobe region is flattened near the pre-removal floor.
        assert!(s.sample(200f64.to_radians()) < 0.01);
    }

    #[test]
    fn remove_peak_with_imprecise_theta_still_hits_lobe() {
        let mut s = two_lobe();
        // 3° off the true apex.
        s.remove_peak(203f64.to_radians());
        assert_eq!(s.find_peaks(0.05).len(), 1);
    }

    #[test]
    fn normalization_and_max() {
        let s = two_lobe();
        let n = s.normalized();
        assert!((n.max_value() - 1.0).abs() < 1e-12);
        // Shape preserved.
        let r = s.sample(1.0) / s.max_value();
        assert!((n.sample(1.0) - r).abs() < 1e-12);
    }

    #[test]
    fn window_application() {
        let mut s = AoaSpectrum::from_fn(360, |_| 1.0);
        s.apply_window(|t| if t < PI { 1.0 } else { 0.0 });
        let (up, down) = s.side_powers();
        assert!(up > 0.0);
        assert_eq!(down, 0.0);
    }

    #[test]
    fn side_powers_split_at_pi() {
        let s = AoaSpectrum::from_fn(360, |t| if t < PI { 2.0 } else { 1.0 });
        let (up, down) = s.side_powers();
        assert!((up - 360.0).abs() < 1e-9);
        assert!((down - 180.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_values_rejected() {
        AoaSpectrum::from_values(vec![1.0, -0.1, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn flat_spectrum_has_no_peaks() {
        let s = AoaSpectrum::from_fn(64, |_| 1.0);
        assert!(s.find_peaks(0.5).is_empty());
    }
}
