//! Multipath suppression (paper §2.4, Figs. 8–9, Table 1).
//!
//! Small movements of the transmitter (or nearby objects) leave the
//! direct-path AoA peak in place while reflection-path peaks shift or
//! vanish. ArrayTrack exploits this: group two or three AoA spectra from
//! frames captured within 100 ms, pick one as the *primary*, and remove
//! from it every peak that is not paired (within 5°) with a peak in each of
//! the other spectra.

use crate::spectrum::{AoaSpectrum, Peak};
use at_channel::geometry::angle_diff;

/// The paper's grouping window: frames closer than 100 ms in time.
pub const GROUPING_WINDOW_S: f64 = 0.100;

/// The default pairing tolerance used here: 8°. Our simulated reflections
/// wander in bearing (surface-roughness glint model), so a slightly wider
/// window keeps the stable direct path paired without re-admitting moving
/// reflections (the paper pairs within 5°).
pub(crate) const MATCH_TOLERANCE_RAD: f64 = 8.0 * std::f64::consts::PI / 180.0;

/// Relative peak-detection threshold used when pairing peaks. Low enough to
/// see secondary reflection lobes, high enough to ignore the noise floor.
pub(crate) const PEAK_THRESHOLD: f64 = 0.03;

/// Configuration for the suppression pass.
#[derive(Clone, Copy, Debug)]
pub struct SuppressionConfig {
    /// Angular pairing tolerance, radians.
    pub(crate) match_tolerance: f64,
    /// Relative peak threshold for the primary spectrum's peak list.
    pub(crate) peak_threshold: f64,
    /// Relative peak threshold when looking for *pairing* peaks in the
    /// other spectra. Lower than `peak_threshold`: a peak that merely
    /// shrank in another frame is still evidence of a stable bearing, and
    /// treating it as vanished would wrongly remove direct paths.
    pub(crate) pairing_threshold: f64,
    /// Attenuation applied to removed lobes. `0.0` flattens the lobe to
    /// the surrounding floor (the paper's hard removal); a small positive
    /// value keeps a residual so one wrong removal cannot entirely erase
    /// an AP's direct-path evidence from the synthesis product.
    pub(crate) removal_attenuation: f64,
}

impl Default for SuppressionConfig {
    fn default() -> Self {
        Self {
            match_tolerance: MATCH_TOLERANCE_RAD,
            peak_threshold: PEAK_THRESHOLD,
            pairing_threshold: PEAK_THRESHOLD / 3.0,
            removal_attenuation: 0.15,
        }
    }
}

/// Runs the multipath suppression algorithm of Fig. 8 on a group of AoA
/// spectra from temporally-adjacent frames.
///
/// The first spectrum is chosen as the primary ("arbitrarily choose one",
/// Fig. 8 step 2). Peaks of the primary not paired with a peak in at least
/// half (rounded up) of the other spectra are removed. Fig. 8 step 2 says
/// "paired with peaks on other AoA spectra" without fixing the quorum; with
/// the paper's ~90 % per-frame direct-path stability a majority keeps the
/// direct peak with ≈99.8 % probability over three frames, where requiring
/// every spectrum would let one frame's wobble past the tolerance kill it.
/// With fewer than two spectra the primary is returned unchanged (Fig. 8
/// step 1's fall-through).
///
/// Each spectrum's peak list is found once: the primary's before any lobe
/// is scaled or removed, each other spectrum's at `pairing_threshold`
/// (the others are never modified), so pairing is a scan of short lists.
pub fn suppress_multipath(spectra: &[AoaSpectrum], cfg: &SuppressionConfig) -> AoaSpectrum {
    assert!(!spectra.is_empty(), "need at least one spectrum");
    let _t = at_obs::time_stage!(at_obs::stages::SUPPRESSION, "frames" => spectra.len());
    let mut primary = spectra[0].clone();
    if spectra.len() < 2 {
        return primary;
    }
    let peaks = primary.find_peaks(cfg.peak_threshold);
    let pairing: Vec<Vec<Peak>> = spectra[1..]
        .iter()
        .map(|s| s.find_peaks(cfg.pairing_threshold))
        .collect();
    let needed = (spectra.len() - 1).div_ceil(2);
    for peak in peaks {
        let matches = pairing
            .iter()
            .filter(|others| {
                others
                    .iter()
                    .any(|p| angle_diff(p.theta, peak.theta) <= cfg.match_tolerance)
            })
            .count();
        if matches < needed {
            if cfg.removal_attenuation > 0.0 {
                primary.scale_lobe(peak.theta, cfg.removal_attenuation);
            } else {
                primary.remove_peak(peak.theta);
            }
        }
    }
    primary
}

/// Row of the Table 1 tally: joint fate of the direct-path peak and the
/// reflection-path peaks between two spectra.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StabilityOutcome {
    /// Whether the direct-path peak stayed within 5°.
    pub direct_unchanged: bool,
    /// Whether *all* observed reflection peaks stayed within 5°.
    pub reflections_unchanged: bool,
}

/// Classifies the joint stability of direct and reflection peaks between a
/// spectrum pair, given the ground-truth direct bearing. Returns `None` if
/// the direct-path peak is not visible in the first spectrum (no
/// classification possible).
pub fn classify_stability(
    before: &AoaSpectrum,
    after: &AoaSpectrum,
    direct_bearing: f64,
    cfg: &SuppressionConfig,
) -> Option<StabilityOutcome> {
    let peaks = before.find_peaks(cfg.peak_threshold);
    let direct = peaks
        .iter()
        .find(|p| angle_diff(p.theta, direct_bearing) <= cfg.match_tolerance)?;
    let direct_unchanged =
        after.has_peak_near(direct.theta, cfg.match_tolerance, cfg.peak_threshold);

    let reflections: Vec<&Peak> = peaks
        .iter()
        .filter(|p| angle_diff(p.theta, direct_bearing) > cfg.match_tolerance)
        .collect();
    // "Reflections unchanged" requires every reflection peak to survive;
    // if there are none, the comparison is vacuously unchanged.
    let reflections_unchanged = reflections
        .iter()
        .all(|p| after.has_peak_near(p.theta, cfg.match_tolerance, cfg.peak_threshold));
    Some(StabilityOutcome {
        direct_unchanged,
        reflections_unchanged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The per-pair form the one-pass suppression replaced: every
    /// (primary peak, other spectrum) pair reruns `find_peaks` through
    /// `has_peak_near`. The oracle for [`suppress_multipath`].
    fn suppress_per_pair(spectra: &[AoaSpectrum], cfg: &SuppressionConfig) -> AoaSpectrum {
        let mut primary = spectra[0].clone();
        if spectra.len() < 2 {
            return primary;
        }
        let peaks = primary.find_peaks(cfg.peak_threshold);
        let needed = (spectra.len() - 1).div_ceil(2);
        for peak in peaks {
            let matches = spectra[1..]
                .iter()
                .filter(|s| s.has_peak_near(peak.theta, cfg.match_tolerance, cfg.pairing_threshold))
                .count();
            if matches < needed {
                if cfg.removal_attenuation > 0.0 {
                    primary.scale_lobe(peak.theta, cfg.removal_attenuation);
                } else {
                    primary.remove_peak(peak.theta);
                }
            }
        }
        primary
    }

    /// One generated lobe: centre (degrees), power, width (radians), and
    /// shape (0–1 Gaussian, 2 flat-topped, 3 Gaussian straddling 0/2π).
    type LobeSpec = (f64, f64, f64, usize);

    /// A spectrum of `bins` bins from generated lobes over a small floor;
    /// `zero` yields the all-zero spectrum instead.
    fn generated(bins: usize, zero: bool, lobes: &[LobeSpec]) -> AoaSpectrum {
        AoaSpectrum::from_fn(bins, |t| {
            if zero {
                return 0.0;
            }
            let mut v = 1e-4;
            for &(deg, power, width, shape) in lobes {
                let centre = match shape {
                    3 => (358.0 + deg / 90.0).to_radians(),
                    _ => deg.to_radians(),
                };
                let g = (-(angle_diff(t, centre) / width).powi(2)).exp();
                v += power * if shape == 2 { (3.0 * g).min(1.0) } else { g };
            }
            v
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass form is bit-identical to the per-pair oracle.
        #[test]
        fn one_pass_suppression_matches_the_per_pair_oracle(
            group in vec(
                (0usize..8, vec((0.0f64..360.0, 0.05f64..1.0, 0.02f64..0.3, 0usize..4), 0..6)),
                1..5,
            ),
            bins in 0usize..3,
            tolerance in 0.01f64..0.3,
            thresholds in (0.005f64..0.5, 0.05f64..1.0),
            attenuation in (0usize..2, 0.01f64..1.0),
        ) {
            let bins = [90, 360, 720][bins];
            let spectra: Vec<AoaSpectrum> = group
                .iter()
                .map(|(kind, lobes)| generated(bins, *kind == 0, lobes))
                .collect();
            let cfg = SuppressionConfig {
                match_tolerance: tolerance,
                peak_threshold: thresholds.0,
                pairing_threshold: thresholds.0 * thresholds.1,
                removal_attenuation: if attenuation.0 == 0 { 0.0 } else { attenuation.1 },
            };
            let bits = |s: &AoaSpectrum| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(&suppress_multipath(&spectra, &cfg)),
                bits(&suppress_per_pair(&spectra, &cfg))
            );
        }
    }

    /// Builds a spectrum with Gaussian lobes at the given (deg, power) list.
    fn lobes(specs: &[(f64, f64)]) -> AoaSpectrum {
        AoaSpectrum::from_fn(720, |t| {
            let mut v = 1e-5;
            for &(deg, p) in specs {
                let c = deg.to_radians();
                let d = at_channel::geometry::angle_diff(t, c);
                v += p * (-(d / 0.06).powi(2)).exp();
            }
            v
        })
    }

    #[test]
    fn stable_peaks_survive_suppression() {
        let a = lobes(&[(60.0, 1.0), (140.0, 0.6)]);
        let b = lobes(&[(61.0, 0.9), (141.5, 0.7)]);
        let out = suppress_multipath(&[a, b], &SuppressionConfig::default());
        assert!(out.has_peak_near(60f64.to_radians(), 0.05, 0.1));
        assert!(out.has_peak_near(140f64.to_radians(), 0.05, 0.1));
    }

    #[test]
    fn moved_reflection_is_removed() {
        // Direct stable at 60°; reflection moves 140° → 120°.
        let a = lobes(&[(60.0, 1.0), (140.0, 0.8)]);
        let b = lobes(&[(60.5, 1.0), (120.0, 0.8)]);
        let out = suppress_multipath(&[a, b], &SuppressionConfig::default());
        assert!(
            out.has_peak_near(60f64.to_radians(), 0.05, 0.2),
            "direct kept"
        );
        assert!(
            !out.has_peak_near(140f64.to_radians(), 0.05, 0.2),
            "moved reflection attenuated below threshold"
        );
    }

    #[test]
    fn vanished_reflection_is_removed() {
        let a = lobes(&[(60.0, 1.0), (200.0, 0.5)]);
        let b = lobes(&[(60.0, 1.0)]);
        let out = suppress_multipath(&[a, b], &SuppressionConfig::default());
        assert!(!out.has_peak_near(200f64.to_radians(), 0.05, 0.1));
    }

    #[test]
    fn majority_quorum_keeps_peak_paired_in_half_the_others() {
        // Reflection stable in spectrum 2 but moved in spectrum 3: paired
        // in 1 of 2 other spectra, which is a majority, so it is kept.
        let a = lobes(&[(60.0, 1.0), (140.0, 0.8)]);
        let b = lobes(&[(60.0, 1.0), (140.0, 0.8)]);
        let c = lobes(&[(60.0, 1.0), (110.0, 0.8)]);
        let out = suppress_multipath(&[a, b, c], &SuppressionConfig::default());
        assert!(out.has_peak_near(60f64.to_radians(), 0.05, 0.2));
        assert!(out.has_peak_near(140f64.to_radians(), 0.05, 0.2));
    }

    #[test]
    fn majority_quorum_protects_peak_that_wobbles_once() {
        // Direct peak misses the pairing window in one of three frames —
        // the majority quorum keeps it at full height.
        let a = lobes(&[(60.0, 1.0)]);
        let b = lobes(&[(62.0, 1.0)]);
        let c = lobes(&[(70.0, 1.0)]); // wobbled beyond tolerance
        let out = suppress_multipath(&[a, b, c], &SuppressionConfig::default());
        assert!(out.has_peak_near(60f64.to_radians(), 0.05, 0.2));
        assert!(out.sample(60f64.to_radians()) > 0.9);
    }

    #[test]
    fn single_spectrum_passes_through() {
        let a = lobes(&[(60.0, 1.0), (140.0, 0.8)]);
        let out = suppress_multipath(std::slice::from_ref(&a), &SuppressionConfig::default());
        assert_eq!(out, a);
    }

    #[test]
    fn both_unchanged_keeps_everything() {
        // Table 1's second row: nothing changes — "we keep all of them
        // without any deleterious consequences".
        let a = lobes(&[(80.0, 1.0), (150.0, 0.7), (220.0, 0.4)]);
        let out = suppress_multipath(&[a.clone(), a.clone()], &SuppressionConfig::default());
        assert_eq!(out.find_peaks(0.1).len(), 3);
    }

    #[test]
    fn classify_stability_joint_outcomes() {
        let cfg = SuppressionConfig::default();
        let before = lobes(&[(60.0, 1.0), (140.0, 0.8)]);
        // Direct same, reflection changed (the common 71% case).
        let o = classify_stability(
            &before,
            &lobes(&[(60.0, 1.0), (115.0, 0.8)]),
            60f64.to_radians(),
            &cfg,
        )
        .unwrap();
        assert!(o.direct_unchanged && !o.reflections_unchanged);
        // Direct changed, reflection same (the rare 3% failure case).
        let o = classify_stability(
            &before,
            &lobes(&[(75.0, 1.0), (140.0, 0.8)]),
            60f64.to_radians(),
            &cfg,
        )
        .unwrap();
        assert!(!o.direct_unchanged && o.reflections_unchanged);
    }

    #[test]
    #[should_panic(expected = "at least one spectrum")]
    fn empty_group_panics() {
        suppress_multipath(&[], &SuppressionConfig::default());
    }
}
