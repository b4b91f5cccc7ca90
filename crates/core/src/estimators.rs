//! Classical AoA estimators: Bartlett and MVDR (Capon).
//!
//! The paper builds on MUSIC because of its super-resolution; these two
//! textbook estimators provide the reference points that make that choice
//! quantitative (the `exp_estimators` bench compares all three on the same
//! captures):
//!
//! - **Bartlett** (delay-and-sum): `P(θ) = a(θ)ᴴ·R·a(θ)` — robust, but the
//!   beamwidth is diffraction-limited (~2/M radians);
//! - **MVDR / Capon**: `P(θ) = 1 / (a(θ)ᴴ·R⁻¹·a(θ))` — sharper than
//!   Bartlett, still resolution-limited versus MUSIC and sensitive to
//!   correlation-matrix conditioning (we diagonal-load via a regularized
//!   eigen-inverse).
//!
//! Both are computed for a λ/2 ULA and mirrored like the MUSIC spectrum.

use crate::spectrum::AoaSpectrum;
use crate::steering::SteeringTable;
use at_dsp::SnapshotBlock;
use at_linalg::{eigh, CMatrix};

/// Relative diagonal loading for the MVDR inverse.
const MVDR_LOADING: f64 = 1e-4;

/// Shared scan loop: evaluates `f(a(θ))` over the half-circle and mirrors,
/// drawing the steering vectors from the process-wide precomputed table.
fn scan_ula(elements: usize, bins: usize, f: impl Fn(&at_linalg::CVector) -> f64) -> AoaSpectrum {
    SteeringTable::shared(elements, bins).scan(f)
}

/// Bartlett (conventional beam-scan) spectrum from a correlation matrix.
pub(crate) fn bartlett_spectrum_from_rxx(rxx: &CMatrix, bins: usize) -> AoaSpectrum {
    assert!(rxx.is_square());
    scan_ula(rxx.rows(), bins, |a| a.dot(&rxx.mul_vec(a)).re)
}

/// Bartlett spectrum from a snapshot block (rows in ULA element order).
pub fn bartlett_spectrum(block: &SnapshotBlock, bins: usize) -> AoaSpectrum {
    bartlett_spectrum_from_rxx(&block.correlation_matrix(), bins)
}

/// MVDR (Capon) spectrum from a correlation matrix, with diagonal loading.
pub(crate) fn mvdr_spectrum_from_rxx(rxx: &CMatrix, bins: usize) -> AoaSpectrum {
    assert!(rxx.is_square());
    let eig = eigh(rxx).expect("correlation matrices are Hermitian");
    let rinv = eig.inverse_regularized(MVDR_LOADING);
    scan_ula(rxx.rows(), bins, |a| {
        1.0 / a.dot(&rinv.mul_vec(a)).re.max(1e-12)
    })
}

/// MVDR spectrum from a snapshot block (rows in ULA element order).
pub fn mvdr_spectrum(block: &SnapshotBlock, bins: usize) -> AoaSpectrum {
    mvdr_spectrum_from_rxx(&block.correlation_matrix(), bins)
}

/// Half-power (−3 dB) width of the spectrum's main lobe, radians — the
/// resolution figure of merit the estimator comparison reports.
pub fn main_lobe_width(spectrum: &AoaSpectrum) -> f64 {
    let s = spectrum.normalized();
    s.values().iter().filter(|&&v| v > 0.5).count() as f64 * s.resolution()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::music::{music_spectrum, MusicConfig};
    use crate::steering::ula_steering;
    use at_channel::geometry::angle_diff;
    use at_dsp::awgn::NoiseSource;
    use at_linalg::Complex64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::TAU;

    fn one_source_block(theta: f64, noise: f64, seed: u64) -> SnapshotBlock {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = NoiseSource::with_power(noise);
        let a = ula_steering(8, theta);
        let mut streams = vec![Vec::new(); 8];
        for _ in 0..30 {
            // One common source phase per snapshot (coherent across the
            // array, incoherent across snapshots).
            let phase = Complex64::cis(rng.gen_range(0.0..TAU));
            for (m, s) in streams.iter_mut().enumerate() {
                s.push(a[m] * phase + n.sample(&mut rng));
            }
        }
        SnapshotBlock::new(streams)
    }

    /// A two-snapshot-correlated trick won't work here: generate per-
    /// snapshot common phases so the two sources stay incoherent.
    fn two_source_block(t1: f64, t2: f64, seed: u64) -> SnapshotBlock {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = NoiseSource::with_power(0.01);
        let a1 = ula_steering(8, t1);
        let a2 = ula_steering(8, t2);
        let mut streams = vec![Vec::new(); 8];
        for _ in 0..60 {
            let p1 = Complex64::cis(rng.gen_range(0.0..TAU));
            let p2 = Complex64::cis(rng.gen_range(0.0..TAU));
            for (m, s) in streams.iter_mut().enumerate() {
                s.push(a1[m] * p1 + a2[m] * p2 + n.sample(&mut rng));
            }
        }
        SnapshotBlock::new(streams)
    }

    #[test]
    fn all_estimators_peak_at_the_source() {
        let theta = 70f64.to_radians();
        let block = one_source_block(theta, 0.05, 1);
        for (name, spec) in [
            ("bartlett", bartlett_spectrum(&block, 720)),
            ("mvdr", mvdr_spectrum(&block, 720)),
            ("music", music_spectrum(&block, &MusicConfig::default())),
        ] {
            let best = spec.find_peaks(0.5)[0].theta;
            let err = angle_diff(best, theta).min(angle_diff(best, TAU - theta));
            assert!(err < 2f64.to_radians(), "{name}: err {err}");
        }
    }

    #[test]
    fn resolution_ordering_music_beats_mvdr_beats_bartlett() {
        let theta = 95f64.to_radians();
        let block = one_source_block(theta, 0.02, 2);
        let bartlett = bartlett_spectrum(&block, 720);
        let mvdr = mvdr_spectrum(&block, 720);
        let music = music_spectrum(
            &block,
            &MusicConfig {
                smoothing_groups: 1,
                ..MusicConfig::default()
            },
        );
        let wb = main_lobe_width(&bartlett);
        let wm = main_lobe_width(&mvdr);
        let wmu = main_lobe_width(&music);
        assert!(
            wm < wb,
            "MVDR ({wm}) should be sharper than Bartlett ({wb})"
        );
        assert!(
            wmu <= wm,
            "MUSIC ({wmu}) should be at least as sharp as MVDR ({wm})"
        );
        // At high SNR the half-power width saturates at the bin size, so
        // also rank by spectrum floor (peak-to-mean): MUSIC ≫ MVDR ≫ Bartlett.
        let p2m = |s: &AoaSpectrum| {
            let n = s.normalized();
            n.bins() as f64 / n.values().iter().sum::<f64>()
        };
        assert!(
            p2m(&mvdr) > 2.0 * p2m(&bartlett),
            "MVDR floor should be far lower"
        );
        assert!(
            p2m(&music) > 1.5 * p2m(&mvdr),
            "MUSIC floor should be lower still"
        );
    }

    #[test]
    fn close_sources_separate_music_only() {
        // 12° apart at 8 elements: inside the Bartlett beamwidth.
        let t1 = 84f64.to_radians();
        let t2 = 96f64.to_radians();
        let block = two_source_block(t1, t2, 3);
        let near = |spec: &AoaSpectrum| {
            spec.has_peak_near(t1, 3f64.to_radians(), 0.2)
                && spec.has_peak_near(t2, 3f64.to_radians(), 0.2)
        };
        // At 12° the two steering vectors correlate ~0.77, pushing the
        // second eigenvalue near the default 10 % signal threshold; a
        // looser threshold keeps D = 2 (this is exactly the sensitivity
        // the paper's threshold rule trades off).
        let mspec = music_spectrum(
            &block,
            &MusicConfig {
                smoothing_groups: 1,
                eigenvalue_threshold: 0.03,
                ..MusicConfig::default()
            },
        );
        let music_ok = near(&mspec);
        assert!(music_ok, "MUSIC should resolve 12° at 8 elements");
        // "Resolved" means a genuine dip between the two bearings
        // (Rayleigh-style), not merely ripple on a flat top: Bartlett's
        // midpoint valley stays within a few percent of the lobe tops,
        // while MUSIC carves an order-of-magnitude notch.
        let mid = (t1 + t2) / 2.0;
        let dip = |spec: &AoaSpectrum| {
            let s = spec.normalized();
            s.sample(mid) / s.sample(t1).min(s.sample(t2)).max(1e-12)
        };
        let bartlett_dip = dip(&bartlett_spectrum(&block, 720));
        let music_dip = dip(&mspec);
        assert!(
            bartlett_dip > 0.85,
            "Bartlett should blur 12° into one lobe (dip {bartlett_dip})"
        );
        assert!(
            music_dip < 0.5,
            "MUSIC should notch between the sources (dip {music_dip})"
        );
    }

    #[test]
    fn spectra_are_mirror_symmetric_and_finite() {
        let block = one_source_block(1.0, 0.1, 4);
        for spec in [bartlett_spectrum(&block, 360), mvdr_spectrum(&block, 360)] {
            let n = spec.bins();
            for i in 1..n / 2 {
                let a = spec.values()[i];
                let b = spec.values()[n - i];
                assert!(a.is_finite() && a >= 0.0);
                assert!((a - b).abs() < 1e-9 * (1.0 + a));
            }
        }
    }

    #[test]
    fn mvdr_survives_rank_deficient_input() {
        // Single snapshot: R is rank one; diagonal loading must keep MVDR
        // finite and still peaked near the source.
        let theta = 60f64.to_radians();
        let a = ula_steering(8, theta);
        let block = SnapshotBlock::new((0..8).map(|m| vec![a[m]]).collect());
        let spec = mvdr_spectrum(&block, 720);
        assert!(spec.values().iter().all(|v| v.is_finite()));
        let best = spec.find_peaks(0.5)[0].theta;
        let err = angle_diff(best, theta).min(angle_diff(best, TAU - theta));
        assert!(err < 3f64.to_radians());
    }
}
