//! The MUSIC AoA pseudospectrum (paper §2.3.1, eqs. 4–6).
//!
//! MUSIC splits the eigenvectors of the array correlation matrix into a
//! signal subspace (the `D` largest eigenvalues) and a noise subspace, then
//! scores each candidate bearing by how nearly its steering vector is
//! orthogonal to the noise subspace:
//!
//! ```text
//! P(θ) = 1 / (a(θ)ᴴ · E_N·E_Nᴴ · a(θ))
//! ```
//!
//! Spatial smoothing (§2.3.2) is applied to the correlation matrix first to
//! decorrelate coherent multipath; the paper's default is `NG = 2` groups.

use crate::smoothing::{spatial_smooth_fb_into, spatial_smooth_into};
use crate::spectrum::AoaSpectrum;
use crate::steering::SteeringTable;
use at_dsp::SnapshotBlock;
use at_linalg::{eigh_into, CMatrix, EigScratch, HermitianEigen, NoiseSubspace};
use std::f64::consts::TAU;

/// Configuration for the MUSIC estimator.
#[derive(Clone, Copy, Debug)]
pub struct MusicConfig {
    /// Angular bins over the full circle (720 ⇒ 0.5° resolution).
    pub bins: usize,
    /// Spatial smoothing groups `NG` (1 disables smoothing; paper uses 2).
    pub smoothing_groups: usize,
    /// Use forward–backward smoothing instead of forward-only (ablation
    /// extension; the paper uses forward-only).
    pub forward_backward: bool,
    /// Eigenvalues larger than this fraction of the largest are classified
    /// as signals (paper: "a threshold that is a fraction of the largest
    /// eigenvalue").
    pub eigenvalue_threshold: f64,
}

impl Default for MusicConfig {
    fn default() -> Self {
        Self {
            bins: 720,
            smoothing_groups: 2,
            forward_backward: false,
            eigenvalue_threshold: 0.1,
        }
    }
}

/// Diagnostic output of a MUSIC run.
#[derive(Clone, Debug)]
pub struct MusicAnalysis {
    /// The pseudospectrum over `[0, 2π)` (mirror-symmetric about the axis
    /// for a plain ULA).
    pub spectrum: AoaSpectrum,
    /// Eigenvalues of the (smoothed) correlation matrix, descending.
    pub eigenvalues: Vec<f64>,
    /// Estimated number of incoming signals `D`.
    pub signals: usize,
    /// Effective antennas after smoothing.
    pub effective_antennas: usize,
}

/// Runs MUSIC on a block of array snapshots from a λ/2 ULA whose rows are
/// in element order.
pub fn music_analysis(block: &SnapshotBlock, cfg: &MusicConfig) -> MusicAnalysis {
    music_analysis_from_rxx(&block.correlation_matrix(), cfg)
}

/// Runs MUSIC on a precomputed correlation matrix.
pub fn music_analysis_from_rxx(rxx: &CMatrix, cfg: &MusicConfig) -> MusicAnalysis {
    let mut scratch = MusicScratch::default();
    let mut values = Vec::new();
    let (signals, effective_antennas) = music_into(rxx, cfg, &mut scratch, &mut values);
    MusicAnalysis {
        spectrum: AoaSpectrum::from_values(values),
        eigenvalues: scratch.eig.eigenvalues,
        signals,
        effective_antennas,
    }
}

/// Every intermediate of one MUSIC run (smoothed matrix, eigensystem,
/// noise subspace), kept between runs so a warm frame allocates nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct MusicScratch {
    forward: CMatrix,
    smoothed: CMatrix,
    eig_work: EigScratch,
    eig: HermitianEigen,
    noise: NoiseSubspace,
}

/// The MUSIC body behind every ULA entry point: smoothing, eigensystem,
/// noise subspace and the half-circle scan of `rxx`, with the
/// pseudospectrum written into `values` (resized to `cfg.bins`). Returns
/// `(D, effective antennas)`.
pub(crate) fn music_into(
    rxx: &CMatrix,
    cfg: &MusicConfig,
    scratch: &mut MusicScratch,
    values: &mut Vec<f64>,
) -> (usize, usize) {
    let MusicScratch {
        forward,
        smoothed,
        eig_work,
        eig,
        noise,
    } = scratch;
    // The eigendecomposition only reads its input, so the no-smoothing
    // path works on `rxx` itself.
    let smoothed: &CMatrix = if cfg.smoothing_groups <= 1 {
        rxx
    } else {
        let _t = at_obs::time_stage!(at_obs::stages::SMOOTHING);
        if cfg.forward_backward {
            spatial_smooth_fb_into(rxx, cfg.smoothing_groups, forward, smoothed);
        } else {
            spatial_smooth_into(rxx, cfg.smoothing_groups, smoothed);
        }
        smoothed
    };
    let ms = smoothed.rows();
    assert!(ms >= 2, "need at least two effective antennas");

    let d = {
        let _t = at_obs::time_stage!(at_obs::stages::MUSIC_EIG);
        noise_subspace_into(smoothed, cfg.eigenvalue_threshold, eig_work, eig, noise)
    };

    // Pseudospectrum over [0, π], mirrored to the full circle (a plain ULA
    // cannot distinguish the sides; §2.3.4 handles that separately). The
    // shared table's bin-minor slabs feed one batched `aᴴ·E_N·E_Nᴴ·a`
    // kernel call for the whole sweep.
    let table = SteeringTable::shared(ms, cfg.bins);
    {
        let _t = at_obs::time_stage!(at_obs::stages::MUSIC_SCAN);
        table.scan_projection_into(noise, values);
    }
    (d, ms)
}

/// Eigendecomposes a correlation matrix into `eig` and extracts the noise
/// subspace `E_N` into `noise` in SoA layout; returns the source count `D`,
/// clamped so at least one noise dimension remains (MUSIC needs a noise
/// subspace). Shared by the ULA and arbitrary-layout paths. The projector
/// `Q = E_N·E_Nᴴ` is never materialized — the scan evaluates
/// `aᴴ·Q·a = Σ_k |e_kᴴ·a|²` directly from the eigenvectors.
fn noise_subspace_into(
    rxx: &CMatrix,
    eigenvalue_threshold: f64,
    eig_work: &mut EigScratch,
    eig: &mut HermitianEigen,
    noise: &mut NoiseSubspace,
) -> usize {
    let ms = rxx.rows();
    eigh_into(rxx, eig_work, eig).expect("correlation matrices are Hermitian");
    let lmax = eig.eigenvalues[0].max(0.0);

    // Source count D: eigenvalues above the threshold fraction (paper's
    // "fraction of the largest eigenvalue" rule).
    let mut d = eig
        .eigenvalues
        .iter()
        .filter(|&&l| l > eigenvalue_threshold * lmax)
        .count()
        .max(1);
    if d >= ms {
        d = ms - 1;
    }
    noise.assign_from_eigen(eig, d);
    d
}

/// Convenience wrapper returning just the pseudospectrum.
pub fn music_spectrum(block: &SnapshotBlock, cfg: &MusicConfig) -> AoaSpectrum {
    music_analysis(block, cfg).spectrum
}

/// MUSIC over an arbitrary element layout (e.g. the circular array of the
/// paper's §6 discussion), scanning the full circle with general steering
/// vectors — no mirror ambiguity, but also no subarray spatial smoothing
/// (shift invariance doesn't hold for non-linear layouts, so
/// `cfg.smoothing_groups` must be 1).
pub fn music_analysis_positions(
    rxx: &CMatrix,
    positions: &[at_channel::geometry::Point],
    cfg: &MusicConfig,
) -> MusicAnalysis {
    assert_eq!(rxx.rows(), positions.len(), "one position per antenna");
    assert!(
        cfg.smoothing_groups <= 1,
        "subarray smoothing requires a uniform linear array; use smoothing_groups = 1"
    );
    let ms = rxx.rows();
    assert!(ms >= 2, "need at least two antennas");
    let mut eig = HermitianEigen::default();
    let mut noise = NoiseSubspace::default();
    let d = {
        let _t = at_obs::time_stage!(at_obs::stages::MUSIC_EIG);
        noise_subspace_into(
            rxx,
            cfg.eigenvalue_threshold,
            &mut EigScratch::default(),
            &mut eig,
            &mut noise,
        )
    };
    let bins = cfg.bins;
    let values = (0..bins)
        .map(|i| {
            let theta = i as f64 * TAU / bins as f64;
            let a = crate::steering::general_steering(positions, theta);
            1.0 / noise.projection(&a).max(1e-12)
        })
        .collect();
    MusicAnalysis {
        spectrum: AoaSpectrum::from_values(values),
        eigenvalues: eig.eigenvalues,
        signals: d,
        effective_antennas: ms,
    }
}

/// Ground-truth-free helper: the bearing of the strongest spectrum peak.
pub fn strongest_bearing(spectrum: &AoaSpectrum) -> Option<f64> {
    spectrum.find_peaks(0.0).first().map(|p| p.theta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steering::ula_steering;
    use at_channel::geometry::angle_diff;
    use at_dsp::awgn::NoiseSource;
    use at_linalg::{CVector, Complex64};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    /// Synthesizes `k` snapshots of independent sources at given bearings
    /// and SNRs for an `m`-element ULA.
    fn synth_block(
        m: usize,
        k: usize,
        sources: &[(f64, f64)], // (bearing rad, amplitude)
        noise_power: f64,
        seed: u64,
    ) -> SnapshotBlock {
        let mut rng = StdRng::seed_from_u64(seed);
        let noise = NoiseSource::with_power(noise_power);
        let steering: Vec<CVector> = sources.iter().map(|(th, _)| ula_steering(m, *th)).collect();
        let mut streams = vec![Vec::with_capacity(k); m];
        for _t in 0..k {
            // Independent random source phases (incoherent sources).
            let coeffs: Vec<Complex64> = sources
                .iter()
                .map(|(_, amp)| {
                    Complex64::from_polar(*amp, rand::Rng::gen_range(&mut rng, 0.0..TAU))
                })
                .collect();
            for (mi, stream) in streams.iter_mut().enumerate() {
                let mut acc = noise.sample(&mut rng);
                for (s, c) in steering.iter().zip(&coeffs) {
                    acc += s[mi] * *c;
                }
                stream.push(acc);
            }
        }
        SnapshotBlock::new(streams)
    }

    #[test]
    fn single_source_peak_at_true_bearing() {
        for theta_deg in [30.0f64, 60.0, 90.0, 120.0, 155.0] {
            let theta = theta_deg.to_radians();
            let block = synth_block(8, 50, &[(theta, 1.0)], 0.01, 7);
            let cfg = MusicConfig::default();
            let spec = music_spectrum(&block, &cfg);
            let best = strongest_bearing(&spec).unwrap();
            // Mirror ambiguity: accept θ or 2π−θ.
            let err = angle_diff(best, theta).min(angle_diff(best, TAU - theta));
            assert!(err < 1.5f64.to_radians(), "θ={theta_deg}°: got {best}");
        }
    }

    #[test]
    fn two_incoherent_sources_resolved() {
        let t1 = 50f64.to_radians();
        let t2 = 110f64.to_radians();
        let block = synth_block(8, 100, &[(t1, 1.0), (t2, 0.8)], 0.01, 3);
        let cfg = MusicConfig {
            smoothing_groups: 1, // incoherent: no smoothing needed
            ..MusicConfig::default()
        };
        let analysis = music_analysis(&block, &cfg);
        assert_eq!(analysis.signals, 2, "{:?}", analysis.eigenvalues);
        let spec = analysis.spectrum;
        assert!(spec.has_peak_near(t1, 2.0f64.to_radians(), 0.05));
        assert!(spec.has_peak_near(t2, 2.0f64.to_radians(), 0.05));
    }

    #[test]
    fn coherent_multipath_needs_smoothing() {
        // Two fully coherent paths: without smoothing the spectrum is
        // distorted (peak offset / spurious); with NG=2..3 both true
        // bearings emerge. This is Fig. 7's story.
        let t1 = 70f64.to_radians();
        let t2 = 130f64.to_radians();
        let m = 8;
        let k = 20;
        // Coherent: same source phase each snapshot, fixed relative gain.
        let a1 = ula_steering(m, t1);
        let a2 = ula_steering(m, t2);
        let g2 = Complex64::from_polar(0.8, 1.0);
        let mut rng = StdRng::seed_from_u64(11);
        let noise = NoiseSource::with_power(1e-4);
        let streams: Vec<Vec<Complex64>> = (0..m)
            .map(|mi| {
                (0..k)
                    .map(|_| a1[mi] + g2 * a2[mi] + noise.sample(&mut rng))
                    .collect()
            })
            .collect();
        let block = SnapshotBlock::new(streams);

        let smoothed = music_spectrum(
            &block,
            &MusicConfig {
                smoothing_groups: 3,
                ..MusicConfig::default()
            },
        );
        assert!(
            smoothed.has_peak_near(t1, 3.0f64.to_radians(), 0.03),
            "smoothed spectrum misses path 1"
        );
        assert!(
            smoothed.has_peak_near(t2, 3.0f64.to_radians(), 0.03),
            "smoothed spectrum misses path 2"
        );
    }

    #[test]
    fn spectrum_is_mirror_symmetric() {
        let block = synth_block(8, 30, &[(1.0, 1.0)], 0.01, 5);
        let spec = music_spectrum(&block, &MusicConfig::default());
        let n = spec.bins();
        for i in 1..n / 2 {
            let a = spec.values()[i];
            let b = spec.values()[n - i];
            assert!((a - b).abs() < 1e-9 * (1.0 + a), "bin {i}");
        }
    }

    #[test]
    fn more_antennas_sharpen_the_peak() {
        let theta = 75f64.to_radians();
        // Half-power width saturates at one bin once the peak is sharp
        // enough, so compare the (normalized) spectrum mean too: a larger
        // aperture pushes the MUSIC noise floor further below the peak.
        let sharpness = |m: usize| {
            let block = synth_block(m, 50, &[(theta, 1.0)], 0.02, 9);
            let spec = music_spectrum(&block, &MusicConfig::default()).normalized();
            let width = spec.values().iter().filter(|&&v| v > 0.5).count();
            let mean = spec.values().iter().sum::<f64>() / spec.bins() as f64;
            (width, mean)
        };
        let (w4, m4) = sharpness(4);
        let (w8, m8) = sharpness(8);
        assert!(w8 <= w4, "8-antenna width {w8} > 4-antenna width {w4}");
        assert!(m8 < m4, "8-antenna floor {m8} !< 4-antenna floor {m4}");
    }

    #[test]
    fn low_snr_degrades_peak_sharpness() {
        // Fig. 20: spectra lose sharpness as SNR drops below 0 dB.
        let theta = 100f64.to_radians();
        let sharpness = |noise_power: f64| {
            let block = synth_block(8, 10, &[(theta, 1.0)], noise_power, 21);
            let spec = music_spectrum(&block, &MusicConfig::default()).normalized();
            // Peak-to-mean ratio as a sharpness proxy.
            let mean: f64 = spec.values().iter().sum::<f64>() / spec.bins() as f64;
            1.0 / mean
        };
        let high_snr = sharpness(0.01); // ~20 dB
        let low_snr = sharpness(3.0); // ~ −5 dB
        assert!(high_snr > 2.0 * low_snr, "high {high_snr} vs low {low_snr}");
    }

    #[test]
    fn signal_count_clamped_below_effective_antennas() {
        // All-signal input (huge SNR, many sources) must still leave a
        // noise dimension.
        let sources: Vec<(f64, f64)> = (1..8).map(|i| (i as f64 * PI / 8.0, 1.0)).collect();
        let block = synth_block(8, 200, &sources, 1e-6, 13);
        let analysis = music_analysis(
            &block,
            &MusicConfig {
                smoothing_groups: 1,
                eigenvalue_threshold: 1e-9,
                ..MusicConfig::default()
            },
        );
        assert!(analysis.signals < analysis.effective_antennas);
    }

    #[test]
    fn ten_samples_suffice_for_stability() {
        // §4.3.3: spectra stabilize around 5–10 samples.
        let theta = 60f64.to_radians();
        let block = synth_block(8, 10, &[(theta, 1.0)], 0.05, 17);
        let spec = music_spectrum(&block, &MusicConfig::default());
        let best = strongest_bearing(&spec).unwrap();
        let err = angle_diff(best, theta).min(angle_diff(best, TAU - theta));
        assert!(err < 2.0f64.to_radians());
    }
}
