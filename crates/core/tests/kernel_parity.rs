//! Parity between the planar/SoA hot-path kernels and their naive
//! reference formulations.
//!
//! - The MUSIC sweep evaluates `aᴴ·E_N·E_Nᴴ·a = Σ_k |e_kᴴ·a|²` from the
//!   noise eigenvectors ([`at_linalg::NoiseSubspace`]), eight bins per
//!   pass over bin-minor steering slabs. Every bin keeps the single-probe
//!   order of operations, so the sweep equals
//!   `1 / max(noise.projection(a_i), 1e-12)` *bit-for-bit* at every
//!   element count, noise dimension and resolution. Against a
//!   materialized projector `Q = E_N·E_Nᴴ`, which associates differently,
//!   spectra agree to ≈1e-12 on the quadratic forms
//!   (`|va−vb| ≤ 1e-12·(1 + va·vb)` on the reciprocal spectrum values).
//! - The geometry window is a per-resolution table; weighting must equal
//!   multiplying each bin by `geometry_weight(θ_i)` bit-for-bit.
//! - The fusion sweep accumulates AP-major over contiguous bin-index
//!   slabs. The per-cell add order is unchanged, so heatmaps and location
//!   picks must match the naive cell-major walk *bit-for-bit*, and a
//!   reused scratch arena must never change a result.
//!
//! Case counts are kept modest: these run in tier 1 alongside the rest of
//! the suite.

use at_channel::geometry::{angle_diff, pt};
use at_core::spectrum::AoaSpectrum;
use at_core::steering::SteeringTable;
use at_core::synthesis::{ApPose, SearchRegion};
use at_core::weighting::{apply_geometry_weighting, geometry_weight};
use at_core::{LocalizationEngine, LocalizeScratch};
use at_linalg::{c64, eigh, CMatrix, CVector, Complex64, NoiseSubspace};
use proptest::prelude::*;

const ELEMENTS: usize = 8;
const BINS: usize = 720;

/// A synthetic correlation matrix from random incoherent sources + noise.
fn rxx_strategy() -> impl Strategy<Value = CMatrix> {
    (
        proptest::collection::vec((0.2f64..3.0, 0.2f64..1.5), 1..4),
        0.001f64..0.2,
    )
        .prop_map(|(sources, noise)| correlation(ELEMENTS, &sources, noise))
}

/// Random single-or-multi-lobe spectra for the fusion tests.
fn lobe_strategy() -> impl Strategy<Value = AoaSpectrum> {
    proptest::collection::vec((0.0f64..std::f64::consts::TAU, 0.2f64..1.0), 1..3).prop_map(
        |centers| {
            AoaSpectrum::from_fn(BINS, move |t| {
                let mut v = 1e-6;
                for &(c, p) in &centers {
                    v += p * (-(angle_diff(t, c) / 0.08).powi(2)).exp();
                }
                v
            })
        },
    )
}

fn test_poses() -> Vec<ApPose> {
    [
        (pt(0.0, 0.0), 0.3),
        (pt(12.0, 0.0), 2.0),
        (pt(6.0, 8.0), 4.5),
    ]
    .into_iter()
    .map(|(center, axis)| ApPose {
        center,
        axis_angle: axis,
    })
    .collect()
}

/// A Hermitian `m × m` correlation matrix from incoherent sources at
/// `(bearing, amplitude)` plus white noise.
fn correlation(m: usize, sources: &[(f64, f64)], noise: f64) -> CMatrix {
    let mut r = CMatrix::zeros(m, m);
    for &(theta, amp) in sources {
        let a = at_core::steering::ula_steering(m, theta);
        let v = CVector::from_fn(m, |i| a[i].scale(amp));
        r.add_outer_assign(&v, 1.0);
    }
    for i in 0..m {
        r[(i, i)] += Complex64::real(noise);
    }
    r
}

/// Resolutions whose half-plus-one (361, 181, 5) is not a multiple of the
/// kernel's block width, so every sweep ends in a ragged block.
const SCAN_BINS: [usize; 3] = [720, 360, 8];

#[test]
fn geometry_window_table_matches_per_bin_weights() {
    for bins in [720, 360, 64, 9, 8] {
        let mut s = AoaSpectrum::from_fn(bins, |t| 1.5 + t.sin());
        let expect: Vec<u64> = (0..bins)
            .map(|i| (s.values()[i] * geometry_weight(s.theta_of(i))).to_bits())
            .collect();
        apply_geometry_weighting(&mut s);
        let got: Vec<u64> = s.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, expect, "bins = {bins}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn blocked_scan_is_bit_identical_to_single_probes(
        sources in proptest::collection::vec((0.2f64..3.0, 0.2f64..1.5), 1..4),
        noise_power in 0.001f64..0.2,
    ) {
        for m in 2..=8 {
            let eig = eigh(&correlation(m, &sources, noise_power)).expect("hermitian");
            // Every noise dimension, 1 ..= m.
            for signals in 0..m {
                let noise = NoiseSubspace::from_eigen(&eig, signals);
                for bins in SCAN_BINS {
                    let table = SteeringTable::new(m, bins);
                    let spectrum = table.scan_projection(&noise);
                    let half = bins / 2;
                    for i in 0..=half {
                        let single = 1.0 / noise.projection(table.vector(i)).max(1e-12);
                        prop_assert_eq!(
                            spectrum.values()[i].to_bits(),
                            single.to_bits(),
                            "m={} signals={} bins={} bin {}",
                            m,
                            signals,
                            bins,
                            i
                        );
                        if i != 0 && i != half {
                            prop_assert_eq!(
                                spectrum.values()[bins - i].to_bits(),
                                single.to_bits()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn planar_music_scan_matches_materialized_projector(
        rxx in rxx_strategy(),
        signals in 1usize..4,
    ) {
        let eig = eigh(&rxx).expect("hermitian eigendecomposition");
        let noise = NoiseSubspace::from_eigen(&eig, signals);
        let table = SteeringTable::new(ELEMENTS, BINS);
        let planar = table.scan_projection(&noise);

        // Reference: materialize Q = E_N·E_Nᴴ and probe aᴴ·Q·a per bin.
        let mut q = CMatrix::zeros(ELEMENTS, ELEMENTS);
        for k in signals..ELEMENTS {
            q.add_outer_assign(&eig.eigenvector(k), 1.0);
        }
        // The table stores the half circle (a ULA cannot tell the two
        // sides apart); probe every stored vector, then check the mirror.
        let half = BINS / 2;
        for bin in 0..=half {
            let a = table.vector(bin);
            let mut form = c64(0.0, 0.0);
            for i in 0..ELEMENTS {
                for j in 0..ELEMENTS {
                    form += a[i].conj() * q[(i, j)] * a[j];
                }
            }
            let naive = (1.0 / form.re.max(1e-12)).max(0.0);
            let fast = planar.values()[bin];
            // ~1e-12 relative on the underlying quadratic forms: strict
            // 1e-12 relative parity on the *spectrum* is unreachable at
            // peaks, where a ~1e-16 absolute difference in a ~1e-4
            // projection is magnified by the reciprocal.
            prop_assert!(
                (fast - naive).abs() <= 1e-12 * (1.0 + fast * naive),
                "bin {bin}: planar {fast} vs naive {naive}"
            );
            if bin != 0 && bin != half {
                prop_assert_eq!(
                    planar.values()[BINS - bin].to_bits(),
                    fast.to_bits(),
                    "mirror bin {} differs from bin {}",
                    BINS - bin,
                    bin
                );
            }
        }
    }

    #[test]
    fn ap_major_heatmap_is_bit_identical_to_cell_major(
        spectra in proptest::collection::vec(lobe_strategy(), 3),
    ) {
        let poses = test_poses();
        let region = SearchRegion::new(pt(0.0, 0.0), pt(12.0, 8.0));
        let engine = LocalizationEngine::new(&poses, region, BINS);
        let obs: Vec<(usize, &AoaSpectrum)> = spectra.iter().enumerate().collect();
        let map = engine.heatmap(&obs);

        // Reference: the pre-planar cell-major walk — per cell, sum the
        // per-AP log LUT lookups in observation order, then exponentiate.
        // 0.05 is the engine's likelihood floor.
        let luts: Vec<Vec<f64>> = spectra
            .iter()
            .map(|s| {
                let max = s.max_value();
                let scale = if max > 0.0 { 1.0 / max } else { 1.0 };
                s.values()
                    .iter()
                    .map(|&v| (v * scale).max(0.05).ln())
                    .collect()
            })
            .collect();
        let (nx, ny) = region.grid_size();
        for iy in 0..ny {
            for ix in 0..nx {
                let mut acc = 0.0;
                for (ap, lut) in luts.iter().enumerate() {
                    acc += lut[engine.bearing_bin(ap, ix, iy)];
                }
                let naive = acc.exp();
                let fast = map.values[iy * nx + ix];
                prop_assert_eq!(
                    fast.to_bits(),
                    naive.to_bits(),
                    "cell ({}, {}): planar {} vs naive {}",
                    ix,
                    iy,
                    fast,
                    naive
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_never_changes_a_fix(
        spectra in proptest::collection::vec(lobe_strategy(), 3),
        decoys in proptest::collection::vec(lobe_strategy(), 2),
    ) {
        let poses = test_poses();
        let region = SearchRegion::new(pt(0.0, 0.0), pt(12.0, 8.0));
        let engine = LocalizationEngine::new(&poses, region, BINS);
        let obs: Vec<(usize, &AoaSpectrum)> = spectra.iter().enumerate().collect();

        // Thread-local default arena.
        let via_default = engine.localize(&obs);
        // A fresh arena.
        let mut fresh = LocalizeScratch::new();
        let via_fresh = engine.localize_with(&obs, &mut fresh);
        // An arena dirtied by a different query shape (fewer APs,
        // different spectra) and then reused.
        let mut dirty = LocalizeScratch::new();
        let decoy_obs: Vec<(usize, &AoaSpectrum)> = decoys.iter().enumerate().collect();
        engine.localize_with(&decoy_obs, &mut dirty);
        let via_dirty = engine.localize_with(&obs, &mut dirty);

        for other in [via_fresh, via_dirty] {
            prop_assert_eq!(via_default.position.x.to_bits(), other.position.x.to_bits());
            prop_assert_eq!(via_default.position.y.to_bits(), other.position.y.to_bits());
            prop_assert_eq!(via_default.likelihood.to_bits(), other.likelihood.to_bits());
        }
    }
}
