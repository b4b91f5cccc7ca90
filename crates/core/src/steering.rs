//! Array steering vectors (paper eq. 2).
//!
//! The steering vector `a(θ)` encodes the inter-antenna phase progression a
//! plane wave from bearing `θ` produces. Our sign convention matches the
//! channel simulator: element `m` of a λ/2-spaced ULA sits `m·λ/2` further
//! along the axis, so a wave from bearing `θ` (measured from the axis)
//! reaches it with phase *advance* `m·π·cosθ` relative to element 0:
//!
//! ```text
//! a(θ) = [1, e^{jπcosθ}, e^{j2πcosθ}, …, e^{j(M−1)πcosθ}]
//! ```
//!
//! For arbitrary element layouts (e.g. the off-row ninth antenna, §2.3.4)
//! the general form is `a_m(θ) = e^{j2π·(p_m·u(θ))/λ}` with `p_m` the
//! element position in the array frame and `u(θ)` the unit vector toward
//! the source.

use crate::spectrum::AoaSpectrum;
use at_channel::geometry::{pt, Point};
use at_channel::{half_wavelength, wavelength};
use at_linalg::{CVector, Complex64, NoiseSubspace, PROJECTION_BLOCK};
use std::collections::HashMap;
use std::f64::consts::{PI, TAU};
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

/// A process-wide memo of data-independent tables keyed by their shape.
pub(crate) type TableCache<K, T> = OnceLock<Mutex<HashMap<K, Arc<T>>>>;

/// The table for `key` from `cache`: built by `build` on first use, then
/// shared — a warm lookup clones an `Arc` and allocates nothing.
pub(crate) fn memoized<K: Eq + Hash, T>(
    cache: &'static TableCache<K, T>,
    key: K,
    build: impl FnOnce() -> T,
) -> Arc<T> {
    let mut map = cache
        .get_or_init(Default::default)
        .lock()
        .expect("table cache lock");
    Arc::clone(map.entry(key).or_insert_with(|| Arc::new(build())))
}

/// Steering vector for an `elements`-antenna λ/2 ULA at bearing `theta`
/// (radians from the array axis).
pub fn ula_steering(elements: usize, theta: f64) -> CVector {
    CVector::from_fn(elements, |m| Complex64::cis(m as f64 * PI * theta.cos()))
}

/// Precomputed steering vectors for an `elements`-antenna λ/2 ULA over a
/// uniform `bins`-bearing scan.
///
/// Every spectrum scan (MUSIC, Bartlett, MVDR, the elevation path through
/// MUSIC) evaluates some quadratic form `f(a(θ))` at the same `bins`
/// bearings for every frame, but `a(θ)` depends only on `(elements, bins)`
/// — never on the data. This table computes the vectors once (sin/cos per
/// element per bin) and [`SteeringTable::shared`] memoizes tables
/// process-wide, so a six-AP deployment pays the trigonometry exactly once.
///
/// Only the half circle `[0, π]` is stored: a plain ULA's steering repeats
/// mirror-symmetrically (`cos θ = cos(−θ)`), which is exactly why its
/// spectra are mirrored (§2.3.4). `SteeringTable::scan` reproduces the
/// half-scan-plus-mirror loop all the estimators previously hand-rolled.
#[derive(Clone, Debug)]
pub struct SteeringTable {
    elements: usize,
    bins: usize,
    /// `bins/2 + 1` vectors for θ = i·2π/bins, i in `0..=bins/2`.
    vectors: Vec<CVector>,
    /// The same vectors as bin-minor split re/im slabs: element `j` of
    /// vector `i` sits at `[j * stride + i]`, with `stride` the vector
    /// count padded to a [`PROJECTION_BLOCK`] multiple (padding is zero).
    /// The layout [`NoiseSubspace::batch_projection`] consumes.
    stride: usize,
    bin_re: Vec<f64>,
    bin_im: Vec<f64>,
}

impl SteeringTable {
    /// Builds the table for an `elements`-antenna ULA scanned at `bins`
    /// uniform bearings over the full circle.
    pub fn new(elements: usize, bins: usize) -> Self {
        assert!(elements >= 1, "need at least one element");
        assert!(bins >= 8, "a scan needs a reasonable resolution");
        let half = bins / 2;
        let vectors: Vec<CVector> = (0..=half)
            .map(|i| ula_steering(elements, i as f64 * TAU / bins as f64))
            .collect();
        let stride = vectors.len().next_multiple_of(PROJECTION_BLOCK);
        let mut bin_re = vec![0.0; elements * stride];
        let mut bin_im = vec![0.0; elements * stride];
        for (i, v) in vectors.iter().enumerate() {
            for (j, z) in v.iter().enumerate() {
                bin_re[j * stride + i] = z.re;
                bin_im[j * stride + i] = z.im;
            }
        }
        Self {
            elements,
            bins,
            vectors,
            stride,
            bin_re,
            bin_im,
        }
    }

    /// The process-wide shared table for `(elements, bins)`: built on first
    /// use, then reused by every subsequent scan with the same shape.
    pub fn shared(elements: usize, bins: usize) -> Arc<SteeringTable> {
        static CACHE: TableCache<(usize, usize), SteeringTable> = OnceLock::new();
        memoized(&CACHE, (elements, bins), || {
            SteeringTable::new(elements, bins)
        })
    }

    /// The precomputed steering vector for bin `i` (`i ≤ bins/2`).
    pub fn vector(&self, i: usize) -> &CVector {
        &self.vectors[i]
    }

    /// Evaluates `f(a(θ))` over the stored half circle and mirrors the
    /// result to `[0, 2π)` — the shared scan loop of every ULA estimator.
    /// Values are clamped to be non-negative.
    pub(crate) fn scan(&self, f: impl Fn(&CVector) -> f64) -> AoaSpectrum {
        let bins = self.bins;
        let mut values = vec![0.0; bins];
        for (i, a) in self.vectors.iter().enumerate() {
            let p = f(a).max(0.0);
            values[i] = p;
            // Bin 0 and, for an even count, bin bins/2 mirror onto
            // themselves; an odd count has no such middle bin.
            if i != 0 && 2 * i != bins {
                values[bins - i] = p;
            }
        }
        AoaSpectrum::from_values(values)
    }

    /// The MUSIC sweep as one batched SoA kernel call: evaluates
    /// `P(θ) = 1 / max(aᴴ·E_N·E_Nᴴ·a, 1e-12)` for every stored
    /// half-circle vector via [`NoiseSubspace::batch_projection`] and
    /// mirrors to the full circle. Every bin is bit-identical to
    /// `1 / max(noise.projection(self.vector(i)), 1e-12)`.
    ///
    /// # Panics
    /// Panics if `noise` was built for a different element count.
    pub fn scan_projection(&self, noise: &NoiseSubspace) -> AoaSpectrum {
        let mut values = Vec::new();
        self.scan_projection_into(noise, &mut values);
        AoaSpectrum::from_values(values)
    }

    /// [`Self::scan_projection`]'s values, written into `values` (resized
    /// to `bins`), with no temporaries.
    pub(crate) fn scan_projection_into(&self, noise: &NoiseSubspace, values: &mut Vec<f64>) {
        assert_eq!(
            noise.elements(),
            self.elements,
            "noise subspace element count must match the steering table"
        );
        let bins = self.bins;
        let half = bins / 2;
        values.clear();
        values.resize(bins, 0.0);
        noise.batch_projection(
            &self.bin_re,
            &self.bin_im,
            self.stride,
            &mut values[..=half],
        );
        for v in &mut values[..=half] {
            *v = (1.0 / v.max(1e-12)).max(0.0);
        }
        for i in 1..bins.div_ceil(2) {
            values[bins - i] = values[i];
        }
    }
}

/// Steering vector for arbitrary element positions `positions` (meters, in
/// the array frame where +x is the array axis) at bearing `theta`.
pub(crate) fn general_steering(positions: &[Point], theta: f64) -> CVector {
    let u = Point::unit(theta);
    let lambda = wavelength();
    CVector::from_fn(positions.len(), |m| {
        Complex64::cis(2.0 * PI * positions[m].dot(u) / lambda)
    })
}

/// Element positions in the array frame for a λ/2 ULA with an optional
/// off-row element (matching `at_channel::AntennaArray`'s layout: in-row
/// elements centered on the origin, off-row element λ/4 perpendicular from
/// element 0 — see `at_channel::array::offrow_offset` for why λ/4).
pub(crate) fn array_frame_positions(elements: usize, offrow: bool) -> Vec<Point> {
    let s = half_wavelength();
    let mut ps: Vec<Point> = (0..elements)
        .map(|m| pt((m as f64 - (elements as f64 - 1.0) / 2.0) * s, 0.0))
        .collect();
    if offrow {
        let first = ps[0];
        ps.push(pt(first.x, at_channel::array::offrow_offset()));
    }
    ps
}

/// Element positions in the array frame for a uniform circular array with
/// λ/2 neighbor chords (matching `at_channel::AntennaArray::uca`): element
/// `m` sits at angle `2πm/M` on a circle of radius `s/(2·sin(π/M))`.
pub fn circular_frame_positions(elements: usize) -> Vec<Point> {
    assert!(
        elements >= 3,
        "a circular array needs at least three elements"
    );
    let r = half_wavelength() / (2.0 * (PI / elements as f64).sin());
    (0..elements)
        .map(|m| {
            let ang = m as f64 * std::f64::consts::TAU / elements as f64;
            pt(r * ang.cos(), r * ang.sin())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_channel::geometry::angle_diff;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn ula_steering_has_unit_magnitude_entries() {
        let a = ula_steering(8, 1.1);
        for z in a.iter() {
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
        assert_eq!(a.len(), 8);
        assert_eq!(a[0], Complex64::ONE);
    }

    #[test]
    fn broadside_steering_is_all_ones() {
        let a = ula_steering(6, FRAC_PI_2);
        for z in a.iter() {
            assert!((*z - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn endfire_steering_alternates_sign() {
        let a = ula_steering(4, 0.0);
        for (m, z) in a.iter().enumerate() {
            let expect = if m % 2 == 0 {
                Complex64::ONE
            } else {
                Complex64::real(-1.0)
            };
            assert!((*z - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn mirror_bearings_are_indistinguishable_for_ula() {
        // cos(θ) = cos(−θ): a plain ULA can't tell the sides apart (§2.3.4).
        let up = ula_steering(8, 0.7);
        let down = ula_steering(8, -0.7);
        for (a, b) in up.iter().zip(down.iter()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn general_steering_matches_ula_modulo_centering() {
        // The centered general layout differs from the element-0-referenced
        // ULA form by a global phase only.
        let theta = 1.234;
        let g = general_steering(&array_frame_positions(8, false), theta);
        let u = ula_steering(8, theta);
        let ratio0 = g[0] / u[0];
        for m in 0..8 {
            let r = g[m] / u[m];
            assert!((r - ratio0).abs() < 1e-9, "element {m}");
        }
    }

    #[test]
    fn offrow_element_breaks_mirror_symmetry() {
        let ps = array_frame_positions(8, true);
        assert_eq!(ps.len(), 9);
        let up = general_steering(&ps, 0.7);
        let down = general_steering(&ps, -0.7);
        // In-row entries agree...
        for m in 0..8 {
            assert!((up[m] - down[m]).abs() < 1e-12);
        }
        // ...but the off-row entry distinguishes the sides.
        assert!((up[8] - down[8]).abs() > 0.5);
    }

    #[test]
    fn circular_steering_has_no_mirror_ambiguity() {
        let ps = circular_frame_positions(8);
        let up = general_steering(&ps, 0.9);
        let down = general_steering(&ps, -0.9);
        // Unlike the ULA, a UCA's steering differs strongly across sides.
        let mut diff = 0.0;
        for m in 0..8 {
            diff += (up[m] - down[m]).abs();
        }
        assert!(diff > 1.0, "UCA should distinguish mirror bearings: {diff}");
    }

    #[test]
    fn circular_positions_match_channel_array() {
        use at_channel::AntennaArray;
        let array = AntennaArray::uca(pt(0.0, 0.0), 0.0, 8);
        let frame = circular_frame_positions(8);
        for (m, p) in array.element_positions().iter().enumerate() {
            assert!((p.x - frame[m].x).abs() < 1e-12);
            assert!((p.y - frame[m].y).abs() < 1e-12);
        }
    }

    #[test]
    fn table_vectors_match_direct_steering() {
        let table = SteeringTable::new(8, 720);
        for i in [0usize, 1, 97, 360] {
            let direct = ula_steering(8, i as f64 * TAU / 720.0);
            for (a, b) in table.vector(i).iter().zip(direct.iter()) {
                assert_eq!(*a, *b, "bin {i}");
            }
        }
    }

    #[test]
    fn table_scan_matches_hand_rolled_loop() {
        // The scan must be bit-identical to the loop it replaced: evaluate
        // over [0, π] at i·2π/bins, mirror to the full circle.
        let table = SteeringTable::new(6, 360);
        let f = |a: &CVector| a.iter().map(|z| z.re).sum::<f64>().max(0.0);
        let spec = table.scan(|a| a.iter().map(|z| z.re).sum::<f64>());
        for i in 0..=180 {
            let direct = f(&ula_steering(6, i as f64 * TAU / 360.0));
            assert_eq!(spec.values()[i], direct, "bin {i}");
            if i != 0 && i != 180 {
                assert_eq!(spec.values()[360 - i], direct, "mirror of bin {i}");
            }
        }
    }

    #[test]
    fn odd_bin_counts_mirror_every_bin() {
        // An odd count has no bin at π: the stored half circle ends at
        // bin bins/2 and its mirror bins − bins/2 is a distinct bin.
        let a = ula_steering(6, 1.0);
        let rxx = at_linalg::CMatrix::from_fn(6, 6, |r, c| {
            a[r] * a[c].conj() + Complex64::new(if r == c { 0.1 } else { 0.0 }, 0.0)
        });
        let noise = NoiseSubspace::from_eigen(&at_linalg::eigh(&rxx).expect("hermitian"), 1);
        for bins in [9, 721] {
            let table = SteeringTable::new(6, bins);
            let scanned = table.scan(|a| 1.0 + a.iter().map(|z| z.re).sum::<f64>().abs());
            let projected = table.scan_projection(&noise);
            for spec in [&scanned, &projected] {
                let v = spec.values();
                assert_eq!(v.len(), bins);
                for k in 1..bins {
                    assert!(v[k] > 0.0, "bins {bins}: bin {k} never written");
                    assert_eq!(v[k], v[bins - k], "bins {bins}: bin {k} vs {}", bins - k);
                }
            }
        }
    }

    #[test]
    fn shared_table_is_memoized() {
        let a = SteeringTable::shared(8, 720);
        let b = SteeringTable::shared(8, 720);
        assert!(Arc::ptr_eq(&a, &b));
        let c = SteeringTable::shared(4, 720);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.elements, 4);
        assert_eq!(c.bins, 720);
    }

    #[test]
    fn steering_matches_channel_phases() {
        // The whole point: far-field phases from the channel simulator must
        // match the plane-wave steering model.
        use at_channel::{AntennaArray, ChannelSim, Floorplan, Transmitter};
        let fp = Floorplan::empty();
        let sim = ChannelSim::new(&fp);
        let array = AntennaArray::ula(pt(0.0, 0.0), 0.0, 8);
        for theta_deg in [20.0f64, 45.0, 90.0, 140.0] {
            let theta = theta_deg.to_radians();
            let tx = Transmitter::at(array.point_at(theta, 2000.0));
            let rx = sim.receive(
                &tx,
                &array,
                |_| Complex64::ONE,
                0.0,
                0.25e-6,
                at_dsp::SAMPLE_RATE_HZ,
            );
            let a = ula_steering(8, theta);
            for m in 0..8 {
                let measured = (rx[m][0] / rx[0][0]).arg();
                let model = (a[m] / a[0]).arg();
                assert!(
                    angle_diff(measured, model) < 0.01,
                    "θ={theta_deg}°, element {m}: {measured} vs {model}"
                );
            }
        }
    }
}
