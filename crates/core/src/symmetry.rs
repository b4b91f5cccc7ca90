//! Array symmetry removal (paper §2.3.4).
//!
//! A linear array cannot tell which side a signal arrives from: `cosθ` is
//! even, so the MUSIC spectrum is a 180° spectrum mirrored to 360°. With
//! many APs the synthesis step washes the ghost side out, but with few APs
//! it produces false locations. ArrayTrack's fix: capture a ninth antenna
//! *not in the row* (via diversity synthesis), compute "the total power on
//! each side, and remove the half with less power".
//!
//! We score each side with a Bartlett beamformer over the full
//! (in-row + off-row) array, whose steering vectors are *not* mirror
//! symmetric, then zero the weaker half of the MUSIC spectrum.

use crate::spectrum::{bin_theta, nearest_bin, AoaSpectrum, BinPeak};
use crate::steering::{array_frame_positions, general_steering, memoized, TableCache};
use at_channel::geometry::Point;
use at_dsp::SnapshotBlock;
use at_linalg::Complex64;
use std::f64::consts::{PI, TAU};
use std::sync::{Arc, OnceLock};

/// Which half-plane a signal is on, as decided by the off-row antenna.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Bearings in `(0, π)` — the off-row antenna's side.
    Upper,
    /// Bearings in `(π, 2π)`.
    Lower,
}

/// Decides the true side of arrival from the captured block by scanning the
/// full-array Bartlett beamformer over the circle and taking the side of
/// its global maximum. (Summing *all* power per side, as the paper words
/// it, washes out the off-row antenna's small discrimination near the array
/// axis; comparing the mirror-image peak values keeps it.)
pub fn dominant_side(block: &SnapshotBlock, elements: usize) -> Side {
    let positions = array_frame_positions(elements, true);
    let rxx = block.correlation_matrix();
    let bins = 720;
    let mut best_theta = 0.0;
    let mut best = f64::NEG_INFINITY;
    for i in 0..bins {
        let theta = i as f64 * TAU / bins as f64;
        let a = general_steering(&positions, theta);
        let p = a.dot(&rxx.mul_vec(&a)).re;
        if p > best {
            best = p;
            best_theta = theta;
        }
    }
    if best_theta < PI {
        Side::Upper
    } else {
        Side::Lower
    }
}

/// Removes the mirror ambiguity from a MUSIC spectrum: zeroes the half of
/// the circle with less full-array power (paper §2.3.4, taken literally).
/// Returns the decided side.
///
/// In strong multipath a reflection on the ghost side can win the whole
/// -side vote and erase the true direct path; prefer
/// [`resolve_mirror_peaks`] (the pipeline default) which decides per peak.
pub(crate) fn remove_symmetry(
    spectrum: &mut AoaSpectrum,
    block: &SnapshotBlock,
    elements: usize,
) -> Side {
    let side = dominant_side(block, elements);
    let keep_upper = side == Side::Upper;
    let n = spectrum.bins();
    for i in 0..n {
        let theta = i as f64 * TAU / n as f64;
        let upper = theta < PI;
        if upper != keep_upper {
            spectrum.values_mut()[i] = 0.0;
        }
    }
    side
}

/// Attenuation applied to a resolved ghost lobe (strong veto, but not a
/// hard zero: a wrong call must not erase an AP's contribution entirely).
const GHOST_ATTENUATION: f64 = 0.1;

/// Minimum phase separation (radians) between the two mirror hypotheses'
/// off-row predictions before a decision is attempted. Separation is
/// `2π·(offset/λ)·2·sinθ = π·sinθ`; below this the off-row antenna simply
/// can't tell the sides apart and both lobes are kept.
const MIN_DISCRIMINATION: f64 = 0.5;

/// Relative decision margin: the winning hypothesis must beat the loser by
/// this fraction of the evidence magnitude, or the pair is left alone.
const MIN_MARGIN: f64 = 0.3;

/// Everything [`resolve_mirror_peaks`] derives from a peak's bearing
/// alone, for every upper-half bin `i` (`0 < θ_i < π`) of a `bins`-bin
/// spectrum and an `elements`-antenna array: the same expressions the
/// per-peak rule evaluates, evaluated once per shape.
#[derive(Debug)]
struct MirrorTable {
    /// Bins `1..upper` are the upper half-plane (`0 < θ_i < π`).
    upper: usize,
    /// `π·sinθ_i`: the off-row phase separation of the two hypotheses.
    discrimination: Vec<f64>,
    /// `conj(a_in(θ_i))`, `elements` per bin: the in-row beamformer.
    beam: Vec<Complex64>,
    /// Predicted off-row phasors for `θ_i` and its mirror `2π − θ_i`.
    predict_up: Vec<Complex64>,
    predict_down: Vec<Complex64>,
    /// The bins `θ_i` and `2π − θ_i` round to: where a lobe walk starts.
    lobe_up: Vec<usize>,
    lobe_down: Vec<usize>,
}

impl MirrorTable {
    fn new(elements: usize, bins: usize) -> Self {
        let positions = array_frame_positions(elements, true);
        let lambda = at_channel::wavelength();
        let predict = |t: f64| {
            let u = Point::unit(t);
            Complex64::cis(2.0 * PI * positions[elements].dot(u) / lambda)
        };
        let upper = (1..bins)
            .find(|&i| bin_theta(i, bins) >= PI)
            .unwrap_or(bins);
        let mut table = Self {
            upper,
            discrimination: Vec::with_capacity(upper),
            beam: Vec::with_capacity(upper * elements),
            predict_up: Vec::with_capacity(upper),
            predict_down: Vec::with_capacity(upper),
            lobe_up: Vec::with_capacity(upper),
            lobe_down: Vec::with_capacity(upper),
        };
        // Bin 0 is a placeholder row, so bins index the table directly.
        for i in 0..upper {
            let theta = bin_theta(i, bins);
            let mirror = TAU - theta;
            table.discrimination.push(PI * theta.sin());
            let a_in = general_steering(&positions[..elements], theta);
            table.beam.extend(a_in.iter().map(|z| z.conj()));
            table.predict_up.push(predict(theta));
            table.predict_down.push(predict(mirror));
            table.lobe_up.push(nearest_bin(theta, bins));
            table.lobe_down.push(nearest_bin(mirror, bins));
        }
        table
    }

    /// The process-wide table for `(elements, bins)`.
    fn shared(elements: usize, bins: usize) -> Arc<Self> {
        static CACHE: TableCache<(usize, usize), MirrorTable> = OnceLock::new();
        memoized(&CACHE, (elements, bins), || Self::new(elements, bins))
    }
}

/// Per-peak mirror resolution (the pipeline's default §2.3.4 realization).
///
/// For each spectrum peak pair `(θ, 2π−θ)`:
/// 1. beamform the in-row antennas toward the (side-agnostic) bearing to
///    isolate that path's waveform `ŝ(t)`;
/// 2. correlate the off-row antenna against `ŝ(t)` — the phase of that
///    correlation is the off-row antenna's measured phase for this path;
/// 3. score it against the two hypotheses' predicted phases and attenuate
///    the loser's lobe.
///
/// Skips pairs where the hypotheses are nearly indistinguishable (near the
/// array axis) or the evidence margin is small, so an uncertain decision
/// never destroys information.
///
/// Peaks sit on bins, so everything that depends on the bearing alone
/// comes from a table cached per `(elements, bins)`; a warm call
/// allocates nothing.
pub fn resolve_mirror_peaks(spectrum: &mut AoaSpectrum, block: &SnapshotBlock, elements: usize) {
    crate::pipeline::with_frame_scratch(|scratch| {
        resolve_mirror_peaks_with(spectrum, block, elements, &mut scratch.peaks)
    });
}

/// [`resolve_mirror_peaks`] with the peak list in caller-owned storage.
pub(crate) fn resolve_mirror_peaks_with(
    spectrum: &mut AoaSpectrum,
    block: &SnapshotBlock,
    elements: usize,
    peaks: &mut Vec<BinPeak>,
) {
    assert_eq!(
        block.antennas(),
        elements + 1,
        "expected {elements} in-row antennas plus the off-row element"
    );
    let table = MirrorTable::shared(elements, spectrum.bins());
    let offrow = block.stream(elements);

    // Work on a snapshot of the peak list (in the upper half-plane only —
    // each has its mirror in the lower half).
    spectrum.peak_bins_into(0.05, peaks);
    for &BinPeak { bin: i, .. } in peaks.iter() {
        if i == 0 || i >= table.upper {
            continue;
        }
        if table.discrimination[i].abs() < MIN_DISCRIMINATION {
            continue;
        }

        // In-row beamformer toward the bearing (side-agnostic: the in-row
        // steering is identical for θ and its mirror). Off-row correlation
        // c = Σ_t x9(t)·conj(ŝ(t)).
        let beam = &table.beam[i * elements..(i + 1) * elements];
        let mut c = Complex64::ZERO;
        for (t, &x_off) in offrow.iter().enumerate() {
            let mut shat = Complex64::ZERO;
            for (m, &w) in beam.iter().enumerate() {
                shat += w * block.stream(m)[t];
            }
            c += x_off * shat.conj();
        }
        if c.abs() == 0.0 {
            continue;
        }

        // Score the measured phase against each hypothesis' prediction.
        let score_up = (c * table.predict_up[i].conj()).re;
        let score_down = (c * table.predict_down[i].conj()).re;
        if (score_up - score_down).abs() < MIN_MARGIN * c.abs() {
            continue;
        }
        let loser = if score_up > score_down {
            table.lobe_down[i]
        } else {
            table.lobe_up[i]
        };
        spectrum.scale_lobe_at(loser, GHOST_ATTENUATION);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::music::{music_spectrum, MusicConfig};
    use at_channel::geometry::pt;
    use at_channel::{AntennaArray, ChannelSim, Floorplan, Transmitter};
    use at_linalg::Complex64;

    /// Captures a 9-row snapshot block (8 in-row + off-row) from a client
    /// at bearing `theta` via the channel simulator.
    fn capture_at(theta: f64, dist: f64) -> SnapshotBlock {
        let fp = Floorplan::empty();
        let sim = ChannelSim::new(&fp);
        let array = AntennaArray::ula(pt(0.0, 0.0), 0.0, 8).with_offrow_element();
        let tx = Transmitter::at(array.point_at(theta, dist));
        let rx = sim.receive(
            &tx,
            &array,
            |t| Complex64::cis(TAU * 1e6 * t),
            0.0,
            0.5e-6,
            at_dsp::SAMPLE_RATE_HZ,
        );
        SnapshotBlock::new(rx.into_iter().map(|s| s[..10].to_vec()).collect())
    }

    #[test]
    fn upper_source_detected_upper() {
        for deg in [30.0f64, 75.0, 120.0] {
            let block = capture_at(deg.to_radians(), 10.0);
            assert_eq!(dominant_side(&block, 8), Side::Upper, "{deg}°");
        }
    }

    #[test]
    fn lower_source_detected_lower() {
        for deg in [200.0f64, 270.0, 330.0] {
            let block = capture_at(deg.to_radians(), 10.0);
            assert_eq!(dominant_side(&block, 8), Side::Lower, "{deg}°");
        }
    }

    #[test]
    fn removal_zeroes_ghost_half() {
        let theta = 250f64.to_radians();
        let block = capture_at(theta, 8.0);
        // MUSIC from the in-row antennas only (mirror-symmetric).
        let inrow = SnapshotBlock::new((0..8).map(|m| block.stream(m).to_vec()).collect());
        let mut spec = music_spectrum(&inrow, &MusicConfig::default());
        let ghost = TAU - theta; // mirrored bearing in (0, π)
        assert!(spec.has_peak_near(ghost, 0.05, 0.3), "mirror peak expected");
        let side = remove_symmetry(&mut spec, &block, 8);
        assert_eq!(side, Side::Lower);
        assert!(
            !spec.has_peak_near(ghost, 0.05, 0.3),
            "ghost must be removed"
        );
        assert!(
            spec.has_peak_near(theta, 0.05, 0.3),
            "true peak must survive"
        );
    }

    /// The θ-form lobe walk the bin tables replaced: `% n` wraps from
    /// the bin the bearing rounds to.
    fn scale_lobe_by_theta(values: &mut [f64], theta: f64, factor: f64) {
        let n = values.len();
        let center = ((theta.rem_euclid(TAU)) / (TAU / n as f64)).round() as usize % n;
        let mut apex = center;
        loop {
            let up = (apex + 1) % n;
            let down = (apex + n - 1) % n;
            if values[up] > values[apex] {
                apex = up;
            } else if values[down] > values[apex] {
                apex = down;
            } else {
                break;
            }
        }
        let mut left = apex;
        while values[(left + n - 1) % n] < values[left] {
            left = (left + n - 1) % n;
            if left == apex {
                break;
            }
        }
        let mut right = apex;
        while values[(right + 1) % n] < values[right] {
            right = (right + 1) % n;
            if right == apex {
                break;
            }
        }
        let mut i = left;
        loop {
            values[i] *= factor;
            if i == right {
                break;
            }
            i = (i + 1) % n;
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn bin_lobe_scaling_matches_theta_form_at_every_bin() {
        for bins in [720, 360, 64, 9, 8] {
            // Several lobes with ripple, one straddling bin 0, so walks
            // start, climb and stop all around the circle.
            let base =
                AoaSpectrum::from_fn(bins, |t| 1.5 + (3.0 * t).cos() + 0.3 * (7.0 * t).sin());
            for i in 0..bins {
                let mut by_bin = base.clone();
                by_bin.scale_lobe(base.theta_of(i), GHOST_ATTENUATION);
                let mut by_theta = base.values().to_vec();
                scale_lobe_by_theta(&mut by_theta, base.theta_of(i), GHOST_ATTENUATION);
                assert_eq!(
                    bits(by_bin.values()),
                    bits(&by_theta),
                    "bins {bins}, bin {i}"
                );
            }
            // The mirror table's lobe starts are bin-exact for both
            // hypotheses, and walk exactly like the θ form.
            let table = MirrorTable::new(8, bins);
            assert!(bin_theta(table.upper - 1, bins) < PI && bin_theta(table.upper, bins) >= PI);
            for i in 1..table.upper {
                assert_eq!(table.lobe_up[i], i, "bins {bins}");
                assert_eq!(table.lobe_down[i], bins - i, "bins {bins}");
                let theta = base.theta_of(i);
                for (start, bearing) in
                    [(table.lobe_up[i], theta), (table.lobe_down[i], TAU - theta)]
                {
                    let mut by_bin = base.clone();
                    by_bin.scale_lobe_at(start, GHOST_ATTENUATION);
                    let mut by_theta = base.values().to_vec();
                    scale_lobe_by_theta(&mut by_theta, bearing, GHOST_ATTENUATION);
                    assert_eq!(
                        bits(by_bin.values()),
                        bits(&by_theta),
                        "bins {bins}, bin {i}"
                    );
                }
            }
        }
    }

    /// The per-peak rule as it read before its bearing tables: every
    /// bearing expression evaluated per peak, per frame.
    fn resolve_by_theta(spectrum: &mut AoaSpectrum, block: &SnapshotBlock, elements: usize) {
        let positions = array_frame_positions(elements, true);
        let lambda = at_channel::wavelength();
        let k = block.snapshots();
        let peaks: Vec<f64> = spectrum
            .find_peaks(0.05)
            .iter()
            .map(|p| p.theta)
            .filter(|&t| t > 0.0 && t < PI)
            .collect();
        for theta in peaks {
            if (PI * theta.sin()).abs() < MIN_DISCRIMINATION {
                continue;
            }
            let mirror = TAU - theta;
            let a_in = general_steering(&positions[..elements], theta);
            let mut c = Complex64::ZERO;
            for t in 0..k {
                let mut shat = Complex64::ZERO;
                for m in 0..elements {
                    shat += a_in[m].conj() * block.stream(m)[t];
                }
                c += block.stream(elements)[t] * shat.conj();
            }
            if c.abs() == 0.0 {
                continue;
            }
            let predict = |t: f64| {
                let u = Point::unit(t);
                Complex64::cis(2.0 * PI * positions[elements].dot(u) / lambda)
            };
            let score_up = (c * predict(theta).conj()).re;
            let score_down = (c * predict(mirror).conj()).re;
            if (score_up - score_down).abs() < MIN_MARGIN * c.abs() {
                continue;
            }
            let loser = if score_up > score_down { mirror } else { theta };
            let mut values = spectrum.values().to_vec();
            scale_lobe_by_theta(&mut values, loser, GHOST_ATTENUATION);
            spectrum.values_mut().copy_from_slice(&values);
        }
    }

    #[test]
    fn table_resolution_matches_theta_form() {
        let mut decided = 0;
        for deg in (3..360).step_by(11) {
            // Two paths, so spectra carry several peaks per side.
            let a = capture_at((deg as f64).to_radians(), 9.0);
            let b = capture_at(((deg * 7 + 40) % 360) as f64 * PI / 180.0, 6.0);
            let block = SnapshotBlock::new(
                (0..9)
                    .map(|m| {
                        let (sa, sb) = (a.stream(m), b.stream(m));
                        sa.iter().zip(sb).map(|(x, y)| *x + y.scale(0.6)).collect()
                    })
                    .collect(),
            );
            let inrow = SnapshotBlock::new((0..8).map(|m| block.stream(m).to_vec()).collect());
            let raw = music_spectrum(&inrow, &MusicConfig::default());
            let mut by_table = raw.clone();
            resolve_mirror_peaks(&mut by_table, &block, 8);
            let mut by_theta = raw.clone();
            resolve_by_theta(&mut by_theta, &block, 8);
            assert_eq!(bits(by_table.values()), bits(by_theta.values()), "{deg}°");
            decided += usize::from(by_table != raw);
        }
        assert!(decided > 20, "only {decided} captures exercised a decision");
    }
}
