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

use crate::spectrum::AoaSpectrum;
use crate::steering::{array_frame_positions, general_steering};
use at_dsp::SnapshotBlock;
use std::f64::consts::{PI, TAU};

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
pub fn resolve_mirror_peaks(spectrum: &mut AoaSpectrum, block: &SnapshotBlock, elements: usize) {
    assert_eq!(
        block.antennas(),
        elements + 1,
        "expected {elements} in-row antennas plus the off-row element"
    );
    let positions = array_frame_positions(elements, true);
    let lambda = at_channel::wavelength();
    let k = block.snapshots();

    // Work on a snapshot of the peak list (in the upper half-plane only —
    // each has its mirror in the lower half).
    let peaks: Vec<f64> = spectrum
        .find_peaks(0.05)
        .iter()
        .map(|p| p.theta)
        .filter(|&t| t > 0.0 && t < PI)
        .collect();

    for theta in peaks {
        let discrimination = PI * theta.sin();
        if discrimination.abs() < MIN_DISCRIMINATION {
            continue;
        }
        let mirror = TAU - theta;

        // In-row beamformer toward the bearing (side-agnostic: the in-row
        // steering is identical for θ and its mirror).
        let a_in = general_steering(&positions[..elements], theta);
        // Off-row correlation c = Σ_t x9(t)·conj(ŝ(t)).
        let mut c = at_linalg::Complex64::ZERO;
        for t in 0..k {
            let mut shat = at_linalg::Complex64::ZERO;
            for m in 0..elements {
                shat += a_in[m].conj() * block.stream(m)[t];
            }
            c += block.stream(elements)[t] * shat.conj();
        }
        if c.abs() == 0.0 {
            continue;
        }

        // Predicted off-row phasor per hypothesis.
        let predict = |t: f64| {
            let u = at_channel::geometry::Point::unit(t);
            at_linalg::Complex64::cis(2.0 * PI * positions[elements].dot(u) / lambda)
        };
        let score_up = (c * predict(theta).conj()).re;
        let score_down = (c * predict(mirror).conj()).re;
        if (score_up - score_down).abs() < MIN_MARGIN * c.abs() {
            continue;
        }
        let loser = if score_up > score_down { mirror } else { theta };
        spectrum.scale_lobe(loser, GHOST_ATTENUATION);
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
}
