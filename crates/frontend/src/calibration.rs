//! One-time AP phase calibration (paper §3, eqs. 9–12).
//!
//! A USRP2 feeds a continuous-wave tone through a splitter and cables (the
//! "external paths") into every radio. Measuring each radio's phase against
//! radio 0 yields `Phoff1 = (Phexᵣ + Phinᵣ) − (Phex₀ + Phin₀)` — polluted by
//! the cable/splitter manufacturing differences `Phex`. Swapping the two
//! external paths and re-measuring gives `Phoff2 = (Phex₀ + Phinᵣ) −
//! (Phexᵣ + Phin₀)`; half the sum isolates the internal offset (eq. 11) and
//! half the difference the cable mismatch (eq. 12).

use crate::radio::FrontEnd;
use at_dsp::awgn::NoiseSource;
use at_dsp::SnapshotBlock;
use at_linalg::Complex64;
use rand::Rng;
use rand::SeedableRng;

/// The calibration tone source plus its imperfect external paths.
#[derive(Clone, Debug)]
pub struct CalibrationRig {
    /// Per-radio external path phase (splitter + cable), radians. Nominally
    /// identical cables differ slightly (paper: "small manufacturing
    /// imperfections exist for SMA splitters and cables").
    external_phases: Vec<f64>,
    /// Baseband tone frequency, Hz.
    pub tone_hz: f64,
    /// Number of tone samples averaged per measurement.
    pub samples: usize,
    /// Measurement SNR in dB (cabled, so very high).
    pub snr_db: f64,
}

impl CalibrationRig {
    /// A rig with per-cable imperfections up to ±`spread` radians.
    pub fn new(radios: usize, spread: f64, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Self {
            external_phases: (0..radios)
                .map(|_| rng.gen_range(-spread..=spread))
                .collect(),
            tone_hz: 1.0e6,
            samples: 64,
            snr_db: 40.0,
        }
    }

    /// The (simulation-internal) true external-path phase of cable `r`.
    #[cfg(test)]
    pub(crate) fn true_external_phase(&self, r: usize) -> f64 {
        self.external_phases[r]
    }

    /// Runs one calibration pass: feeds the tone through the external paths
    /// (optionally with cables `0` and `swap_with` exchanged) into the
    /// front end, and measures each radio's phase offset relative to
    /// radio 0 from the received samples.
    pub(crate) fn measure<R: Rng>(
        &self,
        fe: &FrontEnd,
        swap_with: Option<usize>,
        rng: &mut R,
    ) -> Vec<f64> {
        let radios = fe.radios();
        assert_eq!(radios, self.external_phases.len());
        let noise = NoiseSource::for_snr_db(self.snr_db);

        // Tone samples as received by each radio: the external path phase
        // rotates the tone before the radio's own capture rotation.
        let span = self.samples + 4;
        let streams: Vec<Vec<Complex64>> = (0..radios)
            .map(|r| {
                let mut cable = r;
                if let Some(s) = swap_with {
                    if r == 0 {
                        cable = s;
                    } else if r == s {
                        cable = 0;
                    }
                }
                let ext = Complex64::cis(self.external_phases[cable]);
                (0..span)
                    .map(|i| {
                        let t = i as f64 / fe.sample_rate;
                        let tone = Complex64::cis(std::f64::consts::TAU * self.tone_hz * t);
                        tone * ext + noise.sample(rng)
                    })
                    .collect()
            })
            .collect();

        let block = fe.capture(&streams, 0, self.samples);
        measure_relative_phases(&block)
    }

    /// The full two-pass procedure of §3: measure, swap each cable with
    /// cable 0 and re-measure, then apply eq. 11. Returns the recovered
    /// per-radio internal offsets relative to radio 0, plus the estimated
    /// external-path mismatches (eq. 12).
    pub fn calibrate<R: Rng>(&self, fe: &FrontEnd, rng: &mut R) -> Calibration {
        let pass1 = self.measure(fe, None, rng);
        let radios = fe.radios();
        let mut internal = vec![0.0; radios];
        let mut external_mismatch = vec![0.0; radios];
        for r in 1..radios {
            let pass2 = self.measure(fe, Some(r), rng);
            // Eq. 12 first: pass1 − pass2 = 2·(Phexᵣ − Phex₀). The cable
            // mismatch is small (< π/2), so halving the wrapped difference
            // is unambiguous.
            let mismatch = phase_sub(pass1[r], pass2[r]) / 2.0;
            external_mismatch[r] = mismatch;
            // Eq. 11, rearranged to avoid the ±π ambiguity of halving a
            // wrapped sum: internal = pass1 − mismatch.
            internal[r] = phase_sub(pass1[r], mismatch);
        }
        Calibration {
            offsets: internal,
            external_mismatch,
        }
    }
}

/// Recovered calibration state: everything the AP needs to undo its
/// oscillator offsets.
#[derive(Clone, Debug)]
pub struct Calibration {
    /// Internal oscillator offsets per radio, relative to radio 0 (radians).
    pub offsets: Vec<f64>,
    /// Estimated external path mismatch per cable, relative to cable 0.
    pub external_mismatch: Vec<f64>,
}

impl Calibration {
    /// An identity calibration (for perfect front ends).
    #[cfg(test)]
    pub(crate) fn identity(radios: usize) -> Self {
        Self {
            offsets: vec![0.0; radios],
            external_mismatch: vec![0.0; radios],
        }
    }

    /// Removes the recovered offsets from a captured block whose row `m`
    /// was captured by radio `radio_of[m]`.
    pub fn apply(&self, block: &SnapshotBlock, radio_of: &[usize]) -> SnapshotBlock {
        assert_eq!(block.antennas(), radio_of.len());
        let rows: Vec<Vec<Complex64>> = (0..block.antennas())
            .map(|m| {
                let rot = Complex64::cis(-self.offsets[radio_of[m]]);
                block.stream(m).iter().map(|z| *z * rot).collect()
            })
            .collect();
        SnapshotBlock::new(rows)
    }

    /// Convenience for the common wiring where row `m` belongs to radio
    /// `m % radios`.
    pub fn apply_modulo(&self, block: &SnapshotBlock) -> SnapshotBlock {
        let radios = self.offsets.len();
        let map: Vec<usize> = (0..block.antennas()).map(|m| m % radios).collect();
        self.apply(block, &map)
    }

    /// A copy of this calibration whose per-radio corrections have drifted
    /// by `drift[r]` radians (fault injection): the table no longer matches
    /// the hardware it was measured on — the slow oscillator walk and
    /// thermal drift a one-time CW calibration cannot track (§3 assumes
    /// "the offsets stay constant once the radios are powered on"; real
    /// deployments re-calibrate because they don't).
    ///
    /// # Panics
    /// Panics if `drift` doesn't cover every radio.
    pub fn with_drift(&self, drift: &[f64]) -> Calibration {
        assert_eq!(
            drift.len(),
            self.offsets.len(),
            "need one drift term per radio"
        );
        Calibration {
            offsets: self.offsets.iter().zip(drift).map(|(o, d)| o + d).collect(),
            external_mismatch: self.external_mismatch.clone(),
        }
    }
}

/// Measures each row's mean phase relative to row 0.
fn measure_relative_phases(block: &SnapshotBlock) -> Vec<f64> {
    let base = block.stream(0);
    (0..block.antennas())
        .map(|m| {
            let mut acc = Complex64::ZERO;
            for (a, b) in block.stream(m).iter().zip(base) {
                acc += *a * b.conj();
            }
            acc.arg()
        })
        .collect()
}

/// Circular-safe phase subtraction.
fn phase_sub(a: f64, b: f64) -> f64 {
    wrap_pi(a - b)
}

/// Wraps an angle into `(-π, π]`.
fn wrap_pi(x: f64) -> f64 {
    let tau = std::f64::consts::TAU;
    let mut y = x % tau;
    if y > std::f64::consts::PI {
        y -= tau;
    } else if y <= -std::f64::consts::PI {
        y += tau;
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    fn wrap_err(a: f64, b: f64) -> f64 {
        wrap_pi(a - b).abs()
    }

    #[test]
    fn single_pass_is_biased_by_cables() {
        let fe = FrontEnd::new(4, 11);
        let rig = CalibrationRig::new(4, 0.3, 22);
        let mut rng = StdRng::seed_from_u64(1);
        let measured = rig.measure(&fe, None, &mut rng);
        #[allow(clippy::needless_range_loop)]
        for r in 1..4 {
            let true_internal = wrap_pi(fe.true_offset(r) - fe.true_offset(0));
            let cable_bias = rig.true_external_phase(r) - rig.true_external_phase(0);
            // Single pass sees internal + cable bias, not internal alone.
            assert!(wrap_err(measured[r], wrap_pi(true_internal + cable_bias)) < 0.02);
            if cable_bias.abs() > 0.05 {
                assert!(wrap_err(measured[r], true_internal) > 0.02);
            }
        }
    }

    #[test]
    fn two_pass_swap_recovers_internal_offsets() {
        let fe = FrontEnd::new(8, 5);
        let rig = CalibrationRig::new(8, 0.4, 6);
        let mut rng = StdRng::seed_from_u64(2);
        let cal = rig.calibrate(&fe, &mut rng);
        for r in 1..8 {
            let truth = wrap_pi(fe.true_offset(r) - fe.true_offset(0));
            assert!(
                wrap_err(cal.offsets[r], truth) < 0.02,
                "radio {r}: {} vs {}",
                cal.offsets[r],
                truth
            );
        }
    }

    #[test]
    fn two_pass_recovers_cable_mismatch_too() {
        let fe = FrontEnd::new(4, 77);
        let rig = CalibrationRig::new(4, 0.2, 88);
        let mut rng = StdRng::seed_from_u64(3);
        let cal = rig.calibrate(&fe, &mut rng);
        for r in 1..4 {
            let truth = wrap_pi(rig.true_external_phase(r) - rig.true_external_phase(0));
            assert!(
                wrap_err(cal.external_mismatch[r], truth) < 0.02,
                "cable {r}: {} vs {}",
                cal.external_mismatch[r],
                truth
            );
        }
    }

    #[test]
    fn applying_calibration_cancels_offsets() {
        let fe = FrontEnd::new(4, 9);
        let rig = CalibrationRig::new(4, 0.3, 10);
        let mut rng = StdRng::seed_from_u64(4);
        let cal = rig.calibrate(&fe, &mut rng);

        // Capture a constant signal: rows differ only by radio offsets.
        let streams = vec![vec![Complex64::ONE; 16]; 4];
        let raw = fe.capture(&streams, 0, 8);
        let fixed = cal.apply_modulo(&raw);
        // After calibration every row should share radio 0's phase.
        let base = fixed.stream(0)[0];
        for m in 1..4 {
            let z = fixed.stream(m)[0];
            assert!(
                (z - base).abs() < 0.05,
                "row {m} not aligned: {z} vs {base}"
            );
        }
    }

    #[test]
    fn identity_calibration_is_noop() {
        let cal = Calibration::identity(2);
        let block = SnapshotBlock::new(vec![
            vec![Complex64::cis(0.4); 4],
            vec![Complex64::cis(1.2); 4],
        ]);
        let out = cal.apply_modulo(&block);
        for m in 0..2 {
            for (a, b) in out.stream(m).iter().zip(block.stream(m)) {
                assert!((*a - *b).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn perfect_cables_make_single_pass_sufficient() {
        let fe = FrontEnd::new(4, 13);
        let rig = CalibrationRig::new(4, 0.0, 14);
        let mut rng = StdRng::seed_from_u64(5);
        let measured = rig.measure(&fe, None, &mut rng);
        #[allow(clippy::needless_range_loop)]
        for r in 1..4 {
            let truth = wrap_pi(fe.true_offset(r) - fe.true_offset(0));
            assert!(wrap_err(measured[r], truth) < 0.02);
        }
    }

    #[test]
    fn wrap_pi_bounds() {
        for x in [-10.0, -3.15, 0.0, 3.15, 10.0, 100.0] {
            let w = wrap_pi(x);
            assert!(w > -std::f64::consts::PI - 1e-12 && w <= std::f64::consts::PI + 1e-12);
        }
    }
}
