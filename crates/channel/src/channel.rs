//! End-to-end baseband channel: waveform in, per-antenna samples out.
//!
//! This is the boundary the ArrayTrack algorithms see. For every traced
//! [`Path`] `p` and antenna `m`, the received
//! contribution is
//!
//! ```text
//! x_m(t) = g_p · e^{-j2π·d_pm/λ} · s(t − τ_p)
//! ```
//!
//! where `d_pm` is the exact 3D distance from the path's virtual source to
//! antenna `m`. Crucially the carrier phase uses the *per-antenna* distance
//! (this is where the AoA information lives) while the envelope delay uses
//! the path's array-center delay (the sub-nanosecond per-antenna envelope
//! differences are far below the 25 ns sample period — the standard
//! narrowband array assumption, paper §2.3.1).

use crate::array::{wavelength, AntennaArray};
use crate::floorplan::Floorplan;
use crate::polarization::polarization_loss;
use crate::propagation::{Path, PathTracer};
use at_linalg::Complex64;
use std::f64::consts::TAU;

/// A transmitting client.
#[derive(Clone, Copy, Debug)]
pub struct Transmitter {
    /// Plan-view position, meters.
    pub position: crate::geometry::Point,
    /// Antenna height above floor, meters.
    pub height: f64,
    /// Linear amplitude scale (√ of transmit power relative to unit).
    pub amplitude: f64,
    /// Polarization mismatch vs. the AP antennas, radians (§4.3.2).
    pub polarization_mismatch: f64,
    /// Carrier frequency offset of the client's oscillator vs. the AP's,
    /// Hz. Commodity 802.11 clients are specified to ±20 ppm (±~49 kHz at
    /// 2.44 GHz). The offset rotates the received baseband by
    /// `e^{j2πΔf·t}` — identically on every antenna, so MUSIC's
    /// correlation matrix is immune within a snapshot block, but samples
    /// taken 3.2 µs apart (diversity synthesis across S0/S1, §2.2) pick up
    /// a relative rotation that must be estimated and removed.
    pub cfo_hz: f64,
}

impl Transmitter {
    /// A unit-power, polarization-aligned client at 1.5 m height.
    pub fn at(position: crate::geometry::Point) -> Self {
        Self {
            position,
            height: 1.5,
            amplitude: 1.0,
            polarization_mismatch: 0.0,
            cfo_hz: 0.0,
        }
    }

    /// Sets the client height (paper §4.3.1 drops clients to the floor).
    pub fn with_height(mut self, height: f64) -> Self {
        self.height = height;
        self
    }

    /// Sets transmit amplitude (linear).
    pub fn with_amplitude(mut self, amplitude: f64) -> Self {
        self.amplitude = amplitude;
        self
    }

    /// Sets the polarization mismatch angle in radians.
    pub fn with_polarization_mismatch(mut self, psi: f64) -> Self {
        self.polarization_mismatch = psi;
        self
    }

    /// Sets the client's carrier frequency offset in Hz.
    pub fn with_cfo(mut self, cfo_hz: f64) -> Self {
        self.cfo_hz = cfo_hz;
        self
    }
}

/// The simulated multipath channel between clients and one AP array.
#[derive(Clone, Debug)]
pub struct ChannelSim<'a> {
    floorplan: &'a Floorplan,
}

impl<'a> ChannelSim<'a> {
    /// Channel over a floorplan with second-order reflections.
    pub fn new(floorplan: &'a Floorplan) -> Self {
        Self { floorplan }
    }

    /// Traces the propagation paths from a transmitter to the array center.
    pub(crate) fn paths(&self, tx: &Transmitter, array: &AntennaArray) -> Vec<Path> {
        PathTracer::new(self.floorplan).trace(tx.position, tx.height, array.center, array.height)
    }

    /// Received power (relative to unit TX power) summed over paths, at the
    /// array center — used to size noise for a target SNR.
    pub fn received_power(&self, tx: &Transmitter, array: &AntennaArray) -> f64 {
        let pol = polarization_loss(tx.polarization_mismatch);
        let amp2 = tx.amplitude * tx.amplitude;
        self.paths(tx, array)
            .iter()
            .map(|p| p.gain.norm_sqr())
            .sum::<f64>()
            * pol
            * amp2
    }

    /// Simulates reception of `waveform` (a function of time since the
    /// waveform's start) over `[t0, t0+duration)` at `sample_rate`,
    /// returning one sample stream per antenna (in-row elements first,
    /// then the off-row element if the array has one). Noiseless; callers
    /// add AWGN via `at_dsp::awgn` so they control the operating SNR.
    pub fn receive<W: Fn(f64) -> Complex64>(
        &self,
        tx: &Transmitter,
        array: &AntennaArray,
        waveform: W,
        t0: f64,
        duration: f64,
        sample_rate: f64,
    ) -> Vec<Vec<Complex64>> {
        let paths = self.paths(tx, array);
        self.receive_via_paths(&paths, tx, array, waveform, t0, duration, sample_rate)
    }

    /// Like [`Self::receive`] but with pre-traced paths (lets experiments
    /// inspect ground-truth bearings without re-tracing).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn receive_via_paths<W: Fn(f64) -> Complex64>(
        &self,
        paths: &[Path],
        tx: &Transmitter,
        array: &AntennaArray,
        waveform: W,
        t0: f64,
        duration: f64,
        sample_rate: f64,
    ) -> Vec<Vec<Complex64>> {
        let lambda = wavelength();
        let n = (duration * sample_rate).round() as usize;
        let positions = array.element_positions();
        let pol_amp = polarization_loss(tx.polarization_mismatch).sqrt() * tx.amplitude;

        // Precompute per-path, per-antenna complex coefficients.
        // coeff[p][m] = g_p · pol · e^{-j2π d_pm / λ}, with d_pm the exact
        // 3D distance from the virtual source to element m (vertical
        // layouts vary element heights — that's where elevation
        // information lives).
        let element_errors: Vec<Complex64> = (0..positions.len())
            .map(|m| array.element_error(m))
            .collect();
        let coeffs: Vec<Vec<Complex64>> = paths
            .iter()
            .map(|p| {
                positions
                    .iter()
                    .enumerate()
                    .map(|(m, q)| {
                        let dh = tx.height - array.element_height(m);
                        let d2 = p.image.distance(*q);
                        let d = (d2 * d2 + dh * dh).sqrt();
                        p.gain * Complex64::cis(-TAU * d / lambda) * pol_amp * element_errors[m]
                    })
                    .collect()
            })
            .collect();

        // The delayed envelope s(t − τ_p) is identical for every antenna
        // (narrowband assumption) — evaluate it once per (path, sample).
        let envelopes: Vec<Vec<Complex64>> = paths
            .iter()
            .map(|p| {
                let delay = p.delay();
                (0..n)
                    .map(|i| waveform(t0 + i as f64 / sample_rate - delay))
                    .collect()
            })
            .collect();

        // The client's CFO rotates the baseband identically on every
        // antenna, accumulating with absolute time.
        let cfo_rot: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(TAU * tx.cfo_hz * (t0 + i as f64 / sample_rate)))
            .collect();

        (0..positions.len())
            .map(|m| {
                (0..n)
                    .map(|i| {
                        let mut acc = Complex64::ZERO;
                        for (p, env) in envelopes.iter().enumerate() {
                            acc = acc.mul_add(coeffs[p][m], env[i]);
                        }
                        acc * cfo_rot[i]
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Material;
    use crate::geometry::{pt, seg};
    use at_dsp::preamble::{Preamble, LTS0_START_S, SAMPLE_RATE_HZ};
    use std::f64::consts::{FRAC_PI_2, PI};

    fn cw(t: f64) -> Complex64 {
        // A continuous tone at 1 MHz baseband; smooth so envelope delays
        // are visible as phase, not discontinuities.
        Complex64::cis(TAU * 1.0e6 * t)
    }

    #[test]
    fn broadside_source_arrives_in_phase() {
        let fp = Floorplan::empty();
        let sim = ChannelSim::new(&fp);
        let array = AntennaArray::ula(pt(0.0, 0.0), 0.0, 4);
        // Far broadside source (bearing 90°): equal distance to every element.
        let tx = Transmitter::at(pt(0.0, 500.0));
        let rx = sim.receive(&tx, &array, cw, 0.0, 1e-6, SAMPLE_RATE_HZ);
        let p0 = rx[0][5];
        for stream in &rx {
            assert!((stream[5] - p0).abs() < 1e-3 * p0.abs(), "not in phase");
        }
    }

    #[test]
    fn endfire_source_phase_steps_by_pi() {
        // Source along the axis (bearing 0): adjacent-element path-length
        // difference is λ/2 ⇒ phase step of π.
        let fp = Floorplan::empty();
        let sim = ChannelSim::new(&fp);
        let array = AntennaArray::ula(pt(0.0, 0.0), 0.0, 4);
        let tx = Transmitter::at(pt(2000.0, 0.0));
        let rx = sim.receive(&tx, &array, cw, 0.0, 1e-6, SAMPLE_RATE_HZ);
        for m in 0..3 {
            let dphi = (rx[m + 1][3] / rx[m][3]).arg();
            // Element m+1 is closer to the source by λ/2 ⇒ +π phase
            // (mod 2π, so ±π is equivalent).
            assert!((dphi.abs() - PI).abs() < 0.02, "step {m}: {dphi} rad");
        }
    }

    #[test]
    fn oblique_source_matches_cos_theta_law() {
        let fp = Floorplan::empty();
        let sim = ChannelSim::new(&fp);
        let array = AntennaArray::ula(pt(0.0, 0.0), 0.0, 8);
        for theta_deg in [30.0f64, 60.0, 120.0, 150.0] {
            let theta = theta_deg.to_radians();
            let tx = Transmitter::at(array.point_at(theta, 800.0));
            let rx = sim.receive(&tx, &array, cw, 0.0, 0.5e-6, SAMPLE_RATE_HZ);
            let dphi = (rx[1][2] / rx[0][2]).arg();
            // Expected: +π·cosθ (closer along axis ⇒ advanced phase).
            let expect = PI * theta.cos();
            let err = (dphi - expect).abs();
            assert!(err < 0.02, "θ={theta_deg}°: got {dphi}, want {expect}");
        }
    }

    #[test]
    fn received_power_decays_with_distance() {
        let fp = Floorplan::empty();
        let sim = ChannelSim::new(&fp);
        let array = AntennaArray::ula(pt(0.0, 0.0), 0.0, 8);
        let p5 = sim.received_power(&Transmitter::at(pt(0.0, 5.0)), &array);
        let p10 = sim.received_power(&Transmitter::at(pt(0.0, 10.0)), &array);
        assert!((p5 / p10 - 4.0).abs() < 0.01, "free-space inverse-square");
    }

    #[test]
    fn polarization_mismatch_reduces_power() {
        let fp = Floorplan::empty();
        let sim = ChannelSim::new(&fp);
        let array = AntennaArray::ula(pt(0.0, 0.0), 0.0, 4);
        let aligned = Transmitter::at(pt(0.0, 10.0));
        let crossed = aligned.with_polarization_mismatch(FRAC_PI_2);
        let ratio = sim.received_power(&crossed, &array) / sim.received_power(&aligned, &array);
        assert!((10.0 * ratio.log10() + 20.0).abs() < 1e-6, "{ratio}");
    }

    #[test]
    fn multipath_superposes_two_bearings() {
        // One metal wall ⇒ direct + one strong reflection; the per-antenna
        // streams must equal the sum of the two individual path responses.
        let fp = Floorplan::empty().with_wall(seg(pt(-50.0, 8.0), pt(50.0, 8.0)), Material::METAL);
        let sim = ChannelSim::new(&fp);
        let array = AntennaArray::ula(pt(0.0, 0.0), 0.0, 4);
        let tx = Transmitter::at(pt(12.0, 0.5));
        let paths = sim.paths(&tx, &array);
        assert!(paths.len() >= 2);
        let combined = sim.receive(&tx, &array, cw, 0.0, 0.5e-6, SAMPLE_RATE_HZ);
        // Sum the per-path receptions.
        let mut acc = vec![vec![Complex64::ZERO; combined[0].len()]; combined.len()];
        for p in &paths {
            let single = sim.receive_via_paths(
                std::slice::from_ref(p),
                &tx,
                &array,
                cw,
                0.0,
                0.5e-6,
                SAMPLE_RATE_HZ,
            );
            for (am, sm) in acc.iter_mut().zip(&single) {
                for (a, s) in am.iter_mut().zip(sm) {
                    *a += *s;
                }
            }
        }
        for (cm, am) in combined.iter().zip(&acc) {
            for (c, a) in cm.iter().zip(am) {
                assert!((*c - *a).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn preamble_through_channel_is_delayed() {
        let fp = Floorplan::empty();
        let sim = ChannelSim::new(&fp);
        let array = AntennaArray::ula(pt(0.0, 0.0), 0.0, 2);
        let d = 30.0;
        let tx = Transmitter::at(pt(0.0, d));
        let p = Preamble::new();
        // Sample around the start of the LTS; a delayed channel shifts the
        // waveform by d/c ≈ 100 ns = 4 samples at 40 MS/s.
        let rx = sim.receive(
            &tx,
            &array,
            |t| p.eval(t),
            LTS0_START_S,
            1.0e-6,
            SAMPLE_RATE_HZ,
        );
        let delay = d / crate::array::SPEED_OF_LIGHT;
        assert!(
            (delay * SAMPLE_RATE_HZ - 4.0).abs() < 0.1,
            "≈4 samples of delay"
        );
        // rx at sample k equals gain · preamble(t_k − delay): the ratio is a
        // constant complex gain across sample indices.
        let ratio_at =
            |k: usize| rx[0][k] / p.eval(LTS0_START_S + k as f64 / SAMPLE_RATE_HZ - delay);
        let g = ratio_at(10);
        let g2 = ratio_at(25);
        assert!((g - g2).abs() < 1e-9 * g.abs(), "{g} vs {g2}");
    }

    #[test]
    fn offrow_element_sees_different_phase_for_offaxis_source() {
        let fp = Floorplan::empty();
        let sim = ChannelSim::new(&fp);
        let array = AntennaArray::ula(pt(0.0, 0.0), 0.0, 8).with_offrow_element();
        // Source at +y vs source at -y: the in-row elements can't tell the
        // difference (mirror symmetry), the off-row element can.
        let up = Transmitter::at(pt(3.0, 40.0));
        let down = Transmitter::at(pt(3.0, -40.0));
        let rx_up = sim.receive(&up, &array, cw, 0.0, 0.25e-6, SAMPLE_RATE_HZ);
        let rx_down = sim.receive(&down, &array, cw, 0.0, 0.25e-6, SAMPLE_RATE_HZ);
        // In-row relative phases match.
        for m in 1..8 {
            let a = (rx_up[m][1] / rx_up[0][1]).arg();
            let b = (rx_down[m][1] / rx_down[0][1]).arg();
            assert!((a - b).abs() < 2e-2, "in-row element {m} differs");
        }
        // Off-row relative phase differs clearly.
        let a = (rx_up[8][1] / rx_up[0][1]).arg();
        let b = (rx_down[8][1] / rx_down[0][1]).arg();
        assert!(
            (a - b).abs() > 0.5,
            "off-row should disambiguate: {a} vs {b}"
        );
    }

    #[test]
    fn amplitude_scales_linearly() {
        let fp = Floorplan::empty();
        let sim = ChannelSim::new(&fp);
        let array = AntennaArray::ula(pt(0.0, 0.0), 0.0, 2);
        let tx1 = Transmitter::at(pt(0.0, 10.0));
        let tx2 = tx1.with_amplitude(2.0);
        let r1 = sim.receive(&tx1, &array, cw, 0.0, 0.25e-6, SAMPLE_RATE_HZ);
        let r2 = sim.receive(&tx2, &array, cw, 0.0, 0.25e-6, SAMPLE_RATE_HZ);
        for (a, b) in r1[0].iter().zip(&r2[0]) {
            assert!((b.abs() - 2.0 * a.abs()).abs() < 1e-12);
        }
    }
}
