//! Antenna polarization mismatch (paper §4.3.2).
//!
//! The testbed uses linearly polarized antennas; rotating the client's
//! antenna relative to the AP's attenuates the received signal: "a
//! misalignment of polarization of 45 degrees will degrade the signal up to
//! 3 dB and a misaligned of 90 degrees causes an attenuation of 20 dB or
//! more". The ideal-dipole law is `cos²ψ` on power, with a practical floor
//! from cross-polar leakage; we use a −20 dB floor to match the paper.

use at_dsp::db_to_linear;

/// Cross-polar leakage floor: a 90°-misaligned antenna still receives
/// −20 dB of the co-polar power (paper §4.3.2: "20 dB or more").
pub(crate) const CROSS_POLAR_FLOOR_DB: f64 = -20.0;

/// Power attenuation factor (linear, ≤ 1) for a polarization mismatch of
/// `psi` radians between the client's and AP's linear antennas.
pub(crate) fn polarization_loss(psi: f64) -> f64 {
    let c = psi.cos();
    (c * c).max(db_to_linear(CROSS_POLAR_FLOOR_DB))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    #[test]
    fn aligned_antennas_lose_nothing() {
        assert!((polarization_loss(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn forty_five_degrees_is_3db() {
        // cos²(45°) = 0.5 ⇒ −3.01 dB, the paper's "up to 3 dB".
        let db = 10.0 * polarization_loss(FRAC_PI_4).log10();
        assert!((db + 3.0103).abs() < 0.01, "{db}");
    }

    #[test]
    fn ninety_degrees_hits_the_20db_floor() {
        let db = 10.0 * polarization_loss(FRAC_PI_2).log10();
        assert!((db - CROSS_POLAR_FLOOR_DB).abs() < 1e-9, "{db}");
    }

    #[test]
    fn loss_is_symmetric_and_periodic() {
        for psi in [0.1, 0.8, 1.3] {
            assert!((polarization_loss(psi) - polarization_loss(-psi)).abs() < 1e-12);
            assert!((polarization_loss(psi) - polarization_loss(psi + PI)).abs() < 1e-12);
        }
    }

    #[test]
    fn loss_monotone_from_0_to_90() {
        let mut prev = polarization_loss(0.0);
        for i in 1..=90 {
            let cur = polarization_loss(i as f64 * PI / 180.0);
            assert!(cur <= prev + 1e-12);
            prev = cur;
        }
    }
}
