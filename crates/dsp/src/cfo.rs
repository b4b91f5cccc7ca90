//! Carrier-frequency-offset estimation from the 802.11 preamble.
//!
//! A client oscillator offset `Δf` rotates the received baseband by
//! `e^{j2πΔf·t}`. Because the rotation is common to every antenna it does
//! not disturb MUSIC within one snapshot block — but ArrayTrack's
//! diversity synthesis (paper §2.2) combines samples captured 3.2 µs apart
//! (long training symbols `S0` and `S1`), which differ by the phase
//! `2πΔf·3.2 µs`; at the 802.11 limit of ±20 ppm that is up to ±1 rad and
//! would corrupt the synthesized cross-set correlations.
//!
//! The classic fix (Schmidl–Cox \[25\] and every OFDM receiver since):
//! identical transmitted blocks separated by `T` seconds differ at the
//! receiver *only* by `e^{j2πΔf·T}` (for a static channel), so
//!
//! ```text
//! Δf̂ = arg( Σ_t  x(t + T) · x*(t) ) / (2π·T)
//! ```
//!
//! With `T = 3.2 µs` the unambiguous range is ±156 kHz — over 3× the
//! 802.11 tolerance.

use at_linalg::Complex64;
use std::f64::consts::TAU;

/// The long-training repetition interval used for fine CFO estimation.
pub const LTS_SEPARATION_S: f64 = crate::preamble::LONG_SYMBOL_S;

/// Maximum CFO magnitude commodity 802.11 clients may exhibit: ±20 ppm at
/// 2.44 GHz ≈ ±48.8 kHz.
pub fn max_cfo_hz() -> f64 {
    20e-6 * 2.44e9
}

/// Estimates the carrier frequency offset from two received copies of the
/// same transmitted block, `separation_s` seconds apart.
///
/// Returns `None` if the blocks are empty, mismatched in length, or carry
/// no energy. The estimate is unambiguous for `|Δf| < 1/(2·separation)`.
pub fn estimate_cfo(first: &[Complex64], second: &[Complex64], separation_s: f64) -> Option<f64> {
    if first.is_empty() || first.len() != second.len() || separation_s <= 0.0 {
        return None;
    }
    let mut acc = Complex64::ZERO;
    for (a, b) in first.iter().zip(second) {
        acc = acc.mul_add(*b, a.conj());
    }
    if acc.abs() == 0.0 {
        return None;
    }
    Some(acc.arg() / (TAU * separation_s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::awgn::NoiseSource;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two copies of a block with a CFO rotation between them.
    fn rotated_pair(cfo_hz: f64, n: usize, sep: f64, fs: f64) -> (Vec<Complex64>, Vec<Complex64>) {
        let base: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(0.37 * i as f64) + Complex64::cis(1.1 * i as f64).scale(0.5))
            .collect();
        let first: Vec<Complex64> = base
            .iter()
            .enumerate()
            .map(|(i, z)| *z * Complex64::cis(TAU * cfo_hz * i as f64 / fs))
            .collect();
        let second: Vec<Complex64> = base
            .iter()
            .enumerate()
            .map(|(i, z)| *z * Complex64::cis(TAU * cfo_hz * (sep + i as f64 / fs)))
            .collect();
        (first, second)
    }

    #[test]
    fn exact_on_clean_blocks() {
        for cfo in [-40e3, -5e3, 0.0, 12e3, 48e3] {
            let (a, b) = rotated_pair(cfo, 10, LTS_SEPARATION_S, 40e6);
            let est = estimate_cfo(&a, &b, LTS_SEPARATION_S).unwrap();
            assert!((est - cfo).abs() < 1.0, "cfo {cfo}: est {est}");
        }
    }

    #[test]
    fn tolerates_noise() {
        let mut rng = StdRng::seed_from_u64(1);
        let noise = NoiseSource::for_snr_db(15.0);
        let (mut a, mut b) = rotated_pair(30e3, 64, LTS_SEPARATION_S, 40e6);
        noise.corrupt(&mut a, &mut rng);
        noise.corrupt(&mut b, &mut rng);
        let est = estimate_cfo(&a, &b, LTS_SEPARATION_S).unwrap();
        assert!((est - 30e3).abs() < 3e3, "est {est}");
    }

    #[test]
    fn range_covers_wifi_tolerance() {
        // ±20 ppm at 2.44 GHz must be unambiguous at the LTS separation.
        assert!(max_cfo_hz() < 1.0 / (2.0 * LTS_SEPARATION_S));
    }

    #[test]
    fn degenerate_inputs_yield_none() {
        assert!(estimate_cfo(&[], &[], 1.0).is_none());
        let a = vec![Complex64::ONE; 4];
        let b = vec![Complex64::ONE; 5];
        assert!(estimate_cfo(&a, &b, 1.0).is_none());
        assert!(estimate_cfo(&a, &a.clone(), 0.0).is_none());
        let z = vec![Complex64::ZERO; 4];
        assert!(estimate_cfo(&z, &z.clone(), 1.0).is_none());
    }

    #[test]
    fn estimate_through_real_preamble() {
        // End-to-end: a preamble with CFO; estimate from the two LTS.
        use crate::preamble::{Preamble, LTS0_START_S, LTS1_START_S};
        let p = Preamble::new();
        let fs = 40e6;
        let cfo = -35e3;
        let sample = |start: f64| -> Vec<Complex64> {
            (0..32)
                .map(|i| {
                    let t = start + i as f64 / fs;
                    p.eval(t) * Complex64::cis(TAU * cfo * t)
                })
                .collect()
        };
        let s0 = sample(LTS0_START_S + 0.5e-6);
        let s1 = sample(LTS1_START_S + 0.5e-6);
        let est = estimate_cfo(&s0, &s1, LTS_SEPARATION_S).unwrap();
        assert!((est - cfo).abs() < 10.0, "est {est}");
    }
}
