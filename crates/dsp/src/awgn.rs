//! Additive white Gaussian noise and SNR bookkeeping.
//!
//! The channel delivers unit-power waveforms scaled by complex path gains;
//! experiments set operating points in dB SNR (paper §4.3.4 sweeps 15 dB
//! down to below 0 dB), so this module centralizes the dB↔linear math and a
//! seedable circularly-symmetric complex Gaussian source.

use at_linalg::{c64, Complex64};
use rand::Rng;
use rand_distr_compat::StandardNormalPair;

/// Converts decibels to a linear power ratio.
#[inline]
pub fn db_to_linear(db: f64) -> f64 {
    10.0f64.powf(db / 10.0)
}

/// Converts a linear power ratio to decibels.
#[inline]
pub fn linear_to_db(lin: f64) -> f64 {
    10.0 * lin.log10()
}

/// Mean power (`E|x|²`) of a sample block.
pub fn mean_power(xs: &[Complex64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().map(|z| z.norm_sqr()).sum::<f64>() / xs.len() as f64
}

/// A circularly-symmetric complex Gaussian noise source with selectable
/// per-sample power.
///
/// ```
/// use at_dsp::awgn::NoiseSource;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut src = NoiseSource::with_power(2.0);
/// let n: Vec<_> = (0..10_000).map(|_| src.sample(&mut rng)).collect();
/// let p = at_dsp::awgn::mean_power(&n);
/// assert!((p - 2.0).abs() < 0.1);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct NoiseSource {
    /// Standard deviation per real/imaginary component.
    sigma: f64,
}

impl NoiseSource {
    /// Noise with total per-sample power `power` (`E|n|² = power`, so each
    /// quadrature has variance `power/2`).
    pub fn with_power(power: f64) -> Self {
        assert!(power >= 0.0, "noise power must be non-negative");
        Self {
            sigma: (power / 2.0).sqrt(),
        }
    }

    /// Noise sized so that a unit-power signal sees the given SNR.
    pub fn for_snr_db(snr_db: f64) -> Self {
        Self::with_power(db_to_linear(-snr_db))
    }

    /// The total per-sample noise power `E|n|²`.
    #[cfg(test)]
    pub(crate) fn power(&self) -> f64 {
        2.0 * self.sigma * self.sigma
    }

    /// Draws one complex noise sample.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Complex64 {
        let (a, b) = StandardNormalPair.sample_pair(rng);
        c64(a * self.sigma, b * self.sigma)
    }

    /// Adds noise to a sample block in place.
    pub fn corrupt<R: Rng>(&self, xs: &mut [Complex64], rng: &mut R) {
        for x in xs {
            *x += self.sample(rng);
        }
    }
}

/// Minimal standard-normal sampling (Box–Muller) so this crate depends only
/// on `rand` core, not `rand_distr`.
mod rand_distr_compat {
    use rand::Rng;
    use std::f64::consts::PI;

    /// Zero-sized sampler producing pairs of independent N(0,1) values.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct StandardNormalPair;

    impl StandardNormalPair {
        /// Draws two independent standard normal variates via Box–Muller.
        #[inline]
        pub(crate) fn sample_pair<R: Rng>(&self, rng: &mut R) -> (f64, f64) {
            // u1 in (0, 1] to keep ln finite.
            let u1: f64 = 1.0 - rng.gen::<f64>();
            let u2: f64 = rng.gen();
            let r = (-2.0 * u1.ln()).sqrt();
            let th = 2.0 * PI * u2;
            (r * th.cos(), r * th.sin())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn db_conversions_round_trip() {
        for db in [-10.0, 0.0, 3.0, 20.0] {
            assert!((linear_to_db(db_to_linear(db)) - db).abs() < 1e-12);
        }
        assert!((db_to_linear(0.0) - 1.0).abs() < 1e-15);
        assert!((db_to_linear(10.0) - 10.0).abs() < 1e-12);
        assert!((db_to_linear(3.0) - 1.9952623149688795).abs() < 1e-12);
    }

    #[test]
    fn noise_power_statistics() {
        let mut rng = StdRng::seed_from_u64(42);
        for target in [0.25, 1.0, 4.0] {
            let src = NoiseSource::with_power(target);
            let n: Vec<_> = (0..50_000).map(|_| src.sample(&mut rng)).collect();
            let p = mean_power(&n);
            assert!(
                (p - target).abs() < 0.05 * target.max(0.5),
                "target {target}, measured {p}"
            );
        }
    }

    #[test]
    fn noise_is_circularly_symmetric() {
        let mut rng = StdRng::seed_from_u64(7);
        let src = NoiseSource::with_power(1.0);
        let n: Vec<_> = (0..50_000).map(|_| src.sample(&mut rng)).collect();
        let mean: Complex64 = n.iter().sum::<Complex64>() / n.len() as f64;
        assert!(mean.abs() < 0.02, "nonzero mean {mean}");
        // E[n²] ≈ 0 for circular symmetry (pseudo-covariance vanishes).
        let pseudo: Complex64 = n.iter().map(|z| *z * *z).sum::<Complex64>() / n.len() as f64;
        assert!(pseudo.abs() < 0.02, "pseudo-covariance {pseudo}");
    }

    #[test]
    fn snr_constructor_hits_target() {
        let mut rng = StdRng::seed_from_u64(3);
        let src = NoiseSource::for_snr_db(10.0);
        // Unit-power signal assumed: SNR = 1 / noise_power.
        assert!((linear_to_db(1.0 / src.power()) - 10.0).abs() < 1e-9);
        let signal = vec![Complex64::ONE; 20_000];
        let noise: Vec<_> = (0..20_000).map(|_| src.sample(&mut rng)).collect();
        let snr = linear_to_db(mean_power(&signal) / mean_power(&noise));
        assert!((snr - 10.0).abs() < 0.3, "measured {snr}");
    }

    #[test]
    fn corrupt_changes_samples_but_preserves_signal_mean() {
        let mut rng = StdRng::seed_from_u64(11);
        let src = NoiseSource::with_power(0.01);
        let mut xs = vec![Complex64::ONE; 10_000];
        src.corrupt(&mut xs, &mut rng);
        let mean: Complex64 = xs.iter().sum::<Complex64>() / xs.len() as f64;
        assert!((mean - Complex64::ONE).abs() < 0.01);
    }

    #[test]
    fn zero_power_noise_is_silent() {
        let mut rng = StdRng::seed_from_u64(5);
        let src = NoiseSource::with_power(0.0);
        assert_eq!(src.sample(&mut rng), Complex64::ZERO);
    }

    #[test]
    fn mean_power_of_empty_block_is_zero() {
        assert_eq!(mean_power(&[]), 0.0);
    }
}
