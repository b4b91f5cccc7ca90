//! Radix-2 iterative fast Fourier transform.
//!
//! Used for OFDM symbol analysis (64-point at 20 MHz channel bandwidth),
//! for spectrum inspection in tests, and — through a precomputed
//! [`FftPlan`] — for the matched filter's overlap-save correlation blocks.
//! Sizes must be powers of two, which all 802.11 OFDM block sizes are.

use at_linalg::Complex64;
use std::f64::consts::PI;

/// Transform direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Time → frequency, kernel `e^{-j2πkn/N}`.
    Forward,
    /// Frequency → time, kernel `e^{+j2πkn/N}` with `1/N` normalization.
    Inverse,
}

/// A forward radix-2 decimation-in-time transform of one fixed size, with
/// its tables precomputed: the bit-reversal permutation and every stage's
/// twiddles, each evaluated directly (no recurrence, so no error grows
/// along a stage). Callers that transform many blocks of one size build
/// it once and reuse it.
#[derive(Clone, Debug)]
pub(crate) struct FftPlan {
    /// `bitrev[i]` is `i` with its `log2(n)` low bits reversed.
    bitrev: Vec<usize>,
    /// Twiddles of every stage, concatenated: the stage combining halves
    /// of length `h` reads `twiddles[h - 1..2h - 1]`, entry `k` being
    /// `e^{-jπk/h}`. `n - 1` entries in all.
    twiddles: Vec<Complex64>,
}

impl FftPlan {
    /// Tables for an `n`-point transform.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length {n} is not a power of two");
        let bits = n.trailing_zeros();
        let bitrev = (0..n)
            .map(|i| {
                i.reverse_bits()
                    .checked_shr(usize::BITS - bits)
                    .unwrap_or(0)
            })
            .collect();
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut half = 1;
        while half < n {
            twiddles.extend((0..half).map(|k| Complex64::cis(-PI * k as f64 / half as f64)));
            half <<= 1;
        }
        Self { bitrev, twiddles }
    }

    /// Forward transform in place, kernel `e^{-j2πkn/N}`, unnormalized.
    ///
    /// # Panics
    /// Panics if `data` is not exactly the planned length.
    pub(crate) fn forward(&self, data: &mut [Complex64]) {
        let n = self.bitrev.len();
        assert_eq!(data.len(), n, "FFT plan is for {n} points");
        for (i, &j) in self.bitrev.iter().enumerate() {
            if j > i {
                data.swap(i, j);
            }
        }
        let mut half = 1;
        while half < n {
            let tw = &self.twiddles[half - 1..2 * half - 1];
            for chunk in data.chunks_exact_mut(2 * half) {
                let (lo, hi) = chunk.split_at_mut(half);
                for ((a, b), w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                    let t = *b * *w;
                    *b = *a - t;
                    *a += t;
                }
            }
            half <<= 1;
        }
    }
}

/// In-place radix-2 FFT. The inverse runs the forward kernel on the
/// conjugate, `x = conj(FFT(conj(X))) / N`.
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
pub fn fft_in_place(data: &mut [Complex64], dir: Direction) {
    let plan = FftPlan::new(data.len());
    match dir {
        Direction::Forward => plan.forward(data),
        Direction::Inverse => {
            for z in data.iter_mut() {
                *z = z.conj();
            }
            plan.forward(data);
            let scale = 1.0 / data.len() as f64;
            for z in data.iter_mut() {
                *z = z.conj().scale(scale);
            }
        }
    }
}

/// Out-of-place forward FFT.
pub fn fft(input: &[Complex64]) -> Vec<Complex64> {
    let mut out = input.to_vec();
    fft_in_place(&mut out, Direction::Forward);
    out
}

/// Out-of-place inverse FFT (normalized by `1/N`).
pub fn ifft(input: &[Complex64]) -> Vec<Complex64> {
    let mut out = input.to_vec();
    fft_in_place(&mut out, Direction::Inverse);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_linalg::c64;

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut x = vec![Complex64::ZERO; 8];
        x[0] = Complex64::ONE;
        let spec = fft(&x);
        for s in spec {
            assert!((s - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_on_one_bin() {
        let n = 64;
        let k = 5;
        let x: Vec<Complex64> = (0..n)
            .map(|t| Complex64::cis(2.0 * PI * k as f64 * t as f64 / n as f64))
            .collect();
        let spec = fft(&x);
        for (bin, s) in spec.iter().enumerate() {
            if bin == k {
                assert!((s.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(s.abs() < 1e-9, "leakage in bin {bin}: {}", s.abs());
            }
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let x: Vec<Complex64> = (0..32)
            .map(|i| c64((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let back = ifft(&fft(&x));
        assert!(max_err(&x, &back) < 1e-12);
    }

    #[test]
    fn linearity() {
        let a: Vec<Complex64> = (0..16).map(|i| c64(i as f64, -(i as f64))).collect();
        let b: Vec<Complex64> = (0..16).map(|i| c64(1.0, i as f64 * 0.5)).collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fsum = fft(&sum);
        let expect: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&fsum, &expect) < 1e-10);
    }

    #[test]
    fn parseval_energy_preserved() {
        let x: Vec<Complex64> = (0..64)
            .map(|i| c64((i as f64 * 0.3).sin(), (i as f64 * 0.9).cos()))
            .collect();
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let spec = fft(&x);
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / 64.0;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut x = vec![Complex64::ZERO; 12];
        fft_in_place(&mut x, Direction::Forward);
    }

    #[test]
    fn length_one_is_identity() {
        let x = vec![c64(3.0, 4.0)];
        assert_eq!(fft(&x), x);
    }
}
