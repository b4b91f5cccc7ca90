//! Radix-2/radix-4 fast Fourier transform over split re/im storage.
//!
//! One kernel serves every caller. A precomputed `FftPlan` holds one
//! size's twiddles as split real and imaginary slabs and runs two passes,
//! neither of which permutes its data:
//!
//! - `FftPlan::forward`: decimation in frequency, natural order in and
//!   bit-reversed order out;
//! - `FftPlan::inverse`: decimation in time, bit-reversed order in and
//!   natural order out.
//!
//! Chained, they form a convolution whose pointwise product happens in
//! bit-reversed order, which is how the matched filter correlates its
//! overlap-save blocks. The out-of-place [`fft`] and [`ifft`] (OFDM symbol
//! analysis and tests) wrap the same passes with the one bit-reversal
//! permutation that natural-order spectra need. Sizes must be powers of
//! two, which all 802.11 OFDM block sizes are.

use at_linalg::{c64, Complex64};
use std::f64::consts::PI;
use std::ops::Range;

/// One transform size's twiddles, as split re/im slabs.
///
/// In forward order, the transform runs one radix-2 stage across the whole
/// block, a second radix-2 stage when `log2(N)` is even, then radix-4
/// stages (each two radix-2 stages fused) down to a last radix-4 stage of
/// quarter length 1, whose twiddles are all 1 and which is written out by
/// hand. The slabs hold, in that order: the first stage's `N/2` twiddles
/// `e^{-j2πk/N}`; the second stage's `N/4` twiddles `e^{-j2πk/(N/2)}`, if
/// it runs; and for each radix-4 stage of quarter length `q ≥ 4` the `q`
/// twiddles `e^{-j2πpk/4q}` for `p = 1`, then `p = 2`, then `p = 3`. Every
/// entry is evaluated directly, so no error grows along a stage. Callers
/// that transform many blocks of one size build the plan once and reuse
/// it.
#[derive(Clone, Debug)]
pub(crate) struct FftPlan {
    n: usize,
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
}

/// One radix-4 stage's twiddles `e^{-j2πpk/4q}` for `p = 1, 2, 3`.
struct Quad<'a> {
    re: [&'a [f64]; 3],
    im: [&'a [f64]; 3],
}

impl FftPlan {
    /// Tables for an `n`-point transform.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length {n} is not a power of two");
        let mut tw_re = Vec::with_capacity(n);
        let mut tw_im = Vec::with_capacity(n);
        let mut push = |turns: f64| {
            let w = Complex64::cis(-2.0 * PI * turns);
            tw_re.push(w.re);
            tw_im.push(w.im);
        };
        for k in 0..n / 2 {
            push(k as f64 / n as f64);
        }
        if has_second_radix2(n) {
            for k in 0..n / 4 {
                push(k as f64 / (n / 2) as f64);
            }
        }
        let mut q = top_quarter(n);
        while q >= 4 {
            for p in 1..=3 {
                for k in 0..q {
                    push((p * k) as f64 / (4 * q) as f64);
                }
            }
            q /= 4;
        }
        Self { n, tw_re, tw_im }
    }

    /// The planned transform length.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// The radix-4 twiddles of quarter length `q` starting at slab offset
    /// `at`.
    fn quad(&self, at: usize, q: usize) -> Quad<'_> {
        let (re, im) = (&self.tw_re[at..at + 3 * q], &self.tw_im[at..at + 3 * q]);
        Quad {
            re: [&re[..q], &re[q..2 * q], &re[2 * q..]],
            im: [&im[..q], &im[q..2 * q], &im[2 * q..]],
        }
    }

    /// Forward transform in place, kernel `e^{-j2πkn/N}`, unnormalized:
    /// natural order in, bit-reversed order out (decimation in frequency).
    ///
    /// Only the first `filled` inputs are read; the rest are taken as zero,
    /// which the first stage exploits: past `filled − N/2` its upper input
    /// is zero, so each butterfly is one twiddle product.
    ///
    /// # Panics
    /// Panics if `re` or `im` is not exactly the planned length.
    pub(crate) fn forward(&self, re: &mut [f64], im: &mut [f64], filled: usize) {
        let n = self.n;
        assert!(re.len() == n && im.len() == n, "FFT plan is for {n} points");
        if n == 1 {
            if filled == 0 {
                re[0] = 0.0;
                im[0] = 0.0;
            }
            return;
        }
        let half = n / 2;
        let full = filled.saturating_sub(half).min(half);
        let live = filled.min(half);
        let (wr, wi) = (&self.tw_re[..half], &self.tw_im[..half]);
        {
            let (lr, hr) = re.split_at_mut(half);
            let (li, hi) = im.split_at_mut(half);
            dif_butterflies(
                &mut lr[..full],
                &mut li[..full],
                &mut hr[..full],
                &mut hi[..full],
                &wr[..full],
                &wi[..full],
            );
            let (lr, li, wr, wi) = (
                &lr[full..live],
                &li[full..live],
                &wr[full..live],
                &wi[full..live],
            );
            let (hr, hi) = (&mut hr[full..live], &mut hi[full..live]);
            for k in 0..lr.len() {
                hr[k] = lr[k] * wr[k] - li[k] * wi[k];
                hi[k] = lr[k] * wi[k] + li[k] * wr[k];
            }
        }
        re[live..half].fill(0.0);
        im[live..half].fill(0.0);
        re[half + live..].fill(0.0);
        im[half + live..].fill(0.0);

        let mut at = half;
        if has_second_radix2(n) {
            let h = n / 4;
            let (wr, wi) = (&self.tw_re[at..at + h], &self.tw_im[at..at + h]);
            for (re, im) in re.chunks_exact_mut(2 * h).zip(im.chunks_exact_mut(2 * h)) {
                let (lr, hr) = re.split_at_mut(h);
                let (li, hi) = im.split_at_mut(h);
                dif_butterflies(lr, li, hr, hi, wr, wi);
            }
            at += h;
        }
        let mut q = top_quarter(n);
        while q >= 4 {
            let w = self.quad(at, q);
            for (re, im) in re.chunks_exact_mut(4 * q).zip(im.chunks_exact_mut(4 * q)) {
                dif4(re, im, &w);
            }
            at += 3 * q;
            q /= 4;
        }
        if q == 1 {
            dif4_trivial(re, im);
        }
    }

    /// Inverse transform in place, kernel `e^{+j2πkn/N}`, unnormalized (no
    /// `1/N`): bit-reversed order in, natural order out (decimation in
    /// time). It undoes [`Self::forward`] up to the factor `N`.
    ///
    /// Only the outputs in `wanted` are computed; the last stage skips the
    /// butterflies that feed none of them, and the rest are left holding
    /// intermediate values.
    ///
    /// # Panics
    /// Panics if `re` or `im` is not exactly the planned length, or if
    /// `wanted` reaches past it.
    pub(crate) fn inverse(&self, re: &mut [f64], im: &mut [f64], wanted: Range<usize>) {
        let n = self.n;
        assert!(re.len() == n && im.len() == n, "FFT plan is for {n} points");
        assert!(
            wanted.start <= wanted.end && wanted.end <= n,
            "outputs {wanted:?} of {n}"
        );
        if n == 1 {
            return;
        }
        // The forward stages in reverse, walking the slabs back from the end.
        let top = top_quarter(n);
        if top >= 1 {
            dit4_trivial(re, im);
        }
        let mut end = self.tw_re.len();
        let mut q = 4;
        while q <= top {
            let at = end - 3 * q;
            let w = self.quad(at, q);
            for (re, im) in re.chunks_exact_mut(4 * q).zip(im.chunks_exact_mut(4 * q)) {
                dit4(re, im, &w);
            }
            end = at;
            q *= 4;
        }
        if has_second_radix2(n) {
            let h = n / 4;
            let (wr, wi) = (&self.tw_re[end - h..end], &self.tw_im[end - h..end]);
            for (re, im) in re.chunks_exact_mut(2 * h).zip(im.chunks_exact_mut(2 * h)) {
                let (lr, hr) = re.split_at_mut(h);
                let (li, hi) = im.split_at_mut(h);
                dit_butterflies(lr, li, hr, hi, wr, wi);
            }
        }
        // Butterfly `k` of the last stage writes outputs `k` and `k + N/2`.
        let half = n / 2;
        let lower = wanted.start.min(half)..wanted.end.min(half);
        let upper = wanted.start.saturating_sub(half)..wanted.end.saturating_sub(half);
        let spans = if upper.end >= lower.start {
            [upper.start..upper.end.max(lower.end), 0..0]
        } else {
            [upper, lower]
        };
        let (lr, hr) = re.split_at_mut(half);
        let (li, hi) = im.split_at_mut(half);
        for k in spans {
            dit_butterflies(
                &mut lr[k.clone()],
                &mut li[k.clone()],
                &mut hr[k.clone()],
                &mut hi[k.clone()],
                &self.tw_re[k.clone()],
                &self.tw_im[k],
            );
        }
    }
}

/// One radix-2 decimation-in-frequency stage over matched halves:
/// `(a, b) ← (a + b, (a − b)·w)`. Every slice has the same length.
fn dif_butterflies(
    lr: &mut [f64],
    li: &mut [f64],
    hr: &mut [f64],
    hi: &mut [f64],
    wr: &[f64],
    wi: &[f64],
) {
    let len = lr.len();
    let (li, hr, hi, wr, wi) = (
        &mut li[..len],
        &mut hr[..len],
        &mut hi[..len],
        &wr[..len],
        &wi[..len],
    );
    for k in 0..len {
        let (dr, di) = (lr[k] - hr[k], li[k] - hi[k]);
        lr[k] += hr[k];
        li[k] += hi[k];
        hr[k] = dr * wr[k] - di * wi[k];
        hi[k] = dr * wi[k] + di * wr[k];
    }
}

/// One radix-2 decimation-in-time stage over matched halves with the
/// conjugate twiddle: `t = b·conj(w)`, `(a, b) ← (a + t, a − t)`. Every
/// slice has the same length.
fn dit_butterflies(
    lr: &mut [f64],
    li: &mut [f64],
    hr: &mut [f64],
    hi: &mut [f64],
    wr: &[f64],
    wi: &[f64],
) {
    let len = lr.len();
    let (li, hr, hi, wr, wi) = (
        &mut li[..len],
        &mut hr[..len],
        &mut hi[..len],
        &wr[..len],
        &wi[..len],
    );
    for k in 0..len {
        let tr = hr[k] * wr[k] + hi[k] * wi[k];
        let ti = hi[k] * wr[k] - hr[k] * wi[k];
        hr[k] = lr[k] - tr;
        hi[k] = li[k] - ti;
        lr[k] += tr;
        li[k] += ti;
    }
}

/// A block split into its four quarters, each resliced to one length.
fn quarters(x: &mut [f64]) -> [&mut [f64]; 4] {
    let q = x.len() / 4;
    let (a, rest) = x.split_at_mut(q);
    let (b, rest) = rest.split_at_mut(q);
    let (c, d) = rest.split_at_mut(q);
    [a, b, c, &mut d[..q]]
}

/// One radix-4 decimation-in-frequency stage over a block of `4q`: the
/// radix-2 stages of half `2q` and `q` in one pass. With `xₚ` the quarter
/// entries at `k`, `s/d` the sums and differences of quarters 0, 2 and
/// 1, 3, the outputs are `s₀₂ + s₁₃`, `(s₀₂ − s₁₃)·w₂`, `(d₀₂ − j·d₁₃)·w₁`
/// and `(d₀₂ + j·d₁₃)·w₃`: still bit-reversed order.
///
/// Kept out of line, as is [`dit4`]: as a call's arguments its `&mut`
/// quarters are known not to alias, so the loop vectorizes without runtime
/// overlap checks, which made a 1024-point pass ~20 % faster than inlined.
#[inline(never)]
fn dif4(re: &mut [f64], im: &mut [f64], w: &Quad<'_>) {
    let q = re.len() / 4;
    let [r0, r1, r2, r3] = quarters(re);
    let [i0, i1, i2, i3] = quarters(im);
    let [w1r, w2r, w3r] = w.re.map(|s| &s[..q]);
    let [w1i, w2i, w3i] = w.im.map(|s| &s[..q]);
    for k in 0..q {
        let (s02r, s02i) = (r0[k] + r2[k], i0[k] + i2[k]);
        let (d02r, d02i) = (r0[k] - r2[k], i0[k] - i2[k]);
        let (s13r, s13i) = (r1[k] + r3[k], i1[k] + i3[k]);
        let (d13r, d13i) = (r1[k] - r3[k], i1[k] - i3[k]);
        r0[k] = s02r + s13r;
        i0[k] = s02i + s13i;
        let (tr, ti) = (s02r - s13r, s02i - s13i);
        r1[k] = tr * w2r[k] - ti * w2i[k];
        i1[k] = tr * w2i[k] + ti * w2r[k];
        let (tr, ti) = (d02r + d13i, d02i - d13r);
        r2[k] = tr * w1r[k] - ti * w1i[k];
        i2[k] = tr * w1i[k] + ti * w1r[k];
        let (tr, ti) = (d02r - d13i, d02i + d13r);
        r3[k] = tr * w3r[k] - ti * w3i[k];
        i3[k] = tr * w3i[k] + ti * w3r[k];
    }
}

/// [`dif4`] at quarter length 1, where every twiddle is 1.
fn dif4_trivial(re: &mut [f64], im: &mut [f64]) {
    for (r, i) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
        let (s02r, s02i) = (r[0] + r[2], i[0] + i[2]);
        let (d02r, d02i) = (r[0] - r[2], i[0] - i[2]);
        let (s13r, s13i) = (r[1] + r[3], i[1] + i[3]);
        let (d13r, d13i) = (r[1] - r[3], i[1] - i[3]);
        r[0] = s02r + s13r;
        i[0] = s02i + s13i;
        r[1] = s02r - s13r;
        i[1] = s02i - s13i;
        r[2] = d02r + d13i;
        i[2] = d02i - d13r;
        r[3] = d02r - d13i;
        i[3] = d02i + d13r;
    }
}

/// One radix-4 decimation-in-time stage over a block of `4q`, conjugate
/// twiddles: the radix-2 stages of half `q` and `2q` in one pass. With
/// `a₀ = x₀`, `a₁ = x₁·w₂*`, `a₂ = x₂·w₁*`, `a₃ = x₃·w₃*`, the outputs are
/// `s₀₁ + s₂₃`, `d₀₁ + j·d₂₃`, `s₀₁ − s₂₃` and `d₀₁ − j·d₂₃`.
#[inline(never)]
fn dit4(re: &mut [f64], im: &mut [f64], w: &Quad<'_>) {
    let q = re.len() / 4;
    let [r0, r1, r2, r3] = quarters(re);
    let [i0, i1, i2, i3] = quarters(im);
    let [w1r, w2r, w3r] = w.re.map(|s| &s[..q]);
    let [w1i, w2i, w3i] = w.im.map(|s| &s[..q]);
    for k in 0..q {
        let (a1r, a1i) = (
            r1[k] * w2r[k] + i1[k] * w2i[k],
            i1[k] * w2r[k] - r1[k] * w2i[k],
        );
        let (a2r, a2i) = (
            r2[k] * w1r[k] + i2[k] * w1i[k],
            i2[k] * w1r[k] - r2[k] * w1i[k],
        );
        let (a3r, a3i) = (
            r3[k] * w3r[k] + i3[k] * w3i[k],
            i3[k] * w3r[k] - r3[k] * w3i[k],
        );
        let (s01r, s01i) = (r0[k] + a1r, i0[k] + a1i);
        let (d01r, d01i) = (r0[k] - a1r, i0[k] - a1i);
        let (s23r, s23i) = (a2r + a3r, a2i + a3i);
        let (d23r, d23i) = (a2r - a3r, a2i - a3i);
        r0[k] = s01r + s23r;
        i0[k] = s01i + s23i;
        r1[k] = d01r - d23i;
        i1[k] = d01i + d23r;
        r2[k] = s01r - s23r;
        i2[k] = s01i - s23i;
        r3[k] = d01r + d23i;
        i3[k] = d01i - d23r;
    }
}

/// [`dit4`] at quarter length 1, where every twiddle is 1.
fn dit4_trivial(re: &mut [f64], im: &mut [f64]) {
    for (r, i) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
        let (s01r, s01i) = (r[0] + r[1], i[0] + i[1]);
        let (d01r, d01i) = (r[0] - r[1], i[0] - i[1]);
        let (s23r, s23i) = (r[2] + r[3], i[2] + i[3]);
        let (d23r, d23i) = (r[2] - r[3], i[2] - i[3]);
        r[0] = s01r + s23r;
        i[0] = s01i + s23i;
        r[1] = d01r - d23i;
        i[1] = d01i + d23r;
        r[2] = s01r - s23r;
        i[2] = s01i - s23i;
        r[3] = d01r + d23i;
        i[3] = d01i - d23r;
    }
}

/// Whether an `n`-point transform runs a second radix-2 stage (half
/// `n/4`) so that an even number of stages is left for radix-4: when
/// `log2(n)` is even.
fn has_second_radix2(n: usize) -> bool {
    n >= 4 && n.trailing_zeros() & 1 == 0
}

/// The quarter length of the first radix-4 stage (0 if there is none).
fn top_quarter(n: usize) -> usize {
    if has_second_radix2(n) {
        n / 16
    } else {
        n / 8
    }
}

/// `i` with its low `log2(n)` bits reversed.
fn bit_reverse(i: usize, n: usize) -> usize {
    i.reverse_bits()
        .checked_shr(usize::BITS - n.trailing_zeros())
        .unwrap_or(0)
}

/// Splits `input` into re/im slabs, entry `i` landing at `place(i)`.
fn split(input: &[Complex64], place: impl Fn(usize) -> usize) -> (Vec<f64>, Vec<f64>) {
    let mut re = vec![0.0; input.len()];
    let mut im = vec![0.0; input.len()];
    for (i, z) in input.iter().enumerate() {
        re[place(i)] = z.re;
        im[place(i)] = z.im;
    }
    (re, im)
}

/// Out-of-place forward FFT.
///
/// # Panics
/// Panics if `input.len()` is not a power of two.
pub fn fft(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    let plan = FftPlan::new(n);
    let (mut re, mut im) = split(input, |i| i);
    plan.forward(&mut re, &mut im, n);
    (0..n)
        .map(|k| {
            let i = bit_reverse(k, n);
            c64(re[i], im[i])
        })
        .collect()
}

/// Out-of-place inverse FFT (normalized by `1/N`).
///
/// # Panics
/// Panics if `input.len()` is not a power of two.
pub fn ifft(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    let plan = FftPlan::new(n);
    let (mut re, mut im) = split(input, |i| bit_reverse(i, n));
    plan.inverse(&mut re, &mut im, 0..n);
    let scale = 1.0 / n as f64;
    re.iter()
        .zip(&im)
        .map(|(r, i)| c64(r * scale, i * scale))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    /// The `O(N²)` DFT with kernel `e^{sign·j2πkn/N}`, unnormalized.
    fn naive_dft(x: &[Complex64], sign: f64) -> Vec<Complex64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                x.iter().enumerate().fold(Complex64::ZERO, |acc, (t, z)| {
                    let phase = sign * 2.0 * PI * ((k * t) % n) as f64 / n as f64;
                    acc + *z * Complex64::cis(phase)
                })
            })
            .collect()
    }

    /// A deterministic, non-symmetric test signal.
    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                c64(
                    (i as f64 * 0.37).sin() + 0.1,
                    (i as f64 * 1.3).cos() - 0.2 * (i % 3) as f64,
                )
            })
            .collect()
    }

    #[test]
    fn forward_and_inverse_match_the_naive_dft_at_every_size() {
        let mut n = 1;
        while n <= 4096 {
            let x = signal(n);
            let tol = 1e-12 * n as f64;
            let forward = naive_dft(&x, -1.0);
            let err = max_err(&fft(&x), &forward);
            assert!(err <= tol, "fft n={n}: max err {err:e}");
            let inverse: Vec<Complex64> = naive_dft(&x, 1.0)
                .iter()
                .map(|z| z.scale(1.0 / n as f64))
                .collect();
            let err = max_err(&ifft(&x), &inverse);
            assert!(err <= tol, "ifft n={n}: max err {err:e}");
            let back = ifft(&fft(&x));
            let err = max_err(&back, &x);
            assert!(
                err <= 1e-13 * (n as f64).log2().max(1.0),
                "round trip n={n}: max err {err:e}"
            );
            n *= 2;
        }
    }

    #[test]
    fn zero_tail_forward_matches_a_zero_padded_one() {
        // The first stage's pruning: inputs past `filled` are never read.
        for n in [1, 2, 4, 8, 64, 128] {
            let plan = FftPlan::new(n);
            for filled in [
                0,
                1,
                n / 4 + 1,
                (n / 2).saturating_sub(1),
                n / 2,
                n / 2 + 1,
                n - 1,
                n,
            ] {
                let filled = filled.min(n);
                let mut padded = signal(n);
                for z in &mut padded[filled..] {
                    *z = Complex64::ZERO;
                }
                let (mut re, mut im) = split(&signal(n), |i| i);
                for v in re[filled..].iter_mut().chain(im[filled..].iter_mut()) {
                    *v = f64::NAN;
                }
                plan.forward(&mut re, &mut im, filled);
                let got: Vec<Complex64> = (0..n)
                    .map(|k| c64(re[bit_reverse(k, n)], im[bit_reverse(k, n)]))
                    .collect();
                let err = max_err(&got, &naive_dft(&padded, -1.0));
                assert!(err <= 1e-12, "n {n}, filled {filled}: max err {err:e}");
            }
        }
    }

    #[test]
    fn pruned_inverse_matches_the_full_one_on_the_wanted_outputs() {
        // The last stage's pruning computes the wanted outputs with the
        // same operations, so they agree bit for bit.
        for n in [2, 4, 8, 16, 64, 128] {
            let plan = FftPlan::new(n);
            let (re0, im0) = split(&signal(n), |i| i);
            let (mut full_re, mut full_im) = (re0.clone(), im0.clone());
            plan.inverse(&mut full_re, &mut full_im, 0..n);
            let h = n / 2;
            for wanted in [
                0..0,
                0..1,
                1..h,
                h - 1..h + 1,
                h..n,
                1..n - 1,
                h / 2..h + h / 2,
                3..3,
            ] {
                let wanted = wanted.start.min(n)..wanted.end.min(n);
                let (mut re, mut im) = (re0.clone(), im0.clone());
                plan.inverse(&mut re, &mut im, wanted.clone());
                for i in wanted.clone() {
                    assert_eq!(
                        re[i].to_bits(),
                        full_re[i].to_bits(),
                        "n {n}, {wanted:?}, re[{i}]"
                    );
                    assert_eq!(
                        im[i].to_bits(),
                        full_im[i].to_bits(),
                        "n {n}, {wanted:?}, im[{i}]"
                    );
                }
            }
        }
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
        fft(&[Complex64::ZERO; 12]);
    }

    #[test]
    fn length_one_is_identity() {
        let x = vec![c64(3.0, 4.0)];
        assert_eq!(fft(&x), x);
        assert_eq!(ifft(&x), x);
    }
}
