//! 802.11 OFDM PLCP preamble synthesis (paper Figure 2).
//!
//! The preamble is ten identical short training symbols `s0…s9` (0.8 µs
//! each), a 1.6 µs guard interval, and two identical 3.2 µs long training
//! symbols `S0`, `S1`. ArrayTrack needs the genuine structure because:
//!
//! - packet detection correlates against it (§2.1, §4.3.4);
//! - diversity synthesis switches antenna sets between `S0` and `S1` (§2.2);
//! - the 10-sample AoA snapshots of §4.3.3 are cut from it.
//!
//! Because an OFDM symbol is a finite sum of subcarrier tones
//! `s(t) = Σₖ Sₖ·e^{j2πkΔf t}`, we synthesize the waveform by direct
//! evaluation in continuous time. That makes fractional multipath delays
//! exact — each path in the channel simulator just evaluates `s(t − τ)` —
//! with no resampling filters to tune.

use at_linalg::{c64, Complex64};
use std::f64::consts::PI;

/// OFDM subcarrier spacing Δf = 20 MHz / 64 = 312.5 kHz.
pub(crate) const SUBCARRIER_SPACING_HZ: f64 = 312_500.0;

/// Duration of one short training symbol: 0.8 µs.
pub(crate) const SHORT_SYMBOL_S: f64 = 0.8e-6;

/// Duration of the short training section: 10 × 0.8 µs = 8 µs.
pub(crate) const SHORT_SECTION_S: f64 = 8.0e-6;

/// Duration of the long-training guard interval: 1.6 µs.
pub(crate) const LONG_GI_S: f64 = 1.6e-6;

/// Duration of one long training symbol: 3.2 µs.
pub const LONG_SYMBOL_S: f64 = 3.2e-6;

/// Total preamble duration: 16 µs (§2.1: "a WiFi preamble's 16 µs duration").
pub const PREAMBLE_S: f64 = 16.0e-6;

/// The WARP/commodity-AP sampling rate used throughout the paper: 40 MS/s.
pub const SAMPLE_RATE_HZ: f64 = 40.0e6;

/// Start time of the first long training symbol `S0` within the preamble.
pub const LTS0_START_S: f64 = SHORT_SECTION_S + LONG_GI_S;

/// Start time of the second long training symbol `S1` within the preamble.
pub const LTS1_START_S: f64 = LTS0_START_S + LONG_SYMBOL_S;

/// Non-zero short-training subcarriers `(index k, value)` per 802.11-2012
/// §18.3.3; the √(13/6) factor normalizes power over the 12 used tones.
const SHORT_CARRIERS: [(i32, Complex64); 12] = [
    (-24, c64(1.0, 1.0)),
    (-20, c64(-1.0, -1.0)),
    (-16, c64(1.0, 1.0)),
    (-12, c64(-1.0, -1.0)),
    (-8, c64(-1.0, -1.0)),
    (-4, c64(1.0, 1.0)),
    (4, c64(-1.0, -1.0)),
    (8, c64(-1.0, -1.0)),
    (12, c64(1.0, 1.0)),
    (16, c64(1.0, 1.0)),
    (20, c64(1.0, 1.0)),
    (24, c64(1.0, 1.0)),
];

/// Long-training BPSK sequence on subcarriers −26…−1 then +1…+26
/// (DC is unused), per 802.11-2012 §18.3.3.
const LONG_SEQUENCE: [f64; 52] = [
    // k = -26 .. -1
    1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0,
    1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, // k = +1 .. +26
    1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0, -1.0,
    -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0,
];

/// A continuously-evaluable 802.11 OFDM preamble waveform.
///
/// The waveform is normalized to unit average power over the preamble, so a
/// channel gain `g` delivers received power `|g|²` and SNR bookkeeping stays
/// simple.
///
/// ```
/// use at_dsp::preamble::{Preamble, SAMPLE_RATE_HZ, PREAMBLE_S};
/// let p = Preamble::new();
/// let samples = p.sample_span(0.0, PREAMBLE_S, SAMPLE_RATE_HZ);
/// assert_eq!(samples.len(), 640); // 16 µs at 40 MS/s
/// ```
#[derive(Clone, Debug)]
pub struct Preamble {
    short_scale: f64,
    long_scale: f64,
}

impl Default for Preamble {
    fn default() -> Self {
        Self::new()
    }
}

impl Preamble {
    /// Builds the standard preamble, normalized to unit average power in
    /// both the short and long training sections.
    pub fn new() -> Self {
        // Mean power of a sum of unit tones with coefficients C_k is Σ|C_k|²
        // (tones are orthogonal over a symbol). Scale so that this is 1.
        let short_raw: f64 = SHORT_CARRIERS
            .iter()
            .map(|(_, v)| v.norm_sqr() * (13.0 / 6.0))
            .sum();
        let long_raw: f64 = LONG_SEQUENCE.len() as f64;
        Self {
            short_scale: (13.0f64 / 6.0).sqrt() / short_raw.sqrt(),
            long_scale: 1.0 / long_raw.sqrt(),
        }
    }

    /// Evaluates the baseband preamble at time `t` (seconds from preamble
    /// start). Returns zero outside `[0, 16 µs)`.
    pub fn eval(&self, t: f64) -> Complex64 {
        if !(0.0..PREAMBLE_S).contains(&t) {
            return Complex64::ZERO;
        }
        if t < SHORT_SECTION_S {
            self.eval_short(t)
        } else {
            // GI + S0 + S1 are one continuous periodic long-training
            // waveform: every tone has period 3.2 µs, and the guard interval
            // is defined as a cyclic prefix, i.e. the same tones.
            self.eval_long(t - LTS0_START_S)
        }
    }

    /// Short-training tone sum at time `t` (any real `t`; period 0.8 µs).
    fn eval_short(&self, t: f64) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for (k, v) in SHORT_CARRIERS {
            let phase = 2.0 * PI * k as f64 * SUBCARRIER_SPACING_HZ * t;
            acc = acc.mul_add(v, Complex64::cis(phase));
        }
        acc.scale(self.short_scale)
    }

    /// Long-training tone sum at time `t` (any real `t`; period 3.2 µs).
    fn eval_long(&self, t: f64) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for (i, &b) in LONG_SEQUENCE.iter().enumerate() {
            let k = if i < 26 { i as i32 - 26 } else { i as i32 - 25 };
            let phase = 2.0 * PI * k as f64 * SUBCARRIER_SPACING_HZ * t;
            acc += Complex64::cis(phase).scale(b);
        }
        acc.scale(self.long_scale)
    }

    /// Samples `[t0, t0 + duration)` at `rate` Hz.
    pub fn sample_span(&self, t0: f64, duration: f64, rate: f64) -> Vec<Complex64> {
        let n = (duration * rate).round() as usize;
        (0..n).map(|i| self.eval(t0 + i as f64 / rate)).collect()
    }

    /// The full preamble sampled at `rate` Hz; the packet detectors'
    /// reference waveform.
    pub fn reference(&self, rate: f64) -> Vec<Complex64> {
        self.sample_span(0.0, PREAMBLE_S, rate)
    }
}

/// A pseudo-random OFDM data symbol generator for packet bodies (collision
/// and latency experiments need realistic non-preamble samples).
///
/// Subcarriers −26…26 except DC carry random QPSK; 3.2 µs symbols with
/// 0.8 µs cyclic prefixes, evaluated continuously like the preamble.
#[derive(Clone, Debug)]
pub struct DataSymbols {
    /// QPSK values per symbol, 52 tones each.
    symbols: Vec<[Complex64; 52]>,
}

impl DataSymbols {
    /// Generates `n` random data symbols from the given RNG.
    pub(crate) fn random<R: rand::Rng>(n: usize, rng: &mut R) -> Self {
        let pts = [
            c64(1.0, 1.0).scale(1.0 / 2.0f64.sqrt()),
            c64(1.0, -1.0).scale(1.0 / 2.0f64.sqrt()),
            c64(-1.0, 1.0).scale(1.0 / 2.0f64.sqrt()),
            c64(-1.0, -1.0).scale(1.0 / 2.0f64.sqrt()),
        ];
        let symbols = (0..n)
            .map(|_| {
                let mut sym = [Complex64::ZERO; 52];
                for s in sym.iter_mut() {
                    *s = pts[rng.gen_range(0..4usize)];
                }
                sym
            })
            .collect();
        Self { symbols }
    }

    /// Symbol duration including cyclic prefix: 4 µs.
    pub(crate) const SYMBOL_S: f64 = 4.0e-6;

    /// Total duration of the data section.
    pub(crate) fn duration(&self) -> f64 {
        self.symbols.len() as f64 * Self::SYMBOL_S
    }

    /// Evaluates the data waveform at `t` seconds from the start of the data
    /// section (zero outside it). Unit average power.
    pub(crate) fn eval(&self, t: f64) -> Complex64 {
        if t < 0.0 {
            return Complex64::ZERO;
        }
        let idx = (t / Self::SYMBOL_S) as usize;
        if idx >= self.symbols.len() {
            return Complex64::ZERO;
        }
        // Offset within the symbol; the 0.8 µs cyclic prefix replays the
        // tail of the 3.2 µs core, which continuous tones give for free
        // by evaluating at (t_sym - 0.8 µs) modulo the tone period.
        let t_sym = t - idx as f64 * Self::SYMBOL_S - 0.8e-6;
        let mut acc = Complex64::ZERO;
        for (i, v) in self.symbols[idx].iter().enumerate() {
            let k = if i < 26 { i as i32 - 26 } else { i as i32 - 25 };
            let phase = 2.0 * PI * k as f64 * SUBCARRIER_SPACING_HZ * t_sym;
            acc = acc.mul_add(*v, Complex64::cis(phase));
        }
        acc.scale(1.0 / (52.0f64).sqrt())
    }
}

/// A complete simulated frame: preamble followed by a data body.
#[derive(Clone, Debug)]
pub struct Frame {
    /// The preamble waveform.
    pub preamble: Preamble,
    /// The data body (may be empty).
    pub body: DataSymbols,
}

impl Frame {
    /// A frame whose body holds `n_symbols` random OFDM data symbols.
    pub fn with_random_body<R: rand::Rng>(n_symbols: usize, rng: &mut R) -> Self {
        Self {
            preamble: Preamble::new(),
            body: DataSymbols::random(n_symbols, rng),
        }
    }

    /// Total frame duration in seconds.
    pub fn duration(&self) -> f64 {
        PREAMBLE_S + self.body.duration()
    }

    /// Evaluates the frame waveform at time `t` from frame start.
    pub fn eval(&self, t: f64) -> Complex64 {
        if t < PREAMBLE_S {
            self.preamble.eval(t)
        } else {
            self.body.eval(t - PREAMBLE_S)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_power(xs: &[Complex64]) -> f64 {
        xs.iter().map(|z| z.norm_sqr()).sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn preamble_duration_is_16us_at_40msps() {
        let p = Preamble::new();
        assert_eq!(p.reference(SAMPLE_RATE_HZ).len(), 640);
    }

    #[test]
    fn short_symbols_repeat_every_800ns() {
        let p = Preamble::new();
        for i in 0..32 {
            let t = 0.3e-6 + i as f64 * 0.025e-6;
            let a = p.eval(t);
            let b = p.eval(t + SHORT_SYMBOL_S);
            assert!((a - b).abs() < 1e-9, "STS not periodic at t={t}");
        }
    }

    #[test]
    fn long_symbols_s0_s1_identical() {
        let p = Preamble::new();
        for i in 0..64 {
            let dt = i as f64 * 0.05e-6;
            let a = p.eval(LTS0_START_S + dt);
            let b = p.eval(LTS1_START_S + dt);
            assert!((a - b).abs() < 1e-9, "LTS mismatch at offset {dt}");
        }
    }

    #[test]
    fn guard_interval_is_cyclic_prefix() {
        let p = Preamble::new();
        // GI occupies [8.0, 9.6) µs and must equal the tail of S0.
        for i in 0..16 {
            let dt = i as f64 * 0.1e-6;
            let gi = p.eval(SHORT_SECTION_S + dt);
            let tail = p.eval(LTS0_START_S + LONG_SYMBOL_S - LONG_GI_S + dt);
            assert!(
                (gi - tail).abs() < 1e-9,
                "GI is not a cyclic prefix at {dt}"
            );
        }
    }

    #[test]
    fn sections_have_unit_average_power() {
        let p = Preamble::new();
        let short = p.sample_span(0.0, SHORT_SECTION_S, SAMPLE_RATE_HZ);
        let long = p.sample_span(LTS0_START_S, 2.0 * LONG_SYMBOL_S, SAMPLE_RATE_HZ);
        assert!(
            (mean_power(&short) - 1.0).abs() < 1e-6,
            "short power {}",
            mean_power(&short)
        );
        assert!(
            (mean_power(&long) - 1.0).abs() < 1e-6,
            "long power {}",
            mean_power(&long)
        );
    }

    #[test]
    fn zero_outside_preamble() {
        let p = Preamble::new();
        assert_eq!(p.eval(-1e-9), Complex64::ZERO);
        assert_eq!(p.eval(PREAMBLE_S + 1e-9), Complex64::ZERO);
    }

    #[test]
    fn delayed_evaluation_shifts_waveform() {
        // Sampling the preamble with a fractional delay equals evaluating
        // the underlying tones at shifted times (this is what gives the
        // channel its exact fractional path delays).
        let p = Preamble::new();
        let tau = 13.7e-9;
        let direct = p.eval(1.0e-6 - tau);
        let shifted = p.eval(1.0e-6 - tau);
        assert_eq!(direct, shifted);
    }

    #[test]
    fn data_symbols_have_unit_power_and_cyclic_prefix() {
        let mut rng = rand::rngs::mock::StepRng::new(7, 0x9e3779b97f4a7c15);
        let d = DataSymbols::random(4, &mut rng);
        let n = 400;
        let samples: Vec<Complex64> = (0..n)
            .map(|i| d.eval(i as f64 * d.duration() / n as f64))
            .collect();
        let pw = mean_power(&samples);
        assert!((pw - 1.0).abs() < 0.15, "data power {pw}");
        // Cyclic prefix: first 0.8 µs of a symbol equals its last 0.8 µs.
        for i in 0..8 {
            let dt = i as f64 * 0.1e-6;
            let cp = d.eval(dt);
            let tail = d.eval(3.2e-6 + dt);
            assert!((cp - tail).abs() < 1e-9);
        }
    }

    #[test]
    fn frame_concatenates_preamble_and_body() {
        let mut rng = rand::rngs::mock::StepRng::new(3, 0x6c078965);
        let f = Frame::with_random_body(2, &mut rng);
        assert!((f.duration() - (16.0e-6 + 8.0e-6)).abs() < 1e-12);
        let p = Preamble::new();
        assert_eq!(f.eval(5.0e-6), p.eval(5.0e-6));
        assert!((f.eval(PREAMBLE_S + 1.0e-6) - f.body.eval(1.0e-6)).abs() < 1e-12);
    }

    #[test]
    fn lts_spectrum_matches_sequence() {
        // FFT of one sampled LTS at 20 MS/s recovers the ±1 BPSK sequence.
        let p = Preamble::new();
        let samples = p.sample_span(LTS0_START_S, LONG_SYMBOL_S, 20.0e6);
        assert_eq!(samples.len(), 64);
        let spec = crate::fft::fft(&samples);
        // Bin k for k in 1..=26; bin 64+k for negative k.
        for k in 1..=26i32 {
            let pos = spec[k as usize];
            let neg = spec[(64 + (-k)) as usize];
            assert!(pos.abs() > 1.0, "missing +{k} tone");
            assert!(neg.abs() > 1.0, "missing -{k} tone");
            assert!(
                pos.im.abs() < 1e-6 * pos.abs() + 1e-9,
                "tone +{k} not BPSK-real"
            );
        }
        assert!(spec[0].abs() < 1e-9, "DC should be empty");
    }
}
