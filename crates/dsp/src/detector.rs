//! Packet detection (paper §2.1 and §4.3.4).
//!
//! Two detectors are provided:
//!
//! - [`SchmidlCox`]: the classic autocorrelation detector over the repeated
//!   short training symbols. Cheap, but its metric degrades quickly at low
//!   SNR.
//! - [`MatchedFilter`]: the paper's "modified" detector — because ArrayTrack
//!   never needs to decode the packet, it can cross-correlate against the
//!   *entire known preamble* (all ten short and both long training symbols),
//!   buying roughly `10·log10(640/32) ≈ 13 dB` of integration gain and
//!   detecting packets down to −10 dB SNR (§4.3.4).
//!
//! Both report sample-accurate frame start offsets.

use crate::fft::FftPlan;
use at_linalg::{c64, Complex64};
use std::cell::RefCell;

/// A detection event: where a frame starts and how strong the metric was.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Detection {
    /// Sample index of the estimated frame start.
    pub start: usize,
    /// Peak metric value (detector-specific normalization, 0..1-ish).
    pub metric: f64,
}

/// Reusable workspace for the detectors' hot paths: the timing metric /
/// correlation traces, the sliding-energy prefix sums, the matched
/// filter's two overlap-save blocks (split re/im), and the peak lists.
///
/// The `_into` detector methods write into one of these instead of
/// allocating per call; [`SchmidlCox::detect`], [`MatchedFilter::detect`]
/// and [`MatchedFilter::detect_all`] route through a per-thread instance,
/// so a capture thread scanning frame after frame stops paying allocator
/// round-trips once the workspace has grown to the stream length.
#[derive(Clone, Debug, Default)]
pub struct DetectScratch {
    metric: Vec<f64>,
    prefix: Vec<f64>,
    corr: Vec<f64>,
    blocks: [SplitBlock; 2],
    peaks: Vec<Detection>,
    kept: Vec<Detection>,
}

impl DetectScratch {
    /// An empty workspace; it grows to the stream shape on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The suppressed, start-ordered detections left by
    /// [`MatchedFilter::detect_all_into`].
    pub fn detections(&self) -> &[Detection] {
        &self.kept
    }
}

/// Complex samples in split storage: real parts, imaginary parts.
type SplitBlock = (Vec<f64>, Vec<f64>);

thread_local! {
    static DETECT_SCRATCH: RefCell<DetectScratch> = RefCell::new(DetectScratch::new());
}

/// Runs `f` with the calling thread's detector workspace, falling back to
/// a fresh arena under re-entrancy rather than panicking.
fn with_detect_scratch<R>(f: impl FnOnce(&mut DetectScratch) -> R) -> R {
    DETECT_SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut DetectScratch::new()),
    })
}

/// Schmidl–Cox autocorrelation detector over the periodic short training
/// symbols.
///
/// The metric is `M(d) = |P(d)|² / R(d)²` with
/// `P(d) = Σ r*(d+m)·r(d+m+L)` and `R(d) = Σ |r(d+m+L)|²`, where `L` is the
/// short-symbol period in samples. `M` plateaus near 1 across the short
/// training section; we report the start of the first plateau.
#[derive(Clone, Debug)]
pub struct SchmidlCox {
    /// Short-symbol period in samples (32 at 40 MS/s).
    period: usize,
    /// Number of lag products summed (one period's worth by default).
    window: usize,
    /// Plateau threshold on the metric.
    threshold: f64,
}

impl SchmidlCox {
    /// Detector for a given sample rate, with the standard 0.8 µs STS period.
    pub fn new(sample_rate_hz: f64) -> Self {
        let period = (crate::preamble::SHORT_SYMBOL_S * sample_rate_hz).round() as usize;
        Self {
            period,
            window: period,
            threshold: 0.6,
        }
    }

    /// Computes the timing metric `M(d)` for every valid offset.
    #[cfg(test)]
    pub(crate) fn metric(&self, rx: &[Complex64]) -> Vec<f64> {
        let mut scratch = DetectScratch::new();
        self.metric_into(rx, &mut scratch);
        std::mem::take(&mut scratch.metric)
    }

    /// The timing metric `M(d)` for every valid offset, into a reusable
    /// workspace; empty when the stream is too short for a single window.
    pub(crate) fn metric_into(&self, rx: &[Complex64], scratch: &mut DetectScratch) {
        let out = &mut scratch.metric;
        out.clear();
        let l = self.period;
        let w = self.window;
        if rx.len() < 2 * l + w {
            return;
        }
        let n = rx.len() - l - w;
        out.reserve(n);
        for d in 0..n {
            let mut p = Complex64::ZERO;
            let mut r = 0.0;
            for m in 0..w {
                p = p.mul_add(rx[d + m].conj(), rx[d + m + l]);
                r += rx[d + m + l].norm_sqr();
            }
            out.push(if r > 0.0 { p.norm_sqr() / (r * r) } else { 0.0 });
        }
    }

    /// Returns the first detection, if any: the first index where the
    /// metric crosses the threshold and stays there for half a period.
    pub fn detect(&self, rx: &[Complex64]) -> Option<Detection> {
        let _t = at_obs::time_stage!(at_obs::stages::DETECT, "detector" => "schmidl_cox");
        let det = with_detect_scratch(|scratch| {
            self.metric_into(rx, scratch);
            let m = &scratch.metric;
            let hold = self.period / 2;
            let mut run = 0usize;
            for (d, &v) in m.iter().enumerate() {
                if v >= self.threshold {
                    run += 1;
                    if run >= hold {
                        let start = d + 1 - run;
                        return Some(Detection {
                            start,
                            metric: m[start..=d].iter().cloned().fold(0.0, f64::max),
                        });
                    }
                } else {
                    run = 0;
                }
            }
            None
        });
        match det {
            Some(_) => {
                at_obs::count!("at_detections_total", "detector" => "schmidl_cox", "result" => "hit")
            }
            None => {
                at_obs::count!("at_detections_total", "detector" => "schmidl_cox", "result" => "miss")
            }
        }
        det
    }
}

/// Full-preamble matched filter: normalized cross-correlation of the
/// received stream against the known 16 µs preamble waveform.
///
/// The correlation runs as overlap-save FFT convolution, with the
/// reference split into two halves. With `L` the reference length,
/// `L₁ = ⌈L/2⌉` the first half's and `M = next_pow2(2·L₁)` the block size
/// (640, 320 and 1024 at 40 MS/s), each block yields `M − L₁ + 1`
/// correlation outputs for two forward transforms (one per half, over
/// input windows `L₁` samples apart), one pointwise multiply-add of both
/// spectra against the halves' kernels, and one inverse transform, against
/// `O(M·L)` for the direct sliding dot product. Three `M`-point transforms
/// cost less than the two `2M`-point ones an unsplit reference needs. The
/// forward pass leaves a spectrum in bit-reversed order, the kernels are
/// stored in that order, and the inverse pass takes bit-reversed input,
/// so no pass permutes a block. A 1040-sample capture window is a single
/// block; longer streams step through the input `M − L₁ + 1` samples at a
/// time.
///
/// ```
/// use at_dsp::preamble::{Preamble, SAMPLE_RATE_HZ};
/// use at_dsp::detector::MatchedFilter;
/// use at_linalg::Complex64;
/// let p = Preamble::new();
/// let mut rx = vec![Complex64::ZERO; 100];
/// rx.extend(p.reference(SAMPLE_RATE_HZ));
/// rx.extend(vec![Complex64::ZERO; 100]);
/// let det = MatchedFilter::new(&p, SAMPLE_RATE_HZ).detect(&rx).unwrap();
/// assert_eq!(det.start, 100);
/// ```
#[derive(Clone, Debug)]
pub struct MatchedFilter {
    /// Reference preamble length `L` in samples.
    reference_len: usize,
    /// Taps in the reference's first half, `L₁ = ⌈L/2⌉`.
    half_len: usize,
    /// Each half's kernel `G / M` in bit-reversed order: `G` is the
    /// `M`-point spectrum of the half of the conjugated, unit-energy
    /// reference, time-reversed and zero-padded. The second half is
    /// front-padded to `L₁` taps, so both halves' valid outputs line up.
    kernels: [SplitBlock; 2],
    /// The `M`-point transform's twiddles.
    plan: FftPlan,
    /// Detection threshold on normalized correlation (0..1).
    threshold: f64,
}

/// The conjugated, unit-energy reference: `acc[d] = Σₖ r[k]·rx[d + k]`.
fn unit_reference(preamble: &crate::preamble::Preamble, sample_rate_hz: f64) -> Vec<Complex64> {
    let mut reference = preamble.reference(sample_rate_hz);
    let energy: f64 = reference.iter().map(|z| z.norm_sqr()).sum();
    let scale = 1.0 / energy.sqrt();
    for z in &mut reference {
        *z = z.conj().scale(scale);
    }
    reference
}

/// Sliding window energy via prefix sums: `prefix[i] = Σ_{k<i} |rx[k]|²`.
fn energy_prefix_into(rx: &[Complex64], prefix: &mut Vec<f64>) {
    prefix.resize(rx.len() + 1, 0.0);
    let mut sum = 0.0;
    prefix[0] = sum;
    for (p, z) in prefix[1..].iter_mut().zip(rx) {
        sum += z.norm_sqr();
        *p = sum;
    }
}

/// The normalized correlation at offset `d` from the raw dot product's
/// magnitude `acc_abs`.
fn normalized(acc_abs: f64, prefix: &[f64], d: usize, len: usize) -> f64 {
    let energy = prefix[d + len] - prefix[d];
    if energy > 0.0 {
        acc_abs / energy.sqrt()
    } else {
        0.0
    }
}

impl MatchedFilter {
    /// Builds the filter from a preamble sampled at `sample_rate_hz`.
    pub fn new(preamble: &crate::preamble::Preamble, sample_rate_hz: f64) -> Self {
        let reference = unit_reference(preamble, sample_rate_hz);
        let len = reference.len();
        let half_len = len.div_ceil(2);
        let m = (2 * half_len).next_power_of_two();
        let plan = FftPlan::new(m);
        // Correlation with a half `h` is convolution with its time reverse
        // `g`; the valid outputs of an `M`-point circular convolution with
        // an `L₁`-tap kernel sit at `L₁ − 1..M`. The forward pass leaves
        // `G` in bit-reversed order, the order the blocks' spectra come
        // out in.
        let scale = 1.0 / m as f64;
        let kernels = [&reference[..half_len], &reference[half_len..]].map(|half| {
            let pad = half_len - half.len();
            let (mut re, mut im) = (vec![0.0; m], vec![0.0; m]);
            for ((re, im), z) in re[pad..]
                .iter_mut()
                .zip(&mut im[pad..])
                .zip(half.iter().rev())
            {
                *re = z.re * scale;
                *im = z.im * scale;
            }
            plan.forward(&mut re, &mut im, half_len);
            (re, im)
        });
        Self {
            reference_len: len,
            half_len,
            kernels,
            plan,
            threshold: 0.5,
        }
    }

    /// Overrides the correlation threshold (default 0.5).
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Normalized correlation magnitude at every alignment.
    ///
    /// Value at offset `d` is `|⟨ref, rx[d..]⟩| / ‖rx[d..d+N]‖`, which is 1
    /// for a noiseless, scaled copy of the preamble.
    #[cfg(test)]
    pub(crate) fn correlation(&self, rx: &[Complex64]) -> Vec<f64> {
        let mut scratch = DetectScratch::new();
        self.correlation_into(rx, &mut scratch);
        std::mem::take(&mut scratch.corr)
    }

    /// The normalized correlation magnitude at every alignment, into a
    /// reusable workspace; empty when the stream is shorter than the
    /// reference.
    pub(crate) fn correlation_into(&self, rx: &[Complex64], scratch: &mut DetectScratch) {
        let DetectScratch {
            prefix,
            corr,
            blocks: [(ar, ai), (br, bi)],
            ..
        } = scratch;
        prefix.clear();
        corr.clear();
        let len = self.reference_len;
        if rx.len() < len {
            return;
        }
        energy_prefix_into(rx, prefix);
        let first = self.half_len;
        let m = self.plan.len();
        let step = m - first + 1;
        let outputs = rx.len() - len + 1;
        corr.reserve(outputs);
        for block in [&mut *ar, &mut *ai, &mut *br, &mut *bi] {
            block.resize(m, 0.0);
        }
        let (ar, ai, br, bi) = (&mut ar[..m], &mut ai[..m], &mut br[..m], &mut bi[..m]);
        let [(gar, gai), (gbr, gbi)] = &self.kernels;
        let (gar, gai, gbr, gbi) = (&gar[..m], &gai[..m], &gbr[..m], &gbi[..m]);
        for start in (0..outputs).step_by(step) {
            let count = step.min(outputs - start);
            // Output `d` correlates the first half over `rx[d..d + L₁]`
            // and the second over `rx[d + L₁..d + L]`.
            self.forward_block(ar, ai, &rx[start..start + count + first - 1]);
            self.forward_block(br, bi, &rx[start + first..start + count + len - 1]);
            // Every spectrum is in bit-reversed order: the products need
            // no permutation, and the inverse pass restores natural order.
            for k in 0..m {
                let (xr, xi, yr, yi) = (ar[k], ai[k], br[k], bi[k]);
                ar[k] = (xr * gar[k] - xi * gai[k]) + (yr * gbr[k] - yi * gbi[k]);
                ai[k] = (xr * gai[k] + xi * gar[k]) + (yr * gbi[k] + yi * gbr[k]);
            }
            let valid = first - 1..first - 1 + count;
            self.plan.inverse(ar, ai, valid.clone());
            corr.extend(
                ar[valid.clone()]
                    .iter()
                    .zip(&ai[valid])
                    .enumerate()
                    .map(|(j, (&re, &im))| normalized(c64(re, im).abs(), prefix, start + j, len)),
            );
        }
    }

    /// Copies `input` into a split block, zero-padded to the block size,
    /// and transforms it in place.
    fn forward_block(&self, re: &mut [f64], im: &mut [f64], input: &[Complex64]) {
        for ((re, im), z) in re.iter_mut().zip(im.iter_mut()).zip(input) {
            *re = z.re;
            *im = z.im;
        }
        self.plan.forward(re, im, input.len());
    }

    /// Returns all detections: local maxima of the correlation above the
    /// threshold, greedily separated by at least one preamble length.
    pub fn detect_all(&self, rx: &[Complex64]) -> Vec<Detection> {
        with_detect_scratch(|scratch| {
            self.detect_all_into(rx, scratch);
            scratch.kept.clone()
        })
    }

    /// [`Self::detect_all`] into a reusable workspace
    /// (`scratch.detections()`) — the allocation-free shape of the scan.
    pub fn detect_all_into(&self, rx: &[Complex64], scratch: &mut DetectScratch) {
        self.correlation_into(rx, scratch);
        self.peaks_into(scratch);
    }

    /// Peak picking and non-maximum suppression over `scratch.corr`.
    fn peaks_into(&self, scratch: &mut DetectScratch) {
        let DetectScratch {
            corr, peaks, kept, ..
        } = scratch;
        peaks.clear();
        for (d, &v) in corr.iter().enumerate() {
            if v >= self.threshold
                && (d == 0 || corr[d - 1] <= v)
                && (d + 1 == corr.len() || v >= corr[d + 1])
            {
                peaks.push(Detection {
                    start: d,
                    metric: v,
                });
            }
        }
        // Non-maximum suppression within a full preamble length: the
        // periodic short training symbols produce strong correlation
        // sidelobes at ±0.8 µs multiples that must not count as separate
        // detections. The peak list is tiny, so a stable insertion sort
        // (descending by metric — the same permutation as the stable
        // `sort_by` it replaces) avoids the merge buffer.
        for i in 1..peaks.len() {
            let mut j = i;
            while j > 0 && peaks[j].metric > peaks[j - 1].metric {
                peaks.swap(j, j - 1);
                j -= 1;
            }
        }
        let min_sep = self.reference_len;
        kept.clear();
        for &p in peaks.iter() {
            if kept.iter().all(|k| p.start.abs_diff(k.start) >= min_sep) {
                kept.push(p);
            }
        }
        // Back to start order (stable, in place).
        for i in 1..kept.len() {
            let mut j = i;
            while j > 0 && kept[j].start < kept[j - 1].start {
                kept.swap(j, j - 1);
                j -= 1;
            }
        }
    }

    /// The strongest detection, if any. (Taking the earliest instead is
    /// wrong at high SNR, where pre-peak correlation sidelobes also clear
    /// the threshold.)
    pub fn detect(&self, rx: &[Complex64]) -> Option<Detection> {
        let _t = at_obs::time_stage!(at_obs::stages::DETECT, "detector" => "matched_filter");
        let det = with_detect_scratch(|scratch| {
            self.detect_all_into(rx, scratch);
            scratch
                .kept
                .iter()
                .copied()
                .max_by(|a, b| a.metric.partial_cmp(&b.metric).expect("finite metrics"))
        });
        match det {
            Some(_) => {
                at_obs::count!("at_detections_total", "detector" => "matched_filter", "result" => "hit")
            }
            None => {
                at_obs::count!("at_detections_total", "detector" => "matched_filter", "result" => "miss")
            }
        }
        det
    }

    /// Reference length in samples.
    pub fn reference_len(&self) -> usize {
        self.reference_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::awgn::NoiseSource;
    use crate::preamble::{Preamble, SAMPLE_RATE_HZ};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn embedded_preamble(pad_front: usize, pad_back: usize) -> Vec<Complex64> {
        let p = Preamble::new();
        let mut rx = vec![Complex64::ZERO; pad_front];
        rx.extend(p.reference(SAMPLE_RATE_HZ));
        rx.extend(vec![Complex64::ZERO; pad_back]);
        rx
    }

    #[test]
    fn schmidl_cox_finds_clean_preamble() {
        let rx = embedded_preamble(200, 200);
        let det = SchmidlCox::new(SAMPLE_RATE_HZ)
            .detect(&rx)
            .expect("detection");
        // Plateau detection has inherent ambiguity of up to a couple of
        // symbol periods; require it lands inside the short section.
        assert!(
            det.start >= 150 && det.start <= 200 + 320,
            "start {}",
            det.start
        );
        assert!(det.metric > 0.9);
    }

    #[test]
    fn schmidl_cox_silent_on_noise() {
        let mut rng = StdRng::seed_from_u64(1);
        let noise = NoiseSource::with_power(1.0);
        let rx: Vec<Complex64> = (0..2000).map(|_| noise.sample(&mut rng)).collect();
        assert!(SchmidlCox::new(SAMPLE_RATE_HZ).detect(&rx).is_none());
    }

    #[test]
    fn matched_filter_sample_accurate_at_high_snr() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut rx = embedded_preamble(173, 300);
        NoiseSource::for_snr_db(15.0).corrupt(&mut rx, &mut rng);
        let p = Preamble::new();
        let det = MatchedFilter::new(&p, SAMPLE_RATE_HZ)
            .detect(&rx)
            .expect("detection");
        assert_eq!(det.start, 173);
    }

    #[test]
    fn matched_filter_detects_at_minus_10db() {
        // §4.3.4: full-preamble integration detects at −10 dB SNR. The
        // expected normalized correlation at SNR ρ is √(ρ/(1+ρ)) ≈ 0.30 at
        // −10 dB while noise-only alignments sit near √(π/4N) ≈ 0.035, so a
        // 0.15 threshold separates them by many standard deviations.
        let p = Preamble::new();
        let mf = MatchedFilter::new(&p, SAMPLE_RATE_HZ).with_threshold(0.15);
        let mut hits = 0;
        let trials = 20;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let mut rx = embedded_preamble(400, 400);
            NoiseSource::for_snr_db(-10.0).corrupt(&mut rx, &mut rng);
            if let Some(det) = mf.detect(&rx) {
                if det.start.abs_diff(400) <= 2 {
                    hits += 1;
                }
            }
        }
        assert!(
            hits >= trials * 8 / 10,
            "only {hits}/{trials} detections at -10 dB"
        );
    }

    #[test]
    fn matched_filter_no_false_alarm_on_noise() {
        let p = Preamble::new();
        let mf = MatchedFilter::new(&p, SAMPLE_RATE_HZ).with_threshold(0.15);
        let mut false_alarms = 0;
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(7000 + seed);
            let noise = NoiseSource::with_power(1.0);
            let rx: Vec<Complex64> = (0..1500).map(|_| noise.sample(&mut rng)).collect();
            if mf.detect(&rx).is_some() {
                false_alarms += 1;
            }
        }
        assert!(false_alarms <= 1, "{false_alarms}/10 false alarms");
    }

    #[test]
    fn matched_filter_finds_two_frames() {
        let p = Preamble::new();
        let pre = p.reference(SAMPLE_RATE_HZ);
        let mut rx = vec![Complex64::ZERO; 50];
        rx.extend(&pre);
        rx.extend(vec![Complex64::ZERO; 900]);
        rx.extend(&pre);
        rx.extend(vec![Complex64::ZERO; 50]);
        let dets = MatchedFilter::new(&p, SAMPLE_RATE_HZ).detect_all(&rx);
        assert_eq!(dets.len(), 2, "{dets:?}");
        assert_eq!(dets[0].start, 50);
        assert_eq!(dets[1].start, 50 + pre.len() + 900);
    }

    #[test]
    fn correlation_is_scale_invariant() {
        let p = Preamble::new();
        let mf = MatchedFilter::new(&p, SAMPLE_RATE_HZ);
        let rx = embedded_preamble(10, 10);
        let rx_scaled: Vec<Complex64> = rx.iter().map(|z| z.scale(1e-3)).collect();
        let c1 = mf.correlation(&rx);
        let c2 = mf.correlation(&rx_scaled);
        for (a, b) in c1.iter().zip(&c2) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn short_input_yields_no_metric() {
        let p = Preamble::new();
        let mf = MatchedFilter::new(&p, SAMPLE_RATE_HZ);
        assert!(mf.correlation(&[Complex64::ONE; 10]).is_empty());
        assert!(mf.detect(&[Complex64::ONE; 10]).is_none());
        let sc = SchmidlCox::new(SAMPLE_RATE_HZ);
        assert!(sc.metric(&[Complex64::ONE; 10]).is_empty());
    }

    /// The direct `O(N·L)` sliding dot product the overlap-save form
    /// replaced: the oracle for the FFT path.
    fn direct_correlation(reference: &[Complex64], rx: &[Complex64]) -> Vec<f64> {
        let n = reference.len();
        if rx.len() < n {
            return Vec::new();
        }
        let mut prefix = Vec::new();
        energy_prefix_into(rx, &mut prefix);
        (0..=rx.len() - n)
            .map(|d| {
                let acc = reference
                    .iter()
                    .zip(&rx[d..d + n])
                    .fold(Complex64::ZERO, |acc, (r, x)| acc.mul_add(*r, *x));
                normalized(acc.abs(), &prefix, d, n)
            })
            .collect()
    }

    /// `detect_all` over the oracle's correlation trace.
    fn direct_detect_all(mf: &MatchedFilter, direct: &[f64]) -> Vec<Detection> {
        let mut scratch = DetectScratch::new();
        scratch.corr = direct.to_vec();
        mf.peaks_into(&mut scratch);
        scratch.kept
    }

    /// A stream of `len` samples: up to two preambles at `snr_db` in unit
    /// noise, an optional zeroed run, everything scaled by `scale`.
    fn parity_stream(
        len: usize,
        offsets: [f64; 2],
        snr_db: f64,
        zero_run: (f64, usize),
        scale: f64,
        seed: u64,
    ) -> Vec<Complex64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pre = Preamble::new().reference(SAMPLE_RATE_HZ);
        let amp = crate::awgn::db_to_linear(snr_db).sqrt();
        let mut rx = vec![Complex64::ZERO; len];
        NoiseSource::with_power(1.0).corrupt(&mut rx, &mut rng);
        if len >= pre.len() {
            for frac in offsets {
                let at = (frac * (len - pre.len() + 1) as f64) as usize;
                for (x, p) in rx[at..].iter_mut().zip(&pre) {
                    *x += p.scale(amp);
                }
            }
        }
        let (frac, run) = zero_run;
        let at = (frac * len as f64) as usize;
        for x in rx.iter_mut().skip(at).take(run) {
            *x = Complex64::ZERO;
        }
        for x in &mut rx {
            *x = x.scale(scale);
        }
        rx
    }

    /// Stream lengths worth probing: below, at and just past one reference
    /// length, the capture window, and one sample either side of the
    /// first four block boundaries (`k·(M − L + 1) + L − 1` samples).
    fn parity_len(pick: usize, extra: usize) -> usize {
        let l = Preamble::new().reference(SAMPLE_RATE_HZ).len();
        let step = (2 * l).next_power_of_two() - l + 1;
        let mut lens = vec![1, l - 1, l, l + 1, 1040];
        for k in 1..=4 {
            let edge = k * step + l - 1;
            lens.extend([edge - 1, edge, edge + 1]);
        }
        lens.get(pick).copied().unwrap_or(l + extra % (4 * step))
    }

    /// The split-reference blocks step `M − L₁ + 1` outputs at a time:
    /// streams ending one sample either side of each of the first four
    /// block edges, with a preamble whose correlation peak sits on the
    /// first edge, match the direct oracle.
    #[test]
    fn split_blocks_match_the_direct_oracle_at_every_block_edge() {
        let p = Preamble::new();
        let mf = MatchedFilter::new(&p, SAMPLE_RATE_HZ).with_threshold(0.15);
        let reference = unit_reference(&p, SAMPLE_RATE_HZ);
        let l = reference.len();
        let step = mf.plan.len() - mf.half_len + 1;
        for k in 1..=4 {
            for len in [k * step + l - 2, k * step + l - 1, k * step + l] {
                let straddle = (step - 1) as f64 / (len - l + 1) as f64;
                let rx = parity_stream(len, [straddle, 0.9], 0.0, (0.0, 0), 1.0, len as u64);
                let direct = direct_correlation(&reference, &rx);
                let fast = mf.correlation(&rx);
                assert_eq!(fast.len(), direct.len());
                let worst = fast
                    .iter()
                    .zip(&direct)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                assert!(worst <= 1e-9, "len {len}: max |dcorr| {worst:e}");
                let starts = |dets: &[Detection]| dets.iter().map(|d| d.start).collect::<Vec<_>>();
                let expect = starts(&direct_detect_all(&mf, &direct));
                assert!(!expect.is_empty(), "len {len}: no preamble found");
                assert_eq!(starts(&mf.detect_all(&rx)), expect, "len {len}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(96))]

        #[test]
        fn fft_correlation_matches_the_direct_oracle(
            shape in (0usize..24, 0usize..1 << 16),
            offsets in (0.0f64..1.0, 0.0f64..1.0),
            snr_db in -15.0f64..30.0,
            zero_run in (0.0f64..1.0, 0usize..1200),
            log_scale in -6.0f64..3.0,
            seed in 0u64..1 << 32,
        ) {
            let len = parity_len(shape.0, shape.1);
            let rx = parity_stream(len, [offsets.0, offsets.1], snr_db, zero_run, 10f64.powf(log_scale), seed);
            let reference = unit_reference(&Preamble::new(), SAMPLE_RATE_HZ);
            let base = MatchedFilter::new(&Preamble::new(), SAMPLE_RATE_HZ);

            let fast = base.correlation(&rx);
            let direct = direct_correlation(&reference, &rx);
            proptest::prop_assert_eq!(fast.len(), direct.len());
            let worst = fast.iter().zip(&direct).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            proptest::prop_assert!(worst <= 1e-9, "len {len}: max |dcorr| {worst:e}");

            for threshold in [0.15, 0.5] {
                let mf = base.clone().with_threshold(threshold);
                let starts = |dets: &[Detection]| dets.iter().map(|d| d.start).collect::<Vec<_>>();
                let expect = direct_detect_all(&mf, &direct);
                proptest::prop_assert_eq!(starts(&mf.detect_all(&rx)), starts(&expect));
                let strongest = expect
                    .iter()
                    .copied()
                    .max_by(|a, b| a.metric.partial_cmp(&b.metric).expect("finite metrics"));
                proptest::prop_assert_eq!(mf.detect(&rx).map(|d| d.start), strongest.map(|d| d.start));
            }
        }
    }
}
