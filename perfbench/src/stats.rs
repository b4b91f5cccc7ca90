//! Sample statistics: nearest-rank percentiles over raw samples (no
//! histogram buckets, so a reported quantile is always a value that was
//! actually measured).

use std::time::Instant;

/// The nearest-rank `q`-th percentile (`0 < q <= 100`): the smallest
/// sample such that at least `q` % of all samples are at or below it.
///
/// # Panics
/// Panics on an empty sample set, `q` outside `(0, 100]`, or a NaN sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(
        q > 0.0 && q <= 100.0,
        "percentile rank {q} outside (0, 100]"
    );
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// The nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The `q`-th percentile of a time-ordered sample stream, made robust to a
/// transient stall: the stream is cut into up to ten consecutive slices,
/// each long enough to hold at least ten samples beyond its own `q`-th
/// percentile, and the median of the slices' percentiles is returned.
pub fn sliced_percentile(samples: &[f64], q: f64) -> f64 {
    let min_len = (10.0 / (1.0 - q / 100.0).max(1e-9)).ceil() as usize;
    sliced(samples, min_len, |s| percentile(s, q))
}

/// The mean of a time-ordered sample stream, made robust to a transient
/// stall like [`sliced_percentile`]: the median of the means of up to ten
/// consecutive slices of at least ten samples each. Unlike a percentile,
/// it moves smoothly when the samples fall into two modes whose shares
/// shift from run to run.
pub fn sliced_mean(samples: &[f64]) -> f64 {
    sliced(samples, 10, |s| s.iter().sum::<f64>() / s.len() as f64)
}

/// The median of `stat` over up to ten consecutive slices of `samples`,
/// each at least `min_len` long (one slice if there are fewer samples).
fn sliced(samples: &[f64], min_len: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let slices = (samples.len() / min_len.max(1)).clamp(1, 10);
    let len = samples.len() / slices;
    let per_slice: Vec<f64> = (0..slices)
        .map(|i| {
            let end = if i + 1 == slices {
                samples.len()
            } else {
                (i + 1) * len
            };
            stat(&samples[i * len..end])
        })
        .collect();
    median(&per_slice)
}

/// Completions per second since `start`, made robust to a transient
/// stall like [`sliced_percentile`]: the completions, in time order, are
/// cut into ten consecutive runs of equal count, each run's rate is its
/// count over the time since the previous run ended (or `start`), and the
/// median of those rates is returned.
pub fn sliced_rate(done_at: &[Instant], start: Instant) -> f64 {
    let mut at: Vec<f64> = done_at
        .iter()
        .map(|t| t.saturating_duration_since(start).as_secs_f64())
        .collect();
    at.sort_by(f64::total_cmp);
    let slices = at.len().clamp(1, 10);
    let len = at.len() / slices;
    let mut prev = 0.0;
    let rates: Vec<f64> = (0..slices)
        .map(|i| {
            let end = if i + 1 == slices {
                at.len()
            } else {
                (i + 1) * len
            };
            let last = at.get(end.wrapping_sub(1)).copied().unwrap_or(0.0);
            let span = last - prev;
            prev = last;
            if span > 0.0 {
                (end - i * len) as f64 / span
            } else {
                0.0
            }
        })
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn sliced_rate_ignores_one_stall() {
        let start = Instant::now();
        let at = |ms: u64| start + Duration::from_millis(ms);
        // One completion every 10 ms for 1 s, but a 200 ms stall before
        // the 50th: the median run still reads 100/s.
        let done: Vec<Instant> = (1..=100)
            .map(|i| at(10 * i + if i >= 50 { 200 } else { 0 }))
            .collect();
        assert!((sliced_rate(&done, start) - 100.0).abs() < 1e-6);
        assert_eq!(sliced_rate(&[], start), 0.0);
    }

    #[test]
    fn nearest_rank_on_known_samples() {
        // The textbook nearest-rank example: 5 samples.
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 5.0), 15.0);
        assert_eq!(percentile(&s, 30.0), 20.0);
        assert_eq!(percentile(&s, 40.0), 20.0);
        assert_eq!(percentile(&s, 50.0), 35.0);
        assert_eq!(percentile(&s, 100.0), 50.0);
        // Order of the input does not matter.
        let shuffled = [40.0, 15.0, 50.0, 35.0, 20.0];
        assert_eq!(median(&shuffled), 35.0);
    }

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 95.5), 96.0);
        assert_eq!(percentile(&s, 1.0), 1.0);
        // An even count's median is the lower middle sample, never an
        // interpolated value.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn sliced_percentile_ignores_one_stalled_slice() {
        // 2000 samples of 1.0 with one 200-sample stall of 9.0: the plain
        // p95 lands in the stall, the sliced p95 does not.
        let mut s = vec![1.0; 2000];
        for v in &mut s[600..800] {
            *v = 9.0;
        }
        assert_eq!(percentile(&s, 95.0), 9.0);
        assert_eq!(sliced_percentile(&s, 95.0), 1.0);
        // Too few samples for two p95 slices: one slice, the plain value.
        let short: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(sliced_percentile(&short, 95.0), 95.0);
        // p50 slices need only 20 samples: ten slices of a ramp, whose
        // medians are 9, 29, ..., 189; their lower middle is 89.
        let ramp: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(sliced_percentile(&ramp, 50.0), 89.0);
    }

    #[test]
    fn sliced_mean_ignores_one_stalled_slice() {
        // 1000 samples alternating 1.0 and 3.0 (mean 2.0), one slice of
        // them stalled at 100.0: the plain mean moves, the sliced one not.
        let mut s: Vec<f64> = (0..1000).map(|i| [1.0, 3.0][i % 2]).collect();
        for v in &mut s[300..400] {
            *v = 100.0;
        }
        assert!(s.iter().sum::<f64>() / 1000.0 > 10.0);
        assert_eq!(sliced_mean(&s), 2.0);
        // Too few samples for two slices: one slice, the plain mean.
        assert_eq!(sliced_mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_samples_panic() {
        percentile(&[], 50.0);
    }
}
