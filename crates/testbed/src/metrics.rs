//! Localization error statistics: medians, means, percentiles, CDFs.
//!
//! The paper reports error distributions across clients and AP subsets as
//! CDFs (Figs. 13, 15, 16, 18) with headline medians/means; this module is
//! the single implementation all experiments share.

/// An empirical error distribution (meters).
#[derive(Clone, Debug, Default)]
pub struct ErrorStats {
    sorted: Vec<f64>,
}

impl ErrorStats {
    /// Builds statistics from raw error samples.
    ///
    /// # Panics
    /// Panics on NaN samples.
    pub fn new(mut errors: Vec<f64>) -> Self {
        assert!(
            errors.iter().all(|e| !e.is_nan()),
            "error samples must not be NaN"
        );
        errors.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs after check"));
        Self { sorted: errors }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the distribution is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean; 0 for empty input.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Linear-interpolated percentile, `p ∈ [0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        match self.sorted.len() {
            0 => 0.0,
            1 => self.sorted[0],
            n => {
                let rank = p / 100.0 * (n - 1) as f64;
                let lo = rank.floor() as usize;
                let hi = rank.ceil() as usize;
                let frac = rank - lo as f64;
                self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
            }
        }
    }

    /// Fraction of samples ≤ `x` (the empirical CDF).
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&e| e <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// `(error, cumulative fraction)` pairs for plotting the CDF.
    pub fn cdf_points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Formats the headline numbers the paper quotes.
    pub fn summary(&self) -> String {
        format!(
            "n={} median={:.3} m mean={:.3} m p90={:.3} m p95={:.3} m p98={:.3} m",
            self.len(),
            self.median(),
            self.mean(),
            self.percentile(90.0),
            self.percentile(95.0),
            self.percentile(98.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statistics() {
        let s = ErrorStats::new(vec![3.0, 1.0, 2.0, 4.0, 5.0]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 5.0);
        assert_eq!(s.percentile(25.0), 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let s = ErrorStats::new(vec![0.0, 1.0]);
        assert!((s.percentile(50.0) - 0.5).abs() < 1e-12);
        assert!((s.percentile(75.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let s = ErrorStats::new(vec![0.2, 0.5, 0.5, 1.0, 2.0]);
        assert_eq!(s.cdf_at(-1.0), 0.0);
        assert_eq!(s.cdf_at(0.5), 0.6);
        assert_eq!(s.cdf_at(10.0), 1.0);
        let pts = s.cdf_points();
        assert_eq!(pts.len(), 5);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn empty_and_singleton() {
        let empty = ErrorStats::new(vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.median(), 0.0);
        assert_eq!(empty.cdf_at(1.0), 0.0);
        let one = ErrorStats::new(vec![0.42]);
        assert_eq!(one.median(), 0.42);
        assert_eq!(one.percentile(99.0), 0.42);
    }

    #[test]
    fn summary_contains_headline_numbers() {
        let s = ErrorStats::new(vec![0.1, 0.2, 0.3]);
        let text = s.summary();
        assert!(text.contains("n=3"));
        assert!(text.contains("median=0.200"));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        ErrorStats::new(vec![1.0, f64::NAN]);
    }
}
