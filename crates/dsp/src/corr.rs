//! Sample array-correlation matrices (paper eq. 4).
//!
//! Given per-antenna snapshot vectors `x(t) ∈ ℂᴹ`, the array correlation
//! matrix is `Rxx = E[x·xᴴ]`, estimated here by the sample mean over `K`
//! snapshots. The paper uses `K = 10` samples (§4.3.3) cut from the
//! preamble; the figure-19 experiment sweeps `K ∈ {1, 5, 10, 100}`.

use at_linalg::{CMatrix, CVector};

/// A block of `K` array snapshots for an `M`-antenna array, stored as
/// per-antenna sample streams of equal length.
#[derive(Clone, Debug)]
pub struct SnapshotBlock {
    /// `per_antenna[m][t]` = sample `t` at antenna `m`.
    per_antenna: Vec<Vec<at_linalg::Complex64>>,
}

impl SnapshotBlock {
    /// Builds a block from per-antenna streams.
    ///
    /// # Panics
    /// Panics if streams are empty or have unequal lengths.
    pub fn new(per_antenna: Vec<Vec<at_linalg::Complex64>>) -> Self {
        assert!(!per_antenna.is_empty(), "need at least one antenna");
        let len = per_antenna[0].len();
        assert!(len > 0, "need at least one snapshot");
        assert!(
            per_antenna.iter().all(|s| s.len() == len),
            "antenna streams must have equal length"
        );
        Self { per_antenna }
    }

    /// Number of antennas `M`.
    pub fn antennas(&self) -> usize {
        self.per_antenna.len()
    }

    /// Number of snapshots `K`.
    pub fn snapshots(&self) -> usize {
        self.per_antenna[0].len()
    }

    /// The array vector `x(t)` at snapshot `t`.
    pub(crate) fn snapshot(&self, t: usize) -> CVector {
        CVector::from_fn(self.antennas(), |m| self.per_antenna[m][t])
    }

    /// Restricts the block to the first `k` snapshots.
    pub fn truncated(&self, k: usize) -> SnapshotBlock {
        let k = k.min(self.snapshots());
        assert!(k > 0, "cannot truncate to zero snapshots");
        SnapshotBlock {
            per_antenna: self.per_antenna.iter().map(|s| s[..k].to_vec()).collect(),
        }
    }

    /// Per-antenna stream `m`.
    pub fn stream(&self, m: usize) -> &[at_linalg::Complex64] {
        &self.per_antenna[m]
    }

    /// The sample correlation matrix `Rxx = (1/K) Σ x(t)·x(t)ᴴ`.
    ///
    /// The result is Hermitian positive semi-definite by construction.
    pub fn correlation_matrix(&self) -> CMatrix {
        let m = self.antennas();
        let k = self.snapshots();
        let mut r = CMatrix::zeros(m, m);
        let w = 1.0 / k as f64;
        for t in 0..k {
            let x = self.snapshot(t);
            r.add_outer_assign(&x, w);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_linalg::{c64, eigh, Complex64};

    #[test]
    fn single_snapshot_gives_rank_one_matrix() {
        let x = [c64(1.0, 0.0), c64(0.0, 1.0), c64(-1.0, 0.0)];
        let block = SnapshotBlock::new(x.iter().map(|z| vec![*z]).collect());
        let r = block.correlation_matrix();
        assert!(r.is_hermitian(1e-14));
        let e = eigh(&r).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!(e.eigenvalues[1].abs() < 1e-12);
    }

    #[test]
    fn correlation_of_identical_antennas_is_all_ones() {
        let stream: Vec<Complex64> = (0..8).map(|t| Complex64::cis(t as f64)).collect();
        let block = SnapshotBlock::new(vec![stream.clone(), stream]);
        let r = block.correlation_matrix();
        for i in 0..2 {
            for j in 0..2 {
                assert!((r[(i, j)] - Complex64::ONE).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn phase_offset_appears_in_cross_terms() {
        // Antenna 2 = antenna 1 delayed by phase φ ⇒ R[0][1] = e^{-jφ}.
        let phi = 0.7;
        let s1: Vec<Complex64> = (0..16).map(|t| Complex64::cis(0.3 * t as f64)).collect();
        let s2: Vec<Complex64> = s1.iter().map(|z| *z * Complex64::cis(phi)).collect();
        let block = SnapshotBlock::new(vec![s1, s2]);
        let r = block.correlation_matrix();
        // R[0][1] = E[x0 · conj(x1)] = e^{-jφ}.
        assert!((r[(0, 1)] - Complex64::cis(-phi)).abs() < 1e-12);
        assert!((r[(1, 0)] - Complex64::cis(phi)).abs() < 1e-12);
    }

    #[test]
    fn truncation_limits_snapshots() {
        let block = SnapshotBlock::new(vec![
            (0..10).map(|t| c64(t as f64, 0.0)).collect(),
            (0..10).map(|t| c64(0.0, t as f64)).collect(),
        ]);
        let t = block.truncated(3);
        assert_eq!(t.snapshots(), 3);
        assert_eq!(t.antennas(), 2);
        // Truncating beyond length is a no-op.
        assert_eq!(block.truncated(99).snapshots(), 10);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn unequal_streams_panic() {
        SnapshotBlock::new(vec![vec![Complex64::ONE], vec![Complex64::ONE; 2]]);
    }

    #[test]
    fn correlation_is_psd() {
        let block = SnapshotBlock::new(vec![
            (0..5).map(|t| Complex64::cis(1.1 * t as f64)).collect(),
            (0..5)
                .map(|t| Complex64::cis(-0.4 * t as f64 + 1.0))
                .collect(),
            (0..5).map(|t| c64(t as f64, -(t as f64))).collect(),
        ]);
        let e = eigh(&block.correlation_matrix()).unwrap();
        for l in e.eigenvalues {
            assert!(l > -1e-10);
        }
    }
}
