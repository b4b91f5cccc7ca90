//! Spatial smoothing for coherent multipath (paper §2.3.2, Figs. 6–7).
//!
//! Indoor multipath copies are *coherent* — phase-locked replicas of one
//! transmitted signal — which collapses the source correlation matrix `Rss`
//! to rank one and breaks MUSIC's subspace split. Shan, Wax & Kailath's
//! spatial smoothing (the paper's reference \[28\]) restores rank by
//! averaging the covariance of `NG` overlapping subarrays of size
//! `M − NG + 1`, at the cost of that many effective antennas.

use at_linalg::CMatrix;

/// Forward spatial smoothing of an `M×M` array correlation matrix over
/// `groups` subarrays.
///
/// Returns the `(M−groups+1)`-dimensional smoothed matrix
/// `R̄ = (1/NG) Σ_g R[g..g+Ms, g..g+Ms]`.
///
/// # Panics
/// Panics if `groups == 0` or `groups >= M` (at least a 2-element subarray
/// must remain).
pub fn spatial_smooth(rxx: &CMatrix, groups: usize) -> CMatrix {
    assert!(rxx.is_square(), "correlation matrix must be square");
    let m = rxx.rows();
    assert!(groups >= 1, "need at least one group");
    assert!(
        m > groups,
        "smoothing {m} antennas over {groups} groups leaves no usable subarray"
    );
    let ms = m - groups + 1;
    let mut acc = CMatrix::zeros(ms, ms);
    for g in 0..groups {
        acc = &acc + &rxx.submatrix(g, g, ms);
    }
    acc.scale(1.0 / groups as f64)
}

/// Forward–backward spatial smoothing: additionally averages with the
/// complex-conjugated, index-reversed ("backward") covariance, doubling the
/// decorrelation per antenna spent. A standard extension of \[28\]; exposed
/// for the ablation bench.
pub fn spatial_smooth_fb(rxx: &CMatrix, groups: usize) -> CMatrix {
    let fwd = spatial_smooth(rxx, groups);
    let ms = fwd.rows();
    // Backward matrix: J·conj(R̄)·J with J the exchange (flip) matrix.
    let bwd = CMatrix::from_fn(ms, ms, |r, c| fwd[(ms - 1 - r, ms - 1 - c)].conj());
    (&fwd + &bwd).scale(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steering::ula_steering;
    use at_linalg::{c64, eigh, CMatrix, Complex64};

    /// Rank-one coherent two-path correlation matrix for an `m`-ULA.
    fn coherent_two_path(m: usize, theta1: f64, theta2: f64, g2: Complex64) -> CMatrix {
        // x = a(θ1) + g2·a(θ2): one snapshot direction, fully coherent.
        let a1 = ula_steering(m, theta1);
        let a2 = ula_steering(m, theta2);
        let x = at_linalg::CVector::from_fn(m, |i| a1[i] + g2 * a2[i]);
        let mut r = CMatrix::zeros(m, m);
        r.add_outer_assign(&x, 1.0);
        r
    }

    #[test]
    fn smoothing_reduces_dimension() {
        let r = CMatrix::identity(8);
        assert_eq!(spatial_smooth(&r, 1).rows(), 8);
        assert_eq!(spatial_smooth(&r, 2).rows(), 7);
        assert_eq!(spatial_smooth(&r, 3).rows(), 6);
    }

    #[test]
    fn smoothing_preserves_hermitian_psd() {
        let r = coherent_two_path(8, 1.0, 2.0, c64(0.8, 0.3));
        let s = spatial_smooth(&r, 3);
        assert!(s.is_hermitian(1e-10));
        let e = eigh(&s).unwrap();
        for l in e.eigenvalues {
            assert!(l > -1e-10);
        }
    }

    #[test]
    fn coherent_sources_are_rank_one_before_smoothing() {
        let r = coherent_two_path(8, 1.0, 2.2, c64(0.9, -0.2));
        let e = eigh(&r).unwrap();
        // Second eigenvalue is (numerically) zero: subspace collapse.
        assert!(e.eigenvalues[1] / e.eigenvalues[0] < 1e-10);
    }

    #[test]
    fn smoothing_restores_rank_two() {
        let r = coherent_two_path(8, 1.0, 2.2, c64(0.9, -0.2));
        let s = spatial_smooth(&r, 3);
        let e = eigh(&s).unwrap();
        // After smoothing, two significant eigenvalues emerge.
        assert!(
            e.eigenvalues[1] / e.eigenvalues[0] > 0.01,
            "rank not restored: {:?}",
            e.eigenvalues
        );
        assert!(e.eigenvalues[2] / e.eigenvalues[0] < 1e-6);
    }

    #[test]
    fn forward_backward_beats_forward_at_equal_groups() {
        let r = coherent_two_path(6, 1.0, 1.9, c64(1.0, 0.0));
        let f = spatial_smooth(&r, 2);
        let fb = spatial_smooth_fb(&r, 2);
        let ef = eigh(&f).unwrap();
        let efb = eigh(&fb).unwrap();
        let sep_f = ef.eigenvalues[1] / ef.eigenvalues[0];
        let sep_fb = efb.eigenvalues[1] / efb.eigenvalues[0];
        assert!(
            sep_fb >= sep_f * 0.99,
            "FB ({sep_fb}) should decorrelate at least as well as forward ({sep_f})"
        );
        assert!(fb.is_hermitian(1e-10));
    }

    #[test]
    fn ng_one_is_identity() {
        let r = coherent_two_path(5, 0.7, 2.0, c64(0.5, 0.5));
        let s = spatial_smooth(&r, 1);
        for i in 0..5 {
            for j in 0..5 {
                assert!((s[(i, j)] - r[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "no usable subarray")]
    fn excessive_groups_panic() {
        spatial_smooth(&CMatrix::identity(4), 4);
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_panic() {
        spatial_smooth(&CMatrix::identity(4), 0);
    }
}
