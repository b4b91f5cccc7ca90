//! Eigendecomposition of complex Hermitian matrices.
//!
//! MUSIC (paper §2.3.1) needs the full eigensystem of the `M×M` array
//! correlation matrix `Rxx` (eq. 4) to split signal from noise subspaces.
//! `M ≤ 16` here, so we use the cyclic complex Jacobi method: unconditionally
//! convergent for Hermitian matrices, numerically stable, and simple enough
//! to verify exhaustively — the right tool given that no external
//! linear-algebra crate is available offline.
//!
//! Each Jacobi step applies a unitary plane rotation `R(p,q)` chosen to zero
//! the off-diagonal entry `a_pq`. Writing `a_pq = r·e^{jφ}`, the rotation is
//!
//! ```text
//! R[p][p] = c        R[p][q] =  s·e^{jφ}
//! R[q][p] = -s·e^{-jφ}   R[q][q] = c
//! ```
//!
//! with `c = cosθ`, `s = sinθ`, `tan 2θ = 2r / (a_qq − a_pp)` — exactly the
//! real symmetric Jacobi rotation after the phase `e^{jφ}` is factored out.

use crate::complex::Complex64;
use crate::matrix::CMatrix;
use crate::vector::CVector;

/// Result of a Hermitian eigendecomposition: `A = V · diag(λ) · Vᴴ`.
///
/// Eigenvalues are real (Hermitian input) and sorted **descending**, so
/// `eigenvalues[0]` is the largest — the convention MUSIC uses when
/// classifying signal vs. noise subspaces (paper eq. 5 lists ascending, the
/// top `D` being signals; descending lets callers take `..d` for signals).
/// `eigenvectors.col(k)` is the unit eigenvector for `eigenvalues[k]`.
#[derive(Clone, Debug, Default)]
pub struct HermitianEigen {
    /// Real eigenvalues, sorted descending.
    pub eigenvalues: Vec<f64>,
    /// Unitary matrix whose columns are the corresponding eigenvectors.
    pub eigenvectors: CMatrix,
}

impl HermitianEigen {
    /// The eigenvector for `eigenvalues[k]`.
    pub fn eigenvector(&self, k: usize) -> CVector {
        self.eigenvectors.col(k)
    }

    /// Regularized inverse `V · diag(1/max(λ, ε·λmax)) · Vᴴ` — the
    /// loading MVDR/Capon beamformers need to invert near-singular sample
    /// correlation matrices.
    pub fn inverse_regularized(&self, rel_floor: f64) -> CMatrix {
        let n = self.eigenvalues.len();
        let lmax = self.eigenvalues.first().copied().unwrap_or(0.0).max(0.0);
        let floor = (rel_floor * lmax).max(f64::MIN_POSITIVE);
        let inv = CMatrix::from_fn(n, n, |r, c| {
            if r == c {
                Complex64::real(1.0 / self.eigenvalues[r].max(floor))
            } else {
                Complex64::ZERO
            }
        });
        let vi = &self.eigenvectors * &inv;
        &vi * &self.eigenvectors.hermitian_transpose()
    }

    /// Reconstructs `V · diag(λ) · Vᴴ`; used by tests to bound the backward
    /// error of the decomposition.
    pub fn reconstruct(&self) -> CMatrix {
        let n = self.eigenvalues.len();
        let lambda = CMatrix::from_fn(n, n, |r, c| {
            if r == c {
                Complex64::real(self.eigenvalues[r])
            } else {
                Complex64::ZERO
            }
        });
        let vl = &self.eigenvectors * &lambda;
        &vl * &self.eigenvectors.hermitian_transpose()
    }
}

/// Errors from the eigensolver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EigError {
    /// The input matrix was not square.
    NotSquare,
    /// The input matrix was not Hermitian within the solver's tolerance.
    NotHermitian,
    /// The Jacobi sweeps did not converge (pathological input, e.g. NaNs).
    NoConvergence,
}

impl std::fmt::Display for EigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EigError::NotSquare => write!(f, "matrix is not square"),
            EigError::NotHermitian => write!(f, "matrix is not Hermitian"),
            EigError::NoConvergence => write!(f, "Jacobi iteration did not converge"),
        }
    }
}

impl std::error::Error for EigError {}

/// Maximum number of full Jacobi sweeps before giving up. For well-formed
/// Hermitian input of dimension ≤ 64 convergence takes < 15 sweeps; more
/// means the input contained NaN/Inf.
const MAX_SWEEPS: usize = 100;

/// Hermitian tolerance relative to the matrix magnitude.
const HERMITIAN_RTOL: f64 = 1e-8;

/// Computes the full eigendecomposition of a Hermitian matrix.
///
/// # Errors
/// - [`EigError::NotSquare`] / [`EigError::NotHermitian`] on malformed input;
/// - [`EigError::NoConvergence`] only for non-finite input.
///
/// ```
/// use at_linalg::{c64, CMatrix, eigh};
/// // Pauli Y has eigenvalues ±1.
/// let y = CMatrix::from_rows(2, 2, vec![
///     c64(0.0, 0.0), c64(0.0, -1.0),
///     c64(0.0, 1.0), c64(0.0, 0.0),
/// ]);
/// let e = eigh(&y).unwrap();
/// assert!((e.eigenvalues[0] - 1.0).abs() < 1e-12);
/// assert!((e.eigenvalues[1] + 1.0).abs() < 1e-12);
/// ```
pub fn eigh(a: &CMatrix) -> Result<HermitianEigen, EigError> {
    let mut out = HermitianEigen::default();
    eigh_into(a, &mut EigScratch::default(), &mut out)?;
    Ok(out)
}

/// The Jacobi sweep's working matrices, reused across [`eigh_into`]
/// calls so a warm decomposition allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct EigScratch {
    m: CMatrix,
    v: CMatrix,
    order: Vec<usize>,
}

/// [`eigh`] into caller-owned storage: `out` is overwritten with the
/// decomposition (bit-identical to [`eigh`]'s), and both `out` and
/// `scratch` keep their buffers for the next call.
///
/// # Errors
/// As [`eigh`]; `out` is unspecified after an error.
pub fn eigh_into(
    a: &CMatrix,
    scratch: &mut EigScratch,
    out: &mut HermitianEigen,
) -> Result<(), EigError> {
    if !a.is_square() {
        return Err(EigError::NotSquare);
    }
    let n = a.rows();
    let scale = a.frobenius_norm().max(1.0);
    if !a.is_hermitian(HERMITIAN_RTOL * scale) {
        return Err(EigError::NotHermitian);
    }
    let EigScratch { m, v, order } = scratch;
    if n == 0 {
        out.eigenvalues.clear();
        out.eigenvectors.set_zeros(0, 0);
        return Ok(());
    }

    // Work on a Hermitian-symmetrized copy so tiny asymmetries from the
    // caller's accumulation order cannot bias the sweeps.
    m.set_zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            m[(r, c)] = (a[(r, c)] + a[(c, r)].conj()).scale(0.5);
        }
    }
    v.set_zeros(n, n);
    for i in 0..n {
        v[(i, i)] = Complex64::ONE;
    }

    // Convergence threshold on off-diagonal mass, relative to input scale.
    let tol = (1e-14 * scale).powi(2) * (n * n) as f64;

    for _sweep in 0..MAX_SWEEPS {
        if m.off_diagonal_sqr() <= tol {
            collect(m, v, order, out);
            return Ok(());
        }
        for p in 0..n - 1 {
            for q in p + 1..n {
                rotate(m, v, p, q);
            }
        }
        if !m.trace().is_finite() {
            return Err(EigError::NoConvergence);
        }
    }
    if m.off_diagonal_sqr() <= tol * 1e4 {
        // Accept slightly looser convergence rather than fail: still far
        // below the noise floor of any measured correlation matrix.
        collect(m, v, order, out);
        return Ok(());
    }
    Err(EigError::NoConvergence)
}

/// Applies one complex Jacobi rotation zeroing `m[(p,q)]`, updating the
/// accumulated eigenvector matrix `v`.
fn rotate(m: &mut CMatrix, v: &mut CMatrix, p: usize, q: usize) {
    let apq = m[(p, q)];
    let r = apq.abs();
    if r == 0.0 {
        return;
    }
    let app = m[(p, p)].re;
    let aqq = m[(q, q)].re;

    // Real-Jacobi tangent via the numerically-stable Rutishauser formula.
    let theta = (aqq - app) / (2.0 * r);
    let t = if theta >= 0.0 {
        1.0 / (theta + (1.0 + theta * theta).sqrt())
    } else {
        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = t * c;
    // Unit phase of the annihilated element.
    let e = apq.scale(1.0 / r); // e^{jφ}

    let n = m.rows();
    // A ← Rᴴ A R. Diagonal and pivot entries first (closed forms), then the
    // remaining rows/columns.
    let new_pp = app - t * r;
    let new_qq = aqq + t * r;
    m[(p, p)] = Complex64::real(new_pp);
    m[(q, q)] = Complex64::real(new_qq);
    m[(p, q)] = Complex64::ZERO;
    m[(q, p)] = Complex64::ZERO;

    for k in 0..n {
        if k == p || k == q {
            continue;
        }
        // Column update for rows k: [A_kp, A_kq] ← [c·A_kp − s·ē·A_kq, s·e·A_kp + c·A_kq]
        let akp = m[(k, p)];
        let akq = m[(k, q)];
        let new_kp = akp.scale(c) - (e.conj() * akq).scale(s);
        let new_kq = (e * akp).scale(s) + akq.scale(c);
        m[(k, p)] = new_kp;
        m[(k, q)] = new_kq;
        m[(p, k)] = new_kp.conj();
        m[(q, k)] = new_kq.conj();
    }

    // V ← V R with the same column update.
    for k in 0..n {
        let vkp = v[(k, p)];
        let vkq = v[(k, q)];
        v[(k, p)] = vkp.scale(c) - (e.conj() * vkq).scale(s);
        v[(k, q)] = (e * vkp).scale(s) + vkq.scale(c);
    }
}

/// Extracts sorted (descending) eigenpairs from the converged diagonal
/// into `out`, with `order` as the sort's index buffer.
fn collect(m: &CMatrix, v: &CMatrix, order: &mut Vec<usize>, out: &mut HermitianEigen) {
    let n = m.rows();
    order.clear();
    order.extend(0..n);
    order.sort_by(|&a, &b| {
        m[(b, b)]
            .re
            .partial_cmp(&m[(a, a)].re)
            .expect("finite eigenvalues")
    });

    out.eigenvalues.clear();
    out.eigenvalues.extend(order.iter().map(|&i| m[(i, i)].re));
    out.eigenvectors.set_zeros(n, n);
    for r in 0..n {
        for (c, &k) in order.iter().enumerate() {
            out.eigenvectors[(r, c)] = v[(r, k)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn mat_close(a: &CMatrix, b: &CMatrix, tol: f64) -> bool {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| (*x - *y).abs() < tol)
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let d = CMatrix::from_fn(3, 3, |r, c| {
            if r == c {
                Complex64::real([3.0, -1.0, 2.0][r])
            } else {
                Complex64::ZERO
            }
        });
        let e = eigh(&d).unwrap();
        assert_eq!(e.eigenvalues, vec![3.0, 2.0, -1.0]);
    }

    #[test]
    fn real_symmetric_2x2_known_eigenvalues() {
        // [[2, 1], [1, 2]] → eigenvalues 3, 1.
        let a = CMatrix::from_rows(
            2,
            2,
            vec![c64(2.0, 0.0), c64(1.0, 0.0), c64(1.0, 0.0), c64(2.0, 0.0)],
        );
        let e = eigh(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn complex_hermitian_3x3_reconstructs() {
        let a = CMatrix::from_rows(
            3,
            3,
            vec![
                c64(2.0, 0.0),
                c64(1.0, 1.0),
                c64(0.0, -2.0),
                c64(1.0, -1.0),
                c64(3.0, 0.0),
                c64(0.5, 0.5),
                c64(0.0, 2.0),
                c64(0.5, -0.5),
                c64(-1.0, 0.0),
            ],
        );
        let e = eigh(&a).unwrap();
        assert!(mat_close(&e.reconstruct(), &a, 1e-10));
        // Trace is preserved.
        let sum: f64 = e.eigenvalues.iter().sum();
        assert!((sum - a.trace().re).abs() < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = CMatrix::from_rows(
            3,
            3,
            vec![
                c64(1.0, 0.0),
                c64(0.0, 1.0),
                c64(2.0, 0.0),
                c64(0.0, -1.0),
                c64(5.0, 0.0),
                c64(1.0, -1.0),
                c64(2.0, 0.0),
                c64(1.0, 1.0),
                c64(0.0, 0.0),
            ],
        );
        let e = eigh(&a).unwrap();
        let vhv = &e.eigenvectors.hermitian_transpose() * &e.eigenvectors;
        assert!(mat_close(&vhv, &CMatrix::identity(3), 1e-10));
    }

    #[test]
    fn rank_one_matrix_has_single_nonzero_eigenvalue() {
        // v·vᴴ has eigenvalue |v|² with eigenvector v/|v|, rest zero.
        let v = CVector::from(vec![c64(1.0, 1.0), c64(2.0, -1.0), c64(0.0, 3.0)]);
        let mut a = CMatrix::zeros(3, 3);
        a.add_outer_assign(&v, 1.0);
        let e = eigh(&a).unwrap();
        assert!((e.eigenvalues[0] - v.norm_sqr()).abs() < 1e-10);
        assert!(e.eigenvalues[1].abs() < 1e-10);
        assert!(e.eigenvalues[2].abs() < 1e-10);
        // Top eigenvector is parallel to v: |⟨v̂, ê⟩| = 1.
        let vhat = v.scale(1.0 / v.norm());
        let corr = vhat.dot(&e.eigenvector(0)).abs();
        assert!((corr - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigenvalue_equation_holds() {
        let a = CMatrix::from_rows(
            2,
            2,
            vec![c64(4.0, 0.0), c64(1.0, 2.0), c64(1.0, -2.0), c64(-3.0, 0.0)],
        );
        let e = eigh(&a).unwrap();
        for k in 0..2 {
            let v = e.eigenvector(k);
            let av = a.mul_vec(&v);
            let lv = v.scale(e.eigenvalues[k]);
            assert!((&av - &lv).norm() < 1e-10, "A·v ≠ λ·v for k={k}");
        }
    }

    #[test]
    fn regularized_inverse_inverts_well_conditioned_input() {
        let a = CMatrix::from_rows(
            2,
            2,
            vec![c64(3.0, 0.0), c64(1.0, 1.0), c64(1.0, -1.0), c64(4.0, 0.0)],
        );
        let e = eigh(&a).unwrap();
        let inv = e.inverse_regularized(1e-12);
        let prod = &a * &inv;
        let i = CMatrix::identity(2);
        for r in 0..2 {
            for c in 0..2 {
                assert!((prod[(r, c)] - i[(r, c)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn regularized_inverse_bounds_singular_input() {
        // Rank-one matrix: the floor keeps the inverse finite.
        let v = CVector::from(vec![c64(1.0, 0.0), c64(0.0, 1.0)]);
        let mut a = CMatrix::zeros(2, 2);
        a.add_outer_assign(&v, 1.0);
        let e = eigh(&a).unwrap();
        let inv = e.inverse_regularized(1e-3);
        assert!(inv.as_slice().iter().all(|z| z.is_finite()));
        // Largest inverse eigenvalue is 1/(1e-3·λmax) = 500.
        let ei = eigh(&inv).unwrap();
        assert!((ei.eigenvalues[0] - 500.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_non_square() {
        assert_eq!(eigh(&CMatrix::zeros(2, 3)), err_kind(EigError::NotSquare));
    }

    #[test]
    fn rejects_non_hermitian() {
        let a = CMatrix::from_rows(
            2,
            2,
            vec![c64(1.0, 0.0), c64(1.0, 0.0), c64(5.0, 0.0), c64(1.0, 0.0)],
        );
        assert_eq!(eigh(&a), err_kind(EigError::NotHermitian));
    }

    #[test]
    fn empty_matrix_is_fine() {
        let e = eigh(&CMatrix::zeros(0, 0)).unwrap();
        assert!(e.eigenvalues.is_empty());
    }

    #[test]
    fn identity_has_all_unit_eigenvalues() {
        let e = eigh(&CMatrix::identity(8)).unwrap();
        for l in e.eigenvalues {
            assert!((l - 1.0).abs() < 1e-12);
        }
    }

    fn err_kind(e: EigError) -> Result<HermitianEigen, EigError> {
        Err(e)
    }

    impl PartialEq for HermitianEigen {
        fn eq(&self, _: &Self) -> bool {
            false // only used so Result comparisons above compile
        }
    }
}
