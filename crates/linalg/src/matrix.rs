//! Dense complex matrices (row-major) sized for array processing.
//!
//! ArrayTrack's hot-path matrices are tiny (4×4 … 16×16 correlation
//! matrices), so the implementation favours clarity and numerical
//! transparency over cache blocking.

use crate::complex::Complex64;
use crate::vector::CVector;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major complex matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// An `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_rows: shape mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[cfg(test)]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// True for square matrices.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Row-major storage view.
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Returns column `c` as a vector.
    pub(crate) fn col(&self, c: usize) -> CVector {
        assert!(c < self.cols);
        CVector::from_fn(self.rows, |r| self[(r, c)])
    }

    /// Conjugate (Hermitian) transpose `Aᴴ`.
    pub fn hermitian_transpose(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Scales all entries by a real factor.
    pub fn scale(&self, k: f64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.scale(k)).collect(),
        }
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &CVector) -> CVector {
        assert_eq!(x.len(), self.cols, "mul_vec: dimension mismatch");
        CVector::from_fn(self.rows, |r| {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            row.iter()
                .zip(x.iter())
                .fold(Complex64::ZERO, |acc, (a, b)| acc.mul_add(*a, *b))
        })
    }

    /// Rank-one update `self += k · v vᴴ`; the building block of sample
    /// correlation matrices (paper eq. 4).
    pub fn add_outer_assign(&mut self, v: &CVector, k: f64) {
        assert!(self.is_square() && self.rows == v.len());
        for r in 0..self.rows {
            for c in 0..self.cols {
                let delta = (v[r] * v[c].conj()).scale(k);
                self[(r, c)] += delta;
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Sum of off-diagonal squared magnitudes; the Jacobi sweep's
    /// convergence measure.
    pub(crate) fn off_diagonal_sqr(&self) -> f64 {
        let mut s = 0.0;
        for r in 0..self.rows {
            for c in 0..self.cols {
                if r != c {
                    s += self[(r, c)].norm_sqr();
                }
            }
        }
        s
    }

    /// Trace (sum of diagonal entries).
    pub fn trace(&self) -> Complex64 {
        (0..self.rows.min(self.cols)).map(|i| self[(i, i)]).sum()
    }

    /// True if `‖A − Aᴴ‖∞ ≤ tol` element-wise.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for r in 0..self.rows {
            if self[(r, r)].im.abs() > tol {
                return false;
            }
            for c in (r + 1)..self.cols {
                if (self[(r, c)] - self[(c, r)].conj()).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Extracts the contiguous square submatrix with corner `(r0, c0)` and
    /// size `n` — used by spatial smoothing's subarray averaging.
    pub fn submatrix(&self, r0: usize, c0: usize, n: usize) -> CMatrix {
        assert!(
            r0 + n <= self.rows && c0 + n <= self.cols,
            "submatrix out of range"
        );
        CMatrix::from_fn(n, n, |r, c| self[(r0 + r, c0 + c)])
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add: shape mismatch"
        );
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub: shape mismatch"
        );
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "mul: inner dimension mismatch");
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == Complex64::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    let delta = a * rhs[(k, c)];
                    out[(r, c)] += delta;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn approx(a: &CMatrix, b: &CMatrix, tol: f64) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (*x - *y).abs() < tol)
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = CMatrix::from_fn(3, 3, |r, c| c64(r as f64, c as f64));
        let i = CMatrix::identity(3);
        assert!(approx(&(&a * &i), &a, 1e-15));
        assert!(approx(&(&i * &a), &a, 1e-15));
    }

    #[test]
    fn matmul_known_result() {
        // [[1, j], [0, 2]] * [[1, 0], [j, 1]] = [[1 + j·j, j], [2j, 2]]
        let a = CMatrix::from_rows(
            2,
            2,
            vec![
                Complex64::ONE,
                c64(0.0, 1.0),
                Complex64::ZERO,
                c64(2.0, 0.0),
            ],
        );
        let b = CMatrix::from_rows(
            2,
            2,
            vec![
                Complex64::ONE,
                Complex64::ZERO,
                c64(0.0, 1.0),
                Complex64::ONE,
            ],
        );
        let p = &a * &b;
        assert_eq!(p[(0, 0)], c64(0.0, 0.0));
        assert_eq!(p[(0, 1)], c64(0.0, 1.0));
        assert_eq!(p[(1, 0)], c64(0.0, 2.0));
        assert_eq!(p[(1, 1)], c64(2.0, 0.0));
    }

    #[test]
    fn hermitian_transpose_involution() {
        let a = CMatrix::from_fn(2, 3, |r, c| c64(r as f64 + 1.0, c as f64 - 1.0));
        let ah = a.hermitian_transpose();
        assert_eq!(ah.rows(), 3);
        assert_eq!(ah.cols(), 2);
        assert!(approx(&ah.hermitian_transpose(), &a, 1e-15));
    }

    #[test]
    fn outer_product_accumulation_is_hermitian() {
        let v = CVector::from(vec![c64(1.0, 2.0), c64(-0.5, 1.0), c64(0.0, -1.0)]);
        let mut m = CMatrix::zeros(3, 3);
        m.add_outer_assign(&v, 0.5);
        assert!(m.is_hermitian(1e-14));
        // Diagonal entries are 0.5·|v_i|².
        assert!((m[(0, 0)].re - 0.5 * v[0].norm_sqr()).abs() < 1e-14);
    }

    #[test]
    fn mul_vec_matches_matmul() {
        let a = CMatrix::from_fn(3, 3, |r, c| c64((r * 3 + c) as f64, 1.0));
        let x = CVector::from(vec![c64(1.0, 0.0), c64(0.0, 1.0), c64(-1.0, 0.0)]);
        let y = a.mul_vec(&x);
        for r in 0..3 {
            let expect: Complex64 = (0..3).map(|c| a[(r, c)] * x[c]).sum();
            assert!((y[r] - expect).abs() < 1e-13);
        }
    }

    #[test]
    fn hermitian_detection() {
        let h = CMatrix::from_rows(
            2,
            2,
            vec![c64(1.0, 0.0), c64(0.0, 1.0), c64(0.0, -1.0), c64(2.0, 0.0)],
        );
        assert!(h.is_hermitian(1e-15));
        let nh = CMatrix::from_rows(
            2,
            2,
            vec![c64(1.0, 0.0), c64(0.0, 1.0), c64(0.0, 1.0), c64(2.0, 0.0)],
        );
        assert!(!nh.is_hermitian(1e-15));
        assert!(!CMatrix::zeros(2, 3).is_hermitian(1e-15));
    }

    #[test]
    fn submatrix_extraction() {
        let a = CMatrix::from_fn(4, 4, |r, c| c64((r * 4 + c) as f64, 0.0));
        let s = a.submatrix(1, 1, 2);
        assert_eq!(s[(0, 0)], c64(5.0, 0.0));
        assert_eq!(s[(1, 1)], c64(10.0, 0.0));
    }

    #[test]
    fn trace_and_norms() {
        let a = CMatrix::from_rows(
            2,
            2,
            vec![c64(1.0, 0.0), c64(3.0, 4.0), Complex64::ZERO, c64(0.0, 2.0)],
        );
        assert_eq!(a.trace(), c64(1.0, 2.0));
        assert!((a.frobenius_norm() - (1.0f64 + 25.0 + 4.0).sqrt()).abs() < 1e-12);
        assert!((a.off_diagonal_sqr() - 25.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let _ = &CMatrix::zeros(2, 3) * &CMatrix::zeros(2, 3);
    }
}
