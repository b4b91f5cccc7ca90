//! Dense complex vectors.

use crate::complex::Complex64;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, heap-allocated complex column vector.
///
/// Inner products follow the physics/DSP convention used throughout the
/// paper: [`CVector::dot`] conjugates the *left* operand, i.e. `⟨a,b⟩ = aᴴb`.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct CVector {
    data: Vec<Complex64>,
}

impl CVector {
    /// A vector of `n` zeros.
    #[cfg(test)]
    pub(crate) fn zeros(n: usize) -> Self {
        Self {
            data: vec![Complex64::ZERO; n],
        }
    }

    /// Builds a vector from any iterator of complex values.
    #[allow(clippy::should_implement_trait)] // inherent name kept for call-site brevity
    pub(crate) fn from_iter<I: IntoIterator<Item = Complex64>>(iter: I) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }

    /// Builds a vector by evaluating `f(i)` for `i in 0..n`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize) -> Complex64) -> Self {
        Self {
            data: (0..n).map(&mut f).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying storage.
    pub(crate) fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Hermitian inner product `selfᴴ · rhs` (left operand conjugated).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn dot(&self, rhs: &CVector) -> Complex64 {
        assert_eq!(self.len(), rhs.len(), "dot: length mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .fold(Complex64::ZERO, |acc, (a, b)| acc.mul_add(a.conj(), *b))
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Squared Euclidean norm `Σ|zᵢ|²`.
    pub(crate) fn norm_sqr(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Scales every element by a real factor.
    pub fn scale(&self, k: f64) -> CVector {
        CVector::from_iter(self.data.iter().map(|z| z.scale(k)))
    }

    /// Scales every element by a complex factor.
    pub(crate) fn scale_c(&self, k: Complex64) -> CVector {
        CVector::from_iter(self.data.iter().map(|z| *z * k))
    }

    /// Iterator over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, Complex64> {
        self.data.iter()
    }
}

impl From<Vec<Complex64>> for CVector {
    fn from(data: Vec<Complex64>) -> Self {
        Self { data }
    }
}

impl From<&[Complex64]> for CVector {
    fn from(data: &[Complex64]) -> Self {
        Self {
            data: data.to_vec(),
        }
    }
}

impl Index<usize> for CVector {
    type Output = Complex64;
    fn index(&self, i: usize) -> &Complex64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for CVector {
    fn index_mut(&mut self, i: usize) -> &mut Complex64 {
        &mut self.data[i]
    }
}

impl Add for &CVector {
    type Output = CVector;
    fn add(self, rhs: &CVector) -> CVector {
        assert_eq!(self.len(), rhs.len(), "add: length mismatch");
        CVector::from_iter(self.iter().zip(rhs.iter()).map(|(a, b)| *a + *b))
    }
}

impl Sub for &CVector {
    type Output = CVector;
    fn sub(self, rhs: &CVector) -> CVector {
        assert_eq!(self.len(), rhs.len(), "sub: length mismatch");
        CVector::from_iter(self.iter().zip(rhs.iter()).map(|(a, b)| *a - *b))
    }
}

impl Mul<Complex64> for &CVector {
    type Output = CVector;
    fn mul(self, k: Complex64) -> CVector {
        self.scale_c(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn zeros_and_len() {
        let v = CVector::zeros(5);
        assert_eq!(v.len(), 5);
        assert!(!v.is_empty());
        assert!(v.iter().all(|z| *z == Complex64::ZERO));
        assert!(CVector::zeros(0).is_empty());
    }

    #[test]
    fn dot_conjugates_left_side() {
        // ⟨j, 1⟩ = conj(j)·1 = -j
        let a = CVector::from(vec![c64(0.0, 1.0)]);
        let b = CVector::from(vec![Complex64::ONE]);
        assert_eq!(a.dot(&b), c64(0.0, -1.0));
    }

    #[test]
    fn dot_with_self_is_norm_sqr() {
        let v = CVector::from(vec![c64(1.0, 2.0), c64(-3.0, 0.5)]);
        let d = v.dot(&v);
        assert!((d.re - v.norm_sqr()).abs() < 1e-12);
        assert!(d.im.abs() < 1e-12);
    }

    #[test]
    fn arithmetic_ops() {
        let a = CVector::from(vec![c64(1.0, 0.0), c64(0.0, 1.0)]);
        let b = CVector::from(vec![c64(1.0, 1.0), c64(2.0, 0.0)]);
        assert_eq!((&a + &b)[0], c64(2.0, 1.0));
        assert_eq!((&a - &b)[1], c64(-2.0, 1.0));
        assert_eq!((&a * c64(0.0, 1.0))[0], c64(0.0, 1.0));
    }

    #[test]
    fn from_fn_builder() {
        let v = CVector::from_fn(4, |i| c64(i as f64, 0.0));
        assert_eq!(v[3], c64(3.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        CVector::zeros(2).dot(&CVector::zeros(3));
    }
}
