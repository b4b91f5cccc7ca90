//! A from-scratch double-precision complex number.
//!
//! The offline crate set for this reproduction contains no complex-number or
//! linear-algebra crates, so `at-linalg` provides its own. The type is a
//! `#[repr(C)]` pair of `f64`s with the full arithmetic surface the DSP and
//! MUSIC code needs: field operations, conjugation, polar forms, `exp`,
//! square root, and scalar mixing with `f64`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// ```
/// use at_linalg::Complex64;
/// let a = Complex64::new(1.0, 2.0);
/// let b = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
/// assert!((b.re).abs() < 1e-12 && (b.im - 2.0).abs() < 1e-12);
/// assert_eq!(a + a, a * 2.0);
/// ```
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real (in-phase, "I") component.
    pub re: f64,
    /// Imaginary (quadrature, "Q") component.
    pub im: f64,
}

/// Shorthand constructor: `c64(re, im)`.
#[inline]
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64 { re, im }
}

impl Complex64 {
    /// Additive identity.
    pub const ZERO: Complex64 = c64(0.0, 0.0);
    /// Multiplicative identity.
    pub const ONE: Complex64 = c64(1.0, 0.0);

    /// Creates a complex number from rectangular parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        c64(re, im)
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        c64(re, 0.0)
    }

    /// Creates a complex number from polar form `r·e^{jθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        c64(r * theta.cos(), r * theta.sin())
    }

    /// Unit phasor `e^{jθ}`; the workhorse for steering vectors and carriers.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        c64(self.re, -self.im)
    }

    /// Squared magnitude `|z|²` (avoids the square root of [`Self::abs`]).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Returns `(r, θ)` such that `self == r·e^{jθ}`.
    #[inline]
    pub fn to_polar(self) -> (f64, f64) {
        (self.abs(), self.arg())
    }

    /// Multiplicative inverse. Infinite components for zero input.
    #[inline]
    pub(crate) fn inv(self) -> Self {
        let n = self.norm_sqr();
        c64(self.re / n, -self.im / n)
    }

    /// Scales the number by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        c64(self.re * k, self.im * k)
    }

    /// True if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Fused multiply-accumulate: `self + a*b`, used in hot inner products.
    #[inline]
    pub fn mul_add(self, a: Complex64, b: Complex64) -> Self {
        c64(
            self.re + a.re * b.re - a.im * b.im,
            self.im + a.re * b.im + a.im * b.re,
        )
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}{:+?}j", self.re, self.im)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = f.precision() {
            write!(f, "{:.*}{:+.*}j", p, self.re, p, self.im)
        } else {
            write!(f, "{}{:+}j", self.re, self.im)
        }
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        c64(re, 0.0)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        c64(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        c64(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        c64(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z / w ≡ z · w⁻¹
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        c64(-self.re, -self.im)
    }
}

impl Add<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: f64) -> Self {
        c64(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: f64) -> Self {
        c64(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        self.scale(1.0 / rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl MulAssign<f64> for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = self.scale(rhs);
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(Complex64::new(3.0, -4.0), c64(3.0, -4.0));
        assert_eq!(Complex64::real(5.0), c64(5.0, 0.0));
        assert_eq!(Complex64::from(2.5), c64(2.5, 0.0));
    }

    #[test]
    fn polar_round_trip() {
        let z = c64(3.0, -4.0);
        let (r, th) = z.to_polar();
        assert!((r - 5.0).abs() < 1e-12);
        assert!(close(Complex64::from_polar(r, th), z));
    }

    #[test]
    fn cis_is_unit_phasor() {
        for k in 0..16 {
            let th = k as f64 * PI / 8.0;
            let z = Complex64::cis(th);
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn field_axioms_spot_checks() {
        let a = c64(1.5, -2.0);
        let b = c64(-0.25, 3.0);
        assert!(close(a + b, b + a));
        assert!(close(a * b, b * a));
        assert!(close(a * (b + Complex64::ONE), a * b + a));
        assert!(close(a * a.inv(), Complex64::ONE));
        assert!(close(a / b * b, a));
    }

    #[test]
    fn conjugation_properties() {
        let a = c64(1.0, 2.0);
        let b = c64(-3.0, 0.5);
        assert!(close((a * b).conj(), a.conj() * b.conj()));
        assert!(((a * a.conj()).re - a.norm_sqr()).abs() < 1e-12);
        assert!((a * a.conj()).im.abs() < 1e-15);
    }

    #[test]
    fn mul_add_matches_expanded() {
        let acc = c64(0.5, 0.5);
        let a = c64(2.0, -1.0);
        let b = c64(-3.0, 4.0);
        assert!(close(acc.mul_add(a, b), acc + a * b));
    }

    #[test]
    fn sum_over_iterator() {
        let xs = [c64(1.0, 1.0), c64(2.0, -3.0), c64(-0.5, 0.25)];
        let s: Complex64 = xs.iter().sum();
        assert!(close(s, c64(2.5, -1.75)));
    }

    #[test]
    fn display_formats_with_precision() {
        let z = c64(1.23456, -7.0);
        assert_eq!(format!("{z:.2}"), "1.23-7.00j");
    }

    #[test]
    fn scalar_mixing() {
        let z = c64(1.0, -2.0);
        assert!(close(z * 2.0, c64(2.0, -4.0)));
        assert!(close(2.0 * z, z * 2.0));
        assert!(close(z / 2.0, c64(0.5, -1.0)));
        assert!(close(z + 1.0, c64(2.0, -2.0)));
        assert!(close(z - 1.0, c64(0.0, -2.0)));
    }

    #[test]
    fn finite_checks() {
        assert!(c64(1.0, 2.0).is_finite());
        assert!(!c64(f64::INFINITY, 0.0).is_finite());
    }
}
