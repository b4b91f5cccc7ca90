//! AP–client height-difference error analysis (paper Appendix A).
//!
//! A linear array measures bearing from phase differences that are
//! proportional to the *path-length difference* between adjacent antennas.
//! When the client sits `h` meters below the AP, every path stretches by
//! `1/cos φ` with `cos φ = d / √(d² + h²)`, inflating the measured
//! difference by the same factor. The paper bounds the resulting relative
//! error at 1–4 % for `h = 1.5 m`, `d ∈ [5, 10] m`.

/// Relative error in the antenna path-length difference caused by a height
/// offset `h` at horizontal distance `d` (Appendix A: `(cos φ)⁻¹ − 1`).
pub fn bearing_error_fraction(h: f64, d: f64) -> f64 {
    assert!(d > 0.0, "distance must be positive");
    let slant = (d * d + h * h).sqrt();
    slant / d - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_appendix_numbers() {
        // "For h = 1.5 m and d = 5 m, this is 4% error; for h = 1.5 m and
        // d = 10 m, this is 1% error."
        let e5 = bearing_error_fraction(1.5, 5.0) * 100.0;
        let e10 = bearing_error_fraction(1.5, 10.0) * 100.0;
        assert!((e5 - 4.0).abs() < 0.6, "5 m error {e5}%");
        assert!((e10 - 1.0).abs() < 0.2, "10 m error {e10}%");
    }

    #[test]
    fn zero_height_offset_is_exact() {
        assert_eq!(bearing_error_fraction(0.0, 7.0), 0.0);
    }

    #[test]
    fn error_decreases_with_distance() {
        let mut prev = f64::INFINITY;
        for d in [2.0, 4.0, 8.0, 16.0, 32.0] {
            let e = bearing_error_fraction(1.5, d);
            assert!(e < prev);
            prev = e;
        }
    }

    #[test]
    fn error_increases_with_height() {
        assert!(bearing_error_fraction(3.0, 5.0) > bearing_error_fraction(1.5, 5.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_distance_panics() {
        bearing_error_fraction(1.5, 0.0);
    }
}
