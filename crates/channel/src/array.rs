//! Antenna-array geometry.
//!
//! The prototype AP (paper §3, Fig. 11) places up to 16 omnidirectional
//! antennas in a row at half-wavelength spacing (6.13 cm at 2.4 GHz), plus —
//! for array-symmetry removal (§2.3.4) — a "ninth antenna not in the same
//! row as the other eight". This module positions elements in world
//! coordinates; `at-core` builds steering vectors from the same geometry.

use crate::geometry::Point;

/// Speed of light in m/s.
pub(crate) const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// 2.4 GHz ISM-band carrier used by the testbed's 802.11g clients.
pub(crate) const CARRIER_HZ: f64 = 2.44e9;

/// Carrier wavelength λ = c / f ≈ 12.29 cm.
pub fn wavelength() -> f64 {
    SPEED_OF_LIGHT / CARRIER_HZ
}

/// Half-wavelength element spacing — "maximum AoA spectrum resolution"
/// and the arrangement preferred in commodity APs (paper §3).
pub fn half_wavelength() -> f64 {
    wavelength() / 2.0
}

/// Perpendicular offset of the off-row disambiguation antenna (§2.3.4).
///
/// λ/4 rather than λ/2: the mirror-bearing phase difference it observes is
/// `2π·(offset/λ)·2·sinθ`, which for a λ/2 offset wraps to zero exactly at
/// broadside (θ = 90°) — a blind spot. λ/4 yields `π·sinθ`, unambiguous
/// everywhere except the array axis (where the ULA has no resolution
/// anyway and the geometry weighting de-weights the spectrum).
pub fn offrow_offset() -> f64 {
    wavelength() / 4.0
}

/// Element arrangement of an [`AntennaArray`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrayLayout {
    /// Uniform linear array along the axis (the paper's arrangement).
    Linear,
    /// Uniform circular array: elements evenly spaced on a circle whose
    /// chord between neighbors is the configured spacing. The paper's §6
    /// discussion weighs this trade-off: a circular array resolves the
    /// full 360° with no mirror ambiguity, at the cost of a smaller
    /// effective aperture per antenna.
    Circular,
    /// Vertical uniform linear array: elements stacked in height at the
    /// configured spacing, all at the same plan-view position. The
    /// paper's §4.3.1 future work: "extend the ArrayTrack system to three
    /// dimensions by using a vertically-oriented antenna array ... to
    /// estimate elevation directly".
    Vertical,
}

/// A physical antenna array at an AP: a uniform linear array (ULA) along an
/// axis, with an optional extra off-row element for symmetry removal.
#[derive(Clone, Debug)]
pub struct AntennaArray {
    /// Array centroid position in the floorplan, meters.
    pub center: Point,
    /// Orientation of the array axis, radians from +x.
    pub axis_angle: f64,
    /// Number of in-row elements `M`.
    pub elements: usize,
    /// Element spacing in meters (default λ/2).
    pub spacing: f64,
    /// Whether the off-row disambiguation element is present (§2.3.4).
    pub has_offrow_element: bool,
    /// Height of the antennas above the floor, meters.
    pub height: f64,
    /// Seed for static per-element gain/phase imperfections (mutual
    /// coupling, element pattern and placement errors — the residual error
    /// sources §4.2.1 lists, which cable calibration cannot see because the
    /// CW tone is injected at the radio port, bypassing the antennas).
    /// `None` = ideal elements (the default, for algorithm tests).
    pub imperfection_seed: Option<u64>,
    /// Element arrangement (default linear).
    pub layout: ArrayLayout,
    /// Indices of dead elements (failed feed, broken solder joint, blown
    /// LNA): a dead element couples no signal into its port — the receive
    /// chain sees only its own noise. Empty = all elements alive.
    pub dead_elements: Vec<usize>,
}

/// Per-element gain imperfection bound: ±0.4 dB.
const ELEMENT_GAIN_SPREAD_DB: f64 = 0.4;

/// Per-element phase imperfection bound: ±4°.
const ELEMENT_PHASE_SPREAD_RAD: f64 = 4.0 * std::f64::consts::PI / 180.0;

impl AntennaArray {
    /// A ULA of `elements` antennas at λ/2 spacing, centered at `center`
    /// with the given axis orientation, at the paper's cart height (1.5 m).
    pub fn ula(center: Point, axis_angle: f64, elements: usize) -> Self {
        assert!(elements >= 2, "an array needs at least two elements");
        Self {
            center,
            axis_angle,
            elements,
            spacing: half_wavelength(),
            has_offrow_element: false,
            height: 1.5,
            imperfection_seed: None,
            layout: ArrayLayout::Linear,
            dead_elements: Vec::new(),
        }
    }

    /// A uniform circular array of `elements` antennas whose neighbor
    /// chord is λ/2 (matching the ULA's element spacing), centered at
    /// `center`; `axis_angle` orients element 0's radial direction.
    pub fn uca(center: Point, axis_angle: f64, elements: usize) -> Self {
        assert!(
            elements >= 3,
            "a circular array needs at least three elements"
        );
        let mut a = Self::ula(center, axis_angle, elements);
        a.layout = ArrayLayout::Circular;
        a
    }

    /// A vertical ULA of `elements` antennas at λ/2 spacing, centered at
    /// `height` above the floor, at plan-view position `center`.
    pub fn vertical(center: Point, elements: usize) -> Self {
        let mut a = Self::ula(center, 0.0, elements);
        a.layout = ArrayLayout::Vertical;
        a
    }

    /// Radius of the circular layout: chord `spacing` between neighbors
    /// ⇒ `r = spacing / (2·sin(π/M))`.
    pub(crate) fn circle_radius(&self) -> f64 {
        self.spacing / (2.0 * (std::f64::consts::PI / self.elements as f64).sin())
    }

    /// Enables the off-row "ninth antenna" used for symmetry removal
    /// (linear layout only — a circular array has no mirror ambiguity).
    pub fn with_offrow_element(mut self) -> Self {
        assert_eq!(
            self.layout,
            ArrayLayout::Linear,
            "the off-row element only applies to linear arrays"
        );
        self.has_offrow_element = true;
        self
    }

    /// Enables static per-element imperfections drawn from `seed`.
    pub fn with_imperfections(mut self, seed: u64) -> Self {
        self.imperfection_seed = Some(seed);
        self
    }

    /// Marks the listed elements as dead (fault injection): their complex
    /// gain becomes exactly zero, so the channel couples no signal into
    /// those ports and the receiver sees only its own noise there.
    pub fn with_dead_elements(mut self, dead: &[usize]) -> Self {
        for &m in dead {
            assert!(
                m < self.total_elements(),
                "dead element index {m} out of range"
            );
        }
        self.dead_elements = dead.to_vec();
        self
    }

    /// Whether element `m` is marked dead.
    pub(crate) fn is_dead(&self, m: usize) -> bool {
        self.dead_elements.contains(&m)
    }

    /// Number of live (not dead) in-row elements.
    pub fn live_inrow_elements(&self) -> usize {
        (0..self.elements).filter(|&m| !self.is_dead(m)).count()
    }

    /// The static complex gain error of element `m` (1 + 0j when ideal,
    /// exactly zero when the element is dead).
    pub(crate) fn element_error(&self, m: usize) -> at_linalg::Complex64 {
        if self.is_dead(m) {
            return at_linalg::Complex64::ZERO;
        }
        let Some(seed) = self.imperfection_seed else {
            return at_linalg::Complex64::ONE;
        };
        // splitmix64-style mix of (seed, m).
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(m as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let u1 = (z >> 32) as f64 / u32::MAX as f64;
        let u2 = (z & 0xffff_ffff) as f64 / u32::MAX as f64;
        let gain_db = (u1 - 0.5) * 2.0 * ELEMENT_GAIN_SPREAD_DB;
        let phase = (u2 - 0.5) * 2.0 * ELEMENT_PHASE_SPREAD_RAD;
        at_linalg::Complex64::from_polar(10f64.powf(gain_db / 20.0), phase)
    }

    /// Overrides the antenna height above floor.
    pub fn with_height(mut self, height: f64) -> Self {
        self.height = height;
        self
    }

    /// Unit vector along the array axis.
    pub(crate) fn axis(&self) -> Point {
        Point::unit(self.axis_angle)
    }

    /// Total number of antenna ports, including the off-row element.
    pub fn total_elements(&self) -> usize {
        self.elements + usize::from(self.has_offrow_element)
    }

    /// World position of element `m`.
    ///
    /// Elements `0..elements` lie on the axis, centered on `center`, in
    /// axis order; element index `elements` (if enabled) is the off-row
    /// antenna, displaced λ/2 perpendicular to the axis from element 0.
    pub(crate) fn element_position(&self, m: usize) -> Point {
        let axis = self.axis();
        match self.layout {
            ArrayLayout::Linear => {
                if m < self.elements {
                    let offset = (m as f64 - (self.elements as f64 - 1.0) / 2.0) * self.spacing;
                    self.center.add(axis.scale(offset))
                } else if m == self.elements && self.has_offrow_element {
                    let first = self.element_position(0);
                    first.add(axis.perp().scale(offrow_offset()))
                } else {
                    panic!("element index {m} out of range");
                }
            }
            ArrayLayout::Circular => {
                assert!(m < self.elements, "element index {m} out of range");
                let ang = self.axis_angle + m as f64 * std::f64::consts::TAU / self.elements as f64;
                self.center
                    .add(Point::unit(ang).scale(self.circle_radius()))
            }
            ArrayLayout::Vertical => {
                assert!(m < self.elements, "element index {m} out of range");
                self.center
            }
        }
    }

    /// Height of element `m` above the floor: constant for planar layouts,
    /// stacked around [`Self::height`] for the vertical layout.
    pub(crate) fn element_height(&self, m: usize) -> f64 {
        match self.layout {
            ArrayLayout::Vertical => {
                assert!(m < self.elements, "element index {m} out of range");
                self.height + (m as f64 - (self.elements as f64 - 1.0) / 2.0) * self.spacing
            }
            _ => self.height,
        }
    }

    /// Positions of all elements (in-row then off-row).
    pub fn element_positions(&self) -> Vec<Point> {
        (0..self.total_elements())
            .map(|m| self.element_position(m))
            .collect()
    }

    /// Ground-truth bearing of a source at `p`, measured from the array
    /// axis in radians `[0, 2π)` — the θ that appears in steering vectors.
    pub fn bearing_to(&self, p: Point) -> f64 {
        crate::geometry::wrap_angle(p.sub(self.center).angle() - self.axis_angle)
    }

    /// Inverse of [`Self::bearing_to`]: a point at distance `d` and array
    /// bearing `theta`.
    pub fn point_at(&self, theta: f64, d: f64) -> Point {
        self.center
            .add(Point::unit(self.axis_angle + theta).scale(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::pt;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn wavelength_matches_paper_spacing() {
        // Paper: "Antennas are spaced at a half wavelength distance (6.13 cm)".
        assert!(
            (half_wavelength() - 0.0613).abs() < 0.001,
            "{}",
            half_wavelength()
        );
    }

    #[test]
    fn elements_are_centered_and_spaced() {
        let a = AntennaArray::ula(pt(10.0, 5.0), 0.0, 8);
        let ps = a.element_positions();
        assert_eq!(ps.len(), 8);
        // Centroid equals center.
        let cx: f64 = ps.iter().map(|p| p.x).sum::<f64>() / 8.0;
        assert!((cx - 10.0).abs() < 1e-12);
        // Neighbor spacing is λ/2.
        for w in ps.windows(2) {
            assert!((w[0].distance(w[1]) - half_wavelength()).abs() < 1e-12);
        }
    }

    #[test]
    fn rotation_moves_elements_off_x_axis() {
        let a = AntennaArray::ula(pt(0.0, 0.0), FRAC_PI_2, 4);
        for p in a.element_positions() {
            assert!(p.x.abs() < 1e-12, "rotated array should lie on y axis");
        }
    }

    #[test]
    fn offrow_element_is_perpendicular() {
        let a = AntennaArray::ula(pt(0.0, 0.0), 0.0, 8).with_offrow_element();
        assert_eq!(a.total_elements(), 9);
        let first = a.element_position(0);
        let ninth = a.element_position(8);
        let d = ninth.sub(first);
        assert!(
            (d.x).abs() < 1e-12,
            "off-row displacement must be perpendicular"
        );
        assert!((d.y - offrow_offset()).abs() < 1e-12);
    }

    #[test]
    fn bearing_measured_from_axis() {
        let a = AntennaArray::ula(pt(0.0, 0.0), 0.0, 8);
        assert!((a.bearing_to(pt(5.0, 0.0)) - 0.0).abs() < 1e-12);
        assert!((a.bearing_to(pt(0.0, 5.0)) - FRAC_PI_2).abs() < 1e-12);
        assert!((a.bearing_to(pt(-5.0, 0.0)) - PI).abs() < 1e-12);
        // Rotated array: bearing is relative to the axis, not world x.
        let b = AntennaArray::ula(pt(0.0, 0.0), FRAC_PI_2, 8);
        assert!((b.bearing_to(pt(0.0, 5.0)) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn point_at_round_trips_bearing() {
        let a = AntennaArray::ula(pt(3.0, -2.0), 0.7, 8);
        for theta in [0.3, 1.2, 2.8, 4.0, 5.9] {
            let p = a.point_at(theta, 7.5);
            assert!((a.bearing_to(p) - theta).abs() < 1e-9);
            assert!((p.distance(a.center) - 7.5).abs() < 1e-9);
        }
    }

    #[test]
    fn circular_array_geometry() {
        let a = AntennaArray::uca(pt(2.0, 3.0), 0.3, 8);
        let ps = a.element_positions();
        assert_eq!(ps.len(), 8);
        // All elements on the circle.
        for p in &ps {
            assert!((p.distance(pt(2.0, 3.0)) - a.circle_radius()).abs() < 1e-12);
        }
        // Neighbor chords equal λ/2 (matching the linear spacing).
        for i in 0..8 {
            let d = ps[i].distance(ps[(i + 1) % 8]);
            assert!((d - half_wavelength()).abs() < 1e-12, "chord {i}: {d}");
        }
    }

    #[test]
    #[should_panic(expected = "only applies to linear")]
    fn circular_rejects_offrow() {
        let _ = AntennaArray::uca(pt(0.0, 0.0), 0.0, 8).with_offrow_element();
    }

    #[test]
    #[should_panic(expected = "at least three")]
    fn tiny_circle_rejected() {
        AntennaArray::uca(pt(0.0, 0.0), 0.0, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_element_panics() {
        AntennaArray::ula(pt(0.0, 0.0), 0.0, 4).element_position(4);
    }

    #[test]
    fn dead_elements_have_zero_gain() {
        let a = AntennaArray::ula(pt(0.0, 0.0), 0.0, 8)
            .with_imperfections(7)
            .with_dead_elements(&[1, 5]);
        assert!(a.is_dead(1) && a.is_dead(5) && !a.is_dead(0));
        assert_eq!(a.element_error(1), at_linalg::Complex64::ZERO);
        assert_eq!(a.element_error(5), at_linalg::Complex64::ZERO);
        // Live elements keep their (imperfect but nonzero) gains.
        assert!(a.element_error(0).abs() > 0.5);
        assert_eq!(a.live_inrow_elements(), 6);
    }

    #[test]
    fn dead_offrow_element_is_addressable() {
        let a = AntennaArray::ula(pt(0.0, 0.0), 0.0, 8)
            .with_offrow_element()
            .with_dead_elements(&[8]);
        assert!(a.is_dead(8));
        assert_eq!(a.live_inrow_elements(), 8);
    }

    #[test]
    #[should_panic(expected = "dead element index")]
    fn dead_element_out_of_range_rejected() {
        let _ = AntennaArray::ula(pt(0.0, 0.0), 0.0, 4).with_dead_elements(&[4]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_element_array_rejected() {
        AntennaArray::ula(pt(0.0, 0.0), 0.0, 1);
    }
}
