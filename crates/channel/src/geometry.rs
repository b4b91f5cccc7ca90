//! 2D geometry primitives for the image-method ray tracer.
//!
//! The floorplan is modeled in plan view (walls are vertical planes, so
//! specular reflection geometry is two-dimensional); the AP–client height
//! difference is layered on top as a third coordinate when computing path
//! lengths (Appendix A).

/// A point (or free vector) in the floorplan, in meters.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Point {
    /// East–west coordinate in meters.
    pub x: f64,
    /// North–south coordinate in meters.
    pub y: f64,
}

/// Shorthand constructor.
#[inline]
pub const fn pt(x: f64, y: f64) -> Point {
    Point { x, y }
}

impl Point {
    /// Vector difference `self − other`.
    #[inline]
    #[allow(clippy::should_implement_trait)] // inherent name predates ops impls
    pub fn sub(self, other: Point) -> Point {
        pt(self.x - other.x, self.y - other.y)
    }

    /// Vector sum.
    #[inline]
    #[allow(clippy::should_implement_trait)] // inherent name predates ops impls
    pub fn add(self, other: Point) -> Point {
        pt(self.x + other.x, self.y + other.y)
    }

    /// Scales the vector.
    #[inline]
    pub fn scale(self, k: f64) -> Point {
        pt(self.x * k, self.y * k)
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2D cross product (z-component).
    #[inline]
    pub(crate) fn cross(self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Point) -> f64 {
        self.sub(other).norm()
    }

    /// Unit vector in this direction (zero vector returned unchanged).
    pub(crate) fn normalized(self) -> Point {
        let n = self.norm();
        if n == 0.0 {
            self
        } else {
            self.scale(1.0 / n)
        }
    }

    /// Angle of this vector from the +x axis, in radians `(-π, π]`.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Unit vector at angle `theta` from the +x axis.
    #[inline]
    pub fn unit(theta: f64) -> Point {
        pt(theta.cos(), theta.sin())
    }

    /// Perpendicular vector (rotated +90°).
    #[inline]
    pub(crate) fn perp(self) -> Point {
        pt(-self.y, self.x)
    }
}

/// A line segment between two points.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// First endpoint.
    pub a: Point,
    /// Second endpoint.
    pub b: Point,
}

/// Shorthand constructor.
#[inline]
pub const fn seg(a: Point, b: Point) -> Segment {
    Segment { a, b }
}

/// Tolerance for geometric predicates, in meters. Floorplan coordinates are
/// O(10 m); 1 µm is far below any physically meaningful scale here.
const EPS: f64 = 1e-6;

impl Segment {
    /// Direction unit vector from `a` to `b`.
    pub(crate) fn direction(&self) -> Point {
        self.b.sub(self.a).normalized()
    }

    /// Proper intersection of two segments.
    ///
    /// Returns the intersection point if the segments cross (including at
    /// endpoints within tolerance); `None` for parallel/disjoint segments.
    pub(crate) fn intersect(&self, other: &Segment) -> Option<Point> {
        let r = self.b.sub(self.a);
        let s = other.b.sub(other.a);
        let denom = r.cross(s);
        if denom.abs() < EPS * EPS {
            return None; // parallel (collinear overlap treated as no proper crossing)
        }
        let qp = other.a.sub(self.a);
        let t = qp.cross(s) / denom;
        let u = qp.cross(r) / denom;
        let tol = EPS / r.norm().max(EPS);
        let tol_u = EPS / s.norm().max(EPS);
        if t >= -tol && t <= 1.0 + tol && u >= -tol_u && u <= 1.0 + tol_u {
            Some(self.a.add(r.scale(t)))
        } else {
            None
        }
    }

    /// Like [`Segment::intersect`] but excludes crossings within `margin`
    /// meters of either endpoint of `self` — used to ignore a ray's own
    /// launch/landing points when counting obstructions.
    pub(crate) fn intersect_interior(&self, other: &Segment, margin: f64) -> Option<Point> {
        let p = self.intersect(other)?;
        if p.distance(self.a) < margin || p.distance(self.b) < margin {
            None
        } else {
            Some(p)
        }
    }

    /// Mirrors a point across the infinite line through this segment
    /// (the "image source" construction).
    pub fn mirror(&self, p: Point) -> Point {
        let d = self.direction();
        let ap = p.sub(self.a);
        // Component along the wall stays, perpendicular component flips.
        let along = d.scale(ap.dot(d));
        let perp = ap.sub(along);
        self.a.add(along).sub(perp)
    }

    /// Distance from a point to the segment (not the infinite line).
    pub(crate) fn distance_to(&self, p: Point) -> f64 {
        let d = self.b.sub(self.a);
        let len2 = d.dot(d);
        if len2 == 0.0 {
            return p.distance(self.a);
        }
        let t = (p.sub(self.a).dot(d) / len2).clamp(0.0, 1.0);
        p.distance(self.a.add(d.scale(t)))
    }
}

/// A circular obstruction (the office's concrete pillars, §4 and Fig. 17).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Circle {
    /// Center of the circle.
    pub center: Point,
    /// Radius in meters.
    pub radius: f64,
}

impl Circle {
    /// Whether a segment passes through the circle's interior.
    pub(crate) fn intersects_segment(&self, s: &Segment) -> bool {
        s.distance_to(self.center) < self.radius
    }
}

/// Normalizes an angle to `[0, 2π)`.
pub fn wrap_angle(theta: f64) -> f64 {
    let tau = std::f64::consts::TAU;
    let mut t = theta % tau;
    if t < 0.0 {
        t += tau;
    }
    t
}

/// Absolute angular difference in `[0, π]`.
pub fn angle_diff(a: f64, b: f64) -> f64 {
    let d = wrap_angle(a - b);
    d.min(std::f64::consts::TAU - d)
}

impl Segment {
    /// Distance from a point to the infinite line through the segment.
    pub fn distance_to_line(&self, p: Point) -> f64 {
        let d = self.direction();
        let ap = p.sub(self.a);
        ap.sub(d.scale(ap.dot(d))).norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn point_arithmetic() {
        let a = pt(1.0, 2.0);
        let b = pt(3.0, -1.0);
        assert_eq!(a.add(b), pt(4.0, 1.0));
        assert_eq!(b.sub(a), pt(2.0, -3.0));
        assert_eq!(a.scale(2.0), pt(2.0, 4.0));
        assert_eq!(a.dot(b), 1.0);
        assert_eq!(a.cross(b), -7.0);
        assert!((pt(3.0, 4.0).norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn angles_and_units() {
        assert!((Point::unit(0.0).x - 1.0).abs() < 1e-12);
        assert!((Point::unit(FRAC_PI_2).y - 1.0).abs() < 1e-12);
        assert!((pt(0.0, 1.0).angle() - FRAC_PI_2).abs() < 1e-12);
        assert_eq!(pt(1.0, 0.0).perp(), pt(0.0, 1.0));
    }

    #[test]
    fn segment_intersection_crossing() {
        let s1 = seg(pt(0.0, 0.0), pt(2.0, 2.0));
        let s2 = seg(pt(0.0, 2.0), pt(2.0, 0.0));
        let p = s1.intersect(&s2).expect("must cross");
        assert!(p.distance(pt(1.0, 1.0)) < 1e-9);
    }

    #[test]
    fn segment_intersection_disjoint_and_parallel() {
        let s1 = seg(pt(0.0, 0.0), pt(1.0, 0.0));
        let s2 = seg(pt(0.0, 1.0), pt(1.0, 1.0));
        assert!(s1.intersect(&s2).is_none(), "parallel");
        let s3 = seg(pt(5.0, 5.0), pt(6.0, 6.0));
        assert!(s1.intersect(&s3).is_none(), "disjoint");
    }

    #[test]
    fn segment_intersection_at_endpoint() {
        let s1 = seg(pt(0.0, 0.0), pt(1.0, 0.0));
        let s2 = seg(pt(1.0, 0.0), pt(1.0, 1.0));
        assert!(s1.intersect(&s2).is_some());
    }

    #[test]
    fn interior_intersection_skips_endpoints() {
        let ray = seg(pt(0.0, 0.0), pt(2.0, 0.0));
        let wall = seg(pt(0.0, -1.0), pt(0.0, 1.0)); // crosses at ray start
        assert!(ray.intersect(&wall).is_some());
        assert!(ray.intersect_interior(&wall, 0.01).is_none());
    }

    #[test]
    fn mirror_across_horizontal_wall() {
        let wall = seg(pt(0.0, 0.0), pt(10.0, 0.0));
        assert_eq!(wall.mirror(pt(3.0, 2.0)), pt(3.0, -2.0));
        // Points on the line are fixed.
        let on = wall.mirror(pt(4.0, 0.0));
        assert!(on.distance(pt(4.0, 0.0)) < 1e-12);
    }

    #[test]
    fn mirror_is_involution() {
        let wall = seg(pt(1.0, 1.0), pt(4.0, 3.0));
        let p = pt(-2.0, 5.0);
        let back = wall.mirror(wall.mirror(p));
        assert!(back.distance(p) < 1e-9);
    }

    #[test]
    fn mirror_preserves_distance_to_line() {
        let wall = seg(pt(0.0, 0.0), pt(1.0, 2.0));
        let p = pt(3.0, -1.0);
        let m = wall.mirror(p);
        assert!((wall.distance_to_line(p) - wall.distance_to_line(m)).abs() < 1e-9);
    }

    #[test]
    fn distance_to_segment() {
        let s = seg(pt(0.0, 0.0), pt(10.0, 0.0));
        assert!((s.distance_to(pt(5.0, 3.0)) - 3.0).abs() < 1e-12);
        assert!((s.distance_to(pt(-4.0, 3.0)) - 5.0).abs() < 1e-12); // clamps to endpoint
    }

    #[test]
    fn circle_blocking() {
        let c = Circle {
            center: pt(5.0, 0.0),
            radius: 0.5,
        };
        assert!(c.intersects_segment(&seg(pt(0.0, 0.0), pt(10.0, 0.0))));
        assert!(!c.intersects_segment(&seg(pt(0.0, 1.0), pt(10.0, 1.0))));
    }

    #[test]
    fn angle_wrapping() {
        assert!((wrap_angle(-FRAC_PI_2) - 1.5 * PI).abs() < 1e-12);
        assert!((wrap_angle(2.5 * PI) - FRAC_PI_2).abs() < 1e-12);
        assert!((angle_diff(0.1, 2.0 * PI - 0.1) - 0.2).abs() < 1e-12);
        assert!((angle_diff(PI, 0.0) - PI).abs() < 1e-12);
    }
}
