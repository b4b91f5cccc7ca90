//! Image-method multipath ray tracing.
//!
//! Indoor RF propagation at 2.4 GHz is dominated by the direct ray plus a
//! handful of specular wall reflections — exactly the discrete-path regime
//! MUSIC models (paper eq. 3). The classic image method constructs each
//! reflection as a straight ray from a *virtual source*: the transmitter
//! mirrored across the reflecting wall (twice for second-order paths).
//!
//! Each traced [`Path`] carries its virtual-source position so the channel
//! can compute exact per-antenna path lengths — the phase gradient across
//! the array *is* the angle-of-arrival information ArrayTrack consumes.

use crate::array::{wavelength, SPEED_OF_LIGHT};
use crate::floorplan::Floorplan;
use crate::geometry::{seg, Point};
use at_linalg::Complex64;

/// One propagation path from a transmitter to a receiver location.
#[derive(Clone, Copy, Debug)]
pub struct Path {
    /// Virtual source (the transmitter, mirrored once per reflection).
    /// Plan-view position; heights are handled via [`Path::length`].
    pub image: Point,
    /// Total 3D path length to the receiver reference point, meters.
    pub length: f64,
    /// World-frame angle of the arrival direction (from receiver toward the
    /// virtual source), radians.
    pub world_angle: f64,
    /// Complex path gain *excluding* the carrier phase `e^{-j2πd/λ}`, which
    /// the channel applies per antenna. Includes free-space loss, reflection
    /// coefficients (with per-bounce phase inversion) and obstruction loss.
    pub gain: Complex64,
    /// Number of wall reflections (0 = direct path).
    pub order: usize,
}

impl Path {
    /// Propagation delay to the receiver reference point, seconds.
    pub(crate) fn delay(&self) -> f64 {
        self.length / SPEED_OF_LIGHT
    }
}

/// Correlation length of wall-surface roughness, meters. Office walls are
/// not ideal mirrors at 2.4 GHz (λ ≈ 12 cm): paint texture, studs, shelves,
/// cubicle clutter and people perturb each specular bounce. We model this
/// as a deterministic pseudo-random phase/amplitude factor per
/// `ROUGHNESS_CELL`-sized patch of wall around the reflection point — a
/// static client sees a static channel, but a few-centimeter move shifts
/// the reflection point into a new patch and decorrelates the reflected
/// path, exactly the behaviour the paper's Table 1 measures (reflections
/// change under 5 cm motion ~4× more often than the direct path).
const ROUGHNESS_CELL: f64 = 0.015;

/// Image-method path tracer over a floorplan.
#[derive(Clone, Debug)]
pub struct PathTracer<'a> {
    floorplan: &'a Floorplan,
    /// Paths weaker than this fraction of the strongest path's amplitude
    /// are dropped (they are far below the noise floor).
    relative_floor: f64,
    /// Endpoint margin when counting obstructions, meters.
    margin: f64,
}

impl<'a> PathTracer<'a> {
    /// Tracer with second-order reflections (the default configuration).
    pub fn new(floorplan: &'a Floorplan) -> Self {
        Self {
            floorplan,
            relative_floor: 1e-3,
            margin: 1e-2,
        }
    }

    /// The deterministic roughness draw for a bounce off wall `wall_idx`
    /// at point `hit`: a complex gain factor plus an apparent-bearing
    /// jitter in radians (the glint point on a cluttered surface wanders,
    /// shifting the reflection's AoA by a few degrees).
    fn roughness(&self, wall_idx: usize, hit: Point) -> (Complex64, f64) {
        let cx = (hit.x / ROUGHNESS_CELL).floor() as i64;
        let cy = (hit.y / ROUGHNESS_CELL).floor() as i64;
        let h = splitmix64(
            (wall_idx as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(cx as u64)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                .wrapping_add(cy as u64),
        );
        let h2 = splitmix64(h);
        // Phase uniform in [0, 2π); amplitude in [0.5, 1.0] (rough
        // scattering loses a variable share of the specular energy).
        let phase = (h >> 32) as f64 / u32::MAX as f64 * std::f64::consts::TAU;
        let u = (h & 0xffff_ffff) as f64 / u32::MAX as f64;
        let amp = 0.5 + 0.5 * u;
        // Bearing jitter uniform in ±MAX_BEARING_JITTER.
        let v = (h2 >> 32) as f64 / u32::MAX as f64;
        let jitter = (v - 0.5) * 2.0 * MAX_BEARING_JITTER;
        (Complex64::from_polar(amp, phase), jitter)
    }

    /// Traces all propagation paths from `tx` to `rx`.
    ///
    /// `tx_height` and `rx_height` are heights above the floor in meters;
    /// walls are vertical planes so reflections stay 2D, while path lengths
    /// become `√(L²₂d + Δh²)` (Appendix A geometry).
    pub fn trace(&self, tx: Point, tx_height: f64, rx: Point, rx_height: f64) -> Vec<Path> {
        let dh = tx_height - rx_height;
        let mut paths = Vec::new();

        // Direct path.
        let direct_ray = seg(tx, rx);
        let loss_db = self.floorplan.obstruction_loss_db(&direct_ray, self.margin);
        if let Some(p) = self.make_path(tx, rx, dh, Complex64::ONE, loss_db, 0) {
            paths.push(p);
        }

        self.trace_first_order(tx, rx, dh, &mut paths);
        self.trace_second_order(tx, rx, dh, &mut paths);

        // Drop paths far below the strongest.
        let peak = paths.iter().map(|p| p.gain.abs()).fold(0.0f64, f64::max);
        paths.retain(|p| p.gain.abs() >= peak * self.relative_floor);
        // Strongest first: a stable, convenient order for consumers.
        paths.sort_by(|a, b| {
            b.gain
                .abs()
                .partial_cmp(&a.gain.abs())
                .expect("finite gains")
        });
        paths
    }

    fn trace_first_order(&self, tx: Point, rx: Point, dh: f64, out: &mut Vec<Path>) {
        for (wi, wall) in self.floorplan.walls().iter().enumerate() {
            let image = wall.segment.mirror(tx);
            let Some(hit) = seg(image, rx).intersect(&wall.segment) else {
                continue;
            };
            // Degenerate: transmitter effectively on the wall plane.
            if image.distance(tx) < 2.0 * self.margin {
                continue;
            }
            // Obstructions along both legs, excluding the reflection point.
            let leg1 = seg(tx, hit);
            let leg2 = seg(hit, rx);
            let loss_db = self.floorplan.obstruction_loss_db(&leg1, self.margin)
                + self.floorplan.obstruction_loss_db(&leg2, self.margin);
            // Specular reflection with phase inversion and roughness.
            let (rough, jitter) = self.roughness(wi, hit);
            let refl = Complex64::real(-wall.material.reflection) * rough;
            if let Some(p) =
                self.make_path(rotate_about(image, rx, jitter), rx, dh, refl, loss_db, 1)
            {
                out.push(p);
            }
        }
    }

    fn trace_second_order(&self, tx: Point, rx: Point, dh: f64, out: &mut Vec<Path>) {
        let walls = self.floorplan.walls();
        for (i, wi) in walls.iter().enumerate() {
            let image1 = wi.segment.mirror(tx);
            if image1.distance(tx) < 2.0 * self.margin {
                continue;
            }
            for (j, wj) in walls.iter().enumerate() {
                if i == j {
                    continue;
                }
                let image2 = wj.segment.mirror(image1);
                if image2.distance(image1) < 2.0 * self.margin {
                    continue;
                }
                // Unfold back-to-front: last bounce first.
                let Some(hit2) = seg(image2, rx).intersect(&wj.segment) else {
                    continue;
                };
                let Some(hit1) = seg(image1, hit2).intersect(&wi.segment) else {
                    continue;
                };
                let legs = [seg(tx, hit1), seg(hit1, hit2), seg(hit2, rx)];
                let loss_db: f64 = legs
                    .iter()
                    .map(|l| self.floorplan.obstruction_loss_db(l, self.margin))
                    .sum();
                let (rough1, jit1) = self.roughness(i, hit1);
                let (rough2, jit2) = self.roughness(j, hit2);
                let refl = Complex64::real(wi.material.reflection * wj.material.reflection)
                    * rough1
                    * rough2;
                let image = rotate_about(image2, rx, jit1 + jit2);
                if let Some(p) = self.make_path(image, rx, dh, refl, loss_db, 2) {
                    out.push(p);
                }
            }
        }
    }

    /// Assembles a [`Path`] from its virtual source, applying free-space
    /// loss `λ/(4πd)` and obstruction attenuation.
    fn make_path(
        &self,
        image: Point,
        rx: Point,
        dh: f64,
        reflection: Complex64,
        loss_db: f64,
        order: usize,
    ) -> Option<Path> {
        let d2 = image.distance(rx);
        let d = (d2 * d2 + dh * dh).sqrt();
        if d < 1e-3 {
            return None; // co-located: no meaningful path geometry
        }
        let fs = wavelength() / (4.0 * std::f64::consts::PI * d);
        let att = 10.0f64.powf(-loss_db / 20.0);
        let gain = reflection.scale(fs * att);
        Some(Path {
            image,
            length: d,
            world_angle: image.sub(rx).angle(),
            gain,
            order,
        })
    }
}

/// Maximum apparent-bearing jitter a rough bounce can add, radians (±12°).
const MAX_BEARING_JITTER: f64 = 12.0 * std::f64::consts::PI / 180.0;

/// Rotates `p` about `center` by `angle` radians — used to wander a
/// reflection's virtual source (and hence its apparent bearing) without
/// changing its path length.
fn rotate_about(p: Point, center: Point, angle: f64) -> Point {
    if angle == 0.0 {
        return p;
    }
    let d = p.sub(center);
    let (s, c) = angle.sin_cos();
    center.add(crate::geometry::pt(d.x * c - d.y * s, d.x * s + d.y * c))
}

/// The splitmix64 finalizer: a cheap, high-quality bit mixer for the
/// deterministic roughness hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Traces the single free-space path between two points (no floorplan).
pub fn free_space_path(tx: Point, tx_height: f64, rx: Point, rx_height: f64) -> Path {
    let fp = Floorplan::empty();
    PathTracer::new(&fp)
        .trace(tx, tx_height, rx, rx_height)
        .into_iter()
        .next()
        .expect("free space always has a direct path")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::{Material, Pillar};
    use crate::geometry::pt;

    #[test]
    fn free_space_has_one_direct_path() {
        let fp = Floorplan::empty();
        let paths = PathTracer::new(&fp).trace(pt(0.0, 0.0), 1.5, pt(10.0, 0.0), 1.5);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.order, 0);
        assert!((p.length - 10.0).abs() < 1e-9);
        assert!((p.gain.abs() - wavelength() / (40.0 * std::f64::consts::PI)).abs() < 1e-12);
        // Arrival direction points from rx back toward tx.
        assert!((p.world_angle.abs() - std::f64::consts::PI).abs() < 1e-9);
    }

    #[test]
    fn single_wall_adds_one_reflection() {
        let fp =
            Floorplan::empty().with_wall(seg(pt(-20.0, 5.0), pt(30.0, 5.0)), Material::CONCRETE);
        let paths = PathTracer::new(&fp).trace(pt(0.0, 0.0), 1.5, pt(10.0, 0.0), 1.5);
        assert_eq!(paths.len(), 2);
        let refl = paths.iter().find(|p| p.order == 1).expect("reflection");
        // Mirror geometry: path length = |(0,10) - (10,0)| = √200
        // (roughness wanders the bearing, never the length).
        assert!((refl.length - 200.0f64.sqrt()).abs() < 1e-9);
        // Reflection is weaker than the direct path.
        assert!(refl.gain.abs() < paths[0].gain.abs());
    }

    #[test]
    fn roughness_is_deterministic_but_position_sensitive() {
        let fp =
            Floorplan::empty().with_wall(seg(pt(-20.0, 5.0), pt(30.0, 5.0)), Material::CONCRETE);
        let tracer = PathTracer::new(&fp);
        let refl_at = |x: f64| {
            tracer
                .trace(pt(x, 0.0), 1.5, pt(10.0, 0.0), 1.5)
                .into_iter()
                .find(|p| p.order == 1)
                .expect("reflection")
                .gain
        };
        // Same geometry twice → identical gain (static channel).
        let a = refl_at(0.0);
        let b = refl_at(0.0);
        assert_eq!(a, b);
        // A decimeter of client motion shifts the reflection point into a
        // different roughness patch → different complex gain.
        let c = refl_at(0.4);
        assert!(
            (a - c).abs() > 1e-6 * a.abs(),
            "roughness should decorrelate"
        );
        // Roughness never amplifies beyond the smooth-wall (mirror) gain.
        let smooth = Material::CONCRETE.reflection * wavelength()
            / (4.0 * std::f64::consts::PI * 200.0f64.sqrt());
        assert!(a.abs() <= smooth + 1e-12);
    }

    #[test]
    fn reflection_point_must_lie_on_wall_segment() {
        // Short wall segment far to the side: mirror image exists but the
        // specular point misses the segment, so no reflected path.
        let fp = Floorplan::empty().with_wall(seg(pt(100.0, 5.0), pt(101.0, 5.0)), Material::METAL);
        let paths = PathTracer::new(&fp).trace(pt(0.0, 0.0), 1.5, pt(10.0, 0.0), 1.5);
        assert_eq!(paths.len(), 1, "only the direct path should survive");
    }

    #[test]
    fn parallel_walls_make_second_order_path() {
        let fp = Floorplan::empty()
            .with_wall(seg(pt(-20.0, 5.0), pt(30.0, 5.0)), Material::METAL)
            .with_wall(seg(pt(-20.0, -5.0), pt(30.0, -5.0)), Material::METAL);
        let paths = PathTracer::new(&fp).trace(pt(0.0, 0.0), 1.5, pt(10.0, 0.0), 1.5);
        let orders: Vec<usize> = paths.iter().map(|p| p.order).collect();
        assert!(orders.contains(&0));
        assert!(
            orders.iter().filter(|&&o| o == 1).count() >= 2,
            "{orders:?}"
        );
        assert!(orders.contains(&2), "{orders:?}");
    }

    #[test]
    fn pillar_attenuates_direct_path() {
        let clear = free_space_path(pt(0.0, 0.0), 1.5, pt(10.0, 0.0), 1.5);
        let fp = Floorplan::empty().with_pillar(Pillar::concrete(pt(5.0, 0.0), 0.4));
        let blocked = PathTracer::new(&fp).trace(pt(0.0, 0.0), 1.5, pt(10.0, 0.0), 1.5);
        let direct = blocked.iter().find(|p| p.order == 0).expect("direct");
        let drop_db = 20.0 * (clear.gain.abs() / direct.gain.abs()).log10();
        assert!((drop_db - 6.0).abs() < 1e-9, "pillar loss {drop_db}");
    }

    #[test]
    fn height_difference_lengthens_path() {
        let flat = free_space_path(pt(0.0, 0.0), 1.5, pt(5.0, 0.0), 1.5);
        let tall = free_space_path(pt(0.0, 0.0), 0.0, pt(5.0, 0.0), 1.5);
        assert!((flat.length - 5.0).abs() < 1e-12);
        assert!((tall.length - (25.0f64 + 2.25).sqrt()).abs() < 1e-12);
        assert!(tall.gain.abs() < flat.gain.abs());
    }

    #[test]
    fn paths_sorted_strongest_first() {
        let fp = Floorplan::empty()
            .with_wall(seg(pt(-20.0, 3.0), pt(30.0, 3.0)), Material::METAL)
            .with_wall(seg(pt(-20.0, -8.0), pt(30.0, -8.0)), Material::DRYWALL);
        let paths = PathTracer::new(&fp).trace(pt(0.0, 0.0), 1.5, pt(10.0, 0.0), 1.5);
        for w in paths.windows(2) {
            assert!(w[0].gain.abs() >= w[1].gain.abs());
        }
    }

    #[test]
    fn delay_is_length_over_c() {
        let p = free_space_path(pt(0.0, 0.0), 1.5, pt(30.0, 0.0), 1.5);
        assert!((p.delay() - 30.0 / SPEED_OF_LIGHT).abs() < 1e-18);
    }

    #[test]
    fn blocked_direct_path_weaker_than_strong_reflection() {
        // Metal wall reflection vs. direct path through two concrete walls:
        // the reflection should dominate (the paper's S1 NLoS scenario).
        let fp = Floorplan::empty()
            .with_wall(seg(pt(4.0, -3.0), pt(4.0, 3.0)), Material::CONCRETE)
            .with_wall(seg(pt(6.0, -3.0), pt(6.0, 3.0)), Material::CONCRETE)
            .with_wall(seg(pt(-20.0, 4.0), pt(30.0, 4.0)), Material::METAL);
        let paths = PathTracer::new(&fp).trace(pt(0.0, 0.0), 1.5, pt(10.0, 0.0), 1.5);
        let direct = paths.iter().find(|p| p.order == 0).expect("direct");
        let strongest = &paths[0];
        assert!(strongest.order > 0, "reflection should be strongest");
        assert!(strongest.gain.abs() > direct.gain.abs());
    }
}
