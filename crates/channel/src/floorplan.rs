//! Floorplans: walls, materials, and pillars.
//!
//! The paper's testbed is one floor of a busy office with drywall offices, a
//! few concrete pillars, and clients placed near "metal, wood, glass and
//! plastic walls" (§4). Materials matter twice: a wall *reflects* part of
//! the energy (feeding the image-method reflection paths) and *attenuates*
//! what passes through (shadowing the direct path).

use crate::geometry::{Circle, Point, Segment};

/// Electromagnetic surface properties at 2.4 GHz.
///
/// Values are representative of the indoor-propagation literature rather
/// than measured; the reproduction only needs reflections strong enough to
/// create realistic multipath and transmission losses strong enough to
/// shadow NLoS clients.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Material {
    /// Descriptive name.
    pub name: &'static str,
    /// Amplitude reflection coefficient magnitude `|Γ| ∈ [0, 1]`.
    pub reflection: f64,
    /// Through-wall power attenuation in dB (positive).
    pub transmission_loss_db: f64,
}

impl Material {
    /// Interior drywall / plasterboard partition.
    pub const DRYWALL: Material = Material {
        name: "drywall",
        reflection: 0.35,
        transmission_loss_db: 3.0,
    };
    /// Structural concrete (also used for the pillars).
    pub const CONCRETE: Material = Material {
        name: "concrete",
        reflection: 0.6,
        transmission_loss_db: 12.0,
    };
    /// Glass partition / window.
    pub const GLASS: Material = Material {
        name: "glass",
        reflection: 0.25,
        transmission_loss_db: 2.0,
    };
    /// Metal surface (elevator doors, cabinets): near-perfect reflector.
    pub const METAL: Material = Material {
        name: "metal",
        reflection: 0.95,
        transmission_loss_db: 30.0,
    };
    /// Wooden door or furniture surface.
    pub const WOOD: Material = Material {
        name: "wood",
        reflection: 0.3,
        transmission_loss_db: 4.0,
    };
}

/// A wall: a vertical planar surface seen in plan view as a segment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Wall {
    /// Plan-view geometry.
    pub segment: Segment,
    /// Surface material.
    pub material: Material,
}

/// A concrete pillar (plan-view circle) that blocks but does not usefully
/// reflect (its curved surface scatters energy diffusely).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pillar {
    /// Plan-view geometry.
    pub circle: Circle,
    /// Power attenuation in dB for a ray passing through the pillar.
    pub attenuation_db: f64,
}

impl Pillar {
    /// A standard concrete pillar. 6 dB per crossing: a ~0.7 m column
    /// blocks the geometric ray but diffraction around it leaves
    /// substantial energy on the direct bearing (which is why the paper's
    /// Fig. 17 still sees the direct path among the top three peaks even
    /// behind two pillars).
    pub fn concrete(center: Point, radius: f64) -> Self {
        Self {
            circle: Circle { center, radius },
            attenuation_db: 6.0,
        }
    }
}

/// A floorplan: a set of walls and pillars in a bounded region.
#[derive(Clone, Debug, Default)]
pub struct Floorplan {
    walls: Vec<Wall>,
    pillars: Vec<Pillar>,
    /// Bounding box (min, max) corners, grown as geometry is added.
    bounds: Option<(Point, Point)>,
}

impl Floorplan {
    /// An empty floorplan (free space).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Adds a wall; returns `self` for builder-style chaining.
    pub fn with_wall(mut self, segment: Segment, material: Material) -> Self {
        self.push_wall(Wall { segment, material });
        self
    }

    /// Adds a pillar; returns `self` for chaining.
    pub fn with_pillar(mut self, pillar: Pillar) -> Self {
        self.grow_bounds(pillar.circle.center);
        self.pillars.push(pillar);
        self
    }

    /// Adds a wall in place.
    pub fn push_wall(&mut self, wall: Wall) {
        self.grow_bounds(wall.segment.a);
        self.grow_bounds(wall.segment.b);
        self.walls.push(wall);
    }

    /// Adds a rectangular room outline (four walls of one material).
    pub fn with_rect(mut self, min: Point, max: Point, material: Material) -> Self {
        use crate::geometry::{pt, seg};
        let corners = [
            pt(min.x, min.y),
            pt(max.x, min.y),
            pt(max.x, max.y),
            pt(min.x, max.y),
        ];
        for i in 0..4 {
            self.push_wall(Wall {
                segment: seg(corners[i], corners[(i + 1) % 4]),
                material,
            });
        }
        self
    }

    /// All walls.
    pub fn walls(&self) -> &[Wall] {
        &self.walls
    }

    /// All pillars.
    pub fn pillars(&self) -> &[Pillar] {
        &self.pillars
    }

    /// Bounding box of all geometry, if any.
    pub fn bounds(&self) -> Option<(Point, Point)> {
        self.bounds
    }

    fn grow_bounds(&mut self, p: Point) {
        use crate::geometry::pt;
        self.bounds = Some(match self.bounds {
            None => (p, p),
            Some((lo, hi)) => (
                pt(lo.x.min(p.x), lo.y.min(p.y)),
                pt(hi.x.max(p.x), hi.y.max(p.y)),
            ),
        });
    }

    /// Total through-obstruction power loss in dB along a ray, ignoring
    /// crossings within `margin` meters of either ray endpoint (so a
    /// reflection point on a wall doesn't count the reflecting wall as an
    /// obstruction).
    pub(crate) fn obstruction_loss_db(&self, ray: &Segment, margin: f64) -> f64 {
        let mut loss = 0.0;
        for wall in &self.walls {
            if ray.intersect_interior(&wall.segment, margin).is_some() {
                loss += wall.material.transmission_loss_db;
            }
        }
        for pillar in &self.pillars {
            if pillar.circle.intersects_segment(ray) {
                loss += pillar.attenuation_db;
            }
        }
        loss
    }

    /// Number of pillars a ray passes through (Fig. 17's experimental knob).
    pub fn pillars_crossed(&self, ray: &Segment) -> usize {
        self.pillars
            .iter()
            .filter(|p| p.circle.intersects_segment(ray))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{pt, seg};

    #[test]
    fn builder_accumulates_geometry() {
        let fp = Floorplan::empty()
            .with_wall(seg(pt(0.0, 0.0), pt(10.0, 0.0)), Material::DRYWALL)
            .with_pillar(Pillar::concrete(pt(5.0, 5.0), 0.4));
        assert_eq!(fp.walls().len(), 1);
        assert_eq!(fp.pillars().len(), 1);
    }

    #[test]
    fn rect_adds_four_walls_and_bounds() {
        let fp = Floorplan::empty().with_rect(pt(0.0, 0.0), pt(20.0, 10.0), Material::CONCRETE);
        assert_eq!(fp.walls().len(), 4);
        let (lo, hi) = fp.bounds().unwrap();
        assert_eq!(lo, pt(0.0, 0.0));
        assert_eq!(hi, pt(20.0, 10.0));
    }

    #[test]
    fn obstruction_loss_sums_walls_and_pillars() {
        let fp = Floorplan::empty()
            .with_wall(seg(pt(5.0, -1.0), pt(5.0, 1.0)), Material::DRYWALL)
            .with_wall(seg(pt(7.0, -1.0), pt(7.0, 1.0)), Material::GLASS)
            .with_pillar(Pillar::concrete(pt(3.0, 0.0), 0.3));
        let ray = seg(pt(0.0, 0.0), pt(10.0, 0.0));
        let loss = fp.obstruction_loss_db(&ray, 1e-3);
        assert!((loss - (3.0 + 2.0 + 6.0)).abs() < 1e-9, "loss {loss}");
        assert_eq!(fp.pillars_crossed(&ray), 1);
    }

    #[test]
    fn clear_ray_has_no_loss() {
        let fp = Floorplan::empty().with_wall(seg(pt(5.0, 2.0), pt(5.0, 4.0)), Material::METAL);
        let ray = seg(pt(0.0, 0.0), pt(10.0, 0.0));
        assert_eq!(fp.obstruction_loss_db(&ray, 1e-3), 0.0);
    }

    #[test]
    fn margin_excludes_reflection_wall() {
        let fp = Floorplan::empty().with_wall(seg(pt(0.0, 5.0), pt(10.0, 5.0)), Material::CONCRETE);
        // Ray landing exactly on the wall: with a margin the wall is not
        // counted as an obstruction of its own reflection point.
        let ray = seg(pt(2.0, 0.0), pt(5.0, 5.0));
        assert_eq!(fp.obstruction_loss_db(&ray, 1e-2), 0.0);
        assert!(fp.obstruction_loss_db(&ray, 0.0) > 0.0);
    }

    #[test]
    fn material_constants_sane() {
        for m in [
            Material::DRYWALL,
            Material::CONCRETE,
            Material::GLASS,
            Material::METAL,
            Material::WOOD,
        ] {
            assert!(m.reflection > 0.0 && m.reflection <= 1.0);
            assert!(m.transmission_loss_db > 0.0);
        }
        #[allow(clippy::assertions_on_constants)] // documents the material ordering
        {
            assert!(Material::METAL.reflection > Material::DRYWALL.reflection);
        }
    }
}
