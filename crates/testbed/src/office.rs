//! The simulated office testbed, modeled on the paper's Figure 12.
//!
//! One floor of a busy office, ≈ 48 m × 24 m: concrete outer walls and
//! pillars, drywall office partitions along the top and bottom, a glass
//! conference room, a metal elevator core — "we put some clients near
//! metal, wood, glass and plastic walls to make our experiments more
//! comprehensive" (§4). Six AP positions ring the space like the labels
//! "1"–"6" in the figure; 41 clients are spread roughly uniformly,
//! including spots behind the pillars where the direct path is blocked.

use at_channel::geometry::{pt, seg, Point};
use at_channel::{Floorplan, Material, Pillar};

/// Width of the office floor in meters.
pub const WIDTH: f64 = 48.0;

/// Depth of the office floor in meters.
pub const DEPTH: f64 = 24.0;

/// Builds the office floorplan.
pub fn office_floorplan() -> Floorplan {
    let mut fp = Floorplan::empty()
        // Outer shell.
        .with_rect(pt(0.0, 0.0), pt(WIDTH, DEPTH), Material::CONCRETE);

    // Top row of offices: partitions every 6 m, 6 m deep.
    for i in 1..8 {
        let x = i as f64 * 6.0;
        fp.push_wall(at_channel::Wall {
            segment: seg(pt(x, 18.0), pt(x, 24.0)),
            material: Material::DRYWALL,
        });
    }
    // Corridor wall under the top offices, with door gaps.
    for i in 0..8 {
        let x0 = i as f64 * 6.0;
        fp.push_wall(at_channel::Wall {
            segment: seg(pt(x0 + 1.2, 18.0), pt(x0 + 6.0, 18.0)),
            material: Material::DRYWALL,
        });
    }

    // Bottom row of offices: partitions every 8 m, 5 m deep.
    for i in 1..6 {
        let x = i as f64 * 8.0;
        fp.push_wall(at_channel::Wall {
            segment: seg(pt(x, 0.0), pt(x, 5.0)),
            material: Material::DRYWALL,
        });
    }
    for i in 0..6 {
        let x0 = i as f64 * 8.0;
        fp.push_wall(at_channel::Wall {
            segment: seg(pt(x0 + 1.5, 5.0), pt(x0 + 8.0, 5.0)),
            material: Material::DRYWALL,
        });
    }

    // Glass conference room in the middle-left.
    fp.push_wall(at_channel::Wall {
        segment: seg(pt(8.0, 9.0), pt(16.0, 9.0)),
        material: Material::GLASS,
    });
    fp.push_wall(at_channel::Wall {
        segment: seg(pt(8.0, 14.0), pt(16.0, 14.0)),
        material: Material::GLASS,
    });
    fp.push_wall(at_channel::Wall {
        segment: seg(pt(8.0, 9.0), pt(8.0, 14.0)),
        material: Material::GLASS,
    });
    fp.push_wall(at_channel::Wall {
        segment: seg(pt(16.0, 9.0), pt(16.0, 12.0)),
        material: Material::GLASS,
    });

    // Metal elevator core right of center.
    fp.push_wall(at_channel::Wall {
        segment: seg(pt(26.0, 10.0), pt(29.0, 10.0)),
        material: Material::METAL,
    });
    fp.push_wall(at_channel::Wall {
        segment: seg(pt(26.0, 13.0), pt(29.0, 13.0)),
        material: Material::METAL,
    });
    fp.push_wall(at_channel::Wall {
        segment: seg(pt(29.0, 10.0), pt(29.0, 13.0)),
        material: Material::METAL,
    });

    // Wooden storage wall near the right side.
    fp.push_wall(at_channel::Wall {
        segment: seg(pt(38.0, 8.0), pt(38.0, 16.0)),
        material: Material::WOOD,
    });

    // Two structural concrete pillars (Fig. 17's blockers).
    fp = fp
        .with_pillar(Pillar::concrete(pt(18.0, 12.5), 0.35))
        .with_pillar(Pillar::concrete(pt(34.0, 12.5), 0.35));

    fp
}

/// The six AP poses of Fig. 12: `(array center, axis angle)`.
///
/// The paper's single AP rode a cart between the six spots, so array
/// orientations were arbitrary, not wall-aligned — which matters: a tilted
/// linear array's mirror ambiguity lands *inside* the building, producing
/// the false-positive ghost locations §4.2 describes (and that symmetry
/// removal fixes). We tilt each array 20–40° off its nearest wall to
/// reproduce that geometry.
pub fn ap_poses() -> [(Point, f64); 6] {
    use std::f64::consts::FRAC_PI_2;
    [
        (pt(6.0, 23.0), 0.55),             // 1: top-left, tilted off the wall
        (pt(30.0, 23.0), -0.45),           // 2: top-center-right
        (pt(47.0, 16.0), FRAC_PI_2 + 0.6), // 3: right wall
        (pt(40.0, 1.0), 0.35),             // 4: bottom-right
        (pt(14.0, 1.0), -0.5),             // 5: bottom-left
        (pt(1.0, 12.0), FRAC_PI_2 - 0.65), // 6: left wall
    ]
}

/// The 41 client ground-truth positions, spread roughly uniformly with
/// deliberately adversarial placements: near the metal core, inside the
/// glass room, behind both pillars, and deep inside offices.
pub(crate) fn client_positions() -> Vec<Point> {
    vec![
        // Corridor / open area sweep.
        pt(4.0, 12.0),
        pt(9.0, 16.5),
        pt(14.5, 16.0),
        pt(20.0, 16.5),
        pt(25.0, 16.0),
        pt(31.0, 16.5),
        pt(36.5, 16.0),
        pt(42.0, 16.5),
        pt(45.5, 12.0),
        pt(42.0, 7.0),
        pt(36.0, 6.5),
        pt(30.0, 7.0),
        pt(24.0, 6.5),
        pt(18.5, 7.0),
        pt(12.0, 6.5),
        pt(6.0, 7.0),
        // Inside top offices.
        pt(3.0, 21.0),
        pt(9.5, 21.5),
        pt(15.0, 20.5),
        pt(21.0, 21.5),
        pt(27.5, 20.5),
        pt(33.0, 21.5),
        pt(39.5, 20.5),
        pt(45.0, 21.0),
        // Inside bottom offices.
        pt(4.0, 2.5),
        pt(12.5, 3.0),
        pt(20.0, 2.5),
        pt(28.0, 3.0),
        pt(36.5, 2.5),
        pt(44.0, 3.0),
        // Glass conference room.
        pt(10.5, 11.5),
        pt(14.0, 12.5),
        // Near the metal elevator core.
        pt(25.0, 11.5),
        pt(30.5, 11.8),
        // Behind the pillars (blocked direct paths to some APs).
        pt(18.0, 11.0),
        pt(34.0, 11.0),
        pt(18.0, 14.0),
        // Near the wooden wall.
        pt(37.2, 12.0),
        pt(39.0, 10.0),
        // Awkward corners.
        pt(1.5, 1.5),
        pt(46.5, 22.5),
    ]
}

/// A second, differently-shaped deployment: a 20 m × 15 m research lab —
/// concrete shell, one long metal bench row, a glass machine room, denser
/// AP ring. Used by the generalization tests to show the pipeline is not
/// tuned to the Fig. 12 office.
pub(crate) fn lab_floorplan() -> Floorplan {
    // Interior lab: plasterboard shell (a small *concrete* box at 2.4 GHz
    // is an echo chamber whose wall bounces rival the direct path —
    // measurably harder than anything in the paper's testbed).
    let mut fp = Floorplan::empty().with_rect(pt(0.0, 0.0), pt(20.0, 15.0), Material::DRYWALL);
    // Metal bench row across the middle.
    fp.push_wall(at_channel::Wall {
        segment: seg(pt(3.0, 7.5), pt(13.0, 7.5)),
        material: Material::METAL,
    });
    // Glass machine room in a corner.
    fp.push_wall(at_channel::Wall {
        segment: seg(pt(14.0, 10.0), pt(20.0, 10.0)),
        material: Material::GLASS,
    });
    fp.push_wall(at_channel::Wall {
        segment: seg(pt(14.0, 10.0), pt(14.0, 15.0)),
        material: Material::GLASS,
    });
    // Two drywall partitions.
    fp.push_wall(at_channel::Wall {
        segment: seg(pt(6.0, 0.0), pt(6.0, 4.0)),
        material: Material::DRYWALL,
    });
    fp.push_wall(at_channel::Wall {
        segment: seg(pt(12.0, 11.0), pt(12.0, 15.0)),
        material: Material::DRYWALL,
    });
    fp.with_pillar(Pillar::concrete(pt(10.0, 11.0), 0.3))
}

/// Four AP poses for the lab, tilted off the walls like the office's.
pub(crate) fn lab_ap_poses() -> [(Point, f64); 4] {
    use std::f64::consts::FRAC_PI_2;
    [
        (pt(2.0, 14.0), -0.4),
        (pt(18.5, 13.5), FRAC_PI_2 + 0.5),
        (pt(17.0, 1.0), 0.45),
        (pt(1.0, 4.0), FRAC_PI_2 - 0.55),
    ]
}

/// Twelve lab client positions, including bench-shadowed and in-glass spots.
pub(crate) fn lab_client_positions() -> Vec<Point> {
    vec![
        pt(4.0, 3.0),
        pt(9.0, 2.5),
        pt(15.0, 3.5),
        pt(18.0, 6.0),
        pt(16.5, 12.5), // inside the glass room
        pt(10.0, 13.0),
        pt(5.0, 12.0),
        pt(2.5, 8.5),
        pt(8.0, 6.5), // just below the metal bench
        pt(8.0, 8.5), // just above it
        pt(13.0, 9.0),
        pt(10.5, 10.2), // near the pillar
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_geometry_is_sane() {
        let fp = lab_floorplan();
        let (lo, hi) = fp.bounds().unwrap();
        assert_eq!(lo, pt(0.0, 0.0));
        assert_eq!(hi, pt(20.0, 15.0));
        for c in lab_client_positions() {
            assert!(c.x > 0.0 && c.x < 20.0 && c.y > 0.0 && c.y < 15.0);
        }
        for (p, _) in lab_ap_poses() {
            assert!(p.x > 0.0 && p.x < 20.0 && p.y > 0.0 && p.y < 15.0);
        }
    }

    #[test]
    fn floorplan_has_expected_scale() {
        let fp = office_floorplan();
        let (lo, hi) = fp.bounds().unwrap();
        assert_eq!(lo, pt(0.0, 0.0));
        assert_eq!(hi, pt(WIDTH, DEPTH));
        assert!(fp.walls().len() > 25, "office should be cluttered");
        assert_eq!(fp.pillars().len(), 2);
    }

    #[test]
    fn there_are_41_clients_inside_the_building() {
        let clients = client_positions();
        assert_eq!(clients.len(), 41, "paper deploys 41 clients");
        for c in &clients {
            assert!(c.x > 0.0 && c.x < WIDTH, "{c:?}");
            assert!(c.y > 0.0 && c.y < DEPTH, "{c:?}");
        }
    }

    #[test]
    fn clients_are_distinct_and_spread() {
        let clients = client_positions();
        for (i, a) in clients.iter().enumerate() {
            for b in clients.iter().skip(i + 1) {
                assert!(a.distance(*b) > 0.5, "{a:?} and {b:?} too close");
            }
        }
    }

    #[test]
    fn aps_are_inside_and_distinct() {
        let poses = ap_poses();
        assert_eq!(poses.len(), 6);
        for (p, _) in &poses {
            assert!(p.x >= 0.0 && p.x <= WIDTH && p.y >= 0.0 && p.y <= DEPTH);
        }
        for (i, (a, _)) in poses.iter().enumerate() {
            for (b, _) in poses.iter().skip(i + 1) {
                assert!(a.distance(*b) > 5.0, "APs should be spread out");
            }
        }
    }

    #[test]
    fn every_client_reaches_every_ap_with_some_path() {
        use at_channel::PathTracer;
        let fp = office_floorplan();
        let tracer = PathTracer::new(&fp);
        for (ap, _) in ap_poses() {
            for c in client_positions() {
                let paths = tracer.trace(c, 1.5, ap, 1.5);
                assert!(!paths.is_empty(), "no path {c:?} → {ap:?}");
            }
        }
    }

    #[test]
    fn some_clients_have_blocked_direct_paths() {
        // The pillar placements must actually block somebody (Fig. 17).
        use at_channel::geometry::seg;
        let fp = office_floorplan();
        let mut blocked = 0;
        for (ap, _) in ap_poses() {
            for c in client_positions() {
                if fp.pillars_crossed(&seg(c, ap)) > 0 {
                    blocked += 1;
                }
            }
        }
        assert!(blocked >= 3, "only {blocked} blocked pairs");
    }
}
