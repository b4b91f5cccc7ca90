//! AoA spectra synthesis: from per-AP spectra to a location (paper §2.5).
//!
//! Each AP contributes a (processed) AoA spectrum `Pᵢ(θ)`. The likelihood
//! of the client being at position `x` is the product of every AP's
//! spectrum evaluated at the bearing from that AP to `x` (eq. 8):
//!
//! ```text
//! L(x) = Π_i Pᵢ(θᵢ(x))
//! ```
//!
//! ArrayTrack searches a 10 cm grid for the three highest-likelihood cells
//! and refines each with hill climbing.

use crate::spectrum::AoaSpectrum;
use at_channel::geometry::{pt, Point};

/// Pose of an AP's antenna array in the floorplan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApPose {
    /// Array centroid position.
    pub center: Point,
    /// Array axis orientation, radians from +x.
    pub axis_angle: f64,
}

impl ApPose {
    /// Bearing of `x` in this AP's array frame, radians `[0, 2π)`.
    pub fn bearing_to(&self, x: Point) -> f64 {
        at_channel::geometry::wrap_angle(x.sub(self.center).angle() - self.axis_angle)
    }
}

/// One AP's contribution to localization: where it is and what it heard.
#[derive(Clone, Debug)]
pub struct ApObservation {
    /// The AP's array pose.
    pub pose: ApPose,
    /// The processed AoA spectrum (normalized internally before fusion).
    pub spectrum: AoaSpectrum,
}

/// Floor applied to each (normalized) spectrum factor in the product.
///
/// An AoA spectrum can assert presence but never certify absence: a
/// suppressed/attenuated bin must act as a *mild* veto, not a hard zero —
/// otherwise one AP whose direct peak was lost (blocked path, wrong
/// suppression or symmetry call) poisons the entire product and throws the
/// estimate tens of meters (the paper's §6 NLoS discussion asserts one
/// blocked direct path "degrades the performance ... slightly but not
/// much", which requires exactly this robustness). 0.05 means a fully
/// vetoing AP costs ~1.3 orders of magnitude per extra AP of agreement.
pub(crate) const LIKELIHOOD_FLOOR: f64 = 0.05;

/// The rectangular search region and grid resolution for localization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SearchRegion {
    /// Minimum corner.
    pub min: Point,
    /// Maximum corner.
    pub max: Point,
    /// Grid pitch in meters (paper: 10 cm).
    pub resolution: f64,
}

impl SearchRegion {
    /// A region covering `[min, max]` at the paper's 10 cm pitch.
    pub fn new(min: Point, max: Point) -> Self {
        assert!(max.x > min.x && max.y > min.y, "degenerate region");
        Self {
            min,
            max,
            resolution: 0.1,
        }
    }

    /// Overrides the grid resolution.
    pub fn with_resolution(mut self, resolution: f64) -> Self {
        assert!(resolution > 0.0);
        self.resolution = resolution;
        self
    }

    /// Grid dimensions `(nx, ny)`.
    pub fn grid_size(&self) -> (usize, usize) {
        let nx = ((self.max.x - self.min.x) / self.resolution).floor() as usize + 1;
        let ny = ((self.max.y - self.min.y) / self.resolution).floor() as usize + 1;
        (nx, ny)
    }

    /// The center of grid cell `(ix, iy)`.
    pub fn cell_center(&self, ix: usize, iy: usize) -> Point {
        pt(
            self.min.x + ix as f64 * self.resolution,
            self.min.y + iy as f64 * self.resolution,
        )
    }

    /// Whether a point lies inside the region.
    pub(crate) fn contains(&self, p: Point) -> bool {
        (self.min.x..=self.max.x).contains(&p.x) && (self.min.y..=self.max.y).contains(&p.y)
    }
}

/// A computed likelihood heatmap (Fig. 14's visualization data).
#[derive(Clone, Debug)]
pub struct Heatmap {
    /// The region the map covers.
    pub region: SearchRegion,
    /// Row-major values, `ny` rows of `nx`.
    pub values: Vec<f64>,
    /// Grid width.
    pub nx: usize,
    /// Grid height.
    pub ny: usize,
}

impl Heatmap {
    /// Value at grid cell `(ix, iy)`.
    pub fn at(&self, ix: usize, iy: usize) -> f64 {
        self.values[iy * self.nx + ix]
    }

    /// The `k` highest-valued cell centers, descending.
    ///
    /// Selects the `k` survivors in O(n) first and only sorts those — for
    /// the usual `k = 3` over a ~10⁵-cell office grid, that's a partition
    /// instead of a full sort of the index vector.
    pub fn top_cells(&self, k: usize) -> Vec<(Point, f64)> {
        let mut idx: Vec<usize> = (0..self.values.len()).collect();
        let k = k.min(idx.len());
        if k == 0 {
            return Vec::new();
        }
        let desc = |a: &usize, b: &usize| {
            self.values[*b]
                .partial_cmp(&self.values[*a])
                .expect("finite likelihoods")
        };
        if k < idx.len() {
            idx.select_nth_unstable_by(k - 1, desc);
            idx.truncate(k);
        }
        idx.sort_unstable_by(desc);
        idx.into_iter()
            .map(|i| {
                let iy = i / self.nx;
                let ix = i % self.nx;
                (self.region.cell_center(ix, iy), self.values[i])
            })
            .collect()
    }
}

/// A final position estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LocationEstimate {
    /// Estimated client position.
    pub position: Point,
    /// Likelihood value at the estimate (comparable only within one query).
    pub likelihood: f64,
}

/// Evaluates the synthesis likelihood `L(x)` (eq. 8) for normalized
/// observations.
pub fn likelihood(observations: &[ApObservation], x: Point) -> f64 {
    observations
        .iter()
        .map(|o| {
            let theta = o.pose.bearing_to(x);
            o.spectrum.sample(theta).max(LIKELIHOOD_FLOOR)
        })
        .product()
}

/// Normalizes all observations' spectra to peak 1 (so no AP dominates by
/// scale) and returns the prepared set.
pub fn normalize_observations(observations: &[ApObservation]) -> Vec<ApObservation> {
    observations
        .iter()
        .map(|o| ApObservation {
            pose: o.pose,
            spectrum: o.spectrum.normalized(),
        })
        .collect()
}

/// Computes the full likelihood heatmap over a region (Fig. 14).
pub fn heatmap(observations: &[ApObservation], region: SearchRegion) -> Heatmap {
    let obs = normalize_observations(observations);
    let (nx, ny) = region.grid_size();
    let mut values = Vec::with_capacity(nx * ny);
    for iy in 0..ny {
        for ix in 0..nx {
            values.push(likelihood(&obs, region.cell_center(ix, iy)));
        }
    }
    Heatmap {
        region,
        values,
        nx,
        ny,
    }
}

/// Full localization: 10 cm grid search, then hill climbing from the three
/// best cells (paper §2.5).
pub fn localize(observations: &[ApObservation], region: SearchRegion) -> LocationEstimate {
    assert!(!observations.is_empty(), "need at least one AP observation");
    let obs = normalize_observations(observations);
    let map = heatmap(&obs, region);
    let starts = map.top_cells(3);
    let mut best = LocationEstimate {
        position: starts[0].0,
        likelihood: starts[0].1,
    };
    for (start, _) in starts {
        let refined = hill_climb(&obs, start, region);
        if refined.likelihood > best.likelihood {
            best = refined;
        }
    }
    best
}

/// Pattern-search hill climbing: evaluate the 8-neighborhood at a step that
/// starts at the grid pitch and halves on failure, until sub-millimeter.
/// Shared with the precomputed [`crate::engine::LocalizationEngine`] so
/// both search paths refine identically from the same starts.
pub(crate) fn hill_climb(
    observations: &[ApObservation],
    start: Point,
    region: SearchRegion,
) -> LocationEstimate {
    let mut pos = start;
    let mut val = likelihood(observations, pos);
    let mut step = region.resolution;
    while step > 5e-4 {
        let mut improved = false;
        for dy in [-1.0, 0.0, 1.0] {
            for dx in [-1.0, 0.0, 1.0] {
                if dx == 0.0 && dy == 0.0 {
                    continue;
                }
                let cand = pt(pos.x + dx * step, pos.y + dy * step);
                if !region.contains(cand) {
                    continue;
                }
                let v = likelihood(observations, cand);
                if v > val {
                    val = v;
                    pos = cand;
                    improved = true;
                }
            }
        }
        if !improved {
            step /= 2.0;
        }
    }
    LocationEstimate {
        position: pos,
        likelihood: val,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_channel::geometry::angle_diff;
    use std::f64::consts::TAU;

    /// A spectrum with a single Gaussian lobe at `deg` degrees.
    fn lobe(deg: f64, width: f64) -> AoaSpectrum {
        AoaSpectrum::from_fn(720, |t| {
            let d = angle_diff(t, deg.to_radians());
            (-(d / width).powi(2)).exp() + 1e-6
        })
    }

    /// An observation whose spectrum points exactly at `target`.
    fn observing(center: Point, axis: f64, target: Point) -> ApObservation {
        let pose = ApPose {
            center,
            axis_angle: axis,
        };
        let theta = pose.bearing_to(target);
        ApObservation {
            pose,
            spectrum: lobe(theta.to_degrees(), 0.05),
        }
    }

    #[test]
    fn bearing_accounts_for_axis_rotation() {
        let pose = ApPose {
            center: pt(0.0, 0.0),
            axis_angle: TAU / 4.0,
        };
        // A point due +y is at bearing 0 in the rotated frame.
        assert!(pose.bearing_to(pt(0.0, 5.0)).abs() < 1e-12);
    }

    #[test]
    fn two_aps_triangulate() {
        let target = pt(6.0, 4.0);
        let obs = vec![
            observing(pt(0.0, 0.0), 0.0, target),
            observing(pt(12.0, 0.0), 0.0, target),
        ];
        let region = SearchRegion::new(pt(0.0, 0.0), pt(12.0, 10.0));
        let est = localize(&obs, region);
        assert!(
            est.position.distance(target) < 0.05,
            "estimate {:?} vs target {target:?}",
            est.position
        );
    }

    #[test]
    fn three_aps_beat_two_with_symmetric_ghosts() {
        // Without symmetry removal, spectra are mirrored; ghosts can fool
        // two APs but a third disambiguates.
        let target = pt(5.0, 3.0);
        let mirror = |o: &ApObservation| {
            // Mirror-symmetric spectrum: add the reflected lobe.
            let theta = o.pose.bearing_to(target);
            let spec = AoaSpectrum::from_fn(720, |t| {
                let d1 = angle_diff(t, theta);
                let d2 = angle_diff(t, TAU - theta);
                (-(d1 / 0.05).powi(2)).exp() + (-(d2 / 0.05).powi(2)).exp() + 1e-6
            });
            ApObservation {
                pose: o.pose,
                spectrum: spec,
            }
        };
        let o1 = mirror(&observing(pt(0.0, 0.0), 0.0, target));
        let o2 = mirror(&observing(pt(10.0, 0.0), 0.0, target));
        let o3 = mirror(&observing(pt(5.0, 8.0), 1.0, target));
        let region = SearchRegion::new(pt(-1.0, -7.0), pt(11.0, 9.0));
        let est3 = localize(&[o1, o2, o3], region);
        assert!(
            est3.position.distance(target) < 0.1,
            "3-AP estimate {:?}",
            est3.position
        );
    }

    #[test]
    fn heatmap_peak_matches_localize() {
        let target = pt(3.0, 2.0);
        let obs = vec![
            observing(pt(0.0, 0.0), 0.3, target),
            observing(pt(8.0, 1.0), 2.0, target),
            observing(pt(4.0, 7.0), 4.0, target),
        ];
        let region = SearchRegion::new(pt(0.0, 0.0), pt(8.0, 7.0));
        let map = heatmap(&obs, region);
        let (top, _) = map.top_cells(1)[0];
        assert!(top.distance(target) < 0.2);
        let est = localize(&obs, region);
        assert!(est.position.distance(target) < 0.05);
        assert!(est.likelihood >= map.top_cells(1)[0].1 * 0.999);
    }

    #[test]
    fn hill_climbing_refines_below_grid_resolution() {
        let target = pt(3.033, 2.047); // off-grid target
        let obs = vec![
            observing(pt(0.0, 0.0), 0.0, target),
            observing(pt(8.0, 0.0), 0.0, target),
            observing(pt(4.0, 7.0), 0.0, target),
        ];
        let region = SearchRegion::new(pt(0.0, 0.0), pt(8.0, 7.0));
        let est = localize(&obs, region);
        // Sub-resolution accuracy thanks to hill climbing.
        assert!(est.position.distance(target) < 0.04, "{:?}", est.position);
    }

    #[test]
    fn likelihood_floor_prevents_hard_zeros() {
        let pose = ApPose {
            center: pt(0.0, 0.0),
            axis_angle: 0.0,
        };
        let mut spec = lobe(90.0, 0.05);
        for v in spec.values_mut().iter_mut() {
            *v = 0.0; // fully zeroed spectrum (e.g. aggressive removal)
        }
        // from_values forbids zeros? No: zeros are allowed, peaks aren't.
        let obs = vec![ApObservation {
            pose,
            spectrum: spec,
        }];
        let l = likelihood(&normalize_observations(&obs), pt(1.0, 1.0));
        assert!(l > 0.0);
    }

    #[test]
    fn grid_geometry() {
        let region = SearchRegion::new(pt(0.0, 0.0), pt(1.0, 0.5)).with_resolution(0.25);
        let (nx, ny) = region.grid_size();
        assert_eq!((nx, ny), (5, 3));
        assert_eq!(region.cell_center(0, 0), pt(0.0, 0.0));
        assert_eq!(region.cell_center(4, 2), pt(1.0, 0.5));
        assert!(region.contains(pt(0.5, 0.25)));
        assert!(!region.contains(pt(1.5, 0.25)));
    }

    #[test]
    #[should_panic(expected = "at least one AP")]
    fn empty_observations_panic() {
        localize(&[], SearchRegion::new(pt(0.0, 0.0), pt(1.0, 1.0)));
    }
}
