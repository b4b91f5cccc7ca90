//! RSSI localization baselines (paper §5's comparators).
//!
//! Two classic lines of RSS work frame ArrayTrack's contribution:
//!
//! - **Model-based** (TIX, Lim et al.): fit a log-distance path-loss model
//!   to whole-dB RSS readings and trilaterate — meters of error.
//! - **Map-based** (RADAR, Horus): fingerprint RSS vectors on a training
//!   grid and return the nearest neighbor in signal space — calibration
//!   effort for ~0.6 m–3 m accuracy.
//!
//! Both consume the same simulated channel as ArrayTrack, so the
//! comparison isolates the algorithms rather than the propagation model.

use crate::deployment::{CaptureConfig, Deployment};
use at_channel::geometry::{pt, Point};
use rand::Rng;

/// Log-distance path-loss trilateration.
///
/// Model: `RSS(d) = RSS₀ − 10·n·log₁₀(d/d₀)`. The exponent and intercept
/// are fit per deployment from a handful of reference measurements, then a
/// grid search minimizes the squared RSS residual (equivalent to a
/// Gaussian-noise ML estimate).
#[derive(Clone, Debug)]
pub struct LogDistanceModel {
    /// RSS at the 1 m reference distance, dB.
    pub rss0: f64,
    /// Path-loss exponent `n`.
    pub exponent: f64,
}

impl LogDistanceModel {
    /// Fits the model by least squares over `(distance, rss)` pairs.
    ///
    /// # Panics
    /// Panics with fewer than two samples or non-positive distances.
    pub(crate) fn fit(samples: &[(f64, f64)]) -> Self {
        assert!(samples.len() >= 2, "need at least two samples to fit");
        assert!(samples.iter().all(|(d, _)| *d > 0.0));
        // Linear regression of rss on x = -10·log10(d).
        let xs: Vec<f64> = samples.iter().map(|(d, _)| -10.0 * d.log10()).collect();
        let ys: Vec<f64> = samples.iter().map(|(_, r)| *r).collect();
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let var: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        let exponent = if var > 0.0 { cov / var } else { 2.0 };
        let rss0 = my - exponent * mx; // intercept at x = 0 (d = 1 m)
        Self { rss0, exponent }
    }

    /// Predicted RSS at distance `d` meters.
    pub(crate) fn predict(&self, d: f64) -> f64 {
        self.rss0 - 10.0 * self.exponent * d.max(0.1).log10()
    }
}

/// Fits a log-distance model to a deployment using reference probes on a
/// coarse grid (the "calibration-free" flavor fits from the model itself).
pub fn fit_path_loss(dep: &Deployment, cfg: &CaptureConfig) -> LogDistanceModel {
    let mut samples = Vec::new();
    let probes = [
        pt(6.0, 12.0),
        pt(16.0, 8.0),
        pt(24.0, 16.0),
        pt(32.0, 8.0),
        pt(42.0, 12.0),
        pt(24.0, 3.0),
        pt(12.0, 21.0),
        pt(40.0, 21.0),
    ];
    for (i, ap) in dep.aps.iter().enumerate() {
        for p in probes {
            let d = ap.pose.center.distance(p).max(0.5);
            samples.push((d, dep.rss_db(i, p, cfg)));
        }
    }
    LogDistanceModel::fit(&samples)
}

/// Localizes a client by trilateration: grid search minimizing the squared
/// residual between measured and model-predicted RSS at every AP.
pub fn trilaterate(
    dep: &Deployment,
    model: &LogDistanceModel,
    measured_rss: &[f64],
    grid_step: f64,
) -> Point {
    assert_eq!(measured_rss.len(), dep.aps.len());
    let mut best = pt(0.0, 0.0);
    let mut best_cost = f64::INFINITY;
    let (w, h) = (crate::office::WIDTH, crate::office::DEPTH);
    let nx = (w / grid_step) as usize + 1;
    let ny = (h / grid_step) as usize + 1;
    for iy in 0..ny {
        for ix in 0..nx {
            let p = pt(ix as f64 * grid_step, iy as f64 * grid_step);
            let cost: f64 = dep
                .aps
                .iter()
                .zip(measured_rss)
                .map(|(ap, &rss)| {
                    let d = ap.pose.center.distance(p).max(0.5);
                    let e = rss - model.predict(d);
                    e * e
                })
                .sum();
            if cost < best_cost {
                best_cost = cost;
                best = p;
            }
        }
    }
    best
}

/// A RADAR-style RSS fingerprint database.
#[derive(Clone, Debug)]
pub struct FingerprintDb {
    /// Training positions.
    positions: Vec<Point>,
    /// RSS vector (one entry per AP) at each training position.
    fingerprints: Vec<Vec<f64>>,
}

impl FingerprintDb {
    /// Builds the database by war-walking a `grid_step` training grid
    /// (this is exactly the "large amounts of calibration" the paper holds
    /// against map-based systems).
    pub fn build(dep: &Deployment, cfg: &CaptureConfig, grid_step: f64) -> Self {
        let mut positions = Vec::new();
        let mut fingerprints = Vec::new();
        let (w, h) = (crate::office::WIDTH, crate::office::DEPTH);
        let nx = (w / grid_step) as usize;
        let ny = (h / grid_step) as usize;
        for iy in 1..=ny {
            for ix in 1..=nx {
                let p = pt(
                    ix as f64 * grid_step - grid_step / 2.0,
                    iy as f64 * grid_step - grid_step / 2.0,
                );
                if p.x >= w || p.y >= h {
                    continue;
                }
                positions.push(p);
                fingerprints.push((0..dep.aps.len()).map(|i| dep.rss_db(i, p, cfg)).collect());
            }
        }
        Self {
            positions,
            fingerprints,
        }
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Nearest-neighbor lookup in signal space; `k` neighbors are averaged
    /// (RADAR uses k-NN with small k).
    pub fn localize(&self, measured_rss: &[f64], k: usize) -> Point {
        assert!(!self.is_empty(), "empty fingerprint database");
        let k = k.max(1).min(self.len());
        let mut scored: Vec<(f64, usize)> = self
            .fingerprints
            .iter()
            .enumerate()
            .map(|(i, fp)| {
                let d2: f64 = fp
                    .iter()
                    .zip(measured_rss)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                (d2, i)
            })
            .collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
        let mut acc = pt(0.0, 0.0);
        for &(_, i) in scored.iter().take(k) {
            acc = acc.add(self.positions[i]);
        }
        acc.scale(1.0 / k as f64)
    }
}

/// Measures a client's RSS vector with per-reading Gaussian noise of
/// `sigma_db` (shadowing + device variation), quantized to whole dB.
pub fn measure_rss<R: Rng>(
    dep: &Deployment,
    position: Point,
    cfg: &CaptureConfig,
    sigma_db: f64,
    rng: &mut R,
) -> Vec<f64> {
    (0..dep.aps.len())
        .map(|i| {
            let clean = dep.rss_db(i, position, cfg);
            let u1: f64 = 1.0 - rng.gen::<f64>();
            let u2: f64 = rng.gen();
            let gauss = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            (clean + gauss * sigma_db).round()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn log_distance_fit_recovers_exponent() {
        // Synthetic data from a known model: rss = -30 - 10·2.2·log10(d).
        let samples: Vec<(f64, f64)> = (1..20)
            .map(|i| {
                let d = i as f64;
                (d, -30.0 - 22.0 * d.log10())
            })
            .collect();
        let m = LogDistanceModel::fit(&samples);
        assert!((m.exponent - 2.2).abs() < 0.01, "{}", m.exponent);
        assert!((m.rss0 + 30.0).abs() < 0.1, "{}", m.rss0);
        assert!((m.predict(10.0) - (-52.0)).abs() < 0.1);
    }

    #[test]
    fn free_space_fit_is_near_exponent_two() {
        let dep = Deployment::free_space(1);
        let cfg = CaptureConfig::default();
        let m = fit_path_loss(&dep, &cfg);
        assert!((m.exponent - 2.0).abs() < 0.3, "exponent {}", m.exponent);
    }

    #[test]
    fn trilateration_finds_free_space_client_roughly() {
        let dep = Deployment::free_space(2);
        let cfg = CaptureConfig::default();
        let model = fit_path_loss(&dep, &cfg);
        let client = pt(20.0, 12.0);
        let rss: Vec<f64> = (0..6).map(|i| dep.rss_db(i, client, &cfg)).collect();
        let est = trilaterate(&dep, &model, &rss, 0.5);
        // Whole-dB quantization alone already costs meters of accuracy.
        assert!(est.distance(client) < 4.0, "error {}", est.distance(client));
    }

    #[test]
    fn fingerprint_db_localizes_training_point_exactly() {
        let dep = Deployment::office(3);
        let cfg = CaptureConfig::default();
        let db = FingerprintDb::build(&dep, &cfg, 4.0);
        assert!(db.len() > 50);
        // Query with a noiseless fingerprint of a training point.
        let target = pt(10.0, 10.0); // grid point for step 4.0
        let rss: Vec<f64> = (0..6).map(|i| dep.rss_db(i, target, &cfg)).collect();
        let est = db.localize(&rss, 1);
        assert!(est.distance(target) < 3.0, "error {}", est.distance(target));
    }

    #[test]
    fn measured_rss_is_noisy_but_close() {
        let dep = Deployment::free_space(4);
        let cfg = CaptureConfig::default();
        let mut rng = StdRng::seed_from_u64(5);
        let p = pt(15.0, 9.0);
        let noisy = measure_rss(&dep, p, &cfg, 2.0, &mut rng);
        for (i, r) in noisy.iter().enumerate() {
            let clean = dep.rss_db(i, p, &cfg);
            assert!((r - clean).abs() < 10.0, "ap {i}: {r} vs {clean}");
            assert_eq!(*r, r.round());
        }
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn fit_needs_samples() {
        LogDistanceModel::fit(&[(1.0, -30.0)]);
    }
}
