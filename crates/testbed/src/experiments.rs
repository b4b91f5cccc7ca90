//! Shared experiment machinery: per-client spectra, AP-subset sweeps, and
//! the localization loops behind Figures 13, 15, 16 and 18.
//!
//! The paper's methodology (§4): one physical AP was moved between six
//! positions, so localization error is reported "across all different AP
//! combinations and all 41 clients". We reproduce that by computing one
//! spectrum per (client, AP) pair and then fusing every AP subset of the
//! requested sizes.

use crate::deployment::{parallel_map, CaptureConfig, Deployment};
use crate::metrics::ErrorStats;
use at_channel::geometry::Point;
use at_channel::Transmitter;
use at_core::engine::LocalizationEngine;
use at_core::pipeline::{process_frame_group, ApPipelineConfig};
use at_core::suppression::SuppressionConfig;
use at_core::synthesis::ApPose;
use at_core::AoaSpectrum;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Full experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Capture settings (snapshots, noise, antennas).
    pub capture: CaptureConfig,
    /// Per-AP pipeline settings (weighting/symmetry/MUSIC).
    pub pipeline: ApPipelineConfig,
    /// Frames per (client, AP): 1 = static (Fig. 13), ≥2 enables multipath
    /// suppression (Fig. 15's semi-static data uses 3).
    pub frames: usize,
    /// Client movement between frames, meters (paper: < 5 cm).
    pub jitter: f64,
    /// Localization grid pitch, meters (paper: 0.1; coarser is faster and
    /// hill climbing recovers the difference).
    pub grid_step: f64,
    /// Transmitter template (height/polarization knobs for Fig. 18).
    pub tx: Transmitter,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for the sweep.
    pub threads: usize,
}

impl ExperimentConfig {
    /// The paper's full-pipeline configuration.
    pub fn arraytrack(seed: u64) -> Self {
        Self {
            capture: CaptureConfig::default(),
            pipeline: ApPipelineConfig::arraytrack(8),
            frames: 3,
            jitter: 0.05,
            grid_step: 0.2,
            tx: Transmitter::at(at_channel::geometry::pt(0.0, 0.0)),
            seed,
            threads: default_threads(),
        }
    }

    /// The unoptimized raw-spectrum configuration (Fig. 13 / the
    /// "(without optimization)" curves).
    pub fn unoptimized(seed: u64) -> Self {
        let mut cfg = Self::arraytrack(seed);
        cfg.pipeline = ApPipelineConfig::unoptimized(8);
        cfg.capture.offrow = false;
        cfg.frames = 1;
        cfg
    }
}

/// Picks a sensible worker count.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Computes the processed AoA spectrum for every (client, AP) pair:
/// `result[client][ap]`.
pub fn compute_all_spectra(dep: &Deployment, cfg: &ExperimentConfig) -> Vec<Vec<AoaSpectrum>> {
    let clients = dep.clients.clone();
    parallel_map(&clients, cfg.threads, |ci, &client| {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (1000 + ci as u64));
        (0..dep.aps.len())
            .map(|ap| compute_spectrum(dep, ap, client, cfg, &mut rng))
            .collect()
    })
}

/// Computes one client's processed spectrum at one AP.
pub fn compute_spectrum<R: rand::Rng>(
    dep: &Deployment,
    ap_idx: usize,
    client: Point,
    cfg: &ExperimentConfig,
    rng: &mut R,
) -> AoaSpectrum {
    let tx = Transmitter {
        position: client,
        ..cfg.tx
    };
    let blocks = dep.capture_frame_group(
        ap_idx,
        client,
        &tx,
        &cfg.capture,
        cfg.frames,
        cfg.jitter,
        rng,
    );
    process_frame_group(&blocks, &cfg.pipeline, &SuppressionConfig::default())
}

/// All `k`-element subsets of `0..n` (the AP combinations of §4.1).
pub fn ap_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    fn rec(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..n {
            cur.push(i);
            rec(i + 1, n, k, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    rec(0, n, k, &mut Vec::new(), &mut out);
    out
}

/// Builds the reusable localization engine for a deployment at the given
/// grid pitch: every (client, AP-subset) query of a sweep shares one set of
/// precomputed bearing grids.
pub fn localization_engine(dep: &Deployment, grid_step: f64, bins: usize) -> LocalizationEngine {
    let poses: Vec<ApPose> = dep.aps.iter().map(|ap| ap.pose).collect();
    let region = dep.search_region().with_resolution(grid_step);
    LocalizationEngine::new(&poses, region, bins)
}

/// Localizes one client from a subset of its per-AP spectra.
///
/// This is the exhaustive reference path; the sweeps go through
/// [`localization_engine`] instead (same result, precomputed geometry).
#[cfg(test)]
pub(crate) fn localize_subset(
    dep: &Deployment,
    spectra: &[AoaSpectrum],
    subset: &[usize],
    region: at_core::synthesis::SearchRegion,
) -> Point {
    use at_core::synthesis::{localize, ApObservation};
    let obs: Vec<ApObservation> = subset
        .iter()
        .map(|&ap| ApObservation {
            pose: dep.aps[ap].pose,
            spectrum: spectra[ap].clone(),
        })
        .collect();
    localize(&obs, region).position
}

/// Runs the full localization sweep: for each subset size in `sizes`,
/// localizes every client with every AP subset of that size and collects
/// the error distribution. This is the engine behind Figs. 13 and 15.
pub fn localization_sweep(
    dep: &Deployment,
    spectra: &[Vec<AoaSpectrum>],
    sizes: &[usize],
    grid_step: f64,
    threads: usize,
) -> BTreeMap<usize, ErrorStats> {
    let bins = spectra
        .first()
        .and_then(|s| s.first())
        .map_or(720, AoaSpectrum::bins);
    // The static geometry work (bearings from every AP to every grid cell)
    // is shared by all (client, subset) queries of the sweep.
    let engine = localization_engine(dep, grid_step, bins);
    let mut out = BTreeMap::new();
    for &k in sizes {
        let subsets = ap_subsets(dep.aps.len(), k);
        // One work item per (client, subset).
        let work: Vec<(usize, &Vec<usize>)> = (0..dep.clients.len())
            .flat_map(|ci| subsets.iter().map(move |s| (ci, s)))
            .collect();
        let errors = parallel_map(&work, threads, |_, &(ci, subset)| {
            let obs: Vec<(usize, &AoaSpectrum)> =
                subset.iter().map(|&ap| (ap, &spectra[ci][ap])).collect();
            let est = engine.localize(&obs).position;
            est.distance(dep.clients[ci])
        });
        out.insert(k, ErrorStats::new(errors));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_channel::geometry::pt;

    #[test]
    fn subsets_counted_correctly() {
        assert_eq!(ap_subsets(6, 3).len(), 20);
        assert_eq!(ap_subsets(6, 4).len(), 15);
        assert_eq!(ap_subsets(6, 5).len(), 6);
        assert_eq!(ap_subsets(6, 6).len(), 1);
        assert_eq!(ap_subsets(4, 1), vec![vec![0], vec![1], vec![2], vec![3]]);
        // Subsets are sorted and unique.
        for s in ap_subsets(6, 3) {
            assert!(s.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn free_space_client_localized_accurately() {
        let dep = Deployment::free_space(21);
        let mut cfg = ExperimentConfig::arraytrack(21);
        cfg.frames = 1; // free space: no multipath to suppress
        let client = pt(22.0, 13.0);
        let mut rng = StdRng::seed_from_u64(100);
        let spectra: Vec<AoaSpectrum> = (0..6)
            .map(|ap| compute_spectrum(&dep, ap, client, &cfg, &mut rng))
            .collect();
        let region = dep.search_region().with_resolution(0.2);
        let est = localize_subset(&dep, &spectra, &[0, 1, 2, 3, 4, 5], region);
        assert!(
            est.distance(client) < 0.3,
            "free-space 6-AP error {}",
            est.distance(client)
        );
    }

    #[test]
    fn engine_sweep_matches_reference_localization() {
        // The engine path the sweeps use must agree with the exhaustive
        // reference on real captured spectra, for every subset shape.
        let dep = Deployment::free_space(29);
        let mut cfg = ExperimentConfig::arraytrack(29);
        cfg.frames = 1;
        let client = pt(18.0, 9.0);
        let mut rng = StdRng::seed_from_u64(300);
        let spectra: Vec<AoaSpectrum> = (0..6)
            .map(|ap| compute_spectrum(&dep, ap, client, &cfg, &mut rng))
            .collect();
        let region = dep.search_region().with_resolution(0.2);
        let engine = localization_engine(&dep, 0.2, 720);
        for subset in [vec![0usize, 1, 2], vec![0, 2, 4, 5], vec![0, 1, 2, 3, 4, 5]] {
            let legacy = localize_subset(&dep, &spectra, &subset, region);
            let obs: Vec<(usize, &AoaSpectrum)> =
                subset.iter().map(|&ap| (ap, &spectra[ap])).collect();
            let fast = engine.localize(&obs).position;
            assert!(
                fast.distance(legacy) < 1e-3,
                "subset {subset:?}: engine {fast:?} vs reference {legacy:?}"
            );
        }
    }

    #[test]
    fn office_client_localized_with_office_accuracy() {
        // One in-office client end-to-end; looser bound than free space,
        // but must land in the right neighborhood (the full-population
        // statistics are exercised by the fig13/fig15 experiment binaries).
        let dep = Deployment::office(23);
        let cfg = ExperimentConfig::arraytrack(23);
        let client = dep.clients[4];
        let mut rng = StdRng::seed_from_u64(200);
        let spectra: Vec<AoaSpectrum> = (0..6)
            .map(|ap| compute_spectrum(&dep, ap, client, &cfg, &mut rng))
            .collect();
        let region = dep.search_region().with_resolution(0.2);
        let est = localize_subset(&dep, &spectra, &[0, 1, 2, 3, 4, 5], region);
        assert!(
            est.distance(client) < 2.0,
            "office 6-AP error {}",
            est.distance(client)
        );
    }
}
