//! The per-AP processing pipeline and the ArrayTrack server.
//!
//! Mirrors Figure 1's information flow: captured snapshots → MUSIC AoA
//! spectrum (§2.3) with spatial smoothing (§2.3.2) → array geometry
//! weighting (§2.3.3) → array symmetry removal (§2.3.4) → multipath
//! suppression across frames (§2.4) → spectra synthesis across APs (§2.5).
//! Every stage can be toggled, which is how the evaluation's
//! optimized-vs-unoptimized comparisons (Figs. 13/15) and the ablation
//! bench are expressed.

use crate::engine::{LocalizationEngine, LocalizeScratch};
use crate::health::{ApStatus, HealthPolicy, HealthTracker, LocalizeError};
use crate::music::{music_into, MusicConfig, MusicScratch};
use crate::spectrum::{AoaSpectrum, BinPeak};
use crate::suppression::{suppress_multipath, SuppressionConfig};
use crate::symmetry::{remove_symmetry, resolve_mirror_peaks_with};
use crate::synthesis::{ApObservation, ApPose, LocationEstimate, SearchRegion};
use crate::weighting::{apply_geometry_weighting, confidence_weighted};
use at_dsp::SnapshotBlock;
use at_linalg::CMatrix;
use std::cell::RefCell;

/// How the §2.3.4 mirror ambiguity is resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SymmetryMode {
    /// Leave the mirrored 360° spectrum as-is (the Fig. 13 baseline).
    Off,
    /// The paper's literal rule: zero the half-circle with less total
    /// power. Fragile in strong multipath (a ghost-side reflection can
    /// erase the direct path); kept for the ablation bench.
    WholeSide,
    /// Per-peak resolution from the off-row antenna's phase (the default;
    /// see `symmetry::resolve_mirror_peaks`).
    PerPeak,
}

/// Per-AP pipeline configuration.
#[derive(Clone, Copy, Debug)]
pub struct ApPipelineConfig {
    /// Number of in-row array elements (the MUSIC aperture).
    pub elements: usize,
    /// MUSIC estimator settings.
    pub music: MusicConfig,
    /// Apply the `W(θ)` geometry window (§2.3.3).
    pub weighting: bool,
    /// Mirror-ambiguity handling (§2.3.4). Any mode other than `Off`
    /// requires blocks to carry `elements + 1` rows, the last being the
    /// off-row antenna.
    pub symmetry: SymmetryMode,
}

impl ApPipelineConfig {
    /// The paper's full ArrayTrack configuration for `elements` antennas.
    pub fn arraytrack(elements: usize) -> Self {
        Self {
            elements,
            music: MusicConfig::default(),
            weighting: true,
            symmetry: SymmetryMode::PerPeak,
        }
    }

    /// The "unoptimized raw AoA" configuration used as the baseline in
    /// Figs. 13/15: MUSIC + smoothing only.
    pub fn unoptimized(elements: usize) -> Self {
        Self {
            elements,
            music: MusicConfig::default(),
            weighting: false,
            symmetry: SymmetryMode::Off,
        }
    }

    /// Whether the capture must include the off-row antenna row.
    pub(crate) fn needs_offrow(&self) -> bool {
        self.symmetry != SymmetryMode::Off
    }
}

/// The frame path's reusable workspace: the in-row correlation matrix,
/// every MUSIC intermediate and the symmetry pass's peak list.
///
/// [`process_frame`] runs in a per-thread instance, so once the workspace
/// has grown to the frame shape a frame allocates only the spectrum it
/// returns.
#[derive(Clone, Debug, Default)]
pub(crate) struct FrameScratch {
    rxx: CMatrix,
    music: MusicScratch,
    pub(crate) peaks: Vec<BinPeak>,
}

thread_local! {
    static FRAME_SCRATCH: RefCell<FrameScratch> = RefCell::default();
}

/// Runs `f` with the calling thread's frame workspace, falling back to a
/// fresh one under re-entrancy rather than panicking.
pub(crate) fn with_frame_scratch<R>(f: impl FnOnce(&mut FrameScratch) -> R) -> R {
    FRAME_SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut FrameScratch::default()),
    })
}

/// Processes one captured frame into an AoA spectrum.
///
/// The block must hold `elements` rows (plus one off-row row if symmetry
/// resolution is enabled).
pub fn process_frame(block: &SnapshotBlock, cfg: &ApPipelineConfig) -> AoaSpectrum {
    let _t = at_obs::time_stage!(at_obs::stages::SPECTRUM, "elements" => cfg.elements);
    let expected = cfg.elements + usize::from(cfg.needs_offrow());
    assert_eq!(
        block.antennas(),
        expected,
        "block has {} rows, config expects {expected}",
        block.antennas()
    );
    with_frame_scratch(|scratch| {
        // MUSIC on the in-row antennas only.
        block.correlation_matrix_into(cfg.elements, &mut scratch.rxx);
        let mut values = Vec::new();
        music_into(&scratch.rxx, &cfg.music, &mut scratch.music, &mut values);
        let mut spectrum = AoaSpectrum::from_values(values);
        if cfg.weighting {
            apply_geometry_weighting(&mut spectrum);
        }
        match cfg.symmetry {
            SymmetryMode::Off => {}
            SymmetryMode::WholeSide => {
                remove_symmetry(&mut spectrum, block, cfg.elements);
            }
            SymmetryMode::PerPeak => {
                resolve_mirror_peaks_with(&mut spectrum, block, cfg.elements, &mut scratch.peaks);
            }
        }
        spectrum
    })
}

/// Processes a group of temporally-adjacent frames from one client at one
/// AP: per-frame spectra, then multipath suppression (§2.4).
pub fn process_frame_group(
    blocks: &[SnapshotBlock],
    cfg: &ApPipelineConfig,
    suppression: &SuppressionConfig,
) -> AoaSpectrum {
    assert!(!blocks.is_empty(), "need at least one frame");
    let spectra: Vec<AoaSpectrum> = blocks.iter().map(|b| process_frame(b, cfg)).collect();
    suppress_multipath(&spectra, suppression)
}

/// One observation entering policy-gated fusion against a shared
/// [`LocalizationEngine`].
///
/// This is the engine-shared form of what
/// [`ArrayTrackServer::try_localize`] consumes internally: the networked
/// location service keeps *one* engine per deployment and runs every
/// query through [`fuse_with_scratch`], getting results bit-identical to
/// an in-process server built from the same submissions.
#[derive(Clone, Copy, Debug)]
pub struct FusedObservation<'a> {
    /// Index of the producing AP in the engine's pose table.
    pub pose_idx: usize,
    /// The processed AoA spectrum.
    pub spectrum: &'a AoaSpectrum,
    /// Deployment AP identity for health lookups (`None` = anonymous,
    /// always trusted — the legacy `add_observation` path).
    pub ap_id: Option<usize>,
    /// Spectrum age in server refresh intervals (0 = fresh).
    pub age: u64,
}

/// The survivors of policy filtering, ready for the engine sweep:
/// indices into the planned observation slice plus their confidence
/// weights.
///
/// Reusable: [`plan_fusion_indexed`] clears and refills the same plan, so
/// a serving thread plans query after query without reallocating.
#[derive(Clone, Debug, Default)]
pub struct FusionPlan {
    picked: Vec<(usize, f64)>,
}

impl FusionPlan {
    /// Number of observations that survived filtering.
    pub fn fused(&self) -> usize {
        self.picked.len()
    }
}

/// Reusable workspace for one fusion query: the [`FusionPlan`], owned
/// storage for tempered (degraded-AP) spectra, and the engine's
/// [`LocalizeScratch`]. One of these per serving thread (or per
/// [`ArrayTrackServer`]) makes the warm localize path allocation-free end
/// to end.
#[derive(Clone, Debug, Default)]
pub struct FusionScratch {
    plan: FusionPlan,
    tempered: Vec<Option<AoaSpectrum>>,
    engine: LocalizeScratch,
}

/// Filters and weights observations under the degradation policy, without
/// touching an engine: resolution check against `expected_bins`, then the
/// stale / degenerate / down drops and degraded-AP tempering documented on
/// [`ArrayTrackServer::try_localize`], then the quorum gate.
///
/// Observations are supplied as `get(i)` for `i < n` and the survivors
/// land in the caller's reusable `plan` (cleared first, even on error).
/// Callers holding a deployment-wide engine pass `engine.bins()`;
/// [`ArrayTrackServer::try_localize`] passes its first observation's
/// resolution (identical semantics — its engine is built with that
/// resolution).
pub fn plan_fusion_indexed<'a, F>(
    n: usize,
    get: &F,
    expected_bins: usize,
    health: &HealthTracker,
    policy: &HealthPolicy,
    plan: &mut FusionPlan,
) -> Result<(), LocalizeError>
where
    F: Fn(usize) -> FusedObservation<'a>,
{
    plan.picked.clear();
    if n == 0 {
        return Err(LocalizeError::NoObservations);
    }
    for i in 0..n {
        let o = get(i);
        if o.spectrum.bins() != expected_bins {
            return Err(LocalizeError::ResolutionMismatch {
                observation: i,
                bins: o.spectrum.bins(),
                expected: expected_bins,
            });
        }
    }

    let (mut stale, mut down, mut degenerate) = (0usize, 0usize, 0usize);
    for i in 0..n {
        let o = get(i);
        if policy.is_stale(o.age) {
            stale += 1;
            at_obs::count!("at_observations_dropped_total", "reason" => "stale");
            continue;
        }
        if o.spectrum.max_value() == 0.0 {
            degenerate += 1;
            at_obs::count!("at_observations_dropped_total", "reason" => "degenerate");
            continue;
        }
        let status = o
            .ap_id
            .map_or(ApStatus::Healthy, |ap| health.status(ap, policy));
        match status {
            ApStatus::Down => {
                down += 1;
                at_obs::count!("at_observations_dropped_total", "reason" => "down");
            }
            ApStatus::Degraded => {
                at_obs::count!("at_observations_fused_total", "health" => "degraded");
                plan.picked.push((i, policy.degraded_weight));
            }
            ApStatus::Healthy => {
                at_obs::count!("at_observations_fused_total", "health" => "healthy");
                plan.picked.push((i, 1.0));
            }
        }
    }

    let required = policy.min_quorum.max(1);
    if plan.picked.len() < required {
        let available = plan.picked.len();
        plan.picked.clear();
        return Err(LocalizeError::QuorumNotMet {
            available,
            required,
            stale,
            down,
            degenerate,
        });
    }
    Ok(())
}

/// One policy-gated localize query against a shared engine — the single
/// fusion entry point behind [`ArrayTrackServer::try_localize`] and the
/// networked service: plan with [`plan_fusion_indexed`], then run the
/// survivors through the engine sweep, in a caller-owned workspace.
///
/// Observations are supplied as `get(i)` for `i < n`, so no query-shaped
/// vector is built. Tempered (degraded) spectra get owned storage;
/// full-trust spectra are borrowed as-is, so an all-healthy plan is
/// byte-identical to calling [`LocalizationEngine::localize`] on the raw
/// spectra. Once the [`FusionScratch`] has warmed to the query shape,
/// repeat queries allocate nothing beyond degraded-spectrum tempering.
pub fn fuse_with_scratch<'a, F>(
    engine: &LocalizationEngine,
    n: usize,
    get: &F,
    health: &HealthTracker,
    policy: &HealthPolicy,
    scratch: &mut FusionScratch,
) -> Result<LocationEstimate, LocalizeError>
where
    F: Fn(usize) -> FusedObservation<'a>,
{
    let FusionScratch {
        plan,
        tempered,
        engine: engine_scratch,
    } = scratch;
    plan_fusion_indexed(n, get, engine.bins(), health, policy, plan)?;
    tempered.clear();
    tempered.resize(plan.picked.len(), None);
    for (slot, &(i, w)) in tempered.iter_mut().zip(&plan.picked) {
        if w < 1.0 {
            *slot = Some(confidence_weighted(get(i).spectrum, w));
        }
    }
    let tempered: &[Option<AoaSpectrum>] = tempered;
    let get_spec = |j: usize| {
        let (i, _) = plan.picked[j];
        let o = get(i);
        (o.pose_idx, tempered[j].as_ref().unwrap_or(o.spectrum))
    };
    Ok(engine.localize_indexed(plan.picked.len(), &get_spec, engine_scratch))
}

/// Submission metadata carried alongside each observation/// Submission metadata carried alongside each observation: which
/// deployment AP produced it (for health tracking) and how old it is.
#[derive(Clone, Copy, Debug)]
struct ObservationMeta {
    /// Deployment AP index, when known. Anonymous observations (the legacy
    /// [`ArrayTrackServer::add_observation`] path) are always trusted.
    ap_id: Option<usize>,
    /// Spectrum age in server refresh intervals (0 = fresh).
    age: u64,
}

/// The central ArrayTrack server: accumulates per-AP spectra for a client
/// and produces a location estimate (Fig. 1's right half).
///
/// The server keeps a [`LocalizationEngine`] keyed to the current AP poses
/// and spectrum resolution: the first `localize` call after a deployment
/// change pays the bearing-grid precomputation, every later call (the
/// steady state — one query per client per refresh interval) reuses it.
///
/// # Graceful degradation
///
/// Production deployments lose APs, antennas, and calibration; the server
/// keeps localizing through [`ArrayTrackServer::try_localize`]:
///
/// - observations submitted with [`ArrayTrackServer::add_observation_from`]
///   carry an AP identity and age; acquisition failures reported through
///   [`ArrayTrackServer::report_acquisition_failure`] drive a per-AP
///   [`HealthTracker`] (healthy → degraded → down);
/// - fusion drops spectra that are stale (older than the
///   [`HealthPolicy`]'s `max_spectrum_age`), degenerate (all-zero), or
///   from a down AP, and *tempers* degraded APs' spectra with the
///   policy's confidence exponent ([`confidence_weighted`]) so they vote
///   but cannot veto;
/// - if fewer than `min_quorum` APs survive, the server returns a typed
///   [`LocalizeError`] instead of guessing or panicking.
///
/// With every AP healthy and fresh, `try_localize` takes exactly the same
/// engine path as [`ArrayTrackServer::localize`] — bit-identical results
/// (the robustness tier asserts this).
#[derive(Clone, Debug)]
pub struct ArrayTrackServer {
    observations: Vec<ApObservation>,
    meta: Vec<ObservationMeta>,
    region: SearchRegion,
    engine: RefCell<Option<LocalizationEngine>>,
    scratch: RefCell<FusionScratch>,
    policy: HealthPolicy,
    health: HealthTracker,
}

impl ArrayTrackServer {
    /// A server searching the given region, with the default
    /// [`HealthPolicy`].
    pub fn new(region: SearchRegion) -> Self {
        Self {
            observations: Vec::new(),
            meta: Vec::new(),
            region,
            engine: RefCell::new(None),
            scratch: RefCell::default(),
            policy: HealthPolicy::default(),
            health: HealthTracker::default(),
        }
    }

    /// Overrides the degradation policy.
    ///
    /// # Panics
    /// Panics if the policy is internally inconsistent
    /// (see [`HealthPolicy::check`]).
    pub fn with_policy(mut self, policy: HealthPolicy) -> Self {
        if let Err(e) = policy.check() {
            panic!("{e}");
        }
        self.policy = policy;
        self
    }

    /// The active degradation policy.
    pub fn policy(&self) -> &HealthPolicy {
        &self.policy
    }

    /// Adds one AP's processed spectrum (anonymous and fresh: not subject
    /// to health tracking — the legacy single-shot path).
    pub fn add_observation(&mut self, pose: ApPose, spectrum: AoaSpectrum) {
        self.observations.push(ApObservation { pose, spectrum });
        self.meta.push(ObservationMeta {
            ap_id: None,
            age: 0,
        });
    }

    /// Adds a spectrum from deployment AP `ap_id`, `age` refresh intervals
    /// old, and records the successful acquisition in the health tracker.
    pub fn add_observation_from(
        &mut self,
        ap_id: usize,
        pose: ApPose,
        spectrum: AoaSpectrum,
        age: u64,
    ) {
        self.health.report_success(ap_id);
        self.observations.push(ApObservation { pose, spectrum });
        self.meta.push(ObservationMeta {
            ap_id: Some(ap_id),
            age,
        });
    }

    /// Records that spectrum acquisition from AP `ap_id` failed (missed
    /// preamble, timeout, outage). Repeated failures degrade and then
    /// exclude the AP per the [`HealthPolicy`].
    pub fn report_acquisition_failure(&mut self, ap_id: usize) {
        self.health.report_failure(ap_id);
    }

    /// The current health status of deployment AP `ap_id`.
    #[cfg(test)]
    pub(crate) fn ap_status(&self, ap_id: usize) -> ApStatus {
        self.health.status(ap_id, &self.policy)
    }

    /// Forgets all tracked failures (e.g. after a maintenance window).
    #[cfg(test)]
    pub(crate) fn reset_health(&mut self) {
        self.health = HealthTracker::default();
    }

    /// Number of AP observations accumulated.
    #[cfg(test)]
    pub(crate) fn observation_count(&self) -> usize {
        self.observations.len()
    }

    /// Clears accumulated observations (between clients). Health state is
    /// deliberately retained: AP failures persist across clients.
    pub fn clear(&mut self) {
        self.observations.clear();
        self.meta.clear();
    }

    /// Ensures the cached engine matches the current observation poses and
    /// `bins`, rebuilding it if the deployment changed.
    fn ensure_engine(&self, bins: usize) -> std::cell::RefMut<'_, Option<LocalizationEngine>> {
        let mut slot = self.engine.borrow_mut();
        let stale = match slot.as_ref() {
            Some(e) => {
                e.bins() != bins
                    || e.poses().len() != self.observations.len()
                    || e.poses()
                        .iter()
                        .zip(&self.observations)
                        .any(|(p, o)| *p != o.pose)
            }
            None => true,
        };
        if stale {
            let poses: Vec<ApPose> = self.observations.iter().map(|o| o.pose).collect();
            *slot = Some(LocalizationEngine::new(&poses, self.region, bins));
        }
        slot
    }

    /// Produces the location estimate from all accumulated observations.
    ///
    /// Reuses the cached [`LocalizationEngine`] when the AP poses and
    /// spectrum resolution are unchanged since the last call; otherwise
    /// rebuilds it first (the deployment changed).
    ///
    /// # Panics
    /// Panics if no observations were added.
    pub fn localize(&self) -> LocationEstimate {
        assert!(
            !self.observations.is_empty(),
            "need at least one AP observation"
        );
        let bins = self.observations[0].spectrum.bins();
        let slot = self.ensure_engine(bins);
        let engine = slot.as_ref().expect("engine was just built");
        crate::engine::with_default_scratch(|scratch| {
            engine.localize_indexed(
                self.observations.len(),
                &|i| (i, &self.observations[i].spectrum),
                scratch,
            )
        })
    }

    /// Produces a location estimate under the degradation policy, or a
    /// typed error when the surviving deployment cannot support one.
    ///
    /// Filtering and reweighting, in order:
    ///
    /// 1. every observation's resolution must agree
    ///    ([`LocalizeError::ResolutionMismatch`] otherwise — the typed
    ///    replacement for the engine's panic);
    /// 2. stale spectra (age > `max_spectrum_age`), all-zero spectra, and
    ///    spectra from down APs are dropped;
    /// 3. spectra from degraded APs are tempered by `degraded_weight`
    ///    (see [`confidence_weighted`]); healthy spectra pass untouched;
    /// 4. fewer than `min_quorum` survivors ⇒
    ///    [`LocalizeError::QuorumNotMet`].
    ///
    /// With all observations healthy and fresh this is exactly
    /// [`ArrayTrackServer::localize`] (same engine, same spectra).
    pub fn try_localize(&self) -> Result<LocationEstimate, LocalizeError> {
        let _t = at_obs::time_stage!(
            at_obs::stages::LOCALIZE,
            "observations" => self.observations.len(),
        );
        let result = self.try_localize_inner();
        match &result {
            Ok(_) => at_obs::count!("at_localize_total", "result" => "ok"),
            Err(e) => {
                at_obs::count!("at_localize_total", "result" => "error");
                match e {
                    LocalizeError::NoObservations => {
                        at_obs::count!("at_localize_errors_total", "kind" => "no_observations")
                    }
                    LocalizeError::QuorumNotMet { .. } => {
                        at_obs::count!("at_localize_errors_total", "kind" => "quorum_not_met")
                    }
                    LocalizeError::ResolutionMismatch { .. } => {
                        at_obs::count!("at_localize_errors_total", "kind" => "resolution_mismatch")
                    }
                }
            }
        }
        result
    }

    fn try_localize_inner(&self) -> Result<LocationEstimate, LocalizeError> {
        if self.observations.is_empty() {
            return Err(LocalizeError::NoObservations);
        }
        let bins = self.observations[0].spectrum.bins();
        // The engine's pose table mirrors the observation list, so each
        // observation's pose index is simply its position.
        let get = |i: usize| FusedObservation {
            pose_idx: i,
            spectrum: &self.observations[i].spectrum,
            ap_id: self.meta[i].ap_id,
            age: self.meta[i].age,
        };
        let slot = self.ensure_engine(bins);
        let engine = slot.as_ref().expect("engine was just built");
        fuse_with_scratch(
            engine,
            self.observations.len(),
            &get,
            &self.health,
            &self.policy,
            &mut self.scratch.borrow_mut(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_channel::geometry::{angle_diff, pt};
    use at_channel::{AntennaArray, ChannelSim, Floorplan, Transmitter};
    use at_dsp::preamble::{Preamble, LTS0_START_S};
    use at_linalg::Complex64;

    /// Captures a snapshot block for a client through the channel.
    fn capture(
        fp: &Floorplan,
        array: &AntennaArray,
        tx: &Transmitter,
        snapshots: usize,
    ) -> SnapshotBlock {
        let sim = ChannelSim::new(fp);
        let p = Preamble::new();
        let streams = sim.receive(
            tx,
            array,
            |t| p.eval(t),
            LTS0_START_S + 1.0e-6,
            snapshots as f64 / at_dsp::SAMPLE_RATE_HZ,
            at_dsp::SAMPLE_RATE_HZ,
        );
        SnapshotBlock::new(streams)
    }

    #[test]
    fn full_pipeline_points_at_client() {
        let fp = Floorplan::empty();
        let array = AntennaArray::ula(pt(0.0, 0.0), 0.0, 8).with_offrow_element();
        let theta = 235f64.to_radians();
        let tx = Transmitter::at(array.point_at(theta, 9.0));
        let block = capture(&fp, &array, &tx, 10);
        let spec = process_frame(&block, &ApPipelineConfig::arraytrack(8));
        let best = spec.find_peaks(0.2)[0];
        assert!(
            angle_diff(best.theta, theta) < 3f64.to_radians(),
            "peak {} vs truth {theta}",
            best.theta
        );
        // The mirror lobe must be strongly attenuated (×0.1) by per-peak
        // symmetry resolution.
        assert!(!spec.has_peak_near(std::f64::consts::TAU - theta, 0.05, 0.15));
    }

    #[test]
    fn unoptimized_pipeline_keeps_mirror() {
        let fp = Floorplan::empty();
        let array = AntennaArray::ula(pt(0.0, 0.0), 0.0, 8);
        let theta = 50f64.to_radians();
        let tx = Transmitter::at(array.point_at(theta, 9.0));
        let block = capture(&fp, &array, &tx, 10);
        let spec = process_frame(&block, &ApPipelineConfig::unoptimized(8));
        assert!(spec.has_peak_near(theta, 0.05, 0.3));
        assert!(spec.has_peak_near(std::f64::consts::TAU - theta, 0.05, 0.3));
    }

    #[test]
    fn frame_group_suppression_runs() {
        let fp = Floorplan::empty();
        let array = AntennaArray::ula(pt(0.0, 0.0), 0.0, 8).with_offrow_element();
        let theta = 100f64.to_radians();
        let base = array.point_at(theta, 10.0);
        let blocks: Vec<SnapshotBlock> = [0.0, 0.03, 0.05]
            .iter()
            .map(|d| {
                let tx = Transmitter::at(pt(base.x + d, base.y));
                capture(&fp, &array, &tx, 10)
            })
            .collect();
        let spec = process_frame_group(
            &blocks,
            &ApPipelineConfig::arraytrack(8),
            &SuppressionConfig::default(),
        );
        assert!(spec.has_peak_near(theta, 3f64.to_radians(), 0.2));
    }

    #[test]
    fn server_end_to_end_free_space() {
        let fp = Floorplan::empty();
        let client = pt(6.0, 4.0);
        let mut server = ArrayTrackServer::new(SearchRegion::new(pt(0.0, 0.0), pt(12.0, 8.0)));
        let poses = [
            (pt(0.0, 0.0), 0.3),
            (pt(12.0, 0.0), 2.0),
            (pt(6.0, 8.0), 4.5),
        ];
        for (center, axis) in poses {
            let array = AntennaArray::ula(center, axis, 8).with_offrow_element();
            let tx = Transmitter::at(client);
            let block = capture(&fp, &array, &tx, 10);
            let spec = process_frame(&block, &ApPipelineConfig::arraytrack(8));
            server.add_observation(
                ApPose {
                    center,
                    axis_angle: axis,
                },
                spec,
            );
        }
        assert_eq!(server.observation_count(), 3);
        let est = server.localize();
        assert!(
            est.position.distance(client) < 0.25,
            "estimate {:?} vs client {client:?}",
            est.position
        );
        server.clear();
        assert_eq!(server.observation_count(), 0);
    }

    #[test]
    fn server_rebuilds_engine_when_deployment_changes() {
        let fp = Floorplan::empty();
        let mut server = ArrayTrackServer::new(SearchRegion::new(pt(0.0, 0.0), pt(12.0, 8.0)));
        // First client: three APs.
        let client_a = pt(6.0, 4.0);
        let poses = [
            (pt(0.0, 0.0), 0.3),
            (pt(12.0, 0.0), 2.0),
            (pt(6.0, 8.0), 4.5),
        ];
        for (center, axis) in poses {
            let array = AntennaArray::ula(center, axis, 8).with_offrow_element();
            let block = capture(&fp, &array, &Transmitter::at(client_a), 10);
            let spec = process_frame(&block, &ApPipelineConfig::arraytrack(8));
            server.add_observation(
                ApPose {
                    center,
                    axis_angle: axis,
                },
                spec,
            );
        }
        assert!(server.localize().position.distance(client_a) < 0.25);
        // The deployment changes (new AP poses): the cached engine is
        // stale and must be rebuilt, not reused.
        server.clear();
        let client_b = pt(3.0, 6.0);
        for (center, axis) in [
            (pt(0.0, 8.0), 5.4),
            (pt(12.0, 8.0), 3.6),
            (pt(6.0, 0.0), 1.2),
        ] {
            let array = AntennaArray::ula(center, axis, 8).with_offrow_element();
            let block = capture(&fp, &array, &Transmitter::at(client_b), 10);
            let spec = process_frame(&block, &ApPipelineConfig::arraytrack(8));
            server.add_observation(
                ApPose {
                    center,
                    axis_angle: axis,
                },
                spec,
            );
        }
        let est = server.localize();
        assert!(
            est.position.distance(client_b) < 0.4,
            "stale engine reused? estimate {:?} vs client {client_b:?}",
            est.position
        );
    }

    #[test]
    #[should_panic(expected = "config expects")]
    fn wrong_row_count_panics() {
        let block = SnapshotBlock::new(vec![vec![Complex64::ONE; 4]; 8]);
        process_frame(&block, &ApPipelineConfig::arraytrack(8)); // wants 9 rows
    }

    /// A synthetic single-lobe spectrum pointing at `target` from `pose`.
    fn lobe_toward(pose: ApPose, target: at_channel::geometry::Point) -> AoaSpectrum {
        let theta = pose.bearing_to(target);
        AoaSpectrum::from_fn(720, |t| {
            (-(angle_diff(t, theta) / 0.08).powi(2)).exp() + 1e-6
        })
    }

    fn synthetic_server(target: at_channel::geometry::Point) -> ArrayTrackServer {
        let mut server = ArrayTrackServer::new(SearchRegion::new(pt(0.0, 0.0), pt(12.0, 8.0)));
        for (i, (center, axis)) in [
            (pt(0.0, 0.0), 0.3),
            (pt(12.0, 0.0), 2.0),
            (pt(6.0, 8.0), 4.5),
        ]
        .into_iter()
        .enumerate()
        {
            let pose = ApPose {
                center,
                axis_angle: axis,
            };
            server.add_observation_from(i, pose, lobe_toward(pose, target), 0);
        }
        server
    }

    #[test]
    fn try_localize_matches_localize_when_all_healthy() {
        let target = pt(7.0, 3.0);
        let server = synthetic_server(target);
        let a = server.localize();
        let b = server.try_localize().expect("healthy deployment must fix");
        // Bit-identical: the all-healthy degradation path is the same
        // engine call on the same borrowed spectra.
        assert_eq!(a.position.x, b.position.x);
        assert_eq!(a.position.y, b.position.y);
        assert_eq!(a.likelihood, b.likelihood);
    }

    #[test]
    fn empty_server_returns_typed_error() {
        let server = ArrayTrackServer::new(SearchRegion::new(pt(0.0, 0.0), pt(1.0, 1.0)));
        assert_eq!(
            server.try_localize(),
            Err(crate::health::LocalizeError::NoObservations)
        );
    }

    #[test]
    fn resolution_mismatch_is_typed_not_panic() {
        let target = pt(6.0, 4.0);
        let mut server = synthetic_server(target);
        let pose = ApPose {
            center: pt(3.0, 0.0),
            axis_angle: 1.0,
        };
        let odd = AoaSpectrum::from_fn(360, |_| 1.0);
        server.add_observation(pose, odd);
        match server.try_localize() {
            Err(crate::health::LocalizeError::ResolutionMismatch {
                observation,
                bins,
                expected,
            }) => {
                assert_eq!((observation, bins, expected), (3, 360, 720));
            }
            other => panic!("expected ResolutionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn down_aps_are_excluded_and_quorum_enforced() {
        let target = pt(5.0, 5.0);
        let mut server = synthetic_server(target).with_policy(crate::health::HealthPolicy {
            min_quorum: 2,
            ..Default::default()
        });
        // Kill APs 0 and 1 (5 consecutive failures each → Down).
        for _ in 0..5 {
            server.report_acquisition_failure(0);
            server.report_acquisition_failure(1);
        }
        assert_eq!(server.ap_status(0), crate::health::ApStatus::Down);
        match server.try_localize() {
            Err(crate::health::LocalizeError::QuorumNotMet {
                available,
                required,
                down,
                ..
            }) => {
                assert_eq!((available, required, down), (1, 2, 2));
            }
            other => panic!("expected QuorumNotMet, got {other:?}"),
        }
        // Recovery: a successful acquisition resets AP 0 and quorum is met.
        let pose = server.observations[0].pose;
        let spec = server.observations[0].spectrum.clone();
        server.add_observation_from(0, pose, spec, 0);
        let est = server.try_localize().expect("quorum restored");
        assert!(est.position.distance(target) < 0.3);
    }

    #[test]
    fn stale_spectra_are_dropped() {
        let target = pt(4.0, 3.0);
        let mut server = ArrayTrackServer::new(SearchRegion::new(pt(0.0, 0.0), pt(12.0, 8.0)));
        let poses = [
            (pt(0.0, 0.0), 0.3),
            (pt(12.0, 0.0), 2.0),
            (pt(6.0, 8.0), 4.5),
        ];
        // All three spectra expired (age beyond the default max of 3).
        for (i, (center, axis)) in poses.into_iter().enumerate() {
            let pose = ApPose {
                center,
                axis_angle: axis,
            };
            server.add_observation_from(i, pose, lobe_toward(pose, target), 10);
        }
        match server.try_localize() {
            Err(crate::health::LocalizeError::QuorumNotMet { stale, .. }) => {
                assert_eq!(stale, 3);
            }
            other => panic!("expected QuorumNotMet, got {other:?}"),
        }
        // Refresh one: a single fresh AP meets the default quorum of 1.
        let pose = ApPose {
            center: pt(0.0, 0.0),
            axis_angle: 0.3,
        };
        server.add_observation_from(0, pose, lobe_toward(pose, target), 0);
        assert!(server.try_localize().is_ok());
    }

    #[test]
    fn degraded_ap_votes_but_cannot_veto() {
        let target = pt(6.0, 4.0);
        let mut server = synthetic_server(target);
        // AP 2 becomes degraded (2 failures), then submits a *hostile*
        // spectrum pointing somewhere else entirely.
        server.report_acquisition_failure(2);
        server.report_acquisition_failure(2);
        assert_eq!(server.ap_status(2), crate::health::ApStatus::Degraded);
        server.clear();
        let poses = [
            (pt(0.0, 0.0), 0.3),
            (pt(12.0, 0.0), 2.0),
            (pt(6.0, 8.0), 4.5),
        ];
        for (i, (center, axis)) in poses.into_iter().enumerate() {
            let pose = ApPose {
                center,
                axis_angle: axis,
            };
            let spec = if i == 2 {
                lobe_toward(pose, pt(1.0, 1.0)) // wrong target
            } else {
                lobe_toward(pose, target)
            };
            server.add_observation_from(i, pose, spec, 0);
        }
        let est = server.try_localize().expect("two healthy APs agree");
        assert!(
            est.position.distance(target) < 0.5,
            "tempered dissenter must not drag the fix: {:?}",
            est.position
        );
    }

    #[test]
    fn degenerate_spectra_are_dropped() {
        let target = pt(6.0, 4.0);
        let mut server = synthetic_server(target);
        let pose = ApPose {
            center: pt(3.0, 0.0),
            axis_angle: 1.0,
        };
        let mut dead = AoaSpectrum::from_fn(720, |_| 1.0);
        for v in dead.values_mut() {
            *v = 0.0;
        }
        server.add_observation(pose, dead);
        // The all-zero spectrum is dropped, the healthy three still fix.
        let est = server.try_localize().expect("healthy APs remain");
        assert!(est.position.distance(target) < 0.3);
    }

    #[test]
    fn shared_engine_fusion_matches_in_process_server() {
        // A deployment-wide engine over six poses, queried with a subset,
        // must produce the *same bits* as an in-process server that only
        // ever saw that subset — the invariant the networked service
        // relies on.
        let target = pt(7.0, 3.0);
        let all_poses: Vec<ApPose> = [
            (pt(0.0, 0.0), 0.3),
            (pt(12.0, 0.0), 2.0),
            (pt(6.0, 8.0), 4.5),
            (pt(0.0, 8.0), 5.2),
            (pt(12.0, 8.0), 3.7),
            (pt(6.0, 0.0), 1.1),
        ]
        .into_iter()
        .map(|(center, axis)| ApPose {
            center,
            axis_angle: axis,
        })
        .collect();
        let region = SearchRegion::new(pt(0.0, 0.0), pt(12.0, 8.0));
        let engine = LocalizationEngine::new(&all_poses, region, 720);

        // The subset query: deployment APs 0, 2, 4.
        let subset = [0usize, 2, 4];
        let spectra: Vec<AoaSpectrum> = subset
            .iter()
            .map(|&i| lobe_toward(all_poses[i], target))
            .collect();

        let mut server = ArrayTrackServer::new(region);
        for (k, &i) in subset.iter().enumerate() {
            server.add_observation_from(i, all_poses[i], spectra[k].clone(), 0);
        }
        let in_process = server.try_localize().expect("healthy subset");

        let fused: Vec<FusedObservation> = subset
            .iter()
            .zip(&spectra)
            .map(|(&i, s)| FusedObservation {
                pose_idx: i,
                spectrum: s,
                ap_id: Some(i),
                age: 0,
            })
            .collect();
        let health = HealthTracker::new(all_poses.len());
        let mut scratch = FusionScratch::default();
        for _ in 0..2 {
            // Cold and warm scratch alike.
            let shared = fuse_with_scratch(
                &engine,
                fused.len(),
                &|i| fused[i],
                &health,
                &HealthPolicy::default(),
                &mut scratch,
            )
            .expect("healthy subset");
            assert_eq!(in_process.position.x.to_bits(), shared.position.x.to_bits());
            assert_eq!(in_process.position.y.to_bits(), shared.position.y.to_bits());
            assert_eq!(in_process.likelihood.to_bits(), shared.likelihood.to_bits());
        }
    }

    #[test]
    fn plan_fusion_indexed_surfaces_typed_errors() {
        let pose = ApPose {
            center: pt(0.0, 0.0),
            axis_angle: 0.0,
        };
        let spec = lobe_toward(pose, pt(3.0, 3.0));
        let policy = HealthPolicy::default();
        let health = HealthTracker::new(1);
        let mut plan = FusionPlan::default();
        let mut plan_of = |obs: &[FusedObservation], bins| {
            plan_fusion_indexed(obs.len(), &|i| obs[i], bins, &health, &policy, &mut plan)
        };
        assert_eq!(
            plan_of(&[], 720).unwrap_err(),
            crate::health::LocalizeError::NoObservations
        );
        let obs = [FusedObservation {
            pose_idx: 0,
            spectrum: &spec,
            ap_id: Some(0),
            age: 0,
        }];
        match plan_of(&obs, 360) {
            Err(crate::health::LocalizeError::ResolutionMismatch {
                observation,
                bins,
                expected,
            }) => assert_eq!((observation, bins, expected), (0, 720, 360)),
            other => panic!("expected ResolutionMismatch, got {other:?}"),
        }
        // A stale-only submission fails quorum with the stale count.
        let stale_obs = [FusedObservation { age: 99, ..obs[0] }];
        match plan_of(&stale_obs, 720) {
            Err(crate::health::LocalizeError::QuorumNotMet { stale, .. }) => {
                assert_eq!(stale, 1)
            }
            other => panic!("expected QuorumNotMet, got {other:?}"),
        }
    }

    #[test]
    fn health_survives_clear_but_not_reset() {
        let mut server = synthetic_server(pt(5.0, 4.0));
        for _ in 0..5 {
            server.report_acquisition_failure(1);
        }
        server.clear();
        assert_eq!(server.ap_status(1), crate::health::ApStatus::Down);
        server.reset_health();
        assert_eq!(server.ap_status(1), crate::health::ApStatus::Healthy);
    }
}
