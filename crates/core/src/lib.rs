//! # at-core — the ArrayTrack algorithms
//!
//! The paper's primary contribution, as a library. The processing chain
//! (Figure 1) runs:
//!
//! 1. [`music`] — MUSIC pseudospectrum over the steering-vector continuum
//!    (§2.3.1, eqs. 4–6), with [`smoothing`] for coherent multipath
//!    (§2.3.2) and [`steering`] vectors matching the channel model;
//! 2. [`weighting`] — the array geometry window `W(θ)` (§2.3.3, eq. 7);
//! 3. [`symmetry`] — resolving the linear array's 180° ambiguity with the
//!    off-row ninth antenna (§2.3.4);
//! 4. [`suppression`] — multipath suppression across temporally adjacent
//!    frames (§2.4, Fig. 8);
//! 5. [`synthesis`] — the multi-AP likelihood product `L(x) = Π Pᵢ(θᵢ)`
//!    with 10 cm grid search and hill climbing (§2.5, eq. 8);
//!
//! plus [`sic`] for colliding packets (§4.3.5), [`latency`] for the §4.4
//! budget, and [`pipeline`] tying the stages into per-AP and server-side
//! entry points. [`spectrum`] defines the AoA spectrum type they all share.
//!
//! Deployments misbehave; [`faults`] describes seeded, deterministic fault
//! scenarios (AP outages, element dropout, calibration drift, missed
//! detections, stale spectra, noise spikes) and [`health`] supplies the
//! per-AP health tracking, quorum policy, and typed error surface the
//! server's graceful-degradation path is built on.
//!
//! Two performance layers keep query-scale operation fast without touching
//! the algorithms above: [`steering::SteeringTable`] caches the scan
//! steering vectors process-wide, and [`engine::LocalizationEngine`]
//! precomputes per-deployment bearing grids for coarse-to-fine synthesis
//! ([`parallel`] provides the thread fan-out both reuse).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod elevation;
pub mod engine;
pub mod estimators;
pub mod faults;
pub mod health;
pub mod latency;
pub mod music;
pub mod parallel;
pub mod pipeline;
pub mod sic;
pub mod smoothing;
pub mod spectrum;
pub mod steering;
pub mod suppression;
pub mod symmetry;
pub mod synthesis;
pub mod tracking;
pub mod weighting;

pub use engine::{LocalizationEngine, LocalizeScratch};
pub use faults::{ApFaultProfile, FaultPlan};
pub use health::{ApStatus, HealthPolicy, HealthTracker, LocalizeError};
pub use music::{music_analysis, music_spectrum, MusicAnalysis, MusicConfig};
pub use parallel::parallel_map;
pub use pipeline::{
    fuse_with_scratch, plan_fusion_indexed, process_frame, process_frame_group, ApPipelineConfig,
    ArrayTrackServer, FusedObservation, FusionPlan, FusionScratch,
};
pub use spectrum::{AoaSpectrum, Peak};
pub use suppression::{suppress_multipath, SuppressionConfig};
pub use synthesis::{
    heatmap, likelihood, localize, ApObservation, ApPose, Heatmap, LocationEstimate, SearchRegion,
};
pub use tracking::{Tracker, TrackerConfig};
