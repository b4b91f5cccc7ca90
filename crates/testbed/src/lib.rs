//! # at-testbed — the simulated 41-client / 6-AP office deployment
//!
//! The experimental apparatus of the paper's §4, rebuilt in simulation:
//!
//! - [`office`]: the Fig. 12 floorplan (concrete shell, drywall offices,
//!   glass conference room, metal elevator core, two pillars), the six AP
//!   poses, and the 41 client ground-truth positions;
//! - [`deployment`]: APs with simulated WARP front ends, per-AP CW-tone
//!   calibration, frame capture via diversity synthesis, and RSS readings;
//! - [`experiments`]: the sweep engine — per-(client, AP) spectra, AP
//!   subset enumeration, and the localization loops behind Figs. 13–18;
//! - [`metrics`]: error CDFs, medians, means, percentiles;
//! - [`baselines`]: RSSI log-distance trilateration and RADAR-style
//!   fingerprinting for the related-work comparison;
//! - [`acquire`]: the same capture path run under an injected
//!   `at_core::faults::FaultPlan`, with retry/timeout semantics and typed
//!   errors — the apparatus behind the robustness tier and the Fig. 14-style
//!   accuracy-vs-failures curves;
//! - [`serve`]: the wire bridge — build an `at-serve` location service
//!   from a deployment and push captured spectra to it over TCP;
//! - [`replay`]: the golden capture-and-replay scenario — a scripted
//!   office session recorded into an `at-replay` journal, behind the
//!   committed bit-exact regression fixture.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acquire;
pub mod baselines;
pub mod deployment;
pub mod experiments;
pub mod metrics;
pub mod office;
pub mod replay;
pub mod serve;
// The live Figure-1 loop (per-AP circular buffers, 100 ms grouping,
// suppression, fusion, tracking): nothing ships it, but its tests are the
// only end-to-end check of §2.4's `FrameBuffer` grouping.
#[cfg(test)]
mod stream;

pub use acquire::{
    acquire_spectrum, localize_under_faults, AcquireConfig, AcquireError, Acquisition,
};
pub use deployment::{parallel_map, Ap, CaptureConfig, Deployment};
pub use experiments::{
    ap_subsets, compute_all_spectra, compute_spectrum, localization_sweep, ExperimentConfig,
};
pub use metrics::ErrorStats;
pub use replay::record_golden;
pub use serve::{
    ap_clients, serve_deployment, service_config, submit_position, submit_position_keyed,
};
