//! Per-AP health tracking and the typed error surface of the server's
//! degradation policy.
//!
//! The ArrayTrack server must keep localizing — with quantified, *tested*
//! degradation — while parts of the deployment misbehave. This module
//! supplies the two pieces the fused hot path needs:
//!
//! - [`HealthTracker`]: a consecutive-failure counter per AP, mapping
//!   acquisition outcomes to [`ApStatus`] under a [`HealthPolicy`]
//!   (healthy → degraded → down), plus spectrum-age staleness checks;
//! - [`LocalizeError`]: the typed errors the server returns instead of
//!   panicking when the deployment cannot support a fix (no observations,
//!   quorum not met, resolution mismatch, degenerate spectra).
//!
//! Policy semantics: a *down* or *stale* AP is excluded from fusion
//! entirely; a *degraded* AP stays in but its pseudospectrum is flattened
//! toward uniform by the policy's confidence exponent (see
//! [`crate::weighting::confidence_weighted`]), so it can still vote but
//! can no longer veto. If fewer than `min_quorum` APs survive the filter,
//! the server refuses to guess and returns
//! [`LocalizeError::QuorumNotMet`].

use std::fmt;

/// Health state of one AP, as seen by the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApStatus {
    /// Fully trusted: spectra enter fusion at full weight.
    Healthy,
    /// Suspect (repeated acquisition failures): spectra enter fusion at
    /// the policy's reduced confidence weight.
    Degraded,
    /// Not trusted at all: excluded from fusion.
    Down,
}

/// Thresholds and weights of the degradation policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthPolicy {
    /// Consecutive acquisition failures after which an AP is `Degraded`.
    pub degraded_after: u32,
    /// Consecutive acquisition failures after which an AP is `Down`.
    pub down_after: u32,
    /// Maximum spectrum age (in server refresh intervals) accepted into
    /// fusion; older spectra are treated as expired and dropped.
    pub max_spectrum_age: u64,
    /// Minimum number of APs that must survive filtering for the server
    /// to produce a fix.
    pub min_quorum: usize,
    /// Confidence exponent applied to a `Degraded` AP's spectrum
    /// (`1` = full trust, `0` = ignore; see
    /// [`crate::weighting::confidence_weighted`]).
    pub degraded_weight: f64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            degraded_after: 2,
            down_after: 5,
            max_spectrum_age: 3,
            min_quorum: 1,
            degraded_weight: 0.5,
        }
    }
}

impl HealthPolicy {
    /// Checks the policy's internal consistency: thresholds in order, the
    /// weight inside `[0, 1]`, a quorum of at least one AP. The error says
    /// which rule was broken.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.degraded_after > self.down_after {
            return Err("an AP must degrade before it goes down");
        }
        if !(0.0..=1.0).contains(&self.degraded_weight) {
            return Err("confidence weight must be in [0, 1]");
        }
        if self.min_quorum < 1 {
            return Err("a fix needs at least one AP");
        }
        Ok(())
    }

    /// Status implied by a consecutive-failure count.
    pub(crate) fn status_for_failures(&self, consecutive_failures: u32) -> ApStatus {
        if consecutive_failures >= self.down_after {
            ApStatus::Down
        } else if consecutive_failures >= self.degraded_after {
            ApStatus::Degraded
        } else {
            ApStatus::Healthy
        }
    }

    /// Whether a spectrum of the given age is too old to fuse.
    pub(crate) fn is_stale(&self, age: u64) -> bool {
        age > self.max_spectrum_age
    }
}

/// Consecutive-failure tracking for every AP of a deployment.
#[derive(Clone, Debug, Default)]
pub struct HealthTracker {
    failures: Vec<u32>,
}

impl HealthTracker {
    /// A tracker for `n_aps` APs, all healthy.
    pub fn new(n_aps: usize) -> Self {
        Self {
            failures: vec![0; n_aps],
        }
    }

    /// Number of APs tracked.
    pub fn len(&self) -> usize {
        self.failures.len()
    }

    /// Whether the tracker covers zero APs.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }

    /// Grows the tracker to cover at least `n_aps` APs (new APs healthy).
    pub(crate) fn ensure_len(&mut self, n_aps: usize) {
        if self.failures.len() < n_aps {
            self.failures.resize(n_aps, 0);
        }
    }

    /// Records a successful spectrum acquisition from AP `ap`.
    pub fn report_success(&mut self, ap: usize) {
        self.ensure_len(ap + 1);
        if self.failures[ap] > 0 {
            at_obs::count!("at_ap_recoveries_total");
        }
        self.failures[ap] = 0;
    }

    /// Records a failed spectrum acquisition (missed detection, timeout,
    /// outage) from AP `ap`.
    pub fn report_failure(&mut self, ap: usize) {
        self.ensure_len(ap + 1);
        self.failures[ap] = self.failures[ap].saturating_add(1);
        at_obs::count!("at_ap_failures_total");
    }

    /// Current consecutive-failure count of AP `ap`.
    pub fn consecutive_failures(&self, ap: usize) -> u32 {
        self.failures.get(ap).copied().unwrap_or(0)
    }

    /// Current status of AP `ap` under `policy`.
    pub fn status(&self, ap: usize, policy: &HealthPolicy) -> ApStatus {
        policy.status_for_failures(self.consecutive_failures(ap))
    }

    /// Number of APs not `Down` under `policy`.
    #[cfg(test)]
    pub(crate) fn available_aps(&self, policy: &HealthPolicy) -> usize {
        (0..self.failures.len())
            .filter(|&ap| self.status(ap, policy) != ApStatus::Down)
            .count()
    }

    /// Carries the tracker across a topology epoch: `old_to_new[i]` says
    /// which new AP id inherits old AP `i`'s failure count (`None` drops
    /// it — the AP departed or was moved/recalibrated). APs with no
    /// preimage (joiners, movers) start cold at zero failures — healthy,
    /// but with no spectra, so they surface through the existing
    /// `QuorumNotMet` path until they submit.
    pub fn remap(&mut self, old_to_new: &[Option<u32>], n_new: usize) {
        let mut next = vec![0u32; n_new];
        for (old, target) in old_to_new.iter().enumerate() {
            if let (Some(&count), Some(new)) = (self.failures.get(old), target) {
                if let Some(slot) = next.get_mut(*new as usize) {
                    *slot = count;
                }
            }
        }
        self.failures = next;
    }
}

/// Why the server could not produce a location fix. The hot loop returns
/// these instead of panicking: a degraded deployment is an expected
/// operating regime, not a programming error.
#[derive(Clone, Debug, PartialEq)]
pub enum LocalizeError {
    /// No observations were submitted at all.
    NoObservations,
    /// Fewer APs survived health/staleness filtering than the policy's
    /// quorum requires.
    QuorumNotMet {
        /// APs that survived filtering.
        available: usize,
        /// The policy's `min_quorum`.
        required: usize,
        /// Of the filtered-out APs, how many were dropped for staleness.
        stale: usize,
        /// Of the filtered-out APs, how many were dropped as down.
        down: usize,
        /// Of the filtered-out APs, how many had degenerate spectra.
        degenerate: usize,
    },
    /// An observation's spectrum resolution disagrees with the rest.
    ResolutionMismatch {
        /// Index of the offending observation.
        observation: usize,
        /// Its bin count.
        bins: usize,
        /// The bin count of the first observation.
        expected: usize,
    },
}

impl fmt::Display for LocalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoObservations => write!(f, "need at least one AP observation"),
            Self::QuorumNotMet {
                available,
                required,
                stale,
                down,
                degenerate,
            } => write!(
                f,
                "quorum not met: {available} usable AP(s), {required} required \
                 ({stale} stale, {down} down, {degenerate} degenerate)"
            ),
            Self::ResolutionMismatch {
                observation,
                bins,
                expected,
            } => write!(
                f,
                "observation {observation} has {bins} spectrum bins, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for LocalizeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_consistent() {
        assert_eq!(HealthPolicy::default().check(), Ok(()));
    }

    #[test]
    fn status_thresholds() {
        let p = HealthPolicy::default();
        assert_eq!(p.status_for_failures(0), ApStatus::Healthy);
        assert_eq!(p.status_for_failures(1), ApStatus::Healthy);
        assert_eq!(p.status_for_failures(2), ApStatus::Degraded);
        assert_eq!(p.status_for_failures(4), ApStatus::Degraded);
        assert_eq!(p.status_for_failures(5), ApStatus::Down);
        assert_eq!(p.status_for_failures(u32::MAX), ApStatus::Down);
    }

    #[test]
    fn tracker_counts_consecutive_failures() {
        let p = HealthPolicy::default();
        let mut t = HealthTracker::new(3);
        assert_eq!(t.status(0, &p), ApStatus::Healthy);
        for _ in 0..5 {
            t.report_failure(1);
        }
        assert_eq!(t.status(1, &p), ApStatus::Down);
        assert_eq!(t.available_aps(&p), 2);
        // A success resets the streak entirely.
        t.report_success(1);
        assert_eq!(t.status(1, &p), ApStatus::Healthy);
        assert_eq!(t.available_aps(&p), 3);
        // Two failures → degraded but still available.
        t.report_failure(2);
        t.report_failure(2);
        assert_eq!(t.status(2, &p), ApStatus::Degraded);
        assert_eq!(t.available_aps(&p), 3);
    }

    #[test]
    fn tracker_grows_on_demand() {
        let mut t = HealthTracker::default();
        t.report_failure(4);
        assert_eq!(t.len(), 5);
        assert_eq!(t.consecutive_failures(4), 1);
        // Unknown APs read as healthy.
        assert_eq!(t.consecutive_failures(11), 0);
    }

    #[test]
    fn staleness_respects_max_age() {
        let p = HealthPolicy::default();
        assert!(!p.is_stale(0));
        assert!(!p.is_stale(3));
        assert!(p.is_stale(4));
    }

    #[test]
    fn errors_format_usefully() {
        let e = LocalizeError::QuorumNotMet {
            available: 1,
            required: 2,
            stale: 1,
            down: 3,
            degenerate: 0,
        };
        let s = e.to_string();
        assert!(s.contains("1 usable"));
        assert!(s.contains("2 required"));
        assert!(s.contains("3 down"));
        assert!(LocalizeError::NoObservations
            .to_string()
            .contains("at least one"));
    }

    #[test]
    fn inverted_thresholds_rejected() {
        let inverted = HealthPolicy {
            degraded_after: 6,
            down_after: 2,
            ..HealthPolicy::default()
        };
        assert_eq!(
            inverted.check(),
            Err("an AP must degrade before it goes down")
        );
    }
}
