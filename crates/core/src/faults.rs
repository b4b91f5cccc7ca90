//! Deterministic fault injection for the ArrayTrack deployment.
//!
//! The paper's accuracy claims (§5) assume healthy APs, phase-locked
//! radios, and fresh calibration — but its own removal studies (Figs.
//! 13/14/16) show the system is *meant* to degrade gracefully as antennas
//! and APs disappear. A production deployment sees exactly those failure
//! modes, plus ones the paper never had to model: calibration drift,
//! missed preamble detections, stale spectra, and noise-floor spikes.
//!
//! A [`FaultPlan`] describes, per AP, which of those faults are active. It
//! is **deterministic**: every stochastic decision (does AP 3 miss client
//! 17's second frame?) is a pure function of `(plan seed, ap, client,
//! frame)` via a splitmix64 hash, so a fault scenario replays bit-for-bit
//! regardless of thread interleaving or call order — the property the
//! robustness test tier (`tests/faults.rs`) is built on.
//!
//! The plan itself only *describes* faults. Injection happens at the
//! physically honest layer for each kind:
//!
//! | fault                     | injected by                                  |
//! |---------------------------|----------------------------------------------|
//! | AP outage                 | `at-testbed` acquisition (no frames at all)   |
//! | antenna element dropout   | `at-channel` ([`AntennaArray::with_dead_elements`]) |
//! | calibration drift         | `at-frontend` ([`Calibration::with_drift`])   |
//! | missed preamble detection | `at-testbed` acquisition (per-frame draw)     |
//! | stale/expired spectra     | spectrum age, policed by [`crate::health`]    |
//! | AWGN-floor spike          | `at-testbed` capture noise power              |
//!
//! [`AntennaArray::with_dead_elements`]: at_channel::AntennaArray::with_dead_elements
//! [`Calibration::with_drift`]: at_frontend::Calibration::with_drift

use std::f64::consts::PI;

/// Fault switches for one AP. The default is a fully healthy AP.
#[derive(Clone, Debug, PartialEq)]
pub struct ApFaultProfile {
    /// The AP is completely down: it produces no frames at all.
    pub outage: bool,
    /// Indices of dead antenna elements (in-row `0..elements`, plus the
    /// off-row element at index `elements`). A dead element feeds only
    /// receiver noise into its radio port.
    pub dead_elements: Vec<usize>,
    /// Per-radio calibration drift magnitude, radians. Each radio's
    /// correction table is rotated by a deterministic draw in
    /// `[-drift, +drift]` — the slow oscillator walk and temperature drift
    /// that a one-time CW calibration cannot track.
    pub phase_drift_rad: f64,
    /// Probability that any given frame's preamble detection fails at this
    /// AP (drawn deterministically per `(client, frame, attempt)`).
    pub miss_rate: f64,
    /// Age, in server refresh intervals, of the spectra this AP serves.
    /// `0` = fresh. The server's [`crate::health::HealthPolicy`] decides
    /// when age becomes "stale" and the AP is dropped from fusion.
    pub spectrum_age: u64,
    /// Rise of the AWGN noise floor in dB (0 = nominal floor).
    pub noise_spike_db: f64,
}

impl Default for ApFaultProfile {
    fn default() -> Self {
        Self {
            outage: false,
            dead_elements: Vec::new(),
            phase_drift_rad: 0.0,
            miss_rate: 0.0,
            spectrum_age: 0,
            noise_spike_db: 0.0,
        }
    }
}

impl ApFaultProfile {
    /// Whether this profile is a completely healthy AP.
    #[cfg(test)]
    pub(crate) fn is_healthy(&self) -> bool {
        *self == Self::default()
    }

    /// Multiplier the AWGN noise power is scaled by.
    pub fn noise_multiplier(&self) -> f64 {
        10f64.powf(self.noise_spike_db / 10.0)
    }
}

/// A seeded, deterministic fault scenario over an `n`-AP deployment.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    aps: Vec<ApFaultProfile>,
}

impl FaultPlan {
    /// A plan with every AP healthy (the control scenario: running the
    /// fault-enabled path under this plan must match the fault-free path
    /// exactly).
    pub fn healthy(n_aps: usize) -> Self {
        Self {
            seed: 0,
            aps: vec![ApFaultProfile::default(); n_aps],
        }
    }

    /// A healthy plan whose stochastic draws (miss decisions, drift signs)
    /// derive from `seed`.
    pub fn seeded(n_aps: usize, seed: u64) -> Self {
        Self {
            seed,
            aps: vec![ApFaultProfile::default(); n_aps],
        }
    }

    /// Number of APs the plan covers.
    pub fn len(&self) -> usize {
        self.aps.len()
    }

    /// Whether the plan covers zero APs.
    pub fn is_empty(&self) -> bool {
        self.aps.is_empty()
    }

    /// The fault profile of AP `ap`.
    pub fn ap(&self, ap: usize) -> &ApFaultProfile {
        &self.aps[ap]
    }

    /// Whether every AP in the plan is healthy.
    #[cfg(test)]
    pub(crate) fn is_all_healthy(&self) -> bool {
        self.aps.iter().all(ApFaultProfile::is_healthy)
    }

    /// Indices of APs that are *not* in outage.
    pub fn live_aps(&self) -> Vec<usize> {
        (0..self.aps.len())
            .filter(|&i| !self.aps[i].outage)
            .collect()
    }

    /// Marks AP `ap` as completely down.
    pub fn with_outage(mut self, ap: usize) -> Self {
        self.aps[ap].outage = true;
        self
    }

    /// Marks every AP in `aps` as down.
    pub fn with_outages(mut self, aps: &[usize]) -> Self {
        for &ap in aps {
            self.aps[ap].outage = true;
        }
        self
    }

    /// Kills the listed antenna elements of AP `ap`.
    pub fn with_dead_elements(mut self, ap: usize, elements: &[usize]) -> Self {
        self.aps[ap].dead_elements = elements.to_vec();
        self
    }

    /// Applies calibration drift of magnitude `rad` to AP `ap`.
    pub fn with_phase_drift(mut self, ap: usize, rad: f64) -> Self {
        assert!(rad >= 0.0, "drift magnitude must be non-negative");
        self.aps[ap].phase_drift_rad = rad;
        self
    }

    /// Sets AP `ap`'s per-frame preamble miss probability.
    pub fn with_miss_rate(mut self, ap: usize, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "miss rate must be in [0, 1]");
        self.aps[ap].miss_rate = p;
        self
    }

    /// Marks AP `ap`'s spectra as `age` refresh intervals old.
    pub fn with_spectrum_age(mut self, ap: usize, age: u64) -> Self {
        self.aps[ap].spectrum_age = age;
        self
    }

    /// Raises AP `ap`'s noise floor by `db` decibels.
    pub fn with_noise_spike(mut self, ap: usize, db: f64) -> Self {
        assert!(db >= 0.0, "a noise spike raises the floor");
        self.aps[ap].noise_spike_db = db;
        self
    }

    /// A scenario with `k` APs in outage, chosen deterministically from
    /// `seed` (the Fig. 14-style "k failed APs" sweep).
    pub fn random_outages(n_aps: usize, k: usize, seed: u64) -> Self {
        assert!(k <= n_aps, "cannot fail more APs than exist");
        let mut plan = Self::seeded(n_aps, seed);
        // Deterministic Fisher–Yates prefix over the AP indices.
        let mut idx: Vec<usize> = (0..n_aps).collect();
        for i in 0..k {
            let j = i + (mix(&[seed, 0xFA11, i as u64]) as usize) % (n_aps - i);
            idx.swap(i, j);
        }
        for &ap in &idx[..k] {
            plan.aps[ap].outage = true;
        }
        plan
    }

    /// A scenario where every AP loses the same number of (deterministically
    /// chosen) in-row elements — the Fig. 16-style antenna-count sweep
    /// expressed as element *failure* rather than configuration.
    pub fn random_dead_elements(n_aps: usize, elements: usize, dead: usize, seed: u64) -> Self {
        assert!(dead <= elements, "cannot kill more elements than exist");
        let mut plan = Self::seeded(n_aps, seed);
        for ap in 0..n_aps {
            let mut idx: Vec<usize> = (0..elements).collect();
            for i in 0..dead {
                let j = i + (mix(&[seed, 0xDEAD, ap as u64, i as u64]) as usize) % (elements - i);
                idx.swap(i, j);
            }
            plan.aps[ap].dead_elements = idx[..dead].to_vec();
            plan.aps[ap].dead_elements.sort_unstable();
        }
        plan
    }

    /// Deterministic draw: does AP `ap` miss the preamble of frame `frame`
    /// (attempt `attempt`) from client `client`? Pure in all arguments, so
    /// a scenario replays identically in any execution order.
    pub fn misses_frame(&self, ap: usize, client: usize, frame: u64, attempt: u64) -> bool {
        let p = self.aps[ap].miss_rate;
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let u = unit_f64(mix(&[
            self.seed,
            0x3155ED,
            ap as u64,
            client as u64,
            frame,
            attempt,
        ]));
        let missed = u < p;
        if missed {
            at_obs::count!("at_faults_injected_total", "kind" => "missed_detection");
        }
        missed
    }

    /// Deterministic per-radio calibration drift for AP `ap`, radians:
    /// uniform in `[-drift, +drift]` with the plan's magnitude for that AP.
    pub fn drift_for(&self, ap: usize, radios: usize) -> Vec<f64> {
        let mag = self.aps[ap].phase_drift_rad;
        (0..radios)
            .map(|r| {
                if mag == 0.0 {
                    0.0
                } else {
                    (unit_f64(mix(&[self.seed, 0xD21F7, ap as u64, r as u64])) * 2.0 - 1.0)
                        * mag.min(PI)
                }
            })
            .collect()
    }
}

/// splitmix64-style avalanche of a word sequence (the same generator the
/// channel model uses for static element imperfections — no `rand`
/// dependency, no call-order sensitivity).
fn mix(words: &[u64]) -> u64 {
    let mut z = 0x9E37_79B9_7F4A_7C15u64;
    for &w in words {
        z = z.wrapping_add(w).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// Maps a hash to a uniform `[0, 1)` double.
fn unit_f64(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_plan_is_healthy() {
        let p = FaultPlan::healthy(6);
        assert!(p.is_all_healthy());
        assert_eq!(p.len(), 6);
        assert_eq!(p.live_aps(), vec![0, 1, 2, 3, 4, 5]);
        assert!(!p.misses_frame(0, 0, 0, 0));
        assert_eq!(p.drift_for(3, 8), vec![0.0; 8]);
    }

    #[test]
    fn builders_set_profiles() {
        let p = FaultPlan::seeded(6, 9)
            .with_outage(1)
            .with_dead_elements(2, &[0, 3])
            .with_phase_drift(3, 0.4)
            .with_miss_rate(4, 0.5)
            .with_spectrum_age(5, 7)
            .with_noise_spike(0, 10.0);
        assert!(p.ap(1).outage);
        assert_eq!(p.ap(2).dead_elements, vec![0, 3]);
        assert_eq!(p.ap(3).phase_drift_rad, 0.4);
        assert_eq!(p.ap(4).miss_rate, 0.5);
        assert_eq!(p.ap(5).spectrum_age, 7);
        assert!((p.ap(0).noise_multiplier() - 10.0).abs() < 1e-12);
        assert_eq!(p.live_aps(), vec![0, 2, 3, 4, 5]);
        assert!(!p.is_all_healthy());
    }

    #[test]
    fn miss_draws_are_deterministic_and_rate_accurate() {
        let p = FaultPlan::seeded(2, 77).with_miss_rate(0, 0.3);
        // Replays identically.
        for f in 0..50 {
            assert_eq!(p.misses_frame(0, 5, f, 0), p.misses_frame(0, 5, f, 0));
        }
        // Empirical rate over many draws near 0.3.
        let n = 20_000;
        let hits = (0..n).filter(|&f| p.misses_frame(0, 1, f, 0)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "empirical miss rate {rate}");
        // Healthy AP never misses.
        assert!((0..100).all(|f| !p.misses_frame(1, 1, f, 0)));
    }

    #[test]
    fn extreme_rates_are_exact() {
        let p = FaultPlan::seeded(1, 3).with_miss_rate(0, 1.0);
        assert!((0..32).all(|f| p.misses_frame(0, 0, f, 0)));
    }

    #[test]
    fn drift_is_bounded_and_seed_dependent() {
        let a = FaultPlan::seeded(1, 1).with_phase_drift(0, 0.5);
        let b = FaultPlan::seeded(1, 2).with_phase_drift(0, 0.5);
        let da = a.drift_for(0, 8);
        let db = b.drift_for(0, 8);
        assert!(da.iter().all(|d| d.abs() <= 0.5));
        assert_ne!(da, db, "different seeds must draw different drifts");
        assert_eq!(da, a.drift_for(0, 8), "drift draws must replay");
    }

    #[test]
    fn random_outages_fail_exactly_k_without_repeats() {
        for k in 0..=6 {
            let p = FaultPlan::random_outages(6, k, 42 + k as u64);
            assert_eq!(p.live_aps().len(), 6 - k);
        }
        // Different seeds pick different failure sets (with 6C2 = 15
        // choices, two fixed seeds colliding is possible but these don't).
        let a = FaultPlan::random_outages(6, 2, 1).live_aps();
        let b = FaultPlan::random_outages(6, 2, 4).live_aps();
        assert_ne!(a, b);
    }

    #[test]
    fn random_dead_elements_kills_dead_per_ap() {
        let p = FaultPlan::random_dead_elements(6, 8, 3, 5);
        for ap in 0..6 {
            let d = &p.ap(ap).dead_elements;
            assert_eq!(d.len(), 3);
            assert!(d.windows(2).all(|w| w[0] < w[1]), "sorted unique: {d:?}");
            assert!(d.iter().all(|&e| e < 8));
        }
    }

    #[test]
    #[should_panic(expected = "more APs than exist")]
    fn overfull_outage_rejected() {
        FaultPlan::random_outages(3, 4, 0);
    }
}
