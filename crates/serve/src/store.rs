//! The keyed session store: where AP ingestion meets application queries.
//!
//! The paper's Figure 1 deployment runs six AP processes streaming
//! processed spectra into one aggregation server while applications query
//! positions independently. This module is the server-side join point:
//! AP connections [`SessionStore::submit`] spectra tagged with a
//! [`ClientKey`], application connections [`SessionStore::snapshot`] a
//! key's accumulated spectra for fusion. Three properties the ROADMAP's
//! "millions of mostly-idle clients" goal demands:
//!
//! - **Sharded**: keys hash onto independent mutex-guarded shards, so six
//!   AP writers and many app readers do not serialize on one lock.
//! - **Atomic replacement**: each session holds one slot per deployment
//!   AP; a submit swaps the slot's `Arc<AoaSpectrum>` under the shard
//!   lock and a snapshot clones the `Arc`s under the same lock — a
//!   localize racing a mid-flight submit for the same key sees the old
//!   spectrum or the new one, never a torn mix
//!   (`crates/serve/tests/store_interleave.rs` drives the interleaving).
//! - **Bounded residency**: sessions idle past
//!   [`SessionPolicy::idle_timeout`] are reaped, and a hard cap on
//!   resident spectra evicts the least-recently-touched session when an
//!   insert would exceed it — so the store's memory is bounded by policy,
//!   not by offered load. Both paths are observable via the
//!   `at_serve_sessions_*` gauges/counters ([`at_obs::names`]).
//!
//! **Staleness**: every slot remembers the submission age and the store's
//! monotonic refresh tick at submit time; a snapshot reports
//! `age + (tick_now - tick_then)`, so an AP that goes silent watches its
//! spectra age out through the *existing* `HealthPolicy::max_spectrum_age`
//! path and a key served only by silent APs degrades into the same typed
//! `QuorumNotMet` the in-process server returns.

use crate::proto::ClientKey;
use at_core::AoaSpectrum;
use at_obs::metrics::{Counter, Gauge};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Residency and eviction policy — canonically defined in [`at_config`]
/// (it is part of the system fingerprint) and re-exported here for the
/// store's callers.
pub use at_config::SessionPolicy;

/// One AP's spectrum inside a session.
struct Slot {
    /// Age in refresh intervals, as submitted.
    age0: u64,
    /// The store's refresh tick when the spectrum was submitted.
    tick0: u64,
    /// The spectrum. Swapped whole under the shard lock — never mutated
    /// in place — so concurrent snapshots are torn-read free.
    spectrum: Arc<AoaSpectrum>,
}

/// One tracked client's accumulated state.
struct Session {
    /// Per-AP slots, indexed by deployment AP id.
    slots: Vec<Option<Slot>>,
    /// Spectra held (count of `Some` slots).
    spectra: usize,
    /// Monotonic touch stamp; the global eviction order is ascending
    /// `seq` (least-recently-touched first), wall-clock free so fixtures
    /// stay stable across refactors.
    seq: u64,
    /// Wall-clock of the last touch, for idle-timeout reaping.
    last_touch: Instant,
}

#[derive(Default)]
struct Shard {
    sessions: HashMap<ClientKey, Session>,
}

/// Resident totals, guarded by one mutex so the cap is enforced exactly:
/// the gauge never reads above the cap, even transiently, because every
/// mutation happens inside this lock (lock order: counts before shard).
#[derive(Default)]
struct Counts {
    sessions: usize,
    spectra: usize,
}

/// One observation as returned by [`SessionStore::snapshot`].
#[derive(Clone)]
pub struct KeyedObs {
    /// Deployment AP the spectrum came from.
    pub ap_id: u32,
    /// Effective age in refresh intervals: submitted age plus intervals
    /// elapsed since submission.
    pub age: u64,
    /// The spectrum (shared; replaced, never mutated, by later submits).
    pub spectrum: Arc<AoaSpectrum>,
}

/// Counters a [`SessionStore`] accumulates over its lifetime, surfaced in
/// the server's `StatsSnapshot`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Keyed sessions currently resident.
    pub resident_sessions: u64,
    /// Spectra currently resident (the capped quantity).
    pub resident_spectra: u64,
    /// Sessions created since the store was built.
    pub created: u64,
    /// Sessions evicted by the idle-timeout reaper.
    pub evicted_idle: u64,
    /// Sessions evicted by cap pressure.
    pub evicted_cap: u64,
    /// Sessions evicted because a topology change left them empty (every
    /// spectrum they held came from departed/moved APs).
    pub evicted_topology: u64,
}

/// What a topology remap did to the store's resident state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RemapStats {
    /// Spectra dropped because their AP departed or moved.
    pub spectra_dropped: u64,
    /// Sessions evicted because the drop left them empty.
    pub sessions_evicted: u64,
}

/// The sharded keyed session store. See the module docs for semantics.
pub struct SessionStore {
    shards: Vec<Mutex<Shard>>,
    counts: Mutex<Counts>,
    /// Per-session slot width — the *current epoch's* AP count. Written
    /// only by [`SessionStore::remap`] (under the counts lock, with every
    /// session rewritten to the new width in the same critical section),
    /// read by submits.
    n_aps: AtomicUsize,
    policy: SessionPolicy,
    seq: AtomicU64,
    tick: AtomicU64,
    created: AtomicU64,
    evicted_idle: AtomicU64,
    evicted_cap: AtomicU64,
    evicted_topology: AtomicU64,
    g_sessions: Arc<Gauge>,
    g_spectra: Arc<Gauge>,
    c_created: Arc<Counter>,
    c_evicted_idle: Arc<Counter>,
    c_evicted_cap: Arc<Counter>,
    c_evicted_topology: Arc<Counter>,
    c_submits: Arc<Counter>,
}

impl SessionStore {
    /// An empty store for a deployment of `n_aps` APs under `policy`.
    ///
    /// # Panics
    /// Panics on an invalid policy, zero APs, or a cap smaller than one
    /// full session (`n_aps` spectra) — the cap must never force a
    /// session to evict itself.
    pub fn new(n_aps: usize, policy: SessionPolicy) -> Self {
        if let Err(e) = policy.check() {
            panic!("{e}");
        }
        assert!(n_aps >= 1, "a store needs at least one AP slot");
        assert!(
            policy.max_resident_spectra >= n_aps,
            "the resident-spectra cap must fit one full session"
        );
        let reg = at_obs::global();
        Self {
            shards: (0..policy.shards).map(|_| Mutex::default()).collect(),
            counts: Mutex::default(),
            n_aps: AtomicUsize::new(n_aps),
            policy,
            seq: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            created: AtomicU64::new(0),
            evicted_idle: AtomicU64::new(0),
            evicted_cap: AtomicU64::new(0),
            evicted_topology: AtomicU64::new(0),
            g_sessions: reg.gauge(at_obs::names::SERVE_SESSIONS_RESIDENT, &[]),
            g_spectra: reg.gauge(at_obs::names::SERVE_SESSIONS_SPECTRA_RESIDENT, &[]),
            c_created: reg.counter(at_obs::names::SERVE_SESSIONS_CREATED_TOTAL, &[]),
            c_evicted_idle: reg.counter(
                at_obs::names::SERVE_SESSIONS_EVICTED_TOTAL,
                &[("reason", "idle")],
            ),
            c_evicted_cap: reg.counter(
                at_obs::names::SERVE_SESSIONS_EVICTED_TOTAL,
                &[("reason", "cap")],
            ),
            c_evicted_topology: reg.counter(
                at_obs::names::SERVE_SESSIONS_EVICTED_TOTAL,
                &[("reason", "topology")],
            ),
            c_submits: reg.counter(at_obs::names::SERVE_SESSIONS_SUBMITS_TOTAL, &[]),
        }
    }

    /// The policy the store was built with.
    pub(crate) fn policy(&self) -> &SessionPolicy {
        &self.policy
    }

    /// The current epoch's AP count (per-session slot width).
    pub(crate) fn n_aps(&self) -> usize {
        self.n_aps.load(Ordering::Acquire)
    }

    fn shard_of(&self, key: ClientKey) -> usize {
        // Fibonacci hashing: adjacent keys land on different shards.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.shards.len()
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Stores AP `ap_id`'s spectrum for `key` (replacing that AP's
    /// previous one atomically) and returns the key's resident spectrum
    /// count. Enforces the resident cap before returning: the
    /// least-recently-touched *other* sessions are evicted until the
    /// insert fits.
    ///
    /// # Panics
    /// Panics if `ap_id` is out of range (the server validates first and
    /// answers with a protocol error instead).
    pub fn submit(
        &self,
        key: ClientKey,
        ap_id: usize,
        age: u64,
        spectrum: Arc<AoaSpectrum>,
    ) -> usize {
        let now = Instant::now();
        let tick = self.tick.load(Ordering::Acquire);
        let seq = self.next_seq();
        let mut counts = self.counts.lock().expect("counts poisoned");
        // Validated under the counts lock so the check and the insert see
        // the same epoch (remaps rewrite the width inside this lock).
        let n_aps = self.n_aps();
        assert!(ap_id < n_aps, "ap_id out of range");
        let (added, created, observations) = {
            let mut shard = self.shards[self.shard_of(key)]
                .lock()
                .expect("shard poisoned");
            let (session, created) = match shard.sessions.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => (e.into_mut(), false),
                std::collections::hash_map::Entry::Vacant(e) => (
                    e.insert(Session {
                        slots: (0..n_aps).map(|_| None).collect(),
                        spectra: 0,
                        seq,
                        last_touch: now,
                    }),
                    true,
                ),
            };
            let added = session.slots[ap_id].is_none();
            session.slots[ap_id] = Some(Slot {
                age0: age,
                tick0: tick,
                spectrum,
            });
            if added {
                session.spectra += 1;
            }
            session.seq = seq;
            session.last_touch = now;
            (added, created, session.spectra)
        };
        if created {
            counts.sessions += 1;
            self.created.fetch_add(1, Ordering::Relaxed);
            self.c_created.inc();
        }
        if added {
            counts.spectra += 1;
        }
        self.c_submits.inc();
        // Cap enforcement, still under the counts lock: evict
        // least-recently-touched sessions (never the one just written)
        // until the store fits.
        while counts.spectra > self.policy.max_resident_spectra {
            let Some((victim, shard_idx)) = self.oldest_except(key) else {
                break; // only the inserting session remains; cap >= n_aps keeps this in bounds
            };
            let removed = self.shards[shard_idx]
                .lock()
                .expect("shard poisoned")
                .sessions
                .remove(&victim)
                .map_or(0, |s| s.spectra);
            if removed > 0 || victim != key {
                counts.sessions = counts.sessions.saturating_sub(1);
                counts.spectra = counts.spectra.saturating_sub(removed);
                self.evicted_cap.fetch_add(1, Ordering::Relaxed);
                self.c_evicted_cap.inc();
            }
        }
        self.publish(&counts);
        observations
    }

    /// The least-recently-touched session other than `except`, as
    /// `(key, shard index)`. Called under the counts lock.
    fn oldest_except(&self, except: ClientKey) -> Option<(ClientKey, usize)> {
        let mut best: Option<(u64, ClientKey, usize)> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock().expect("shard poisoned");
            for (&key, session) in &shard.sessions {
                if key == except {
                    continue;
                }
                if best.is_none_or(|(seq, _, _)| session.seq < seq) {
                    best = Some((session.seq, key, i));
                }
            }
        }
        best.map(|(_, key, shard)| (key, shard))
    }

    /// Atomically snapshots the spectra resident for `key`, ordered by AP
    /// id, with staleness-aged `age`s; `None` when the key holds no
    /// session (never submitted, or evicted). Counts as a touch for
    /// idle/eviction purposes.
    pub fn snapshot(&self, key: ClientKey) -> Option<Vec<KeyedObs>> {
        let tick = self.tick.load(Ordering::Acquire);
        let seq = self.next_seq();
        let mut shard = self.shards[self.shard_of(key)]
            .lock()
            .expect("shard poisoned");
        let session = shard.sessions.get_mut(&key)?;
        session.seq = seq;
        session.last_touch = Instant::now();
        Some(
            session
                .slots
                .iter()
                .enumerate()
                .filter_map(|(ap, slot)| {
                    slot.as_ref().map(|s| KeyedObs {
                        ap_id: ap as u32,
                        age: s.age0 + (tick - s.tick0),
                        spectrum: Arc::clone(&s.spectrum),
                    })
                })
                .collect(),
        )
    }

    /// Drops `key`'s session entirely. Returns whether one existed.
    pub fn clear(&self, key: ClientKey) -> bool {
        let mut counts = self.counts.lock().expect("counts poisoned");
        let removed = self.shards[self.shard_of(key)]
            .lock()
            .expect("shard poisoned")
            .sessions
            .remove(&key);
        let Some(session) = removed else { return false };
        counts.sessions = counts.sessions.saturating_sub(1);
        counts.spectra = counts.spectra.saturating_sub(session.spectra);
        self.publish(&counts);
        true
    }

    /// Advances the staleness clock by one refresh interval: every
    /// resident spectrum is now one interval older.
    pub fn advance_tick(&self) {
        self.tick.fetch_add(1, Ordering::Release);
    }

    /// Current staleness tick (intervals since the store was built).
    pub(crate) fn tick(&self) -> u64 {
        self.tick.load(Ordering::Acquire)
    }

    /// Evicts every session idle past the policy's timeout, as of `now`.
    /// Returns the evicted keys (empty when nothing was idle) — the
    /// capture journal records them so a replay can apply the same
    /// evictions at the same point in the event order.
    pub(crate) fn reap_idle(&self, now: Instant) -> Vec<ClientKey> {
        let mut counts = self.counts.lock().expect("counts poisoned");
        let mut evicted: Vec<ClientKey> = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock().expect("shard poisoned");
            let expired: Vec<ClientKey> = shard
                .sessions
                .iter()
                .filter(|(_, s)| {
                    now.saturating_duration_since(s.last_touch) > self.policy.idle_timeout
                })
                .map(|(&k, _)| k)
                .collect();
            for key in expired {
                if let Some(session) = shard.sessions.remove(&key) {
                    counts.sessions = counts.sessions.saturating_sub(1);
                    counts.spectra = counts.spectra.saturating_sub(session.spectra);
                    evicted.push(key);
                }
            }
        }
        if !evicted.is_empty() {
            self.evicted_idle
                .fetch_add(evicted.len() as u64, Ordering::Relaxed);
            self.c_evicted_idle.add(evicted.len() as u64);
            self.publish(&counts);
        }
        evicted
    }

    /// Carries the store across a topology epoch. `old_to_new[i]` is the
    /// new id inheriting old AP `i`'s spectra (`None` drops them — the AP
    /// departed or moved); `n_new` is the new epoch's AP count. Sessions
    /// left with zero spectra are evicted (`reason="topology"` on the
    /// eviction counter): a key served only by a departed AP degrades to
    /// the same `NoObservations`/`QuorumNotMet` conditions an evicted or
    /// silent session already produces — a typed refusal, never a panic.
    ///
    /// Runs under the counts lock and takes every shard lock in turn, so
    /// the caller-observable switch from old width to new is atomic with
    /// respect to submits (which validate `ap_id` under the same counts
    /// lock).
    pub fn remap(&self, old_to_new: &[Option<u32>], n_new: usize) -> RemapStats {
        assert!(n_new >= 1, "an epoch needs at least one AP slot");
        let mut counts = self.counts.lock().expect("counts poisoned");
        let mut stats = RemapStats::default();
        for shard in &self.shards {
            let mut shard = shard.lock().expect("shard poisoned");
            shard.sessions.retain(|_, session| {
                let mut slots: Vec<Option<Slot>> = (0..n_new).map(|_| None).collect();
                let mut kept = 0usize;
                for (old, slot) in session.slots.drain(..).enumerate() {
                    let Some(slot) = slot else { continue };
                    match old_to_new.get(old).copied().flatten() {
                        Some(new) if (new as usize) < n_new => {
                            slots[new as usize] = Some(slot);
                            kept += 1;
                        }
                        _ => stats.spectra_dropped += 1,
                    }
                }
                session.slots = slots;
                session.spectra = kept;
                if kept == 0 {
                    stats.sessions_evicted += 1;
                }
                kept > 0
            });
        }
        counts.spectra = counts
            .spectra
            .saturating_sub(stats.spectra_dropped as usize);
        counts.sessions = counts
            .sessions
            .saturating_sub(stats.sessions_evicted as usize);
        self.n_aps.store(n_new, Ordering::Release);
        if stats.sessions_evicted > 0 {
            self.evicted_topology
                .fetch_add(stats.sessions_evicted, Ordering::Relaxed);
            self.c_evicted_topology.add(stats.sessions_evicted);
        }
        self.publish(&counts);
        stats
    }

    fn publish(&self, counts: &MutexGuard<'_, Counts>) {
        self.g_sessions.set(counts.sessions as f64);
        self.g_spectra.set(counts.spectra as f64);
    }

    /// Lifetime counters and current residency.
    pub fn stats(&self) -> StoreStats {
        let counts = self.counts.lock().expect("counts poisoned");
        StoreStats {
            resident_sessions: counts.sessions as u64,
            resident_spectra: counts.spectra as u64,
            created: self.created.load(Ordering::Relaxed),
            evicted_idle: self.evicted_idle.load(Ordering::Relaxed),
            evicted_cap: self.evicted_cap.load(Ordering::Relaxed),
            evicted_topology: self.evicted_topology.load(Ordering::Relaxed),
        }
    }

    /// Keys in eviction order (least-recently-touched first) — the order
    /// cap pressure would remove them. Wall-clock free (driven by the
    /// monotonic touch stamps), so the order is stable across refactors
    /// and machines; the golden-fixture test pins it.
    pub(crate) fn eviction_order(&self) -> Vec<ClientKey> {
        let mut all: Vec<(u64, ClientKey)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("shard poisoned");
            all.extend(shard.sessions.iter().map(|(&k, s)| (s.seq, k)));
        }
        all.sort_unstable();
        all.into_iter().map(|(_, k)| k).collect()
    }

    /// A deterministic text rendering of the store's resident state:
    /// sessions in eviction order, slots in AP order, spectra summarized
    /// bit-exactly (`to_bits` of the first bin and of the bin sum). No
    /// wall-clock values — only logical stamps — so the same submission
    /// sequence always renders the same bytes (the golden fixture under
    /// `tests/fixtures/` holds one).
    pub fn golden_snapshot(&self) -> String {
        let mut out = String::new();
        let order = self.eviction_order();
        let counts = self.counts.lock().expect("counts poisoned");
        let _ = writeln!(
            out,
            "session_store n_aps={} tick={} sessions={} spectra={}",
            self.n_aps(),
            self.tick(),
            counts.sessions,
            counts.spectra
        );
        drop(counts);
        for key in &order {
            let shard = self.shards[self.shard_of(*key)]
                .lock()
                .expect("shard poisoned");
            let Some(session) = shard.sessions.get(key) else {
                continue;
            };
            let _ = writeln!(
                out,
                "session key={} seq={} spectra={}",
                key, session.seq, session.spectra
            );
            for (ap, slot) in session.slots.iter().enumerate() {
                let Some(slot) = slot else { continue };
                let values = slot.spectrum.values();
                let sum: f64 = values.iter().copied().sum();
                let _ = writeln!(
                    out,
                    "  slot ap={} age0={} tick0={} bins={} first={:#018x} sum={:#018x}",
                    ap,
                    slot.age0,
                    slot.tick0,
                    values.len(),
                    values[0].to_bits(),
                    sum.to_bits()
                );
            }
        }
        let _ = writeln!(
            out,
            "eviction_order {}",
            order
                .iter()
                .map(|k| k.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spectrum(level: f64) -> Arc<AoaSpectrum> {
        Arc::new(AoaSpectrum::from_fn(16, |t| t.sin().abs() + level))
    }

    fn policy(cap: usize) -> SessionPolicy {
        SessionPolicy {
            idle_timeout: Duration::from_secs(60),
            max_resident_spectra: cap,
            reap_interval: Duration::from_millis(10),
            refresh_interval: Duration::from_millis(10),
            shards: 4,
        }
    }

    #[test]
    fn submit_and_snapshot_roundtrip_in_ap_order() {
        let store = SessionStore::new(3, policy(100));
        assert_eq!(store.submit(9, 2, 0, spectrum(0.1)), 1);
        assert_eq!(store.submit(9, 0, 1, spectrum(0.2)), 2);
        // Replacing a slot does not grow the session.
        assert_eq!(store.submit(9, 2, 0, spectrum(0.3)), 2);
        let snap = store.snapshot(9).expect("resident");
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].ap_id, 0);
        assert_eq!(snap[1].ap_id, 2);
        assert_eq!(snap[0].age, 1);
        assert!(store.snapshot(10).is_none());
        let stats = store.stats();
        assert_eq!(stats.resident_sessions, 1);
        assert_eq!(stats.resident_spectra, 2);
        assert_eq!(stats.created, 1);
    }

    #[test]
    fn staleness_ages_with_the_tick() {
        let store = SessionStore::new(2, policy(100));
        store.submit(1, 0, 1, spectrum(0.5));
        store.advance_tick();
        store.advance_tick();
        // Submitted at tick 2: ages from its own submission tick.
        store.submit(1, 1, 0, spectrum(0.5));
        store.advance_tick();
        let snap = store.snapshot(1).expect("resident");
        assert_eq!(snap[0].age, 1 + 3); // age0 1, submitted at tick 0, now 3
        assert_eq!(snap[1].age, 1); // age0 0, submitted at tick 2, now 3
    }

    #[test]
    fn cap_evicts_least_recently_touched_first() {
        let store = SessionStore::new(2, policy(4));
        store.submit(1, 0, 0, spectrum(0.1));
        store.submit(1, 1, 0, spectrum(0.1));
        store.submit(2, 0, 0, spectrum(0.2));
        store.submit(2, 1, 0, spectrum(0.2));
        // Touch 1 so 2 becomes the eviction candidate.
        store.snapshot(1).expect("resident");
        assert_eq!(store.eviction_order(), vec![2, 1]);
        // A third session over the cap displaces 2, not 1.
        store.submit(3, 0, 0, spectrum(0.3));
        assert!(store.snapshot(2).is_none(), "oldest session must go");
        assert!(store.snapshot(1).is_some());
        assert!(store.snapshot(3).is_some());
        let stats = store.stats();
        assert_eq!(stats.evicted_cap, 1);
        assert!(stats.resident_spectra <= 4);
    }

    #[test]
    fn cap_never_evicts_the_inserting_session() {
        let store = SessionStore::new(2, policy(2));
        store.submit(7, 0, 0, spectrum(0.1));
        store.submit(7, 1, 0, spectrum(0.1));
        // Replacements at the cap keep the session intact.
        store.submit(7, 0, 0, spectrum(0.4));
        assert_eq!(store.snapshot(7).expect("resident").len(), 2);
        assert_eq!(store.stats().evicted_cap, 0);
    }

    #[test]
    fn reap_evicts_only_idle_sessions() {
        let p = SessionPolicy {
            idle_timeout: Duration::from_millis(20),
            ..policy(100)
        };
        let store = SessionStore::new(1, p);
        store.submit(1, 0, 0, spectrum(0.1));
        std::thread::sleep(Duration::from_millis(40));
        store.submit(2, 0, 0, spectrum(0.2));
        assert_eq!(store.reap_idle(Instant::now()), vec![1]);
        assert!(store.snapshot(1).is_none());
        assert!(store.snapshot(2).is_some());
        assert_eq!(store.stats().evicted_idle, 1);
    }

    #[test]
    fn clear_removes_and_recounts() {
        let store = SessionStore::new(2, policy(100));
        store.submit(5, 0, 0, spectrum(0.1));
        store.submit(5, 1, 0, spectrum(0.1));
        assert!(store.clear(5));
        assert!(!store.clear(5));
        assert_eq!(store.stats().resident_spectra, 0);
        assert_eq!(store.stats().resident_sessions, 0);
    }

    #[test]
    #[should_panic(expected = "fit one full session")]
    fn cap_below_one_session_is_rejected() {
        SessionStore::new(6, policy(3));
    }

    #[test]
    fn remap_moves_drops_and_evicts() {
        let store = SessionStore::new(3, policy(100));
        // Session 1 spans APs 0 and 2; session 2 lives only on AP 1.
        store.submit(1, 0, 0, spectrum(0.1));
        store.submit(1, 2, 0, spectrum(0.2));
        store.submit(2, 1, 0, spectrum(0.3));
        let before = store.snapshot(1).expect("resident");
        // Remove AP 1: ids 0 and 2 survive as 0 and 1.
        let stats = store.remap(&[Some(0), None, Some(1)], 2);
        assert_eq!(stats.spectra_dropped, 1);
        assert_eq!(stats.sessions_evicted, 1);
        assert_eq!(store.n_aps(), 2);
        assert!(store.snapshot(2).is_none(), "AP-1-only session evicted");
        let after = store.snapshot(1).expect("survives");
        assert_eq!(after.len(), 2);
        assert_eq!(after[0].ap_id, 0);
        assert_eq!(after[1].ap_id, 1);
        // Spectra carried bit-exactly under the new ids.
        assert!(Arc::ptr_eq(&before[0].spectrum, &after[0].spectrum));
        assert!(Arc::ptr_eq(&before[1].spectrum, &after[1].spectrum));
        let s = store.stats();
        assert_eq!(s.resident_sessions, 1);
        assert_eq!(s.resident_spectra, 2);
        assert_eq!(s.evicted_topology, 1);
        // A joiner widens the store; old spectra keep their ids.
        store.remap(&[Some(0), Some(1)], 3);
        assert_eq!(store.n_aps(), 3);
        store.submit(1, 2, 0, spectrum(0.4));
        assert_eq!(store.snapshot(1).expect("resident").len(), 3);
    }

    #[test]
    fn remap_identity_is_a_noop() {
        let store = SessionStore::new(2, policy(100));
        store.submit(7, 0, 0, spectrum(0.5));
        store.submit(7, 1, 0, spectrum(0.6));
        let before = store.golden_snapshot();
        let stats = store.remap(&[Some(0), Some(1)], 2);
        assert_eq!(stats.spectra_dropped, 0);
        assert_eq!(stats.sessions_evicted, 0);
        assert_eq!(store.golden_snapshot(), before);
    }
}
