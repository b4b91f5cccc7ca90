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
//! - **One lock**: all sessions, the resident totals, the touch stamps
//!   and the staleness tick sit under one mutex. Writers serialize anyway
//!   — the cap is a store-wide total and a cap eviction scans every
//!   session for the least-recently-touched one — so sharding the map
//!   would only let snapshots past a lock every submit must take. Each
//!   critical section is a hash lookup and a few `Arc` clones.
//! - **Atomic replacement**: each session holds one slot per deployment
//!   AP; a submit swaps the slot's `Arc<AoaSpectrum>` under the lock and a
//!   snapshot clones the `Arc`s under the same lock — a localize racing a
//!   mid-flight submit for the same key sees the old spectrum or the new
//!   one, never a torn mix (`crates/serve/tests/store_interleave.rs`
//!   drives the interleaving).
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
    /// The spectrum. Swapped whole under the store lock — never mutated
    /// in place — so concurrent snapshots are torn-read free.
    spectrum: Arc<AoaSpectrum>,
}

/// One tracked client's accumulated state.
struct Session {
    /// Per-AP slots, indexed by deployment AP id.
    slots: Vec<Option<Slot>>,
    /// Spectra held (count of `Some` slots).
    spectra: usize,
    /// Monotonic touch stamp; the eviction order is ascending `seq`
    /// (least-recently-touched first), wall-clock free so fixtures stay
    /// stable across refactors.
    seq: u64,
    /// Wall-clock of the last touch, for idle-timeout reaping.
    last_touch: Instant,
}

/// Everything the store's one lock guards. Every mutation happens inside
/// it, so the spectra gauge never reads above the cap, even transiently,
/// and a snapshot always sees `tick0 <= tick`.
struct Inner {
    sessions: HashMap<ClientKey, Session>,
    /// Spectra held across all sessions (the capped quantity).
    spectra: usize,
    /// Last touch stamp handed out.
    seq: u64,
    /// Staleness tick: refresh intervals since the store was built.
    tick: u64,
    /// Per-session slot width — the *current epoch's* AP count. Written
    /// only by [`SessionStore::remap`], together with every session's
    /// slots.
    n_aps: usize,
    created: u64,
    evicted_idle: u64,
    evicted_cap: u64,
    evicted_topology: u64,
}

impl Inner {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// The least-recently-touched session other than `except`.
    fn oldest_except(&self, except: ClientKey) -> Option<ClientKey> {
        self.sessions
            .iter()
            .filter(|(&key, _)| key != except)
            .min_by_key(|(_, session)| session.seq)
            .map(|(&key, _)| key)
    }

    /// Removes `key`'s session and takes its spectra off the total.
    fn remove(&mut self, key: ClientKey) -> bool {
        let Some(session) = self.sessions.remove(&key) else {
            return false;
        };
        self.spectra -= session.spectra;
        true
    }

    /// Keys in eviction order (least-recently-touched first).
    fn eviction_order(&self) -> Vec<ClientKey> {
        let mut all: Vec<(u64, ClientKey)> =
            self.sessions.iter().map(|(&k, s)| (s.seq, k)).collect();
        all.sort_unstable();
        all.into_iter().map(|(_, k)| k).collect()
    }
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

/// The keyed session store: one mutex over all sessions and totals. See
/// the module docs for semantics.
pub struct SessionStore {
    inner: Mutex<Inner>,
    policy: SessionPolicy,
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
            inner: Mutex::new(Inner {
                sessions: HashMap::new(),
                spectra: 0,
                seq: 0,
                tick: 0,
                n_aps,
                created: 0,
                evicted_idle: 0,
                evicted_cap: 0,
                evicted_topology: 0,
            }),
            policy,
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

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("session store poisoned")
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
        let mut inner = self.lock();
        let seq = inner.next_seq();
        let (tick, n_aps) = (inner.tick, inner.n_aps);
        assert!(ap_id < n_aps, "ap_id out of range");
        let created = !inner.sessions.contains_key(&key);
        let session = inner.sessions.entry(key).or_insert_with(|| Session {
            slots: (0..n_aps).map(|_| None).collect(),
            spectra: 0,
            seq,
            last_touch: now,
        });
        let slot = Slot {
            age0: age,
            tick0: tick,
            spectrum,
        };
        let added = session.slots[ap_id].replace(slot).is_none();
        session.spectra += usize::from(added);
        session.seq = seq;
        session.last_touch = now;
        let observations = session.spectra;
        inner.spectra += usize::from(added);
        if created {
            inner.created += 1;
            self.c_created.inc();
        }
        self.c_submits.inc();
        // Evict least-recently-touched sessions (never the one just
        // written) until the store fits; cap >= n_aps means the writer
        // alone always fits.
        while inner.spectra > self.policy.max_resident_spectra {
            let Some(victim) = inner.oldest_except(key) else {
                break;
            };
            inner.remove(victim);
            inner.evicted_cap += 1;
            self.c_evicted_cap.inc();
        }
        self.publish(&inner);
        observations
    }

    /// Atomically snapshots the spectra resident for `key`, ordered by AP
    /// id, with staleness-aged `age`s; `None` when the key holds no
    /// session (never submitted, or evicted). Counts as a touch for
    /// idle/eviction purposes (a miss still takes a touch stamp).
    pub fn snapshot(&self, key: ClientKey) -> Option<Vec<KeyedObs>> {
        let mut inner = self.lock();
        let seq = inner.next_seq();
        let tick = inner.tick;
        let session = inner.sessions.get_mut(&key)?;
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
                        // The submitted age comes off the wire: saturate,
                        // so a huge one stays stale instead of wrapping.
                        age: s.age0.saturating_add(tick - s.tick0),
                        spectrum: Arc::clone(&s.spectrum),
                    })
                })
                .collect(),
        )
    }

    /// Drops `key`'s session entirely. Returns whether one existed.
    pub fn clear(&self, key: ClientKey) -> bool {
        let mut inner = self.lock();
        let removed = inner.remove(key);
        if removed {
            self.publish(&inner);
        }
        removed
    }

    /// Advances the staleness clock by one refresh interval: every
    /// resident spectrum is now one interval older.
    pub fn advance_tick(&self) {
        self.lock().tick += 1;
    }

    /// Evicts every session idle past the policy's timeout, as of `now`.
    /// Returns the evicted keys (empty when nothing was idle) — the
    /// capture journal records them so a replay can apply the same
    /// evictions at the same point in the event order.
    pub(crate) fn reap_idle(&self, now: Instant) -> Vec<ClientKey> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let mut evicted: Vec<ClientKey> = Vec::new();
        inner.sessions.retain(|&key, session| {
            let idle = now.saturating_duration_since(session.last_touch) > self.policy.idle_timeout;
            if idle {
                inner.spectra -= session.spectra;
                evicted.push(key);
            }
            !idle
        });
        if !evicted.is_empty() {
            inner.evicted_idle += evicted.len() as u64;
            self.c_evicted_idle.add(evicted.len() as u64);
            self.publish(inner);
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
    /// The width switch and the slot rewrite happen under the store lock,
    /// so every submit sees either the old epoch's width or the new one.
    pub fn remap(&self, old_to_new: &[Option<u32>], n_new: usize) {
        assert!(n_new >= 1, "an epoch needs at least one AP slot");
        let mut guard = self.lock();
        let inner = &mut *guard;
        let before = inner.sessions.len();
        inner.sessions.retain(|_, session| {
            let mut slots: Vec<Option<Slot>> = (0..n_new).map(|_| None).collect();
            let mut kept = 0usize;
            for (old, slot) in session.slots.drain(..).enumerate() {
                let Some(slot) = slot else { continue };
                let new = old_to_new.get(old).copied().flatten();
                if let Some(new) = new.filter(|&n| (n as usize) < n_new) {
                    slots[new as usize] = Some(slot);
                    kept += 1;
                }
            }
            inner.spectra -= session.spectra - kept;
            session.slots = slots;
            session.spectra = kept;
            kept > 0
        });
        let evicted = (before - inner.sessions.len()) as u64;
        inner.n_aps = n_new;
        if evicted > 0 {
            inner.evicted_topology += evicted;
            self.c_evicted_topology.add(evicted);
        }
        self.publish(inner);
    }

    fn publish(&self, inner: &Inner) {
        self.g_sessions.set(inner.sessions.len() as f64);
        self.g_spectra.set(inner.spectra as f64);
    }

    /// Lifetime counters and current residency.
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        StoreStats {
            resident_sessions: inner.sessions.len() as u64,
            resident_spectra: inner.spectra as u64,
            created: inner.created,
            evicted_idle: inner.evicted_idle,
            evicted_cap: inner.evicted_cap,
            evicted_topology: inner.evicted_topology,
        }
    }

    /// A deterministic text rendering of the store's resident state:
    /// sessions in eviction order (least-recently-touched first, the order
    /// cap pressure would remove them), slots in AP order, spectra
    /// summarized bit-exactly (`to_bits` of the first bin and of the bin
    /// sum). No wall-clock values — only logical stamps — so the same
    /// submission sequence always renders the same bytes (the golden
    /// fixture under `tests/fixtures/` holds one).
    pub fn golden_snapshot(&self) -> String {
        let inner = self.lock();
        let order = inner.eviction_order();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "session_store n_aps={} tick={} sessions={} spectra={}",
            inner.n_aps,
            inner.tick,
            inner.sessions.len(),
            inner.spectra
        );
        for key in &order {
            let session = &inner.sessions[key];
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
    fn a_huge_submitted_age_saturates_instead_of_wrapping() {
        let store = SessionStore::new(2, policy(100));
        store.submit(1, 0, u64::MAX, spectrum(0.5));
        store.advance_tick();
        assert_eq!(store.snapshot(1).expect("resident")[0].age, u64::MAX);
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
        assert_eq!(store.lock().eviction_order(), vec![2, 1]);
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
        store.remap(&[Some(0), None, Some(1)], 2);
        assert_eq!(store.lock().n_aps, 2);
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
        assert_eq!(store.lock().n_aps, 3);
        store.submit(1, 2, 0, spectrum(0.4));
        assert_eq!(store.snapshot(1).expect("resident").len(), 3);
    }

    #[test]
    fn remap_identity_is_a_noop() {
        let store = SessionStore::new(2, policy(100));
        store.submit(7, 0, 0, spectrum(0.5));
        store.submit(7, 1, 0, spectrum(0.6));
        let (before, stats) = (store.golden_snapshot(), store.stats());
        store.remap(&[Some(0), Some(1)], 2);
        assert_eq!(store.golden_snapshot(), before);
        assert_eq!(store.stats(), stats);
    }
}
