//! Model-based property test for the session store: random streams of
//! submits, snapshots (hits and misses), clears, staleness ticks and
//! topology remaps run against both [`SessionStore`] and a plain model
//! — a map from key to its touch stamp and slots, where every submit
//! and every snapshot (hit or miss) takes the next stamp, and cap
//! pressure evicts the smallest stamp other than the writer's.
//!
//! After every op the store must agree with the model on:
//! - the resident session and spectrum counts (spectra never above the
//!   cap) and the lifetime created/evicted counters;
//! - every snapshot's `(ap_id, saturated age)` pairs, with the very
//!   same spectrum `Arc`s the model holds;
//! - the eviction order `golden_snapshot()` renders.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use at_core::AoaSpectrum;
use at_serve::{SessionPolicy, SessionStore, StoreStats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct ModelSlot {
    age0: u64,
    tick0: u64,
    spectrum: Arc<AoaSpectrum>,
}

struct ModelSession {
    seq: u64,
    slots: Vec<Option<ModelSlot>>,
}

impl ModelSession {
    fn spectra(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

/// The reference store: no locks, and the resident totals are
/// recomputed from the sessions themselves.
struct Model {
    n_aps: usize,
    cap: usize,
    seq: u64,
    tick: u64,
    sessions: BTreeMap<u64, ModelSession>,
    created: u64,
    evicted_cap: u64,
    evicted_topology: u64,
}

impl Model {
    fn new(n_aps: usize, cap: usize) -> Self {
        Self {
            n_aps,
            cap,
            seq: 0,
            tick: 0,
            sessions: BTreeMap::new(),
            created: 0,
            evicted_cap: 0,
            evicted_topology: 0,
        }
    }

    fn stamp(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn spectra(&self) -> usize {
        self.sessions.values().map(ModelSession::spectra).sum()
    }

    fn submit(&mut self, key: u64, ap: usize, age0: u64, spectrum: Arc<AoaSpectrum>) -> usize {
        let seq = self.stamp();
        let (n_aps, tick) = (self.n_aps, self.tick);
        if !self.sessions.contains_key(&key) {
            self.created += 1;
        }
        let session = self.sessions.entry(key).or_insert_with(|| ModelSession {
            seq,
            slots: (0..n_aps).map(|_| None).collect(),
        });
        session.seq = seq;
        session.slots[ap] = Some(ModelSlot {
            age0,
            tick0: tick,
            spectrum,
        });
        let held = session.spectra();
        while self.spectra() > self.cap {
            let victim = self
                .sessions
                .iter()
                .filter(|(&k, _)| k != key)
                .min_by_key(|(_, s)| s.seq)
                .map(|(&k, _)| k)
                .expect("a full session fits the cap, so another session exists");
            self.sessions.remove(&victim);
            self.evicted_cap += 1;
        }
        held
    }

    fn snapshot(&mut self, key: u64) -> Option<Vec<(u32, u64, Arc<AoaSpectrum>)>> {
        let seq = self.stamp();
        let tick = self.tick;
        let session = self.sessions.get_mut(&key)?;
        session.seq = seq;
        Some(
            session
                .slots
                .iter()
                .enumerate()
                .filter_map(|(ap, slot)| {
                    slot.as_ref().map(|s| {
                        let age = s.age0.saturating_add(tick - s.tick0);
                        (ap as u32, age, Arc::clone(&s.spectrum))
                    })
                })
                .collect(),
        )
    }

    fn remap(&mut self, old_to_new: &[Option<u32>], n_new: usize) {
        for session in self.sessions.values_mut() {
            let mut slots: Vec<Option<ModelSlot>> = (0..n_new).map(|_| None).collect();
            for (old, slot) in session.slots.drain(..).enumerate() {
                if let (Some(slot), Some(new)) = (slot, old_to_new[old]) {
                    slots[new as usize] = Some(slot);
                }
            }
            session.slots = slots;
        }
        let before = self.sessions.len();
        self.sessions.retain(|_, s| s.spectra() > 0);
        self.evicted_topology += (before - self.sessions.len()) as u64;
        self.n_aps = n_new;
    }

    fn eviction_order(&self) -> Vec<u64> {
        let mut order: Vec<(u64, u64)> = self.sessions.iter().map(|(&k, s)| (s.seq, k)).collect();
        order.sort_unstable();
        order.into_iter().map(|(_, k)| k).collect()
    }
}

/// An injective old→new AP mapping onto `1..=max_new` new ids that keeps
/// at least one AP (the shape every `SystemConfig::apply` mapping has).
fn random_mapping(seed: u64, n_old: usize, max_new: usize) -> (Vec<Option<u32>>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_new = rng.gen_range(1..max_new + 1);
    let mut ids: Vec<u32> = (0..n_new as u32).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    let mut old_to_new: Vec<Option<u32>> = (0..n_old)
        .map(|_| if rng.gen_bool(0.7) { ids.pop() } else { None })
        .collect();
    if old_to_new.iter().all(Option::is_none) {
        let keep = rng.gen_range(0..n_old);
        old_to_new[keep] = ids.pop(); // nothing was taken: `ids` is full
    }
    (old_to_new, n_new)
}

/// Submitted ages: small ones, and ones within a few ticks of `u64::MAX`
/// so saturation (never wrap-around) is exercised.
fn age_from(draw: u64) -> u64 {
    if draw.is_multiple_of(4) {
        u64::MAX - (draw >> 2) % 3
    } else {
        (draw >> 2) % 5
    }
}

fn eviction_order_line(store: &SessionStore) -> String {
    let golden = store.golden_snapshot();
    golden
        .lines()
        .find_map(|l| l.strip_prefix("eviction_order "))
        .expect("golden snapshot renders the eviction order")
        .to_string()
}

fn check_against(store: &SessionStore, model: &Model) {
    let stats = store.stats();
    let expected = StoreStats {
        resident_sessions: model.sessions.len() as u64,
        resident_spectra: model.spectra() as u64,
        created: model.created,
        evicted_idle: 0,
        evicted_cap: model.evicted_cap,
        evicted_topology: model.evicted_topology,
    };
    prop_assert_eq!(stats, expected);
    prop_assert!(stats.resident_spectra <= model.cap as u64);
    let order: Vec<String> = model.eviction_order().iter().map(u64::to_string).collect();
    prop_assert_eq!(eviction_order_line(store), order.join(","));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn store_matches_the_model_on_random_op_streams(
        n_aps in 1usize..7,
        cap_draw in 0usize..1000,
        // (kind, draw, draw): each kind reads its key, AP id, age or
        // mapping from the draws against the current AP count, so every
        // op stays in range across remaps.
        ops in proptest::collection::vec((0u8..10, 0u64..u64::MAX, 0u64..u64::MAX), 0..61),
    ) {
        let cap = n_aps + cap_draw % (2 * n_aps + 1);
        let store = SessionStore::new(
            n_aps,
            SessionPolicy {
                idle_timeout: Duration::from_secs(3600),
                max_resident_spectra: cap,
                reap_interval: Duration::from_secs(3600),
                refresh_interval: Duration::from_secs(3600),
            },
        );
        let mut model = Model::new(n_aps, cap);
        for (kind, a, b) in ops {
            match kind {
                0..=4 => {
                    let (key, ap, age) = (a % 8, (b as usize) % model.n_aps, age_from(b >> 8));
                    let spectrum = Arc::new(AoaSpectrum::from_values(vec![1.0 + (a % 97) as f64; 8]));
                    let want = model.submit(key, ap, age, Arc::clone(&spectrum));
                    prop_assert_eq!(store.submit(key, ap, age, spectrum), want);
                }
                5 | 6 => {
                    let key = a % 10;
                    let got = store.snapshot(key);
                    let want = model.snapshot(key);
                    prop_assert_eq!(got.is_some(), want.is_some(), "hit/miss of key {}", key);
                    prop_assert_eq!(got.as_ref().map(Vec::len), want.as_ref().map(Vec::len));
                    for (obs, (ap_id, age, spectrum)) in got.iter().flatten().zip(want.iter().flatten()) {
                        prop_assert_eq!((obs.ap_id, obs.age), (*ap_id, *age));
                        prop_assert!(Arc::ptr_eq(&obs.spectrum, spectrum), "a snapshot must share the submitted Arc");
                    }
                }
                7 => {
                    let key = a % 8;
                    prop_assert_eq!(store.clear(key), model.sessions.remove(&key).is_some());
                }
                8 => {
                    store.advance_tick();
                    model.tick += 1;
                }
                _ => {
                    // Never wider than the cap: a config whose cap cannot
                    // hold one full session is refused before any remap.
                    let (old_to_new, n_new) = random_mapping(a, model.n_aps, cap.min(6));
                    store.remap(&old_to_new, n_new);
                    model.remap(&old_to_new, n_new);
                }
            }
            check_against(&store, &model);
        }
    }
}
