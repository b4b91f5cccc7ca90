//! Barrier-driven interleaving tests for the session store's one
//! hazardous surface: a localize snapshot racing a submit for the same
//! key must see the old spectrum or the new one *whole* — never a torn
//! mix of both.
//!
//! The store's guarantee comes from replacing each slot's
//! `Arc<AoaSpectrum>` under the store lock instead of mutating bins in
//! place. These tests drive writer/reader pairs through a barrier so
//! every round actually overlaps, then assert that every observed
//! spectrum is one of the two well-formed generations — any in-place
//! mutation scheme fails this in a handful of rounds.
//!
//! The staleness tick is the other shared input a snapshot reads, under
//! the same lock; a tick-and-submit pair racing a snapshot must never age
//! a spectrum below zero.

use at_core::AoaSpectrum;
use at_serve::{SessionPolicy, SessionStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

const BINS: usize = 256;
const ROUNDS: usize = 200;

/// A spectrum whose every bin encodes its generation: torn mixes are
/// detectable by scanning for two different values.
fn generation_spectrum(generation: u64) -> Arc<AoaSpectrum> {
    let level = 1.0 + generation as f64;
    Arc::new(AoaSpectrum::from_fn(BINS, move |_| level))
}

fn store() -> SessionStore {
    SessionStore::new(
        2,
        SessionPolicy {
            idle_timeout: Duration::from_secs(3600),
            max_resident_spectra: 16,
            reap_interval: Duration::from_secs(3600),
            refresh_interval: Duration::from_secs(3600),
        },
    )
}

/// The level every bin of a snapshot carries, panicking on a torn read.
fn uniform_level(snapshot: &AoaSpectrum) -> f64 {
    let values = snapshot.values();
    let first = values[0];
    for (bin, &v) in values.iter().enumerate() {
        assert!(
            v.to_bits() == first.to_bits(),
            "torn spectrum: bin 0 reads {first}, bin {bin} reads {v}"
        );
    }
    first
}

#[test]
fn concurrent_submit_and_snapshot_never_tear_a_spectrum() {
    let store = Arc::new(store());
    store.submit(1, 0, 0, generation_spectrum(0));
    let start = Arc::new(Barrier::new(2));

    let writer = {
        let store = Arc::clone(&store);
        let start = Arc::clone(&start);
        thread::spawn(move || {
            for generation in 1..=ROUNDS as u64 {
                start.wait(); // overlap this submit with one snapshot
                store.submit(1, 0, 0, generation_spectrum(generation));
            }
        })
    };

    let mut last_seen = 0.0f64;
    for _ in 0..ROUNDS {
        start.wait();
        let snap = store.snapshot(1).expect("resident");
        assert_eq!(snap.len(), 1);
        let level = uniform_level(&snap[0].spectrum);
        // Old or new, and never moving backwards: generations only grow.
        assert!(
            level >= last_seen,
            "snapshot regressed from generation {last_seen} to {level}"
        );
        last_seen = level;
    }
    writer.join().expect("writer");

    // After the storm the final generation is visible, whole.
    let snap = store.snapshot(1).expect("resident");
    assert_eq!(uniform_level(&snap[0].spectrum), 1.0 + ROUNDS as f64);
}

#[test]
fn a_snapshot_outlives_the_submit_that_replaces_it() {
    // The race the fix is about, in its sharpest form: a reader holds a
    // snapshot while the writer replaces the slot. The snapshot's Arc
    // must keep the *old* generation intact — replacement may not mutate
    // what the reader already holds.
    let store = store();
    store.submit(5, 1, 0, generation_spectrum(7));
    let held = store.snapshot(5).expect("resident");
    store.submit(5, 1, 0, generation_spectrum(8));
    assert_eq!(uniform_level(&held[0].spectrum), 8.0); // generation 7 level = 1+7
    let fresh = store.snapshot(5).expect("resident");
    assert_eq!(uniform_level(&fresh[0].spectrum), 9.0); // generation 8 level = 1+8
}

#[test]
fn writers_on_different_aps_of_one_key_interleave_safely() {
    let store = Arc::new(store());
    let start = Arc::new(Barrier::new(3));
    let writers: Vec<_> = (0..2)
        .map(|ap| {
            let store = Arc::clone(&store);
            let start = Arc::clone(&start);
            thread::spawn(move || {
                for generation in 0..ROUNDS as u64 {
                    if generation == 0 {
                        start.wait();
                    }
                    store.submit(9, ap, 0, generation_spectrum(generation));
                }
            })
        })
        .collect();
    start.wait();
    for _ in 0..ROUNDS {
        if let Some(snap) = store.snapshot(9) {
            for obs in &snap {
                uniform_level(&obs.spectrum);
            }
        }
    }
    for w in writers {
        w.join().expect("writer");
    }
    let snap = store.snapshot(9).expect("resident");
    assert_eq!(snap.len(), 2, "both AP slots resident");
    assert_eq!(snap[0].ap_id, 0);
    assert_eq!(snap[1].ap_id, 1);
}

#[test]
fn a_tick_and_submit_racing_a_snapshot_never_underflow_an_age() {
    // A reaper tick followed by a submit to the same key must never land
    // between a snapshot's tick read and its slot reads: the slot would
    // then be newer than the snapshot's tick. The store reads both under
    // its one lock.
    let store = Arc::new(store());
    let spectrum = generation_spectrum(0);
    store.submit(1, 0, 0, Arc::clone(&spectrum));
    let stop = Arc::new(AtomicBool::new(false));
    let ticker = {
        let (store, stop) = (Arc::clone(&store), Arc::clone(&stop));
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                store.advance_tick();
            }
        })
    };
    let submitter = {
        let (store, stop) = (Arc::clone(&store), Arc::clone(&stop));
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                store.submit(1, 0, 0, Arc::clone(&spectrum));
            }
        })
    };
    let until = Instant::now() + Duration::from_secs(1);
    while Instant::now() < until {
        let snap = store.snapshot(1).expect("resident");
        // Submitted at age 0: the age is the ticks since the submit.
        assert!(
            snap[0].age < u64::MAX / 2,
            "age underflowed: {}",
            snap[0].age
        );
    }
    stop.store(true, Ordering::Relaxed);
    ticker.join().expect("ticker");
    submitter.join().expect("submitter");
}
