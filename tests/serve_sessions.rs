//! The multi-process ingestion tier: six AP connections stream keyed
//! spectra into one server while application connections query by key —
//! the paper's Figure 1 deployment over the wire.
//!
//! What this tier pins down:
//! - **Parity**: a keyed fix assembled from six concurrent AP writers is
//!   bit-exact with the in-process `ArrayTrackServer::try_localize` on
//!   the same spectra.
//! - **Idle eviction**: a session nobody touches past the idle timeout
//!   disappears (the background reaper), and a later query gets the typed
//!   `NoObservations` — not a stale fix.
//! - **Cap eviction**: the resident-spectra cap displaces the
//!   least-recently-touched session, never the one being written.
//! - **Silent APs**: spectra age with the store's refresh tick, so a key
//!   whose APs go quiet degrades into the same typed `QuorumNotMet` the
//!   in-process server returns.
//! - **Golden fixture**: a populated store's snapshot (including eviction
//!   order) renders byte-identically across refactors.

use arraytrack::core::health::{HealthPolicy, LocalizeError};
use arraytrack::core::{AoaSpectrum, ArrayTrackServer};
use arraytrack::serve::{
    ApClient, AppClient, ClientConfig, ClientError, ServeConfig, SessionPolicy, SessionStore,
};
use arraytrack::testbed::{compute_spectrum, serve_deployment, Deployment, ExperimentConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn office() -> (Deployment, ExperimentConfig) {
    (Deployment::office(3), ExperimentConfig::arraytrack(3))
}

/// One captured spectrum per AP for each key's ground-truth position.
fn keyed_spectra(
    dep: &Deployment,
    cfg: &ExperimentConfig,
    keys: &[u64],
) -> Vec<(u64, arraytrack::channel::geometry::Point, Vec<AoaSpectrum>)> {
    let mut rng = StdRng::seed_from_u64(4242);
    keys.iter()
        .map(|&key| {
            let truth = dep.clients[key as usize % dep.clients.len()];
            let spectra = (0..dep.aps.len())
                .map(|ap| compute_spectrum(dep, ap, truth, cfg, &mut rng))
                .collect();
            (key, truth, spectra)
        })
        .collect()
}

#[test]
fn six_concurrent_ap_writers_match_in_process_fusion_bit_for_bit() {
    let (dep, cfg) = office();
    let keys: Vec<u64> = vec![11, 22, 33];
    let dataset = keyed_spectra(&dep, &cfg, &keys);

    // In-process reference, observations added in ascending-AP order —
    // the order the store's snapshot presents them for fusion.
    let expected: Vec<_> = dataset
        .iter()
        .map(|(_, _, spectra)| {
            let mut reference = ArrayTrackServer::new(dep.search_region());
            for (ap, spectrum) in spectra.iter().enumerate() {
                reference.add_observation_from(ap, dep.aps[ap].pose, spectrum.clone(), 0);
            }
            reference.try_localize().expect("reference fix")
        })
        .collect();

    let server = serve_deployment(
        &dep,
        cfg.pipeline.music.bins,
        HealthPolicy::default(),
        ServeConfig::default(),
    )
    .expect("spawn");
    let addr = server.addr();

    // Six AP processes, one connection each, all writing concurrently:
    // every AP thread submits its own spectrum for every key.
    let dataset = Arc::new(dataset);
    let writers: Vec<_> = (0..dep.aps.len())
        .map(|ap| {
            let dataset = Arc::clone(&dataset);
            thread::spawn(move || {
                let mut conn = ApClient::connect(addr, ClientConfig::default()).expect("ap");
                for (key, _, spectra) in dataset.iter() {
                    conn.submit(*key, ap as u32, 0, &spectra[ap])
                        .expect("submit");
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }

    // Concurrent application readers, one per key.
    let readers: Vec<_> = keys
        .iter()
        .map(|&key| {
            thread::spawn(move || {
                let mut app = AppClient::connect(addr, ClientConfig::default()).expect("app");
                (key, app.localize(key, None).expect("fix"))
            })
        })
        .collect();
    for reader in readers {
        let (key, fix) = reader.join().expect("reader");
        let idx = keys.iter().position(|&k| k == key).expect("known key");
        let want = &expected[idx];
        assert_eq!(fix.position.x.to_bits(), want.position.x.to_bits());
        assert_eq!(fix.position.y.to_bits(), want.position.y.to_bits());
        assert_eq!(fix.likelihood.to_bits(), want.likelihood.to_bits());
        assert_eq!(fix.health.len(), dep.aps.len());
    }

    let stats = server.shutdown();
    assert_eq!(stats.fixes as usize, keys.len());
    assert_eq!(stats.sessions_created as usize, keys.len());
    assert_eq!(
        stats.spectra_resident as usize,
        keys.len() * dep.aps.len(),
        "nothing should have been evicted"
    );
    assert_eq!(stats.sessions_evicted_idle + stats.sessions_evicted_cap, 0);
}

#[test]
fn idle_sessions_are_reaped_and_queries_get_no_observations() {
    let (dep, cfg) = office();
    let serve_cfg = ServeConfig {
        session: SessionPolicy {
            idle_timeout: Duration::from_millis(50),
            reap_interval: Duration::from_millis(10),
            // Staleness out of the way: only idleness evicts here.
            refresh_interval: Duration::from_secs(3600),
            ..SessionPolicy::default()
        },
        ..ServeConfig::default()
    };
    let server = serve_deployment(
        &dep,
        cfg.pipeline.music.bins,
        HealthPolicy::default(),
        serve_cfg,
    )
    .expect("spawn");

    // Spectra precomputed up front: the submissions themselves must land
    // well inside one idle timeout, or the reaper evicts mid-stream.
    let mut rng = StdRng::seed_from_u64(5);
    let truth = dep.clients[1];
    let spectra: Vec<_> = (0..dep.aps.len())
        .map(|ap| compute_spectrum(&dep, ap, truth, &cfg, &mut rng))
        .collect();
    let mut aps =
        arraytrack::testbed::ap_clients(server.addr(), dep.aps.len(), ClientConfig::default())
            .expect("aps");
    for (ap, spectrum) in spectra.iter().enumerate() {
        aps[ap].submit(9, ap as u32, 0, spectrum).expect("submit");
    }

    // Wait out the idle timeout; the background reaper must evict.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = server.stats();
        if stats.sessions_evicted_idle >= 1 && stats.sessions_resident == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "reaper never evicted the idle session"
        );
        thread::sleep(Duration::from_millis(10));
    }

    let mut app = AppClient::connect(server.addr(), ClientConfig::default()).expect("app");
    match app.localize(9, None) {
        Err(ClientError::Localize(LocalizeError::NoObservations)) => {}
        other => panic!("wanted NoObservations after idle eviction, got {other:?}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.sessions_resident, 0);
    assert_eq!(stats.spectra_resident, 0);
}

#[test]
fn cap_pressure_evicts_the_oldest_session_not_the_writer() {
    let (dep, cfg) = office();
    let n_aps = dep.aps.len();
    // Room for exactly two full sessions: a third must displace the
    // least-recently-touched one.
    let serve_cfg = ServeConfig {
        session: SessionPolicy {
            max_resident_spectra: 2 * n_aps,
            idle_timeout: Duration::from_secs(3600),
            refresh_interval: Duration::from_secs(3600),
            ..SessionPolicy::default()
        },
        ..ServeConfig::default()
    };
    let server = serve_deployment(
        &dep,
        cfg.pipeline.music.bins,
        HealthPolicy::default(),
        serve_cfg,
    )
    .expect("spawn");

    let mut rng = StdRng::seed_from_u64(6);
    let mut aps = arraytrack::testbed::ap_clients(server.addr(), n_aps, ClientConfig::default())
        .expect("aps");
    for key in [1u64, 2, 3] {
        let truth = dep.clients[key as usize];
        arraytrack::testbed::submit_position_keyed(&mut aps, key, &dep, truth, &cfg, &mut rng)
            .expect("submit");
    }

    let mut app = AppClient::connect(server.addr(), ClientConfig::default()).expect("app");
    // Key 1 was the oldest when key 3 overflowed the cap: gone.
    match app.localize(1, None) {
        Err(ClientError::Localize(LocalizeError::NoObservations)) => {}
        other => panic!("wanted the oldest session evicted, got {other:?}"),
    }
    // Keys 2 and 3 still localize.
    app.localize(2, None).expect("key 2 fix");
    app.localize(3, None).expect("key 3 fix");

    let stats = server.shutdown();
    assert_eq!(stats.sessions_evicted_cap, 1);
    assert_eq!(stats.sessions_evicted_idle, 0);
    assert!(
        stats.spectra_resident as usize <= 2 * n_aps,
        "resident spectra {} exceed the cap {}",
        stats.spectra_resident,
        2 * n_aps
    );
}

#[test]
fn silent_aps_age_into_a_typed_quorum_error() {
    let (dep, cfg) = office();
    let policy = HealthPolicy {
        min_quorum: 4,
        ..HealthPolicy::default()
    };
    let serve_cfg = ServeConfig {
        session: SessionPolicy {
            // Fast staleness clock; idleness out of the way (queries keep
            // the session warm anyway).
            refresh_interval: Duration::from_millis(25),
            idle_timeout: Duration::from_secs(3600),
            ..SessionPolicy::default()
        },
        ..ServeConfig::default()
    };
    let server = serve_deployment(&dep, cfg.pipeline.music.bins, policy, serve_cfg).expect("spawn");

    let mut rng = StdRng::seed_from_u64(7);
    let truth = dep.clients[3];
    let mut aps =
        arraytrack::testbed::ap_clients(server.addr(), dep.aps.len(), ClientConfig::default())
            .expect("aps");
    arraytrack::testbed::submit_position_keyed(&mut aps, 4, &dep, truth, &cfg, &mut rng)
        .expect("submit");

    // All six APs now go silent. Spectra age one refresh interval per
    // tick; past max_spectrum_age (default 3) every one is stale and the
    // quorum of 4 is unmeetable.
    thread::sleep(Duration::from_millis(400));
    let mut app = AppClient::connect(server.addr(), ClientConfig::default()).expect("app");
    match app.localize(4, None) {
        Err(ClientError::Localize(LocalizeError::QuorumNotMet {
            available,
            required,
            stale,
            down,
            degenerate,
        })) => {
            assert_eq!(available, 0);
            assert_eq!(required, 4);
            assert_eq!(stale, dep.aps.len());
            assert_eq!(down, 0);
            assert_eq!(degenerate, 0);
        }
        other => panic!("wanted QuorumNotMet from silent APs, got {other:?}"),
    }
    server.shutdown();
}

/// Rebuilds the same store state the committed fixture was generated
/// from: wall-clock free (logical touch sequence only), so the rendering
/// must be byte-identical on every machine and across refactors.
fn golden_store() -> SessionStore {
    let policy = SessionPolicy {
        idle_timeout: Duration::from_secs(3600),
        max_resident_spectra: 64,
        reap_interval: Duration::from_secs(3600),
        refresh_interval: Duration::from_secs(3600),
    };
    let store = SessionStore::new(3, policy);
    let spectrum = |seed: u64| {
        Arc::new(AoaSpectrum::from_fn(16, |theta| {
            (theta + seed as f64).sin().abs() + 0.25
        }))
    };
    // Keys interleaved so eviction order differs from insertion order.
    store.submit(101, 0, 0, spectrum(1));
    store.submit(202, 0, 1, spectrum(2));
    store.submit(101, 2, 0, spectrum(3));
    store.advance_tick();
    store.submit(303, 1, 0, spectrum(4));
    store.submit(202, 2, 2, spectrum(5));
    // Touch 101 last: 303 becomes the eviction candidate.
    store.snapshot(101).expect("resident");
    store
}

#[test]
fn session_store_golden_snapshot_is_stable() {
    let rendered = golden_store().golden_snapshot();
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/session_store.golden");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write fixture");
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {path:?} ({e}); regenerate with UPDATE_GOLDEN=1")
    });
    assert_eq!(
        rendered, golden,
        "store snapshot drifted from tests/fixtures/session_store.golden — \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
    // The fixture's last line is the eviction order; pin it explicitly
    // too so a format change cannot silently hide an order change.
    assert!(
        golden.trim_end().ends_with("eviction_order 303,202,101"),
        "eviction order changed"
    );
}
