//! Topology epochs end to end: a live server taken through remove →
//! move → re-add reconfigurations under a concurrent submit/localize
//! storm, with the surviving-quorum fixes checked bit-exactly against
//! the in-process `ArrayTrackServer` and every misuse path coming back
//! as a typed refusal — never a panic, never a wedged server.
//!
//! What this tier pins down:
//! - **Departure mid-storm**: an AP removed while ingest/query traffic
//!   is in flight; sessions keep their surviving spectra and the next
//!   fix on the shrunken deployment matches `try_localize` on the same
//!   three spectra bit for bit.
//! - **Epoch bookkeeping**: each applied op bumps the epoch by one and
//!   the server's advertised fingerprint equals the canonical
//!   `at-config` fingerprint computed client-side from the same op.
//! - **Typed refusals**: out-of-range ops are refused with `BAD_CONFIG`
//!   and leave the epoch untouched; submits to a departed id are
//!   refused with `BAD_AP`; a cold joiner that hasn't warmed yet yields
//!   `QuorumNotMet`, not a guess and not a crash.
//! - **Epoch pinning**: a localize admitted before a reconfiguration
//!   fuses on the epoch it was admitted under — its poses and its AP
//!   health as they were at the swap — while one admitted after sees
//!   only the new epoch; and a storm of single-attempt clients runs
//!   through every swap without one request shed.
//! - **Stale v1 sessions**: a legacy per-connection session is bound to
//!   the epoch of its first spectrum; after a remove or a move its
//!   localize is the typed `NoObservations`, and the server keeps serving
//!   bit-exact keyed fixes on the same single worker.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use arraytrack::channel::geometry::{angle_diff, pt, Point};
use arraytrack::config::TopologyOp;
use arraytrack::core::health::{ApStatus, HealthPolicy, LocalizeError};
use arraytrack::core::synthesis::{ApPose, SearchRegion};
use arraytrack::core::{AoaSpectrum, ArrayTrackServer};
use arraytrack::serve::{
    ApClient, ApHealthReport, AppClient, Client, ClientConfig, ClientError, Frame, FuseScratch,
    ServeConfig, ServiceConfig, ServiceCore, SessionPolicy, SessionRef,
};
use std::time::Duration;

const BINS: usize = 96;

/// Every test here reconfigures a live server, and the process-wide
/// `at_serve_reconfigures_total{op}` counter is read as a delta, so the
/// tests take turns.
static RECONFIGURING: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    RECONFIGURING.lock().unwrap_or_else(|e| e.into_inner())
}

/// The global registry's `at_serve_reconfigures_total{op}`.
fn reconfigures(op: &str) -> u64 {
    arraytrack::obs::global()
        .counter(
            arraytrack::obs::names::SERVE_RECONFIGURES_TOTAL,
            &[("op", op)],
        )
        .get()
}

/// Four-AP synthetic deployment with analytic lobe spectra (no simulated
/// radios), quorum of two so shrunken sessions still fix but a lone cold
/// joiner cannot.
fn service() -> ServiceConfig {
    ServiceConfig {
        poses: vec![
            ApPose {
                center: pt(0.0, 0.0),
                axis_angle: 0.3,
            },
            ApPose {
                center: pt(20.0, 0.0),
                axis_angle: 2.0,
            },
            ApPose {
                center: pt(20.0, 10.0),
                axis_angle: -2.2,
            },
            ApPose {
                center: pt(0.0, 10.0),
                axis_angle: -0.4,
            },
        ],
        region: SearchRegion::new(pt(0.0, 0.0), pt(20.0, 10.0)),
        bins: BINS,
        policy: HealthPolicy {
            min_quorum: 2,
            ..HealthPolicy::default()
        },
    }
}

/// Hour-scale session policy: no reaper ticks, so the store's contents
/// are a pure function of the submitted traffic.
fn session_policy() -> SessionPolicy {
    SessionPolicy {
        idle_timeout: Duration::from_secs(3600),
        reap_interval: Duration::from_secs(3600),
        refresh_interval: Duration::from_secs(3600),
        ..SessionPolicy::default()
    }
}

fn lobe(pose: ApPose, target: Point) -> AoaSpectrum {
    let bearing = pose.bearing_to(target);
    AoaSpectrum::from_fn(BINS, |t| {
        let d = angle_diff(t, bearing);
        (-(d / 0.25).powi(2)).exp() + 0.01
    })
}

/// Spawns `n` storm threads, each streaming keyed submits to `storm_aps`
/// and localizing its own key in a tight loop until `stop` is raised.
/// Each client makes a single attempt per call, so a localize shed during
/// an epoch swap is an error, not a retry. Joining the handles asserts
/// the storm saw zero panics and zero client-visible errors across every
/// epoch swap.
fn spawn_storm(
    addr: std::net::SocketAddr,
    service: &ServiceConfig,
    storm_aps: &[usize],
    n: usize,
    stop: &Arc<AtomicBool>,
    fixes: &Arc<AtomicU64>,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..n)
        .map(|i| {
            let stop = Arc::clone(stop);
            let fixes = Arc::clone(fixes);
            let storm_aps = storm_aps.to_vec();
            let poses: Vec<ApPose> = service.poses.clone();
            std::thread::spawn(move || {
                let key = 200 + i as u64;
                let target = pt(4.0 + 3.0 * i as f64, 3.0 + i as f64);
                let once = ClientConfig {
                    max_attempts: 1,
                    ..ClientConfig::default()
                };
                let mut ap = ApClient::connect(addr, once).expect("storm ap");
                let mut app = AppClient::connect(addr, once).expect("storm app");
                while !stop.load(Ordering::Relaxed) {
                    for &id in &storm_aps {
                        ap.submit(key, id as u32, 0, &lobe(poses[id], target))
                            .expect("storm submit across epochs");
                    }
                    app.localize(key, None).expect("storm fix across epochs");
                    fixes.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect()
}

#[test]
fn ap_departure_mid_storm_keeps_surviving_quorum_bit_exact() {
    let _serial = serial();
    let service = service();
    let session = session_policy();
    let server = arraytrack::serve::spawn(
        service.clone(),
        ServeConfig {
            session,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn");
    let addr = server.addr();

    // The quiet session: one spectrum from each of the four APs, then
    // untouched by the storm so its contents are exactly known.
    const QUIET: u64 = 100;
    let target = pt(7.5, 4.5);
    let spectra: Vec<AoaSpectrum> = service.poses.iter().map(|&p| lobe(p, target)).collect();
    let mut ingest = ApClient::connect(addr, ClientConfig::default()).expect("ingest");
    for (id, s) in spectra.iter().enumerate() {
        ingest.submit(QUIET, id as u32, 0, s).expect("quiet submit");
    }

    // Storm traffic on APs that survive the removal, running through it.
    let stop = Arc::new(AtomicBool::new(false));
    let fixes = Arc::new(AtomicU64::new(0));
    let storm = spawn_storm(addr, &service, &[0, 1, 2], 2, &stop, &fixes);
    while fixes.load(Ordering::Relaxed) < 5 {
        std::thread::yield_now();
    }

    // AP 3 departs mid-storm. The epoch bumps and the advertised
    // fingerprint is the canonical one for the shrunken config.
    let mut app = AppClient::connect(addr, ClientConfig::default()).expect("app");
    let info = app
        .reconfigure(&TopologyOp::Remove { ap_id: 3 })
        .expect("remove");
    assert_eq!(info.epoch, 1);
    assert_eq!(info.poses.len(), 3);
    let (expected_system, mapping) = service
        .to_system(session)
        .apply(&TopologyOp::Remove { ap_id: 3 })
        .expect("op applies client-side too");
    assert_eq!(info.fingerprint, expected_system.fingerprint());
    assert_eq!(mapping.n_new, 3);

    // The quiet session kept its three surviving spectra: the wire fix on
    // the new epoch matches the in-process server on the same three
    // spectra, bit for bit — while the storm is still running.
    let fix = app.localize(QUIET, None).expect("surviving-quorum fix");
    let mut reference = ArrayTrackServer::new(service.region).with_policy(service.policy);
    for (id, s) in spectra.iter().take(3).enumerate() {
        reference.add_observation_from(id, service.poses[id], s.clone(), 0);
    }
    let expected = reference.try_localize().expect("reference fix");
    assert_eq!(fix.position.x.to_bits(), expected.position.x.to_bits());
    assert_eq!(fix.position.y.to_bits(), expected.position.y.to_bits());
    assert_eq!(fix.likelihood.to_bits(), expected.likelihood.to_bits());

    // A submit to the departed id is a typed wire refusal, and the
    // connection survives to keep serving valid ids.
    let mut probe = ApClient::connect(addr, ClientConfig::default()).expect("probe");
    match probe.submit(300, 3, 0, &spectra[3]) {
        Err(ClientError::Protocol(msg)) => assert!(msg.contains("out of range"), "{msg}"),
        other => panic!("wanted BAD_AP protocol refusal, got {other:?}"),
    }
    probe
        .submit(300, 0, 0, &spectra[0])
        .expect("probe connection still usable");

    stop.store(true, Ordering::Relaxed);
    for h in storm {
        h.join().expect("storm thread panicked");
    }
    assert_eq!(server.shutdown().shed, 0, "a reconfiguration shed traffic");
}

#[test]
fn remove_move_readd_under_storm_refuses_bad_ops_and_cold_joiner_typed() {
    let _serial = serial();
    let service = service();
    let session = session_policy();
    let server = arraytrack::serve::spawn(
        service.clone(),
        ServeConfig {
            session,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn");
    let addr = server.addr();

    // Storm on APs 1 and 2 — the two poses no op in this scenario
    // touches — so the traffic is valid in every epoch.
    let stop = Arc::new(AtomicBool::new(false));
    let fixes = Arc::new(AtomicU64::new(0));
    let storm = spawn_storm(addr, &service, &[1, 2], 2, &stop, &fixes);
    while fixes.load(Ordering::Relaxed) < 5 {
        std::thread::yield_now();
    }

    let mut app = AppClient::connect(addr, ClientConfig::default()).expect("app");

    // Out-of-range ops are refused typed, with the epoch untouched and
    // nothing counted as a reconfiguration.
    let (removes, moves) = (reconfigures("remove"), reconfigures("move"));
    for bad in [
        TopologyOp::Remove { ap_id: 99 },
        TopologyOp::Move {
            ap_id: 99,
            pose: service.poses[0],
        },
    ] {
        match app.reconfigure(&bad) {
            Err(ClientError::Protocol(msg)) => assert!(msg.contains("code 4"), "{msg}"),
            other => panic!("wanted BAD_CONFIG refusal, got {other:?}"),
        }
    }
    assert_eq!(app.topology().expect("topology").epoch, 0);
    assert_eq!(
        (reconfigures("remove"), reconfigures("move")),
        (removes, moves)
    );

    // The full lifecycle, mid-storm: remove AP 3, move AP 0, re-add a
    // fourth AP. Every applied op bumps the epoch, and the reconfigure
    // counter under its own `op` label, by exactly one.
    let info = app
        .reconfigure(&TopologyOp::Remove { ap_id: 3 })
        .expect("remove");
    assert_eq!((info.epoch, info.poses.len()), (1, 3));
    assert_eq!(reconfigures("remove") - removes, 1);
    assert_eq!(reconfigures("move") - moves, 0);

    let mut moved = service.poses[0];
    moved.center.x += 0.5;
    let info = app
        .reconfigure(&TopologyOp::Move {
            ap_id: 0,
            pose: moved,
        })
        .expect("move");
    assert_eq!((info.epoch, info.poses.len()), (2, 3));
    assert_eq!(reconfigures("move") - moves, 1);
    assert_eq!(reconfigures("remove") - removes, 1);
    assert_eq!(
        info.poses[0].center.x.to_bits(),
        moved.center.x.to_bits(),
        "moved pose must be advertised verbatim"
    );

    let rejoin = service.poses[3];
    let info = app
        .reconfigure(&TopologyOp::Add { pose: rejoin })
        .expect("re-add");
    assert_eq!((info.epoch, info.poses.len()), (3, 4));

    // The server's fingerprint chain matches the same three ops applied
    // client-side to the canonical config.
    let mut system = service.to_system(session);
    for op in [
        TopologyOp::Remove { ap_id: 3 },
        TopologyOp::Move {
            ap_id: 0,
            pose: moved,
        },
        TopologyOp::Add { pose: rejoin },
    ] {
        system = system.apply(&op).expect("op chain applies").0;
    }
    assert_eq!(info.fingerprint, system.fingerprint());

    // The joiner is cold: a session that has only its spectrum is under
    // quorum — a typed refusal, not a guess.
    let mut ingest = ApClient::connect(addr, ClientConfig::default()).expect("ingest");
    ingest
        .submit(400, 3, 0, &lobe(rejoin, pt(10.0, 5.0)))
        .expect("joiner submit");
    match app.localize(400, None) {
        Err(ClientError::Localize(LocalizeError::QuorumNotMet {
            available,
            required,
            ..
        })) => {
            assert_eq!((available, required), (1, 2));
        }
        other => panic!("wanted QuorumNotMet for the cold joiner, got {other:?}"),
    }

    // Once a second AP's spectrum lands, the same session fixes.
    ingest
        .submit(400, 1, 0, &lobe(service.poses[1], pt(10.0, 5.0)))
        .expect("warm submit");
    app.localize(400, None).expect("fix once quorum is met");

    stop.store(true, Ordering::Relaxed);
    for h in storm {
        h.join().expect("storm thread panicked");
    }
    let made = fixes.load(Ordering::Relaxed);
    assert!(made >= 5, "storm made {made} fixes");
    assert_eq!(server.shutdown().shed, 0, "a reconfiguration shed traffic");
}

/// Asserts `reply` is the fix `reference` computes, bit for bit, and
/// returns the health it reported.
fn same_fix(reply: Frame, reference: &ArrayTrackServer) -> Vec<ApHealthReport> {
    let expected = reference.try_localize().expect("reference fix");
    let Frame::Fix {
        x,
        y,
        likelihood,
        health,
    } = reply
    else {
        panic!("wanted a fix, got {reply:?}");
    };
    assert_eq!(x.to_bits(), expected.position.x.to_bits());
    assert_eq!(y.to_bits(), expected.position.y.to_bits());
    assert_eq!(likelihood.to_bits(), expected.likelihood.to_bits());
    health
}

#[test]
fn a_query_fuses_on_the_epoch_it_was_admitted_under() {
    let service = service();
    let core = ServiceCore::new(service.to_system(session_policy()), None).expect("core");
    let target = pt(7.5, 4.5);
    let spectra: Vec<AoaSpectrum> = service.poses.iter().map(|&p| lobe(p, target)).collect();
    for (id, s) in spectra.iter().enumerate() {
        core.submit(SessionRef::Keyed(1), id as u32, 0, s.clone())
            .expect("submit");
    }
    let before = core.query(SessionRef::Keyed(1), 0);

    // AP 3 departs, then AP 0 fails until the new epoch holds it down.
    core.reconfigure(&TopologyOp::Remove { ap_id: 3 })
        .expect("remove");
    for _ in 0..service.policy.down_after {
        core.failure(0).expect("AP 0 survives the removal");
    }
    let after = core.query(SessionRef::Keyed(1), 0);
    let mut scratch = FuseScratch::default();

    // The query admitted before the swap fuses all four old poses, with
    // the health it had at the swap: AP 0 healthy.
    let mut old = ArrayTrackServer::new(service.region).with_policy(service.policy);
    for (id, s) in spectra.iter().enumerate() {
        old.add_observation_from(id, service.poses[id], s.clone(), 0);
    }
    let health = same_fix(before.fuse(&mut scratch), &old);
    assert_eq!(health.len(), 4);
    assert_eq!(health[0].status, ApStatus::Healthy);

    // The query admitted after sees three poses and AP 0 down.
    let mut new = ArrayTrackServer::new(service.region).with_policy(service.policy);
    for (id, s) in spectra.iter().enumerate().take(3) {
        new.add_observation_from(id, service.poses[id], s.clone(), 0);
    }
    for _ in 0..service.policy.down_after {
        new.report_acquisition_failure(0);
    }
    let health = same_fix(after.fuse(&mut scratch), &new);
    assert_eq!(health.len(), 3);
    assert_eq!(health[0].status, ApStatus::Down);
}

#[test]
fn stale_v1_session_is_a_typed_refusal_after_remove_or_move() {
    let _serial = serial();
    let service = service();
    let session = session_policy();
    let mut moved = service.poses[0];
    moved.center.x += 0.5;
    for op in [
        TopologyOp::Remove { ap_id: 3 },
        TopologyOp::Move {
            ap_id: 0,
            pose: moved,
        },
    ] {
        // One worker: a panic on the fusion path would leave nothing to
        // serve the keyed fix below.
        let server = arraytrack::serve::spawn(
            service.clone(),
            ServeConfig {
                workers: 1,
                session,
                ..ServeConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("spawn");
        let addr = server.addr();
        let target = pt(7.5, 4.5);

        // A v1 session spanning an AP the op changes, then the op.
        let mut v1 = Client::connect(addr, ClientConfig::default()).expect("v1");
        for id in [0usize, 1, 3] {
            v1.submit(id as u32, 0, &lobe(service.poses[id], target))
                .expect("v1 submit");
        }
        let mut app = AppClient::connect(addr, ClientConfig::default()).expect("app");
        let info = app.reconfigure(&op).expect("reconfigure");
        assert_eq!(info.epoch, 1, "{op:?}");

        // The session's spectra name the old deployment: typed refusal,
        // not a worker panic and not a fix against the wrong poses.
        match v1.localize(None) {
            Err(ClientError::Localize(LocalizeError::NoObservations)) => {}
            other => panic!("{op:?}: wanted NoObservations, got {other:?}"),
        }

        // The same single worker still fixes keyed sessions on the new
        // epoch, bit-exactly with the in-process server.
        let (system, _) = service
            .to_system(session)
            .apply(&op)
            .expect("op applies client-side too");
        let spectra: Vec<AoaSpectrum> = system.poses.iter().map(|&p| lobe(p, target)).collect();
        let mut ingest = ApClient::connect(addr, ClientConfig::default()).expect("ingest");
        let mut reference = ArrayTrackServer::new(service.region).with_policy(service.policy);
        for (id, s) in spectra.iter().enumerate().take(3) {
            ingest.submit(500, id as u32, 0, s).expect("keyed submit");
            reference.add_observation_from(id, system.poses[id], s.clone(), 0);
        }
        let fix = app.localize(500, None).expect("keyed fix after the op");
        let expected = reference.try_localize().expect("reference fix");
        assert_eq!(fix.position.x.to_bits(), expected.position.x.to_bits());
        assert_eq!(fix.position.y.to_bits(), expected.position.y.to_bits());
        assert_eq!(fix.likelihood.to_bits(), expected.likelihood.to_bits());
        server.shutdown();
    }
}
