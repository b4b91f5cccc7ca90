//! End-to-end loopback tests of the location server: bit-exact parity
//! with the in-process `ArrayTrackServer`, health/error semantics over
//! the wire, load shedding, deadline enforcement, and graceful drain.

use at_channel::geometry::{pt, Point};
use at_core::health::{ApStatus, HealthPolicy, LocalizeError};
use at_core::synthesis::{ApPose, SearchRegion};
use at_core::{AoaSpectrum, ArrayTrackServer};
use at_serve::{spawn, BatchPolicy, Client, ClientConfig, ClientError, ServeConfig, ServiceConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const BINS: usize = 360;

/// A four-AP deployment around a 20 m × 10 m room.
fn poses() -> Vec<ApPose> {
    vec![
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
    ]
}

fn region() -> SearchRegion {
    SearchRegion::new(pt(0.0, 0.0), pt(20.0, 10.0))
}

/// A lobe spectrum for AP `ap` aimed at the true position `target` — not
/// physical MUSIC output, but a valid spectrum whose fusion is
/// well-defined, which is all parity needs.
fn lobe_spectrum(ap: usize, target: Point) -> AoaSpectrum {
    let bearing = poses()[ap].bearing_to(target);
    AoaSpectrum::from_fn(BINS, |t| {
        let d = at_channel::geometry::angle_diff(t, bearing);
        (-(d / 0.25).powi(2)).exp() + 0.01
    })
}

fn service(policy: HealthPolicy) -> ServiceConfig {
    ServiceConfig {
        poses: poses(),
        region: region(),
        bins: BINS,
        policy,
    }
}

fn client(addr: std::net::SocketAddr) -> Client {
    Client::connect(addr, ClientConfig::default()).expect("connect")
}

#[test]
fn networked_fix_is_bit_exact_with_in_process_server() {
    let target = pt(6.5, 3.5);
    let server = spawn(
        service(HealthPolicy::default()),
        ServeConfig::default(),
        "127.0.0.1:0",
    )
    .expect("spawn");

    // In-process reference: same poses, same spectra, same order. The
    // engine's per-pose grids are computed independently, so the
    // deployment-wide engine and the observation-built engine agree
    // bit-for-bit.
    let mut reference = ArrayTrackServer::new(region());
    let mut c = client(server.addr());
    for ap in 0..poses().len() {
        let spectrum = lobe_spectrum(ap, target);
        reference.add_observation_from(ap, poses()[ap], spectrum.clone(), 0);
        let n = c.submit(ap as u32, 0, &spectrum).expect("submit");
        assert_eq!(n as usize, ap + 1);
    }
    let expected = reference.try_localize().expect("reference fix");
    let fix = c.localize(None).expect("networked fix");
    assert_eq!(fix.position.x.to_bits(), expected.position.x.to_bits());
    assert_eq!(fix.position.y.to_bits(), expected.position.y.to_bits());
    assert_eq!(fix.likelihood.to_bits(), expected.likelihood.to_bits());
    // All four APs healthy in the response.
    assert_eq!(fix.health.len(), 4);
    assert!(fix
        .health
        .iter()
        .all(|h| h.status == ApStatus::Healthy && h.consecutive_failures == 0));

    // A subset session (APs 0 and 2) also matches a subset-built server.
    let mut subset_ref = ArrayTrackServer::new(region());
    c.clear().expect("clear");
    for ap in [0usize, 2] {
        let spectrum = lobe_spectrum(ap, target);
        subset_ref.add_observation_from(ap, poses()[ap], spectrum.clone(), 0);
        c.submit(ap as u32, 0, &spectrum).expect("submit");
    }
    let expected = subset_ref.try_localize().expect("subset fix");
    let fix = c.localize(None).expect("networked subset fix");
    assert_eq!(fix.position.x.to_bits(), expected.position.x.to_bits());
    assert_eq!(fix.position.y.to_bits(), expected.position.y.to_bits());
    assert_eq!(fix.likelihood.to_bits(), expected.likelihood.to_bits());

    let stats = server.shutdown();
    assert_eq!(stats.fixes, 2);
    assert_eq!(stats.shed, 0);
}

#[test]
fn degraded_deployment_keeps_typed_semantics_over_the_wire() {
    let target = pt(12.0, 4.0);
    let policy = HealthPolicy {
        min_quorum: 2,
        ..HealthPolicy::default()
    };
    let server = spawn(service(policy), ServeConfig::default(), "127.0.0.1:0").expect("spawn");
    let mut reference = ArrayTrackServer::new(region()).with_policy(policy);
    let mut c = client(server.addr());

    // A stale AP 1 leaves only one usable observation: quorum not met,
    // with the exact counts the in-process server reports.
    reference.add_observation_from(0, poses()[0], lobe_spectrum(0, target), 0);
    reference.add_observation_from(1, poses()[1], lobe_spectrum(1, target), 10);
    c.submit(0, 0, &lobe_spectrum(0, target)).expect("submit");
    c.submit(1, 10, &lobe_spectrum(1, target)).expect("submit");
    let expected = reference.try_localize().expect_err("stale quorum");
    match c.localize(None) {
        Err(ClientError::Localize(e)) => assert_eq!(e, expected),
        other => panic!("wanted the reference LocalizeError, got {other:?}"),
    }
    assert_eq!(
        expected,
        LocalizeError::QuorumNotMet {
            available: 1,
            required: 2,
            stale: 1,
            down: 0,
            degenerate: 0,
        }
    );

    // Failures after submission degrade AP 1: the fix is tempered the
    // same way in-process and its health report says degraded.
    reference.clear();
    c.clear().expect("clear");
    for ap in 0..2 {
        reference.add_observation_from(ap, poses()[ap], lobe_spectrum(ap, target), 0);
        c.submit(ap as u32, 0, &lobe_spectrum(ap, target))
            .expect("submit");
    }
    for _ in 0..2 {
        reference.report_acquisition_failure(1);
        c.report_failure(1).expect("report");
    }
    let expected = reference.try_localize().expect("degraded fix");
    let fix = c.localize(None).expect("networked degraded fix");
    assert_eq!(fix.position.x.to_bits(), expected.position.x.to_bits());
    assert_eq!(fix.position.y.to_bits(), expected.position.y.to_bits());
    assert_eq!(fix.likelihood.to_bits(), expected.likelihood.to_bits());
    let ap1 = fix.health.iter().find(|h| h.ap_id == 1).expect("ap 1");
    assert_eq!(ap1.status, ApStatus::Degraded);
    assert_eq!(ap1.consecutive_failures, 2);

    // An empty session fails with NoObservations, typed, over the wire.
    c.clear().expect("clear");
    match c.localize(None) {
        Err(ClientError::Localize(LocalizeError::NoObservations)) => {}
        other => panic!("wanted NoObservations, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn overload_sheds_with_typed_frames_and_server_stays_responsive() {
    let target = pt(3.0, 7.0);
    // One worker, minimal queues: offered load far beyond capacity must
    // shed, not queue.
    let cfg = ServeConfig {
        workers: 1,
        admission_depth: 1,
        exec_depth: 1,
        batch: BatchPolicy {
            window: Duration::from_millis(1),
            max_batch: 2,
        },
        adaptive: None,
        retry_after_ms: 5,
        ..ServeConfig::default()
    };
    let server = spawn(service(HealthPolicy::default()), cfg, "127.0.0.1:0").expect("spawn");
    let addr = server.addr();

    let fixes = Arc::new(AtomicUsize::new(0));
    let sheds = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..32)
        .map(|_| {
            let fixes = Arc::clone(&fixes);
            let sheds = Arc::clone(&sheds);
            thread::spawn(move || {
                // No client-side retry: a shed must surface as Overloaded.
                let cfg = ClientConfig {
                    max_attempts: 1,
                    ..ClientConfig::default()
                };
                let mut c = Client::connect(addr, cfg).expect("connect");
                for ap in 0..4u32 {
                    c.submit(ap, 0, &lobe_spectrum(ap as usize, target))
                        .expect("submit");
                }
                for _ in 0..4 {
                    match c.localize(None) {
                        Ok(_) => fixes.fetch_add(1, Ordering::Relaxed),
                        Err(ClientError::Overloaded { .. }) => {
                            sheds.fetch_add(1, Ordering::Relaxed)
                        }
                        Err(e) => panic!("unexpected error under load: {e}"),
                    };
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let fixed = fixes.load(Ordering::Relaxed);
    let shed = sheds.load(Ordering::Relaxed);
    assert_eq!(fixed + shed, 32 * 4);
    assert!(fixed > 0, "some requests must be served");
    assert!(shed > 0, "offered load beyond capacity must shed");

    // The server is still fully responsive after the storm.
    let mut c = client(addr);
    c.ping(42).expect("ping after overload");
    c.submit(0, 0, &lobe_spectrum(0, target)).expect("submit");
    c.localize(None).expect("fix after overload");

    let stats = server.shutdown();
    assert_eq!(stats.shed, shed as u64);
    assert!(stats.fixes >= fixed as u64);
}

#[test]
fn queued_past_deadline_requests_are_dropped_before_fusion() {
    // A long batching window guarantees the request's 5 ms budget expires
    // while it waits for batch companions that never come.
    let cfg = ServeConfig {
        batch: BatchPolicy {
            window: Duration::from_millis(120),
            max_batch: 8,
        },
        adaptive: None,
        ..ServeConfig::default()
    };
    let server = spawn(service(HealthPolicy::default()), cfg, "127.0.0.1:0").expect("spawn");
    let mut c = client(server.addr());
    c.submit(0, 0, &lobe_spectrum(0, pt(5.0, 5.0)))
        .expect("submit");
    match c.localize(Some(Duration::from_millis(5))) {
        Err(ClientError::DeadlineExceeded) => {}
        other => panic!("wanted DeadlineExceeded, got {other:?}"),
    }
    // Without a deadline the same session localizes fine.
    c.localize(None).expect("fix without deadline");
    let stats = server.shutdown();
    assert_eq!(stats.deadline_missed, 1);
    assert_eq!(stats.fixes, 1);
}

#[test]
fn shutdown_drains_in_flight_requests_then_refuses_new_ones() {
    let target = pt(15.0, 2.0);
    // A long window keeps the admitted request in the batcher while we
    // shut down: it must still be answered.
    let cfg = ServeConfig {
        batch: BatchPolicy {
            window: Duration::from_millis(300),
            max_batch: 8,
        },
        adaptive: None,
        ..ServeConfig::default()
    };
    let server = spawn(service(HealthPolicy::default()), cfg, "127.0.0.1:0").expect("spawn");
    let addr = server.addr();

    let in_flight = thread::spawn(move || {
        let mut c = Client::connect(addr, ClientConfig::default()).expect("connect");
        for ap in 0..4u32 {
            c.submit(ap, 0, &lobe_spectrum(ap as usize, target))
                .expect("submit");
        }
        c.localize(None)
    });
    // Let the request get admitted, then pull the plug mid-batch-window.
    thread::sleep(Duration::from_millis(80));
    let stats = server.shutdown();
    let fix = in_flight
        .join()
        .expect("client thread")
        .expect("in-flight request must drain to a fix");
    assert!(fix.position.x.is_finite() && fix.position.y.is_finite());
    assert_eq!(stats.fixes, 1);

    // The listener is gone: a fresh connection is refused outright.
    assert!(Client::connect(
        addr,
        ClientConfig {
            max_attempts: 1,
            connect_timeout: Duration::from_millis(200),
            ..ClientConfig::default()
        },
    )
    .is_err());
}

#[test]
fn metrics_query_returns_a_prometheus_snapshot_on_any_role() {
    let server = spawn(
        service(HealthPolicy::default()),
        ServeConfig::default(),
        "127.0.0.1:0",
    )
    .expect("spawn");

    // An untyped (role-neutral) session can scrape without ever
    // submitting or localizing.
    let mut c = client(server.addr());
    let text = c.metrics().expect("metrics");
    assert!(
        text.contains("at_serve_connections_total"),
        "scrape missing serve counters: {}",
        &text[..text.len().min(400)]
    );
    assert!(text.contains("# TYPE"), "not Prometheus text format");

    // The scrape is read-only: the same session still takes the App
    // role afterwards and gets the usual typed refusal on an empty
    // session, and both typed roles can scrape too.
    assert!(matches!(
        c.localize(None),
        Err(ClientError::Localize(LocalizeError::NoObservations))
    ));
    let mut ap =
        at_serve::ApClient::connect(server.addr(), ClientConfig::default()).expect("ap connect");
    assert!(ap.metrics().expect("ap metrics").contains("at_serve"));
    let mut app =
        at_serve::AppClient::connect(server.addr(), ClientConfig::default()).expect("app connect");
    assert!(app.metrics().expect("app metrics").contains("at_serve"));
    server.shutdown();
}

#[test]
fn bad_serve_config_is_refused_typed_not_a_panic() {
    let bad = [
        ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        },
        ServeConfig {
            admission_depth: 0,
            ..ServeConfig::default()
        },
        ServeConfig {
            batch: BatchPolicy {
                window: Duration::from_millis(1),
                max_batch: 0,
            },
            ..ServeConfig::default()
        },
    ];
    for cfg in bad {
        match spawn(service(HealthPolicy::default()), cfg, "127.0.0.1:0") {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
            Ok(_) => panic!("spawn accepted {cfg:?}"),
        }
    }
}
