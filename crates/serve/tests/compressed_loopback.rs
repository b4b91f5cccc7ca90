//! End-to-end tests of the protocol-v3 compressed uplink: lossless replay
//! is bit-exact through the keyed store, quantized ingestion stays inside
//! the 1 mm fix-displacement budget while compressing ≥8×, the server's
//! uplink accounting sees what actually crossed the wire, and a
//! compressed-policy `ApClient` falls back to raw against a server that
//! predates v3.

use at_channel::geometry::{pt, Point};
use at_core::health::HealthPolicy;
use at_core::synthesis::{ApPose, SearchRegion};
use at_core::{AoaSpectrum, ArrayTrackServer};
use at_serve::codec;
use at_serve::proto::{self, Frame, HEADER_LEN};
use at_serve::server::errcode;
use at_serve::{
    spawn, ApClient, AppClient, ClientConfig, CompressedMode, Encoding, ServeConfig, ServiceConfig,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;

const BINS: usize = 720;
const KEY: u64 = 0xC0DEC;

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

fn service() -> ServiceConfig {
    ServiceConfig {
        poses: poses(),
        region: region(),
        bins: BINS,
        policy: HealthPolicy::default(),
    }
}

/// The loadgen lobe shape: a narrow Gaussian over a 1 % floor, the
/// workload the ≥8× compression bar is defined against.
fn lobe_spectrum(ap: usize, target: Point) -> AoaSpectrum {
    let bearing = poses()[ap].bearing_to(target);
    AoaSpectrum::from_fn(BINS, |t| {
        let d = at_channel::geometry::angle_diff(t, bearing);
        (-(d / 0.22).powi(2)).exp() + 0.01
    })
}

#[test]
fn lossless_uplink_is_bit_exact_with_raw_ingestion() {
    let target = pt(6.5, 3.5);
    let server = spawn(service(), ServeConfig::default(), "127.0.0.1:0").expect("spawn");

    let mut reference = ArrayTrackServer::new(region());
    let mut ap = ApClient::connect_with(
        server.addr(),
        ClientConfig::default(),
        Encoding::LosslessDelta,
    )
    .expect("connect");
    for (i, pose) in poses().into_iter().enumerate() {
        let spectrum = lobe_spectrum(i, target);
        reference.add_observation_from(i, pose, spectrum.clone(), 0);
        let n = ap.submit(KEY, i as u32, 0, &spectrum).expect("submit");
        assert_eq!(n as usize, i + 1);
    }
    assert_eq!(
        ap.encoding(),
        Encoding::LosslessDelta,
        "no spurious fallback"
    );

    let expected = reference.try_localize().expect("reference fix");
    let mut app = AppClient::connect(server.addr(), ClientConfig::default()).expect("connect");
    let fix = app.localize(KEY, None).expect("networked fix");
    assert_eq!(fix.position.x.to_bits(), expected.position.x.to_bits());
    assert_eq!(fix.position.y.to_bits(), expected.position.y.to_bits());
    assert_eq!(fix.likelihood.to_bits(), expected.likelihood.to_bits());

    let stats = server.shutdown();
    assert_eq!(stats.submits_compressed, 4);
    assert_eq!(stats.submits_raw, 0);
    assert!(stats.uplink_compressed_bytes > 0);
    assert!(
        stats.uplink_raw_equiv_bytes > stats.uplink_compressed_bytes,
        "lossless delta must still beat raw on smooth spectra: {} vs {}",
        stats.uplink_raw_equiv_bytes,
        stats.uplink_compressed_bytes
    );
}

#[test]
fn quantized_uplink_compresses_8x_within_the_fix_budget() {
    // The displacement budget is a *median*: quantization noise (~2·10⁻⁴
    // relative) usually perturbs the fused likelihood surface too little
    // to move the refined optimum at all, but near-plateau geometries can
    // wander centimetres. Nine targets around the room; p50 must stay
    // under 1 mm (empirically most fixes are bit-identical to the raw
    // path).
    let server = spawn(service(), ServeConfig::default(), "127.0.0.1:0").expect("spawn");
    let mut ap =
        ApClient::connect_with(server.addr(), ClientConfig::default(), Encoding::Quantized)
            .expect("connect");
    let mut app = AppClient::connect(server.addr(), ClientConfig::default()).expect("connect");

    let mut displacements = Vec::new();
    for t in 0..9u64 {
        let target = pt(
            1.0 + (t as f64 * 3.47) % 18.0,
            1.0 + (t as f64 * 1.83) % 8.0,
        );
        // Two references: the raw-ingestion fix (the accuracy yardstick)
        // and the grid-snapped fix (what the quantized wire path must
        // match bit-for-bit, since the server fuses exactly what it
        // decoded).
        let mut raw_ref = ArrayTrackServer::new(region());
        let mut snapped_ref = ArrayTrackServer::new(region());
        for (i, pose) in poses().into_iter().enumerate() {
            let spectrum = lobe_spectrum(i, target);
            raw_ref.add_observation_from(i, pose, spectrum.clone(), 0);
            snapped_ref.add_observation_from(i, pose, codec::quantized(&spectrum), 0);
            ap.submit(KEY + t, i as u32, 0, &spectrum).expect("submit");
        }
        let raw_fix = raw_ref.try_localize().expect("raw reference fix");
        let snapped_fix = snapped_ref.try_localize().expect("snapped reference fix");

        let fix = app.localize(KEY + t, None).expect("networked fix");
        assert_eq!(fix.position.x.to_bits(), snapped_fix.position.x.to_bits());
        assert_eq!(fix.position.y.to_bits(), snapped_fix.position.y.to_bits());

        let dx = fix.position.x - raw_fix.position.x;
        let dy = fix.position.y - raw_fix.position.y;
        displacements.push((dx * dx + dy * dy).sqrt());
    }
    displacements.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let p50 = displacements[displacements.len() / 2];
    assert!(
        p50 < 1e-3,
        "quantization moved the median fix {p50} m (budget 1 mm); all: {displacements:?}"
    );

    let stats = server.shutdown();
    assert_eq!(stats.submits_compressed, 9 * 4);
    let ratio = stats.uplink_raw_equiv_bytes as f64 / stats.uplink_compressed_bytes as f64;
    assert!(
        ratio >= 8.0,
        "quantized lobe uplink must compress ≥8×, got {ratio:.2}× \
         ({} raw-equivalent vs {} wire bytes)",
        stats.uplink_raw_equiv_bytes,
        stats.uplink_compressed_bytes
    );
}

#[test]
fn raw_ingestion_accounting_still_adds_up() {
    let target = pt(3.0, 7.0);
    let server = spawn(service(), ServeConfig::default(), "127.0.0.1:0").expect("spawn");
    let mut ap = ApClient::connect(server.addr(), ClientConfig::default()).expect("connect");
    for i in 0..4u32 {
        ap.submit(KEY, i, 0, &lobe_spectrum(i as usize, target))
            .expect("submit");
    }
    let stats = server.shutdown();
    assert_eq!(stats.submits_raw, 4);
    assert_eq!(stats.submits_compressed, 0);
    // Each keyed raw submission: header + key + ap_id + age + bins + values.
    let per_frame = (HEADER_LEN + 8 + 4 + 8 + 4 + 8 * BINS) as u64;
    assert_eq!(stats.uplink_raw_bytes, 4 * per_frame);
    assert_eq!(stats.uplink_compressed_bytes, 0);
}

/// A protocol-v2 era server: decodes headers the old way — any frame type
/// it does not know is an undecodable frame, answered with a courteous
/// `ProtocolError` before hanging up. Knows the keyed raw submit and acks
/// it.
fn spawn_old_server() -> (std::net::SocketAddr, thread::JoinHandle<u32>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = thread::spawn(move || {
        let mut raw_submits = 0u32;
        // Serve exactly two connections: the one that gets refused and
        // the fallback redial.
        for _ in 0..2 {
            let (mut stream, _) = listener.accept().expect("accept");
            raw_submits += serve_old_conn(&mut stream);
        }
        raw_submits
    });
    (addr, handle)
}

fn serve_old_conn(stream: &mut TcpStream) -> u32 {
    let mut raw_submits = 0u32;
    loop {
        let mut header = [0u8; HEADER_LEN];
        if stream.read_exact(&mut header).is_err() {
            return raw_submits; // client went away
        }
        let ty = header[3];
        let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
        let mut payload = vec![0u8; len];
        stream.read_exact(&mut payload).expect("payload");
        // Anything past 0x07 postdates protocol v2 (responses live at
        // 0x80+ and never arrive at a server).
        if (0x08..0x80).contains(&ty) {
            // An old decoder has never heard of this type: report and close.
            let refusal = Frame::ProtocolError {
                code: errcode::UNDECODABLE,
                message: "unknown frame type".into(),
            };
            stream.write_all(&refusal.encode()).expect("refusal");
            return raw_submits;
        }
        let mut wire = header.to_vec();
        wire.extend_from_slice(&payload);
        let (frame, _) = proto::decode(&wire)
            .expect("old-server frame")
            .expect("complete frame");
        match frame {
            Frame::Submit {
                key: Some(_),
                mode: None,
                ..
            } => {
                raw_submits += 1;
                let ack = Frame::SubmitAck {
                    observations: raw_submits,
                };
                stream.write_all(&ack.encode()).expect("ack");
            }
            other => panic!("old server got unexpected frame {other:?}"),
        }
    }
}

#[test]
fn compressed_policy_falls_back_to_raw_against_an_old_server() {
    let (addr, old_server) = spawn_old_server();
    let mut ap = ApClient::connect_with(addr, ClientConfig::default(), Encoding::Quantized)
        .expect("connect");
    assert_eq!(ap.encoding(), Encoding::Quantized);

    // The first submission hits the version wall, falls back, and still
    // lands: the caller sees one successful ack, not an error.
    let spectrum = lobe_spectrum(0, pt(5.0, 5.0));
    let n = ap.submit(KEY, 0, 0, &spectrum).expect("fallback submit");
    assert_eq!(n, 1);
    assert_eq!(
        ap.encoding(),
        Encoding::Raw,
        "client must observably downgrade after the refusal"
    );

    // Subsequent submissions go straight to raw on the redialed connection.
    let n = ap.submit(KEY, 1, 0, &spectrum).expect("raw submit");
    assert_eq!(n, 2);

    drop(ap);
    let raw_submits = old_server.join().expect("old server");
    assert_eq!(raw_submits, 2, "both spectra must arrive as raw frames");
}

#[test]
fn explicit_compressed_submit_on_the_legacy_session_path() {
    // `Client::submit_compressed` drives the unkeyed v3 frame; it must
    // land in the same per-connection session raw submissions use.
    let target = pt(15.0, 2.0);
    let server = spawn(service(), ServeConfig::default(), "127.0.0.1:0").expect("spawn");
    let mut c = at_serve::Client::connect(server.addr(), ClientConfig::default()).expect("connect");

    let mut reference = ArrayTrackServer::new(region());
    for (i, pose) in poses().into_iter().enumerate() {
        let spectrum = lobe_spectrum(i, target);
        reference.add_observation_from(i, pose, spectrum.clone(), 0);
        let n = c
            .submit_compressed(i as u32, 0, CompressedMode::Lossless, &spectrum)
            .expect("submit");
        assert_eq!(n as usize, i + 1);
    }
    let expected = reference.try_localize().expect("reference fix");
    let fix = c.localize(None).expect("networked fix");
    assert_eq!(fix.position.x.to_bits(), expected.position.x.to_bits());
    assert_eq!(fix.position.y.to_bits(), expected.position.y.to_bits());
    server.shutdown();
}
