//! Load generation against the networked location service (`at-serve`):
//! sustained-throughput, overload, and graceful-drain phases over loopback
//! TCP, committed to `BENCH_SERVE.json` at the repo root.
//!
//! Four phases:
//!
//! 1. **sustained** — concurrent clients with pre-filled six-AP sessions
//!    issue localize requests back to back; reports responses/sec and the
//!    client-observed p50/p95/p99 round-trip latency.
//! 2. **overload** — a deliberately tiny server (one worker, depth-1
//!    queues) under a 32-client storm with client retry disabled: offered
//!    load beyond capacity must *shed* (typed `Overloaded` frames, shed
//!    counter > 0) while the server keeps answering — proven by a
//!    ping + localize after the storm.
//! 3. **mixed** — the Figure 1 topology: six AP ingestion connections
//!    stream keyed spectra over the protocol-v3 *quantized* uplink while
//!    app connections localize by key, under a resident-spectra cap of
//!    half the working set. A sampler asserts the
//!    `at_serve_sessions_spectra_resident` gauge never exceeds the cap;
//!    before the storm a quiesced keyed fix is checked bit-exact against
//!    the in-process server (raw and lossless-delta uplinks) and the
//!    quantized path's per-key fix displacement is measured against the
//!    raw fusion. The server's uplink accounting yields the
//!    compression-ratio number committed to `BENCH_SERVE.json`.
//! 4. **drain** — several keyed localizes queue behind a single worker
//!    while the server shuts down; graceful drain must answer every one
//!    with a fix or a typed `ShuttingDown`, never an I/O error or a hang.
//!
//! `--smoke` runs the same four phases at CI scale (seconds, not
//! minutes) and exits non-zero if the sustained throughput collapses
//! below `SMOKE_MIN_RPS`, the shed/drain behaviors disappear, the
//! keyed parity breaks, the resident gauge exceeds the cap, the
//! quantized uplink spends more than 0.15× the raw bytes per spectrum,
//! the median quantized fix drifts ≥ 1 mm from the raw path, or the
//! lossless replay stops being bit-exact.

use crate::report::Report;
use at_channel::geometry::pt;
use at_core::health::HealthPolicy;
use at_core::synthesis::SearchRegion;
use at_core::{AoaSpectrum, ArrayTrackServer};
use at_serve::{
    spawn, ApClient, AppClient, Client, ClientConfig, ClientError, Encoding, ServeConfig,
    ServiceConfig, SessionPolicy,
};
use at_testbed::office;
use std::io::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Where the committed JSON results live (repo root).
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_SERVE.json");

/// Spectrum resolution of the workload (the paper pipeline's MUSIC scan).
const BINS: usize = 720;

/// Smoke gate: the sustained phase must clear this rate. Far below the
/// committed baseline on purpose — the gate catches collapse (a lost
/// worker, an accidental serial queue), not scheduler noise.
const SMOKE_MIN_RPS: f64 = 100.0;

/// Percentile of a sample set, nearest-rank on the sorted copy.
fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty());
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The office deployment's geometry as a wire service (synthetic lobe
/// spectra stand in for the radio path: the load target is the server,
/// not the channel simulator).
fn office_service() -> ServiceConfig {
    ServiceConfig {
        poses: office::ap_poses()
            .into_iter()
            .map(|(center, axis_angle)| at_core::synthesis::ApPose { center, axis_angle })
            .collect(),
        region: SearchRegion::new(pt(0.0, 0.0), pt(office::WIDTH, office::DEPTH)),
        bins: BINS,
        policy: HealthPolicy::default(),
    }
}

/// A clean single-lobe spectrum aimed from AP `ap` at `target`.
fn lobe_spectrum(
    service: &ServiceConfig,
    ap: usize,
    target: at_channel::geometry::Point,
) -> AoaSpectrum {
    let bearing = service.poses[ap].bearing_to(target);
    AoaSpectrum::from_fn(BINS, |t| {
        let d = at_channel::geometry::angle_diff(t, bearing);
        (-(d / 0.22).powi(2)).exp() + 0.01
    })
}

/// Connects and fills a session with all six AP spectra for `target`.
fn primed_client(
    addr: SocketAddr,
    service: &ServiceConfig,
    target: at_channel::geometry::Point,
    cfg: ClientConfig,
) -> Client {
    let mut c = Client::connect(addr, cfg).expect("connect");
    for ap in 0..service.poses.len() {
        c.submit(ap as u32, 0, &lobe_spectrum(service, ap, target))
            .expect("submit");
    }
    c
}

struct SustainedResult {
    clients: usize,
    workers: usize,
    responses: usize,
    seconds: f64,
    rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

/// Sustained phase: `clients` threads, `per_client` localize requests
/// each, against a production-shaped server.
fn run_sustained(report: &Report, clients: usize, per_client: usize) -> SustainedResult {
    let service = office_service();
    let cfg_workers = std::thread::available_parallelism()
        .map(|n| n.get().clamp(2, 8))
        .unwrap_or(4);
    let cfg = ServeConfig {
        workers: cfg_workers,
        admission_depth: 128,
        ..ServeConfig::default()
    };
    let server = spawn(service.clone(), cfg, "127.0.0.1:0").expect("spawn");
    let addr = server.addr();

    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|ci| {
            let service = service.clone();
            thread::spawn(move || {
                let target = pt(
                    4.0 + (ci as f64 * 5.3) % (office::WIDTH - 8.0),
                    3.0 + (ci as f64 * 2.9) % (office::DEPTH - 6.0),
                );
                let mut c = primed_client(addr, &service, target, ClientConfig::default());
                let mut latencies_ms = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let t = Instant::now();
                    c.localize(None).expect("sustained fix");
                    latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                latencies_ms
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("client thread"));
    }
    let seconds = start.elapsed().as_secs_f64();
    let stats = server.shutdown();
    assert_eq!(stats.fixes as usize, clients * per_client);

    let result = SustainedResult {
        clients,
        workers: cfg_workers,
        responses: latencies.len(),
        seconds,
        rps: latencies.len() as f64 / seconds,
        p50_ms: percentile(&latencies, 0.5),
        p95_ms: percentile(&latencies, 0.95),
        p99_ms: percentile(&latencies, 0.99),
    };
    report.line(format!(
        "  sustained: {} responses in {:.2} s = {:.0} rps; latency p50 {:.2} / p95 {:.2} / p99 {:.2} ms",
        result.responses, result.seconds, result.rps, result.p50_ms, result.p95_ms, result.p99_ms,
    ));
    result
}

struct OverloadResult {
    clients: usize,
    offered: usize,
    fixes: usize,
    shed: usize,
    responsive_after: bool,
}

/// Overload phase: a storm against a deliberately tiny server.
fn run_overload(report: &Report, clients: usize, per_client: usize) -> OverloadResult {
    let service = office_service();
    let cfg = ServeConfig {
        workers: 1,
        admission_depth: 1,
        ..ServeConfig::default()
    };
    let server = spawn(service.clone(), cfg, "127.0.0.1:0").expect("spawn");
    let addr = server.addr();

    let fixes = Arc::new(AtomicUsize::new(0));
    let sheds = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..clients)
        .map(|ci| {
            let service = service.clone();
            let fixes = Arc::clone(&fixes);
            let sheds = Arc::clone(&sheds);
            thread::spawn(move || {
                let target = pt(6.0 + ci as f64 % 30.0, 4.0 + ci as f64 % 15.0);
                // Retry disabled: every shed surfaces as Overloaded.
                let cfg = ClientConfig {
                    max_attempts: 1,
                    ..ClientConfig::default()
                };
                let mut c = primed_client(addr, &service, target, cfg);
                for _ in 0..per_client {
                    match c.localize(None) {
                        Ok(_) => fixes.fetch_add(1, Ordering::Relaxed),
                        Err(ClientError::Overloaded { .. }) => {
                            sheds.fetch_add(1, Ordering::Relaxed)
                        }
                        Err(e) => panic!("unexpected error under overload: {e}"),
                    };
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("storm thread");
    }

    // Still fully responsive after the storm?
    let mut c = primed_client(addr, &service, pt(10.0, 5.0), ClientConfig::default());
    let responsive_after = c.ping(7).is_ok() && c.localize(None).is_ok();
    let stats = server.shutdown();

    let result = OverloadResult {
        clients,
        offered: clients * per_client,
        fixes: fixes.load(Ordering::Relaxed),
        shed: sheds.load(Ordering::Relaxed),
        responsive_after,
    };
    assert_eq!(result.fixes + result.shed, result.offered);
    assert_eq!(stats.shed, result.shed as u64);
    report.line(format!(
        "  overload: {} offered -> {} fixes, {} shed (typed Overloaded), responsive after: {}",
        result.offered, result.fixes, result.shed, result.responsive_after,
    ));
    result
}

/// Drain phase: shutdown cuts into keyed localizes queued behind one
/// worker; every one must be answered with a fix or `ShuttingDown`, and
/// the fixes must be exactly the server's count.
fn run_drain(report: &Report) -> bool {
    const REQUESTS: u64 = 8;
    let service = office_service();
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server = spawn(service.clone(), cfg, "127.0.0.1:0").expect("spawn");
    let addr = server.addr();
    let mut ap_conn = ApClient::connect(addr, ClientConfig::default()).expect("ap connect");
    for key in 0..REQUESTS {
        let target = pt(6.0 + 3.0 * key as f64, 9.0);
        for ap in 0..service.poses.len() {
            ap_conn
                .submit(key, ap as u32, 0, &lobe_spectrum(&service, ap, target))
                .expect("drain submit");
        }
    }
    // Connected before shutdown starts, one request each, so every reply
    // is written before the server cuts the connection's read half.
    let no_retry = ClientConfig {
        max_attempts: 1,
        ..ClientConfig::default()
    };
    let in_flight: Vec<_> = (0..REQUESTS)
        .map(|key| {
            let mut app = AppClient::connect(addr, no_retry).expect("app connect");
            thread::spawn(move || app.localize(key, None))
        })
        .collect();
    let waited = Instant::now();
    while server.stats().requests < REQUESTS && waited.elapsed() < Duration::from_secs(10) {
        thread::sleep(Duration::from_micros(200));
    }
    let stats = server.shutdown();
    let (mut fixes, mut refused, mut broken) = (0u64, 0u64, 0u64);
    for h in in_flight {
        match h.join().expect("drain thread") {
            Ok(_) => fixes += 1,
            Err(ClientError::ShuttingDown) => refused += 1,
            Err(_) => broken += 1,
        }
    }
    let drained = broken == 0 && fixes == stats.fixes;
    report.line(format!(
        "  drain: {REQUESTS} keyed localizes cut by shutdown -> {fixes} fixes \
         (server counted {}), {refused} ShuttingDown, {broken} other: {drained}",
        stats.fixes
    ));
    drained
}

struct MixedResult {
    ap_conns: usize,
    app_threads: usize,
    keys: usize,
    cap: usize,
    submits: usize,
    fixes: usize,
    unresolved: usize,
    shed: usize,
    max_resident_spectra: f64,
    evicted_cap: u64,
    parity_ok: bool,
    seconds: f64,
    /// v3 compressed submissions admitted (pre-storm probes + storm).
    compressed_frames: u64,
    /// Bytes those submissions actually put on the wire.
    uplink_wire_bytes: u64,
    /// Bytes the same submissions would have cost as raw v2 frames.
    uplink_raw_equiv_bytes: u64,
    /// raw-equivalent / wire — the ≥8× acceptance number.
    compression_ratio: f64,
    /// Median fix displacement of the quantized wire path vs the raw
    /// in-process fusion, metres, across all keys.
    p50_displacement_m: f64,
    /// Lossless-delta replay landed the bit-identical fix.
    lossless_ok: bool,
}

/// Mixed phase: the paper's Figure 1 topology under load. Six AP
/// ingestion connections stream keyed spectra for `keys` tracked clients
/// while `apps` application connections localize by key — against a
/// resident-spectra cap of *half* the working set, so cap eviction runs
/// continuously. A sampler thread watches the
/// `at_serve_sessions_spectra_resident` gauge the whole time: its maximum
/// must never exceed the cap (the acceptance criterion committed to
/// BENCH_SERVE.json). Before the storm, one quiesced keyed fix is checked
/// bit-exact against the in-process `ArrayTrackServer` on the same
/// spectra.
fn run_mixed(
    report: &Report,
    keys: usize,
    rounds: usize,
    apps: usize,
    per_app: usize,
) -> MixedResult {
    let service = office_service();
    let n_aps = service.poses.len();
    let cap = (keys * n_aps / 2).max(n_aps);
    let cfg = ServeConfig {
        session: SessionPolicy {
            max_resident_spectra: cap,
            // Only cap pressure evicts in this phase: idleness and
            // staleness are parked out of the measurement.
            idle_timeout: Duration::from_secs(3600),
            refresh_interval: Duration::from_secs(3600),
            ..SessionPolicy::default()
        },
        ..ServeConfig::default()
    };
    let server = spawn(service.clone(), cfg, "127.0.0.1:0").expect("spawn");
    let addr = server.addr();

    // One spectrum set per key, precomputed so the storm measures the
    // server, not the lobe generator.
    let targets: Vec<_> = (0..keys)
        .map(|k| {
            pt(
                4.0 + (k as f64 * 5.3) % (office::WIDTH - 8.0),
                3.0 + (k as f64 * 2.9) % (office::DEPTH - 6.0),
            )
        })
        .collect();
    let spectra: Arc<Vec<Vec<AoaSpectrum>>> = Arc::new(
        targets
            .iter()
            .map(|&t| {
                (0..n_aps)
                    .map(|ap| lobe_spectrum(&service, ap, t))
                    .collect()
            })
            .collect(),
    );

    // Quiesced parity check on key 0 before the storm: keyed wire fix ==
    // in-process fix, bit for bit.
    let mut reference = ArrayTrackServer::new(service.region);
    for (ap, spectrum) in spectra[0].iter().enumerate() {
        reference.add_observation_from(ap, service.poses[ap], spectrum.clone(), 0);
    }
    let expected = reference.try_localize().expect("reference fix");
    let parity_ok = {
        let mut ap_conn = ApClient::connect(addr, ClientConfig::default()).expect("ap connect");
        for (ap, spectrum) in spectra[0].iter().enumerate() {
            ap_conn
                .submit(0, ap as u32, 0, spectrum)
                .expect("parity submit");
        }
        let mut app = AppClient::connect(addr, ClientConfig::default()).expect("app connect");
        let fix = app.localize(0, None).expect("parity fix");
        fix.position.x.to_bits() == expected.position.x.to_bits()
            && fix.position.y.to_bits() == expected.position.y.to_bits()
            && fix.likelihood.to_bits() == expected.likelihood.to_bits()
    };

    // Lossless-delta replay of the same session must land the identical
    // fix: the XOR-delta wire form (protocol v3) is bit-exact end to end.
    let lossless_ok = {
        let mut ap_conn =
            ApClient::connect_with(addr, ClientConfig::default(), Encoding::LosslessDelta)
                .expect("ap connect");
        for (ap, spectrum) in spectra[0].iter().enumerate() {
            ap_conn
                .submit(0, ap as u32, 0, spectrum)
                .expect("lossless submit");
        }
        let mut app = AppClient::connect(addr, ClientConfig::default()).expect("app connect");
        let fix = app.localize(0, None).expect("lossless fix");
        fix.position.x.to_bits() == expected.position.x.to_bits()
            && fix.position.y.to_bits() == expected.position.y.to_bits()
            && fix.likelihood.to_bits() == expected.likelihood.to_bits()
    };

    // Quantized-uplink displacement, key by key against the raw
    // in-process fix, before the storm muddies the sessions. The budget
    // is a *median*: quantization noise (~2·10⁻⁴ relative) usually does
    // not move the refined optimum at all, but near-plateau geometries
    // can wander centimetres.
    let mut displacements = Vec::with_capacity(keys);
    {
        let mut ap_conn =
            ApClient::connect_with(addr, ClientConfig::default(), Encoding::Quantized)
                .expect("ap connect");
        let mut app = AppClient::connect(addr, ClientConfig::default()).expect("app connect");
        for key in 0..keys {
            let mut reference = ArrayTrackServer::new(service.region);
            for (ap, spectrum) in spectra[key].iter().enumerate() {
                reference.add_observation_from(ap, service.poses[ap], spectrum.clone(), 0);
                ap_conn
                    .submit(key as u64, ap as u32, 0, spectrum)
                    .expect("quantized submit");
            }
            let raw_fix = reference.try_localize().expect("reference fix");
            let fix = app.localize(key as u64, None).expect("quantized fix");
            let dx = fix.position.x - raw_fix.position.x;
            let dy = fix.position.y - raw_fix.position.y;
            displacements.push((dx * dx + dy * dy).sqrt());
        }
        assert_eq!(
            ap_conn.encoding(),
            Encoding::Quantized,
            "no fallback against our own server"
        );
    }
    displacements.sort_by(|a, b| a.partial_cmp(b).expect("finite displacements"));
    let p50_displacement_m = displacements[keys / 2];

    // Gauge sampler: the cap invariant is asserted on what an operator
    // would actually see, not on internal state.
    let resident_gauge =
        at_obs::global().gauge(at_obs::names::SERVE_SESSIONS_SPECTRA_RESIDENT, &[]);
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let gauge = Arc::clone(&resident_gauge);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut max = 0.0f64;
            while !stop.load(Ordering::Acquire) {
                max = max.max(gauge.get());
                thread::sleep(Duration::from_millis(1));
            }
            max.max(gauge.get())
        })
    };

    let start = Instant::now();
    let writers: Vec<_> = (0..n_aps)
        .map(|ap| {
            let spectra = Arc::clone(&spectra);
            thread::spawn(move || {
                // The storm runs entirely over the v3 quantized uplink —
                // the compression numbers below are measured under the
                // same write pressure the cap/gauge invariants are.
                let mut conn =
                    ApClient::connect_with(addr, ClientConfig::default(), Encoding::Quantized)
                        .expect("ap");
                for round in 0..rounds {
                    for key in 0..spectra.len() {
                        // Stagger per-AP key order so writers collide on
                        // different sessions each round.
                        let key = (key + ap * 7 + round) % spectra.len();
                        conn.submit(key as u64, ap as u32, 0, &spectra[key][ap])
                            .expect("storm submit");
                    }
                }
            })
        })
        .collect();
    let fixes = Arc::new(AtomicUsize::new(0));
    let unresolved = Arc::new(AtomicUsize::new(0));
    let sheds = Arc::new(AtomicUsize::new(0));
    let readers: Vec<_> = (0..apps)
        .map(|ai| {
            let fixes = Arc::clone(&fixes);
            let unresolved = Arc::clone(&unresolved);
            let sheds = Arc::clone(&sheds);
            thread::spawn(move || {
                let mut app = AppClient::connect(addr, ClientConfig::default()).expect("app");
                for i in 0..per_app {
                    let key = ((i * 13 + ai * 5) % keys) as u64;
                    match app.localize(key, None) {
                        Ok(_) => fixes.fetch_add(1, Ordering::Relaxed),
                        // Cap pressure may have displaced the key between
                        // its last submit and this query: a typed localize
                        // error is correct behavior, not a failure.
                        Err(ClientError::Localize(_)) => unresolved.fetch_add(1, Ordering::Relaxed),
                        Err(ClientError::Overloaded { .. }) => {
                            sheds.fetch_add(1, Ordering::Relaxed)
                        }
                        Err(e) => panic!("unexpected error under mixed load: {e}"),
                    };
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("ap thread");
    }
    for r in readers {
        r.join().expect("app thread");
    }
    let seconds = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Release);
    let max_resident_spectra = sampler.join().expect("sampler");
    let stats = server.shutdown();

    let compression_ratio = if stats.uplink_compressed_bytes > 0 {
        stats.uplink_raw_equiv_bytes as f64 / stats.uplink_compressed_bytes as f64
    } else {
        1.0
    };
    let result = MixedResult {
        ap_conns: n_aps,
        app_threads: apps,
        keys,
        cap,
        // storm + raw/lossless parity priming + quantized probes
        submits: n_aps * rounds * keys + n_aps * (2 + keys),
        fixes: fixes.load(Ordering::Relaxed),
        unresolved: unresolved.load(Ordering::Relaxed),
        shed: sheds.load(Ordering::Relaxed),
        max_resident_spectra,
        evicted_cap: stats.sessions_evicted_cap,
        parity_ok,
        seconds,
        compressed_frames: stats.submits_compressed,
        uplink_wire_bytes: stats.uplink_compressed_bytes,
        uplink_raw_equiv_bytes: stats.uplink_raw_equiv_bytes,
        compression_ratio,
        p50_displacement_m,
        lossless_ok,
    };
    report.line(format!(
        "  mixed: {} APs x {} keys, {} app fixes (+{} unresolved, {} shed) in {:.2} s; \
         resident max {:.0} / cap {}, {} cap evictions, parity {}",
        result.ap_conns,
        result.keys,
        result.fixes,
        result.unresolved,
        result.shed,
        result.seconds,
        result.max_resident_spectra,
        result.cap,
        result.evicted_cap,
        if result.parity_ok {
            "bit-exact"
        } else {
            "BROKEN"
        },
    ));
    report.line(format!(
        "  mixed uplink: {} quantized frames, {} wire bytes vs {} raw-equivalent = {:.1}x; \
         p50 fix displacement {:.2e} m, lossless {}",
        result.compressed_frames,
        result.uplink_wire_bytes,
        result.uplink_raw_equiv_bytes,
        result.compression_ratio,
        result.p50_displacement_m,
        if result.lossless_ok {
            "bit-exact"
        } else {
            "BROKEN"
        },
    ));
    result
}

fn write_json(
    sustained: &SustainedResult,
    overload: &OverloadResult,
    mixed: &MixedResult,
    drained: bool,
) -> std::io::Result<()> {
    // Host context rides along so the committed numbers can be traced to
    // the machine that produced them: the ROADMAP's "multi-core loadgen
    // baseline" item asks for a re-baseline whenever this repo's numbers
    // were taken on a single core and the current host has more.
    let json = format!(
        "{{\n  \"workload\": \"office geometry, 6 APs, {BINS}-bin lobe spectra, loopback TCP\",\n  {},\n  \"sustained\": {{ \"clients\": {}, \"workers\": {}, \"responses\": {}, \"seconds\": {:.2}, \"responses_per_sec\": {:.0}, \"latency_ms\": {{ \"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3} }} }},\n  \"overload\": {{ \"clients\": {}, \"offered\": {}, \"fixes\": {}, \"shed\": {}, \"responsive_after\": {} }},\n  \"mixed\": {{ \"ap_connections\": {}, \"app_threads\": {}, \"keys\": {}, \"resident_spectra_cap\": {}, \"submits\": {}, \"fixes\": {}, \"unresolved\": {}, \"shed\": {}, \"max_resident_spectra\": {:.0}, \"cap_evictions\": {}, \"parity_bit_exact\": {}, \"seconds\": {:.2} }},\n  \"uplink\": {{ \"encoding\": \"quantized\", \"compressed_frames\": {}, \"wire_bytes\": {}, \"raw_equiv_bytes\": {}, \"compression_ratio\": {:.2}, \"bytes_per_spectrum\": {:.1}, \"raw_bytes_per_spectrum\": {:.1}, \"p50_fix_displacement_m\": {:.3e}, \"lossless_parity_bit_exact\": {} }},\n  \"drain\": {{ \"in_flight_drained\": {} }}\n}}\n",
        crate::experiments::perf::host_context_json(),
        sustained.clients,
        sustained.workers,
        sustained.responses,
        sustained.seconds,
        sustained.rps,
        sustained.p50_ms,
        sustained.p95_ms,
        sustained.p99_ms,
        overload.clients,
        overload.offered,
        overload.fixes,
        overload.shed,
        overload.responsive_after,
        mixed.ap_conns,
        mixed.app_threads,
        mixed.keys,
        mixed.cap,
        mixed.submits,
        mixed.fixes,
        mixed.unresolved,
        mixed.shed,
        mixed.max_resident_spectra,
        mixed.evicted_cap,
        mixed.parity_ok,
        mixed.seconds,
        mixed.compressed_frames,
        mixed.uplink_wire_bytes,
        mixed.uplink_raw_equiv_bytes,
        mixed.compression_ratio,
        mixed.uplink_wire_bytes as f64 / mixed.compressed_frames.max(1) as f64,
        mixed.uplink_raw_equiv_bytes as f64 / mixed.compressed_frames.max(1) as f64,
        mixed.p50_displacement_m,
        mixed.lossless_ok,
        drained,
    );
    let mut f = std::fs::File::create(BASELINE_PATH)?;
    f.write_all(json.as_bytes())?;
    println!("  -> wrote {BASELINE_PATH}");
    Ok(())
}

/// Full loadgen run: refreshes `BENCH_SERVE.json` at the repo root.
pub fn run() -> std::io::Result<()> {
    let report = Report::new("serve")?;
    report.section("at-serve loadgen (loopback)");
    let sustained = run_sustained(&report, 8, 600);
    let overload = run_overload(&report, 32, 16);
    let mixed = run_mixed(&report, 16, 8, 8, 100);
    let drained = run_drain(&report);
    report.csv(
        "loadgen",
        &["metric", "value"],
        vec![
            vec!["responses_per_sec".into(), format!("{:.0}", sustained.rps)],
            vec!["latency_p50_ms".into(), format!("{:.3}", sustained.p50_ms)],
            vec!["latency_p95_ms".into(), format!("{:.3}", sustained.p95_ms)],
            vec!["latency_p99_ms".into(), format!("{:.3}", sustained.p99_ms)],
            vec!["overload_shed".into(), overload.shed.to_string()],
            vec![
                "mixed_max_resident_spectra".into(),
                format!("{:.0}", mixed.max_resident_spectra),
            ],
            vec!["mixed_cap".into(), mixed.cap.to_string()],
            vec!["mixed_cap_evictions".into(), mixed.evicted_cap.to_string()],
            vec!["mixed_parity_bit_exact".into(), mixed.parity_ok.to_string()],
            vec![
                "uplink_compression_ratio".into(),
                format!("{:.2}", mixed.compression_ratio),
            ],
            vec![
                "uplink_p50_fix_displacement_m".into(),
                format!("{:.3e}", mixed.p50_displacement_m),
            ],
            vec![
                "uplink_lossless_bit_exact".into(),
                mixed.lossless_ok.to_string(),
            ],
            vec!["drained".into(), drained.to_string()],
        ],
    )?;
    // Re-baseline only where the worker pool actually fans out: the
    // committed numbers came from a one-core container (see ROADMAP
    // "Multi-core loadgen baseline"), and overwriting them from another
    // starved host would just churn the JSON without fixing that.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores > 2 {
        write_json(&sustained, &overload, &mixed, drained)?;
    } else {
        report.line(format!(
            "  -> BENCH_SERVE.json re-baseline skipped: host has {cores} core(s), \
             needs >2 for the worker pool to fan out (ROADMAP: multi-core loadgen baseline)"
        ));
    }
    assert!(
        mixed.max_resident_spectra <= mixed.cap as f64,
        "resident-spectra gauge peaked at {} over the cap {}",
        mixed.max_resident_spectra,
        mixed.cap
    );
    assert!(
        mixed.compression_ratio >= 8.0,
        "quantized uplink compressed only {:.2}x (acceptance floor 8x)",
        mixed.compression_ratio
    );
    assert!(
        mixed.p50_displacement_m < 1e-3,
        "median quantized fix displaced {} m (budget 1 mm)",
        mixed.p50_displacement_m
    );
    assert!(mixed.lossless_ok, "lossless replay was not bit-exact");
    if sustained.rps < 1000.0 {
        report.line(format!(
            "  WARNING: sustained rate {:.0} rps below the 1k target on this host",
            sustained.rps
        ));
    }
    Ok(())
}

/// CI serve-smoke gate: same phases, seconds-scale, non-zero exit when
/// throughput collapses or shed/drain behavior disappears.
pub fn run_smoke() -> std::io::Result<()> {
    let report = Report::new("serve_smoke")?;
    report.section("serve-smoke: loopback sanity at CI scale");
    let sustained = run_sustained(&report, 4, 60);
    let overload = run_overload(&report, 16, 8);
    let mixed = run_mixed(&report, 8, 4, 4, 24);
    let drained = run_drain(&report);
    let mut failures = Vec::new();
    if sustained.rps < SMOKE_MIN_RPS {
        failures.push(format!(
            "sustained {:.0} rps below the {SMOKE_MIN_RPS:.0} floor",
            sustained.rps
        ));
    }
    if overload.shed == 0 {
        failures.push("overload run shed nothing — admission control inert".into());
    }
    if !overload.responsive_after {
        failures.push("server unresponsive after the overload storm".into());
    }
    if !mixed.parity_ok {
        failures.push("keyed wire fix diverged from the in-process fusion".into());
    }
    if mixed.max_resident_spectra > mixed.cap as f64 {
        failures.push(format!(
            "resident-spectra gauge peaked at {:.0} over the cap {}",
            mixed.max_resident_spectra, mixed.cap
        ));
    }
    if mixed.evicted_cap == 0 {
        failures.push("mixed run evicted nothing — cap enforcement inert".into());
    }
    if mixed.fixes == 0 {
        failures.push("mixed run produced no keyed fixes".into());
    }
    // Compression gates: bytes-per-spectrum over the quantized uplink
    // must stay under 0.15× the raw wire form, the quantized path's
    // median fix must sit inside the 1 mm budget, and lossless replay
    // must be bit-exact.
    if mixed.uplink_wire_bytes * 100 > mixed.uplink_raw_equiv_bytes * 15 {
        failures.push(format!(
            "mixed uplink spent {} bytes against {} raw-equivalent — \
             over the 0.15x byte budget",
            mixed.uplink_wire_bytes, mixed.uplink_raw_equiv_bytes
        ));
    }
    if mixed.p50_displacement_m >= 1e-3 || mixed.p50_displacement_m.is_nan() {
        failures.push(format!(
            "quantized uplink displaced the median fix {} m (budget 1 mm)",
            mixed.p50_displacement_m
        ));
    }
    if !mixed.lossless_ok {
        failures.push("lossless-delta replay diverged from the raw fix".into());
    }
    if !drained {
        failures.push("graceful shutdown left an in-flight request unanswered".into());
    }
    if failures.is_empty() {
        report.line("  serve-smoke: all gates passed");
        Ok(())
    } else {
        Err(std::io::Error::other(format!(
            "serve-smoke failed: {}",
            failures.join("; ")
        )))
    }
}
