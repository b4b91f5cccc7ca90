//! The capture-and-replay tier, end to end: record a live office session
//! into a journal, then prove the journal replays to bit-identical fixes
//! — in-process and over the wire — and that every corruption mode comes
//! back as a typed error, never a panic.
//!
//! What this tier pins down:
//! - **Record → replay parity**: a scripted six-AP session recorded at
//!   the server's admission tap replays through a fresh store + engine
//!   with zero divergence (and again through a live server).
//! - **Crash tails**: a journal cut mid-record opens fine, flags the
//!   tail, and its intact prefix still replays divergence-free.
//! - **Corruption**: flipped payload bytes surface as `CrcMismatch`,
//!   wrong deployments as `ConfigMismatch`, empty directories as
//!   `NoSegments` — all typed, none panicking.
//! - **Committed fixture**: the golden journal under `tests/fixtures/`
//!   matches the generator's deployment fingerprint, so `replay_check`
//!   in CI is comparing against the config it thinks it is.
//! - **One core records and replays itself**: a `ServiceCore` driven
//!   directly (no sockets) through a seeded event stream — repeat
//!   submits, failures, ticks, known and unknown keys, an AP removed and
//!   another added — journals a run that `replay_in_process` reproduces
//!   with zero divergence on every query.
//! - **Shed queries close their record**: under a storm that admission
//!   control sheds, every journaled query still gets exactly one
//!   outcome, and the journal holds one `Overloaded` per shed request.

use arraytrack::channel::geometry::pt;
use arraytrack::config::TopologyOp;
use arraytrack::core::health::HealthPolicy;
use arraytrack::core::synthesis::{ApPose, SearchRegion};
use arraytrack::core::AoaSpectrum;
use arraytrack::replay::{
    replay_in_process, replay_wire, Event, Journal, JournalError, JournalMeta, Outcome, Pacing,
    Recorder, RecorderConfig, WireOptions,
};
use arraytrack::serve::proto::Frame;
use arraytrack::serve::{
    spawn_recorded, ApClient, AppClient, ClientConfig, ClientError, FuseScratch, RecordTap,
    ServeConfig, ServiceConfig, ServiceCore, SessionPolicy, SessionRef,
};
use arraytrack::testbed::replay::{
    golden_deployment, golden_experiment, golden_meta, golden_service, golden_session_policy,
    record_golden,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// A unique scratch directory under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "at_replay_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn service() -> ServiceConfig {
    golden_service(&golden_deployment(), &golden_experiment())
}

const SYN_BINS: usize = 96;
const SYN_CAP: usize = 8;

/// A cheap four-AP deployment with analytic lobe spectra — no simulated
/// radios, so the corruption tests stay fast in debug builds.
fn synthetic_service() -> ServiceConfig {
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
        bins: SYN_BINS,
        policy: HealthPolicy::default(),
    }
}

/// The session policy the synthetic scenario records under: eviction cap
/// [`SYN_CAP`], wall-clock reaper disabled (hour-scale intervals).
fn syn_session_policy() -> SessionPolicy {
    SessionPolicy {
        idle_timeout: Duration::from_secs(3600),
        max_resident_spectra: SYN_CAP,
        reap_interval: Duration::from_secs(3600),
        refresh_interval: Duration::from_secs(3600),
    }
}

fn lobe(
    service: &ServiceConfig,
    ap: usize,
    target: arraytrack::channel::geometry::Point,
) -> AoaSpectrum {
    let bearing = service.poses[ap].bearing_to(target);
    AoaSpectrum::from_fn(SYN_BINS, |t| {
        let d = arraytrack::channel::geometry::angle_diff(t, bearing);
        (-(d / 0.25).powi(2)).exp() + 0.01
    })
}

/// Records a small scripted session (two clients, one failure report,
/// three queries) against the synthetic deployment.
fn record_synthetic(dir: &Path) -> Journal {
    let service = synthetic_service();
    let recorder = Arc::new(
        Recorder::create(
            dir,
            JournalMeta::for_service(&service, syn_session_policy()),
            RecorderConfig {
                rotate_bytes: u64::MAX,
            },
        )
        .expect("recorder"),
    );
    let session = syn_session_policy();
    let tap: Arc<dyn RecordTap> = recorder.clone();
    let server = spawn_recorded(
        service.clone(),
        ServeConfig {
            session,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
        Some(tap),
    )
    .expect("spawn");
    let mut aps: Vec<ApClient> = (0..service.poses.len())
        .map(|_| ApClient::connect(server.addr(), ClientConfig::default()).expect("ap"))
        .collect();
    let mut app = AppClient::connect(server.addr(), ClientConfig::default()).expect("app");
    for (key, target) in [(1u64, pt(6.5, 3.5)), (2, pt(14.0, 6.0))] {
        for (ap, conn) in aps.iter_mut().enumerate() {
            conn.submit(key, ap as u32, 0, &lobe(&service, ap, target))
                .expect("submit");
        }
    }
    aps[2].report_failure(2).expect("failure");
    for key in [1u64, 2, 3] {
        let _ = app.localize(key, None);
    }
    drop(aps);
    drop(app);
    server.shutdown();
    let stats = recorder.finish();
    assert!(!stats.failed);
    Journal::open(dir).expect("synthetic journal opens")
}

#[test]
fn recorded_session_replays_bit_exactly_in_process_and_over_the_wire() {
    let scratch = Scratch::new("e2e");
    // Small segments force rotation, so multi-segment reading is part of
    // the loop being tested.
    let stats = record_golden(scratch.path(), 32 << 10).expect("record");
    assert!(!stats.failed, "recorder hit a write error");
    assert!(stats.segments > 1, "rotation never triggered");

    let journal = Journal::open(scratch.path()).expect("open");
    assert_eq!(journal.segments as u32, stats.segments);
    assert_eq!(journal.records.len() as u64, stats.records);
    assert!(!journal.truncated_tail);

    let service = service();
    let report = replay_in_process(&journal, &service, golden_session_policy()).expect("replay");
    assert!(report.compared > 0, "no outcomes were compared");
    assert_eq!(report.divergences, 0, "{:?}", report.divergence_details);
    assert_eq!(report.skipped, 0);

    // The same journal against a live server: fresh store, same config,
    // sequential wire driving — still bit-exact.
    let server = arraytrack::serve::spawn(
        service.clone(),
        ServeConfig {
            session: golden_session_policy(),
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn");
    let report = replay_wire(
        &journal,
        &server.addr().to_string(),
        &service,
        golden_session_policy(),
        &WireOptions {
            pacing: Pacing::Unpaced,
        },
    )
    .expect("wire replay");
    server.shutdown();
    assert!(report.compared > 0);
    assert_eq!(report.divergences, 0, "{:?}", report.divergence_details);
}

#[test]
fn truncated_tail_is_tolerated_and_the_prefix_still_replays() {
    let scratch = Scratch::new("tail");
    let full = record_synthetic(scratch.path());
    assert!(!full.truncated_tail);

    // Cut the single segment mid-record (not on a frame boundary).
    let seg = scratch.path().join("seg-000000.atj");
    let bytes = fs::read(&seg).expect("read segment");
    fs::write(&seg, &bytes[..bytes.len() - 7]).expect("truncate");

    let journal = Journal::open(scratch.path()).expect("truncated tail must open");
    assert!(journal.truncated_tail);
    assert!(journal.records.len() < full.records.len());

    let report = replay_in_process(&journal, &synthetic_service(), syn_session_policy())
        .expect("prefix replays");
    assert!(report.truncated_tail);
    assert_eq!(report.divergences, 0, "{:?}", report.divergence_details);
}

#[test]
fn corruption_and_mismatch_are_typed_errors_not_panics() {
    let scratch = Scratch::new("corrupt");
    let full = record_synthetic(scratch.path());
    assert_eq!(full.segments, 1);
    let seg = scratch.path().join("seg-000000.atj");
    let pristine = fs::read(&seg).expect("read segment");

    // A flipped byte inside the first record's payload: CRC catches it.
    let mut bytes = pristine.clone();
    let idx = 48 + 8 + 3; // header + first record's framing + 3
    bytes[idx] ^= 0x40;
    fs::write(&seg, &bytes).expect("write corrupt");
    match Journal::open(scratch.path()) {
        Err(JournalError::CrcMismatch { at: 48 }) => {}
        other => panic!("wanted CrcMismatch at 48, got {other:?}"),
    }

    // Bad magic.
    let mut bytes = pristine.clone();
    bytes[0] ^= 0xFF;
    fs::write(&seg, &bytes).expect("write bad magic");
    assert!(matches!(
        Journal::open(scratch.path()),
        Err(JournalError::BadMagic { .. })
    ));

    // Unsupported format version.
    let mut bytes = pristine.clone();
    bytes[8] = 0xEE;
    fs::write(&seg, &bytes).expect("write bad version");
    assert!(matches!(
        Journal::open(scratch.path()),
        Err(JournalError::BadVersion { .. })
    ));

    // Wrong deployment config at replay time: typed fingerprint refusal.
    fs::write(&seg, &pristine).expect("restore");
    let journal = Journal::open(scratch.path()).expect("pristine opens");
    let mut wrong = synthetic_service();
    wrong.policy.min_quorum += 1;
    assert!(matches!(
        replay_in_process(&journal, &wrong, syn_session_policy()),
        Err(JournalError::ConfigMismatch { .. })
    ));

    // An empty directory is typed too.
    let empty = Scratch::new("empty");
    fs::create_dir_all(empty.path()).expect("mkdir");
    assert!(matches!(
        Journal::open(empty.path()),
        Err(JournalError::NoSegments)
    ));
}

#[test]
fn committed_golden_fixture_matches_the_generator_deployment() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/replay_office");
    let journal = Journal::open(&dir).expect("committed fixture opens");
    assert!(
        !journal.truncated_tail,
        "committed fixture has a crash tail"
    );
    assert!(journal.segments > 1, "fixture should span several segments");
    let meta = golden_meta(&service());
    assert_eq!(
        journal.meta, meta,
        "fixture was recorded under a different deployment than the \
         generator builds; regenerate with UPDATE_GOLDEN=1"
    );
}

/// A tiny deterministic generator (xorshift64*), so the event stream is
/// a pure function of its seed.
struct Events(u64);

impl Events {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

#[test]
fn service_core_replays_its_own_journal_bit_exactly() {
    let scratch = Scratch::new("core");
    let service = synthetic_service();
    let session = syn_session_policy();
    let recorder = Arc::new(
        Recorder::create(
            scratch.path(),
            JournalMeta::for_service(&service, session),
            RecorderConfig::default(),
        )
        .expect("recorder"),
    );
    let tap: Arc<dyn RecordTap> = recorder.clone();
    let core = ServiceCore::new(service.to_system(session), Some(tap)).expect("core");
    let mut fuse = FuseScratch::default();
    let mut rng = Events(0x5EED_0016);
    let mut poses = service.poses.clone();
    let (mut queries, mut fixes, mut failed) = (0usize, 0usize, 0usize);
    for step in 0..240 {
        // Mid-run topology changes: AP 1 departs, later a new AP joins.
        let op = match step {
            80 => Some(TopologyOp::Remove { ap_id: 1 }),
            160 => Some(TopologyOp::Add {
                pose: ApPose {
                    center: pt(10.0, 10.0),
                    axis_angle: -1.5,
                },
            }),
            _ => None,
        };
        if let Some(op) = op {
            core.reconfigure(&op).expect("op applies");
            poses = core_poses(&core);
            continue;
        }
        let roll = rng.below(100);
        // Keys 1..=5 are live clients; key 9 is never submitted.
        let key = 1 + rng.below(5);
        let ap = rng.below(poses.len() as u64) as u32;
        if roll < 55 {
            // Repeat submits to the same (key, AP) slot happen often at
            // this key and AP count; the cap of 8 spectra forces
            // evictions too.
            let target = pt(2.0 + 3.0 * key as f64, 1.0 + 1.5 * key as f64);
            let bearing = poses[ap as usize].bearing_to(target);
            let spectrum = AoaSpectrum::from_fn(SYN_BINS, |t| {
                let d = arraytrack::channel::geometry::angle_diff(t, bearing);
                (-(d / 0.25).powi(2)).exp() + 0.01
            });
            core.submit(SessionRef::Keyed(key), ap, rng.below(3), spectrum)
                .expect("in-range submit");
        } else if roll < 65 {
            core.failure(ap).expect("in-range failure");
        } else if roll < 72 {
            core.tick();
        } else {
            let key = if roll < 80 { 9 } else { key };
            let query = core.query(SessionRef::Keyed(key), 0);
            let reply = query.fuse(&mut fuse);
            core.outcome(query.seq, &reply);
            queries += 1;
            match reply {
                Frame::Fix { .. } => fixes += 1,
                Frame::Failed { .. } => failed += 1,
                other => panic!("fusion answered {other:?}"),
            }
        }
    }
    let stats = recorder.finish();
    assert!(!stats.failed);
    assert!(fixes > 0 && failed > 0, "{fixes} fixes, {failed} refusals");

    let evictions = core.store().stats();
    assert!(evictions.evicted_cap > 0 && evictions.evicted_topology > 0);

    let journal = Journal::open(scratch.path()).expect("journal opens");
    let epochs = journal
        .records
        .iter()
        .filter(|r| matches!(r.event, Event::Epoch { .. }))
        .count();
    assert_eq!(epochs, 2);
    let report = replay_in_process(&journal, &service, session).expect("replay");
    assert_eq!(report.queries, queries);
    assert_eq!(report.compared, queries, "every fused reply is comparable");
    assert_eq!(report.divergences, 0, "{:?}", report.divergence_details);
}

#[test]
fn shed_queries_are_journaled_with_their_overloaded_outcome() {
    const KEYS: u64 = 8;
    let scratch = Scratch::new("shed");
    let service = synthetic_service();
    // Room for every key's full session: no cap eviction thins a sweep.
    let session = SessionPolicy {
        max_resident_spectra: KEYS as usize * service.poses.len(),
        ..syn_session_policy()
    };
    let recorder = Arc::new(
        Recorder::create(
            scratch.path(),
            JournalMeta::for_service(&service, session),
            RecorderConfig::default(),
        )
        .expect("recorder"),
    );
    let tap: Arc<dyn RecordTap> = recorder.clone();
    // One worker behind a one-slot admission queue: a storm must shed.
    let server = spawn_recorded(
        service.clone(),
        ServeConfig {
            workers: 1,
            admission_depth: 1,
            session,
        },
        "127.0.0.1:0",
        Some(tap),
    )
    .expect("spawn");
    let addr = server.addr();
    // Every key cites every AP, so every admitted query runs a full sweep.
    let mut ap = ApClient::connect(addr, ClientConfig::default()).expect("ap");
    for key in 1..=KEYS {
        let target = pt(2.0 + 2.0 * key as f64, 1.0 + key as f64);
        for id in 0..service.poses.len() {
            ap.submit(key, id as u32, 0, &lobe(&service, id, target))
                .expect("submit");
        }
    }
    let storm: Vec<_> = (0..32u64)
        .map(|i| {
            thread::spawn(move || {
                let cfg = ClientConfig {
                    max_attempts: 1,
                    ..ClientConfig::default()
                };
                let mut app = AppClient::connect(addr, cfg).expect("app");
                for _ in 0..4 {
                    match app.localize(1 + i % KEYS, None) {
                        Ok(_) | Err(ClientError::Overloaded { .. }) => {}
                        Err(e) => panic!("unexpected error under load: {e}"),
                    }
                }
            })
        })
        .collect();
    for h in storm {
        h.join().expect("storm thread");
    }
    drop(ap);
    let stats = server.shutdown();
    assert!(!recorder.finish().failed);
    assert!(stats.shed > 0, "the storm was never shed");

    let journal = Journal::open(scratch.path()).expect("journal opens");
    let queries: Vec<u64> = journal
        .records
        .iter()
        .filter(|r| matches!(r.event, Event::Query { .. }))
        .map(|r| r.seq)
        .collect();
    let (mut answered, mut overloaded) = (Vec::new(), 0);
    for r in &journal.records {
        if let Event::Outcome { query_seq, outcome } = &r.event {
            answered.push(*query_seq);
            overloaded += u64::from(*outcome == Outcome::Overloaded);
        }
    }
    answered.sort_unstable();
    assert_eq!(queries.len(), 32 * 4);
    assert_eq!(answered, queries, "every query has exactly one outcome");
    assert_eq!(overloaded, stats.shed);
}

/// The AP poses a core's current epoch advertises.
fn core_poses(core: &ServiceCore) -> Vec<ApPose> {
    match core.topology() {
        Frame::TopologyInfo { poses, .. } => poses,
        other => panic!("topology answered {other:?}"),
    }
}
