//! The golden replay scenario: a scripted six-AP office session recorded
//! into an `at-replay` journal.
//!
//! The committed fixture under `tests/fixtures/replay_office/` is this
//! scenario, recorded once and replayed by CI's `replay_check` gate: if
//! any numerical stage of the pipeline changes behavior, the replayed
//! fixes stop matching the recorded ones bit-for-bit and the build
//! fails. The generator and the checker share the config constructors in
//! this module so the deployment can never drift from the journal.
//!
//! Determinism notes: the scenario drives the server from a single
//! thread (every client call blocks on its reply), the session policy
//! suppresses the wall-clock reaper (hour-scale intervals), and queries
//! carry no deadline — so the journal's admission order is total and the
//! recorded outcomes are a pure function of the seed.

use std::io;
use std::path::Path;
use std::sync::Arc;

use at_config::TopologyOp;
use at_core::health::HealthPolicy;
use at_replay::{JournalMeta, Recorder, RecorderConfig, RecorderStats};
use at_serve::{
    ApClient, AppClient, ClientConfig, Encoding, RecordTap, ServeConfig, ServiceConfig,
    SessionPolicy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

use crate::deployment::Deployment;
use crate::experiments::ExperimentConfig;
use crate::serve::{ap_clients_with, service_config, submit_position_keyed};

/// Seed behind the committed golden journal (deployment, radio noise,
/// and client positions all derive from it).
pub(crate) const GOLDEN_SEED: u64 = 7;

/// Session cap for the golden scenario: six resident sessions' worth of
/// spectra, so the eight-session script exercises LRU eviction.
pub(crate) const GOLDEN_CAP: usize = 36;

/// The office deployment the golden journal is recorded under.
pub fn golden_deployment() -> Deployment {
    Deployment::office(GOLDEN_SEED)
}

/// The experiment (capture/pipeline) config for the golden scenario.
pub fn golden_experiment() -> ExperimentConfig {
    ExperimentConfig::arraytrack(GOLDEN_SEED)
}

/// The service config the golden journal is recorded under. The
/// `replay_check` gate rebuilds this; the journal's fingerprint pins it.
pub fn golden_service(dep: &Deployment, cfg: &ExperimentConfig) -> ServiceConfig {
    service_config(dep, cfg.pipeline.music.bins, HealthPolicy::default())
}

/// The session policy for the golden scenario: eviction-sized cap,
/// wall-clock reaper effectively disabled (hour-scale intervals) so no
/// nondeterministic tick/reap events land in the journal.
pub fn golden_session_policy() -> SessionPolicy {
    SessionPolicy {
        idle_timeout: Duration::from_secs(3600),
        max_resident_spectra: GOLDEN_CAP,
        reap_interval: Duration::from_secs(3600),
        refresh_interval: Duration::from_secs(3600),
    }
}

/// The journal meta block the golden scenario records under.
pub fn golden_meta(service: &ServiceConfig) -> JournalMeta {
    JournalMeta::for_service(service, golden_session_policy())
}

fn other_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Records the golden scenario into a journal at `dir` and returns the
/// recorder's totals. `rotate_bytes` sizes the segments (the committed
/// fixture uses a small value so the journal spans several files and the
/// reader's cross-segment path stays exercised).
pub fn record_golden(dir: &Path, rotate_bytes: u64) -> io::Result<RecorderStats> {
    let dep = golden_deployment();
    let cfg = golden_experiment();
    let service = golden_service(&dep, &cfg);
    let session = golden_session_policy();
    let recorder = Arc::new(Recorder::create(
        dir,
        golden_meta(&service),
        RecorderConfig { rotate_bytes },
    )?);
    let serve_cfg = ServeConfig {
        session,
        ..ServeConfig::default()
    };
    let tap: Arc<dyn RecordTap> = recorder.clone();
    let server = at_serve::spawn_recorded(service, serve_cfg, "127.0.0.1:0", Some(tap))?;
    let addr = server.addr();

    let client_cfg = ClientConfig::default();
    let mut aps = ap_clients_with(addr, dep.aps.len(), client_cfg, Encoding::LosslessDelta)
        .map_err(other_err)?;
    let mut app = AppClient::connect(addr, client_cfg).map_err(other_err)?;
    let mut rng = StdRng::seed_from_u64(GOLDEN_SEED);

    // Eight sessions against a six-session cap: keys 6 and 7 push the
    // earliest sessions out, so evicted-key queries exercise the
    // NoObservations path.
    for key in 0..8u64 {
        submit_position_keyed(
            &mut aps,
            key,
            &dep,
            dep.clients[key as usize],
            &cfg,
            &mut rng,
        )
        .map_err(other_err)?;
    }
    // Queries across evicted and resident sessions. Typed localize
    // refusals come back as `ClientError::Localize` — recorded outcomes,
    // not failures of the scenario.
    for key in 0..5u64 {
        query(&mut app, key)?;
    }
    // Two acquisition failures degrade AP 3 (`degraded_after` = 2);
    // subsequent fixes are taken under down-weighted trust.
    aps[3].report_failure(3).map_err(other_err)?;
    aps[3].report_failure(3).map_err(other_err)?;
    for key in 5..8u64 {
        query(&mut app, key)?;
    }
    // A never-submitted key, then a fresh capture that heals AP 3
    // (success reports reset its failure count) and refreshes session 2;
    // the final fix is back at full trust.
    query(&mut app, 99)?;
    submit_position_keyed(&mut aps, 2, &dep, dep.clients[10], &cfg, &mut rng).map_err(other_err)?;
    query(&mut app, 2)?;

    drop(aps);
    drop(app);
    server.shutdown();
    Ok(recorder.finish())
}

fn query(app: &mut AppClient, key: u64) -> io::Result<()> {
    match app.localize(key, None) {
        Ok(_) | Err(at_serve::ClientError::Localize(_)) => Ok(()),
        Err(e) => Err(other_err(e)),
    }
}

/// Records the reconfiguration scenario into a journal at `dir`: the
/// golden office deployment taken through a remove → move → re-add epoch
/// sequence with sessions queried in every epoch, so the committed
/// fixture under `tests/fixtures/replay_reconfig/` pins the epoch
/// machinery end to end (journal epoch records, store/health remaps,
/// per-epoch engine rebuilds) the same way `replay_office` pins the
/// steady-state pipeline.
pub fn record_reconfig_golden(dir: &Path, rotate_bytes: u64) -> io::Result<RecorderStats> {
    let mut dep = golden_deployment();
    let cfg = golden_experiment();
    let service = golden_service(&dep, &cfg);
    let recorder = Arc::new(Recorder::create(
        dir,
        golden_meta(&service),
        RecorderConfig { rotate_bytes },
    )?);
    let serve_cfg = ServeConfig {
        session: golden_session_policy(),
        ..ServeConfig::default()
    };
    let tap: Arc<dyn RecordTap> = recorder.clone();
    let server = at_serve::spawn_recorded(service, serve_cfg, "127.0.0.1:0", Some(tap))?;
    let addr = server.addr();

    let client_cfg = ClientConfig::default();
    let mut aps = ap_clients_with(addr, dep.aps.len(), client_cfg, Encoding::LosslessDelta)
        .map_err(other_err)?;
    let mut app = AppClient::connect(addr, client_cfg).map_err(other_err)?;
    // A distinct stream from the steady-state golden journal, so the two
    // fixtures exercise different radio noise.
    let mut rng = StdRng::seed_from_u64(GOLDEN_SEED ^ 0xEC0);

    // Epoch 0: four sessions against the full six-AP deployment.
    for key in 0..4u64 {
        submit_position_keyed(
            &mut aps,
            key,
            &dep,
            dep.clients[key as usize],
            &cfg,
            &mut rng,
        )
        .map_err(other_err)?;
    }
    for key in 0..4u64 {
        query(&mut app, key)?;
    }

    // Epoch 1: AP 2 departs mid-service. Resident sessions keep their
    // five surviving spectra (ids above 2 shift down) and keep fixing on
    // the surviving quorum; a fresh session sees only five APs.
    let departed = dep.aps.remove(2);
    let info = app
        .reconfigure(&TopologyOp::Remove { ap_id: 2 })
        .map_err(other_err)?;
    assert_eq!(info.epoch, 1, "remove must open epoch 1");
    aps.remove(2);
    for key in 0..4u64 {
        query(&mut app, key)?;
    }
    submit_position_keyed(&mut aps, 4, &dep, dep.clients[4], &cfg, &mut rng).map_err(other_err)?;
    query(&mut app, 4)?;

    // Epoch 2: AP 0 is moved half a meter. It keeps its id but starts
    // cold (old-geometry spectra are reaped), so the next captures
    // repopulate it against the rebuilt grid.
    let mut moved_pose = dep.aps[0].pose;
    moved_pose.center.x += 0.5;
    dep.aps[0].pose = moved_pose;
    let info = app
        .reconfigure(&TopologyOp::Move {
            ap_id: 0,
            pose: moved_pose,
        })
        .map_err(other_err)?;
    assert_eq!(info.epoch, 2, "move must open epoch 2");
    for key in [1u64, 4] {
        submit_position_keyed(
            &mut aps,
            key,
            &dep,
            dep.clients[key as usize + 4],
            &cfg,
            &mut rng,
        )
        .map_err(other_err)?;
        query(&mut app, key)?;
    }

    // Epoch 3: the departed AP rejoins cold at the end of the id space,
    // with its original radio hardware and calibration.
    let rejoin_pose = departed.pose;
    dep.aps.push(departed);
    let info = app
        .reconfigure(&TopologyOp::Add { pose: rejoin_pose })
        .map_err(other_err)?;
    assert_eq!(info.epoch, 3, "re-add must open epoch 3");
    aps.push(ApClient::connect_with(addr, client_cfg, Encoding::LosslessDelta).map_err(other_err)?);
    submit_position_keyed(&mut aps, 6, &dep, dep.clients[6], &cfg, &mut rng).map_err(other_err)?;
    query(&mut app, 6)?;
    query(&mut app, 0)?;

    drop(aps);
    drop(app);
    server.shutdown();
    Ok(recorder.finish())
}
