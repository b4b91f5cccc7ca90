//! The networked side: the server under test, the keys it serves, its
//! correctness oracle, and the in-process replica the traced run drives
//! each request through.
//!
//! The server is `at_serve::spawn` with `ServeConfig::default()`, except a
//! session policy whose refresh interval and idle timeout exceed any run
//! (so prefilled spectra never age into `QuorumNotMet`) and a workload-set
//! resident cap. Traffic goes through `ApClient`/`AppClient` only.
//!
//! Each served key holds one [`Combo`]: a client as heard by one subset
//! of at least [`MIN_APS`] APs. The 41 clients x 22 subsets of the office
//! give 902 distinct fixes, the paper's "all AP combinations" method; the
//! median error over them is far steadier from seed to seed than over the
//! 41 six-AP fixes alone.
//!
//! The oracle is the in-process `ArrayTrackServer::try_localize` over the
//! spectra the server stores; every wire fix must match it bit for bit.
//! The replica repeats a request in-process through the public layer
//! calls the server makes — `LocalizeKey` decode, `SessionStore`
//! snapshot, `plan_fusion_indexed`, `LocalizationEngine::localize_with`,
//! `Fix` encode; codec decompress and `SessionStore::submit` for a submit
//! — so that the wire RTT minus the replica's layer sum is the time spent
//! in hand-offs: queues, batching, thread switches and loopback.

use crate::inputs::Inputs;
use crate::trace::Tracer;
use at_core::health::{HealthPolicy, HealthTracker};
use at_core::{
    plan_fusion_indexed, AoaSpectrum, ArrayTrackServer, FusedObservation, FusionPlan,
    LocalizationEngine, LocalizeScratch, LocationEstimate,
};
use at_serve::codec;
use at_serve::proto::{self, ApHealthReport, Frame};
use at_serve::{
    ApClient, AppClient, ClientConfig, ClientKey, Encoding, RemoteFix, ServeConfig, ServerHandle,
    SessionPolicy, SessionStore,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Angular bins of every spectrum (the pipeline's MUSIC scan).
const BINS: usize = 720;

/// Smallest AP subset a served key holds.
const MIN_APS: usize = 4;

/// Refresh interval and idle timeout of the session store: far above any
/// run, so resident spectra never age or idle out mid-run.
const STEADY: Duration = Duration::from_secs(3600);

/// What one served key holds: a client's spectra from a subset of APs.
pub struct Combo {
    /// Client index.
    pub client: usize,
    /// The APs, ascending.
    pub aps: Vec<usize>,
}

/// Every AP subset of at least [`MIN_APS`] APs, by size then lexically.
fn subsets(n_aps: usize) -> Vec<Vec<usize>> {
    (MIN_APS.min(n_aps)..=n_aps)
        .flat_map(|k| at_testbed::ap_subsets(n_aps, k))
        .collect()
}

/// Every (client, subset) pair, client-major.
pub fn combos(inputs: &Inputs) -> Vec<Combo> {
    let subsets = subsets(inputs.n_aps());
    (0..inputs.n_clients())
        .flat_map(|client| {
            subsets.iter().map(move |aps| Combo {
                client,
                aps: aps.clone(),
            })
        })
        .collect()
}

/// Client policy: one attempt, so a shed request surfaces as a failure
/// instead of being retried out of sight.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        max_attempts: 1,
        ..ClientConfig::default()
    }
}

/// Spawns the server under test on a loopback ephemeral port.
pub fn spawn_server(inputs: &Inputs, max_resident_spectra: usize) -> Result<ServerHandle, String> {
    let session = SessionPolicy {
        idle_timeout: STEADY,
        refresh_interval: STEADY,
        max_resident_spectra,
        ..SessionPolicy::default()
    };
    at_serve::spawn(
        at_testbed::service_config(&inputs.dep, BINS, HealthPolicy::default()),
        ServeConfig {
            session,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .map_err(|e| format!("spawn: {e}"))
}

/// Connects the ingestion client.
pub fn connect_ap(server: &ServerHandle, encoding: Encoding) -> Result<ApClient, String> {
    ApClient::connect_with(server.addr(), client_config(), encoding)
        .map_err(|e| format!("connect: {e}"))
}

/// Connects the query client.
pub fn connect_app(server: &ServerHandle) -> Result<AppClient, String> {
    AppClient::connect(server.addr(), client_config()).map_err(|e| format!("connect: {e}"))
}

/// The in-process fix of every combo from the spectra the server will
/// hold (`served[client * n_aps + ap]`), one `ArrayTrackServer` per AP
/// subset so its engine is built once per subset.
pub fn oracle_fixes(
    inputs: &Inputs,
    served: &[AoaSpectrum],
    combos: &[Combo],
) -> Result<Vec<LocationEstimate>, String> {
    let n = inputs.n_aps();
    let subsets = subsets(n);
    let per_subset: Vec<Result<Vec<LocationEstimate>, String>> =
        at_testbed::parallel_map(&subsets, crate::process::nproc(), |_, aps| {
            let mut server = ArrayTrackServer::new(inputs.dep.search_region());
            (0..inputs.n_clients())
                .map(|c| {
                    server.clear();
                    for &ap in aps {
                        let pose = inputs.dep.aps[ap].pose;
                        server.add_observation_from(ap, pose, served[c * n + ap].clone(), 0);
                    }
                    server
                        .try_localize()
                        .map_err(|e| format!("oracle cannot fix client {c} from APs {aps:?}: {e}"))
                })
                .collect()
        });
    let per_subset = per_subset.into_iter().collect::<Result<Vec<_>, _>>()?;
    combos
        .iter()
        .map(|cb| {
            let s = subsets
                .iter()
                .position(|a| *a == cb.aps)
                .ok_or("a combo outside the AP subsets")?;
            Ok(per_subset[s][cb.client])
        })
        .collect()
}

/// Whether a wire fix is bit-identical to the oracle's.
pub fn same_fix(fix: &LocationEstimate, oracle: &LocationEstimate) -> bool {
    fix.position.x.to_bits() == oracle.position.x.to_bits()
        && fix.position.y.to_bits() == oracle.position.y.to_bits()
        && fix.likelihood.to_bits() == oracle.likelihood.to_bits()
}

/// The server's exact `serve_batch` count: batches executed so far.
pub fn serve_batches() -> u64 {
    at_obs::global()
        .snapshot()
        .histogram(
            at_obs::stages::STAGE_SECONDS,
            &[("stage", at_obs::stages::SERVE_BATCH)],
        )
        .map_or(0, |h| h.count)
}

/// The replica's shared state: the same engine, health view, policy and
/// (replayed) store contents the server fuses from.
pub struct Replica {
    engine: LocalizationEngine,
    health: HealthTracker,
    policy: HealthPolicy,
    store: SessionStore,
}

/// Per-thread reusable buffers of the replica.
#[derive(Default)]
pub struct ReplicaScratch {
    plan: FusionPlan,
    scratch: LocalizeScratch,
    request: Vec<u8>,
    reply: Vec<u8>,
    blob: Vec<u8>,
}

impl Replica {
    /// A replica of a server built by [`spawn_server`] with the same cap.
    pub fn new(inputs: &Inputs, max_resident_spectra: usize) -> Self {
        let service = at_testbed::service_config(&inputs.dep, BINS, HealthPolicy::default());
        let n = inputs.n_aps();
        Self {
            engine: LocalizationEngine::new(&service.poses, service.region, BINS),
            health: HealthTracker::new(n),
            policy: service.policy,
            store: SessionStore::new(
                n,
                SessionPolicy {
                    idle_timeout: STEADY,
                    refresh_interval: STEADY,
                    max_resident_spectra,
                    ..SessionPolicy::default()
                },
            ),
        }
    }

    /// Replays one submit in-process (under an `inproc.submit` span): the
    /// uplink codec round trip for compressed encodings (the client's
    /// compress spanned as `inproc.codec.compress`, apart from the frame
    /// path's), then the store write. Returns the key's resident spectrum
    /// count.
    #[allow(clippy::too_many_arguments)]
    pub fn submit(
        &self,
        key: ClientKey,
        ap: usize,
        spectrum: &AoaSpectrum,
        encoding: Encoding,
        tr: &mut Tracer,
        request: u64,
        ws: &mut ReplicaScratch,
    ) -> Result<usize, String> {
        let root = tr.open();
        let start = tr.now();
        let p = Some(root);
        let stored = match encoding.mode() {
            None => spectrum.clone(),
            Some(mode) => {
                tr.span("inproc.codec.compress", p, request, || {
                    ws.blob.clear();
                    codec::compress_into(&mut ws.blob, spectrum, mode);
                });
                tr.span("serve.codec.decompress", p, request, || {
                    codec::decompress(&ws.blob)
                })
                .map_err(|e| format!("replica decompress: {e}"))?
                .1
            }
        };
        let n = tr.span("serve.store.submit", p, request, || {
            self.store.submit(key, ap, 0, Arc::new(stored))
        });
        tr.close(root, "inproc.submit", None, request, start);
        Ok(n)
    }

    /// Replays one keyed localize in-process (under an `inproc.fix` span).
    pub fn fix(
        &self,
        key: ClientKey,
        tr: &mut Tracer,
        request: u64,
        ws: &mut ReplicaScratch,
    ) -> Result<LocationEstimate, String> {
        ws.request.clear();
        Frame::LocalizeKey {
            key,
            deadline_ms: 0,
        }
        .encode_into(&mut ws.request);
        let root = tr.open();
        let start = tr.now();
        let p = Some(root);
        let decoded = tr.span("serve.proto.decode", p, request, || {
            proto::decode(&ws.request)
        });
        if !matches!(decoded, Ok(Some((Frame::LocalizeKey { key: k, .. }, _))) if k == key) {
            return Err(format!("replica decoded {decoded:?}"));
        }
        let snapshot = tr
            .span("serve.store.snapshot", p, request, || {
                self.store.snapshot(key)
            })
            .ok_or_else(|| format!("replica holds no session for key {key}"))?;
        let get = |i: usize| FusedObservation {
            pose_idx: snapshot[i].ap_id as usize,
            spectrum: &snapshot[i].spectrum,
            ap_id: Some(snapshot[i].ap_id as usize),
            age: snapshot[i].age,
        };
        tr.span("core.pipeline.plan", p, request, || {
            plan_fusion_indexed(
                snapshot.len(),
                &get,
                self.engine.bins(),
                &self.health,
                &self.policy,
                &mut ws.plan,
            )
        })
        .map_err(|e| format!("replica plan: {e}"))?;
        // A plan that tempers or drops an observation would no longer be
        // a plain engine sweep; the steady workloads never produce one.
        if ws.plan.fused() != snapshot.len() {
            return Err("replica plan dropped or tempered an observation".into());
        }
        let estimate = tr.span("core.engine.sweep", p, request, || {
            let obs: Vec<(usize, &AoaSpectrum)> = snapshot
                .iter()
                .map(|o| (o.ap_id as usize, &*o.spectrum))
                .collect();
            self.engine.localize_with(&obs, &mut ws.scratch)
        });
        tr.span("serve.proto.encode", p, request, || {
            let health = snapshot
                .iter()
                .map(|o| ApHealthReport {
                    ap_id: o.ap_id,
                    status: self.health.status(o.ap_id as usize, &self.policy),
                    consecutive_failures: self.health.consecutive_failures(o.ap_id as usize),
                })
                .collect();
            ws.reply.clear();
            Frame::Fix {
                x: estimate.position.x,
                y: estimate.position.y,
                likelihood: estimate.likelihood,
                health,
            }
            .encode_into(&mut ws.reply);
        });
        tr.close(root, "inproc.fix", None, request, start);
        Ok(estimate)
    }
}

/// One wire submit, timed; traced as a `client.submit` span.
pub fn timed_submit(
    ap_client: &mut ApClient,
    key: ClientKey,
    ap: usize,
    spectrum: &AoaSpectrum,
    tr: &mut Tracer,
    request: u64,
) -> (Result<u32, at_serve::ClientError>, f64) {
    let id = tr.open();
    let start = tr.now();
    let t0 = Instant::now();
    let r = ap_client.submit(key, ap as u32, 0, spectrum);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    tr.close(id, "client.submit", None, request, start);
    (r, ms)
}

/// One wire localize, timed from `from` (the send time, or in an open
/// loop the time the request was due); traced as a `client.fix` span from
/// the send.
pub fn timed_fix(
    app: &mut AppClient,
    key: ClientKey,
    from: Instant,
    tr: &mut Tracer,
    request: u64,
) -> (Result<RemoteFix, at_serve::ClientError>, f64) {
    let id = tr.open();
    let start = tr.now();
    let r = app.localize(key, None);
    let ms = from.elapsed().as_secs_f64() * 1e3;
    tr.close(id, "client.fix", None, request, start);
    (r, ms)
}

/// Submits `combo`'s spectra (`spectra[client * n_aps + ap]`) under `key`
/// through `ap_client`, in ascending AP order, into a key that holds
/// nothing yet: each acknowledgement must count exactly the spectra
/// submitted so far. With a replica, each submit is also replayed
/// in-process.
#[allow(clippy::too_many_arguments)]
pub fn submit_combo(
    spectra: &[AoaSpectrum],
    n_aps: usize,
    combo: &Combo,
    key: ClientKey,
    ap_client: &mut ApClient,
    replica: Option<&Replica>,
    ws: &mut ReplicaScratch,
    tr: &mut Tracer,
    request: &mut u64,
    tally: &mut Tally,
) {
    for (j, &ap) in combo.aps.iter().enumerate() {
        *request += 1;
        let spectrum = &spectra[combo.client * n_aps + ap];
        let (r, ms) = timed_submit(ap_client, key, ap, spectrum, tr, *request);
        tally.submit(r.map(|acked| acked as usize == j + 1), ms);
        if let Some(rep) = replica {
            let enc = ap_client.encoding();
            let ok = rep.submit(key, ap, spectrum, enc, tr, *request, ws);
            tally.check(ok.and_then(|count| {
                (count == j + 1).then_some(true).ok_or_else(|| {
                    format!("replica holds {count} spectra for key {key}, not {}", j + 1)
                })
            }));
        }
    }
}

/// Counts and samples of one phase's submits and fixes.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: refused, errored, or wrong.
    pub failed: u64,
    /// Oracle mismatches among the failures.
    pub mismatches: u64,
    /// Submit RTTs, ms, in completion order.
    pub submit_ms: Vec<f64>,
    /// When each successful submit completed.
    pub submit_at: Vec<Instant>,
    /// Fix RTTs, ms, in completion order.
    pub fix_ms: Vec<f64>,
    /// When each successful fix completed.
    pub fix_at: Vec<Instant>,
    /// Last wire fix per combo, for the accuracy metric.
    pub last_fix: Vec<Option<LocationEstimate>>,
    /// Queries discarded unjudged because the writer lapped their key
    /// while they were in flight.
    pub raced: u64,
    /// First failure, for the report.
    pub first_error: Option<String>,
}

impl Tally {
    fn fail(&mut self, why: String, mismatch: bool) {
        self.failed += 1;
        self.mismatches += u64::from(mismatch);
        self.first_error.get_or_insert(why);
    }

    /// Records a submit whose acknowledgement was checked (`Ok(false)`:
    /// the server acknowledged a wrong resident count).
    pub fn submit(&mut self, r: Result<bool, at_serve::ClientError>, ms: f64) {
        self.attempted += 1;
        match r {
            Ok(true) => {
                self.submit_ms.push(ms);
                self.submit_at.push(Instant::now());
            }
            Ok(false) => self.fail("submit acknowledged a wrong resident count".into(), true),
            Err(e) => self.fail(format!("submit failed: {e}"), false),
        }
    }

    /// Records an in-process replica check (not an operation of its own).
    pub fn check(&mut self, r: Result<bool, String>) {
        match r {
            Ok(true) => {}
            Ok(false) => self.fail("replica disagrees with the server".into(), true),
            Err(e) => self.fail(e, true),
        }
    }

    /// Records a wire fix of combo `slot`, checked bit-for-bit against
    /// `oracle`.
    pub fn fix(
        &mut self,
        r: Result<RemoteFix, at_serve::ClientError>,
        ms: f64,
        slot: usize,
        oracle: &LocationEstimate,
    ) {
        self.attempted += 1;
        match r {
            Ok(fix) if same_fix(&fix.estimate(), oracle) => {
                self.fix_ms.push(ms);
                self.fix_at.push(Instant::now());
                if self.last_fix.len() <= slot {
                    self.last_fix.resize(slot + 1, None);
                }
                self.last_fix[slot] = Some(fix.estimate());
            }
            Ok(fix) => self.fail(
                format!(
                    "combo {slot}: wire fix {:?} differs from the oracle {oracle:?}",
                    fix.position
                ),
                true,
            ),
            Err(e) => self.fail(format!("localize failed: {e}"), false),
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.raced += other.raced;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.submit_ms.extend(other.submit_ms);
        self.submit_at.extend(other.submit_at);
        self.fix_ms.extend(other.fix_ms);
        self.fix_at.extend(other.fix_at);
        if self.last_fix.len() < other.last_fix.len() {
            self.last_fix.resize(other.last_fix.len(), None);
        }
        for (mine, theirs) in self.last_fix.iter_mut().zip(other.last_fix) {
            if theirs.is_some() {
                *mine = theirs;
            }
        }
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ap::{ApPath, FrameLog};

    /// The replica's `plan_fusion_indexed` + `localize_with` path is
    /// bit-identical to the in-process oracle, on raw and on quantized
    /// spectra, for full and partial AP subsets.
    #[test]
    fn replica_fusion_matches_the_oracle() {
        let inputs = Inputs::generate(3, 2);
        let path = ApPath::new();
        let origin = Instant::now();
        let mut log = FrameLog::default();
        let raw: Vec<AoaSpectrum> = inputs
            .groups
            .iter()
            .map(|g| {
                let mut off = Tracer::new(false, origin);
                path.run_group(g, &mut off, 0, &mut log, &mut Vec::new())
            })
            .collect();
        let combos = combos(&inputs);
        assert_eq!(combos.len(), inputs.n_clients() * (15 + 6 + 1));
        for encoding in [Encoding::Raw, Encoding::Quantized] {
            let served: Vec<AoaSpectrum> = match encoding {
                Encoding::Raw => raw.clone(),
                _ => raw.iter().map(codec::quantized).collect(),
            };
            let oracle = oracle_fixes(&inputs, &served, &combos).expect("oracle");
            let replica = Replica::new(&inputs, 1 << 16);
            let mut ws = ReplicaScratch::default();
            let mut tr = Tracer::new(true, origin);
            let n = inputs.n_aps();
            for (i, combo) in combos.iter().enumerate().step_by(53) {
                let key = i as u64;
                for (j, &ap) in combo.aps.iter().enumerate() {
                    let s = &raw[combo.client * n + ap];
                    let count = replica
                        .submit(key, ap, s, encoding, &mut tr, 0, &mut ws)
                        .expect("submit");
                    assert_eq!(count, j + 1);
                }
                let fix = replica.fix(key, &mut tr, 0, &mut ws).expect("fix");
                assert!(same_fix(&fix, &oracle[i]), "combo {i} ({encoding:?})");
            }
            // Every layer the hand-off metric subtracts was recorded.
            for name in [
                "serve.proto.decode",
                "serve.store.snapshot",
                "core.pipeline.plan",
                "core.engine.sweep",
                "serve.proto.encode",
                "serve.store.submit",
            ] {
                assert!(tr.spans().iter().any(|s| s.name == name), "{name}");
            }
        }
    }
}
