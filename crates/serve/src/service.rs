//! The service state machine, driven alike by the networked server and by
//! journal replay.
//!
//! [`ServiceCore`] owns the topology epoch (config, fingerprint, engine),
//! the keyed [`SessionStore`], the per-AP [`HealthTracker`] and the
//! optional [`RecordTap`]. Each state change enters through one `&self`
//! method that journals the event to the tap and applies it under the
//! epoch lock (read for traffic, write for a commit), so the journal's
//! record order is the order state changed. The server ([`crate::server`])
//! wraps the core in sockets, threads, queues and the shed/drain
//! protocol; `at-replay` feeds a journal's events into a fresh core. Live
//! serving and replay run the same code, so a sequentially recorded
//! journal replays bit-exactly by construction.

use crate::proto::{ApHealthReport, ClientKey, Frame};
use crate::store::{KeyedObs, SessionStore};
use at_config::{ApMapping, ConfigError, SystemConfig, TopologyOp};
use at_core::health::HealthTracker;
use at_core::{
    fuse_with_scratch, AoaSpectrum, FusedObservation, FusionScratch, LocalizationEngine,
};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::time::Instant;

/// The capture tap: a sink for every state-changing event the core
/// admits, called before the event is applied, so what it sees is exactly
/// what the session store and fusion will see. The `at-replay` recorder
/// implements this to journal keyed traffic for deterministic replay;
/// implementations must be cheap and must never panic — they run on the
/// serving path.
///
/// Only the keyed multi-process path is tapped (keyed submits, keyed
/// queries, failure reports, and the reaper's tick/idle events); legacy
/// v1 per-connection sessions live and die with their socket and are not
/// recordable.
pub trait RecordTap: Send + Sync {
    /// A keyed spectrum was admitted (about to enter the session store).
    fn submit(&self, key: ClientKey, ap_id: u32, age: u64, spectrum: &AoaSpectrum);
    /// An acquisition failure was reported for `ap_id`.
    fn failure(&self, ap_id: u32);
    /// A keyed localize request was admitted; returns the tap's sequence
    /// number for it, echoed back through [`RecordTap::outcome`] once the
    /// reply is known.
    fn query(&self, key: ClientKey, deadline_ms: u32) -> u64;
    /// The reply produced for the query journaled as `query_seq`.
    fn outcome(&self, query_seq: u64, reply: &Frame);
    /// The staleness tick advanced by one refresh interval.
    fn tick(&self);
    /// These idle sessions were evicted.
    fn idle_reap(&self, keys: &[ClientKey]);
    /// A topology reconfiguration committed: the core is now on `epoch`,
    /// whose canonical config fingerprint is `fingerprint`, reached by
    /// applying `op` to the previous epoch's config. Journaled *inside*
    /// the epoch swap's exclusive section, so every record before it
    /// belongs to the old epoch and every record after it to the new one
    /// — the property replay's bit-exactness rests on.
    fn epoch_change(&self, epoch: u64, fingerprint: u64, op: &TopologyOp);
}

/// One topology epoch's immutable state, swapped whole by
/// [`ServiceCore::commit`]: within an epoch every fix is computed from
/// identical state — the bit-exactness unit.
struct Epoch {
    epoch: u64,
    config: SystemConfig,
    fingerprint: u64,
    engine: LocalizationEngine,
}

impl Epoch {
    fn build(epoch: u64, config: SystemConfig) -> Self {
        let engine = LocalizationEngine::new(&config.poses, config.region, config.bins);
        Self {
            epoch,
            fingerprint: config.fingerprint(),
            config,
            engine,
        }
    }

    fn ap(&self, ap_id: u32) -> Result<usize, BadAp> {
        let n_aps = self.config.n_aps();
        ((ap_id as usize) < n_aps)
            .then_some(ap_id as usize)
            .ok_or(BadAp { ap_id, n_aps })
    }
}

/// An AP id the current epoch does not have: the one typed refusal every
/// AP-addressed event shares. Nothing was applied or journaled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BadAp {
    /// The refused id.
    pub ap_id: u32,
    /// The current epoch's AP count.
    pub n_aps: usize,
}

/// A v1 connection's private session, bound to the topology epoch of its
/// first spectrum. Its next submit or localize in a later epoch drops its
/// spectra first (their AP ids name the old deployment), so a stale
/// session answers `NoObservations` instead of fusing the wrong poses.
#[derive(Default)]
pub struct LegacySession {
    epoch: u64,
    pub(crate) obs: Vec<KeyedObs>,
}

impl LegacySession {
    fn bind(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.obs.clear();
            self.epoch = epoch;
        }
    }
}

/// Whose spectra a submit or query addresses.
pub enum SessionRef<'a> {
    /// A tracked client in the keyed session store.
    Keyed(ClientKey),
    /// A v1 connection's private session.
    Legacy(&'a mut LegacySession),
}

/// An admitted localize request.
pub struct Query {
    /// The spectra to fuse (keyed: ascending AP order, the order the
    /// in-process reference adds them).
    pub obs: Vec<KeyedObs>,
    /// The tap's sequence number, to echo in [`ServiceCore::outcome`].
    pub seq: Option<u64>,
}

/// A reconfiguration built by [`ServiceCore::prepare`], not yet published.
pub struct PreparedEpoch {
    next: Epoch,
    mapping: ApMapping,
    op: TopologyOp,
}

impl PreparedEpoch {
    /// The new epoch's canonical config fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.next.fingerprint
    }
}

/// A fusion thread's reusable workspace: the fusion arena and the buffer
/// each query's health snapshot is copied into.
#[derive(Default)]
pub struct FuseScratch {
    fusion: FusionScratch,
    health: HealthTracker,
}

/// The synchronous service state machine. See the module docs.
pub struct ServiceCore {
    topo: RwLock<Epoch>,
    health: Mutex<HealthTracker>,
    store: SessionStore,
    tap: Option<Arc<dyn RecordTap>>,
}

impl ServiceCore {
    /// A core at epoch 0 of `system`, journaling to `tap` when given. The
    /// engine, health tracker and store all size from this one config.
    pub fn new(system: SystemConfig, tap: Option<Arc<dyn RecordTap>>) -> Result<Self, ConfigError> {
        system.validate()?;
        let n_aps = system.n_aps();
        Ok(Self {
            health: Mutex::new(HealthTracker::new(n_aps)),
            store: SessionStore::new(n_aps, system.session),
            topo: RwLock::new(Epoch::build(0, system)),
            tap,
        })
    }

    fn topo(&self) -> RwLockReadGuard<'_, Epoch> {
        self.topo.read().expect("topo poisoned")
    }

    fn health(&self) -> MutexGuard<'_, HealthTracker> {
        self.health.lock().expect("health poisoned")
    }

    fn journal(&self, record: impl FnOnce(&dyn RecordTap)) {
        if let Some(tap) = &self.tap {
            record(tap.as_ref());
        }
    }

    /// The keyed session store (for counters and the reaper's policy).
    pub fn store(&self) -> &SessionStore {
        &self.store
    }

    /// Current topology epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.topo().epoch
    }

    /// The current topology as its [`Frame::TopologyInfo`] answer.
    pub fn topology(&self) -> Frame {
        let topo = self.topo();
        Frame::TopologyInfo {
            epoch: topo.epoch,
            fingerprint: topo.fingerprint,
            poses: topo.config.poses.clone(),
        }
    }

    /// Admits AP `ap_id`'s spectrum, `age` refresh intervals old, into
    /// `session` (journaled when keyed). Returns the session's spectrum
    /// count.
    pub fn submit(
        &self,
        session: SessionRef<'_>,
        ap_id: u32,
        age: u64,
        spectrum: AoaSpectrum,
    ) -> Result<usize, BadAp> {
        let topo = self.topo();
        let ap = topo.ap(ap_id)?;
        match session {
            SessionRef::Keyed(key) => {
                self.journal(|t| t.submit(key, ap_id, age, &spectrum));
                self.health().report_success(ap);
                Ok(self.store.submit(key, ap, age, Arc::new(spectrum)))
            }
            SessionRef::Legacy(session) => {
                session.bind(topo.epoch);
                self.health().report_success(ap);
                session.obs.push(KeyedObs {
                    ap_id,
                    age,
                    spectrum: Arc::new(spectrum),
                });
                Ok(session.obs.len())
            }
        }
    }

    /// Records a failed acquisition at AP `ap_id`.
    pub fn failure(&self, ap_id: u32) -> Result<(), BadAp> {
        let topo = self.topo();
        let ap = topo.ap(ap_id)?;
        self.journal(|t| t.failure(ap_id));
        self.health().report_failure(ap);
        Ok(())
    }

    /// Advances the staleness clock by one refresh interval.
    pub fn tick(&self) {
        let _topo = self.topo();
        self.journal(|t| t.tick());
        self.store.advance_tick();
    }

    /// Evicts every session idle past the policy's timeout as of `now`,
    /// journaling the keys for replay's [`ServiceCore::evict`].
    pub(crate) fn reap(&self, now: Instant) {
        let _topo = self.topo();
        let evicted = self.store.reap_idle(now);
        if !evicted.is_empty() {
            self.journal(|t| t.idle_reap(&evicted));
        }
    }

    /// Evicts exactly `keys`: a journaled reap, without the wall clock.
    pub fn evict(&self, keys: &[ClientKey]) {
        let _topo = self.topo();
        self.journal(|t| t.idle_reap(keys));
        for &key in keys {
            self.store.clear(key);
        }
    }

    /// Admits a localize request: the keyed query is journaled and the
    /// store snapshotted under one epoch read guard. An unknown key
    /// snapshots empty and fuses into the typed `NoObservations`.
    pub fn query(&self, session: SessionRef<'_>, deadline_ms: u32) -> Query {
        let topo = self.topo();
        match session {
            SessionRef::Keyed(key) => {
                let seq = self.tap.as_ref().map(|t| t.query(key, deadline_ms));
                Query {
                    obs: self.store.snapshot(key).unwrap_or_default(),
                    seq,
                }
            }
            SessionRef::Legacy(session) => {
                session.bind(topo.epoch);
                Query {
                    obs: session.obs.clone(),
                    seq: None,
                }
            }
        }
    }

    /// Journals the reply a [`Query`] received.
    pub fn outcome(&self, query_seq: Option<u64>, reply: &Frame) {
        if let Some(seq) = query_seq {
            self.journal(|t| t.outcome(seq, reply));
        }
    }

    /// Fuses `obs` on the current epoch under a snapshot of AP health:
    /// [`Frame::Fix`] with the health of every cited AP, or
    /// [`Frame::Failed`] with the typed error `try_localize` returns.
    pub fn fuse(&self, obs: &[KeyedObs], scratch: &mut FuseScratch) -> Frame {
        // Engine, policy and health snapshot all under one epoch guard.
        let topo = self.topo();
        let policy = topo.config.health;
        scratch.health.clone_from(&self.health());
        let get = |i: usize| FusedObservation {
            pose_idx: obs[i].ap_id as usize,
            spectrum: &obs[i].spectrum,
            ap_id: Some(obs[i].ap_id as usize),
            age: obs[i].age,
        };
        match fuse_with_scratch(
            &topo.engine,
            obs.len(),
            &get,
            &scratch.health,
            &policy,
            &mut scratch.fusion,
        ) {
            Err(error) => Frame::Failed { error },
            // The health of every AP the session cited, as judged by the
            // snapshot the fusion used.
            Ok(estimate) => {
                let mut ap_ids: Vec<u32> = obs.iter().map(|o| o.ap_id).collect();
                ap_ids.sort_unstable();
                ap_ids.dedup();
                let health = &scratch.health;
                Frame::Fix {
                    x: estimate.position.x,
                    y: estimate.position.y,
                    likelihood: estimate.likelihood,
                    health: ap_ids
                        .into_iter()
                        .map(|ap| ApHealthReport {
                            ap_id: ap,
                            status: health.status(ap as usize, &policy),
                            consecutive_failures: health.consecutive_failures(ap as usize),
                        })
                        .collect(),
                }
            }
        }
    }

    /// Step one of a reconfiguration: validates `op` and builds the next
    /// epoch's engine outside every lock. Callers serialize `prepare` →
    /// `commit` pairs.
    pub fn prepare(&self, op: &TopologyOp) -> Result<PreparedEpoch, ConfigError> {
        let (config, mapping, epoch) = {
            let topo = self.topo();
            let (config, mapping) = topo.config.apply(op)?;
            (config, mapping, topo.epoch + 1)
        };
        Ok(PreparedEpoch {
            next: Epoch::build(epoch, config),
            mapping,
            op: *op,
        })
    }

    /// Step two, in one exclusive section: journal the epoch change, remap
    /// the store and health tracker onto the new AP ids, publish.
    pub fn commit(&self, prepared: PreparedEpoch) {
        let PreparedEpoch { next, mapping, op } = prepared;
        let mut topo = self.topo.write().expect("topo poisoned");
        assert_eq!(next.epoch, topo.epoch + 1, "interleaved commit");
        self.journal(|t| t.epoch_change(next.epoch, next.fingerprint, &op));
        self.store.remap(&mapping.old_to_new, mapping.n_new);
        self.health().remap(&mapping.old_to_new, mapping.n_new);
        *topo = next;
    }
}
