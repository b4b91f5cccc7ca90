//! The thread-pool TCP location server: sockets, threads and queues
//! around the [`ServiceCore`] state machine.
//!
//! Request path (one bounded queue, the only place a request waits):
//!
//! ```text
//! conn threads ──try_push──▶ admission queue ──pop──▶ workers
//!   (1/socket)    shed ⇒ Overloaded                (Query::fuse per
//!                                                   request, one scratch
//!                                                   each)
//! ```
//!
//! - **Admission control** is the `try_push` edge: when the admission
//!   queue is full the request is *refused* with a typed
//!   [`Frame::Overloaded`] carrying a retry hint — the server never queues
//!   unboundedly and stays responsive under any offered load.
//! - **Deadlines** travel from the client as a relative budget; the clock
//!   starts at frame receipt and is checked once, by the worker, just
//!   *before* the expensive fusion sweep, so a request that can no longer
//!   make its deadline costs a queue slot, not an engine walk.
//! - **Workers** pop the admission queue directly and fuse one request
//!   at a time on their own warm scratch: a fix waits for a free worker,
//!   never for company.
//! - **Reconfiguration** never stalls traffic: each admitted request
//!   holds the topology epoch it was admitted under and fuses on it, so
//!   a [`Frame::Reconfigure`] swaps the epoch without shedding or
//!   draining anything.
//! - **Shutdown** is drain-then-stop: the admission queue closes (new
//!   requests see [`Frame::ShuttingDown`]), everything already admitted is
//!   fused and answered by the workers, then the connections wind down.
//!
//! Admission and fusion are the core's, the same code `at-replay` drives
//! from a journal and `ArrayTrackServer::try_localize` fuses with, so a
//! networked fix is bit-exact with the in-process one and degraded
//! deployments surface the same [`at_core::health::LocalizeError`] values
//! over the wire.

use crate::codec::{self, CompressedMode, Encoding};
use crate::proto::{self, Frame, ReadError, HEADER_LEN};
use crate::queue::Bounded;
use crate::service::{
    BadAp, FuseScratch, LegacySession, Query, RecordTap, ServiceCore, SessionRef,
};
use crate::store::SessionPolicy;
use at_config::{SystemConfig, TopologyOp};
use at_core::health::HealthPolicy;
use at_core::synthesis::{ApPose, SearchRegion};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// What the service localizes against: the deployment geometry and the
/// degradation policy the server *starts* with — topology epoch 0.
/// [`Frame::Reconfigure`] can change the AP set on a live server; see
/// [`ServerHandle`] and the `at_config` crate for the epoch semantics.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// AP poses, indexed by the wire protocol's `ap_id`.
    pub poses: Vec<ApPose>,
    /// Search region (and grid pitch) fixes are computed over.
    pub region: SearchRegion,
    /// Spectrum resolution submissions must eventually match (mismatches
    /// are accepted at submit and refused at localize with
    /// [`at_core::health::LocalizeError::ResolutionMismatch`], like the
    /// in-process server).
    pub bins: usize,
    /// Health/quorum policy for degraded-deployment fusion.
    pub policy: HealthPolicy,
}

impl ServiceConfig {
    /// The canonical [`SystemConfig`] this service config plus a session
    /// policy describes — the single source every sizing decision
    /// (engine, health tracker, session store) derives from, and the
    /// thing the epoch fingerprint is computed over.
    pub fn to_system(&self, session: SessionPolicy) -> SystemConfig {
        SystemConfig {
            poses: self.poses.clone(),
            region: self.region,
            bins: self.bins,
            health: self.policy,
            session,
        }
    }
}

/// Server runtime shape: thread count, queue depth, session residency.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Fusion worker threads, each popping the admission queue and fusing
    /// one request at a time.
    pub workers: usize,
    /// Admission queue depth — the *only* place requests wait; beyond it
    /// they are shed with [`Frame::Overloaded`].
    pub admission_depth: usize,
    /// Residency policy of the keyed session store (idle timeout,
    /// resident-spectra cap, reaper cadence).
    pub session: SessionPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            admission_depth: 64,
            session: SessionPolicy::default(),
        }
    }
}

impl ServeConfig {
    /// Checks the runtime shape: at least one worker and a non-zero
    /// admission depth. The error says which rule was broken. (The
    /// session policy is checked with the rest of the [`SystemConfig`]
    /// when the service starts.)
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        if self.workers < 1 {
            return Err("need at least one worker");
        }
        if self.admission_depth < 1 {
            return Err("admission queue needs depth");
        }
        Ok(())
    }
}

/// One admitted localize request waiting in the admission queue.
struct Job {
    query: Query,
    /// Absolute expiry (frame receipt + the client's relative budget).
    deadline: Option<Instant>,
    /// When the request entered the admission queue (queue-dwell metric).
    enqueued: Instant,
    reply: mpsc::SyncSender<Frame>,
}

#[derive(Default)]
struct Stats {
    connections: AtomicU64,
    requests: AtomicU64,
    shed: AtomicU64,
    deadline_missed: AtomicU64,
    fixes: AtomicU64,
    failures: AtomicU64,
    submits_raw: AtomicU64,
    submits_compressed: AtomicU64,
    uplink_raw_bytes: AtomicU64,
    uplink_compressed_bytes: AtomicU64,
    uplink_raw_equiv_bytes: AtomicU64,
    reconfigures: AtomicU64,
}

/// A point-in-time copy of the server's request counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Localize requests received (including shed ones).
    pub requests: u64,
    /// Localize requests refused by admission control.
    pub shed: u64,
    /// Localize requests dropped because their deadline expired in queue.
    pub deadline_missed: u64,
    /// Fixes produced.
    pub fixes: u64,
    /// Typed localize failures returned (quorum, resolution, empty).
    pub failures: u64,
    /// Keyed sessions currently resident in the session store.
    pub sessions_resident: u64,
    /// Spectra currently resident in the session store (the capped
    /// quantity).
    pub spectra_resident: u64,
    /// Keyed sessions created over the server's lifetime.
    pub sessions_created: u64,
    /// Keyed sessions evicted by the idle-timeout reaper.
    pub sessions_evicted_idle: u64,
    /// Keyed sessions evicted by resident-spectra cap pressure.
    pub sessions_evicted_cap: u64,
    /// Raw (`f64`-bin) spectrum submissions admitted.
    pub submits_raw: u64,
    /// Compressed (v3) spectrum submissions admitted.
    pub submits_compressed: u64,
    /// Wire bytes of the raw submissions (header + payload).
    pub uplink_raw_bytes: u64,
    /// Wire bytes of the compressed submissions (header + payload).
    pub uplink_compressed_bytes: u64,
    /// What the compressed submissions would have cost as raw frames —
    /// the numerator of the compression ratio.
    pub uplink_raw_equiv_bytes: u64,
    /// Current topology epoch (0 = the config the server started with).
    pub epoch: u64,
    /// Topology reconfigurations applied over the server's lifetime.
    pub reconfigures: u64,
    /// Keyed sessions evicted because a topology change left them empty.
    pub sessions_evicted_topology: u64,
}

struct Shared {
    /// The service state machine every connection and worker drives.
    core: ServiceCore,
    draining: AtomicBool,
    stats: Stats,
}

/// Spawns a location server and returns a handle to it.
///
/// Binds `addr` (use port 0 for an ephemeral loopback port), precomputes
/// the localization engine for the deployment, and starts the acceptor,
/// reaper and worker threads. The server runs until
/// [`ServerHandle::shutdown`] (or drop).
///
/// # Errors
/// `InvalidInput` if `cfg` has no worker or a zero admission depth, or if
/// the service config fails validation;
/// otherwise any bind or thread-spawn error.
pub fn spawn(
    service: ServiceConfig,
    cfg: ServeConfig,
    addr: impl ToSocketAddrs,
) -> io::Result<ServerHandle> {
    spawn_recorded(service, cfg, addr, None)
}

/// [`spawn`] with the record toggle on: every admitted keyed event is
/// also fed to `tap` (see [`RecordTap`]) — the hook the `at-replay`
/// journal recorder plugs into. `None` is exactly [`spawn`].
pub fn spawn_recorded(
    service: ServiceConfig,
    cfg: ServeConfig,
    addr: impl ToSocketAddrs,
    tap: Option<Arc<dyn RecordTap>>,
) -> io::Result<ServerHandle> {
    cfg.check()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let core = ServiceCore::new(service.to_system(cfg.session), tap)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    at_obs::global()
        .gauge(at_obs::names::SERVE_TOPOLOGY_EPOCH, &[])
        .set(0.0);
    let shared = Arc::new(Shared {
        core,
        draining: AtomicBool::new(false),
        stats: Stats::default(),
    });
    let admission = Arc::new(Bounded::new(cfg.admission_depth, "admission"));

    let reaper_stop = Arc::new(ReaperStop::default());
    let reaper = {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&reaper_stop);
        thread::Builder::new()
            .name("at-serve-reaper".into())
            .spawn(move || run_reaper(&shared, &stop))?
    };

    let workers = (0..cfg.workers)
        .map(|i| {
            let admission = Arc::clone(&admission);
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("at-serve-worker-{i}"))
                .spawn(move || run_worker(&admission, &shared))
        })
        .collect::<io::Result<Vec<_>>>()?;

    let accept_stop = Arc::new(AtomicBool::new(false));
    let conns: Arc<Conns> = Arc::default();
    let acceptor = {
        let shared = Arc::clone(&shared);
        let admission = Arc::clone(&admission);
        let accept_stop = Arc::clone(&accept_stop);
        let conns = Arc::clone(&conns);
        thread::Builder::new()
            .name("at-serve-acceptor".into())
            .spawn(move || {
                for (id, stream) in (0u64..).zip(listener.incoming()) {
                    if accept_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else {
                        // The failed connection (say, on EMFILE) stays in
                        // the backlog: an immediate retry would spin.
                        thread::sleep(ACCEPT_BACKOFF);
                        continue;
                    };
                    shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                    at_obs::count!("at_serve_connections_total");
                    let sock = stream.try_clone().ok();
                    let shared = Arc::clone(&shared);
                    let admission = Arc::clone(&admission);
                    let registry = Arc::clone(&conns);
                    // Registered under the lock the thread's own exit
                    // needs, so the entry exists before it can be removed.
                    let mut live = conns.lock().expect("registry poisoned");
                    if let Ok(thread) =
                        thread::Builder::new()
                            .name("at-serve-conn".into())
                            .spawn(move || {
                                run_conn(stream, &shared, &admission);
                                drop((shared, admission));
                                registry.lock().expect("registry poisoned").remove(&id);
                            })
                    {
                        live.insert(id, Conn { sock, thread });
                    }
                }
            })?
    };

    Ok(ServerHandle {
        addr: local_addr,
        shared,
        admission,
        accept_stop,
        acceptor: Some(acceptor),
        reaper: Some(reaper),
        reaper_stop,
        workers,
        conns,
    })
}

/// How long the acceptor waits after a failed `accept` before retrying.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// One open connection: a clone of its socket, so shutdown can cut the
/// read half, and its thread.
struct Conn {
    sock: Option<TcpStream>,
    thread: thread::JoinHandle<()>,
}

/// The open connections by connection id. A connection removes its own
/// entry as its last step, once `run_conn` has returned: that closes the
/// socket clone and drops the handle of a thread with nothing left to
/// report, so a server that outlives many connections holds resources
/// only for the open ones. A connection that panics keeps its entry and
/// is joined at shutdown.
type Conns = Mutex<HashMap<u64, Conn>>;

/// Stop flag + wakeup for the background reaper thread.
#[derive(Default)]
struct ReaperStop {
    stopped: Mutex<bool>,
    cv: Condvar,
}

/// The background reaper: advances the store's staleness tick every
/// `refresh_interval` (so silent APs' spectra age into
/// `HealthPolicy::max_spectrum_age` staleness) and sweeps idle sessions
/// every `reap_interval`. Wakes immediately on shutdown.
fn run_reaper(shared: &Shared, stop: &ReaperStop) {
    let policy = *shared.core.store().policy();
    let mut next_tick = Instant::now() + policy.refresh_interval;
    let mut next_reap = Instant::now() + policy.reap_interval;
    let mut stopped = stop.stopped.lock().expect("reaper stop poisoned");
    loop {
        if *stopped {
            return;
        }
        let now = Instant::now();
        // Catch up elapsed intervals even if the thread overslept, so
        // real time maps to tick count.
        while now >= next_tick {
            shared.core.tick();
            next_tick += policy.refresh_interval;
        }
        if now >= next_reap {
            shared.core.reap(now);
            while now >= next_reap {
                next_reap += policy.reap_interval;
            }
        }
        let wake = next_tick.min(next_reap);
        let timeout = wake.saturating_duration_since(Instant::now());
        let (guard, _) = stop
            .cv
            .wait_timeout(stopped, timeout)
            .expect("reaper stop poisoned");
        stopped = guard;
    }
}

/// A running server: its address, live counters, and the shutdown switch.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    admission: Arc<Bounded<Job>>,
    accept_stop: Arc<AtomicBool>,
    acceptor: Option<thread::JoinHandle<()>>,
    reaper: Option<thread::JoinHandle<()>>,
    reaper_stop: Arc<ReaperStop>,
    workers: Vec<thread::JoinHandle<()>>,
    conns: Arc<Conns>,
}

impl ServerHandle {
    /// The address the server is listening on (resolves port 0 binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current request counters.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.shared.stats;
        let store = self.shared.core.store().stats();
        let epoch = self.shared.core.epoch();
        StatsSnapshot {
            epoch,
            reconfigures: s.reconfigures.load(Ordering::Relaxed),
            sessions_evicted_topology: store.evicted_topology,
            connections: s.connections.load(Ordering::Relaxed),
            requests: s.requests.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            deadline_missed: s.deadline_missed.load(Ordering::Relaxed),
            fixes: s.fixes.load(Ordering::Relaxed),
            failures: s.failures.load(Ordering::Relaxed),
            sessions_resident: store.resident_sessions,
            spectra_resident: store.resident_spectra,
            sessions_created: store.created,
            sessions_evicted_idle: store.evicted_idle,
            sessions_evicted_cap: store.evicted_cap,
            submits_raw: s.submits_raw.load(Ordering::Relaxed),
            submits_compressed: s.submits_compressed.load(Ordering::Relaxed),
            uplink_raw_bytes: s.uplink_raw_bytes.load(Ordering::Relaxed),
            uplink_compressed_bytes: s.uplink_compressed_bytes.load(Ordering::Relaxed),
            uplink_raw_equiv_bytes: s.uplink_raw_equiv_bytes.load(Ordering::Relaxed),
        }
    }

    /// Graceful drain-then-stop: refuse new work, finish and answer
    /// everything already admitted, then stop every thread. Idempotent;
    /// also runs on drop.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        // 1. New localize requests see ShuttingDown; admitted ones drain.
        self.shared.draining.store(true, Ordering::Release);
        self.admission.close();
        // 2. Stop accepting; a self-connection unblocks the acceptor.
        self.accept_stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // 3. Workers drain the admission queue, answering every admitted
        //    request, and exit once it is empty. The reaper just stops —
        //    resident sessions die with the store.
        *self
            .reaper_stop
            .stopped
            .lock()
            .expect("reaper stop poisoned") = true;
        self.reaper_stop.cv.notify_all();
        if let Some(h) = self.reaper.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // 4. Only now wind down connections. Workers have *sent* every
        //    admitted reply, but a connection thread may still be writing
        //    one to its socket — so cut only the read half: blocked
        //    readers wake with EOF and exit their loop, while in-flight
        //    reply writes complete.
        //    Joined outside the registry lock, which a closing connection
        //    takes to remove itself.
        let open: Vec<Conn> = self
            .conns
            .lock()
            .expect("registry poisoned")
            .drain()
            .map(|(_, conn)| conn)
            .collect();
        for conn in &open {
            if let Some(sock) = &conn.sock {
                let _ = sock.shutdown(std::net::Shutdown::Read);
            }
        }
        for conn in open {
            let _ = conn.thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Per-connection protocol-error codes (the `code` of
/// [`Frame::ProtocolError`]).
pub mod errcode {
    /// The frame could not be decoded; the connection is dropped.
    pub const UNDECODABLE: u8 = 0;
    /// `ap_id` does not name a deployment AP.
    pub(crate) const BAD_AP: u8 = 1;
    /// A server→client frame type arrived at the server.
    pub(crate) const NOT_A_REQUEST: u8 = 2;
    /// A keyed frame crossed the connection's role: an ingestion
    /// connection issued `LocalizeKey`, or a query connection issued a
    /// keyed `Submit`.
    pub(crate) const ROLE_MISMATCH: u8 = 3;
    /// A `Reconfigure` op would produce an invalid topology (bad AP id,
    /// removing the last AP, non-finite pose). The op was refused and
    /// the epoch is unchanged.
    pub(crate) const BAD_CONFIG: u8 = 4;
}

/// What a connection has declared itself to be. The first keyed frame
/// types the connection; legacy (v1) frames are role-neutral and leave it
/// untyped.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// No keyed frame seen yet.
    Untyped,
    /// An AP process streaming keyed submits (may not query).
    Ingest,
    /// An application issuing `LocalizeKey` (may not submit).
    App,
}

fn bad_ap(BadAp { ap_id, n_aps }: BadAp) -> Frame {
    Frame::ProtocolError {
        code: errcode::BAD_AP,
        message: format!("ap {ap_id} out of range (deployment has {n_aps})"),
    }
}

fn role_mismatch(wanted: &str, got: &str) -> Frame {
    Frame::ProtocolError {
        code: errcode::ROLE_MISMATCH,
        message: format!("connection is typed {got}; {wanted} frames are not allowed"),
    }
}

/// Uplink byte accounting at admission: every spectrum submission charges
/// its wire size to the `encoding`-labelled uplink counter; compressed
/// frames additionally record what the same spectrum would have cost raw,
/// which keeps the cumulative compression-ratio gauge honest.
fn account_uplink(shared: &Shared, frame: &Frame, wire_bytes: usize) {
    let Frame::Submit {
        key,
        mode,
        spectrum,
        ..
    } = frame
    else {
        return;
    };
    let wire = wire_bytes as u64;
    let s = &shared.stats;
    let obs = at_obs::global();
    let label = mode.map_or(Encoding::Raw, CompressedMode::encoding).label();
    obs.counter(
        at_obs::names::SERVE_UPLINK_BYTES_TOTAL,
        &[("encoding", label)],
    )
    .add(wire);
    if mode.is_none() {
        s.submits_raw.fetch_add(1, Ordering::Relaxed);
        s.uplink_raw_bytes.fetch_add(wire, Ordering::Relaxed);
        return;
    }
    // The raw twin of this frame: header + fixed fields + the `u32` bin
    // count + 8 bytes per bin.
    let fixed = if key.is_some() { 8 + 4 + 8 } else { 4 + 8 };
    let raw_equiv = HEADER_LEN as u64 + fixed + codec::raw_wire_bytes(spectrum.bins());
    s.submits_compressed.fetch_add(1, Ordering::Relaxed);
    let wire_total = s.uplink_compressed_bytes.fetch_add(wire, Ordering::Relaxed) + wire;
    let raw_total = s
        .uplink_raw_equiv_bytes
        .fetch_add(raw_equiv, Ordering::Relaxed)
        + raw_equiv;
    obs.counter(
        at_obs::names::SERVE_COMPRESSED_FRAMES_TOTAL,
        &[("mode", label)],
    )
    .inc();
    obs.gauge(at_obs::names::SERVE_UPLINK_COMPRESSION_RATIO, &[])
        .set(raw_total as f64 / wire_total as f64);
}

fn run_conn(mut stream: TcpStream, shared: &Shared, admission: &Bounded<Job>) {
    let mut session = LegacySession::default();
    let mut role = Role::Untyped;
    loop {
        let frame = match proto::read_frame_counted(&mut stream) {
            Ok(Some((f, wire_bytes))) => {
                account_uplink(shared, &f, wire_bytes);
                f
            }
            Ok(None) => return, // clean close
            Err(ReadError::Io(_)) => return,
            Err(ReadError::Decode(e)) => {
                // Framing is lost; say why, then hang up.
                let _ = proto::write_frame(
                    &mut stream,
                    &Frame::ProtocolError {
                        code: errcode::UNDECODABLE,
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        let core = &shared.core;
        let response = match frame {
            Frame::Submit { key: Some(_), .. } if role == Role::App => {
                role_mismatch("ingestion", "app")
            }
            Frame::Submit {
                key,
                ap_id,
                age,
                spectrum,
                ..
            } => {
                let target = match key {
                    Some(key) => SessionRef::Keyed(key),
                    None => SessionRef::Legacy(&mut session),
                };
                match core.submit(target, ap_id, age, spectrum) {
                    Ok(observations) => {
                        if key.is_some() {
                            role = Role::Ingest;
                        }
                        Frame::SubmitAck {
                            observations: observations as u32,
                        }
                    }
                    Err(e) => bad_ap(e),
                }
            }
            Frame::LocalizeKey { .. } if role == Role::Ingest => role_mismatch("query", "ingest"),
            Frame::LocalizeKey { key, deadline_ms } => {
                role = Role::App;
                handle_localize(shared, admission, SessionRef::Keyed(key), deadline_ms)
            }
            Frame::Localize { deadline_ms } => handle_localize(
                shared,
                admission,
                SessionRef::Legacy(&mut session),
                deadline_ms,
            ),
            Frame::ReportFailure { ap_id } => match core.failure(ap_id) {
                Ok(()) => Frame::SubmitAck {
                    observations: session.obs.len() as u32,
                },
                Err(e) => bad_ap(e),
            },
            Frame::ClearSession => {
                session.obs.clear();
                Frame::SubmitAck { observations: 0 }
            }
            Frame::Ping { token } => Frame::Pong { token },
            // Read-only and role-neutral: ops scrape from whatever
            // connection is handy without typing it.
            Frame::MetricsQuery => Frame::MetricsReport {
                text: at_obs::global().snapshot().to_prometheus(),
            },
            Frame::TopologyQuery => core.topology(),
            Frame::Reconfigure { op } => handle_reconfigure(shared, op),
            // Response-type frames are never valid requests.
            _ => Frame::ProtocolError {
                code: errcode::NOT_A_REQUEST,
                message: "server received a response-type frame".into(),
            },
        };
        if proto::write_frame(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// Retry hint attached to [`Frame::Overloaded`] responses.
const RETRY_AFTER_MS: u32 = 10;

fn shed(shared: &Shared) -> Frame {
    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
    at_obs::count!("at_serve_shed_total");
    if shared.draining.load(Ordering::Acquire) {
        Frame::ShuttingDown
    } else {
        Frame::Overloaded {
            retry_after_ms: RETRY_AFTER_MS,
        }
    }
}

fn handle_localize(
    shared: &Shared,
    admission: &Bounded<Job>,
    session: SessionRef<'_>,
    deadline_ms: u32,
) -> Frame {
    let _t = at_obs::time_stage!(at_obs::stages::SERVE_REQUEST);
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    at_obs::count!("at_serve_requests_total");
    if shared.draining.load(Ordering::Acquire) {
        return Frame::ShuttingDown;
    }
    let deadline =
        (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(u64::from(deadline_ms)));
    let query = shared.core.query(session, deadline_ms);
    let seq = query.seq;
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let job = Job {
        query,
        deadline,
        enqueued: Instant::now(),
        reply: reply_tx,
    };
    let reply = match admission.try_push(job) {
        // `Err`: a worker dropped the job unanswered (it panicked).
        Ok(()) => reply_rx.recv().unwrap_or(Frame::ShuttingDown),
        Err(_) => shed(shared),
    };
    shared.core.outcome(seq, &reply);
    reply
}

/// Applies a topology change to the live server and answers with the
/// topology the core published. The core builds the new epoch while
/// serving continues on the old one; requests admitted before the swap
/// finish on the epoch they hold, requests admitted after see only the
/// new one, and none is shed.
fn handle_reconfigure(shared: &Shared, op: TopologyOp) -> Frame {
    let info = match shared.core.reconfigure(&op) {
        Ok(info) => info,
        // Refused cleanly: typed error over the wire, epoch untouched,
        // connection stays usable.
        Err(e) => {
            return Frame::ProtocolError {
                code: errcode::BAD_CONFIG,
                message: e.to_string(),
            }
        }
    };
    shared.stats.reconfigures.fetch_add(1, Ordering::Relaxed);
    use at_obs::names::SERVE_RECONFIGURES_TOTAL as RECONFIGURES;
    match op {
        TopologyOp::Add { .. } => at_obs::count!(RECONFIGURES, "op" => "add"),
        TopologyOp::Remove { .. } => at_obs::count!(RECONFIGURES, "op" => "remove"),
        TopologyOp::Move { .. } => at_obs::count!(RECONFIGURES, "op" => "move"),
    }
    if let Frame::TopologyInfo { epoch, .. } = &info {
        at_obs::global()
            .gauge(at_obs::names::SERVE_TOPOLOGY_EPOCH, &[])
            .set(*epoch as f64);
    }
    info
}

fn run_worker(admission: &Bounded<Job>, shared: &Shared) {
    let dwell = at_obs::stages::stage_histogram(at_obs::stages::SERVE_QUEUE);
    // Reused job after job: a warm worker's fusion arena never regrows.
    let mut scratch = FuseScratch::default();
    while let Some(job) = admission.pop() {
        let now = Instant::now();
        dwell.observe(now.saturating_duration_since(job.enqueued).as_secs_f64());
        let _t = at_obs::time_stage!(at_obs::stages::SERVE_BATCH);
        // The one deadline check, just before the expensive sweep.
        let frame = if job.deadline.is_some_and(|d| d <= now) {
            shared.stats.deadline_missed.fetch_add(1, Ordering::Relaxed);
            at_obs::count!("at_serve_deadline_missed_total");
            Frame::DeadlineExceeded
        } else {
            let frame = job.query.fuse(&mut scratch);
            if matches!(frame, Frame::Fix { .. }) {
                shared.stats.fixes.fetch_add(1, Ordering::Relaxed);
                at_obs::count!("at_serve_responses_total", "result" => "fix");
            } else {
                shared.stats.failures.fetch_add(1, Ordering::Relaxed);
                at_obs::count!("at_serve_responses_total", "result" => "failed");
            }
            frame
        };
        let _ = job.reply.send(frame);
    }
}
