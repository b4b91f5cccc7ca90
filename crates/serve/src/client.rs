//! A blocking client for the location service.
//!
//! The client keeps one TCP connection and speaks the request-response
//! protocol of [`crate::proto`]: every call writes one frame and reads one
//! reply. Robustness mirrors the testbed's acquisition retry policy
//! (`at-testbed::acquire`): a bounded number of attempts (default 3, the
//! same budget `AcquireConfig` gives spectrum acquisition) with a fixed
//! backoff, applied to connecting and — because the server sheds load by
//! design — to [`Client::localize`] calls answered with `Overloaded`,
//! honoring the server's retry hint.
//!
//! Three client types share that machinery:
//! - [`Client`] — the legacy single-session peer: its own spectra, its own
//!   fixes, one connection (protocol v1).
//! - [`ApClient`] — the ingestion role: a long-lived AP-process connection
//!   streaming keyed spectra into the server's session store (v2), under
//!   a configurable wire [`Encoding`] (raw / quantized / lossless-delta,
//!   v3) with automatic fallback to raw against pre-v3 servers.
//! - [`AppClient`] — the query role: an application connection localizing
//!   a key's store-resident spectra (v2).

use crate::codec::{CompressedMode, Encoding};
use crate::proto::{self, ApHealthReport, ClientKey, Frame, ReadError};
use at_channel::geometry::Point;
use at_core::health::LocalizeError;
use at_core::synthesis::LocationEstimate;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

/// Connection and retry policy.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Budget for one TCP connect attempt.
    pub connect_timeout: Duration,
    /// Read/write timeout on the established connection (`None` = block).
    pub io_timeout: Option<Duration>,
    /// Total attempts for connect and for overloaded localize calls —
    /// the same budget as the testbed's `AcquireConfig::max_attempts`.
    /// Zero is refused before dialing, as an `InvalidInput` I/O error.
    pub max_attempts: u32,
    /// Backoff between attempts (the server's `retry_after_ms` hint is
    /// used instead when it is longer).
    pub backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Some(Duration::from_secs(10)),
            max_attempts: 3,
            backoff: Duration::from_millis(5),
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(io::Error),
    /// The peer broke the wire protocol (undecodable frame, or the server
    /// answered with a `ProtocolError` frame — code and message attached).
    Protocol(String),
    /// The server refused to localize, with the same typed error the
    /// in-process `try_localize` returns.
    Localize(LocalizeError),
    /// Admission control shed the request on every attempt.
    Overloaded {
        /// The server's last retry hint, milliseconds.
        retry_after_ms: u32,
    },
    /// The request's deadline expired before the server could serve it.
    DeadlineExceeded,
    /// The server is draining and no longer admits requests.
    ShuttingDown,
    /// The server answered with a frame type this call did not expect.
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Protocol(m) => write!(f, "protocol error: {m}"),
            Self::Localize(e) => write!(f, "localize failed: {e}"),
            Self::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded (retry after {retry_after_ms} ms)")
            }
            Self::DeadlineExceeded => write!(f, "deadline exceeded"),
            Self::ShuttingDown => write!(f, "server shutting down"),
            Self::Unexpected(what) => write!(f, "unexpected response frame: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<ReadError> for ClientError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Io(e) => Self::Io(e),
            ReadError::Decode(e) => Self::Protocol(e.to_string()),
        }
    }
}

/// The server's topology as received over the wire (protocol v5): the
/// current epoch number, the canonical `at-config` fingerprint of its
/// system config, and the live AP poses in deployment-id order.
#[derive(Clone, Debug, PartialEq)]
pub struct RemoteTopology {
    /// Topology epoch (0 = the config the server started with).
    pub epoch: u64,
    /// Canonical fingerprint of the epoch's system config.
    pub fingerprint: u64,
    /// AP poses, indexed by the wire protocol's `ap_id`.
    pub poses: Vec<at_core::synthesis::ApPose>,
}

/// A location fix as received over the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct RemoteFix {
    /// Estimated client position.
    pub position: Point,
    /// Likelihood at the estimate (comparable within one query only).
    pub likelihood: f64,
    /// Health of every AP the session cited, as the fusion saw it.
    pub health: Vec<ApHealthReport>,
}

impl RemoteFix {
    /// The fix as an in-process [`LocationEstimate`] (for bit-exact
    /// comparison against `ArrayTrackServer::try_localize`).
    pub fn estimate(&self) -> LocationEstimate {
        LocationEstimate {
            position: self.position,
            likelihood: self.likelihood,
        }
    }
}

/// A blocking connection to a location server.
pub struct Client {
    stream: TcpStream,
    cfg: ClientConfig,
    /// Resolved peer addresses, kept for in-place reconnects (the
    /// compressed-uplink raw fallback re-dials after an old server hangs
    /// up on a frame it does not speak).
    addrs: Vec<SocketAddr>,
}

impl Client {
    /// Connects to `addr`, retrying up to `cfg.max_attempts` times with
    /// `cfg.backoff` between attempts.
    pub fn connect(addr: impl ToSocketAddrs, cfg: ClientConfig) -> Result<Self, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        Self::connect_resolved(addrs, cfg)
    }

    fn connect_resolved(addrs: Vec<SocketAddr>, cfg: ClientConfig) -> Result<Self, ClientError> {
        if cfg.max_attempts < 1 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "need at least one attempt",
            )));
        }
        if addrs.is_empty() {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            )));
        }
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..cfg.max_attempts {
            if attempt > 0 {
                thread::sleep(cfg.backoff);
            }
            for a in &addrs {
                match TcpStream::connect_timeout(a, cfg.connect_timeout) {
                    Ok(stream) => {
                        stream.set_nodelay(true)?;
                        stream.set_read_timeout(cfg.io_timeout)?;
                        stream.set_write_timeout(cfg.io_timeout)?;
                        return Ok(Self { stream, cfg, addrs });
                    }
                    Err(e) => last_err = Some(e),
                }
            }
        }
        Err(ClientError::Io(last_err.expect("at least one attempt ran")))
    }

    /// Drops the current connection and dials the same peer again with
    /// the same retry policy.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let fresh = Self::connect_resolved(self.addrs.clone(), self.cfg)?;
        *self = fresh;
        Ok(())
    }

    /// One request-response exchange.
    fn request(&mut self, frame: &Frame) -> Result<Frame, ClientError> {
        proto::write_frame(&mut self.stream, frame)?;
        match proto::read_frame(&mut self.stream)? {
            Some(reply) => Ok(reply),
            None => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
        }
    }

    /// Interprets replies every call can receive; `Ok` passes the frame
    /// through for call-specific handling.
    fn common(reply: Frame) -> Result<Frame, ClientError> {
        match reply {
            Frame::ProtocolError { code, message } => Err(ClientError::Protocol(format!(
                "server code {code}: {message}"
            ))),
            Frame::ShuttingDown => Err(ClientError::ShuttingDown),
            other => Ok(other),
        }
    }

    /// Submits a spectrum from deployment AP `ap_id`, `age` refresh
    /// intervals old, into this connection's session. Returns the
    /// session's observation count.
    pub fn submit(
        &mut self,
        ap_id: u32,
        age: u64,
        spectrum: &at_core::AoaSpectrum,
    ) -> Result<u32, ClientError> {
        self.submit_frame(None, ap_id, age, None, spectrum)
    }

    /// Submits a spectrum compressed with `mode` into this connection's
    /// session (protocol v3). No fallback machinery — the policy-driven
    /// path with automatic raw fallback is [`ApClient::submit`].
    pub fn submit_compressed(
        &mut self,
        ap_id: u32,
        age: u64,
        mode: CompressedMode,
        spectrum: &at_core::AoaSpectrum,
    ) -> Result<u32, ClientError> {
        self.submit_frame(None, ap_id, age, Some(mode), spectrum)
    }

    /// One [`Frame::Submit`] exchange; returns the acked observation count.
    fn submit_frame(
        &mut self,
        key: Option<ClientKey>,
        ap_id: u32,
        age: u64,
        mode: Option<CompressedMode>,
        spectrum: &at_core::AoaSpectrum,
    ) -> Result<u32, ClientError> {
        let reply = self.request(&Frame::Submit {
            key,
            ap_id,
            age,
            mode,
            spectrum: spectrum.clone(),
        })?;
        match Self::common(reply)? {
            Frame::SubmitAck { observations } => Ok(observations),
            _ => Err(ClientError::Unexpected("wanted SubmitAck")),
        }
    }

    /// Reports a failed spectrum acquisition from AP `ap_id` (drives the
    /// server-side health tracker).
    pub fn report_failure(&mut self, ap_id: u32) -> Result<(), ClientError> {
        let reply = self.request(&Frame::ReportFailure { ap_id })?;
        match Self::common(reply)? {
            Frame::SubmitAck { .. } => Ok(()),
            _ => Err(ClientError::Unexpected("wanted SubmitAck")),
        }
    }

    /// Drops this connection's accumulated spectra (server-side health
    /// state survives, as with the in-process server's `clear`).
    pub fn clear(&mut self) -> Result<(), ClientError> {
        let reply = self.request(&Frame::ClearSession)?;
        match Self::common(reply)? {
            Frame::SubmitAck { .. } => Ok(()),
            _ => Err(ClientError::Unexpected("wanted SubmitAck")),
        }
    }

    /// Liveness probe: round-trips `token` through the server without
    /// touching the localize queues.
    pub fn ping(&mut self, token: u64) -> Result<(), ClientError> {
        let reply = self.request(&Frame::Ping { token })?;
        match Self::common(reply)? {
            Frame::Pong { token: echoed } if echoed == token => Ok(()),
            Frame::Pong { .. } => Err(ClientError::Unexpected("pong with a foreign token")),
            _ => Err(ClientError::Unexpected("wanted Pong")),
        }
    }

    /// Scrapes the server's live metrics (protocol v4): one
    /// snapshot-consistent `at_obs` registry rendering in Prometheus text
    /// form. Read-only and role-neutral, so ops tooling can ride any
    /// existing connection.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let reply = self.request(&Frame::MetricsQuery)?;
        match Self::common(reply)? {
            Frame::MetricsReport { text } => Ok(text),
            _ => Err(ClientError::Unexpected("wanted MetricsReport")),
        }
    }

    /// Asks the server for its current topology epoch (protocol v5).
    /// Read-only and role-neutral, like [`Client::metrics`].
    pub(crate) fn topology(&mut self) -> Result<RemoteTopology, ClientError> {
        let reply = self.request(&Frame::TopologyQuery)?;
        match Self::common(reply)? {
            Frame::TopologyInfo {
                epoch,
                fingerprint,
                poses,
            } => Ok(RemoteTopology {
                epoch,
                fingerprint,
                poses,
            }),
            _ => Err(ClientError::Unexpected("wanted TopologyInfo")),
        }
    }

    /// Applies one topology operation on the live server (protocol v5):
    /// add, remove, or move an AP. The server swaps epochs without
    /// pausing traffic (requests already admitted finish on the old
    /// epoch) and answers with the topology it published; an invalid op
    /// is refused with a `ProtocolError` (`BAD_CONFIG`) and the epoch is
    /// unchanged.
    pub(crate) fn reconfigure(
        &mut self,
        op: &at_config::TopologyOp,
    ) -> Result<RemoteTopology, ClientError> {
        let reply = self.request(&Frame::Reconfigure { op: *op })?;
        match Self::common(reply)? {
            Frame::TopologyInfo {
                epoch,
                fingerprint,
                poses,
            } => Ok(RemoteTopology {
                epoch,
                fingerprint,
                poses,
            }),
            _ => Err(ClientError::Unexpected("wanted TopologyInfo")),
        }
    }

    /// Localizes this session's spectra. `deadline` is the time budget the
    /// server may spend (`None` = unbounded). `Overloaded` replies are
    /// retried up to `max_attempts` total tries, sleeping the longer of
    /// the configured backoff and the server's hint between tries.
    pub fn localize(&mut self, deadline: Option<Duration>) -> Result<RemoteFix, ClientError> {
        let deadline_ms = deadline_to_ms(deadline);
        self.localize_exchange(&Frame::Localize { deadline_ms })
    }

    /// Sends a localize-shaped `frame` and interprets the reply, retrying
    /// `Overloaded` answers up to `max_attempts` total tries (sleeping the
    /// longer of the configured backoff and the server's hint). Shared by
    /// the legacy in-session [`Client::localize`] and the keyed
    /// [`AppClient::localize`].
    fn localize_exchange(&mut self, frame: &Frame) -> Result<RemoteFix, ClientError> {
        let mut attempt = 0;
        loop {
            attempt += 1;
            let reply = self.request(frame)?;
            match Self::common(reply)? {
                Frame::Fix {
                    x,
                    y,
                    likelihood,
                    health,
                } => {
                    return Ok(RemoteFix {
                        position: Point { x, y },
                        likelihood,
                        health,
                    })
                }
                Frame::Failed { error } => return Err(ClientError::Localize(error)),
                Frame::DeadlineExceeded => return Err(ClientError::DeadlineExceeded),
                Frame::Overloaded { retry_after_ms } => {
                    if attempt >= self.cfg.max_attempts {
                        return Err(ClientError::Overloaded { retry_after_ms });
                    }
                    let hint = Duration::from_millis(u64::from(retry_after_ms));
                    thread::sleep(self.cfg.backoff.max(hint));
                }
                _ => return Err(ClientError::Unexpected("wanted Fix or Failed")),
            }
        }
    }
}

fn deadline_to_ms(deadline: Option<Duration>) -> u32 {
    deadline.map_or(0, |d| u32::try_from(d.as_millis()).unwrap_or(u32::MAX))
}

/// The ingestion role: a long-lived AP-process connection streaming keyed
/// spectra into the server's session store.
///
/// One `ApClient` is one AP process from the paper's Figure 1 deployment:
/// it connects once and then streams keyed submit frames for every client
/// key it observes. The first keyed frame types the connection as an
/// ingestion peer server-side; issuing queries from it is a role violation
/// the server rejects (use [`AppClient`] for those).
///
/// The `encoding` policy picks the uplink wire form:
/// [`Encoding::Raw`] sends v2 keyed raw submit frames (every server),
/// [`Encoding::Quantized`] / [`Encoding::LosslessDelta`] send v3 keyed
/// compressed ones (~10× / ~1.5× smaller). A pre-v3
/// server answers the first compressed frame with a `ProtocolError` and
/// hangs up — the client detects that, reconnects, downgrades itself to
/// raw, and resubmits, so a fleet rollout never needs the APs and the
/// server upgraded in lockstep.
pub struct ApClient {
    inner: Client,
    encoding: Encoding,
}

impl ApClient {
    /// Connects an ingestion session (same retry policy as
    /// [`Client::connect`]) streaming raw spectra — the
    /// every-server-compatible default.
    pub fn connect(addr: impl ToSocketAddrs, cfg: ClientConfig) -> Result<Self, ClientError> {
        Self::connect_with(addr, cfg, Encoding::Raw)
    }

    /// Connects an ingestion session with an explicit uplink encoding
    /// policy.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        cfg: ClientConfig,
        encoding: Encoding,
    ) -> Result<Self, ClientError> {
        Ok(Self {
            inner: Client::connect(addr, cfg)?,
            encoding,
        })
    }

    /// The uplink encoding currently in effect (observably downgraded to
    /// [`Encoding::Raw`] after a fallback against an old server).
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// True when the error pattern-matches "the server does not speak
    /// this frame": a `ProtocolError` reply (a courteous old server
    /// reports the undecodable version before closing) or a hangup
    /// mid-exchange (a terse one just closes).
    fn version_rejection(e: &ClientError) -> bool {
        match e {
            ClientError::Protocol(_) => true,
            ClientError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::BrokenPipe
            ),
            _ => false,
        }
    }

    /// Streams one spectrum from deployment AP `ap_id` for client `key`,
    /// `age` refresh intervals old, compressed per the client's
    /// `encoding` policy. Returns the key's resident spectrum count after
    /// the store update.
    ///
    /// With a compressed policy against a pre-v3 server, the first
    /// submission triggers the raw fallback: reconnect, downgrade the
    /// policy to [`Encoding::Raw`], resubmit the same spectrum losslessly.
    pub fn submit(
        &mut self,
        key: ClientKey,
        ap_id: u32,
        age: u64,
        spectrum: &at_core::AoaSpectrum,
    ) -> Result<u32, ClientError> {
        let key = Some(key);
        if let Some(mode) = self.encoding.mode() {
            match self
                .inner
                .submit_frame(key, ap_id, age, Some(mode), spectrum)
            {
                Err(e) if Self::version_rejection(&e) => {
                    // The server dropped the connection with the refusal;
                    // dial again and fall back to the raw wire form.
                    self.inner.reconnect()?;
                    self.encoding = Encoding::Raw;
                }
                other => return other,
            }
        }
        self.inner.submit_frame(key, ap_id, age, None, spectrum)
    }

    /// Reports a failed acquisition from AP `ap_id` (drives the shared
    /// server-side health tracker, exactly like [`Client::report_failure`]).
    pub fn report_failure(&mut self, ap_id: u32) -> Result<(), ClientError> {
        self.inner.report_failure(ap_id)
    }

    /// Scrapes the server's live metrics (role-neutral, protocol v4).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.inner.metrics()
    }
}

/// The query role: an application connection asking "where is key K?"
///
/// An `AppClient` never submits spectra; it fuses whatever the server's
/// session store currently holds for a key. The first `LocalizeKey` frame
/// types the connection as a query peer server-side; submitting keyed
/// spectra from it is a role violation the server rejects (use
/// [`ApClient`] for ingestion).
pub struct AppClient {
    inner: Client,
}

impl AppClient {
    /// Connects a query session (same retry policy as [`Client::connect`]).
    pub fn connect(addr: impl ToSocketAddrs, cfg: ClientConfig) -> Result<Self, ClientError> {
        Ok(Self {
            inner: Client::connect(addr, cfg)?,
        })
    }

    /// Localizes whatever spectra the store holds for `key`, with the
    /// same deadline semantics and `Overloaded` retry discipline as
    /// [`Client::localize`].
    pub fn localize(
        &mut self,
        key: ClientKey,
        deadline: Option<Duration>,
    ) -> Result<RemoteFix, ClientError> {
        let deadline_ms = deadline_to_ms(deadline);
        self.inner
            .localize_exchange(&Frame::LocalizeKey { key, deadline_ms })
    }

    /// Scrapes the server's live metrics (role-neutral, protocol v4).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.inner.metrics()
    }

    /// Asks the server for its current topology (role-neutral, v5).
    pub fn topology(&mut self) -> Result<RemoteTopology, ClientError> {
        self.inner.topology()
    }

    /// Applies one topology operation on the live server (role-neutral,
    /// v5); see `Client::reconfigure`.
    pub fn reconfigure(
        &mut self,
        op: &at_config::TopologyOp,
    ) -> Result<RemoteTopology, ClientError> {
        self.inner.reconfigure(op)
    }
}
