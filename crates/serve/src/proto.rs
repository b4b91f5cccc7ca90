//! The versioned, length-prefixed binary wire protocol of the location
//! service.
//!
//! Every frame is `MAGIC ("AT") + version + frame type + payload length
//! (u32 LE) + payload`, all integers little-endian. The decoder is total:
//! any byte sequence either yields a frame, asks for more bytes, or
//! returns a typed [`DecodeError`] — it never panics and never allocates
//! more than the declared (and capped) payload length, so a malicious or
//! corrupt peer cannot take the server down (the `proto_proptests` suite
//! fuzzes this over random, truncated, and bit-flipped frames).
//!
//! Client → server frames: [`Frame::Submit`], [`Frame::ReportFailure`],
//! [`Frame::Localize`], [`Frame::ClearSession`], [`Frame::Ping`], and —
//! version 2, the multi-process deployment split — [`Frame::LocalizeKey`]
//! (application query role: localize whatever the server's session store
//! holds for a key) — and, version 4, the read-only, role-neutral metrics
//! scrape [`Frame::MetricsQuery`] answered with [`Frame::MetricsReport`].
//! [`Frame::Submit`] is one decoded frame for four type bytes: unkeyed
//! raw (v1), keyed raw (v2: the AP ingestion role, a spectrum tagged with
//! the [`ClientKey`] it belongs to), and their compressed twins (v3), whose
//! spectra travel as [`crate::codec`] blobs (16-bit log-domain quantized,
//! or lossless XOR-delta for bit-exact replay) instead of raw `f64` bins.
//! Server → client frames: [`Frame::SubmitAck`],
//! [`Frame::Fix`], [`Frame::Failed`], [`Frame::Overloaded`],
//! [`Frame::DeadlineExceeded`], [`Frame::Pong`], [`Frame::ProtocolError`],
//! [`Frame::ShuttingDown`]. Every submission path — raw or compressed —
//! enforces the [`AoaSpectrum`] invariants (finite, non-negative, ≥ 8
//! bins) at decode, so a decoded frame can always be turned into a
//! spectrum without panicking.
//!
//! **Versioning**: each frame is encoded with the *lowest* protocol
//! version that defines it (`Frame::wire_version`), and the decoder
//! accepts [`MIN_VERSION`]`..=`[`VERSION`] headers. A keyed (v2) or
//! compressed (v3) frame type arriving under an older header is a typed
//! [`DecodeError::VersionGated`] — never a misparse — so an old peer that
//! replays new type bytes fails loudly at the framing layer.

use crate::codec::{self, CompressedMode};
use at_channel::geometry::pt;
use at_config::TopologyOp;
use at_core::health::{ApStatus, LocalizeError};
use at_core::synthesis::ApPose;
use at_core::AoaSpectrum;
use std::fmt;
use std::io::{self, Read, Write};

/// Frame preamble: every frame starts with these two bytes.
pub const MAGIC: [u8; 2] = *b"AT";

/// Current protocol version. Version 2 added the keyed ingestion/query
/// split (keyed [`Frame::Submit`], [`Frame::LocalizeKey`]); version 3
/// added the compressed uplink (compressed [`Frame::Submit`]); version 4
/// added the read-only metrics scrape ([`Frame::MetricsQuery`],
/// [`Frame::MetricsReport`]); version 5 added live topology
/// administration ([`Frame::Reconfigure`], [`Frame::TopologyQuery`],
/// [`Frame::TopologyInfo`]).
/// Versions outside [`MIN_VERSION`]`..=`[`VERSION`] are rejected with
/// [`DecodeError::BadVersion`] so incompatible peers fail loudly, not
/// subtly.
pub const VERSION: u8 = 5;

/// Oldest protocol version still decoded. Version-1 peers keep working:
/// every pre-keyed frame type is unchanged on the wire.
pub const MIN_VERSION: u8 = 1;

/// Identifies one tracked client across AP ingestion connections and
/// application query connections: six AP processes stream keyed
/// [`Frame::Submit`] spectra for the keys they hear, applications
/// ask [`Frame::LocalizeKey`] about the keys they care about, and the
/// server's session store joins the two on this value.
pub type ClientKey = u64;

/// Bytes before the payload: magic (2) + version (1) + type (1) +
/// payload length (4).
pub const HEADER_LEN: usize = 8;

/// Hard cap on a frame payload. The largest legitimate frame (a 65536-bin
/// spectrum submission) is ~512 KiB; anything larger is a protocol error,
/// decoded *before* any allocation happens.
pub(crate) const MAX_PAYLOAD: usize = 1 << 20;

/// Largest spectrum resolution accepted on the wire (the localization
/// engine's bearing grids are `u16`-indexed, so this is also its cap).
pub(crate) const MAX_BINS: usize = 1 << 16;

/// Health of one deployment AP as reported inside a [`Frame::Fix`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ApHealthReport {
    /// Deployment AP index.
    pub ap_id: u32,
    /// Health status under the server's policy at fusion time.
    pub status: ApStatus,
    /// The AP's consecutive acquisition-failure count.
    pub consecutive_failures: u32,
}

/// One protocol frame, either direction.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → server: a processed AoA spectrum from deployment AP
    /// `ap_id`, `age` refresh intervals old. Acknowledged with
    /// [`Frame::SubmitAck`]. One decoded frame covers four type bytes:
    ///
    /// | `key` | `mode` | type | version |
    /// |---|---|---|---|
    /// | `None` | `None` | `0x01` | 1 |
    /// | `Some` | `None` | `0x06` | 2 |
    /// | `None` | `Some` | `0x08` | 3 |
    /// | `Some` | `Some` | `0x09` | 3 |
    ///
    /// Keyed, the spectrum replaces that AP's previous one for `key` in
    /// the server's session store; unkeyed, it joins this connection's
    /// private (v1) session. The ack carries the session's count.
    Submit {
        /// The tracked client (`None` = this connection's own session).
        key: Option<ClientKey>,
        /// Deployment AP index the spectrum came from.
        ap_id: u32,
        /// Spectrum age in server refresh intervals at submission
        /// (0 = fresh); the store ages keyed spectra further.
        age: u64,
        /// The codec layout of the wire blob (`None` = raw `f64` bins).
        mode: Option<CompressedMode>,
        /// The spectrum as the wire delivers it (validated on decode):
        /// for [`CompressedMode::Quantized`] the grid-snapped
        /// ([`codec::quantized`]) spectrum, otherwise bit-exact.
        spectrum: AoaSpectrum,
    },
    /// Client → server: AP `ap_id` failed to acquire this interval
    /// (drives the server-side health tracker exactly like
    /// `ArrayTrackServer::report_acquisition_failure`).
    ReportFailure {
        /// Deployment AP index that failed.
        ap_id: u32,
    },
    /// Client → server: localize this session's accumulated spectra.
    /// `deadline_ms` is the client's time budget from frame receipt
    /// (0 = no deadline); the server sheds the request with
    /// [`Frame::DeadlineExceeded`] instead of doing work that can no
    /// longer be useful.
    Localize {
        /// Relative deadline in milliseconds (0 = none).
        deadline_ms: u32,
    },
    /// Client → server: drop this session's accumulated spectra (health
    /// state is deployment-wide and deliberately survives, mirroring
    /// `ArrayTrackServer::clear`).
    ClearSession,
    /// Client → server: liveness probe, answered with [`Frame::Pong`]
    /// without touching the localize queues.
    Ping {
        /// Echo token.
        token: u64,
    },
    /// Application → server (version 2): localize tracked client `key`
    /// from whatever spectra the session store currently holds for it.
    /// Deadline semantics match [`Frame::Localize`].
    LocalizeKey {
        /// The tracked client to localize.
        key: ClientKey,
        /// Relative deadline in milliseconds (0 = none).
        deadline_ms: u32,
    },
    /// Server → client: submission accepted; `observations` is the
    /// session's accumulated spectrum count.
    SubmitAck {
        /// Observations now held for this session.
        observations: u32,
    },
    /// Server → client: a location fix plus the deployment health the
    /// fusion saw.
    Fix {
        /// Estimated x, meters.
        x: f64,
        /// Estimated y, meters.
        y: f64,
        /// Likelihood at the estimate (comparable within one query only).
        likelihood: f64,
        /// Per-AP health snapshot used by this fusion.
        health: Vec<ApHealthReport>,
    },
    /// Server → client: the deployment could not support a fix; carries
    /// the same typed [`LocalizeError`] the in-process server returns.
    Failed {
        /// Why fusion refused.
        error: LocalizeError,
    },
    /// Server → client: admission control shed the request (queue full).
    /// The request was *not* processed; retry after the hint.
    Overloaded {
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u32,
    },
    /// Server → client: the request's deadline expired before the
    /// expensive stages ran; no fix was computed.
    DeadlineExceeded,
    /// Server → client: answer to [`Frame::Ping`].
    Pong {
        /// The ping's token, echoed.
        token: u64,
    },
    /// Server → client: the last frame could not be honored (bad AP
    /// index, malformed payload). The connection stays usable.
    ProtocolError {
        /// Machine-readable code (see `server` for assignments).
        code: u8,
        /// Human-readable detail.
        message: String,
    },
    /// Server → client: the server is draining; the request was not
    /// admitted. Reconnect elsewhere or retry later.
    ShuttingDown,
    /// Client → server (version 4): scrape the server's live metrics.
    /// Read-only and role-neutral — any connection (AP, app, or untyped)
    /// may ask without typing itself — answered with
    /// [`Frame::MetricsReport`] holding a snapshot-consistent
    /// `at_obs` Prometheus rendering.
    MetricsQuery,
    /// Server → client (version 4): answer to [`Frame::MetricsQuery`] —
    /// one `at_obs::snapshot::MetricsSnapshot` in Prometheus text form
    /// (truncated at the payload cap; the snapshot itself is taken
    /// atomically, so every series in it is from the same instant).
    MetricsReport {
        /// Prometheus text exposition of the snapshot.
        text: String,
    },
    /// Admin → server (version 5): change the deployment topology on a
    /// live server — add, remove, or move one AP. The server builds the
    /// new epoch (reusing per-AP steering grids for unchanged APs),
    /// remaps the session store and health tracker, and publishes it;
    /// localizes admitted before the swap still fuse on the epoch they
    /// were admitted under, none is shed. It answers with
    /// [`Frame::TopologyInfo`] describing the new epoch. An invalid op
    /// (bad AP id, removing the last AP, non-finite pose) is refused with
    /// a typed [`Frame::ProtocolError`] and leaves the epoch untouched.
    Reconfigure {
        /// The topology change to apply.
        op: TopologyOp,
    },
    /// Any client → server (version 5): ask which topology epoch the
    /// server is on. Read-only and role-neutral like
    /// [`Frame::MetricsQuery`]; answered with [`Frame::TopologyInfo`].
    TopologyQuery,
    /// Server → client (version 5): the current topology — epoch counter,
    /// the epoch's canonical config fingerprint (see
    /// `at_config::SystemConfig::fingerprint`), and the AP poses in
    /// deployment-id order.
    TopologyInfo {
        /// Monotonic epoch counter (0 = the config the server started
        /// with).
        epoch: u64,
        /// Fingerprint of the epoch's canonical `SystemConfig` bytes.
        fingerprint: u64,
        /// AP poses, indexed by deployment AP id.
        poses: Vec<ApPose>,
    },
}

/// Frame-type byte values (requests < 0x80, responses ≥ 0x80).
mod ft {
    pub(crate) const SUBMIT: u8 = 0x01;
    pub(crate) const REPORT_FAILURE: u8 = 0x02;
    pub(crate) const LOCALIZE: u8 = 0x03;
    pub(crate) const CLEAR: u8 = 0x04;
    pub(crate) const PING: u8 = 0x05;
    pub(crate) const SUBMIT_KEYED: u8 = 0x06;
    pub(crate) const LOCALIZE_KEY: u8 = 0x07;
    pub(crate) const SUBMIT_COMPRESSED: u8 = 0x08;
    pub(crate) const SUBMIT_COMPRESSED_KEYED: u8 = 0x09;
    pub(crate) const METRICS_QUERY: u8 = 0x0A;
    pub(crate) const RECONFIGURE: u8 = 0x0B;
    pub(crate) const TOPOLOGY_QUERY: u8 = 0x0C;
    pub(crate) const SUBMIT_ACK: u8 = 0x81;
    pub(crate) const FIX: u8 = 0x82;
    pub(crate) const FAILED: u8 = 0x83;
    pub(crate) const OVERLOADED: u8 = 0x84;
    pub(crate) const DEADLINE: u8 = 0x85;
    pub(crate) const PONG: u8 = 0x86;
    pub(crate) const PROTOCOL_ERROR: u8 = 0x87;
    pub(crate) const SHUTTING_DOWN: u8 = 0x88;
    pub(crate) const METRICS_REPORT: u8 = 0x89;
    pub(crate) const TOPOLOGY_INFO: u8 = 0x8A;
}

/// Longest metrics text a [`Frame::MetricsReport`] can carry: the payload
/// cap minus the text-length prefix. Longer renderings are truncated at
/// encode (a scrape that loses its tail is still a scrape; an oversize
/// frame is a protocol violation).
pub(crate) const MAX_METRICS_TEXT: usize = MAX_PAYLOAD - 4;

/// Why a byte sequence is not a valid frame. Every variant is
/// connection-fatal (framing can no longer be trusted) except when
/// returned from a higher-level validation that chooses to answer with
/// [`Frame::ProtocolError`] instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The first two bytes are not [`MAGIC`].
    BadMagic {
        /// The bytes found instead.
        got: [u8; 2],
    },
    /// Unsupported protocol version.
    BadVersion {
        /// The version byte found.
        got: u8,
    },
    /// Unknown frame-type byte.
    UnknownType {
        /// The type byte found.
        got: u8,
    },
    /// A frame type newer than the header's declared version: the peer is
    /// replaying bytes it does not actually speak. Typed so a version-1
    /// peer carrying keyed frames fails loudly instead of misparsing.
    VersionGated {
        /// The frame-type byte.
        frame: u8,
        /// The version the header declared.
        got: u8,
        /// The version this frame type first appeared in.
        need: u8,
    },
    /// Declared payload length exceeds `MAX_PAYLOAD`.
    Oversize {
        /// The declared length.
        len: usize,
    },
    /// The payload does not parse as its frame type.
    Malformed {
        /// The frame-type byte being parsed.
        frame: u8,
        /// What went wrong.
        reason: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic { got } => write!(f, "bad frame magic {got:02x?}"),
            Self::BadVersion { got } => {
                write!(f, "unsupported protocol version {got} (want {VERSION})")
            }
            Self::UnknownType { got } => write!(f, "unknown frame type 0x{got:02x}"),
            Self::VersionGated { frame, got, need } => write!(
                f,
                "frame type 0x{frame:02x} requires protocol version {need}, header declared {got}"
            ),
            Self::Oversize { len } => {
                write!(f, "payload of {len} bytes exceeds the {MAX_PAYLOAD} cap")
            }
            Self::Malformed { frame, reason } => {
                write!(f, "malformed 0x{frame:02x} frame: {reason}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Bounds-checked little-endian payload reader.
struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Self { b, i: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.i.checked_add(n)?;
        if end > self.b.len() {
            return None;
        }
        let s = &self.b[self.i..end];
        self.i = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Everything not yet consumed (used by the compressed-spectrum tail,
    /// whose own framing knows where it ends).
    fn rest(&mut self) -> &'a [u8] {
        let s = &self.b[self.i..];
        self.i = self.b.len();
        s
    }

    fn done(&self) -> bool {
        self.i == self.b.len()
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn status_to_wire(s: ApStatus) -> u8 {
    match s {
        ApStatus::Healthy => 0,
        ApStatus::Degraded => 1,
        ApStatus::Down => 2,
    }
}

fn status_from_wire(b: u8) -> Option<ApStatus> {
    match b {
        0 => Some(ApStatus::Healthy),
        1 => Some(ApStatus::Degraded),
        2 => Some(ApStatus::Down),
        _ => None,
    }
}

/// The protocol version a frame type first appeared in; `None` for
/// unknown type bytes.
fn min_version_for(ty: u8) -> Option<u8> {
    match ty {
        ft::SUBMIT
        | ft::REPORT_FAILURE
        | ft::LOCALIZE
        | ft::CLEAR
        | ft::PING
        | ft::SUBMIT_ACK
        | ft::FIX
        | ft::FAILED
        | ft::OVERLOADED
        | ft::DEADLINE
        | ft::PONG
        | ft::PROTOCOL_ERROR
        | ft::SHUTTING_DOWN => Some(1),
        ft::SUBMIT_KEYED | ft::LOCALIZE_KEY => Some(2),
        ft::SUBMIT_COMPRESSED | ft::SUBMIT_COMPRESSED_KEYED => Some(3),
        ft::METRICS_QUERY | ft::METRICS_REPORT => Some(4),
        ft::RECONFIGURE | ft::TOPOLOGY_QUERY | ft::TOPOLOGY_INFO => Some(5),
        _ => None,
    }
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Submit { key, mode, .. } => match (key.is_some(), mode.is_some()) {
                (false, false) => ft::SUBMIT,
                (true, false) => ft::SUBMIT_KEYED,
                (false, true) => ft::SUBMIT_COMPRESSED,
                (true, true) => ft::SUBMIT_COMPRESSED_KEYED,
            },
            Frame::ReportFailure { .. } => ft::REPORT_FAILURE,
            Frame::Localize { .. } => ft::LOCALIZE,
            Frame::ClearSession => ft::CLEAR,
            Frame::Ping { .. } => ft::PING,
            Frame::LocalizeKey { .. } => ft::LOCALIZE_KEY,
            Frame::SubmitAck { .. } => ft::SUBMIT_ACK,
            Frame::Fix { .. } => ft::FIX,
            Frame::Failed { .. } => ft::FAILED,
            Frame::Overloaded { .. } => ft::OVERLOADED,
            Frame::DeadlineExceeded => ft::DEADLINE,
            Frame::Pong { .. } => ft::PONG,
            Frame::ProtocolError { .. } => ft::PROTOCOL_ERROR,
            Frame::ShuttingDown => ft::SHUTTING_DOWN,
            Frame::MetricsQuery => ft::METRICS_QUERY,
            Frame::MetricsReport { .. } => ft::METRICS_REPORT,
            Frame::Reconfigure { .. } => ft::RECONFIGURE,
            Frame::TopologyQuery => ft::TOPOLOGY_QUERY,
            Frame::TopologyInfo { .. } => ft::TOPOLOGY_INFO,
        }
    }

    /// The version byte this frame encodes under: the lowest protocol
    /// version that defines its type, so version-1 peers keep decoding
    /// every pre-keyed frame unchanged.
    pub(crate) fn wire_version(&self) -> u8 {
        min_version_for(self.type_byte()).expect("own frame types are known")
    }

    /// Appends this frame's wire encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let header_at = out.len();
        out.extend_from_slice(&MAGIC);
        out.push(self.wire_version());
        out.push(self.type_byte());
        push_u32(out, 0); // payload length, patched below
        let payload_at = out.len();
        match self {
            Frame::Submit {
                key,
                ap_id,
                age,
                mode,
                spectrum,
            } => {
                if let Some(key) = key {
                    push_u64(out, *key);
                }
                push_u32(out, *ap_id);
                push_u64(out, *age);
                match mode {
                    None => {
                        push_u32(out, spectrum.bins() as u32);
                        for v in spectrum.values() {
                            push_f64(out, *v);
                        }
                    }
                    Some(mode) => codec::compress_into(out, spectrum, *mode),
                }
            }
            Frame::LocalizeKey { key, deadline_ms } => {
                push_u64(out, *key);
                push_u32(out, *deadline_ms);
            }
            Frame::ReportFailure { ap_id } => push_u32(out, *ap_id),
            Frame::Localize { deadline_ms } => push_u32(out, *deadline_ms),
            Frame::ClearSession
            | Frame::DeadlineExceeded
            | Frame::ShuttingDown
            | Frame::MetricsQuery
            | Frame::TopologyQuery => {}
            Frame::Reconfigure { op } => op.encode(out),
            Frame::TopologyInfo {
                epoch,
                fingerprint,
                poses,
            } => {
                push_u64(out, *epoch);
                push_u64(out, *fingerprint);
                push_u32(out, poses.len() as u32);
                for p in poses {
                    push_f64(out, p.center.x);
                    push_f64(out, p.center.y);
                    push_f64(out, p.axis_angle);
                }
            }
            Frame::MetricsReport { text } => {
                let mut n = text.len().min(MAX_METRICS_TEXT);
                // Truncate on a UTF-8 boundary so the decoder's lossy
                // conversion reproduces the bytes exactly.
                while n > 0 && !text.is_char_boundary(n) {
                    n -= 1;
                }
                push_u32(out, n as u32);
                out.extend_from_slice(&text.as_bytes()[..n]);
            }
            Frame::Ping { token } | Frame::Pong { token } => push_u64(out, *token),
            Frame::SubmitAck { observations } => push_u32(out, *observations),
            Frame::Fix {
                x,
                y,
                likelihood,
                health,
            } => {
                push_f64(out, *x);
                push_f64(out, *y);
                push_f64(out, *likelihood);
                push_u32(out, health.len() as u32);
                for h in health {
                    push_u32(out, h.ap_id);
                    out.push(status_to_wire(h.status));
                    push_u32(out, h.consecutive_failures);
                }
            }
            Frame::Failed { error } => match error {
                LocalizeError::NoObservations => out.push(0),
                LocalizeError::QuorumNotMet {
                    available,
                    required,
                    stale,
                    down,
                    degenerate,
                } => {
                    out.push(1);
                    push_u64(out, *available as u64);
                    push_u64(out, *required as u64);
                    push_u64(out, *stale as u64);
                    push_u64(out, *down as u64);
                    push_u64(out, *degenerate as u64);
                }
                LocalizeError::ResolutionMismatch {
                    observation,
                    bins,
                    expected,
                } => {
                    out.push(2);
                    push_u64(out, *observation as u64);
                    push_u64(out, *bins as u64);
                    push_u64(out, *expected as u64);
                }
            },
            Frame::Overloaded { retry_after_ms } => push_u32(out, *retry_after_ms),
            Frame::ProtocolError { code, message } => {
                out.push(*code);
                let msg = message.as_bytes();
                let n = msg.len().min(u16::MAX as usize);
                out.extend_from_slice(&(n as u16).to_le_bytes());
                out.extend_from_slice(&msg[..n]);
            }
        }
        let len = (out.len() - payload_at) as u32;
        out[header_at + 4..header_at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// This frame's wire encoding as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

/// Parses the wire form of a spectrum (`u32` bin count + raw `f64` bins)
/// at the cursor, enforcing the [`AoaSpectrum`] invariants before any
/// constructor can assert.
fn decode_spectrum(
    c: &mut Cur<'_>,
    mal: &impl Fn(&'static str) -> DecodeError,
) -> Result<AoaSpectrum, DecodeError> {
    let bins = c.u32().ok_or(mal("truncated bin count"))? as usize;
    if !(8..=MAX_BINS).contains(&bins) {
        return Err(mal("spectrum bin count out of range"));
    }
    let raw = c
        .take(bins.checked_mul(8).ok_or(mal("bin count overflow"))?)
        .ok_or(mal("truncated spectrum values"))?;
    let mut values = Vec::with_capacity(bins);
    for chunk in raw.chunks_exact(8) {
        let v = f64::from_le_bytes(chunk.try_into().unwrap());
        if !v.is_finite() || v < 0.0 {
            return Err(mal("spectrum values must be finite and non-negative"));
        }
        values.push(v);
    }
    Ok(AoaSpectrum::from_values(values))
}

/// Decodes the payload of a frame whose header already validated.
/// `version` is the header's declared version: a frame type newer than it
/// is [`DecodeError::VersionGated`], decided *before* any payload parse.
fn decode_payload(version: u8, ty: u8, payload: &[u8]) -> Result<Frame, DecodeError> {
    let mal = |reason: &'static str| DecodeError::Malformed { frame: ty, reason };
    if let Some(need) = min_version_for(ty) {
        if version < need {
            return Err(DecodeError::VersionGated {
                frame: ty,
                got: version,
                need,
            });
        }
    }
    let mut c = Cur::new(payload);
    let frame = match ty {
        ft::SUBMIT | ft::SUBMIT_KEYED | ft::SUBMIT_COMPRESSED | ft::SUBMIT_COMPRESSED_KEYED => {
            let key = match ty {
                ft::SUBMIT_KEYED | ft::SUBMIT_COMPRESSED_KEYED => {
                    Some(c.u64().ok_or(mal("truncated key"))?)
                }
                _ => None,
            };
            let ap_id = c.u32().ok_or(mal("truncated ap_id"))?;
            let age = c.u64().ok_or(mal("truncated age"))?;
            let (mode, spectrum) = match ty {
                ft::SUBMIT | ft::SUBMIT_KEYED => (None, decode_spectrum(&mut c, &mal)?),
                _ => {
                    let (mode, spectrum) =
                        codec::decompress(c.rest()).map_err(|e| mal(e.reason()))?;
                    (Some(mode), spectrum)
                }
            };
            Frame::Submit {
                key,
                ap_id,
                age,
                mode,
                spectrum,
            }
        }
        ft::LOCALIZE_KEY => Frame::LocalizeKey {
            key: c.u64().ok_or(mal("truncated key"))?,
            deadline_ms: c.u32().ok_or(mal("truncated deadline"))?,
        },
        ft::REPORT_FAILURE => Frame::ReportFailure {
            ap_id: c.u32().ok_or(mal("truncated ap_id"))?,
        },
        ft::LOCALIZE => Frame::Localize {
            deadline_ms: c.u32().ok_or(mal("truncated deadline"))?,
        },
        ft::CLEAR => Frame::ClearSession,
        ft::PING => Frame::Ping {
            token: c.u64().ok_or(mal("truncated token"))?,
        },
        ft::SUBMIT_ACK => Frame::SubmitAck {
            observations: c.u32().ok_or(mal("truncated count"))?,
        },
        ft::FIX => {
            let x = c.f64().ok_or(mal("truncated x"))?;
            let y = c.f64().ok_or(mal("truncated y"))?;
            let likelihood = c.f64().ok_or(mal("truncated likelihood"))?;
            let n = c.u32().ok_or(mal("truncated health count"))? as usize;
            // 9 bytes per entry; bound before allocating.
            if n > payload.len() / 9 {
                return Err(mal("health count exceeds payload"));
            }
            let mut health = Vec::with_capacity(n);
            for _ in 0..n {
                let ap_id = c.u32().ok_or(mal("truncated health ap_id"))?;
                let status = status_from_wire(c.u8().ok_or(mal("truncated health status"))?)
                    .ok_or(mal("unknown health status"))?;
                let consecutive_failures = c.u32().ok_or(mal("truncated failure count"))?;
                health.push(ApHealthReport {
                    ap_id,
                    status,
                    consecutive_failures,
                });
            }
            Frame::Fix {
                x,
                y,
                likelihood,
                health,
            }
        }
        ft::FAILED => {
            let code = c.u8().ok_or(mal("truncated error code"))?;
            let error = match code {
                0 => LocalizeError::NoObservations,
                1 => LocalizeError::QuorumNotMet {
                    available: c.u64().ok_or(mal("truncated available"))? as usize,
                    required: c.u64().ok_or(mal("truncated required"))? as usize,
                    stale: c.u64().ok_or(mal("truncated stale"))? as usize,
                    down: c.u64().ok_or(mal("truncated down"))? as usize,
                    degenerate: c.u64().ok_or(mal("truncated degenerate"))? as usize,
                },
                2 => LocalizeError::ResolutionMismatch {
                    observation: c.u64().ok_or(mal("truncated observation"))? as usize,
                    bins: c.u64().ok_or(mal("truncated bins"))? as usize,
                    expected: c.u64().ok_or(mal("truncated expected"))? as usize,
                },
                _ => return Err(mal("unknown localize-error code")),
            };
            Frame::Failed { error }
        }
        ft::OVERLOADED => Frame::Overloaded {
            retry_after_ms: c.u32().ok_or(mal("truncated retry hint"))?,
        },
        ft::DEADLINE => Frame::DeadlineExceeded,
        ft::PONG => Frame::Pong {
            token: c.u64().ok_or(mal("truncated token"))?,
        },
        ft::PROTOCOL_ERROR => {
            let code = c.u8().ok_or(mal("truncated code"))?;
            let n = c
                .take(2)
                .map(|s| u16::from_le_bytes(s.try_into().unwrap()))
                .ok_or(mal("truncated message length"))? as usize;
            let raw = c.take(n).ok_or(mal("truncated message"))?;
            Frame::ProtocolError {
                code,
                message: String::from_utf8_lossy(raw).into_owned(),
            }
        }
        ft::SHUTTING_DOWN => Frame::ShuttingDown,
        ft::METRICS_QUERY => Frame::MetricsQuery,
        ft::TOPOLOGY_QUERY => Frame::TopologyQuery,
        ft::RECONFIGURE => {
            let raw = c.rest();
            let (op, used) = TopologyOp::decode(raw).map_err(|_| mal("undecodable topology op"))?;
            if used != raw.len() {
                return Err(mal("trailing payload bytes"));
            }
            Frame::Reconfigure { op }
        }
        ft::TOPOLOGY_INFO => {
            let epoch = c.u64().ok_or(mal("truncated epoch"))?;
            let fingerprint = c.u64().ok_or(mal("truncated fingerprint"))?;
            let n = c.u32().ok_or(mal("truncated pose count"))? as usize;
            // 24 bytes per pose; bound before allocating.
            if n > payload.len() / 24 || n > at_config::MAX_APS {
                return Err(mal("pose count exceeds payload"));
            }
            let mut poses = Vec::with_capacity(n);
            for _ in 0..n {
                let x = c.f64().ok_or(mal("truncated pose x"))?;
                let y = c.f64().ok_or(mal("truncated pose y"))?;
                let axis_angle = c.f64().ok_or(mal("truncated pose axis"))?;
                if !(x.is_finite() && y.is_finite() && axis_angle.is_finite()) {
                    return Err(mal("pose coordinates must be finite"));
                }
                poses.push(ApPose {
                    center: pt(x, y),
                    axis_angle,
                });
            }
            Frame::TopologyInfo {
                epoch,
                fingerprint,
                poses,
            }
        }
        ft::METRICS_REPORT => {
            let n = c.u32().ok_or(mal("truncated text length"))? as usize;
            let raw = c.take(n).ok_or(mal("truncated metrics text"))?;
            Frame::MetricsReport {
                text: String::from_utf8_lossy(raw).into_owned(),
            }
        }
        other => return Err(DecodeError::UnknownType { got: other }),
    };
    if !c.done() {
        return Err(mal("trailing payload bytes"));
    }
    Ok(frame)
}

/// Decodes one frame from the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds a valid prefix of a frame (read
/// more bytes and retry), `Ok(Some((frame, consumed)))` on success, and a
/// [`DecodeError`] when the bytes can never become a valid frame. Never
/// panics, for any input.
pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, DecodeError> {
    if buf.len() < 2 {
        if !buf.is_empty() && buf[0] != MAGIC[0] {
            return Err(DecodeError::BadMagic { got: [buf[0], 0] });
        }
        return Ok(None);
    }
    if buf[0] != MAGIC[0] || buf[1] != MAGIC[1] {
        return Err(DecodeError::BadMagic {
            got: [buf[0], buf[1]],
        });
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let version = buf[2];
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(DecodeError::BadVersion { got: version });
    }
    let ty = buf[3];
    let len = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Err(DecodeError::Oversize { len });
    }
    let Some(end) = HEADER_LEN.checked_add(len) else {
        return Err(DecodeError::Oversize { len });
    };
    if buf.len() < end {
        return Ok(None);
    }
    let frame = decode_payload(version, ty, &buf[HEADER_LEN..end])?;
    Ok(Some((frame, end)))
}

/// Writes one frame to a blocking stream.
pub(crate) fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let bytes = frame.encode();
    w.write_all(&bytes)
}

/// A connection-level read failure.
#[derive(Debug)]
pub(crate) enum ReadError {
    /// The transport failed (or closed mid-frame).
    Io(io::Error),
    /// The peer sent bytes that are not a frame; framing is lost and the
    /// connection must be dropped.
    Decode(DecodeError),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Decode(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Reads one frame from a blocking stream.
///
/// Returns `Ok(None)` on a clean end-of-stream *at a frame boundary*; a
/// peer that disappears mid-frame is an [`ReadError::Io`] with
/// `UnexpectedEof`.
pub(crate) fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, ReadError> {
    Ok(read_frame_counted(r)?.map(|(frame, _)| frame))
}

/// [`read_frame`], also reporting how many wire bytes the frame occupied
/// (header + payload) — the server's uplink byte accounting reads this
/// instead of re-encoding the frame.
pub(crate) fn read_frame_counted<R: Read>(r: &mut R) -> Result<Option<(Frame, usize)>, ReadError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0;
    while got < HEADER_LEN {
        match r.read(&mut header[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(ReadError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                )))
            }
            n => got += n,
        }
    }
    // Validate the header before allocating the payload.
    match decode(&header) {
        Ok(_) => {}
        Err(e) => return Err(ReadError::Decode(e)),
    }
    let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
    let mut buf = Vec::with_capacity(HEADER_LEN + len);
    buf.extend_from_slice(&header);
    buf.resize(HEADER_LEN + len, 0);
    r.read_exact(&mut buf[HEADER_LEN..])?;
    match decode(&buf) {
        Ok(Some((frame, consumed))) => {
            debug_assert_eq!(consumed, buf.len());
            Ok(Some((frame, consumed)))
        }
        // A full header + payload must decode or error, never ask for more.
        Ok(None) => Err(ReadError::Decode(DecodeError::Malformed {
            frame: header[3],
            reason: "internal: complete frame decoded as incomplete",
        })),
        Err(e) => Err(ReadError::Decode(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = f.encode();
        let (decoded, consumed) = decode(&bytes).expect("valid").expect("complete");
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, f);
        // Truncated prefixes are Incomplete (Ok(None)) or a typed error —
        // never a bogus frame, never a panic.
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Ok(None) | Err(_) => {}
                Ok(Some(_)) => panic!("decoded a frame from a {cut}-byte prefix"),
            }
        }
    }

    fn spectrum() -> AoaSpectrum {
        AoaSpectrum::from_fn(720, |t| (t.sin().abs() + 0.25) * 3.5)
    }

    fn submit(
        key: Option<ClientKey>,
        mode: Option<CompressedMode>,
        spectrum: AoaSpectrum,
    ) -> Frame {
        Frame::Submit {
            key,
            ap_id: 2,
            age: 3,
            mode,
            spectrum,
        }
    }

    #[test]
    fn all_frame_types_roundtrip_bit_exact() {
        // Every submit encoding. Lossless frames round-trip any spectrum
        // bit-exactly; quantized frames round-trip grid-snapped spectra
        // (quantization is idempotent, so construct on the grid).
        for key in [None, Some(0x0123_4567_89AB_CDEF)] {
            roundtrip(submit(key, None, spectrum()));
            roundtrip(submit(key, Some(CompressedMode::Lossless), spectrum()));
            let snapped = codec::quantized(&spectrum());
            roundtrip(submit(key, Some(CompressedMode::Quantized), snapped));
        }
        roundtrip(Frame::LocalizeKey {
            key: 42,
            deadline_ms: 75,
        });
        roundtrip(Frame::ReportFailure { ap_id: 2 });
        roundtrip(Frame::Localize { deadline_ms: 150 });
        roundtrip(Frame::ClearSession);
        roundtrip(Frame::Ping { token: 0xDEAD_BEEF });
        roundtrip(Frame::SubmitAck { observations: 6 });
        roundtrip(Frame::Fix {
            x: 12.3456789,
            y: -0.25,
            likelihood: 1e-42,
            health: vec![
                ApHealthReport {
                    ap_id: 0,
                    status: ApStatus::Healthy,
                    consecutive_failures: 0,
                },
                ApHealthReport {
                    ap_id: 5,
                    status: ApStatus::Down,
                    consecutive_failures: 9,
                },
            ],
        });
        roundtrip(Frame::Failed {
            error: LocalizeError::NoObservations,
        });
        roundtrip(Frame::Failed {
            error: LocalizeError::QuorumNotMet {
                available: 1,
                required: 2,
                stale: 3,
                down: 4,
                degenerate: 5,
            },
        });
        roundtrip(Frame::Failed {
            error: LocalizeError::ResolutionMismatch {
                observation: 1,
                bins: 360,
                expected: 720,
            },
        });
        roundtrip(Frame::Overloaded { retry_after_ms: 25 });
        roundtrip(Frame::DeadlineExceeded);
        roundtrip(Frame::Pong { token: 1 });
        roundtrip(Frame::ProtocolError {
            code: 4,
            message: "ap index out of range".into(),
        });
        roundtrip(Frame::ShuttingDown);
        roundtrip(Frame::MetricsQuery);
        roundtrip(Frame::MetricsReport {
            text: "# TYPE at_serve_requests_total counter\nat_serve_requests_total 3\n".into(),
        });
        roundtrip(Frame::Reconfigure {
            op: TopologyOp::Add {
                pose: ApPose {
                    center: pt(4.25, -1.5),
                    axis_angle: 0.75,
                },
            },
        });
        roundtrip(Frame::Reconfigure {
            op: TopologyOp::Remove { ap_id: 3 },
        });
        roundtrip(Frame::Reconfigure {
            op: TopologyOp::Move {
                ap_id: 1,
                pose: ApPose {
                    center: pt(-2.0, 8.125),
                    axis_angle: 2.5,
                },
            },
        });
        roundtrip(Frame::TopologyQuery);
        roundtrip(Frame::TopologyInfo {
            epoch: 3,
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            poses: vec![
                ApPose {
                    center: pt(0.0, 0.0),
                    axis_angle: 0.0,
                },
                ApPose {
                    center: pt(10.5, 6.25),
                    axis_angle: 1.5,
                },
            ],
        });
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Golden wire bytes for every submit encoding and both localize
    /// requests: the exact bytes (header included) each frame encodes to,
    /// and that those bytes decode back to the same frame. An in-memory
    /// refactor of the frame types must leave all of these untouched.
    #[test]
    fn submit_and_localize_wire_bytes_are_pinned() {
        const KEY: ClientKey = 0x0102_0304_0506_0708;
        // 8 bins on the quantizer's grid, so every encoding round-trips.
        let s = codec::quantized(&AoaSpectrum::from_values(vec![
            0.0, 0.5, 1.0, 2.0, 4.0, 3.0, 0.25, 1.5,
        ]));
        let cases: [(Frame, &str); 6] = [
            (
                submit(None, None, s.clone()),
                concat!(
                    "4154010150000000020000000300000000000000080000000000000000000000",
                    "1c834da0bdffdf3fa86024c0d3ffef3f5b8a0ae0e9ffff3f0000000000001040",
                    "526ec46ece0008408cf18580a7ffcf3fc59b3dd6bd00f83f",
                ),
            ),
            (
                submit(Some(KEY), None, s.clone()),
                concat!(
                    "4154020658000000080706050403020102000000030000000000000008000000",
                    "00000000000000001c834da0bdffdf3fa86024c0d3ffef3f5b8a0ae0e9ffff3f",
                    "0000000000001040526ec46ece0008408cf18580a7ffcf3fc59b3dd6bd00f83f",
                ),
            ),
            (
                submit(None, Some(CompressedMode::Quantized), s.clone()),
                concat!(
                    "415403082a000000020000000300000000000000010800000000000000000010",
                    "400000f6b207d819d819d819d30a8b5cb442",
                ),
            ),
            (
                submit(Some(KEY), Some(CompressedMode::Lossless), s.clone()),
                concat!(
                    "415403095c000000080706050403020102000000030000000000000002080000",
                    "0000000000000000009c86b682daf7ffef3fb4c7a783e68d8018f3d5bb81a287",
                    "8008db94aa809efdfff77fd2dc91f6e699800cdebf86f29eedffe37fc9d4e1b5",
                    "a5e3ff1b",
                ),
            ),
            (
                Frame::Localize { deadline_ms: 250 },
                "4154010304000000fa000000",
            ),
            (
                Frame::LocalizeKey {
                    key: KEY,
                    deadline_ms: 250,
                },
                "415402070c0000000807060504030201fa000000",
            ),
        ];
        for (frame, golden) in cases {
            assert_eq!(hex(&frame.encode()), golden, "{frame:?}");
            roundtrip(frame);
        }
    }

    #[test]
    fn metrics_frames_are_version_gated() {
        // The scrape pair encodes under v4; every older header is the
        // typed VersionGated error, never a misparse.
        let mut bytes = Frame::MetricsQuery.encode();
        assert_eq!(bytes[2], 4, "metrics frames declare v4 on the wire");
        for old in 1..4u8 {
            bytes[2] = old;
            assert_eq!(
                decode(&bytes),
                Err(DecodeError::VersionGated {
                    frame: 0x0A,
                    got: old,
                    need: 4,
                })
            );
        }
    }

    #[test]
    fn topology_frames_are_version_gated() {
        // The topology trio encodes under v5; every older header is the
        // typed VersionGated error, never a misparse.
        let mut bytes = Frame::TopologyQuery.encode();
        assert_eq!(bytes[2], 5, "topology frames declare v5 on the wire");
        for old in 1..5u8 {
            bytes[2] = old;
            assert_eq!(
                decode(&bytes),
                Err(DecodeError::VersionGated {
                    frame: 0x0C,
                    got: old,
                    need: 5,
                })
            );
        }
        // Legacy frames still encode under their original versions, so
        // old peers keep working untouched by the bump.
        assert_eq!(Frame::Ping { token: 1 }.encode()[2], 1);
        assert_eq!(Frame::MetricsQuery.encode()[2], 4);
    }

    #[test]
    fn reconfigure_rejects_garbage_ops() {
        // A Reconfigure frame whose payload is not a TopologyOp is a typed
        // Malformed error, not a panic.
        let mut bytes = Frame::Reconfigure {
            op: TopologyOp::Remove { ap_id: 0 },
        }
        .encode();
        let last = bytes.len() - 1;
        bytes[HEADER_LEN] = 0xEE; // corrupt the op tag
        assert!(matches!(
            decode(&bytes),
            Err(DecodeError::Malformed { frame: 0x0B, .. })
        ));
        bytes[HEADER_LEN] = 2; // valid Remove tag, then truncate the id
        bytes[last] = 0xFF;
        let _ = decode(&bytes); // any typed result is fine; must not panic
    }

    #[test]
    fn oversize_metrics_text_truncates_to_the_cap() {
        let frame = Frame::MetricsReport {
            text: "x".repeat(MAX_METRICS_TEXT + 500),
        };
        let bytes = frame.encode();
        assert!(bytes.len() <= HEADER_LEN + MAX_PAYLOAD);
        match decode(&bytes).expect("valid").expect("complete").0 {
            Frame::MetricsReport { text } => assert_eq!(text.len(), MAX_METRICS_TEXT),
            other => panic!("wanted MetricsReport, got {other:?}"),
        }
    }

    #[test]
    fn header_errors_are_typed() {
        assert_eq!(
            decode(b"XT\x01\x01\x00\x00\x00\x00"),
            Err(DecodeError::BadMagic { got: [b'X', b'T'] })
        );
        assert_eq!(
            decode(b"AT\x09\x01\x00\x00\x00\x00"),
            Err(DecodeError::BadVersion { got: 9 })
        );
        assert_eq!(
            decode(b"AT\x01\x7f\x00\x00\x00\x00"),
            Err(DecodeError::UnknownType { got: 0x7f })
        );
        let oversize = [b'A', b'T', VERSION, ft::PING, 0xff, 0xff, 0xff, 0xff];
        assert_eq!(
            decode(&oversize),
            Err(DecodeError::Oversize { len: 0xffff_ffff })
        );
    }

    #[test]
    fn keyed_frames_are_version_gated() {
        // Keyed frames encode under version 2; legacy frames stay at 1,
        // so old peers keep decoding them.
        assert_eq!(
            Frame::LocalizeKey {
                key: 1,
                deadline_ms: 0
            }
            .encode()[2],
            2
        );
        assert_eq!(Frame::Ping { token: 1 }.encode()[2], 1);
        // The same keyed bytes under a version-1 header are a typed
        // VersionGated error, not an UnknownType or a misparse.
        let mut bytes = Frame::LocalizeKey {
            key: 7,
            deadline_ms: 10,
        }
        .encode();
        bytes[2] = 1;
        assert_eq!(
            decode(&bytes),
            Err(DecodeError::VersionGated {
                frame: 0x07,
                got: 1,
                need: 2,
            })
        );
        // A version beyond VERSION stays BadVersion.
        bytes[2] = VERSION + 1;
        assert_eq!(
            decode(&bytes),
            Err(DecodeError::BadVersion { got: VERSION + 1 })
        );
    }

    #[test]
    fn compressed_frames_are_version_gated() {
        // Compressed frames declare v3 on the wire; the same bytes under
        // a v1 or v2 header are the typed VersionGated error — never a
        // misparse, never accepted.
        let pristine = submit(None, Some(CompressedMode::Lossless), spectrum()).encode();
        let mut bytes = pristine.clone();
        assert_eq!(bytes[2], 3);
        for old in [1, 2] {
            bytes[2] = old;
            assert_eq!(
                decode(&bytes),
                Err(DecodeError::VersionGated {
                    frame: 0x08,
                    got: old,
                    need: 3,
                })
            );
        }
        // A corrupt codec blob under the right version is Malformed.
        let mut bytes = pristine;
        bytes[HEADER_LEN + 12] = 0xBB; // clobber the codec mode byte
        assert!(matches!(decode(&bytes), Err(DecodeError::Malformed { .. })));
    }

    #[test]
    fn hostile_spectra_are_rejected() {
        // NaN values must not reach AoaSpectrum::from_values.
        let pristine = submit(None, None, spectrum()).encode();
        let mut bytes = pristine.clone();
        let nan = f64::NAN.to_bits().to_le_bytes();
        bytes[HEADER_LEN + 16..HEADER_LEN + 24].copy_from_slice(&nan);
        assert!(matches!(decode(&bytes), Err(DecodeError::Malformed { .. })));
        // A bin count that disagrees with the payload is malformed.
        let mut bytes = pristine;
        bytes[HEADER_LEN + 12..HEADER_LEN + 16].copy_from_slice(&10_000u32.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(DecodeError::Malformed { .. })));
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut bytes = Frame::Ping { token: 1 }.encode();
        bytes.push(0);
        let len = (bytes.len() - HEADER_LEN) as u32;
        bytes[4..8].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(DecodeError::Malformed { .. })));
    }

    #[test]
    fn streamed_frames_decode_one_at_a_time() {
        let mut buf = Vec::new();
        Frame::Ping { token: 1 }.encode_into(&mut buf);
        Frame::ClearSession.encode_into(&mut buf);
        let (f1, used) = decode(&buf).unwrap().unwrap();
        assert_eq!(f1, Frame::Ping { token: 1 });
        let (f2, used2) = decode(&buf[used..]).unwrap().unwrap();
        assert_eq!(f2, Frame::ClearSession);
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn read_write_frame_over_a_pipe() {
        let f = Frame::Fix {
            x: 1.0,
            y: 2.0,
            likelihood: 0.5,
            health: vec![],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &f).unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(f));
        assert_eq!(read_frame(&mut cursor).unwrap(), None); // clean EOF
    }
}
