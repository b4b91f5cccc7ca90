//! The on-disk journal format: segment headers, record framing, and a
//! total decoder.
//!
//! A journal is a directory of segment files named `seg-NNNNNN.atj`
//! (zero-padded segment index). Each segment is:
//!
//! ```text
//! header (48 bytes):
//!   magic         8  b"ATJRNL01"
//!   version       u32 LE   (format version, currently 2; 1 still reads)
//!   n_aps         u32 LE   epoch-0 deployment AP count
//!   bins          u32 LE   spectrum resolution
//!   max_resident  u64 LE   session-store spectrum cap
//!   fingerprint   u64 LE   canonical at-config fingerprint of epoch 0
//!   segment_index u32 LE   position in the journal, from 0
//!   first_seq     u64 LE   sequence number of the segment's first record
//! records, back to back:
//!   len     u32 LE   payload length (<= REC_MAX)
//!   crc     u32 LE   IEEE CRC-32 of the payload
//!   payload len bytes
//! ```
//!
//! Every record payload starts `type u8 | seq u64 | t_us u64`, followed by
//! type-specific fields ([`Event`]). Spectra are stored via the wire
//! codec's lossless XOR-delta mode, so a replayed spectrum is bit-exact
//! with what the server admitted.
//!
//! The decoder is *total*: arbitrary bytes produce a typed
//! [`JournalError`] or a [`DecodedSegment`], never a panic. A record cut
//! off mid-write (incomplete length/CRC prefix, or payload shorter than
//! its declared length) is a *tolerated tail* — decoding stops and the
//! segment is flagged `truncated` — because a crash mid-append is an
//! expected journal state. A CRC mismatch on a *complete* record is a
//! hard [`JournalError::CrcMismatch`]: bit rot is corruption, not a tail.

use std::error::Error;
use std::fmt;
use std::io;

use at_config::{SessionPolicy, TopologyOp};
use at_core::health::LocalizeError;
use at_core::AoaSpectrum;
use at_serve::codec::{self, CompressedMode};
use at_serve::proto::Frame;
use at_serve::{ClientKey, ServiceConfig};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"ATJRNL01";

/// Journal format version written by this crate. Version 2 added
/// `et::EPOCH` records (topology reconfigurations) and switched the
/// header fingerprint to the canonical `at-config` one; version-1
/// journals (which by construction hold no epoch records) still decode.
pub const FORMAT_VERSION: u32 = 2;

/// Fixed size of a segment header, bytes.
pub const SEGMENT_HEADER_LEN: usize = 48;

/// Hard cap on a single record payload. The largest legitimate record (a
/// lossless 65536-bin spectrum submission) is ~512 KiB; anything larger
/// is corruption, rejected before allocation.
pub(crate) const REC_MAX: usize = 1 << 21;

/// Record type bytes (`et` = event type).
pub mod et {
    /// An admitted keyed spectrum submission.
    pub(crate) const SUBMIT: u8 = 1;
    /// A keyed localize request, at the instant its session was snapshot.
    pub(crate) const QUERY: u8 = 2;
    /// The reply the live server produced for an earlier `QUERY`.
    pub(crate) const OUTCOME: u8 = 3;
    /// An AP acquisition-failure report.
    pub(crate) const FAILURE: u8 = 4;
    /// One staleness refresh tick of the session store.
    pub(crate) const TICK: u8 = 5;
    /// Sessions evicted by the idle reaper.
    pub(crate) const IDLE_REAP: u8 = 6;
    /// A topology reconfiguration committed (format v2): everything
    /// before this record belongs to the previous epoch, everything
    /// after to the new one.
    pub(crate) const EPOCH: u8 = 7;
}

/// Outcome kind bytes within an [`et::OUTCOME`] record.
mod ok_ {
    pub(crate) const FIX: u8 = 0;
    pub(crate) const FAILED: u8 = 1;
    pub(crate) const OVERLOADED: u8 = 2;
    pub(crate) const DEADLINE: u8 = 3;
    pub(crate) const SHUTTING_DOWN: u8 = 4;
}

/// Localize-error codes within an [`ok_::FAILED`] outcome (mirrors the
/// wire protocol's `FAILED` encoding).
mod ec {
    pub(crate) const NO_OBSERVATIONS: u8 = 0;
    pub(crate) const QUORUM_NOT_MET: u8 = 1;
    pub(crate) const RESOLUTION_MISMATCH: u8 = 2;
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE), table generated at compile time.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `bytes` (the checksum guarding every record payload).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Data model
// ---------------------------------------------------------------------------

/// Deployment identity a journal was recorded under. Replay refuses a
/// config whose fingerprint disagrees — a bit-exact comparison against a
/// *different* deployment is meaningless.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalMeta {
    /// Deployment AP count.
    pub n_aps: u32,
    /// Spectrum resolution (bins).
    pub bins: u32,
    /// Session-store resident-spectra cap (eviction order depends on it).
    pub max_resident_spectra: u64,
    /// `config_fingerprint` — the canonical `at-config` fingerprint of
    /// the epoch-0 [`at_config::SystemConfig`], the same number the live
    /// server reports in `TopologyInfo` before any reconfiguration.
    pub fingerprint: u64,
}

impl JournalMeta {
    /// The meta block for the service config and session policy the
    /// recorded server was started with (its epoch-0 system config).
    pub fn for_service(service: &ServiceConfig, session: SessionPolicy) -> Self {
        Self {
            n_aps: service.poses.len() as u32,
            bins: service.bins as u32,
            max_resident_spectra: session.max_resident_spectra as u64,
            fingerprint: config_fingerprint(service, session),
        }
    }
}

/// One segment file's header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Deployment identity (identical across a journal's segments).
    pub meta: JournalMeta,
    /// Position of this segment in the journal, from 0.
    pub segment_index: u32,
    /// Sequence number of the segment's first record.
    pub first_seq: u64,
}

/// One journal record: a monotonic sequence number, a capture timestamp
/// (microseconds since recording began), and the event itself.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Monotonic sequence number, from 1, shared across all event types.
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub t_us: u64,
    /// What happened.
    pub event: Event,
}

/// A state-changing event the live server admitted, in admission order.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A keyed spectrum submission, post-decompress, pre-store.
    Submit {
        /// Session key.
        key: ClientKey,
        /// Submitting AP.
        ap_id: u32,
        /// Client-declared spectrum age, refresh intervals.
        age: u64,
        /// The admitted spectrum, bit-exact.
        spectrum: AoaSpectrum,
    },
    /// A keyed localize request, recorded at session-snapshot time.
    Query {
        /// Session key.
        key: ClientKey,
        /// Client deadline (0 = none). Informational: replay does not
        /// re-enforce deadlines, which are wall-clock nondeterminism.
        deadline_ms: u32,
    },
    /// The live server's reply to the query recorded at `query_seq`.
    Outcome {
        /// `seq` of the matching [`Event::Query`] record.
        query_seq: u64,
        /// What the server answered.
        outcome: Outcome,
    },
    /// An AP acquisition-failure report (drives health state).
    Failure {
        /// Reported AP.
        ap_id: u32,
    },
    /// One staleness refresh tick (ages every resident spectrum by one).
    Tick,
    /// Sessions the idle reaper evicted, in eviction order.
    IdleReap {
        /// Evicted session keys.
        keys: Vec<ClientKey>,
    },
    /// A topology reconfiguration committed between the surrounding
    /// records (format v2). Replay applies `op` to its current system
    /// config and refuses to continue if the result's canonical
    /// fingerprint is not `fingerprint` — each epoch is pinned.
    Epoch {
        /// The new epoch number (first reconfigure produces epoch 1).
        epoch: u64,
        /// Canonical fingerprint of the new epoch's system config.
        fingerprint: u64,
        /// The applied topology operation.
        op: TopologyOp,
    },
}

/// The reply the live server produced for a recorded query.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// A fix: the bit patterns replay must reproduce exactly.
    Fix {
        /// Estimated x, meters.
        x: f64,
        /// Estimated y, meters.
        y: f64,
        /// Likelihood at the estimate.
        likelihood: f64,
    },
    /// A typed localize refusal (also replayed bit-exactly).
    Failed {
        /// The in-process error.
        error: LocalizeError,
    },
    /// Admission control shed the request (wall-clock dependent; replay
    /// skips the comparison).
    Overloaded,
    /// The deadline expired live (wall-clock dependent; skipped).
    DeadlineExceeded,
    /// The server was draining (skipped).
    ShuttingDown,
}

impl Outcome {
    /// The outcome a localize reply frame records as.
    pub(crate) fn of_reply(reply: &Frame) -> Self {
        match reply {
            Frame::Fix {
                x, y, likelihood, ..
            } => Outcome::Fix {
                x: *x,
                y: *y,
                likelihood: *likelihood,
            },
            Frame::Failed { error } => Outcome::Failed {
                error: error.clone(),
            },
            Frame::Overloaded { .. } => Outcome::Overloaded,
            Frame::DeadlineExceeded => Outcome::DeadlineExceeded,
            Frame::ShuttingDown => Outcome::ShuttingDown,
            // The localize path produces no other reply; journal anything
            // unexpected as a shed so the record count still balances.
            _ => Outcome::Overloaded,
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A typed journal failure. Decoding arbitrary bytes yields one of these
/// or a decoded segment — never a panic.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure while reading or writing the journal.
    Io(io::Error),
    /// A segment file does not open with [`SEGMENT_MAGIC`].
    BadMagic {
        /// The first bytes actually found.
        got: [u8; 8],
    },
    /// A segment declares a format version this reader does not speak.
    BadVersion {
        /// The declared version.
        got: u32,
    },
    /// A segment is shorter than [`SEGMENT_HEADER_LEN`].
    HeaderTruncated,
    /// A record declares a payload longer than `REC_MAX`.
    Oversize {
        /// Byte offset of the record within the segment.
        at: usize,
        /// The declared length.
        len: usize,
    },
    /// A complete record's payload fails its CRC — bit rot, not a
    /// tolerated truncation tail.
    CrcMismatch {
        /// Byte offset of the record within the segment.
        at: usize,
    },
    /// A record's payload passed its CRC but does not parse as an event.
    Malformed {
        /// Byte offset of the record within the segment.
        at: usize,
        /// What was wrong.
        reason: &'static str,
    },
    /// A non-final segment ends in a truncated tail (only the journal's
    /// last segment may be cut off by a crash).
    TruncatedMidJournal {
        /// Index of the offending segment.
        segment: usize,
    },
    /// A segment's deployment meta disagrees with the journal's first
    /// segment.
    MetaMismatch {
        /// Index of the offending segment.
        segment: usize,
    },
    /// A segment's header index or first-sequence disagrees with its
    /// position in the journal.
    SegmentOutOfOrder {
        /// Index (by filename order) of the offending segment.
        segment: usize,
        /// What disagreed.
        reason: &'static str,
    },
    /// The journal directory holds no segment files.
    NoSegments,
    /// Replay was asked to run a journal against a service config with a
    /// different fingerprint.
    ConfigMismatch {
        /// Fingerprint recorded in the journal.
        expected: u64,
        /// Fingerprint of the offered config.
        got: u64,
    },
    /// A record cites an AP outside the journal's declared deployment.
    BadApId {
        /// Sequence number of the offending record.
        seq: u64,
        /// The out-of-range AP id.
        ap_id: u32,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "journal I/O: {e}"),
            Self::BadMagic { got } => write!(f, "bad segment magic {got:02x?}"),
            Self::BadVersion { got } => write!(f, "unsupported journal format version {got}"),
            Self::HeaderTruncated => write!(f, "segment shorter than its header"),
            Self::Oversize { at, len } => {
                write!(
                    f,
                    "record at byte {at} declares oversize payload ({len} bytes)"
                )
            }
            Self::CrcMismatch { at } => write!(f, "record at byte {at} fails its CRC"),
            Self::Malformed { at, reason } => {
                write!(f, "record at byte {at} is malformed: {reason}")
            }
            Self::TruncatedMidJournal { segment } => {
                write!(
                    f,
                    "segment {segment} is truncated but is not the last segment"
                )
            }
            Self::MetaMismatch { segment } => {
                write!(
                    f,
                    "segment {segment} was recorded under a different deployment"
                )
            }
            Self::SegmentOutOfOrder { segment, reason } => {
                write!(f, "segment {segment} out of order: {reason}")
            }
            Self::NoSegments => write!(f, "journal directory holds no segments"),
            Self::ConfigMismatch { expected, got } => write!(
                f,
                "journal fingerprint {expected:#018x} != config fingerprint {got:#018x}"
            ),
            Self::BadApId { seq, ap_id } => {
                write!(f, "record {seq} cites AP {ap_id}, outside the deployment")
            }
        }
    }
}

impl Error for JournalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Config fingerprint
// ---------------------------------------------------------------------------

/// Canonical fingerprint of everything a deterministic replay depends
/// on: the [`at_config::SystemConfig`] the recorded server was started
/// with, hashed over its canonical byte serialization. This is the same
/// number the live server reports in `TopologyInfo` for the matching
/// epoch, so the recorder, the replayer, and the server cannot drift.
pub(crate) fn config_fingerprint(service: &ServiceConfig, session: SessionPolicy) -> u64 {
    service.to_system(session).fingerprint()
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    push_u64(out, v.to_bits());
}

/// Serializes a segment header.
pub fn encode_header(out: &mut Vec<u8>, header: &SegmentHeader) {
    let start = out.len();
    out.extend_from_slice(&SEGMENT_MAGIC);
    push_u32(out, FORMAT_VERSION);
    push_u32(out, header.meta.n_aps);
    push_u32(out, header.meta.bins);
    push_u64(out, header.meta.max_resident_spectra);
    push_u64(out, header.meta.fingerprint);
    push_u32(out, header.segment_index);
    push_u64(out, header.first_seq);
    debug_assert_eq!(out.len() - start, SEGMENT_HEADER_LEN);
}

/// Serializes a record payload (no length/CRC framing; see
/// [`encode_framed`]).
pub(crate) fn encode_payload(out: &mut Vec<u8>, record: &Record) {
    let type_byte = match &record.event {
        Event::Submit { .. } => et::SUBMIT,
        Event::Query { .. } => et::QUERY,
        Event::Outcome { .. } => et::OUTCOME,
        Event::Failure { .. } => et::FAILURE,
        Event::Tick => et::TICK,
        Event::IdleReap { .. } => et::IDLE_REAP,
        Event::Epoch { .. } => et::EPOCH,
    };
    out.push(type_byte);
    push_u64(out, record.seq);
    push_u64(out, record.t_us);
    match &record.event {
        Event::Submit {
            key,
            ap_id,
            age,
            spectrum,
        } => {
            push_u64(out, *key);
            push_u32(out, *ap_id);
            push_u64(out, *age);
            codec::compress_into(out, spectrum, CompressedMode::Lossless);
        }
        Event::Query { key, deadline_ms } => {
            push_u64(out, *key);
            push_u32(out, *deadline_ms);
        }
        Event::Outcome { query_seq, outcome } => {
            push_u64(out, *query_seq);
            match outcome {
                Outcome::Fix { x, y, likelihood } => {
                    out.push(ok_::FIX);
                    push_f64(out, *x);
                    push_f64(out, *y);
                    push_f64(out, *likelihood);
                }
                Outcome::Failed { error } => {
                    out.push(ok_::FAILED);
                    match error {
                        LocalizeError::NoObservations => out.push(ec::NO_OBSERVATIONS),
                        LocalizeError::QuorumNotMet {
                            available,
                            required,
                            stale,
                            down,
                            degenerate,
                        } => {
                            out.push(ec::QUORUM_NOT_MET);
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
                            out.push(ec::RESOLUTION_MISMATCH);
                            push_u64(out, *observation as u64);
                            push_u64(out, *bins as u64);
                            push_u64(out, *expected as u64);
                        }
                    }
                }
                Outcome::Overloaded => out.push(ok_::OVERLOADED),
                Outcome::DeadlineExceeded => out.push(ok_::DEADLINE),
                Outcome::ShuttingDown => out.push(ok_::SHUTTING_DOWN),
            }
        }
        Event::Failure { ap_id } => push_u32(out, *ap_id),
        Event::Tick => {}
        Event::IdleReap { keys } => {
            push_u32(out, keys.len() as u32);
            for &k in keys {
                push_u64(out, k);
            }
        }
        Event::Epoch {
            epoch,
            fingerprint,
            op,
        } => {
            push_u64(out, *epoch);
            push_u64(out, *fingerprint);
            op.encode(out);
        }
    }
}

/// Serializes a record with its `len | crc | payload` framing, appended
/// to `out`. Returns the framed size in bytes.
pub fn encode_framed(out: &mut Vec<u8>, record: &Record) -> usize {
    let mut payload = Vec::with_capacity(64);
    encode_payload(&mut payload, record);
    debug_assert!(payload.len() <= REC_MAX);
    push_u32(out, payload.len() as u32);
    push_u32(out, crc32(&payload));
    out.extend_from_slice(&payload);
    payload.len() + 8
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A cursor over untrusted bytes; every read is bounds-checked.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
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
    fn rest(&mut self) -> &'a [u8] {
        let s = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        s
    }
    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Parses a segment header from the front of `bytes`.
pub(crate) fn decode_header(bytes: &[u8]) -> Result<SegmentHeader, JournalError> {
    if bytes.len() < SEGMENT_HEADER_LEN {
        return Err(JournalError::HeaderTruncated);
    }
    let mut c = Cursor::new(&bytes[..SEGMENT_HEADER_LEN]);
    let magic: [u8; 8] = c.take(8).unwrap().try_into().unwrap();
    if magic != SEGMENT_MAGIC {
        return Err(JournalError::BadMagic { got: magic });
    }
    let version = c.u32().unwrap();
    if !(1..=FORMAT_VERSION).contains(&version) {
        return Err(JournalError::BadVersion { got: version });
    }
    Ok(SegmentHeader {
        meta: JournalMeta {
            n_aps: c.u32().unwrap(),
            bins: c.u32().unwrap(),
            max_resident_spectra: c.u64().unwrap(),
            fingerprint: c.u64().unwrap(),
        },
        segment_index: c.u32().unwrap(),
        first_seq: c.u64().unwrap(),
    })
}

fn decode_payload(payload: &[u8], at: usize) -> Result<Record, JournalError> {
    let mal = |reason| JournalError::Malformed { at, reason };
    let mut c = Cursor::new(payload);
    let type_byte = c.u8().ok_or(mal("empty payload"))?;
    let seq = c.u64().ok_or(mal("missing seq"))?;
    let t_us = c.u64().ok_or(mal("missing timestamp"))?;
    let event = match type_byte {
        et::SUBMIT => {
            let key = c.u64().ok_or(mal("submit missing key"))?;
            let ap_id = c.u32().ok_or(mal("submit missing ap_id"))?;
            let age = c.u64().ok_or(mal("submit missing age"))?;
            let blob = c.rest();
            let (mode, spectrum) =
                codec::decompress(blob).map_err(|_| mal("submit spectrum undecodable"))?;
            if mode != CompressedMode::Lossless {
                return Err(mal("submit spectrum not lossless"));
            }
            Event::Submit {
                key,
                ap_id,
                age,
                spectrum,
            }
        }
        et::QUERY => Event::Query {
            key: c.u64().ok_or(mal("query missing key"))?,
            deadline_ms: c.u32().ok_or(mal("query missing deadline"))?,
        },
        et::OUTCOME => {
            let query_seq = c.u64().ok_or(mal("outcome missing query_seq"))?;
            let kind = c.u8().ok_or(mal("outcome missing kind"))?;
            let outcome = match kind {
                ok_::FIX => Outcome::Fix {
                    x: c.f64().ok_or(mal("fix missing x"))?,
                    y: c.f64().ok_or(mal("fix missing y"))?,
                    likelihood: c.f64().ok_or(mal("fix missing likelihood"))?,
                },
                ok_::FAILED => {
                    let code = c.u8().ok_or(mal("failed missing error code"))?;
                    let error = match code {
                        ec::NO_OBSERVATIONS => LocalizeError::NoObservations,
                        ec::QUORUM_NOT_MET => LocalizeError::QuorumNotMet {
                            available: c.u64().ok_or(mal("quorum fields short"))? as usize,
                            required: c.u64().ok_or(mal("quorum fields short"))? as usize,
                            stale: c.u64().ok_or(mal("quorum fields short"))? as usize,
                            down: c.u64().ok_or(mal("quorum fields short"))? as usize,
                            degenerate: c.u64().ok_or(mal("quorum fields short"))? as usize,
                        },
                        ec::RESOLUTION_MISMATCH => LocalizeError::ResolutionMismatch {
                            observation: c.u64().ok_or(mal("mismatch fields short"))? as usize,
                            bins: c.u64().ok_or(mal("mismatch fields short"))? as usize,
                            expected: c.u64().ok_or(mal("mismatch fields short"))? as usize,
                        },
                        _ => return Err(mal("unknown localize error code")),
                    };
                    Outcome::Failed { error }
                }
                ok_::OVERLOADED => Outcome::Overloaded,
                ok_::DEADLINE => Outcome::DeadlineExceeded,
                ok_::SHUTTING_DOWN => Outcome::ShuttingDown,
                _ => return Err(mal("unknown outcome kind")),
            };
            Event::Outcome { query_seq, outcome }
        }
        et::FAILURE => Event::Failure {
            ap_id: c.u32().ok_or(mal("failure missing ap_id"))?,
        },
        et::TICK => Event::Tick,
        et::IDLE_REAP => {
            let n = c.u32().ok_or(mal("idle_reap missing count"))? as usize;
            if n > payload.len() / 8 {
                return Err(mal("idle_reap count exceeds payload"));
            }
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(c.u64().ok_or(mal("idle_reap keys short"))?);
            }
            Event::IdleReap { keys }
        }
        et::EPOCH => {
            let epoch = c.u64().ok_or(mal("epoch missing number"))?;
            let fingerprint = c.u64().ok_or(mal("epoch missing fingerprint"))?;
            let rest = c.rest();
            let (op, used) = TopologyOp::decode(rest).map_err(|_| mal("epoch op undecodable"))?;
            if used != rest.len() {
                return Err(mal("trailing bytes after epoch op"));
            }
            Event::Epoch {
                epoch,
                fingerprint,
                op,
            }
        }
        _ => return Err(mal("unknown record type")),
    };
    if !c.done() {
        return Err(mal("trailing bytes after record"));
    }
    Ok(Record { seq, t_us, event })
}

/// A fully decoded segment.
#[derive(Clone, Debug)]
pub struct DecodedSegment {
    /// The segment's header.
    pub header: SegmentHeader,
    /// Every record that decoded cleanly, in file order.
    pub records: Vec<Record>,
    /// True if the segment ends in an incomplete record (crash tail).
    pub truncated: bool,
}

/// Decodes one segment from raw bytes. Total: any input yields a typed
/// error or a `DecodedSegment`, never a panic. An incomplete final record
/// sets `truncated` instead of failing; a CRC or parse failure on a
/// *complete* record is a hard error.
pub fn decode_segment(bytes: &[u8]) -> Result<DecodedSegment, JournalError> {
    let header = decode_header(bytes)?;
    let mut records = Vec::new();
    let mut truncated = false;
    let mut pos = SEGMENT_HEADER_LEN;
    let mut last_seq: Option<u64> = None;
    while pos < bytes.len() {
        let at = pos;
        if bytes.len() - pos < 8 {
            truncated = true;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > REC_MAX {
            return Err(JournalError::Oversize { at, len });
        }
        pos += 8;
        if bytes.len() - pos < len {
            truncated = true;
            break;
        }
        let payload = &bytes[pos..pos + len];
        pos += len;
        if crc32(payload) != crc {
            return Err(JournalError::CrcMismatch { at });
        }
        let record = decode_payload(payload, at)?;
        let expected = last_seq.map_or(header.first_seq, |s| s + 1);
        if record.seq != expected {
            return Err(JournalError::Malformed {
                at,
                reason: "sequence number out of order",
            });
        }
        last_seq = Some(record.seq);
        records.push(record);
    }
    Ok(DecodedSegment {
        header,
        records,
        truncated,
    })
}

/// Filename of segment `index` within a journal directory.
pub(crate) fn segment_file_name(index: u32) -> String {
    format!("seg-{index:06}.atj")
}
