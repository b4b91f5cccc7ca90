//! # at-replay — deterministic capture-and-replay for the location service
//!
//! The fusion pipeline is deterministic: the same spectra through the
//! same engine under the same health state produce bit-identical fixes.
//! This crate exploits that to turn *production traffic itself* into a
//! regression suite:
//!
//! - [`format`](mod@format) — the on-disk journal: segmented, append-only,
//!   CRC-checksummed records of every admitted submission, localize
//!   request, failure report, and reaper event, with spectra stored via
//!   the wire codec's lossless mode. The decoder is total — arbitrary
//!   bytes yield a typed [`JournalError`] or a decoded segment, never a
//!   panic — and a crash-truncated tail is a tolerated state, not an
//!   error.
//! - [`writer`] — [`Recorder`], an [`at_serve::RecordTap`] the server
//!   calls at admission (post-decompress, pre-store). Fail-open: a disk
//!   error stops recording, never the service.
//! - [`reader`] — [`Journal::open`] loads and cross-validates a whole
//!   segment directory.
//! - [`replay`] — [`replay_in_process`] feeds the journal into a fresh
//!   `at_serve::ServiceCore` (the server's own state machine) and asserts
//!   every recorded fix reproduces bit-exactly;
//!   [`replay_wire`] replays through real client sessions against a live
//!   server at recorded or accelerated pacing.
//!
//! The committed golden journal under `tests/fixtures/replay_office/` is
//! replayed by the `replay_check` binary in CI: any divergence means the
//! pipeline's numerical behavior changed and the build fails.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod reader;
pub mod replay;
pub mod writer;

pub use format::{
    decode_segment, DecodedSegment, Event, JournalError, JournalMeta, Outcome, Record,
    SegmentHeader,
};
pub use reader::Journal;
pub use replay::{replay_in_process, replay_wire, Divergence, Pacing, ReplayReport, WireOptions};
pub use writer::{Recorder, RecorderConfig, RecorderStats};
