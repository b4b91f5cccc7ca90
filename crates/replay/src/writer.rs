//! The journal recorder: an append-only segmented writer implementing
//! [`at_serve::RecordTap`].
//!
//! Failure discipline is **fail-open**: the recorder must never take the
//! location service down. The first write error marks the recorder
//! failed (counted in `at_replay_write_errors_total`); subsequent events
//! still allocate sequence numbers (so an operator can see how much was
//! lost) but are dropped instead of written. Nothing in this module
//! panics on I/O.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use at_core::AoaSpectrum;
use at_obs::metrics::{Counter, Gauge};
use at_obs::names;
use at_serve::proto::Frame;
use at_serve::{ClientKey, RecordTap};

use crate::format::{self, Event, JournalMeta, Outcome, Record, SegmentHeader};

/// Recorder tuning.
#[derive(Clone, Debug)]
pub struct RecorderConfig {
    /// Once a segment reaches this many bytes, the next record opens a
    /// new segment file.
    pub rotate_bytes: u64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self {
            rotate_bytes: 64 << 20,
        }
    }
}

/// A point-in-time summary of what the recorder has written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecorderStats {
    /// Sequence numbers allocated (= events offered by the server).
    pub records: u64,
    /// Framed bytes written across all segments.
    pub bytes: u64,
    /// Segment files opened.
    pub segments: u32,
    /// True once a write error has switched the recorder to drop mode.
    pub failed: bool,
}

struct WriterState {
    file: Option<File>,
    segment_index: u32,
    segment_bytes: u64,
    total_bytes: u64,
    next_seq: u64,
    failed: bool,
    closed: bool,
}

/// The append-only journal writer. Thread-safe; the server calls it from
/// connection threads and the reaper. See the module docs for the
/// fail-open discipline.
pub struct Recorder {
    meta: JournalMeta,
    dir: PathBuf,
    rotate_bytes: u64,
    t0: Instant,
    state: Mutex<WriterState>,
    bytes_total: Arc<Counter>,
    records: [Arc<Counter>; 7],
    rotations: Arc<Counter>,
    write_errors: Arc<Counter>,
    segment_bytes_gauge: Arc<Gauge>,
}

fn open_segment(dir: &Path, meta: JournalMeta, index: u32, first_seq: u64) -> io::Result<File> {
    let mut header = Vec::with_capacity(format::SEGMENT_HEADER_LEN);
    format::encode_header(
        &mut header,
        &SegmentHeader {
            meta,
            segment_index: index,
            first_seq,
        },
    );
    let mut file = File::create(dir.join(format::segment_file_name(index)))?;
    file.write_all(&header)?;
    file.flush()?;
    Ok(file)
}

impl Recorder {
    /// Creates `dir` (and parents) and opens segment 0. Errors here are
    /// surfaced — a recorder that cannot write its first header should
    /// fail loudly at startup, not silently record nothing.
    pub fn create(dir: &Path, meta: JournalMeta, cfg: RecorderConfig) -> io::Result<Recorder> {
        fs::create_dir_all(dir)?;
        let file = open_segment(dir, meta, 0, 1)?;
        let reg = at_obs::global();
        let labelled = |event: &str| reg.counter(names::REPLAY_RECORDS_TOTAL, &[("event", event)]);
        Ok(Recorder {
            meta,
            dir: dir.to_path_buf(),
            rotate_bytes: cfg.rotate_bytes.max(format::SEGMENT_HEADER_LEN as u64),
            t0: Instant::now(),
            state: Mutex::new(WriterState {
                file: Some(file),
                segment_index: 0,
                segment_bytes: format::SEGMENT_HEADER_LEN as u64,
                total_bytes: format::SEGMENT_HEADER_LEN as u64,
                next_seq: 1,
                failed: false,
                closed: false,
            }),
            bytes_total: reg.counter(names::REPLAY_JOURNAL_BYTES_TOTAL, &[]),
            records: [
                labelled("submit"),
                labelled("query"),
                labelled("outcome"),
                labelled("failure"),
                labelled("tick"),
                labelled("idle_reap"),
                labelled("epoch"),
            ],
            rotations: reg.counter(names::REPLAY_SEGMENTS_ROTATED_TOTAL, &[]),
            write_errors: reg.counter(names::REPLAY_WRITE_ERRORS_TOTAL, &[]),
            segment_bytes_gauge: reg.gauge(names::REPLAY_SEGMENT_BYTES, &[]),
        })
    }

    /// Flushes and closes the current segment. Further events still
    /// allocate sequence numbers but are dropped. Returns final totals.
    pub fn finish(&self) -> RecorderStats {
        let mut st = self.state.lock().unwrap();
        if let Some(mut file) = st.file.take() {
            let _ = file.flush();
        }
        st.closed = true;
        RecorderStats {
            records: st.next_seq - 1,
            bytes: st.total_bytes,
            segments: st.segment_index + 1,
            failed: st.failed,
        }
    }

    fn counter_for(&self, event: &Event) -> &Counter {
        let idx = match event {
            Event::Submit { .. } => 0,
            Event::Query { .. } => 1,
            Event::Outcome { .. } => 2,
            Event::Failure { .. } => 3,
            Event::Tick => 4,
            Event::IdleReap { .. } => 5,
            Event::Epoch { .. } => 6,
        };
        &self.records[idx]
    }

    /// Appends one event; returns the sequence number it was assigned
    /// (allocated even in drop mode, so query/outcome pairing survives a
    /// disk failure).
    fn append(&self, event: Event) -> u64 {
        let t_us = u64::try_from(self.t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut st = self.state.lock().unwrap();
        let seq = st.next_seq;
        st.next_seq += 1;
        if st.failed || st.closed {
            return seq;
        }

        if st.segment_bytes >= self.rotate_bytes {
            match open_segment(&self.dir, self.meta, st.segment_index + 1, seq) {
                Ok(file) => {
                    st.file = Some(file);
                    st.segment_index += 1;
                    st.segment_bytes = format::SEGMENT_HEADER_LEN as u64;
                    st.total_bytes += format::SEGMENT_HEADER_LEN as u64;
                    self.rotations.inc();
                    self.bytes_total.add(format::SEGMENT_HEADER_LEN as u64);
                }
                Err(_) => {
                    st.failed = true;
                    st.file = None;
                    self.write_errors.inc();
                    return seq;
                }
            }
        }

        let record = Record { seq, t_us, event };
        let mut frame = Vec::with_capacity(128);
        let framed = format::encode_framed(&mut frame, &record) as u64;
        let write = st
            .file
            .as_mut()
            .map(|f| f.write_all(&frame).and_then(|_| f.flush()))
            .unwrap_or_else(|| Err(io::Error::other("recorder segment closed")));
        match write {
            Ok(()) => {
                st.segment_bytes += framed;
                st.total_bytes += framed;
                self.bytes_total.add(framed);
                self.counter_for(&record.event).inc();
                self.segment_bytes_gauge.set(st.segment_bytes as f64);
            }
            Err(_) => {
                st.failed = true;
                st.file = None;
                self.write_errors.inc();
            }
        }
        seq
    }
}

impl RecordTap for Recorder {
    fn submit(&self, key: ClientKey, ap_id: u32, age: u64, spectrum: &AoaSpectrum) {
        self.append(Event::Submit {
            key,
            ap_id,
            age,
            spectrum: spectrum.clone(),
        });
    }

    fn failure(&self, ap_id: u32) {
        self.append(Event::Failure { ap_id });
    }

    fn query(&self, key: ClientKey, deadline_ms: u32) -> u64 {
        self.append(Event::Query { key, deadline_ms })
    }

    fn outcome(&self, query_seq: u64, reply: &Frame) {
        self.append(Event::Outcome {
            query_seq,
            outcome: Outcome::of_reply(reply),
        });
    }

    fn tick(&self) {
        self.append(Event::Tick);
    }

    fn idle_reap(&self, keys: &[ClientKey]) {
        self.append(Event::IdleReap {
            keys: keys.to_vec(),
        });
    }

    fn epoch_change(&self, epoch: u64, fingerprint: u64, op: &at_config::TopologyOp) {
        self.append(Event::Epoch {
            epoch,
            fingerprint,
            op: *op,
        });
    }
}
