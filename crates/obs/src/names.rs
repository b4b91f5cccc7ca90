//! Canonical names for cross-crate metrics.
//!
//! Stage timings get their names from [`crate::stages`]; everything else
//! that more than one crate needs to agree on — the recorder on one side,
//! dashboards/tests/loadgen asserting on the other — lives here, so a
//! rename is a one-line change instead of a string hunt. Today that is
//! the `at-serve` session store: the ROADMAP's "millions of mostly-idle
//! clients" goal makes resident-session accounting an operational
//! invariant (the loadgen mixed workload asserts the resident gauges
//! never exceed the configured cap), which only works if both sides spell
//! the names identically.

/// Gauge: keyed sessions currently resident in the serve session store.
pub const SERVE_SESSIONS_RESIDENT: &str = "at_serve_sessions_resident";

/// Gauge: spectra currently resident across all keyed sessions — the
/// quantity the store's hard cap bounds.
pub const SERVE_SESSIONS_SPECTRA_RESIDENT: &str = "at_serve_sessions_spectra_resident";

/// Counter: keyed sessions created (first spectrum for a new key).
pub const SERVE_SESSIONS_CREATED_TOTAL: &str = "at_serve_sessions_created_total";

/// Counter: keyed sessions evicted, labelled `reason="idle"` (idle
/// timeout hit by the reaper) or `reason="cap"` (displaced oldest-first
/// by an insert over the resident-spectra cap).
pub const SERVE_SESSIONS_EVICTED_TOTAL: &str = "at_serve_sessions_evicted_total";

/// Counter: keyed spectrum submissions accepted into the store.
pub const SERVE_SESSIONS_SUBMITS_TOTAL: &str = "at_serve_sessions_submits_total";

/// Counter: bytes of spectrum-submission frames read off AP/client
/// uplinks, labelled `encoding="raw"|"quantized"|"lossless"` — the
/// quantity protocol v3's wire compression exists to shrink (loadgen's
/// byte-budget smoke gate reads the same counter the operator would).
pub const SERVE_UPLINK_BYTES_TOTAL: &str = "at_serve_uplink_bytes_total";

/// Counter: compressed (v3) submit frames admitted,
/// labelled `mode="quantized"|"lossless"`.
pub const SERVE_COMPRESSED_FRAMES_TOTAL: &str = "at_serve_compressed_frames_total";

/// Gauge: cumulative uplink compression ratio — raw-equivalent bytes of
/// every compressed submission divided by the bytes actually on the
/// wire. 1.0 until the first compressed frame arrives; ≥8 is the
/// loadgen acceptance bar for the quantized mixed phase.
pub const SERVE_UPLINK_COMPRESSION_RATIO: &str = "at_serve_uplink_compression_ratio";

/// Counter: bytes appended to the capture journal (record frames plus
/// segment headers), by the `at-replay` recorder tapping the server at
/// admission.
pub const REPLAY_JOURNAL_BYTES_TOTAL: &str = "at_replay_journal_bytes_total";

/// Counter: records appended to the capture journal, labelled
/// `event="submit"|"query"|"outcome"|"failure"|"tick"|"idle_reap"|"epoch"`.
pub const REPLAY_RECORDS_TOTAL: &str = "at_replay_records_total";

/// Gauge: the serve deployment's current topology epoch (0 = the config
/// the server started with; incremented by every applied `Reconfigure`).
pub const SERVE_TOPOLOGY_EPOCH: &str = "at_serve_topology_epoch";

/// Counter: topology reconfigurations applied on the live server,
/// labelled `op="add"|"remove"|"move"`.
pub const SERVE_RECONFIGURES_TOTAL: &str = "at_serve_reconfigures_total";

/// Counter: journal segments rotated out (closed at the size threshold
/// and succeeded by a fresh segment file).
pub const REPLAY_SEGMENTS_ROTATED_TOTAL: &str = "at_replay_segments_rotated_total";

/// Counter: recorder write failures. The recorder is fail-open: after
/// the first I/O error it stops journaling (and keeps counting here)
/// rather than take the serving path down with it.
pub const REPLAY_WRITE_ERRORS_TOTAL: &str = "at_replay_write_errors_total";

/// Gauge: bytes in the journal segment currently being appended to
/// (resets to the header size at every rotation).
pub const REPLAY_SEGMENT_BYTES: &str = "at_replay_segment_bytes";

/// Counter: replayed queries whose recomputed outcome differed from the
/// recorded one — the quantity the `replay_check` CI gate requires to
/// be zero on the committed golden journal.
pub const REPLAY_DIVERGENCE_TOTAL: &str = "at_replay_divergence_total";
