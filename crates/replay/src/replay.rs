//! Replay engines: feed a recorded journal back through the location
//! pipeline and check every recorded fix reproduces bit-exactly.
//!
//! Two modes:
//!
//! - [`replay_in_process`] feeds the journal's events into a fresh
//!   [`ServiceCore`] — the same state machine the live server drives —
//!   with no network or threads: the regression harness. Because the
//!   store's eviction order is a deterministic function of the
//!   submit/snapshot sequence, a sequentially recorded journal replays to
//!   identical session state and therefore identical fusion inputs.
//! - [`replay_wire`] replays the journal against a *live* server through
//!   real [`ApClient`]/[`AppClient`] sessions, optionally at recorded or
//!   accelerated pacing — a load/soak generator with built-in parity
//!   checking.
//!
//! Recorded outcomes that depend on wall-clock scheduling (`Overloaded`,
//! `DeadlineExceeded`, `ShuttingDown`) are *skipped*, not compared:
//! admission pressure is not part of the deterministic state machine.
//! Journals recorded under concurrent load may also legitimately diverge
//! — interleaving at the tap is racy by construction — which is what the
//! `at_replay_divergence_total` counter is for; the committed golden
//! fixture is recorded sequentially and must replay divergence-free.

use std::collections::HashMap;
use std::time::Duration;

use at_config::TopologyOp;
use at_obs::names;
use at_serve::{
    ApClient, AppClient, ClientConfig, ClientError, Encoding, FuseScratch, ServiceConfig,
    ServiceCore, SessionPolicy, SessionRef,
};

use crate::format::{config_fingerprint, Event, JournalError, Outcome};
use crate::reader::Journal;

/// Cap on retained [`Divergence`] details (totals keep counting past it).
pub(crate) const MAX_DIVERGENCE_DETAILS: usize = 16;

/// One query whose replayed result disagreed with the recorded outcome.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// `seq` of the diverging query record.
    pub query_seq: u64,
    /// Session key the query cited.
    pub key: u64,
    /// Human-readable recorded-vs-replayed description.
    pub detail: String,
}

/// What a replay did and found.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    /// Journal records consumed.
    pub records: usize,
    /// Spectrum submissions applied.
    pub submits: usize,
    /// Localize queries driven.
    pub queries: usize,
    /// Queries whose outcome was compared bit-exactly.
    pub compared: usize,
    /// Queries skipped (load-dependent outcome, or no outcome recorded —
    /// e.g. the recorder died mid-exchange).
    pub skipped: usize,
    /// Compared queries that did **not** reproduce the recorded outcome.
    pub divergences: usize,
    /// Details for the first `MAX_DIVERGENCE_DETAILS` divergences.
    pub divergence_details: Vec<Divergence>,
    /// Propagated from the journal: it ended in a crash tail.
    pub truncated_tail: bool,
}

impl ReplayReport {
    fn diverge(&mut self, query_seq: u64, key: u64, detail: String) {
        self.divergences += 1;
        if self.divergence_details.len() < MAX_DIVERGENCE_DETAILS {
            self.divergence_details.push(Divergence {
                query_seq,
                key,
                detail,
            });
        }
    }

    /// Counts one compared query, recording a divergence unless
    /// `replayed` reproduces `recorded` bit for bit.
    fn compare(&mut self, query_seq: u64, key: u64, recorded: &Outcome, replayed: &Outcome) {
        self.compared += 1;
        let bits = |o: &Outcome| match *o {
            Outcome::Fix { x, y, likelihood } => Some([x, y, likelihood].map(f64::to_bits)),
            _ => None,
        };
        let same = match (recorded, replayed) {
            (Outcome::Failed { error }, Outcome::Failed { error: e }) => error == e,
            _ => bits(recorded).is_some() && bits(recorded) == bits(replayed),
        };
        if !same {
            self.diverge(
                query_seq,
                key,
                format!(
                    "recorded {}, replayed {}",
                    describe_outcome(recorded),
                    describe_outcome(replayed)
                ),
            );
        }
    }

    fn finish(&mut self) {
        if self.divergences > 0 {
            at_obs::global()
                .counter(names::REPLAY_DIVERGENCE_TOTAL, &[])
                .add(self.divergences as u64);
        }
    }
}

fn describe_outcome(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Fix { x, y, likelihood } => {
            format!("fix ({x:?}, {y:?}, likelihood {likelihood:?})")
        }
        Outcome::Failed { error } => format!("failed ({error})"),
        Outcome::Overloaded => "overloaded".into(),
        Outcome::DeadlineExceeded => "deadline exceeded".into(),
        Outcome::ShuttingDown => "shutting down".into(),
    }
}

/// True if this recorded outcome is part of the deterministic state
/// machine (comparable), false if it is load-dependent (skipped).
fn comparable(outcome: &Outcome) -> bool {
    matches!(outcome, Outcome::Fix { .. } | Outcome::Failed { .. })
}

fn check_config(
    journal: &Journal,
    service: &ServiceConfig,
    session: SessionPolicy,
) -> Result<(), JournalError> {
    let got = config_fingerprint(service, session);
    if got != journal.meta.fingerprint {
        return Err(JournalError::ConfigMismatch {
            expected: journal.meta.fingerprint,
            got,
        });
    }
    // A tampered header that still fingerprints right must agree with
    // the deployment; the core then refuses any config it cannot hold.
    if journal.meta.n_aps as usize != service.poses.len()
        || journal.meta.max_resident_spectra != session.max_resident_spectra as u64
    {
        return Err(inconsistent_meta());
    }
    Ok(())
}

fn inconsistent_meta() -> JournalError {
    JournalError::Malformed {
        at: 0,
        reason: "journal meta inconsistent with deployment",
    }
}

/// Refuses to continue when a re-applied epoch's canonical fingerprint
/// disagrees with the recorded pin.
fn check_fingerprint(got: u64, recorded: u64) -> Result<(), JournalError> {
    if got != recorded {
        return Err(JournalError::ConfigMismatch {
            expected: recorded,
            got,
        });
    }
    Ok(())
}

/// Indexes recorded outcomes by the `seq` of their query record.
fn outcome_index(journal: &Journal) -> HashMap<u64, &Outcome> {
    journal
        .records
        .iter()
        .filter_map(|r| match &r.event {
            Event::Outcome { query_seq, outcome } => Some((*query_seq, outcome)),
            _ => None,
        })
        .collect()
}

/// Replays a journal through a fresh [`ServiceCore`], asserting bit-exact
/// parity for every comparable outcome.
///
/// `service` + `session` must be the epoch-0 deployment the journal was
/// recorded under (checked by canonical fingerprint); recorded
/// [`Event::Epoch`] transitions are re-prepared, re-fingerprinted against
/// their recorded pin, and committed exactly as the live server did.
/// Reaper-driven time (idle eviction, staleness ticks) replays from
/// journal events, so the policy's wall-clock knobs are inert here. Never
/// panics on journal content: corrupt records were already rejected by the
/// reader, and remaining inconsistencies (out-of-range APs, inconsistent
/// meta, stale epoch ops) return typed errors.
pub fn replay_in_process(
    journal: &Journal,
    service: &ServiceConfig,
    session: SessionPolicy,
) -> Result<ReplayReport, JournalError> {
    check_config(journal, service, session)?;
    let core =
        ServiceCore::new(service.to_system(session), None).map_err(|_| inconsistent_meta())?;
    let outcomes = outcome_index(journal);
    let mut report = ReplayReport {
        truncated_tail: journal.truncated_tail,
        ..ReplayReport::default()
    };
    let mut scratch = FuseScratch::default();
    for record in &journal.records {
        report.records += 1;
        let bad_ap = |e: at_serve::BadAp| JournalError::BadApId {
            seq: record.seq,
            ap_id: e.ap_id,
        };
        match &record.event {
            Event::Submit {
                key,
                ap_id,
                age,
                spectrum,
            } => {
                core.submit(SessionRef::Keyed(*key), *ap_id, *age, spectrum.clone())
                    .map_err(bad_ap)?;
                report.submits += 1;
            }
            Event::Failure { ap_id } => core.failure(*ap_id).map_err(bad_ap)?,
            Event::Tick => core.tick(),
            Event::IdleReap { keys } => core.evict(keys),
            Event::Epoch {
                fingerprint, op, ..
            } => {
                let next = core.prepare(op).map_err(|_| JournalError::Malformed {
                    at: 0,
                    reason: "recorded epoch op does not apply to the current topology",
                })?;
                check_fingerprint(next.fingerprint(), *fingerprint)?;
                core.commit(next);
            }
            Event::Query { key, deadline_ms } => {
                report.queries += 1;
                // Admit unconditionally — the snapshot advances the
                // store's touch sequence exactly like the live server
                // did, even for queries whose outcome is skipped below.
                let query = core.query(SessionRef::Keyed(*key), *deadline_ms);
                let recorded = outcomes.get(&record.seq).copied();
                let Some(recorded) = recorded.filter(|o| comparable(o)) else {
                    report.skipped += 1;
                    continue;
                };
                let replayed = Outcome::of_reply(&core.fuse(&query.obs, &mut scratch));
                report.compare(record.seq, *key, recorded, &replayed);
            }
            Event::Outcome { .. } => {}
        }
    }
    report.finish();
    Ok(report)
}

/// Pacing policy for [`replay_wire`].
#[derive(Clone, Copy, Debug, Default)]
pub enum Pacing {
    /// Fire events back to back, as fast as the server accepts them.
    #[default]
    Unpaced,
    /// Honor recorded inter-event gaps, divided by `speedup` (1.0 =
    /// real-time, 10.0 = ten times faster).
    Recorded {
        /// Time-compression factor; must be finite and positive.
        speedup: f64,
    },
}

/// Options for [`replay_wire`].
#[derive(Clone, Debug, Default)]
pub struct WireOptions {
    /// Event pacing.
    pub pacing: Pacing,
}

fn wire_err(e: ClientError) -> JournalError {
    JournalError::Io(std::io::Error::other(format!("wire replay: {e}")))
}

/// The uplink of AP `ap_id` in the *current* epoch — a post-`Add` submit
/// to a new AP is legal, a post-`Remove` submit to the vanished slot is
/// not.
fn ap_conn(aps: &mut [ApClient], seq: u64, ap_id: u32) -> Result<&mut ApClient, JournalError> {
    aps.get_mut(ap_id as usize)
        .ok_or(JournalError::BadApId { seq, ap_id })
}

/// Replays a journal against a live server at `addr` through real client
/// sessions: one lossless-uplink [`ApClient`] per recorded AP plus one
/// [`AppClient`] for queries.
///
/// Queries are driven without deadlines (a recorded deadline re-imposed
/// on a differently loaded server is pure nondeterminism). Comparable
/// recorded outcomes are checked bit-exactly; a live `Overloaded`/
/// `DeadlineExceeded`/`ShuttingDown` answer to a comparable query counts
/// as a divergence only in the sense that it is reported — transport
/// failures abort with a typed error instead.
pub fn replay_wire(
    journal: &Journal,
    addr: &str,
    service: &ServiceConfig,
    session: SessionPolicy,
    opts: &WireOptions,
) -> Result<ReplayReport, JournalError> {
    check_config(journal, service, session)?;
    let cfg = ClientConfig::default();
    let mut aps = Vec::with_capacity(journal.meta.n_aps as usize);
    for _ in 0..journal.meta.n_aps {
        aps.push(ApClient::connect_with(addr, cfg, Encoding::LosslessDelta).map_err(wire_err)?);
    }
    let mut app = AppClient::connect(addr, cfg).map_err(wire_err)?;
    let outcomes = outcome_index(journal);

    let mut report = ReplayReport {
        truncated_tail: journal.truncated_tail,
        ..ReplayReport::default()
    };
    let mut last_t_us: Option<u64> = None;
    for record in &journal.records {
        report.records += 1;
        if let Pacing::Recorded { speedup } = opts.pacing {
            if speedup.is_finite() && speedup > 0.0 {
                let gap = last_t_us.map_or(0, |t| record.t_us.saturating_sub(t));
                let scaled = (gap as f64 / speedup).min(1e9);
                if scaled >= 1.0 {
                    std::thread::sleep(Duration::from_micros(scaled as u64));
                }
            }
            last_t_us = Some(record.t_us);
        }
        match &record.event {
            Event::Submit {
                key,
                ap_id,
                age,
                spectrum,
            } => {
                report.submits += 1;
                ap_conn(&mut aps, record.seq, *ap_id)?
                    .submit(*key, *ap_id, *age, spectrum)
                    .map_err(wire_err)?;
            }
            Event::Failure { ap_id } => {
                ap_conn(&mut aps, record.seq, *ap_id)?
                    .report_failure(*ap_id)
                    .map_err(wire_err)?;
            }
            // Reaper-driven events cannot be injected over the wire; the
            // server's own reaper owns that clock.
            Event::Tick | Event::IdleReap { .. } | Event::Outcome { .. } => {}
            Event::Epoch {
                fingerprint, op, ..
            } => {
                // The live server is the authority: it refuses an op that
                // no longer applies, and must land on the recorded epoch.
                let info = app.reconfigure(op).map_err(wire_err)?;
                check_fingerprint(info.fingerprint, *fingerprint)?;
                // Mirror the AP-process fleet: the removed AP's uplink
                // goes away, a joining AP dials in fresh.
                match *op {
                    TopologyOp::Remove { ap_id } => {
                        aps.remove(ap_id as usize);
                    }
                    TopologyOp::Add { .. } => {
                        aps.push(
                            ApClient::connect_with(addr, cfg, Encoding::LosslessDelta)
                                .map_err(wire_err)?,
                        );
                    }
                    TopologyOp::Move { .. } => {}
                }
            }
            Event::Query { key, .. } => {
                report.queries += 1;
                let recorded = outcomes.get(&record.seq).copied();
                let Some(recorded) = recorded.filter(|o| comparable(o)) else {
                    report.skipped += 1;
                    continue;
                };
                let replayed = match app.localize(*key, None) {
                    Ok(fix) => Outcome::Fix {
                        x: fix.position.x,
                        y: fix.position.y,
                        likelihood: fix.likelihood,
                    },
                    Err(ClientError::Localize(error)) => Outcome::Failed { error },
                    Err(ClientError::Overloaded { .. }) => Outcome::Overloaded,
                    Err(ClientError::DeadlineExceeded) => Outcome::DeadlineExceeded,
                    Err(ClientError::ShuttingDown) => Outcome::ShuttingDown,
                    // Transport and protocol failures abort the replay.
                    Err(e) => return Err(wire_err(e)),
                };
                report.compare(record.seq, *key, recorded, &replayed);
            }
        }
    }
    report.finish();
    Ok(report)
}
