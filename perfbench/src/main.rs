//! `perfbench` — the repository benchmark of the ArrayTrack location
//! service, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest-query|ap-frames> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs come from `Deployment::office(seed)`: 41 clients x 6 APs, each
//! pair captured as a 3-frame group (plus a raw detector window per frame).
//! Every workload runs the AP frame path over the groups — raw samples in,
//! spectrum out — so the frame metrics exist everywhere: for three seconds
//! before the server starts, or as the timed phase of `ap-frames`. Served
//! keys each hold one client's spectra from one subset of at least four
//! APs (`serving::Combo`), 902 keys in all. Then:
//!
//! - `ingest-query`: a closed loop on two connections. An `ApClient` on
//!   the quantized uplink fills a 256-key rotating set into a 64-session
//!   resident cap, so cap eviction runs; an `AppClient` queries only keys
//!   fully submitted within the most recent half-cap, so every query must
//!   fix. Store writes sit beside reads, and codec decompress beside
//!   fusion, under CPU contention.
//! - `ap-frames`: in-process, one thread, no server: the frame path for
//!   half of `--seconds`, cycling over the groups. For the other half, a
//!   served epilogue, for the accuracy and wire metrics, serves the
//!   resulting spectra with the two `ingest-query` loops. (A single load
//!   thread alternating submit and fix left the cores idle between
//!   requests, so its RTTs followed the host's wake-up latency: 10-seed
//!   spreads of 0.3 to 0.8 of the median on a 2-vCPU host.)
//!
//! Every wire fix is checked bit-for-bit against the in-process
//! `ArrayTrackServer::try_localize` oracle, every acknowledgement's
//! resident count and every detection offset exactly; each mismatch
//! counts as a failed operation.
//!
//! The submit RTT is reported as a mean, not a median: under the
//! `ingest-query` contention its samples fall into two modes (about 35
//! and 50 us on a 2-vCPU host) whose shares follow the scheduler's thread
//! placement, so its median jumps between the modes from run to run while
//! its mean moves only with their shares.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` splits each
//! timed phase into an untraced and a traced half and prints the per-layer
//! metrics: spans recorded around the benchmark's own calls into each
//! layer's public functions, with every wire request repeated in-process
//! through those layers (see `serving`), written to
//! `perfbench/out/<workload>.trace.jsonl`.
//!
//! Set-up (`setup_s`) is server spawn and engine build, store prefill and
//! a warm-up of one checked fix per prefilled key (for `ap-frames`: the
//! frame path's construction and a warm-up over its first groups); the
//! channel simulation that generates inputs is excluded. The engine's
//! per-AP grids and the steering tables are cached process-wide, so only
//! the first build in a process is cold: the first part of set-up (server
//! spawn; frame path construction and its first group) is timed once,
//! cold, before anything else builds them, and the rest is set up five
//! times, its median added. Untimed after set-up, more checked fixes let
//! the server's adaptive batch window settle.

mod ap;
mod inputs;
mod layers;
mod process;
mod report;
mod serving;
mod stats;
mod trace;

use ap::{ApPath, FrameLog};
use at_core::{AoaSpectrum, LocationEstimate};
use at_serve::codec::{self, CompressedMode};
use at_serve::{ApClient, AppClient, Encoding, ServerHandle};
use inputs::Inputs;
use report::Report;
use serving::{Combo, Replica, ReplicaScratch, Tally};
use stats::{median, sliced_mean, sliced_percentile, sliced_rate};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static ALLOCATOR: process::Counting = process::Counting;

/// Set-ups per run; `setup_s` adds their median to the cold first part.
const SETUP_REPEATS: usize = 5;
/// Checked, untimed localizes after set-up: more than eight periods (of
/// 32 batches) of the server's adaptive batch controller, so the timed
/// phase starts with the coalescing window settled.
const SETTLE_FIXES: u64 = 300;
/// Serving workloads: resident cap in sessions of (at most) six spectra.
const INGEST_CAP_SESSIONS: u64 = 64;
/// Serving workloads: the rotating key set, four times the cap, so a session
/// the app touched is always evicted before the writer reuses its key.
const INGEST_KEYS: u64 = 4 * INGEST_CAP_SESSIONS;
/// `ingest-query`: how long the frame path runs before the server starts,
/// for the frame metrics.
const PREPASS_SECONDS: f64 = 3.0;
/// `ap-frames`: groups run as set-up warm-up.
const WARM_GROUPS: usize = 24;

const WORKLOADS: &[&str] = &["ingest-query", "ap-frames"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((ctx, line)) => {
            println!("{ctx}");
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(String, String), String> {
    let nproc = process::nproc();
    let t_inputs = Instant::now();
    let inputs = Inputs::generate(args.seed, nproc);
    let inputs_s = t_inputs.elapsed().as_secs_f64();

    let origin = Instant::now();
    let mut b = Bench {
        args,
        inputs: &inputs,
        combos: serving::combos(&inputs),
        report: Report::default(),
        tr: Tracer::new(args.trace, origin),
        origin,
        request: 0,
        setup_cold_s: 0.0,
        setup_rest_s: Vec::new(),
        counters: layers::Counters::default(),
    };
    b.report.context("workload", &args.workload);
    b.report.context("seed", args.seed);
    b.report.context("seconds", args.seconds);
    b.report.context("trace", args.trace);
    b.report.context("nproc", nproc);
    b.report.context("keys", b.combos.len());
    b.report.context("inputs_s", inputs_s);
    match args.workload.as_str() {
        "ingest-query" => b.ingest_query()?,
        _ => b.ap_frames()?,
    }
    b.finish()
}

/// The state of one benchmark run.
struct Bench<'a> {
    args: &'a Args,
    inputs: &'a Inputs,
    /// What served key `k` holds: `combos[k % combos.len()]`.
    combos: Vec<Combo>,
    report: Report,
    /// The main thread's tracer (records only with `--trace 1`).
    tr: Tracer,
    /// Clock origin shared by every tracer of the run.
    origin: Instant,
    /// Request-id counter of the main thread.
    request: u64,
    /// The part of set-up that builds the process-wide caches, timed once.
    setup_cold_s: f64,
    /// The rest of set-up, once per repeat.
    setup_rest_s: Vec<f64>,
    counters: layers::Counters,
}

/// The frame path's products for every group, in group order.
struct ApOutput {
    spectra: Vec<AoaSpectrum>,
    blobs: Vec<Vec<u8>>,
}

/// One timed serving segment.
struct Segment {
    tally: Tally,
    /// When the segment started.
    start: Instant,
    allocs: u64,
    fixes: u64,
    batches: u64,
}

/// A served store after set-up, with its clients and its oracle.
struct Served {
    server: ServerHandle,
    ap: ApClient,
    app: AppClient,
    oracle: Vec<LocationEstimate>,
}

impl Bench<'_> {
    fn off(&self) -> Tracer {
        Tracer::new(false, self.origin)
    }

    /// The main tracer when `traced`, lent out for a loop that also needs
    /// `&mut self`; hand it back with [`Bench::give_back`].
    fn lend(&mut self, traced: bool) -> Tracer {
        if traced {
            let off = self.off();
            std::mem::replace(&mut self.tr, off)
        } else {
            self.off()
        }
    }

    fn give_back(&mut self, tr: Tracer, traced: bool) {
        if traced {
            self.tr = tr;
        }
    }

    /// The serving workloads' AP side: the frame path over every group,
    /// cyclically for `PREPASS_SECONDS` (and at least one lap), traced
    /// when the run is. Its first lap's spectra are what the APs submit.
    fn ap_prepass(&mut self) -> Vec<AoaSpectrum> {
        let traced = self.args.trace;
        let (log, start, first, _) = self.frame_loop(&ApPath::new(), PREPASS_SECONDS, traced, None);
        self.report.frames(&log);
        self.frame_metrics(&log, start);
        self.verify_blobs(&first);
        first.spectra
    }

    /// Every compressed blob must decompress to exactly the quantized
    /// spectrum (`codec::quantized`), the uplink's reference.
    fn verify_blobs(&mut self, out: &ApOutput) {
        for (i, (s, blob)) in out.spectra.iter().zip(&out.blobs).enumerate() {
            self.request += 1;
            let decoded = self
                .tr
                .span("serve.codec.decompress", None, self.request, || {
                    codec::decompress(blob)
                });
            match decoded {
                Ok((CompressedMode::Quantized, q)) if q == codec::quantized(s) => {}
                other => self.report.mismatch(format!(
                    "group {i}: blob decodes to {:?}, not the quantized spectrum",
                    other.map(|(m, _)| m)
                )),
            }
        }
    }

    fn frame_metrics(&mut self, log: &FrameLog, start: Instant) {
        self.counters.detect_misses += log.failed();
        self.counters.codec_bytes_per_spectrum = log.blob_bytes as f64 / log.groups.max(1) as f64;
        if !self.args.trace {
            let f = &log.frame_ms;
            self.report
                .metric("frame_ms_p50", sliced_percentile(f, 50.0), "ms");
            self.report
                .metric("frame_ms_p95", sliced_percentile(f, 95.0), "ms");
            self.report
                .metric("frames_per_s", sliced_rate(&log.frame_at, start), "1/s");
        }
    }

    /// `count` checked localizes round-robin over keys `0..n_keys`,
    /// untimed.
    fn warm_up(
        &self,
        app: &mut AppClient,
        n_keys: u64,
        count: u64,
        oracle: &[LocationEstimate],
    ) -> Tally {
        let mut t = Tally::default();
        let mut off = self.off();
        for i in 0..count {
            let key = i % n_keys;
            let slot = key as usize % self.combos.len();
            let (r, ms) = serving::timed_fix(app, key, Instant::now(), &mut off, 0);
            t.fix(r, ms, slot, &oracle[slot]);
        }
        t.fix_ms.clear();
        t.fix_at.clear();
        t.last_fix.clear();
        t
    }

    /// The in-process fix of every combo from the quantized spectra the
    /// server stores.
    fn quantized_oracle(&self, raw: &[AoaSpectrum]) -> Result<Vec<LocationEstimate>, String> {
        let served: Vec<AoaSpectrum> = raw.iter().map(codec::quantized).collect();
        serving::oracle_fixes(self.inputs, &served, &self.combos)
    }

    /// Fills a fresh server: the first half-cap of keys submitted on the
    /// quantized uplink, then one checked localize of each. Key
    /// `seq % INGEST_KEYS` holds combo `seq % combos.len()`; the first free
    /// sequence number is half the cap.
    fn fill(
        &mut self,
        server: &ServerHandle,
        raw: &[AoaSpectrum],
        oracle: &[LocationEstimate],
    ) -> Result<(ApClient, AppClient), String> {
        let half = INGEST_CAP_SESSIONS / 2;
        let mut ap = serving::connect_ap(server, Encoding::Quantized)?;
        let mut tally = Tally::default();
        let mut off = self.off();
        for key in 0..half {
            let combo = &self.combos[key as usize % self.combos.len()];
            let n_aps = self.inputs.n_aps();
            serving::submit_combo(
                raw,
                n_aps,
                combo,
                key,
                &mut ap,
                None,
                &mut ReplicaScratch::default(),
                &mut off,
                &mut self.request,
                &mut tally,
            );
        }
        let mut app = serving::connect_app(server)?;
        tally.merge(self.warm_up(&mut app, half, half, oracle));
        self.report.tally(&tally);
        Ok((ap, app))
    }

    /// A served store of the frame path's `raw` spectra, filled and
    /// settled. With `timed`, its set-up is the run's: the first spawn is
    /// timed alone, before the oracle builds any engine, and the fill is
    /// repeated `SETUP_REPEATS` times on fresh servers, each timed.
    fn serve(&mut self, raw: &[AoaSpectrum], timed: bool) -> Result<Served, String> {
        let cap = INGEST_CAP_SESSIONS as usize * self.inputs.n_aps();
        let t0 = Instant::now();
        let mut cold = Some(serving::spawn_server(self.inputs, cap)?);
        let cold_s = t0.elapsed().as_secs_f64();
        let oracle = self.quantized_oracle(raw)?;
        let repeats = if timed { SETUP_REPEATS } else { 1 };
        let mut kept = None;
        for _ in 0..repeats {
            drop(kept.take());
            let server = match cold.take() {
                Some(s) => s,
                None => serving::spawn_server(self.inputs, cap)?,
            };
            let t0 = Instant::now();
            let (ap, app) = self.fill(&server, raw, &oracle)?;
            if timed {
                self.setup_rest_s.push(t0.elapsed().as_secs_f64());
            }
            kept = Some((server, ap, app));
        }
        if timed {
            self.setup_cold_s = cold_s;
        }
        let (server, ap, mut app) = kept.expect("at least one set-up");
        let half = INGEST_CAP_SESSIONS / 2;
        let settle = self.warm_up(&mut app, half, SETTLE_FIXES, &oracle);
        self.report.tally(&settle);
        Ok(Served {
            server,
            ap,
            app,
            oracle,
        })
    }

    /// Wire-side end-to-end metrics of a serving phase, and the server
    /// counters the traced run reports.
    fn serving_metrics(&mut self, seg: &Segment, server: &ServerHandle) -> Result<(), String> {
        let s = server.stats();
        self.counters.cap_evictions = s.sessions_evicted_cap;
        self.counters.shed = s.shed;
        self.counters.resident_max = self.counters.resident_max.max(s.spectra_resident);
        if self.args.trace {
            return Ok(());
        }
        let t = &seg.tally;
        if t.fix_ms.is_empty() || t.submit_ms.is_empty() {
            return Err(format!(
                "no successful fix or submit to measure ({:?})",
                t.first_error
            ));
        }
        let (f, u) = (&t.fix_ms, &t.submit_ms);
        self.report
            .metric("fix_rtt_ms_p50", sliced_percentile(f, 50.0), "ms");
        self.report
            .metric("fix_rtt_ms_p95", sliced_percentile(f, 95.0), "ms");
        self.report
            .metric("fixes_per_s", sliced_rate(&t.fix_at, seg.start), "1/s");
        self.report
            .metric("submit_rtt_ms_mean", sliced_mean(u), "ms");
        self.report
            .metric("submit_rtt_ms_p95", sliced_percentile(u, 95.0), "ms");
        self.report
            .metric("submits_per_s", sliced_rate(&t.submit_at, seg.start), "1/s");
        let errors: Vec<f64> = t
            .last_fix
            .iter()
            .enumerate()
            .filter_map(|(slot, f)| {
                let truth = self.inputs.truth[self.combos[slot].client];
                f.map(|f| f.position.distance(truth))
            })
            .collect();
        if errors.is_empty() {
            return Err("no key was fixed".into());
        }
        self.report.metric("fix_error_m_p50", median(&errors), "m");
        let bytes = s.uplink_raw_bytes + s.uplink_compressed_bytes;
        let frames = s.submits_raw + s.submits_compressed;
        self.report.metric(
            "uplink_bytes_per_spectrum",
            bytes as f64 / frames.max(1) as f64,
            "B",
        );
        Ok(())
    }

    /// Per-layer counters of a serving phase from its untraced half, and
    /// the traced half's operations.
    fn traced_halves(&mut self, plain: &Segment, traced: &Segment) {
        self.counters.allocs_per_fix = plain.allocs as f64 / plain.fixes.max(1) as f64;
        self.counters.fixes = plain.fixes;
        self.counters.batches = plain.batches;
        self.report.tally(&traced.tally);
    }

    fn finish(mut self) -> Result<(String, String), String> {
        if self.args.trace {
            let spans = self.tr.spans().to_vec();
            layers::report(&mut self.report, &spans, &self.counters)?;
            let path = std::path::PathBuf::from(format!(
                "perfbench/out/{}.trace.jsonl",
                self.args.workload
            ));
            self.tr
                .write_jsonl(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            self.report.context("trace_file", path.display());
            self.report.context("spans", spans.len());
        } else {
            let ok = 1.0 - self.report.failed as f64 / self.report.attempted.max(1) as f64;
            self.report.metric("ops_ok_ratio", ok, "ratio");
            let setup_s = self.setup_cold_s + median(&self.setup_rest_s);
            self.report.metric("setup_s", setup_s, "s");
            self.report
                .metric("peak_rss_mb", process::peak_rss_mb()?, "MB");
            self.report.context("setup_cold_s", self.setup_cold_s);
        }
        self.report.render()
    }

    // ------------------------------------------------------------------
    // ingest-query
    // ------------------------------------------------------------------

    fn ingest_query(&mut self) -> Result<(), String> {
        process::check_load(2, 2, process::nproc())?;
        let raw = self.ap_prepass();
        let mut s = self.serve(&raw, true)?;
        if let Some((plain, traced)) = self.ingest_phase(&mut s, &raw, self.args.seconds)? {
            self.counters.allocs_per_op = plain.allocs as f64 / plain.tally.attempted.max(1) as f64;
            if !plain.tally.fix_ms.is_empty() && !traced.tally.fix_ms.is_empty() {
                self.counters.trace_overhead =
                    median(&traced.tally.fix_ms) / median(&plain.tally.fix_ms);
            }
        }
        Ok(())
    }

    /// Both loops of [`Bench::ingest_segment`] over a served store for
    /// `seconds` (with `--trace 1`, an untraced half and then a traced
    /// half), and their metrics. Returns a traced run's two halves.
    fn ingest_phase(
        &mut self,
        s: &mut Served,
        raw: &[AoaSpectrum],
        seconds: f64,
    ) -> Result<Option<(Segment, Segment)>, String> {
        let done = AtomicU64::new(INGEST_CAP_SESSIONS / 2);
        let (seg, traced) = if self.args.trace {
            let plain = self.ingest_segment(s, raw, &done, None, seconds / 2.0);
            // A fresh replica: the untraced half's submits were not
            // replayed, so the traced half queries only keys it wrote.
            let cap = INGEST_CAP_SESSIONS as usize * self.inputs.n_aps();
            let fresh = Replica::new(self.inputs, cap);
            let traced = self.ingest_segment(s, raw, &done, Some(&fresh), seconds / 2.0);
            self.traced_halves(&plain, &traced);
            (plain, Some(traced))
        } else {
            (self.ingest_segment(s, raw, &done, None, seconds), None)
        };
        self.report.tally(&seg.tally);
        self.report.context("raced_queries", seg.tally.raced);
        self.serving_metrics(&seg, &s.server)?;
        Ok(traced.map(|t| (seg, t)))
    }

    /// Both closed loops for `seconds`: the AP thread walks the rotating
    /// key set, publishing each fully submitted key in `done`; the app
    /// thread queries the most recent half-cap of published keys (with a
    /// replica, only keys published in this segment).
    fn ingest_segment(
        &mut self,
        s: &mut Served,
        raw: &[AoaSpectrum],
        done: &AtomicU64,
        replica: Option<&Replica>,
        seconds: f64,
    ) -> Segment {
        let traced = replica.is_some();
        let n_aps = self.inputs.n_aps();
        let combos = &self.combos;
        let n_combos = combos.len() as u64;
        let half = INGEST_CAP_SESSIONS / 2;
        let first_seq = if traced {
            done.load(Ordering::Acquire)
        } else {
            0
        };
        let Served {
            server,
            ap,
            app,
            oracle,
        } = s;
        let (server, oracle) = (&*server, &*oracle);
        let fixes0 = server.stats().fixes;
        let (allocs0, batches0) = (process::allocations(), serving::serve_batches());
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let mut ap_tr = Tracer::new(traced, self.origin);
        let mut app_tr = Tracer::new(traced, self.origin);
        let base = self.request;
        // The sequence number the app thread has in flight (`u64::MAX`:
        // none). The writer never reuses that key while it is queried, so
        // a stalled query cannot touch a session the writer is refilling.
        let querying = AtomicU64::new(u64::MAX);
        let (ap_tally, resident_max, app_tally) = std::thread::scope(|sc| {
            let writer = sc.spawn(|| {
                let mut tally = Tally::default();
                let mut ws = ReplicaScratch::default();
                let mut resident_max = 0;
                let mut req = base + (1 << 40);
                while Instant::now() < end {
                    let seq = done.load(Ordering::SeqCst);
                    loop {
                        let q = querying.load(Ordering::SeqCst);
                        if q >= seq || q % INGEST_KEYS != seq % INGEST_KEYS {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    let combo = &combos[(seq % n_combos) as usize];
                    serving::submit_combo(
                        raw,
                        n_aps,
                        combo,
                        seq % INGEST_KEYS,
                        ap,
                        replica,
                        &mut ws,
                        &mut ap_tr,
                        &mut req,
                        &mut tally,
                    );
                    done.store(seq + 1, Ordering::SeqCst);
                    if traced {
                        resident_max = resident_max.max(server.stats().spectra_resident);
                    }
                }
                (tally, resident_max)
            });
            let mut tally = Tally::default();
            let mut ws = ReplicaScratch::default();
            let mut req = base + (2 << 40);
            let mut j = 0u64;
            while Instant::now() < end {
                let latest = done.load(Ordering::Acquire);
                let eligible = (latest - first_seq).min(half);
                if eligible == 0 {
                    std::thread::yield_now();
                    continue;
                }
                let seq = latest - 1 - j % eligible;
                let (key, slot) = (seq % INGEST_KEYS, (seq % n_combos) as usize);
                req += 1;
                j += 1;
                // Publish the query, then re-check: either the writer sees
                // it before reusing the key, or this thread sees the writer
                // has moved on and skips the key.
                querying.store(seq, Ordering::SeqCst);
                if done.load(Ordering::SeqCst) - seq > INGEST_CAP_SESSIONS {
                    querying.store(u64::MAX, Ordering::SeqCst);
                    tally.raced += 1;
                    continue;
                }
                let (r, ms) = serving::timed_fix(app, key, Instant::now(), &mut app_tr, req);
                let replayed = replica.map(|rep| rep.fix(key, &mut app_tr, req, &mut ws));
                querying.store(u64::MAX, Ordering::SeqCst);
                // A query stalled long enough for the writer to pass a
                // whole cap of keys may have met an evicted or rewritten
                // session: its reply proves nothing either way.
                if done.load(Ordering::Acquire) - seq > INGEST_CAP_SESSIONS {
                    tally.raced += 1;
                    continue;
                }
                tally.fix(r, ms, slot, &oracle[slot]);
                if let Some(res) = replayed {
                    tally.check(res.map(|f| serving::same_fix(&f, &oracle[slot])));
                }
            }
            let (ap_tally, resident_max) = writer.join().expect("AP thread panicked");
            (ap_tally, resident_max, tally)
        });
        self.request = base + (3 << 40);
        self.tr.absorb(ap_tr);
        self.tr.absorb(app_tr);
        self.counters.resident_max = self.counters.resident_max.max(resident_max);
        let mut seg = Segment {
            tally: app_tally,
            start,
            allocs: process::allocations() - allocs0,
            fixes: server.stats().fixes - fixes0,
            batches: serving::serve_batches() - batches0,
        };
        seg.tally.merge(ap_tally);
        seg
    }

    // ------------------------------------------------------------------
    // ap-frames
    // ------------------------------------------------------------------

    fn ap_frames(&mut self) -> Result<(), String> {
        process::check_load(2, 2, process::nproc())?;
        let groups = &self.inputs.groups;
        let warm = &groups[..WARM_GROUPS.min(groups.len())];
        let mut path = None;
        for rep in 0..SETUP_REPEATS {
            drop(path.take());
            let t0 = Instant::now();
            let p = ApPath::new();
            let mut log = FrameLog::default();
            p.run_group(&warm[0], &mut self.off(), 0, &mut log, &mut Vec::new());
            let t1 = Instant::now();
            for g in &warm[1..] {
                p.run_group(g, &mut self.off(), 0, &mut log, &mut Vec::new());
            }
            if rep == 0 {
                self.setup_cold_s = (t1 - t0).as_secs_f64();
            }
            self.setup_rest_s.push(t1.elapsed().as_secs_f64());
            self.report.frames(&log);
            path = Some(p);
        }
        let path = path.expect("at least one set-up");

        let secs = self.args.seconds / 2.0;
        let (log, start, first, allocs) = if self.args.trace {
            let plain = self.frame_loop(&path, secs / 2.0, false, None);
            let (traced, ..) = self.frame_loop(&path, secs / 2.0, true, Some(&plain.2));
            self.counters.trace_overhead = median(&traced.frame_ms) / median(&plain.0.frame_ms);
            self.counters.detect_misses += traced.failed();
            self.report.frames(&traced);
            plain
        } else {
            self.frame_loop(&path, secs, false, None)
        };
        self.counters.allocs_per_op = allocs as f64 / log.frames().max(1) as f64;
        self.report.frames(&log);
        self.frame_metrics(&log, start);
        self.verify_blobs(&first);
        // The frames' spectra, served by the `ingest-query` loops for the
        // wire and accuracy metrics.
        let mut s = self.serve(&first.spectra, false)?;
        self.ingest_phase(&mut s, &first.spectra, secs).map(drop)
    }

    /// Runs the frame path over the groups, cyclically, for `seconds` (and
    /// at least one full lap). Returns the log, its start, the first
    /// lap's products, and the process allocations made; later laps must
    /// reproduce the first lap's blobs byte for byte (`expect`, when
    /// given, is an earlier loop's first lap).
    fn frame_loop(
        &mut self,
        path: &ApPath,
        seconds: f64,
        traced: bool,
        expect: Option<&ApOutput>,
    ) -> (FrameLog, Instant, ApOutput, u64) {
        let mut tr = self.lend(traced);
        let groups = &self.inputs.groups;
        let mut log = FrameLog::default();
        let mut first = ApOutput {
            spectra: Vec::with_capacity(groups.len()),
            blobs: Vec::with_capacity(groups.len()),
        };
        let mut blob = Vec::new();
        let mut mismatched = 0u64;
        let allocs0 = process::allocations();
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let mut lap = 0usize;
        'laps: loop {
            for (gi, g) in groups.iter().enumerate() {
                let s = path.run_group(g, &mut tr, self.request, &mut log, &mut blob);
                self.request += g.frames.len() as u64;
                match expect.or((lap > 0).then_some(&first)) {
                    Some(r) if r.blobs[gi] != blob => mismatched += 1,
                    Some(_) => {}
                    None => {
                        first.spectra.push(s);
                        first.blobs.push(blob.clone());
                    }
                }
                if lap > 0 && Instant::now() >= end {
                    break 'laps;
                }
            }
            lap += 1;
            if Instant::now() >= end {
                break;
            }
        }
        let allocs = process::allocations() - allocs0;
        for _ in 0..mismatched {
            self.report
                .mismatch("a later lap compressed a group differently".into());
        }
        self.give_back(tr, traced);
        (log, start, first, allocs)
    }
}
