#!/usr/bin/env bash
# CI entry point: tiered gates with per-stage timing.
#
# Usage: ./ci.sh [--quick] [--stage <name>]
#
#   --quick         format + build + tier-1 tests + at-dsp tests + at-serve
#                   protocol and codec unit tests (the inner-loop subset);
#                   CI proper runs every stage.
#   --stage <name>  run exactly one gate in isolation (any name from the
#                   list below, including the quick-only ones) — the
#                   debug loop for a single red gate.
#
# Stages:
#   fmt          — cargo fmt --check over the whole workspace
#   build        — release build of every crate
#   tier1        — the full test suite (ROADMAP.md's tier-1 bar)
#   dsp          — at-dsp's unit, property and doc tests: the packet
#                  detector (−10 dB detection, false alarms, two frames,
#                  the split-reference overlap-save FFT correlation vs the
#                  direct oracle), the zero-allocation detect proof, the
#                  split-layout FFT kernel vs a naive DFT at every power of
#                  two to 4096, FFT and correlation-matrix properties (root
#                  `cargo test` covers only the facade)
#   core         — the crates' own unit, integration and doc tests that no
#                  other gate runs: at-core (its library tests, including
#                  the one-pass suppression vs per-pair oracle property,
#                  and tests/{engine_parity,kernel_parity,zero_alloc,
#                  proptests}.rs), at-linalg, at-channel, at-frontend,
#                  at-obs, at-testbed and at-bench (perf_report's baseline
#                  parsing and gate logic, and the report helpers)
#   proto        — at-serve wire-protocol unit tests (--quick and --stage)
#   proto-props  — wire-protocol property tests: decoder totality,
#                  bit-exact round trips, version gating
#   codec        — the protocol-v3 spectrum codec: quantize/delta/varint
#                  unit tests plus the codec property tests (decompressor
#                  totality on arbitrary bytes, lossless bit-exactness,
#                  quantization error bounds, compressed-frame version
#                  gating)
#   replay       — the capture-and-replay journal: reader property tests
#                  (totality on arbitrary bytes, truncation at every
#                  offset, bit-flip rejection), the record→replay
#                  end-to-end tier (tests/replay_end_to_end.rs), and
#                  replay_check --smoke, which replays the committed
#                  golden journals (tests/fixtures/replay_office/ and the
#                  epoch-spanning replay_reconfig/) through a fresh
#                  pipeline and fails on any bit divergence from the
#                  recorded fixes (regenerate an intentionally changed
#                  baseline with UPDATE_GOLDEN=1; missing fixtures exit 2)
#   topology     — the topology-epoch machinery: at-config unit tests
#                  (canonical bytes, fingerprints, op application), the
#                  Reconfigure/TopologyInfo property tests (decoder
#                  totality, frame and op round trips, arbitrary op
#                  sequences never panicking config or store), and the
#                  live remove/move/re-add e2e tier under a concurrent
#                  storm (tests/topology.rs: surviving-quorum fixes
#                  bit-exact vs the in-process server, typed refusals
#                  for bad ops / departed ids / cold joiners)
#   robustness   — seeded fault-injection scenarios + golden spectra +
#                  property tests (tests/faults.rs, tests/golden_spectrum.rs;
#                  the scenario seed 4242 is pinned inside the tests so the
#                  tier is bit-reproducible)
#   lint         — clippy -D warnings on every workspace crate, including
#                  at-dsp, at-linalg, and at-obs
#   doc          — rustdoc -D warnings over every workspace crate (broken,
#                  ambiguous, or private intra-doc links fail the build)
#   serve        — the networked location service: wire-protocol unit +
#                  property tests (decoder totality, bit-exact round trips)
#                  and the loopback server tests (parity, shedding,
#                  deadlines checked by the worker before fusion, drain of
#                  localizes queued behind one worker, closed connections
#                  reaped: fds and RSS flat over 2000 sequential
#                  connections, an acceptor out of fds backing off instead
#                  of spinning), then loadgen --smoke — a seconds-scale
#                  sustained/overload/mixed/drain run that fails on
#                  throughput collapse, inert admission control, broken
#                  keyed parity, a resident gauge over the session cap,
#                  dropped in-flight requests, a quantized uplink over the
#                  0.15x byte budget, a median compressed fix ≥ 1 mm from
#                  the raw path, or a lossless replay that is not bit-exact
#                  (full runs refresh BENCH_SERVE.json)
#   serve-sessions — the multi-process ingestion tier: six AP connections +
#                  concurrent app readers (tests/serve_sessions.rs: keyed
#                  parity, idle/cap eviction, silent-AP quorum errors, the
#                  session-store golden fixture), the barrier-driven
#                  store interleaving tests (no torn spectra) and the
#                  model-based store property test (random submit/
#                  snapshot/clear/tick/remap streams vs a plain model:
#                  counts, aged snapshots, eviction order)
#   perfbench    — the repo benchmark's own tests (perfbench/ is a Cargo
#                  package of its own, so no other gate builds it), chief
#                  among them decomposition_is_bit_identical_to_process_frame:
#                  the traced per-layer decomposition must stay
#                  bit-identical to process_frame
#   bench-smoke  — perf_report --smoke: the observed per-stage latency
#                  budget (detect/spectrum/fusion, from the at-obs metrics
#                  the instrumented pipeline records) must stay within 3x of
#                  the committed BENCH_PERF.json baseline; then the gate's
#                  self-test: the same run with AT_SMOKE_INJECT_MS=50 must
#                  fail
set -euo pipefail
cd "$(dirname "$0")"

# The single source of truth for stage names: usage, the unknown-stage
# error, and tests/ci_sh.rs all key off this list (run_stage's dispatch
# must cover exactly these names).
STAGES=(fmt build tier1 dsp core proto proto-props codec replay topology robustness serve serve-sessions lint doc perfbench bench-smoke)

usage() {
    echo "usage: ./ci.sh [--quick] [--stage <name>]" >&2
    echo "valid stages: ${STAGES[*]}" >&2
}

QUICK=0
ONLY=""
while [[ $# -gt 0 ]]; do
    case "$1" in
    --quick) QUICK=1 ;;
    --stage)
        shift
        if [[ $# -eq 0 ]]; then
            usage
            exit 2
        fi
        ONLY="$1"
        ;;
    *)
        usage
        exit 2
        ;;
    esac
    shift
done

STAGE_NAMES=()
STAGE_SECS=()

# stage <name> <command...> — run one gate, timed; any failure aborts.
stage() {
    local name="$1"
    shift
    echo "== [$name] $* =="
    local t0 t1
    t0=$SECONDS
    "$@"
    t1=$SECONDS
    STAGE_NAMES+=("$name")
    STAGE_SECS+=("$((t1 - t0))")
}

robustness() {
    cargo test -q --test faults
    cargo test -q --test golden_spectrum
    cargo test -q -p at-core --test proptests
}

codec_gate() {
    cargo test -q -p at-serve --lib codec::
    cargo test -q -p at-serve --test codec_proptests
}

replay_gate() {
    cargo test -q -p at-replay --test journal_proptests
    cargo test -q --test replay_end_to_end
    cargo run --release -q -p at-bench --bin replay_check -- --smoke
}

topology_gate() {
    cargo test -q -p at-config
    cargo test -q -p at-serve --test topology_proptests
    cargo test -q --test topology
}

serve() {
    cargo test -q -p at-serve
    cargo run --release -q -p at-bench --bin loadgen -- --smoke
}

serve_sessions() {
    cargo test -q --test serve_sessions
    cargo test -q -p at-serve --test store_interleave
    cargo test -q -p at-serve --test store_model
}

lint() {
    # Whole workspace except the vendored registry stand-ins (vendor/*),
    # which mirror upstream APIs verbatim and are not held to our lints.
    cargo clippy -q --workspace --exclude rand --exclude proptest \
        --all-targets -- -D warnings
}

bench_smoke() {
    cargo run --release -q -p at-bench --bin perf_report -- --smoke
    # Prove the gate bites: a 50 ms regression injected into every stage
    # must fail it.
    echo "-- self-test: the injected regression below must fail the gate --"
    if AT_SMOKE_INJECT_MS=50 cargo run --release -q -p at-bench --bin perf_report -- --smoke; then
        echo "ci.sh: smoke gate passed despite an injected regression" >&2
        return 1
    fi
}

doc() {
    # Same exclusions as lint: the vendored stand-ins are not our docs.
    RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace \
        --exclude rand --exclude proptest
}

# run_stage <name> — dispatch one gate by its public name.
run_stage() {
    case "$1" in
    fmt) stage fmt cargo fmt --all --check ;;
    build) stage build cargo build --release ;;
    tier1) stage tier1 cargo test -q ;;
    dsp) stage dsp cargo test -q -p at-dsp ;;
    core) stage core cargo test -q -p at-core -p at-linalg -p at-channel -p at-frontend -p at-obs -p at-testbed -p at-bench ;;
    proto) stage proto cargo test -q -p at-serve --lib ;;
    proto-props) stage proto-props cargo test -q -p at-serve --test proto_proptests ;;
    codec) stage codec codec_gate ;;
    replay) stage replay replay_gate ;;
    topology) stage topology topology_gate ;;
    robustness) stage robustness robustness ;;
    serve) stage serve serve ;;
    serve-sessions) stage serve-sessions serve_sessions ;;
    lint) stage lint lint ;;
    doc) stage doc doc ;;
    perfbench) stage perfbench cargo test -q --release --offline --manifest-path perfbench/Cargo.toml ;;
    bench-smoke) stage bench-smoke bench_smoke ;;
    *)
        echo "ci.sh: unknown stage '$1'" >&2
        usage
        exit 2
        ;;
    esac
}

if [[ -n $ONLY ]]; then
    run_stage "$ONLY"
elif [[ $QUICK -eq 1 ]]; then
    run_stage fmt
    run_stage build
    run_stage tier1
    # The packet detector sits on every frame's path and tier-1 only
    # reaches it through the facade; its own tests take seconds.
    run_stage dsp
    # The wire protocol and its codec are the one subsystem whose bugs
    # tier-1 cannot see (the facade tests drive them through a healthy
    # path only), so their unit + property tests ride in the inner loop
    # too. Cheap: no server sockets, just encode/decode — including the
    # keyed-frame and compressed-frame version-gating properties.
    run_stage proto
    run_stage proto-props
    run_stage codec
    # Bit-exact replay of the committed golden journal rides in the inner
    # loop too: it is the one gate that notices a *numerical* behavior
    # change anywhere in the MUSIC/fusion/session path, and tier-1 just
    # ran the builds it needs.
    run_stage replay
    # Topology epochs reconfigure a *live* server; the gate is cheap
    # (synthetic spectra, loopback) and the epoch/fingerprint machinery
    # cross-cuts config, store, wire, and replay — inner loop material.
    run_stage topology
else
    run_stage fmt
    run_stage build
    run_stage tier1
    run_stage dsp
    run_stage core
    run_stage codec
    run_stage replay
    run_stage topology
    run_stage robustness
    run_stage serve
    run_stage serve-sessions
    run_stage lint
    run_stage doc
    run_stage perfbench
    run_stage bench-smoke
fi

echo
echo "ci.sh: all gates passed$([[ $QUICK -eq 1 ]] && echo ' (--quick subset)')$([[ -n $ONLY ]] && echo " (--stage $ONLY)")"
for i in "${!STAGE_NAMES[@]}"; do
    printf '  %-14s %4ss\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
done
