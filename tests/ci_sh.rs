//! Smoke checks for the CI driver itself: `./ci.sh --stage <name>` with
//! an unknown name must fail fast and tell the operator what the valid
//! stage names are (instead of a bare usage line they have to go read
//! the script to decode).

use std::path::Path;
use std::process::Command;

fn ci_sh() -> Command {
    let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("ci.sh");
    let mut cmd = Command::new("bash");
    cmd.arg(script);
    cmd
}

#[test]
fn unknown_stage_exits_2_and_lists_the_valid_stage_names() {
    let out = ci_sh()
        .args(["--stage", "no-such-stage"])
        .output()
        .expect("run ci.sh");
    assert_eq!(out.status.code(), Some(2), "unknown stage must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown stage 'no-such-stage'"),
        "stderr must name the bad stage: {stderr}"
    );
    assert!(
        stderr.contains("valid stages:"),
        "stderr must list valid stages: {stderr}"
    );
    // Spot-check the list is the real one, not a stale hardcoded copy:
    // every stage the dispatch knows must be present.
    for stage in [
        "fmt",
        "build",
        "tier1",
        "dsp",
        "core",
        "proto",
        "proto-props",
        "codec",
        "replay",
        "topology",
        "robustness",
        "serve",
        "serve-sessions",
        "lint",
        "doc",
        "perfbench",
        "bench-smoke",
    ] {
        assert!(stderr.contains(stage), "stage '{stage}' missing: {stderr}");
    }
}

#[test]
fn missing_stage_argument_exits_2_with_usage() {
    let out = ci_sh().arg("--stage").output().expect("run ci.sh");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage:"),
        "stderr must show usage: {stderr}"
    );
    assert!(stderr.contains("valid stages:"));
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    let out = ci_sh().arg("--bogus").output().expect("run ci.sh");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
