//! Exit codes of the binaries' strict argument parsing, checked on the real
//! `fig9`, `noc_contention` and `coherence_check` executables: `--help`
//! exits 0 with the usage text on stdout, and malformed input exits 2 with
//! the usage text on stderr instead of running on defaults, on a silently
//! clamped value or on an empty selection.

use std::process::{Command, Output};

fn fig9(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig9"))
        .args(args)
        .output()
        .expect("fig9 starts")
}

fn noc_contention(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_noc_contention"))
        .args(args)
        .output()
        .expect("noc_contention starts")
}

fn coherence_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_coherence_check"))
        .args(args)
        .output()
        .expect("coherence_check starts")
}

#[test]
fn help_exits_zero_with_usage() {
    let out = fig9(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

#[test]
fn malformed_input_exits_two_with_usage() {
    for args in [
        &["--bogus"][..],
        &["--epoch-cycles", "1"][..],
        &["--cores", "abc"][..],
        &["--benchmarks", "XX"][..],
    ] {
        let out = fig9(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    // There is one scheduler, so the engine selector is an unknown flag.
    let out = fig9(&["--engine", "interleaved"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown argument '--engine'"), "{stderr}");
}

#[test]
fn noc_contention_help_exits_zero_on_stdout() {
    let out = noc_contention(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: noc_contention"), "{stdout}");
    assert!(out.stderr.is_empty());
}

#[test]
fn noc_contention_malformed_input_exits_two_with_usage() {
    for args in [
        &["--rates", "1.5"][..],
        &["--rates", "0.1,0"][..],
        &["--rates", "-0.2"][..],
        &["--rates", "NaN"][..],
        &["--rates", "inf"][..],
        &["--duration", "0"][..],
        &["--meshes", "0"][..],
        &["--duration", "abc"][..],
        &["--bogus"][..],
    ] {
        let out = noc_contention(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: noc_contention"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not run the sweep");
    }
}

#[test]
fn noc_contention_accepts_the_full_rate_range() {
    let out = noc_contention(&[
        "--meshes",
        "4",
        "--rates",
        "1",
        "--duration",
        "50",
        "--quiet",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("noc_contention: 2 points"), "{stdout}");
}

#[test]
fn coherence_check_help_exits_zero_on_stdout() {
    let out = coherence_check(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: coherence_check"), "{stdout}");
    assert!(out.stderr.is_empty());
}

/// Malformed input exits 2, never 1: exit 1 means a caught divergence, so a
/// typo must not look like one.  An empty axis list or a selection with no
/// point exits 2 too, so the conformance check cannot pass after checking
/// nothing.
#[test]
fn coherence_check_malformed_input_exits_two_with_usage() {
    for args in [
        &["--cores", "abc"][..],
        &["--cores", "1"][..],
        &["--cores", "0", "--fuzz-only"][..],
        &["--seeds", "-1"][..],
        &["--machines", ""][..],
        &["--machines", "quantum"][..],
        &["--noc-models", ","][..],
        &["--protocols", ""][..],
        &["--protocols", "moesi"][..],
        &["--fault", "typo"][..],
        &["--jobs"][..],
        &["--bogus"][..],
        &["--litmus-only", "--fuzz-only"][..],
        &["--machines", "cache-only", "--litmus-only"][..],
        &["--fuzz-only", "--seeds", "0"][..],
    ] {
        let out = coherence_check(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: coherence_check"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not run the check");
    }
}

#[test]
fn coherence_check_runs_a_valid_selection() {
    let out = coherence_check(&[
        "--cores",
        "2",
        "--machines",
        "hybrid-proposed",
        "--noc-models",
        "analytic",
        "--fuzz-only",
        "--seeds",
        "1",
        "--quiet",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("coherence_check: 1 points"), "{stdout}");
}
