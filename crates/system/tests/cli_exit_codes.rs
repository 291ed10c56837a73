//! Exit codes of the binaries' strict argument parsing, checked on the real
//! executables: `--help` exits 0 with the usage text on stdout, and
//! malformed input exits 2 with the usage text on stderr instead of running
//! on defaults, on a silently clamped value or on an empty selection.

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

fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("campaign starts")
}

fn coherence_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_coherence_check"))
        .args(args)
        .output()
        .expect("coherence_check starts")
}

fn analyzer(name: &str, args: &[&str]) -> Output {
    let exe = match name {
        "cycle_report" => env!("CARGO_BIN_EXE_cycle_report"),
        "trace_report" => env!("CARGO_BIN_EXE_trace_report"),
        other => unreachable!("no analyzer {other}"),
    };
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{name} starts: {e}"))
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
        &["--track-values"][..],
        &["--debug-cores"][..],
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
        &["--meshes", ""][..],
        &["--rates", ""][..],
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
fn campaign_help_exits_zero_on_stdout() {
    let out = campaign(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: campaign"), "{stdout}");
    assert!(out.stderr.is_empty());
}

/// Malformed input exits 2 before any point runs: an empty axis list would
/// sweep nothing and pass, an unknown axis value names the valid ones, and
/// a zero size or a non-positive scale is refused rather than clamped to a
/// 1 KiB or 1-entry machine or failed later without the usage text.
#[test]
fn campaign_malformed_input_exits_two_with_usage() {
    let mut cases = vec![
        vec!["--jobs", "x"],
        vec!["--cores"],
        vec!["--machines", "quantum"],
        vec!["--benchmarks", "NOPE"],
        vec!["--noc-models", "warp"],
        vec!["--protocols", "moesi"],
        vec!["--bogus"],
        vec!["--spm-kib", "0"],
        vec!["--spm-kib", "8,0"],
        vec!["--filters", "0"],
        vec!["--filterdirs", "0"],
        vec!["--cores", "0"],
        vec!["--cores", "4,0"],
        vec!["--scale", "0"],
        vec!["--scale", "-1"],
        vec!["--scale", "nan"],
        vec!["--scale", "inf"],
    ];
    for axis in [
        "--benchmarks",
        "--machines",
        "--cores",
        "--scale",
        "--spm-kib",
        "--filters",
        "--filterdirs",
        "--noc-models",
        "--protocols",
    ] {
        cases.push(vec![axis, ""]);
    }
    for args in &cases {
        let out = campaign(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: campaign"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not run the sweep");
    }
    let out = campaign(&["--machines", "quantum"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("hybrid-proposed"), "{stderr}");
    let out = campaign(&["--spm-kib", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("campaign: --spm-kib: must be at least 1"),
        "{stderr}"
    );
}

/// Two spellings of one id are one point: the parser turns `cg` into the
/// benchmark `CG`, so both commands run, print and export the same run.
#[test]
fn campaign_spellings_of_one_benchmark_are_one_point() {
    let run = |benchmark| {
        let out = campaign(&[
            "--benchmarks",
            benchmark,
            "--machines",
            "cache-only",
            "--cores",
            "4",
            "--scale",
            "0.0625",
            "--no-cache",
            "--csv",
            "-",
        ]);
        assert_eq!(out.status.code(), Some(0), "{benchmark}");
        String::from_utf8(out.stdout).unwrap()
    };
    let canonical = run("CG");
    assert!(canonical.contains("\nCG,cache-only,4,"), "{canonical}");
    assert_eq!(run("cg"), canonical);
}

/// A point named twice runs once: both spellings export a row, one
/// simulation fills one cache file, and the duplicate is neither executed
/// nor a cache hit.
#[test]
fn campaign_runs_a_point_named_twice_once() {
    let dir = std::env::temp_dir().join(format!("campaign-duplicate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = campaign(&[
        "--benchmarks",
        "cg,CG",
        "--machines",
        "cache-only",
        "--cores",
        "4",
        "--scale",
        "0.0625",
        "--small",
        "--cache-dir",
        dir.to_str().unwrap(),
        "--quiet",
        "--csv",
        "-",
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("campaign: 2 points, executed 1, cache hits 0"),
        "{stdout}"
    );
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|line| line.starts_with("CG,cache-only,4,"))
        .collect();
    assert_eq!(rows.len(), 2, "{stdout}");
    assert_eq!(rows[0], rows[1]);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
    let _ = std::fs::remove_dir_all(&dir);
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

#[test]
fn analyzers_help_exits_zero_on_stdout() {
    for name in ["cycle_report", "trace_report"] {
        let out = analyzer(name, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{name}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&format!("usage: {name}")), "{stdout}");
        assert!(out.stderr.is_empty(), "{name}");
    }
}

/// Malformed arguments exit 2 with the usage text; exit 1 stays reserved
/// for a document that cannot be read or fails its checks.
#[test]
fn analyzers_malformed_input_exits_two_with_usage() {
    for (name, args) in [
        ("cycle_report", &[][..]),
        ("cycle_report", &["--bogus"][..]),
        ("cycle_report", &["a.json", "--top", "many"][..]),
        ("cycle_report", &["a.json", "--diff"][..]),
        ("cycle_report", &["a.json", "b.json"][..]),
        ("trace_report", &[][..]),
        ("trace_report", &["--bogus"][..]),
        ("trace_report", &["a.json", "b.json"][..]),
        ("trace_report", &["a.json", "--windows", "0"][..]),
        ("trace_report", &["a.json", "--top", "-1"][..]),
    ] {
        let out = analyzer(name, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("usage: {name}")),
            "{name} {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{name} {args:?} must not report");
    }
    for name in ["cycle_report", "trace_report"] {
        let out = analyzer(name, &["no-such-document.json"]);
        assert_eq!(out.status.code(), Some(1), "{name}");
    }
}

/// Every binary of this crate keeps the one contract: `--help` prints the
/// usage on stdout only and exits 0; an unknown flag prints
/// `<name>: <message>` and the usage on stderr only and exits 2.
#[test]
fn every_binary_keeps_the_one_contract() {
    for (name, exe) in [
        ("table1", env!("CARGO_BIN_EXE_table1")),
        ("table2", env!("CARGO_BIN_EXE_table2")),
        ("fig7", env!("CARGO_BIN_EXE_fig7")),
        ("fig8", env!("CARGO_BIN_EXE_fig8")),
        ("fig9", env!("CARGO_BIN_EXE_fig9")),
        ("fig10", env!("CARGO_BIN_EXE_fig10")),
        ("fig11", env!("CARGO_BIN_EXE_fig11")),
        ("ablations", env!("CARGO_BIN_EXE_ablations")),
        ("full_eval", env!("CARGO_BIN_EXE_full_eval")),
        ("campaign", env!("CARGO_BIN_EXE_campaign")),
        ("noc_contention", env!("CARGO_BIN_EXE_noc_contention")),
        ("coherence_check", env!("CARGO_BIN_EXE_coherence_check")),
        ("cycle_report", env!("CARGO_BIN_EXE_cycle_report")),
        ("trace_report", env!("CARGO_BIN_EXE_trace_report")),
    ] {
        let run = |args: &[&str]| {
            Command::new(exe)
                .args(args)
                .output()
                .unwrap_or_else(|e| panic!("{name} starts: {e}"))
        };
        let help = run(&["--help"]);
        assert_eq!(help.status.code(), Some(0), "{name}");
        let usage = String::from_utf8_lossy(&help.stdout).into_owned();
        assert!(usage.contains("usage:"), "{name}: {usage}");
        assert!(help.stderr.is_empty(), "{name}");

        let bogus = run(&["--bogus"]);
        let stderr = String::from_utf8_lossy(&bogus.stderr);
        assert_eq!(bogus.status.code(), Some(2), "{name}: {stderr}");
        assert_eq!(
            stderr,
            format!("{name}: unknown argument '--bogus'\n\n{usage}\n"),
            "{name}"
        );
        assert!(bogus.stdout.is_empty(), "{name}");
    }
}
