//! Exit codes of the report binaries' strict argument parsing, checked on
//! the real `fig9` executable: `--help` exits 0, and malformed input exits 2
//! with the usage text instead of running the 64-core figure on defaults.

use std::process::{Command, Output};

fn fig9(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig9"))
        .args(args)
        .output()
        .expect("fig9 starts")
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
