//! Exit codes of `bench_report`'s strict argument parsing, checked on the
//! real executable: `--help` exits 0 with the usage text on stdout, and
//! malformed input exits 2 with the usage text on stderr instead of checking
//! nothing, panicking, running on a default or overwriting the checked-in
//! `BENCH_*.json` files.
//!
//! No case measures anything: every malformed argument list is rejected
//! before the first report runs, and the ones a lenient parser would act on
//! also carry `--only bogus`, which selects no report.

use std::process::{Command, Output};

fn bench_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_report"))
        .args(args)
        .output()
        .expect("bench_report starts")
}

#[test]
fn help_exits_zero_with_usage() {
    let out = bench_report(&["--help", "--only", "bogus"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: bench_report"), "{stdout}");
    assert!(out.stderr.is_empty());
}

#[test]
fn malformed_input_exits_two_with_usage() {
    for (args, message) in [
        // An unknown report key would check nothing and pass.
        (
            &["--only", "bogus", "--check"][..],
            "unknown report 'bogus'",
        ),
        // Zero samples has no minimum or median.
        (
            &["--samples", "0", "--only", "mem"][..],
            "--samples must be at least 1",
        ),
        // An unparsable count would run the default sample count.
        (
            &["--samples", "abc", "--only", "bogus"][..],
            "--samples: cannot parse 'abc'",
        ),
        // A misspelt --check would rewrite the checked-in files.
        (
            &["--chek", "--only", "bogus"][..],
            "unknown argument '--chek'",
        ),
    ] {
        let out = bench_report(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: bench_report"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
