//! Smoke test: every example's main path runs to completion.
//!
//! Keeps the quickstart in the façade docs honest — an example that compiles
//! but panics at startup would otherwise go unnoticed.  Each example is run
//! through the same `cargo` that drives this test, so the build is shared
//! with the surrounding `cargo test` invocation.  The examples that take a
//! machine size and data scale run on a small one, so the walk stays fast
//! in the unoptimised profile.

use std::process::{Command, Output};

/// Every example target of the façade package (see `Cargo.toml`), with the
/// positional arguments it runs with here.
const EXAMPLES: &[(&str, &[&str])] = &[
    ("quickstart", &["CG", "4", "0.0625"]),
    ("protocol_walkthrough", &[]),
    ("filter_sizing", &["4", "0.0625"]),
    ("spmv_gather", &[]),
    ("campaign", &[]),
];

fn run_example(example: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO"))
        .args(["run", "--quiet", "--example", example, "--"])
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn cargo for example {example}: {e}"))
}

#[test]
fn every_example_runs_successfully() {
    for &(example, args) in EXAMPLES {
        let output = run_example(example, args);
        assert!(
            output.status.success(),
            "example {example} exited with {}:\n--- stdout ---\n{}\n--- stderr ---\n{}",
            output.status,
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
        assert!(
            !output.stdout.is_empty(),
            "example {example} printed nothing; its walkthrough output is part \
             of the documentation"
        );
    }
}

#[test]
fn a_malformed_example_argument_exits_two_with_usage() {
    let output = run_example("quickstart", &["XX"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(output.stdout.is_empty());
    assert!(
        stderr.contains("quickstart: BENCH: unknown value 'XX'"),
        "{stderr}"
    );
    assert!(stderr.contains("usage: quickstart"), "{stderr}");
}
