//! Host-time benchmark of the simulator on the reference engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper64-des --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` times whole simulations and prints the end-to-end metrics;
//! `--trace 1` runs the per-layer replay trace, prints the per-layer metrics
//! and writes its spans to `.bench_out/`.  Either way the last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`.  See `perfbench/README.md` for every metric and workload.

mod bench;
mod host;
mod metrics;
mod replay;
mod spans;
mod workload;

use std::process::ExitCode;

use simkernel::Json;

use crate::metrics::{result_line, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::workload::{Workload, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Checked command-line arguments.
#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{value}' (one of: {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<(), String> {
    let points = args.workload.points(args.seed, 1.0, None);
    let workload = args.workload;
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("why: {}", workload.why);
    println!("loads: {}", workload.claims.join(", "));
    println!("rev: {}", host::git_rev());
    println!(
        "host: {} hardware threads",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    for point in &points {
        println!("point {}", point.describe());
    }

    let (catalogue, outcome) = if args.trace {
        let mut spans = Spans::new();
        let outcome = bench::per_layer(&points, args.seconds, &mut spans);
        let path = format!(
            ".bench_out/spans-{}-seed{}.json",
            args.workload.name, args.seed
        );
        let doc = spans.to_chrome(vec![
            ("workload", Json::str(args.workload.name)),
            ("seed", Json::from(args.seed)),
            ("rev", Json::str(host::git_rev())),
        ]);
        std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, doc.dump()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("spans: {path}");
        (PER_LAYER, outcome)
    } else {
        (END_TO_END, bench::end_to_end(&points, args.seconds)?)
    };

    for problem in &outcome.problems {
        println!("check failed: {problem}");
    }
    for def in catalogue {
        let value = outcome
            .values
            .iter()
            .find(|(name, _)| *name == def.name)
            .map_or(f64::NAN, |(_, v)| *v);
        println!("{:<32} {value:>16.6} {}", def.name, def.unit);
    }
    println!(
        "{}",
        result_line(
            catalogue,
            &outcome.values,
            outcome.attempted,
            outcome.failed
        )
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricDef;

    fn manifest_file(name: &str) -> String {
        let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    /// The `(name, unit, better, bound)` rows of one metric list.
    fn rows(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_owned()
                };
                (
                    field("name"),
                    field("unit"),
                    field("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_metric_catalogue() {
        let doc = Json::parse(&manifest_file("../BENCHMARK.json")).expect("valid JSON");
        for (key, catalogue, cap) in [
            ("end_to_end", END_TO_END, 16),
            ("per_layer", PER_LAYER, 128),
        ] {
            let declared = rows(&doc, key);
            assert!(
                !declared.is_empty() && declared.len() <= cap,
                "{key}: {}",
                declared.len()
            );
            let listed: Vec<MetricDef> = declared
                .iter()
                .map(|(name, unit, better, _)| {
                    let def = catalogue
                        .iter()
                        .find(|d| d.name == name)
                        .unwrap_or_else(|| panic!("{key}: {name} is not measured"));
                    assert_eq!(
                        (def.unit, def.better),
                        (unit.as_str(), better.as_str()),
                        "{name}"
                    );
                    *def
                })
                .collect();
            assert_eq!(
                listed.len(),
                catalogue.len(),
                "{key}: every measured metric is declared"
            );
        }
        let mut names: Vec<String> = rows(&doc, "end_to_end")
            .into_iter()
            .chain(rows(&doc, "per_layer"))
            .map(|(name, unit, _, _)| {
                assert!(valid_name(&name), "bad metric name {name}");
                assert!(valid_unit(&unit), "bad unit {unit} of {name}");
                name
            })
            .collect();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.name).to_vec());
        names.extend(workloads.iter().map(|w| w.to_string()));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "names are unique");

        let bounds: Vec<(String, f64)> = rows(&doc, "end_to_end")
            .into_iter()
            .map(|(name, _, _, bound)| (name, bound.expect("every end-to-end metric has a bound")))
            .collect();
        let setup = bounds
            .iter()
            .find(|(n, _)| n == "setup_s")
            .expect("setup_s")
            .1;
        for (name, bound) in &bounds {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}: bound {bound}");
            assert!(*bound <= setup, "setup_s has the largest bound, not {name}");
        }
    }

    #[test]
    fn readme_documents_every_metric_and_workload() {
        let readme = manifest_file("README.md");
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|d| d.name)
            .chain(WORKLOADS.iter().map(|w| w.name));
        for name in names {
            assert!(
                readme.contains(&format!("| `{name}` |")),
                "README.md has no row for {name}"
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |list: &[&str]| parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let ok = args(&[
            "--workload",
            "mesh-cg-des",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(
            (ok.workload.name, ok.seed, ok.seconds, ok.trace),
            ("mesh-cg-des", 7, 3.0, true)
        );
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "mesh-cg-des", "--trace", "2"],
            &["--workload", "mesh-cg-des", "--seconds", "-1"],
            &["--workload", "mesh-cg-des", "--jobs", "2"],
            &["--workload"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} was accepted");
        }
    }

    /// A tiny pass of every workload loads every layer it claims: each
    /// claimed count is non-zero, and every output check passes.
    #[test]
    fn tiny_pass_loads_every_claimed_layer() {
        for workload in &WORKLOADS {
            let points = workload.points(7, 1.0 / 64.0, Some(16));
            let outcome = bench::per_layer(&points, 0.0, &mut Spans::new());
            assert_eq!(
                outcome.failed, 0,
                "{}: {:?}",
                workload.name, outcome.problems
            );
            assert_eq!(outcome.attempted, points.len() as u64);
            let value = |name: &str| {
                outcome
                    .values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("{name} missing"))
                    .1
            };
            for claim in workload.claims {
                assert!(value(claim) > 0.0, "{}: {claim} is zero", workload.name);
            }
            assert!(!workload.why.is_empty() && workload.why.len() <= 200);
            let _ = result_line(
                PER_LAYER,
                &outcome.values,
                outcome.attempted,
                outcome.failed,
            );
        }
    }

    /// End-to-end metrics are never zero, as the bounds need.
    #[test]
    fn end_to_end_metrics_are_positive() {
        let points = WORKLOADS[2].points(3, 1.0 / 64.0, Some(16));
        let outcome = bench::end_to_end(&points, 0.0).expect("untraced run");
        assert_eq!(outcome.failed, 0, "{:?}", outcome.problems);
        for (name, value) in &outcome.values {
            assert!(*value > 0.0, "{name} = {value}");
        }
        let line = result_line(
            END_TO_END,
            &outcome.values,
            outcome.attempted,
            outcome.failed,
        );
        let doc = Json::parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    }
}
