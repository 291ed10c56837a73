//! Top-down analyzer for the cycle-accounting JSON written by
//! `--cycle-accounting` (or [`simkernel::CycleBreakdown::to_json`]):
//! machine-wide and per-core category tables, the top-N per-core stall
//! sources, optional CSV/JSON re-exports and a `--diff` mode that compares
//! two accounted runs category by category.
//!
//! ```text
//! cycle_report PATH [--diff PATH2] [--top N] [--csv PATH] [--json PATH]
//! ```
//!
//! Every loaded document is re-verified: the JSON must survive a dump →
//! parse round trip bit-for-bit, and the breakdown must satisfy the
//! exhaustiveness invariant (categories sum bit-exactly to elapsed cycles on
//! every core) — the CI smoke step greps for both confirmations.
//!
//! `--help` exits 0; malformed arguments exit 2 with the usage text; a
//! document that cannot be read or fails a check exits 1.

use simkernel::{CycleBreakdown, CycleCategory, Json};
use system::cli::{parse_or_exit, Args, CliError};

const USAGE: &str = "\
cycle_report — tables, top stalls and diffs of a cycle-accounting JSON

usage: cycle_report PATH [options]

options:
  --diff PATH2   compare with a second breakdown, category by category
  --top N        per-core stall sources to list (default 5)
  --csv PATH     write the per-core breakdown as CSV ('-' for stdout)
  --json PATH    re-export the breakdown as JSON ('-' for stdout)
  --help         this text

exit status: 0 on success, 1 if a document cannot be read or fails its
checks, 2 on malformed arguments
";

struct Options {
    path: String,
    diff: Option<String>,
    csv: Option<String>,
    json: Option<String>,
    top: usize,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, CliError> {
    let (mut path, mut diff, mut csv, mut json, mut top) = (None, None, None, None, 5);
    let mut args = Args::new(args);
    while let Some(arg) = args.next_arg()? {
        match arg.as_str() {
            "--diff" => diff = Some(args.value()?),
            "--csv" => csv = Some(args.value()?),
            "--json" => json = Some(args.value()?),
            "--top" => top = args.parse()?,
            other if path.is_none() && !other.starts_with('-') => path = Some(arg),
            _ => return Err(args.unknown()),
        }
    }
    Ok(Options {
        path: path.ok_or("missing the breakdown PATH".to_owned())?,
        diff,
        csv,
        json,
        top,
    })
}

/// Loads, round-trip-checks and invariant-checks one breakdown document.
fn load(path: &str) -> Result<(Json, CycleBreakdown), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e:?}"))?;
    let reparsed =
        Json::parse(&doc.dump()).map_err(|e| format!("{path}: round-trip parse failed: {e:?}"))?;
    if reparsed != doc {
        return Err(format!("{path}: JSON round-trip changed the document"));
    }
    let breakdown = CycleBreakdown::from_json(&doc).map_err(|e| format!("{path}: {e}"))?;
    breakdown
        .check_exhaustive()
        .map_err(|e| format!("{path}: exhaustiveness invariant violated: {e}"))?;
    Ok((doc, breakdown))
}

/// The breakdown as CSV: one row per core, one `cycles_*` column per
/// category (the same column set the campaign exports append).
fn to_csv(breakdown: &CycleBreakdown) -> String {
    let mut out = String::from("core,elapsed");
    for category in CycleCategory::ALL {
        out.push_str(&format!(",cycles_{}", category.id()));
    }
    out.push('\n');
    for (id, core) in breakdown.cores.iter().enumerate() {
        out.push_str(&format!("{id},{}", core.elapsed));
        for count in core.account.counts() {
            out.push_str(&format!(",{count}"));
        }
        out.push('\n');
    }
    out
}

fn summarise(doc: &Json, breakdown: &CycleBreakdown, top: usize) -> String {
    let mut out = String::new();
    let title = match doc.get("benchmark").and_then(Json::as_str) {
        Some(benchmark) => {
            out.push_str(&format!(
                "cycle accounting of {benchmark} on {} cores\n",
                breakdown.cores.len()
            ));
            format!("Machine-wide cycle breakdown ({benchmark})")
        }
        None => "Machine-wide cycle breakdown".to_owned(),
    };
    out.push_str(&breakdown.machine_table(&title));
    out.push('\n');
    out.push_str(&breakdown.per_core_table());
    out.push('\n');
    let stalls = breakdown.top_stalls(top);
    if stalls.is_empty() {
        out.push_str("no stall cycles recorded\n");
    } else {
        out.push_str(&format!("top {} stall sources:\n", stalls.len()));
        for (core, category, cycles) in stalls {
            out.push_str(&format!(
                "  core {core}: {category} {cycles} ({})\n",
                category.describe()
            ));
        }
    }
    out
}

fn run(options: &Options) -> Result<String, String> {
    let path = &options.path;
    let (doc, breakdown) = load(path)?;

    let mut out = summarise(&doc, &breakdown, options.top);
    if let Some(diff_path) = &options.diff {
        let (_, other) = load(diff_path)?;
        // The diff normalizes by core count when the meshes differ; a
        // zero-core document has no per-core mean, so reject it instead of
        // printing rows of meaningless figures.
        if breakdown.cores.is_empty() {
            return Err(format!("{path}: cannot diff an empty breakdown (0 cores)"));
        }
        if other.cores.is_empty() {
            return Err(format!(
                "{diff_path}: cannot diff against an empty breakdown (0 cores)"
            ));
        }
        out.push('\n');
        out.push_str(&breakdown.diff_table(&other));
    }
    if let Some(csv_path) = &options.csv {
        system::write_export(csv_path, &to_csv(&breakdown))?;
        out.push_str(&format!("CSV -> {csv_path}\n"));
    }
    if let Some(json_path) = &options.json {
        let mut dump = breakdown.to_json().dump();
        dump.push('\n');
        system::write_export(json_path, &dump)?;
        out.push_str(&format!("JSON -> {json_path}\n"));
    }
    out.push_str("categories sum bit-exactly to elapsed cycles\n");
    out.push_str("JSON round-trip OK\n");
    Ok(out)
}

fn main() {
    let options = parse_or_exit("cycle_report", USAGE, std::env::args().skip(1), parse);
    match run(&options) {
        Ok(report) => print!("{report}"),
        Err(error) => {
            eprintln!("cycle_report: {error}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::attrib::{CoreBreakdown, CycleAccount};

    fn sample_breakdown(scale: u64) -> CycleBreakdown {
        sized_breakdown(scale, 2)
    }

    fn sized_breakdown(scale: u64, cores: u64) -> CycleBreakdown {
        let cores = (0..cores)
            .map(|id| {
                let mut account = CycleAccount::new();
                account.charge(CycleCategory::Compute, 100 * scale);
                account.charge(CycleCategory::MissWait, 40 * scale + id);
                account.charge(CycleCategory::NocQueue, 10 * scale);
                CoreBreakdown {
                    account,
                    elapsed: 150 * scale + id,
                }
            })
            .collect();
        CycleBreakdown { cores }
    }

    /// Parses `args` and runs the report.
    fn report(args: &[String]) -> Result<String, String> {
        run(&parse(args.iter().cloned()).expect("valid arguments"))
    }

    fn write_sample(name: &str, scale: u64) -> String {
        write_sized_sample(name, scale, 2)
    }

    fn write_sized_sample(name: &str, scale: u64, cores: u64) -> String {
        let path = std::env::temp_dir().join(name);
        let path = path.to_str().unwrap().to_owned();
        let mut doc = sized_breakdown(scale, cores).to_json();
        if let Json::Obj(fields) = &mut doc {
            fields.insert("benchmark".to_owned(), Json::str("CG"));
        }
        std::fs::write(&path, doc.dump()).unwrap();
        path
    }

    #[test]
    fn reports_tables_and_top_stalls() {
        let path = write_sample("cycle-report-test-a.json", 1);
        let out = report(&[path]).unwrap();
        assert!(out.contains("cycle accounting of CG on 2 cores"), "{out}");
        assert!(out.contains("compute"), "{out}");
        assert!(out.contains("miss_wait"), "{out}");
        assert!(out.contains("top 4 stall sources"), "{out}");
        assert!(
            out.contains("categories sum bit-exactly to elapsed cycles"),
            "{out}"
        );
        assert!(out.contains("JSON round-trip OK"), "{out}");
    }

    #[test]
    fn diff_compares_two_runs() {
        let a = write_sample("cycle-report-test-b.json", 1);
        let b = write_sample("cycle-report-test-c.json", 2);
        let out = report(&[a, "--diff".to_owned(), b]).unwrap();
        assert!(out.contains("diff"), "{out}");
        // Machine-wide compute moves from 200 (2 cores × 100) to 400.
        assert!(out.contains("+200"), "{out}");
    }

    #[test]
    fn diff_tolerates_differing_core_counts() {
        // A 2-core run against an 8-core run — the cross-scale engine-gap
        // use case: the diff must succeed and fall back to per-core means
        // rather than comparing raw totals across mesh sizes.
        let small = write_sized_sample("cycle-report-test-e.json", 1, 2);
        let big = write_sized_sample("cycle-report-test-f.json", 2, 8);
        let out = report(&[small, "--diff".to_owned(), big]).unwrap();
        assert!(out.contains("2 vs 8 cores, per-core means"), "{out}");
        // Per-core compute: 100 vs 200 → +100.0 per core.
        assert!(out.contains("+100.0"), "{out}");
        assert!(out.contains("JSON round-trip OK"), "{out}");
    }

    #[test]
    fn diff_rejects_empty_breakdowns() {
        // Regression: a 0-core document used to reach the per-core-mean
        // normalization and print nonsense rows; now either side being
        // empty is a load-time-style error naming the offending file.
        let ok = write_sized_sample("cycle-report-test-g.json", 1, 2);
        let empty = write_sized_sample("cycle-report-test-h.json", 1, 0);
        let err = report(&[empty.clone(), "--diff".to_owned(), ok.clone()]).unwrap_err();
        assert!(err.contains("empty breakdown"), "{err}");
        assert!(err.contains("cycle-report-test-h.json"), "{err}");
        let err = report(&[ok, "--diff".to_owned(), empty]).unwrap_err();
        assert!(err.contains("empty breakdown"), "{err}");
        assert!(err.contains("cycle-report-test-h.json"), "{err}");
    }

    #[test]
    fn csv_and_json_exports_round_trip() {
        let path = write_sample("cycle-report-test-d.json", 1);
        let csv = std::env::temp_dir().join("cycle-report-test-d.csv");
        let csv = csv.to_str().unwrap().to_owned();
        let json = std::env::temp_dir().join("cycle-report-test-d-out.json");
        let json = json.to_str().unwrap().to_owned();
        let out = report(&[
            path,
            "--csv".to_owned(),
            csv.clone(),
            "--json".to_owned(),
            json.clone(),
        ])
        .unwrap();
        assert!(out.contains("CSV ->"), "{out}");
        let text = std::fs::read_to_string(&csv).unwrap();
        let mut lines = text.lines();
        assert!(lines
            .next()
            .unwrap()
            .starts_with("core,elapsed,cycles_compute"));
        assert_eq!(text.lines().count(), 3);
        let doc = Json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(
            CycleBreakdown::from_json(&doc).unwrap(),
            sample_breakdown(1)
        );
    }

    #[test]
    fn corrupt_documents_fail_loudly() {
        let path = std::env::temp_dir().join("cycle-report-test-bad.json");
        let path_s = path.to_str().unwrap().to_owned();
        let mut bad = sample_breakdown(1);
        bad.cores[0].elapsed += 1;
        std::fs::write(&path, bad.to_json().dump()).unwrap();
        let err = report(&[path_s]).unwrap_err();
        assert!(err.contains("exhaustiveness invariant violated"), "{err}");
        assert!(report(&["nope.json".to_owned()]).is_err());
    }
}
