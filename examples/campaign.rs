//! Campaign walkthrough: declare a sweep, run it in parallel, re-run it
//! from the cache, and aggregate the results.
//!
//! ```text
//! cargo run --release --example campaign [JOBS] [SCALE]
//! ```
//!
//! `JOBS` defaults to the available parallelism and `SCALE` (an extra
//! data-set multiplier) to 1/256, so the example finishes in seconds.  The
//! equivalent command-line drive is the `campaign` binary:
//! `cargo run --release -p system --bin campaign -- --help`.

use spm_manycore::campaign::{Executor, ResultCache};
use spm_manycore::system::cli::{check_scale, parse_or_exit, Args, CliError};
use spm_manycore::system::sweep::{run_points, summarize, to_csv, RunContext, SweepSpec};
use spm_manycore::workloads::nas::NasBenchmark;

const USAGE: &str = "usage: campaign [JOBS] [SCALE]\n";

fn parse(args: impl IntoIterator<Item = String>) -> Result<(usize, f64), CliError> {
    let mut args = Args::new(args);
    let jobs = args.positional("JOBS", 0)?;
    let scale = args.positional("SCALE", 1.0 / 256.0)?;
    args.finish()?;
    check_scale("SCALE", scale)?;
    Ok((jobs, scale))
}

fn main() {
    let (jobs, scale) = parse_or_exit("campaign", USAGE, std::env::args().skip(1), parse);

    // 1. Declare the sweep: two benchmarks × two core counts × all three
    //    machine kinds, on the scaled-down test machine.
    let spec = SweepSpec::new(&[NasBenchmark::Cg, NasBenchmark::Is])
        .with_cores(&[4, 8])
        .with_scales(&[scale])
        .small();
    let points = spec.points();
    println!(
        "sweep: {} benchmarks x {} cores x {} machines = {} points\n",
        spec.benchmarks.len(),
        spec.core_counts.len(),
        spec.machines.len(),
        points.len()
    );

    // 2. Run it on a worker pool, caching every result on disk.  The cache
    //    key is the content of the run inputs, so a second invocation of
    //    this example executes zero points.
    let cache = ResultCache::new(std::path::Path::new("target").join("campaign-cache-example"));
    let ctx = RunContext::new(Executor::new(jobs), Some(cache));
    let report = run_points(&ctx, &points).expect("the sweep lowers cleanly");
    println!("first pass : {}", report.accounting());

    let replay = run_points(&ctx, &points).expect("the sweep lowers cleanly");
    println!(
        "second pass: {}  <- content-addressed cache",
        replay.accounting()
    );
    assert_eq!(
        replay.executed, 0,
        "a repeated campaign re-simulates nothing"
    );

    // 3. Aggregate: per-point speedups and protocol overheads, CSV export.
    let records: Vec<_> = points.iter().zip(&report.results).collect();
    let summary = summarize(&records);
    println!("\n{}", summary.to_table());
    if let Some(avg) = summary.average_speedup() {
        println!("average hybrid speedup over the sweep: {avg:.3}x");
    }
    let csv = to_csv(&records);
    println!("\nCSV export ({} rows):", records.len());
    for line in csv.lines().take(3) {
        println!("  {line}");
    }
    println!("  ...");
}
