//! NoC contention ablation: zero-load analytic vs discrete-event measurement.
//!
//! ```text
//! cargo run --release -p system --bin noc_contention -- \
//!     --meshes 16,64 --rates 0.02,0.05,0.1,0.2 --duration 10000 \
//!     --csv target/noc-contention.csv
//! ```
//!
//! Every `--meshes × --rates` cell drives both NoC models with the same
//! seeded synthetic packet stream, sent in injection order through the
//! calls a machine run makes, and reports mean latency, per-link maximum
//! utilisation and per-home-node ejection queueing — the numbers that test
//! the paper's "contention in the filterDir is very low" claim on the DES
//! network machine runs use, against the zero-load analytic network.

use system::cli::{parse_or_exit, write_export, Args, CliError};
use system::experiments::ablations::{
    noc_contention_csv, noc_contention_json, noc_contention_sweep, noc_contention_table,
};

const USAGE: &str = "\
noc_contention — injection-rate × mesh-size × model contention sweep

usage: noc_contention [options]

options (LIST = comma-separated values):
  --meshes LIST     mesh sizes in tiles, each at least 1 (default 16,64)
  --rates LIST      injection rates in packets/node/cycle, each in (0, 1]
                    (default 0.02,0.05,0.1,0.2)
  --duration N      injection window in cycles, at least 1 (default 10000)
  --csv PATH        write per-point metrics as CSV ('-' for stdout)
  --json PATH       write per-point metrics as JSON ('-' for stdout)
  --quiet           suppress the summary table
  --help            this text
";

#[derive(Debug)]
struct Options {
    meshes: Vec<usize>,
    rates: Vec<f64>,
    duration: u64,
    csv: Option<String>,
    json: Option<String>,
    quiet: bool,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, CliError> {
    let mut options = Options {
        meshes: vec![16, 64],
        rates: vec![0.02, 0.05, 0.1, 0.2],
        duration: 10_000,
        csv: None,
        json: None,
        quiet: false,
    };
    let mut args = Args::new(args);
    while let Some(flag) = args.next_arg()? {
        match flag.as_str() {
            "--meshes" => options.meshes = args.list()?,
            "--rates" => options.rates = args.list()?,
            "--duration" => options.duration = args.parse()?,
            "--csv" => options.csv = Some(args.value()?),
            "--json" => options.json = Some(args.value()?),
            "--quiet" => options.quiet = true,
            _ => return Err(args.unknown()),
        }
    }
    if options.meshes.contains(&0) {
        return Err("--meshes: mesh sizes must be at least 1".to_owned().into());
    }
    // The synthetic generator clamps its rate into [0, 1], so an
    // out-of-range rate would run a different point than the table labels.
    if let Some(rate) = options
        .rates
        .iter()
        .find(|&&rate| !(rate.is_finite() && rate > 0.0 && rate <= 1.0))
    {
        return Err(format!("--rates: every rate must lie in (0, 1], got {rate}").into());
    }
    if options.duration == 0 {
        return Err("--duration: must be at least 1 cycle".to_owned().into());
    }
    Ok(options)
}

fn main() {
    let options = parse_or_exit("noc_contention", USAGE, std::env::args().skip(1), parse);
    let points = noc_contention_sweep(&options.meshes, &options.rates, options.duration);
    if let Some(target) = &options.csv {
        if let Err(message) = write_export(target, &noc_contention_csv(&points)) {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
    if let Some(target) = &options.json {
        if let Err(message) = write_export(target, &noc_contention_json(&points)) {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
    if !options.quiet {
        print!("{}", noc_contention_table(&points));
    }
    println!(
        "noc_contention: {} points ({} meshes x {} rates x 2 models), {} cycles each",
        points.len(),
        options.meshes.len(),
        options.rates.len(),
        options.duration
    );
}
