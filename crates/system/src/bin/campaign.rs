//! Campaign driver: cross-product parameter sweeps with parallel execution
//! and content-addressed result caching.
//!
//! ```text
//! cargo run --release -p system --bin campaign -- \
//!     --cores 8,16,32,64 --benchmarks CG,IS --jobs 4
//! ```
//!
//! Every `--benchmarks × --machines × --cores × --scale × --spm-kib ×
//! --filters × --filterdirs × --protocols` combination becomes one
//! simulation point.
//! Points execute on `--jobs` workers; results are cached under
//! `--cache-dir` (default `target/campaign-cache`), so a repeated
//! invocation executes only new or changed points.  The last line printed
//! is the accounting, e.g. `campaign: 24 points, executed 0, cache hits 24`.
//! Every run carries its cycle breakdown and its traffic by message class,
//! so the CSV/JSON exports always include the machine-wide `cycles_*` and
//! the per-class `packets_*`/`flits_*` columns, cached points included.

use campaign::{
    summarize, Executor, ResultCache, SweepSpec, MACHINE_IDS, NOC_MODEL_IDS, PROTOCOL_IDS,
};
use system::cli::{parse_list, write_export};
use system::sweep::{records_of, run_points, RunContext};

/// The `--help` text.  The axis value lists come from the canonical id
/// arrays, so the text cannot drift from what the lowering accepts.
fn usage() -> String {
    format!(
        "\
campaign — parameter-space sweeps over the ISCA'15 machines

options (LIST = comma-separated values):
  --benchmarks LIST   benchmarks to sweep (default CG,IS; all six: CG,EP,FT,IS,MG,SP)
  --machines LIST     machine kinds: {machines} (default: all)
  --cores LIST        core counts (default 64)
  --scale LIST        extra data-set scale multipliers (default 1.0)
  --spm-kib LIST      per-core SPM sizes in KiB (default: Table 1)
  --filters LIST      per-core filter entry counts (default: Table 1)
  --filterdirs LIST   filterDir entry counts (default: Table 1)
  --noc-models LIST   NoC models: {noc_models} (default analytic)
  --protocols LIST    coherence protocols: {protocols} (default
                      filterdir; only the proposed machine differs)
  --small             use the scaled-down test machine at each core count
  --jobs N            parallel workers (default: available parallelism)
  --cache-dir PATH    result-cache directory (default target/campaign-cache)
  --no-cache          execute every point, read and write no cache
  --csv PATH          write per-point metrics as CSV ('-' for stdout),
                      including the machine-wide cycles_* breakdown and
                      the per-class packets_*/flits_* traffic
  --json PATH         write per-point metrics as JSON ('-' for stdout),
                      including the machine-wide cycle breakdown and the
                      per-class packets and flits
  --quiet             suppress the summary table (accounting still prints)
  --help              this text
",
        machines = MACHINE_IDS.join(", "),
        noc_models = NOC_MODEL_IDS.join(", "),
        protocols = PROTOCOL_IDS.join(", "),
    )
}

#[derive(Debug)]
struct Options {
    spec: SweepSpec,
    jobs: usize,
    cache_dir: Option<std::path::PathBuf>,
    csv: Option<String>,
    json: Option<String>,
    quiet: bool,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        spec: SweepSpec::new(&["CG", "IS"]),
        jobs: 0,
        cache_dir: Some(ResultCache::default_dir()),
        csv: None,
        json: None,
        quiet: false,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--benchmarks" => {
                options.spec.benchmarks = parse_list("--benchmarks", &value("--benchmarks")?)?
            }
            "--machines" => {
                options.spec.machines = parse_list("--machines", &value("--machines")?)?
            }
            "--cores" => options.spec.core_counts = parse_list("--cores", &value("--cores")?)?,
            "--scale" => {
                options.spec.scale_multipliers = parse_list("--scale", &value("--scale")?)?
            }
            "--spm-kib" => {
                options.spec = options
                    .spec
                    .with_spm_kib(&parse_list("--spm-kib", &value("--spm-kib")?)?)
            }
            "--filters" => {
                options.spec = options
                    .spec
                    .with_filter_entries(&parse_list("--filters", &value("--filters")?)?)
            }
            "--filterdirs" => {
                options.spec = options
                    .spec
                    .with_filterdir_entries(&parse_list("--filterdirs", &value("--filterdirs")?)?)
            }
            "--noc-models" => {
                let models: Vec<String> = parse_list("--noc-models", &value("--noc-models")?)?;
                options.spec.noc_models = models.into_iter().map(Some).collect();
            }
            "--protocols" => {
                let protocols: Vec<String> = parse_list("--protocols", &value("--protocols")?)?;
                options.spec.protocols = protocols.into_iter().map(Some).collect();
            }
            "--small" => options.spec.small_machine = true,
            "--jobs" => {
                options.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs: not a number")?
            }
            "--cache-dir" => options.cache_dir = Some(value("--cache-dir")?.into()),
            "--no-cache" => options.cache_dir = None,
            "--csv" => options.csv = Some(value("--csv")?),
            "--json" => options.json = Some(value("--json")?),
            "--quiet" => options.quiet = true,
            "--help" | "-h" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'\n\n{}", usage())),
        }
    }
    Ok(options)
}

fn main() {
    let options = match parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let points = options.spec.points();
    let ctx = RunContext::new(
        Executor::new(options.jobs),
        options.cache_dir.clone().map(ResultCache::new),
    );
    let report = match run_points(&ctx, &points) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };

    let records = records_of(&points, &report.results);
    if let Some(target) = &options.csv {
        if let Err(message) = write_export(target, &campaign::aggregate::to_csv(&records)) {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
    if let Some(target) = &options.json {
        if let Err(message) = write_export(target, &campaign::aggregate::to_json(&records)) {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
    if !options.quiet {
        print!("{}", summarize(&records).to_table());
        if let Some(dir) = &options.cache_dir {
            println!("cache: {}", dir.display());
        }
    }
    println!("{}", report.accounting());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_axis_id() {
        let text = usage();
        for id in MACHINE_IDS
            .iter()
            .chain(&NOC_MODEL_IDS)
            .chain(&PROTOCOL_IDS)
        {
            assert!(text.contains(id), "--help misses '{id}':\n{text}");
        }
    }
}
