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

use campaign::{Executor, ResultCache};
use noc::NocModel;
use system::cli::{check_scale, parse_or_exit, write_export, Args, CliError};
use system::sweep::{run_points, summarize, to_csv, to_json, RunContext, SweepSpec};
use system::{CoherenceProtocol, MachineKind};
use workloads::nas::NasBenchmark;

/// The `--help` text.  The axis value lists come from the enums' ids, so
/// the text cannot drift from what the parser accepts.
fn usage() -> String {
    format!(
        "\
campaign — parameter-space sweeps over the ISCA'15 machines

usage: campaign [options]

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
        machines = MachineKind::ALL.map(MachineKind::id).join(", "),
        noc_models = NocModel::ALL.map(NocModel::id).join(", "),
        protocols = CoherenceProtocol::ALL.map(CoherenceProtocol::id).join(", "),
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

/// Rejects a size list naming 0: no machine has zero cores, a 0 KiB SPM or
/// a zero-entry filter.
fn sizes<T: Default + PartialEq>(flag: &str, values: Vec<T>) -> Result<Vec<T>, CliError> {
    if values.contains(&T::default()) {
        return Err(format!("{flag}: must be at least 1").into());
    }
    Ok(values)
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, CliError> {
    let mut options = Options {
        spec: SweepSpec::new(&[NasBenchmark::Cg, NasBenchmark::Is]),
        jobs: 0,
        cache_dir: Some(ResultCache::default_dir()),
        csv: None,
        json: None,
        quiet: false,
    };
    let mut args = Args::new(args);
    while let Some(flag) = args.next_arg()? {
        match flag.as_str() {
            "--benchmarks" => {
                options.spec.benchmarks = args.ids(
                    NasBenchmark::from_name,
                    &NasBenchmark::ALL.map(NasBenchmark::name),
                )?
            }
            "--machines" => {
                options.spec.machines =
                    args.ids(MachineKind::from_id, &MachineKind::ALL.map(MachineKind::id))?
            }
            "--cores" => options.spec.core_counts = sizes(&flag, args.list()?)?,
            "--scale" => {
                options.spec.scale_multipliers = args.list()?;
                for &scale in &options.spec.scale_multipliers {
                    check_scale("--scale", scale)?;
                }
            }
            "--spm-kib" => options.spec = options.spec.with_spm_kib(&sizes(&flag, args.list()?)?),
            "--filters" => {
                options.spec = options
                    .spec
                    .with_filter_entries(&sizes(&flag, args.list()?)?)
            }
            "--filterdirs" => {
                options.spec = options
                    .spec
                    .with_filterdir_entries(&sizes(&flag, args.list()?)?)
            }
            "--noc-models" => {
                let models = args.ids(NocModel::from_id, &NocModel::ALL.map(NocModel::id))?;
                options.spec = options.spec.with_noc_models(&models);
            }
            "--protocols" => {
                let protocols = args.ids(
                    CoherenceProtocol::from_id,
                    &CoherenceProtocol::ALL.map(CoherenceProtocol::id),
                )?;
                options.spec = options.spec.with_protocols(&protocols);
            }
            "--small" => options.spec.small_machine = true,
            "--jobs" => options.jobs = args.parse()?,
            "--cache-dir" => options.cache_dir = Some(args.value()?.into()),
            "--no-cache" => options.cache_dir = None,
            "--csv" => options.csv = Some(args.value()?),
            "--json" => options.json = Some(args.value()?),
            "--quiet" => options.quiet = true,
            _ => return Err(args.unknown()),
        }
    }
    Ok(options)
}

fn main() {
    let options = parse_or_exit("campaign", &usage(), std::env::args().skip(1), parse);
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

    let records: Vec<_> = points.iter().zip(&report.results).collect();
    if let Some(target) = &options.csv {
        if let Err(message) = write_export(target, &to_csv(&records)) {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
    if let Some(target) = &options.json {
        if let Err(message) = write_export(target, &to_json(&records)) {
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
        let machines = MachineKind::ALL.map(MachineKind::id);
        let models = NocModel::ALL.map(NocModel::id);
        let protocols = CoherenceProtocol::ALL.map(CoherenceProtocol::id);
        for id in machines.iter().chain(&models).chain(&protocols) {
            assert!(text.contains(id), "--help misses '{id}':\n{text}");
        }
    }
}
