//! Command-line parsing for every binary, and the shared driver of the
//! report binaries (`table1`, `table2`, `fig7` … `fig11`, `ablations`,
//! `full_eval`).
//!
//! Every binary reads its flags with [`Args`] and parses them through
//! [`parse_or_exit`]: `--help` prints the binary's usage text and exits 0,
//! and malformed input — an unknown flag, a missing value, a value that
//! does not parse or names nothing valid, or a list that names no value —
//! prints `<binary>: <error>` and the usage text and exits 2.  A typo never
//! silently runs the defaults.  The report binaries parse the options
//! listed by [`usage`] into [`CliOptions`].
//!
//! The cache is content-addressed over the complete run inputs, so it only
//! ever replays *identical* runs; see the README's campaign section for the
//! invalidation rules (in short: changing simulator code requires deleting
//! the directory).

use std::path::PathBuf;
use std::str::FromStr;

use campaign::{Executor, ResultCache};
use workloads::characterize;
use workloads::nas::NasBenchmark;

use crate::config::{CoherenceProtocol, MachineKind, SystemConfig};
use crate::experiments::{ablations, ExperimentSuite};
use crate::sweep::{LoweredRun, RunContext};

/// The usage text every report binary prints for `--help` and after a
/// malformed argument.  The value lists of the axis flags come from the
/// canonical identifier arrays, so the text cannot drift from what the
/// parser accepts.
pub fn usage() -> String {
    let categories: Vec<&str> = simkernel::trace::TraceCategory::ALL
        .iter()
        .map(|c| c.id())
        .collect();
    format!(
        "\
usage: <report binary> [options]

options:
  --cores N          number of cores (default 64, the paper's machine)
  --scale F          extra data-set scale multiplier on top of each
                     benchmark's recommended scale (default 1.0)
  --benchmarks LIST  comma-separated subset of {benchmarks} (default: all)
  --json             also print the raw results as JSON
  --jobs N           simulations run at once (default: available
                     parallelism; 1 runs them one after another).  Each
                     simulation is single-threaded; results never depend on N
  --cache            reuse simulation results from the default result
                     cache, target/campaign-cache
  --cache-dir PATH   like --cache, with an explicit directory
  --noc-model NAME   network model: {noc_models} (default analytic;
                     des is an alias of discrete-event)
  --protocol NAME    coherence protocol of the proposed machine:
                     {protocols} (default filterdir)
  --debug-cores      print per-core clock/work/stall figures after every
                     kernel (to stderr)
  --track-values     thread real data values through the memory system
                     (timing results are unchanged)
  --trace PATH       after the report, trace the first selected benchmark
                     once and write a Chrome trace-event JSON to PATH
                     ('-' for stdout)
  --trace-categories LIST
                     trace categories: {categories} (default: all)
  --sample-interval N
                     stat-sampling period in cycles for the trace
                     time-series (default 5000; 0 disables sampling)
  --cycle-accounting PATH
                     after the report, write the per-core cycle breakdown
                     JSON of the first selected benchmark on the proposed
                     machine to PATH ('-' for stdout); with a cache it
                     comes from the cache
  --help             print this text and exit
",
        benchmarks = NasBenchmark::ALL.map(NasBenchmark::name).join(","),
        noc_models = campaign::NOC_MODEL_IDS.join(", "),
        protocols = campaign::PROTOCOL_IDS.join(", "),
        categories = categories.join(", "),
    )
}

/// Parses the `--trace-categories` value, turning an unknown category name
/// into an error that lists the valid names instead of silently recording
/// the default mask.
pub fn parse_trace_categories(list: &str) -> Result<simkernel::CategoryMask, String> {
    simkernel::CategoryMask::parse(list).map_err(|error| {
        let valid: Vec<&str> = simkernel::trace::TraceCategory::ALL
            .iter()
            .map(|c| c.id())
            .collect();
        format!(
            "--trace-categories: {error} (valid categories: {})",
            valid.join(", ")
        )
    })
}

/// Writes an export to a file, or to stdout when `target` is `-`.
pub fn write_export(target: &str, contents: &str) -> Result<(), String> {
    if target == "-" {
        print!("{contents}");
        Ok(())
    } else {
        std::fs::write(target, contents).map_err(|e| format!("cannot write {target}: {e}"))
    }
}

/// Why a binary's parser produced no options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h`: print the usage text and exit 0.
    Help,
    /// Malformed input — an unknown flag, a missing value, or a value that
    /// does not parse: print the message and the usage text, exit 2.
    Invalid(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Invalid(message)
    }
}

/// The flag reader every binary parses its arguments with.
///
/// [`Args::next_arg`] yields the flags and positional arguments in order
/// (and turns `--help`/`-h` into [`CliError::Help`]); the value readers take
/// the current flag's value and name that flag in every error.
#[derive(Debug)]
pub struct Args<I> {
    args: I,
    /// The argument [`Args::next_arg`] returned last.
    flag: String,
}

impl<I: Iterator<Item = String>> Args<I> {
    /// A reader over `args` (usually `std::env::args().skip(1)`).
    pub fn new(args: impl IntoIterator<Item = String, IntoIter = I>) -> Self {
        Args {
            args: args.into_iter(),
            flag: String::new(),
        }
    }

    /// The next flag or positional argument, `None` after the last one.
    pub fn next_arg(&mut self) -> Result<Option<String>, CliError> {
        let Some(arg) = self.args.next() else {
            return Ok(None);
        };
        if arg == "--help" || arg == "-h" {
            return Err(CliError::Help);
        }
        self.flag.clone_from(&arg);
        Ok(Some(arg))
    }

    /// The error for an argument no flag arm accepts.
    pub fn unknown(&self) -> CliError {
        format!("unknown argument '{}'", self.flag).into()
    }

    /// The current flag's value as given.
    pub fn value(&mut self) -> Result<String, CliError> {
        self.args
            .next()
            .ok_or_else(|| format!("{} needs a value", self.flag).into())
    }

    /// The current flag's value parsed as one `T`.
    pub fn parse<T: FromStr>(&mut self) -> Result<T, CliError> {
        let value = self.value()?;
        scalar(&self.flag, &value)
    }

    /// The current flag's value as a comma-separated list of `T`.  The list
    /// must name at least one value.
    pub fn list<T: FromStr>(&mut self) -> Result<Vec<T>, CliError> {
        let list = self.value()?;
        items(&self.flag, &list, |value| scalar(&self.flag, value))
    }

    /// The current flag's value as one id that `from_id` accepts; an unknown
    /// id is an error listing `valid`.
    pub fn id<T>(
        &mut self,
        from_id: impl Fn(&str) -> Option<T>,
        valid: &[&str],
    ) -> Result<T, CliError> {
        let value = self.value()?;
        lookup(&self.flag, value.trim(), &from_id, valid)
    }

    /// The current flag's value as a comma-separated list of ids, read like
    /// [`Args::id`]; the list must name at least one.
    pub fn ids<T>(
        &mut self,
        from_id: impl Fn(&str) -> Option<T>,
        valid: &[&str],
    ) -> Result<Vec<T>, CliError> {
        let list = self.value()?;
        self.ids_in(&list, from_id, valid)
    }

    /// [`Args::ids`] over a value the caller has already read.
    pub fn ids_in<T>(
        &self,
        list: &str,
        from_id: impl Fn(&str) -> Option<T>,
        valid: &[&str],
    ) -> Result<Vec<T>, CliError> {
        items(&self.flag, list, |id| {
            lookup(&self.flag, id, &from_id, valid)
        })
    }
}

fn scalar<T: FromStr>(flag: &str, value: &str) -> Result<T, CliError> {
    value
        .trim()
        .parse()
        .map_err(|_| format!("{flag}: cannot parse '{value}'").into())
}

fn lookup<T>(
    flag: &str,
    id: &str,
    from_id: impl Fn(&str) -> Option<T>,
    valid: &[&str],
) -> Result<T, CliError> {
    from_id(id).ok_or_else(|| {
        format!(
            "{flag}: unknown value '{id}' (valid values: {})",
            valid.join(", ")
        )
        .into()
    })
}

/// Reads every non-empty comma-separated segment of `list` through `item`.
fn items<T>(
    flag: &str,
    list: &str,
    item: impl Fn(&str) -> Result<T, CliError>,
) -> Result<Vec<T>, CliError> {
    let values = list
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| item(s.trim()))
        .collect::<Result<Vec<_>, _>>()?;
    if values.is_empty() {
        return Err(format!("{flag}: the list names no value").into());
    }
    Ok(values)
}

/// Rejects a `--scale` multiplier that is not positive and finite.
pub fn check_scale(scale: f64) -> Result<(), CliError> {
    if scale.is_finite() && scale > 0.0 {
        Ok(())
    } else {
        Err(format!("--scale: must be positive and finite, got {scale}").into())
    }
}

/// Runs a binary's `parse` over `args`.  On `--help` prints `usage` on
/// stdout and exits 0; on malformed input prints `<name>: <message>`, a
/// blank line and `usage` on stderr and exits 2.
pub fn parse_or_exit<I, T>(
    name: &str,
    usage: &str,
    args: I,
    parse: impl FnOnce(I) -> Result<T, CliError>,
) -> T {
    match parse(args) {
        Ok(options) => options,
        Err(CliError::Help) => {
            print!("{usage}");
            std::process::exit(0);
        }
        Err(CliError::Invalid(message)) => {
            eprintln!("{name}: {message}\n\n{usage}");
            std::process::exit(2);
        }
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Number of cores to simulate.
    pub cores: usize,
    /// Extra scale multiplier for the data sets.
    pub scale: f64,
    /// Benchmarks to run.
    pub benchmarks: Vec<NasBenchmark>,
    /// Whether to also dump JSON.
    pub json: bool,
    /// Simulations run at once; `0` means available parallelism.
    pub jobs: usize,
    /// Result-cache directory, when caching is requested.
    pub cache_dir: Option<PathBuf>,
    /// Which NoC model the simulations run under.
    pub noc_model: noc::NocModel,
    /// Which coherence protocol backs the proposed machine.
    pub protocol: CoherenceProtocol,
    /// Print per-core clock/work/stall figures after every kernel.
    pub debug_cores: bool,
    /// Thread real data values through the memory system.
    pub track_values: bool,
    /// Where to write a Chrome trace of one traced run (`-` for stdout).
    pub trace: Option<String>,
    /// Which trace categories to record.
    pub trace_categories: simkernel::CategoryMask,
    /// Stat-sampling period in cycles; `None` keeps the default.
    pub sample_interval: Option<u64>,
    /// Where to write the observed point's cycle breakdown (`-` for stdout).
    pub cycle_accounting: Option<String>,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            cores: 64,
            scale: 1.0,
            benchmarks: NasBenchmark::ALL.to_vec(),
            json: false,
            jobs: 0,
            cache_dir: None,
            noc_model: noc::NocModel::Analytic,
            protocol: CoherenceProtocol::FilterDir,
            debug_cores: false,
            track_values: false,
            trace: None,
            trace_categories: simkernel::CategoryMask::all(),
            sample_interval: None,
            cycle_accounting: None,
        }
    }
}

impl CliOptions {
    /// Parses options from an argument iterator (usually
    /// `std::env::args().skip(1)`).  Every argument must be a known flag
    /// with a valid value; see [`CliError`] for what else comes back.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, CliError> {
        let mut options = CliOptions::default();
        let mut args = Args::new(args);
        while let Some(flag) = args.next_arg()? {
            match flag.as_str() {
                "--cores" => options.cores = args.parse()?,
                "--scale" => options.scale = args.parse()?,
                "--benchmarks" => {
                    options.benchmarks = args.ids(
                        NasBenchmark::from_name,
                        &NasBenchmark::ALL.map(NasBenchmark::name),
                    )?
                }
                "--json" => options.json = true,
                "--jobs" => options.jobs = args.parse()?,
                "--cache" => options.cache_dir = Some(ResultCache::default_dir()),
                "--cache-dir" => options.cache_dir = Some(PathBuf::from(args.value()?)),
                "--noc-model" => {
                    options.noc_model = args.id(noc::NocModel::from_id, &campaign::NOC_MODEL_IDS)?
                }
                "--protocol" => {
                    options.protocol =
                        args.id(CoherenceProtocol::from_id, &campaign::PROTOCOL_IDS)?
                }
                "--debug-cores" => options.debug_cores = true,
                "--track-values" => options.track_values = true,
                "--trace" => options.trace = Some(args.value()?),
                "--trace-categories" => {
                    options.trace_categories = parse_trace_categories(&args.value()?)?
                }
                "--sample-interval" => options.sample_interval = Some(args.parse()?),
                "--cycle-accounting" => options.cycle_accounting = Some(args.value()?),
                _ => return Err(args.unknown()),
            }
        }
        if options.cores == 0 {
            return Err(CliError::Invalid("--cores: must be at least 1".to_owned()));
        }
        check_scale(options.scale)?;
        Ok(options)
    }

    /// The system configuration implied by the options.
    pub fn config(&self) -> SystemConfig {
        let mut config = SystemConfig::with_cores(self.cores);
        config.set_noc_model(self.noc_model);
        config.coherence_protocol = self.protocol;
        config.debug_cores = self.debug_cores;
        config.track_values = self.track_values;
        config.trace.enabled = self.trace.is_some();
        config.trace.categories = self.trace_categories;
        if let Some(interval) = self.sample_interval {
            config.trace.sample_interval = interval;
        }
        config
    }

    /// The execution policy implied by the options: `--jobs` workers and,
    /// when `--cache`/`--cache-dir` was given, a result cache.
    pub fn context(&self) -> RunContext {
        RunContext::new(
            Executor::new(self.jobs),
            self.cache_dir.clone().map(ResultCache::new),
        )
    }

    /// The suite point that `--trace` and `--cycle-accounting` observe: the
    /// first selected benchmark on the proposed machine, at the suite's data
    /// scale (the benchmark's recommended scale times `--scale`).  It is the
    /// suite's own lowered run of that point, so the artifacts describe the
    /// numbers printed beside them.  `None` when no benchmark is selected.
    pub(crate) fn observed_point(&self) -> Option<LoweredRun> {
        let benchmark = *self.benchmarks.first()?;
        let spec = benchmark.spec_scaled(benchmark.recommended_scale() * self.scale);
        Some((self.config(), spec, MachineKind::HybridProposed))
    }

    /// When `--trace PATH` was given: runs the first selected benchmark on
    /// the proposed machine, at the suite's data scale, once with tracing
    /// armed, writes the Chrome trace-event JSON to PATH (`-` for stdout)
    /// and returns a one-line summary.  Returns `None` when tracing was not requested.
    ///
    /// The traced run is a dedicated run — suite runs go through the result
    /// cache, which a presentation-only artefact must not address (the cache
    /// key pins `trace` to its default), so the trace rides on its own
    /// uncached execution instead.
    pub fn write_trace(&self) -> Option<Result<String, String>> {
        let target = self.trace.as_deref()?;
        let (config, spec, kind) = self.observed_point()?;
        let (_, capture) = crate::Machine::new(kind, config).run_traced(&spec);
        let json = capture.to_chrome().dump();
        Some(write_export(target, &json).map(|()| {
            format!(
                "trace: {} events ({} dropped), {} samples -> {}",
                capture.events(),
                capture.dropped(),
                capture.tracer.series().len(),
                target
            )
        }))
    }

    /// When `--cycle-accounting PATH` was given: takes the breakdown of the
    /// observed point's result, verifies the exhaustiveness invariant,
    /// writes the breakdown JSON (the `cycle_report` input format) to PATH
    /// (`-` for stdout) and returns a one-line summary.  Returns `None` when
    /// accounting was not requested.
    ///
    /// The result comes through [`CliOptions::context`], so with a cache
    /// that already holds the suite's run of the point no simulation runs;
    /// the summary reports whether the point executed or was a cache hit.
    pub fn write_cycle_accounting(&self) -> Option<Result<String, String>> {
        let target = self.cycle_accounting.as_deref()?;
        let run = self.observed_point()?;
        let report = self.context().run_lowered(std::slice::from_ref(&run));
        let result = &report.results[0];
        let breakdown = &result.breakdown;
        if let Err(error) = breakdown.check_exhaustive() {
            return Some(Err(format!("exhaustiveness invariant violated: {error}")));
        }
        let mut doc = breakdown.to_json();
        if let simkernel::Json::Obj(fields) = &mut doc {
            fields.insert(
                "benchmark".to_owned(),
                simkernel::Json::str(&result.benchmark),
            );
        }
        let totals = breakdown.totals();
        Some(write_export(target, &doc.dump()).map(|()| {
            format!(
                "cycle accounting: {} cores, {} cycles ({} stall; executed {}, cache hits {}) -> {}",
                breakdown.cores.len(),
                breakdown.elapsed_total(),
                totals.stall_total(),
                report.executed,
                report.cache_hits,
                target
            )
        }))
    }

    /// Runs the suite implied by the options.
    pub fn run_suite(&self) -> ExperimentSuite {
        ExperimentSuite::run_with(
            &self.config(),
            &self.benchmarks,
            &MachineKind::ALL,
            self.scale,
            &self.context(),
        )
    }
}

/// Which report a binary wants to print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Report {
    /// Table 1 (simulator parameters).
    Table1,
    /// Table 2 (benchmark characterisation).
    Table2,
    /// Figure 7 (protocol overheads).
    Fig7,
    /// Figure 8 (filter hit ratios).
    Fig8,
    /// Figure 9 (performance comparison).
    Fig9,
    /// Figure 10 (NoC traffic comparison).
    Fig10,
    /// Figure 11 (energy comparison).
    Fig11,
    /// The design-choice ablation sweeps.
    Ablations,
    /// Everything, including the headline summary.
    Full,
}

/// The `main` of the report binary `name`: parses the process arguments
/// and prints `report`.
pub fn report_main(name: &str, report: Report) {
    let options = parse_or_exit(name, &usage(), std::env::args().skip(1), CliOptions::parse);
    print!("{}", run_report(report, &options));
}

/// Runs the requested report and returns the text to print.
///
/// When `--trace PATH` or `--cycle-accounting PATH` was given, also writes
/// the trace of a dedicated traced run or the observed point's breakdown
/// (see [`CliOptions::write_trace`] and
/// [`CliOptions::write_cycle_accounting`]) and appends its one-line summary.
pub fn run_report(report: Report, options: &CliOptions) -> String {
    let mut out = run_report_body(report, options);
    if let Some(traced) = options.write_trace() {
        if !out.ends_with('\n') && !out.is_empty() {
            out.push('\n');
        }
        match traced {
            Ok(summary) => out.push_str(&summary),
            Err(error) => out.push_str(&format!("trace failed: {error}")),
        }
        out.push('\n');
    }
    if let Some(accounted) = options.write_cycle_accounting() {
        if !out.ends_with('\n') && !out.is_empty() {
            out.push('\n');
        }
        match accounted {
            Ok(summary) => out.push_str(&summary),
            Err(error) => out.push_str(&format!("cycle accounting failed: {error}")),
        }
        out.push('\n');
    }
    out
}

fn run_report_body(report: Report, options: &CliOptions) -> String {
    match report {
        Report::Table1 => options.config().table1(),
        Report::Table2 => workloads::characterize::to_table(&characterize()),
        Report::Ablations => run_ablations(options),
        _ => {
            let suite = options.run_suite();
            let mut out = String::new();
            match report {
                Report::Fig7 => out.push_str(&suite.fig7().to_table()),
                Report::Fig8 => out.push_str(&suite.fig8().to_table()),
                Report::Fig9 => out.push_str(&suite.fig9().to_table()),
                Report::Fig10 => out.push_str(&suite.fig10().to_table()),
                Report::Fig11 => out.push_str(&suite.fig11().to_table()),
                Report::Full => {
                    out.push_str(&options.config().table1());
                    out.push('\n');
                    out.push_str(&workloads::characterize::to_table(&characterize()));
                    out.push('\n');
                    out.push_str(&suite.fig7().to_table());
                    out.push('\n');
                    out.push_str(&suite.fig8().to_table());
                    out.push('\n');
                    out.push_str(&suite.fig9().to_table());
                    out.push('\n');
                    out.push_str(&suite.fig10().to_table());
                    out.push('\n');
                    out.push_str(&suite.fig11().to_table());
                    out.push('\n');
                    out.push_str(&suite.summary().to_table());
                }
                _ => unreachable!("handled above"),
            }
            if options.json {
                out.push('\n');
                out.push_str(&suite.summary().to_json());
                out.push('\n');
            }
            out
        }
    }
}

fn run_ablations(options: &CliOptions) -> String {
    let config = options.config();
    let ctx = options.context();
    let mut out = String::new();
    let filter_points = ablations::filter_size_sweep(
        &ctx,
        &config,
        NasBenchmark::Is,
        &[8, 16, 32, 48, 96],
        options.scale * 0.5,
    );
    out.push_str(&ablations::filter_size_table(&filter_points));
    out.push('\n');
    let spm_sizes = [
        simkernel::ByteSize::kib(8),
        simkernel::ByteSize::kib(16),
        simkernel::ByteSize::kib(32),
        simkernel::ByteSize::kib(64),
    ];
    let spm_points = ablations::spm_size_sweep(
        &ctx,
        &config,
        NasBenchmark::Cg,
        &spm_sizes,
        options.scale * 0.5,
    );
    out.push_str(&ablations::spm_size_table(&spm_points));
    out.push('\n');
    let intensity_points = ablations::guarded_intensity_sweep(
        &ctx,
        &config,
        &[0.0, 0.5, 1.0, 2.0, 4.0],
        options.scale * 0.25,
    );
    out.push_str(&ablations::guarded_intensity_table(&intensity_points));
    out.push('\n');
    let mut meshes = vec![16, options.cores];
    meshes.sort_unstable();
    meshes.dedup();
    let contention_points =
        ablations::noc_contention_sweep(&meshes, &[0.02, 0.05, 0.1, 0.2], 10_000);
    out.push_str(&ablations::noc_contention_table(&contention_points));
    out.push('\n');
    let protocol_points = ablations::protocol_comparison_sweep(
        &ctx,
        &config,
        &options.benchmarks,
        options.scale * 0.5,
    );
    out.push_str(&ablations::protocol_comparison_table(&protocol_points));
    if options.json {
        out.push('\n');
        out.push_str(&ablations::protocol_comparison_json(&protocol_points));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, CliError> {
        CliOptions::parse(args.iter().map(|s| s.to_string()))
    }

    /// The error message of an argument list that must be rejected.
    fn invalid(args: &[&str]) -> String {
        match parse(args) {
            Err(CliError::Invalid(message)) => message,
            other => panic!("{args:?} should be rejected, got {other:?}"),
        }
    }

    #[test]
    fn parse_defaults_and_overrides() {
        let d = parse(&[]).unwrap();
        assert_eq!(d.cores, 64);
        assert_eq!(d.benchmarks.len(), 6);
        assert!(!d.json);

        let o = parse(&[
            "--cores",
            "8",
            "--scale",
            "0.25",
            "--benchmarks",
            "cg,is",
            "--json",
            "--jobs",
            "3",
            "--cache-dir",
            "target/test-cache",
        ])
        .unwrap();
        assert_eq!(o.cores, 8);
        assert_eq!(o.scale, 0.25);
        assert_eq!(o.benchmarks, vec![NasBenchmark::Cg, NasBenchmark::Is]);
        assert!(o.json);
        assert_eq!(o.config().cores, 8);
        assert_eq!(o.jobs, 3);
        assert_eq!(o.cache_dir, Some(PathBuf::from("target/test-cache")));
        let ctx = o.context();
        assert_eq!(ctx.executor.jobs(), 3);
        assert_eq!(
            ctx.cache.as_ref().map(|c| c.dir().to_path_buf()),
            Some(PathBuf::from("target/test-cache"))
        );
        // An unknown flag is an error, never a silently ignored typo.
        let error = invalid(&["--cores", "8", "--bogus"]);
        assert!(error.contains("'--bogus'"), "{error}");
    }

    #[test]
    fn malformed_arguments_are_errors_not_defaults() {
        for (args, needle) in [
            (&["--cores", "abc"][..], "'abc'"),
            (&["--cores", "0"][..], "--cores"),
            (&["--scale", "-1"][..], "--scale"),
            (&["--benchmarks", "XX"][..], "'XX'"),
            (&["--benchmarks", ","][..], "--benchmarks"),
            (&["--jobs"][..], "--jobs needs a value"),
            (&["--sample-interval", "often"][..], "'often'"),
            // The deleted engines' knobs are unknown flags now.
            (&["--epoch-cycles", "1"][..], "'--epoch-cycles'"),
            (&["--engine", "interleaved"][..], "'--engine'"),
        ] {
            let error = invalid(args);
            assert!(error.contains(needle), "{args:?}: {error}");
        }
        assert_eq!(
            parse(&["--cores", "8", "--help"]).unwrap_err(),
            CliError::Help
        );
        assert_eq!(parse(&["-h"]).unwrap_err(), CliError::Help);
    }

    #[test]
    fn default_jobs_use_available_parallelism_and_no_cache() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.jobs, 0);
        assert_eq!(o.cache_dir, None);
        let ctx = o.context();
        assert!(ctx.executor.jobs() >= 1);
        assert!(ctx.cache.is_none());
    }

    #[test]
    fn bare_cache_flag_selects_the_default_directory() {
        let o = parse(&["--cache"]).unwrap();
        assert_eq!(o.cache_dir, Some(ResultCache::default_dir()));
    }

    #[test]
    fn noc_model_flag_threads_into_the_configuration() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.noc_model, noc::NocModel::Analytic);
        assert_eq!(o.config().noc_model(), noc::NocModel::Analytic);
        for flag in ["discrete-event", "des"] {
            let o = parse(&["--noc-model", flag]).unwrap();
            assert_eq!(o.noc_model, noc::NocModel::DiscreteEvent, "{flag}");
            assert_eq!(o.config().noc_model(), noc::NocModel::DiscreteEvent);
        }
        // Unknown model names are rejected (see
        // strict_axis_flags_reject_unknown_values for the message shape).
    }

    #[test]
    fn debug_cores_flag_threads_into_the_configuration() {
        let o = parse(&[]).unwrap();
        assert!(!o.debug_cores);
        assert!(!o.config().debug_cores);
        let o = parse(&["--debug-cores"]).unwrap();
        assert!(o.debug_cores);
        assert!(o.config().debug_cores);
    }

    #[test]
    fn protocol_flag_threads_into_the_configuration() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.protocol, CoherenceProtocol::FilterDir);
        assert_eq!(o.config().coherence_protocol, CoherenceProtocol::FilterDir);
        let o = parse(&["--protocol", "directory"]).unwrap();
        assert_eq!(o.protocol, CoherenceProtocol::Directory);
        assert_eq!(o.config().coherence_protocol, CoherenceProtocol::Directory);
    }

    #[test]
    fn strict_axis_flags_reject_unknown_values() {
        // `--protocol` and `--noc-model` share the
        // `--trace-categories` convention: an unknown value is an error
        // naming the valid set (the binary then exits with code 2).
        let error = invalid(&["--protocol", "moesi-2000"]);
        assert!(error.contains("--protocol"), "{error}");
        assert!(error.contains("moesi-2000"), "{error}");
        for id in campaign::PROTOCOL_IDS {
            assert!(error.contains(id), "{error}");
        }
        let error = invalid(&["--noc-model", "warp"]);
        for id in campaign::NOC_MODEL_IDS {
            assert!(error.contains(id), "{error}");
        }
        // The third strict flag, `--trace-categories`, predates the other
        // two and set the convention.
        let error = invalid(&["--trace-categories", "typo"]);
        assert!(error.contains("--trace-categories"), "{error}");
        // The Ok paths still parse every canonical identifier.
        for id in campaign::PROTOCOL_IDS {
            parse(&["--protocol", id]).unwrap();
        }
        for id in campaign::NOC_MODEL_IDS {
            parse(&["--noc-model", id]).unwrap();
        }
    }

    #[test]
    fn trace_category_parsing_names_the_valid_set() {
        let mask = parse_trace_categories("engine,dma").unwrap();
        assert!(mask.contains(simkernel::trace::TraceCategory::Engine));
        assert!(!mask.contains(simkernel::trace::TraceCategory::Noc));
        let error = parse_trace_categories("engine,typo").unwrap_err();
        assert!(error.contains("typo"), "{error}");
        for category in simkernel::trace::TraceCategory::ALL {
            assert!(error.contains(category.id()), "{error}");
        }
    }

    #[test]
    fn cycle_accounting_flag_parses_and_writes() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.cycle_accounting, None);
        assert!(o.write_cycle_accounting().is_none());

        let path = std::env::temp_dir().join("cycle-accounting-cli-test.json");
        let path = path.to_str().unwrap().to_owned();
        let mut o = parse(&["--cycle-accounting", &path]).unwrap();
        assert_eq!(o.cycle_accounting.as_deref(), Some(path.as_str()));
        // A real run on a tiny machine: the summary reports the written
        // path and the file round-trips as a breakdown document.
        o.cores = 4;
        o.scale = 1.0 / 512.0;
        o.benchmarks = vec![NasBenchmark::Cg];
        let summary = o.write_cycle_accounting().unwrap().unwrap();
        assert!(summary.contains(&path), "{summary}");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = simkernel::Json::parse(&text).unwrap();
        let breakdown = simkernel::CycleBreakdown::from_json(&doc).unwrap();
        breakdown.check_exhaustive().unwrap();
        assert_eq!(
            doc.get("benchmark").and_then(simkernel::Json::as_str),
            Some("CG")
        );
    }

    #[test]
    fn observed_runs_match_the_suite_point() {
        // The observed point is the very run whose numbers the figure
        // prints: same data scale, same seed.
        let mut o = parse(&["--cores", "4", "--scale", "0.001", "--jobs", "1"]).unwrap();
        o.benchmarks = vec![NasBenchmark::Cg];
        let suite = o.run_suite();
        let expected = suite
            .result("CG", MachineKind::HybridProposed)
            .unwrap()
            .to_json();
        let (config, spec, kind) = o.observed_point().unwrap();
        let machine = crate::Machine::new(kind, config);
        assert_eq!(machine.run_traced(&spec).0.to_json(), expected);
        assert_eq!(machine.run(&spec).to_json(), expected);
    }

    #[test]
    fn cycle_accounting_with_a_cache_replays_the_cached_point() {
        let dir = std::env::temp_dir().join(format!(
            "cycle-accounting-cache-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("cycles.json");
        let path = path.to_str().unwrap().to_owned();
        let cache = dir.join("cache");
        let o = parse(&[
            "--cores",
            "4",
            "--scale",
            "0.002",
            "--benchmarks",
            "CG",
            "--jobs",
            "1",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--cycle-accounting",
            &path,
        ])
        .unwrap();
        let first = o.write_cycle_accounting().unwrap().unwrap();
        assert!(first.contains("executed 1, cache hits 0"), "{first}");
        let written = std::fs::read(&path).unwrap();
        // The second call is served from the cache: no simulation runs, and
        // the file is byte-identical.
        let second = o.write_cycle_accounting().unwrap().unwrap();
        assert!(second.contains("executed 0, cache hits 1"), "{second}");
        assert_eq!(std::fs::read(&path).unwrap(), written);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn static_reports_render_without_running_simulations() {
        let options = CliOptions::default();
        let t1 = run_report(Report::Table1, &options);
        assert!(t1.contains("SPMDir"));
        let t2 = run_report(Report::Table2, &options);
        assert!(t2.contains("CG"));
    }
}
