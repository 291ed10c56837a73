//! Campaign points, their lowering onto concrete machines, and the glue
//! that runs whole sweeps through the campaign executor and cache.
//!
//! A [`SweepSpec`] enumerates [`RunDescriptor`]s, typed run points;
//! [`lower_descriptor`] turns one into a [`SystemConfig`] + benchmark spec +
//! [`MachineKind`] triple, [`run_points`] packages the common "enumerate,
//! lower, execute in parallel, cache" pipeline, and [`summarize`],
//! [`to_csv`] and [`to_json`] aggregate the `(point, result)` pairs.
//!
//! Every report run is a descriptor: the figures' suite, the filter, SPM
//! and protocol ablations, the `--trace`/`--cycle-accounting` point and the
//! `campaign` binary all go through [`lower_descriptor`].  Only two callers
//! build a [`LoweredRun`] by hand and submit it to
//! [`RunContext::run_lowered`]: the guarded-intensity ablation, which
//! lowers a descriptor and then edits the workload spec, and the hot-loop
//! tests, which set `track_values` on the configuration.
//!
//! Cache keys are derived from the **lowered** run inputs (the full `Debug`
//! rendition of the configuration and workload spec plus the machine kind
//! and cache-format version), not from the descriptor: every knob that can
//! change a simulation's outcome is part of its content address, including
//! the edits a descriptor cannot express.

use campaign::{run_campaign, CacheKey, CampaignReport, Executor, ResultCache, CACHE_FORMAT};
use simkernel::ByteSize;
use workloads::BenchmarkSpec;

pub use crate::aggregate::{summarize, to_csv, to_json, CampaignSummary, SummaryRow, CSV_COLUMNS};
use crate::config::{MachineKind, SystemConfig};
use crate::machine::{Machine, RunResult};
use crate::resultio::run_result_codec;
pub use crate::spec::{RunDescriptor, SweepSpec};

/// Lowers a descriptor to the run inputs it describes.
///
/// The configuration keeps its [`SystemConfig::trace_seed`], the one seed
/// every run streams from: a campaign point is exactly the report
/// binaries' run of the same benchmark, machine, core count and scale, and
/// the machines, NoC models and protocols of one point stream the same
/// addresses, so their comparison is apples-to-apples.
pub fn lower_descriptor(
    d: &RunDescriptor,
) -> Result<(SystemConfig, BenchmarkSpec, MachineKind), String> {
    if d.cores == 0 {
        return Err("core count must be at least 1".into());
    }
    if !(d.scale_multiplier.is_finite() && d.scale_multiplier > 0.0) {
        return Err(format!(
            "scale multiplier must be positive and finite, got {}",
            d.scale_multiplier
        ));
    }
    let mut config = if d.small_machine {
        SystemConfig::small(d.cores)
    } else {
        SystemConfig::with_cores(d.cores)
    };
    if let Some(kib) = d.spm_kib {
        if kib == 0 {
            return Err("SPM size must be at least 1 KiB".into());
        }
        let size = ByteSize::kib(kib);
        config.spm.size = size;
        config.protocol.spm_size = size;
    }
    if let Some(entries) = d.filter_entries {
        if entries == 0 {
            return Err("filter entry count must be at least 1".into());
        }
        config.protocol.filter_entries = entries;
    }
    if let Some(entries) = d.filterdir_entries {
        if entries == 0 {
            return Err("filterDir entry count must be at least 1".into());
        }
        config.protocol.filterdir_entries = entries;
    }
    if let Some(model) = d.noc_model {
        config.set_noc_model(model);
    }
    if let Some(protocol) = d.protocol {
        config.coherence_protocol = protocol;
    }
    let benchmark = d.benchmark;
    let spec = benchmark.spec_scaled(benchmark.recommended_scale() * d.scale_multiplier);
    Ok((config, spec, d.machine))
}

/// The content-addressed cache key of one lowered run.
///
/// Hashes the complete `Debug` renditions of the configuration and workload
/// spec (both are plain-data structs whose `Debug` output includes every
/// field, with round-trippable float formatting), the machine kind and the
/// cache-format version.  Reordering the *fields themselves* is harmless —
/// [`CacheKey::from_fields`] canonicalises — but any change to a value
/// addresses a different cache entry.
pub fn run_cache_key(kind: MachineKind, config: &SystemConfig, spec: &BenchmarkSpec) -> CacheKey {
    // Presentation-only knobs never reach the RunResult, so they must not
    // address different cache entries: pin them to their defaults before
    // rendering the configuration.  `track_values` is NOT pinned: value
    // tracking leaves the timing untouched but exports its own counter
    // (`cpu.lsq.value_forwards`), so tracked and timing-only runs are
    // different cache entries.
    let mut config = config.clone();
    config.trace = simkernel::trace::TraceSettings::default();
    // `debug_cores`, `engine_jobs` and `cycle_accounting` have no reader
    // (see their docs); pinned so their values never address a different
    // cache entry.
    config.debug_cores = false;
    config.engine_jobs = 1;
    config.cycle_accounting = false;
    CacheKey::from_fields([
        ("format", CACHE_FORMAT.to_string()),
        ("kind", kind.id().to_owned()),
        ("config", format!("{config:?}")),
        ("spec", format!("{spec:?}")),
    ])
}

/// One fully lowered run: everything [`Machine::run`] needs.
pub type LoweredRun = (SystemConfig, BenchmarkSpec, MachineKind);

/// How a batch of runs should execute: on how many workers, and against
/// which result cache (if any).
///
/// This is the object every report run and the campaign binary funnel
/// their runs through, which is what gives every report binary `--jobs`
/// parallelism and `--cache-dir` caching at once.
#[derive(Debug, Clone, Default)]
pub struct RunContext {
    /// The parallel executor (defaults to available parallelism).
    pub executor: Executor,
    /// The content-addressed result cache; `None` executes everything.
    pub cache: Option<ResultCache>,
}

impl RunContext {
    /// A context with an explicit executor and optional cache.
    pub fn new(executor: Executor, cache: Option<ResultCache>) -> Self {
        RunContext { executor, cache }
    }

    /// A single-worker, uncached context (the pre-campaign behaviour).
    pub fn serial() -> Self {
        RunContext {
            executor: Executor::serial(),
            cache: None,
        }
    }

    /// Executes a batch of lowered runs, serving repeats from the cache.
    ///
    /// Results come back in input order; the report carries the
    /// executed-vs-cached accounting.
    pub fn run_lowered(&self, runs: &[LoweredRun]) -> CampaignReport<RunResult> {
        run_campaign(
            &self.executor,
            self.cache.as_ref(),
            runs,
            |(config, spec, kind)| run_cache_key(*kind, config, spec),
            &run_result_codec(),
            |(config, spec, kind)| Machine::new(*kind, config.clone()).run(spec),
        )
    }
}

/// Runs a set of campaign points through `ctx`.
///
/// Every descriptor is validated by lowering *before* anything executes, so
/// a typo in one point fails the whole campaign fast instead of panicking a
/// worker thread halfway through.
pub fn run_points(
    ctx: &RunContext,
    points: &[RunDescriptor],
) -> Result<CampaignReport<RunResult>, String> {
    let lowered: Vec<LoweredRun> = points
        .iter()
        .map(|d| lower_descriptor(d).map_err(|e| format!("point {}: {e}", d.label())))
        .collect::<Result<_, _>>()?;
    Ok(ctx.run_lowered(&lowered))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoherenceProtocol;
    use noc::NocModel;
    use workloads::nas::NasBenchmark;

    fn quick_point() -> RunDescriptor {
        let mut d = RunDescriptor::new(NasBenchmark::Cg, MachineKind::HybridProposed, 4);
        d.scale_multiplier = 1.0 / 512.0;
        d.small_machine = true;
        d
    }

    fn quick_sweep() -> SweepSpec {
        SweepSpec::new(&[NasBenchmark::Cg])
            .with_cores(&[4])
            .with_scales(&[1.0 / 512.0])
            .small()
    }

    /// The CSV export's data rows from `execution_cycles` (column 11) on,
    /// parsed as integers; the float columns read 0.
    fn csv_rows(csv: &str) -> Vec<Vec<u64>> {
        csv.lines()
            .skip(1)
            .map(|line| {
                line.split(',')
                    .skip(10)
                    .map(|v| v.parse().unwrap_or(0))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn lowering_applies_every_override() {
        let mut d = quick_point();
        d.spm_kib = Some(16);
        d.filter_entries = Some(8);
        d.filterdir_entries = Some(256);
        d.noc_model = Some(NocModel::DiscreteEvent);
        d.protocol = Some(CoherenceProtocol::Directory);
        let (config, spec, kind) = lower_descriptor(&d).unwrap();
        assert_eq!(kind, MachineKind::HybridProposed);
        assert_eq!(config.cores, 4);
        assert_eq!(config.spm.size, ByteSize::kib(16));
        assert_eq!(config.protocol.spm_size, ByteSize::kib(16));
        assert_eq!(config.protocol.filter_entries, 8);
        assert_eq!(config.protocol.filterdir_entries, 256);
        assert_eq!(config.noc_model(), NocModel::DiscreteEvent);
        assert_eq!(
            config.memory_cache_baseline.noc.model,
            NocModel::DiscreteEvent
        );
        assert_eq!(config.coherence_protocol, CoherenceProtocol::Directory);
        assert_eq!(config.trace_seed, SystemConfig::with_cores(4).trace_seed);
        assert_eq!(spec.name, "CG");
        assert!(spec.input.contains("scale"));
    }

    #[test]
    fn lowering_defaults_to_the_analytic_noc() {
        let (config, _, _) = lower_descriptor(&quick_point()).unwrap();
        assert_eq!(config.noc_model(), NocModel::Analytic);
    }

    #[test]
    fn lowering_defaults_to_filterdir() {
        let (config, _, _) = lower_descriptor(&quick_point()).unwrap();
        assert_eq!(config.coherence_protocol, CoherenceProtocol::FilterDir);
    }

    #[test]
    fn lowering_rejects_nonsense() {
        let mut d = quick_point();
        d.cores = 0;
        assert!(lower_descriptor(&d).is_err());
        let mut d = quick_point();
        d.scale_multiplier = -1.0;
        assert!(lower_descriptor(&d).is_err());
        // A zero size is an error, not a silent 1 KiB or 1-entry machine.
        let mut d = quick_point();
        d.spm_kib = Some(0);
        assert!(lower_descriptor(&d).unwrap_err().contains("SPM size"));
        let mut d = quick_point();
        d.filter_entries = Some(0);
        assert!(lower_descriptor(&d).unwrap_err().contains("filter entry"));
        let mut d = quick_point();
        d.filterdir_entries = Some(0);
        assert!(lower_descriptor(&d)
            .unwrap_err()
            .contains("filterDir entry"));
    }

    #[test]
    fn cache_key_tracks_lowered_content() {
        let (config, spec, kind) = lower_descriptor(&quick_point()).unwrap();
        let base = run_cache_key(kind, &config, &spec);
        assert_eq!(base, run_cache_key(kind, &config, &spec));
        assert_ne!(
            base,
            run_cache_key(MachineKind::HybridIdeal, &config, &spec)
        );
        let mut bigger = config.clone();
        bigger.protocol.filter_entries += 1;
        assert_ne!(base, run_cache_key(kind, &bigger, &spec));
        // Timing-relevant knobs address new entries; presentation-only
        // knobs do not.
        let mut directory = config.clone();
        directory.coherence_protocol = CoherenceProtocol::Directory;
        assert_ne!(base, run_cache_key(kind, &directory, &spec));
        let mut debug = config.clone();
        debug.debug_cores = true;
        assert_eq!(base, run_cache_key(kind, &debug, &spec));
        let mut traced = config.clone();
        traced.trace = simkernel::trace::TraceSettings::enabled();
        traced.trace.sample_interval = 123;
        assert_eq!(base, run_cache_key(kind, &traced, &spec));
        let mut accounted = config.clone();
        accounted.cycle_accounting = true;
        assert_eq!(base, run_cache_key(kind, &accounted, &spec));
        let mut pooled = config.clone();
        pooled.engine_jobs = 8;
        assert_eq!(base, run_cache_key(kind, &pooled, &spec));
        let mut rescaled = spec.clone();
        rescaled.kernels[0].outer_repeats += 1;
        assert_ne!(base, run_cache_key(kind, &config, &rescaled));
    }

    #[test]
    fn run_points_validates_before_executing() {
        let mut bad = quick_point();
        bad.cores = 0;
        let err = run_points(&RunContext::serial(), &[quick_point(), bad]).unwrap_err();
        assert!(err.contains("CG/hybrid-proposed/0c"), "{err}");
    }

    #[test]
    fn tiny_sweep_runs_and_aggregates() {
        let points = quick_sweep().points();
        assert_eq!(points.len(), 3);
        let report = run_points(&RunContext::serial(), &points).unwrap();
        assert_eq!(report.executed, 3);
        let records: Vec<_> = points.iter().zip(&report.results).collect();
        let summary = summarize(&records);
        assert_eq!(summary.rows.len(), 1);
        let row = &summary.rows[0];
        assert!(row.speedup.is_some());
        assert!(row.protocol_overhead.unwrap() >= 1.0);
        // The per-class traffic columns (25-30 packets, 31-36 flits) add up
        // to the run's totals.
        for (row, result) in csv_rows(&to_csv(&records)).iter().zip(&report.results) {
            assert!(row[0] > 0);
            assert_eq!(row[14..20].iter().sum::<u64>(), result.total_packets());
            assert_eq!(
                row[20..26].iter().sum::<u64>(),
                result.traffic.total_flits()
            );
        }
    }

    #[test]
    fn campaign_breakdowns_sum_to_the_elapsed_cycles() {
        let points = quick_sweep().points();
        let report = run_points(&RunContext::serial(), &points).unwrap();
        let records: Vec<_> = points.iter().zip(&report.results).collect();
        let rows = csv_rows(&to_csv(&records));
        for ((point, result), row) in records.iter().zip(&rows) {
            let breakdown = &result.breakdown;
            breakdown.check_exhaustive().unwrap();
            assert_eq!(breakdown.cores.len(), 4, "{}", point.label());
            // `cpu.cycles` sums every core's final clock.
            assert_eq!(
                breakdown.elapsed_total(),
                result.stats.count("cpu.cycles"),
                "{}",
                point.label()
            );
            let slowest = breakdown.cores.iter().map(|c| c.elapsed).max();
            assert_eq!(slowest, Some(result.execution_time.as_u64()));
            // The `cycles_*` columns (16-24) sum to the elapsed cycles.
            let total: u64 = row[5..14].iter().sum();
            assert_eq!(total, breakdown.elapsed_total(), "{}", point.label());
        }
    }
}
