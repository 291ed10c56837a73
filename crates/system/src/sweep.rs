//! Lowering of campaign descriptors onto concrete machines, and the glue
//! that runs whole sweeps through the campaign executor and cache.
//!
//! The `campaign` crate deliberately knows nothing about the simulator: its
//! [`RunDescriptor`]s are plain data.  This module gives them meaning —
//! [`lower_descriptor`] turns one into a [`SystemConfig`] + benchmark spec +
//! [`MachineKind`] triple — and packages the common "enumerate, lower,
//! execute in parallel, cache, aggregate" pipeline behind [`run_points`].
//!
//! Cache keys are derived from the **lowered** run inputs (the full `Debug`
//! rendition of the configuration and workload spec plus the machine kind
//! and cache-format version), not from the descriptor: every knob that can
//! change a simulation's outcome is part of its content address, including
//! knobs a descriptor cannot express (used by the experiment-suite path).

use campaign::{
    run_campaign, CacheKey, CampaignReport, Executor, PointMetrics, PointRecord, ResultCache,
    RunDescriptor, CACHE_FORMAT,
};
use simkernel::ByteSize;
use workloads::nas::NasBenchmark;
use workloads::BenchmarkSpec;

use crate::config::{MachineKind, SystemConfig};
use crate::machine::{Machine, RunResult};
use crate::resultio::run_result_codec;

/// Lowers a descriptor to the run inputs it describes.
///
/// The descriptor's content-derived [`RunDescriptor::seed`] becomes the
/// workload trace seed, so every point of a sweep streams different (but
/// fully reproducible) addresses regardless of which worker runs it.
pub fn lower_descriptor(
    d: &RunDescriptor,
) -> Result<(SystemConfig, BenchmarkSpec, MachineKind), String> {
    let kind = MachineKind::from_id(&d.machine)
        .ok_or_else(|| format!("unknown machine kind '{}'", d.machine))?;
    let benchmark = NasBenchmark::from_name(&d.benchmark)
        .ok_or_else(|| format!("unknown benchmark '{}'", d.benchmark))?;
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
    if let Some(model) = &d.noc_model {
        let model =
            noc::NocModel::from_id(model).ok_or_else(|| format!("unknown NoC model '{model}'"))?;
        config.set_noc_model(model);
    }
    if let Some(protocol) = &d.protocol {
        config.coherence_protocol = crate::config::CoherenceProtocol::from_id(protocol)
            .ok_or_else(|| format!("unknown coherence protocol '{protocol}'"))?;
    }
    config.trace_seed = d.seed();
    let spec = benchmark.spec_scaled(benchmark.recommended_scale() * d.scale_multiplier);
    Ok((config, spec, kind))
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
    config.debug_cores = false;
    config.trace = simkernel::trace::TraceSettings::default();
    // `engine_jobs` and `cycle_accounting` have no reader (see their docs);
    // pinned so their values never address a different cache entry.
    config.engine_jobs = 1;
    config.cycle_accounting = false;
    CacheKey::from_fields([
        ("format", CACHE_FORMAT.to_string()),
        ("kind", kind.id().to_owned()),
        ("config", format!("{config:?}")),
        ("spec", format!("{spec:?}")),
    ])
}

/// Lowers and executes a single descriptor.
pub fn execute_descriptor(d: &RunDescriptor) -> Result<RunResult, String> {
    let (config, spec, kind) = lower_descriptor(d)?;
    Ok(Machine::new(kind, config).run(&spec))
}

/// One fully lowered run: everything [`Machine::run`] needs.
pub type LoweredRun = (SystemConfig, BenchmarkSpec, MachineKind);

/// How a batch of runs should execute: on how many workers, and against
/// which result cache (if any).
///
/// This is the object the experiment suite, the ablation sweeps and the
/// campaign binary all funnel their runs through, which is what gives every
/// report binary `--jobs` parallelism and `--cache-dir` caching at once.
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

/// The compact metrics the campaign aggregation layer works on.
pub fn metrics_of(r: &RunResult) -> PointMetrics {
    PointMetrics {
        execution_cycles: r.execution_time.as_u64(),
        total_packets: r.total_packets(),
        total_energy_j: r.total_energy(),
        instructions: r.instructions,
        filter_hit_ratio: r.filter_hit_ratio,
        breakdown: *r.breakdown.totals().counts(),
        packets: r.traffic.packets_by_class(),
        flits: r.traffic.flits_by_class(),
    }
}

/// Zips points and results into aggregation records.
pub fn records_of(points: &[RunDescriptor], results: &[RunResult]) -> Vec<PointRecord> {
    points
        .iter()
        .zip(results)
        .map(|(d, r)| PointRecord {
            descriptor: d.clone(),
            metrics: metrics_of(r),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use campaign::SweepSpec;

    fn quick_point() -> RunDescriptor {
        let mut d = RunDescriptor::new("CG", "hybrid-proposed", 4);
        d.scale_multiplier = 1.0 / 512.0;
        d.small_machine = true;
        d
    }

    #[test]
    fn lowering_applies_every_override() {
        let mut d = quick_point();
        d.spm_kib = Some(16);
        d.filter_entries = Some(8);
        d.filterdir_entries = Some(256);
        d.noc_model = Some("discrete-event".into());
        d.protocol = Some("directory".into());
        let (config, spec, kind) = lower_descriptor(&d).unwrap();
        assert_eq!(kind, MachineKind::HybridProposed);
        assert_eq!(config.cores, 4);
        assert_eq!(config.spm.size, ByteSize::kib(16));
        assert_eq!(config.protocol.spm_size, ByteSize::kib(16));
        assert_eq!(config.protocol.filter_entries, 8);
        assert_eq!(config.protocol.filterdir_entries, 256);
        assert_eq!(config.noc_model(), noc::NocModel::DiscreteEvent);
        assert_eq!(
            config.memory_cache_baseline.noc.model,
            noc::NocModel::DiscreteEvent
        );
        assert_eq!(
            config.coherence_protocol,
            crate::config::CoherenceProtocol::Directory
        );
        assert_eq!(config.trace_seed, d.seed());
        assert_eq!(spec.name, "CG");
        assert!(spec.input.contains("scale"));
    }

    #[test]
    fn lowering_defaults_to_the_analytic_noc_and_rejects_unknown_models() {
        let (config, _, _) = lower_descriptor(&quick_point()).unwrap();
        assert_eq!(config.noc_model(), noc::NocModel::Analytic);
        let mut d = quick_point();
        d.noc_model = Some("wormhole".into());
        let err = lower_descriptor(&d).unwrap_err();
        assert!(err.contains("wormhole"), "{err}");
    }

    #[test]
    fn lowering_defaults_to_filterdir_and_rejects_unknown_protocols() {
        let (config, _, _) = lower_descriptor(&quick_point()).unwrap();
        assert_eq!(
            config.coherence_protocol,
            crate::config::CoherenceProtocol::FilterDir
        );
        let mut d = quick_point();
        d.protocol = Some("moesi-2000".into());
        let err = lower_descriptor(&d).unwrap_err();
        assert!(err.contains("moesi-2000"), "{err}");
    }

    #[test]
    fn lowering_rejects_nonsense() {
        let mut d = quick_point();
        d.benchmark = "NOPE".into();
        assert!(lower_descriptor(&d).is_err());
        let mut d = quick_point();
        d.machine = "quantum".into();
        assert!(lower_descriptor(&d).is_err());
        let mut d = quick_point();
        d.cores = 0;
        assert!(lower_descriptor(&d).is_err());
        let mut d = quick_point();
        d.scale_multiplier = -1.0;
        assert!(lower_descriptor(&d).is_err());
        assert!(execute_descriptor(&d).is_err());
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
        directory.coherence_protocol = crate::config::CoherenceProtocol::Directory;
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
        bad.benchmark = "NOPE".into();
        let err = run_points(&RunContext::serial(), &[quick_point(), bad]).unwrap_err();
        assert!(err.contains("NOPE"), "{err}");
    }

    #[test]
    fn tiny_sweep_runs_and_aggregates() {
        let spec = SweepSpec::new(&["CG"])
            .with_cores(&[4])
            .with_scales(&[1.0 / 512.0])
            .small();
        let points = spec.points();
        assert_eq!(points.len(), 3);
        let report = run_points(&RunContext::serial(), &points).unwrap();
        assert_eq!(report.executed, 3);
        let records = records_of(&points, &report.results);
        let summary = campaign::summarize(&records);
        assert_eq!(summary.rows.len(), 1);
        let row = &summary.rows[0];
        assert!(row.speedup.is_some());
        assert!(row.protocol_overhead.unwrap() >= 1.0);
        for r in &report.results {
            let metrics = metrics_of(r);
            assert!(metrics.execution_cycles > 0);
            assert_eq!(metrics.packets.iter().sum::<u64>(), metrics.total_packets);
            assert_eq!(metrics.flits.iter().sum::<u64>(), r.traffic.total_flits());
        }
    }

    #[test]
    fn traffic_columns_follow_the_message_classes() {
        let ids: Vec<&str> = noc::MessageClass::ALL.iter().map(|c| c.id()).collect();
        assert_eq!(ids, campaign::aggregate::TRAFFIC_CLASSES);
    }

    #[test]
    fn campaign_breakdowns_sum_to_the_elapsed_cycles() {
        let spec = SweepSpec::new(&["CG"])
            .with_cores(&[4])
            .with_scales(&[1.0 / 512.0])
            .small();
        let points = spec.points();
        let report = run_points(&RunContext::serial(), &points).unwrap();
        let records = records_of(&points, &report.results);
        for (record, result) in records.iter().zip(&report.results) {
            let breakdown = &result.breakdown;
            breakdown.check_exhaustive().unwrap();
            assert_eq!(breakdown.cores.len(), 4, "{record:?}");
            // `cpu.cycles` sums every core's final clock.
            assert_eq!(
                breakdown.elapsed_total(),
                result.stats.count("cpu.cycles"),
                "{record:?}"
            );
            let slowest = breakdown.cores.iter().map(|c| c.elapsed).max();
            assert_eq!(slowest, Some(result.execution_time.as_u64()), "{record:?}");
            let total: u64 = record.metrics.breakdown.iter().sum();
            assert_eq!(total, breakdown.elapsed_total(), "{record:?}");
        }
    }
}
