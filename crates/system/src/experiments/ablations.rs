//! Design-choice ablation sweeps (beyond the paper's figures).
//!
//! The paper fixes the protocol's structure sizes (filter = 48 entries,
//! filterDir = 4K entries) and the SPM partitioning without showing the
//! sensitivity to those choices.  These sweeps make the trade-offs visible
//! and double as stress tests for the protocol implementation:
//!
//! * [`filter_size_sweep`] — filter capacity vs hit ratio and execution-time
//!   overhead (run on the benchmark with the largest guarded data set);
//! * [`spm_size_sweep`] — scratchpad (and therefore tile) size vs the
//!   control/sync/work split of the hybrid system;
//! * [`guarded_intensity_sweep`] — how many guarded accesses per iteration
//!   the hybrid system tolerates before losing its advantage over the
//!   cache-based baseline;
//! * [`noc_contention_sweep`] — injection-rate × mesh-size × NoC-model grid
//!   that sets the zero-load analytic network against the DES network
//!   machine runs use, and measures how much queueing the filterDir home
//!   tiles actually see (the paper *claims* "contention in the filterDir
//!   is very low"; this sweep measures it);
//! * [`protocol_comparison_sweep`] — the paper's cost claim, measured: the
//!   same benchmarks on the proposed machine under the filter/filterDir
//!   protocol vs the plain home-directory baseline, comparing cycles and
//!   coherence traffic (what the filters actually save).

use serde::{Deserialize, Serialize};
use simkernel::json::Json;
use simkernel::ByteSize;

use noc::{run_synthetic, Noc, NocConfig, NocModel, SyntheticTraffic};
use workloads::nas::NasBenchmark;
use workloads::{BenchmarkSpec, Phase};

use crate::config::{CoherenceProtocol, MachineKind, SystemConfig};
use crate::report::{fmt_percent, fmt_ratio, TableBuilder};
use crate::sweep::{LoweredRun, RunContext};

/// One point of the filter-size sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FilterSizePoint {
    /// Filter entries per core.
    pub filter_entries: usize,
    /// Measured filter hit ratio.
    pub hit_ratio: f64,
    /// Execution time relative to the ideal-coherence hybrid.
    pub time_overhead: f64,
}

/// Sweeps the per-core filter capacity on `benchmark`.
///
/// The ideal-coherence baseline and every filter size are submitted to the
/// context's executor as one batch, so the whole sweep parallelises (and
/// caches) like any other campaign.
pub fn filter_size_sweep(
    ctx: &RunContext,
    config: &SystemConfig,
    benchmark: NasBenchmark,
    sizes: &[usize],
    scale_multiplier: f64,
) -> Vec<FilterSizePoint> {
    let spec = benchmark.spec_scaled(benchmark.recommended_scale() * scale_multiplier);
    let mut runs: Vec<LoweredRun> = vec![(config.clone(), spec.clone(), MachineKind::HybridIdeal)];
    for &entries in sizes {
        let mut cfg = config.clone();
        cfg.protocol.filter_entries = entries.max(1);
        runs.push((cfg, spec.clone(), MachineKind::HybridProposed));
    }
    let results = ctx.run_lowered(&runs).results;
    let ideal_time = results[0].execution_time.as_f64().max(1.0);
    sizes
        .iter()
        .zip(&results[1..])
        .map(|(&entries, run)| FilterSizePoint {
            filter_entries: entries,
            hit_ratio: run.filter_hit_ratio.unwrap_or(0.0),
            time_overhead: run.execution_time.as_f64() / ideal_time,
        })
        .collect()
}

/// Formats a filter-size sweep as a text table.
pub fn filter_size_table(points: &[FilterSizePoint]) -> String {
    let mut t = TableBuilder::new("Ablation: filter size vs hit ratio and overhead");
    t.columns(&["Filter entries", "Hit ratio", "Time vs ideal"]);
    for p in points {
        t.row_owned(vec![
            p.filter_entries.to_string(),
            fmt_percent(p.hit_ratio),
            fmt_ratio(p.time_overhead),
        ]);
    }
    t.build()
}

/// One point of the SPM-size sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpmSizePoint {
    /// Scratchpad size per core.
    pub spm_size: ByteSize,
    /// Fraction of time in the control phase.
    pub control_fraction: f64,
    /// Fraction of time in the synchronization phase.
    pub sync_fraction: f64,
    /// Fraction of time in the work phase.
    pub work_fraction: f64,
    /// Speedup over the cache-based baseline.
    pub speedup: f64,
}

/// Sweeps the scratchpad size (and therefore the tile size) on `benchmark`.
pub fn spm_size_sweep(
    ctx: &RunContext,
    config: &SystemConfig,
    benchmark: NasBenchmark,
    sizes: &[ByteSize],
    scale_multiplier: f64,
) -> Vec<SpmSizePoint> {
    let spec = benchmark.spec_scaled(benchmark.recommended_scale() * scale_multiplier);
    let mut runs: Vec<LoweredRun> = vec![(config.clone(), spec.clone(), MachineKind::CacheOnly)];
    for &size in sizes {
        let mut cfg = config.clone();
        cfg.spm.size = size;
        cfg.protocol.spm_size = size;
        runs.push((cfg, spec.clone(), MachineKind::HybridProposed));
    }
    let results = ctx.run_lowered(&runs).results;
    let cache_time = results[0].execution_time.as_f64();
    sizes
        .iter()
        .zip(&results[1..])
        .map(|(&size, run)| SpmSizePoint {
            spm_size: size,
            control_fraction: run.phase_fraction(Phase::Control),
            sync_fraction: run.phase_fraction(Phase::Sync),
            work_fraction: run.phase_fraction(Phase::Work),
            speedup: cache_time / run.execution_time.as_f64().max(1.0),
        })
        .collect()
}

/// Formats an SPM-size sweep as a text table.
pub fn spm_size_table(points: &[SpmSizePoint]) -> String {
    let mut t = TableBuilder::new("Ablation: SPM (tile) size vs phase split and speedup");
    t.columns(&["SPM size", "Control", "Sync", "Work", "Speedup vs cache"]);
    for p in points {
        t.row_owned(vec![
            p.spm_size.to_string(),
            fmt_percent(p.control_fraction),
            fmt_percent(p.sync_fraction),
            fmt_percent(p.work_fraction),
            fmt_ratio(p.speedup),
        ]);
    }
    t.build()
}

/// One point of the guarded-intensity sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GuardedIntensityPoint {
    /// Guarded accesses per loop iteration.
    pub guarded_per_iteration: f64,
    /// Speedup of the hybrid (proposed) system over the cache-based system.
    pub speedup: f64,
    /// Filter hit ratio at this intensity.
    pub filter_hit_ratio: Option<f64>,
}

/// Sweeps the number of guarded accesses per iteration of a CG-like kernel.
pub fn guarded_intensity_sweep(
    ctx: &RunContext,
    config: &SystemConfig,
    intensities: &[f64],
    scale_multiplier: f64,
) -> Vec<GuardedIntensityPoint> {
    let mut runs: Vec<LoweredRun> = Vec::with_capacity(intensities.len() * 2);
    for &intensity in intensities {
        let mut spec: BenchmarkSpec =
            NasBenchmark::Cg.spec_scaled(NasBenchmark::Cg.recommended_scale() * scale_multiplier);
        for kernel in &mut spec.kernels {
            for random in &mut kernel.random_refs {
                random.accesses_per_iteration = intensity;
            }
        }
        runs.push((config.clone(), spec.clone(), MachineKind::CacheOnly));
        runs.push((config.clone(), spec, MachineKind::HybridProposed));
    }
    let results = ctx.run_lowered(&runs).results;
    intensities
        .iter()
        .zip(results.chunks_exact(2))
        .map(|(&intensity, pair)| {
            let (cache, hybrid) = (&pair[0], &pair[1]);
            GuardedIntensityPoint {
                guarded_per_iteration: intensity,
                speedup: cache.execution_time.as_f64() / hybrid.execution_time.as_f64().max(1.0),
                filter_hit_ratio: hybrid.filter_hit_ratio,
            }
        })
        .collect()
}

/// Formats a guarded-intensity sweep as a text table.
pub fn guarded_intensity_table(points: &[GuardedIntensityPoint]) -> String {
    let mut t = TableBuilder::new("Ablation: guarded accesses per iteration vs hybrid speedup");
    t.columns(&[
        "Guarded / iteration",
        "Speedup vs cache",
        "Filter hit ratio",
    ]);
    for p in points {
        t.row_owned(vec![
            format!("{:.2}", p.guarded_per_iteration),
            fmt_ratio(p.speedup),
            p.filter_hit_ratio
                .map(fmt_percent)
                .unwrap_or_else(|| "n/a".into()),
        ]);
    }
    t.build()
}

/// One point of the NoC contention sweep: one mesh size, one injection
/// rate, one model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NocContentionPoint {
    /// Tiles in the mesh.
    pub cores: usize,
    /// Offered load in packets per node per cycle.
    pub injection_rate: f64,
    /// The model that produced this point.
    pub model: NocModel,
    /// Packets delivered.
    pub delivered: u64,
    /// Mean packet latency in cycles.
    pub mean_latency: f64,
    /// Worst packet latency in cycles.
    pub max_latency: f64,
    /// Mean zero-load latency of the same stream (the shared floor).
    pub zero_load_latency: f64,
    /// Worst measured per-link utilisation (DES only; 0 under the
    /// analytic model).
    pub max_link_utilization: f64,
    /// Total ejection-queue cycles over all home nodes (DES only) — the
    /// filterDir home-node pressure figure.
    pub home_queue_cycles: u64,
    /// Worst single home node's ejection-queue cycles (DES only).
    pub max_node_queue_cycles: u64,
    /// The node with that worst queue.
    pub hottest_node: usize,
}

/// The seed of the contention sweep's synthetic streams.  One fixed value:
/// the sweep compares models on *identical* traffic, so the seed is part of
/// the experiment definition, not an axis.
pub const NOC_CONTENTION_SEED: u64 = 0x15CA_2015;

/// Runs the injection-rate × mesh-size × model grid on synthetic traffic.
///
/// Every `(mesh, rate)` cell runs the *same* seeded packet stream under
/// both backends, sent in injection order as a machine run sends — the
/// zero-load analytic model and the discrete-event model measuring
/// per-link FIFOs — so adjacent points quantify how much queueing the
/// zero-load network leaves out.
pub fn noc_contention_sweep(
    meshes: &[usize],
    rates: &[f64],
    duration: u64,
) -> Vec<NocContentionPoint> {
    let mut points = Vec::with_capacity(meshes.len() * rates.len() * NocModel::ALL.len());
    for &cores in meshes {
        for &rate in rates {
            let traffic = SyntheticTraffic::uniform(rate, duration, NOC_CONTENTION_SEED);
            for model in NocModel::ALL {
                let mut noc = Noc::new(NocConfig::isca2015(cores).with_model(model));
                let report = run_synthetic(&mut noc, &traffic);
                points.push(NocContentionPoint {
                    cores,
                    injection_rate: rate,
                    model,
                    delivered: report.delivered,
                    mean_latency: report.mean_latency,
                    max_latency: report.max_latency,
                    zero_load_latency: report.mean_zero_load_latency,
                    max_link_utilization: report.max_link_utilization,
                    home_queue_cycles: report.total_eject_wait_cycles,
                    max_node_queue_cycles: report.max_node_eject_wait_cycles,
                    hottest_node: report.hottest_node,
                });
            }
        }
    }
    points
}

/// Formats the contention sweep as a text table, pairing the two models of
/// each `(mesh, rate)` cell so the divergence column is explicit.
pub fn noc_contention_table(points: &[NocContentionPoint]) -> String {
    let mut t = TableBuilder::new(
        "Ablation: NoC contention — zero-load analytic vs discrete-event measurement",
    );
    t.columns(&[
        "Mesh",
        "Inj rate",
        "Analytic lat",
        "DES lat",
        "DES/analytic",
        "Max link util",
        "Home queue cyc",
        "Worst node (cyc)",
    ]);
    // Group by (mesh, rate) cell rather than relying on generator order, so
    // filtered or re-sorted point lists still render every cell they cover.
    type Cell<'a> = (
        Option<&'a NocContentionPoint>,
        Option<&'a NocContentionPoint>,
    );
    let mut cells: Vec<((usize, u64), Cell<'_>)> = Vec::new();
    for p in points {
        let key = (p.cores, p.injection_rate.to_bits());
        let cell = match cells.iter_mut().find(|(k, _)| *k == key) {
            Some((_, cell)) => cell,
            None => {
                cells.push((key, (None, None)));
                &mut cells.last_mut().expect("just pushed").1
            }
        };
        match p.model {
            NocModel::Analytic => cell.0 = Some(p),
            NocModel::DiscreteEvent => cell.1 = Some(p),
        }
    }
    for (_, (analytic, des)) in &cells {
        let any = analytic.or(*des).expect("cell holds at least one point");
        let opt = |v: Option<String>| v.unwrap_or_else(|| "n/a".into());
        t.row_owned(vec![
            format!("{}", any.cores),
            format!("{:.3}", any.injection_rate),
            opt(analytic.map(|a| format!("{:.1}", a.mean_latency))),
            opt(des.map(|d| format!("{:.1}", d.mean_latency))),
            opt(analytic.zip(*des).map(|(a, d)| {
                fmt_ratio(if a.mean_latency > 0.0 {
                    d.mean_latency / a.mean_latency
                } else {
                    1.0
                })
            })),
            opt(des.map(|d| format!("{:.3}", d.max_link_utilization))),
            opt(des.map(|d| d.home_queue_cycles.to_string())),
            opt(des.map(|d| format!("node{} ({})", d.hottest_node, d.max_node_queue_cycles))),
        ]);
    }
    t.build()
}

/// The CSV column order used by [`noc_contention_csv`].
pub const NOC_CONTENTION_CSV_COLUMNS: [&str; 11] = [
    "cores",
    "injection_rate",
    "model",
    "delivered",
    "mean_latency",
    "max_latency",
    "zero_load_latency",
    "max_link_utilization",
    "home_queue_cycles",
    "max_node_queue_cycles",
    "hottest_node",
];

/// Exports the contention sweep as CSV, one row per point.
pub fn noc_contention_csv(points: &[NocContentionPoint]) -> String {
    let mut out = NOC_CONTENTION_CSV_COLUMNS.join(",");
    out.push('\n');
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{}\n",
            p.cores,
            p.injection_rate,
            p.model,
            p.delivered,
            p.mean_latency,
            p.max_latency,
            p.zero_load_latency,
            p.max_link_utilization,
            p.home_queue_cycles,
            p.max_node_queue_cycles,
            p.hottest_node,
        ));
    }
    out
}

/// Exports the contention sweep as a JSON array of point objects.
pub fn noc_contention_json(points: &[NocContentionPoint]) -> String {
    let array: Vec<Json> = points
        .iter()
        .map(|p| {
            Json::obj([
                ("cores", Json::from(p.cores as u64)),
                ("injection_rate", Json::from(p.injection_rate)),
                ("model", Json::str(p.model.id())),
                ("delivered", Json::from(p.delivered)),
                ("mean_latency", Json::from(p.mean_latency)),
                ("max_latency", Json::from(p.max_latency)),
                ("zero_load_latency", Json::from(p.zero_load_latency)),
                ("max_link_utilization", Json::from(p.max_link_utilization)),
                ("home_queue_cycles", Json::from(p.home_queue_cycles)),
                ("max_node_queue_cycles", Json::from(p.max_node_queue_cycles)),
                ("hottest_node", Json::from(p.hottest_node as u64)),
            ])
        })
        .collect();
    Json::Arr(array).pretty()
}

/// One row of the protocol-comparison sweep: one benchmark, both coherence
/// backends on the proposed machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolComparisonPoint {
    /// Benchmark name.
    pub benchmark: String,
    /// Execution time under the paper's filter/filterDir protocol.
    pub filterdir_cycles: u64,
    /// Execution time under the plain home-directory baseline.
    pub directory_cycles: u64,
    /// Coherence-protocol packets injected under filterDir.
    pub filterdir_cohprot_packets: u64,
    /// Coherence-protocol packets injected under the directory baseline.
    pub directory_cohprot_packets: u64,
    /// Total NoC packets under filterDir.
    pub filterdir_total_packets: u64,
    /// Total NoC packets under the directory baseline.
    pub directory_total_packets: u64,
    /// Filter hit ratio of the filterDir run (the directory run has none).
    pub filter_hit_ratio: Option<f64>,
    /// Home-directory consultations of the directory run.
    pub directory_requests: u64,
}

impl ProtocolComparisonPoint {
    /// Directory time over filterDir time (> 1 means the filters pay off).
    pub fn time_ratio(&self) -> f64 {
        self.directory_cycles as f64 / (self.filterdir_cycles as f64).max(1.0)
    }

    /// Directory coherence traffic over filterDir coherence traffic.
    pub fn cohprot_ratio(&self) -> f64 {
        self.directory_cohprot_packets as f64 / (self.filterdir_cohprot_packets as f64).max(1.0)
    }
}

/// Runs each benchmark on the proposed machine under both coherence
/// backends and pairs the results — the measured form of the paper's claim
/// that filtering guarded accesses is cheaper than consulting a home
/// directory on every one.
pub fn protocol_comparison_sweep(
    ctx: &RunContext,
    config: &SystemConfig,
    benchmarks: &[NasBenchmark],
    scale_multiplier: f64,
) -> Vec<ProtocolComparisonPoint> {
    let mut runs: Vec<LoweredRun> = Vec::with_capacity(benchmarks.len() * 2);
    for &benchmark in benchmarks {
        let spec = benchmark.spec_scaled(benchmark.recommended_scale() * scale_multiplier);
        for protocol in CoherenceProtocol::ALL {
            let mut cfg = config.clone();
            cfg.coherence_protocol = protocol;
            runs.push((cfg, spec.clone(), MachineKind::HybridProposed));
        }
    }
    let results = ctx.run_lowered(&runs).results;
    benchmarks
        .iter()
        .zip(results.chunks_exact(CoherenceProtocol::ALL.len()))
        .map(|(&benchmark, pair)| {
            let (filterdir, directory) = (&pair[0], &pair[1]);
            ProtocolComparisonPoint {
                benchmark: benchmark.name().to_owned(),
                filterdir_cycles: filterdir.execution_time.as_u64(),
                directory_cycles: directory.execution_time.as_u64(),
                filterdir_cohprot_packets: filterdir.traffic.packets(noc::MessageClass::CohProt),
                directory_cohprot_packets: directory.traffic.packets(noc::MessageClass::CohProt),
                filterdir_total_packets: filterdir.total_packets(),
                directory_total_packets: directory.total_packets(),
                filter_hit_ratio: filterdir.filter_hit_ratio,
                directory_requests: directory.protocol.directory_requests,
            }
        })
        .collect()
}

/// Formats the protocol comparison as a text table.
pub fn protocol_comparison_table(points: &[ProtocolComparisonPoint]) -> String {
    let mut t = TableBuilder::new("Ablation: filterDir protocol vs plain directory baseline");
    t.columns(&[
        "Benchmark",
        "filterDir cyc",
        "directory cyc",
        "Time ratio",
        "CohProt pkts (f/d)",
        "Traffic ratio",
        "Filter hits",
        "Dir requests",
    ]);
    for p in points {
        t.row_owned(vec![
            p.benchmark.clone(),
            p.filterdir_cycles.to_string(),
            p.directory_cycles.to_string(),
            fmt_ratio(p.time_ratio()),
            format!(
                "{} / {}",
                p.filterdir_cohprot_packets, p.directory_cohprot_packets
            ),
            fmt_ratio(p.cohprot_ratio()),
            p.filter_hit_ratio
                .map(fmt_percent)
                .unwrap_or_else(|| "n/a".into()),
            p.directory_requests.to_string(),
        ]);
    }
    t.build()
}

/// The CSV column order used by [`protocol_comparison_csv`].
pub const PROTOCOL_COMPARISON_CSV_COLUMNS: [&str; 9] = [
    "benchmark",
    "filterdir_cycles",
    "directory_cycles",
    "filterdir_cohprot_packets",
    "directory_cohprot_packets",
    "filterdir_total_packets",
    "directory_total_packets",
    "filter_hit_ratio",
    "directory_requests",
];

/// Exports the protocol comparison as CSV, one row per benchmark.
pub fn protocol_comparison_csv(points: &[ProtocolComparisonPoint]) -> String {
    let mut out = PROTOCOL_COMPARISON_CSV_COLUMNS.join(",");
    out.push('\n');
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            p.benchmark,
            p.filterdir_cycles,
            p.directory_cycles,
            p.filterdir_cohprot_packets,
            p.directory_cohprot_packets,
            p.filterdir_total_packets,
            p.directory_total_packets,
            p.filter_hit_ratio
                .map(|r| r.to_string())
                .unwrap_or_default(),
            p.directory_requests,
        ));
    }
    out
}

/// Exports the protocol comparison as a JSON array of point objects.
pub fn protocol_comparison_json(points: &[ProtocolComparisonPoint]) -> String {
    let array: Vec<Json> = points
        .iter()
        .map(|p| {
            Json::obj([
                ("benchmark", Json::str(&p.benchmark)),
                ("filterdir_cycles", Json::from(p.filterdir_cycles)),
                ("directory_cycles", Json::from(p.directory_cycles)),
                (
                    "filterdir_cohprot_packets",
                    Json::from(p.filterdir_cohprot_packets),
                ),
                (
                    "directory_cohprot_packets",
                    Json::from(p.directory_cohprot_packets),
                ),
                (
                    "filterdir_total_packets",
                    Json::from(p.filterdir_total_packets),
                ),
                (
                    "directory_total_packets",
                    Json::from(p.directory_total_packets),
                ),
                (
                    "filter_hit_ratio",
                    p.filter_hit_ratio.map_or(Json::Null, Json::from),
                ),
                ("directory_requests", Json::from(p.directory_requests)),
            ])
        })
        .collect();
    Json::Arr(array).pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SystemConfig {
        SystemConfig::small(4)
    }

    #[test]
    fn filter_sweep_hit_ratio_grows_with_capacity() {
        let points = filter_size_sweep(
            &RunContext::serial(),
            &config(),
            NasBenchmark::Is,
            &[2, 48],
            1.0 / 256.0,
        );
        assert_eq!(points.len(), 2);
        assert!(points[1].hit_ratio >= points[0].hit_ratio);
        assert!(points[0].time_overhead >= 0.99);
        assert!(filter_size_table(&points).contains("Filter entries"));
    }

    #[test]
    fn spm_sweep_reports_phase_fractions() {
        let sizes = [ByteSize::kib(4), ByteSize::kib(8)];
        let points = spm_size_sweep(
            &RunContext::serial(),
            &config(),
            NasBenchmark::Cg,
            &sizes,
            1.0 / 512.0,
        );
        assert_eq!(points.len(), 2);
        for p in &points {
            let sum = p.control_fraction + p.sync_fraction + p.work_fraction;
            assert!(
                (sum - 1.0).abs() < 0.05,
                "phase fractions should sum to ~1, got {sum}"
            );
            assert!(p.speedup > 0.0);
        }
        assert!(spm_size_table(&points).contains("SPM size"));
    }

    #[test]
    fn sweeps_are_executor_invariant() {
        let parallel = RunContext::new(campaign::Executor::new(3), None);
        let serial = RunContext::serial();
        let sizes = [2usize, 8];
        let a = filter_size_sweep(&serial, &config(), NasBenchmark::Is, &sizes, 1.0 / 512.0);
        let b = filter_size_sweep(&parallel, &config(), NasBenchmark::Is, &sizes, 1.0 / 512.0);
        assert_eq!(a, b);
    }

    #[test]
    fn guarded_intensity_sweep_runs() {
        let points =
            guarded_intensity_sweep(&RunContext::serial(), &config(), &[0.0, 2.0], 1.0 / 512.0);
        assert_eq!(points.len(), 2);
        assert!(points[0].speedup > 0.0);
        assert!(guarded_intensity_table(&points).contains("Guarded"));
    }

    #[test]
    fn noc_contention_sweep_covers_the_grid_and_is_deterministic() {
        let points = noc_contention_sweep(&[4, 16], &[0.02, 0.2], 1_000);
        assert_eq!(points.len(), 2 * 2 * 2);
        assert_eq!(points, noc_contention_sweep(&[4, 16], &[0.02, 0.2], 1_000));
        // Each (mesh, rate) cell holds one point per model, on the same stream.
        for pair in points.chunks(2) {
            assert_eq!(pair[0].model, NocModel::Analytic);
            assert_eq!(pair[1].model, NocModel::DiscreteEvent);
            assert_eq!(pair[0].delivered, pair[1].delivered);
            assert_eq!(pair[0].zero_load_latency, pair[1].zero_load_latency);
            // The analytic model is the zero-load network at every load.
            assert_eq!(pair[0].mean_latency, pair[0].zero_load_latency);
        }
        // At high load the DES model must see real home-node queueing the
        // analytic model cannot express.
        let hot = points
            .iter()
            .find(|p| p.model == NocModel::DiscreteEvent && p.injection_rate > 0.1)
            .unwrap();
        assert!(hot.home_queue_cycles > 0);
        assert!(hot.max_link_utilization > 0.0);
    }

    #[test]
    fn protocol_comparison_measures_the_cost_claim() {
        let points = protocol_comparison_sweep(
            &RunContext::serial(),
            &config(),
            &[NasBenchmark::Cg, NasBenchmark::Is],
            1.0 / 512.0,
        );
        assert_eq!(points.len(), 2);
        for p in &points {
            // The directory baseline consults its home on every guarded
            // access; the filters exist to avoid exactly that traffic.
            assert!(p.directory_requests > 0, "{}", p.benchmark);
            assert!(
                p.directory_cohprot_packets > p.filterdir_cohprot_packets,
                "{}: {} vs {}",
                p.benchmark,
                p.directory_cohprot_packets,
                p.filterdir_cohprot_packets
            );
            assert!(p.filter_hit_ratio.is_some(), "{}", p.benchmark);
            assert!(p.time_ratio() >= 1.0, "{}: {}", p.benchmark, p.time_ratio());
            assert!(p.cohprot_ratio() > 1.0, "{}", p.benchmark);
        }
        // Deterministic, and executor-invariant like every other sweep.
        let again = protocol_comparison_sweep(
            &RunContext::new(campaign::Executor::new(3), None),
            &config(),
            &[NasBenchmark::Cg, NasBenchmark::Is],
            1.0 / 512.0,
        );
        assert_eq!(points, again);
    }

    #[test]
    fn protocol_comparison_exports_render() {
        let points = protocol_comparison_sweep(
            &RunContext::serial(),
            &config(),
            &[NasBenchmark::Is],
            1.0 / 512.0,
        );
        let table = protocol_comparison_table(&points);
        assert!(table.contains("filterDir cyc"), "{table}");
        assert!(table.contains("Dir requests"), "{table}");
        let csv = protocol_comparison_csv(&points);
        assert_eq!(csv.lines().count(), 1 + points.len());
        assert_eq!(
            csv.lines().next().unwrap(),
            PROTOCOL_COMPARISON_CSV_COLUMNS.join(",")
        );
        let json = protocol_comparison_json(&points);
        let parsed = Json::parse(&json).expect("valid JSON");
        assert_eq!(parsed.as_array().unwrap().len(), points.len());
        assert!(parsed.as_array().unwrap()[0]
            .get("directory_requests")
            .is_some());
    }

    #[test]
    fn noc_contention_exports_render() {
        let points = noc_contention_sweep(&[4], &[0.05], 500);
        let table = noc_contention_table(&points);
        assert!(table.contains("DES/analytic"), "{table}");
        assert!(table.contains("Home queue cyc"), "{table}");
        let csv = noc_contention_csv(&points);
        assert_eq!(csv.lines().count(), 1 + points.len());
        assert!(csv.starts_with("cores,injection_rate,model"));
        assert!(csv.contains("discrete-event"));
        let json = noc_contention_json(&points);
        let parsed = Json::parse(&json).expect("valid JSON");
        assert_eq!(parsed.as_array().unwrap().len(), points.len());
        assert!(parsed.as_array().unwrap()[0]
            .get("home_queue_cycles")
            .is_some());
    }
}
