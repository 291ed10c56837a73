//! Experiment drivers regenerating the paper's evaluation (§5).
//!
//! [`ExperimentSuite`] runs the six NAS-like benchmarks on the three machine
//! kinds and derives every figure:
//!
//! * [`ExperimentSuite::fig7`] — overhead of the proposed protocol over ideal
//!   coherence (execution time, energy, NoC traffic);
//! * [`ExperimentSuite::fig8`] — filter hit ratios;
//! * [`ExperimentSuite::fig9`] — execution time of the cache-based vs hybrid
//!   systems, split into control / sync / work phases;
//! * [`ExperimentSuite::fig10`] — NoC traffic breakdown per message class;
//! * [`ExperimentSuite::fig11`] — energy breakdown per component;
//!
//! plus Table 1 ([`crate::SystemConfig::table1`]) and Table 2
//! ([`workloads::characterize()`]).  The ablation sweeps live in [`ablations`].

pub mod ablations;
pub mod figures;

use serde::{Deserialize, Serialize};

use workloads::nas::NasBenchmark;

use crate::config::{MachineKind, SystemConfig};
use crate::machine::RunResult;
use crate::sweep::{LoweredRun, RunContext};

pub use figures::{
    Fig10Table, Fig11Table, Fig7Row, Fig7Table, Fig8Table, Fig9Row, Fig9Table, SummaryTable,
};

/// A cached set of benchmark runs from which every figure is derived.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentSuite {
    /// The configuration the suite was run with.
    pub config_label: String,
    /// Data-set scale multiplier applied on top of each benchmark's
    /// recommended scale.
    pub scale_multiplier: f64,
    /// All runs as `(benchmark name, machine kind, result)` tuples.
    runs: Vec<(String, MachineKind, RunResult)>,
}

impl ExperimentSuite {
    /// Runs `benchmarks` on `kinds`, scaling each benchmark's data sets by
    /// its recommended scale times `scale_multiplier`.
    ///
    /// Runs execute through the default [`RunContext`] — all available
    /// cores, no result cache.  Use [`ExperimentSuite::run_with`] to control
    /// the worker count or enable caching.
    pub fn run(
        config: &SystemConfig,
        benchmarks: &[NasBenchmark],
        kinds: &[MachineKind],
        scale_multiplier: f64,
    ) -> Self {
        Self::run_with(
            config,
            benchmarks,
            kinds,
            scale_multiplier,
            &RunContext::default(),
        )
    }

    /// [`ExperimentSuite::run`] with explicit execution policy: the
    /// context's executor shards the benchmark × machine runs across its
    /// workers, and its cache (when present) serves repeated runs without
    /// simulating them.
    ///
    /// Every run is a pure function of `(config, spec, kind)`, so the suite
    /// is bit-identical for any worker count.
    pub fn run_with(
        config: &SystemConfig,
        benchmarks: &[NasBenchmark],
        kinds: &[MachineKind],
        scale_multiplier: f64,
        ctx: &RunContext,
    ) -> Self {
        let mut labels = Vec::new();
        let mut lowered: Vec<LoweredRun> = Vec::new();
        for &benchmark in benchmarks {
            let scale = benchmark.recommended_scale() * scale_multiplier;
            let spec = benchmark.spec_scaled(scale);
            for &kind in kinds {
                labels.push((benchmark.name().to_owned(), kind));
                lowered.push((config.clone(), spec.clone(), kind));
            }
        }
        let report = ctx.run_lowered(&lowered);
        ExperimentSuite {
            config_label: format!("{} cores", config.cores),
            scale_multiplier,
            runs: labels
                .into_iter()
                .zip(report.results)
                .map(|((name, kind), result)| (name, kind, result))
                .collect(),
        }
    }

    /// Runs the full evaluation: all six benchmarks on all three machines at
    /// the recommended scales.
    pub fn run_full(config: &SystemConfig) -> Self {
        Self::run(config, &NasBenchmark::ALL, &MachineKind::ALL, 1.0)
    }

    /// A reduced suite (fewer cores and much smaller data sets) used by the
    /// integration tests and criterion benches.
    pub fn run_quick(
        config: &SystemConfig,
        benchmarks: &[NasBenchmark],
        scale_multiplier: f64,
    ) -> Self {
        Self::run(config, benchmarks, &MachineKind::ALL, scale_multiplier)
    }

    /// The benchmarks present in the suite, in the paper's order.
    pub fn benchmarks(&self) -> Vec<String> {
        let mut names: Vec<String> = NasBenchmark::ALL
            .iter()
            .map(|b| b.name().to_owned())
            .filter(|n| self.runs.iter().any(|(b, _, _)| b == n))
            .collect();
        // Include any non-NAS benchmarks that were run explicitly.
        for (name, _, _) in &self.runs {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
        names
    }

    /// The run of `benchmark` on `kind`, if present.
    pub fn result(&self, benchmark: &str, kind: MachineKind) -> Option<&RunResult> {
        self.runs
            .iter()
            .find(|(b, k, _)| b == benchmark && *k == kind)
            .map(|(_, _, r)| r)
    }

    /// Inserts (or replaces) a run, for suites assembled manually.
    pub fn insert(&mut self, benchmark: &str, kind: MachineKind, result: RunResult) {
        self.runs
            .retain(|(b, k, _)| !(b == benchmark && *k == kind));
        self.runs.push((benchmark.to_owned(), kind, result));
    }

    /// Number of runs cached in the suite.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Returns `true` when the suite holds no runs.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Figure 7: overheads of the proposed protocol over ideal coherence.
    pub fn fig7(&self) -> Fig7Table {
        figures::fig7(self)
    }

    /// Figure 8: filter hit ratios.
    pub fn fig8(&self) -> Fig8Table {
        figures::fig8(self)
    }

    /// Figure 9: cache-based vs hybrid execution time with phase breakdown.
    pub fn fig9(&self) -> Fig9Table {
        figures::fig9(self)
    }

    /// Figure 10: NoC traffic breakdown per message class.
    pub fn fig10(&self) -> Fig10Table {
        figures::fig10(self)
    }

    /// Figure 11: energy breakdown per component.
    pub fn fig11(&self) -> Fig11Table {
        figures::fig11(self)
    }

    /// Headline numbers (average speedup, traffic and energy reductions,
    /// protocol overheads) in the style of the paper's abstract.
    pub fn summary(&self) -> SummaryTable {
        figures::summary(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn quick_suite() -> ExperimentSuite {
        let config = SystemConfig::small(4);
        ExperimentSuite::run_quick(&config, &[NasBenchmark::Cg, NasBenchmark::Is], 1.0 / 64.0)
    }

    #[test]
    fn suite_runs_every_requested_combination() {
        let suite = quick_suite();
        assert_eq!(suite.len(), 6);
        assert!(!suite.is_empty());
        assert_eq!(suite.benchmarks(), vec!["CG".to_owned(), "IS".to_owned()]);
        for kind in MachineKind::ALL {
            assert!(suite.result("CG", kind).is_some());
            assert!(suite.result("IS", kind).is_some());
        }
        assert!(suite.result("FT", MachineKind::CacheOnly).is_none());
    }

    #[test]
    fn figures_are_derivable_from_the_suite() {
        let suite = quick_suite();
        assert_eq!(suite.fig7().rows.len(), 2);
        assert_eq!(suite.fig8().rows.len(), 2);
        assert_eq!(suite.fig9().rows.len(), 2);
        assert_eq!(suite.fig10().rows.len(), 2);
        assert_eq!(suite.fig11().rows.len(), 2);
        let summary = suite.summary();
        assert!(summary.average_speedup > 0.5);
        assert!(!summary.to_table().is_empty());
    }

    #[test]
    fn serial_and_parallel_suites_are_bit_identical() {
        let config = SystemConfig::small(4);
        let benchmarks = [NasBenchmark::Cg, NasBenchmark::Is];
        let scale = 1.0 / 64.0;
        let serial = ExperimentSuite::run_with(
            &config,
            &benchmarks,
            &MachineKind::ALL,
            scale,
            &RunContext::serial(),
        );
        let parallel = ExperimentSuite::run_with(
            &config,
            &benchmarks,
            &MachineKind::ALL,
            scale,
            &RunContext::new(campaign::Executor::new(4), None),
        );
        assert_eq!(serial.len(), parallel.len());
        for (name, kind, result) in &serial.runs {
            let other = parallel.result(name, *kind).expect("same combinations");
            assert_eq!(result.to_json(), other.to_json(), "{name} on {kind}");
        }
    }

    #[test]
    fn insert_allows_manual_assembly() {
        let config = SystemConfig::small(4);
        let spec = NasBenchmark::Ep.spec_scaled(1.0 / 16.0);
        let result = Machine::new(MachineKind::CacheOnly, config.clone()).run(&spec);
        let mut suite = ExperimentSuite::run(&config, &[], &[], 1.0);
        assert!(suite.is_empty());
        suite.insert("EP", MachineKind::CacheOnly, result);
        assert_eq!(suite.len(), 1);
        assert!(suite.result("EP", MachineKind::CacheOnly).is_some());
    }
}
