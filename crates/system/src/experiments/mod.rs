//! Experiment drivers regenerating the paper's evaluation (§5).
//!
//! An [`ExperimentSuite`] is the `(RunDescriptor, RunResult)` records of
//! one [`SweepSpec`] run through [`run_points`] — normally the six NAS-like
//! benchmarks on the three machine kinds — and derives every figure:
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

use workloads::nas::NasBenchmark;

use crate::config::MachineKind;
use crate::machine::RunResult;
use crate::sweep::{run_points, RunContext, RunDescriptor, SweepSpec};

pub use figures::{
    Fig10Table, Fig11Table, Fig7Row, Fig7Table, Fig8Table, Fig9Row, Fig9Table, SummaryTable,
};

/// The runs every figure is derived from: one record per point of a sweep.
///
/// The figures look runs up by benchmark and machine, so a suite is meant
/// to hold one point per `(benchmark, machine)` pair — a sweep whose only
/// multi-valued axes are the benchmarks and the machines.
#[derive(Debug, Clone)]
pub struct ExperimentSuite {
    runs: Vec<(RunDescriptor, RunResult)>,
}

impl ExperimentSuite {
    /// Runs every point of `sweep` through `ctx`: its executor shards the
    /// points across its workers, and its cache (when present) serves
    /// repeated runs without simulating them.
    ///
    /// Every run is a pure function of its point, so the suite is
    /// bit-identical for any worker count.  Fails, before anything runs,
    /// when a point does not lower (see [`run_points`]).
    pub fn run_with(ctx: &RunContext, sweep: &SweepSpec) -> Result<Self, String> {
        let points = sweep.points();
        let report = run_points(ctx, &points)?;
        Ok(ExperimentSuite {
            runs: points.into_iter().zip(report.results).collect(),
        })
    }

    /// The benchmarks present in the suite, in the paper's order.
    pub fn benchmarks(&self) -> Vec<NasBenchmark> {
        NasBenchmark::ALL
            .into_iter()
            .filter(|&b| self.runs.iter().any(|(d, _)| d.benchmark == b))
            .collect()
    }

    /// The run of `benchmark` on `kind`, if present.
    pub fn result(&self, benchmark: NasBenchmark, kind: MachineKind) -> Option<&RunResult> {
        self.runs
            .iter()
            .find(|(d, _)| d.benchmark == benchmark && d.machine == kind)
            .map(|(_, r)| r)
    }

    /// The runs of every benchmark that ran on both `a` and `b`, in the
    /// paper's order, as `(benchmark name, run on a, run on b)`.
    pub(crate) fn pairs(
        &self,
        a: MachineKind,
        b: MachineKind,
    ) -> Vec<(String, &RunResult, &RunResult)> {
        self.benchmarks()
            .into_iter()
            .filter_map(|benchmark| {
                Some((
                    benchmark.name().to_owned(),
                    self.result(benchmark, a)?,
                    self.result(benchmark, b)?,
                ))
            })
            .collect()
    }

    /// The suite's records, in sweep order.
    pub fn records(&self) -> &[(RunDescriptor, RunResult)] {
        &self.runs
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

    fn quick_sweep() -> SweepSpec {
        SweepSpec::new(&[NasBenchmark::Cg, NasBenchmark::Is])
            .with_cores(&[4])
            .with_scales(&[1.0 / 64.0])
            .small()
    }

    fn quick_suite() -> ExperimentSuite {
        ExperimentSuite::run_with(&RunContext::serial(), &quick_sweep()).unwrap()
    }

    #[test]
    fn suite_runs_every_requested_combination() {
        let suite = quick_suite();
        assert_eq!(suite.records().len(), 6);
        assert_eq!(suite.benchmarks(), vec![NasBenchmark::Cg, NasBenchmark::Is]);
        for kind in MachineKind::ALL {
            assert!(suite.result(NasBenchmark::Cg, kind).is_some());
            assert!(suite.result(NasBenchmark::Is, kind).is_some());
        }
        assert!(suite
            .result(NasBenchmark::Ft, MachineKind::CacheOnly)
            .is_none());
        let pairs = suite.pairs(MachineKind::HybridProposed, MachineKind::CacheOnly);
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, "CG");
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
    fn a_benchmark_missing_a_machine_has_no_figure_row() {
        let sweep = quick_sweep().with_machines(&[MachineKind::HybridProposed]);
        let suite = ExperimentSuite::run_with(&RunContext::serial(), &sweep).unwrap();
        assert_eq!(suite.fig8().rows.len(), 2);
        assert!(suite.fig7().rows.is_empty());
        assert!(suite.fig9().rows.is_empty());
    }

    #[test]
    fn serial_and_parallel_suites_are_bit_identical() {
        let sweep = quick_sweep();
        let serial = ExperimentSuite::run_with(&RunContext::serial(), &sweep).unwrap();
        let parallel =
            ExperimentSuite::run_with(&RunContext::new(campaign::Executor::new(4), None), &sweep)
                .unwrap();
        assert_eq!(serial.records().len(), parallel.records().len());
        for ((point, result), (other_point, other)) in
            serial.records().iter().zip(parallel.records())
        {
            assert_eq!(point, other_point);
            assert_eq!(result.to_json(), other.to_json(), "{}", point.label());
        }
    }
}
