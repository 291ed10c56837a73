//! End-to-end properties of the cycle-accounting subsystem.
//!
//! The accountant's contract has three legs, and each is checked across the
//! whole configuration space (machine kind × NoC model) under arbitrary
//! workload seeds:
//!
//! 1. **Exhaustive** — on every core the nine category counters sum
//!    bit-exactly to the elapsed cycles ([`CycleBreakdown::check_exhaustive`]);
//! 2. **Exclusive** — the same cycle is never charged twice, which with
//!    non-negative counters is exactly the equality above (any
//!    double-charge would overshoot the elapsed total);
//! 3. **Pure observer** — accounting leaves every observable number of the
//!    run bit-identical.  Every run is accounted, so there is no plain run
//!    to compare against here: the hot-loop wall pins this property, since
//!    its goldens' other fields were captured before accounting was always
//!    on.

use proptest::prelude::*;

use spm_manycore::noc::NocModel;
use spm_manycore::simkernel::{CycleBreakdown, CycleCategory};
use spm_manycore::system::{Machine, MachineKind, SystemConfig};
use spm_manycore::workloads::nas::NasBenchmark;
use spm_manycore::workloads::BenchmarkSpec;

fn spec() -> BenchmarkSpec {
    NasBenchmark::Cg.spec_scaled(1.0 / 1024.0)
}

fn config(seed: u64, noc: NocModel) -> SystemConfig {
    let mut config = SystemConfig::small(4);
    config.trace_seed = seed;
    config.set_noc_model(noc);
    config
}

proptest! {
    // Every case is a full (small) simulation, so keep the case count
    // modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Exhaustive and exclusive on every machine kind and NoC model, for
    /// arbitrary workload seeds; the run's breakdown agrees with its
    /// headline numbers.
    #[test]
    fn accounting_is_exhaustive_exclusive_and_invisible(
        seed in any::<u64>(),
        kind_index in 0usize..3,
        des_noc in any::<bool>(),
    ) {
        let kind = MachineKind::ALL[kind_index];
        let noc = if des_noc { NocModel::DiscreteEvent } else { NocModel::Analytic };
        let result = Machine::new(kind, config(seed, noc)).run(&spec());
        let breakdown = &result.breakdown;

        prop_assert_eq!(breakdown.cores.len(), 4);
        breakdown
            .check_exhaustive()
            .unwrap_or_else(|e| panic!("{} × {:?}: {e}", kind.id(), noc));
        for core in &breakdown.cores {
            // Exclusivity: no single category can exceed the elapsed total
            // it is a part of.
            for category in CycleCategory::ALL {
                prop_assert!(core.account.get(category) <= core.elapsed);
            }
            prop_assert_eq!(core.account.total(), core.elapsed);
        }
        // The per-core clocks are the run's own: `cpu.cycles` sums them and
        // the slowest is the headline execution time.
        prop_assert_eq!(breakdown.elapsed_total(), result.stats.count("cpu.cycles"));
        prop_assert_eq!(
            breakdown.cores.iter().map(|c| c.elapsed).max(),
            Some(result.execution_time.as_u64())
        );

        // Real work happened and was attributed: the machine-wide compute
        // share is never zero on this workload.
        prop_assert!(breakdown.totals().get(CycleCategory::Compute) > 0);
    }

    /// The breakdown is deterministic for a given seed and survives a JSON
    /// round trip exactly.
    #[test]
    fn breakdowns_are_deterministic_and_round_trip(seed in any::<u64>()) {
        let make = || {
            Machine::new(
                MachineKind::HybridProposed,
                config(seed, NocModel::Analytic),
            )
            .run(&spec())
            .breakdown
        };
        let breakdown = make();
        prop_assert_eq!(&breakdown, &make());
        let reparsed = CycleBreakdown::from_json(&breakdown.to_json()).unwrap();
        prop_assert_eq!(reparsed, breakdown);
    }
}
