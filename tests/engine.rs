//! Tests for the execution engine, the min-clock scheduler:
//!
//! 1. multicore runs are deterministic, serial or parallel;
//! 2. under the discrete-event NoC the network clock only moves forward
//!    (`DesNoc::advance_to` asserts it in debug builds);
//! 3. the scheduler never lets a core's clock pass an unreleased kernel
//!    barrier (checked from the [`EngineAudit`] clock data, over random
//!    workloads and core counts).

use proptest::prelude::*;

use spm_manycore::simkernel::Cycle;
use spm_manycore::system::sweep::{run_points, RunContext, SweepSpec};
use spm_manycore::system::{
    run_result_codec, EngineAudit, Machine, MachineKind, RunResult, SystemConfig,
};
use spm_manycore::workloads::nas::NasBenchmark;
use spm_manycore::workloads::BenchmarkSpec;

fn small_spec() -> BenchmarkSpec {
    NasBenchmark::Cg.spec_scaled(1.0 / 512.0)
}

fn config_with(cores: usize, noc_model: noc::NocModel) -> SystemConfig {
    let mut config = SystemConfig::small(cores);
    config.set_noc_model(noc_model);
    config
}

fn encoded(result: &RunResult) -> String {
    (run_result_codec().encode)(result)
}

/// Checks the barrier-safety invariant over one run's clock audit.
fn assert_barriers_respected(audit: &EngineAudit) {
    let mut prev_barrier = Cycle::ZERO;
    assert!(!audit.kernels.is_empty());
    for kernel in &audit.kernels {
        assert_eq!(kernel.start.len(), kernel.end.len());
        for (core, (&start, &end)) in kernel.start.iter().zip(&kernel.end).enumerate() {
            assert!(
                start >= prev_barrier,
                "kernel {}: core {core} started at {start} before the previous \
                 barrier released at {prev_barrier}",
                kernel.name
            );
            assert!(
                end >= start,
                "kernel {}: core {core} ran backwards",
                kernel.name
            );
            assert!(
                end <= kernel.barrier,
                "kernel {}: core {core} passed the kernel barrier",
                kernel.name
            );
        }
        assert_eq!(
            kernel.barrier,
            kernel.end.iter().copied().max().unwrap(),
            "kernel {}: barrier is not the slowest core",
            kernel.name
        );
        prev_barrier = kernel.barrier;
    }
}

#[test]
fn interleaved_multicore_runs_are_deterministic() {
    let spec = small_spec();
    for noc_model in [noc::NocModel::Analytic, noc::NocModel::DiscreteEvent] {
        let config = config_with(4, noc_model);
        let a = Machine::new(MachineKind::HybridProposed, config.clone()).run(&spec);
        let b = Machine::new(MachineKind::HybridProposed, config).run(&spec);
        assert_eq!(encoded(&a), encoded(&b), "{noc_model:?}");
    }
}

#[test]
fn multicore_des_runs_keep_the_noc_clock_monotonic() {
    // The stepped core is always the earliest one, so the clock the
    // scheduler hands the network never runs backwards; a backwards hand-off
    // panics in `DesNoc::advance_to` (debug builds).
    let spec = small_spec();
    for kind in MachineKind::ALL {
        let result = Machine::new(kind, config_with(4, noc::NocModel::DiscreteEvent)).run(&spec);
        assert!(
            result.stats.count("noc.des.packets.delivered") > 0,
            "{kind}"
        );
    }
}

#[test]
fn engine_campaigns_are_deterministic_across_worker_counts() {
    let points = SweepSpec::new(&[NasBenchmark::Cg])
        .with_machines(&[MachineKind::HybridProposed])
        .with_cores(&[2])
        .with_scales(&[1.0 / 512.0])
        .with_noc_models(&noc::NocModel::ALL)
        .small()
        .points();
    assert_eq!(points.len(), 2);
    let serial = run_points(&RunContext::serial(), &points).unwrap();
    let parallel = run_points(
        &RunContext::new(spm_manycore::campaign::Executor::new(4), None),
        &points,
    )
    .unwrap();
    for (a, b) in serial.results.iter().zip(&parallel.results) {
        assert_eq!(encoded(a), encoded(b));
    }
    // Both NoC models really ran: the two points of one sweep share a seed
    // (apples-to-apples workload) but not a result.
    assert_ne!(encoded(&serial.results[0]), encoded(&serial.results[1]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The scheduler's safety property, as data: over random benchmarks,
    /// core counts and trace seeds, no core's clock ever passes an
    /// unreleased kernel barrier, and every kernel's barrier is the slowest
    /// core's finish time.
    #[test]
    fn interleaved_cores_never_pass_an_unreleased_barrier(
        bench in 0usize..NasBenchmark::ALL.len(),
        cores in 1usize..5,
        seed in any::<u64>(),
    ) {
        let spec = NasBenchmark::ALL[bench].spec_scaled(1.0 / 1024.0);
        let mut config = config_with(cores, noc::NocModel::Analytic);
        config.trace_seed = seed;
        let (result, audit) = Machine::new(MachineKind::HybridProposed, config).run_audited(&spec);
        prop_assert!(result.execution_time > Cycle::ZERO);
        assert_barriers_respected(&audit);
        // The end-to-end time is the last barrier.
        prop_assert_eq!(result.execution_time, audit.kernels.last().unwrap().barrier);
    }
}
