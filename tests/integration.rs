//! Cross-crate integration tests: the full machine, the experiment suite and
//! the paper's qualitative claims on small configurations.

use spm_manycore::coherence::{CoherenceBackend, ProtocolConfig, SpmCoherenceProtocol};
use spm_manycore::mem::{Addr, AddressRange, MemorySystem, MemorySystemConfig};
use spm_manycore::noc::MessageClass;
use spm_manycore::simkernel::{ByteSize, CoreId, Cycle};
use spm_manycore::spm::{Scratchpad, SpmConfig};
use spm_manycore::system::sweep::{RunContext, SweepSpec};
use spm_manycore::system::{ExperimentSuite, Machine, MachineKind, SystemConfig};
use spm_manycore::workloads::nas::NasBenchmark;
use spm_manycore::workloads::{characterize, ArrayRef, BenchmarkSpec, GuardedRef, KernelSpec};

fn small_config() -> SystemConfig {
    SystemConfig::small(4)
}

#[test]
fn table2_reproduces_the_paper_exactly() {
    let rows = characterize();
    let expected: [(&str, usize, usize, usize); 6] = [
        ("CG", 1, 5, 1),
        ("EP", 2, 3, 1),
        ("FT", 5, 32, 4),
        ("IS", 1, 3, 2),
        ("MG", 3, 59, 6),
        ("SP", 54, 497, 0),
    ];
    for (row, (name, kernels, spm_refs, guarded_refs)) in rows.iter().zip(expected) {
        assert_eq!(row.name, name);
        assert_eq!(row.kernels, kernels);
        assert_eq!(row.spm_refs, spm_refs);
        assert_eq!(row.guarded_refs, guarded_refs);
    }
}

#[test]
fn every_benchmark_runs_on_every_machine_kind() {
    let config = small_config();
    for bench in NasBenchmark::ALL {
        let spec = bench.spec_scaled(bench.recommended_scale() / 512.0);
        let mut reduced = spec;
        reduced.kernels.truncate(2);
        for kernel in &mut reduced.kernels {
            kernel.outer_repeats = 1;
        }
        for kind in MachineKind::ALL {
            let result = Machine::new(kind, config.clone()).run(&reduced);
            assert!(
                result.execution_time > Cycle::ZERO,
                "{bench} produced no cycles on {kind}"
            );
            assert!(result.instructions > 0);
            assert!(result.total_energy() > 0.0);
        }
    }
}

#[test]
fn hybrid_beats_cache_based_on_strided_benchmarks() {
    // The paper's headline claim, checked on a small machine with CG.
    let config = small_config();
    let spec = NasBenchmark::Cg.spec_scaled(1.0 / 256.0);
    let cache = Machine::new(MachineKind::CacheOnly, config.clone()).run(&spec);
    let hybrid = Machine::new(MachineKind::HybridProposed, config).run(&spec);
    assert!(
        hybrid.execution_time < cache.execution_time,
        "hybrid ({}) must beat cache-based ({})",
        hybrid.execution_time,
        cache.execution_time
    );
    assert!(
        hybrid.total_packets() < cache.total_packets(),
        "hybrid must reduce NoC traffic"
    );
    assert!(
        hybrid.total_energy() < cache.total_energy(),
        "hybrid must reduce energy"
    );
}

#[test]
fn protocol_overhead_over_ideal_is_small() {
    let config = small_config();
    let spec = NasBenchmark::Is.spec_scaled(1.0 / 256.0);
    let ideal = Machine::new(MachineKind::HybridIdeal, config.clone()).run(&spec);
    let proposed = Machine::new(MachineKind::HybridProposed, config).run(&spec);
    let time_overhead = proposed.execution_time.as_f64() / ideal.execution_time.as_f64();
    let traffic_overhead = proposed.total_packets() as f64 / ideal.total_packets() as f64;
    // Under the time-ordered scheduler the protocol's extra latency shifts
    // when each core's accesses reach the shared L2 and NoC, so the proposed
    // machine can land marginally *ahead* of the oracle: on this point it
    // measures 110,018 cycles against 110,103 (ratio 0.9992).  "Never faster
    // than the oracle" is therefore not an invariant; "close to it" is.
    assert!(
        (time_overhead - 1.0).abs() < 0.25,
        "execution-time overhead {time_overhead} is not 'low'"
    );
    assert!(traffic_overhead >= 1.0);
    assert!(
        traffic_overhead < 1.5,
        "traffic overhead {traffic_overhead} is not 'low'"
    );
    // The protocol hardware is the only source of CohProt traffic.
    assert_eq!(ideal.traffic.packets(MessageClass::CohProt), 0);
    assert!(proposed.traffic.packets(MessageClass::CohProt) > 0);
}

#[test]
fn filter_hit_ratios_match_the_papers_range() {
    let config = small_config();
    for bench in [NasBenchmark::Cg, NasBenchmark::Is] {
        let spec = bench.spec_scaled(bench.recommended_scale() / 64.0);
        let result = Machine::new(MachineKind::HybridProposed, config.clone()).run(&spec);
        let ratio = result
            .filter_hit_ratio
            .expect("CG and IS issue guarded accesses");
        assert!(
            ratio > 0.85,
            "{bench}: filter hit ratio {ratio} far below the paper's 92-99 % range"
        );
    }
}

#[test]
fn guarded_aliasing_with_spm_data_is_still_correct() {
    // The paper's protocol exists exactly for this case: a random reference
    // that *does* alias the strided data.  The compiler cannot know, emits a
    // guarded access, and the hardware must divert it to the SPM copy.
    let config = small_config();
    let aliasing = BenchmarkSpec {
        name: "alias-stress".into(),
        input: "synthetic".into(),
        kernels: vec![KernelSpec {
            name: "aliasing_loop".into(),
            spm_refs: vec![ArrayRef::written("a", ByteSize::kib(256), 8)],
            random_refs: vec![{
                // The random reference targets the same array section `a`.
                let mut r = GuardedRef::guarded("a_alias", ByteSize::kib(256), 0.5);
                r.name = "a".into();
                r
            }],
            stack_accesses_per_iteration: 0.0,
            compute_insts_per_iteration: 4,
            outer_repeats: 1,
            code_footprint: ByteSize::kib(8),
        }],
    };
    let result = Machine::new(MachineKind::HybridProposed, config).run(&aliasing);
    // Diversions to SPMs (local or remote) must have happened.
    assert!(
        result.protocol.local_spm_hits + result.protocol.remote_spm_accesses > 0,
        "aliasing guarded accesses must be diverted to the SPMs"
    );
}

#[test]
fn experiment_suite_produces_all_figures() {
    let sweep = SweepSpec::new(&[NasBenchmark::Cg])
        .with_cores(&[4])
        .with_scales(&[1.0 / 128.0])
        .small();
    let suite = ExperimentSuite::run_with(&RunContext::default(), &sweep).unwrap();
    assert_eq!(suite.records().len(), 3);
    assert_eq!(suite.fig7().rows.len(), 1);
    assert_eq!(suite.fig8().rows.len(), 1);
    assert_eq!(suite.fig9().rows.len(), 1);
    assert_eq!(suite.fig10().rows.len(), 1);
    assert_eq!(suite.fig11().rows.len(), 1);
    let summary = suite.summary();
    assert!(summary.average_speedup > 0.8);
    assert!(summary.protocol_time_overhead >= 1.0);
    for table in [
        suite.fig7().to_table(),
        suite.fig8().to_table(),
        suite.fig9().to_table(),
        suite.fig10().to_table(),
        suite.fig11().to_table(),
        summary.to_table(),
    ] {
        assert!(table.contains("CG") || table.contains("Metric"));
    }
}

#[test]
fn dma_transfers_snoop_dirty_cache_lines() {
    // End-to-end check of the §2.1 integration: data dirtied by a core is
    // picked up by a dma-get and invalidated by a dma-put.
    let cores = 4;
    let mut memsys = MemorySystem::new(MemorySystemConfig::small(cores));
    let mut spms: Vec<Scratchpad> = (0..cores)
        .map(|_| Scratchpad::new(SpmConfig::small()))
        .collect();
    let mut protocol = SpmCoherenceProtocol::new(ProtocolConfig::small(cores));
    protocol.configure_buffer_size(ByteSize::kib(4));

    let addr = Addr::new(0x70_0000);
    let _ = memsys.access(
        CoreId::new(3),
        addr,
        spm_manycore::mem::AccessKind::Store,
        MessageClass::Write,
        1,
    );
    let forwards_before = memsys.counters().forwards;
    let _ = memsys.dma_get_line(CoreId::new(0), addr.line());
    assert_eq!(memsys.counters().forwards, forwards_before + 1);

    // Mapping the chunk and issuing a guarded access from another core must
    // reach core 0's SPM.
    protocol.on_map(
        CoreId::new(0),
        0,
        AddressRange::new(addr, 4096),
        &mut memsys,
    );
    let outcome = protocol.guarded_access(CoreId::new(1), addr, false, &mut memsys, &mut spms);
    assert!(outcome.diverted_to_spm());

    let _ = memsys.dma_put_line(CoreId::new(0), addr.line());
    assert!(!memsys.is_cached(addr.line()));
}

#[test]
fn results_are_deterministic_across_runs() {
    let config = small_config();
    let spec = NasBenchmark::Ft.spec_scaled(1.0 / 2048.0);
    let a = Machine::new(MachineKind::HybridProposed, config.clone()).run(&spec);
    let b = Machine::new(MachineKind::HybridProposed, config).run(&spec);
    assert_eq!(a.execution_time, b.execution_time);
    assert_eq!(a.total_packets(), b.total_packets());
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.protocol.guarded_accesses(), b.protocol.guarded_accesses());
}
