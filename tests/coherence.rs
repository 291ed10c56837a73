//! The differential coherence oracle harness, end to end.
//!
//! Four properties are pinned here:
//!
//! 1. **Soundness of the models** — every directed litmus program and a
//!    batch of seeded fuzz programs run divergence-free on every machine
//!    kind × NoC model (with deliberately tiny filter /
//!    filterDir structures, so capacity-eviction paths are exercised).
//! 2. **The harness can fail** — injecting
//!    `ProtocolFault::SkipFilterInvalidationOnMap` makes the designated
//!    litmus victim diverge, with a report naming the stale filter state.
//! 3. **Golden images** — each litmus program's final memory image matches
//!    `tests/golden/litmus/<name>.txt` (regenerate with
//!    `cargo run --release -p system --bin coherence_check -- --write-golden
//!    tests/golden/litmus`), and re-running is bit-identical.
//! 4. **NoC equivalence** — random programs with `track_values` on produce
//!    bit-identical final value images across the `analytic` and
//!    `discrete-event` NoC models (cores = 1 and cores = 4), although the
//!    two models schedule the cores' accesses in different orders, because
//!    the generator honours the paper's software contract and a
//!    single-writer-per-address discipline.
//! 5. **Protocol equivalence** — the directory baseline backend passes the
//!    same litmus matrix, renders the *same* golden images (final memory
//!    state is protocol-independent), has its own catchable injected fault,
//!    and any fuzz seed's value image is bit-identical across backends.

use proptest::prelude::*;

use spm_manycore::coherence::ProtocolFault;
use spm_manycore::system::verify::verification_config;
use spm_manycore::system::{CoherenceProtocol, Machine, MachineKind, MemoryImage, SystemConfig};
use spm_manycore::workloads::litmus::{catalogue, random_program, FuzzParams};
use spm_manycore::workloads::nas::NasBenchmark;
use spm_manycore::workloads::{ExecMode, RawKernel};

const CORES: usize = 4;

fn config(model: noc::NocModel, cores: usize) -> SystemConfig {
    let mut cfg = verification_config(cores);
    cfg.set_noc_model(model);
    cfg
}

fn directory_config(model: noc::NocModel, cores: usize) -> SystemConfig {
    let mut cfg = config(model, cores);
    cfg.coherence_protocol = CoherenceProtocol::Directory;
    cfg
}

fn noc_models() -> [noc::NocModel; 2] {
    [noc::NocModel::Analytic, noc::NocModel::DiscreteEvent]
}

fn fuzz(seed: u64, cores: usize, mode: ExecMode) -> RawKernel {
    let cfg = verification_config(cores);
    random_program(seed, &FuzzParams::small(cores, cfg.spm.size, mode))
}

#[test]
fn litmus_catalogue_is_coherent_across_the_whole_matrix() {
    for case in catalogue() {
        for kind in MachineKind::ALL {
            let Some(build) = case.build_for(kind.exec_mode()) else {
                continue;
            };
            for model in noc_models() {
                let cfg = config(model, CORES);
                let program = build(CORES, cfg.spm.size / 2);
                let outcome = Machine::new(kind, cfg).verify_raw(&program);
                assert!(
                    outcome.ok(),
                    "{} on {kind:?}/{model:?}:\n{}",
                    case.name,
                    outcome.divergence_report()
                );
                assert!(
                    outcome.report.loads_checked > 0,
                    "{}: the oracle actually checked loads",
                    case.name
                );
            }
        }
    }
}

#[test]
fn fuzz_programs_are_coherent_on_every_machine_kind() {
    for seed in 0..4 {
        for kind in MachineKind::ALL {
            let mode = if kind == MachineKind::CacheOnly {
                ExecMode::CacheOnly
            } else {
                ExecMode::Hybrid
            };
            let program = fuzz(seed, CORES, mode);
            for model in noc_models() {
                let cfg = config(model, CORES);
                let outcome = Machine::new(kind, cfg).verify_raw(&program);
                assert!(
                    outcome.ok(),
                    "seed {seed} on {kind:?}/{model:?}:\n{}",
                    outcome.divergence_report()
                );
            }
        }
    }
}

#[test]
fn injected_fault_is_caught_by_the_oracle() {
    let case = catalogue()
        .into_iter()
        .find(|c| c.name == "stale_filter_after_map")
        .expect("victim case exists");
    for model in noc_models() {
        let cfg = config(model, CORES);
        let program = (case.build)(CORES, cfg.spm.size / 2);

        // Sanity: the same program is clean without the fault.
        let clean = Machine::new(MachineKind::HybridProposed, cfg.clone()).verify_raw(&program);
        assert!(clean.ok(), "{model:?}: {}", clean.divergence_report());

        let broken = Machine::new(MachineKind::HybridProposed, cfg)
            .with_fault(ProtocolFault::SkipFilterInvalidationOnMap)
            .verify_raw(&program);
        assert!(
            !broken.ok(),
            "{model:?}: the injected defect must fail the oracle"
        );
        let report = broken.divergence_report();
        let d = &broken.report.divergences[0];
        assert_eq!(d.core, 0, "core 0 holds the stale filter entry");
        assert_eq!(d.observed, 0, "stale memory was never written");
        assert_ne!(d.expected, 0, "the oracle expects the SPM store");
        assert!(
            report.contains("filter"),
            "the report names the protocol state: {report}"
        );
    }
}

#[test]
fn fault_does_not_fire_on_the_ideal_machine() {
    // The ideal oracle has no filters: the fault knob only affects the
    // proposed protocol, so the ideal machine stays clean.
    let case = catalogue()
        .into_iter()
        .find(|c| c.name == "stale_filter_after_map")
        .unwrap();
    let cfg = config(noc::NocModel::Analytic, CORES);
    let program = (case.build)(CORES, cfg.spm.size / 2);
    let outcome = Machine::new(MachineKind::HybridIdeal, cfg)
        .with_fault(ProtocolFault::SkipFilterInvalidationOnMap)
        .verify_raw(&program);
    assert!(outcome.ok());
}

fn golden(name: &str) -> &'static str {
    match name {
        "dma_get_snoops_dirty_line" => {
            include_str!("golden/litmus/dma_get_snoops_dirty_line.txt")
        }
        "guest_writeback_vs_remote_load" => {
            include_str!("golden/litmus/guest_writeback_vs_remote_load.txt")
        }
        "filter_eviction_mid_tile" => include_str!("golden/litmus/filter_eviction_mid_tile.txt"),
        "dma_sync_tag_ordering" => include_str!("golden/litmus/dma_sync_tag_ordering.txt"),
        "local_store_remote_load" => include_str!("golden/litmus/local_store_remote_load.txt"),
        "stale_filter_after_map" => include_str!("golden/litmus/stale_filter_after_map.txt"),
        "prefetch_beside_exclusive_owner" => {
            include_str!("golden/litmus/prefetch_beside_exclusive_owner.txt")
        }
        other => panic!("no golden image for litmus case {other}"),
    }
}

#[test]
fn litmus_final_images_match_the_golden_snapshots() {
    let cfg = config(noc::NocModel::Analytic, CORES);
    for case in catalogue() {
        let program = (case.build)(CORES, cfg.spm.size / 2);
        let first = Machine::new(MachineKind::HybridProposed, cfg.clone()).verify_raw(&program);
        assert!(first.ok(), "{}: {}", case.name, first.divergence_report());
        assert_eq!(
            first.image.render(),
            golden(case.name),
            "{}: final image drifted from tests/golden/litmus/{}.txt; if \
             intentional, regenerate with `coherence_check --write-golden`",
            case.name,
            case.name
        );
        // Determinism re-run: bit-identical image and timing.
        let second = Machine::new(MachineKind::HybridProposed, cfg.clone()).verify_raw(&program);
        assert_eq!(first.image, second.image, "{}", case.name);
        assert_eq!(
            first.result.execution_time, second.result.execution_time,
            "{}",
            case.name
        );
    }
}

#[test]
fn directory_backend_is_coherent_across_the_whole_matrix() {
    // The same litmus catalogue, on the directory baseline backend: every
    // NoC model must hold the oracle's invariants with no SPM filters in
    // the machine at all.
    for case in catalogue() {
        for model in noc_models() {
            let cfg = directory_config(model, CORES);
            let program = (case.build)(CORES, cfg.spm.size / 2);
            let outcome = Machine::new(MachineKind::HybridProposed, cfg).verify_raw(&program);
            assert!(
                outcome.ok(),
                "{} on directory/{model:?}:\n{}",
                case.name,
                outcome.divergence_report()
            );
            assert!(outcome.report.loads_checked > 0, "{}", case.name);
        }
    }
}

#[test]
fn directory_litmus_images_match_the_filterdir_goldens() {
    // Final memory state is protocol-independent: the directory baseline
    // renders byte-for-byte the *same* golden images as the paper's
    // protocol — only timing and traffic may differ between backends.
    let cfg = directory_config(noc::NocModel::Analytic, CORES);
    for case in catalogue() {
        let program = (case.build)(CORES, cfg.spm.size / 2);
        let outcome = Machine::new(MachineKind::HybridProposed, cfg.clone()).verify_raw(&program);
        assert!(
            outcome.ok(),
            "{}: {}",
            case.name,
            outcome.divergence_report()
        );
        assert_eq!(
            outcome.image.render(),
            golden(case.name),
            "{}: the directory backend's final image drifted from the shared \
             golden tests/golden/litmus/{}.txt",
            case.name,
            case.name
        );
    }
}

#[test]
fn injected_directory_fault_is_caught_by_the_oracle() {
    // The directory backend's own defect knob: skipping the home-directory
    // update on map leaves guarded accesses going to (stale) global memory,
    // and the oracle must notice under every NoC model.
    let case = catalogue()
        .into_iter()
        .find(|c| c.name == "stale_filter_after_map")
        .expect("victim case exists");
    for model in noc_models() {
        let cfg = directory_config(model, CORES);
        let program = (case.build)(CORES, cfg.spm.size / 2);

        // Sanity: clean without the fault.
        let clean = Machine::new(MachineKind::HybridProposed, cfg.clone()).verify_raw(&program);
        assert!(clean.ok(), "{model:?}: {}", clean.divergence_report());

        let broken = Machine::new(MachineKind::HybridProposed, cfg)
            .with_fault(ProtocolFault::SkipDirectoryUpdateOnMap)
            .verify_raw(&program);
        assert!(
            !broken.ok(),
            "{model:?}: the injected directory defect must fail the oracle"
        );
    }
}

#[test]
fn each_fault_is_inert_on_the_other_backend() {
    // Faults name the backend they sabotage; the other backend has no such
    // structure and must run clean with the knob set.
    let case = catalogue()
        .into_iter()
        .find(|c| c.name == "stale_filter_after_map")
        .unwrap();
    let pairs = [
        (
            CoherenceProtocol::FilterDir,
            ProtocolFault::SkipDirectoryUpdateOnMap,
        ),
        (
            CoherenceProtocol::Directory,
            ProtocolFault::SkipFilterInvalidationOnMap,
        ),
    ];
    for (protocol, fault) in pairs {
        let mut cfg = config(noc::NocModel::Analytic, CORES);
        cfg.coherence_protocol = protocol;
        let program = (case.build)(CORES, cfg.spm.size / 2);
        let outcome = Machine::new(MachineKind::HybridProposed, cfg)
            .with_fault(fault)
            .verify_raw(&program);
        assert!(
            outcome.ok(),
            "{protocol:?} with {fault:?}: {}",
            outcome.divergence_report()
        );
    }
}

#[test]
fn images_are_identical_across_noc_models() {
    for cores in [1, 4] {
        for seed in [5u64, 6] {
            for (kind, mode) in [
                (MachineKind::HybridProposed, ExecMode::Hybrid),
                (MachineKind::CacheOnly, ExecMode::CacheOnly),
            ] {
                let program = fuzz(seed, cores, mode);
                let mut images: Vec<(String, MemoryImage)> = Vec::new();
                for model in noc_models() {
                    let cfg = config(model, cores);
                    let outcome = Machine::new(kind, cfg).verify_raw(&program);
                    assert!(
                        outcome.ok(),
                        "seed {seed} cores {cores} {kind:?}/{model:?}:\n{}",
                        outcome.divergence_report()
                    );
                    images.push((format!("{model:?}"), outcome.image));
                }
                assert!(!images[0].1.is_empty(), "programs leave visible state");
                for (label, image) in &images[1..] {
                    assert_eq!(
                        image, &images[0].1,
                        "seed {seed} cores {cores} {kind:?}: {label} diverges from {}",
                        images[0].0
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seed's final value image is bit-identical across the analytic
    /// and discrete-event NoC models on the proposed-protocol machine.
    #[test]
    fn prop_any_seed_matches_across_noc_models(seed in 0u64..10_000) {
        for cores in [1usize, 4] {
            let program = fuzz(seed, cores, ExecMode::Hybrid);
            let analytic = Machine::new(
                MachineKind::HybridProposed,
                config(noc::NocModel::Analytic, cores),
            )
            .verify_raw(&program);
            let des = Machine::new(
                MachineKind::HybridProposed,
                config(noc::NocModel::DiscreteEvent, cores),
            )
            .verify_raw(&program);
            prop_assert!(analytic.ok(), "{}", analytic.divergence_report());
            prop_assert!(des.ok(), "{}", des.divergence_report());
            prop_assert_eq!(&analytic.image, &des.image, "seed {} cores {}", seed, cores);
        }
    }

    /// Cross-protocol equivalence: the same program's final value image is
    /// bit-identical whether the paper's filter protocol or the directory
    /// baseline keeps the scratchpads coherent — the backends may only
    /// disagree on cost, never on values.
    #[test]
    fn prop_any_seed_matches_across_protocols(seed in 0u64..10_000) {
        for cores in [1usize, 4] {
            let program = fuzz(seed, cores, ExecMode::Hybrid);
            let filterdir = Machine::new(
                MachineKind::HybridProposed,
                config(noc::NocModel::Analytic, cores),
            )
            .verify_raw(&program);
            let directory = Machine::new(
                MachineKind::HybridProposed,
                directory_config(noc::NocModel::DiscreteEvent, cores),
            )
            .verify_raw(&program);
            prop_assert!(filterdir.ok(), "{}", filterdir.divergence_report());
            prop_assert!(directory.ok(), "{}", directory.divergence_report());
            prop_assert_eq!(
                &filterdir.image,
                &directory.image,
                "seed {} cores {}: protocols disagree on final values",
                seed,
                cores
            );
        }
    }
}

#[test]
fn nas_benchmarks_verify_on_every_machine_kind() {
    // The existing sweeps become latent correctness tests: a compiled NAS
    // workload runs under the oracle too.
    let spec = NasBenchmark::Cg.spec_scaled(1.0 / 512.0);
    for kind in MachineKind::ALL {
        let outcome = Machine::new(kind, SystemConfig::small(CORES)).verify_spec(&spec);
        assert!(
            outcome.ok(),
            "CG on {kind:?}:\n{}",
            outcome.divergence_report()
        );
        assert!(outcome.report.loads_checked > 1000);
    }
}

#[test]
fn value_tracking_leaves_timing_untouched() {
    // `track_values` must be a pure observer: bit-identical timing, stats
    // and traffic with and without it.
    let spec = NasBenchmark::Is.spec_scaled(1.0 / 2048.0);
    for kind in MachineKind::ALL {
        let mut with = SystemConfig::small(CORES);
        with.track_values = true;
        let tracked = Machine::new(kind, with).run(&spec);
        let plain = Machine::new(kind, SystemConfig::small(CORES)).run(&spec);
        assert_eq!(tracked.execution_time, plain.execution_time, "{kind:?}");
        assert_eq!(tracked.traffic, plain.traffic, "{kind:?}");
        assert_eq!(tracked.instructions, plain.instructions, "{kind:?}");
        assert_eq!(tracked.phase_cycles, plain.phase_cycles, "{kind:?}");
        // Every statistic matches except the value path's own observability
        // counter, which only exists when values flow.
        for key in [
            "cpu.cycles",
            "cpu.stall_cycles",
            "mem.l1d.accesses",
            "mem.l2.accesses",
            "mem.dram.accesses",
            "mem.prefetches",
            "noc.total.packets",
            "dmac.lines",
        ] {
            assert_eq!(
                tracked.stats.count(key),
                plain.stats.count(key),
                "{kind:?}: {key}"
            );
        }
        assert_eq!(plain.stats.count("cpu.lsq.value_forwards"), 0);
    }
}
