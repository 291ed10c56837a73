//! The hot-loop equivalence wall.
//!
//! The step-throughput overhaul rebuilds the simulator's inner loop (stat
//! handles, pooled events, SoA cache slabs) and must not change a single
//! observable number.  This matrix pins the full result-codec JSON of a
//! small run for every machine kind × NoC model × value-tracking
//! combination against goldens under `tests/golden/hot_loop/` captured from
//! the pre-refactor tree.  The `interleaved` segment of the golden names is
//! the scheduler they were captured under, which is now the only one.
//!
//! Every result carries its per-core cycle breakdown, and every golden run's
//! breakdown must pass the exhaustiveness check.  The breakdown joined the
//! goldens additively: every other field was captured before cycle
//! accounting was always on, so the wall also pins that accounting moves no
//! observable number.
//!
//! A perf refactor that touches these files is by definition not a pure
//! refactor: the goldens may only be regenerated by a PR that *intends* a
//! model change, with
//!
//! ```text
//! BLESS_HOT_LOOP=1 cargo test --release --test hot_loop_equivalence
//! ```
//!
//! and a justification of the drift.  (The JSON codec round-trips exactly
//! and the simulation is deterministic, so the snapshots are profile- and
//! host-independent.)

use std::fs;
use std::path::PathBuf;

use spm_manycore::campaign::Executor;
use spm_manycore::noc::NocModel;
use spm_manycore::simkernel::{Json, TraceSettings};
use spm_manycore::system::sweep::{LoweredRun, RunContext};
use spm_manycore::system::{CoherenceProtocol, Machine, MachineKind, RunResult, SystemConfig};
use spm_manycore::workloads::nas::NasBenchmark;
use spm_manycore::workloads::BenchmarkSpec;

/// The workload: small enough that the 12-run matrix stays fast in debug
/// builds, large enough to exercise DMA, guarded accesses, the prefetcher
/// and both NoC backends.
fn spec() -> BenchmarkSpec {
    NasBenchmark::Cg.spec_scaled(1.0 / 1024.0)
}

fn config(noc: NocModel, track_values: bool) -> SystemConfig {
    let mut config = SystemConfig::small(4);
    config.set_noc_model(noc);
    config.track_values = track_values;
    config
}

fn noc_id(noc: NocModel) -> &'static str {
    match noc {
        NocModel::Analytic => "analytic",
        NocModel::DiscreteEvent => "des",
    }
}

/// `tests/golden/hot_loop/<prefix>_interleaved_<noc>_<plain|valued>.json`.
fn golden_path(prefix: &str, noc: NocModel, values: bool) -> PathBuf {
    let name = format!(
        "{prefix}_interleaved_{}_{}.json",
        noc_id(noc),
        if values { "valued" } else { "plain" }
    );
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/hot_loop")
        .join(name)
}

fn run(kind: MachineKind, noc: NocModel, values: bool) -> RunResult {
    Machine::new(kind, config(noc, values)).run(&spec())
}

fn blessing() -> bool {
    std::env::var_os("BLESS_HOT_LOOP").is_some_and(|v| !v.is_empty() && v != "0")
}

#[test]
fn full_matrix_matches_pinned_goldens() {
    let mut checked = 0usize;
    for kind in MachineKind::ALL {
        for noc in [NocModel::Analytic, NocModel::DiscreteEvent] {
            for values in [false, true] {
                let combo = format!(
                    "{} × {} × {}",
                    kind.id(),
                    noc_id(noc),
                    if values { "valued" } else { "plain" }
                );
                let result = run(kind, noc, values);
                result
                    .breakdown
                    .check_exhaustive()
                    .unwrap_or_else(|e| panic!("{combo}: {e}"));
                let rendered = result.to_json();
                let path = golden_path(kind.id(), noc, values);
                if blessing() {
                    fs::create_dir_all(path.parent().unwrap()).unwrap();
                    fs::write(&path, &rendered).unwrap();
                    checked += 1;
                    continue;
                }
                let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
                    panic!(
                        "missing golden for {combo} at {}: {e}\n\
                         capture the wall with BLESS_HOT_LOOP=1 \
                         cargo test --release --test hot_loop_equivalence",
                        path.display()
                    )
                });
                assert_eq!(
                    rendered,
                    golden,
                    "{combo} drifted from {}; the hot-loop refactor must \
                     be bit-identical — if this change is an intentional \
                     model change, re-bless and justify the drift",
                    path.display()
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 12, "the matrix must cover every combination");
}

/// The directory-baseline wall, beside the paper-protocol one: the plain
/// home-directory backend gets its own pinned goldens for every NoC model ×
/// value-tracking combination on the proposed machine (the only kind the
/// protocol knob affects).  Same blessing path, same rules: only a PR that
/// intends a model change may regenerate them.
#[test]
fn directory_backend_matrix_matches_pinned_goldens() {
    let mut checked = 0usize;
    for noc in [NocModel::Analytic, NocModel::DiscreteEvent] {
        for values in [false, true] {
            let combo = format!(
                "directory × {} × {}",
                noc_id(noc),
                if values { "valued" } else { "plain" }
            );
            let mut cfg = config(noc, values);
            cfg.coherence_protocol = CoherenceProtocol::Directory;
            let result = Machine::new(MachineKind::HybridProposed, cfg).run(&spec());
            result
                .breakdown
                .check_exhaustive()
                .unwrap_or_else(|e| panic!("{combo}: {e}"));
            let rendered = result.to_json();
            let path = golden_path("directory", noc, values);
            if blessing() {
                fs::create_dir_all(path.parent().unwrap()).unwrap();
                fs::write(&path, &rendered).unwrap();
                checked += 1;
                continue;
            }
            let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing golden for {combo} at {}: {e}\n\
                     capture with BLESS_HOT_LOOP=1 \
                     cargo test --release --test hot_loop_equivalence",
                    path.display()
                )
            });
            assert_eq!(rendered, golden, "{combo} drifted from {}", path.display());
            checked += 1;
        }
    }
    assert_eq!(
        checked, 4,
        "the directory wall must cover every combination"
    );
}

/// The wide-mesh wall: every golden above runs on 4 cores, so none of them
/// ever promotes a directory entry's sharer vector past one word.  This one
/// runs the proposed machine on 128 cores under the DES NoC, where sharers
/// past core 63 take the multi-word path, and pins its full result JSON.
#[test]
fn wide_mesh_matches_pinned_golden() {
    let mut cfg = SystemConfig::small(128);
    cfg.set_noc_model(NocModel::DiscreteEvent);
    let result = Machine::new(MachineKind::HybridProposed, cfg).run(&spec());
    result
        .breakdown
        .check_exhaustive()
        .unwrap_or_else(|e| panic!("128 cores: {e}"));
    let rendered = result.to_json();
    let path = golden_path("hybrid-proposed-128c", NocModel::DiscreteEvent, false);
    if blessing() {
        fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden at {}: {e}\n\
             capture with BLESS_HOT_LOOP=1 \
             cargo test --release --test hot_loop_equivalence",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        golden,
        "128 cores drifted from {}",
        path.display()
    );
}

/// Worker count never shows up in the directory backend's results: the
/// same runs on one campaign worker and on four encode bit-identically, for
/// both NoC models with value tracking on.
#[test]
fn directory_backend_is_bit_identical_across_parallel_jobs() {
    let mut runs: Vec<LoweredRun> = Vec::new();
    for noc in [NocModel::Analytic, NocModel::DiscreteEvent] {
        let mut cfg = config(noc, true);
        cfg.coherence_protocol = CoherenceProtocol::Directory;
        runs.push((cfg, spec(), MachineKind::HybridProposed));
    }
    let run_with = |jobs: usize| -> Vec<String> {
        RunContext::new(Executor::new(jobs), None)
            .run_lowered(&runs)
            .results
            .iter()
            .map(RunResult::to_json)
            .collect()
    };
    assert_eq!(run_with(1), run_with(4));
}

/// Event tracing is pure presentation: arming the tracer with every
/// category and an aggressive sampling period must leave every observable
/// number — the complete result-codec JSON — bit-identical, on both NoC
/// backends.
#[test]
fn tracing_leaves_timing_untouched() {
    for noc in [NocModel::Analytic, NocModel::DiscreteEvent] {
        let combo = noc_id(noc);
        let plain = run(MachineKind::HybridProposed, noc, false);
        let mut traced = config(noc, false);
        traced.trace = TraceSettings::enabled();
        traced.trace.sample_interval = 500;
        let traced = Machine::new(MachineKind::HybridProposed, traced).run(&spec());
        assert_eq!(
            plain.to_json(),
            traced.to_json(),
            "{combo}: tracing must not perturb any observable number"
        );
    }
}

/// A traced run renders as a well-formed Chrome trace-event document:
/// per-core kernel/barrier spans from the audit, engine/DMA events from
/// the rings, and (on the DES NoC) per-home queue-depth counter tracks.
#[test]
fn traced_run_emits_a_valid_chrome_document() {
    let machine = Machine::new(
        MachineKind::HybridProposed,
        config(NocModel::DiscreteEvent, false),
    );
    let (result, capture) = machine.run_traced(&spec());
    assert!(result.execution_time.as_u64() > 0);
    assert!(capture.events() > 0, "the rings recorded nothing");

    let doc = capture.to_chrome();
    let reparsed = Json::parse(&doc.dump()).expect("the document must round-trip");
    assert_eq!(reparsed, doc, "dump → parse must be the identity");

    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    let named = |ph: &str, pred: &dyn Fn(&str) -> bool| {
        events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some(ph)
                && e.get("name").and_then(Json::as_str).is_some_and(pred)
        })
    };
    assert!(
        named("X", &|name| name == "barrier"),
        "missing barrier spans"
    );
    assert!(
        named("X", &|name| name == "conj_grad"),
        "missing kernel spans"
    );
    assert!(
        named("C", &|name| name.starts_with("noc.des.home_queue.")),
        "missing per-home queue-depth counter tracks"
    );
    let series = capture.tracer.series();
    assert!(
        !series.is_empty(),
        "the stat time-series recorded no samples"
    );

    // The sampled hierarchy counters: every `mem.*` name as its own track,
    // in the hierarchy's counter order, whose interval deltas add up to no
    // more than the count the run exported.
    const MEM_TRACKS: [&str; 14] = [
        "mem.l1d.accesses",
        "mem.l1d.hits",
        "mem.l1i.accesses",
        "mem.l1i.hits",
        "mem.l2.accesses",
        "mem.l2.hits",
        "mem.dram.accesses",
        "mem.l1.writebacks",
        "mem.l2.evictions",
        "mem.invalidations",
        "mem.prefetches",
        "mem.forwards",
        "mem.dma.line_reads",
        "mem.dma.line_writes",
    ];
    let tracks: Vec<&str> = series.track_names().collect();
    let mem_tracks: Vec<&str> = tracks
        .iter()
        .copied()
        .filter(|name| name.starts_with("mem."))
        .collect();
    assert_eq!(mem_tracks, MEM_TRACKS, "the sampled mem.* tracks");
    for name in MEM_TRACKS {
        let idx = tracks.iter().position(|&t| t == name).unwrap();
        let sampled: f64 = series
            .samples()
            .filter_map(|(_, values)| values.get(idx).copied().flatten())
            .sum();
        let exported = result.stats.count(name);
        assert!(
            sampled <= exported as f64,
            "{name}: sampled deltas {sampled} exceed the exported {exported}"
        );
    }
    assert!(result.stats.count("mem.l1d.accesses") > 0);
}

/// Value tracking moves real data along every access path but must leave
/// the timing model completely untouched: same clocks, same traffic, same
/// energy, on both NoC backends.
#[test]
fn value_tracking_leaves_timing_untouched() {
    for noc in [NocModel::Analytic, NocModel::DiscreteEvent] {
        let plain = run(MachineKind::HybridProposed, noc, false);
        let valued = run(MachineKind::HybridProposed, noc, true);
        let combo = noc_id(noc);
        assert_eq!(
            plain.execution_time, valued.execution_time,
            "{combo}: execution time"
        );
        assert_eq!(
            plain.phase_cycles, valued.phase_cycles,
            "{combo}: phase breakdown"
        );
        assert_eq!(
            plain.instructions, valued.instructions,
            "{combo}: instructions"
        );
        assert_eq!(plain.traffic, valued.traffic, "{combo}: NoC traffic");
        assert_eq!(
            plain.breakdown, valued.breakdown,
            "{combo}: cycle breakdown"
        );
        assert_eq!(
            plain.total_energy().to_bits(),
            valued.total_energy().to_bits(),
            "{combo}: energy"
        );
        // Every exported stat matches except the value-forwarding
        // counter, which is functional (it counts data actually moved
        // through the LSQ, so it is zero without values).
        let timing_stats = |r: &RunResult| {
            r.stats
                .iter()
                .filter(|(name, _)| *name != "cpu.lsq.value_forwards")
                .map(|(name, value)| (name.to_owned(), format!("{value:?}")))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            timing_stats(&plain),
            timing_stats(&valued),
            "{combo}: stat registry"
        );
    }
}
