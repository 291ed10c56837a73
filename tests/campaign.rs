//! Integration tests for the campaign subsystem: cache-key stability,
//! serial/parallel determinism across all three machine kinds (under both
//! NoC models), NoC model equivalence at zero load, and the
//! executes-zero-points-on-repeat cache guarantee.

use proptest::collection::vec;
use proptest::prelude::*;

use spm_manycore::campaign::{CacheKey, Executor, ResultCache};
use spm_manycore::noc::{MessageClass, Noc, NocConfig, NocModel};
use spm_manycore::simkernel::{Cycle, NodeId};
use spm_manycore::system::sweep::{run_points, to_csv, RunContext, RunDescriptor, SweepSpec};
use spm_manycore::system::{CoherenceProtocol, MachineKind, RunResult};
use spm_manycore::workloads::nas::NasBenchmark;

/// The three-machine sweep the determinism tests run: one benchmark on the
/// scaled-down test machine, small enough for the test suite.
fn three_machine_points() -> Vec<RunDescriptor> {
    SweepSpec::new(&[NasBenchmark::Cg])
        .with_cores(&[4])
        .with_scales(&[1.0 / 512.0])
        .small()
        .points()
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    // CARGO_TARGET_TMPDIR is provided to integration tests by cargo and
    // lives under `target/`, so scratch caches never escape the build tree.
    std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cache key is invariant under any rotation/reversal of the field
    /// list — reordering struct fields can never invalidate a cache.
    #[test]
    fn cache_key_is_stable_across_field_reordering(
        values in vec(any::<u64>(), 2..9),
        rotation in 0usize..8,
        reverse in any::<bool>(),
    ) {
        let fields: Vec<(String, String)> = values
            .iter()
            .enumerate()
            .map(|(i, v)| (format!("field_{i}"), v.to_string()))
            .collect();
        let mut reordered = fields.clone();
        reordered.rotate_left(rotation % fields.len().max(1));
        if reverse {
            reordered.reverse();
        }
        let key = |fields: &[(String, String)]| {
            CacheKey::from_fields(fields.iter().map(|(n, v)| (n.as_str(), v.clone())))
        };
        prop_assert_eq!(key(&fields), key(&reordered));
    }

    /// Distinct field values produce distinct keys (no trivial collisions).
    #[test]
    fn cache_key_tracks_values(a in any::<u64>(), b in any::<u64>()) {
        let key = |v: u64| CacheKey::from_fields([("x", v.to_string())]);
        prop_assert_eq!(key(a) == key(b), a == b);
    }
}

#[test]
fn des_latency_equals_analytic_zero_load_for_every_pair() {
    // Model equivalence: at (near-)zero injection the discrete-event NoC
    // must reproduce the analytic zero-load latency exactly, for every
    // src/dst pair and both packet kinds.
    for cores in [4, 16, 64] {
        let config = NocConfig::isca2015(cores).with_model(NocModel::DiscreteEvent);
        let analytic = Noc::new(NocConfig::isca2015(cores));
        let mut des = Noc::new(config);
        let mut epoch = Cycle::ZERO;
        for from in 0..cores {
            for to in 0..cores {
                for bytes in [8u64, 64] {
                    // Leap far ahead so every queue has drained: each probe
                    // sees an idle network.
                    epoch += Cycle::new(100_000);
                    des.advance_to(epoch);
                    let (from, to) = (NodeId::new(from), NodeId::new(to));
                    assert_eq!(
                        des.send(from, to, MessageClass::Read, bytes),
                        analytic.latency(from, to, bytes),
                        "{cores} cores, {from}->{to}, {bytes}B"
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_and_serial_campaigns_are_bit_identical_on_all_machine_kinds() {
    let points = three_machine_points();
    assert_eq!(points.len(), 3, "one point per machine kind");
    let serial = run_points(&RunContext::new(Executor::new(1), None), &points).unwrap();
    let parallel = run_points(&RunContext::new(Executor::new(4), None), &points).unwrap();
    assert_eq!(serial.executed, 3);
    assert_eq!(parallel.executed, 3);
    for ((point, a), b) in points.iter().zip(&serial.results).zip(&parallel.results) {
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "jobs=1 vs jobs=4 diverged on {}",
            point.label()
        );
    }
}

#[test]
fn discrete_event_campaigns_are_bit_identical_across_job_counts() {
    let points: Vec<_> = three_machine_points()
        .into_iter()
        .map(|mut p| {
            p.noc_model = Some(NocModel::DiscreteEvent);
            p
        })
        .collect();
    let serial = run_points(&RunContext::new(Executor::new(1), None), &points).unwrap();
    let parallel = run_points(&RunContext::new(Executor::new(4), None), &points).unwrap();
    for ((point, a), b) in points.iter().zip(&serial.results).zip(&parallel.results) {
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "DES backend: jobs=1 vs jobs=4 diverged on {}",
            point.label()
        );
        assert!(
            a.stats.contains("noc.des.links.max_utilization"),
            "{}: DES stats missing",
            point.label()
        );
    }
}

#[test]
fn repeated_campaign_executes_zero_points() {
    let cache = ResultCache::new(scratch_dir("repeat-campaign-cache"));
    let _ = std::fs::remove_dir_all(cache.dir());
    let ctx = RunContext::new(Executor::new(2), Some(cache.clone()));
    let points = three_machine_points();

    let first = run_points(&ctx, &points).unwrap();
    assert_eq!(first.executed, points.len());
    assert_eq!(first.cache_hits, 0);
    assert_eq!(cache.len(), points.len());

    let second = run_points(&ctx, &points).unwrap();
    assert_eq!(second.executed, 0, "{}", second.accounting());
    assert_eq!(second.cache_hits, points.len());
    for (a, b) in first.results.iter().zip(&second.results) {
        assert_eq!(a.to_json(), b.to_json(), "cached replay drifted");
    }

    // A new point executes; the old ones still hit.
    let mut grown = points.clone();
    let mut extra = grown[0].clone();
    extra.benchmark = NasBenchmark::Is;
    grown.push(extra);
    let third = run_points(&ctx, &grown).unwrap();
    assert_eq!(third.executed, 1);
    assert_eq!(third.cache_hits, points.len());

    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn protocol_axis_campaign_round_trips_through_the_cache() {
    let cache = ResultCache::new(scratch_dir("protocol-axis-cache"));
    let _ = std::fs::remove_dir_all(cache.dir());
    let ctx = RunContext::new(Executor::new(2), Some(cache.clone()));
    let points = SweepSpec::new(&[NasBenchmark::Cg])
        .with_machines(&[MachineKind::HybridProposed])
        .with_cores(&[4])
        .with_scales(&[1.0 / 512.0])
        .with_protocols(&CoherenceProtocol::ALL)
        .small()
        .points();
    assert_eq!(points.len(), 2, "one point per coherence protocol");

    let first = run_points(&ctx, &points).unwrap();
    assert_eq!(first.executed, 2);
    let (filterdir, directory) = (&first.results[0], &first.results[1]);
    assert_eq!(
        filterdir.instructions, directory.instructions,
        "the program is protocol-independent"
    );
    assert_ne!(
        filterdir.execution_time, directory.execution_time,
        "the backends genuinely differ in cost"
    );

    // Exports carry the protocol column for both rows.
    let records: Vec<_> = points.iter().zip(&first.results).collect();
    let csv = to_csv(&records);
    assert!(csv.lines().next().unwrap().contains(",protocol,"), "{csv}");
    assert!(csv.contains(",filterdir,"), "{csv}");
    assert!(csv.contains(",directory,"), "{csv}");

    // Cached replay: zero executions the second time around.
    let second = run_points(&ctx, &points).unwrap();
    assert_eq!(second.executed, 0, "{}", second.accounting());
    assert_eq!(second.cache_hits, 2);

    // An unset protocol lowers to the filterdir default — byte-identical
    // lowered inputs, so it must hit the same cache entry.
    let mut default_point = points[0].clone();
    default_point.protocol = None;
    let third = run_points(&ctx, std::slice::from_ref(&default_point)).unwrap();
    assert_eq!(
        third.executed, 0,
        "the default protocol must hit the explicit-filterdir cache entry"
    );

    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn cached_blobs_are_valid_run_result_json() {
    let cache = ResultCache::new(scratch_dir("blob-format-cache"));
    let _ = std::fs::remove_dir_all(cache.dir());
    let ctx = RunContext::new(Executor::new(1), Some(cache.clone()));
    let points = &three_machine_points()[..1];
    run_points(&ctx, points).unwrap();

    let entries: Vec<_> = std::fs::read_dir(cache.dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1);
    let blob = std::fs::read_to_string(&entries[0]).unwrap();
    let parsed = RunResult::from_json(&blob).expect("cache blob is RunResult JSON");
    assert_eq!(parsed.benchmark, "CG");
    assert_eq!(parsed.to_json(), blob, "encoding is a fixed point");

    let _ = std::fs::remove_dir_all(cache.dir());
}
