//! The metric catalogue (names, units, directions) and the result line.

use simkernel::Json;

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// Reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    lower("wall_s", "s"),
    higher("sim_mips", "MIPS"),
    lower("cpu_s", "s"),
    lower("peak_rss_mb", "MiB"),
    lower("setup_s", "s"),
];

/// Reported by traced runs (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    // Host time, from the replays.
    lower("engine.residual_share", "share"),
    lower("workloads.compile_s", "s"),
    lower("workloads.opgen_ns_per_op", "ns"),
    lower("workloads.opgen_share", "share"),
    lower("cpu.ns_per_op", "ns"),
    lower("cpu.host_share", "share"),
    lower("mem.setup_s", "s"),
    lower("mem.ns_per_access", "ns"),
    lower("mem.host_share", "share"),
    lower("spm.ns_per_dma_line", "ns"),
    lower("spm.host_share", "share"),
    lower("spm_coherence.ns_per_guarded", "ns"),
    lower("spm_coherence.host_share", "share"),
    lower("noc.ns_per_packet", "ns"),
    lower("noc.host_share", "share"),
    lower("observers.accounting_ratio", "ratio"),
    lower("trace.overhead_s", "s"),
    lower("fail_ratio", "ratio"),
    // Simulated counts: identical on any speed-only change.
    lower("workloads.ops", "count"),
    lower("sim.instructions", "count"),
    lower("sim.cycles", "cycles"),
    higher("cycles.compute", "share"),
    lower("cycles.ifetch", "share"),
    lower("cycles.lsq_stall", "share"),
    lower("cycles.miss_wait", "share"),
    lower("cycles.dma_wait", "share"),
    lower("cycles.barrier_wait", "share"),
    lower("cycles.noc_queue", "share"),
    lower("cycles.protocol", "share"),
    lower("cycles.park", "share"),
    higher("mem.l1d.hit_ratio", "ratio"),
    higher("mem.l2.hit_ratio", "ratio"),
    lower("mem.dram.accesses", "count"),
    lower("spm.array_accesses", "count"),
    lower("dmac.lines", "count"),
    lower("dmac.queue_full_stalls", "count"),
    lower("cohprot.guarded", "count"),
    higher("cohprot.filter.hit_ratio", "ratio"),
    lower("directory.requests", "count"),
    lower("noc.total.packets", "count"),
    lower("noc.total.flit_hops", "count"),
    lower("noc.cohprot.packets", "count"),
    lower("noc.des.latency.mean", "cycles"),
    lower("noc.des.inject.wait_cycles", "cycles"),
    lower("noc.des.links.max_utilization", "ratio"),
];

/// The final line of a run: verdict, attempt counts and every metric of
/// `catalogue`, each exactly once.
///
/// # Panics
///
/// Panics if `values` does not name every metric of `catalogue` exactly once
/// — a bug in this benchmark, not in the program it measures.
pub fn result_line(
    catalogue: &[MetricDef],
    values: &[(&str, f64)],
    attempted: u64,
    failed: u64,
) -> String {
    assert_eq!(values.len(), catalogue.len(), "one value per metric");
    let metrics = catalogue.iter().map(|def| {
        let value = values
            .iter()
            .find(|(name, _)| *name == def.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", def.name))
            .1;
        assert!(value.is_finite(), "metric {} is not finite", def.name);
        (
            def.name,
            Json::obj([("value", Json::num(value)), ("unit", Json::str(def.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .dump()
}
