//! JSON serialization of [`RunResult`] (and back).
//!
//! The campaign result cache stores every simulation run as a JSON blob, so
//! unlike the report-only `--json` output this codec must *round-trip*: for
//! any run, `from_json(to_json(r))` reconstructs `r` exactly (numbers use
//! the shortest-representation emitter of [`simkernel::json`], which is
//! bit-faithful for `f64`, and all counters fit `f64`'s 2^53 integer range
//! by a comfortable margin).
//!
//! Decoding is total: any malformed, truncated or outdated blob yields
//! `None`, which the cache treats as a miss — never a wrong result.

use simkernel::json::Json;
use simkernel::{Cycle, CycleBreakdown, StatRegistry};

use energy::EnergyBreakdown;
use noc::TrafficAccountant;
use spm_coherence::ProtocolStats;

use crate::config::MachineKind;
use crate::machine::RunResult;

/// Version stamp of the blob layout, embedded in every encoded blob;
/// decoding rejects blobs carrying a different version.
///
/// Bump it when the layout changes.  It is independent of
/// [`campaign::CACHE_FORMAT`], which the cache key also folds in and which
/// additionally versions the simulation semantics a blob was computed
/// under: changing what a run computes bumps the cache format alone, so no
/// older entry is ever served while the layout (and every golden written in
/// it) stays as it was.  Version 7 added the per-core cycle breakdown, so a
/// version-6 blob (which has none) is a miss.
const RESULT_FORMAT: u64 = 7;

macro_rules! protocol_stats_codec {
    ($($field:ident),* $(,)?) => {
        fn protocol_to_json(p: &ProtocolStats) -> Json {
            Json::obj([$((stringify!($field), Json::from(p.$field)),)*])
        }

        fn protocol_from_json(v: &Json) -> Option<ProtocolStats> {
            let mut p = ProtocolStats::new();
            $(p.$field = v.get(stringify!($field))?.as_u64()?;)*
            Some(p)
        }
    };
}

protocol_stats_codec!(
    guarded_loads,
    guarded_stores,
    served_by_gm,
    local_spm_hits,
    remote_spm_accesses,
    filter_lookups,
    filter_hits,
    filterdir_requests,
    filterdir_hits,
    broadcasts,
    spmdir_probe_lookups,
    dma_mappings,
    filter_invalidation_rounds,
    filter_entries_invalidated,
    filter_eviction_notifies,
    filterdir_evictions,
    parallel_l1_lookups,
    lsq_recheck_notifications,
);

fn u64_array<const N: usize>(values: [u64; N]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::from(v)).collect())
}

fn u64_array_back<const N: usize>(v: &Json) -> Option<[u64; N]> {
    let items = v.as_array()?;
    if items.len() != N {
        return None;
    }
    let mut out = [0u64; N];
    for (slot, item) in out.iter_mut().zip(items) {
        *slot = item.as_u64()?;
    }
    Some(out)
}

fn stats_to_json(stats: &StatRegistry) -> Json {
    let mut counts = Vec::new();
    let mut values = Vec::new();
    for (name, value) in stats.iter() {
        match value {
            simkernel::stats::StatValue::Count(c) => counts.push((name, Json::from(*c))),
            simkernel::stats::StatValue::Value(v) => values.push((name, Json::from(*v))),
        }
    }
    Json::obj([("counts", Json::obj(counts)), ("values", Json::obj(values))])
}

fn stats_from_json(v: &Json) -> Option<StatRegistry> {
    let mut stats = StatRegistry::new();
    let Json::Obj(counts) = v.get("counts")? else {
        return None;
    };
    for (name, value) in counts {
        stats.add_count(name, value.as_u64()?);
    }
    let Json::Obj(values) = v.get("values")? else {
        return None;
    };
    for (name, value) in values {
        stats.set_value(name, value.as_f64()?);
    }
    Some(stats)
}

/// Encodes a run result as a [`Json`] tree.
pub fn run_result_to_json(r: &RunResult) -> Json {
    let traffic = r.traffic.snapshot();
    Json::obj([
        ("format", Json::from(RESULT_FORMAT)),
        ("benchmark", Json::str(&r.benchmark)),
        ("kind", Json::str(r.kind.id())),
        ("execution_time", Json::from(r.execution_time.as_u64())),
        (
            "phase_cycles",
            u64_array([
                r.phase_cycles[0].as_u64(),
                r.phase_cycles[1].as_u64(),
                r.phase_cycles[2].as_u64(),
            ]),
        ),
        (
            "traffic",
            Json::Arr(traffic.iter().map(|&row| u64_array(row)).collect()),
        ),
        (
            "energy",
            Json::Arr(
                r.energy
                    .joules_by_component()
                    .iter()
                    .map(|&j| Json::from(j))
                    .collect(),
            ),
        ),
        ("filter_hit_ratio", Json::from(r.filter_hit_ratio)),
        ("protocol", protocol_to_json(&r.protocol)),
        ("instructions", Json::from(r.instructions)),
        ("stats", stats_to_json(&r.stats)),
        ("breakdown", r.breakdown.to_json()),
    ])
}

/// Decodes a run result from a [`Json`] tree, or `None` if the tree is not
/// a valid current-format encoding.
pub fn run_result_from_json(v: &Json) -> Option<RunResult> {
    if v.get("format")?.as_u64()? != RESULT_FORMAT {
        return None;
    }
    let phase = u64_array_back::<3>(v.get("phase_cycles")?)?;
    let traffic_rows = v.get("traffic")?.as_array()?;
    if traffic_rows.len() != 4 {
        return None;
    }
    let mut snapshot = [[0u64; 6]; 4];
    for (row, item) in snapshot.iter_mut().zip(traffic_rows) {
        *row = u64_array_back::<6>(item)?;
    }
    let energy_items = v.get("energy")?.as_array()?;
    if energy_items.len() != 6 {
        return None;
    }
    let mut joules = [0.0f64; 6];
    for (slot, item) in joules.iter_mut().zip(energy_items) {
        *slot = item.as_f64()?;
    }
    let filter_hit_ratio = match v.get("filter_hit_ratio")? {
        Json::Null => None,
        other => Some(other.as_f64()?),
    };
    let stats = stats_from_json(v.get("stats")?)?;
    let mut protocol = protocol_from_json(v.get("protocol")?)?;
    // The `protocol` object has no `directory_requests` field; the count
    // travels in the stats registry, which the directory backend exports.
    protocol.directory_requests = stats.count("cohprot.directory.requests");
    Some(RunResult {
        benchmark: v.get("benchmark")?.as_str()?.to_owned(),
        kind: MachineKind::from_id(v.get("kind")?.as_str()?)?,
        execution_time: Cycle::new(v.get("execution_time")?.as_u64()?),
        phase_cycles: [
            Cycle::new(phase[0]),
            Cycle::new(phase[1]),
            Cycle::new(phase[2]),
        ],
        traffic: TrafficAccountant::from_snapshot(snapshot),
        energy: EnergyBreakdown::from_joules(joules),
        filter_hit_ratio,
        protocol,
        instructions: v.get("instructions")?.as_u64()?,
        stats,
        breakdown: CycleBreakdown::from_json(v.get("breakdown")?).ok()?,
    })
}

impl RunResult {
    /// Serializes the result as pretty-printed JSON.
    ///
    /// The inverse of [`RunResult::from_json`]; the pair round-trips
    /// exactly, which is what lets the campaign cache replay a run.
    pub fn to_json(&self) -> String {
        run_result_to_json(self).pretty()
    }

    /// Parses a result serialized by [`RunResult::to_json`].
    ///
    /// Returns `None` for anything else (malformed JSON, missing or
    /// mistyped fields, foreign format version).
    pub fn from_json(text: &str) -> Option<RunResult> {
        run_result_from_json(&Json::parse(text).ok()?)
    }
}

/// The campaign codec for caching [`RunResult`]s.
pub fn run_result_codec() -> campaign::Codec<RunResult> {
    campaign::Codec {
        encode: |r| r.to_json(),
        decode: RunResult::from_json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::machine::Machine;
    use workloads::nas::NasBenchmark;

    fn sample_result(kind: MachineKind) -> RunResult {
        let config = SystemConfig::small(4);
        let spec = NasBenchmark::Cg.spec_scaled(1.0 / 512.0);
        Machine::new(kind, config).run(&spec)
    }

    #[test]
    fn round_trips_every_machine_kind_exactly() {
        for kind in MachineKind::ALL {
            let original = sample_result(kind);
            let text = original.to_json();
            let restored = RunResult::from_json(&text).expect("decodes");
            assert_eq!(restored.benchmark, original.benchmark);
            assert_eq!(restored.kind, original.kind);
            assert_eq!(restored.execution_time, original.execution_time);
            assert_eq!(restored.phase_cycles, original.phase_cycles);
            assert_eq!(restored.traffic, original.traffic);
            assert_eq!(restored.energy, original.energy);
            assert_eq!(restored.filter_hit_ratio, original.filter_hit_ratio);
            assert_eq!(restored.protocol, original.protocol);
            assert_eq!(restored.instructions, original.instructions);
            assert_eq!(restored.stats, original.stats);
            assert_eq!(restored.breakdown, original.breakdown);
            assert_eq!(restored.breakdown.cores.len(), 4);
            // And the encoding itself is a fixed point.
            assert_eq!(restored.to_json(), text);
        }
    }

    #[test]
    fn round_trips_the_directory_backends_requests() {
        let mut config = SystemConfig::small(4);
        config.coherence_protocol = crate::config::CoherenceProtocol::Directory;
        let spec = NasBenchmark::Cg.spec_scaled(1.0 / 512.0);
        let original = Machine::new(MachineKind::HybridProposed, config).run(&spec);
        assert!(original.protocol.directory_requests > 0);
        let restored = RunResult::from_json(&original.to_json()).expect("decodes");
        assert_eq!(restored.protocol, original.protocol);
    }

    #[test]
    fn rejects_malformed_and_foreign_blobs() {
        assert!(RunResult::from_json("").is_none());
        assert!(RunResult::from_json("{}").is_none());
        assert!(RunResult::from_json("[1, 2]").is_none());
        let mut v = run_result_to_json(&sample_result(MachineKind::CacheOnly));
        if let Json::Obj(members) = &mut v {
            members.insert("format".into(), Json::from(999u64));
        }
        assert!(run_result_from_json(&v).is_none(), "foreign version");
    }

    #[test]
    fn format_6_blobs_without_a_breakdown_are_misses() {
        let v = run_result_to_json(&sample_result(MachineKind::HybridProposed));
        let Json::Obj(mut members) = v else {
            unreachable!()
        };
        members.remove("breakdown");
        members.insert("format".into(), Json::from(6u64));
        let old = Json::Obj(members.clone());
        assert!(run_result_from_json(&old).is_none(), "format 6");
        // Stamping the current version does not make a blob without a
        // breakdown decodable either.
        members.insert("format".into(), Json::from(RESULT_FORMAT));
        assert!(
            run_result_from_json(&Json::Obj(members)).is_none(),
            "no breakdown"
        );
    }

    #[test]
    fn rejects_wrong_arity_arrays() {
        let v = run_result_to_json(&sample_result(MachineKind::HybridIdeal));
        let Json::Obj(mut members) = v else {
            unreachable!()
        };
        members.insert("phase_cycles".into(), Json::Arr(vec![Json::from(1u64)]));
        assert!(run_result_from_json(&Json::Obj(members)).is_none());
    }

    #[test]
    fn codec_is_usable_by_the_campaign_cache() {
        let codec = run_result_codec();
        let original = sample_result(MachineKind::HybridProposed);
        let blob = (codec.encode)(&original);
        let restored = (codec.decode)(&blob).expect("decodes");
        assert_eq!(restored.stats, original.stats);
        assert!((codec.decode)("garbage").is_none());
    }
}
