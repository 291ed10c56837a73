//! Aggregation of campaign results into summary tables and exports
//! (re-exported by [`crate::sweep`]).
//!
//! Every function reads `(point, result)` pairs — a [`RunDescriptor`] and
//! the [`RunResult`] its run produced — and derives the paper-style
//! comparisons (hybrid speedup over the cache baseline, protocol overhead
//! over ideal coherence, traffic and energy ratios) per sweep point, plus
//! CSV and JSON exports.

use campaign::hash::f64_field;
use noc::MessageClass;
use simkernel::{CycleCategory, Json, TableBuilder};

use crate::config::MachineKind;
use crate::machine::RunResult;
use crate::spec::RunDescriptor;

/// One row of the cross-machine summary: all machines that ran the same
/// (benchmark, cores, scale, size-overrides) point, compared.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    /// Human-readable point label (benchmark, cores, any overrides).
    pub label: String,
    /// Execution cycles per machine, in sweep order.
    pub cycles: Vec<(MachineKind, u64)>,
    /// Hybrid-proposed speedup over the cache-only baseline.
    pub speedup: Option<f64>,
    /// Proposed-protocol execution-time overhead vs ideal coherence
    /// (proposed / ideal).
    pub protocol_overhead: Option<f64>,
    /// Proposed-protocol NoC traffic relative to the cache-only baseline.
    pub traffic_ratio: Option<f64>,
    /// Proposed-protocol energy relative to the cache-only baseline.
    pub energy_ratio: Option<f64>,
}

/// The summary of a whole campaign, one row per non-machine point.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Rows in sweep-enumeration order.
    pub rows: Vec<SummaryRow>,
}

impl CampaignSummary {
    /// Renders the summary as a text table.
    pub fn to_table(&self) -> String {
        let mut t = TableBuilder::new("Campaign summary (hybrid-proposed vs baselines)");
        t.columns(&[
            "Point",
            "Speedup vs cache",
            "Time vs ideal",
            "Traffic vs cache",
            "Energy vs cache",
        ]);
        let fmt = |v: Option<f64>, suffix: &str| {
            v.map_or_else(|| "n/a".to_owned(), |v| format!("{v:.3}{suffix}"))
        };
        for row in &self.rows {
            t.row_owned(vec![
                row.label.clone(),
                fmt(row.speedup, "x"),
                fmt(row.protocol_overhead, "x"),
                fmt(row.traffic_ratio, "x"),
                fmt(row.energy_ratio, "x"),
            ]);
        }
        t.build()
    }

    /// Mean hybrid-proposed speedup over the rows that have one.
    pub fn average_speedup(&self) -> Option<f64> {
        let speedups: Vec<f64> = self.rows.iter().filter_map(|r| r.speedup).collect();
        if speedups.is_empty() {
            None
        } else {
            Some(speedups.iter().sum::<f64>() / speedups.len() as f64)
        }
    }
}

/// Groups records that differ only in machine kind and compares the
/// machines within each group.
pub fn summarize(records: &[(&RunDescriptor, &RunResult)]) -> CampaignSummary {
    // Groups in order of first appearance.
    let mut groups: Vec<Vec<(&RunDescriptor, &RunResult)>> = Vec::new();
    for &(d, r) in records {
        let same_point = |other: &RunDescriptor| {
            *d == RunDescriptor {
                machine: d.machine,
                ..other.clone()
            }
        };
        match groups.iter_mut().find(|group| same_point(group[0].0)) {
            Some(group) => group.push((d, r)),
            None => groups.push(vec![(d, r)]),
        }
    }

    let rows = groups
        .iter()
        .map(|members| {
            let on = |kind: MachineKind| {
                members
                    .iter()
                    .find(|(d, _)| d.machine == kind)
                    .map(|&(_, r)| r)
            };
            let cache = on(MachineKind::CacheOnly);
            let ideal = on(MachineKind::HybridIdeal);
            let proposed = on(MachineKind::HybridProposed);
            let cycles = |r: &RunResult| r.execution_time.as_u64() as f64;
            let ratio = |num: f64, den: f64| (den > 0.0).then(|| num / den);
            SummaryRow {
                label: members[0].0.point_label(),
                cycles: members
                    .iter()
                    .map(|(d, r)| (d.machine, r.execution_time.as_u64()))
                    .collect(),
                speedup: cache
                    .zip(proposed)
                    .and_then(|(c, p)| ratio(cycles(c), cycles(p))),
                protocol_overhead: proposed
                    .zip(ideal)
                    .and_then(|(p, i)| ratio(cycles(p), cycles(i))),
                traffic_ratio: proposed
                    .zip(cache)
                    .and_then(|(p, c)| ratio(p.total_packets() as f64, c.total_packets() as f64)),
                energy_ratio: proposed
                    .zip(cache)
                    .and_then(|(p, c)| ratio(p.total_energy(), c.total_energy())),
            }
        })
        .collect();
    CampaignSummary { rows }
}

/// The CSV column order used by [`to_csv`].
///
/// The nine `cycles_*` columns come **after** every descriptor and headline
/// metric column (consumers that slice the leading descriptor+metric columns
/// keep working), followed by the per-class `packets_*` and then `flits_*`
/// columns.  Tests pin their names to [`CycleCategory::ALL`] and
/// [`MessageClass::ALL`].  `cycles_dma_wait` is always 0: the scheduler
/// charges `dma-synch` waits to `cycles_park` (see
/// [`CycleCategory::DmaWait`]).
pub const CSV_COLUMNS: [&str; 36] = [
    "benchmark",
    "machine",
    "cores",
    "scale_multiplier",
    "spm_kib",
    "filter_entries",
    "filterdir_entries",
    "noc_model",
    "protocol",
    "small_machine",
    "execution_cycles",
    "total_packets",
    "total_energy_j",
    "instructions",
    "filter_hit_ratio",
    "cycles_compute",
    "cycles_ifetch",
    "cycles_lsq_stall",
    "cycles_miss_wait",
    "cycles_dma_wait",
    "cycles_barrier_wait",
    "cycles_noc_queue",
    "cycles_protocol",
    "cycles_park",
    "packets_ifetch",
    "packets_read",
    "packets_write",
    "packets_wb_repl",
    "packets_dma",
    "packets_cohprot",
    "flits_ifetch",
    "flits_read",
    "flits_write",
    "flits_wb_repl",
    "flits_dma",
    "flits_cohprot",
];

/// Exports every record as CSV, one row per point, header included.
pub fn to_csv(records: &[(&RunDescriptor, &RunResult)]) -> String {
    fn opt<T: ToString>(v: &Option<T>) -> String {
        v.as_ref().map_or_else(String::new, T::to_string)
    }
    let mut out = CSV_COLUMNS.join(",");
    out.push('\n');
    for (d, r) in records {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            d.benchmark.name(),
            d.machine.id(),
            d.cores,
            d.scale_multiplier,
            opt(&d.spm_kib),
            opt(&d.filter_entries),
            opt(&d.filterdir_entries),
            opt(&d.noc_model),
            opt(&d.protocol),
            d.small_machine,
            r.execution_time.as_u64(),
            r.total_packets(),
            r.total_energy(),
            r.instructions,
            opt(&r.filter_hit_ratio),
        ));
        let counts = *r.breakdown.totals().counts();
        let (packets, flits) = (r.traffic.packets_by_class(), r.traffic.flits_by_class());
        for count in counts.iter().chain(&packets).chain(&flits) {
            out.push(',');
            out.push_str(&count.to_string());
        }
        out.push('\n');
    }
    out
}

/// Exports every record as a JSON array of `{descriptor, metrics}` objects.
///
/// The descriptor's scale multiplier is emitted twice: human-readable
/// (`scale_multiplier`) and bit-exact (`scale_multiplier_bits`), so the
/// export can reconstruct descriptors without floating-point drift.
pub fn to_json(records: &[(&RunDescriptor, &RunResult)]) -> String {
    fn opt_num<T: Copy + Into<u64>>(v: Option<T>) -> Json {
        v.map_or(Json::Null, |v| Json::from(v.into()))
    }
    fn opt_id(id: Option<&str>) -> Json {
        id.map_or(Json::Null, Json::str)
    }
    fn by_class(counts: [u64; MessageClass::ALL.len()]) -> Json {
        Json::obj(
            MessageClass::ALL
                .iter()
                .zip(counts)
                .map(|(class, count)| (class.id(), Json::from(count))),
        )
    }
    let array: Vec<Json> = records
        .iter()
        .map(|(d, r)| {
            Json::obj([
                (
                    "descriptor",
                    Json::obj([
                        ("benchmark", Json::str(d.benchmark.name())),
                        ("machine", Json::str(d.machine.id())),
                        ("cores", Json::from(d.cores as u64)),
                        ("scale_multiplier", Json::from(d.scale_multiplier)),
                        (
                            "scale_multiplier_bits",
                            Json::str(f64_field(d.scale_multiplier)),
                        ),
                        ("spm_kib", opt_num(d.spm_kib)),
                        (
                            "filter_entries",
                            opt_num(d.filter_entries.map(|v| v as u64)),
                        ),
                        (
                            "filterdir_entries",
                            opt_num(d.filterdir_entries.map(|v| v as u64)),
                        ),
                        ("noc_model", opt_id(d.noc_model.map(|m| m.id()))),
                        ("protocol", opt_id(d.protocol.map(|p| p.id()))),
                        ("small_machine", Json::Bool(d.small_machine)),
                    ]),
                ),
                (
                    "metrics",
                    Json::obj([
                        ("execution_cycles", Json::from(r.execution_time.as_u64())),
                        ("total_packets", Json::from(r.total_packets())),
                        ("total_energy_j", Json::from(r.total_energy())),
                        ("instructions", Json::from(r.instructions)),
                        ("filter_hit_ratio", Json::from(r.filter_hit_ratio)),
                        (
                            "breakdown",
                            Json::obj(
                                CycleCategory::ALL
                                    .iter()
                                    .zip(*r.breakdown.totals().counts())
                                    .map(|(category, count)| (category.id(), Json::from(count))),
                            ),
                        ),
                        ("packets", by_class(r.traffic.packets_by_class())),
                        ("flits", by_class(r.traffic.flits_by_class())),
                    ]),
                ),
            ])
        })
        .collect();
    Json::Arr(array).pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use energy::Component;
    use noc::TrafficAccountant;
    use simkernel::attrib::CoreBreakdown;
    use simkernel::{Cycle, CycleAccount, CycleBreakdown, StatRegistry};
    use workloads::nas::NasBenchmark;
    use MachineKind::{CacheOnly, HybridIdeal, HybridProposed};

    /// A result with the given headline numbers; every cycle is compute
    /// and the packets are reads.
    fn result(kind: MachineKind, cycles: u64, packets: u64, energy: f64) -> RunResult {
        let mut account = CycleAccount::new();
        account.charge(CycleCategory::Compute, cycles);
        let mut snapshot = [[0; 6]; 4];
        snapshot[0][MessageClass::Read.index()] = packets;
        let mut joules = energy::EnergyBreakdown::new();
        joules.add_energy(Component::Cpus, energy);
        RunResult {
            benchmark: "CG".into(),
            kind,
            execution_time: Cycle::new(cycles),
            phase_cycles: [Cycle::ZERO; 3],
            traffic: TrafficAccountant::from_snapshot(snapshot),
            energy: joules,
            filter_hit_ratio: (kind == HybridProposed).then_some(0.97),
            protocol: Default::default(),
            instructions: 1000,
            stats: StatRegistry::new(),
            breakdown: CycleBreakdown {
                cores: vec![CoreBreakdown {
                    account,
                    elapsed: cycles,
                }],
            },
        }
    }

    fn point(kind: MachineKind) -> RunDescriptor {
        RunDescriptor::new(NasBenchmark::Cg, kind, 16)
    }

    fn three_machines() -> (Vec<RunDescriptor>, Vec<RunResult>) {
        (
            vec![point(CacheOnly), point(HybridIdeal), point(HybridProposed)],
            vec![
                result(CacheOnly, 1200, 900, 3.0),
                result(HybridIdeal, 950, 600, 2.4),
                result(HybridProposed, 1000, 650, 2.5),
            ],
        )
    }

    fn pairs<'a>(
        points: &'a [RunDescriptor],
        results: &'a [RunResult],
    ) -> Vec<(&'a RunDescriptor, &'a RunResult)> {
        points.iter().zip(results).collect()
    }

    #[test]
    fn summary_compares_machines_within_a_point() {
        let (points, results) = three_machines();
        let summary = summarize(&pairs(&points, &results));
        assert_eq!(summary.rows.len(), 1);
        let row = &summary.rows[0];
        assert_eq!(row.label, "CG/16c");
        assert_eq!(row.cycles.len(), 3);
        assert!((row.speedup.unwrap() - 1.2).abs() < 1e-12);
        assert!((row.protocol_overhead.unwrap() - 1000.0 / 950.0).abs() < 1e-12);
        assert!((row.traffic_ratio.unwrap() - 650.0 / 900.0).abs() < 1e-12);
        assert!((row.energy_ratio.unwrap() - 2.5 / 3.0).abs() < 1e-12);
        assert!((summary.average_speedup().unwrap() - 1.2).abs() < 1e-12);
        let table = summary.to_table();
        assert!(table.contains("CG/16c"));
        assert!(table.contains("1.200x"));
    }

    #[test]
    fn missing_machines_leave_holes_not_garbage() {
        let points = [point(HybridProposed)];
        let results = [result(HybridProposed, 1000, 650, 2.5)];
        let summary = summarize(&pairs(&points, &results));
        let row = &summary.rows[0];
        assert_eq!(row.speedup, None);
        assert_eq!(row.protocol_overhead, None);
        assert_eq!(summary.average_speedup(), None);
        assert!(summary.to_table().contains("n/a"));
    }

    #[test]
    fn groups_split_on_every_non_machine_axis() {
        let (mut points, mut results) = three_machines();
        let mut bigger = point(CacheOnly);
        bigger.cores = 64;
        points.push(bigger);
        results.push(result(CacheOnly, 5000, 2000, 9.0));
        let summary = summarize(&pairs(&points, &results));
        assert_eq!(summary.rows.len(), 2);
        // The 64-core group only has the cache machine: no ratios.
        let lone = summary
            .rows
            .iter()
            .find(|r| r.label.contains("64c"))
            .unwrap();
        assert_eq!(lone.speedup, None);
    }

    #[test]
    fn csv_has_header_and_one_row_per_record() {
        let (points, results) = three_machines();
        let csv = to_csv(&pairs(&points, &results));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], CSV_COLUMNS.join(","));
        assert!(lines[1].starts_with("CG,cache-only,16,1,"));
        // Optional fields render empty, not "None".
        assert!(!csv.contains("None"));
        assert!(lines[3].contains("0.97"));
        // Every row has every column, the breakdown included.
        for line in &lines[1..] {
            assert_eq!(line.matches(',').count(), CSV_COLUMNS.len() - 1);
            assert!(line.ends_with(",0,0,0,0,0,0,0,0"), "{line}");
        }
    }

    #[test]
    fn csv_breakdown_columns_mirror_the_category_order() {
        // The appended column names are the category ids, in ALL order, so
        // the campaign CSV and the `cycle_report --csv` export agree.
        for (column, category) in CSV_COLUMNS[15..].iter().zip(CycleCategory::ALL) {
            assert_eq!(*column, format!("cycles_{}", category.id()));
        }
        let (points, mut results) = three_machines();
        let mut account = CycleAccount::new();
        for category in CycleCategory::ALL {
            account.charge(category, 100 + category.index() as u64);
        }
        results[0].breakdown.cores[0].account = account;
        let csv = to_csv(&pairs(&points, &results));
        let accounted: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(
            accounted[15..24],
            ["100", "101", "102", "103", "104", "105", "106", "107", "108"]
        );
    }

    #[test]
    fn exports_carry_traffic_by_class() {
        for (i, class) in MessageClass::ALL.iter().enumerate() {
            assert_eq!(CSV_COLUMNS[24 + i], format!("packets_{}", class.id()));
            assert_eq!(CSV_COLUMNS[30 + i], format!("flits_{}", class.id()));
        }
        let (points, mut results) = three_machines();
        let mut snapshot = [[0; 6]; 4];
        snapshot[0] = std::array::from_fn(|i| 10 + i as u64);
        snapshot[1] = std::array::from_fn(|i| 20 + i as u64);
        results[1].traffic = TrafficAccountant::from_snapshot(snapshot);
        let records = pairs(&points, &results);
        let csv = to_csv(&records);
        let row: Vec<&str> = csv.lines().nth(2).unwrap().split(',').collect();
        assert_eq!(
            row[24..],
            ["10", "11", "12", "13", "14", "15", "20", "21", "22", "23", "24", "25"]
        );
        let parsed = Json::parse(&to_json(&records)).unwrap();
        let metrics = parsed.as_array().unwrap()[1].get("metrics").unwrap();
        let packets = metrics.get("packets").unwrap();
        assert_eq!(packets.get("ifetch").unwrap().as_u64(), Some(10));
        assert_eq!(packets.get("cohprot").unwrap().as_u64(), Some(15));
        let flits = metrics.get("flits").unwrap();
        assert_eq!(flits.get("wb_repl").unwrap().as_u64(), Some(23));
    }

    #[test]
    fn json_export_parses_back() {
        let (points, results) = three_machines();
        let text = to_json(&pairs(&points, &results));
        let parsed = Json::parse(&text).unwrap();
        let array = parsed.as_array().unwrap();
        assert_eq!(array.len(), 3);
        let first = &array[0];
        assert_eq!(
            first.get("descriptor").unwrap().get("benchmark").unwrap(),
            &Json::str("CG")
        );
        assert_eq!(
            first
                .get("metrics")
                .unwrap()
                .get("execution_cycles")
                .unwrap()
                .as_u64(),
            Some(1200)
        );
        assert!(first
            .get("metrics")
            .unwrap()
            .get("filter_hit_ratio")
            .unwrap()
            .is_null());
        assert_eq!(
            first
                .get("metrics")
                .unwrap()
                .get("breakdown")
                .unwrap()
                .get("compute")
                .unwrap()
                .as_u64(),
            Some(1200)
        );
    }

    #[test]
    fn json_export_carries_breakdowns_by_category_id() {
        let (points, mut results) = three_machines();
        let mut account = CycleAccount::new();
        for category in CycleCategory::ALL {
            account.charge(category, 10 * category.index() as u64);
        }
        results[2].breakdown.cores[0].account = account;
        let parsed = Json::parse(&to_json(&pairs(&points, &results))).unwrap();
        let breakdown = parsed.as_array().unwrap()[2]
            .get("metrics")
            .unwrap()
            .get("breakdown")
            .unwrap()
            .clone();
        assert_eq!(breakdown.get("compute").unwrap().as_u64(), Some(0));
        assert_eq!(breakdown.get("noc_queue").unwrap().as_u64(), Some(60));
        assert_eq!(breakdown.get("park").unwrap().as_u64(), Some(80));
    }
}
