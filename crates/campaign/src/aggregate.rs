//! Aggregation of campaign results into summary tables and exports.
//!
//! The campaign engine does not depend on the simulator layers, so it
//! aggregates a compact [`PointMetrics`] (extracted from each run by the
//! caller — see `system::sweep::metrics_of`) rather than full run results.
//! From those it derives the paper-style comparisons — hybrid speedup over
//! the cache baseline, protocol overhead over ideal coherence, traffic and
//! energy ratios — per sweep point, plus CSV and JSON exports.

use std::collections::BTreeMap;

use simkernel::{CycleCategory, Json, TableBuilder};

use crate::hash::f64_field;
use crate::spec::RunDescriptor;

/// The headline measurements of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointMetrics {
    /// End-to-end execution time in cycles (the slowest core).
    pub execution_cycles: u64,
    /// Total NoC packets injected.
    pub total_packets: u64,
    /// Total energy in joules.
    pub total_energy_j: f64,
    /// Total instructions executed over all cores.
    pub instructions: u64,
    /// Filter hit ratio, when the proposed protocol ran and used filters.
    pub filter_hit_ratio: Option<f64>,
    /// Machine-wide cycle-accounting totals in [`CycleCategory::ALL`]
    /// order: every core's cycles, summed per category.
    pub breakdown: [u64; CycleCategory::COUNT],
}

/// One campaign point with its measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// The point that was run.
    pub descriptor: RunDescriptor,
    /// What the run measured.
    pub metrics: PointMetrics,
}

/// One row of the cross-machine summary: all machines that ran the same
/// (benchmark, cores, scale, size-overrides) point, compared.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    /// Human-readable point label (benchmark, cores, any overrides).
    pub label: String,
    /// Execution cycles per machine id, for machines present in the sweep.
    pub cycles: BTreeMap<String, u64>,
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
pub fn summarize(records: &[PointRecord]) -> CampaignSummary {
    // Group key: every descriptor field except the machine.
    let group_key = |d: &RunDescriptor| -> String {
        let mut key = String::new();
        for (name, value) in d.fields() {
            if name != "machine" {
                key.push_str(name);
                key.push('=');
                key.push_str(&value);
                key.push('\n');
            }
        }
        key
    };

    let mut order: Vec<String> = Vec::new();
    let mut groups: BTreeMap<String, Vec<&PointRecord>> = BTreeMap::new();
    for record in records {
        let key = group_key(&record.descriptor);
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(record);
    }

    let rows = order
        .into_iter()
        .map(|key| {
            let members = &groups[&key];
            let mut label_descriptor = members[0].descriptor.clone();
            label_descriptor.machine = "*".into();
            let by_machine: BTreeMap<&str, PointMetrics> = members
                .iter()
                .map(|r| (r.descriptor.machine.as_str(), r.metrics))
                .collect();
            let cache = by_machine.get("cache-only");
            let ideal = by_machine.get("hybrid-ideal");
            let proposed = by_machine.get("hybrid-proposed");
            let ratio = |num: f64, den: f64| (den > 0.0).then(|| num / den);
            SummaryRow {
                label: label_descriptor.label().replace("/*", "").replace("*/", ""),
                cycles: members
                    .iter()
                    .map(|r| (r.descriptor.machine.clone(), r.metrics.execution_cycles))
                    .collect(),
                speedup: cache
                    .zip(proposed)
                    .and_then(|(c, p)| ratio(c.execution_cycles as f64, p.execution_cycles as f64)),
                protocol_overhead: proposed
                    .zip(ideal)
                    .and_then(|(p, i)| ratio(p.execution_cycles as f64, i.execution_cycles as f64)),
                traffic_ratio: proposed
                    .zip(cache)
                    .and_then(|(p, c)| ratio(p.total_packets as f64, c.total_packets as f64)),
                energy_ratio: proposed
                    .zip(cache)
                    .and_then(|(p, c)| ratio(p.total_energy_j, c.total_energy_j)),
            }
        })
        .collect();
    CampaignSummary { rows }
}

/// The CSV column order used by [`to_csv`].
///
/// The nine `cycles_*` columns come strictly **after** every other column
/// (consumers that slice the leading descriptor+metric columns keep
/// working).  A test pins their names to [`CycleCategory::ALL`].  `cycles_dma_wait` is
/// always 0: the scheduler charges `dma-synch` waits to `cycles_park` (see
/// [`CycleCategory::DmaWait`]).
pub const CSV_COLUMNS: [&str; 24] = [
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
];

/// Exports every record as CSV, one row per point, header included.
pub fn to_csv(records: &[PointRecord]) -> String {
    fn opt<T: ToString>(v: &Option<T>) -> String {
        v.as_ref().map_or_else(String::new, T::to_string)
    }
    let mut out = CSV_COLUMNS.join(",");
    out.push('\n');
    for r in records {
        let d = &r.descriptor;
        let m = &r.metrics;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            d.benchmark,
            d.machine,
            d.cores,
            d.scale_multiplier,
            opt(&d.spm_kib),
            opt(&d.filter_entries),
            opt(&d.filterdir_entries),
            opt(&d.noc_model),
            opt(&d.protocol),
            d.small_machine,
            m.execution_cycles,
            m.total_packets,
            m.total_energy_j,
            m.instructions,
            opt(&m.filter_hit_ratio),
        ));
        for count in m.breakdown {
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
pub fn to_json(records: &[PointRecord]) -> String {
    let array: Vec<Json> = records
        .iter()
        .map(|r| {
            let d = &r.descriptor;
            let m = &r.metrics;
            fn opt_num<T: Copy + Into<u64>>(v: Option<T>) -> Json {
                v.map_or(Json::Null, |v| Json::from(v.into()))
            }
            Json::obj([
                (
                    "descriptor",
                    Json::obj([
                        ("benchmark", Json::str(&d.benchmark)),
                        ("machine", Json::str(&d.machine)),
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
                        (
                            "noc_model",
                            d.noc_model.as_deref().map_or(Json::Null, Json::str),
                        ),
                        (
                            "protocol",
                            d.protocol.as_deref().map_or(Json::Null, Json::str),
                        ),
                        ("small_machine", Json::Bool(d.small_machine)),
                    ]),
                ),
                (
                    "metrics",
                    Json::obj([
                        ("execution_cycles", Json::from(m.execution_cycles)),
                        ("total_packets", Json::from(m.total_packets)),
                        ("total_energy_j", Json::from(m.total_energy_j)),
                        ("instructions", Json::from(m.instructions)),
                        ("filter_hit_ratio", Json::from(m.filter_hit_ratio)),
                        (
                            "breakdown",
                            Json::obj(
                                CycleCategory::ALL
                                    .iter()
                                    .zip(m.breakdown)
                                    .map(|(category, count)| (category.id(), Json::from(count))),
                            ),
                        ),
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

    fn record(machine: &str, cycles: u64, packets: u64, energy: f64) -> PointRecord {
        PointRecord {
            descriptor: RunDescriptor::new("CG", machine, 16),
            metrics: PointMetrics {
                execution_cycles: cycles,
                total_packets: packets,
                total_energy_j: energy,
                instructions: 1000,
                filter_hit_ratio: (machine == "hybrid-proposed").then_some(0.97),
                breakdown: std::array::from_fn(|i| if i == 0 { cycles } else { 0 }),
            },
        }
    }

    fn three_machines() -> Vec<PointRecord> {
        vec![
            record("cache-only", 1200, 900, 3.0),
            record("hybrid-ideal", 950, 600, 2.4),
            record("hybrid-proposed", 1000, 650, 2.5),
        ]
    }

    #[test]
    fn summary_compares_machines_within_a_point() {
        let summary = summarize(&three_machines());
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
        let summary = summarize(&[record("hybrid-proposed", 1000, 650, 2.5)]);
        let row = &summary.rows[0];
        assert_eq!(row.speedup, None);
        assert_eq!(row.protocol_overhead, None);
        assert_eq!(summary.average_speedup(), None);
        assert!(summary.to_table().contains("n/a"));
    }

    #[test]
    fn groups_split_on_every_non_machine_axis() {
        let mut records = three_machines();
        let mut bigger = record("cache-only", 5000, 2000, 9.0);
        bigger.descriptor.cores = 64;
        records.push(bigger);
        let summary = summarize(&records);
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
        let csv = to_csv(&three_machines());
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
        let mut records = three_machines();
        records[0].metrics.breakdown = std::array::from_fn(|i| 100 + i as u64);
        let csv = to_csv(&records);
        let accounted: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(
            accounted[15..],
            ["100", "101", "102", "103", "104", "105", "106", "107", "108"]
        );
    }

    #[test]
    fn json_export_parses_back() {
        let text = to_json(&three_machines());
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
        let mut records = three_machines();
        records[2].metrics.breakdown = std::array::from_fn(|i| 10 * i as u64);
        let parsed = Json::parse(&to_json(&records)).unwrap();
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
