//! Derivation of Figures 7–11 from a set of cached runs.

use serde::{Deserialize, Serialize};

use energy::Component;
use workloads::Phase;

use crate::config::MachineKind;
use crate::report::{fmt_percent, fmt_percent_delta, fmt_ratio, TableBuilder};

use super::ExperimentSuite;

// ---------------------------------------------------------------- Figure 7

/// One benchmark's overheads of the proposed protocol over ideal coherence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig7Row {
    /// Execution-time ratio (proposed / ideal).
    pub execution_time: f64,
    /// Energy ratio (proposed / ideal).
    pub energy: f64,
    /// NoC-traffic ratio (proposed / ideal).
    pub noc_traffic: f64,
}

/// Figure 7: overhead in execution time, energy and NoC traffic added by the
/// coherence protocol, per benchmark, relative to ideal coherence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Table {
    /// `(benchmark, overhead ratios)` in the paper's order.
    pub rows: Vec<(String, Fig7Row)>,
}

impl Fig7Table {
    /// Geometric-mean-free simple averages over the benchmarks, as the paper
    /// reports them ("4 % performance, 9 % energy, 8 % traffic").
    pub fn averages(&self) -> Fig7Row {
        let n = self.rows.len().max(1) as f64;
        Fig7Row {
            execution_time: self.rows.iter().map(|(_, r)| r.execution_time).sum::<f64>() / n,
            energy: self.rows.iter().map(|(_, r)| r.energy).sum::<f64>() / n,
            noc_traffic: self.rows.iter().map(|(_, r)| r.noc_traffic).sum::<f64>() / n,
        }
    }

    /// Renders the figure as a text table.
    pub fn to_table(&self) -> String {
        let mut t = TableBuilder::new(
            "Figure 7: overhead of the proposed coherence protocol vs ideal coherence",
        );
        t.columns(&["Benchmark", "Execution time", "Energy", "NoC traffic"]);
        for (name, r) in &self.rows {
            t.row_owned(vec![
                name.clone(),
                fmt_percent_delta(r.execution_time),
                fmt_percent_delta(r.energy),
                fmt_percent_delta(r.noc_traffic),
            ]);
        }
        let avg = self.averages();
        t.row_owned(vec![
            "average".into(),
            fmt_percent_delta(avg.execution_time),
            fmt_percent_delta(avg.energy),
            fmt_percent_delta(avg.noc_traffic),
        ]);
        t.build()
    }
}

pub(super) fn fig7(suite: &ExperimentSuite) -> Fig7Table {
    let mut rows = Vec::new();
    for (name, proposed, ideal) in
        suite.pairs(MachineKind::HybridProposed, MachineKind::HybridIdeal)
    {
        rows.push((
            name,
            Fig7Row {
                execution_time: ratio(
                    proposed.execution_time.as_f64(),
                    ideal.execution_time.as_f64(),
                ),
                energy: ratio(proposed.total_energy(), ideal.total_energy()),
                noc_traffic: ratio(
                    proposed.total_packets() as f64,
                    ideal.total_packets() as f64,
                ),
            },
        ));
    }
    Fig7Table { rows }
}

// ---------------------------------------------------------------- Figure 8

/// Figure 8: filter hit ratio per benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Table {
    /// `(benchmark, hit ratio)`; `None` for benchmarks that issue no guarded
    /// accesses (SP).
    pub rows: Vec<(String, Option<f64>)>,
}

impl Fig8Table {
    /// The lowest hit ratio measured (the paper highlights IS at 92 %).
    pub fn minimum(&self) -> Option<f64> {
        self.rows
            .iter()
            .filter_map(|(_, r)| *r)
            .min_by(|a, b| a.partial_cmp(b).expect("hit ratios are finite"))
    }

    /// Renders the figure as a text table.
    pub fn to_table(&self) -> String {
        let mut t = TableBuilder::new("Figure 8: filter hit ratio");
        t.columns(&["Benchmark", "Filter hit ratio"]);
        for (name, ratio) in &self.rows {
            let cell = match ratio {
                Some(r) => fmt_percent(*r),
                None => "n/a (no guarded accesses)".to_owned(),
            };
            t.row_owned(vec![name.clone(), cell]);
        }
        t.build()
    }
}

pub(super) fn fig8(suite: &ExperimentSuite) -> Fig8Table {
    let rows = suite
        .benchmarks()
        .into_iter()
        .filter_map(|benchmark| {
            suite
                .result(benchmark, MachineKind::HybridProposed)
                .map(|r| (benchmark.name().to_owned(), r.filter_hit_ratio))
        })
        .collect();
    Fig8Table { rows }
}

// ---------------------------------------------------------------- Figure 9

/// One benchmark's execution-time comparison (everything normalised to the
/// cache-based system).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig9Row {
    /// Hybrid execution time relative to the cache-based system.
    pub hybrid_normalized: f64,
    /// Speedup of the hybrid system (cache / hybrid).
    pub speedup: f64,
    /// Hybrid time in the control phase (normalised to cache-based total).
    pub control: f64,
    /// Hybrid time in the synchronization phase (normalised).
    pub sync: f64,
    /// Hybrid time in the work phase (normalised).
    pub work: f64,
    /// Reduction of the work phase vs the cache-based system (1 − work).
    pub work_reduction: f64,
}

/// Figure 9: performance of the cache-based and hybrid systems.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig9Table {
    /// `(benchmark, row)` in the paper's order.
    pub rows: Vec<(String, Fig9Row)>,
}

impl Fig9Table {
    /// Average speedup over the benchmarks (the paper reports 1.14x).
    pub fn average_speedup(&self) -> f64 {
        let n = self.rows.len().max(1) as f64;
        self.rows.iter().map(|(_, r)| r.speedup).sum::<f64>() / n
    }

    /// Renders the figure as a text table.
    pub fn to_table(&self) -> String {
        let mut t = TableBuilder::new(
            "Figure 9: execution time, cache-based (C, = 1.0) vs hybrid (H), split by phase",
        );
        t.columns(&[
            "Benchmark",
            "H total",
            "H control",
            "H sync",
            "H work",
            "Speedup",
            "Work-phase reduction",
        ]);
        for (name, r) in &self.rows {
            t.row_owned(vec![
                name.clone(),
                format!("{:.3}", r.hybrid_normalized),
                format!("{:.3}", r.control),
                format!("{:.3}", r.sync),
                format!("{:.3}", r.work),
                fmt_ratio(r.speedup),
                fmt_percent(r.work_reduction),
            ]);
        }
        t.row_owned(vec![
            "average".into(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            fmt_ratio(self.average_speedup()),
            String::new(),
        ]);
        t.build()
    }
}

pub(super) fn fig9(suite: &ExperimentSuite) -> Fig9Table {
    let mut rows = Vec::new();
    for (name, hybrid, cache) in suite.pairs(MachineKind::HybridProposed, MachineKind::CacheOnly) {
        let cache_time = cache.execution_time.as_f64().max(1.0);
        let normalized = hybrid.execution_time.as_f64() / cache_time;
        let control = hybrid.phase_cycles[Phase::Control.index()].as_f64() / cache_time;
        let sync = hybrid.phase_cycles[Phase::Sync.index()].as_f64() / cache_time;
        let work = hybrid.phase_cycles[Phase::Work.index()].as_f64() / cache_time;
        let cache_work = cache.phase_cycles[Phase::Work.index()].as_f64() / cache_time;
        rows.push((
            name,
            Fig9Row {
                hybrid_normalized: normalized,
                speedup: 1.0 / normalized.max(1e-9),
                control,
                sync,
                work,
                work_reduction: (cache_work - work).max(0.0) / cache_work.max(1e-9),
            },
        ));
    }
    Fig9Table { rows }
}

// --------------------------------------------------------------- Figure 10

/// Figure 10: NoC traffic of the cache-based and hybrid systems, split into
/// the six message classes and normalised to the cache-based total.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10Table {
    /// `(benchmark, cache-based packets per class, hybrid packets per class,
    /// hybrid total normalised to cache-based)`.
    pub rows: Vec<(String, [u64; 6], [u64; 6], f64)>,
}

impl Fig10Table {
    /// Average normalised hybrid traffic (the paper reports a 29 % reduction,
    /// i.e. 0.71).
    pub fn average_normalized_traffic(&self) -> f64 {
        let n = self.rows.len().max(1) as f64;
        self.rows.iter().map(|(_, _, _, t)| t).sum::<f64>() / n
    }

    /// Renders the figure as a text table.
    pub fn to_table(&self) -> String {
        let mut t = TableBuilder::new(
            "Figure 10: NoC traffic (packets) per class, cache-based (C) vs hybrid (H)",
        );
        t.columns(&[
            "Benchmark",
            "System",
            "Ifetch",
            "Read",
            "Write",
            "WB-Repl",
            "DMA",
            "CohProt",
            "Total (norm.)",
        ]);
        for (name, cache, hybrid, normalized) in &self.rows {
            let total_cache: u64 = cache.iter().sum();
            t.row_owned(vec![
                name.clone(),
                "C".into(),
                cache[0].to_string(),
                cache[1].to_string(),
                cache[2].to_string(),
                cache[3].to_string(),
                cache[4].to_string(),
                cache[5].to_string(),
                format!("1.000 ({total_cache})"),
            ]);
            t.row_owned(vec![
                String::new(),
                "H".into(),
                hybrid[0].to_string(),
                hybrid[1].to_string(),
                hybrid[2].to_string(),
                hybrid[3].to_string(),
                hybrid[4].to_string(),
                hybrid[5].to_string(),
                format!("{normalized:.3}"),
            ]);
        }
        t.build()
    }
}

pub(super) fn fig10(suite: &ExperimentSuite) -> Fig10Table {
    let mut rows = Vec::new();
    for (name, hybrid, cache) in suite.pairs(MachineKind::HybridProposed, MachineKind::CacheOnly) {
        let cache_packets = cache.traffic.packets_by_class();
        let hybrid_packets = hybrid.traffic.packets_by_class();
        let normalized = ratio(hybrid.total_packets() as f64, cache.total_packets() as f64);
        rows.push((name, cache_packets, hybrid_packets, normalized));
    }
    Fig10Table { rows }
}

// --------------------------------------------------------------- Figure 11

/// Figure 11: energy of the cache-based and hybrid systems, split into the
/// six component groups and normalised to the cache-based total.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig11Table {
    /// `(benchmark, cache-based fractions per component, hybrid fractions per
    /// component normalised to the cache-based total, hybrid total)`.
    pub rows: Vec<(String, [f64; 6], [f64; 6], f64)>,
}

impl Fig11Table {
    /// Average normalised hybrid energy (the paper reports a 17 % reduction,
    /// i.e. 0.83).
    pub fn average_normalized_energy(&self) -> f64 {
        let n = self.rows.len().max(1) as f64;
        self.rows.iter().map(|(_, _, _, t)| t).sum::<f64>() / n
    }

    /// Renders the figure as a text table.
    pub fn to_table(&self) -> String {
        let mut t = TableBuilder::new(
            "Figure 11: energy per component, cache-based (C, total = 1.0) vs hybrid (H)",
        );
        let mut columns = vec!["Benchmark", "System"];
        columns.extend(Component::ALL.iter().map(|c| c.label()));
        columns.push("Total");
        t.columns(&columns);
        for (name, cache, hybrid, total) in &self.rows {
            let mut row = vec![name.clone(), "C".into()];
            row.extend(cache.iter().map(|v| format!("{v:.3}")));
            row.push("1.000".into());
            t.row_owned(row);
            let mut row = vec![String::new(), "H".into()];
            row.extend(hybrid.iter().map(|v| format!("{v:.3}")));
            row.push(format!("{total:.3}"));
            t.row_owned(row);
        }
        t.build()
    }
}

pub(super) fn fig11(suite: &ExperimentSuite) -> Fig11Table {
    let mut rows = Vec::new();
    for (name, hybrid, cache) in suite.pairs(MachineKind::HybridProposed, MachineKind::CacheOnly) {
        let cache_bars = cache.energy.normalized_to(&cache.energy);
        let hybrid_bars = hybrid.energy.normalized_to(&cache.energy);
        let total = ratio(hybrid.total_energy(), cache.total_energy());
        rows.push((name, cache_bars, hybrid_bars, total));
    }
    Fig11Table { rows }
}

// ----------------------------------------------------------------- Summary

/// The headline comparison the paper reports in its abstract and conclusions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SummaryTable {
    /// Average speedup of the hybrid system over the cache-based system.
    pub average_speedup: f64,
    /// Average NoC-traffic ratio (hybrid / cache-based).
    pub average_traffic_ratio: f64,
    /// Average energy ratio (hybrid / cache-based).
    pub average_energy_ratio: f64,
    /// Average execution-time overhead of the protocol vs ideal coherence.
    pub protocol_time_overhead: f64,
    /// Average energy overhead of the protocol vs ideal coherence.
    pub protocol_energy_overhead: f64,
    /// Average NoC-traffic overhead of the protocol vs ideal coherence.
    pub protocol_traffic_overhead: f64,
}

impl SummaryTable {
    /// Renders the summary as a pretty-printed JSON object.
    ///
    /// Non-finite values (a zero-denominator ratio) become `null` exactly as
    /// serde_json would serialize them — `Display`'s `inf`/`NaN` are not
    /// JSON tokens — so the output always survives a parse → emit cycle
    /// through [`simkernel::Json::parse`].
    pub fn to_json(&self) -> String {
        simkernel::Json::obj([
            (
                "average_speedup",
                simkernel::Json::from(self.average_speedup),
            ),
            (
                "average_traffic_ratio",
                simkernel::Json::from(self.average_traffic_ratio),
            ),
            (
                "average_energy_ratio",
                simkernel::Json::from(self.average_energy_ratio),
            ),
            (
                "protocol_time_overhead",
                simkernel::Json::from(self.protocol_time_overhead),
            ),
            (
                "protocol_energy_overhead",
                simkernel::Json::from(self.protocol_energy_overhead),
            ),
            (
                "protocol_traffic_overhead",
                simkernel::Json::from(self.protocol_traffic_overhead),
            ),
        ])
        .pretty()
    }

    /// Renders the summary as a text table.
    pub fn to_table(&self) -> String {
        let mut t = TableBuilder::new("Headline comparison (cf. paper abstract)");
        t.columns(&["Metric", "Measured", "Paper"]);
        t.row_owned(vec![
            "Hybrid speedup over cache-based".into(),
            fmt_ratio(self.average_speedup),
            "1.14x".into(),
        ]);
        t.row_owned(vec![
            "Hybrid NoC traffic vs cache-based".into(),
            fmt_percent_delta(self.average_traffic_ratio),
            "-29 %".into(),
        ]);
        t.row_owned(vec![
            "Hybrid energy vs cache-based".into(),
            fmt_percent_delta(self.average_energy_ratio),
            "-17 %".into(),
        ]);
        t.row_owned(vec![
            "Protocol execution-time overhead".into(),
            fmt_percent_delta(self.protocol_time_overhead),
            "+4 %".into(),
        ]);
        t.row_owned(vec![
            "Protocol energy overhead".into(),
            fmt_percent_delta(self.protocol_energy_overhead),
            "+9 %".into(),
        ]);
        t.row_owned(vec![
            "Protocol NoC-traffic overhead".into(),
            fmt_percent_delta(self.protocol_traffic_overhead),
            "+8 %".into(),
        ]);
        t.build()
    }
}

pub(super) fn summary(suite: &ExperimentSuite) -> SummaryTable {
    let fig7 = fig7(suite).averages();
    let fig9 = fig9(suite);
    let fig10 = fig10(suite);
    let fig11 = fig11(suite);
    SummaryTable {
        average_speedup: fig9.average_speedup(),
        average_traffic_ratio: fig10.average_normalized_traffic(),
        average_energy_ratio: fig11.average_normalized_energy(),
        protocol_time_overhead: fig7.execution_time,
        protocol_energy_overhead: fig7.energy,
        protocol_traffic_overhead: fig7.noc_traffic,
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator <= 0.0 {
        if numerator <= 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_zero_denominators() {
        assert_eq!(ratio(2.0, 4.0), 0.5);
        assert_eq!(ratio(0.0, 0.0), 1.0);
        assert!(ratio(1.0, 0.0).is_infinite());
    }

    #[test]
    fn fig7_averages_are_means() {
        let t = Fig7Table {
            rows: vec![
                (
                    "A".into(),
                    Fig7Row {
                        execution_time: 1.02,
                        energy: 1.10,
                        noc_traffic: 1.04,
                    },
                ),
                (
                    "B".into(),
                    Fig7Row {
                        execution_time: 1.06,
                        energy: 1.06,
                        noc_traffic: 1.12,
                    },
                ),
            ],
        };
        let avg = t.averages();
        assert!((avg.execution_time - 1.04).abs() < 1e-12);
        assert!((avg.noc_traffic - 1.08).abs() < 1e-12);
        assert!(t.to_table().contains("average"));
    }

    #[test]
    fn fig8_minimum_ignores_missing_ratios() {
        let t = Fig8Table {
            rows: vec![
                ("CG".into(), Some(0.99)),
                ("IS".into(), Some(0.92)),
                ("SP".into(), None),
            ],
        };
        assert_eq!(t.minimum(), Some(0.92));
        assert!(t.to_table().contains("n/a"));
    }

    #[test]
    fn fig9_average_speedup() {
        let row = |s: f64| Fig9Row {
            hybrid_normalized: 1.0 / s,
            speedup: s,
            control: 0.05,
            sync: 0.05,
            work: 1.0 / s - 0.1,
            work_reduction: 0.3,
        };
        let t = Fig9Table {
            rows: vec![("A".into(), row(1.1)), ("B".into(), row(1.2))],
        };
        assert!((t.average_speedup() - 1.15).abs() < 1e-12);
        assert!(t.to_table().contains("Speedup"));
    }

    #[test]
    fn fig10_and_fig11_tables_render() {
        let t10 = Fig10Table {
            rows: vec![("A".into(), [1, 2, 3, 4, 5, 6], [1, 1, 1, 1, 9, 2], 0.71)],
        };
        assert!((t10.average_normalized_traffic() - 0.71).abs() < 1e-12);
        assert!(t10.to_table().contains("WB-Repl"));
        let t11 = Fig11Table {
            rows: vec![(
                "A".into(),
                [0.3, 0.4, 0.15, 0.15, 0.0, 0.0],
                [0.25, 0.1, 0.1, 0.15, 0.13, 0.06],
                0.79,
            )],
        };
        assert!((t11.average_normalized_energy() - 0.79).abs() < 1e-12);
        assert!(t11.to_table().contains("CohProt"));
    }

    #[test]
    fn summary_json_stays_valid_for_non_finite_ratios() {
        let s = SummaryTable {
            average_speedup: 1.25,
            average_traffic_ratio: f64::INFINITY,
            average_energy_ratio: f64::NAN,
            protocol_time_overhead: 1.0,
            protocol_energy_overhead: 1.0,
            protocol_traffic_overhead: 1.0,
        };
        let json = s.to_json();
        assert!(json.contains("\"average_speedup\": 1.25"));
        assert!(json.contains("\"average_traffic_ratio\": null"));
        assert!(json.contains("\"average_energy_ratio\": null"));
        assert!(!json.contains("inf"), "Display's `inf` is not a JSON token");
        assert!(!json.contains("NaN"), "`NaN` is not a JSON token");
    }

    #[test]
    fn summary_json_round_trips() {
        let s = SummaryTable {
            average_speedup: 1.14,
            average_traffic_ratio: 0.71,
            average_energy_ratio: 0.83,
            protocol_time_overhead: 1.04,
            protocol_energy_overhead: 1.09,
            protocol_traffic_overhead: 1.08,
        };
        let parsed = simkernel::Json::parse(&s.to_json()).expect("valid JSON");
        for (name, value) in [
            ("average_speedup", 1.14),
            ("average_traffic_ratio", 0.71),
            ("average_energy_ratio", 0.83),
            ("protocol_time_overhead", 1.04),
            ("protocol_energy_overhead", 1.09),
            ("protocol_traffic_overhead", 1.08),
        ] {
            assert_eq!(parsed.get(name).and_then(|v| v.as_f64()), Some(value));
        }
    }

    #[test]
    fn summary_json_parse_emit_cycle_is_stable_for_non_finite_values() {
        let s = SummaryTable {
            average_speedup: 1.25,
            average_traffic_ratio: f64::INFINITY,
            average_energy_ratio: f64::NAN,
            protocol_time_overhead: 1.0,
            protocol_energy_overhead: 1.0,
            protocol_traffic_overhead: 1.0,
        };
        let once = s.to_json();
        let parsed = simkernel::Json::parse(&once).expect("nulls parse back");
        assert!(parsed.get("average_traffic_ratio").unwrap().is_null());
        assert!(parsed.get("average_energy_ratio").unwrap().is_null());
        assert_eq!(parsed.get("average_speedup").unwrap().as_f64(), Some(1.25));
        // The cycle is a fixed point: emit(parse(emit(s))) == emit(s).
        assert_eq!(parsed.pretty(), once);
    }
}
