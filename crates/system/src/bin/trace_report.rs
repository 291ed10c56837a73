//! Summarises a Chrome trace-event JSON written by `--trace` (or
//! [`system::TraceCapture::to_chrome`]): event counts per phase/category,
//! the hottest home nodes and mesh links over time windows, and home-queue
//! depth percentiles.
//!
//! ```text
//! trace_report PATH [--top N] [--windows N]
//! ```
//!
//! The summariser re-parses its own dump of the document first, so a
//! successful run doubles as a round-trip check of the trace format (the CI
//! smoke step relies on this).
//!
//! `--help` exits 0; malformed arguments exit 2 with the usage text; a
//! document that cannot be read or fails a check exits 1.

use std::collections::BTreeMap;

use simkernel::Json;
use system::cli::{parse_or_exit, Args, CliError};

const USAGE: &str = "\
trace_report — event counts, hottest homes and links of a Chrome trace JSON

usage: trace_report PATH [options]

options:
  --top N        homes and links to list per window (default 5)
  --windows N    time windows to split the sampled span into, at least 1
                 (default 4)
  --help         this text

exit status: 0 on success, 1 if the document cannot be read or fails its
checks, 2 on malformed arguments
";

struct Options {
    path: String,
    top: usize,
    windows: u64,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, CliError> {
    let (mut path, mut top, mut windows) = (None, 5, 4);
    let mut args = Args::new(args);
    while let Some(arg) = args.next_arg()? {
        match arg.as_str() {
            "--top" => top = args.parse()?,
            "--windows" => windows = args.parse()?,
            other if path.is_none() && !other.starts_with('-') => path = Some(arg),
            _ => return Err(args.unknown()),
        }
    }
    if windows == 0 {
        return Err("--windows: must be at least 1".to_owned().into());
    }
    Ok(Options {
        path: path.ok_or("missing the trace PATH".to_owned())?,
        top,
        windows,
    })
}

/// One counter track: `(cycle, value)` samples in time order.
type Track = Vec<(u64, f64)>;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Totals `tracks` per suffix id inside `[lo, hi)`, highest first.
fn hottest(tracks: &BTreeMap<u64, Track>, lo: u64, hi: u64, top: usize) -> Vec<(u64, f64)> {
    let mut totals: Vec<(u64, f64)> = tracks
        .iter()
        .map(|(&id, samples)| {
            let total = samples
                .iter()
                .filter(|(ts, _)| *ts >= lo && *ts < hi)
                .map(|(_, v)| v)
                .sum::<f64>();
            (id, total)
        })
        .filter(|(_, total)| *total > 0.0)
        .collect();
    totals.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    totals.truncate(top);
    totals
}

fn render_hottest(kind: &str, entries: &[(u64, f64)]) -> String {
    if entries.is_empty() {
        return format!("    {kind}: idle");
    }
    let list: Vec<String> = entries
        .iter()
        .map(|(id, total)| format!("{kind} {id} ({total:.0})"))
        .collect();
    format!("    {kind}s: {}", list.join(", "))
}

fn summarise(doc: &Json, top: usize, windows: u64) -> Result<String, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("no traceEvents array — not a Chrome trace-event document")?;

    let mut by_phase: BTreeMap<&str, u64> = BTreeMap::new();
    let mut by_category: BTreeMap<&str, u64> = BTreeMap::new();
    // Counter tracks keyed by name; home/link tracks also keyed by their id.
    let mut counters: BTreeMap<&str, Track> = BTreeMap::new();
    let mut homes: BTreeMap<u64, Track> = BTreeMap::new();
    let mut links: BTreeMap<u64, Track> = BTreeMap::new();

    for event in events {
        let ph = event.get("ph").and_then(Json::as_str).unwrap_or("?");
        *by_phase.entry(ph).or_default() += 1;
        if let Some(cat) = event.get("cat").and_then(Json::as_str) {
            *by_category.entry(cat).or_default() += 1;
        }
        if ph != "C" {
            continue;
        }
        let (Some(name), Some(ts), Some(value)) = (
            event.get("name").and_then(Json::as_str),
            event.get("ts").and_then(Json::as_u64),
            event
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(Json::as_f64),
        ) else {
            continue;
        };
        counters.entry(name).or_default().push((ts, value));
        if let Some(id) = name
            .strip_prefix("noc.des.home_queue.")
            .and_then(|id| id.parse().ok())
        {
            homes.entry(id).or_default().push((ts, value));
        }
        if let Some(id) = name
            .strip_prefix("noc.des.link_busy.")
            .and_then(|id| id.parse().ok())
        {
            links.entry(id).or_default().push((ts, value));
        }
    }

    let mut out = String::new();
    if let Some(benchmark) = doc.get("benchmark").and_then(Json::as_str) {
        let cores = doc.get("cores").and_then(Json::as_u64).unwrap_or(0);
        out.push_str(&format!("trace of {benchmark} on {cores} cores\n"));
    }
    out.push_str(&format!("{} events:", events.len()));
    for (ph, count) in &by_phase {
        let label = match *ph {
            "X" => "span",
            "i" => "instant",
            "C" => "counter",
            "M" => "metadata",
            other => other,
        };
        out.push_str(&format!(" {count} {label}"));
    }
    out.push('\n');
    if !by_category.is_empty() {
        let cats: Vec<String> = by_category
            .iter()
            .map(|(cat, count)| format!("{cat} {count}"))
            .collect();
        out.push_str(&format!("categories: {}\n", cats.join(", ")));
    }
    if let Some(dropped) = doc.get("droppedEvents").and_then(Json::as_u64) {
        if dropped > 0 {
            out.push_str(&format!(
                "ring overflow dropped {dropped} events (raise the ring capacity)\n"
            ));
        }
    }
    out.push_str(&format!("{} counter tracks\n", counters.len()));

    if homes.is_empty() && links.is_empty() {
        out.push_str(
            "no DES NoC counter tracks (run with --noc-model des to profile homes/links)\n",
        );
        return Ok(out);
    }

    // Home-queue depth percentiles over every sampled (node, cycle) point.
    let mut depths: Vec<f64> = homes
        .values()
        .flat_map(|t| t.iter().map(|(_, v)| *v))
        .collect();
    depths.sort_by(f64::total_cmp);
    out.push_str(&format!(
        "home queue depth: p50 {:.0}  p90 {:.0}  p99 {:.0}  max {:.0}  ({} samples over {} homes)\n",
        percentile(&depths, 50.0),
        percentile(&depths, 90.0),
        percentile(&depths, 99.0),
        depths.last().copied().unwrap_or(0.0),
        depths.len(),
        homes.len(),
    ));

    // Hottest homes (summed sampled depth) and links (busy cycles) per
    // window of the sampled span.
    let samples: Vec<u64> = counters
        .values()
        .flat_map(|t| t.iter().map(|(ts, _)| *ts))
        .collect();
    let (lo, hi) = match (samples.iter().min(), samples.iter().max()) {
        (Some(&lo), Some(&hi)) => (lo, hi + 1),
        _ => (0, 1),
    };
    let windows = windows.max(1).min(hi - lo);
    let width = (hi - lo).div_ceil(windows);
    out.push_str(&format!(
        "hottest homes (sampled depth sum) and links (busy cycles) per {width}-cycle window:\n"
    ));
    for w in 0..windows {
        let (wlo, whi) = (lo + w * width, (lo + (w + 1) * width).min(hi));
        out.push_str(&format!("  [{wlo}, {whi})\n"));
        out.push_str(&render_hottest("home", &hottest(&homes, wlo, whi, top)));
        out.push('\n');
        out.push_str(&render_hottest("link", &hottest(&links, wlo, whi, top)));
        out.push('\n');
    }
    Ok(out)
}

fn run(options: &Options) -> Result<String, String> {
    let path = &options.path;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e:?}"))?;
    // The document must survive a dump → parse round trip bit-for-bit; a
    // mismatch means the emitter and parser disagree on the format.
    let reparsed =
        Json::parse(&doc.dump()).map_err(|e| format!("{path}: round-trip parse failed: {e:?}"))?;
    if reparsed != doc {
        return Err(format!("{path}: JSON round-trip changed the document"));
    }
    let mut out = summarise(&doc, options.top, options.windows)?;
    out.push_str("JSON round-trip OK\n");
    Ok(out)
}

fn main() {
    let options = parse_or_exit("trace_report", USAGE, std::env::args().skip(1), parse);
    match run(&options) {
        Ok(report) => print!("{report}"),
        Err(error) => {
            eprintln!("trace_report: {error}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Json {
        let mut chrome = simkernel::ChromeTrace::new();
        chrome.thread_name(0, 0, "core 0");
        chrome.duration(0, 0, "engine", "kernel", 0, 100, Json::empty_obj());
        for (ts, depth) in [(10, 4.0), (60, 9.0)] {
            chrome.counter(1, "noc.des.home_queue.3", ts, depth);
            chrome.counter(1, "noc.des.link_busy.7", ts, depth * 2.0);
        }
        chrome.finish([
            ("benchmark", Json::str("CG")),
            ("cores", Json::from(4u64)),
            ("droppedEvents", Json::from(0u64)),
        ])
    }

    #[test]
    fn summarises_homes_links_and_percentiles() {
        let out = summarise(&sample_doc(), 3, 2).unwrap();
        assert!(out.contains("trace of CG on 4 cores"), "{out}");
        assert!(out.contains("home 3"), "{out}");
        assert!(out.contains("link 7"), "{out}");
        assert!(out.contains("p50 4") || out.contains("p50 9"), "{out}");
        assert!(out.contains("counter tracks"), "{out}");
    }

    #[test]
    fn analytic_traces_report_missing_noc_counters() {
        let mut chrome = simkernel::ChromeTrace::new();
        chrome.duration(0, 0, "engine", "kernel", 0, 10, Json::empty_obj());
        let out = summarise(&chrome.finish([]), 5, 4).unwrap();
        assert!(out.contains("no DES NoC counter tracks"), "{out}");
    }

    #[test]
    fn rejects_non_trace_documents() {
        assert!(summarise(&Json::from(1u64), 5, 4).is_err());
    }

    #[test]
    fn parses_path_and_options_in_any_order() {
        let args = ["--top", "3", "a.json", "--windows", "2"].map(str::to_owned);
        let options = parse(args).unwrap();
        assert_eq!(
            (options.path.as_str(), options.top, options.windows),
            ("a.json", 3, 2)
        );
    }

    #[test]
    fn percentiles_are_rank_based() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
