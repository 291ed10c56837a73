//! Perf-trajectory reporter: re-measures the hot-loop benchmarks and the
//! memory hierarchy's set-up cost, and records the results as machine-readable `BENCH_*.json` files at the repo
//! root, next to the pre-refactor baselines they are compared against.
//!
//! Unlike the criterion benches (which estimate distributions), this binary
//! takes the *minimum and median of N whole runs* — the measurement that
//! proved trustworthy against scheduler noise during the hot-loop overhaul —
//! and derives ops/sec from the median.  The baselines hardcoded below are
//! the criterion medians measured on this machine immediately before the
//! data-oriented refactor (stat interning, event pooling, incremental XY
//! routing), so the `speedup_vs_baseline` fields are an honest trajectory of
//! the same quantity across the change.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin bench_report              # 15 samples
//! cargo run --release -p bench --bin bench_report -- --samples 5
//! cargo run --release -p bench --bin bench_report -- --check   # CI gate
//! ```
//!
//! `--check` compares the fresh measurement against the checked-in JSON and
//! exits non-zero when any entry's ops/sec regressed by more than 20%;
//! setting `BENCH_ALLOW_REGRESSION=1` (or passing `--allow-regression`)
//! downgrades the failure to a warning for intentional trade-offs.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bench::{bench_config, BENCH_SCALE};
use mem::{MemorySystem, MemorySystemConfig};
use noc::{run_synthetic, MessageClass, Noc, NocConfig, NocModel, SyntheticTraffic};
use simkernel::{CoreId, Cycle, NodeId, TraceSettings};
use system::{Machine, MachineKind};
use workloads::nas::NasBenchmark;
use workloads::{compile, ExecMode, MachineParams, OpCursor};

/// Allowed ops/sec drop before `--check` fails, as a fraction.
const REGRESSION_BUDGET: f64 = 0.20;

/// One measured benchmark entry.
struct Entry {
    name: &'static str,
    /// Operations per iteration (instructions, packets, or sends).
    ops: u64,
    unit: &'static str,
    min_ns: u128,
    median_ns: u128,
    /// Pre-refactor criterion median on this machine, nanoseconds.
    baseline_median_ns: u64,
}

impl Entry {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 * 1e9 / self.median_ns as f64
    }

    /// Throughput of the single best run — what the `--check` gate compares
    /// against the recorded median, so scheduler noise in a short CI sample
    /// can't fail the gate unless even the best run is slow.
    fn best_ops_per_sec(&self) -> f64 {
        self.ops as f64 * 1e9 / self.min_ns as f64
    }

    fn speedup(&self) -> f64 {
        self.baseline_median_ns as f64 / self.median_ns as f64
    }
}

/// Times `run` `samples` times and returns (min, median) nanoseconds.
fn sample<R>(samples: usize, mut run: impl FnMut() -> R) -> (u128, u128) {
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(run());
            t.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    (times[0], times[times.len() / 2])
}

fn measure_step_throughput(samples: usize) -> Vec<Entry> {
    let benchmark = NasBenchmark::Cg;
    let spec = benchmark.spec_scaled(benchmark.recommended_scale() * BENCH_SCALE);
    let machine = Machine::new(MachineKind::HybridProposed, bench_config());
    let ops = machine.run(&spec).instructions;
    let (min_ns, median_ns) = sample(samples, || machine.run(&spec));
    vec![
        Entry {
            name: "cg/interleaved",
            ops,
            unit: "instructions",
            min_ns,
            median_ns,
            baseline_median_ns: 45_565_334,
        },
        measure_opgen(samples),
    ]
}

/// Op generation alone on the `cg/interleaved` config: every core's
/// `OpCursor` over every kernel, seeded like the machine and pulled one op
/// per core in turn (as the scheduler interleaves cores) until all are
/// exhausted.  The baseline is the median measured with the whole-tile
/// generator the streaming cursor replaced.
fn measure_opgen(samples: usize) -> Entry {
    let benchmark = NasBenchmark::Cg;
    let spec = benchmark.spec_scaled(benchmark.recommended_scale() * BENCH_SCALE);
    let config = bench_config();
    let cores = config.cores;
    let params = MachineParams {
        cores,
        spm_size: config.spm.size,
    };
    let compiled = compile(&spec, ExecMode::Hybrid, &params);
    let stream = || {
        let mut ops = 0u64;
        for kernel in &compiled.kernels {
            let mut cursors: Vec<OpCursor<'_>> = (0..cores)
                .map(|c| OpCursor::new(kernel, CoreId::new(c), cores, config.trace_seed))
                .collect();
            let mut pulled = true;
            while pulled {
                pulled = false;
                for cursor in &mut cursors {
                    if let Some(op) = cursor.next_op() {
                        std::hint::black_box(op);
                        ops += 1;
                        pulled = true;
                    }
                }
            }
        }
        ops
    };
    let ops = stream();
    let (min_ns, median_ns) = sample(samples, stream);
    Entry {
        name: "cg/opgen",
        ops,
        unit: "ops",
        min_ns,
        median_ns,
        baseline_median_ns: 6_754_768,
    }
}

/// The observer cost on the machine-step workload: the shipping default
/// (tracing off; cycle accounting is always on), events-only tracing and
/// events plus the stat time-series.  Baselines are the medians recorded
/// when the min-clock scheduler became the only engine (the entries'
/// earlier baselines timed the removed segment-serialized replay);
/// `--check` gates them like every other entry, so an observer that
/// silently becomes always-on (or grows past its budget) fails CI.
fn measure_trace_overhead(samples: usize) -> Vec<Entry> {
    let benchmark = NasBenchmark::Cg;
    let spec = benchmark.spec_scaled(benchmark.recommended_scale() * BENCH_SCALE);
    let modes: [(&'static str, TraceSettings, u64); 3] = [
        ("observers_off", TraceSettings::default(), 39_341_785),
        (
            "trace_events",
            TraceSettings {
                sample_interval: 0,
                ..TraceSettings::enabled()
            },
            51_717_603,
        ),
        ("trace_events_samples", TraceSettings::enabled(), 49_043_315),
    ];
    modes
        .into_iter()
        .map(|(name, trace, baseline_median_ns)| {
            let mut config = bench_config();
            config.trace = trace;
            let ops = Machine::new(MachineKind::HybridProposed, config.clone())
                .run(&spec)
                .instructions;
            let (min_ns, median_ns) = sample(samples, || {
                Machine::new(MachineKind::HybridProposed, config.clone()).run(&spec)
            });
            Entry {
                name,
                ops,
                unit: "instructions",
                min_ns,
                median_ns,
                baseline_median_ns,
            }
        })
        .collect()
}

fn measure_noc_des(samples: usize) -> Vec<Entry> {
    let traffic = SyntheticTraffic::uniform(0.05, 2_000, 42);
    let des = NocConfig::isca2015(64).with_model(NocModel::DiscreteEvent);
    let analytic = NocConfig::isca2015(64);
    let delivered = run_synthetic(&mut Noc::new(des), &traffic).delivered;

    let (des_min, des_median) = sample(samples, || run_synthetic(&mut Noc::new(des), &traffic));
    let (an_min, an_median) = sample(samples, || run_synthetic(&mut Noc::new(analytic), &traffic));
    let (send_min, send_median) = sample(samples, || {
        let mut noc = Noc::new(des);
        let mut total = Cycle::ZERO;
        for i in 0..1_000u64 {
            noc.advance_to(Cycle::new(i * 3));
            total += noc.send(
                NodeId::new((i % 64) as usize),
                NodeId::new(((i * 13 + 7) % 64) as usize),
                MessageClass::Read,
                if i % 2 == 0 { 8 } else { 64 },
            );
        }
        total
    });

    vec![
        Entry {
            name: "des_synthetic_8x8",
            ops: delivered,
            unit: "packets",
            min_ns: des_min,
            median_ns: des_median,
            baseline_median_ns: 7_731_680,
        },
        Entry {
            name: "analytic_synthetic_8x8",
            ops: delivered,
            unit: "packets",
            min_ns: an_min,
            median_ns: an_median,
            baseline_median_ns: 638_939,
        },
        Entry {
            name: "des_send_path",
            ops: 1_000,
            unit: "sends",
            min_ns: send_min,
            median_ns: send_median,
            baseline_median_ns: 278_907,
        },
    ]
}

/// Machines built and dropped per timed sample of `memsys/new_drop_1024`.
const MEM_SETUP_BATCH: u64 = 16;

/// Building and dropping the 1024-core Table-1 hierarchy: 2,048 L1s and
/// 1,024 256 KiB L2 slices, held as one tag-array bank per level.  A bank
/// allocates its zeroed set index and a dummy invalid set up front and its
/// pools only at its first fill, so an unused machine costs a few
/// allocations whatever its core count; a return to per-cache arrays, or to
/// allocating every slot up front, shows here as a slowdown.  One sample
/// builds and drops `MEM_SETUP_BATCH` machines in turn, so it lasts several
/// milliseconds rather than a fraction of one and a single preempted or
/// page-faulting build cannot move the gate by itself; `ops` counts the
/// machines.  The baseline is the median per-machine time measured, in
/// alternation with the lazy sets, with the dense per-slot slabs they
/// replaced.
fn measure_mem_setup(samples: usize) -> Vec<Entry> {
    let config = MemorySystemConfig::isca2015(1024);
    let (min_ns, median_ns) = sample(samples, || {
        for _ in 0..MEM_SETUP_BATCH {
            std::hint::black_box(MemorySystem::new(config.clone()));
        }
    });
    vec![Entry {
        name: "memsys/new_drop_1024",
        ops: MEM_SETUP_BATCH,
        unit: "machines",
        min_ns,
        median_ns,
        baseline_median_ns: 37_797_528 * MEM_SETUP_BATCH,
    }]
}

fn git_rev(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Renders one report as JSON.  Entries are one object per line so the
/// `--check` parser (and a human diff) can read them without a JSON library.
fn render(bench: &str, rev: &str, config: &str, samples: usize, entries: &[Entry]) -> String {
    let mut out = String::new();
    writeln!(out, "{{").unwrap();
    writeln!(out, "  \"bench\": \"{bench}\",").unwrap();
    writeln!(out, "  \"git_rev\": \"{rev}\",").unwrap();
    writeln!(out, "  \"config\": \"{config}\",").unwrap();
    writeln!(out, "  \"samples\": {samples},").unwrap();
    writeln!(out, "  \"entries\": [").unwrap();
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 < entries.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"ops\": {}, \"unit\": \"{}\", \
             \"min_ns\": {}, \"median_ns\": {}, \"ops_per_sec\": {:.1}, \
             \"baseline_median_ns\": {}, \"speedup_vs_baseline\": {:.2}}}{sep}",
            e.name,
            e.ops,
            e.unit,
            e.min_ns,
            e.median_ns,
            e.ops_per_sec(),
            e.baseline_median_ns,
            e.speedup()
        )
        .unwrap();
    }
    writeln!(out, "  ]").unwrap();
    writeln!(out, "}}").unwrap();
    out
}

/// Pulls `"field": value` out of an entry line written by [`render`].
fn scrape(line: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Compares fresh entries against a checked-in report; returns failures.
fn check(path: &Path, entries: &[Entry]) -> Vec<String> {
    let Ok(old) = std::fs::read_to_string(path) else {
        return vec![format!(
            "{} missing — run bench_report first",
            path.display()
        )];
    };
    let mut failures = Vec::new();
    for e in entries {
        let needle = format!("\"name\": \"{}\"", e.name);
        let Some(line) = old.lines().find(|l| l.contains(&needle)) else {
            failures.push(format!(
                "{}: no checked-in entry for {}",
                path.display(),
                e.name
            ));
            continue;
        };
        let Some(recorded) = scrape(line, "ops_per_sec") else {
            failures.push(format!(
                "{}: unreadable ops_per_sec for {}",
                path.display(),
                e.name
            ));
            continue;
        };
        let fresh = e.best_ops_per_sec();
        if fresh < recorded * (1.0 - REGRESSION_BUDGET) {
            // Name the regressing entry with both medians and the relative
            // slowdown, so a CI failure is actionable without re-running.
            let delta = (fresh / recorded - 1.0) * 100.0;
            let recorded_median = scrape(line, "median_ns")
                .map(|m| format!("{m:.0}"))
                .unwrap_or_else(|| "?".into());
            failures.push(format!(
                "{}: measured median {} ns vs recorded {} ns \
                 ({:.0} {}/s vs {:.0}, {:+.1}% — beyond the {:.0}% budget)",
                e.name,
                e.median_ns,
                recorded_median,
                fresh,
                e.unit,
                recorded,
                delta,
                REGRESSION_BUDGET * 100.0
            ));
        }
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let checking = args.iter().any(|a| a == "--check");
    let allow = args.iter().any(|a| a == "--allow-regression")
        || std::env::var("BENCH_ALLOW_REGRESSION").is_ok_and(|v| v == "1");
    let samples = args
        .iter()
        .position(|a| a == "--samples")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(15);
    // `--only step|noc|trace|mem` restricts the run to one report.
    let only: Option<&str> = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    let wants = |key: &str| only.is_none_or(|o| o == key);

    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let rev = git_rev(&root);

    let mut reports: Vec<(&str, String, Vec<Entry>)> = Vec::new();
    if wants("step") {
        eprintln!("measuring machine_step_throughput ({samples} samples)...");
        let step = measure_step_throughput(samples);
        reports.push((
            "BENCH_step_throughput.json",
            render(
                "machine_step_throughput",
                &rev,
                "16 cores, NAS CG at 0.125x bench scale, HybridProposed",
                samples,
                &step,
            ),
            step,
        ));
    }
    if wants("noc") {
        eprintln!("measuring noc_des_throughput ({samples} samples per backend)...");
        let des = measure_noc_des(samples);
        reports.push((
            "BENCH_noc_des.json",
            render(
                "noc_des_throughput",
                &rev,
                "8x8 mesh, uniform 0.05 flits/node/cycle over 2000 cycles, seed 42",
                samples,
                &des,
            ),
            des,
        ));
    }
    if wants("trace") {
        eprintln!("measuring trace_overhead ({samples} samples per mode)...");
        let trace = measure_trace_overhead(samples);
        reports.push((
            "BENCH_trace_overhead.json",
            render(
                "trace_overhead",
                &rev,
                "16 cores, NAS CG at 0.125x bench scale, HybridProposed",
                samples,
                &trace,
            ),
            trace,
        ));
    }

    if wants("mem") {
        eprintln!("measuring mem_setup ({samples} samples)...");
        let setup = measure_mem_setup(samples);
        reports.push((
            "BENCH_mem_setup.json",
            render(
                "mem_setup",
                &rev,
                &format!(
                    "1024-core Table-1 hierarchy (MemorySystemConfig::isca2015(1024)): \
                     32 KiB 4-way L1 I/D and a 256 KiB 16-way L2 slice per tile, \
                     {MEM_SETUP_BATCH} x (new + drop) per sample"
                ),
                samples,
                &setup,
            ),
            setup,
        ));
    }

    let mut failures = Vec::new();
    for (file, json, entries) in &reports {
        let path = root.join(file);
        if checking {
            failures.extend(check(&path, entries));
        } else {
            std::fs::write(&path, json).expect("write report");
            println!("wrote {}", path.display());
        }
        for e in entries {
            println!(
                "  {:<24} {:>12.0} {}/s  (median {:>9} ns, min {:>9} ns, {:.2}x vs baseline)",
                e.name,
                e.ops_per_sec(),
                e.unit,
                e.median_ns,
                e.min_ns,
                e.speedup()
            );
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("perf regression: {f}");
        }
        if allow {
            eprintln!("BENCH_ALLOW_REGRESSION set — continuing despite regressions");
        } else {
            eprintln!("re-record with `cargo run --release -p bench --bin bench_report`");
            eprintln!("or override once with BENCH_ALLOW_REGRESSION=1 / --allow-regression");
            std::process::exit(1);
        }
    }
}
