//! Perf-trajectory reporter: re-measures the hot-loop benchmarks, the memory
//! hierarchy's set-up cost and the protocol's hardware-structure models, and
//! records the results as machine-readable `BENCH_*.json` files at the repo
//! root, next to the baselines they are compared against.
//!
//! This binary takes the *minimum and median of N timed samples* — the
//! measurement that proved trustworthy against scheduler noise during the
//! hot-loop overhaul — and derives ops/sec from the median.  Each entry's
//! hardcoded baseline is a median of the same case measured on this machine
//! before the change it tracks, so the `speedup_vs_baseline` fields are an
//! honest trajectory of the same quantity across that change.
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
//! exits 1 when any entry's ops/sec regressed by more than 20%; passing
//! `--allow-regression` downgrades the failure to a warning for intentional
//! trade-offs.  `--help` exits 0; malformed arguments exit 2 with the usage
//! text.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mem::{Addr, AddressRange, MemorySystem, MemorySystemConfig};
use noc::{run_synthetic, MessageClass, Noc, NocConfig, NocModel, SyntheticTraffic};
use simkernel::{ByteSize, CoreId, Cycle, Json, NodeId, TraceSettings};
use spm::{Scratchpad, SpmConfig};
use spm_coherence::{CoherenceBackend, ProtocolConfig, SpmCoherenceProtocol};
use system::cli::{parse_or_exit, Args, CliError};
use system::{Machine, MachineKind, SystemConfig};
use workloads::nas::NasBenchmark;
use workloads::{compile, ExecMode, MachineParams, OpCursor};

const USAGE: &str = "\
bench_report — measure the BENCH_*.json entries, record them or gate on them

usage: bench_report [options]

options:
  --samples N          timed samples per entry, at least 1 (default 15)
  --only KEY           one report: step, noc, trace, mem or protocol
  --check              compare with the checked-in files instead of
                       rewriting them
  --allow-regression   report a --check regression without failing
  --help               this text

exit status: 0 on success, 1 on a --check regression beyond the budget,
2 on malformed arguments
";

/// Allowed ops/sec drop before `--check` fails, as a fraction.
const REGRESSION_BUDGET: f64 = 0.20;

/// The machine the whole-machine entries run: 16 cores with the Table 1
/// per-core parameters.
fn bench_config() -> SystemConfig {
    SystemConfig::with_cores(16)
}

/// The extra data-set scale multiplier of the whole-machine entries.
const BENCH_SCALE: f64 = 0.125;

/// The config string of the reports that run `bench_config` on CG.
const MACHINE_CONFIG: &str = "16 cores, NAS CG at 0.125x bench scale, HybridProposed";

/// One measured benchmark entry.
struct Entry {
    name: &'static str,
    /// Operations per sample (instructions, packets, sends, machines, calls).
    ops: u64,
    unit: &'static str,
    min_ns: u64,
    median_ns: u64,
    /// Median of the same case before the tracked change, nanoseconds.
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

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            ("ops", self.ops.into()),
            ("unit", Json::str(self.unit)),
            ("min_ns", self.min_ns.into()),
            ("median_ns", self.median_ns.into()),
            ("ops_per_sec", self.ops_per_sec().into()),
            ("baseline_median_ns", self.baseline_median_ns.into()),
            ("speedup_vs_baseline", self.speedup().into()),
        ])
    }
}

/// Times `run` on a fresh `setup()` state `samples` times and returns (min,
/// median) nanoseconds; building and dropping the state is not timed.
fn sample_with<S, R>(
    samples: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&mut S) -> R,
) -> (u64, u64) {
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let mut state = setup();
            let t = Instant::now();
            std::hint::black_box(run(&mut state));
            t.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    (times[0], times[times.len() / 2])
}

/// Times `run` `samples` times and returns (min, median) nanoseconds.
fn sample<R>(samples: usize, mut run: impl FnMut() -> R) -> (u64, u64) {
    sample_with(samples, || (), |_| run())
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
/// (tracing and value tracking off; cycle accounting is always on),
/// events-only tracing, events plus the stat time-series, and value
/// tracking (real data threaded through the memory system — a pure
/// observer whose cost is why it stays off by default).  The tracing
/// baselines are the medians recorded when the min-clock scheduler became
/// the only engine; `track_values`'s is the median of the per-target
/// timing loop it replaced, measured in alternation with it.  `--check`
/// gates them like every other entry, so an observer that silently becomes
/// always-on (or grows past its budget) fails CI.
fn measure_trace_overhead(samples: usize) -> Vec<Entry> {
    let benchmark = NasBenchmark::Cg;
    let spec = benchmark.spec_scaled(benchmark.recommended_scale() * BENCH_SCALE);
    let traced = |trace| SystemConfig {
        trace,
        ..bench_config()
    };
    let modes = [
        ("observers_off", bench_config(), 39_341_785),
        (
            "trace_events",
            traced(TraceSettings {
                sample_interval: 0,
                ..TraceSettings::enabled()
            }),
            51_717_603,
        ),
        (
            "trace_events_samples",
            traced(TraceSettings::enabled()),
            49_043_315,
        ),
        (
            "track_values",
            SystemConfig {
                track_values: true,
                ..bench_config()
            },
            83_472_573,
        ),
    ];
    modes
        .into_iter()
        .map(|(name, config, baseline_median_ns)| {
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

/// Calls per timed sample of each `protocol` entry.
const PROTOCOL_BATCH: u64 = 1 << 18;

/// The protocol's hardware-structure models, call by call: a guarded load
/// that hits the local filter (the fast path, served by the L1), one that
/// hits the local SPMDir (diverted to the SPM), and a DMA mapping's
/// filter-invalidation round through the filterDir.  Each sample builds a
/// fresh 16-core small machine and protocol, untimed, then times
/// `PROTOCOL_BATCH` calls, so a sample lasts milliseconds and timer
/// overhead vanishes from the per-call cost; `ops` counts the calls.  Each
/// baseline is `PROTOCOL_BATCH` times the per-call median of the timing
/// loop these entries replaced, measured in alternation with them; that
/// loop timed one call per timer pair, so its median includes the timer.
fn measure_protocol(samples: usize) -> Vec<Entry> {
    const CORES: usize = 16;
    let machine = || {
        let mut protocol = SpmCoherenceProtocol::new(ProtocolConfig::small(CORES));
        protocol.configure_buffer_size(ByteSize::kib(4));
        let memsys = MemorySystem::new(MemorySystemConfig::small(CORES));
        let spms: Vec<Scratchpad> = (0..CORES)
            .map(|_| Scratchpad::new(SpmConfig::small()))
            .collect();
        (protocol, memsys, spms)
    };
    let core = CoreId::new(0);
    let load = |(protocol, memsys, spms): &mut (SpmCoherenceProtocol, MemorySystem, Vec<_>),
                addr| {
        for _ in 0..PROTOCOL_BATCH {
            std::hint::black_box(protocol.guarded_access(core, addr, false, memsys, spms));
        }
    };
    let entry = |name, unit, baseline_ns_per_call: u64, (min_ns, median_ns)| Entry {
        name,
        ops: PROTOCOL_BATCH,
        unit,
        min_ns,
        median_ns,
        baseline_median_ns: baseline_ns_per_call * PROTOCOL_BATCH,
    };

    let unmapped = Addr::new(0x40_0000);
    let filter_hit = sample_with(
        samples,
        || {
            // The first access misses the filter and inserts the chunk.
            let mut state = machine();
            let (protocol, memsys, spms) = &mut state;
            protocol.guarded_access(core, unmapped, false, memsys, spms);
            state
        },
        |state| load(state, unmapped),
    );
    let spmdir_hit = sample_with(
        samples,
        || {
            let mut state = machine();
            let chunk = AddressRange::new(Addr::new(0x80_0000), 4096);
            state.0.on_map(core, 0, chunk, &mut state.1);
            state
        },
        |state| load(state, Addr::new(0x80_0040)),
    );
    let invalidation = sample_with(samples, machine, |(protocol, memsys, _)| {
        for i in 1..=PROTOCOL_BATCH {
            let chunk = AddressRange::new(Addr::new(0x100_0000 + i * 4096), 4096);
            let core = CoreId::new(i as usize % CORES);
            std::hint::black_box(protocol.on_map(core, 0, chunk, memsys));
        }
    });
    vec![
        entry(
            "guarded_access/filter_hit_fast_path",
            "accesses",
            80,
            filter_hit,
        ),
        entry(
            "guarded_access/local_spmdir_hit",
            "accesses",
            58,
            spmdir_hit,
        ),
        entry(
            "dma_mapping/filter_invalidation_round",
            "maps",
            64,
            invalidation,
        ),
    ]
}

/// One `BENCH_*.json` report and the measurement that fills it.
struct Report {
    /// Its `--only` key.
    key: &'static str,
    file: &'static str,
    bench: &'static str,
    config: String,
    measure: fn(usize) -> Vec<Entry>,
}

fn reports() -> [Report; 5] {
    [
        Report {
            key: "step",
            file: "BENCH_step_throughput.json",
            bench: "machine_step_throughput",
            config: MACHINE_CONFIG.to_owned(),
            measure: measure_step_throughput,
        },
        Report {
            key: "noc",
            file: "BENCH_noc_des.json",
            bench: "noc_des_throughput",
            config: "8x8 mesh, uniform 0.05 flits/node/cycle over 2000 cycles, seed 42".to_owned(),
            measure: measure_noc_des,
        },
        Report {
            key: "trace",
            file: "BENCH_trace_overhead.json",
            bench: "trace_overhead",
            config: MACHINE_CONFIG.to_owned(),
            measure: measure_trace_overhead,
        },
        Report {
            key: "mem",
            file: "BENCH_mem_setup.json",
            bench: "mem_setup",
            config: format!(
                "1024-core Table-1 hierarchy (MemorySystemConfig::isca2015(1024)): \
                 32 KiB 4-way L1 I/D and a 256 KiB 16-way L2 slice per tile, \
                 {MEM_SETUP_BATCH} x (new + drop) per sample"
            ),
            measure: measure_mem_setup,
        },
        Report {
            key: "protocol",
            file: "BENCH_protocol.json",
            bench: "protocol_structures",
            config: format!(
                "16-core small machine (ProtocolConfig::small(16), 4 KiB buffers), \
                 {PROTOCOL_BATCH} calls per sample"
            ),
            measure: measure_protocol,
        },
    ]
}

/// The rev the reports are stamped with: `HEAD`'s short hash, with
/// `-dirty` when the working tree differs from it.
fn git_rev(root: &Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
    };
    rev_label(
        git(&["rev-parse", "--short", "HEAD"]).as_deref(),
        git(&["status", "--porcelain"]).as_deref(),
    )
}

/// The label of `rev` (`git rev-parse --short HEAD`) given the output of
/// `git status --porcelain`, which prints nothing for a clean tree.
fn rev_label(rev: Option<&str>, status: Option<&str>) -> String {
    let Some(rev) = rev.map(str::trim) else {
        return "unknown".to_owned();
    };
    if status.is_some_and(|s| !s.trim().is_empty()) {
        format!("{rev}-dirty")
    } else {
        rev.to_owned()
    }
}

/// Compares fresh entries against a checked-in report; returns failures.
fn check(path: &Path, entries: &[Entry]) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return vec![format!(
            "{} missing — run bench_report first",
            path.display()
        )];
    };
    let doc = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("{}: {e}", path.display())],
    };
    let recorded_entries = doc
        .get("entries")
        .and_then(Json::as_array)
        .unwrap_or_default();
    let mut failures = Vec::new();
    for e in entries {
        let Some(old) = recorded_entries
            .iter()
            .find(|o| o.get("name").and_then(Json::as_str) == Some(e.name))
        else {
            failures.push(format!(
                "{}: no checked-in entry for {}",
                path.display(),
                e.name
            ));
            continue;
        };
        let Some(recorded) = old.get("ops_per_sec").and_then(Json::as_f64) else {
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
            let recorded_median = old
                .get("median_ns")
                .and_then(Json::as_f64)
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

struct Options {
    checking: bool,
    allow: bool,
    samples: usize,
    only: Option<String>,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, CliError> {
    let mut options = Options {
        checking: false,
        allow: false,
        samples: 15,
        only: None,
    };
    let mut args = Args::new(args);
    while let Some(flag) = args.next_arg()? {
        match flag.as_str() {
            "--check" => options.checking = true,
            "--allow-regression" => options.allow = true,
            "--samples" => options.samples = args.parse()?,
            "--only" => {
                let key = args.value()?;
                if !reports().iter().any(|r| r.key == key) {
                    return Err(format!("--only: unknown report '{key}'").into());
                }
                options.only = Some(key);
            }
            _ => return Err(args.unknown()),
        }
    }
    if options.samples == 0 {
        return Err("--samples must be at least 1".to_owned().into());
    }
    Ok(options)
}

fn main() {
    let options = parse_or_exit("bench_report", USAGE, std::env::args().skip(1), parse);
    let samples = options.samples;

    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let rev = git_rev(&root);

    let mut failures = Vec::new();
    for report in reports() {
        if options.only.as_ref().is_some_and(|key| key != report.key) {
            continue;
        }
        eprintln!(
            "measuring {} ({samples} samples per entry)...",
            report.bench
        );
        let entries = (report.measure)(samples);
        let path = root.join(report.file);
        if options.checking {
            failures.extend(check(&path, &entries));
        } else {
            let json = Json::obj([
                ("bench", Json::str(report.bench)),
                ("git_rev", Json::str(&rev)),
                ("config", Json::str(report.config)),
                ("samples", (samples as u64).into()),
                (
                    "entries",
                    Json::Arr(entries.iter().map(Entry::to_json).collect()),
                ),
            ]);
            std::fs::write(&path, json.pretty() + "\n").expect("write report");
            println!("wrote {}", path.display());
        }
        for e in &entries {
            println!(
                "  {:<38} {:>12.0} {}/s  (median {:>9} ns, min {:>9} ns, {:.2}x vs baseline)",
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
        if options.allow {
            eprintln!("--allow-regression given — continuing despite regressions");
        } else {
            eprintln!("re-record with `cargo run --release -p bench --bin bench_report`");
            eprintln!("or override once with --allow-regression");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &'static str, min_ns: u64) -> Entry {
        Entry {
            name,
            ops: 1_000,
            unit: "ops",
            min_ns,
            median_ns: min_ns,
            baseline_median_ns: 1,
        }
    }

    /// `check` against `recorded` written to a scratch file (or against no
    /// file at all).
    fn check_against(recorded: Option<&str>, entries: &[Entry]) -> Vec<String> {
        let path = std::env::temp_dir().join(format!(
            "bench_report_check_{}_{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        if let Some(text) = recorded {
            std::fs::write(&path, text).unwrap();
        }
        let failures = check(&path, entries);
        let _ = std::fs::remove_file(&path);
        failures
    }

    /// A report as `main` writes it, recording one entry at 1e9 ops/sec.
    fn recorded(name: &'static str) -> String {
        Json::obj([("entries", Json::Arr(vec![entry(name, 1_000).to_json()]))]).pretty()
    }

    #[test]
    fn check_passes_within_the_budget_and_fails_beyond_it() {
        let text = recorded("a");
        assert!(check_against(Some(&text), &[entry("a", 1_200)]).is_empty());
        let failures = check_against(Some(&text), &[entry("a", 1_300)]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("beyond the 20% budget"),
            "{failures:?}"
        );
    }

    #[test]
    fn rev_label_marks_a_dirty_tree() {
        assert_eq!(rev_label(Some("abc1234\n"), Some("")), "abc1234");
        assert_eq!(
            rev_label(Some("abc1234\n"), Some(" M crates/cpu/src/lib.rs\n")),
            "abc1234-dirty"
        );
        assert_eq!(rev_label(None, None), "unknown");
    }

    #[test]
    fn check_fails_on_a_missing_file_entry_or_value() {
        let missing = check_against(None, &[entry("a", 1_000)]);
        assert!(missing[0].contains("missing"), "{missing:?}");
        let no_entry = check_against(Some(&recorded("a")), &[entry("b", 1_000)]);
        assert!(
            no_entry[0].contains("no checked-in entry for b"),
            "{no_entry:?}"
        );
        let unreadable = r#"{"entries": [{"name": "a", "ops_per_sec": "fast"}]}"#;
        let failures = check_against(Some(unreadable), &[entry("a", 1_000)]);
        assert!(
            failures[0].contains("unreadable ops_per_sec for a"),
            "{failures:?}"
        );
        let invalid = check_against(Some("{\"entries\": ["), &[entry("a", 1_000)]);
        assert_eq!(invalid.len(), 1, "{invalid:?}");
    }
}
