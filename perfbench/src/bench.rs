//! The two kinds of run: untraced (end-to-end metrics) and traced (per-layer
//! metrics), plus the output checks both apply to every simulation.

use std::hint::black_box;
use std::time::Instant;

use noc::{MessageClass, Noc};
use simkernel::{CycleBreakdown, CycleCategory};
use system::{Machine, RunResult};
use workloads::{BenchmarkSpec, CompiledBenchmark, OpCursor};

use crate::host::{cpu_seconds, median, peak_rss_mb, ratio, SpeedProbe};
use crate::replay::{replay, replay_noc, LayerTime, Replay};
use crate::spans::Spans;
use crate::workload::Point;

/// Times the whole set-up is repeated per run; `setup_s` is the median.
/// A fixed count keeps the allocation history, and so `peak_rss_mb`, the
/// same on every run.
const SETUP_REPS: usize = 11;

/// Cap on the packets of one NoC replay (the run's own count when smaller).
const NOC_PACKETS: u64 = 200_000;

/// What a run measured, ready to print.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(metric, value)` for every metric of the run's catalogue.
    pub values: Vec<(&'static str, f64)>,
    /// Simulations run.
    pub attempted: u64,
    /// Simulations that failed an output check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Outcome {
    fn check(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }
}

/// The exact results every rep of a point must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Signature {
    cycles: u64,
    packets: u64,
    instructions: u64,
}

impl Signature {
    fn of(r: &RunResult) -> Self {
        Signature {
            cycles: r.execution_time.as_u64(),
            packets: r.total_packets(),
            instructions: r.instructions,
        }
    }
}

/// The output checks of one simulation: the retired instructions match the
/// op streams, the per-class packet counts add up to the total, and the
/// result repeats the point's first one exactly.
fn check_run(
    point: &Point,
    r: &RunResult,
    stream_instructions: u64,
    first: &mut Option<Signature>,
) -> Vec<String> {
    let label = &point.label;
    let mut problems = Vec::new();
    if r.instructions != stream_instructions {
        problems.push(format!(
            "{label}: retired {} instructions, its op streams hold {stream_instructions}",
            r.instructions
        ));
    }
    let by_class: u64 = MessageClass::ALL
        .iter()
        .map(|class| {
            let name = class.label().to_lowercase().replace('-', "_");
            r.stats.count(&format!("noc.{name}.packets"))
        })
        .sum();
    let total = r.stats.count("noc.total.packets");
    if by_class != total || total != r.total_packets() {
        problems.push(format!(
            "{label}: per-class packets sum to {by_class}, noc.total.packets is {total}, \
             the traffic total is {}",
            r.total_packets()
        ));
    }
    let signature = Signature::of(r);
    match first {
        Some(expected) if *expected != signature => problems.push(format!(
            "{label}: rep gave {signature:?}, the first rep gave {expected:?}"
        )),
        Some(_) => {}
        None => *first = Some(signature),
    }
    problems
}

/// Σ `TraceOp::instruction_count` (and the op count) over every core's
/// `OpCursor` stream of every kernel, seeded like the machine.
fn stream_totals(point: &Point, compiled: &CompiledBenchmark) -> (u64, u64) {
    let cores = point.config.cores;
    let (mut ops, mut instructions) = (0, 0);
    for kernel in &compiled.kernels {
        for core in 0..cores {
            let core = simkernel::CoreId::new(core);
            let mut cursor = OpCursor::new(kernel, core, cores, point.config.trace_seed);
            while let Some(op) = cursor.next_op() {
                ops += 1;
                instructions += op.instruction_count();
            }
        }
    }
    (ops, instructions)
}

/// Builds every point's spec, compiles it and constructs its memory system.
fn set_up(points: &[Point]) {
    for point in points {
        let spec = point.spec();
        let compiled = point.compile(&spec);
        let memsys = point.memory_system();
        black_box((&compiled, &memsys));
    }
}

/// The untraced run: set-up time, then closed-loop reps of every point with
/// `Machine::run` until `seconds` have passed (at least one rep).
///
/// Every timed step is divided by the [`SpeedProbe`] slowdown measured just
/// before it, so times are host seconds at the reference host speed.
pub fn end_to_end(points: &[Point], seconds: f64) -> Result<Outcome, String> {
    let probe = SpeedProbe::new();
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let slowdown = probe.slowdown();
            let rep = Instant::now();
            set_up(points);
            rep.elapsed().as_secs_f64() / slowdown
        })
        .collect();

    let specs: Vec<BenchmarkSpec> = points.iter().map(Point::spec).collect();
    let expected: Vec<u64> = points
        .iter()
        .zip(&specs)
        .map(|(p, spec)| stream_totals(p, &p.compile(spec)).1)
        .collect();

    let n = points.len();
    let mut outcome = Outcome::default();
    let mut wall = vec![Vec::new(); n];
    let mut cpu = vec![Vec::new(); n];
    let mut raw_wall = vec![Vec::new(); n];
    let mut slowdowns = Vec::new();
    let mut first = vec![None; n];
    let mut instructions = 0;
    let mut peak_rss = 0.0;
    let start = Instant::now();
    loop {
        for (i, point) in points.iter().enumerate() {
            let machine = Machine::new(point.kind, point.config.clone());
            let slowdown = probe.slowdown();
            let (wall0, cpu0) = (Instant::now(), cpu_seconds());
            let r = machine.run(&specs[i]);
            let elapsed = wall0.elapsed().as_secs_f64();
            wall[i].push(elapsed / slowdown);
            raw_wall[i].push(elapsed);
            cpu[i].push((cpu_seconds() - cpu0) / slowdown);
            slowdowns.push(slowdown);
            outcome.check(check_run(point, &r, expected[i], &mut first[i]));
            if wall[i].len() == 1 {
                instructions += r.instructions;
            }
        }
        if peak_rss == 0.0 {
            // The peak of set-up plus one pass over every point; later
            // passes add only allocator noise that depends on their number.
            peak_rss = peak_rss_mb()?;
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    println!(
        "host slowdown against the reference: median {:.3} over {} probes; \
         wall seconds before normalising: {:.4}",
        median(&slowdowns),
        slowdowns.len(),
        raw_wall.iter().map(|w| median(w)).sum::<f64>()
    );
    for ((point, w), c) in points.iter().zip(&wall).zip(&cpu) {
        let reps: Vec<String> = w.iter().map(|s| format!("{s:.3}")).collect();
        println!(
            "wall {}: median {:.4} s, cpu median {:.4} s over {} reps [{}]",
            point.label,
            median(w),
            median(c),
            w.len(),
            reps.join(" ")
        );
    }
    let wall_s: f64 = wall.iter().map(|w| median(w)).sum();
    outcome.values = vec![
        ("wall_s", wall_s),
        ("sim_mips", ratio(instructions as f64, wall_s) / 1e6),
        ("cpu_s", cpu.iter().map(|c| median(c)).sum()),
        ("peak_rss_mb", peak_rss),
        ("setup_s", median(&setup)),
    ];
    Ok(outcome)
}

/// Everything the traced run measured on one point, over every pass.
#[derive(Debug, Default)]
struct PointTrace {
    compile_s: Vec<f64>,
    memsys_s: Vec<f64>,
    run_s: Vec<f64>,
    accounted_s: Vec<f64>,
    replays: Vec<Replay>,
    noc: Vec<LayerTime>,
    result: Option<(RunResult, CycleBreakdown)>,
    first: Option<Signature>,
}

/// One point's host times (medians over passes) and work counts, or their
/// sum over points.
#[derive(Debug, Clone, Copy, Default)]
struct HostTimes {
    compile_s: f64,
    memsys_s: f64,
    run_s: f64,
    accounted_s: f64,
    opgen: LayerTime,
    cpu: LayerTime,
    mem: LayerTime,
    spm: LayerTime,
    coherence: LayerTime,
    /// The NoC replay (count: packets replayed).
    noc_replay: LayerTime,
    /// The NoC's part of `run_s`: replayed cost per packet × the run's
    /// packets.
    noc_s: f64,
}

impl HostTimes {
    fn add(&mut self, o: &HostTimes) {
        self.compile_s += o.compile_s;
        self.memsys_s += o.memsys_s;
        self.run_s += o.run_s;
        self.accounted_s += o.accounted_s;
        for (a, b) in [
            (&mut self.opgen, o.opgen),
            (&mut self.cpu, o.cpu),
            (&mut self.mem, o.mem),
            (&mut self.spm, o.spm),
            (&mut self.coherence, o.coherence),
            (&mut self.noc_replay, o.noc_replay),
        ] {
            a.seconds += b.seconds;
            a.count += b.count;
        }
        self.noc_s += o.noc_s;
    }

    /// Share of `run_s` spent in `seconds`.
    fn share(&self, seconds: f64) -> f64 {
        ratio(seconds, self.run_s)
    }

    /// Share of `run_s` no replayed layer accounts for: the engine.
    fn residual_share(&self) -> f64 {
        let layers = self.opgen.seconds
            + self.cpu.seconds
            + self.mem.seconds
            + self.spm.seconds
            + self.coherence.seconds
            + self.noc_s;
        1.0 - self.share(layers)
    }
}

/// Host nanoseconds per unit of a layer's work.
fn ns_per(layer: LayerTime) -> f64 {
    ratio(layer.seconds * 1e9, layer.count as f64)
}

impl PointTrace {
    fn host_times(&self) -> HostTimes {
        let layer = |pick: fn(&Replay) -> LayerTime| LayerTime {
            seconds: median(
                &self
                    .replays
                    .iter()
                    .map(|r| pick(r).seconds)
                    .collect::<Vec<_>>(),
            ),
            count: self.replays.first().map_or(0, |r| pick(r).count),
        };
        let noc_replay = LayerTime {
            seconds: median(&self.noc.iter().map(|n| n.seconds).collect::<Vec<_>>()),
            count: self.noc.first().map_or(0, |n| n.count),
        };
        let packets = self.result.as_ref().map_or(0, |(r, _)| r.total_packets());
        HostTimes {
            compile_s: median(&self.compile_s),
            memsys_s: median(&self.memsys_s),
            run_s: median(&self.run_s),
            accounted_s: median(&self.accounted_s),
            opgen: layer(|r| r.opgen),
            cpu: layer(|r| r.cpu),
            mem: layer(|r| r.mem),
            spm: layer(|r| r.spm),
            coherence: layer(|r| r.coherence),
            noc_replay,
            noc_s: ns_per(noc_replay) * 1e-9 * packets as f64,
        }
    }
}

/// The traced run: for every point, times compile, memory-system set-up,
/// `Machine::run`, `Machine::run_accounted`, the per-layer replay and a NoC
/// replay at the run's own injection rate, recording spans.  Repeats passes
/// until `seconds` have passed (at least one).
pub fn per_layer(points: &[Point], seconds: f64, spans: &mut Spans) -> Outcome {
    let mut traces: Vec<PointTrace> = points.iter().map(|_| PointTrace::default()).collect();
    let mut outcome = Outcome::default();
    let mut pass_s = Vec::new();
    let start = Instant::now();
    loop {
        let pass = spans.open("pass", None);
        for (point, trace) in points.iter().zip(&mut traces) {
            let point_span = spans.open(&point.label, Some(pass));
            let parent = Some(point_span);
            let spec = point.spec();

            let id = spans.open("workloads.compile", parent);
            let compiled = point.compile(&spec);
            spans.close(id, compiled.kernels.len() as u64);
            trace.compile_s.push(spans.seconds(id));

            let id = spans.open("mem.setup", parent);
            black_box(point.memory_system());
            spans.close(id, point.config.cores as u64);
            trace.memsys_s.push(spans.seconds(id));

            let machine = Machine::new(point.kind, point.config.clone());
            let id = spans.open("machine.run", parent);
            let r = machine.run(&spec);
            spans.close(id, r.instructions);
            trace.run_s.push(spans.seconds(id));

            let id = spans.open("machine.run_accounted", parent);
            let (accounted, breakdown) = machine.run_accounted(&spec);
            spans.close(id, accounted.instructions);
            trace.accounted_s.push(spans.seconds(id));

            let id = spans.open("replay", parent);
            let replayed = replay(point, &compiled, spans, id);
            spans.close(id, replayed.opgen.count);
            trace.replays.push(replayed);

            let id = spans.open("noc.replay", parent);
            let nodes = Noc::new(point.config.memory_for(point.kind).noc)
                .topology()
                .nodes();
            let rate = ratio(
                r.total_packets() as f64,
                r.execution_time.as_f64() * nodes as f64,
            );
            let noc = replay_noc(point, rate, r.total_packets().min(NOC_PACKETS), spans, id);
            spans.close(id, noc.count);
            trace.noc.push(noc);

            let mut problems = check_run(point, &r, replayed.instructions, &mut trace.first);
            if let Err(e) = breakdown.check_exhaustive() {
                problems.push(format!("{}: cycle accounting: {e}", point.label));
            }
            if Signature::of(&accounted) != Signature::of(&r) {
                problems.push(format!(
                    "{}: the accounted run differs from the plain run",
                    point.label
                ));
            }
            outcome.check(problems);
            if trace.result.is_none() {
                trace.result = Some((r, breakdown));
            }
            spans.close(point_span, 1);
        }
        spans.close(pass, points.len() as u64);
        pass_s.push(spans.seconds(pass));
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let mut host = HostTimes::default();
    for (point, trace) in points.iter().zip(&traces) {
        let t = trace.host_times();
        println!(
            "layers {}: run {:.3} s; shares opgen {:.3} cpu {:.3} mem {:.3} spm {:.3} \
             spm_coherence {:.3} noc {:.3} residual {:.3}; {} accesses, {} guarded, {} packets",
            point.label,
            t.run_s,
            t.share(t.opgen.seconds),
            t.share(t.cpu.seconds),
            t.share(t.mem.seconds),
            t.share(t.spm.seconds),
            t.share(t.coherence.seconds),
            t.share(t.noc_s),
            t.residual_share(),
            t.mem.count,
            t.coherence.count,
            trace.result.as_ref().map_or(0, |(r, _)| r.total_packets()),
        );
        host.add(&t);
    }
    let results: Vec<&(RunResult, CycleBreakdown)> =
        traces.iter().filter_map(|t| t.result.as_ref()).collect();
    outcome.values = layer_metrics(&host, &results, median(&pass_s), &outcome);
    outcome
}

/// The per-layer catalogue from the summed host times and the first pass's
/// results.
fn layer_metrics(
    host: &HostTimes,
    results: &[&(RunResult, CycleBreakdown)],
    pass_s: f64,
    outcome: &Outcome,
) -> Vec<(&'static str, f64)> {
    let total =
        |f: &dyn Fn(&RunResult) -> u64| results.iter().map(|(r, _)| f(r)).sum::<u64>() as f64;
    let stat = |name: &str| total(&|r| r.stats.count(name));
    let elapsed: u64 = results.iter().map(|(_, b)| b.elapsed_total()).sum();
    let category = |c: CycleCategory| {
        let cycles: u64 = results.iter().map(|(_, b)| b.totals().get(c)).sum();
        ratio(cycles as f64, elapsed as f64)
    };
    let latency_sum: f64 = results
        .iter()
        .map(|(r, _)| {
            r.stats.value("noc.des.latency.mean")
                * r.stats.count("noc.des.packets.delivered") as f64
        })
        .sum();

    vec![
        ("engine.residual_share", host.residual_share()),
        ("workloads.compile_s", host.compile_s),
        ("workloads.opgen_ns_per_op", ns_per(host.opgen)),
        ("workloads.opgen_share", host.share(host.opgen.seconds)),
        ("cpu.ns_per_op", ns_per(host.cpu)),
        ("cpu.host_share", host.share(host.cpu.seconds)),
        ("mem.setup_s", host.memsys_s),
        ("mem.ns_per_access", ns_per(host.mem)),
        ("mem.host_share", host.share(host.mem.seconds)),
        ("spm.ns_per_dma_line", ns_per(host.spm)),
        ("spm.host_share", host.share(host.spm.seconds)),
        ("spm_coherence.ns_per_guarded", ns_per(host.coherence)),
        (
            "spm_coherence.host_share",
            host.share(host.coherence.seconds),
        ),
        ("noc.ns_per_packet", ns_per(host.noc_replay)),
        ("noc.host_share", host.share(host.noc_s)),
        ("observers.accounting_ratio", host.share(host.accounted_s)),
        ("trace.overhead_s", pass_s - host.run_s),
        (
            "fail_ratio",
            ratio(outcome.failed as f64, outcome.attempted as f64),
        ),
        ("workloads.ops", host.opgen.count as f64),
        ("sim.instructions", total(&|r| r.instructions)),
        ("sim.cycles", total(&|r| r.execution_time.as_u64())),
        ("cycles.compute", category(CycleCategory::Compute)),
        ("cycles.ifetch", category(CycleCategory::IFetch)),
        ("cycles.lsq_stall", category(CycleCategory::LsqStall)),
        ("cycles.miss_wait", category(CycleCategory::MissWait)),
        ("cycles.dma_wait", category(CycleCategory::DmaWait)),
        ("cycles.barrier_wait", category(CycleCategory::BarrierWait)),
        ("cycles.noc_queue", category(CycleCategory::NocQueue)),
        ("cycles.protocol", category(CycleCategory::Protocol)),
        ("cycles.park", category(CycleCategory::Park)),
        (
            "mem.l1d.hit_ratio",
            ratio(stat("mem.l1d.hits"), stat("mem.l1d.accesses")),
        ),
        (
            "mem.l2.hit_ratio",
            ratio(stat("mem.l2.hits"), stat("mem.l2.accesses")),
        ),
        ("mem.dram.accesses", stat("mem.dram.accesses")),
        ("spm.array_accesses", stat("spm.array_accesses")),
        ("dmac.lines", stat("dmac.lines")),
        ("dmac.queue_full_stalls", stat("dmac.queue_full_stalls")),
        ("cohprot.guarded", total(&|r| r.protocol.guarded_accesses())),
        (
            "cohprot.filter.hit_ratio",
            ratio(
                total(&|r| r.protocol.filter_hits),
                total(&|r| r.protocol.filter_lookups),
            ),
        ),
        (
            "directory.requests",
            total(&|r| r.protocol.directory_requests),
        ),
        ("noc.total.packets", total(&|r| r.total_packets())),
        (
            "noc.total.flit_hops",
            total(&|r| r.traffic.total_flit_hops()),
        ),
        (
            "noc.cohprot.packets",
            total(&|r| r.traffic.packets(MessageClass::CohProt)),
        ),
        (
            "noc.des.latency.mean",
            ratio(latency_sum, stat("noc.des.packets.delivered")),
        ),
        (
            "noc.des.inject.wait_cycles",
            stat("noc.des.inject.wait_cycles"),
        ),
        (
            "noc.des.links.max_utilization",
            results
                .iter()
                .map(|(r, _)| r.stats.value("noc.des.links.max_utilization"))
                .fold(0.0, f64::max),
        ),
    ]
}
