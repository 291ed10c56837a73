//! The benchmark's workloads: fixed lists of simulation points, each pinned to
//! the reference engine and built from the workload seed.

use mem::MemorySystem;
use noc::NocModel;
use system::{CoherenceProtocol, ExecutionEngine, MachineKind, SystemConfig};
use workloads::{compile, BenchmarkSpec, CompiledBenchmark, ExecMode, MachineParams, NasBenchmark};

/// One simulation the benchmark times: a benchmark on a machine.
#[derive(Debug, Clone)]
pub struct Point {
    /// Human-readable identifier, e.g. `CG/hybrid-proposed+filterdir/64/des`.
    pub label: String,
    /// The NAS-like benchmark.
    pub benchmark: NasBenchmark,
    /// The machine it runs on.
    pub kind: MachineKind,
    /// Data-set scale factor (recommended scale × the run's multiplier).
    pub scale: f64,
    /// Every knob of the run, pinned explicitly.
    pub config: SystemConfig,
}

impl Point {
    /// The benchmark spec at this point's scale.
    pub fn spec(&self) -> BenchmarkSpec {
        self.benchmark.spec_scaled(self.scale)
    }

    /// Compiles `spec` exactly as `Machine::run` does for this point.
    pub fn compile(&self, spec: &BenchmarkSpec) -> CompiledBenchmark {
        let mode = match self.kind {
            MachineKind::CacheOnly => ExecMode::CacheOnly,
            _ => ExecMode::Hybrid,
        };
        let params = MachineParams {
            cores: self.config.cores,
            spm_size: self.config.spm.size,
        };
        compile(spec, mode, &params)
    }

    /// Builds the point's memory system, as `Machine::run` does.
    pub fn memory_system(&self) -> MemorySystem {
        MemorySystem::new(self.config.memory_for(self.kind).clone())
    }

    /// One line describing every pinned knob, printed with the metrics.
    pub fn describe(&self) -> String {
        let c = &self.config;
        format!(
            "{}: cores={} machine={} protocol={} noc={} engine={} engine_jobs={} scale={} \
             trace_seed={} trace={} cycle_accounting={} track_values={}",
            self.label,
            c.cores,
            self.kind.id(),
            c.coherence_protocol.id(),
            c.noc_model().id(),
            c.engine.id(),
            c.engine_jobs,
            self.scale,
            c.trace_seed,
            c.trace.enabled,
            c.cycle_accounting,
            c.track_values,
        )
    }
}

/// A named list of points plus the layers it is meant to load.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// Per-layer counts that must be non-zero on this workload: the layers
    /// it claims to load.
    pub claims: &'static [&'static str],
    benchmarks: &'static [NasBenchmark],
    machines: &'static [(MachineKind, CoherenceProtocol)],
    cores: &'static [usize],
    noc: NocModel,
}

const PROPOSED: (MachineKind, CoherenceProtocol) =
    (MachineKind::HybridProposed, CoherenceProtocol::FilterDir);

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper64-des",
        why: "the fig7-fig11 suite at 64 cores under the DES NoC: cache-only points load mem, \
              hybrid points load spm, DMA and the filterDir protocol",
        claims: &[
            "workloads.ops",
            "mem.dram.accesses",
            "spm.array_accesses",
            "dmac.lines",
            "cohprot.guarded",
            "noc.cohprot.packets",
            "noc.des.latency.mean",
        ],
        benchmarks: &[
            NasBenchmark::Cg,
            NasBenchmark::Ft,
            NasBenchmark::Is,
            NasBenchmark::Mg,
        ],
        machines: &[
            (MachineKind::CacheOnly, CoherenceProtocol::FilterDir),
            PROPOSED,
        ],
        cores: &[64],
        noc: NocModel::DiscreteEvent,
    },
    Workload {
        name: "mesh-cg-des",
        why: "CG on 256- and 1024-core meshes under the DES NoC: engine scheduling over hundreds \
              of cores, per-core set-up and long XY routes dominate",
        claims: &[
            "workloads.ops",
            "dmac.lines",
            "cohprot.guarded",
            "noc.des.latency.mean",
        ],
        benchmarks: &[NasBenchmark::Cg],
        machines: &[PROPOSED],
        cores: &[256, 1024],
        noc: NocModel::DiscreteEvent,
    },
    Workload {
        name: "guarded64-analytic",
        why: "CG and IS under the filterDir and directory backends at 64 cores on the analytic \
              NoC: guarded accesses dominate and the NoC costs nearly nothing",
        claims: &[
            "workloads.ops",
            "cohprot.guarded",
            "directory.requests",
            "noc.cohprot.packets",
        ],
        benchmarks: &[NasBenchmark::Cg, NasBenchmark::Is],
        machines: &[
            PROPOSED,
            (MachineKind::HybridProposed, CoherenceProtocol::Directory),
        ],
        cores: &[64],
        noc: NocModel::Analytic,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The workload's points for `seed`.  `scale_multiplier` shrinks the
    /// recommended data scale and `cores_cap` the machine (both only for
    /// quick checks; the benchmark itself runs 1.0 and `None`).
    pub fn points(&self, seed: u64, scale_multiplier: f64, cores_cap: Option<usize>) -> Vec<Point> {
        let noc_id = match self.noc {
            NocModel::DiscreteEvent => "des",
            NocModel::Analytic => "analytic",
        };
        let mut points = Vec::new();
        for &cores in self.cores {
            let cores = cores_cap.map_or(cores, |cap| cores.min(cap));
            for &benchmark in self.benchmarks {
                for &(kind, protocol) in self.machines {
                    let machine = match kind {
                        MachineKind::HybridProposed => format!("{}+{}", kind.id(), protocol.id()),
                        _ => kind.id().to_owned(),
                    };
                    points.push(Point {
                        label: format!("{}/{machine}/{cores}/{noc_id}", benchmark.name()),
                        benchmark,
                        kind,
                        scale: benchmark.recommended_scale() * scale_multiplier,
                        config: pinned_config(cores, self.noc, protocol, seed),
                    });
                }
            }
        }
        points
    }
}

/// The Table 1 machine with every knob the timed runs depend on set
/// explicitly, so a change of the simulator's defaults cannot move the
/// benchmark.
fn pinned_config(
    cores: usize,
    noc: NocModel,
    protocol: CoherenceProtocol,
    seed: u64,
) -> SystemConfig {
    let mut config = SystemConfig::with_cores(cores);
    config.engine = ExecutionEngine::Interleaved;
    config.engine_jobs = 1;
    config.coherence_protocol = protocol;
    config.set_noc_model(noc);
    config.trace_seed = seed;
    config.trace.enabled = false;
    config.cycle_accounting = false;
    config.debug_cores = false;
    config.track_values = false;
    config
}
