//! The full machine: drives workload traces through every hardware model.

use serde::{Deserialize, Serialize};
use simkernel::attrib::CoreBreakdown;
use simkernel::trace::{ChromeTrace, TraceKind, Tracer};
use simkernel::{CoreId, Cycle, CycleBreakdown, Json, StatRegistry};

use cpu::{CoreTimingModel, PhaseBreakdown};
use energy::model::MachineFeatures;
use energy::{EnergyBreakdown, EnergyModel};
use mem::{AccessKind, MemorySystem};
use noc::{MessageClass, TrafficAccountant};
use spm::{Dmac, Scratchpad};
use spm_coherence::{
    CoherenceBackend, DirectoryCoherence, IdealCoherence, ProtocolFault, ProtocolStats,
    SpmCoherenceProtocol,
};
use workloads::{compile, BenchmarkSpec, ExecMode, MachineParams, Phase, RawKernel};

use crate::config::{CoherenceProtocol, MachineKind, SystemConfig};
use crate::engine::{self, KernelCtx, ProgramRef};
use crate::verify::{merge_image, ValueTracking, VerifyOutcome};

/// The result of running one benchmark on one machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Benchmark name.
    pub benchmark: String,
    /// The machine the benchmark ran on.
    pub kind: MachineKind,
    /// End-to-end execution time (the slowest core).
    pub execution_time: Cycle,
    /// Execution time split into control / synchronization / work.
    pub phase_cycles: [Cycle; 3],
    /// Total NoC packets injected, per message class.
    pub traffic: TrafficAccountant,
    /// Per-component energy.
    pub energy: EnergyBreakdown,
    /// Filter hit ratio, when the proposed protocol was active and used.
    pub filter_hit_ratio: Option<f64>,
    /// Protocol-level statistics (zeroed on the cache-based machine).
    pub protocol: ProtocolStats,
    /// Total instructions executed over all cores.
    pub instructions: u64,
    /// Every raw counter exported by the hardware models.
    pub stats: StatRegistry,
    /// Where every core's cycles went: one [`CoreBreakdown`] per core,
    /// whose categories sum bit-exactly to that core's elapsed cycles.
    pub breakdown: CycleBreakdown,
}

impl RunResult {
    /// Total NoC packets injected.
    pub fn total_packets(&self) -> u64 {
        self.traffic.total_packets()
    }

    /// Total energy in joules.
    pub fn total_energy(&self) -> f64 {
        self.energy.total()
    }

    /// Fraction of execution time spent in a phase.
    pub fn phase_fraction(&self, phase: Phase) -> f64 {
        let total: u64 = self.phase_cycles.iter().map(|c| c.as_u64()).sum();
        if total == 0 {
            0.0
        } else {
            self.phase_cycles[phase.index()].as_f64() / total as f64
        }
    }
}

/// Per-kernel clock audit of one run (see [`Machine::run_audited`]).
///
/// One entry per executed kernel, in execution order.  The audit is what
/// lets tests state the scheduler's safety property — no core's clock ever
/// passes an unreleased barrier — as data instead of trusting the engine.
#[derive(Debug, Clone, Default)]
pub struct EngineAudit {
    /// One audit per kernel, in execution order.
    pub kernels: Vec<KernelAudit>,
}

/// The clock history of one kernel across every core.
#[derive(Debug, Clone)]
pub struct KernelAudit {
    /// The kernel's name.
    pub name: String,
    /// Each core's clock when the kernel began (after the previous kernel's
    /// barrier released).
    pub start: Vec<Cycle>,
    /// Each core's clock after its last op of this kernel (before the
    /// barrier wait).
    pub end: Vec<Cycle>,
    /// The kernel-end barrier: the slowest core's end clock.
    pub barrier: Cycle,
}

/// Everything one traced run recorded: the event rings, the sampled
/// time-series and the per-kernel clock audit, plus enough context to render
/// a self-describing Chrome trace-event document.
///
/// Produced by [`Machine::run_traced`]; [`TraceCapture::to_chrome`] renders
/// the JSON that Perfetto / `chrome://tracing` opens directly.
#[derive(Debug)]
pub struct TraceCapture {
    /// The benchmark that was traced.
    pub benchmark: String,
    /// Core count of the traced machine (one timeline track per core).
    pub cores: usize,
    /// Per-kernel start/end/barrier clocks (the kernel + barrier spans).
    pub audit: EngineAudit,
    /// The recorded events and sampled time-series.
    pub tracer: Tracer,
}

impl TraceCapture {
    /// Events currently held over all per-core rings.
    pub fn events(&self) -> usize {
        self.tracer.events()
    }

    /// Events evicted by ring overflow.
    pub fn dropped(&self) -> u64 {
        self.tracer.dropped()
    }

    /// Renders the capture as a Chrome trace-event JSON document:
    /// per-core thread tracks carrying kernel/barrier duration spans (from
    /// the audit), DMA/park wait spans and instant events (from the rings),
    /// and the sampled statistics as counter tracks.  Timestamps are cycles.
    pub fn to_chrome(&self) -> Json {
        let mut chrome = ChromeTrace::new();
        for core in 0..self.cores {
            chrome.thread_name(0, core as u64, &format!("core {core}"));
        }
        for kernel in &self.audit.kernels {
            for (core, (&start, &end)) in kernel.start.iter().zip(kernel.end.iter()).enumerate() {
                chrome.duration(
                    0,
                    core as u64,
                    "engine",
                    &kernel.name,
                    start.as_u64(),
                    (end - start).as_u64(),
                    Json::empty_obj(),
                );
                if kernel.barrier > end {
                    chrome.duration(
                        0,
                        core as u64,
                        "engine",
                        "barrier",
                        end.as_u64(),
                        (kernel.barrier - end).as_u64(),
                        Json::empty_obj(),
                    );
                }
            }
        }
        chrome.add_tracer(&self.tracer, 0, 1);
        chrome.finish([
            ("benchmark", Json::str(&self.benchmark)),
            ("cores", Json::from(self.cores as u64)),
            ("droppedEvents", Json::from(self.dropped())),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

/// A machine of one of the three [`MachineKind`]s, ready to run benchmarks.
///
/// # Example
///
/// ```
/// use system::{Machine, MachineKind, SystemConfig};
/// use workloads::nas::NasBenchmark;
///
/// let config = SystemConfig::small(4);
/// let spec = NasBenchmark::Ep.spec_scaled(1.0 / 8.0);
/// let result = Machine::new(MachineKind::HybridProposed, config).run(&spec);
/// assert!(result.execution_time.as_u64() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    kind: MachineKind,
    config: SystemConfig,
    fault: Option<ProtocolFault>,
}

impl Machine {
    /// Creates a machine of the given kind.
    pub fn new(kind: MachineKind, config: SystemConfig) -> Self {
        Machine {
            kind,
            config,
            fault: None,
        }
    }

    /// Injects a deliberate protocol defect (negative verification tests;
    /// only effective on [`MachineKind::HybridProposed`]).
    pub fn with_fault(mut self, fault: ProtocolFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The machine kind.
    pub fn kind(&self) -> MachineKind {
        self.kind
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs a benchmark to completion and collects every statistic.
    ///
    /// With `SystemConfig.track_values` on, real data values travel with
    /// every access (timing is unchanged); the differential oracle is only
    /// armed by the `verify_*` entry points.
    pub fn run(&self, spec: &BenchmarkSpec) -> RunResult {
        self.run_inner(Workload::Spec(spec), None, false).0
    }

    /// [`Machine::run`] plus a copy of the run's cycle breakdown.  Kept
    /// because the benchmark harness in `perfbench/` calls it; every
    /// [`RunResult`] already carries its [`RunResult::breakdown`].
    pub fn run_accounted(&self, spec: &BenchmarkSpec) -> (RunResult, CycleBreakdown) {
        let result = self.run(spec);
        let breakdown = result.breakdown.clone();
        (result, breakdown)
    }

    /// Like [`Machine::run`], with event tracing forced on: returns the run
    /// result together with the recorded [`TraceCapture`].
    ///
    /// Tracing honours the machine's `SystemConfig.trace` knobs (categories,
    /// ring capacity, sampling period) but arms the tracer even when
    /// `trace.enabled` is off, so callers need not thread the flag through.
    pub fn run_traced(&self, spec: &BenchmarkSpec) -> (RunResult, TraceCapture) {
        let mut machine = self.clone();
        machine.config.trace.enabled = true;
        let mut audit = EngineAudit::default();
        let (result, _, tracer) = machine.run_inner(Workload::Spec(spec), Some(&mut audit), false);
        let capture = TraceCapture {
            benchmark: spec.name.clone(),
            cores: machine.config.cores,
            audit,
            tracer: tracer.expect("tracing was armed"),
        };
        (result, capture)
    }

    /// Like [`Machine::run`], also returning the per-kernel clock audit.
    ///
    /// Used by the scheduler-equivalence tests: the audit exposes each
    /// core's kernel start/end clocks and the kernel barriers, from which
    /// the barrier-safety invariant (`start ≥ previous barrier` on every
    /// core) can be checked for any workload.
    pub fn run_audited(&self, spec: &BenchmarkSpec) -> (RunResult, EngineAudit) {
        let mut audit = EngineAudit::default();
        let result = self
            .run_inner(Workload::Spec(spec), Some(&mut audit), false)
            .0;
        (result, audit)
    }

    /// Runs a benchmark with value tracking and the differential coherence
    /// oracle armed, regardless of `SystemConfig.track_values`.
    pub fn verify_spec(&self, spec: &BenchmarkSpec) -> VerifyOutcome {
        let (result, verified, _) = self.run_inner(Workload::Spec(spec), None, true);
        let (report, image) = verified.expect("oracle was armed");
        VerifyOutcome {
            result,
            report,
            image,
        }
    }

    /// Runs a raw (litmus / fuzz) program under the differential oracle.
    pub fn verify_raw(&self, program: &RawKernel) -> VerifyOutcome {
        let (result, verified, _) = self.run_inner(Workload::Raw(program), None, true);
        let (report, image) = verified.expect("oracle was armed");
        VerifyOutcome {
            result,
            report,
            image,
        }
    }

    fn run_inner(
        &self,
        workload: Workload<'_>,
        mut audit: Option<&mut EngineAudit>,
        with_oracle: bool,
    ) -> InnerOutcome {
        let cores = self.config.cores;
        let mode = if self.kind == MachineKind::CacheOnly {
            ExecMode::CacheOnly
        } else {
            ExecMode::Hybrid
        };
        let machine_params = MachineParams {
            cores,
            spm_size: self.config.spm.size,
        };
        let compiled = match workload {
            Workload::Spec(spec) => Some(compile(spec, mode, &machine_params)),
            Workload::Raw(raw) => {
                assert_eq!(
                    raw.cores(),
                    cores,
                    "raw program written for a different core count"
                );
                None
            }
        };
        let programs: Vec<ProgramRef<'_>> = match (&compiled, workload) {
            (Some(compiled), _) => compiled.kernels.iter().map(ProgramRef::Compiled).collect(),
            (None, Workload::Raw(raw)) => vec![ProgramRef::Raw(raw)],
            (None, Workload::Spec(_)) => unreachable!("spec workloads are compiled above"),
        };
        let name = match workload {
            Workload::Spec(spec) => spec.name.clone(),
            Workload::Raw(raw) => raw.name.clone(),
        };

        let track_values = self.config.track_values || with_oracle;
        let mut memsys = MemorySystem::new(self.config.memory_for(self.kind).clone());
        if track_values {
            memsys.enable_value_tracking();
        }
        let mut values = track_values.then(|| ValueTracking::new(cores, with_oracle));
        let mut protocol: Box<dyn CoherenceBackend> =
            match (self.kind, self.config.coherence_protocol) {
                (MachineKind::HybridProposed, CoherenceProtocol::FilterDir) => {
                    let mut p = SpmCoherenceProtocol::new(self.config.protocol.clone());
                    p.inject_fault(self.fault);
                    Box::new(p)
                }
                (MachineKind::HybridProposed, CoherenceProtocol::Directory) => {
                    let mut p = DirectoryCoherence::new(self.config.protocol.clone());
                    p.inject_fault(self.fault);
                    Box::new(p)
                }
                _ => Box::new(IdealCoherence::new(self.config.protocol.clone())),
            };
        let mut spms: Vec<Scratchpad> = (0..cores)
            .map(|_| Scratchpad::new(self.config.spm))
            .collect();
        let mut dmacs: Vec<Dmac> = (0..cores)
            .map(|i| Dmac::new(CoreId::new(i), self.config.dmac))
            .collect();
        let mut core_models: Vec<CoreTimingModel> = (0..cores)
            .map(|_| CoreTimingModel::new(self.config.core))
            .collect();

        // Parallel initialisation: the NAS benchmarks initialise their data in
        // parallel loops before the timed kernels, so shared read-mostly data
        // (the randomly accessed sets and the code) is already resident in the
        // shared L2 when measurement starts.  Touching it round-robin across
        // the cores avoids charging the whole cold-start cost to whichever
        // core happens to execute first in the trace interleaving.
        if let Some(compiled) = &compiled {
            self.warm_shared_data(compiled, &mut memsys);
        }

        let mut tracer: Option<Tracer> = self
            .config
            .trace
            .enabled
            .then(|| Tracer::new(cores, &self.config.trace));

        // Sampler scratch, reused across every kernel of the run.
        let mut depth_scratch: Vec<u64> = Vec::new();

        for program in &programs {
            let start: Vec<Cycle> = if audit.is_some() {
                core_models.iter().map(|c| c.now()).collect()
            } else {
                Vec::new()
            };
            protocol.configure_buffer_size(program.buffer_size());
            // Kernels without guarded accesses power-gate the filters (as
            // the paper does for SP).
            protocol.set_filters_gated(!program.has_guarded_refs());
            // Only the discrete-event NoC has a clock to keep in step with
            // the issuing core; skip the per-op call entirely on the
            // (default) analytic backend — this is the simulator's hottest
            // loop.
            let track_noc_clock = memsys.config().noc.model == noc::NocModel::DiscreteEvent;
            let mut ctx = KernelCtx {
                program: *program,
                memsys: &mut memsys,
                protocol: protocol.as_mut(),
                spms: &mut spms,
                dmacs: &mut dmacs,
                cores: &mut core_models,
                track_noc_clock,
                values: values.as_mut(),
                tracer: tracer.as_mut(),
                depth_scratch: std::mem::take(&mut depth_scratch),
            };
            engine::run_kernel(&mut ctx, self.config.trace_seed);
            depth_scratch = std::mem::take(&mut ctx.depth_scratch);
            // Per-core kernel report: one CoreReport event per core.
            if let Some(tr) = tracer.as_mut() {
                for (core, c) in core_models.iter().enumerate() {
                    tr.record(
                        core,
                        c.now().as_u64(),
                        TraceKind::CoreReport,
                        [c.breakdown().phase(Phase::Work).as_u64(), c.stall_cycles()],
                    );
                }
            }
            // Kernel barrier: every core waits for the slowest one.
            let end: Vec<Cycle> = core_models.iter().map(|c| c.now()).collect();
            let barrier = end.iter().copied().max().unwrap_or(Cycle::ZERO);
            for core in core_models.iter_mut() {
                core.set_phase(Phase::Sync);
                core.drain_memory();
                // Idle barrier wait: load imbalance, not a loop phase.
                core.idle_until(barrier);
            }
            // Close the kernel with one forced sample at the barrier, so
            // short runs still get at least one time-series point per kernel.
            if self.config.trace.sample_interval != 0 {
                if let Some(tr) = tracer.as_mut() {
                    let mut scratch = std::mem::take(&mut depth_scratch);
                    engine::sample_stats(tr, &memsys, &dmacs, &core_models, barrier, &mut scratch);
                    depth_scratch = scratch;
                }
            }
            if let Some(audit) = audit.as_deref_mut() {
                audit.kernels.push(KernelAudit {
                    name: program.name().to_owned(),
                    start,
                    end,
                    barrier,
                });
            }
        }

        let verified = values.map(|vt| {
            let (report, spm_values) = vt.finish();
            let image = merge_image(memsys.value_image(), &spm_values);
            (report, image)
        });
        let result = self.collect(&name, memsys, protocol, spms, dmacs, core_models);
        (result, verified, tracer)
    }

    /// Touches the shared (non-partitioned) data of every kernel — the
    /// randomly accessed data sets and the code — spreading the accesses over
    /// the cores, without advancing any core's clock.
    fn warm_shared_data(&self, compiled: &workloads::CompiledBenchmark, memsys: &mut MemorySystem) {
        let cores = self.config.cores;
        for kernel in &compiled.kernels {
            for random in &kernel.random_refs {
                let range = mem::AddressRange::new(random.base, random.size);
                for (i, line) in range.lines().enumerate() {
                    let core = CoreId::new(i % cores);
                    let _ = memsys.access(
                        core,
                        line.base(),
                        AccessKind::Load,
                        MessageClass::Read,
                        random.reference_id,
                    );
                }
            }
            let code = mem::AddressRange::new(kernel.code_base, kernel.code_size);
            for (i, line) in code.lines().enumerate() {
                let core = CoreId::new(i % cores);
                let _ = memsys.access(
                    core,
                    line.base(),
                    AccessKind::Ifetch,
                    MessageClass::Ifetch,
                    0,
                );
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn collect(
        &self,
        name: &str,
        memsys: MemorySystem,
        protocol: Box<dyn CoherenceBackend>,
        spms: Vec<Scratchpad>,
        dmacs: Vec<Dmac>,
        core_models: Vec<CoreTimingModel>,
    ) -> RunResult {
        let execution_time = core_models
            .iter()
            .map(|c| c.now())
            .max()
            .unwrap_or(Cycle::ZERO);

        // Aggregate statistics from every component.
        let mut stats = StatRegistry::new();
        memsys.export_stats(&mut stats);
        protocol.export_stats(&mut stats);
        for core in &core_models {
            core.export_stats(&mut stats);
        }
        for dmac in &dmacs {
            dmac.export_stats(&mut stats);
        }
        let spm_accesses: u64 = spms.iter().map(Scratchpad::total_array_accesses).sum();
        let spm_local: u64 = spms.iter().map(Scratchpad::local_accesses).sum();
        let spm_remote: u64 = spms.iter().map(Scratchpad::remote_accesses).sum();
        stats.add_count("spm.array_accesses", spm_accesses);
        stats.add_count("spm.local_accesses", spm_local);
        stats.add_count("spm.remote_accesses", spm_remote);

        // Phase split: barrier waits are never accounted to a phase, so the
        // per-phase critical path (the slowest core in each phase) is a fair
        // representation of where the program's time goes.
        let mut critical = PhaseBreakdown::default();
        for core in &core_models {
            critical = critical.max(core.breakdown());
        }
        let mut phase_cycles = [Cycle::ZERO; 3];
        for phase in Phase::ALL {
            phase_cycles[phase.index()] = critical.phase(phase);
        }

        let features = match self.kind {
            MachineKind::CacheOnly => MachineFeatures::cache_only(),
            MachineKind::HybridIdeal => MachineFeatures::hybrid_ideal(),
            MachineKind::HybridProposed => MachineFeatures::hybrid_proposed(),
        };
        let energy_model = EnergyModel::new(self.config.energy, self.config.frequency);
        let energy = energy_model.evaluate(&stats, execution_time, features);

        let filter_hit_ratio = if self.kind == MachineKind::HybridProposed {
            protocol.filter_hit_ratio()
        } else {
            None
        };

        RunResult {
            benchmark: name.to_owned(),
            kind: self.kind,
            execution_time,
            phase_cycles,
            traffic: memsys.noc().traffic().clone(),
            energy,
            filter_hit_ratio,
            protocol: *protocol.stats(),
            instructions: core_models.iter().map(CoreTimingModel::instructions).sum(),
            stats,
            breakdown: CycleBreakdown {
                cores: core_models
                    .iter()
                    .map(|c| CoreBreakdown {
                        account: *c.cycle_account(),
                        elapsed: c.now().as_u64(),
                    })
                    .collect(),
            },
        }
    }
}

/// Everything one inner run can produce: the result itself plus the
/// optional oracle verdict and trace capture (each present only when the
/// corresponding knob armed it).
type InnerOutcome = (
    RunResult,
    Option<(oracle::OracleReport, crate::verify::MemoryImage)>,
    Option<Tracer>,
);

/// The workload a run executes: a compiled benchmark spec or a raw
/// (litmus / fuzz) program.
#[derive(Debug, Clone, Copy)]
enum Workload<'a> {
    Spec(&'a BenchmarkSpec),
    Raw(&'a RawKernel),
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::CycleCategory;
    use workloads::nas::NasBenchmark;

    fn small_spec() -> BenchmarkSpec {
        NasBenchmark::Cg.spec_scaled(1.0 / 512.0)
    }

    fn config() -> SystemConfig {
        SystemConfig::small(4)
    }

    #[test]
    fn all_three_machines_run_the_same_workload() {
        let spec = small_spec();
        for kind in MachineKind::ALL {
            let r = Machine::new(kind, config()).run(&spec);
            assert!(
                r.execution_time > Cycle::ZERO,
                "{kind}: zero execution time"
            );
            assert!(r.instructions > 0);
            assert!(r.total_energy() > 0.0);
            assert!(r.total_packets() > 0);
        }
    }

    #[test]
    fn hybrid_uses_spms_and_dma_cache_based_does_not() {
        let spec = small_spec();
        let hybrid = Machine::new(MachineKind::HybridProposed, config()).run(&spec);
        let cache = Machine::new(MachineKind::CacheOnly, config()).run(&spec);
        assert!(hybrid.stats.count("spm.array_accesses") > 0);
        assert!(hybrid.stats.count("dmac.lines") > 0);
        assert!(hybrid.traffic.packets(MessageClass::Dma) > 0);
        assert_eq!(cache.stats.count("spm.array_accesses"), 0);
        assert_eq!(cache.traffic.packets(MessageClass::Dma), 0);
        assert_eq!(cache.traffic.packets(MessageClass::CohProt), 0);
    }

    #[test]
    fn proposed_protocol_adds_cohprot_traffic_ideal_does_not() {
        let spec = small_spec();
        let proposed = Machine::new(MachineKind::HybridProposed, config()).run(&spec);
        let ideal = Machine::new(MachineKind::HybridIdeal, config()).run(&spec);
        assert!(proposed.traffic.packets(MessageClass::CohProt) > 0);
        assert_eq!(ideal.traffic.packets(MessageClass::CohProt), 0);
        assert!(proposed.filter_hit_ratio.is_some());
        assert!(ideal.filter_hit_ratio.is_none());
        // The proposed protocol can only be slower (or equal), never faster,
        // than the ideal oracle.
        assert!(proposed.execution_time >= ideal.execution_time);
    }

    #[test]
    fn directory_baseline_runs_with_requests_and_no_filters() {
        let spec = small_spec();
        let mut dir_cfg = config();
        dir_cfg.coherence_protocol = CoherenceProtocol::Directory;
        let dir = Machine::new(MachineKind::HybridProposed, dir_cfg).run(&spec);
        let filterdir = Machine::new(MachineKind::HybridProposed, config()).run(&spec);
        // Every guarded access pays a home request under the baseline...
        assert!(dir.protocol.directory_requests >= dir.protocol.guarded_accesses());
        assert!(dir.traffic.packets(MessageClass::CohProt) > 0);
        // ...and there are no filters to hit.
        assert_eq!(dir.protocol.filter_lookups, 0);
        assert!(dir.filter_hit_ratio.is_none());
        assert_eq!(dir.protocol.broadcasts, 0);
        // The paper's protocol never talks to the mapping directory.
        assert_eq!(filterdir.protocol.directory_requests, 0);
        // Functional behaviour is protocol-independent.
        assert_eq!(dir.instructions, filterdir.instructions);
    }

    #[test]
    fn coherence_protocol_knob_only_affects_the_proposed_machine() {
        let spec = small_spec();
        for kind in [MachineKind::CacheOnly, MachineKind::HybridIdeal] {
            let mut dir_cfg = config();
            dir_cfg.coherence_protocol = CoherenceProtocol::Directory;
            let dir = Machine::new(kind, dir_cfg).run(&spec);
            let base = Machine::new(kind, config()).run(&spec);
            assert_eq!(dir.execution_time, base.execution_time, "{kind}");
            assert_eq!(dir.stats, base.stats, "{kind}");
        }
    }

    #[test]
    fn hybrid_has_control_and_sync_phases_cache_based_does_not() {
        let spec = small_spec();
        let hybrid = Machine::new(MachineKind::HybridProposed, config()).run(&spec);
        let cache = Machine::new(MachineKind::CacheOnly, config()).run(&spec);
        assert!(hybrid.phase_cycles[Phase::Control.index()] > Cycle::ZERO);
        assert!(hybrid.phase_fraction(Phase::Work) > 0.3);
        assert_eq!(cache.phase_cycles[Phase::Control.index()], Cycle::ZERO);
        // The cache-based run only leaves the work phase at the kernel-end
        // barrier (load imbalance), so essentially all time is work.
        assert!(cache.phase_fraction(Phase::Work) > 0.9);
    }

    #[test]
    fn discrete_event_noc_runs_all_three_machines() {
        let spec = small_spec();
        let mut des_config = config();
        des_config.set_noc_model(noc::NocModel::DiscreteEvent);
        for kind in MachineKind::ALL {
            let analytic = Machine::new(kind, config()).run(&spec);
            let des = Machine::new(kind, des_config.clone()).run(&spec);
            assert!(des.execution_time > Cycle::ZERO, "{kind}");
            assert!(des.instructions > 0, "{kind}");
            // Both backends execute the same program.  Their traffic may
            // differ: NoC latency feeds back into the order the scheduler
            // steps cores, and so into which accesses hit (on cache-only the
            // analytic run sends 83,244 packets and the DES run 83,141,
            // both for 209,808 instructions).
            assert_eq!(des.instructions, analytic.instructions, "{kind}");
            // The DES backend measures link and home-node pressure.
            assert!(
                des.stats.contains("noc.des.links.max_utilization"),
                "{kind}"
            );
            assert!(des.stats.count("noc.des.packets.delivered") > 0, "{kind}");
            assert!(!analytic.stats.contains("noc.des.links.max_utilization"));
        }
    }

    #[test]
    fn discrete_event_runs_are_deterministic() {
        let spec = small_spec();
        let mut des_config = config();
        des_config.set_noc_model(noc::NocModel::DiscreteEvent);
        let a = Machine::new(MachineKind::HybridProposed, des_config.clone()).run(&spec);
        let b = Machine::new(MachineKind::HybridProposed, des_config).run(&spec);
        assert_eq!(a.execution_time, b.execution_time);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = small_spec();
        let a = Machine::new(MachineKind::HybridProposed, config()).run(&spec);
        let b = Machine::new(MachineKind::HybridProposed, config()).run(&spec);
        assert_eq!(a.execution_time, b.execution_time);
        assert_eq!(a.total_packets(), b.total_packets());
        assert_eq!(a.instructions, b.instructions);
    }

    #[test]
    fn accounted_run_is_exhaustive_and_observable_free() {
        let spec = small_spec();
        for kind in MachineKind::ALL {
            let machine = Machine::new(kind, config());
            let plain = machine.run(&spec);
            let (accounted, breakdown) = machine.run_accounted(&spec);
            // `run_accounted` is `run` plus a copy of its breakdown.
            assert_eq!(plain.to_json(), accounted.to_json(), "{kind}");
            assert_eq!(plain.breakdown, breakdown, "{kind}");
            // Exhaustive: categories sum bit-exactly to elapsed cycles.
            assert_eq!(breakdown.cores.len(), 4, "{kind}");
            breakdown.check_exhaustive().unwrap();
            assert!(breakdown.totals().get(CycleCategory::Compute) > 0, "{kind}");
        }
    }

    #[test]
    fn dma_synch_waits_are_charged_to_park() {
        // The scheduler parks a core on an unfinished `dma-synch` and pays
        // the wait on resume, so it lands in `Park`; `DmaWait` (the inline
        // stall of the removed segment-serialized replay) stays empty.
        let spec = small_spec();
        let machine = Machine::new(MachineKind::HybridProposed, config());
        let breakdown = machine.run(&spec).breakdown;
        breakdown.check_exhaustive().unwrap();
        assert!(breakdown.totals().get(CycleCategory::Park) > 0);
        assert_eq!(breakdown.totals().get(CycleCategory::DmaWait), 0);
    }

    #[test]
    fn no_pipeline_squashes_with_disjoint_data_sets() {
        // The paper reports that filter invalidations and pipeline squashes
        // never happen because guarded accesses never alias SPM data.
        let spec = small_spec();
        let r = Machine::new(MachineKind::HybridProposed, config()).run(&spec);
        assert_eq!(r.stats.count("cpu.flushes"), 0);
        assert_eq!(r.protocol.remote_spm_accesses, 0);
    }

    #[test]
    fn sp_like_kernel_without_guarded_accesses_skips_the_filters() {
        let spec = NasBenchmark::Sp.spec_scaled(1.0 / 8.0);
        let mut small = spec;
        small.kernels.truncate(2);
        for k in &mut small.kernels {
            k.outer_repeats = 1;
        }
        let r = Machine::new(MachineKind::HybridProposed, config()).run(&small);
        assert_eq!(r.protocol.guarded_accesses(), 0);
        assert!(r.filter_hit_ratio.is_none());
    }
}
