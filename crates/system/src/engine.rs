//! The execution engine: how cores are driven through a kernel.
//!
//! [`run_kernel`] is a min-clock scheduler over a
//! [`simkernel::EventQueue`]: each core is a resumable op stream, and the
//! scheduler always steps the core with the earliest local clock, parking
//! cores on `dma-synch` waits and waking them from the queue.  Because the
//! stepped core is the earliest one, its local clock *is* the global
//! simulation clock, and the shared L2, the coherence protocol and the NoC
//! observe traffic in simulated-time order — the order a real machine would
//! produce.  Every op goes through the one per-op interpreter, [`step_op`].
//!
//! A kernel is either a *compiled* NAS-like kernel (op streams produced by
//! [`workloads::OpCursor`]) or a *raw* kernel ([`workloads::RawKernel`])
//! whose per-core rounds are explicit — the representation the verification
//! harness's litmus and fuzz programs use.  A raw kernel's rounds are
//! flattened into one stream per core and scheduled like any other.
//!
//! When [`KernelCtx::values`] is attached (`SystemConfig.track_values`),
//! [`step_op`] additionally moves *data values* along the path every access
//! took — SPM, remote SPM, or the cache hierarchy — and, if the oracle is
//! armed, checks every observed load and staged DMA word against the flat
//! reference memory (see [`crate::verify`]).

use simkernel::trace::{TraceKind, Tracer};
use simkernel::{ByteSize, CoreId, Cycle, CycleCategory, EventQueue};

use cpu::CoreTimingModel;
use mem::{AccessKind, Addr, MemorySystem};
use noc::MessageClass;
use spm::{Dmac, Scratchpad};
use spm_coherence::{CoherenceBackend, GuardedTarget};
use workloads::{CompiledKernel, MemRefClass, OpCursor, Phase, RawKernel, Segment, TraceOp};

use crate::verify::ValueTracking;

/// The kernel being executed: compiled trace generator or raw rounds.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ProgramRef<'a> {
    /// A compiled NAS-like kernel.
    Compiled(&'a CompiledKernel),
    /// A raw per-core round program (litmus / fuzz).
    Raw(&'a RawKernel),
}

impl<'a> ProgramRef<'a> {
    pub(crate) fn name(&self) -> &'a str {
        match self {
            ProgramRef::Compiled(k) => &k.name,
            ProgramRef::Raw(r) => &r.name,
        }
    }

    pub(crate) fn code_base(&self) -> Addr {
        match self {
            ProgramRef::Compiled(k) => k.code_base,
            ProgramRef::Raw(r) => r.code_base,
        }
    }

    pub(crate) fn code_size(&self) -> u64 {
        match self {
            ProgramRef::Compiled(k) => k.code_size,
            ProgramRef::Raw(r) => r.code_size,
        }
    }

    pub(crate) fn buffer_size(&self) -> ByteSize {
        match self {
            ProgramRef::Compiled(k) => k.buffer_size,
            ProgramRef::Raw(r) => r.buffer_size,
        }
    }

    pub(crate) fn has_guarded_refs(&self) -> bool {
        match self {
            ProgramRef::Compiled(k) => k.has_guarded_refs(),
            ProgramRef::Raw(r) => r.guarded,
        }
    }

    /// The per-core op stream of `core`.
    fn stream(&self, core: CoreId, cores: usize, seed: u64) -> OpStream<'a> {
        match self {
            ProgramRef::Compiled(k) => OpStream::Compiled(OpCursor::new(k, core, cores, seed)),
            ProgramRef::Raw(r) => OpStream::Raw {
                rounds: &r.rounds[core.index()],
                round: 0,
                idx: 0,
            },
        }
    }
}

/// A resumable per-core op stream over either program kind.
#[derive(Debug)]
enum OpStream<'a> {
    Compiled(OpCursor<'a>),
    Raw {
        rounds: &'a [Vec<TraceOp>],
        round: usize,
        idx: usize,
    },
}

impl OpStream<'_> {
    /// The segment the next op comes from (compiled kernels only; a raw
    /// kernel's rounds carry no segment structure).
    fn segment(&self) -> Option<Segment> {
        match self {
            OpStream::Compiled(cursor) => Some(cursor.segment()),
            OpStream::Raw { .. } => None,
        }
    }

    fn next_op(&mut self) -> Option<TraceOp> {
        match self {
            OpStream::Compiled(cursor) => cursor.next_op(),
            OpStream::Raw { rounds, round, idx } => loop {
                let ops = rounds.get(*round)?;
                if let Some(op) = ops.get(*idx) {
                    *idx += 1;
                    return Some(op.clone());
                }
                *round += 1;
                *idx = 0;
            },
        }
    }
}

/// Everything one kernel's execution mutates, bundled so the scheduler and
/// the per-op interpreter share one signature.
pub(crate) struct KernelCtx<'a> {
    /// The kernel being executed.
    pub program: ProgramRef<'a>,
    /// The shared cache hierarchy + NoC.
    pub memsys: &'a mut MemorySystem,
    /// The coherence support (proposed protocol or ideal oracle).
    pub protocol: &'a mut dyn CoherenceBackend,
    /// Per-core scratchpads.
    pub spms: &'a mut [Scratchpad],
    /// Per-core DMA controllers.
    pub dmacs: &'a mut [Dmac],
    /// Per-core timing models.
    pub cores: &'a mut [CoreTimingModel],
    /// Whether the NoC backend has a clock to keep in step with the issuing
    /// core (true only for the discrete-event model).
    pub track_noc_clock: bool,
    /// Functional-memory state (+ optional oracle), when values are tracked.
    pub values: Option<&'a mut ValueTracking>,
    /// Structured event tracer (`SystemConfig.trace` / `--trace`).
    ///
    /// Strictly an observer, like `values`: a `None` tracer costs the hot
    /// loop one discriminant check, and an attached one never touches
    /// simulated time or any statistic.
    pub tracer: Option<&'a mut Tracer>,
    /// Reused buffer for the sampler's per-home queue-depth snapshot, so
    /// the periodic stat sampling allocates nothing per sample.
    pub depth_scratch: Vec<u64>,
}

/// The result of interpreting one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// The op completed; the core can take its next op.
    Ran,
    /// The op left the core waiting for an event at `wake` (a `dma-synch`
    /// on an unfinished transfer).  The op itself is consumed; the deferred
    /// stall is paid by [`CoreTimingModel::resume`].
    Parked {
        /// Cycle at which the core may continue.
        wake: Cycle,
    },
}

/// Interprets one trace op on one core: issues its memory traffic, charges
/// its timing, performs the implied instruction fetches and, with value
/// tracking on, moves the data values the op carries.
///
/// This is the simulator's hottest loop body.
pub(crate) fn step_op(op: &TraceOp, core_id: CoreId, ctx: &mut KernelCtx<'_>) -> StepOutcome {
    let c = core_id.index();
    if ctx.track_noc_clock {
        // Queue this core's packets in simulation time.  The stepped core
        // is the earliest one, so this is the global scheduler clock and
        // never runs backwards.
        ctx.memsys.advance_noc(ctx.cores[c].now());
    }
    if let Some(vt) = ctx.values.as_deref_mut() {
        vt.begin_op();
    }
    let mut outcome = StepOutcome::Ran;
    match op {
        TraceOp::Compute { insts } => ctx.cores[c].execute_compute(*insts),
        TraceOp::SetPhase(phase) => {
            if *phase != Phase::Work {
                ctx.cores[c].drain_memory();
            }
            ctx.cores[c].set_phase(*phase);
        }
        TraceOp::AllocateBuffers { count } => {
            let _ = ctx.spms[c].allocate_buffers(*count);
        }
        TraceOp::DmaGet { tag, buffer, chunk } => {
            let now = ctx.cores[c].now();
            let spm_values = ctx.values.as_deref_mut().map(|vt| vt.spm_store_raw(c));
            let completion = ctx.dmacs[c].dma_get(*tag, *chunk, now, ctx.memsys, spm_values);
            ctx.spms[c].record_dma_fill(chunk.len());
            let _ = ctx.protocol.on_map(core_id, *buffer, *chunk, ctx.memsys);
            if let Some(vt) = ctx.values.as_deref_mut() {
                // Registers the mapping and checks every staged word — the
                // DMA read is a read of global memory.
                vt.note_get(c, *buffer, *chunk, &*ctx.protocol);
            }
            if let Some(tr) = ctx.tracer.as_deref_mut() {
                let at = now.as_u64();
                tr.record(c, at, TraceKind::DmaGet, [completion.as_u64(), chunk.len()]);
                tr.record(c, at, TraceKind::Map, [*buffer as u64, chunk.start().raw()]);
            }
        }
        TraceOp::DmaPut { tag, buffer, chunk } => {
            let now = ctx.cores[c].now();
            let spm_values = ctx.values.as_deref_mut().map(|vt| vt.spm_store_raw(c));
            let completion = ctx.dmacs[c].dma_put(*tag, *chunk, now, ctx.memsys, spm_values);
            ctx.spms[c].record_dma_drain(chunk.len());
            let _ = ctx.protocol.on_unmap(core_id, *buffer);
            if let Some(vt) = ctx.values.as_deref_mut() {
                vt.note_put(c, *buffer, *chunk);
            }
            if let Some(tr) = ctx.tracer.as_deref_mut() {
                let at = now.as_u64();
                tr.record(c, at, TraceKind::DmaPut, [completion.as_u64(), chunk.len()]);
                tr.record(
                    c,
                    at,
                    TraceKind::Unmap,
                    [*buffer as u64, chunk.start().raw()],
                );
            }
        }
        TraceOp::DmaSync { tags } => {
            let now = ctx.cores[c].now();
            let done = ctx.dmacs[c].dma_synch(tags, now);
            if let Some(tr) = ctx.tracer.as_deref_mut() {
                tr.record(
                    c,
                    now.as_u64(),
                    TraceKind::DmaSync,
                    [done.as_u64(), tags.len() as u64],
                );
            }
            if done > now {
                // The transfer completion is a scheduled event: the core
                // parks and another core may run in the meantime.  The
                // stall to `done` is charged (to `Park`) on resume.
                outcome = StepOutcome::Parked { wake: done };
            }
        }
        TraceOp::LoopEnd => {
            ctx.protocol.on_loop_end(core_id);
            ctx.cores[c].drain_memory();
            if let Some(vt) = ctx.values.as_deref_mut() {
                vt.note_loop_end(c);
            }
            if let Some(tr) = ctx.tracer.as_deref_mut() {
                tr.record(c, ctx.cores[c].now().as_u64(), TraceKind::LoopEnd, [0, 0]);
            }
        }
        TraceOp::Load {
            addr,
            class,
            reference_id,
        }
        | TraceOp::Store {
            addr,
            class,
            reference_id,
        } => {
            let is_store = matches!(op, TraceOp::Store { .. });
            match class {
                MemRefClass::SpmStrided { buffer } => {
                    let latency = if is_store {
                        ctx.spms[c].write_local()
                    } else {
                        ctx.spms[c].read_local()
                    };
                    ctx.cores[c].issue_memory_access(latency, false);
                    let mut value = None;
                    if ctx.values.is_some() {
                        if is_store {
                            let v = ctx.cores[c].next_store_value(c, *addr);
                            let vt = ctx.values.as_deref_mut().expect("checked above");
                            if vt.spm_store(c, *buffer, *addr, v) {
                                value = Some(v);
                            }
                        } else {
                            let vt = ctx.values.as_deref_mut().expect("checked above");
                            value = vt.spm_load(c, c, *buffer, *addr, "load(spm)", &*ctx.protocol);
                        }
                    }
                    ctx.cores[c].record_in_lsq_valued(*addr, is_store, value);
                }
                MemRefClass::Guarded => {
                    let outcome = ctx
                        .protocol
                        .guarded_access(core_id, *addr, is_store, ctx.memsys, ctx.spms);
                    // Guarded refs stall on the protocol's routing decision:
                    // their visible wait is `Protocol`, minus whatever NoC
                    // queueing the underlying legs measured.
                    let queue = ctx.memsys.take_attributed_queue();
                    ctx.cores[c].issue_memory_access_classified(
                        outcome.latency,
                        true,
                        CycleCategory::Protocol,
                        queue,
                    );
                    if let Some(tr) = ctx.tracer.as_deref_mut() {
                        let kind = match outcome.target {
                            GuardedTarget::GlobalMemory { .. } => TraceKind::GuardedGm,
                            GuardedTarget::LocalSpm { .. } => TraceKind::GuardedLocalSpm,
                            GuardedTarget::RemoteSpm { .. } => TraceKind::GuardedRemoteSpm,
                        };
                        tr.record(
                            c,
                            ctx.cores[c].now().as_u64(),
                            kind,
                            [addr.raw(), outcome.latency.as_u64()],
                        );
                    }
                    let mut value = None;
                    if ctx.values.is_some() {
                        let v_new = is_store.then(|| ctx.cores[c].next_store_value(c, *addr));
                        value = route_guarded_value(
                            core_id,
                            *addr,
                            v_new,
                            &outcome.target,
                            outcome.gm_write_through,
                            ctx,
                        );
                    }
                    ctx.cores[c].record_in_lsq_valued(*addr, is_store, value);
                    if outcome.diverted_to_spm() {
                        // §3.4: the LSQ re-checks ordering against the
                        // data's original (GM) address, flushing on a
                        // violation.
                        let _ = ctx.cores[c].recheck_ordering(*addr, is_store);
                    }
                }
                MemRefClass::Gm | MemRefClass::GmStrided | MemRefClass::Stack => {
                    let kind = if is_store {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    let msg_class = if is_store {
                        MessageClass::Write
                    } else {
                        MessageClass::Read
                    };
                    let result = ctx
                        .memsys
                        .access(core_id, *addr, kind, msg_class, *reference_id);
                    // Random (pointer-like) accesses feed dependent
                    // work; strided and stack accesses are
                    // independent and overlap under the MLP window.
                    let dependent = matches!(class, MemRefClass::Gm);
                    let queue = ctx.memsys.take_attributed_queue();
                    ctx.cores[c].issue_memory_access_classified(
                        result.latency,
                        dependent,
                        CycleCategory::MissWait,
                        queue,
                    );
                    let mut value = None;
                    if ctx.values.is_some() {
                        if is_store {
                            let v = ctx.cores[c].next_store_value(c, *addr);
                            ctx.memsys.write_word(core_id, *addr, v);
                            let vt = ctx.values.as_deref_mut().expect("checked above");
                            vt.oracle_store(*addr, v);
                            value = Some(v);
                        } else {
                            let observed = ctx.memsys.read_word(core_id, *addr).unwrap_or(0);
                            let vt = ctx.values.as_deref_mut().expect("checked above");
                            vt.check_load(c, *addr, observed, "load(gm)", &*ctx.protocol);
                            value = Some(observed);
                        }
                    }
                    ctx.cores[c].record_in_lsq_valued(*addr, is_store, value);
                }
            }
        }
    }

    drain_due_ifetches(core_id, ctx);
    op_epilogue(core_id, ctx);
    outcome
}

/// Performs the instruction fetches implied by the instructions executed so
/// far, drained one at a time so the common no-fetch case costs one branch.
fn drain_due_ifetches(core_id: CoreId, ctx: &mut KernelCtx<'_>) {
    let c = core_id.index();
    let (code_base, code_size) = (ctx.program.code_base(), ctx.program.code_size());
    while let Some(fetch) = ctx.cores[c].next_due_ifetch(code_base, code_size) {
        let result = ctx
            .memsys
            .access(core_id, fetch, AccessKind::Ifetch, MessageClass::Ifetch, 0);
        ctx.cores[c].apply_ifetch(result.latency, result.l1_hit);
    }
}

/// The per-op epilogue: drops the ifetches' queue residue and samples the
/// tracer's stat time-series.
fn op_epilogue(core_id: CoreId, ctx: &mut KernelCtx<'_>) {
    let c = core_id.index();
    // Fetch misses are charged wholesale to `IFetch`; drop their queue
    // component so it cannot leak into the next data access's split.
    let _ = ctx.memsys.take_attributed_queue();

    // Periodic stat sampling, keyed off the stepping core's clock (which is
    // global simulation time).
    if let Some(tr) = ctx.tracer.as_deref_mut() {
        let now = ctx.cores[c].now();
        if tr.sample_due(now.as_u64()) {
            sample_stats(
                tr,
                ctx.memsys,
                ctx.dmacs,
                ctx.cores,
                now,
                &mut ctx.depth_scratch,
            );
        }
    }
}

/// Snapshots the live counters into the tracer's time-series: `mem.*`
/// hierarchy counter deltas, per-home-node instantaneous queue depth and
/// per-link busy-cycle deltas from the discrete-event NoC, DMA in-flight
/// counts and the machine-wide `cycles.*` category totals (so attribution
/// renders as counter tracks on the trace timelines).
///
/// Reads only `&self` state — sampling can never perturb the simulation.
/// `depth_scratch` is a caller-owned buffer reused across samples so the
/// queue-depth snapshot allocates nothing on the hot path.
pub(crate) fn sample_stats(
    tracer: &mut Tracer,
    memsys: &MemorySystem,
    dmacs: &[Dmac],
    cores: &[CoreTimingModel],
    now: Cycle,
    depth_scratch: &mut Vec<u64>,
) {
    let mut sample = tracer.begin_sample(now.as_u64());
    for (name, value) in memsys.counters().named() {
        sample.counter(name, value as f64);
    }
    sample.gauge(
        "dmac.in_flight",
        dmacs.iter().map(|d| d.in_flight_at(now)).sum::<usize>() as f64,
    );
    for category in CycleCategory::ALL {
        let total: u64 = cores.iter().map(|c| c.cycle_account().get(category)).sum();
        sample.counter(&format!("cycles.{}", category.id()), total as f64);
    }
    if let Some(des) = memsys.noc().des() {
        des.home_queue_depths(now, depth_scratch);
        for (node, &depth) in depth_scratch.iter().enumerate() {
            sample.gauge(&format!("noc.des.home_queue.{node}"), depth as f64);
        }
        for (link, busy) in des.link_busy_cycles().into_iter().enumerate() {
            sample.counter(&format!("noc.des.link_busy.{link}"), busy as f64);
        }
        sample.counter("noc.des.packets.delivered", des.delivered() as f64);
    }
}

/// Moves (and checks) the value of one guarded access along the path the
/// protocol chose for it.  Returns the value carried into the LSQ, `None`
/// when the access fell outside the modeled contract.
fn route_guarded_value(
    core_id: CoreId,
    addr: Addr,
    store_value: Option<u64>,
    target: &GuardedTarget,
    gm_write_through: bool,
    ctx: &mut KernelCtx<'_>,
) -> Option<u64> {
    let c = core_id.index();
    match *target {
        GuardedTarget::GlobalMemory { .. } => {
            if let Some(v) = store_value {
                ctx.memsys.write_word(core_id, addr, v);
                let vt = ctx.values.as_deref_mut().expect("values on");
                vt.oracle_store(addr, v);
                Some(v)
            } else {
                let observed = ctx.memsys.read_word(core_id, addr).unwrap_or(0);
                let vt = ctx.values.as_deref_mut().expect("values on");
                vt.check_load(c, addr, observed, "guarded-load(gm)", &*ctx.protocol);
                Some(observed)
            }
        }
        GuardedTarget::LocalSpm { buffer } => {
            if let Some(v) = store_value {
                let vt = ctx.values.as_deref_mut().expect("values on");
                let modeled = vt.spm_store(c, buffer, addr, v);
                if modeled && gm_write_through {
                    // The proposed protocol also updates the GM copy
                    // through the L1 (the buffer may never be written
                    // back); mirror that data movement.
                    ctx.memsys.write_word(core_id, addr, v);
                }
                modeled.then_some(v)
            } else {
                let vt = ctx.values.as_deref_mut().expect("values on");
                vt.spm_load(c, c, buffer, addr, "guarded-load(spm)", &*ctx.protocol)
            }
        }
        GuardedTarget::RemoteSpm { owner } => {
            let vt = ctx.values.as_deref_mut().expect("values on");
            if let Some(v) = store_value {
                vt.remote_spm_store(owner.index(), addr, v).then_some(v)
            } else {
                vt.remote_spm_load(c, owner.index(), addr, &*ctx.protocol)
            }
        }
    }
}

/// Records a segment-boundary event on `core`'s track at its current clock.
fn segment_begin(ctx: &mut KernelCtx<'_>, core: usize, segment: Segment) {
    if let Some(tr) = ctx.tracer.as_deref_mut() {
        tr.record(
            core,
            ctx.cores[core].now().as_u64(),
            TraceKind::SegmentBegin,
            [segment.code(), segment.tile_index().unwrap_or(0)],
        );
    }
}

/// Runs one kernel under the cycle-interleaved min-clock scheduler.
///
/// Each core is a streaming [`OpStream`]; the scheduler keeps one event per
/// live core in a [`EventQueue`], keyed by the cycle the core can next run
/// (its local clock, or its `dma-synch` wake time while parked).  Popping
/// the queue therefore always selects the earliest core; it executes ops
/// until its clock passes the next pending event, then yields.  The
/// insertion-order FIFO tie-break of the queue makes the whole interleaving
/// deterministic.
pub(crate) fn run_kernel(ctx: &mut KernelCtx<'_>, trace_seed: u64) {
    let cores = ctx.cores.len();
    let program = ctx.program;
    let mut cursors: Vec<OpStream<'_>> = (0..cores)
        .map(|i| program.stream(CoreId::new(i), cores, trace_seed))
        .collect();

    let mut queue: EventQueue<usize> = EventQueue::with_capacity(cores);
    for c in 0..cores {
        queue.schedule(ctx.cores[c].now(), c);
    }

    // Global simulation time: events pop in non-decreasing cycle order
    // because every event scheduled below fires at or after the pop that
    // scheduled it (a yield fires at the core's advanced clock, a wake at a
    // completion in the future).
    // Last segment each core was seen in, for boundary events (compiled
    // kernels only — raw rounds carry no segment structure).
    let mut segments: Vec<Option<Segment>> = vec![None; cores];

    let mut global = Cycle::ZERO;
    while let Some((when, c)) = queue.pop() {
        debug_assert!(when >= global, "scheduler time ran backwards");
        global = global.max(when);
        if ctx.cores[c].is_parked() {
            debug_assert!(ctx.cores[c].runnable_at() <= when, "core woke early");
            ctx.cores[c].resume();
            if let Some(tr) = ctx.tracer.as_deref_mut() {
                tr.record(c, when.as_u64(), TraceKind::Resume, [when.as_u64(), 0]);
            }
        }
        // A core that streams its last op simply leaves the scheduler and
        // waits at the kernel barrier (applied by the caller).
        while let Some(op) = cursors[c].next_op() {
            if ctx.tracer.is_some() {
                let segment = cursors[c].segment();
                if segment != segments[c] {
                    segments[c] = segment;
                    if let Some(s) = segment {
                        segment_begin(ctx, c, s);
                    }
                }
            }
            match step_op(&op, CoreId::new(c), ctx) {
                StepOutcome::Parked { wake } => {
                    ctx.cores[c].park_until(wake);
                    queue.schedule(wake, c);
                    if let Some(tr) = ctx.tracer.as_deref_mut() {
                        tr.record(
                            c,
                            ctx.cores[c].now().as_u64(),
                            TraceKind::Park,
                            [wake.as_u64(), 0],
                        );
                    }
                    break;
                }
                StepOutcome::Ran => {
                    if let Some(next) = queue.peek_time() {
                        if ctx.cores[c].now() > next {
                            // Another core is now the earliest: yield.
                            queue.schedule(ctx.cores[c].now(), c);
                            break;
                        }
                    }
                }
            }
        }
    }
}
