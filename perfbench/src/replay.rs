//! The per-layer replay: drives each layer's public entry points with a
//! point's own op streams and times every call batch.
//!
//! The streams are the `OpCursor`s `Machine::run` interprets, seeded the same
//! way.  Cores are visited round-robin, one op each, and every batch of ops
//! passes through the layers in a fixed order — op generation, `spm` (SPM
//! arrays and DMA), `mem` (demand and instruction-fetch accesses),
//! `spm_coherence` (map/unmap/loop-end and guarded accesses, in stream
//! order), then `cpu` (the timing model, fed the latencies the layers
//! returned).  Each layer's time is the sum of its batch spans.  The replay
//! reproduces each layer's work, not the engine's schedule: its hierarchy
//! runs on the analytic NoC so that `noc` is measured on its own.

use std::time::Instant;

use mem::{AccessKind, MemorySystem};
use noc::{MessageClass, Noc, NocModel};
use simkernel::{CoreId, Cycle, CycleCategory, NodeId, SimRng};
use spm::{Dmac, Scratchpad};
use spm_coherence::{CoherenceBackend, DirectoryCoherence, IdealCoherence, SpmCoherenceProtocol};
use system::{CoherenceProtocol, MachineKind};
use workloads::{CompiledBenchmark, CompiledKernel, MemRefClass, OpCursor, TraceOp};

use crate::spans::{SpanId, Spans};
use crate::workload::Point;

/// Ops per timed batch: large enough that reading the clock costs nothing
/// measurable, small enough to keep the batch in cache.
const BATCH_OPS: usize = 16 * 1024;

/// Host time one layer spent, and the work it did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Host seconds inside the layer's calls.
    pub seconds: f64,
    /// Units of work: ops, accesses, DMA lines or guarded accesses.
    pub count: u64,
}

impl LayerTime {
    fn add(&mut self, start: Instant, end: Instant, count: u64) {
        self.seconds += end.duration_since(start).as_secs_f64();
        self.count += count;
    }
}

/// What one replay of a point measured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Replay {
    /// Σ `TraceOp::instruction_count` over every stream.
    pub instructions: u64,
    /// `OpCursor::next_op` (count: ops).
    pub opgen: LayerTime,
    /// Scratchpad array accesses and DMAC commands (count: DMA lines).
    pub spm: LayerTime,
    /// `MemorySystem::access` (count: accesses).
    pub mem: LayerTime,
    /// `CoherenceBackend` calls (count: guarded accesses).
    pub coherence: LayerTime,
    /// `CoreTimingModel` calls (count: ops).
    pub cpu: LayerTime,
}

/// Every structure the layers mutate during one replay.
struct Layers {
    memsys: MemorySystem,
    protocol: Box<dyn CoherenceBackend>,
    spms: Vec<Scratchpad>,
    dmacs: Vec<Dmac>,
    cores: Vec<cpu::CoreTimingModel>,
    /// Instruction fetches the timing model asked for, replayed through
    /// `mem` with the next batch.
    ifetches: Vec<(CoreId, mem::Addr)>,
}

/// Replays every kernel of `compiled` (the point's own compilation) and
/// returns the per-layer host times.  Batch spans are recorded under
/// `parent`.
pub fn replay(
    point: &Point,
    compiled: &CompiledBenchmark,
    spans: &mut Spans,
    parent: SpanId,
) -> Replay {
    let config = &point.config;
    let cores = config.cores;
    let mut memory = config.memory_for(point.kind).clone();
    memory.noc.model = NocModel::Analytic;
    let protocol: Box<dyn CoherenceBackend> = match (point.kind, config.coherence_protocol) {
        (MachineKind::HybridProposed, CoherenceProtocol::FilterDir) => {
            Box::new(SpmCoherenceProtocol::new(config.protocol.clone()))
        }
        (MachineKind::HybridProposed, CoherenceProtocol::Directory) => {
            Box::new(DirectoryCoherence::new(config.protocol.clone()))
        }
        _ => Box::new(IdealCoherence::new(config.protocol.clone())),
    };
    let mut layers = Layers {
        memsys: MemorySystem::new(memory),
        protocol,
        spms: (0..cores).map(|_| Scratchpad::new(config.spm)).collect(),
        dmacs: (0..cores)
            .map(|c| Dmac::new(CoreId::new(c), config.dmac))
            .collect(),
        cores: (0..cores)
            .map(|_| cpu::CoreTimingModel::new(config.core))
            .collect(),
        ifetches: Vec::new(),
    };
    warm_shared_data(compiled, &mut layers.memsys, cores);

    let mut out = Replay::default();
    let mut batch: Vec<(CoreId, TraceOp)> = Vec::with_capacity(BATCH_OPS + cores);
    let mut latency: Vec<Cycle> = Vec::with_capacity(BATCH_OPS + cores);
    for kernel in &compiled.kernels {
        layers.protocol.configure_buffer_size(kernel.buffer_size);
        layers
            .protocol
            .set_filters_gated(!kernel.has_guarded_refs());
        let mut cursors: Vec<OpCursor<'_>> = (0..cores)
            .map(|c| OpCursor::new(kernel, CoreId::new(c), cores, config.trace_seed))
            .collect();
        let mut live: Vec<usize> = (0..cores).collect();
        loop {
            let t0 = Instant::now();
            batch.clear();
            while batch.len() < BATCH_OPS && !live.is_empty() {
                live.retain(|&c| match cursors[c].next_op() {
                    Some(op) => {
                        batch.push((CoreId::new(c), op));
                        true
                    }
                    None => false,
                });
            }
            let t1 = Instant::now();
            if batch.is_empty() {
                break;
            }
            out.opgen.add(t0, t1, batch.len() as u64);
            spans.push("workloads.opgen", Some(parent), t0, t1, batch.len() as u64);
            out.instructions += batch
                .iter()
                .map(|(_, op)| op.instruction_count())
                .sum::<u64>();
            latency.clear();
            latency.resize(batch.len(), Cycle::ZERO);
            layers.run_batch(kernel, &batch, &mut latency, &mut out, spans, parent);
        }
        layers.flush_ifetches(&mut out, spans, parent);
        // Kernel barrier, as the engine applies it (untimed).
        let barrier = layers
            .cores
            .iter()
            .map(|c| c.now())
            .max()
            .unwrap_or(Cycle::ZERO);
        for core in &mut layers.cores {
            core.drain_memory();
            core.idle_until(barrier);
        }
    }
    out.spm.count = layers.dmacs.iter().map(Dmac::lines_transferred).sum();
    out
}

impl Layers {
    fn run_batch(
        &mut self,
        kernel: &CompiledKernel,
        batch: &[(CoreId, TraceOp)],
        latency: &mut [Cycle],
        out: &mut Replay,
        spans: &mut Spans,
        parent: SpanId,
    ) {
        // spm: scratchpad arrays and the DMA engines.
        let t = Instant::now();
        let mut commands = 0;
        for (i, (core, op)) in batch.iter().enumerate() {
            let c = core.index();
            match op {
                TraceOp::Load {
                    class: MemRefClass::SpmStrided { .. },
                    ..
                } => {
                    latency[i] = self.spms[c].read_local();
                }
                TraceOp::Store {
                    class: MemRefClass::SpmStrided { .. },
                    ..
                } => {
                    latency[i] = self.spms[c].write_local();
                }
                TraceOp::AllocateBuffers { count } => {
                    let _ = self.spms[c].allocate_buffers(*count);
                }
                TraceOp::DmaGet { tag, chunk, .. } => {
                    let now = self.cores[c].now();
                    self.dmacs[c].dma_get(*tag, *chunk, now, &mut self.memsys, None);
                    self.spms[c].record_dma_fill(chunk.len());
                    commands += 1;
                }
                TraceOp::DmaPut { tag, chunk, .. } => {
                    let now = self.cores[c].now();
                    self.dmacs[c].dma_put(*tag, *chunk, now, &mut self.memsys, None);
                    self.spms[c].record_dma_drain(chunk.len());
                    commands += 1;
                }
                TraceOp::DmaSync { tags } => {
                    latency[i] = self.dmacs[c].dma_synch(tags, self.cores[c].now());
                }
                _ => {}
            }
        }
        let end = Instant::now();
        out.spm.add(t, end, 0);
        spans.push("spm", Some(parent), t, end, commands);

        // mem: the previous batch's instruction fetches, then demand accesses.
        let t = Instant::now();
        let mut accesses = self.replay_ifetches();
        for (i, (core, op)) in batch.iter().enumerate() {
            if let TraceOp::Load {
                addr,
                class,
                reference_id,
            }
            | TraceOp::Store {
                addr,
                class,
                reference_id,
            } = op
            {
                if matches!(
                    class,
                    MemRefClass::Gm | MemRefClass::GmStrided | MemRefClass::Stack
                ) {
                    let (kind, msg) = match op {
                        TraceOp::Store { .. } => (AccessKind::Store, MessageClass::Write),
                        _ => (AccessKind::Load, MessageClass::Read),
                    };
                    latency[i] = self
                        .memsys
                        .access(*core, *addr, kind, msg, *reference_id)
                        .latency;
                    accesses += 1;
                }
            }
        }
        let end = Instant::now();
        out.mem.add(t, end, accesses);
        spans.push("mem", Some(parent), t, end, accesses);

        // spm_coherence: every protocol hook, in stream order.
        let t = Instant::now();
        let mut guarded = 0;
        for (i, (core, op)) in batch.iter().enumerate() {
            match op {
                TraceOp::DmaGet { buffer, chunk, .. } => {
                    let _ = self
                        .protocol
                        .on_map(*core, *buffer, *chunk, &mut self.memsys);
                }
                TraceOp::DmaPut { buffer, .. } => {
                    let _ = self.protocol.on_unmap(*core, *buffer);
                }
                TraceOp::LoopEnd => self.protocol.on_loop_end(*core),
                TraceOp::Load {
                    addr,
                    class: MemRefClass::Guarded,
                    ..
                }
                | TraceOp::Store {
                    addr,
                    class: MemRefClass::Guarded,
                    ..
                } => {
                    let is_store = matches!(op, TraceOp::Store { .. });
                    latency[i] = self
                        .protocol
                        .guarded_access(*core, *addr, is_store, &mut self.memsys, &mut self.spms)
                        .latency;
                    guarded += 1;
                }
                _ => {}
            }
        }
        let end = Instant::now();
        out.coherence.add(t, end, guarded);
        spans.push("spm_coherence", Some(parent), t, end, guarded);

        // cpu: the timing model and LSQ, fed the latencies above.
        let t = Instant::now();
        for (i, (core, op)) in batch.iter().enumerate() {
            let model = &mut self.cores[core.index()];
            match op {
                TraceOp::Compute { insts } => model.execute_compute(*insts),
                TraceOp::SetPhase(phase) => {
                    if *phase != workloads::Phase::Work {
                        model.drain_memory();
                    }
                    model.set_phase(*phase);
                }
                TraceOp::LoopEnd => model.drain_memory(),
                TraceOp::DmaSync { .. } => model.stall_until(latency[i], CycleCategory::DmaWait),
                TraceOp::Load { addr, class, .. } | TraceOp::Store { addr, class, .. } => {
                    let is_store = matches!(op, TraceOp::Store { .. });
                    let dependent = matches!(class, MemRefClass::Gm | MemRefClass::Guarded);
                    model.issue_memory_access(latency[i], dependent);
                    model.record_in_lsq_valued(*addr, is_store, None);
                }
                TraceOp::AllocateBuffers { .. }
                | TraceOp::DmaGet { .. }
                | TraceOp::DmaPut { .. } => {}
            }
            while let Some(fetch) = model.next_due_ifetch(kernel.code_base, kernel.code_size) {
                self.ifetches.push((*core, fetch));
            }
        }
        let end = Instant::now();
        out.cpu.add(t, end, batch.len() as u64);
        spans.push("cpu", Some(parent), t, end, batch.len() as u64);
    }

    /// Sends the queued instruction fetches through the hierarchy.
    fn replay_ifetches(&mut self) -> u64 {
        let n = self.ifetches.len() as u64;
        for (core, addr) in self.ifetches.drain(..) {
            let _ = self
                .memsys
                .access(core, addr, AccessKind::Ifetch, MessageClass::Ifetch, 0);
        }
        n
    }

    /// Replays the fetches left over at the end of a kernel.
    fn flush_ifetches(&mut self, out: &mut Replay, spans: &mut Spans, parent: SpanId) {
        let t = Instant::now();
        let n = self.replay_ifetches();
        let end = Instant::now();
        out.mem.add(t, end, n);
        spans.push("mem", Some(parent), t, end, n);
    }
}

/// Touches the shared data and code of every kernel round-robin over the
/// cores, as `Machine::run` does before the timed kernels.
fn warm_shared_data(compiled: &CompiledBenchmark, memsys: &mut MemorySystem, cores: usize) {
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

/// The synthetic stream's packet mix — control requests, data responses and
/// write-backs — the same split `noc::run_synthetic` uses.
const NOC_MIX: [(f64, MessageClass, u64); 3] = [
    (0.45, MessageClass::Read, 8),
    (0.40, MessageClass::Read, 64),
    (0.15, MessageClass::WbRepl, 64),
];

/// Times `packets` packets of seeded uniform-random traffic at `rate`
/// packets per node per cycle through the point's own NoC model, sent one at
/// a time with `Noc::advance_to` + `Noc::send` in time order — the calls the
/// memory system makes during a run.  Generating the stream is not timed.
pub fn replay_noc(
    point: &Point,
    rate: f64,
    packets: u64,
    spans: &mut Spans,
    parent: SpanId,
) -> LayerTime {
    let mut noc = Noc::new(point.config.memory_for(point.kind).noc);
    let nodes = noc.topology().nodes();
    let mut out = LayerTime::default();
    let rate = rate.min(1.0);
    if rate <= 0.0 || packets == 0 || nodes < 2 {
        return out;
    }
    let duration = (packets as f64 / (rate * nodes as f64)).ceil() as u64;
    let mut base = SimRng::seed_from_u64(point.config.trace_seed);
    let mut stream: Vec<(Cycle, NodeId, NodeId, MessageClass, u64)> = Vec::new();
    for node in 0..nodes {
        let mut rng = base.fork(node as u64);
        let mut t = 0u64;
        loop {
            // Geometric gaps realise the per-cycle Bernoulli rate.
            let gap = if rate >= 1.0 {
                1
            } else {
                1 + (rng.next_f64().ln() / (1.0 - rate).ln()).floor() as u64
            };
            t = t.saturating_add(gap);
            if t >= duration {
                break;
            }
            let pick = rng.next_below(nodes as u64 - 1) as usize;
            let to = if pick >= node { pick + 1 } else { pick };
            let u = rng.next_f64();
            let mut acc = 0.0;
            let &(_, class, bytes) = NOC_MIX
                .iter()
                .find(|(share, _, _)| {
                    acc += share;
                    u < acc
                })
                .unwrap_or(&NOC_MIX[NOC_MIX.len() - 1]);
            stream.push((
                Cycle::new(t),
                NodeId::new(node),
                NodeId::new(to),
                class,
                bytes,
            ));
        }
    }
    stream.sort_by_key(|p| p.0);
    for batch in stream.chunks(BATCH_OPS) {
        let t = Instant::now();
        for &(at, from, to, class, bytes) in batch {
            noc.advance_to(at);
            let _ = noc.send(from, to, class, bytes);
        }
        let end = Instant::now();
        out.add(t, end, batch.len() as u64);
        spans.push("noc", Some(parent), t, end, batch.len() as u64);
    }
    out
}
