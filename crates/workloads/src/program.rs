//! The runtime-library / trace-generation model.
//!
//! [`OpCursor`] plays the role of one thread executing one compiled kernel:
//! it streams, one loop iteration at a time, the [`TraceOp`]s that the core
//! timing model executes.  In hybrid mode each tile follows the
//! transformed structure of the paper's Figure 3 — a control phase that maps
//! the next chunks with `dma-get` (writing back the previous ones with
//! `dma-put` where needed), a synchronization phase that waits on the
//! transfers, and a work phase that computes over the staged chunks — while
//! in cache-only mode the original untiled loop body is produced.

use simkernel::{CoreId, SimRng};

use mem::{Addr, AddressRange};

use crate::compiler::{stack_base, CompiledKernel, CompiledRandomRef, ExecMode};
use crate::trace::{MemRefClass, Phase, TraceOp};

/// Instructions executed by a `MAP` call whose chunk is already mapped (a
/// software-cache lookup hit: no transfer is programmed).
const MAP_HIT_INSTS: u64 = 12;

/// One core's execution of one compiled kernel, emitted a piece at a time
/// (prologue, tile head, loop iteration, epilogue); [`OpCursor`] streams it.
#[derive(Debug)]
pub(crate) struct KernelExecution<'a> {
    kernel: &'a CompiledKernel,
    core: CoreId,
    rng: SimRng,
    /// Fractional-access accumulators, one per random reference.
    random_accumulators: Vec<f64>,
    /// Fractional-access accumulator for stack traffic.
    stack_accumulator: f64,
}

impl<'a> KernelExecution<'a> {
    /// Creates the execution of `kernel` on `core` of a `cores`-core machine.
    ///
    /// `seed` makes the random-reference address streams reproducible; the
    /// same `(seed, core)` pair always produces the same trace.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside the machine.
    pub fn new(kernel: &'a CompiledKernel, core: CoreId, cores: usize, seed: u64) -> Self {
        assert!(
            core.index() < cores,
            "core {core} outside a {cores}-core machine"
        );
        let mut root = SimRng::seed_from_u64(seed ^ kernel_seed(kernel));
        let rng = root.fork(core.index() as u64);
        KernelExecution {
            random_accumulators: vec![0.0; kernel.random_refs.len()],
            stack_accumulator: 0.0,
            kernel,
            core,
            rng,
        }
    }

    /// The kernel being executed.
    pub fn kernel(&self) -> &CompiledKernel {
        self.kernel
    }

    /// Total number of tiles this core executes.
    pub fn num_tiles(&self) -> u64 {
        self.kernel.total_tiles_per_core()
    }

    /// Emits the operations executed once before the loop (buffer
    /// allocation).
    fn emit_prologue(&self, ops: &mut Vec<TraceOp>) {
        match self.kernel.mode {
            ExecMode::Hybrid => ops.extend([
                TraceOp::SetPhase(Phase::Control),
                TraceOp::Compute { insts: 120 },
                TraceOp::AllocateBuffers {
                    count: self.kernel.buffer_count(),
                },
            ]),
            ExecMode::CacheOnly => ops.push(TraceOp::SetPhase(Phase::Work)),
        }
    }

    /// Emits the operations executed once after the loop (final
    /// write-backs).
    fn emit_epilogue(&self, ops: &mut Vec<TraceOp>) {
        if self.kernel.mode == ExecMode::Hybrid {
            ops.push(TraceOp::SetPhase(Phase::Control));
            let last_tile = self.kernel.tiles_per_traversal.saturating_sub(1);
            let mut tags = Vec::new();
            for r in &self.kernel.spm_refs {
                if r.written {
                    let chunk = self.chunk_of(r.buffer, last_tile);
                    ops.push(TraceOp::Compute {
                        insts: self.kernel.control_insts_per_map,
                    });
                    ops.push(TraceOp::DmaPut {
                        tag: r.buffer as u32,
                        buffer: r.buffer,
                        chunk,
                    });
                    tags.push(r.buffer as u32);
                }
            }
            if !tags.is_empty() {
                ops.push(TraceOp::SetPhase(Phase::Sync));
                ops.push(TraceOp::DmaSync { tags });
            }
        }
        ops.push(TraceOp::LoopEnd);
    }

    /// Number of loop iterations executed in tile `tile` (the last tile of a
    /// traversal may be partial).
    pub fn tile_iterations(&self, tile: u64) -> u64 {
        let pos = (tile % self.kernel.tiles_per_traversal) * self.kernel.tile_elems;
        let remaining = self.kernel.iterations_per_core.saturating_sub(pos);
        remaining.min(self.kernel.tile_elems).max(1)
    }

    /// The position of tile `tile` (0-based, across all outer repeats)
    /// within its traversal.
    fn traversal_tile(&self, tile: u64) -> u64 {
        tile % self.kernel.tiles_per_traversal
    }

    /// The GM chunk staged into `buffer` for traversal tile `traversal_tile`.
    fn chunk_of(&self, buffer: usize, traversal_tile: u64) -> AddressRange {
        let r = &self.kernel.spm_refs[buffer];
        let partition_base = r.base + r.partition_bytes * self.core.index() as u64;
        let tile_bytes = self.kernel.tile_elems * r.elem_bytes;
        let offset = (traversal_tile * tile_bytes).min(r.partition_bytes.saturating_sub(1));
        let len = tile_bytes.min(r.partition_bytes - offset).max(r.elem_bytes);
        AddressRange::new(partition_base + offset, len)
    }

    /// Emits the head of tile `tile`: in hybrid mode the control phase that
    /// maps its chunks and the sync phase that waits on them, then (in both
    /// modes) the switch to the work phase.
    fn emit_tile_head(&self, ops: &mut Vec<TraceOp>, tile: u64) {
        if self.kernel.mode == ExecMode::Hybrid {
            self.emit_control_phase(ops, tile);
        }
        ops.push(TraceOp::SetPhase(Phase::Work));
    }

    fn emit_control_phase(&self, ops: &mut Vec<TraceOp>, tile: u64) {
        let traversal_tile = self.traversal_tile(tile);
        ops.push(TraceOp::SetPhase(Phase::Control));
        let mut tags = Vec::with_capacity(self.kernel.buffer_count());
        for r in &self.kernel.spm_refs {
            let chunk = self.chunk_of(r.buffer, traversal_tile);
            // The runtime library behaves like a software cache: if the chunk
            // needed for this tile is the one already mapped (single-tile
            // partitions re-traversed by an outer time-step loop), the MAP
            // call hits the software-cache lookup and skips the transfer.
            if tile > 0 {
                let prev_traversal_tile = if traversal_tile == 0 {
                    self.kernel.tiles_per_traversal - 1
                } else {
                    traversal_tile - 1
                };
                let prev_chunk = self.chunk_of(r.buffer, prev_traversal_tile);
                if prev_chunk == chunk {
                    ops.push(TraceOp::Compute {
                        insts: MAP_HIT_INSTS,
                    });
                    continue;
                }
                // Write back the chunk used in the previous tile if the
                // reference stores into it.
                if r.written {
                    ops.push(TraceOp::DmaPut {
                        tag: r.buffer as u32,
                        buffer: r.buffer,
                        chunk: prev_chunk,
                    });
                }
            }
            ops.push(TraceOp::Compute {
                insts: self.kernel.control_insts_per_map,
            });
            ops.push(TraceOp::DmaGet {
                tag: r.buffer as u32,
                buffer: r.buffer,
                chunk,
            });
            tags.push(r.buffer as u32);
        }
        ops.push(TraceOp::SetPhase(Phase::Sync));
        ops.push(TraceOp::DmaSync { tags });
    }

    /// Emits iteration `e` of the loop over traversal tile `traversal_tile`:
    /// its strided, random and stack accesses, then its compute.
    fn emit_iteration(&mut self, ops: &mut Vec<TraceOp>, traversal_tile: u64, e: u64) {
        let hybrid = self.kernel.mode == ExecMode::Hybrid;

        // Strided references: one access each per iteration.
        let elem_index = traversal_tile * self.kernel.tile_elems + e;
        for r in &self.kernel.spm_refs {
            let byte_offset = (elem_index * r.elem_bytes) % r.partition_bytes.max(r.elem_bytes);
            let addr = r.base + r.partition_bytes * self.core.index() as u64 + byte_offset;
            let class = if hybrid {
                MemRefClass::SpmStrided { buffer: r.buffer }
            } else {
                MemRefClass::GmStrided
            };
            let op = if r.written {
                TraceOp::Store {
                    addr,
                    class,
                    reference_id: r.reference_id,
                }
            } else {
                TraceOp::Load {
                    addr,
                    class,
                    reference_id: r.reference_id,
                }
            };
            ops.push(op);
        }

        // Random references: guarded or plain GM, with temporal locality.
        for (i, r) in self.kernel.random_refs.iter().enumerate() {
            self.random_accumulators[i] += r.accesses_per_iteration;
            while self.random_accumulators[i] >= 1.0 {
                self.random_accumulators[i] -= 1.0;
                let addr = random_ref_address(r, &mut self.rng);
                let class = if hybrid && r.guarded {
                    MemRefClass::Guarded
                } else {
                    MemRefClass::Gm
                };
                let is_store = self.rng.gen_bool(r.write_fraction);
                let op = if is_store {
                    TraceOp::Store {
                        addr,
                        class,
                        reference_id: r.reference_id,
                    }
                } else {
                    TraceOp::Load {
                        addr,
                        class,
                        reference_id: r.reference_id,
                    }
                };
                ops.push(op);
            }
        }

        // Stack traffic (spills and temporaries): a hot 2 KiB window.
        self.stack_accumulator += self.kernel.stack_accesses_per_iteration;
        while self.stack_accumulator >= 1.0 {
            self.stack_accumulator -= 1.0;
            let offset = self.rng.gen_range(0..2048) & !7;
            let addr = stack_base(self.core.index()) + offset;
            let op = if self.rng.gen_bool(0.4) {
                TraceOp::Store {
                    addr,
                    class: MemRefClass::Stack,
                    reference_id: 0,
                }
            } else {
                TraceOp::Load {
                    addr,
                    class: MemRefClass::Stack,
                    reference_id: 0,
                }
            };
            ops.push(op);
        }

        ops.push(TraceOp::Compute {
            insts: self.kernel.compute_insts_per_iteration,
        });
    }
}

/// Whole-segment views of the emitters, for tests of a segment's structure.
#[cfg(test)]
impl KernelExecution<'_> {
    fn prologue(&self) -> Vec<TraceOp> {
        let mut ops = Vec::new();
        self.emit_prologue(&mut ops);
        ops
    }

    fn epilogue(&self) -> Vec<TraceOp> {
        let mut ops = Vec::new();
        self.emit_epilogue(&mut ops);
        ops
    }

    /// The operations of tile `tile` (0-based, across all outer repeats):
    /// its head, then every loop iteration.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is beyond [`KernelExecution::num_tiles`].
    fn tile(&mut self, tile: u64) -> Vec<TraceOp> {
        assert!(tile < self.num_tiles(), "tile {tile} beyond the kernel");
        let mut ops = Vec::new();
        self.emit_tile_head(&mut ops, tile);
        for e in 0..self.tile_iterations(tile) {
            self.emit_iteration(&mut ops, self.traversal_tile(tile), e);
        }
        ops
    }
}

/// The part of a kernel's trace an [`OpCursor`] is currently streaming.
///
/// Segments are the natural resumption boundaries of a kernel: the
/// once-per-kernel prologue, each tile of the transformed loop, and the
/// once-per-kernel epilogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// The once-per-kernel prologue (buffer allocation).
    Prologue,
    /// Tile `n` of the tiled loop (0-based, across all outer repeats).
    Tile(u64),
    /// The once-per-kernel epilogue (final write-backs).
    Epilogue,
    /// The trace is exhausted.
    Done,
}

impl Segment {
    /// A stable short name for reports and trace events.
    pub fn label(self) -> &'static str {
        match self {
            Segment::Prologue => "prologue",
            Segment::Tile(_) => "tile",
            Segment::Epilogue => "epilogue",
            Segment::Done => "done",
        }
    }

    /// A dense numeric code (`payload`-friendly): 0 prologue, 1 tile,
    /// 2 epilogue, 3 done.
    pub fn code(self) -> u64 {
        match self {
            Segment::Prologue => 0,
            Segment::Tile(_) => 1,
            Segment::Epilogue => 2,
            Segment::Done => 3,
        }
    }

    /// The tile index, for tile segments.
    pub fn tile_index(self) -> Option<u64> {
        match self {
            Segment::Tile(t) => Some(t),
            _ => None,
        }
    }
}

/// A resumable, streaming view of one core's kernel trace.
///
/// The cursor generates the trace one piece at a time — the prologue, a
/// tile's head (its control and sync phases in hybrid mode), one loop
/// iteration, the epilogue — into a buffer it reuses, and hands the ops out
/// one at a time.  This is what lets a scheduler suspend a core mid-kernel
/// (e.g. parked on a `dma-synch`) and resume it later without buffering
/// per-core traces: a core holds at most the ops of one such piece, a few
/// dozen ops, where a whole tile is thousands.  Measured with perfbench on a
/// 2-thread VM, generating whole tiles instead cost `paper64-des` 63 MiB of
/// peak RSS against 40.5 MiB, and `guarded64-analytic` 73 ns per generated
/// op against 33 ns.
///
/// The op stream is exactly `prologue ++ tile(0) ++ … ++ tile(n-1) ++
/// epilogue`, where a tile is its head followed by its iterations.
#[derive(Debug)]
pub struct OpCursor<'a> {
    exec: KernelExecution<'a>,
    segment: Segment,
    /// The current tile's position within its traversal.
    traversal_tile: u64,
    /// The current tile's next loop iteration to generate.
    next_iteration: u64,
    /// The current tile's iteration count.
    iterations: u64,
    /// The current piece's ops; those before `next` have been handed out.
    ops: Vec<TraceOp>,
    next: usize,
}

impl<'a> OpCursor<'a> {
    /// Creates a cursor over `kernel` for `core` of a `cores`-core machine.
    ///
    /// `seed` makes the random-reference address streams reproducible: the
    /// `(seed, core)` pair fully determines the op stream.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside the machine.
    pub fn new(kernel: &'a CompiledKernel, core: CoreId, cores: usize, seed: u64) -> Self {
        let exec = KernelExecution::new(kernel, core, cores, seed);
        let mut ops = Vec::new();
        exec.emit_prologue(&mut ops);
        ops.shrink_to_fit();
        OpCursor {
            exec,
            segment: Segment::Prologue,
            traversal_tile: 0,
            next_iteration: 0,
            iterations: 0,
            ops,
            next: 0,
        }
    }

    /// The segment the next op comes from (a just-finished segment counts
    /// until the first op of the next one is pulled).
    pub fn segment(&self) -> Segment {
        self.segment
    }

    /// The kernel being streamed.
    pub fn kernel(&self) -> &CompiledKernel {
        self.exec.kernel()
    }

    /// Returns `true` once every op has been yielded.
    pub fn is_done(&self) -> bool {
        self.segment == Segment::Done
    }

    /// Yields the next operation, generating the next piece on demand.
    pub fn next_op(&mut self) -> Option<TraceOp> {
        while self.next == self.ops.len() {
            if !self.refill() {
                return None;
            }
        }
        // The placeholder owns no heap data, so clearing it is free.
        let op = std::mem::replace(&mut self.ops[self.next], TraceOp::LoopEnd);
        self.next += 1;
        Some(op)
    }

    /// Generates the next piece of the trace into the buffer, entering the
    /// next segment once the current one is exhausted.  Returns `false`
    /// once the whole trace has been yielded.
    fn refill(&mut self) -> bool {
        let capacity = self.ops.capacity();
        self.ops.clear();
        self.next = 0;
        match self.segment {
            Segment::Tile(_) if self.next_iteration < self.iterations => {
                self.exec
                    .emit_iteration(&mut self.ops, self.traversal_tile, self.next_iteration);
                self.next_iteration += 1;
            }
            Segment::Prologue if self.exec.num_tiles() > 0 => self.start_tile(0),
            Segment::Tile(t) if t + 1 < self.exec.num_tiles() => self.start_tile(t + 1),
            Segment::Prologue | Segment::Tile(_) => {
                self.segment = Segment::Epilogue;
                self.exec.emit_epilogue(&mut self.ops);
            }
            Segment::Epilogue | Segment::Done => {
                self.segment = Segment::Done;
                return false;
            }
        }
        // Keep the buffer exactly as large as the largest piece so far,
        // rather than up to twice that under `Vec`'s growth policy.
        if self.ops.capacity() > capacity {
            self.ops.shrink_to_fit();
        }
        true
    }

    /// Enters tile `tile` and generates its head.
    fn start_tile(&mut self, tile: u64) {
        self.segment = Segment::Tile(tile);
        self.traversal_tile = self.exec.traversal_tile(tile);
        self.next_iteration = 0;
        self.iterations = self.exec.tile_iterations(tile);
        self.exec.emit_tile_head(&mut self.ops, tile);
    }
}

/// Draws one address from a random reference, honouring its locality knobs.
fn random_ref_address(r: &CompiledRandomRef, rng: &mut SimRng) -> Addr {
    let hot_bytes = ((r.size as f64 * r.hot_set_fraction) as u64).clamp(8, r.size);
    let in_hot = rng.gen_bool(r.hot_fraction);
    let span = if in_hot { hot_bytes } else { r.size };
    let offset = if span <= 8 {
        0
    } else {
        rng.gen_range(0..span - 8) & !7
    };
    r.base + offset
}

/// Mixes a kernel's identity into the trace seed so different kernels get
/// different (but reproducible) random streams.
fn kernel_seed(kernel: &CompiledKernel) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in kernel.name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, MachineParams};
    use crate::nas::NasBenchmark;
    use simkernel::ByteSize;

    fn machine() -> MachineParams {
        MachineParams {
            cores: 4,
            spm_size: ByteSize::kib(8),
        }
    }

    fn compiled(mode: ExecMode) -> crate::compiler::CompiledBenchmark {
        let spec = NasBenchmark::Cg.spec_scaled(1.0 / 512.0);
        compile(&spec, mode, &machine())
    }

    #[test]
    fn hybrid_prologue_allocates_buffers() {
        let c = compiled(ExecMode::Hybrid);
        let exec = KernelExecution::new(&c.kernels[0], CoreId::new(0), 4, 42);
        let ops = exec.prologue();
        assert!(ops
            .iter()
            .any(|o| matches!(o, TraceOp::AllocateBuffers { count } if *count == 5)));
    }

    #[test]
    fn hybrid_tile_has_three_phases_and_dma() {
        let c = compiled(ExecMode::Hybrid);
        let mut exec = KernelExecution::new(&c.kernels[0], CoreId::new(1), 4, 42);
        let ops = exec.tile(0);
        let phases: Vec<Phase> = ops
            .iter()
            .filter_map(|o| match o {
                TraceOp::SetPhase(p) => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(phases, vec![Phase::Control, Phase::Sync, Phase::Work]);
        let gets = ops
            .iter()
            .filter(|o| matches!(o, TraceOp::DmaGet { .. }))
            .count();
        assert_eq!(gets, 5, "one dma-get per SPM buffer");
        assert!(ops.iter().any(|o| matches!(o, TraceOp::DmaSync { .. })));
        // Work-phase accesses are classified as SPM or guarded, never plain GM
        // for the strided references.
        assert!(ops.iter().any(|o| matches!(
            o,
            TraceOp::Load {
                class: MemRefClass::SpmStrided { .. },
                ..
            } | TraceOp::Store {
                class: MemRefClass::SpmStrided { .. },
                ..
            }
        )));
    }

    #[test]
    fn written_buffers_are_put_back_from_the_second_tile() {
        let c = compiled(ExecMode::Hybrid);
        let mut exec = KernelExecution::new(&c.kernels[0], CoreId::new(0), 4, 42);
        let first = exec.tile(0);
        assert_eq!(
            first
                .iter()
                .filter(|o| matches!(o, TraceOp::DmaPut { .. }))
                .count(),
            0
        );
        if exec.num_tiles() > 1 {
            let second = exec.tile(1);
            let puts = second
                .iter()
                .filter(|o| matches!(o, TraceOp::DmaPut { .. }))
                .count();
            let written = c.kernels[0].spm_refs.iter().filter(|r| r.written).count();
            assert_eq!(puts, written);
        }
    }

    #[test]
    fn cache_only_tiles_have_no_dma_and_no_guarded_class() {
        let c = compiled(ExecMode::CacheOnly);
        let mut exec = KernelExecution::new(&c.kernels[0], CoreId::new(0), 4, 42);
        let ops = exec.tile(0);
        assert!(!ops.iter().any(|o| matches!(
            o,
            TraceOp::DmaGet { .. } | TraceOp::DmaPut { .. } | TraceOp::DmaSync { .. }
        )));
        assert!(!ops.iter().any(|o| matches!(
            o,
            TraceOp::Load {
                class: MemRefClass::Guarded,
                ..
            } | TraceOp::Store {
                class: MemRefClass::Guarded,
                ..
            }
        )));
    }

    #[test]
    fn hybrid_work_phase_emits_guarded_accesses_for_cg() {
        let c = compiled(ExecMode::Hybrid);
        let mut exec = KernelExecution::new(&c.kernels[0], CoreId::new(0), 4, 42);
        let mut guarded = 0;
        for t in 0..exec.num_tiles().min(4) {
            guarded += exec
                .tile(t)
                .iter()
                .filter(|o| {
                    matches!(
                        o,
                        TraceOp::Load {
                            class: MemRefClass::Guarded,
                            ..
                        } | TraceOp::Store {
                            class: MemRefClass::Guarded,
                            ..
                        }
                    )
                })
                .count();
        }
        assert!(guarded > 0, "CG must issue guarded accesses in hybrid mode");
    }

    #[test]
    fn traces_are_deterministic_per_seed_and_core() {
        let c = compiled(ExecMode::Hybrid);
        let mut a = KernelExecution::new(&c.kernels[0], CoreId::new(2), 4, 7);
        let mut b = KernelExecution::new(&c.kernels[0], CoreId::new(2), 4, 7);
        assert_eq!(a.tile(0), b.tile(0));
        let mut other_core = KernelExecution::new(&c.kernels[0], CoreId::new(3), 4, 7);
        assert_ne!(a.tile(1), other_core.tile(1));
    }

    #[test]
    fn different_cores_access_disjoint_partitions() {
        let c = compiled(ExecMode::CacheOnly);
        let k = &c.kernels[0];
        let mut a = KernelExecution::new(k, CoreId::new(0), 4, 1);
        let mut b = KernelExecution::new(k, CoreId::new(1), 4, 1);
        let addrs_of = |ops: &[TraceOp]| -> Vec<Addr> {
            ops.iter()
                .filter_map(|o| match o {
                    TraceOp::Load {
                        addr,
                        class: MemRefClass::GmStrided,
                        reference_id,
                    } if *reference_id > 0 => Some(*addr),
                    TraceOp::Store {
                        addr,
                        class: MemRefClass::GmStrided,
                        reference_id,
                    } if *reference_id > 0 => Some(*addr),
                    _ => None,
                })
                .collect()
        };
        // Strided addresses of the first reference must differ between cores.
        let ref0 = k.spm_refs[0].reference_id;
        let a_ops = a.tile(0);
        let b_ops = b.tile(0);
        let a_first = a_ops.iter().find_map(|o| match o {
            TraceOp::Load {
                addr, reference_id, ..
            }
            | TraceOp::Store {
                addr, reference_id, ..
            } if *reference_id == ref0 => Some(*addr),
            _ => None,
        });
        let b_first = b_ops.iter().find_map(|o| match o {
            TraceOp::Load {
                addr, reference_id, ..
            }
            | TraceOp::Store {
                addr, reference_id, ..
            } if *reference_id == ref0 => Some(*addr),
            _ => None,
        });
        assert_ne!(a_first, b_first);
        let _ = addrs_of(&a_ops);
    }

    #[test]
    fn epilogue_writes_back_written_buffers_and_ends_loop() {
        let c = compiled(ExecMode::Hybrid);
        let exec = KernelExecution::new(&c.kernels[0], CoreId::new(0), 4, 42);
        let ops = exec.epilogue();
        assert!(matches!(ops.last(), Some(TraceOp::LoopEnd)));
        let written = c.kernels[0].spm_refs.iter().filter(|r| r.written).count();
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o, TraceOp::DmaPut { .. }))
                .count(),
            written
        );
    }

    #[test]
    fn tile_iteration_counts_cover_the_partition_exactly() {
        let c = compiled(ExecMode::Hybrid);
        let k = &c.kernels[0];
        let exec = KernelExecution::new(k, CoreId::new(0), 4, 42);
        let total: u64 = (0..k.tiles_per_traversal)
            .map(|t| exec.tile_iterations(t))
            .sum();
        assert!(total >= k.iterations_per_core);
        assert!(total < k.iterations_per_core + k.tile_elems);
    }

    /// Every benchmark in both modes, on the first and last core of the
    /// paper's 64-core machine, at the module's data scale.
    fn paper_machine_streams() -> Vec<(NasBenchmark, ExecMode, crate::compiler::CompiledBenchmark)>
    {
        let mut streams = Vec::new();
        for benchmark in NasBenchmark::ALL {
            for mode in [ExecMode::CacheOnly, ExecMode::Hybrid] {
                let spec = benchmark.spec_scaled(1.0 / 512.0);
                streams.push((
                    benchmark,
                    mode,
                    compile(&spec, mode, &MachineParams::isca2015()),
                ));
            }
        }
        streams
    }

    const PAPER_CORES: [usize; 2] = [0, 63];

    #[test]
    fn cursor_streams_the_exact_eager_op_sequence() {
        for (benchmark, mode, c) in paper_machine_streams() {
            for kernel in &c.kernels {
                for core in PAPER_CORES {
                    let id = CoreId::new(core);
                    let mut eager = KernelExecution::new(kernel, id, 64, 42);
                    let mut expected = eager.prologue();
                    for t in 0..eager.num_tiles() {
                        expected.extend(eager.tile(t));
                    }
                    expected.extend(eager.epilogue());

                    let mut cursor = OpCursor::new(kernel, id, 64, 42);
                    assert_eq!(cursor.segment(), Segment::Prologue);
                    assert!(!cursor.is_done());
                    let streamed: Vec<TraceOp> = std::iter::from_fn(|| cursor.next_op()).collect();
                    let at = format!("{benchmark:?} {mode:?} {} core {core}", kernel.name);
                    assert_eq!(streamed, expected, "{at}");
                    assert!(cursor.is_done(), "{at}");
                    assert_eq!(cursor.segment(), Segment::Done, "{at}");
                    assert_eq!(
                        cursor.next_op(),
                        None,
                        "{at}: exhausted cursor stays exhausted"
                    );
                }
            }
        }
    }

    /// FNV-1a over the `Debug` text of every op.
    fn digest(h: &mut u64, op: &TraceOp) {
        for byte in format!("{op:?}").bytes() {
            *h ^= byte as u64;
            *h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// The op count and digest of every kernel's stream on cores 0 and 63 at
    /// seed 1, recorded from the whole-tile generator this cursor replaced:
    /// a reordered RNG draw or a moved op changes the digest.
    #[test]
    fn streams_match_their_recorded_digests() {
        let recorded: [(NasBenchmark, ExecMode, u64, u64); 12] = [
            (
                NasBenchmark::Cg,
                ExecMode::CacheOnly,
                2722,
                0xf996_1f4f_f1dd_eb7d,
            ),
            (
                NasBenchmark::Cg,
                ExecMode::Hybrid,
                2778,
                0xd325_f0ac_cbe4_4bf9,
            ),
            (
                NasBenchmark::Ep,
                ExecMode::CacheOnly,
                310,
                0x8080_ecca_9c68_ac44,
            ),
            (
                NasBenchmark::Ep,
                ExecMode::Hybrid,
                452,
                0x0924_e961_d3f7_8bf6,
            ),
            (
                NasBenchmark::Ft,
                ExecMode::CacheOnly,
                2988,
                0x3f4e_862b_276c_de07,
            ),
            (
                NasBenchmark::Ft,
                ExecMode::Hybrid,
                3256,
                0xe1a0_97b6_eb7b_f51c,
            ),
            (
                NasBenchmark::Is,
                ExecMode::CacheOnly,
                2144,
                0x7ffe_8dc9_cb52_46d3,
            ),
            (
                NasBenchmark::Is,
                ExecMode::Hybrid,
                2188,
                0x4f43_6bb7_64eb_69c5,
            ),
            (
                NasBenchmark::Mg,
                ExecMode::CacheOnly,
                4008,
                0x9e6e_1916_7dc2_0da4,
            ),
            (
                NasBenchmark::Mg,
                ExecMode::Hybrid,
                4348,
                0xe8e0_e639_cdb3_c1e1,
            ),
            (
                NasBenchmark::Sp,
                ExecMode::CacheOnly,
                5488,
                0x7ba9_843e_00bc_3bb8,
            ),
            (
                NasBenchmark::Sp,
                ExecMode::Hybrid,
                12942,
                0xb970_daae_7de7_4663,
            ),
        ];
        for ((benchmark, mode, c), &(b, m, count, hash)) in
            paper_machine_streams().iter().zip(&recorded)
        {
            assert_eq!((*benchmark, *mode), (b, m));
            let (mut ops, mut h) = (0u64, 0xcbf2_9ce4_8422_2325u64);
            for core in PAPER_CORES {
                for kernel in &c.kernels {
                    let mut cursor = OpCursor::new(kernel, CoreId::new(core), 64, 1);
                    while let Some(op) = cursor.next_op() {
                        ops += 1;
                        digest(&mut h, &op);
                    }
                }
            }
            assert_eq!((ops, h), (count, hash), "{benchmark:?} {mode:?}");
        }
    }

    /// The cursor holds one piece of the trace at a time: its buffer never
    /// grows beyond the largest prologue, tile head (control phase + the
    /// switch to the work phase), loop iteration or epilogue.
    #[test]
    fn cursor_buffer_holds_at_most_one_piece() {
        // (prologue, tile head, iteration, epilogue) maxima over cores 0 and
        // 63, recorded from the whole-tile generator this cursor replaced.
        let recorded = [
            (NasBenchmark::Cg, ExecMode::CacheOnly, [1, 1, 8, 1]),
            (NasBenchmark::Cg, ExecMode::Hybrid, [3, 14, 8, 6]),
            (NasBenchmark::Is, ExecMode::CacheOnly, [1, 1, 7, 1]),
            (NasBenchmark::Is, ExecMode::Hybrid, [3, 10, 7, 6]),
        ];
        for (benchmark, mode, pieces) in recorded {
            let c = compile(
                &benchmark.spec_scaled(1.0 / 512.0),
                mode,
                &MachineParams::isca2015(),
            );
            let mut measured = [0usize; 4];
            let mut capacity = 0;
            for core in PAPER_CORES {
                let kernel = &c.kernels[0];
                let mut exec = KernelExecution::new(kernel, CoreId::new(core), 64, 1);
                measured[0] = measured[0].max(exec.prologue().len());
                for t in 0..exec.num_tiles() {
                    let mut head = Vec::new();
                    exec.emit_tile_head(&mut head, t);
                    measured[1] = measured[1].max(head.len());
                    for e in 0..exec.tile_iterations(t) {
                        let mut iteration = Vec::new();
                        exec.emit_iteration(&mut iteration, exec.traversal_tile(t), e);
                        measured[2] = measured[2].max(iteration.len());
                    }
                }
                measured[3] = measured[3].max(exec.epilogue().len());

                let mut cursor = OpCursor::new(kernel, CoreId::new(core), 64, 1);
                capacity = capacity.max(cursor.ops.capacity());
                while cursor.next_op().is_some() {
                    capacity = capacity.max(cursor.ops.capacity());
                }
            }
            let at = format!("{benchmark:?} {mode:?}");
            assert_eq!(c.kernels.len(), 1, "{at}");
            assert_eq!(measured, pieces, "{at}");
            assert_eq!(capacity, *pieces.iter().max().unwrap(), "{at}");
        }
    }

    #[test]
    fn cursor_tracks_segment_boundaries() {
        let c = compiled(ExecMode::Hybrid);
        let mut cursor = OpCursor::new(&c.kernels[0], CoreId::new(0), 4, 42);
        assert_eq!(cursor.kernel().name, c.kernels[0].name);
        let prologue_len = cursor.kernel().buffer_count(); // at least this many ops
        let _ = prologue_len;
        let mut seen = std::collections::BTreeSet::new();
        while let Some(_op) = cursor.next_op() {
            seen.insert(match cursor.segment() {
                Segment::Prologue => 0u64,
                Segment::Tile(t) => 1 + t,
                Segment::Epilogue => u64::MAX - 1,
                Segment::Done => u64::MAX,
            });
        }
        // Every tile was visited, book-ended by prologue and epilogue.
        let exec = KernelExecution::new(&c.kernels[0], CoreId::new(0), 4, 42);
        assert!(seen.contains(&0));
        for t in 0..exec.num_tiles() {
            assert!(seen.contains(&(1 + t)), "tile {t} never streamed");
        }
        assert!(seen.contains(&(u64::MAX - 1)));
    }

    #[test]
    #[should_panic]
    fn tile_beyond_the_kernel_panics() {
        let c = compiled(ExecMode::Hybrid);
        let mut exec = KernelExecution::new(&c.kernels[0], CoreId::new(0), 4, 42);
        let n = exec.num_tiles();
        let _ = exec.tile(n);
    }
}
