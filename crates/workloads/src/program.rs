//! The runtime-library / trace-generation model.
//!
//! [`OpCursor`] plays the role of one thread executing one compiled kernel:
//! it streams, tile by tile, the [`TraceOp`]s that the core timing model
//! executes.  In hybrid mode each tile follows the
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

/// One core's execution of one compiled kernel, materialized a segment at a
/// time; [`OpCursor`] streams it.
#[derive(Debug)]
pub(crate) struct KernelExecution<'a> {
    kernel: &'a CompiledKernel,
    core: CoreId,
    cores: usize,
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
            cores,
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

    /// Operations executed once before the loop (buffer allocation).
    pub fn prologue(&self) -> Vec<TraceOp> {
        match self.kernel.mode {
            ExecMode::Hybrid => vec![
                TraceOp::SetPhase(Phase::Control),
                TraceOp::Compute { insts: 120 },
                TraceOp::AllocateBuffers {
                    count: self.kernel.buffer_count(),
                },
            ],
            ExecMode::CacheOnly => vec![TraceOp::SetPhase(Phase::Work)],
        }
    }

    /// Operations executed once after the loop (final write-backs).
    pub fn epilogue(&self) -> Vec<TraceOp> {
        match self.kernel.mode {
            ExecMode::Hybrid => {
                let mut ops = vec![TraceOp::SetPhase(Phase::Control)];
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
                ops.push(TraceOp::LoopEnd);
                ops
            }
            ExecMode::CacheOnly => vec![TraceOp::LoopEnd],
        }
    }

    /// Number of loop iterations executed in tile `tile` (the last tile of a
    /// traversal may be partial).
    pub fn tile_iterations(&self, tile: u64) -> u64 {
        let pos = (tile % self.kernel.tiles_per_traversal) * self.kernel.tile_elems;
        let remaining = self.kernel.iterations_per_core.saturating_sub(pos);
        remaining.min(self.kernel.tile_elems).max(1)
    }

    /// Generates the operations of tile `tile` (0-based, across all outer
    /// repeats).
    ///
    /// # Panics
    ///
    /// Panics if `tile` is beyond [`KernelExecution::num_tiles`].
    pub fn tile(&mut self, tile: u64) -> Vec<TraceOp> {
        assert!(tile < self.num_tiles(), "tile {tile} beyond the kernel");
        let iterations = self.tile_iterations(tile);
        let traversal_tile = tile % self.kernel.tiles_per_traversal;

        let mut ops = Vec::with_capacity(self.estimated_tile_ops(iterations));
        if self.kernel.mode == ExecMode::Hybrid {
            self.emit_control_phase(&mut ops, tile, traversal_tile);
        }
        self.emit_work_phase(&mut ops, traversal_tile, iterations);
        ops
    }

    fn estimated_tile_ops(&self, iterations: u64) -> usize {
        let per_iter = self.kernel.spm_refs.len()
            + self.kernel.random_refs.len()
            + 2
            + self.kernel.stack_accesses_per_iteration.ceil() as usize;
        (iterations as usize) * per_iter + 4 * self.kernel.buffer_count() + 8
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

    fn emit_control_phase(&mut self, ops: &mut Vec<TraceOp>, tile: u64, traversal_tile: u64) {
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

    fn emit_work_phase(&mut self, ops: &mut Vec<TraceOp>, traversal_tile: u64, iterations: u64) {
        ops.push(TraceOp::SetPhase(Phase::Work));
        let hybrid = self.kernel.mode == ExecMode::Hybrid;
        let tile_elems = self.kernel.tile_elems;

        for e in 0..iterations {
            // Strided references: one access each per iteration.
            for r in &self.kernel.spm_refs {
                let elem_index = traversal_tile * tile_elems + e;
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
        let _ = self.cores;
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
/// The cursor generates each segment (prologue, tile, epilogue) as a
/// `Vec<TraceOp>` and hands the ops out one at a time, generating the next
/// segment lazily when the current one runs dry.  This is what lets a
/// scheduler suspend a core mid-kernel (e.g. parked on a `dma-synch`) and
/// resume it later without re-generating or buffering whole per-core traces:
/// at most one segment per core is ever materialized at a time.
///
/// The op stream is exactly `prologue ++ tile(0) ++ … ++ tile(n-1) ++
/// epilogue`.
#[derive(Debug)]
pub struct OpCursor<'a> {
    exec: KernelExecution<'a>,
    segment: Segment,
    ops: std::vec::IntoIter<TraceOp>,
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
        let ops = exec.prologue().into_iter();
        OpCursor {
            exec,
            segment: Segment::Prologue,
            ops,
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

    /// Yields the next operation, generating the next segment on demand.
    pub fn next_op(&mut self) -> Option<TraceOp> {
        loop {
            if let Some(op) = self.ops.next() {
                return Some(op);
            }
            self.segment = match self.segment {
                Segment::Prologue => {
                    if self.exec.num_tiles() == 0 {
                        Segment::Epilogue
                    } else {
                        Segment::Tile(0)
                    }
                }
                Segment::Tile(t) if t + 1 < self.exec.num_tiles() => Segment::Tile(t + 1),
                Segment::Tile(_) => Segment::Epilogue,
                Segment::Epilogue => Segment::Done,
                Segment::Done => return None,
            };
            self.ops = match self.segment {
                Segment::Tile(t) => self.exec.tile(t).into_iter(),
                Segment::Epilogue => self.exec.epilogue().into_iter(),
                _ => Vec::new().into_iter(),
            };
        }
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

    #[test]
    fn cursor_streams_the_exact_eager_op_sequence() {
        let c = compiled(ExecMode::Hybrid);
        for core in 0..2 {
            let mut eager = KernelExecution::new(&c.kernels[0], CoreId::new(core), 4, 42);
            let mut expected = eager.prologue();
            for t in 0..eager.num_tiles() {
                expected.extend(eager.tile(t));
            }
            expected.extend(eager.epilogue());

            let mut cursor = OpCursor::new(&c.kernels[0], CoreId::new(core), 4, 42);
            assert_eq!(cursor.segment(), Segment::Prologue);
            assert!(!cursor.is_done());
            let streamed: Vec<TraceOp> = std::iter::from_fn(|| cursor.next_op()).collect();
            assert_eq!(streamed, expected, "core {core}");
            assert!(cursor.is_done());
            assert_eq!(cursor.segment(), Segment::Done);
            assert_eq!(cursor.next_op(), None, "exhausted cursor stays exhausted");
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
