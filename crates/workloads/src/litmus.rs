//! Directed litmus programs and a seeded random-program generator for the
//! coherence verification harness.
//!
//! A [`RawKernel`] is a hand-authored (or generated) multi-core trace: per
//! core, a sequence of *rounds* of [`TraceOp`]s.  Unlike the NAS-like
//! compiled kernels, nothing is synthesised — every address and transfer is
//! explicit, which is what directed protocol tests need.  The machine runs
//! raw kernels through the same per-op interpreter and the same min-clock
//! scheduler as compiled ones: each core's rounds are flattened into one op
//! stream, and the scheduler always steps the core with the earliest clock.
//! Litmus steps therefore carry a large compute pad that keeps the cores'
//! clocks aligned, so the intended step order holds: round `k` of every core
//! runs before round `k + 1` of any core.
//!
//! The [`catalogue`] targets the hazard corners the paper's protocol exists
//! for: a DMA `get` overlapping a dirty cached line, a guest-line write-back
//! racing a remote load, filter-entry eviction in the middle of a tile,
//! reordering around `dma-synch` tags, and the stale-filter window after a
//! mapping (the designated victim for fault-injection tests).
//!
//! [`random_program`] emits interleaved SPM/cache traffic over shared
//! footprints while honouring the paper's software contract (no unguarded
//! access aliases mapped data; chunks are mapped by at most one core) and a
//! single-writer-per-address discipline, which makes the final memory image
//! independent of the legal interleaving — the property the cross-NoC-model
//! and cross-protocol equivalence tests pin.

use simkernel::{ByteSize, SimRng};

use mem::{Addr, AddressRange};

use crate::compiler::{stack_base, ExecMode};
use crate::trace::{MemRefClass, Phase, TraceOp};

/// A raw multi-core trace kernel: per core, per round, the ops to run.
#[derive(Debug, Clone)]
pub struct RawKernel {
    /// Program name (reports, golden-file names).
    pub name: String,
    /// The SPM buffer size the protocol's masks are configured with; chunk
    /// base addresses must be aligned to it.
    pub buffer_size: ByteSize,
    /// Whether the program issues guarded accesses (filter power-gating).
    pub guarded: bool,
    /// Base virtual address of the program's code (instruction fetches).
    pub code_base: Addr,
    /// Code footprint in bytes.
    pub code_size: u64,
    /// `rounds[core][round]` is the op list of one round of one core.
    pub rounds: Vec<Vec<Vec<TraceOp>>>,
}

impl RawKernel {
    /// Number of cores the program is written for.
    pub fn cores(&self) -> usize {
        self.rounds.len()
    }
}

/// Compute pad prepended to every litmus step.
///
/// Under the min-clock scheduler the cores advance by their own clocks; a
/// pad much larger than any single step's latency keeps every core inside
/// the same global step window, so step `k` of one core always precedes
/// step `k + 1` of every other core.
const STEP_PAD_INSTS: u64 = 120_000;

/// Builds a [`RawKernel`] step by step (one global step = one round).
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    buffer_size: ByteSize,
    guarded: bool,
    rounds: Vec<Vec<Vec<TraceOp>>>,
}

impl ProgramBuilder {
    /// A builder for a `cores`-core program.
    pub fn new(name: &str, cores: usize, buffer_size: ByteSize) -> Self {
        assert!(cores >= 1, "litmus programs need at least one core");
        ProgramBuilder {
            name: name.to_owned(),
            buffer_size,
            guarded: false,
            rounds: vec![Vec::new(); cores],
        }
    }

    /// Appends one global step in which only `core` acts; every other core
    /// pads, so the step order is total.
    pub fn step(&mut self, core: usize, ops: Vec<TraceOp>) -> &mut Self {
        self.guarded |= has_guarded(&ops);
        for (c, rounds) in self.rounds.iter_mut().enumerate() {
            let mut round = vec![TraceOp::Compute {
                insts: STEP_PAD_INSTS,
            }];
            if c == core {
                round.extend(ops.iter().cloned());
            }
            rounds.push(round);
        }
        self
    }

    /// Appends one global step in which every core acts.
    pub fn all(&mut self, f: impl Fn(usize) -> Vec<TraceOp>) -> &mut Self {
        for (c, rounds) in self.rounds.iter_mut().enumerate() {
            let ops = f(c);
            self.guarded |= has_guarded(&ops);
            let mut round = vec![TraceOp::Compute {
                insts: STEP_PAD_INSTS,
            }];
            round.extend(ops);
            rounds.push(round);
        }
        self
    }

    /// Finishes the program (appending the `LoopEnd` step that drops every
    /// SPM mapping, as every transformed loop does).
    pub fn build(&mut self) -> RawKernel {
        self.all(|_| vec![TraceOp::LoopEnd]);
        RawKernel {
            name: self.name.clone(),
            buffer_size: self.buffer_size,
            guarded: self.guarded,
            code_base: Addr::new(0x40_0000),
            code_size: 16 * 1024,
            rounds: std::mem::take(&mut self.rounds),
        }
    }
}

fn has_guarded(ops: &[TraceOp]) -> bool {
    ops.iter().any(|op| {
        matches!(
            op,
            TraceOp::Load {
                class: MemRefClass::Guarded,
                ..
            } | TraceOp::Store {
                class: MemRefClass::Guarded,
                ..
            }
        )
    })
}

// ------------------------------------------------------------- op helpers

fn guarded_load(addr: Addr) -> TraceOp {
    TraceOp::Load {
        addr,
        class: MemRefClass::Guarded,
        reference_id: 901,
    }
}

fn guarded_store(addr: Addr) -> TraceOp {
    TraceOp::Store {
        addr,
        class: MemRefClass::Guarded,
        reference_id: 902,
    }
}

fn spm_load(buffer: usize, addr: Addr) -> TraceOp {
    TraceOp::Load {
        addr,
        class: MemRefClass::SpmStrided { buffer },
        reference_id: 903,
    }
}

fn spm_store(buffer: usize, addr: Addr) -> TraceOp {
    TraceOp::Store {
        addr,
        class: MemRefClass::SpmStrided { buffer },
        reference_id: 904,
    }
}

fn get(buffer: usize, chunk: AddressRange) -> TraceOp {
    TraceOp::DmaGet {
        tag: buffer as u32,
        buffer,
        chunk,
    }
}

fn put(buffer: usize, chunk: AddressRange) -> TraceOp {
    TraceOp::DmaPut {
        tag: buffer as u32,
        buffer,
        chunk,
    }
}

fn sync(tags: &[u32]) -> TraceOp {
    TraceOp::DmaSync {
        tags: tags.to_vec(),
    }
}

fn alloc(count: usize) -> Vec<TraceOp> {
    vec![TraceOp::AllocateBuffers { count }]
}

// --------------------------------------------------------------- catalogue

/// One directed litmus program.
#[derive(Debug, Clone, Copy)]
pub struct LitmusCase {
    /// Stable name (golden files, reports, CLI selection).
    pub name: &'static str,
    /// Builds the program for a machine with `cores` cores and the given
    /// SPM buffer size.
    pub build: fn(cores: usize, buffer_size: ByteSize) -> RawKernel,
}

/// The directed litmus catalogue (hybrid machines; needs ≥ 2 cores).
pub fn catalogue() -> Vec<LitmusCase> {
    vec![
        LitmusCase {
            name: "dma_get_snoops_dirty_line",
            build: dma_get_snoops_dirty_line,
        },
        LitmusCase {
            name: "guest_writeback_vs_remote_load",
            build: guest_writeback_vs_remote_load,
        },
        LitmusCase {
            name: "filter_eviction_mid_tile",
            build: filter_eviction_mid_tile,
        },
        LitmusCase {
            name: "dma_sync_tag_ordering",
            build: dma_sync_tag_ordering,
        },
        LitmusCase {
            name: "local_store_remote_load",
            build: local_store_remote_load,
        },
        LitmusCase {
            name: "stale_filter_after_map",
            build: stale_filter_after_map,
        },
    ]
}

/// Base of the litmus programs' data region (disjoint from the compiled
/// workloads' regions).
const LITMUS_BASE: u64 = 0x4000_0000_0000;

fn chunk_at(index: u64, bs: ByteSize) -> AddressRange {
    AddressRange::new(Addr::new(LITMUS_BASE + index * bs.bytes()), bs.bytes())
}

/// A `dma-get` must snoop a line another core holds dirty in its cache
/// (§2.1): the staged copy, and every SPM read of it, must see that store.
fn dma_get_snoops_dirty_line(cores: usize, bs: ByteSize) -> RawKernel {
    assert!(cores >= 2, "needs two cores");
    let chunk = chunk_at(0, bs);
    let x = chunk.start() + 0x40;
    let mut b = ProgramBuilder::new("dma_get_snoops_dirty_line", cores, bs);
    b.all(|_| alloc(2));
    // Core 1 dirties X in its L1 through a guarded (unmapped) store.
    b.step(1, vec![guarded_store(x)]);
    // Core 0 maps the chunk: the transfer must read core 1's dirty line.
    b.step(0, vec![get(0, chunk), sync(&[0])]);
    b.step(0, vec![spm_load(0, x)]);
    // Written back; core 1 re-reads through the hierarchy.
    b.step(0, vec![put(0, chunk), sync(&[0])]);
    b.step(1, vec![guarded_load(x)]);
    b.build()
}

/// A guest line (written into the owner's SPM by a *remote* guarded store)
/// must survive the owner's write-back: the remote core re-reads its own
/// store from memory after the chunk is unmapped.
fn guest_writeback_vs_remote_load(cores: usize, bs: ByteSize) -> RawKernel {
    assert!(cores >= 2, "needs two cores");
    let chunk = chunk_at(1, bs);
    let y = chunk.start() + 0x80;
    let mut b = ProgramBuilder::new("guest_writeback_vs_remote_load", cores, bs);
    b.all(|_| alloc(2));
    b.step(0, vec![get(0, chunk), sync(&[0])]);
    // Remote guarded store is diverted into core 0's SPM.
    b.step(1, vec![guarded_store(y)]);
    // Remote guarded load of the guest line while still mapped.
    b.step(1, vec![guarded_load(y)]);
    // The write-back must carry the guest store to memory.
    b.step(0, vec![put(0, chunk), sync(&[0])]);
    b.step(1, vec![guarded_load(y)]);
    b.build()
}

/// Streams far more guarded chunks than the (shrunken, see the verification
/// config) filter and filterDir hold, forcing capacity evictions, then maps
/// one of the evicted chunks and checks the diversion still happens.
fn filter_eviction_mid_tile(cores: usize, bs: ByteSize) -> RawKernel {
    assert!(cores >= 2, "needs two cores");
    let stream = 64u64;
    let mapped = chunk_at(8, bs); // one of the streamed chunks
    let z = mapped.start() + 0x40;
    let mut b = ProgramBuilder::new("filter_eviction_mid_tile", cores, bs);
    b.all(|_| alloc(2));
    // Core 0 touches many distinct chunks: its filter and the filterDir
    // churn through capacity evictions mid-stream.
    let touches: Vec<TraceOp> = (0..stream)
        .map(|i| guarded_load(chunk_at(i, bs).start() + 0x40))
        .collect();
    b.step(0, touches);
    // Core 1 maps one of them and dirties it in its SPM.
    b.step(1, vec![get(0, mapped), sync(&[0]), spm_store(0, z)]);
    // Core 0 must observe the SPM copy despite its earlier filter history.
    b.step(0, vec![guarded_load(z)]);
    b.step(1, vec![put(0, mapped), sync(&[0])]);
    b.step(0, vec![guarded_load(z)]);
    b.build()
}

/// Two transfers with distinct tags, synchronised out of order: data of the
/// second tag is consumed while the first is still outstanding, then the
/// first is drained.  Values must be indifferent to the tag barriers.
fn dma_sync_tag_ordering(cores: usize, bs: ByteSize) -> RawKernel {
    let a = chunk_at(16, bs);
    let c = chunk_at(17, bs);
    let mut b = ProgramBuilder::new("dma_sync_tag_ordering", cores, bs);
    b.all(|_| alloc(2));
    b.step(
        0,
        vec![
            get(0, a),
            get(1, c),
            sync(&[1]),
            spm_store(1, c.start() + 0x18),
            spm_load(1, c.start() + 0x18),
            sync(&[0]),
            spm_store(0, a.start() + 0x20),
        ],
    );
    b.step(0, vec![put(0, a), put(1, c), sync(&[0, 1])]);
    // Another core re-reads both stores through the hierarchy.
    b.step(
        if cores > 1 { 1 } else { 0 },
        vec![
            guarded_load(a.start() + 0x20),
            guarded_load(c.start() + 0x18),
        ],
    );
    b.build()
}

/// A store into the locally mapped chunk is observed remotely (case *d* of
/// Figure 5) while mapped, and through memory after the write-back.
fn local_store_remote_load(cores: usize, bs: ByteSize) -> RawKernel {
    assert!(cores >= 2, "needs two cores");
    let chunk = chunk_at(24, bs);
    let v = chunk.start() + 0x10;
    let mut b = ProgramBuilder::new("local_store_remote_load", cores, bs);
    b.all(|_| alloc(2));
    b.step(0, vec![get(0, chunk), sync(&[0]), spm_store(0, v)]);
    b.step(1, vec![guarded_load(v)]);
    b.step(0, vec![put(0, chunk), sync(&[0])]);
    b.step(1, vec![guarded_load(v)]);
    b.build()
}

/// The stale-filter window of Figure 6a: a core caches "not mapped
/// anywhere" in its filter, another core then maps the chunk and writes it
/// in its SPM.  The mapping's invalidation round must purge the stale
/// filter entry, or the first core's next guarded load reads stale memory.
///
/// This is the designated victim for
/// `ProtocolFault::SkipFilterInvalidationOnMap`: with the fault injected
/// the oracle reports a divergence at the final load.
fn stale_filter_after_map(cores: usize, bs: ByteSize) -> RawKernel {
    assert!(cores >= 2, "needs two cores");
    let chunk = chunk_at(32, bs);
    let w = chunk.start() + 0x40;
    let mut b = ProgramBuilder::new("stale_filter_after_map", cores, bs);
    b.all(|_| alloc(2));
    // Core 0 caches the "unmapped" verdict in its filter.
    b.step(0, vec![guarded_load(w)]);
    // Core 1 maps the chunk (must invalidate core 0's filter entry) and
    // dirties it in its SPM.
    b.step(1, vec![get(0, chunk), sync(&[0]), spm_store(0, w)]);
    // Correct protocol: diverted to core 1's SPM.  Faulty protocol: filter
    // hit, served from stale global memory — a value divergence.
    b.step(0, vec![guarded_load(w)]);
    b.step(1, vec![put(0, chunk), sync(&[0])]);
    b.step(0, vec![guarded_load(w)]);
    b.build()
}

// -------------------------------------------------------------- fuzz layer

/// Shape of a generated random program.
#[derive(Debug, Clone, Copy)]
pub struct FuzzParams {
    /// Number of cores.
    pub cores: usize,
    /// SPM buffer size (chunk alignment).
    pub buffer_size: ByteSize,
    /// Map/compute/write-back rounds per core.
    pub rounds: usize,
    /// Random work ops per round per core.
    pub ops_per_round: usize,
    /// Code generation mode (hybrid: DMA + SPM + guarded; cache-only: the
    /// same addresses through plain cached accesses).
    pub mode: ExecMode,
}

impl FuzzParams {
    /// The default fuzz shape for a `cores`-core machine with `spm_size`
    /// scratchpads partitioned into two buffers.
    pub fn small(cores: usize, spm_size: ByteSize, mode: ExecMode) -> Self {
        FuzzParams {
            cores,
            buffer_size: spm_size / 2,
            rounds: 4,
            ops_per_round: 24,
            mode,
        }
    }
}

/// Fuzz data-region bases (disjoint from litmus and the compiled specs).
const FUZZ_STRIDED_BASE: u64 = 0x5000_0000_0000;
const FUZZ_GUARDED_BASE: u64 = 0x5800_0000_0000;
const FUZZ_GM_BASE: u64 = 0x6000_0000_0000;
/// Bytes of each core's private slice of the plain-GM region.
const FUZZ_GM_SLICE: u64 = 4096;
/// Bytes of each chunk actually transferred and accessed (≤ buffer size;
/// smaller keeps the DMA traffic proportionate to the work ops).
fn fuzz_chunk_len(bs: ByteSize) -> u64 {
    bs.bytes().min(1024)
}

/// The strided chunk core `c` maps in round `r`.
fn strided_chunk(c: usize, r: usize, params: &FuzzParams) -> AddressRange {
    let index = (c * params.rounds + r) as u64;
    AddressRange::new(
        Addr::new(FUZZ_STRIDED_BASE + index * params.buffer_size.bytes()),
        fuzz_chunk_len(params.buffer_size),
    )
}

/// The guarded-region chunk index core `c` maps in round `r`.
///
/// Each chunk is mapped at most once over the whole program, and its
/// *writer* (`owner = index % cores`) is a different core than its mapper,
/// so remote-SPM traffic arises while the single-writer discipline holds.
fn guarded_chunk_index(c: usize, r: usize, params: &FuzzParams) -> u64 {
    (r * params.cores + ((c + 1) % params.cores)) as u64
}

fn guarded_chunk(index: u64, params: &FuzzParams) -> AddressRange {
    AddressRange::new(
        Addr::new(FUZZ_GUARDED_BASE + index * params.buffer_size.bytes()),
        fuzz_chunk_len(params.buffer_size),
    )
}

fn rand_word_in(rng: &mut SimRng, range: AddressRange) -> Addr {
    let words = range.len() / 8;
    range.start() + rng.gen_range(0..words) * 8
}

/// Generates a seeded random multi-core program.
///
/// Invariants honoured (they are what make the oracle and the cross-model
/// image comparison sound — see the module docs):
///
/// * strided (SPM-class) accesses stay inside the chunk their buffer
///   currently maps, and every core's strided chunks are private;
/// * accesses to the guarded region are always guarded instructions, and a
///   core only *writes* the guarded chunks it owns (`index % cores`);
/// * plain-GM accesses stay in the never-mapped region, writes in the
///   core's own slice; stack traffic is per-core by construction;
/// * every mapped chunk is written back (`dma-put`) before `LoopEnd`.
pub fn random_program(seed: u64, params: &FuzzParams) -> RawKernel {
    assert!(params.cores >= 1);
    let hybrid = params.mode == ExecMode::Hybrid;
    let total_guarded_chunks = (params.rounds * params.cores) as u64;
    let mut root = SimRng::seed_from_u64(seed ^ 0x5EED_C0DE_FACE_0FF5);
    let mut rounds: Vec<Vec<Vec<TraceOp>>> = Vec::with_capacity(params.cores);
    let mut guarded_any = false;

    for c in 0..params.cores {
        let mut rng = root.fork(c as u64);
        let mut core_rounds: Vec<Vec<TraceOp>> = Vec::with_capacity(params.rounds + 2);
        if hybrid {
            core_rounds.push(alloc(2));
        }
        for r in 0..params.rounds {
            let mut ops: Vec<TraceOp> = Vec::with_capacity(params.ops_per_round + 8);
            let s_chunk = strided_chunk(c, r, params);
            let g_index = guarded_chunk_index(c, r, params);
            let g_chunk = guarded_chunk(g_index, params);
            if hybrid {
                ops.push(TraceOp::SetPhase(Phase::Control));
                if r > 0 {
                    ops.push(put(0, strided_chunk(c, r - 1, params)));
                    ops.push(put(
                        1,
                        guarded_chunk(guarded_chunk_index(c, r - 1, params), params),
                    ));
                }
                ops.push(get(0, s_chunk));
                ops.push(get(1, g_chunk));
                ops.push(TraceOp::SetPhase(Phase::Sync));
                ops.push(sync(&[0, 1]));
                ops.push(TraceOp::SetPhase(Phase::Work));
            }
            for _ in 0..params.ops_per_round {
                let op = match rng.gen_range(0..10) {
                    0 | 1 => {
                        // Strided access to the own mapped chunk.
                        let addr = rand_word_in(&mut rng, s_chunk);
                        let class = if hybrid {
                            MemRefClass::SpmStrided { buffer: 0 }
                        } else {
                            MemRefClass::GmStrided
                        };
                        let store = rng.gen_bool(0.5);
                        mem_op(addr, class, store, 700 + c as u64)
                    }
                    2..=4 => {
                        // Guarded load anywhere in the guarded region
                        // (mapped by anyone, or never mapped).
                        let idx = rng.gen_range(0..total_guarded_chunks);
                        let addr = rand_word_in(&mut rng, guarded_chunk(idx, params));
                        let class = if hybrid {
                            MemRefClass::Guarded
                        } else {
                            MemRefClass::Gm
                        };
                        guarded_any |= hybrid;
                        mem_op(addr, class, false, 800)
                    }
                    5 => {
                        // Guarded store, restricted to the chunks this core
                        // owns (single writer per address).
                        let owned =
                            rng.gen_range(0..params.rounds as u64) * params.cores as u64 + c as u64;
                        let addr = rand_word_in(&mut rng, guarded_chunk(owned, params));
                        let class = if hybrid {
                            MemRefClass::Guarded
                        } else {
                            MemRefClass::Gm
                        };
                        guarded_any |= hybrid;
                        mem_op(addr, class, true, 801)
                    }
                    6 => {
                        // Plain GM load anywhere in the never-mapped region.
                        let span = FUZZ_GM_SLICE * params.cores as u64;
                        let addr = Addr::new(FUZZ_GM_BASE + rng.gen_range(0..span / 8) * 8);
                        mem_op(addr, MemRefClass::Gm, false, 810)
                    }
                    7 => {
                        // Plain GM store in the own slice.
                        let base = FUZZ_GM_BASE + c as u64 * FUZZ_GM_SLICE;
                        let addr = Addr::new(base + rng.gen_range(0..FUZZ_GM_SLICE / 8) * 8);
                        mem_op(addr, MemRefClass::Gm, true, 811)
                    }
                    8 => {
                        // Stack traffic (per-core private window).
                        let addr = stack_base(c) + (rng.gen_range(0..2048) & !7);
                        mem_op(addr, MemRefClass::Stack, rng.gen_bool(0.4), 0)
                    }
                    _ => TraceOp::Compute {
                        insts: rng.gen_range(20..200),
                    },
                };
                ops.push(op);
            }
            core_rounds.push(ops);
        }
        // Epilogue: drain every mapping, then end the loop.
        let mut tail = Vec::new();
        if hybrid {
            tail.push(TraceOp::SetPhase(Phase::Control));
            tail.push(put(0, strided_chunk(c, params.rounds - 1, params)));
            tail.push(put(
                1,
                guarded_chunk(guarded_chunk_index(c, params.rounds - 1, params), params),
            ));
            tail.push(TraceOp::SetPhase(Phase::Sync));
            tail.push(sync(&[0, 1]));
        }
        tail.push(TraceOp::LoopEnd);
        core_rounds.push(tail);
        rounds.push(core_rounds);
    }

    RawKernel {
        name: format!("fuzz-{seed:#x}"),
        buffer_size: params.buffer_size,
        guarded: guarded_any,
        code_base: Addr::new(0x48_0000),
        code_size: 16 * 1024,
        rounds,
    }
}

fn mem_op(addr: Addr, class: MemRefClass, is_store: bool, reference_id: u64) -> TraceOp {
    if is_store {
        TraceOp::Store {
            addr,
            class,
            reference_id,
        }
    } else {
        TraceOp::Load {
            addr,
            class,
            reference_id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn bs() -> ByteSize {
        ByteSize::kib(4)
    }

    #[test]
    fn catalogue_builds_for_various_core_counts() {
        for cores in [2, 4, 8] {
            for case in catalogue() {
                let k = (case.build)(cores, bs());
                assert_eq!(k.cores(), cores, "{}", case.name);
                assert!(k.rounds.iter().any(|r| r.len() >= 2));
                // Every DMA mapping is written back and the loop is ended.
                let ops: Vec<&TraceOp> = k.rounds.iter().flatten().flatten().collect();
                let gets = ops
                    .iter()
                    .filter(|o| matches!(o, TraceOp::DmaGet { .. }))
                    .count();
                let puts = ops
                    .iter()
                    .filter(|o| matches!(o, TraceOp::DmaPut { .. }))
                    .count();
                assert_eq!(gets, puts, "{}: every get is put back", case.name);
                assert!(ops.iter().any(|o| matches!(o, TraceOp::LoopEnd)));
            }
        }
    }

    #[test]
    fn litmus_steps_are_padded_for_clock_alignment() {
        let k = dma_get_snoops_dirty_line(2, bs());
        for core in &k.rounds {
            for round in core {
                assert!(
                    matches!(round.first(), Some(TraceOp::Compute { insts }) if *insts == STEP_PAD_INSTS),
                    "every round starts with the alignment pad"
                );
            }
        }
        // Rounds are aligned across cores.
        assert_eq!(k.rounds[0].len(), k.rounds[1].len());
    }

    #[test]
    fn random_programs_are_deterministic_per_seed() {
        let params = FuzzParams::small(4, ByteSize::kib(8), ExecMode::Hybrid);
        let a = random_program(7, &params);
        let b = random_program(7, &params);
        assert_eq!(a.rounds, b.rounds);
        let c = random_program(8, &params);
        assert_ne!(a.rounds, c.rounds);
    }

    #[test]
    fn random_programs_honour_the_single_writer_discipline() {
        for mode in [ExecMode::Hybrid, ExecMode::CacheOnly] {
            let params = FuzzParams::small(4, ByteSize::kib(8), mode);
            for seed in 0..8 {
                let k = random_program(seed, &params);
                let mut writer: HashMap<u64, usize> = HashMap::new();
                for (core, rounds) in k.rounds.iter().enumerate() {
                    for op in rounds.iter().flatten() {
                        if let TraceOp::Store { addr, .. } = op {
                            let word = addr.raw() & !7;
                            let prev = writer.insert(word, core);
                            assert!(
                                prev.is_none() || prev == Some(core),
                                "word {word:#x} written by cores {prev:?} and {core}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn random_programs_map_each_chunk_at_most_once() {
        let params = FuzzParams::small(4, ByteSize::kib(8), ExecMode::Hybrid);
        let k = random_program(3, &params);
        let mut seen = std::collections::HashSet::new();
        for rounds in &k.rounds {
            for op in rounds.iter().flatten() {
                if let TraceOp::DmaGet { chunk, .. } = op {
                    assert!(seen.insert(chunk.start().raw()), "chunk mapped twice");
                    assert_eq!(
                        chunk.start().raw() % params.buffer_size.bytes(),
                        0,
                        "chunks are buffer-size aligned"
                    );
                }
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn cache_only_programs_have_no_dma_or_spm_classes() {
        let params = FuzzParams::small(2, ByteSize::kib(8), ExecMode::CacheOnly);
        let k = random_program(1, &params);
        assert!(!k.guarded);
        for rounds in &k.rounds {
            for op in rounds.iter().flatten() {
                assert!(
                    !matches!(
                        op,
                        TraceOp::DmaGet { .. }
                            | TraceOp::DmaPut { .. }
                            | TraceOp::DmaSync { .. }
                            | TraceOp::AllocateBuffers { .. }
                    ),
                    "cache-only programs must not issue DMA: {op:?}"
                );
                if let TraceOp::Load { class, .. } | TraceOp::Store { class, .. } = op {
                    assert!(!class.is_guarded() && !class.is_spm());
                }
            }
        }
    }

    #[test]
    fn strided_accesses_stay_inside_their_mapped_chunk() {
        let params = FuzzParams::small(4, ByteSize::kib(8), ExecMode::Hybrid);
        let k = random_program(11, &params);
        for (core, rounds) in k.rounds.iter().enumerate() {
            let mut mapped: HashMap<usize, AddressRange> = HashMap::new();
            for op in rounds.iter().flatten() {
                match op {
                    TraceOp::DmaGet { buffer, chunk, .. } => {
                        mapped.insert(*buffer, *chunk);
                    }
                    TraceOp::Load {
                        addr,
                        class: MemRefClass::SpmStrided { buffer },
                        ..
                    }
                    | TraceOp::Store {
                        addr,
                        class: MemRefClass::SpmStrided { buffer },
                        ..
                    } => {
                        let chunk = mapped.get(buffer).expect("access before mapping");
                        assert!(
                            chunk.contains(*addr),
                            "core {core}: {addr} outside mapped chunk {chunk}"
                        );
                    }
                    _ => {}
                }
            }
        }
    }
}
