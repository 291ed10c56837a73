//! The full global-memory hierarchy: private L1s, shared NUCA L2 with a MOESI
//! directory, memory controllers, and the DMA bus requests of the hybrid
//! memory system.
//!
//! This is a combined functional/timing model.  Tag state (which lines are
//! where, in which MOESI state, and which cores the directory believes hold
//! copies) is tracked exactly; every demand access returns a latency and
//! injects into the [`Noc`] the packets the corresponding directory-protocol
//! transaction would send, labelled with the message classes of the paper's
//! Figure 10.

use serde::{Deserialize, Serialize};
use simkernel::{ByteSize, CoreId, Cycle, NodeId, StatRegistry};

use noc::{MessageClass, Noc, NocConfig};

use crate::addr::{Addr, LineAddr, LINE_BYTES};
use crate::cache::{CacheBank, CacheConfig};
use crate::dram::{DramConfig, DramModel};
use crate::moesi::{DirectoryEntry, MoesiState};
use crate::prefetcher::{PrefetcherConfig, StridePrefetcher};
use crate::values::{word_index, LineValues, ValueStore, WORDS_PER_LINE};

/// The kind of demand access performed by a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A data load.
    Load,
    /// A data store.
    Store,
    /// An instruction fetch.
    Ifetch,
}

impl AccessKind {
    /// Returns `true` for stores.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Store)
    }
}

/// Which level of the hierarchy ended up providing the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServedBy {
    /// The core's own L1 cache.
    L1,
    /// The home slice of the shared NUCA L2.
    L2,
    /// A dirty copy forwarded from another core's L1.
    RemoteL1,
    /// Main memory.
    Dram,
}

/// The outcome of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccessResult {
    /// Total latency of the access, including all NoC legs.
    pub latency: Cycle,
    /// The level that provided the data.
    pub served_by: ServedBy,
    /// `true` if the access hit in the L1.
    pub l1_hit: bool,
}

/// Configuration of the whole cache hierarchy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemorySystemConfig {
    /// Number of cores / tiles.
    pub cores: usize,
    /// Private instruction cache configuration.
    pub l1i: CacheConfig,
    /// Private data cache configuration.
    pub l1d: CacheConfig,
    /// Per-tile slice of the shared NUCA L2.
    pub l2_slice: CacheConfig,
    /// Stride prefetcher attached to the L1 data cache.
    pub prefetcher: PrefetcherConfig,
    /// Main memory configuration.
    pub dram: DramConfig,
    /// Network configuration.
    pub noc: NocConfig,
}

impl MemorySystemConfig {
    /// The hybrid-memory-system configuration of Table 1: 32 KB L1 I/D,
    /// 256 KB L2 slice per core, MOESI, mesh NoC.
    pub fn isca2015(cores: usize) -> Self {
        MemorySystemConfig {
            cores,
            l1i: CacheConfig::new("l1i", ByteSize::kib(32), 4, Cycle::new(2)),
            l1d: CacheConfig::new("l1d", ByteSize::kib(32), 4, Cycle::new(2)),
            l2_slice: CacheConfig::new("l2", ByteSize::kib(256), 16, Cycle::new(15)),
            prefetcher: PrefetcherConfig::isca2015(),
            dram: DramConfig::isca2015(),
            noc: NocConfig::isca2015(cores),
        }
    }

    /// The cache-based baseline of §5.4: identical, but the L1 data cache is
    /// enlarged to 64 KB to match the 32 KB L1 + 32 KB SPM capacity of the
    /// hybrid system (same latency, as in the paper).
    pub fn cache_baseline(cores: usize) -> Self {
        let mut cfg = Self::isca2015(cores);
        cfg.l1d = CacheConfig::new("l1d", ByteSize::kib(64), 4, Cycle::new(2));
        cfg
    }

    /// A scaled-down configuration for fast tests and benches: the cache and
    /// L2 sizes shrink with the core count so that scaled workloads keep the
    /// same capacity relationships as the full machine.
    pub fn small(cores: usize) -> Self {
        MemorySystemConfig {
            cores,
            l1i: CacheConfig::new("l1i", ByteSize::kib(8), 4, Cycle::new(2)),
            l1d: CacheConfig::new("l1d", ByteSize::kib(8), 4, Cycle::new(2)),
            l2_slice: CacheConfig::new("l2", ByteSize::kib(64), 16, Cycle::new(15)),
            prefetcher: PrefetcherConfig::isca2015(),
            dram: DramConfig::isca2015(),
            noc: NocConfig::isca2015(cores),
        }
    }
}

impl Default for MemorySystemConfig {
    fn default() -> Self {
        Self::isca2015(64)
    }
}

/// The aggregate hierarchy counters, used for reports, the energy model and
/// the trace's `mem.*` tracks.
///
/// The access paths bump these fields directly; [`MemorySystem::counters`]
/// returns a copy and [`HierarchyCounters::named`] lists them under their
/// `mem.*` statistic names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyCounters {
    /// L1 data cache accesses (loads + stores reaching the tag array).
    pub l1d_accesses: u64,
    /// L1 data cache hits.
    pub l1d_hits: u64,
    /// L1 instruction cache accesses.
    pub l1i_accesses: u64,
    /// L1 instruction cache hits.
    pub l1i_hits: u64,
    /// L2 slice accesses (demand + prefetch + DMA probes).
    pub l2_accesses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// Lines read from or written to DRAM.
    pub dram_accesses: u64,
    /// Dirty lines written back from L1 to L2.
    pub l1_writebacks: u64,
    /// Lines evicted from L2 (with back-invalidation of L1 copies).
    pub l2_evictions: u64,
    /// Invalidation messages sent to L1 caches.
    pub invalidations: u64,
    /// Prefetch requests issued by the L1 prefetchers.
    pub prefetches: u64,
    /// Cache-to-cache forwards of dirty data.
    pub forwards: u64,
    /// DMA line reads (dma-get).
    pub dma_line_reads: u64,
    /// DMA line writes (dma-put).
    pub dma_line_writes: u64,
}

impl HierarchyCounters {
    /// Every counter under its `mem.*` statistic name, in the order the
    /// trace lays out its counter tracks.
    pub fn named(&self) -> [(&'static str, u64); 14] {
        // No `..`: a new field fails to compile until it is named here.
        let HierarchyCounters {
            l1d_accesses,
            l1d_hits,
            l1i_accesses,
            l1i_hits,
            l2_accesses,
            l2_hits,
            dram_accesses,
            l1_writebacks,
            l2_evictions,
            invalidations,
            prefetches,
            forwards,
            dma_line_reads,
            dma_line_writes,
        } = *self;
        [
            ("mem.l1d.accesses", l1d_accesses),
            ("mem.l1d.hits", l1d_hits),
            ("mem.l1i.accesses", l1i_accesses),
            ("mem.l1i.hits", l1i_hits),
            ("mem.l2.accesses", l2_accesses),
            ("mem.l2.hits", l2_hits),
            ("mem.dram.accesses", dram_accesses),
            ("mem.l1.writebacks", l1_writebacks),
            ("mem.l2.evictions", l2_evictions),
            ("mem.invalidations", invalidations),
            ("mem.prefetches", prefetches),
            ("mem.forwards", forwards),
            ("mem.dma.line_reads", dma_line_reads),
            ("mem.dma.line_writes", dma_line_writes),
        ]
    }
}

/// The full memory hierarchy shared by all cores.
///
/// # Example
///
/// ```
/// use mem::{AccessKind, Addr, MemorySystem, MemorySystemConfig};
/// use noc::MessageClass;
/// use simkernel::CoreId;
///
/// let mut memsys = MemorySystem::new(MemorySystemConfig::small(4));
/// let first = memsys.access(CoreId::new(0), Addr::new(0x10_0000), AccessKind::Load,
///                           MessageClass::Read, 1);
/// let second = memsys.access(CoreId::new(0), Addr::new(0x10_0000), AccessKind::Load,
///                            MessageClass::Read, 1);
/// assert!(!first.l1_hit);
/// assert!(second.l1_hit);
/// assert!(second.latency < first.latency);
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    config: MemorySystemConfig,
    noc: Noc,
    /// One unit per core: its private L1 instruction cache.
    l1i: CacheBank<()>,
    /// One unit per core: its private L1 data cache.
    l1d: CacheBank<MoesiState>,
    /// One unit per tile: its slice of the shared L2 and its directory.
    l2: CacheBank<DirectoryEntry>,
    prefetchers: Vec<StridePrefetcher>,
    dram: DramModel,
    counters: HierarchyCounters,
    /// `cores - 1`, meaningful only when `cores_pow2`: the home-slice hash
    /// runs on every access of every core, so the usual power-of-two core
    /// counts take an AND instead of a modulo.
    cores_mask: u64,
    cores_pow2: bool,
    /// Optional functional memory: per-L1, per-L2-slice and DRAM value
    /// copies, moved along the same paths as the modelled transactions.
    values: Option<HierarchyValues>,
    /// Presentation-only latency attribution for cycle accounting:
    /// demand-miss-path NoC legs accumulate their queueing component
    /// (measured latency minus the backend-agreed zero-load latency) here, and
    /// the engine drains it per access to split stall cycles between the
    /// `NocQueue` and `MissWait` accounting categories.  Never changes any
    /// modelled latency.
    attrib_queue: Cycle,
}

/// The value copies of every level of the hierarchy (one [`ValueStore`] per
/// L1 data cache, one per L2 slice, one for DRAM).
#[derive(Debug)]
struct HierarchyValues {
    dram: ValueStore,
    l1d: Vec<ValueStore>,
    l2: Vec<ValueStore>,
}

impl HierarchyValues {
    fn new(cores: usize) -> Self {
        HierarchyValues {
            dram: ValueStore::new(),
            l1d: (0..cores).map(|_| ValueStore::new()).collect(),
            l2: (0..cores).map(|_| ValueStore::new()).collect(),
        }
    }
}

impl MemorySystem {
    /// Builds the hierarchy for the given configuration.
    pub fn new(config: MemorySystemConfig) -> Self {
        let cores = config.cores;
        MemorySystem {
            noc: Noc::new(config.noc),
            l1i: CacheBank::new(&config.l1i, cores),
            l1d: CacheBank::new(&config.l1d, cores),
            l2: CacheBank::new(&config.l2_slice, cores),
            prefetchers: (0..cores)
                .map(|_| StridePrefetcher::new(config.prefetcher))
                .collect(),
            dram: DramModel::new(config.dram.clone(), cores),
            config,
            counters: HierarchyCounters::default(),
            cores_mask: (cores as u64).wrapping_sub(1),
            cores_pow2: cores.is_power_of_two(),
            values: None,
            attrib_queue: Cycle::ZERO,
        }
    }

    /// Attaches the functional value stores (see `SystemConfig.track_values`).
    ///
    /// Must be called before the first access: the value stores assume every
    /// resident line was filled while tracking was active.
    pub fn enable_value_tracking(&mut self) {
        if self.values.is_none() {
            self.values = Some(HierarchyValues::new(self.config.cores));
        }
    }

    /// Drains the queueing cycles accumulated since the last call: the sum,
    /// over the demand-miss-path NoC legs of the accesses in between, of
    /// measured send latency minus the backend-agreed zero-load latency.
    ///
    /// Under the discrete-event NoC this is real home/link queueing; under
    /// the analytic backend it is the modelled contention term.  The engine
    /// calls this after every demand access so the accumulator never spans
    /// unrelated instructions.
    pub fn take_attributed_queue(&mut self) -> Cycle {
        std::mem::replace(&mut self.attrib_queue, Cycle::ZERO)
    }

    /// Sends one packet on a demand-miss critical-path leg, accumulating its
    /// queueing component for latency attribution.
    ///
    /// Off-critical-path traffic (write-backs, DMA line moves) goes straight
    /// to [`Noc::send`], and invalidation rounds to [`Noc::fan_out`] (only
    /// the slowest sharer's round trip is on the critical path).  Prefetch
    /// fills use the demand path and discard what it accumulates.
    #[inline]
    fn send_demand(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: MessageClass,
        payload_bytes: u64,
    ) -> Cycle {
        let latency = self.noc.send(from, to, class, payload_bytes);
        let zero_load = self.config.noc.zero_load_latency(from, to, payload_bytes);
        self.attrib_queue += latency.saturating_sub(zero_load);
        latency
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemorySystemConfig {
        &self.config
    }

    /// Immutable access to the on-chip network (traffic counters).
    pub fn noc(&self) -> &Noc {
        &self.noc
    }

    /// Mutable access to the on-chip network.
    ///
    /// The SPM coherence protocol shares the NoC with the cache hierarchy; it
    /// injects its own packets through this handle.
    pub fn noc_mut(&mut self) -> &mut Noc {
        &mut self.noc
    }

    /// Advances the network's clock to `now` (monotonic).
    ///
    /// The machine driver calls this with the issuing core's cycle before
    /// each trace operation so the discrete-event NoC backend queues packets
    /// in simulation time; the analytic backend ignores it.
    pub fn advance_noc(&mut self, now: Cycle) {
        self.noc.advance_to(now);
    }

    /// A snapshot of the aggregate counters for reports and the energy model;
    /// mid-run it is the cumulative count so far, which the trace sampler
    /// differentiates into a time-series.
    pub fn counters(&self) -> HierarchyCounters {
        self.counters
    }

    /// Which L2 slice (core/tile index) is home for a line.
    #[inline]
    pub fn home_slice(&self, line: LineAddr) -> CoreId {
        let n = line.number();
        let idx = if self.cores_pow2 {
            n & self.cores_mask
        } else {
            n % self.config.cores as u64
        };
        CoreId::new(idx as usize)
    }

    /// Returns `true` if any L1 or L2 slice currently holds the line.
    pub fn is_cached(&self, line: LineAddr) -> bool {
        let home = self.home_slice(line);
        if self.l2.contains(home.index(), line) {
            return true;
        }
        (0..self.config.cores).any(|core| self.l1d.contains(core, line))
    }

    /// MOESI state of the line in a particular core's L1 data cache.
    pub fn l1_state(&self, core: CoreId, line: LineAddr) -> MoesiState {
        self.l1d
            .lookup(core.index(), line)
            .copied()
            .unwrap_or(MoesiState::Invalid)
    }

    // ---------------------------------------------------------------- values

    /// The freshest value copy of `line`, following the protocol state: a
    /// dirty L1 owner first, then the home L2 slice, then DRAM.
    fn freshest_line(&self, line: LineAddr) -> Option<LineValues> {
        let vals = self.values.as_ref()?;
        let home = self.home_slice(line);
        if let Some(entry) = self.l2.lookup(home.index(), line) {
            if entry.has_dirty_owner() {
                if let Some(owner) = entry.owner() {
                    if let Some(v) = vals.l1d[owner.index()].line(line) {
                        return Some(*v);
                    }
                }
            }
            if let Some(v) = vals.l2[home.index()].line(line) {
                return Some(*v);
            }
        }
        vals.dram.line(line).copied()
    }

    /// Reads the word containing `addr` as observed by `core`: its own L1
    /// copy if it holds one, the freshest copy otherwise.
    ///
    /// Returns `None` when value tracking is off.  Unwritten memory reads
    /// as zero.
    pub fn read_word(&self, core: CoreId, addr: Addr) -> Option<u64> {
        let vals = self.values.as_ref()?;
        let line = addr.line();
        if let Some(v) = vals.l1d[core.index()].line(line) {
            return Some(v[word_index(addr)]);
        }
        Some(self.freshest_line(line).map_or(0, |v| v[word_index(addr)]))
    }

    /// Writes the word containing `addr` on behalf of a store by `core`,
    /// into the highest level of the hierarchy holding the line (its L1
    /// copy normally; the home L2 slice or DRAM if a prefetch-induced
    /// eviction displaced it within the same access).
    pub fn write_word(&mut self, core: CoreId, addr: Addr, value: u64) {
        if self.values.is_none() {
            return;
        }
        let line = addr.line();
        let home = self.home_slice(line);
        let in_l1 = self.l1d.contains(core.index(), line);
        let in_l2 = self.l2.contains(home.index(), line);
        let l2_seed = if !in_l1 && in_l2 {
            // Materialising an L2 value line for a partial write must start
            // from the DRAM copy it currently mirrors, not from zeros.
            self.values
                .as_ref()
                .and_then(|v| v.dram.line(line).copied())
        } else {
            None
        };
        let vals = self.values.as_mut().expect("checked above");
        if in_l1 {
            vals.l1d[core.index()].write_word(addr, value);
        } else if in_l2 {
            if !vals.l2[home.index()].has_line(line) {
                if let Some(seed) = l2_seed {
                    vals.l2[home.index()].set_line(line, seed);
                }
            }
            vals.l2[home.index()].write_word(addr, value);
        } else {
            vals.dram.write_word(addr, value);
        }
    }

    /// The merged functional-memory image: DRAM overlaid with every dirty
    /// cached copy, so each word reads as its freshest value.  `None` when
    /// value tracking is off.
    ///
    /// Scratchpad-resident values are *not* included — they live with the
    /// system layer, which overlays them on top of this image.
    pub fn value_image(&self) -> Option<std::collections::BTreeMap<u64, u64>> {
        let vals = self.values.as_ref()?;
        let mut image = vals.dram.nonzero_words();
        let mut overlay = |line: LineAddr, values: &LineValues| {
            for (w, v) in values.iter().enumerate() {
                let addr = line.base().raw() + (w as u64) * 8;
                if *v != 0 {
                    image.insert(addr, *v);
                } else {
                    image.remove(&addr);
                }
            }
        };
        for home in 0..self.config.cores {
            for (line, entry) in self.l2.resident_lines(home) {
                if entry.l2_dirty {
                    if let Some(v) = vals.l2[home].line(line) {
                        overlay(line, v);
                    }
                }
            }
        }
        for core in 0..self.config.cores {
            for (line, state) in self.l1d.resident_lines(core) {
                if state.is_dirty() {
                    if let Some(v) = vals.l1d[core].line(line) {
                        overlay(line, v);
                    }
                }
            }
        }
        Some(image)
    }

    // ----------------------------------------------------------------- demand

    /// Performs one demand access from `core` to `addr`.
    ///
    /// `class` selects the traffic group the generated packets are accounted
    /// under (the paper separates instruction fetches, reads and writes).
    /// `reference_id` identifies the memory instruction for the stride
    /// prefetcher (the role the PC plays in hardware).
    pub fn access(
        &mut self,
        core: CoreId,
        addr: Addr,
        kind: AccessKind,
        class: MessageClass,
        reference_id: u64,
    ) -> MemAccessResult {
        match kind {
            AccessKind::Ifetch => self.ifetch(core, addr),
            AccessKind::Load | AccessKind::Store => {
                self.data_access(core, addr, kind, class, reference_id)
            }
        }
    }

    fn ifetch(&mut self, core: CoreId, addr: Addr) -> MemAccessResult {
        let line = addr.line();
        self.counters.l1i_accesses += 1;
        let l1_latency = self.config.l1i.latency;
        if self.l1i.access(core.index(), line).is_some() {
            self.counters.l1i_hits += 1;
            return MemAccessResult {
                latency: l1_latency,
                served_by: ServedBy::L1,
                l1_hit: true,
            };
        }
        // Instruction lines are read-only: fetch from the home L2 slice (or
        // memory) without directory bookkeeping.
        let (remote_latency, served_by) = self.fetch_into_l2(core, line, MessageClass::Ifetch);
        self.l1i.insert(core.index(), line, ());
        MemAccessResult {
            latency: l1_latency + remote_latency,
            served_by,
            l1_hit: false,
        }
    }

    fn data_access(
        &mut self,
        core: CoreId,
        addr: Addr,
        kind: AccessKind,
        class: MessageClass,
        reference_id: u64,
    ) -> MemAccessResult {
        let line = addr.line();
        let is_write = kind.is_write();
        self.counters.l1d_accesses += 1;
        let l1_latency = self.config.l1d.latency;

        // The tag-array access hands back the resident state mutably, so a
        // silent write hit flips it to Modified right here instead of paying
        // a second way scan through `lookup_mut`.
        let l1_state = match self.l1d.access(core.index(), line) {
            Some(s) => {
                let before = *s;
                if is_write && before.can_write_silently() {
                    *s = MoesiState::Modified;
                }
                Some(before)
            }
            None => None,
        };

        let result = match l1_state {
            Some(state) if !is_write || state.can_write_silently() => {
                // Plain hit.
                self.counters.l1d_hits += 1;
                if is_write {
                    self.set_directory_owner(core, line, MoesiState::Modified);
                }
                MemAccessResult {
                    latency: l1_latency,
                    served_by: ServedBy::L1,
                    l1_hit: true,
                }
            }
            Some(_) => {
                // Write hit on a Shared/Owned line: upgrade (invalidate peers).
                self.counters.l1d_hits += 1;
                let upgrade_latency = self.upgrade_for_write(core, line, class);
                if let Some(s) = self.l1d.lookup_mut(core.index(), line) {
                    *s = MoesiState::Modified;
                }
                MemAccessResult {
                    latency: l1_latency + upgrade_latency,
                    served_by: ServedBy::L1,
                    l1_hit: true,
                }
            }
            None => {
                // L1 miss: fetch through the home L2 slice.
                let (fill_latency, served_by) = self.l1_miss_fill(core, line, is_write, class);
                MemAccessResult {
                    latency: l1_latency + fill_latency,
                    served_by,
                    l1_hit: false,
                }
            }
        };

        // Train the stride prefetcher on every demand data access and bring
        // the predicted lines into the L1 (their latency is off the critical
        // path, but their traffic and cache pollution are real).
        if self.config.prefetcher.enabled {
            let predictions = self.prefetchers[core.index()].train(reference_id, addr);
            for target in predictions {
                self.prefetch_fill(core, target);
            }
        }

        result
    }

    /// Handles an L1 load/store miss, returning `(latency beyond L1, source)`.
    fn l1_miss_fill(
        &mut self,
        core: CoreId,
        line: LineAddr,
        is_write: bool,
        class: MessageClass,
    ) -> (Cycle, ServedBy) {
        let home = self.home_slice(line);
        let home_node = home.node();
        let core_node = core.node();

        // Request to the home slice.
        let request = self.send_demand(core_node, home_node, class, 8);
        let l2_latency = self.config.l2_slice.latency;
        self.counters.l2_accesses += 1;

        // The directory fields the fill reads: `(owner, owner holds it dirty)`.
        let l2_entry = self
            .l2
            .access(home.index(), line)
            .map(|e| (e.owner(), e.has_dirty_owner()));
        let mut fill_values: Option<LineValues> = None;
        let (beyond_l2, served_by) = if let Some((owner, dirty)) = l2_entry {
            self.counters.l2_hits += 1;
            if dirty && owner != Some(core) {
                // Forward from the dirty owner's L1 straight to the requestor.
                let owner = owner.expect("dirty owner");
                self.counters.forwards += 1;
                let fwd = self.send_demand(home_node, owner.node(), class, 8);
                let data = self.send_demand(owner.node(), core_node, class, LINE_BYTES);
                if let Some(vals) = &self.values {
                    // The forwarded data is the owner's copy (captured
                    // before a write invalidates it below).
                    fill_values = vals.l1d[owner.index()].line(line).copied();
                }
                // Owner's copy: a read leaves it Owned; a write invalidates it.
                if is_write {
                    self.l1d.invalidate(owner.index(), line);
                    if let Some(vals) = &mut self.values {
                        vals.l1d[owner.index()].remove_line(line);
                    }
                    self.counters.invalidations += 1;
                } else if let Some(s) = self.l1d.lookup_mut(owner.index(), line) {
                    *s = MoesiState::Owned;
                }
                (fwd + data, ServedBy::RemoteL1)
            } else {
                // Data supplied by the L2 slice.  A clean Exclusive owner in
                // another L1 is downgraded to Shared so it can no longer
                // write silently (a dirty owner here is the requestor).
                if let Some(owner) = owner {
                    if owner != core {
                        if let Some(s) = self.l1d.lookup_mut(owner.index(), line) {
                            if *s == MoesiState::Exclusive {
                                *s = MoesiState::Shared;
                            }
                        }
                    }
                }
                if let Some(vals) = &self.values {
                    // An unmaterialised L2 value line still mirrors DRAM.
                    fill_values = vals.l2[home.index()]
                        .line(line)
                        .or_else(|| vals.dram.line(line))
                        .copied();
                }
                let data = self.send_demand(home_node, core_node, class, LINE_BYTES);
                (data, ServedBy::L2)
            }
        } else {
            // L2 miss: fetch the line from memory into the home slice.
            let dram_latency = self.dram_fetch(home, line, class);
            if let Some(vals) = &self.values {
                fill_values = vals.dram.line(line).copied();
            }
            let data = self.send_demand(home_node, core_node, class, LINE_BYTES);
            (dram_latency + data, ServedBy::Dram)
        };

        // Invalidate other sharers on a write.
        let invalidation_latency = if is_write {
            self.invalidate_other_sharers(core, line)
        } else {
            Cycle::ZERO
        };

        // Update directory state at the home slice (one lookup decides the
        // fill state and applies the update; an absent entry is unshared, so
        // a read fill without one is Exclusive, matching the old default).
        let new_state = if let Some(entry) = self.l2.lookup_mut(home.index(), line) {
            let state = if is_write {
                MoesiState::Modified
            } else if entry.is_unshared() {
                MoesiState::Exclusive
            } else {
                MoesiState::Shared
            };
            if is_write {
                entry.clear_sharers();
            }
            entry.add_sharer(core, state);
            if is_write {
                entry.l2_dirty = true;
            }
            state
        } else if is_write {
            MoesiState::Modified
        } else {
            MoesiState::Exclusive
        };

        // Fill the L1, handling the victim.
        self.fill_l1(core, line, new_state, fill_values);

        (
            request + l2_latency + beyond_l2 + invalidation_latency,
            served_by,
        )
    }

    /// Write-upgrade of a line the core already holds in a shared state.
    fn upgrade_for_write(&mut self, core: CoreId, line: LineAddr, class: MessageClass) -> Cycle {
        let home = self.home_slice(line);
        let request = self.send_demand(core.node(), home.node(), class, 8);
        let grant = self.send_demand(home.node(), core.node(), class, 8);
        let inv = self.invalidate_other_sharers(core, line);
        if let Some(entry) = self.l2.lookup_mut(home.index(), line) {
            entry.clear_sharers();
            entry.add_sharer(core, MoesiState::Modified);
            entry.l2_dirty = true;
        }
        request + grant + inv
    }

    /// Invalidates every L1 copy of `line` except the requestor's.
    ///
    /// Returns the extra latency on the critical path (the slowest
    /// invalidation/ack round trip).  Invalidation traffic is accounted in
    /// the write-back/replacement group, as in the paper.
    fn invalidate_other_sharers(&mut self, requestor: CoreId, line: LineAddr) -> Cycle {
        let home = self.home_slice(line);
        // The entry borrows only the L2 bank, so its sharer set is walked in
        // place while the L1s, values, counters and NoC are updated.
        let Some(entry) = self.l2.lookup_mut(home.index(), line) else {
            return Cycle::ZERO;
        };
        for sharer in entry.sharers_except(requestor) {
            self.l1d.invalidate(sharer.index(), line);
            if let Some(vals) = &mut self.values {
                // The requestor's own copy (about to be written) is at least
                // as fresh as any dropped Owned copy, so no write-back of
                // values is needed here.
                vals.l1d[sharer.index()].remove_line(line);
            }
            self.counters.invalidations += 1;
        }
        // The home invalidates each sharer, which acks to the requestor.
        let worst = self.noc.fan_out(
            home.node(),
            entry.sharers_except(requestor).map(CoreId::node),
            requestor.node(),
            MessageClass::WbRepl,
        );
        let keep_requestor = entry.is_sharer(requestor);
        entry.clear_sharers();
        if keep_requestor {
            entry.add_sharer(requestor, MoesiState::Modified);
        }
        worst
    }

    /// Inserts a line into the requestor's L1, writing back the victim if
    /// dirty.  `values` is the data travelling with the fill when value
    /// tracking is on (`None` also for sources that still mirror DRAM).
    fn fill_l1(
        &mut self,
        core: CoreId,
        line: LineAddr,
        state: MoesiState,
        values: Option<LineValues>,
    ) {
        if let Some(victim) = self.l1d.insert(core.index(), line, state) {
            let victim_home = self.home_slice(victim.line);
            let victim_values = self
                .values
                .as_mut()
                .and_then(|v| v.l1d[core.index()].remove_line(victim.line));
            if victim.state.is_dirty() {
                // Write the dirty victim back to its home L2 slice.
                self.counters.l1_writebacks += 1;
                let _ = self.noc.send(
                    core.node(),
                    victim_home.node(),
                    MessageClass::WbRepl,
                    LINE_BYTES,
                );
                let l2_holds =
                    if let Some(entry) = self.l2.lookup_mut(victim_home.index(), victim.line) {
                        entry.remove_sharer(core);
                        entry.l2_dirty = true;
                        true
                    } else {
                        false
                    };
                if let (Some(vals), Some(v)) = (&mut self.values, victim_values) {
                    if l2_holds {
                        vals.l2[victim_home.index()].set_line(victim.line, v);
                    } else {
                        // Defensive: a write-back with no L2 entry lands in
                        // memory so the data is never lost.
                        vals.dram.set_line(victim.line, v);
                    }
                }
            } else if let Some(entry) = self.l2.lookup_mut(victim_home.index(), victim.line) {
                // Clean eviction: silently drop the sharer.
                entry.remove_sharer(core);
            }
        }
        if let Some(vals) = &mut self.values {
            vals.l1d[core.index()].copy_line(line, values);
        }
    }

    /// Ensures `line` is present in its home L2 slice, fetching it from DRAM
    /// if needed.  Returns the latency beyond the L2 lookup plus the source.
    fn fetch_into_l2(
        &mut self,
        core: CoreId,
        line: LineAddr,
        class: MessageClass,
    ) -> (Cycle, ServedBy) {
        let home = self.home_slice(line);
        let request = self.send_demand(core.node(), home.node(), class, 8);
        self.counters.l2_accesses += 1;
        let l2_latency = self.config.l2_slice.latency;
        if self.l2.access(home.index(), line).is_some() {
            self.counters.l2_hits += 1;
            let data = self.send_demand(home.node(), core.node(), class, LINE_BYTES);
            (request + l2_latency + data, ServedBy::L2)
        } else {
            let dram = self.dram_fetch(home, line, class);
            let data = self.send_demand(home.node(), core.node(), class, LINE_BYTES);
            (request + l2_latency + dram + data, ServedBy::Dram)
        }
    }

    /// Fetches a line from DRAM into the home L2 slice (allocating it there)
    /// and returns the latency of the DRAM leg.
    fn dram_fetch(&mut self, home: CoreId, line: LineAddr, class: MessageClass) -> Cycle {
        self.counters.dram_accesses += 1;
        let mem_node = self.dram.node_for(line);
        let to_mem = self.send_demand(home.node(), mem_node, class, 8);
        let dram_latency = self.dram.access(line);
        let back = self.send_demand(mem_node, home.node(), class, LINE_BYTES);
        self.allocate_in_l2(home, line, DirectoryEntry::new());
        to_mem + dram_latency + back
    }

    /// Inserts a directory entry in the home L2 slice, handling the eviction
    /// of the victim line (back-invalidation of L1 copies, write-back of dirty
    /// data to memory).
    fn allocate_in_l2(&mut self, home: CoreId, line: LineAddr, entry: DirectoryEntry) {
        if let Some(victim) = self.l2.insert(home.index(), line, entry) {
            self.counters.l2_evictions += 1;
            // Back-invalidate every L1 holding the victim (inclusive L2).
            let mut any_dirty_l1 = false;
            let mut dirty_l1_values: Option<LineValues> = None;
            for sharer in victim.state.sharers() {
                let dropped_values = self
                    .values
                    .as_mut()
                    .and_then(|v| v.l1d[sharer.index()].remove_line(victim.line));
                if let Some(state) = self.l1d.invalidate(sharer.index(), victim.line) {
                    if state.is_dirty() {
                        any_dirty_l1 = true;
                        dirty_l1_values = dropped_values.or(dirty_l1_values);
                    }
                }
                self.counters.invalidations += 1;
            }
            let _ = self.noc.fan_out(
                home.node(),
                victim.state.sharers().map(CoreId::node),
                home.node(),
                MessageClass::WbRepl,
            );
            let victim_l2_values = self
                .values
                .as_mut()
                .and_then(|v| v.l2[home.index()].remove_line(victim.line));
            if victim.state.l2_dirty || any_dirty_l1 {
                // Write the dirty victim back to memory.
                self.counters.dram_accesses += 1;
                let mem_node = self.dram.node_for(victim.line);
                let _ = self
                    .noc
                    .send(home.node(), mem_node, MessageClass::WbRepl, LINE_BYTES);
                let _ = self.dram.write(victim.line);
                if let Some(vals) = &mut self.values {
                    // The freshest copy wins: a dirty L1 over the slice copy.
                    if let Some(v) = dirty_l1_values.or(victim_l2_values) {
                        vals.dram.set_line(victim.line, v);
                    }
                }
            }
        }
        if let Some(vals) = &mut self.values {
            // A freshly allocated slice line mirrors memory.
            let from_dram = vals.dram.line(line).copied();
            vals.l2[home.index()].copy_line(line, from_dram);
        }
    }

    /// Brings a prefetched line into the L1 through the demand read path.
    ///
    /// The fill's latency is off the critical path, so it is dropped, and
    /// so is the queueing its legs would add to latency attribution; its
    /// traffic, cache pollution and coherence actions are real.
    fn prefetch_fill(&mut self, core: CoreId, line: LineAddr) {
        if self.l1d.contains(core.index(), line) {
            return;
        }
        self.counters.prefetches += 1;
        let attributed = self.attrib_queue;
        let _ = self.l1_miss_fill(core, line, false, MessageClass::Read);
        self.attrib_queue = attributed;
    }

    fn set_directory_owner(&mut self, core: CoreId, line: LineAddr, state: MoesiState) {
        let home = self.home_slice(line);
        if let Some(entry) = self.l2.lookup_mut(home.index(), line) {
            entry.add_sharer(core, state);
            entry.l2_dirty = true;
        }
    }

    // ------------------------------------------------------------------- DMA

    /// Reads one line on behalf of a `dma-get`, snooping the caches.
    ///
    /// As described in §2.1 of the paper, the bus request looks for the data
    /// in the caches and reads the freshest copy from there; otherwise it
    /// reads main memory.  Cache state is not disturbed.
    pub fn dma_get_line(&mut self, requestor: CoreId, line: LineAddr) -> Cycle {
        self.dma_get_line_valued(requestor, line).0
    }

    /// Like [`MemorySystem::dma_get_line`], also returning the line's data.
    ///
    /// The values come from the same place the modelled bus request read —
    /// the dirty L1 owner, the home L2 slice, or memory — *not* from a
    /// freshest-copy search, so a snooping bug returns stale values that
    /// the verification oracle can catch.  `None` when value tracking is
    /// off; unmaterialised source lines return zeros.
    pub fn dma_get_line_valued(
        &mut self,
        requestor: CoreId,
        line: LineAddr,
    ) -> (Cycle, Option<LineValues>) {
        self.counters.dma_line_reads += 1;
        let home = self.home_slice(line);
        let request = self
            .noc
            .send(requestor.node(), home.node(), MessageClass::Dma, 8);
        self.counters.l2_accesses += 1;
        let l2_latency = self.config.l2_slice.latency;

        // `Some(dirty owner)` for an L2 hit; the owner is `None` when clean.
        let entry = self
            .l2
            .lookup(home.index(), line)
            .map(|e| e.owner().filter(|_| e.has_dirty_owner()));
        let mut read_values: Option<LineValues> = None;
        let beyond = match entry {
            Some(Some(owner)) => {
                self.counters.l2_hits += 1;
                self.counters.forwards += 1;
                if let Some(vals) = &self.values {
                    read_values = Some(
                        vals.l1d[owner.index()]
                            .line(line)
                            .cloned()
                            .unwrap_or_default(),
                    );
                }
                let fwd = self
                    .noc
                    .send(home.node(), owner.node(), MessageClass::Dma, 8);
                let data = self.noc.send(
                    owner.node(),
                    requestor.node(),
                    MessageClass::Dma,
                    LINE_BYTES,
                );
                fwd + data
            }
            Some(None) => {
                self.counters.l2_hits += 1;
                if let Some(vals) = &self.values {
                    read_values = Some(
                        vals.l2[home.index()]
                            .line(line)
                            .or_else(|| vals.dram.line(line))
                            .cloned()
                            .unwrap_or_default(),
                    );
                }
                self.noc
                    .send(home.node(), requestor.node(), MessageClass::Dma, LINE_BYTES)
            }
            None => {
                self.counters.dram_accesses += 1;
                if let Some(vals) = &self.values {
                    read_values = Some(vals.dram.line(line).copied().unwrap_or_default());
                }
                let mem_node = self.dram.node_for(line);
                let to_mem = self.noc.send(home.node(), mem_node, MessageClass::Dma, 8);
                let dram = self.dram.access(line);
                let data = self
                    .noc
                    .send(mem_node, requestor.node(), MessageClass::Dma, LINE_BYTES);
                to_mem + dram + data
            }
        };
        (request + l2_latency + beyond, read_values)
    }

    /// Writes one line on behalf of a `dma-put`.
    ///
    /// The data is copied from the SPM to main memory and the line is
    /// invalidated in the whole cache hierarchy (§2.1 of the paper).
    pub fn dma_put_line(&mut self, requestor: CoreId, line: LineAddr) -> Cycle {
        self.dma_put_line_valued(requestor, line, None)
    }

    /// Like [`MemorySystem::dma_put_line`], also carrying the written data.
    ///
    /// `words` is the per-word write mask of the drained chunk (`None`
    /// entries are words outside the chunk or never staged, which must not
    /// clobber memory).  Every cached value copy of the line is dropped
    /// along with the tag invalidations.
    pub fn dma_put_line_valued(
        &mut self,
        requestor: CoreId,
        line: LineAddr,
        words: Option<&[Option<u64>; WORDS_PER_LINE]>,
    ) -> Cycle {
        self.counters.dma_line_writes += 1;
        let home = self.home_slice(line);
        let data = self
            .noc
            .send(requestor.node(), home.node(), MessageClass::Dma, LINE_BYTES);
        self.counters.l2_accesses += 1;
        let l2_latency = self.config.l2_slice.latency;

        // A partial-line put merges with the current line contents: flush
        // the freshest cached copy to memory before dropping it, so the
        // words outside the chunk survive the invalidations below.
        if let Some(v) = self.freshest_line(line) {
            if let Some(vals) = &mut self.values {
                vals.dram.set_line(line, v);
            }
        }

        // Invalidate every cached copy: take the directory entry out of the
        // home slice, then drop each L1 copy it lists.
        if let Some(entry) = self.l2.invalidate(home.index(), line) {
            for sharer in entry.sharers() {
                self.l1d.invalidate(sharer.index(), line);
                if let Some(vals) = &mut self.values {
                    vals.l1d[sharer.index()].remove_line(line);
                }
                self.counters.invalidations += 1;
            }
            let _ = self.noc.fan_out(
                home.node(),
                entry.sharers().map(CoreId::node),
                home.node(),
                MessageClass::Dma,
            );
            if let Some(vals) = &mut self.values {
                vals.l2[home.index()].remove_line(line);
            }
        }

        // Write the line to memory.
        self.counters.dram_accesses += 1;
        if let (Some(vals), Some(words)) = (&mut self.values, words) {
            for (w, value) in words.iter().enumerate() {
                if let Some(value) = value {
                    vals.dram.write_word(line.base() + (w as u64) * 8, *value);
                }
            }
        }
        let mem_node = self.dram.node_for(line);
        let to_mem = self
            .noc
            .send(home.node(), mem_node, MessageClass::Dma, LINE_BYTES);
        let dram = self.dram.write(line);
        let ack = self
            .noc
            .send(mem_node, requestor.node(), MessageClass::Dma, 8);
        data + l2_latency + to_mem + dram + ack
    }

    // ----------------------------------------------------------------- stats

    /// Exports the hierarchy counters into a [`StatRegistry`], together with
    /// the NoC traffic.
    ///
    /// Every counter is written under its `mem.*` name, zeros included, so
    /// the report lists the full schema; only the derived figures (misses,
    /// hit ratio) are computed here.
    pub fn export_stats(&self, stats: &mut StatRegistry) {
        for (name, value) in self.counters.named() {
            stats.add_count(name, value);
        }
        let accesses = self.counters.l1d_accesses;
        let hits = self.counters.l1d_hits;
        stats.add_count("mem.l1d.misses", accesses - hits);
        if accesses > 0 {
            stats.set_value("mem.l1d.hit_ratio", hits as f64 / accesses as f64);
        }
        self.noc.export_stats(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_system() -> MemorySystem {
        MemorySystem::new(MemorySystemConfig::small(4))
    }

    #[test]
    fn config_constructors_match_table1() {
        let cfg = MemorySystemConfig::isca2015(64);
        assert_eq!(cfg.l1d.size, ByteSize::kib(32));
        assert_eq!(cfg.l2_slice.size, ByteSize::kib(256));
        assert_eq!(cfg.l1d.latency, Cycle::new(2));
        assert_eq!(cfg.l2_slice.latency, Cycle::new(15));
        let base = MemorySystemConfig::cache_baseline(64);
        assert_eq!(base.l1d.size, ByteSize::kib(64));
        assert_eq!(base.l1d.latency, Cycle::new(2));
    }

    #[test]
    fn load_miss_then_hit() {
        let mut m = small_system();
        let a = Addr::new(0x4_0000);
        let miss = m.access(CoreId::new(0), a, AccessKind::Load, MessageClass::Read, 1);
        assert!(!miss.l1_hit);
        assert_eq!(miss.served_by, ServedBy::Dram);
        let hit = m.access(CoreId::new(0), a, AccessKind::Load, MessageClass::Read, 1);
        assert!(hit.l1_hit);
        assert_eq!(hit.served_by, ServedBy::L1);
        assert_eq!(hit.latency, Cycle::new(2));
    }

    #[test]
    fn one_load_on_1024_cores_materialises_two_sets() {
        let mut m = MemorySystem::new(MemorySystemConfig::isca2015(1024));
        fn sets<S: Default>(bank: &CacheBank<S>) -> Vec<usize> {
            (0..1024).map(|unit| bank.materialised_sets(unit)).collect()
        }
        assert!(sets(&m.l2).iter().all(|&n| n == 0));
        let a = Addr::new(0x4_0000);
        let _ = m.access(CoreId::new(3), a, AccessKind::Load, MessageClass::Read, 1);
        let home = m.home_slice(a.line()).index();
        let l2 = sets(&m.l2);
        let l1d = sets(&m.l1d);
        assert_eq!(l2[home], 1);
        assert_eq!(l2.iter().sum::<usize>(), 1);
        assert_eq!(l1d[3], 1);
        assert_eq!(l1d.iter().sum::<usize>(), 1);
        assert_eq!(sets(&m.l1i).iter().sum::<usize>(), 0);
    }

    #[test]
    fn second_core_hits_in_l2() {
        let mut m = small_system();
        let a = Addr::new(0x8_0000);
        let _ = m.access(CoreId::new(0), a, AccessKind::Load, MessageClass::Read, 1);
        let r = m.access(CoreId::new(1), a, AccessKind::Load, MessageClass::Read, 1);
        assert!(!r.l1_hit);
        assert_eq!(r.served_by, ServedBy::L2);
    }

    #[test]
    fn dirty_line_is_forwarded_from_remote_l1() {
        let mut m = small_system();
        let a = Addr::new(0xc_0000);
        let _ = m.access(CoreId::new(0), a, AccessKind::Store, MessageClass::Write, 1);
        assert_eq!(m.l1_state(CoreId::new(0), a.line()), MoesiState::Modified);
        let r = m.access(CoreId::new(2), a, AccessKind::Load, MessageClass::Read, 2);
        assert_eq!(r.served_by, ServedBy::RemoteL1);
        // The old owner keeps an Owned copy after forwarding a read.
        assert_eq!(m.l1_state(CoreId::new(0), a.line()), MoesiState::Owned);
    }

    #[test]
    fn store_invalidates_other_sharers() {
        let mut m = small_system();
        let a = Addr::new(0x10_0000);
        let _ = m.access(CoreId::new(0), a, AccessKind::Load, MessageClass::Read, 1);
        let _ = m.access(CoreId::new(1), a, AccessKind::Load, MessageClass::Read, 1);
        let _ = m.access(CoreId::new(2), a, AccessKind::Store, MessageClass::Write, 1);
        assert_eq!(m.l1_state(CoreId::new(0), a.line()), MoesiState::Invalid);
        assert_eq!(m.l1_state(CoreId::new(1), a.line()), MoesiState::Invalid);
        assert_eq!(m.l1_state(CoreId::new(2), a.line()), MoesiState::Modified);
        assert!(m.counters().invalidations >= 2);
    }

    #[test]
    fn write_upgrade_on_shared_hit() {
        let mut m = small_system();
        let a = Addr::new(0x14_0000);
        let _ = m.access(CoreId::new(0), a, AccessKind::Load, MessageClass::Read, 1);
        let _ = m.access(CoreId::new(1), a, AccessKind::Load, MessageClass::Read, 1);
        // Core 0 hits its Shared copy with a store: requires an upgrade.
        let r = m.access(CoreId::new(0), a, AccessKind::Store, MessageClass::Write, 1);
        assert!(r.l1_hit);
        assert!(
            r.latency > Cycle::new(2),
            "upgrade must cost more than a plain hit"
        );
        assert_eq!(m.l1_state(CoreId::new(0), a.line()), MoesiState::Modified);
        assert_eq!(m.l1_state(CoreId::new(1), a.line()), MoesiState::Invalid);
    }

    #[test]
    fn ifetch_uses_l1i() {
        let mut m = small_system();
        let a = Addr::new(0x100);
        let first = m.access(
            CoreId::new(0),
            a,
            AccessKind::Ifetch,
            MessageClass::Ifetch,
            0,
        );
        let second = m.access(
            CoreId::new(0),
            a,
            AccessKind::Ifetch,
            MessageClass::Ifetch,
            0,
        );
        assert!(!first.l1_hit);
        assert!(second.l1_hit);
        assert!(m.noc().traffic().packets(MessageClass::Ifetch) > 0);
        assert_eq!(m.counters().l1i_accesses, 2);
    }

    #[test]
    fn dma_get_reads_dirty_copy_from_cache() {
        let mut m = small_system();
        let a = Addr::new(0x20_0000);
        let _ = m.access(CoreId::new(3), a, AccessKind::Store, MessageClass::Write, 1);
        let before = m.counters().forwards;
        let lat = m.dma_get_line(CoreId::new(0), a.line());
        assert!(lat > Cycle::ZERO);
        assert_eq!(
            m.counters().forwards,
            before + 1,
            "dma-get must snoop the dirty L1 copy"
        );
        assert!(m.noc().traffic().packets(MessageClass::Dma) > 0);
        // The owner keeps its copy: dma-get does not invalidate.
        assert!(m.l1_state(CoreId::new(3), a.line()).is_valid());
    }

    #[test]
    fn dma_put_invalidates_whole_hierarchy() {
        let mut m = small_system();
        let a = Addr::new(0x24_0000);
        let _ = m.access(CoreId::new(1), a, AccessKind::Load, MessageClass::Read, 1);
        let _ = m.access(CoreId::new(2), a, AccessKind::Load, MessageClass::Read, 1);
        assert!(m.is_cached(a.line()));
        let lat = m.dma_put_line(CoreId::new(0), a.line());
        assert!(lat > Cycle::ZERO);
        assert!(!m.is_cached(a.line()), "dma-put must invalidate caches");
        assert_eq!(m.counters().dma_line_writes, 1);
        assert_eq!(m.l1_state(CoreId::new(1), a.line()), MoesiState::Invalid);
    }

    #[test]
    fn dma_get_from_memory_when_uncached() {
        let mut m = small_system();
        let lat = m.dma_get_line(CoreId::new(0), Addr::new(0x30_0000).line());
        assert!(lat >= Cycle::new(200), "must include the DRAM latency");
        assert_eq!(m.counters().dma_line_reads, 1);
    }

    #[test]
    fn strided_stream_triggers_prefetches_and_pollution() {
        let mut m = small_system();
        // March through 512 lines with a unit stride from one core.
        for i in 0..512u64 {
            let addr = Addr::new(0x40_0000 + i * 64);
            let _ = m.access(
                CoreId::new(0),
                addr,
                AccessKind::Load,
                MessageClass::Read,
                7,
            );
        }
        assert!(
            m.counters().prefetches > 0,
            "stride prefetcher must kick in"
        );
        // The L1 only has 128 lines in the small config, so evictions happened.
        assert!(m.counters().l1d_accesses >= 512);
    }

    #[test]
    fn export_stats_has_core_counters() {
        let mut m = small_system();
        let _ = m.access(
            CoreId::new(0),
            Addr::new(0x1000),
            AccessKind::Load,
            MessageClass::Read,
            1,
        );
        let mut stats = StatRegistry::new();
        m.export_stats(&mut stats);
        assert_eq!(stats.count("mem.l1d.accesses"), 1);
        assert!(stats.contains("mem.l1d.hit_ratio"));
        assert!(stats.count("noc.total.packets") > 0);
    }

    #[test]
    fn home_slice_interleaves_lines() {
        let m = small_system();
        let homes: Vec<usize> = (0..8)
            .map(|i| m.home_slice(LineAddr::new(i)).index())
            .collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    fn tracked_system() -> MemorySystem {
        let mut m = small_system();
        m.enable_value_tracking();
        m
    }

    #[test]
    fn value_tracking_is_off_by_default() {
        let m = small_system();
        assert_eq!(m.read_word(CoreId::new(0), Addr::new(0x1000)), None);
        assert_eq!(m.value_image(), None);
    }

    #[test]
    fn stored_value_is_read_back_by_every_core() {
        let mut m = tracked_system();
        let a = Addr::new(0x40_0008);
        let _ = m.access(CoreId::new(0), a, AccessKind::Store, MessageClass::Write, 1);
        m.write_word(CoreId::new(0), a, 0xdead);
        assert_eq!(m.read_word(CoreId::new(0), a), Some(0xdead));
        // A remote core's load is served by a forward of the dirty copy.
        let _ = m.access(CoreId::new(2), a, AccessKind::Load, MessageClass::Read, 2);
        assert_eq!(m.read_word(CoreId::new(2), a), Some(0xdead));
        // Unwritten neighbours read zero.
        assert_eq!(m.read_word(CoreId::new(1), a + 8), Some(0));
    }

    #[test]
    fn dma_get_reads_the_dirty_cached_value() {
        let mut m = tracked_system();
        let a = Addr::new(0x50_0000);
        let _ = m.access(CoreId::new(3), a, AccessKind::Store, MessageClass::Write, 1);
        m.write_word(CoreId::new(3), a, 77);
        let (_, vals) = m.dma_get_line_valued(CoreId::new(0), a.line());
        assert_eq!(
            vals.expect("tracking on")[0],
            77,
            "dma-get must snoop the dirty copy"
        );
    }

    #[test]
    fn dma_put_updates_memory_and_drops_cached_values() {
        let mut m = tracked_system();
        let a = Addr::new(0x60_0000);
        let _ = m.access(CoreId::new(1), a, AccessKind::Store, MessageClass::Write, 1);
        m.write_word(CoreId::new(1), a, 5);
        let mut words = [None; WORDS_PER_LINE];
        words[0] = Some(42);
        let _ = m.dma_put_line_valued(CoreId::new(0), a.line(), Some(&words));
        assert!(!m.is_cached(a.line()));
        assert_eq!(m.read_word(CoreId::new(1), a), Some(42));
        assert_eq!(
            m.read_word(CoreId::new(1), a + 8),
            Some(0),
            "masked words untouched"
        );
    }

    #[test]
    fn value_image_reflects_dirty_copies() {
        let mut m = tracked_system();
        let a = Addr::new(0x70_0000);
        let _ = m.access(CoreId::new(0), a, AccessKind::Store, MessageClass::Write, 1);
        m.write_word(CoreId::new(0), a, 9);
        let image = m.value_image().expect("tracking on");
        assert_eq!(image.get(&a.raw()).copied(), Some(9));
        assert!(
            !image.contains_key(&(a.raw() + 8)),
            "zero words stay sparse"
        );
    }

    #[test]
    fn values_survive_l1_eviction_chains() {
        let mut m = tracked_system();
        // Write one word per line across far more lines than the small L1
        // holds (128 lines), forcing write-backs through L2 and DRAM.
        let lines = 4096u64;
        for i in 0..lines {
            let a = Addr::new(0x100_0000 + i * 64);
            let _ = m.access(CoreId::new(0), a, AccessKind::Store, MessageClass::Write, 1);
            m.write_word(CoreId::new(0), a, i + 1);
        }
        for i in (0..lines).step_by(97) {
            let a = Addr::new(0x100_0000 + i * 64);
            assert_eq!(m.read_word(CoreId::new(1), a), Some(i + 1), "line {i}");
        }
    }

    /// A prefetch served by the L2 must downgrade a clean Exclusive owner,
    /// as a demand read does: otherwise the owner's next store hits
    /// silently and the prefetched copy goes stale.
    #[test]
    fn prefetch_beside_exclusive_owner_sees_its_later_store() {
        let mut m = tracked_system();
        let (owner, reader) = (CoreId::new(0), CoreId::new(1));
        let x = Addr::new(0x80_0000);
        let mut seed = [None; WORDS_PER_LINE];
        seed[0] = Some(7);
        let _ = m.dma_put_line_valued(CoreId::new(2), x.line(), Some(&seed));
        let _ = m.access(owner, x, AccessKind::Load, MessageClass::Read, 1);
        assert_eq!(m.l1_state(owner, x.line()), MoesiState::Exclusive);
        // A unit-stride stream just below X makes the reader prefetch X.
        for i in (1..=4u64).rev() {
            let _ = m.access(reader, x - i * 64, AccessKind::Load, MessageClass::Read, 9);
        }
        assert!(m.l1_state(reader, x.line()).is_valid(), "X was prefetched");
        let _ = m.access(owner, x, AccessKind::Store, MessageClass::Write, 1);
        m.write_word(owner, x, 42);
        assert_eq!(m.l1_state(owner, x.line()), MoesiState::Modified);
        for core in 1..4 {
            assert!(
                !m.l1_state(CoreId::new(core), x.line()).is_valid(),
                "core {core} holds X beside a Modified owner"
            );
        }
        let _ = m.access(reader, x, AccessKind::Load, MessageClass::Read, 1);
        assert_eq!(m.read_word(reader, x), Some(42));
    }

    #[test]
    fn attributed_queue_drains_once() {
        let mut cfg = MemorySystemConfig::small(4);
        cfg.noc.model = noc::NocModel::DiscreteEvent;
        let mut m = MemorySystem::new(cfg);
        // Back-to-back misses at clock zero share links, so the DES backend
        // measures real queueing on at least one demand leg.
        let mut total = Cycle::ZERO;
        for i in 0..32u64 {
            let a = Addr::new(0x300_0000 + i * 64);
            let _ = m.access(CoreId::new(0), a, AccessKind::Load, MessageClass::Read, 1);
            total += m.take_attributed_queue();
        }
        assert!(total > Cycle::ZERO, "DES demand legs saw no queueing");
        assert_eq!(m.take_attributed_queue(), Cycle::ZERO, "drain resets");
    }
}
