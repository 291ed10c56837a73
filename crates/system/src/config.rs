//! System configuration (Table 1) and machine kinds.

use serde::{Deserialize, Serialize};
use simkernel::trace::TraceSettings;
use simkernel::{ByteSize, Frequency};

use cpu::CoreConfig;
use energy::EnergyParams;
use mem::MemorySystemConfig;
use spm::{DmacConfig, SpmConfig};
use spm_coherence::ProtocolConfig;
use workloads::ExecMode;

/// The three machines compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MachineKind {
    /// The cache-based baseline of §5.4 (64 KB L1 D-cache, no SPMs).
    CacheOnly,
    /// The hybrid memory system with the ideal-coherence oracle (§5.3's
    /// comparison point).
    HybridIdeal,
    /// The hybrid memory system with the proposed coherence protocol.
    HybridProposed,
}

impl MachineKind {
    /// All machine kinds.
    pub const ALL: [MachineKind; 3] = [
        MachineKind::CacheOnly,
        MachineKind::HybridIdeal,
        MachineKind::HybridProposed,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            MachineKind::CacheOnly => "cache-based",
            MachineKind::HybridIdeal => "hybrid (ideal coherence)",
            MachineKind::HybridProposed => "hybrid (proposed protocol)",
        }
    }

    /// Stable machine identifier used by CLI flags, campaign exports and
    /// the JSON codec.
    pub fn id(self) -> &'static str {
        match self {
            MachineKind::CacheOnly => "cache-only",
            MachineKind::HybridIdeal => "hybrid-ideal",
            MachineKind::HybridProposed => "hybrid-proposed",
        }
    }

    /// Parses a machine identifier (the inverse of [`MachineKind::id`]).
    pub fn from_id(id: &str) -> Option<MachineKind> {
        MachineKind::ALL.into_iter().find(|k| k.id() == id)
    }

    /// Returns `true` for the two hybrid machines.
    pub fn has_spms(self) -> bool {
        !matches!(self, MachineKind::CacheOnly)
    }

    /// How programs run on this machine: untiled on the cache-only
    /// baseline, tiled through the SPMs on the hybrid machines.
    pub fn exec_mode(self) -> ExecMode {
        if self.has_spms() {
            ExecMode::Hybrid
        } else {
            ExecMode::CacheOnly
        }
    }
}

impl std::fmt::Display for MachineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which coherence backend keeps the SPMs and the cache hierarchy coherent
/// on the hybrid-proposed machine.
///
/// The paper's machine uses the filter/filterDir/spmDir protocol
/// ([`spm_coherence::SpmCoherenceProtocol`]); the directory baseline
/// ([`spm_coherence::DirectoryCoherence`]) manages the same SPM mappings
/// through plain L2-home directory slices with no filters, which makes the
/// paper's "cheaper than a conventional directory" claim a runnable
/// ablation.  The other machine kinds (cache-only, hybrid-ideal) ignore
/// this knob — they always use the ideal-coherence oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoherenceProtocol {
    /// The paper's protocol: per-core filters + distributed filterDir +
    /// per-core SPMDirs.
    FilterDir,
    /// The plain MOESI-style directory baseline: every guarded access asks
    /// the address-interleaved L2-home mapping directory.
    Directory,
}

impl CoherenceProtocol {
    /// All protocols, the paper's first.
    pub const ALL: [CoherenceProtocol; 2] =
        [CoherenceProtocol::FilterDir, CoherenceProtocol::Directory];

    /// Stable identifier used by CLI flags and campaign exports.
    pub fn id(self) -> &'static str {
        match self {
            CoherenceProtocol::FilterDir => "filterdir",
            CoherenceProtocol::Directory => "directory",
        }
    }

    /// Parses a protocol identifier (the inverse of [`CoherenceProtocol::id`]).
    pub fn from_id(id: &str) -> Option<CoherenceProtocol> {
        CoherenceProtocol::ALL.into_iter().find(|p| p.id() == id)
    }
}

impl std::fmt::Display for CoherenceProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// How the machine drives its cores through a kernel.
///
/// Inert: every simulation runs the one min-clock scheduler, and nothing in
/// the simulator reads this type.  It stays, with [`SystemConfig::engine`],
/// because the benchmark harness in `perfbench/` sets and prints it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecutionEngine {
    /// Cycle-interleaved scheduling: a min-clock event scheduler always
    /// steps the core with the earliest local time, parking cores on
    /// `dma-synch` waits, so concurrent cores' traffic reaches the L2, the
    /// coherence protocol and the NoC in simulated-time order.
    Interleaved,
}

impl ExecutionEngine {
    /// Stable identifier of the engine.
    pub fn id(self) -> &'static str {
        match self {
            ExecutionEngine::Interleaved => "interleaved",
        }
    }
}

/// The whole-system configuration (the knobs of Table 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of cores / tiles.
    pub cores: usize,
    /// Cache hierarchy of the hybrid machines (32 KB L1 D-cache).
    pub memory: MemorySystemConfig,
    /// Cache hierarchy of the cache-based baseline (64 KB L1 D-cache).
    pub memory_cache_baseline: MemorySystemConfig,
    /// Per-core scratchpad.
    pub spm: SpmConfig,
    /// Per-core DMA controller.
    pub dmac: DmacConfig,
    /// The proposed protocol's structure sizes.
    pub protocol: ProtocolConfig,
    /// Which coherence backend the hybrid-proposed machine runs
    /// (`--protocol` on the report binaries).
    pub coherence_protocol: CoherenceProtocol,
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// Energy-model parameters.
    pub energy: EnergyParams,
    /// Chip clock.
    pub frequency: Frequency,
    /// Seed for the workload address streams.
    pub trace_seed: u64,
    /// Inert, like `engine_jobs`: every simulation runs the one scheduler
    /// (see [`ExecutionEngine`]).  It stays because the benchmark harness in
    /// `perfbench/` sets and prints it.
    pub engine: ExecutionEngine,
    /// Inert: nothing in the simulator reads it, because every simulation
    /// runs on one host thread.  It stays because the benchmark harness in
    /// `perfbench/` sets and prints it; the campaign cache key pins it, so
    /// its value never addresses a cache entry.
    pub engine_jobs: usize,
    /// Inert, like `engine_jobs`: nothing in the simulator reads it (a
    /// trace's per-kernel `CoreReport` events carry each core's clock, work
    /// and stall cycles).  It stays because the benchmark harness in
    /// `perfbench/` sets it; the campaign cache key pins it, so its value
    /// never addresses a cache entry.
    pub debug_cores: bool,
    /// Thread real data values through the memory system (DRAM, caches,
    /// scratchpads, DMA) alongside the timing model.
    ///
    /// Off by default: timing results are bit-identical either way (see
    /// `bench_report`'s `track_values` entry for the throughput cost), and
    /// the verification entry points arm it themselves.
    pub track_values: bool,
    /// Structured event tracing (`--trace` on the report binaries).
    ///
    /// Presentation-only: a traced run's timing, traffic and statistics are
    /// bit-identical to an untraced one (pinned by
    /// `tracing_leaves_timing_untouched`), so the campaign cache key pins
    /// this to its default.
    pub trace: TraceSettings,
    /// Inert, like `engine_jobs`: every run is accounted and carries its
    /// [`RunResult::breakdown`](crate::RunResult::breakdown).  It stays
    /// because the benchmark harness in `perfbench/` sets and prints it; the
    /// campaign cache key pins it, so its value never addresses a cache
    /// entry.
    pub cycle_accounting: bool,
}

impl SystemConfig {
    /// The paper's 64-core configuration (Table 1).
    pub fn isca2015() -> Self {
        Self::with_cores(64)
    }

    /// The Table 1 configuration instantiated with an arbitrary core count.
    pub fn with_cores(cores: usize) -> Self {
        SystemConfig {
            cores,
            memory: MemorySystemConfig::isca2015(cores),
            memory_cache_baseline: MemorySystemConfig::cache_baseline(cores),
            spm: SpmConfig::isca2015(),
            dmac: DmacConfig::isca2015(),
            protocol: ProtocolConfig::isca2015(cores),
            coherence_protocol: CoherenceProtocol::FilterDir,
            core: CoreConfig::isca2015(),
            energy: EnergyParams::isca2015_22nm().scaled_to_cores(cores),
            frequency: Frequency::ghz(2.0),
            trace_seed: 0x15CA_2015,
            engine: ExecutionEngine::Interleaved,
            engine_jobs: 1,
            debug_cores: false,
            track_values: false,
            trace: TraceSettings::default(),
            cycle_accounting: false,
        }
    }

    /// A scaled-down machine (smaller caches, L2 slices and SPMs) for fast
    /// unit tests and doctests.  Workloads meant for this configuration
    /// should be scaled accordingly.
    pub fn small(cores: usize) -> Self {
        let mut cfg = Self::with_cores(cores);
        cfg.memory = MemorySystemConfig::small(cores);
        cfg.memory_cache_baseline = {
            let mut m = MemorySystemConfig::small(cores);
            m.l1d = mem::CacheConfig::new("l1d", ByteSize::kib(16), 4, simkernel::Cycle::new(2));
            m
        };
        cfg.spm = SpmConfig::small();
        cfg.protocol = ProtocolConfig::small(cores);
        cfg
    }

    /// The memory-hierarchy configuration used by a machine kind.
    pub fn memory_for(&self, kind: MachineKind) -> &MemorySystemConfig {
        match kind {
            MachineKind::CacheOnly => &self.memory_cache_baseline,
            _ => &self.memory,
        }
    }

    /// Selects the NoC model (analytic or discrete-event) for every machine
    /// kind this configuration can instantiate.
    pub fn set_noc_model(&mut self, model: noc::NocModel) {
        self.memory.noc.model = model;
        self.memory_cache_baseline.noc.model = model;
    }

    /// The NoC model in use.
    pub fn noc_model(&self) -> noc::NocModel {
        self.memory.noc.model
    }

    /// A human-readable rendition of Table 1.
    pub fn table1(&self) -> String {
        let m = &self.memory;
        let b = &self.memory_cache_baseline;
        format!(
            "Table 1: main simulator parameters\n\
             ------------------------------------------------------------\n\
             Cores            {} cores, out-of-order, {}-wide, {:.0} GHz\n\
             Pipeline         {} cycles, ROB {} entries, LQ/SQ {}/{}\n\
             L1 I-cache       {} cycles, {}, {}-way\n\
             L1 D-cache       {} cycles, {}, {}-way, stride prefetcher\n\
             L1 D (baseline)  {} (cache-based system, same latency)\n\
             L2 cache         shared NUCA {} total, {} per core, {} cycles, {}-way\n\
             Cache coherence  MOESI directory, 64 B lines\n\
             NoC              {}x{} mesh, link 1 cycle, router 1 cycle\n\
             SPM              {} cycles, {}, 64 B blocks\n\
             DMAC             {}-entry command queue, {}-entry bus queue\n\
             SPMDir           {} entries\n\
             Filter           {} entries, fully associative, pseudoLRU\n\
             FilterDir        distributed {} entries, fully associative, pseudoLRU\n",
            self.cores,
            self.core.issue_width,
            self.frequency.as_hz() / 1e9,
            self.core.pipeline_depth,
            self.core.rob_entries,
            self.core.lq_entries,
            self.core.sq_entries,
            m.l1i.latency.as_u64(),
            m.l1i.size,
            m.l1i.ways,
            m.l1d.latency.as_u64(),
            m.l1d.size,
            m.l1d.ways,
            b.l1d.size,
            ByteSize::bytes_exact(m.l2_slice.size.bytes() * self.cores as u64),
            m.l2_slice.size,
            m.l2_slice.latency.as_u64(),
            m.l2_slice.ways,
            m.noc.topology.cols(),
            m.noc.topology.rows(),
            self.spm.latency.as_u64(),
            self.spm.size,
            self.dmac.command_queue_entries,
            self.dmac.bus_request_queue_entries,
            self.protocol.spmdir_entries,
            self.protocol.filter_entries,
            self.protocol.filterdir_entries,
        )
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::isca2015()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isca2015_matches_table1() {
        let c = SystemConfig::isca2015();
        assert_eq!(c.cores, 64);
        assert_eq!(c.memory.l1d.size, ByteSize::kib(32));
        assert_eq!(c.memory_cache_baseline.l1d.size, ByteSize::kib(64));
        assert_eq!(c.spm.size, ByteSize::kib(32));
        assert_eq!(c.protocol.spmdir_entries, 32);
        assert_eq!(c.protocol.filter_entries, 48);
        assert_eq!(c.protocol.filterdir_entries, 4096);
    }

    /// The name predates the removal of the legacy engine; the default is
    /// now the only engine, the min-clock scheduler.
    #[test]
    fn default_engine_is_legacy_with_debug_off() {
        let c = SystemConfig::isca2015();
        assert_eq!(c.engine, ExecutionEngine::Interleaved);
        assert!(!c.debug_cores);
        assert_eq!(c.coherence_protocol, CoherenceProtocol::FilterDir);
    }

    #[test]
    fn memory_for_selects_the_right_l1() {
        let c = SystemConfig::isca2015();
        assert_eq!(
            c.memory_for(MachineKind::CacheOnly).l1d.size,
            ByteSize::kib(64)
        );
        assert_eq!(
            c.memory_for(MachineKind::HybridProposed).l1d.size,
            ByteSize::kib(32)
        );
        assert_eq!(
            c.memory_for(MachineKind::HybridIdeal).l1d.size,
            ByteSize::kib(32)
        );
    }

    #[test]
    fn table1_render_mentions_key_structures() {
        let t = SystemConfig::isca2015().table1();
        for needle in [
            "64 cores",
            "SPMDir",
            "Filter",
            "FilterDir",
            "MOESI",
            "mesh",
            "32 KiB",
        ] {
            assert!(t.contains(needle), "table 1 text missing {needle}");
        }
    }

    #[test]
    fn machine_kind_labels() {
        assert_eq!(MachineKind::ALL.len(), 3);
        assert!(MachineKind::HybridProposed.has_spms());
        assert!(!MachineKind::CacheOnly.has_spms());
        assert!(MachineKind::CacheOnly.to_string().contains("cache"));
    }

    #[test]
    fn machine_ids_round_trip_and_match_campaign() {
        for kind in MachineKind::ALL {
            assert_eq!(MachineKind::from_id(kind.id()), Some(kind));
        }
        assert_eq!(MachineKind::from_id("bogus"), None);
    }

    #[test]
    fn protocol_ids_round_trip_and_match_campaign() {
        for protocol in CoherenceProtocol::ALL {
            assert_eq!(CoherenceProtocol::from_id(protocol.id()), Some(protocol));
            assert_eq!(protocol.to_string(), protocol.id());
        }
        assert_eq!(CoherenceProtocol::from_id("moesi-2000"), None);
    }

    #[test]
    fn small_config_shrinks_hardware() {
        let c = SystemConfig::small(8);
        assert_eq!(c.cores, 8);
        assert!(c.memory.l1d.size < ByteSize::kib(32));
        assert!(c.spm.size < ByteSize::kib(32));
    }
}
