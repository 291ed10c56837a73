//! The coherence-protocol engine: guarded-access diversion (Figure 5) and
//! SPM-content tracking (Figure 6).

use serde::{Deserialize, Serialize};
use simkernel::{ByteSize, CoreId, Cycle, NodeId, StatRegistry};

use mem::{Addr, AddressRange, MemorySystem};
use noc::MessageClass;
use spm::Scratchpad;

use crate::filter::Filter;
use crate::filterdir::FilterDir;
use crate::masks::AddressMasks;
use crate::outcome::{gm_access, GuardedOutcome, GuardedTarget};
use crate::spmdir::SpmDir;
use crate::stats::ProtocolStats;

/// Common interface of every coherence backend: the paper's
/// filter/filterDir/spmDir protocol ([`SpmCoherenceProtocol`]), the plain
/// MOESI-directory baseline ([`crate::DirectoryCoherence`]) and the
/// ideal-coherence oracle ([`crate::IdealCoherence`]).
///
/// The core timing model and the system driver are generic over this trait,
/// so the same workload runs under any backend — the proposed-vs-ideal
/// comparison *is* the paper's §5.3 overhead study, and the
/// proposed-vs-directory comparison turns the paper's "cheaper than a
/// conventional directory" claim into a measurable ablation.
pub trait CoherenceBackend {
    /// Notifies the hardware of the SPM buffer size chosen by the runtime
    /// library for the upcoming loop (sets the Base/Offset mask registers).
    fn configure_buffer_size(&mut self, buffer_size: ByteSize);

    /// Called when a `dma-get` maps `chunk` of global memory into SPM buffer
    /// `buffer` of `core`.  Returns the latency added to the control phase by
    /// the protocol (filter invalidation round, Figure 6a).
    fn on_map(
        &mut self,
        core: CoreId,
        buffer: usize,
        chunk: AddressRange,
        memsys: &mut MemorySystem,
    ) -> Cycle;

    /// Called when a buffer's chunk is written back / dropped.
    fn on_unmap(&mut self, core: CoreId, buffer: usize) -> Cycle;

    /// Called at the end of a transformed loop: every mapping of `core` is
    /// dropped.
    fn on_loop_end(&mut self, core: CoreId);

    /// Executes one potentially incoherent (guarded) access.
    fn guarded_access(
        &mut self,
        core: CoreId,
        addr: Addr,
        is_write: bool,
        memsys: &mut MemorySystem,
        spms: &mut [Scratchpad],
    ) -> GuardedOutcome;

    /// Power-gates the filters (used by kernels with no guarded accesses).
    fn set_filters_gated(&mut self, gated: bool);

    /// Protocol-level statistics.
    fn stats(&self) -> &ProtocolStats;

    /// Exports every statistic under `cohprot.*` names.
    fn export_stats(&self, stats: &mut StatRegistry);

    /// Filter hit ratio over the run, if the filters were used.
    fn filter_hit_ratio(&self) -> Option<f64> {
        self.stats().filter_hit_ratio()
    }

    /// Renders the protocol state relevant to `addr` (SPMDir mapping, filter
    /// entry, filterDir entry) for divergence reports.  The default is
    /// empty; engines with inspectable structures override it.
    fn describe_addr(&self, _core: CoreId, _addr: Addr) -> String {
        String::new()
    }
}

/// A deliberate protocol defect, injectable for negative verification tests.
///
/// The differential oracle harness only proves anything if a *broken*
/// protocol demonstrably fails it; these knobs break the protocol in the
/// targeted, paper-relevant ways.  They exist purely for the verification
/// subsystem and are never enabled by a report binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolFault {
    /// `on_map` skips the filterDir invalidation round of Figure 6a: cores
    /// that cached "not mapped anywhere" in their filter keep believing it
    /// and serve guarded accesses from (now stale) global memory.  Targets
    /// the paper's protocol; the directory baseline has no filters, so it is
    /// immune.
    SkipFilterInvalidationOnMap,
    /// `on_map` skips registering the mapping at the L2-home directory: the
    /// home keeps answering "not mapped anywhere" and remote guarded
    /// accesses are served from (now stale) global memory instead of the
    /// owner's SPM.  Targets the directory baseline
    /// ([`crate::DirectoryCoherence`]); the paper's protocol registers
    /// mappings in the per-core SPMDir instead, so it is immune.
    SkipDirectoryUpdateOnMap,
}

/// Sizing of the protocol's hardware structures (Table 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Number of cores (one SPMDir + one filter each, one filterDir slice each).
    pub cores: usize,
    /// SPMDir entries per core.
    pub spmdir_entries: usize,
    /// Filter entries per core.
    pub filter_entries: usize,
    /// Total filterDir entries, distributed over the tiles.
    pub filterdir_entries: usize,
    /// Size of each scratchpad: the tracking granularity until the runtime
    /// configures a buffer size.
    pub spm_size: ByteSize,
    /// Latency of a local CAM lookup (SPMDir / filter, off the critical path
    /// of filter hits because it happens in parallel with the L1 tag access).
    pub cam_latency: Cycle,
}

impl ProtocolConfig {
    /// The paper's configuration: SPMDir 32 entries, filter 48 entries,
    /// filterDir 4K entries, 32 KB SPMs.
    pub fn isca2015(cores: usize) -> Self {
        ProtocolConfig {
            cores,
            spmdir_entries: 32,
            filter_entries: 48,
            filterdir_entries: 4096,
            spm_size: ByteSize::kib(32),
            cam_latency: Cycle::new(1),
        }
    }

    /// A scaled-down configuration matching [`mem::MemorySystemConfig::small`].
    pub fn small(cores: usize) -> Self {
        ProtocolConfig {
            cores,
            spmdir_entries: 32,
            filter_entries: 48,
            filterdir_entries: 1024,
            spm_size: ByteSize::kib(8),
            cam_latency: Cycle::new(1),
        }
    }
}

/// The proposed hardware coherence protocol.
///
/// See the crate-level documentation and example.
#[derive(Debug)]
pub struct SpmCoherenceProtocol {
    config: ProtocolConfig,
    masks: AddressMasks,
    spmdirs: Vec<SpmDir>,
    filters: Vec<Filter>,
    filterdir: FilterDir,
    stats: ProtocolStats,
    fault: Option<ProtocolFault>,
}

impl SpmCoherenceProtocol {
    /// Creates the protocol hardware for `config.cores` tiles.
    pub fn new(config: ProtocolConfig) -> Self {
        let cores = config.cores;
        SpmCoherenceProtocol {
            masks: AddressMasks::for_buffer_size(config.spm_size),
            spmdirs: (0..cores)
                .map(|_| SpmDir::new(config.spmdir_entries))
                .collect(),
            filters: (0..cores)
                .map(|_| Filter::new(config.filter_entries))
                .collect(),
            filterdir: FilterDir::new(config.filterdir_entries, cores),
            config,
            stats: ProtocolStats::new(),
            fault: None,
        }
    }

    /// Injects a deliberate defect (see [`ProtocolFault`]); `None` restores
    /// correct behaviour.  Verification-harness use only.
    pub fn inject_fault(&mut self, fault: Option<ProtocolFault>) {
        self.fault = fault;
    }

    /// The currently injected fault, if any.
    pub fn injected_fault(&self) -> Option<ProtocolFault> {
        self.fault
    }

    /// The currently configured address masks.
    pub fn masks(&self) -> AddressMasks {
        self.masks
    }

    /// Read access to one core's SPMDir (for tests and reports).
    pub fn spmdir(&self, core: CoreId) -> &SpmDir {
        &self.spmdirs[core.index()]
    }

    /// Read access to one core's filter (for tests and reports).
    pub fn filter(&self, core: CoreId) -> &Filter {
        &self.filters[core.index()]
    }

    /// Read access to the filterDir (for tests and reports).
    pub fn filterdir(&self) -> &FilterDir {
        &self.filterdir
    }

    /// The tile holding the filterDir slice of `base`.
    fn home_of(&self, base: Addr) -> CoreId {
        CoreId::new(self.filterdir.home_slice(base).index() % self.config.cores)
    }

    /// Figure 6a: invalidate the filters for a freshly mapped base address.
    fn invalidate_filters_for(
        &mut self,
        core: CoreId,
        base: Addr,
        memsys: &mut MemorySystem,
    ) -> Cycle {
        let home = self.home_of(base);
        let noc = memsys.noc_mut();
        let mut latency = noc.send(core.node(), home.node(), MessageClass::CohProt, 8);
        if let Some(sharers) = self.filterdir.invalidate(base) {
            self.stats.filter_invalidation_rounds += 1;
            for sharer in &sharers {
                if self.filters[sharer.index()].invalidate(base) {
                    self.stats.filter_entries_invalidated += 1;
                }
            }
            let targets = sharers.iter().map(|s| s.node());
            latency += noc.fan_out(home.node(), targets, home.node(), MessageClass::CohProt);
        }
        latency
    }

    /// Inserts `base` in `core`'s filter, notifying the filterDir of any eviction.
    fn filter_insert(&mut self, core: CoreId, base: Addr, memsys: &mut MemorySystem) {
        if let Some(victim) = self.filters[core.index()].insert(base) {
            self.stats.filter_eviction_notifies += 1;
            let victim_home = self.home_of(victim);
            let _ =
                memsys
                    .noc_mut()
                    .send(core.node(), victim_home.node(), MessageClass::CohProt, 8);
            self.filterdir.remove_sharer(victim, core);
        }
    }

    /// Handles a filterDir capacity eviction: the victims' sharers invalidate
    /// their filters (same flow as Figure 6a step 2).
    fn handle_filterdir_eviction(
        &mut self,
        home: CoreId,
        evicted: crate::filterdir::EvictedFilterEntry,
        memsys: &mut MemorySystem,
    ) {
        self.stats.filterdir_evictions += 1;
        for sharer in &evicted.sharers {
            if self.filters[sharer.index()].invalidate(evicted.base) {
                self.stats.filter_entries_invalidated += 1;
            }
        }
        let targets = evicted.sharers.iter().map(|s| s.node());
        let _ = memsys
            .noc_mut()
            .fan_out(home.node(), targets, home.node(), MessageClass::CohProt);
    }
}

impl CoherenceBackend for SpmCoherenceProtocol {
    fn configure_buffer_size(&mut self, buffer_size: ByteSize) {
        self.masks = AddressMasks::for_buffer_size(buffer_size);
    }

    fn on_map(
        &mut self,
        core: CoreId,
        buffer: usize,
        chunk: AddressRange,
        memsys: &mut MemorySystem,
    ) -> Cycle {
        let base = self.masks.base(chunk.start());
        self.spmdirs[core.index()].map(buffer, base);
        self.stats.dma_mappings += 1;
        if self.fault == Some(ProtocolFault::SkipFilterInvalidationOnMap) {
            // Injected defect: remote filters keep their stale "not mapped
            // anywhere" entries (see `ProtocolFault`).
            return Cycle::ZERO;
        }
        self.invalidate_filters_for(core, base, memsys)
    }

    fn on_unmap(&mut self, core: CoreId, buffer: usize) -> Cycle {
        self.spmdirs[core.index()].unmap(buffer);
        Cycle::ZERO
    }

    fn on_loop_end(&mut self, core: CoreId) {
        self.spmdirs[core.index()].clear();
    }

    fn guarded_access(
        &mut self,
        core: CoreId,
        addr: Addr,
        is_write: bool,
        memsys: &mut MemorySystem,
        spms: &mut [Scratchpad],
    ) -> GuardedOutcome {
        if is_write {
            self.stats.guarded_stores += 1;
        } else {
            self.stats.guarded_loads += 1;
        }
        // The TLB and the L1 cache are accessed in parallel with the protocol
        // structures on every guarded access (energy, §3.2).
        self.stats.parallel_l1_lookups += 1;

        let base = self.masks.base(addr);
        let cam = self.config.cam_latency;

        // Case (b): the chunk is mapped to the local SPM.
        if let Some(buffer) = self.spmdirs[core.index()].lookup(base) {
            self.stats.local_spm_hits += 1;
            self.stats.lsq_recheck_notifications += 1;
            let spm_latency = if is_write {
                // Guarded stores also update the GM copy through the L1 (the
                // SPM buffer might be read-only and never written back).
                let _ = gm_access(memsys, core, addr, true);
                spms[core.index()].write_local()
            } else {
                spms[core.index()].read_local()
            };
            return GuardedOutcome {
                latency: cam + spm_latency,
                target: GuardedTarget::LocalSpm { buffer },
                gm_write_through: is_write,
            };
        }

        // Case (a): the filter knows the chunk is not mapped anywhere.
        //
        // This is the only place filter lookups happen, so the aggregate
        // protocol counters are maintained incrementally here (a gated
        // filter counts nothing) instead of re-summing every core's filter
        // on each access.
        let filter = &mut self.filters[core.index()];
        let filter_gated = filter.is_gated_off();
        let filter_hit = filter.lookup(base);
        if !filter_gated {
            self.stats.filter_lookups += 1;
            self.stats.filter_hits += filter_hit as u64;
        }
        if filter_hit {
            let (gm_latency, served_by) = gm_access(memsys, core, addr, is_write);
            self.stats.served_by_gm += 1;
            return GuardedOutcome {
                // The filter lookup happens in parallel with the L1 tag
                // access, so the common case adds no latency.
                latency: gm_latency,
                target: GuardedTarget::GlobalMemory { served_by },
                gm_write_through: false,
            };
        }

        // Filter miss: ask the filterDir (Figure 5c / 5d, Figure 6b).
        self.stats.filterdir_requests += 1;
        let home = self.home_of(base);
        let request = memsys
            .noc_mut()
            .send(core.node(), home.node(), MessageClass::CohProt, 8);

        if self.filterdir.lookup_and_share(base, core) {
            // The directory already knows the chunk is unmapped.
            self.stats.filterdir_hits += 1;
            let ack = memsys
                .noc_mut()
                .send(home.node(), core.node(), MessageClass::CohProt, 8);
            self.filter_insert(core, base, memsys);
            let (gm_latency, served_by) = gm_access(memsys, core, addr, is_write);
            self.stats.served_by_gm += 1;
            return GuardedOutcome {
                // The buffered L1/L2 access overlaps with the directory round
                // trip; the slower of the two defines the critical path.
                latency: cam + gm_latency.max(request + ack),
                target: GuardedTarget::GlobalMemory { served_by },
                gm_write_through: false,
            };
        }

        // filterDir miss: broadcast an SPMDir probe to every core.
        self.stats.broadcasts += 1;
        self.stats.spmdir_probe_lookups += (self.config.cores - 1) as u64;
        let noc = memsys.noc_mut();
        let others = (0..noc.topology().nodes())
            .map(NodeId::new)
            .filter(|&n| n != home.node());
        let broadcast = noc.fan_out(home.node(), others, home.node(), MessageClass::CohProt);

        let owner = (0..self.config.cores)
            .map(CoreId::new)
            .filter(|c| *c != core)
            .find(|c| self.spmdirs[c.index()].probe(base).is_some());

        match owner {
            Some(owner) => {
                // Case (d): the chunk lives in a remote SPM; the remote core
                // serves the access and replies directly to the requestor.
                self.stats.remote_spm_accesses += 1;
                let spm_latency = if is_write {
                    spms[owner.index()].write_remote()
                } else {
                    spms[owner.index()].read_remote()
                };
                let payload = if is_write { 8 } else { 64 };
                let response = memsys.noc_mut().send(
                    owner.node(),
                    core.node(),
                    MessageClass::CohProt,
                    payload,
                );
                // The filterDir also NACKs the requestor so it does not cache
                // the address in its filter.
                let _ = memsys
                    .noc_mut()
                    .send(home.node(), core.node(), MessageClass::CohProt, 8);
                GuardedOutcome {
                    latency: cam + request + broadcast + spm_latency + response,
                    target: GuardedTarget::RemoteSpm { owner },
                    gm_write_through: false,
                }
            }
            None => {
                // Case (c): nobody maps the chunk.  The filterDir learns it,
                // the requestor caches it in its filter and the buffered
                // cache access completes the request.
                if let Some(evicted) = self.filterdir.insert(base, core) {
                    self.handle_filterdir_eviction(home, evicted, memsys);
                }
                let ack = memsys
                    .noc_mut()
                    .send(home.node(), core.node(), MessageClass::CohProt, 8);
                self.filter_insert(core, base, memsys);
                let (gm_latency, served_by) = gm_access(memsys, core, addr, is_write);
                self.stats.served_by_gm += 1;
                GuardedOutcome {
                    latency: cam + gm_latency.max(request + broadcast + ack),
                    target: GuardedTarget::GlobalMemory { served_by },
                    gm_write_through: false,
                }
            }
        }
    }

    fn set_filters_gated(&mut self, gated: bool) {
        for filter in &mut self.filters {
            filter.set_gated_off(gated);
        }
    }

    fn stats(&self) -> &ProtocolStats {
        &self.stats
    }

    fn export_stats(&self, stats: &mut StatRegistry) {
        self.stats.export(stats);
        stats.add_count(
            "cohprot.spmdir.lookups",
            self.spmdirs.iter().map(SpmDir::lookups).sum(),
        );
        stats.add_count(
            "cohprot.spmdir.maps",
            self.spmdirs.iter().map(SpmDir::maps).sum(),
        );
        stats.add_count("cohprot.filterdir.lookups", self.filterdir.lookups());
        stats.add_count(
            "cohprot.filterdir.occupancy",
            self.filterdir.occupancy() as u64,
        );
        stats.add_count(
            "cohprot.filter.evictions",
            self.filters.iter().map(Filter::evictions).sum(),
        );
    }

    fn describe_addr(&self, core: CoreId, addr: Addr) -> String {
        let base = self.masks.base(addr);
        let local = self.spmdirs[core.index()].probe(base);
        let owner = (0..self.config.cores)
            .map(CoreId::new)
            .find(|c| self.spmdirs[c.index()].probe(base).is_some());
        format!(
            "base {base}: spmdir[{core}]={local:?} owner={owner:?} \
             filter[{core}].hit={} filterdir.contains={} filterdir.sharers={:?}",
            self.filters[core.index()].probe(base),
            self.filterdir.contains(base),
            self.filterdir.sharers(base),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem::{MemorySystemConfig, ServedBy};
    use spm::SpmConfig;

    fn setup(cores: usize) -> (SpmCoherenceProtocol, MemorySystem, Vec<Scratchpad>) {
        let protocol = SpmCoherenceProtocol::new(ProtocolConfig::small(cores));
        let memsys = MemorySystem::new(MemorySystemConfig::small(cores));
        let spms = (0..cores)
            .map(|_| Scratchpad::new(SpmConfig::small()))
            .collect();
        (protocol, memsys, spms)
    }

    #[test]
    fn case_a_filter_hit_goes_to_gm_with_no_extra_latency() {
        let (mut p, mut m, mut spms) = setup(4);
        let addr = Addr::new(0x40_0000);
        // First access misses the filter and goes through the filterDir.
        let first = p.guarded_access(CoreId::new(0), addr, false, &mut m, &mut spms);
        assert!(first.served_by_global_memory());
        assert_eq!((p.stats().filter_lookups, p.stats().filter_hits), (1, 0));
        // Second access to the same chunk hits the filter: its latency equals
        // the plain cache access latency (an L1 hit now).
        let second = p.guarded_access(CoreId::new(0), addr, false, &mut m, &mut spms);
        assert_eq!((p.stats().filter_lookups, p.stats().filter_hits), (2, 1));
        assert_eq!(second.latency, Cycle::new(2));
        match second.target {
            GuardedTarget::GlobalMemory { served_by } => assert_eq!(served_by, ServedBy::L1),
            other => panic!("unexpected target {other:?}"),
        }
    }

    #[test]
    fn case_b_local_spm_hit_diverts() {
        let (mut p, mut m, mut spms) = setup(4);
        p.configure_buffer_size(ByteSize::kib(4));
        let chunk = AddressRange::new(Addr::new(0x10_0000), 4096);
        p.on_map(CoreId::new(2), 1, chunk, &mut m);
        let out = p.guarded_access(
            CoreId::new(2),
            Addr::new(0x10_0040),
            false,
            &mut m,
            &mut spms,
        );
        assert_eq!(out.target, GuardedTarget::LocalSpm { buffer: 1 });
        assert!(out.diverted_to_spm());
        assert_eq!(spms[2].local_accesses(), 1);
        assert_eq!(p.stats().local_spm_hits, 1);
        assert_eq!(p.stats().lsq_recheck_notifications, 1);
    }

    #[test]
    fn case_c_unmapped_filter_miss_updates_filter_and_filterdir() {
        let (mut p, mut m, mut spms) = setup(4);
        let addr = Addr::new(0x55_0000);
        let out = p.guarded_access(CoreId::new(1), addr, false, &mut m, &mut spms);
        assert!(out.served_by_global_memory());
        assert_eq!(p.stats().broadcasts, 1);
        assert_eq!(p.stats().filterdir_requests, 1);
        let base = p.masks().base(addr);
        assert!(p.filter(CoreId::new(1)).probe(base));
        assert!(p.filterdir().contains(base));
        // A different core touching the same chunk now resolves without a broadcast.
        let out2 = p.guarded_access(CoreId::new(3), addr, false, &mut m, &mut spms);
        assert!(out2.served_by_global_memory());
        assert_eq!(
            p.stats().broadcasts,
            1,
            "second request must hit the filterDir"
        );
        assert_eq!(p.stats().filterdir_hits, 1);
    }

    #[test]
    fn case_d_remote_spm_access() {
        let (mut p, mut m, mut spms) = setup(4);
        p.configure_buffer_size(ByteSize::kib(4));
        let chunk = AddressRange::new(Addr::new(0x20_0000), 4096);
        p.on_map(CoreId::new(3), 0, chunk, &mut m);
        // Core 0 issues a guarded store to data mapped in core 3's SPM.
        let out = p.guarded_access(
            CoreId::new(0),
            Addr::new(0x20_0100),
            true,
            &mut m,
            &mut spms,
        );
        assert_eq!(
            out.target,
            GuardedTarget::RemoteSpm {
                owner: CoreId::new(3)
            }
        );
        assert!(out.diverted_to_spm());
        assert_eq!(spms[3].remote_accesses(), 1);
        assert_eq!(p.stats().remote_spm_accesses, 1);
        // The requestor must not cache the address in its filter.
        let base = p.masks().base(Addr::new(0x20_0100));
        assert!(!p.filter(CoreId::new(0)).probe(base));
        assert!(m.noc().traffic().packets(MessageClass::CohProt) > 0);
    }

    #[test]
    fn dma_mapping_invalidates_filters_figure_6a() {
        let (mut p, mut m, mut spms) = setup(4);
        p.configure_buffer_size(ByteSize::kib(4));
        let addr = Addr::new(0x30_0000);
        // Core 0 caches the chunk in its filter.
        let _ = p.guarded_access(CoreId::new(0), addr, false, &mut m, &mut spms);
        let base = p.masks().base(addr);
        assert!(p.filter(CoreId::new(0)).probe(base));
        // Core 1 now maps that chunk to its SPM: core 0's filter entry must go.
        let chunk = AddressRange::new(addr, 4096);
        let lat = p.on_map(CoreId::new(1), 0, chunk, &mut m);
        assert!(lat > Cycle::ZERO);
        assert!(!p.filter(CoreId::new(0)).probe(base));
        assert!(!p.filterdir().contains(base));
        assert_eq!(p.stats().filter_invalidation_rounds, 1);
        assert_eq!(p.stats().filter_entries_invalidated, 1);
        // And the guarded access from core 0 is now diverted to core 1's SPM.
        let out = p.guarded_access(CoreId::new(0), addr, false, &mut m, &mut spms);
        assert_eq!(
            out.target,
            GuardedTarget::RemoteSpm {
                owner: CoreId::new(1)
            }
        );
    }

    #[test]
    fn unmap_and_loop_end_clear_mappings() {
        let (mut p, mut m, mut spms) = setup(2);
        p.configure_buffer_size(ByteSize::kib(4));
        p.on_map(
            CoreId::new(0),
            0,
            AddressRange::new(Addr::new(0x1_0000), 4096),
            &mut m,
        );
        p.on_map(
            CoreId::new(0),
            1,
            AddressRange::new(Addr::new(0x2_0000), 4096),
            &mut m,
        );
        assert_eq!(p.spmdir(CoreId::new(0)).mapped_count(), 2);
        p.on_unmap(CoreId::new(0), 0);
        assert_eq!(p.spmdir(CoreId::new(0)).mapped_count(), 1);
        p.on_loop_end(CoreId::new(0));
        assert_eq!(p.spmdir(CoreId::new(0)).mapped_count(), 0);
        // After the loop, the guarded access is served by GM again.
        let out = p.guarded_access(
            CoreId::new(0),
            Addr::new(0x1_0000),
            false,
            &mut m,
            &mut spms,
        );
        assert!(out.served_by_global_memory());
    }

    #[test]
    fn guarded_store_on_local_hit_also_writes_l1() {
        let (mut p, mut m, mut spms) = setup(2);
        p.configure_buffer_size(ByteSize::kib(4));
        let addr = Addr::new(0x44_0000);
        p.on_map(CoreId::new(0), 0, AddressRange::new(addr, 4096), &mut m);
        let before = m.counters().l1d_accesses;
        let out = p.guarded_access(CoreId::new(0), addr, true, &mut m, &mut spms);
        assert!(out.diverted_to_spm());
        assert!(
            m.counters().l1d_accesses > before,
            "guarded store must also update the GM copy"
        );
        assert_eq!(spms[0].local_accesses(), 1);
    }

    #[test]
    fn filters_can_be_gated_off() {
        let (mut p, mut m, mut spms) = setup(2);
        p.set_filters_gated(true);
        let _ = p.guarded_access(
            CoreId::new(0),
            Addr::new(0x66_0000),
            false,
            &mut m,
            &mut spms,
        );
        assert_eq!(p.stats().filter_lookups, 0);
        assert_eq!(p.filter_hit_ratio(), None);
        p.set_filters_gated(false);
    }

    #[test]
    fn stats_export_contains_structure_counters() {
        let (mut p, mut m, mut spms) = setup(2);
        let _ = p.guarded_access(
            CoreId::new(0),
            Addr::new(0x70_0000),
            false,
            &mut m,
            &mut spms,
        );
        let mut reg = StatRegistry::new();
        p.export_stats(&mut reg);
        assert!(reg.contains("cohprot.filter.lookups"));
        assert!(reg.contains("cohprot.filterdir.lookups"));
        assert_eq!(reg.count("cohprot.broadcasts"), 1);
    }

    #[test]
    fn injected_fault_leaves_stale_filter_entries_behind() {
        let (mut p, mut m, mut spms) = setup(4);
        p.configure_buffer_size(ByteSize::kib(4));
        let addr = Addr::new(0x90_0000);
        // Core 0 caches "not mapped anywhere" in its filter.
        let _ = p.guarded_access(CoreId::new(0), addr, false, &mut m, &mut spms);
        let base = p.masks().base(addr);
        assert!(p.filter(CoreId::new(0)).probe(base));
        // With the fault injected, core 1's mapping skips the Figure 6a
        // invalidation round: the stale entry survives and the guarded
        // access is wrongly served by global memory.
        p.inject_fault(Some(ProtocolFault::SkipFilterInvalidationOnMap));
        assert_eq!(
            p.injected_fault(),
            Some(ProtocolFault::SkipFilterInvalidationOnMap)
        );
        let lat = p.on_map(CoreId::new(1), 0, AddressRange::new(addr, 4096), &mut m);
        assert_eq!(lat, Cycle::ZERO);
        assert!(p.filter(CoreId::new(0)).probe(base), "stale entry survives");
        let out = p.guarded_access(CoreId::new(0), addr, false, &mut m, &mut spms);
        assert!(
            out.served_by_global_memory(),
            "the defect serves the access from stale GM"
        );
        // Divergence-report context names the structures involved.
        let ctx = p.describe_addr(CoreId::new(0), addr);
        assert!(ctx.contains("spmdir"), "{ctx}");
        assert!(ctx.contains("filter"), "{ctx}");
    }

    #[test]
    fn local_guarded_store_reports_gm_write_through() {
        let (mut p, mut m, mut spms) = setup(2);
        p.configure_buffer_size(ByteSize::kib(4));
        let addr = Addr::new(0xa0_0000);
        p.on_map(CoreId::new(0), 0, AddressRange::new(addr, 4096), &mut m);
        let store = p.guarded_access(CoreId::new(0), addr, true, &mut m, &mut spms);
        assert!(store.gm_write_through);
        let load = p.guarded_access(CoreId::new(0), addr, false, &mut m, &mut spms);
        assert!(!load.gm_write_through);
    }

    #[test]
    fn filter_hit_ratio_reaches_paper_levels_with_reuse() {
        let (mut p, mut m, mut spms) = setup(4);
        p.configure_buffer_size(ByteSize::kib(4));
        // 8 chunks of guarded data accessed round-robin many times, far more
        // reuse than the 48-entry filter needs.
        for round in 0..200u64 {
            for chunk in 0..8u64 {
                let addr = Addr::new(0x100_0000 + chunk * 4096 + (round % 64) * 8);
                let _ = p.guarded_access(CoreId::new(0), addr, round % 4 == 0, &mut m, &mut spms);
            }
        }
        let ratio = p.filter_hit_ratio().unwrap();
        assert!(
            ratio > 0.97,
            "filter hit ratio {ratio} below the paper's range"
        );
    }
}
