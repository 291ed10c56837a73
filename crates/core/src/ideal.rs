//! The ideal-coherence oracle used as the comparison point in §5.3.
//!
//! The paper quantifies the overhead of the proposed protocol by comparing it
//! against "an ideal coherence protocol that diverts guarded accesses to the
//! correct copy of the data without the need of SPMDirs, filters, the
//! filterDir nor any traffic to maintain them".  [`IdealCoherence`] is that
//! oracle: it keeps a zero-cost map of which chunks are in which SPM (a
//! [`mem::MappingDirectory`] whose homes are never charged), diverts guarded
//! accesses with no lookup latency and injects no coherence traffic.

use simkernel::{ByteSize, CoreId, Cycle, StatRegistry};

use mem::{Addr, AddressRange, MappingDirectory, MemorySystem};
use spm::Scratchpad;

use crate::masks::AddressMasks;
use crate::outcome::{gm_access, GuardedOutcome, GuardedTarget};
use crate::protocol::{CoherenceBackend, ProtocolConfig};
use crate::stats::ProtocolStats;

/// The zero-overhead oracle protocol.
///
/// # Example
///
/// ```
/// use spm_coherence::{CoherenceBackend, IdealCoherence, ProtocolConfig};
/// use mem::{Addr, AddressRange, MemorySystem, MemorySystemConfig};
/// use spm::{Scratchpad, SpmConfig};
/// use simkernel::{ByteSize, CoreId};
///
/// let mut memsys = MemorySystem::new(MemorySystemConfig::small(2));
/// let mut spms: Vec<Scratchpad> = (0..2).map(|_| Scratchpad::new(SpmConfig::small())).collect();
/// let mut oracle = IdealCoherence::new(ProtocolConfig::small(2));
/// oracle.configure_buffer_size(ByteSize::kib(4));
/// oracle.on_map(CoreId::new(0), 0, AddressRange::new(Addr::new(0x8000), 4096), &mut memsys);
/// let out = oracle.guarded_access(CoreId::new(0), Addr::new(0x8010), false, &mut memsys, &mut spms);
/// assert!(out.diverted_to_spm());
/// ```
#[derive(Debug)]
pub struct IdealCoherence {
    masks: AddressMasks,
    /// Oracle mapping: GM base address → owning core and buffer.
    mappings: MappingDirectory,
    stats: ProtocolStats,
}

impl IdealCoherence {
    /// Creates the oracle for `config.cores` tiles.
    pub fn new(config: ProtocolConfig) -> Self {
        IdealCoherence {
            masks: AddressMasks::for_buffer_size(config.spm_size),
            mappings: MappingDirectory::new(config.cores),
            stats: ProtocolStats::new(),
        }
    }
}

impl CoherenceBackend for IdealCoherence {
    fn configure_buffer_size(&mut self, buffer_size: ByteSize) {
        self.masks = AddressMasks::for_buffer_size(buffer_size);
    }

    fn on_map(
        &mut self,
        core: CoreId,
        buffer: usize,
        chunk: AddressRange,
        _memsys: &mut MemorySystem,
    ) -> Cycle {
        let base = self.masks.base(chunk.start());
        self.mappings.record(base, core, buffer);
        self.stats.dma_mappings += 1;
        Cycle::ZERO
    }

    fn on_unmap(&mut self, core: CoreId, buffer: usize) -> Cycle {
        let _ = self.mappings.drop_buffer(core, buffer);
        Cycle::ZERO
    }

    fn on_loop_end(&mut self, core: CoreId) {
        self.mappings.drop_core(core);
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

        match self.mappings.probe(self.masks.base(addr)) {
            Some(entry) if entry.owner == core => {
                self.stats.local_spm_hits += 1;
                let latency = if is_write {
                    spms[core.index()].write_local()
                } else {
                    spms[core.index()].read_local()
                };
                GuardedOutcome {
                    latency,
                    target: GuardedTarget::LocalSpm {
                        buffer: entry.buffer,
                    },
                    gm_write_through: false,
                }
            }
            Some(entry) => {
                // The data still has to travel from the remote SPM, but the
                // oracle pays no lookup or directory cost.
                self.stats.remote_spm_accesses += 1;
                let owner = entry.owner;
                let spm_latency = if is_write {
                    spms[owner.index()].write_remote()
                } else {
                    spms[owner.index()].read_remote()
                };
                let noc_latency = memsys.noc().latency(core.node(), owner.node(), 8)
                    + memsys.noc().latency(
                        owner.node(),
                        core.node(),
                        if is_write { 8 } else { 64 },
                    );
                GuardedOutcome {
                    latency: spm_latency + noc_latency,
                    target: GuardedTarget::RemoteSpm { owner },
                    gm_write_through: false,
                }
            }
            None => {
                let (latency, served_by) = gm_access(memsys, core, addr, is_write);
                self.stats.served_by_gm += 1;
                GuardedOutcome {
                    latency,
                    target: GuardedTarget::GlobalMemory { served_by },
                    gm_write_through: false,
                }
            }
        }
    }

    fn set_filters_gated(&mut self, _gated: bool) {
        // The oracle has no filters.
    }

    fn stats(&self) -> &ProtocolStats {
        &self.stats
    }

    fn export_stats(&self, stats: &mut StatRegistry) {
        self.stats.export(stats);
    }

    fn describe_addr(&self, _core: CoreId, addr: Addr) -> String {
        let base = self.masks.base(addr);
        format!("base {base}: ideal mapping={:?}", self.mappings.probe(base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem::MemorySystemConfig;
    use noc::MessageClass;
    use spm::SpmConfig;

    fn setup(cores: usize) -> (IdealCoherence, MemorySystem, Vec<Scratchpad>) {
        let oracle = IdealCoherence::new(ProtocolConfig::small(cores));
        let memsys = MemorySystem::new(MemorySystemConfig::small(cores));
        let spms = (0..cores)
            .map(|_| Scratchpad::new(SpmConfig::small()))
            .collect();
        (oracle, memsys, spms)
    }

    #[test]
    fn unmapped_access_goes_to_gm_without_coherence_traffic() {
        let (mut o, mut m, mut spms) = setup(4);
        let out = o.guarded_access(
            CoreId::new(0),
            Addr::new(0x12_0000),
            false,
            &mut m,
            &mut spms,
        );
        assert!(out.served_by_global_memory());
        assert_eq!(m.noc().traffic().packets(MessageClass::CohProt), 0);
    }

    #[test]
    fn local_mapping_diverts_with_spm_latency_only() {
        let (mut o, mut m, mut spms) = setup(4);
        o.configure_buffer_size(ByteSize::kib(4));
        o.on_map(
            CoreId::new(1),
            2,
            AddressRange::new(Addr::new(0x20_0000), 4096),
            &mut m,
        );
        let out = o.guarded_access(
            CoreId::new(1),
            Addr::new(0x20_0008),
            true,
            &mut m,
            &mut spms,
        );
        assert_eq!(out.target, GuardedTarget::LocalSpm { buffer: 2 });
        assert_eq!(out.latency, Cycle::new(2));
        assert_eq!(spms[1].local_accesses(), 1);
    }

    #[test]
    fn remote_mapping_costs_only_the_data_movement() {
        let (mut o, mut m, mut spms) = setup(4);
        o.configure_buffer_size(ByteSize::kib(4));
        o.on_map(
            CoreId::new(3),
            0,
            AddressRange::new(Addr::new(0x30_0000), 4096),
            &mut m,
        );
        let before = m.noc().traffic().total_packets();
        let out = o.guarded_access(
            CoreId::new(0),
            Addr::new(0x30_0040),
            false,
            &mut m,
            &mut spms,
        );
        assert_eq!(
            out.target,
            GuardedTarget::RemoteSpm {
                owner: CoreId::new(3)
            }
        );
        assert!(out.latency > Cycle::new(2));
        assert_eq!(
            m.noc().traffic().total_packets(),
            before,
            "oracle injects no protocol packets"
        );
        assert_eq!(spms[3].remote_accesses(), 1);
    }

    #[test]
    fn unmap_and_loop_end_forget_mappings() {
        let (mut o, mut m, mut spms) = setup(2);
        o.configure_buffer_size(ByteSize::kib(4));
        o.on_map(
            CoreId::new(0),
            0,
            AddressRange::new(Addr::new(0x40_0000), 4096),
            &mut m,
        );
        o.on_map(
            CoreId::new(0),
            1,
            AddressRange::new(Addr::new(0x41_0000), 4096),
            &mut m,
        );
        o.on_unmap(CoreId::new(0), 0);
        let out = o.guarded_access(
            CoreId::new(0),
            Addr::new(0x40_0000),
            false,
            &mut m,
            &mut spms,
        );
        assert!(out.served_by_global_memory());
        o.on_loop_end(CoreId::new(0));
        let out = o.guarded_access(
            CoreId::new(0),
            Addr::new(0x41_0000),
            false,
            &mut m,
            &mut spms,
        );
        assert!(out.served_by_global_memory());
    }

    #[test]
    fn remapping_a_buffer_replaces_the_old_chunk() {
        let (mut o, mut m, mut spms) = setup(2);
        o.configure_buffer_size(ByteSize::kib(4));
        o.on_map(
            CoreId::new(0),
            0,
            AddressRange::new(Addr::new(0x50_0000), 4096),
            &mut m,
        );
        o.on_map(
            CoreId::new(0),
            0,
            AddressRange::new(Addr::new(0x51_0000), 4096),
            &mut m,
        );
        let old = o.guarded_access(
            CoreId::new(0),
            Addr::new(0x50_0000),
            false,
            &mut m,
            &mut spms,
        );
        assert!(old.served_by_global_memory());
        let new = o.guarded_access(
            CoreId::new(0),
            Addr::new(0x51_0000),
            false,
            &mut m,
            &mut spms,
        );
        assert!(new.diverted_to_spm());
    }

    #[test]
    fn stats_are_tracked_and_exported() {
        let (mut o, mut m, mut spms) = setup(2);
        let _ = o.guarded_access(
            CoreId::new(0),
            Addr::new(0x60_0000),
            false,
            &mut m,
            &mut spms,
        );
        let _ = o.guarded_access(
            CoreId::new(0),
            Addr::new(0x60_0000),
            true,
            &mut m,
            &mut spms,
        );
        assert_eq!(o.stats().guarded_accesses(), 2);
        assert_eq!(o.filter_hit_ratio(), None);
        let mut reg = StatRegistry::new();
        o.export_stats(&mut reg);
        assert_eq!(reg.count("cohprot.guarded_loads"), 1);
        assert_eq!(reg.count("cohprot.guarded_stores"), 1);
    }
}
