//! The plain MOESI-directory coherence baseline: no SPM filters, every
//! guarded access goes through the L2-home directory.
//!
//! The paper's central cost claim is that its filter/filterDir/spmDir
//! protocol is *cheaper* than managing scratchpad coherence with a
//! conventional directory.  [`DirectoryCoherence`] is that conventional
//! alternative, made runnable so the claim becomes a measurable ablation:
//!
//! * SPM mappings are registered at address-interleaved L2 home tiles (the
//!   [`mem::MappingDirectory`]), exactly as the MOESI directory of the
//!   baseline machine tracks cache lines — a mapping costs one home round
//!   trip, never a broadcast;
//! * there are **no** per-core filters, so *every* guarded access — even the
//!   overwhelmingly common "not mapped anywhere" case the paper's filters
//!   shortcut — pays a request to the home tile before it may touch the
//!   cache hierarchy, and the access serializes behind the directory's
//!   answer (no speculative overlap: a conventional core cannot use a
//!   possibly-stale cached copy until the home has ruled);
//! * accesses to remotely mapped chunks are the classic three-hop
//!   forwarding flow: requester → home, home → owner, owner → requester.
//!
//! Functionally the backend diverts accesses exactly like the other
//! backends (same `GuardedTarget` classification, same final memory
//! images); only its latencies and traffic differ.  That invariant is what
//! the cross-protocol conformance matrix pins.

use simkernel::{ByteSize, CoreId, Cycle, StatRegistry};

use mem::{Addr, AddressRange, MappingDirectory, MemorySystem};
use noc::MessageClass;
use spm::Scratchpad;

use crate::masks::AddressMasks;
use crate::outcome::{gm_access, GuardedOutcome, GuardedTarget};
use crate::protocol::{CoherenceBackend, ProtocolConfig, ProtocolFault};
use crate::stats::ProtocolStats;

/// The plain-directory coherence baseline.
///
/// # Example
///
/// ```
/// use spm_coherence::{CoherenceBackend, DirectoryCoherence, ProtocolConfig};
/// use mem::{Addr, AddressRange, MemorySystem, MemorySystemConfig};
/// use spm::{Scratchpad, SpmConfig};
/// use simkernel::{ByteSize, CoreId};
///
/// let mut memsys = MemorySystem::new(MemorySystemConfig::small(4));
/// let mut spms: Vec<Scratchpad> = (0..4).map(|_| Scratchpad::new(SpmConfig::small())).collect();
/// let mut protocol = DirectoryCoherence::new(ProtocolConfig::small(4));
/// protocol.configure_buffer_size(ByteSize::kib(4));
/// protocol.on_map(CoreId::new(1), 0, AddressRange::new(Addr::new(0x10_0000), 4096), &mut memsys);
/// let out = protocol.guarded_access(CoreId::new(0), Addr::new(0x10_0040), false,
///                                   &mut memsys, &mut spms);
/// assert!(out.diverted_to_spm());
/// ```
#[derive(Debug)]
pub struct DirectoryCoherence {
    config: ProtocolConfig,
    masks: AddressMasks,
    /// The raw buffer size: homes interleave by `base / buffer_size`, not by
    /// the mask granularity.
    buffer_size: ByteSize,
    directory: MappingDirectory,
    stats: ProtocolStats,
    fault: Option<ProtocolFault>,
}

impl DirectoryCoherence {
    /// Creates the baseline for `config.cores` tiles (one directory slice
    /// per tile; the structure-size knobs of `config` are unused — a
    /// precise directory has no capacity pressure to model).
    pub fn new(config: ProtocolConfig) -> Self {
        DirectoryCoherence {
            masks: AddressMasks::for_buffer_size(config.spm_size),
            buffer_size: config.spm_size,
            directory: MappingDirectory::new(config.cores),
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

    /// Read access to the home directory (tests and reports).
    pub fn directory(&self) -> &MappingDirectory {
        &self.directory
    }

    /// The home tile for a chunk base address: plain address interleaving
    /// over the cores, like the L2 home mapping of the MOESI directory.
    fn home_of(&self, base: Addr) -> CoreId {
        let chunk_index = base.raw() / self.buffer_size.bytes().max(1);
        CoreId::new(self.directory.home_of(chunk_index))
    }
}

impl CoherenceBackend for DirectoryCoherence {
    fn configure_buffer_size(&mut self, buffer_size: ByteSize) {
        self.buffer_size = buffer_size;
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
        self.stats.dma_mappings += 1;
        let home = self.home_of(base);
        let noc = memsys.noc_mut();
        let request = noc.send(core.node(), home.node(), MessageClass::CohProt, 8);
        let ack = noc.send(home.node(), core.node(), MessageClass::CohProt, 8);
        if self.fault == Some(ProtocolFault::SkipDirectoryUpdateOnMap) {
            // Injected defect: the home never learns about the mapping, so
            // it keeps answering "not mapped anywhere" (see `ProtocolFault`).
            return self.config.cam_latency + request + ack;
        }
        self.directory.record(base, core, buffer);
        self.config.cam_latency + request + ack
    }

    fn on_unmap(&mut self, core: CoreId, buffer: usize) -> Cycle {
        // The home's forget-notification piggybacks on the dma-put
        // write-back traffic the DMAC already injects, so no extra latency
        // is charged here (mirroring the other backends' unmap cost).
        let _ = self.directory.drop_buffer(core, buffer);
        Cycle::ZERO
    }

    fn on_loop_end(&mut self, core: CoreId) {
        self.directory.drop_core(core);
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

        let base = self.masks.base(addr);
        let cam = self.config.cam_latency;
        let home = self.home_of(base);

        // No filters: every guarded access asks the home tile first.
        self.stats.directory_requests += 1;
        let request = memsys
            .noc_mut()
            .send(core.node(), home.node(), MessageClass::CohProt, 8);

        match self.directory.lookup(base) {
            Some(entry) if entry.owner == core => {
                // Mapped to the requester's own SPM: the home acknowledges
                // and the access resolves locally.
                self.stats.local_spm_hits += 1;
                self.stats.lsq_recheck_notifications += 1;
                let ack = memsys
                    .noc_mut()
                    .send(home.node(), core.node(), MessageClass::CohProt, 8);
                let spm_latency = if is_write {
                    spms[core.index()].write_local()
                } else {
                    spms[core.index()].read_local()
                };
                GuardedOutcome {
                    latency: cam + request + ack + spm_latency,
                    target: GuardedTarget::LocalSpm {
                        buffer: entry.buffer,
                    },
                    gm_write_through: false,
                }
            }
            Some(entry) => {
                // The classic three-hop flow: the home forwards the request
                // to the owning tile, which serves its SPM and replies
                // directly to the requester.
                self.stats.remote_spm_accesses += 1;
                let owner = entry.owner;
                let forward =
                    memsys
                        .noc_mut()
                        .send(home.node(), owner.node(), MessageClass::CohProt, 8);
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
                GuardedOutcome {
                    latency: cam + request + forward + spm_latency + response,
                    target: GuardedTarget::RemoteSpm { owner },
                    gm_write_through: false,
                }
            }
            None => {
                // Not mapped anywhere: the home acknowledges and the cache
                // hierarchy serves the access.  Without a filter the access
                // serializes behind the directory round trip — this is
                // precisely the common-case cost the paper's filters remove.
                self.stats.served_by_gm += 1;
                let ack = memsys
                    .noc_mut()
                    .send(home.node(), core.node(), MessageClass::CohProt, 8);
                let (gm_latency, served_by) = gm_access(memsys, core, addr, is_write);
                GuardedOutcome {
                    latency: cam + request + ack + gm_latency,
                    target: GuardedTarget::GlobalMemory { served_by },
                    gm_write_through: false,
                }
            }
        }
    }

    fn set_filters_gated(&mut self, _gated: bool) {
        // No filters to gate.
    }

    fn stats(&self) -> &ProtocolStats {
        &self.stats
    }

    fn export_stats(&self, stats: &mut StatRegistry) {
        self.stats.export(stats);
        stats.add_count("cohprot.directory.lookups", self.directory.lookups());
        stats.add_count("cohprot.directory.updates", self.directory.updates());
        stats.add_count(
            "cohprot.directory.occupancy",
            self.directory.occupancy() as u64,
        );
    }

    fn describe_addr(&self, _core: CoreId, addr: Addr) -> String {
        let base = self.masks.base(addr);
        format!(
            "base {base}: home={} directory={:?}",
            self.home_of(base),
            self.directory.probe(base),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem::MemorySystemConfig;
    use spm::SpmConfig;

    fn setup(cores: usize) -> (DirectoryCoherence, MemorySystem, Vec<Scratchpad>) {
        let protocol = DirectoryCoherence::new(ProtocolConfig::small(cores));
        let memsys = MemorySystem::new(MemorySystemConfig::small(cores));
        let spms = (0..cores)
            .map(|_| Scratchpad::new(SpmConfig::small()))
            .collect();
        (protocol, memsys, spms)
    }

    #[test]
    fn every_guarded_access_consults_the_home() {
        let (mut p, mut m, mut spms) = setup(4);
        let addr = Addr::new(0x40_0000);
        let before = m.noc().traffic().packets(MessageClass::CohProt);
        let out = p.guarded_access(CoreId::new(0), addr, false, &mut m, &mut spms);
        assert!(out.served_by_global_memory());
        assert_eq!(p.stats().directory_requests, 1);
        assert!(
            m.noc().traffic().packets(MessageClass::CohProt) >= before + 2,
            "request + ack on every access"
        );
        // Unlike the paper's protocol, the second access to the same chunk
        // pays the directory round trip again.
        let _ = p.guarded_access(CoreId::new(0), addr, false, &mut m, &mut spms);
        assert_eq!(p.stats().directory_requests, 2);
        assert_eq!(p.filter_hit_ratio(), None);
    }

    #[test]
    fn local_mapping_diverts_after_a_home_round_trip() {
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
        assert_eq!(spms[2].local_accesses(), 1);
        assert_eq!(p.stats().local_spm_hits, 1);
        // The local hit is slower than a bare SPM access: it still paid the
        // home round trip (cam + request + ack + spm).
        assert!(out.latency > Cycle::new(2));
    }

    #[test]
    fn remote_mapping_takes_the_three_hop_path() {
        let (mut p, mut m, mut spms) = setup(4);
        p.configure_buffer_size(ByteSize::kib(4));
        let chunk = AddressRange::new(Addr::new(0x20_0000), 4096);
        p.on_map(CoreId::new(3), 0, chunk, &mut m);
        let before = m.noc().traffic().packets(MessageClass::CohProt);
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
        assert_eq!(spms[3].remote_accesses(), 1);
        assert_eq!(p.stats().remote_spm_accesses, 1);
        assert_eq!(
            m.noc().traffic().packets(MessageClass::CohProt),
            before + 3,
            "request + forward + response"
        );
    }

    #[test]
    fn unmap_and_loop_end_forget_mappings() {
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
        assert_eq!(p.directory().occupancy(), 2);
        p.on_unmap(CoreId::new(0), 0);
        assert_eq!(p.directory().occupancy(), 1);
        p.on_loop_end(CoreId::new(0));
        assert_eq!(p.directory().occupancy(), 0);
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
    fn mapping_pays_a_home_round_trip_but_never_broadcasts() {
        let (mut p, mut m, _) = setup(8);
        p.configure_buffer_size(ByteSize::kib(4));
        let before = m.noc().traffic().packets(MessageClass::CohProt);
        let lat = p.on_map(
            CoreId::new(5),
            0,
            AddressRange::new(Addr::new(0x30_0000), 4096),
            &mut m,
        );
        assert!(lat > Cycle::ZERO);
        assert_eq!(
            m.noc().traffic().packets(MessageClass::CohProt),
            before + 2,
            "exactly request + ack, no invalidation broadcast"
        );
        assert_eq!(p.stats().broadcasts, 0);
    }

    #[test]
    fn injected_fault_leaves_the_home_directory_stale() {
        let (mut p, mut m, mut spms) = setup(4);
        p.configure_buffer_size(ByteSize::kib(4));
        let addr = Addr::new(0x90_0000);
        p.inject_fault(Some(ProtocolFault::SkipDirectoryUpdateOnMap));
        assert_eq!(
            p.injected_fault(),
            Some(ProtocolFault::SkipDirectoryUpdateOnMap)
        );
        p.on_map(CoreId::new(1), 0, AddressRange::new(addr, 4096), &mut m);
        assert_eq!(p.directory().occupancy(), 0, "the home never learned");
        let out = p.guarded_access(CoreId::new(0), addr, false, &mut m, &mut spms);
        assert!(
            out.served_by_global_memory(),
            "the defect serves the access from stale GM"
        );
        let ctx = p.describe_addr(CoreId::new(0), addr);
        assert!(ctx.contains("directory"), "{ctx}");
        // The filter fault targets structures this backend does not have:
        // it must change nothing.
        p.inject_fault(Some(ProtocolFault::SkipFilterInvalidationOnMap));
        p.on_map(
            CoreId::new(1),
            1,
            AddressRange::new(Addr::new(0xa0_0000), 4096),
            &mut m,
        );
        assert_eq!(p.directory().occupancy(), 1, "unrelated fault is inert");
    }

    #[test]
    fn stats_export_contains_directory_counters() {
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
        assert_eq!(reg.count("cohprot.directory.requests"), 1);
        assert_eq!(reg.count("cohprot.directory.lookups"), 1);
    }
}
