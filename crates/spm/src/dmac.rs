//! The per-core DMA controller.
//!
//! Each DMAC exposes three operations to the runtime library (§2.1 of the
//! paper): `dma-get` (global memory → SPM), `dma-put` (SPM → global memory)
//! and `dma-synch` (wait for tagged transfers to complete).  The bus requests
//! of a transfer are integrated with the cache coherence protocol of the
//! global memory: a `dma-get` snoops the caches for the freshest copy, a
//! `dma-put` updates memory and invalidates cached copies.  Both behaviours
//! are implemented by [`mem::MemorySystem::dma_get_line`] /
//! [`mem::MemorySystem::dma_put_line`]; the DMAC adds the command-queue and
//! issue-bandwidth timing on top.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use simkernel::{CoreId, Cycle, StatRegistry};

use mem::{AddressRange, MemorySystem, ValueStore};

/// Tag used by the runtime library to name a transfer for `dma-synch`.
pub type DmaTag = u32;

/// Configuration of one DMA controller (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmacConfig {
    /// Entries of the in-order DMA command queue.
    pub command_queue_entries: usize,
    /// Entries of the in-order bus request queue.
    pub bus_request_queue_entries: usize,
    /// Minimum gap between consecutive line requests issued to the bus.
    pub issue_gap: Cycle,
    /// Fixed cost of accepting and decoding one DMA command.
    pub command_overhead: Cycle,
}

impl DmacConfig {
    /// The paper's configuration: 32 command-queue entries, 512 bus-request
    /// queue entries, both in order.
    pub fn isca2015() -> Self {
        DmacConfig {
            command_queue_entries: 32,
            bus_request_queue_entries: 512,
            issue_gap: Cycle::new(1),
            command_overhead: Cycle::new(16),
        }
    }
}

impl Default for DmacConfig {
    fn default() -> Self {
        Self::isca2015()
    }
}

/// Direction of a DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DmaDirection {
    /// Global memory → SPM (`dma-get`).
    Get,
    /// SPM → global memory (`dma-put`).
    Put,
}

/// The per-core DMA controller.
///
/// See the crate-level example for typical usage.
#[derive(Debug)]
pub struct Dmac {
    core: CoreId,
    config: DmacConfig,
    /// When the engine is next free to start issuing line requests.
    next_issue: Cycle,
    /// Completion time of each outstanding tagged transfer.
    pending: HashMap<DmaTag, Cycle>,
    commands: u64,
    gets: u64,
    puts: u64,
    lines_transferred: u64,
    bytes_transferred: u64,
    queue_full_stalls: u64,
    queue_occupancy_max: u64,
    /// `dma-synch` calls that found at least one transfer still in flight.
    ///
    /// Cycle-accounting aid: together with `synch_wait_cycles` it describes
    /// the in-flight windows the core actually waited out (what the
    /// `DmaWait` category of [`simkernel::attrib`] charges).  Not exported
    /// under `dmac.*` so the golden stat reports stay byte-identical.
    synch_waits: u64,
    /// Total cycles `dma_synch` returned beyond `now` (waited windows).
    synch_wait_cycles: u64,
}

impl Dmac {
    /// Creates the DMAC attached to `core`.
    pub fn new(core: CoreId, config: DmacConfig) -> Self {
        Dmac {
            core,
            config,
            next_issue: Cycle::ZERO,
            pending: HashMap::new(),
            commands: 0,
            gets: 0,
            puts: 0,
            lines_transferred: 0,
            bytes_transferred: 0,
            queue_full_stalls: 0,
            queue_occupancy_max: 0,
            synch_waits: 0,
            synch_wait_cycles: 0,
        }
    }

    /// The core this DMAC belongs to.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The configuration in use.
    pub fn config(&self) -> &DmacConfig {
        &self.config
    }

    /// Issues a `dma-get`: copies `range` of global memory into the SPM.
    ///
    /// Returns the cycle at which the transfer completes.  The transfer is
    /// also remembered under `tag` until a matching [`Dmac::dma_synch`].
    ///
    /// When the memory system tracks values and `spm_values` is given (the
    /// SPM's functional contents, keyed by global-memory address), the
    /// transferred words are copied into it from wherever the bus request
    /// read them — a dirty cache, the L2, or memory.
    pub fn dma_get(
        &mut self,
        tag: DmaTag,
        range: AddressRange,
        now: Cycle,
        memsys: &mut MemorySystem,
        spm_values: Option<&mut ValueStore>,
    ) -> Cycle {
        self.gets += 1;
        self.transfer(tag, range, DmaDirection::Get, now, memsys, spm_values)
    }

    /// Issues a `dma-put`: copies `range` (as staged in the SPM) back to
    /// global memory, invalidating stale cached copies.
    ///
    /// Returns the cycle at which the transfer completes.  With value
    /// tracking, the staged words of `range` present in `spm_values` are
    /// written back to memory.
    pub fn dma_put(
        &mut self,
        tag: DmaTag,
        range: AddressRange,
        now: Cycle,
        memsys: &mut MemorySystem,
        spm_values: Option<&mut ValueStore>,
    ) -> Cycle {
        self.puts += 1;
        self.transfer(tag, range, DmaDirection::Put, now, memsys, spm_values)
    }

    fn transfer(
        &mut self,
        tag: DmaTag,
        range: AddressRange,
        direction: DmaDirection,
        now: Cycle,
        memsys: &mut MemorySystem,
        mut spm_values: Option<&mut ValueStore>,
    ) -> Cycle {
        self.commands += 1;
        if self.pending.len() >= self.config.command_queue_entries {
            // The in-order command queue is full: the new command has to wait
            // for the oldest outstanding transfer to drain.
            self.queue_full_stalls += 1;
            if let Some(&oldest) = self.pending.values().min() {
                self.next_issue = self.next_issue.max(oldest);
            }
        }

        let start = now.max(self.next_issue) + self.config.command_overhead;
        let mut issue = start;
        let mut completion = start;
        for line in range.lines() {
            let latency = match direction {
                DmaDirection::Get => {
                    let (latency, values) = memsys.dma_get_line_valued(self.core, line);
                    if let (Some(store), Some(values)) = (spm_values.as_deref_mut(), values) {
                        // Only the words inside the chunk are staged: a
                        // partial first/last line must not clobber the
                        // neighbouring data's slots.
                        store.fill_line_masked(line, &values, &range);
                    }
                    latency
                }
                DmaDirection::Put => {
                    let words = spm_values.as_deref().map(|s| s.masked_line(line, &range));
                    memsys.dma_put_line_valued(self.core, line, words.as_ref())
                }
            };
            completion = completion.max(issue + latency);
            issue += self.config.issue_gap;
            self.lines_transferred += 1;
        }
        self.bytes_transferred += range.len();
        // The engine can accept the next command once it has issued every
        // line request of this one.
        self.next_issue = issue;

        let entry = self.pending.entry(tag).or_insert(Cycle::ZERO);
        *entry = (*entry).max(completion);
        self.queue_occupancy_max = self.queue_occupancy_max.max(self.pending.len() as u64);
        completion
    }

    /// Implements `dma-synch`: blocks until every transfer tagged with one of
    /// `tags` has completed.
    ///
    /// Returns the cycle at which the waiting thread may resume (at least
    /// `now`).  Synced tags are forgotten.
    pub fn dma_synch(&mut self, tags: &[DmaTag], now: Cycle) -> Cycle {
        let mut done = now;
        for tag in tags {
            if let Some(completion) = self.pending.remove(tag) {
                done = done.max(completion);
            }
        }
        if done > now {
            self.synch_waits += 1;
            self.synch_wait_cycles += (done - now).as_u64();
        }
        done
    }

    /// Number of transfers still outstanding.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Number of tagged transfers still in flight at `at` — the mid-run
    /// queue-depth gauge the trace sampler reads, as opposed to
    /// [`Dmac::outstanding`] (which also counts completed-but-unsynced
    /// transfers waiting for their `dma-synch`).
    pub fn in_flight_at(&self, at: Cycle) -> usize {
        self.pending.values().filter(|&&done| done > at).count()
    }

    /// Total DMA commands processed.
    pub fn commands(&self) -> u64 {
        self.commands
    }

    /// Total lines transferred in either direction.
    pub fn lines_transferred(&self) -> u64 {
        self.lines_transferred
    }

    /// Total bytes transferred in either direction.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred
    }

    /// Number of commands that found the command queue full.
    pub fn queue_full_stalls(&self) -> u64 {
        self.queue_full_stalls
    }

    /// High-water mark of simultaneously outstanding tagged transfers.
    ///
    /// `queue_full_stalls` only fires once the command queue overflows;
    /// this mark shows how close a workload actually gets, so
    /// [`DmacConfig::command_queue_entries`] can be validated (and trimmed)
    /// against real occupancy instead of guessed.
    pub fn queue_occupancy_max(&self) -> u64 {
        self.queue_occupancy_max
    }

    /// `dma-synch` calls that actually waited on an in-flight transfer.
    pub fn synch_waits(&self) -> u64 {
        self.synch_waits
    }

    /// Total cycles those waits lasted (the `DmaWait` windows at this DMAC).
    pub fn synch_wait_cycles(&self) -> u64 {
        self.synch_wait_cycles
    }

    /// Exports the DMAC counters under `dmac.*` names.
    pub fn export_stats(&self, stats: &mut StatRegistry) {
        stats.add_count("dmac.commands", self.commands);
        stats.add_count("dmac.gets", self.gets);
        stats.add_count("dmac.puts", self.puts);
        stats.add_count("dmac.lines", self.lines_transferred);
        stats.add_count("dmac.bytes", self.bytes_transferred);
        stats.add_count("dmac.queue_full_stalls", self.queue_full_stalls);
        // Max-merged: with one DMAC per core the registry keeps the chip-wide
        // peak, not the sum of per-core peaks.
        stats.record_max("dmac.queue_occupancy_max", self.queue_occupancy_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem::{Addr, MemorySystemConfig};
    use noc::MessageClass;

    fn memsys() -> MemorySystem {
        MemorySystem::new(MemorySystemConfig::small(4))
    }

    fn dmac() -> Dmac {
        Dmac::new(CoreId::new(0), DmacConfig::isca2015())
    }

    #[test]
    fn get_transfers_all_lines() {
        let mut m = memsys();
        let mut d = dmac();
        let range = AddressRange::new(Addr::new(0x10_0000), 1024);
        let done = d.dma_get(1, range, Cycle::ZERO, &mut m, None);
        assert!(done > Cycle::ZERO);
        assert_eq!(d.lines_transferred(), 16);
        assert_eq!(d.bytes_transferred(), 1024);
        assert_eq!(m.counters().dma_line_reads, 16);
        assert!(m.noc().traffic().packets(MessageClass::Dma) > 0);
    }

    #[test]
    fn synch_wait_windows_are_counted() {
        let mut m = memsys();
        let mut d = dmac();
        let range = AddressRange::new(Addr::new(0x30_0000), 1024);
        let completion = d.dma_get(7, range, Cycle::ZERO, &mut m, None);
        // Synching while the transfer is in flight waits the whole window...
        let done = d.dma_synch(&[7], Cycle::ZERO);
        assert_eq!(done, completion);
        assert_eq!(d.synch_waits(), 1);
        assert_eq!(d.synch_wait_cycles(), completion.as_u64());
        // ...and a synch on a forgotten/complete tag waits nothing.
        let later = d.dma_synch(&[7], completion);
        assert_eq!(later, completion);
        assert_eq!(d.synch_waits(), 1);
        assert_eq!(d.synch_wait_cycles(), completion.as_u64());
    }

    #[test]
    fn put_invalidates_and_completes() {
        let mut m = memsys();
        let mut d = dmac();
        // Warm a line into core 1's cache, then dma-put over it.
        let addr = Addr::new(0x20_0000);
        let _ = m.access(
            CoreId::new(1),
            addr,
            mem::AccessKind::Load,
            MessageClass::Read,
            1,
        );
        assert!(m.is_cached(addr.line()));
        let range = AddressRange::new(addr, 64);
        let done = d.dma_put(2, range, Cycle::new(100), &mut m, None);
        assert!(done > Cycle::new(100));
        assert!(!m.is_cached(addr.line()));
        assert_eq!(d.commands(), 1);
    }

    #[test]
    fn synch_waits_for_tagged_transfers() {
        let mut m = memsys();
        let mut d = dmac();
        let r1 = AddressRange::new(Addr::new(0x30_0000), 512);
        let r2 = AddressRange::new(Addr::new(0x40_0000), 512);
        let c1 = d.dma_get(1, r1, Cycle::ZERO, &mut m, None);
        let c2 = d.dma_get(2, r2, Cycle::ZERO, &mut m, None);
        assert_eq!(d.outstanding(), 2);
        let done = d.dma_synch(&[1], Cycle::ZERO);
        assert_eq!(done, c1);
        assert_eq!(d.outstanding(), 1);
        // Syncing an unknown tag is a no-op returning `now`.
        assert_eq!(d.dma_synch(&[99], Cycle::new(5)), Cycle::new(5));
        assert_eq!(d.dma_synch(&[2], Cycle::ZERO), c2);
        assert_eq!(d.outstanding(), 0);
    }

    #[test]
    fn back_to_back_commands_serialize_on_the_engine() {
        let mut m = memsys();
        let mut d = dmac();
        let r = AddressRange::new(Addr::new(0x50_0000), 2048);
        let c1 = d.dma_get(1, r, Cycle::ZERO, &mut m, None);
        let r2 = AddressRange::new(Addr::new(0x60_0000), 2048);
        let c2 = d.dma_get(2, r2, Cycle::ZERO, &mut m, None);
        assert!(c2 > c1, "second command must finish after the first");
    }

    #[test]
    fn same_tag_accumulates_latest_completion() {
        let mut m = memsys();
        let mut d = dmac();
        let c1 = d.dma_get(
            7,
            AddressRange::new(Addr::new(0x1000), 64),
            Cycle::ZERO,
            &mut m,
            None,
        );
        let c2 = d.dma_get(
            7,
            AddressRange::new(Addr::new(0x2000), 64),
            Cycle::ZERO,
            &mut m,
            None,
        );
        let done = d.dma_synch(&[7], Cycle::ZERO);
        assert_eq!(done, c1.max(c2));
    }

    #[test]
    fn in_flight_snapshot_distinguishes_done_from_moving() {
        let mut m = memsys();
        let mut d = dmac();
        let c1 = d.dma_get(
            1,
            AddressRange::new(Addr::new(0x1000), 512),
            Cycle::ZERO,
            &mut m,
            None,
        );
        let c2 = d.dma_get(
            2,
            AddressRange::new(Addr::new(0x2000), 2048),
            Cycle::ZERO,
            &mut m,
            None,
        );
        assert!(c2 > c1);
        assert_eq!(d.in_flight_at(Cycle::ZERO), 2);
        // After the first completes but before the second, one is moving —
        // even though both are still outstanding (unsynced).
        assert_eq!(d.in_flight_at(c1), 1);
        assert_eq!(d.outstanding(), 2);
        assert_eq!(d.in_flight_at(c2), 0);
    }

    #[test]
    fn command_queue_pressure_is_counted() {
        let mut m = memsys();
        let mut d = Dmac::new(
            CoreId::new(0),
            DmacConfig {
                command_queue_entries: 2,
                ..DmacConfig::isca2015()
            },
        );
        for tag in 0..4 {
            let _ = d.dma_get(
                tag,
                AddressRange::new(Addr::new(0x1000 * (tag as u64 + 1)), 256),
                Cycle::ZERO,
                &mut m,
                None,
            );
        }
        assert!(d.queue_full_stalls() > 0);
    }

    #[test]
    fn get_then_put_round_trips_values_through_the_spm() {
        let mut m = memsys();
        m.enable_value_tracking();
        let mut d = dmac();
        let addr = Addr::new(0x70_0000);
        // Core 2 dirties the line in its cache; the get must snoop it.
        let _ = m.access(
            CoreId::new(2),
            addr,
            mem::AccessKind::Store,
            MessageClass::Write,
            1,
        );
        m.write_word(CoreId::new(2), addr, 1234);
        let mut spm = ValueStore::new();
        let range = AddressRange::new(addr, 128);
        let _ = d.dma_get(1, range, Cycle::ZERO, &mut m, Some(&mut spm));
        assert_eq!(spm.read_word(addr), 1234, "get snooped the dirty copy");
        // The SPM copy is modified locally, then drained back to memory.
        spm.write_word(addr, 5678);
        let _ = d.dma_put(2, range, Cycle::ZERO, &mut m, Some(&mut spm));
        assert_eq!(m.read_word(CoreId::new(0), addr), Some(5678));
    }

    #[test]
    fn partial_line_transfers_do_not_clobber_neighbours() {
        let mut m = memsys();
        m.enable_value_tracking();
        let mut d = dmac();
        // The chunk covers the middle of a line; its neighbours hold data.
        let line_base = Addr::new(0x80_0000);
        let _ = m.access(
            CoreId::new(1),
            line_base,
            mem::AccessKind::Store,
            MessageClass::Write,
            1,
        );
        m.write_word(CoreId::new(1), line_base, 11);
        m.write_word(CoreId::new(1), line_base + 56, 99);
        let chunk = AddressRange::new(line_base + 16, 16);
        let mut spm = ValueStore::new();
        let _ = d.dma_get(1, chunk, Cycle::ZERO, &mut m, Some(&mut spm));
        assert_eq!(spm.read_word(line_base), 0, "outside the chunk: not staged");
        spm.write_word(line_base + 16, 7);
        let _ = d.dma_put(2, chunk, Cycle::ZERO, &mut m, Some(&mut spm));
        assert_eq!(m.read_word(CoreId::new(0), line_base), Some(11));
        assert_eq!(m.read_word(CoreId::new(0), line_base + 16), Some(7));
        assert_eq!(m.read_word(CoreId::new(0), line_base + 56), Some(99));
    }

    #[test]
    fn export_stats_names() {
        let mut m = memsys();
        let mut d = dmac();
        let _ = d.dma_get(
            1,
            AddressRange::new(Addr::new(0x1000), 128),
            Cycle::ZERO,
            &mut m,
            None,
        );
        let mut stats = StatRegistry::new();
        d.export_stats(&mut stats);
        assert_eq!(stats.count("dmac.gets"), 1);
        assert_eq!(stats.count("dmac.lines"), 2);
        assert_eq!(stats.count("dmac.queue_occupancy_max"), 1);
    }

    #[test]
    fn queue_occupancy_high_water_mark_tracks_outstanding_peak() {
        let mut m = memsys();
        let mut d = dmac();
        assert_eq!(d.queue_occupancy_max(), 0);
        for tag in 0..3 {
            let _ = d.dma_get(
                tag,
                AddressRange::new(Addr::new(0x1000 * (tag as u64 + 1)), 64),
                Cycle::ZERO,
                &mut m,
                None,
            );
        }
        assert_eq!(d.queue_occupancy_max(), 3);
        // Draining does not lower the mark...
        let _ = d.dma_synch(&[0, 1, 2], Cycle::ZERO);
        assert_eq!(d.outstanding(), 0);
        assert_eq!(d.queue_occupancy_max(), 3);
        // ...and a smaller later burst does not raise it.
        let _ = d.dma_get(
            9,
            AddressRange::new(Addr::new(0x9000), 64),
            Cycle::ZERO,
            &mut m,
            None,
        );
        assert_eq!(d.queue_occupancy_max(), 3);

        // The chip-wide export max-merges rather than sums per-core peaks.
        let mut stats = StatRegistry::new();
        d.export_stats(&mut stats);
        let mut other = Dmac::new(CoreId::new(1), DmacConfig::isca2015());
        let _ = other.dma_get(
            1,
            AddressRange::new(Addr::new(0x2000), 64),
            Cycle::ZERO,
            &mut m,
            None,
        );
        other.export_stats(&mut stats);
        assert_eq!(stats.count("dmac.queue_occupancy_max"), 3);
    }
}
