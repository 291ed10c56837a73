//! The L2-home mapping directory of the plain-directory coherence baseline.
//!
//! The paper argues its filter/filterDir/spmDir protocol keeps scratchpads
//! coherent *cheaply* relative to a conventional directory.  To measure that
//! claim instead of asserting it, this module provides the bookkeeping of the
//! conventional alternative: a precise directory, sliced across the L2 home
//! tiles by address interleaving (exactly like the MOESI directory of
//! [`crate::moesi`] tracks cache lines), that records which SPM — if any —
//! currently holds each chunk of global memory.  There are no per-core
//! filters and no broadcast probes: every lookup and every update is a
//! request to the chunk's home tile.
//!
//! The timing and traffic of those requests are charged by the protocol
//! engine layered on top (`spm_coherence::DirectoryCoherence`); this module
//! owns the state and its access counters.

use std::collections::HashMap;

use simkernel::CoreId;

use crate::addr::Addr;

/// Where a chunk of global memory currently lives: which core's SPM, and in
/// which of its buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingEntry {
    /// The core whose SPM holds the chunk.
    pub owner: CoreId,
    /// The SPM buffer index within the owner.
    pub buffer: usize,
}

/// Precise SPM-mapping directory, address-interleaved over `homes` L2 tiles.
///
/// # Example
///
/// ```
/// use mem::directory::MappingDirectory;
/// use mem::Addr;
/// use simkernel::CoreId;
///
/// let mut dir = MappingDirectory::new(4);
/// let base = Addr::new(0x10_0000);
/// dir.record(base, CoreId::new(1), 0);
/// assert_eq!(dir.lookup(base).unwrap().owner, CoreId::new(1));
/// dir.drop_buffer(CoreId::new(1), 0);
/// assert!(dir.lookup(base).is_none());
/// ```
#[derive(Debug)]
pub struct MappingDirectory {
    homes: usize,
    /// Chunk base address → current mapping.
    entries: HashMap<Addr, MappingEntry>,
    /// Reverse index so unmapping by (core, buffer) is cheap.
    by_buffer: HashMap<(CoreId, usize), Addr>,
    lookups: u64,
    updates: u64,
}

impl MappingDirectory {
    /// Creates an empty directory sliced over `homes` tiles.
    pub fn new(homes: usize) -> Self {
        assert!(homes >= 1, "the directory needs at least one home tile");
        MappingDirectory {
            homes,
            entries: HashMap::new(),
            by_buffer: HashMap::new(),
            lookups: 0,
            updates: 0,
        }
    }

    /// The home tile responsible for chunk index `chunk_index` (the chunk's
    /// base address divided by the buffer size) — plain address
    /// interleaving, like the L2 home mapping of the MOESI directory.
    pub fn home_of(&self, chunk_index: u64) -> usize {
        (chunk_index % self.homes as u64) as usize
    }

    /// Number of home tiles the directory is sliced over.
    pub fn homes(&self) -> usize {
        self.homes
    }

    /// Registers `base` as mapped to `(owner, buffer)`, replacing whatever
    /// that buffer mapped before (the buffer re-use path of a `dma-get`).
    pub fn record(&mut self, base: Addr, owner: CoreId, buffer: usize) {
        self.updates += 1;
        if let Some(old) = self.by_buffer.insert((owner, buffer), base) {
            self.entries.remove(&old);
        }
        self.entries.insert(base, MappingEntry { owner, buffer });
    }

    /// Drops the mapping held by `(owner, buffer)`, returning the base it
    /// mapped (a `dma-put` write-back / unmap).
    pub fn drop_buffer(&mut self, owner: CoreId, buffer: usize) -> Option<Addr> {
        let base = self.by_buffer.remove(&(owner, buffer))?;
        self.updates += 1;
        self.entries.remove(&base);
        Some(base)
    }

    /// Drops every mapping of `owner` (the end of a transformed loop).
    pub fn drop_core(&mut self, owner: CoreId) {
        let buffers: Vec<(CoreId, usize)> = self
            .by_buffer
            .keys()
            .filter(|(c, _)| *c == owner)
            .copied()
            .collect();
        for key in buffers {
            if let Some(base) = self.by_buffer.remove(&key) {
                self.updates += 1;
                self.entries.remove(&base);
            }
        }
    }

    /// Consults the home for `base`: the current mapping, if any.
    pub fn lookup(&mut self, base: Addr) -> Option<MappingEntry> {
        self.lookups += 1;
        self.entries.get(&base).copied()
    }

    /// Read-only probe (no counter tick) for divergence reports.
    pub fn probe(&self, base: Addr) -> Option<MappingEntry> {
        self.entries.get(&base).copied()
    }

    /// Number of chunks currently mapped somewhere.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Home lookups served since construction.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Directory updates (map/unmap registrations) since construction.
    pub fn updates(&self) -> u64 {
        self.updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_lookup_and_drop() {
        let mut dir = MappingDirectory::new(4);
        let base = Addr::new(0x20_0000);
        assert!(dir.lookup(base).is_none());
        dir.record(base, CoreId::new(2), 1);
        let entry = dir.lookup(base).unwrap();
        assert_eq!(entry.owner, CoreId::new(2));
        assert_eq!(entry.buffer, 1);
        assert_eq!(dir.occupancy(), 1);
        assert_eq!(dir.drop_buffer(CoreId::new(2), 1), Some(base));
        assert!(dir.lookup(base).is_none());
        assert_eq!(dir.occupancy(), 0);
        assert_eq!(dir.lookups(), 3);
        assert!(dir.updates() >= 2);
    }

    #[test]
    fn rerecording_a_buffer_replaces_the_old_chunk() {
        let mut dir = MappingDirectory::new(2);
        let a = Addr::new(0x1000);
        let b = Addr::new(0x2000);
        dir.record(a, CoreId::new(0), 0);
        dir.record(b, CoreId::new(0), 0);
        assert!(
            dir.probe(a).is_none(),
            "buffer re-use forgets the old chunk"
        );
        assert!(dir.probe(b).is_some());
        assert_eq!(dir.occupancy(), 1);
    }

    #[test]
    fn drop_core_forgets_every_mapping_of_that_core() {
        let mut dir = MappingDirectory::new(2);
        dir.record(Addr::new(0x1000), CoreId::new(0), 0);
        dir.record(Addr::new(0x2000), CoreId::new(0), 1);
        dir.record(Addr::new(0x3000), CoreId::new(1), 0);
        dir.drop_core(CoreId::new(0));
        assert!(dir.probe(Addr::new(0x1000)).is_none());
        assert!(dir.probe(Addr::new(0x2000)).is_none());
        assert!(dir.probe(Addr::new(0x3000)).is_some());
    }

    #[test]
    fn homes_interleave_by_chunk_index() {
        let dir = MappingDirectory::new(4);
        assert_eq!(dir.homes(), 4);
        assert_eq!(dir.home_of(0), 0);
        assert_eq!(dir.home_of(5), 1);
        assert_eq!(dir.home_of(7), 3);
    }

    #[test]
    fn dropping_an_unmapped_buffer_is_a_no_op() {
        let mut dir = MappingDirectory::new(2);
        assert_eq!(dir.drop_buffer(CoreId::new(1), 3), None);
        assert_eq!(dir.updates(), 0);
    }
}
