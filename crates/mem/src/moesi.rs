//! MOESI coherence states and directory entries.
//!
//! The baseline machine keeps its caches coherent with a "real MOESI with
//! blocking states" directory protocol (Table 1).  The simulator tracks, for
//! every line present in the shared L2, which private L1 caches hold a copy
//! and in which state, so that reads, writes, write-backs and the DMA
//! transfers of the hybrid memory system generate the correct forwarding,
//! invalidation and acknowledgement traffic.

use std::fmt;

use serde::{Deserialize, Serialize};
use simkernel::CoreId;

/// The five MOESI states of a cached line (plus Invalid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum MoesiState {
    /// Dirty, exclusive: this cache owns the only valid copy.
    Modified,
    /// Dirty, shared: this cache must supply data and eventually write back.
    Owned,
    /// Clean, exclusive.
    Exclusive,
    /// Clean, shared.
    Shared,
    /// Not present.
    #[default]
    Invalid,
}

impl MoesiState {
    /// Returns `true` if the state carries ownership (dirty data).
    pub fn is_dirty(self) -> bool {
        matches!(self, MoesiState::Modified | MoesiState::Owned)
    }

    /// Returns `true` if a store can proceed without further coherence actions.
    pub fn can_write_silently(self) -> bool {
        matches!(self, MoesiState::Modified | MoesiState::Exclusive)
    }

    /// Returns `true` if the line is present in some valid state.
    pub fn is_valid(self) -> bool {
        !matches!(self, MoesiState::Invalid)
    }
}

impl fmt::Display for MoesiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MoesiState::Modified => "M",
            MoesiState::Owned => "O",
            MoesiState::Exclusive => "E",
            MoesiState::Shared => "S",
            MoesiState::Invalid => "I",
        };
        f.write_str(s)
    }
}

/// Which private caches hold a line: one bit per core.
///
/// The paper's machine is 64 cores, so the common representation is a
/// single word.  Bigger meshes (128–1024 cores) promote the set to a boxed
/// multi-word bitmap on the first sharer past core 63; every ≤64-core
/// configuration only ever touches the narrow form.  The words sit behind a
/// thin pointer, so either form is two words wide.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum SharerSet {
    /// One `u64`, bit per core — cores 0..64.
    Narrow(u64),
    /// One word per 64 cores, grown on demand.
    Wide(Box<Box<[u64]>>),
}

impl Default for SharerSet {
    fn default() -> Self {
        SharerSet::Narrow(0)
    }
}

impl SharerSet {
    fn insert(&mut self, idx: usize) {
        match self {
            SharerSet::Narrow(bits) if idx < 64 => *bits |= 1u64 << idx,
            SharerSet::Narrow(bits) => {
                let mut words = vec![0u64; idx / 64 + 1];
                words[0] = *bits;
                words[idx / 64] |= 1u64 << (idx % 64);
                *self = SharerSet::Wide(Box::new(words.into_boxed_slice()));
            }
            SharerSet::Wide(words) => {
                if idx / 64 >= words.len() {
                    let mut grown = vec![0u64; idx / 64 + 1];
                    grown[..words.len()].copy_from_slice(words);
                    **words = grown.into_boxed_slice();
                }
                words[idx / 64] |= 1u64 << (idx % 64);
            }
        }
    }

    fn remove(&mut self, idx: usize) {
        match self {
            SharerSet::Narrow(bits) => {
                if idx < 64 {
                    *bits &= !(1u64 << idx);
                }
            }
            SharerSet::Wide(words) => {
                if let Some(word) = words.get_mut(idx / 64) {
                    *word &= !(1u64 << (idx % 64));
                }
            }
        }
    }

    fn contains(&self, idx: usize) -> bool {
        let words = self.words();
        words
            .get(idx / 64)
            .is_some_and(|w| (w >> (idx % 64)) & 1 == 1)
    }

    fn words(&self) -> &[u64] {
        match self {
            SharerSet::Narrow(bits) => std::slice::from_ref(bits),
            SharerSet::Wide(words) => words,
        }
    }

    fn count(&self) -> u32 {
        self.words().iter().map(|w| w.count_ones()).sum()
    }

    fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// The set cores in ascending order, one `trailing_zeros` per sharer.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(w, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + b
                })
            })
        })
    }
}

/// Directory bookkeeping for one line of the shared L2.
///
/// Tracks which L1 caches hold the line (a sharer bit-vector: one word up
/// to the paper's 64-core machine, a multi-word bitmap on bigger meshes),
/// which of them — if any — owns a dirty copy, and whether the L2's own copy
/// is dirty with respect to memory.  Every L2 slot holds one, so the entry
/// is kept to 24 bytes: the owner is a `u32` core index.
///
/// # Example
///
/// ```
/// use mem::{DirectoryEntry, MoesiState};
/// use simkernel::CoreId;
///
/// let mut dir = DirectoryEntry::new();
/// dir.add_sharer(CoreId::new(3), MoesiState::Exclusive);
/// assert_eq!(dir.owner(), Some(CoreId::new(3)));
/// dir.add_sharer(CoreId::new(5), MoesiState::Shared);
/// assert_eq!(dir.sharer_count(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirectoryEntry {
    sharers: SharerSet,
    /// Index of the owning core, or [`NO_OWNER`].
    owner: u32,
    owner_state: MoesiState,
    /// Whether the L2 copy is newer than main memory.
    pub l2_dirty: bool,
}

/// The `owner` index of an entry no core owns.
const NO_OWNER: u32 = u32::MAX;

impl Default for DirectoryEntry {
    fn default() -> Self {
        DirectoryEntry {
            sharers: SharerSet::default(),
            owner: NO_OWNER,
            owner_state: MoesiState::Invalid,
            l2_dirty: false,
        }
    }
}

impl fmt::Debug for DirectoryEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DirectoryEntry")
            .field("sharers", &self.sharers)
            .field("owner", &self.owner())
            .field("owner_state", &self.owner_state)
            .field("l2_dirty", &self.l2_dirty)
            .finish()
    }
}

impl DirectoryEntry {
    /// Creates an entry with no sharers and a clean L2 copy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a private-cache sharer in the given state.
    ///
    /// A `Modified`, `Owned` or `Exclusive` state makes that core the owner.
    ///
    /// # Panics
    ///
    /// Panics if the core index does not fit the entry's `u32` owner field.
    pub fn add_sharer(&mut self, core: CoreId, state: MoesiState) {
        let idx = core.index();
        assert!(idx < NO_OWNER as usize, "core index {idx} out of range");
        self.sharers.insert(idx);
        if matches!(
            state,
            MoesiState::Modified | MoesiState::Owned | MoesiState::Exclusive
        ) {
            self.owner = idx as u32;
            self.owner_state = state;
        }
    }

    /// Removes a sharer (e.g. on an L1 eviction or invalidation).
    pub fn remove_sharer(&mut self, core: CoreId) {
        self.sharers.remove(core.index());
        if self.owner() == Some(core) {
            self.owner = NO_OWNER;
            self.owner_state = MoesiState::Invalid;
        }
    }

    /// Returns `true` if the core currently holds a copy.
    pub fn is_sharer(&self, core: CoreId) -> bool {
        self.sharers.contains(core.index())
    }

    /// The core owning a dirty/exclusive copy, if any.
    pub fn owner(&self) -> Option<CoreId> {
        (self.owner != NO_OWNER).then(|| CoreId::new(self.owner as usize))
    }

    /// The MOESI state of the owner's copy ([`MoesiState::Invalid`] if none).
    pub fn owner_state(&self) -> MoesiState {
        if self.owner != NO_OWNER {
            self.owner_state
        } else {
            MoesiState::Invalid
        }
    }

    /// Returns `true` if some L1 holds a dirty copy that must be forwarded.
    pub fn has_dirty_owner(&self) -> bool {
        self.owner != NO_OWNER && self.owner_state.is_dirty()
    }

    /// Number of private caches holding the line.
    pub fn sharer_count(&self) -> u32 {
        self.sharers.count()
    }

    /// Iterates over the sharer cores.
    pub fn sharers(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.sharers.iter().map(CoreId::new)
    }

    /// Iterates over the sharers other than `except`.
    pub fn sharers_except(&self, except: CoreId) -> impl Iterator<Item = CoreId> + '_ {
        self.sharers().filter(move |c| *c != except)
    }

    /// Removes every sharer and the owner, returning how many there were.
    pub fn clear_sharers(&mut self) -> u32 {
        let n = self.sharer_count();
        self.sharers = SharerSet::default();
        self.owner = NO_OWNER;
        self.owner_state = MoesiState::Invalid;
        n
    }

    /// Returns `true` if no private cache holds the line.
    pub fn is_unshared(&self) -> bool {
        self.sharers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_predicates() {
        assert!(MoesiState::Modified.is_dirty());
        assert!(MoesiState::Owned.is_dirty());
        assert!(!MoesiState::Exclusive.is_dirty());
        assert!(MoesiState::Modified.can_write_silently());
        assert!(MoesiState::Exclusive.can_write_silently());
        assert!(!MoesiState::Shared.can_write_silently());
        assert!(!MoesiState::Invalid.is_valid());
        assert!(MoesiState::Shared.is_valid());
        assert_eq!(MoesiState::Owned.to_string(), "O");
        assert_eq!(MoesiState::default(), MoesiState::Invalid);
    }

    #[test]
    fn add_and_remove_sharers() {
        let mut d = DirectoryEntry::new();
        assert!(d.is_unshared());
        d.add_sharer(CoreId::new(0), MoesiState::Shared);
        d.add_sharer(CoreId::new(63), MoesiState::Shared);
        assert_eq!(d.sharer_count(), 2);
        assert!(d.is_sharer(CoreId::new(0)));
        assert!(d.is_sharer(CoreId::new(63)));
        assert!(!d.is_sharer(CoreId::new(5)));
        assert_eq!(d.owner(), None);
        d.remove_sharer(CoreId::new(0));
        assert_eq!(d.sharer_count(), 1);
        let all: Vec<_> = d.sharers().collect();
        assert_eq!(all, vec![CoreId::new(63)]);
    }

    #[test]
    fn ownership_tracking() {
        let mut d = DirectoryEntry::new();
        d.add_sharer(CoreId::new(7), MoesiState::Modified);
        assert_eq!(d.owner(), Some(CoreId::new(7)));
        assert!(d.has_dirty_owner());
        assert_eq!(d.owner_state(), MoesiState::Modified);

        // A second reader demotes nothing automatically; the hierarchy layer
        // decides the transition, but removing the owner clears it.
        d.add_sharer(CoreId::new(8), MoesiState::Shared);
        assert_eq!(d.owner(), Some(CoreId::new(7)));
        d.remove_sharer(CoreId::new(7));
        assert_eq!(d.owner(), None);
        assert!(!d.has_dirty_owner());
        assert_eq!(d.owner_state(), MoesiState::Invalid);
    }

    #[test]
    fn exclusive_is_owner_but_clean() {
        let mut d = DirectoryEntry::new();
        d.add_sharer(CoreId::new(1), MoesiState::Exclusive);
        assert_eq!(d.owner(), Some(CoreId::new(1)));
        assert!(!d.has_dirty_owner());
    }

    #[test]
    fn clear_sharers_reports_count() {
        let mut d = DirectoryEntry::new();
        for i in 0..5 {
            d.add_sharer(CoreId::new(i), MoesiState::Shared);
        }
        assert_eq!(d.clear_sharers(), 5);
        assert!(d.is_unshared());
        assert_eq!(d.clear_sharers(), 0);
    }

    #[test]
    fn sharers_except_filters_requestor() {
        let mut d = DirectoryEntry::new();
        d.add_sharer(CoreId::new(1), MoesiState::Shared);
        d.add_sharer(CoreId::new(2), MoesiState::Shared);
        d.add_sharer(CoreId::new(3), MoesiState::Shared);
        let others: Vec<_> = d.sharers_except(CoreId::new(2)).collect();
        assert_eq!(others, vec![CoreId::new(1), CoreId::new(3)]);
    }

    #[test]
    fn wide_meshes_promote_the_sharer_vector() {
        // A sharer past core 63 promotes the set to the multi-word bitmap
        // without disturbing the narrow sharers already recorded.
        let mut d = DirectoryEntry::new();
        d.add_sharer(CoreId::new(3), MoesiState::Shared);
        d.add_sharer(CoreId::new(64), MoesiState::Shared);
        d.add_sharer(CoreId::new(1023), MoesiState::Modified);
        assert_eq!(d.sharer_count(), 3);
        assert!(d.is_sharer(CoreId::new(3)));
        assert!(d.is_sharer(CoreId::new(64)));
        assert!(d.is_sharer(CoreId::new(1023)));
        assert!(!d.is_sharer(CoreId::new(512)));
        assert_eq!(d.owner(), Some(CoreId::new(1023)));
        let all: Vec<_> = d.sharers().collect();
        assert_eq!(
            all,
            vec![CoreId::new(3), CoreId::new(64), CoreId::new(1023)]
        );
        d.remove_sharer(CoreId::new(64));
        assert_eq!(d.sharer_count(), 2);
        assert_eq!(d.clear_sharers(), 2);
        assert!(d.is_unshared());

        // Owner and sharer round trip on both sides of every word boundary,
        // inserted out of order so the walk must sort across words.
        let cores = [0, 63, 64, 127, 1023].map(CoreId::new);
        let mut d = DirectoryEntry::new();
        for &core in cores.iter().rev() {
            d.add_sharer(core, MoesiState::Exclusive);
            assert_eq!(d.owner(), Some(core));
            assert_eq!(d.owner_state(), MoesiState::Exclusive);
            assert!(d.is_sharer(core));
        }
        assert_eq!(d.sharers().collect::<Vec<_>>(), cores);
        for &skip in &cores {
            let expected: Vec<_> = cores.iter().copied().filter(|&c| c != skip).collect();
            assert_eq!(d.sharers_except(skip).collect::<Vec<_>>(), expected);
        }
        for &core in &cores {
            d.add_sharer(core, MoesiState::Modified);
            assert_eq!(d.owner(), Some(core));
            assert!(d.has_dirty_owner());
            d.remove_sharer(core);
            assert_eq!(d.owner(), None);
            assert!(!d.is_sharer(core));
        }
        assert!(d.is_unshared());
    }

    #[test]
    fn entry_fits_24_bytes() {
        // One entry per L2 slot: 4M of them on a 1024-core Table-1 machine.
        assert!(std::mem::size_of::<Option<DirectoryEntry>>() <= 24);
    }
}
