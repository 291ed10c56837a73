//! Set-associative cache tag arrays, one bank per cache level.
//!
//! A [`CacheBank`] holds every unit's sets of one level (all cores' L1s, or
//! all tiles' L2 slices) in shared pools: one tag, one state and one PLRU
//! bit per way slot.  The tag alone marks a valid way, and a set owns pool
//! slots only from its first fill, so the host memory of a wide mesh follows
//! the lines its run touches.

use serde::{Deserialize, Serialize};
use simkernel::{ByteSize, Cycle};

use crate::addr::{LineAddr, LINE_BYTES};
use crate::plru::{TreePlru, MAX_WAYS};

/// Geometry and latency of one cache.
///
/// # Example
///
/// ```
/// use mem::CacheConfig;
/// use simkernel::{ByteSize, Cycle};
///
/// let l1d = CacheConfig::new("l1d", ByteSize::kib(32), 4, Cycle::new(2));
/// assert_eq!(l1d.sets(), 128);
/// assert_eq!(l1d.lines(), 512);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Human readable name used in statistics (`l1d`, `l2`, ...).
    pub name: String,
    /// Total capacity.
    pub size: ByteSize,
    /// Associativity (must be a power of two).
    pub ways: usize,
    /// Access latency.
    pub latency: Cycle,
}

impl CacheConfig {
    /// Creates a cache configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero size, zero ways, ways not a
    /// power of two or above [`MAX_WAYS`], or fewer lines than ways).
    pub fn new(name: &str, size: ByteSize, ways: usize, latency: Cycle) -> Self {
        let cfg = CacheConfig {
            name: name.to_owned(),
            size,
            ways,
            latency,
        };
        assert!(
            ways > 0 && ways.is_power_of_two(),
            "ways must be a power of two"
        );
        assert!(
            ways <= MAX_WAYS,
            "ways must be at most {MAX_WAYS} (a set's tree-PLRU bits fit one u64 word), got {ways}"
        );
        assert!(
            cfg.lines() >= ways as u64,
            "cache must have at least one set"
        );
        cfg
    }

    /// Total number of cache lines.
    pub fn lines(&self) -> u64 {
        self.size.bytes() / LINE_BYTES
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.lines() / self.ways as u64
    }
}

/// A line evicted by an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvictedLine<S> {
    /// The address of the evicted line.
    pub line: LineAddr,
    /// The per-line state the cache was holding for it.
    pub state: S,
}

/// Tag of an invalid way.  No line built from a byte address reaches this
/// number (a line number is an address divided by the 64-byte line), and
/// [`CacheBank::insert`] rejects it, so an invalid way never matches a
/// lookup.
const NO_TAG: u64 = u64::MAX;

/// The set-associative tag arrays of one cache level, one unit per cache:
/// every core's L1, or every tile's L2 slice.  Each unit behaves as its own
/// cache with tree-pseudoLRU replacement; a one-unit bank is a single cache.
///
/// The bank stores a caller-defined state value `S` for every resident line
/// (a MOESI state for coherent caches, a directory entry for the L2).  Data
/// values are not stored: the simulator is a timing model, the workload
/// generators never depend on loaded values.
///
/// All units share one set index, entry `unit * sets + set`, holding the
/// first pool slot of that set's ways.  The ways are laid out
/// structure-of-arrays, one pool per field: `tags`, `states`, and `plru`,
/// which holds one bit per slot, 64 slots to a word.  The tag alone marks a
/// valid way: an invalid way holds the `NO_TAG` tag and a default state, so
/// a zero-sized state such as the L1I's `()` occupies no memory.  A set's
/// [`TreePlru`] tree is the `ways - 1` low bits of the `ways` bits starting
/// at its first slot; sets start at multiples of `ways`, a power of two no
/// larger than 64, so a tree never straddles a word.  Pool slots `0..ways`
/// are a dummy set that is never filled, so the index is allocated zeroed:
/// a set that owns no storage points at the dummy, and a lookup there scans
/// `ways` invalid tags and misses like any other.  The first insertion into
/// a set appends `ways` invalid slots (and their zeroed tree bits) to the
/// pools and records the first slot in the index.  The first insertion into
/// the bank reserves each pool for the whole geometry in one allocation, so
/// a pool never moves; only the slots of filled sets are written, so host
/// memory follows the sets a run fills rather than the configured capacity,
/// which matters for the L2 slices of a wide mesh.  A way scan reads one
/// dense run of tags.
///
/// # Example
///
/// ```
/// use mem::{CacheBank, CacheConfig, LineAddr};
/// use simkernel::{ByteSize, Cycle};
///
/// // Two 1 KiB 2-way caches: the same line is cached per unit.
/// let config = CacheConfig::new("l1d", ByteSize::kib(1), 2, Cycle::new(2));
/// let mut bank: CacheBank<bool> = CacheBank::new(&config, 2);
/// let line = LineAddr::new(7);
/// assert!(bank.lookup(0, line).is_none());
/// bank.insert(0, line, false);
/// assert_eq!(bank.lookup(0, line), Some(&false));
/// assert!(bank.lookup(1, line).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct CacheBank<S> {
    set_count: u64,
    /// `set_count - 1`, meaningful only when `sets_pow2`.
    set_mask: u64,
    sets_pow2: bool,
    ways: usize,
    /// First pool slot of each unit's sets' ways, `0` (the dummy set) for a
    /// set that owns no storage.
    set_base: Vec<u32>,
    tags: Vec<u64>,
    /// The state of each slot; meaningful only where the tag is valid.
    states: Vec<S>,
    /// One PLRU bit per pool slot, slot `s` at bit `s % 64` of word
    /// `s / 64`.
    plru: Vec<u64>,
}

impl<S: Default> CacheBank<S> {
    /// Creates `units` empty caches with the given geometry.  No set owns
    /// storage until a line is inserted into it.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero, or if the bank has `u32::MAX - ways`
    /// lines or more.
    pub fn new(config: &CacheConfig, units: usize) -> Self {
        assert!(units > 0, "a cache bank needs at least one unit");
        let ways = config.ways;
        let slots = (units as u64)
            .checked_mul(config.lines())
            .and_then(|lines| lines.checked_add(ways as u64));
        assert!(
            slots.is_some_and(|s| s < u64::from(u32::MAX)),
            "a cache bank must have fewer than {} lines",
            u32::MAX as usize - ways
        );
        let set_count = config.sets();
        CacheBank {
            set_count,
            set_mask: set_count.wrapping_sub(1),
            sets_pow2: set_count.is_power_of_two(),
            ways,
            set_base: vec![0; units * set_count as usize],
            tags: vec![NO_TAG; ways],
            states: (0..ways).map(|_| S::default()).collect(),
            plru: vec![0; ways.div_ceil(64)],
        }
    }

    /// Index entry of `line`'s set in `unit`.
    #[inline]
    fn set_index(&self, unit: usize, line: LineAddr) -> usize {
        let n = line.number();
        let set = if self.sets_pow2 {
            n & self.set_mask
        } else {
            n % self.set_count
        };
        unit * self.set_count as usize + set as usize
    }

    #[inline]
    fn tag(line: LineAddr) -> u64 {
        line.number()
    }

    /// Pool slot of the valid way holding `tag` in the set at index entry
    /// `set_idx`, if any.
    #[inline]
    fn find(&self, set_idx: usize, tag: u64) -> Option<usize> {
        if tag == NO_TAG {
            return None;
        }
        let base = self.set_base[set_idx] as usize;
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
            .map(|w| base + w)
    }

    /// Marks the way at pool slot `slot` most recently used in its set.
    #[inline]
    fn touch(&mut self, slot: usize) {
        let base = slot & !(self.ways - 1);
        let shift = base % 64;
        let word = &mut self.plru[base / 64];
        let tree = *word >> shift;
        // `touched` changes only the set's own `ways - 1` node bits.
        *word ^= (tree ^ TreePlru::touched(tree, self.ways, slot - base)) << shift;
    }

    /// Pool slot of the pseudo-LRU victim of the set whose ways start at
    /// pool slot `base`.
    #[inline]
    fn victim(&self, base: usize) -> usize {
        base + TreePlru::victim_in(self.plru[base / 64] >> (base % 64), self.ways)
    }

    /// First pool slot of the ways of the set at index entry `set_idx`,
    /// giving the set `ways` invalid slots and a fresh PLRU tree if it owns
    /// no storage yet.
    fn materialise(&mut self, set_idx: usize) -> usize {
        let base = self.set_base[set_idx];
        if base != 0 {
            return base as usize;
        }
        if self.tags.len() == self.ways {
            // The bank's first fill: reserve every set's storage at once.
            let slots = (self.set_base.len() + 1) * self.ways;
            self.tags.reserve_exact(slots - self.tags.len());
            self.states.reserve_exact(slots - self.states.len());
            self.plru
                .reserve_exact(slots.div_ceil(64) - self.plru.len());
        }
        let base = self.tags.len();
        let end = base + self.ways;
        self.set_base[set_idx] = base as u32;
        self.tags.resize(end, NO_TAG);
        self.states.resize_with(end, S::default);
        self.plru.resize(end.div_ceil(64), 0);
        base
    }

    /// Looks up a line in `unit`, updating recency on a hit.
    #[inline]
    pub fn access(&mut self, unit: usize, line: LineAddr) -> Option<&mut S> {
        let slot = self.find(self.set_index(unit, line), Self::tag(line))?;
        self.touch(slot);
        Some(&mut self.states[slot])
    }

    /// Looks up a line in `unit` without updating recency.
    #[inline]
    pub fn lookup(&self, unit: usize, line: LineAddr) -> Option<&S> {
        self.find(self.set_index(unit, line), Self::tag(line))
            .map(|slot| &self.states[slot])
    }

    /// Mutable lookup in `unit` without updating recency.
    #[inline]
    pub fn lookup_mut(&mut self, unit: usize, line: LineAddr) -> Option<&mut S> {
        self.find(self.set_index(unit, line), Self::tag(line))
            .map(move |slot| &mut self.states[slot])
    }

    /// Returns `true` if the line is resident in `unit`.
    #[inline]
    pub fn contains(&self, unit: usize, line: LineAddr) -> bool {
        self.find(self.set_index(unit, line), Self::tag(line))
            .is_some()
    }

    /// Inserts (or updates) a line in `unit` and returns any line evicted to
    /// make room.
    ///
    /// If the line is already resident its state is replaced and no eviction
    /// happens.  This is the only method that gives a set storage.
    ///
    /// # Panics
    ///
    /// Panics if the line number is `u64::MAX`, the tag of an invalid way.
    pub fn insert(&mut self, unit: usize, line: LineAddr, state: S) -> Option<EvictedLine<S>> {
        let set_idx = self.set_index(unit, line);
        let tag = Self::tag(line);
        assert_ne!(tag, NO_TAG, "line number u64::MAX is reserved");

        if let Some(slot) = self.find(set_idx, tag) {
            self.states[slot] = state;
            self.touch(slot);
            return None;
        }

        // Fill the first invalid way if one exists.  A set is materialised
        // fully invalid, so this path also covers cold fills in way order.
        let base = self.materialise(set_idx);
        if let Some(slot) = (base..base + self.ways).find(|&s| self.tags[s] == NO_TAG) {
            self.tags[slot] = tag;
            self.states[slot] = state;
            self.touch(slot);
            return None;
        }

        // Evict the pseudo-LRU victim.
        let slot = self.victim(base);
        let old_tag = std::mem::replace(&mut self.tags[slot], tag);
        let old_state = std::mem::replace(&mut self.states[slot], state);
        self.touch(slot);
        Some(EvictedLine {
            line: LineAddr::new(old_tag),
            state: old_state,
        })
    }

    /// Removes a line from `unit`, returning its state if it was resident.
    pub fn invalidate(&mut self, unit: usize, line: LineAddr) -> Option<S> {
        let slot = self.find(self.set_index(unit, line), Self::tag(line))?;
        self.tags[slot] = NO_TAG;
        Some(std::mem::take(&mut self.states[slot]))
    }

    /// The index entries of `unit`'s sets.
    fn unit_sets(&self, unit: usize) -> &[u32] {
        let sets = self.set_count as usize;
        &self.set_base[unit * sets..(unit + 1) * sets]
    }

    /// Iterates over the resident lines of `unit` and their states in
    /// (set, way) order, whatever order the sets were materialised in.
    pub fn resident_lines(&self, unit: usize) -> impl Iterator<Item = (LineAddr, &S)> {
        self.unit_sets(unit)
            .iter()
            .filter(|&&base| base != 0)
            .flat_map(move |&base| {
                let base = base as usize;
                (base..base + self.ways)
                    .filter(move |&slot| self.tags[slot] != NO_TAG)
                    .map(move |slot| (LineAddr::new(self.tags[slot]), &self.states[slot]))
            })
    }

    /// Number of resident lines over all units.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != NO_TAG).count()
    }

    /// Number of `unit`'s sets that own storage.
    #[cfg(test)]
    pub(crate) fn materialised_sets(&self, unit: usize) -> usize {
        self.unit_sets(unit)
            .iter()
            .filter(|&&base| base != 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache() -> CacheBank<u32> {
        // 1 KiB, 2-way, 64 B lines -> 16 lines, 8 sets.
        CacheBank::new(
            &CacheConfig::new("test", ByteSize::kib(1), 2, Cycle::new(2)),
            1,
        )
    }

    #[test]
    fn config_geometry() {
        let cfg = CacheConfig::new("l2", ByteSize::kib(256), 16, Cycle::new(15));
        assert_eq!(cfg.lines(), 4096);
        assert_eq!(cfg.sets(), 256);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny_cache();
        let line = LineAddr::new(100);
        assert!(c.access(0, line).is_none());
        c.insert(0, line, 7);
        assert_eq!(c.access(0, line).copied(), Some(7));
    }

    #[test]
    fn insert_same_line_updates_state_without_eviction() {
        let mut c = tiny_cache();
        let line = LineAddr::new(3);
        assert!(c.insert(0, line, 1).is_none());
        assert!(c.insert(0, line, 2).is_none());
        assert_eq!(c.lookup(0, line), Some(&2));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn conflict_eviction_in_one_set() {
        let mut c = tiny_cache();
        // Lines 0, 8, 16 all map to set 0 of an 8-set cache.
        assert!(c.insert(0, LineAddr::new(0), 0).is_none());
        assert!(c.insert(0, LineAddr::new(8), 1).is_none());
        let evicted = c
            .insert(0, LineAddr::new(16), 2)
            .expect("third line must evict");
        assert!(evicted.line == LineAddr::new(0) || evicted.line == LineAddr::new(8));
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn invalidate_frees_way_for_reuse() {
        let mut c = tiny_cache();
        c.insert(0, LineAddr::new(0), 0);
        c.insert(0, LineAddr::new(8), 1);
        assert_eq!(c.invalidate(0, LineAddr::new(0)), Some(0));
        assert!(!c.contains(0, LineAddr::new(0)));
        // The freed way is reused without evicting line 8.
        assert!(c.insert(0, LineAddr::new(16), 2).is_none());
        assert!(c.contains(0, LineAddr::new(8)));
        assert_eq!(c.invalidate(0, LineAddr::new(999)), None);
    }

    #[test]
    fn lookup_does_not_touch_recency() {
        let mut c = tiny_cache();
        // Filling lines 0 then 8 leaves line 0 the victim of set 0.
        c.insert(0, LineAddr::new(0), 0);
        c.insert(0, LineAddr::new(8), 1);
        assert_eq!(c.lookup(0, LineAddr::new(0)), Some(&0));
        assert!(c.lookup_mut(0, LineAddr::new(0)).is_some());
        assert!(c.contains(0, LineAddr::new(0)));
        let evicted = c.insert(0, LineAddr::new(16), 2).expect("set 0 is full");
        assert_eq!(evicted.line, LineAddr::new(0));
        // An access, unlike a lookup, makes the line most recently used.
        let _ = c.access(0, LineAddr::new(8));
        let evicted = c.insert(0, LineAddr::new(24), 3).expect("set 0 is full");
        assert_eq!(evicted.line, LineAddr::new(16));
    }

    #[test]
    fn plru_keeps_hot_line_resident() {
        let mut c = tiny_cache();
        let hot = LineAddr::new(0);
        c.insert(0, hot, 99);
        // Stream conflicting lines through set 0 while re-touching the hot line.
        for i in 1..50u64 {
            let _ = c.access(0, hot);
            c.insert(0, LineAddr::new(i * 8), i as u32);
            assert!(c.contains(0, hot), "hot line evicted at iteration {i}");
        }
    }

    #[test]
    fn sets_materialise_on_first_insert_only() {
        // Two Table-1 L2 slices: 256 KiB, 16 ways, 256 sets each.
        let config = CacheConfig::new("l2", ByteSize::kib(256), 16, Cycle::new(15));
        let mut c: CacheBank<u32> = CacheBank::new(&config, 2);
        assert_eq!(c.materialised_sets(0), 0);
        let line = LineAddr::new(12_345);
        assert!(c.access(0, line).is_none());
        assert!(c.lookup(0, line).is_none());
        assert!(c.lookup_mut(0, line).is_none());
        assert!(!c.contains(0, line));
        assert_eq!(c.invalidate(0, line), None);
        assert_eq!(c.resident_lines(0).count(), 0);
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.materialised_sets(0), 0);

        assert!(c.insert(0, line, 1).is_none());
        assert_eq!(c.materialised_sets(0), 1);
        assert_eq!(c.materialised_sets(1), 0);
        // A second line of the same set reuses that set's storage.
        assert!(c.insert(0, LineAddr::new(12_345 + 256), 2).is_none());
        assert_eq!(c.materialised_sets(0), 1);
        assert_eq!(c.lookup(0, line), Some(&1));
        // The same line in the other unit is a separate set.
        assert!(c.lookup(1, line).is_none());
        assert!(c.insert(1, line, 3).is_none());
        assert_eq!((c.materialised_sets(0), c.materialised_sets(1)), (1, 1));
        assert_eq!((c.lookup(0, line), c.lookup(1, line)), (Some(&1), Some(&3)));
    }

    #[test]
    fn a_filled_bank_holds_one_plru_bit_per_slot() {
        // Two Table-1 L1Ds: 32 KiB, 4 ways, 128 sets each.
        let config = CacheConfig::new("l1d", ByteSize::kib(32), 4, Cycle::new(2));
        let mut c: CacheBank<u32> = CacheBank::new(&config, 2);
        c.insert(0, LineAddr::new(0), 0);
        let pool = c.plru.as_ptr();
        for unit in 0..2 {
            for line in 0..128 {
                c.insert(unit, LineAddr::new(line), 1);
            }
        }
        assert_eq!((c.materialised_sets(0), c.materialised_sets(1)), (128, 128));
        // 256 sets of 4 slots after the dummy set's 4.
        let slots = 257 * 4;
        assert_eq!(c.tags.len(), slots);
        assert_eq!(c.plru.len(), slots.div_ceil(64));
        assert!(
            std::ptr::eq(pool, c.plru.as_ptr()),
            "the first fill reserves the whole PLRU pool"
        );
    }

    #[test]
    #[should_panic(expected = "line number u64::MAX is reserved")]
    fn reserved_line_number_is_never_resident() {
        let mut c = tiny_cache();
        let reserved = LineAddr::new(u64::MAX);
        // Set 7 is materialised with its second way still invalid, and set 0
        // still reads the dummy set's invalid ways.
        c.insert(0, LineAddr::new(7), 1);
        assert!(c.access(0, reserved).is_none());
        assert!(!c.contains(0, reserved));
        assert!(!c.contains(0, LineAddr::new(0)));
        assert_eq!(c.invalidate(0, reserved), None);
        assert_eq!(c.occupancy(), 1);
        c.insert(0, reserved, 2);
    }

    /// The dense slab layout of one cache, which the lazy bank replaced:
    /// every set's ways are allocated up front at `set * ways + way`.  Kept
    /// as the per-unit oracle for `lazy_sets_match_the_dense_slab`.
    struct DenseCacheArray<S> {
        set_count: u64,
        ways: usize,
        tags: Vec<u64>,
        valid: Vec<bool>,
        states: Vec<Option<S>>,
        plru: Vec<TreePlru>,
    }

    impl<S: Clone> DenseCacheArray<S> {
        fn new(config: &CacheConfig) -> Self {
            let set_count = config.sets();
            let ways = config.ways;
            let slots = set_count as usize * ways;
            DenseCacheArray {
                set_count,
                ways,
                tags: vec![0; slots],
                valid: vec![false; slots],
                states: (0..slots).map(|_| None).collect(),
                plru: vec![TreePlru::new(ways); set_count as usize],
            }
        }

        fn set_index(&self, line: LineAddr) -> usize {
            (line.number() % self.set_count) as usize
        }

        fn find(&self, set_idx: usize, tag: u64) -> Option<usize> {
            let base = set_idx * self.ways;
            (0..self.ways).find(|&w| self.valid[base + w] && self.tags[base + w] == tag)
        }

        fn access(&mut self, line: LineAddr) -> Option<&mut S> {
            let set_idx = self.set_index(line);
            let way = self.find(set_idx, line.number())?;
            self.plru[set_idx].touch(way);
            self.states[set_idx * self.ways + way].as_mut()
        }

        fn lookup(&self, line: LineAddr) -> Option<&S> {
            let set_idx = self.set_index(line);
            self.find(set_idx, line.number())
                .and_then(|way| self.states[set_idx * self.ways + way].as_ref())
        }

        fn lookup_mut(&mut self, line: LineAddr) -> Option<&mut S> {
            let set_idx = self.set_index(line);
            self.find(set_idx, line.number())
                .and_then(move |way| self.states[set_idx * self.ways + way].as_mut())
        }

        fn contains(&self, line: LineAddr) -> bool {
            self.find(self.set_index(line), line.number()).is_some()
        }

        fn insert(&mut self, line: LineAddr, state: S) -> Option<EvictedLine<S>> {
            let set_idx = self.set_index(line);
            let tag = line.number();
            let base = set_idx * self.ways;
            if let Some(way) = self.find(set_idx, tag) {
                self.states[base + way] = Some(state);
                self.plru[set_idx].touch(way);
                return None;
            }
            if let Some(way) = (0..self.ways).find(|&w| !self.valid[base + w]) {
                self.tags[base + way] = tag;
                self.valid[base + way] = true;
                self.states[base + way] = Some(state);
                self.plru[set_idx].touch(way);
                return None;
            }
            let victim = self.plru[set_idx].victim();
            let slot = base + victim;
            let old_tag = self.tags[slot];
            let old_state = self.states[slot].replace(state);
            self.tags[slot] = tag;
            self.plru[set_idx].touch(victim);
            Some(EvictedLine {
                line: LineAddr::new(old_tag),
                state: old_state.expect("valid way must hold a state"),
            })
        }

        fn invalidate(&mut self, line: LineAddr) -> Option<S> {
            let set_idx = self.set_index(line);
            let way = self.find(set_idx, line.number())?;
            let slot = set_idx * self.ways + way;
            self.valid[slot] = false;
            self.states[slot].take()
        }

        fn resident_lines(&self) -> impl Iterator<Item = (LineAddr, &S)> {
            self.valid
                .iter()
                .enumerate()
                .filter(|&(_, v)| *v)
                .map(|(slot, _)| {
                    (
                        LineAddr::new(self.tags[slot]),
                        self.states[slot].as_ref().expect("valid way"),
                    )
                })
        }

        fn occupancy(&self) -> usize {
            self.valid.iter().filter(|&&v| v).count()
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Driven through the same random operations, interleaved over
            /// the units, a lazily materialised bank and one dense slab per
            /// unit return the same values, evict the same victims and list
            /// resident lines in the same order.  Every unit draws lines from
            /// the same pool, so units that shared a set would diverge.
            /// Every case runs 1, 2, 4, 16 and 64 ways: adjacent sets' PLRU
            /// trees share a pool word below 64 ways, and a 64-way tree
            /// fills its word.  Half the set counts are not powers of two.
            #[test]
            fn lazy_sets_match_the_dense_slab(
                geometry in (0usize..6, 1usize..5),
                ops in proptest::collection::vec(
                    (0u8..100, any::<u64>(), any::<u32>(), 0usize..4),
                    1..1500,
                )
            ) {
                let sets = [1u64, 2, 3, 6, 8, 12][geometry.0];
                for ways in [1, 2, 4, 16, 64] {
                    bank_matches_dense(ways, sets, geometry.1, &ops);
                }
            }
        }

        /// Drives a bank of `units` caches and one dense slab per unit
        /// through `ops` and compares them after every operation.
        fn bank_matches_dense(ways: usize, sets: u64, units: usize, ops: &[(u8, u64, u32, usize)]) {
            let config = CacheConfig::new(
                "eq",
                ByteSize::bytes_exact(sets * ways as u64 * LINE_BYTES),
                ways,
                Cycle::new(1),
            );
            let mut bank: CacheBank<u32> = CacheBank::new(&config, units);
            let mut dense: Vec<DenseCacheArray<u32>> =
                (0..units).map(|_| DenseCacheArray::new(&config)).collect();
            let resident = |bank: &CacheBank<u32>, dense: &[DenseCacheArray<u32>]| {
                for (unit, d) in dense.iter().enumerate() {
                    let l: Vec<_> = bank.resident_lines(unit).map(|(a, s)| (a, *s)).collect();
                    let d: Vec<_> = d.resident_lines().map(|(a, s)| (a, *s)).collect();
                    prop_assert_eq!(l, d);
                }
            };
            for &(op, raw, value, unit) in ops {
                let unit = unit % units;
                let d = &mut dense[unit];
                // Half the lines land in set 0 so that even 64-way sets
                // overflow; each set has `2 * ways + 1` candidate lines.
                let set = if raw & 1 == 0 { 0 } else { (raw >> 1) % sets };
                let k = (raw >> 33) % (2 * ways as u64 + 1);
                let line = LineAddr::new(set + sets * k);
                match op {
                    0..=3 => resident(&bank, &dense),
                    4..=40 => {
                        prop_assert_eq!(bank.insert(unit, line, value), d.insert(line, value))
                    }
                    41..=55 => {
                        let (l, d) = (bank.access(unit, line), d.access(line));
                        prop_assert_eq!(l.as_deref(), d.as_deref());
                        if let (Some(l), Some(d)) = (l, d) {
                            *l = value;
                            *d = value;
                        }
                    }
                    56..=65 => prop_assert_eq!(bank.lookup(unit, line), d.lookup(line)),
                    66..=75 => {
                        let (l, d) = (bank.lookup_mut(unit, line), d.lookup_mut(line));
                        prop_assert_eq!(l.as_deref(), d.as_deref());
                        if let (Some(l), Some(d)) = (l, d) {
                            *l ^= value;
                            *d ^= value;
                        }
                    }
                    76..=85 => prop_assert_eq!(bank.contains(unit, line), d.contains(line)),
                    _ => prop_assert_eq!(bank.invalidate(unit, line), d.invalidate(line)),
                }
                prop_assert_eq!(
                    bank.occupancy(),
                    dense.iter().map(DenseCacheArray::occupancy).sum::<usize>()
                );
            }
            resident(&bank, &dense);
        }
    }

    #[test]
    #[should_panic]
    fn degenerate_geometry_panics() {
        let _ = CacheConfig::new("bad", ByteSize::bytes_exact(64), 4, Cycle::new(1));
    }

    #[test]
    #[should_panic(expected = "ways must be at most 64")]
    fn more_than_64_ways_panics() {
        let _ = CacheConfig::new("wide", ByteSize::kib(64), 128, Cycle::new(1));
    }
}
