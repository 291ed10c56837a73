//! Generic set-associative cache tag array.

use std::fmt;

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
            "ways must be at most {MAX_WAYS} (tree-PLRU state is one u64 per set), got {ways}"
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

/// `set_base` entry of a set that owns no storage yet.
const UNTOUCHED: u32 = u32::MAX;

/// Tag of an invalid way.  No line built from a byte address reaches this
/// number (a line number is an address divided by the 64-byte line), and
/// [`CacheArray::insert`] rejects it, so an invalid way never matches a
/// lookup.
const NO_TAG: u64 = u64::MAX;

/// A set-associative tag array with tree-pseudoLRU replacement.
///
/// The array stores a caller-defined state value `S` for every resident line
/// (a MOESI state for coherent caches, a dirty bit for simpler ones).  Data
/// values are not stored: the simulator is a timing model, the workload
/// generators never depend on loaded values.
///
/// A set owns storage only once a line has been inserted into it.  Until
/// then its `set_base` entry is the `UNTOUCHED` sentinel, and every read
/// path misses at once.  The ways are laid out structure-of-arrays, one pool
/// per field (`tags`, `states`), and an invalid way holds the `NO_TAG` tag:
/// the first insertion into a set appends `ways` invalid slots to each pool
/// and one PLRU tree to `plru`, and records the first slot in `set_base`.
/// Host memory therefore follows the sets a run touches rather than the
/// configured capacity, which matters for the L2 slices of a wide mesh.  A
/// way scan reads one dense run of tags, and since `ways` is a power of two
/// a slot's way and PLRU tree come from a mask and a shift.
///
/// # Example
///
/// ```
/// use mem::{CacheArray, CacheConfig, LineAddr};
/// use simkernel::{ByteSize, Cycle};
///
/// let mut cache: CacheArray<bool> =
///     CacheArray::new(CacheConfig::new("l1d", ByteSize::kib(1), 2, Cycle::new(2)));
/// let line = LineAddr::new(7);
/// assert!(cache.lookup(line).is_none());
/// cache.insert(line, false);
/// assert_eq!(cache.lookup(line), Some(&false));
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray<S> {
    config: CacheConfig,
    set_count: u64,
    /// `set_count - 1`, meaningful only when `sets_pow2`.
    set_mask: u64,
    sets_pow2: bool,
    ways: usize,
    /// `log2(ways)`: the PLRU tree of the set owning slot `s` is
    /// `plru[s >> way_shift]`.
    way_shift: u32,
    /// First pool slot of each set's ways, or `UNTOUCHED`.
    set_base: Vec<u32>,
    tags: Vec<u64>,
    states: Vec<Option<S>>,
    /// One tree per materialised set, in materialisation order.
    plru: Vec<TreePlru>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<S: Clone> CacheArray<S> {
    /// Creates an empty cache with the given geometry.  No set owns storage
    /// until a line is inserted into it.
    ///
    /// # Panics
    ///
    /// Panics if the cache has `u32::MAX` lines or more.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.lines() < u64::from(UNTOUCHED),
            "cache must have fewer than {UNTOUCHED} lines"
        );
        let set_count = config.sets();
        let ways = config.ways;
        CacheArray {
            set_count,
            set_mask: set_count.wrapping_sub(1),
            sets_pow2: set_count.is_power_of_two(),
            ways,
            way_shift: ways.trailing_zeros(),
            set_base: vec![UNTOUCHED; set_count as usize],
            tags: Vec::new(),
            states: Vec::new(),
            plru: Vec::new(),
            config,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access latency of the array.
    pub fn latency(&self) -> Cycle {
        self.config.latency
    }

    #[inline]
    fn set_index(&self, line: LineAddr) -> usize {
        let n = line.number();
        let idx = if self.sets_pow2 {
            n & self.set_mask
        } else {
            n % self.set_count
        };
        idx as usize
    }

    #[inline]
    fn tag(line: LineAddr) -> u64 {
        line.number()
    }

    /// Pool slot of the valid way holding `tag` in `set_idx`, if any.
    #[inline]
    fn find(&self, set_idx: usize, tag: u64) -> Option<usize> {
        let base = self.set_base[set_idx];
        if base == UNTOUCHED || tag == NO_TAG {
            return None;
        }
        let base = base as usize;
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
            .map(|w| base + w)
    }

    /// Marks the way at pool slot `slot` most recently used in its set.
    #[inline]
    fn touch(&mut self, slot: usize) {
        self.plru[slot >> self.way_shift].touch(slot & (self.ways - 1));
    }

    /// First pool slot of `set_idx`'s ways, giving the set `ways` invalid
    /// slots and a fresh PLRU tree if it owns no storage yet.
    fn materialise(&mut self, set_idx: usize) -> usize {
        let base = self.set_base[set_idx];
        if base != UNTOUCHED {
            return base as usize;
        }
        let base = self.tags.len();
        let end = base + self.ways;
        self.set_base[set_idx] = base as u32;
        self.tags.resize(end, NO_TAG);
        self.states.resize_with(end, || None);
        self.plru.push(TreePlru::new(self.ways));
        base
    }

    /// Looks up a line, updating hit/miss statistics and recency on a hit.
    #[inline]
    pub fn access(&mut self, line: LineAddr) -> Option<&mut S> {
        if let Some(slot) = self.find(self.set_index(line), Self::tag(line)) {
            self.hits += 1;
            self.touch(slot);
            return self.states[slot].as_mut();
        }
        self.misses += 1;
        None
    }

    /// Looks up a line without updating statistics or recency.
    #[inline]
    pub fn lookup(&self, line: LineAddr) -> Option<&S> {
        self.find(self.set_index(line), Self::tag(line))
            .and_then(|slot| self.states[slot].as_ref())
    }

    /// Mutable lookup without statistics or recency updates.
    #[inline]
    pub fn lookup_mut(&mut self, line: LineAddr) -> Option<&mut S> {
        self.find(self.set_index(line), Self::tag(line))
            .and_then(move |slot| self.states[slot].as_mut())
    }

    /// Returns `true` if the line is resident.
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(self.set_index(line), Self::tag(line)).is_some()
    }

    /// Inserts (or updates) a line and returns any line evicted to make room.
    ///
    /// If the line is already resident its state is replaced and no eviction
    /// happens.  This is the only method that gives a set storage.
    ///
    /// # Panics
    ///
    /// Panics if the line number is `u64::MAX`, the tag of an invalid way.
    pub fn insert(&mut self, line: LineAddr, state: S) -> Option<EvictedLine<S>> {
        let set_idx = self.set_index(line);
        let tag = Self::tag(line);
        assert_ne!(tag, NO_TAG, "line number u64::MAX is reserved");

        if let Some(slot) = self.find(set_idx, tag) {
            self.states[slot] = Some(state);
            self.touch(slot);
            return None;
        }

        // Fill the first invalid way if one exists.  A set is materialised
        // fully invalid, so this path also covers cold fills in way order.
        let base = self.materialise(set_idx);
        if let Some(slot) = (base..base + self.ways).find(|&s| self.tags[s] == NO_TAG) {
            self.tags[slot] = tag;
            self.states[slot] = Some(state);
            self.touch(slot);
            return None;
        }

        // Evict the pseudo-LRU victim.
        let slot = base + self.plru[base >> self.way_shift].victim();
        let old_tag = self.tags[slot];
        let old_state = self.states[slot].replace(state);
        self.tags[slot] = tag;
        self.touch(slot);
        self.evictions += 1;
        Some(EvictedLine {
            line: LineAddr::new(old_tag),
            state: old_state.expect("valid way must hold a state"),
        })
    }

    /// Removes a line from the cache, returning its state if it was resident.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<S> {
        let slot = self.find(self.set_index(line), Self::tag(line))?;
        self.tags[slot] = NO_TAG;
        self.states[slot].take()
    }

    /// Removes every line, leaving statistics untouched.  Materialised sets
    /// keep their storage and their PLRU trees.
    pub fn invalidate_all(&mut self) {
        self.tags.fill(NO_TAG);
        for state in &mut self.states {
            *state = None;
        }
    }

    /// Iterates over all resident lines and their states in (set, way)
    /// order, whatever order the sets were materialised in.
    pub fn resident_lines(&self) -> impl Iterator<Item = (LineAddr, &S)> {
        self.set_base
            .iter()
            .filter(|&&base| base != UNTOUCHED)
            .flat_map(move |&base| {
                let base = base as usize;
                (base..base + self.ways)
                    .filter(move |&slot| self.tags[slot] != NO_TAG)
                    .map(move |slot| {
                        (
                            LineAddr::new(self.tags[slot]),
                            self.states[slot]
                                .as_ref()
                                .expect("valid way must hold a state"),
                        )
                    })
            })
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != NO_TAG).count()
    }

    /// Number of sets that own storage.
    #[cfg(test)]
    pub(crate) fn materialised_sets(&self) -> usize {
        self.plru.len()
    }

    /// Number of recorded hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of recorded misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of evictions caused by insertions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Hit ratio over all recorded accesses, or zero if none.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl<S: Clone> fmt::Display for CacheArray<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ways={} hits={} misses={} evictions={}",
            self.config.name,
            self.config.size,
            self.config.ways,
            self.hits,
            self.misses,
            self.evictions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache() -> CacheArray<u32> {
        // 1 KiB, 2-way, 64 B lines -> 16 lines, 8 sets.
        CacheArray::new(CacheConfig::new("test", ByteSize::kib(1), 2, Cycle::new(2)))
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
        assert!(c.access(line).is_none());
        c.insert(line, 7);
        assert_eq!(c.access(line).copied(), Some(7));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn insert_same_line_updates_state_without_eviction() {
        let mut c = tiny_cache();
        let line = LineAddr::new(3);
        assert!(c.insert(line, 1).is_none());
        assert!(c.insert(line, 2).is_none());
        assert_eq!(c.lookup(line), Some(&2));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn conflict_eviction_in_one_set() {
        let mut c = tiny_cache();
        // Lines 0, 8, 16 all map to set 0 of an 8-set cache.
        assert!(c.insert(LineAddr::new(0), 0).is_none());
        assert!(c.insert(LineAddr::new(8), 1).is_none());
        let evicted = c
            .insert(LineAddr::new(16), 2)
            .expect("third line must evict");
        assert!(evicted.line == LineAddr::new(0) || evicted.line == LineAddr::new(8));
        assert_eq!(c.occupancy(), 2);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn invalidate_frees_way_for_reuse() {
        let mut c = tiny_cache();
        c.insert(LineAddr::new(0), 0);
        c.insert(LineAddr::new(8), 1);
        assert_eq!(c.invalidate(LineAddr::new(0)), Some(0));
        assert!(!c.contains(LineAddr::new(0)));
        // The freed way is reused without evicting line 8.
        assert!(c.insert(LineAddr::new(16), 2).is_none());
        assert!(c.contains(LineAddr::new(8)));
        assert_eq!(c.invalidate(LineAddr::new(999)), None);
    }

    #[test]
    fn invalidate_all_empties_cache() {
        let mut c = tiny_cache();
        for i in 0..10 {
            c.insert(LineAddr::new(i), i as u32);
        }
        assert!(c.occupancy() > 0);
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.resident_lines().count(), 0);
    }

    #[test]
    fn lookup_does_not_touch_stats() {
        let mut c = tiny_cache();
        c.insert(LineAddr::new(1), 1);
        let _ = c.lookup(LineAddr::new(1));
        let _ = c.lookup(LineAddr::new(2));
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert!(c.lookup_mut(LineAddr::new(1)).is_some());
    }

    #[test]
    fn plru_keeps_hot_line_resident() {
        let mut c = tiny_cache();
        let hot = LineAddr::new(0);
        c.insert(hot, 99);
        // Stream conflicting lines through set 0 while re-touching the hot line.
        for i in 1..50u64 {
            let _ = c.access(hot);
            c.insert(LineAddr::new(i * 8), i as u32);
            assert!(c.contains(hot), "hot line evicted at iteration {i}");
        }
    }

    #[test]
    fn display_mentions_name() {
        let c = tiny_cache();
        assert!(c.to_string().contains("test"));
    }

    #[test]
    fn sets_materialise_on_first_insert_only() {
        // The Table-1 L2 slice: 256 KiB, 16 ways, 256 sets.
        let mut c: CacheArray<u32> = CacheArray::new(CacheConfig::new(
            "l2",
            ByteSize::kib(256),
            16,
            Cycle::new(15),
        ));
        assert_eq!(c.materialised_sets(), 0);
        let line = LineAddr::new(12_345);
        assert!(c.access(line).is_none());
        assert!(c.lookup(line).is_none());
        assert!(c.lookup_mut(line).is_none());
        assert!(!c.contains(line));
        assert_eq!(c.invalidate(line), None);
        c.invalidate_all();
        assert_eq!(c.resident_lines().count(), 0);
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.materialised_sets(), 0);

        assert!(c.insert(line, 1).is_none());
        assert_eq!(c.materialised_sets(), 1);
        // A second line of the same set reuses that set's storage.
        assert!(c.insert(LineAddr::new(12_345 + 256), 2).is_none());
        assert_eq!(c.materialised_sets(), 1);
        assert_eq!(c.lookup(line), Some(&1));
    }

    #[test]
    #[should_panic(expected = "line number u64::MAX is reserved")]
    fn reserved_line_number_is_never_resident() {
        let mut c = tiny_cache();
        let reserved = LineAddr::new(u64::MAX);
        // Set 7 is materialised with its second way still invalid.
        c.insert(LineAddr::new(7), 1);
        assert!(c.access(reserved).is_none());
        assert!(!c.contains(reserved));
        assert_eq!(c.invalidate(reserved), None);
        assert_eq!(c.occupancy(), 1);
        c.insert(reserved, 2);
    }

    /// The dense slab layout the lazy array replaced: every set's ways are
    /// allocated up front at `set * ways + way`.  Kept as the oracle for
    /// `lazy_sets_match_the_dense_slab`.
    struct DenseCacheArray<S> {
        set_count: u64,
        ways: usize,
        tags: Vec<u64>,
        valid: Vec<bool>,
        states: Vec<Option<S>>,
        plru: Vec<TreePlru>,
        hits: u64,
        misses: u64,
        evictions: u64,
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
                hits: 0,
                misses: 0,
                evictions: 0,
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
            if let Some(way) = self.find(set_idx, line.number()) {
                self.hits += 1;
                self.plru[set_idx].touch(way);
                return self.states[set_idx * self.ways + way].as_mut();
            }
            self.misses += 1;
            None
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
            self.evictions += 1;
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

        fn invalidate_all(&mut self) {
            self.valid.fill(false);
            for state in &mut self.states {
                *state = None;
            }
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
            #![proptest_config(ProptestConfig::with_cases(160))]

            /// Driven through the same random operations, the lazily
            /// materialised array and the dense slab return the same values,
            /// evict the same victims, count the same hits, misses and
            /// evictions, and list resident lines in the same order.
            #[test]
            fn lazy_sets_match_the_dense_slab(
                geometry in (0usize..5, 0usize..6),
                ops in proptest::collection::vec((0u8..100, any::<u64>(), any::<u32>()), 1..1500)
            ) {
                let ways = [1, 2, 4, 16, 64][geometry.0];
                let sets = [1u64, 2, 3, 6, 8, 12][geometry.1];
                let config = CacheConfig::new(
                    "eq",
                    ByteSize::bytes_exact(sets * ways as u64 * LINE_BYTES),
                    ways,
                    Cycle::new(1),
                );
                let mut lazy: CacheArray<u32> = CacheArray::new(config.clone());
                let mut dense: DenseCacheArray<u32> = DenseCacheArray::new(&config);
                let resident = |lazy: &CacheArray<u32>, dense: &DenseCacheArray<u32>| {
                    let l: Vec<_> = lazy.resident_lines().map(|(a, s)| (a, *s)).collect();
                    let d: Vec<_> = dense.resident_lines().map(|(a, s)| (a, *s)).collect();
                    prop_assert_eq!(l, d);
                };
                for &(op, raw, value) in &ops {
                    // Half the lines land in set 0 so that even 64-way sets
                    // overflow; each set has `2 * ways + 1` candidate lines.
                    let set = if raw & 1 == 0 { 0 } else { (raw >> 1) % sets };
                    let k = (raw >> 33) % (2 * ways as u64 + 1);
                    let line = LineAddr::new(set + sets * k);
                    match op {
                        0 => {
                            lazy.invalidate_all();
                            dense.invalidate_all();
                        }
                        1..=3 => resident(&lazy, &dense),
                        4..=40 => prop_assert_eq!(lazy.insert(line, value), dense.insert(line, value)),
                        41..=55 => {
                            let (l, d) = (lazy.access(line), dense.access(line));
                            prop_assert_eq!(l.as_deref(), d.as_deref());
                            if let (Some(l), Some(d)) = (l, d) {
                                *l = value;
                                *d = value;
                            }
                        }
                        56..=65 => prop_assert_eq!(lazy.lookup(line), dense.lookup(line)),
                        66..=75 => {
                            let (l, d) = (lazy.lookup_mut(line), dense.lookup_mut(line));
                            prop_assert_eq!(l.as_deref(), d.as_deref());
                            if let (Some(l), Some(d)) = (l, d) {
                                *l ^= value;
                                *d ^= value;
                            }
                        }
                        76..=85 => prop_assert_eq!(lazy.contains(line), dense.contains(line)),
                        _ => prop_assert_eq!(lazy.invalidate(line), dense.invalidate(line)),
                    }
                    prop_assert_eq!(lazy.occupancy(), dense.occupancy());
                    prop_assert_eq!(
                        (lazy.hits(), lazy.misses(), lazy.evictions()),
                        (dense.hits, dense.misses, dense.evictions)
                    );
                }
                resident(&lazy, &dense);
            }
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
