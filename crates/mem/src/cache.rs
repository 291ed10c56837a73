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

/// A set-associative tag array with tree-pseudoLRU replacement.
///
/// The array stores a caller-defined state value `S` for every resident line
/// (a MOESI state for coherent caches, a dirty bit for simpler ones).  Data
/// values are not stored: the simulator is a timing model, the workload
/// generators never depend on loaded values.
///
/// Internally the ways are laid out structure-of-arrays: one flat slab per
/// field (`tags`, `valid`, `states`), addressed by `set * ways + way`.  A
/// way scan therefore touches a dense run of tags instead of hopping through
/// per-set `Vec<Way>` allocations, and the set index is a single AND for the
/// power-of-two geometries every shipped configuration uses.
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
    tags: Vec<u64>,
    valid: Vec<bool>,
    states: Vec<Option<S>>,
    plru: Vec<TreePlru>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<S: Clone> CacheArray<S> {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let set_count = config.sets();
        let sets = set_count as usize;
        let ways = config.ways;
        let slots = sets * ways;
        CacheArray {
            set_count,
            set_mask: set_count.wrapping_sub(1),
            sets_pow2: set_count.is_power_of_two(),
            ways,
            tags: vec![0; slots],
            valid: vec![false; slots],
            states: (0..slots).map(|_| None).collect(),
            plru: vec![TreePlru::new(ways); sets],
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

    /// Position of the valid way holding `tag` in `set_idx`, if any.
    #[inline]
    fn find(&self, set_idx: usize, tag: u64) -> Option<usize> {
        let base = set_idx * self.ways;
        let tags = &self.tags[base..base + self.ways];
        let valid = &self.valid[base..base + self.ways];
        (0..self.ways).find(|&w| valid[w] && tags[w] == tag)
    }

    /// Looks up a line, updating hit/miss statistics and recency on a hit.
    #[inline]
    pub fn access(&mut self, line: LineAddr) -> Option<&mut S> {
        let set_idx = self.set_index(line);
        let tag = Self::tag(line);
        if let Some(way) = self.find(set_idx, tag) {
            self.hits += 1;
            self.plru[set_idx].touch(way);
            return self.states[set_idx * self.ways + way].as_mut();
        }
        self.misses += 1;
        None
    }

    /// Looks up a line without updating statistics or recency.
    #[inline]
    pub fn lookup(&self, line: LineAddr) -> Option<&S> {
        let set_idx = self.set_index(line);
        let tag = Self::tag(line);
        self.find(set_idx, tag)
            .and_then(|way| self.states[set_idx * self.ways + way].as_ref())
    }

    /// Mutable lookup without statistics or recency updates.
    #[inline]
    pub fn lookup_mut(&mut self, line: LineAddr) -> Option<&mut S> {
        let set_idx = self.set_index(line);
        let tag = Self::tag(line);
        self.find(set_idx, tag)
            .and_then(move |way| self.states[set_idx * self.ways + way].as_mut())
    }

    /// Returns `true` if the line is resident.
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(self.set_index(line), Self::tag(line)).is_some()
    }

    /// Inserts (or updates) a line and returns any line evicted to make room.
    ///
    /// If the line is already resident its state is replaced and no eviction
    /// happens.
    pub fn insert(&mut self, line: LineAddr, state: S) -> Option<EvictedLine<S>> {
        let set_idx = self.set_index(line);
        let tag = Self::tag(line);
        let base = set_idx * self.ways;

        if let Some(way) = self.find(set_idx, tag) {
            self.states[base + way] = Some(state);
            self.plru[set_idx].touch(way);
            return None;
        }

        // Fill the first invalid way if one exists.  The slab starts fully
        // invalid, so this path also covers cold fills in set order.
        if let Some(way) = (0..self.ways).find(|&w| !self.valid[base + w]) {
            self.tags[base + way] = tag;
            self.valid[base + way] = true;
            self.states[base + way] = Some(state);
            self.plru[set_idx].touch(way);
            return None;
        }

        // Evict the pseudo-LRU victim.
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

    /// Removes a line from the cache, returning its state if it was resident.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<S> {
        let set_idx = self.set_index(line);
        let tag = Self::tag(line);
        if let Some(way) = self.find(set_idx, tag) {
            let slot = set_idx * self.ways + way;
            self.valid[slot] = false;
            return self.states[slot].take();
        }
        None
    }

    /// Removes every line, leaving statistics untouched.
    pub fn invalidate_all(&mut self) {
        self.valid.fill(false);
        for state in &mut self.states {
            *state = None;
        }
    }

    /// Iterates over all resident lines and their states, in slab (set, way)
    /// order.
    pub fn resident_lines(&self) -> impl Iterator<Item = (LineAddr, &S)> {
        self.valid
            .iter()
            .enumerate()
            .filter(|&(_, v)| *v)
            .map(|(slot, _)| {
                (
                    LineAddr::new(self.tags[slot]),
                    self.states[slot]
                        .as_ref()
                        .expect("valid way must hold a state"),
                )
            })
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
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
