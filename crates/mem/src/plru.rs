//! Tree pseudo-LRU replacement state.
//!
//! All caches in the paper's configuration (L1 I/D, L2, and the filter of the
//! proposed coherence protocol) use pseudo-LRU replacement (Table 1).  The
//! classic tree-PLRU scheme is implemented here for any power-of-two number
//! of ways up to 64, so a set's `ways - 1` tree bits fit in one word.
//! [`TreePlru`] holds one set's tree inline; its crate-internal functions
//! `TreePlru::touched` and `TreePlru::victim_in` run the same algorithm on
//! bits stored elsewhere, which is how a [`crate::CacheBank`] keeps every
//! set's tree in a pool of one bit per way slot.

use serde::{Deserialize, Serialize};

/// Tree pseudo-LRU state for one cache set.
///
/// The `ways - 1` tree nodes are the low bits of one `u64`: node `0` is the
/// root, node `i` has children `2i + 1` and `2i + 2`.  A clear bit means
/// "the LRU side is the left subtree", a set bit means "the LRU side is the
/// right subtree".  A [`crate::CacheBank`] holds no `TreePlru` values: it
/// keeps the same node bits in its pool of one bit per way slot.
///
/// # Example
///
/// ```
/// use mem::plru::TreePlru;
///
/// let mut plru = TreePlru::new(4);
/// plru.touch(0);
/// plru.touch(1);
/// plru.touch(2);
/// plru.touch(3);
/// // After touching every way in order, way 0 is the pseudo-LRU victim.
/// assert_eq!(plru.victim(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreePlru {
    ways: usize,
    bits: u64,
}

/// The widest set a [`TreePlru`] tracks: its `ways - 1` nodes fill one `u64`.
pub const MAX_WAYS: usize = 64;

impl TreePlru {
    /// Creates replacement state for a set with `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero, not a power of two, or above [`MAX_WAYS`].
    pub fn new(ways: usize) -> Self {
        assert!(
            ways > 0 && ways.is_power_of_two(),
            "ways must be a power of two, got {ways}"
        );
        assert!(
            ways <= MAX_WAYS,
            "tree PLRU tracks at most {MAX_WAYS} ways, got {ways}"
        );
        TreePlru { ways, bits: 0 }
    }

    /// Number of ways tracked.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Marks `way` as most recently used.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn touch(&mut self, way: usize) {
        assert!(
            way < self.ways,
            "way {way} out of range (ways = {})",
            self.ways
        );
        self.bits = Self::touched(self.bits, self.ways, way);
    }

    /// Returns the pseudo-LRU victim way without modifying the state.
    pub fn victim(&self) -> usize {
        Self::victim_in(self.bits, self.ways)
    }

    /// The tree `bits` of a `ways`-way set after `way` is marked most
    /// recently used.  Only the `ways - 1` node bits change; higher bits
    /// pass through untouched, so `bits` may carry other sets' trees above
    /// this one.  `way` must be below `ways`.
    #[inline]
    pub(crate) fn touched(mut bits: u64, ways: usize, way: usize) -> u64 {
        // Walk from the root towards the leaf for `way`, pointing every
        // traversed node away from the path (so the path becomes MRU).
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                // Went left: LRU side becomes the right subtree.
                bits |= 1u64 << node;
                node = 2 * node + 1;
                hi = mid;
            } else {
                // Went right: LRU side becomes the left subtree.
                bits &= !(1u64 << node);
                node = 2 * node + 2;
                lo = mid;
            }
        }
        bits
    }

    /// The pseudo-LRU victim of a `ways`-way set whose tree nodes are the
    /// low `ways - 1` bits of `bits` (higher bits are ignored).
    #[inline]
    pub(crate) fn victim_in(bits: u64, ways: usize) -> usize {
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if (bits >> node) & 1 == 1 {
                // LRU side is the right subtree.
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_way_is_trivial() {
        let mut p = TreePlru::new(1);
        assert_eq!(p.victim(), 0);
        p.touch(0);
        assert_eq!(p.victim(), 0);
    }

    #[test]
    fn victim_avoids_recently_touched_ways() {
        let mut p = TreePlru::new(4);
        for way in 0..4 {
            p.touch(way);
            assert_ne!(p.victim(), way, "victim must not be the way just touched");
        }
    }

    #[test]
    fn sequential_touch_cycles_through_victims() {
        let mut p = TreePlru::new(8);
        // Touch every way once; the victim should then be way 0 (the oldest
        // path in the tree approximation).
        for way in 0..8 {
            p.touch(way);
        }
        assert_eq!(p.victim(), 0);
    }

    #[test]
    fn repeated_touch_of_one_way_protects_it() {
        let mut p = TreePlru::new(4);
        for _ in 0..100 {
            p.touch(2);
            assert_ne!(p.victim(), 2);
        }
    }

    #[test]
    fn plru_approximates_lru_on_scan() {
        // A scan over 16 distinct blocks in a 4-way set must keep evicting;
        // this just checks the victim is always a valid way.
        let mut p = TreePlru::new(4);
        for i in 0..64 {
            let v = p.victim();
            assert!(v < 4);
            p.touch(i % 4);
        }
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_ways_panics() {
        let _ = TreePlru::new(3);
    }

    #[test]
    #[should_panic]
    fn touch_out_of_range_panics() {
        TreePlru::new(4).touch(4);
    }

    #[test]
    #[should_panic(expected = "tree PLRU tracks at most 64 ways, got 128")]
    fn more_than_64_ways_panics() {
        let _ = TreePlru::new(128);
    }

    #[test]
    fn state_is_two_words() {
        assert!(std::mem::size_of::<TreePlru>() <= 16);
    }

    /// The tree as it was stored before the bits moved inline: one heap
    /// `bool` per node.  Kept only as the reference for the property below.
    struct VecTreePlru {
        ways: usize,
        bits: Vec<bool>,
    }

    impl VecTreePlru {
        fn new(ways: usize) -> Self {
            VecTreePlru {
                ways,
                bits: vec![false; ways - 1],
            }
        }

        fn touch(&mut self, way: usize) {
            let (mut node, mut lo, mut hi) = (0, 0, self.ways);
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if way < mid {
                    self.bits[node] = true;
                    node = 2 * node + 1;
                    hi = mid;
                } else {
                    self.bits[node] = false;
                    node = 2 * node + 2;
                    lo = mid;
                }
            }
        }

        fn victim(&self) -> usize {
            let (mut node, mut lo, mut hi) = (0, 0, self.ways);
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if self.bits[node] {
                    node = 2 * node + 2;
                    lo = mid;
                } else {
                    node = 2 * node + 1;
                    hi = mid;
                }
            }
            lo
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The inline-bit tree picks exactly the victims the per-node
            /// `Vec<bool>` tree picks, for every associativity up to 64,
            /// under arbitrary interleavings of touches and victim fills.
            #[test]
            fn inline_bits_match_the_vec_tree(
                log_ways in 0usize..7,
                ops in proptest::collection::vec((any::<bool>(), any::<u64>()), 0..256)
            ) {
                let ways = 1usize << log_ways;
                let mut inline = TreePlru::new(ways);
                let mut reference = VecTreePlru::new(ways);
                for &(fill, raw) in &ops {
                    prop_assert_eq!(inline.victim(), reference.victim());
                    // A fill touches the victim, as `CacheBank::insert` does;
                    // otherwise touch an arbitrary way, as a hit does.
                    let way = if fill { reference.victim() } else { raw as usize % ways };
                    inline.touch(way);
                    reference.touch(way);
                }
                prop_assert_eq!(inline.victim(), reference.victim());
            }
        }
    }
}
