//! Deterministic pseudo random number generation.
//!
//! The simulator must be exactly reproducible: the same configuration and
//! workload seed must produce the same cycle counts, traffic and energy on
//! every run.  [`SimRng`] is a small xoshiro256** generator seeded through
//! SplitMix64, which is the standard recommendation for seeding the xoshiro
//! family.  It is deliberately dependency-free so that low-level crates do
//! not need `rand`; the workload crate layers `rand` distributions on top
//! where convenient.

use std::fmt;

/// A deterministic xoshiro256** pseudo random number generator.
///
/// # Example
///
/// ```
/// use simkernel::SimRng;
///
/// let mut a = SimRng::seed_from_u64(42);
/// let mut b = SimRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// let dice = a.gen_range(1..=6);
/// assert!((1..=6).contains(&dice));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl fmt::Debug for SimRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimRng").field("state", &self.s).finish()
    }
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Two generators created from the same seed produce identical streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Returns the next raw 64-bit value of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly distributed value from an inclusive or exclusive range.
    ///
    /// # Example
    ///
    /// ```
    /// # use simkernel::SimRng;
    /// let mut rng = SimRng::seed_from_u64(1);
    /// let a = rng.gen_range(10..20);
    /// assert!((10..20).contains(&a));
    /// let b = rng.gen_range(10..=20);
    /// assert!((10..=20).contains(&b));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: RangeSpec>(&mut self, range: R) -> u64 {
        let (lo, hi_inclusive) = range.bounds();
        assert!(lo <= hi_inclusive, "empty range");
        let span = hi_inclusive - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(span + 1)
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Shuffles `slice` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below((i + 1) as u64) as usize;
            slice.swap(i, j);
        }
    }

    /// Derives an independent generator for a subcomponent.
    ///
    /// Handing a forked generator to each core keeps streams independent of
    /// the order in which cores consume randomness.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::seed_from_u64(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Ranges accepted by [`SimRng::gen_range`].
///
/// This trait is an implementation detail sealed to `Range<u64>` and
/// `RangeInclusive<u64>`.
pub trait RangeSpec: private::Sealed {
    /// Returns the `(low, high_inclusive)` bounds of the range.
    fn bounds(&self) -> (u64, u64);
}

mod private {
    pub trait Sealed {}
    impl Sealed for std::ops::Range<u64> {}
    impl Sealed for std::ops::RangeInclusive<u64> {}
}

impl RangeSpec for std::ops::Range<u64> {
    fn bounds(&self) -> (u64, u64) {
        assert!(self.start < self.end, "empty range");
        (self.start, self.end - 1)
    }
}

impl RangeSpec for std::ops::RangeInclusive<u64> {
    fn bounds(&self) -> (u64, u64) {
        (*self.start(), *self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(123);
        let mut b = SimRng::seed_from_u64(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be essentially uncorrelated");
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = SimRng::seed_from_u64(7);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            let v = rng.next_below(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = rng.gen_range(100..200);
            assert!((100..200).contains(&v));
            let w = rng.gen_range(5..=5);
            assert_eq!(w, 5);
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(11);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn gen_bool_extremes_and_probability() {
        let mut rng = SimRng::seed_from_u64(13);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits} hits for p=0.25");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from_u64(17);
        let mut v: Vec<u32> = (0..50).collect();
        let original = v.clone();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, original, "shuffle must be a permutation");
        assert_ne!(v, original, "shuffle of 50 elements should move something");
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut root = SimRng::seed_from_u64(21);
        let mut a = root.fork(0);
        let mut b = root.fork(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    #[should_panic]
    fn next_below_zero_panics() {
        SimRng::seed_from_u64(0).next_below(0);
    }
}
