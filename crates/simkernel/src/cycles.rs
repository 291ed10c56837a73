//! Strongly typed simulation time.
//!
//! All timing in the simulator is expressed in core clock [`Cycle`]s.  The
//! paper's configuration runs the chip at 2 GHz (Table 1); [`Frequency`]
//! converts cycle counts to seconds for energy (static power) accounting.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point in simulated time (or a duration), measured in core clock cycles.
///
/// `Cycle` is an additive newtype over `u64`: two cycles can be added and
/// subtracted, and a cycle can be scaled by an integer factor.  Subtraction
/// saturates at zero rather than panicking so that latency arithmetic on
/// overlapping events never underflows.
///
/// # Example
///
/// ```
/// use simkernel::Cycle;
///
/// let start = Cycle::new(100);
/// let end = start + Cycle::new(15);
/// assert_eq!(end.as_u64(), 115);
/// assert_eq!((end - start).as_u64(), 15);
/// assert_eq!((start - end), Cycle::ZERO); // saturating
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycle(u64);

impl Cycle {
    /// The zero cycle (simulation start, or a zero-length duration).
    pub const ZERO: Cycle = Cycle(0);

    /// The largest representable cycle, used as an "infinite" sentinel.
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Creates a cycle value from a raw count.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the raw cycle count as `f64`, convenient for ratios.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating addition of two cycle values.
    #[inline]
    pub fn saturating_add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction of two cycle values.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(rhs.0))
    }

    /// Returns the larger of two cycle values.
    #[inline]
    pub fn max(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.max(rhs.0))
    }

    /// Returns the smaller of two cycle values.
    #[inline]
    pub fn min(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.min(rhs.0))
    }

    /// Returns `true` if this is the zero cycle.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl Add for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycle {
    type Output = Cycle;
    /// Saturating: never underflows.
    #[inline]
    fn sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Cycle {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycle) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn mul(self, rhs: u64) -> Cycle {
        Cycle(self.0 * rhs)
    }
}

impl Div<u64> for Cycle {
    type Output = Cycle;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[inline]
    fn div(self, rhs: u64) -> Cycle {
        Cycle(self.0 / rhs)
    }
}

impl Sum for Cycle {
    fn sum<I: Iterator<Item = Cycle>>(iter: I) -> Cycle {
        Cycle(iter.map(|c| c.0).sum())
    }
}

impl From<u64> for Cycle {
    fn from(raw: u64) -> Self {
        Cycle(raw)
    }
}

impl From<Cycle> for u64 {
    fn from(c: Cycle) -> Self {
        c.0
    }
}

/// A clock frequency, used to convert cycle counts into seconds.
///
/// # Example
///
/// ```
/// use simkernel::{Cycle, Frequency};
///
/// let clk = Frequency::ghz(2.0);
/// let time = clk.cycles_to_seconds(Cycle::new(2_000_000_000));
/// assert!((time - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Frequency {
    hz: f64,
}

impl Frequency {
    /// Creates a frequency from a value in hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not finite and strictly positive.
    pub fn hz(hz: f64) -> Self {
        assert!(
            hz.is_finite() && hz > 0.0,
            "frequency must be positive, got {hz}"
        );
        Frequency { hz }
    }

    /// Creates a frequency from a value in gigahertz.
    pub fn ghz(ghz: f64) -> Self {
        Self::hz(ghz * 1e9)
    }

    /// Returns the frequency in hertz.
    pub fn as_hz(self) -> f64 {
        self.hz
    }

    /// Converts a cycle count into seconds at this frequency.
    pub fn cycles_to_seconds(self, cycles: Cycle) -> f64 {
        cycles.as_f64() / self.hz
    }
}

impl Default for Frequency {
    /// The paper's 2 GHz clock (Table 1).
    fn default() -> Self {
        Frequency::ghz(2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic_roundtrip() {
        let a = Cycle::new(7);
        let b = Cycle::new(5);
        assert_eq!((a + b).as_u64(), 12);
        assert_eq!((a - b).as_u64(), 2);
        assert_eq!((b - a), Cycle::ZERO);
        assert_eq!((a * 3).as_u64(), 21);
        assert_eq!((a / 2).as_u64(), 3);
    }

    #[test]
    fn cycle_saturating_ops() {
        assert_eq!(Cycle::MAX.saturating_add(Cycle::new(1)), Cycle::MAX);
        assert_eq!(Cycle::new(3).saturating_sub(Cycle::new(10)), Cycle::ZERO);
    }

    #[test]
    fn cycle_ordering_and_minmax() {
        let a = Cycle::new(3);
        let b = Cycle::new(9);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn cycle_add_assign_and_sum() {
        let mut c = Cycle::ZERO;
        c += Cycle::new(4);
        c += Cycle::new(6);
        assert_eq!(c, Cycle::new(10));
        let total: Cycle = [Cycle::new(1), Cycle::new(2), Cycle::new(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Cycle::new(6));
    }

    #[test]
    fn cycle_display_and_conversions() {
        assert_eq!(Cycle::new(42).to_string(), "42 cycles");
        assert_eq!(u64::from(Cycle::new(42)), 42);
        assert_eq!(Cycle::from(42u64), Cycle::new(42));
        assert!(Cycle::ZERO.is_zero());
        assert!(!Cycle::new(1).is_zero());
    }

    #[test]
    fn frequency_conversions() {
        let f = Frequency::ghz(2.0);
        assert!((f.as_hz() - 2e9).abs() < 1.0);
        let g = Frequency::hz(500e6);
        assert!((g.cycles_to_seconds(Cycle::new(500_000_000)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn default_frequency_is_2ghz() {
        assert!((Frequency::default().as_hz() - 2e9).abs() < 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_frequency_panics() {
        let _ = Frequency::hz(0.0);
    }
}
