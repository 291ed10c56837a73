//! Addresses, cache lines and address ranges.
//!
//! The simulator works with 64-bit virtual addresses, exactly like the
//! paper's x86_64 target.  Cache state is tracked at the granularity of
//! 64-byte lines ([`LINE_BYTES`], Table 1).

use std::fmt;
use std::ops::{Add, Sub};

use serde::{Deserialize, Serialize};

/// Cache line size in bytes (Table 1 of the paper).
pub const LINE_BYTES: u64 = 64;

/// A 64-bit virtual (or physical) byte address.
///
/// # Example
///
/// ```
/// use mem::{Addr, LINE_BYTES};
///
/// let a = Addr::new(0x1000_0042);
/// assert_eq!(a.line().base().raw(), 0x1000_0040);
/// assert_eq!(a.line_offset(), 2);
/// assert_eq!((a + 100).raw(), 0x1000_00a6);
/// let _ = LINE_BYTES;
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Addr(u64);

impl Addr {
    /// The null address.
    pub const NULL: Addr = Addr(0);

    /// Creates an address from its raw 64-bit value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw 64-bit value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache line containing this address.
    #[inline]
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES)
    }

    /// Byte offset of this address within its cache line.
    #[inline]
    pub const fn line_offset(self) -> u64 {
        self.0 % LINE_BYTES
    }

    /// Saturating offset addition.
    pub fn saturating_add(self, offset: u64) -> Addr {
        Addr(self.0.saturating_add(offset))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl Add<u64> for Addr {
    type Output = Addr;
    #[inline]
    fn add(self, rhs: u64) -> Addr {
        Addr(self.0 + rhs)
    }
}

impl Sub<u64> for Addr {
    type Output = Addr;
    #[inline]
    fn sub(self, rhs: u64) -> Addr {
        Addr(self.0 - rhs)
    }
}

impl Sub<Addr> for Addr {
    type Output = u64;
    /// Distance in bytes between two addresses.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self`.
    #[inline]
    fn sub(self, rhs: Addr) -> u64 {
        self.0 - rhs.0
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

/// A cache-line-granular address (the byte address divided by [`LINE_BYTES`]).
///
/// # Example
///
/// ```
/// use mem::{Addr, LineAddr};
///
/// let l = Addr::new(0x80).line();
/// assert_eq!(l, LineAddr::new(2));
/// assert_eq!(l.base(), Addr::new(0x80));
/// assert_eq!(l.next().base(), Addr::new(0xc0));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from its line number.
    #[inline]
    pub const fn new(line_number: u64) -> Self {
        LineAddr(line_number)
    }

    /// Returns the line number.
    #[inline]
    pub const fn number(self) -> u64 {
        self.0
    }

    /// Returns the first byte address of the line.
    #[inline]
    pub const fn base(self) -> Addr {
        Addr(self.0 * LINE_BYTES)
    }

    /// Returns the next sequential line.
    #[inline]
    pub const fn next(self) -> LineAddr {
        LineAddr(self.0 + 1)
    }

    /// Returns the line `n` lines after this one.
    #[inline]
    pub const fn offset(self, n: u64) -> LineAddr {
        LineAddr(self.0 + n)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {:#x}", self.0)
    }
}

/// A half-open byte address range `[start, start + len)`.
///
/// # Example
///
/// ```
/// use mem::{Addr, AddressRange};
///
/// let r = AddressRange::new(Addr::new(0x1000), 256);
/// assert!(r.contains(Addr::new(0x10ff)));
/// assert!(!r.contains(Addr::new(0x1100)));
/// assert_eq!(r.lines().count(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AddressRange {
    start: Addr,
    len: u64,
}

impl AddressRange {
    /// Creates a range from a start address and a length in bytes.
    pub const fn new(start: Addr, len: u64) -> Self {
        AddressRange { start, len }
    }

    /// The first address of the range.
    pub const fn start(&self) -> Addr {
        self.start
    }

    /// One past the last address of the range.
    pub const fn end(&self) -> Addr {
        Addr(self.start.0 + self.len)
    }

    /// Length of the range in bytes.
    pub const fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` if the range is empty.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if `addr` lies inside the range.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.start && addr < self.end()
    }

    /// Returns `true` if the two ranges share at least one byte.
    pub fn overlaps(&self, other: &AddressRange) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.start < other.end()
            && other.start < self.end()
    }

    /// Iterates over every cache line touched by the range.
    pub fn lines(&self) -> impl Iterator<Item = LineAddr> {
        let first = self.start.line().number();
        let last = if self.len == 0 {
            first
        } else {
            (self.end() - 1u64).line().number() + 1
        };
        (first..last).map(LineAddr::new)
    }
}

impl fmt::Display for AddressRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#x}, {:#x})", self.start.0, self.end().0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_line_decomposition() {
        let a = Addr::new(0x1234);
        assert_eq!(a.line().number(), 0x1234 / 64);
        assert_eq!(a.line_offset(), 0x1234 % 64);
        assert_eq!(a.line().base().line_offset(), 0);
    }

    #[test]
    fn addr_arithmetic() {
        let a = Addr::new(100);
        assert_eq!((a + 28).raw(), 128);
        assert_eq!((a - 50u64).raw(), 50);
        assert_eq!(Addr::new(200) - Addr::new(150), 50);
        assert_eq!(Addr::MAX_TEST.saturating_add(10), Addr::MAX_TEST);
        assert_eq!(u64::from(Addr::new(7)), 7);
        assert_eq!(Addr::from(7u64), Addr::new(7));
    }

    impl Addr {
        const MAX_TEST: Addr = Addr(u64::MAX);
    }

    #[test]
    fn line_addr_navigation() {
        let l = LineAddr::new(10);
        assert_eq!(l.base(), Addr::new(640));
        assert_eq!(l.next(), LineAddr::new(11));
        assert_eq!(l.offset(5), LineAddr::new(15));
        assert_eq!(l.to_string(), "line 0xa");
    }

    #[test]
    fn range_contains_and_overlaps() {
        let r = AddressRange::new(Addr::new(0x1000), 0x100);
        assert!(r.contains(Addr::new(0x1000)));
        assert!(r.contains(Addr::new(0x10ff)));
        assert!(!r.contains(Addr::new(0x0fff)));
        assert!(!r.contains(Addr::new(0x1100)));
        assert_eq!(r.len(), 0x100);
        assert!(!r.is_empty());

        let other = AddressRange::new(Addr::new(0x10f0), 0x100);
        assert!(r.overlaps(&other));
        let disjoint = AddressRange::new(Addr::new(0x2000), 0x100);
        assert!(!r.overlaps(&disjoint));
        let empty = AddressRange::new(Addr::new(0x1000), 0);
        assert!(!r.overlaps(&empty));
        assert!(empty.is_empty());
    }

    #[test]
    fn range_lines_cover_partial_lines() {
        // 0x10..0x90 touches lines 0 and 1 and 2.
        let r = AddressRange::new(Addr::new(0x10), 0x80);
        let lines: Vec<u64> = r.lines().map(|l| l.number()).collect();
        assert_eq!(lines, vec![0, 1, 2]);
        // Exactly one line.
        let r = AddressRange::new(Addr::new(0x40), 64);
        assert_eq!(r.lines().count(), 1);
        // Empty range touches nothing.
        let r = AddressRange::new(Addr::new(0x40), 0);
        assert_eq!(r.lines().count(), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr::new(0x40).to_string(), "0x40");
        assert_eq!(
            AddressRange::new(Addr::new(0x40), 64).to_string(),
            "[0x40, 0x80)"
        );
        assert_eq!(format!("{:x}", Addr::new(255)), "ff");
    }
}
