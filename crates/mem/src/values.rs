//! Word-granular data values, materialised copy-on-write per cache line.
//!
//! The simulator is primarily a timing model, but protocol bugs that return
//! *stale data* are invisible to cycle counts.  [`ValueStore`] is the
//! functional-memory substrate that makes them visible: an optional,
//! line-sparse map from [`LineAddr`] to the eight 64-bit words of the line.
//! One store is attached to DRAM, one to every L1 data cache, one to every
//! L2 slice and one to every scratchpad; the hierarchy and the DMA engines
//! move line values between them along exactly the paths the modelled
//! protocol transaction takes, so a routing bug (reading the wrong copy)
//! produces the wrong *value*, which the `oracle` crate's reference memory
//! then catches.
//!
//! Lines are materialised on first write (copy-on-write): an absent line
//! reads as zeros, which is also the reference memory's initial state, so
//! never-written memory trivially agrees between the two models.

use std::collections::{BTreeMap, HashMap};

use crate::addr::{Addr, AddressRange, LineAddr, LINE_BYTES};

/// 64-bit words per 64-byte cache line.
pub const WORDS_PER_LINE: usize = (LINE_BYTES / 8) as usize;

/// The data values of one cache line.
pub type LineValues = [u64; WORDS_PER_LINE];

/// Index of the word containing `addr` within its line.
#[inline]
pub fn word_index(addr: Addr) -> usize {
    ((addr.raw() % LINE_BYTES) / 8) as usize
}

/// The word-aligned address of the word containing `addr` (accesses are
/// value-tracked at 8-byte granularity; sub-word accesses read and write the
/// containing word).
#[inline]
pub fn word_addr(addr: Addr) -> Addr {
    Addr::new(addr.raw() & !7)
}

/// A sparse, line-granular value store.
///
/// # Example
///
/// ```
/// use mem::{Addr, ValueStore};
///
/// let mut store = ValueStore::new();
/// assert_eq!(store.read_word(Addr::new(0x40)), 0, "unwritten memory is zero");
/// store.write_word(Addr::new(0x40), 7);
/// assert_eq!(store.read_word(Addr::new(0x47)), 7, "word granular");
/// assert_eq!(store.read_word(Addr::new(0x48)), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValueStore {
    lines: HashMap<u64, LineValues>,
}

impl ValueStore {
    /// Creates an empty store (all memory reads as zero).
    pub fn new() -> Self {
        ValueStore::default()
    }

    /// Number of materialised lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Returns `true` if no line has been materialised.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The materialised values of a line, if any.
    pub fn line(&self, line: LineAddr) -> Option<&LineValues> {
        self.lines.get(&line.number())
    }

    /// Returns `true` if the line is materialised.
    pub fn has_line(&self, line: LineAddr) -> bool {
        self.lines.contains_key(&line.number())
    }

    /// Replaces a whole line.
    pub fn set_line(&mut self, line: LineAddr, values: LineValues) {
        self.lines.insert(line.number(), values);
    }

    /// Copies a line from another store's snapshot: `Some` replaces the
    /// line, `None` (an unmaterialised source) de-materialises it, so the
    /// destination reads as the source did.
    pub fn copy_line(&mut self, line: LineAddr, values: Option<LineValues>) {
        match values {
            Some(v) => self.set_line(line, v),
            None => {
                self.lines.remove(&line.number());
            }
        }
    }

    /// Removes a line, returning its values if it was materialised.
    pub fn remove_line(&mut self, line: LineAddr) -> Option<LineValues> {
        self.lines.remove(&line.number())
    }

    /// Removes every line.
    pub fn clear(&mut self) {
        self.lines.clear();
    }

    /// Reads the word containing `addr` (zero if unwritten).
    pub fn read_word(&self, addr: Addr) -> u64 {
        self.line(addr.line())
            .map_or(0, |line| line[word_index(addr)])
    }

    /// Writes the word containing `addr`, materialising the line.
    pub fn write_word(&mut self, addr: Addr, value: u64) {
        let entry = self
            .lines
            .entry(addr.line().number())
            .or_insert([0; WORDS_PER_LINE]);
        entry[word_index(addr)] = value;
    }

    /// Writes into `line` only the words of `values` that fall inside
    /// `range` (a DMA transfer of a chunk that does not cover whole lines
    /// must not clobber the neighbouring words).
    pub fn fill_line_masked(&mut self, line: LineAddr, values: &LineValues, range: &AddressRange) {
        for (w, value) in values.iter().enumerate() {
            let addr = line.base() + (w as u64) * 8;
            if range.contains(addr) {
                self.write_word(addr, *value);
            }
        }
    }

    /// The words of `line` that are both materialised and inside `range`
    /// (the write-back mask of a partial-line DMA drain).
    pub fn masked_line(
        &self,
        line: LineAddr,
        range: &AddressRange,
    ) -> [Option<u64>; WORDS_PER_LINE] {
        let mut out = [None; WORDS_PER_LINE];
        if let Some(values) = self.line(line) {
            for (w, slot) in out.iter_mut().enumerate() {
                let addr = line.base() + (w as u64) * 8;
                if range.contains(addr) {
                    *slot = Some(values[w]);
                }
            }
        }
        out
    }

    /// De-materialises the words of `range` (word granular: partially
    /// covered lines keep their out-of-range words).
    pub fn clear_range(&mut self, range: &AddressRange) {
        for line in range.lines() {
            let fully_covered =
                range.contains(line.base()) && range.contains(line.base() + (LINE_BYTES - 8));
            if fully_covered {
                self.lines.remove(&line.number());
            } else if let Some(values) = self.lines.get_mut(&line.number()) {
                for (w, value) in values.iter_mut().enumerate() {
                    let addr = line.base() + (w as u64) * 8;
                    if range.contains(addr) {
                        *value = 0;
                    }
                }
                if values.iter().all(|v| *v == 0) {
                    self.lines.remove(&line.number());
                }
            }
        }
    }

    /// Every non-zero word as `(word address, value)`, sorted by address.
    ///
    /// Zero words are skipped because an absent line already reads as zero:
    /// including them would make the image depend on which lines happened to
    /// be materialised rather than on the memory's observable contents.
    pub fn nonzero_words(&self) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for (line, values) in &self.lines {
            for (w, value) in values.iter().enumerate() {
                if *value != 0 {
                    out.insert(line * LINE_BYTES + (w as u64) * 8, *value);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero_without_materialising() {
        let store = ValueStore::new();
        assert_eq!(store.read_word(Addr::new(0x1234)), 0);
        assert!(store.is_empty());
    }

    #[test]
    fn words_are_independent_within_a_line() {
        let mut store = ValueStore::new();
        store.write_word(Addr::new(0x100), 1);
        store.write_word(Addr::new(0x108), 2);
        assert_eq!(store.read_word(Addr::new(0x100)), 1);
        assert_eq!(store.read_word(Addr::new(0x108)), 2);
        assert_eq!(store.read_word(Addr::new(0x110)), 0);
        assert_eq!(store.len(), 1, "one line materialised");
    }

    #[test]
    fn sub_word_addresses_share_the_containing_word() {
        let mut store = ValueStore::new();
        store.write_word(Addr::new(0x204), 9);
        assert_eq!(store.read_word(Addr::new(0x200)), 9);
        assert_eq!(word_addr(Addr::new(0x207)), Addr::new(0x200));
        assert_eq!(word_index(Addr::new(0x238)), 7);
    }

    #[test]
    fn copy_line_propagates_absence() {
        let mut src = ValueStore::new();
        let mut dst = ValueStore::new();
        let line = LineAddr::new(5);
        dst.set_line(line, [7; WORDS_PER_LINE]);
        dst.copy_line(line, src.line(line).copied());
        assert!(!dst.has_line(line), "absent source de-materialises");
        src.write_word(line.base(), 3);
        dst.copy_line(line, src.line(line).copied());
        assert_eq!(dst.read_word(line.base()), 3);
    }

    #[test]
    fn masked_fill_and_drain_respect_the_range() {
        let mut spm = ValueStore::new();
        let line = LineAddr::new(4);
        // Chunk covers only the middle two words of the line.
        let range = AddressRange::new(line.base() + 16, 16);
        let mut incoming = [0u64; WORDS_PER_LINE];
        for (i, v) in incoming.iter_mut().enumerate() {
            *v = 100 + i as u64;
        }
        spm.fill_line_masked(line, &incoming, &range);
        assert_eq!(spm.read_word(line.base()), 0, "outside the chunk untouched");
        assert_eq!(spm.read_word(line.base() + 16), 102);
        assert_eq!(spm.read_word(line.base() + 24), 103);
        assert_eq!(spm.read_word(line.base() + 32), 0);

        let masked = spm.masked_line(line, &range);
        assert_eq!(masked[0], None);
        assert_eq!(masked[2], Some(102));
        assert_eq!(masked[3], Some(103));
        assert_eq!(masked[4], None);
    }

    #[test]
    fn clear_range_is_word_granular() {
        let mut store = ValueStore::new();
        let line = LineAddr::new(8);
        store.write_word(line.base(), 1);
        store.write_word(line.base() + 16, 2);
        store.clear_range(&AddressRange::new(line.base() + 8, 16));
        assert_eq!(store.read_word(line.base()), 1, "outside words survive");
        assert_eq!(store.read_word(line.base() + 16), 0);
        store.clear_range(&AddressRange::new(line.base(), LINE_BYTES));
        assert!(!store.has_line(line), "fully covered line dropped");
    }

    #[test]
    fn nonzero_image_is_sorted_and_sparse() {
        let mut store = ValueStore::new();
        store.write_word(Addr::new(0x400), 4);
        store.write_word(Addr::new(0x80), 8);
        store.write_word(Addr::new(0x88), 0); // explicit zero is not imaged
        let image = store.nonzero_words();
        let entries: Vec<(u64, u64)> = image.into_iter().collect();
        assert_eq!(entries, vec![(0x80, 8), (0x400, 4)]);
    }
}
