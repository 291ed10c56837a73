//! Differential coherence oracle: a flat, sequentially-consistent reference
//! memory replayed against the detailed memory system.
//!
//! The simulator's hierarchy ([`mem::MemorySystem`]), scratchpads and the
//! SPM coherence protocol move *data values* between many physical copies
//! (see `mem::values`).  A correct protocol makes all that movement
//! invisible: every load — demand, guarded-and-diverted, or a DMA bus read —
//! must observe exactly what a flat memory would hold at that point of the
//! (deterministic) execution order.  [`CoherenceOracle`] is that flat
//! memory, plus the bookkeeping to report any disagreement as a precise,
//! reproducible [`Divergence`].
//!
//! The oracle is driven *inside* the execution engine, one call per
//! interpreted trace operation, so the detailed model and the reference see
//! the same global interleaving by construction: a divergence always means
//! the hardware model returned data from the wrong place (stale copy, wrong
//! owner, missed invalidation) — never that the two models raced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use mem::{word_addr, Addr};

/// A flat, word-granular, sequentially-consistent memory.
///
/// # Example
///
/// ```
/// use oracle::RefMemory;
/// use mem::Addr;
///
/// let mut m = RefMemory::new();
/// assert_eq!(m.load(Addr::new(0x100)), 0, "unwritten memory is zero");
/// m.store(Addr::new(0x104), 7);
/// assert_eq!(m.load(Addr::new(0x100)), 7, "word granular");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefMemory {
    words: HashMap<u64, u64>,
}

impl RefMemory {
    /// An empty (all-zero) memory.
    pub fn new() -> Self {
        RefMemory::default()
    }

    /// Reads the word containing `addr` (zero if never written).
    pub fn load(&self, addr: Addr) -> u64 {
        self.words.get(&word_addr(addr).raw()).copied().unwrap_or(0)
    }

    /// Writes the word containing `addr`.
    pub fn store(&mut self, addr: Addr, value: u64) {
        if value == 0 {
            self.words.remove(&word_addr(addr).raw());
        } else {
            self.words.insert(word_addr(addr).raw(), value);
        }
    }

    /// Number of non-zero words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` if every word is zero.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Every non-zero word as `(word address, value)`, sorted.
    pub fn image(&self) -> BTreeMap<u64, u64> {
        self.words.iter().map(|(a, v)| (*a, *v)).collect()
    }
}

/// One observed disagreement between the detailed model and the reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Global index of the trace operation (1-based, in interpretation
    /// order) that observed the wrong value.
    pub op_index: u64,
    /// The core that issued the access.
    pub core: usize,
    /// The accessed address.
    pub addr: Addr,
    /// What the flat reference memory holds.
    pub expected: u64,
    /// What the detailed model returned.
    pub observed: u64,
    /// The access path that observed the value (`"load(gm)"`,
    /// `"guarded-load(remote-spm)"`, `"dma-get"`, ...).
    pub access: String,
    /// Protocol-side context captured at divergence time (SPMDir / filter /
    /// filterDir state for the address), for the divergence report.
    pub context: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "op #{} core {} {} at {}: observed {:#x}, oracle expects {:#x}",
            self.op_index, self.core, self.access, self.addr, self.observed, self.expected
        )?;
        if !self.context.is_empty() {
            write!(f, "\n    {}", self.context)?;
        }
        Ok(())
    }
}

/// Summary of one checked run.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Trace operations interpreted.
    pub ops: u64,
    /// Individual load values compared.
    pub loads_checked: u64,
    /// Words compared on behalf of DMA transfers.
    pub dma_words_checked: u64,
    /// Stores applied to the reference memory.
    pub stores_applied: u64,
    /// Accesses outside the modelled value contract (e.g. an SPM-class
    /// access falling outside its currently mapped chunk), skipped on both
    /// sides.
    pub unmodeled: u64,
    /// The divergences found (capped; see [`CoherenceOracle::new`]).
    pub divergences: Vec<Divergence>,
}

impl OracleReport {
    /// Returns `true` if every checked value agreed.
    pub fn ok(&self) -> bool {
        self.divergences.is_empty()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} ops, {} loads + {} dma words checked, {} stores, {} unmodeled, {} divergences",
            self.ops,
            self.loads_checked,
            self.dma_words_checked,
            self.stores_applied,
            self.unmodeled,
            self.divergences.len()
        )
    }
}

/// The differential checker: reference memory + divergence collection.
#[derive(Debug)]
pub struct CoherenceOracle {
    mem: RefMemory,
    report: OracleReport,
    max_divergences: usize,
}

impl Default for CoherenceOracle {
    fn default() -> Self {
        Self::new(16)
    }
}

impl CoherenceOracle {
    /// A checker that keeps at most `max_divergences` reports (counting
    /// continues; the cap only bounds the stored details).
    pub fn new(max_divergences: usize) -> Self {
        CoherenceOracle {
            mem: RefMemory::new(),
            report: OracleReport::default(),
            max_divergences: max_divergences.max(1),
        }
    }

    /// Read access to the reference memory.
    pub fn memory(&self) -> &RefMemory {
        &self.mem
    }

    /// Notes one interpreted trace operation (drives `op_index`).
    pub fn begin_op(&mut self) -> u64 {
        self.report.ops += 1;
        self.report.ops
    }

    /// Applies a store to the reference memory.
    pub fn store(&mut self, addr: Addr, value: u64) {
        self.report.stores_applied += 1;
        self.mem.store(addr, value);
    }

    /// The value the reference memory holds for `addr`.
    pub fn expected(&self, addr: Addr) -> u64 {
        self.mem.load(addr)
    }

    /// Notes an access skipped on both sides (outside the value contract).
    pub fn note_unmodeled(&mut self) {
        self.report.unmodeled += 1;
    }

    /// Checks one observed load value against the reference.
    ///
    /// `context` is only rendered when the values disagree.
    pub fn check_load(
        &mut self,
        core: usize,
        addr: Addr,
        observed: u64,
        access: &str,
        context: impl FnOnce() -> String,
    ) {
        self.report.loads_checked += 1;
        self.record(core, addr, observed, access, context);
    }

    /// Checks one word read by a DMA transfer against the reference.
    pub fn check_dma_word(
        &mut self,
        core: usize,
        addr: Addr,
        observed: u64,
        context: impl FnOnce() -> String,
    ) {
        self.report.dma_words_checked += 1;
        self.record(core, addr, observed, "dma-get", context);
    }

    fn record(
        &mut self,
        core: usize,
        addr: Addr,
        observed: u64,
        access: &str,
        context: impl FnOnce() -> String,
    ) {
        let expected = self.mem.load(addr);
        if observed == expected {
            return;
        }
        if self.report.divergences.len() < self.max_divergences {
            let d = Divergence {
                op_index: self.report.ops,
                core,
                addr,
                expected,
                observed,
                access: access.to_owned(),
                context: context(),
            };
            self.report.divergences.push(d);
        }
    }

    /// Returns `true` while no divergence has been observed.
    pub fn ok(&self) -> bool {
        self.report.divergences.is_empty()
    }

    /// The accumulated report.
    pub fn report(&self) -> &OracleReport {
        &self.report
    }

    /// Consumes the checker, returning the report.
    pub fn into_report(self) -> OracleReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_memory_is_word_granular_and_sparse() {
        let mut m = RefMemory::new();
        assert!(m.is_empty());
        m.store(Addr::new(0x10), 3);
        m.store(Addr::new(0x18), 4);
        assert_eq!(m.load(Addr::new(0x17)), 3);
        assert_eq!(m.len(), 2);
        m.store(Addr::new(0x10), 0);
        assert_eq!(m.len(), 1, "zero stores stay sparse");
        assert_eq!(m.image().into_iter().collect::<Vec<_>>(), vec![(0x18, 4)]);
    }

    #[test]
    fn matching_loads_pass_and_mismatches_are_reported() {
        let mut o = CoherenceOracle::new(4);
        o.begin_op();
        o.store(Addr::new(0x100), 7);
        o.begin_op();
        o.check_load(0, Addr::new(0x100), 7, "load(gm)", || unreachable!());
        assert!(o.ok());
        o.begin_op();
        o.check_load(1, Addr::new(0x100), 9, "load(gm)", || "ctx".into());
        assert!(!o.ok());
        let d = &o.report().divergences[0];
        assert_eq!(d.op_index, 3);
        assert_eq!(d.core, 1);
        assert_eq!(d.expected, 7);
        assert_eq!(d.observed, 9);
        assert_eq!(d.context, "ctx");
        assert!(d.to_string().contains("oracle expects 0x7"));
    }

    #[test]
    fn divergence_details_are_capped_but_checks_continue() {
        let mut o = CoherenceOracle::new(2);
        for i in 0..5 {
            o.begin_op();
            o.check_load(0, Addr::new(0x8 * i), 1, "load(gm)", String::new);
        }
        assert_eq!(o.report().divergences.len(), 2);
        assert_eq!(o.report().loads_checked, 5);
        assert!(!o.report().ok());
        assert!(o.report().summary().contains("2 divergences"));
    }

    #[test]
    fn dma_words_are_checked_separately() {
        let mut o = CoherenceOracle::default();
        o.begin_op();
        o.check_dma_word(2, Addr::new(0x40), 0, String::new);
        assert!(o.ok());
        assert_eq!(o.report().dma_words_checked, 1);
        o.note_unmodeled();
        assert_eq!(o.into_report().unmodeled, 1);
    }
}
