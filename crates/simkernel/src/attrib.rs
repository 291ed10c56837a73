//! Cycle accounting: per-core attribution of elapsed cycles to named
//! categories.
//!
//! Every cycle a core's clock moves is charged to exactly one
//! [`CycleCategory`] — the account is *exhaustive* (nothing is left
//! uncharged) and *exclusive* (nothing is charged twice), so the category
//! counters of a core sum bit-exactly to its elapsed cycles.  The invariant
//! is structural: the core timing model funnels every clock movement through
//! two charge points, and [`CycleBreakdown::check_exhaustive`] re-verifies
//! the sum after a run (the cycle-accounting proptest drives it across
//! every machine kind × NoC model).
//!
//! Accounting is always on and a pure observer of the timing model:
//! charging changes no other observable number.  Every run result carries
//! its [`CycleBreakdown`], and the campaign result cache stores it.
//!
//! # Example
//!
//! ```
//! use simkernel::attrib::{CycleAccount, CycleCategory};
//!
//! let mut account = CycleAccount::new();
//! account.charge(CycleCategory::Compute, 90);
//! account.charge(CycleCategory::MissWait, 10);
//! assert_eq!(account.total(), 100);
//! assert_eq!(account.get(CycleCategory::MissWait), 10);
//! ```

use crate::json::Json;
use crate::table::TableBuilder;

/// Where a core's cycle went.  One category per cycle, no overlaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CycleCategory {
    /// Instruction execution and memory-issue bandwidth — the cycles a core
    /// spends doing architectural work.
    Compute,
    /// Instruction-fetch stalls: L1I miss latency not hidden by the fetch
    /// stream.
    IFetch,
    /// Load/store-queue structural stalls: the MLP window is full, or an
    /// ordering recheck flushed the pipeline.
    LsqStall,
    /// Demand-miss latency visible past the hide window, minus the NoC
    /// queueing share (see [`CycleCategory::NocQueue`]).
    MissWait,
    /// An inline stall on `dma-synch` for in-flight DMA transfers.  Always 0
    /// in a machine run: the scheduler parks a waiting core instead and
    /// charges the wait to [`CycleCategory::Park`].  The category stays only
    /// because the benchmark harness in `perfbench/` reports it.
    DmaWait,
    /// Idling at a kernel barrier for slower cores (load imbalance).
    BarrierWait,
    /// The queueing/contention share of visible demand-miss latency: send
    /// latency beyond the zero-load latency, measured per-link under the
    /// DES NoC and modelled by the utilisation term under the analytic one.
    NocQueue,
    /// Coherence-protocol actions on guarded scratchpad accesses (filter
    /// misses, filterDir lookups, invalidation round-trips).
    Protocol,
    /// Parked on the interleaved scheduler's event queue waiting for a DMA
    /// completion — the event-driven counterpart of
    /// [`CycleCategory::DmaWait`].
    Park,
}

impl CycleCategory {
    /// Number of categories (the dense counter width).
    pub const COUNT: usize = 9;

    /// Every category, in display order.
    pub const ALL: [CycleCategory; CycleCategory::COUNT] = [
        CycleCategory::Compute,
        CycleCategory::IFetch,
        CycleCategory::LsqStall,
        CycleCategory::MissWait,
        CycleCategory::DmaWait,
        CycleCategory::BarrierWait,
        CycleCategory::NocQueue,
        CycleCategory::Protocol,
        CycleCategory::Park,
    ];

    /// Stable identifier used in JSON exports, CSV columns and counter
    /// tracks.
    pub fn id(self) -> &'static str {
        match self {
            CycleCategory::Compute => "compute",
            CycleCategory::IFetch => "ifetch",
            CycleCategory::LsqStall => "lsq_stall",
            CycleCategory::MissWait => "miss_wait",
            CycleCategory::DmaWait => "dma_wait",
            CycleCategory::BarrierWait => "barrier_wait",
            CycleCategory::NocQueue => "noc_queue",
            CycleCategory::Protocol => "protocol",
            CycleCategory::Park => "park",
        }
    }

    /// Parses a category identifier (the inverse of [`CycleCategory::id`]).
    pub fn from_id(id: &str) -> Option<CycleCategory> {
        CycleCategory::ALL.into_iter().find(|c| c.id() == id)
    }

    /// One-line glossary entry for reports and the README.
    pub fn describe(self) -> &'static str {
        match self {
            CycleCategory::Compute => "instruction execution and memory-issue bandwidth",
            CycleCategory::IFetch => "instruction-fetch miss latency",
            CycleCategory::LsqStall => "LSQ window full or ordering-recheck flush",
            CycleCategory::MissWait => "visible demand-miss latency (minus NoC queueing)",
            CycleCategory::DmaWait => "inline dma-synch wait (always 0; see park)",
            CycleCategory::BarrierWait => "kernel-barrier load imbalance",
            CycleCategory::NocQueue => "NoC queueing/contention share of miss latency",
            CycleCategory::Protocol => "coherence actions on guarded accesses",
            CycleCategory::Park => "parked on a dma completion",
        }
    }

    /// Dense index into a per-core counter array.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether the category is a stall (everything but `Compute`).
    pub fn is_stall(self) -> bool {
        self != CycleCategory::Compute
    }
}

impl std::fmt::Display for CycleCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// Dense per-category cycle counters for one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleAccount {
    counts: [u64; CycleCategory::COUNT],
}

impl CycleAccount {
    /// An empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `cycles` to `category` (saturating, like `StatRegistry`
    /// counts).
    #[inline]
    pub fn charge(&mut self, category: CycleCategory, cycles: u64) {
        let slot = &mut self.counts[category.index()];
        *slot = slot.saturating_add(cycles);
    }

    /// Cycles charged to `category`.
    pub fn get(&self, category: CycleCategory) -> u64 {
        self.counts[category.index()]
    }

    /// Sum over every category — must equal the core's elapsed cycles.
    pub fn total(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, &c| a.saturating_add(c))
    }

    /// Sum over the stall categories (everything but `Compute`).
    pub fn stall_total(&self) -> u64 {
        self.total() - self.get(CycleCategory::Compute)
    }

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &CycleAccount) {
        for category in CycleCategory::ALL {
            self.charge(category, other.get(category));
        }
    }

    /// The raw counters, indexed by [`CycleCategory::index`].
    pub fn counts(&self) -> &[u64; CycleCategory::COUNT] {
        &self.counts
    }
}

/// One core's account plus the elapsed cycles it must sum to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreBreakdown {
    /// The per-category counters.
    pub account: CycleAccount,
    /// The core's final clock — what the categories must sum to.
    pub elapsed: u64,
}

/// The cycle breakdown of a whole run: one [`CoreBreakdown`] per core.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CycleBreakdown {
    /// Per-core breakdowns, indexed by core id.
    pub cores: Vec<CoreBreakdown>,
}

impl CycleBreakdown {
    /// Machine-wide totals: every core's account merged.
    pub fn totals(&self) -> CycleAccount {
        let mut totals = CycleAccount::new();
        for core in &self.cores {
            totals.merge(&core.account);
        }
        totals
    }

    /// Sum of every core's elapsed cycles.
    pub fn elapsed_total(&self) -> u64 {
        self.cores
            .iter()
            .fold(0u64, |a, c| a.saturating_add(c.elapsed))
    }

    /// Verifies the exhaustiveness invariant: on every core the categories
    /// sum bit-exactly to the elapsed cycles.
    pub fn check_exhaustive(&self) -> Result<(), String> {
        for (id, core) in self.cores.iter().enumerate() {
            let total = core.account.total();
            if total != core.elapsed {
                return Err(format!(
                    "core {id}: categories sum to {total} but {} cycles elapsed \
                     ({} uncharged)",
                    core.elapsed,
                    core.elapsed as i128 - total as i128,
                ));
            }
        }
        Ok(())
    }

    /// Renders the breakdown as JSON (the `cycle_report` input format).
    pub fn to_json(&self) -> Json {
        let cores: Vec<Json> = self
            .cores
            .iter()
            .enumerate()
            .map(|(id, core)| {
                Json::obj([
                    ("core", Json::from(id as u64)),
                    ("elapsed", Json::from(core.elapsed)),
                    (
                        "counts",
                        Json::Arr(
                            core.account
                                .counts()
                                .iter()
                                .map(|&c| Json::from(c))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let totals = self.totals();
        Json::obj([
            (
                "categories",
                Json::Arr(
                    CycleCategory::ALL
                        .iter()
                        .map(|c| Json::str(c.id()))
                        .collect(),
                ),
            ),
            ("cores", Json::Arr(cores)),
            (
                "totals",
                Json::Arr(totals.counts().iter().map(|&c| Json::from(c)).collect()),
            ),
            ("elapsed_total", Json::from(self.elapsed_total())),
        ])
    }

    /// Parses a breakdown rendered by [`CycleBreakdown::to_json`].
    ///
    /// The document may carry extra metadata fields (benchmark, machine…);
    /// only the breakdown fields are read.  The category list is checked so
    /// a document written by a different category set fails loudly instead
    /// of silently mislabelling counters.
    pub fn from_json(doc: &Json) -> Result<CycleBreakdown, String> {
        let categories = doc
            .get("categories")
            .and_then(Json::as_array)
            .ok_or("no categories array — not a cycle-accounting document")?;
        let expected: Vec<&str> = CycleCategory::ALL.iter().map(|c| c.id()).collect();
        let got: Vec<&str> = categories.iter().filter_map(Json::as_str).collect();
        if got != expected {
            return Err(format!(
                "category mismatch: document has [{}], this build expects [{}]",
                got.join(", "),
                expected.join(", ")
            ));
        }
        let cores = doc
            .get("cores")
            .and_then(Json::as_array)
            .ok_or("no cores array")?;
        let mut out = CycleBreakdown::default();
        for (i, core) in cores.iter().enumerate() {
            let elapsed = core
                .get("elapsed")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("core {i}: no elapsed field"))?;
            let counts = core
                .get("counts")
                .and_then(Json::as_array)
                .ok_or_else(|| format!("core {i}: no counts array"))?;
            if counts.len() != CycleCategory::COUNT {
                return Err(format!(
                    "core {i}: {} counts, expected {}",
                    counts.len(),
                    CycleCategory::COUNT
                ));
            }
            let mut account = CycleAccount::new();
            for (category, value) in CycleCategory::ALL.into_iter().zip(counts) {
                let cycles = value
                    .as_u64()
                    .ok_or_else(|| format!("core {i}: non-integer count"))?;
                account.charge(category, cycles);
            }
            out.cores.push(CoreBreakdown { account, elapsed });
        }
        Ok(out)
    }

    /// Machine-wide top-down table: categories sorted by total cycles.
    pub fn machine_table(&self, title: &str) -> String {
        let totals = self.totals();
        let elapsed = self.elapsed_total().max(1);
        let mut rows: Vec<(CycleCategory, u64)> = CycleCategory::ALL
            .into_iter()
            .map(|c| (c, totals.get(c)))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
        let mut t = TableBuilder::new(title);
        t.columns(&["Category", "Cycles", "Share", "What it measures"]);
        for (category, cycles) in rows {
            t.row_owned(vec![
                category.id().to_owned(),
                cycles.to_string(),
                format!("{:.1}%", cycles as f64 * 100.0 / elapsed as f64),
                category.describe().to_owned(),
            ]);
        }
        t.build()
    }

    /// Per-core table: one row per core, one column per category.
    pub fn per_core_table(&self) -> String {
        let mut t = TableBuilder::new("Per-core cycle breakdown");
        let mut columns = vec!["Core", "Elapsed"];
        for category in CycleCategory::ALL {
            columns.push(category.id());
        }
        t.columns(&columns);
        for (id, core) in self.cores.iter().enumerate() {
            let mut row = vec![id.to_string(), core.elapsed.to_string()];
            for category in CycleCategory::ALL {
                row.push(core.account.get(category).to_string());
            }
            t.row_owned(row);
        }
        t.build()
    }

    /// The `n` largest per-core stall contributions (every category but
    /// `Compute`), largest first; ties break on (core, category) order so
    /// the ranking is deterministic.
    pub fn top_stalls(&self, n: usize) -> Vec<(usize, CycleCategory, u64)> {
        let mut stalls: Vec<(usize, CycleCategory, u64)> = self
            .cores
            .iter()
            .enumerate()
            .flat_map(|(id, core)| {
                CycleCategory::ALL
                    .into_iter()
                    .filter(|c| c.is_stall())
                    .map(move |c| (id, c, core.account.get(c)))
            })
            .filter(|&(_, _, cycles)| cycles > 0)
            .collect();
        stalls.sort_by(|a, b| {
            b.2.cmp(&a.2)
                .then(a.0.cmp(&b.0))
                .then(a.1.index().cmp(&b.1.index()))
        });
        stalls.truncate(n);
        stalls
    }

    /// Per-category machine-wide difference table between two runs
    /// (`other` minus `self`), categories with the largest absolute
    /// movement first.
    ///
    /// Runs with differing core counts are still comparable: the table
    /// switches to per-core means (total / cores), so diffing a 16-core run
    /// against a 256-core run attributes the gap per core instead of
    /// drowning it in the mesh-size factor.
    pub fn diff_table(&self, other: &CycleBreakdown) -> String {
        let before = self.totals();
        let after = other.totals();
        if self.cores.len() != other.cores.len() {
            let (n_before, n_after) = (self.cores.len().max(1), other.cores.len().max(1));
            let mut rows: Vec<(CycleCategory, f64, f64)> = CycleCategory::ALL
                .into_iter()
                .map(|c| {
                    (
                        c,
                        before.get(c) as f64 / n_before as f64,
                        after.get(c) as f64 / n_after as f64,
                    )
                })
                .collect();
            rows.sort_by(|a, b| {
                (b.2 - b.1)
                    .abs()
                    .total_cmp(&(a.2 - a.1).abs())
                    .then(a.0.index().cmp(&b.0.index()))
            });
            let title = format!(
                "Cycle breakdown diff (second run minus first; \
                 {} vs {} cores, per-core means)",
                self.cores.len(),
                other.cores.len()
            );
            let mut t = TableBuilder::new(&title);
            t.columns(&["Category", "First/core", "Second/core", "Delta/core"]);
            for (category, mean_before, mean_after) in rows {
                t.row_owned(vec![
                    category.id().to_owned(),
                    format!("{mean_before:.1}"),
                    format!("{mean_after:.1}"),
                    format!("{:+.1}", mean_after - mean_before),
                ]);
            }
            return t.build();
        }
        let mut rows: Vec<(CycleCategory, i128)> = CycleCategory::ALL
            .into_iter()
            .map(|c| (c, after.get(c) as i128 - before.get(c) as i128))
            .collect();
        rows.sort_by(|a, b| {
            b.1.abs()
                .cmp(&a.1.abs())
                .then(a.0.index().cmp(&b.0.index()))
        });
        let mut t = TableBuilder::new("Cycle breakdown diff (second run minus first)");
        t.columns(&["Category", "First", "Second", "Delta"]);
        for (category, delta) in rows {
            t.row_owned(vec![
                category.id().to_owned(),
                before.get(category).to_string(),
                after.get(category).to_string(),
                format!("{delta:+}"),
            ]);
        }
        t.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakdown() -> CycleBreakdown {
        let mut a = CycleAccount::new();
        a.charge(CycleCategory::Compute, 70);
        a.charge(CycleCategory::MissWait, 20);
        a.charge(CycleCategory::NocQueue, 10);
        let mut b = CycleAccount::new();
        b.charge(CycleCategory::Compute, 40);
        b.charge(CycleCategory::BarrierWait, 60);
        CycleBreakdown {
            cores: vec![
                CoreBreakdown {
                    account: a,
                    elapsed: 100,
                },
                CoreBreakdown {
                    account: b,
                    elapsed: 100,
                },
            ],
        }
    }

    #[test]
    fn ids_round_trip_and_cover_every_category() {
        for category in CycleCategory::ALL {
            assert_eq!(CycleCategory::from_id(category.id()), Some(category));
            assert!(!category.describe().is_empty());
        }
        assert_eq!(CycleCategory::from_id("quantum"), None);
        assert_eq!(CycleCategory::ALL.len(), CycleCategory::COUNT);
        assert_eq!(CycleCategory::Park.to_string(), "park");
        assert!(CycleCategory::Park.is_stall());
        assert!(!CycleCategory::Compute.is_stall());
    }

    #[test]
    fn charges_accumulate_and_saturate() {
        let mut account = CycleAccount::new();
        account.charge(CycleCategory::Compute, 5);
        account.charge(CycleCategory::Compute, 7);
        assert_eq!(account.get(CycleCategory::Compute), 12);
        account.charge(CycleCategory::Park, u64::MAX);
        account.charge(CycleCategory::Park, 1);
        assert_eq!(account.get(CycleCategory::Park), u64::MAX);
        assert_eq!(account.total(), u64::MAX);
    }

    #[test]
    fn exhaustiveness_check_catches_uncharged_cycles() {
        let mut b = breakdown();
        assert!(b.check_exhaustive().is_ok());
        b.cores[1].elapsed += 3;
        let err = b.check_exhaustive().unwrap_err();
        assert!(err.contains("core 1"), "{err}");
        assert!(err.contains("3 uncharged"), "{err}");
    }

    #[test]
    fn json_round_trips() {
        let b = breakdown();
        let doc = b.to_json();
        let parsed = CycleBreakdown::from_json(&doc).unwrap();
        assert_eq!(parsed, b);
        // And survives the textual round trip of the hand-rolled emitter.
        let reparsed = Json::parse(&doc.dump()).unwrap();
        assert_eq!(CycleBreakdown::from_json(&reparsed).unwrap(), b);
    }

    #[test]
    fn from_json_rejects_foreign_documents() {
        assert!(CycleBreakdown::from_json(&Json::from(1u64)).is_err());
        let mut doc = breakdown().to_json();
        // A document with a different category set must not be mislabelled.
        if let Json::Obj(fields) = &mut doc {
            fields.insert(
                "categories".to_owned(),
                Json::Arr(vec![Json::str("compute")]),
            );
        }
        let err = CycleBreakdown::from_json(&doc).unwrap_err();
        assert!(err.contains("category mismatch"), "{err}");
    }

    #[test]
    fn tables_rank_top_down() {
        let b = breakdown();
        let table = b.machine_table("Machine-wide cycle breakdown");
        let compute_at = table.find("compute").unwrap();
        let barrier_at = table.find("barrier_wait").unwrap();
        let park_at = table.find("park").unwrap();
        assert!(compute_at < barrier_at, "{table}");
        assert!(barrier_at < park_at, "zero rows sort last\n{table}");
        assert!(table.contains("55.0%"), "{table}");
        let per_core = b.per_core_table();
        assert!(per_core.contains("miss_wait"), "{per_core}");
    }

    #[test]
    fn top_stalls_rank_across_cores_and_skip_compute() {
        let b = breakdown();
        let top = b.top_stalls(2);
        assert_eq!(top[0], (1, CycleCategory::BarrierWait, 60));
        assert_eq!(top[1], (0, CycleCategory::MissWait, 20));
        assert!(b.top_stalls(10).iter().all(|(_, c, _)| c.is_stall()));
    }

    #[test]
    fn diff_table_shows_movement() {
        let before = breakdown();
        let mut after = breakdown();
        after.cores[1].account.charge(CycleCategory::Park, 50);
        after.cores[1].elapsed += 50;
        let table = before.diff_table(&after);
        assert!(table.contains("+50"), "{table}");
        assert!(table.contains("park"), "{table}");
    }

    #[test]
    fn diff_table_normalises_differing_core_counts() {
        let small = breakdown();
        let mut big = CycleBreakdown::default();
        // Four cores charging 200 compute each against `small`'s per-core
        // mean of 55 ((70 + 40) / 2): the table reports +145.0 per core.
        for _ in 0..4 {
            let mut account = CycleAccount::new();
            account.charge(CycleCategory::Compute, 200);
            big.cores.push(CoreBreakdown {
                account,
                elapsed: 200,
            });
        }
        let table = small.diff_table(&big);
        assert!(table.contains("2 vs 4 cores, per-core means"), "{table}");
        assert!(table.contains("+145.0"), "{table}");
        // The same-count path is untouched: raw totals, integer deltas.
        let same = small.diff_table(&breakdown());
        assert!(!same.contains("per-core means"), "{same}");
    }
}
