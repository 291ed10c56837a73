//! Per-reference stride prefetcher for the L1 data cache.
//!
//! Table 1 of the paper gives the cache-based baseline a stride prefetcher in
//! the L1 data cache.  The paper's evaluation observes that the prefetcher
//! cannot always keep up with the many concurrent strided streams of the
//! NAS benchmarks and that the prefetched data causes conflict misses — both
//! effects emerge naturally from this model because the prefetched lines are
//! really inserted in the (finite, 4-way) L1 tag array of [`crate::hierarchy`].

use serde::{Deserialize, Serialize};

use crate::addr::{Addr, LineAddr};

/// Configuration of the stride prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetcherConfig {
    /// Whether the prefetcher is active.
    pub enabled: bool,
    /// Number of distinct streams (reference PCs) tracked.
    pub table_entries: usize,
    /// How many consecutive accesses with the same stride are needed before
    /// prefetches are issued.
    pub confidence_threshold: u32,
    /// How many lines ahead of the current access are prefetched.
    pub degree: u32,
}

impl PrefetcherConfig {
    /// The baseline configuration used in the evaluation.
    pub fn isca2015() -> Self {
        PrefetcherConfig {
            enabled: true,
            table_entries: 64,
            confidence_threshold: 2,
            degree: 2,
        }
    }

    /// A disabled prefetcher (used for the SPM side of the hybrid system).
    pub fn disabled() -> Self {
        PrefetcherConfig {
            enabled: false,
            table_entries: 0,
            confidence_threshold: 0,
            degree: 0,
        }
    }
}

impl Default for PrefetcherConfig {
    fn default() -> Self {
        Self::isca2015()
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct StreamEntry {
    last_addr: Addr,
    stride: i64,
    confidence: u32,
    lru: u64,
}

/// A reference-indexed stride prefetcher.
///
/// The prefetcher is trained with `(reference id, address)` pairs — the
/// reference id plays the role of the program counter of the memory
/// instruction.  Once a stream reaches the confidence threshold, each
/// training access returns the next `degree` line addresses to prefetch.
///
/// # Example
///
/// ```
/// use mem::{Addr, PrefetcherConfig, StridePrefetcher};
///
/// let mut pf = StridePrefetcher::new(PrefetcherConfig::isca2015());
/// // A unit-stride stream of 8-byte elements.
/// let mut prefetches = Vec::new();
/// for i in 0..32u64 {
///     prefetches.extend(pf.train(1, Addr::new(0x1000 + i * 8)));
/// }
/// assert!(!prefetches.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    config: PrefetcherConfig,
    /// `(reference id, stream)` pairs, linearly scanned: the table is small
    /// (64 entries) and hit on every demand access, where a scan over a
    /// dense array beats hashing the key.  Eviction picks the minimum `lru`
    /// tick, which is unique, so the scan order never affects behaviour.
    table: Vec<(u64, StreamEntry)>,
    tick: u64,
    issued: u64,
}

impl StridePrefetcher {
    /// Creates a prefetcher with the given configuration.
    pub fn new(config: PrefetcherConfig) -> Self {
        StridePrefetcher {
            table: Vec::with_capacity(config.table_entries),
            config,
            tick: 0,
            issued: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PrefetcherConfig {
        &self.config
    }

    /// Number of prefetch requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Trains the prefetcher with one demand access and returns the lines to
    /// prefetch (possibly empty).
    pub fn train(&mut self, reference_id: u64, addr: Addr) -> Vec<LineAddr> {
        if !self.config.enabled {
            return Vec::new();
        }
        self.tick += 1;
        let tick = self.tick;

        let hit = self
            .table
            .iter_mut()
            .find(|(id, _)| *id == reference_id)
            .map(|(_, e)| e);
        let (stride_confirmed, stride) = match hit {
            Some(entry) => {
                let new_stride = addr.raw() as i64 - entry.last_addr.raw() as i64;
                if new_stride == entry.stride && new_stride != 0 {
                    entry.confidence = entry.confidence.saturating_add(1);
                } else {
                    entry.stride = new_stride;
                    entry.confidence = 1;
                }
                entry.last_addr = addr;
                entry.lru = tick;
                (
                    entry.confidence >= self.config.confidence_threshold,
                    entry.stride,
                )
            }
            None => {
                if self.table.len() >= self.config.table_entries {
                    // Evict the least recently used stream.
                    if let Some(victim) = self
                        .table
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, (_, e))| e.lru)
                        .map(|(i, _)| i)
                    {
                        self.table.swap_remove(victim);
                    }
                }
                self.table.push((
                    reference_id,
                    StreamEntry {
                        last_addr: addr,
                        stride: 0,
                        confidence: 0,
                        lru: tick,
                    },
                ));
                (false, 0)
            }
        };

        if !stride_confirmed || stride == 0 {
            return Vec::new();
        }

        // Prefetch `degree` lines ahead along the stream, skipping duplicates
        // that fall in the same line as the demand access.
        let mut out = Vec::with_capacity(self.config.degree as usize);
        let current_line = addr.line();
        let mut last_line = current_line;
        for d in 1..=self.config.degree as i64 {
            let target = addr.raw() as i64 + stride * d;
            if target <= 0 {
                break;
            }
            let line = Addr::new(target as u64).line();
            if line != current_line && line != last_line {
                out.push(line);
                last_line = line;
            }
        }
        self.issued += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_prefetcher_is_silent() {
        let mut pf = StridePrefetcher::new(PrefetcherConfig::disabled());
        for i in 0..100u64 {
            assert!(pf.train(0, Addr::new(i * 64)).is_empty());
        }
        assert_eq!(pf.issued(), 0);
    }

    #[test]
    fn unit_stride_stream_triggers_prefetches() {
        let mut pf = StridePrefetcher::new(PrefetcherConfig::isca2015());
        let mut total = 0;
        for i in 0..64u64 {
            total += pf.train(42, Addr::new(0x10_0000 + i * 64)).len();
        }
        assert!(total > 0);
        assert_eq!(pf.issued() as usize, total);
    }

    #[test]
    fn prefetches_follow_the_stride_direction() {
        let mut pf = StridePrefetcher::new(PrefetcherConfig::isca2015());
        let mut last = Vec::new();
        for i in 0..8u64 {
            last = pf.train(1, Addr::new(0x4000 + i * 128));
        }
        // Stride 128 bytes = 2 lines; prefetches must be ahead of the access.
        let current = Addr::new(0x4000 + 7 * 128).line();
        for line in &last {
            assert!(line.number() > current.number());
        }
    }

    #[test]
    fn random_accesses_do_not_trigger_prefetches() {
        let mut pf = StridePrefetcher::new(PrefetcherConfig::isca2015());
        let addrs = [
            0x1000u64, 0x8000, 0x2040, 0x9010, 0x3300, 0x100, 0x7777, 0x1234,
        ];
        let mut total = 0;
        for (i, a) in addrs.iter().cycle().take(64).enumerate() {
            total += pf.train(9, Addr::new(a + i as u64)).len();
        }
        assert_eq!(total, 0, "irregular stream must not reach confidence");
    }

    #[test]
    fn small_strides_within_a_line_do_not_spam_prefetches() {
        let mut pf = StridePrefetcher::new(PrefetcherConfig::isca2015());
        let mut total = 0;
        for i in 0..16u64 {
            total += pf.train(5, Addr::new(0x2000 + i * 4)).len();
        }
        // A 4-byte stride only crosses a line every 16 accesses, so very few
        // prefetches should be issued.
        assert!(
            total <= 4,
            "got {total} prefetches for an intra-line stride"
        );
    }

    #[test]
    fn table_eviction_keeps_working_set_bounded() {
        let mut pf = StridePrefetcher::new(PrefetcherConfig {
            table_entries: 4,
            ..PrefetcherConfig::isca2015()
        });
        for ref_id in 0..100u64 {
            let _ = pf.train(ref_id, Addr::new(ref_id * 0x1000));
        }
        // Table must never exceed its capacity (checked indirectly: training a
        // brand-new stream still works and does not panic).
        let v = pf.train(1000, Addr::new(0x50_0000));
        assert!(v.is_empty());
    }
}
