//! Statistics collection.
//!
//! Every hardware model in the simulator (caches, directories, filters, NoC
//! links, DMA engines) counts its behaviour in plain fields and exports them
//! once, under hierarchical dot-separated names, into a [`StatRegistry`].
//! The experiment drivers aggregate the registries into the tables and
//! figures of the paper.  [`RunningStat`] keeps the min / max / mean of a
//! stream of samples for models that summarise a distribution.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Running min / max / mean over a stream of `f64` samples.
///
/// # Example
///
/// ```
/// use simkernel::RunningStat;
///
/// let mut lat = RunningStat::new();
/// lat.record(2.0);
/// lat.record(4.0);
/// assert_eq!(lat.mean(), 3.0);
/// assert_eq!(lat.min(), Some(2.0));
/// assert_eq!(lat.max(), Some(4.0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningStat {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl RunningStat {
    /// Creates an empty running statistic.
    pub fn new() -> Self {
        RunningStat {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: f64) {
        self.count += 1;
        self.sum += sample;
        if sample < self.min {
            self.min = sample;
        }
        if sample > self.max {
            self.max = sample;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of the recorded samples (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another running statistic into this one.
    pub fn merge(&mut self, other: &RunningStat) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A value stored in a [`StatRegistry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StatValue {
    /// An event count.
    Count(u64),
    /// A floating point value (a ratio, an energy, a mean).
    Value(f64),
}

impl StatValue {
    /// Returns the value as `f64` regardless of kind.
    pub fn as_f64(&self) -> f64 {
        match self {
            StatValue::Count(c) => *c as f64,
            StatValue::Value(v) => *v,
        }
    }
}

impl fmt::Display for StatValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatValue::Count(c) => write!(f, "{c}"),
            StatValue::Value(v) => write!(f, "{v:.4}"),
        }
    }
}

/// A flat, ordered registry of named statistics.
///
/// Names are dot-separated paths such as `core3.l1d.misses` or
/// `cohprot.filter.hits`.  The registry is the common currency between the
/// hardware models and the experiment drivers.
///
/// # Example
///
/// ```
/// use simkernel::StatRegistry;
///
/// let mut stats = StatRegistry::new();
/// stats.add_count("l1d.hits", 90);
/// stats.add_count("l1d.misses", 10);
/// stats.set_value("l1d.miss_ratio", 0.1);
/// assert_eq!(stats.count("l1d.hits"), 90);
/// assert_eq!(stats.sum_matching("l1d."), 100.1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatRegistry {
    entries: BTreeMap<String, StatValue>,
}

impl StatRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        StatRegistry {
            entries: BTreeMap::new(),
        }
    }

    /// Adds `n` to the counter named `name`, creating it if necessary.
    /// Counters saturate at `u64::MAX` instead of wrapping.
    pub fn add_count(&mut self, name: &str, n: u64) {
        match self.entries.get_mut(name) {
            Some(StatValue::Count(c)) => *c = c.saturating_add(n),
            Some(StatValue::Value(v)) => *v += n as f64,
            None => {
                self.entries.insert(name.to_owned(), StatValue::Count(n));
            }
        }
    }

    /// Raises the counter named `name` to `n` if `n` is larger, creating it
    /// if necessary.
    ///
    /// This is the export primitive for high-water-mark counters (queue
    /// occupancies, outstanding-transfer peaks): when several components
    /// export the same mark — one DMA controller per core, say — the
    /// registry keeps the overall maximum instead of a meaningless sum.
    pub fn record_max(&mut self, name: &str, n: u64) {
        match self.entries.get_mut(name) {
            Some(StatValue::Count(c)) => *c = (*c).max(n),
            Some(StatValue::Value(v)) => *v = v.max(n as f64),
            None => {
                self.entries.insert(name.to_owned(), StatValue::Count(n));
            }
        }
    }

    /// Sets the floating point statistic named `name`, replacing any previous value.
    pub fn set_value(&mut self, name: &str, value: f64) {
        self.entries
            .insert(name.to_owned(), StatValue::Value(value));
    }

    /// Adds `value` to the floating point statistic named `name`.
    pub fn add_value(&mut self, name: &str, value: f64) {
        match self.entries.get_mut(name) {
            Some(StatValue::Value(v)) => *v += value,
            Some(StatValue::Count(c)) => {
                let new = *c as f64 + value;
                self.entries.insert(name.to_owned(), StatValue::Value(new));
            }
            None => {
                self.entries
                    .insert(name.to_owned(), StatValue::Value(value));
            }
        }
    }

    /// Returns the counter named `name`, or zero if absent.
    pub fn count(&self, name: &str) -> u64 {
        match self.entries.get(name) {
            Some(StatValue::Count(c)) => *c,
            Some(StatValue::Value(v)) => *v as u64,
            None => 0,
        }
    }

    /// Returns the value named `name` as `f64`, or zero if absent.
    pub fn value(&self, name: &str) -> f64 {
        self.entries.get(name).map_or(0.0, StatValue::as_f64)
    }

    /// Returns `true` if a statistic with this exact name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Sums every statistic whose name starts with `prefix`.
    pub fn sum_matching(&self, prefix: &str) -> f64 {
        self.entries
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v.as_f64())
            .sum()
    }

    /// Merges another registry into this one (counts add, values add).
    pub fn merge(&mut self, other: &StatRegistry) {
        for (name, value) in &other.entries {
            match value {
                StatValue::Count(c) => self.add_count(name, *c),
                StatValue::Value(v) => self.add_value(name, *v),
            }
        }
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &StatValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of statistics in the registry.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the registry holds no statistics.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for StatRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.entries {
            writeln!(f, "{name:<48} {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stat_tracks_min_max_mean() {
        let mut s = RunningStat::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        for v in [5.0, 1.0, 9.0, 5.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 20.0);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn running_stat_merge() {
        let mut a = RunningStat::new();
        a.record(1.0);
        a.record(3.0);
        let mut b = RunningStat::new();
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean(), 3.0);
        assert_eq!(a.max(), Some(5.0));
        let empty = RunningStat::new();
        a.merge(&empty);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn record_max_keeps_the_high_water_mark() {
        let mut r = StatRegistry::new();
        r.record_max("dmac.peak", 3);
        r.record_max("dmac.peak", 7);
        r.record_max("dmac.peak", 5);
        assert_eq!(r.count("dmac.peak"), 7);
        // Against a float entry the maximum is kept as a float.
        r.set_value("occ.ratio", 0.5);
        r.record_max("occ.ratio", 2);
        assert_eq!(r.value("occ.ratio"), 2.0);
        r.record_max("occ.ratio", 1);
        assert_eq!(r.value("occ.ratio"), 2.0);
    }

    #[test]
    fn registry_counts_saturate_at_u64_max() {
        let mut reg = StatRegistry::new();
        reg.add_count("events", u64::MAX);
        reg.add_count("events", 42);
        assert_eq!(reg.count("events"), u64::MAX, "count must pin, not wrap");
        reg.record_max("events", 7);
        assert_eq!(reg.count("events"), u64::MAX);
    }

    #[test]
    fn registry_counts_and_values() {
        let mut r = StatRegistry::new();
        r.add_count("a.hits", 3);
        r.add_count("a.hits", 2);
        r.set_value("a.ratio", 0.5);
        r.add_value("a.ratio", 0.25);
        assert_eq!(r.count("a.hits"), 5);
        assert_eq!(r.value("a.ratio"), 0.75);
        assert_eq!(r.count("missing"), 0);
        assert_eq!(r.value("missing"), 0.0);
        assert!(r.contains("a.hits"));
        assert!(!r.contains("missing"));
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn registry_prefix_sum_and_merge() {
        let mut r = StatRegistry::new();
        r.add_count("l1.hits", 10);
        r.add_count("l1.misses", 5);
        r.add_count("l2.hits", 100);
        assert_eq!(r.sum_matching("l1."), 15.0);

        let mut other = StatRegistry::new();
        other.add_count("l1.hits", 1);
        other.set_value("noc.energy", 2.5);
        r.merge(&other);
        assert_eq!(r.count("l1.hits"), 11);
        assert_eq!(r.value("noc.energy"), 2.5);
    }

    #[test]
    fn registry_mixed_type_coercion() {
        let mut r = StatRegistry::new();
        r.add_count("x", 2);
        r.add_value("x", 0.5);
        assert!((r.value("x") - 2.5).abs() < 1e-12);
        r.add_count("x", 1);
        assert!((r.value("x") - 3.5).abs() < 1e-12);
    }

    #[test]
    fn registry_display_lists_everything() {
        let mut r = StatRegistry::new();
        r.add_count("b", 1);
        r.set_value("a", 0.5);
        let s = r.to_string();
        assert!(s.contains('a') && s.contains('b'));
    }
}
