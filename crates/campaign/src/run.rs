//! The campaign orchestrator: cache lookup → parallel execution → store.
//!
//! [`run_campaign`] is generic over the point type and the result type, so
//! the same machinery drives every `system` run: the report binaries'
//! figures and ablations and the `campaign` binary all submit typed run
//! points, which `system::sweep` lowers and keys.

use crate::cache::ResultCache;
use crate::executor::Executor;
use crate::hash::CacheKey;

/// Version of the cached results: their blob format and the simulation
/// semantics that computed them.
///
/// Callers fold this into their cache keys (see
/// `system::sweep::run_cache_key`), so bumping it orphans — rather than
/// misinterprets — every blob written by older code.  Version 7 is the first
/// whose every entry comes from the min-clock scheduler.
pub const CACHE_FORMAT: u32 = 7;

/// Encoder/decoder pair turning results into cacheable byte strings.
///
/// Plain function pointers, so a codec is `Copy`, `Sync` and nameable as a
/// constant.  `decode` returning `None` marks the blob unintelligible; the
/// orchestrator treats that as a cache miss and re-executes the point.
#[derive(Debug, Clone, Copy)]
pub struct Codec<R> {
    /// Serializes a result for storage.
    pub encode: fn(&R) -> String,
    /// Parses a stored blob back, or `None` if it is not understood.
    pub decode: fn(&str) -> Option<R>,
}

/// The outcome of a campaign: every result plus cache accounting.
///
/// A point whose cache key repeats an earlier point's is a duplicate: it
/// gets a copy of that point's result and counts as neither executed nor a
/// cache hit, so `executed + cache_hits` is the number of distinct keys.
#[derive(Debug, Clone)]
pub struct CampaignReport<R> {
    /// One result per input point, in input order.
    pub results: Vec<R>,
    /// Distinct points that were actually simulated this invocation.
    pub executed: usize,
    /// Distinct points served from the result cache.
    pub cache_hits: usize,
}

impl<R> CampaignReport<R> {
    /// Total number of points, duplicates included.
    pub fn total(&self) -> usize {
        self.results.len()
    }

    /// One-line accounting summary, e.g.
    /// `campaign: 6 points, executed 2, cache hits 4`.
    pub fn accounting(&self) -> String {
        format!(
            "campaign: {} points, executed {}, cache hits {}",
            self.total(),
            self.executed,
            self.cache_hits
        )
    }
}

/// Runs `points` through the executor, serving repeats from `cache`.
///
/// * `key_of` derives each point's content-addressed cache key;
/// * `codec` translates results to/from the cached JSON blobs;
/// * `runner` executes one point (it must be a pure, deterministic function
///   of the point for serial and parallel campaigns to be bit-identical).
///
/// With `cache: None` every distinct point executes; a point whose key
/// repeats an earlier one's runs once and its result is copied.  Results
/// always come back in input order.  Cache write failures are reported to stderr but do not
/// fail the campaign (the result is still returned).
pub fn run_campaign<P, R, K, F>(
    executor: &Executor,
    cache: Option<&ResultCache>,
    points: &[P],
    key_of: K,
    codec: &Codec<R>,
    runner: F,
) -> CampaignReport<R>
where
    P: Sync,
    R: Send + Clone,
    K: Fn(&P) -> CacheKey,
    F: Fn(&P) -> R + Sync,
{
    let keys: Vec<CacheKey> = points.iter().map(&key_of).collect();
    // The first point of each key; later points with that key copy it.
    let mut first_of = std::collections::HashMap::with_capacity(keys.len());
    let first: Vec<usize> = keys
        .iter()
        .enumerate()
        .map(|(i, &key)| *first_of.entry(key).or_insert(i))
        .collect();
    let distinct: Vec<usize> = (0..points.len()).filter(|&i| first[i] == i).collect();

    let mut slots: Vec<Option<R>> = Vec::with_capacity(points.len());
    slots.resize_with(points.len(), || None);
    if let Some(cache) = cache {
        for &i in &distinct {
            slots[i] = cache.load(keys[i]).and_then(|blob| (codec.decode)(&blob));
        }
    }

    let misses: Vec<usize> = distinct
        .iter()
        .copied()
        .filter(|&i| slots[i].is_none())
        .collect();
    let executed = executor.run(&misses, |_, &i| runner(&points[i]));

    for (&i, result) in misses.iter().zip(executed) {
        if let Some(cache) = cache {
            if let Err(e) = cache.store(keys[i], &(codec.encode)(&result)) {
                eprintln!(
                    "warning: could not cache point {i} under {}: {e}",
                    cache.path_of(keys[i]).display()
                );
            }
        }
        slots[i] = Some(result);
    }
    for i in 0..points.len() {
        if first[i] != i {
            slots[i] = slots[first[i]].clone();
        }
    }

    let results: Vec<R> = slots
        .into_iter()
        .map(|s| s.expect("every point is either cached, executed or a copy"))
        .collect();
    CampaignReport {
        executed: misses.len(),
        cache_hits: distinct.len() - misses.len(),
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn u64_codec() -> Codec<u64> {
        Codec {
            encode: |v| v.to_string(),
            decode: |s| s.parse().ok(),
        }
    }

    fn scratch_cache(name: &str) -> ResultCache {
        let dir =
            std::env::temp_dir().join(format!("campaign-run-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::new(dir)
    }

    fn key_of(p: &u64) -> CacheKey {
        CacheKey::from_fields([("p", p.to_string())])
    }

    #[test]
    fn uncached_campaign_executes_everything() {
        let points = [1u64, 2, 3];
        let report = run_campaign(
            &Executor::serial(),
            None,
            &points,
            key_of,
            &u64_codec(),
            |&p| p * 10,
        );
        assert_eq!(report.results, vec![10, 20, 30]);
        assert_eq!(report.executed, 3);
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.total(), 3);
        assert!(report.accounting().contains("executed 3"));
    }

    #[test]
    fn second_run_is_served_entirely_from_cache() {
        let cache = scratch_cache("second-run");
        let points = [4u64, 5];
        let ran = AtomicUsize::new(0);
        let runner = |&p: &u64| {
            ran.fetch_add(1, Ordering::Relaxed);
            p + 100
        };
        let first = run_campaign(
            &Executor::new(2),
            Some(&cache),
            &points,
            key_of,
            &u64_codec(),
            runner,
        );
        assert_eq!(first.executed, 2);
        assert_eq!(ran.load(Ordering::Relaxed), 2);

        let second = run_campaign(
            &Executor::new(2),
            Some(&cache),
            &points,
            key_of,
            &u64_codec(),
            runner,
        );
        assert_eq!(second.results, first.results);
        assert_eq!(second.executed, 0, "{}", second.accounting());
        assert_eq!(second.cache_hits, 2);
        assert_eq!(ran.load(Ordering::Relaxed), 2, "cache hit re-executed");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn new_points_execute_while_old_ones_hit() {
        let cache = scratch_cache("partial");
        let codec = u64_codec();
        let exec = Executor::serial();
        run_campaign(&exec, Some(&cache), &[7u64], key_of, &codec, |&p| p);
        let report = run_campaign(&exec, Some(&cache), &[7u64, 8], key_of, &codec, |&p| p);
        assert_eq!(report.results, vec![7, 8]);
        assert_eq!(report.executed, 1);
        assert_eq!(report.cache_hits, 1);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_point_named_twice_runs_once() {
        let cache = scratch_cache("duplicates");
        let ran = AtomicUsize::new(0);
        let runner = |&p: &u64| {
            ran.fetch_add(1, Ordering::Relaxed);
            p * 3
        };
        let points = [2u64, 2, 5, 2];
        let first = run_campaign(
            &Executor::new(2),
            Some(&cache),
            &points,
            key_of,
            &u64_codec(),
            runner,
        );
        assert_eq!(first.results, vec![6, 6, 15, 6]);
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        assert_eq!((first.executed, first.cache_hits), (2, 0));
        assert_eq!(first.total(), 4);
        // Served from the cache, a duplicate still counts once.
        let second = run_campaign(
            &Executor::serial(),
            Some(&cache),
            &points,
            key_of,
            &u64_codec(),
            runner,
        );
        assert_eq!(second.results, first.results);
        assert_eq!((second.executed, second.cache_hits), (0, 2));
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        // Without a cache the duplicate is still not re-executed.
        let uncached = run_campaign(
            &Executor::serial(),
            None,
            &points,
            key_of,
            &u64_codec(),
            runner,
        );
        assert_eq!(uncached.results, first.results);
        assert_eq!(uncached.executed, 2);
        assert_eq!(ran.load(Ordering::Relaxed), 4);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn undecodable_blobs_are_treated_as_misses() {
        let cache = scratch_cache("undecodable");
        let key = key_of(&9);
        cache.store(key, "not a number").unwrap();
        let report = run_campaign(
            &Executor::serial(),
            Some(&cache),
            &[9u64],
            key_of,
            &u64_codec(),
            |&p| p * 2,
        );
        assert_eq!(report.results, vec![18]);
        assert_eq!(report.executed, 1);
        // The re-executed result healed the cache.
        assert_eq!(cache.load(key).as_deref(), Some("18"));
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
