//! The campaign orchestrator: cache lookup → parallel execution → store.
//!
//! [`run_campaign`] is generic over the point type and the result type, so
//! the same machinery drives the `system` crate's declarative sweeps, its
//! experiment suite and its ablation sweeps (which all submit lowered run
//! tuples).

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
#[derive(Debug, Clone)]
pub struct CampaignReport<R> {
    /// One result per input point, in input order.
    pub results: Vec<R>,
    /// Points that were actually simulated this invocation.
    pub executed: usize,
    /// Points served from the result cache.
    pub cache_hits: usize,
}

impl<R> CampaignReport<R> {
    /// Total number of points (executed + cached).
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
/// With `cache: None` every point executes.  Results always come back in
/// input order.  Cache write failures are reported to stderr but do not
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
    R: Send,
    K: Fn(&P) -> CacheKey,
    F: Fn(&P) -> R + Sync,
{
    let keys: Vec<CacheKey> = points.iter().map(&key_of).collect();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(points.len());
    if let Some(cache) = cache {
        for &key in &keys {
            slots.push(cache.load(key).and_then(|blob| (codec.decode)(&blob)));
        }
    } else {
        slots.resize_with(points.len(), || None);
    }

    let misses: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.is_none().then_some(i))
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

    let results: Vec<R> = slots
        .into_iter()
        .map(|s| s.expect("every point is either cached or executed"))
        .collect();
    CampaignReport {
        executed: misses.len(),
        cache_hits: results.len() - misses.len(),
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
