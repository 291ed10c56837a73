//! The content-addressed on-disk result cache.
//!
//! Each cached run is one JSON file named after its [`CacheKey`]
//! (`<dir>/<16-hex-digits>.json`), by default under `target/campaign-cache/`.
//! The cache is deliberately dumb: it stores and returns byte strings; the
//! caller owns the codec (and therefore the decision that a stored blob is
//! still intelligible — a decode failure is simply treated as a miss and the
//! point is re-executed, which makes codec evolution self-healing).
//!
//! Invalidation rules (also documented in the README):
//!
//! * the key hashes the *complete lowered run inputs* — configuration,
//!   benchmark spec, machine kind and a format-version field — so changing
//!   any parameter, or bumping [`crate::run::CACHE_FORMAT`], addresses a
//!   different file;
//! * changing the simulator's *code* is invisible to the key; delete the
//!   cache directory (or pass a fresh `--cache-dir`) after such changes.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::hash::CacheKey;

/// A directory of content-addressed result files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache { dir: dir.into() }
    }

    /// The default cache location, `target/campaign-cache`.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("target/campaign-cache")
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a key is stored at.
    pub fn path_of(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.hex()))
    }

    /// Loads the blob stored under `key`, or `None` on a miss.
    ///
    /// Unreadable files count as misses: the cache never fails a campaign,
    /// it only declines to help.
    pub fn load(&self, key: CacheKey) -> Option<String> {
        fs::read_to_string(self.path_of(key)).ok()
    }

    /// Returns `true` when `key` has a stored blob.
    pub fn contains(&self, key: CacheKey) -> bool {
        self.path_of(key).is_file()
    }

    /// Stores `contents` under `key`, creating the directory if needed.
    ///
    /// The blob is written to a temporary sibling and renamed into place, so
    /// concurrent campaigns sharing a cache never observe a torn file.
    pub fn store(&self, key: CacheKey, contents: &str) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let path = self.path_of(key);
        let tmp = self
            .dir
            .join(format!("{}.tmp.{}", key.hex(), std::process::id()));
        fs::write(&tmp, contents)?;
        fs::rename(&tmp, &path)
    }

    /// Number of cached entries (unreadable directories count as empty).
    pub fn len(&self) -> usize {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|ext| ext == "json"))
            .count()
    }

    /// Returns `true` when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deletes every cached entry (the directory itself stays).
    pub fn clear(&self) -> io::Result<()> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let path = entry?.path();
            if path.extension().is_some_and(|ext| ext == "json") {
                fs::remove_file(path)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_cache(name: &str) -> ResultCache {
        let dir =
            std::env::temp_dir().join(format!("campaign-cache-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultCache::new(dir)
    }

    #[test]
    fn store_load_round_trip() {
        let cache = scratch_cache("roundtrip");
        let key = CacheKey::from_fields([("point", "a".into())]);
        assert_eq!(cache.load(key), None);
        assert!(!cache.contains(key));
        assert!(cache.is_empty());

        cache.store(key, "{\"x\": 1}").unwrap();
        assert_eq!(cache.load(key).as_deref(), Some("{\"x\": 1}"));
        assert!(cache.contains(key));
        assert_eq!(cache.len(), 1);
        assert!(cache.path_of(key).ends_with(format!("{}.json", key.hex())));

        // Overwrite wins.
        cache.store(key, "{\"x\": 2}").unwrap();
        assert_eq!(cache.load(key).as_deref(), Some("{\"x\": 2}"));
        assert_eq!(cache.len(), 1);

        cache.clear().unwrap();
        assert!(cache.is_empty());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn distinct_keys_get_distinct_files() {
        let cache = scratch_cache("distinct");
        let a = CacheKey::from_fields([("point", "a".into())]);
        let b = CacheKey::from_fields([("point", "b".into())]);
        cache.store(a, "A").unwrap();
        cache.store(b, "B").unwrap();
        assert_eq!(cache.load(a).as_deref(), Some("A"));
        assert_eq!(cache.load(b).as_deref(), Some("B"));
        assert_eq!(cache.len(), 2);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn clear_on_missing_directory_is_ok() {
        let cache = scratch_cache("missing");
        cache.clear().unwrap();
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn default_dir_is_under_target() {
        assert!(ResultCache::default_dir().starts_with("target"));
    }
}
