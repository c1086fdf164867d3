//! Content-addressed result cache.
//!
//! A [`ResultCache`] is a directory: every evaluated point result is one
//! JSON file, named by its [`content_key`](crate::hash::content_key).
//! Processes sharing the directory evaluate a point once (e.g. a
//! `sweep --cache-dir` rerun, or a wider depth grid that contains an
//! earlier grid's points).
//!
//! Entries are checksummed envelopes
//! (`{"crc": "<16 hex>", "value": ...}`) written to a temporary file
//! and atomically renamed into place, so a crash or a concurrent
//! writer can never leave a half-written entry under a live key. An
//! entry whose envelope fails to parse or whose checksum disagrees
//! with its payload is *quarantined* — renamed to `<key>.json.corrupt`
//! for post-mortem — and the point is recomputed as a plain miss.
//!
//! Concurrency model: nothing is locked across evaluation, so two
//! processes racing the *same* key may both evaluate it; both writes
//! store the identical (deterministic) value, so the race is benign.
//! Within one process the temporary file is named by the PID, so two
//! workers must never write one key at once: a sweep dedupes its
//! points by content key, so each key has one writer.

use crate::hash::stable_hash64;
use serde_json::Value;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Hit/miss counters of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Sweep lookups answered from the directory.
    pub hits: u64,
    /// Sweep lookups that found nothing, so the point was evaluated.
    pub misses: u64,
    /// Corrupt entries moved aside and recomputed.
    pub quarantined: u64,
    /// Quarantine renames that failed; the corrupt entry was deleted
    /// outright instead, so it can never be re-read as valid.
    pub quarantine_failed: u64,
}

/// Content-addressed on-disk result store: one file per key.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
    quarantine_failed: AtomicU64,
}

impl ResultCache {
    /// A cache that persists each result to `dir/<key>.json`.
    ///
    /// # Errors
    ///
    /// Returns the error from creating `dir` if it does not exist and
    /// cannot be created.
    pub fn with_dir(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            quarantine_failed: AtomicU64::new(0),
        })
    }

    /// A sweep's lookup: [`ResultCache::get`], counted as a hit or a
    /// miss in [`ResultCache::stats`]. On a miss the sweep evaluates
    /// the point and stores it with [`ResultCache::insert`].
    pub(crate) fn lookup(&self, key: &str) -> Option<Value> {
        let found = self.get(key);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores `value` under `key`.
    ///
    /// Persistence is best-effort: a read-only or full disk drops the
    /// entry rather than failing the sweep, and the next lookup of
    /// `key` is a miss that recomputes it. The temp-file + rename
    /// makes each publish atomic; the PID in the temp name keeps
    /// concurrent processes from clobbering each other's in-flight
    /// writes.
    pub fn insert(&self, key: &str, value: &Value) {
        let Some(path) = self.path_for(key) else {
            return;
        };
        let mut payload = String::new();
        value.write_json(&mut payload);
        let text = format!(
            "{{\"crc\": \"{}\", \"value\": {payload}}}\n",
            Self::payload_crc(&payload)
        );
        let text = match crate::failpoint::fire("cache::write") {
            // Injected ENOSPC: the write never happens — exactly
            // the best-effort degradation a full disk produces.
            Some(action) => match crate::failpoint::apply_to_write(action, text.as_bytes()) {
                Err(_) => return,
                // Injected torn write: the truncated entry still
                // lands under the live key (modelling data loss
                // after a crash); the checksum catches it on read.
                Ok(n) => String::from_utf8_lossy(&text.as_bytes()[..n]).into_owned(),
            },
            None => text,
        };
        let tmp = path.with_extension(format!("json.{}.tmp", std::process::id()));
        if std::fs::write(&tmp, &text).is_ok() && std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Direct lookup, not counted in [`ResultCache::stats`]: reads the
    /// entry under `key`, quarantining it if it is corrupt.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Value> {
        let path = self.path_for(key)?;
        let text = std::fs::read_to_string(&path).ok()?;
        let value = Self::decode_entry(&text);
        if value.is_none() {
            // Truncated write, bit rot, or a foreign format: move the
            // entry aside for post-mortem and recompute.
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            let renamed = match crate::failpoint::fire("cache::quarantine-rename") {
                Some(action) => crate::failpoint::apply_to_write(action, &[]).map(|_| ()),
                None => std::fs::rename(&path, path.with_extension("json.corrupt")),
            };
            if renamed.is_err() {
                // The rename failed (cross-device dir, permissions,
                // full disk): a corrupt entry left under its live key
                // would be re-read and re-quarantined forever. Delete
                // it outright so the next lookup is a clean miss that
                // recomputes and rewrites.
                self.quarantine_failed.fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(&path);
            }
        }
        value
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            quarantine_failed: self.quarantine_failed.load(Ordering::Relaxed),
        }
    }

    fn path_for(&self, key: &str) -> Option<PathBuf> {
        // Keys are lowercase hex by construction; reject anything else
        // rather than risk path tricks from a corrupted artifact.
        key.chars()
            .all(|c| c.is_ascii_hexdigit())
            .then(|| self.dir.join(format!("{key}.json")))
    }

    /// Checksum of an entry's payload text, as stored in the envelope.
    fn payload_crc(payload: &str) -> String {
        format!("{:016x}", stable_hash64(payload.as_bytes()))
    }

    /// Parses a checksummed envelope; `None` means corrupt.
    fn decode_entry(text: &str) -> Option<Value> {
        let doc = serde_json::from_str(text).ok()?;
        let crc = doc.get("crc").and_then(Value::as_str)?;
        let value = doc.get("value")?;
        let mut payload = String::new();
        value.write_json(&mut payload);
        (crc == Self::payload_crc(&payload)).then(|| value.clone())
    }
}

/// A test cache in a fresh directory of its own, removed on drop.
#[cfg(test)]
pub(crate) struct TempCache {
    cache: ResultCache,
    pub(crate) dir: PathBuf,
}

#[cfg(test)]
impl TempCache {
    /// `tag` names the directory, so it must be unique among the
    /// caches of one test binary.
    pub(crate) fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "cryowire-harness-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::with_dir(&dir).expect("temp cache dir");
        TempCache { cache, dir }
    }
}

#[cfg(test)]
impl std::ops::Deref for TempCache {
    type Target = ResultCache;

    fn deref(&self) -> &ResultCache {
        &self.cache
    }
}

#[cfg(test)]
impl Drop for TempCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_hits_skip_compute() {
        let cache = TempCache::new("hits");
        assert_eq!(cache.lookup("aa"), None, "a miss: the sweep evaluates");
        cache.insert("aa", &Value::Int(7));
        assert_eq!(cache.lookup("aa"), Some(Value::Int(7)));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                quarantined: 0,
                quarantine_failed: 0
            }
        );
        // A direct `get` is neither a hit nor a miss.
        assert_eq!(cache.get("aa"), Some(Value::Int(7)));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn disk_survives_cache_instances() {
        let cache = TempCache::new("disk");
        cache.insert("beef", &Value::Float(1.5));
        let reopened = ResultCache::with_dir(&cache.dir).unwrap();
        assert_eq!(reopened.lookup("beef"), Some(Value::Float(1.5)));
        assert_eq!(reopened.stats().hits, 1);
    }

    #[test]
    fn a_deleted_entry_is_a_miss() {
        let cache = TempCache::new("deleted");
        cache.insert("f00d", &Value::Int(4));
        std::fs::remove_file(cache.dir.join("f00d.json")).unwrap();
        assert_eq!(cache.lookup("f00d"), None, "the directory is the cache");
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn non_hex_keys_never_touch_disk() {
        let cache = TempCache::new("safety");
        assert_eq!(cache.lookup("../escape"), None);
        cache.insert("../escape", &Value::Bool(true));
        assert!(!cache.dir.join("../escape.json").exists());
    }

    #[test]
    fn entries_are_checksummed_envelopes() {
        let cache = TempCache::new("envelope");
        cache.insert("abcd", &Value::Int(41));
        let text = std::fs::read_to_string(cache.dir.join("abcd.json")).unwrap();
        let doc = serde_json::from_str(&text).unwrap();
        assert!(doc.get("crc").and_then(Value::as_str).is_some());
        assert_eq!(doc.get("value").and_then(Value::as_i64), Some(41));
    }

    #[test]
    fn truncated_entry_is_quarantined_and_recomputed() {
        let cache = TempCache::new("quarantine");
        cache.insert("cafe", &Value::Int(1));
        // Simulate a torn write: truncate the entry mid-document.
        let path = cache.dir.join("cafe.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();

        assert_eq!(
            cache.lookup("cafe"),
            None,
            "corrupt entry must not count as a hit"
        );
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().quarantined, 1);
        assert!(
            cache.dir.join("cafe.json.corrupt").exists(),
            "corrupt entry kept for post-mortem"
        );
        // The recomputed value replaces the corrupt entry and is valid
        // again.
        cache.insert("cafe", &Value::Int(2));
        assert_eq!(cache.lookup("cafe"), Some(Value::Int(2)));
    }

    #[test]
    fn failed_quarantine_rename_falls_back_to_delete() {
        crate::failpoint::reset();
        let cache = TempCache::new("rename-fail");
        cache.insert("feed", &Value::Int(1));
        let path = cache.dir.join("feed.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();

        crate::failpoint::arm(
            "cache::quarantine-rename",
            crate::failpoint::FailAction::Io("injected rename failure".into()),
            u64::MAX,
        );
        let found = cache.lookup("feed");
        crate::failpoint::reset();
        assert_eq!(found, None);
        let stats = cache.stats();
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.quarantine_failed, 1);
        assert!(
            !cache.dir.join("feed.json.corrupt").exists(),
            "rename failed, so no post-mortem copy"
        );
        assert!(!path.exists(), "the corrupt entry was deleted");
        // The recompute rewrites a valid entry under the live key, and
        // the next lookup hits it — the corrupt bytes can never be
        // re-read because the fallback deleted them first.
        cache.insert("feed", &Value::Int(2));
        assert_eq!(cache.lookup("feed"), Some(Value::Int(2)));
    }

    #[test]
    fn injected_enospc_degrades_to_a_miss() {
        crate::failpoint::reset();
        let cache = TempCache::new("enospc");
        crate::failpoint::arm(
            "cache::write",
            crate::failpoint::FailAction::Io("No space left on device (os error 28)".into()),
            1,
        );
        cache.insert("aaaa", &Value::Int(9));
        crate::failpoint::reset();
        assert!(!cache.dir.join("aaaa.json").exists(), "persist was dropped");
        // The next lookup recomputes: nothing else holds the value.
        assert_eq!(cache.lookup("aaaa"), None);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn injected_torn_write_is_caught_by_checksum() {
        crate::failpoint::reset();
        let cache = TempCache::new("torn-write");
        crate::failpoint::arm(
            "cache::write",
            crate::failpoint::FailAction::ShortWrite(10),
            1,
        );
        cache.insert("bbbb", &Value::Int(3));
        crate::failpoint::reset();
        assert!(cache.dir.join("bbbb.json").exists(), "torn entry landed");
        assert_eq!(
            cache.lookup("bbbb"),
            None,
            "torn entry must not read as valid"
        );
        assert_eq!(cache.stats().quarantined, 1);
    }

    #[test]
    fn checksum_mismatch_is_quarantined() {
        let cache = TempCache::new("crc");
        cache.insert("dead", &Value::Int(5));
        // Valid JSON, wrong checksum: a flipped payload bit.
        let path = cache.dir.join("dead.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace(": 5}", ": 6}")).unwrap();

        assert_eq!(cache.lookup("dead"), None);
        assert_eq!(cache.stats().quarantined, 1);
    }
}
