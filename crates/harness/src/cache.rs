//! Content-addressed result cache.
//!
//! Evaluated point results are stored under their
//! [`content_key`](crate::hash::content_key) in a process-wide memory
//! map and, optionally, one JSON file per key in a cache directory.
//! Repeated points — across sweeps in one process, or across processes
//! sharing a directory — are evaluated once (e.g. the 300 K baseline
//! shared by fig17/fig23/fig27).
//!
//! On-disk entries are checksummed envelopes
//! (`{"crc": "<16 hex>", "value": ...}`) written to a temporary file
//! and atomically renamed into place, so a crash or a concurrent
//! writer can never leave a half-written entry under a live key. An
//! entry whose envelope fails to parse or whose checksum disagrees
//! with its payload is *quarantined* — renamed to `<key>.json.corrupt`
//! for post-mortem — and the point is recomputed as a plain miss.
//!
//! Concurrency model: lookups don't hold locks across evaluation, so
//! two threads racing the *same* key may both evaluate it; both writes
//! store the identical (deterministic) value, so the race is benign.
//! Points within one sweep are unique, making this rare by
//! construction.

use crate::hash::stable_hash64;
use parking_lot::RwLock;
use serde_json::Value;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Hit/miss counters of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Sweep lookups answered from memory or disk.
    pub hits: u64,
    /// Sweep lookups that found nothing, so the point was evaluated.
    pub misses: u64,
    /// Corrupt disk entries moved aside and recomputed.
    pub quarantined: u64,
    /// Quarantine renames that failed; the corrupt entry was deleted
    /// outright instead, so it can never be re-read as valid.
    pub quarantine_failed: u64,
}

/// Content-addressed in-memory + on-disk result store.
#[derive(Debug, Default)]
pub struct ResultCache {
    mem: RwLock<HashMap<String, Value>>,
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
    quarantine_failed: AtomicU64,
}

impl ResultCache {
    /// A memory-only cache.
    #[must_use]
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// A cache that also persists each result to `dir/<key>.json`.
    ///
    /// # Errors
    ///
    /// Returns the error from creating `dir` if it does not exist and
    /// cannot be created.
    pub fn with_dir(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            dir: Some(dir),
            ..ResultCache::default()
        })
    }

    /// The on-disk location, if persistent.
    #[must_use]
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// A sweep's lookup: memory, then disk, promoting a disk hit into
    /// memory, and counting the answer as a hit or a miss in
    /// [`ResultCache::stats`]. On a miss the sweep evaluates the point
    /// and stores it with [`ResultCache::insert`].
    pub(crate) fn lookup(&self, key: &str) -> Option<Value> {
        if let Some(v) = self.mem.read().get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(v.clone());
        }
        if let Some(v) = self.read_disk(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.mem.write().insert(key.to_string(), v.clone());
            return Some(v);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores `value` under `key` (memory and, when persistent, disk).
    pub fn insert(&self, key: &str, value: &Value) {
        self.mem.write().insert(key.to_string(), value.clone());
        self.write_disk(key, value);
    }

    /// Direct lookup: neither counted in [`ResultCache::stats`] nor
    /// promoted from disk into memory.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Value> {
        if let Some(v) = self.mem.read().get(key) {
            return Some(v.clone());
        }
        self.read_disk(key)
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

    /// Number of entries held in memory.
    #[must_use]
    pub fn len(&self) -> usize {
        self.mem.read().len()
    }

    /// True if no entries are held in memory.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn path_for(&self, key: &str) -> Option<PathBuf> {
        // Keys are lowercase hex by construction; reject anything else
        // rather than risk path tricks from a corrupted artifact.
        if !key.chars().all(|c| c.is_ascii_hexdigit()) {
            return None;
        }
        self.dir.as_ref().map(|d| d.join(format!("{key}.json")))
    }

    /// Checksum of an entry's payload text, as stored in the envelope.
    fn payload_crc(payload: &str) -> String {
        format!("{:016x}", stable_hash64(payload.as_bytes()))
    }

    fn read_disk(&self, key: &str) -> Option<Value> {
        let path = self.path_for(key)?;
        let text = std::fs::read_to_string(&path).ok()?;
        match Self::decode_entry(&text) {
            Some(v) => Some(v),
            None => {
                // Truncated write, bit rot, or a foreign format: move
                // the entry aside for post-mortem and recompute.
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                let renamed = match crate::failpoint::fire("cache::quarantine-rename") {
                    Some(action) => crate::failpoint::apply_to_write(action, &[]).map(|_| ()),
                    None => std::fs::rename(&path, path.with_extension("json.corrupt")),
                };
                if renamed.is_err() {
                    // The rename failed (cross-device dir, permissions,
                    // full disk): a corrupt entry left under its live
                    // key would be re-read and re-quarantined forever.
                    // Delete it outright so the next lookup is a clean
                    // miss that recomputes and rewrites.
                    self.quarantine_failed.fetch_add(1, Ordering::Relaxed);
                    let _ = std::fs::remove_file(&path);
                }
                None
            }
        }
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

    fn write_disk(&self, key: &str, value: &Value) {
        // Persistence is best-effort: a read-only or full disk
        // degrades to memory-only caching rather than failing the
        // sweep. The temp-file + rename makes each publish atomic; the
        // PID in the temp name keeps concurrent processes from
        // clobbering each other's in-flight writes.
        if let Some(path) = self.path_for(key) {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unique_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "cryowire-harness-test-{tag}-{}",
            std::process::id()
        ))
    }

    #[test]
    fn memory_hits_skip_compute() {
        let cache = ResultCache::new();
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
        let dir = unique_dir("disk");
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::with_dir(&dir)
            .unwrap()
            .insert("beef", &Value::Float(1.5));
        let cache = ResultCache::with_dir(&dir).unwrap();
        assert!(cache.is_empty());
        assert_eq!(cache.lookup("beef"), Some(Value::Float(1.5)));
        assert_eq!(cache.len(), 1, "a disk hit is promoted into memory");
        assert_eq!(cache.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_hex_keys_never_touch_disk() {
        let dir = unique_dir("safety");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::with_dir(&dir).unwrap();
        assert_eq!(cache.lookup("../escape"), None);
        cache.insert("../escape", &Value::Bool(true));
        assert!(!dir.join("../escape.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_are_checksummed_envelopes() {
        let dir = unique_dir("envelope");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::with_dir(&dir).unwrap();
        cache.insert("abcd", &Value::Int(41));
        let text = std::fs::read_to_string(dir.join("abcd.json")).unwrap();
        let doc = serde_json::from_str(&text).unwrap();
        assert!(doc.get("crc").and_then(Value::as_str).is_some());
        assert_eq!(doc.get("value").and_then(Value::as_i64), Some(41));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_quarantined_and_recomputed() {
        let dir = unique_dir("quarantine");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::with_dir(&dir).unwrap();
        cache.insert("cafe", &Value::Int(1));
        // Simulate a torn write: truncate the entry mid-document.
        let path = dir.join("cafe.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();

        let fresh = ResultCache::with_dir(&dir).unwrap();
        assert_eq!(
            fresh.lookup("cafe"),
            None,
            "corrupt entry must not count as a hit"
        );
        assert_eq!(fresh.stats().misses, 1);
        assert_eq!(fresh.stats().quarantined, 1);
        assert!(
            dir.join("cafe.json.corrupt").exists(),
            "corrupt entry kept for post-mortem"
        );
        // The recomputed value replaces the corrupt entry and is valid
        // again.
        fresh.insert("cafe", &Value::Int(2));
        let later = ResultCache::with_dir(&dir).unwrap();
        assert_eq!(later.lookup("cafe"), Some(Value::Int(2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_quarantine_rename_falls_back_to_delete() {
        crate::failpoint::reset();
        let dir = unique_dir("rename-fail");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::with_dir(&dir).unwrap();
        cache.insert("feed", &Value::Int(1));
        let path = dir.join("feed.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();

        crate::failpoint::arm(
            "cache::quarantine-rename",
            crate::failpoint::FailAction::Io("injected rename failure".into()),
            u64::MAX,
        );
        let fresh = ResultCache::with_dir(&dir).unwrap();
        let found = fresh.lookup("feed");
        crate::failpoint::reset();
        assert_eq!(found, None);
        let stats = fresh.stats();
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.quarantine_failed, 1);
        assert!(
            !dir.join("feed.json.corrupt").exists(),
            "rename failed, so no post-mortem copy"
        );
        assert!(!path.exists(), "the corrupt entry was deleted");
        // The recompute rewrites a valid entry under the live key; a
        // later cache instance must hit it — the corrupt bytes can
        // never be re-read because the fallback deleted them first.
        fresh.insert("feed", &Value::Int(2));
        let later = ResultCache::with_dir(&dir).unwrap();
        assert_eq!(later.lookup("feed"), Some(Value::Int(2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_enospc_degrades_to_memory_only() {
        crate::failpoint::reset();
        let dir = unique_dir("enospc");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::with_dir(&dir).unwrap();
        crate::failpoint::arm(
            "cache::write",
            crate::failpoint::FailAction::Io("No space left on device (os error 28)".into()),
            1,
        );
        cache.insert("aaaa", &Value::Int(9));
        crate::failpoint::reset();
        assert!(!dir.join("aaaa.json").exists(), "persist was dropped");
        // Memory still serves the value.
        assert_eq!(cache.lookup("aaaa"), Some(Value::Int(9)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_write_is_caught_by_checksum() {
        crate::failpoint::reset();
        let dir = unique_dir("torn-write");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = ResultCache::with_dir(&dir).unwrap();
            crate::failpoint::arm(
                "cache::write",
                crate::failpoint::FailAction::ShortWrite(10),
                1,
            );
            cache.insert("bbbb", &Value::Int(3));
            crate::failpoint::reset();
            assert!(dir.join("bbbb.json").exists(), "torn entry landed");
        }
        let fresh = ResultCache::with_dir(&dir).unwrap();
        assert_eq!(
            fresh.lookup("bbbb"),
            None,
            "torn entry must not read as valid"
        );
        assert_eq!(fresh.stats().quarantined, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_mismatch_is_quarantined() {
        let dir = unique_dir("crc");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::with_dir(&dir).unwrap();
        cache.insert("dead", &Value::Int(5));
        // Valid JSON, wrong checksum: a flipped payload bit.
        let path = dir.join("dead.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace(": 5}", ": 6}")).unwrap();

        let fresh = ResultCache::with_dir(&dir).unwrap();
        assert_eq!(fresh.lookup("dead"), None);
        assert_eq!(fresh.stats().quarantined, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
