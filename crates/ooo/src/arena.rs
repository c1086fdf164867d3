//! Content-keyed sharing of generated traces.
//!
//! Trace generation is deterministic in `(TraceConfig, n, seed)`, and
//! the experiment suite re-derives the *same* traces in many places
//! (IPC validation, the core ablations, the CPI-stack figures, the
//! `bench-engines` core grid). The [`TraceArena`] memoizes generation behind that
//! content key, so each distinct trace is rolled exactly once per
//! process and every consumer shares one immutable [`Arc<Trace>`] —
//! which also keeps the per-scratch decoded-trace caches hot, because
//! repeated experiment runs see the same allocation.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::trace::{Trace, TraceConfig};

/// Memoized trace generation keyed by `(config, n, seed)`.
///
/// Cheap to share: lookups take a short-lived mutex (generation happens
/// outside experiment hot loops), and hits clone an `Arc`.
#[derive(Debug, Default)]
pub struct TraceArena {
    traces: Mutex<HashMap<(u64, usize, u64), Arc<Trace>>>,
}

impl TraceArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        TraceArena::default()
    }

    /// The process-wide arena shared by the experiment suite.
    #[must_use]
    pub fn global() -> &'static TraceArena {
        static GLOBAL: OnceLock<TraceArena> = OnceLock::new();
        GLOBAL.get_or_init(TraceArena::new)
    }

    /// Returns the trace for `(config, n, seed)`, generating it on the
    /// first request and sharing the stored copy afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `config` has instruction-class fractions above 1 (the
    /// [`TraceConfig::generate`] contract).
    #[must_use]
    pub fn get(&self, config: &TraceConfig, n: usize, seed: u64) -> Arc<Trace> {
        let key = (config.content_key(), n, seed);
        // Generate outside the lock would risk duplicate work but no
        // incorrectness; generating inside keeps the "once per key"
        // guarantee exact, and generation is rare by design.
        let mut traces = self.traces.lock().expect("arena lock is never poisoned");
        Arc::clone(
            traces
                .entry(key)
                .or_insert_with(|| Arc::new(config.generate(n, seed))),
        )
    }

    /// Number of distinct traces generated so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.traces
            .lock()
            .expect("arena lock is never poisoned")
            .len()
    }

    /// True if nothing has been generated yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_shares_one_trace() {
        let arena = TraceArena::new();
        let a = arena.get(&TraceConfig::parsec_like(), 1_000, 7);
        let b = arena.get(&TraceConfig::parsec_like(), 1_000, 7);
        assert!(Arc::ptr_eq(&a, &b), "hits must share the stored trace");
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn distinct_keys_generate_distinct_traces() {
        let arena = TraceArena::new();
        let base = arena.get(&TraceConfig::parsec_like(), 1_000, 7);
        let other_seed = arena.get(&TraceConfig::parsec_like(), 1_000, 8);
        let other_len = arena.get(&TraceConfig::parsec_like(), 2_000, 7);
        let other_cfg = arena.get(&TraceConfig::serial_chain(), 1_000, 7);
        assert_eq!(arena.len(), 4);
        assert_ne!(*base, *other_seed);
        assert_ne!(base.len(), other_len.len());
        assert_ne!(*base, *other_cfg);
    }

    #[test]
    fn arena_matches_direct_generation() {
        let arena = TraceArena::new();
        let via_arena = arena.get(&TraceConfig::parsec_like(), 5_000, 3);
        let direct = TraceConfig::parsec_like().generate(5_000, 3);
        assert_eq!(*via_arena, direct);
    }

    #[test]
    fn global_arena_is_shared() {
        let a = TraceArena::global().get(&TraceConfig::parsec_like(), 64, 99);
        let b = TraceArena::global().get(&TraceConfig::parsec_like(), 64, 99);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
