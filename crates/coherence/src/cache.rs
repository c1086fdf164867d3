//! Blocking private caches: set-associative, write-back write-allocate,
//! LRU replacement, one line state per entry.
//!
//! Data is modelled as a **version counter** per line (the hop-count
//! reference engines' trick): every committed write bumps the line's
//! global version, and every copy records the version it holds, so
//! read-sees-latest-write is checkable without modelling bytes.

use crate::error::CoherenceError;

/// Per-line coherence state, covering both protocols.
///
/// MESI uses `Invalid`/`Exclusive`/`Shared`/`Modified`; Dragon uses
/// `Exclusive`/`SharedClean`/`SharedModified`/`Modified` (a line a
/// Dragon cache does not hold is simply absent, which this engine also
/// encodes as `Invalid`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LineState {
    /// Not present.
    Invalid,
    /// Clean, sole copy (MESI E / Dragon E).
    Exclusive,
    /// Clean, possibly replicated (MESI S).
    Shared,
    /// Dirty, exclusive owner (MESI M / Dragon M).
    Modified,
    /// Dragon Sc: clean-with-respect-to-this-cache copy of a shared
    /// line; the owner (if any) holds it Sm.
    SharedClean,
    /// Dragon Sm: dirty shared copy; this cache owns the line and is
    /// responsible for the eventual writeback.
    SharedModified,
}

impl LineState {
    /// True for states that make this cache the line's owner (supplier
    /// and writeback-responsible party).
    #[must_use]
    pub fn is_owner(self) -> bool {
        matches!(self, LineState::Modified | LineState::SharedModified)
    }

    /// True when evicting a line in this state requires a writeback.
    #[must_use]
    pub fn is_dirty(self) -> bool {
        self.is_owner()
    }

    /// True when the line is present at all.
    #[must_use]
    pub fn is_present(self) -> bool {
        self != LineState::Invalid
    }
}

/// Geometry of one private cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity, bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size, bytes.
    pub line_bytes: u32,
}

impl CacheGeometry {
    /// The exemplar default: 4 KB, 2-way, 32 B lines (the
    /// `cachesim-rs-mp` assumption set).
    #[must_use]
    pub fn default_l1() -> Self {
        CacheGeometry {
            size_bytes: 4096,
            assoc: 2,
            line_bytes: 32,
        }
    }

    /// A cache big enough that the given line footprint never evicts —
    /// what the transaction-count equivalence suite uses.
    #[must_use]
    pub fn no_evict(lines: u64, line_bytes: u32) -> Self {
        CacheGeometry {
            size_bytes: lines.next_power_of_two().max(4) * u64::from(line_bytes) * 2,
            assoc: 4,
            line_bytes,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.size_bytes / (u64::from(self.assoc) * u64::from(self.line_bytes))
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CoherenceError::InvalidConfig`] for zero or
    /// non-power-of-two sizes or a capacity smaller than one way per
    /// set.
    pub fn validate(&self) -> Result<(), CoherenceError> {
        let bad = |reason: &str| {
            Err(CoherenceError::InvalidConfig {
                reason: reason.to_string(),
            })
        };
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return bad("line size must be a non-zero power of two");
        }
        if self.assoc == 0 {
            return bad("associativity must be non-zero");
        }
        if self.size_bytes == 0 || !self.size_bytes.is_power_of_two() {
            return bad("cache size must be a non-zero power of two");
        }
        let way_bytes = u64::from(self.assoc) * u64::from(self.line_bytes);
        if self.size_bytes < way_bytes {
            return bad("cache smaller than one set (size < assoc * line)");
        }
        if !self.sets().is_power_of_two() {
            return bad("set count must be a power of two");
        }
        Ok(())
    }
}

/// One cache entry.
#[derive(Debug, Clone, Copy)]
struct LineEntry {
    tag: u64,
    state: LineState,
    version: u64,
    lru: u64,
    /// The trace's interned index of the resident line, carried so an
    /// eviction hands the engine a dense arena index without a lookup.
    idx: u32,
    /// Generation stamp: an entry whose stamp trails the cache's is
    /// dead, so [`PrivateCache::reset`] is a counter bump instead of a
    /// memset over the whole entry array.
    gen: u32,
}

const EMPTY: LineEntry = LineEntry {
    tag: 0,
    state: LineState::Invalid,
    version: 0,
    lru: 0,
    idx: 0,
    gen: 0,
};

/// A line evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line number of the victim.
    pub line: u64,
    /// Interned line index of the victim (whatever the filler passed).
    pub idx: u32,
    /// State the victim held (dirty states require a writeback).
    pub state: LineState,
    /// Version the victim carried.
    pub version: u64,
}

/// A private, set-associative, write-back L1 with per-line coherence
/// state. Flat set-major storage (the `cryowire-ooo` cache layout).
#[derive(Debug, Clone)]
pub struct PrivateCache {
    /// `sets - 1`: the set count is a validated power of two, so set
    /// selection is a mask and tag extraction a shift — no integer
    /// division in the lookup path.
    set_mask: u64,
    tag_shift: u32,
    assoc: u32,
    /// Current generation: entries stamped earlier are treated as
    /// absent (O(1) whole-cache clear).
    gen: u32,
    entries: Vec<LineEntry>,
    clock: u64,
}

impl PrivateCache {
    /// Builds an empty cache with validated geometry.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheGeometry::validate`].
    pub fn new(geom: CacheGeometry) -> Result<Self, CoherenceError> {
        geom.validate()?;
        let sets = geom.sets();
        Ok(PrivateCache {
            set_mask: sets - 1,
            tag_shift: sets.trailing_zeros(),
            assoc: geom.assoc,
            gen: 0,
            entries: vec![
                EMPTY;
                usize::try_from(sets).expect("set count fits") * geom.assoc as usize
            ],
            clock: 0,
        })
    }

    /// Empties the cache in place (scratch reuse across runs): a
    /// generation bump, not a memset — every resident entry goes stale
    /// at once. The array is rewritten for real only on the (never in
    /// practice) generation-counter wrap.
    pub fn reset(&mut self) {
        if self.gen == u32::MAX {
            self.entries.fill(EMPTY);
            self.gen = 0;
        }
        self.gen += 1;
        self.clock = 0;
    }

    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = usize::try_from(line & self.set_mask).expect("set index fits");
        let a = self.assoc as usize;
        set * a..set * a + a
    }

    /// The resident entry for `line`, if any: one tag-match scan shared
    /// by every lookup flavour below.
    fn find(&self, line: u64) -> Option<&LineEntry> {
        let tag = line >> self.tag_shift;
        let gen = self.gen;
        self.entries[self.set_range(line)]
            .iter()
            .find(|e| e.gen == gen && e.state.is_present() && e.tag == tag)
    }

    fn find_mut(&mut self, line: u64) -> Option<&mut LineEntry> {
        let tag = line >> self.tag_shift;
        let gen = self.gen;
        let range = self.set_range(line);
        self.entries[range]
            .iter_mut()
            .find(|e| e.gen == gen && e.state.is_present() && e.tag == tag)
    }

    /// Current state of `line` (Invalid when absent).
    #[must_use]
    pub fn state(&self, line: u64) -> LineState {
        self.find(line).map_or(LineState::Invalid, |e| e.state)
    }

    /// Version held for `line`, if present.
    #[must_use]
    pub fn version(&self, line: u64) -> Option<u64> {
        self.find(line).map(|e| e.version)
    }

    /// Touches `line` for LRU and returns its (state, version), or
    /// `None` on a miss.
    pub fn probe(&mut self, line: u64) -> Option<(LineState, u64)> {
        self.clock += 1;
        let clock = self.clock;
        let e = self.find_mut(line)?;
        e.lru = clock;
        Some((e.state, e.version))
    }

    /// Sets the state (and optionally the version) of a resident line.
    /// No-op if the line is absent. Does not touch LRU (snoops must not
    /// pollute recency).
    pub fn update(&mut self, line: u64, state: LineState, version: Option<u64>) {
        if let Some(e) = self.find_mut(line) {
            e.state = state;
            if let Some(v) = version {
                e.version = v;
            }
        }
    }

    /// Maps a resident line's state through `f`, returning the previous
    /// (state, version); the version is untouched. One scan where
    /// state-read plus [`update`](Self::update) would take two — the
    /// demote-and-collect step a snoop read performs on every peer.
    pub fn transition(
        &mut self,
        line: u64,
        f: impl FnOnce(LineState) -> LineState,
    ) -> Option<(LineState, u64)> {
        let e = self.find_mut(line)?;
        let old = (e.state, e.version);
        e.state = f(old.0);
        Some(old)
    }

    /// Drops `line` (snoop invalidation). Returns true if a copy was
    /// present.
    pub fn invalidate(&mut self, line: u64) -> bool {
        if let Some(e) = self.find_mut(line) {
            e.state = LineState::Invalid;
            true
        } else {
            false
        }
    }

    /// Drops `line`, returning the version the victim held — the
    /// BusRdX walk's supply-then-invalidate in one scan.
    pub fn invalidate_returning_version(&mut self, line: u64) -> Option<u64> {
        let e = self.find_mut(line)?;
        let v = e.version;
        e.state = LineState::Invalid;
        Some(v)
    }

    /// Fills `line` (interned index `idx`) in `state` with `version`,
    /// evicting the set's LRU victim if the set is full. Returns the
    /// victim when one had to be displaced.
    pub fn fill(
        &mut self,
        line: u64,
        idx: u32,
        state: LineState,
        version: u64,
    ) -> Option<Eviction> {
        let tag = line >> self.tag_shift;
        let gen = self.gen;
        let range = self.set_range(line);
        self.clock += 1;
        let clock = self.clock;
        // Refill of a resident line (upgrade path).
        if let Some(e) = self.entries[range.clone()]
            .iter_mut()
            .find(|e| e.gen == gen && e.state.is_present() && e.tag == tag)
        {
            e.state = state;
            e.version = version;
            e.lru = clock;
            e.idx = idx;
            return None;
        }
        let set = line & self.set_mask;
        let slot = {
            let entries = &mut self.entries[range];
            if let Some(i) = entries
                .iter()
                .position(|e| e.gen != gen || !e.state.is_present())
            {
                i
            } else {
                entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.lru)
                    .map(|(i, _)| i)
                    .expect("non-empty set")
            }
        };
        let at = self.set_range(line).start + slot;
        let victim = self.entries[at];
        let evicted = (victim.gen == gen && victim.state.is_present()).then(|| Eviction {
            line: (victim.tag << self.tag_shift) | set,
            idx: victim.idx,
            state: victim.state,
            version: victim.version,
        });
        self.entries[at] = LineEntry {
            tag,
            state,
            version,
            lru: clock,
            idx,
            gen,
        };
        evicted
    }

    /// Iterates over resident lines as `(line, state, version)` — the
    /// invariant checker's view.
    pub fn resident_lines(&self) -> impl Iterator<Item = (u64, LineState, u64)> + '_ {
        let shift = self.tag_shift;
        let gen = self.gen;
        let assoc = self.assoc as usize;
        self.entries
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.gen == gen && e.state.is_present())
            .map(move |(i, e)| ((e.tag << shift) | (i / assoc) as u64, e.state, e.version))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_validation_catches_malformed_shapes() {
        assert!(CacheGeometry::default_l1().validate().is_ok());
        for g in [
            CacheGeometry {
                line_bytes: 0,
                ..CacheGeometry::default_l1()
            },
            CacheGeometry {
                line_bytes: 48,
                ..CacheGeometry::default_l1()
            },
            CacheGeometry {
                assoc: 0,
                ..CacheGeometry::default_l1()
            },
            CacheGeometry {
                size_bytes: 3000,
                ..CacheGeometry::default_l1()
            },
            CacheGeometry {
                size_bytes: 32,
                assoc: 4,
                line_bytes: 32,
            },
        ] {
            assert!(g.validate().is_err(), "{g:?} should be rejected");
        }
    }

    #[test]
    fn fill_probe_invalidate_round_trip() {
        let mut c = PrivateCache::new(CacheGeometry::default_l1()).unwrap();
        assert_eq!(c.probe(5), None);
        assert_eq!(c.fill(5, 0, LineState::Exclusive, 1), None);
        assert_eq!(c.probe(5), Some((LineState::Exclusive, 1)));
        c.update(5, LineState::Modified, Some(2));
        assert_eq!(c.state(5), LineState::Modified);
        assert!(c.invalidate(5));
        assert!(!c.invalidate(5));
        assert_eq!(c.state(5), LineState::Invalid);
    }

    #[test]
    fn lru_evicts_the_coldest_way_and_reports_the_victim() {
        // 2 sets x 2 ways of 32 B lines = 128 B.
        let g = CacheGeometry {
            size_bytes: 128,
            assoc: 2,
            line_bytes: 32,
        };
        let mut c = PrivateCache::new(g).unwrap();
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        assert_eq!(c.fill(0, 10, LineState::Modified, 7), None);
        assert_eq!(c.fill(2, 11, LineState::Shared, 1), None);
        c.probe(0); // line 0 is now hotter than line 2
        let ev = c.fill(4, 12, LineState::Exclusive, 3).expect("set is full");
        assert_eq!(
            ev,
            Eviction {
                line: 2,
                idx: 11,
                state: LineState::Shared,
                version: 1
            }
        );
        assert_eq!(c.state(0), LineState::Modified);
        assert_eq!(c.state(4), LineState::Exclusive);
    }

    #[test]
    fn no_evict_geometry_holds_the_footprint() {
        let g = CacheGeometry::no_evict(37, 64);
        g.validate().unwrap();
        let mut c = PrivateCache::new(g).unwrap();
        for line in 0..37 {
            #[allow(clippy::cast_possible_truncation)]
            let idx = line as u32;
            assert_eq!(c.fill(line, idx, LineState::Shared, 0), None, "line {line}");
        }
    }

    #[test]
    fn resident_lines_reconstructs_line_numbers() {
        let mut c = PrivateCache::new(CacheGeometry::default_l1()).unwrap();
        c.fill(9, 0, LineState::Shared, 4);
        c.fill(70, 1, LineState::Modified, 2);
        let mut lines: Vec<_> = c.resident_lines().collect();
        lines.sort_unstable();
        assert_eq!(
            lines,
            vec![(9, LineState::Shared, 4), (70, LineState::Modified, 2)]
        );
    }
}
