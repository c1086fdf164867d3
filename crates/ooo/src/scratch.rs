//! Reusable run state for the core simulator's hot loop.
//!
//! The engine's memory footprint is bounded by the *live window* of the
//! simulated machine, not by the trace length: an instruction's
//! timestamps can only be observed by younger instructions up to a
//! configuration-bounded distance back (fetch/issue bandwidth `width`,
//! ROB/IQ capacities, the load/store-queue depths) or up to the trace's
//! largest register-dependency distance. Each timestamp series
//! therefore lives in a power-of-two **ring buffer** sized to the
//! largest lookback that can actually occur, and all rings live in one
//! [`CoreScratch`] that `run_with_scratch` reuses run over run — zero
//! steady-state heap allocations (asserted by the counting-allocator
//! test `crates/ooo/tests/zero_alloc.rs`).
//!
//! The scratch holds nothing about any one trace: the decoded form the
//! hot loop iterates belongs to the [`Trace`](crate::Trace) itself (see
//! the [`crate::trace`] module docs), so a scratch can serve any
//! sequence of traces and never answer for one it did not see.

use crate::config::CoreConfig;

/// One slot of the fused pipeline ring: the fetch / rename / issue /
/// commit timestamps of one instruction, adjacent in memory. The four
/// series are read at the same lookback distances (`width`, and the
/// ROB/IQ depths for commit/issue), so fusing them turns four ring
/// pointers + four masks into one of each — which is what lets the hot
/// loop's working set fit the register file — and makes the common
/// `i - width` lookback a single cache-line touch. 32-byte alignment
/// keeps a slot from straddling two lines.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(32))]
pub(crate) struct PipeSlot(pub(crate) [u64; 4]);

/// Lane indices into a [`PipeSlot`].
pub(crate) const LANE_FETCH: usize = 0;
pub(crate) const LANE_RENAME: usize = 1;
pub(crate) const LANE_ISSUE: usize = 2;
pub(crate) const LANE_COMMIT: usize = 3;

/// Reusable scratch state for [`CoreSimulator`](crate::CoreSimulator)
/// runs: the timestamp rings.
///
/// One scratch serves any sequence of (config, trace) runs; rings grow
/// to the largest window seen and are then reused allocation-free.
#[derive(Debug, Clone, Default)]
pub struct CoreScratch {
    // -- Timestamp rings (power-of-two capacities, grow-only): the
    //    fused fetch/rename/issue/commit pipeline ring, plus the
    //    dependency (complete) and LQ/SQ commit rings.
    pub(crate) pipe: Vec<PipeSlot>,
    pub(crate) complete: Vec<u64>,
    pub(crate) load_ring: Vec<u64>,
    pub(crate) store_ring: Vec<u64>,
}

impl CoreScratch {
    /// An empty scratch; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        CoreScratch::default()
    }

    /// Grows `ring` to a power-of-two capacity covering lookback
    /// distance `cap`. Grow-only: a larger ring stays valid for smaller
    /// windows (the mask simply spans more slots), which is what makes
    /// steady-state reuse allocation-free.
    fn ensure_ring<T: Copy + Default>(ring: &mut Vec<T>, cap: usize) {
        let want = cap.max(1).next_power_of_two();
        if ring.len() < want {
            // No zeroing needed on reuse: every slot the engine reads at
            // distance `d` was written by the same run at index `i - d`
            // (and the branchless gates discard any stale value a
            // speculative wrapped read picks up).
            ring.resize(want, T::default());
        }
    }

    /// Sizes all rings for an `n`-instruction run under `config`'s
    /// window parameters (each capped to the distances that can
    /// actually occur within the run) and the trace's largest
    /// register-dependency distance `max_src`.
    pub(crate) fn size_rings(&mut self, config: &CoreConfig, n: usize, max_src: usize) {
        let width = config.width;
        let rob = config.rob;
        let issue_queue = config.issue_queue;
        let load_queue = config.load_queue;
        let store_queue = config.store_queue;
        // A lookback of distance `d` into a timestamp series happens
        // only when some `i < n` satisfies `i >= d`, i.e. when `d < n`;
        // capacities ignore structures too large to ever constrain the
        // window (this is what keeps the idealized CPI-stack runs, with
        // their effectively unbounded structures, constant-memory too).
        let active = |d: usize| if d < n { d } else { 1 };
        // The fused pipeline ring must cover every lookback any of its
        // four lanes is read at: `width` (all four), the IQ depth
        // (issue) and the ROB depth (commit).
        Self::ensure_ring(
            &mut self.pipe,
            active(width).max(active(issue_queue)).max(active(rob)),
        );
        // Sized by the trace's largest register-dependency distance: a
        // `complete` lookback never reaches further back than that.
        Self::ensure_ring(&mut self.complete, max_src.max(1));
        // The LQ/SQ constraint indexes the `q`-th most recent commit,
        // which can occur once `q` memory ops have committed — possible
        // only when `q <= n`. Capacity is strictly greater than `q`
        // (hence `q + 1`): the hot loop writes the *next* slot
        // unconditionally on every instruction (branchless commit push),
        // and `cap > q` guarantees that slot is never the one a
        // same-iteration constraint read selects.
        Self::ensure_ring(
            &mut self.load_ring,
            if load_queue <= n { load_queue + 1 } else { 1 },
        );
        Self::ensure_ring(
            &mut self.store_ring,
            if store_queue <= n { store_queue + 1 } else { 1 },
        );
    }

    /// Total `u64` slots currently held across all rings — the
    /// window-bounded footprint (used by tests to pin the constant-
    /// memory property).
    #[must_use]
    pub fn ring_slots(&self) -> usize {
        self.pipe.len() * 4 + self.complete.len() + self.load_ring.len() + self.store_ring.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rings_are_window_bounded_not_trace_bounded() {
        let mut s = CoreScratch::new();
        // Skylake-like window on a 100k-instruction run.
        let cfg = CoreConfig::skylake_8_wide();
        s.size_rings(&cfg, 100_000, 128);
        let slots = s.ring_slots();
        assert!(
            slots <= 4 * 256 + 128 + 128 + 64,
            "rings must stay window-sized, got {slots} slots"
        );
        // Growing the trace does not grow the rings.
        s.size_rings(&cfg, 10_000_000, 128);
        assert_eq!(s.ring_slots(), slots);
    }

    #[test]
    fn oversized_structures_do_not_inflate_rings() {
        let mut s = CoreScratch::new();
        // The idealized CPI-stack configuration: unbounded structures.
        let cfg = CoreConfig {
            rob: usize::MAX / 2,
            issue_queue: usize::MAX / 2,
            load_queue: usize::MAX / 2,
            store_queue: usize::MAX / 2,
            ..CoreConfig::skylake_8_wide()
        };
        s.size_rings(&cfg, 50_000, 64);
        assert!(
            s.ring_slots() < 512,
            "idealized windows must stay tiny, got {}",
            s.ring_slots()
        );
    }
}
