//! Reusable run state for the core engine.
//!
//! The engine's memory footprint is bounded by the *live window* of the
//! simulated machine, not by the trace length: an instruction's
//! timestamps can only be observed by younger instructions up to a
//! configuration-bounded distance back (fetch/issue bandwidth `width`,
//! ROB/IQ capacities, the load/store-queue depths) or up to the trace's
//! largest register-dependency distance. Each timestamp series
//! therefore lives in a power-of-two **ring buffer** sized to the
//! largest lookback that can actually occur. Every run is a batch of
//! lanes (see the [`crate::batch`] module docs), one lane per
//! configuration; each ring family keeps one ring per lane in a
//! lane-major slab, and one [`CoreScratch`] serves scalar runs, CPI
//! stacks and batched grids of any width, run over run — zero
//! steady-state heap allocations (asserted by the counting-allocator
//! test `crates/ooo/tests/zero_alloc.rs`).
//!
//! The scratch holds nothing about any one trace: the decoded form the
//! engine iterates belongs to the [`Trace`](crate::Trace) itself (see
//! the [`crate::trace`] module docs), so a scratch can serve any
//! sequence of traces and never answer for one it did not see.

use crate::batch::Lane;
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

/// The ring masks of one run, one per ring family, shared by every
/// lane (capacities are powers of two).
#[derive(Clone, Copy)]
pub(crate) struct RingMasks {
    pub(crate) pipe: usize,
    pub(crate) complete: usize,
    pub(crate) load: usize,
    pub(crate) store: usize,
}

/// Reusable scratch state for every core simulation: per-lane state and
/// lane-major timestamp ring slabs.
///
/// One scratch serves any sequence of runs — [`CoreSimulator`] runs and
/// CPI stacks, and batched grids of any width, over any traces; slabs
/// grow to the largest `lanes × capacity` seen and are then reused
/// allocation-free.
///
/// [`CoreSimulator`]: crate::CoreSimulator
#[derive(Debug, Clone, Default)]
pub struct CoreScratch {
    /// Per-lane parameters and recurrence state.
    pub(crate) lanes: Vec<Lane>,
    // -- Lane-major ring slabs, lane `l` owning `slab[l * cap..(l + 1) *
    //    cap]`: the fused fetch/rename/issue/commit pipeline ring, plus
    //    the dependency (complete) and LQ/SQ commit rings.
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

    /// Sizes the slabs for `configs` run as lanes over an
    /// `n`-instruction trace whose largest register-dependency distance
    /// is `max_src`, and returns the masks every lane shares: each ring
    /// family's capacity is the largest any one config needs (each
    /// window capped to the distances that can actually occur within
    /// the run), rounded up to a power of two.
    pub(crate) fn size_slabs(
        &mut self,
        configs: &[CoreConfig],
        n: usize,
        max_src: usize,
    ) -> RingMasks {
        // A lookback of distance `d` into a timestamp series happens
        // only when some `i < n` satisfies `i >= d`, i.e. when `d < n`;
        // capacities ignore structures too large to ever constrain the
        // window (this is what keeps the idealized CPI-stack lanes, with
        // their effectively unbounded structures, constant-memory too).
        let active = |d: usize| if d < n { d } else { 1 };
        // The LQ/SQ constraint indexes the `q`-th most recent commit,
        // which can occur once `q` memory ops have committed — possible
        // only when `q <= n`. Capacity is strictly greater than `q`
        // (hence `q + 1`): the engine writes the *next* slot
        // unconditionally on every instruction (branchless commit push),
        // and `cap > q` guarantees that slot is never the one a
        // same-iteration constraint read selects.
        let queue = |q: usize| if q <= n { q + 1 } else { 1 };
        let (mut pipe, mut load, mut store) = (1, 1, 1);
        for c in configs {
            // The fused pipeline ring must cover every lookback any of
            // its four series is read at: `width` (all four), the IQ
            // depth (issue) and the ROB depth (commit).
            pipe = pipe.max(
                active(c.width)
                    .max(active(c.issue_queue))
                    .max(active(c.rob)),
            );
            load = load.max(queue(c.load_queue));
            store = store.max(queue(c.store_queue));
        }
        let lanes = configs.len();
        RingMasks {
            pipe: ensure_slab(&mut self.pipe, lanes, pipe),
            // A `complete` lookback never reaches further back than the
            // trace's largest register-dependency distance.
            complete: ensure_slab(&mut self.complete, lanes, max_src),
            load: ensure_slab(&mut self.load_ring, lanes, load),
            store: ensure_slab(&mut self.store_ring, lanes, store),
        }
    }

    /// Total `u64` slots currently held across all ring slabs — the
    /// window-bounded footprint (used by tests and the engine ablation
    /// to pin the constant-memory property).
    #[must_use]
    pub fn ring_slots(&self) -> usize {
        self.pipe.len() * 4 + self.complete.len() + self.load_ring.len() + self.store_ring.len()
    }
}

/// Grows `slab` to hold `lanes` rings of `cap` slots rounded up to a
/// power of two, and returns that capacity's index mask. Grow-only: a
/// longer slab stays valid for fewer lanes or smaller windows (the mask
/// simply spans more slots), which is what makes steady-state reuse
/// allocation-free. No zeroing is needed on reuse either: every slot a
/// lane reads at distance `d` was written by the same run at index
/// `i - d`, and the branchless gates discard any stale value a wrapped
/// read picks up.
fn ensure_slab<T: Copy + Default>(slab: &mut Vec<T>, lanes: usize, cap: usize) -> usize {
    let cap = cap.max(1).next_power_of_two();
    if slab.len() < lanes * cap {
        slab.resize(lanes * cap, T::default());
    }
    cap - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rings_are_window_bounded_not_trace_bounded() {
        let mut s = CoreScratch::new();
        // Skylake-like window on a 100k-instruction run.
        let cfg = CoreConfig::skylake_8_wide();
        s.size_slabs(&[cfg], 100_000, 128);
        let slots = s.ring_slots();
        assert!(
            slots <= 4 * 256 + 128 + 128 + 64,
            "rings must stay window-sized, got {slots} slots"
        );
        // Growing the trace does not grow the rings.
        s.size_slabs(&[cfg], 10_000_000, 128);
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
        s.size_slabs(&[cfg], 50_000, 64);
        assert!(
            s.ring_slots() < 512,
            "idealized windows must stay tiny, got {}",
            s.ring_slots()
        );
    }
}
