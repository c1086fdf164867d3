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
//! The scratch also caches a **decoded trace**: one packed 16-byte
//! record per instruction (flags with the predictor outcome baked in,
//! pre-resolved execute latency, both dependency distances) — the form
//! the hot loop actually iterates. Decoding is one cheap linear pass,
//! keyed by a sampled content fingerprint, so sweeping many
//! configurations over one trace — the design-space pattern
//! `bench-engines` measures — decodes once and re-runs from the cache.

use crate::config::CoreConfig;
use crate::predictor::{OverridingPredictor, PredictOutcome};
use crate::trace::{InstKind, Trace};

/// Decoded-instruction flag bits.
pub(crate) const FLAG_LOAD: u32 = 1;
pub(crate) const FLAG_STORE: u32 = 2;
pub(crate) const FLAG_BRANCH: u32 = 4;
/// The overriding predictor's outcome for this branch, resolved at
/// decode time: the predictor train sequence is a pure function of the
/// branch stream (PCs and outcomes in program order), independent of
/// the core configuration, so one decode serves every config swept over
/// the trace — the hot loop never touches the predictor tables.
pub(crate) const FLAG_OVERRIDE: u32 = 16;
pub(crate) const FLAG_MISPREDICT: u32 = 32;

/// One decoded instruction: `[flags, execute latency, src1 distance,
/// src2 distance]`. A single 16-byte record keeps the hot loop's
/// per-instruction decode traffic to one pointer and one cache line
/// instead of four parallel arrays.
pub(crate) type DecodedInst = [u32; 4];

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

/// Identity of a decoded trace: allocation address and length, plus an
/// FNV hash over a stride sample of the instructions. Traces are
/// immutable after validated construction, so a stale hit would require
/// a *different* trace reallocated at the same address with the same
/// length and identical sampled content — vanishingly unlikely, and the
/// engine-equivalence suite would surface it as a bit-identity failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TraceFingerprint {
    addr: usize,
    len: usize,
    sample: u64,
}

fn fingerprint(trace: &Trace) -> TraceFingerprint {
    let insts = trace.insts();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    // Up to 32 instructions, evenly strided so a difference anywhere in
    // the stream shifts some sampled position's content.
    let stride = (insts.len() / 32).max(1);
    for inst in insts.iter().step_by(stride).take(32) {
        mix(inst.pc);
        let (tag, payload) = match inst.kind {
            InstKind::Alu => (0u64, 0u64),
            InstKind::Mul => (1, 0),
            InstKind::Load { latency } => (2, u64::from(latency)),
            InstKind::Store => (3, 0),
            InstKind::Branch { taken } => (4, u64::from(taken)),
        };
        mix(tag);
        mix(payload);
        mix(u64::from(inst.srcs[0].map_or(u32::MAX, |d| d)));
        mix(u64::from(inst.srcs[1].map_or(u32::MAX, |d| d)));
    }
    mix(u64::from(trace.max_src_distance()));
    TraceFingerprint {
        addr: insts.as_ptr() as usize,
        len: insts.len(),
        sample: h,
    }
}

/// Reusable scratch state for [`CoreSimulator`](crate::CoreSimulator)
/// runs: the ring buffers and the decoded-trace cache.
///
/// One scratch serves any sequence of (config, trace) runs; buffers
/// grow to the largest window seen and are then reused allocation-free.
#[derive(Debug, Clone, Default)]
pub struct CoreScratch {
    // -- Decoded trace (one packed record per instruction), cached by
    //    fingerprint.
    decoded_for: Option<TraceFingerprint>,
    pub(crate) decoded: Vec<DecodedInst>,
    // -- Branch statistics of the decoded trace (config-independent,
    //    resolved by the predictor replay at decode time).
    pub(crate) trace_branches: u64,
    pub(crate) trace_mispredicts: u64,
    pub(crate) trace_overrides: u64,
    // -- Timestamp rings (power-of-two capacities, grow-only): the
    //    fused fetch/rename/issue/commit pipeline ring, plus the
    //    dependency (complete) and LQ/SQ commit rings.
    pub(crate) pipe: Vec<PipeSlot>,
    pub(crate) complete: Vec<u64>,
    pub(crate) load_ring: Vec<u64>,
    pub(crate) store_ring: Vec<u64>,
    // -- The branch predictor, reset in place and replayed over the
    //    branch stream at decode time (allocated once per scratch).
    predictor: OverridingPredictor,
}

impl CoreScratch {
    /// An empty scratch; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        CoreScratch::default()
    }

    /// Decodes `trace` into the structure-of-arrays form, reusing the
    /// cached decode when the fingerprint matches.
    ///
    /// Decode replays the overriding predictor over the branch stream
    /// and bakes each branch's [`PredictOutcome`] into its flags: the
    /// predictor trains on (PC, outcome) in program order only, so the
    /// outcome sequence — and therefore the branch/override/mispredict
    /// totals — is identical for every configuration run over this
    /// trace. One decode amortizes the whole predictor cost across a
    /// design-space sweep.
    pub(crate) fn decode(&mut self, trace: &Trace) {
        let fp = fingerprint(trace);
        if self.decoded_for == Some(fp) {
            return;
        }
        self.decoded_for = None; // invalid while partially rebuilt
        self.decoded.clear();
        self.decoded.reserve(trace.len());
        self.trace_branches = 0;
        self.trace_mispredicts = 0;
        self.trace_overrides = 0;
        self.predictor.reset();
        for inst in trace.insts() {
            let (flag, latency) = match inst.kind {
                InstKind::Alu => (0, 1),
                InstKind::Mul => (0, 3),
                // Pre-clamped hit/miss latency; the engine substitutes
                // the memory model's (clamped) answer when one exists.
                InstKind::Load { latency } => (FLAG_LOAD, latency.max(1)),
                InstKind::Store => (FLAG_STORE, 1),
                InstKind::Branch { taken } => {
                    self.trace_branches += 1;
                    let outcome = match self.predictor.predict_and_train(inst.pc, taken) {
                        PredictOutcome::Correct => 0,
                        PredictOutcome::Overridden => {
                            self.trace_overrides += 1;
                            FLAG_OVERRIDE
                        }
                        PredictOutcome::Mispredicted => {
                            self.trace_mispredicts += 1;
                            FLAG_MISPREDICT
                        }
                    };
                    (FLAG_BRANCH | outcome, 1)
                }
            };
            // Distance 0 never occurs in a validated trace, so it is
            // free to mean "operand ready".
            self.decoded.push([
                flag,
                latency,
                inst.srcs[0].unwrap_or(0),
                inst.srcs[1].unwrap_or(0),
            ]);
        }
        self.decoded_for = Some(fp);
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
    use crate::trace::TraceConfig;

    #[test]
    fn decode_is_cached_by_content() {
        let t = TraceConfig::parsec_like().generate(2_000, 1);
        let mut s = CoreScratch::new();
        s.decode(&t);
        let branches = s.trace_branches;
        assert!(branches > 100, "parsec-like traces are branchy");
        assert_eq!(s.decoded.len(), 2_000);
        // Re-decoding the same trace is a no-op (the cache hit keeps
        // the same buffers).
        let ptr = s.decoded.as_ptr();
        s.decode(&t);
        assert_eq!(s.trace_branches, branches);
        assert_eq!(s.decoded.as_ptr(), ptr);
        // A different trace invalidates and rebuilds.
        let t2 = TraceConfig::parsec_like().generate(2_000, 2);
        s.decode(&t2);
        assert_ne!((s.trace_branches, s.trace_mispredicts), (branches, 0));
        assert_eq!(s.decoded.len(), 2_000);
    }

    #[test]
    fn decode_replays_the_predictor_once_per_trace() {
        use crate::predictor::{OverridingPredictor, PredictOutcome};
        use crate::trace::InstKind;
        let t = TraceConfig::parsec_like().generate(5_000, 3);
        let mut s = CoreScratch::new();
        s.decode(&t);
        // Replaying by hand must agree with the baked-in flags.
        let mut predictor = OverridingPredictor::boom_like();
        let mut mispredicts = 0u64;
        let mut overrides = 0u64;
        for (i, inst) in t.insts().iter().enumerate() {
            if let InstKind::Branch { taken } = inst.kind {
                let expect = match predictor.predict_and_train(inst.pc, taken) {
                    PredictOutcome::Correct => 0,
                    PredictOutcome::Overridden => {
                        overrides += 1;
                        FLAG_OVERRIDE
                    }
                    PredictOutcome::Mispredicted => {
                        mispredicts += 1;
                        FLAG_MISPREDICT
                    }
                };
                assert_eq!(s.decoded[i][0] & (FLAG_OVERRIDE | FLAG_MISPREDICT), expect);
            }
        }
        assert_eq!(s.trace_mispredicts, mispredicts);
        assert_eq!(s.trace_overrides, overrides);
    }

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
