//! The lockstep engine behind every core simulation: N core
//! configurations ("lanes") stepped through one structure-of-arrays
//! loop over a single shared trace. A scalar run is a batch of width 1,
//! and a CPI stack is one width-1 run plus one 3-lane batch of its
//! idealized configurations.
//!
//! A design-space sweep replays the *same* trace under many
//! configurations. One lane's per-instruction recurrence is one long
//! dependency chain the host cannot overlap, and it streams the trace's
//! decoded form (16 bytes per instruction) once per configuration. The
//! engine inverts the loop nest: the outer loop walks trace elements,
//! the inner loop steps a block of up to `LANE_BLOCK` lanes for that
//! element, with the block's recurrence state held in locals so it
//! stays in registers (see `step_block`). The decode record is loaded
//! once and broadcast to the block, and the lanes' recurrences are
//! mutually independent, so the host pipelines them — the wall-clock
//! win the `bench-engines` batch domain measures.
//!
//! ## Layout
//!
//! Every lane reads the trace's one decode (see the [`crate::trace`]
//! module docs), built by whichever run reaches the trace first, so
//! [`CoreScratch`] holds per-lane state only: the lane parameters and
//! lane-major slabs for the timestamp rings. Each ring family (fused
//! pipeline, complete, LQ/SQ commit) is one allocation of
//! `lanes × capacity` slots, where the capacity is the *maximum* over
//! the batch of each configuration's ring size, rounded to a power of
//! two (see the [`crate::scratch`] module docs). Grow-only reuse and the
//! shared-capacity broadcast are both sound for the same reason: every
//! value a lane reads is either a same-run write of that lane at an
//! exact lookback distance (which a larger ring preserves — the mask
//! simply spans more slots), or a stale slot discarded by a branchless
//! gate.
//!
//! ## Load latencies
//!
//! The loop takes one load-latency source. It is consulted once per
//! load, in program order, outside the lane loop, and its answer,
//! clamped to at least 1, applies to every lane; no answer keeps the
//! trace's pre-rolled latency. The pre-rolled source (`pre_rolled`)
//! compiles away, so batched grids pay nothing for it. A stateful
//! source (a cache hierarchy fed by an address stream) drives one lane:
//! each block of lanes consults the source afresh.
//!
//! ## Lane divergence
//!
//! Lanes stall differently — a ROB-bound lane and an IQ-bound lane take
//! different constraint maxima at the same trace element — but every
//! structural constraint reads its ring unconditionally and gates the
//! value with a branchless select. Divergent stall state therefore
//! never branches, and each lane's integer arithmetic is that of its
//! configuration run alone, making per-lane [`CoreMetrics`]
//! bit-identical to the retained reference engine (`core::reference`)
//! — the invariant `tests/batch_equivalence.rs` pins across random
//! configs, traces and batch widths, width 1 included.

use crate::config::CoreConfig;
use crate::core::validate_config;
use crate::metrics::CoreMetrics;
use crate::scratch::{
    CoreScratch, PipeSlot, RingMasks, LANE_COMMIT, LANE_FETCH, LANE_ISSUE, LANE_RENAME,
};
use crate::trace::{Trace, FLAG_LOAD, FLAG_MISPREDICT, FLAG_OVERRIDE, FLAG_STORE};

/// The scratch of a batched run: the one [`CoreScratch`], under the
/// name the end-to-end benchmark (`e2e-bench`) still uses.
pub type BatchScratch = CoreScratch;

/// Lanes stepped per block of the element loop. The block's lane
/// states live in locals across the whole loop, so the host keeps the
/// lanes' mutually independent serial chains in registers and overlaps
/// them — the instruction-level parallelism a single lane's chain
/// cannot expose.
const LANE_BLOCK: usize = 8;

/// Per-lane configuration parameters (hoisted once per run) and
/// recurrence state (updated once per trace element).
#[derive(Debug, Clone, Default)]
pub(crate) struct Lane {
    // -- Hoisted window parameters.
    width: usize,
    rob: usize,
    iq: usize,
    lq: usize,
    sq: usize,
    fd: u64,
    bypass_extra: u64,
    override_bubble: u64,
    rob_active: bool,
    iq_active: bool,
    lq_active: bool,
    sq_active: bool,
    // -- Recurrence state.
    redirect_barrier: u64,
    fetch_bubble: u64,
    prev_commit: u64,
    loads_committed: usize,
    stores_committed: usize,
}

impl Lane {
    fn new(config: &CoreConfig, n: usize) -> Self {
        Lane {
            width: config.width,
            rob: config.rob,
            iq: config.issue_queue,
            lq: config.load_queue,
            sq: config.store_queue,
            fd: u64::from(config.frontend_depth),
            bypass_extra: u64::from(config.bypass_cycles - 1),
            override_bubble: u64::from(config.override_bubble),
            rob_active: config.rob < n,
            iq_active: config.issue_queue < n,
            lq_active: config.load_queue <= n,
            sq_active: config.store_queue <= n,
            redirect_barrier: 0,
            fetch_bubble: 0,
            prev_commit: 0,
            loads_committed: 0,
            stores_committed: 0,
        }
    }

    /// This lane's metrics after a run over `trace`. The branch totals
    /// come from the trace's decode-time predictor replay, so they are
    /// the same for every lane.
    pub(crate) fn metrics(&self, trace: &Trace) -> CoreMetrics {
        let decode = trace.decoded();
        CoreMetrics {
            instructions: trace.len() as u64,
            cycles: self.prev_commit,
            branches: decode.branches,
            mispredicts: decode.mispredicts,
            overrides: decode.overrides,
        }
    }
}

/// The pre-rolled load-latency source: no answer for any load, so every
/// load keeps the latency its trace rolled.
pub(crate) fn pre_rolled(_: usize) -> Option<u32> {
    None
}

/// Steps the block of `K` lanes starting at lane `first` through the
/// whole element loop.
///
/// The block's `Lane` states are copied into a local array first and
/// written back after: with `K` known at compile time the inner lane
/// loop fully unrolls, the array decomposes into scalars, and every
/// lane's recurrence state lives in registers across elements — `K`
/// mutually independent chains for the host to overlap. Each lane's
/// ring chunks are carved out once up front, `mask + 1` slots each.
#[inline(always)]
fn step_block<const K: usize>(
    scratch: &mut CoreScratch,
    first: usize,
    decoded: &[[u32; 4]],
    masks: RingMasks,
    load_latency: &mut impl FnMut(usize) -> Option<u32>,
) {
    fn chunks<T, const K: usize>(slab: &mut [T], first: usize, mask: usize) -> [&mut [T]; K] {
        let cap = mask + 1;
        let mut it = slab[first * cap..(first + K) * cap].chunks_exact_mut(cap);
        core::array::from_fn(|_| it.next().expect("the block holds K full rings"))
    }
    let mut pipe_k: [&mut [PipeSlot]; K] = chunks(&mut scratch.pipe, first, masks.pipe);
    let mut complete_k: [&mut [u64]; K] = chunks(&mut scratch.complete, first, masks.complete);
    let mut load_k: [&mut [u64]; K] = chunks(&mut scratch.load_ring, first, masks.load);
    let mut store_k: [&mut [u64]; K] = chunks(&mut scratch.store_ring, first, masks.store);
    let lanes = &mut scratch.lanes[first..first + K];
    let mut ls: [Lane; K] = core::array::from_fn(|k| lanes[k].clone());

    // Past the largest structural window in the block, every
    // index-versus-window comparison below is a constant `true`; the
    // split lets the steady-state instantiation fold them away. The
    // gate *outcomes* are unchanged (an index past the window satisfies
    // the comparison by definition), so results stay bit-identical.
    let mut steady_from = 0usize;
    for lane in lanes.iter() {
        let mut t = lane.width;
        if lane.rob_active {
            t = t.max(lane.rob);
        }
        if lane.iq_active {
            t = t.max(lane.iq);
        }
        steady_from = steady_from.max(t);
    }
    let split = steady_from.min(decoded.len());
    run_range::<K, false>(
        0,
        &decoded[..split],
        &mut ls,
        &mut pipe_k,
        &mut complete_k,
        &mut load_k,
        &mut store_k,
        load_latency,
    );
    run_range::<K, true>(
        split,
        &decoded[split..],
        &mut ls,
        &mut pipe_k,
        &mut complete_k,
        &mut load_k,
        &mut store_k,
        load_latency,
    );

    for (lane, state) in lanes.iter_mut().zip(ls) {
        *lane = state;
    }
}

/// The element loop over one decode range for a block of `K` lanes.
/// `STEADY` asserts (at compile time) that every element index in the
/// range is at or past every lane's width/ROB/IQ window, collapsing
/// the index-gating comparisons to constants; [`step_block`] computes
/// the split point that makes this true.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn run_range<const K: usize, const STEADY: bool>(
    start: usize,
    decoded: &[[u32; 4]],
    ls: &mut [Lane; K],
    pipe_k: &mut [&mut [PipeSlot]; K],
    complete_k: &mut [&mut [u64]; K],
    load_k: &mut [&mut [u64]; K],
    store_k: &mut [&mut [u64]; K],
    load_latency: &mut impl FnMut(usize) -> Option<u32>,
) {
    for (off, rec) in decoded.iter().enumerate() {
        let i = start + off;
        let [flag, base_latency, d1, d2] = *rec;
        let is_load = flag & FLAG_LOAD != 0;
        let is_store = flag & FLAG_STORE != 0;
        // Decode pre-clamps stored latencies, so only the source's
        // answer needs the `.max(1)` here.
        let mut latency = base_latency;
        if is_load {
            if let Some(v) = load_latency(i) {
                latency = v.max(1);
            }
        }
        let latency = u64::from(latency);
        let overridden = flag & FLAG_OVERRIDE != 0;
        let mispredicted = flag & FLAG_MISPREDICT != 0;
        let d1 = d1 as usize;
        let d2 = d2 as usize;

        for k in 0..K {
            let lane = &mut ls[k];
            let pipe_l = &mut *pipe_k[k];
            let complete_l = &mut *complete_k[k];
            let load_l = &mut *load_k[k];
            let store_l = &mut *store_k[k];
            // Each ring's index mask is its length minus one: a ring is
            // a non-empty power-of-two chunk, so the compiler proves
            // `idx & (len - 1) < len` and drops every bounds check.
            let pipe_m = pipe_l.len() - 1;
            let complete_m = complete_l.len() - 1;
            let load_m = load_l.len() - 1;
            let store_m = store_l.len() - 1;

            // -- Fetch: width per cycle, after any redirect barrier.
            let wslot = pipe_l[i.wrapping_sub(lane.width) & pipe_m].0;
            let in_window = STEADY || i >= lane.width;
            let bw_fetch = if in_window { wslot[LANE_FETCH] + 1 } else { 0 };
            let fe = bw_fetch.max(lane.redirect_barrier).max(lane.fetch_bubble);

            // -- Rename: frontend depth later, limited by width and by
            //    structural capacity.
            let mut r = fe + lane.fd;
            r = r.max(if in_window { wslot[LANE_RENAME] + 1 } else { 0 });
            let robv = pipe_l[i.wrapping_sub(lane.rob) & pipe_m].0[LANE_COMMIT];
            r = r.max(if lane.rob_active & (STEADY || i >= lane.rob) {
                robv
            } else {
                0
            });
            let iqv = pipe_l[i.wrapping_sub(lane.iq) & pipe_m].0[LANE_ISSUE] + 1;
            r = r.max(if lane.iq_active & (STEADY || i >= lane.iq) {
                iqv
            } else {
                0
            });
            let lv = load_l[lane.loads_committed.wrapping_sub(lane.lq) & load_m];
            let sv = store_l[lane.stores_committed.wrapping_sub(lane.sq) & store_m];
            let l_gate = is_load & lane.lq_active & (lane.loads_committed >= lane.lq);
            let s_gate = is_store & lane.sq_active & (lane.stores_committed >= lane.sq);
            r = r.max(if l_gate { lv } else { 0 });
            r = r.max(if s_gate { sv } else { 0 });

            // -- Ready: all sources produced, plus the bypass penalty.
            let mut ready = r + 1;
            let v1 = complete_l[i.wrapping_sub(d1) & complete_m] + lane.bypass_extra;
            ready = ready.max(if d1 != 0 { v1 } else { 0 });
            let v2 = complete_l[i.wrapping_sub(d2) & complete_m] + lane.bypass_extra;
            ready = ready.max(if d2 != 0 { v2 } else { 0 });

            // -- Issue, execute, complete.
            let iss = ready.max(if in_window { wslot[LANE_ISSUE] + 1 } else { 0 });
            let comp = iss + latency;
            complete_l[i & complete_m] = comp;

            // -- Commit: in order, width per cycle.
            let mut cm = comp + 1;
            cm = cm.max(lane.prev_commit);
            cm = cm.max(if in_window { wslot[LANE_COMMIT] + 1 } else { 0 });
            lane.prev_commit = cm;

            pipe_l[i & pipe_m] = PipeSlot([fe, r, iss, cm]);

            // Branchless memory-op bookkeeping: both rings' next slots
            // are written unconditionally (their capacity exceeds the
            // queue depth, so the next slot is never one a constraint
            // read can select), and only the matching counter advances.
            load_l[lane.loads_committed & load_m] = cm;
            store_l[lane.stores_committed & store_m] = cm;
            lane.loads_committed += usize::from(is_load);
            lane.stores_committed += usize::from(is_store);

            // Branch outcomes are baked in at decode; both updates are
            // cmov-selected rather than branched on. `FLAG_OVERRIDE`
            // wins over `FLAG_MISPREDICT` exactly as the reference's
            // if/else does. An override redirects fetch a bubble after
            // the branch was fetched; a full refill restarts younger
            // fetch after resolution.
            let ov = fe + lane.override_bubble;
            lane.fetch_bubble = lane.fetch_bubble.max(if overridden { ov } else { 0 });
            lane.redirect_barrier =
                lane.redirect_barrier
                    .max(if mispredicted & !overridden { comp } else { 0 });
        }
    }
}

/// Runs every configuration in `configs` over `trace` in lockstep,
/// returning one [`CoreMetrics`] per configuration (same order), each
/// bit-identical to `CoreSimulator::new(cfg).run_with_scratch(trace, ..)`.
///
/// Uses the trace's pre-rolled load latencies.
///
/// # Panics
///
/// Panics on degenerate configurations, matching
/// [`CoreSimulator::new`](crate::CoreSimulator::new).
#[must_use]
pub fn run_batch_with_scratch(
    configs: &[CoreConfig],
    trace: &Trace,
    scratch: &mut CoreScratch,
) -> Vec<CoreMetrics> {
    let mut out = Vec::with_capacity(configs.len());
    run_batch_into(configs, trace, scratch, &mut out);
    out
}

/// [`run_batch_with_scratch`] writing into a caller-owned vector
/// (cleared first), so steady-state batched runs allocate nothing.
pub fn run_batch_into(
    configs: &[CoreConfig],
    trace: &Trace,
    scratch: &mut CoreScratch,
    out: &mut Vec<CoreMetrics>,
) {
    out.clear();
    run_lanes(configs, trace, scratch, pre_rolled);
    out.extend(scratch.lanes.iter().map(|lane| lane.metrics(trace)));
}

/// Runs each configuration in `configs` over `trace` as one lane of a
/// lockstep batch, leaving each lane's final state in `scratch.lanes`
/// (read it with [`Lane::metrics`]). `load_latency` is the batch's
/// load-latency source; each block of up to `LANE_BLOCK` lanes consults
/// it afresh, so a stateful source drives one block (see the module
/// docs).
///
/// # Panics
///
/// Panics on degenerate configurations.
///
/// Always inlined, so that a caller with a fixed lane count (a width-1
/// run, the CPI stack's 3-lane batch) compiles only that block width
/// for its source.
#[inline(always)]
pub(crate) fn run_lanes(
    configs: &[CoreConfig],
    trace: &Trace,
    scratch: &mut CoreScratch,
    mut load_latency: impl FnMut(usize) -> Option<u32>,
) {
    scratch.lanes.clear();
    for config in configs {
        validate_config(config);
    }
    if configs.is_empty() {
        return;
    }
    let n = trace.len();
    let decoded = &trace.decoded().insts[..n];
    let masks = scratch.size_slabs(configs, n, trace.max_src_distance() as usize);
    scratch
        .lanes
        .extend(configs.iter().map(|config| Lane::new(config, n)));

    // Lanes are stepped in blocks of up to `LANE_BLOCK`, each block
    // running the whole element loop with its lanes' recurrence state
    // in locals (see [`step_block`]). More lanes per block overlap more
    // chains, but a block bigger than the register file spills lane
    // state to the stack every element: at eight lanes the five live
    // recurrence values and four ring pointers per lane already exceed
    // x86-64's sixteen general registers.
    let mut first = 0;
    while first < configs.len() {
        let k = (configs.len() - first).min(LANE_BLOCK);
        let latency = &mut load_latency;
        match k {
            8 => step_block::<8>(scratch, first, decoded, masks, latency),
            7 => step_block::<7>(scratch, first, decoded, masks, latency),
            6 => step_block::<6>(scratch, first, decoded, masks, latency),
            5 => step_block::<5>(scratch, first, decoded, masks, latency),
            4 => step_block::<4>(scratch, first, decoded, masks, latency),
            3 => step_block::<3>(scratch, first, decoded, masks, latency),
            2 => step_block::<2>(scratch, first, decoded, masks, latency),
            _ => step_block::<1>(scratch, first, decoded, masks, latency),
        }
        first += k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::reference::ReferenceCoreSimulator;
    use crate::core::CoreSimulator;
    use crate::trace::TraceConfig;

    fn grid() -> Vec<CoreConfig> {
        vec![
            CoreConfig::skylake_8_wide(),
            CoreConfig::superpipelined_8_wide(),
            CoreConfig::cryocore_4_wide(),
            CoreConfig::cryosp(),
            CoreConfig::skylake_8_wide().with_bypass_cycles(2),
            CoreConfig {
                rob: 16,
                issue_queue: 8,
                ..CoreConfig::cryocore_4_wide()
            },
        ]
    }

    #[test]
    fn batch_matches_scalar_engine() {
        let trace = TraceConfig::parsec_like().generate(30_000, 7);
        let configs = grid();
        let batched = run_batch_with_scratch(&configs, &trace, &mut CoreScratch::new());
        for (cfg, got) in configs.iter().zip(&batched) {
            let want = ReferenceCoreSimulator::new(*cfg).run(&trace);
            assert_eq!(
                *got, want,
                "lane diverged from the reference engine on {cfg:?}"
            );
        }
    }

    #[test]
    fn one_scratch_serves_every_shape() {
        // A 5-lane batch, a width-1 run, a CPI stack (a width-1 run and
        // a 3-lane batch) and a 2-lane batch, all on one scratch, each
        // answering what a fresh scratch answers.
        let trace = TraceConfig::parsec_like().generate(12_000, 5);
        let configs = grid();
        let sim = CoreSimulator::new(configs[5]);
        let mut scratch = CoreScratch::new();
        assert_eq!(
            run_batch_with_scratch(&configs[..5], &trace, &mut scratch),
            run_batch_with_scratch(&configs[..5], &trace, &mut CoreScratch::new())
        );
        assert_eq!(sim.run_with_scratch(&trace, &mut scratch), sim.run(&trace));
        assert_eq!(
            sim.cpi_stack_with_scratch(&trace, &mut scratch),
            sim.cpi_stack(&trace)
        );
        assert_eq!(
            run_batch_with_scratch(&configs[4..], &trace, &mut scratch),
            run_batch_with_scratch(&configs[4..], &trace, &mut CoreScratch::new())
        );
    }

    #[test]
    fn scratch_reuse_across_batches_is_result_invariant() {
        let traces = [
            TraceConfig::parsec_like().generate(12_000, 3),
            TraceConfig::serial_chain().generate(4_000, 2),
        ];
        let configs = grid();
        let mut scratch = CoreScratch::new();
        let mut out = Vec::new();
        for trace in &traces {
            // Full batch, then a narrower batch reusing the (larger)
            // slabs — results must not change.
            run_batch_into(&configs, trace, &mut scratch, &mut out);
            let full = out.clone();
            run_batch_into(&configs[..2], trace, &mut scratch, &mut out);
            assert_eq!(out[..], full[..2], "slab reuse changed a lane result");
            let fresh = run_batch_with_scratch(&configs, trace, &mut CoreScratch::new());
            assert_eq!(full, fresh, "scratch reuse changed a batch result");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let trace = TraceConfig::parsec_like().generate(1_000, 1);
        let out = run_batch_with_scratch(&[], &trace, &mut CoreScratch::new());
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn degenerate_config_rejected() {
        let trace = TraceConfig::parsec_like().generate(100, 1);
        let bad = CoreConfig {
            width: 0,
            ..CoreConfig::skylake_8_wide()
        };
        let _ = run_batch_with_scratch(&[bad], &trace, &mut CoreScratch::new());
    }
}
