//! Batched lockstep execution: N core configurations stepped through
//! one structure-of-arrays loop over a single shared trace.
//!
//! A design-space sweep replays the *same* trace under many
//! configurations. The scalar engine streams the trace's decoded form
//! (16 bytes per instruction) once per configuration, and its
//! per-instruction recurrence is one long dependency chain the host
//! cannot overlap. The batched engine inverts the loop nest: the outer
//! loop walks trace elements, the inner loop steps a block of up to
//! `LANE_BLOCK` configurations ("lanes") for that element, with the
//! block's recurrence state held in locals so it stays in registers
//! (see `step_block`). The decode record is loaded once and broadcast
//! to the block, and the lanes' recurrences are mutually independent,
//! so the host pipelines them — the wall-clock win the `bench-engines`
//! batch domain measures.
//!
//! ## Layout
//!
//! Every lane reads the trace's one decode (see the [`crate::trace`]
//! module docs), built by whichever run reaches the trace first, so
//! [`BatchScratch`] holds per-lane state only: the lane parameters and
//! lane-major slabs for the timestamp rings. Each ring family (fused
//! pipeline, complete, LQ/SQ commit) is one allocation of
//! `lanes × capacity` slots, where the capacity is the *maximum* over
//! the batch of the scalar engine's per-config ring size, rounded to a
//! power of two. Grow-only reuse and the shared-capacity broadcast are
//! both sound for the same reason the scalar rings are: every value a
//! lane reads is either a same-run write of that lane at an exact
//! lookback distance (which a larger ring preserves — the mask simply
//! spans more slots), or a stale slot discarded by a branchless gate.
//!
//! ## Lane divergence
//!
//! Lanes stall differently — a ROB-bound lane and an IQ-bound lane take
//! different constraint maxima at the same trace element — but the
//! recurrence is expressed exactly as the scalar hot loop's cmov form:
//! every structural constraint reads its ring unconditionally and gates
//! the value with a branchless select. Divergent stall state therefore
//! never branches, and each lane's integer arithmetic is *identical* to
//! the scalar engine's, making per-lane [`CoreMetrics`] bit-identical to
//! `run_with_scratch` — the invariant `tests/batch_equivalence.rs` pins
//! across random configs, traces and batch widths.

use crate::config::CoreConfig;
use crate::core::validate_config;
use crate::metrics::CoreMetrics;
use crate::scratch::{PipeSlot, LANE_COMMIT, LANE_FETCH, LANE_ISSUE, LANE_RENAME};
use crate::trace::{Trace, FLAG_LOAD, FLAG_MISPREDICT, FLAG_OVERRIDE, FLAG_STORE};

/// Lanes stepped per block of the element loop. The block's lane
/// states live in locals across the whole loop, so the host keeps the
/// lanes' mutually independent serial chains in registers and overlaps
/// them — the instruction-level parallelism a scalar run's single
/// chain cannot expose.
const LANE_BLOCK: usize = 8;

/// The four shared power-of-two ring masks, bundled so [`step_block`]
/// stays under the argument-count lint.
#[derive(Clone, Copy)]
struct RingMasks {
    pipe: usize,
    complete: usize,
    load: usize,
    store: usize,
}

/// Per-lane configuration parameters (hoisted once per run) and
/// recurrence state (updated once per trace element).
#[derive(Debug, Clone, Default)]
struct Lane {
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
}

/// Reusable scratch state for batched lockstep runs: per-lane state and
/// lane-major ring slabs.
///
/// One scratch serves any sequence of `(configs, trace)` batches;
/// slabs grow to the largest `lanes × window` product seen and are then
/// reused allocation-free (asserted by the counting-allocator test in
/// `crates/ooo/tests/zero_alloc.rs`).
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// Per-lane parameters and recurrence state.
    lanes: Vec<Lane>,
    // -- Lane-major ring slabs: lane `l` owns `slab[l * cap..(l + 1) * cap]`.
    pipe: Vec<PipeSlot>,
    complete: Vec<u64>,
    load_ring: Vec<u64>,
    store_ring: Vec<u64>,
}

impl BatchScratch {
    /// An empty scratch; slabs are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// Total `u64` slots currently held across all ring slabs (used by
    /// tests to pin the window-bounded footprint).
    #[must_use]
    pub fn slab_slots(&self) -> usize {
        self.pipe.len() * 4 + self.complete.len() + self.load_ring.len() + self.store_ring.len()
    }

    /// Grows `slab` to hold `lanes` chunks of `cap` slots. Grow-only,
    /// like the scalar rings: a longer slab stays valid for smaller
    /// chunk layouts because every gated read is of a same-run write.
    fn ensure_slab<T: Copy + Default>(slab: &mut Vec<T>, lanes: usize, cap: usize) {
        let want = lanes * cap;
        if slab.len() < want {
            slab.resize(want, T::default());
        }
    }
}

/// Steps one block of `K` lanes through the whole element loop.
///
/// The block's `Lane` states are copied into a local array first and
/// written back after: with `K` known at compile time the inner lane
/// loop fully unrolls, the array decomposes into scalars, and every
/// lane's recurrence state lives in registers across elements — the
/// same register residency the scalar engine gets for its single lane,
/// times `K` mutually independent chains for the host to overlap. Each
/// lane's ring chunk is carved out once up front; the chunk length
/// equals `mask + 1`, which (with the non-empty assertion) lets the
/// compiler drop the per-access bounds checks exactly as the scalar
/// engine's `ring()` helper does.
///
/// The per-element arithmetic is the scalar hot loop's, verbatim —
/// same cmov gates, same ring index math — so per-lane results stay
/// bit-identical by construction.
#[inline(always)]
fn step_block<const K: usize>(
    lanes: &mut [Lane],
    decoded: &[[u32; 4]],
    pipe: &mut [PipeSlot],
    complete: &mut [u64],
    load_ring: &mut [u64],
    store_ring: &mut [u64],
    masks: RingMasks,
) {
    fn chunks<T, const K: usize>(buf: &mut [T], cap: usize) -> [&mut [T]; K] {
        assert!(cap > 0 && buf.len() == K * cap, "slab holds K full chunks");
        let mut it = buf.chunks_exact_mut(cap);
        core::array::from_fn(|_| it.next().expect("slab holds K chunks"))
    }
    let mut pipe_k: [&mut [PipeSlot]; K] = chunks(pipe, masks.pipe + 1);
    let mut complete_k: [&mut [u64]; K] = chunks(complete, masks.complete + 1);
    let mut load_k: [&mut [u64]; K] = chunks(load_ring, masks.load + 1);
    let mut store_k: [&mut [u64]; K] = chunks(store_ring, masks.store + 1);
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
        masks,
    );
    run_range::<K, true>(
        split,
        &decoded[split..],
        &mut ls,
        &mut pipe_k,
        &mut complete_k,
        &mut load_k,
        &mut store_k,
        masks,
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
    masks: RingMasks,
) {
    for (off, rec) in decoded.iter().enumerate() {
        let i = start + off;
        let [flag, base_latency, d1, d2] = *rec;
        let latency = u64::from(base_latency);
        let is_load = flag & FLAG_LOAD != 0;
        let is_store = flag & FLAG_STORE != 0;
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

            // -- Fetch: width per cycle, after any redirect barrier.
            let wslot = pipe_l[i.wrapping_sub(lane.width) & masks.pipe].0;
            let in_window = STEADY || i >= lane.width;
            let bw_fetch = if in_window { wslot[LANE_FETCH] + 1 } else { 0 };
            let fe = bw_fetch.max(lane.redirect_barrier).max(lane.fetch_bubble);

            // -- Rename: frontend depth later, limited by width and by
            //    structural capacity.
            let mut r = fe + lane.fd;
            r = r.max(if in_window { wslot[LANE_RENAME] + 1 } else { 0 });
            let robv = pipe_l[i.wrapping_sub(lane.rob) & masks.pipe].0[LANE_COMMIT];
            r = r.max(if lane.rob_active & (STEADY || i >= lane.rob) {
                robv
            } else {
                0
            });
            let iqv = pipe_l[i.wrapping_sub(lane.iq) & masks.pipe].0[LANE_ISSUE] + 1;
            r = r.max(if lane.iq_active & (STEADY || i >= lane.iq) {
                iqv
            } else {
                0
            });
            let lv = load_l[lane.loads_committed.wrapping_sub(lane.lq) & masks.load];
            let sv = store_l[lane.stores_committed.wrapping_sub(lane.sq) & masks.store];
            let l_gate = is_load & lane.lq_active & (lane.loads_committed >= lane.lq);
            let s_gate = is_store & lane.sq_active & (lane.stores_committed >= lane.sq);
            r = r.max(if l_gate { lv } else { 0 });
            r = r.max(if s_gate { sv } else { 0 });

            // -- Ready: all sources produced, plus the bypass penalty.
            let mut ready = r + 1;
            let v1 = complete_l[i.wrapping_sub(d1) & masks.complete] + lane.bypass_extra;
            ready = ready.max(if d1 != 0 { v1 } else { 0 });
            let v2 = complete_l[i.wrapping_sub(d2) & masks.complete] + lane.bypass_extra;
            ready = ready.max(if d2 != 0 { v2 } else { 0 });

            // -- Issue, execute, complete.
            let iss = ready.max(if in_window { wslot[LANE_ISSUE] + 1 } else { 0 });
            let comp = iss + latency;
            complete_l[i & masks.complete] = comp;

            // -- Commit: in order, width per cycle.
            let mut cm = comp + 1;
            cm = cm.max(lane.prev_commit);
            cm = cm.max(if in_window { wslot[LANE_COMMIT] + 1 } else { 0 });
            lane.prev_commit = cm;

            pipe_l[i & masks.pipe] = PipeSlot([fe, r, iss, cm]);

            // Branchless memory-op bookkeeping, exactly as the scalar
            // engine: both next slots written unconditionally, only the
            // matching counter advances.
            load_l[lane.loads_committed & masks.load] = cm;
            store_l[lane.stores_committed & masks.store] = cm;
            lane.loads_committed += usize::from(is_load);
            lane.stores_committed += usize::from(is_store);

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
/// Uses the trace's pre-rolled load latencies (the sweep semantics —
/// batching is only sound when lanes share the trace verbatim, which a
/// per-lane memory-model callout would break).
///
/// # Panics
///
/// Panics on degenerate configurations, matching
/// [`CoreSimulator::new`](crate::CoreSimulator::new).
#[must_use]
pub fn run_batch_with_scratch(
    configs: &[CoreConfig],
    trace: &Trace,
    scratch: &mut BatchScratch,
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
    scratch: &mut BatchScratch,
    out: &mut Vec<CoreMetrics>,
) {
    out.clear();
    for config in configs {
        validate_config(config);
    }
    if configs.is_empty() {
        return;
    }
    let n = trace.len();
    let max_src = trace.max_src_distance() as usize;
    let decode = trace.decoded();

    // Shared slab capacities: the maximum over the batch of each scalar
    // ring requirement (`CoreScratch::size_rings` rules), one power-of-
    // two capacity per ring family so every lane shares one mask.
    let active = |d: usize| if d < n { d } else { 1 };
    let mut pipe_cap = 1usize;
    let mut load_cap = 1usize;
    let mut store_cap = 1usize;
    for c in configs {
        pipe_cap = pipe_cap.max(
            active(c.width)
                .max(active(c.issue_queue))
                .max(active(c.rob)),
        );
        load_cap = load_cap.max(if c.load_queue <= n {
            c.load_queue + 1
        } else {
            1
        });
        store_cap = store_cap.max(if c.store_queue <= n {
            c.store_queue + 1
        } else {
            1
        });
    }
    let pipe_cap = pipe_cap.next_power_of_two();
    let complete_cap = max_src.max(1).next_power_of_two();
    let load_cap = load_cap.next_power_of_two();
    let store_cap = store_cap.next_power_of_two();
    let pipe_mask = pipe_cap - 1;
    let complete_mask = complete_cap - 1;
    let load_mask = load_cap - 1;
    let store_mask = store_cap - 1;

    let lanes_n = configs.len();
    BatchScratch::ensure_slab(&mut scratch.pipe, lanes_n, pipe_cap);
    BatchScratch::ensure_slab(&mut scratch.complete, lanes_n, complete_cap);
    BatchScratch::ensure_slab(&mut scratch.load_ring, lanes_n, load_cap);
    BatchScratch::ensure_slab(&mut scratch.store_ring, lanes_n, store_cap);

    scratch.lanes.clear();
    for config in configs {
        scratch.lanes.push(Lane::new(config, n));
    }

    let BatchScratch {
        lanes,
        pipe,
        complete,
        load_ring,
        store_ring,
    } = scratch;
    let decoded = &decode.insts[..n];
    let lanes = &mut lanes[..];

    // Lanes are stepped in blocks of up to `LANE_BLOCK`, each block
    // running the whole element loop with its lanes' recurrence state
    // in locals (see [`step_block`]). A block bigger than the register
    // file spills lane state to the stack every element, which
    // re-serializes the chains the blocking exists to overlap; 4 lanes
    // × ~8 live u64s fits comfortably.
    let mut done = 0;
    while done < lanes_n {
        let k = (lanes_n - done).min(LANE_BLOCK);
        let lane_block = &mut lanes[done..done + k];
        let pipe_b = &mut pipe[done * pipe_cap..(done + k) * pipe_cap];
        let complete_b = &mut complete[done * complete_cap..(done + k) * complete_cap];
        let load_b = &mut load_ring[done * load_cap..(done + k) * load_cap];
        let store_b = &mut store_ring[done * store_cap..(done + k) * store_cap];
        let masks = RingMasks {
            pipe: pipe_mask,
            complete: complete_mask,
            load: load_mask,
            store: store_mask,
        };
        match k {
            8 => step_block::<8>(
                lane_block, decoded, pipe_b, complete_b, load_b, store_b, masks,
            ),
            7 => step_block::<7>(
                lane_block, decoded, pipe_b, complete_b, load_b, store_b, masks,
            ),
            6 => step_block::<6>(
                lane_block, decoded, pipe_b, complete_b, load_b, store_b, masks,
            ),
            5 => step_block::<5>(
                lane_block, decoded, pipe_b, complete_b, load_b, store_b, masks,
            ),
            4 => step_block::<4>(
                lane_block, decoded, pipe_b, complete_b, load_b, store_b, masks,
            ),
            3 => step_block::<3>(
                lane_block, decoded, pipe_b, complete_b, load_b, store_b, masks,
            ),
            2 => step_block::<2>(
                lane_block, decoded, pipe_b, complete_b, load_b, store_b, masks,
            ),
            _ => step_block::<1>(
                lane_block, decoded, pipe_b, complete_b, load_b, store_b, masks,
            ),
        }
        done += k;
    }

    out.extend(lanes.iter().map(|lane| CoreMetrics {
        instructions: n as u64,
        cycles: lane.prev_commit,
        branches: decode.branches,
        mispredicts: decode.mispredicts,
        overrides: decode.overrides,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::CoreSimulator;
    use crate::scratch::CoreScratch;
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
        let mut scratch = BatchScratch::new();
        let batched = run_batch_with_scratch(&configs, &trace, &mut scratch);
        let mut scalar_scratch = CoreScratch::new();
        for (cfg, got) in configs.iter().zip(&batched) {
            let want = CoreSimulator::new(*cfg).run_with_scratch(&trace, &mut scalar_scratch);
            assert_eq!(*got, want, "lane diverged from scalar engine on {cfg:?}");
        }
    }

    #[test]
    fn scratch_reuse_across_batches_is_result_invariant() {
        let traces = [
            TraceConfig::parsec_like().generate(12_000, 3),
            TraceConfig::serial_chain().generate(4_000, 2),
        ];
        let configs = grid();
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        for trace in &traces {
            // Full batch, then a narrower batch reusing the (larger)
            // slabs — results must not change.
            run_batch_into(&configs, trace, &mut scratch, &mut out);
            let full = out.clone();
            run_batch_into(&configs[..2], trace, &mut scratch, &mut out);
            assert_eq!(out[..], full[..2], "slab reuse changed a lane result");
            let fresh = run_batch_with_scratch(&configs, trace, &mut BatchScratch::new());
            assert_eq!(full, fresh, "scratch reuse changed a batch result");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let trace = TraceConfig::parsec_like().generate(1_000, 1);
        let out = run_batch_with_scratch(&[], &trace, &mut BatchScratch::new());
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
        let _ = run_batch_with_scratch(&[bad], &trace, &mut BatchScratch::new());
    }
}
