//! The cycle-level out-of-order core model.
//!
//! A dependence-driven trace simulation in the style of interval models:
//! each instruction's fetch, rename, issue, completion and commit cycles
//! are computed in program order, honouring
//!
//! * fetch/rename/commit bandwidth (`width` per cycle),
//! * frontend depth (fetch → rename latency; the misprediction refill),
//! * the overriding branch predictor (override bubbles vs full refills),
//! * ROB / issue-queue / load-queue / store-queue capacity stalls,
//! * issue-port bandwidth and **result-bypass latency** — with
//!   `bypass_cycles = 1` dependent instructions execute back-to-back; any
//!   more models pipelined backend forwarding (300 K Observation #2).
//!
//! The trace is the committed path; wrong-path fetch is modelled as the
//! refill delay rather than simulated instruction-by-instruction, which
//! is the standard trace-driven approximation.
//!
//! ## Performance architecture
//!
//! Timestamps live in window-bounded ring buffers inside a reusable
//! [`CoreScratch`] (see the [`crate::scratch`] module docs), and the hot
//! loop iterates the trace's decoded form (packed 16-byte records,
//! built once per trace on its first run; see the [`crate::trace`]
//! module docs) instead of the `Inst` enum — so `run_with_scratch`
//! allocates nothing beyond the trace's one decode and the
//! window-bounded rings, and nothing at all in steady state. Every
//! optimization preserves **bit-identical** `CoreMetrics`
//! (including the predictor train order) with the retained naive engine
//! in [`reference`](mod@reference), which the equivalence suite pins across
//! seeds × traces × configs.

use crate::cache::{AddressModel, CacheHierarchy};
use crate::config::CoreConfig;
use crate::metrics::CoreMetrics;
use crate::scratch::{CoreScratch, LANE_COMMIT, LANE_FETCH, LANE_ISSUE, LANE_RENAME};
use crate::trace::{Trace, FLAG_LOAD, FLAG_MISPREDICT, FLAG_OVERRIDE, FLAG_STORE};

/// The core simulator.
#[derive(Debug, Clone)]
pub struct CoreSimulator {
    config: CoreConfig,
}

/// Asserts that `config` is simulatable (shared by all three engines:
/// the scalar hot loop, the reference, and the batched lockstep engine
/// in [`crate::batch`]).
pub(crate) fn validate_config(config: &CoreConfig) {
    assert!(config.width > 0, "core width must be positive");
    assert!(
        config.rob > 0 && config.issue_queue > 0,
        "OoO structures must be non-empty"
    );
    assert!(
        config.load_queue > 0 && config.store_queue > 0,
        "load/store queues must be non-empty"
    );
    assert!(
        config.bypass_cycles >= 1,
        "bypass latency is at least one cycle"
    );
}

impl CoreSimulator {
    /// Creates a simulator for `config`.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero width or capacities).
    #[must_use]
    pub fn new(config: CoreConfig) -> Self {
        validate_config(&config);
        CoreSimulator { config }
    }

    /// Runs the trace to completion with the trace's pre-rolled load
    /// latencies, using a throwaway scratch. Prefer
    /// [`CoreSimulator::run_with_scratch`] when running more than once.
    #[must_use]
    pub fn run(&self, trace: &Trace) -> CoreMetrics {
        self.run_with_scratch(trace, &mut CoreScratch::new())
    }

    /// Runs the trace with pre-rolled load latencies, reusing
    /// `scratch`'s ring buffers so repeated runs perform zero
    /// steady-state heap allocations.
    #[must_use]
    pub fn run_with_scratch(&self, trace: &Trace, scratch: &mut CoreScratch) -> CoreMetrics {
        self.run_inner(trace, scratch, |_| None)
    }

    /// Runs the trace with loads resolved by a simulated cache hierarchy
    /// fed from `addrs` (capacity effects emerge instead of being
    /// pre-rolled).
    #[must_use]
    pub fn run_with_memory(
        &self,
        trace: &Trace,
        memory: &mut CacheHierarchy,
        addrs: &mut AddressModel,
    ) -> CoreMetrics {
        self.run_with_memory_scratch(trace, memory, addrs, &mut CoreScratch::new())
    }

    /// [`CoreSimulator::run_with_memory`] with a caller-owned scratch.
    #[must_use]
    pub fn run_with_memory_scratch(
        &self,
        trace: &Trace,
        memory: &mut CacheHierarchy,
        addrs: &mut AddressModel,
        scratch: &mut CoreScratch,
    ) -> CoreMetrics {
        self.run_inner(trace, scratch, |_| {
            Some(memory.load_latency(addrs.next_addr()))
        })
    }

    /// Decomposes execution time into stall sources by idealization
    /// (the standard CPI-stack technique Fig. 3 relies on): each
    /// component is the extra cycles versus a run with that mechanism
    /// made ideal.
    ///
    /// Returns `[base, frontend/branch, structure, memory]` cycles.
    #[must_use]
    pub fn cpi_stack(&self, trace: &Trace) -> [u64; 4] {
        self.cpi_stack_with_scratch(trace, &mut CoreScratch::new())
    }

    /// [`CoreSimulator::cpi_stack`] reusing one scratch across the four
    /// idealized runs (the rings serve all four window shapes; the four
    /// runs read the trace's one decode).
    #[must_use]
    pub fn cpi_stack_with_scratch(&self, trace: &Trace, scratch: &mut CoreScratch) -> [u64; 4] {
        let real = self.run_with_scratch(trace, scratch).cycles;
        // Ideal memory: every load is a 1-cycle hit.
        let ideal_mem = self.run_inner(trace, scratch, |_| Some(1)).cycles;
        // Ideal structures on top: unbounded ROB/IQ/LSQ.
        let roomy = CoreSimulator::new(CoreConfig {
            rob: usize::MAX / 2,
            issue_queue: usize::MAX / 2,
            load_queue: usize::MAX / 2,
            store_queue: usize::MAX / 2,
            ..self.config
        });
        let ideal_struct = roomy.run_inner(trace, scratch, |_| Some(1)).cycles;
        // Ideal frontend on top: zero-depth refill (mispredicts still
        // redirect, but the refill pipe is free).
        let perfect = CoreSimulator::new(CoreConfig {
            rob: usize::MAX / 2,
            issue_queue: usize::MAX / 2,
            load_queue: usize::MAX / 2,
            store_queue: usize::MAX / 2,
            frontend_depth: 0,
            ..self.config
        });
        let base = perfect.run_inner(trace, scratch, |_| Some(1)).cycles;
        [
            base,
            ideal_struct.saturating_sub(base),
            ideal_mem.saturating_sub(ideal_struct),
            real.saturating_sub(ideal_mem),
        ]
    }

    /// The hot loop: program-order timestamp recurrence over the decoded
    /// trace, with every timestamp series in a window-bounded ring.
    ///
    /// `load_latency` is consulted once per load, in program order;
    /// `None` falls back to the trace's pre-rolled latency. The
    /// recurrence, predictor train order and counter updates replicate
    /// [`reference::ReferenceCoreSimulator`] exactly — bit-identity is
    /// the invariant every optimization here must preserve.
    fn run_inner(
        &self,
        trace: &Trace,
        scratch: &mut CoreScratch,
        mut load_latency: impl FnMut(usize) -> Option<u32>,
    ) -> CoreMetrics {
        let c = self.config;
        let n = trace.len();
        let decode = trace.decoded();
        scratch.size_rings(&c, n, trace.max_src_distance() as usize);

        // Ring slices and their index masks. Capacities are powers of
        // two and never zero; the explicit non-empty assertion is what
        // lets the compiler prove `idx & (len - 1) < len` and drop both
        // the per-access bounds check and the per-access `len == 0`
        // guard it otherwise keeps (the mask would be `usize::MAX` for
        // an empty ring).
        fn ring<T>(buf: &mut [T]) -> (&mut [T], usize) {
            assert!(!buf.is_empty(), "rings always hold at least one slot");
            let mask = buf.len() - 1;
            (buf, mask)
        }
        let (pipe, pipe_mask) = ring(&mut scratch.pipe);
        let (complete, complete_mask) = ring(&mut scratch.complete);
        let (load_ring, load_mask) = ring(&mut scratch.load_ring);
        let (store_ring, store_mask) = ring(&mut scratch.store_ring);

        // Decoded trace (one packed record per instruction).
        let decoded = &decode.insts[..n];

        // The loop body below is **branch-free** apart from the memory
        // model's per-load callout: every structural constraint reads
        // its ring unconditionally (a wrapped index is always in-bounds)
        // and cmov-gates the value, because whether a constraint applies
        // at instruction `i` depends on the (random) instruction mix —
        // a conditional here mispredicts constantly on the host.
        // Constraints that can never fire within `n` instructions are
        // gated by these hoisted flags, so stale ring slots they would
        // read are discarded.
        let rob = c.rob;
        let iq = c.issue_queue;
        let rob_active = rob < n;
        let iq_active = iq < n;
        let lq = c.load_queue;
        let sq = c.store_queue;
        let lq_active = lq <= n;
        let sq_active = sq <= n;

        let mut redirect_barrier: u64 = 0; // earliest fetch after a refill
        let mut fetch_bubble: u64 = 0; // accumulated override bubbles
        let mut prev_commit: u64 = 0; // commit[i - 1]

        let mut loads_committed: usize = 0;
        let mut stores_committed: usize = 0;

        let fd = u64::from(c.frontend_depth);
        let bypass_extra = u64::from(c.bypass_cycles - 1);
        let override_bubble = u64::from(c.override_bubble);
        let w = c.width;

        for i in 0..n {
            let [flag, base_latency, d1, d2] = decoded[i];

            // The `i - width` lookback serves all four pipeline lanes;
            // with the fused ring that is one slot (one cache line).
            // When the capacity equals `width` this is the very slot
            // lane writes below recycle — each lane reads its previous
            // value before overwriting it, exactly like the split rings
            // did.
            let wslot = pipe[i.wrapping_sub(w) & pipe_mask].0;
            let in_window = i >= w;

            // -- Fetch: width per cycle, after any redirect barrier.
            let bw_fetch = if in_window { wslot[LANE_FETCH] + 1 } else { 0 };
            let fe = bw_fetch.max(redirect_barrier).max(fetch_bubble);

            // -- Rename: frontend depth later, limited by width and by
            //    structural capacity (a slot frees when the displacing
            //    entry leaves).
            let mut r = fe + fd;
            r = r.max(if in_window { wslot[LANE_RENAME] + 1 } else { 0 });
            // ROB slot frees at commit; IQ entry frees at issue.
            let robv = pipe[i.wrapping_sub(rob) & pipe_mask].0[LANE_COMMIT];
            r = r.max(if rob_active & (i >= rob) { robv } else { 0 });
            let iqv = pipe[i.wrapping_sub(iq) & pipe_mask].0[LANE_ISSUE] + 1;
            r = r.max(if iq_active & (i >= iq) { iqv } else { 0 });
            // LQ/SQ capacity: a slot frees when the displacing memory
            // op commits.
            let is_load = flag & FLAG_LOAD != 0;
            let is_store = flag & FLAG_STORE != 0;
            let lv = load_ring[loads_committed.wrapping_sub(lq) & load_mask];
            let sv = store_ring[stores_committed.wrapping_sub(sq) & store_mask];
            let l_gate = is_load & lq_active & (loads_committed >= lq);
            let s_gate = is_store & sq_active & (stores_committed >= sq);
            r = r.max(if l_gate { lv } else { 0 });
            r = r.max(if s_gate { sv } else { 0 });

            // -- Ready: all sources produced, plus the bypass penalty.
            //    Distance 0 ("no operand") selects a wrapped stale slot
            //    that the cmov discards.
            let mut ready = r + 1;
            let d1 = d1 as usize;
            let v1 = complete[i.wrapping_sub(d1) & complete_mask] + bypass_extra;
            ready = ready.max(if d1 != 0 { v1 } else { 0 });
            let d2 = d2 as usize;
            let v2 = complete[i.wrapping_sub(d2) & complete_mask] + bypass_extra;
            ready = ready.max(if d2 != 0 { v2 } else { 0 });

            // -- Issue: port bandwidth `width` per cycle.
            let iss = ready.max(if in_window { wslot[LANE_ISSUE] + 1 } else { 0 });

            // -- Execute. Decode pre-clamps stored latencies, so only a
            //    memory-model answer needs the `.max(1)` here.
            let mut latency = base_latency;
            if flag & FLAG_LOAD != 0 {
                if let Some(v) = load_latency(i) {
                    latency = v.max(1);
                }
            }
            let comp = iss + u64::from(latency);
            complete[i & complete_mask] = comp;

            // -- Commit: in order, width per cycle.
            let mut cm = comp + 1;
            cm = cm.max(prev_commit);
            cm = cm.max(if in_window { wslot[LANE_COMMIT] + 1 } else { 0 });
            prev_commit = cm;

            // One fused 32-byte slot store per instruction (instead of
            // four lane stores spread across the body): every
            // same-iteration lane read above wants the slot's *previous*
            // occupant, so deferring the write to the end is
            // behaviour-preserving and halves the store-buffer traffic.
            pipe[i & pipe_mask] = crate::scratch::PipeSlot([fe, r, iss, cm]);

            // Branchless memory-op bookkeeping: both rings' next slots
            // are written unconditionally (their capacity exceeds the
            // queue depth, so the next slot is never one a constraint
            // read can select), and only the matching counter advances.
            load_ring[loads_committed & load_mask] = cm;
            store_ring[stores_committed & store_mask] = cm;
            loads_committed += usize::from(is_load);
            stores_committed += usize::from(is_store);
            // Branch outcomes are baked in at decode; which way any one
            // branch went is random, so both updates are cmov-selected
            // rather than branched on. `FLAG_OVERRIDE` wins over
            // `FLAG_MISPREDICT` exactly as the reference's if/else does.
            let overridden = flag & FLAG_OVERRIDE != 0;
            let mispredicted = flag & FLAG_MISPREDICT != 0;
            // The backup predictor redirects fetch a couple of cycles
            // after this branch was fetched.
            let ov = fe + override_bubble;
            fetch_bubble = fetch_bubble.max(if overridden { ov } else { 0 });
            // Full refill: younger fetch restarts after resolution and
            // re-traverses the frontend.
            redirect_barrier =
                redirect_barrier.max(if mispredicted & !overridden { comp } else { 0 });
        }

        // Branch statistics come from the decode-time predictor replay:
        // the train sequence is trace-determined, so the totals are the
        // same for every configuration (the equivalence suite pins this
        // against the reference engine's in-loop predictor).
        CoreMetrics {
            instructions: n as u64,
            cycles: prev_commit,
            branches: decode.branches,
            mispredicts: decode.mispredicts,
            overrides: decode.overrides,
        }
    }
}

/// The retained naive engine: full-trace scoreboards, one `Vec<u64>` per
/// timestamp series, exactly as the simulator shipped before the
/// ring-buffer rework. Compiled under `cfg(test)` or the
/// `reference-sim` feature; the equivalence suite and the `bench-engines`
/// emitter assert the optimized engine reproduces it bit-for-bit.
#[cfg(any(test, feature = "reference-sim"))]
pub mod reference {
    use super::{validate_config, AddressModel, CacheHierarchy, CoreConfig, CoreMetrics};
    use crate::predictor::{OverridingPredictor, PredictOutcome};
    use crate::trace::{InstKind, Trace};

    /// The reference core simulator (naive O(trace) memory engine).
    #[derive(Debug, Clone)]
    pub struct ReferenceCoreSimulator {
        config: CoreConfig,
    }

    impl ReferenceCoreSimulator {
        /// Creates a reference simulator for `config`.
        ///
        /// # Panics
        ///
        /// Panics on degenerate configurations, matching
        /// [`CoreSimulator`](super::CoreSimulator::new).
        #[must_use]
        pub fn new(config: CoreConfig) -> Self {
            validate_config(&config);
            ReferenceCoreSimulator { config }
        }

        /// Runs the trace with its pre-rolled load latencies.
        #[must_use]
        pub fn run(&self, trace: &Trace) -> CoreMetrics {
            self.run_inner(trace, |_| None)
        }

        /// Runs the trace against a simulated cache hierarchy.
        #[must_use]
        pub fn run_with_memory(
            &self,
            trace: &Trace,
            memory: &mut CacheHierarchy,
            addrs: &mut AddressModel,
        ) -> CoreMetrics {
            self.run_inner(trace, |_| Some(memory.load_latency(addrs.next_addr())))
        }

        /// CPI stack by idealization, like
        /// [`CoreSimulator::cpi_stack`](super::CoreSimulator::cpi_stack).
        #[must_use]
        pub fn cpi_stack(&self, trace: &Trace) -> [u64; 4] {
            let real = self.run(trace).cycles;
            let ideal_mem = self.run_inner(trace, |_| Some(1)).cycles;
            let roomy = ReferenceCoreSimulator::new(CoreConfig {
                rob: usize::MAX / 2,
                issue_queue: usize::MAX / 2,
                load_queue: usize::MAX / 2,
                store_queue: usize::MAX / 2,
                ..self.config
            });
            let ideal_struct = roomy.run_inner(trace, |_| Some(1)).cycles;
            let perfect = ReferenceCoreSimulator::new(CoreConfig {
                rob: usize::MAX / 2,
                issue_queue: usize::MAX / 2,
                load_queue: usize::MAX / 2,
                store_queue: usize::MAX / 2,
                frontend_depth: 0,
                ..self.config
            });
            let base = perfect.run_inner(trace, |_| Some(1)).cycles;
            [
                base,
                ideal_struct.saturating_sub(base),
                ideal_mem.saturating_sub(ideal_struct),
                real.saturating_sub(ideal_mem),
            ]
        }

        fn run_inner(
            &self,
            trace: &Trace,
            mut load_latency: impl FnMut(usize) -> Option<u32>,
        ) -> CoreMetrics {
            let c = self.config;
            let n = trace.len();
            let insts = trace.insts();
            let mut fetch = vec![0u64; n];
            let mut rename = vec![0u64; n];
            let mut issue = vec![0u64; n];
            let mut complete = vec![0u64; n];
            let mut commit = vec![0u64; n];
            // Load/store queue release tracking by memory-op ordinal.
            let mut load_commits: Vec<u64> = Vec::new();
            let mut store_commits: Vec<u64> = Vec::new();

            let mut predictor = OverridingPredictor::boom_like();
            let mut redirect_barrier: u64 = 0; // earliest fetch after a refill
            let mut fetch_bubble: u64 = 0; // accumulated override bubbles

            let mut branches = 0u64;
            let mut mispredicts = 0u64;
            let mut overrides = 0u64;

            let fd = u64::from(c.frontend_depth);
            let bypass_extra = u64::from(c.bypass_cycles - 1);

            for i in 0..n {
                let inst = &insts[i];

                // -- Fetch: width per cycle, after any redirect barrier.
                let bw_fetch = if i >= c.width {
                    fetch[i - c.width] + 1
                } else {
                    0
                };
                fetch[i] = bw_fetch.max(redirect_barrier).max(fetch_bubble);

                // -- Rename: frontend depth later, limited by width and by
                //    structural capacity (a slot frees when the displacing
                //    entry leaves).
                let mut r = fetch[i] + fd;
                if i >= c.width {
                    r = r.max(rename[i - c.width] + 1);
                }
                if i >= c.rob {
                    r = r.max(commit[i - c.rob]); // ROB slot frees at commit
                }
                if i >= c.issue_queue {
                    r = r.max(issue[i - c.issue_queue] + 1); // IQ entry frees at issue
                }
                match inst.kind {
                    InstKind::Load { .. } if load_commits.len() >= c.load_queue => {
                        r = r.max(load_commits[load_commits.len() - c.load_queue]);
                    }
                    InstKind::Store if store_commits.len() >= c.store_queue => {
                        r = r.max(store_commits[store_commits.len() - c.store_queue]);
                    }
                    _ => {}
                }
                rename[i] = r;

                // -- Ready: all sources produced, plus the bypass penalty.
                let mut ready = rename[i] + 1;
                for src in inst.srcs.into_iter().flatten() {
                    let p = i - src as usize;
                    ready = ready.max(complete[p] + bypass_extra);
                }

                // -- Issue: port bandwidth `width` per cycle.
                let mut iss = ready;
                if i >= c.width {
                    iss = iss.max(issue[i - c.width] + 1);
                }
                issue[i] = iss;

                // -- Execute.
                let latency = match inst.kind {
                    InstKind::Alu | InstKind::Store => 1,
                    InstKind::Mul => 3,
                    InstKind::Load { latency } => load_latency(i).unwrap_or(latency).max(1),
                    InstKind::Branch { .. } => 1,
                };
                complete[i] = issue[i] + u64::from(latency);

                // -- Commit: in order, width per cycle.
                let mut cm = complete[i] + 1;
                if i > 0 {
                    cm = cm.max(commit[i - 1]);
                }
                if i >= c.width {
                    cm = cm.max(commit[i - c.width] + 1);
                }
                commit[i] = cm;

                match inst.kind {
                    InstKind::Load { .. } => load_commits.push(commit[i]),
                    InstKind::Store => store_commits.push(commit[i]),
                    InstKind::Branch { taken } => {
                        branches += 1;
                        match predictor.predict_and_train(inst.pc, taken) {
                            PredictOutcome::Correct => {}
                            PredictOutcome::Overridden => {
                                overrides += 1;
                                // The backup predictor redirects fetch a couple
                                // of cycles after this branch was fetched.
                                fetch_bubble =
                                    fetch_bubble.max(fetch[i] + u64::from(c.override_bubble));
                            }
                            PredictOutcome::Mispredicted => {
                                mispredicts += 1;
                                // Full refill: younger fetch restarts after
                                // resolution and re-traverses the frontend.
                                redirect_barrier = redirect_barrier.max(complete[i]);
                            }
                        }
                    }
                    _ => {}
                }
            }

            CoreMetrics {
                instructions: n as u64,
                cycles: commit.last().copied().unwrap_or(0),
                branches,
                mispredicts,
                overrides,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceConfig;

    fn parsec(n: usize) -> Trace {
        TraceConfig::parsec_like().generate(n, 7)
    }

    #[test]
    fn independent_trace_reaches_full_width() {
        let t = TraceConfig::independent().generate(40_000, 1);
        let m = CoreSimulator::new(CoreConfig::skylake_8_wide()).run(&t);
        assert!(m.ipc() > 7.0, "independent IPC = {}", m.ipc());
    }

    #[test]
    fn serial_chain_ipc_is_inverse_bypass() {
        // A fully serial chain commits one instruction per bypass period.
        let t = TraceConfig::serial_chain().generate(20_000, 2);
        let m1 = CoreSimulator::new(CoreConfig::skylake_8_wide()).run(&t);
        assert!(
            (m1.ipc() - 1.0).abs() < 0.05,
            "serial IPC with 1-cycle bypass = {}",
            m1.ipc()
        );
        let m2 = CoreSimulator::new(CoreConfig::skylake_8_wide().with_bypass_cycles(2)).run(&t);
        assert!(
            (m2.ipc() - 0.5).abs() < 0.05,
            "serial IPC with 2-cycle bypass = {}",
            m2.ipc()
        );
    }

    #[test]
    fn table3_width_halving_ipc_factor() {
        // Table 3: the CryoCore halving costs ~7 % IPC (0.93).
        let t = parsec(120_000);
        let wide = CoreSimulator::new(CoreConfig::skylake_8_wide()).run(&t);
        let narrow = CoreSimulator::new(CoreConfig::cryocore_4_wide()).run(&t);
        let factor = narrow.ipc() / wide.ipc();
        assert!(
            factor > 0.82 && factor < 0.99,
            "width-halving IPC factor = {factor} (Table 3: 0.93)"
        );
    }

    #[test]
    fn superpipelining_costs_a_few_percent() {
        // Section 4.4: three extra frontend stages cost ~4.2 % IPC.
        let t = parsec(120_000);
        let base = CoreSimulator::new(CoreConfig::skylake_8_wide()).run(&t);
        let deep = CoreSimulator::new(CoreConfig::superpipelined_8_wide()).run(&t);
        let factor = deep.ipc() / base.ipc();
        assert!(
            factor > 0.90 && factor < 0.995,
            "frontend-depth IPC factor = {factor} (paper: 0.958)"
        );
    }

    #[test]
    fn backend_pipelining_hurts_far_more_than_frontend() {
        // 300 K Observation #2, measured: breaking back-to-back execution
        // (bypass 1 → 2) must cost several times more IPC than the same
        // pipeline-depth increase in the frontend.
        let t = parsec(120_000);
        let base = CoreSimulator::new(CoreConfig::skylake_8_wide())
            .run(&t)
            .ipc();
        let deep_frontend = CoreSimulator::new(CoreConfig::skylake_8_wide().with_frontend_depth(9))
            .run(&t)
            .ipc();
        let piped_backend = CoreSimulator::new(CoreConfig::skylake_8_wide().with_bypass_cycles(2))
            .run(&t)
            .ipc();
        let frontend_loss = 1.0 - deep_frontend / base;
        let backend_loss = 1.0 - piped_backend / base;
        assert!(
            backend_loss > 3.0 * frontend_loss,
            "backend loss {backend_loss} vs frontend loss {frontend_loss}"
        );
    }

    #[test]
    fn smaller_rob_hurts_memory_latency_tolerance() {
        // Independent long-latency misses: a big ROB overlaps many of
        // them (memory-level parallelism), a small ROB stalls rename
        // behind the in-order commit head.
        let cfg = TraceConfig {
            load_frac: 0.5,
            load_miss_rate: 0.3,
            load_miss_latency: 100,
            mean_dep_distance: 1_000.0,
            ..TraceConfig::parsec_like()
        };
        let t = cfg.generate(60_000, 3);
        let big = CoreSimulator::new(CoreConfig::skylake_8_wide()).run(&t);
        let small = CoreSimulator::new(CoreConfig {
            rob: 32,
            ..CoreConfig::skylake_8_wide()
        })
        .run(&t);
        assert!(
            small.ipc() < big.ipc() * 0.75,
            "ROB 32 {} vs ROB 224 {}",
            small.ipc(),
            big.ipc()
        );
    }

    #[test]
    fn mispredicts_counted_and_bounded() {
        let t = parsec(60_000);
        let m = CoreSimulator::new(CoreConfig::skylake_8_wide()).run(&t);
        assert!(m.branches > 9_000);
        assert!(m.mispredict_rate() > 0.01 && m.mispredict_rate() < 0.20);
        assert!(m.overrides > 0);
    }

    #[test]
    fn commit_order_is_monotone() {
        // Structural invariant: IPC can never exceed width.
        let t = parsec(30_000);
        for cfg in [CoreConfig::skylake_8_wide(), CoreConfig::cryocore_4_wide()] {
            let m = CoreSimulator::new(cfg).run(&t);
            assert!(m.ipc() <= cfg.width as f64 + 1e-9);
            assert!(m.ipc() > 0.0);
        }
    }

    #[test]
    fn scratch_reuse_is_result_invariant() {
        // One scratch across traces, configs and window shapes must
        // never change any result.
        let mut scratch = CoreScratch::new();
        let traces = [
            parsec(20_000),
            TraceConfig::serial_chain().generate(5_000, 2),
        ];
        let configs = [
            CoreConfig::skylake_8_wide(),
            CoreConfig::cryosp(),
            CoreConfig {
                rob: 16,
                issue_queue: 8,
                ..CoreConfig::cryocore_4_wide()
            },
        ];
        for t in &traces {
            for cfg in configs {
                let sim = CoreSimulator::new(cfg);
                let fresh = sim.run(t);
                let reused = sim.run_with_scratch(t, &mut scratch);
                assert_eq!(fresh, reused, "scratch reuse changed a result");
            }
        }
    }

    #[test]
    fn cache_capacity_shapes_ipc() {
        // Address-driven loads: a working set that fits L2 but not L1
        // must run faster on the real hierarchy than a pure streaming
        // scan, and a cold 77 K hierarchy beats the 300 K one.
        use crate::cache::{AddressModel, CacheHierarchy};
        let t = TraceConfig::parsec_like().generate(60_000, 11);
        let sim = CoreSimulator::new(CoreConfig::skylake_8_wide());

        let mut warm = CacheHierarchy::table4_300k();
        let mut warm_addrs = AddressModel::new(128 * 1024, 0.95, 1);
        let warm_ipc = sim.run_with_memory(&t, &mut warm, &mut warm_addrs).ipc();

        let mut cold = CacheHierarchy::table4_300k();
        let mut cold_addrs = AddressModel::new(1024, 0.0, 1);
        let cold_ipc = sim.run_with_memory(&t, &mut cold, &mut cold_addrs).ipc();
        assert!(
            warm_ipc > cold_ipc * 1.3,
            "cache-resident {warm_ipc} vs streaming {cold_ipc}"
        );

        let mut cryo = CacheHierarchy::table4_77k();
        let mut cryo_addrs = AddressModel::new(1024, 0.0, 1);
        let cryo_ipc = sim.run_with_memory(&t, &mut cryo, &mut cryo_addrs).ipc();
        assert!(
            cryo_ipc > cold_ipc,
            "77 K memory {cryo_ipc} should beat 300 K {cold_ipc} on misses"
        );
    }

    #[test]
    fn cpi_stack_components_sum_and_attribute() {
        let t = parsec(60_000);
        let sim = CoreSimulator::new(CoreConfig::skylake_8_wide());
        let stack = sim.cpi_stack(&t);
        let total: u64 = stack.iter().sum();
        let real = sim.run(&t).cycles;
        assert_eq!(total, real, "stack must sum to the real cycle count");
        assert!(stack[0] > 0, "base component");
        assert!(stack[3] > 0, "memory component");
        // A memory-heavy trace shifts the stack toward memory.
        let mut heavy = TraceConfig::parsec_like();
        heavy.load_miss_rate = 0.3;
        heavy.load_miss_latency = 80;
        let th = heavy.generate(60_000, 5);
        let hs = sim.cpi_stack(&th);
        let mem_frac = |s: [u64; 4]| s[3] as f64 / s.iter().sum::<u64>() as f64;
        assert!(mem_frac(hs) > mem_frac(stack));
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let _ = CoreSimulator::new(CoreConfig {
            width: 0,
            ..CoreConfig::skylake_8_wide()
        });
    }

    #[test]
    #[should_panic(expected = "queues must be non-empty")]
    fn zero_load_queue_rejected() {
        let _ = CoreSimulator::new(CoreConfig {
            load_queue: 0,
            ..CoreConfig::skylake_8_wide()
        });
    }
}
