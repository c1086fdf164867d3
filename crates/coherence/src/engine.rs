//! The run loop both coherence engines share, and the one-stop
//! [`CoherenceSystem`] facade.
//!
//! The snooping bus and the directory mesh, which
//! [`CoherenceSystem::run`] picks by fabric, share one run anatomy and
//! therefore one loop, here: per-core in-order streams with a single
//! MSHR each, the one-cycle hit path, completions delivered through a
//! delayed event queue, fault change points, an event skip driven by
//! the `issuable` core mask, and a progress watchdog. What a raised
//! miss does between issue and completion is the fabric's: the loop is
//! generic over a crate-private fabric step, the bus grant in
//! [`snoop`](mod@crate::snoop) or the home step in
//! [`directory`](mod@crate::directory), each beside its protocol. Both
//! are monomorphized, so the loop makes no dynamic call per cycle.
//! [`CoherenceScratch`] owns every reusable allocation so a sweep
//! re-runs hundreds of configs without steady-state allocation.
//!
//! Per-line state lives in **flat arenas** indexed by the trace's
//! interned line index ([`AccessTrace::line_indices`]): `latest`,
//! `memory`, the directory entries, and the MSHR line-blocking mask are
//! dense `Vec`s sized [`AccessTrace::num_lines`], so the hot loops
//! never hash. Per-core sets are `u128` bitmasks, so a run takes at
//! most 128 cores. The per-cycle model in `tests/oracle.rs`, which has
//! none of this machinery, must reproduce every run's outcome.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cryowire_faults::FaultSchedule;
use cryowire_memory::llc_path::CoherenceStyle;
use cryowire_memory::MemoryDesign;
use cryowire_noc::{CryoBus, MatrixArbiter, RouterNetwork, SharedBus};

use crate::cache::{CacheGeometry, LineState, PrivateCache};
use crate::directory::{DirEntry, HomeStep};
use crate::error::CoherenceError;
use crate::metrics::{CoherenceMetrics, CommitEntry};
use crate::snoop::{verify_all_line_invariants, verify_line_invariant, BusGrant, SnoopFabric};
use crate::timing::DirectoryTiming;
use crate::trace::AccessTrace;

/// Which per-line state machine the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Invalidation-based MESI (Illinois).
    Mesi,
    /// Update-based 4-state Dragon.
    Dragon,
}

/// Engine configuration shared by the snooping and directory variants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoherenceConfig {
    /// The protocol (the directory engine accepts only
    /// [`Protocol::Mesi`]).
    pub protocol: Protocol,
    /// Private-cache geometry.
    pub geometry: CacheGeometry,
    /// Progress-watchdog budget: the run aborts with
    /// [`CoherenceError::Stalled`] once the clock passes
    /// `accesses * this + 100_000` cycles.
    pub watchdog_cycles_per_access: u64,
    /// Record the serialization-order commit log (for the reference
    /// replay suite). Off in benchmarks.
    pub record_commits: bool,
}

impl Default for CoherenceConfig {
    fn default() -> Self {
        CoherenceConfig {
            protocol: Protocol::Mesi,
            geometry: CacheGeometry::default_l1(),
            watchdog_cycles_per_access: 10_000,
            record_commits: false,
        }
    }
}

/// What a run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Counters and timing.
    pub metrics: crate::metrics::CoherenceMetrics,
    /// Serialization-order commit log (empty unless
    /// [`CoherenceConfig::record_commits`]).
    pub commits: Vec<CommitEntry>,
}

/// A core's in-flight miss (its single MSHR).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingOp {
    pub(crate) line: u64,
    /// Interned line index — the dense arena key for `line`.
    pub(crate) idx: u32,
    /// Interleaving way serving `line` (`line % ways`), computed once at
    /// issue so the per-cycle grant and next-event scans compare instead
    /// of dividing. Unused (0) in the directory engine.
    pub(crate) way: u32,
    pub(crate) write: bool,
    pub(crate) issued_at: u64,
}

/// Reusable run state: caches, queues, per-line arenas, and every
/// formerly per-run buffer (arbiters, way/request scratch, fault change
/// points, the fault-epoch directory table). Reusing one scratch across
/// sweep points keeps the steady-state loop free of heap allocation —
/// the counting-allocator test in `tests/zero_alloc.rs` proves it.
#[derive(Debug, Default)]
pub struct CoherenceScratch {
    pub(crate) caches: Vec<PrivateCache>,
    pub(crate) geometry: Option<CacheGeometry>,
    /// Parked cache sets from geometries this scratch ran earlier, so
    /// runs cycling N geometries (a grid point's lanes) allocate each
    /// set once and then swap (generation-reset, O(1)) instead of
    /// rebuilding ~MBs of entry arrays per lane.
    cache_pool: Vec<(CacheGeometry, Vec<PrivateCache>)>,
    /// Latest committed version per interned line (the write serial).
    pub(crate) latest: Vec<u64>,
    /// Backing-store version per interned line (updated by
    /// flush/writeback).
    pub(crate) memory: Vec<u64>,
    pub(crate) pending: Vec<Option<PendingOp>>,
    pub(crate) ready_at: Vec<u64>,
    pub(crate) next_idx: Vec<usize>,
    /// MSHR line-blocking mask per interned line.
    pub(crate) inflight: Vec<bool>,
    /// Residency mask per interned line (snoop engine): bit `c` set
    /// while core `c`'s cache holds the line. Lets a granted
    /// transaction walk the actual holders instead of probing every
    /// peer cache; maintained at fill, eviction, and invalidation.
    pub(crate) holders: Vec<u128>,
    pub(crate) completions: BinaryHeap<Reverse<(u64, u64, usize)>>,
    pub(crate) commits: Vec<CommitEntry>,
    /// Directory state per interned line (directory engine only).
    pub(crate) dir: Vec<DirEntry>,
    /// Cycle each home directory is busy until (directory engine only).
    pub(crate) home_busy: Vec<u64>,
    /// One matrix arbiter per interleaving way (snoop engine), reset —
    /// not reallocated — between runs of the same shape.
    pub(crate) arbiters: Vec<MatrixArbiter>,
    pub(crate) arbiter_cores: usize,
    /// Cycle each way's data wires are held until (snoop engine).
    pub(crate) way_busy: Vec<u64>,
    /// Per-core request vector handed to the arbiter.
    pub(crate) req_buf: Vec<bool>,
    /// Per-way arbitration mask (snoop engine): bit `c` set iff core
    /// `c` has a raised request on that way whose line is not masked by
    /// an in-flight transaction. Maintained incrementally at issue,
    /// grant, and completion so the hot loop tests one word per way
    /// instead of scanning every core's MSHR.
    pub(crate) arb_mask: Vec<u128>,
    /// Fault-schedule change points, refilled in place per run.
    pub(crate) change_points: Vec<u64>,
    /// Fault-epoch directory table, rebuilt in place at change points.
    pub(crate) epoch_timing: Option<DirectoryTiming>,
}

impl CoherenceScratch {
    /// Fresh scratch.
    #[must_use]
    pub fn new() -> Self {
        CoherenceScratch::default()
    }

    /// Prepares the scratch for `cores` caches of `geometry` over
    /// `num_lines` interned lines, reallocating only when a shape grew.
    fn ensure(
        &mut self,
        cores: usize,
        geometry: CacheGeometry,
        num_lines: usize,
    ) -> Result<(), CoherenceError> {
        if self.caches.len() == cores && self.geometry == Some(geometry) {
            for c in &mut self.caches {
                c.reset();
            }
        } else {
            // Park the outgoing set and revive a pooled one when this
            // geometry ran before (the lane-batch fast path).
            if let Some(old_geometry) = self.geometry.take() {
                let old = std::mem::take(&mut self.caches);
                if !old.is_empty() {
                    self.cache_pool.push((old_geometry, old));
                }
            }
            let pooled = self
                .cache_pool
                .iter()
                .position(|(g, set)| *g == geometry && set.len() == cores);
            if let Some(i) = pooled {
                self.caches = self.cache_pool.swap_remove(i).1;
                for c in &mut self.caches {
                    c.reset();
                }
            } else {
                self.caches.clear();
                for _ in 0..cores {
                    self.caches.push(PrivateCache::new(geometry)?);
                }
            }
            self.geometry = Some(geometry);
        }
        self.latest.clear();
        self.latest.resize(num_lines, 0);
        self.memory.clear();
        self.memory.resize(num_lines, 0);
        self.inflight.clear();
        self.inflight.resize(num_lines, false);
        self.holders.clear();
        self.holders.resize(num_lines, 0);
        self.dir.clear();
        self.dir.resize(num_lines, DirEntry::default());
        self.pending.clear();
        self.pending.resize(cores, None);
        self.ready_at.clear();
        self.ready_at.resize(cores, 0);
        self.next_idx.clear();
        self.next_idx.resize(cores, 0);
        self.completions.clear();
        self.commits.clear();
        Ok(())
    }
}

/// The fabric half of a run: how a raised miss serializes. The loop
/// calls each hook at a fixed point of its cycle; the defaults suit a
/// fabric that rescans its raised requests every cycle it serves.
pub(crate) trait FabricStep {
    /// Re-prices the fabric under the faults active at `cycle`, a fault
    /// change point.
    fn reprice(&mut self, cycle: u64) -> Result<(), CoherenceError>;

    /// The interleaving way serving `line`, carried in the MSHR.
    fn way_of(&self, _line: u64) -> u32 {
        0
    }

    /// Core `core` just raised its miss `op`.
    fn raise(&mut self, _core: usize, _op: PendingOp, _scratch: &mut CoherenceScratch) {}

    /// `op`'s transaction completed and unblocked its line; `raised`
    /// holds the cores whose requests still wait to serialize.
    fn line_freed(&mut self, _op: PendingOp, _raised: u128, _scratch: &mut CoherenceScratch) {}

    /// Serializes what the fabric takes at `cycle`, each transaction
    /// through [`RunState::commit`].
    fn serve(&mut self, cycle: u64, run: &mut RunState, scratch: &mut CoherenceScratch);

    /// The earliest cycle at which the fabric can serve a raised
    /// request again (`u64::MAX` for none); `change` is the next fault
    /// change point.
    fn next_event(&self, raised: u128, change: Option<u64>, scratch: &CoherenceScratch) -> u64;
}

/// What the loop shares with its fabric step during one run.
pub(crate) struct RunState {
    pub(crate) protocol: Protocol,
    pub(crate) metrics: CoherenceMetrics,
    /// Bit `c` set while core `c`'s miss waits for the fabric to
    /// serialize it.
    pub(crate) raised: u128,
    record_commits: bool,
    /// Tie-breaker of completions due in the same cycle: serialization
    /// order.
    seq: u64,
}

impl RunState {
    /// Records one serialized access in the commit log, if the run
    /// keeps one.
    fn record(&self, commits: &mut Vec<CommitEntry>, core: usize, line: u64, write: bool, v: u64) {
        if self.record_commits {
            commits.push(CommitEntry {
                core,
                line,
                write,
                version: v,
            });
        }
    }

    /// Commits `core`'s transaction `op` at the fabric's serialization
    /// point: logs the committed `version`, blocks the line until the
    /// data arrives, and queues the completion at cycle `done`.
    pub(crate) fn commit(
        &mut self,
        core: usize,
        op: PendingOp,
        version: u64,
        done: u64,
        scratch: &mut CoherenceScratch,
    ) {
        debug_assert!(
            verify_line_invariant(
                self.protocol,
                &scratch.caches,
                op.line,
                scratch.latest[op.idx as usize]
            ),
            "protocol invariant broken serializing line {}",
            op.line
        );
        self.record(&mut scratch.commits, core, op.line, op.write, version);
        self.raised &= !(1u128 << core);
        scratch.inflight[op.idx as usize] = true;
        self.seq += 1;
        scratch.completions.push(Reverse((done, self.seq, core)));
    }

    /// Counts one completed access of `latency` cycles that ended at
    /// cycle `end`.
    fn retire(&mut self, write: bool, latency: u64, end: u64) {
        let m = &mut self.metrics;
        m.accesses += 1;
        if write {
            m.writes += 1;
        } else {
            m.reads += 1;
        }
        m.total_latency_cycles += latency;
        m.max_latency_cycles = m.max_latency_cycles.max(latency);
        m.cycles = m.cycles.max(end);
    }
}

/// Moves `core` past its retired reference: the next one is ready its
/// think time after cycle `free`. Returns `issuable` with the core's
/// bit set while its stream lasts.
fn advance(
    core: usize,
    free: u64,
    issuable: u128,
    trace: &AccessTrace,
    scratch: &mut CoherenceScratch,
) -> u128 {
    scratch.next_idx[core] += 1;
    match trace.stream(core).get(scratch.next_idx[core]) {
        Some(a) => {
            scratch.ready_at[core] = free + u64::from(a.think);
            issuable | 1u128 << core
        }
        None => {
            scratch.ready_at[core] = free;
            issuable & !(1u128 << core)
        }
    }
}

/// Runs `trace` to completion with `fabric` serializing the misses, on
/// a scratch [`CoherenceScratch::ensure`] prepared.
fn run_loop<F: FabricStep>(
    fabric: &mut F,
    trace: &AccessTrace,
    config: &CoherenceConfig,
    schedule: Option<&FaultSchedule>,
    scratch: &mut CoherenceScratch,
) -> Result<RunOutcome, CoherenceError> {
    let total = trace.total_accesses();
    let watchdog_limit = total
        .saturating_mul(config.watchdog_cycles_per_access)
        .saturating_add(100_000);
    match schedule {
        Some(s) => s.change_points_into(&mut scratch.change_points),
        None => scratch.change_points.clear(),
    }
    let mut change_idx = 0;
    let mut run = RunState {
        protocol: config.protocol,
        metrics: CoherenceMetrics::default(),
        raised: 0,
        record_commits: config.record_commits,
        seq: 0,
    };
    let mut cycle = 0u64;
    let stalled = |cycle, completed| CoherenceError::Stalled {
        cycle,
        completed,
        pending: total - completed,
    };

    // Initial think time before each core's first reference. Bit `c` of
    // `issuable` is set while core `c` has no MSHR in use and
    // references left in its stream — the only cores the issue and
    // next-event steps ever look at.
    let mut issuable: u128 = 0;
    for core in 0..trace.cores() {
        scratch.ready_at[core] = trace.stream(core).first().map_or(0, |a| u64::from(a.think));
        if !trace.stream(core).is_empty() {
            issuable |= 1u128 << core;
        }
    }

    loop {
        if cycle > watchdog_limit {
            return Err(stalled(cycle, run.metrics.accesses));
        }
        // Fault epoch: re-price the fabric past each change point.
        while change_idx < scratch.change_points.len() && cycle >= scratch.change_points[change_idx]
        {
            fabric.reprice(cycle)?;
            change_idx += 1;
        }

        // 1. Deliver due completions: data arrives, the MSHR frees.
        while let Some(&Reverse((when, _, core))) = scratch.completions.peek() {
            if when > cycle {
                break;
            }
            scratch.completions.pop();
            let op = scratch.pending[core]
                .take()
                .expect("completion without MSHR");
            scratch.inflight[op.idx as usize] = false;
            fabric.line_freed(op, run.raised, scratch);
            run.metrics.misses += 1;
            run.retire(op.write, when - op.issued_at, when);
            issuable = advance(core, when + 1, issuable, trace, scratch);
        }

        // 2. Ready cores issue their next reference: a hit completes in
        //    one cycle, a miss takes the MSHR and raises a request.
        let mut issue = issuable;
        while issue != 0 {
            let core = issue.trailing_zeros() as usize;
            issue &= issue - 1;
            if scratch.ready_at[core] > cycle {
                continue;
            }
            let at = scratch.next_idx[core];
            let a = trace.stream(core)[at];
            let idx = trace.line_indices(core)[at];
            // The interned table already holds `line_of(a.addr)`.
            let line = trace.lines()[idx as usize];
            let probed = scratch.caches[core].probe(line);
            let state = probed.map_or(LineState::Invalid, |(s, _)| s);
            let hit = match (a.write, state) {
                (false, s) if s.is_present() => true,
                (true, LineState::Modified | LineState::Exclusive) => true,
                _ => false,
            };
            if hit {
                let version = if a.write {
                    // Silent E→M: an exclusive holder owes the fabric
                    // nothing (a directory already tracks it as owner).
                    scratch.latest[idx as usize] += 1;
                    let v = scratch.latest[idx as usize];
                    scratch.caches[core].update(line, LineState::Modified, Some(v));
                    v
                } else {
                    let v = probed.expect("hit line is resident").1;
                    debug_assert_eq!(
                        v, scratch.latest[idx as usize],
                        "read hit observed a stale version on line {line}"
                    );
                    v
                };
                run.record(&mut scratch.commits, core, line, a.write, version);
                run.metrics.hits += 1;
                run.retire(a.write, 1, cycle + 1);
                issuable = advance(core, cycle + 1, issuable, trace, scratch);
            } else {
                let op = PendingOp {
                    line,
                    idx,
                    way: fabric.way_of(line),
                    write: a.write,
                    issued_at: cycle,
                };
                scratch.pending[core] = Some(op);
                run.raised |= 1u128 << core;
                issuable &= !(1u128 << core);
                fabric.raise(core, op, scratch);
            }
        }

        // 3. The fabric serializes what it can take this cycle.
        fabric.serve(cycle, &mut run, scratch);

        // 4. Done?
        if run.metrics.accesses == total && scratch.completions.is_empty() {
            break;
        }

        // 5. Jump to the next interesting cycle.
        let change = scratch.change_points.get(change_idx).copied();
        let mut next = fabric.next_event(run.raised, change, scratch);
        if let Some(&Reverse((when, _, _))) = scratch.completions.peek() {
            next = next.min(when);
        }
        let mut waiting = issuable;
        while waiting != 0 {
            let core = waiting.trailing_zeros() as usize;
            waiting &= waiting - 1;
            next = next.min(scratch.ready_at[core]);
        }
        if next == u64::MAX {
            // No event can ever fire again; only legal if finished.
            return Err(stalled(cycle, run.metrics.accesses));
        }
        cycle = next.max(cycle + 1);
    }

    debug_assert!(verify_all_line_invariants(
        config.protocol,
        &scratch.caches,
        trace.lines(),
        &scratch.latest
    ));
    Ok(RunOutcome {
        metrics: run.metrics,
        commits: std::mem::take(&mut scratch.commits),
    })
}

/// The interconnect a [`CoherenceSystem`] owns.
#[derive(Debug)]
pub enum SystemFabric {
    /// The paper's 77 K H-tree snooping bus.
    CryoBus(CryoBus),
    /// A conventional shared snooping bus.
    SharedBus(SharedBus),
    /// A router mesh carrying directory messages at `clock_ghz`.
    Mesh {
        /// The routed network.
        network: RouterNetwork,
        /// Network clock, GHz (prices the L3 fill).
        clock_ghz: f64,
    },
}

/// One coherent multi-core system: a fabric, a memory design and, on a
/// mesh, the fabric's amortized [`DirectoryTiming`]. The facade the
/// sweeps and the integration tests drive; the engine configuration —
/// protocol, private-cache geometry, watchdog, commit recording — is a
/// property of each run, not of the system.
///
/// A directory system computes its fault-free [`DirectoryTiming`] table
/// once at construction, so every fault-free run (a lane batch is the
/// caller's loop over one system and one scratch) shares one amortized
/// routed-path table instead of recomputing `nodes²` paths per run.
#[derive(Debug)]
pub struct CoherenceSystem {
    fabric: SystemFabric,
    mem: MemoryDesign,
    /// Fault-free routed-path table (mesh fabrics only).
    dir_timing: Option<DirectoryTiming>,
}

impl CoherenceSystem {
    /// A snooping system over a bus fabric.
    ///
    /// # Errors
    ///
    /// [`CoherenceError::InvalidConfig`] if `fabric` is a mesh (snooping
    /// broadcasts; a routed mesh carries directory traffic).
    pub fn snooping(fabric: SystemFabric, mem: MemoryDesign) -> Result<Self, CoherenceError> {
        if matches!(fabric, SystemFabric::Mesh { .. }) {
            return Err(CoherenceError::InvalidConfig {
                reason: "snooping needs a broadcast bus, not a routed mesh".to_string(),
            });
        }
        Ok(CoherenceSystem {
            fabric,
            mem,
            dir_timing: None,
        })
    }

    /// A directory system over a routed mesh.
    ///
    /// # Errors
    ///
    /// [`CoherenceError::InvalidConfig`] for an empty network.
    pub fn directory(
        network: RouterNetwork,
        clock_ghz: f64,
        mem: MemoryDesign,
    ) -> Result<Self, CoherenceError> {
        let dir_timing = Some(DirectoryTiming::from_network(&network, &mem, clock_ghz)?);
        Ok(CoherenceSystem {
            fabric: SystemFabric::Mesh { network, clock_ghz },
            mem,
            dir_timing,
        })
    }

    /// The coherence style this system models.
    #[must_use]
    pub fn style(&self) -> CoherenceStyle {
        match self.fabric {
            SystemFabric::Mesh { .. } => CoherenceStyle::Directory,
            _ => CoherenceStyle::Snooping,
        }
    }

    /// Runs `trace` under `config` and an optional fault schedule,
    /// reusing `scratch`. Runs that share a system and a scratch — the
    /// lanes of a grid point that differ only in engine config — share
    /// the interned trace's arenas, the directory path table and every
    /// scratch buffer, and each is bit-identical to a run on a fresh
    /// system and scratch; under a `schedule` each run derives its
    /// fault epochs afresh.
    ///
    /// # Errors
    ///
    /// [`CoherenceError::InvalidConfig`] for a Dragon `config` on a
    /// directory system (the directory engine is MESI-only — update
    /// broadcasts do not map to point-to-point forwarding), an invalid
    /// geometry, a trace of more than 128 cores, or more cores than a
    /// mesh has nodes (each core is attached to one node);
    /// [`CoherenceError::Stalled`] if the watchdog fires — e.g. a fault
    /// severed every route between a core and a line's home.
    pub fn run(
        &self,
        trace: &AccessTrace,
        config: &CoherenceConfig,
        schedule: Option<&FaultSchedule>,
        scratch: &mut CoherenceScratch,
    ) -> Result<RunOutcome, CoherenceError> {
        let invalid = |reason: String| Err(CoherenceError::InvalidConfig { reason });
        let cores = trace.cores();
        if self.dir_timing.is_some() && config.protocol == Protocol::Dragon {
            return invalid("the directory engine supports MESI only".to_string());
        }
        config.geometry.validate()?;
        if cores > 128 {
            return invalid(format!("the engines model up to 128 cores, got {cores}"));
        }
        if let Some(base) = &self.dir_timing {
            if cores > base.nodes() {
                return invalid(format!(
                    "a mesh attaches one core per node, got {cores} cores over {} nodes",
                    base.nodes()
                ));
            }
        }
        scratch.ensure(cores, config.geometry, trace.num_lines())?;
        let bus = match &self.fabric {
            SystemFabric::CryoBus(bus) => SnoopFabric::CryoBus(bus),
            SystemFabric::SharedBus(bus) => SnoopFabric::SharedBus(bus),
            SystemFabric::Mesh { network, clock_ghz } => {
                let base = self.dir_timing.as_ref().expect("a mesh prices its paths");
                let mut home =
                    HomeStep::new(network, *clock_ghz, &self.mem, schedule, base, scratch);
                // Under a schedule, the epoch table is built for cycle 0
                // before the loop starts.
                let result = home
                    .reprice(0)
                    .and_then(|()| run_loop(&mut home, trace, config, schedule, scratch));
                home.restore(scratch);
                return result;
            }
        };
        let mut grant = BusGrant::new(bus, &self.mem, schedule, scratch);
        run_loop(&mut grant, trace, config, schedule, scratch)
    }
}
