//! Shared engine plumbing and the one-stop [`CoherenceSystem`] facade.
//!
//! Both cycle-level engines — the snooping bus ([`SnoopEngine`]) and
//! the directory mesh ([`DirectoryEngine`]) — share the same run
//! anatomy: per-core in-order streams with a single MSHR each,
//! transitions applied at the fabric serialization point, completions
//! delivered through a delayed event queue, and a progress watchdog.
//! The types here hold that shared state; [`CoherenceScratch`] owns
//! every reusable allocation so a sweep re-runs hundreds of configs
//! without steady-state allocation (the PR-3/PR-4 discipline).
//!
//! Per-line state lives in **flat arenas** indexed by the trace's
//! interned line index ([`AccessTrace::line_indices`]): `latest`,
//! `memory`, the directory entries, and the MSHR line-blocking mask are
//! dense `Vec`s sized [`AccessTrace::num_lines`], so the hot loops
//! never hash. Directory sharer sets are `u128` bitmasks (≤ 128
//! cores). The retained hash-map engines live in [`crate::baseline`]
//! (behind `reference-sim`) as the bit-identity oracle and the
//! denominator of the `bench-engines` coherence speedup.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cryowire_faults::FaultSchedule;
use cryowire_memory::llc_path::CoherenceStyle;
use cryowire_memory::MemoryDesign;
use cryowire_noc::{CryoBus, MatrixArbiter, RouterNetwork, SharedBus};

use crate::cache::{CacheGeometry, PrivateCache};
use crate::directory::DirectoryEngine;
use crate::error::CoherenceError;
use crate::metrics::CommitEntry;
use crate::snoop::{SnoopEngine, SnoopFabric};
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

impl Protocol {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Mesi => "MESI",
            Protocol::Dragon => "Dragon",
        }
    }
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

/// A directory entry: the exclusive holder (E or M — E can upgrade
/// silently, so the home must treat it as a potential owner) and the
/// S-state sharer bitmask (`u128`, so the mesh engine scales to 128
/// cores).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DirEntry {
    pub(crate) owner: Option<usize>,
    pub(crate) sharers: u128,
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
    /// Parked cache sets from geometries this scratch ran earlier, so a
    /// lane batch cycling N geometries allocates each set once and then
    /// swaps (generation-reset, O(1)) instead of rebuilding ~MBs of
    /// entry arrays per lane.
    cache_pool: Vec<(CacheGeometry, Vec<PrivateCache>)>,
    /// Latest committed version per interned line (the write serial).
    pub(crate) latest: Vec<u64>,
    /// Backing-store version per interned line (updated by
    /// flush/writeback).
    pub(crate) memory: Vec<u64>,
    pub(crate) requests: Vec<bool>,
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
    pub(crate) fn ensure(
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
        self.requests.clear();
        self.requests.resize(cores, false);
        self.pending.clear();
        self.pending.resize(cores, None);
        self.ready_at.clear();
        self.ready_at.resize(cores, 0);
        self.next_idx.clear();
        self.next_idx.resize(cores, 0);
        self.completions.clear();
        self.commits.clear();
        self.home_busy.clear();
        Ok(())
    }

    /// Prepares the snoop engine's arbitration scratch: one matrix
    /// arbiter per way, reset in place when the shape is unchanged.
    pub(crate) fn ensure_arbiters(&mut self, ways: usize, cores: usize) {
        if self.arbiters.len() != ways || self.arbiter_cores != cores {
            self.arbiters.clear();
            self.arbiters
                .extend((0..ways).map(|_| MatrixArbiter::new(cores)));
            self.arbiter_cores = cores;
        } else {
            for a in &mut self.arbiters {
                a.reset();
            }
        }
        self.way_busy.clear();
        self.way_busy.resize(ways, 0);
        self.req_buf.clear();
        self.req_buf.resize(cores, false);
        self.arb_mask.clear();
        self.arb_mask.resize(ways, 0);
    }
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

/// One coherent multi-core configuration: protocol + fabric + memory.
/// The facade the sweeps and the integration tests drive.
///
/// A directory system computes its fault-free [`DirectoryTiming`] table
/// once at construction, so every fault-free run (and every lane of a
/// [`CoherenceSystem::run_batch_with`] batch) shares one amortized
/// routed-path table instead of recomputing `nodes²` paths per run.
#[derive(Debug)]
pub struct CoherenceSystem {
    config: CoherenceConfig,
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
    /// broadcasts; a routed mesh carries directory traffic), or if the
    /// geometry is invalid.
    pub fn snooping(
        fabric: SystemFabric,
        mem: MemoryDesign,
        config: CoherenceConfig,
    ) -> Result<Self, CoherenceError> {
        if matches!(fabric, SystemFabric::Mesh { .. }) {
            return Err(CoherenceError::InvalidConfig {
                reason: "snooping needs a broadcast bus, not a routed mesh".to_string(),
            });
        }
        config.geometry.validate()?;
        Ok(CoherenceSystem {
            config,
            fabric,
            mem,
            dir_timing: None,
        })
    }

    /// A directory system over a routed mesh.
    ///
    /// # Errors
    ///
    /// [`CoherenceError::InvalidConfig`] for a Dragon protocol (the
    /// directory engine is MESI-only — update broadcasts do not map to
    /// point-to-point forwarding), an invalid geometry, or an empty
    /// network.
    pub fn directory(
        network: RouterNetwork,
        clock_ghz: f64,
        mem: MemoryDesign,
        config: CoherenceConfig,
    ) -> Result<Self, CoherenceError> {
        if config.protocol == Protocol::Dragon {
            return Err(CoherenceError::InvalidConfig {
                reason: "the directory engine supports MESI only".to_string(),
            });
        }
        config.geometry.validate()?;
        let dir_timing = Some(DirectoryTiming::from_network(&network, &mem, clock_ghz)?);
        Ok(CoherenceSystem {
            config,
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

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &CoherenceConfig {
        &self.config
    }

    /// Display name, e.g. `MESI-snooping/CryoBus(64)`.
    #[must_use]
    pub fn name(&self) -> String {
        let fabric = match &self.fabric {
            SystemFabric::CryoBus(b) => cryowire_noc::Network::name(b),
            SystemFabric::SharedBus(b) => cryowire_noc::Network::name(b),
            SystemFabric::Mesh { network, .. } => cryowire_noc::Network::name(network),
        };
        let style = match self.style() {
            CoherenceStyle::Snooping => "snooping",
            CoherenceStyle::Directory => "directory",
        };
        format!("{}-{style}/{fabric}", self.config.protocol.name())
    }

    /// Runs `trace` with a fresh scratch and no faults.
    ///
    /// # Errors
    ///
    /// [`CoherenceError::Stalled`] if the watchdog fires.
    pub fn run(&self, trace: &AccessTrace) -> Result<RunOutcome, CoherenceError> {
        let mut scratch = CoherenceScratch::new();
        self.run_with(trace, None, &mut scratch)
    }

    /// Runs `trace` under an optional fault schedule, reusing `scratch`.
    ///
    /// # Errors
    ///
    /// [`CoherenceError::Stalled`] if the watchdog fires — e.g. a fault
    /// severed every route between a core and a line's home.
    pub fn run_with(
        &self,
        trace: &AccessTrace,
        schedule: Option<&FaultSchedule>,
        scratch: &mut CoherenceScratch,
    ) -> Result<RunOutcome, CoherenceError> {
        self.run_lane(&self.config, trace, schedule, scratch)
    }

    /// Runs `trace` once per lane config over this system's fabric, the
    /// lanes one after another over one warm scratch: the interned
    /// trace, the system's directory path table and every arena buffer
    /// are shared across lanes, so N grid points that differ only in
    /// engine config pay the trace interning and directory pricing
    /// once. Outcomes come back in lane order and are bit-identical to
    /// running each lane alone; under a `schedule` each lane re-derives
    /// its fault epochs exactly as a scalar run would.
    #[must_use]
    pub fn run_batch_with(
        &self,
        trace: &AccessTrace,
        lanes: &[CoherenceConfig],
        schedule: Option<&FaultSchedule>,
        scratch: &mut CoherenceScratch,
    ) -> Vec<Result<RunOutcome, CoherenceError>> {
        lanes
            .iter()
            .map(|cfg| self.run_lane(cfg, trace, schedule, scratch))
            .collect()
    }

    /// One lane: this system's fabric under `config`.
    fn run_lane(
        &self,
        config: &CoherenceConfig,
        trace: &AccessTrace,
        schedule: Option<&FaultSchedule>,
        scratch: &mut CoherenceScratch,
    ) -> Result<RunOutcome, CoherenceError> {
        match &self.fabric {
            SystemFabric::CryoBus(bus) => SnoopEngine::new(*config)?.run_with_scratch(
                trace,
                SnoopFabric::CryoBus(bus),
                &self.mem,
                schedule,
                scratch,
            ),
            SystemFabric::SharedBus(bus) => SnoopEngine::new(*config)?.run_with_scratch(
                trace,
                SnoopFabric::SharedBus(bus),
                &self.mem,
                schedule,
                scratch,
            ),
            SystemFabric::Mesh { network, clock_ghz } => DirectoryEngine::new(*config)?
                .run_with_scratch_base(
                    trace,
                    network,
                    *clock_ghz,
                    &self.mem,
                    schedule,
                    scratch,
                    self.dir_timing.as_ref(),
                ),
        }
    }
}
