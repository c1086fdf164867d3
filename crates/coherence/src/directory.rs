//! The directory fabric: the home step and MESI over a routed mesh.
//!
//! Every line has a static home node (`line % nodes`) holding its
//! directory entry and L3 slice. The run loop in
//! [`engine`](mod@crate::engine) raises each miss; this module's step
//! sends it to the home, which serializes transactions per line,
//! forwards to the current owner for cache-to-cache data, fans out
//! invalidations to sharers in parallel, and replies with data or an
//! acknowledgement. Message latencies come from the network's actual
//! routed paths ([`DirectoryTiming`]) — including detours around dead
//! routers/links from a fault schedule; a pair with no surviving route
//! leaves its request raised until a later fault epoch heals it or the
//! progress watchdog converts the hang into a typed
//! [`CoherenceError::Stalled`].
//!
//! Directory entries live in a flat `Vec` indexed by the trace's
//! interned line index, with sharers as a `u128` bitmask; the
//! fault-free routed-latency table is built once per
//! [`CoherenceSystem`](crate::CoherenceSystem) and shared across its
//! runs, so a fault-free run pays zero path computations — only fault
//! epochs rebuild the table, in place, into the scratch's cached epoch
//! buffer.
//!
//! The engine is MESI-only: Dragon's word-update broadcasts have no
//! point-to-point analogue worth modelling here.

use cryowire_faults::FaultSchedule;
use cryowire_memory::MemoryDesign;
use cryowire_noc::RouterNetwork;

use crate::cache::LineState;
use crate::engine::{CoherenceScratch, FabricStep, PendingOp, RunState};
use crate::error::CoherenceError;
use crate::metrics::CoherenceMetrics;
use crate::timing::DirectoryTiming;

/// A directory entry: the exclusive holder (E or M — E can upgrade
/// silently, so the home must treat it as a potential owner) and the
/// S-state sharer bitmask.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DirEntry {
    pub(crate) owner: Option<usize>,
    pub(crate) sharers: u128,
}

/// The home step: the directory fabric's step of the shared run loop.
pub(crate) struct HomeStep<'a> {
    network: &'a RouterNetwork,
    clock_ghz: f64,
    mem: &'a MemoryDesign,
    schedule: Option<&'a FaultSchedule>,
    /// The system's fault-free table, which a fault-free run prices
    /// through.
    base: &'a DirectoryTiming,
    /// The fault-epoch table a run under a schedule prices through,
    /// detached from the scratch so `base` and the loop's scratch
    /// borrow never alias it; [`HomeStep::restore`] puts it back so
    /// its allocation survives across runs.
    epoch: Option<DirectoryTiming>,
}

impl<'a> HomeStep<'a> {
    /// Detaches the scratch's epoch table and readies one idle home
    /// per node.
    pub(crate) fn new(
        network: &'a RouterNetwork,
        clock_ghz: f64,
        mem: &'a MemoryDesign,
        schedule: Option<&'a FaultSchedule>,
        base: &'a DirectoryTiming,
        scratch: &mut CoherenceScratch,
    ) -> Self {
        scratch.home_busy.clear();
        scratch.home_busy.resize(base.nodes(), 0);
        HomeStep {
            network,
            clock_ghz,
            mem,
            schedule,
            base,
            epoch: scratch.epoch_timing.take(),
        }
    }

    /// Returns the epoch table to the scratch.
    pub(crate) fn restore(self, scratch: &mut CoherenceScratch) {
        scratch.epoch_timing = self.epoch;
    }

    /// The table the current epoch prices through.
    fn timing(&self) -> &DirectoryTiming {
        match self.schedule {
            Some(_) => self.epoch.as_ref().expect("epoch table built at cycle 0"),
            None => self.base,
        }
    }
}

impl FabricStep for HomeStep<'_> {
    /// Rebuilds the epoch table in place under the faults active at
    /// `cycle`; a fault-free run never computes a path at all.
    fn reprice(&mut self, cycle: u64) -> Result<(), CoherenceError> {
        let Some(schedule) = self.schedule else {
            return Ok(());
        };
        let dead = schedule.dead_resources_at(cycle);
        match &mut self.epoch {
            Some(t) => t.rebuild_avoiding(self.network, self.mem, self.clock_ghz, &dead),
            None => {
                self.epoch = Some(DirectoryTiming::from_network_avoiding(
                    self.network,
                    self.mem,
                    self.clock_ghz,
                    &dead,
                )?);
                Ok(())
            }
        }
    }

    /// Homes process the unmasked raised requests in core order (the
    /// per-line in-flight mask keeps serialization).
    fn serve(&mut self, cycle: u64, run: &mut RunState, scratch: &mut CoherenceScratch) {
        let timing = self.timing();
        let nodes = timing.nodes();
        let mut raised = run.raised;
        while raised != 0 {
            let core = raised.trailing_zeros() as usize;
            raised &= raised - 1;
            let op = scratch.pending[core].expect("raised request has an MSHR");
            if scratch.inflight[op.idx as usize] {
                continue;
            }
            // Resolve every leg first; an unreachable pair leaves the
            // request raised (a later fault epoch may heal it,
            // otherwise the watchdog reports the stall).
            let Some(plan) = plan(core, op, timing, scratch) else {
                continue;
            };
            let stall = self
                .schedule
                .map_or(0, |s| s.stall_cycles(nodes * nodes + plan.home, cycle));
            let arrival = cycle + stall + plan.req_lat;
            let start = arrival.max(scratch.home_busy[plan.home]);
            let after_dir = start + timing.dir_occupancy_cycles;
            scratch.home_busy[plan.home] = after_dir;
            run.metrics.fabric_busy_cycles += timing.dir_occupancy_cycles;
            let (chain, version) = apply(core, op, &plan, timing, scratch, &mut run.metrics);
            run.commit(core, op, version, after_dir + chain, scratch);
        }
    }

    /// An unreachable raised request can only be healed by a later
    /// fault epoch.
    fn next_event(&self, raised: u128, change: Option<u64>, _: &CoherenceScratch) -> u64 {
        match change {
            Some(change) if raised != 0 => change,
            _ => u64::MAX,
        }
    }
}

/// The routed legs one transaction needs, resolved before any state is
/// touched so an unreachable pair leaves the request pending instead of
/// half-applied.
struct TxPlan {
    home: usize,
    req_lat: u64,
    reply_lat: u64,
    owner: Option<(usize, u64, u64)>,
    inval_chain: u64,
    sharer_count: u64,
}

/// Resolves the routed legs a transaction needs; `None` when any
/// required pair is unreachable under the current dead set.
fn plan(
    core: usize,
    op: PendingOp,
    timing: &DirectoryTiming,
    scratch: &CoherenceScratch,
) -> Option<TxPlan> {
    let home = timing.home_of(op.line);
    let req_lat = timing.one_way(core, home)?;
    let reply_lat = timing.one_way(home, core)?;
    let entry = scratch.dir[op.idx as usize];
    let owner = match entry.owner {
        Some(o) if o != core => {
            let fwd = timing.one_way(home, o)?;
            let data = timing.one_way(o, core)?;
            Some((o, fwd, data))
        }
        _ => None,
    };
    let mut inval_chain = 0u64;
    let mut sharer_count = 0u64;
    if op.write {
        // Walk only the set bits (ascending, same order as the old
        // 0..cores scan).
        let mut mask = entry.sharers & !(1u128 << core);
        while mask != 0 {
            let s = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            // Invalidate + ack round trip; fan-out is parallel,
            // the slowest sharer gates the chain.
            inval_chain = inval_chain.max(2 * timing.one_way(home, s)?);
            sharer_count += 1;
        }
    }
    Some(TxPlan {
        home,
        req_lat,
        reply_lat,
        owner,
        inval_chain,
        sharer_count,
    })
}

/// Applies one transaction's transitions at the home's
/// serialization point; returns the post-directory latency chain
/// and the committed version.
fn apply(
    core: usize,
    op: PendingOp,
    plan: &TxPlan,
    timing: &DirectoryTiming,
    scratch: &mut CoherenceScratch,
    metrics: &mut CoherenceMetrics,
) -> (u64, u64) {
    let line = op.line;
    let li = op.idx as usize;
    let here = scratch.caches[core].state(line);
    metrics.network_messages += 1; // the request itself
    if op.write {
        if here == LineState::Shared {
            // Upgrade: invalidate the other sharers, home acks.
            invalidate_sharers(core, op, scratch, metrics, plan.sharer_count);
            scratch.latest[li] += 1;
            let v = scratch.latest[li];
            scratch.caches[core].update(line, LineState::Modified, Some(v));
            let e = &mut scratch.dir[li];
            e.owner = Some(core);
            e.sharers = 0;
            metrics.network_messages += 1; // the ack
            metrics.upgrades += 1;
            return (plan.inval_chain + plan.reply_lat, v);
        }
        // RdX: fetch-and-own; owner forwards, sharers invalidate.
        let mut chain = plan.inval_chain;
        invalidate_sharers(core, op, scratch, metrics, plan.sharer_count);
        if let Some((owner, fwd, data)) = plan.owner {
            let ov = scratch.caches[owner]
                .invalidate_returning_version(line)
                .expect("owner resident");
            debug_assert_eq!(ov, scratch.latest[li]);
            metrics.invalidations += 1;
            metrics.network_messages += 3; // fwd + data + home ack
            metrics.c2c_transfers += 1;
            chain = chain
                .max(fwd + data + timing.line_beats)
                .max(plan.reply_lat);
        } else {
            metrics.network_messages += 1; // data from the home slice
            metrics.fills += 1;
            chain = chain.max(timing.fill_cycles + plan.reply_lat + timing.line_beats);
        }
        scratch.latest[li] += 1;
        let v = scratch.latest[li];
        fill(core, line, op.idx, LineState::Modified, v, scratch, metrics);
        let e = &mut scratch.dir[li];
        e.owner = Some(core);
        e.sharers = 0;
        (chain, v)
    } else {
        // BusRd analogue: owner forwards and demotes, else the home
        // slice supplies.
        if let Some((owner, fwd, data)) = plan.owner {
            let (_, v) = scratch.caches[owner]
                .transition(line, |_| LineState::Shared)
                .expect("owner resident");
            debug_assert_eq!(v, scratch.latest[li]);
            scratch.memory[li] = v;
            metrics.network_messages += 2; // fwd + data
            metrics.c2c_transfers += 1;
            fill(core, line, op.idx, LineState::Shared, v, scratch, metrics);
            let e = &mut scratch.dir[li];
            e.owner = None;
            e.sharers |= (1u128 << owner) | (1u128 << core);
            (fwd + data + timing.line_beats, v)
        } else {
            let shared = scratch.dir[li].sharers != 0;
            let v = scratch.memory[li];
            debug_assert_eq!(v, scratch.latest[li]);
            metrics.network_messages += 1; // data from the home slice
            metrics.fills += 1;
            let state = if shared {
                LineState::Shared
            } else {
                LineState::Exclusive
            };
            {
                let e = &mut scratch.dir[li];
                if shared {
                    e.sharers |= 1u128 << core;
                } else {
                    e.owner = Some(core);
                }
            }
            fill(core, line, op.idx, state, v, scratch, metrics);
            (timing.fill_cycles + plan.reply_lat + timing.line_beats, v)
        }
    }
}

/// Invalidates every S-state copy other than `core`'s, keeping the
/// directory exact.
fn invalidate_sharers(
    core: usize,
    op: PendingOp,
    scratch: &mut CoherenceScratch,
    metrics: &mut CoherenceMetrics,
    sharer_count: u64,
) {
    let li = op.idx as usize;
    let mut mask = scratch.dir[li].sharers & !(1u128 << core);
    while mask != 0 {
        let s = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        scratch.caches[s].invalidate(op.line);
    }
    scratch.dir[li].sharers &= 1u128 << core;
    metrics.invalidations += sharer_count;
    metrics.network_messages += 2 * sharer_count; // inv + ack each
}

/// Fills `line` into `core`'s cache, notifying the victim's home on
/// eviction (writeback when dirty) so a later read refetches the
/// right version.
fn fill(
    core: usize,
    line: u64,
    idx: u32,
    state: LineState,
    version: u64,
    scratch: &mut CoherenceScratch,
    metrics: &mut CoherenceMetrics,
) {
    let Some(victim) = scratch.caches[core].fill(line, idx, state, version) else {
        return;
    };
    metrics.evictions += 1;
    metrics.network_messages += 1; // eviction notice / writeback
    if victim.state.is_dirty() {
        metrics.writebacks += 1;
        scratch.memory[victim.idx as usize] = victim.version;
    }
    let e = &mut scratch.dir[victim.idx as usize];
    if e.owner == Some(core) {
        e.owner = None;
    }
    e.sharers &= !(1u128 << core);
}
