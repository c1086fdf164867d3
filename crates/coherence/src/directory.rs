//! The cycle-level directory engine: MESI over a routed mesh.
//!
//! Every line has a static home node (`line % nodes`) holding its
//! directory entry and L3 slice. A miss sends a request message to the
//! home, which serializes transactions per line, forwards to the
//! current owner for cache-to-cache data, fans out invalidations to
//! sharers in parallel, and replies with data or an acknowledgement.
//! Message latencies come from the network's actual routed paths
//! ([`DirectoryTiming`]) — including detours around dead routers/links
//! from a fault schedule; a pair with no surviving route leaves its
//! request pending until the progress watchdog converts the hang into
//! a typed [`CoherenceError::Stalled`].
//!
//! Directory entries live in a flat `Vec<DirEntry>` indexed by the
//! trace's interned line index, with sharers as a `u128` bitmask (the
//! engine caps at 128 cores); the fault-free routed-latency table is
//! built once per [`CoherenceSystem`](crate::CoherenceSystem) and
//! shared across its runs, so a fault-free run pays zero path
//! computations — only fault epochs rebuild the table, in place, into
//! the scratch's cached epoch buffer.
//!
//! The engine is MESI-only: Dragon's word-update broadcasts have no
//! point-to-point analogue worth modelling here.

use std::cmp::Reverse;

use cryowire_faults::FaultSchedule;
use cryowire_memory::MemoryDesign;
use cryowire_noc::RouterNetwork;

use crate::cache::LineState;
use crate::engine::{CoherenceConfig, CoherenceScratch, PendingOp, Protocol, RunOutcome};
use crate::error::CoherenceError;
use crate::metrics::{CoherenceMetrics, CommitEntry};
use crate::snoop::{verify_all_line_invariants, verify_line_invariant};
use crate::timing::DirectoryTiming;
use crate::trace::AccessTrace;

/// The directory-mesh coherence engine, run through
/// [`CoherenceSystem::run`](crate::CoherenceSystem::run).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DirectoryEngine {
    config: CoherenceConfig,
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

impl DirectoryEngine {
    /// Creates the engine.
    ///
    /// # Errors
    ///
    /// [`CoherenceError::InvalidConfig`] for Dragon (MESI only);
    /// propagates geometry validation.
    pub(crate) fn new(config: CoherenceConfig) -> Result<Self, CoherenceError> {
        if config.protocol == Protocol::Dragon {
            return Err(CoherenceError::InvalidConfig {
                reason: "the directory engine supports MESI only".to_string(),
            });
        }
        config.geometry.validate()?;
        Ok(DirectoryEngine { config })
    }

    /// Runs `trace` over `network` under an optional fault schedule,
    /// reusing `scratch`. A fault-free run prices through `base`, the
    /// system's amortized fault-free latency table; a fault schedule
    /// rebuilds the scratch's cached epoch table in place instead.
    ///
    /// # Errors
    ///
    /// [`CoherenceError::InvalidConfig`] when the trace has more cores
    /// than the mesh has nodes (each core is attached to one node);
    /// [`CoherenceError::Stalled`] when faults sever every route a
    /// transaction needs or the watchdog budget runs out.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        &self,
        trace: &AccessTrace,
        network: &RouterNetwork,
        clock_ghz: f64,
        mem: &MemoryDesign,
        schedule: Option<&FaultSchedule>,
        scratch: &mut CoherenceScratch,
        base: &DirectoryTiming,
    ) -> Result<RunOutcome, CoherenceError> {
        // Detach the cached epoch buffer so `base` and the loop's
        // `&mut scratch` borrows never alias it; restored afterwards so
        // the table's allocation survives across runs.
        let mut epoch = scratch.epoch_timing.take();
        let result = self.run_inner(
            trace, network, clock_ghz, mem, schedule, scratch, base, &mut epoch,
        );
        scratch.epoch_timing = epoch;
        result
    }

    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn run_inner(
        &self,
        trace: &AccessTrace,
        network: &RouterNetwork,
        clock_ghz: f64,
        mem: &MemoryDesign,
        schedule: Option<&FaultSchedule>,
        scratch: &mut CoherenceScratch,
        base: &DirectoryTiming,
        epoch: &mut Option<DirectoryTiming>,
    ) -> Result<RunOutcome, CoherenceError> {
        let cores = trace.cores();
        // A fault schedule prices through the rebuilt-in-place epoch
        // table; a fault-free run never computes a path at all.
        let use_epoch = schedule.is_some();
        if use_epoch {
            rebuild_timing_at(epoch, network, mem, clock_ghz, schedule, 0)?;
        }
        let nodes = if use_epoch {
            epoch.as_ref().expect("epoch timing built").nodes()
        } else {
            base.nodes()
        };
        if cores > nodes || cores > 128 {
            return Err(CoherenceError::InvalidConfig {
                reason: format!(
                    "directory engine supports up to min(nodes, 128) cores, got {cores} over {nodes} nodes"
                ),
            });
        }
        scratch.ensure(cores, self.config.geometry, trace.num_lines())?;
        scratch.home_busy.resize(nodes, 0);

        let total = trace.total_accesses();
        let watchdog_limit = total
            .saturating_mul(self.config.watchdog_cycles_per_access)
            .saturating_add(100_000);
        match schedule {
            Some(s) => s.change_points_into(&mut scratch.change_points),
            None => scratch.change_points.clear(),
        }
        let mut change_idx = 0;

        let mut metrics = CoherenceMetrics::default();
        let mut completed = 0u64;
        let mut seq = 0u64;
        let mut cycle = 0u64;

        for core in 0..cores {
            scratch.ready_at[core] = trace.stream(core).first().map_or(0, |a| u64::from(a.think));
        }

        loop {
            if cycle > watchdog_limit {
                return Err(CoherenceError::Stalled {
                    cycle,
                    completed,
                    pending: total - completed,
                });
            }
            while change_idx < scratch.change_points.len()
                && cycle >= scratch.change_points[change_idx]
            {
                rebuild_timing_at(epoch, network, mem, clock_ghz, schedule, cycle)?;
                change_idx += 1;
            }
            let timing: &DirectoryTiming = if use_epoch {
                epoch.as_ref().expect("epoch timing built")
            } else {
                base
            };

            // 1. Deliver due completions.
            while let Some(&Reverse((when, _, core))) = scratch.completions.peek() {
                if when > cycle {
                    break;
                }
                scratch.completions.pop();
                let op = scratch.pending[core]
                    .take()
                    .expect("completion without MSHR");
                scratch.inflight[op.idx as usize] = false;
                let latency = when - op.issued_at;
                metrics.accesses += 1;
                if op.write {
                    metrics.writes += 1;
                } else {
                    metrics.reads += 1;
                }
                metrics.misses += 1;
                metrics.total_latency_cycles += latency;
                metrics.max_latency_cycles = metrics.max_latency_cycles.max(latency);
                metrics.cycles = metrics.cycles.max(when);
                completed += 1;
                scratch.next_idx[core] += 1;
                scratch.ready_at[core] = when
                    + 1
                    + trace
                        .stream(core)
                        .get(scratch.next_idx[core])
                        .map_or(0, |a| u64::from(a.think));
            }

            // 2. Ready cores issue; hits complete locally in one cycle.
            for core in 0..cores {
                if scratch.pending[core].is_some() || scratch.ready_at[core] > cycle {
                    continue;
                }
                let at = scratch.next_idx[core];
                let Some(&a) = trace.stream(core).get(at) else {
                    continue;
                };
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
                        scratch.latest[idx as usize] += 1;
                        let v = scratch.latest[idx as usize];
                        // Silent E→M: the directory already tracks this
                        // core as the exclusive holder.
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
                    if self.config.record_commits {
                        scratch.commits.push(CommitEntry {
                            core,
                            line,
                            write: a.write,
                            version,
                        });
                    }
                    metrics.accesses += 1;
                    metrics.hits += 1;
                    if a.write {
                        metrics.writes += 1;
                    } else {
                        metrics.reads += 1;
                    }
                    metrics.total_latency_cycles += 1;
                    metrics.max_latency_cycles = metrics.max_latency_cycles.max(1);
                    metrics.cycles = metrics.cycles.max(cycle + 1);
                    completed += 1;
                    scratch.next_idx[core] += 1;
                    scratch.ready_at[core] = cycle
                        + 1
                        + trace
                            .stream(core)
                            .get(scratch.next_idx[core])
                            .map_or(0, |a| u64::from(a.think));
                } else {
                    scratch.pending[core] = Some(PendingOp {
                        line,
                        idx,
                        way: 0,
                        write: a.write,
                        issued_at: cycle,
                    });
                    scratch.requests[core] = true;
                }
            }

            // 3. Home nodes process unmasked requests, in core order
            //    (the per-line inflight mask keeps serialization).
            for core in 0..cores {
                if !scratch.requests[core] {
                    continue;
                }
                let op = scratch.pending[core].expect("raised request has an MSHR");
                if scratch.inflight[op.idx as usize] {
                    continue;
                }
                // Resolve every leg first; an unreachable pair leaves
                // the request raised (a later fault epoch may heal it,
                // otherwise the watchdog reports the stall).
                let Some(plan) = self.plan(core, op, timing, scratch) else {
                    continue;
                };
                scratch.requests[core] = false;
                let stall =
                    schedule.map_or(0, |s| s.stall_cycles(nodes * nodes + plan.home, cycle));
                let arrival = cycle + stall + plan.req_lat;
                let start = arrival.max(scratch.home_busy[plan.home]);
                scratch.home_busy[plan.home] = start + timing.dir_occupancy_cycles;
                metrics.fabric_busy_cycles += timing.dir_occupancy_cycles;
                let after_dir = start + timing.dir_occupancy_cycles;
                let (chain, version) = self.apply(core, op, &plan, timing, scratch, &mut metrics);
                debug_assert!(
                    verify_line_invariant(
                        Protocol::Mesi,
                        &scratch.caches,
                        op.line,
                        scratch.latest[op.idx as usize]
                    ),
                    "MESI invariant broken after the home processed line {}",
                    op.line
                );
                if self.config.record_commits {
                    scratch.commits.push(CommitEntry {
                        core,
                        line: op.line,
                        write: op.write,
                        version,
                    });
                }
                scratch.inflight[op.idx as usize] = true;
                seq += 1;
                scratch
                    .completions
                    .push(Reverse((after_dir + chain, seq, core)));
            }

            // 4. Done?
            if completed == total && scratch.completions.is_empty() {
                break;
            }

            // 5. Jump to the next interesting cycle.
            let mut next = u64::MAX;
            if let Some(&Reverse((when, _, _))) = scratch.completions.peek() {
                next = next.min(when);
            }
            for core in 0..cores {
                if scratch.pending[core].is_none()
                    && scratch.next_idx[core] < trace.stream(core).len()
                {
                    next = next.min(scratch.ready_at[core]);
                }
            }
            // An unreachable pending request can only be healed by a
            // later fault epoch.
            if scratch.requests.iter().any(|&r| r) && change_idx < scratch.change_points.len() {
                next = next.min(scratch.change_points[change_idx]);
            }
            if next == u64::MAX {
                return Err(CoherenceError::Stalled {
                    cycle,
                    completed,
                    pending: total - completed,
                });
            }
            cycle = next.max(cycle + 1);
        }

        debug_assert!(verify_all_line_invariants(
            Protocol::Mesi,
            &scratch.caches,
            trace.lines(),
            &scratch.latest
        ));
        Ok(RunOutcome {
            metrics,
            commits: std::mem::take(&mut scratch.commits),
        })
    }

    /// Resolves the routed legs a transaction needs; `None` when any
    /// required pair is unreachable under the current dead set.
    fn plan(
        &self,
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
        &self,
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
                self.invalidate_sharers(core, op, scratch, metrics, plan.sharer_count);
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
            self.invalidate_sharers(core, op, scratch, metrics, plan.sharer_count);
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
            self.fill(core, line, op.idx, LineState::Modified, v, scratch, metrics);
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
                self.fill(core, line, op.idx, LineState::Shared, v, scratch, metrics);
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
                self.fill(core, line, op.idx, state, v, scratch, metrics);
                (timing.fill_cycles + plan.reply_lat + timing.line_beats, v)
            }
        }
    }

    /// Invalidates every S-state copy other than `core`'s, keeping the
    /// directory exact.
    fn invalidate_sharers(
        &self,
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
    #[allow(clippy::too_many_arguments)]
    fn fill(
        &self,
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
}

/// Builds (or rebuilds in place) the routed message prices under the
/// faults active at `cycle` into the cached epoch buffer.
fn rebuild_timing_at(
    epoch: &mut Option<DirectoryTiming>,
    network: &RouterNetwork,
    mem: &MemoryDesign,
    clock_ghz: f64,
    schedule: Option<&FaultSchedule>,
    cycle: u64,
) -> Result<(), CoherenceError> {
    let dead = schedule.map_or_else(Vec::new, |s| s.dead_resources_at(cycle));
    match epoch {
        Some(t) => t.rebuild_avoiding(network, mem, clock_ghz, &dead),
        None => {
            *epoch = Some(DirectoryTiming::from_network_avoiding(
                network, mem, clock_ghz, &dead,
            )?);
            Ok(())
        }
    }
}
