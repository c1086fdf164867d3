//! The snooping fabric: the bus grant step and the MESI and Dragon
//! snoop transitions.
//!
//! The run loop in [`engine`](mod@crate::engine) executes each core's
//! stream in order: a hit costs one cycle; a miss or ownership upgrade
//! allocates the core's single MSHR, raises a request line, and halts
//! the core until the transaction's data arrives. This module's step
//! decides what happens in between. A [`MatrixArbiter`] per
//! interleaving way grants one request per free way per cycle
//! (least-recently-granted, the CryoBus Fig. 19 mechanism); snoop state
//! transitions are applied at **grant** time — the bus serialization
//! point — and the data completion is queued at a delay priced by
//! [`BusTiming`]. Lines with an in-flight transaction are masked from
//! arbitration (MSHR-style line blocking), so two transactions never
//! race on one line; a completion re-raises the requests parked on its
//! line.
//!
//! Per-line state (version serials, backing-store versions, the
//! in-flight mask) lives in flat arenas indexed by the trace's interned
//! line index — no hashing in the loop — and the protocol invariants
//! are debug-checked incrementally per grant (`verify_line_invariant`,
//! the one line a grant can perturb) instead of rebuilding a
//! whole-cache map per access; the sweep over every interned line
//! (`verify_all_line_invariants`) runs once at end of run. The
//! exhaustive whole-cache checker they replaced lives on in this
//! module's tests, which hold the two equivalent.
//!
//! Both MESI and Dragon (4-state, update-based) run on this fabric; the
//! protocol decides what a grant does to the other caches.

use cryowire_faults::FaultSchedule;
use cryowire_memory::MemoryDesign;
use cryowire_noc::{CryoBus, MatrixArbiter, SharedBus};

use crate::cache::{LineState, PrivateCache};
use crate::engine::{CoherenceScratch, FabricStep, PendingOp, Protocol, RunState};
use crate::error::CoherenceError;
use crate::metrics::CoherenceMetrics;
use crate::timing::BusTiming;

/// The snooping fabric a run prices through.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SnoopFabric<'a> {
    /// The paper's 77 K H-tree bus with dynamic link connection.
    CryoBus(&'a CryoBus),
    /// A conventional bidirectional bus.
    SharedBus(&'a SharedBus),
}

impl SnoopFabric<'_> {
    /// Transaction prices under the faults active at `cycle`: a dead
    /// H-tree segment re-forms the CryoBus (longer broadcast span), a
    /// cooling transient leaves timing untouched here (the bus keeps
    /// its clock; device derates live elsewhere).
    pub(crate) fn timing_at(
        &self,
        mem: &MemoryDesign,
        schedule: Option<&FaultSchedule>,
        cycle: u64,
    ) -> BusTiming {
        match self {
            SnoopFabric::CryoBus(bus) => {
                if let Some(s) = schedule {
                    let dead = s.dead_htree_segments_at(cycle);
                    if !dead.is_empty() {
                        if let Ok(reformed) = bus.reform_around(&dead) {
                            return BusTiming::from_cryobus(&reformed, mem);
                        }
                    }
                }
                BusTiming::from_cryobus(bus, mem)
            }
            SnoopFabric::SharedBus(bus) => BusTiming::from_shared_bus(bus, mem),
        }
    }
}

/// The bus grant: the snooping fabric's step of the shared run loop.
pub(crate) struct BusGrant<'a> {
    fabric: SnoopFabric<'a>,
    mem: &'a MemoryDesign,
    schedule: Option<&'a FaultSchedule>,
    /// Prices of the current fault epoch.
    timing: BusTiming,
    /// Interleaving ways, fixed at the fault-free shape.
    ways: usize,
}

impl<'a> BusGrant<'a> {
    /// Prices the bus at cycle 0 and readies one matrix arbiter per way
    /// in `scratch`, reset in place when the shape is unchanged.
    pub(crate) fn new(
        fabric: SnoopFabric<'a>,
        mem: &'a MemoryDesign,
        schedule: Option<&'a FaultSchedule>,
        scratch: &mut CoherenceScratch,
    ) -> Self {
        let timing = fabric.timing_at(mem, schedule, 0);
        let ways = timing.ways.max(1);
        let cores = scratch.caches.len();
        if scratch.arbiters.len() != ways || scratch.arbiter_cores != cores {
            scratch.arbiters.clear();
            scratch
                .arbiters
                .extend((0..ways).map(|_| MatrixArbiter::new(cores)));
            scratch.arbiter_cores = cores;
        } else {
            for a in &mut scratch.arbiters {
                a.reset();
            }
        }
        scratch.way_busy.clear();
        scratch.way_busy.resize(ways, 0);
        scratch.req_buf.clear();
        scratch.req_buf.resize(cores, false);
        scratch.arb_mask.clear();
        scratch.arb_mask.resize(ways, 0);
        BusGrant {
            fabric,
            mem,
            schedule,
            timing,
            ways,
        }
    }
}

impl FabricStep for BusGrant<'_> {
    fn reprice(&mut self, cycle: u64) -> Result<(), CoherenceError> {
        self.timing = self.fabric.timing_at(self.mem, self.schedule, cycle);
        Ok(())
    }

    #[allow(clippy::cast_possible_truncation)]
    fn way_of(&self, line: u64) -> u32 {
        (line % self.ways as u64) as u32
    }

    fn raise(&mut self, core: usize, op: PendingOp, scratch: &mut CoherenceScratch) {
        if !scratch.inflight[op.idx as usize] {
            scratch.arb_mask[op.way as usize] |= 1u128 << core;
        }
    }

    fn line_freed(&mut self, op: PendingOp, raised: u128, scratch: &mut CoherenceScratch) {
        // Requests parked on the line become arbitrable again (same
        // line ⇒ same interleaving way).
        let mut parked = raised;
        while parked != 0 {
            let c = parked.trailing_zeros() as usize;
            parked &= parked - 1;
            if scratch.pending[c].is_some_and(|p| p.idx == op.idx) {
                scratch.arb_mask[op.way as usize] |= 1u128 << c;
            }
        }
    }

    /// Grants one transaction per free way.
    fn serve(&mut self, cycle: u64, run: &mut RunState, scratch: &mut CoherenceScratch) {
        for way in 0..self.ways {
            if scratch.way_busy[way] > cycle {
                continue;
            }
            let mask = scratch.arb_mask[way];
            if mask == 0 {
                continue;
            }
            for (core, req) in scratch.req_buf.iter_mut().enumerate() {
                *req = mask & (1u128 << core) != 0;
            }
            let winner = scratch.arbiters[way]
                .arbitrate(&scratch.req_buf)
                .expect("a request was raised");
            scratch.arb_mask[way] &= !(1u128 << winner);
            let op = scratch.pending[winner].expect("winner has an MSHR");
            // Snoop transitions happen now: the grant is the bus
            // serialization point.
            let tx = apply_snoop_transaction(run.protocol, winner, op, scratch, &mut run.metrics);
            // A router-stall fault on resource `way` delays the
            // arbiter's grant.
            let stall = self.schedule.map_or(0, |s| s.stall_cycles(way, cycle));
            let done = cycle + stall + self.timing.overhead_cycles + tx.wait_cycles(&self.timing);
            let held = tx.occupancy_cycles(&self.timing);
            // The request/arb/grant phases ride dedicated control
            // wires and pipeline with the previous transaction's
            // data beats: the way is reserved for `held` data
            // cycles only, so bus bandwidth is data-limited, not
            // handshake-limited.
            scratch.way_busy[way] = cycle + stall + held;
            run.metrics.fabric_busy_cycles += held;
            run.metrics.bus_transactions += 1;
            // Park the losers racing for the same line until the
            // in-flight transaction completes (MSHR line blocking).
            let mut losers = scratch.arb_mask[way];
            while losers != 0 {
                let c = losers.trailing_zeros() as usize;
                losers &= losers - 1;
                if scratch.pending[c].is_some_and(|p| p.idx == op.idx) {
                    scratch.arb_mask[way] &= !(1u128 << c);
                }
            }
            run.commit(winner, op, tx.version, done, scratch);
        }
    }

    fn next_event(&self, _raised: u128, _change: Option<u64>, scratch: &CoherenceScratch) -> u64 {
        scratch
            .way_busy
            .iter()
            .zip(&scratch.arb_mask)
            .filter(|&(_, &mask)| mask != 0)
            .map(|(&busy, _)| busy)
            .min()
            .unwrap_or(u64::MAX)
    }
}

/// What a granted transaction needs from the bus.
#[derive(Debug, Clone, Copy)]
enum TxClass {
    /// Full line moved cache-to-cache.
    LineC2c,
    /// Full line fetched from the backing store.
    LineFill,
    /// Ownership upgrade, address broadcast only.
    Upgrade,
    /// Dragon word update.
    Update,
    /// Line fetch (c2c or fill) plus a Dragon update broadcast.
    LineWithUpdate {
        /// Whether a cache supplied the line.
        c2c: bool,
    },
}

#[derive(Debug, Clone, Copy)]
struct TxOutcome {
    class: TxClass,
    /// Extra bus beats for a victim writeback folded into the
    /// transaction.
    writeback_beats: u64,
    version: u64,
}

impl TxOutcome {
    /// Cycles the shared data wires are held.
    fn occupancy_cycles(&self, t: &BusTiming) -> u64 {
        let base = match self.class {
            TxClass::LineC2c | TxClass::LineFill => t.line_transfer_cycles(),
            TxClass::Upgrade => t.broadcast_cycles,
            TxClass::Update => t.update_cycles(),
            TxClass::LineWithUpdate { .. } => t.line_transfer_cycles() + t.update_beats,
        };
        base + self.writeback_beats
    }

    /// Cycles until the requester's data arrives (occupancy plus any
    /// backing-store wait that does not hold the wires).
    fn wait_cycles(&self, t: &BusTiming) -> u64 {
        let fill = match self.class {
            TxClass::LineFill | TxClass::LineWithUpdate { c2c: false } => t.fill_cycles,
            _ => 0,
        };
        self.occupancy_cycles(t) + fill
    }
}

/// Applies one granted transaction's state transitions and version
/// bookkeeping across all caches; returns the transaction's class and
/// committed version.
fn apply_snoop_transaction(
    protocol: Protocol,
    requester: usize,
    op: PendingOp,
    scratch: &mut CoherenceScratch,
    metrics: &mut CoherenceMetrics,
) -> TxOutcome {
    match protocol {
        Protocol::Mesi => apply_mesi(requester, op, scratch, metrics),
        Protocol::Dragon => apply_dragon(requester, op, scratch, metrics),
    }
}

fn fill_with_eviction(
    core: usize,
    line: u64,
    idx: u32,
    state: LineState,
    version: u64,
    scratch: &mut CoherenceScratch,
    metrics: &mut CoherenceMetrics,
) -> u64 {
    scratch.holders[idx as usize] |= 1u128 << core;
    let Some(victim) = scratch.caches[core].fill(line, idx, state, version) else {
        return 0;
    };
    scratch.holders[victim.idx as usize] &= !(1u128 << core);
    metrics.evictions += 1;
    if victim.state.is_dirty() {
        metrics.writebacks += 1;
        scratch.memory[victim.idx as usize] = victim.version;
        // The flush rides the same arbitration: a line transfer's worth
        // of extra beats.
        crate::timing::LINE_BEATS
    } else {
        0
    }
}

fn apply_mesi(
    requester: usize,
    op: PendingOp,
    scratch: &mut CoherenceScratch,
    metrics: &mut CoherenceMetrics,
) -> TxOutcome {
    let line = op.line;
    let li = op.idx as usize;
    let here = scratch.caches[requester].state(line);
    if op.write {
        if here == LineState::Shared {
            // BusUpgr: invalidate the other sharers, no data moves.
            let mut peers = scratch.holders[li] & !(1u128 << requester);
            while peers != 0 {
                let other = peers.trailing_zeros() as usize;
                peers &= peers - 1;
                if scratch.caches[other].invalidate(line) {
                    metrics.invalidations += 1;
                }
            }
            scratch.holders[li] = 1u128 << requester;
            scratch.latest[li] += 1;
            let v = scratch.latest[li];
            scratch.caches[requester].update(line, LineState::Modified, Some(v));
            metrics.upgrades += 1;
            return TxOutcome {
                class: TxClass::Upgrade,
                writeback_beats: 0,
                version: v,
            };
        }
        // BusRdX: fetch-and-own, invalidating every other copy.
        let mut supplier_version = None;
        let mut peers = scratch.holders[li] & !(1u128 << requester);
        while peers != 0 {
            let other = peers.trailing_zeros() as usize;
            peers &= peers - 1;
            // Any copy can supply: the MESI invariant keeps every
            // resident copy at the latest version. Supply and
            // invalidate in one tag-match scan.
            if let Some(v) = scratch.caches[other].invalidate_returning_version(line) {
                if supplier_version.is_none() {
                    supplier_version = Some(v);
                }
                metrics.invalidations += 1;
            }
        }
        scratch.holders[li] &= 1u128 << requester;
        let c2c = supplier_version.is_some();
        if c2c {
            metrics.c2c_transfers += 1;
        } else {
            metrics.fills += 1;
        }
        scratch.latest[li] += 1;
        let v = scratch.latest[li];
        let wb = fill_with_eviction(
            requester,
            line,
            op.idx,
            LineState::Modified,
            v,
            scratch,
            metrics,
        );
        TxOutcome {
            class: if c2c {
                TxClass::LineC2c
            } else {
                TxClass::LineFill
            },
            writeback_beats: wb,
            version: v,
        }
    } else {
        // BusRd: owner flushes and demotes, clean copies demote E→S —
        // supply, demote, and flush resolved only on the actual
        // holders.
        let mut version = scratch.memory[li];
        let mut shared = false;
        let mut peers = scratch.holders[li] & !(1u128 << requester);
        while peers != 0 {
            let other = peers.trailing_zeros() as usize;
            peers &= peers - 1;
            if let Some((old, v)) = scratch.caches[other].transition(line, |_| LineState::Shared) {
                version = v;
                if old.is_owner() {
                    scratch.memory[li] = v;
                }
                shared = true;
            }
        }
        debug_assert_eq!(
            version, scratch.latest[li],
            "BusRd fetched a stale version of line {line}"
        );
        if shared {
            metrics.c2c_transfers += 1;
        } else {
            metrics.fills += 1;
        }
        let state = if shared {
            LineState::Shared
        } else {
            LineState::Exclusive
        };
        let wb = fill_with_eviction(requester, line, op.idx, state, version, scratch, metrics);
        TxOutcome {
            class: if shared {
                TxClass::LineC2c
            } else {
                TxClass::LineFill
            },
            writeback_beats: wb,
            version,
        }
    }
}

fn apply_dragon(
    requester: usize,
    op: PendingOp,
    scratch: &mut CoherenceScratch,
    metrics: &mut CoherenceMetrics,
) -> TxOutcome {
    let line = op.line;
    let li = op.idx as usize;
    let here = scratch.caches[requester].state(line);
    let peer_mask = scratch.holders[li] & !(1u128 << requester);

    if op.write {
        // Who else holds the line right now? (The residency mask.)
        let others = peer_mask.count_ones() as usize;
        let supplied = others > 0;
        if here.is_present() {
            // BusUpd from Sc/Sm: broadcast the new word to every sharer.
            scratch.latest[li] += 1;
            let v = scratch.latest[li];
            metrics.updates += 1;
            if others > 0 {
                let mut peers = peer_mask;
                while peers != 0 {
                    let other = peers.trailing_zeros() as usize;
                    peers &= peers - 1;
                    // The writer becomes the sole owner; previous Sm
                    // owners demote to Sc.
                    scratch.caches[other].update(line, LineState::SharedClean, Some(v));
                }
                scratch.caches[requester].update(line, LineState::SharedModified, Some(v));
            } else {
                scratch.caches[requester].update(line, LineState::Modified, Some(v));
            }
            TxOutcome {
                class: TxClass::Update,
                writeback_beats: 0,
                version: v,
            }
        } else {
            // Write miss: BusRd + BusUpd in one arbitration.
            scratch.latest[li] += 1;
            let v = scratch.latest[li];
            metrics.updates += 1;
            let c2c = supplied;
            if c2c {
                metrics.c2c_transfers += 1;
            } else {
                metrics.fills += 1;
            }
            let state = if others > 0 {
                let mut peers = peer_mask;
                while peers != 0 {
                    let other = peers.trailing_zeros() as usize;
                    peers &= peers - 1;
                    scratch.caches[other].update(line, LineState::SharedClean, Some(v));
                }
                LineState::SharedModified
            } else {
                LineState::Modified
            };
            let wb = fill_with_eviction(requester, line, op.idx, state, v, scratch, metrics);
            TxOutcome {
                class: TxClass::LineWithUpdate { c2c },
                writeback_beats: wb,
                version: v,
            }
        }
    } else {
        // Read miss: BusRd. Owners stay owners (M → Sm), clean suppliers
        // demote E → Sc — collect and demote fused into one scan per
        // peer (a peer's demote never alters another peer's copy).
        let mut owner_version = None;
        let mut sharer_version = None;
        let mut others = 0usize;
        let mut peers = peer_mask;
        while peers != 0 {
            let other = peers.trailing_zeros() as usize;
            peers &= peers - 1;
            if let Some((old, v)) = scratch.caches[other].transition(line, |s| match s {
                LineState::Modified => LineState::SharedModified,
                LineState::Exclusive => LineState::SharedClean,
                s => s,
            }) {
                others += 1;
                if old.is_owner() {
                    owner_version = Some(v);
                } else {
                    sharer_version = Some(v);
                }
            }
        }
        let supplied = owner_version.or(sharer_version);
        let version = supplied.unwrap_or(scratch.memory[li]);
        debug_assert_eq!(
            version, scratch.latest[li],
            "Dragon BusRd fetched a stale version of line {line}"
        );
        let c2c = supplied.is_some();
        if c2c {
            metrics.c2c_transfers += 1;
        } else {
            metrics.fills += 1;
        }
        let state = if others > 0 {
            LineState::SharedClean
        } else {
            LineState::Exclusive
        };
        let wb = fill_with_eviction(requester, line, op.idx, state, version, scratch, metrics);
        TxOutcome {
            class: if c2c {
                TxClass::LineC2c
            } else {
                TxClass::LineFill
            },
            writeback_beats: wb,
            version,
        }
    }
}

/// Incremental protocol-invariant check over the **one line** a granted
/// transaction can perturb: at most one owner, `Modified`/`Exclusive`
/// imply a sole copy (MESI), and every copy a reader could hit carries
/// the latest committed version. O(cores · assoc), allocation-free —
/// cheap enough to `debug_assert!` per grant where the old exhaustive
/// checker rebuilt a whole-cache hash map per access.
#[must_use]
pub(crate) fn verify_line_invariant(
    protocol: Protocol,
    caches: &[PrivateCache],
    line: u64,
    latest: u64,
) -> bool {
    let mut copies = 0usize;
    let mut exclusive_like = 0usize;
    for cache in caches {
        let state = cache.state(line);
        if !state.is_present() {
            continue;
        }
        copies += 1;
        if match protocol {
            Protocol::Mesi => matches!(state, LineState::Modified | LineState::Exclusive),
            Protocol::Dragon => {
                matches!(state, LineState::Modified | LineState::Exclusive) || state.is_owner()
            }
        } {
            exclusive_like += 1;
        }
        // Every copy a reader could hit must be the latest committed
        // version (invalidation and update protocols both guarantee it).
        if cache.version(line) != Some(latest) {
            return false;
        }
    }
    let sole = exclusive_like == 0 || copies == 1 || protocol == Protocol::Dragon;
    sole && exclusive_like <= 1
}

/// Exhaustive invariant sweep: [`verify_line_invariant`] over every
/// interned line (`lines[i]` with latest serial `latest[i]`). Every
/// resident line entered a cache through a trace access, so the
/// interned set covers the caches completely. Allocation-free; runs
/// once at end of run.
#[must_use]
pub(crate) fn verify_all_line_invariants(
    protocol: Protocol,
    caches: &[PrivateCache],
    lines: &[u64],
    latest: &[u64],
) -> bool {
    lines
        .iter()
        .zip(latest)
        .all(|(&line, &v)| verify_line_invariant(protocol, caches, line, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The exhaustive whole-cache checker that the per-line checks
    /// replaced: rebuilds a per-line map over every resident copy, then
    /// checks each line against its latest version in `latest`.
    fn verify_invariants(
        protocol: Protocol,
        caches: &[PrivateCache],
        latest: &HashMap<u64, u64>,
    ) -> bool {
        let mut per_line: HashMap<u64, (usize, usize, Vec<u64>)> = HashMap::new();
        for (line, state, version) in caches.iter().flat_map(PrivateCache::resident_lines) {
            let e = per_line.entry(line).or_default();
            e.0 += 1;
            if match protocol {
                Protocol::Mesi => matches!(state, LineState::Modified | LineState::Exclusive),
                Protocol::Dragon => {
                    matches!(state, LineState::Modified | LineState::Exclusive) || state.is_owner()
                }
            } {
                e.1 += 1;
            }
            e.2.push(version);
        }
        per_line
            .iter()
            .all(|(line, (copies, exclusive_like, versions))| {
                let sole = *exclusive_like == 0 || *copies == 1 || protocol == Protocol::Dragon;
                let latest_v = latest.get(line).copied().unwrap_or(0);
                sole && *exclusive_like <= 1 && versions.iter().all(|&v| v == latest_v)
            })
    }

    /// Builds a cache set holding `line` in the given per-core states.
    fn caches_with(states: &[(LineState, u64)], line: u64) -> Vec<PrivateCache> {
        states
            .iter()
            .map(|&(state, version)| {
                let mut c =
                    PrivateCache::new(crate::cache::CacheGeometry::no_evict(8, 64)).unwrap();
                if state.is_present() {
                    c.fill(line, 0, state, version);
                }
                c
            })
            .collect()
    }

    /// The incremental checker must agree with the exhaustive hash-map
    /// checker on both valid and corrupted states.
    #[test]
    fn incremental_checker_matches_exhaustive_baseline_checker() {
        let line = 5u64;
        let cases: Vec<(Vec<(LineState, u64)>, u64)> = vec![
            // Valid: sole Modified at latest.
            (vec![(LineState::Modified, 3), (LineState::Invalid, 0)], 3),
            // Valid: two Shared copies at latest.
            (vec![(LineState::Shared, 2), (LineState::Shared, 2)], 2),
            // Broken: Exclusive alongside another copy (MESI).
            (vec![(LineState::Exclusive, 1), (LineState::Shared, 1)], 1),
            // Broken: two owners.
            (vec![(LineState::Modified, 4), (LineState::Modified, 4)], 4),
            // Broken: stale copy.
            (vec![(LineState::Shared, 1), (LineState::Shared, 2)], 2),
            // Valid: absent line, any latest.
            (vec![(LineState::Invalid, 0), (LineState::Invalid, 0)], 7),
        ];
        for protocol in [Protocol::Mesi, Protocol::Dragon] {
            for (states, latest) in &cases {
                let caches = caches_with(states, line);
                let mut map = HashMap::new();
                map.insert(line, *latest);
                let exhaustive = verify_invariants(protocol, &caches, &map);
                let incremental = verify_line_invariant(protocol, &caches, line, *latest);
                let sweep = verify_all_line_invariants(protocol, &caches, &[line], &[*latest]);
                assert_eq!(
                    incremental, exhaustive,
                    "{protocol:?} {states:?} latest={latest}"
                );
                assert_eq!(sweep, exhaustive, "{protocol:?} sweep disagrees");
            }
        }
    }

    /// Dragon tolerates Sm+Sc replication that MESI would reject.
    #[test]
    fn dragon_allows_shared_owner_replication() {
        let caches = caches_with(
            &[(LineState::SharedModified, 9), (LineState::SharedClean, 9)],
            2,
        );
        assert!(verify_line_invariant(Protocol::Dragon, &caches, 2, 9));
        let mut map = HashMap::new();
        map.insert(2, 9);
        assert!(verify_invariants(Protocol::Dragon, &caches, &map));
    }
}
