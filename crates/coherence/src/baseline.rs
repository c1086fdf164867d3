//! The retained pre-optimization reference engines: hash-keyed per-line
//! state, per-run allocation of arbiters/scratch vectors, exhaustive
//! per-grant invariant verification, per-run directory-timing
//! construction, and the division-based private cache (`RefCache`,
//! the pre-arena [`PrivateCache`] frozen verbatim: `line % sets` /
//! `line / sets` on every lookup and one tag-match scan per call) —
//! exactly the code the flat-arena hot loops replaced.
//!
//! These exist for two jobs and are compiled only for them
//! (`cfg(any(test, feature = "reference-sim"))`):
//!
//! 1. **Bit-identity oracle** — the equivalence suites assert the
//!    optimized engines produce [`RunOutcome`]s identical to these,
//!    metric for metric and commit for commit, over random traces,
//!    geometries, lane batches, and fault plans.
//! 2. **Honest speedup denominator** — `bench-engines` times these
//!    (the real former code, not a strawman) against the optimized
//!    batched path for the coherence engine speedup.
//!
//! Nothing here is called from release builds of the simulator proper.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use cryowire_faults::FaultSchedule;
use cryowire_memory::MemoryDesign;
use cryowire_noc::{MatrixArbiter, RouterNetwork};

use crate::cache::{CacheGeometry, LineState, PrivateCache};
use crate::engine::{CoherenceConfig, Protocol, RunOutcome};
use crate::error::CoherenceError;
use crate::metrics::{CoherenceMetrics, CommitEntry};
use crate::snoop::SnoopFabric;
use crate::timing::{BusTiming, DirectoryTiming};
use crate::trace::AccessTrace;

/// A core's in-flight miss in the reference engines (no interned index
/// — the baseline keys everything by the raw line number).
#[derive(Debug, Clone, Copy)]
struct PendingOp {
    line: u64,
    write: bool,
    issued_at: u64,
}

/// One reference-cache entry (no interned-index slot — that field
/// arrived with the arena engines).
#[derive(Debug, Clone, Copy)]
struct RefEntry {
    tag: u64,
    state: LineState,
    version: u64,
    lru: u64,
}

const REF_EMPTY: RefEntry = RefEntry {
    tag: 0,
    state: LineState::Invalid,
    version: 0,
    lru: 0,
};

/// A line evicted from a [`RefCache`] to make room for a fill.
#[derive(Debug, Clone, Copy)]
struct RefEviction {
    line: u64,
    state: LineState,
    version: u64,
}

/// The pre-optimization private cache, frozen verbatim: set selection
/// and tag extraction by 64-bit division on every lookup, and a
/// separate tag-match scan for each of state/version/update/invalidate
/// — the costs the shift/mask, single-scan [`PrivateCache`] removed.
#[derive(Debug, Clone)]
struct RefCache {
    sets: u64,
    assoc: u32,
    entries: Vec<RefEntry>,
    clock: u64,
}

impl RefCache {
    fn new(geom: CacheGeometry) -> Result<Self, CoherenceError> {
        geom.validate()?;
        let sets = geom.sets();
        Ok(RefCache {
            sets,
            assoc: geom.assoc,
            entries: vec![
                REF_EMPTY;
                usize::try_from(sets).expect("set count fits") * geom.assoc as usize
            ],
            clock: 0,
        })
    }

    fn reset(&mut self) {
        self.entries.fill(REF_EMPTY);
        self.clock = 0;
    }

    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = usize::try_from(line % self.sets).expect("set index fits");
        let a = self.assoc as usize;
        set * a..set * a + a
    }

    fn state(&self, line: u64) -> LineState {
        let tag = line / self.sets;
        self.entries[self.set_range(line)]
            .iter()
            .find(|e| e.state.is_present() && e.tag == tag)
            .map_or(LineState::Invalid, |e| e.state)
    }

    fn version(&self, line: u64) -> Option<u64> {
        let tag = line / self.sets;
        self.entries[self.set_range(line)]
            .iter()
            .find(|e| e.state.is_present() && e.tag == tag)
            .map(|e| e.version)
    }

    fn probe(&mut self, line: u64) -> Option<(LineState, u64)> {
        let tag = line / self.sets;
        let range = self.set_range(line);
        self.clock += 1;
        let clock = self.clock;
        let e = self.entries[range]
            .iter_mut()
            .find(|e| e.state.is_present() && e.tag == tag)?;
        e.lru = clock;
        Some((e.state, e.version))
    }

    fn update(&mut self, line: u64, state: LineState, version: Option<u64>) {
        let tag = line / self.sets;
        let range = self.set_range(line);
        if let Some(e) = self.entries[range]
            .iter_mut()
            .find(|e| e.state.is_present() && e.tag == tag)
        {
            e.state = state;
            if let Some(v) = version {
                e.version = v;
            }
        }
    }

    fn invalidate(&mut self, line: u64) -> bool {
        let tag = line / self.sets;
        let range = self.set_range(line);
        if let Some(e) = self.entries[range]
            .iter_mut()
            .find(|e| e.state.is_present() && e.tag == tag)
        {
            e.state = LineState::Invalid;
            true
        } else {
            false
        }
    }

    fn fill(&mut self, line: u64, state: LineState, version: u64) -> Option<RefEviction> {
        let tag = line / self.sets;
        let sets = self.sets;
        let range = self.set_range(line);
        self.clock += 1;
        let clock = self.clock;
        // Refill of a resident line (upgrade path).
        if let Some(e) = self.entries[range.clone()]
            .iter_mut()
            .find(|e| e.state.is_present() && e.tag == tag)
        {
            e.state = state;
            e.version = version;
            e.lru = clock;
            return None;
        }
        let set = line % sets;
        let slot = {
            let entries = &mut self.entries[range];
            if let Some(i) = entries.iter().position(|e| !e.state.is_present()) {
                i
            } else {
                entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.lru)
                    .map(|(i, _)| i)
                    .expect("non-empty set")
            }
        };
        let idx = self.set_range(line).start + slot;
        let victim = self.entries[idx];
        let evicted = victim.state.is_present().then(|| RefEviction {
            line: victim.tag * sets + set,
            state: victim.state,
            version: victim.version,
        });
        self.entries[idx] = RefEntry {
            tag,
            state,
            version,
            lru: clock,
        };
        evicted
    }

    fn resident_lines(&self) -> impl Iterator<Item = (u64, LineState, u64)> + '_ {
        let sets = self.sets;
        let assoc = self.assoc as usize;
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.state.is_present())
            .map(move |(i, e)| (e.tag * sets + (i / assoc) as u64, e.state, e.version))
    }
}

/// A reference directory entry (64-core sharer mask, as shipped).
#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    owner: Option<usize>,
    sharers: u64,
}

/// Reusable run state for the reference engines: caches, queues, and
/// the hash-keyed version/directory maps the optimized scratch replaced
/// with flat arenas.
#[derive(Debug, Default)]
pub struct BaselineScratch {
    caches: Vec<RefCache>,
    geometry: Option<CacheGeometry>,
    /// Latest committed version per line (the write serial).
    latest: HashMap<u64, u64>,
    /// Backing-store version per line (updated by flush/writeback).
    memory: HashMap<u64, u64>,
    requests: Vec<bool>,
    pending: Vec<Option<PendingOp>>,
    ready_at: Vec<u64>,
    next_idx: Vec<usize>,
    inflight: Vec<u64>,
    completions: BinaryHeap<Reverse<(u64, u64, usize)>>,
    commits: Vec<CommitEntry>,
    /// Directory state per line (directory engine only).
    dir: HashMap<u64, DirEntry>,
    /// Cycle each home directory is busy until (directory engine only).
    home_busy: Vec<u64>,
}

impl BaselineScratch {
    /// Fresh scratch.
    #[must_use]
    pub fn new() -> Self {
        BaselineScratch::default()
    }

    /// Prepares the scratch for `cores` caches of `geometry`,
    /// reallocating only when the shape changed.
    fn ensure(&mut self, cores: usize, geometry: CacheGeometry) -> Result<(), CoherenceError> {
        if self.caches.len() != cores || self.geometry != Some(geometry) {
            self.caches.clear();
            for _ in 0..cores {
                self.caches.push(RefCache::new(geometry)?);
            }
            self.geometry = Some(geometry);
        } else {
            for c in &mut self.caches {
                c.reset();
            }
        }
        self.latest.clear();
        self.memory.clear();
        self.requests.clear();
        self.requests.resize(cores, false);
        self.pending.clear();
        self.pending.resize(cores, None);
        self.ready_at.clear();
        self.ready_at.resize(cores, 0);
        self.next_idx.clear();
        self.next_idx.resize(cores, 0);
        self.inflight.clear();
        self.completions.clear();
        self.commits.clear();
        self.dir.clear();
        self.home_busy.clear();
        Ok(())
    }
}

/// Runs `trace` over a snooping `fabric` with the reference engine:
/// the exact pre-optimization hot loop, per-run allocations and
/// exhaustive per-grant invariant checks included.
///
/// # Errors
///
/// Geometry validation; [`CoherenceError::Stalled`] if the watchdog
/// fires.
#[allow(clippy::too_many_lines)]
pub fn run_snooping(
    config: CoherenceConfig,
    trace: &AccessTrace,
    fabric: SnoopFabric<'_>,
    mem: &MemoryDesign,
    schedule: Option<&FaultSchedule>,
    scratch: &mut BaselineScratch,
) -> Result<RunOutcome, CoherenceError> {
    config.geometry.validate()?;
    let cores = trace.cores();
    scratch.ensure(cores, config.geometry)?;
    let protocol = config.protocol;
    let mut timing = fabric.timing_at(mem, schedule, 0);
    let ways = timing.ways.max(1);
    let mut arbiters: Vec<MatrixArbiter> = (0..ways).map(|_| MatrixArbiter::new(cores)).collect();
    let mut way_busy = vec![0u64; ways];
    let mut req_buf = vec![false; cores];

    let total = trace.total_accesses();
    let watchdog_limit = total
        .saturating_mul(config.watchdog_cycles_per_access)
        .saturating_add(100_000);
    let change_points: Vec<u64> = schedule.map_or_else(Vec::new, FaultSchedule::change_points);
    let mut change_idx = 0;

    let mut metrics = CoherenceMetrics::default();
    let mut completed = 0u64;
    let mut seq = 0u64;
    let mut cycle = 0u64;

    // Initial think time before each core's first reference.
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
        // Fault epoch: re-derive bus prices past each change point.
        while change_idx < change_points.len() && cycle >= change_points[change_idx] {
            timing = fabric.timing_at(mem, schedule, cycle);
            change_idx += 1;
        }

        // 1. Deliver due completions: data arrives, MSHR frees.
        while let Some(&Reverse((when, _, core))) = scratch.completions.peek() {
            if when > cycle {
                break;
            }
            scratch.completions.pop();
            let op = scratch.pending[core]
                .take()
                .expect("completion without MSHR");
            if let Some(i) = scratch.inflight.iter().position(|&l| l == op.line) {
                scratch.inflight.swap_remove(i);
            }
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

        // 2. Ready cores issue their next reference.
        for core in 0..cores {
            if scratch.pending[core].is_some() || scratch.ready_at[core] > cycle {
                continue;
            }
            let Some(&a) = trace.stream(core).get(scratch.next_idx[core]) else {
                continue;
            };
            let line = trace.line_of(a.addr);
            let state = scratch.caches[core]
                .probe(line)
                .map_or(LineState::Invalid, |(s, _)| s);
            let hit = match (protocol, a.write, state) {
                (_, false, s) if s.is_present() => true,
                (_, true, LineState::Modified | LineState::Exclusive) => true,
                _ => false,
            };
            if hit {
                let version = if a.write {
                    let v = scratch.latest.entry(line).or_insert(0);
                    *v += 1;
                    let v = *v;
                    scratch.caches[core].update(line, LineState::Modified, Some(v));
                    v
                } else {
                    let v = scratch.caches[core]
                        .version(line)
                        .expect("hit line is resident");
                    debug_assert_eq!(
                        v,
                        scratch.latest.get(&line).copied().unwrap_or(0),
                        "read hit observed a stale version on line {line}"
                    );
                    v
                };
                if config.record_commits {
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
                    write: a.write,
                    issued_at: cycle,
                });
                scratch.requests[core] = true;
            }
        }

        // 3. Grant one transaction per free way.
        for way in 0..ways {
            if way_busy[way] > cycle {
                continue;
            }
            let mut any = false;
            for (core, slot) in req_buf.iter_mut().enumerate().take(cores) {
                let ok = scratch.requests[core]
                    && scratch.pending[core].is_some_and(|p| {
                        (p.line % ways as u64) as usize == way
                            && !scratch.inflight.contains(&p.line)
                    });
                *slot = ok;
                any |= ok;
            }
            if !any {
                continue;
            }
            let winner = arbiters[way]
                .arbitrate(&req_buf)
                .expect("a request was raised");
            scratch.requests[winner] = false;
            let op = scratch.pending[winner].expect("winner has an MSHR");
            // Snoop transitions happen now: the grant is the bus
            // serialization point.
            let tx = apply_snoop_transaction(protocol, winner, op, scratch, &mut metrics);
            debug_assert!(
                verify_invariants_ref(protocol, &scratch.caches, &scratch.latest),
                "protocol invariant broken after a grant on line {}",
                op.line
            );
            if config.record_commits {
                scratch.commits.push(CommitEntry {
                    core: winner,
                    line: op.line,
                    write: op.write,
                    version: tx.version,
                });
            }
            // A router-stall fault on resource `way` delays the
            // arbiter's grant.
            let stall = schedule.map_or(0, |s| s.stall_cycles(way, cycle));
            let done = cycle + stall + timing.overhead_cycles + tx.wait_cycles(&timing);
            let held = tx.occupancy_cycles(&timing);
            way_busy[way] = cycle + stall + held;
            metrics.fabric_busy_cycles += held;
            metrics.bus_transactions += 1;
            scratch.inflight.push(op.line);
            seq += 1;
            scratch.completions.push(Reverse((done, seq, winner)));
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
            if scratch.pending[core].is_none() && scratch.next_idx[core] < trace.stream(core).len()
            {
                next = next.min(scratch.ready_at[core]);
            }
        }
        for (way, &busy) in way_busy.iter().enumerate() {
            let waiting = (0..cores).any(|c| {
                scratch.requests[c]
                    && scratch.pending[c].is_some_and(|p| {
                        (p.line % ways as u64) as usize == way
                            && !scratch.inflight.contains(&p.line)
                    })
            });
            if waiting {
                next = next.min(busy);
            }
        }
        if next == u64::MAX {
            // No event can ever fire again; only legal if finished.
            return Err(CoherenceError::Stalled {
                cycle,
                completed,
                pending: total - completed,
            });
        }
        cycle = next.max(cycle + 1);
    }

    debug_assert!(verify_invariants_ref(
        protocol,
        &scratch.caches,
        &scratch.latest
    ));
    Ok(RunOutcome {
        metrics,
        commits: std::mem::take(&mut scratch.commits),
    })
}

/// What a granted transaction needs from the bus.
#[derive(Debug, Clone, Copy)]
enum TxClass {
    LineC2c,
    LineFill,
    Upgrade,
    Update,
    LineWithUpdate { c2c: bool },
}

#[derive(Debug, Clone, Copy)]
struct TxOutcome {
    class: TxClass,
    writeback_beats: u64,
    version: u64,
}

impl TxOutcome {
    fn occupancy_cycles(&self, t: &BusTiming) -> u64 {
        let base = match self.class {
            TxClass::LineC2c | TxClass::LineFill => t.line_transfer_cycles(),
            TxClass::Upgrade => t.broadcast_cycles,
            TxClass::Update => t.update_cycles(),
            TxClass::LineWithUpdate { .. } => t.line_transfer_cycles() + t.update_beats,
        };
        base + self.writeback_beats
    }

    fn wait_cycles(&self, t: &BusTiming) -> u64 {
        let fill = match self.class {
            TxClass::LineFill | TxClass::LineWithUpdate { c2c: false } => t.fill_cycles,
            _ => 0,
        };
        self.occupancy_cycles(t) + fill
    }
}

fn apply_snoop_transaction(
    protocol: Protocol,
    requester: usize,
    op: PendingOp,
    scratch: &mut BaselineScratch,
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
    state: LineState,
    version: u64,
    scratch: &mut BaselineScratch,
    metrics: &mut CoherenceMetrics,
) -> u64 {
    let Some(victim) = scratch.caches[core].fill(line, state, version) else {
        return 0;
    };
    metrics.evictions += 1;
    if victim.state.is_dirty() {
        metrics.writebacks += 1;
        scratch.memory.insert(victim.line, victim.version);
        crate::timing::LINE_BEATS
    } else {
        0
    }
}

fn apply_mesi(
    requester: usize,
    op: PendingOp,
    scratch: &mut BaselineScratch,
    metrics: &mut CoherenceMetrics,
) -> TxOutcome {
    let line = op.line;
    let cores = scratch.caches.len();
    let here = scratch.caches[requester].state(line);
    if op.write {
        if here == LineState::Shared {
            // BusUpgr: invalidate the other sharers, no data moves.
            for other in 0..cores {
                if other != requester && scratch.caches[other].invalidate(line) {
                    metrics.invalidations += 1;
                }
            }
            let v = scratch.latest.entry(line).or_insert(0);
            *v += 1;
            let v = *v;
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
        for other in 0..cores {
            if other == requester {
                continue;
            }
            if scratch.caches[other].state(line).is_present() {
                if supplier_version.is_none() {
                    supplier_version = scratch.caches[other].version(line);
                }
                scratch.caches[other].invalidate(line);
                metrics.invalidations += 1;
            }
        }
        let c2c = supplier_version.is_some();
        if c2c {
            metrics.c2c_transfers += 1;
        } else {
            metrics.fills += 1;
        }
        let v = scratch.latest.entry(line).or_insert(0);
        *v += 1;
        let v = *v;
        let wb = fill_with_eviction(requester, line, LineState::Modified, v, scratch, metrics);
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
        // BusRd: owner flushes and demotes, clean copies demote E→S.
        let mut version = scratch.memory.get(&line).copied().unwrap_or(0);
        let mut shared = false;
        for other in 0..cores {
            if other == requester {
                continue;
            }
            let s = scratch.caches[other].state(line);
            match s {
                LineState::Modified | LineState::SharedModified => {
                    let v = scratch.caches[other]
                        .version(line)
                        .expect("owner is resident");
                    version = v;
                    scratch.memory.insert(line, v);
                    scratch.caches[other].update(line, LineState::Shared, None);
                    shared = true;
                }
                LineState::Exclusive | LineState::Shared | LineState::SharedClean => {
                    version = scratch.caches[other].version(line).expect("copy resident");
                    scratch.caches[other].update(line, LineState::Shared, None);
                    shared = true;
                }
                LineState::Invalid => {}
            }
        }
        debug_assert_eq!(
            version,
            scratch.latest.get(&line).copied().unwrap_or(0),
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
        let wb = fill_with_eviction(requester, line, state, version, scratch, metrics);
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
    scratch: &mut BaselineScratch,
    metrics: &mut CoherenceMetrics,
) -> TxOutcome {
    let line = op.line;
    let cores = scratch.caches.len();
    let here = scratch.caches[requester].state(line);
    let mut owner_version = None;
    let mut sharer_version = None;
    let mut others = 0usize;
    for other in 0..cores {
        if other == requester {
            continue;
        }
        let s = scratch.caches[other].state(line);
        if s.is_present() {
            others += 1;
            let v = scratch.caches[other].version(line).expect("resident");
            if s.is_owner() {
                owner_version = Some(v);
            } else {
                sharer_version = Some(v);
            }
        }
    }
    let supplied = owner_version.or(sharer_version);

    if op.write {
        if here.is_present() {
            // BusUpd from Sc/Sm: broadcast the new word to every sharer.
            let v = scratch.latest.entry(line).or_insert(0);
            *v += 1;
            let v = *v;
            metrics.updates += 1;
            if others > 0 {
                for other in 0..cores {
                    if other != requester && scratch.caches[other].state(line).is_present() {
                        scratch.caches[other].update(line, LineState::SharedClean, Some(v));
                    }
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
            let v = scratch.latest.entry(line).or_insert(0);
            *v += 1;
            let v = *v;
            metrics.updates += 1;
            let c2c = supplied.is_some();
            if c2c {
                metrics.c2c_transfers += 1;
            } else {
                metrics.fills += 1;
            }
            let state = if others > 0 {
                for other in 0..cores {
                    if other != requester && scratch.caches[other].state(line).is_present() {
                        scratch.caches[other].update(line, LineState::SharedClean, Some(v));
                    }
                }
                LineState::SharedModified
            } else {
                LineState::Modified
            };
            let wb = fill_with_eviction(requester, line, state, v, scratch, metrics);
            TxOutcome {
                class: TxClass::LineWithUpdate { c2c },
                writeback_beats: wb,
                version: v,
            }
        }
    } else {
        // Read miss: BusRd. Owners stay owners (M → Sm), clean suppliers
        // demote E → Sc.
        let version = supplied.unwrap_or_else(|| scratch.memory.get(&line).copied().unwrap_or(0));
        debug_assert_eq!(
            version,
            scratch.latest.get(&line).copied().unwrap_or(0),
            "Dragon BusRd fetched a stale version of line {line}"
        );
        for other in 0..cores {
            if other == requester {
                continue;
            }
            match scratch.caches[other].state(line) {
                LineState::Modified => {
                    scratch.caches[other].update(line, LineState::SharedModified, None);
                }
                LineState::Exclusive => {
                    scratch.caches[other].update(line, LineState::SharedClean, None);
                }
                _ => {}
            }
        }
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
        let wb = fill_with_eviction(requester, line, state, version, scratch, metrics);
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

/// The routed legs one directory transaction needs.
struct TxPlan {
    home: usize,
    req_lat: u64,
    reply_lat: u64,
    owner: Option<(usize, u64, u64)>,
    inval_chain: u64,
    sharer_count: u64,
}

/// Runs `trace` over a directory mesh with the reference engine: the
/// exact pre-optimization hot loop, including the per-run
/// [`DirectoryTiming`] construction the optimized path amortizes away.
///
/// # Errors
///
/// [`CoherenceError::InvalidConfig`] for Dragon, an invalid geometry,
/// or more cores than min(nodes, 64); [`CoherenceError::Stalled`] when
/// faults sever every needed route or the watchdog budget runs out.
#[allow(clippy::too_many_lines)]
pub fn run_directory(
    config: CoherenceConfig,
    trace: &AccessTrace,
    network: &RouterNetwork,
    clock_ghz: f64,
    mem: &MemoryDesign,
    schedule: Option<&FaultSchedule>,
    scratch: &mut BaselineScratch,
) -> Result<RunOutcome, CoherenceError> {
    if config.protocol == Protocol::Dragon {
        return Err(CoherenceError::InvalidConfig {
            reason: "the directory engine supports MESI only".to_string(),
        });
    }
    config.geometry.validate()?;
    let cores = trace.cores();
    let mut timing = timing_at(network, mem, clock_ghz, schedule, 0)?;
    let nodes = timing.nodes();
    if cores > nodes || cores > 64 {
        return Err(CoherenceError::InvalidConfig {
            reason: format!(
                "directory engine supports up to min(nodes, 64) cores, got {cores} over {nodes} nodes"
            ),
        });
    }
    scratch.ensure(cores, config.geometry)?;
    scratch.home_busy.resize(nodes, 0);

    let total = trace.total_accesses();
    let watchdog_limit = total
        .saturating_mul(config.watchdog_cycles_per_access)
        .saturating_add(100_000);
    let change_points: Vec<u64> = schedule.map_or_else(Vec::new, FaultSchedule::change_points);
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
        while change_idx < change_points.len() && cycle >= change_points[change_idx] {
            timing = timing_at(network, mem, clock_ghz, schedule, cycle)?;
            change_idx += 1;
        }

        // 1. Deliver due completions.
        while let Some(&Reverse((when, _, core))) = scratch.completions.peek() {
            if when > cycle {
                break;
            }
            scratch.completions.pop();
            let op = scratch.pending[core]
                .take()
                .expect("completion without MSHR");
            if let Some(i) = scratch.inflight.iter().position(|&l| l == op.line) {
                scratch.inflight.swap_remove(i);
            }
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
            let Some(&a) = trace.stream(core).get(scratch.next_idx[core]) else {
                continue;
            };
            let line = trace.line_of(a.addr);
            let state = scratch.caches[core]
                .probe(line)
                .map_or(LineState::Invalid, |(s, _)| s);
            let hit = match (a.write, state) {
                (false, s) if s.is_present() => true,
                (true, LineState::Modified | LineState::Exclusive) => true,
                _ => false,
            };
            if hit {
                let version = if a.write {
                    let v = scratch.latest.entry(line).or_insert(0);
                    *v += 1;
                    let v = *v;
                    // Silent E→M: the directory already tracks this
                    // core as the exclusive holder.
                    scratch.caches[core].update(line, LineState::Modified, Some(v));
                    v
                } else {
                    let v = scratch.caches[core]
                        .version(line)
                        .expect("hit line is resident");
                    debug_assert_eq!(
                        v,
                        scratch.latest.get(&line).copied().unwrap_or(0),
                        "read hit observed a stale version on line {line}"
                    );
                    v
                };
                if config.record_commits {
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
                    write: a.write,
                    issued_at: cycle,
                });
                scratch.requests[core] = true;
            }
        }

        // 3. Home nodes process unmasked requests, in core order.
        for core in 0..cores {
            if !scratch.requests[core] {
                continue;
            }
            let op = scratch.pending[core].expect("raised request has an MSHR");
            if scratch.inflight.contains(&op.line) {
                continue;
            }
            let Some(tx_plan) = plan(core, op, &timing, scratch) else {
                continue;
            };
            scratch.requests[core] = false;
            let stall = schedule.map_or(0, |s| s.stall_cycles(nodes * nodes + tx_plan.home, cycle));
            let arrival = cycle + stall + tx_plan.req_lat;
            let start = arrival.max(scratch.home_busy[tx_plan.home]);
            scratch.home_busy[tx_plan.home] = start + timing.dir_occupancy_cycles;
            metrics.fabric_busy_cycles += timing.dir_occupancy_cycles;
            let after_dir = start + timing.dir_occupancy_cycles;
            let (chain, version) = apply(core, op, &tx_plan, &timing, scratch, &mut metrics);
            debug_assert!(
                verify_invariants_ref(Protocol::Mesi, &scratch.caches, &scratch.latest),
                "MESI invariant broken after the home processed line {}",
                op.line
            );
            if config.record_commits {
                scratch.commits.push(CommitEntry {
                    core,
                    line: op.line,
                    write: op.write,
                    version,
                });
            }
            scratch.inflight.push(op.line);
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
            if scratch.pending[core].is_none() && scratch.next_idx[core] < trace.stream(core).len()
            {
                next = next.min(scratch.ready_at[core]);
            }
        }
        if scratch.requests.iter().any(|&r| r) && change_idx < change_points.len() {
            next = next.min(change_points[change_idx]);
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

    debug_assert!(verify_invariants_ref(
        Protocol::Mesi,
        &scratch.caches,
        &scratch.latest
    ));
    Ok(RunOutcome {
        metrics,
        commits: std::mem::take(&mut scratch.commits),
    })
}

fn plan(
    core: usize,
    op: PendingOp,
    timing: &DirectoryTiming,
    scratch: &BaselineScratch,
) -> Option<TxPlan> {
    let home = timing.home_of(op.line);
    let req_lat = timing.one_way(core, home)?;
    let reply_lat = timing.one_way(home, core)?;
    let entry = scratch.dir.get(&op.line).copied().unwrap_or_default();
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
        for s in 0..scratch.caches.len() {
            if s != core && entry.sharers & (1 << s) != 0 {
                inval_chain = inval_chain.max(2 * timing.one_way(home, s)?);
                sharer_count += 1;
            }
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

fn apply(
    core: usize,
    op: PendingOp,
    plan: &TxPlan,
    timing: &DirectoryTiming,
    scratch: &mut BaselineScratch,
    metrics: &mut CoherenceMetrics,
) -> (u64, u64) {
    let line = op.line;
    let here = scratch.caches[core].state(line);
    metrics.network_messages += 1; // the request itself
    if op.write {
        if here == LineState::Shared {
            // Upgrade: invalidate the other sharers, home acks.
            invalidate_sharers(core, line, scratch, metrics, plan.sharer_count);
            let v = scratch.latest.entry(line).or_insert(0);
            *v += 1;
            let v = *v;
            scratch.caches[core].update(line, LineState::Modified, Some(v));
            let e = scratch.dir.entry(line).or_default();
            e.owner = Some(core);
            e.sharers = 0;
            metrics.network_messages += 1; // the ack
            metrics.upgrades += 1;
            return (plan.inval_chain + plan.reply_lat, v);
        }
        // RdX: fetch-and-own; owner forwards, sharers invalidate.
        let mut chain = plan.inval_chain;
        invalidate_sharers(core, line, scratch, metrics, plan.sharer_count);
        if let Some((owner, fwd, data)) = plan.owner {
            let ov = scratch.caches[owner].version(line).expect("owner resident");
            debug_assert_eq!(ov, scratch.latest.get(&line).copied().unwrap_or(0));
            scratch.caches[owner].invalidate(line);
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
        let v = scratch.latest.entry(line).or_insert(0);
        *v += 1;
        let v = *v;
        fill(core, line, LineState::Modified, v, scratch, metrics);
        let e = scratch.dir.entry(line).or_default();
        e.owner = Some(core);
        e.sharers = 0;
        (chain, v)
    } else {
        // BusRd analogue: owner forwards and demotes, else the home
        // slice supplies.
        if let Some((owner, fwd, data)) = plan.owner {
            let v = scratch.caches[owner].version(line).expect("owner resident");
            debug_assert_eq!(v, scratch.latest.get(&line).copied().unwrap_or(0));
            scratch.memory.insert(line, v);
            scratch.caches[owner].update(line, LineState::Shared, None);
            metrics.network_messages += 2; // fwd + data
            metrics.c2c_transfers += 1;
            fill(core, line, LineState::Shared, v, scratch, metrics);
            let e = scratch.dir.entry(line).or_default();
            e.owner = None;
            e.sharers |= (1 << owner) | (1 << core);
            (fwd + data + timing.line_beats, v)
        } else {
            let entry = scratch.dir.entry(line).or_default();
            let shared = entry.sharers != 0;
            let v = scratch.memory.get(&line).copied().unwrap_or(0);
            debug_assert_eq!(v, scratch.latest.get(&line).copied().unwrap_or(0));
            metrics.network_messages += 1; // data from the home slice
            metrics.fills += 1;
            let state = if shared {
                LineState::Shared
            } else {
                LineState::Exclusive
            };
            {
                let e = scratch.dir.entry(line).or_default();
                if shared {
                    e.sharers |= 1 << core;
                } else {
                    e.owner = Some(core);
                }
            }
            fill(core, line, state, v, scratch, metrics);
            (timing.fill_cycles + plan.reply_lat + timing.line_beats, v)
        }
    }
}

fn invalidate_sharers(
    core: usize,
    line: u64,
    scratch: &mut BaselineScratch,
    metrics: &mut CoherenceMetrics,
    sharer_count: u64,
) {
    let mask = scratch.dir.get(&line).map_or(0, |e| e.sharers);
    for s in 0..scratch.caches.len() {
        if s != core && mask & (1 << s) != 0 {
            scratch.caches[s].invalidate(line);
        }
    }
    if let Some(e) = scratch.dir.get_mut(&line) {
        e.sharers &= 1 << core;
    }
    metrics.invalidations += sharer_count;
    metrics.network_messages += 2 * sharer_count; // inv + ack each
}

fn fill(
    core: usize,
    line: u64,
    state: LineState,
    version: u64,
    scratch: &mut BaselineScratch,
    metrics: &mut CoherenceMetrics,
) {
    let Some(victim) = scratch.caches[core].fill(line, state, version) else {
        return;
    };
    metrics.evictions += 1;
    metrics.network_messages += 1; // eviction notice / writeback
    if victim.state.is_dirty() {
        metrics.writebacks += 1;
        scratch.memory.insert(victim.line, victim.version);
    }
    if let Some(e) = scratch.dir.get_mut(&victim.line) {
        if e.owner == Some(core) {
            e.owner = None;
        }
        e.sharers &= !(1 << core);
    }
}

/// Routed message prices under the faults active at `cycle`, rebuilt
/// from scratch every call — the per-run cost the optimized engine's
/// shared base table eliminates.
fn timing_at(
    network: &RouterNetwork,
    mem: &MemoryDesign,
    clock_ghz: f64,
    schedule: Option<&FaultSchedule>,
    cycle: u64,
) -> Result<DirectoryTiming, CoherenceError> {
    match schedule {
        Some(s) => {
            let dead = s.dead_resources_at(cycle);
            DirectoryTiming::from_network_avoiding(network, mem, clock_ghz, &dead)
        }
        None => DirectoryTiming::from_network(network, mem, clock_ghz),
    }
}

/// The exhaustive whole-cache invariant checker the optimized engines
/// replaced with incremental per-line checks: rebuilds a per-line map
/// over every resident line on every call. Kept as the oracle the
/// incremental checker is tested against.
#[must_use]
pub fn verify_invariants(
    protocol: Protocol,
    caches: &[PrivateCache],
    latest: &HashMap<u64, u64>,
) -> bool {
    verify_invariants_over(
        protocol,
        caches.iter().flat_map(PrivateCache::resident_lines),
        latest,
    )
}

/// [`verify_invariants`] over the reference engines' own caches — what
/// their per-grant `debug_assert!`s sweep.
fn verify_invariants_ref(
    protocol: Protocol,
    caches: &[RefCache],
    latest: &HashMap<u64, u64>,
) -> bool {
    verify_invariants_over(
        protocol,
        caches.iter().flat_map(RefCache::resident_lines),
        latest,
    )
}

fn verify_invariants_over(
    protocol: Protocol,
    resident: impl Iterator<Item = (u64, LineState, u64)>,
    latest: &HashMap<u64, u64>,
) -> bool {
    let mut per_line: HashMap<u64, (usize, usize, Vec<u64>)> = HashMap::new();
    for (line, state, version) in resident {
        let e = per_line.entry(line).or_insert((0, 0, Vec::new()));
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
            let owners_ok = *exclusive_like <= 1;
            // Every copy a reader could hit must be the latest committed
            // version (invalidation and update protocols both guarantee it).
            let latest_v = latest.get(line).copied().unwrap_or(0);
            let versions_ok = versions.iter().all(|&v| v == latest_v);
            sole && owners_ok && versions_ok
        })
}
