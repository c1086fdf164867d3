//! An independent per-cycle oracle for the coherence engines.
//!
//! `CoherenceSystem::run` is built for speed: flat arenas over the
//! trace's interned lines, per-core bitmasks, a completion heap and an
//! event skip over idle cycles. The model here is the same machine
//! written the plain way, from the rules of DESIGN.md §8, and each
//! property requires both to produce the same `RunOutcome` — every
//! counter and the commit log — over random traffic, the three
//! geometry classes and, in half the cases, a fault plan.
//!
//! - Each core runs its stream in order with one outstanding miss. A
//!   hit (any copy for a load, M or E for a store) takes one cycle, and
//!   a core's next reference is ready its think time after the previous
//!   one finished.
//! - Private caches are set-associative, write-back, write-allocate
//!   and LRU: each set lists its lines from least to most recently
//!   used, and a lookup or a fill moves a line to the back.
//! - The model ticks every cycle: data lands, ready cores issue, then
//!   the fabric serializes what it can take, and the protocol acts
//!   there and then.
//! - On a bus, each interleaving way (`line % ways`) grants one raised
//!   request per cycle once its data wires are free, through a
//!   least-recently-granted matrix arbiter. The wires are held for the
//!   transaction's beats; its data lands after the control overhead,
//!   those beats and, for a line from memory, the L3 fill. So a way can
//!   grant again while earlier data is still in flight, but a line whose
//!   data has not landed takes no part in arbitration.
//! - On a mesh, each line has a static home (`line % nodes`), which
//!   takes requests one directory occupancy at a time in the order they
//!   were sent. Owners forward, sharers are invalidated in parallel, and
//!   a request whose route is severed waits for the fault to heal.
//!
//! The model borrows only what belongs to the fabric: the `BusTiming`
//! and `DirectoryTiming` prices, the `MatrixArbiter`, the CryoBus
//! re-formed around dead H-tree segments, and the fault schedule's
//! queries.

use std::collections::{BTreeSet, HashMap};

use cryowire_coherence::{
    AccessTrace, BusTiming, CacheGeometry, CoherenceConfig, CoherenceError, CoherenceMetrics,
    CoherenceScratch, CoherenceSystem, CommitEntry, CoreAccess, DirectoryTiming, Protocol,
    RunOutcome, SystemFabric,
};
use cryowire_device::Temperature;
use cryowire_faults::FaultSchedule;
use cryowire_memory::MemoryDesign;
use cryowire_noc::{CryoBus, MatrixArbiter, RouterClass, RouterNetwork, SharedBus};
use proptest::{any, collection, prop_assert, proptest, ProptestConfig, TestCaseError};

mod common;

use common::{config, geometries, injection_port, mk_schedule, mk_trace};

// --------------------------------------------------------------- caches

/// A copy's state: MESI uses M, E and S; Dragon uses M, E, Sc and Sm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    M,
    E,
    S,
    Sc,
    Sm,
}

impl State {
    /// The copy owes memory a writeback.
    fn dirty(self) -> bool {
        matches!(self, State::M | State::Sm)
    }
}

/// One cached line and the version of its data.
#[derive(Debug, Clone, Copy)]
struct Held {
    line: u64,
    state: State,
    version: u64,
}

fn held(line: u64, state: State, version: u64) -> Held {
    Held {
        line,
        state,
        version,
    }
}

/// A private cache. `sets[line % sets.len()]` lists its lines from
/// least to most recently used.
struct Cache {
    sets: Vec<Vec<Held>>,
    assoc: usize,
}

impl Cache {
    fn new(geometry: CacheGeometry) -> Self {
        Cache {
            sets: (0..geometry.sets()).map(|_| Vec::new()).collect(),
            assoc: geometry.assoc as usize,
        }
    }

    fn set(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    fn get(&mut self, line: u64) -> Option<&mut Held> {
        let set = self.set(line);
        self.sets[set].iter_mut().find(|h| h.line == line)
    }

    fn holds(&self, line: u64) -> bool {
        self.sets[self.set(line)].iter().any(|h| h.line == line)
    }

    fn remove(&mut self, line: u64) -> Option<Held> {
        let at = self.set(line);
        let set = &mut self.sets[at];
        let at = set.iter().position(|h| h.line == line)?;
        Some(set.remove(at))
    }

    /// A lookup: a resident line becomes the most recently used.
    fn touch(&mut self, line: u64) {
        if let Some(h) = self.remove(line) {
            let set = self.set(line);
            self.sets[set].push(h);
        }
    }

    /// Puts `h` in as the most recently used line; returns the least
    /// recently used one when the set was full.
    fn insert(&mut self, h: Held) -> Option<Held> {
        self.remove(h.line);
        let (at, assoc) = (self.set(h.line), self.assoc);
        let set = &mut self.sets[at];
        let victim = (set.len() == assoc).then(|| set.remove(0));
        set.push(h);
        victim
    }
}

// -------------------------------------------------------------- machine

/// A core's outstanding miss.
#[derive(Debug, Clone, Copy)]
struct Miss {
    line: u64,
    write: bool,
    issued: u64,
    /// When its data lands, once the fabric has serialized it.
    lands: Option<u64>,
}

struct Core<'t> {
    stream: &'t [CoreAccess],
    /// Index of the next reference.
    next: usize,
    /// First cycle the next reference may issue.
    ready: u64,
    miss: Option<Miss>,
}

impl Core<'_> {
    /// Moves past a reference that finished the cycle before `free`.
    fn advance(&mut self, free: u64) {
        self.next += 1;
        self.ready = free + self.stream.get(self.next).map_or(0, |a| u64::from(a.think));
    }
}

/// True while some core's data for `line` is in flight.
fn in_flight(cores: &[Core], line: u64) -> bool {
    cores
        .iter()
        .any(|c| c.miss.is_some_and(|m| m.line == line && m.lands.is_some()))
}

/// What the protocol reads and writes: the caches, each line's latest
/// version and the version memory holds, the counters and the log.
struct Machine {
    caches: Vec<Cache>,
    latest: HashMap<u64, u64>,
    memory: HashMap<u64, u64>,
    metrics: CoherenceMetrics,
    commits: Vec<CommitEntry>,
    record: bool,
}

impl Machine {
    /// A write to `line` commits its next version.
    fn write_version(&mut self, line: u64) -> u64 {
        let v = self.latest.entry(line).or_insert(0);
        *v += 1;
        *v
    }

    fn memory(&self, line: u64) -> u64 {
        self.memory.get(&line).copied().unwrap_or(0)
    }

    /// Cores other than `core` that hold `line`, ascending.
    fn holders(&self, core: usize, line: u64) -> Vec<usize> {
        (0..self.caches.len())
            .filter(|&c| c != core && self.caches[c].holds(line))
            .collect()
    }

    fn copy(&mut self, core: usize, line: u64) -> &mut Held {
        self.caches[core].get(line).expect("holder keeps its copy")
    }

    /// Counts a miss served by a peer cache or by the backing store.
    fn supplied(&mut self, by_peer: bool) {
        if by_peer {
            self.metrics.c2c_transfers += 1;
        } else {
            self.metrics.fills += 1;
        }
    }

    /// Fills `h` into `core`'s cache and returns the line it displaced,
    /// whose data goes back to memory when dirty.
    fn fill(&mut self, core: usize, h: Held) -> Option<Held> {
        let victim = self.caches[core].insert(h)?;
        self.metrics.evictions += 1;
        if victim.state.dirty() {
            self.metrics.writebacks += 1;
            self.memory.insert(victim.line, victim.version);
        }
        Some(victim)
    }

    fn log(&mut self, core: usize, line: u64, write: bool, version: u64) {
        if self.record {
            let entry = CommitEntry {
                core,
                line,
                write,
                version,
            };
            self.commits.push(entry);
        }
    }

    /// Counts an access of `latency` cycles that finished at `end`.
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

/// How a fabric serializes raised misses, called once per cycle after
/// the cores issue.
trait Serializer {
    fn serve(&mut self, cycle: u64, cores: &mut [Core], machine: &mut Machine);
}

/// Runs `trace` to the end, one cycle at a time; `None` if it has not
/// finished when the engine's watchdog budget runs out.
fn simulate(
    fabric: &mut dyn Serializer,
    trace: &AccessTrace,
    config: &CoherenceConfig,
) -> Option<RunOutcome> {
    let total = trace.total_accesses();
    let budget = total
        .saturating_mul(config.watchdog_cycles_per_access)
        .saturating_add(100_000);
    let mut cores: Vec<Core> = (0..trace.cores())
        .map(|c| {
            let stream = trace.stream(c);
            let ready = stream.first().map_or(0, |a| u64::from(a.think));
            Core {
                stream,
                next: 0,
                ready,
                miss: None,
            }
        })
        .collect();
    let mut m = Machine {
        caches: (0..cores.len())
            .map(|_| Cache::new(config.geometry))
            .collect(),
        latest: HashMap::new(),
        memory: HashMap::new(),
        metrics: CoherenceMetrics::default(),
        commits: Vec::new(),
        record: config.record_commits,
    };
    for cycle in 0.. {
        if cycle > budget {
            return None;
        }
        for core in &mut cores {
            let Some(miss) = core.miss else { continue };
            if let Some(landed) = miss.lands.filter(|&t| t <= cycle) {
                core.miss = None;
                m.metrics.misses += 1;
                m.retire(miss.write, landed - miss.issued, landed);
                core.advance(landed + 1);
            }
        }
        for (c, core) in cores.iter_mut().enumerate() {
            let Some(a) = core.stream.get(core.next).copied() else {
                continue;
            };
            if core.miss.is_some() || core.ready > cycle {
                continue;
            }
            let line = trace.line_of(a.addr);
            m.caches[c].touch(line);
            let hit = match m.caches[c].get(line).map(|h| h.state) {
                Some(State::M | State::E) => true,
                Some(_) => !a.write,
                None => false,
            };
            if !hit {
                core.miss = Some(Miss {
                    line,
                    write: a.write,
                    issued: cycle,
                    lands: None,
                });
                continue;
            }
            let version = if a.write {
                // A sole copy writes silently: E or M becomes M.
                let v = m.write_version(line);
                *m.copy(c, line) = held(line, State::M, v);
                v
            } else {
                m.copy(c, line).version
            };
            m.log(c, line, a.write, version);
            m.metrics.hits += 1;
            m.retire(a.write, 1, cycle + 1);
            core.advance(cycle + 1);
        }
        fabric.serve(cycle, &mut cores, &mut m);
        if m.metrics.accesses == total {
            break;
        }
    }
    let (metrics, commits) = (m.metrics, m.commits);
    Some(RunOutcome { metrics, commits })
}

// ------------------------------------------------------------------ bus

/// Transaction prices of the bus `wires` with the H-tree segments
/// `dead` cut: the CryoBus re-forms around them when it can.
fn price(wires: &SystemFabric, dead: &[(usize, usize)]) -> BusTiming {
    let mem = MemoryDesign::mem_77k();
    match wires {
        SystemFabric::CryoBus(bus) => match bus.reform_around(dead) {
            Ok(reformed) if !dead.is_empty() => BusTiming::from_cryobus(&reformed, &mem),
            _ => BusTiming::from_cryobus(bus, &mem),
        },
        SystemFabric::SharedBus(bus) => BusTiming::from_shared_bus(bus, &mem),
        SystemFabric::Mesh { .. } => unreachable!("a mesh is no bus"),
    }
}

struct Bus<'s> {
    wires: SystemFabric,
    protocol: Protocol,
    schedule: Option<&'s FaultSchedule>,
    /// The dead H-tree segments `timing` was priced for.
    dead: Vec<(usize, usize)>,
    timing: BusTiming,
    /// Interleaving ways, as the bus is at cycle 0.
    ways: usize,
    arbiters: Vec<MatrixArbiter>,
    /// First cycle each way's data wires are free.
    free: Vec<u64>,
}

impl<'s> Bus<'s> {
    fn new(
        wires: SystemFabric,
        protocol: Protocol,
        cores: usize,
        s: Option<&'s FaultSchedule>,
    ) -> Self {
        let dead = s.map_or_else(Vec::new, |s| s.dead_htree_segments_at(0));
        let timing = price(&wires, &dead);
        let ways = timing.ways;
        Bus {
            wires,
            protocol,
            schedule: s,
            dead,
            timing,
            ways,
            arbiters: (0..ways).map(|_| MatrixArbiter::new(cores)).collect(),
            free: vec![0; ways],
        }
    }
}

impl Serializer for Bus<'_> {
    fn serve(&mut self, cycle: u64, cores: &mut [Core], m: &mut Machine) {
        if let Some(s) = self.schedule {
            let dead = s.dead_htree_segments_at(cycle);
            if dead != self.dead {
                self.timing = price(&self.wires, &dead);
                self.dead = dead;
            }
        }
        let t = self.timing;
        for way in 0..self.ways {
            if self.free[way] > cycle {
                continue;
            }
            let on_way = |x: &Miss| x.line % self.ways as u64 == way as u64;
            let requests: Vec<bool> = cores
                .iter()
                .map(|c| {
                    c.miss.is_some_and(|x| {
                        x.lands.is_none() && on_way(&x) && !in_flight(cores, x.line)
                    })
                })
                .collect();
            let Some(winner) = self.arbiters[way].arbitrate(&requests) else {
                continue;
            };
            let miss = cores[winner].miss.expect("the winner raised a miss");
            let tx = match self.protocol {
                Protocol::Mesi => mesi(winner, miss, m),
                Protocol::Dragon => dragon(winner, miss, m),
            };
            let beats = |on: bool, n: u64| if on { n } else { 0 };
            let wires = t.broadcast_cycles
                + beats(tx.line, t.line_beats)
                + beats(tx.update, t.update_beats)
                + beats(tx.writeback, t.line_beats);
            let wait = wires + beats(tx.from_memory, t.fill_cycles);
            let stall = self.schedule.map_or(0, |s| s.stall_cycles(way, cycle));
            self.free[way] = cycle + stall + wires;
            m.metrics.bus_transactions += 1;
            m.metrics.fabric_busy_cycles += wires;
            let lands = Some(cycle + stall + t.overhead_cycles + wait);
            cores[winner].miss = Some(Miss { lands, ..miss });
            m.log(winner, miss.line, miss.write, tx.version);
        }
    }
}

/// What a granted bus transaction moves.
struct Tx {
    version: u64,
    /// A full line crosses the data wires.
    line: bool,
    /// A Dragon word update is broadcast.
    update: bool,
    /// The line comes from memory, an L3 fill after the wires.
    from_memory: bool,
    /// A dirty victim is flushed in the same transaction.
    writeback: bool,
}

impl Tx {
    /// No line moves: a MESI upgrade, or a Dragon word `update`.
    fn word(version: u64, update: bool) -> Tx {
        Tx {
            version,
            line: false,
            update,
            from_memory: false,
            writeback: false,
        }
    }

    /// A line moves, displacing `victim` from the requester's cache.
    fn line(version: u64, update: bool, from_memory: bool, victim: Option<Held>) -> Tx {
        let writeback = victim.is_some_and(|v| v.state.dirty());
        Tx {
            version,
            line: true,
            update,
            from_memory,
            writeback,
        }
    }
}

/// A MESI bus transaction for `core`'s `miss`, applied at its grant.
fn mesi(core: usize, miss: Miss, m: &mut Machine) -> Tx {
    let line = miss.line;
    let peers = m.holders(core, line);
    let alone = peers.is_empty();
    if miss.write {
        // Every other copy is invalidated.
        for &p in &peers {
            m.caches[p].remove(line);
            m.metrics.invalidations += 1;
        }
        let version = m.write_version(line);
        if m.caches[core].holds(line) {
            // BusUpgr from S: the writer already has the data.
            *m.copy(core, line) = held(line, State::M, version);
            m.metrics.upgrades += 1;
            return Tx::word(version, false);
        }
        // BusRdX: a peer's copy, or memory, supplies the line.
        m.supplied(!alone);
        let victim = m.fill(core, held(line, State::M, version));
        return Tx::line(version, false, alone, victim);
    }
    // BusRd: every copy becomes S, and an M owner flushes to memory.
    let mut version = m.memory(line);
    for &p in &peers {
        let h = m.copy(p, line);
        let (dirty, v) = (h.state.dirty(), h.version);
        h.state = State::S;
        if dirty {
            m.memory.insert(line, v);
        }
        version = v;
    }
    m.supplied(!alone);
    let state = if alone { State::E } else { State::S };
    let victim = m.fill(core, held(line, state, version));
    Tx::line(version, false, alone, victim)
}

/// A Dragon bus transaction for `core`'s `miss`, applied at its grant.
/// Nothing is ever invalidated: writes update every copy in place.
fn dragon(core: usize, miss: Miss, m: &mut Machine) -> Tx {
    let line = miss.line;
    let peers = m.holders(core, line);
    let alone = peers.is_empty();
    if miss.write {
        let version = m.write_version(line);
        m.metrics.updates += 1;
        // The other copies take the word and become Sc; the writer owns
        // the line, Sm while it is shared and M when it is alone.
        for &p in &peers {
            *m.copy(p, line) = held(line, State::Sc, version);
        }
        let state = if alone { State::M } else { State::Sm };
        if m.caches[core].holds(line) {
            // BusUpd from Sc or Sm: only the word moves.
            *m.copy(core, line) = held(line, state, version);
            return Tx::word(version, true);
        }
        // A write miss fetches the line and broadcasts the update in one
        // transaction.
        m.supplied(!alone);
        let victim = m.fill(core, held(line, state, version));
        return Tx::line(version, true, alone, victim);
    }
    // BusRd: the owner supplies and stays owner (M becomes Sm), a clean
    // sole copy becomes Sc, and without copies memory supplies.
    let (mut owner, mut sharer) = (None, None);
    for &p in &peers {
        let h = m.copy(p, line);
        if h.state.dirty() {
            owner = Some(h.version);
        } else {
            sharer = Some(h.version);
        }
        h.state = match h.state {
            State::M => State::Sm,
            State::E => State::Sc,
            s => s,
        };
    }
    let version = owner.or(sharer).unwrap_or_else(|| m.memory(line));
    m.supplied(!alone);
    let state = if alone { State::E } else { State::Sc };
    let victim = m.fill(core, held(line, state, version));
    Tx::line(version, false, alone, victim)
}

// ----------------------------------------------------------------- mesh

/// A line's directory entry: the core that may hold it E or M, and the
/// cores holding it S.
#[derive(Debug, Default)]
struct Entry {
    owner: Option<usize>,
    sharers: BTreeSet<usize>,
}

/// The routed legs of one transaction, all resolved before the home
/// acts.
struct Legs {
    home: usize,
    request: u64,
    reply: u64,
    /// The owner other than the requester, and its forward plus data
    /// legs.
    owner: Option<(usize, u64)>,
    /// The slowest invalidation round trip of a write's fan-out.
    invalidation: u64,
}

struct Mesh<'s> {
    network: RouterNetwork,
    clock_ghz: f64,
    schedule: Option<&'s FaultSchedule>,
    /// The dead resources `timing` was priced for.
    dead: Vec<usize>,
    timing: DirectoryTiming,
    /// First cycle each home's directory is free.
    free: Vec<u64>,
    dir: HashMap<u64, Entry>,
}

/// Message prices of `network` at `clock_ghz` with the resources
/// `dead` cut.
fn route(network: &RouterNetwork, clock_ghz: f64, dead: &[usize]) -> DirectoryTiming {
    let mem = MemoryDesign::mem_77k();
    DirectoryTiming::from_network_avoiding(network, &mem, clock_ghz, dead).expect("mesh has nodes")
}

impl<'s> Mesh<'s> {
    fn new(network: RouterNetwork, clock_ghz: f64, schedule: Option<&'s FaultSchedule>) -> Self {
        let dead = schedule.map_or_else(Vec::new, |s| s.dead_resources_at(0));
        let timing = route(&network, clock_ghz, &dead);
        Mesh {
            free: vec![0; timing.nodes()],
            network,
            clock_ghz,
            schedule,
            dead,
            timing,
            dir: HashMap::new(),
        }
    }

    /// The legs `core`'s `miss` needs; `None` while one is severed.
    fn legs(&self, core: usize, miss: Miss) -> Option<Legs> {
        let t = &self.timing;
        let home = t.home_of(miss.line);
        let entry = self.dir.get(&miss.line);
        let owner = match entry.and_then(|e| e.owner) {
            Some(o) if o != core => Some((o, t.one_way(home, o)? + t.one_way(o, core)?)),
            _ => None,
        };
        let mut invalidation = 0;
        if miss.write {
            for &s in entry.iter().flat_map(|e| &e.sharers) {
                if s != core {
                    invalidation = invalidation.max(2 * t.one_way(home, s)?);
                }
            }
        }
        Some(Legs {
            home,
            request: t.one_way(core, home)?,
            reply: t.one_way(home, core)?,
            owner,
            invalidation,
        })
    }

    /// Fills `h` into `core`'s cache; a victim's home hears of it (with
    /// the data when dirty) and forgets the copy.
    fn fill(&mut self, m: &mut Machine, core: usize, h: Held) {
        if let Some(victim) = m.fill(core, h) {
            m.metrics.network_messages += 1;
            if let Some(e) = self.dir.get_mut(&victim.line) {
                if e.owner == Some(core) {
                    e.owner = None;
                }
                e.sharers.remove(&core);
            }
        }
    }

    /// Applies `core`'s `miss` at its home; returns the cycles from the
    /// directory's answer to the data landing, and the version.
    fn apply(&mut self, core: usize, miss: Miss, legs: &Legs, m: &mut Machine) -> (u64, u64) {
        let (fill_cycles, line_beats) = (self.timing.fill_cycles, self.timing.line_beats);
        let line = miss.line;
        m.metrics.network_messages += 1; // the request
        let entry = self.dir.entry(line).or_default();
        if miss.write {
            // The other sharers are invalidated, each a message and an
            // acknowledgement; the writer becomes the owner.
            for s in std::mem::take(&mut entry.sharers) {
                if s != core {
                    m.caches[s].remove(line);
                    m.metrics.invalidations += 1;
                    m.metrics.network_messages += 2;
                }
            }
            entry.owner = Some(core);
            let version = m.write_version(line);
            if m.caches[core].holds(line) {
                // An upgrade from S: the home acknowledges.
                *m.copy(core, line) = held(line, State::M, version);
                m.metrics.network_messages += 1;
                m.metrics.upgrades += 1;
                return (legs.invalidation + legs.reply, version);
            }
            let data = if let Some((o, forward)) = legs.owner {
                // The owner forwards the line, drops its copy and
                // acknowledges the home.
                m.caches[o].remove(line);
                m.metrics.invalidations += 1;
                m.metrics.network_messages += 3;
                m.metrics.c2c_transfers += 1;
                (forward + line_beats).max(legs.reply)
            } else {
                m.metrics.network_messages += 1;
                m.metrics.fills += 1;
                fill_cycles + legs.reply + line_beats
            };
            self.fill(m, core, held(line, State::M, version));
            return (legs.invalidation.max(data), version);
        }
        if let Some((o, forward)) = legs.owner {
            // The owner forwards the line and keeps it S; memory takes
            // the data.
            let owned = m.copy(o, line);
            owned.state = State::S;
            let version = owned.version;
            m.memory.insert(line, version);
            m.metrics.network_messages += 2;
            m.metrics.c2c_transfers += 1;
            entry.owner = None;
            entry.sharers.extend([o, core]);
            self.fill(m, core, held(line, State::S, version));
            return (forward + line_beats, version);
        }
        // The home's L3 slice supplies: E when nobody else holds it.
        let version = m.memory(line);
        m.metrics.network_messages += 1;
        m.metrics.fills += 1;
        let state = if entry.sharers.is_empty() {
            entry.owner = Some(core);
            State::E
        } else {
            entry.sharers.insert(core);
            State::S
        };
        self.fill(m, core, held(line, state, version));
        (fill_cycles + legs.reply + line_beats, version)
    }
}

impl Serializer for Mesh<'_> {
    fn serve(&mut self, cycle: u64, cores: &mut [Core], m: &mut Machine) {
        if let Some(s) = self.schedule {
            let dead = s.dead_resources_at(cycle);
            if dead != self.dead {
                self.timing = route(&self.network, self.clock_ghz, &dead);
                self.dead = dead;
            }
        }
        for core in 0..cores.len() {
            let Some(miss) = cores[core].miss.filter(|x| x.lands.is_none()) else {
                continue;
            };
            if in_flight(cores, miss.line) {
                continue;
            }
            let Some(legs) = self.legs(core, miss) else {
                continue;
            };
            // A router stall on the home's injection port delays the
            // request.
            let port = injection_port(legs.home);
            let stall = self.schedule.map_or(0, |s| s.stall_cycles(port, cycle));
            let start = (cycle + stall + legs.request).max(self.free[legs.home]);
            let answered = start + self.timing.dir_occupancy_cycles;
            self.free[legs.home] = answered;
            m.metrics.fabric_busy_cycles += self.timing.dir_occupancy_cycles;
            let (chain, version) = self.apply(core, miss, &legs, m);
            let lands = Some(answered + chain);
            cores[core].miss = Some(Miss { lands, ..miss });
            m.log(core, miss.line, miss.write, version);
        }
    }
}

// ----------------------------------------------------------- properties

/// The fabrics the properties cover.
#[derive(Debug, Clone, Copy)]
enum Fabric {
    /// The 64-core 77 K CryoBus with this many interleaving ways.
    CryoBus(usize),
    /// A conventional 64-core bus at 77 K.
    SharedBus,
    /// The 64-node 1-cycle mesh directory at 5.44 GHz.
    Mesh,
}

impl Fabric {
    fn build(self) -> SystemFabric {
        let t77 = Temperature::liquid_nitrogen();
        match self {
            Fabric::CryoBus(ways) => {
                SystemFabric::CryoBus(CryoBus::try_new(64, t77, ways).expect("valid CryoBus"))
            }
            Fabric::SharedBus => SystemFabric::SharedBus(SharedBus::new(64, t77)),
            Fabric::Mesh => SystemFabric::Mesh {
                network: RouterNetwork::mesh64(RouterClass::OneCycle, t77),
                clock_ghz: 5.44,
            },
        }
    }
}

/// Runs `trace` on `fabric` through the engine and the oracle. A
/// completed run must agree on every counter and the whole commit log;
/// a run the engine reports stalled must not finish in the oracle
/// either.
fn agree(
    fabric: Fabric,
    trace: &AccessTrace,
    config: &CoherenceConfig,
    schedule: Option<&FaultSchedule>,
) -> Result<(), TestCaseError> {
    let mem = MemoryDesign::mem_77k();
    let system = match fabric.build() {
        SystemFabric::Mesh { network, clock_ghz } => {
            CoherenceSystem::directory(network, clock_ghz, mem)
        }
        bus => CoherenceSystem::snooping(bus, mem),
    };
    let engine = system.expect("the system builds").run(
        trace,
        config,
        schedule,
        &mut CoherenceScratch::new(),
    );
    let model = match fabric.build() {
        SystemFabric::Mesh { network, clock_ghz } => {
            simulate(&mut Mesh::new(network, clock_ghz, schedule), trace, config)
        }
        bus => {
            let mut bus = Bus::new(bus, config.protocol, trace.cores(), schedule);
            simulate(&mut bus, trace, config)
        }
    };
    match (engine, model) {
        (Ok(engine), Some(model)) => {
            prop_assert!(
                engine.metrics == model.metrics,
                "{fabric:?}: engine {:?}\n  oracle {:?}",
                engine.metrics,
                model.metrics
            );
            let (a, b) = (&engine.commits, &model.commits);
            let diverged = a.iter().zip(b).position(|(x, y)| x != y);
            prop_assert!(
                diverged.is_none() && a.len() == b.len(),
                "{fabric:?}: commit logs diverge at entry {diverged:?} (lengths {} and {})",
                a.len(),
                b.len()
            );
            Ok(())
        }
        (Err(CoherenceError::Stalled { .. }), None) => Ok(()),
        (engine, model) => Err(TestCaseError::Fail(format!(
            "{fabric:?}: the engine returned {:?}, the oracle finished: {}",
            engine.map(|o| o.metrics),
            model.is_some()
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// MESI and Dragon snooping on the 1-way and the 2-way CryoBus and
    /// on a conventional bus.
    #[test]
    fn bus_engine_matches_the_oracle(
        raw in collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..250),
        cores in 2usize..9,
        geom in 0usize..3,
        faulty in any::<bool>(),
        stall in 0u64..48,
        start in 0u64..2_000,
    ) {
        let trace = mk_trace(&raw, cores);
        let schedule = faulty.then(|| mk_schedule(0, 1, stall, start));
        for fabric in [Fabric::CryoBus(1), Fabric::CryoBus(2), Fabric::SharedBus] {
            for protocol in [Protocol::Mesi, Protocol::Dragon] {
                let config = config(protocol, geometries()[geom]);
                agree(fabric, &trace, &config, schedule.as_ref())?;
            }
        }
    }

    /// MESI on the 64-node 1-cycle mesh directory at 5.44 GHz.
    #[test]
    fn directory_engine_matches_the_oracle(
        raw in collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..200),
        cores in 2usize..9,
        geom in 0usize..3,
        faulty in any::<bool>(),
        stall in 0u64..48,
        start in 0u64..2_000,
    ) {
        let trace = mk_trace(&raw, cores);
        let schedule = faulty.then(|| mk_schedule(0, 1, stall, start));
        let config = config(Protocol::Mesi, geometries()[geom]);
        agree(Fabric::Mesh, &trace, &config, schedule.as_ref())?;
    }
}
