//! The contention simulation engine.
//!
//! Packets are expanded into **legs** over shared **resources** (mesh
//! links, bus data wires). Each resource serves one packet at a time;
//! packets reserve the resources along their path in injection order.
//! For a leg the packet first waits for the resource to free, holds it for
//! `occupancy_cycles` (serialization), and arrives `traversal_cycles`
//! later. This reservation model reproduces zero-load latencies exactly
//! and produces the classic load–latency hockey stick as offered load
//! approaches a resource's service capacity, which is the behaviour the
//! paper's BookSim analyses (Fig. 18/21/25/26) rely on.
//!
//! ## Performance architecture
//!
//! The engine's hot loop is allocation-free in steady state, and all
//! mutable run state lives in a reusable [`SimScratch`]. Routes come from
//! one of two tables, and which one is a property of the network, never
//! an option:
//!
//! - A router network walks its [`NextHopTable`] (see
//!   [`Network::next_hop_table`]) on every fault-free run. Its
//!   dimension-ordered routes are suffix-closed — the route from a
//!   packet's next router onward is the rest of its route — so one R×R
//!   table of next hops, built with the network, holds them all, and a
//!   packet's legs are generated hop by hop as it is reserved.
//! - Every other network (the buses, CryoBus, the segmented bus, the
//!   hybrid), and every faulted run, memoizes routes per
//!   `(network, dead-set epoch)` in a flat [`PathTable`] arena (legal
//!   because routing is a pure function of
//!   `(route_group(src), route_group(dst), tag % route_classes, dead)` —
//!   see [`Network::route_group`] and [`Network::route_classes`]). Keyed
//!   by route group, a bus's table holds one route per way and the 2-way
//!   256-node hybrid's 32, small enough to stay in L1 through a replay.
//!   Detours around dead resources are not suffix-closed, and the
//!   faulted loop degrades, stalls and loses packets per leg, so a
//!   faulted run keeps the arena for every epoch, the empty dead set
//!   included.
//!
//! A fault-free run is one kernel in two halves. *Draw* generates the
//! run's injection trace, a (cycle, src, dst, tag) record per injected
//! packet, in the engine's RNG order: one gate draw per node per cycle
//! (burst-off cycles, where `p ≤ 0`, included), then the pattern's
//! destination draws, then the tag. *Replay* pushes those records in
//! order through the network's routes and resource `free` vector,
//! reserving the legs of each packet in route order.
//! The gate, destination and tag draws never depend on the network, so
//! a trace is a function of the topology, pattern, rate, seed and window
//! alone: [`LoadLatencySweep::run_many`] draws each (topology, rate)
//! trace once and every network of the fan-out replays it, paying the
//! draws once instead of once per network. A single run draws and
//! replays in fixed chunks of cycles through a grow-only buffer in its
//! scratch, so its memory does not grow with the window. Faulted runs
//! are the exception: flit-loss retries draw from the same stream per
//! lossy leg, so the draws depend on the network's routes, and
//! [`Simulator::run_with_faults`] keeps its own fused loop.
//!
//! Neither route table consumes randomness, so the RNG draw order —
//! injection gate, destination, tag, flit-loss retries — is exactly that
//! of the retained naive engine in [`reference`](mod@reference), which the equivalence
//! test-suite pins bit-for-bit.
//!
//! [`LoadLatencySweep::run_many`]: crate::load_latency::LoadLatencySweep::run_many

use std::fmt;
use std::ops::Range;

use cryowire_faults::{FaultSchedule, LinkState};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::error::{NocError, SimError};
use crate::route_cache::PathTable;
use crate::router::NextHopTable;
use crate::topology::Topology;
use crate::traffic::TrafficPattern;

/// One leg of a packet's journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketLeg {
    /// Index of the shared resource this leg occupies, or `None` for a
    /// pure-latency leg (e.g. dedicated request/grant control wires).
    pub resource: Option<usize>,
    /// Cycles the resource stays busy serving this packet.
    pub occupancy_cycles: u64,
    /// Cycles until the packet reaches the end of this leg.
    pub traversal_cycles: u64,
}

impl PacketLeg {
    /// A pure-latency leg without contention.
    #[must_use]
    pub fn latency(cycles: u64) -> Self {
        PacketLeg {
            resource: None,
            occupancy_cycles: 0,
            traversal_cycles: cycles,
        }
    }

    /// A leg that holds resource `r` for `occupancy` cycles and takes
    /// `traversal` cycles to cross.
    #[must_use]
    pub fn on(r: usize, occupancy: u64, traversal: u64) -> Self {
        PacketLeg {
            resource: Some(r),
            occupancy_cycles: occupancy,
            traversal_cycles: traversal,
        }
    }
}

/// A simulatable network: expands (src, dst) into contention legs.
///
/// Routing is a pure function of a packet's endpoints, its tag and the
/// dead resources, and most networks see much less than that: a bus
/// routes every core alike, a router network by the router a core sits
/// on, the hybrid by its cluster, and an interleaved bus reads the tag
/// only to pick a way. Provided methods declare how much less —
/// [`Network::route_group`] for the endpoints and
/// [`Network::route_classes`] for the tag — so a [`PathTable`] memoizes
/// one route per (source group, destination group, class) instead of
/// one per core pair and tag.
pub trait Network {
    /// Display name (used by benches and reports).
    fn name(&self) -> String;

    /// Topology (node count and grid helpers).
    fn topology(&self) -> &Topology;

    /// Number of distinct shared resources.
    fn resource_count(&self) -> usize;

    /// The legs a packet from `src` to `dst` traverses. `tag` is a
    /// per-packet value networks may use for address interleaving.
    fn path(&self, src: usize, dst: usize, tag: u64) -> Vec<PacketLeg>;

    /// Like [`Network::path`], but avoiding the `dead` resources.
    /// Returns `None` when the network knows no route around them.
    ///
    /// The default implementation knows no alternatives: it returns the
    /// normal path if it is clean and `None` if it crosses a dead
    /// resource. Networks with routing freedom (mesh detours, bus way
    /// remapping, H-tree re-formation) override this with a genuine
    /// reroute — which must stay deadlock-free (see
    /// [`crate::deadlock::DetourRouter`]).
    fn path_avoiding(
        &self,
        src: usize,
        dst: usize,
        tag: u64,
        dead: &[usize],
    ) -> Option<Vec<PacketLeg>> {
        let legs = self.path(src, dst, tag);
        if legs
            .iter()
            .any(|l| l.resource.is_some_and(|r| dead.contains(&r)))
        {
            None
        } else {
            Some(legs)
        }
    }

    /// Number of distinct route classes under the `dead` resource set —
    /// the memoization contract behind
    /// [`PathTable`].
    ///
    /// Implementations promise that [`Network::path`] and
    /// [`Network::path_avoiding`] depend on `tag` only through
    /// `tag % route_classes(dead)`, and that class `c` is reproduced by
    /// the representative tag `c as u64`. The default of 1 declares the
    /// network tag-independent (routes ignore the tag entirely), which
    /// holds for the router networks and segmented buses; interleaved
    /// buses override this with their live way count.
    fn route_classes(&self, dead: &[usize]) -> usize {
        let _ = dead;
        1
    }

    /// The route group of `core`, in `0..route_groups()` — the other
    /// half of the memoization contract behind [`PathTable`].
    ///
    /// Implementations promise that [`Network::path`] and
    /// [`Network::path_avoiding`] see `src` and `dst` only through
    /// their groups: two cores of one group route alike, as sources and
    /// as destinations, under every dead set. The default makes every
    /// core its own group; buses and CryoBus have one group, the
    /// segmented bus one per segment, the hybrid one per cluster and a
    /// router network one per router.
    fn route_group(&self, core: usize) -> usize {
        core
    }

    /// Number of route groups (see [`Network::route_group`]): the
    /// topology's node count by default.
    fn route_groups(&self) -> usize {
        self.topology().nodes()
    }

    /// The network's fault-free routes as a [`NextHopTable`], when they
    /// are suffix-closed (the route from a packet's next router onward is
    /// the rest of its route), or `None`, the default.
    ///
    /// A fault-free run walks a network's table instead of memoizing its
    /// routes in a [`PathTable`]; every network without one replays over
    /// the arena. Returning a table promises that
    /// [`NextHopTable::walk`] yields exactly [`Network::path`]'s legs for
    /// every (src, dst) pair, whatever the tag.
    fn next_hop_table(&self) -> Option<&NextHopTable> {
        None
    }

    /// Zero-load (uncontended) latency from `src` to `dst`, cycles.
    fn zero_load_latency(&self, src: usize, dst: usize) -> u64 {
        self.path(src, dst, 0)
            .iter()
            .map(|l| l.traversal_cycles)
            .sum()
    }

    /// Average zero-load latency over all (src ≠ dst) pairs, cycles.
    fn average_zero_load_latency(&self) -> f64 {
        let n = self.topology().nodes();
        let mut total = 0u64;
        let mut count = 0u64;
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    total += self.zero_load_latency(s, d);
                    count += 1;
                }
            }
        }
        total as f64 / count as f64
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Simulated cycles.
    pub cycles: u64,
    /// Warm-up cycles excluded from statistics.
    pub warmup: u64,
    /// RNG seed (simulations are deterministic given the seed).
    pub seed: u64,
    /// Latency cap (× zero-load) beyond which the run counts as saturated.
    pub saturation_factor: f64,
    /// Progress watchdog for fault-injected runs: once this many packets
    /// have been blocked (no route around dead resources), the run stops
    /// with [`SimError::Stalled`] instead of silently going nowhere.
    pub watchdog_blocked_packets: u64,
}

impl SimConfig {
    /// Rejects windows that can never measure a packet (`cycles == 0`,
    /// or a warm-up period swallowing the whole run) — configurations
    /// that previously produced silent `avg_latency = 0`/0-packet
    /// results.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidSimWindow`] for a degenerate window.
    pub fn validate(&self) -> Result<(), NocError> {
        check_window(self.cycles, self.warmup)
    }
}

/// Rejects simulation windows that can never measure a packet: zero
/// cycles, or a warm-up at least as long as the run. Shared by both
/// engines.
pub(crate) fn check_window(cycles: u64, warmup: u64) -> Result<(), NocError> {
    if cycles == 0 || warmup >= cycles {
        return Err(NocError::InvalidSimWindow { cycles, warmup });
    }
    Ok(())
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cycles: 30_000,
            warmup: 5_000,
            seed: 0xC0FFEE,
            saturation_factor: 12.0,
            watchdog_blocked_packets: 1_000,
        }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Offered per-node injection rate (packets/node/cycle).
    pub offered_rate: f64,
    /// Average packet latency, cycles.
    pub avg_latency: f64,
    /// Number of measured packets.
    pub packets: u64,
    /// Whether the network saturated at this load.
    pub saturated: bool,
    /// Packets dropped after exhausting their flit-loss retransmit
    /// budget (always 0 without fault injection).
    pub dropped: u64,
    /// Packets that never entered the network because no route avoided
    /// the dead resources (always 0 without fault injection).
    pub unrouted: u64,
}

/// Reusable per-run mutable state: the resource `free` vector, one
/// memoized [`PathTable`] per dead-set epoch seen so far, and the chunk
/// buffer of the fault-free engine's injection trace.
///
/// A scratch borrows the network it serves (`'n`). Runs over the same
/// network object reuse its route tables; a run over a different network
/// rebuilds them. Reuse pays off when one network is swept repeatedly —
/// exactly the load–latency sweep shape, where
/// [`LoadLatencySweep`](crate::load_latency::LoadLatencySweep) shares
/// one scratch across all rate points. After the first run warms the
/// tables, subsequent identical fault-free runs perform **zero heap
/// allocations** (pinned by the counting-allocator test in
/// `tests/zero_alloc.rs`).
///
/// Because of the borrow, a network cannot be dropped, and another one
/// built at its address, while a scratch still holds its routes — the
/// scratch would take the newcomer for the network it knows. A loop that
/// builds one network per iteration and reuses an outer scratch
/// therefore does not compile:
///
/// ```compile_fail,E0597
/// use cryowire_device::Temperature;
/// use cryowire_faults::FaultSchedule;
/// use cryowire_noc::{
///     NocKind, RouterClass, RouterNetwork, SimScratch, Simulator, TrafficPattern,
/// };
///
/// let sim = Simulator::default();
/// let mut scratch = SimScratch::new();
/// for class in [RouterClass::OneCycle, RouterClass::ThreeCycle] {
///     let t77 = Temperature::liquid_nitrogen();
///     let mesh = RouterNetwork::new(NocKind::Mesh, 64, class, t77).unwrap();
///     let faults = FaultSchedule::default();
///     let pattern = TrafficPattern::UniformRandom;
///     sim.run_with_scratch(&mesh, pattern, 0.01, &faults, &mut scratch)
///         .unwrap();
/// }
/// ```
///
/// Networks that outlive the scratch can share it:
///
/// ```
/// # use cryowire_device::Temperature;
/// # use cryowire_faults::FaultSchedule;
/// # use cryowire_noc::{
/// #     NocKind, RouterClass, RouterNetwork, SimScratch, Simulator, TrafficPattern,
/// # };
/// let sim = Simulator::default();
/// let t77 = Temperature::liquid_nitrogen();
/// let meshes = [RouterClass::OneCycle, RouterClass::ThreeCycle]
///     .map(|class| RouterNetwork::new(NocKind::Mesh, 64, class, t77).unwrap());
/// let mut scratch = SimScratch::new();
/// for mesh in &meshes {
///     let faults = FaultSchedule::default();
///     let pattern = TrafficPattern::UniformRandom;
///     sim.run_with_scratch(mesh, pattern, 0.01, &faults, &mut scratch)
///         .unwrap();
/// }
/// ```
#[derive(Default)]
pub struct SimScratch<'n> {
    free: Vec<u64>,
    /// `(dead set, memoized routes)` pairs; epoch 0 is always the empty
    /// dead set. Kept across runs so a sweep rebuilds nothing.
    epochs: Vec<(Vec<usize>, PathTable)>,
    /// The network the epochs were built for.
    network: Option<&'n dyn Network>,
    /// The current chunk of a fault-free run's injection trace.
    trace: InjectionTrace,
}

impl<'n> SimScratch<'n> {
    /// An empty scratch; the first run populates it.
    #[must_use]
    pub fn new() -> Self {
        SimScratch::default()
    }

    /// Binds the scratch to `network`, discarding memoized routes that
    /// belong to a different network object. Comparing the (address,
    /// vtable) pair is sound because the scratch borrows every network
    /// it serves: two live networks never share both, unless they are
    /// zero-sized values of one type, with no state to route by.
    fn bind(&mut self, network: &'n dyn Network) {
        if !self
            .network
            .is_some_and(|bound| std::ptr::eq(bound, network))
        {
            self.network = Some(network);
            self.epochs.clear();
        }
        self.free.resize(network.resource_count(), 0);
        self.free.fill(0);
    }
}

impl fmt::Debug for SimScratch<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimScratch")
            .field("network", &self.network.map(|n| n.name()))
            .field("epochs", &self.epochs.len())
            .field("resources", &self.free.len())
            .finish_non_exhaustive()
    }
}

/// Cycles a single fault-free run draws before replaying them: small
/// enough that the chunk's trace stays cache-resident, large enough to
/// amortize the switch between the two halves.
const CHUNK_CYCLES: u64 = 64;

/// One packet of an injection trace.
#[derive(Debug, Clone, Copy)]
struct Injection {
    cycle: u64,
    tag: u64,
    src: u32,
    dst: u32,
}

/// The packets a fault-free run injects over a span of cycles, in
/// injection order — the network-independent half of the engine (see
/// the module docs).
#[derive(Debug, Default)]
pub(crate) struct InjectionTrace {
    injections: Vec<Injection>,
}

impl InjectionTrace {
    /// Replaces the trace with the injections of `cycles`, continuing
    /// `rng`'s stream: one gate draw per node per cycle, then for each
    /// injecting node the pattern's destination draws and the tag.
    fn draw(
        &mut self,
        rng: &mut StdRng,
        pattern: TrafficPattern,
        topo: &Topology,
        rate: f64,
        cycles: Range<u64>,
    ) {
        self.injections.clear();
        let n = topo.nodes();
        for cycle in cycles {
            let p = rate * pattern.burst_scale(cycle);
            if p <= 0.0 {
                // Preserve the RNG stream: every node still consumes its
                // injection-gate draw even in a zero-injection cycle
                // (burst off-phases), it just cannot pass the gate.
                for _ in 0..n {
                    let _ = rng.next_u64();
                }
                continue;
            }
            let threshold = gate_threshold(p);
            let mut src = 0;
            loop {
                src = next_injector(rng, src, n, threshold);
                if src == n {
                    break;
                }
                let dst = pattern.destination(src, topo, rng);
                let tag = rng.gen::<u64>();
                self.injections.push(Injection {
                    cycle,
                    tag,
                    src: u32::try_from(src).expect("node index exceeds u32"),
                    dst: u32::try_from(dst).expect("node index exceeds u32"),
                });
                src += 1;
            }
        }
    }
}

/// The threshold that turns the injection gate `rng.gen::<f64>() < p`
/// into an integer comparison, saving an int-to-float conversion and a
/// multiply per gate draw. `gen::<f64>()` is exactly
/// `(next_u64() >> 11) · 2⁻⁵³`, so it is below `p` exactly when the
/// 53-bit draw `next_u64() >> 11` is below `⌈p · 2⁵³⌉`: scaling by a
/// power of two is exact, a `p` of 1 or more gives a threshold above
/// every draw (the cast saturates), and a NaN `p` gives 0, which no draw
/// passes. The flit engine draws its gate through it too.
pub(crate) fn gate_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// The first node in `src..n` whose injection gate passes against
/// `threshold` (see [`gate_threshold`]), drawing one gate per node up to
/// it, or `n` if none passes. Shared by both engines' injection loops:
/// gate draws alone until a node injects, in a loop without calls that
/// keeps the RNG state in registers.
#[inline(always)]
pub(crate) fn next_injector(rng: &mut StdRng, mut src: usize, n: usize, threshold: u64) -> usize {
    while src < n && rng.next_u64() >> 11 >= threshold {
        src += 1;
    }
    src
}

/// Measurement accumulators of one run: packets injected at or after
/// the warm-up, their summed latency and summed zero-load latency.
#[derive(Debug, Default)]
struct Tally {
    latency: u64,
    packets: u64,
    zero_load: u64,
}

/// Where a fault-free run finds its routes: the network's
/// [`NextHopTable`] if it has one, otherwise the [`PathTable`] of its
/// empty-dead-set epoch.
enum FaultFreeRoutes<'a> {
    Walk(&'a NextHopTable),
    Arena(&'a PathTable),
}

impl<'a> FaultFreeRoutes<'a> {
    /// The routes of `network`, building its empty-dead-set epoch in
    /// `epochs` if it walks no table and has none yet.
    fn of(network: &'a dyn Network, epochs: &'a mut Vec<(Vec<usize>, PathTable)>) -> Self {
        match network.next_hop_table() {
            Some(table) => FaultFreeRoutes::Walk(table),
            None => {
                let fault_free = epoch_index(epochs, network, &[]);
                let epochs: &'a Vec<_> = epochs;
                FaultFreeRoutes::Arena(&epochs[fault_free].1)
            }
        }
    }

    /// Replays `trace` along these routes (see [`replay`]).
    fn replay(&self, trace: &InjectionTrace, free: &mut [u64], warmup: u64, tally: &mut Tally) {
        match *self {
            FaultFreeRoutes::Walk(table) => replay(trace, table, free, warmup, tally),
            FaultFreeRoutes::Arena(table) => replay(trace, table, free, warmup, tally),
        }
    }
}

/// A table of fault-free routes the replay reserves packets along.
trait Routes {
    /// Reserves the route of `inj` in `free`, returning the cycle the
    /// packet arrives and its zero-load latency.
    fn reserve(&self, inj: &Injection, free: &mut [u64]) -> (u64, u64);
}

impl Routes for PathTable {
    #[inline]
    fn reserve(&self, inj: &Injection, free: &mut [u64]) -> (u64, u64) {
        let (legs, zero) = self
            .lookup(inj.src as usize, inj.dst as usize, inj.tag)
            .expect("fault-free routes always exist");
        let mut t = inj.cycle;
        for &leg in legs {
            t = reserve_leg(free, t, leg);
        }
        (t, zero)
    }
}

impl Routes for NextHopTable {
    #[inline]
    fn reserve(&self, inj: &Injection, free: &mut [u64]) -> (u64, u64) {
        let mut t = inj.cycle;
        let mut zero = 0;
        self.walk(inj.src as usize, inj.dst as usize, |leg| {
            t = reserve_leg(free, t, leg);
            zero += leg.traversal_cycles;
        });
        (t, zero)
    }
}

/// Reserves `leg` for a packet reaching it at cycle `t`: the packet
/// waits for the leg's resource to free and holds it for the leg's
/// occupancy. Returns the cycle the packet reaches the end of the leg.
#[inline(always)]
fn reserve_leg(free: &mut [u64], mut t: u64, leg: PacketLeg) -> u64 {
    if let Some(r) = leg.resource {
        let start = t.max(free[r]);
        free[r] = start + leg.occupancy_cycles;
        t = start;
    }
    t + leg.traversal_cycles
}

/// The network half of the fault-free engine: reserves every packet of
/// `trace`, in order, along its route in `routes`, and tallies the
/// packets injected at or after `warmup`.
fn replay<R: Routes>(
    trace: &InjectionTrace,
    routes: &R,
    free: &mut [u64],
    warmup: u64,
    tally: &mut Tally,
) {
    for inj in &trace.injections {
        let (t, zero) = routes.reserve(inj, free);
        if inj.cycle >= warmup {
            tally.latency += t - inj.cycle;
            tally.packets += 1;
            tally.zero_load += zero;
        }
    }
}

/// Finds (or builds) the epoch whose dead set equals `dead`, returning
/// its index. Free function so the caller can keep `scratch.free`
/// mutably borrowed.
fn epoch_index(
    epochs: &mut Vec<(Vec<usize>, PathTable)>,
    network: &dyn Network,
    dead: &[usize],
) -> usize {
    if let Some(i) = epochs.iter().position(|(d, _)| d == dead) {
        return i;
    }
    let mut table = PathTable::new();
    table.rebuild(network, dead);
    epochs.push((dead.to_vec(), table));
    epochs.len() - 1
}

/// Rejects injection rates that are not probabilities.
pub(crate) fn check_rate(rate: f64) -> Result<(), NocError> {
    if (0.0..=1.0).contains(&rate) {
        Ok(())
    } else {
        Err(NocError::InvalidInjectionRate { rate })
    }
}

/// The reservation-based contention simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator with `config`.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        Simulator { config }
    }

    /// Runs `network` under `pattern` at per-node injection `rate`
    /// (packets/node/cycle).
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidInjectionRate`] if `rate` is not in
    /// `[0, 1]`, [`NocError::InvalidSimWindow`] for a degenerate
    /// configuration, or a pattern validation error.
    pub fn run(
        &self,
        network: &dyn Network,
        pattern: TrafficPattern,
        rate: f64,
    ) -> Result<SimResult, NocError> {
        // A fault-free run draws the same RNG stream as before the
        // faulted engine existed: no dead set, no loss draws.
        match self.run_with_faults(network, pattern, rate, &FaultSchedule::default()) {
            Ok(r) => Ok(r),
            Err(SimError::Noc(e)) => Err(e),
            Err(SimError::Stalled { .. }) => {
                unreachable!("the watchdog cannot fire without injected faults")
            }
        }
    }

    /// Runs `network` under `pattern` at `rate` with `faults` injected,
    /// using a fresh [`SimScratch`].
    ///
    /// Dead resources are avoided via [`Network::path_avoiding`]
    /// (deadlock-free detours where the network has routing freedom);
    /// degraded resources serve slower; stalled routers add pipeline
    /// cycles; flit loss retransmits each lossy leg up to its budget and
    /// drops the packet beyond it. Packets with no usable route are
    /// counted in [`SimResult::unrouted`]; once
    /// [`SimConfig::watchdog_blocked_packets`] of them accumulate the
    /// run aborts with [`SimError::Stalled`] naming the dead resources —
    /// a hang can therefore never outlive the watchdog budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Noc`] for validation errors and
    /// [`SimError::Stalled`] when the watchdog fires.
    pub fn run_with_faults(
        &self,
        network: &dyn Network,
        pattern: TrafficPattern,
        rate: f64,
        faults: &FaultSchedule,
    ) -> Result<SimResult, SimError> {
        self.run_with_scratch(network, pattern, rate, faults, &mut SimScratch::new())
    }

    /// Like [`Simulator::run_with_faults`], but reusing `scratch` —
    /// memoized route tables, the resource-reservation vector and the
    /// trace chunk buffer — so repeated runs over the same network (a
    /// load–latency sweep) allocate nothing in steady state.
    ///
    /// # Errors
    ///
    /// As for [`Simulator::run_with_faults`].
    pub fn run_with_scratch<'n>(
        &self,
        network: &'n dyn Network,
        pattern: TrafficPattern,
        rate: f64,
        faults: &FaultSchedule,
        scratch: &mut SimScratch<'n>,
    ) -> Result<SimResult, SimError> {
        check_rate(rate)?;
        self.validate(network, pattern)?;
        scratch.bind(network);
        let topo = *network.topology();
        if faults.is_empty() {
            Ok(self.run_fault_free(network, pattern, rate, &topo, scratch))
        } else {
            self.run_faulted(network, pattern, rate, faults, &topo, scratch)
        }
    }

    /// Checks what every run checks apart from its rate: the simulation
    /// window, and `pattern` against the network's topology.
    pub(crate) fn validate(
        &self,
        network: &dyn Network,
        pattern: TrafficPattern,
    ) -> Result<(), NocError> {
        self.config.validate()?;
        pattern.validate(network.topology())
    }

    /// Draws the whole window's fault-free injection trace at `rate` on
    /// `topo` — what every network of that topology injects at this
    /// rate. Replay it with [`Simulator::replay_trace`].
    pub(crate) fn draw_trace(
        &self,
        pattern: TrafficPattern,
        topo: &Topology,
        rate: f64,
    ) -> InjectionTrace {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut trace = InjectionTrace::default();
        trace.draw(&mut rng, pattern, topo, rate, 0..self.config.cycles);
        trace.injections.shrink_to_fit();
        trace
    }

    /// Replays a [`Simulator::draw_trace`] trace over `network`, giving
    /// the result of a fault-free [`Simulator::run_with_scratch`] at the
    /// trace's `rate`. The caller has checked the rate and
    /// [`Simulator::validate`]d the network and pattern.
    pub(crate) fn replay_trace<'n>(
        &self,
        network: &'n dyn Network,
        trace: &InjectionTrace,
        rate: f64,
        scratch: &mut SimScratch<'n>,
    ) -> SimResult {
        scratch.bind(network);
        let SimScratch { free, epochs, .. } = scratch;
        let routes = FaultFreeRoutes::of(network, epochs);
        let mut tally = Tally::default();
        routes.replay(trace, free, self.config.warmup, &mut tally);
        self.finish(rate, &tally, 0, 0, free)
    }

    /// The fault-free engine for a single run: draws and replays the
    /// window [`CHUNK_CYCLES`] at a time through the scratch's trace
    /// buffer.
    fn run_fault_free(
        &self,
        network: &dyn Network,
        pattern: TrafficPattern,
        rate: f64,
        topo: &Topology,
        scratch: &mut SimScratch<'_>,
    ) -> SimResult {
        let SimScratch {
            free,
            epochs,
            trace,
            ..
        } = scratch;
        let routes = FaultFreeRoutes::of(network, epochs);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut tally = Tally::default();
        let mut start = 0;
        while start < self.config.cycles {
            let end = self.config.cycles.min(start.saturating_add(CHUNK_CYCLES));
            trace.draw(&mut rng, pattern, topo, rate, start..end);
            routes.replay(trace, free, self.config.warmup, &mut tally);
            start = end;
        }
        self.finish(rate, &tally, 0, 0, free)
    }

    /// The general engine under an active fault schedule. Route tables
    /// are swapped (and lazily built) only when the dead set actually
    /// changes at a schedule change point.
    #[allow(clippy::too_many_lines)]
    fn run_faulted(
        &self,
        network: &dyn Network,
        pattern: TrafficPattern,
        rate: f64,
        faults: &FaultSchedule,
        topo: &Topology,
        scratch: &mut SimScratch<'_>,
    ) -> Result<SimResult, SimError> {
        let SimScratch { free, epochs, .. } = scratch;
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let n = topo.nodes();

        let mut tally = Tally::default();
        let mut dropped = 0u64;
        let mut unrouted = 0u64;
        let watchdog = self.config.watchdog_blocked_packets.max(1);

        // The active fault set only changes at event boundaries, so the
        // dead set (and with it the route-table epoch) is re-derived
        // there instead of every cycle.
        let change_points = faults.change_points();
        let mut next_change = 0usize;
        let mut cur = epoch_index(epochs, network, &[]);

        for cycle in 0..self.config.cycles {
            let mut at_change_point = false;
            while change_points.get(next_change).is_some_and(|&c| c <= cycle) {
                next_change += 1;
                at_change_point = true;
            }
            if at_change_point {
                let dead_now = faults.dead_resources_at(cycle);
                if dead_now != epochs[cur].0 {
                    cur = epoch_index(epochs, network, &dead_now);
                }
            }
            let table = &epochs[cur].1;
            let loss = faults.flit_loss_at(cycle);
            let p = rate * pattern.burst_scale(cycle);
            if p <= 0.0 {
                // Same stream-preserving gate draws as the fault-free
                // trace.
                for _ in 0..n {
                    let _ = rng.gen::<f64>();
                }
                continue;
            }
            for src in 0..n {
                if rng.gen::<f64>() >= p {
                    continue;
                }
                let dst = pattern.destination(src, topo, &mut rng);
                let tag = rng.gen::<u64>();
                let Some((legs, zero)) = table.lookup(src, dst, tag) else {
                    unrouted += 1;
                    if unrouted >= watchdog {
                        return Err(SimError::Stalled {
                            cycle,
                            blocked_resources: epochs[cur].0.clone(),
                        });
                    }
                    continue;
                };
                let mut t = cycle;
                let mut lost = false;
                for leg in legs {
                    let mut occupancy = leg.occupancy_cycles;
                    let mut traversal = leg.traversal_cycles;
                    if let Some(r) = leg.resource {
                        match faults.link_state(r, cycle) {
                            LinkState::Degraded(factor) => {
                                occupancy = scale_cycles(occupancy, factor);
                                traversal = scale_cycles(traversal, factor);
                            }
                            LinkState::Healthy | LinkState::Dead => {}
                        }
                        traversal += faults.stall_cycles(r, cycle);
                        if let Some(l) = loss {
                            // Each loss repays the leg (occupancy and
                            // traversal); past the budget the packet is
                            // dropped mid-flight, and the attempt that
                            // lost it never completes its reservation —
                            // only the repaid attempts charge the
                            // resource.
                            let mut retries = 0u32;
                            while rng.gen::<f64>() < l.probability {
                                if retries == l.max_retransmits {
                                    lost = true;
                                    break;
                                }
                                retries += 1;
                            }
                            if lost {
                                occupancy *= u64::from(retries);
                                traversal *= u64::from(retries);
                            } else {
                                occupancy += occupancy * u64::from(retries);
                                traversal += traversal * u64::from(retries);
                            }
                        }
                        let start = t.max(free[r]);
                        free[r] = start + occupancy;
                        t = start;
                    }
                    t += traversal;
                    if lost {
                        dropped += 1;
                        break;
                    }
                }
                if !lost && cycle >= self.config.warmup {
                    tally.latency += t - cycle;
                    tally.packets += 1;
                    tally.zero_load += zero;
                }
            }
        }
        Ok(self.finish(rate, &tally, dropped, unrouted, free))
    }

    /// Shared result assembly (statistics + saturation verdict).
    fn finish(
        &self,
        rate: f64,
        tally: &Tally,
        dropped: u64,
        unrouted: u64,
        free: &[u64],
    ) -> SimResult {
        let avg_latency = if tally.packets == 0 {
            0.0
        } else {
            tally.latency as f64 / tally.packets as f64
        };
        let avg_zero = if tally.packets == 0 {
            1.0
        } else {
            tally.zero_load as f64 / tally.packets as f64
        };
        // Saturated if latency exploded relative to zero-load, or if any
        // resource backlog extends far past the end of simulated time.
        let backlog = free
            .iter()
            .map(|&f| f.saturating_sub(self.config.cycles))
            .max()
            .unwrap_or(0);
        let saturated = tally.packets > 0
            && (avg_latency > self.config.saturation_factor * avg_zero
                || backlog > self.config.cycles / 4);
        SimResult {
            offered_rate: rate,
            avg_latency,
            packets: tally.packets,
            saturated,
            dropped,
            unrouted,
        }
    }
}

/// Scales a cycle count by a degradation factor, rounding up so any
/// degradation costs at least one extra cycle on nonzero legs.
fn scale_cycles(cycles: u64, factor: f64) -> u64 {
    if cycles == 0 {
        return 0;
    }
    (cycles as f64 * factor).ceil() as u64
}

impl Default for Simulator {
    fn default() -> Self {
        Simulator::new(SimConfig::default())
    }
}

#[cfg(any(test, feature = "reference-sim"))]
pub mod reference {
    //! The naive per-packet-allocation engine, retained verbatim as the
    //! correctness oracle for the memoized hot loop (and as the baseline
    //! the `bench-engines` NoC speedup is measured against). Behind `feature = "reference-sim"` outside
    //! tests so release binaries of downstream crates opt in explicitly.
    //!
    //! The only differences from the historical code are the two audited
    //! bugfixes, applied to **both** engines so they stay bit-identical:
    //! degenerate-window validation ([`SimConfig::validate`]) and the
    //! lost-leg retransmit accounting (a dropped packet's fatal attempt
    //! no longer charges the resource).

    use super::{
        scale_cycles, FaultSchedule, LinkState, Network, NocError, Rng, SeedableRng, SimConfig,
        SimError, SimResult, StdRng, TrafficPattern,
    };

    /// The reference simulator: same configuration surface as
    /// [`Simulator`](super::Simulator), no memoization, no scratch
    /// reuse.
    #[derive(Debug, Clone)]
    pub struct ReferenceSimulator {
        config: SimConfig,
    }

    impl ReferenceSimulator {
        /// Creates a reference simulator with `config`.
        #[must_use]
        pub fn new(config: SimConfig) -> Self {
            ReferenceSimulator { config }
        }

        /// Fault-free reference run.
        ///
        /// # Errors
        ///
        /// As for [`Simulator::run`](super::Simulator::run).
        pub fn run(
            &self,
            network: &dyn Network,
            pattern: TrafficPattern,
            rate: f64,
        ) -> Result<SimResult, NocError> {
            match self.run_with_faults(network, pattern, rate, &FaultSchedule::default()) {
                Ok(r) => Ok(r),
                Err(SimError::Noc(e)) => Err(e),
                Err(SimError::Stalled { .. }) => {
                    unreachable!("the watchdog cannot fire without injected faults")
                }
            }
        }

        /// Fault-injected reference run.
        ///
        /// # Errors
        ///
        /// As for
        /// [`Simulator::run_with_faults`](super::Simulator::run_with_faults).
        #[allow(clippy::too_many_lines)]
        pub fn run_with_faults(
            &self,
            network: &dyn Network,
            pattern: TrafficPattern,
            rate: f64,
            faults: &FaultSchedule,
        ) -> Result<SimResult, SimError> {
            if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                return Err(NocError::InvalidInjectionRate { rate }.into());
            }
            self.config.validate()?;
            let topo = *network.topology();
            pattern.validate(&topo)?;
            let mut rng = StdRng::seed_from_u64(self.config.seed);
            let n = topo.nodes();
            let mut free = vec![0u64; network.resource_count()];

            let mut measured_total = 0u64;
            let mut measured_count = 0u64;
            let mut zero_load_sum = 0u64;
            let mut dropped = 0u64;
            let mut unrouted = 0u64;
            let watchdog = self.config.watchdog_blocked_packets.max(1);

            let change_points = faults.change_points();
            let mut next_change = 0usize;
            let mut dead: Vec<usize> = Vec::new();

            for cycle in 0..self.config.cycles {
                while change_points.get(next_change).is_some_and(|&c| c <= cycle) {
                    next_change += 1;
                    dead = faults.dead_resources_at(cycle);
                }
                let loss = faults.flit_loss_at(cycle);
                let p = rate * pattern.burst_scale(cycle);
                for src in 0..n {
                    if rng.gen::<f64>() >= p {
                        continue;
                    }
                    let dst = pattern.destination(src, &topo, &mut rng);
                    let tag = rng.gen::<u64>();
                    let legs = if dead.is_empty() {
                        network.path(src, dst, tag)
                    } else {
                        match network.path_avoiding(src, dst, tag, &dead) {
                            Some(legs) => legs,
                            None => {
                                unrouted += 1;
                                if unrouted >= watchdog {
                                    return Err(SimError::Stalled {
                                        cycle,
                                        blocked_resources: dead,
                                    });
                                }
                                continue;
                            }
                        }
                    };
                    let mut t = cycle;
                    let mut zero = 0u64;
                    let mut lost = false;
                    for leg in &legs {
                        let mut occupancy = leg.occupancy_cycles;
                        let mut traversal = leg.traversal_cycles;
                        if let Some(r) = leg.resource {
                            match faults.link_state(r, cycle) {
                                LinkState::Degraded(factor) => {
                                    occupancy = scale_cycles(occupancy, factor);
                                    traversal = scale_cycles(traversal, factor);
                                }
                                LinkState::Healthy | LinkState::Dead => {}
                            }
                            traversal += faults.stall_cycles(r, cycle);
                            if let Some(l) = loss {
                                // Repay-the-leg semantics: the attempt
                                // that exceeded the budget is dropped
                                // mid-flight and charges nothing.
                                let mut retries = 0u32;
                                while rng.gen::<f64>() < l.probability {
                                    if retries == l.max_retransmits {
                                        lost = true;
                                        break;
                                    }
                                    retries += 1;
                                }
                                if lost {
                                    occupancy *= u64::from(retries);
                                    traversal *= u64::from(retries);
                                } else {
                                    occupancy += occupancy * u64::from(retries);
                                    traversal += traversal * u64::from(retries);
                                }
                            }
                            let start = t.max(free[r]);
                            free[r] = start + occupancy;
                            t = start;
                        }
                        t += traversal;
                        zero += leg.traversal_cycles;
                        if lost {
                            dropped += 1;
                            break;
                        }
                    }
                    if !lost && cycle >= self.config.warmup {
                        measured_total += t - cycle;
                        measured_count += 1;
                        zero_load_sum += zero;
                    }
                }
            }

            let avg_latency = if measured_count == 0 {
                0.0
            } else {
                measured_total as f64 / measured_count as f64
            };
            let avg_zero = if measured_count == 0 {
                1.0
            } else {
                zero_load_sum as f64 / measured_count as f64
            };
            let backlog = free
                .iter()
                .map(|&f| f.saturating_sub(self.config.cycles))
                .max()
                .unwrap_or(0);
            let saturated = measured_count > 0
                && (avg_latency > self.config.saturation_factor * avg_zero
                    || backlog > self.config.cycles / 4);

            Ok(SimResult {
                offered_rate: rate,
                avg_latency,
                packets: measured_count,
                saturated,
                dropped,
                unrouted,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial 1-resource network for engine tests: every packet takes
    /// the single bus for 2 cycles and arrives 5 cycles later.
    #[derive(Debug)]
    struct ToyBus {
        topo: Topology,
    }

    impl Network for ToyBus {
        fn name(&self) -> String {
            "toy bus".into()
        }
        fn topology(&self) -> &Topology {
            &self.topo
        }
        fn resource_count(&self) -> usize {
            1
        }
        fn path(&self, _src: usize, _dst: usize, _tag: u64) -> Vec<PacketLeg> {
            vec![PacketLeg::latency(3), PacketLeg::on(0, 2, 2)]
        }
    }

    fn toy() -> ToyBus {
        ToyBus {
            topo: Topology::c64(),
        }
    }

    #[test]
    fn zero_load_latency_is_sum_of_traversals() {
        let net = toy();
        assert_eq!(net.zero_load_latency(0, 1), 5);
        assert!((net.average_zero_load_latency() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn low_load_latency_near_zero_load() {
        let sim = Simulator::default();
        let r = sim
            .run(&toy(), TrafficPattern::UniformRandom, 0.0005)
            .unwrap();
        assert!(!r.saturated);
        assert!(r.avg_latency < 7.0, "latency = {}", r.avg_latency);
    }

    #[test]
    fn overload_saturates() {
        // Service = 2 cycles/packet on one bus; 64 nodes at 0.05/node
        // offers 3.2 packets/cycle >> 0.5 capacity.
        let sim = Simulator::default();
        let r = sim
            .run(&toy(), TrafficPattern::UniformRandom, 0.05)
            .unwrap();
        assert!(r.saturated);
        assert!(r.avg_latency > 100.0);
    }

    #[test]
    fn latency_monotone_in_load() {
        let sim = Simulator::default();
        let mut last = 0.0;
        for rate in [0.0005, 0.002, 0.004, 0.006] {
            let r = sim
                .run(&toy(), TrafficPattern::UniformRandom, rate)
                .unwrap();
            assert!(
                r.avg_latency >= last - 0.2,
                "latency should not fall with load: {} then {}",
                last,
                r.avg_latency
            );
            last = r.avg_latency;
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = Simulator::default();
        let a = sim
            .run(&toy(), TrafficPattern::UniformRandom, 0.003)
            .unwrap();
        let b = sim
            .run(&toy(), TrafficPattern::UniformRandom, 0.003)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // Three consecutive rates through one warm scratch must equal
        // three fresh-scratch runs exactly.
        let sim = Simulator::default();
        let net = toy();
        let empty = FaultSchedule::default();
        let mut scratch = SimScratch::new();
        for rate in [0.001, 0.003, 0.006] {
            let warm = sim
                .run_with_scratch(
                    &net,
                    TrafficPattern::UniformRandom,
                    rate,
                    &empty,
                    &mut scratch,
                )
                .unwrap();
            let fresh = sim.run(&net, TrafficPattern::UniformRandom, rate).unwrap();
            assert_eq!(warm, fresh, "rate {rate}");
        }
    }

    #[test]
    fn integer_gate_matches_float_gate() {
        /// An RNG whose every draw is one fixed word.
        struct Fixed(u64);
        impl RngCore for Fixed {
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        const TOP: u64 = 1 << 53;
        for p in [
            1e-300,
            1e-20,
            0.001,
            0.05,
            1.0 / 3.0,
            0.5,
            1.0 - 1e-16,
            1.0,
            4.0,
            1e300,
            f64::NAN,
        ] {
            let threshold = gate_threshold(p);
            let edge = threshold.clamp(1, TOP - 2);
            for k in [0, 1, edge - 1, edge, edge + 1, TOP - 1] {
                for x in [k << 11, (k << 11) | 0x7ff] {
                    assert_eq!(
                        x >> 11 < threshold,
                        Fixed(x).gen::<f64>() < p,
                        "p {p}, draw {x:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn fault_free_router_runs_build_no_path_table() {
        // Router networks walk their next-hop table in both fault-free
        // replays; only a faulted run memoizes routes per dead set, the
        // empty one included.
        let sim = Simulator::new(SimConfig {
            cycles: 2_000,
            warmup: 500,
            ..SimConfig::default()
        });
        let t77 = cryowire_device::Temperature::liquid_nitrogen();
        let mesh =
            crate::RouterNetwork::new(crate::NocKind::Mesh, 64, crate::RouterClass::OneCycle, t77)
                .unwrap();
        let pattern = TrafficPattern::UniformRandom;
        let mut scratch = SimScratch::new();
        sim.run_with_scratch(
            &mesh,
            pattern,
            0.01,
            &FaultSchedule::default(),
            &mut scratch,
        )
        .unwrap();
        let trace = sim.draw_trace(pattern, mesh.topology(), 0.01);
        sim.replay_trace(&mesh, &trace, 0.01, &mut scratch);
        assert!(
            scratch.epochs.is_empty(),
            "a fault-free replay built a PathTable"
        );

        let faults = FaultSchedule::from_events(
            vec![cryowire_faults::FaultEvent::permanent(
                1_000,
                cryowire_faults::FaultKind::LinkDead { resource: 1 },
            )],
            2_000,
        );
        sim.run_with_scratch(&mesh, pattern, 0.01, &faults, &mut scratch)
            .unwrap();
        let dead_sets: Vec<&[usize]> = scratch.epochs.iter().map(|(d, _)| &d[..]).collect();
        assert_eq!(dead_sets, [&[][..], &[1][..]]);
    }

    #[test]
    fn one_scratch_serves_each_network_its_own_routes() {
        // Alternating between two live networks rebinds the scratch
        // each time. (Networks built inside the loop body could share an
        // address; the scratch borrows its network so that such a loop
        // does not compile — see the `SimScratch` docs.)
        let sim = Simulator::new(SimConfig {
            cycles: 8_000,
            warmup: 2_000,
            ..SimConfig::default()
        });
        let t77 = cryowire_device::Temperature::liquid_nitrogen();
        let meshes = [crate::RouterClass::OneCycle, crate::RouterClass::ThreeCycle]
            .map(|class| crate::RouterNetwork::new(crate::NocKind::Mesh, 64, class, t77).unwrap());
        let mut scratch = SimScratch::new();
        for _ in 0..2 {
            for mesh in &meshes {
                let pattern = TrafficPattern::UniformRandom;
                let empty = FaultSchedule::default();
                let warm = sim
                    .run_with_scratch(mesh, pattern, 0.01, &empty, &mut scratch)
                    .unwrap();
                assert_eq!(
                    warm,
                    sim.run(mesh, pattern, 0.01).unwrap(),
                    "{}",
                    mesh.name()
                );
            }
        }
    }

    #[test]
    fn matches_reference_engine() {
        let sim = Simulator::default();
        let refsim = reference::ReferenceSimulator::new(SimConfig::default());
        for rate in [0.001, 0.004, 0.02] {
            let a = sim
                .run(&toy(), TrafficPattern::UniformRandom, rate)
                .unwrap();
            let b = refsim
                .run(&toy(), TrafficPattern::UniformRandom, rate)
                .unwrap();
            assert_eq!(a, b, "rate {rate}");
        }
    }

    #[test]
    fn empty_schedule_matches_fault_free_run() {
        let sim = Simulator::default();
        let plain = sim
            .run(&toy(), TrafficPattern::UniformRandom, 0.003)
            .unwrap();
        let faulted = sim
            .run_with_faults(
                &toy(),
                TrafficPattern::UniformRandom,
                0.003,
                &cryowire_faults::FaultSchedule::default(),
            )
            .unwrap();
        assert_eq!(plain, faulted);
        assert_eq!(faulted.dropped, 0);
        assert_eq!(faulted.unrouted, 0);
    }

    #[test]
    fn dead_only_resource_trips_watchdog() {
        use cryowire_faults::{FaultEvent, FaultKind, FaultSchedule};
        // The toy bus has a single resource and no routing freedom, so
        // killing it must end in Stalled, never a hang.
        let sim = Simulator::default();
        let faults = FaultSchedule::from_events(
            vec![FaultEvent::permanent(
                0,
                FaultKind::LinkDead { resource: 0 },
            )],
            30_000,
        );
        let err = sim
            .run_with_faults(&toy(), TrafficPattern::UniformRandom, 0.01, &faults)
            .unwrap_err();
        match err {
            crate::error::SimError::Stalled {
                blocked_resources, ..
            } => assert_eq!(blocked_resources, vec![0]),
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn degraded_resource_raises_latency() {
        use cryowire_faults::{FaultEvent, FaultKind, FaultSchedule};
        let sim = Simulator::default();
        let healthy = sim
            .run(&toy(), TrafficPattern::UniformRandom, 0.002)
            .unwrap();
        let faults = FaultSchedule::from_events(
            vec![FaultEvent::permanent(
                0,
                FaultKind::LinkDegraded {
                    resource: 0,
                    factor: 3.0,
                },
            )],
            30_000,
        );
        let degraded = sim
            .run_with_faults(&toy(), TrafficPattern::UniformRandom, 0.002, &faults)
            .unwrap();
        assert!(
            degraded.avg_latency > healthy.avg_latency,
            "degraded {} <= healthy {}",
            degraded.avg_latency,
            healthy.avg_latency
        );
    }

    #[test]
    fn flit_loss_drops_bounded_packets() {
        use cryowire_faults::{FaultEvent, FaultKind, FaultSchedule};
        let sim = Simulator::default();
        let faults = FaultSchedule::from_events(
            vec![FaultEvent::permanent(
                0,
                FaultKind::FlitLoss {
                    probability: 0.5,
                    max_retransmits: 1,
                },
            )],
            30_000,
        );
        let r = sim
            .run_with_faults(&toy(), TrafficPattern::UniformRandom, 0.002, &faults)
            .unwrap();
        assert!(r.dropped > 0, "p=0.5 with 1 retransmit must drop packets");
        assert!(r.packets > 0, "most packets still get through");
    }

    #[test]
    fn lost_packet_repays_only_completed_attempts() {
        use cryowire_faults::{FaultEvent, FaultKind, FaultSchedule};
        // probability = 1 with a zero retransmit budget: every packet is
        // lost on its first (and only) attempt, which is dropped
        // mid-flight and must charge the resource nothing. Before the
        // accounting fix the dropped packets still held the bus, so this
        // overload rate spuriously saturated an empty network.
        let sim = Simulator::default();
        let faults = FaultSchedule::from_events(
            vec![FaultEvent::permanent(
                0,
                FaultKind::FlitLoss {
                    probability: 1.0,
                    max_retransmits: 0,
                },
            )],
            30_000,
        );
        let r = sim
            .run_with_faults(&toy(), TrafficPattern::UniformRandom, 0.05, &faults)
            .unwrap();
        assert!(r.dropped > 0, "every injected packet is lost");
        assert_eq!(r.packets, 0, "nothing ever arrives");
        assert!(
            !r.saturated,
            "dropped packets must not charge occupancy (backlog would saturate)"
        );
    }

    #[test]
    fn faulted_run_is_deterministic() {
        use cryowire_faults::FaultPlan;
        let sim = Simulator::default();
        let faults = FaultPlan::new(7)
            .flit_loss(0.1, 3)
            .degraded_links(1, &[0], 2.0, 3.0)
            .schedule(30_000);
        let a = sim
            .run_with_faults(&toy(), TrafficPattern::UniformRandom, 0.003, &faults)
            .unwrap();
        let b = sim
            .run_with_faults(&toy(), TrafficPattern::UniformRandom, 0.003, &faults)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_rates() {
        let sim = Simulator::default();
        assert!(sim
            .run(&toy(), TrafficPattern::UniformRandom, -0.1)
            .is_err());
        assert!(sim.run(&toy(), TrafficPattern::UniformRandom, 1.5).is_err());
        assert!(sim
            .run(&toy(), TrafficPattern::UniformRandom, f64::NAN)
            .is_err());
    }

    #[test]
    fn rejects_degenerate_sim_window() {
        // Regression: these windows used to return a silent 0-packet
        // result with avg_latency 0 instead of an error.
        for (cycles, warmup) in [(0u64, 0u64), (1_000, 1_000), (1_000, 2_000)] {
            let sim = Simulator::new(SimConfig {
                cycles,
                warmup,
                ..SimConfig::default()
            });
            let err = sim
                .run(&toy(), TrafficPattern::UniformRandom, 0.003)
                .unwrap_err();
            assert_eq!(
                err,
                NocError::InvalidSimWindow { cycles, warmup },
                "cycles={cycles} warmup={warmup}"
            );
            // The reference engine rejects the same windows identically.
            let refsim = reference::ReferenceSimulator::new(SimConfig {
                cycles,
                warmup,
                ..SimConfig::default()
            });
            assert_eq!(
                refsim
                    .run(&toy(), TrafficPattern::UniformRandom, 0.003)
                    .unwrap_err(),
                NocError::InvalidSimWindow { cycles, warmup }
            );
        }
    }

    #[test]
    fn rejects_one_node_network() {
        // Regression: a one-node mesh used to hang drawing a destination
        // other than the only source.
        let net = crate::RouterNetwork::new(
            crate::NocKind::Mesh,
            1,
            crate::RouterClass::OneCycle,
            cryowire_device::Temperature::liquid_nitrogen(),
        )
        .expect("a one-node mesh constructs");
        let err = Simulator::default()
            .run(&net, TrafficPattern::UniformRandom, 0.1)
            .unwrap_err();
        assert!(
            matches!(err, NocError::InvalidNodeCount { nodes: 1, .. }),
            "{err:?}"
        );
    }
}
