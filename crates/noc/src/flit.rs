//! Flit-level, virtual-channel, credit-flow-controlled router simulation —
//! the fully detailed counterpart of the reservation engine in [`crate::sim`].
//!
//! Implements the router the paper's Table 4 specifies: wormhole switching
//! with **4 virtual channels per input, 3-flit buffers per VC**, XY
//! (dimension-ordered) routing, credit-based flow control, and a 1- or
//! 3-cycle router pipeline. Multi-flit packets model the cache-line data
//! the snooping comparison carries.
//!
//! The engine cross-validates the cheaper reservation model: the
//! `abl-engine` ablation in the facade crate runs both on the 77 K mesh,
//! and `experiments::ablations::tests::engines_agree_at_low_load` checks
//! that they agree.
//!
//! # Execution
//!
//! [`FlitNetwork::new`] wires the network once: every router port gets a
//! global number, an R×R table holds each router's output port toward
//! each destination router, and each port knows the input it feeds
//! downstream and the output it returns credits to upstream. The table
//! and the core-to-router map come from the routing rule that
//! [`RouterNetwork`](crate::router::RouterNetwork) routes by (see the
//! [`router`](crate::router) module docs), so both engines send every
//! packet along the same routers.
//!
//! [`FlitNetwork::run`] resets the buffers in place and steps only what
//! is live, so a cycle of an idle network costs its injection draws and a
//! few word scans:
//!
//! - a bitset of the cores with flits waiting for injection, which the
//!   injection step walks instead of every core;
//! - a flit is routed once, when a router buffers it, and each output
//!   port keeps a bitset of the input slots whose head flit leaves by it
//!   and has cleared its router pipeline (as many 64-bit words as the
//!   widest router needs), so switch allocation visits only heads that
//!   may win, in round-robin order, and checks nothing but their
//!   downstream credit. A head still in its pipeline waits in the
//!   bucket of the cycle it becomes eligible and joins its port's set at
//!   the start of that cycle's allocation (buckets are indexed by the
//!   cycle's low bits, more of them than the pipeline is deep);
//! - a bitset of the output ports with at least one such head, numbered
//!   router by router, so walking it in ascending order visits the
//!   routers holding eligible flits in router order and each one's
//!   requested ports in port order, and skips every router and port with
//!   nothing to send;
//! - the one-cycle wires deliver from the list of flits sent in the
//!   previous cycle.
//!
//! Each cycle keeps one observable order, which the golden corpora in
//! `tests/flit_golden.rs` and `tests/flit_golden_wide.rs` pin: one gate
//! draw per core in core order (`gen::<f64>() < p`, compared as integers
//! through the reservation engine's gate threshold) plus the pattern's
//! own draws; injection in core order into the local port's VC 0;
//! delivery; then allocation in router order and, per router, output
//! order — a pop is visible to later outputs of the same router, a credit
//! return to routers later in the same cycle, and a round-robin pointer
//! moves only on a grant. The allocation walk re-reads the requested-port
//! set after every port, so a head flit that a pop exposes, if eligible,
//! can still win a later port of the same router in that cycle, as it
//! did when every port was visited. Skipping is exact because allocation
//! never adds flits to input buffers and an ineligible head never wins:
//! a port with no eligible head grants nothing and keeps its pointer.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::NocError;
use crate::load_latency::{check_rate_grid, LoadLatencyCurve, LoadLatencyPoint};
use crate::router::{RouterClass, RoutingRule};
use crate::sim::{check_rate, check_window, gate_threshold, next_injector};
use crate::topology::{NocKind, Topology};
use crate::traffic::TrafficPattern;

/// Configuration of a flit-level network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlitConfig {
    /// Topology kind (must be router-based).
    pub kind: NocKind,
    /// Number of cores.
    pub nodes: usize,
    /// Router pipeline class.
    pub class: RouterClass,
    /// Virtual channels per input port (Table 4: 4).
    pub vcs: usize,
    /// Buffer depth per VC in flits (Table 4: 3).
    pub vc_buffer_flits: usize,
    /// Flits per packet (1 for control, 5 for a 64 B line behind a head).
    pub packet_flits: usize,
}

impl FlitConfig {
    /// The paper's Table 4 mesh router at 64 cores.
    #[must_use]
    pub fn table4_mesh64(class: RouterClass) -> Self {
        FlitConfig {
            kind: NocKind::Mesh,
            nodes: 64,
            class,
            vcs: 4,
            vc_buffer_flits: 3,
            packet_flits: 1,
        }
    }
}

/// One flit in flight.
#[derive(Debug, Clone, Copy)]
struct Flit {
    dst_router: usize,
    is_tail: bool,
    injected_at: u64,
}

/// A flit buffered in an input VC.
#[derive(Debug, Clone, Copy)]
struct Buffered {
    flit: Flit,
    /// First cycle the flit may win switch allocation (models the router
    /// pipeline depth).
    eligible: u64,
    /// Global output port it leaves by, routed when it was buffered.
    out: usize,
}

/// A flit on a one-cycle wire.
#[derive(Debug, Clone, Copy)]
struct OnWire {
    flit: Flit,
    /// Global output port it was sent through.
    port: usize,
    /// Downstream VC (the same index as the VC it left).
    vc: usize,
}

/// A fixed-capacity set of small integers, one bit each.
#[derive(Debug, Clone)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set that can hold `0..len`.
    fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// The smallest member not below `from`, read from the set as it is
    /// now.
    fn next(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.words.get(w)? & (u64::MAX << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }
}

/// Every router's input VC buffers, indexed for switch allocation.
///
/// A router with `p` ports has `p * vcs` input *slots*, slot
/// `input port * vcs + vc`; allocation scans them round-robin.
#[derive(Debug, Clone)]
struct InputBuffers {
    vcs: usize,
    /// `u64` words in one router's slot set.
    words: usize,
    /// FIFOs indexed `global input port * vcs + vc`.
    queues: Vec<VecDeque<Buffered>>,
    /// Bit `s` of the set at `heads[port * words..]` is set while slot
    /// `s` of the port's router holds a head flit that leaves by `port`
    /// and is past its router pipeline (eligible).
    heads: Vec<u64>,
    /// The global output ports whose slot set in `heads` is not empty.
    requested: BitSet,
    /// Head flits still in their router pipeline, as `(port, slot)`,
    /// bucketed by the cycle they become eligible modulo the bucket
    /// count: a power of two above the pipeline depth, so no two
    /// pending cycles share a bucket and no bucket index divides.
    maturing: Vec<Vec<(usize, usize)>>,
}

impl InputBuffers {
    /// Appends `b` to `slot` of the router whose first global port is
    /// `base`, at `cycle`.
    fn push(&mut self, base: usize, slot: usize, b: Buffered, cycle: u64) {
        let queue = &mut self.queues[base * self.vcs + slot];
        let was_empty = queue.is_empty();
        queue.push_back(b);
        if was_empty {
            self.expose(&b, slot, cycle);
        }
    }

    /// Removes the head flit of `slot` of the router whose first global
    /// port is `base`, at `cycle`.
    fn pop(&mut self, base: usize, slot: usize, cycle: u64) -> Flit {
        let queue = &mut self.queues[base * self.vcs + slot];
        let head = queue.pop_front().expect("indexed slot holds a flit");
        let next = queue.front().copied();
        self.remove_head(head.out, slot);
        if let Some(next) = next {
            self.expose(&next, slot, cycle);
        }
        head.flit
    }

    /// Enters `head`, which just became the head of `slot`, into its
    /// output port's set now if it is eligible at `cycle`, or else in
    /// the bucket of the cycle it becomes eligible.
    fn expose(&mut self, head: &Buffered, slot: usize, cycle: u64) {
        if head.eligible <= cycle {
            self.add_head(head.out, slot);
        } else {
            let bucket = self.bucket(head.eligible);
            self.maturing[bucket].push((head.out, slot));
        }
    }

    /// Enters the heads that become eligible at `cycle`.
    fn mature(&mut self, cycle: u64) {
        let bucket = self.bucket(cycle);
        while let Some((port, slot)) = self.maturing[bucket].pop() {
            self.add_head(port, slot);
        }
    }

    /// The `maturing` bucket of heads eligible at `cycle`.
    fn bucket(&self, cycle: u64) -> usize {
        (cycle & (self.maturing.len() as u64 - 1)) as usize
    }

    fn add_head(&mut self, port: usize, slot: usize) {
        self.heads[port * self.words + slot / 64] |= 1 << (slot % 64);
        self.requested.insert(port);
    }

    fn remove_head(&mut self, port: usize, slot: usize) {
        let set = &mut self.heads[port * self.words..(port + 1) * self.words];
        set[slot / 64] &= !(1 << (slot % 64));
        if set.iter().all(|&w| w == 0) {
            self.requested.remove(port);
        }
    }

    fn clear(&mut self) {
        self.queues.iter_mut().for_each(VecDeque::clear);
        self.heads.fill(0);
        self.requested.clear();
        self.maturing.iter_mut().for_each(Vec::clear);
    }
}

/// Result of a flit-level run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlitSimResult {
    /// Offered per-node injection rate (packets/node/cycle).
    pub offered_rate: f64,
    /// Average packet latency (injection to tail ejection), cycles.
    pub avg_latency: f64,
    /// Packets measured.
    pub packets: u64,
    /// Packets still stuck in the network at the end (backlog).
    pub backlog: u64,
    /// Whether the run saturated (latency blow-up or large backlog).
    pub saturated: bool,
}

/// The flit-level network simulator.
///
/// Ports are numbered globally: router `r` owns ports
/// `port_base[r]..port_base[r + 1]`, its local port 0 (injection in,
/// ejection out) first, then one per neighbour; a router's input and
/// output port lists mirror each other.
#[derive(Debug, Clone)]
pub struct FlitNetwork {
    config: FlitConfig,
    topo: Topology,
    router_grid: Topology,
    /// Router of each core.
    router_of: Vec<usize>,
    /// First global port of each router, then the total port count.
    port_base: Vec<usize>,
    /// Router owning each global port.
    port_router: Vec<usize>,
    /// `next_port[r * routers + d]`: global output port of router `r`
    /// toward router `d` (its ejection port when `r == d`).
    next_port: Vec<usize>,
    /// Per global output port: the downstream router and the local input
    /// port it feeds there (`None` for ejection ports).
    downstream: Vec<Option<(usize, usize)>>,
    /// Per global input port: the upstream global output port a departing
    /// flit returns its credit to (`None` for injection ports).
    upstream: Vec<Option<usize>>,
    /// `(input port, vc)` of each slot of the widest router, so granting
    /// divides nothing.
    slot_split: Vec<(usize, usize)>,
    buffers: InputBuffers,
    /// Credits per downstream VC, indexed `global output port * vcs + vc`.
    credits: Vec<usize>,
    /// Round-robin pointer per global output port, over its router's
    /// input slots.
    rr: Vec<usize>,
    /// Per-core flits waiting for injection-VC space.
    pending: Vec<VecDeque<Flit>>,
    /// The cores whose `pending` queue is not empty.
    pending_cores: BitSet,
    /// Flits sent this cycle, delivered by the next cycle's wires.
    wires: Vec<OnWire>,
}

impl FlitNetwork {
    /// Builds the network.
    ///
    /// # Errors
    ///
    /// Returns [`NocError`] for bus kinds, invalid node counts, or a zero
    /// VC count, VC buffer depth or packet length.
    pub fn new(config: FlitConfig) -> Result<Self, NocError> {
        if config.kind.is_bus() {
            return Err(NocError::InvalidNodeCount {
                nodes: config.nodes,
                requirement: "flit simulation models router-based NoCs",
            });
        }
        for (field, value) in [
            ("vcs", config.vcs),
            ("vc_buffer_flits", config.vc_buffer_flits),
            ("packet_flits", config.packet_flits),
        ] {
            if value == 0 {
                return Err(NocError::InvalidFlitConfig { field });
            }
        }
        let rule = RoutingRule::new(config.kind, config.nodes)?;
        let topo = *rule.cores();
        let grid = *rule.routers();
        let routers = grid.nodes();
        let neighbors: Vec<Vec<usize>> = (0..routers)
            .map(|r| neighbors(config.kind, &grid, r))
            .collect();
        let port_toward = |at: usize, to: usize| {
            1 + neighbors[at]
                .iter()
                .position(|&n| n == to)
                .expect("channels are symmetric")
        };

        let mut port_base = Vec::with_capacity(routers + 1);
        let mut port_router = Vec::new();
        for (r, n) in neighbors.iter().enumerate() {
            port_base.push(port_router.len());
            port_router.resize(port_router.len() + 1 + n.len(), r);
        }
        let ports = port_router.len();
        port_base.push(ports);

        let mut downstream = vec![None; ports];
        let mut upstream = vec![None; ports];
        for (r, list) in neighbors.iter().enumerate() {
            for (i, &d) in list.iter().enumerate() {
                let out = port_base[r] + 1 + i;
                let input = port_toward(d, r);
                downstream[out] = Some((d, input));
                upstream[port_base[d] + input] = Some(out);
            }
        }
        let mut next_port = Vec::with_capacity(routers * routers);
        for (r, &base) in port_base[..routers].iter().enumerate() {
            for d in 0..routers {
                let local = if r == d {
                    0
                } else {
                    port_toward(r, rule.next_hop(r, d))
                };
                next_port.push(base + local);
            }
        }
        let router_of = (0..config.nodes).map(|core| rule.router_of(core)).collect();
        let max_ports = neighbors.iter().map(|n| 1 + n.len()).max().unwrap_or(1);
        let slots = max_ports * config.vcs;
        let slot_split = (0..slots)
            .map(|slot| (slot / config.vcs, slot % config.vcs))
            .collect();

        Ok(FlitNetwork {
            config,
            topo,
            router_grid: grid,
            router_of,
            port_base,
            port_router,
            next_port,
            downstream,
            upstream,
            slot_split,
            buffers: InputBuffers {
                vcs: config.vcs,
                words: slots.div_ceil(64),
                queues: vec![VecDeque::new(); ports * config.vcs],
                heads: vec![0; ports * slots.div_ceil(64)],
                requested: BitSet::new(ports),
                maturing: vec![
                    Vec::new();
                    (config.class.cycles() as usize + 1).next_power_of_two()
                ],
            },
            credits: vec![config.vc_buffer_flits; ports * config.vcs],
            rr: vec![0; ports],
            pending: vec![VecDeque::new(); config.nodes],
            pending_cores: BitSet::new(config.nodes),
            wires: Vec::new(),
        })
    }

    /// Empties every buffer and wire and restores credits and arbiters,
    /// keeping the allocations.
    fn reset(&mut self) {
        self.buffers.clear();
        self.credits.fill(self.config.vc_buffer_flits);
        self.rr.fill(0);
        self.pending.iter_mut().for_each(VecDeque::clear);
        self.pending_cores.clear();
        self.wires.clear();
    }

    /// Runs the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidInjectionRate`] for rates outside [0, 1],
    /// [`NocError::InvalidSimWindow`] for a window that can measure no
    /// packet (`cycles == 0`, or a warm-up at least as long as the run),
    /// or the pattern's validation error (including networks of fewer
    /// than two cores).
    pub fn run(
        &mut self,
        pattern: TrafficPattern,
        rate: f64,
        cycles: u64,
        warmup: u64,
        seed: u64,
    ) -> Result<FlitSimResult, NocError> {
        check_rate(rate)?;
        check_window(cycles, warmup)?;
        pattern.validate(&self.topo)?;
        self.reset();
        let mut rng = StdRng::seed_from_u64(seed);
        let pipeline = self.config.class.cycles();
        let vcs = self.config.vcs;
        let words = self.buffers.words;
        let packet_flits = self.config.packet_flits;
        let inject_capacity = self.config.vc_buffer_flits * vcs;
        let routers = self.router_grid.nodes();
        let nodes = self.topo.nodes();
        let mut next_packet: u64 = 0;
        let mut total_latency: u64 = 0;
        let mut measured: u64 = 0;
        let mut in_network: u64 = 0;
        let mut zero_latency_sum: f64 = 0.0;

        for cycle in 0..cycles {
            // 1. Generate new packets: one gate draw per core.
            let threshold = gate_threshold(rate * pattern.burst_scale(cycle));
            let mut src = 0;
            loop {
                src = next_injector(&mut rng, src, nodes, threshold);
                if src == nodes {
                    break;
                }
                let dst = pattern.destination(src, &self.topo, &mut rng);
                let dst_router = self.router_of[dst];
                next_packet += 1;
                for f in 0..packet_flits {
                    self.pending[src].push_back(Flit {
                        dst_router,
                        is_tail: f == packet_flits - 1,
                        injected_at: cycle,
                    });
                }
                self.pending_cores.insert(src);
                in_network += 1;
                zero_latency_sum +=
                    self.router_grid
                        .manhattan_hops(self.router_of[src], dst_router) as f64;
                src += 1;
            }

            // 2. Inject pending flits into the local input VC 0 if space.
            let mut from = 0;
            while let Some(src) = self.pending_cores.next(from) {
                from = src + 1;
                let pending = &mut self.pending[src];
                let router = self.router_of[src];
                let base = self.port_base[router];
                while self.buffers.queues[base * vcs].len() < inject_capacity {
                    let Some(flit) = pending.pop_front() else {
                        break;
                    };
                    let buffered = Buffered {
                        flit,
                        eligible: cycle + pipeline,
                        out: self.next_port[router * routers + flit.dst_router],
                    };
                    self.buffers.push(base, 0, buffered, cycle);
                }
                if pending.is_empty() {
                    self.pending_cores.remove(src);
                }
            }

            // 3. The wires deliver the flits sent last cycle.
            for OnWire { flit, port, vc } in self.wires.drain(..) {
                match self.downstream[port] {
                    Some((router, input)) => {
                        let buffered = Buffered {
                            flit,
                            eligible: cycle + pipeline,
                            out: self.next_port[router * routers + flit.dst_router],
                        };
                        let base = self.port_base[router];
                        self.buffers.push(base, input * vcs + vc, buffered, cycle);
                    }
                    None => {
                        // Ejection: packet leaves on its tail flit.
                        if flit.is_tail {
                            in_network = in_network.saturating_sub(1);
                            if flit.injected_at >= warmup {
                                total_latency += cycle - flit.injected_at;
                                measured += 1;
                            }
                        }
                        // Ejection frees no credits (infinite sink).
                    }
                }
            }

            // 4. Switch allocation: each requested output, router by
            //    router, picks one eligible (input, vc) head flit with a
            //    downstream credit, round-robin.
            self.buffers.mature(cycle);
            let mut from = 0;
            while let Some(port) = self.buffers.requested.next(from) {
                from = port + 1;
                let router = self.port_router[port];
                let base = self.port_base[router];
                let slots = (self.port_base[router + 1] - base) * vcs;
                // VC allocation on the output reuses the input's VC index
                // downstream and needs a credit there; ejection always has
                // credit.
                let ejection = self.downstream[port].is_none();
                let heads = &self.buffers.heads[port * words..(port + 1) * words];
                let credits = &self.credits[port * vcs..(port + 1) * vcs];
                let split = &self.slot_split;
                let winner = round_robin(heads, self.rr[port], slots, |slot| {
                    ejection || credits[split[slot].1] > 0
                });
                let Some(slot) = winner else {
                    continue;
                };
                self.rr[port] = if slot + 1 == slots { 0 } else { slot + 1 };
                let (input, vc) = self.slot_split[slot];
                let flit = self.buffers.pop(base, slot, cycle);
                if !ejection {
                    self.credits[port * vcs + vc] -= 1;
                }
                self.wires.push(OnWire { flit, port, vc });
                // Credit return: the buffer slot this flit just freed
                // belongs to the upstream channel feeding its input.
                if let Some(up) = self.upstream[base + input] {
                    self.credits[up * vcs + vc] += 1;
                }
            }
        }

        let avg_latency = if measured == 0 {
            0.0
        } else {
            total_latency as f64 / measured as f64
        };
        let zero_load = if next_packet == 0 {
            1.0
        } else {
            (zero_latency_sum / next_packet as f64 + 1.0)
                * (self.config.class.cycles() as f64 + 1.0)
        };
        let saturated = measured == 0 && next_packet > 0
            || avg_latency > 12.0 * zero_load
            || in_network > next_packet / 2;
        Ok(FlitSimResult {
            offered_rate: rate,
            avg_latency,
            packets: measured,
            backlog: in_network,
            saturated,
        })
    }
}

/// The first slot in round-robin order from `start` (`start..slots`, then
/// `0..start`) whose bit is set in `words` and which `accept`s.
fn round_robin(
    words: &[u64],
    start: usize,
    slots: usize,
    mut accept: impl FnMut(usize) -> bool,
) -> Option<usize> {
    for (from, to) in [(start, slots), (0, start)] {
        let mut w = from / 64;
        while w * 64 < to {
            let mut bits = words[w];
            if w == from / 64 {
                bits &= u64::MAX << (from % 64);
            }
            if to < (w + 1) * 64 {
                bits &= (1 << (to % 64)) - 1;
            }
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                if accept(slot) {
                    return Some(slot);
                }
                bits &= bits - 1;
            }
            w += 1;
        }
    }
    None
}

/// Neighbours of router `r` in output-port order (ports 1, 2, …).
fn neighbors(kind: NocKind, grid: &Topology, r: usize) -> Vec<usize> {
    let side = grid.side();
    let (x, y) = grid.coords(r);
    let mut out = Vec::new();
    match kind {
        NocKind::FlattenedButterfly => {
            // Fully connected within row and column.
            out.extend(
                (0..side)
                    .filter(|&nx| nx != x)
                    .map(|nx| grid.node_at(nx, y)),
            );
            out.extend(
                (0..side)
                    .filter(|&ny| ny != y)
                    .map(|ny| grid.node_at(x, ny)),
            );
        }
        _ => {
            if x + 1 < side {
                out.push(grid.node_at(x + 1, y));
            }
            if x > 0 {
                out.push(grid.node_at(x - 1, y));
            }
            if y + 1 < side {
                out.push(grid.node_at(x, y + 1));
            }
            if y > 0 {
                out.push(grid.node_at(x, y - 1));
            }
        }
    }
    out
}

/// Sweeps injection rates on a flit-level network and returns a
/// [`LoadLatencyCurve`] comparable with the reservation engine's — the
/// full-fidelity path for router curves. The curve stops after its
/// second saturated point, as
/// [`LoadLatencySweep::run`](crate::load_latency::LoadLatencySweep::run)'s
/// does.
///
/// # Errors
///
/// Returns the rate-grid errors of
/// [`LoadLatencySweep::run`](crate::load_latency::LoadLatencySweep::run)
/// ([`NocError::EmptyRateGrid`], [`NocError::InvalidInjectionRate`],
/// [`NocError::UnorderedRateGrid`]), checked for the whole grid before
/// anything runs, then the configuration, window and pattern errors of
/// [`FlitNetwork::new`] and [`FlitNetwork::run`].
pub fn flit_load_latency(
    config: FlitConfig,
    pattern: TrafficPattern,
    rates: &[f64],
    cycles: u64,
    warmup: u64,
) -> Result<LoadLatencyCurve, NocError> {
    check_rate_grid(rates)?;
    let mut net = FlitNetwork::new(config)?;
    let mut points = Vec::new();
    let mut saturated_seen = 0;
    for &rate in rates {
        let r = net.run(pattern, rate, cycles, warmup, 0xF117)?;
        points.push(LoadLatencyPoint {
            rate,
            latency: r.avg_latency,
            saturated: r.saturated,
        });
        if r.saturated {
            saturated_seen += 1;
            if saturated_seen >= 2 {
                break;
            }
        }
    }
    Ok(LoadLatencyCurve {
        network: format!("{:?} (flit-level)", config.kind),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh64(class: RouterClass) -> FlitNetwork {
        FlitNetwork::new(FlitConfig::table4_mesh64(class)).expect("valid")
    }

    #[test]
    fn flit_curve_has_hockey_stick_shape() {
        let curve = flit_load_latency(
            FlitConfig::table4_mesh64(RouterClass::OneCycle),
            TrafficPattern::UniformRandom,
            &[0.002, 0.02, 0.08, 0.2, 0.4, 0.8],
            6_000,
            1_500,
        )
        .unwrap();
        assert!(curve.zero_load_latency() < 20.0);
        assert!(
            curve.saturation_rate().is_some(),
            "high loads must saturate the flit mesh"
        );
    }

    #[test]
    fn rejects_bus_kinds() {
        let bad = FlitConfig {
            kind: NocKind::CryoBus,
            ..FlitConfig::table4_mesh64(RouterClass::OneCycle)
        };
        assert!(FlitNetwork::new(bad).is_err());
    }

    fn rejected_field(config: FlitConfig) -> Option<&'static str> {
        match FlitNetwork::new(config) {
            Err(NocError::InvalidFlitConfig { field }) => Some(field),
            _ => None,
        }
    }

    #[test]
    fn rejects_zero_vcs() {
        // Regression: used to construct, then panic indexing VC 0.
        let config = FlitConfig {
            vcs: 0,
            ..FlitConfig::table4_mesh64(RouterClass::OneCycle)
        };
        assert_eq!(rejected_field(config), Some("vcs"));
    }

    #[test]
    fn rejects_zero_vc_buffer() {
        // Regression: used to run to a 0-packet "saturated" result.
        let config = FlitConfig {
            vc_buffer_flits: 0,
            ..FlitConfig::table4_mesh64(RouterClass::OneCycle)
        };
        assert_eq!(rejected_field(config), Some("vc_buffer_flits"));
    }

    #[test]
    fn rejects_zero_packet_flits() {
        // Regression: used to run to a 0-packet "saturated" result.
        let config = FlitConfig {
            packet_flits: 0,
            ..FlitConfig::table4_mesh64(RouterClass::OneCycle)
        };
        assert_eq!(rejected_field(config), Some("packet_flits"));
    }

    #[test]
    fn rejects_one_node_network() {
        // Regression: a one-node mesh used to hang drawing a destination
        // other than the only source.
        let mut net = FlitNetwork::new(FlitConfig {
            nodes: 1,
            ..FlitConfig::table4_mesh64(RouterClass::OneCycle)
        })
        .expect("a one-node mesh constructs");
        let err = net
            .run(TrafficPattern::UniformRandom, 0.1, 1_000, 100, 7)
            .unwrap_err();
        assert!(
            matches!(err, NocError::InvalidNodeCount { nodes: 1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_windows_that_measure_nothing() {
        // Regression: a zero-cycle window returned avg_latency 0, not
        // saturated, and a warm-up as long as the run 0 packets,
        // saturated — the reservation engine rejects both.
        let mut net = mesh64(RouterClass::OneCycle);
        for (cycles, warmup) in [(0, 0), (500, 500), (1_000, 2_000)] {
            assert_eq!(
                net.run(TrafficPattern::UniformRandom, 0.01, cycles, warmup, 7),
                Err(NocError::InvalidSimWindow { cycles, warmup }),
                "cycles {cycles}, warmup {warmup}"
            );
        }
    }

    #[test]
    fn rate_grids_are_checked_like_load_latency_sweeps() {
        // Regression: an empty grid returned a point-less curve whose
        // `zero_load_latency()` panicked, a descending grid ran, and a
        // bad rate past two saturated points went unnoticed.
        use crate::load_latency::LoadLatencySweep;
        use crate::sim::SimConfig;
        let t77 = cryowire_device::Temperature::liquid_nitrogen();
        let mesh = crate::RouterNetwork::mesh64(RouterClass::OneCycle, t77);
        let config = FlitConfig::table4_mesh64(RouterClass::OneCycle);
        let pattern = TrafficPattern::UniformRandom;
        for (grid, expected) in [
            (vec![], NocError::EmptyRateGrid),
            (
                vec![0.05, 0.01],
                NocError::UnorderedRateGrid {
                    index: 1,
                    rate: 0.01,
                    previous: 0.05,
                },
            ),
            (
                vec![0.5, 0.8, 1.5],
                NocError::InvalidInjectionRate { rate: 1.5 },
            ),
        ] {
            let sweep = LoadLatencySweep::new(grid.clone()).with_config(SimConfig {
                cycles: 2_000,
                warmup: 500,
                ..SimConfig::default()
            });
            let faults = cryowire_faults::FaultSchedule::default();
            assert_eq!(
                sweep.run(&mesh, pattern, &faults),
                Err(crate::SimError::Noc(expected.clone())),
                "{grid:?}"
            );
            assert_eq!(
                flit_load_latency(config, pattern, &grid, 2_000, 500),
                Err(expected),
                "{grid:?}"
            );
        }
    }

    #[test]
    fn low_load_latency_reasonable() {
        // Zero-load mesh latency ≈ (avg hops + 1) × (router + link) ≈ 12.7
        // cycles; low-load measurement must be in that neighbourhood.
        let mut net = mesh64(RouterClass::OneCycle);
        let r = net
            .run(TrafficPattern::UniformRandom, 0.002, 12_000, 2_000, 7)
            .unwrap();
        assert!(!r.saturated);
        assert!(
            r.avg_latency > 8.0 && r.avg_latency < 18.0,
            "low-load flit latency = {}",
            r.avg_latency
        );
    }

    #[test]
    fn three_cycle_router_is_slower() {
        let mut one = mesh64(RouterClass::OneCycle);
        let mut three = mesh64(RouterClass::ThreeCycle);
        let a = one
            .run(TrafficPattern::UniformRandom, 0.002, 10_000, 2_000, 7)
            .unwrap();
        let b = three
            .run(TrafficPattern::UniformRandom, 0.002, 10_000, 2_000, 7)
            .unwrap();
        assert!(b.avg_latency > a.avg_latency + 3.0);
    }

    #[test]
    fn latency_grows_with_load() {
        let mut net = mesh64(RouterClass::OneCycle);
        let lo = net
            .run(TrafficPattern::UniformRandom, 0.005, 10_000, 2_000, 7)
            .unwrap();
        let hi = net
            .run(TrafficPattern::UniformRandom, 0.15, 10_000, 2_000, 7)
            .unwrap();
        assert!(hi.avg_latency > lo.avg_latency);
    }

    #[test]
    fn extreme_load_saturates() {
        let mut net = mesh64(RouterClass::OneCycle);
        let r = net
            .run(TrafficPattern::UniformRandom, 0.9, 6_000, 1_000, 7)
            .unwrap();
        assert!(r.saturated, "90% injection must saturate a mesh");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = mesh64(RouterClass::OneCycle);
        let mut b = mesh64(RouterClass::OneCycle);
        let ra = a
            .run(TrafficPattern::UniformRandom, 0.01, 6_000, 1_000, 11)
            .unwrap();
        let rb = b
            .run(TrafficPattern::UniformRandom, 0.01, 6_000, 1_000, 11)
            .unwrap();
        assert_eq!(ra, rb);
    }

    #[test]
    fn flit_conservation() {
        // Everything injected is either measured, pre-warmup, or backlog.
        let mut net = mesh64(RouterClass::OneCycle);
        let r = net
            .run(TrafficPattern::UniformRandom, 0.01, 8_000, 0, 3)
            .unwrap();
        assert!(r.packets + r.backlog > 0);
        // With warmup 0, measured + backlog accounts for every packet.
        assert!(r.packets > 0);
    }

    #[test]
    fn multi_flit_packets_have_serialization_latency() {
        let mut one_flit = mesh64(RouterClass::OneCycle);
        let mut five = FlitNetwork::new(FlitConfig {
            packet_flits: 5,
            ..FlitConfig::table4_mesh64(RouterClass::OneCycle)
        })
        .expect("valid");
        let a = one_flit
            .run(TrafficPattern::UniformRandom, 0.002, 10_000, 2_000, 7)
            .unwrap();
        let b = five
            .run(TrafficPattern::UniformRandom, 0.002, 10_000, 2_000, 7)
            .unwrap();
        assert!(
            b.avg_latency > a.avg_latency + 2.0,
            "5-flit packets must pay a serialization tail: {} vs {}",
            b.avg_latency,
            a.avg_latency
        );
    }

    #[test]
    fn fb_has_lower_latency_than_mesh() {
        let mut mesh = mesh64(RouterClass::OneCycle);
        let mut fb = FlitNetwork::new(FlitConfig {
            kind: NocKind::FlattenedButterfly,
            ..FlitConfig::table4_mesh64(RouterClass::OneCycle)
        })
        .expect("valid");
        let a = mesh
            .run(TrafficPattern::UniformRandom, 0.002, 10_000, 2_000, 7)
            .unwrap();
        let b = fb
            .run(TrafficPattern::UniformRandom, 0.002, 10_000, 2_000, 7)
            .unwrap();
        assert!(b.avg_latency < a.avg_latency);
    }
}
