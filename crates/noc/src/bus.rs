//! Shared-bus models: the conventional bidirectional snooping bus and the
//! H-tree-shaped bus (Section 5.1 / 5.2).
//!
//! A bus transaction goes through the Fig. 19 phases: the requesting core
//! signals the central arbiter (dedicated control wires — pure latency),
//! the arbiter arbitrates (1 cycle), the grant travels back (plus one
//! control cycle when the dynamic link connection must be programmed),
//! and the granted core broadcasts on the shared data wires — the only
//! contended resource, held for the broadcast duration, which therefore
//! sets the bandwidth limit (Section 5.2.3).

use cryowire_device::Temperature;

use crate::error::NocError;
use crate::link::LinkModel;
use crate::sim::{Network, PacketLeg};
use crate::topology::Topology;

/// Bus wiring shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusKind {
    /// Conventional bidirectional spine bus (Fig. 15d): 30-hop maximum
    /// span on the 64-core die.
    Conventional,
    /// H-tree-shaped bus (Fig. 19): 12-hop maximum span, requires the
    /// dynamic link connection (one extra control cycle on grant).
    HTree,
}

/// A shared snooping bus at a given temperature.
///
/// The per-phase cycle counts are derived from the wire-link model: the
/// 300 K conventional bus needs 8 cycles to broadcast over 30 hops at
/// 4 hops/cycle, while CryoBus (the 77 K H-tree) broadcasts over 12 hops
/// in a single cycle at 12 hops/cycle.
#[derive(Debug, Clone)]
pub struct SharedBus {
    kind: BusKind,
    topo: Topology,
    temperature: Temperature,
    request_cycles: u64,
    arbitration_cycles: u64,
    grant_cycles: u64,
    broadcast_cycles: u64,
    /// Address-interleaving ways (Section 7.1): number of independent
    /// buses, each serving an address slice.
    ways: usize,
    /// Bus clock, GHz.
    clock_ghz: f64,
}

impl SharedBus {
    /// A conventional bidirectional bus over `nodes` cores at `t`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is not a perfect square; use
    /// [`SharedBus::with_kind`] for fallible construction.
    #[must_use]
    pub fn new(nodes: usize, t: Temperature) -> Self {
        SharedBus::with_kind(BusKind::Conventional, nodes, t, 1).expect("valid conventional bus")
    }

    /// Builds a bus of `kind` with `ways`-way address interleaving.
    ///
    /// # Errors
    ///
    /// Returns [`NocError`] for invalid node counts or zero ways.
    pub fn with_kind(
        kind: BusKind,
        nodes: usize,
        t: Temperature,
        ways: usize,
    ) -> Result<Self, NocError> {
        // Table 4: buses run in the 4 GHz clock domain.
        SharedBus::with_kind_at_clock(kind, nodes, t, ways, 4.0)
    }

    /// Builds a bus with an explicit clock (the Fig. 27 temperature sweep
    /// slows the bus clock with temperature to keep the single-cycle
    /// broadcast).
    ///
    /// # Errors
    ///
    /// Returns [`NocError`] for invalid node counts or zero ways.
    pub fn with_kind_at_clock(
        kind: BusKind,
        nodes: usize,
        t: Temperature,
        ways: usize,
        clock_ghz: f64,
    ) -> Result<Self, NocError> {
        SharedBus::with_kind_at_clock_detoured(kind, nodes, t, ways, clock_ghz, 0)
    }

    /// Builds a bus whose broadcast span is lengthened by
    /// `extra_span_hops` wire hops — how CryoBus models the dynamic link
    /// connection re-forming around dead H-tree segments: the broadcast
    /// detours through neighbouring branches, paying wire length instead
    /// of failing.
    ///
    /// # Errors
    ///
    /// Returns [`NocError`] for invalid node counts or zero ways.
    pub fn with_kind_at_clock_detoured(
        kind: BusKind,
        nodes: usize,
        t: Temperature,
        ways: usize,
        clock_ghz: f64,
        extra_span_hops: usize,
    ) -> Result<Self, NocError> {
        if ways == 0 {
            return Err(NocError::InvalidNodeCount {
                nodes: ways,
                requirement: "interleaving needs at least one way",
            });
        }
        let topo = Topology::square(nodes)?;
        let link = LinkModel::new();
        let clock = clock_ghz;
        let (to_center, base_span, control) = match kind {
            BusKind::Conventional => (
                topo.shared_bus_max_hops() / 2,
                topo.shared_bus_max_hops(),
                0,
            ),
            BusKind::HTree => (topo.htree_to_center_hops(), topo.htree_max_hops(), 1),
        };
        let span = base_span + extra_span_hops;
        Ok(SharedBus {
            kind,
            topo,
            temperature: t,
            request_cycles: link.traversal_cycles(to_center, t, clock) as u64,
            arbitration_cycles: 1,
            grant_cycles: link.traversal_cycles(to_center, t, clock) as u64 + control,
            broadcast_cycles: link.traversal_cycles(span, t, clock) as u64,
            ways,
            clock_ghz: clock,
        })
    }

    /// The bus wiring shape.
    #[must_use]
    pub fn kind(&self) -> BusKind {
        self.kind
    }

    /// Operating temperature.
    #[must_use]
    pub fn temperature(&self) -> Temperature {
        self.temperature
    }

    /// Interleaving ways.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Bus clock, GHz.
    #[must_use]
    pub fn clock_ghz(&self) -> f64 {
        self.clock_ghz
    }

    /// Cycles the shared data wires are held per transaction — the
    /// quantity the Fig. 20 red target line constrains.
    #[must_use]
    pub fn occupancy_cycles(&self) -> u64 {
        self.broadcast_cycles
    }

    /// Zero-load transaction latency decomposition
    /// `(request, arbitration, grant, broadcast)` in cycles (Fig. 20).
    #[must_use]
    pub fn latency_breakdown(&self) -> (u64, u64, u64, u64) {
        (
            self.request_cycles,
            self.arbitration_cycles,
            self.grant_cycles,
            self.broadcast_cycles,
        )
    }

    /// Total zero-load transaction latency, cycles.
    #[must_use]
    pub fn transaction_latency(&self) -> u64 {
        self.request_cycles + self.arbitration_cycles + self.grant_cycles + self.broadcast_cycles
    }

    /// Theoretical saturation injection rate per core (packets/core/cycle):
    /// each of the `ways` buses serves one broadcast per
    /// [`SharedBus::occupancy_cycles`].
    #[must_use]
    pub fn saturation_rate_per_core(&self) -> f64 {
        self.ways as f64 / (self.occupancy_cycles() as f64 * self.topo.nodes() as f64)
    }
}

impl Network for SharedBus {
    fn name(&self) -> String {
        let kind = match self.kind {
            BusKind::Conventional => "Shared bus",
            BusKind::HTree => "H-tree bus",
        };
        if self.ways > 1 {
            format!("{kind} ({}-way) @ {}", self.ways, self.temperature)
        } else {
            format!("{kind} @ {}", self.temperature)
        }
    }

    fn topology(&self) -> &Topology {
        &self.topo
    }

    fn resource_count(&self) -> usize {
        self.ways
    }

    fn path(&self, _src: usize, _dst: usize, tag: u64) -> Vec<PacketLeg> {
        let way = (tag as usize) % self.ways;
        vec![
            PacketLeg::latency(self.request_cycles + self.arbitration_cycles + self.grant_cycles),
            PacketLeg::on(way, self.broadcast_cycles, self.broadcast_cycles),
        ]
    }

    fn path_avoiding(
        &self,
        _src: usize,
        _dst: usize,
        tag: u64,
        dead: &[usize],
    ) -> Option<Vec<PacketLeg>> {
        // Interleaving degrades gracefully: addresses re-interleave over
        // the surviving ways; the bus only blocks when every way is dead.
        let alive: Vec<usize> = (0..self.ways).filter(|w| !dead.contains(w)).collect();
        if alive.is_empty() {
            return None;
        }
        let way = alive[(tag as usize) % alive.len()];
        Some(vec![
            PacketLeg::latency(self.request_cycles + self.arbitration_cycles + self.grant_cycles),
            PacketLeg::on(way, self.broadcast_cycles, self.broadcast_cycles),
        ])
    }

    fn route_classes(&self, dead: &[usize]) -> usize {
        // The tag picks an interleave way: one route class per healthy
        // way (class c maps to the c-th surviving way, matching the
        // modular arithmetic of `path`/`path_avoiding` above).
        if dead.is_empty() {
            self.ways
        } else {
            (0..self.ways).filter(|w| !dead.contains(w)).count().max(1)
        }
    }

    fn route_group(&self, _core: usize) -> usize {
        // Every core reaches the central arbiter and the shared wires
        // alike.
        0
    }

    fn route_groups(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t300() -> Temperature {
        Temperature::ambient()
    }
    fn t77() -> Temperature {
        Temperature::liquid_nitrogen()
    }

    #[test]
    fn conventional_300k_breakdown() {
        // 30-hop span at 4 hops/cycle: 8-cycle broadcast; 15-hop request
        // and grant at 4 cycles each.
        let bus = SharedBus::new(64, t300());
        let (req, arb, grant, bcast) = bus.latency_breakdown();
        assert_eq!(req, 4);
        assert_eq!(arb, 1);
        assert_eq!(grant, 4);
        assert_eq!(bcast, 8);
        assert_eq!(bus.transaction_latency(), 17);
    }

    #[test]
    fn conventional_77k_is_much_faster() {
        // Guideline #1: the bus latency is entirely wire, so it collapses
        // at 77 K.
        let b300 = SharedBus::new(64, t300());
        let b77 = SharedBus::new(64, t77());
        assert!(b77.transaction_latency() * 2 <= b300.transaction_latency());
        assert_eq!(b77.occupancy_cycles(), 3); // 30 hops at 12 hops/cycle
    }

    #[test]
    fn htree_300k_cannot_reach_single_cycle() {
        // Fig. 20: topology optimization alone is not enough.
        let h300 = SharedBus::with_kind(BusKind::HTree, 64, t300(), 1).unwrap();
        assert!(h300.occupancy_cycles() > 1);
    }

    #[test]
    fn htree_77k_reaches_single_cycle_broadcast() {
        // Fig. 20: CryoBus = H-tree + 77 K wires ⇒ 1-cycle broadcast.
        let h77 = SharedBus::with_kind(BusKind::HTree, 64, t77(), 1).unwrap();
        assert_eq!(h77.occupancy_cycles(), 1);
    }

    #[test]
    fn saturation_rates_order_as_fig18_and_20() {
        let b300 = SharedBus::new(64, t300());
        let b77 = SharedBus::new(64, t77());
        let cryo = SharedBus::with_kind(BusKind::HTree, 64, t77(), 1).unwrap();
        let cryo2 = SharedBus::with_kind(BusKind::HTree, 64, t77(), 2).unwrap();
        assert!(b300.saturation_rate_per_core() < b77.saturation_rate_per_core());
        assert!(b77.saturation_rate_per_core() < cryo.saturation_rate_per_core());
        assert!(cryo.saturation_rate_per_core() < cryo2.saturation_rate_per_core());
        // CryoBus: 1 cycle × 64 cores ⇒ 1/64 per core.
        assert!((cryo.saturation_rate_per_core() - 1.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn interleaving_splits_traffic_across_ways() {
        let bus = SharedBus::with_kind(BusKind::HTree, 64, t77(), 2).unwrap();
        let a = bus.path(0, 1, 0);
        let b = bus.path(0, 1, 1);
        assert_ne!(a[1].resource, b[1].resource);
        assert_eq!(bus.resource_count(), 2);
    }

    #[test]
    fn dead_way_remaps_to_survivors() {
        let bus = SharedBus::with_kind(BusKind::HTree, 64, t77(), 2).unwrap();
        // Way 0 dead: every tag lands on way 1.
        for tag in 0..8 {
            let legs = bus.path_avoiding(0, 1, tag, &[0]).unwrap();
            assert_eq!(legs[1].resource, Some(1));
        }
        // Both ways dead: blocked.
        assert!(bus.path_avoiding(0, 1, 0, &[0, 1]).is_none());
    }

    #[test]
    fn detoured_span_lengthens_broadcast() {
        let nominal = SharedBus::with_kind(BusKind::HTree, 64, t77(), 1).unwrap();
        let detoured =
            SharedBus::with_kind_at_clock_detoured(BusKind::HTree, 64, t77(), 1, 4.0, 12).unwrap();
        assert!(detoured.occupancy_cycles() > nominal.occupancy_cycles());
        assert!(detoured.transaction_latency() > nominal.transaction_latency());
    }

    #[test]
    fn zero_ways_rejected() {
        assert!(SharedBus::with_kind(BusKind::Conventional, 64, t300(), 0).is_err());
    }

    #[test]
    fn zero_load_latency_equals_transaction_latency() {
        let bus = SharedBus::new(64, t300());
        assert_eq!(bus.zero_load_latency(0, 63), bus.transaction_latency());
    }
}
