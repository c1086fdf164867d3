//! Interconnect timing for coherence traffic — derived from the
//! simulated `cryowire-noc` fabrics, never asserted as constants.
//!
//! Snooping transactions price through a bus's Fig. 19 phase
//! decomposition ([`SharedBus::latency_breakdown`]) and broadcast
//! occupancy; directory messages price through per-pair zero-load
//! traversal cycles of a router network's actual
//! [`Network::path`] legs. Backing-store fills come from the
//! [`MemoryDesign`] L3 latency at the fabric's clock, so the same
//! engine config moves consistently between 300 K and 77 K.

use cryowire_memory::MemoryDesign;
use cryowire_noc::{CryoBus, Network, RouterNetwork, SharedBus};

use crate::error::CoherenceError;

/// Beats a 64 B line needs behind the address beat (the
/// `llc_path::NocChoice` serialization tail).
pub const LINE_BEATS: u64 = 4;

/// Cycle prices of one snooping-bus coherence transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusTiming {
    /// Request + arbitration + grant cycles on the dedicated control
    /// wires (uncontended).
    pub overhead_cycles: u64,
    /// Broadcast occupancy of the shared data wires — the bandwidth
    /// limit.
    pub broadcast_cycles: u64,
    /// Extra beats to move a full line cache-to-cache.
    pub line_beats: u64,
    /// Word beats of a Dragon `BusUpd`.
    pub update_beats: u64,
    /// Backing-store (LLC) fetch latency in bus cycles when no cache
    /// supplies the line.
    pub fill_cycles: u64,
    /// Interleaving ways — independent buses serving address slices.
    pub ways: usize,
}

impl BusTiming {
    /// Prices transactions over a [`CryoBus`] backed by `mem`.
    #[must_use]
    pub fn from_cryobus(bus: &CryoBus, mem: &MemoryDesign) -> Self {
        let (req, arb, grant, bcast) = bus.latency_breakdown();
        BusTiming {
            overhead_cycles: req + arb + grant,
            broadcast_cycles: bcast.max(bus.occupancy_cycles()),
            line_beats: LINE_BEATS,
            update_beats: 2,
            fill_cycles: fill_cycles(mem, bus.clock_ghz()),
            ways: bus.ways(),
        }
    }

    /// Prices transactions over a conventional [`SharedBus`].
    #[must_use]
    pub fn from_shared_bus(bus: &SharedBus, mem: &MemoryDesign) -> Self {
        let (req, arb, grant, bcast) = bus.latency_breakdown();
        BusTiming {
            overhead_cycles: req + arb + grant,
            broadcast_cycles: bcast.max(bus.occupancy_cycles()),
            line_beats: LINE_BEATS,
            update_beats: 2,
            fill_cycles: fill_cycles(mem, bus.clock_ghz()),
            ways: bus.ways(),
        }
    }

    /// Bus occupancy of a transaction that moves a full line on the
    /// data wires (read/write miss served cache-to-cache, writeback
    /// flush).
    #[must_use]
    pub fn line_transfer_cycles(&self) -> u64 {
        self.broadcast_cycles + self.line_beats
    }

    /// Bus occupancy of a Dragon word update.
    #[must_use]
    pub fn update_cycles(&self) -> u64 {
        self.broadcast_cycles + self.update_beats
    }
}

/// Backing-store fetch cycles at a fabric clock.
fn fill_cycles(mem: &MemoryDesign, clock_ghz: f64) -> u64 {
    (mem.l3().latency_ns() * clock_ghz).ceil().max(1.0) as u64
}

/// Cycle prices of directory-protocol messages over a router network:
/// a dense (src → dst) one-way zero-load latency table computed from
/// the network's actual contention legs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectoryTiming {
    nodes: usize,
    /// `latency[src * nodes + dst]`, cycles; `u64::MAX` marks an
    /// unreachable pair (all routes dead).
    latency: Vec<u64>,
    /// Directory/L3-slice lookup occupancy at the home node.
    pub dir_occupancy_cycles: u64,
    /// Backing-store fetch at the home's L3 slice.
    pub fill_cycles: u64,
    /// Line serialization beats behind a data-message head.
    pub line_beats: u64,
}

impl DirectoryTiming {
    /// Builds the table from a router network (no faults).
    ///
    /// # Errors
    ///
    /// [`CoherenceError::InvalidConfig`] if the network is empty.
    pub fn from_network(
        network: &RouterNetwork,
        mem: &MemoryDesign,
        clock_ghz: f64,
    ) -> Result<Self, CoherenceError> {
        DirectoryTiming::from_network_avoiding(network, mem, clock_ghz, &[])
    }

    /// Builds the table avoiding `dead` resources: pairs the network
    /// can still route get their detour latency, pairs it cannot are
    /// marked unreachable (and will trip the engine's progress
    /// watchdog rather than hang).
    ///
    /// # Errors
    ///
    /// [`CoherenceError::InvalidConfig`] if the network is empty.
    pub fn from_network_avoiding(
        network: &RouterNetwork,
        mem: &MemoryDesign,
        clock_ghz: f64,
        dead: &[usize],
    ) -> Result<Self, CoherenceError> {
        let mut timing = DirectoryTiming {
            nodes: 0,
            latency: Vec::new(),
            dir_occupancy_cycles: 2,
            fill_cycles: 0,
            line_beats: LINE_BEATS,
        };
        timing.rebuild_avoiding(network, mem, clock_ghz, dead)?;
        Ok(timing)
    }

    /// Recomputes the table in place for a new dead set (a fault
    /// epoch), reusing the latency buffer so epoch changes cost path
    /// recomputation only, not reallocation.
    ///
    /// # Errors
    ///
    /// [`CoherenceError::InvalidConfig`] if the network is empty.
    pub fn rebuild_avoiding(
        &mut self,
        network: &RouterNetwork,
        mem: &MemoryDesign,
        clock_ghz: f64,
        dead: &[usize],
    ) -> Result<(), CoherenceError> {
        let nodes = network.topology().nodes();
        if nodes == 0 {
            return Err(CoherenceError::InvalidConfig {
                reason: "directory network has no nodes".to_string(),
            });
        }
        self.nodes = nodes;
        self.latency.clear();
        self.latency.resize(nodes * nodes, 0);
        for src in 0..nodes {
            for dst in 0..nodes {
                if src == dst {
                    continue;
                }
                let legs = if dead.is_empty() {
                    Some(network.path(src, dst, 0))
                } else {
                    network.path_avoiding(src, dst, 0, dead)
                };
                self.latency[src * nodes + dst] = legs.map_or(u64::MAX, |legs| {
                    legs.iter().map(|l| l.traversal_cycles).sum()
                });
            }
        }
        self.fill_cycles = fill_cycles(mem, clock_ghz);
        Ok(())
    }

    /// Node count.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// One-way message latency, cycles; `None` when the pair is
    /// unreachable under the current dead set.
    #[must_use]
    pub fn one_way(&self, src: usize, dst: usize) -> Option<u64> {
        let c = self.latency[src * self.nodes + dst];
        (c != u64::MAX).then_some(c)
    }

    /// The home node (directory/L3 slice) of a line — static address
    /// interleaving across all nodes.
    #[must_use]
    pub fn home_of(&self, line: u64) -> usize {
        usize::try_from(line % self.nodes as u64).expect("home fits")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryowire_device::Temperature;
    use cryowire_noc::RouterClass;

    #[test]
    fn cryobus_timing_matches_fig20_shape() {
        let bus = CryoBus::new(64, Temperature::liquid_nitrogen());
        let t = BusTiming::from_cryobus(&bus, &MemoryDesign::mem_77k());
        assert_eq!(t.overhead_cycles, 4); // 1 + 1 + 2
        assert_eq!(t.broadcast_cycles, 1); // the headline single cycle
        assert_eq!(t.line_transfer_cycles(), 1 + LINE_BEATS);
        assert!(t.fill_cycles >= 1);
    }

    #[test]
    fn conventional_bus_is_slower_than_cryobus_at_77k() {
        let t77 = Temperature::liquid_nitrogen();
        let mem = MemoryDesign::mem_77k();
        let cryo = BusTiming::from_cryobus(&CryoBus::new(64, t77), &mem);
        let conv = BusTiming::from_shared_bus(&SharedBus::new(64, t77), &mem);
        assert!(conv.broadcast_cycles >= cryo.broadcast_cycles);
    }

    #[test]
    fn directory_table_is_symmetric_for_the_mesh_and_zero_on_diagonal() {
        let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, Temperature::liquid_nitrogen());
        let t = DirectoryTiming::from_network(&mesh, &MemoryDesign::mem_77k(), 5.44).unwrap();
        assert_eq!(t.nodes(), 64);
        assert_eq!(t.one_way(5, 5), Some(0));
        for (a, b) in [(0, 63), (7, 56), (12, 34)] {
            assert_eq!(
                t.one_way(a, b),
                t.one_way(b, a),
                "mesh XY symmetry {a}<->{b}"
            );
            assert!(t.one_way(a, b).unwrap() > 0);
        }
    }

    #[test]
    fn dead_resources_sever_pairs_and_never_shorten_detours() {
        let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, Temperature::liquid_nitrogen());
        let mem = MemoryDesign::mem_77k();
        let clean = DirectoryTiming::from_network(&mesh, &mem, 5.44).unwrap();
        // Kill node 0's injection port: its pairs become unreachable,
        // every surviving pair routes at a cost no lower than clean
        // (the mesh's XY/YX detours are equal-length, never shorter).
        let inj_base = 64 * 64;
        let faulted =
            DirectoryTiming::from_network_avoiding(&mesh, &mem, 5.44, &[inj_base]).unwrap();
        let mut severed = 0;
        for src in 0..64 {
            for dst in 0..64 {
                if src == dst {
                    continue;
                }
                match (clean.one_way(src, dst), faulted.one_way(src, dst)) {
                    (Some(c), Some(f)) => {
                        assert!(f >= c, "detour shorter than the clean route {src}->{dst}");
                    }
                    (Some(_), None) => severed += 1,
                    (None, _) => panic!("clean mesh must route every pair"),
                }
            }
        }
        assert_eq!(severed, 63, "exactly node 0's outbound pairs sever");
        assert!(faulted.one_way(1, 63).is_some(), "other pairs keep routing");
    }

    #[test]
    fn homes_cover_all_nodes() {
        let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, Temperature::liquid_nitrogen());
        let t = DirectoryTiming::from_network(&mesh, &MemoryDesign::mem_77k(), 5.44).unwrap();
        let homes: std::collections::BTreeSet<_> = (0..256).map(|l| t.home_of(l)).collect();
        assert_eq!(homes.len(), 64);
    }
}
