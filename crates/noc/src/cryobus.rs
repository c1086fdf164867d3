//! CryoBus: the paper's fast, scalable 77 K snooping bus (Section 5.2).
//!
//! CryoBus = H-tree-shaped bus topology + **dynamic link connection**: the
//! H-tree cannot work as a simple bidirectional bus, so cross-link
//! switches at the wire intersections are programmed per transaction by a
//! cross-link controller sitting next to the central **matrix arbiter**.
//! This module implements the actual Fig. 19 mechanism — the matrix
//! arbiter, the H-tree switch fabric, and the
//! request → arbitration → grant+control → broadcast sequence — and wraps
//! the latency/bandwidth behaviour as a [`Network`] for simulation.

use cryowire_device::Temperature;

use crate::bus::{BusKind, SharedBus};
use crate::error::NocError;
use crate::sim::{Network, PacketLeg};
use crate::topology::Topology;

/// A matrix arbiter (Fig. 19 ② Arbitration): least-recently-granted
/// priority encoded as an N×N boolean matrix.
#[derive(Debug, Clone)]
pub struct MatrixArbiter {
    /// `prio[i][j]` = true means requester i beats requester j.
    prio: Vec<Vec<bool>>,
}

impl MatrixArbiter {
    /// Creates an arbiter for `n` requesters with initial priority by
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one requester");
        let prio = (0..n).map(|i| (0..n).map(|j| i < j).collect()).collect();
        MatrixArbiter { prio }
    }

    /// Number of requesters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.prio.len()
    }

    /// True if the arbiter has no requesters (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.prio.is_empty()
    }

    /// Restores the initial by-index priority matrix in place, so a
    /// scratch-held arbiter starts every run from the same state a
    /// freshly built one would.
    pub fn reset(&mut self) {
        for (i, row) in self.prio.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = i < j;
            }
        }
    }

    /// Grants one requester among `requests` (true = requesting), updating
    /// the priority matrix so the winner drops to lowest priority.
    /// Returns `None` when nobody requests.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len()` differs from the arbiter size.
    pub fn arbitrate(&mut self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.len(), "request vector size mismatch");
        let n = self.len();
        let winner = (0..n)
            .find(|&i| requests[i] && (0..n).all(|j| j == i || !requests[j] || self.prio[i][j]))?;
        // Winner yields priority to everyone else.
        for j in 0..n {
            if j != winner {
                self.prio[winner][j] = false;
                self.prio[j][winner] = true;
            }
        }
        Some(winner)
    }
}

/// Direction a cross-link switch is set to (Fig. 19 ③ Control).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchState {
    /// Signal flows from this subtree up toward the root.
    TowardRoot,
    /// Signal flows from the root down into this subtree.
    FromRoot,
}

/// The H-tree switch fabric: a 4-ary tree over the cores with cross-link
/// switches at every internal node.
#[derive(Debug, Clone)]
pub struct HTreeFabric {
    levels: usize,
    nodes: usize,
}

impl HTreeFabric {
    /// Builds the fabric for `nodes` cores (must be a power of four).
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidNodeCount`] otherwise.
    pub fn new(nodes: usize) -> Result<Self, NocError> {
        let mut levels = 0;
        let mut n = nodes;
        while n > 1 && n.is_multiple_of(4) {
            n /= 4;
            levels += 1;
        }
        if n != 1 || levels == 0 {
            return Err(NocError::InvalidNodeCount {
                nodes,
                requirement: "H-tree requires a power-of-four core count",
            });
        }
        Ok(HTreeFabric { levels, nodes })
    }

    /// Tree depth (3 for 64 cores).
    #[must_use]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Computes the switch states along the path from `src` to the root:
    /// its own branch points toward the root, every other branch away.
    /// Returns the per-level state of the source's branch.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    #[must_use]
    pub fn program_for_source(&self, src: usize) -> Vec<SwitchState> {
        assert!(src < self.nodes, "source out of range");
        (0..self.levels).map(|_| SwitchState::TowardRoot).collect()
    }

    /// The set of cores a broadcast from `src` reaches with the fabric
    /// programmed by [`HTreeFabric::program_for_source`]: all cores
    /// (the source's branch feeds the root, the root feeds every subtree).
    #[must_use]
    pub fn broadcast_reach(&self, src: usize) -> Vec<usize> {
        let _ = self.program_for_source(src);
        (0..self.nodes).collect()
    }
}

/// The CryoBus network: H-tree bus + dynamic link connection at 77 K,
/// with optional k-way address interleaving (Section 7.1).
#[derive(Debug, Clone)]
pub struct CryoBus {
    inner: SharedBus,
    fabric: HTreeFabric,
    arbiter_size: usize,
}

impl CryoBus {
    /// Builds the 1-way CryoBus over `nodes` cores at temperature `t`.
    ///
    /// # Panics
    ///
    /// Panics for invalid node counts; use [`CryoBus::try_new`] to handle
    /// them.
    #[must_use]
    pub fn new(nodes: usize, t: Temperature) -> Self {
        CryoBus::try_new(nodes, t, 1).expect("valid CryoBus configuration")
    }

    /// Builds a `ways`-way interleaved CryoBus.
    ///
    /// # Errors
    ///
    /// Returns [`NocError`] for node counts that are not powers of four or
    /// zero ways.
    pub fn try_new(nodes: usize, t: Temperature, ways: usize) -> Result<Self, NocError> {
        CryoBus::try_new_at_clock(nodes, t, ways, 4.0)
    }

    /// Builds a CryoBus with an explicit bus clock (GHz).
    ///
    /// # Errors
    ///
    /// Returns [`NocError`] for node counts that are not powers of four or
    /// zero ways.
    pub fn try_new_at_clock(
        nodes: usize,
        t: Temperature,
        ways: usize,
        clock_ghz: f64,
    ) -> Result<Self, NocError> {
        let inner = SharedBus::with_kind_at_clock(BusKind::HTree, nodes, t, ways, clock_ghz)?;
        let fabric = HTreeFabric::new(nodes)?;
        Ok(CryoBus {
            inner,
            fabric,
            arbiter_size: nodes,
        })
    }

    /// The 2-way interleaved variant of Section 7.1.
    ///
    /// # Panics
    ///
    /// Never panics for the fixed valid configuration.
    #[must_use]
    pub fn two_way(nodes: usize, t: Temperature) -> Self {
        CryoBus::try_new(nodes, t, 2).expect("valid 2-way CryoBus")
    }

    /// Bus occupancy per broadcast, cycles (1 at 77 K — Fig. 20).
    #[must_use]
    pub fn occupancy_cycles(&self) -> u64 {
        self.inner.occupancy_cycles()
    }

    /// Zero-load transaction latency decomposition (Fig. 20).
    #[must_use]
    pub fn latency_breakdown(&self) -> (u64, u64, u64, u64) {
        self.inner.latency_breakdown()
    }

    /// Total zero-load transaction latency, cycles.
    #[must_use]
    pub fn transaction_latency(&self) -> u64 {
        self.inner.transaction_latency()
    }

    /// Saturation injection rate per core.
    #[must_use]
    pub fn saturation_rate_per_core(&self) -> f64 {
        self.inner.saturation_rate_per_core()
    }

    /// Interleaving ways.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.inner.ways()
    }

    /// Bus clock, GHz.
    #[must_use]
    pub fn clock_ghz(&self) -> f64 {
        self.inner.clock_ghz()
    }

    /// Operating temperature.
    #[must_use]
    pub fn temperature(&self) -> Temperature {
        self.inner.temperature()
    }

    /// A fresh matrix arbiter of the right size (the mechanism of
    /// Fig. 19 ②).
    #[must_use]
    pub fn arbiter(&self) -> MatrixArbiter {
        MatrixArbiter::new(self.arbiter_size)
    }

    /// The H-tree switch fabric (the mechanism of Fig. 19 ③/④).
    #[must_use]
    pub fn fabric(&self) -> &HTreeFabric {
        &self.fabric
    }

    /// Wire hops the dynamic link connection pays to detour around one
    /// dead segment at `level` (0 = root-adjacent, the longest
    /// segments): the broadcast leaves through the neighbouring branch
    /// and re-enters below the dead segment, adding twice the segment's
    /// own length.
    fn segment_detour_hops(&self, level: usize) -> usize {
        let to_center = self.inner.topology().htree_to_center_hops();
        2 * (to_center >> (level + 1)).max(1)
    }

    /// Re-forms the dynamic link connection around dead H-tree segments
    /// (`(level, index)` pairs), returning the degraded bus.
    ///
    /// The cross-link switches reroute each affected branch through its
    /// neighbour, so the bus keeps broadcasting to all cores — at a
    /// longer worst-case span, which the wire-link model converts back
    /// into (possibly higher) broadcast cycles. Killing segments can
    /// therefore cost bandwidth (occupancy) and latency but never
    /// disconnects the bus.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidHTreeSegment`] for a level the fabric
    /// does not have or an index beyond the `4^(level+1)` segments of
    /// that level.
    pub fn reform_around(&self, dead_segments: &[(usize, usize)]) -> Result<CryoBus, NocError> {
        let levels = self.fabric.levels();
        let mut seen: Vec<(usize, usize)> = Vec::new();
        let mut extra_span_hops = 0usize;
        for &(level, index) in dead_segments {
            if level >= levels || index >= 4usize.pow(level as u32 + 1) {
                return Err(NocError::InvalidHTreeSegment {
                    level,
                    index,
                    levels,
                });
            }
            if seen.contains(&(level, index)) {
                continue;
            }
            seen.push((level, index));
            extra_span_hops += self.segment_detour_hops(level);
        }
        let inner = SharedBus::with_kind_at_clock_detoured(
            BusKind::HTree,
            self.inner.topology().nodes(),
            self.inner.temperature(),
            self.ways(),
            self.clock_ghz(),
            extra_span_hops,
        )?;
        Ok(CryoBus {
            inner,
            fabric: self.fabric.clone(),
            arbiter_size: self.arbiter_size,
        })
    }
}

impl Network for CryoBus {
    fn name(&self) -> String {
        if self.ways() > 1 {
            format!("CryoBus ({}-way)", self.ways())
        } else {
            "CryoBus".to_string()
        }
    }

    fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    fn resource_count(&self) -> usize {
        self.inner.resource_count()
    }

    fn path(&self, src: usize, dst: usize, tag: u64) -> Vec<PacketLeg> {
        self.inner.path(src, dst, tag)
    }

    fn path_avoiding(
        &self,
        src: usize,
        dst: usize,
        tag: u64,
        dead: &[usize],
    ) -> Option<Vec<PacketLeg>> {
        // Way resources remap exactly as on the underlying bus.
        self.inner.path_avoiding(src, dst, tag, dead)
    }

    fn route_classes(&self, dead: &[usize]) -> usize {
        self.inner.route_classes(dead)
    }

    fn route_group(&self, core: usize) -> usize {
        self.inner.route_group(core)
    }

    fn route_groups(&self) -> usize {
        self.inner.route_groups()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t77() -> Temperature {
        Temperature::liquid_nitrogen()
    }

    #[test]
    fn one_cycle_broadcast_at_77k() {
        // Fig. 20: the headline CryoBus property.
        let bus = CryoBus::new(64, t77());
        assert_eq!(bus.occupancy_cycles(), 1);
    }

    #[test]
    fn fig20_breakdown_shape() {
        let bus = CryoBus::new(64, t77());
        let (req, arb, grant, bcast) = bus.latency_breakdown();
        assert_eq!(req, 1);
        assert_eq!(arb, 1);
        assert_eq!(grant, 2); // grant + control-signal generation cycle
        assert_eq!(bcast, 1);
        assert_eq!(bus.transaction_latency(), 5);
    }

    #[test]
    fn five_times_faster_than_300k_mesh_zero_load() {
        // Abstract: "five times lower NoC latency of CryoBus" vs 300 K
        // Mesh.
        use crate::router::{RouterClass, RouterNetwork};
        let cryo = CryoBus::new(64, t77());
        let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, Temperature::ambient());
        let ratio = mesh.average_zero_load_latency() / cryo.average_zero_load_latency();
        assert!(ratio > 2.0, "CryoBus vs 300 K Mesh latency ratio = {ratio}");
    }

    #[test]
    fn arbiter_grants_exactly_one() {
        let mut arb = MatrixArbiter::new(8);
        let mut requests = vec![false; 8];
        requests[3] = true;
        requests[5] = true;
        let g = arb.arbitrate(&requests).unwrap();
        assert!(g == 3 || g == 5);
    }

    #[test]
    fn arbiter_none_without_requests() {
        let mut arb = MatrixArbiter::new(4);
        assert_eq!(arb.arbitrate(&[false; 4]), None);
    }

    #[test]
    fn arbiter_is_fair_under_constant_contention() {
        // Least-recently-granted: with everyone requesting, grants must
        // rotate through all requesters.
        let n = 8;
        let mut arb = MatrixArbiter::new(n);
        let requests = vec![true; n];
        let mut counts = vec![0usize; n];
        for _ in 0..(n * 10) {
            let g = arb.arbitrate(&requests).unwrap();
            counts[g] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(c, 10, "requester {i} granted {c} times");
        }
    }

    #[test]
    fn arbiter_never_starves() {
        // A low-priority requester facing a constantly-requesting rival
        // must still be granted eventually.
        let mut arb = MatrixArbiter::new(2);
        let mut granted1 = false;
        for _ in 0..4 {
            if arb.arbitrate(&[true, true]).unwrap() == 1 {
                granted1 = true;
            }
        }
        assert!(granted1);
    }

    #[test]
    fn fabric_levels_for_64_cores() {
        let f = HTreeFabric::new(64).unwrap();
        assert_eq!(f.levels(), 3);
    }

    #[test]
    fn fabric_rejects_non_power_of_four() {
        assert!(HTreeFabric::new(32).is_err());
        assert!(HTreeFabric::new(0).is_err());
        assert!(HTreeFabric::new(1).is_err());
        assert!(HTreeFabric::new(256).is_ok());
    }

    #[test]
    fn broadcast_reaches_every_core() {
        // Fig. 19 ④: after programming, the broadcast reaches all cores.
        let f = HTreeFabric::new(64).unwrap();
        for src in [0, 31, 63] {
            let reach = f.broadcast_reach(src);
            assert_eq!(reach.len(), 64);
        }
    }

    #[test]
    fn reform_keeps_broadcasting_at_longer_span() {
        let bus = CryoBus::new(64, t77());
        // Kill one root-adjacent segment (the longest detour).
        let degraded = bus.reform_around(&[(0, 1)]).unwrap();
        // Still a working broadcast bus over all 64 cores...
        assert_eq!(degraded.topology().nodes(), 64);
        // ...but the single-cycle broadcast is lost: the detour adds
        // 2×3 = 6 hops to the 12-hop span, pushing past 12 hops/cycle.
        assert!(degraded.occupancy_cycles() > bus.occupancy_cycles());
        assert!(degraded.transaction_latency() > bus.transaction_latency());
    }

    #[test]
    fn reform_dedupes_and_validates_segments() {
        let bus = CryoBus::new(64, t77());
        let a = bus.reform_around(&[(1, 3)]).unwrap();
        let b = bus.reform_around(&[(1, 3), (1, 3)]).unwrap();
        assert_eq!(a.transaction_latency(), b.transaction_latency());
        assert!(bus.reform_around(&[(3, 0)]).is_err(), "level beyond tree");
        assert!(bus.reform_around(&[(0, 4)]).is_err(), "index beyond level");
    }

    #[test]
    fn reform_with_no_dead_segments_is_identity() {
        let bus = CryoBus::new(64, t77());
        let same = bus.reform_around(&[]).unwrap();
        assert_eq!(same.occupancy_cycles(), bus.occupancy_cycles());
        assert_eq!(same.transaction_latency(), bus.transaction_latency());
    }

    #[test]
    fn two_way_doubles_bandwidth() {
        let one = CryoBus::new(64, t77());
        let two = CryoBus::two_way(64, t77());
        let r = two.saturation_rate_per_core() / one.saturation_rate_per_core();
        assert!((r - 2.0).abs() < 1e-12);
    }
}
