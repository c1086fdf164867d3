//! Router-based NoCs: Mesh, Concentrated Mesh, Flattened Butterfly
//! (Fig. 15a–c).
//!
//! Routing is dimension-ordered (XY) for the meshes and two-hop
//! (row then column) for the flattened butterfly. Routers come in two
//! classes (Table 4 / Section 5.2.3): the academic 1-cycle router, which
//! is fully pipelined (a link serializes one flit per cycle), and the
//! industry 3-cycle router, whose switch allocation holds the output for
//! the full pipeline — the conservative assumption behind the paper's
//! "3-cycle" curves in Fig. 21.
//!
//! # One routing rule
//!
//! A crate-private `RoutingRule` is the only description of where a
//! router network sends a packet: the router holding each core, and the
//! next router on the way to any destination router. Everything else is
//! derived from it. [`RouterNetwork::new`] fills a [`NextHopTable`] from
//! the rule once, and the reservation engine's fault-free replay walks
//! that table; [`Network::path`] walks the rule itself, hop by hop, so
//! the reference engine and the route-structure test, which take `path`
//! as their oracle, check the table against the rule; and the flit
//! engine ([`crate::flit`]) wires its output ports from the same rule.
//!
//! One R×R table describes every fault-free route because
//! dimension-ordered routes are *suffix-closed*: the route from a
//! packet's next router onward is the rest of its route, so each router
//! needs only its next hop toward each destination router. Detours
//! around dead links are not suffix-closed (the mesh detour router picks
//! XY or YX per source and destination), so faulted routes come from
//! [`Network::path_avoiding`] and the engine memoizes them per dead set
//! in a [`PathTable`](crate::route_cache::PathTable).

use std::fmt;
use std::sync::Mutex;

use cryowire_device::Temperature;

use crate::deadlock::DetourRouter;
use crate::error::NocError;
use crate::link::LinkModel;
use crate::sim::{Network, PacketLeg};
use crate::topology::{NocKind, Topology};

/// Router pipeline class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouterClass {
    /// State-of-the-art 1-cycle router (Park DAC'12, SWIFT).
    OneCycle,
    /// Realistic 3-cycle industry router (Teraflops, SCC).
    ThreeCycle,
}

impl RouterClass {
    /// Pipeline depth in cycles.
    #[must_use]
    pub fn cycles(self) -> u64 {
        match self {
            RouterClass::OneCycle => 1,
            RouterClass::ThreeCycle => 3,
        }
    }

    /// Cycles an output link stays held per packet: fully pipelined for
    /// the 1-cycle router, the whole pipeline for the 3-cycle router.
    #[must_use]
    pub fn occupancy(self) -> u64 {
        match self {
            RouterClass::OneCycle => 1,
            RouterClass::ThreeCycle => 3,
        }
    }
}

/// The routing rule of a router network: which router holds each core,
/// and the next router on the dimension-ordered route toward a
/// destination router.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoutingRule {
    kind: NocKind,
    cores: Topology,
    routers: Topology,
}

impl RoutingRule {
    /// The rule of the router-based `kind` over `nodes` cores. The mesh
    /// gives every core its own router; CMesh and the flattened
    /// butterfly concentrate each 2×2 block of cores on one router.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidNodeCount`] unless the cores and the
    /// routers both form a square grid.
    pub(crate) fn new(kind: NocKind, nodes: usize) -> Result<Self, NocError> {
        debug_assert!(!kind.is_bus(), "a bus has no routers to route by");
        let cores = Topology::square(nodes)?;
        let span = span(kind);
        let routers = Topology::square(nodes / (span * span))?;
        Ok(RoutingRule {
            kind,
            cores,
            routers,
        })
    }

    /// The core grid.
    pub(crate) fn cores(&self) -> &Topology {
        &self.cores
    }

    /// The router grid.
    pub(crate) fn routers(&self) -> &Topology {
        &self.routers
    }

    /// The router holding `core`.
    pub(crate) fn router_of(&self, core: usize) -> usize {
        let (x, y) = self.cores.coords(core);
        let span = span(self.kind);
        self.routers.node_at(x / span, y / span)
    }

    /// The routers of the route from router `from` to router `to`, both
    /// included.
    pub(crate) fn route(&self, from: usize, to: usize) -> Vec<usize> {
        let dest = self.routers.coords(to);
        let mut at = self.routers.coords(from);
        let mut route = vec![from];
        while at != dest {
            at = self.step(at, dest);
            route.push(self.routers.node_at(at.0, at.1));
        }
        route
    }

    /// The router after `at` on the route to router `to` (≠ `at`).
    pub(crate) fn next_hop(&self, at: usize, to: usize) -> usize {
        let (x, y) = self.step(self.routers.coords(at), self.routers.coords(to));
        self.routers.node_at(x, y)
    }

    /// The grid position after `(x, y)` on the route to `(dx, dy)`
    /// (another position): on the meshes one hop along X until the
    /// column matches, then along Y; on the flattened butterfly the
    /// express link along the row to the destination's column, then the
    /// one along that column.
    fn step(&self, (x, y): (usize, usize), (dx, dy): (usize, usize)) -> (usize, usize) {
        match self.kind {
            NocKind::FlattenedButterfly => {
                if x != dx {
                    (dx, y)
                } else {
                    (x, dy)
                }
            }
            _ => {
                if x != dx {
                    (if dx > x { x + 1 } else { x - 1 }, y)
                } else {
                    (x, if dy > y { y + 1 } else { y - 1 })
                }
            }
        }
    }
}

/// Cores per router along each grid axis.
fn span(kind: NocKind) -> usize {
    match kind {
        NocKind::Mesh => 1,
        _ => 2,
    }
}

/// One next-hop table entry: the next router toward the entry's
/// destination and the cycles the link to it takes.
#[derive(Debug, Clone, Copy)]
struct Hop {
    next: u32,
    link_cycles: u32,
}

/// A router network's fault-free routes and leg timing: the router of
/// each core, and a destination-major R×R table of the next router and
/// link cycles from every router toward every destination router (8
/// bytes an entry: 512 KB for the 256-node mesh, whose route arena held
/// about 24 MB of legs).
///
/// Built once per network from its routing rule (see the
/// [module docs](self)). [`NextHopTable::walk`] yields exactly the legs
/// of [`Network::path`], which follows the rule without the table; the
/// reservation engine's fault-free replay walks the table instead of
/// memoizing routes in a [`PathTable`](crate::route_cache::PathTable).
///
/// Resource ids: the directed link `a → b` is `a · R + b`, and router
/// `r`'s injection port is `R² + r`.
#[derive(Clone)]
pub struct NextHopTable {
    routers: Topology,
    link_cycles_per_router_hop: u64,
    router_cycles: u64,
    occupancy: u64,
    /// Router of each core.
    router_of: Vec<u32>,
    /// `hops[to * R + at]`: the hop from router `at` toward router `to`
    /// (unused on the diagonal).
    hops: Vec<Hop>,
}

impl NextHopTable {
    /// Fills the table of `rule` for routers of `class` whose links take
    /// `link_cycles_per_router_hop` per router-grid hop.
    fn new(rule: &RoutingRule, class: RouterClass, link_cycles_per_router_hop: u64) -> Self {
        let r = rule.routers().nodes();
        let mut table = NextHopTable {
            routers: *rule.routers(),
            link_cycles_per_router_hop,
            router_cycles: class.cycles(),
            occupancy: class.occupancy(),
            router_of: (0..rule.cores().nodes())
                .map(|core| index_u32(rule.router_of(core)))
                .collect(),
            hops: Vec::with_capacity(r * r),
        };
        for to in 0..r {
            for at in 0..r {
                let next = if at == to { at } else { rule.next_hop(at, to) };
                let link_cycles = table.link_cycles(at, next);
                table.hops.push(Hop {
                    next: index_u32(next),
                    link_cycles: u32::try_from(link_cycles).expect("link cycles exceed u32"),
                });
            }
        }
        table
    }

    /// Visits the legs of the fault-free route from core `src` to core
    /// `dst` in order: the source router's injection port, then one leg
    /// per link.
    #[inline]
    pub fn walk(&self, src: usize, dst: usize, mut visit: impl FnMut(PacketLeg)) {
        let mut at = self.router_of[src] as usize;
        let to = self.router_of[dst] as usize;
        visit(self.injection_leg(at));
        let r = self.routers.nodes();
        let toward = &self.hops[to * r..(to + 1) * r];
        while at != to {
            let hop = toward[at];
            let next = hop.next as usize;
            visit(self.leg(at, next, u64::from(hop.link_cycles)));
            at = next;
        }
    }

    /// Resource id of the directed link `a → b` (unique per ordered
    /// router pair; flattened-butterfly links are direct express
    /// channels).
    fn link_id(&self, a: usize, b: usize) -> usize {
        a * self.routers.nodes() + b
    }

    /// Link traversal cycles between two (possibly non-adjacent, on the
    /// flattened butterfly) routers.
    fn link_cycles(&self, a: usize, b: usize) -> u64 {
        self.routers.manhattan_hops(a, b) as u64 * self.link_cycles_per_router_hop
    }

    /// Resource id of router `r`'s injection port (shared by
    /// concentrated cores).
    fn injection_port(&self, r: usize) -> usize {
        let routers = self.routers.nodes();
        routers * routers + r
    }

    /// The leg of router `r`'s injection port, which also pays the
    /// source router's pipeline.
    fn injection_leg(&self, r: usize) -> PacketLeg {
        PacketLeg::on(self.injection_port(r), self.occupancy, self.router_cycles)
    }

    /// The leg of the link `a → b`, which takes `link_cycles` after the
    /// router pipeline and is held for at least the router's occupancy.
    fn leg(&self, a: usize, b: usize, link_cycles: u64) -> PacketLeg {
        PacketLeg::on(
            self.link_id(a, b),
            self.occupancy.max(link_cycles),
            self.router_cycles + link_cycles,
        )
    }

    /// Expands an ordered router sequence into contention legs
    /// (injection port + one leg per inter-router link).
    fn legs(&self, route: &[usize]) -> Vec<PacketLeg> {
        let mut legs = Vec::with_capacity(route.len());
        legs.push(self.injection_leg(route[0]));
        for pair in route.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            legs.push(self.leg(a, b, self.link_cycles(a, b)));
        }
        legs
    }
}

impl fmt::Debug for NextHopTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NextHopTable")
            .field("routers", &self.routers.nodes())
            .field("entries", &self.hops.len())
            .finish_non_exhaustive()
    }
}

/// A router index as a table entry.
fn index_u32(i: usize) -> u32 {
    u32::try_from(i).expect("router index exceeds u32")
}

/// A router-based network at a given temperature.
#[derive(Debug)]
pub struct RouterNetwork {
    kind: NocKind,
    class: RouterClass,
    rule: RoutingRule,
    temperature: Temperature,
    table: NextHopTable,
    /// Memoized deadlock-validated detour routing for the last dead set
    /// seen by [`Network::path_avoiding`] — the set only changes at
    /// fault boundaries, so one entry is enough.
    detour_cache: Mutex<Option<(Vec<usize>, DetourRouter)>>,
}

impl Clone for RouterNetwork {
    fn clone(&self) -> Self {
        RouterNetwork {
            kind: self.kind,
            class: self.class,
            rule: self.rule,
            temperature: self.temperature,
            table: self.table.clone(),
            detour_cache: Mutex::new(None),
        }
    }
}

impl RouterNetwork {
    /// Builds a router network of `kind` over `nodes` cores at `t`.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidNodeCount`] for non-square node counts
    /// or a `kind` that is not router-based.
    pub fn new(
        kind: NocKind,
        nodes: usize,
        class: RouterClass,
        t: Temperature,
    ) -> Result<Self, NocError> {
        if kind.is_bus() {
            return Err(NocError::InvalidNodeCount {
                nodes,
                requirement: "RouterNetwork only models router-based NoCs",
            });
        }
        let rule = RoutingRule::new(kind, nodes)?;
        // Physical length of one router-to-router hop in 2 mm core hops.
        let core_hops_per_router_hop = rule.cores().side() / rule.routers().side();
        let link = LinkModel::new();
        let link_cycles = link
            .traversal_cycles(core_hops_per_router_hop, t, 4.0)
            .max(1) as u64;
        Ok(RouterNetwork {
            kind,
            class,
            rule,
            temperature: t,
            table: NextHopTable::new(&rule, class, link_cycles),
            detour_cache: Mutex::new(None),
        })
    }

    /// The 64-core mesh of Table 4.
    ///
    /// # Panics
    ///
    /// Never panics for the fixed valid configuration.
    #[must_use]
    pub fn mesh64(class: RouterClass, t: Temperature) -> Self {
        RouterNetwork::new(NocKind::Mesh, 64, class, t).expect("64-core mesh is valid")
    }

    /// The network kind.
    #[must_use]
    pub fn kind(&self) -> NocKind {
        self.kind
    }

    /// The router class.
    #[must_use]
    pub fn class(&self) -> RouterClass {
        self.class
    }

    /// Operating temperature.
    #[must_use]
    pub fn temperature(&self) -> Temperature {
        self.temperature
    }

    /// The memoized deadlock-validated detour router for `dead`
    /// (resource indices), rebuilding only when the dead set changes.
    fn detour_router_for(&self, dead: &[usize]) -> DetourRouter {
        let mut cache = self.detour_cache.lock().expect("detour cache lock");
        if let Some((cached_dead, router)) = cache.as_ref() {
            if cached_dead == dead {
                return router.clone();
            }
        }
        let r = self.rule.routers().nodes();
        let dead_channels: Vec<(usize, usize)> = dead
            .iter()
            .filter(|&&d| d < r * r)
            .map(|&d| (d / r, d % r))
            .collect();
        let router = DetourRouter::new(self.rule.routers(), &dead_channels);
        *cache = Some((dead.to_vec(), router.clone()));
        router
    }

    /// Fault-aware FB routing: row-then-column, falling back to
    /// column-then-row when a dead express channel blocks the default.
    /// FB routes hold at most two channels and the two orders use
    /// disjoint channel sets per pair, so no CDG-relevant mixing arises
    /// on the shared links the way it does for hop-by-hop meshes.
    fn fb_route_avoiding(&self, src_r: usize, dst_r: usize, dead: &[usize]) -> Option<Vec<usize>> {
        let grid = self.rule.routers();
        let (sx, sy) = grid.coords(src_r);
        let (dx, dy) = grid.coords(dst_r);
        let row_first = self.rule.route(src_r, dst_r);
        let col_first: Vec<usize> = {
            let mut route = vec![src_r];
            if sy != dy {
                route.push(grid.node_at(sx, dy));
            }
            if sx != dx {
                route.push(grid.node_at(dx, dy));
            }
            route
        };
        let clean = |route: &[usize]| {
            route
                .windows(2)
                .all(|w| !dead.contains(&self.table.link_id(w[0], w[1])))
        };
        if clean(&row_first) {
            Some(row_first)
        } else if clean(&col_first) {
            Some(col_first)
        } else {
            None
        }
    }
}

impl Network for RouterNetwork {
    fn name(&self) -> String {
        let class = match self.class {
            RouterClass::OneCycle => "1-cycle",
            RouterClass::ThreeCycle => "3-cycle",
        };
        format!("{} ({class}) @ {}", self.kind, self.temperature)
    }

    fn topology(&self) -> &Topology {
        self.rule.cores()
    }

    fn resource_count(&self) -> usize {
        let r = self.rule.routers().nodes();
        // Directed router-pair links plus per-router injection ports.
        r * r + r
    }

    fn path(&self, src: usize, dst: usize, _tag: u64) -> Vec<PacketLeg> {
        // Walks the rule, not the next-hop table the fault-free replay
        // walks, so that wherever `path` is the oracle (the reference
        // engine, the route-structure test) it checks the table.
        let route = self
            .rule
            .route(self.rule.router_of(src), self.rule.router_of(dst));
        self.table.legs(&route)
    }

    fn path_avoiding(
        &self,
        src: usize,
        dst: usize,
        tag: u64,
        dead: &[usize],
    ) -> Option<Vec<PacketLeg>> {
        if dead.is_empty() {
            return Some(self.path(src, dst, tag));
        }
        let src_r = self.rule.router_of(src);
        let dst_r = self.rule.router_of(dst);
        // A dead injection port blocks the source router's cores outright.
        if dead.contains(&self.table.injection_port(src_r)) {
            return None;
        }
        let route = match self.kind {
            NocKind::FlattenedButterfly => self.fb_route_avoiding(src_r, dst_r, dead)?,
            _ => self.detour_router_for(dead).route(src_r, dst_r)?,
        };
        Some(self.table.legs(&route))
    }

    fn route_group(&self, core: usize) -> usize {
        // Routes run router to router.
        self.rule.router_of(core)
    }

    fn route_groups(&self) -> usize {
        self.rule.routers().nodes()
    }

    fn next_hop_table(&self) -> Option<&NextHopTable> {
        Some(&self.table)
    }

    fn zero_load_latency(&self, src: usize, dst: usize) -> u64 {
        // The table yields `path`'s legs without allocating them.
        let mut zero = 0;
        self.table
            .walk(src, dst, |leg| zero += leg.traversal_cycles);
        zero
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
    fn mesh_zero_load_latency_matches_hop_count() {
        let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, t300());
        // Corner to corner: 14 router hops, 1-cycle routers + 1-cycle links:
        // injection router (1) + 14 × (1 + 1) = 29.
        assert_eq!(mesh.zero_load_latency(0, 63), 29);
    }

    #[test]
    fn cmesh_has_fewer_hops() {
        let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, t300());
        let cmesh = RouterNetwork::new(NocKind::CMesh, 64, RouterClass::OneCycle, t300()).unwrap();
        assert!(cmesh.average_zero_load_latency() < mesh.average_zero_load_latency());
    }

    #[test]
    fn fb_at_most_two_inter_router_hops() {
        let fb = RouterNetwork::new(
            NocKind::FlattenedButterfly,
            64,
            RouterClass::OneCycle,
            t300(),
        )
        .unwrap();
        for src in 0..64 {
            for dst in 0..64 {
                let legs = fb.path(src, dst, 0);
                // injection + ≤2 link legs
                assert!(legs.len() <= 3, "{src}->{dst}: {} legs", legs.len());
            }
        }
    }

    #[test]
    fn three_cycle_router_is_slower() {
        let one = RouterNetwork::mesh64(RouterClass::OneCycle, t300());
        let three = RouterNetwork::mesh64(RouterClass::ThreeCycle, t300());
        assert!(three.average_zero_load_latency() > one.average_zero_load_latency());
    }

    #[test]
    fn mesh_latency_in_cycles_barely_changes_at_77k() {
        // Section 5.1 Guideline #1: short mesh links already take one cycle
        // at 300 K, so cooling does not reduce the cycle count.
        let m300 = RouterNetwork::mesh64(RouterClass::OneCycle, t300());
        let m77 = RouterNetwork::mesh64(RouterClass::OneCycle, t77());
        assert_eq!(
            m300.average_zero_load_latency(),
            m77.average_zero_load_latency()
        );
    }

    #[test]
    fn fb_long_links_speed_up_at_77k() {
        // FB's express links take 1–2 cycles at 300 K and 1 at 77 K.
        let f300 = RouterNetwork::new(
            NocKind::FlattenedButterfly,
            64,
            RouterClass::OneCycle,
            t300(),
        )
        .unwrap();
        let f77 = RouterNetwork::new(
            NocKind::FlattenedButterfly,
            64,
            RouterClass::OneCycle,
            t77(),
        )
        .unwrap();
        assert!(f77.average_zero_load_latency() <= f300.average_zero_load_latency());
    }

    #[test]
    fn rejects_bus_kinds_and_bad_counts() {
        assert!(RouterNetwork::new(NocKind::CryoBus, 64, RouterClass::OneCycle, t300()).is_err());
        assert!(RouterNetwork::new(NocKind::Mesh, 63, RouterClass::OneCycle, t300()).is_err());
    }

    #[test]
    fn concentration_maps_2x2_blocks() {
        let cmesh = RouterNetwork::new(NocKind::CMesh, 64, RouterClass::OneCycle, t300()).unwrap();
        // Cores 0, 1, 8, 9 share router 0 (top-left 2x2 block).
        assert_eq!(cmesh.rule.router_of(0), 0);
        assert_eq!(cmesh.rule.router_of(1), 0);
        assert_eq!(cmesh.rule.router_of(8), 0);
        assert_eq!(cmesh.rule.router_of(9), 0);
        assert_ne!(cmesh.rule.router_of(2), 0);
    }

    #[test]
    fn mesh_detours_around_dead_link() {
        use crate::sim::Network;
        let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, t300());
        // Kill the directed link 0→1 (first XY hop of 0→9). The
        // destination differs in both dimensions so a YX detour exists.
        let dead = vec![mesh.table.link_id(0, 1)];
        let legs = mesh
            .path_avoiding(0, 9, 0, &dead)
            .expect("a detour must exist");
        assert!(
            legs.iter().all(|l| l.resource != Some(dead[0])),
            "detour still uses the dead link"
        );
        // Injection leg plus at least the YX-shaped alternative hops.
        assert!(legs.len() >= 2);
    }

    #[test]
    fn mesh_dead_injection_port_blocks_source() {
        use crate::sim::Network;
        let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, t300());
        let inj_base = 64 * 64;
        assert!(mesh.path_avoiding(5, 9, 0, &[inj_base + 5]).is_none());
        // Other sources are unaffected.
        assert!(mesh.path_avoiding(6, 9, 0, &[inj_base + 5]).is_some());
    }

    #[test]
    fn fb_detours_via_other_dimension_order() {
        use crate::sim::Network;
        let fb = RouterNetwork::new(
            NocKind::FlattenedButterfly,
            64,
            RouterClass::OneCycle,
            t300(),
        )
        .unwrap();
        // Kill the first express channel of the default row-first route.
        let legs = fb.path(0, 30, 0);
        let first_link = legs[1].resource.unwrap();
        let detour = fb
            .path_avoiding(0, 30, 0, &[first_link])
            .expect("column-first detour must exist");
        assert!(detour.iter().all(|l| l.resource != Some(first_link)));
    }

    #[test]
    fn route_is_contiguous_for_mesh() {
        let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, t300());
        let route = mesh.rule.route(0, 63);
        for pair in route.windows(2) {
            assert_eq!(mesh.rule.routers().manhattan_hops(pair[0], pair[1]), 1);
        }
        assert_eq!(route.len(), 15); // 14 hops + source
    }
}
