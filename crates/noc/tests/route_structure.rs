//! Route structure of every router network the workspace builds, checked
//! pair by pair against rules written independently of the routing code:
//! Mesh, CMesh and flattened butterfly at 16, 64 and 256 nodes, both
//! router classes, at 300 K and 77 K (their link cycles differ).
//!
//! For every (src, dst) pair, `Network::path` must start at the source
//! router's injection port and then visit
//!
//! - on the meshes, exactly the routers of `deadlock::xy_route` on the
//!   router grid (the fault-detour router's own XY function);
//! - on the flattened butterfly, at most two express links, each along a
//!   row or a column, the first along the source's row whenever the
//!   destination lies in another column;
//!
//! every link leg must take the router pipeline plus the same cycles per
//! router hop; walking the network's next-hop table must yield exactly
//! `path`'s legs (`path` follows the routing rule without the table, so
//! this checks the table the fault-free replay walks); and
//! `Network::zero_load_latency`, which sums the walk, must equal the sum
//! of `path`'s traversal cycles.

use cryowire_device::Temperature;
use cryowire_noc::{xy_route, Network, NocKind, PacketLeg, RouterClass, RouterNetwork, Topology};

/// Cores per router along each grid axis.
fn span(kind: NocKind) -> usize {
    match kind {
        NocKind::Mesh => 1,
        _ => 2,
    }
}

/// Checks every (src, dst) route of `net`.
fn check(net: &RouterNetwork, kind: NocKind, nodes: usize, class: RouterClass) {
    let name = net.name();
    let cores = Topology::square(nodes).expect("square core grid");
    let span = span(kind);
    let routers = Topology::square(nodes / (span * span)).expect("square router grid");
    let r = routers.nodes();
    assert_eq!(net.resource_count(), r * r + r, "{name}: resource layout");
    let router_of = |core: usize| {
        let (x, y) = cores.coords(core);
        routers.node_at(x / span, y / span)
    };
    let rc = class.cycles();
    let occ = class.occupancy();
    // Link cycles per router hop, taken from the first link leg seen and
    // then required of every other leg.
    let mut per_hop = None;

    for src in 0..nodes {
        for dst in 0..nodes {
            let ctx = format!("{name}: {src} -> {dst}");
            let (src_r, dst_r) = (router_of(src), router_of(dst));
            let legs = net.path(src, dst, 0);
            let mut walked = Vec::new();
            net.next_hop_table()
                .expect("router networks walk a next-hop table")
                .walk(src, dst, |leg| walked.push(leg));
            assert_eq!(walked, legs, "{ctx}: table walk and path differ");
            assert_eq!(
                net.zero_load_latency(src, dst),
                legs.iter().map(|l| l.traversal_cycles).sum::<u64>(),
                "{ctx}: zero-load latency is not path's traversal sum"
            );
            assert_eq!(
                legs[0],
                PacketLeg::on(r * r + src_r, occ, rc),
                "{ctx}: injection leg"
            );
            let mut visited = vec![src_r];
            for leg in &legs[1..] {
                let res = leg.resource.expect("router legs hold a resource");
                assert!(res < r * r, "{ctx}: leg {leg:?} is not a link");
                let (a, b) = (res / r, res % r);
                assert_eq!(
                    a,
                    *visited.last().unwrap(),
                    "{ctx}: legs are not contiguous"
                );
                let hops = routers.manhattan_hops(a, b) as u64;
                let link = *per_hop.get_or_insert((leg.traversal_cycles - rc) / hops) * hops;
                assert_eq!(
                    (leg.occupancy_cycles, leg.traversal_cycles),
                    (occ.max(link), rc + link),
                    "{ctx}: link {a} -> {b} timing"
                );
                visited.push(b);
            }
            assert_eq!(
                *visited.last().unwrap(),
                dst_r,
                "{ctx}: route ends elsewhere"
            );
            if kind == NocKind::FlattenedButterfly {
                assert!(
                    visited.len() <= 3,
                    "{ctx}: {} express links",
                    visited.len() - 1
                );
                for pair in visited.windows(2) {
                    let ((ax, ay), (bx, by)) = (routers.coords(pair[0]), routers.coords(pair[1]));
                    assert!(ax == bx || ay == by, "{ctx}: link leaves row and column");
                }
                let ((sx, sy), (dx, _)) = (routers.coords(src_r), routers.coords(dst_r));
                if sx != dx {
                    assert_eq!(
                        routers.coords(visited[1]).1,
                        sy,
                        "{ctx}: first link leaves the source's row"
                    );
                }
            } else {
                assert_eq!(visited, xy_route(&routers, src_r, dst_r), "{ctx}: not XY");
            }
        }
    }
}

#[test]
fn router_routes_follow_the_dimension_order_rules() {
    for t in [Temperature::ambient(), Temperature::liquid_nitrogen()] {
        for kind in [NocKind::Mesh, NocKind::CMesh, NocKind::FlattenedButterfly] {
            for nodes in [16, 64, 256] {
                for class in [RouterClass::OneCycle, RouterClass::ThreeCycle] {
                    let net = RouterNetwork::new(kind, nodes, class, t).expect("valid network");
                    check(&net, kind, nodes, class);
                }
            }
        }
    }
}
