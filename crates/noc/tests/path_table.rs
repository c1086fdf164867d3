//! Property test: the memoized [`PathTable`] returns byte-identical
//! legs to direct `Network::path`/`path_avoiding` calls for random
//! `(src, dst, tag, dead-set)` samples on every network family — the
//! conventional and H-tree shared buses (1- and 4-way), the 1- and 2-way
//! CryoBus, the 1- and 2-way 256-node hybrid CryoBus, and the mesh,
//! CMesh and flattened butterfly — i.e. the
//! [`Network::route_classes`] contract holds for every concrete network.
//! So does the [`Network::route_group`] contract: two cores of one group
//! route alike, as sources and as destinations, with and without dead
//! resources, and the table holds one route per (group, group, class).

use cryowire_device::Temperature;
use cryowire_noc::{
    BusKind, CryoBus, HybridCryoBus, Network, NocKind, PathTable, RouterClass, RouterNetwork,
    SharedBus, TrafficPattern,
};
use proptest::prelude::*;

fn networks() -> Vec<Box<dyn Network>> {
    let t77 = Temperature::liquid_nitrogen();
    let router = |kind| {
        Box::new(RouterNetwork::new(kind, 64, RouterClass::OneCycle, t77).expect("valid network"))
    };
    vec![
        router(NocKind::Mesh),
        router(NocKind::CMesh),
        router(NocKind::FlattenedButterfly),
        Box::new(SharedBus::new(64, t77)),
        Box::new(SharedBus::with_kind(BusKind::HTree, 64, t77, 1).expect("valid bus")),
        Box::new(SharedBus::with_kind(BusKind::Conventional, 64, t77, 4).expect("valid bus")),
        Box::new(CryoBus::new(64, t77)),
        Box::new(CryoBus::two_way(64, t77)),
        Box::new(HybridCryoBus::c256(t77, 1)),
        Box::new(HybridCryoBus::c256(t77, 2)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn path_table_matches_direct_routing(
        src in 0usize..256,
        dst in 0usize..256,
        tag in any::<u64>(),
        dead in proptest::collection::vec(0usize..24, 0..3),
    ) {
        for net in networks() {
            // Cores wrap onto the 64-node networks.
            let n = net.topology().nodes();
            let (src, dst) = (src % n, dst % n);
            if src == dst {
                continue;
            }
            let mut table = PathTable::new();
            table.rebuild(net.as_ref(), &dead);
            let direct = if dead.is_empty() {
                Some(net.path(src, dst, tag))
            } else {
                net.path_avoiding(src, dst, tag, &dead)
            };
            match (table.lookup(src, dst, tag), direct) {
                (Some((legs, zero)), Some(d)) => {
                    prop_assert_eq!(
                        legs, d.as_slice(),
                        "{}: legs diverge for ({src}, {dst}, {tag:#x}, {dead:?})",
                        net.name()
                    );
                    prop_assert_eq!(
                        zero,
                        d.iter().map(|l| l.traversal_cycles).sum::<u64>(),
                        "{}: zero-load sum diverges", net.name()
                    );
                }
                (None, None) => {}
                (cached, direct) => prop_assert!(
                    false,
                    "{}: routability diverges for ({src}, {dst}, {tag:#x}, {dead:?}): \
                     cached={:?} direct={:?}",
                    net.name(), cached.map(|(l, _)| l.to_vec()), direct
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cores_of_one_route_group_route_alike(
        core in 0usize..256,
        peer in 0usize..256,
        other in 0usize..256,
        tag in any::<u64>(),
        leg in any::<usize>(),
        extra in 0usize..24,
    ) {
        for net in networks() {
            let n = net.topology().nodes();
            let (core, other) = (core % n, other % n);
            let group = net.route_group(core);
            prop_assert!(group < net.route_groups(), "{}: group out of range", net.name());
            // Another member of `core`'s group (itself on the mesh).
            let members: Vec<usize> = (0..n).filter(|&c| net.route_group(c) == group).collect();
            let peer = members[peer % members.len()];
            let ctx = format!("{}: {core} ~ {peer}, other {other}, tag {tag:#x}", net.name());
            // Kill a resource `core`'s own route uses (an injection port
            // or a link on router networks, a way or a mesh link on the
            // hybrid), so detours and blocked routes are compared too.
            let route = net.path(core, other, tag);
            let used: Vec<usize> = route.iter().filter_map(|l| l.resource).collect();
            let hit = used[leg % used.len()];
            for dead in [vec![], vec![hit], vec![hit, extra]] {
                let dead = &dead[..];
                let (a, b) = if dead.is_empty() {
                    (
                        [Some(net.path(core, other, tag)), Some(net.path(other, core, tag))],
                        [Some(net.path(peer, other, tag)), Some(net.path(other, peer, tag))],
                    )
                } else {
                    (
                        [
                            net.path_avoiding(core, other, tag, dead),
                            net.path_avoiding(other, core, tag, dead),
                        ],
                        [
                            net.path_avoiding(peer, other, tag, dead),
                            net.path_avoiding(other, peer, tag, dead),
                        ],
                    )
                };
                prop_assert_eq!(a, b, "{}, dead {:?}", ctx, dead);
            }
        }
    }
}

#[test]
fn route_groups_size_the_tables() {
    // route_groups² × route_classes entries: one route per way on a
    // 64-node bus, 4 clusters² × 2 ways on the 2-way hybrid (a table
    // keyed by core pair held 256² × 2 = 131 072), one per router pair on
    // the concentrated mesh.
    let t77 = Temperature::liquid_nitrogen();
    let mut table = PathTable::new();
    for ways in [1, 2, 4] {
        let bus = SharedBus::with_kind(BusKind::HTree, 64, t77, ways).expect("valid bus");
        table.rebuild(&bus, &[]);
        assert_eq!(table.len(), ways, "{}", bus.name());
        let cryobus = CryoBus::try_new(64, t77, ways).expect("valid CryoBus");
        table.rebuild(&cryobus, &[]);
        assert_eq!(table.len(), ways, "{}", cryobus.name());
    }
    table.rebuild(&HybridCryoBus::c256(t77, 2), &[]);
    assert_eq!(table.len(), 32);
    table.rebuild(&HybridCryoBus::c256(t77, 1), &[]);
    assert_eq!(table.len(), 16);
    let cmesh =
        RouterNetwork::new(NocKind::CMesh, 64, RouterClass::OneCycle, t77).expect("valid network");
    table.rebuild(&cmesh, &[1]);
    assert_eq!(table.len(), 16 * 16);
}

#[test]
fn route_classes_cover_every_tag_path() {
    // Exhaustive check on the interleaved bus: for every tag in a window
    // wider than the class count, the memoized route equals the direct
    // one (classes wrap exactly as `tag % classes`).
    let t77 = Temperature::liquid_nitrogen();
    let bus = CryoBus::two_way(64, t77);
    let mut table = PathTable::new();
    table.rebuild(&bus, &[]);
    assert_eq!(table.classes(), 2);
    for tag in 0u64..8 {
        let (legs, _) = table.lookup(3, 40, tag).expect("routable");
        assert_eq!(legs, bus.path(3, 40, tag).as_slice(), "tag {tag}");
    }
    // And under a dead way the class count collapses to the survivors.
    table.rebuild(&bus, &[0]);
    assert_eq!(table.classes(), 1);
    for tag in 0u64..4 {
        let (legs, _) = table.lookup(3, 40, tag).expect("routable");
        assert_eq!(
            legs,
            bus.path_avoiding(3, 40, tag, &[0])
                .expect("way 1 survives")
                .as_slice(),
            "tag {tag} under dead way 0"
        );
    }
    // Patterns never self-send, so the diagonal is never consulted; the
    // engine's public behaviour is covered by the equivalence suite.
    let _ = TrafficPattern::UniformRandom;
}
