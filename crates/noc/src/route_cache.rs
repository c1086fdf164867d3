//! Memoized routing: the flat route table behind the simulator hot loop.
//!
//! The table serves every network without a
//! [`NextHopTable`](crate::router::NextHopTable) — the buses, CryoBus
//! and the hybrid — on every run, and every network
//! under faults (one table per dead-set epoch, the empty one included),
//! because detours are not suffix-closed. A router network's fault-free
//! runs walk its next-hop table instead and build no table here.
//!
//! Deterministic networks route a packet as a pure function of
//! `(route group of src, route group of dst, route class, dead set)`:
//! the route class is `tag % Network::route_classes(dead)` (the tag only
//! ever selects an interleave way) and a core's route group is
//! [`Network::route_group`] (a bus routes every core alike, the hybrid
//! by cluster, a router network by router). [`PathTable`] exploits that:
//! it asks the network for every `(group, group, class)` route **once**,
//! through the first core of each group, and stores the legs in one flat
//! arena (a contiguous `Vec<PacketLeg>` plus an entry table), so the
//! per-packet cost in the simulator drops from a heap-allocating
//! [`Network::path`] call to two group loads, an index computation and a
//! slice borrow. Each entry also carries its precomputed zero-load
//! latency, so a lookup touches one 16-byte entry plus its legs.
//!
//! The table holds `route_groups² × route_classes` entries: `ways` on a
//! 64-node bus, 32 on the 2-way 256-node hybrid (4 clusters), where a
//! table keyed by core pair held 131 072. A core pair of one group is
//! answered with its group's own route — `lookup(src, src)` returns the
//! route between two cores of `src`'s group (for a group of one core,
//! [`Network::path`]`(src, src)`), not an empty window; no traffic
//! pattern sends a packet to its own source, so the engines never ask.
//!
//! Rebuilding on a fault epoch (a new dead-resource set) reuses the
//! arena's allocations; steady-state lookups never allocate.

use crate::sim::{Network, PacketLeg};

/// Entry-table entry: a half-open window into the leg arena plus the
/// window's precomputed zero-load latency (sum of traversal cycles).
///
/// `len == Entry::UNROUTABLE` marks an entry for which the network knows
/// no route around the dead set ([`Network::path_avoiding`] returned
/// `None`), and the entries of groups no core belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    start: u32,
    len: u32,
    zero: u64,
}

impl Entry {
    const UNROUTABLE: u32 = u32::MAX;
}

/// A memoized route table for one `(network, dead-set)` pair.
///
/// Built eagerly over all `(source group, destination group,
/// route_class)` triples; lookups are allocation-free. The table relies
/// on the [`Network::route_groups`] and [`Network::route_classes`]
/// contracts — routing sees a core only through its route group, and
/// `tag` only through `tag % route_classes(dead)`, with class `c`
/// reproduced by the representative tag `c` — which the property tests
/// in this crate verify for every concrete network.
#[derive(Debug, Clone, Default)]
pub struct PathTable {
    groups: usize,
    classes: usize,
    /// Route group of each core.
    group_of: Vec<u32>,
    entries: Vec<Entry>,
    legs: Vec<PacketLeg>,
}

impl PathTable {
    /// An empty table; [`PathTable::rebuild`] populates it.
    #[must_use]
    pub fn new() -> Self {
        PathTable::default()
    }

    /// Number of route classes the table was built with.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of memoized routes: route groups² × route classes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True before the first [`PathTable::rebuild`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// (Re)builds the table for `network` under the `dead` resource set,
    /// reusing the arena's existing allocations.
    ///
    /// # Panics
    ///
    /// Panics if the network puts a core in a group outside
    /// `0..route_groups()`.
    pub fn rebuild(&mut self, network: &dyn Network, dead: &[usize]) {
        let groups = network.route_groups();
        self.groups = groups;
        self.classes = network.route_classes(dead).max(1);
        self.group_of.clear();
        self.group_of
            .extend((0..network.topology().nodes()).map(|core| {
                let group = network.route_group(core);
                assert!(
                    group < groups,
                    "core {core} in route group {group} of {groups}"
                );
                u32::try_from(group).expect("route group exceeds u32")
            }));
        // The first core of each group routes for all of them.
        let mut first_core = vec![None; groups];
        for (core, &group) in self.group_of.iter().enumerate().rev() {
            first_core[group as usize] = Some(core);
        }
        self.entries.clear();
        self.legs.clear();
        self.entries.reserve(groups * groups * self.classes);
        for &src in &first_core {
            for &dst in &first_core {
                for class in 0..self.classes {
                    let tag = class as u64;
                    let route = match (src, dst) {
                        (Some(src), Some(dst)) if dead.is_empty() => {
                            Some(network.path(src, dst, tag))
                        }
                        (Some(src), Some(dst)) => network.path_avoiding(src, dst, tag, dead),
                        _ => None,
                    };
                    let entry = match route {
                        Some(route) => self.append(&route),
                        None => Entry {
                            start: 0,
                            len: Entry::UNROUTABLE,
                            zero: 0,
                        },
                    };
                    self.entries.push(entry);
                }
            }
        }
    }

    /// Appends `route` to the arena as a new window.
    fn append(&mut self, route: &[PacketLeg]) -> Entry {
        let start = u32::try_from(self.legs.len()).expect("route arena exceeds u32 offsets");
        let len = u32::try_from(route.len()).expect("route exceeds u32 legs");
        assert!(len != Entry::UNROUTABLE, "route length sentinel collision");
        self.legs.extend_from_slice(route);
        Entry {
            start,
            len,
            zero: route.iter().map(|l| l.traversal_cycles).sum(),
        }
    }

    /// The memoized legs and precomputed zero-load latency for a packet
    /// from `src` to `dst` carrying `tag`, or `None` when no route
    /// avoids the dead set the table was built for.
    #[inline]
    #[must_use]
    pub fn lookup(&self, src: usize, dst: usize, tag: u64) -> Option<(&[PacketLeg], u64)> {
        // Single-class networks (every deterministic router network)
        // skip the per-packet integer division entirely.
        let class = if self.classes == 1 {
            0
        } else {
            (tag % self.classes as u64) as usize
        };
        let (src, dst) = (self.group_of[src] as usize, self.group_of[dst] as usize);
        let entry = self.entries[(src * self.groups + dst) * self.classes + class];
        if entry.len == Entry::UNROUTABLE {
            return None;
        }
        let start = entry.start as usize;
        Some((&self.legs[start..start + entry.len as usize], entry.zero))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::SharedBus;
    use cryowire_device::Temperature;

    #[test]
    fn table_matches_direct_calls_on_a_bus() {
        let bus = SharedBus::new(64, Temperature::liquid_nitrogen());
        let mut table = PathTable::new();
        table.rebuild(&bus, &[]);
        for (src, dst, tag) in [(0usize, 1usize, 0u64), (3, 60, 7), (10, 2, u64::MAX)] {
            let (legs, zero) = table.lookup(src, dst, tag).expect("routable");
            let direct = bus.path(src, dst, tag);
            assert_eq!(legs, direct.as_slice());
            assert_eq!(zero, direct.iter().map(|l| l.traversal_cycles).sum::<u64>());
        }
    }

    #[test]
    fn dead_way_marks_unroutable_or_remaps() {
        let bus = SharedBus::new(64, Temperature::liquid_nitrogen());
        // The single-way bus has no alternative: killing resource 0 makes
        // every entry unroutable.
        let mut table = PathTable::new();
        table.rebuild(&bus, &[0]);
        assert!(table.lookup(0, 1, 0).is_none());
    }

    #[test]
    fn rebuild_reuses_allocations() {
        let bus = SharedBus::new(64, Temperature::liquid_nitrogen());
        let mut table = PathTable::new();
        table.rebuild(&bus, &[]);
        let cap = (table.entries.capacity(), table.legs.capacity());
        table.rebuild(&bus, &[]);
        assert_eq!(
            cap,
            (table.entries.capacity(), table.legs.capacity()),
            "rebuild must not reallocate the arena"
        );
    }
}
