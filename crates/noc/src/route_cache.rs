//! Memoized routing: the flat route arena behind the simulator hot loop.
//!
//! The arena serves every network without a
//! [`NextHopTable`](crate::router::NextHopTable) — the buses, CryoBus,
//! the segmented bus and the hybrid, whose routes are short and intern
//! to a few windows — on every run, and every network under faults (one
//! table per dead-set epoch, the empty one included), because detours
//! are not suffix-closed. A router network's fault-free runs walk its
//! next-hop table instead and build no table here: on the 256-node mesh,
//! where no two routes are equal, the arena held about 24 MB of legs.
//!
//! Deterministic networks route a packet as a pure function of
//! `(src, dst, route_class, dead-set)`, where the route class is
//! `tag % Network::route_classes(dead)` (the tag only ever selects an
//! interleave way). [`PathTable`] exploits that: it asks the network for
//! every `(src, dst, class)` route **once** and stores the legs in one
//! flat arena (a contiguous `Vec<PacketLeg>` plus an offset table), so
//! the per-packet cost in the simulator drops from a heap-allocating
//! [`Network::path`] call to an index computation and a slice borrow.
//!
//! Identical leg sequences are interned into one arena window during
//! the build: on bus-style networks every `(src, dst)` pair shares the
//! same handful of per-way routes, so the arena collapses to a few legs
//! (the single-way bus to one path) and the hot loop stays
//! cache-resident instead of striding through `nodes² · classes`
//! duplicated paths. Interning keys each window by a 64-bit fingerprint
//! of its legs and confirms a fingerprint match against the window
//! already in the arena, so the build neither SipHashes a route nor
//! stores a second copy of it — on a mesh, where no two routes are
//! equal, that copy used to double the build's memory. A fingerprint collision
//! between different routes just stores its own window, so every lookup
//! is the same as without interning. Each offset-table entry also
//! carries its precomputed zero-load latency, so a lookup touches one
//! 16-byte entry plus the (shared) legs.
//!
//! Rebuilding on a fault epoch (a new dead-resource set) reuses the
//! arena's allocations; steady-state lookups never allocate.

use std::collections::hash_map::{self, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::sim::{Network, PacketLeg};

/// Offset-table entry: a half-open window into the leg arena plus the
/// window's precomputed zero-load latency (sum of traversal cycles).
///
/// `len == Entry::UNROUTABLE` marks an entry for which the network knows
/// no route around the dead set ([`Network::path_avoiding`] returned
/// `None`).
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
/// Built eagerly over all `(src, dst, route_class)` triples; lookups are
/// allocation-free. The table relies on the [`Network::route_classes`]
/// contract — routing depends on `tag` only through
/// `tag % route_classes(dead)`, with class `c` reproduced by the
/// representative tag `c` — which the property tests in this crate
/// verify for every concrete network.
#[derive(Debug, Clone, Default)]
pub struct PathTable {
    nodes: usize,
    classes: usize,
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

    /// (Re)builds the table for `network` under the `dead` resource set,
    /// reusing the arena's existing allocations.
    pub fn rebuild(&mut self, network: &dyn Network, dead: &[usize]) {
        let n = network.topology().nodes();
        self.nodes = n;
        self.classes = network.route_classes(dead).max(1);
        self.entries.clear();
        self.legs.clear();
        self.entries.reserve(n * n * self.classes);
        // Fingerprint → first arena window with that fingerprint. Only
        // lives for the duration of the (cold) build.
        let mut windows = Windows::default();
        for src in 0..n {
            for dst in 0..n {
                for class in 0..self.classes {
                    if src == dst {
                        // Traffic patterns never emit self-sends; keep the
                        // diagonal as an empty (routable) window so the
                        // indexing stays dense.
                        self.entries.push(Entry {
                            start: 0,
                            len: 0,
                            zero: 0,
                        });
                        continue;
                    }
                    let tag = class as u64;
                    let route = if dead.is_empty() {
                        Some(network.path(src, dst, tag))
                    } else {
                        network.path_avoiding(src, dst, tag, dead)
                    };
                    let entry = match route {
                        Some(route) => {
                            let (start, len) = intern(&mut self.legs, &mut windows, &route);
                            let zero = route.iter().map(|l| l.traversal_cycles).sum();
                            Entry { start, len, zero }
                        }
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
        let i = (src * self.nodes + dst) * self.classes + class;
        let entry = self.entries[i];
        if entry.len == Entry::UNROUTABLE {
            return None;
        }
        let start = entry.start as usize;
        Some((&self.legs[start..start + entry.len as usize], entry.zero))
    }
}

/// Interning map of a build: route fingerprint → the first arena window
/// (`start`, `len`) stored under it.
type Windows = HashMap<u64, (u32, u32), BuildHasherDefault<FingerprintHasher>>;

/// The arena window holding `route`: the window already stored under
/// its fingerprint if that window holds the same legs, otherwise a new
/// window appended to `legs`. On a fingerprint collision the map keeps
/// the first window and the colliding route gets its own, unshared one.
fn intern(legs: &mut Vec<PacketLeg>, windows: &mut Windows, route: &[PacketLeg]) -> (u32, u32) {
    match windows.entry(fingerprint(route)) {
        hash_map::Entry::Occupied(slot) => {
            let (start, len) = *slot.get();
            let first = start as usize;
            if legs[first..first + len as usize] == *route {
                (start, len)
            } else {
                append(legs, route)
            }
        }
        hash_map::Entry::Vacant(slot) => *slot.insert(append(legs, route)),
    }
}

/// Appends `route` to the arena as a new window.
fn append(legs: &mut Vec<PacketLeg>, route: &[PacketLeg]) -> (u32, u32) {
    let start = u32::try_from(legs.len()).expect("route arena exceeds u32 offsets");
    let len = u32::try_from(route.len()).expect("route exceeds u32 legs");
    assert!(len != Entry::UNROUTABLE, "route length sentinel collision");
    legs.extend_from_slice(route);
    (start, len)
}

/// A 64-bit fingerprint of a leg sequence: a multiply–rotate fold over
/// every leg field, finished with the splitmix64 mixer so the low bits
/// the hash table indexes by depend on every leg.
fn fingerprint(route: &[PacketLeg]) -> u64 {
    let mut h = route.len() as u64;
    for leg in route {
        let resource = leg.resource.map_or(u64::MAX, |r| r as u64);
        for word in [resource, leg.occupancy_cycles, leg.traversal_cycles] {
            h = (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Hasher for keys that already are fingerprints: passes the `u64`
/// through instead of hashing it again.
#[derive(Debug, Default)]
struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, fingerprint: u64) {
        self.0 = fingerprint;
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
    fn identical_routes_are_hash_consed() {
        // Every (src, dst) pair of the single-way bus takes the same
        // route, so the whole 64-node arena holds exactly one path.
        let bus = SharedBus::new(64, Temperature::liquid_nitrogen());
        let mut table = PathTable::new();
        table.rebuild(&bus, &[]);
        let one_path = bus.path(0, 1, 0).len();
        assert_eq!(table.legs.len(), one_path, "bus arena should dedupe");
        assert_eq!(table.entries.len(), 64 * 64);
    }

    #[test]
    fn fingerprint_collision_stores_its_own_window() {
        let a = [PacketLeg::on(0, 1, 2), PacketLeg::latency(3)];
        let b = [PacketLeg::on(1, 1, 2), PacketLeg::latency(3)];
        let mut legs = Vec::new();
        let mut windows = Windows::default();
        let wa = intern(&mut legs, &mut windows, &a);
        // Make `b` collide with `a`: file a's window under b's fingerprint.
        windows.insert(fingerprint(&b), wa);
        let wb = intern(&mut legs, &mut windows, &b);
        assert_ne!(wa, wb, "a colliding route must not share the window");
        assert_eq!(legs[wb.0 as usize..][..wb.1 as usize], b);
        assert_eq!(intern(&mut legs, &mut windows, &a), wa);
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
