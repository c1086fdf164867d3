//! Generators shared by the replay suite (`equivalence.rs`) and the
//! per-cycle oracle (`oracle.rs`): random traffic, the three geometry
//! classes and one fault plan that reaches both fabrics.

use cryowire_coherence::{AccessTrace, CacheGeometry, CoherenceConfig, Protocol};
use cryowire_faults::{FaultEvent, FaultKind, FaultPlan, FaultSchedule};

/// Line size of every generated trace and geometry, bytes.
pub const LINE: u32 = 64;

/// Random interleaved traffic folded onto `cores` cores over 24 lines.
pub fn mk_trace(raw: &[(u8, u8, bool)], cores: usize) -> AccessTrace {
    let events: Vec<(usize, u64, bool)> = raw
        .iter()
        .map(|&(c, l, w)| (c as usize % cores, u64::from(l % 24) * u64::from(LINE), w))
        .collect();
    AccessTrace::interleaved(&events, cores, LINE, 24 * u64::from(LINE)).expect("valid trace")
}

/// A run that records its commit log.
pub fn config(protocol: Protocol, geometry: CacheGeometry) -> CoherenceConfig {
    CoherenceConfig {
        protocol,
        geometry,
        record_commits: true,
        ..CoherenceConfig::default()
    }
}

/// Caches large enough that no line is ever evicted.
pub fn no_evict() -> CacheGeometry {
    CacheGeometry::no_evict(64, LINE)
}

/// The geometry classes: infinite (no eviction), a thrashing 8-line
/// 2-way cache, and a small 4 KB 2-way cache.
pub fn geometries() -> [CacheGeometry; 3] {
    let finite = |size_bytes| CacheGeometry {
        size_bytes,
        assoc: 2,
        line_bytes: LINE,
    };
    [no_evict(), finite(8 * u64::from(LINE)), finite(4096)]
}

/// Mesh resource of router `node`'s injection port, after the 64 × 64
/// directed router-pair links.
pub fn injection_port(node: usize) -> usize {
    64 * 64 + node
}

/// A fault plan touching both fabrics: a dead H-tree segment (the
/// CryoBus re-forms), a transient stall of bus way 0, and a transient
/// dead resource `index * 7 + 3`. On the mesh that names a link between
/// two routers that are not neighbours, which no route crosses, so two
/// more events reach the directory: a transient stall of the home of
/// line `index * 7 + 3`, and a transient sever of core `index`'s
/// injection port, whose requests then wait for the route to heal.
pub fn mk_schedule(level: usize, index: usize, stall: u64, start: u64) -> FaultSchedule {
    let stalled = |resource| FaultKind::RouterStall {
        resource,
        extra_cycles: stall,
    };
    let dead = |resource| FaultKind::LinkDead { resource };
    FaultPlan::new(start ^ stall)
        .htree_segment_dead(level, index)
        .event(FaultEvent::transient(start, 1_500, stalled(0)))
        .event(FaultEvent::transient(start / 2, 2_000, dead(index * 7 + 3)))
        .event(FaultEvent::transient(
            start,
            1_500,
            stalled(injection_port(index * 7 + 3)),
        ))
        .event(FaultEvent::transient(
            start / 2,
            300,
            dead(injection_port(index)),
        ))
        .schedule(1_000_000)
}
