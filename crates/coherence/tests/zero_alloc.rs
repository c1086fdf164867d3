//! Counting-allocator proof that the coherence run loop allocates
//! nothing in steady state: after one warm-up run populates the scratch
//! (caches, arenas, arbiters, completion heap), further runs over the
//! snooping bus AND the directory mesh with the same shapes — a whole
//! lane batch, one run after another over one system, and the
//! coherence grid's four-geometry batches — must perform **zero** heap
//! allocations.
//! Tests build in debug, so this also proves the per-grant incremental
//! invariant `debug_assert!`s are allocation-free (the old exhaustive
//! checker rebuilt a hash map per access and could never pass here).
//! Kept in its own integration-test binary (one test function, so no
//! concurrent test can perturb the global counter).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cryowire_coherence::{
    CacheGeometry, CoherenceConfig, CoherenceScratch, CoherenceSystem, Protocol, SharingPattern,
    SystemFabric, TraceGenConfig,
};
use cryowire_device::Temperature;
use cryowire_memory::MemoryDesign;
use cryowire_noc::{CryoBus, RouterClass, RouterNetwork};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Passes everything through to the system allocator, counting every
/// allocation (and growth reallocation).
struct CountingAllocator;

// SAFETY: defers entirely to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn config(protocol: Protocol) -> CoherenceConfig {
    CoherenceConfig {
        protocol,
        geometry: CacheGeometry::no_evict(2048, 64),
        // Commit recording intentionally off: the log is a growing
        // output vector, not hot-loop state.
        record_commits: false,
        ..CoherenceConfig::default()
    }
}

#[test]
fn steady_state_hot_loops_allocate_nothing() {
    let t77 = Temperature::liquid_nitrogen();
    let trace = TraceGenConfig {
        accesses_per_core: 400,
        ..TraceGenConfig::new(SharingPattern::BarrierHeavy, 8)
    }
    .generate()
    .expect("trace generates");

    // One bus system serves the MESI and the Dragon runs: the protocol
    // is a property of each run's config.
    let bus = CoherenceSystem::snooping(
        SystemFabric::CryoBus(CryoBus::new(64, t77)),
        MemoryDesign::mem_77k(),
    )
    .expect("snooping system builds");
    // Directory construction builds the nodes^2 routed-path table once,
    // here, outside the measured window — runs below share it.
    let dir = CoherenceSystem::directory(
        RouterNetwork::mesh64(RouterClass::OneCycle, t77),
        5.44,
        MemoryDesign::mem_77k(),
    )
    .expect("directory system builds");
    let (mesi, dragon) = (config(Protocol::Mesi), config(Protocol::Dragon));

    let mut scratch = CoherenceScratch::new();

    // Warm-up: sizes the caches, arenas, arbiter matrices, and the
    // completion heap for every engine shape the window exercises.
    let warm_snoop = bus.run(&trace, &mesi, None, &mut scratch).expect("runs");
    let warm_dragon = bus.run(&trace, &dragon, None, &mut scratch).expect("runs");
    let warm_dir = dir.run(&trace, &mesi, None, &mut scratch).expect("runs");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let steady_snoop = bus.run(&trace, &mesi, None, &mut scratch);
    let steady_dragon = bus.run(&trace, &dragon, None, &mut scratch);
    let steady_dir = dir.run(&trace, &mesi, None, &mut scratch);
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    // Comparing after closing the window keeps the count honest;
    // `assert_eq!` only allocates on failure, where the count is moot.
    assert_eq!(
        after - before,
        0,
        "steady-state snoop/dragon/directory runs must not allocate"
    );
    assert_eq!(
        Ok(&warm_snoop),
        steady_snoop.as_ref(),
        "snoop scratch reuse changed a result"
    );
    assert_eq!(
        Ok(warm_dragon),
        steady_dragon,
        "dragon scratch reuse changed a result"
    );
    assert_eq!(
        Ok(warm_dir),
        steady_dir,
        "directory scratch reuse changed a result"
    );

    // Batched lanes: one trace replayed under N configs, one lane after
    // another through one system and one scratch, into a fixed-size
    // array. Same-geometry lanes reset the caches in place (a geometry
    // change rebuilds them — that allocation is per-shape, not
    // steady-state), so after the warm batch a steady batch allocates
    // nothing.
    let lanes = [mesi, dragon, mesi];
    let warm_lanes = lanes.map(|cfg| bus.run(&trace, &cfg, None, &mut scratch));

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let steady_lanes = lanes.map(|cfg| bus.run(&trace, &cfg, None, &mut scratch));
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(after - before, 0, "a steady lane batch must not allocate");
    assert_eq!(
        warm_lanes, steady_lanes,
        "batch scratch reuse changed a lane"
    );
    assert_eq!(
        steady_lanes[0].as_ref(),
        Ok(&warm_snoop),
        "lane 0 matches scalar"
    );

    // The lane shape the coherence grid runs: its four geometries, one
    // batch per engine, cycled through the scratch's cache-set pool.
    // After one warm batch per engine has parked a set of each
    // geometry, the measured batches revive them and allocate nothing.
    let finite = |size_bytes, assoc| CacheGeometry {
        size_bytes,
        assoc,
        line_bytes: 64,
    };
    let grid = [
        CacheGeometry::no_evict(2048, 64),
        finite(16 * 1024, 4),
        finite(8 * 1024, 2),
        finite(4 * 1024, 2),
    ];
    let engines = [
        (&bus, Protocol::Mesi),
        (&bus, Protocol::Dragon),
        (&dir, Protocol::Mesi),
    ];
    let batch = |scratch: &mut CoherenceScratch| {
        engines.map(|(system, protocol)| {
            grid.map(|geometry| {
                let cfg = CoherenceConfig {
                    geometry,
                    ..config(protocol)
                };
                system.run(&trace, &cfg, None, scratch)
            })
        })
    };
    let warm_grid = batch(&mut scratch);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let steady_grid = batch(&mut scratch);
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady four-geometry batches on the bus and the directory must not allocate"
    );
    assert_eq!(
        warm_grid, steady_grid,
        "the cache-set pool changed a grid lane"
    );
}
