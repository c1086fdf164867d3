//! Counting-allocator proof that both coherence hot loops allocate
//! nothing in steady state: after one warm-up run populates the scratch
//! (caches, arenas, arbiters, completion heap), further runs of the
//! snooping engine AND the directory engine over the same shapes — and
//! a whole batched lane sweep — must perform **zero** heap allocations.
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

    let snoop = CoherenceSystem::snooping(
        SystemFabric::CryoBus(CryoBus::new(64, t77)),
        MemoryDesign::mem_77k(),
        config(Protocol::Mesi),
    )
    .expect("snooping system builds");
    let dragon = CoherenceSystem::snooping(
        SystemFabric::CryoBus(CryoBus::new(64, t77)),
        MemoryDesign::mem_77k(),
        config(Protocol::Dragon),
    )
    .expect("dragon system builds");
    // Directory construction builds the nodes^2 routed-path table once,
    // here, outside the measured window — runs below share it.
    let dir = CoherenceSystem::directory(
        RouterNetwork::mesh64(RouterClass::OneCycle, t77),
        5.44,
        MemoryDesign::mem_77k(),
        config(Protocol::Mesi),
    )
    .expect("directory system builds");

    let mut scratch = CoherenceScratch::new();

    // Warm-up: sizes the caches, arenas, arbiter matrices, and the
    // completion heap for every engine shape the window exercises.
    let warm_snoop = snoop.run_with(&trace, None, &mut scratch).expect("runs");
    let warm_dragon = dragon.run_with(&trace, None, &mut scratch).expect("runs");
    let warm_dir = dir.run_with(&trace, None, &mut scratch).expect("runs");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let steady_snoop = snoop.run_with(&trace, None, &mut scratch);
    let steady_dragon = dragon.run_with(&trace, None, &mut scratch);
    let steady_dir = dir.run_with(&trace, None, &mut scratch);
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
    // another through one scratch. Same-geometry lanes reset the caches in place (a
    // geometry change rebuilds them — that allocation is per-shape, not
    // steady-state), so after the warm batch a steady batch's only
    // allocation is the returned lane vector itself.
    let lanes = [
        config(Protocol::Mesi),
        config(Protocol::Dragon),
        config(Protocol::Mesi),
    ];
    let warm_lanes = snoop.run_batch_with(&trace, &lanes, None, &mut scratch);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let steady_lanes = snoop.run_batch_with(&trace, &lanes, None, &mut scratch);
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        warm_lanes, steady_lanes,
        "batch scratch reuse changed a lane"
    );
    assert_eq!(
        steady_lanes[0].as_ref(),
        Ok(&warm_snoop),
        "lane 0 matches scalar"
    );
    assert!(
        after - before <= 1,
        "a steady batch may allocate only its output vector, counted {}",
        after - before
    );
}
