//! Counting-allocator proof that the core simulator's steady-state hot
//! loop allocates nothing: after one warm-up run decodes the trace (the
//! decoded form belongs to the trace, not the scratch) and sizes the
//! scratch's rings, further runs — including a different configuration
//! over the same trace, a full CPI stack, and a batched lockstep run
//! over a whole configuration grid — must perform **zero** heap
//! allocations, and a fresh scratch on the decoded trace, for a scalar
//! run or a batch, allocates only its window-bounded rings, nothing the
//! size of the trace. Kept in its own integration-test binary (one test function,
//! so no concurrent test can perturb the global counters) so the
//! allocator hook does not interfere with other suites.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use cryowire_ooo::{run_batch_into, CoreConfig, CoreScratch, CoreSimulator, TraceConfig};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested by every allocation and growth reallocation.
static BYTES: AtomicUsize = AtomicUsize::new(0);
/// The largest single request, in bytes.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// Passes everything through to the system allocator, counting every
/// allocation (and growth reallocation) and its size.
struct CountingAllocator;

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes, Ordering::Relaxed);
    LARGEST.fetch_max(bytes, Ordering::Relaxed);
}

// SAFETY: defers entirely to `System`; the counters have no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_hot_loop_allocates_nothing() {
    let trace = TraceConfig::parsec_like().generate(40_000, 7);
    let skylake = CoreSimulator::new(CoreConfig::skylake_8_wide());
    let cryosp = CoreSimulator::new(CoreConfig::cryosp());
    let mut scratch = CoreScratch::new();

    // Warm-up: decodes the trace (once, into the trace) and sizes the
    // rings for the largest window.
    let warm = skylake.run_with_scratch(&trace, &mut scratch);
    let _ = cryosp.run_with_scratch(&trace, &mut scratch);
    let _ = skylake.cpi_stack_with_scratch(&trace, &mut scratch);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let steady = skylake.run_with_scratch(&trace, &mut scratch);
    let again = cryosp.run_with_scratch(&trace, &mut scratch);
    let stack = skylake.cpi_stack_with_scratch(&trace, &mut scratch);
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(warm, steady, "scratch reuse must not change results");
    assert_eq!(again, cryosp.run_with_scratch(&trace, &mut scratch));
    assert_eq!(stack.iter().sum::<u64>(), steady.cycles);
    assert_eq!(
        after - before,
        0,
        "steady-state run_with_scratch / cpi_stack must not allocate"
    );

    // Batched lockstep engine: after one warm batch sizes the lane
    // slabs, a steady-state `run_batch_into` over the same grid — and a
    // narrower sub-grid reusing the larger slabs — allocates nothing.
    let configs = [
        CoreConfig::skylake_8_wide(),
        CoreConfig::cryosp(),
        CoreConfig::cryocore_4_wide(),
    ];
    let mut batch_scratch = CoreScratch::new();
    let mut lanes = Vec::new();
    run_batch_into(&configs, &trace, &mut batch_scratch, &mut lanes);
    let warm_lanes = lanes.clone();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    run_batch_into(&configs, &trace, &mut batch_scratch, &mut lanes);
    // Comparing in place (no clone) keeps the counting window honest;
    // `assert_eq!` only allocates on failure, where the count is moot.
    assert_eq!(lanes[..], warm_lanes[..], "scratch reuse changed a batch");
    run_batch_into(&configs[..2], &trace, &mut batch_scratch, &mut lanes);
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(lanes[..], warm_lanes[..2], "slab reuse changed a lane");
    assert_eq!(warm_lanes[0], steady, "lane 0 must match the scalar run");
    assert_eq!(
        after - before,
        0,
        "steady-state run_batch_into must not allocate"
    );

    // The trace is decoded by now, so a fresh scratch, for a scalar run
    // or a batch, allocates only its rings: no single allocation, and not all of
    // them together, may reach the size of the decode (16 bytes per
    // instruction), which belongs to the trace, never to a scratch.
    let decode_bytes = trace.len() * 16;
    let mut fresh_lanes = Vec::with_capacity(configs.len());
    BYTES.store(0, Ordering::SeqCst);
    LARGEST.store(0, Ordering::SeqCst);
    let fresh = skylake.run_with_scratch(&trace, &mut CoreScratch::new());
    run_batch_into(&configs, &trace, &mut CoreScratch::new(), &mut fresh_lanes);
    let (bytes, largest) = (BYTES.load(Ordering::SeqCst), LARGEST.load(Ordering::SeqCst));

    assert_eq!(fresh, steady, "a fresh scratch changed the result");
    assert_eq!(
        fresh_lanes[..],
        warm_lanes[..],
        "a fresh scratch changed a lane"
    );
    assert!(
        largest < decode_bytes,
        "a fresh scratch made a {largest}-byte allocation on a decoded \
         {}-instruction trace",
        trace.len()
    );
    assert!(
        bytes < decode_bytes,
        "fresh scratches allocated {bytes} bytes on a decoded {}-instruction trace",
        trace.len()
    );
}
