//! Counting-allocator proof that the steady-state hot loops allocate
//! nothing: after one warm-up run populates the scratch (route arena,
//! free vector, trace chunk buffer), a further fault-free run must
//! perform **zero** heap allocations — on the 2-way CryoBus, which
//! replays over the route arena, and on the 64-node mesh, which walks
//! its next-hop table. So must a second pass over a rate grid on one
//! warm scratch, and a repeated flit-level run. Kept in its own
//! integration-test binary (one test function, so no concurrent test
//! can perturb the global counter) so the allocator hook does not
//! interfere with other suites.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cryowire_device::Temperature;
use cryowire_faults::FaultSchedule;
use cryowire_noc::{
    CryoBus, FlitConfig, FlitNetwork, NocKind, RouterClass, RouterNetwork, SimConfig, SimScratch,
    Simulator, TrafficPattern,
};

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

#[test]
fn steady_state_hot_loop_allocates_nothing() {
    let t77 = Temperature::liquid_nitrogen();
    let net = CryoBus::two_way(64, t77);
    let sim = Simulator::new(SimConfig {
        cycles: 6_000,
        warmup: 1_000,
        ..SimConfig::default()
    });
    let empty = FaultSchedule::default();
    let mut scratch = SimScratch::new();

    // Warm-up: builds the route arena and sizes the free vector.
    let warm = sim
        .run(
            &net,
            TrafficPattern::UniformRandom,
            0.008,
            &empty,
            &mut scratch,
        )
        .expect("valid run");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let steady = sim
        .run(
            &net,
            TrafficPattern::UniformRandom,
            0.008,
            &empty,
            &mut scratch,
        )
        .expect("valid run");
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(warm, steady, "scratch reuse must not change results");
    assert_eq!(after - before, 0, "a steady-state run must not allocate");

    // A router network walks its next-hop table instead of the arena:
    // the warm run only sizes the free vector and the trace chunk buffer.
    let mesh =
        RouterNetwork::new(NocKind::Mesh, 64, RouterClass::OneCycle, t77).expect("valid mesh");
    let mut mesh_scratch = SimScratch::new();
    let pattern = TrafficPattern::UniformRandom;
    let warm_mesh = sim
        .run(&mesh, pattern, 0.02, &empty, &mut mesh_scratch)
        .expect("valid run");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let steady_mesh = sim
        .run(&mesh, pattern, 0.02, &empty, &mut mesh_scratch)
        .expect("valid run");
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(warm_mesh, steady_mesh, "scratch reuse changed the mesh run");
    assert_eq!(
        after - before,
        0,
        "a steady-state run on the mesh must not allocate"
    );

    // Rate grid: once a first pass over the grid has warmed one scratch
    // (route arena, trace chunk buffer), a second pass allocates nothing
    // at all — its results go into a vector sized beforehand.
    let rates = [0.004, 0.008, 0.016];
    let mut grid_scratch = SimScratch::new();
    let mut run_grid = |out: &mut Vec<_>| {
        for rate in rates {
            let result = sim
                .run(&net, pattern, rate, &empty, &mut grid_scratch)
                .expect("valid run");
            out.push(result);
        }
    };
    let mut warm_grid = Vec::with_capacity(rates.len());
    run_grid(&mut warm_grid);
    let mut steady_grid = Vec::with_capacity(rates.len());

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    run_grid(&mut steady_grid);
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(warm_grid, steady_grid, "scratch reuse changed the grid");
    assert_eq!(
        after - before,
        0,
        "a steady-state pass over the rate grid must not allocate"
    );

    // Flit-level engine: `run` resets its buffers in place, so once a
    // warm-up run has sized every VC FIFO, injection queue and the wire
    // list, an identical run allocates nothing.
    let mut flit = FlitNetwork::new(FlitConfig {
        packet_flits: 5,
        ..FlitConfig::table4_mesh64(RouterClass::OneCycle)
    })
    .expect("valid flit network");
    let run = |flit: &mut FlitNetwork| {
        flit.run(TrafficPattern::UniformRandom, 0.01, 3_000, 500, 7)
            .expect("valid flit run")
    };
    let warm_flit = run(&mut flit);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let steady_flit = run(&mut flit);
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert!(!steady_flit.saturated, "the flit leg must not saturate");
    assert_eq!(warm_flit, steady_flit, "in-place reset changed the result");
    assert_eq!(
        after - before,
        0,
        "a repeated FlitNetwork::run must not allocate"
    );
}
