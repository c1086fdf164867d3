//! Consistency with the analytic `llc_path` model: the cycle-level
//! engine's steady-state averages must tell the same story as the
//! `CoherenceStyle` × `NocChoice` closed-form latencies — same style
//! mapping, same fabric ordering, same directory-indirection penalty —
//! and land in a loose quantitative band around them (the closed forms
//! are zero-load; the engine adds contention and protocol detail).

use cryowire_coherence::{
    CacheGeometry, CoherenceConfig, CoherenceMetrics, CoherenceScratch, CoherenceSystem,
    SharingPattern, SystemFabric, TraceGenConfig,
};
use cryowire_device::Temperature;
use cryowire_memory::llc_path::{CoherenceStyle, LlcPathModel, NocChoice};
use cryowire_memory::MemoryDesign;
use cryowire_noc::{CryoBus, RouterClass, RouterNetwork, SharedBus};
use cryowire_system::Workload;

fn t77() -> Temperature {
    Temperature::liquid_nitrogen()
}

fn trace(pattern: SharingPattern) -> cryowire_coherence::AccessTrace {
    TraceGenConfig {
        accesses_per_core: 800,
        ..TraceGenConfig::new(pattern, 8)
    }
    .generate()
    .expect("generate")
}

/// The steady-state sharing trace the llc_path ordering claims are
/// about: streamcluster's barrier-heavy profile, with a realistic
/// inter-reference think time so neither fabric is saturated by the
/// cold-start fill burst.
fn barrier_trace() -> cryowire_coherence::AccessTrace {
    let w = Workload::parsec_by_name("streamcluster").expect("streamcluster exists");
    TraceGenConfig::from_workload(&w, 8, 800, 0xC0_11E5)
        .generate()
        .expect("generate")
}

fn config() -> CoherenceConfig {
    CoherenceConfig {
        geometry: CacheGeometry::no_evict(2048, 64),
        ..CoherenceConfig::default()
    }
}

fn run(system: &CoherenceSystem, pattern: SharingPattern) -> CoherenceMetrics {
    run_trace(system, &trace(pattern))
}

fn run_trace(
    system: &CoherenceSystem,
    trace: &cryowire_coherence::AccessTrace,
) -> CoherenceMetrics {
    let mut scratch = CoherenceScratch::new();
    system
        .run(trace, &config(), None, &mut scratch)
        .expect("run completes")
        .metrics
}

/// Average cycles a *miss* spends beyond its 1-cycle issue — the part
/// the fabric is responsible for.
fn avg_miss_cycles(m: &CoherenceMetrics) -> f64 {
    assert!(m.misses > 0, "pattern must produce fabric traffic");
    (m.total_latency_cycles - m.hits) as f64 / m.misses as f64
}

fn cryobus_system() -> (CoherenceSystem, f64) {
    let bus = CryoBus::new(64, t77());
    let clock = bus.clock_ghz();
    let system = CoherenceSystem::snooping(SystemFabric::CryoBus(bus), MemoryDesign::mem_77k())
        .expect("valid");
    (system, clock)
}

fn shared_bus_system() -> (CoherenceSystem, f64) {
    let bus = SharedBus::new(64, t77());
    let clock = bus.clock_ghz();
    let system = CoherenceSystem::snooping(SystemFabric::SharedBus(bus), MemoryDesign::mem_77k())
        .expect("valid");
    (system, clock)
}

fn mesh_system() -> (CoherenceSystem, f64) {
    let system = CoherenceSystem::directory(
        RouterNetwork::mesh64(RouterClass::OneCycle, t77()),
        5.44,
        MemoryDesign::mem_77k(),
    )
    .expect("valid");
    (system, 5.44)
}

#[test]
fn style_mapping_matches_llc_path() {
    let (cryo, _) = cryobus_system();
    let (bus, _) = shared_bus_system();
    let (mesh, _) = mesh_system();
    assert_eq!(cryo.style(), CoherenceStyle::Snooping);
    assert_eq!(bus.style(), CoherenceStyle::Snooping);
    assert_eq!(mesh.style(), CoherenceStyle::Directory);
    // And llc_path agrees about which fabric carries which style.
    let cryo_choice = NocChoice::CryoBus {
        bus: CryoBus::new(64, t77()),
    };
    let bus_choice = NocChoice::Bus {
        bus: SharedBus::new(64, t77()),
    };
    let mesh_choice = NocChoice::Router {
        network: RouterNetwork::mesh64(RouterClass::OneCycle, t77()),
        clock_ghz: 5.44,
    };
    assert_eq!(cryo_choice.coherence(), cryo.style());
    assert_eq!(bus_choice.coherence(), bus.style());
    assert_eq!(mesh_choice.coherence(), mesh.style());
}

#[test]
fn bus_ordering_matches_llc_path_at_77k() {
    // Closed form: the CryoBus broadcasts in fewer cycles than the
    // conventional bus at 77 K.
    let cryo_ns = NocChoice::CryoBus {
        bus: CryoBus::new(64, t77()),
    }
    .hit_noc_ns();
    let conv_ns = NocChoice::Bus {
        bus: SharedBus::new(64, t77()),
    }
    .hit_noc_ns();
    assert!(
        cryo_ns < conv_ns,
        "llc_path: CryoBus must beat the conventional bus ({cryo_ns} vs {conv_ns} ns)"
    );
    // Cycle level: same winner on barrier-heavy sharing, in wall-clock
    // nanoseconds at each bus's own clock.
    let (cryo_sys, cryo_clock) = cryobus_system();
    let (bus_sys, bus_clock) = shared_bus_system();
    let cryo_m = run_trace(&cryo_sys, &barrier_trace());
    let bus_m = run_trace(&bus_sys, &barrier_trace());
    let cryo_miss_ns = avg_miss_cycles(&cryo_m) / cryo_clock;
    let bus_miss_ns = avg_miss_cycles(&bus_m) / bus_clock;
    assert!(
        cryo_miss_ns < bus_miss_ns,
        "engine: CryoBus snooping must beat conventional-bus snooping \
         ({cryo_miss_ns:.2} vs {bus_miss_ns:.2} ns/miss)"
    );
}

#[test]
fn directory_indirection_shows_in_model_and_engine() {
    // Closed form: the directory's extra traversal makes its miss path
    // longer than the snooping bus's.
    let mesh_choice = NocChoice::Router {
        network: RouterNetwork::mesh64(RouterClass::OneCycle, t77()),
        clock_ghz: 5.44,
    };
    let cryo_choice = NocChoice::CryoBus {
        bus: CryoBus::new(64, t77()),
    };
    assert!(mesh_choice.miss_noc_ns() > cryo_choice.miss_noc_ns());
    // Cycle level: on barrier-heavy sharing the mesh directory pays the
    // home-node indirection on every ping-pong; CryoBus snooping wins.
    let (cryo_sys, cryo_clock) = cryobus_system();
    let (mesh_sys, mesh_clock) = mesh_system();
    let cryo_m = run_trace(&cryo_sys, &barrier_trace());
    let mesh_m = run_trace(&mesh_sys, &barrier_trace());
    let cryo_ns = avg_miss_cycles(&cryo_m) / cryo_clock;
    let mesh_ns = avg_miss_cycles(&mesh_m) / mesh_clock;
    assert!(
        cryo_ns < mesh_ns,
        "barrier-heavy sharing: snooping CryoBus ({cryo_ns:.2} ns/miss) must beat \
         the mesh directory ({mesh_ns:.2} ns/miss)"
    );
}

#[test]
fn engine_averages_land_in_a_loose_band_around_the_closed_form() {
    // The closed form prices one uncontended L3 hit (NoC + array); the
    // engine's per-miss fabric latency covers the same physical path
    // plus contention, cache-to-cache shortcuts, and protocol overhead.
    // They must agree within an order of magnitude — a regression that
    // breaks unit conversion or drops a pipeline stage moves the ratio
    // far outside this band.
    let cases: [(&str, CoherenceSystem, f64, LlcPathModel); 3] = [
        ("cryobus", cryobus_system().0, cryobus_system().1, {
            LlcPathModel::new(
                NocChoice::CryoBus {
                    bus: CryoBus::new(64, t77()),
                },
                MemoryDesign::mem_77k(),
            )
        }),
        (
            "shared-bus",
            shared_bus_system().0,
            shared_bus_system().1,
            {
                LlcPathModel::new(
                    NocChoice::Bus {
                        bus: SharedBus::new(64, t77()),
                    },
                    MemoryDesign::mem_77k(),
                )
            },
        ),
        ("mesh", mesh_system().0, mesh_system().1, {
            LlcPathModel::new(
                NocChoice::Router {
                    network: RouterNetwork::mesh64(RouterClass::OneCycle, t77()),
                    clock_ghz: 5.44,
                },
                MemoryDesign::mem_77k(),
            )
        }),
    ];
    for (name, system, clock, model) in cases {
        let m = run(&system, SharingPattern::Mixed);
        let engine_ns = avg_miss_cycles(&m) / clock;
        let model_ns = model.hit_breakdown().total_ns();
        let ratio = engine_ns / model_ns;
        assert!(
            (0.1..=10.0).contains(&ratio),
            "{name}: engine {engine_ns:.2} ns/miss vs closed-form {model_ns:.2} ns \
             (ratio {ratio:.2}) left the sanity band"
        );
    }
}
