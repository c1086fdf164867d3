//! Fault robustness: the coherence engines degrade gracefully under
//! `cryowire-faults` schedules — slower, never wrong, never hung.

use cryowire_coherence::{
    AccessTrace, CacheGeometry, CoherenceConfig, CoherenceError, CoherenceScratch, CoherenceSystem,
    CoreAccess, Protocol, RunOutcome, SharingPattern, SystemFabric, TraceGenConfig,
};
use cryowire_device::Temperature;
use cryowire_faults::{FaultEvent, FaultKind, FaultPlan, FaultSchedule};
use cryowire_memory::MemoryDesign;
use cryowire_noc::{CryoBus, RouterClass, RouterNetwork};

fn trace() -> cryowire_coherence::AccessTrace {
    TraceGenConfig {
        accesses_per_core: 600,
        ..TraceGenConfig::new(SharingPattern::BarrierHeavy, 8)
    }
    .generate()
    .expect("generate")
}

fn config() -> CoherenceConfig {
    CoherenceConfig {
        geometry: CacheGeometry::no_evict(2048, 64),
        ..CoherenceConfig::default()
    }
}

fn snoop_system() -> CoherenceSystem {
    CoherenceSystem::snooping(
        SystemFabric::CryoBus(CryoBus::new(64, Temperature::liquid_nitrogen())),
        MemoryDesign::mem_77k(),
    )
    .expect("valid system")
}

fn directory_system() -> CoherenceSystem {
    CoherenceSystem::directory(
        RouterNetwork::mesh64(RouterClass::OneCycle, Temperature::liquid_nitrogen()),
        5.44,
        MemoryDesign::mem_77k(),
    )
    .expect("valid system")
}

fn run(system: &CoherenceSystem, schedule: Option<&FaultSchedule>) -> RunOutcome {
    let mut scratch = CoherenceScratch::new();
    system
        .run(&trace(), &config(), schedule, &mut scratch)
        .expect("run completes")
}

#[test]
fn dead_htree_segment_degrades_gracefully() {
    let system = snoop_system();
    let healthy = run(&system, None);
    // A root-adjacent segment dies from cycle 0: the bus re-forms with
    // a longer broadcast span. Same work completes, slower.
    let schedule = FaultPlan::new(7)
        .htree_segment_dead(0, 1)
        .schedule(10_000_000);
    let degraded = run(&system, Some(&schedule));
    assert_eq!(
        degraded.metrics.accesses, healthy.metrics.accesses,
        "all accesses still complete around the dead segment"
    );
    assert!(
        degraded.metrics.cycles > healthy.metrics.cycles,
        "re-formed bus must cost cycles: {} vs healthy {}",
        degraded.metrics.cycles,
        healthy.metrics.cycles
    );
    assert!(degraded.metrics.avg_latency() > healthy.metrics.avg_latency());
}

#[test]
fn mid_run_segment_death_lands_between_healthy_and_always_dead() {
    let system = snoop_system();
    let healthy = run(&system, None);
    let always = run(
        &system,
        Some(
            &FaultPlan::new(7)
                .htree_segment_dead(0, 1)
                .schedule(10_000_000),
        ),
    );
    // The same segment dies halfway through the healthy makespan.
    let mid = healthy.metrics.cycles / 2;
    let late = FaultPlan::new(7)
        .event(FaultEvent::permanent(
            mid,
            FaultKind::HTreeSegmentDead { level: 0, index: 1 },
        ))
        .schedule(10_000_000);
    let late_run = run(&system, Some(&late));
    assert!(late_run.metrics.cycles >= healthy.metrics.cycles);
    assert!(late_run.metrics.cycles <= always.metrics.cycles);
}

#[test]
fn bus_way_stall_slows_but_completes() {
    let system = snoop_system();
    let healthy = run(&system, None);
    // The single bus way (resource 0) stalls +24 cycles per grant for a
    // long transient window.
    let schedule = FaultPlan::new(3)
        .event(FaultEvent::transient(
            0,
            u64::MAX / 2,
            FaultKind::RouterStall {
                resource: 0,
                extra_cycles: 24,
            },
        ))
        .schedule(u64::MAX / 2);
    let stalled = run(&system, Some(&schedule));
    assert_eq!(stalled.metrics.accesses, healthy.metrics.accesses);
    assert!(stalled.metrics.cycles > healthy.metrics.cycles);
}

#[test]
fn pathological_stall_trips_the_watchdog_typed() {
    let system = snoop_system();
    let config = CoherenceConfig {
        watchdog_cycles_per_access: 1,
        ..config()
    };
    let schedule = FaultPlan::new(3)
        .event(FaultEvent::permanent(
            0,
            FaultKind::RouterStall {
                resource: 0,
                extra_cycles: 50_000_000,
            },
        ))
        .schedule(u64::MAX / 2);
    let mut scratch = CoherenceScratch::new();
    let err = system
        .run(&trace(), &config, Some(&schedule), &mut scratch)
        .expect_err("a 50M-cycle grant stall must trip the watchdog");
    match err {
        CoherenceError::Stalled {
            pending, completed, ..
        } => {
            assert!(pending > 0, "some work must be reported stuck");
            let total = trace().total_accesses();
            assert_eq!(completed + pending, total);
        }
        other => panic!("expected Stalled, got {other}"),
    }
}

#[test]
fn severed_directory_home_stalls_typed_not_hung() {
    let system = directory_system();
    // Kill core 3's injection port permanently: its requests can never
    // reach any home, so the run must end in a typed stall, not a hang.
    let inj_base = 64 * 64;
    let schedule = FaultPlan::new(1)
        .event(FaultEvent::permanent(
            0,
            FaultKind::LinkDead {
                resource: inj_base + 3,
            },
        ))
        .schedule(u64::MAX / 2);
    let mut scratch = CoherenceScratch::new();
    let err = system
        .run(&trace(), &config(), Some(&schedule), &mut scratch)
        .expect_err("severed core must stall the run");
    assert!(
        matches!(err, CoherenceError::Stalled { pending, .. } if pending > 0),
        "expected a typed stall, got {err}"
    );
}

#[test]
fn transient_sever_heals_and_the_run_completes() {
    let system = directory_system();
    let healthy = run(&system, None);
    // Core 3 is cut off for a window, then the route heals; the engine
    // must pick the pending request back up at the fault change point.
    let inj_base = 64 * 64;
    let schedule = FaultPlan::new(1)
        .event(FaultEvent::transient(
            0,
            2_000,
            FaultKind::LinkDead {
                resource: inj_base + 3,
            },
        ))
        .schedule(10_000_000);
    let healed = run(&system, Some(&schedule));
    assert_eq!(healed.metrics.accesses, healthy.metrics.accesses);
    assert!(
        healed.metrics.cycles >= healthy.metrics.cycles,
        "the outage cannot make the run faster"
    );
}

#[test]
fn dragon_and_directory_survive_the_same_fault_plan() {
    // One plan, every engine: nothing panics, everything either
    // completes with full metrics or stalls typed.
    let schedule = FaultPlan::new(11)
        .htree_segment_dead(1, 2)
        .router_stalls(2, &[0, 1, 2, 3], 16)
        .schedule(10_000_000);
    let dragon = CoherenceConfig {
        protocol: Protocol::Dragon,
        ..config()
    };
    let mut scratch = CoherenceScratch::new();
    for (system, config) in [(snoop_system(), dragon), (directory_system(), config())] {
        match system.run(&trace(), &config, Some(&schedule), &mut scratch) {
            Ok(out) => {
                assert_eq!(out.metrics.accesses, trace().total_accesses());
                assert_eq!(out.metrics.hits + out.metrics.misses, out.metrics.accesses);
            }
            Err(CoherenceError::Stalled { .. }) => {}
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
}

#[test]
fn bad_configs_fail_typed() {
    // A mesh cannot carry snooping broadcasts: rejected at construction.
    let mesh = SystemFabric::Mesh {
        network: RouterNetwork::mesh64(RouterClass::OneCycle, Temperature::liquid_nitrogen()),
        clock_ghz: 5.44,
    };
    assert!(matches!(
        CoherenceSystem::snooping(mesh, MemoryDesign::mem_77k()),
        Err(CoherenceError::InvalidConfig { .. })
    ));
    // The directory engine is MESI-only, and every engine validates
    // its geometry: both are properties of the run's config.
    let dragon = CoherenceConfig {
        protocol: Protocol::Dragon,
        ..config()
    };
    let zero_assoc = CoherenceConfig {
        geometry: CacheGeometry {
            assoc: 0,
            ..config().geometry
        },
        ..config()
    };
    let mut scratch = CoherenceScratch::new();
    for (system, config) in [
        (directory_system(), dragon),
        (directory_system(), zero_assoc),
        (snoop_system(), zero_assoc),
    ] {
        let err = system
            .run(&trace(), &config, None, &mut scratch)
            .expect_err("a bad config must not run");
        assert!(
            matches!(err, CoherenceError::InvalidConfig { .. }),
            "{config:?}: {err}"
        );
    }
    // Per-core sets are 128-bit masks: a 129th core is rejected on the
    // bus too, not run into a shift overflow or a false stall.
    let streams = (0..129)
        .map(|core| {
            vec![CoreAccess {
                addr: 64 * core,
                write: true,
                think: 0,
            }]
        })
        .collect();
    let wide = AccessTrace::new(streams, 64, 1 << 20).expect("129 streams are a valid trace");
    let err = snoop_system()
        .run(&wide, &config(), None, &mut scratch)
        .expect_err("129 cores must not run");
    assert!(
        matches!(err, CoherenceError::InvalidConfig { .. }),
        "129 cores: {err}"
    );
}
