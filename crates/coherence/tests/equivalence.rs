//! Equivalence with the hop-count reference engines (`reference-sim`).
//!
//! The contract: the cycle-level engines may *reorder* accesses through
//! arbitration, MSHRs, and delayed completions, but once the
//! serialization order is fixed (the commit log), replaying it through
//! the hop-count `SnoopingMesi`/`DirectoryMesi` must observe identical
//! data versions at every step — read-latest-write and single-writer
//! fall out of that. With a no-eviction geometry the cost counters must
//! agree too (finite caches add refetches the infinite-cache references
//! never see).

use cryowire_coherence::baseline::{self, BaselineScratch};
use cryowire_coherence::reference::{replay_directory, replay_snooping};
use cryowire_coherence::{
    AccessTrace, CacheGeometry, CoherenceConfig, CoherenceMetrics, CoherenceScratch,
    CoherenceSystem, DirectoryEngine, Protocol, RunOutcome, SnoopEngine, SnoopFabric, SystemFabric,
};
use cryowire_device::Temperature;
use cryowire_faults::FaultPlan;
use cryowire_memory::MemoryDesign;
use cryowire_noc::{CryoBus, RouterClass, RouterNetwork};
use proptest::{any, collection, prop_assert, prop_assert_eq, proptest, ProptestConfig};

const LINE: u32 = 64;

/// Random interleaved traffic folded onto `cores` cores over 24 lines.
fn mk_trace(raw: &[(u8, u8, bool)], cores: usize) -> AccessTrace {
    let events: Vec<(usize, u64, bool)> = raw
        .iter()
        .map(|&(c, l, w)| (c as usize % cores, u64::from(l % 24) * u64::from(LINE), w))
        .collect();
    AccessTrace::interleaved(&events, cores, LINE, 24 * u64::from(LINE)).expect("valid trace")
}

fn config(protocol: Protocol, geometry: CacheGeometry) -> CoherenceConfig {
    CoherenceConfig {
        protocol,
        geometry,
        record_commits: true,
        ..CoherenceConfig::default()
    }
}

fn no_evict() -> CacheGeometry {
    CacheGeometry::no_evict(64, LINE)
}

/// Geometry axis for the bit-identity suites: infinite (no-evict), a
/// thrashing 8-line 2-way cache, and a small finite 4 KB 2-way cache.
fn geometries() -> [CacheGeometry; 3] {
    [
        no_evict(),
        CacheGeometry {
            size_bytes: 8 * u64::from(LINE),
            assoc: 2,
            line_bytes: LINE,
        },
        CacheGeometry {
            size_bytes: 4096,
            assoc: 2,
            line_bytes: LINE,
        },
    ]
}

fn run_snoop(protocol: Protocol, geometry: CacheGeometry, trace: &AccessTrace) -> RunOutcome {
    let bus = CryoBus::new(64, Temperature::liquid_nitrogen());
    SnoopEngine::new(config(protocol, geometry))
        .expect("valid config")
        .run(trace, SnoopFabric::CryoBus(&bus), &MemoryDesign::mem_77k())
        .expect("clean run completes")
}

fn run_directory(geometry: CacheGeometry, trace: &AccessTrace) -> RunOutcome {
    let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, Temperature::liquid_nitrogen());
    DirectoryEngine::new(config(Protocol::Mesi, geometry))
        .expect("valid config")
        .run(trace, &mesh, 5.44, &MemoryDesign::mem_77k())
        .expect("clean run completes")
}

fn assert_metrics_consistent(m: &CoherenceMetrics, total: u64) {
    assert_eq!(m.accesses, total, "every access must complete");
    assert_eq!(m.hits + m.misses, m.accesses);
    assert_eq!(m.reads + m.writes, m.accesses);
    assert!(
        m.total_latency_cycles >= m.accesses,
        "latency ≥ 1 cycle each"
    );
    assert!(m.max_latency_cycles <= m.total_latency_cycles);
    assert!(m.cycles > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// MESI snooping: version-identical replay, and with no evictions
    /// the reference's bus-transaction count matches the engine's.
    #[test]
    fn snoop_mesi_replay_is_version_identical(
        raw in collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..300),
        cores in 2usize..9,
    ) {
        let trace = mk_trace(&raw, cores);
        let out = run_snoop(Protocol::Mesi, no_evict(), &trace);
        assert_metrics_consistent(&out.metrics, trace.total_accesses());
        prop_assert_eq!(out.metrics.evictions, 0);
        let cost = replay_snooping(&out.commits, cores).expect("replay must not diverge");
        prop_assert_eq!(cost.bus_transactions, out.metrics.bus_transactions);
        prop_assert_eq!(cost.invalidations, out.metrics.invalidations);
    }

    /// Dragon's update protocol keeps the same read-latest-write
    /// semantics: its commit log replays through the MESI reference
    /// version-for-version (costs differ by design — updates are not
    /// invalidations).
    #[test]
    fn snoop_dragon_replay_is_version_identical(
        raw in collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..300),
        cores in 2usize..9,
    ) {
        let trace = mk_trace(&raw, cores);
        let out = run_snoop(Protocol::Dragon, no_evict(), &trace);
        assert_metrics_consistent(&out.metrics, trace.total_accesses());
        prop_assert!(replay_snooping(&out.commits, cores).is_ok());
    }

    /// Directory MESI: version-identical replay, and with no evictions
    /// the reference's message count matches the engine's.
    #[test]
    fn directory_replay_is_version_identical(
        raw in collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..200),
        cores in 2usize..9,
    ) {
        let trace = mk_trace(&raw, cores);
        let out = run_directory(no_evict(), &trace);
        assert_metrics_consistent(&out.metrics, trace.total_accesses());
        prop_assert_eq!(out.metrics.evictions, 0);
        let cost = replay_directory(&out.commits, cores).expect("replay must not diverge");
        prop_assert_eq!(cost.network_messages, out.metrics.network_messages);
        prop_assert_eq!(cost.invalidations, out.metrics.invalidations);
    }

    /// Finite caches add eviction/refetch traffic, but versions must
    /// still replay exactly — invalidation and update protocols both
    /// guarantee no stale copy survives a write.
    #[test]
    fn finite_caches_still_replay_versions(
        raw in collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 50..300),
        cores in 2usize..7,
    ) {
        // 8 lines of 2-way cache over 24 hot lines: heavy eviction.
        let tiny = CacheGeometry {
            size_bytes: 8 * u64::from(LINE),
            assoc: 2,
            line_bytes: LINE,
        };
        let trace = mk_trace(&raw, cores);
        for protocol in [Protocol::Mesi, Protocol::Dragon] {
            let out = run_snoop(protocol, tiny, &trace);
            prop_assert!(replay_snooping(&out.commits, cores).is_ok());
        }
        let out = run_directory(tiny, &trace);
        prop_assert!(replay_directory(&out.commits, cores).is_ok());
    }

    /// Under random fault plans the engines terminate — completing with
    /// consistent metrics or failing typed — and any completed run still
    /// replays version-identically.
    #[test]
    fn fault_plans_never_hang_and_preserve_versions(
        raw in collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..200),
        cores in 2usize..9,
        level in 0usize..2,
        index in 0usize..4,
        stall in 0u64..48,
        start in 0u64..2_000,
    ) {
        let trace = mk_trace(&raw, cores);
        let schedule = FaultPlan::new(start ^ stall)
            .htree_segment_dead(level, index)
            .event(cryowire_faults::FaultEvent::transient(
                start,
                1_500,
                cryowire_faults::FaultKind::RouterStall { resource: 0, extra_cycles: stall },
            ))
            .schedule(1_000_000);
        let bus = CryoBus::new(64, Temperature::liquid_nitrogen());
        let engine = SnoopEngine::new(config(Protocol::Mesi, no_evict())).expect("valid");
        let mut scratch = cryowire_coherence::CoherenceScratch::new();
        match engine.run_with_scratch(
            &trace,
            SnoopFabric::CryoBus(&bus),
            &MemoryDesign::mem_77k(),
            Some(&schedule),
            &mut scratch,
        ) {
            Ok(out) => {
                assert_metrics_consistent(&out.metrics, trace.total_accesses());
                prop_assert!(replay_snooping(&out.commits, cores).is_ok());
            }
            Err(cryowire_coherence::CoherenceError::Stalled { .. }) => {}
            Err(other) => panic!("unexpected error under faults: {other}"),
        }
    }
}

/// The engines are fully deterministic: identical configs and traces
/// produce bit-identical outcomes, scratch reuse included.
#[test]
fn runs_are_deterministic_across_scratch_reuse() {
    let raw: Vec<(u8, u8, bool)> = (0u16..240)
        .map(|i| ((i % 7) as u8, (i * 13 % 24) as u8, i % 3 == 0))
        .collect();
    let trace = mk_trace(&raw, 6);
    let bus = CryoBus::new(64, Temperature::liquid_nitrogen());
    let mem = MemoryDesign::mem_77k();
    let engine = SnoopEngine::new(config(Protocol::Mesi, no_evict())).expect("valid");
    let mut scratch = cryowire_coherence::CoherenceScratch::new();
    let first = engine
        .run_with_scratch(&trace, SnoopFabric::CryoBus(&bus), &mem, None, &mut scratch)
        .expect("run");
    let second = engine
        .run_with_scratch(&trace, SnoopFabric::CryoBus(&bus), &mem, None, &mut scratch)
        .expect("reused scratch run");
    assert_eq!(first, second, "scratch reuse must not change results");
    let fresh = run_snoop(Protocol::Mesi, no_evict(), &trace);
    assert_eq!(first, fresh, "fresh scratch must match");
}

/// A mixed fault plan touching both fabrics: a dead H-tree segment
/// (re-forms the CryoBus), a transient router stall, and a transient
/// dead link (forces mesh detours / severed routes).
fn mk_schedule(
    level: usize,
    index: usize,
    stall: u64,
    start: u64,
) -> cryowire_faults::FaultSchedule {
    FaultPlan::new(start ^ stall)
        .htree_segment_dead(level, index)
        .event(cryowire_faults::FaultEvent::transient(
            start,
            1_500,
            cryowire_faults::FaultKind::RouterStall {
                resource: 0,
                extra_cycles: stall,
            },
        ))
        .event(cryowire_faults::FaultEvent::transient(
            start / 2,
            2_000,
            cryowire_faults::FaultKind::LinkDead {
                resource: index * 7 + 3,
            },
        ))
        .schedule(1_000_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The flat-arena snooping engine is bit-identical to the retained
    /// hash-map baseline — metrics, commit log, and typed errors — over
    /// random traffic, both protocols, every geometry class, with and
    /// without a fault schedule.
    #[test]
    fn optimized_snoop_is_bit_identical_to_baseline(
        raw in collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..250),
        cores in 2usize..9,
        geom in 0usize..3,
        faulty in any::<bool>(),
        stall in 0u64..48,
        start in 0u64..2_000,
    ) {
        let trace = mk_trace(&raw, cores);
        let geometry = geometries()[geom];
        let bus = CryoBus::new(64, Temperature::liquid_nitrogen());
        let mem = MemoryDesign::mem_77k();
        let schedule = faulty.then(|| mk_schedule(0, 1, stall, start));
        for protocol in [Protocol::Mesi, Protocol::Dragon] {
            let cfg = config(protocol, geometry);
            let mut scratch = CoherenceScratch::new();
            let opt = SnoopEngine::new(cfg).expect("valid").run_with_scratch(
                &trace,
                SnoopFabric::CryoBus(&bus),
                &mem,
                schedule.as_ref(),
                &mut scratch,
            );
            let mut bscratch = BaselineScratch::new();
            let base = baseline::run_snooping(
                cfg,
                &trace,
                SnoopFabric::CryoBus(&bus),
                &mem,
                schedule.as_ref(),
                &mut bscratch,
            );
            prop_assert_eq!(&opt, &base, "{:?} diverged from the baseline", protocol);
        }
    }

    /// The flat-arena directory engine — including the system's
    /// amortized fault-free path table and the in-place fault-epoch
    /// rebuild — is bit-identical to the baseline that rebuilds its
    /// timing from scratch every run.
    #[test]
    fn optimized_directory_is_bit_identical_to_baseline(
        raw in collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..200),
        cores in 2usize..9,
        geom in 0usize..3,
        faulty in any::<bool>(),
        stall in 0u64..48,
        start in 0u64..2_000,
    ) {
        let trace = mk_trace(&raw, cores);
        let cfg = config(Protocol::Mesi, geometries()[geom]);
        let t77 = Temperature::liquid_nitrogen();
        let mem = MemoryDesign::mem_77k();
        let schedule = faulty.then(|| mk_schedule(0, 1, stall, start));
        // Optimized side goes through CoherenceSystem so the shared
        // base table (fault-free) and epoch rebuild (faulted) are both
        // what production runs use.
        let system = CoherenceSystem::directory(
            RouterNetwork::mesh64(RouterClass::OneCycle, t77),
            5.44,
            mem,
            cfg,
        )
        .expect("directory system builds");
        let mut scratch = CoherenceScratch::new();
        let opt = system.run_with(&trace, schedule.as_ref(), &mut scratch);
        let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, t77);
        let mut bscratch = BaselineScratch::new();
        let base = baseline::run_directory(
            cfg,
            &trace,
            &mesh,
            5.44,
            &mem,
            schedule.as_ref(),
            &mut bscratch,
        );
        prop_assert_eq!(&opt, &base, "directory diverged from the baseline");
    }

    /// Lane batches (sequential lanes over one shared scratch) are
    /// bit-identical to running each lane scalar with a fresh scratch — any lane mix of protocols and
    /// geometries, on both fabrics, with and without a fault schedule.
    #[test]
    fn batched_lanes_are_bit_identical_to_scalar_runs(
        raw in collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..200),
        cores in 2usize..9,
        lane_picks in collection::vec((0usize..3, any::<bool>()), 1..5),
        faulty in any::<bool>(),
        stall in 0u64..48,
        start in 0u64..2_000,
    ) {
        let trace = mk_trace(&raw, cores);
        let t77 = Temperature::liquid_nitrogen();
        let schedule = faulty.then(|| mk_schedule(0, 1, stall, start));

        // Snooping: lanes vary geometry AND protocol.
        let lanes: Vec<CoherenceConfig> = lane_picks
            .iter()
            .map(|&(g, dragon)| {
                config(
                    if dragon { Protocol::Dragon } else { Protocol::Mesi },
                    geometries()[g],
                )
            })
            .collect();
        let system = CoherenceSystem::snooping(
            SystemFabric::CryoBus(CryoBus::new(64, t77)),
            MemoryDesign::mem_77k(),
            lanes[0],
        )
        .expect("snooping system builds");
        let mut scratch = CoherenceScratch::new();
        let batch = system.run_batch_with(&trace, &lanes, schedule.as_ref(), &mut scratch);
        prop_assert_eq!(batch.len(), lanes.len());
        for (i, cfg) in lanes.iter().enumerate() {
            let lane_system = CoherenceSystem::snooping(
                SystemFabric::CryoBus(CryoBus::new(64, t77)),
                MemoryDesign::mem_77k(),
                *cfg,
            )
            .expect("lane system builds");
            let mut fresh = CoherenceScratch::new();
            let scalar = lane_system.run_with(&trace, schedule.as_ref(), &mut fresh);
            prop_assert_eq!(&batch[i], &scalar, "snoop lane {} diverged from scalar", i);
        }

        // Directory: lanes vary geometry (MESI only).
        let dir_lanes: Vec<CoherenceConfig> = lane_picks
            .iter()
            .map(|&(g, _)| config(Protocol::Mesi, geometries()[g]))
            .collect();
        let dir_system = CoherenceSystem::directory(
            RouterNetwork::mesh64(RouterClass::OneCycle, t77),
            5.44,
            MemoryDesign::mem_77k(),
            dir_lanes[0],
        )
        .expect("directory system builds");
        let batch = dir_system.run_batch_with(&trace, &dir_lanes, schedule.as_ref(), &mut scratch);
        for (i, cfg) in dir_lanes.iter().enumerate() {
            let lane_system = CoherenceSystem::directory(
                RouterNetwork::mesh64(RouterClass::OneCycle, t77),
                5.44,
                MemoryDesign::mem_77k(),
                *cfg,
            )
            .expect("lane system builds");
            let mut fresh = CoherenceScratch::new();
            let scalar = lane_system.run_with(&trace, schedule.as_ref(), &mut fresh);
            prop_assert_eq!(&batch[i], &scalar, "directory lane {} diverged from scalar", i);
        }
    }
}

/// Sharing-pattern traces exercise all three fabrics end to end; the
/// generated traffic replays cleanly through the references.
#[test]
fn generated_patterns_replay_through_references() {
    use cryowire_coherence::{SharingPattern, TraceGenConfig};
    for pattern in SharingPattern::all() {
        let cfg = TraceGenConfig {
            accesses_per_core: 400,
            ..TraceGenConfig::new(pattern, 8)
        };
        let trace = cfg.generate().expect("generate");
        let out = run_snoop(Protocol::Mesi, CacheGeometry::no_evict(2048, LINE), &trace);
        let cost = replay_snooping(&out.commits, 8).expect("snoop replay");
        assert_eq!(
            cost.bus_transactions, out.metrics.bus_transactions,
            "{pattern:?}"
        );
        let out = run_directory(CacheGeometry::no_evict(2048, LINE), &trace);
        let cost = replay_directory(&out.commits, 8).expect("directory replay");
        assert_eq!(
            cost.network_messages, out.metrics.network_messages,
            "{pattern:?}"
        );
    }
}
