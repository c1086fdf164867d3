//! Equivalence with the hop-count reference engines.
//!
//! The contract: the cycle-level engines may *reorder* accesses through
//! arbitration, MSHRs, and delayed completions, but once the
//! serialization order is fixed (the commit log), replaying it through
//! the hop-count `SnoopingMesi`/`DirectoryMesi` must observe identical
//! data versions at every step — read-latest-write and single-writer
//! fall out of that. With a no-eviction geometry the cost counters must
//! agree too (finite caches add refetches the infinite-cache references
//! never see). The last property holds lane batches bit-identical to
//! scalar runs; `tests/oracle.rs` checks the runs themselves against an
//! independent per-cycle model.

use cryowire_coherence::reference::{replay_directory, replay_snooping};
use cryowire_coherence::{
    AccessTrace, CacheGeometry, CoherenceMetrics, CoherenceScratch, CoherenceSystem, Protocol,
    RunOutcome, SystemFabric,
};
use cryowire_device::Temperature;
use cryowire_faults::FaultPlan;
use cryowire_memory::MemoryDesign;
use cryowire_noc::{CryoBus, RouterClass, RouterNetwork};
use proptest::{any, collection, prop_assert, prop_assert_eq, proptest, ProptestConfig};

mod common;

use common::{config, geometries, mk_schedule, mk_trace, no_evict, LINE};

/// Snooping over the 64-core 77 K CryoBus.
fn cryobus_system() -> CoherenceSystem {
    let bus = CryoBus::new(64, Temperature::liquid_nitrogen());
    CoherenceSystem::snooping(SystemFabric::CryoBus(bus), MemoryDesign::mem_77k())
        .expect("snooping system builds")
}

/// A directory over the 64-node 77 K mesh at 5.44 GHz.
fn mesh_system() -> CoherenceSystem {
    let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, Temperature::liquid_nitrogen());
    CoherenceSystem::directory(mesh, 5.44, MemoryDesign::mem_77k())
        .expect("directory system builds")
}

fn run_snoop(protocol: Protocol, geometry: CacheGeometry, trace: &AccessTrace) -> RunOutcome {
    cryobus_system()
        .run(
            trace,
            &config(protocol, geometry),
            None,
            &mut CoherenceScratch::new(),
        )
        .expect("clean run completes")
}

fn run_directory(geometry: CacheGeometry, trace: &AccessTrace) -> RunOutcome {
    let config = config(Protocol::Mesi, geometry);
    mesh_system()
        .run(trace, &config, None, &mut CoherenceScratch::new())
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
        let config = config(Protocol::Mesi, no_evict());
        let mut scratch = CoherenceScratch::new();
        match cryobus_system().run(&trace, &config, Some(&schedule), &mut scratch) {
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
    let system = cryobus_system();
    let config = config(Protocol::Mesi, no_evict());
    let mut scratch = CoherenceScratch::new();
    let first = system
        .run(&trace, &config, None, &mut scratch)
        .expect("run");
    let second = system
        .run(&trace, &config, None, &mut scratch)
        .expect("reused scratch run");
    assert_eq!(first, second, "scratch reuse must not change results");
    let fresh = run_snoop(Protocol::Mesi, no_evict(), &trace);
    assert_eq!(first, fresh, "fresh scratch must match");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lane batches (runs of one system one after another over one
    /// shared scratch) are bit-identical to running each lane on a
    /// fresh system with a fresh scratch — any lane mix of protocols
    /// and geometries, on both fabrics, with and without a fault
    /// schedule.
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
        let schedule = faulty.then(|| mk_schedule(0, 1, stall, start));
        let mut scratch = CoherenceScratch::new();

        // Snooping: lanes vary geometry AND protocol. Directory: lanes
        // vary geometry (MESI only).
        for (fabric, system, build) in [
            ("snoop", cryobus_system(), cryobus_system as fn() -> CoherenceSystem),
            ("directory", mesh_system(), mesh_system),
        ] {
            for (i, &(g, dragon)) in lane_picks.iter().enumerate() {
                let protocol = if dragon && fabric == "snoop" {
                    Protocol::Dragon
                } else {
                    Protocol::Mesi
                };
                let cfg = config(protocol, geometries()[g]);
                let lane = system.run(&trace, &cfg, schedule.as_ref(), &mut scratch);
                let mut fresh = CoherenceScratch::new();
                let scalar = build().run(&trace, &cfg, schedule.as_ref(), &mut fresh);
                prop_assert_eq!(&lane, &scalar, "{} lane {} diverged from scalar", fabric, i);
            }
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
