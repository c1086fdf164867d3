//! Golden corpus for the coherence engines: the full `CoherenceMetrics`
//! and a digest of the serialization-order commit log of every engine
//! the coherence grid runs — MESI and Dragon snooping on the 64-core
//! 77 K CryoBus, MESI directory on the 64-node mesh at 5.44 GHz — at
//! each of the grid's four private-cache geometries, over two trace
//! seeds, each fault-free and under one fault schedule, must match the
//! checked-in `golden/coherence.txt` bit for bit. A faulted run that
//! trips the watchdog records its typed stall instead.
//!
//! The corpus is an oracle of outputs, not a copy of an engine: it was
//! recorded once from the engines and changes only by a deliberate
//! re-baseline (rerun with `CRYOWIRE_BLESS_GOLDEN=1` to rewrite the file,
//! bump its version line, and say why in the changelog).

use std::fmt::Write as _;

use cryowire_coherence::{
    AccessTrace, CacheGeometry, CoherenceConfig, CoherenceError, CoherenceMetrics,
    CoherenceScratch, CoherenceSystem, CommitEntry, Protocol, SystemFabric, TraceGenConfig,
};
use cryowire_device::Temperature;
use cryowire_faults::{FaultEvent, FaultKind, FaultPlan, FaultSchedule};
use cryowire_memory::MemoryDesign;
use cryowire_noc::{CryoBus, RouterClass, RouterNetwork};
use cryowire_system::Workload;

const GOLDEN: &str = include_str!("golden/coherence.txt");
const VERSION: &str = "# cryowire coherence golden corpus v1";

/// Cores and accesses per core of each trace: the coherence grid's 8
/// cores at the `sweep --sweep coherence` default depth.
const CORES: usize = 8;
const ACCESSES_PER_CORE: usize = 200;

/// The grid's trace seed, then a second one.
const TRACE_SEEDS: [u64; 2] = [0xC0_11E5, 7];

/// Horizon of the fault schedule, cycles: about the fault-free
/// makespan, so the plan's transient stalls land inside the runs.
const FAULT_HORIZON: u64 = 40_000;

/// The injection port of mesh router `node` (the directory engine's
/// per-home stall resource and a core's way onto the mesh).
fn injection_port(node: usize) -> usize {
    64 * 64 + node
}

/// The grid's geometry axis, in grid order.
fn geometries() -> [(&'static str, CacheGeometry); 4] {
    let finite = |size_bytes, assoc| CacheGeometry {
        size_bytes,
        assoc,
        line_bytes: 64,
    };
    [
        ("inf", CacheGeometry::no_evict(2048, 64)),
        ("16k-4w", finite(16 * 1024, 4)),
        ("8k-2w", finite(8 * 1024, 2)),
        ("4k-2w", finite(4 * 1024, 2)),
    ]
}

/// One schedule for every engine, the kind the robustness suite runs:
/// a dead CryoBus H-tree segment and random bus-way stalls (the
/// snooping engines), plus a home stall and a transient sever of core
/// 3's injection port (the directory engine).
fn fault_schedule() -> FaultSchedule {
    FaultPlan::new(11)
        .htree_segment_dead(1, 2)
        .router_stalls(2, &[0, 1, 2, 3], 16)
        .event(FaultEvent::transient(
            1_000,
            20_000,
            FaultKind::RouterStall {
                resource: injection_port(5),
                extra_cycles: 8,
            },
        ))
        .event(FaultEvent::transient(
            0,
            2_000,
            FaultKind::LinkDead {
                resource: injection_port(3),
            },
        ))
        .schedule(FAULT_HORIZON)
}

/// The streamcluster sharing trace the grid replays, at `seed`.
fn trace(seed: u64) -> AccessTrace {
    let workload = Workload::parsec_by_name("streamcluster").expect("known workload");
    TraceGenConfig::from_workload(&workload, CORES, ACCESSES_PER_CORE, seed)
        .generate()
        .expect("workload trace generates")
}

/// The grid's three engines: a system and the protocol it runs.
fn engines() -> [(&'static str, CoherenceSystem, Protocol); 3] {
    let t77 = Temperature::liquid_nitrogen();
    let mem = MemoryDesign::mem_77k;
    let snooping = || {
        CoherenceSystem::snooping(SystemFabric::CryoBus(CryoBus::new(64, t77)), mem())
            .expect("valid snooping system")
    };
    let directory = CoherenceSystem::directory(
        RouterNetwork::mesh64(RouterClass::OneCycle, t77),
        5.44,
        mem(),
    )
    .expect("valid directory system");
    [
        ("mesi-snoop-cryobus", snooping(), Protocol::Mesi),
        ("mesi-directory-mesh", directory, Protocol::Mesi),
        ("dragon-snoop-cryobus", snooping(), Protocol::Dragon),
    ]
}

fn metrics(m: &CoherenceMetrics) -> String {
    format!(
        "accesses={} reads={} writes={} hits={} misses={} upgrades={} bus={} msgs={} \
         updates={} invals={} c2c={} fills={} writebacks={} evictions={} cycles={} \
         latency={} max_latency={} busy={}",
        m.accesses,
        m.reads,
        m.writes,
        m.hits,
        m.misses,
        m.upgrades,
        m.bus_transactions,
        m.network_messages,
        m.updates,
        m.invalidations,
        m.c2c_transfers,
        m.fills,
        m.writebacks,
        m.evictions,
        m.cycles,
        m.total_latency_cycles,
        m.max_latency_cycles,
        m.fabric_busy_cycles
    )
}

/// FNV-1a over every commit's `(core, line, write, version)`.
fn commit_digest(commits: &[CommitEntry]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in commits {
        for word in [c.core as u64, c.line, u64::from(c.write), c.version] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn corpus() -> String {
    let mut out = format!("{VERSION}\n# cores {CORES} accesses/core {ACCESSES_PER_CORE}\n");
    let faults = fault_schedule();
    let traces = TRACE_SEEDS.map(|seed| (seed, trace(seed)));
    let engines = engines();
    let mut scratch = CoherenceScratch::new();
    for (geometry_name, geometry) in geometries() {
        for (engine, system, protocol) in &engines {
            let config = CoherenceConfig {
                protocol: *protocol,
                geometry,
                record_commits: true,
                ..CoherenceConfig::default()
            };
            for (seed, trace) in &traces {
                for (fault_name, schedule) in [("clean", None), ("faulted", Some(&faults))] {
                    let line = match system.run(trace, &config, schedule, &mut scratch) {
                        Ok(outcome) => format!(
                            "{} commits={} digest={:016x}",
                            metrics(&outcome.metrics),
                            outcome.commits.len(),
                            commit_digest(&outcome.commits)
                        ),
                        Err(CoherenceError::Stalled {
                            cycle,
                            completed,
                            pending,
                        }) => {
                            format!("stalled cycle={cycle} completed={completed} pending={pending}")
                        }
                        Err(other) => panic!("{engine}/{geometry_name}: unexpected error {other}"),
                    };
                    writeln!(
                        out,
                        "{engine} {geometry_name} seed={seed:#x} {fault_name}: {line}"
                    )
                    .expect("write to string");
                }
            }
        }
    }
    out
}

#[test]
fn coherence_runs_match_golden_corpus() {
    let actual = corpus();
    if std::env::var_os("CRYOWIRE_BLESS_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/coherence.txt");
        std::fs::write(path, &actual).expect("write golden corpus");
        return;
    }
    let mismatches: Vec<(&str, &str)> = GOLDEN
        .lines()
        .zip(actual.lines())
        .filter(|(g, a)| g != a)
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} corpus lines differ; first: golden `{}` vs actual `{}`",
        mismatches.len(),
        GOLDEN.lines().count(),
        mismatches[0].0,
        mismatches[0].1
    );
    assert_eq!(
        GOLDEN.lines().count(),
        actual.lines().count(),
        "corpus length changed"
    );
}
