//! The `bench-engines` perf gate behind `BENCH_engines.json`.
//!
//! Times every optimized engine against its baseline in one process,
//! on grids the paper's figures sweep, and asserts while timing that
//! both produce bit-identical results — a divergence is a bug, not a
//! benchmark result. Four domains, each gated on its own speedup
//! ([`cryowire_bench::gate`]): the median, over the timing repetitions,
//! of that repetition's wall-time-weighted ratio (total baseline over
//! total optimized wall time across the domain's rows). Each repetition
//! times the optimized pass and then the baseline pass back to back, so
//! a slow spell of the host that lasts a repetition slows both sides of
//! that ratio, and the median drops the repetitions one side alone was
//! unlucky in.
//!
//! * `noc`: the reservation engine on one warm [`SimScratch`] per
//!   network against the frozen reference engine
//!   (`cryowire_noc::sim::reference`), per (network, rate) of the
//!   Fig. 21 uniform-random grid, over its full 30 000-cycle window in
//!   both modes.
//! * `core`: the core engine, one width-1 run per point on one warm
//!   [`CoreScratch`], against the frozen full-trace engine
//!   (`cryowire_ooo::core::reference`), per point of a frontend-depth ×
//!   width × bypass design grid (the CryoSP exploration of Table 3).
//! * `coherence`: [`CoherenceSystem::run_batch_with`] over the four
//!   cache-geometry lanes on one warm [`CoherenceScratch`] against the
//!   frozen hash-map engine ([`cryowire_coherence::baseline`]) run the
//!   way the pre-arena scalar path ran grids, with a fresh scratch per
//!   lane; lane 0's commit log also replays through the hop-count
//!   reference engines.
//! * `batch`: [`run_batch_into`] over a whole config grid against one
//!   width-1 run per config with a fresh [`CoreScratch`] each, the
//!   per-point cost the harness pays (a scratch cannot cross worker
//!   threads). Both sides are the same lockstep engine and read the
//!   trace's one decode, built by an untimed run before the first
//!   repetition, so the figure is what stepping lanes in blocks buys.
//!
//! Two claims gate whatever the baseline: batched grids beat per-point
//! scalar runs, and barrier-heavy sharing is cheaper on CryoBus
//! snooping than on the mesh directory (the Section 6 argument: the
//! directory/snoop average miss latency on the streamcluster trace at
//! 77 K, a simulated figure, exceeds 1).
//!
//! [`CoherenceSystem::run_batch_with`]: cryowire_coherence::CoherenceSystem::run_batch_with

use std::time::Instant;

use cryowire_bench::{median, weighted_speedup};
use cryowire_coherence::baseline::{self, BaselineScratch};
use cryowire_coherence::reference::{replay_directory, replay_snooping};
use cryowire_coherence::{AccessTrace, CoherenceConfig, CoherenceScratch, RunOutcome, SnoopFabric};
use cryowire_device::Temperature;
use cryowire_faults::FaultSchedule;
use cryowire_memory::MemoryDesign;
use cryowire_noc::sim::reference::ReferenceSimulator;
use cryowire_noc::{
    CryoBus, Network, NocKind, RouterClass, RouterNetwork, SimConfig, SimScratch, Simulator,
    TrafficPattern,
};
use cryowire_ooo::core::reference::ReferenceCoreSimulator;
use cryowire_ooo::{
    run_batch_into, CoreConfig, CoreScratch, CoreSimulator, TraceArena, TraceConfig,
};
use cryowire_system::Workload;
use serde_json::Value;

use super::sweeps::{
    avg_miss_ns, build_system, coherence_geometries, coherence_trace, lane_config, EngineKind,
    COHERENCE_CORES,
};
use super::{ipc_validation_grid, noc_figs};

/// The engine domains, in run and report order.
const DOMAINS: [&str; 4] = ["noc", "core", "coherence", "batch"];

/// Timing repetitions per row (identical deterministic work each
/// repetition).
const TIMING_REPS: u32 = 5;

/// Seed of the core traces.
const SEED: u64 = 7;

/// One timed grid.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Engine domain: `noc`, `core`, `coherence` or `batch`.
    pub domain: &'static str,
    /// What was timed: `network/rate`, a design point,
    /// `engine/workload` or `core/<config grid>`.
    pub grid: String,
    /// Configurations run per timed pass over one shared trace.
    pub lanes: usize,
    /// Best wall time of the optimized pass, ms.
    pub wall_ms_optimized: f64,
    /// Best wall time of the baseline pass, ms.
    pub wall_ms_baseline: f64,
    /// Every repetition's (optimized, baseline) wall times, ms, in the
    /// order they ran: what the domain's gate figure is computed from.
    pub reps_ms: Vec<(f64, f64)>,
    /// Simulated work per pass: measured packets (`noc`), instructions
    /// over all lanes (`core`, `batch`) or accesses over all lanes
    /// (`coherence`).
    pub work: u64,
    /// Optimized throughput at the best wall time, millions of `work`
    /// units per second.
    pub throughput: f64,
    /// Median over the repetitions of baseline / optimized wall time.
    pub speedup: f64,
}

impl BenchRow {
    /// A row from its repetitions' (optimized, baseline) wall times in
    /// seconds.
    fn new(
        domain: &'static str,
        grid: String,
        lanes: usize,
        work: u64,
        reps_s: &[(f64, f64)],
    ) -> Self {
        let best =
            |side: fn(&(f64, f64)) -> f64| reps_s.iter().map(side).fold(f64::INFINITY, f64::min);
        let optimized_s = best(|r| r.0).max(1e-12);
        BenchRow {
            domain,
            grid,
            lanes,
            wall_ms_optimized: optimized_s * 1e3,
            wall_ms_baseline: best(|r| r.1) * 1e3,
            reps_ms: reps_s.iter().map(|&(o, b)| (o * 1e3, b * 1e3)).collect(),
            work,
            throughput: work as f64 / optimized_s / 1e6,
            speedup: median(reps_s.iter().map(|&(o, b)| b / o.max(1e-12))),
        }
    }
}

/// A whole `bench-engines` run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEngines {
    /// Whether the smoke grids ran.
    pub smoke: bool,
    /// Simulated cycles per NoC point (a quarter of them warm-up).
    pub noc_cycles: u64,
    /// Trace length of the `core` design points, instructions.
    pub core_insts: usize,
    /// Accesses per core of every coherence trace.
    pub coherence_accesses_per_core: usize,
    /// Trace length of the `batch` config grids, instructions.
    pub batch_insts: usize,
    /// Every timed grid, domain by domain.
    pub rows: Vec<BenchRow>,
    /// Barrier-heavy average miss latency on MESI CryoBus snooping, ns.
    pub barrier_snoop_ns: f64,
    /// Barrier-heavy average miss latency on the MESI mesh directory, ns.
    pub barrier_directory_ns: f64,
}

impl BenchEngines {
    /// Each domain's [`BenchEngines::speedup`], the figures the gate
    /// holds against the committed document.
    #[must_use]
    pub fn speedups(&self) -> Vec<(&'static str, f64)> {
        DOMAINS.iter().map(|&d| (d, self.speedup(d))).collect()
    }

    /// `domain`'s speedup: the median over repetitions of the
    /// repetition's wall-time-weighted speedup across the domain's rows.
    ///
    /// # Panics
    ///
    /// Panics if no row belongs to `domain`.
    #[must_use]
    pub fn speedup(&self, domain: &str) -> f64 {
        let rows: Vec<&BenchRow> = self.rows.iter().filter(|r| r.domain == domain).collect();
        let reps = rows.iter().map(|r| r.reps_ms.len()).min().unwrap_or(0);
        median(
            (0..reps)
                .map(|k| weighted_speedup(rows.iter().map(|r| (r.reps_ms[k].1, r.reps_ms[k].0)))),
        )
    }

    /// The claims the gate holds above 1 whatever the baseline.
    #[must_use]
    pub fn claims(&self) -> Vec<(&'static str, f64)> {
        vec![
            (
                "batched grids beat per-point scalar runs",
                self.speedup("batch"),
            ),
            (
                "barrier-heavy sharing is cheaper on CryoBus snooping than on the mesh \
                 directory (directory/snoop miss latency)",
                self.barrier_directory_ns / self.barrier_snoop_ns.max(1e-12),
            ),
        ]
    }
}

/// Runs every domain on its smoke or full grid, one point at a time:
/// timing is the product, and concurrent workers would contaminate the
/// clocks.
///
/// # Panics
///
/// Panics if any engine's result differs from its baseline's, or a
/// commit log fails to replay — correctness is an invariant here, not
/// a result.
#[must_use]
pub fn bench_engines(smoke: bool) -> BenchEngines {
    // The Fig. 21 window in both modes: a smoke pass this long takes
    // tens of milliseconds, so a scheduler slice or a cache hiccup is a
    // small share of it.
    let noc_cycles = 30_000;
    // Six million instructions per design point: long enough that the
    // reference core's O(n) scoreboards (~240 MB per run) leave the
    // cache hierarchy, the regime real sweeps run in.
    let core_insts = 6_000_000;
    // Enough that steady-state sharing traffic dominates the cold-fill
    // transient on every workload profile.
    let coherence_accesses_per_core = if smoke { 400 } else { 2_000 };
    // Enough that the decoded trace leaves the fastest caches and the
    // decode-once amortization is measured in its steady regime.
    let batch_insts = if smoke { 1_500_000 } else { 6_000_000 };

    let noc = SimConfig {
        cycles: noc_cycles,
        warmup: noc_cycles / 4,
        ..SimConfig::default()
    };
    let (rates, networks) = noc_grid(smoke);
    let mut rows = noc_rows(noc, &rates, &networks);
    rows.extend(core_rows(core_insts, &core_grid(smoke)));
    let coherence = coherence_rows(coherence_accesses_per_core, &coherence_grid(smoke));
    let barrier = |kind: EngineKind| {
        let grid = format!("{}/streamcluster", kind.name());
        coherence
            .iter()
            .find(|(row, _)| row.grid == grid)
            .map(|(_, miss_ns)| *miss_ns)
            .expect("the barrier-heavy column is in every coherence grid")
    };
    let (barrier_snoop_ns, barrier_directory_ns) = (
        barrier(EngineKind::MesiSnoopCryoBus),
        barrier(EngineKind::MesiDirectoryMesh),
    );
    rows.extend(coherence.into_iter().map(|(row, _)| row));
    rows.push(batch_row(
        "ipc-validation",
        &ipc_validation_grid(),
        batch_insts,
    ));
    rows.push(batch_row("design-grid", &core_grid(smoke), batch_insts));
    BenchEngines {
        smoke,
        noc_cycles,
        core_insts,
        coherence_accesses_per_core,
        batch_insts,
        rows,
        barrier_snoop_ns,
        barrier_directory_ns,
    }
}

/// Serializes a run as the `BENCH_engines.json` document: run sizes,
/// the §6 latencies, the per-domain `speedups` the gate reads back as
/// the baseline, and every row.
#[must_use]
pub fn bench_engines_json(run: &BenchEngines) -> Value {
    let uint = |n: usize| Value::UInt(n as u64);
    let speedups = run
        .speedups()
        .into_iter()
        .map(|(domain, s)| (domain.to_string(), Value::Float(s)))
        .collect();
    let rows = run
        .rows
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("domain".into(), Value::String(r.domain.into())),
                ("grid".into(), Value::String(r.grid.clone())),
                ("lanes".into(), uint(r.lanes)),
                (
                    "wall_ms_optimized".into(),
                    Value::Float(r.wall_ms_optimized),
                ),
                ("wall_ms_baseline".into(), Value::Float(r.wall_ms_baseline)),
                (
                    "reps_ms".into(),
                    Value::Array(
                        r.reps_ms
                            .iter()
                            .map(|&(o, b)| Value::Array(vec![Value::Float(o), Value::Float(b)]))
                            .collect(),
                    ),
                ),
                ("work".into(), Value::UInt(r.work)),
                ("throughput".into(), Value::Float(r.throughput)),
                ("speedup".into(), Value::Float(r.speedup)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("benchmark".into(), Value::String("engines".into())),
        ("smoke".into(), Value::Bool(run.smoke)),
        ("noc_cycles".into(), Value::UInt(run.noc_cycles)),
        ("noc_warmup".into(), Value::UInt(run.noc_cycles / 4)),
        ("core_insts".into(), uint(run.core_insts)),
        ("batch_insts".into(), uint(run.batch_insts)),
        ("seed".into(), Value::UInt(SEED)),
        (
            "coherence_accesses_per_core".into(),
            uint(run.coherence_accesses_per_core),
        ),
        ("coherence_cores".into(), uint(COHERENCE_CORES)),
        (
            "barrier_snoop_ns".into(),
            Value::Float(run.barrier_snoop_ns),
        ),
        (
            "barrier_directory_ns".into(),
            Value::Float(run.barrier_directory_ns),
        ),
        ("speedups".into(), Value::Object(speedups)),
        ("rows".into(), Value::Array(rows)),
    ])
}

/// [`TIMING_REPS`] repetitions of an optimized pass followed by a
/// baseline pass, each re-running identical deterministic work. Returns
/// every repetition's (optimized, baseline) wall times in seconds and
/// the last repetition's results, which the caller asserts identical.
fn time_pair<A, B>(
    mut optimized: impl FnMut() -> A,
    mut baseline: impl FnMut() -> B,
) -> (Vec<(f64, f64)>, (A, B)) {
    let mut reps = Vec::new();
    let mut last = None;
    for _ in 0..TIMING_REPS {
        let t0 = Instant::now();
        let a = optimized();
        let t1 = Instant::now();
        let b = baseline();
        reps.push(((t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64()));
        last = Some((a, b));
    }
    (reps, last.expect("at least one rep"))
}

// ------------------------------------------------------------------ noc

/// The NoC grid. The full grid is the Fig. 21 sweep (all nine 77 K
/// networks over its injection-rate grid), so its speedup is what a
/// user regenerating the figure sees. The smoke grid is the two meshes,
/// the most route-bound of the nine, at two loaded rates: at light load
/// every engine is bound by the bit-identical RNG stream, so light-load
/// bus points would time the RNG, not the hot loop.
fn noc_grid(smoke: bool) -> (Vec<f64>, Vec<Box<dyn Network + Sync>>) {
    if smoke {
        let t77 = Temperature::liquid_nitrogen();
        let mesh = |class| -> Box<dyn Network + Sync> {
            Box::new(RouterNetwork::new(NocKind::Mesh, 64, class, t77).expect("valid 64-core mesh"))
        };
        (
            vec![0.032, 0.08],
            vec![mesh(RouterClass::OneCycle), mesh(RouterClass::ThreeCycle)],
        )
    } else {
        (noc_figs::fig21_rates(), noc_figs::all_nocs_77k())
    }
}

/// One row per (network, rate): the optimized engine on one scratch per
/// network, warmed outside the timed region, against the reference.
fn noc_rows(
    config: SimConfig,
    rates: &[f64],
    networks: &[Box<dyn Network + Sync>],
) -> Vec<BenchRow> {
    let empty = FaultSchedule::default();
    let pattern = TrafficPattern::UniformRandom;
    let optimized = Simulator::new(config);
    let reference = ReferenceSimulator::new(config);
    let mut rows = Vec::new();
    for net in networks {
        let net = net.as_ref();
        let mut scratch = SimScratch::new();
        let mut run = |rate| {
            optimized
                .run_with_scratch(net, pattern, rate, &empty, &mut scratch)
                .expect("a fault-free run in a valid window completes")
        };
        run(rates[0]);
        for &rate in rates {
            let (walls, (a, b)) = time_pair(
                || run(rate),
                || {
                    reference
                        .run(net, pattern, rate)
                        .expect("a run in a valid window completes")
                },
            );
            assert_eq!(a, b, "engines diverged on {} at rate {rate}", net.name());
            let grid = format!("{}/{rate}", net.name());
            rows.push(BenchRow::new("noc", grid, 1, a.packets, &walls));
        }
    }
    rows
}

// ----------------------------------------------------------------- core

/// The design grid on Table 3's Skylake-class structure sizes: widths
/// {2, 4, 8} × frontend depths {6, 9, 12} × bypass {1, 2} (the
/// CryoCore/CryoSP axes); the smoke grid keeps widths {4, 8} × depths
/// {6, 9} × bypass {1, 2}, every axis still represented.
fn core_grid(smoke: bool) -> Vec<(String, CoreConfig)> {
    let (widths, depths, bypasses): (&[usize], &[u32], &[u32]) = if smoke {
        (&[4, 8], &[6, 9], &[1, 2])
    } else {
        (&[2, 4, 8], &[6, 9, 12], &[1, 2])
    };
    let mut grid = Vec::new();
    for &frontend_depth in depths {
        for &width in widths {
            for &bypass_cycles in bypasses {
                grid.push((
                    format!("w{width}-d{frontend_depth}-b{bypass_cycles}"),
                    CoreConfig {
                        width,
                        frontend_depth,
                        bypass_cycles,
                        ..CoreConfig::skylake_8_wide()
                    },
                ));
            }
        }
    }
    grid
}

/// One row per design point, all on one shared PARSEC-like trace and
/// one [`CoreScratch`] warmed over the whole grid outside the timed
/// region — how the experiment sweeps run the engine.
fn core_rows(insts: usize, grid: &[(String, CoreConfig)]) -> Vec<BenchRow> {
    let trace = TraceArena::global().get(&TraceConfig::parsec_like(), insts, SEED);
    let mut scratch = CoreScratch::new();
    for (_, cfg) in grid {
        let _ = CoreSimulator::new(*cfg).run_with_scratch(&trace, &mut scratch);
    }
    grid.iter()
        .map(|(name, cfg)| {
            let optimized = CoreSimulator::new(*cfg);
            let reference = ReferenceCoreSimulator::new(*cfg);
            let (walls, (a, b)) = time_pair(
                || optimized.run_with_scratch(&trace, &mut scratch),
                || reference.run(&trace),
            );
            assert_eq!(a, b, "engines diverged on design point {name}");
            BenchRow::new("core", name.clone(), 1, insts as u64, &walls)
        })
        .collect()
}

// ------------------------------------------------------------ coherence

/// Engine × workload points. The full grid crosses the three engines
/// with three sharing profiles — streamcluster (barrier-heavy),
/// blackscholes (producer-consumer) and deepsjeng (private streaming);
/// the smoke grid keeps the barrier-heavy column, which carries the §6
/// claim.
fn coherence_grid(smoke: bool) -> Vec<(EngineKind, Workload)> {
    let parsec = |name| Workload::parsec_by_name(name).expect("known PARSEC workload");
    let mut workloads = vec![parsec("streamcluster")];
    if !smoke {
        let deepsjeng = Workload::spec()
            .into_iter()
            .find(|w| w.name == "deepsjeng")
            .expect("known SPEC workload");
        workloads.extend([parsec("blackscholes"), deepsjeng]);
    }
    workloads
        .iter()
        .flat_map(|w| EngineKind::ALL.map(|e| (e, w.clone())))
        .collect()
}

/// Runs one lane through the frozen hash-map engine with a fresh
/// scratch, the way the pre-arena scalar path ran every grid point.
fn run_reference(kind: EngineKind, config: CoherenceConfig, trace: &AccessTrace) -> RunOutcome {
    let t77 = Temperature::liquid_nitrogen();
    let mem = MemoryDesign::mem_77k();
    let mut scratch = BaselineScratch::new();
    match kind {
        EngineKind::MesiSnoopCryoBus | EngineKind::DragonSnoopCryoBus => {
            let bus = CryoBus::new(64, t77);
            let fabric = SnoopFabric::CryoBus(&bus);
            baseline::run_snooping(config, trace, fabric, &mem, None, &mut scratch)
        }
        EngineKind::MesiDirectoryMesh => {
            let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, t77);
            baseline::run_directory(config, trace, &mesh, 5.44, &mem, None, &mut scratch)
        }
    }
    .expect("clean reference run completes")
}

/// One row per (engine, workload) — a whole geometry grid per timed
/// pass — with lane 0's average miss latency in ns. Every lane's
/// outcome, metrics *and* commit log, must match the frozen engine's,
/// and lane 0's log must replay through the hop-count references.
fn coherence_rows(
    accesses_per_core: usize,
    grid: &[(EngineKind, Workload)],
) -> Vec<(BenchRow, f64)> {
    let geometries = coherence_geometries();
    grid.iter()
        .map(|(kind, workload)| {
            let trace = coherence_trace(workload, accesses_per_core);
            // Recorded: the identity check compares the logs and lane 0's
            // replays through the hop-count references.
            let lanes: Vec<CoherenceConfig> = geometries
                .iter()
                .map(|(_, g)| CoherenceConfig {
                    record_commits: true,
                    ..lane_config(*kind, *g)
                })
                .collect();
            let (system, clock_ghz) = build_system(*kind, lanes[0].geometry);
            let mut scratch = CoherenceScratch::new();
            // Warm the scratch outside the timed region: arenas, caches,
            // arbiters and the completion heap reach steady-state shape.
            let _ = system.run_batch_with(&trace, &lanes, None, &mut scratch);
            let (walls, (optimized, reference)) = time_pair(
                || system.run_batch_with(&trace, &lanes, None, &mut scratch),
                || {
                    lanes
                        .iter()
                        .map(|cfg| run_reference(*kind, *cfg, &trace))
                        .collect::<Vec<_>>()
                },
            );
            let label = format!("{}/{}", kind.name(), workload.name);
            let optimized: Vec<RunOutcome> = optimized
                .into_iter()
                .map(|r| r.expect("clean benchmark lane completes"))
                .collect();
            for ((geometry, _), (opt, base)) in
                geometries.iter().zip(optimized.iter().zip(&reference))
            {
                assert_eq!(opt, base, "engines diverged on lane {geometry} of {label}");
            }
            // Lane 0 (no evictions) must replay version-identically
            // through the hop-count references, with equal traffic.
            let out = &optimized[0];
            let m = &out.metrics;
            match kind {
                EngineKind::MesiSnoopCryoBus => {
                    let cost = replay_snooping(&out.commits, COHERENCE_CORES)
                        .expect("snoop replay diverged");
                    assert_eq!(cost.bus_transactions, m.bus_transactions, "{label}");
                }
                EngineKind::MesiDirectoryMesh => {
                    let cost = replay_directory(&out.commits, COHERENCE_CORES)
                        .expect("directory replay diverged");
                    assert_eq!(cost.network_messages, m.network_messages, "{label}");
                }
                EngineKind::DragonSnoopCryoBus => {
                    // Dragon updates are not invalidations, so only the
                    // version semantics carry over.
                    replay_snooping(&out.commits, COHERENCE_CORES).expect("dragon replay diverged");
                }
            }
            let work = optimized.iter().map(|o| o.metrics.accesses).sum();
            let row = BenchRow::new("coherence", label, lanes.len(), work, &walls);
            (row, avg_miss_ns(m, clock_ghz))
        })
        .collect()
}

// ---------------------------------------------------------------- batch

/// One row for a whole config grid on one shared trace: one
/// [`run_batch_into`] pass against one scalar run per config with a
/// fresh scratch each, per-lane bit-identity asserted. One untimed
/// scalar run decodes the trace first, so no repetition times the
/// decode.
fn batch_row(name: &str, grid: &[(String, CoreConfig)], insts: usize) -> BenchRow {
    let trace = TraceArena::global().get(&TraceConfig::parsec_like(), insts, SEED);
    let configs: Vec<CoreConfig> = grid.iter().map(|(_, c)| *c).collect();
    let _ = CoreSimulator::new(configs[0]).run_with_scratch(&trace, &mut CoreScratch::new());
    let (walls, (batched, scalar)) = time_pair(
        || {
            let mut out = Vec::new();
            run_batch_into(&configs, &trace, &mut CoreScratch::new(), &mut out);
            out
        },
        || {
            configs
                .iter()
                .map(|cfg| {
                    CoreSimulator::new(*cfg).run_with_scratch(&trace, &mut CoreScratch::new())
                })
                .collect::<Vec<_>>()
        },
    );
    for ((lane, _), (a, b)) in grid.iter().zip(scalar.iter().zip(&batched)) {
        assert_eq!(a, b, "engines diverged on lane {lane} of {name}");
    }
    let work = (insts * configs.len()) as u64;
    BenchRow::new("batch", format!("core/{name}"), configs.len(), work, &walls)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noc_rows_beat_the_reference() {
        let config = SimConfig {
            cycles: 6_000,
            warmup: 1_500,
            ..SimConfig::default()
        };
        let (rates, networks) = noc_grid(true);
        let rows = noc_rows(config, &rates, &networks);
        assert_eq!(rows.len(), 4, "2 networks x 2 rates");
        let walls = rows
            .iter()
            .map(|r| (r.wall_ms_baseline, r.wall_ms_optimized));
        let speedup = weighted_speedup(walls);
        assert!(
            speedup > 1.0,
            "memoized engine should beat the reference, got {speedup}"
        );
    }

    #[test]
    fn core_rows_beat_the_reference() {
        let grid = core_grid(true);
        assert_eq!(grid.len(), 8, "2 widths x 2 depths x 2 bypasses");
        let rows = core_rows(30_000, &grid);
        let walls = rows
            .iter()
            .map(|r| (r.wall_ms_baseline, r.wall_ms_optimized));
        let speedup = weighted_speedup(walls);
        assert!(
            speedup > 1.0,
            "ring-buffer engine should beat the reference, got {speedup}"
        );
    }

    #[test]
    fn full_grid_covers_the_design_axes() {
        let grid = core_grid(false);
        assert_eq!(grid.len(), 18, "3 widths x 3 depths x 2 bypasses");
        let widths: std::collections::BTreeSet<_> = grid.iter().map(|(_, c)| c.width).collect();
        assert_eq!(widths.into_iter().collect::<Vec<_>>(), vec![2, 4, 8]);
    }

    #[test]
    fn coherence_rows_match_the_frozen_engine() {
        let grid = coherence_grid(true);
        assert_eq!(grid.len(), 3, "3 engines x 1 workload");
        let rows = coherence_rows(40, &grid);
        for (row, miss_ns) in &rows {
            assert_eq!(row.lanes, 4, "every point runs the geometry lanes");
            assert_eq!(row.work, 4 * 40 * COHERENCE_CORES as u64);
            assert!(row.speedup > 0.0 && row.speedup.is_finite());
            assert!(*miss_ns > 0.0, "{}", row.grid);
        }
    }

    #[test]
    fn full_grid_covers_every_engine_and_sharing_profile() {
        let grid = coherence_grid(false);
        assert_eq!(grid.len(), 9, "3 engines x 3 workloads");
        let engines: std::collections::BTreeSet<_> = grid.iter().map(|(e, _)| e.name()).collect();
        assert_eq!(engines.len(), 3);
        let workloads: std::collections::BTreeSet<_> = grid.iter().map(|(_, w)| w.name).collect();
        assert_eq!(workloads.len(), 3);
    }

    #[test]
    fn batch_rows_are_bit_identical() {
        // Small trace: this checks identity and shape, not the speedup
        // claim (the gate measures that).
        let row = batch_row("ipc-validation", &ipc_validation_grid(), 40_000);
        assert_eq!(row.lanes, 5, "ipc grid has five configs");
        assert_eq!(row.work, 5 * 40_000);
        let row = batch_row("design-grid", &core_grid(true), 40_000);
        assert_eq!(row.lanes, 8);
    }

    #[test]
    fn gate_figure_is_the_median_repetition() {
        // Two rows of three repetitions. Repetition 1 is a slow spell of
        // the baseline in row a, repetition 2 one of the optimized pass
        // in row b; the figure is the middle repetition's wall-time
        // weighted ratio, which neither spell reaches.
        let a = BenchRow::new(
            "noc",
            "a".into(),
            1,
            1,
            &[(1.0, 4.0), (1.0, 9.0), (1.0, 4.0)],
        );
        let b = BenchRow::new(
            "noc",
            "b".into(),
            1,
            1,
            &[(1.0, 4.0), (1.0, 4.0), (3.0, 4.0)],
        );
        assert_eq!((a.wall_ms_optimized, a.wall_ms_baseline), (1e3, 4e3));
        assert_eq!(a.reps_ms[1], (1e3, 9e3));
        assert_eq!((a.speedup, b.speedup), (4.0, 4.0));
        let run = BenchEngines {
            smoke: true,
            noc_cycles: 30_000,
            core_insts: 1,
            coherence_accesses_per_core: 1,
            batch_insts: 1,
            rows: vec![a, b],
            barrier_snoop_ns: 1.0,
            barrier_directory_ns: 2.0,
        };
        // Per repetition: 8/2, 13/2, 8/4.
        assert_eq!(run.speedup("noc"), 4.0);
    }

    #[test]
    fn json_round_trips_the_gate_figures() {
        let row = |domain, optimized_s, baseline_s| {
            BenchRow::new(domain, "g".into(), 1, 1_000, &[(optimized_s, baseline_s)])
        };
        let run = BenchEngines {
            smoke: true,
            noc_cycles: 30_000,
            core_insts: 6_000_000,
            coherence_accesses_per_core: 400,
            batch_insts: 1_500_000,
            rows: vec![
                row("noc", 1.0, 3.0),
                row("noc", 1.0, 5.0),
                row("core", 2.0, 4.0),
                row("coherence", 1.0, 2.5),
                row("batch", 1.0, 1.5),
            ],
            barrier_snoop_ns: 3.0,
            barrier_directory_ns: 6.0,
        };
        let speedups = run.speedups();
        assert_eq!(
            speedups,
            vec![
                ("noc", 4.0),
                ("core", 2.0),
                ("coherence", 2.5),
                ("batch", 1.5)
            ]
        );
        assert_eq!(run.claims()[0].1, 1.5);
        assert_eq!(run.claims()[1].1, 2.0);
        let text = serde_json::to_string(&bench_engines_json(&run)).expect("serializes");
        let doc = serde_json::from_str(&text).expect("parses");
        assert!(cryowire_bench::gate(&speedups, &run.claims(), Some(&doc)).is_ok());
        let slower: Vec<_> = speedups.iter().map(|&(d, s)| (d, s * 0.7)).collect();
        let err = cryowire_bench::gate(&slower, &run.claims(), Some(&doc)).unwrap_err();
        assert_eq!(err.matches("speedup regression").count(), 4, "{err}");
        assert_eq!(
            doc.get("rows").and_then(Value::as_array).map(<[_]>::len),
            Some(5)
        );
    }
}
