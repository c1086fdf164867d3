//! The `bench-batch` throughput benchmark behind `BENCH_batch.json`.
//!
//! Times the batched engines against per-point scalar execution of the
//! same grids:
//!
//! * **Core**: [`cryowire_ooo::run_batch_into`] steps every
//!   configuration of a grid through one structure-of-arrays loop over
//!   the shared trace — decode is resolved once per trace element and
//!   broadcast to all lanes, and the independent lanes give the host
//!   pipeline instruction-level parallelism the scalar recurrence's
//!   serial dependency chain cannot. The grids are the ipc-validation
//!   configurations (Table 3's column) and the `bench-core` design
//!   grid.
//! * **NoC**: each rate of an injection-rate grid runs through
//!   [`cryowire_noc::Simulator::run_with_scratch`] on one scratch, so a
//!   routing [`PathTable`] is built once per (network, dead-set) for
//!   the entire grid. The smoke grid's two 64-node meshes walk their
//!   next-hop table and build no `PathTable`, so there is nothing to
//!   reuse and their rows read about 1×.
//!
//! The scalar baseline is the zero-allocation scalar engine executed
//! the way the harness's scalar path executes a grid: one fresh scratch
//! per point (a scratch cannot be shared across worker threads), so
//! trace decode and route construction are paid once per point where
//! the batched engine pays them once per grid. Per-point wall times of
//! both passes are recorded so the amortization is visible in the rows.
//!
//! Bit-identity is a hard invariant, asserted twice while timing: every
//! batched lane must equal its scalar run exactly, and a harness sweep
//! over the core grid evaluated through [`Sweep::run_batched`] (grouped
//! by the content-keyed [`TraceArena`] element identity) must produce
//! the byte-identical canonical artifact of the scalar [`Sweep::run`]
//! at 1 and N threads.
//!
//! [`PathTable`]: cryowire_noc::PathTable

use std::time::Instant;

use cryowire_bench::{bench_value, speedup_stats};
use cryowire_faults::FaultSchedule;
use cryowire_harness::{Sweep, SweepSpec};
use cryowire_noc::{Network, NocError, SimConfig, SimError, SimScratch, Simulator, TrafficPattern};
use cryowire_ooo::{
    run_batch_into, BatchScratch, CoreConfig, CoreMetrics, CoreScratch, CoreSimulator, TraceArena,
    TraceConfig,
};
use serde_json::Value;

use super::{bench_core_grid, bench_noc_grid};

/// Timing repetitions per grid pass; the minimum wall time across
/// repetitions is reported (identical deterministic work each time, so
/// the minimum is the cleanest measurement).
const TIMING_REPS: u32 = 5;

/// One grid measurement: a whole config or rate grid, scalar vs batched.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchBatchPoint {
    /// `domain/grid` label (e.g. `core/ipc-validation`, `noc/mesh-r1`).
    pub name: String,
    /// Engine domain: `core` or `noc`.
    pub domain: String,
    /// Lanes stepped in lockstep (configs or rates in the grid).
    pub lanes: usize,
    /// Wall time of the scalar per-point pass over the grid, ms.
    pub wall_ms_scalar: f64,
    /// Wall time of the batched lockstep pass over the grid, ms.
    pub wall_ms_batched: f64,
    /// Relative speedup (`wall_ms_scalar / wall_ms_batched`).
    pub speedup: f64,
}

/// The full `bench-batch` run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchBatchResult {
    /// Trace length (instructions) of the core grids.
    pub insts: usize,
    /// Trace RNG seed of the core grids.
    pub seed: u64,
    /// Simulated cycles of the NoC rate grids.
    pub cycles: u64,
    /// Warm-up cycles excluded from NoC measurement.
    pub warmup: u64,
    /// Per-grid measurements.
    pub points: Vec<BenchBatchPoint>,
    /// Smallest per-grid speedup.
    pub min_speedup: f64,
    /// Geometric-mean speedup across the grids.
    pub geomean_speedup: f64,
    /// Wall-time-weighted whole-run speedup — total scalar wall time
    /// over total batched wall time. The gating figure.
    pub overall_speedup: f64,
}

/// The ipc-validation configuration grid (Table 3's IPC column plus the
/// pipelined-backend observation point), shared with
/// [`ipc_cross_validation`](super::ipc_cross_validation).
#[must_use]
pub fn ipc_validation_grid() -> Vec<(String, CoreConfig)> {
    vec![
        ("skylake-8w".into(), CoreConfig::skylake_8_wide()),
        ("superpipe-8w".into(), CoreConfig::superpipelined_8_wide()),
        ("cryocore-4w".into(), CoreConfig::cryocore_4_wide()),
        ("cryosp".into(), CoreConfig::cryosp()),
        (
            "skylake-8w-b2".into(),
            CoreConfig::skylake_8_wide().with_bypass_cycles(2),
        ),
    ]
}

/// The NoC rate grid batched per network. The smoke grid widens the
/// two-point `bench-noc` CI rates to six lanes, so the shared route
/// table serves six runs; the full grid is the Fig. 21 injection-rate
/// sweep.
#[must_use]
pub fn bench_batch_rates(smoke: bool) -> Vec<f64> {
    if smoke {
        vec![0.008, 0.016, 0.032, 0.048, 0.064, 0.08]
    } else {
        super::noc_figs::fig21_rates()
    }
}

/// Serializes one CoreMetrics as an artifact value (used by the harness
/// identity cross-check, where scalar and batched sweeps must agree
/// byte-for-byte).
fn metrics_value(m: &CoreMetrics) -> Value {
    Value::Object(vec![
        ("instructions".into(), Value::UInt(m.instructions)),
        ("cycles".into(), Value::UInt(m.cycles)),
        ("branches".into(), Value::UInt(m.branches)),
        ("mispredicts".into(), Value::UInt(m.mispredicts)),
        ("overrides".into(), Value::UInt(m.overrides)),
    ])
}

/// Asserts the tentpole's harness guarantee on a small grid: a sweep
/// evaluated through [`Sweep::run_batched`] — points grouped into one
/// batch job by the content-keyed [`TraceArena`] element identity, run
/// through the lockstep engine, and split back into per-point records —
/// produces the byte-identical canonical artifact of the scalar
/// [`Sweep::run`], at one worker and at several.
fn assert_harness_identity(seed: u64) {
    let insts = 30_000;
    let grid = ipc_validation_grid();
    let trace = TraceArena::global().get(&TraceConfig::parsec_like(), insts, seed);
    // The batching key: the identity of the shared TraceArena element
    // (generator config, length, seed) every point simulates.
    let trace_key = format!("{:?}/{insts}/{seed}", TraceConfig::parsec_like());
    let spec = || {
        SweepSpec::new("bench-batch-identity")
            .axis("config", grid.iter().map(|(name, _)| name.clone()))
    };
    let config_of = |name: &str| -> CoreConfig {
        grid.iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .expect("axis values come from the grid")
    };
    let scalar = Sweep::new(spec())
        .eval_tag("bench-batch/identity/v1")
        .threads(1)
        .run(|point, _| {
            metrics_value(&CoreSimulator::new(config_of(point.str("config"))).run(&trace))
        });
    for threads in [1, 4] {
        let batched = Sweep::new(spec())
            .eval_tag("bench-batch/identity/v1")
            .threads(threads)
            .run_batched(
                |_| trace_key.clone(),
                |_, batch| {
                    let configs: Vec<CoreConfig> = batch
                        .iter()
                        .map(|(point, _)| config_of(point.str("config")))
                        .collect();
                    let mut scratch = BatchScratch::new();
                    let mut out = Vec::new();
                    run_batch_into(&configs, &trace, &mut scratch, &mut out);
                    out.iter().map(metrics_value).collect()
                },
            );
        assert_eq!(
            scalar.canonical_json(),
            batched.canonical_json(),
            "batched artifact diverged from scalar at {threads} thread(s)"
        );
    }
}

/// Times one core config grid: scalar per-point pass (fresh
/// [`CoreScratch`] per config, as the harness's scalar path runs grid
/// points) vs one batched lockstep pass, asserting per-lane
/// bit-identity.
fn core_point(
    name: &str,
    grid: &[(String, CoreConfig)],
    insts: usize,
    seed: u64,
) -> BenchBatchPoint {
    let trace = TraceArena::global().get(&TraceConfig::parsec_like(), insts, seed);
    let configs: Vec<CoreConfig> = grid.iter().map(|(_, c)| *c).collect();
    let mut wall_scalar = f64::INFINITY;
    let mut wall_batched = f64::INFINITY;
    let mut scalar = Vec::new();
    let mut batched = Vec::new();
    for _ in 0..TIMING_REPS {
        let t0 = Instant::now();
        scalar.clear();
        for cfg in &configs {
            let mut scratch = CoreScratch::new();
            scalar.push(CoreSimulator::new(*cfg).run_with_scratch(&trace, &mut scratch));
        }
        wall_scalar = wall_scalar.min(t0.elapsed().as_secs_f64());

        let t1 = Instant::now();
        let mut scratch = BatchScratch::new();
        run_batch_into(&configs, &trace, &mut scratch, &mut batched);
        wall_batched = wall_batched.min(t1.elapsed().as_secs_f64());
    }
    for ((lane_name, _), (a, b)) in grid.iter().zip(scalar.iter().zip(&batched)) {
        assert_eq!(a, b, "engines diverged on lane {lane_name} of {name}");
    }
    BenchBatchPoint {
        name: format!("core/{name}"),
        domain: "core".into(),
        lanes: configs.len(),
        wall_ms_scalar: wall_scalar * 1e3,
        wall_ms_batched: wall_batched * 1e3,
        speedup: wall_scalar / wall_batched.max(1e-12),
    }
}

/// Times one network's rate grid: scalar per-point pass (fresh
/// [`SimScratch`] per rate, as the harness's scalar path runs it) vs one
/// pass looping a single scratch over the grid, asserting per-rate
/// bit-identity.
fn noc_point(
    config: SimConfig,
    net: &dyn Network,
    rates: &[f64],
) -> Result<BenchBatchPoint, NocError> {
    let unfault = |e: SimError| match e {
        SimError::Noc(e) => e,
        _ => unreachable!("no faults injected, the watchdog cannot fire"),
    };
    let empty = FaultSchedule::default();
    let pattern = TrafficPattern::UniformRandom;
    let sim = Simulator::new(config);
    let mut wall_scalar = f64::INFINITY;
    let mut wall_batched = f64::INFINITY;
    let mut scalar = Vec::new();
    let mut batched = Vec::new();
    for _ in 0..TIMING_REPS {
        let t0 = Instant::now();
        scalar.clear();
        for &rate in rates {
            let mut scratch = SimScratch::new();
            scalar.push(
                sim.run_with_scratch(net, pattern, rate, &empty, &mut scratch)
                    .map_err(unfault)?,
            );
        }
        wall_scalar = wall_scalar.min(t0.elapsed().as_secs_f64());

        let t1 = Instant::now();
        batched.clear();
        let mut scratch = SimScratch::new();
        for &rate in rates {
            batched.push(
                sim.run_with_scratch(net, pattern, rate, &empty, &mut scratch)
                    .map_err(unfault)?,
            );
        }
        wall_batched = wall_batched.min(t1.elapsed().as_secs_f64());
    }
    for (&rate, (a, b)) in rates.iter().zip(scalar.iter().zip(&batched)) {
        assert_eq!(a, b, "engines diverged on {} at rate {rate}", net.name());
    }
    Ok(BenchBatchPoint {
        name: format!("noc/{}", net.name()),
        domain: "noc".into(),
        lanes: rates.len(),
        wall_ms_scalar: wall_scalar * 1e3,
        wall_ms_batched: wall_batched * 1e3,
        speedup: wall_scalar / wall_batched.max(1e-12),
    })
}

/// Runs the benchmark: the core config grids and the per-network NoC
/// rate grids, each timed scalar-vs-batched, plus the untimed harness
/// canonical-identity cross-check.
///
/// # Errors
///
/// Returns the validation error of a degenerate NoC `config` before any
/// simulation runs.
///
/// # Panics
///
/// Panics if a batched lane ever diverges from its scalar run, or if
/// the harness's batched artifact is not byte-identical to the scalar
/// one — bit-identity is a hard invariant, not a benchmark result.
pub fn bench_batch(
    insts: usize,
    seed: u64,
    config: SimConfig,
    smoke: bool,
) -> Result<BenchBatchResult, NocError> {
    config.validate()?;
    assert_harness_identity(seed);
    let mut points = vec![
        core_point("ipc-validation", &ipc_validation_grid(), insts, seed),
        core_point("design-grid", &bench_core_grid(smoke), insts, seed),
    ];
    let rates = bench_batch_rates(smoke);
    let (_, networks) = bench_noc_grid(smoke);
    for net in &networks {
        points.push(noc_point(config, net.as_ref(), &rates)?);
    }
    let walls: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.wall_ms_scalar, p.wall_ms_batched))
        .collect();
    let stats = speedup_stats(&walls);
    Ok(BenchBatchResult {
        insts,
        seed,
        cycles: config.cycles,
        warmup: config.warmup,
        points,
        min_speedup: stats.min,
        geomean_speedup: stats.geomean,
        overall_speedup: stats.overall,
    })
}

/// Serializes a run as the `BENCH_batch.json` value, in the shared
/// [`cryowire_bench::bench_value`] schema. The gating figure lives
/// under the same `overall_speedup` key as the other bench artifacts,
/// so [`speedup_from_json`](super::speedup_from_json) reads it.
#[must_use]
pub fn bench_batch_json(result: &BenchBatchResult) -> Value {
    bench_value(
        "batched_lockstep",
        vec![
            ("insts".into(), Value::UInt(result.insts as u64)),
            ("seed".into(), Value::UInt(result.seed)),
            ("cycles".into(), Value::UInt(result.cycles)),
            ("warmup".into(), Value::UInt(result.warmup)),
        ],
        cryowire_bench::SpeedupStats {
            min: result.min_speedup,
            geomean: result.geomean_speedup,
            overall: result.overall_speedup,
        },
        result
            .points
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("name".into(), Value::String(p.name.clone())),
                    ("domain".into(), Value::String(p.domain.clone())),
                    ("lanes".into(), Value::UInt(p.lanes as u64)),
                    ("wall_ms_scalar".into(), Value::Float(p.wall_ms_scalar)),
                    ("wall_ms_batched".into(), Value::Float(p.wall_ms_batched)),
                    ("speedup".into(), Value::Float(p.speedup)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryowire_bench::speedup_from_json;

    #[test]
    fn smoke_run_is_bit_identical_and_round_trips() {
        let config = SimConfig {
            cycles: 4_000,
            warmup: 1_000,
            ..SimConfig::default()
        };
        // Small trace: this test checks identity and schema, not the
        // speedup claim (the bench binary run measures that).
        let r = bench_batch(40_000, 7, config, true).expect("valid config");
        assert_eq!(
            r.points.len(),
            4,
            "2 core grids + 2 smoke networks, got {:?}",
            r.points.iter().map(|p| p.name.clone()).collect::<Vec<_>>()
        );
        assert_eq!(r.points[0].lanes, 5, "ipc grid has five configs");
        let json = bench_batch_json(&r);
        let parsed = serde_json::from_str(&serde_json::to_string(&json).expect("serializes"))
            .expect("parses");
        let got = speedup_from_json(&parsed).expect("has overall_speedup");
        assert!((got - r.overall_speedup).abs() < 1e-9);
    }

    #[test]
    fn degenerate_window_is_rejected_up_front() {
        let config = SimConfig {
            cycles: 1_000,
            warmup: 1_000,
            ..SimConfig::default()
        };
        assert!(matches!(
            bench_batch(10_000, 7, config, true),
            Err(NocError::InvalidSimWindow { .. })
        ));
    }
}
