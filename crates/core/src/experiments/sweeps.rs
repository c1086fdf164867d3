//! Harness-backed design-space sweeps.
//!
//! The grid-shaped experiments of the paper — the Fig. 21 load–latency
//! fan-out, the Fig. 27 temperature sweep and the depth-sweep ablation —
//! re-expressed as [`SweepSpec`]s evaluated through
//! [`cryowire_harness`]: parallel over points, content-addressed cached,
//! and serialized as [`RunArtifact`]s. Each point's value is the
//! experiment's typed point as JSON, so this module's tests hold the
//! harness runs to the legacy single-thread functions value for value.

use cryowire_coherence::{
    AccessTrace, CacheGeometry, CoherenceConfig, CoherenceMetrics, CoherenceScratch,
    CoherenceSystem, Protocol, RunOutcome, SystemFabric, TraceGenConfig,
};
use cryowire_device::Temperature;
use cryowire_faults::{FaultPlan, FaultSchedule};
use cryowire_harness::supervise;
use cryowire_harness::{
    FailureClass, Point, ResultCache, RunArtifact, SupervisePolicy, Sweep, SweepSpec,
};
use cryowire_memory::MemoryDesign;
use cryowire_noc::{
    CryoBus, LoadLatencyCurve, Network, NocKind, RouterClass, RouterNetwork, SharedBus,
    TrafficPattern,
};
use cryowire_pipeline::{sweep_depths, CriticalPathModel, DepthPoint};
use cryowire_system::{EventSimConfig, EventSimulator, SystemDesign, Workload};
use serde_json::Value;
use std::path::Path;
use std::sync::LazyLock;

use super::noc_figs;
use super::temperature::{fig27_point, FIG27_TEMPERATURES};
use super::TemperaturePoint;
use crate::Fidelity;

/// Knobs shared by every harness-backed sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepOptions<'c> {
    /// Worker threads (0 ⇒ one per CPU).
    pub threads: usize,
    /// Optional shared result cache.
    pub cache: Option<&'c ResultCache>,
    /// Supervision policy: retries, deadline, backoff, fail-fast.
    /// The default (one attempt, keep going) is plain panic isolation.
    pub policy: SupervisePolicy,
    /// Optional run journal (crash-safe WAL of completed points).
    pub journal: Option<&'c Path>,
    /// Replay recorded points from the journal instead of starting
    /// it over (meaningless without [`SweepOptions::journal`]).
    pub resume: bool,
}

impl<'c> SweepOptions<'c> {
    /// Serial, uncached.
    #[must_use]
    pub fn serial() -> Self {
        SweepOptions {
            threads: 1,
            ..SweepOptions::default()
        }
    }

    /// `threads` workers, uncached.
    #[must_use]
    pub fn threaded(threads: usize) -> Self {
        SweepOptions {
            threads,
            ..SweepOptions::default()
        }
    }

    /// Attaches a cache.
    #[must_use]
    pub fn with_cache(mut self, cache: &'c ResultCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Sets the supervision policy.
    #[must_use]
    pub fn with_policy(mut self, policy: SupervisePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Journals completed points to `path`; with `resume` the journal
    /// is replayed first and only missing points are evaluated.
    #[must_use]
    pub fn with_journal(mut self, path: &'c Path, resume: bool) -> Self {
        self.journal = Some(path);
        self.resume = resume;
        self
    }

    fn build(self, spec: SweepSpec, tag: &str, seed: u64) -> Sweep<'c> {
        let mut sweep = Sweep::new(spec)
            .eval_tag(tag)
            .base_seed(seed)
            .supervise(self.policy);
        sweep = if self.threads == 0 {
            sweep.executor(cryowire_harness::Executor::per_cpu())
        } else {
            sweep.threads(self.threads)
        };
        if let Some(cache) = self.cache {
            sweep = sweep.cache(cache);
        }
        if let Some(path) = self.journal {
            sweep = if self.resume {
                sweep.resume(path)
            } else {
                sweep.journal(path)
            };
        }
        sweep
    }
}

// ---------------------------------------------------------------- fig27

/// The Fig. 27 grid: one axis over the paper's eight temperatures.
#[must_use]
pub fn fig27_spec() -> SweepSpec {
    SweepSpec::new("fig27-temperature").axis("temperature_k", FIG27_TEMPERATURES)
}

fn temperature_point_value(p: &TemperaturePoint) -> Value {
    Value::Object(vec![
        ("temperature_k".into(), Value::Float(p.temperature_k)),
        ("frequency_ghz".into(), Value::Float(p.frequency_ghz)),
        ("v_dd".into(), Value::Float(p.v_dd)),
        ("device_power".into(), Value::Float(p.device_power)),
        ("cooling_overhead".into(), Value::Float(p.cooling_overhead)),
        ("total_power".into(), Value::Float(p.total_power)),
        ("performance".into(), Value::Float(p.performance)),
        ("perf_per_power".into(), Value::Float(p.perf_per_power)),
    ])
}

/// Runs Fig. 27 through the harness.
#[must_use]
pub fn fig27_sweep_artifact(opts: SweepOptions<'_>) -> RunArtifact {
    opts.build(fig27_spec(), "fig27/v1", 0)
        .run(|point, _seed| temperature_point_value(&fig27_point(point.f64("temperature_k"))))
}

// ------------------------------------------------------------ depth grid

/// Linearly spaced temperatures spanning 77 K .. 300 K.
#[must_use]
pub fn linspace_temperatures(n: usize) -> Vec<f64> {
    assert!(n >= 2, "need at least the two endpoints");
    (0..n)
        .map(|i| 77.0 + (300.0 - 77.0) * i as f64 / (n - 1) as f64)
        .collect()
}

/// A temperature × pipeline-depth grid over the generalized Section 4.4
/// depth transform.
#[must_use]
pub fn depth_grid_spec(temperatures: &[f64], max_split: i64) -> SweepSpec {
    SweepSpec::new("depth-temperature")
        .axis("temperature_k", temperatures.iter().copied())
        .axis("max_split", 1..=max_split)
}

fn depth_point_value(p: &DepthPoint) -> Value {
    Value::Object(vec![
        ("max_split".into(), Value::UInt(p.max_split as u64)),
        ("added_stages".into(), Value::UInt(p.added_stages as u64)),
        ("frequency_ghz".into(), Value::Float(p.frequency_ghz)),
        ("ipc_factor".into(), Value::Float(p.ipc_factor)),
        ("net_performance".into(), Value::Float(p.net_performance)),
    ])
}

/// The paper's critical-path model, built once per process: every depth
/// point reads it, and building it evaluates the 300 K device terms.
static DEPTH_MODEL: LazyLock<CriticalPathModel> = LazyLock::new(CriticalPathModel::boom_skylake);

/// The per-point evaluator of the depth grid: the [`DepthPoint`] at
/// (`temperature_k`, `max_split`), matching `sweep_depths`'s entry for
/// that split exactly. Every point reads one shared
/// [`CriticalPathModel::boom_skylake`], so a point evaluates the device
/// models only at its own temperature.
///
/// # Panics
///
/// Panics if the point's temperature is outside the device model.
#[must_use]
pub fn depth_grid_eval(point: &Point) -> Value {
    let t = Temperature::new(point.f64("temperature_k")).expect("valid sweep temperature");
    let split = usize::try_from(point.i64("max_split")).expect("positive split");
    let pt = sweep_depths(&DEPTH_MODEL, t, split)
        .pop()
        .expect("non-empty depth sweep");
    depth_point_value(&pt)
}

/// Runs a depth grid through the harness. The evaluator tag is shared by
/// every depth grid, so e.g. the ablation's {77 K, 300 K} points and a
/// 16-temperature binary sweep hit the same cache entries.
#[must_use]
pub fn depth_sweep_artifact(spec: SweepSpec, opts: SweepOptions<'_>) -> RunArtifact {
    opts.build(spec, "depth-grid/v1", 0)
        .run(|point, _seed| depth_grid_eval(point))
}

/// The depth-sweep ablation's grid: {77 K, 300 K} × splits 1..=4.
#[must_use]
pub fn ablation_depth_spec() -> SweepSpec {
    depth_grid_spec(&[77.0, 300.0], 4)
}

// ----------------------------------------------------------------- fig21

/// Stable identifiers for the nine Fig. 21 networks, in figure order.
pub const FIG21_NETWORKS: [&str; 9] = [
    "mesh-r1",
    "mesh-r3",
    "cmesh-r1",
    "cmesh-r3",
    "fbfly-r1",
    "fbfly-r3",
    "bus",
    "cryobus",
    "cryobus-2way",
];

fn network_77k(id: &str) -> Box<dyn Network + Sync> {
    let t77 = Temperature::liquid_nitrogen();
    let mk = |kind, class| -> Box<dyn Network + Sync> {
        Box::new(RouterNetwork::new(kind, 64, class, t77).expect("valid 64-core networks"))
    };
    match id {
        "mesh-r1" => mk(NocKind::Mesh, RouterClass::OneCycle),
        "mesh-r3" => mk(NocKind::Mesh, RouterClass::ThreeCycle),
        "cmesh-r1" => mk(NocKind::CMesh, RouterClass::OneCycle),
        "cmesh-r3" => mk(NocKind::CMesh, RouterClass::ThreeCycle),
        "fbfly-r1" => mk(NocKind::FlattenedButterfly, RouterClass::OneCycle),
        "fbfly-r3" => mk(NocKind::FlattenedButterfly, RouterClass::ThreeCycle),
        "bus" => Box::new(SharedBus::new(64, t77)),
        "cryobus" => Box::new(CryoBus::new(64, t77)),
        "cryobus-2way" => Box::new(CryoBus::two_way(64, t77)),
        other => panic!("unknown fig21 network id `{other}`"),
    }
}

fn curve_value(c: &LoadLatencyCurve) -> Value {
    Value::Object(vec![
        ("network".into(), Value::String(c.network.clone())),
        (
            "points".into(),
            Value::Array(
                c.points
                    .iter()
                    .map(|p| {
                        Value::Object(vec![
                            ("rate".into(), Value::Float(p.rate)),
                            ("latency".into(), Value::Float(p.latency)),
                            ("saturated".into(), Value::Bool(p.saturated)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The Fig. 21 grid: one text axis over the network identifiers. Each
/// point's value is that network's full load–latency curve.
#[must_use]
pub fn fig21_spec() -> SweepSpec {
    SweepSpec::new("fig21-load-latency").axis("network", FIG21_NETWORKS)
}

/// Runs Fig. 21 (uniform random, 77 K) through the harness.
#[must_use]
pub fn fig21_sweep_artifact(fidelity: Fidelity, opts: SweepOptions<'_>) -> RunArtifact {
    let tag = match fidelity {
        Fidelity::Quick => "fig21/quick/v1",
        Fidelity::Full => "fig21/full/v1",
    };
    opts.build(fig21_spec(), tag, 0).run(move |point, _seed| {
        let net = network_77k(point.str("network"));
        let curve = noc_figs::sweep(fidelity, noc_figs::fig21_rates())
            .run(
                net.as_ref(),
                TrafficPattern::UniformRandom,
                &FaultSchedule::default(),
            )
            .expect("valid sweep");
        curve_value(&curve)
    })
}

// ------------------------------------------------------- coherence grid

/// Accesses per core of the coherence grid sweep's shared trace.
pub const COHERENCE_SWEEP_ACCESSES: usize = 200;

/// Cores driven by every coherence trace.
pub(crate) const COHERENCE_CORES: usize = 8;

/// The engine axis of the coherence grids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// MESI snooping over the CryoBus at 77 K.
    MesiSnoopCryoBus,
    /// MESI with a static-home directory over the 64-node mesh.
    MesiDirectoryMesh,
    /// Dragon (update-based) snooping over the CryoBus at 77 K.
    DragonSnoopCryoBus,
}

impl EngineKind {
    /// The full engine axis, in grid order.
    pub const ALL: [EngineKind; 3] = [
        EngineKind::MesiSnoopCryoBus,
        EngineKind::MesiDirectoryMesh,
        EngineKind::DragonSnoopCryoBus,
    ];

    /// Display name used in point labels and artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::MesiSnoopCryoBus => "mesi-snoop-cryobus",
            EngineKind::MesiDirectoryMesh => "mesi-directory-mesh",
            EngineKind::DragonSnoopCryoBus => "dragon-snoop-cryobus",
        }
    }

    /// Inverse of [`EngineKind::name`] for axis values.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`EngineKind::ALL`].
    #[must_use]
    pub fn by_name(name: &str) -> EngineKind {
        *EngineKind::ALL
            .iter()
            .find(|e| e.name() == name)
            .unwrap_or_else(|| panic!("unknown coherence engine `{name}`"))
    }

    fn protocol(self) -> Protocol {
        match self {
            EngineKind::MesiDirectoryMesh | EngineKind::MesiSnoopCryoBus => Protocol::Mesi,
            EngineKind::DragonSnoopCryoBus => Protocol::Dragon,
        }
    }
}

/// The private-cache geometry lanes of every coherence grid point: the
/// no-eviction geometry first (its lane carries the replay cross-check
/// and the §6 miss latency — capacity misses would add
/// reference-visible refetch traffic), then three finite caches down to
/// a thrash-prone 4 KB.
#[must_use]
pub fn coherence_geometries() -> [(&'static str, CacheGeometry); 4] {
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

/// Inverse of the [`coherence_geometries`] name column.
///
/// # Panics
///
/// Panics on a name outside that column.
#[must_use]
pub fn geometry_by_name(name: &str) -> CacheGeometry {
    coherence_geometries()
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, g)| *g)
        .unwrap_or_else(|| panic!("unknown coherence geometry `{name}`"))
}

/// The sharing trace every coherence grid replays for `workload`: its
/// calibrated sharing pattern over 8 cores, with `accesses_per_core`
/// accesses each and a fixed seed.
///
/// # Panics
///
/// Panics if the calibrated generator rejects its own configuration.
#[must_use]
pub fn coherence_trace(workload: &Workload, accesses_per_core: usize) -> AccessTrace {
    TraceGenConfig::from_workload(workload, COHERENCE_CORES, accesses_per_core, 0xC0_11E5)
        .generate()
        .expect("workload trace generates")
}

/// The config of one geometry lane of `kind`. It records no commit log:
/// the grid reports only the log's length, which
/// [`CoherenceMetrics::accesses`] already counts (see [`outcome_value`]).
pub(crate) fn lane_config(kind: EngineKind, geometry: CacheGeometry) -> CoherenceConfig {
    CoherenceConfig {
        protocol: kind.protocol(),
        geometry,
        ..CoherenceConfig::default()
    }
}

/// Builds the 77 K system `kind` runs on; returns it with the fabric
/// clock in GHz. Each run passes its own lane config. Directory
/// construction builds the fault-free path table once here, shared by
/// every lane run through the system.
///
/// # Panics
///
/// Panics if the fixed 77 K fabrics fail to build.
#[must_use]
pub fn build_system(kind: EngineKind) -> (CoherenceSystem, f64) {
    let t77 = Temperature::liquid_nitrogen();
    let mem = MemoryDesign::mem_77k();
    match kind {
        EngineKind::MesiSnoopCryoBus | EngineKind::DragonSnoopCryoBus => {
            let bus = CryoBus::new(64, t77);
            let clock = bus.clock_ghz();
            let system = CoherenceSystem::snooping(SystemFabric::CryoBus(bus), mem)
                .expect("the CryoBus is a snooping fabric");
            (system, clock)
        }
        EngineKind::MesiDirectoryMesh => {
            let network = RouterNetwork::mesh64(RouterClass::OneCycle, t77);
            let system = CoherenceSystem::directory(network, 5.44, mem)
                .expect("the 64-node mesh prices its paths");
            (system, 5.44)
        }
    }
}

/// Average nanoseconds a miss spends beyond its 1-cycle issue, at a
/// fabric clock of `clock_ghz`.
#[must_use]
pub fn avg_miss_ns(m: &CoherenceMetrics, clock_ghz: f64) -> f64 {
    (m.total_latency_cycles - m.hits) as f64 / m.misses.max(1) as f64 / clock_ghz
}

/// One lane outcome as a grid point's value: every deterministic
/// counter plus the commit count. A completed lane commits each access
/// exactly once, so the count is [`CoherenceMetrics::accesses`] whether
/// or not the lane recorded its commit log.
#[must_use]
pub fn outcome_value(out: &RunOutcome) -> Value {
    let m = &out.metrics;
    Value::Object(vec![
        ("accesses".into(), Value::UInt(m.accesses)),
        ("hits".into(), Value::UInt(m.hits)),
        ("misses".into(), Value::UInt(m.misses)),
        ("upgrades".into(), Value::UInt(m.upgrades)),
        ("bus_transactions".into(), Value::UInt(m.bus_transactions)),
        ("network_messages".into(), Value::UInt(m.network_messages)),
        ("updates".into(), Value::UInt(m.updates)),
        ("invalidations".into(), Value::UInt(m.invalidations)),
        ("c2c_transfers".into(), Value::UInt(m.c2c_transfers)),
        ("fills".into(), Value::UInt(m.fills)),
        ("writebacks".into(), Value::UInt(m.writebacks)),
        ("evictions".into(), Value::UInt(m.evictions)),
        ("cycles".into(), Value::UInt(m.cycles)),
        (
            "total_latency_cycles".into(),
            Value::UInt(m.total_latency_cycles),
        ),
        ("commits".into(), Value::UInt(m.accesses)),
    ])
}

/// The coherence grid: engine × private-cache geometry, every point
/// replaying the same barrier-heavy (streamcluster) trace. Points of
/// one engine share the trace *and* the fabric, so the harness groups
/// them into one batch per engine ([`coherence_sweep_artifact`]).
#[must_use]
pub fn coherence_spec() -> SweepSpec {
    SweepSpec::new("coherence-geometry")
        .axis(
            "engine",
            EngineKind::ALL.iter().map(|e| e.name().to_string()),
        )
        .axis(
            "geometry",
            coherence_geometries().iter().map(|(n, _)| (*n).to_string()),
        )
}

/// Runs the coherence grid through [`Sweep::run_batched`]: points
/// grouped by engine (the shared trace + fabric content key), each
/// group's unresolved points evaluated as geometry lanes of one
/// [`CoherenceSystem`], run one after another over a single warm
/// [`CoherenceScratch`] and the system's directory path table. The
/// lanes record no commit log (32 bytes per access per lane, held until
/// the batch returns); each point's `commits` field is the lane's
/// access count, the log's length on every completed lane.
/// Journaling, resume, caching and supervision all apply per *point*,
/// through the same dispatch path as a scalar sweep: a lane's record is
/// indistinguishable from a scalar evaluation, cache hits are journaled
/// like evaluated lanes, and a cached or resumed run batches only the
/// lanes the cache and the journal did not answer, so the canonical
/// artifact stays byte-identical to an uninterrupted (or scalar) run at
/// any thread count.
///
/// # Panics
///
/// Panics if `accesses_per_core` is 0: the trace generator needs at
/// least one access per core.
#[must_use]
pub fn coherence_sweep_artifact(accesses_per_core: usize, opts: SweepOptions<'_>) -> RunArtifact {
    let workload = Workload::parsec_by_name("streamcluster").expect("known workload");
    let trace = coherence_trace(&workload, accesses_per_core);
    opts.build(coherence_spec(), "coherence-grid/v1", 0)
        .run_batched(
            |point| point.str("engine").to_string(),
            |key, batch| {
                let kind = EngineKind::by_name(key);
                let (system, _) = build_system(kind);
                let mut scratch = CoherenceScratch::new();
                batch
                    .iter()
                    .map(|(point, _)| {
                        let lane = lane_config(kind, geometry_by_name(point.str("geometry")));
                        let out = system.run(&trace, &lane, None, &mut scratch);
                        outcome_value(&out.expect("clean lane completes"))
                    })
                    .collect()
            },
        )
}

// -------------------------------------------------------------- degraded

/// Scenario identifiers of the degraded-operation sweep, in axis order.
///
/// Every scenario runs the closed-loop event simulation of the
/// CryoSP + 2-way CryoBus system on PARSEC streamcluster; the fault
/// scenarios degrade it without stopping it:
///
/// * `nominal` — no faults, the Fig. 23 baseline.
/// * `transient-120k` — a cooling transient raises the 77 K operating
///   point to 120 K for the middle half of the run; the critical-path
///   and wire-link models re-derive slower clocks.
/// * `link-loss` — one of the two interleaved CryoBus ways dies; the
///   dynamic link connection keeps the survivor broadcasting.
/// * `combined` — both at once.
pub const DEGRADED_SCENARIOS: [&str; 4] = ["nominal", "transient-120k", "link-loss", "combined"];

/// Horizon of the degraded-operation event simulation, nominal NoC
/// cycles (20 µs at the 4 GHz NoC clock — the time base fault
/// schedules are expressed in).
pub const DEGRADED_HORIZON_CYCLES: u64 = 80_000;

/// Deliberate failure points appended to the degraded grid to exercise
/// the harness's supervision layer end-to-end (the sweep binary's
/// `--inject-*` flags and the chaos CI job):
///
/// * `panic` — panics with an untyped message; isolation only, never
///   retried under the default policy.
/// * `flaky` — fails with a transient typed I/O fault on the first
///   attempt and heals on retry ([`supervise::current_attempt`]).
/// * `poison` — fails with a transient typed I/O fault on *every*
///   attempt; exhausts any retry budget and is quarantined.
/// * `wedge` — spins calling [`supervise::checkpoint`] until the
///   cooperative deadline converts it into a typed `Timeout` (bounded
///   at 5 s so a deadline-less run still terminates, as `Stalled`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectFaults {
    /// Append the `panic` point.
    pub panic: bool,
    /// Append the `flaky` point.
    pub flaky: bool,
    /// Append the `poison` point.
    pub poison: bool,
    /// Append the `wedge` point.
    pub wedge: bool,
}

/// The degraded-operation grid: one text axis over the scenarios, plus
/// whichever deliberate-failure points [`InjectFaults`] asks for — the
/// harness's per-point isolation keeps the rest of the run intact
/// (exercised by the sweep binary's `--inject-*` flags and the
/// robustness tests).
#[must_use]
pub fn degraded_spec(inject: InjectFaults) -> SweepSpec {
    let mut spec = SweepSpec::new("degraded-operation").axis("scenario", DEGRADED_SCENARIOS);
    for (on, scenario) in [
        (inject.panic, "panic"),
        (inject.flaky, "flaky"),
        (inject.poison, "poison"),
        (inject.wedge, "wedge"),
    ] {
        if on {
            spec = spec.point(Point::from_pairs([("scenario", scenario)]));
        }
    }
    spec
}

/// The fault plan of one degraded-operation scenario, rooted at `seed`
/// (the harness's per-point seed, so 1-thread and N-thread runs expand
/// bit-identical schedules). Resources 0 and 1 are the two interleaved
/// ways of the 2-way CryoBus.
#[must_use]
pub fn degraded_plan(scenario: &str, seed: u64) -> FaultPlan {
    let plan = FaultPlan::new(seed);
    match scenario {
        "nominal" => plan,
        "transient-120k" => plan.cooling_transient(120.0, 0.25, 0.5),
        "link-loss" => plan.link_failures(1, &[0, 1]),
        "combined" => plan
            .cooling_transient(120.0, 0.25, 0.5)
            .link_failures(1, &[0, 1]),
        other => panic!("unknown degraded scenario `{other}`"),
    }
}

/// The per-point evaluator of the degraded sweep.
///
/// # Panics
///
/// Panics on the deliberate [`InjectFaults`] scenarios (that is their
/// purpose) and on unknown scenario names.
#[must_use]
pub fn degraded_eval(point: &Point, seed: u64) -> Value {
    let scenario = point.str("scenario");
    assert_ne!(
        scenario, "panic",
        "injected panic point (--inject-panic): the sweep must survive this"
    );
    match scenario {
        "flaky" => {
            if supervise::current_attempt() == 1 {
                supervise::fail(
                    FailureClass::Io,
                    "injected transient I/O fault (--inject-flaky): heals on retry",
                );
            }
            return Value::Object(vec![
                ("scenario".into(), Value::String(scenario.to_string())),
                ("healed".into(), Value::Bool(true)),
            ]);
        }
        "poison" => supervise::fail(
            FailureClass::Io,
            "injected poison point (--inject-poison): fails on every attempt",
        ),
        "wedge" => {
            // Spin until the cooperative deadline trips; bounded so a
            // run without --deadline-ms still terminates (as Stalled).
            let t0 = std::time::Instant::now();
            while t0.elapsed() < std::time::Duration::from_secs(5) {
                supervise::checkpoint();
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            supervise::fail(
                FailureClass::Stalled,
                "injected wedge point (--inject-wedge): no deadline armed within 5 s",
            );
        }
        _ => {}
    }
    let schedule = degraded_plan(scenario, seed).schedule(DEGRADED_HORIZON_CYCLES);
    let sim = EventSimulator::new(EventSimConfig {
        horizon_ns: 20_000.0,
        seed,
        watchdog_blocked_accesses: 2_000,
    });
    let workload = Workload::parsec_by_name("streamcluster").expect("known workload");
    let design = SystemDesign::cryosp_cryobus_2way();
    match sim.simulate_with_faults(&workload, &design, &schedule) {
        Ok(m) => Value::Object(vec![
            ("scenario".into(), Value::String(scenario.to_string())),
            ("stalled".into(), Value::Bool(false)),
            ("perf_per_core".into(), Value::Float(m.perf_per_core)),
            ("instructions".into(), Value::UInt(m.instructions)),
            ("barriers".into(), Value::UInt(m.barriers)),
            (
                "avg_mem_latency_ns".into(),
                Value::Float(m.avg_mem_latency_ns),
            ),
            ("blocked_accesses".into(), Value::UInt(m.blocked_accesses)),
        ]),
        Err(e) => Value::Object(vec![
            ("scenario".into(), Value::String(scenario.to_string())),
            ("stalled".into(), Value::Bool(true)),
            ("error".into(), Value::String(e.to_string())),
        ]),
    }
}

/// Runs the degraded-operation sweep through the harness, with the
/// deliberate-failure points `inject` asks for
/// (`InjectFaults::default()` for the scenarios alone). `fault_seed`
/// is the sweep's base seed: per-point schedule seeds derive from it
/// and the point identity, never from thread schedule.
#[must_use]
pub fn degraded_sweep_artifact(
    fault_seed: u64,
    inject: InjectFaults,
    opts: SweepOptions<'_>,
) -> RunArtifact {
    opts.build(degraded_spec(inject), "degraded/v1", fault_seed)
        .run(degraded_eval)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh, empty directory under the system temp dir.
    fn fresh_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cryowire-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    /// The artifact's point values, in enumeration order.
    fn values(artifact: &RunArtifact) -> Vec<Value> {
        artifact.points.iter().map(|r| r.value.clone()).collect()
    }

    #[test]
    fn fig27_port_matches_legacy() {
        let artifact = fig27_sweep_artifact(SweepOptions::serial());
        let legacy = super::super::fig27_temperature_sweep();
        let expected: Vec<Value> = legacy.points.iter().map(temperature_point_value).collect();
        assert_eq!(values(&artifact), expected);
    }

    #[test]
    fn depth_port_matches_legacy() {
        let artifact = depth_sweep_artifact(ablation_depth_spec(), SweepOptions::threaded(2));
        let legacy = super::super::ablation_depth_sweep();
        // The grid is temperature-major: 77 K's splits, then 300 K's.
        let expected: Vec<Value> = legacy
            .at_77k
            .iter()
            .chain(&legacy.at_300k)
            .map(depth_point_value)
            .collect();
        assert_eq!(values(&artifact), expected);
    }

    #[test]
    fn fig21_port_matches_legacy_curves() {
        let artifact = fig21_sweep_artifact(Fidelity::Quick, SweepOptions::threaded(4));
        let legacy = super::super::fig21_noc_load_latency(Fidelity::Quick);
        let expected: Vec<Value> = legacy.curves.iter().map(curve_value).collect();
        assert_eq!(values(&artifact), expected);
    }

    #[test]
    fn depth_grid_caches_across_specs() {
        let dir = fresh_dir("depth-cache");
        let cache = ResultCache::with_dir(&dir).expect("temp cache dir");
        let opts = SweepOptions::serial().with_cache(&cache);
        let first = depth_sweep_artifact(ablation_depth_spec(), opts);
        assert_eq!(first.stats.evaluated, 8);
        // A wider grid that contains the ablation's endpoints reuses them.
        let wide = depth_sweep_artifact(depth_grid_spec(&[77.0, 150.0, 300.0], 4), opts);
        assert_eq!(wide.stats.cache_hits, 8);
        assert_eq!(wide.stats.evaluated, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degraded_sweep_completes_and_orders_scenarios() {
        let artifact =
            degraded_sweep_artifact(0xC0FFEE, InjectFaults::default(), SweepOptions::threaded(4));
        assert_eq!(artifact.stats.points, 4);
        assert_eq!(artifact.stats.failed, 0);
        let perf = |scenario: &str| {
            let r = artifact
                .find(|p| p.str("scenario") == scenario)
                .unwrap_or_else(|| panic!("missing scenario {scenario}"));
            assert_eq!(r.value.get("stalled").and_then(Value::as_bool), Some(false));
            r.value
                .get("perf_per_core")
                .and_then(Value::as_f64)
                .expect("perf field")
        };
        let nominal = perf("nominal");
        // Every degraded scenario completes, below (or at) nominal.
        assert!(perf("transient-120k") < nominal);
        assert!(perf("link-loss") <= nominal);
        assert!(perf("combined") < nominal);
    }

    #[test]
    fn degraded_panic_point_is_isolated() {
        let panic = InjectFaults {
            panic: true,
            ..InjectFaults::default()
        };
        let faulted = degraded_sweep_artifact(0xC0FFEE, panic, SweepOptions::threaded(2));
        assert_eq!(faulted.stats.points, 5);
        assert_eq!(faulted.stats.failed, 1);
        let bad = faulted.find(|p| p.str("scenario") == "panic").unwrap();
        assert!(bad.failed());
        // Surviving points match a panic-free run value-for-value.
        let clean =
            degraded_sweep_artifact(0xC0FFEE, InjectFaults::default(), SweepOptions::serial());
        for r in clean.points.iter() {
            let f = faulted
                .find(|p| p.str("scenario") == r.params.str("scenario"))
                .unwrap();
            assert_eq!(f.value, r.value);
            assert_eq!(f.seed, r.seed);
        }
    }

    #[test]
    fn coherence_grid_is_thread_and_batch_invariant() {
        // 12 points, 3 batch groups. Thread counts and scalar-vs-batched
        // evaluation must not show up in the canonical artifact.
        let accesses = 64;
        let serial = coherence_sweep_artifact(accesses, SweepOptions::serial());
        assert_eq!(serial.stats.points, 12);
        assert_eq!(serial.stats.failed, 0);
        let threaded = coherence_sweep_artifact(accesses, SweepOptions::threaded(4));
        assert_eq!(serial.canonical_json(), threaded.canonical_json());
    }

    #[test]
    fn coherence_grid_commits_once_per_access() {
        // The grid runs its lanes without a commit log and reports each
        // point's `commits` as the lane's access count. That is the
        // log's length only while every completed lane commits each
        // access exactly once: run every lane of the grid with the log
        // on and hold the identity, and check that recording changes
        // nothing else.
        let workload = Workload::parsec_by_name("streamcluster").expect("known workload");
        let trace = coherence_trace(&workload, COHERENCE_SWEEP_ACCESSES);
        for kind in EngineKind::ALL {
            let lanes: Vec<CoherenceConfig> = coherence_geometries()
                .iter()
                .map(|(_, g)| lane_config(kind, *g))
                .collect();
            let recorded: Vec<CoherenceConfig> = lanes
                .iter()
                .map(|c| CoherenceConfig {
                    record_commits: true,
                    ..*c
                })
                .collect();
            let (system, _) = build_system(kind);
            let mut scratch = CoherenceScratch::new();
            let mut run = |lane| system.run(&trace, lane, None, &mut scratch);
            let plain: Vec<_> = lanes.iter().map(&mut run).collect();
            let logged: Vec<_> = recorded.iter().map(&mut run).collect();
            for (((name, _), plain), logged) in coherence_geometries().iter().zip(plain).zip(logged)
            {
                let (plain, logged) = (plain.expect("lane completes"), logged.expect("completes"));
                assert!(plain.commits.is_empty(), "{} {name}", kind.name());
                assert_eq!(
                    logged.commits.len() as u64,
                    logged.metrics.accesses,
                    "{} {name}: one commit per access",
                    kind.name()
                );
                assert_eq!(plain.metrics, logged.metrics, "{} {name}", kind.name());
                let value = outcome_value(&plain);
                assert_eq!(
                    value.get("commits").and_then(Value::as_u64),
                    Some(logged.commits.len() as u64),
                    "{} {name}: the unlogged lane reports the log's length",
                    kind.name()
                );
                assert_eq!(value, outcome_value(&logged));
            }
        }
    }

    #[test]
    fn coherence_grid_resumes_from_journal_byte_identically() {
        let accesses = 64;
        let dir = fresh_dir("coherence-sweep");
        let journal = dir.join("coherence.journal");
        let full = coherence_sweep_artifact(accesses, SweepOptions::serial());
        // First run journals every point; the resumed run replays them
        // all (0 evaluated) and must reproduce the artifact exactly.
        let first = coherence_sweep_artifact(
            accesses,
            SweepOptions::serial().with_journal(&journal, false),
        );
        assert_eq!(first.canonical_json(), full.canonical_json());
        let resumed = coherence_sweep_artifact(
            accesses,
            SweepOptions::serial().with_journal(&journal, true),
        );
        assert_eq!(resumed.stats.resumed, 12);
        assert_eq!(resumed.stats.evaluated, 0);
        assert_eq!(resumed.canonical_json(), full.canonical_json());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn linspace_spans_endpoints() {
        let t = linspace_temperatures(16);
        assert_eq!(t.len(), 16);
        assert!((t[0] - 77.0).abs() < 1e-12);
        assert!((t[15] - 300.0).abs() < 1e-12);
        assert_eq!(depth_grid_spec(&t, 4).len(), 64);
    }
}
