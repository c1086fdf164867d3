//! Every experiment is a pure function of its inputs: rerunning any of
//! them must reproduce byte-identical reports. This is what makes
//! EXPERIMENTS.md auditable.

use cryowire::experiments::{self, Fidelity};

#[test]
fn analytic_experiments_are_deterministic() {
    assert_eq!(
        experiments::fig05_wire_speedup(),
        experiments::fig05_wire_speedup()
    );
    assert_eq!(
        experiments::fig12_critical_path_300k(),
        experiments::fig12_critical_path_300k()
    );
    assert_eq!(
        experiments::tab03_core_specs(),
        experiments::tab03_core_specs()
    );
    assert_eq!(
        experiments::fig22_noc_power(),
        experiments::fig22_noc_power()
    );
    assert_eq!(
        experiments::fig27_temperature_sweep(),
        experiments::fig27_temperature_sweep()
    );
}

#[test]
fn simulation_experiments_are_deterministic() {
    // Seeded RNGs everywhere: same fidelity ⇒ same curves.
    assert_eq!(
        experiments::fig18_bus_load_latency(Fidelity::Quick),
        experiments::fig18_bus_load_latency(Fidelity::Quick)
    );
    assert_eq!(
        experiments::fig23_system_performance(Fidelity::Quick),
        experiments::fig23_system_performance(Fidelity::Quick)
    );
    assert_eq!(
        experiments::ipc_cross_validation(),
        experiments::ipc_cross_validation()
    );
    assert_eq!(
        experiments::coherence_cross_validation(),
        experiments::coherence_cross_validation()
    );
    // The cycle-level experiments fan out across the harness executor
    // and share traces through the global arena; neither may perturb
    // the results run-to-run.
    assert_eq!(
        experiments::ablation_core_engine(),
        experiments::ablation_core_engine()
    );
    assert_eq!(
        experiments::cpi_stack_cycle_level(),
        experiments::cpi_stack_cycle_level()
    );
}

#[test]
fn harness_sweep_artifacts_are_thread_count_invariant() {
    // The tentpole determinism contract: running the same SweepSpec on 1
    // thread and on N threads must produce byte-identical JSON artifacts
    // (canonical form, i.e. minus wall-clock timing and cache
    // provenance).
    use cryowire::experiments::SweepOptions;
    let serial = experiments::depth_sweep_artifact(
        experiments::ablation_depth_spec(),
        SweepOptions::serial(),
    );
    let parallel = experiments::depth_sweep_artifact(
        experiments::ablation_depth_spec(),
        SweepOptions::threaded(8),
    );
    assert_eq!(serial.canonical_json(), parallel.canonical_json());

    let fig27_serial = experiments::fig27_sweep_artifact(SweepOptions::serial());
    let fig27_parallel = experiments::fig27_sweep_artifact(SweepOptions::threaded(4));
    assert_eq!(
        fig27_serial.canonical_json(),
        fig27_parallel.canonical_json()
    );
}

#[test]
fn overlapping_sweeps_only_evaluate_new_points() {
    // Content-addressed caching: a second sweep whose grid overlaps the
    // first re-evaluates only the points it adds, and the cached replay
    // is value-identical to a fresh run.
    use cryowire::experiments::SweepOptions;
    use cryowire_harness::ResultCache;

    let cache = ResultCache::new();
    let opts = SweepOptions::threaded(4).with_cache(&cache);
    let narrow =
        experiments::depth_sweep_artifact(experiments::depth_grid_spec(&[77.0, 300.0], 4), opts);
    assert_eq!(narrow.stats.evaluated, 8);
    assert_eq!(narrow.stats.cache_hits, 0);

    let wide = experiments::depth_sweep_artifact(
        experiments::depth_grid_spec(&[77.0, 150.0, 300.0], 4),
        opts,
    );
    assert_eq!(
        wide.stats.cache_hits, 8,
        "shared points must come from cache"
    );
    assert_eq!(wide.stats.evaluated, 4, "only the 150 K column is new");

    // Cached values are indistinguishable from fresh evaluation.
    let fresh = experiments::depth_sweep_artifact(
        experiments::depth_grid_spec(&[77.0, 150.0, 300.0], 4),
        SweepOptions::serial(),
    );
    assert_eq!(wide.canonical_json(), fresh.canonical_json());
}

#[test]
fn disk_cache_round_trips_bit_exactly() {
    // Float results survive the JSON round trip through the on-disk
    // cache bit-for-bit, so a warm-cache rerun reproduces the artifact.
    use cryowire::experiments::SweepOptions;
    use cryowire_harness::ResultCache;

    let dir = std::env::temp_dir().join(format!("cryowire-sweep-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cold = {
        let cache = ResultCache::with_dir(&dir).unwrap();
        experiments::fig27_sweep_artifact(SweepOptions::threaded(2).with_cache(&cache))
    };
    assert_eq!(cold.stats.evaluated, 8);
    let warm = {
        let cache = ResultCache::with_dir(&dir).unwrap();
        experiments::fig27_sweep_artifact(SweepOptions::threaded(2).with_cache(&cache))
    };
    assert_eq!(
        warm.stats.cache_hits, 8,
        "second process-like run is all hits"
    );
    assert_eq!(cold.canonical_json(), warm.canonical_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_sweep_matches_serial() {
    // The crossbeam fan-out must not change results, only wall time —
    // including the injection traces it shares between networks of one
    // topology: the 64-node buses and mesh share theirs, the 256-node
    // hybrid must get its own, under a uniform and a non-uniform pattern.
    use cryowire::device::Temperature;
    use cryowire::noc::{
        CryoBus, HybridCryoBus, LoadLatencySweep, Network, NocKind, RouterClass, RouterNetwork,
        SharedBus, SimConfig, TrafficPattern,
    };
    let sweep = LoadLatencySweep::new(vec![0.001, 0.004, 0.008]).with_config(SimConfig {
        cycles: 6_000,
        warmup: 1_500,
        ..SimConfig::default()
    });
    let t77 = Temperature::liquid_nitrogen();
    let bus = SharedBus::new(64, t77);
    let cryo = CryoBus::new(64, t77);
    let mesh = RouterNetwork::new(NocKind::Mesh, 64, RouterClass::OneCycle, t77).unwrap();
    let hybrid = HybridCryoBus::c256(t77, 2);
    let nets: Vec<&(dyn Network + Sync)> = vec![&bus, &cryo, &mesh, &hybrid];
    for pattern in [TrafficPattern::UniformRandom, TrafficPattern::Transpose] {
        let parallel = sweep.run_many(&nets, pattern).unwrap();
        let serial: Vec<_> = nets
            .iter()
            .map(|net| sweep.run(*net, pattern).unwrap())
            .collect();
        assert_eq!(parallel, serial, "{pattern:?}");
    }
}

#[test]
fn batched_coherence_sweep_matches_scalar_sweep() {
    // The coherence grid's batched path (one `run_batch_with` call per
    // engine, points grouped by the shared trace + fabric key) must
    // produce the byte-identical canonical artifact of a scalar sweep
    // running every point alone, at one worker and at several.
    use cryowire::experiments::{EngineKind, SweepOptions};
    use cryowire_coherence::CoherenceScratch;
    use cryowire_harness::Sweep;

    let accesses = experiments::COHERENCE_SWEEP_ACCESSES;
    let workload = cryowire::system::Workload::parsec_by_name("streamcluster").unwrap();
    let trace = experiments::coherence_trace(&workload, accesses);
    let scalar = Sweep::new(experiments::coherence_spec())
        .eval_tag("coherence-grid/v1")
        .threads(1)
        .run(|point, _| {
            let kind = EngineKind::by_name(point.str("engine"));
            let geometry = experiments::geometry_by_name(point.str("geometry"));
            let (system, _) = experiments::build_system(kind, geometry);
            let out = system
                .run_with(&trace, None, &mut CoherenceScratch::new())
                .expect("clean scalar run completes");
            experiments::outcome_value(&out)
        });
    for threads in [1, 4] {
        let batched =
            experiments::coherence_sweep_artifact(accesses, SweepOptions::threaded(threads));
        assert_eq!(
            scalar.canonical_json(),
            batched.canonical_json(),
            "batched artifact diverged from scalar at {threads} thread(s)"
        );
    }
}

#[test]
fn batched_core_sweep_matches_scalar_sweep() {
    // A sweep over the ipc-validation grid evaluated through
    // `Sweep::run_batched` — points grouped into one batch job by the
    // content-keyed `TraceArena` element identity, run through the
    // lockstep engine, and split back into per-point records — produces
    // the byte-identical canonical artifact of the scalar `Sweep::run`,
    // at one worker and at several.
    use cryowire::ooo::{
        run_batch_into, CoreConfig, CoreMetrics, CoreScratch, CoreSimulator, TraceArena,
        TraceConfig,
    };
    use cryowire_harness::{Sweep, SweepSpec};
    use serde_json::Value;

    let (insts, seed) = (30_000, 7);
    let grid = experiments::ipc_validation_grid();
    let trace = TraceArena::global().get(&TraceConfig::parsec_like(), insts, seed);
    // The batching key: the identity of the shared TraceArena element
    // (generator config, length, seed) every point simulates.
    let trace_key = format!("{:?}/{insts}/{seed}", TraceConfig::parsec_like());
    let spec = || {
        SweepSpec::new("batch-identity").axis("config", grid.iter().map(|(name, _)| name.clone()))
    };
    let config_of = |name: &str| -> CoreConfig {
        grid.iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .expect("axis values come from the grid")
    };
    let metrics_value = |m: &CoreMetrics| {
        Value::Object(vec![
            ("instructions".into(), Value::UInt(m.instructions)),
            ("cycles".into(), Value::UInt(m.cycles)),
            ("branches".into(), Value::UInt(m.branches)),
            ("mispredicts".into(), Value::UInt(m.mispredicts)),
            ("overrides".into(), Value::UInt(m.overrides)),
        ])
    };
    let scalar = Sweep::new(spec())
        .eval_tag("batch-identity/v1")
        .threads(1)
        .run(|point, _| {
            metrics_value(&CoreSimulator::new(config_of(point.str("config"))).run(&trace))
        });
    for threads in [1, 4] {
        let batched = Sweep::new(spec())
            .eval_tag("batch-identity/v1")
            .threads(threads)
            .run_batched(
                |_| trace_key.clone(),
                |_, batch| {
                    let configs: Vec<CoreConfig> = batch
                        .iter()
                        .map(|(point, _)| config_of(point.str("config")))
                        .collect();
                    let mut out = Vec::new();
                    run_batch_into(&configs, &trace, &mut CoreScratch::new(), &mut out);
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
