//! Golden corpus for the core engine: the full `CoreMetrics` of the
//! configurations the experiments and the perf gate run — the
//! `bench-engines` design grid (width {4, 8} × frontend depth {6, 9} ×
//! bypass {1, 2}) and the five ipc-validation configs — and of two
//! small-window configs, over the three `TraceConfig` profiles at two
//! seeds, the CPI stacks of the four `cpi-sim` configs over the same
//! traces, and two address-driven memory runs with their cache miss
//! ratios, must match the checked-in `golden/core.txt` bit for bit.
//! Every run's batched lane must equal its recorded run too.
//!
//! The corpus is an oracle of outputs, not a copy of an engine: it was
//! recorded once from the simulator and changes only by a deliberate
//! re-baseline (rerun with `CRYOWIRE_BLESS_GOLDEN=1` to rewrite the file,
//! bump its version line, and say why in the changelog).

use std::fmt::Write as _;

use cryowire_ooo::{
    run_batch_with_scratch, AddressModel, CacheHierarchy, CoreConfig, CoreMetrics, CoreScratch,
    CoreSimulator, TraceConfig,
};

const GOLDEN: &str = include_str!("golden/core.txt");
const VERSION: &str = "# cryowire core golden corpus v2";

/// Instructions per trace: past every window of the recorded configs
/// (the largest ROB is 224) many times over, and short enough that the
/// corpus runs in well under two seconds in a debug build.
const INSTS: usize = 6_000;

const SEEDS: [u64; 2] = [1, 7];

fn profiles() -> [(&'static str, TraceConfig); 3] {
    [
        ("parsec", TraceConfig::parsec_like()),
        ("serial", TraceConfig::serial_chain()),
        ("independent", TraceConfig::independent()),
    ]
}

/// The `bench-engines` smoke design grid, the ipc-validation configs,
/// then two small windows whose queue depths are powers of two: their
/// ring capacities have no rounding slack, so a capacity one slot short
/// changes their metrics, where every other config rounds up past it.
fn run_configs() -> Vec<(String, CoreConfig)> {
    let mut grid = Vec::new();
    for frontend_depth in [6, 9] {
        for width in [4, 8] {
            for bypass_cycles in [1, 2] {
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
    grid.extend([
        ("skylake-8w".into(), CoreConfig::skylake_8_wide()),
        ("superpipe-8w".into(), CoreConfig::superpipelined_8_wide()),
        ("cryocore-4w".into(), CoreConfig::cryocore_4_wide()),
        ("cryosp".into(), CoreConfig::cryosp()),
        (
            "skylake-8w-b2".into(),
            CoreConfig::skylake_8_wide().with_bypass_cycles(2),
        ),
        (
            "tiny".into(),
            CoreConfig {
                width: 1,
                rob: 4,
                issue_queue: 2,
                load_queue: 1,
                store_queue: 1,
                frontend_depth: 2,
                bypass_cycles: 1,
                override_bubble: 1,
            },
        ),
        (
            "lsq-bound".into(),
            CoreConfig {
                load_queue: 2,
                store_queue: 2,
                ..CoreConfig::cryocore_4_wide()
            },
        ),
    ]);
    grid
}

/// The `cpi-sim` configs.
fn cpi_configs() -> [(&'static str, CoreConfig); 4] {
    [
        ("skylake-8w", CoreConfig::skylake_8_wide()),
        ("superpipe-8w", CoreConfig::superpipelined_8_wide()),
        ("cryocore-4w", CoreConfig::cryocore_4_wide()),
        ("cryosp", CoreConfig::cryosp()),
    ]
}

fn metrics(m: &CoreMetrics) -> String {
    format!(
        "insts={} cycles={} branches={} mispredicts={} overrides={}",
        m.instructions, m.cycles, m.branches, m.mispredicts, m.overrides
    )
}

fn corpus() -> String {
    let mut out = format!("{VERSION}\n# insts {INSTS}\n");
    let configs = run_configs();
    let lanes: Vec<CoreConfig> = configs.iter().map(|(_, c)| *c).collect();
    let mut scratch = CoreScratch::new();
    // The batched runs keep their own scratch, reused across traces.
    let mut batch_scratch = Default::default();
    for (profile, trace_config) in profiles() {
        for seed in SEEDS {
            let trace = trace_config.generate(INSTS, seed);
            let batched = run_batch_with_scratch(&lanes, &trace, &mut batch_scratch);
            for ((name, config), lane) in configs.iter().zip(&batched) {
                let m = CoreSimulator::new(*config).run_with_scratch(&trace, &mut scratch);
                assert_eq!(*lane, m, "batched lane {name} differs on {profile}/{seed}");
                writeln!(out, "run {profile} seed={seed} {name}: {}", metrics(&m))
                    .expect("write to string");
            }
            for (name, config) in cpi_configs() {
                let [base, frontend, structure, memory] =
                    CoreSimulator::new(config).cpi_stack_with_scratch(&trace, &mut scratch);
                writeln!(
                    out,
                    "cpi {profile} seed={seed} {name}: {base} {frontend} {structure} {memory}"
                )
                .expect("write to string");
            }
        }
    }

    let trace = TraceConfig::parsec_like().generate(INSTS, 7);
    for (name, config, mut memory) in [
        (
            "skylake-8w/300K",
            CoreConfig::skylake_8_wide(),
            CacheHierarchy::table4_300k(),
        ),
        (
            "cryosp/77K",
            CoreConfig::cryosp(),
            CacheHierarchy::table4_77k(),
        ),
    ] {
        let mut addrs = AddressModel::new(64 * 1024, 0.8, 5);
        let m = CoreSimulator::new(config).run_with_memory(&trace, &mut memory, &mut addrs);
        let (l1, l2) = memory.miss_ratios();
        writeln!(
            out,
            "memory parsec seed=7 {name}: {} l1_miss={:016x} l2_miss={:016x}",
            metrics(&m),
            l1.to_bits(),
            l2.to_bits()
        )
        .expect("write to string");
    }
    out
}

#[test]
fn core_metrics_match_golden_corpus() {
    let actual = corpus();
    if std::env::var_os("CRYOWIRE_BLESS_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/core.txt");
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
