//! Golden corpus for the reservation engine's load–latency sweeps: every
//! curve [`LoadLatencySweep::run_many`] returns for the paper's
//! load–latency figures — the Fig. 18 shared buses, the nine 64-node
//! Fig. 21 networks under all five traffic patterns (Figs. 21 and 25)
//! and the five 256-node Fig. 26 networks, each over its figure's own
//! rate grid — must match the checked-in `golden/load_latency.txt` bit
//! for bit: each curve's point count, and per point the latency bits and
//! the saturation verdict.
//!
//! The corpus is an oracle of outputs, not a copy of an engine: it was
//! recorded once from the simulator and changes only by a deliberate
//! re-baseline (rerun with `CRYOWIRE_BLESS_GOLDEN=1` to rewrite the file,
//! bump its version line, and say why in the changelog). It covers the
//! CMesh, flattened-butterfly, hybrid and 256-node networks that the
//! reference-engine equivalence suite does not, and the point counts pin
//! each curve's early stop after its second saturated point.

use std::fmt::Write as _;

use cryowire_device::Temperature;
use cryowire_noc::{
    CryoBus, HybridCryoBus, LoadLatencyCurve, LoadLatencySweep, Network, NocKind, RouterClass,
    RouterNetwork, SharedBus, SimConfig, TrafficPattern,
};

const GOLDEN: &str = include_str!("golden/load_latency.txt");
const VERSION: &str = "# cryowire load-latency golden corpus v1";

const CYCLES: u64 = 1_200;
const WARMUP: u64 = 300;

/// The Fig. 18 shared-bus rate grid.
const FIG18_RATES: [f64; 12] = [
    0.0002, 0.0005, 0.001, 0.0015, 0.002, 0.003, 0.004, 0.005, 0.006, 0.008, 0.010, 0.013,
];

/// The Fig. 21/25 rate grid.
const FIG21_RATES: [f64; 13] = [
    0.001, 0.002, 0.004, 0.006, 0.008, 0.010, 0.012, 0.014, 0.018, 0.024, 0.032, 0.05, 0.08,
];

/// The Fig. 26 rate grid.
const FIG26_RATES: [f64; 9] = [0.001, 0.002, 0.004, 0.006, 0.008, 0.012, 0.016, 0.024, 0.04];

fn curves(
    rates: &[f64],
    networks: &[Box<dyn Network + Sync>],
    pattern: TrafficPattern,
) -> Vec<LoadLatencyCurve> {
    let refs: Vec<&(dyn Network + Sync)> = networks.iter().map(AsRef::as_ref).collect();
    LoadLatencySweep::new(rates.to_vec())
        .with_config(SimConfig {
            cycles: CYCLES,
            warmup: WARMUP,
            ..SimConfig::default()
        })
        .run_many(&refs, pattern)
        .expect("valid sweep")
}

fn record(out: &mut String, figure: &str, pattern: &str, curves: &[LoadLatencyCurve]) {
    for c in curves {
        writeln!(
            out,
            "{figure} {pattern} {}: {} points",
            c.network,
            c.points.len()
        )
        .expect("write to string");
        for p in &c.points {
            writeln!(
                out,
                "  {} {:016x} {}",
                p.rate,
                p.latency.to_bits(),
                p.saturated
            )
            .expect("write to string");
        }
    }
}

fn router(kind: NocKind, nodes: usize, class: RouterClass) -> Box<dyn Network + Sync> {
    let t77 = Temperature::liquid_nitrogen();
    Box::new(RouterNetwork::new(kind, nodes, class, t77).expect("valid router network"))
}

fn corpus() -> String {
    let t77 = Temperature::liquid_nitrogen();
    let mut out = format!("{VERSION}\n# cycles {CYCLES} warmup {WARMUP}\n");

    let fig18: Vec<Box<dyn Network + Sync>> = vec![
        Box::new(SharedBus::new(64, Temperature::ambient())),
        Box::new(SharedBus::new(64, t77)),
    ];
    record(
        &mut out,
        "fig18",
        "uniform",
        &curves(&FIG18_RATES, &fig18, TrafficPattern::UniformRandom),
    );

    let mut fig21: Vec<Box<dyn Network + Sync>> = Vec::new();
    for kind in [NocKind::Mesh, NocKind::CMesh, NocKind::FlattenedButterfly] {
        for class in [RouterClass::OneCycle, RouterClass::ThreeCycle] {
            fig21.push(router(kind, 64, class));
        }
    }
    fig21.push(Box::new(SharedBus::new(64, t77)));
    fig21.push(Box::new(CryoBus::new(64, t77)));
    fig21.push(Box::new(CryoBus::two_way(64, t77)));
    for (name, pattern) in [
        ("uniform", TrafficPattern::UniformRandom),
        ("transpose", TrafficPattern::Transpose),
        ("hotspot", TrafficPattern::hotspot_default()),
        ("bitreverse", TrafficPattern::BitReverse),
        ("burst", TrafficPattern::burst_default()),
    ] {
        record(
            &mut out,
            "fig21",
            name,
            &curves(&FIG21_RATES, &fig21, pattern),
        );
    }

    let fig26: Vec<Box<dyn Network + Sync>> = vec![
        Box::new(HybridCryoBus::c256(t77, 1)),
        Box::new(HybridCryoBus::c256(t77, 2)),
        router(NocKind::Mesh, 256, RouterClass::ThreeCycle),
        router(NocKind::CMesh, 256, RouterClass::ThreeCycle),
        router(NocKind::FlattenedButterfly, 256, RouterClass::ThreeCycle),
    ];
    record(
        &mut out,
        "fig26",
        "uniform",
        &curves(&FIG26_RATES, &fig26, TrafficPattern::UniformRandom),
    );
    out
}

#[test]
fn load_latency_curves_match_golden_corpus() {
    let actual = corpus();
    if std::env::var_os("CRYOWIRE_BLESS_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/load_latency.txt");
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
