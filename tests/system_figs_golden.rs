//! Golden corpus for the system-model figures: the bits of every f64 in
//! the results of Fig. 3, 17, 23, 24 and 27 and the headline summary must
//! match the checked-in `golden/system_figs.txt`.
//!
//! `reproduce` prints these values rounded to two or three decimals, so a
//! change that hands a figure the wrong design's contention profile could
//! keep its output byte-identical; this corpus pins them at full
//! precision. Fig. 27 covers what `crates/system/tests/evaluate_golden.rs`
//! does not: the clock-scaled CryoBus and interpolated memory at every
//! sweep temperature.
//!
//! Recorded once from the model; it changes only by a deliberate
//! re-baseline (rerun with `CRYOWIRE_BLESS_GOLDEN=1` to rewrite the file,
//! bump its version line, and say why in the changelog).

use std::fmt::Write as _;

use cryowire::experiments::{self, Fidelity};

const GOLDEN: &str = include_str!("golden/system_figs.txt");
const VERSION: &str = "# cryowire system-figures golden corpus v1";

/// Appends `figure | label | bits...` for `values`.
fn line(out: &mut String, figure: &str, label: &str, values: &[f64]) {
    let bits: Vec<String> = values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect();
    writeln!(out, "{figure} | {label} | {}", bits.join(" ")).expect("write to string");
}

fn corpus() -> String {
    let mut out = format!("{VERSION}\n");
    let fig3 = experiments::fig03_cpi_stacks();
    for (name, cpi, frac) in &fig3.rows {
        let mut v = cpi.to_vec();
        v.push(*frac);
        line(&mut out, "fig3", name, &v);
    }
    line(
        &mut out,
        "fig3",
        "average/max noc fraction",
        &[fig3.average_noc_fraction, fig3.max_noc_fraction],
    );

    let fig17 = experiments::fig17_bus_vs_mesh();
    for (name, mesh, bus) in &fig17.rows {
        line(&mut out, "fig17", name, &[*mesh, *bus]);
    }
    line(
        &mut out,
        "fig17",
        "mesh/bus relative",
        &[fig17.mesh_relative, fig17.bus_relative],
    );

    let fig23 = experiments::fig23_system_performance(Fidelity::Quick);
    writeln!(out, "fig23 designs: {}", fig23.designs.join(", ")).expect("write to string");
    for (name, vals) in &fig23.rows {
        line(&mut out, "fig23", name, vals);
    }
    line(
        &mut out,
        "fig23",
        "vs chp/vs 300k/cryosp only/cryobus only",
        &[
            fig23.average_speedup_vs_chp,
            fig23.average_speedup_vs_300k,
            fig23.cryosp_only_speedup,
            fig23.cryobus_only_speedup,
        ],
    );
    line(
        &mut out,
        "fig23",
        &format!("best case {}", fig23.best_case.0),
        &[fig23.best_case.1],
    );

    let fig24 = experiments::fig24_spec_prefetch(Fidelity::Quick);
    writeln!(out, "fig24 designs: {}", fig24.designs.join(", ")).expect("write to string");
    for (name, vals) in &fig24.rows {
        line(&mut out, "fig24", name, vals);
    }
    line(
        &mut out,
        "fig24",
        "cryobus vs 300k/vs chp/2-way vs 300k",
        &[
            fig24.cryobus_vs_300k,
            fig24.cryobus_vs_chp,
            fig24.cryobus2_vs_300k,
        ],
    );
    writeln!(
        out,
        "fig24 contention bound: {}",
        fig24.contention_bound.join(", ")
    )
    .expect("write to string");

    for p in experiments::fig27_temperature_sweep().points {
        line(
            &mut out,
            "fig27",
            &format!("{} K", p.temperature_k),
            &[
                p.temperature_k,
                p.frequency_ghz,
                p.v_dd,
                p.device_power,
                p.cooling_overhead,
                p.total_power,
                p.performance,
                p.perf_per_power,
            ],
        );
    }

    let s = experiments::headline_summary(Fidelity::Quick);
    line(
        &mut out,
        "summary",
        "clock gain/cryobus latency/vs 300k/vs chp",
        &[
            s.cryosp_clock_gain,
            s.cryobus_latency_factor,
            s.system_speedup_vs_300k,
            s.system_speedup_vs_chp,
        ],
    );
    out
}

#[test]
fn system_figures_match_golden_corpus() {
    let actual = corpus();
    if std::env::var_os("CRYOWIRE_BLESS_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/system_figs.txt"
        );
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
