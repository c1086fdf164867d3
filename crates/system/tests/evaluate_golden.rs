//! Golden corpus for the system model: the bits of every
//! `SystemSimulator::evaluate` result — each CPI-stack component, the
//! converged injection rate and the throughput-bound flag — over the
//! five Table 4 designs plus the Fig. 17 (ideal NoC, 77 K shared bus)
//! and Fig. 24 (2-way CryoBus) variants, on PARSEC, SPEC and the
//! prefetching SPEC runs, must match the checked-in
//! `golden/evaluate.txt`.
//!
//! Recorded once from the model; it changes only by a deliberate
//! re-baseline (rerun with `CRYOWIRE_BLESS_GOLDEN=1` to rewrite the file,
//! bump its version line, and say why in the changelog).

use std::fmt::Write as _;

use cryowire_device::Temperature;
use cryowire_system::{SystemDesign, SystemSimulator, Workload};

const GOLDEN: &str = include_str!("golden/evaluate.txt");
const VERSION: &str = "# cryowire system-evaluate golden corpus v1";

fn corpus() -> String {
    let mut designs = SystemDesign::evaluation_set();
    designs.push(SystemDesign::chp_mesh().with_ideal_noc());
    designs.push(SystemDesign::chp_mesh().with_shared_bus(Temperature::liquid_nitrogen()));
    designs.push(SystemDesign::cryosp_cryobus_2way());
    let workloads: Vec<(&str, Workload)> = Workload::parsec()
        .into_iter()
        .map(|w| ("parsec", w))
        .chain(Workload::spec().into_iter().map(|w| ("spec", w)))
        .chain(
            Workload::spec()
                .into_iter()
                .map(|w| ("spec+prefetch", w.with_prefetcher(2.5))),
        )
        .collect();

    let sim = SystemSimulator::new();
    let mut out = format!("{VERSION}\n");
    for design in &designs {
        for (suite, w) in &workloads {
            let m = sim.evaluate(w, design);
            let s = m.stack;
            writeln!(
                out,
                "{} | {suite} {} | {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {}",
                design.name,
                w.name,
                s.core_ns.to_bits(),
                s.noc_ns.to_bits(),
                s.cache_ns.to_bits(),
                s.dram_ns.to_bits(),
                s.sync_ns.to_bits(),
                m.injection_rate.to_bits(),
                m.noc_bound
            )
            .expect("write to string");
        }
    }
    out
}

#[test]
fn evaluate_matches_golden_corpus() {
    let actual = corpus();
    if std::env::var_os("CRYOWIRE_BLESS_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/evaluate.txt");
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
