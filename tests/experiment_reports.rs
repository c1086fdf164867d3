//! Every experiment in the registry, analytic or simulation-backed,
//! renders a non-empty, well-formed report under its own id; three
//! figures keep the paper's shape; and the `experiment` binary lists the
//! registry and rejects bad command lines with exit status 2.

use std::collections::HashSet;
use std::process::{Command, Output};

use cryowire::experiments::{self, Experiment, Fidelity, REGISTRY};

/// The experiments that run a simulator: the NoC packet simulator, the
/// out-of-order core, the coherence protocols or the system model. Every
/// other registered experiment is a closed-form model.
const SIMULATION_BACKED: &[&str] = &[
    "fig3",
    "fig17",
    "fig18",
    "fig21",
    "fig23",
    "fig24",
    "fig25",
    "fig26",
    "fig27",
    "abl-ways",
    "abl-engine",
    "abl-core-engine",
    "abl-ipc",
    "cpi-sim",
    "abl-coherence",
    "summary",
];

/// Runs one experiment at quick fidelity and checks its report: rows,
/// its own id, and a rendering of at least three lines.
fn assert_renders(experiment: &Experiment) {
    let id = experiment.id;
    let section = (experiment.run)(Fidelity::Quick);
    assert!(!section.report.is_empty(), "[{id}] report must have rows");
    assert_eq!(section.report.id, id, "[{id}] report carries another id");
    assert!(section.to_string().lines().count() >= 3, "[{id}] too short");
}

#[test]
fn all_analytic_reports_render() {
    let ids: HashSet<&str> = REGISTRY.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), 34, "22 tables and figures plus 12 ablations");
    assert_eq!(ids.len(), REGISTRY.len(), "experiment ids must be unique");
    let analytic: Vec<&Experiment> = REGISTRY
        .iter()
        .filter(|e| !SIMULATION_BACKED.contains(&e.id))
        .collect();
    assert_eq!(analytic.len(), REGISTRY.len() - SIMULATION_BACKED.len());
    for experiment in analytic {
        assert_renders(experiment);
    }
}

#[test]
fn simulation_backed_reports_render_quickly() {
    for id in SIMULATION_BACKED {
        let experiment = REGISTRY
            .iter()
            .find(|e| e.id == *id)
            .unwrap_or_else(|| panic!("[{id}] is not registered"));
        assert_renders(experiment);
    }
}

#[test]
fn fig23_report_has_13_workloads_and_5_designs() {
    let r = experiments::fig23_system_performance(Fidelity::Quick);
    assert_eq!(r.rows.len(), 13);
    assert_eq!(r.designs.len(), 5);
    let report = r.report();
    assert_eq!(report.headers.len(), 6); // workload + 5 designs
}

#[test]
fn fig24_report_has_12_workloads_and_4_designs() {
    let r = experiments::fig24_spec_prefetch(Fidelity::Quick);
    assert_eq!(r.rows.len(), 12);
    assert_eq!(r.designs.len(), 4);
}

#[test]
fn fig27_report_has_8_temperatures() {
    let r = experiments::fig27_temperature_sweep();
    assert_eq!(r.points.len(), 8);
    assert_eq!(r.report().len(), 8);
}

fn experiment(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiment"))
        .args(args)
        .output()
        .expect("experiment binary runs")
}

/// Exit status 2, an `experiment: ...` line on stderr, and nothing run.
fn assert_usage_error(args: &[&str]) {
    let out = experiment(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.starts_with("experiment: "), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} still printed output");
}

#[test]
fn experiment_rejects_an_unknown_flag() {
    assert_usage_error(&["fig5", "--ful"]);
}

#[test]
fn experiment_rejects_a_second_positional_argument() {
    assert_usage_error(&["fig5", "fig99"]);
}

#[test]
fn experiment_rejects_an_unknown_id() {
    assert_usage_error(&["nosuch"]);
}

#[test]
fn experiment_list_prints_the_registry_ids_in_order() {
    let out = experiment(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 listing");
    let listed: Vec<&str> = stdout
        .lines()
        .filter_map(|line| line.strip_prefix("  "))
        .collect();
    let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
    assert_eq!(listed, ids);
}
