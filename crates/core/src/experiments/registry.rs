//! The experiment registry: every table, figure, ablation and
//! cross-validation in paper order, under the id its report carries.
//! `reproduce` runs the whole list and `experiment <id>` runs one
//! entry.

use std::fmt;

use super::*;
use crate::Report;

/// What one experiment prints: its report, plus a summary line of
/// headline numbers against the paper's for the figures that have one.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// The rows or series the paper's table or figure shows.
    pub report: Report,
    /// Text-mode summary line; JSON output carries the report alone.
    pub summary: Option<String>,
}

impl From<Report> for Section {
    fn from(report: Report) -> Self {
        Section {
            report,
            summary: None,
        }
    }
}

impl fmt::Display for Section {
    /// The report and a blank line, then the summary line and a blank
    /// line if there is one.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.report)?;
        if let Some(summary) = &self.summary {
            writeln!(f, "{summary}\n")?;
        }
        Ok(())
    }
}

/// One runnable experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The id `experiment` takes and the report carries ("fig23",
    /// "abl-bus", ...).
    pub id: &'static str,
    /// Computes the experiment; the analytic ones ignore the fidelity.
    pub run: fn(Fidelity) -> Section,
}

/// Every experiment, in paper order: the figures and tables, then the
/// ablations and cross-validations, then the headline summary.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        id: "fig2",
        run: |_| fig02_stage_breakdown().report().into(),
    },
    Experiment {
        id: "fig3",
        run: |_| fig03_cpi_stacks().report().into(),
    },
    Experiment {
        id: "fig5",
        run: |_| fig05_wire_speedup().report().into(),
    },
    Experiment {
        id: "fig9",
        run: |_| fig09_validation().report().into(),
    },
    Experiment {
        id: "fig10",
        run: |_| fig10_link_validation().report().into(),
    },
    Experiment {
        id: "fig12",
        run: |_| fig12_critical_path_300k().report().into(),
    },
    Experiment {
        id: "fig13",
        run: |_| fig13_critical_path_77k().report().into(),
    },
    Experiment {
        id: "fig14",
        run: |_| fig14_superpipelined().report().into(),
    },
    Experiment {
        id: "tab1",
        run: |_| tab01_floorplan().report().into(),
    },
    Experiment {
        id: "tab3",
        run: |_| tab03_core_specs().report().into(),
    },
    Experiment {
        id: "tab4",
        run: |_| tab04_setup().into(),
    },
    Experiment {
        id: "fig16",
        run: |_| fig16_llc_latency().report().into(),
    },
    Experiment {
        id: "fig17",
        run: |_| fig17_bus_vs_mesh().report().into(),
    },
    Experiment {
        id: "fig18",
        run: |fidelity| fig18_bus_load_latency(fidelity).report().into(),
    },
    Experiment {
        id: "fig20",
        run: |_| fig20_bus_latency_breakdown().report().into(),
    },
    Experiment {
        id: "fig21",
        run: |fidelity| fig21_noc_load_latency(fidelity).report().into(),
    },
    Experiment {
        id: "fig22",
        run: |_| fig22_noc_power().report().into(),
    },
    Experiment {
        id: "fig23",
        run: fig23,
    },
    Experiment {
        id: "fig24",
        run: fig24,
    },
    Experiment {
        id: "fig25",
        run: |fidelity| fig25_traffic_patterns(fidelity).report().into(),
    },
    Experiment {
        id: "fig26",
        run: |fidelity| fig26_hybrid_256(fidelity).report().into(),
    },
    Experiment {
        id: "fig27",
        run: |_| fig27_temperature_sweep().report().into(),
    },
    Experiment {
        id: "abl-bus",
        run: |_| ablation_bus_topology().report().into(),
    },
    Experiment {
        id: "abl-ways",
        run: |_| ablation_interleaving().report().into(),
    },
    Experiment {
        id: "abl-ff",
        run: |_| ablation_ff_overhead().report().into(),
    },
    Experiment {
        id: "abl-alu",
        run: |_| ablation_alu_count().report().into(),
    },
    Experiment {
        id: "abl-thick",
        run: |_| ablation_wire_thickness().report().into(),
    },
    Experiment {
        id: "abl-depth",
        run: |_| ablation_depth_sweep().report().into(),
    },
    Experiment {
        id: "abl-engine",
        run: |_| ablation_engine_comparison().report().into(),
    },
    Experiment {
        id: "abl-core-engine",
        run: |_| ablation_core_engine().report().into(),
    },
    Experiment {
        id: "abl-ipc",
        run: |_| ipc_cross_validation().report().into(),
    },
    Experiment {
        id: "cpi-sim",
        run: |_| cpi_stack_cycle_level().report().into(),
    },
    Experiment {
        id: "abl-coherence",
        run: |_| coherence_cross_validation().report().into(),
    },
    Experiment {
        id: "summary",
        run: |fidelity| headline_summary(fidelity).report().into(),
    },
];

fn fig23(fidelity: Fidelity) -> Section {
    let fig23 = fig23_system_performance(fidelity);
    let summary = format!(
        "fig23 summary: {:.2}x vs CHP (paper 2.53), {:.2}x vs 300K (paper 3.82), \
         CryoSP-only {:.3} (paper 1.161), CryoBus-only {:.2} (paper ~2.1), \
         best case {} at {:.2}x (paper: streamcluster 5.74)",
        fig23.average_speedup_vs_chp,
        fig23.average_speedup_vs_300k,
        fig23.cryosp_only_speedup,
        fig23.cryobus_only_speedup,
        fig23.best_case.0,
        fig23.best_case.1
    );
    Section {
        report: fig23.report(),
        summary: Some(summary),
    }
}

fn fig24(fidelity: Fidelity) -> Section {
    let fig24 = fig24_spec_prefetch(fidelity);
    let summary = format!(
        "fig24 summary: {:.2}x vs 300K (paper 2.11), {:.2}x vs CHP (paper 1.372), \
         2-way {:.2}x vs 300K (paper 2.34); contention-bound: {:?}",
        fig24.cryobus_vs_300k, fig24.cryobus_vs_chp, fig24.cryobus2_vs_300k, fig24.contention_bound
    );
    Section {
        report: fig24.report(),
        summary: Some(summary),
    }
}
