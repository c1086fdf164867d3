//! Pipeline experiments: Figs. 2, 9, 12, 13, 14 and Tables 1, 3.

use cryowire_device::Temperature;
use cryowire_floorplan::{Floorplan, UnitKind};
use cryowire_pipeline::{
    CoreDesign, CriticalPathModel, StageDelayReport, Superpipeliner, ValidationHarness,
};

use crate::report::{fmt2, fmt3, Report};

/// Fig. 2: wire/transistor breakdown of the three longest backend stages.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig02Result {
    /// (stage name, transistor ps, wire ps, wire fraction).
    pub stages: Vec<(String, f64, f64, f64)>,
    /// Average wire fraction over the three stages (paper: 57.6 %).
    pub average_wire_fraction: f64,
}

impl Fig02Result {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "fig2",
            "critical-path breakdown of the forwarding stages (300 K)",
            &["stage", "transistor (ps)", "wire (ps)", "wire %"],
        );
        for (name, t, w, f) in &self.stages {
            r.push_row(vec![
                name.clone(),
                fmt2(*t),
                fmt2(*w),
                format!("{:.1}%", f * 100.0),
            ]);
        }
        r
    }
}

/// Runs Fig. 2.
#[must_use]
pub fn fig02_stage_breakdown() -> Fig02Result {
    use cryowire_pipeline::StageId;
    let model = CriticalPathModel::boom_skylake();
    let delays = model.stage_delays(Temperature::ambient());
    let pick = [
        StageId::Writeback,
        StageId::ExecuteBypass,
        StageId::DataReadFromBypass,
    ];
    let stages: Vec<(String, f64, f64, f64)> = delays
        .iter()
        .filter(|d| pick.contains(&d.id))
        .map(|d| {
            (
                d.id.to_string(),
                d.transistor_ps,
                d.wire_ps,
                d.wire_fraction(),
            )
        })
        .collect();
    let avg = stages.iter().map(|s| s.3).sum::<f64>() / stages.len() as f64;
    Fig02Result {
        stages,
        average_wire_fraction: avg,
    }
}

/// Figs. 12/13: the full per-stage critical-path profile at one
/// temperature, normalized to the 300 K maximum.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Result {
    /// Evaluated temperature.
    pub temperature_k: f64,
    /// Per-stage delays.
    pub stages: Vec<StageDelayReport>,
    /// Normalisation base: the 300 K maximum delay, ps.
    pub base_max_ps: f64,
    /// The bottleneck stage's name.
    pub bottleneck: String,
}

impl Fig12Result {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let id: &'static str = if self.temperature_k < 150.0 {
            "fig13"
        } else {
            "fig12"
        };
        let mut r = Report::new(
            id,
            format!("stage critical paths at {} K", self.temperature_k),
            &["stage", "transistor (ps)", "wire (ps)", "normalized"],
        );
        for s in &self.stages {
            r.push_row(vec![
                s.id.to_string(),
                fmt2(s.transistor_ps),
                fmt2(s.wire_ps),
                fmt3(s.total_ps() / self.base_max_ps),
            ]);
        }
        r
    }
}

fn critical_path_at(t: Temperature) -> Fig12Result {
    let model = CriticalPathModel::boom_skylake();
    let base_max_ps = model.max_delay_ps(Temperature::ambient());
    Fig12Result {
        temperature_k: t.kelvin(),
        stages: model.stage_delays(t),
        base_max_ps,
        bottleneck: model.bottleneck(t).id.to_string(),
    }
}

/// Runs Fig. 12 (300 K profile).
#[must_use]
pub fn fig12_critical_path_300k() -> Fig12Result {
    critical_path_at(Temperature::ambient())
}

/// Runs Fig. 13 (77 K profile).
#[must_use]
pub fn fig13_critical_path_77k() -> Fig12Result {
    critical_path_at(Temperature::liquid_nitrogen())
}

/// Fig. 14: the superpipelined 77 K profile and the resulting frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14Result {
    /// Names of the stages that were split.
    pub split_stages: Vec<String>,
    /// Maximum stage delay after splitting, ps.
    pub max_delay_ps: f64,
    /// Reduction of the maximum delay vs the 300 K baseline (paper: 38 %).
    pub reduction_vs_300k: f64,
    /// Clock frequency after superpipelining, GHz (paper: 6.4).
    pub frequency_ghz: f64,
    /// Frequency gain vs 300 K (paper: +61 %).
    pub gain_vs_300k: f64,
    /// Frequency gain vs the unsplit 77 K pipeline (paper: +38 %).
    pub gain_vs_77k: f64,
    /// IPC factor of the deeper frontend (paper: −4.2 %).
    pub ipc_factor: f64,
}

impl Fig14Result {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "fig14",
            "superpipelined critical path at 77 K",
            &["quantity", "value"],
        );
        r.push_row(vec!["split stages".into(), self.split_stages.join(", ")]);
        r.push_row(vec!["max delay (ps)".into(), fmt2(self.max_delay_ps)]);
        r.push_row(vec![
            "max-delay reduction vs 300 K".into(),
            format!("{:.1}%", self.reduction_vs_300k * 100.0),
        ]);
        r.push_row(vec!["frequency (GHz)".into(), fmt2(self.frequency_ghz)]);
        r.push_row(vec![
            "frequency gain vs 300 K".into(),
            format!("{:.1}%", (self.gain_vs_300k - 1.0) * 100.0),
        ]);
        r.push_row(vec![
            "frequency gain vs 77 K baseline".into(),
            format!("{:.1}%", (self.gain_vs_77k - 1.0) * 100.0),
        ]);
        r.push_row(vec!["IPC factor".into(), fmt3(self.ipc_factor)]);
        r
    }
}

/// Runs Fig. 14.
#[must_use]
pub fn fig14_superpipelined() -> Fig14Result {
    let model = CriticalPathModel::boom_skylake();
    let t77 = Temperature::liquid_nitrogen();
    let result = Superpipeliner::new(&model).superpipeline(t77);
    let max300 = model.max_delay_ps(Temperature::ambient());
    Fig14Result {
        split_stages: result
            .split_stages
            .iter()
            .map(|s| s.id.to_string())
            .collect(),
        max_delay_ps: result.max_delay_ps,
        reduction_vs_300k: 1.0 - result.max_delay_ps / max300,
        frequency_ghz: result.frequency_ghz,
        gain_vs_300k: result.frequency_ghz / model.frequency_ghz(Temperature::ambient()),
        gain_vs_77k: result.frequency_ghz / model.frequency_ghz(t77),
        ipc_factor: result.ipc_factor,
    }
}

/// Table 1: unit geometry and forwarding-wire length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tab01Result {
    /// ALU (area µm², width µm, height µm).
    pub alu: (f64, f64, f64),
    /// Register file (area, width, height).
    pub register_file: (f64, f64, f64),
    /// Forwarding-wire length (paper: 1686 µm).
    pub forwarding_wire_um: f64,
}

impl Tab01Result {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "tab1",
            "unit geometry and forwarding-wire length",
            &["unit", "area (um^2)", "width (um)", "height (um)"],
        );
        r.push_row(vec![
            "ALU".into(),
            fmt2(self.alu.0),
            fmt2(self.alu.1),
            fmt2(self.alu.2),
        ]);
        r.push_row(vec![
            "register file".into(),
            fmt2(self.register_file.0),
            fmt2(self.register_file.1),
            fmt2(self.register_file.2),
        ]);
        r.push_row(vec![
            "forwarding wire".into(),
            "-".into(),
            "-".into(),
            fmt2(self.forwarding_wire_um),
        ]);
        r
    }
}

/// Runs Table 1.
#[must_use]
pub fn tab01_floorplan() -> Tab01Result {
    let fp = Floorplan::skylake_like();
    let alu = UnitKind::Alu.geometry();
    let rf = UnitKind::RegisterFile.geometry();
    Tab01Result {
        alu: (alu.area_um2(), alu.width_um(), alu.height_um()),
        register_file: (rf.area_um2(), rf.width_um(), rf.height_um()),
        forwarding_wire_um: fp.forwarding_wire_length_um(),
    }
}

/// Table 3: the five core designs, paper spec vs model-derived frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct Tab03Result {
    /// Per design: (name, spec GHz, model GHz, spec IPC, model IPC,
    /// core power, total power).
    pub rows: Vec<(String, f64, f64, f64, f64, f64, f64)>,
}

impl Tab03Result {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "tab3",
            "core specifications: paper spec vs model-derived",
            &[
                "design",
                "spec GHz",
                "model GHz",
                "spec IPC",
                "model IPC",
                "core power",
                "total power",
            ],
        );
        for (name, sf, mf, si, mi, cp, tp) in &self.rows {
            r.push_row(vec![
                name.clone(),
                fmt2(*sf),
                fmt2(*mf),
                fmt2(*si),
                fmt2(*mi),
                fmt3(*cp),
                fmt2(*tp),
            ]);
        }
        r
    }
}

/// Runs Table 3.
#[must_use]
pub fn tab03_core_specs() -> Tab03Result {
    let rows = CoreDesign::ALL
        .iter()
        .map(|&d| {
            let spec = d.spec();
            let model_f = d
                .model_frequency_ghz()
                .expect("all Table 3 points are feasible");
            (
                d.name().to_string(),
                spec.frequency_ghz,
                model_f,
                spec.ipc_at_4ghz,
                d.model_ipc(),
                spec.core_power,
                spec.total_power,
            )
        })
        .collect();
    Tab03Result { rows }
}

/// Fig. 9: pipeline & router model validation at 135 K.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig09Result {
    /// Model-predicted pipeline speed-up at 135 K (14 nm projection).
    pub pipeline_model: f64,
    /// The paper's measured pipeline speed-up (+12.1 %).
    pub pipeline_measured: f64,
    /// Our pipeline model's error vs the measurement.
    pub pipeline_error: f64,
    /// Per-node router results: (node name, model speed-up, error).
    pub routers: Vec<(String, f64, f64)>,
}

impl Fig09Result {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "fig9",
            "pipeline & router model validation at 135 K",
            &["model", "speed-up", "error vs measured"],
        );
        r.push_row(vec![
            "pipeline (14 nm)".into(),
            fmt3(self.pipeline_model),
            format!("{:.1}%", self.pipeline_error * 100.0),
        ]);
        for (node, s, e) in &self.routers {
            r.push_row(vec![
                format!("router ({node})"),
                fmt3(*s),
                format!("{:.1}%", e * 100.0),
            ]);
        }
        r
    }
}

/// Runs Fig. 9.
#[must_use]
pub fn fig09_validation() -> Fig09Result {
    let h = ValidationHarness::new();
    let pipeline = h.validate_pipeline();
    let routers = h
        .validate_routers()
        .into_iter()
        .map(|(node, rep)| (format!("{node:?}"), rep.model_speedup, rep.error()))
        .collect();
    Fig09Result {
        pipeline_model: pipeline.model_speedup,
        pipeline_measured: pipeline.measured_speedup,
        pipeline_error: pipeline.error(),
        routers,
    }
}

/// Cycle-level CPI stacks: idealization decomposition of the core
/// designs' execution time.
#[derive(Debug, Clone, PartialEq)]
pub struct CpiStackSim {
    /// (configuration, [base, frontend/branch, structure, memory]
    /// cycles, total cycles).
    pub rows: Vec<(String, [u64; 4], u64)>,
}

impl CpiStackSim {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "cpi-sim",
            "cycle-level CPI stacks of the core designs (idealization decomposition)",
            &[
                "configuration",
                "base %",
                "frontend %",
                "structure %",
                "memory %",
            ],
        );
        for (name, stack, total) in &self.rows {
            let pct = |c: u64| format!("{:.1}%", c as f64 / *total as f64 * 100.0);
            r.push_row(vec![
                name.clone(),
                pct(stack[0]),
                pct(stack[1]),
                pct(stack[2]),
                pct(stack[3]),
            ]);
        }
        r
    }
}

/// Decomposes each core design's cycles into stall sources with
/// [`cryowire_ooo::CoreSimulator::cpi_stack`] on the shared arena trace.
///
/// Each configuration is an independent decomposition of the same
/// trace (a real run and a 3-lane batch of idealized runs), fanned out
/// through the harness executor; one scratch per worker serves both.
#[must_use]
pub fn cpi_stack_cycle_level() -> CpiStackSim {
    use cryowire_harness::Executor;
    use cryowire_ooo::{CoreConfig, CoreScratch, CoreSimulator};

    let trace = crate::experiments::ipc_validation::shared_parsec_trace();
    let configs = [
        ("300K Baseline (8-wide)", CoreConfig::skylake_8_wide()),
        (
            "77K Superpipeline (8-wide, +3)",
            CoreConfig::superpipelined_8_wide(),
        ),
        ("CHP-core (4-wide)", CoreConfig::cryocore_4_wide()),
        ("CryoSP (4-wide, +3)", CoreConfig::cryosp()),
    ];
    let rows = Executor::new(configs.len()).run(&configs, |_, (name, cfg)| {
        let mut scratch = CoreScratch::new();
        let stack = CoreSimulator::new(*cfg).cpi_stack_with_scratch(&trace, &mut scratch);
        ((*name).to_string(), stack, stack.iter().sum())
    });
    CpiStackSim { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_wire_fraction_near_paper() {
        let r = fig02_stage_breakdown();
        assert_eq!(r.stages.len(), 3);
        assert!((r.average_wire_fraction - 0.576).abs() < 0.02);
    }

    #[test]
    fn fig12_vs_fig13_bottleneck_moves() {
        let f12 = fig12_critical_path_300k();
        let f13 = fig13_critical_path_77k();
        assert_eq!(f12.bottleneck, "execute bypass");
        assert_ne!(f13.bottleneck, "execute bypass");
        assert_eq!(f12.report().len(), 13);
        assert_eq!(f13.report().id, "fig13");
    }

    #[test]
    fn fig14_matches_section_4_4() {
        let r = fig14_superpipelined();
        assert_eq!(r.split_stages.len(), 3);
        assert!((r.frequency_ghz - 6.4).abs() < 0.3);
        assert!((r.gain_vs_300k - 1.61).abs() < 0.08);
        assert!((r.gain_vs_77k - 1.38).abs() < 0.08);
    }

    #[test]
    fn tab1_forwarding_wire() {
        let r = tab01_floorplan();
        assert!((r.forwarding_wire_um - 1686.0).abs() < 20.0);
        assert_eq!(r.alu.0, 25_757.0);
    }

    #[test]
    fn tab3_model_tracks_spec() {
        let r = tab03_core_specs();
        assert_eq!(r.rows.len(), 5);
        for (name, spec_f, model_f, ..) in &r.rows {
            let err = (spec_f - model_f).abs() / spec_f;
            assert!(err < 0.09, "{name}: spec {spec_f} vs model {model_f}");
        }
    }

    #[test]
    fn fig9_errors_bounded() {
        let r = fig09_validation();
        assert!(r.pipeline_error < 0.06);
        assert_eq!(r.routers.len(), 3);
    }

    #[test]
    fn cpi_stack_sim_components_behave() {
        let r = cpi_stack_cycle_level();
        assert_eq!(r.rows.len(), 4);
        for (name, stack, total) in &r.rows {
            assert_eq!(
                stack.iter().sum::<u64>(),
                *total,
                "{name}: components must sum to the real run"
            );
            assert!(stack[0] > 0, "{name}: base CPI cannot be zero");
            assert!(stack[3] > 0, "{name}: memory stalls cannot be zero");
        }
        // The +3 frontend stages show up as frontend stall cycles.
        let base_frontend = r.rows[0].1[1] as f64 / r.rows[0].2 as f64;
        let deep_frontend = r.rows[1].1[1] as f64 / r.rows[1].2 as f64;
        assert!(
            deep_frontend > base_frontend,
            "superpipelined frontend share {deep_frontend} vs baseline {base_frontend}"
        );
    }
}
