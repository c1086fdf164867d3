//! Temperature- and voltage-aware stage critical-path evaluation
//! (the cryo-pipeline model of Fig. 6, with the inter-unit wire extension).
//!
//! Each stage's 300 K decomposition scales with temperature through the
//! device models: the transistor component follows the complex-logic MOSFET
//! delay, and the wire component follows the computed unrepeated
//! semi-global forwarding-wire delay for the floorplan-derived wire length
//! (~1686 µm ⇒ 2.81x at 77 K). Voltage-scaled operating points scale the
//! full stage delay by the MOSFET voltage factor, matching the paper's
//! whole-core voltage domains.

use cryowire_device::{
    GateStyle, MosfetModel, OperatingPoint, ResistivityModel, Temperature, Wire, WireClass,
};
use cryowire_floorplan::Floorplan;

use crate::error::PipelineError;
use crate::stages::{boom_baseline_stages, Stage, StageId, StageKind};

/// Per-stage delay at an evaluated temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageDelayReport {
    /// The stage.
    pub id: StageId,
    /// Frontend or backend.
    pub kind: StageKind,
    /// Transistor component, ps.
    pub transistor_ps: f64,
    /// Wire component, ps.
    pub wire_ps: f64,
    /// Whether the stage can be further pipelined.
    pub pipelinable: bool,
}

impl StageDelayReport {
    /// Total stage delay, ps.
    #[must_use]
    pub fn total_ps(&self) -> f64 {
        self.transistor_ps + self.wire_ps
    }

    /// Wire fraction of the stage delay (0..1).
    #[must_use]
    pub fn wire_fraction(&self) -> f64 {
        self.wire_ps / self.total_ps()
    }
}

/// The pipeline critical-path model bound to device models and a floorplan.
///
/// ```
/// use cryowire_device::Temperature;
/// use cryowire_pipeline::CriticalPathModel;
///
/// let model = CriticalPathModel::boom_skylake();
/// assert!((model.frequency_ghz(Temperature::ambient()) - 4.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct CriticalPathModel {
    stages: Vec<Stage>,
    mosfet: MosfetModel,
    rho: ResistivityModel,
    floorplan: Floorplan,
    /// Unrepeated delay of the floorplan's forwarding wire at 300 K, ps:
    /// the reference [`CriticalPathModel::wire_factor`] divides by.
    wire_300_ps: f64,
}

impl CriticalPathModel {
    /// The paper's configuration: BOOM stage decomposition, Intel-45 nm
    /// device models, Skylake-like floorplan with 8 forwarding-column ALUs.
    #[must_use]
    pub fn boom_skylake() -> Self {
        let mosfet = MosfetModel::industry_45nm();
        let rho = ResistivityModel::intel_45nm();
        let floorplan = Floorplan::skylake_like();
        let wire_300_ps =
            forwarding_wire_delay_ps(&floorplan, &mosfet, &rho, Temperature::ambient());
        CriticalPathModel {
            stages: boom_baseline_stages(),
            mosfet,
            rho,
            floorplan,
            wire_300_ps,
        }
    }

    /// Replaces the stage table (used by the superpipeliner).
    #[must_use]
    pub fn with_stages(mut self, stages: Vec<Stage>) -> Self {
        self.stages = stages;
        self
    }

    /// Replaces the floorplan (e.g. a 4-ALU CryoCore-width backend) and
    /// recomputes the 300 K delay of its forwarding wire, so
    /// [`CriticalPathModel::wire_factor`] stays relative to this
    /// floorplan's own wire.
    #[must_use]
    pub fn with_floorplan(mut self, floorplan: Floorplan) -> Self {
        self.wire_300_ps =
            forwarding_wire_delay_ps(&floorplan, &self.mosfet, &self.rho, Temperature::ambient());
        self.floorplan = floorplan;
        self
    }

    /// The stage table this model evaluates.
    #[must_use]
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The MOSFET model in use.
    #[must_use]
    pub fn mosfet(&self) -> &MosfetModel {
        &self.mosfet
    }

    /// Transistor-delay factor at `t` relative to 300 K (< 1 when cold).
    #[must_use]
    pub fn transistor_factor(&self, t: Temperature) -> f64 {
        self.mosfet
            .nominal_state(GateStyle::ComplexLogic, t)
            .expect("nominal point feasible in validated range")
            .delay_factor
    }

    /// Wire-delay factor at `t` relative to 300 K, computed from the
    /// floorplan's forwarding wire (< 1 when cold; ≈ 1/2.81 at 77 K).
    /// The 300 K delay is fixed when the floorplan is, so a call
    /// evaluates one wire delay, at `t`.
    #[must_use]
    pub fn wire_factor(&self, t: Temperature) -> f64 {
        forwarding_wire_delay_ps(&self.floorplan, &self.mosfet, &self.rho, t) / self.wire_300_ps
    }

    /// Per-stage delays at `t`, nominal (uncompensated) voltages.
    #[must_use]
    pub fn stage_delays(&self, t: Temperature) -> Vec<StageDelayReport> {
        let tf = self.transistor_factor(t);
        let wf = self.wire_factor(t);
        self.stages
            .iter()
            .map(|s| StageDelayReport {
                id: s.id,
                kind: s.kind,
                transistor_ps: s.transistor_ps * tf,
                wire_ps: s.wire_ps * wf,
                pipelinable: s.pipelinable,
            })
            .collect()
    }

    /// Maximum stage delay at `t`, ps — the clock-period bound.
    #[must_use]
    pub fn max_delay_ps(&self, t: Temperature) -> f64 {
        max_total_ps(&self.stage_delays(t))
    }

    /// The stage bounding the clock at `t`.
    #[must_use]
    pub fn bottleneck(&self, t: Temperature) -> StageDelayReport {
        self.stage_delays(t)
            .into_iter()
            .max_by(|a, b| a.total_ps().total_cmp(&b.total_ps()))
            .expect("stage table is non-empty")
    }

    /// Clock frequency at `t` and nominal voltage, GHz.
    #[must_use]
    pub fn frequency_ghz(&self, t: Temperature) -> f64 {
        1_000.0 / self.max_delay_ps(t)
    }

    /// Clock frequency at `t` with a voltage-scaled operating point, GHz.
    ///
    /// The whole stage delay scales with the MOSFET voltage factor —
    /// the paper places the entire core in one scaled voltage domain.
    ///
    /// # Errors
    ///
    /// Propagates [`PipelineError::Device`] for infeasible points.
    pub fn frequency_ghz_at(
        &self,
        t: Temperature,
        point: OperatingPoint,
    ) -> Result<f64, PipelineError> {
        let nominal = self
            .mosfet
            .nominal_state(GateStyle::ComplexLogic, t)?
            .delay_factor;
        let scaled = self.mosfet.state(t, point.v_dd, point.v_th)?.delay_factor;
        Ok(self.frequency_ghz(t) * nominal / scaled)
    }
}

impl Default for CriticalPathModel {
    fn default() -> Self {
        CriticalPathModel::boom_skylake()
    }
}

/// Unrepeated delay at `t` of `floorplan`'s semi-global forwarding wire,
/// ps.
fn forwarding_wire_delay_ps(
    floorplan: &Floorplan,
    mosfet: &MosfetModel,
    rho: &ResistivityModel,
    t: Temperature,
) -> f64 {
    Wire::new(WireClass::SemiGlobal, floorplan.forwarding_wire_length_um())
        .unrepeated_delay_ps(mosfet, rho, t)
}

/// The largest total delay among `delays`, ps (0 for none): the
/// clock-period bound of a stage table.
pub(crate) fn max_total_ps<'a>(delays: impl IntoIterator<Item = &'a StageDelayReport>) -> f64 {
    delays
        .into_iter()
        .map(StageDelayReport::total_ps)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CriticalPathModel {
        CriticalPathModel::boom_skylake()
    }

    #[test]
    fn baseline_300k_is_4ghz() {
        assert!((model().frequency_ghz(Temperature::ambient()) - 4.0).abs() < 0.01);
    }

    #[test]
    fn bottleneck_moves_to_frontend_at_77k() {
        // 77 K Observation #1.
        let m = model();
        let b300 = m.bottleneck(Temperature::ambient());
        let b77 = m.bottleneck(Temperature::liquid_nitrogen());
        assert_eq!(b300.kind, StageKind::Backend);
        assert_eq!(b77.kind, StageKind::Frontend);
    }

    #[test]
    fn fig13_max_delay_reduction_at_77k() {
        // Fig. 13: the maximum critical-path delay shrinks only modestly
        // (paper: ~19 %; our calibration: ~16 %) because the frontend is
        // transistor-dominated.
        let m = model();
        let r =
            m.max_delay_ps(Temperature::liquid_nitrogen()) / m.max_delay_ps(Temperature::ambient());
        assert!(r > 0.78 && r < 0.88, "77 K / 300 K max delay ratio = {r}");
    }

    #[test]
    fn backend_forwarding_stages_collapse_at_77k() {
        // 77 K Observation #2: forwarding-stage delays fall well below the
        // frontend's.
        let m = model();
        let delays = m.stage_delays(Temperature::liquid_nitrogen());
        let get = |id: StageId| {
            delays
                .iter()
                .find(|d| d.id == id)
                .expect("stage present")
                .total_ps()
        };
        assert!(get(StageId::ExecuteBypass) < get(StageId::DecodeRename));
        assert!(get(StageId::DataReadFromBypass) < get(StageId::Fetch3));
    }

    #[test]
    fn wire_factor_at_77k_matches_anchor() {
        let wf = model().wire_factor(Temperature::liquid_nitrogen());
        assert!(
            (1.0 / wf - 2.81).abs() < 0.15,
            "wire speedup = {}",
            1.0 / wf
        );
    }

    #[test]
    fn voltage_scaling_raises_frequency() {
        let m = model();
        let t77 = Temperature::liquid_nitrogen();
        let base = m.frequency_ghz(t77);
        let scaled = m.frequency_ghz_at(t77, OperatingPoint::cryosp()).unwrap();
        assert!(
            scaled / base > 1.1,
            "voltage scaling gain = {}",
            scaled / base
        );
    }

    #[test]
    fn delays_fall_monotonically_with_temperature() {
        let m = model();
        let mut last = f64::INFINITY;
        for k in [300.0, 200.0, 135.0, 100.0, 77.0] {
            let d = m.max_delay_ps(Temperature::new(k).unwrap());
            assert!(d < last);
            last = d;
        }
    }

    #[test]
    fn with_floorplan_rebases_the_wire_factor_on_its_own_wire() {
        // `abl-alu` widens and narrows the forwarding column; each
        // floorplan's wire is its own 300 K reference.
        for alus in 1..=8 {
            let m = model().with_floorplan(Floorplan::with_alu_count(alus));
            assert_eq!(m.wire_factor(Temperature::ambient()), 1.0, "{alus} ALUs");
        }
    }

    #[test]
    fn stage_reports_preserve_order_and_count() {
        let m = model();
        let delays = m.stage_delays(Temperature::ambient());
        assert_eq!(delays.len(), 13);
        assert_eq!(delays[0].id, StageId::Fetch1);
        assert_eq!(delays[12].id, StageId::DCacheAccess);
    }
}
