//! Frontend superpipelining at 77 K (Section 4.4).
//!
//! The methodology, exactly as the paper states it:
//!
//! 1. among the un-pipelinable backend stages, take the longest delay at
//!    the target temperature as the **target latency** (execute bypass at
//!    77 K);
//! 2. split every *pipelinable frontend* stage whose delay exceeds the
//!    target into two stages (inserting a flip-flop, which adds a fixed
//!    sequencing overhead);
//! 3. accept the transformation if the frequency gain exceeds the IPC
//!    loss from the deeper front end.

use cryowire_device::Temperature;

use crate::critical_path::{max_total_ps, CriticalPathModel, StageDelayReport};
use crate::ipc::IpcModel;
use crate::stages::{Stage, StageKind};

/// Flip-flop sequencing overhead (setup + clk-to-q) at 300 K, ps.
/// Scales with the transistor factor when cooled.
pub const FLIP_FLOP_OVERHEAD_PS: f64 = 15.0;

/// Result of applying the superpipelining methodology at one temperature.
#[derive(Debug, Clone)]
pub struct SuperpipelineResult {
    /// The stages that were split (paper: fetch1, fetch3, decode & rename).
    pub split_stages: Vec<StageDelayReport>,
    /// The target latency (longest un-pipelinable backend delay), ps.
    pub target_latency_ps: f64,
    /// Maximum stage delay after splitting, ps.
    pub max_delay_ps: f64,
    /// Clock frequency after splitting, GHz.
    pub frequency_ghz: f64,
    /// Number of pipeline stages added.
    pub added_stages: usize,
    /// IPC relative to the unsplit pipeline at equal frequency
    /// (Table 3 methodology: IPC compared at 4 GHz).
    pub ipc_factor: f64,
}

impl SuperpipelineResult {
    /// Net performance factor versus the unsplit pipeline at the same
    /// temperature: frequency gain × IPC factor.
    #[must_use]
    pub fn net_gain_over(&self, unsplit_frequency_ghz: f64) -> f64 {
        self.frequency_ghz / unsplit_frequency_ghz * self.ipc_factor
    }
}

/// Applies the Section 4.4 methodology to a critical-path model.
#[derive(Debug, Clone)]
pub struct Superpipeliner {
    model: CriticalPathModel,
    ipc: IpcModel,
    ff_overhead_ps: f64,
}

impl Superpipeliner {
    /// Creates a superpipeliner over `model` with the default IPC model
    /// and flip-flop overhead.
    #[must_use]
    pub fn new(model: &CriticalPathModel) -> Self {
        Superpipeliner {
            model: model.clone(),
            ipc: IpcModel::parsec_calibrated(),
            ff_overhead_ps: FLIP_FLOP_OVERHEAD_PS,
        }
    }

    /// Overrides the flip-flop overhead (300 K ps).
    #[must_use]
    pub fn with_ff_overhead_ps(mut self, ps: f64) -> Self {
        self.ff_overhead_ps = ps;
        self
    }

    /// The target latency at `t`: the longest un-pipelinable backend stage.
    #[must_use]
    pub fn target_latency_ps(&self, t: Temperature) -> f64 {
        max_total_ps(self.model.stage_delays(t).iter().filter(|s| !s.pipelinable))
    }

    /// Runs the superpipelining methodology at temperature `t`.
    #[must_use]
    pub fn superpipeline(&self, t: Temperature) -> SuperpipelineResult {
        let target = self.target_latency_ps(t);
        let delays = self.model.stage_delays(t);
        let ff = self.ff_overhead_ps * self.model.transistor_factor(t);

        let mut split = Vec::new();
        let mut max_delay: f64 = 0.0;
        for d in &delays {
            let total = d.total_ps();
            if d.pipelinable && d.kind == StageKind::Frontend && total > target {
                // Split into two stages; each gets half the logic plus a
                // flip-flop boundary.
                let half = total / 2.0 + ff;
                split.push(*d);
                max_delay = max_delay.max(half);
            } else {
                max_delay = max_delay.max(total);
            }
        }

        let added = split.len();
        SuperpipelineResult {
            split_stages: split,
            target_latency_ps: target,
            max_delay_ps: max_delay,
            frequency_ghz: 1_000.0 / max_delay,
            added_stages: added,
            ipc_factor: self.ipc.depth_penalty_factor(added),
        }
    }

    /// Produces the post-split stage table (for feeding back into a
    /// [`CriticalPathModel`], e.g. for the Fig. 14 per-stage view).
    ///
    /// Split stages are emitted as two half-delay stages with the flip-flop
    /// overhead folded into their transistor component.
    #[must_use]
    pub fn superpipelined_stages(&self, t: Temperature) -> Vec<Stage> {
        let target = self.target_latency_ps(t);
        let delays = self.model.stage_delays(t);
        let tf = self.model.transistor_factor(t);
        let wf = self.model.wire_factor(t);
        let mut out = Vec::new();
        for (orig, d) in self.model.stages().iter().zip(delays.iter()) {
            let total = d.total_ps();
            if d.pipelinable && d.kind == StageKind::Frontend && total > target {
                // Emit two half stages in 300 K-referenced units.
                for _ in 0..2 {
                    out.push(Stage {
                        transistor_ps: orig.transistor_ps / 2.0 + self.ff_overhead_ps,
                        wire_ps: orig.wire_ps / 2.0,
                        ..*orig
                    });
                }
            } else {
                out.push(*orig);
            }
        }
        // Invariant: the 300 K-referenced table rescales to the same 77 K
        // delays (tf/wf applied by the caller's CriticalPathModel).
        debug_assert!(tf > 0.0 && wf > 0.0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::StageId;

    fn sp() -> Superpipeliner {
        Superpipeliner::new(&CriticalPathModel::boom_skylake())
    }

    #[test]
    fn target_is_execute_bypass_at_77k() {
        let s = sp();
        let t77 = Temperature::liquid_nitrogen();
        let target = s.target_latency_ps(t77);
        let model = CriticalPathModel::boom_skylake();
        let exec = model
            .stage_delays(t77)
            .iter()
            .find(|d| d.id == StageId::ExecuteBypass)
            .unwrap()
            .total_ps();
        assert!(
            (target - exec).abs() < 1e-9,
            "target should be execute bypass"
        );
    }

    #[test]
    fn paper_splits_fetch1_fetch3_decode_rename() {
        let result = sp().superpipeline(Temperature::liquid_nitrogen());
        let ids: Vec<StageId> = result.split_stages.iter().map(|s| s.id).collect();
        assert_eq!(result.added_stages, 3, "split stages: {ids:?}");
        assert!(ids.contains(&StageId::Fetch1));
        assert!(ids.contains(&StageId::Fetch3));
        assert!(ids.contains(&StageId::DecodeRename));
    }

    #[test]
    fn frequency_gain_matches_section_4_4() {
        // Paper: +61 % vs 300 K baseline and +38 % vs 77 K baseline.
        let model = CriticalPathModel::boom_skylake();
        let result = sp().superpipeline(Temperature::liquid_nitrogen());
        let f300 = model.frequency_ghz(Temperature::ambient());
        let f77 = model.frequency_ghz(Temperature::liquid_nitrogen());
        let gain300 = result.frequency_ghz / f300;
        let gain77 = result.frequency_ghz / f77;
        assert!((gain300 - 1.61).abs() < 0.08, "gain vs 300 K = {gain300}");
        assert!((gain77 - 1.38).abs() < 0.08, "gain vs 77 K = {gain77}");
    }

    #[test]
    fn superpipelined_frequency_near_6_4_ghz() {
        let result = sp().superpipeline(Temperature::liquid_nitrogen());
        assert!(
            (result.frequency_ghz - 6.4).abs() < 0.3,
            "superpipelined frequency = {} GHz, Table 3 says 6.4",
            result.frequency_ghz
        );
    }

    #[test]
    fn ipc_penalty_is_small() {
        // Paper: the three added stages cost only ~4.2 % IPC.
        let result = sp().superpipeline(Temperature::liquid_nitrogen());
        assert!(
            (1.0 - result.ipc_factor - 0.042).abs() < 0.02,
            "IPC penalty = {}",
            1.0 - result.ipc_factor
        );
    }

    #[test]
    fn superpipelining_meaningless_at_300k() {
        // At 300 K the un-pipelinable backend is the bottleneck, so
        // splitting the frontend buys (almost) nothing.
        let s = sp();
        let model = CriticalPathModel::boom_skylake();
        let result = s.superpipeline(Temperature::ambient());
        let gain = result.frequency_ghz / model.frequency_ghz(Temperature::ambient());
        assert!(gain < 1.05, "300 K superpipelining gain = {gain}");
    }

    #[test]
    fn net_gain_positive_at_77k() {
        let model = CriticalPathModel::boom_skylake();
        let result = sp().superpipeline(Temperature::liquid_nitrogen());
        let f77 = model.frequency_ghz(Temperature::liquid_nitrogen());
        assert!(result.net_gain_over(f77) > 1.25);
    }

    #[test]
    fn split_table_has_three_more_stages() {
        let s = sp();
        let table = s.superpipelined_stages(Temperature::liquid_nitrogen());
        assert_eq!(table.len(), 16); // 13 + 3 splits
    }

    #[test]
    fn fig14_split_table_reproduces_frequency() {
        // Feeding the split table back into a CriticalPathModel must give
        // the same 77 K frequency as the direct superpipeline() result.
        let s = sp();
        let t77 = Temperature::liquid_nitrogen();
        let result = s.superpipeline(t77);
        let model2 = CriticalPathModel::boom_skylake().with_stages(s.superpipelined_stages(t77));
        let f2 = model2.frequency_ghz(t77);
        assert!(
            (f2 - result.frequency_ghz).abs() / result.frequency_ghz < 0.02,
            "direct = {}, via table = {}",
            result.frequency_ghz,
            f2
        );
    }
}
