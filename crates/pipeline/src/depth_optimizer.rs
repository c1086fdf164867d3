//! Generalized pipelining-depth optimization.
//!
//! The paper splits each over-target frontend stage into exactly two
//! (Section 4.4). This module generalizes the transform — any pipelinable
//! frontend stage may be cut into `k` pieces — and searches for the
//! performance-optimal depth at a given temperature, weighing clock gain
//! against the IPC cost of a deeper refill path. It confirms the paper's
//! design point: at 77 K the 2-way split of the three bottleneck stages
//! is (near-)optimal, and at 300 K no splitting is worthwhile.

use cryowire_device::Temperature;

use crate::critical_path::{max_total_ps, CriticalPathModel};
use crate::ipc::IpcModel;
use crate::stages::StageKind;
use crate::superpipeline::FLIP_FLOP_OVERHEAD_PS;

/// One evaluated depth configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthPoint {
    /// Maximum split factor applied to over-target frontend stages.
    pub max_split: usize,
    /// Stages added relative to the baseline pipeline.
    pub added_stages: usize,
    /// Achieved clock, GHz.
    pub frequency_ghz: f64,
    /// IPC factor relative to the baseline depth.
    pub ipc_factor: f64,
    /// Net performance factor (frequency × IPC), normalized to the
    /// unsplit pipeline at the same temperature.
    pub net_performance: f64,
}

/// Searches split factors 1..=`max_split` at temperature `t`.
///
/// The stage delays at `t` are evaluated once; the unsplit clock comes
/// from them through the same max over stages as
/// [`CriticalPathModel::max_delay_ps`], so it equals
/// [`CriticalPathModel::frequency_ghz`] bit for bit.
#[must_use]
pub fn sweep_depths(
    model: &CriticalPathModel,
    t: Temperature,
    max_split: usize,
) -> Vec<DepthPoint> {
    let ipc = IpcModel::parsec_calibrated();
    let tf = model.transistor_factor(t);
    let ff = FLIP_FLOP_OVERHEAD_PS * tf;
    let delays = model.stage_delays(t);
    let base_freq = 1_000.0 / max_total_ps(&delays);

    // Target latency: the longest un-pipelinable stage.
    let target = max_total_ps(delays.iter().filter(|d| !d.pipelinable));

    (1..=max_split.max(1))
        .map(|split| {
            let mut max_delay: f64 = 0.0;
            let mut added = 0;
            for d in &delays {
                let total = d.total_ps();
                if d.pipelinable && d.kind == StageKind::Frontend && total > target && split > 1 {
                    // Choose the smallest cut count (≤ split) that gets
                    // under the target, if any.
                    let mut best = total;
                    let mut cuts = 1;
                    for k in 2..=split {
                        let piece = total / k as f64 + ff;
                        if piece < best {
                            best = piece;
                            cuts = k;
                        }
                        if piece <= target {
                            break;
                        }
                    }
                    added += cuts - 1;
                    max_delay = max_delay.max(best);
                } else {
                    max_delay = max_delay.max(total);
                }
            }
            let frequency_ghz = 1_000.0 / max_delay;
            let ipc_factor = ipc.depth_penalty_factor(added);
            DepthPoint {
                max_split: split,
                added_stages: added,
                frequency_ghz,
                ipc_factor,
                net_performance: frequency_ghz / base_freq * ipc_factor,
            }
        })
        .collect()
}

/// The performance-optimal point of the sweep.
///
/// # Panics
///
/// Panics if `max_split` is zero.
#[must_use]
pub fn optimal_depth(model: &CriticalPathModel, t: Temperature, max_split: usize) -> DepthPoint {
    *sweep_depths(model, t, max_split)
        .iter()
        .max_by(|a, b| a.net_performance.total_cmp(&b.net_performance))
        .expect("sweep is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_design_point_is_near_optimal_at_77k() {
        // The 2-way split must capture (almost) all of the benefit —
        // deeper cuts run into the backend target and only add IPC cost.
        let model = CriticalPathModel::boom_skylake();
        let t77 = Temperature::liquid_nitrogen();
        let best = optimal_depth(&model, t77, 4);
        let two_way = &sweep_depths(&model, t77, 4)[1];
        assert!(
            two_way.net_performance > 0.97 * best.net_performance,
            "2-way split at {} vs best {} ({}-way)",
            two_way.net_performance,
            best.net_performance,
            best.max_split
        );
        assert!(
            two_way.net_performance > 1.25,
            "77 K splitting must pay off"
        );
    }

    #[test]
    fn no_split_wins_at_300k() {
        // 300 K Observation #2 restated: the optimizer should find that
        // splitting buys (essentially) nothing at room temperature.
        let model = CriticalPathModel::boom_skylake();
        let pts = sweep_depths(&model, Temperature::ambient(), 4);
        let unsplit = pts[0].net_performance;
        for p in &pts {
            assert!(
                p.net_performance <= unsplit * 1.03,
                "{}-way split should not win at 300 K ({} vs {unsplit})",
                p.max_split,
                p.net_performance
            );
        }
    }

    #[test]
    fn deeper_splits_monotone_frequency_but_not_performance() {
        let model = CriticalPathModel::boom_skylake();
        let pts = sweep_depths(&model, Temperature::liquid_nitrogen(), 6);
        for pair in pts.windows(2) {
            assert!(pair[1].frequency_ghz >= pair[0].frequency_ghz - 1e-9);
        }
        // IPC strictly falls once stages are added.
        assert!(pts.last().unwrap().ipc_factor <= pts[0].ipc_factor);
    }

    #[test]
    fn added_stage_counts_are_sane() {
        let model = CriticalPathModel::boom_skylake();
        let pts = sweep_depths(&model, Temperature::liquid_nitrogen(), 2);
        assert_eq!(pts[0].added_stages, 0);
        assert_eq!(pts[1].added_stages, 3); // fetch1, fetch3, decode&rename
    }
}
