//! Cycle-level IPC validation: Table 3's IPC column and the paper's
//! un-pipelinable-backend observation, re-derived from the out-of-order
//! core simulator instead of the analytic IPC model.
//!
//! Two independent derivations of the same quantities exist in this
//! repository: the analytic model ([`cryowire_pipeline::IpcModel`],
//! calibrated directly on Table 3) and the cycle-level BOOM-like core of
//! `cryowire-ooo` (which *simulates* the structures and the predictor).
//! This experiment runs both and reports the agreement.

use cryowire_ooo::{run_batch_with_scratch, CoreConfig, CoreScratch, TraceArena, TraceConfig};
use cryowire_pipeline::IpcModel;

use crate::report::{fmt3, Report};

/// Result of the IPC cross-validation.
#[derive(Debug, Clone, PartialEq)]
pub struct IpcValidation {
    /// (configuration, analytic IPC factor, simulated IPC factor).
    pub rows: Vec<(String, f64, f64)>,
    /// Simulated IPC loss from pipelining the backend bypass (the 300 K
    /// Observation #2 quantity; the paper calls it "huge").
    pub backend_pipelining_loss: f64,
    /// Simulated IPC loss from the three extra frontend stages.
    pub frontend_depth_loss: f64,
}

impl IpcValidation {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "abl-ipc",
            "Table 3 IPC column: analytic model vs cycle-level core",
            &["configuration", "analytic", "simulated"],
        );
        for (name, a, s) in &self.rows {
            r.push_row(vec![name.clone(), fmt3(*a), fmt3(*s)]);
        }
        r.push_row(vec![
            "backend-pipelining IPC loss".into(),
            "-".into(),
            format!("{:.1}%", self.backend_pipelining_loss * 100.0),
        ]);
        r.push_row(vec![
            "frontend +3 stages IPC loss".into(),
            "-".into(),
            format!("{:.1}%", self.frontend_depth_loss * 100.0),
        ]);
        r
    }
}

/// The trace every core-simulator experiment shares: PARSEC-like mix,
/// 120 k instructions, seed 7. Pulled from the process-wide
/// [`TraceArena`] so the experiment suite generates it exactly once.
pub(crate) fn shared_parsec_trace() -> std::sync::Arc<cryowire_ooo::Trace> {
    TraceArena::global().get(&TraceConfig::parsec_like(), 120_000, 7)
}

/// The configuration grid of the cross-validation, in the order
/// [`ipc_cross_validation`] reads it: Table 3's IPC column plus the
/// pipelined-backend observation point.
#[must_use]
pub fn ipc_validation_grid() -> Vec<(String, CoreConfig)> {
    vec![
        ("skylake-8w".into(), CoreConfig::skylake_8_wide()),
        ("superpipe-8w".into(), CoreConfig::superpipelined_8_wide()),
        ("cryocore-4w".into(), CoreConfig::cryocore_4_wide()),
        ("cryosp".into(), CoreConfig::cryosp()),
        (
            "skylake-8w-b2".into(),
            CoreConfig::skylake_8_wide().with_bypass_cycles(2),
        ),
    ]
}

/// Runs the cross-validation on a PARSEC-like trace.
///
/// The five configurations run as one lockstep batch over the shared
/// arena trace, on the calling thread.
#[must_use]
pub fn ipc_cross_validation() -> IpcValidation {
    let trace = shared_parsec_trace();
    let configs: Vec<CoreConfig> = ipc_validation_grid().into_iter().map(|(_, c)| c).collect();
    let lanes = run_batch_with_scratch(&configs, &trace, &mut CoreScratch::new());
    let [base, deep, narrow, cryosp, piped_backend] = [0, 1, 2, 3, 4].map(|k| lanes[k].ipc());

    let analytic = IpcModel::parsec_calibrated();
    let rows = vec![
        (
            "300K Baseline (8-wide)".to_string(),
            analytic.ipc(0, 8),
            1.0,
        ),
        (
            "77K Superpipeline (8-wide, +3)".to_string(),
            analytic.ipc(3, 8),
            deep / base,
        ),
        (
            "CHP-core (4-wide)".to_string(),
            analytic.ipc(0, 4),
            narrow / base,
        ),
        (
            "CryoSP (4-wide, +3)".to_string(),
            analytic.ipc(3, 4),
            cryosp / base,
        ),
    ];

    IpcValidation {
        rows,
        backend_pipelining_loss: 1.0 - piped_backend / base,
        frontend_depth_loss: 1.0 - deep / base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_tracks_analytic_within_8_points() {
        let v = ipc_cross_validation();
        for (name, analytic, simulated) in &v.rows {
            assert!(
                (analytic - simulated).abs() < 0.08,
                "{name}: analytic {analytic} vs simulated {simulated}"
            );
        }
    }

    #[test]
    fn backend_loss_dwarfs_frontend_loss() {
        // The paper's core argument, from the cycle-level simulator.
        let v = ipc_cross_validation();
        assert!(
            v.backend_pipelining_loss > 3.0 * v.frontend_depth_loss,
            "backend {} vs frontend {}",
            v.backend_pipelining_loss,
            v.frontend_depth_loss
        );
        assert!(v.frontend_depth_loss < 0.10);
    }
}
