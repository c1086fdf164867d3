//! Ablation studies of the paper's design choices.
//!
//! These are not figures from the paper; they isolate each ingredient of
//! CryoSP/CryoBus the paper argues for, quantifying what happens without
//! it (see DESIGN.md §5's checklist):
//!
//! * H-tree topology vs the conventional spine ([`ablation_bus_topology`]),
//! * address interleaving ways ([`ablation_interleaving`]),
//! * flip-flop overhead sensitivity of superpipelining
//!   ([`ablation_ff_overhead`]),
//! * forwarding-wire length vs backend width ([`ablation_alu_count`]),
//! * the Section 7.5 "draw wires thicker" mitigation
//!   ([`ablation_wire_thickness`]),
//! * reservation-engine vs flit-level simulation agreement
//!   ([`ablation_engine_comparison`]),
//! * ring-buffer vs full-trace core-simulator engine agreement and
//!   footprint ([`ablation_core_engine`]).

use cryowire_device::{MosfetModel, ResistivityModel, Temperature, Wire, WireClass};
use cryowire_faults::FaultSchedule;
use cryowire_floorplan::Floorplan;
use cryowire_noc::{
    BusKind, FlitConfig, FlitNetwork, RouterClass, RouterNetwork, SharedBus, SimConfig, SimScratch,
    Simulator, TrafficPattern,
};
use cryowire_pipeline::{sweep_depths, CriticalPathModel, DepthPoint, Superpipeliner};

use crate::report::{fmt2, fmt3, Report};

/// Bus-topology ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct BusTopologyAblation {
    /// (label, broadcast cycles, transaction cycles, saturation rate/core).
    pub rows: Vec<(String, u64, u64, f64)>,
}

impl BusTopologyAblation {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "abl-bus",
            "ablation: bus topology x temperature",
            &[
                "design",
                "broadcast (cyc)",
                "transaction (cyc)",
                "saturation/core",
            ],
        );
        for (name, b, t, s) in &self.rows {
            r.push_row(vec![
                name.clone(),
                b.to_string(),
                t.to_string(),
                format!("{s:.4}"),
            ]);
        }
        r
    }
}

/// Runs the bus-topology ablation: {spine, H-tree} × {300 K, 77 K}.
///
/// # Panics
///
/// Never panics for the fixed valid configurations.
#[must_use]
pub fn ablation_bus_topology() -> BusTopologyAblation {
    let mut rows = Vec::new();
    for (kind, kname) in [(BusKind::Conventional, "spine"), (BusKind::HTree, "H-tree")] {
        for t in [Temperature::ambient(), Temperature::liquid_nitrogen()] {
            let bus = SharedBus::with_kind(kind, 64, t, 1).expect("valid bus");
            rows.push((
                format!("{kname} @ {t}"),
                bus.occupancy_cycles(),
                bus.transaction_latency(),
                bus.saturation_rate_per_core(),
            ));
        }
    }
    BusTopologyAblation { rows }
}

/// Interleaving-ways ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct InterleavingAblation {
    /// (ways, theoretical saturation/core, simulated latency at SPEC-max
    /// load, saturated?).
    pub rows: Vec<(usize, f64, f64, bool)>,
}

impl InterleavingAblation {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "abl-ways",
            "ablation: CryoBus address-interleaving ways",
            &["ways", "saturation/core", "latency @0.013 (cyc)", "state"],
        );
        for (ways, sat, lat, saturated) in &self.rows {
            r.push_row(vec![
                ways.to_string(),
                format!("{sat:.4}"),
                fmt2(*lat),
                if *saturated { "saturated" } else { "ok" }.into(),
            ]);
        }
        r
    }
}

/// Runs the interleaving ablation (ways ∈ {1, 2, 4, 8}, the range prior
/// snooping-bus work demonstrated).
///
/// # Panics
///
/// Never panics for the fixed valid configurations.
#[must_use]
pub fn ablation_interleaving() -> InterleavingAblation {
    use cryowire_noc::CryoBus;
    let t77 = Temperature::liquid_nitrogen();
    let sim = Simulator::new(SimConfig {
        cycles: 10_000,
        warmup: 2_500,
        ..SimConfig::default()
    });
    let rows = [1usize, 2, 4, 8]
        .iter()
        .map(|&ways| {
            let bus = CryoBus::try_new(64, t77, ways).expect("valid CryoBus");
            let r = sim
                .run(
                    &bus,
                    TrafficPattern::UniformRandom,
                    0.013,
                    &FaultSchedule::default(),
                    &mut SimScratch::new(),
                )
                .expect("valid rate");
            (
                ways,
                bus.saturation_rate_per_core(),
                r.avg_latency,
                r.saturated,
            )
        })
        .collect();
    InterleavingAblation { rows }
}

/// Flip-flop-overhead ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct FfOverheadAblation {
    /// (overhead ps, superpipelined GHz, gain vs 300 K, splits).
    pub rows: Vec<(f64, f64, f64, usize)>,
}

impl FfOverheadAblation {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "abl-ff",
            "ablation: flip-flop overhead vs superpipelining gain (77 K)",
            &[
                "FF overhead (ps)",
                "frequency (GHz)",
                "gain vs 300 K",
                "splits",
            ],
        );
        for (ff, f, g, s) in &self.rows {
            r.push_row(vec![fmt2(*ff), fmt2(*f), fmt3(*g), s.to_string()]);
        }
        r
    }
}

/// Runs the flip-flop-overhead sensitivity sweep.
#[must_use]
pub fn ablation_ff_overhead() -> FfOverheadAblation {
    let model = CriticalPathModel::boom_skylake();
    let f300 = model.frequency_ghz(Temperature::ambient());
    let t77 = Temperature::liquid_nitrogen();
    let rows = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
        .iter()
        .map(|&ff| {
            let result = Superpipeliner::new(&model)
                .with_ff_overhead_ps(ff)
                .superpipeline(t77);
            (
                ff,
                result.frequency_ghz,
                result.frequency_ghz / f300,
                result.added_stages,
            )
        })
        .collect();
    FfOverheadAblation { rows }
}

/// ALU-count (forwarding-wire length) ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct AluCountAblation {
    /// (ALUs, forwarding wire µm, 300 K GHz, 77 K superpipelined GHz).
    pub rows: Vec<(usize, f64, f64, f64)>,
}

impl AluCountAblation {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "abl-alu",
            "ablation: backend width vs forwarding wire vs frequency",
            &["ALUs", "fwd wire (um)", "300K GHz", "77K sp GHz"],
        );
        for (alus, len, f300, f77) in &self.rows {
            r.push_row(vec![alus.to_string(), fmt2(*len), fmt2(*f300), fmt2(*f77)]);
        }
        r
    }
}

/// Runs the ALU-count ablation: wider backends stretch the forwarding
/// wires, slowing the un-pipelinable stages — the Palacharla-era effect
/// the paper's 77 K wires attack.
#[must_use]
pub fn ablation_alu_count() -> AluCountAblation {
    let t77 = Temperature::liquid_nitrogen();
    let rows = [4usize, 6, 8, 12]
        .iter()
        .map(|&alus| {
            let fp = Floorplan::with_alu_count(alus);
            let len = fp.forwarding_wire_length_um();
            let model = CriticalPathModel::boom_skylake().with_floorplan(fp);
            let f300 = model.frequency_ghz(Temperature::ambient());
            let f77 = Superpipeliner::new(&model).superpipeline(t77).frequency_ghz;
            (alus, len, f300, f77)
        })
        .collect();
    AluCountAblation { rows }
}

/// Wire-thickness (Section 7.5) ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct WireThicknessAblation {
    /// (size-floor scale, semi-global speed-up @77 K for the forwarding
    /// wire).
    pub rows: Vec<(f64, f64)>,
}

impl WireThicknessAblation {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "abl-thick",
            "ablation: wire size-scattering floor vs 77 K speed-up (Section 7.5)",
            &["size-floor scale", "forwarding-wire speed-up"],
        );
        for (scale, s) in &self.rows {
            r.push_row(vec![fmt2(*scale), fmt2(*s)]);
        }
        r
    }
}

/// Runs the Section 7.5 experiment: scaling the temperature-independent
/// size-scattering floor (thinner wires in newer nodes = larger floor;
/// "drawing wires thicker" = smaller floor) and observing the cryogenic
/// speed-up.
#[must_use]
pub fn ablation_wire_thickness() -> WireThicknessAblation {
    use cryowire_device::calib;
    let mosfet = MosfetModel::industry_45nm();
    let t77 = Temperature::liquid_nitrogen();
    let rows = [0.25, 0.5, 1.0, 2.0, 4.0]
        .iter()
        .map(|&scale| {
            let rho = ResistivityModel::intel_45nm().with_size_floors(
                calib::RHO_SIZE_LOCAL * scale,
                calib::RHO_SIZE_SEMI_GLOBAL * scale,
                calib::RHO_SIZE_GLOBAL * scale,
            );
            let wire = Wire::new(WireClass::SemiGlobal, 1_686.0);
            let d300 = wire.unrepeated_delay_ps(&mosfet, &rho, Temperature::ambient());
            let d77 = wire.unrepeated_delay_ps(&mosfet, &rho, t77);
            (scale, d300 / d77)
        })
        .collect();
    WireThicknessAblation { rows }
}

/// Depth-sweep ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthSweepAblation {
    /// Points at 77 K.
    pub at_77k: Vec<DepthPoint>,
    /// Points at 300 K.
    pub at_300k: Vec<DepthPoint>,
}

impl DepthSweepAblation {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "abl-depth",
            "ablation: frontend split factor vs net performance",
            &["T (K)", "split", "added", "GHz", "IPC", "net perf"],
        );
        for (t, pts) in [(77.0, &self.at_77k), (300.0, &self.at_300k)] {
            for p in pts {
                r.push_row(vec![
                    format!("{t:.0}"),
                    p.max_split.to_string(),
                    p.added_stages.to_string(),
                    fmt2(p.frequency_ghz),
                    fmt3(p.ipc_factor),
                    fmt3(p.net_performance),
                ]);
            }
        }
        r
    }
}

/// Runs the generalized depth sweep (Section 4.4's transform extended to
/// k-way splits) at 77 K and 300 K.
#[must_use]
pub fn ablation_depth_sweep() -> DepthSweepAblation {
    let model = CriticalPathModel::boom_skylake();
    DepthSweepAblation {
        at_77k: sweep_depths(&model, Temperature::liquid_nitrogen(), 4),
        at_300k: sweep_depths(&model, Temperature::ambient(), 4),
    }
}

/// Engine-comparison ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineComparisonAblation {
    /// (injection rate, reservation-engine latency, flit-level latency).
    pub rows: Vec<(f64, f64, f64)>,
}

impl EngineComparisonAblation {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "abl-engine",
            "ablation: reservation engine vs flit-level router simulation (77 K mesh)",
            &["rate", "reservation (cyc)", "flit-level (cyc)"],
        );
        for (rate, res, flit) in &self.rows {
            r.push_row(vec![format!("{rate:.3}"), fmt2(*res), fmt2(*flit)]);
        }
        r
    }
}

/// Runs the engine comparison on the 64-core mesh at low/moderate loads.
///
/// # Panics
///
/// Never panics for the fixed valid configurations.
#[must_use]
pub fn ablation_engine_comparison() -> EngineComparisonAblation {
    let t77 = Temperature::liquid_nitrogen();
    let reservation_net = RouterNetwork::mesh64(RouterClass::OneCycle, t77);
    let sim = Simulator::new(SimConfig {
        cycles: 10_000,
        warmup: 2_500,
        ..SimConfig::default()
    });
    let mut scratch = SimScratch::new();
    let mut flit_net =
        FlitNetwork::new(FlitConfig::table4_mesh64(RouterClass::OneCycle)).expect("valid");
    let rows = [0.002, 0.01, 0.05]
        .iter()
        .map(|&rate| {
            let res = sim
                .run(
                    &reservation_net,
                    TrafficPattern::UniformRandom,
                    rate,
                    &FaultSchedule::default(),
                    &mut scratch,
                )
                .expect("valid rate");
            let flit = flit_net
                .run(TrafficPattern::UniformRandom, rate, 10_000, 2_500, 7)
                .expect("valid rate");
            (rate, res.avg_latency, flit.avg_latency)
        })
        .collect();
    EngineComparisonAblation { rows }
}

/// Core-engine ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreEngineAblation {
    /// (trace profile, cycles, IPC, ring slots, full-trace slots,
    /// footprint ratio).
    pub rows: Vec<(String, u64, f64, usize, usize, f64)>,
}

impl CoreEngineAblation {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "abl-core-engine",
            "ablation: ring-buffer vs full-trace core-simulator engine",
            &[
                "profile",
                "cycles",
                "IPC",
                "ring slots",
                "full-trace slots",
                "ratio",
            ],
        );
        for (name, cycles, ipc, ring, full, ratio) in &self.rows {
            r.push_row(vec![
                name.clone(),
                cycles.to_string(),
                fmt2(*ipc),
                ring.to_string(),
                full.to_string(),
                format!("{ratio:.0}x"),
            ]);
        }
        r
    }
}

/// Compares the ring-buffer core engine against the retained full-trace
/// reference on three trace profiles: asserts their `CoreMetrics` agree
/// bit-for-bit, and reports the scoreboard footprint each needs (the
/// reference keeps five full `u64` series plus the two memory-op commit
/// logs; the rings hold only the live structural window).
///
/// Traces come from the shared [`cryowire_ooo::TraceArena`]; the three
/// profiles are independent runs and fan out through the harness
/// executor.
///
/// # Panics
///
/// Panics if the two engines ever disagree on a profile.
#[must_use]
pub fn ablation_core_engine() -> CoreEngineAblation {
    use cryowire_harness::Executor;
    use cryowire_ooo::core::reference::ReferenceCoreSimulator;
    use cryowire_ooo::{CoreConfig, CoreScratch, CoreSimulator, TraceArena, TraceConfig};

    let n = 60_000;
    let profiles = [
        ("parsec-like", TraceConfig::parsec_like()),
        ("serial chain", TraceConfig::serial_chain()),
        ("independent", TraceConfig::independent()),
    ];
    let rows = Executor::new(profiles.len()).run(&profiles, |_, (name, cfg)| {
        let trace = TraceArena::global().get(cfg, n, 7);
        let config = CoreConfig::skylake_8_wide();
        let mut scratch = CoreScratch::new();
        let metrics = CoreSimulator::new(config).run_with_scratch(&trace, &mut scratch);
        let reference = ReferenceCoreSimulator::new(config).run(&trace);
        assert_eq!(metrics, reference, "engines diverged on {name}");
        let ring = scratch.ring_slots();
        // Five timestamp series plus the load/store commit logs, one
        // u64 per instruction (resp. per memory op) each.
        let mem_ops = trace
            .insts()
            .iter()
            .filter(|i| {
                matches!(
                    i.kind,
                    cryowire_ooo::InstKind::Load { .. } | cryowire_ooo::InstKind::Store
                )
            })
            .count();
        let full = 5 * n + mem_ops;
        (
            (*name).to_string(),
            metrics.cycles,
            metrics.ipc(),
            ring,
            full,
            full as f64 / ring as f64,
        )
    });
    CoreEngineAblation { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_engine_agreement_and_footprint() {
        // Bit-identity is asserted inside the ablation itself; here we
        // pin the footprint claim: the rings are orders of magnitude
        // smaller than the full-trace scoreboards on window-bounded
        // traces (`independent` has huge dependency distances, so its
        // `complete` ring legitimately grows toward the trace length).
        let r = ablation_core_engine();
        assert_eq!(r.rows.len(), 3);
        for (name, cycles, _, ring, full, ratio) in &r.rows {
            assert!(*cycles > 0);
            assert!(ring < full, "{name}: ring {ring} vs full {full}");
            assert!(*ratio > 10.0, "{name}: footprint ratio only {ratio}");
        }
        let parsec = &r.rows[0];
        assert!(parsec.5 > 100.0, "parsec-like ratio only {}", parsec.5);
    }

    #[test]
    fn bus_topology_needs_both_ingredients() {
        let r = ablation_bus_topology();
        assert_eq!(r.rows.len(), 4);
        // Only H-tree @ 77 K reaches 1-cycle broadcast.
        let single: Vec<&String> = r
            .rows
            .iter()
            .filter(|(_, b, _, _)| *b == 1)
            .map(|(n, ..)| n)
            .collect();
        assert_eq!(single.len(), 1);
        assert!(single[0].contains("H-tree") && single[0].contains("77"));
    }

    #[test]
    fn interleaving_monotone() {
        let r = ablation_interleaving();
        let mut last_sat = 0.0;
        for (_, sat, _, _) in &r.rows {
            assert!(*sat > last_sat, "saturation rate must grow with ways");
            last_sat = *sat;
        }
        // 1-way near the 0.013 load is strained; 4-way is comfortable.
        assert!(!r.rows[2].3, "4-way should not saturate at 0.013");
    }

    #[test]
    fn ff_overhead_degrades_gracefully() {
        let r = ablation_ff_overhead();
        let mut last = f64::INFINITY;
        for (_, f, _, _) in &r.rows {
            assert!(*f <= last + 1e-9, "more FF overhead cannot speed things up");
            last = *f;
        }
        // Even at 30 ps the gain over 300 K stays healthy.
        assert!(r.rows.last().unwrap().2 > 1.3);
    }

    #[test]
    fn wider_backend_longer_wire_lower_300k_clock() {
        let r = ablation_alu_count();
        assert!(r.rows[0].1 < r.rows[3].1, "more ALUs = longer wire");
        assert!(
            r.rows[0].2 >= r.rows[3].2,
            "longer forwarding wire cannot raise the 300 K clock"
        );
    }

    #[test]
    fn thicker_wires_preserve_cryo_benefit() {
        // Section 7.5: smaller size floor (thicker wire) ⇒ larger 77 K
        // speed-up.
        let r = ablation_wire_thickness();
        let mut last = f64::INFINITY;
        for (_, s) in &r.rows {
            assert!(*s < last, "speed-up must fall as the floor grows");
            last = *s;
        }
        assert!(r.rows[0].1 > r.rows.last().unwrap().1 + 0.5);
    }

    #[test]
    fn depth_sweep_confirms_the_paper_design_point() {
        let r = ablation_depth_sweep();
        // 77 K: the 2-way split is within 3 % of the best net performance.
        let best = r
            .at_77k
            .iter()
            .map(|p| p.net_performance)
            .fold(0.0f64, f64::max);
        assert!(r.at_77k[1].net_performance > 0.97 * best);
        // 300 K: nothing beats not splitting.
        let unsplit = r.at_300k[0].net_performance;
        assert!(r
            .at_300k
            .iter()
            .all(|p| p.net_performance <= unsplit * 1.03));
        assert_eq!(r.report().len(), 8);
    }

    #[test]
    fn engines_agree_at_low_load() {
        let r = ablation_engine_comparison();
        let (_, res, flit) = r.rows[0];
        let err = (res - flit).abs() / flit;
        assert!(
            err < 0.45,
            "reservation {res} vs flit {flit} at low load (err {err})"
        );
    }
}
