//! Consistency checks across crate boundaries: the same physical quantity
//! derived through different crates must agree.

use cryowire::device::{MosfetModel, RepeaterOptimizer, Temperature, Wire, WireClass};
use cryowire::faults::FaultSchedule;
use cryowire::floorplan::Floorplan;
use cryowire::noc::{
    CryoBus, LinkModel, Network, SharedBus, SimConfig, SimResult, SimScratch, Simulator,
    TrafficPattern,
};
use cryowire::pipeline::{CoreDesign, CriticalPathModel, Superpipeliner};
use cryowire::system::{ContentionEstimate, SystemDesign, SystemSimulator, Workload};

#[test]
fn pipeline_wire_factor_agrees_with_device_crate() {
    // The pipeline crate's wire factor must equal the device crate's
    // forwarding-wire speed-up for the floorplan's wire length.
    let model = CriticalPathModel::boom_skylake();
    let mosfet = MosfetModel::industry_45nm();
    let rho = cryowire::device::ResistivityModel::intel_45nm();
    let fp = Floorplan::skylake_like();
    let wire = Wire::new(WireClass::SemiGlobal, fp.forwarding_wire_length_um());
    let t77 = Temperature::liquid_nitrogen();
    let direct = wire.unrepeated_speedup(&mosfet, &rho, t77);
    let via_pipeline = 1.0 / model.wire_factor(t77);
    assert!(
        (direct - via_pipeline).abs() < 1e-9,
        "device {direct} vs pipeline {via_pipeline}"
    );
}

#[test]
fn table3_spec_frequencies_track_model_chain() {
    // Table 3's published frequencies and the full model derivation must
    // agree within a small tolerance for every design.
    for design in CoreDesign::ALL {
        let spec = design.spec().frequency_ghz;
        let model = design.model_frequency_ghz().expect("feasible");
        let err = (spec - model).abs() / spec;
        assert!(
            err < 0.09,
            "{}: spec {spec} vs model {model}",
            design.name()
        );
    }
}

#[test]
fn link_model_agrees_with_repeater_optimizer() {
    // hops/cycle must follow the repeated 2 mm global wire speed-up.
    let link = LinkModel::new();
    let opt = RepeaterOptimizer::new(&MosfetModel::industry_45nm());
    let wire = Wire::new(WireClass::Global, 2_000.0);
    let t77 = Temperature::liquid_nitrogen();
    assert!((link.speedup(t77) - opt.speedup(&wire, t77)).abs() < 1e-9);
}

/// One fault-free uniform-random reservation run at `rate`.
fn uniform_run(sim: &Simulator, net: &dyn Network, rate: f64) -> SimResult {
    let pattern = TrafficPattern::UniformRandom;
    sim.run(
        net,
        pattern,
        rate,
        &FaultSchedule::default(),
        &mut SimScratch::new(),
    )
    .expect("valid rate")
}

#[test]
fn bus_saturation_theory_matches_cycle_simulation() {
    // The analytic saturation rate (ways / (occupancy × cores)) must
    // separate a passing load from a saturating load in the cycle-level
    // simulator.
    let bus = SharedBus::new(64, Temperature::liquid_nitrogen());
    let sat = bus.saturation_rate_per_core();
    let sim = Simulator::new(SimConfig {
        cycles: 20_000,
        warmup: 4_000,
        ..SimConfig::default()
    });
    let below = uniform_run(&sim, &bus, sat * 0.6);
    let above = uniform_run(&sim, &bus, (sat * 1.6).min(0.9));
    assert!(!below.saturated, "60% of capacity must not saturate");
    assert!(above.saturated, "160% of capacity must saturate");
}

#[test]
fn contention_estimate_brackets_simulator() {
    // The system crate's queueing estimate and the NoC crate's simulator
    // agree on zero-load latency exactly and on moderate-load latency
    // within 30 %.
    let bus = CryoBus::new(64, Temperature::liquid_nitrogen());
    let rate = 0.006;
    let est = ContentionEstimate::estimate(&bus, TrafficPattern::UniformRandom, rate)
        .expect("valid rate");
    assert!((est.zero_load_latency - bus.transaction_latency() as f64).abs() < 1e-9);
    let sim = Simulator::new(SimConfig {
        cycles: 30_000,
        warmup: 6_000,
        ..SimConfig::default()
    });
    let exact = uniform_run(&sim, &bus, rate);
    let err = (est.avg_latency - exact.avg_latency).abs() / exact.avg_latency;
    assert!(
        err < 0.30,
        "estimate {} vs sim {}",
        est.avg_latency,
        exact.avg_latency
    );
}

#[test]
fn superpipelining_also_helps_the_4_wide_floorplan() {
    // CryoCore's halved backend shortens the forwarding wire; the
    // superpipelining methodology must still pick the same three stages.
    let model = CriticalPathModel::boom_skylake().with_floorplan(Floorplan::with_alu_count(4));
    let result = Superpipeliner::new(&model).superpipeline(Temperature::liquid_nitrogen());
    assert_eq!(result.added_stages, 3);
    assert!(result.frequency_ghz > 6.0);
}

#[test]
fn system_performance_scales_with_core_frequency_when_core_bound() {
    // With the ideal NoC and a compute-bound workload, doubling the clock
    // must nearly double performance (the system model's core term).
    let sim = SystemSimulator::new();
    let w = Workload::parsec_by_name("blackscholes").expect("known workload");
    let base = SystemDesign::chp_mesh().with_ideal_noc();
    let fast = SystemDesign::chp_mesh()
        .with_ideal_noc()
        .with_core_frequency(12.2);
    let p1 = sim.evaluate(&w, &base).performance();
    let p2 = sim.evaluate(&w, &fast).performance();
    let gain = p2 / p1;
    assert!(gain > 1.5 && gain <= 2.0, "clock-doubling gain = {gain}");
}

#[test]
fn evaluation_set_monotonicity() {
    // Fig. 23's designs must be ordered: every workload runs fastest on
    // the full design and slowest on one of the two baselines.
    let sim = SystemSimulator::new();
    let designs = SystemDesign::evaluation_set();
    for w in Workload::parsec() {
        let perfs: Vec<f64> = designs
            .iter()
            .map(|d| sim.evaluate(&w, d).performance())
            .collect();
        let max = perfs.iter().copied().fold(0.0, f64::max);
        assert!(
            (perfs[4] - max).abs() / max < 1e-9,
            "{}: CryoSP+CryoBus should be fastest",
            w.name
        );
        assert!(perfs[2] >= perfs[1], "{}: CryoSP+Mesh >= CHP+Mesh", w.name);
        assert!(perfs[3] >= perfs[1], "{}: CHP+CryoBus >= CHP+Mesh", w.name);
    }
}

#[test]
fn cryobus_mechanism_consistent_with_latency_model() {
    // The Fig. 19 mechanism pieces must match the latency model's
    // structure: a 64-core CryoBus has a 3-level H-tree whose broadcast
    // reaches all cores, and its arbiter serves all 64 requesters.
    let bus = CryoBus::new(64, Temperature::liquid_nitrogen());
    assert_eq!(bus.fabric().levels(), 3);
    assert_eq!(bus.arbiter().len(), 64);
    assert_eq!(
        bus.fabric().broadcast_reach(17).len(),
        bus.topology().nodes()
    );
}

#[test]
fn parsec_injection_rates_land_in_the_fig18_band() {
    // The Fig. 18 workload bands are encoded as constants in the NoC
    // crate; the system model's converged injection rates for the PARSEC
    // profiles must actually fall at or below that band (the premise of
    // Guideline #2).
    use cryowire::noc::WORKLOAD_BANDS;
    let sim = SystemSimulator::new();
    let design = SystemDesign::chp_cryobus();
    let parsec_band = WORKLOAD_BANDS[0];
    for w in Workload::parsec() {
        let rate = sim.evaluate(&w, &design).injection_rate;
        assert!(
            rate <= parsec_band.max_rate * 2.0,
            "{}: injection rate {rate} far above the PARSEC band ({})",
            w.name,
            parsec_band.max_rate
        );
    }
}

#[test]
fn router_timing_supports_table4_mesh_clock() {
    // The system configs hard-code Table 4's 5.44 GHz 77 K mesh clock;
    // the router-stage timing model must independently support it.
    use cryowire::device::{OperatingPoint, Temperature};
    use cryowire::noc::RouterTimingModel;
    let m = RouterTimingModel::eva_like();
    let f = m.frequency_ghz_at(Temperature::liquid_nitrogen(), OperatingPoint::noc_77k());
    assert!((f - 5.44).abs() / 5.44 < 0.12, "router model gives {f} GHz");
}
