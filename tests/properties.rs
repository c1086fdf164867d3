//! Property-based tests over the core invariants of the model stack.

use cryowire::device::{
    CoolingModel, GateStyle, MosfetModel, RepeaterOptimizer, ResistivityModel, Temperature, Wire,
    WireClass,
};
use cryowire::faults::FaultPlan;
use cryowire::noc::{CryoBus, MatrixArbiter, Network, SharedBus, Topology, TrafficPattern};
use cryowire::pipeline::{CriticalPathModel, IpcModel, Superpipeliner};
use cryowire::system::{ContentionEstimate, SystemDesign, SystemSimulator, Workload};
use proptest::prelude::*;

fn temp_strategy() -> impl Strategy<Value = Temperature> {
    (77.0f64..=300.0).prop_map(|k| Temperature::new(k).expect("in range"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- device ----

    #[test]
    fn resistivity_positive_and_monotone(k1 in 77.0f64..=299.0, dk in 1.0f64..=100.0) {
        let m = ResistivityModel::intel_45nm();
        let t1 = Temperature::new(k1).unwrap();
        let t2 = Temperature::new((k1 + dk).min(300.0)).unwrap();
        for class in WireClass::ALL {
            let r1 = m.resistivity(class, t1);
            let r2 = m.resistivity(class, t2);
            prop_assert!(r1 > 0.0);
            prop_assert!(r2 >= r1 - 1e-12, "resistivity must not fall as T rises");
        }
    }

    #[test]
    fn wire_delay_monotone_in_length(len in 10.0f64..=5_000.0, extra in 1.0f64..=2_000.0, t in temp_strategy()) {
        let mosfet = MosfetModel::industry_45nm();
        let rho = ResistivityModel::intel_45nm();
        let d1 = Wire::new(WireClass::SemiGlobal, len).unrepeated_delay_ps(&mosfet, &rho, t);
        let d2 = Wire::new(WireClass::SemiGlobal, len + extra).unrepeated_delay_ps(&mosfet, &rho, t);
        prop_assert!(d1 > 0.0);
        prop_assert!(d2 > d1, "longer wires are slower");
    }

    #[test]
    fn repeater_optimizer_never_worse_than_unrepeated(len in 100.0f64..=20_000.0, t in temp_strategy()) {
        let mosfet = MosfetModel::industry_45nm();
        let rho = ResistivityModel::intel_45nm();
        let opt = RepeaterOptimizer::new(&mosfet);
        let wire = Wire::new(WireClass::Global, len);
        let best = opt.optimal_delay(&wire, t);
        let unrepeated = wire.unrepeated_delay_ps(&mosfet, &rho, t);
        prop_assert!(best <= unrepeated + 1e-9);
        prop_assert!(best > 0.0);
    }

    #[test]
    fn cooling_overhead_nonnegative_and_monotone(k in 77.0f64..=299.0) {
        let c = CoolingModel::paper_default();
        let t = Temperature::new(k).unwrap();
        let t_warmer = Temperature::new((k + 1.0).min(300.0)).unwrap();
        prop_assert!(c.overhead(t) >= 0.0);
        prop_assert!(c.overhead(t) >= c.overhead(t_warmer));
    }

    #[test]
    fn leakage_always_positive_and_cold_is_less(v_dd in 0.5f64..=1.3, v_th in 0.15f64..=0.5) {
        prop_assume!(v_dd - v_th > 0.1);
        let m = MosfetModel::industry_45nm();
        let cold = m.leakage_factor(Temperature::liquid_nitrogen(), v_dd, v_th);
        let hot = m.leakage_factor(Temperature::ambient(), v_dd, v_th);
        prop_assert!(cold > 0.0);
        prop_assert!(cold < hot);
    }

    #[test]
    fn gate_delay_positive_everywhere(t in temp_strategy()) {
        let m = MosfetModel::industry_45nm();
        for style in [GateStyle::ComplexLogic, GateStyle::Repeater] {
            let s = m.nominal_state(style, t).unwrap();
            prop_assert!(s.delay_factor > 0.0);
            prop_assert!(s.on_current_factor > 0.0);
        }
    }

    // ---- pipeline ----

    #[test]
    fn superpipelining_never_raises_max_delay(t in temp_strategy()) {
        let model = CriticalPathModel::boom_skylake();
        let result = Superpipeliner::new(&model).superpipeline(t);
        prop_assert!(result.max_delay_ps <= model.max_delay_ps(t) + 1e-9);
        prop_assert!(result.frequency_ghz >= model.frequency_ghz(t) - 1e-9);
        prop_assert!(result.ipc_factor > 0.0 && result.ipc_factor <= 1.0);
    }

    #[test]
    fn ipc_model_bounded(added in 0usize..12, width in 1usize..=16) {
        let ipc = IpcModel::parsec_calibrated();
        let v = ipc.ipc(added, width);
        prop_assert!(v > 0.0 && v <= 1.0 + 1e-12);
    }

    // ---- noc ----

    #[test]
    fn traffic_destinations_in_range(seed in 0u64..1_000, src in 0usize..64) {
        use rand::SeedableRng;
        let topo = Topology::c64();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for pattern in [
            TrafficPattern::UniformRandom,
            TrafficPattern::Transpose,
            TrafficPattern::BitReverse,
            TrafficPattern::hotspot_default(),
        ] {
            let d = pattern.destination(src, &topo, &mut rng);
            prop_assert!(d < 64);
            prop_assert!(d != src);
        }
    }

    #[test]
    fn arbiter_grants_are_valid_and_requested(n in 1usize..=32, mask in 0u64..u64::MAX) {
        let mut arb = MatrixArbiter::new(n);
        let requests: Vec<bool> = (0..n).map(|i| mask & (1 << (i % 64)) != 0).collect();
        match arb.arbitrate(&requests) {
            Some(g) => prop_assert!(requests[g], "granted a non-requester"),
            None => prop_assert!(requests.iter().all(|r| !r)),
        }
    }

    #[test]
    fn bus_zero_load_independent_of_endpoints(src in 0usize..64, dst in 0usize..64) {
        prop_assume!(src != dst);
        let bus = SharedBus::new(64, Temperature::liquid_nitrogen());
        prop_assert_eq!(
            bus.zero_load_latency(src, dst),
            bus.transaction_latency()
        );
    }

    #[test]
    fn manhattan_distance_triangle_inequality(a in 0usize..64, b in 0usize..64, c in 0usize..64) {
        let topo = Topology::c64();
        let ab = topo.manhattan_hops(a, b);
        let bc = topo.manhattan_hops(b, c);
        let ac = topo.manhattan_hops(a, c);
        prop_assert!(ac <= ab + bc);
    }

    // ---- system ----

    #[test]
    fn contention_latency_at_least_zero_load(rate in 0.0f64..=0.02) {
        let bus = CryoBus::new(64, Temperature::liquid_nitrogen());
        let e = ContentionEstimate::estimate(&bus, TrafficPattern::UniformRandom, rate)
            .expect("64-node bus, non-negative rate");
        prop_assert!(e.avg_latency >= e.zero_load_latency - 1e-9);
        prop_assert!(e.peak_utilization >= 0.0);
    }

    #[test]
    fn system_performance_finite_and_positive(idx in 0usize..13) {
        let sim = SystemSimulator::new();
        let w = &Workload::parsec()[idx];
        for design in SystemDesign::evaluation_set() {
            let m = sim.evaluate(w, &design);
            prop_assert!(m.performance().is_finite());
            prop_assert!(m.performance() > 0.0);
            prop_assert!(m.stack.noc_fraction() >= 0.0 && m.stack.noc_fraction() <= 1.0);
        }
    }

    // ---- faults ----

    #[test]
    fn fault_plans_expand_bit_identically(seed in 0u64..u64::MAX, horizon in 1u64..=1_000_000) {
        let build = || {
            FaultPlan::new(seed)
                .link_failures(2, &[0, 1, 2, 3])
                .degraded_links(1, &[4, 5], 1.5, 3.0)
                .flit_loss(0.02, 3)
                .cooling_transient(120.0, 0.25, 0.5)
        };
        let a = build().schedule(horizon);
        let b = build().schedule(horizon);
        prop_assert_eq!(a.canonical(), b.canonical());
        prop_assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn fault_schedules_differ_across_seeds(seed in 0u64..u64::MAX / 2) {
        let plan = |s| FaultPlan::new(s).link_failures(2, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let a = plan(seed).schedule(10_000).canonical();
        let b = plan(seed + 1).schedule(10_000).canonical();
        prop_assert!(a != b, "adjacent seeds produced the same schedule");
    }

    #[test]
    fn faster_memory_never_hurts(idx in 0usize..13) {
        use cryowire::memory::MemoryDesign;
        let sim = SystemSimulator::new();
        let w = &Workload::parsec()[idx];
        let slow = SystemDesign::cryosp_cryobus().with_memory(MemoryDesign::mem_300k());
        let fast = SystemDesign::cryosp_cryobus().with_memory(MemoryDesign::mem_77k());
        prop_assert!(
            sim.evaluate(w, &fast).performance() >= sim.evaluate(w, &slow).performance() - 1e-12
        );
    }
}

/// Thread count must not leak into the canonical artifact, even when the
/// sweep is running under an injected fault schedule. (Plain test rather
/// than a proptest case: each sweep is four full event simulations.)
#[test]
fn serial_and_parallel_sweeps_agree_under_faults() {
    use cryowire::experiments::{degraded_sweep_artifact, InjectFaults, SweepOptions};
    for fault_seed in [0xC0FFEE_u64, 7, 9_001] {
        let serial =
            degraded_sweep_artifact(fault_seed, InjectFaults::default(), SweepOptions::serial());
        let parallel = degraded_sweep_artifact(
            fault_seed,
            InjectFaults::default(),
            SweepOptions::threaded(4),
        );
        assert_eq!(
            serial.canonical_json(),
            parallel.canonical_json(),
            "fault_seed {fault_seed}: serial and 4-thread artifacts diverged"
        );
    }
}
