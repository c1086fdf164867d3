//! Bit-identity of the memoized hot-loop engine against the retained
//! naive reference engine (`sim::reference`), across the full
//! acceptance matrix: seeds × traffic patterns × fault plans × network
//! families. "Bit-identical" means the entire `SimResult` — including
//! drop/unroute counters — or the identical `SimError`, since both
//! engines must consume the same RNG stream draw for draw.

use cryowire_device::Temperature;
use cryowire_faults::{FaultEvent, FaultKind, FaultSchedule};
use cryowire_noc::sim::reference::ReferenceSimulator;
use cryowire_noc::{
    CryoBus, Network, NocKind, RouterClass, RouterNetwork, SharedBus, SimConfig, SimScratch,
    Simulator, TrafficPattern,
};

const CYCLES: u64 = 3_000;

fn networks() -> Vec<Box<dyn Network>> {
    let t77 = Temperature::liquid_nitrogen();
    vec![
        Box::new(SharedBus::new(64, t77)),
        Box::new(CryoBus::new(64, t77)),
        Box::new(CryoBus::two_way(64, t77)),
        Box::new(
            RouterNetwork::new(NocKind::Mesh, 64, RouterClass::OneCycle, t77).expect("valid mesh"),
        ),
        Box::new(
            RouterNetwork::new(NocKind::CMesh, 64, RouterClass::ThreeCycle, t77)
                .expect("valid CMesh"),
        ),
        Box::new(
            RouterNetwork::new(NocKind::FlattenedButterfly, 64, RouterClass::OneCycle, t77)
                .expect("valid flattened butterfly"),
        ),
    ]
}

fn patterns() -> Vec<(TrafficPattern, &'static str)> {
    vec![
        (TrafficPattern::UniformRandom, "uniform"),
        (TrafficPattern::Transpose, "transpose"),
        (TrafficPattern::hotspot_default(), "hotspot"),
        (TrafficPattern::BitReverse, "bit-reverse"),
        (TrafficPattern::burst_default(), "burst"),
    ]
}

fn plans() -> Vec<(FaultSchedule, &'static str)> {
    vec![
        (FaultSchedule::default(), "no faults"),
        (
            FaultSchedule::from_events(
                vec![FaultEvent::permanent(
                    1_000,
                    FaultKind::LinkDead { resource: 0 },
                )],
                CYCLES,
            ),
            "link-death",
        ),
        (
            // Resource 1 is the link from router 0 to router 1 on every
            // router network, an XY first hop, so router packets detour
            // around it; on the 2-way CryoBus it is way 1.
            FaultSchedule::from_events(
                vec![FaultEvent::permanent(
                    1_000,
                    FaultKind::LinkDead { resource: 1 },
                )],
                CYCLES,
            ),
            "first-hop-death",
        ),
        (
            FaultSchedule::from_events(
                vec![FaultEvent::permanent(
                    0,
                    FaultKind::FlitLoss {
                        probability: 0.2,
                        max_retransmits: 2,
                    },
                )],
                CYCLES,
            ),
            "flit-loss",
        ),
        (
            FaultSchedule::from_events(
                vec![FaultEvent::transient(
                    500,
                    2_500,
                    FaultKind::CoolingTransient { peak_kelvin: 120.0 },
                )],
                CYCLES,
            ),
            "cooling-transient",
        ),
    ]
}

#[test]
fn optimized_engine_is_bit_identical_to_reference() {
    for seed in [1u64, 0xC0FFEE, 0xDEAD_BEEF] {
        let config = SimConfig {
            cycles: CYCLES,
            warmup: 500,
            seed,
            ..SimConfig::default()
        };
        let optimized = Simulator::new(config);
        let reference = ReferenceSimulator::new(config);
        for net in networks() {
            for (pattern, pname) in patterns() {
                for (faults, fname) in plans() {
                    for rate in [0.002, 0.01] {
                        let fresh = &mut SimScratch::new();
                        let a = optimized.run(net.as_ref(), pattern, rate, &faults, fresh);
                        let b = reference.run_with_faults(net.as_ref(), pattern, rate, &faults);
                        assert_eq!(
                            a,
                            b,
                            "{} / {pname} / {fname} / seed {seed:#x} / rate {rate}",
                            net.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn randomized_fault_plans_match_the_reference_over_a_warm_scratch() {
    // Derives pseudo-random fault plans (event kinds, onsets, windows)
    // from a seeded xorshift generator and pins each rate of the grid,
    // run through one scratch that stays warm across rates, to the
    // reference engine — covering dead sets and loss probabilities the
    // hand-written plans above don't.
    let t77 = Temperature::liquid_nitrogen();
    let net = CryoBus::two_way(64, t77);
    let rates = [0.004, 0.012];
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for trial in 0..12u64 {
        let onset = next() % (CYCLES / 2);
        let end = onset + 1 + next() % (CYCLES - onset);
        let kind = match next() % 3 {
            0 => FaultKind::LinkDead {
                resource: (next() % 2) as usize,
            },
            1 => FaultKind::FlitLoss {
                probability: (next() % 40) as f64 / 100.0,
                max_retransmits: (next() % 4) as u32,
            },
            _ => FaultKind::CoolingTransient {
                peak_kelvin: 90.0 + (next() % 200) as f64,
            },
        };
        let faults =
            FaultSchedule::from_events(vec![FaultEvent::transient(onset, end, kind)], CYCLES);
        let config = SimConfig {
            cycles: CYCLES,
            warmup: 500,
            seed: next(),
            ..SimConfig::default()
        };
        let optimized = Simulator::new(config);
        let reference = ReferenceSimulator::new(config);
        let mut scratch = SimScratch::new();
        for rate in rates {
            let pattern = TrafficPattern::UniformRandom;
            let a = optimized.run(&net, pattern, rate, &faults, &mut scratch);
            let b = reference.run_with_faults(&net, pattern, rate, &faults);
            assert_eq!(a, b, "trial {trial} / {kind:?} / rate {rate}");
        }
    }
}

#[test]
fn scratch_reuse_across_fault_epochs_is_bit_identical() {
    // A schedule whose dead set changes mid-run (way 0 dies, later the
    // whole window ends) forces the optimized engine to switch route
    // epochs; the curve must still match the reference run-for-run.
    let t77 = Temperature::liquid_nitrogen();
    let net = CryoBus::two_way(64, t77);
    let faults = FaultSchedule::from_events(
        vec![
            FaultEvent::transient(800, 2_200, FaultKind::LinkDead { resource: 0 }),
            FaultEvent::permanent(
                0,
                FaultKind::FlitLoss {
                    probability: 0.05,
                    max_retransmits: 3,
                },
            ),
        ],
        CYCLES,
    );
    let config = SimConfig {
        cycles: CYCLES,
        warmup: 500,
        ..SimConfig::default()
    };
    let optimized = Simulator::new(config);
    let reference = ReferenceSimulator::new(config);
    let mut scratch = SimScratch::new();
    for rate in [0.002, 0.006, 0.012] {
        let a = optimized
            .run(
                &net,
                TrafficPattern::UniformRandom,
                rate,
                &faults,
                &mut scratch,
            )
            .unwrap();
        let b = reference
            .run_with_faults(&net, TrafficPattern::UniformRandom, rate, &faults)
            .unwrap();
        assert_eq!(a, b, "rate {rate}");
    }
}
