//! Analytic NoC contention estimation.
//!
//! The cycle-level simulator in `cryowire-noc` is exact but costly inside
//! the system model's self-consistent iteration, so this module provides
//! an M/D/1-style queueing estimate over any [`Network`]: sample packet
//! paths to find each resource's expected utilisation, then charge every
//! leg the Pollaczek–Khinchine waiting time of its resource. The estimate
//! is validated against the cycle-level simulator in this module's tests.

use cryowire_noc::{Network, NocError, TrafficPattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of (src, dst) path samples used to estimate resource loads.
const PATH_SAMPLES: usize = 2_000;

/// A contention estimate for one network at one offered load.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionEstimate {
    /// Offered per-node injection rate (packets/node/cycle).
    pub rate: f64,
    /// Average end-to-end latency including queueing, cycles.
    pub avg_latency: f64,
    /// Average zero-load latency, cycles.
    pub zero_load_latency: f64,
    /// Peak resource utilisation (≥ 1 means saturation).
    pub peak_utilization: f64,
}

impl ContentionEstimate {
    /// Whether the network is saturated at this load.
    #[must_use]
    pub fn saturated(&self) -> bool {
        self.peak_utilization >= 1.0
    }

    /// Estimates latency under `pattern` at per-node `rate` for `network`.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidInjectionRate`] for a negative or NaN
    /// `rate`, and the error of [`TrafficPattern::validate`] when
    /// `pattern` cannot run on `network` (fewer than two nodes, or a
    /// hotspot outside it).
    pub fn estimate(
        network: &dyn Network,
        pattern: TrafficPattern,
        rate: f64,
    ) -> Result<Self, NocError> {
        if rate.is_nan() || rate < 0.0 {
            return Err(NocError::InvalidInjectionRate { rate });
        }
        Ok(PathProfile::sample(network, pattern)?.estimate(rate))
    }
}

/// One kind of resource-holding leg: every sampled leg on one resource
/// with one service time waits the same P-K time at a given rate.
#[derive(Debug, Clone, Copy)]
struct LegClass {
    /// Expected occupancy of the leg's resource per injected packet.
    occ_per_packet: f64,
    /// Cycles the leg holds its resource.
    service: f64,
}

/// Numbers the distinct (resource, service time) pairs of sampled legs
/// through a dense per-resource index of each resource's first class.
struct ClassTable {
    /// The first class seen on each resource.
    first: Vec<Option<u32>>,
    /// (resource, service cycles) of each class, in order of first use.
    keys: Vec<(usize, u64)>,
}

impl ClassTable {
    fn new(resources: usize) -> Self {
        ClassTable {
            first: vec![None; resources],
            keys: Vec::new(),
        }
    }

    /// The class of a leg holding `resource` for `service` cycles.
    fn class_of(&mut self, resource: usize, service: u64) -> u32 {
        let key = (resource, service);
        match self.first[resource] {
            Some(c) if self.keys[c as usize] == key => c,
            // A second service time on one resource: rare, so a scan.
            Some(_) => match self.keys.iter().position(|&k| k == key) {
                Some(c) => c as u32,
                None => self.push(key),
            },
            None => {
                let c = self.push(key);
                self.first[resource] = Some(c);
                c
            }
        }
    }

    fn push(&mut self, key: (usize, u64)) -> u32 {
        self.keys.push(key);
        u32::try_from(self.keys.len() - 1).expect("leg classes fit in u32")
    }
}

/// The rate-independent half of an estimate: [`PATH_SAMPLES`] fixed-seed
/// packet paths of one network under one pattern, reduced to what the
/// queueing model needs. Sample once, then [`PathProfile::estimate`] at
/// as many rates as wanted — the system model's fixed-point iteration
/// does exactly that.
#[derive(Debug, Clone)]
pub(crate) struct PathProfile {
    nodes: usize,
    /// Average zero-load latency, cycles.
    zero_load: f64,
    /// The largest expected occupancy per injected packet of any
    /// resource.
    max_occ_per_packet: f64,
    /// The distinct (resource, service time) pairs of the sampled legs.
    classes: Vec<LegClass>,
    /// Every resource-holding leg of the sampled paths, in sample order,
    /// as an index into `classes`.
    legs: Vec<u32>,
}

impl PathProfile {
    /// Samples the paths of `network` under `pattern`.
    ///
    /// # Errors
    ///
    /// Returns the error of [`TrafficPattern::validate`] when `pattern`
    /// cannot run on `network`; drawing a destination would otherwise
    /// never end on a one-node network.
    pub(crate) fn sample(network: &dyn Network, pattern: TrafficPattern) -> Result<Self, NocError> {
        let topo = *network.topology();
        pattern.validate(&topo)?;
        let n = topo.nodes();
        let mut rng = StdRng::seed_from_u64(0x5EED);

        // Per-resource expected occupancy per injected packet, and the
        // average path decomposition.
        let mut occ_per_packet = vec![0.0f64; network.resource_count()];
        let mut table = ClassTable::new(network.resource_count());
        let mut zero_load = 0.0;
        let mut legs = Vec::new();
        for _ in 0..PATH_SAMPLES {
            let src = rng.gen_range(0..n);
            let dst = pattern.destination(src, &topo, &mut rng);
            let tag = rng.gen::<u64>();
            for leg in network.path(src, dst, tag) {
                if let Some(r) = leg.resource {
                    occ_per_packet[r] += leg.occupancy_cycles as f64 / PATH_SAMPLES as f64;
                    legs.push(table.class_of(r, leg.occupancy_cycles));
                }
                zero_load += leg.traversal_cycles as f64 / PATH_SAMPLES as f64;
            }
        }
        let classes = table
            .keys
            .iter()
            .map(|&(r, service)| LegClass {
                occ_per_packet: occ_per_packet[r],
                service: service as f64,
            })
            .collect();
        Ok(PathProfile {
            nodes: n,
            zero_load,
            max_occ_per_packet: occ_per_packet.iter().copied().fold(0.0, f64::max),
            classes,
            legs,
        })
    }

    /// The estimate at per-node `rate`.
    ///
    /// Bit-identical to charging every sampled leg the P-K wait of its
    /// resource in turn: a leg's term depends only on its class, so each
    /// class's term is computed once and the legs' terms are added in
    /// sample order. The peak scales the largest per-packet occupancy,
    /// which equals the largest scaled occupancy because rounding a
    /// product by a non-negative rate is monotone.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative.
    pub(crate) fn estimate(&self, rate: f64) -> ContentionEstimate {
        assert!(rate >= 0.0, "rate must be non-negative");
        // Utilisation of a resource: total injected packets/cycle ×
        // expected occupancy contributed per packet.
        let injected_per_cycle = rate * self.nodes as f64;
        let peak = 0.0f64.max(injected_per_cycle * self.max_occ_per_packet);

        // Average waiting time per packet: P-K wait at each leg's
        // resource, summed in sample order.
        let terms: Vec<f64> = self
            .classes
            .iter()
            .map(|c| {
                // Clamp at 90 % utilisation: past that point the
                // throughput bound (enforced by the system model) governs,
                // and an unclamped P-K wait would double-count the
                // overload.
                let rho = (injected_per_cycle * c.occ_per_packet).min(0.90);
                rho * c.service / (2.0 * (1.0 - rho)) / PATH_SAMPLES as f64
            })
            .collect();
        let wait_sum = self
            .legs
            .iter()
            .fold(0.0, |sum, &c| sum + terms[c as usize]);

        ContentionEstimate {
            rate,
            avg_latency: self.zero_load + wait_sum,
            zero_load_latency: self.zero_load,
            peak_utilization: peak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryowire_device::Temperature;
    use cryowire_noc::{
        CryoBus, PacketLeg, RouterClass, RouterNetwork, SharedBus, SimConfig, Simulator, Topology,
    };

    /// The per-leg estimate the class table must reproduce bit for bit:
    /// redraw the paths, charge every leg the P-K wait of its resource
    /// in sample order, and fold the peak over every resource.
    fn per_leg_oracle(network: &dyn Network, rate: f64) -> ContentionEstimate {
        let topo = *network.topology();
        let n = topo.nodes();
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut occ_per_packet = vec![0.0f64; network.resource_count()];
        let mut zero_load = 0.0;
        let mut legs = Vec::new();
        for _ in 0..PATH_SAMPLES {
            let src = rng.gen_range(0..n);
            let dst = TrafficPattern::UniformRandom.destination(src, &topo, &mut rng);
            let tag = rng.gen::<u64>();
            for leg in network.path(src, dst, tag) {
                if let Some(r) = leg.resource {
                    occ_per_packet[r] += leg.occupancy_cycles as f64 / PATH_SAMPLES as f64;
                    legs.push((r, leg.occupancy_cycles as f64));
                }
                zero_load += leg.traversal_cycles as f64 / PATH_SAMPLES as f64;
            }
        }
        let injected_per_cycle = rate * n as f64;
        let util: Vec<f64> = occ_per_packet
            .iter()
            .map(|&o| injected_per_cycle * o)
            .collect();
        let mut wait_sum = 0.0;
        for &(r, service) in &legs {
            let rho = util[r].min(0.90);
            wait_sum += rho * service / (2.0 * (1.0 - rho)) / PATH_SAMPLES as f64;
        }
        ContentionEstimate {
            rate,
            avg_latency: zero_load + wait_sum,
            zero_load_latency: zero_load,
            peak_utilization: util.iter().copied().fold(0.0, f64::max),
        }
    }

    /// A bus whose resource 0 serves even destinations in 2 cycles and
    /// odd ones in 3, so one resource carries two leg classes.
    #[derive(Debug)]
    struct TwoServiceBus(Topology);

    impl Network for TwoServiceBus {
        fn name(&self) -> String {
            "two-service bus".into()
        }
        fn topology(&self) -> &Topology {
            &self.0
        }
        fn resource_count(&self) -> usize {
            2
        }
        fn path(&self, _src: usize, dst: usize, _tag: u64) -> Vec<PacketLeg> {
            let service = 2 + dst as u64 % 2;
            vec![
                PacketLeg {
                    resource: Some(1),
                    occupancy_cycles: 1,
                    traversal_cycles: 1,
                },
                PacketLeg {
                    resource: Some(0),
                    occupancy_cycles: service,
                    traversal_cycles: service,
                },
            ]
        }
    }

    #[test]
    fn estimate_is_bit_identical_to_per_leg_formula() {
        let t = Temperature::liquid_nitrogen();
        let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, t);
        let bus = SharedBus::new(64, t);
        let two_way = CryoBus::two_way(64, t);
        let two_service = TwoServiceBus(Topology::c64());
        let networks: [&dyn Network; 4] = [&mesh, &bus, &two_way, &two_service];
        for network in networks {
            let profile = PathProfile::sample(network, TrafficPattern::UniformRandom).unwrap();
            let (mut below_clamp, mut above_clamp) = (false, false);
            for rate in [0.0, 1e-4, 5e-4, 0.001, 0.002, 0.005, 0.01, 0.05, 0.2, 0.9] {
                let fast = profile.estimate(rate);
                let oracle = per_leg_oracle(network, rate);
                let bits = |e: &ContentionEstimate| {
                    [
                        e.rate.to_bits(),
                        e.avg_latency.to_bits(),
                        e.zero_load_latency.to_bits(),
                        e.peak_utilization.to_bits(),
                    ]
                };
                assert_eq!(bits(&fast), bits(&oracle), "{} at {rate}", network.name());
                below_clamp |= rate > 0.0 && oracle.peak_utilization < 0.90;
                above_clamp |= oracle.peak_utilization > 0.90;
            }
            assert!(below_clamp && above_clamp, "{}", network.name());
        }
    }

    #[test]
    fn one_node_network_is_rejected_not_hung() {
        let bus = SharedBus::new(1, Temperature::liquid_nitrogen());
        assert!(matches!(
            ContentionEstimate::estimate(&bus, TrafficPattern::UniformRandom, 0.01),
            Err(NocError::InvalidNodeCount { nodes: 1, .. })
        ));
    }

    #[test]
    fn out_of_range_hotspot_is_rejected() {
        let t = Temperature::liquid_nitrogen();
        let hotspot = TrafficPattern::Hotspot {
            node: 100,
            fraction: 0.2,
        };
        let bus = SharedBus::new(64, t);
        let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, t);
        let networks: [&dyn Network; 2] = [&bus, &mesh];
        for network in networks {
            assert_eq!(
                ContentionEstimate::estimate(network, hotspot, 0.001),
                Err(NocError::NodeOutOfRange {
                    node: 100,
                    nodes: 64
                }),
                "{}",
                network.name()
            );
        }
    }

    #[test]
    fn nan_and_negative_rates_are_rejected() {
        let bus = CryoBus::new(64, Temperature::liquid_nitrogen());
        for rate in [f64::NAN, -0.001] {
            let err = ContentionEstimate::estimate(&bus, TrafficPattern::UniformRandom, rate)
                .unwrap_err();
            assert!(
                matches!(err, NocError::InvalidInjectionRate { rate: r } if r.to_bits() == rate.to_bits()),
                "{err:?}"
            );
        }
    }

    #[test]
    fn zero_rate_gives_zero_load_latency() {
        let bus = CryoBus::new(64, Temperature::liquid_nitrogen());
        let e = ContentionEstimate::estimate(&bus, TrafficPattern::UniformRandom, 0.0).unwrap();
        assert!((e.avg_latency - e.zero_load_latency).abs() < 1e-9);
        assert!(!e.saturated());
    }

    #[test]
    fn estimate_matches_cycle_simulator_at_moderate_load() {
        // Validate the queueing estimate against the exact reservation
        // simulator on the 77 K shared bus at ~60 % utilisation.
        let bus = SharedBus::new(64, Temperature::liquid_nitrogen());
        let rate = 0.003; // util = 0.003 × 64 × 3 ≈ 0.58
        let est = ContentionEstimate::estimate(&bus, TrafficPattern::UniformRandom, rate).unwrap();
        let sim = Simulator::new(SimConfig {
            cycles: 40_000,
            warmup: 8_000,
            ..SimConfig::default()
        });
        let faults = cryowire_faults::FaultSchedule::default();
        let exact = sim
            .run(
                &bus,
                TrafficPattern::UniformRandom,
                rate,
                &faults,
                &mut cryowire_noc::SimScratch::new(),
            )
            .unwrap();
        let err = (est.avg_latency - exact.avg_latency).abs() / exact.avg_latency;
        assert!(
            err < 0.30,
            "estimate {} vs simulated {} (err {err})",
            est.avg_latency,
            exact.avg_latency
        );
    }

    #[test]
    fn saturation_detected_past_capacity() {
        let bus = SharedBus::new(64, Temperature::ambient());
        // 300 K bus capacity ≈ 1/(64×8) ≈ 0.00195/core.
        let e = ContentionEstimate::estimate(&bus, TrafficPattern::UniformRandom, 0.004).unwrap();
        assert!(e.saturated());
    }

    #[test]
    fn latency_monotone_in_rate() {
        let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, Temperature::ambient());
        let mut last = 0.0;
        for rate in [0.001, 0.01, 0.05, 0.1] {
            let e =
                ContentionEstimate::estimate(&mesh, TrafficPattern::UniformRandom, rate).unwrap();
            assert!(e.avg_latency >= last);
            last = e.avg_latency;
        }
    }

    #[test]
    fn mesh_has_more_headroom_than_bus() {
        let t = Temperature::liquid_nitrogen();
        let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, t);
        let bus = CryoBus::new(64, t);
        let rate = 0.02;
        let em = ContentionEstimate::estimate(&mesh, TrafficPattern::UniformRandom, rate).unwrap();
        let eb = ContentionEstimate::estimate(&bus, TrafficPattern::UniformRandom, rate).unwrap();
        assert!(!em.saturated());
        assert!(eb.saturated());
    }
}
