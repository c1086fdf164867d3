//! Analytic NoC contention estimation.
//!
//! The cycle-level simulator in `cryowire-noc` is exact but costly inside
//! the system model's self-consistent iteration, so this module provides
//! an M/D/1-style queueing estimate over any [`Network`]: sample packet
//! paths to find each resource's expected utilisation, then charge every
//! leg the Pollaczek–Khinchine waiting time of its resource. The estimate
//! is validated against the cycle-level simulator in this module's tests.

use cryowire_noc::{Network, TrafficPattern};
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
    /// # Panics
    ///
    /// Panics if `rate` is negative.
    #[must_use]
    pub fn estimate(network: &dyn Network, pattern: TrafficPattern, rate: f64) -> Self {
        PathProfile::sample(network, pattern).estimate(rate)
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
    /// Expected occupancy per injected packet, per resource.
    occ_per_packet: Vec<f64>,
    /// Average zero-load latency, cycles.
    zero_load: f64,
    /// Every resource-holding leg of the sampled paths, in sample order:
    /// (resource, occupancy cycles).
    legs: Vec<(usize, f64)>,
}

impl PathProfile {
    /// Samples the paths of `network` under `pattern`.
    pub(crate) fn sample(network: &dyn Network, pattern: TrafficPattern) -> Self {
        let topo = *network.topology();
        let n = topo.nodes();
        let mut rng = StdRng::seed_from_u64(0x5EED);

        // Per-resource expected occupancy per injected packet, and the
        // average path decomposition.
        let mut occ_per_packet = vec![0.0f64; network.resource_count()];
        let mut zero_load = 0.0;
        let mut legs = Vec::new();
        for _ in 0..PATH_SAMPLES {
            let src = rng.gen_range(0..n);
            let dst = pattern.destination(src, &topo, &mut rng);
            let tag = rng.gen::<u64>();
            for leg in network.path(src, dst, tag) {
                if let Some(r) = leg.resource {
                    occ_per_packet[r] += leg.occupancy_cycles as f64 / PATH_SAMPLES as f64;
                    legs.push((r, leg.occupancy_cycles as f64));
                }
                zero_load += leg.traversal_cycles as f64 / PATH_SAMPLES as f64;
            }
        }
        PathProfile {
            nodes: n,
            occ_per_packet,
            zero_load,
            legs,
        }
    }

    /// The estimate at per-node `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative.
    pub(crate) fn estimate(&self, rate: f64) -> ContentionEstimate {
        assert!(rate >= 0.0, "rate must be non-negative");
        // Utilisation of each resource: total injected packets/cycle ×
        // expected occupancy contributed per packet.
        let injected_per_cycle = rate * self.nodes as f64;
        let util: Vec<f64> = self
            .occ_per_packet
            .iter()
            .map(|&o| injected_per_cycle * o)
            .collect();
        let peak = util.iter().copied().fold(0.0, f64::max);

        // Average waiting time per packet: P-K wait at each leg's
        // resource, summed in sample order.
        let mut wait_sum = 0.0;
        for &(r, service) in &self.legs {
            // Clamp at 90 % utilisation: past that point the throughput
            // bound (enforced by the system model) governs, and an
            // unclamped P-K wait would double-count the overload.
            let rho = util[r].min(0.90);
            wait_sum += rho * service / (2.0 * (1.0 - rho)) / PATH_SAMPLES as f64;
        }

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
    use cryowire_noc::{CryoBus, RouterClass, RouterNetwork, SharedBus, SimConfig, Simulator};

    #[test]
    fn zero_rate_gives_zero_load_latency() {
        let bus = CryoBus::new(64, Temperature::liquid_nitrogen());
        let e = ContentionEstimate::estimate(&bus, TrafficPattern::UniformRandom, 0.0);
        assert!((e.avg_latency - e.zero_load_latency).abs() < 1e-9);
        assert!(!e.saturated());
    }

    #[test]
    fn estimate_matches_cycle_simulator_at_moderate_load() {
        // Validate the queueing estimate against the exact reservation
        // simulator on the 77 K shared bus at ~60 % utilisation.
        let bus = SharedBus::new(64, Temperature::liquid_nitrogen());
        let rate = 0.003; // util = 0.003 × 64 × 3 ≈ 0.58
        let est = ContentionEstimate::estimate(&bus, TrafficPattern::UniformRandom, rate);
        let sim = Simulator::new(SimConfig {
            cycles: 40_000,
            warmup: 8_000,
            ..SimConfig::default()
        });
        let exact = sim.run(&bus, TrafficPattern::UniformRandom, rate).unwrap();
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
        let e = ContentionEstimate::estimate(&bus, TrafficPattern::UniformRandom, 0.004);
        assert!(e.saturated());
    }

    #[test]
    fn latency_monotone_in_rate() {
        let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, Temperature::ambient());
        let mut last = 0.0;
        for rate in [0.001, 0.01, 0.05, 0.1] {
            let e = ContentionEstimate::estimate(&mesh, TrafficPattern::UniformRandom, rate);
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
        let em = ContentionEstimate::estimate(&mesh, TrafficPattern::UniformRandom, rate);
        let eb = ContentionEstimate::estimate(&bus, TrafficPattern::UniformRandom, rate);
        assert!(!em.saturated());
        assert!(eb.saturated());
    }
}
