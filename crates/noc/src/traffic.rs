//! Synthetic traffic patterns (Section 5.1 / Section 7.2).
//!
//! Uniform random drives the main load–latency analyses (Fig. 18/21);
//! Transpose, Hotspot, Bit Reverse and Burst cover Fig. 25.

use rand::rngs::StdRng;
use rand::Rng;

use crate::error::NocError;
use crate::topology::Topology;

/// A synthetic traffic pattern over `n` nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum TrafficPattern {
    /// Every packet picks a uniformly random destination (≠ source).
    UniformRandom,
    /// Grid transpose: (x, y) → (y, x); diagonal nodes fall back to
    /// uniform random.
    Transpose,
    /// A fraction of traffic targets one hot node; the rest is uniform.
    Hotspot {
        /// The hot node.
        node: usize,
        /// Fraction of packets that go to the hot node (0..1).
        fraction: f64,
    },
    /// Destination is the bit-reversed source index.
    BitReverse,
    /// Uniform random destinations, but injection happens in on/off
    /// bursts (handled by [`TrafficPattern::burst_scale`]).
    Burst {
        /// Mean burst length in cycles.
        burst_len: f64,
        /// Ratio of on-period injection rate to the average rate.
        intensity: f64,
    },
}

impl TrafficPattern {
    /// The Fig. 25 hotspot configuration: 10 % of traffic to node 0.
    #[must_use]
    pub fn hotspot_default() -> Self {
        TrafficPattern::Hotspot {
            node: 0,
            fraction: 0.1,
        }
    }

    /// The Fig. 25 burst configuration: 8-cycle bursts at 4x intensity.
    #[must_use]
    pub fn burst_default() -> Self {
        TrafficPattern::Burst {
            burst_len: 8.0,
            intensity: 4.0,
        }
    }

    /// Validates pattern parameters against a topology.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidNodeCount`] for topologies of fewer than
    /// two nodes (every pattern needs a destination other than the
    /// source), [`NocError`] for hot nodes out of range or
    /// non-probability fractions, and [`NocError::InvalidBurst`] for
    /// burst parameters whose square wave (see
    /// [`TrafficPattern::burst_scale`]) does not average to 1.
    pub fn validate(&self, topo: &Topology) -> Result<(), NocError> {
        if topo.nodes() < 2 {
            return Err(NocError::InvalidNodeCount {
                nodes: topo.nodes(),
                requirement: "traffic needs at least two nodes",
            });
        }
        match *self {
            TrafficPattern::Hotspot { node, fraction } => {
                if node >= topo.nodes() {
                    return Err(NocError::NodeOutOfRange {
                        node,
                        nodes: topo.nodes(),
                    });
                }
                if !(0.0..=1.0).contains(&fraction) {
                    return Err(NocError::InvalidInjectionRate { rate: fraction });
                }
                Ok(())
            }
            TrafficPattern::Burst {
                burst_len,
                intensity,
            } => {
                // Whole cycle counts the square wave's casts keep exactly.
                let whole = |cycles: f64| cycles.fract() == 0.0 && cycles <= (1u64 << 53) as f64;
                if burst_len >= 1.0
                    && intensity >= 1.0
                    && whole(burst_len)
                    && whole(burst_len * intensity)
                {
                    Ok(())
                } else {
                    Err(NocError::InvalidBurst {
                        burst_len,
                        intensity,
                    })
                }
            }
            _ => Ok(()),
        }
    }

    /// Picks a destination for a packet from `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range for `topo`.
    pub fn destination(&self, src: usize, topo: &Topology, rng: &mut StdRng) -> usize {
        assert!(src < topo.nodes(), "source out of range");
        match *self {
            TrafficPattern::UniformRandom | TrafficPattern::Burst { .. } => {
                uniform_other(src, topo.nodes(), rng)
            }
            TrafficPattern::Transpose => {
                let (x, y) = topo.coords(src);
                let dst = topo.node_at(y, x);
                if dst == src {
                    uniform_other(src, topo.nodes(), rng)
                } else {
                    dst
                }
            }
            TrafficPattern::Hotspot { node, fraction } => {
                if rng.gen::<f64>() < fraction && node != src {
                    node
                } else {
                    uniform_other(src, topo.nodes(), rng)
                }
            }
            TrafficPattern::BitReverse => {
                let bits = usize::BITS - (topo.nodes() - 1).leading_zeros();
                let rev = reverse_bits(src, bits as usize) % topo.nodes();
                if rev == src {
                    uniform_other(src, topo.nodes(), rng)
                } else {
                    rev
                }
            }
        }
    }

    /// Injection-rate multiplier for cycle `cycle` (burst on/off shaping;
    /// 1.0 for non-bursty patterns). For every pattern
    /// [`TrafficPattern::validate`] accepts, the long-run average stays
    /// equal to the configured rate: the wave is on for `burst_len` of
    /// every `burst_len × intensity` cycles.
    #[must_use]
    pub fn burst_scale(&self, cycle: u64) -> f64 {
        match *self {
            TrafficPattern::Burst {
                burst_len,
                intensity,
            } => {
                // Deterministic on/off square wave with duty 1/intensity:
                // on-periods inject at `intensity` × rate.
                let period = (burst_len * intensity).max(1.0) as u64;
                let on = burst_len.max(1.0) as u64;
                if cycle % period < on {
                    intensity
                } else {
                    0.0
                }
            }
            _ => 1.0,
        }
    }
}

fn uniform_other(src: usize, n: usize, rng: &mut StdRng) -> usize {
    loop {
        let d = rng.gen_range(0..n);
        if d != src {
            return d;
        }
    }
}

fn reverse_bits(v: usize, bits: usize) -> usize {
    let mut out = 0;
    for i in 0..bits {
        if v & (1 << i) != 0 {
            out |= 1 << (bits - 1 - i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn uniform_never_self() {
        let topo = Topology::c64();
        let mut r = rng();
        for src in 0..64 {
            for _ in 0..20 {
                let d = TrafficPattern::UniformRandom.destination(src, &topo, &mut r);
                assert_ne!(d, src);
                assert!(d < 64);
            }
        }
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let topo = Topology::c64();
        let mut r = rng();
        let src = topo.node_at(2, 5);
        let dst = TrafficPattern::Transpose.destination(src, &topo, &mut r);
        assert_eq!(dst, topo.node_at(5, 2));
    }

    #[test]
    fn bit_reverse_is_involution_off_diagonal() {
        let topo = Topology::c64();
        let mut r = rng();
        let src = 1; // 000001 -> 100000 = 32
        let dst = TrafficPattern::BitReverse.destination(src, &topo, &mut r);
        assert_eq!(dst, 32);
        let back = TrafficPattern::BitReverse.destination(dst, &topo, &mut r);
        assert_eq!(back, 1);
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let topo = Topology::c64();
        let mut r = rng();
        let pat = TrafficPattern::Hotspot {
            node: 7,
            fraction: 0.5,
        };
        let mut hits = 0;
        let trials = 2_000;
        for _ in 0..trials {
            if pat.destination(3, &topo, &mut r) == 7 {
                hits += 1;
            }
        }
        let frac = hits as f64 / trials as f64;
        assert!(frac > 0.4 && frac < 0.6, "hotspot fraction = {frac}");
    }

    #[test]
    fn hotspot_validation() {
        let topo = Topology::c64();
        assert!(TrafficPattern::Hotspot {
            node: 99,
            fraction: 0.1
        }
        .validate(&topo)
        .is_err());
        assert!(TrafficPattern::Hotspot {
            node: 0,
            fraction: 1.5
        }
        .validate(&topo)
        .is_err());
        assert!(TrafficPattern::hotspot_default().validate(&topo).is_ok());
    }

    #[test]
    fn one_node_topology_is_rejected() {
        let topo = Topology::square(1).unwrap();
        for pattern in [
            TrafficPattern::UniformRandom,
            TrafficPattern::Transpose,
            TrafficPattern::hotspot_default(),
            TrafficPattern::BitReverse,
            TrafficPattern::burst_default(),
        ] {
            assert!(matches!(
                pattern.validate(&topo),
                Err(NocError::InvalidNodeCount { nodes: 1, .. })
            ));
        }
    }

    #[test]
    fn burst_long_run_average_is_unity() {
        // Every burst `validate` accepts, `burst_default()` (8, 4)
        // first, averages to 1 over whole periods.
        let topo = Topology::c64();
        for (burst_len, intensity) in [(8.0, 4.0), (1.0, 1.0), (3.0, 5.0), (4.0, 1.5)] {
            let pat = TrafficPattern::Burst {
                burst_len,
                intensity,
            };
            assert_eq!(pat.validate(&topo), Ok(()), "{pat:?}");
            let cycles = 1_000 * (burst_len * intensity) as u64;
            let total: f64 = (0..cycles).map(|c| pat.burst_scale(c)).sum();
            let avg = total / cycles as f64;
            assert!((avg - 1.0).abs() < 1e-12, "{pat:?}: average scale = {avg}");
        }
    }

    /// Asserts that both engines reject the burst pattern
    /// (`burst_len`, `intensity`) on the 64-node 77 K mesh at rate 0.01
    /// over an 8 000-cycle window.
    fn assert_burst_rejected(burst_len: f64, intensity: f64) {
        use crate::{
            FlitConfig, FlitNetwork, RouterClass, RouterNetwork, SimConfig, SimError, SimScratch,
            Simulator,
        };
        let pattern = TrafficPattern::Burst {
            burst_len,
            intensity,
        };
        let t77 = cryowire_device::Temperature::liquid_nitrogen();
        let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, t77);
        let sim = Simulator::new(SimConfig {
            cycles: 8_000,
            warmup: 2_000,
            ..SimConfig::default()
        });
        let faults = cryowire_faults::FaultSchedule::default();
        let reservation = match sim.run(&mesh, pattern, 0.01, &faults, &mut SimScratch::new()) {
            Ok(r) => Ok(r.packets),
            Err(SimError::Noc(e)) => Err(e),
            Err(stalled) => panic!("a fault-free run stalled: {stalled}"),
        };
        let mut flit = FlitNetwork::new(FlitConfig::table4_mesh64(RouterClass::OneCycle))
            .expect("valid flit mesh");
        let flit = flit.run(pattern, 0.01, 8_000, 2_000, 7).map(|r| r.packets);
        for (engine, verdict) in [("reservation", reservation), ("flit", flit)] {
            assert!(
                matches!(verdict, Err(NocError::InvalidBurst { .. })),
                "{engine} engine accepted {pattern:?}: {verdict:?}"
            );
        }
    }

    // Regressions: each of these bursts used to validate, and both
    // engines silently simulated another load than the configured rate.
    // Intensity 0, −1 and +∞ measured no packets at all (the reservation
    // engine reported latency 0, not saturated).

    #[test]
    fn zero_intensity_burst_is_rejected() {
        assert_burst_rejected(8.0, 0.0);
    }

    #[test]
    fn negative_intensity_burst_is_rejected() {
        assert_burst_rejected(8.0, -1.0);
    }

    #[test]
    fn infinite_intensity_burst_is_rejected() {
        assert_burst_rejected(8.0, f64::INFINITY);
    }

    #[test]
    fn sub_unit_intensity_burst_is_rejected() {
        // Offered about half the configured load.
        assert_burst_rejected(8.0, 0.5);
    }

    #[test]
    fn nan_burst_length_is_rejected() {
        // Offered about four times the configured load.
        assert_burst_rejected(f64::NAN, 4.0);
    }

    #[test]
    fn sub_cycle_burst_length_is_rejected() {
        // Offered about twice the configured load.
        assert_burst_rejected(0.5, 4.0);
    }

    #[test]
    fn fractional_burst_period_is_rejected() {
        // A 7.5-cycle period floored to 7 cycles: 2.5 × 3/7 of the load.
        assert_burst_rejected(3.0, 2.5);
    }

    #[test]
    fn non_bursty_scale_is_one() {
        assert_eq!(TrafficPattern::UniformRandom.burst_scale(123), 1.0);
    }
}
