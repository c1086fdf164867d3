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
    /// source), and [`NocError`] for hot nodes out of range or
    /// non-probability fractions.
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
    /// 1.0 for non-bursty patterns). The long-run average stays equal to
    /// the configured rate.
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
        let pat = TrafficPattern::burst_default();
        let total: f64 = (0..32_000).map(|c| pat.burst_scale(c)).sum();
        let avg = total / 32_000.0;
        assert!((avg - 1.0).abs() < 0.05, "burst average scale = {avg}");
    }

    #[test]
    fn non_bursty_scale_is_one() {
        assert_eq!(TrafficPattern::UniformRandom.burst_scale(123), 1.0);
    }
}
