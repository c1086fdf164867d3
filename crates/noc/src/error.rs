//! Error types for the NoC crate.

use std::error::Error;
use std::fmt;

/// Errors produced by NoC construction and simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NocError {
    /// Node count incompatible with the topology (e.g. a mesh needs a
    /// square count, CryoBus needs a power-of-four H-tree).
    InvalidNodeCount {
        /// The rejected count.
        nodes: usize,
        /// What the topology requires.
        requirement: &'static str,
    },
    /// A source or destination node index out of range.
    NodeOutOfRange {
        /// The offending index.
        node: usize,
        /// The network size.
        nodes: usize,
    },
    /// An injection rate that is not a probability.
    InvalidInjectionRate {
        /// The rejected rate.
        rate: f64,
    },
    /// A simulation window that can produce no statistics: zero cycles,
    /// or a warm-up period that swallows the whole run.
    InvalidSimWindow {
        /// Total simulated cycles.
        cycles: u64,
        /// Warm-up cycles excluded from statistics.
        warmup: u64,
    },
    /// A fault named an H-tree segment the fabric does not have.
    InvalidHTreeSegment {
        /// Tree level of the named segment.
        level: usize,
        /// Segment index within the level.
        index: usize,
        /// Levels the fabric actually has.
        levels: usize,
    },
    /// A flit-level router parameter that must be at least 1 was zero.
    InvalidFlitConfig {
        /// The zero `FlitConfig` field: `vcs`, `vc_buffer_flits` or
        /// `packet_flits`.
        field: &'static str,
    },
    /// A load–latency sweep over no injection rates: its curve would
    /// have no points.
    EmptyRateGrid,
    /// A burst pattern whose on/off square wave would not average to the
    /// configured rate: `burst_len` and `intensity` must be at least 1,
    /// and `burst_len` and the period `burst_len × intensity` whole
    /// numbers of at most 2⁵³ cycles.
    InvalidBurst {
        /// The rejected burst length, cycles.
        burst_len: f64,
        /// The rejected on-period intensity.
        intensity: f64,
    },
    /// A load–latency rate grid that is not strictly ascending (a curve
    /// is read from low to high load, and stops after saturating).
    UnorderedRateGrid {
        /// Position of the offending rate in the grid.
        index: usize,
        /// The offending rate.
        rate: f64,
        /// The rate before it, which is not smaller.
        previous: f64,
    },
}

impl fmt::Display for NocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocError::InvalidNodeCount { nodes, requirement } => {
                write!(f, "invalid node count {nodes}: {requirement}")
            }
            NocError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range for a {nodes}-node network")
            }
            NocError::InvalidInjectionRate { rate } => {
                write!(f, "injection rate {rate} must be in [0, 1]")
            }
            NocError::InvalidSimWindow { cycles, warmup } => {
                write!(
                    f,
                    "invalid simulation window: warmup ({warmup}) must be \
                     smaller than cycles ({cycles}), and cycles must be > 0 \
                     — no packet could ever be measured"
                )
            }
            NocError::InvalidHTreeSegment {
                level,
                index,
                levels,
            } => {
                write!(
                    f,
                    "H-tree segment L{level}#{index} does not exist in a {levels}-level fabric"
                )
            }
            NocError::InvalidFlitConfig { field } => {
                write!(f, "flit config `{field}` must be at least 1")
            }
            NocError::EmptyRateGrid => f.write_str("load-latency rate grid is empty"),
            NocError::InvalidBurst {
                burst_len,
                intensity,
            } => write!(
                f,
                "burst pattern (burst_len {burst_len}, intensity {intensity}) must have \
                 burst_len and intensity at least 1 and a whole-cycle burst_len and \
                 period burst_len × intensity, or it does not average to the configured rate"
            ),
            NocError::UnorderedRateGrid {
                index,
                rate,
                previous,
            } => write!(
                f,
                "load-latency rate grid must be strictly ascending: rate {rate} at \
                 index {index} follows {previous}"
            ),
        }
    }
}

impl Error for NocError {}

/// Errors produced by a fault-injected simulation run.
///
/// Distinct from [`NocError`] (construction/validation problems): a
/// `SimError` describes something that went wrong *during* a run, most
/// importantly the watchdog converting a would-be hang into a
/// structured diagnostic.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The simulation stopped making progress: too many packets had no
    /// usable route (every detour crosses a dead resource).
    Stalled {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// The dead resources blocking traffic when it fired.
        blocked_resources: Vec<usize>,
    },
    /// A validation error surfaced by the underlying simulator.
    Noc(NocError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Stalled {
                cycle,
                blocked_resources,
            } => write!(
                f,
                "simulation stalled at cycle {cycle}: no route around dead resources {blocked_resources:?}"
            ),
            SimError::Noc(e) => write!(f, "{e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Noc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NocError> for SimError {
    fn from(e: NocError) -> Self {
        SimError::Noc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NocError::InvalidNodeCount {
            nodes: 63,
            requirement: "mesh requires a perfect square",
        };
        assert!(e.to_string().contains("63"));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NocError>();
    }
}
