//! Load–latency sweep harness (Fig. 18 / 21 / 25 / 26) and the workload
//! injection-rate bands of Fig. 18.

use std::sync::OnceLock;

use cryowire_faults::FaultSchedule;

use crate::error::{NocError, SimError};
use crate::sim::{
    check_rate, InjectionTrace, Network, SimConfig, SimResult, SimScratch, Simulator,
};
use crate::topology::Topology;
use crate::traffic::TrafficPattern;

/// Per-core request injection-rate band of a workload suite
/// (L2 MPKI-derived, Fig. 18).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadBand {
    /// Suite name.
    pub name: &'static str,
    /// Minimum per-core injection rate (packets/core/cycle).
    pub min_rate: f64,
    /// Maximum per-core injection rate.
    pub max_rate: f64,
}

/// The measured injection bands of Fig. 18 (Gem5 + real-machine profiling
/// in the paper; encoded here as the band edges the figure shows).
pub const WORKLOAD_BANDS: [WorkloadBand; 4] = [
    WorkloadBand {
        name: "PARSEC",
        min_rate: 0.0005,
        max_rate: 0.004,
    },
    WorkloadBand {
        name: "SPEC2006",
        min_rate: 0.004,
        max_rate: 0.012,
    },
    WorkloadBand {
        name: "SPEC2017",
        min_rate: 0.005,
        max_rate: 0.013,
    },
    WorkloadBand {
        name: "CloudSuite",
        min_rate: 0.008,
        max_rate: 0.014,
    },
];

/// One point of a load–latency curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadLatencyPoint {
    /// Offered per-core injection rate.
    pub rate: f64,
    /// Measured average latency, cycles.
    pub latency: f64,
    /// Whether the network saturated.
    pub saturated: bool,
}

/// A full load–latency curve for one network/pattern combination.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadLatencyCurve {
    /// Network display name.
    pub network: String,
    /// Measured points, ascending in rate.
    pub points: Vec<LoadLatencyPoint>,
}

impl LoadLatencyCurve {
    /// Zero-load latency (first point's latency).
    ///
    /// # Panics
    ///
    /// Panics if the curve is empty.
    #[must_use]
    pub fn zero_load_latency(&self) -> f64 {
        self.points.first().expect("curve has points").latency
    }

    /// The lowest offered rate at which the network saturated, if any —
    /// the curve's bandwidth limit.
    #[must_use]
    pub fn saturation_rate(&self) -> Option<f64> {
        self.points.iter().find(|p| p.saturated).map(|p| p.rate)
    }

    /// True if the network sustains `rate` without saturating (i.e. the
    /// workload band fits under the curve).
    #[must_use]
    pub fn supports_rate(&self, rate: f64) -> bool {
        match self.saturation_rate() {
            Some(sat) => rate < sat,
            None => self
                .points
                .last()
                .is_some_and(|p| p.rate >= rate && !p.saturated),
        }
    }
}

/// Sweep configuration and runner.
#[derive(Debug, Clone)]
pub struct LoadLatencySweep {
    sim: Simulator,
    rates: Vec<f64>,
}

impl LoadLatencySweep {
    /// A sweep over the given rates with default simulation parameters.
    #[must_use]
    pub fn new(rates: Vec<f64>) -> Self {
        LoadLatencySweep {
            sim: Simulator::new(SimConfig::default()),
            rates,
        }
    }

    /// The default sweep covering all Fig. 18 workload bands
    /// (0.0002 .. 0.03, log-spaced-ish).
    #[must_use]
    pub fn fig18_default() -> Self {
        LoadLatencySweep::new(vec![
            0.0002, 0.0005, 0.001, 0.002, 0.003, 0.004, 0.006, 0.008, 0.010, 0.012, 0.014, 0.016,
            0.020, 0.025, 0.030,
        ])
    }

    /// Overrides the simulator configuration.
    #[must_use]
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.sim = Simulator::new(config);
        self
    }

    /// Runs the sweep over many networks concurrently, one worker thread
    /// per network (the Fig. 21/25 fan-out), via the
    /// [`cryowire_harness::Executor`] point executor.
    ///
    /// Fault-free injection traces do not depend on the network (see
    /// the [`crate::sim`] module docs), so networks of one topology
    /// share them: the first network to reach a rate draws its trace and
    /// every network replays it. Each curve still stops after its own
    /// second saturated point, and rates no network reaches are never
    /// drawn. The curves are bit-identical to running [`Self::run`]
    /// fault-free on each network in turn.
    ///
    /// # Errors
    ///
    /// Returns a rate-grid error (see [`Self::run`]) before running
    /// anything; otherwise propagates the first simulation error in
    /// network order.
    pub fn run_many(
        &self,
        networks: &[&(dyn Network + Sync)],
        pattern: TrafficPattern,
    ) -> Result<Vec<LoadLatencyCurve>, NocError> {
        check_rate_grid(&self.rates)?;
        let mut books: Vec<TraceBook> = Vec::new();
        let book_of: Vec<usize> = networks
            .iter()
            .map(|net| {
                let topology = *net.topology();
                books
                    .iter()
                    .position(|book| book.topology == topology)
                    .unwrap_or_else(|| {
                        books.push(TraceBook {
                            topology,
                            traces: self.rates.iter().map(|_| OnceLock::new()).collect(),
                        });
                        books.len() - 1
                    })
            })
            .collect();
        cryowire_harness::Executor::new(networks.len())
            .run(networks, |i, net| {
                self.replay_curve(*net, pattern, &books[book_of[i]])
            })
            .into_iter()
            .collect()
    }

    /// Runs the sweep over one network with `faults` injected into every
    /// point (`&FaultSchedule::default()` for a fault-free curve). The
    /// curve stops after its second saturated point (enough to show the
    /// hockey stick without wasting cycles); the engine's progress
    /// watchdog turns a would-be hang (dead resources nobody can route
    /// around) into [`SimError::Stalled`] instead of looping forever.
    ///
    /// All rate points share one [`SimScratch`], so the memoized route
    /// tables are built once per curve and the per-point hot loop is
    /// allocation-free. A single run draws and replays each point's
    /// trace in chunks instead of sharing it across networks as
    /// [`Self::run_many`] does.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::EmptyRateGrid`],
    /// [`NocError::InvalidInjectionRate`] or
    /// [`NocError::UnorderedRateGrid`] (as [`SimError::Noc`]) unless the
    /// rate grid is non-empty, every rate is in `[0, 1]` and the grid is
    /// strictly ascending — checked for the whole grid up front, whether
    /// or not the curve would reach every rate — and propagates
    /// simulation errors: invalid windows or patterns, and the
    /// watchdog's [`SimError::Stalled`].
    pub fn run(
        &self,
        network: &dyn Network,
        pattern: TrafficPattern,
        faults: &FaultSchedule,
    ) -> Result<LoadLatencyCurve, SimError> {
        check_rate_grid(&self.rates)?;
        let mut scratch = SimScratch::new();
        self.curve(network, |_, rate| {
            self.sim.run(network, pattern, rate, faults, &mut scratch)
        })
    }

    /// One [`Self::run_many`] curve: replays `book`'s traces, drawing
    /// each on first use.
    fn replay_curve(
        &self,
        network: &dyn Network,
        pattern: TrafficPattern,
        book: &TraceBook,
    ) -> Result<LoadLatencyCurve, NocError> {
        self.sim.validate(network, pattern)?;
        let mut scratch = SimScratch::new();
        self.curve(network, |i, rate| {
            let trace =
                book.traces[i].get_or_init(|| self.sim.draw_trace(pattern, &book.topology, rate));
            Ok(self.sim.replay_trace(network, trace, rate, &mut scratch))
        })
    }

    /// Walks the rate grid in order, taking each point from `point`
    /// (given the rate's grid index and the rate), and stops after the
    /// second saturated point.
    fn curve<E>(
        &self,
        network: &dyn Network,
        mut point: impl FnMut(usize, f64) -> Result<SimResult, E>,
    ) -> Result<LoadLatencyCurve, E> {
        let mut points = Vec::new();
        let mut saturated_seen = 0;
        for (i, &rate) in self.rates.iter().enumerate() {
            let r = point(i, rate)?;
            points.push(LoadLatencyPoint {
                rate,
                latency: r.avg_latency,
                saturated: r.saturated,
            });
            if r.saturated {
                saturated_seen += 1;
                if saturated_seen >= 2 {
                    break;
                }
            }
        }
        Ok(LoadLatencyCurve {
            network: network.name(),
            points,
        })
    }
}

/// Checks a whole load–latency rate grid: non-empty, every rate a
/// probability, strictly ascending. Shared by [`LoadLatencySweep`] and
/// the flit engine's [`flit_load_latency`](crate::flit::flit_load_latency).
pub(crate) fn check_rate_grid(rates: &[f64]) -> Result<(), NocError> {
    if rates.is_empty() {
        return Err(NocError::EmptyRateGrid);
    }
    for &rate in rates {
        check_rate(rate)?;
    }
    for (i, pair) in rates.windows(2).enumerate() {
        if pair[1] <= pair[0] {
            return Err(NocError::UnorderedRateGrid {
                index: i + 1,
                rate: pair[1],
                previous: pair[0],
            });
        }
    }
    Ok(())
}

/// The fault-free injection traces of one topology in a
/// [`LoadLatencySweep::run_many`] fan-out: one slot per rate of the
/// grid, drawn by the first network that reaches it.
struct TraceBook {
    topology: Topology,
    traces: Vec<OnceLock<InjectionTrace>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::SharedBus;
    use crate::cryobus::CryoBus;
    use cryowire_device::Temperature;

    fn quick_sweep(rates: Vec<f64>) -> LoadLatencySweep {
        LoadLatencySweep::new(rates).with_config(SimConfig {
            cycles: 8_000,
            warmup: 2_000,
            ..SimConfig::default()
        })
    }

    #[test]
    fn fig18_shared_bus_300k_fails_parsec() {
        // "300K Shared bus cannot run even the PARSEC workloads."
        let bus = SharedBus::new(64, Temperature::ambient());
        let curve = quick_sweep(vec![0.0005, 0.001, 0.002, 0.004])
            .run(
                &bus,
                TrafficPattern::UniformRandom,
                &FaultSchedule::default(),
            )
            .unwrap();
        let parsec_max = WORKLOAD_BANDS[0].max_rate;
        assert!(
            !curve.supports_rate(parsec_max),
            "300 K bus should not sustain PARSEC max"
        );
    }

    #[test]
    fn fig18_shared_bus_77k_covers_parsec_not_spec() {
        let bus = SharedBus::new(64, Temperature::liquid_nitrogen());
        let curve = quick_sweep(vec![0.0005, 0.002, 0.004, 0.006, 0.010, 0.014])
            .run(
                &bus,
                TrafficPattern::UniformRandom,
                &FaultSchedule::default(),
            )
            .unwrap();
        assert!(curve.supports_rate(WORKLOAD_BANDS[0].max_rate), "PARSEC");
        assert!(
            !curve.supports_rate(WORKLOAD_BANDS[2].max_rate),
            "SPEC2017 should exceed the 77 K shared bus"
        );
    }

    #[test]
    fn fig21_cryobus_covers_all_bands() {
        let bus = CryoBus::new(64, Temperature::liquid_nitrogen());
        let curve = quick_sweep(vec![0.001, 0.004, 0.008, 0.012, 0.0145])
            .run(
                &bus,
                TrafficPattern::UniformRandom,
                &FaultSchedule::default(),
            )
            .unwrap();
        for band in WORKLOAD_BANDS {
            assert!(
                curve.supports_rate(band.max_rate),
                "CryoBus should sustain {}",
                band.name
            );
        }
    }

    #[test]
    fn curve_accessors() {
        let bus = CryoBus::new(64, Temperature::liquid_nitrogen());
        let curve = quick_sweep(vec![0.001, 0.02, 0.03])
            .run(
                &bus,
                TrafficPattern::UniformRandom,
                &FaultSchedule::default(),
            )
            .unwrap();
        assert!(curve.zero_load_latency() >= 5.0);
        assert!(curve.saturation_rate().is_some());
    }

    /// Both entry points' verdicts on `rates` for `network`: the curve's
    /// point count, or the `NocError` it reports.
    fn verdicts(rates: Vec<f64>, network: &(dyn Network + Sync)) -> [Result<usize, NocError>; 2] {
        let sweep = quick_sweep(rates);
        let pattern = TrafficPattern::UniformRandom;
        [
            sweep
                .run(network, pattern, &FaultSchedule::default())
                .map(|c| c.points.len())
                .map_err(|e| match e {
                    SimError::Noc(e) => e,
                    other => panic!("unexpected {other:?}"),
                }),
            sweep
                .run_many(&[network], pattern)
                .map(|c| c[0].points.len()),
        ]
    }

    fn mesh() -> crate::RouterNetwork {
        crate::RouterNetwork::new(
            crate::NocKind::Mesh,
            64,
            crate::RouterClass::OneCycle,
            Temperature::liquid_nitrogen(),
        )
        .expect("valid mesh")
    }

    #[test]
    fn rejects_an_invalid_rate_the_curve_would_never_reach() {
        // The bus saturates twice before 1.5, so checking rates only as
        // the curve reached them returned a 3-point curve here while the
        // mesh (which never saturates) reported the bad rate.
        let bus = SharedBus::new(64, Temperature::liquid_nitrogen());
        for network in [&bus as &(dyn Network + Sync), &mesh()] {
            for verdict in verdicts(vec![0.001, 0.02, 0.03, 0.05, 1.5, f64::NAN], network) {
                assert_eq!(
                    verdict,
                    Err(NocError::InvalidInjectionRate { rate: 1.5 }),
                    "{}",
                    network.name()
                );
            }
        }
    }

    #[test]
    fn rejects_a_grid_that_is_not_strictly_ascending() {
        // A descending grid used to return a bus curve whose "zero-load
        // latency" was its saturated first point (tens of thousands of
        // cycles).
        let bus = SharedBus::new(64, Temperature::liquid_nitrogen());
        for verdict in verdicts(vec![0.05, 0.03, 0.001], &bus) {
            assert_eq!(
                verdict,
                Err(NocError::UnorderedRateGrid {
                    index: 1,
                    rate: 0.03,
                    previous: 0.05
                })
            );
        }
        for verdict in verdicts(vec![0.001, 0.004, 0.004], &bus) {
            assert_eq!(
                verdict,
                Err(NocError::UnorderedRateGrid {
                    index: 2,
                    rate: 0.004,
                    previous: 0.004
                })
            );
        }
    }

    #[test]
    fn rejects_an_empty_grid() {
        // An empty grid used to return a point-less curve whose
        // `zero_load_latency()` panicked.
        let bus = SharedBus::new(64, Temperature::liquid_nitrogen());
        for verdict in verdicts(Vec::new(), &bus) {
            assert_eq!(verdict, Err(NocError::EmptyRateGrid));
        }
    }

    #[test]
    fn bands_are_ordered_and_positive() {
        for band in WORKLOAD_BANDS {
            assert!(band.min_rate > 0.0 && band.min_rate < band.max_rate);
        }
    }
}
