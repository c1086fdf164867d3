//! Closed-loop event-driven 64-core simulation.
//!
//! The analytic model in [`crate::simulator`] composes per-instruction
//! time from queueing formulas; this module *simulates* the same system:
//! every core alternates compute segments, memory accesses (which reserve
//! the actual interconnect resources of the `cryowire-noc` [`Network`]),
//! and barrier synchronisations (cores genuinely wait for the slowest
//! arrival, then serialize their sync operations through the
//! interconnect). It is the closed-loop check that the open-loop queueing
//! approximations in the analytic model do not distort the paper's
//! comparisons.
//!
//! [`EventSimulator::simulate_with_faults`] runs the same loop under a
//! deterministic [`FaultSchedule`]: dead interconnect resources force
//! re-routing (or bounded retries when no route exists), degraded links
//! and router stalls stretch reservations, and cooling transients raise
//! the operating [`Temperature`] mid-run so
//! the device and wire models re-derive core and NoC delays. A progress
//! watchdog converts would-be hangs into [`SimError::Stalled`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cryowire_device::Temperature;
use cryowire_faults::{FaultSchedule, LinkState};
use cryowire_noc::{LinkModel, Network, PathTable, SimError};
use cryowire_pipeline::CriticalPathModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{SystemDesign, SystemNoc};
use crate::workloads::Workload;

/// Event-simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventSimConfig {
    /// Simulated wall-clock horizon, ns.
    pub horizon_ns: f64,
    /// RNG seed for access/barrier jitter.
    pub seed: u64,
    /// Progress watchdog: total blocked memory accesses tolerated before
    /// a faulted run is declared [`SimError::Stalled`] (clamped to ≥ 1).
    pub watchdog_blocked_accesses: u64,
}

impl Default for EventSimConfig {
    fn default() -> Self {
        EventSimConfig {
            horizon_ns: 40_000.0,
            seed: 0xBEEF,
            watchdog_blocked_accesses: 10_000,
        }
    }
}

/// Result of a closed-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventMetrics {
    /// Aggregate instructions per nanosecond per core.
    pub perf_per_core: f64,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// Barriers completed.
    pub barriers: u64,
    /// Average memory-access latency observed, ns.
    pub avg_mem_latency_ns: f64,
    /// Memory accesses that found no usable route (faulted runs only;
    /// each costs the issuing core a bounded retry backoff).
    pub blocked_accesses: u64,
}

/// The closed-loop simulator.
#[derive(Debug, Clone)]
pub struct EventSimulator {
    config: EventSimConfig,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct CoreState {
    time_ns: f64,
    instructions: u64,
    to_next_mem: f64,
    to_next_barrier: f64,
    waiting_barrier: bool,
}

/// Per-temperature slowdown factors, re-derived from the device models
/// whenever a cooling transient moves the operating point.
#[derive(Debug, Clone, Copy)]
struct Derates {
    kelvin: f64,
    /// Core frequency at the current temperature relative to nominal
    /// (≤ 1 when the machine warms up).
    core: f64,
    /// NoC wire speed at the current temperature relative to nominal.
    noc: f64,
}

impl EventSimulator {
    /// Creates the simulator.
    #[must_use]
    pub fn new(config: EventSimConfig) -> Self {
        EventSimulator { config }
    }

    /// Runs `workload` on `design` in closed loop.
    ///
    /// # Panics
    ///
    /// Panics if the design's core count differs from its NoC size.
    #[must_use]
    pub fn simulate(&self, workload: &Workload, design: &SystemDesign) -> EventMetrics {
        match self.simulate_with_faults(workload, design, &FaultSchedule::default()) {
            Ok(m) => m,
            Err(e) => unreachable!("fault-free run cannot stall: {e}"),
        }
    }

    /// The nominal operating temperature of the design's interconnect
    /// (the baseline a cooling transient raises).
    fn base_temperature(design: &SystemDesign) -> Temperature {
        match &design.noc {
            SystemNoc::Mesh { network, .. } => network.temperature(),
            SystemNoc::SharedBus { bus } => bus.temperature(),
            SystemNoc::CryoBus { bus } => bus.temperature(),
            SystemNoc::Ideal => Temperature::liquid_nitrogen(),
        }
    }

    /// Runs `workload` on `design` under a deterministic fault schedule.
    ///
    /// Schedule cycles are interpreted as *nominal NoC clock cycles*
    /// (`cycle = t_ns · f_noc`), matching the NoC-level engine's time
    /// base so one schedule drives both layers. With an empty schedule
    /// this reproduces [`EventSimulator::simulate`] exactly, RNG stream
    /// included.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] when more than
    /// [`EventSimConfig::watchdog_blocked_accesses`] memory accesses found
    /// no usable route — the graceful-degradation contract: a fault set
    /// that disconnects the interconnect yields a diagnosis, not a hang.
    ///
    /// # Panics
    ///
    /// Panics if the design's core count differs from its NoC size.
    #[allow(clippy::too_many_lines)]
    pub fn simulate_with_faults(
        &self,
        workload: &Workload,
        design: &SystemDesign,
        faults: &FaultSchedule,
    ) -> Result<EventMetrics, SimError> {
        let n = design.cores;
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let spec = design.core.spec();
        let f_core = design.core_frequency_ghz();
        let f_noc = design.noc.clock_ghz();
        let t_inst = workload.base_cpi / spec.ipc_at_4ghz / f_core; // ns/inst

        // Memory path characteristics (same decomposition as the analytic
        // model).
        let l3_ns = design.memory.l3().latency_ns();
        let dram_ns = design.memory.dram_latency_ns() / workload.mlp;
        let miss = workload.l3_miss_ratio;

        let insts_per_mem = if workload.l2_mpki > 0.0 {
            1_000.0 / workload.l2_mpki
        } else {
            f64::INFINITY
        };
        let insts_per_barrier = if workload.barriers_per_kinst > 0.0 {
            1_000.0 / workload.barriers_per_kinst
        } else {
            f64::INFINITY
        };

        // Shared interconnect resources (reservation semantics identical
        // to the NoC crate's engine), in NoC cycles.
        let resource_count = design.noc.network().map_or(0, Network::resource_count);
        let mut free = vec![0.0f64; resource_count];

        // Memoized routes: every (src, dst, route-class) path is computed
        // once per dead-set epoch instead of once per memory access.
        // Rebuilds draw no randomness, so the RNG stream — and therefore
        // every metric — is bit-identical to the direct-routing loop.
        let mut routes = PathTable::new();
        if let Some(net) = design.noc.network() {
            routes.rebuild(net, &[]);
        }

        // Fault state caches, refreshed only at schedule change points
        // (heap pops are monotone in time, so a cursor suffices).
        let base_t = Self::base_temperature(design);
        let critical_path = CriticalPathModel::boom_skylake();
        let wire = LinkModel::new();
        let has_transient = faults.has_cooling_transient();
        let change_points = faults.change_points();
        let mut next_change = 0usize;
        let mut dead: Vec<usize> = Vec::new();
        let mut derates = Derates {
            kelvin: base_t.kelvin(),
            core: 1.0,
            noc: 1.0,
        };
        let watchdog = self.config.watchdog_blocked_accesses.max(1);
        let mut blocked: u64 = 0;

        let mut cores = vec![
            CoreState {
                time_ns: 0.0,
                instructions: 0,
                to_next_mem: insts_per_mem,
                to_next_barrier: insts_per_barrier,
                waiting_barrier: false,
            };
            n
        ];
        // Randomize phases so cores do not inject in lockstep.
        for c in cores.iter_mut() {
            c.to_next_mem *= rng.gen::<f64>().max(0.05);
            c.to_next_barrier *= rng.gen::<f64>().max(0.05);
        }

        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            (0..n).map(|i| Reverse((0u64, i))).collect();
        let ns_key = |t: f64| (t * 1_000.0) as u64;

        let mut barriers_done: u64 = 0;
        let mut arrived: usize = 0;
        let mut barrier_arrival_max: f64 = 0.0;
        let mut mem_lat_sum = 0.0;
        let mut mem_count: u64 = 0;

        while let Some(Reverse((_, i))) = heap.pop() {
            let mut c = cores[i];
            if c.waiting_barrier || c.time_ns >= self.config.horizon_ns {
                continue;
            }
            // Refresh cached fault state at schedule boundaries; the
            // schedule's time base is nominal NoC cycles.
            let cycle = (c.time_ns * f_noc) as u64;
            while change_points.get(next_change).is_some_and(|&p| p <= cycle) {
                next_change += 1;
                let dead_now = faults.dead_resources_at(cycle);
                if dead_now != dead {
                    dead = dead_now;
                    if let Some(net) = design.noc.network() {
                        routes.rebuild(net, &dead);
                    }
                }
            }
            if has_transient {
                let t_now = faults.temperature_at(cycle, base_t);
                if t_now.kelvin() != derates.kelvin {
                    derates = Derates {
                        kelvin: t_now.kelvin(),
                        core: critical_path.frequency_ghz(t_now)
                            / critical_path.frequency_ghz(base_t),
                        noc: wire.speedup(t_now) / wire.speedup(base_t),
                    };
                }
            }
            let t_inst_now = t_inst / derates.core;
            let f_noc_now = f_noc * derates.noc;

            // Next event: memory access or barrier, whichever comes first.
            let work = c.to_next_mem.min(c.to_next_barrier);
            let is_barrier = c.to_next_barrier <= c.to_next_mem;
            c.time_ns += work * t_inst_now;
            c.instructions += work as u64;
            c.to_next_mem -= work;
            c.to_next_barrier -= work;

            if is_barrier {
                c.to_next_barrier = insts_per_barrier;
                c.waiting_barrier = true;
                arrived += 1;
                barrier_arrival_max = barrier_arrival_max.max(c.time_ns);
                cores[i] = c;
                if arrived == n {
                    // Release: each core performs one serialized sync
                    // operation through the interconnect.
                    let release =
                        self.barrier_release_time(design, barrier_arrival_max, n, f_noc_now);
                    for (j, core) in cores.iter_mut().enumerate() {
                        core.waiting_barrier = false;
                        core.time_ns = release;
                        heap.push(Reverse((ns_key(release), j)));
                        let _ = j;
                    }
                    barriers_done += 1;
                    arrived = 0;
                    barrier_arrival_max = 0.0;
                }
                continue;
            }

            // Memory access: reserve the network path, then pay the
            // L3/DRAM latency.
            c.to_next_mem = insts_per_mem;
            let start = c.time_ns;
            let Some(t_after_noc) = self.traverse(
                design, &mut free, &mut rng, c.time_ns, f_noc_now, faults, &routes, cycle,
            ) else {
                // No usable route: bounded retry backoff, counted against
                // the watchdog so a disconnected fabric cannot spin
                // forever.
                blocked += 1;
                if blocked >= watchdog {
                    return Err(SimError::Stalled {
                        cycle,
                        blocked_resources: dead.clone(),
                    });
                }
                c.to_next_mem = 0.0; // retry the access after the backoff
                c.time_ns += 16.0 / f_noc_now;
                cores[i] = c;
                if c.time_ns < self.config.horizon_ns {
                    heap.push(Reverse((ns_key(c.time_ns), i)));
                }
                continue;
            };
            let is_miss = rng.gen::<f64>() < miss;
            let mem = l3_ns + if is_miss { dram_ns } else { 0.0 };
            // Response path: directory pays another traversal; snooping
            // data returns on the directed data wires (uncontended).
            let t_resp = match &design.noc {
                SystemNoc::Mesh { .. } => {
                    match self.traverse(
                        design,
                        &mut free,
                        &mut rng,
                        t_after_noc + mem,
                        f_noc_now,
                        faults,
                        &routes,
                        cycle,
                    ) {
                        Some(t) => t,
                        None => {
                            // Response blocked: the request already
                            // happened, so charge the backoff and move on.
                            blocked += 1;
                            if blocked >= watchdog {
                                return Err(SimError::Stalled {
                                    cycle,
                                    blocked_resources: dead.clone(),
                                });
                            }
                            t_after_noc + mem + 16.0 / f_noc_now
                        }
                    }
                }
                _ => t_after_noc + mem + 1.0 / f_noc_now,
            };
            c.time_ns = t_resp;
            mem_lat_sum += c.time_ns - start;
            mem_count += 1;
            cores[i] = c;
            if c.time_ns < self.config.horizon_ns {
                heap.push(Reverse((ns_key(c.time_ns), i)));
            }
        }

        let total_insts: u64 = cores.iter().map(|c| c.instructions).sum();
        Ok(EventMetrics {
            perf_per_core: total_insts as f64 / (self.config.horizon_ns * n as f64),
            instructions: total_insts,
            barriers: barriers_done,
            avg_mem_latency_ns: if mem_count == 0 {
                0.0
            } else {
                mem_lat_sum / mem_count as f64
            },
            blocked_accesses: blocked,
        })
    }

    /// Reserves one network traversal starting at `t_ns`; returns the
    /// completion time in ns, or `None` when every allowed route crosses
    /// a dead resource (the memoized `routes` table holds the sentinel
    /// for the current dead-set epoch).
    #[allow(clippy::too_many_arguments)]
    fn traverse(
        &self,
        design: &SystemDesign,
        free: &mut [f64],
        rng: &mut StdRng,
        t_ns: f64,
        f_noc: f64,
        faults: &FaultSchedule,
        routes: &PathTable,
        cycle: u64,
    ) -> Option<f64> {
        let Some(net) = design.noc.network() else {
            return Some(t_ns); // ideal NoC
        };
        let n = net.topology().nodes();
        let src = rng.gen_range(0..n);
        let mut dst = rng.gen_range(0..n);
        if dst == src {
            dst = (dst + 1) % n;
        }
        let tag: u64 = rng.gen();
        let (legs, _zero) = routes.lookup(src, dst, tag)?;
        let mut t = t_ns;
        for leg in legs {
            let mut occupancy = leg.occupancy_cycles as f64;
            let mut traversal = leg.traversal_cycles as f64;
            if let Some(r) = leg.resource {
                if let LinkState::Degraded(f) = faults.link_state(r, cycle) {
                    occupancy *= f;
                    traversal *= f;
                }
                traversal += faults.stall_cycles(r, cycle) as f64;
                let start = t.max(free[r]);
                free[r] = start + occupancy / f_noc;
                t = start;
            }
            t += traversal / f_noc;
        }
        Some(t)
    }

    /// Barrier release: serialized sync operations through the NoC after
    /// the last arrival.
    fn barrier_release_time(
        &self,
        design: &SystemDesign,
        last_arrival_ns: f64,
        cores: usize,
        f_noc: f64,
    ) -> f64 {
        let per_core = match &design.noc {
            SystemNoc::Ideal => 0.0,
            SystemNoc::Mesh { network, .. } => {
                // Line ping-pong: two round trips of average zero-load
                // latency per core.
                4.0 * network.average_zero_load_latency() / f_noc
            }
            SystemNoc::SharedBus { bus } => bus.occupancy_cycles() as f64 / f_noc,
            SystemNoc::CryoBus { bus } => bus.occupancy_cycles() as f64 / f_noc / bus.ways() as f64,
        };
        last_arrival_ns + per_core * cores as f64
    }
}

impl Default for EventSimulator {
    fn default() -> Self {
        EventSimulator::new(EventSimConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::SystemSimulator;
    use cryowire_faults::{FaultEvent, FaultKind};

    fn quick() -> EventSimulator {
        EventSimulator::new(EventSimConfig {
            horizon_ns: 20_000.0,
            seed: 42,
            watchdog_blocked_accesses: 500,
        })
    }

    #[test]
    fn event_sim_reproduces_fig23_direction() {
        // The closed-loop simulation must agree with the analytic model's
        // ordering: CryoSP+CryoBus > CHP+Mesh on every workload.
        let sim = quick();
        for w in [
            Workload::parsec_by_name("streamcluster").unwrap(),
            Workload::parsec_by_name("ferret").unwrap(),
            Workload::parsec_by_name("blackscholes").unwrap(),
        ] {
            let mesh = sim.simulate(&w, &SystemDesign::chp_mesh());
            let cryo = sim.simulate(&w, &SystemDesign::cryosp_cryobus());
            assert!(
                cryo.perf_per_core > mesh.perf_per_core,
                "{}: cryo {} vs mesh {}",
                w.name,
                cryo.perf_per_core,
                mesh.perf_per_core
            );
        }
    }

    #[test]
    fn streamcluster_gain_matches_analytic_within_tolerance() {
        // Closed-loop and analytic streamcluster speed-ups must agree
        // within 40 % relative (they model contention differently).
        let w = Workload::parsec_by_name("streamcluster").unwrap();
        let event = quick();
        let analytic = SystemSimulator::new();
        let ev_gain = event
            .simulate(&w, &SystemDesign::cryosp_cryobus())
            .perf_per_core
            / event.simulate(&w, &SystemDesign::chp_mesh()).perf_per_core;
        let an_gain = analytic
            .evaluate(&w, &SystemDesign::cryosp_cryobus())
            .performance()
            / analytic
                .evaluate(&w, &SystemDesign::chp_mesh())
                .performance();
        let ratio = ev_gain / an_gain;
        assert!(
            ratio > 0.6 && ratio < 1.67,
            "event gain {ev_gain} vs analytic gain {an_gain}"
        );
    }

    #[test]
    fn barriers_actually_complete() {
        let w = Workload::parsec_by_name("streamcluster").unwrap();
        let m = quick().simulate(&w, &SystemDesign::cryosp_cryobus());
        assert!(m.barriers > 0, "no barriers completed");
        assert!(m.instructions > 0);
    }

    #[test]
    fn ideal_noc_is_fastest() {
        let w = Workload::parsec_by_name("bodytrack").unwrap();
        let sim = quick();
        let ideal = sim.simulate(&w, &SystemDesign::chp_mesh().with_ideal_noc());
        let mesh = sim.simulate(&w, &SystemDesign::chp_mesh());
        assert!(ideal.perf_per_core > mesh.perf_per_core);
    }

    #[test]
    fn memory_latency_observed_is_sane() {
        let w = Workload::parsec_by_name("canneal").unwrap();
        let m = quick().simulate(&w, &SystemDesign::chp_mesh());
        // L3 2.5 ns + NoC a few ns; DRAM path tens of ns.
        assert!(
            m.avg_mem_latency_ns > 2.0 && m.avg_mem_latency_ns < 60.0,
            "avg mem latency = {} ns",
            m.avg_mem_latency_ns
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let w = Workload::parsec_by_name("vips").unwrap();
        let a = quick().simulate(&w, &SystemDesign::cryosp_cryobus());
        let b = quick().simulate(&w, &SystemDesign::cryosp_cryobus());
        assert_eq!(a, b);
    }

    #[test]
    fn empty_schedule_reproduces_fault_free_run_exactly() {
        let w = Workload::parsec_by_name("streamcluster").unwrap();
        for design in [SystemDesign::chp_mesh(), SystemDesign::cryosp_cryobus()] {
            let plain = quick().simulate(&w, &design);
            let faulted = quick()
                .simulate_with_faults(&w, &design, &FaultSchedule::default())
                .unwrap();
            assert_eq!(plain, faulted, "{}", design.name);
            assert_eq!(faulted.blocked_accesses, 0);
        }
    }

    #[test]
    fn cooling_transient_slows_the_machine() {
        // 77 K → 120 K mid-run: the critical-path and wire models
        // re-derive slower clocks, so retired instructions must drop.
        let w = Workload::parsec_by_name("streamcluster").unwrap();
        let design = SystemDesign::cryosp_cryobus();
        let horizon_cycles = 20_000 * 4; // 20 µs at ~4 GHz NoC clock
        let transient = FaultSchedule::from_events(
            vec![FaultEvent::transient(
                0,
                horizon_cycles,
                FaultKind::CoolingTransient { peak_kelvin: 120.0 },
            )],
            horizon_cycles,
        );
        let nominal = quick().simulate(&w, &design);
        let hot = quick()
            .simulate_with_faults(&w, &design, &transient)
            .unwrap();
        assert!(
            hot.perf_per_core < nominal.perf_per_core,
            "120 K transient should cost performance: {} vs {}",
            hot.perf_per_core,
            nominal.perf_per_core
        );
    }

    #[test]
    fn dead_cryobus_way_degrades_but_completes() {
        // Killing one way of the 2-way CryoBus halves interleaving; the
        // dynamic link connection keeps the survivor broadcasting.
        let w = Workload::parsec_by_name("streamcluster").unwrap();
        let design = SystemDesign::cryosp_cryobus_2way();
        let faults = FaultSchedule::from_events(
            vec![FaultEvent::permanent(
                0,
                FaultKind::LinkDead { resource: 0 },
            )],
            80_000,
        );
        let nominal = quick().simulate(&w, &design);
        let degraded = quick().simulate_with_faults(&w, &design, &faults).unwrap();
        assert!(degraded.instructions > 0, "survivor way must keep serving");
        assert!(
            degraded.perf_per_core <= nominal.perf_per_core,
            "losing a way cannot speed the bus up"
        );
    }

    #[test]
    fn fully_dead_fabric_trips_watchdog() {
        let w = Workload::parsec_by_name("streamcluster").unwrap();
        let design = SystemDesign::cryosp_cryobus();
        let net_resources = design.noc.network().unwrap().resource_count();
        let faults = FaultSchedule::from_events(
            (0..net_resources)
                .map(|r| FaultEvent::permanent(0, FaultKind::LinkDead { resource: r }))
                .collect(),
            80_000,
        );
        match quick().simulate_with_faults(&w, &design, &faults) {
            Err(SimError::Stalled {
                blocked_resources, ..
            }) => {
                assert_eq!(blocked_resources.len(), net_resources);
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let w = Workload::parsec_by_name("vips").unwrap();
        let design = SystemDesign::cryosp_cryobus_2way();
        let faults = FaultSchedule::from_events(
            vec![
                FaultEvent::permanent(1_000, FaultKind::LinkDead { resource: 1 }),
                FaultEvent::transient(
                    0,
                    40_000,
                    FaultKind::CoolingTransient { peak_kelvin: 110.0 },
                ),
            ],
            80_000,
        );
        let a = quick().simulate_with_faults(&w, &design, &faults).unwrap();
        let b = quick().simulate_with_faults(&w, &design, &faults).unwrap();
        assert_eq!(a, b);
    }
}
