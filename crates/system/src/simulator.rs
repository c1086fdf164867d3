//! The system-level performance model (Gem5-substitute).
//!
//! Per-instruction time is composed from core, NoC, cache, DRAM and
//! synchronisation components. The NoC component self-consistently
//! includes queueing contention: the injection rate depends on the
//! performance, which depends on the contended NoC latency, so the model
//! iterates to a fixed point and additionally enforces the NoC
//! throughput bound (a saturated interconnect caps system throughput no
//! matter how fast the cores are — the effect behind Fig. 24's
//! contention-bound workloads).

use cryowire_noc::{NocError, TrafficPattern};

use crate::config::{SystemDesign, SystemNoc};
use crate::contention::PathProfile;
use crate::workloads::Workload;

/// Tunable model constants (documented calibration, not physics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Average one-way network traversals per L3 hit under directory
    /// coherence (request + response + occasional owner forwarding).
    pub dir_hit_traversals: f64,
    /// Traversals per L3 miss under directory coherence (adds the memory
    /// controller trip).
    pub dir_miss_traversals: f64,
    /// Serialization tail of a cache-line response, NoC cycles.
    pub data_tail_cycles: f64,
    /// Shared-line round trips per synchronisation event under directory
    /// coherence (barrier/lock line ping-pong).
    pub dir_sync_roundtrips: f64,
    /// Packets injected into a router NoC per memory access (request +
    /// response).
    pub mesh_packets_per_access: f64,
    /// Arbitrated bus transactions per memory access (data returns on the
    /// directed data wires).
    pub bus_packets_per_access: f64,
    /// Fixed-point iterations.
    pub iterations: usize,
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            dir_hit_traversals: 2.5,
            dir_miss_traversals: 3.5,
            data_tail_cycles: 4.0,
            dir_sync_roundtrips: 2.0,
            mesh_packets_per_access: 2.0,
            bus_packets_per_access: 1.0,
            iterations: 5,
        }
    }
}

/// Per-instruction time decomposition, ns (multiply by the clock to get a
/// CPI stack).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpiStack {
    /// Core-pipeline time.
    pub core_ns: f64,
    /// Interconnect time (exposed).
    pub noc_ns: f64,
    /// Cache-array time.
    pub cache_ns: f64,
    /// DRAM time.
    pub dram_ns: f64,
    /// Synchronisation (barrier/lock) time.
    pub sync_ns: f64,
}

impl CpiStack {
    /// Total time per instruction, ns.
    #[must_use]
    pub fn total_ns(&self) -> f64 {
        self.core_ns + self.noc_ns + self.cache_ns + self.dram_ns + self.sync_ns
    }

    /// Network-attributable share of execution (NoC plus sync, matching
    /// the Fig. 3 "NoC" portion, which Gem5 attributes network-induced
    /// stalls to).
    #[must_use]
    pub fn noc_fraction(&self) -> f64 {
        (self.noc_ns + self.sync_ns) / self.total_ns()
    }

    /// CPI components at a clock of `ghz`.
    #[must_use]
    pub fn cpi_at(&self, ghz: f64) -> [f64; 5] {
        [
            self.core_ns * ghz,
            self.noc_ns * ghz,
            self.cache_ns * ghz,
            self.dram_ns * ghz,
            self.sync_ns * ghz,
        ]
    }
}

/// Evaluation result for one (workload, design) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemMetrics {
    /// Time decomposition per instruction, ns.
    pub stack: CpiStack,
    /// Converged per-core NoC injection rate (packets/core/NoC-cycle).
    pub injection_rate: f64,
    /// Whether the NoC throughput bound was active.
    pub noc_bound: bool,
}

impl SystemMetrics {
    /// Performance = instructions per nanosecond (the inverse of
    /// execution time; Fig. 17/23/24's y-axis before normalisation).
    #[must_use]
    pub fn performance(&self) -> f64 {
        1.0 / self.stack.total_ns()
    }
}

/// A design made ready for evaluation: it borrows the design and holds
/// the contention paths sampled from its NoC.
///
/// The sample depends only on the network — not on the workload or the
/// injection rate — so a design × workload grid prepares each design once
/// and evaluates every workload through [`SystemSimulator::evaluate_prepared`].
/// The borrow keeps the design's NoC from changing under its sample.
#[derive(Debug)]
pub struct PreparedDesign<'d> {
    design: &'d SystemDesign,
    /// The NoC's sampled uniform-traffic paths (`None` for the ideal NoC).
    profile: Option<PathProfile>,
}

impl<'d> PreparedDesign<'d> {
    /// Samples the contention paths of `design`'s NoC.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidNodeCount`] when the NoC has fewer than
    /// two nodes, so uniform traffic has no destination.
    pub fn new(design: &'d SystemDesign) -> Result<Self, NocError> {
        let profile = design
            .noc
            .network()
            .map(|network| PathProfile::sample(network, TrafficPattern::UniformRandom))
            .transpose()?;
        Ok(PreparedDesign { design, profile })
    }
}

/// The system simulator.
#[derive(Debug, Clone)]
pub struct SystemSimulator {
    params: ModelParams,
}

impl SystemSimulator {
    /// Creates the simulator with default calibration.
    #[must_use]
    pub fn new() -> Self {
        SystemSimulator {
            params: ModelParams::default(),
        }
    }

    /// Overrides the model parameters.
    #[must_use]
    pub fn with_params(params: ModelParams) -> Self {
        SystemSimulator { params }
    }

    /// Evaluates `workload` on `design`, preparing the design first; a
    /// loop over workloads should prepare once with [`PreparedDesign::new`]
    /// and call [`SystemSimulator::evaluate_prepared`].
    ///
    /// # Panics
    ///
    /// Panics with the [`PreparedDesign::new`] error when the design's NoC
    /// has fewer than two nodes.
    #[must_use]
    pub fn evaluate(&self, workload: &Workload, design: &SystemDesign) -> SystemMetrics {
        let prepared = PreparedDesign::new(design)
            .unwrap_or_else(|e| panic!("cannot evaluate `{}`: {e}", design.name));
        self.evaluate_prepared(workload, &prepared)
    }

    /// Evaluates `workload` on a prepared design.
    #[must_use]
    pub fn evaluate_prepared(
        &self,
        workload: &Workload,
        prepared: &PreparedDesign<'_>,
    ) -> SystemMetrics {
        let p = self.params;
        let design = prepared.design;
        let spec = design.core.spec();
        let f_core = design.core_frequency_ghz();
        let ipc = spec.ipc_at_4ghz;
        let f_noc = design.noc.clock_ghz();

        let core_ns = workload.base_cpi / ipc / f_core;
        let access_per_inst = workload.l2_mpki / 1_000.0;
        let sync_per_inst = workload.barriers_per_kinst / 1_000.0;
        let miss = workload.l3_miss_ratio;
        let l3_ns = design.memory.l3().latency_ns();
        let dram_ns_raw = design.memory.dram_latency_ns();

        let packets_per_access = if design.noc.is_snooping() {
            p.bus_packets_per_access
        } else {
            p.mesh_packets_per_access
        };

        let mut total_ns = core_ns.max(1e-6) * 2.0; // initial guess
        let mut stack = CpiStack {
            core_ns,
            noc_ns: 0.0,
            cache_ns: 0.0,
            dram_ns: 0.0,
            sync_ns: 0.0,
        };
        let mut rate = 0.0;
        let mut bound_active = false;

        for _ in 0..p.iterations {
            rate = (access_per_inst * packets_per_access / (total_ns * f_noc)).min(0.9);
            // The sampled paths do not depend on the rate: re-evaluate
            // only the queueing model on each iteration.
            let (oneway_ns, sync_op_ns, util) =
                self.noc_costs(&design.noc, prepared.profile.as_ref(), rate, f_noc);

            // Exposed NoC time per access: directory pays multiple
            // traversals, snooping pays the transaction plus data wires.
            let (hit_noc, miss_noc) = match &design.noc {
                SystemNoc::Ideal => (0.0, 0.0),
                SystemNoc::Mesh { .. } => {
                    let tail = p.data_tail_cycles / f_noc;
                    (
                        p.dir_hit_traversals * oneway_ns + tail,
                        p.dir_miss_traversals * oneway_ns + tail,
                    )
                }
                SystemNoc::SharedBus { .. } | SystemNoc::CryoBus { .. } => {
                    let (data_ns, tail) = match &design.noc {
                        SystemNoc::SharedBus { bus } => (
                            bus.occupancy_cycles() as f64 / f_noc,
                            p.data_tail_cycles / f_noc,
                        ),
                        SystemNoc::CryoBus { bus } => (
                            bus.occupancy_cycles() as f64 / f_noc,
                            p.data_tail_cycles / f_noc,
                        ),
                        _ => unreachable!(),
                    };
                    let xact = oneway_ns + data_ns + tail;
                    (xact, xact)
                }
            };

            let noc_ns = access_per_inst * ((1.0 - miss) * hit_noc + miss * miss_noc);
            let cache_ns = access_per_inst * l3_ns;
            let dram_ns = access_per_inst * miss * dram_ns_raw / workload.mlp;
            let sync_ns = sync_per_inst * sync_op_ns * design.cores as f64;

            stack = CpiStack {
                core_ns,
                noc_ns,
                cache_ns,
                dram_ns,
                sync_ns,
            };
            let mut t = stack.total_ns();

            // Throughput bound: utilisation above 1 at the assumed rate
            // means the NoC caps throughput; stretch time accordingly.
            if util > 1.0 {
                t = t.max(util * total_ns);
                bound_active = true;
            } else {
                bound_active = false;
            }
            total_ns = t;
        }

        // Fold any throughput-bound stretch into the NoC component so the
        // stack still sums to the total.
        let residual = total_ns - stack.total_ns();
        if residual > 0.0 {
            stack.noc_ns += residual;
        }

        SystemMetrics {
            stack,
            injection_rate: rate,
            noc_bound: bound_active,
        }
    }

    /// Per-NoC cost primitives at an offered rate, from the NoC's sampled
    /// `profile`: (average one-way latency ns, per-core sync-operation
    /// cost ns, peak utilisation).
    fn noc_costs(
        &self,
        noc: &SystemNoc,
        profile: Option<&PathProfile>,
        rate: f64,
        f_noc: f64,
    ) -> (f64, f64, f64) {
        let Some(profile) = profile else {
            return (0.0, 0.0, 0.0); // the ideal NoC
        };
        let est = profile.estimate(rate);
        let oneway = est.avg_latency / f_noc;
        let sync_op = match noc {
            // Directory sync: the shared line ping-pongs between cores,
            // each round trip is two traversals.
            SystemNoc::Mesh { .. } => self.params.dir_sync_roundtrips * 2.0 * oneway,
            // Snooping sync: the bus pipelines barrier arrivals at one
            // broadcast occupancy each.
            SystemNoc::SharedBus { bus } => bus.occupancy_cycles() as f64 / f_noc,
            SystemNoc::CryoBus { bus } => bus.occupancy_cycles() as f64 / f_noc / bus.ways() as f64,
            SystemNoc::Ideal => 0.0,
        };
        (oneway, sync_op, est.peak_utilization)
    }
}

impl Default for SystemSimulator {
    fn default() -> Self {
        SystemSimulator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemDesign;
    use crate::workloads::Workload;

    fn geomean(v: &[f64]) -> f64 {
        (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
    }

    fn speedups(a: &SystemDesign, b: &SystemDesign) -> Vec<f64> {
        // performance(a) / performance(b) per PARSEC workload
        let sim = SystemSimulator::new();
        Workload::parsec()
            .iter()
            .map(|w| sim.evaluate(w, a).performance() / sim.evaluate(w, b).performance())
            .collect()
    }

    #[test]
    fn fig23_full_design_vs_chp_baseline() {
        // Paper: CryoSP (77K, CryoBus) is 2.53x over CHP-core (77K, Mesh)
        // on average, up to 5.74x on streamcluster.
        let s = speedups(&SystemDesign::cryosp_cryobus(), &SystemDesign::chp_mesh());
        let avg = geomean(&s);
        assert!(
            avg > 1.9 && avg < 3.1,
            "CryoSP+CryoBus vs CHP+Mesh average = {avg} (paper 2.53)"
        );
        let sc = s[9]; // streamcluster index in Workload::parsec()
        let max = s.iter().copied().fold(0.0, f64::max);
        assert!(
            (max - sc).abs() < 1e-9,
            "streamcluster should be the best case"
        );
        assert!(sc > 4.0, "streamcluster speed-up = {sc} (paper 5.74)");
    }

    #[test]
    fn fig23_full_design_vs_300k_baseline() {
        // Paper: 3.82x over the 300 K baseline on average.
        let s = speedups(
            &SystemDesign::cryosp_cryobus(),
            &SystemDesign::baseline_300k(),
        );
        let avg = geomean(&s);
        assert!(
            avg > 3.0 && avg < 4.7,
            "CryoSP+CryoBus vs 300K baseline average = {avg} (paper 3.82)"
        );
    }

    #[test]
    fn fig23_cryobus_alone() {
        // Paper: CHP-core (77K, CryoBus) is ~2.1x over CHP-core (77K, Mesh).
        let s = speedups(&SystemDesign::chp_cryobus(), &SystemDesign::chp_mesh());
        let avg = geomean(&s);
        assert!(
            avg > 1.6 && avg < 2.6,
            "CryoBus-only average = {avg} (paper 2.1)"
        );
    }

    #[test]
    fn fig23_cryosp_alone() {
        // Paper: CryoSP (77K, Mesh) is ~16.1 % over CHP-core (77K, Mesh);
        // our additive-time model lands lower (~9-13 %) because the
        // paper's mesh runs appear partially NoC-bound (see EXPERIMENTS.md).
        let s = speedups(&SystemDesign::cryosp_mesh(), &SystemDesign::chp_mesh());
        let avg = geomean(&s);
        assert!(
            avg > 1.05 && avg < 1.25,
            "CryoSP-only average = {avg} (paper 1.161)"
        );
        // Every workload must improve (Section 6.2).
        for (w, sp) in Workload::parsec().iter().zip(&s) {
            assert!(*sp > 1.0, "{} regressed: {sp}", w.name);
        }
    }

    #[test]
    fn fig3_noc_fraction_at_300k() {
        // Fig. 3: network-attributable CPI ≈ 45.6 % average, 76.6 % max on
        // the 300 K 64-core mesh.
        let sim = SystemSimulator::new();
        let design = SystemDesign::baseline_300k();
        let fracs: Vec<f64> = Workload::parsec()
            .iter()
            .map(|w| sim.evaluate(w, &design).stack.noc_fraction())
            .collect();
        let avg = fracs.iter().sum::<f64>() / fracs.len() as f64;
        let max = fracs.iter().copied().fold(0.0, f64::max);
        assert!((avg - 0.456).abs() < 0.12, "average NoC fraction = {avg}");
        assert!((max - 0.766).abs() < 0.12, "max NoC fraction = {max}");
    }

    #[test]
    fn fig17_bus_vs_mesh_vs_ideal() {
        // Fig. 17: vs the ideal-NoC 77 K system, 77 K Mesh loses ~43.3 %
        // and the 77 K Shared bus only ~8.1 %.
        let sim = SystemSimulator::new();
        let ideal = SystemDesign::chp_mesh().with_ideal_noc();
        let mesh = SystemDesign::chp_mesh();
        let bus = SystemDesign::chp_mesh()
            .with_shared_bus(cryowire_device::Temperature::liquid_nitrogen());
        let rel = |d: &SystemDesign| {
            let v: Vec<f64> = Workload::parsec()
                .iter()
                .map(|w| sim.evaluate(w, d).performance() / sim.evaluate(w, &ideal).performance())
                .collect();
            geomean(&v)
        };
        let mesh_rel = rel(&mesh);
        let bus_rel = rel(&bus);
        assert!(
            mesh_rel < 0.72,
            "77 K mesh at {mesh_rel} of ideal (paper 0.567)"
        );
        assert!(
            bus_rel > 0.75,
            "77 K shared bus at {bus_rel} of ideal (paper 0.919)"
        );
        assert!(bus_rel > mesh_rel);
    }

    #[test]
    fn memory_bound_workloads_gain_least_from_cryosp() {
        // Section 6.2: bodytrack and x264 show marginal CryoSP gains.
        let s = speedups(&SystemDesign::cryosp_mesh(), &SystemDesign::chp_mesh());
        let parsec = Workload::parsec();
        let avg = geomean(&s);
        for (w, sp) in parsec.iter().zip(&s) {
            if w.name == "bodytrack" || w.name == "x264" {
                assert!(
                    *sp < avg + 0.01,
                    "{} should gain below average: {sp} vs {avg}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn interleaving_never_hurts() {
        let sim = SystemSimulator::new();
        let one = SystemDesign::cryosp_cryobus();
        let two = SystemDesign::cryosp_cryobus_2way();
        for w in Workload::spec() {
            let w = w.with_prefetcher(2.5);
            let p1 = sim.evaluate(&w, &one).performance();
            let p2 = sim.evaluate(&w, &two).performance();
            assert!(p2 >= p1 * 0.999, "{}: 2-way {p2} < 1-way {p1}", w.name);
        }
    }

    #[test]
    fn fig24_spec_prefetch_aggregates() {
        // Section 7.1: CryoSP (77K, CryoBus) beats the 300 K baseline by
        // ~2.11x and CHP (77K, Mesh) by ~37.2 %; 2-way interleaving lifts
        // those to ~2.34x / ~52 %.
        let sim = SystemSimulator::new();
        let designs = [
            SystemDesign::baseline_300k(),
            SystemDesign::chp_mesh(),
            SystemDesign::cryosp_cryobus(),
            SystemDesign::cryosp_cryobus_2way(),
        ];
        let perf = |d: &SystemDesign| {
            let v: Vec<f64> = Workload::spec()
                .iter()
                .map(|w| {
                    sim.evaluate(&w.clone().with_prefetcher(2.5), d)
                        .performance()
                })
                .collect();
            geomean(&v)
        };
        let base = perf(&designs[0]);
        let chp = perf(&designs[1]);
        let cryo = perf(&designs[2]);
        let cryo2 = perf(&designs[3]);
        let vs_base = cryo / base;
        let vs_chp = cryo / chp;
        assert!(
            vs_base > 1.6 && vs_base < 2.9,
            "vs 300K = {vs_base} (paper 2.11)"
        );
        assert!(
            vs_chp > 1.15 && vs_chp < 1.75,
            "vs CHP = {vs_chp} (paper 1.372)"
        );
        assert!(cryo2 > cryo, "2-way must improve the average");
    }

    #[test]
    fn stack_components_sum_to_total() {
        let sim = SystemSimulator::new();
        let m = sim.evaluate(&Workload::parsec()[0], &SystemDesign::cryosp_cryobus());
        let s = m.stack;
        let sum = s.core_ns + s.noc_ns + s.cache_ns + s.dram_ns + s.sync_ns;
        assert!((sum - s.total_ns()).abs() < 1e-12);
        assert!(m.performance() > 0.0);
    }

    fn one_node_mesh_design() -> SystemDesign {
        use cryowire_noc::{NocKind, RouterClass, RouterNetwork};
        let t = cryowire_device::Temperature::liquid_nitrogen();
        let network = RouterNetwork::new(NocKind::Mesh, 1, RouterClass::OneCycle, t)
            .expect("a one-node mesh is constructible");
        SystemDesign::chp_mesh().with_noc(SystemNoc::Mesh {
            network,
            clock_ghz: 5.44,
        })
    }

    #[test]
    fn preparing_a_one_node_noc_is_an_error() {
        assert!(matches!(
            PreparedDesign::new(&one_node_mesh_design()),
            Err(NocError::InvalidNodeCount { nodes: 1, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "traffic needs at least two nodes")]
    fn evaluate_on_a_one_node_noc_panics_instead_of_hanging() {
        let _ = SystemSimulator::new().evaluate(&Workload::parsec()[0], &one_node_mesh_design());
    }

    #[test]
    fn ideal_noc_has_zero_network_time() {
        let sim = SystemSimulator::new();
        let m = sim.evaluate(
            &Workload::parsec()[1],
            &SystemDesign::chp_mesh().with_ideal_noc(),
        );
        assert_eq!(m.stack.noc_ns, 0.0);
        assert_eq!(m.stack.sync_ns, 0.0);
    }
}
