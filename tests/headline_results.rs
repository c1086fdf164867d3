//! End-to-end reproduction of the paper's headline claims, exercising the
//! whole crate stack through the facade.

use cryowire::experiments::{self, Fidelity};

#[test]
fn abstract_claim_3_82x_system_speedup() {
    // Abstract: "3.82 times higher system-level performance compared to
    // the conventional computer system".
    let fig23 = experiments::fig23_system_performance(Fidelity::Quick);
    assert!(
        fig23.average_speedup_vs_300k > 3.0 && fig23.average_speedup_vs_300k < 4.7,
        "speed-up vs 300 K = {} (paper: 3.82)",
        fig23.average_speedup_vs_300k
    );
}

#[test]
fn abstract_claim_96_percent_higher_clock() {
    // Abstract: "96% higher clock frequency of CryoSP".
    use cryowire::pipeline::CoreDesign;
    let cryosp = CoreDesign::CryoSp.model_frequency_ghz().expect("feasible");
    let base = CoreDesign::Baseline300K
        .model_frequency_ghz()
        .expect("feasible");
    let gain = cryosp / base;
    assert!(
        gain > 1.8 && gain < 2.1,
        "CryoSP clock gain = {gain} (paper: 1.96)"
    );
}

#[test]
fn abstract_claim_5x_lower_noc_latency() {
    // Abstract: "five times lower NoC latency of CryoBus" (vs 300 K Mesh,
    // at the system's L3-access level).
    use cryowire::device::Temperature;
    use cryowire::memory::{LlcPathModel, MemoryDesign, NocChoice};
    use cryowire::noc::{CryoBus, RouterClass, RouterNetwork};

    let mesh = LlcPathModel::new(
        NocChoice::Router {
            network: RouterNetwork::mesh64(RouterClass::OneCycle, Temperature::ambient()),
            clock_ghz: 4.0,
        },
        MemoryDesign::mem_300k(),
    );
    let cryo = LlcPathModel::new(
        NocChoice::CryoBus {
            bus: CryoBus::new(64, Temperature::liquid_nitrogen()),
        },
        MemoryDesign::mem_77k(),
    );
    let ratio = mesh.hit_breakdown().noc_ns / cryo.hit_breakdown().noc_ns;
    assert!(ratio > 2.5, "NoC latency ratio = {ratio} (paper: ~5x)");
}

#[test]
fn intro_claim_cryobus_alone_doubles_performance() {
    // Section 1: "compared to 300K Mesh, CryoBus improves the multi-thread
    // performance by 110%" — i.e. CHP+CryoBus ≈ 2.1x CHP+Mesh.
    let fig23 = experiments::fig23_system_performance(Fidelity::Quick);
    assert!(
        fig23.cryobus_only_speedup > 1.6 && fig23.cryobus_only_speedup < 2.6,
        "CryoBus-only speed-up = {} (paper: ~2.1)",
        fig23.cryobus_only_speedup
    );
}

#[test]
fn streamcluster_is_the_best_case() {
    // Section 6.2: up to 5.74x on streamcluster thanks to its barriers
    // meeting the snooping protocol.
    let fig23 = experiments::fig23_system_performance(Fidelity::Quick);
    assert_eq!(fig23.best_case.0, "streamcluster");
    assert!(
        fig23.best_case.1 > 4.0 && fig23.best_case.1 < 7.5,
        "streamcluster speed-up = {} (paper: 5.74)",
        fig23.best_case.1
    );
}

#[test]
fn spec_prefetch_resilience() {
    // Section 7.1: even under memory-intensive rate-mode SPEC with an
    // aggressive prefetcher, the full design beats the 300 K baseline by
    // ~2.11x and 2-way interleaving resolves the contention.
    let fig24 = experiments::fig24_spec_prefetch(Fidelity::Quick);
    assert!(
        fig24.cryobus_vs_300k > 1.6,
        "SPEC speed-up vs 300 K = {} (paper: 2.11)",
        fig24.cryobus_vs_300k
    );
    assert!(fig24.cryobus2_vs_300k >= fig24.cryobus_vs_300k);
    assert!(!fig24.contention_bound.is_empty());
}

#[test]
fn cryobus_single_cycle_broadcast_needs_both_ingredients() {
    // Fig. 20's core message: neither cooling alone (77 K shared bus) nor
    // topology alone (300 K H-tree) reaches the 1-cycle broadcast.
    let fig20 = experiments::fig20_bus_latency_breakdown();
    assert_eq!(fig20.cryobus_broadcast_cycles, 1);
    let shared77 = &fig20.rows[1];
    let htree300 = &fig20.rows[2];
    assert!(shared77.4 > 1);
    assert!(htree300.4 > 1);
}

#[test]
fn power_efficiency_with_cooling_included() {
    // Fig. 22 + Table 3: the proposed designs stay under the conventional
    // power budget even paying 9.65 W of cooling per device watt.
    let fig22 = experiments::fig22_noc_power();
    assert!(fig22.cryobus_vs_mesh300 > 0.45);

    use cryowire::pipeline::CoreDesign;
    use cryowire::power::CorePowerModel;
    let core = CorePowerModel::new().power(CoreDesign::CryoSp);
    assert!(
        core.total() < 1.7,
        "CryoSP total power incl. cooling = {} (paper: 1.0)",
        core.total()
    );
}

#[test]
fn temperature_sweep_sweet_spot() {
    // Section 7.4: 100 K beats 77 K on performance/power.
    let sweep = experiments::fig27_temperature_sweep();
    let p77 = sweep.at(77.0).expect("77 K").perf_per_power;
    let p100 = sweep.at(100.0).expect("100 K").perf_per_power;
    assert!(p100 > p77);
}

#[test]
fn barrier_heavy_sharing_is_cheaper_on_cryobus_snooping() {
    // Section 6: barrier ping-pong resolves in one CryoBus broadcast
    // plus a cache-to-cache transfer, where the mesh directory pays
    // request -> home -> owner forwarding on every leg. Measured from
    // the cycle-level engines on the streamcluster trace at 77 K (8
    // cores, 400 accesses each, no evictions): the mesh directory's
    // average miss latency over the CryoBus snooping engine's
    // (6.44 vs 2.92 ns, 2.21x).
    use cryowire::experiments::EngineKind;
    use cryowire_coherence::{CoherenceConfig, CoherenceScratch};
    let workload = cryowire::system::Workload::parsec_by_name("streamcluster").unwrap();
    let trace = experiments::coherence_trace(&workload, 400);
    let config = CoherenceConfig {
        geometry: experiments::coherence_geometries()[0].1,
        ..CoherenceConfig::default()
    };
    let miss_ns = |kind| {
        let (system, clock_ghz) = experiments::build_system(kind);
        let out = system
            .run(&trace, &config, None, &mut CoherenceScratch::new())
            .expect("clean run completes");
        experiments::avg_miss_ns(&out.metrics, clock_ghz)
    };
    let snoop = miss_ns(EngineKind::MesiSnoopCryoBus);
    let directory = miss_ns(EngineKind::MesiDirectoryMesh);
    assert!(
        directory / snoop > 1.0,
        "barrier-heavy sharing must be cheaper on CryoBus snooping than on the mesh \
         directory: directory {directory} ns vs snoop {snoop} ns"
    );
}
