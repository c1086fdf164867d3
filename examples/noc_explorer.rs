//! NoC explorer: load–latency curves for every evaluated interconnect
//! under a chosen traffic pattern.
//!
//! ```sh
//! cargo run --release --example noc_explorer [uniform|transpose|hotspot|bitrev|burst]
//! ```

use cryowire::device::Temperature;
use cryowire::faults::FaultSchedule;
use cryowire::noc::{
    CryoBus, LoadLatencySweep, Network, NocKind, RouterClass, RouterNetwork, SharedBus, SimConfig,
    TrafficPattern, WORKLOAD_BANDS,
};

fn main() {
    let pattern = match std::env::args().nth(1).as_deref() {
        Some("transpose") => TrafficPattern::Transpose,
        Some("hotspot") => TrafficPattern::hotspot_default(),
        Some("bitrev") => TrafficPattern::BitReverse,
        Some("burst") => TrafficPattern::burst_default(),
        _ => TrafficPattern::UniformRandom,
    };
    println!("== 64-core load-latency explorer, pattern: {pattern:?} ==\n");

    let t77 = Temperature::liquid_nitrogen();
    let t300 = Temperature::ambient();
    let nets: Vec<Box<dyn Network>> = vec![
        Box::new(RouterNetwork::mesh64(RouterClass::OneCycle, t300)),
        Box::new(RouterNetwork::mesh64(RouterClass::OneCycle, t77)),
        Box::new(
            RouterNetwork::new(NocKind::CMesh, 64, RouterClass::ThreeCycle, t77).expect("valid"),
        ),
        Box::new(
            RouterNetwork::new(
                NocKind::FlattenedButterfly,
                64,
                RouterClass::ThreeCycle,
                t77,
            )
            .expect("valid"),
        ),
        Box::new(SharedBus::new(64, t300)),
        Box::new(SharedBus::new(64, t77)),
        Box::new(CryoBus::new(64, t77)),
        Box::new(CryoBus::two_way(64, t77)),
    ];

    let sweep = LoadLatencySweep::new(vec![
        0.0005, 0.001, 0.002, 0.004, 0.006, 0.008, 0.010, 0.012, 0.014, 0.018, 0.024, 0.032,
    ])
    .with_config(SimConfig {
        cycles: 12_000,
        warmup: 3_000,
        ..SimConfig::default()
    });

    println!(
        "{:<34} {:>14} {:>16}",
        "network", "zero-load (cy)", "saturation rate"
    );
    let fault_free = FaultSchedule::default();
    for net in &nets {
        let curve = sweep
            .run(net.as_ref(), pattern, &fault_free)
            .expect("valid sweep");
        println!(
            "{:<34} {:>14.1} {:>16}",
            curve.network,
            curve.zero_load_latency(),
            curve
                .saturation_rate()
                .map_or("> 0.032".to_string(), |s| format!("{s:.4}"))
        );
    }

    println!("\nworkload injection bands (Fig. 18):");
    for band in WORKLOAD_BANDS {
        println!(
            "  {:<10} {:.4} .. {:.4} packets/core/cycle",
            band.name, band.min_rate, band.max_rate
        );
    }
}
