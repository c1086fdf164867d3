//! Golden corpus for the flit-level engine on routers whose switch
//! allocation scans more than one 64-bit word of input slots, which
//! `flit_golden.rs` never reaches (its widest router has 15 ports × 4 VCs
//! = 60 slots): the 256-node flattened butterfly at 8 VCs (15 × 8 = 120
//! slots), the 64-node mesh at 20 VCs (5 × 20 = 100) and the 16-node mesh
//! at 33 VCs (165, three words). Both router classes, single- and
//! five-flit packets, all five traffic patterns, a low and a saturating
//! rate; every `FlitSimResult` must match `golden/flit_wide.txt` bit for
//! bit.
//!
//! Recorded once from the simulator, like `flit_golden.rs`, and changed
//! only by a deliberate re-baseline (rerun with `CRYOWIRE_BLESS_GOLDEN=1`,
//! bump the version line, and say why in the changelog).

use std::fmt::Write as _;

use cryowire_noc::{FlitConfig, FlitNetwork, NocKind, RouterClass, TrafficPattern};

const GOLDEN: &str = include_str!("golden/flit_wide.txt");
const VERSION: &str = "# cryowire wide flit golden corpus v1";

const CYCLES: u64 = 300;
const WARMUP: u64 = 60;

fn corpus() -> String {
    let networks = [
        (NocKind::FlattenedButterfly, 256, 8),
        (NocKind::Mesh, 64, 20),
        (NocKind::Mesh, 16, 33),
    ];
    let shapes = [(3, 1), (2, 5)];
    let patterns = [
        ("uniform", TrafficPattern::UniformRandom),
        ("transpose", TrafficPattern::Transpose),
        ("hotspot", TrafficPattern::hotspot_default()),
        ("bitreverse", TrafficPattern::BitReverse),
        ("burst", TrafficPattern::burst_default()),
    ];
    let rates = [0.005, 0.3];

    let mut out = format!("{VERSION}\n# cycles {CYCLES} warmup {WARMUP}\n");
    let mut seed = 0u64;
    for (kind, nodes, vcs) in networks {
        for class in [RouterClass::OneCycle, RouterClass::ThreeCycle] {
            for (vc_buffer_flits, packet_flits) in shapes {
                let mut net = FlitNetwork::new(FlitConfig {
                    kind,
                    nodes,
                    class,
                    vcs,
                    vc_buffer_flits,
                    packet_flits,
                })
                .expect("valid flit config");
                for (name, pattern) in patterns {
                    for rate in rates {
                        seed += 1;
                        let r = net
                            .run(pattern, rate, CYCLES, WARMUP, seed)
                            .expect("valid run");
                        writeln!(
                            out,
                            "{kind:?} {nodes} {class:?} {vcs}x{vc_buffer_flits}x{packet_flits} \
                             {name} {rate} {:016x} {} {} {}",
                            r.avg_latency.to_bits(),
                            r.packets,
                            r.backlog,
                            r.saturated
                        )
                        .expect("write to string");
                    }
                }
            }
        }
    }
    out
}

#[test]
fn wide_router_flit_results_match_golden_corpus() {
    let actual = corpus();
    if std::env::var_os("CRYOWIRE_BLESS_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/flit_wide.txt");
        std::fs::write(path, &actual).expect("write golden corpus");
        return;
    }
    let mismatches: Vec<(&str, &str)> = GOLDEN
        .lines()
        .zip(actual.lines())
        .filter(|(g, a)| g != a)
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} corpus lines differ; first: golden `{}` vs actual `{}`",
        mismatches.len(),
        GOLDEN.lines().count(),
        mismatches[0].0,
        mismatches[0].1
    );
    assert_eq!(
        GOLDEN.lines().count(),
        actual.lines().count(),
        "corpus length changed"
    );
}
