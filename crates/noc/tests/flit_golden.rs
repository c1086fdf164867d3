//! Golden corpus for the flit-level engine: every `FlitSimResult` of a
//! fixed matrix — Mesh, CMesh and flattened butterfly at 16 and 64
//! nodes plus the 256-node flattened butterfly (15 ports × 4 VCs = 60
//! allocation slots per router), both router classes, three
//! (VCs, buffer, packet flits) shapes, all five traffic patterns and a
//! low, a moderate and a saturating rate — must match the checked-in
//! `golden/flit.txt` bit for bit.
//!
//! The corpus is an oracle of outputs, not a copy of an engine: it was
//! recorded once from the simulator and changes only by a deliberate
//! re-baseline (rerun with `CRYOWIRE_BLESS_GOLDEN=1` to rewrite the file,
//! bump its version line, and say why in the changelog). Each network
//! runs its whole pattern × rate list back to back, so state left over
//! from one run would show in the next.

use std::fmt::Write as _;

use cryowire_noc::{FlitConfig, FlitNetwork, NocKind, RouterClass, TrafficPattern};

const GOLDEN: &str = include_str!("golden/flit.txt");
const VERSION: &str = "# cryowire flit golden corpus v1";

const CYCLES: u64 = 200;
const WARMUP: u64 = 40;

fn corpus() -> String {
    let networks = [
        (NocKind::Mesh, 16),
        (NocKind::Mesh, 64),
        (NocKind::CMesh, 16),
        (NocKind::CMesh, 64),
        (NocKind::FlattenedButterfly, 16),
        (NocKind::FlattenedButterfly, 64),
        (NocKind::FlattenedButterfly, 256),
    ];
    let shapes = [(4, 3, 1), (4, 3, 5), (1, 1, 1)];
    let patterns = [
        ("uniform", TrafficPattern::UniformRandom),
        ("transpose", TrafficPattern::Transpose),
        ("hotspot", TrafficPattern::hotspot_default()),
        ("bitreverse", TrafficPattern::BitReverse),
        ("burst", TrafficPattern::burst_default()),
    ];
    let rates = [0.002, 0.05, 0.3];

    let mut out = format!("{VERSION}\n# cycles {CYCLES} warmup {WARMUP}\n");
    let mut seed = 0u64;
    for (kind, nodes) in networks {
        for class in [RouterClass::OneCycle, RouterClass::ThreeCycle] {
            for (vcs, vc_buffer_flits, packet_flits) in shapes {
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
fn flit_results_match_golden_corpus() {
    let actual = corpus();
    if std::env::var_os("CRYOWIRE_BLESS_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/flit.txt");
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
