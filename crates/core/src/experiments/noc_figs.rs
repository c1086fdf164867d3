//! NoC experiments: Figs. 16, 18, 20, 21, 22, 25, 26.

use cryowire_device::Temperature;
use cryowire_memory::{LlcPathModel, MemoryDesign, NocChoice};
use cryowire_noc::{
    BusKind, CryoBus, HybridCryoBus, LoadLatencyCurve, LoadLatencySweep, Network, NocKind,
    RouterClass, RouterNetwork, SharedBus, SimConfig, TrafficPattern, WORKLOAD_BANDS,
};
use cryowire_power::{NocDesignPower, NocPowerModel};

use crate::report::{fmt2, fmt3, Report};
use crate::Fidelity;

pub(crate) fn sweep(fidelity: Fidelity, rates: Vec<f64>) -> LoadLatencySweep {
    let config = match fidelity {
        Fidelity::Quick => SimConfig {
            cycles: 8_000,
            warmup: 2_000,
            ..SimConfig::default()
        },
        Fidelity::Full => SimConfig::default(),
    };
    LoadLatencySweep::new(rates).with_config(config)
}

/// The one load–latency fan-out behind Figs. 18, 21, 25 and 26: sweeps
/// `rates` over every network concurrently (one worker per network via
/// the harness executor). Networks of one topology replay the same
/// injection trace per rate, drawn once; every curve is bit-identical
/// to running its network alone.
fn load_latency_curves(
    fidelity: Fidelity,
    rates: Vec<f64>,
    networks: &[&(dyn Network + Sync)],
    pattern: TrafficPattern,
) -> Vec<LoadLatencyCurve> {
    sweep(fidelity, rates)
        .run_many(networks, pattern)
        .expect("valid sweep")
}

/// Fig. 16: L3 hit/miss latency breakdown for the five NoC designs at
/// 300 K and 77 K.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig16Result {
    /// (design name, temperature K, hit noc/cache ns, miss noc/cache/dram ns).
    pub rows: Vec<(String, f64, [f64; 2], [f64; 3])>,
    /// 77 K Mesh NoC fraction of hit latency (paper: up to 71.7 %).
    pub mesh77_hit_noc_fraction: f64,
    /// 77 K Mesh NoC fraction of miss latency (paper: 40.4 %).
    pub mesh77_miss_noc_fraction: f64,
}

impl Fig16Result {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "fig16",
            "L3 hit/miss latency breakdown (ns)",
            &[
                "design",
                "T (K)",
                "hit NoC",
                "hit cache",
                "miss NoC",
                "miss cache",
                "miss DRAM",
            ],
        );
        for (name, t, hit, miss) in &self.rows {
            r.push_row(vec![
                name.clone(),
                format!("{t:.0}"),
                fmt2(hit[0]),
                fmt2(hit[1]),
                fmt2(miss[0]),
                fmt2(miss[1]),
                fmt2(miss[2]),
            ]);
        }
        r
    }
}

/// Runs Fig. 16.
#[must_use]
pub fn fig16_llc_latency() -> Fig16Result {
    let mut rows = Vec::new();
    let mut mesh77_hit = 0.0;
    let mut mesh77_miss = 0.0;
    for t in [Temperature::ambient(), Temperature::liquid_nitrogen()] {
        let memory = if t.is_cryogenic() {
            MemoryDesign::mem_77k()
        } else {
            MemoryDesign::mem_300k()
        };
        for noc in NocChoice::standard_set(t) {
            let name = noc.name();
            let model = LlcPathModel::new(noc, memory);
            let hit = model.hit_breakdown();
            let miss = model.miss_breakdown();
            if t.is_cryogenic() && name.starts_with("Mesh") {
                mesh77_hit = hit.noc_fraction();
                mesh77_miss = miss.noc_fraction();
            }
            rows.push((
                name,
                t.kelvin(),
                [hit.noc_ns, hit.cache_ns],
                [miss.noc_ns, miss.cache_ns, miss.dram_ns],
            ));
        }
    }
    Fig16Result {
        rows,
        mesh77_hit_noc_fraction: mesh77_hit,
        mesh77_miss_noc_fraction: mesh77_miss,
    }
}

/// Fig. 18: shared-bus load–latency at 300 K and 77 K plus the workload
/// injection bands.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig18Result {
    /// Load–latency curve of the 300 K shared bus.
    pub bus_300k: LoadLatencyCurve,
    /// Load–latency curve of the 77 K shared bus.
    pub bus_77k: LoadLatencyCurve,
    /// Which workload bands each bus supports: (band, 300 K ok, 77 K ok).
    pub band_support: Vec<(&'static str, bool, bool)>,
}

impl Fig18Result {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "fig18",
            "shared-bus load-latency and workload bands",
            &["injection rate", "300K latency (cyc)", "77K latency (cyc)"],
        );
        let max = self.bus_300k.points.len().max(self.bus_77k.points.len());
        for i in 0..max {
            let rate = self
                .bus_77k
                .points
                .get(i)
                .or_else(|| self.bus_300k.points.get(i))
                .map_or(0.0, |p| p.rate);
            let cell = |c: &LoadLatencyCurve| {
                c.points.get(i).map_or("-".to_string(), |p| {
                    if p.saturated {
                        "sat".to_string()
                    } else {
                        fmt2(p.latency)
                    }
                })
            };
            r.push_row(vec![
                format!("{rate:.4}"),
                cell(&self.bus_300k),
                cell(&self.bus_77k),
            ]);
        }
        for (band, ok300, ok77) in &self.band_support {
            r.push_row(vec![
                format!("band {band}"),
                if *ok300 { "ok" } else { "saturated" }.into(),
                if *ok77 { "ok" } else { "saturated" }.into(),
            ]);
        }
        r
    }
}

/// Runs Fig. 18.
///
/// # Panics
///
/// Never panics: rates and patterns are valid by construction.
#[must_use]
pub fn fig18_bus_load_latency(fidelity: Fidelity) -> Fig18Result {
    let rates = vec![
        0.0002, 0.0005, 0.001, 0.0015, 0.002, 0.003, 0.004, 0.005, 0.006, 0.008, 0.010, 0.013,
    ];
    let bus300 = SharedBus::new(64, Temperature::ambient());
    let bus77 = SharedBus::new(64, Temperature::liquid_nitrogen());
    let mut curves = load_latency_curves(
        fidelity,
        rates,
        &[&bus300, &bus77],
        TrafficPattern::UniformRandom,
    );
    let c77 = curves.pop().expect("two curves");
    let c300 = curves.pop().expect("two curves");
    let band_support = WORKLOAD_BANDS
        .iter()
        .map(|b| {
            (
                b.name,
                c300.supports_rate(b.max_rate),
                c77.supports_rate(b.max_rate),
            )
        })
        .collect();
    Fig18Result {
        bus_300k: c300,
        bus_77k: c77,
        band_support,
    }
}

/// Fig. 20: broadcast-latency breakdown of the four bus designs.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig20Result {
    /// (design, request, arbitration, grant(+control), broadcast) cycles.
    pub rows: Vec<(String, u64, u64, u64, u64)>,
    /// CryoBus broadcast occupancy (paper target: 1 cycle).
    pub cryobus_broadcast_cycles: u64,
}

impl Fig20Result {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "fig20",
            "bus transaction latency breakdown (cycles)",
            &[
                "design",
                "request",
                "arbitration",
                "grant",
                "broadcast",
                "total",
            ],
        );
        for (name, req, arb, grant, bcast) in &self.rows {
            r.push_row(vec![
                name.clone(),
                req.to_string(),
                arb.to_string(),
                grant.to_string(),
                bcast.to_string(),
                (req + arb + grant + bcast).to_string(),
            ]);
        }
        r
    }
}

/// Runs Fig. 20.
///
/// # Panics
///
/// Never panics for the fixed valid configurations.
#[must_use]
pub fn fig20_bus_latency_breakdown() -> Fig20Result {
    let t300 = Temperature::ambient();
    let t77 = Temperature::liquid_nitrogen();
    let designs: Vec<(String, SharedBus)> = vec![
        ("300K Shared bus".into(), SharedBus::new(64, t300)),
        ("77K Shared bus".into(), SharedBus::new(64, t77)),
        (
            "300K H-tree bus".into(),
            SharedBus::with_kind(BusKind::HTree, 64, t300, 1).expect("valid"),
        ),
        (
            "CryoBus (77K H-tree)".into(),
            SharedBus::with_kind(BusKind::HTree, 64, t77, 1).expect("valid"),
        ),
    ];
    let rows: Vec<(String, u64, u64, u64, u64)> = designs
        .iter()
        .map(|(name, bus)| {
            let (req, arb, grant, bcast) = bus.latency_breakdown();
            (name.clone(), req, arb, grant, bcast)
        })
        .collect();
    let cryobus_broadcast_cycles = rows.last().expect("four designs").4;
    Fig20Result {
        rows,
        cryobus_broadcast_cycles,
    }
}

/// Figs. 21/25: load–latency of all NoCs at 77 K under a traffic pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig21Result {
    /// The traffic pattern evaluated.
    pub pattern: String,
    /// One curve per network.
    pub curves: Vec<LoadLatencyCurve>,
}

impl Fig21Result {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "fig21",
            format!("load-latency at 77 K, {} traffic", self.pattern),
            &["network", "zero-load (cyc)", "saturation rate"],
        );
        for c in &self.curves {
            r.push_row(vec![
                c.network.clone(),
                fmt2(c.zero_load_latency()),
                c.saturation_rate()
                    .map_or("> sweep max".to_string(), |s| format!("{s:.4}")),
            ]);
        }
        r
    }

    /// The CryoBus curve.
    ///
    /// # Panics
    ///
    /// Panics if CryoBus is missing (cannot happen via the constructors).
    #[must_use]
    pub fn cryobus(&self) -> &LoadLatencyCurve {
        self.curves
            .iter()
            .find(|c| c.network.starts_with("CryoBus") && !c.network.contains("way"))
            .expect("CryoBus curve present")
    }
}

pub(crate) fn all_nocs_77k() -> Vec<Box<dyn Network + Sync>> {
    let t77 = Temperature::liquid_nitrogen();
    let mk = |kind, class| -> Box<dyn Network + Sync> {
        Box::new(RouterNetwork::new(kind, 64, class, t77).expect("valid 64-core networks"))
    };
    vec![
        mk(NocKind::Mesh, RouterClass::OneCycle),
        mk(NocKind::Mesh, RouterClass::ThreeCycle),
        mk(NocKind::CMesh, RouterClass::OneCycle),
        mk(NocKind::CMesh, RouterClass::ThreeCycle),
        mk(NocKind::FlattenedButterfly, RouterClass::OneCycle),
        mk(NocKind::FlattenedButterfly, RouterClass::ThreeCycle),
        Box::new(SharedBus::new(64, t77)),
        Box::new(CryoBus::new(64, t77)),
        Box::new(CryoBus::two_way(64, t77)),
    ]
}

/// Runs Fig. 21 (uniform random).
///
/// # Panics
///
/// Never panics: rates and patterns are valid by construction.
#[must_use]
pub fn fig21_noc_load_latency(fidelity: Fidelity) -> Fig21Result {
    run_pattern(fidelity, TrafficPattern::UniformRandom, "uniform random")
}

/// Fig. 25: the four non-uniform traffic patterns.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig25Result {
    /// One Fig. 21-style result per pattern.
    pub patterns: Vec<Fig21Result>,
}

impl Fig25Result {
    /// Report rendering (concatenates the per-pattern summaries).
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "fig25",
            "load-latency under non-uniform traffic (77 K)",
            &["pattern", "network", "zero-load (cyc)", "saturation rate"],
        );
        for p in &self.patterns {
            for c in &p.curves {
                r.push_row(vec![
                    p.pattern.clone(),
                    c.network.clone(),
                    fmt2(c.zero_load_latency()),
                    c.saturation_rate()
                        .map_or("> sweep max".to_string(), |s| format!("{s:.4}")),
                ]);
            }
        }
        r
    }
}

/// Runs Fig. 25.
///
/// # Panics
///
/// Never panics: rates and patterns are valid by construction.
#[must_use]
pub fn fig25_traffic_patterns(fidelity: Fidelity) -> Fig25Result {
    let patterns = vec![
        (TrafficPattern::Transpose, "transpose"),
        (TrafficPattern::hotspot_default(), "hotspot"),
        (TrafficPattern::BitReverse, "bit reverse"),
        (TrafficPattern::burst_default(), "burst"),
    ];
    Fig25Result {
        patterns: patterns
            .into_iter()
            .map(|(p, name)| run_pattern(fidelity, p, name))
            .collect(),
    }
}

/// The Fig. 21/25 injection-rate grid.
pub(crate) fn fig21_rates() -> Vec<f64> {
    vec![
        0.001, 0.002, 0.004, 0.006, 0.008, 0.010, 0.012, 0.014, 0.018, 0.024, 0.032, 0.05, 0.08,
    ]
}

fn run_pattern(fidelity: Fidelity, pattern: TrafficPattern, name: &str) -> Fig21Result {
    let nets = all_nocs_77k();
    let refs: Vec<&(dyn Network + Sync)> = nets.iter().map(AsRef::as_ref).collect();
    Fig21Result {
        pattern: name.to_string(),
        curves: load_latency_curves(fidelity, fig21_rates(), &refs, pattern),
    }
}

/// Fig. 22: NoC power including cooling.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig22Result {
    /// (design name, device power, total power) normalized to 300 K mesh.
    pub rows: Vec<(String, f64, f64)>,
    /// CryoBus total-power reduction vs 300 K mesh (paper: 57.2 %).
    pub cryobus_vs_mesh300: f64,
    /// vs 77 K mesh (paper: 40.5 %).
    pub cryobus_vs_mesh77: f64,
    /// vs 77 K shared bus (paper: 30.7 %).
    pub cryobus_vs_bus77: f64,
}

impl Fig22Result {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "fig22",
            "NoC power (normalized to 300 K mesh, incl. cooling)",
            &["design", "device", "total"],
        );
        for (name, dev, tot) in &self.rows {
            r.push_row(vec![name.clone(), fmt3(*dev), fmt3(*tot)]);
        }
        r
    }
}

/// Runs Fig. 22.
#[must_use]
pub fn fig22_noc_power() -> Fig22Result {
    let model = NocPowerModel::new();
    let rows: Vec<(String, f64, f64)> = NocDesignPower::ALL
        .iter()
        .map(|&d| {
            (
                d.name().to_string(),
                model.device_power(d),
                model.total_power(d),
            )
        })
        .collect();
    let total = |d: NocDesignPower| model.total_power(d);
    Fig22Result {
        rows,
        cryobus_vs_mesh300: 1.0 - total(NocDesignPower::CryoBus77K),
        cryobus_vs_mesh77: 1.0 - total(NocDesignPower::CryoBus77K) / total(NocDesignPower::Mesh77K),
        cryobus_vs_bus77: 1.0
            - total(NocDesignPower::CryoBus77K) / total(NocDesignPower::SharedBus77K),
    }
}

/// Fig. 26: the 256-core hybrid CryoBus.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig26Result {
    /// Curves for the hybrid (1-way and 2-way) and the 256-core router
    /// networks.
    pub curves: Vec<LoadLatencyCurve>,
}

impl Fig26Result {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "fig26",
            "256-core hybrid CryoBus load-latency (77 K)",
            &["network", "zero-load (cyc)", "saturation rate"],
        );
        for c in &self.curves {
            r.push_row(vec![
                c.network.clone(),
                fmt2(c.zero_load_latency()),
                c.saturation_rate()
                    .map_or("> sweep max".to_string(), |s| format!("{s:.4}")),
            ]);
        }
        r
    }

    /// The hybrid's zero-load latency must be the lowest (paper claim).
    #[must_use]
    pub fn hybrid_has_lowest_latency(&self) -> bool {
        let hybrid = self
            .curves
            .iter()
            .filter(|c| c.network.starts_with("Hybrid"))
            .map(|c| c.zero_load_latency())
            .fold(f64::INFINITY, f64::min);
        self.curves
            .iter()
            .filter(|c| !c.network.starts_with("Hybrid"))
            .all(|c| c.zero_load_latency() >= hybrid)
    }
}

/// Runs Fig. 26.
///
/// # Panics
///
/// Never panics for the fixed valid configurations.
#[must_use]
pub fn fig26_hybrid_256(fidelity: Fidelity) -> Fig26Result {
    let t77 = Temperature::liquid_nitrogen();
    let rates = vec![0.001, 0.002, 0.004, 0.006, 0.008, 0.012, 0.016, 0.024, 0.04];
    // Realistic 3-cycle industry routers for the 256-core comparison
    // (Section 7.3 positions the hybrid against deployed router NoCs).
    let nets: Vec<Box<dyn Network + Sync>> = vec![
        Box::new(HybridCryoBus::c256(t77, 1)),
        Box::new(HybridCryoBus::c256(t77, 2)),
        Box::new(
            RouterNetwork::new(NocKind::Mesh, 256, RouterClass::ThreeCycle, t77).expect("valid"),
        ),
        Box::new(
            RouterNetwork::new(NocKind::CMesh, 256, RouterClass::ThreeCycle, t77).expect("valid"),
        ),
        Box::new(
            RouterNetwork::new(
                NocKind::FlattenedButterfly,
                256,
                RouterClass::ThreeCycle,
                t77,
            )
            .expect("valid"),
        ),
    ];
    let refs: Vec<&(dyn Network + Sync)> = nets.iter().map(AsRef::as_ref).collect();
    Fig26Result {
        curves: load_latency_curves(fidelity, rates, &refs, TrafficPattern::UniformRandom),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig16_fractions() {
        let r = fig16_llc_latency();
        assert_eq!(r.rows.len(), 10);
        assert!(r.mesh77_hit_noc_fraction > 0.55);
        assert!(r.mesh77_miss_noc_fraction > 0.25 && r.mesh77_miss_noc_fraction < 0.55);
    }

    #[test]
    fn fig18_band_story() {
        let r = fig18_bus_load_latency(Fidelity::Quick);
        // 300 K bus fails PARSEC; 77 K bus covers PARSEC but not SPEC2017.
        let parsec = r.band_support.iter().find(|b| b.0 == "PARSEC").unwrap();
        assert!(!parsec.1, "300 K bus must not support PARSEC");
        assert!(parsec.2, "77 K bus must support PARSEC");
        let spec17 = r.band_support.iter().find(|b| b.0 == "SPEC2017").unwrap();
        assert!(!spec17.2, "77 K bus must not support SPEC2017");
    }

    #[test]
    fn fig20_cryobus_single_cycle() {
        let r = fig20_bus_latency_breakdown();
        assert_eq!(r.cryobus_broadcast_cycles, 1);
        assert_eq!(r.rows.len(), 4);
        // Neither cooling alone nor topology alone reaches 1 cycle.
        assert!(r.rows[1].4 > 1, "77 K shared bus broadcast");
        assert!(r.rows[2].4 > 1, "300 K H-tree broadcast");
    }

    #[test]
    fn fig21_cryobus_lowest_latency() {
        let r = fig21_noc_load_latency(Fidelity::Quick);
        let cryo = r.cryobus().zero_load_latency();
        for c in &r.curves {
            // Allow a small tolerance: the measured low-load point of the
            // 2-way variant can dip fractionally below the 1-way bus.
            assert!(
                c.zero_load_latency() >= cryo - 0.5,
                "{} beat CryoBus zero-load",
                c.network
            );
        }
    }

    #[test]
    fn fig22_reductions() {
        let r = fig22_noc_power();
        assert!((r.cryobus_vs_mesh300 - 0.572).abs() < 0.06);
        assert!((r.cryobus_vs_mesh77 - 0.405).abs() < 0.06);
        assert!((r.cryobus_vs_bus77 - 0.307).abs() < 0.06);
    }

    #[test]
    fn fig26_hybrid_lowest() {
        let r = fig26_hybrid_256(Fidelity::Quick);
        assert!(r.hybrid_has_lowest_latency());
    }
}
