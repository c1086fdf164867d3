//! System-level experiments: Figs. 3, 17, 23, 24 and Table 4.

use cryowire_device::Temperature;
use cryowire_harness::Executor;
use cryowire_system::{PreparedDesign, SystemDesign, SystemSimulator, Workload};

use crate::report::{fmt2, fmt3, Report};
use crate::Fidelity;

fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Fans an analytic per-workload evaluation out over the harness
/// executor, one worker per workload. The evaluator is a pure function
/// of the workload, and the executor preserves item order, so the rows
/// are identical to a serial loop at any thread count.
fn per_workload<T: Send>(workloads: &[Workload], eval: impl Fn(&Workload) -> T + Sync) -> Vec<T> {
    Executor::new(workloads.len()).run(workloads, |_, w| eval(w))
}

/// Prepares `design` once for a workload loop.
fn prepare(design: &SystemDesign) -> PreparedDesign<'_> {
    PreparedDesign::new(design).expect("the figures' designs have 64-node NoCs")
}

/// Fig. 3: normalized CPI stacks of the PARSEC workloads on the 300 K
/// 64-core mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig03Result {
    /// (workload, [core, noc, cache, dram, sync] CPI at 4 GHz, noc fraction).
    pub rows: Vec<(String, [f64; 5], f64)>,
    /// Average network-attributable fraction (paper: 45.6 %).
    pub average_noc_fraction: f64,
    /// Maximum (paper: 76.6 %).
    pub max_noc_fraction: f64,
}

impl Fig03Result {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "fig3",
            "PARSEC CPI stacks on the 300 K 64-core mesh",
            &["workload", "core", "NoC", "cache", "DRAM", "sync", "NoC %"],
        );
        for (name, cpi, frac) in &self.rows {
            r.push_row(vec![
                name.clone(),
                fmt3(cpi[0]),
                fmt3(cpi[1]),
                fmt3(cpi[2]),
                fmt3(cpi[3]),
                fmt3(cpi[4]),
                format!("{:.1}%", frac * 100.0),
            ]);
        }
        r
    }
}

/// Runs Fig. 3.
#[must_use]
pub fn fig03_cpi_stacks() -> Fig03Result {
    let sim = SystemSimulator::new();
    let design = SystemDesign::baseline_300k();
    let design = prepare(&design);
    let rows = per_workload(&Workload::parsec(), |w| {
        let m = sim.evaluate_prepared(w, &design);
        let frac = m.stack.noc_fraction();
        (w.name.to_string(), m.stack.cpi_at(4.0), frac)
    });
    let fracs: Vec<f64> = rows.iter().map(|r| r.2).collect();
    Fig03Result {
        rows,
        average_noc_fraction: fracs.iter().sum::<f64>() / fracs.len() as f64,
        max_noc_fraction: fracs.iter().copied().fold(0.0, f64::max),
    }
}

/// Fig. 17: 77 K system performance with Mesh vs Shared bus vs the ideal
/// NoC.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig17Result {
    /// (workload, mesh rel. to ideal, shared bus rel. to ideal).
    pub rows: Vec<(String, f64, f64)>,
    /// Mean mesh performance relative to ideal (paper: 0.567).
    pub mesh_relative: f64,
    /// Mean shared-bus performance relative to ideal (paper: 0.919).
    pub bus_relative: f64,
}

impl Fig17Result {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "fig17",
            "77 K system performance relative to the ideal NoC",
            &["workload", "77K Mesh", "77K Shared bus"],
        );
        for (name, mesh, bus) in &self.rows {
            r.push_row(vec![name.clone(), fmt3(*mesh), fmt3(*bus)]);
        }
        r.push_row(vec![
            "geomean".into(),
            fmt3(self.mesh_relative),
            fmt3(self.bus_relative),
        ]);
        r
    }
}

/// Runs Fig. 17.
#[must_use]
pub fn fig17_bus_vs_mesh() -> Fig17Result {
    let sim = SystemSimulator::new();
    let ideal = SystemDesign::chp_mesh().with_ideal_noc();
    let mesh = SystemDesign::chp_mesh();
    let bus = SystemDesign::chp_mesh().with_shared_bus(Temperature::liquid_nitrogen());
    let (ideal, mesh, bus) = (prepare(&ideal), prepare(&mesh), prepare(&bus));
    let rows = per_workload(&Workload::parsec(), |w| {
        let pi = sim.evaluate_prepared(w, &ideal).performance();
        let pm = sim.evaluate_prepared(w, &mesh).performance() / pi;
        let pb = sim.evaluate_prepared(w, &bus).performance() / pi;
        (w.name.to_string(), pm, pb)
    });
    let ms: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let bs: Vec<f64> = rows.iter().map(|r| r.2).collect();
    Fig17Result {
        rows,
        mesh_relative: geomean(&ms),
        bus_relative: geomean(&bs),
    }
}

/// Fig. 23: multi-thread PARSEC performance of the five system designs.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig23Result {
    /// Design names in Table 4 order.
    pub designs: Vec<String>,
    /// (workload, per-design performance normalized to CHP (77K, Mesh)).
    pub rows: Vec<(String, Vec<f64>)>,
    /// Geomean speed-up of CryoSP (77K, CryoBus) vs CHP (77K, Mesh)
    /// (paper: 2.53).
    pub average_speedup_vs_chp: f64,
    /// vs Baseline (300K, Mesh) (paper: 3.82).
    pub average_speedup_vs_300k: f64,
    /// CryoSP (77K, Mesh) vs CHP (77K, Mesh) (paper: 1.161).
    pub cryosp_only_speedup: f64,
    /// CHP (77K, CryoBus) vs CHP (77K, Mesh) (paper: ~2.1).
    pub cryobus_only_speedup: f64,
    /// Best-case workload and its full-design speed-up vs CHP
    /// (paper: streamcluster, 5.74).
    pub best_case: (String, f64),
}

impl Fig23Result {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let headers: Vec<&str> = std::iter::once("workload")
            .chain(self.designs.iter().map(String::as_str))
            .collect();
        let mut r = Report::new(
            "fig23",
            "PARSEC performance normalized to CHP-core (77K, Mesh)",
            &headers,
        );
        for (name, vals) in &self.rows {
            let mut row = vec![name.clone()];
            row.extend(vals.iter().map(|v| fmt3(*v)));
            r.push_row(row);
        }
        r
    }
}

/// Runs Fig. 23. `Fidelity` is accepted for API uniformity; the analytic
/// system model is cheap enough that both settings are identical.
#[must_use]
pub fn fig23_system_performance(_fidelity: Fidelity) -> Fig23Result {
    let sim = SystemSimulator::new();
    let designs = SystemDesign::evaluation_set();
    let names: Vec<String> = designs.iter().map(|d| d.name.clone()).collect();
    let designs: Vec<_> = designs.iter().map(prepare).collect();

    let rows = per_workload(&Workload::parsec(), |w| {
        let reference = sim.evaluate_prepared(w, &designs[1]).performance(); // CHP (77K, Mesh)
        let vals: Vec<f64> = designs
            .iter()
            .map(|d| sim.evaluate_prepared(w, d).performance() / reference)
            .collect();
        (w.name.to_string(), vals)
    });
    let mut per_design: Vec<Vec<f64>> = vec![Vec::new(); designs.len()];
    let mut best: (String, f64) = (String::new(), 0.0);
    for (name, vals) in &rows {
        for (i, v) in vals.iter().enumerate() {
            per_design[i].push(*v);
        }
        let full = vals[4];
        if full > best.1 {
            best = (name.clone(), full);
        }
    }

    Fig23Result {
        designs: names,
        rows,
        average_speedup_vs_chp: geomean(&per_design[4]),
        average_speedup_vs_300k: geomean(&per_design[4]) / geomean(&per_design[0]),
        cryosp_only_speedup: geomean(&per_design[2]),
        cryobus_only_speedup: geomean(&per_design[3]),
        best_case: best,
    }
}

/// Fig. 24: SPEC2006/2017 rate mode with the aggressive stride prefetcher.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig24Result {
    /// Design names.
    pub designs: Vec<String>,
    /// (workload, per-design performance normalized to CHP (77K, Mesh)).
    pub rows: Vec<(String, Vec<f64>)>,
    /// CryoSP (77K, CryoBus) vs Baseline (300K, Mesh) (paper: 2.11).
    pub cryobus_vs_300k: f64,
    /// CryoSP (77K, CryoBus) vs CHP (77K, Mesh) (paper: 1.372).
    pub cryobus_vs_chp: f64,
    /// 2-way variant vs Baseline (paper: 2.34).
    pub cryobus2_vs_300k: f64,
    /// Workloads where the 1-way CryoBus hit its throughput bound
    /// (paper: cactusADM, gcc, xalancbmk, libquantum).
    pub contention_bound: Vec<String>,
}

impl Fig24Result {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let headers: Vec<&str> = std::iter::once("workload")
            .chain(self.designs.iter().map(String::as_str))
            .collect();
        let mut r = Report::new(
            "fig24",
            "SPEC rate-mode performance with aggressive prefetching",
            &headers,
        );
        for (name, vals) in &self.rows {
            let mut row = vec![name.clone()];
            row.extend(vals.iter().map(|v| fmt3(*v)));
            r.push_row(row);
        }
        r
    }
}

/// Prefetch-traffic amplification used for Fig. 24 (prefetches fire even
/// on hits).
pub const PREFETCH_FACTOR: f64 = 2.5;

/// Runs Fig. 24.
#[must_use]
pub fn fig24_spec_prefetch(_fidelity: Fidelity) -> Fig24Result {
    let sim = SystemSimulator::new();
    let designs = [
        SystemDesign::baseline_300k(),
        SystemDesign::chp_mesh(),
        SystemDesign::cryosp_cryobus(),
        SystemDesign::cryosp_cryobus_2way(),
    ];
    let names: Vec<String> = designs.iter().map(|d| d.name.clone()).collect();
    let designs = designs.each_ref().map(prepare);

    let workloads: Vec<Workload> = Workload::spec()
        .into_iter()
        .map(|w| w.with_prefetcher(PREFETCH_FACTOR))
        .collect();
    let evaluated = per_workload(&workloads, |w| {
        let reference = sim.evaluate_prepared(w, &designs[1]).performance();
        let mut bound = false;
        let vals: Vec<f64> = designs
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let m = sim.evaluate_prepared(w, d);
                if i == 2 && m.noc_bound {
                    bound = true;
                }
                m.performance() / reference
            })
            .collect();
        (w.name.to_string(), vals, bound)
    });
    let mut rows = Vec::new();
    let mut per_design: Vec<Vec<f64>> = vec![Vec::new(); designs.len()];
    let mut contention_bound = Vec::new();
    for (name, vals, bound) in evaluated {
        for (i, v) in vals.iter().enumerate() {
            per_design[i].push(*v);
        }
        if bound {
            contention_bound.push(name.clone());
        }
        rows.push((name, vals));
    }

    Fig24Result {
        designs: names,
        rows,
        cryobus_vs_300k: geomean(&per_design[2]) / geomean(&per_design[0]),
        cryobus_vs_chp: geomean(&per_design[2]),
        cryobus2_vs_300k: geomean(&per_design[3]) / geomean(&per_design[0]),
        contention_bound,
    }
}

/// Runs Table 4 (the evaluation setup, rendered from the configs).
#[must_use]
pub fn tab04_setup() -> Report {
    let mut r = Report::new(
        "tab4",
        "evaluation setup",
        &[
            "design",
            "core (GHz)",
            "NoC",
            "coherence",
            "L3/core",
            "DRAM (ns)",
        ],
    );
    for d in SystemDesign::evaluation_set() {
        r.push_row(vec![
            d.name.clone(),
            fmt2(d.core_frequency_ghz()),
            d.noc.name(),
            if d.noc.is_snooping() {
                "snoop".into()
            } else {
                "directory".into()
            },
            format!("{} KiB", d.memory.l3().size_kib),
            fmt2(d.memory.dram_latency_ns()),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_fractions_near_paper() {
        let r = fig03_cpi_stacks();
        assert_eq!(r.rows.len(), 13);
        assert!((r.average_noc_fraction - 0.456).abs() < 0.12);
        assert!((r.max_noc_fraction - 0.766).abs() < 0.12);
    }

    #[test]
    fn fig17_ordering() {
        let r = fig17_bus_vs_mesh();
        assert!(r.mesh_relative < 0.72);
        assert!(r.bus_relative > 0.75);
    }

    #[test]
    fn fig23_headline_numbers() {
        let r = fig23_system_performance(Fidelity::Quick);
        assert!(r.average_speedup_vs_chp > 1.9 && r.average_speedup_vs_chp < 3.1);
        assert!(r.average_speedup_vs_300k > 3.0 && r.average_speedup_vs_300k < 4.7);
        assert_eq!(r.best_case.0, "streamcluster");
        assert!(r.best_case.1 > 4.0);
    }

    #[test]
    fn fig24_headline_numbers() {
        let r = fig24_spec_prefetch(Fidelity::Quick);
        assert!(r.cryobus_vs_300k > 1.6 && r.cryobus_vs_300k < 2.9);
        assert!(r.cryobus2_vs_300k >= r.cryobus_vs_300k);
        // The paper's four contention-bound workloads must show up.
        for n in ["cactusADM", "gcc", "xalancbmk", "libquantum"] {
            assert!(
                r.contention_bound.iter().any(|c| c == n),
                "{n} should be contention-bound, got {:?}",
                r.contention_bound
            );
        }
    }

    #[test]
    fn tab4_renders_five_rows() {
        assert_eq!(tab04_setup().len(), 5);
    }
}
