//! The four workloads, their seeded inputs, and the `reproduce` task
//! table.

use cryowire::experiments::{self, Fidelity};
use cryowire::Report;

/// Worker threads every pass gets.
pub const WORKERS: usize = 2;

/// Pipeline split factors of the depth grid (`sweep --max-split 8`).
pub const MAX_SPLIT: i64 = 8;

/// Evaluator tag `depth_sweep_artifact` gives the depth grid.
pub const DEPTH_TAG: &str = "depth-grid/v1";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Reproduce,
    SweepCold,
    SweepWarm,
    Engines,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Reproduce,
        Workload::SweepCold,
        Workload::SweepWarm,
        Workload::Engines,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Reproduce => "reproduce",
            Workload::SweepCold => "sweep-cold",
            Workload::SweepWarm => "sweep-warm",
            Workload::Engines => "engines",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Operations in one pass: tasks, grid points, or engine phases.
    pub fn ops(self, size: Size) -> u64 {
        match self {
            Workload::Reproduce => TASKS.len() as u64,
            Workload::SweepCold | Workload::SweepWarm => size.points() as u64,
            Workload::Engines => ENGINE_PHASES,
        }
    }

    /// Which inputs `--seed` changes, stated in every report.
    pub fn seed_note(self) -> &'static str {
        match self {
            Workload::Reproduce => "inputs do not depend on --seed",
            Workload::SweepCold | Workload::SweepWarm => {
                "--seed picks the sweep temperatures (0: the CLI's linspace grid)"
            }
            Workload::Engines => {
                "--seed picks the core trace; the coherence trace (seed 0xC0_11E5) \
                 and fig21 do not depend on it"
            }
        }
    }
}

/// Phases of an `engines` pass: coherence grid, fig21 grid, core grid
/// (scalar then batched).
pub const ENGINE_PHASES: u64 = 3;

/// Input sizes of one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Temperatures of the depth grid.
    pub temps: usize,
    /// Coherence accesses per core.
    pub accesses: usize,
    /// Instructions of the core trace.
    pub insts: usize,
}

impl Size {
    pub fn new(smoke: bool) -> Size {
        if smoke {
            Size {
                temps: 64,
                accesses: 2_000,
                insts: 100_000,
            }
        } else {
            Size {
                temps: 1024,
                accesses: 20_000,
                insts: 2_000_000,
            }
        }
    }

    pub fn points(self) -> usize {
        self.temps * MAX_SPLIT as usize
    }
}

/// One step of splitmix64.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sweep temperatures: seed 0 is the CLI grid
/// (`linspace_temperatures`); any other seed draws `n` temperatures
/// uniformly in [77, 300) K.
pub fn temperatures(seed: u64, n: usize) -> Vec<f64> {
    if seed == 0 {
        return experiments::linspace_temperatures(n);
    }
    let mut state = seed;
    (0..n)
        .map(|_| {
            let unit = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            77.0 + (300.0 - 77.0) * unit
        })
        .collect()
}

/// The simulator layer a `reproduce` task spends its time in, from the
/// "Implementing modules" column of DESIGN.md §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Noc,
    System,
    Ooo,
    Coherence,
    /// Closed-form models: device, floorplan, pipeline, memory, power.
    Analytic,
}

impl Layer {
    pub const ALL: [Layer; 5] = [
        Layer::Noc,
        Layer::System,
        Layer::Ooo,
        Layer::Coherence,
        Layer::Analytic,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Noc => "noc",
            Layer::System => "system",
            Layer::Ooo => "ooo",
            Layer::Coherence => "coherence",
            Layer::Analytic => "analytic",
        }
    }
}

/// One `reproduce` task: its `experiment` id, layer, and report.
pub struct Task {
    pub id: &'static str,
    pub layer: Layer,
    pub run: fn(Fidelity) -> Report,
}

const fn task(id: &'static str, layer: Layer, run: fn(Fidelity) -> Report) -> Task {
    Task { id, layer, run }
}

/// The `reproduce` binary's task list, in the same (paper) order. The
/// binary keeps its list private, so it is mirrored here; the golden
/// digest and the cross-check against `target/release/reproduce`
/// catch drift.
pub const TASKS: &[Task] = &[
    task("fig2", Layer::Analytic, |_| {
        experiments::fig02_stage_breakdown().report()
    }),
    task("fig3", Layer::System, |_| {
        experiments::fig03_cpi_stacks().report()
    }),
    task("fig5", Layer::Analytic, |_| {
        experiments::fig05_wire_speedup().report()
    }),
    task("fig9", Layer::Analytic, |_| {
        experiments::fig09_validation().report()
    }),
    task("fig10", Layer::Noc, |_| {
        experiments::fig10_link_validation().report()
    }),
    task("fig12", Layer::Analytic, |_| {
        experiments::fig12_critical_path_300k().report()
    }),
    task("fig13", Layer::Analytic, |_| {
        experiments::fig13_critical_path_77k().report()
    }),
    task("fig14", Layer::Analytic, |_| {
        experiments::fig14_superpipelined().report()
    }),
    task("tab1", Layer::Analytic, |_| {
        experiments::tab01_floorplan().report()
    }),
    task("tab3", Layer::Analytic, |_| {
        experiments::tab03_core_specs().report()
    }),
    task("tab4", Layer::Analytic, |_| experiments::tab04_setup()),
    task("fig16", Layer::Analytic, |_| {
        experiments::fig16_llc_latency().report()
    }),
    task("fig17", Layer::System, |_| {
        experiments::fig17_bus_vs_mesh().report()
    }),
    task("fig18", Layer::Noc, |f| {
        experiments::fig18_bus_load_latency(f).report()
    }),
    task("fig20", Layer::Noc, |_| {
        experiments::fig20_bus_latency_breakdown().report()
    }),
    task("fig21", Layer::Noc, |f| {
        experiments::fig21_noc_load_latency(f).report()
    }),
    task("fig22", Layer::Analytic, |_| {
        experiments::fig22_noc_power().report()
    }),
    task("fig23", Layer::System, |f| {
        experiments::fig23_system_performance(f).report()
    }),
    task("fig24", Layer::System, |f| {
        experiments::fig24_spec_prefetch(f).report()
    }),
    task("fig25", Layer::Noc, |f| {
        experiments::fig25_traffic_patterns(f).report()
    }),
    task("fig26", Layer::Noc, |f| {
        experiments::fig26_hybrid_256(f).report()
    }),
    task("fig27", Layer::System, |_| {
        experiments::fig27_temperature_sweep().report()
    }),
    task("abl-bus", Layer::Noc, |_| {
        experiments::ablation_bus_topology().report()
    }),
    task("abl-ways", Layer::Noc, |_| {
        experiments::ablation_interleaving().report()
    }),
    task("abl-ff", Layer::Analytic, |_| {
        experiments::ablation_ff_overhead().report()
    }),
    task("abl-alu", Layer::Analytic, |_| {
        experiments::ablation_alu_count().report()
    }),
    task("abl-thick", Layer::Analytic, |_| {
        experiments::ablation_wire_thickness().report()
    }),
    task("abl-depth", Layer::Analytic, |_| {
        experiments::ablation_depth_sweep().report()
    }),
    task("abl-engine", Layer::Noc, |_| {
        experiments::ablation_engine_comparison().report()
    }),
    task("abl-core-engine", Layer::Ooo, |_| {
        experiments::ablation_core_engine().report()
    }),
    task("abl-ipc", Layer::Ooo, |_| {
        experiments::ipc_cross_validation().report()
    }),
    task("cpi-sim", Layer::Ooo, |_| {
        experiments::cpi_stack_cycle_level().report()
    }),
    task("abl-coherence", Layer::Coherence, |_| {
        experiments::coherence_cross_validation().report()
    }),
    task("summary", Layer::System, |f| {
        experiments::headline_summary(f).report()
    }),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_cli_grid_and_other_seeds_stay_in_range() {
        assert_eq!(temperatures(0, 16), experiments::linspace_temperatures(16));
        let a = temperatures(7, 1024);
        assert_eq!(a, temperatures(7, 1024), "same seed, same inputs");
        assert_ne!(a, temperatures(8, 1024));
        assert!(a.iter().all(|t| (77.0..300.0).contains(t)));
    }

    #[test]
    fn task_ids_are_unique_metric_name_parts() {
        let mut ids: Vec<&str> = TASKS.iter().map(|t| t.id).collect();
        assert_eq!(ids.len(), 34);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 34);
        for t in TASKS {
            let name = format!("reproduce.{}_ms", t.id);
            assert!(crate::metrics::valid_name(&name), "{name}");
        }
    }
}
