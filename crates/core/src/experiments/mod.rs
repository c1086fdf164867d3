//! Every table and figure of the paper's evaluation as a runnable
//! experiment (see DESIGN.md's experiment index).
//!
//! Each function computes its figure from the models and returns a typed
//! result with a [`Report`](crate::Report) rendering of the same
//! rows/series the paper plots. Simulation-backed experiments take a
//! [`Fidelity`] knob; analytic ones are exact either way. [`REGISTRY`]
//! lists them all in paper order for the `reproduce` and `experiment`
//! binaries.

mod ablations;
mod bench_engines;
mod coherence_validation;
mod ipc_validation;
mod noc_figs;
mod pipeline_figs;
mod registry;
mod summary;
mod sweeps;
mod system_figs;
mod temperature;
mod wires;

pub use crate::Fidelity;
pub use ablations::{
    ablation_alu_count, ablation_bus_topology, ablation_core_engine, ablation_depth_sweep,
    ablation_engine_comparison, ablation_ff_overhead, ablation_interleaving,
    ablation_wire_thickness, AluCountAblation, BusTopologyAblation, CoreEngineAblation,
    DepthSweepAblation, EngineComparisonAblation, FfOverheadAblation, InterleavingAblation,
    WireThicknessAblation,
};
pub use bench_engines::{bench_engines, bench_engines_json, BenchEngines, BenchRow};
pub use coherence_validation::{coherence_cross_validation, CoherenceValidation};
pub use ipc_validation::{ipc_cross_validation, ipc_validation_grid, IpcValidation};
pub use noc_figs::{
    fig16_llc_latency, fig18_bus_load_latency, fig20_bus_latency_breakdown, fig21_noc_load_latency,
    fig22_noc_power, fig25_traffic_patterns, fig26_hybrid_256, Fig16Result, Fig18Result,
    Fig20Result, Fig21Result, Fig22Result, Fig25Result, Fig26Result,
};
pub use pipeline_figs::{
    cpi_stack_cycle_level, fig02_stage_breakdown, fig09_validation, fig12_critical_path_300k,
    fig13_critical_path_77k, fig14_superpipelined, tab01_floorplan, tab03_core_specs, CpiStackSim,
    Fig02Result, Fig09Result, Fig12Result, Fig14Result, Tab01Result, Tab03Result,
};
pub use registry::{Experiment, Section, REGISTRY};
pub use summary::{headline_summary, HeadlineSummary};
pub use sweeps::{
    ablation_depth_spec, avg_miss_ns, build_system, coherence_geometries, coherence_spec,
    coherence_sweep_artifact, coherence_trace, degraded_eval, degraded_plan, degraded_spec,
    degraded_sweep_artifact, depth_grid_eval, depth_grid_spec, depth_sweep_artifact, fig21_spec,
    fig21_sweep_artifact, fig27_spec, fig27_sweep_artifact, geometry_by_name,
    linspace_temperatures, outcome_value, EngineKind, InjectFaults, SweepOptions,
    COHERENCE_SWEEP_ACCESSES, DEGRADED_HORIZON_CYCLES, DEGRADED_SCENARIOS, FIG21_NETWORKS,
};
pub use system_figs::{
    fig03_cpi_stacks, fig17_bus_vs_mesh, fig23_system_performance, fig24_spec_prefetch,
    tab04_setup, Fig03Result, Fig17Result, Fig23Result, Fig24Result,
};
pub use temperature::{
    fig27_point, fig27_temperature_sweep, Fig27Result, TemperaturePoint, FIG27_TEMPERATURES,
};
pub use wires::{fig05_wire_speedup, fig10_link_validation, Fig05Result, Fig10Result};
