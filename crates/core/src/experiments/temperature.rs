//! Fig. 27: performance, power and cooling overhead across operating
//! temperatures.
//!
//! Following Section 7.4's method: the CryoSP (77K, CryoBus) design is
//! swept across temperatures with its clock frequency and voltage levels
//! linearly scaled between the 77 K CryoSP point and the 300 K baseline
//! point, memory latencies interpolated likewise, and each cryogenic watt
//! charged the 30 %-of-Carnot cooling overhead. The 300 K end of the
//! sweep is the Baseline (300K, Mesh) system, as in the paper.

use cryowire_device::{CoolingModel, OperatingPoint, Temperature};
use cryowire_memory::MemoryDesign;
use cryowire_noc::{CryoBus, LinkModel};
use cryowire_pipeline::CoreDesign;
use cryowire_power::CorePowerModel;
use cryowire_system::{PreparedDesign, SystemDesign, SystemNoc, SystemSimulator, Workload};

use crate::report::{fmt2, fmt3, Report};

/// One temperature point of the Fig. 27 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemperaturePoint {
    /// Operating temperature, K.
    pub temperature_k: f64,
    /// Core clock, GHz.
    pub frequency_ghz: f64,
    /// Supply voltage, V.
    pub v_dd: f64,
    /// Device power (normalized to the 300 K baseline core).
    pub device_power: f64,
    /// Cooling overhead CO(T).
    pub cooling_overhead: f64,
    /// Total power including cooling.
    pub total_power: f64,
    /// SPEC geomean performance, normalized to the 300 K baseline system.
    pub performance: f64,
    /// Performance per watt, normalized to the 300 K baseline system.
    pub perf_per_power: f64,
}

/// The Fig. 27 sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig27Result {
    /// Points, coldest first.
    pub points: Vec<TemperaturePoint>,
}

impl Fig27Result {
    /// Report rendering.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "fig27",
            "performance/power across temperatures (SPEC, Section 7.4)",
            &[
                "T (K)", "f (GHz)", "Vdd", "device P", "CO", "total P", "perf", "perf/W",
            ],
        );
        for p in &self.points {
            r.push_row(vec![
                format!("{:.0}", p.temperature_k),
                fmt2(p.frequency_ghz),
                fmt2(p.v_dd),
                fmt3(p.device_power),
                fmt2(p.cooling_overhead),
                fmt3(p.total_power),
                fmt3(p.performance),
                fmt3(p.perf_per_power),
            ]);
        }
        r
    }

    /// The point with the best performance/power.
    ///
    /// # Panics
    ///
    /// Panics if the sweep is empty (cannot happen via the constructor).
    #[must_use]
    pub fn sweet_spot(&self) -> &TemperaturePoint {
        self.points
            .iter()
            .max_by(|a, b| a.perf_per_power.total_cmp(&b.perf_per_power))
            .expect("sweep is non-empty")
    }

    /// Point lookup by temperature.
    #[must_use]
    pub fn at(&self, kelvin: f64) -> Option<&TemperaturePoint> {
        self.points
            .iter()
            .find(|p| (p.temperature_k - kelvin).abs() < 1e-9)
    }
}

/// The temperatures Fig. 27 plots, coldest first.
pub const FIG27_TEMPERATURES: [f64; 8] = [77.0, 100.0, 125.0, 150.0, 175.0, 200.0, 250.0, 300.0];

/// Evaluates one temperature point of the Fig. 27 sweep.
///
/// Pure function of `kelvin`, so it can serve as a harness sweep
/// evaluator (see `experiments::sweeps`); [`fig27_temperature_sweep`]
/// is exactly this mapped over [`FIG27_TEMPERATURES`].
///
/// # Panics
///
/// Panics if `kelvin` is outside the device model's valid range.
#[must_use]
pub fn fig27_point(kelvin: f64) -> TemperaturePoint {
    let sim = SystemSimulator::new();
    let power_model = CorePowerModel::new();
    let cooling = CoolingModel::paper_default();
    let spec: Vec<Workload> = Workload::spec();

    let geomean = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    let perf_of = |design: &SystemDesign| {
        let design = PreparedDesign::new(design).expect("sweep designs have 64-node NoCs");
        let v: Vec<f64> = spec
            .iter()
            .map(|w| sim.evaluate_prepared(w, &design).performance())
            .collect();
        geomean(&v)
    };

    let cryo_spec = CoreDesign::CryoSp.spec();
    let base_spec = CoreDesign::Baseline300K.spec();
    let k = kelvin;
    if k >= 300.0 {
        // The 300 K end is the baseline system itself.
        return TemperaturePoint {
            temperature_k: k,
            frequency_ghz: base_spec.frequency_ghz,
            v_dd: base_spec.v_dd,
            device_power: 1.0,
            cooling_overhead: 0.0,
            total_power: 1.0,
            performance: 1.0,
            perf_per_power: 1.0,
        };
    }

    let t = Temperature::new(k).expect("sweep temperatures are valid");
    // 300 K reference: the Baseline (300K, Mesh) system at device power 1.
    let base_perf = perf_of(&SystemDesign::baseline_300k());
    let lerp = |t: f64, cold: f64, hot: f64| {
        cold + (hot - cold) * ((t - 77.0) / (300.0 - 77.0)).clamp(0.0, 1.0)
    };
    let f = lerp(k, cryo_spec.frequency_ghz, base_spec.frequency_ghz);
    let v_dd = lerp(k, cryo_spec.v_dd, base_spec.v_dd);
    let v_th = lerp(k, cryo_spec.v_th, base_spec.v_th);
    // Temperature-optimal bus clock: scale the 77 K 4 GHz bus
    // clock with the wire speed so the broadcast stays one
    // cycle (the paper's "linearly scaled with temperature"
    // assumption applied to the NoC domain).
    let link = LinkModel::new();
    let bus_clock = 4.0 * link.speedup(t) / link.speedup(Temperature::liquid_nitrogen());
    let design = SystemDesign::cryosp_cryobus()
        .with_core_frequency(f)
        .with_memory(MemoryDesign::interpolated(t))
        .with_noc(SystemNoc::CryoBus {
            bus: CryoBus::try_new_at_clock(64, t, 1, bus_clock).expect("valid sweep CryoBus"),
        });
    let perf = perf_of(&design) / base_perf;
    let p = power_model.power_at(CoreDesign::CryoSp, t, OperatingPoint { v_dd, v_th }, f);
    let total = p.total();
    TemperaturePoint {
        temperature_k: k,
        frequency_ghz: f,
        v_dd,
        device_power: p.device(),
        cooling_overhead: cooling.overhead(t),
        total_power: total,
        performance: perf,
        perf_per_power: perf / total,
    }
}

/// Runs the Fig. 27 temperature sweep.
#[must_use]
pub fn fig27_temperature_sweep() -> Fig27Result {
    Fig27Result {
        points: FIG27_TEMPERATURES.iter().map(|&k| fig27_point(k)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hundred_kelvin_beats_77_on_perf_per_power() {
        // Section 7.4's headline observation.
        let r = fig27_temperature_sweep();
        let p77 = r.at(77.0).unwrap().perf_per_power;
        let p100 = r.at(100.0).unwrap().perf_per_power;
        assert!(p100 > p77, "perf/W at 100 K = {p100}, at 77 K = {p77}");
    }

    #[test]
    fn performance_rises_as_temperature_falls() {
        let r = fig27_temperature_sweep();
        let mut last = 0.0;
        for p in r.points.iter().rev() {
            assert!(
                p.performance >= last - 1e-9,
                "performance should rise toward 77 K"
            );
            last = p.performance;
        }
        // Paper: ~2.11x at 77 K on SPEC.
        let p77 = r.at(77.0).unwrap().performance;
        assert!(p77 > 1.6 && p77 < 2.9, "77 K SPEC performance = {p77}");
    }

    #[test]
    fn cooling_overhead_grows_hyperbolically() {
        let r = fig27_temperature_sweep();
        assert!((r.at(77.0).unwrap().cooling_overhead - 9.65).abs() < 0.01);
        assert_eq!(r.at(300.0).unwrap().cooling_overhead, 0.0);
        let co100 = r.at(100.0).unwrap().cooling_overhead;
        let co200 = r.at(200.0).unwrap().cooling_overhead;
        assert!(co100 > 2.0 * co200);
    }

    #[test]
    fn sweet_spot_is_cryogenic_but_not_coldest() {
        let r = fig27_temperature_sweep();
        let sweet = r.sweet_spot();
        assert!(
            sweet.temperature_k > 77.0,
            "sweet spot at {} K should be above 77 K",
            sweet.temperature_k
        );
    }
}
