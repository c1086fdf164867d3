//! Temperature-dependent copper resistivity.
//!
//! The model follows the structure the paper relies on (Section 2.3): the
//! phonon-limited component of copper resistivity falls steeply with
//! temperature (Matula 1979), while size/grain-boundary scattering in thin
//! damascene wires contributes a temperature-*independent* floor
//! (Plombon 2006). Thick global wires therefore enjoy a much larger 77 K
//! speed-up than thin local wires — the asymmetry that drives the whole
//! CryoWire design space.

use crate::calib;
use crate::temperature::Temperature;
use crate::wire::WireClass;

/// Copper resistivity model: reduced Bloch–Grüneisen phonon term plus a
/// per-wire-class temperature-independent scattering floor.
///
/// ```
/// use cryowire_device::{ResistivityModel, Temperature, WireClass};
/// let model = ResistivityModel::intel_45nm();
/// let rho300 = model.resistivity(WireClass::Global, Temperature::ambient());
/// let rho77 = model.resistivity(WireClass::Global, Temperature::liquid_nitrogen());
/// assert!(rho300 / rho77 > 6.0); // thick wires approach bulk behaviour
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResistivityModel {
    /// Phonon resistivity at 300 K, µΩ·cm.
    rho_phonon_300: f64,
    /// Bulk residual resistivity (impurities), µΩ·cm.
    rho_residual: f64,
    /// Debye temperature, K.
    debye_k: f64,
    /// The Bloch–Grüneisen integral at 300 K: the phonon term's
    /// normalizer, fixed by `debye_k`.
    bg_300: f64,
    /// Per-class size/grain scattering floors, µΩ·cm,
    /// indexed by [`WireClass`] discriminant order (local, semi-global, global).
    rho_size: [f64; 3],
}

impl ResistivityModel {
    /// The model calibrated against the Intel 45 nm measurements the paper
    /// uses (Mistry 2007, Plombon 2006) so that the Fig. 5 wire speed-ups
    /// are reproduced.
    #[must_use]
    pub fn intel_45nm() -> Self {
        ResistivityModel {
            rho_phonon_300: calib::RHO_PHONON_300K,
            rho_residual: calib::RHO_RESIDUAL_BULK,
            debye_k: calib::COPPER_DEBYE_K,
            bg_300: bloch_gruneisen(300.0, calib::COPPER_DEBYE_K),
            rho_size: [
                calib::RHO_SIZE_LOCAL,
                calib::RHO_SIZE_SEMI_GLOBAL,
                calib::RHO_SIZE_GLOBAL,
            ],
        }
    }

    /// Builds a model with custom scattering floors (e.g. to explore the
    /// "draw the target wires thicker" mitigation of Section 7.5).
    #[must_use]
    pub fn with_size_floors(mut self, local: f64, semi_global: f64, global: f64) -> Self {
        self.rho_size = [local, semi_global, global];
        self
    }

    /// Phonon-limited resistivity at temperature `t`, µΩ·cm.
    ///
    /// Uses the Bloch–Grüneisen form with n = 5, normalized so the 300 K
    /// value equals the calibrated `rho_phonon_300`. The 300 K integral
    /// is computed once, when the model is built, so a call evaluates
    /// one integral, at `t`.
    #[must_use]
    pub fn phonon_resistivity(&self, t: Temperature) -> f64 {
        self.rho_phonon_300 * bloch_gruneisen(t.kelvin(), self.debye_k) / self.bg_300
    }

    /// Total effective resistivity of `class` wires at temperature `t`,
    /// in µΩ·cm.
    #[must_use]
    pub fn resistivity(&self, class: WireClass, t: Temperature) -> f64 {
        self.phonon_resistivity(t) + self.rho_residual + self.rho_size[class as usize]
    }

    /// Resistance ratio `rho(300 K) / rho(t)` for `class` wires — the
    /// asymptotic speed-up of a long unrepeated wire.
    #[must_use]
    pub fn speedup(&self, class: WireClass, t: Temperature) -> f64 {
        self.resistivity(class, Temperature::ambient()) / self.resistivity(class, t)
    }
}

impl Default for ResistivityModel {
    fn default() -> Self {
        ResistivityModel::intel_45nm()
    }
}

/// Reduced Bloch–Grüneisen phonon-resistivity integral (n = 5),
/// ρ ∝ (T/Θ)^5 ∫₀^{Θ/T} x⁵ / ((eˣ−1)(1−e⁻ˣ)) dx,
/// evaluated by composite Simpson quadrature.
///
/// The powers are the multiplication chains the runtime `powi` lowering
/// computes (square-and-multiply), written out so that a call on
/// constant arguments folds to the same bits: LLVM folds a constant
/// `powi` through the host's `pow`, which can round differently.
fn bloch_gruneisen(t_kelvin: f64, debye_k: f64) -> f64 {
    let z = debye_k / t_kelvin;
    let integral = simpson(bg_integrand, 0.0, z, 400);
    let r = t_kelvin / debye_k;
    let r2 = r * r;
    r * (r2 * r2) * integral
}

fn bg_integrand(x: f64) -> f64 {
    if x < 1e-9 {
        // x^5 / ((e^x - 1)(1 - e^-x)) → x^3 as x → 0
        return x * (x * x);
    }
    let ex = x.exp();
    let x2 = x * x;
    x * (x2 * x2) / ((ex - 1.0) * (1.0 - 1.0 / ex))
}

fn simpson(f: impl Fn(f64) -> f64, a: f64, b: f64, n: usize) -> f64 {
    // n must be even; round up if needed.
    let n = if n.is_multiple_of(2) { n } else { n + 1 };
    let h = (b - a) / n as f64;
    let mut sum = f(a) + f(b);
    for i in 1..n {
        let x = a + i as f64 * h;
        sum += if i % 2 == 1 { 4.0 * f(x) } else { 2.0 * f(x) };
    }
    sum * h / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(k: f64) -> Temperature {
        Temperature::new(k).unwrap()
    }

    #[test]
    fn bulk_copper_300k_value() {
        let m = ResistivityModel::intel_45nm();
        // Bulk (phonon + residual) should be near the canonical 1.7 µΩ·cm.
        let bulk = m.phonon_resistivity(Temperature::ambient()) + calib::RHO_RESIDUAL_BULK;
        assert!((bulk - 1.55).abs() < 0.1, "bulk rho300 = {bulk}");
    }

    #[test]
    fn bulk_copper_77k_value() {
        let m = ResistivityModel::intel_45nm();
        // Matula: bulk copper ~0.2 µΩ·cm at 77 K.
        let p77 = m.phonon_resistivity(Temperature::liquid_nitrogen());
        assert!(p77 > 0.12 && p77 < 0.28, "phonon rho77 = {p77}");
    }

    #[test]
    fn resistivity_monotone_in_temperature() {
        let m = ResistivityModel::intel_45nm();
        for class in [WireClass::Local, WireClass::SemiGlobal, WireClass::Global] {
            let mut last = 0.0;
            for k in [77.0, 100.0, 135.0, 200.0, 300.0, 400.0] {
                let rho = m.resistivity(class, t(k));
                assert!(rho > last, "rho must increase with T");
                last = rho;
            }
        }
    }

    #[test]
    fn class_speedups_ordered_by_thickness() {
        // Thicker wires (less size scattering) speed up more when cooled.
        let m = ResistivityModel::intel_45nm();
        let t77 = Temperature::liquid_nitrogen();
        let local = m.speedup(WireClass::Local, t77);
        let semi = m.speedup(WireClass::SemiGlobal, t77);
        let global = m.speedup(WireClass::Global, t77);
        assert!(local < semi && semi < global, "{local} {semi} {global}");
    }

    #[test]
    fn paper_anchor_local_speedup() {
        // Fig. 5a: long local wires speed up by ~2.95x at 77 K.
        let m = ResistivityModel::intel_45nm();
        let s = m.speedup(WireClass::Local, Temperature::liquid_nitrogen());
        assert!((s - 3.0).abs() < 0.25, "local asymptotic speedup = {s}");
    }

    #[test]
    fn paper_anchor_semi_global_speedup() {
        // Fig. 5a: long semi-global wires speed up by ~3.69x at 77 K.
        let m = ResistivityModel::intel_45nm();
        let s = m.speedup(WireClass::SemiGlobal, Temperature::liquid_nitrogen());
        assert!(
            (s - 3.75).abs() < 0.3,
            "semi-global asymptotic speedup = {s}"
        );
    }

    #[test]
    fn global_wires_approach_bulk_ratio() {
        let m = ResistivityModel::intel_45nm();
        let s = m.speedup(WireClass::Global, Temperature::liquid_nitrogen());
        assert!(s > 6.0 && s < 9.5, "global asymptotic speedup = {s}");
    }

    #[test]
    fn thicker_floors_raise_speedup() {
        // Section 7.5: drawing target wires thicker preserves the cryo benefit.
        let thin = ResistivityModel::intel_45nm();
        let thick = ResistivityModel::intel_45nm().with_size_floors(0.2, 0.1, 0.001);
        let t77 = Temperature::liquid_nitrogen();
        assert!(thick.speedup(WireClass::Local, t77) > thin.speedup(WireClass::Local, t77));
    }
}
