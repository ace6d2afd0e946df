//! Ready-made circuits calibrated to Section 5 of the paper.
//!
//! All values are chosen so the *observables* the paper reports are
//! reproduced (initial frequency ≈ 0.75 MHz at a 1.5 V control, ≈3×
//! frequency swing for the vacuum varactor, ≈0.75–1.25 MHz with visible
//! settling for the air-filled one); exact component values were not
//! published, so the constants and presets below each state the
//! relation their values were calibrated by.

use crate::circuit::{Circuit, CircuitDae, Node};
use crate::device::{Device, MemsParams};
use crate::waveform::Waveform;

/// Tank inductance (henries) shared by every VCO preset.
pub const TANK_L: f64 = 1.0e-5;
/// Fixed tank capacitance giving `f ≈ 0.75 MHz`: `C = 1/(L(2πf)²)`.
pub const TANK_C_750K: f64 = 4.503e-9;
/// Negative-conductance magnitude of the cubic element (siemens).
pub const TANK_G1: f64 = 5.0e-3;
/// Cubic limiting coefficient chosen for a ≈2 V oscillation amplitude
/// (`amp ≈ sqrt(4·g1/(3·g3))`).
pub const TANK_G3: f64 = TANK_G1 / 3.0;

/// Unknown indices of [`lc_vco`]-style circuits.
pub mod idx {
    /// Tank node voltage.
    pub const V_TANK: usize = 0;
    /// Inductor branch current.
    pub const I_L: usize = 1;
    /// MEMS plate displacement (MEMS VCOs only).
    pub const MEMS_Y: usize = 2;
    /// MEMS plate velocity (MEMS VCOs only).
    pub const MEMS_U: usize = 3;
}

/// The paper's basic oscillator: an LC tank in parallel with a nonlinear
/// resistor "whose resistance was negative in a region about zero and
/// positive elsewhere", yielding a stable limit cycle near 0.75 MHz.
///
/// Unknowns: `[v(tank), i(L)]`.
pub fn lc_vco() -> CircuitDae {
    let mut ckt = Circuit::new();
    let tank = ckt.node("tank");
    ckt.add(Device::capacitor(tank, Circuit::GND, TANK_C_750K));
    ckt.add(Device::inductor(tank, Circuit::GND, TANK_L));
    ckt.add(Device::cubic_conductor(
        tank,
        Circuit::GND,
        TANK_G1,
        TANK_G3,
    ));
    ckt.build().expect("lc_vco preset is well-formed")
}

/// Mechanical/electrostatic parameters shared by the MEMS presets.
///
/// * plate natural frequency 250 kHz (`ω_n = 2π·250e3`), mass `1e-12`;
/// * `force_gain/spring_k` calibrated so a 1.5 V DC control leaves the
///   tank at `C ≈ 4.5 nF` (0.75 MHz) and the vacuum control sweep reaches
///   ≈3× that frequency.
fn mems_base(control: Waveform, damping: f64) -> MemsParams {
    let omega_n = 2.0 * std::f64::consts::PI * 250.0e3;
    let mass = 1.0e-12;
    let spring_k = omega_n * omega_n * mass;
    // Static displacement y* at 1.5 V must satisfy C0/(1+y*) = 4.503 nF.
    let c0 = 5.0e-9;
    let y_star = c0 / TANK_C_750K - 1.0;
    let force_gain = spring_k * y_star / (1.5 * 1.5);
    MemsParams {
        c0,
        y0: 1.0,
        mass,
        damping,
        spring_k,
        force_gain,
        control,
        tank_coupling: 0.0,
    }
}

/// Parameters of the vacuum-damped MEMS VCO experiment (paper Figures 7–9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemsVcoConfig {
    /// Control-voltage waveform.
    pub control: Waveform,
    /// Plate damping coefficient.
    pub damping: f64,
}

impl MemsVcoConfig {
    /// Figures 7–9: near-vacuum damping (underdamped plate, ζ ≈ 0.25) and
    /// a sinusoidal control whose period is 30× the nominal oscillation
    /// period (40 µs), starting at 1.5 V and sweeping ≈1.25–12.75 V so the
    /// local frequency spans almost 3×.
    pub fn paper_vacuum() -> Self {
        let omega_n = 2.0 * std::f64::consts::PI * 250.0e3;
        let mass = 1.0e-12;
        let zeta = 0.25;
        let offset = 7.0_f64;
        let amplitude = 5.75_f64;
        let phase_rad = ((1.5 - offset) / amplitude).asin();
        MemsVcoConfig {
            control: Waveform::Sine {
                offset,
                amplitude,
                freq_hz: 25.0e3, // period 40 µs = 30 × 1.333 µs
                phase_rad,
            },
            damping: 2.0 * zeta * omega_n * mass,
        }
    }

    /// Figures 10–12: air-filled cavity. The plate is heavily overdamped
    /// (slow pole `k/d` with time constant ≈0.15 ms) and the control is
    /// ≈1000× slower than the oscillator (1 ms period), sweeping
    /// 1.5–6.5 V so the frequency spans ≈0.75–1.25 MHz with visible
    /// settling.
    pub fn paper_air() -> Self {
        let omega_n = 2.0 * std::f64::consts::PI * 250.0e3;
        let mass = 1.0e-12;
        let spring_k = omega_n * omega_n * mass;
        let tau = 1.5e-4; // slow-pole time constant (s)
        MemsVcoConfig {
            control: Waveform::Sine {
                offset: 4.0,
                amplitude: 2.5,
                freq_hz: 1.0e3, // period 1 ms
                phase_rad: -std::f64::consts::FRAC_PI_2,
            },
            damping: spring_k * tau,
        }
    }

    /// A constant-control variant (useful to check that the WaMPDE
    /// local frequency stays put when nothing modulates the VCO).
    pub fn constant(voltage: f64) -> Self {
        let vac = Self::paper_vacuum();
        MemsVcoConfig {
            control: Waveform::Dc(voltage),
            damping: vac.damping,
        }
    }
}

/// The paper's VCO: LC tank + cubic negative resistor + MEMS varactor
/// whose plate separation is driven by a separate control voltage.
///
/// Unknowns: `[v(tank), i(L), y(plate), u(plate)]` (see [`idx`]).
pub fn mems_vco(cfg: MemsVcoConfig) -> CircuitDae {
    let mut ckt = Circuit::new();
    let tank = ckt.node("tank");
    ckt.add(Device::inductor(tank, Circuit::GND, TANK_L));
    ckt.add(Device::cubic_conductor(
        tank,
        Circuit::GND,
        TANK_G1,
        TANK_G3,
    ));
    ckt.add(Device::mems_varactor(
        tank,
        Circuit::GND,
        mems_base(cfg.control, cfg.damping),
    ));
    ckt.build().expect("mems_vco preset is well-formed")
}

/// The MEMS parameters used by [`mems_vco`], for post-processing
/// (e.g. converting a plate displacement back to a capacitance).
pub fn mems_vco_params(cfg: MemsVcoConfig) -> MemsParams {
    mems_base(cfg.control, cfg.damping)
}

/// Expected small-signal oscillation frequency (Hz) of the LC tank for a
/// given plate displacement `y`.
pub fn tank_frequency(params: &MemsParams, y: f64) -> f64 {
    let c = params.capacitance(y);
    1.0 / (2.0 * std::f64::consts::PI * (TANK_L * c).sqrt())
}

/// [`lc_vco`] loaded by a ladder of `stages` lightly coupled RC sections.
///
/// Adds one unknown per stage without changing the oscillation
/// qualitatively (R·C ≪ oscillation period) — the size-scaling workload of
/// `repro --table linsolve`.
pub fn ring_loaded_vco(stages: usize) -> CircuitDae {
    let mut ckt = Circuit::new();
    let tank = ckt.node("tank");
    ckt.add(Device::capacitor(tank, Circuit::GND, TANK_C_750K));
    ckt.add(Device::inductor(tank, Circuit::GND, TANK_L));
    ckt.add(Device::cubic_conductor(
        tank,
        Circuit::GND,
        TANK_G1,
        TANK_G3,
    ));
    let mut prev: Node = tank;
    for s in 0..stages {
        let n = ckt.node(format!("ld{s}"));
        ckt.add(Device::resistor(prev, n, 1.0e4));
        ckt.add(Device::capacitor(n, Circuit::GND, 1.0e-12));
        prev = n;
    }
    ckt.build().expect("ring_loaded_vco preset is well-formed")
}

/// Nominal (unforced, 1.5 V control) oscillation period of the VCO presets.
pub fn nominal_period() -> f64 {
    2.0 * std::f64::consts::PI * (TANK_L * TANK_C_750K).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dae::{check_jacobians, Dae};

    #[test]
    fn lc_vco_dimensions() {
        let dae = lc_vco();
        assert_eq!(dae.dim(), 2);
        assert!(check_jacobians(&dae, &[1.0, -0.5]) < 1e-6);
    }

    #[test]
    fn nominal_period_is_750khz() {
        let f = 1.0 / nominal_period();
        assert!((f - 0.75e6).abs() / 0.75e6 < 0.01, "f = {f}");
    }

    #[test]
    fn mems_vacuum_static_calibration() {
        let p = mems_vco_params(MemsVcoConfig::constant(1.5));
        let y = p.static_displacement(1.5);
        let f = tank_frequency(&p, y);
        assert!((f - 0.75e6).abs() / 0.75e6 < 0.01, "f = {f}");
    }

    #[test]
    fn mems_vacuum_frequency_span_is_about_3x() {
        let cfg = MemsVcoConfig::paper_vacuum();
        let p = mems_vco_params(cfg);
        let (mut fmin, mut fmax) = (f64::INFINITY, 0.0_f64);
        for i in 0..400 {
            let t = i as f64 * 1e-7;
            let v = cfg.control.eval(t);
            let f = tank_frequency(&p, p.static_displacement(v));
            fmin = fmin.min(f);
            fmax = fmax.max(f);
        }
        let ratio = fmax / fmin;
        assert!(
            (2.5..3.5).contains(&ratio),
            "quasi-static frequency span {ratio}"
        );
    }

    #[test]
    fn mems_air_frequency_span() {
        let cfg = MemsVcoConfig::paper_air();
        let p = mems_vco_params(cfg);
        let fmax = tank_frequency(&p, p.static_displacement(6.5));
        let fmin = tank_frequency(&p, p.static_displacement(1.5));
        assert!((fmin - 0.75e6).abs() / 0.75e6 < 0.02, "fmin = {fmin}");
        assert!((fmax - 1.25e6).abs() / 1.25e6 < 0.05, "fmax = {fmax}");
    }

    #[test]
    fn vacuum_control_starts_at_1v5() {
        let cfg = MemsVcoConfig::paper_vacuum();
        assert!((cfg.control.eval(0.0) - 1.5).abs() < 1e-9);
        let air = MemsVcoConfig::paper_air();
        assert!((air.control.eval(0.0) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn mems_vco_jacobians() {
        let dae = mems_vco(MemsVcoConfig::paper_vacuum());
        assert_eq!(dae.dim(), 4);
        assert!(check_jacobians(&dae, &[1.0, -0.3, 0.4, 0.05]) < 1e-6);
    }

    #[test]
    fn ring_loaded_scales_dimension() {
        for stages in [0usize, 3, 10] {
            let dae = ring_loaded_vco(stages);
            assert_eq!(dae.dim(), 2 + stages);
        }
        let dae = ring_loaded_vco(5);
        let x: Vec<f64> = (0..7).map(|i| 0.1 * i as f64).collect();
        assert!(check_jacobians(&dae, &x) < 1e-6);
    }

    #[test]
    fn air_damping_heavier_than_vacuum() {
        let v = MemsVcoConfig::paper_vacuum();
        let a = MemsVcoConfig::paper_air();
        assert!(a.damping > 100.0 * v.damping);
    }
}
