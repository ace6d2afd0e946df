//! Circuit devices and their MNA loads.
//!
//! Each side of a device is written once, in SPICE's load idiom: the
//! crate-private `Device::load_q` computes the device's `q(x)` values
//! together with their Jacobian `C(x) = ∂q/∂x`, and `Device::load_f` its
//! `f(x)` values with `G(x) = ∂f/∂x`. Both write through a `Sink`:
//! `Values` keeps the values, a [`DMat`] adds the Jacobian entries and
//! [`Triplets`] pushes them; each drops the other output. The loads are
//! generic over the sink, so every instance inlines its sink and the
//! optimiser deletes the arithmetic only the dropped output needs.
//!
//! A load writes each output in the same order whatever the sink, so
//! the dense and triplet Jacobians agree bit for bit. It pushes every
//! structural entry, zeros included, and which entries it pushes depends
//! on the device's parameters, never on `x`: one load at `x = 0` gives
//! [`crate::Dae::sparsity`], and klu replays one assembly plan while the
//! coordinates repeat.

use crate::circuit::Node;
use crate::waveform::Waveform;
use numkit::DMat;
use sparsekit::Triplets;

/// Parameters of the electrostatically actuated MEMS varactor
/// (the paper's "novel MEMS varactor with a separate control voltage").
///
/// Mechanical model: a plate of mass `mass` on a spring `spring_k` with
/// viscous damping `damping`, driven by an electrostatic force
/// `force_gain·V_ctl(t)²` from a separate control electrode. The plate
/// displacement `y` (normalised by the reference travel `y0`) sets the
/// tank capacitance through the smooth inverse law
///
/// ```text
/// C(y) = c0 / (1 + y/y0),
/// ```
///
/// which is positive for all `y > −y0` — no clipping logic is needed, and
/// `∂C/∂y` stays smooth for Newton. The *vacuum* configuration uses small
/// `damping` (underdamped plate, fast tracking); the *air-filled*
/// configuration is heavily overdamped, giving the slow settling the
/// paper's Figure 10 highlights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemsParams {
    /// Rest capacitance at `y = 0` (farads).
    pub c0: f64,
    /// Reference travel normalisation (same unit as `y`).
    pub y0: f64,
    /// Plate mass (kg).
    pub mass: f64,
    /// Viscous damping coefficient (N·s/m).
    pub damping: f64,
    /// Spring constant (N/m).
    pub spring_k: f64,
    /// Electrostatic force gain (N/V²) from the control voltage.
    pub force_gain: f64,
    /// Control-voltage waveform applied to the actuation electrode.
    pub control: Waveform,
    /// Optional coupling of the *tank* voltage onto the plate
    /// (`F_tank = ½·tank_coupling·v²·∂C/∂y`); `0.0` disables it, matching
    /// the paper's separate-electrode description.
    pub tank_coupling: f64,
}

impl MemsParams {
    /// Capacitance at plate displacement `y`.
    #[inline]
    pub fn capacitance(&self, y: f64) -> f64 {
        self.c0 / (1.0 + y / self.y0)
    }

    /// `∂C/∂y`.
    #[inline]
    pub fn dc_dy(&self, y: f64) -> f64 {
        let s = 1.0 + y / self.y0;
        -self.c0 / (self.y0 * s * s)
    }

    /// `∂²C/∂y²`.
    #[inline]
    pub fn d2c_dy2(&self, y: f64) -> f64 {
        let s = 1.0 + y / self.y0;
        2.0 * self.c0 / (self.y0 * self.y0 * s * s * s)
    }

    /// Static (quasi-stationary) displacement for a control voltage `v`.
    #[inline]
    pub fn static_displacement(&self, v: f64) -> f64 {
        self.force_gain * v * v / self.spring_k
    }
}

/// A circuit element with MNA stamps.
///
/// Constructors are provided instead of public struct-literal syntax so
/// parameter validation stays in one place.
#[derive(Debug, Clone, PartialEq)]
pub enum Device {
    /// Linear resistor `i = (v1 − v2)/r`.
    Resistor {
        /// Positive terminal.
        n1: Node,
        /// Negative terminal.
        n2: Node,
        /// Resistance in ohms (nonzero).
        r: f64,
    },
    /// Linear capacitor `q = c·(v1 − v2)`.
    Capacitor {
        /// Positive terminal.
        n1: Node,
        /// Negative terminal.
        n2: Node,
        /// Capacitance in farads.
        c: f64,
    },
    /// Linear inductor; adds one branch-current unknown.
    Inductor {
        /// Positive terminal.
        n1: Node,
        /// Negative terminal.
        n2: Node,
        /// Inductance in henries.
        l: f64,
    },
    /// Cubic nonlinear conductor `i(v) = −g1·v + g3·v³` — negative
    /// (energy-supplying) around `v = 0`, positive beyond: the classic
    /// negative-resistance element that gives the paper's LC tank its
    /// stable limit cycle.
    CubicConductor {
        /// Positive terminal.
        n1: Node,
        /// Negative terminal.
        n2: Node,
        /// Small-signal negative conductance magnitude (S).
        g1: f64,
        /// Cubic limiting coefficient (S/V²).
        g3: f64,
    },
    /// Saturating nonlinear conductor `i(v) = −isat·tanh(v/vt) + v·gmin`:
    /// an alternative negative-resistance element with bounded drive.
    TanhConductor {
        /// Positive terminal.
        n1: Node,
        /// Negative terminal.
        n2: Node,
        /// Saturation current (A).
        isat: f64,
        /// Transition voltage (V).
        vt: f64,
        /// Parallel loss conductance (S).
        gmin: f64,
    },
    /// Independent current source pushing `w(t)` from `n_from` into `n_to`.
    CurrentSource {
        /// Terminal the current is drawn from.
        n_from: Node,
        /// Terminal the current is injected into.
        n_to: Node,
        /// Source waveform.
        wave: Waveform,
    },
    /// Independent voltage source `v(n1) − v(n2) = w(t)`; adds one
    /// branch-current unknown.
    VoltageSource {
        /// Positive terminal.
        n1: Node,
        /// Negative terminal.
        n2: Node,
        /// Source waveform.
        wave: Waveform,
    },
    /// Electrostatically actuated MEMS varactor between `n1` and `n2`;
    /// adds two unknowns (plate displacement `y`, velocity `u`).
    MemsVaractor {
        /// Positive terminal.
        n1: Node,
        /// Negative terminal.
        n2: Node,
        /// Electromechanical parameters.
        params: MemsParams,
    },
    /// Junction diode `i = Is·(e^{v/vt} − 1)` (anode `n1` → cathode `n2`),
    /// linearly extended beyond `v > 40·vt` for Newton robustness (the
    /// standard SPICE junction limiting).
    Diode {
        /// Anode.
        n1: Node,
        /// Cathode.
        n2: Node,
        /// Saturation current (A).
        isat: f64,
        /// Thermal voltage (V), typically 25.85 mV.
        vt: f64,
    },
    /// Voltage-controlled current source: pushes
    /// `gm·(v(cp) − v(cn))` from `n_from` into `n_to`.
    Vccs {
        /// Terminal current is drawn from.
        n_from: Node,
        /// Terminal current is injected into.
        n_to: Node,
        /// Positive control terminal.
        cp: Node,
        /// Negative control terminal.
        cn: Node,
        /// Transconductance (S).
        gm: f64,
    },
}

/// Junction current and conductance with linear extension above `40·vt`.
fn diode_iv(v: f64, isat: f64, vt: f64) -> (f64, f64) {
    let vcrit = 40.0 * vt;
    if v <= vcrit {
        let e = (v / vt).exp();
        (isat * (e - 1.0), isat * e / vt)
    } else {
        let e = (vcrit / vt).exp();
        let g = isat * e / vt;
        (isat * (e - 1.0) + g * (v - vcrit), g)
    }
}

impl Device {
    /// Linear resistor between `n1` and `n2`.
    ///
    /// # Panics
    ///
    /// Panics when `r == 0`.
    pub fn resistor(n1: Node, n2: Node, r: f64) -> Self {
        assert!(r != 0.0, "resistance must be nonzero");
        Device::Resistor { n1, n2, r }
    }

    /// Linear capacitor between `n1` and `n2`.
    pub fn capacitor(n1: Node, n2: Node, c: f64) -> Self {
        Device::Capacitor { n1, n2, c }
    }

    /// Linear inductor between `n1` and `n2`.
    pub fn inductor(n1: Node, n2: Node, l: f64) -> Self {
        Device::Inductor { n1, n2, l }
    }

    /// Cubic negative-resistance conductor (see [`Device::CubicConductor`]).
    pub fn cubic_conductor(n1: Node, n2: Node, g1: f64, g3: f64) -> Self {
        Device::CubicConductor { n1, n2, g1, g3 }
    }

    /// Saturating negative-resistance conductor.
    pub fn tanh_conductor(n1: Node, n2: Node, isat: f64, vt: f64, gmin: f64) -> Self {
        Device::TanhConductor {
            n1,
            n2,
            isat,
            vt,
            gmin,
        }
    }

    /// Current source pushing `wave` from `n_from` into `n_to`.
    pub fn current_source(n_from: Node, n_to: Node, wave: Waveform) -> Self {
        Device::CurrentSource { n_from, n_to, wave }
    }

    /// Voltage source imposing `v(n1) − v(n2) = wave(t)`.
    pub fn voltage_source(n1: Node, n2: Node, wave: Waveform) -> Self {
        Device::VoltageSource { n1, n2, wave }
    }

    /// MEMS varactor between `n1` and `n2`.
    pub fn mems_varactor(n1: Node, n2: Node, params: MemsParams) -> Self {
        Device::MemsVaractor { n1, n2, params }
    }

    /// Junction diode (anode `n1`, cathode `n2`).
    ///
    /// # Panics
    ///
    /// Panics when `vt <= 0` or `isat <= 0`.
    pub fn diode(n1: Node, n2: Node, isat: f64, vt: f64) -> Self {
        assert!(isat > 0.0, "saturation current must be positive");
        assert!(vt > 0.0, "thermal voltage must be positive");
        Device::Diode { n1, n2, isat, vt }
    }

    /// Voltage-controlled current source `i = gm·(v(cp) − v(cn))`
    /// from `n_from` into `n_to`.
    pub fn vccs(n_from: Node, n_to: Node, cp: Node, cn: Node, gm: f64) -> Self {
        Device::Vccs {
            n_from,
            n_to,
            cp,
            cn,
            gm,
        }
    }

    /// Sets one scalar parameter by field name, for sweep overrides.
    ///
    /// `field = None` selects the device's primary value (`r`, `c`, `l`,
    /// `g1`, `isat`, `gm`, or the DC level of a DC source). Named fields:
    ///
    /// | device | fields |
    /// |---|---|
    /// | `GN` cubic | `g1`, `g3` |
    /// | `GT` tanh | `isat`, `vt`, `gmin` |
    /// | diode | `isat`, `vt` |
    /// | VCCS | `gm` |
    /// | sources | waveform fields (see [`Waveform::set_param`]) |
    /// | MEMS | `control` (DC control voltage), `c0`, `y0`, `mass`, `damping`, `k`, `force_gain` |
    ///
    /// # Errors
    ///
    /// Returns a message when the field does not exist on this device or
    /// the value is out of its legal domain (zero resistance, nonpositive
    /// diode parameters).
    pub fn set_param(&mut self, field: Option<&str>, value: f64) -> Result<(), String> {
        let unknown = |field: &str, allowed: &str| {
            Err(format!("unknown field '{field}' (expected {allowed})"))
        };
        match self {
            Device::Resistor { r, .. } => match field {
                None | Some("r") => {
                    if value == 0.0 {
                        return Err("resistance must be nonzero".into());
                    }
                    *r = value;
                    Ok(())
                }
                Some(f) => unknown(f, "r"),
            },
            Device::Capacitor { c, .. } => match field {
                None | Some("c") => {
                    *c = value;
                    Ok(())
                }
                Some(f) => unknown(f, "c"),
            },
            Device::Inductor { l, .. } => match field {
                None | Some("l") => {
                    *l = value;
                    Ok(())
                }
                Some(f) => unknown(f, "l"),
            },
            Device::CubicConductor { g1, g3, .. } => match field {
                None | Some("g1") => {
                    *g1 = value;
                    Ok(())
                }
                Some("g3") => {
                    *g3 = value;
                    Ok(())
                }
                Some(f) => unknown(f, "g1, g3"),
            },
            Device::TanhConductor { isat, vt, gmin, .. } => match field {
                None | Some("isat") => {
                    *isat = value;
                    Ok(())
                }
                Some("vt") => {
                    *vt = value;
                    Ok(())
                }
                Some("gmin") => {
                    *gmin = value;
                    Ok(())
                }
                Some(f) => unknown(f, "isat, vt, gmin"),
            },
            Device::Diode { isat, vt, .. } => match field {
                None | Some("isat") => {
                    if value <= 0.0 {
                        return Err("saturation current must be positive".into());
                    }
                    *isat = value;
                    Ok(())
                }
                Some("vt") => {
                    if value <= 0.0 {
                        return Err("thermal voltage must be positive".into());
                    }
                    *vt = value;
                    Ok(())
                }
                Some(f) => unknown(f, "isat, vt"),
            },
            Device::Vccs { gm, .. } => match field {
                None | Some("gm") => {
                    *gm = value;
                    Ok(())
                }
                Some(f) => unknown(f, "gm"),
            },
            Device::CurrentSource { wave, .. } | Device::VoltageSource { wave, .. } => {
                match field {
                    Some(f) => wave.set_param(f, value),
                    None => wave.set_param("dc", value).map_err(|_| {
                        "source default parameter requires a DC waveform; \
                         name a waveform field (e.g. NAME.ampl)"
                            .to_string()
                    }),
                }
            }
            Device::MemsVaractor { params, .. } => match field {
                Some("control") => params.control.set_param("dc", value).map_err(|_| {
                    "field 'control' requires a DC control waveform; \
                     use control-waveform fields via a DC source instead"
                        .to_string()
                }),
                Some("c0") => {
                    params.c0 = value;
                    Ok(())
                }
                Some("y0") => {
                    params.y0 = value;
                    Ok(())
                }
                Some("mass") => {
                    params.mass = value;
                    Ok(())
                }
                Some("damping") => {
                    params.damping = value;
                    Ok(())
                }
                Some("k") => {
                    params.spring_k = value;
                    Ok(())
                }
                Some("force_gain") => {
                    params.force_gain = value;
                    Ok(())
                }
                Some(f) => unknown(f, "control, c0, y0, mass, damping, k, force_gain"),
                None => Err("MEMS varactor has no default parameter; name a field \
                     (control, c0, y0, mass, damping, k, force_gain)"
                    .into()),
            },
        }
    }

    /// The device with every time-dependent waveform replaced by its DC
    /// value at time `t` — the unforced companion used to initialise
    /// oscillator analyses.
    pub fn frozen_at(&self, t: f64) -> Device {
        let mut d = self.clone();
        match &mut d {
            Device::CurrentSource { wave, .. } | Device::VoltageSource { wave, .. } => {
                *wave = wave.frozen_at(t);
            }
            Device::MemsVaractor { params, .. } => {
                params.control = params.control.frozen_at(t);
            }
            _ => {}
        }
        d
    }

    /// Number of extra (non-node) unknowns this device introduces.
    pub fn n_extras(&self) -> usize {
        match self {
            Device::Inductor { .. } | Device::VoltageSource { .. } => 1,
            Device::MemsVaractor { .. } => 2,
            _ => 0,
        }
    }

    /// Nodes this device touches (for connectivity validation).
    pub fn nodes(&self) -> Vec<Node> {
        match *self {
            Device::Resistor { n1, n2, .. }
            | Device::Capacitor { n1, n2, .. }
            | Device::Inductor { n1, n2, .. }
            | Device::CubicConductor { n1, n2, .. }
            | Device::TanhConductor { n1, n2, .. }
            | Device::VoltageSource { n1, n2, .. }
            | Device::Diode { n1, n2, .. }
            | Device::MemsVaractor { n1, n2, .. } => vec![n1, n2],
            Device::CurrentSource { n_from, n_to, .. } => vec![n_from, n_to],
            Device::Vccs {
                n_from,
                n_to,
                cp,
                cn,
                ..
            } => vec![n_from, n_to, cp, cn],
        }
    }
}

/// Voltage of node `n` in `x` (ground reads 0).
#[inline]
fn volt(x: &[f64], n: Node) -> f64 {
    match n.unknown_index() {
        Some(i) => x[i],
        None => 0.0,
    }
}

/// Voltage across `n1 → n2`.
#[inline]
fn across(x: &[f64], n1: Node, n2: Node) -> f64 {
    volt(x, n1) - volt(x, n2)
}

/// A MEMS varactor's plate displacement and velocity `(y, u)` at its
/// extra unknowns, read through one bounds check whichever is used.
#[inline]
fn plate(x: &[f64], extra: usize) -> (f64, f64) {
    let yu = &x[extra..extra + 2];
    (yu[0], yu[1])
}

/// Where a device load writes one side of the DAE: its values, or its
/// Jacobian entries. Each impl keeps one output and drops the other.
pub(crate) trait Sink {
    /// Adds `v` to value `i`.
    fn value(&mut self, i: usize, v: f64);

    /// Adds `v` to Jacobian entry `(i, j)`.
    fn entry(&mut self, i: usize, j: usize, v: f64);

    /// Adds `v` to the value of node `n` (ground rows skipped).
    #[inline]
    fn val(&mut self, n: Node, v: f64) {
        if let Some(i) = n.unknown_index() {
            self.value(i, v);
        }
    }

    /// Adds `v` to the Jacobian entry at node row `row`, node column `col`.
    #[inline]
    fn jac(&mut self, row: Node, col: Node, v: f64) {
        if let (Some(i), Some(j)) = (row.unknown_index(), col.unknown_index()) {
            self.entry(i, j, v);
        }
    }

    /// Adds `v` at node row `row`, unknown column `col`.
    #[inline]
    fn jac_ri(&mut self, row: Node, col: usize, v: f64) {
        if let Some(i) = row.unknown_index() {
            self.entry(i, col, v);
        }
    }

    /// Adds `v` at unknown row `row`, node column `col`.
    #[inline]
    fn jac_ir(&mut self, row: usize, col: Node, v: f64) {
        if let Some(j) = col.unknown_index() {
            self.entry(row, j, v);
        }
    }

    /// Adds the four-entry conductance-style block `±g` between two nodes.
    #[inline]
    fn pair(&mut self, n1: Node, n2: Node, g: f64) {
        self.jac(n1, n1, g);
        self.jac(n1, n2, -g);
        self.jac(n2, n1, -g);
        self.jac(n2, n2, g);
    }
}

/// Keeps the values, drops the Jacobian.
pub(crate) struct Values<'a>(pub &'a mut [f64]);

impl Sink for Values<'_> {
    #[inline]
    fn value(&mut self, i: usize, v: f64) {
        self.0[i] += v;
    }

    #[inline]
    fn entry(&mut self, _: usize, _: usize, _: f64) {}
}

/// Adds the Jacobian entries into a dense matrix, drops the values.
impl Sink for DMat {
    #[inline]
    fn value(&mut self, _: usize, _: f64) {}

    #[inline]
    fn entry(&mut self, i: usize, j: usize, v: f64) {
        self[(i, j)] += v;
    }
}

/// Pushes the Jacobian entries, zeros included, drops the values.
impl Sink for Triplets {
    #[inline]
    fn value(&mut self, _: usize, _: f64) {}

    #[inline]
    fn entry(&mut self, i: usize, j: usize, v: f64) {
        self.push(i, j, v);
    }
}

impl Device {
    /// Loads the device's `q` side into `s`: its contribution to `q(x)`
    /// and to `C(x) = ∂q/∂x`.
    pub(crate) fn load_q<S: Sink>(&self, x: &[f64], extra: usize, s: &mut S) {
        match *self {
            Device::Capacitor { n1, n2, c } => {
                let v12 = across(x, n1, n2);
                s.val(n1, c * v12);
                s.val(n2, -c * v12);
                s.pair(n1, n2, c);
            }
            Device::Inductor { l, .. } => {
                s.value(extra, l * x[extra]);
                s.entry(extra, extra, l);
            }
            Device::MemsVaractor { n1, n2, ref params } => {
                let v12 = across(x, n1, n2);
                let (y, u) = plate(x, extra);
                let c = params.capacitance(y);
                let dcdy = params.dc_dy(y);
                s.val(n1, c * v12);
                s.val(n2, -c * v12);
                s.value(extra, y);
                s.value(extra + 1, params.mass * u);
                s.pair(n1, n2, c);
                s.jac_ri(n1, extra, dcdy * v12);
                s.jac_ri(n2, extra, -dcdy * v12);
                s.entry(extra, extra, 1.0);
                s.entry(extra + 1, extra + 1, params.mass);
            }
            _ => {}
        }
    }

    /// Loads the device's `f` side into `s`: its contribution to `f(x)`
    /// and to `G(x) = ∂f/∂x`.
    pub(crate) fn load_f<S: Sink>(&self, x: &[f64], extra: usize, s: &mut S) {
        match *self {
            Device::Resistor { n1, n2, r } => {
                let i = across(x, n1, n2) / r;
                s.val(n1, i);
                s.val(n2, -i);
                s.pair(n1, n2, 1.0 / r);
            }
            Device::CubicConductor { n1, n2, g1, g3 } => {
                let v = across(x, n1, n2);
                let i = -g1 * v + g3 * v * v * v;
                s.val(n1, i);
                s.val(n2, -i);
                s.pair(n1, n2, -g1 + 3.0 * g3 * v * v);
            }
            Device::TanhConductor {
                n1,
                n2,
                isat,
                vt,
                gmin,
            } => {
                let v = across(x, n1, n2);
                let t = (v / vt).tanh();
                let i = -isat * t + gmin * v;
                s.val(n1, i);
                s.val(n2, -i);
                s.pair(n1, n2, -isat / vt * (1.0 - t * t) + gmin);
            }
            Device::Inductor { n1, n2, .. } => {
                let il = x[extra];
                s.val(n1, il);
                s.val(n2, -il);
                s.value(extra, -across(x, n1, n2));
                s.jac_ri(n1, extra, 1.0);
                s.jac_ri(n2, extra, -1.0);
                s.jac_ir(extra, n1, -1.0);
                s.jac_ir(extra, n2, 1.0);
            }
            Device::VoltageSource { n1, n2, .. } => {
                let i = x[extra];
                s.val(n1, i);
                s.val(n2, -i);
                s.value(extra, across(x, n1, n2));
                s.jac_ri(n1, extra, 1.0);
                s.jac_ri(n2, extra, -1.0);
                s.jac_ir(extra, n1, 1.0);
                s.jac_ir(extra, n2, -1.0);
            }
            Device::MemsVaractor { n1, n2, ref params } => {
                let (y, u) = plate(x, extra);
                s.value(extra, -u);
                s.entry(extra, extra + 1, -1.0);
                s.entry(extra + 1, extra, params.spring_k);
                s.entry(extra + 1, extra + 1, params.damping);
                let mut fu = params.damping * u + params.spring_k * y;
                if params.tank_coupling != 0.0 {
                    let v12 = across(x, n1, n2);
                    let tc = params.tank_coupling;
                    let dcdy = params.dc_dy(y);
                    fu -= 0.5 * tc * v12 * v12 * dcdy;
                    s.jac_ir(extra + 1, n1, -tc * v12 * dcdy);
                    s.jac_ir(extra + 1, n2, tc * v12 * dcdy);
                    s.entry(extra + 1, extra, -0.5 * tc * v12 * v12 * params.d2c_dy2(y));
                }
                s.value(extra + 1, fu);
            }
            Device::Diode { n1, n2, isat, vt } => {
                let (i, g) = diode_iv(across(x, n1, n2), isat, vt);
                s.val(n1, i);
                s.val(n2, -i);
                s.pair(n1, n2, g);
            }
            Device::Vccs {
                n_from,
                n_to,
                cp,
                cn,
                gm,
            } => {
                // f holds currents *leaving* each node: an injection into
                // n_to appears with negative sign there.
                let i = gm * across(x, cp, cn);
                s.val(n_to, -i);
                s.val(n_from, i);
                s.jac(n_to, cp, -gm);
                s.jac(n_to, cn, gm);
                s.jac(n_from, cp, gm);
                s.jac(n_from, cn, -gm);
            }
            Device::CurrentSource { .. } | Device::Capacitor { .. } => {}
        }
    }

    /// Adds the device's contribution to `b(t)` into `s`.
    pub(crate) fn stamp_b(&self, t: f64, extra: usize, s: &mut Values<'_>) {
        match *self {
            Device::CurrentSource { n_from, n_to, wave } => {
                let i = wave.eval(t);
                s.val(n_to, i);
                s.val(n_from, -i);
            }
            Device::VoltageSource { wave, .. } => s.value(extra, wave.eval(t)),
            Device::MemsVaractor { ref params, .. } => {
                let v = params.control.eval(t);
                s.value(extra + 1, params.force_gain * v * v);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    #[test]
    fn extras_counted() {
        let n1 = Node::from_raw(1);
        assert_eq!(Device::resistor(n1, Circuit::GND, 1.0).n_extras(), 0);
        assert_eq!(Device::inductor(n1, Circuit::GND, 1.0).n_extras(), 1);
        assert_eq!(
            Device::voltage_source(n1, Circuit::GND, Waveform::Dc(1.0)).n_extras(),
            1
        );
    }

    #[test]
    #[should_panic]
    fn zero_resistance_rejected() {
        let _ = Device::resistor(Node::from_raw(1), Circuit::GND, 0.0);
    }

    #[test]
    fn set_param_primary_values() {
        let n1 = Node::from_raw(1);
        let mut r = Device::resistor(n1, Circuit::GND, 1.0e3);
        r.set_param(None, 2.0e3).unwrap();
        assert_eq!(r, Device::resistor(n1, Circuit::GND, 2.0e3));
        assert!(r.set_param(None, 0.0).is_err());
        assert!(r.set_param(Some("c"), 1.0).unwrap_err().contains("'c'"));

        let mut g = Device::cubic_conductor(n1, Circuit::GND, 1e-3, 1e-4);
        g.set_param(Some("g3"), 2e-4).unwrap();
        assert_eq!(g, Device::cubic_conductor(n1, Circuit::GND, 1e-3, 2e-4));

        let mut d = Device::diode(n1, Circuit::GND, 1e-14, 0.025);
        assert!(d.set_param(Some("vt"), -1.0).is_err());
        d.set_param(Some("vt"), 0.05).unwrap();
    }

    #[test]
    fn set_param_source_and_mems() {
        let n1 = Node::from_raw(1);
        let mut i = Device::current_source(Circuit::GND, n1, Waveform::Dc(1e-3));
        i.set_param(None, 2e-3).unwrap();
        assert_eq!(
            i,
            Device::current_source(Circuit::GND, n1, Waveform::Dc(2e-3))
        );
        let mut s = Device::voltage_source(n1, Circuit::GND, Waveform::sine(0.0, 1.0, 50.0));
        assert!(s.set_param(None, 1.0).is_err()); // default needs DC
        s.set_param(Some("ampl"), 3.0).unwrap();

        let mut m = Device::mems_varactor(
            n1,
            Circuit::GND,
            MemsParams {
                c0: 5e-9,
                y0: 1.0,
                mass: 1e-12,
                damping: 1e-7,
                spring_k: 2.5,
                force_gain: 0.12,
                control: Waveform::Dc(1.5),
                tank_coupling: 0.0,
            },
        );
        assert!(m.set_param(None, 1.0).is_err());
        m.set_param(Some("control"), 1.8).unwrap();
        match &m {
            Device::MemsVaractor { params, .. } => {
                assert_eq!(params.control, Waveform::Dc(1.8));
            }
            other => panic!("unexpected device {other:?}"),
        }
    }

    #[test]
    fn frozen_at_replaces_waveforms() {
        let n1 = Node::from_raw(1);
        let src = Device::current_source(Circuit::GND, n1, Waveform::sine(1.0, 2.0, 1.0));
        assert_eq!(
            src.frozen_at(0.25),
            Device::current_source(Circuit::GND, n1, Waveform::Dc(3.0))
        );
        let r = Device::resistor(n1, Circuit::GND, 1.0);
        assert_eq!(r.frozen_at(5.0), r);
    }

    #[test]
    fn mems_capacitance_law() {
        let p = MemsParams {
            c0: 5e-9,
            y0: 1.0,
            mass: 1e-12,
            damping: 1e-7,
            spring_k: 2.5,
            force_gain: 0.12,
            control: Waveform::Dc(1.5),
            tank_coupling: 0.0,
        };
        assert!((p.capacitance(0.0) - 5e-9).abs() < 1e-20);
        assert!((p.capacitance(1.0) - 2.5e-9).abs() < 1e-20);
        // Finite-difference check of dC/dy.
        let h = 1e-7;
        let fd = (p.capacitance(0.5 + h) - p.capacitance(0.5 - h)) / (2.0 * h);
        assert!((fd - p.dc_dy(0.5)).abs() < 1e-12);
        let fd2 = (p.dc_dy(0.5 + h) - p.dc_dy(0.5 - h)) / (2.0 * h);
        assert!((fd2 - p.d2c_dy2(0.5)).abs() < 1e-9);
    }

    #[test]
    fn diode_iv_continuity_at_vcrit() {
        // Value and slope are continuous across the linearisation knee.
        let (isat, vt) = (1e-14, 0.02585);
        let vc = 40.0 * vt;
        let eps = 1e-9;
        let (i_lo, g_lo) = diode_iv(vc - eps, isat, vt);
        let (i_hi, g_hi) = diode_iv(vc + eps, isat, vt);
        assert!((i_lo - i_hi).abs() < 1e-6 * i_lo.abs());
        assert!((g_lo - g_hi).abs() < 1e-6 * g_lo.abs());
        // Far beyond the knee, no overflow.
        let (i_big, g_big) = diode_iv(100.0, isat, vt);
        assert!(i_big.is_finite() && g_big.is_finite());
    }

    #[test]
    fn diode_reverse_blocks() {
        let (i, g) = diode_iv(-1.0, 1e-14, 0.02585);
        assert!((i + 1e-14).abs() < 1e-20); // −Is
        assert!(g > 0.0 && g < 1e-20 * 1e6);
    }

    #[test]
    #[should_panic]
    fn diode_rejects_bad_vt() {
        let _ = Device::diode(Node::from_raw(1), Circuit::GND, 1e-14, 0.0);
    }

    #[test]
    fn static_displacement_balances_spring() {
        let p = MemsParams {
            c0: 5e-9,
            y0: 1.0,
            mass: 1e-12,
            damping: 1e-7,
            spring_k: 2.0,
            force_gain: 0.5,
            control: Waveform::Dc(2.0),
            tank_coupling: 0.0,
        };
        let y = p.static_displacement(2.0);
        assert!((p.spring_k * y - p.force_gain * 4.0).abs() < 1e-12);
    }
}
