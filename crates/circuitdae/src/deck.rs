//! Typed scenario decks: a circuit plus analysis and sweep directives.
//!
//! A *deck* is the versioned text description of an experiment: the
//! circuit cards of [`crate::netlist`], analysis directives naming which
//! solver(s) to run, and `.sweep` directives spanning a parameter grid.
//! [`crate::netlist::parse_deck`] produces a [`Deck`]; the `sweepkit`
//! crate expands its sweeps into jobs and runs them in parallel.
//!
//! ```text
//! * paper MEMS VCO, control sweep
//! L1  tank 0 10u
//! GN1 tank 0 5m 1.667m
//! M1  tank 0 5n 1 1e-12 3e-7 2.47 0.121 DC(1.5)
//! .wampde 6u harmonics=5
//! .sweep M1.control 1.2 1.8 4
//! ```
//!
//! `[STEP KEYS]` in the directive synopses below are the fields of
//! [`StepKeys`], which `.tran`, `.mpde` and `.wampde` share.
//!
//! This module holds only *data* (specs are plain numbers); the adapter
//! functions that map a spec onto a solver live in the solver crates
//! (`transim::run_tran_spec`, `shooting::run_shooting_spec`,
//! `mpde::run_mpde_spec`, `wampde::run_wampde_spec`), so `circuitdae`
//! keeps zero solver dependencies.

use crate::circuit::{Circuit, CircuitDae};
use crate::netlist::NetlistError;
use linsolve::LinearSolverKind;
use timekit::{Scheme, StepPolicy};

/// The step keys shared by the time-stepping directives (`.tran`,
/// `.mpde`, `.wampde`): `dt=`, `rtol=`, `atol=`, `dt_min=`, `dt_max=`
/// and `integrator=`. Each directive seeds its own defaults; `.tran` and
/// `.wampde` map the keys onto a step policy with [`StepKeys::policy`],
/// `.mpde` by its own rule (`mpde::spec_problem`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepKeys {
    /// Step (s). `.tran`/`.wampde`: a positive value pins a fixed step,
    /// `0.0` selects LTE-adaptive stepping. `.mpde`: the fixed step, or
    /// the first step in adaptive mode; `0.0` = auto.
    pub dt: f64,
    /// Relative tolerance of the adaptive controller. For `.mpde` a
    /// positive value switches on adaptive stepping (`0.0` = fixed).
    pub rtol: f64,
    /// Absolute tolerance of the adaptive controller.
    pub atol: f64,
    /// Minimum adaptive step (`0.0` = auto: span·1e-12).
    pub dt_min: f64,
    /// Maximum adaptive step (`0.0` = auto: span/10).
    pub dt_max: f64,
    /// Integration scheme (`be`, `trap`, `bdf2`).
    pub integrator: Scheme,
}

impl StepKeys {
    /// Auto step and step bounds at the given tolerances and scheme.
    fn new(rtol: f64, atol: f64, integrator: Scheme) -> Self {
        StepKeys {
            dt: 0.0,
            rtol,
            atol,
            dt_min: 0.0,
            dt_max: 0.0,
            integrator,
        }
    }

    /// The `.tran`/`.wampde` step policy: a positive `dt` pins a fixed
    /// step; otherwise stepping is LTE-adaptive at `rtol`/`atol` within
    /// `dt_min`/`dt_max`, from an automatic first step.
    pub fn policy(&self) -> StepPolicy {
        if self.dt > 0.0 {
            StepPolicy::Fixed(self.dt)
        } else {
            StepPolicy::Adaptive {
                rtol: self.rtol,
                atol: self.atol,
                dt_init: 0.0,
                dt_min: self.dt_min,
                dt_max: self.dt_max,
            }
        }
    }

    /// The step-key segment of [`AnalysisSpec::fingerprint`].
    pub(crate) fn fingerprint(&self) -> String {
        format!(
            "dt={} rtol={} atol={} dt_min={} dt_max={} integrator={}",
            hex(self.dt),
            hex(self.rtol),
            hex(self.atol),
            hex(self.dt_min),
            hex(self.dt_max),
            self.integrator.label(),
        )
    }
}

/// A float as the hex of its IEEE-754 bit pattern.
fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// `.tran <tstop> [solver=<s>] [STEP KEYS]` — transient integration from
/// the DC operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranSpec {
    /// End time (s).
    pub t_stop: f64,
    /// Step keys.
    pub step: StepKeys,
    /// Linear-solver backend (from the deck's `.options solver=` line).
    pub solver: LinearSolverKind,
}

impl TranSpec {
    /// The directive defaults: LTE-adaptive trapezoidal stepping at
    /// `rtol = 1e-6`, `atol = 1e-12`, auto step bounds, dense LU.
    pub fn new(t_stop: f64) -> Self {
        TranSpec {
            t_stop,
            step: StepKeys::new(1e-6, 1e-12, Scheme::Trapezoidal),
            solver: LinearSolverKind::default(),
        }
    }
}

/// `.shooting [steps=<n>] [phase_var=<k>]` — periodic steady state of an
/// autonomous oscillator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShootingSpec {
    /// Fixed integration steps per period for the flow evaluation.
    pub steps_per_period: usize,
    /// Index of the oscillating unknown (phase anchor).
    pub phase_var: usize,
    /// Linear-solver backend (from the deck's `.options solver=` line).
    pub solver: LinearSolverKind,
}

/// `.mpde <f1> <tstop> [harmonics=<n>] [node=<k>] [amp=<v>] [depth=<v>]
/// [fmod=<v>] [solver=<s>] [STEP KEYS]` — unwarped MPDE envelope with an
/// AM-modulated carrier forcing into one KCL row. Fixed-step by default
/// (`dt`, auto `tstop/50`); `rtol=` switches on LTE-adaptive `t2`
/// stepping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpdeSpec {
    /// Fast carrier fundamental (Hz) — fixed a priori, per the method.
    pub f1_hz: f64,
    /// Envelope end time (s).
    pub t_stop: f64,
    /// Harmonics along the fast axis.
    pub harmonics: usize,
    /// Forced unknown (KCL row) index.
    pub node: usize,
    /// Carrier amplitude.
    pub amplitude: f64,
    /// Modulation depth.
    pub mod_depth: f64,
    /// Envelope modulation frequency (Hz).
    pub mod_freq_hz: f64,
    /// Step keys along `t2`.
    pub step: StepKeys,
    /// Linear-solver backend (from the deck's `.options solver=` line).
    pub solver: LinearSolverKind,
}

impl MpdeSpec {
    /// The directive defaults: fixed-step Backward Euler along `t2`
    /// (auto `t_stop/50`), 6 harmonics, a 50 %-depth AM carrier into
    /// row 0 at `f1/100` modulation, dense LU.
    pub fn new(f1_hz: f64, t_stop: f64) -> Self {
        MpdeSpec {
            f1_hz,
            t_stop,
            harmonics: 6,
            node: 0,
            amplitude: 1e-3,
            mod_depth: 0.5,
            mod_freq_hz: f1_hz / 100.0,
            // fixed-step mode unless rtol is set
            step: StepKeys::new(0.0, 1e-9, Scheme::BackwardEuler),
            solver: LinearSolverKind::default(),
        }
    }
}

/// `.wampde <tstop> [harmonics=<n>] [phase_var=<k>] [steps=<n>]
/// [solver=<s>] [STEP KEYS]` — warped MPDE envelope, initialised from the
/// shooting steady state of the circuit with its waveforms frozen at
/// `t = 0`. LTE-adaptive along `t2` by default; `dt=` pins a fixed step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WampdeSpec {
    /// Envelope end time (s).
    pub t_stop: f64,
    /// Harmonic count `M` along the warped axis.
    pub harmonics: usize,
    /// Phase-condition variable index.
    pub phase_var: usize,
    /// Shooting steps per period for the initial orbit.
    pub shooting_steps: usize,
    /// Step keys along `t2`.
    pub step: StepKeys,
    /// Linear-solver backend (from the deck's `.options solver=` line).
    pub solver: LinearSolverKind,
}

impl WampdeSpec {
    /// The directive defaults: LTE-adaptive BDF2 along `t2` at
    /// `rtol = 2e-4`, `atol = 1e-9`, auto step bounds, 8 harmonics,
    /// 512-step shooting initialisation, dense LU.
    pub fn new(t_stop: f64) -> Self {
        WampdeSpec {
            t_stop,
            harmonics: 8,
            phase_var: 0,
            shooting_steps: 512,
            step: StepKeys::new(2e-4, 1e-9, Scheme::Bdf2),
            solver: LinearSolverKind::default(),
        }
    }
}

/// One analysis directive of a deck.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisSpec {
    /// `.tran` — conventional transient (the paper's baseline).
    Tran(TranSpec),
    /// `.shooting` — unforced periodic steady state.
    Shooting(ShootingSpec),
    /// `.mpde` — unwarped multirate envelope (non-autonomous AM).
    Mpde(MpdeSpec),
    /// `.wampde` — warped multirate envelope (the paper's method).
    Wampde(WampdeSpec),
}

impl AnalysisSpec {
    /// The directive keyword, used for labels and artifact names.
    pub fn name(&self) -> &'static str {
        match self {
            AnalysisSpec::Tran(_) => "tran",
            AnalysisSpec::Shooting(_) => "shooting",
            AnalysisSpec::Mpde(_) => "mpde",
            AnalysisSpec::Wampde(_) => "wampde",
        }
    }

    /// The linear-solver backend this analysis will run with.
    pub fn solver(&self) -> LinearSolverKind {
        match self {
            AnalysisSpec::Tran(s) => s.solver,
            AnalysisSpec::Shooting(s) => s.solver,
            AnalysisSpec::Mpde(s) => s.solver,
            AnalysisSpec::Wampde(s) => s.solver,
        }
    }

    /// Overrides the linear-solver backend (used by the `.options`
    /// directive and the `wampde-cli --solver` flag).
    pub fn set_solver(&mut self, kind: LinearSolverKind) {
        match self {
            AnalysisSpec::Tran(s) => s.solver = kind,
            AnalysisSpec::Shooting(s) => s.solver = kind,
            AnalysisSpec::Mpde(s) => s.solver = kind,
            AnalysisSpec::Wampde(s) => s.solver = kind,
        }
    }

    /// The step keys this analysis runs with (`None` for `.shooting`,
    /// which has no slow-time axis).
    pub fn step(&self) -> Option<&StepKeys> {
        match self {
            AnalysisSpec::Tran(s) => Some(&s.step),
            AnalysisSpec::Shooting(_) => None,
            AnalysisSpec::Mpde(s) => Some(&s.step),
            AnalysisSpec::Wampde(s) => Some(&s.step),
        }
    }

    /// The step keys, for overrides (the `wampde-cli --integrator` and
    /// `--rtol` flags); `None` for `.shooting`.
    pub fn step_mut(&mut self) -> Option<&mut StepKeys> {
        match self {
            AnalysisSpec::Tran(s) => Some(&mut s.step),
            AnalysisSpec::Shooting(_) => None,
            AnalysisSpec::Mpde(s) => Some(&mut s.step),
            AnalysisSpec::Wampde(s) => Some(&mut s.step),
        }
    }

    /// Stable, exhaustive serialisation of the *resolved* analysis for
    /// content-hashing (the sweep service's cache keys). Every field of
    /// the spec appears — including options merged in from `.options`
    /// lines or CLI overrides — with floats rendered as the hex of
    /// their IEEE-754 bit pattern, so two specs fingerprint equal iff
    /// they run identically.
    pub fn fingerprint(&self) -> String {
        match self {
            AnalysisSpec::Tran(s) => format!(
                "tran t_stop={} {} solver={}",
                hex(s.t_stop),
                s.step.fingerprint(),
                s.solver.label(),
            ),
            AnalysisSpec::Shooting(s) => format!(
                "shooting steps={} phase_var={} solver={}",
                s.steps_per_period,
                s.phase_var,
                s.solver.label(),
            ),
            AnalysisSpec::Mpde(s) => format!(
                "mpde f1={} t_stop={} harmonics={} node={} amp={} depth={} fmod={} {} solver={}",
                hex(s.f1_hz),
                hex(s.t_stop),
                s.harmonics,
                s.node,
                hex(s.amplitude),
                hex(s.mod_depth),
                hex(s.mod_freq_hz),
                s.step.fingerprint(),
                s.solver.label(),
            ),
            AnalysisSpec::Wampde(s) => format!(
                "wampde t_stop={} harmonics={} phase_var={} steps={} {} solver={}",
                hex(s.t_stop),
                s.harmonics,
                s.phase_var,
                s.shooting_steps,
                s.step.fingerprint(),
                s.solver.label(),
            ),
        }
    }
}

/// `.sweep <param> <from> <to> <points> [log]` — one swept parameter.
///
/// `param` is a device card name (`R1` — primary value) or a dotted field
/// (`M1.control`, `V1.ampl`); see [`crate::Device::set_param`] for the
/// field tables.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Device card name (uppercase).
    pub device: String,
    /// Optional parameter field (lowercase).
    pub field: Option<String>,
    /// First grid value.
    pub from: f64,
    /// Last grid value.
    pub to: f64,
    /// Number of grid points (≥ 1).
    pub points: usize,
    /// Logarithmic (geometric) spacing instead of linear.
    pub log: bool,
}

impl SweepSpec {
    /// The `NAME` / `NAME.field` label of the swept parameter.
    pub fn label(&self) -> String {
        match &self.field {
            Some(f) => format!("{}.{f}", self.device),
            None => self.device.clone(),
        }
    }

    /// The grid values, `from` to `to` inclusive, linearly or
    /// geometrically spaced. `points == 1` yields `[from]`.
    pub fn values(&self) -> Vec<f64> {
        if self.points <= 1 {
            return vec![self.from];
        }
        let n = (self.points - 1) as f64;
        (0..self.points)
            .map(|i| {
                let w = i as f64 / n;
                if self.log {
                    self.from * (self.to / self.from).powf(w)
                } else {
                    self.from + (self.to - self.from) * w
                }
            })
            .collect()
    }
}

/// A parsed scenario deck: the (unbuilt) circuit, the device card names,
/// and the analysis/sweep directives.
#[derive(Debug, Clone)]
pub struct Deck {
    pub(crate) circuit: Circuit,
    pub(crate) names: Vec<String>,
    /// Analysis directives, in deck order.
    pub analyses: Vec<AnalysisSpec>,
    /// Sweep directives, in deck order (first varies slowest).
    pub sweeps: Vec<SweepSpec>,
}

impl Deck {
    /// Device card names, uppercase, in deck order.
    pub fn device_names(&self) -> &[String] {
        &self.names
    }

    /// Stable serialisation of everything a sweep job's circuit depends
    /// on: the device cards (with every parameter) and the sweep
    /// directives (which decide what the grid-point values bind to).
    /// Analysis directives are *not* included — each job hashes its own
    /// resolved [`AnalysisSpec::fingerprint`] separately, so editing one
    /// directive does not invalidate cached results of the others.
    ///
    /// The rendering leans on `Debug` formatting, whose shortest
    /// round-trip float output is exact: two decks fingerprint equal iff
    /// their circuits and sweep bindings are identical. Cache keys also
    /// mix in a code-version salt, so a formatting change across
    /// toolchains can only cause cache misses, never false hits.
    pub fn fingerprint(&self) -> String {
        format!("{:?}|{:?}|{:?}", self.circuit, self.names, self.sweeps)
    }

    /// Builds the circuit with no overrides applied.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Circuit`] when validation fails (cannot happen for
    /// decks returned by the parser, which validates at parse time).
    pub fn base_circuit(&self) -> Result<CircuitDae, NetlistError> {
        Ok(self.circuit.clone().build()?)
    }

    /// Builds the circuit with sweep values applied: `values[i]` is
    /// assigned to the parameter of `self.sweeps[i]`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Param`] when the value count mismatches the sweep
    /// count, a sweep names an unknown device, or the device rejects the
    /// value; [`NetlistError::Circuit`] when the overridden circuit fails
    /// validation.
    pub fn instantiate(&self, values: &[f64]) -> Result<CircuitDae, NetlistError> {
        if values.len() != self.sweeps.len() {
            return Err(NetlistError::Param {
                device: String::new(),
                message: format!(
                    "expected {} sweep values, got {}",
                    self.sweeps.len(),
                    values.len()
                ),
            });
        }
        let mut ckt = self.circuit.clone();
        for (sw, &v) in self.sweeps.iter().zip(values) {
            let idx = self
                .names
                .iter()
                .position(|n| *n == sw.device)
                .ok_or_else(|| NetlistError::Param {
                    device: sw.device.clone(),
                    message: "sweep references unknown device".into(),
                })?;
            ckt.device_mut(idx)
                .expect("names parallel devices")
                .set_param(sw.field.as_deref(), v)
                .map_err(|message| NetlistError::Param {
                    device: sw.label(),
                    message,
                })?;
        }
        Ok(ckt.build()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_values_linear_and_log() {
        let mut sw = SweepSpec {
            device: "R1".into(),
            field: None,
            from: 1.0,
            to: 3.0,
            points: 5,
            log: false,
        };
        assert_eq!(sw.values(), vec![1.0, 1.5, 2.0, 2.5, 3.0]);
        sw.log = true;
        sw.from = 1.0;
        sw.to = 100.0;
        sw.points = 3;
        let v = sw.values();
        assert!((v[1] - 10.0).abs() < 1e-12, "{v:?}");
        sw.points = 1;
        assert_eq!(sw.values(), vec![1.0]);
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        let a = AnalysisSpec::Tran(TranSpec::new(1e-3));
        let b = AnalysisSpec::Tran(TranSpec::new(1e-3));
        assert_eq!(a.fingerprint(), b.fingerprint());

        // Every option perturbation must change the fingerprint.
        let mut c = TranSpec::new(1e-3);
        c.step.rtol = 2e-6;
        assert_ne!(a.fingerprint(), AnalysisSpec::Tran(c).fingerprint());
        let mut d = TranSpec::new(1e-3);
        d.solver = LinearSolverKind::Klu;
        assert_ne!(a.fingerprint(), AnalysisSpec::Tran(d).fingerprint());
        let mut e = TranSpec::new(1e-3);
        e.step.integrator = Scheme::BackwardEuler;
        assert_ne!(a.fingerprint(), AnalysisSpec::Tran(e).fingerprint());
    }

    /// The sweep service's cache keys are these bytes: a change to them
    /// silently invalidates every cached result, so they are pinned with
    /// every step key off its directive's default.
    #[test]
    fn step_key_fingerprints_are_pinned() {
        let deck = crate::parse_deck(
            "R1 a 0 1k\nC1 a 0 1n\n\
             .tran 1m dt=2u rtol=1e-4 atol=1e-10 dt_min=1n dt_max=10u integrator=bdf2 \
             solver=klu\n\
             .mpde 1meg 2m harmonics=4 dt=5u rtol=2e-4 atol=1e-8 dt_min=2n dt_max=20u \
             integrator=trap\n\
             .wampde 6u harmonics=5 steps=256 dt=20n rtol=1e-3 atol=1e-7 dt_min=3n \
             dt_max=30u integrator=be\n",
        )
        .unwrap();
        let got: Vec<String> = deck
            .analyses
            .iter()
            .map(AnalysisSpec::fingerprint)
            .collect();
        assert_eq!(
            got,
            [
                "tran t_stop=3f50624dd2f1a9fc dt=3ec0c6f7a0b5ed8d rtol=3f1a36e2eb1c432d \
                 atol=3ddb7cdfd9d7bdbb dt_min=3e112e0be826d695 dt_max=3ee4f8b588e368f0 \
                 integrator=bdf2 solver=klu",
                "mpde f1=412e848000000000 t_stop=3f60624dd2f1a9fc harmonics=4 node=0 \
                 amp=3f50624dd2f1a9fc depth=3fe0000000000000 fmod=40c3880000000000 \
                 dt=3ed4f8b588e368f0 rtol=3f2a36e2eb1c432d atol=3e45798ee2308c3a \
                 dt_min=3e212e0be826d695 dt_max=3ef4f8b588e368f0 integrator=trap solver=dense",
                "wampde t_stop=3ed92a737110e454 harmonics=5 phase_var=0 steps=256 \
                 dt=3e55798ee2308c3a rtol=3f50624dd2f1a9fc atol=3e7ad7f29abcaf48 \
                 dt_min=3e29c511dc3a41e0 dt_max=3eff75104d551d68 integrator=be solver=dense",
            ]
        );
    }

    #[test]
    fn deck_fingerprint_tracks_circuit_and_sweeps() {
        let base = "V1 in 0 DC(5)\nR1 in out 1k\nC1 out 0 1u\n.tran 1m\n";
        let d1 = crate::parse_deck(base).unwrap();
        let d2 = crate::parse_deck(base).unwrap();
        assert_eq!(d1.fingerprint(), d2.fingerprint());

        // A different device value changes it.
        let d3 = crate::parse_deck("V1 in 0 DC(5)\nR1 in out 2k\nC1 out 0 1u\n.tran 1m\n").unwrap();
        assert_ne!(d1.fingerprint(), d3.fingerprint());

        // A different sweep binding changes it even at equal values.
        let s1 = crate::parse_deck(&format!("{base}.sweep R1 1k 3k 3\n")).unwrap();
        let s2 = crate::parse_deck(&format!("{base}.sweep C1 1k 3k 3\n")).unwrap();
        assert_ne!(s1.fingerprint(), s2.fingerprint());

        // Analysis directives are intentionally excluded.
        let a1 = crate::parse_deck(&format!("{base}.tran 2m\n")).unwrap();
        assert_eq!(d1.fingerprint(), a1.fingerprint());
    }

    #[test]
    fn label_includes_field() {
        let sw = SweepSpec {
            device: "M1".into(),
            field: Some("control".into()),
            from: 1.0,
            to: 2.0,
            points: 2,
            log: false,
        };
        assert_eq!(sw.label(), "M1.control");
    }
}
