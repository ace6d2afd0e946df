//! `envelope_mems_air`: the paper's Figures 10–12 problem through the
//! library path `repro --table speedup` uses — one `solve_envelope` on
//! the air-damped MEMS VCO over 3 ms with 9 harmonics per op.

use crate::timed::Timed;
use crate::util::{Digest, Rng};
use crate::{Bench, Outcome, Reference};
use circuitdae::circuits::{self, MemsVcoConfig};
use circuitdae::{CircuitDae, Waveform};
use shooting::{oscillator_steady_state, PeriodicOrbit, ShootingOptions};
use std::time::Instant;
use wampde::{solve_envelope, EnvelopeResult, WampdeInit, WampdeOptions};

/// Envelope span of every op (the paper's 3 ms).
pub const T_END: f64 = 3e-3;
/// Harmonics along the warped axis (collocation dimension 77).
pub const HARMONICS: usize = 9;
/// Points per nominal cycle of the fixed-step transient reference.
pub const REFERENCE_PTS_PER_CYCLE: usize = 1000;
/// Largest accepted final phase error per simulated cycle.
pub const REL_ERR_GATE: f64 = 1e-4;

/// The workload: `ops` envelope solves.
pub struct MemsAir {
    /// Generator seed.
    pub seed: u64,
    /// Envelope solves per run.
    pub ops: usize,
}

/// Generated inputs plus the unforced orbit every op starts from.
pub struct Prepared {
    /// Control waveform of each op; op 0 is the paper's.
    pub controls: Vec<Waveform>,
    /// Unforced steady state at the 1.5 V control.
    pub orbit: PeriodicOrbit,
}

/// What the accuracy check needs from a run.
pub struct Check {
    /// Op 0's envelope (the paper scenario).
    pub env0: EnvelopeResult,
    /// Op 0's solve time (s).
    pub op0_s: f64,
}

/// Control waveforms: op 0 is exactly the paper's air scenario; later
/// ops draw offset, amplitude and frequency within ±10 % of it, with the
/// phase chosen so `v(0) = 1.5 V` and the set-up orbit still applies.
pub fn controls(seed: u64, ops: usize) -> Vec<Waveform> {
    let paper = MemsVcoConfig::paper_air().control;
    let mut rng = Rng::new(seed);
    let mut out = vec![paper];
    while out.len() < ops {
        let amplitude = rng.around(2.5, 0.1);
        // |1.5 − offset| ≤ amplitude keeps v(0) = 1.5 V reachable.
        let offset = rng.uniform(3.6, (1.5 + amplitude).min(4.4));
        let freq_hz = rng.around(1.0e3, 0.1);
        out.push(Waveform::Sine {
            offset,
            amplitude,
            freq_hz,
            phase_rad: ((1.5 - offset) / amplitude).asin(),
        });
    }
    out
}

/// The inputs as text, one op per line with round-trip floats.
pub fn render(controls: &[Waveform]) -> String {
    let mut s = String::new();
    for (k, w) in controls.iter().enumerate() {
        s.push_str(&format!("op {k}: {w:?}\n"));
    }
    s
}

fn config(control: Waveform) -> MemsVcoConfig {
    MemsVcoConfig {
        control,
        damping: MemsVcoConfig::paper_air().damping,
    }
}

fn options() -> WampdeOptions {
    WampdeOptions {
        harmonics: HARMONICS,
        ..Default::default()
    }
}

fn digest_env(d: &mut Digest, env: &EnvelopeResult) {
    d.extend(&env.t2);
    d.extend(&env.omega_hz);
    d.extend(&env.phi);
    for s in &env.states {
        d.extend(s);
    }
}

fn sane(env: &EnvelopeResult) -> bool {
    env.t2.last().is_some_and(|&t| t >= T_END * (1.0 - 1e-9))
        && env
            .omega_hz
            .iter()
            .all(|w| w.is_finite() && (0.5e6..2.0e6).contains(w))
}

impl Bench for MemsAir {
    type Prepared = Prepared;
    type Check = Check;

    fn input_text(&self) -> String {
        render(&controls(self.seed, self.ops))
    }

    fn setup(&self) -> Result<Prepared, String> {
        let controls = controls(self.seed, self.ops);
        let dae = circuits::mems_vco(MemsVcoConfig::constant(1.5));
        let orbit = oscillator_steady_state(&dae, &ShootingOptions::default())
            .map_err(|e| format!("unforced orbit: {e}"))?;
        Ok(Prepared { controls, orbit })
    }

    fn run(&self, p: &Prepared, wrapped: bool) -> Outcome<Check> {
        let opts = options();
        let init = WampdeInit::from_orbit(&p.orbit, &opts);
        let mut out = Outcome::new(p.controls.len());
        let t_all = Instant::now();
        for (k, &control) in p.controls.iter().enumerate() {
            let dae: CircuitDae = circuits::mems_vco(config(control));
            let t0 = Instant::now();
            let res = {
                let _op = obskit::span_with("op", &[("kind", obskit::AttrValue::Str("wampde"))]);
                if wrapped {
                    solve_envelope(&Timed(&dae), &init, T_END, &opts)
                } else {
                    solve_envelope(&dae, &init, T_END, &opts)
                }
            };
            let op_s = t0.elapsed().as_secs_f64();
            out.op_ms.push(op_s * 1e3);
            match res {
                Ok(env) => {
                    out.completed += 1;
                    out.newton_iters += env.stats.newton_iters as u64;
                    digest_env(&mut out.digest, &env);
                    out.sane &= sane(&env);
                    if k == 0 {
                        out.check = Some(Check {
                            env0: env,
                            op0_s: op_s,
                        });
                    }
                }
                Err(e) => out.errors.push(format!("op {k}: {e}")),
            }
        }
        out.wall_s = t_all.elapsed().as_secs_f64();
        out
    }

    fn reference(&self, _p: &Prepared, check: &Check) -> Result<Reference, String> {
        let t0 = Instant::now();
        let fine = reference_transient(&check.env0)?;
        let seconds = t0.elapsed().as_secs_f64();
        Ok(Reference {
            rel_err: rel_err(&check.env0, &fine),
            seconds,
            headline_speedup: seconds / check.op0_s,
        })
    }

    fn rel_err_gate(&self) -> f64 {
        REL_ERR_GATE
    }

    fn solver_cap(&self) -> usize {
        // No core budget is installed on the library path: every solve
        // runs serially.
        1
    }
}

/// The independent reference: a fixed 1000 points-per-cycle
/// trapezoidal transient of the paper scenario from the envelope's own
/// `t = 0` state.
///
/// # Errors
///
/// The transient's error, as text.
pub fn reference_transient(env0: &EnvelopeResult) -> Result<transim::TransientResult, String> {
    let dae = circuits::mems_vco(MemsVcoConfig::paper_air());
    let x0 = &env0.states[0][..env0.n];
    let nominal = circuits::nominal_period();
    transim::run_fixed_per_cycle(
        &dae,
        x0,
        nominal,
        T_END / nominal,
        REFERENCE_PTS_PER_CYCLE,
        transim::Integrator::Trapezoidal,
    )
    .map_err(|e| format!("reference transient: {e}"))
}

/// Final phase error of the envelope against the reference transient,
/// in cycles, divided by the cycles simulated.
pub fn rel_err(env0: &EnvelopeResult, fine: &transim::TransientResult) -> f64 {
    let var = circuits::idx::V_TANK;
    let probes: Vec<f64> = (0..900_000).map(|k| k as f64 / 900_000.0 * T_END).collect();
    let wam = env0.reconstruct(var, &probes);
    let (_, errs) = sigproc::phase_error_trace(&fine.times, &fine.signal(var), &probes, &wam);
    let cycles = env0.phi.last().copied().unwrap_or(0.0);
    match errs.last() {
        Some(e) if cycles > 0.0 => e.abs() / cycles,
        _ => f64::INFINITY,
    }
}
