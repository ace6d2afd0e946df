//! SPICE-style netlist and scenario-deck parsing.
//!
//! A small, line-oriented netlist dialect so circuits can be described as
//! text (and experiment configurations versioned) instead of Rust code:
//!
//! ```text
//! * comment lines start with '*' or '#'
//! R1   n1  0    1k          ; resistor, ohms
//! C1   n1  0    4.503n      ; capacitor, farads
//! L1   n1  0    10u         ; inductor, henries
//! GN1  n1  0    5m  1.667m  ; cubic conductor: i = -g1*v + g3*v^3
//! GT1  n1  0    1m  0.5 10u ; tanh conductor: isat, vt, gmin
//! I1   0   n1   SIN(0 1m 1k)        ; current source (offset ampl freq [phase])
//! V1   n2  0    DC(5)               ; voltage source
//! M1   n1  0    5n 1 1e-12 3e-7 2.47 0.12 DC(1.5)
//! *    ^ MEMS varactor: c0 y0 mass damping k force_gain control
//! ```
//!
//! Node `0` (or `gnd`) is ground; all other node names are created on
//! first use. Values accept the usual suffixes
//! `f p n u m k meg g t` (case-insensitive).
//!
//! [`parse_deck`] additionally accepts *directive* lines (SPICE-style
//! analysis cards), producing a typed [`Deck`]:
//!
//! ```text
//! .tran     <tstop> [solver=<s>] [STEP KEYS]
//! .shooting [steps=<n>] [phase_var=<k>] [solver=<s>]
//! .mpde     <f1> <tstop> [harmonics=<n>] [node=<k>] [amp=<v>] [depth=<v>] [fmod=<v>] [solver=<s>] [STEP KEYS]
//! .wampde   <tstop> [harmonics=<n>] [phase_var=<k>] [steps=<n>] [solver=<s>] [STEP KEYS]
//! .sweep    <param> <from> <to> <points> [log]
//! .options  solver=dense|klu
//! ```
//!
//! The time-stepping analyses share one set of `STEP KEYS`
//! ([`StepKeys`]) plumbed into the `timekit` controller: `dt=<v>`,
//! `integrator=be|trap|bdf2`, `rtol=<v>`, `atol=<v>`, `dt_min=<v>`,
//! `dt_max=<v>`. For `.tran` and `.wampde`,
//! `dt=` pins a fixed step and omitting it selects LTE-adaptive
//! stepping; `.mpde` is fixed-step by default (auto `tstop/50`) and a
//! `rtol=` key switches it to adaptive.
//!
//! `.options` selects the linear-solver backend for *every* analysis in
//! the deck (position-independent; a later `.options` line wins). The
//! default is dense LU; `klu` (BTF + AMD ordered sparse LU) routes each
//! solver's inner factorisations through the shared `linsolve` layer's
//! sparse backend. `solver=` is the only `.options` key.
//! Every analysis directive additionally accepts its own `solver=<s>`
//! key with the same values, which takes precedence over the deck-wide
//! `.options` choice for that analysis alone (and is itself overridden
//! by the `wampde-cli --solver` flag).
//!
//! `<param>` in `.sweep` is a device card name (`R1`) or a dotted field
//! (`M1.control`); see [`Device::set_param`] for the field tables.
//! [`parse_netlist`] rejects directives, so plain-circuit callers get a
//! clear error instead of silently dropped analyses.

use crate::circuit::{Circuit, CircuitDae, Node};
use crate::deck::{
    AnalysisSpec, Deck, MpdeSpec, ShootingSpec, StepKeys, SweepSpec, TranSpec, WampdeSpec,
};
use crate::device::{Device, MemsParams};
use crate::waveform::Waveform;
use linsolve::LinearSolverKind;
use std::collections::HashMap;
use std::fmt;
use timekit::Scheme;

/// Errors from netlist parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum NetlistError {
    /// A malformed line, with its 1-based line number.
    Parse {
        /// Line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// The assembled circuit failed validation.
    Circuit(crate::circuit::CircuitError),
    /// A parameter override (sweep assignment) was rejected.
    Param {
        /// `NAME` / `NAME.field` label of the parameter.
        device: String,
        /// Explanation from the device.
        message: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::Parse { line, message } => {
                write!(f, "netlist line {line}: {message}")
            }
            NetlistError::Circuit(e) => write!(f, "netlist circuit error: {e}"),
            NetlistError::Param { device, message } => {
                write!(f, "parameter '{device}': {message}")
            }
        }
    }
}

impl std::error::Error for NetlistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetlistError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::circuit::CircuitError> for NetlistError {
    fn from(e: crate::circuit::CircuitError) -> Self {
        NetlistError::Circuit(e)
    }
}

/// Parses an engineering-notation value: `4.7k`, `10u`, `1meg`, `2.2e-6`.
///
/// # Errors
///
/// Returns a message naming the offending token.
pub fn parse_value(token: &str) -> Result<f64, String> {
    let t = token.trim().to_ascii_lowercase();
    if t.is_empty() {
        return Err("empty value".into());
    }
    // Longest-suffix first ("meg" before "m").
    const SUFFIXES: &[(&str, f64)] = &[
        ("meg", 1e6),
        ("f", 1e-15),
        ("p", 1e-12),
        ("n", 1e-9),
        ("u", 1e-6),
        ("m", 1e-3),
        ("k", 1e3),
        ("g", 1e9),
        ("t", 1e12),
    ];
    for (suffix, mult) in SUFFIXES {
        if let Some(stem) = t.strip_suffix(suffix) {
            // Guard against "1e-" style accidental strips: the stem must
            // parse cleanly on its own.
            if let Ok(v) = stem.parse::<f64>() {
                return Ok(v * mult);
            }
        }
    }
    t.parse::<f64>()
        .map_err(|_| format!("cannot parse value '{token}'"))
}

/// Parses a source waveform: `DC(v)`, `SIN(offset ampl freq [phase])`,
/// `PULSE(low high rise width fall period)`, or a bare number (DC).
fn parse_waveform(tokens: &[&str]) -> Result<Waveform, String> {
    let joined = tokens.join(" ");
    let t = joined.trim();
    let upper = t.to_ascii_uppercase();
    let args_of = |s: &str| -> Result<Vec<f64>, String> {
        let open = s.find('(').ok_or("expected '('")?;
        let close = s.rfind(')').ok_or("expected ')'")?;
        s[open + 1..close]
            .split_whitespace()
            .map(parse_value)
            .collect()
    };
    if upper.starts_with("DC") {
        let a = args_of(t)?;
        if a.len() != 1 {
            return Err("DC takes one argument".into());
        }
        Ok(Waveform::Dc(a[0]))
    } else if upper.starts_with("SIN") {
        let a = args_of(t)?;
        match a.len() {
            3 => Ok(Waveform::sine(a[0], a[1], a[2])),
            4 => Ok(Waveform::Sine {
                offset: a[0],
                amplitude: a[1],
                freq_hz: a[2],
                phase_rad: a[3],
            }),
            _ => Err("SIN takes (offset ampl freq [phase])".into()),
        }
    } else if upper.starts_with("PULSE") {
        let a = args_of(t)?;
        if a.len() != 6 {
            return Err("PULSE takes (low high rise width fall period)".into());
        }
        Ok(Waveform::Pulse {
            low: a[0],
            high: a[1],
            rise: a[2],
            width: a[3],
            fall: a[4],
            period: a[5],
        })
    } else if tokens.len() == 1 {
        Ok(Waveform::Dc(parse_value(tokens[0])?))
    } else {
        Err(format!("unrecognised waveform '{t}'"))
    }
}

/// Parses a plain netlist (device cards only) into a [`CircuitDae`].
///
/// # Errors
///
/// [`NetlistError::Parse`] with the offending line — including any
/// directive line, which belongs in [`parse_deck`] — or
/// [`NetlistError::Circuit`] if the assembled circuit is invalid.
pub fn parse_netlist(text: &str) -> Result<CircuitDae, NetlistError> {
    let deck = parse_impl(text, false)?;
    deck.base_circuit()
}

/// Parses a scenario deck: device cards plus analysis/sweep directives.
///
/// The circuit is validated eagerly (so a deck that parses is known to
/// instantiate), and every `.sweep` is checked against the named device.
///
/// # Errors
///
/// [`NetlistError::Parse`] with the offending line, or
/// [`NetlistError::Circuit`] if the assembled circuit is invalid.
pub fn parse_deck(text: &str) -> Result<Deck, NetlistError> {
    let deck = parse_impl(text, true)?;
    deck.base_circuit()?; // eager validation
    Ok(deck)
}

fn parse_impl(text: &str, allow_directives: bool) -> Result<Deck, NetlistError> {
    let mut ckt = Circuit::new();
    let mut names: Vec<String> = Vec::new();
    // Each analysis remembers whether its directive carried an explicit
    // per-analysis `solver=` key (which then beats the deck-wide
    // `.options` choice).
    let mut analyses: Vec<(AnalysisSpec, bool)> = Vec::new();
    let mut sweeps: Vec<(usize, SweepSpec)> = Vec::new();
    let mut solver: Option<LinearSolverKind> = None;
    let mut nodes: HashMap<String, Node> = HashMap::new();

    let mut node_of = |ckt: &mut Circuit, name: &str| -> Node {
        let key = name.to_ascii_lowercase();
        if key == "0" || key == "gnd" {
            return Circuit::GND;
        }
        *nodes.entry(key.clone()).or_insert_with(|| ckt.node(key))
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        // Strip comments.
        let stripped = raw.split(';').next().unwrap_or("");
        let stripped = stripped.trim();
        if stripped.is_empty() || stripped.starts_with('*') || stripped.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = stripped.split_whitespace().collect();

        if tokens[0].starts_with('.') {
            if !allow_directives {
                return Err(NetlistError::Parse {
                    line,
                    message: format!(
                        "directive '{}' not allowed in a plain netlist; use parse_deck",
                        tokens[0]
                    ),
                });
            }
            match parse_directive(&tokens) {
                Ok(Directive::Analysis {
                    spec,
                    solver_explicit,
                }) => analyses.push((spec, solver_explicit)),
                Ok(Directive::Sweep(s)) => sweeps.push((line, s)),
                Ok(Directive::Options(kind)) => solver = Some(kind),
                Err(message) => return Err(NetlistError::Parse { line, message }),
            }
            continue;
        }

        if tokens.len() < 3 {
            return Err(NetlistError::Parse {
                line,
                message: "expected: NAME node node args...".into(),
            });
        }
        let name = tokens[0].to_ascii_uppercase();
        if names.contains(&name) {
            return Err(NetlistError::Parse {
                line,
                message: format!("duplicate device name '{name}'"),
            });
        }
        let n1 = node_of(&mut ckt, tokens[1]);
        let n2 = node_of(&mut ckt, tokens[2]);
        let args = &tokens[3..];
        let perr = |message: String| NetlistError::Parse { line, message };

        let first = name.chars().next().expect("nonempty token");
        match first {
            'R' => {
                let v = one_value(args).map_err(perr)?;
                if v == 0.0 {
                    return Err(NetlistError::Parse {
                        line,
                        message: "resistance must be nonzero".into(),
                    });
                }
                ckt.add(Device::resistor(n1, n2, v));
            }
            'C' => {
                let v = one_value(args).map_err(perr)?;
                ckt.add(Device::capacitor(n1, n2, v));
            }
            'L' => {
                let v = one_value(args).map_err(perr)?;
                ckt.add(Device::inductor(n1, n2, v));
            }
            'G' => {
                // GN = cubic, GT = tanh.
                match name.chars().nth(1) {
                    Some('N') => {
                        let vals = n_values(args, 2).map_err(perr)?;
                        ckt.add(Device::cubic_conductor(n1, n2, vals[0], vals[1]));
                    }
                    Some('T') => {
                        let vals = n_values(args, 3).map_err(perr)?;
                        ckt.add(Device::tanh_conductor(n1, n2, vals[0], vals[1], vals[2]));
                    }
                    _ => {
                        return Err(NetlistError::Parse {
                            line,
                            message: format!("unknown conductor card '{name}' (use GN.../GT...)"),
                        })
                    }
                }
            }
            'I' => {
                let w = parse_waveform(args).map_err(perr)?;
                ckt.add(Device::current_source(n1, n2, w));
            }
            'V' => {
                let w = parse_waveform(args).map_err(perr)?;
                ckt.add(Device::voltage_source(n1, n2, w));
            }
            'D' => {
                // d<name> n+ n- is=<sat current> n=<emission coeff>,
                // both optional (is=1e-14, n=1). The emission coefficient
                // scales the room-temperature thermal voltage kT/q.
                let mut isat = 1.0e-14;
                let mut emission = 1.0;
                for tok in args {
                    let Some((key, value)) = tok.split_once('=') else {
                        return Err(perr(format!(
                            "diode card takes key=value options, got '{tok}' (use is=/n=)"
                        )));
                    };
                    let v = parse_value(value).map_err(perr)?;
                    match key.to_ascii_lowercase().as_str() {
                        "is" => isat = v,
                        "n" => emission = v,
                        other => {
                            return Err(perr(format!(
                                "unknown diode option '{other}' (use is=/n=)"
                            )))
                        }
                    }
                }
                if isat <= 0.0 || emission <= 0.0 {
                    return Err(perr("diode is= and n= must be positive".into()));
                }
                ckt.add(Device::diode(n1, n2, isat, emission * 0.02585));
            }
            'M' => {
                if args.len() < 7 {
                    return Err(NetlistError::Parse {
                        line,
                        message: "MEMS card: M n1 n2 c0 y0 mass damping k force_gain WAVEFORM"
                            .into(),
                    });
                }
                let nums: Vec<f64> = args[..6]
                    .iter()
                    .map(|t| parse_value(t))
                    .collect::<Result<_, _>>()
                    .map_err(perr)?;
                let control = parse_waveform(&args[6..]).map_err(perr)?;
                ckt.add(Device::mems_varactor(
                    n1,
                    n2,
                    MemsParams {
                        c0: nums[0],
                        y0: nums[1],
                        mass: nums[2],
                        damping: nums[3],
                        spring_k: nums[4],
                        force_gain: nums[5],
                        control,
                        tank_coupling: 0.0,
                    },
                ));
            }
            other => {
                return Err(NetlistError::Parse {
                    line,
                    message: format!("unknown device prefix '{other}'"),
                })
            }
        }
        names.push(name);
    }

    // Validate sweeps against the parsed cards: the named device must
    // exist and accept the field at *every* grid value (a linear sweep
    // through zero would otherwise pass an endpoints-only check and fail
    // mid-run), so a deck that parses is known to instantiate at every
    // grid point.
    for (line, sw) in &sweeps {
        let line = *line;
        let Some(idx) = names.iter().position(|n| *n == sw.device) else {
            return Err(NetlistError::Parse {
                line,
                message: format!("sweep references unknown device '{}'", sw.device),
            });
        };
        let mut probe = ckt.devices()[idx].clone();
        for v in sw.values() {
            probe
                .set_param(sw.field.as_deref(), v)
                .map_err(|e| NetlistError::Parse {
                    line,
                    message: format!("sweep parameter '{}' at value {v}: {e}", sw.label()),
                })?;
        }
    }

    // `.options` applies deck-wide: stamp the chosen backend into every
    // analysis spec (each carries it so sweep jobs stay self-contained) —
    // except those whose directive pinned its own `solver=` key.
    if let Some(kind) = solver {
        for (a, explicit) in &mut analyses {
            if !*explicit {
                a.set_solver(kind);
            }
        }
    }

    Ok(Deck {
        circuit: ckt,
        names,
        analyses: analyses.into_iter().map(|(a, _)| a).collect(),
        sweeps: sweeps.into_iter().map(|(_, s)| s).collect(),
    })
}

/// A parsed directive line.
enum Directive {
    Analysis {
        spec: AnalysisSpec,
        /// The directive carried its own `solver=` key, which beats the
        /// deck-wide `.options` choice.
        solver_explicit: bool,
    },
    Sweep(SweepSpec),
    Options(LinearSolverKind),
}

/// Parses a per-directive `solver=` value, naming the directive in the
/// error message.
fn parse_solver_key(v: &str, directive: &str) -> Result<LinearSolverKind, String> {
    LinearSolverKind::parse(v).ok_or_else(|| {
        format!(
            "{directive}: unknown solver '{v}' ({})",
            LinearSolverKind::NAMES.join(", ")
        )
    })
}

/// Positional tokens and `key=value` options of one directive line.
type DirectiveArgs<'a> = (Vec<&'a str>, Vec<(&'a str, &'a str)>);

/// Splits directive arguments into leading positional tokens and trailing
/// `key=value` options, rejecting positionals after the first option.
fn split_args<'a>(args: &[&'a str]) -> Result<DirectiveArgs<'a>, String> {
    let mut positional = Vec::new();
    let mut options = Vec::new();
    for &tok in args {
        if let Some((k, v)) = tok.split_once('=') {
            if k.is_empty() || v.is_empty() {
                return Err(format!("malformed option '{tok}' (expected key=value)"));
            }
            options.push((k, v));
        } else if options.is_empty() {
            positional.push(tok);
        } else {
            return Err(format!(
                "positional argument '{tok}' after key=value options"
            ));
        }
    }
    Ok((positional, options))
}

fn parse_usize(v: &str, what: &str) -> Result<usize, String> {
    v.parse::<usize>()
        .map_err(|_| format!("cannot parse {what} '{v}' as an integer"))
}

/// Parsing of the step keys shared by the `.tran`/`.mpde`/`.wampde`
/// directives, over per-directive defaults. Each key is validated here
/// so every directive rejects a bad value with the same message (plus
/// its own line number).
impl StepKeys {
    /// Cross-field validation after all keys are applied, so a
    /// contradictory pair fails at parse time with the directive's line
    /// number instead of at run time without one.
    fn finish(&self) -> Result<(), String> {
        if self.dt_min > 0.0 && self.dt_max > 0.0 && self.dt_min > self.dt_max {
            return Err(format!(
                "dt_min {:e} exceeds dt_max {:e}",
                self.dt_min, self.dt_max
            ));
        }
        Ok(())
    }

    /// Applies one `key=value` option; `Ok(false)` means the key is not
    /// a step key and the directive should try its own table.
    fn apply(&mut self, k: &str, v: &str) -> Result<bool, String> {
        let positive = |v: f64, what: &str| -> Result<f64, String> {
            if v > 0.0 {
                Ok(v)
            } else {
                Err(format!("{what} must be positive"))
            }
        };
        let nonnegative = |v: f64, what: &str| -> Result<f64, String> {
            if v >= 0.0 {
                Ok(v)
            } else {
                Err(format!("{what} must not be negative"))
            }
        };
        match k {
            "dt" => self.dt = positive(parse_value(v)?, "dt")?,
            "rtol" => self.rtol = positive(parse_value(v)?, "rtol")?,
            "atol" => self.atol = positive(parse_value(v)?, "atol")?,
            "dt_min" => self.dt_min = nonnegative(parse_value(v)?, "dt_min")?,
            "dt_max" => self.dt_max = nonnegative(parse_value(v)?, "dt_max")?,
            "integrator" => {
                self.integrator = Scheme::parse(v)
                    .ok_or_else(|| format!("unknown integrator '{v}' (be, trap, bdf2)"))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

fn parse_directive(tokens: &[&str]) -> Result<Directive, String> {
    let keyword = tokens[0].to_ascii_lowercase();
    let args = &tokens[1..];
    match keyword.as_str() {
        ".tran" => {
            let (pos, opts) = split_args(args)?;
            let [t_stop] = pos[..] else {
                return Err(
                    "usage: .tran <tstop> [dt=<v>] [integrator=<s>] [rtol=<v>] [atol=<v>] \
                     [dt_min=<v>] [dt_max=<v>] [solver=<s>]"
                        .into(),
                );
            };
            let mut spec = TranSpec::new(parse_value(t_stop)?);
            let mut solver_explicit = false;
            for (k, v) in opts {
                if spec.step.apply(k, v).map_err(|e| format!(".tran: {e}"))? {
                    continue;
                }
                if k == "solver" {
                    spec.solver = parse_solver_key(v, ".tran")?;
                    solver_explicit = true;
                } else {
                    return Err(format!(
                        ".tran: unknown option '{k}' (dt, integrator, rtol, atol, dt_min, \
                         dt_max, solver)"
                    ));
                }
            }
            spec.step.finish().map_err(|e| format!(".tran: {e}"))?;
            if spec.t_stop <= 0.0 {
                return Err(".tran: tstop must be positive".into());
            }
            Ok(Directive::Analysis {
                spec: AnalysisSpec::Tran(spec),
                solver_explicit,
            })
        }
        ".shooting" => {
            let (pos, opts) = split_args(args)?;
            if !pos.is_empty() {
                return Err("usage: .shooting [steps=<n>] [phase_var=<k>] [solver=<s>]".into());
            }
            let mut spec = ShootingSpec {
                steps_per_period: 512,
                phase_var: 0,
                solver: LinearSolverKind::default(),
            };
            let mut solver_explicit = false;
            for (k, v) in opts {
                match k {
                    "steps" => spec.steps_per_period = parse_usize(v, "steps")?,
                    "phase_var" => spec.phase_var = parse_usize(v, "phase_var")?,
                    "solver" => {
                        spec.solver = parse_solver_key(v, ".shooting")?;
                        solver_explicit = true;
                    }
                    other => {
                        return Err(format!(
                            ".shooting: unknown option '{other}' (steps, phase_var, solver)"
                        ))
                    }
                }
            }
            Ok(Directive::Analysis {
                spec: AnalysisSpec::Shooting(spec),
                solver_explicit,
            })
        }
        ".mpde" => {
            let (pos, opts) = split_args(args)?;
            let [f1, t_stop] = pos[..] else {
                return Err("usage: .mpde <f1> <tstop> [harmonics=<n>] [node=<k>] \
                     [amp=<v>] [depth=<v>] [fmod=<v>] [dt=<v>] [integrator=<s>] \
                     [rtol=<v>] [atol=<v>] [dt_min=<v>] [dt_max=<v>] [solver=<s>]"
                    .into());
            };
            let f1_hz = parse_value(f1)?;
            if f1_hz <= 0.0 {
                return Err(".mpde: carrier frequency must be positive".into());
            }
            let mut spec = MpdeSpec::new(f1_hz, parse_value(t_stop)?);
            let mut solver_explicit = false;
            for (k, v) in opts {
                if spec.step.apply(k, v).map_err(|e| format!(".mpde: {e}"))? {
                    continue;
                }
                match k {
                    "harmonics" => spec.harmonics = parse_usize(v, "harmonics")?,
                    "node" => spec.node = parse_usize(v, "node")?,
                    "amp" => spec.amplitude = parse_value(v)?,
                    "depth" => spec.mod_depth = parse_value(v)?,
                    "fmod" => spec.mod_freq_hz = parse_value(v)?,
                    "solver" => {
                        spec.solver = parse_solver_key(v, ".mpde")?;
                        solver_explicit = true;
                    }
                    other => {
                        return Err(format!(
                            ".mpde: unknown option '{other}' (harmonics, node, amp, depth, \
                             fmod, dt, integrator, rtol, atol, dt_min, dt_max, solver)"
                        ))
                    }
                }
            }
            spec.step.finish().map_err(|e| format!(".mpde: {e}"))?;
            if spec.t_stop <= 0.0 {
                return Err(".mpde: tstop must be positive".into());
            }
            if spec.harmonics == 0 {
                // N0 = 2M+1 = 1 sample cannot represent the carrier.
                return Err(".mpde: harmonics must be at least 1".into());
            }
            Ok(Directive::Analysis {
                spec: AnalysisSpec::Mpde(spec),
                solver_explicit,
            })
        }
        ".wampde" => {
            let (pos, opts) = split_args(args)?;
            let [t_stop] = pos[..] else {
                return Err(
                    "usage: .wampde <tstop> [harmonics=<n>] [phase_var=<k>] [steps=<n>] \
                     [dt=<v>] [integrator=<s>] [rtol=<v>] [atol=<v>] [dt_min=<v>] [dt_max=<v>] \
                     [solver=<s>]"
                        .into(),
                );
            };
            let mut spec = WampdeSpec::new(parse_value(t_stop)?);
            let mut solver_explicit = false;
            for (k, v) in opts {
                if spec.step.apply(k, v).map_err(|e| format!(".wampde: {e}"))? {
                    continue;
                }
                match k {
                    "harmonics" => spec.harmonics = parse_usize(v, "harmonics")?,
                    "phase_var" => spec.phase_var = parse_usize(v, "phase_var")?,
                    "steps" => spec.shooting_steps = parse_usize(v, "steps")?,
                    "solver" => {
                        spec.solver = parse_solver_key(v, ".wampde")?;
                        solver_explicit = true;
                    }
                    other => {
                        return Err(format!(
                            ".wampde: unknown option '{other}' (harmonics, phase_var, steps, \
                             dt, integrator, rtol, atol, dt_min, dt_max, solver)"
                        ))
                    }
                }
            }
            spec.step.finish().map_err(|e| format!(".wampde: {e}"))?;
            if spec.t_stop <= 0.0 {
                return Err(".wampde: tstop must be positive".into());
            }
            if spec.harmonics == 0 {
                return Err(".wampde: harmonics must be at least 1".into());
            }
            Ok(Directive::Analysis {
                spec: AnalysisSpec::Wampde(spec),
                solver_explicit,
            })
        }
        ".sweep" => {
            let (pos, opts) = split_args(args)?;
            if !opts.is_empty() {
                return Err(".sweep takes no key=value options".into());
            }
            let (param, from, to, points, log) = match pos[..] {
                [param, from, to, points] => (param, from, to, points, false),
                [param, from, to, points, log_tok] if log_tok.eq_ignore_ascii_case("log") => {
                    (param, from, to, points, true)
                }
                _ => return Err("usage: .sweep <param> <from> <to> <points> [log]".into()),
            };
            let (device, field) = match param.split_once('.') {
                Some((d, f)) => (d.to_ascii_uppercase(), Some(f.to_ascii_lowercase())),
                None => (param.to_ascii_uppercase(), None),
            };
            let from = parse_value(from)?;
            let to = parse_value(to)?;
            let points = parse_usize(points, "points")?;
            if points == 0 {
                return Err(".sweep: points must be at least 1".into());
            }
            if log && (from <= 0.0 || to <= 0.0) {
                return Err(".sweep: log spacing requires positive bounds".into());
            }
            Ok(Directive::Sweep(SweepSpec {
                device,
                field,
                from,
                to,
                points,
                log,
            }))
        }
        ".options" => {
            let (pos, opts) = split_args(args)?;
            let names = LinearSolverKind::NAMES.join("|");
            if !pos.is_empty() {
                return Err(format!("usage: .options solver={names}"));
            }
            let mut solver_tok: Option<&str> = None;
            for (k, v) in opts {
                if k != "solver" {
                    return Err(format!(
                        ".options: unknown option '{k}' (the only key is solver, one of {})",
                        LinearSolverKind::NAMES.join(", ")
                    ));
                }
                solver_tok = Some(v);
            }
            let Some(tok) = solver_tok else {
                return Err(format!(".options requires solver=<{names}>"));
            };
            Ok(Directive::Options(parse_solver_key(tok, ".options")?))
        }
        other => Err(format!(
            "unknown directive '{other}' (.tran, .shooting, .mpde, .wampde, .sweep, .options)"
        )),
    }
}

fn one_value(args: &[&str]) -> Result<f64, String> {
    if args.len() != 1 {
        return Err(format!("expected one value, got {}", args.len()));
    }
    parse_value(args[0])
}

fn n_values(args: &[&str], n: usize) -> Result<Vec<f64>, String> {
    if args.len() != n {
        return Err(format!("expected {n} values, got {}", args.len()));
    }
    args.iter().map(|t| parse_value(t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dae::{check_jacobians, Dae};

    #[test]
    fn value_suffixes() {
        assert_eq!(parse_value("1k").unwrap(), 1e3);
        assert_eq!(parse_value("4.7u").unwrap(), 4.7e-6);
        assert_eq!(parse_value("1meg").unwrap(), 1e6);
        assert_eq!(parse_value("10p").unwrap(), 1e-11);
        assert_eq!(parse_value("2.2e-6").unwrap(), 2.2e-6);
        assert_eq!(parse_value("5").unwrap(), 5.0);
        assert_eq!(parse_value("-3m").unwrap(), -3e-3);
        assert!(parse_value("abc").is_err());
        assert!(parse_value("").is_err());
    }

    #[test]
    fn parses_rc_divider() {
        let dae = parse_netlist(
            "* divider\n\
             V1 in 0 DC(10)\n\
             R1 in out 1k\n\
             R2 out 0 1k ; load\n\
             C1 out 0 1u\n",
        )
        .unwrap();
        assert_eq!(dae.dim(), 3); // in, out, i(V1)
        let names = dae.var_names();
        assert!(names.iter().any(|n| n == "v(in)"));
        assert!(names.iter().any(|n| n == "v(out)"));
    }

    #[test]
    fn parses_paper_vco() {
        // The lc_vco preset expressed as text.
        let dae = parse_netlist(
            "C1 tank 0 4.503n\n\
             L1 tank 0 10u\n\
             GN1 tank 0 5m 1.667m\n",
        )
        .unwrap();
        assert_eq!(dae.dim(), 2);
        assert!(check_jacobians(&dae, &[1.0, -0.1]) < 1e-6);
    }

    #[test]
    fn parses_mems_card() {
        let dae = parse_netlist(
            "L1 tank 0 10u\n\
             GN1 tank 0 5m 1.667m\n\
             M1 tank 0 5n 1 1e-12 3e-7 2.47 0.121 DC(1.5)\n",
        )
        .unwrap();
        assert_eq!(dae.dim(), 4); // v, iL, y, u
        assert!(check_jacobians(&dae, &[0.5, 0.01, 0.1, 0.0]) < 1e-6);
    }

    #[test]
    fn parses_diode_card() {
        // Defaults, explicit values, and value suffixes all parse; the
        // exponential stamps must agree with finite differences.
        let dae = parse_netlist(
            "V1 in 0 DC(0.6)\n\
             R1 in a 100\n\
             D1 a 0 is=1e-15 n=1.8\n\
             D2 a 0\n",
        )
        .unwrap();
        assert!(check_jacobians(&dae, &[0.55, 0.5, 0.0]) < 1e-6);
        // A forward-biased diode conducts: di/dv at 0.5 V is far above
        // the reverse-bias conductance floor.
        let mut f0 = vec![0.0; dae.dim()];
        let mut f1 = vec![0.0; dae.dim()];
        dae.eval_f(&[0.6, 0.5, 0.0], &mut f0);
        dae.eval_f(&[0.6, 0.5 + 1e-6, 0.0], &mut f1);
        assert!((f1[1] - f0[1]) / 1e-6 > 1e-3);
    }

    #[test]
    fn diode_card_errors_carry_line_numbers() {
        for (deck, needle) in [
            ("R1 a 0 1k\nD1 a 0 1e-14\n", "key=value"),
            ("R1 a 0 1k\nD1 a 0 vj=0.7\n", "unknown diode option"),
            ("R1 a 0 1k\nD1 a 0 is=0\n", "must be positive"),
            ("R1 a 0 1k\nD1 a 0 n=-2\n", "must be positive"),
        ] {
            match parse_netlist(deck).unwrap_err() {
                NetlistError::Parse { line, message } => {
                    assert_eq!(line, 2, "{deck:?}");
                    assert!(message.contains(needle), "{message:?} for {deck:?}");
                }
                other => panic!("unexpected error {other} for {deck:?}"),
            }
        }
    }

    #[test]
    fn parses_sin_and_pulse_sources() {
        let dae = parse_netlist(
            "I1 0 a SIN(0 1m 1k)\n\
             R1 a 0 50\n\
             V1 b 0 PULSE(0 5 1u 10u 1u 100u)\n\
             R2 b a 1k\n",
        )
        .unwrap();
        let mut b = vec![0.0; dae.dim()];
        dae.eval_b(0.25e-3, &mut b); // sin peak at quarter period
        assert!(b.iter().any(|v| (v.abs() - 1e-3).abs() < 1e-12));
    }

    #[test]
    fn error_reports_line_number() {
        let err = parse_netlist("R1 a 0 1k\nQ1 a 0 bogus\n").unwrap_err();
        match err {
            NetlistError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn short_line_rejected() {
        assert!(matches!(
            parse_netlist("R1 a\n"),
            Err(NetlistError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn zero_resistance_rejected() {
        assert!(parse_netlist("R1 a 0 0\n").is_err());
    }

    #[test]
    fn floating_node_propagates_circuit_error() {
        // "b" referenced nowhere else, circuit validation must fire...
        // actually a single device connects it; build a truly floating one
        // via an unknown-only node list is impossible through the parser,
        // so check the empty-netlist case instead.
        assert!(matches!(
            parse_netlist("* nothing\n"),
            Err(NetlistError::Circuit(_))
        ));
    }

    #[test]
    fn gnd_alias() {
        let dae = parse_netlist("R1 a gnd 1k\nC1 a 0 1n\n").unwrap();
        assert_eq!(dae.dim(), 1);
    }

    #[test]
    fn waveform_bare_number_is_dc() {
        let dae = parse_netlist("I1 0 a 2m\nR1 a 0 1k\n").unwrap();
        let mut b = vec![0.0; 1];
        dae.eval_b(0.0, &mut b);
        assert!((b[0] - 2e-3).abs() < 1e-15);
    }

    #[test]
    fn duplicate_device_name_rejected() {
        let err = parse_netlist("R1 a 0 1k\nR1 a 0 2k\n").unwrap_err();
        match err {
            NetlistError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("duplicate"), "{message}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    const VCO_CARDS: &str = "L1  tank 0 10u\n\
                             GN1 tank 0 5m 1.667m\n\
                             M1  tank 0 5n 1 1e-12 3e-7 2.47 0.121 DC(1.5)\n";

    #[test]
    fn deck_parses_analyses_and_sweeps() {
        let deck = parse_deck(&format!(
            "{VCO_CARDS}.wampde 6u harmonics=5 steps=256\n\
             .shooting steps=128\n\
             .sweep M1.control 1.2 1.8 4\n"
        ))
        .unwrap();
        assert_eq!(deck.device_names(), &["L1", "GN1", "M1"]);
        assert_eq!(deck.analyses.len(), 2);
        match &deck.analyses[0] {
            crate::deck::AnalysisSpec::Wampde(w) => {
                assert!((w.t_stop - 6e-6).abs() < 1e-18);
                assert_eq!(w.harmonics, 5);
                assert_eq!(w.shooting_steps, 256);
            }
            other => panic!("unexpected analysis {other:?}"),
        }
        assert_eq!(deck.sweeps.len(), 1);
        assert_eq!(deck.sweeps[0].label(), "M1.control");
        assert_eq!(deck.sweeps[0].values().len(), 4);
    }

    #[test]
    fn deck_instantiate_applies_override() {
        let deck = parse_deck(&format!("{VCO_CARDS}.sweep M1.control 1.2 1.8 4\n")).unwrap();
        let dae = deck.instantiate(&[1.8]).unwrap();
        assert_eq!(dae.dim(), 4);
        // The MEMS force row b[3] = force_gain * v_ctl^2 must scale with
        // the overridden control voltage.
        let mut b_hi = vec![0.0; 4];
        dae.eval_b(0.0, &mut b_hi);
        let mut b_lo = vec![0.0; 4];
        deck.instantiate(&[1.2]).unwrap().eval_b(0.0, &mut b_lo);
        assert!(b_hi[3] > b_lo[3] * 2.0);
        // Mismatched value count is rejected.
        assert!(matches!(
            deck.instantiate(&[]),
            Err(NetlistError::Param { .. })
        ));
    }

    #[test]
    fn plain_netlist_rejects_directives() {
        let err = parse_netlist("R1 a 0 1k\nC1 a 0 1n\n.tran 1m\n").unwrap_err();
        match err {
            NetlistError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("parse_deck"), "{message}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn directive_errors_carry_line_numbers() {
        let cases: &[(&str, usize, &str)] = &[
            ("R1 a 0 1k\nC1 a 0 1n\n.tran\n", 3, "usage: .tran"),
            (
                "R1 a 0 1k\nC1 a 0 1n\n.frobnicate 1\n",
                3,
                "unknown directive",
            ),
            (
                "R1 a 0 1k\n.tran 1m cheese=5\nC1 a 0 1n\n",
                2,
                "unknown option",
            ),
            (".sweep R1 1 10\nR1 a 0 1k\nC1 a 0 1n\n", 1, "usage: .sweep"),
            (
                "R1 a 0 1k\nC1 a 0 1n\n.sweep R1 1k 10k 0\n",
                3,
                "at least 1",
            ),
            (
                "R1 a 0 1k\nC1 a 0 1n\n.sweep R1 -1 1 3 log\n",
                3,
                "log spacing",
            ),
            (
                "R1 a 0 1k\nC1 a 0 1n\n.sweep Q9 1 2 3\n",
                3,
                "unknown device",
            ),
            (
                "R1 a 0 1k\nC1 a 0 1n\n.sweep R1.bogus 1 2 3\n",
                3,
                "'bogus'",
            ),
            ("R1 a 0 1k\nC1 a 0 1n\n.tran 0\n", 3, "must be positive"),
            (
                "R1 a 0 1k\nC1 a 0 1n\n.wampde 1u harmonics=x\n",
                3,
                "integer",
            ),
            (
                "R1 a 0 1k\nC1 a 0 1n\n.mpde 1meg 1m harmonics=0\n",
                3,
                "at least 1",
            ),
            (
                "R1 a 0 1k\nC1 a 0 1n\n.options cheese=5\n",
                3,
                "unknown option 'cheese'",
            ),
            (
                "R1 a 0 1k\nC1 a 0 1n\n.options solver=qr\n",
                3,
                "unknown solver 'qr'",
            ),
            ("R1 a 0 1k\n.options\nC1 a 0 1n\n", 2, "requires solver="),
            (
                "R1 a 0 1k\nC1 a 0 1n\n.options dense\n",
                3,
                "usage: .options",
            ),
        ];
        for (text, want_line, want_msg) in cases {
            let err = parse_deck(text).unwrap_err();
            match err {
                NetlistError::Parse { line, message } => {
                    assert_eq!(line, *want_line, "text: {text:?}: {message}");
                    assert!(
                        message.contains(want_msg),
                        "text: {text:?}: message {message:?} missing {want_msg:?}"
                    );
                }
                other => panic!("unexpected error {other} for {text:?}"),
            }
        }
    }

    #[test]
    fn step_keys_parse_into_specs() {
        let deck = parse_deck(&format!(
            "{VCO_CARDS}.tran 1m dt=2u integrator=bdf2\n\
             .tran 1m integrator=be rtol=1e-4 atol=1e-10 dt_min=1n dt_max=10u\n\
             .wampde 6u harmonics=5 dt=20n integrator=trap\n\
             .mpde 1meg 2m rtol=2e-4 dt=5u\n"
        ))
        .unwrap();
        let names: Vec<_> = deck.analyses.iter().map(AnalysisSpec::name).collect();
        assert_eq!(names, ["tran", "tran", "wampde", "mpde"]);
        let step = |i: usize| *deck.analyses[i].step().unwrap();
        let t = step(0);
        assert_eq!(t.integrator, Scheme::Bdf2);
        assert!((t.dt - 2e-6).abs() < 1e-18);
        let t = step(1);
        assert_eq!(t.integrator, Scheme::BackwardEuler);
        assert_eq!(t.dt, 0.0); // adaptive
        assert!((t.rtol - 1e-4).abs() < 1e-18);
        assert!((t.atol - 1e-10).abs() < 1e-22);
        assert!((t.dt_min - 1e-9).abs() < 1e-21);
        assert!((t.dt_max - 1e-5).abs() < 1e-17);
        let w = step(2);
        assert_eq!(w.integrator, Scheme::Trapezoidal);
        assert!((w.dt - 20e-9).abs() < 1e-21);
        let m = step(3);
        assert_eq!(m.integrator, Scheme::BackwardEuler);
        assert!((m.rtol - 2e-4).abs() < 1e-18, "rtol enables adaptive");
        assert!((m.dt - 5e-6).abs() < 1e-18);
        // The step keys the CLI overrides write through.
        let mut deck = deck;
        let t = deck.analyses[0].step_mut().unwrap();
        t.integrator = Scheme::Trapezoidal;
        t.rtol = 3e-5;
        match &deck.analyses[0] {
            AnalysisSpec::Tran(t) => {
                assert_eq!(t.step.integrator, Scheme::Trapezoidal);
                assert!((t.step.rtol - 3e-5).abs() < 1e-19);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn step_key_errors_carry_line_numbers() {
        let cases: &[(&str, usize, &str)] = &[
            (
                "R1 a 0 1k\nC1 a 0 1n\n.tran 1m integrator=rk4\n",
                3,
                "unknown integrator 'rk4'",
            ),
            (
                "R1 a 0 1k\nC1 a 0 1n\n.wampde 1u rtol=-1\n",
                3,
                "rtol must be positive",
            ),
            (
                "R1 a 0 1k\nC1 a 0 1n\n.mpde 1meg 1m atol=0\n",
                3,
                "atol must be positive",
            ),
            (
                "R1 a 0 1k\nC1 a 0 1n\n.tran 1m dt_min=-1n\n",
                3,
                "dt_min must not be negative",
            ),
            ("R1 a 0 1k\nC1 a 0 1n\n.tran 1m dt=0\n", 3, "dt must be"),
            (
                "R1 a 0 1k\nC1 a 0 1n\n.tran 1m dt_min=1u dt_max=1n\n",
                3,
                "dt_min 1e-6 exceeds dt_max 1e-9",
            ),
            (
                "R1 a 0 1k\nC1 a 0 1n\n.wampde 1u dt_min=2n dt_max=1n\n",
                3,
                "exceeds dt_max",
            ),
        ];
        for (text, want_line, want_msg) in cases {
            let err = parse_deck(text).unwrap_err();
            match err {
                NetlistError::Parse { line, message } => {
                    assert_eq!(line, *want_line, "text: {text:?}: {message}");
                    assert!(
                        message.contains(want_msg),
                        "text: {text:?}: message {message:?} missing {want_msg:?}"
                    );
                }
                other => panic!("unexpected error {other} for {text:?}"),
            }
        }
    }

    #[test]
    fn options_directive_applies_to_every_analysis() {
        // Position-independent: the `.options` line sits between the two
        // analyses and still configures both.
        let deck = parse_deck(&format!(
            "{VCO_CARDS}.shooting steps=128\n\
             .options solver=klu\n\
             .wampde 1u harmonics=4\n"
        ))
        .unwrap();
        assert_eq!(deck.analyses.len(), 2);
        for a in &deck.analyses {
            assert_eq!(a.solver(), LinearSolverKind::Klu);
        }
    }

    #[test]
    fn per_directive_solver_key_parses_on_every_analysis() {
        let deck = parse_deck(&format!(
            "{VCO_CARDS}.tran 1m dt=2u solver=klu\n\
             .shooting steps=128 solver=dense\n\
             .mpde 1meg 2m solver=klu\n\
             .wampde 6u harmonics=5 solver=dense\n"
        ))
        .unwrap();
        assert_eq!(deck.analyses[0].solver(), LinearSolverKind::Klu);
        assert_eq!(deck.analyses[1].solver(), LinearSolverKind::Dense);
        assert_eq!(deck.analyses[2].solver(), LinearSolverKind::Klu);
        assert_eq!(deck.analyses[3].solver(), LinearSolverKind::Dense);
    }

    #[test]
    fn klu_parses_everywhere_and_retired_solver_names_fail() {
        // The KLU backend per-directive and deck-wide...
        let deck = parse_deck(&format!(
            "{VCO_CARDS}.tran 1m dt=2u solver=klu\n\
             .shooting steps=128\n\
             .options solver=klu\n\
             .wampde 6u harmonics=5\n"
        ))
        .unwrap();
        for analysis in &deck.analyses {
            assert_eq!(analysis.solver(), LinearSolverKind::Klu);
        }
        // ...while the retired backends and their `.options` keys are
        // line-numbered errors that name the backends there are, per
        // directive and deck-wide.
        let lines = VCO_CARDS.lines().count();
        for (directive, want) in [
            (
                ".shooting steps=128 solver=gmres-circulant",
                "unknown solver 'gmres-circulant'",
            ),
            (
                ".options solver=gmres-circulant",
                "unknown solver 'gmres-circulant'",
            ),
            (".shooting steps=128 solver=gmres", "unknown solver 'gmres'"),
            (".options solver=gmres", "unknown solver 'gmres'"),
            (
                ".options solver=klu gmres_tol=1e-9",
                "unknown option 'gmres_tol'",
            ),
            (
                ".options solver=klu gmres_restart=40",
                "unknown option 'gmres_restart'",
            ),
        ] {
            let text = format!("{VCO_CARDS}{directive}\n");
            match parse_deck(&text).unwrap_err() {
                NetlistError::Parse { line, message } => {
                    assert_eq!(line, lines + 1, "{directive}: {message}");
                    assert!(
                        message.contains(want) && message.contains("dense, klu)"),
                        "{directive}: {message}"
                    );
                }
                other => panic!("{directive}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn per_directive_solver_key_beats_options_in_both_orders() {
        // `.options` after the directive must not clobber the explicit
        // per-analysis key...
        let deck = parse_deck(&format!(
            "{VCO_CARDS}.wampde 6u harmonics=5 solver=dense\n\
             .shooting steps=128\n\
             .options solver=klu\n"
        ))
        .unwrap();
        assert_eq!(deck.analyses[0].solver(), LinearSolverKind::Dense);
        assert_eq!(deck.analyses[1].solver(), LinearSolverKind::Klu);
        // ...nor when it comes first.
        let deck = parse_deck(&format!(
            "{VCO_CARDS}.options solver=klu\n\
             .wampde 6u harmonics=5 solver=dense\n\
             .shooting steps=128\n"
        ))
        .unwrap();
        assert_eq!(deck.analyses[0].solver(), LinearSolverKind::Dense);
        assert_eq!(deck.analyses[1].solver(), LinearSolverKind::Klu);
    }

    #[test]
    fn per_directive_solver_key_errors_carry_line_numbers() {
        let cases: &[(&str, usize, &str)] = &[
            (
                "R1 a 0 1k\nC1 a 0 1n\n.tran 1m solver=qr\n",
                3,
                ".tran: unknown solver 'qr'",
            ),
            (
                "R1 a 0 1k\nC1 a 0 1n\n.shooting solver=lu\n",
                3,
                ".shooting: unknown solver 'lu'",
            ),
            (
                "R1 a 0 1k\nC1 a 0 1n\n.mpde 1meg 1m solver=cholesky\n",
                3,
                ".mpde: unknown solver 'cholesky'",
            ),
            (
                "R1 a 0 1k\nC1 a 0 1n\n.wampde 1u solver=qr\n",
                3,
                ".wampde: unknown solver 'qr'",
            ),
            // The natural-order kernel is no longer a backend; the error
            // names the ones that are.
            (
                "R1 a 0 1k\nC1 a 0 1n\n.tran 1m solver=sparselu\n",
                3,
                ".tran: unknown solver 'sparselu' (dense, klu)",
            ),
        ];
        for (text, want_line, want_msg) in cases {
            let err = parse_deck(text).unwrap_err();
            match err {
                NetlistError::Parse { line, message } => {
                    assert_eq!(line, *want_line, "text: {text:?}: {message}");
                    assert!(
                        message.contains(want_msg),
                        "text: {text:?}: message {message:?} missing {want_msg:?}"
                    );
                }
                other => panic!("unexpected error {other} for {text:?}"),
            }
        }
    }

    #[test]
    fn options_default_is_dense_and_last_line_wins() {
        let deck = parse_deck(&format!("{VCO_CARDS}.shooting\n")).unwrap();
        assert_eq!(deck.analyses[0].solver(), LinearSolverKind::Dense);
        let deck = parse_deck(&format!(
            "{VCO_CARDS}.options solver=dense\n\
             .shooting\n\
             .options solver=klu\n"
        ))
        .unwrap();
        assert_eq!(deck.analyses[0].solver(), LinearSolverKind::Klu);
    }

    #[test]
    fn sweep_zero_resistance_grid_point_rejected_at_parse() {
        // from = 0 would produce an invalid resistor at the first grid
        // point; the parser catches it with the directive's line number.
        let err = parse_deck("R1 a 0 1k\nC1 a 0 1n\n.sweep R1 0 10k 3\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 3, .. }), "{err}");
        // An *interior* grid point through zero is caught too (endpoints
        // alone would pass: -1k and 1k are both valid resistances).
        let err = parse_deck("R1 a 0 1k\nC1 a 0 1n\n.sweep R1 -1k 1k 3\n").unwrap_err();
        match err {
            NetlistError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("nonzero"), "{message}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn netlist_error_source_chains_circuit_error() {
        use std::error::Error;
        let err = parse_netlist("* nothing\n").unwrap_err();
        assert!(err.source().is_some());
        let err = parse_netlist("R1 a\n").unwrap_err();
        assert!(err.source().is_none());
    }
}
