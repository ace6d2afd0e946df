//! `sweep_ladder_chain`: a `.shooting steps=64` sweep of `M1.control` on
//! a 16-stage RC ladder loading a MEMS varactor VCO, `solver=klu`, run
//! as one continuation chain through `sweepkit::run_deck_with` at the
//! `wampde-cli` defaults (one job, warm starts on, no result cache)
//! except the per-solve thread count, which the timed passes pin to one
//! (see [`LadderChain::solver_threads`]).
//!
//! The wrapped pass drives the generic entry point
//! (`shooting::run_shooting_spec_warm`) on `deck.instantiate(..)`
//! through the timing wrapper, under a `linsolve::CoreBudget` and
//! `linsolve::SharedSymbolic` set up as the sweep executor sets them up
//! for its worker, so it must reproduce the deck run bit for bit.

use crate::profile::Profiler;
use crate::timed::Timed;
use crate::util::Rng;
use crate::{Bench, Outcome, Reference, ThreadProbe};
use circuitdae::{AnalysisSpec, Deck, ShootingSpec};
use shooting::ShootingWarmStart;
use std::io;
use std::sync::Arc;
use std::time::Instant;
use sweepkit::{run_deck_with, SweepConfig, SweepOutcome};

/// RC ladder stages loading the tank.
pub const STAGES: usize = 16;
/// Shooting steps per period of the deck.
pub const SHOOTING_STEPS: usize = 64;
/// Shooting steps per period of the reference orbit.
pub const REFERENCE_SHOOTING_STEPS: usize = 512;
/// Width of the `M1.control` sweep (V).
pub const SWEEP_WIDTH: f64 = 0.6;
/// Largest accepted frequency deviation from the reference shoot.
pub const REL_ERR_GATE: f64 = 1e-2;
/// Chain positions of the thread probe's smaller instance.
pub const PROBE_POINTS: usize = 6;

/// The workload: one continuation chain of `points` positions.
#[derive(Debug, Clone, Copy)]
pub struct LadderChain {
    /// Generator seed.
    pub seed: u64,
    /// Chain positions (one op each).
    pub points: usize,
    /// `SweepConfig::solver_threads`. The timed passes use 1: at the
    /// automatic default (0) every parallel section spawns threads,
    /// and the time that takes follows how a shared host schedules the
    /// virtual cores — on a 2-vCPU x86-64 container the same warm point
    /// measured 160 ms and 500 ms twenty minutes apart — so no bounded
    /// metric could hold. [`Bench::thread_probe`] measures the
    /// automatic policy.
    pub solver_threads: usize,
}

/// The parsed deck and its grid.
pub struct Prepared {
    /// The deck.
    pub deck: Deck,
    /// Its sweep grid, one value vector per chain position.
    pub grid: Vec<Vec<f64>>,
    /// Time `parse_deck` took (s).
    pub parse_s: f64,
}

/// What the accuracy check needs from a run: the last chain point's
/// oscillation frequency (Hz).
pub struct Check {
    /// Frequency.
    pub freq_hz: f64,
}

/// The deck text, drawn from `seed`: the ladder's R and C values within
/// ±5 % of 10 kΩ and 1 pF, and the sweep interval's start in
/// [1.1, 1.3] V. The interval always spans [`SWEEP_WIDTH`], so the
/// continuation step — which sets the warm points' Newton work — does
/// not depend on the seed.
pub fn deck_text(seed: u64, points: usize) -> String {
    let mut rng = Rng::new(seed);
    let mut s = format!(
        "* sweep_ladder_chain seed {seed}: {STAGES}-stage RC ladder loading a MEMS varactor VCO\n\
         L1 tank 0 10u\n\
         GN1 tank 0 5m 1.667m\n\
         M1 tank 0 5n 1 1e-12 3e-7 2.47 0.121 DC(1.5)\n"
    );
    let mut prev = "tank".to_string();
    for k in 0..STAGES {
        let node = format!("ld{k}");
        s.push_str(&format!(
            "R{} {prev} {node} {:e}\nC{} {node} 0 {:e}\n",
            k + 2,
            rng.around(10e3, 0.05),
            k + 2,
            rng.around(1e-12, 0.05)
        ));
        prev = node;
    }
    let from = rng.uniform(1.1, 1.3);
    s.push_str(&format!(
        ".options solver=klu\n.shooting steps={SHOOTING_STEPS}\n\
         .sweep M1.control {from:e} {:e} {points}\n",
        from + SWEEP_WIDTH
    ));
    s
}

/// The JSONL sink handed to `run_deck_with`: it timestamps every line,
/// i.e. every chain position as the executor reports it complete.
struct StampSink {
    t0: Instant,
    stamps: Vec<f64>,
}

impl io::Write for StampSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let now = self.t0.elapsed().as_secs_f64();
        self.stamps
            .extend(buf.iter().filter(|&&b| b == b'\n').map(|_| now));
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The core budget `sweepkit::run_deck_with` builds for one worker.
fn sweep_budget(solver_threads: usize) -> linsolve::CoreBudget {
    let cores = linsolve::resolve_thread_count(0);
    if solver_threads == 0 {
        linsolve::CoreBudget::new(cores, cores)
    } else {
        linsolve::CoreBudget::new(cores.max(solver_threads), solver_threads)
    }
}

fn sane_freq(f: f64) -> bool {
    f.is_finite() && (0.3e6..3.0e6).contains(&f)
}

fn shooting_spec(deck: &Deck) -> Result<&ShootingSpec, String> {
    match deck.analyses.first() {
        Some(AnalysisSpec::Shooting(s)) => Ok(s),
        _ => Err("the deck must hold one .shooting analysis".into()),
    }
}

impl LadderChain {
    /// The deck run: the program's own path.
    fn run_deck(&self, p: &Prepared) -> Outcome<Check> {
        let mut out = Outcome::new(p.grid.len());
        let config = SweepConfig {
            jobs: 1,
            shards: 1,
            warm_start: true,
            solver_threads: self.solver_threads,
            ..SweepConfig::default()
        };
        let mut sink = StampSink {
            t0: Instant::now(),
            stamps: Vec::new(),
        };
        let res = run_deck_with(&p.deck, &config, Some(&mut sink));
        out.wall_s = sink.t0.elapsed().as_secs_f64();
        let mut prev = 0.0;
        for &t in &sink.stamps {
            out.op_ms.push((t - prev) * 1e3);
            prev = t;
        }
        match res {
            Ok(run) => absorb_outcome(&run.outcome, &mut out),
            Err(e) => out.errors.push(format!("sweep: {e}")),
        }
        out
    }

    /// The wrapped run: the generic entry point on instantiated circuits,
    /// through [`Timed`], set up as the sweep executor sets up its worker.
    fn run_direct(&self, p: &Prepared) -> Outcome<Check> {
        let mut out = Outcome::new(p.grid.len());
        let spec = match shooting_spec(&p.deck) {
            Ok(s) => s,
            Err(e) => {
                out.errors.push(e);
                return out;
            }
        };
        let budget = sweep_budget(self.solver_threads);
        let _core = budget.occupy(1);
        let _budget = budget.install();
        let shared = linsolve::SharedSymbolic::new();
        let _symbolic = shared.install();
        let mut warm: Option<ShootingWarmStart> = None;
        let t_all = Instant::now();
        for (k, values) in p.grid.iter().enumerate() {
            let t0 = Instant::now();
            let res = {
                let _op = obskit::span_with("op", &[("kind", obskit::AttrValue::Str("shooting"))]);
                p.deck
                    .instantiate(values)
                    .map_err(|e| e.to_string())
                    .and_then(|dae| {
                        shooting::run_shooting_spec_warm(&Timed(&dae), spec, warm.as_ref())
                            .map_err(|e| e.to_string())
                    })
            };
            out.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match res {
                Ok((orbit, stats)) => {
                    out.completed += 1;
                    out.newton_iters += stats.newton_iters as u64;
                    out.digest.push(orbit.period);
                    for x in &orbit.samples {
                        out.digest.extend(x);
                    }
                    let freq_hz = orbit.frequency();
                    out.sane &= sane_freq(freq_hz);
                    out.check = Some(Check { freq_hz });
                    warm = Some(ShootingWarmStart::from_orbit(&orbit));
                }
                Err(e) => {
                    // No converged state to continue from: the executor
                    // drops the rest of the chain too.
                    out.errors.push(format!("point {k}: {e}"));
                    break;
                }
            }
        }
        out.wall_s = t_all.elapsed().as_secs_f64();
        out
    }
}

/// Digests a deck outcome the way [`LadderChain::run_direct`] digests
/// its orbits: the period, then every orbit sample.
fn absorb_outcome(o: &SweepOutcome, out: &mut Outcome<Check>) {
    let metric = |rec: &sweepkit::RunRecord, name: &str| {
        rec.result
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    for rec in &o.runs {
        out.completed += 1;
        out.newton_iters += metric(rec, "newton_iters") as u64;
        out.digest.push(metric(rec, "period_s"));
        for row in &rec.result.rows {
            out.digest.extend(&row[1..]);
        }
        let freq_hz = metric(rec, "freq_hz");
        out.sane &= sane_freq(freq_hz);
        out.check = Some(Check { freq_hz });
    }
}

/// The chain's last point shot cold, serially, with
/// [`REFERENCE_SHOOTING_STEPS`] steps per period: its frequency (Hz).
///
/// # Errors
///
/// Any solver failure, as text.
pub fn reference_frequency(p: &Prepared) -> Result<f64, String> {
    let spec = ShootingSpec {
        steps_per_period: REFERENCE_SHOOTING_STEPS,
        ..*shooting_spec(&p.deck)?
    };
    let last = p.grid.last().ok_or("empty grid")?;
    let dae = p.deck.instantiate(last).map_err(|e| e.to_string())?;
    shooting::run_shooting_spec(&dae, &spec)
        .map(|orbit| orbit.frequency())
        .map_err(|e| e.to_string())
}

impl Bench for LadderChain {
    type Prepared = Prepared;
    type Check = Check;

    fn input_text(&self) -> String {
        deck_text(self.seed, self.points)
    }

    fn setup(&self) -> Result<Prepared, String> {
        let text = self.input_text();
        let t0 = Instant::now();
        let deck = circuitdae::parse_deck(&text).map_err(|e| e.to_string())?;
        let parse_s = t0.elapsed().as_secs_f64();
        let grid = sweepkit::expand_grid(&deck.sweeps);
        deck.instantiate(&grid[0]).map_err(|e| e.to_string())?;
        Ok(Prepared {
            deck,
            grid,
            parse_s,
        })
    }

    fn parse_s(&self, p: &Prepared) -> f64 {
        p.parse_s
    }

    fn run(&self, p: &Prepared, wrapped: bool) -> Outcome<Check> {
        if wrapped {
            self.run_direct(p)
        } else {
            self.run_deck(p)
        }
    }

    fn reference(&self, p: &Prepared, check: &Check) -> Result<Reference, String> {
        let t0 = Instant::now();
        let f_ref = reference_frequency(p)?;
        Ok(Reference {
            rel_err: (check.freq_hz - f_ref).abs() / f_ref,
            seconds: t0.elapsed().as_secs_f64(),
            headline_speedup: 0.0,
        })
    }

    fn rel_err_gate(&self) -> f64 {
        REL_ERR_GATE
    }

    fn solver_cap(&self) -> usize {
        sweep_budget(self.solver_threads).solver_cap()
    }

    fn thread_probe(&self) -> Option<ThreadProbe> {
        let traced = |solver_threads| {
            let b = LadderChain {
                points: PROBE_POINTS,
                solver_threads,
                ..*self
            };
            let prof = Arc::new(Profiler::new());
            let out = {
                let _g = obskit::install(prof.clone());
                b.setup().map(|p| b.run(&p, false))
            };
            (out, prof.snapshot())
        };
        let (serial, _) = traced(1);
        let (auto, profile) = traced(0);
        let (serial, auto) = (serial.ok()?, auto.ok()?);
        Some(ThreadProbe {
            serial_s: serial.wall_s,
            auto_s: auto.wall_s,
            identical: serial.digest == auto.digest && serial.failed() == 0 && auto.failed() == 0,
            auto_profile: profile,
        })
    }
}
