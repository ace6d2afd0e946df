//! The one step loop: propose → predict → solve → LTE → accept/reject.

use crate::{History, HistoryPoint, Scheme, StepCoeffs, StepController, StepVerdict, Tolerance};
use obskit::RunStats;
use std::ops::ControlFlow;

/// One attempted step, as [`drive`] hands it to a [`StepSystem`].
#[derive(Debug, Clone, Copy)]
pub struct Step<'a> {
    /// The step's end time.
    pub t_new: f64,
    /// The step size: `t_new` is the last accepted time plus `h`.
    pub h: f64,
    /// The scheme's coefficients for this step.
    pub coeffs: StepCoeffs,
    /// The charge-history term `Σᵢ aᵢ·q_histᵢ / h` of
    /// [`Scheme::step_coeffs`].
    pub qlin: &'a [f64],
    /// The adaptive controller's error tolerance (`None` under a fixed
    /// step). A solve may converge in its weights, DASSL's way
    /// ([`Tolerance::newton_norm`]): solving much tighter than the LTE
    /// the step is judged by buys nothing.
    pub tol: Option<Tolerance>,
}

/// What a solver supplies to [`drive`]: the implicit solve of one step
/// and the bookkeeping of an accepted one. [`drive`] owns everything
/// else (step proposal, predictor, LTE, accept/reject, history).
pub trait StepSystem {
    /// The solver's error type.
    type Error;

    /// Name of the time attribute of the `time-step` span (`t` for a
    /// transient, `t2` for an envelope).
    const TIME_ATTR: &'static str;

    /// Solves the step residual
    /// `a0h·q(z) + qlin + θ·g(z, t_new) + (1 − θ)·g_prev = 0` in place on
    /// `z`, which holds the predictor seed on entry. The solve meters its
    /// own Newton work into `stats`, and an error it returns carries the
    /// step's end time `t_new`.
    ///
    /// # Errors
    ///
    /// The solver's own failure (Newton non-convergence, a singular
    /// matrix, …). [`drive`] retries the step smaller and returns the
    /// error once the step is at its minimum.
    fn solve(
        &mut self,
        step: &Step<'_>,
        z: &mut [f64],
        stats: &mut RunStats,
    ) -> Result<(), Self::Error>;

    /// Records the accepted point `z` at `step.t_new` and writes its charge
    /// vector `q(z)` into `q` for the history. Returning
    /// [`ControlFlow::Break`] ends the run at this point, before `t_end`:
    /// the point is recorded and [`drive`] returns `Ok`.
    ///
    /// # Errors
    ///
    /// Any error ends the run and is returned by [`drive`].
    fn accept(
        &mut self,
        step: &Step<'_>,
        z: &[f64],
        q: &mut [f64],
    ) -> Result<ControlFlow<()>, Self::Error>;

    /// The solver's step-too-small error at time `at_time` with working
    /// step `step`.
    fn step_too_small(&self, at_time: f64, step: f64) -> Self::Error;
}

/// Steps `sys` from the accepted point `start` to `t_end` under `scheme`
/// and the controller `ctl`, counting accepted and rejected attempts into
/// `stats.steps` / `stats.rejected`.
///
/// Every attempt runs in a `time-step` span with attributes
/// [`StepSystem::TIME_ATTR`] (the end time), `h` and `accepted`. Each
/// attempt is seeded with the history's prediction, or else the last
/// accepted `z`. With a prediction in hand and adaptive control, the
/// LTE of the full `z` against it judges the step; a fixed step, or the
/// first step, is accepted unconditionally. The run ends at `t_end`, or
/// earlier at the first accepted point whose [`StepSystem::accept`]
/// returned [`ControlFlow::Break`].
///
/// # Errors
///
/// * the solver's own error when a solve fails at the minimum step (after
///   one attempt at that floor);
/// * [`StepSystem::step_too_small`] at the last accepted time when
///   adaptive control underflows after a converged solve, or when the
///   attempt budget ([`StepController::attempt_budget`]) is exhausted;
/// * the first error [`StepSystem::accept`] returns.
pub fn drive<S: StepSystem>(
    sys: &mut S,
    scheme: Scheme,
    mut ctl: StepController,
    start: HistoryPoint,
    t_end: f64,
    stats: &mut RunStats,
) -> Result<(), S::Error> {
    let span = t_end - start.t;
    let max_attempts = ctl.attempt_budget(span);
    let (z_len, q_len) = (start.z.len(), start.q.len());
    let mut t = start.t;
    let mut hist = History::new(3);
    hist.push(start.t, start.z, start.q);
    let mut qlin = vec![0.0; q_len];
    // The iterate and the prediction live in two buffers for the whole
    // run; once the history is full, each accepted step's `z` and `q` go
    // into it and the evicted point's vectors come back for reuse.
    let mut z = vec![0.0; z_len];
    let mut pred = vec![0.0; z_len];
    let mut evicted: Option<HistoryPoint> = None;

    while t < t_end - 1e-15 * span {
        if stats.steps + stats.rejected > max_attempts {
            return Err(sys.step_too_small(t, ctl.h()));
        }
        let h = ctl.propose(t, t_end);
        let t_new = t + h;
        let step_span = obskit::span("time-step");
        step_span.attr(S::TIME_ATTR, t_new);
        step_span.attr("h", h);

        let coeffs = scheme.step_coeffs(h, &hist, &mut qlin);
        let predicted = hist.predict(t_new, &mut pred);
        z.copy_from_slice(if predicted {
            &pred
        } else {
            &hist.latest().expect("history is seeded").z
        });
        let step = Step {
            t_new,
            h,
            coeffs,
            qlin: &qlin,
            tol: ctl.tolerance(),
        };
        let solved = sys.solve(&step, &mut z, stats);
        let solved_ok = solved.is_ok();
        let accept = match solved {
            Ok(()) if predicted && ctl.adaptive() => ctl.judge(h, &z, &pred) == StepVerdict::Accept,
            // Fixed step, or no history yet: accept the step.
            Ok(()) => true,
            Err(e) => {
                if ctl.at_min(h) {
                    return Err(e);
                }
                ctl.reject_failure(h);
                false
            }
        };

        step_span.attr("accepted", accept);
        if accept {
            let (z_free, mut q) = match evicted.take() {
                Some(old) => (old.z, old.q),
                None => (vec![0.0; z_len], vec![0.0; q_len]),
            };
            q.fill(0.0);
            let flow = sys.accept(&step, &z, &mut q)?;
            let z_accepted = std::mem::replace(&mut z, z_free);
            evicted = hist.push(t_new, z_accepted, q);
            stats.steps += 1;
            t = t_new;
            if flow.is_break() {
                break;
            }
        } else {
            stats.rejected += 1;
            // An LTE rejection already driven to the minimum step cannot
            // be satisfied; a failed solve gets one retry *at* the minimum
            // before its error propagates.
            if solved_ok && ctl.underflowed() {
                return Err(sys.step_too_small(t, ctl.h()));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scale, StepPolicy};

    #[derive(Debug, PartialEq)]
    enum Fail {
        Solve(f64),
        Accept(f64),
        TooSmall { at: f64, step: f64 },
    }

    /// y' = −y with `q(y) = y`, `g(y) = y`: one step solves
    /// `a0h·y + qlin + θ·y + (1 − θ)·y_prev = 0`. Knobs make the solve
    /// fail, jitter its answer, or make the accept hook fail.
    #[derive(Default)]
    struct Decay {
        y_prev: f64,
        fail_solve: bool,
        jitter: f64,
        fail_accept_after: Option<usize>,
        stop_after: Option<usize>,
        tried: Vec<f64>,
        tols: Vec<Option<Tolerance>>,
        ts: Vec<f64>,
    }

    impl StepSystem for Decay {
        type Error = Fail;
        const TIME_ATTR: &'static str = "t";

        fn solve(&mut self, step: &Step<'_>, z: &mut [f64], _: &mut RunStats) -> Result<(), Fail> {
            self.tried.push(step.h);
            self.tols.push(step.tol);
            if self.fail_solve {
                return Err(Fail::Solve(step.t_new));
            }
            let StepCoeffs { a0h, theta } = step.coeffs;
            z[0] = -(step.qlin[0] + (1.0 - theta) * self.y_prev) / (a0h + theta);
            // Alternating sign: the predictor can never catch up with it.
            self.jitter = -self.jitter;
            z[0] += self.jitter;
            Ok(())
        }

        fn accept(
            &mut self,
            step: &Step<'_>,
            z: &[f64],
            q: &mut [f64],
        ) -> Result<ControlFlow<()>, Fail> {
            if self.fail_accept_after == Some(self.ts.len()) {
                return Err(Fail::Accept(step.t_new));
            }
            self.y_prev = z[0];
            q[0] = z[0];
            self.ts.push(step.t_new);
            Ok(if self.stop_after == Some(self.ts.len()) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            })
        }

        fn step_too_small(&self, at: f64, step: f64) -> Fail {
            Fail::TooSmall { at, step }
        }
    }

    fn run(
        sys: &mut Decay,
        policy: StepPolicy,
        t0: f64,
        t_end: f64,
    ) -> (Result<(), Fail>, RunStats) {
        sys.y_prev = 1.0;
        let ctl = policy
            .resolve(t_end - t0, Scheme::BackwardEuler.order())
            .unwrap();
        let start = HistoryPoint {
            t: t0,
            z: vec![1.0],
            q: vec![1.0],
        };
        let mut stats = RunStats::default();
        let res = drive(sys, Scheme::BackwardEuler, ctl, start, t_end, &mut stats);
        (res, stats)
    }

    fn bounded(dt_init: f64, dt_min: f64) -> StepPolicy {
        StepPolicy::Adaptive {
            rtol: 1e-6,
            atol: 1e-9,
            dt_init,
            dt_min,
            dt_max: 0.0,
        }
    }

    #[test]
    fn adaptive_run_reaches_the_end_on_the_exact_decay() {
        let mut sys = Decay::default();
        let (res, stats) = run(&mut sys, StepPolicy::adaptive(1e-4, 1e-9), 0.0, 1.0);
        res.unwrap();
        assert_eq!(*sys.ts.last().unwrap(), 1.0);
        assert_eq!(stats.steps, sys.ts.len());
        assert!(
            (sys.y_prev - (-1.0f64).exp()).abs() < 1e-2,
            "{}",
            sys.y_prev
        );
    }

    #[test]
    fn the_solve_sees_the_controllers_tolerance_only_when_adaptive() {
        let mut sys = Decay::default();
        run(&mut sys, StepPolicy::Fixed(0.1), 0.0, 1.0).0.unwrap();
        assert!(sys.tols.iter().all(Option::is_none));

        let mut sys = Decay::default();
        run(&mut sys, StepPolicy::adaptive(1e-4, 1e-9), 0.0, 1.0)
            .0
            .unwrap();
        let tol = Tolerance {
            rtol: 1e-4,
            atol: 1e-9,
            scale: Scale::Entry,
        };
        assert!(!sys.tols.is_empty());
        assert!(sys.tols.iter().all(|t| *t == Some(tol)));
    }

    #[test]
    fn a_solve_failing_at_the_floor_returns_its_own_error() {
        let mut sys = Decay {
            fail_solve: true,
            ..Default::default()
        };
        let (res, stats) = run(&mut sys, bounded(0.1, 0.01), 0.0, 1.0);
        // 0.1 → 0.025 → the 0.01 floor, tried once, then the error.
        assert_eq!(sys.tried, vec![0.1, 0.025, 0.01]);
        assert_eq!(res, Err(Fail::Solve(0.01)));
        assert_eq!((stats.steps, stats.rejected), (0, 2));
    }

    #[test]
    fn an_unmeetable_lte_is_step_too_small_at_the_last_accepted_time() {
        let mut sys = Decay {
            jitter: 1e-3,
            ..Default::default()
        };
        let (res, stats) = run(&mut sys, bounded(0.001, 1e-4), 0.0, 1.0);
        // The first step has no prediction and is accepted; every later
        // attempt misses by the jitter until the step hits the floor.
        assert_eq!(sys.ts, vec![0.001]);
        assert_eq!(
            res,
            Err(Fail::TooSmall {
                at: 0.001,
                step: 1e-4
            })
        );
        assert_eq!(stats.steps, 1);
        assert!(stats.rejected >= 1);
    }

    #[test]
    fn a_step_below_the_time_resolution_exhausts_the_attempt_budget() {
        // At t = 1e6 a 1e-11 step rounds away (t + h == t): nothing
        // advances and only the attempt budget ends the run.
        let mut sys = Decay::default();
        let (t0, t_end) = (1.0e6, 1.0e6 + 1.0e-8);
        let policy = StepPolicy::Fixed(1e-11);
        let budget = policy
            .resolve(t_end - t0, 1)
            .unwrap()
            .attempt_budget(t_end - t0);
        let (res, stats) = run(&mut sys, policy, t0, t_end);
        assert_eq!(
            res,
            Err(Fail::TooSmall {
                at: t0,
                step: 1e-11
            })
        );
        assert_eq!((stats.steps, stats.rejected), (budget + 1, 0));
        assert!(sys.ts.iter().all(|&t| t == t0));
    }

    #[test]
    fn an_accept_hook_error_ends_the_run() {
        let mut sys = Decay {
            fail_accept_after: Some(3),
            ..Default::default()
        };
        let (res, stats) = run(&mut sys, StepPolicy::Fixed(0.1), 0.0, 1.0);
        assert_eq!(sys.ts.len(), 3);
        assert!(matches!(res, Err(Fail::Accept(t)) if (t - 0.4).abs() < 1e-12));
        assert_eq!(sys.tried.len(), 4);
        assert_eq!(stats.steps, 3);
    }

    #[test]
    fn an_accept_hook_break_ends_the_run_after_recording_its_point() {
        let mut sys = Decay {
            stop_after: Some(3),
            ..Default::default()
        };
        let (res, stats) = run(&mut sys, StepPolicy::Fixed(0.1), 0.0, 1.0);
        res.unwrap();
        assert_eq!(sys.ts.len(), 3);
        assert!((sys.ts[2] - 0.3).abs() < 1e-12, "{:?}", sys.ts);
        assert_eq!(sys.tried.len(), 3);
        assert_eq!((stats.steps, stats.rejected), (3, 0));
    }

    #[test]
    fn fixed_steps_accept_unconditionally() {
        // A jitter no adaptive tolerance would pass.
        let mut sys = Decay {
            jitter: 0.5,
            ..Default::default()
        };
        let (res, stats) = run(&mut sys, StepPolicy::Fixed(0.1), 0.0, 1.0);
        res.unwrap();
        assert_eq!((stats.steps, stats.rejected), (10, 0));
        assert_eq!(sys.tried.len(), 10);
        assert_eq!(*sys.ts.last().unwrap(), 1.0);
    }
}
