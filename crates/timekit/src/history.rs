//! Accepted-point history: the polynomial predictor ring.

/// One accepted time point.
#[derive(Debug, Clone)]
pub struct HistoryPoint {
    /// Time of acceptance.
    pub t: f64,
    /// The solver's full unknown vector at `t` (may carry extra
    /// unknowns beyond the state, e.g. the WaMPDE's `ω`).
    pub z: Vec<f64>,
    /// The charge vector `q` at `t`, consumed by
    /// [`crate::Scheme::step_coeffs`]. Its length may differ from
    /// `z`'s (bordered systems append unknowns that carry no charge).
    pub q: Vec<f64>,
}

/// Ring of the most recent accepted points (newest last), backing both
/// the Newton predictor and the predictor–corrector LTE estimate.
///
/// The predictor extrapolates `z` polynomially: quadratic through three
/// points when available — one order above BDF2, so the
/// predictor–corrector difference estimates the corrector's LTE —
/// linear through two, `None` before that (first step: no estimate,
/// accept unconditionally).
#[derive(Debug, Clone)]
pub struct History {
    entries: Vec<HistoryPoint>,
    cap: usize,
}

impl History {
    /// An empty history keeping at most `cap` points (the stepping
    /// loops use 3: enough for the quadratic predictor and BDF2).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 2, "history must hold at least two points");
        History {
            entries: Vec::with_capacity(cap),
            cap,
        }
    }

    /// Records an accepted point, evicting the oldest beyond `cap`, and
    /// returns the evicted point so its vectors can be reused.
    pub fn push(&mut self, t: f64, z: Vec<f64>, q: Vec<f64>) -> Option<HistoryPoint> {
        let evicted = (self.entries.len() == self.cap).then(|| self.entries.remove(0));
        self.entries.push(HistoryPoint { t, z, q });
        evicted
    }

    /// Number of points held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no point has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The newest accepted point.
    pub fn latest(&self) -> Option<&HistoryPoint> {
        self.entries.last()
    }

    /// The point before the newest (BDF2's second history point).
    pub fn prev(&self) -> Option<&HistoryPoint> {
        self.entries.len().checked_sub(2).map(|i| &self.entries[i])
    }

    /// Polynomial extrapolation of `z` to time `t`, written into `out`
    /// (length of `z`): `false`, leaving `out` untouched, with fewer than
    /// two points, linear with two, quadratic (Lagrange) with three.
    pub fn predict(&self, t: f64, out: &mut [f64]) -> bool {
        match self.entries.len() {
            0 | 1 => return false,
            2 => {
                let a = &self.entries[0];
                let b = &self.entries[1];
                let w = (t - a.t) / (b.t - a.t);
                for ((o, p), q) in out.iter_mut().zip(&a.z).zip(&b.z) {
                    *o = p * (1.0 - w) + q * w;
                }
            }
            _ => {
                let n = self.entries.len();
                let a = &self.entries[n - 3];
                let b = &self.entries[n - 2];
                let c = &self.entries[n - 1];
                let la = (t - b.t) * (t - c.t) / ((a.t - b.t) * (a.t - c.t));
                let lb = (t - a.t) * (t - c.t) / ((b.t - a.t) * (b.t - c.t));
                let lc = (t - a.t) * (t - b.t) / ((c.t - a.t) * (c.t - b.t));
                for (i, o) in out.iter_mut().enumerate() {
                    *o = a.z[i] * la + b.z[i] * lb + c.z[i] * lc;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_orders() {
        let mut out = [7.0];
        let mut h = History::new(3);
        assert!(!h.predict(1.0, &mut out));
        h.push(0.0, vec![0.0], vec![0.0]);
        assert!(!h.predict(1.0, &mut out));
        assert_eq!(out, [7.0]);
        // Linear through two points reproduces a line exactly.
        h.push(1.0, vec![2.0], vec![0.0]);
        assert!(h.predict(2.0, &mut out));
        assert!((out[0] - 4.0).abs() < 1e-14);
        // Quadratic through three reproduces t^2 exactly.
        let mut h = History::new(3);
        for t in [0.0, 0.5, 1.5] {
            h.push(t, vec![t * t], vec![0.0]);
        }
        assert!(h.predict(2.0, &mut out));
        assert!((out[0] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut h = History::new(3);
        for t in 0..5_u32 {
            let evicted = h.push(t as f64, vec![t as f64], vec![]);
            // The point pushed three before comes back, vectors and all.
            let back = t.checked_sub(3).map(|old| old as f64);
            assert_eq!(evicted.as_ref().map(|p| p.t), back);
            assert_eq!(evicted.map(|p| p.z), back.map(|old| vec![old]));
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.latest().unwrap().t, 4.0);
        assert_eq!(h.prev().unwrap().t, 3.0);
    }
}
