//! Named-counter/histogram registry and the unified run-stats summary.

use std::collections::BTreeMap;

/// Summary statistics of one histogram metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (`+inf` when empty).
    pub min: f64,
    /// Largest observed value (`-inf` when empty).
    pub max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Fold one observation in.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of the observations (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }
}

/// One namespace of named counters and histograms.
///
/// Names are dot-separated (`sweep.cache_hits`, `newton.iters`,
/// `factor.fresh`, `step.rejected.lte`, …); see `docs/OBSERVABILITY.md`
/// for the full catalogue. `BTreeMap` keeps exports deterministically
/// sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter, creating it at zero.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Record one observation into the named histogram.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any observation was made.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Absorb a [`RunStats`] under `prefix` (e.g. `tran`), producing
    /// counters `prefix.steps`, `prefix.rejected`, `prefix.newton_iters`,
    /// `prefix.factorisations`, `prefix.symbolic_reuses`.
    pub fn absorb_run_stats(&mut self, prefix: &str, stats: &RunStats) {
        self.counter_add(&format!("{prefix}.steps"), stats.steps as u64);
        self.counter_add(&format!("{prefix}.rejected"), stats.rejected as u64);
        self.counter_add(&format!("{prefix}.newton_iters"), stats.newton_iters as u64);
        self.counter_add(
            &format!("{prefix}.factorisations"),
            stats.factorisations as u64,
        );
        self.counter_add(
            &format!("{prefix}.symbolic_reuses"),
            stats.symbolic_reuses as u64,
        );
    }

    /// Fold another registry into this one (used when merging per-shard
    /// or per-thread registries).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in other.counters() {
            self.counter_add(name, v);
        }
        for (name, h) in other.histograms() {
            let mine = self.histograms.entry(name.to_string()).or_default();
            mine.count += h.count;
            mine.sum += h.sum;
            mine.min = mine.min.min(h.min);
            mine.max = mine.max.max(h.max);
        }
    }
}

/// The unified per-run summary shared by the stepping solvers.
///
/// `transim::TransientStats` and `wampde::EnvelopeStats` (the WaMPDE
/// and MPDE envelopes' stats) are aliases of this type, so the metrics
/// registry and the sweep manifest can consume any solver's stats
/// without per-crate adapters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Accepted time steps.
    pub steps: usize,
    /// Rejected step attempts (LTE or Newton failure).
    pub rejected: usize,
    /// Total Newton iterations across all steps.
    pub newton_iters: usize,
    /// Numeric factorisations performed.
    pub factorisations: usize,
    /// Factorisations that reused a cached symbolic analysis.
    pub symbolic_reuses: usize,
}

impl RunStats {
    /// Accumulate another run's stats into this one.
    pub fn merge(&mut self, other: &RunStats) {
        self.steps += other.steps;
        self.rejected += other.rejected;
        self.newton_iters += other.newton_iters;
        self.factorisations += other.factorisations;
        self.symbolic_reuses += other.symbolic_reuses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_sort() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("b.two", 2);
        reg.counter_add("a.one", 1);
        reg.counter_add("b.two", 3);
        let names: Vec<_> = reg.counters().map(|(n, v)| (n.to_string(), v)).collect();
        assert_eq!(
            names,
            vec![("a.one".to_string(), 1), ("b.two".to_string(), 5)]
        );
        assert_eq!(reg.counter("missing"), 0);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut reg = MetricsRegistry::new();
        reg.observe("step.h", 1.0);
        reg.observe("step.h", 3.0);
        let h = reg.histogram("step.h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 4.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
        assert_eq!(h.mean(), 2.0);
    }

    #[test]
    fn run_stats_absorb_and_merge() {
        let a = RunStats {
            steps: 10,
            rejected: 2,
            newton_iters: 30,
            factorisations: 5,
            symbolic_reuses: 25,
        };
        let mut b = RunStats::default();
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.steps, 20);
        assert_eq!(b.newton_iters, 60);

        let mut reg = MetricsRegistry::new();
        reg.absorb_run_stats("tran", &a);
        assert_eq!(reg.counter("tran.steps"), 10);
        assert_eq!(reg.counter("tran.newton_iters"), 30);
        assert_eq!(reg.counter("tran.symbolic_reuses"), 25);
    }

    #[test]
    fn registry_merge_folds_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        a.counter_add("c", 1);
        a.observe("h", 2.0);
        let mut b = MetricsRegistry::new();
        b.counter_add("c", 4);
        b.observe("h", 6.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 6.0);
    }
}
