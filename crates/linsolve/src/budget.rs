//! Thread-count helpers.
//!
//! Every linear solve in the workspace is serial. The one parallelism
//! is the sweep service's `--jobs N` worker pool, which runs whole jobs
//! side by side. Circuit BTF blocks are tiny (Davis & Palamadai
//! Natarajan, KLU, ACM TOMS 2010), so a thread spawn inside one solve
//! costs more than the work it would split.
//!
//! [`resolve_thread_count`] turns `--jobs 0` into the machine's core
//! count. [`CoreBudget`] is an inert remnant of the intra-solve core
//! arbiter: it stores a per-solve cap and does nothing else. It is
//! kept for perfbench, which still builds one.

/// A per-solve thread cap that nothing reads. Kept for perfbench, which
/// builds, occupies and installs one around its chain workload; every
/// solve is serial whatever the cap.
#[derive(Debug, Clone)]
pub struct CoreBudget {
    solver_cap: usize,
}

impl CoreBudget {
    /// A budget with per-solve cap `solver_cap` (clamped to at least 1).
    /// `total` is ignored. Kept for perfbench.
    pub fn new(_total: usize, solver_cap: usize) -> Self {
        CoreBudget {
            solver_cap: solver_cap.max(1),
        }
    }

    /// The stored per-solve cap. Kept for perfbench, which records it
    /// in its run manifest.
    pub fn solver_cap(&self) -> usize {
        self.solver_cap
    }

    /// Does nothing and returns an inert guard. Kept for perfbench.
    pub fn occupy(&self, _n: usize) -> CoreOccupation {
        CoreOccupation(())
    }

    /// Does nothing and returns an inert guard. Kept for perfbench.
    pub fn install(&self) -> CoreBudgetGuard {
        CoreBudgetGuard(())
    }
}

/// The inert guard from [`CoreBudget::install`]. Kept for perfbench.
#[derive(Debug)]
pub struct CoreBudgetGuard(());

/// The inert guard from [`CoreBudget::occupy`]. Kept for perfbench.
#[derive(Debug)]
pub struct CoreOccupation(());

/// Resolves a user-facing thread-count flag: `0` means "auto" — the
/// machine's [`std::thread::available_parallelism`] (1 when that is
/// unavailable). Resolves `wampde-cli --jobs 0`. It stays in this
/// crate, kept for perfbench, which calls it as
/// `linsolve::resolve_thread_count`.
pub fn resolve_thread_count(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_is_machine_parallelism() {
        assert_eq!(resolve_thread_count(3), 3);
        let auto = resolve_thread_count(0);
        assert!(auto >= 1);
        assert_eq!(
            auto,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
    }
}
