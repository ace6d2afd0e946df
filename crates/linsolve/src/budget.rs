//! A shared core budget for nested parallelism.
//!
//! Two layers of the workspace want threads at once: the sweep service
//! runs `--jobs N` worker threads, and *inside* each job the KLU
//! backend can fan out again. It has one parallel kernel: factoring the
//! independent BTF diagonal blocks concurrently
//! ([`sparsekit::SparseLu::factor_ordered_threads`]), which only runs
//! when the matrix has at least two blocks. Stamping, collocation
//! assembly, SpMV and the circulant preconditioner setup are serial: at
//! the sizes the committed decks reach, a thread spawn costs more than
//! the work it would split. Letting every layer size itself
//! independently oversubscribes the machine (`N × M` threads on `P`
//! cores); serialising the inner layer wastes the cores a narrow sweep
//! leaves idle.
//!
//! [`CoreBudget`] arbitrates: one handle per process (created by the
//! sweep executor, or by any standalone driver) tracks `total` cores
//! and the number currently claimed. Sweep workers claim their baseline
//! core via [`CoreBudget::occupy`]; each solve-time parallel section
//! takes a [`CoreLease`] that grabs however many *extra* cores are
//! still free (up to the per-solve `solver_cap`) and releases them on
//! drop. A chain running alone therefore gets the whole machine, while
//! a sweep wide enough to occupy every core degrades the inner solves
//! to serial — no oversubscription, no idle cores.
//!
//! Leases are intentionally *dynamic*: the thread count an individual
//! factorisation sees depends on what else runs at that instant. This
//! is safe because the BTF kernel is bitwise identical to its serial
//! form at every thread count (enforced by proptests and the
//! `par-smoke` CI job), so artifacts stay byte-identical for any
//! `--jobs`/`--solver-threads` combination.
//!
//! The handle travels two ways, mirroring [`crate::SharedSymbolic`]:
//! explicitly by value, or ambiently via [`CoreBudget::install`] — the
//! KLU factor path in this crate picks the ambient handle up through
//! [`CoreBudget::lease_ambient`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[derive(Debug)]
struct BudgetInner {
    /// Cores the budget arbitrates (≥ 1).
    total: usize,
    /// Per-lease ceiling: a single solve never uses more than this many
    /// threads even when more cores are free (`--solver-threads M`).
    solver_cap: usize,
    /// Cores currently claimed (occupations + live lease extras).
    claimed: AtomicUsize,
}

/// A shared, clonable core budget (see the module docs).
#[derive(Debug, Clone)]
pub struct CoreBudget {
    inner: Arc<BudgetInner>,
}

std::thread_local! {
    static AMBIENT_BUDGET: std::cell::RefCell<Option<CoreBudget>> =
        const { std::cell::RefCell::new(None) };
}

impl CoreBudget {
    /// A budget over `total` cores with per-solve cap `solver_cap`.
    /// Both are clamped to at least 1.
    pub fn new(total: usize, solver_cap: usize) -> Self {
        CoreBudget {
            inner: Arc::new(BudgetInner {
                total: total.max(1),
                solver_cap: solver_cap.max(1),
                claimed: AtomicUsize::new(0),
            }),
        }
    }

    /// Total cores the budget arbitrates.
    pub fn total(&self) -> usize {
        self.inner.total
    }

    /// The per-solve thread ceiling.
    pub fn solver_cap(&self) -> usize {
        self.inner.solver_cap
    }

    /// Cores currently claimed (diagnostic).
    pub fn claimed(&self) -> usize {
        self.inner.claimed.load(Ordering::Relaxed)
    }

    /// Unconditionally claims `n` cores — the baseline claim of a
    /// worker thread that exists regardless of budget state. Released
    /// when the returned guard drops.
    pub fn occupy(&self, n: usize) -> CoreOccupation {
        self.inner.claimed.fetch_add(n, Ordering::Relaxed);
        CoreOccupation {
            inner: Arc::clone(&self.inner),
            n,
        }
    }

    /// Claims up to `solver_cap − 1` *extra* cores for one parallel
    /// solve section, never exceeding the free budget. The lease's
    /// [`CoreLease::threads`] is `1 + extra` (the calling thread plus
    /// the extras); it is at least 1 and at most `solver_cap`. Extras
    /// return to the budget when the lease drops.
    pub fn lease(&self) -> CoreLease {
        let want_extra = self
            .inner
            .solver_cap
            .min(self.inner.total)
            .saturating_sub(1);
        let mut extra = 0;
        if want_extra > 0 {
            let mut current = self.inner.claimed.load(Ordering::Relaxed);
            loop {
                let free = self.inner.total.saturating_sub(current);
                let take = free.min(want_extra);
                if take == 0 {
                    break;
                }
                match self.inner.claimed.compare_exchange(
                    current,
                    current + take,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        extra = take;
                        break;
                    }
                    Err(now) => current = now,
                }
            }
        }
        CoreLease {
            inner: Some(Arc::clone(&self.inner)),
            extra,
        }
    }

    /// Installs this handle as the thread's ambient budget until the
    /// guard drops; the factor paths of this crate lease from it via
    /// [`CoreBudget::lease_ambient`].
    #[must_use = "the budget is only installed while the guard lives"]
    pub fn install(&self) -> CoreBudgetGuard {
        let previous = AMBIENT_BUDGET.with(|slot| slot.borrow_mut().replace(self.clone()));
        CoreBudgetGuard { previous }
    }

    /// The handle currently installed on this thread, if any.
    pub fn ambient() -> Option<CoreBudget> {
        AMBIENT_BUDGET.with(|slot| slot.borrow().clone())
    }

    /// Leases from the thread's ambient budget. Without an installed
    /// budget the returned lease is inert ([`CoreLease::threads`] is 1),
    /// so call sites need no special casing.
    pub fn lease_ambient() -> CoreLease {
        match Self::ambient() {
            Some(budget) => budget.lease(),
            None => CoreLease {
                inner: None,
                extra: 0,
            },
        }
    }
}

/// RAII guard from [`CoreBudget::install`]; restores the previously
/// installed handle (if any) on drop.
#[derive(Debug)]
pub struct CoreBudgetGuard {
    previous: Option<CoreBudget>,
}

impl Drop for CoreBudgetGuard {
    fn drop(&mut self) {
        AMBIENT_BUDGET.with(|slot| *slot.borrow_mut() = self.previous.take());
    }
}

/// RAII baseline claim from [`CoreBudget::occupy`].
#[derive(Debug)]
pub struct CoreOccupation {
    inner: Arc<BudgetInner>,
    n: usize,
}

impl Drop for CoreOccupation {
    fn drop(&mut self) {
        self.inner.claimed.fetch_sub(self.n, Ordering::Relaxed);
    }
}

/// RAII core lease from [`CoreBudget::lease`] /
/// [`CoreBudget::lease_ambient`]; holds `threads() − 1` extra cores
/// until dropped.
#[derive(Debug)]
pub struct CoreLease {
    inner: Option<Arc<BudgetInner>>,
    extra: usize,
}

impl CoreLease {
    /// Thread count the leased parallel section may use: the calling
    /// thread plus the leased extras.
    pub fn threads(&self) -> usize {
        1 + self.extra
    }
}

impl Drop for CoreLease {
    fn drop(&mut self) {
        if let Some(inner) = &self.inner {
            if self.extra > 0 {
                inner.claimed.fetch_sub(self.extra, Ordering::Relaxed);
            }
        }
    }
}

/// Resolves a user-facing thread-count flag: `0` means "auto" — the
/// machine's [`std::thread::available_parallelism`] (1 when that is
/// unavailable). Used for both `wampde-cli --jobs 0` and
/// `--solver-threads 0`.
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
    fn lease_grants_up_to_cap_and_releases() {
        let budget = CoreBudget::new(8, 4);
        let lease = budget.lease();
        assert_eq!(lease.threads(), 4);
        assert_eq!(budget.claimed(), 3);
        drop(lease);
        assert_eq!(budget.claimed(), 0);
    }

    #[test]
    fn occupied_budget_degrades_leases_to_serial() {
        let budget = CoreBudget::new(4, 4);
        let _workers = budget.occupy(4);
        let lease = budget.lease();
        assert_eq!(lease.threads(), 1, "no free cores, solve must be serial");
        assert_eq!(budget.claimed(), 4);
    }

    #[test]
    fn partial_budget_grants_partial_lease() {
        let budget = CoreBudget::new(4, 4);
        let _workers = budget.occupy(2);
        let lease = budget.lease();
        assert_eq!(lease.threads(), 3, "1 baseline + 2 free extras");
        drop(lease);
        assert_eq!(budget.claimed(), 2);
    }

    #[test]
    fn solver_cap_bounds_a_lease_below_free_cores() {
        let budget = CoreBudget::new(16, 2);
        let lease = budget.lease();
        assert_eq!(lease.threads(), 2);
    }

    #[test]
    fn ambient_lease_is_inert_without_install() {
        assert!(CoreBudget::ambient().is_none());
        let lease = CoreBudget::lease_ambient();
        assert_eq!(lease.threads(), 1);
    }

    #[test]
    fn ambient_install_scopes_with_guard() {
        let budget = CoreBudget::new(4, 4);
        {
            let _guard = budget.install();
            assert!(CoreBudget::ambient().is_some());
            let lease = CoreBudget::lease_ambient();
            assert_eq!(lease.threads(), 4);
        }
        assert!(CoreBudget::ambient().is_none());
    }

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
