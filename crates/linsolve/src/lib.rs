//! Shared sparse-capable linear-solver layer.
//!
//! Every solver crate in the workspace (transient Newton, shooting,
//! harmonic balance, MPDE, WaMPDE) faces the same inner problem: factor a
//! Jacobian, then back-substitute one or more right-hand sides. This crate
//! owns that step behind one backend switch, [`LinearSolverKind`], and one
//! factor entry point, [`FactorCache::factor`]. There are two backends:
//! dense LU (block elimination under a [`CyclicShape`]) and a KLU-class
//! sparse LU, the large-system solver every crate can select.
//!
//! A [`NewtonMatrix`] is a dense matrix or a triplet-assembled sparse
//! matrix; the cache converts it to the form the backend needs. The
//! block-structured collocation Jacobian
//! `J[s,s'] = δ_{ss'}·(inv_h·C_s + θ·G_s) + θ·ω·D[s,s']·C_{s'}`,
//! optionally bordered by a phase row and an `∂r/∂ω` column, is
//! described by [`JacobianParts`], which assembles either form.
//!
//! Errors are solver-agnostic ([`LinSolveError`]); each consumer maps them
//! into its own error enum (`TransimError::SingularJacobian`,
//! `WampdeError::LinearSolve`, ...).
//!
//! # Example
//!
//! Factor a triplet-assembled matrix with the backend of your choice and
//! back-substitute — the same two calls work for both backends:
//!
//! ```
//! use linsolve::{FactorCache, LinearSolverKind, NewtonMatrix};
//! use sparsekit::Triplets;
//!
//! # fn main() -> Result<(), linsolve::LinSolveError> {
//! // [[4, 1], [0, 2]] · x = [10, 4] has the solution x = (2, 2).
//! let mut t = Triplets::new(2, 2);
//! t.push(0, 0, 4.0);
//! t.push(0, 1, 1.0);
//! t.push(1, 1, 2.0);
//! let mut lu = FactorCache::new(LinearSolverKind::Klu);
//! lu.factor(&NewtonMatrix::Triplets(&t))?;
//! let mut x = vec![10.0, 4.0];
//! lu.solve_in_place(&mut x)?;
//! assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

use numkit::{DMat, DenseLu};
use sparsekit::{AssemblyPlan, Csc, OrderingPlan, SparseLu, Triplets};
use std::borrow::Cow;
use std::fmt;

pub mod budget;
mod cyclic;

pub use budget::{resolve_thread_count, CoreBudget, CoreBudgetGuard, CoreOccupation};
use cyclic::CyclicLu;
pub use cyclic::CyclicShape;

/// Solver-agnostic linear-solve failure (factorisation or back-solve).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinSolveError {
    /// Human-readable cause from the underlying backend.
    pub cause: String,
}

impl LinSolveError {
    fn new(cause: impl fmt::Display) -> Self {
        LinSolveError {
            cause: cause.to_string(),
        }
    }
}

impl fmt::Display for LinSolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "linear solve failed: {}", self.cause)
    }
}

impl std::error::Error for LinSolveError {}

/// Which linear solver factors a Jacobian.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LinearSolverKind {
    /// Dense LU — simplest, right for small circuits. Block elimination,
    /// a dense LU per block, when the cache holds a [`CyclicShape`] (see
    /// [`FactorCache::set_cyclic_shape`]).
    #[default]
    Dense,
    /// KLU-class sparse LU: BTF decomposition + per-block AMD ordering +
    /// row equilibration on top of the Gilbert–Peierls kernel (Davis &
    /// Palamadai Natarajan, ACM TOMS 2010) — the right direct solver for
    /// large circuit Jacobians.
    Klu,
}

impl LinearSolverKind {
    /// Every name [`LinearSolverKind::parse`] accepts, in display order.
    pub const NAMES: [&'static str; 2] = ["dense", "klu"];

    /// Parses a backend name (`dense`, `klu`), as used by the
    /// `.options solver=` deck directive and `wampde-cli --solver`.
    pub fn parse(token: &str) -> Option<Self> {
        match token.to_ascii_lowercase().as_str() {
            "dense" => Some(LinearSolverKind::Dense),
            "klu" => Some(LinearSolverKind::Klu),
            _ => None,
        }
    }

    /// Short backend name for labels, artifact records and the sweep
    /// service's content-hashed cache keys.
    pub fn label(&self) -> &'static str {
        match self {
            LinearSolverKind::Dense => "dense",
            LinearSolverKind::Klu => "klu",
        }
    }
}

/// Assembly-ready description of one (optionally bordered) block
/// collocation Jacobian
///
/// ```text
/// J[s,s'] = δ_{ss'}·(inv_h·C_s + θ·G_s) + θ·ω·D[s,s']·C_{s'}
/// ```
///
/// with `N0` samples of block size `n` in the sample-major layout
/// `idx(s, i) = s·n + i`. Setting `inv_h = 0, θ = 1` yields the harmonic
/// balance Jacobian; `ω = f1` the MPDE step Jacobian; the WaMPDE envelope
/// uses the full form plus the phase/frequency border.
pub struct JacobianParts<'a> {
    /// Block size (the DAE dimension).
    pub n: usize,
    /// Sample count along the periodic axis (`N0 = 2M+1`).
    pub n0: usize,
    /// Spectral differentiation matrix (`N0 × N0`).
    pub dmat: &'a DMat,
    /// Per-sample `C_s = ∂q/∂x`.
    pub cblocks: &'a [DMat],
    /// Per-sample `G_s = ∂f/∂x`.
    pub gblocks: &'a [DMat],
    /// Coefficient of `C_s` on the diagonal (`1/h`, or `a0/h`; `0` for
    /// steady-state problems).
    pub inv_h: f64,
    /// Weight of the instantaneous terms (1 for BE, ½ for trapezoidal).
    pub theta: f64,
    /// Current local frequency (Hz).
    pub omega: f64,
    /// Optional border: (phase row, `∂r/∂ω` column), both of length
    /// `n·n0`; the corner entry is zero.
    pub border: Option<(&'a [f64], &'a [f64])>,
}

impl JacobianParts<'_> {
    /// Unbordered system size `n·N0`.
    pub fn len(&self) -> usize {
        self.n * self.n0
    }

    /// True only for degenerate empty systems (kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total system dimension including the border.
    pub fn dim(&self) -> usize {
        self.len() + usize::from(self.border.is_some())
    }

    /// Flat index of variable `i` at sample `s`.
    #[inline]
    fn idx(&self, s: usize, i: usize) -> usize {
        s * self.n + i
    }

    /// Assembles the full dense matrix.
    pub fn assemble_dense(&self) -> DMat {
        let mut jac = DMat::zeros(self.dim(), self.dim());
        self.assemble_dense_into(&mut jac);
        jac
    }

    /// Assembles into a caller-provided `dim() × dim()` buffer (zeroed
    /// first) — the allocation-free path for Newton engines that stamp
    /// the same system every iteration.
    ///
    /// Streams the buffer row by row. Each entry still sees the same
    /// operations in the same order as a block-by-block assembly: the
    /// zero fill, `+=` the diagonal `inv_h·C + θ·G`, `+=` the
    /// `θω·D[s,s']·C` cross term (skipped where that coefficient is
    /// zero), and the border written last.
    ///
    /// # Panics
    ///
    /// Panics when `jac` has the wrong shape.
    pub fn assemble_dense_into(&self, jac: &mut DMat) {
        let dim = self.dim();
        assert_eq!(jac.nrows(), dim, "assemble_dense_into: shape");
        assert_eq!(jac.ncols(), dim, "assemble_dense_into: shape");
        let (len, n) = (self.len(), self.n);
        let theta_omega = self.theta * self.omega;
        for (r, row) in jac.as_mut_slice().chunks_exact_mut(dim).enumerate() {
            // `+=` onto the zero fill rather than `=`: a `-0.0` term
            // must land as `+0.0`.
            row.fill(0.0);
            if r == len {
                if let Some((phase_row, _)) = self.border {
                    row[..len].copy_from_slice(&phase_row[..len]);
                }
                continue;
            }
            let (s, i) = (r / n, r % n);
            let drow = self.dmat.row(s);
            for (sp, block) in row[..len].chunks_exact_mut(n).enumerate() {
                if sp == s {
                    let (c, g) = (self.cblocks[s].row(i), self.gblocks[s].row(i));
                    for ((slot, cv), gv) in block.iter_mut().zip(c).zip(g) {
                        *slot += self.inv_h * cv + self.theta * gv;
                    }
                }
                let d = theta_omega * drow[sp];
                if d != 0.0 {
                    for (slot, cv) in block.iter_mut().zip(self.cblocks[sp].row(i)) {
                        *slot += d * cv;
                    }
                }
            }
            if let Some((_, omega_col)) = self.border {
                row[len] = omega_col[r];
            }
        }
    }

    /// Pushes the nonzero entries into a triplet buffer (duplicates sum on
    /// conversion) as the block whose first entry sits at row `row0`,
    /// column `col0`; `(0, 0)` for a `dim() × dim()` buffer of its own.
    /// All diagonal blocks go in ascending `s`, then all cross terms in
    /// ascending `s`, then the border.
    pub fn push_triplets(&self, t: &mut Triplets, row0: usize, col0: usize) {
        let mut push = |r, c, v| t.push(row0 + r, col0 + c, v);
        self.push_diag(&mut push);
        self.push_cross(&mut push);
        self.push_border(&mut push);
    }

    /// Diagonal blocks `inv_h·C_s + θ·G_s`.
    fn push_diag(&self, push: &mut impl FnMut(usize, usize, f64)) {
        let n = self.n;
        for s in 0..self.n0 {
            let g = &self.gblocks[s];
            let c = &self.cblocks[s];
            for i in 0..n {
                for j in 0..n {
                    let v = self.inv_h * c[(i, j)] + self.theta * g[(i, j)];
                    if v != 0.0 {
                        push(self.idx(s, i), self.idx(s, j), v);
                    }
                }
            }
        }
    }

    /// Cross terms `θ·ω·D[s,s']·C_{s'}`, block row by block row.
    ///
    /// Emits exactly what a dense scan of every `C_{s'}` entry would
    /// (same entries, same order, same value bits), but visits only the
    /// entries that can be nonzero. Each block's nonzero `(i, j)` are
    /// listed once, in row-major order. A finite `d` times a zero is a
    /// zero, which the scan never pushes; a NaN entry compares nonzero,
    /// so it stays in the list. A non-finite `d` turns zeros into NaN,
    /// so that block falls back to the full scan. A zero `θ·ω` (a
    /// coupling with `θ = 0` or `ω = 0`) times the finite spectral `D`
    /// pushes nothing, so it returns before listing anything; `θ = 0,
    /// ω = ∞` is NaN, not zero, and takes the scan.
    fn push_cross(&self, push: &mut impl FnMut(usize, usize, f64)) {
        let theta_omega = self.theta * self.omega;
        if theta_omega == 0.0 {
            return;
        }
        let n = self.n;
        let nonzeros: Vec<Vec<(usize, usize, f64)>> = self.cblocks[..self.n0]
            .iter()
            .map(|c| {
                (0..n)
                    .flat_map(|i| c.row(i).iter().enumerate().map(move |(j, &v)| (i, j, v)))
                    .filter(|&(_, _, v)| v != 0.0)
                    .collect()
            })
            .collect();
        for s in 0..self.n0 {
            for (sp, nz) in nonzeros.iter().enumerate() {
                let d = theta_omega * self.dmat[(s, sp)];
                if d == 0.0 {
                    continue;
                }
                if d.is_finite() {
                    for &(i, j, c) in nz {
                        let v = d * c;
                        if v != 0.0 {
                            push(self.idx(s, i), self.idx(sp, j), v);
                        }
                    }
                } else {
                    let c = &self.cblocks[sp];
                    for i in 0..n {
                        for j in 0..n {
                            let v = d * c[(i, j)];
                            if v != 0.0 {
                                push(self.idx(s, i), self.idx(sp, j), v);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The phase row and `∂r/∂ω` column, when bordered.
    fn push_border(&self, push: &mut impl FnMut(usize, usize, f64)) {
        let len = self.len();
        if let Some((row, col)) = self.border {
            for k in 0..len {
                if row[k] != 0.0 {
                    push(len, k, row[k]);
                }
                if col[k] != 0.0 {
                    push(k, len, col[k]);
                }
            }
        }
    }

    /// The triplet form (allocating convenience over [`Self::push_triplets`]).
    pub fn assemble_triplets(&self) -> Triplets {
        let mut t = Triplets::with_capacity(
            self.dim(),
            self.dim(),
            self.n0 * self.n0 * self.n + 4 * self.len(),
        );
        self.push_triplets(&mut t, 0, 0);
        t
    }
}

/// A Jacobian handed to [`FactorCache::factor`], in whichever form its
/// producer builds it; the cache converts to the form the backend needs.
pub enum NewtonMatrix<'a> {
    /// A dense matrix (converted to sparse form when a sparse backend is
    /// selected; exact zeros define the pattern).
    Dense(&'a DMat),
    /// A triplet-assembled sparse matrix (converted to dense when the
    /// dense backend is selected).
    Triplets(&'a Triplets),
}

impl NewtonMatrix<'_> {
    fn to_dense(&self) -> Cow<'_, DMat> {
        match self {
            NewtonMatrix::Dense(m) => Cow::Borrowed(*m),
            NewtonMatrix::Triplets(t) => Cow::Owned(t.to_dense()),
        }
    }

    fn to_triplets(&self) -> Cow<'_, Triplets> {
        match self {
            NewtonMatrix::Dense(m) => {
                let n = m.nrows();
                let mut t = Triplets::new(n, m.ncols());
                for i in 0..n {
                    for j in 0..m.ncols() {
                        let v = m[(i, j)];
                        if v != 0.0 {
                            t.push(i, j, v);
                        }
                    }
                }
                Cow::Owned(t)
            }
            NewtonMatrix::Triplets(t) => Cow::Borrowed(*t),
        }
    }
}

/// A factored Jacobian ready for repeated solves.
#[derive(Debug)]
enum Factored {
    /// Dense LU factors.
    Dense(DenseLu),
    /// KLU-ordered sparse LU factors.
    Sparse(SparseLu),
    /// Block elimination factors of a block-cyclic matrix.
    Cyclic(CyclicLu),
}

/// Runs the KLU symbolic pipeline (BTF + per-block AMD) under the
/// `factor.btf` / `factor.order` spans, then factors through the
/// equilibrated matched-pivot path.
fn factor_klu(csc: &sparsekit::Csc) -> Result<SparseLu, LinSolveError> {
    let form = {
        let _sp = obskit::span("factor.btf");
        sparsekit::btf(csc).map_err(LinSolveError::new)?
    };
    let plan = {
        let _sp = obskit::span("factor.order");
        OrderingPlan::from_btf(csc, &form)
    };
    let lu = SparseLu::factor_ordered(csc, &plan).map_err(LinSolveError::new)?;
    if csc.nnz() > 0 {
        obskit::observe("lu.fill_ratio", lu.factor_nnz() as f64 / csc.nnz() as f64);
    }
    Ok(lu)
}

impl Factored {
    /// Solves an `n × m` row-major block of right-hand sides: klu in one
    /// block kernel, dense LU and block elimination column by column.
    fn solve_block_in_place(&self, rhs: &mut [f64], m: usize) -> Result<(), LinSolveError> {
        let n = match self {
            Factored::Sparse(lu) => {
                return lu.solve_block_in_place(rhs, m).map_err(LinSolveError::new)
            }
            Factored::Dense(lu) => lu.dim(),
            Factored::Cyclic(lu) => lu.dim(),
        };
        if Some(rhs.len()) != n.checked_mul(m) {
            return Err(LinSolveError::new(format!(
                "rhs block of {} entries for {n} rows × {m} columns",
                rhs.len()
            )));
        }
        let mut col = vec![0.0; n];
        for c in 0..m {
            for (v, row) in col.iter_mut().zip(rhs.chunks_exact(m)) {
                *v = row[c];
            }
            self.solve_in_place(&mut col)?;
            for (v, row) in col.iter().zip(rhs.chunks_exact_mut(m)) {
                row[c] = *v;
            }
        }
        Ok(())
    }

    fn solve_in_place(&self, rhs: &mut [f64]) -> Result<(), LinSolveError> {
        match self {
            Factored::Dense(lu) => lu.solve_in_place(rhs).map_err(LinSolveError::new),
            Factored::Sparse(lu) => lu.solve_in_place(rhs).map_err(LinSolveError::new),
            Factored::Cyclic(lu) => lu.solve_in_place(rhs),
        }
    }
}

/// A batch-shared pool of sparse symbolic analyses.
///
/// Sweep jobs over one circuit share a sparsity pattern, so the
/// BTF + AMD ordering and Gilbert–Peierls symbolic structure computed by
/// the first job can seed every later one: a [`FactorCache`] holding a
/// `SharedSymbolic` clones a matching template and performs a
/// numeric-only [`SparseLu::refactor`] instead of a fresh symbolic
/// factorisation. `refactor` is bitwise-identical to factoring fresh
/// (asserted by `repro --table newton`), so sharing never changes a
/// result bit.
///
/// The pool keeps a handful of templates keyed by a cheap
/// `(dim, nnz)` signature — enough to cover the distinct patterns one
/// analysis produces (DC Jacobian vs. time-step Jacobian) without
/// growing unboundedly. `refactor` itself re-validates the full pattern,
/// so a signature collision merely falls through to a fresh
/// factorisation.
///
/// It is wired in one way, [`SharedSymbolic::install`]: every
/// `FactorCache` created on the thread while the guard lives picks the
/// handle up. Solver entry points build their engines internally (their
/// options structs are `Copy` and cannot carry an `Arc`), so this is how
/// the sweep executor threads one handle through a whole chain of jobs.
#[derive(Debug, Clone, Default)]
pub struct SharedSymbolic {
    inner: std::sync::Arc<std::sync::Mutex<Vec<SymbolicTemplate>>>,
}

#[derive(Debug)]
struct SymbolicTemplate {
    dim: usize,
    nnz: usize,
    lu: SparseLu,
}

/// At most this many distinct `(dim, nnz)` patterns are retained per
/// handle; later patterns simply factor fresh without being published.
const SHARED_SYMBOLIC_CAP: usize = 4;

std::thread_local! {
    static AMBIENT_SYMBOLIC: std::cell::RefCell<Option<SharedSymbolic>> =
        const { std::cell::RefCell::new(None) };
}

/// RAII guard from [`SharedSymbolic::install`]; restores the previously
/// installed handle (if any) on drop.
#[derive(Debug)]
pub struct SharedSymbolicGuard {
    previous: Option<SharedSymbolic>,
}

impl Drop for SharedSymbolicGuard {
    fn drop(&mut self) {
        AMBIENT_SYMBOLIC.with(|slot| *slot.borrow_mut() = self.previous.take());
    }
}

impl SharedSymbolic {
    /// An empty pool.
    pub fn new() -> Self {
        SharedSymbolic::default()
    }

    /// Installs this handle as the thread's ambient pool until the guard
    /// drops; [`FactorCache::new`] on this thread picks it up.
    #[must_use = "the handle is only installed while the guard lives"]
    pub fn install(&self) -> SharedSymbolicGuard {
        let previous = AMBIENT_SYMBOLIC.with(|slot| slot.borrow_mut().replace(self.clone()));
        SharedSymbolicGuard { previous }
    }

    /// The handle currently installed on this thread, if any.
    pub fn ambient() -> Option<SharedSymbolic> {
        AMBIENT_SYMBOLIC.with(|slot| slot.borrow().clone())
    }

    /// Number of templates currently held (tests/diagnostics).
    pub fn len(&self) -> usize {
        self.inner.lock().map(|t| t.len()).unwrap_or(0)
    }

    /// Whether the pool holds no templates yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A clone of the template matching `csc`'s signature, if one exists.
    fn checkout(&self, csc: &sparsekit::Csc) -> Option<SparseLu> {
        let templates = self.inner.lock().ok()?;
        templates
            .iter()
            .find(|t| t.dim == csc.ncols() && t.nnz == csc.nnz())
            .map(|t| t.lu.clone())
    }

    /// Publishes a freshly factored `lu` for `csc`'s signature unless a
    /// template with that signature (or the cap) is already in place.
    fn publish(&self, csc: &sparsekit::Csc, lu: &SparseLu) {
        if let Ok(mut templates) = self.inner.lock() {
            let sig = (csc.ncols(), csc.nnz());
            if templates.len() < SHARED_SYMBOLIC_CAP
                && !templates.iter().any(|t| (t.dim, t.nnz) == sig)
            {
                templates.push(SymbolicTemplate {
                    dim: sig.0,
                    nnz: sig.1,
                    lu: lu.clone(),
                });
            }
        }
    }
}

/// Counters accumulated by a [`FactorCache`] across factorisations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactorStats {
    /// Total factorisations performed (any backend).
    pub factorisations: usize,
    /// Factorisations that reused the cached symbolic analysis
    /// (KLU numeric-only refactorisation).
    pub symbolic_reuses: usize,
    /// Sparse factorisations that had to redo symbolic analysis because
    /// the sparsity pattern changed or the cached pivots went stale.
    pub pattern_rebuilds: usize,
}

/// A stateful factor-then-solve cache for Newton-style iterations.
///
/// This is the one factor entry point of the crate: [`FactorCache::factor`]
/// dispatches every backend. Newton re-factors the same sparsity pattern
/// every iteration (and, in time-stepping solvers, every step), so on the
/// [`LinearSolverKind::Klu`] backend the cache keeps the previous
/// [`SparseLu`] and performs a numeric-only [`SparseLu::refactor`]
/// whenever the incoming pattern matches — skipping the BTF/AMD ordering
/// and the symbolic reachability analysis. A pattern change (or a
/// stale-pivot failure) transparently falls back to a fresh factorisation
/// and is counted in [`FactorStats::pattern_rebuilds`]. The klu arm also
/// keeps the triplet→CSC conversion of the last coordinate sequence as
/// an [`AssemblyPlan`] and replays it, bit-identically, while the
/// incoming coordinates stay the same.
///
/// Dense LU refactors the cached factors' storage in place
/// ([`DenseLu::refactor`]); the block elimination under a
/// [`CyclicShape`] factors fresh each call. All count as fresh
/// factorisations in [`FactorStats::factorisations`].
///
/// A failed factorisation clears the cache: [`FactorCache::solve_in_place`]
/// then reports that nothing is factored rather than solving against
/// stale or half-overwritten factors.
#[derive(Debug)]
pub struct FactorCache {
    kind: LinearSolverKind,
    factored: Option<Factored>,
    cyclic: Option<CyclicShape>,
    shared: Option<SharedSymbolic>,
    /// The klu arm's triplet→CSC conversion of the last coordinate
    /// sequence, replayed while the coordinates stay the same.
    plan: Option<AssemblyPlan>,
    stats: FactorStats,
}

impl FactorCache {
    /// A cache factoring through `kind`.
    ///
    /// Adopts the thread's ambient [`SharedSymbolic`] pool when one is
    /// installed (see [`SharedSymbolic::install`]).
    pub fn new(kind: LinearSolverKind) -> Self {
        FactorCache {
            kind,
            factored: None,
            cyclic: None,
            shared: SharedSymbolic::ambient(),
            plan: None,
            stats: FactorStats::default(),
        }
    }

    /// Declares the block-cyclic structure of incoming matrices. With a
    /// shape, the [`LinearSolverKind::Dense`] backend factors by block
    /// elimination: a dense LU of each block on the diagonal, the
    /// couplings kept sparse, and one dense LU of the wrap-around border
    /// closing the cycle. `None` (the default) restores the one dense LU.
    /// The klu backend ignores the hint.
    pub fn set_cyclic_shape(&mut self, shape: Option<CyclicShape>) {
        self.cyclic = shape;
    }

    /// The currently declared cyclic structure hint.
    pub fn cyclic_shape(&self) -> Option<CyclicShape> {
        self.cyclic
    }

    /// The configured backend.
    pub fn kind(&self) -> LinearSolverKind {
        self.kind
    }

    /// Switches the backend, dropping any cached factorisation state.
    pub fn set_kind(&mut self, kind: LinearSolverKind) {
        if kind != self.kind {
            self.kind = kind;
            self.factored = None;
        }
    }

    /// Cumulative counters since construction.
    pub fn stats(&self) -> FactorStats {
        self.stats
    }

    /// Factors the described matrix with the configured backend, reusing
    /// cached symbolic analysis on the KLU backend when the pattern is
    /// unchanged.
    ///
    /// # Errors
    ///
    /// [`LinSolveError`] when the factorisation fails.
    pub fn factor(&mut self, matrix: &NewtonMatrix<'_>) -> Result<(), LinSolveError> {
        let sp = obskit::span("factor");
        self.stats.factorisations += 1;
        let result = self.factor_into_cache(matrix, &sp);
        if result.is_err() {
            // A failed (re)factorisation may have overwritten the cached
            // factors in place: never solve against them.
            self.factored = None;
        }
        result
    }

    /// The body of [`FactorCache::factor`].
    fn factor_into_cache(
        &mut self,
        matrix: &NewtonMatrix<'_>,
        sp: &obskit::Span,
    ) -> Result<(), LinSolveError> {
        let factored = match self.kind {
            LinearSolverKind::Dense => match self.cyclic {
                Some(shape) => Factored::Cyclic(CyclicLu::factor(&matrix.to_triplets(), shape)?),
                None => {
                    let a = matrix.to_dense();
                    let lu = match self.factored.take() {
                        Some(Factored::Dense(mut lu)) => lu.refactor(&a).map(|()| lu),
                        _ => DenseLu::factor(&a),
                    };
                    Factored::Dense(lu.map_err(LinSolveError::new)?)
                }
            },
            LinearSolverKind::Klu => {
                // The plan leaves `self` while its matrix is in use and
                // comes back whatever the factor's outcome: it depends
                // only on coordinates.
                let mut plan = self.plan.take();
                let csc = assemble_csc(&mut plan, &matrix.to_triplets());
                let factored = self.factor_sparse(csc, sp);
                self.plan = plan;
                match factored? {
                    Some(f) => f,
                    None => return Ok(()),
                }
            }
        };
        self.factored = Some(factored);
        sp.attr("mode", "fresh");
        obskit::counter_add("factor.fresh", 1);
        Ok(())
    }

    /// The klu arm of [`FactorCache::factor_into_cache`]: a numeric-only
    /// refactor when one applies (`None`, the cache already updated),
    /// otherwise fresh factors, published to the batch pool.
    fn factor_sparse(
        &mut self,
        csc: &Csc,
        sp: &obskit::Span,
    ) -> Result<Option<Factored>, LinSolveError> {
        if let Some(mode) = self.refactor(csc) {
            sp.attr("mode", mode);
            return Ok(None);
        }
        let lu = factor_klu(csc)?;
        if let Some(shared) = &self.shared {
            shared.publish(csc, &lu);
        }
        Ok(Some(Factored::Sparse(lu)))
    }

    /// Numeric-only refactorisation of `csc` along a known symbolic
    /// analysis: this cache's previous factors, or — on its first
    /// factorisation — a batch pool's template. `refactor` re-validates
    /// the pattern and is bitwise identical to a fresh factor, so this is
    /// a pure skip of the symbolic phase. Returns the span mode
    /// (`reused`/`shared`), or `None` when a fresh factor is needed.
    fn refactor(&mut self, csc: &sparsekit::Csc) -> Option<&'static str> {
        if let Some(Factored::Sparse(lu)) = &mut self.factored {
            if lu.refactor(csc).is_ok() {
                self.stats.symbolic_reuses += 1;
                obskit::counter_add("factor.reused", 1);
                return Some("reused");
            }
            self.stats.pattern_rebuilds += 1;
            obskit::counter_add("factor.rebuilds", 1);
            return None;
        }
        if self.factored.is_some() {
            return None;
        }
        let mut lu = self.shared.as_ref()?.checkout(csc)?;
        lu.refactor(csc).ok()?;
        self.stats.symbolic_reuses += 1;
        self.factored = Some(Factored::Sparse(lu));
        obskit::counter_add("batch.symbolic_reuses", 1);
        Some("shared")
    }

    /// Solves `J·x = rhs` in place against the most recent factorisation.
    ///
    /// # Errors
    ///
    /// [`LinSolveError`] when nothing has been factored yet or the
    /// back-substitution fails.
    pub fn solve_in_place(&self, rhs: &mut [f64]) -> Result<(), LinSolveError> {
        let _sp = obskit::span("solve");
        match &self.factored {
            Some(f) => f.solve_in_place(rhs),
            None => Err(LinSolveError::new("no factorisation cached")),
        }
    }

    /// Solves `J·X = B` in place for an `n × m` row-major block of
    /// right-hand sides (the storage layout of an `n × m` [`DMat`]),
    /// under one `solve` span. Each column's result is bit-identical to
    /// [`FactorCache::solve_in_place`] on that column alone.
    ///
    /// # Errors
    ///
    /// [`LinSolveError`] when nothing has been factored yet, the block is
    /// not `n × m`, or the backend fails on a column.
    pub fn solve_block_in_place(&self, rhs: &mut [f64], m: usize) -> Result<(), LinSolveError> {
        let _sp = obskit::span("solve");
        match &self.factored {
            Some(f) => f.solve_block_in_place(rhs, m),
            None => Err(LinSolveError::new("no factorisation cached")),
        }
    }
}

/// The CSC form of `t`: `plan` replayed when `t` has its coordinates,
/// otherwise a plan recorded from `t` in its place.
fn assemble_csc<'p>(plan: &'p mut Option<AssemblyPlan>, t: &Triplets) -> &'p Csc {
    let replayed = plan.as_mut().is_some_and(|p| p.replay(t).is_some());
    if !replayed {
        *plan = Some(AssemblyPlan::new(t));
    }
    plan.as_ref()
        .expect("a plan was just replayed or recorded")
        .csc()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small synthetic collocation system: n = 2 blocks over N0 = 5
    /// samples with well-conditioned C/G blocks and a border.
    fn synthetic_parts<'a>(
        dmat: &'a DMat,
        cblocks: &'a [DMat],
        gblocks: &'a [DMat],
    ) -> JacobianParts<'a> {
        JacobianParts {
            n: 2,
            n0: 5,
            dmat,
            cblocks,
            gblocks,
            inv_h: 10.0,
            theta: 0.5,
            omega: 1.3,
            border: None,
        }
    }

    fn synthetic_blocks() -> (DMat, Vec<DMat>, Vec<DMat>) {
        // A circulant-ish differentiation matrix stand-in (exact spectral
        // structure is irrelevant for backend agreement).
        let n0 = 5;
        let dmat = DMat::from_fn(n0, n0, |s, sp| {
            if s == sp {
                0.0
            } else {
                0.5 * ((s as f64 - sp as f64) * 0.7).sin()
            }
        });
        let mut cblocks = Vec::new();
        let mut gblocks = Vec::new();
        for s in 0..n0 {
            let sf = s as f64;
            cblocks.push(DMat::from_rows(&[
                &[2.0 + 0.1 * sf, 0.3],
                &[0.0, 1.5 - 0.05 * sf],
            ]));
            gblocks.push(DMat::from_rows(&[
                &[0.5, -0.2 * sf],
                &[0.1 * sf, 0.8 + 0.02 * sf],
            ]));
        }
        (dmat, cblocks, gblocks)
    }

    /// Factors `matrix` with a fresh cache and solves `rhs` once.
    fn solve_once(kind: LinearSolverKind, matrix: &NewtonMatrix<'_>, rhs: &[f64]) -> Vec<f64> {
        let mut cache = FactorCache::new(kind);
        cache.factor(matrix).unwrap();
        let mut x = rhs.to_vec();
        cache.solve_in_place(&mut x).unwrap();
        x
    }

    /// A 3×3 matrix with a fixed pattern whose diagonal shifts by `shift`.
    fn shifted(shift: f64) -> Triplets {
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 4.0 + shift);
        t.push(1, 1, 3.0 + shift);
        t.push(2, 2, 5.0 + shift);
        t.push(0, 1, 1.0);
        t.push(2, 0, 0.5);
        t
    }

    fn diag2() -> Triplets {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 2.0);
        t.push(1, 1, 3.0);
        t
    }

    #[test]
    fn backends_agree_unbordered() {
        let (dmat, cblocks, gblocks) = synthetic_blocks();
        let parts = synthetic_parts(&dmat, &cblocks, &gblocks);
        let rhs: Vec<f64> = (0..parts.dim())
            .map(|i| ((i * 3 % 7) as f64) - 3.0)
            .collect();
        let trip = parts.assemble_triplets();
        let matrix = NewtonMatrix::Triplets(&trip);
        let dense = solve_once(LinearSolverKind::Dense, &matrix, &rhs);
        let klu = solve_once(LinearSolverKind::Klu, &matrix, &rhs);
        for i in 0..rhs.len() {
            assert!((dense[i] - klu[i]).abs() < 1e-9, "klu mismatch at {i}");
        }
    }

    #[test]
    fn backends_agree_bordered() {
        let (dmat, cblocks, gblocks) = synthetic_blocks();
        let len = 10;
        let row: Vec<f64> = (0..len)
            .map(|k| if k % 2 == 0 { 1.0 } else { 0.0 })
            .collect();
        let col: Vec<f64> = (0..len).map(|k| 0.1 + (k as f64 * 0.11).cos()).collect();
        let mut parts = synthetic_parts(&dmat, &cblocks, &gblocks);
        parts.border = Some((&row, &col));
        assert_eq!(parts.dim(), len + 1);
        let rhs: Vec<f64> = (0..parts.dim())
            .map(|i| 1.0 + (i as f64 * 0.3).sin())
            .collect();
        let trip = parts.assemble_triplets();
        let matrix = NewtonMatrix::Triplets(&trip);
        let dense = solve_once(LinearSolverKind::Dense, &matrix, &rhs);
        let klu = solve_once(LinearSolverKind::Klu, &matrix, &rhs);
        for i in 0..rhs.len() {
            assert!((dense[i] - klu[i]).abs() < 1e-9, "klu mismatch at {i}");
        }
    }

    /// The triplet assembly as a plain dense scan of every block entry:
    /// the reference [`JacobianParts::push_triplets`] must reproduce
    /// entry by entry.
    fn dense_scan_triplets(p: &JacobianParts<'_>) -> Triplets {
        let (n, n0, len) = (p.n, p.n0, p.len());
        let mut t = Triplets::new(p.dim(), p.dim());
        for s in 0..n0 {
            for i in 0..n {
                for j in 0..n {
                    let v = p.inv_h * p.cblocks[s][(i, j)] + p.theta * p.gblocks[s][(i, j)];
                    if v != 0.0 {
                        t.push(s * n + i, s * n + j, v);
                    }
                }
            }
        }
        for s in 0..n0 {
            for sp in 0..n0 {
                let d = p.theta * p.omega * p.dmat[(s, sp)];
                if d == 0.0 {
                    continue;
                }
                for i in 0..n {
                    for j in 0..n {
                        let v = d * p.cblocks[sp][(i, j)];
                        if v != 0.0 {
                            t.push(s * n + i, sp * n + j, v);
                        }
                    }
                }
            }
        }
        if let Some((row, col)) = p.border {
            for k in 0..len {
                if row[k] != 0.0 {
                    t.push(len, k, row[k]);
                }
                if col[k] != 0.0 {
                    t.push(k, len, col[k]);
                }
            }
        }
        t
    }

    fn assert_same_entries(a: &Triplets, b: &Triplets, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: entry count");
        for (k, ((ar, ac, av), (br, bc, bv))) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!((ar, ac), (br, bc), "{what}: coordinates of entry {k}");
            assert_eq!(
                av.to_bits(),
                bv.to_bits(),
                "{what}: value bits at ({ar},{ac})"
            );
        }
    }

    #[test]
    fn triplet_assembly_matches_dense_scan_entry_by_entry() {
        let (mut dmat, mut cblocks, gblocks) = synthetic_blocks();
        let len = 10;
        let row: Vec<f64> = (0..len).map(|k| (k as f64 * 0.4).sin()).collect();
        let col: Vec<f64> = (0..len).map(|k| 0.1 + (k as f64 * 0.11).cos()).collect();
        for bordered in [false, true] {
            let mut parts = synthetic_parts(&dmat, &cblocks, &gblocks);
            if bordered {
                parts.border = Some((&row, &col));
            }
            let what = format!("synthetic, bordered={bordered}");
            assert_same_entries(
                &parts.assemble_triplets(),
                &dense_scan_triplets(&parts),
                &what,
            );
        }
        // Explicit zeros in C (a whole zero block, a signed zero and a
        // lone zero entry), a NaN entry, and a zero in D off its
        // diagonal.
        cblocks[1] = DMat::zeros(2, 2);
        cblocks[2][(0, 1)] = -0.0;
        cblocks[3][(1, 0)] = 0.0;
        cblocks[4][(0, 0)] = f64::NAN;
        dmat[(0, 3)] = 0.0;
        for bordered in [false, true] {
            let mut parts = synthetic_parts(&dmat, &cblocks, &gblocks);
            if bordered {
                parts.border = Some((&row, &col));
            }
            let what = format!("zeros, bordered={bordered}");
            let trip = parts.assemble_triplets();
            assert!(trip.iter().any(|(_, _, v)| v.is_nan()), "{what}: NaN kept");
            assert_same_entries(&trip, &dense_scan_triplets(&parts), &what);
        }
        // A non-finite coefficient turns C's zeros into NaN: every entry
        // of the affected block rows is pushed, as in the dense scan. A
        // zero θ or ω pushes no cross term, unless the other is infinite.
        for (theta, omega) in [
            (0.5, f64::INFINITY),
            (0.0, 1.3),
            (0.5, 0.0),
            (0.0, f64::INFINITY),
        ] {
            let mut parts = synthetic_parts(&dmat, &cblocks, &gblocks);
            parts.theta = theta;
            parts.omega = omega;
            assert_same_entries(
                &parts.assemble_triplets(),
                &dense_scan_triplets(&parts),
                &format!("theta={theta} omega={omega}"),
            );
        }
    }

    #[test]
    fn dense_and_triplet_assembly_agree() {
        let (dmat, cblocks, gblocks) = synthetic_blocks();
        let parts = synthetic_parts(&dmat, &cblocks, &gblocks);
        let a = parts.assemble_dense();
        let b = parts.assemble_triplets().to_dense();
        for i in 0..parts.dim() {
            for j in 0..parts.dim() {
                assert!((a[(i, j)] - b[(i, j)]).abs() < 1e-15, "({i},{j})");
            }
        }
    }

    #[test]
    fn matrix_forms_and_backends_agree() {
        let m = DMat::from_rows(&[
            &[4.0, 1.0, 0.0, 0.5],
            &[1.0, 3.0, 0.2, 0.0],
            &[0.0, 0.2, 5.0, 1.0],
            &[0.5, 0.0, 1.0, 2.0],
        ]);
        let rhs = vec![1.0, -2.0, 0.5, 3.0];
        let dense = solve_once(LinearSolverKind::Dense, &NewtonMatrix::Dense(&m), &rhs);

        // The same matrix as triplets and as a dense matrix, solved with
        // every backend.
        let mut t = Triplets::new(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                if m[(i, j)] != 0.0 {
                    t.push(i, j, m[(i, j)]);
                }
            }
        }
        for matrix in [NewtonMatrix::Triplets(&t), NewtonMatrix::Dense(&m)] {
            for kind in [LinearSolverKind::Dense, LinearSolverKind::Klu] {
                let x = solve_once(kind, &matrix, &rhs);
                for i in 0..4 {
                    assert!((x[i] - dense[i]).abs() < 1e-8, "{}: {i}", kind.label());
                }
            }
        }
    }

    #[test]
    fn singular_matrix_reported() {
        let m = DMat::zeros(2, 2);
        let err = FactorCache::new(LinearSolverKind::Dense)
            .factor(&NewtonMatrix::Dense(&m))
            .unwrap_err();
        assert!(!err.cause.is_empty());
        assert!(err.to_string().contains("linear solve failed"));
    }

    /// A good matrix, then a singular one with the same pattern (so KLU
    /// tries an in-place numeric refactor first): the failed factor must
    /// not leave the old or half-overwritten factors behind.
    #[test]
    fn failed_factor_clears_the_cached_factors() {
        let good = DMat::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]);
        let singular = DMat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        for kind in [LinearSolverKind::Dense, LinearSolverKind::Klu] {
            let mut cache = FactorCache::new(kind);
            cache.factor(&NewtonMatrix::Dense(&good)).unwrap();
            let mut x = [1.0, 2.0];
            cache.solve_in_place(&mut x).unwrap();
            assert!(cache.factor(&NewtonMatrix::Dense(&singular)).is_err());
            let err = cache.solve_in_place(&mut [1.0, 2.0]).unwrap_err();
            assert!(
                err.cause.contains("no factorisation cached"),
                "{kind:?}: {err}"
            );
            cache.factor(&NewtonMatrix::Dense(&good)).unwrap();
            let mut y = [1.0, 2.0];
            cache.solve_in_place(&mut y).unwrap();
            assert_eq!(y, x, "{kind:?}: recovers after the failure");
        }
    }

    #[test]
    fn factor_cache_reuses_symbolic_on_same_pattern() {
        // Same pattern, shifting values: one symbolic analysis, then
        // numeric-only refactorisations — each bitwise identical to a
        // fresh factorisation.
        let mut cache = FactorCache::new(LinearSolverKind::Klu);
        for iter in 0..4 {
            let t = shifted(iter as f64);
            cache.factor(&NewtonMatrix::Triplets(&t)).unwrap();
            let mut x = vec![1.0, 2.0, 3.0];
            cache.solve_in_place(&mut x).unwrap();
            let fresh = solve_once(
                LinearSolverKind::Klu,
                &NewtonMatrix::Triplets(&t),
                &[1.0, 2.0, 3.0],
            );
            assert_eq!(x, fresh, "iteration {iter}");
        }
        let stats = cache.stats();
        assert_eq!(stats.factorisations, 4);
        assert_eq!(stats.symbolic_reuses, 3);
        assert_eq!(stats.pattern_rebuilds, 0);
    }

    #[test]
    fn factor_cache_rebuilds_on_pattern_change() {
        let mut cache = FactorCache::new(LinearSolverKind::Klu);
        cache.factor(&NewtonMatrix::Triplets(&diag2())).unwrap();
        // New pattern: off-diagonal appears.
        let mut t2 = diag2();
        t2.push(0, 1, 1.0);
        cache.factor(&NewtonMatrix::Triplets(&t2)).unwrap();
        let mut x = vec![3.0, 3.0];
        cache.solve_in_place(&mut x).unwrap();
        assert!((x[1] - 1.0).abs() < 1e-12 && (x[0] - 1.0).abs() < 1e-12);
        let stats = cache.stats();
        assert_eq!(stats.factorisations, 2);
        assert_eq!(stats.symbolic_reuses, 0);
        assert_eq!(stats.pattern_rebuilds, 1);
    }

    /// One klu cache through patterns A → B → A → a singular A → A:
    /// every solve has the bits of a fresh cache's, whether the
    /// assembly plan was replayed or rebuilt, and the singular step
    /// fails exactly as a fresh factor does.
    #[test]
    fn klu_plan_survives_pattern_changes_and_a_failed_factor() {
        let rhs = [1.0, -2.0, 0.5];
        // Pattern A with row 1 all (stored) zeros.
        let mut singular = Triplets::new(3, 3);
        for (r, c, v) in shifted(0.0).iter() {
            singular.push(r, c, if r == 1 { 0.0 } else { v });
        }
        let steps = [
            (shifted(0.0), true),
            (diag2_padded(), true),
            (shifted(1.5), true),
            (singular, false),
            (shifted(-0.5), true),
        ];
        let mut cache = FactorCache::new(LinearSolverKind::Klu);
        for (t, solvable) in &steps {
            let matrix = NewtonMatrix::Triplets(t);
            let mut fresh = FactorCache::new(LinearSolverKind::Klu);
            if !solvable {
                let err = cache.factor(&matrix).unwrap_err();
                assert_eq!(err, fresh.factor(&matrix).unwrap_err());
                assert!(cache.solve_in_place(&mut rhs.to_vec()).is_err());
                continue;
            }
            cache.factor(&matrix).unwrap();
            fresh.factor(&matrix).unwrap();
            let (mut x, mut y) = (rhs.to_vec(), rhs.to_vec());
            cache.solve_in_place(&mut x).unwrap();
            fresh.solve_in_place(&mut y).unwrap();
            assert_eq!(bits(&x), bits(&y));
        }
    }

    /// A dense input's pattern is its nonzeros: when an entry becomes
    /// exactly zero, the klu arm records a new plan instead of
    /// replaying the old one.
    #[test]
    fn klu_plan_follows_a_dense_inputs_zero_pattern() {
        let full = DMat::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.0], &[0.25, 0.0, 5.0]]);
        let mut thinned = full.clone();
        thinned[(0, 2)] = 0.0;
        let mut cache = FactorCache::new(LinearSolverKind::Klu);
        for (m, nnz) in [(&full, 7), (&thinned, 6), (&full, 7)] {
            let matrix = NewtonMatrix::Dense(m);
            cache.factor(&matrix).unwrap();
            let plan = cache.plan.as_ref().expect("klu records a plan");
            assert!(plan.matches(&matrix.to_triplets()));
            assert_eq!(plan.csc().nnz(), nnz);
            let mut x = vec![1.0, 2.0, 3.0];
            cache.solve_in_place(&mut x).unwrap();
            assert_eq!(
                bits(&x),
                bits(&solve_once(
                    LinearSolverKind::Klu,
                    &matrix,
                    &[1.0, 2.0, 3.0]
                ))
            );
        }
        assert_eq!(cache.stats().pattern_rebuilds, 2);
    }

    /// A block solve has, column by column, the bits of single solves
    /// on both backends; a block of the wrong size is an error.
    #[test]
    fn block_solve_matches_column_solves_on_every_backend() {
        let t = shifted(0.5);
        let m = 4;
        let block: Vec<f64> = (0..3 * m)
            .map(|k| {
                if k % m == 2 {
                    0.0
                } else {
                    (k as f64 * 0.7).sin()
                }
            })
            .collect();
        for kind in [LinearSolverKind::Dense, LinearSolverKind::Klu] {
            let mut cache = FactorCache::new(kind);
            cache.factor(&NewtonMatrix::Triplets(&t)).unwrap();
            let mut x = block.clone();
            cache.solve_block_in_place(&mut x, m).unwrap();
            for c in 0..m {
                let mut col: Vec<f64> = (0..3).map(|i| block[i * m + c]).collect();
                cache.solve_in_place(&mut col).unwrap();
                let got: Vec<f64> = (0..3).map(|i| x[i * m + c]).collect();
                assert_eq!(bits(&got), bits(&col), "{kind:?} column {c}");
            }
            assert!(cache.solve_block_in_place(&mut [0.0; 7], 2).is_err());
        }
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// `diag2` on the 3×3 grid of [`shifted`], a second pattern.
    fn diag2_padded() -> Triplets {
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(1, 1, 3.0);
        t.push(2, 2, 1.0);
        t
    }

    #[test]
    fn shared_symbolic_skips_symbolic_in_a_second_cache() {
        // Two caches (two "sweep jobs") over the same pattern: the first
        // factors fresh and publishes, the second's very first factor is
        // a numeric-only refactor of the shared template — with a
        // solution identical to factoring from scratch.
        let shared = SharedSymbolic::new();
        let guard = shared.install();
        let mut first = FactorCache::new(LinearSolverKind::Klu);
        first
            .factor(&NewtonMatrix::Triplets(&shifted(0.0)))
            .unwrap();
        assert_eq!(first.stats().symbolic_reuses, 0);
        assert_eq!(shared.len(), 1);

        let t1 = shifted(2.5);
        let mut second = FactorCache::new(LinearSolverKind::Klu);
        second.factor(&NewtonMatrix::Triplets(&t1)).unwrap();
        assert_eq!(second.stats().factorisations, 1);
        assert_eq!(second.stats().symbolic_reuses, 1, "template not reused");
        let mut x = vec![1.0, 2.0, 3.0];
        second.solve_in_place(&mut x).unwrap();
        drop(guard);
        let fresh = solve_once(
            LinearSolverKind::Klu,
            &NewtonMatrix::Triplets(&t1),
            &[1.0, 2.0, 3.0],
        );
        assert_eq!(x, fresh, "shared-symbolic solve differs from fresh");
    }

    #[test]
    fn shared_symbolic_mismatch_falls_through_to_fresh() {
        // A different pattern must not borrow the template; it factors
        // fresh and is published as a second template.
        let shared = SharedSymbolic::new();
        let _guard = shared.install();
        let mut cache = FactorCache::new(LinearSolverKind::Klu);
        cache.factor(&NewtonMatrix::Triplets(&diag2())).unwrap();

        let mut b = diag2();
        b.push(0, 1, 1.0);
        let mut other = FactorCache::new(LinearSolverKind::Klu);
        other.factor(&NewtonMatrix::Triplets(&b)).unwrap();
        assert_eq!(other.stats().symbolic_reuses, 0);
        assert_eq!(shared.len(), 2);
        let mut x = vec![3.0, 3.0];
        other.solve_in_place(&mut x).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ambient_install_seeds_new_caches_until_guard_drops() {
        let shared = SharedSymbolic::new();
        let t = diag2();
        {
            let _guard = shared.install();
            let mut cache = FactorCache::new(LinearSolverKind::Klu);
            cache.factor(&NewtonMatrix::Triplets(&t)).unwrap();
            assert_eq!(shared.len(), 1, "ambient cache did not publish");
            let mut warm = FactorCache::new(LinearSolverKind::Klu);
            warm.factor(&NewtonMatrix::Triplets(&t)).unwrap();
            assert_eq!(warm.stats().symbolic_reuses, 1);
        }
        // Guard dropped: new caches are unpooled again.
        let mut cold = FactorCache::new(LinearSolverKind::Klu);
        cold.factor(&NewtonMatrix::Triplets(&t)).unwrap();
        assert_eq!(cold.stats().symbolic_reuses, 0);
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn factor_cache_dense_path() {
        let m = DMat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let mut cache = FactorCache::new(LinearSolverKind::Dense);
        assert!(cache.solve_in_place(&mut [1.0, 1.0]).is_err(), "unfactored");
        cache.factor(&NewtonMatrix::Dense(&m)).unwrap();
        let mut x = vec![5.0, 4.0];
        cache.solve_in_place(&mut x).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-8 && (x[1] - 1.0).abs() < 1e-8);
        assert_eq!(cache.stats().symbolic_reuses, 0);
    }

    #[test]
    fn factor_cache_set_kind_resets_state() {
        let mut cache = FactorCache::new(LinearSolverKind::Klu);
        cache.factor(&NewtonMatrix::Triplets(&diag2())).unwrap();
        cache.set_kind(LinearSolverKind::Dense);
        assert!(cache.solve_in_place(&mut [1.0, 1.0]).is_err());
        assert_eq!(cache.kind(), LinearSolverKind::Dense);
    }

    #[test]
    fn assemble_dense_into_matches_allocating_path() {
        let (dmat, cblocks, gblocks) = synthetic_blocks();
        let parts = synthetic_parts(&dmat, &cblocks, &gblocks);
        let a = parts.assemble_dense();
        let mut b = DMat::from_fn(parts.dim(), parts.dim(), |_, _| 7.0); // pre-dirty
        parts.assemble_dense_into(&mut b);
        for i in 0..parts.dim() {
            for j in 0..parts.dim() {
                assert_eq!(a[(i, j)], b[(i, j)], "({i},{j})");
            }
        }
    }

    #[test]
    fn kind_parsing_and_labels() {
        assert_eq!(
            LinearSolverKind::parse("dense"),
            Some(LinearSolverKind::Dense)
        );
        assert_eq!(LinearSolverKind::parse("KLU"), Some(LinearSolverKind::Klu));
        // Retired backends are not names.
        assert_eq!(LinearSolverKind::parse("gmres"), None);
        assert_eq!(LinearSolverKind::parse("gmres-circulant"), None);
        assert_eq!(LinearSolverKind::parse("bogus"), None);
        // The natural-order kernel is not a backend.
        assert_eq!(LinearSolverKind::parse("sparselu"), None);
        // The advertised names are exactly the parseable ones.
        for name in LinearSolverKind::NAMES {
            assert_eq!(LinearSolverKind::parse(name).map(|k| k.label()), Some(name));
        }
        assert_eq!(LinearSolverKind::default().label(), "dense");
        assert_eq!(LinearSolverKind::Klu.label(), "klu");
    }

    #[test]
    fn factor_cache_dense_eliminates_by_blocks_under_a_cyclic_shape() {
        // Block-cyclic system: 4 blocks of 2, diagonal + previous-block
        // coupling — the quasiperiodic stencil's shape.
        let (n1, bw) = (4, 2);
        let mut t = Triplets::new(n1 * bw, n1 * bw);
        for r in 0..n1 {
            let prev = (r + n1 - 1) % n1;
            for p in 0..bw {
                t.push(r * bw + p, r * bw + p, 4.0);
                t.push(r * bw + p, prev * bw + p, -1.0);
            }
        }
        let rhs: Vec<f64> = (0..n1 * bw).map(|i| (0.3 * i as f64).cos()).collect();
        let dense = solve_once(LinearSolverKind::Dense, &NewtonMatrix::Triplets(&t), &rhs);

        let mut cache = FactorCache::new(LinearSolverKind::Dense);
        let shape = CyclicShape {
            blocks: n1,
            block_dim: bw,
        };
        cache.set_cyclic_shape(Some(shape));
        assert_eq!(cache.cyclic_shape(), Some(shape));
        cache.factor(&NewtonMatrix::Triplets(&t)).unwrap();
        assert!(matches!(cache.factored, Some(Factored::Cyclic(_))));
        let mut x = rhs.clone();
        cache.solve_in_place(&mut x).unwrap();
        for i in 0..rhs.len() {
            assert!((x[i] - dense[i]).abs() < 1e-12, "cyclic mismatch at {i}");
        }

        // Without a shape the backend is the plain dense LU again.
        cache.set_cyclic_shape(None);
        cache.factor(&NewtonMatrix::Triplets(&t)).unwrap();
        assert!(matches!(cache.factored, Some(Factored::Dense(_))));
    }
}
