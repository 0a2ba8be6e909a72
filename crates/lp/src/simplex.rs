//! Two-phase primal simplex with sparse elimination.
//!
//! The implementation keeps the full tableau in row-major `f64` storage and
//! maintains the reduced-cost row incrementally. Phase 1 maximizes the
//! negated sum of artificial variables; phase 2 optimizes the user objective.
//! Dantzig pricing is used by default with a switch to Bland's rule after a
//! pivot budget is exceeded, which guarantees termination.
//!
//! A pivot updates the other rows only at the non-zero columns of the
//! normalized pivot row: subtracting `factor * ±0.0` leaves every entry as
//! it is, except that a `-0.0` can turn into `+0.0`. So the rows that may
//! hold a `-0.0` (a right-hand side given as `-0.0`, a row normalized by a
//! negative pivot) and the reduced-cost row, whose zero costs are `-0.0`,
//! are still updated over their full width. The tableau therefore stays
//! bit-identical to the dense solver's kept in [`crate::reference`], and
//! so do the results, duals included. Collecting the non-zero columns
//! costs a pass over the pivot row, so a pivot collects them only once it
//! has updated `SPARSE_AFTER` rows, and uses them only when at most a
//! quarter of the columns are non-zero; otherwise the vectorized
//! full-width update is faster.
//!
//! The full-width passes, normalizing the pivot row and `x -= f·p` over a
//! row, run through [`crate::kernel`]. A solve or sweep detects once
//! whether the CPU has AVX2 (std caches the probe) and every pivot then
//! runs either the baseline compilation of the passes or the AVX2 one.
//! The two differ only in vector width: neither uses FMA (Rust never
//! fuses a multiply and a subtract), and SSE2 and AVX2 share the MXCSR
//! rounding and denormal modes, so each element gets the same multiply and
//! then the same subtract on either path. The tableau, and with it every
//! primal, dual and revenue bit, is the same. [`crate::reference`] keeps
//! its own scalar loops, so it stays an independent oracle.
//!
//! Every buffer the solver touches lives in a [`SimplexWorkspace`], so a
//! sweep of LPs (LPIP's thresholds, CIP's capacities) pays for its tableau
//! once instead of once per LP. Only the returned primal and dual vectors
//! are allocated per solve.
//!
//! [`sweep`] solves one constraint set under many objectives. Phase 1 never
//! reads the objective, so it runs once; the artificial columns are then
//! compacted out of the tableau, the post-phase-1 state is kept as a sparse
//! snapshot, and each objective restores the snapshot and runs phase 2.

use crate::kernel::Isa;
use crate::problem::reserve_total;
use crate::{ConstraintOp, LpError, LpProblem, LpSolution, LpStatus, Sense, SweepSolution, EPS};

/// Per-row bookkeeping of how the original constraint was normalized.
#[derive(Debug)]
struct RowInfo {
    /// Column index of the identity ("logical") column of this row: the slack
    /// column for `≤` rows, the artificial column for `≥` / `=` rows. Used to
    /// read the dual value from the reduced-cost row.
    logical_col: usize,
    /// Whether the row was multiplied by -1 to make the right-hand side
    /// non-negative; the reported dual must then be negated.
    negated: bool,
    /// Whether the row is still active (phase 1 may drop redundant rows).
    active: bool,
    /// Whether the row may hold a `-0.0`. Such a row is eliminated over its
    /// full width (see the module docs); every other row holds none. Once
    /// set, the flag stays set.
    neg_zero: bool,
}

/// Rows a pivot updates over their full width before it collects the pivot
/// row's non-zero columns. LPIP's pivots mostly update fewer rows than
/// this; CIP's update tens to hundreds.
const SPARSE_AFTER: usize = 4;

/// A pivot row with more than `1 / DENSE_DIV` of its entries non-zero is
/// eliminated over the full width of every row: that loop vectorizes, and
/// at such densities it beats the indexed one.
const DENSE_DIV: usize = 4;

/// The bits of `-0.0`.
const NEG_ZERO: u64 = 1 << 63;

/// Reusable buffers of the simplex solver: the tableau with its
/// reduced-cost row, pivot-row copy and basis bookkeeping, and the phase
/// cost vector.
///
/// Solving through one workspace ([`LpProblem::solve_with`]) returns
/// exactly the solution a fresh [`LpProblem::solve`] returns — same pivots,
/// same floating-point operations, same bits — whatever the workspace
/// solved before, including a solve that stopped with an error. Buffers
/// grow to the largest problem seen and are freed when the workspace is
/// dropped, so a caller scopes one workspace to one sweep of LPs.
#[derive(Debug, Default)]
pub struct SimplexWorkspace {
    t: Tableau,
    /// Cost vector of the current phase, length `cols`.
    cost: Vec<f64>,
}

impl SimplexWorkspace {
    /// An empty workspace; its buffers are sized by the first solve.
    pub fn new() -> SimplexWorkspace {
        SimplexWorkspace::default()
    }

    /// Grows the buffers to hold the tableau of a problem with `rows`
    /// constraints and `cols` columns (its variables plus one slack or
    /// surplus column per `≤`/`≥` row and one artificial column per `≥`/`=`
    /// row), so a [`LpProblem::solve_with`] up to that size allocates
    /// nothing but its result vectors.
    pub fn reserve(&mut self, rows: usize, cols: usize) {
        let w = cols + 1;
        let t = &mut self.t;
        reserve_total(&mut t.a, rows * w);
        reserve_total(&mut t.obj, w);
        reserve_total(&mut t.pivot_row, w);
        reserve_total(&mut t.nz, w);
        reserve_total(&mut t.basis, rows);
        reserve_total(&mut t.rows, rows);
        reserve_total(&mut self.cost, cols);
    }
}

/// Simplex tableau.
#[derive(Debug, Default)]
struct Tableau {
    /// Number of rows (constraints).
    m: usize,
    /// Total number of columns excluding the RHS.
    cols: usize,
    /// Number of structural (user) variables.
    n_struct: usize,
    /// First artificial column index (artificials occupy `art_start..cols`).
    art_start: usize,
    /// Pivot count after which [`iterate`] switches to Bland's rule. Fixed
    /// by the tableau as built; compacting the artificials out leaves it be.
    bland_threshold: usize,
    /// Row-major matrix of size `m x (cols + 1)`; the last entry of each row
    /// is the right-hand side.
    a: Vec<f64>,
    /// Reduced-cost row of size `cols + 1` (last entry is the negated
    /// objective value of the current basis).
    obj: Vec<f64>,
    /// Scratch copy of the pivot row, size `cols + 1`.
    pivot_row: Vec<f64>,
    /// Columns of the non-zero entries of `pivot_row`, RHS included; only
    /// a prefix is live after each pivot.
    nz: Vec<u32>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    /// Per-row normalization info.
    rows: Vec<RowInfo>,
    /// The compilation of the dense row passes pivots run.
    isa: Isa,
}

impl Tableau {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * (self.cols + 1) + c]
    }

    #[inline]
    fn rhs(&self, r: usize) -> f64 {
        self.a[r * (self.cols + 1) + self.cols]
    }

    /// Performs a pivot on `(pivot_row, pivot_col)`, updating all rows and
    /// the reduced-cost row.
    fn pivot(&mut self, pivot_row: usize, pivot_col: usize) {
        let w = self.cols + 1;
        let pr_start = pivot_row * w;
        let piv = self.a[pr_start + pivot_col];
        debug_assert!(piv.abs() > EPS, "pivot element too small");

        // Normalize the pivot row.
        let inv = 1.0 / piv;
        self.isa.scale(&mut self.a[pr_start..pr_start + w], inv);
        self.a[pr_start + pivot_col] = 1.0;

        // Split borrows by copying the pivot row once; the copy is reused
        // for the objective row as well.
        self.pivot_row
            .copy_from_slice(&self.a[pr_start..pr_start + w]);
        let pivot = &self.pivot_row[..];
        // A row without a `-0.0` gains one only from a negative pivot
        // (`+0.0 * inv`) or from a pivot above 1 underflowing a tiny
        // negative entry; `inv >= 1` rules out both.
        if inv < 1.0 && pivot.iter().any(|x| x.to_bits() == NEG_ZERO) {
            self.rows[pivot_row].neg_zero = true;
        }

        let mut updated = 0;
        let mut sparse = false;
        let mut len = 0;
        for r in 0..self.m {
            if r == pivot_row {
                continue;
            }
            let row = &mut self.a[r * w..(r + 1) * w];
            let factor = row[pivot_col];
            if factor.abs() <= EPS {
                row[pivot_col] = 0.0;
                continue;
            }
            updated += 1;
            if updated == SPARSE_AFTER {
                len = collect_nonzeros(pivot, &mut self.nz);
                sparse = len * DENSE_DIV <= w;
            }
            if sparse && !self.rows[r].neg_zero {
                for &j in &self.nz[..len] {
                    let j = j as usize;
                    row[j] -= factor * pivot[j];
                }
            } else {
                self.isa.eliminate(row, pivot, factor);
            }
            row[pivot_col] = 0.0;
        }
        // The reduced-cost row stays dense (its zero costs are `-0.0`).
        let factor = self.obj[pivot_col];
        if factor.abs() > EPS {
            self.isa.eliminate(&mut self.obj, pivot, factor);
        }
        self.obj[pivot_col] = 0.0;

        self.basis[pivot_row] = pivot_col;
    }

    /// Recomputes the reduced-cost row `obj[j] = c_B·(tableau col j) − c[j]`
    /// for the cost vector `c` (indexed over all columns; missing entries are
    /// treated as zero).
    fn rebuild_objective(&mut self, c: &[f64]) {
        let w = self.cols + 1;
        self.obj.fill(0.0);
        // obj = -c, then add c_B * row_i for every basic row.
        for (j, &cj) in c.iter().enumerate() {
            self.obj[j] = -cj;
        }
        for r in 0..self.m {
            if !self.rows[r].active {
                continue;
            }
            let cb = c.get(self.basis[r]).copied().unwrap_or(0.0);
            // float-eq: exact-zero skip of untouched objective entries;
            // cb is copied, never computed, so 0.0 compares exactly.
            if cb == 0.0 {
                continue;
            }
            for (o, &x) in self.obj.iter_mut().zip(&self.a[r * w..(r + 1) * w]) {
                *o += cb * x;
            }
        }
        // Reduced costs of basic columns are exactly zero.
        for r in 0..self.m {
            if self.rows[r].active {
                self.obj[self.basis[r]] = 0.0;
            }
        }
    }

    /// Chooses an entering column among `allowed` (columns `< limit`), or
    /// `None` if the current basis is optimal. `bland` selects the smallest
    /// eligible index instead of the most negative reduced cost.
    fn choose_entering(&self, limit: usize, bland: bool) -> Option<usize> {
        if bland {
            (0..limit).find(|&j| self.obj[j] < -EPS)
        } else {
            let mut best = None;
            let mut best_val = -EPS;
            for j in 0..limit {
                let v = self.obj[j];
                if v < best_val {
                    best_val = v;
                    best = Some(j);
                }
            }
            best
        }
    }

    /// Ratio test: chooses the leaving row for entering column `col`.
    /// Returns `None` if the column is unbounded (no positive entries).
    fn choose_leaving(&self, col: usize) -> Option<usize> {
        let mut best_row = None;
        let mut best_ratio = f64::INFINITY;
        for r in 0..self.m {
            if !self.rows[r].active {
                continue;
            }
            let a = self.at(r, col);
            if a > EPS {
                let ratio = self.rhs(r) / a;
                // Tie-break on the smallest basic variable index; together
                // with the Bland fallback this prevents cycling in practice.
                let better = ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS
                        && best_row
                            .map(|br: usize| self.basis[r] < self.basis[br])
                            .unwrap_or(true));
                if better {
                    best_ratio = ratio;
                    best_row = Some(r);
                }
            }
        }
        best_row
    }

    /// Removes the artificial columns from every row in place and releases
    /// the freed memory. Phase 2 never reads them: artificials cannot
    /// re-enter, and each column's updates depend only on that column and
    /// the pivot column. Only the duals of `≥`/`=` rows read them, which is
    /// why a sweep reports no duals.
    fn compact(&mut self) {
        let w = self.cols + 1;
        let keep = self.art_start;
        let nw = keep + 1;
        // Row r moves from `r * w` down to `r * nw`; rows are moved in
        // increasing order, so no row is overwritten before it moves.
        for r in 0..self.m {
            self.a.copy_within(r * w..r * w + keep, r * nw);
            self.a[r * nw + keep] = self.a[r * w + self.cols];
        }
        self.a.truncate(self.m * nw);
        self.a.shrink_to_fit();
        self.obj.truncate(nw);
        self.pivot_row.truncate(nw);
        self.nz.truncate(nw);
        self.cols = keep;
    }

    /// The primal solution and its objective value `objective · x`.
    fn primal(&self, objective: &[f64]) -> (f64, Vec<f64>) {
        // alloc: the primal vector is the caller's result, one per solve.
        let mut primal = vec![0.0; self.n_struct];
        for r in 0..self.m {
            if !self.rows[r].active {
                continue;
            }
            let b = self.basis[r];
            if b < self.n_struct {
                // Clamp tiny negative values introduced by rounding.
                primal[b] = self.rhs(r).max(0.0);
            }
        }
        let mut value = 0.0;
        for (j, &cj) in objective.iter().enumerate() {
            value += cj * primal[j];
        }
        (value, primal)
    }

    /// The dual value of every row, read from the reduced-cost row.
    ///
    /// For the internal maximization problem, the dual of row i is the
    /// reduced cost of its logical column. Negated rows and minimization
    /// problems (`flip = -1`) flip the sign back to the user's convention.
    fn duals(&self, flip: f64) -> Vec<f64> {
        // alloc: the dual vector is the caller's result, one per solve.
        let mut dual = vec![0.0; self.m];
        for (r, row) in self.rows.iter().enumerate() {
            if !row.active {
                continue;
            }
            let mut y = self.obj[row.logical_col];
            if row.negated {
                y = -y;
            }
            y *= flip;
            dual[r] = y;
        }
        dual
    }
}

/// The post-phase-1 state of a compacted tableau, kept sparsely so a sweep
/// can restart phase 2 from it once per objective. Phase 2 changes only the
/// tableau entries and the basis, so those are what it holds. (It never
/// changes the rows' active flags, and only ever sets `neg_zero` flags; a
/// needlessly set one costs a full-width update, never a different bit.)
struct Snapshot {
    /// Flat tableau indices of the entries whose bits are not `+0.0`
    /// (a `-0.0` is kept, so a restore is bit-exact).
    index: Vec<u32>,
    /// The values at `index`.
    value: Vec<f64>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// Pivots phase 1 took.
    iterations: usize,
}

impl Snapshot {
    fn take(t: &Tableau, iterations: usize) -> Snapshot {
        let nnz = t.a.iter().filter(|x| x.to_bits() != 0).count();
        // alloc: one snapshot per sweep, sized exactly.
        let mut index = Vec::with_capacity(nnz);
        // alloc: one snapshot per sweep, sized exactly.
        let mut value = Vec::with_capacity(nnz);
        for (i, &x) in t.a.iter().enumerate() {
            if x.to_bits() != 0 {
                index.push(i as u32);
                value.push(x);
            }
        }
        Snapshot {
            index,
            value,
            // alloc: one snapshot per sweep.
            basis: t.basis.to_vec(),
            iterations,
        }
    }

    fn restore(&self, t: &mut Tableau) {
        t.a.fill(0.0);
        for (&i, &x) in self.index.iter().zip(&self.value) {
            t.a[i as usize] = x;
        }
        t.basis.copy_from_slice(&self.basis);
    }
}

/// Writes the columns of `row`'s non-zero entries to the front of `nz`
/// and returns their count.
fn collect_nonzeros(row: &[f64], nz: &mut [u32]) -> usize {
    let nz = &mut nz[..row.len()];
    let mut len = 0;
    // Branch-free: every column is written, the count advances past the
    // non-zero ones only.
    for (j, &x) in row.iter().enumerate() {
        nz[len] = j as u32;
        // float-eq: exact-zero test; a zero of either sign is skipped.
        len += usize::from(x != 0.0);
    }
    len
}

/// Resets `buf` to `len` copies of `value`, keeping its allocation.
fn refill<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

/// Builds the initial tableau of a validated problem in `t`'s buffers,
/// overwriting whatever an earlier solve left there.
fn build_tableau(p: &LpProblem, t: &mut Tableau) {
    let m = p.num_constraints();
    let n = p.num_vars();

    // Count slack/surplus and artificial columns.
    let mut n_slack = 0;
    let mut n_art = 0;
    for c in p.constraints() {
        // Normalize sense after possible negation for negative rhs.
        let op = effective_op(c.op, c.rhs);
        match op {
            ConstraintOp::Le => n_slack += 1,
            ConstraintOp::Ge => {
                n_slack += 1;
                n_art += 1;
            }
            ConstraintOp::Eq => n_art += 1,
        }
    }

    let slack_start = n;
    let art_start = n + n_slack;
    let cols = n + n_slack + n_art;
    let w = cols + 1;
    // Column indices (and flat indices in a sweep's snapshot) are u32.
    assert!(u32::try_from(m * w).is_ok(), "tableau exceeds 2^32 entries");
    t.m = m;
    t.cols = cols;
    t.n_struct = n;
    t.art_start = art_start;
    t.bland_threshold = 8 * (m + cols) + 64;

    let Tableau {
        a,
        obj,
        pivot_row,
        nz,
        basis,
        rows,
        ..
    } = t;
    refill(a, m * w, 0.0);
    refill(obj, w, 0.0);
    refill(pivot_row, w, 0.0);
    refill(nz, w, 0);
    refill(basis, m, 0);
    rows.clear();

    let mut next_slack = slack_start;
    let mut next_art = art_start;

    for (i, c) in p.constraints().enumerate() {
        let negated = c.rhs < 0.0;
        let sign = if negated { -1.0 } else { 1.0 };
        let rhs = c.rhs * sign;
        let op = effective_op(c.op, c.rhs);

        let start = i * w;
        for &(j, v) in c.coeffs {
            a[start + j] += v * sign;
        }
        a[start + cols] = rhs;

        let logical_col;
        match op {
            ConstraintOp::Le => {
                a[start + next_slack] = 1.0;
                basis[i] = next_slack;
                logical_col = next_slack;
                next_slack += 1;
            }
            ConstraintOp::Ge => {
                a[start + next_slack] = -1.0;
                next_slack += 1;
                a[start + next_art] = 1.0;
                basis[i] = next_art;
                logical_col = next_art;
                next_art += 1;
            }
            ConstraintOp::Eq => {
                a[start + next_art] = 1.0;
                basis[i] = next_art;
                logical_col = next_art;
                next_art += 1;
            }
        }
        rows.push(RowInfo {
            logical_col,
            negated,
            active: true,
            // Every other entry of a fresh row is non-zero or `+0.0`.
            neg_zero: rhs.to_bits() == NEG_ZERO,
        });
    }
}

/// The constraint sense after normalizing a negative right-hand side.
fn effective_op(op: ConstraintOp, rhs: f64) -> ConstraintOp {
    if rhs >= 0.0 {
        return op;
    }
    match op {
        ConstraintOp::Le => ConstraintOp::Ge,
        ConstraintOp::Ge => ConstraintOp::Le,
        ConstraintOp::Eq => ConstraintOp::Eq,
    }
}

/// The factor that turns the user's objective into the internal
/// maximization (and the internal duals back).
fn flip(sense: Sense) -> f64 {
    match sense {
        Sense::Maximize => 1.0,
        Sense::Minimize => -1.0,
    }
}

/// Runs simplex iterations until optimality for the current reduced-cost row.
/// `limit` restricts the entering columns (used to exclude artificials in
/// phase 2). Returns the number of pivots, or an error on unboundedness /
/// iteration exhaustion.
fn iterate(t: &mut Tableau, limit: usize, max_iters: usize) -> Result<usize, LpError> {
    let mut iters = 0usize;
    loop {
        // Switch to Bland's rule once we have done "suspiciously many" pivots.
        let bland = iters > t.bland_threshold;
        let Some(col) = t.choose_entering(limit, bland) else {
            return Ok(iters);
        };
        let Some(row) = t.choose_leaving(col) else {
            return Err(LpError::Unbounded);
        };
        t.pivot(row, col);
        iters += 1;
        if iters >= max_iters {
            return Err(LpError::IterationLimit { iterations: iters });
        }
    }
}

/// Phase 1: drives the artificial variables to zero, then pivots the
/// remaining (zero-valued) artificials out of the basis where possible and
/// drops the rows where not. Reads no objective. Returns the pivot count.
fn phase1(t: &mut Tableau, cost: &mut Vec<f64>, max_iters: usize) -> Result<usize, LpError> {
    if t.art_start == t.cols {
        return Ok(0);
    }
    refill(cost, t.cols, 0.0);
    for cj in cost.iter_mut().skip(t.art_start) {
        *cj = -1.0; // maximize −Σ artificials
    }
    t.rebuild_objective(cost);
    let all_cols = t.cols;
    let iters = iterate(t, all_cols, max_iters)?;

    // Objective value of the phase-1 problem is stored implicitly; we
    // evaluate it directly as −Σ (artificial basic values).
    let mut art_sum = 0.0;
    for r in 0..t.m {
        if t.basis[r] >= t.art_start {
            art_sum += t.rhs(r);
        }
    }
    if art_sum > 1e-7 {
        return Err(LpError::Infeasible);
    }

    // Pivot remaining (zero-valued) artificials out of the basis where
    // possible; rows that cannot be pivoted are redundant and dropped.
    for r in 0..t.m {
        if t.basis[r] < t.art_start {
            continue;
        }
        let mut pivot_col = None;
        for j in 0..t.art_start {
            if t.at(r, j).abs() > 1e-7 {
                pivot_col = Some(j);
                break;
            }
        }
        match pivot_col {
            Some(j) => t.pivot(r, j),
            None => t.rows[r].active = false,
        }
    }
    Ok(iters)
}

/// Phase 2: optimizes `objective` (in the user's sense, `flip`) from the
/// feasible basis phase 1 left. Returns the pivot count.
fn phase2(
    t: &mut Tableau,
    cost: &mut Vec<f64>,
    objective: &[f64],
    flip: f64,
    max_iters: usize,
) -> Result<usize, LpError> {
    refill(cost, t.cols, 0.0);
    for (c, &cj) in cost.iter_mut().zip(objective) {
        *c = cj * flip;
    }
    t.rebuild_objective(cost);
    // Artificial columns must never re-enter the basis.
    let struct_and_slack = t.art_start;
    iterate(t, struct_and_slack, max_iters)
}

/// Solves `p` with the two-phase simplex method, in `ws`'s buffers, with
/// `isa`'s row passes.
pub(crate) fn solve(
    p: &LpProblem,
    ws: &mut SimplexWorkspace,
    isa: Isa,
) -> Result<LpSolution, LpError> {
    let SimplexWorkspace { t, cost } = ws;
    t.isa = isa;
    build_tableau(p, t);
    let max_iters = p.max_iterations();
    let flip = flip(p.sense());
    let phase1_iters = phase1(t, cost, max_iters)?;
    let phase2_iters = phase2(t, cost, p.objective(), flip, max_iters)?;
    let (objective, primal) = t.primal(p.objective());
    Ok(LpSolution {
        status: LpStatus::Optimal,
        objective,
        primal,
        dual: t.duals(flip),
        iterations: phase1_iters + phase2_iters,
    })
}

/// Solves `p`'s constraints under every objective in `objectives`, running
/// phase 1 once (see the module docs). Each result equals what
/// [`solve`] returns for `p` with that objective, less the duals.
/// `p` is taken by value so its constraints are freed once the tableau
/// holds them.
pub(crate) fn sweep(
    p: LpProblem,
    objectives: &[Vec<f64>],
    ws: &mut SimplexWorkspace,
    isa: Isa,
) -> Vec<Result<SweepSolution, LpError>> {
    let SimplexWorkspace { t, cost } = ws;
    t.isa = isa;
    let max_iters = p.max_iterations();
    let flip = flip(p.sense());
    // Validation and phase 1 are shared by every objective.
    let snapshot = match p.validate_constraints() {
        Ok(()) => {
            build_tableau(&p, t);
            drop(p);
            phase1(t, cost, max_iters).map(|iters| {
                t.compact();
                Snapshot::take(t, iters)
            })
        }
        Err(e) => Err(e),
    };
    objectives
        .iter()
        .map(|c| {
            crate::problem::validate_objective(c)?;
            let snapshot = snapshot.as_ref().map_err(Clone::clone)?;
            snapshot.restore(t);
            let iters = phase2(t, cost, c, flip, max_iters)?;
            let (objective, primal) = t.primal(c);
            Ok(SweepSolution {
                objective,
                primal,
                iterations: snapshot.iterations + iters,
            })
        })
        // alloc: one result per objective.
        .collect()
}

#[cfg(test)]
mod tests {
    use super::{build_tableau, Snapshot, Tableau, NEG_ZERO};
    use crate::{ConstraintOp, LpError, LpProblem, Sense};

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn simple_max_two_vars() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => obj 36 at (2,6)
        let mut lp = LpProblem::new(Sense::Maximize, 2);
        lp.set_objective(0, 3.0);
        lp.set_objective(1, 5.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 4.0);
        lp.add_constraint(vec![(1, 2.0)], ConstraintOp::Le, 12.0);
        lp.add_constraint(vec![(0, 3.0), (1, 2.0)], ConstraintOp::Le, 18.0);
        let sol = lp.solve().unwrap();
        assert!(approx(sol.objective, 36.0));
        assert!(approx(sol.primal[0], 2.0));
        assert!(approx(sol.primal[1], 6.0));
    }

    #[test]
    fn duals_match_known_shadow_prices() {
        // Same LP as above; known duals are (0, 3/2, 1).
        let mut lp = LpProblem::new(Sense::Maximize, 2);
        lp.set_objective(0, 3.0);
        lp.set_objective(1, 5.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 4.0);
        lp.add_constraint(vec![(1, 2.0)], ConstraintOp::Le, 12.0);
        lp.add_constraint(vec![(0, 3.0), (1, 2.0)], ConstraintOp::Le, 18.0);
        let sol = lp.solve().unwrap();
        assert!(approx(sol.dual[0], 0.0));
        assert!(approx(sol.dual[1], 1.5));
        assert!(approx(sol.dual[2], 1.0));
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 4, x + 2y >= 6 => optimum at (2,2), obj 10
        let mut lp = LpProblem::new(Sense::Minimize, 2);
        lp.set_objective(0, 2.0);
        lp.set_objective(1, 3.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 4.0);
        lp.add_constraint(vec![(0, 1.0), (1, 2.0)], ConstraintOp::Ge, 6.0);
        let sol = lp.solve().unwrap();
        assert!(approx(sol.objective, 10.0));
        // Duals of the min problem are non-negative for >= constraints.
        assert!(sol.dual[0] >= -1e-9);
        assert!(sol.dual[1] >= -1e-9);
        // Strong duality: b'y == objective.
        assert!(approx(4.0 * sol.dual[0] + 6.0 * sol.dual[1], 10.0));
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 5, x - y = 1 => (3,2), obj 5
        let mut lp = LpProblem::new(Sense::Maximize, 2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 5.0);
        lp.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintOp::Eq, 1.0);
        let sol = lp.solve().unwrap();
        assert!(approx(sol.objective, 5.0));
        assert!(approx(sol.primal[0], 3.0));
        assert!(approx(sol.primal[1], 2.0));
    }

    #[test]
    fn detects_infeasible() {
        // x <= 1 and x >= 3 is infeasible.
        let mut lp = LpProblem::new(Sense::Maximize, 1);
        lp.set_objective(0, 1.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 1.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 3.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut lp = LpProblem::new(Sense::Maximize, 2);
        lp.set_objective(0, 1.0);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Le, 1.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // max -x s.t. -x <= -2  (i.e. x >= 2) => x = 2, obj -2
        let mut lp = LpProblem::new(Sense::Maximize, 1);
        lp.set_objective(0, -1.0);
        lp.add_constraint(vec![(0, -1.0)], ConstraintOp::Le, -2.0);
        let sol = lp.solve().unwrap();
        assert!(approx(sol.objective, -2.0));
        assert!(approx(sol.primal[0], 2.0));
    }

    #[test]
    fn redundant_equality_rows_are_dropped() {
        // Two identical equalities; still solvable.
        let mut lp = LpProblem::new(Sense::Maximize, 2);
        lp.set_objective(0, 1.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 3.0);
        lp.add_constraint(vec![(0, 2.0), (1, 2.0)], ConstraintOp::Eq, 6.0);
        let sol = lp.solve().unwrap();
        assert!(approx(sol.objective, 3.0));
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degenerate instance (Beale's example structure).
        let mut lp = LpProblem::new(Sense::Maximize, 4);
        lp.set_objective(0, 0.75);
        lp.set_objective(1, -150.0);
        lp.set_objective(2, 0.02);
        lp.set_objective(3, -6.0);
        lp.add_constraint(
            vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
            ConstraintOp::Le,
            0.0,
        );
        lp.add_constraint(
            vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
            ConstraintOp::Le,
            0.0,
        );
        lp.add_constraint(vec![(2, 1.0)], ConstraintOp::Le, 1.0);
        let sol = lp.solve().unwrap();
        assert!(approx(sol.objective, 0.05));
    }

    #[test]
    fn zero_constraint_problem() {
        // Unconstrained with zero objective: optimum 0 at origin.
        let lp = LpProblem::new(Sense::Maximize, 3);
        let sol = lp.solve().unwrap();
        assert!(approx(sol.objective, 0.0));
        assert!(sol.primal.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn larger_transportation_like_lp() {
        // min sum of x_ij * c_ij with supply/demand equalities.
        // supplies: 20, 30; demands: 10, 25, 15. costs: [[2,3,1],[5,4,8]]
        let costs = [[2.0, 3.0, 1.0], [5.0, 4.0, 8.0]];
        let supply = [20.0, 30.0];
        let demand = [10.0, 25.0, 15.0];
        let var = |i: usize, j: usize| i * 3 + j;
        let mut lp = LpProblem::new(Sense::Minimize, 6);
        for (i, row) in costs.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                lp.set_objective(var(i, j), c);
            }
        }
        for (i, &s) in supply.iter().enumerate() {
            let row: Vec<_> = (0..3).map(|j| (var(i, j), 1.0)).collect();
            lp.add_constraint(row, ConstraintOp::Eq, s);
        }
        for (j, &d) in demand.iter().enumerate() {
            let col: Vec<_> = (0..2).map(|i| (var(i, j), 1.0)).collect();
            lp.add_constraint(col, ConstraintOp::Eq, d);
        }
        let sol = lp.solve().unwrap();
        // Optimal plan: x02=15, x00=5, x01=0 ... compute expected optimum:
        // route cheapest: x02=15 (1), x00=10 (2), remaining supply1=... let's
        // trust a hand-computed optimum of 160:
        // x00=10(2)+x02=15(1)? supply0=20 => x00=5? Verify via assertion of
        // feasibility + objective bound instead of exact value.
        let x: Vec<f64> = sol.primal.clone();
        for (i, &s) in supply.iter().enumerate() {
            let tot: f64 = (0..3).map(|j| x[var(i, j)]).sum();
            assert!(approx(tot, s));
        }
        for (j, &d) in demand.iter().enumerate() {
            let tot: f64 = (0..2).map(|i| x[var(i, j)]).sum();
            assert!(approx(tot, d));
        }
        // The objective must equal c.x and be <= any feasible plan we try.
        let naive = 10.0 * 2.0 + 15.0 * 1.0 + 25.0 * 4.0 + 5.0 * 5.0 + 0.0;
        assert!(sol.objective <= naive + 1e-6);
    }

    #[test]
    fn snapshot_restores_every_bit_including_negative_zeros() {
        let mut lp = LpProblem::new(Sense::Maximize, 2);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, -0.0);
        lp.add_constraint(vec![(0, 1.0), (1, 2.0)], ConstraintOp::Ge, 3.0);
        let mut t = Tableau::default();
        build_tableau(&lp, &mut t);
        let bits = |t: &Tableau| t.a.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let before = bits(&t);
        assert!(before.contains(&NEG_ZERO));
        let snapshot = Snapshot::take(&t, 0);
        t.a.fill(7.0);
        t.basis.fill(9);
        snapshot.restore(&mut t);
        assert_eq!(bits(&t), before);
        assert_eq!(t.basis, snapshot.basis);
    }
}
