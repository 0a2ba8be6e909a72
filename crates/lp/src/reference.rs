//! The dense two-phase primal simplex, kept verbatim as the ground truth
//! the production solver ([`crate::LpProblem::solve`]) is measured against.
//!
//! The implementation keeps the full tableau in row-major `f64` storage and
//! maintains the reduced-cost row incrementally. Phase 1 maximizes the
//! negated sum of artificial variables; phase 2 optimizes the user objective.
//! Dantzig pricing is used by default with a switch to Bland's rule after a
//! pivot budget is exceeded, which guarantees termination. Every pivot
//! eliminates over the full width of every row.
//!
//! The differential suite (`crates/lp/tests/differential_simplex.rs`)
//! asserts that the sparse-elimination solver returns the same objective,
//! primal, dual and pivot count as [`solve`], bit for bit. This copy runs
//! at the old speed on purpose. Do not "fix" it.

use crate::{ConstraintOp, LpError, LpProblem, LpSolution, LpStatus, Sense, EPS};

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
}

/// Buffers of the solver: the dense tableau, the reduced-cost row, the
/// pivot-row copy, the phase cost vector and the per-row basis bookkeeping.
#[derive(Debug, Default)]
struct SimplexWorkspace {
    /// Row-major `m × (cols + 1)` tableau; the last entry of each row is the
    /// right-hand side.
    a: Vec<f64>,
    /// Reduced-cost row of length `cols + 1`.
    obj: Vec<f64>,
    /// Copy of the normalized pivot row, length `cols + 1`.
    pivot_row: Vec<f64>,
    /// Cost vector of the current phase, length `cols`.
    cost: Vec<f64>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    /// Per-row normalization info.
    rows: Vec<RowInfo>,
}

/// Dense simplex tableau over a workspace's buffers.
struct Tableau<'w> {
    /// Number of rows (constraints).
    m: usize,
    /// Total number of columns excluding the RHS.
    cols: usize,
    /// Number of structural (user) variables.
    n_struct: usize,
    /// First artificial column index (artificials occupy `art_start..cols`).
    art_start: usize,
    /// Row-major matrix of size `m x (cols + 1)`; the last entry of each row
    /// is the right-hand side.
    a: &'w mut [f64],
    /// Reduced-cost row of size `cols + 1` (last entry is the negated
    /// objective value of the current basis).
    obj: &'w mut [f64],
    /// Scratch copy of the pivot row, size `cols + 1`.
    pivot_row: &'w mut [f64],
    /// Basic variable (column index) of each row.
    basis: &'w mut [usize],
    /// Per-row normalization info.
    rows: &'w mut [RowInfo],
}

impl Tableau<'_> {
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
        for x in &mut self.a[pr_start..pr_start + w] {
            *x *= inv;
        }
        self.a[pr_start + pivot_col] = 1.0;

        // Eliminate the pivot column from every other row.
        // Split borrows by copying the pivot row once; the copy is reused for
        // the objective row as well.
        self.pivot_row
            .copy_from_slice(&self.a[pr_start..pr_start + w]);
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
            for (x, &pv) in row.iter_mut().zip(self.pivot_row.iter()) {
                *x -= factor * pv;
            }
            row[pivot_col] = 0.0;
        }
        let factor = self.obj[pivot_col];
        if factor.abs() > EPS {
            for (o, &pv) in self.obj.iter_mut().zip(self.pivot_row.iter()) {
                *o -= factor * pv;
            }
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
}

/// Resets `buf` to `len` copies of `value`, keeping its allocation.
fn refill<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

/// Builds the initial tableau from a validated problem in a workspace's
/// buffers, overwriting whatever an earlier solve left there.
fn build_tableau<'w>(
    p: &LpProblem,
    a: &'w mut Vec<f64>,
    obj: &'w mut Vec<f64>,
    pivot_row: &'w mut Vec<f64>,
    basis: &'w mut Vec<usize>,
    rows: &'w mut Vec<RowInfo>,
) -> Tableau<'w> {
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

    refill(a, m * w, 0.0);
    refill(obj, w, 0.0);
    refill(pivot_row, w, 0.0);
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
        });
    }

    Tableau {
        m,
        cols,
        n_struct: n,
        art_start,
        a,
        obj,
        pivot_row,
        basis,
        rows,
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

/// Runs simplex iterations until optimality for the current reduced-cost row.
/// `limit` restricts the entering columns (used to exclude artificials in
/// phase 2). Returns the number of pivots, or an error on unboundedness /
/// iteration exhaustion.
fn iterate(t: &mut Tableau, limit: usize, max_iters: usize) -> Result<usize, LpError> {
    let mut iters = 0usize;
    // Switch to Bland's rule once we have done "suspiciously many" pivots.
    let bland_threshold = 8 * (t.m + t.cols) + 64;
    loop {
        let bland = iters > bland_threshold;
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

/// Validates `p` and solves it with the dense two-phase simplex method.
pub fn solve(p: &LpProblem) -> Result<LpSolution, LpError> {
    p.validate()?;
    let mut ws = SimplexWorkspace::default();
    let SimplexWorkspace {
        a,
        obj,
        pivot_row,
        cost,
        basis,
        rows,
    } = &mut ws;
    let mut t = build_tableau(p, a, obj, pivot_row, basis, rows);
    let max_iters = p.max_iterations();
    let mut total_iters = 0usize;

    // ---- Phase 1: drive artificial variables to zero. ------------------
    let has_artificials = t.art_start < t.cols;
    if has_artificials {
        refill(cost, t.cols, 0.0);
        for cj in cost.iter_mut().skip(t.art_start) {
            *cj = -1.0; // maximize −Σ artificials
        }
        t.rebuild_objective(cost);
        let all_cols = t.cols;
        total_iters += iterate(&mut t, all_cols, max_iters)?;

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
    }

    // ---- Phase 2: optimize the user objective. --------------------------
    let flip = match p.sense() {
        Sense::Maximize => 1.0,
        Sense::Minimize => -1.0,
    };
    refill(cost, t.cols, 0.0);
    for (c, &cj) in cost.iter_mut().zip(p.objective()) {
        *c = cj * flip;
    }
    t.rebuild_objective(cost);
    // Artificial columns must never re-enter the basis.
    let struct_and_slack = t.art_start;
    total_iters += iterate(&mut t, struct_and_slack, max_iters)?;

    // ---- Extract primal solution. ---------------------------------------
    // alloc: the primal vector is the caller's result, one per solve.
    let mut primal = vec![0.0; t.n_struct];
    for r in 0..t.m {
        if !t.rows[r].active {
            continue;
        }
        let b = t.basis[r];
        if b < t.n_struct {
            // Clamp tiny negative values introduced by rounding.
            primal[b] = t.rhs(r).max(0.0);
        }
    }

    let mut objective = 0.0;
    for (j, &cj) in p.objective().iter().enumerate() {
        objective += cj * primal[j];
    }

    // ---- Extract dual values from the reduced-cost row. -----------------
    // For the internal maximization problem, the dual of row i is the
    // reduced cost of its logical column. Negated rows and minimization
    // problems flip the sign back to the user's convention.
    // alloc: the dual vector is the caller's result, one per solve.
    let mut dual = vec![0.0; t.m];
    for (r, row) in t.rows.iter().enumerate() {
        if !row.active {
            continue;
        }
        let mut y = t.obj[row.logical_col];
        if row.negated {
            y = -y;
        }
        y *= flip;
        dual[r] = y;
    }

    Ok(LpSolution {
        status: LpStatus::Optimal,
        objective,
        primal,
        dual,
        iterations: total_iters,
    })
}
