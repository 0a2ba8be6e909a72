//! Two-phase primal simplex over the non-basic columns of the tableau.
//!
//! Phase 1 maximizes the negated sum of artificial variables; phase 2
//! optimizes the user objective. Dantzig pricing is used by default with a
//! switch to Bland's rule after a pivot budget is exceeded, which
//! guarantees termination. Every pivot, every floating-point operation and
//! every result bit is the dense solver's kept in [`crate::reference`].
//!
//! # Storage
//!
//! In a dense tableau each of the `m` basic columns is a unit column: `1.0`
//! in the row it is basic in and a zero in every other row. Those entries
//! are fixed by the basis, so the tableau stores only the `cols − m`
//! non-basic columns: `m` row-major rows of `cols − m + 1` entries, the
//! last one the right-hand side. A row's entries are in *slot* order:
//! `col_of[slot]` is the column a slot holds and `slot_of[col]` the slot of
//! a column, [`NONE`] for a basic one. The reduced-cost row is kept in slot
//! order too.
//!
//! A pivot on `(r, c)` whose leaving column is `b = basis[r]` computes the
//! dense pivot's entries. It scales row `r` by `inv = 1/piv`, which turns
//! `b`'s `1.0` into `inv`, and writes `inv` into `c`'s slot. In every
//! other row it first writes the zero the dense tableau holds at `b` into
//! that slot, then eliminates as the dense pivot does, which leaves
//! `z − f·inv` there (or `z` where the factor `f` is skipped). The
//! reduced-cost row does the same. Then `b` takes over `c`'s slot. The
//! entering column's entries, `1.0` in row `r` and the `+0.0` the dense
//! pivot writes everywhere else, are implicit. Pricing scans the slots and
//! breaks ties on the column index, so it picks the column the dense scan
//! picks.
//!
//! # Zero signs
//!
//! The zeros of a basic column are signed, and a sign can reach a result:
//! when the column leaves the basis its zeros become stored entries, and
//! a dual reads the reduced cost of a row's logical column, basic or not.
//! So the tableau keeps one bit per (row, basic column), indexed by the
//! row the column is basic in: set where the dense tableau holds `-0.0`.
//! The reduced-cost row has such a row of bits as well. Bits change only
//! as the dense zeros do:
//!
//! * scaling a row by a negative `inv` flips every zero's sign;
//! * `x − f·(±0.0)` is `-0.0` only for `x = -0.0` and `f·(±0.0) = +0.0`,
//!   so an eliminated row keeps a bit only where the pivot row's zero has
//!   the sign of `f`: `bits &= if f < 0 { pivot } else { !pivot }`;
//! * the entering column's bit is cleared in every row (the dense pivot
//!   writes `+0.0` there).
//!
//! A basic column's reduced cost starts as `+0.0` (phase 1 starts with
//! every row active, and rebuilding the objective sets the active rows'
//! basic costs to `+0.0`), and `+0.0 − (±0.0)` is `+0.0`. Only the
//! artificial column left basic in a row phase 1 dropped can carry a
//! `-0.0`, and rebuilding the objective computes its sign.
//!
//! # Sparse elimination
//!
//! A pivot updates the other rows only at the non-zero slots of the
//! normalized pivot row: subtracting `factor * ±0.0` leaves every entry as
//! it is, except that a `-0.0` can turn into `+0.0`. So the rows that may
//! hold a `-0.0`, in a slot or a bit (a right-hand side given as `-0.0`, a
//! row normalized by a negative pivot), and the reduced-cost row, whose
//! zero costs are `-0.0`, are still updated over their full width, bits
//! included. A row without the flag holds no `-0.0` at all: its bits are
//! zero and stay so. Collecting the non-zero slots costs a pass over the
//! pivot row, so a pivot collects them only once it has updated
//! `SPARSE_AFTER` rows, and uses them only when at most a quarter of the
//! slots are non-zero; otherwise the vectorized full-width update is
//! faster.
//!
//! The full-width passes, normalizing the pivot row and `x -= f·p` over a
//! row, run through [`crate::kernel`]. A solve or sweep detects once
//! whether the CPU has AVX2 (std caches the probe) and every pivot then
//! runs either the baseline compilation of the passes or the AVX2 one.
//! The two differ only in vector width: neither uses FMA (Rust never
//! fuses a multiply and a subtract), and SSE2 and AVX2 share the MXCSR
//! rounding and denormal modes, so each element gets the same multiply and
//! then the same subtract on either path. [`crate::reference`] keeps its
//! own scalar loops, so it stays an independent oracle.
//!
//! Every buffer the solver touches lives in a [`SimplexWorkspace`], so a
//! sweep of LPs (LPIP's thresholds, CIP's capacities) pays for its tableau
//! once instead of once per LP. Only the returned primal and dual vectors
//! are allocated per solve.
//!
//! [`sweep`] solves one constraint set under many objectives. Phase 1 never
//! reads the objective, so it runs once; the artificial slots are then
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
    /// Whether the row may hold a `-0.0`, in a slot or a zero-sign bit.
    /// Such a row is eliminated over its full width (see the module docs);
    /// every other row holds none. Once set, the flag stays set.
    neg_zero: bool,
}

/// Rows a pivot updates over their full width before it collects the pivot
/// row's non-zero slots. LPIP's pivots mostly update fewer rows than this;
/// CIP's update tens to hundreds.
const SPARSE_AFTER: usize = 4;

/// A pivot row with more than `1 / DENSE_DIV` of its entries non-zero is
/// eliminated over the full width of every row: that loop vectorizes, and
/// at such densities it beats the indexed one.
const DENSE_DIV: usize = 4;

/// The bits of `-0.0`.
const NEG_ZERO: u64 = 1 << 63;

/// The `slot_of` entry of a basic column.
const NONE: u32 = u32::MAX;

/// Reusable buffers of the simplex solver: the tableau with its
/// reduced-cost row, pivot-row copy, slot map, zero signs and basis
/// bookkeeping, and the phase cost vector.
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

    /// Grows the buffers to hold the tableau of a problem with at most
    /// `rows` constraints and `cols` columns (its variables plus one slack
    /// or surplus column per `≤`/`≥` row and one artificial column per
    /// `≥`/`=` row), so a [`LpProblem::solve_with`] up to that size
    /// allocates nothing but its result vectors.
    pub fn reserve(&mut self, rows: usize, cols: usize) {
        let w = cols + 1;
        // An LP of `r ≤ rows` rows stores at most `w − r` entries per row
        // (every row has a basic column), and `r·(w − r)` peaks at `w / 2`.
        let r = rows.min(w / 2);
        let t = &mut self.t;
        reserve_total(&mut t.a, r * (w - r));
        reserve_total(&mut t.obj, w);
        reserve_total(&mut t.pivot_row, w);
        reserve_total(&mut t.nz, w);
        reserve_total(&mut t.col_of, cols);
        reserve_total(&mut t.slot_of, cols);
        reserve_total(&mut t.zero_signs, (rows + 1) * words(rows));
        reserve_total(&mut t.pivot_signs, words(rows));
        reserve_total(&mut t.basis, rows);
        reserve_total(&mut t.rows, rows);
        reserve_total(&mut self.cost, cols);
    }
}

/// Simplex tableau over the non-basic columns (see the module docs).
#[derive(Debug, Default)]
struct Tableau {
    /// Number of rows (constraints).
    m: usize,
    /// Total number of columns excluding the RHS, basic ones included.
    cols: usize,
    /// Number of structural (user) variables.
    n_struct: usize,
    /// First artificial column index (artificials occupy `art_start..cols`).
    art_start: usize,
    /// Pivot count after which [`iterate`] switches to Bland's rule. Fixed
    /// by the tableau as built; compacting the artificials out leaves it be.
    bland_threshold: usize,
    /// Row-major matrix of size `m x (slots + 1)`; the last entry of each
    /// row is the right-hand side.
    a: Vec<f64>,
    /// Reduced-cost row of size `slots + 1` (last entry is the negated
    /// objective value of the current basis).
    obj: Vec<f64>,
    /// Scratch copy of the pivot row, size `slots + 1`.
    pivot_row: Vec<f64>,
    /// Slots of the non-zero entries of `pivot_row`, RHS included; only
    /// a prefix is live after each pivot.
    nz: Vec<u32>,
    /// The column each slot holds.
    col_of: Vec<u32>,
    /// The slot of each column, [`NONE`] for a basic one.
    slot_of: Vec<u32>,
    /// `m + 1` rows of [`words`]`(m)` words: bit `k` of row `r` is set
    /// where the dense tableau holds `-0.0` at row `r` of the column basic
    /// in row `k`. Row `m` is the reduced-cost row's.
    zero_signs: Vec<u64>,
    /// Scratch copy of the pivot row's zero signs.
    pivot_signs: Vec<u64>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    /// Per-row normalization info.
    rows: Vec<RowInfo>,
    /// The compilation of the dense row passes pivots run.
    isa: Isa,
}

/// Words of one row of zero-sign bits in an `m`-row tableau.
fn words(m: usize) -> usize {
    m.div_ceil(64)
}

/// The bits of a zero-sign row's last word that stand for rows.
fn tail_mask(m: usize) -> u64 {
    match m % 64 {
        0 => u64::MAX,
        k => (1 << k) - 1,
    }
}

/// `x − f·p` at every basic column of a row updated by a pivot row whose
/// zero signs are `pivot`: see the module docs.
fn eliminate_signs(signs: &mut [u64], pivot: &[u64], factor: f64) {
    if factor < 0.0 {
        signs.iter_mut().zip(pivot).for_each(|(s, &p)| *s &= p);
    } else {
        signs.iter_mut().zip(pivot).for_each(|(s, &p)| *s &= !p);
    }
}

impl Tableau {
    /// Entries per row: the slots plus the right-hand side.
    #[inline]
    fn width(&self) -> usize {
        self.col_of.len() + 1
    }

    #[inline]
    fn at(&self, r: usize, slot: usize) -> f64 {
        self.a[r * self.width() + slot]
    }

    #[inline]
    fn rhs(&self, r: usize) -> f64 {
        let w = self.width();
        self.a[r * w + w - 1]
    }

    /// Performs a pivot on `(pivot_row, pivot_col)`, updating all rows and
    /// the reduced-cost row.
    fn pivot(&mut self, pivot_row: usize, pivot_col: usize) {
        let w = self.width();
        let words = words(self.m);
        let slot = self.slot_of[pivot_col] as usize;
        let leaving = self.basis[pivot_row];
        let pr_start = pivot_row * w;
        let piv = self.a[pr_start + slot];
        debug_assert!(piv.abs() > EPS, "pivot element too small");

        // Normalize the pivot row; the leaving column's `1.0` becomes `inv`.
        let inv = 1.0 / piv;
        self.isa.scale(&mut self.a[pr_start..pr_start + w], inv);
        self.a[pr_start + slot] = inv;

        // Split borrows by copying the pivot row once; the copy is reused
        // for the objective row as well.
        self.pivot_row
            .copy_from_slice(&self.a[pr_start..pr_start + w]);
        let pivot = &self.pivot_row[..];
        // Bit `pivot_row` stands for the entering column from here on:
        // `1.0` in the pivot row, `+0.0` in every other.
        let (word, bit) = (pivot_row / 64, 1u64 << (pivot_row % 64));
        let signs = &mut self.zero_signs[pivot_row * words..(pivot_row + 1) * words];
        if inv < 0.0 {
            signs.iter_mut().for_each(|s| *s = !*s);
            signs[words - 1] &= tail_mask(self.m);
        }
        signs[word] &= !bit;
        self.pivot_signs.copy_from_slice(signs);
        // A row without a `-0.0` gains one only from a negative pivot
        // (`+0.0 * inv`) or from a pivot above 1 underflowing a tiny
        // negative entry; `inv >= 1` rules out both.
        if inv < 1.0
            && (self.pivot_signs.iter().any(|&s| s != 0)
                || pivot.iter().any(|x| x.to_bits() == NEG_ZERO))
        {
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
            let factor = row[slot];
            let neg_zero = self.rows[r].neg_zero;
            // The slot now holds the leaving column: the zero the dense
            // tableau holds there, before elimination.
            row[slot] = 0.0;
            if neg_zero {
                let signs = &mut self.zero_signs[r * words..(r + 1) * words];
                if signs[word] & bit != 0 {
                    row[slot] = -0.0;
                }
                signs[word] &= !bit;
            }
            if factor.abs() <= EPS {
                continue;
            }
            updated += 1;
            if updated == SPARSE_AFTER {
                len = collect_nonzeros(pivot, &mut self.nz);
                sparse = len * DENSE_DIV <= w;
            }
            if neg_zero {
                self.isa.eliminate(row, pivot, factor);
                let signs = &mut self.zero_signs[r * words..(r + 1) * words];
                eliminate_signs(signs, &self.pivot_signs, factor);
            } else if sparse {
                for &j in &self.nz[..len] {
                    let j = j as usize;
                    row[j] -= factor * pivot[j];
                }
            } else {
                self.isa.eliminate(row, pivot, factor);
            }
        }
        // The reduced-cost row is always updated densely (its zero costs
        // are `-0.0`), bits included.
        let factor = self.obj[slot];
        let signs = &mut self.zero_signs[self.m * words..];
        self.obj[slot] = if signs[word] & bit != 0 { -0.0 } else { 0.0 };
        signs[word] &= !bit;
        if factor.abs() > EPS {
            self.isa.eliminate(&mut self.obj, pivot, factor);
            eliminate_signs(signs, &self.pivot_signs, factor);
        }

        self.col_of[slot] = leaving as u32;
        self.slot_of[leaving] = slot as u32;
        self.slot_of[pivot_col] = NONE;
        self.basis[pivot_row] = pivot_col;
    }

    /// Recomputes the reduced-cost row `obj[j] = c_B·(tableau col j) − c[j]`
    /// for the cost vector `c` (indexed over all columns; missing entries are
    /// treated as zero), and the zero signs of the basic columns' costs.
    fn rebuild_objective(&mut self, c: &[f64]) {
        let w = self.width();
        let neg_cost = |j: usize| c.get(j).map_or(0.0, |&cj| -cj);
        // obj = -c, then add c_B * row_i for every basic row.
        for (o, &j) in self.obj.iter_mut().zip(&self.col_of) {
            *o = neg_cost(j as usize);
        }
        self.obj[w - 1] = 0.0;
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
        // The dense solver sets the reduced costs of the active rows'
        // basic columns to `+0.0`. A dropped row's basic column is an
        // artificial, whose cost is zero in phase 2 (and no row is dropped
        // before), so its reduced cost is a sum of zeros, whose sign the
        // bits give.
        let (m, words) = (self.m, words(self.m));
        let (signs, obj_signs) = self.zero_signs.split_at_mut(m * words);
        obj_signs.fill(0);
        for k in (0..m).filter(|&k| !self.rows[k].active) {
            let mut v = neg_cost(self.basis[k]);
            for r in (0..m).filter(|&r| self.rows[r].active) {
                let cb = c.get(self.basis[r]).copied().unwrap_or(0.0);
                // float-eq: as above.
                if cb == 0.0 {
                    continue;
                }
                let negative = signs[r * words + k / 64] >> (k % 64) & 1 != 0;
                v += cb * if negative { -0.0 } else { 0.0 };
            }
            // float-eq: a sum of zeros is a zero of either sign.
            debug_assert!(v == 0.0, "a basic column's reduced cost is a zero");
            if v.to_bits() == NEG_ZERO {
                obj_signs[k / 64] |= 1 << (k % 64);
            }
        }
    }

    /// Chooses an entering column among `allowed` (columns `< limit`), or
    /// `None` if the current basis is optimal. `bland` selects the smallest
    /// eligible index instead of the most negative reduced cost; ties on
    /// the most negative one go to the smallest index too. Basic columns
    /// have zero reduced costs, so only the slots are scanned.
    fn choose_entering(&self, limit: usize, bland: bool) -> Option<usize> {
        let mut best = usize::MAX;
        let mut best_val = -EPS;
        for (&v, &j) in self.obj.iter().zip(&self.col_of) {
            let j = j as usize;
            if bland {
                if v < -EPS && j < best.min(limit) {
                    best = j;
                }
            // An exact tie keeps the lower column, as the dense scan does.
            } else if v <= best_val && j < limit && v < -EPS && (v < best_val || j < best) {
                best_val = v;
                best = j;
            }
        }
        (best != usize::MAX).then_some(best)
    }

    /// Ratio test: chooses the leaving row for entering column `col`.
    /// Returns `None` if the column is unbounded (no positive entries).
    fn choose_leaving(&self, col: usize) -> Option<usize> {
        let slot = self.slot_of[col] as usize;
        let mut best_row = None;
        let mut best_ratio = f64::INFINITY;
        for r in 0..self.m {
            if !self.rows[r].active {
                continue;
            }
            let a = self.at(r, slot);
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

    /// Removes the artificial slots from every row in place and releases
    /// the freed memory. Phase 2 never reads them: artificials cannot
    /// re-enter, and each column's updates depend only on that column and
    /// the pivot column. Only the duals of `≥`/`=` rows read them, which is
    /// why a sweep reports no duals. The zero signs stay as they are: the
    /// bits of a dropped row's artificial column are never read again.
    fn compact(&mut self) {
        let w = self.width();
        let keep = self.art_start;
        // The kept slots in slot order; `nz` is scratch between pivots.
        let mut kept = 0;
        for (s, &j) in self.col_of.iter().enumerate() {
            if (j as usize) < keep {
                self.nz[kept] = s as u32;
                kept += 1;
            }
        }
        let nw = kept + 1;
        // Every entry moves to a lower or equal index, and the entries are
        // moved in increasing order, so none is overwritten before it moves.
        for r in 0..self.m {
            for (i, &s) in self.nz[..kept].iter().enumerate() {
                self.a[r * nw + i] = self.a[r * w + s as usize];
            }
            self.a[r * nw + kept] = self.a[r * w + w - 1];
        }
        self.a.truncate(self.m * nw);
        self.a.shrink_to_fit();
        for i in 0..kept {
            self.col_of[i] = self.col_of[self.nz[i] as usize];
        }
        self.col_of.truncate(kept);
        self.slot_of.truncate(keep);
        for (s, &j) in self.col_of.iter().enumerate() {
            self.slot_of[j as usize] = s as u32;
        }
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
            let mut y = match self.slot_of[row.logical_col] {
                NONE => self.basic_reduced_cost(row.logical_col),
                slot => self.obj[slot as usize],
            };
            if row.negated {
                y = -y;
            }
            y *= flip;
            dual[r] = y;
        }
        dual
    }

    /// The reduced cost of the basic column `col`: a zero, whose sign the
    /// reduced-cost row's bits give.
    fn basic_reduced_cost(&self, col: usize) -> f64 {
        let signs = &self.zero_signs[self.m * words(self.m)..];
        if signs.iter().all(|&s| s == 0) {
            return 0.0;
        }
        let k = self.basis.iter().position(|&b| b == col);
        match k {
            Some(k) if signs[k / 64] >> (k % 64) & 1 != 0 => -0.0,
            _ => 0.0,
        }
    }
}

/// The post-phase-1 state of a compacted tableau, kept sparsely so a sweep
/// can restart phase 2 from it once per objective. Phase 2 changes only the
/// tableau entries, the slot map, the zero signs and the basis, so those
/// are what it holds. (It never changes the rows' active flags, and only
/// ever sets `neg_zero` flags; a needlessly set one costs a full-width
/// update, never a different bit.)
struct Snapshot {
    /// Flat tableau indices of the entries whose bits are not `+0.0`
    /// (a `-0.0` is kept, so a restore is bit-exact).
    index: Vec<u32>,
    /// The values at `index`.
    value: Vec<f64>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// The column of each slot.
    col_of: Vec<u32>,
    /// The slot of each column.
    slot_of: Vec<u32>,
    /// The zero signs of the basic columns.
    zero_signs: Vec<u64>,
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
            // alloc: one snapshot per sweep.
            col_of: t.col_of.to_vec(),
            // alloc: one snapshot per sweep.
            slot_of: t.slot_of.to_vec(),
            // alloc: one snapshot per sweep.
            zero_signs: t.zero_signs.to_vec(),
            iterations,
        }
    }

    fn restore(&self, t: &mut Tableau) {
        t.a.fill(0.0);
        for (&i, &x) in self.index.iter().zip(&self.value) {
            t.a[i as usize] = x;
        }
        t.basis.copy_from_slice(&self.basis);
        t.col_of.copy_from_slice(&self.col_of);
        t.slot_of.copy_from_slice(&self.slot_of);
        t.zero_signs.copy_from_slice(&self.zero_signs);
    }
}

/// Writes the slots of `row`'s non-zero entries to the front of `nz` and
/// returns their count.
fn collect_nonzeros(row: &[f64], nz: &mut [u32]) -> usize {
    let nz = &mut nz[..row.len()];
    let mut len = 0;
    // Branch-free: every slot is written, the count advances past the
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
/// overwriting whatever an earlier solve left there. The slack and
/// artificial columns start basic, so the slots hold the structural
/// columns and then the surplus columns of the `≥` rows.
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
    let slots = cols - m;
    let w = slots + 1;
    // Slots, columns (and flat indices in a sweep's snapshot) are u32.
    assert!(
        u32::try_from(m * w).is_ok() && u32::try_from(cols).is_ok_and(|c| c < NONE),
        "tableau exceeds 2^32 entries"
    );
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
        col_of,
        slot_of,
        zero_signs,
        pivot_signs,
        basis,
        rows,
        ..
    } = t;
    refill(a, m * w, 0.0);
    refill(obj, w, 0.0);
    refill(pivot_row, w, 0.0);
    refill(nz, w, 0);
    col_of.clear();
    col_of.extend(0..n as u32);
    slot_of.clear();
    slot_of.extend(0..n as u32);
    slot_of.resize(cols, NONE);
    refill(zero_signs, (m + 1) * words(m), 0);
    refill(pivot_signs, words(m), 0);
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
        a[start + slots] = rhs;

        let logical_col;
        match op {
            ConstraintOp::Le => {
                basis[i] = next_slack;
                logical_col = next_slack;
                next_slack += 1;
            }
            ConstraintOp::Ge => {
                let slot = col_of.len();
                a[start + slot] = -1.0;
                slot_of[next_slack] = slot as u32;
                col_of.push(next_slack as u32);
                next_slack += 1;
                basis[i] = next_art;
                logical_col = next_art;
                next_art += 1;
            }
            ConstraintOp::Eq => {
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
    // possible; rows that cannot be pivoted are redundant and dropped. A
    // basic column holds only zeros outside its own row, so the first
    // candidate is the first non-basic column.
    for r in 0..t.m {
        if t.basis[r] < t.art_start {
            continue;
        }
        let pivot_col = (0..t.art_start).find(|&j| {
            let slot = t.slot_of[j];
            slot != NONE && t.at(r, slot as usize).abs() > 1e-7
        });
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
    use super::{build_tableau, Snapshot, Tableau, NEG_ZERO, NONE};
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
        lp.add_constraint(vec![(1, -1.0)], ConstraintOp::Le, 4.0);
        let mut t = Tableau::default();
        build_tableau(&lp, &mut t);
        // A pivot on a negative entry turns the pivot row's zeros in the
        // other basic columns into `-0.0`s, which live in the zero signs.
        t.pivot(2, 1);
        let bits = |t: &Tableau| t.a.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let before = bits(&t);
        assert!(before.contains(&NEG_ZERO));
        assert!(t.zero_signs.iter().any(|&s| s != 0));
        assert_eq!(t.slot_of[1], NONE);
        let (basis, col_of, slot_of, signs) = (
            t.basis.clone(),
            t.col_of.clone(),
            t.slot_of.clone(),
            t.zero_signs.clone(),
        );
        let snapshot = Snapshot::take(&t, 0);
        t.a.fill(7.0);
        t.basis.fill(9);
        t.col_of.fill(5);
        t.slot_of.fill(6);
        t.zero_signs.fill(u64::MAX);
        snapshot.restore(&mut t);
        assert_eq!(bits(&t), before);
        assert_eq!(t.basis, basis);
        assert_eq!(t.col_of, col_of);
        assert_eq!(t.slot_of, slot_of);
        assert_eq!(t.zero_signs, signs);
    }

    #[test]
    fn a_built_tableau_stores_only_the_non_basic_columns() {
        // Three structural columns; a `≤`, a `≥`, an `=` row, and a `≤`
        // row with a negative right-hand side, which becomes a `≥` row.
        let mut lp = LpProblem::new(Sense::Maximize, 3);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 4.0);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Ge, 1.0);
        lp.add_constraint(vec![(2, 1.0)], ConstraintOp::Eq, 2.0);
        lp.add_constraint(vec![(0, -1.0)], ConstraintOp::Le, -1.0);
        let mut t = Tableau::default();
        build_tableau(&lp, &mut t);
        let (m, structural, surplus) = (4, 3, 2);
        // Slack and surplus columns, then one artificial per `≥`/`=` row.
        assert_eq!(t.cols, structural + 3 + 3);
        assert_eq!(t.a.len(), m * (structural + surplus + 1));
        assert_eq!(t.obj.len(), structural + surplus + 1);
        for &b in &t.basis {
            assert_eq!(t.slot_of[b], NONE);
        }
        for (s, &j) in t.col_of.iter().enumerate() {
            assert_eq!(t.slot_of[j as usize], s as u32);
        }
        assert_eq!(t.zero_signs.len(), m + 1);
    }
}
