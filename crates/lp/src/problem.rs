//! Linear-program construction.

use crate::kernel::Isa;
use crate::{simplex, LpError, LpSolution, SimplexWorkspace, SweepSolution};

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Relational operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `aᵀx ≤ b`
    Le,
    /// `aᵀx ≥ b`
    Ge,
    /// `aᵀx = b`
    Eq,
}

/// A single linear constraint `aᵀx op b`, with `a` stored sparsely as
/// `(variable, coefficient)` pairs: a borrowed view of one row of an
/// [`LpProblem`].
#[derive(Debug, Clone, Copy)]
pub struct Constraint<'a> {
    /// Sparse coefficient vector; indices refer to problem variables.
    pub coeffs: &'a [(usize, f64)],
    /// Relational operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

/// Where one row's coefficients end in [`LpProblem`]'s flat coefficient
/// list, with the row's operator and right-hand side.
#[derive(Debug, Clone, Copy)]
struct Row {
    end: usize,
    op: ConstraintOp,
    rhs: f64,
}

/// A linear program over non-negative variables.
///
/// Variables are indexed `0..num_vars` and implicitly satisfy `x ≥ 0`.
/// Objective coefficients default to zero. The rows are stored flat — one
/// coefficient list for all of them — so [`LpProblem::clear`] and a refill
/// reuse every buffer, and [`LpProblem::reserve`] sizes them up front.
#[derive(Debug, Clone)]
pub struct LpProblem {
    sense: Sense,
    num_vars: usize,
    objective: Vec<f64>,
    /// Every row's coefficients, back to back; row `i` owns
    /// `coeffs[rows[i - 1].end..rows[i].end]`.
    coeffs: Vec<(usize, f64)>,
    rows: Vec<Row>,
    max_iterations: usize,
}

impl LpProblem {
    /// Creates an empty problem with `num_vars` non-negative variables.
    pub fn new(sense: Sense, num_vars: usize) -> Self {
        LpProblem {
            sense,
            num_vars,
            objective: vec![0.0; num_vars],
            coeffs: Vec::new(),
            rows: Vec::new(),
            // Generous default: simplex rarely needs more than a few multiples
            // of (rows + cols) pivots on non-degenerate pricing LPs.
            max_iterations: 200_000,
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Objective coefficients (dense).
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// The constraints added so far, in order.
    pub fn constraints(&self) -> impl ExactSizeIterator<Item = Constraint<'_>> + Clone + '_ {
        (0..self.rows.len()).map(move |i| {
            let start = i.checked_sub(1).map_or(0, |prev| self.rows[prev].end);
            let row = self.rows[i];
            Constraint {
                coeffs: &self.coeffs[start..row.end],
                op: row.op,
                rhs: row.rhs,
            }
        })
    }

    /// Overrides the pivot-iteration budget.
    pub fn set_max_iterations(&mut self, limit: usize) {
        self.max_iterations = limit;
    }

    /// Pivot-iteration budget.
    pub fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    /// Sets the objective coefficient of variable `var`.
    ///
    /// # Panics
    /// Panics if `var` is out of range.
    pub fn set_objective(&mut self, var: usize, coeff: f64) {
        assert!(var < self.num_vars, "objective variable out of range");
        self.objective[var] = coeff;
    }

    /// Adds `coeff` to the objective coefficient of variable `var`.
    pub fn add_objective(&mut self, var: usize, coeff: f64) {
        assert!(var < self.num_vars, "objective variable out of range");
        self.objective[var] += coeff;
    }

    /// Adds a constraint; returns its index (used to look up dual values).
    pub fn add_constraint(
        &mut self,
        coeffs: impl IntoIterator<Item = (usize, f64)>,
        op: ConstraintOp,
        rhs: f64,
    ) -> usize {
        self.coeffs.extend(coeffs);
        self.rows.push(Row {
            end: self.coeffs.len(),
            op,
            rhs,
        });
        self.rows.len() - 1
    }

    /// Empties the problem to `num_vars` variables with a zero objective
    /// and no constraints, keeping its sense, pivot budget and buffers.
    /// Refilled, it is indistinguishable from a fresh
    /// [`LpProblem::new`] with the same budget and solves to the same
    /// bits.
    pub fn clear(&mut self, num_vars: usize) {
        self.num_vars = num_vars;
        self.objective.clear();
        self.objective.resize(num_vars, 0.0);
        self.coeffs.clear();
        self.rows.clear();
    }

    /// Grows the buffers to hold `num_vars` variables, `rows` constraints
    /// and `nonzeros` coefficients in all, so clearing and refilling the
    /// problem up to that size allocates nothing.
    pub fn reserve(&mut self, num_vars: usize, rows: usize, nonzeros: usize) {
        reserve_total(&mut self.objective, num_vars);
        reserve_total(&mut self.rows, rows);
        reserve_total(&mut self.coeffs, nonzeros);
    }

    /// Validates indices and finiteness of all coefficients.
    pub fn validate(&self) -> Result<(), LpError> {
        validate_objective(&self.objective)?;
        self.validate_constraints()
    }

    /// [`LpProblem::validate`] without the objective.
    pub(crate) fn validate_constraints(&self) -> Result<(), LpError> {
        for cons in self.constraints() {
            if !cons.rhs.is_finite() {
                return Err(LpError::NonFiniteCoefficient);
            }
            for &(j, a) in cons.coeffs {
                if j >= self.num_vars {
                    return Err(LpError::VariableOutOfRange {
                        index: j,
                        num_vars: self.num_vars,
                    });
                }
                if !a.is_finite() {
                    return Err(LpError::NonFiniteCoefficient);
                }
            }
        }
        Ok(())
    }

    /// Solves the program with the two-phase simplex method.
    ///
    /// Returns [`LpError::Infeasible`] / [`LpError::Unbounded`] for the
    /// corresponding outcomes.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        self.solve_with(&mut SimplexWorkspace::new())
    }

    /// [`LpProblem::solve`] in the buffers of `ws`, so a sequence of solves
    /// reuses one tableau instead of allocating one per problem. The result
    /// is bit-identical to [`LpProblem::solve`]'s whatever `ws` solved
    /// before.
    pub fn solve_with(&self, ws: &mut SimplexWorkspace) -> Result<LpSolution, LpError> {
        self.solve_on(ws, Isa::detect())
    }

    /// [`LpProblem::solve_with`] with `isa`'s row passes, so tests can pin
    /// the scalar ones.
    pub(crate) fn solve_on(
        &self,
        ws: &mut SimplexWorkspace,
        isa: Isa,
    ) -> Result<LpSolution, LpError> {
        self.validate()?;
        simplex::solve(self, ws, isa)
    }

    /// Solves one LP per entry of `objectives`: this problem's constraints,
    /// sense and pivot budget, with `objectives[i]` (dense, one coefficient
    /// per variable) in place of the problem's own objective, which is
    /// ignored.
    ///
    /// Phase 1 never reads the objective, so it runs once for the whole
    /// sweep; each objective then runs only phase 2, from a snapshot of the
    /// state phase 1 left. Result `i` carries exactly the objective value,
    /// primal and pivot count (phase 1's included) that
    /// [`LpProblem::solve_with`] returns with `objectives[i]` set, and the
    /// same error: a non-finite objective first, then a constraint or
    /// phase-1 error (shared by every objective), then that objective's
    /// phase-2 error.
    ///
    /// Results carry **no duals**: the sweep drops the artificial columns
    /// after phase 1, and the duals of `≥`/`=` rows live there. Use
    /// [`LpProblem::solve_with`] when duals are needed. The problem is
    /// taken by value so its constraint rows are freed once the tableau
    /// is built.
    ///
    /// # Panics
    /// Panics if an objective's length is not [`LpProblem::num_vars`].
    pub fn solve_objectives_with(
        self,
        objectives: &[Vec<f64>],
        ws: &mut SimplexWorkspace,
    ) -> Vec<Result<SweepSolution, LpError>> {
        self.solve_objectives_on(objectives, ws, Isa::detect())
    }

    /// [`LpProblem::solve_objectives_with`] with `isa`'s row passes.
    pub(crate) fn solve_objectives_on(
        self,
        objectives: &[Vec<f64>],
        ws: &mut SimplexWorkspace,
        isa: Isa,
    ) -> Vec<Result<SweepSolution, LpError>> {
        for c in objectives {
            assert_eq!(
                c.len(),
                self.num_vars,
                "objective length must equal num_vars"
            );
        }
        simplex::sweep(self, objectives, ws, isa)
    }
}

/// Grows `buf`'s capacity to at least `len` elements in all.
pub(crate) fn reserve_total<T>(buf: &mut Vec<T>, len: usize) {
    buf.reserve_exact(len.saturating_sub(buf.len()));
}

/// Checks that every objective coefficient is finite.
pub(crate) fn validate_objective(c: &[f64]) -> Result<(), LpError> {
    if c.iter().all(|x| x.is_finite()) {
        Ok(())
    } else {
        Err(LpError::NonFiniteCoefficient)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_dimensions() {
        let mut lp = LpProblem::new(Sense::Minimize, 3);
        assert_eq!(lp.num_vars(), 3);
        assert_eq!(lp.num_constraints(), 0);
        let idx = lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 1.0);
        assert_eq!(idx, 0);
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(lp.sense(), Sense::Minimize);
    }

    #[test]
    fn constraints_are_views_of_the_flat_rows() {
        let mut lp = LpProblem::new(Sense::Maximize, 3);
        lp.add_constraint(vec![(0, 1.0), (2, 2.0)], ConstraintOp::Le, 4.0);
        lp.add_constraint([], ConstraintOp::Ge, 0.0);
        lp.add_constraint((1..3).map(|j| (j, 3.0)), ConstraintOp::Eq, 5.0);
        let rows: Vec<_> = lp
            .constraints()
            .map(|c| (c.coeffs.to_vec(), c.op, c.rhs))
            .collect();
        assert_eq!(
            rows,
            vec![
                (vec![(0, 1.0), (2, 2.0)], ConstraintOp::Le, 4.0),
                (vec![], ConstraintOp::Ge, 0.0),
                (vec![(1, 3.0), (2, 3.0)], ConstraintOp::Eq, 5.0),
            ]
        );
        assert_eq!(lp.constraints().len(), 3);
    }

    #[test]
    fn clear_keeps_sense_budget_and_capacity() {
        let mut lp = LpProblem::new(Sense::Minimize, 4);
        lp.set_max_iterations(17);
        lp.reserve(6, 3, 10);
        lp.set_objective(3, 2.0);
        lp.add_constraint(vec![(0, 1.0), (3, 1.0)], ConstraintOp::Ge, 1.0);
        let cap = (
            lp.objective.capacity(),
            lp.rows.capacity(),
            lp.coeffs.capacity(),
        );
        assert!(cap.0 >= 6 && cap.1 >= 3 && cap.2 >= 10);
        lp.clear(6);
        assert_eq!((lp.num_vars(), lp.num_constraints()), (6, 0));
        assert_eq!(lp.objective(), &[0.0; 6]);
        assert_eq!((lp.sense(), lp.max_iterations()), (Sense::Minimize, 17));
        assert_eq!(
            (
                lp.objective.capacity(),
                lp.rows.capacity(),
                lp.coeffs.capacity()
            ),
            cap
        );
    }

    #[test]
    fn objective_accumulation() {
        let mut lp = LpProblem::new(Sense::Maximize, 2);
        lp.set_objective(0, 1.0);
        lp.add_objective(0, 2.0);
        assert_eq!(lp.objective()[0], 3.0);
        assert_eq!(lp.objective()[1], 0.0);
    }

    #[test]
    fn validate_rejects_out_of_range_variable() {
        let mut lp = LpProblem::new(Sense::Maximize, 2);
        lp.add_constraint(vec![(5, 1.0)], ConstraintOp::Le, 1.0);
        assert_eq!(
            lp.validate(),
            Err(LpError::VariableOutOfRange {
                index: 5,
                num_vars: 2
            })
        );
    }

    #[test]
    fn validate_rejects_nan() {
        let mut lp = LpProblem::new(Sense::Maximize, 1);
        lp.add_constraint(vec![(0, f64::NAN)], ConstraintOp::Le, 1.0);
        assert_eq!(lp.validate(), Err(LpError::NonFiniteCoefficient));

        let mut lp2 = LpProblem::new(Sense::Maximize, 1);
        lp2.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, f64::INFINITY);
        assert_eq!(lp2.validate(), Err(LpError::NonFiniteCoefficient));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_objective_panics_out_of_range() {
        let mut lp = LpProblem::new(Sense::Maximize, 1);
        lp.set_objective(3, 1.0);
    }
}
