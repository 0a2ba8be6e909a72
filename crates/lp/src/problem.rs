//! Linear-program construction.

use crate::{simplex, LpError, LpSolution, SimplexWorkspace};

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
/// `(variable, coefficient)` pairs.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Sparse coefficient vector; indices refer to problem variables.
    pub coeffs: Vec<(usize, f64)>,
    /// Relational operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program over non-negative variables.
///
/// Variables are indexed `0..num_vars` and implicitly satisfy `x ≥ 0`.
/// Objective coefficients default to zero.
#[derive(Debug, Clone)]
pub struct LpProblem {
    sense: Sense,
    num_vars: usize,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
    max_iterations: usize,
}

impl LpProblem {
    /// Creates an empty problem with `num_vars` non-negative variables.
    pub fn new(sense: Sense, num_vars: usize) -> Self {
        LpProblem {
            sense,
            num_vars,
            objective: vec![0.0; num_vars],
            constraints: Vec::new(),
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
        self.constraints.len()
    }

    /// Optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Objective coefficients (dense).
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// The constraints added so far.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
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
        coeffs: Vec<(usize, f64)>,
        op: ConstraintOp,
        rhs: f64,
    ) -> usize {
        self.constraints.push(Constraint { coeffs, op, rhs });
        self.constraints.len() - 1
    }

    /// Validates indices and finiteness of all coefficients.
    pub fn validate(&self) -> Result<(), LpError> {
        for (i, &c) in self.objective.iter().enumerate() {
            if !c.is_finite() {
                return Err(LpError::NonFiniteCoefficient);
            }
            debug_assert!(i < self.num_vars);
        }
        for cons in &self.constraints {
            if !cons.rhs.is_finite() {
                return Err(LpError::NonFiniteCoefficient);
            }
            for &(j, a) in &cons.coeffs {
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
        self.validate()?;
        simplex::solve(self, ws)
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
