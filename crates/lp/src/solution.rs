//! Solution representation.

/// Termination status of the simplex solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic feasible solution was found.
    Optimal,
}

/// An optimal solution to a linear program.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Termination status (always [`LpStatus::Optimal`]; non-optimal outcomes
    /// are reported through [`crate::LpError`]).
    pub status: LpStatus,
    /// Optimal objective value in the *original* sense of the problem.
    pub objective: f64,
    /// Optimal values of the decision variables, indexed as in the problem.
    pub primal: Vec<f64>,
    /// Dual value (shadow price) of every constraint, indexed by the order in
    /// which constraints were added.
    ///
    /// Sign convention: duals are reported for the problem *as stated*. For a
    /// maximization problem with a `≤` constraint the dual is non-negative;
    /// for a minimization problem with a `≥` constraint the dual is
    /// non-negative.
    pub dual: Vec<f64>,
    /// Number of simplex pivots performed (both phases).
    pub iterations: usize,
}

impl LpSolution {
    /// Value of variable `var`.
    pub fn value(&self, var: usize) -> f64 {
        self.primal[var]
    }

    /// Dual value of constraint `cons`.
    pub fn dual_value(&self, cons: usize) -> f64 {
        self.dual[cons]
    }
}

/// One result of a sweep ([`crate::LpProblem::solve_objectives_with`]): an
/// optimal solution without duals.
#[derive(Debug, Clone)]
pub struct SweepSolution {
    /// Optimal objective value in the *original* sense of the problem.
    pub objective: f64,
    /// Optimal values of the decision variables, indexed as in the problem.
    pub primal: Vec<f64>,
    /// Number of simplex pivots performed (both phases; phase 1 ran once
    /// for the whole sweep and is counted in every result).
    pub iterations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let sol = LpSolution {
            status: LpStatus::Optimal,
            objective: 5.0,
            primal: vec![1.0, 2.0],
            dual: vec![0.5],
            iterations: 3,
        };
        assert_eq!(sol.value(1), 2.0);
        assert_eq!(sol.dual_value(0), 0.5);
        assert_eq!(sol.status, LpStatus::Optimal);
    }
}
