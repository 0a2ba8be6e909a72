//! # qp-lp — a small, dependency-free linear-programming solver
//!
//! The pricing algorithms of Chawla et al. (VLDB 2019) — `LPIP`, `CIP`, the
//! subadditive revenue upper bound and the UBP refinement step — all reduce to
//! moderately sized linear programs. The paper used CVXPY; this crate provides
//! the equivalent substrate in pure Rust: a dense **two-phase primal simplex**
//! solver that returns both the primal solution and the dual values of every
//! constraint. A [`SimplexWorkspace`] owns the solver's buffers, so a sweep
//! of related LPs ([`LpProblem::solve_with`]) reuses one tableau.
//!
//! The solver targets the problem shapes that appear in query pricing
//! (hundreds of constraints, a few thousand variables) and favours
//! correctness and clarity over industrial-strength numerics. All arithmetic
//! is `f64` with explicit tolerances.
//!
//! ## Problem form
//!
//! ```text
//! maximize (or minimize)   cᵀ x
//! subject to               aᵢᵀ x  {≤, ≥, =}  bᵢ      for every constraint i
//!                          x ≥ 0
//! ```
//!
//! Variables are non-negative by construction; upper bounds such as `x ≤ 1`
//! are expressed as ordinary `≤` constraints.
//!
//! ## Example
//!
//! ```
//! use qp_lp::{LpProblem, Sense, ConstraintOp};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6,  x,y >= 0
//! let mut lp = LpProblem::new(Sense::Maximize, 2);
//! lp.set_objective(0, 3.0);
//! lp.set_objective(1, 2.0);
//! lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Le, 4.0);
//! lp.add_constraint(vec![(0, 1.0), (1, 3.0)], ConstraintOp::Le, 6.0);
//!
//! let sol = lp.solve().unwrap();
//! assert!((sol.objective - 12.0).abs() < 1e-7);
//! assert!((sol.primal[0] - 4.0).abs() < 1e-7);
//! ```

mod error;
mod problem;
mod simplex;
mod solution;
pub mod validate;

pub use error::LpError;
pub use problem::{Constraint, ConstraintOp, LpProblem, Sense};
pub use simplex::SimplexWorkspace;
pub use solution::{LpSolution, LpStatus};

/// Numerical tolerance used throughout the solver for feasibility and
/// optimality tests.
pub const EPS: f64 = 1e-9;

/// Looser tolerance used when validating solutions (accumulated rounding in
/// long pivot sequences can exceed [`EPS`]).
pub const CHECK_EPS: f64 = 1e-6;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn doc_example_is_correct() {
        let mut lp = LpProblem::new(Sense::Maximize, 2);
        lp.set_objective(0, 3.0);
        lp.set_objective(1, 2.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Le, 4.0);
        lp.add_constraint(vec![(0, 1.0), (1, 3.0)], ConstraintOp::Le, 6.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective - 12.0).abs() < 1e-7);
    }
}
