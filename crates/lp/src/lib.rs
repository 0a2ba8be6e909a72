//! # qp-lp — a small, dependency-free linear-programming solver
//!
//! The pricing algorithms of Chawla et al. (VLDB 2019) — `LPIP`, `CIP`, the
//! sell-all subadditive bound and the UBP refinement step — all reduce to
//! moderately sized linear programs. The paper used CVXPY; this crate provides
//! the equivalent substrate in pure Rust: a **two-phase primal simplex**
//! solver over a row-major tableau that returns both the primal solution and
//! the dual values of every constraint. The tableau stores only the
//! non-basic columns, and each pivot eliminates only over the pivot row's
//! non-zero columns (the reduced-cost row stays dense), which gives the
//! same bits as the dense solver kept in [`mod@reference`]; the
//! full-width row passes run AVX2-compiled on CPUs that have it, again
//! with the same bits. A [`SimplexWorkspace`] owns the solver's buffers,
//! so a sweep of related LPs ([`LpProblem::solve_with`]) reuses one
//! tableau, and a sweep of objectives over fixed constraints
//! ([`LpProblem::solve_objectives_with`], CIP's capacities) runs phase 1
//! only once.
//!
//! An [`LpProblem`] stores its rows flat: one coefficient list for all
//! rows plus each row's end, operator and right-hand side, and
//! [`LpProblem::constraints`] yields borrowed [`Constraint`] views. A
//! caller that builds many LPs in turn (LPIP's thresholds) empties one
//! problem with [`LpProblem::clear`] and refills it, and
//! [`LpProblem::reserve`] and [`SimplexWorkspace::reserve`] size every
//! buffer for the largest LP up front, so a warm sweep allocates only the
//! solver's result vectors.
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
mod kernel;
mod problem;
pub mod reference;
mod simplex;
mod solution;
pub mod validate;

pub use error::LpError;
pub use problem::{Constraint, ConstraintOp, LpProblem, Sense};
pub use simplex::SimplexWorkspace;
pub use solution::{LpSolution, LpStatus, SweepSolution};

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
