//! Solution validation helpers.
//!
//! These utilities check that a candidate solution is (approximately)
//! feasible and that primal/dual objectives agree — used heavily by the test
//! suites of the pricing algorithms to guard against silent solver drift.

use crate::{ConstraintOp, LpError, LpProblem, LpSolution, CHECK_EPS};

/// Returns the largest constraint violation of `x` for problem `p`
/// (0.0 when `x` is feasible). Non-negativity violations are included.
pub fn max_violation(p: &LpProblem, x: &[f64]) -> f64 {
    let mut worst = 0.0f64;
    for &v in x {
        if v < 0.0 {
            worst = worst.max(-v);
        }
    }
    for c in p.constraints() {
        let lhs: f64 = c.coeffs.iter().map(|&(j, a)| a * x[j]).sum();
        let viol = match c.op {
            ConstraintOp::Le => lhs - c.rhs,
            ConstraintOp::Ge => c.rhs - lhs,
            ConstraintOp::Eq => (lhs - c.rhs).abs(),
        };
        worst = worst.max(viol.max(0.0));
    }
    worst
}

/// True if `x` satisfies every constraint of `p` up to `tol`.
pub fn is_feasible(p: &LpProblem, x: &[f64], tol: f64) -> bool {
    max_violation(p, x) <= tol
}

/// Checks an optimal solution: primal feasibility and agreement between the
/// reported objective and `c·x`. Returns a human-readable error otherwise.
pub fn check_solution(p: &LpProblem, sol: &LpSolution) -> Result<(), String> {
    let viol = max_violation(p, &sol.primal);
    if viol > CHECK_EPS {
        return Err(format!("primal infeasible: max violation {viol:e}"));
    }
    let cx: f64 = p
        .objective()
        .iter()
        .zip(&sol.primal)
        .map(|(c, x)| c * x)
        .sum();
    if (cx - sol.objective).abs() > CHECK_EPS * (1.0 + sol.objective.abs()) {
        return Err(format!(
            "objective mismatch: reported {} but c·x = {}",
            sol.objective, cx
        ));
    }
    Ok(())
}

/// Weak-duality / strong-duality check: `bᵀy` must equal the primal objective
/// at optimality (up to tolerance scaled by the magnitude of the objective).
pub fn check_strong_duality(p: &LpProblem, sol: &LpSolution) -> Result<(), String> {
    let by: f64 = p.constraints().zip(&sol.dual).map(|(c, y)| c.rhs * y).sum();
    let scale = 1.0 + sol.objective.abs();
    if (by - sol.objective).abs() > 1e-5 * scale {
        return Err(format!(
            "strong duality violated: primal {} vs bᵀy {}",
            sol.objective, by
        ));
    }
    Ok(())
}

/// Checks that two solver outcomes are bit-identical: the same error, or
/// the same objective, primal, dual and pivot count down to the last bit.
/// The oracle for buffer reuse ([`LpProblem::solve_with`] against a fresh
/// [`LpProblem::solve`]).
pub fn check_same_bits(
    a: &Result<LpSolution, LpError>,
    b: &Result<LpSolution, LpError>,
) -> Result<(), String> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    match (a, b) {
        (Ok(x), Ok(y)) => {
            if x.objective.to_bits() != y.objective.to_bits()
                || bits(&x.primal) != bits(&y.primal)
                || bits(&x.dual) != bits(&y.dual)
                || x.iterations != y.iterations
            {
                return Err(format!("solutions differ: {x:?} vs {y:?}"));
            }
            Ok(())
        }
        (Err(x), Err(y)) if x == y => Ok(()),
        _ => Err(format!("outcomes differ: {a:?} vs {b:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstraintOp, LpProblem, Sense};

    fn sample_lp() -> LpProblem {
        let mut lp = LpProblem::new(Sense::Maximize, 2);
        lp.set_objective(0, 3.0);
        lp.set_objective(1, 2.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Le, 4.0);
        lp.add_constraint(vec![(0, 1.0), (1, 3.0)], ConstraintOp::Le, 6.0);
        lp
    }

    #[test]
    fn feasibility_check() {
        let lp = sample_lp();
        assert!(is_feasible(&lp, &[1.0, 1.0], 1e-9));
        assert!(!is_feasible(&lp, &[5.0, 0.0], 1e-9));
        assert!(!is_feasible(&lp, &[-1.0, 0.0], 1e-9));
        assert!(max_violation(&lp, &[5.0, 0.0]) > 0.9);
    }

    #[test]
    fn optimal_solution_passes_checks() {
        let lp = sample_lp();
        let sol = lp.solve().unwrap();
        check_solution(&lp, &sol).unwrap();
        check_strong_duality(&lp, &sol).unwrap();
    }

    #[test]
    fn equality_violation_is_two_sided() {
        let mut lp = LpProblem::new(Sense::Maximize, 1);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 2.0);
        assert!(max_violation(&lp, &[2.5]) > 0.4);
        assert!(max_violation(&lp, &[1.5]) > 0.4);
        assert!(is_feasible(&lp, &[2.0], 1e-9));
    }
}
