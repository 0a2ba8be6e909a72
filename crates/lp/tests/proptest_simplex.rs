//! Property-based tests for the simplex solver.
//!
//! Strategy: generate small random LPs of the shape that dominates query
//! pricing (maximize a non-negative objective subject to `≤` constraints with
//! non-negative coefficients and rhs). Such LPs are always feasible (x = 0)
//! and bounded whenever every objective variable appears in some constraint
//! with a positive coefficient, so the solver must return `Optimal`. We then
//! check feasibility, optimality versus random feasible points, and strong
//! duality.
//!
//! The same LPs, mixed with `≥`/`=` rows, unbounded directions and starved
//! pivot budgets, also drive the workspace-reuse oracle: a sequence of them
//! solved through one [`SimplexWorkspace`] must match fresh solves bit for
//! bit. That block follows `ProptestConfig::default()`, so CI elevates it
//! with `PROPTEST_CASES=20000`.

use proptest::prelude::*;
use qp_lp::{validate, ConstraintOp, LpProblem, Sense, SimplexWorkspace};

/// A small random packing-style LP together with coefficient matrices so the
/// test can re-derive feasibility independently of the solver.
#[derive(Debug, Clone)]
struct PackingLp {
    objective: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>,
}

fn packing_lp_strategy() -> impl Strategy<Value = PackingLp> {
    (2usize..6, 2usize..7).prop_flat_map(|(n, m)| {
        let obj = proptest::collection::vec(0.1f64..10.0, n);
        let rows =
            proptest::collection::vec((proptest::collection::vec(0.0f64..5.0, n), 1.0f64..20.0), m);
        (obj, rows).prop_map(|(objective, rows)| PackingLp { objective, rows })
    })
}

/// Ensures boundedness: every variable gets an extra row `x_j <= 50`.
fn build(lp: &PackingLp) -> LpProblem {
    let n = lp.objective.len();
    let mut p = LpProblem::new(Sense::Maximize, n);
    for (j, &c) in lp.objective.iter().enumerate() {
        p.set_objective(j, c);
    }
    for (coeffs, rhs) in &lp.rows {
        let sparse: Vec<_> = coeffs
            .iter()
            .enumerate()
            .filter(|(_, &a)| a != 0.0)
            .map(|(j, &a)| (j, a))
            .collect();
        p.add_constraint(sparse, ConstraintOp::Le, *rhs);
    }
    for j in 0..n {
        p.add_constraint(vec![(j, 1.0)], ConstraintOp::Le, 50.0);
    }
    p
}

/// How [`build_mixed`] perturbs a packing LP.
#[derive(Debug, Clone, Copy)]
enum Twist {
    /// The packing LP as is (phase 2 only).
    Plain,
    /// Plus `Σ x ≥ rhs` (phase 1; infeasible when the packing rows forbid it).
    Cover(f64),
    /// Plus `x_0 + x_1 = rhs` (phase 1 with an artificial that must leave).
    Pin(f64),
    /// Plus a variable in the objective but in no row (unbounded).
    Unbounded,
    /// With a pivot budget of 1–3 (may stop with `IterationLimit`).
    Starved(usize),
}

fn twist_strategy() -> impl Strategy<Value = Twist> {
    (0usize..5, 0.5f64..30.0).prop_map(|(kind, x)| match kind {
        0 => Twist::Plain,
        1 => Twist::Cover(x),
        2 => Twist::Pin(x),
        3 => Twist::Unbounded,
        _ => Twist::Starved(1 + x as usize % 3),
    })
}

fn build_mixed(lp: &PackingLp, twist: Twist) -> LpProblem {
    let n = lp.objective.len();
    let mut p = match twist {
        Twist::Unbounded => {
            let mut p = LpProblem::new(Sense::Maximize, n + 1);
            for (j, &c) in lp.objective.iter().enumerate() {
                p.set_objective(j, c);
            }
            p.set_objective(n, 1.0);
            for (coeffs, rhs) in &lp.rows {
                p.add_constraint(coeffs.iter().copied().enumerate(), ConstraintOp::Le, *rhs);
            }
            return p;
        }
        _ => build(lp),
    };
    match twist {
        Twist::Cover(rhs) => {
            p.add_constraint((0..n).map(|j| (j, 1.0)), ConstraintOp::Ge, rhs);
        }
        Twist::Pin(rhs) => {
            p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, rhs);
        }
        Twist::Starved(budget) => p.set_max_iterations(budget),
        Twist::Plain | Twist::Unbounded => {}
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn one_workspace_matches_fresh_solves_bit_for_bit(
        seq in proptest::collection::vec((packing_lp_strategy(), twist_strategy()), 1..10),
    ) {
        let mut ws = SimplexWorkspace::new();
        for (lp, twist) in &seq {
            let p = build_mixed(lp, *twist);
            let fresh = p.solve();
            let reused = p.solve_with(&mut ws);
            prop_assert!(
                validate::check_same_bits(&fresh, &reused).is_ok(),
                "{:?}: {:?}", twist, validate::check_same_bits(&fresh, &reused)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn solver_returns_feasible_optimal_solutions(lp in packing_lp_strategy()) {
        let p = build(&lp);
        let sol = p.solve().expect("packing LP must be solvable");
        validate::check_solution(&p, &sol).unwrap();
        validate::check_strong_duality(&p, &sol).unwrap();
        // Origin is feasible with objective 0, so the optimum is >= 0.
        prop_assert!(sol.objective >= -1e-9);
    }

    #[test]
    fn optimum_dominates_random_feasible_points(
        lp in packing_lp_strategy(),
        scale in 0.0f64..1.0,
    ) {
        let p = build(&lp);
        let sol = p.solve().unwrap();

        // Construct a feasible point by scaling down the per-variable cap
        // until all rows are satisfied.
        let n = lp.objective.len();
        let mut x = vec![scale * 50.0; n];
        loop {
            let viol = validate::max_violation(&p, &x);
            if viol <= 1e-9 {
                break;
            }
            for v in &mut x {
                *v *= 0.5;
            }
            if x.iter().all(|&v| v < 1e-12) {
                break;
            }
        }
        let val: f64 = lp.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
        prop_assert!(sol.objective >= val - 1e-6,
            "solver optimum {} worse than feasible value {}", sol.objective, val);
    }

    #[test]
    fn duals_are_nonnegative_for_le_constraints(lp in packing_lp_strategy()) {
        let p = build(&lp);
        let sol = p.solve().unwrap();
        for (i, &y) in sol.dual.iter().enumerate() {
            prop_assert!(y >= -1e-7, "dual {} of constraint {} negative", y, i);
        }
    }

    #[test]
    fn covering_lps_satisfy_weak_duality(
        costs in proptest::collection::vec(0.5f64..5.0, 3),
        demands in proptest::collection::vec(1.0f64..10.0, 3),
    ) {
        // min c·x s.t. x_j >= d_j  => optimum is exactly sum c_j d_j.
        let n = costs.len();
        let mut p = LpProblem::new(Sense::Minimize, n);
        for (j, &c) in costs.iter().enumerate() {
            p.set_objective(j, c);
        }
        for (j, &d) in demands.iter().enumerate() {
            p.add_constraint(vec![(j, 1.0)], ConstraintOp::Ge, d);
        }
        let sol = p.solve().unwrap();
        let expected: f64 = costs.iter().zip(&demands).map(|(c, d)| c * d).sum();
        prop_assert!((sol.objective - expected).abs() < 1e-6);
        validate::check_strong_duality(&p, &sol).unwrap();
    }
}
