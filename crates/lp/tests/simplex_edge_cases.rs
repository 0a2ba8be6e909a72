//! Simplex edge cases: degenerate and redundant systems must terminate at
//! the optimum, and pathological problems must come back as the right
//! [`LpError`] variant — never a hang, never a panic. One
//! [`SimplexWorkspace`] reused across all of these shapes must give the
//! answers fresh solves give, bit for bit.

use qp_lp::{validate, ConstraintOp, LpError, LpProblem, Sense, SimplexWorkspace};

fn approx(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-6
}

// ---- Infeasibility -----------------------------------------------------

#[test]
fn contradictory_bounds_are_infeasible() {
    let mut lp = LpProblem::new(Sense::Maximize, 1);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 2.0);
    lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 5.0);
    assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
}

#[test]
fn contradictory_equalities_are_infeasible() {
    // x + y = 1 and x + y = 3 cannot both hold.
    let mut lp = LpProblem::new(Sense::Minimize, 2);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 1.0);
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 3.0);
    assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
}

#[test]
fn negative_rhs_equality_with_nonnegative_vars_is_infeasible() {
    // x + y = -1 has no solution in x, y ≥ 0 (exercises the rhs-negation
    // normalization path through phase 1).
    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, -1.0);
    assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
}

#[test]
fn zero_row_with_positive_rhs_is_infeasible() {
    // 0·x ≥ 1: an all-zero constraint row that can never be satisfied.
    let mut lp = LpProblem::new(Sense::Maximize, 1);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(0, 0.0)], ConstraintOp::Ge, 1.0);
    lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 10.0);
    assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
}

// ---- Unboundedness -----------------------------------------------------

#[test]
fn unconstrained_variable_is_unbounded() {
    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Le, 3.0);
    assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
}

#[test]
fn minimization_can_be_unbounded_too() {
    // min −x with only x ≥ 2: x can grow forever.
    let mut lp = LpProblem::new(Sense::Minimize, 1);
    lp.set_objective(0, -1.0);
    lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 2.0);
    assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
}

#[test]
fn unbounded_ray_through_a_feasible_region() {
    // x − y ≤ 1 holds along the ray x = y + 1 → ∞; maximize x + y.
    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 1.0);
    lp.set_objective(1, 1.0);
    lp.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintOp::Le, 1.0);
    assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
}

#[test]
fn bounded_objective_over_an_unbounded_region_still_solves() {
    // The region is unbounded in y, but the objective ignores y: max x with
    // x ≤ 4, y free upward. Must return 4, not Unbounded.
    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 4.0);
    lp.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintOp::Le, 2.0);
    let sol = lp.solve().unwrap();
    assert!(approx(sol.objective, 4.0));
}

// ---- Degeneracy and redundancy -----------------------------------------

#[test]
fn redundant_inequalities_do_not_change_the_optimum() {
    // The same face described three times plus a slack copy.
    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 2.0);
    lp.set_objective(1, 3.0);
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Le, 4.0);
    lp.add_constraint(vec![(0, 2.0), (1, 2.0)], ConstraintOp::Le, 8.0);
    lp.add_constraint(vec![(0, 3.0), (1, 3.0)], ConstraintOp::Le, 12.0);
    lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Le, 100.0);
    let sol = lp.solve().unwrap();
    assert!(approx(sol.objective, 12.0)); // all budget on y
    assert!(approx(sol.primal[1], 4.0));
}

#[test]
fn redundant_equalities_mixed_with_inequalities_solve() {
    // x + y = 2 stated twice (scaled), plus x ≤ 2: optimum x = 2, y = 0.
    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 2.0);
    lp.add_constraint(vec![(0, 0.5), (1, 0.5)], ConstraintOp::Eq, 1.0);
    lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 2.0);
    let sol = lp.solve().unwrap();
    assert!(approx(sol.objective, 2.0));
    assert!(approx(sol.primal[0], 2.0));
    assert!(approx(sol.primal[1], 0.0));
}

#[test]
fn degenerate_vertex_with_many_tight_constraints_terminates() {
    // Four constraints all tight at the optimum (0, 1) — a classic
    // degenerate vertex that invites pivot cycling.
    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 1.0);
    lp.set_objective(1, 2.0);
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Le, 1.0);
    lp.add_constraint(vec![(0, -1.0), (1, 1.0)], ConstraintOp::Le, 1.0);
    lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Le, 1.0);
    lp.add_constraint(vec![(0, 2.0), (1, 1.0)], ConstraintOp::Le, 1.0);
    let sol = lp.solve().unwrap();
    assert!(approx(sol.objective, 2.0));
    assert!(approx(sol.primal[0], 0.0));
    assert!(approx(sol.primal[1], 1.0));
}

#[test]
fn kuhns_cycling_prone_lp_terminates_at_the_optimum() {
    // A Beale/Kuhn-style degenerate LP with zero right-hand sides; Dantzig
    // pricing alone can cycle here, so this exercises the Bland fallback
    // and the ratio-test tie-breaking.
    let mut lp = LpProblem::new(Sense::Maximize, 4);
    lp.set_objective(0, 2.0);
    lp.set_objective(1, 3.0);
    lp.set_objective(2, -1.0);
    lp.set_objective(3, -12.0);
    lp.add_constraint(
        vec![(0, -2.0), (1, -9.0), (2, 1.0), (3, 9.0)],
        ConstraintOp::Le,
        0.0,
    );
    lp.add_constraint(
        vec![(0, 1.0 / 3.0), (1, 1.0), (2, -1.0 / 3.0), (3, -2.0)],
        ConstraintOp::Le,
        0.0,
    );
    // Bound the feasible region so the LP has a finite optimum.
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Le, 10.0);
    let sol = lp.solve().unwrap();
    assert!(sol.objective.is_finite());
    // Optimum: x0 = 10 (worth 2 each) with x2 = 10 absorbing the second
    // constraint's slack (cost 1 each) → objective 10 at (10, 0, 10, 0).
    assert!(approx(sol.objective, 10.0));
    let x = &sol.primal;
    assert!(-2.0 * x[0] - 9.0 * x[1] + x[2] + 9.0 * x[3] <= 1e-6);
    assert!(x[0] / 3.0 + x[1] - x[2] / 3.0 - 2.0 * x[3] <= 1e-6);
    assert!(x[0] + x[1] <= 10.0 + 1e-6);
}

// ---- Budget exhaustion and validation ----------------------------------

#[test]
fn exhausted_pivot_budget_returns_iteration_limit() {
    // A healthy LP that needs several pivots, strangled to one.
    let mut lp = LpProblem::new(Sense::Maximize, 3);
    for j in 0..3 {
        lp.set_objective(j, 1.0 + j as f64);
        lp.add_constraint(vec![(j, 1.0)], ConstraintOp::Le, 1.0);
    }
    lp.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], ConstraintOp::Le, 2.0);
    lp.set_max_iterations(1);
    match lp.solve().unwrap_err() {
        LpError::IterationLimit { iterations } => assert_eq!(iterations, 1),
        other => panic!("expected IterationLimit, got {other:?}"),
    }
    // With the budget restored the same problem solves fine.
    lp.set_max_iterations(10_000);
    assert!(lp.solve().is_ok());
}

#[test]
fn iteration_limit_can_hit_in_phase_one() {
    // Equalities force artificials, so phase 1 must pivot — and is capped.
    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 3.0);
    lp.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintOp::Eq, 1.0);
    lp.set_max_iterations(1);
    assert!(matches!(
        lp.solve().unwrap_err(),
        LpError::IterationLimit { .. }
    ));
}

#[test]
fn non_finite_coefficients_are_rejected_before_solving() {
    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, f64::NAN);
    assert_eq!(lp.solve().unwrap_err(), LpError::NonFiniteCoefficient);

    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(0, f64::INFINITY)], ConstraintOp::Le, 1.0);
    assert_eq!(lp.solve().unwrap_err(), LpError::NonFiniteCoefficient);

    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, f64::NEG_INFINITY);
    assert_eq!(lp.solve().unwrap_err(), LpError::NonFiniteCoefficient);
}

#[test]
fn out_of_range_variables_are_rejected_before_solving() {
    let mut lp = LpProblem::new(Sense::Minimize, 2);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(7, 1.0)], ConstraintOp::Le, 1.0);
    assert_eq!(
        lp.solve().unwrap_err(),
        LpError::VariableOutOfRange {
            index: 7,
            num_vars: 2
        }
    );
}

#[test]
fn zero_variable_problems_are_fine() {
    // No variables at all: the origin is optimal with objective 0, and a
    // positive-rhs ≥ row over nothing is infeasible.
    let lp = LpProblem::new(Sense::Maximize, 0);
    let sol = lp.solve().unwrap();
    assert!(approx(sol.objective, 0.0));

    let mut lp = LpProblem::new(Sense::Maximize, 0);
    lp.add_constraint(vec![], ConstraintOp::Ge, 1.0);
    assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
}

// ---- Workspace reuse ---------------------------------------------------

/// A dense `rows × vars` LP with pseudo-random coefficients (a fixed LCG,
/// so the problem is the same on every run). `op` is the sense of every
/// row; `≤` rows keep the origin feasible, `≥` rows need phase 1.
fn dense_lp(sense: Sense, vars: usize, rows: usize, op: ConstraintOp, seed: u64) -> LpProblem {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut lp = LpProblem::new(sense, vars);
    for j in 0..vars {
        lp.set_objective(j, 1.0 + 9.0 * next());
    }
    for _ in 0..rows {
        let coeffs = (0..vars).map(|j| (j, 0.1 + 4.0 * next())).collect();
        lp.add_constraint(coeffs, op, 5.0 + 20.0 * next());
    }
    lp
}

/// Every shape the solver distinguishes, in an order that grows and
/// shrinks the tableau and leaves the buffers mid-solve (infeasible in
/// phase 1, unbounded in phase 2, out of pivots) before the next problem.
fn mixed_sequence() -> Vec<(&'static str, LpProblem)> {
    let mut small = LpProblem::new(Sense::Maximize, 2);
    small.set_objective(0, 3.0);
    small.set_objective(1, 5.0);
    small.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 4.0);
    small.add_constraint(vec![(1, 2.0)], ConstraintOp::Le, 12.0);
    small.add_constraint(vec![(0, 3.0), (1, 2.0)], ConstraintOp::Le, 18.0);

    let mut infeasible = LpProblem::new(Sense::Maximize, 3);
    infeasible.set_objective(0, 1.0);
    infeasible.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Le, 2.0);
    infeasible.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 0.0)], ConstraintOp::Ge, 5.0);

    let mut unbounded = LpProblem::new(Sense::Maximize, 2);
    unbounded.set_objective(0, 1.0);
    unbounded.set_objective(1, 1.0);
    unbounded.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintOp::Le, 1.0);

    let mut strangled = dense_lp(Sense::Maximize, 6, 5, ConstraintOp::Le, 11);
    strangled.set_max_iterations(2);

    let mut equalities = LpProblem::new(Sense::Minimize, 6);
    let costs = [2.0, 3.0, 1.0, 5.0, 4.0, 8.0];
    for (j, &c) in costs.iter().enumerate() {
        equalities.set_objective(j, c);
    }
    for (i, supply) in [20.0, 30.0].into_iter().enumerate() {
        let row = (0..3).map(|j| (i * 3 + j, 1.0)).collect();
        equalities.add_constraint(row, ConstraintOp::Eq, supply);
    }
    for (j, demand) in [10.0, 25.0, 15.0].into_iter().enumerate() {
        let col = (0..2).map(|i| (i * 3 + j, 1.0)).collect();
        equalities.add_constraint(col, ConstraintOp::Eq, demand);
    }

    let mut redundant = LpProblem::new(Sense::Maximize, 2);
    redundant.set_objective(0, 1.0);
    redundant.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 3.0);
    redundant.add_constraint(vec![(0, 2.0), (1, 2.0)], ConstraintOp::Eq, 6.0);

    let mut negative_rhs = LpProblem::new(Sense::Maximize, 1);
    negative_rhs.set_objective(0, -1.0);
    negative_rhs.add_constraint(vec![(0, -1.0)], ConstraintOp::Le, -2.0);

    let mut phase_one_limit = LpProblem::new(Sense::Maximize, 2);
    phase_one_limit.set_objective(0, 1.0);
    phase_one_limit.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 3.0);
    phase_one_limit.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintOp::Eq, 1.0);
    phase_one_limit.set_max_iterations(1);

    vec![
        ("small packing", small.clone()),
        (
            "large packing",
            dense_lp(Sense::Maximize, 40, 30, ConstraintOp::Le, 1),
        ),
        ("infeasible", infeasible),
        ("small packing again", small),
        (
            "large covering",
            dense_lp(Sense::Minimize, 30, 40, ConstraintOp::Ge, 2),
        ),
        ("unbounded", unbounded),
        ("transportation equalities", equalities),
        ("iteration limit", strangled),
        ("redundant equalities", redundant),
        (
            "larger packing",
            dense_lp(Sense::Maximize, 60, 45, ConstraintOp::Le, 3),
        ),
        ("phase-1 iteration limit", phase_one_limit),
        ("negative rhs", negative_rhs),
        ("no constraints", LpProblem::new(Sense::Maximize, 3)),
        (
            "medium covering",
            dense_lp(Sense::Minimize, 12, 9, ConstraintOp::Ge, 4),
        ),
    ]
}

#[test]
fn one_workspace_solves_a_mixed_sequence_bit_identically() {
    let problems = mixed_sequence();
    let mut ws = SimplexWorkspace::new();
    let mut outcomes = Vec::new();
    // Forward, then backward through the same workspace: every problem is
    // solved once after a larger tableau and once after a smaller one.
    for (name, lp) in problems.iter().chain(problems.iter().rev()) {
        let fresh = lp.solve();
        let reused = lp.solve_with(&mut ws);
        if let Err(msg) = validate::check_same_bits(&fresh, &reused) {
            panic!("{name}: {msg}");
        }
        outcomes.push(fresh.map(|_| ()).map_err(|e| std::mem::discriminant(&e)));
    }
    // The sequence really covers every outcome the solver can report.
    for expected in [
        Err(std::mem::discriminant(&LpError::Infeasible)),
        Err(std::mem::discriminant(&LpError::Unbounded)),
        Err(std::mem::discriminant(&LpError::IterationLimit {
            iterations: 0,
        })),
        Ok(()),
    ] {
        assert!(outcomes.contains(&expected), "{expected:?} never occurred");
    }
}
