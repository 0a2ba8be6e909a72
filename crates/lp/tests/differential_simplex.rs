//! Differential oracle for the simplex kernel.
//!
//! Two properties, each checked down to the last bit (`-0.0` and `0.0` are
//! different answers here):
//!
//! * the sparse-elimination solver ([`LpProblem::solve`]) returns the same
//!   objective, primal, dual and pivot count as the dense solver kept in
//!   [`qp_lp::reference`], or the same error;
//! * every result of an objective sweep
//!   ([`LpProblem::solve_objectives_with`]) equals what
//!   [`LpProblem::solve_with`] returns for that objective — objective value,
//!   primal and pivot count, or the same error;
//! * a problem emptied with [`LpProblem::clear`] after a larger one and
//!   refilled solves exactly like a fresh [`LpProblem`] and like the
//!   reference, duals included.
//!
//! The random LPs mix `≤`/`≥`/`=` rows, negative (and negative-zero)
//! right-hand sides (a quarter of the rows are stated multiplied by -1) and about 70 % zero coefficients, so they cover
//! infeasible and unbounded outcomes as well as optimal ones; some run on
//! starved pivot budgets. Fixed cases add the zero-sign cases the random
//! blocks found, a Klee–Minty cube that runs past the Bland threshold, and
//! the CIP and LPIP LPs of the test-scale world catalogs. The random blocks
//! follow `ProptestConfig::default()`, so CI elevates them with
//! `PROPTEST_CASES=20000`: 256 and 1,024 cases missed a zero-sign fault
//! that 4,096 caught.

use proptest::prelude::*;
use qp_lp::{
    reference, validate, ConstraintOp, LpError, LpProblem, LpSolution, Sense, SimplexWorkspace,
    SweepSolution,
};

#[path = "support/lps.rs"]
mod lps;

use lps::{catalog, cip_sweep, lp_strategy, lpip_lp, objective_strategy, Rows};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks that a sweep result equals a `solve_with` outcome bit for bit.
fn check_sweep(
    sweep: &Result<SweepSolution, LpError>,
    solve: &Result<LpSolution, LpError>,
) -> Result<(), String> {
    match (sweep, solve) {
        (Ok(s), Ok(x)) => {
            if s.objective.to_bits() != x.objective.to_bits()
                || bits(&s.primal) != bits(&x.primal)
                || s.iterations != x.iterations
            {
                return Err(format!("sweep {s:?} vs solve_with {x:?}"));
            }
            Ok(())
        }
        (Err(a), Err(b)) if a == b => Ok(()),
        _ => Err(format!("sweep {sweep:?} vs solve_with {solve:?}")),
    }
}

/// Solves `rows` under every objective as one sweep and one by one, and
/// checks both the sweep against `solve_with` and `solve_with` against the
/// dense reference.
fn check_all(rows: &Rows, objectives: &[Vec<f64>]) -> Result<(), String> {
    let mut ws = SimplexWorkspace::new();
    let sweep = rows.problem(&[]).solve_objectives_with(objectives, &mut ws);
    if sweep.len() != objectives.len() {
        return Err(format!(
            "{} results for {} objectives",
            sweep.len(),
            objectives.len()
        ));
    }
    for (i, (c, s)) in objectives.iter().zip(&sweep).enumerate() {
        let p = rows.problem(c);
        let solved = p.solve_with(&mut ws);
        validate::check_same_bits(&reference::solve(&p), &solved)
            .map_err(|e| format!("objective {i}: solve_with vs reference: {e}"))?;
        check_sweep(s, &solved).map_err(|e| format!("objective {i}: {e}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn sparse_pivot_matches_the_dense_reference(
        rows in lp_strategy(),
        costs in objective_strategy(32),
    ) {
        let p = rows.problem(&costs[..rows.n]);
        let sparse = p.solve();
        let dense = reference::solve(&p);
        prop_assert!(
            validate::check_same_bits(&dense, &sparse).is_ok(),
            "{:?}", validate::check_same_bits(&dense, &sparse)
        );
    }

    #[test]
    fn a_cleared_and_refilled_problem_solves_like_a_fresh_one(
        first in lp_strategy(),
        second in lp_strategy(),
        costs in objective_strategy(32),
        larger_costs in objective_strategy(32),
    ) {
        // The larger problem holds the second one's rows and then the
        // first one's, over the wider variable set, in the same sense.
        let larger = Rows {
            n: first.n.max(second.n),
            rows: second.rows.iter().chain(&first.rows).cloned().collect(),
            sense: second.sense,
            budget: first.budget,
        };
        let mut ws = SimplexWorkspace::new();
        let mut p = larger.problem(&larger_costs[..larger.n]);
        let _ = p.solve_with(&mut ws);
        let fresh = second.problem(&costs[..second.n]);
        p.clear(second.n);
        p.set_max_iterations(fresh.max_iterations());
        // `+0.0` costs are left to `clear`.
        for (j, &c) in costs[..second.n].iter().enumerate() {
            if c.to_bits() != 0 {
                p.set_objective(j, c);
            }
        }
        for (coeffs, op, rhs) in &second.rows {
            p.add_constraint(coeffs.iter().copied(), *op, *rhs);
        }
        let refilled = p.solve_with(&mut ws);
        let reference = reference::solve(&fresh);
        for (name, expected) in [("fresh", fresh.solve()), ("reference", reference)] {
            let same = validate::check_same_bits(&expected, &refilled);
            prop_assert!(same.is_ok(), "refilled vs {}: {:?}", name, same);
        }
    }

    #[test]
    fn every_sweep_result_equals_solve_with(
        case in lp_strategy().prop_flat_map(|rows| {
            let n = rows.n;
            (Just(rows), proptest::collection::vec(objective_strategy(n), 0..6))
        }),
        poison in 0u32..12,
    ) {
        // Now and then one objective is non-finite or a constraint is
        // malformed, so validation errors (and which one wins) are covered.
        let (mut rows, mut objectives) = case;
        match poison {
            0 if !objectives.is_empty() => objectives[0][0] = f64::NAN,
            1 => rows.rows.push((vec![(rows.n, 1.0)], ConstraintOp::Le, 1.0)),
            2 => rows.rows.push((vec![(0, 1.0)], ConstraintOp::Ge, f64::INFINITY)),
            _ => {}
        }
        let outcome = check_all(&rows, &objectives);
        prop_assert!(outcome.is_ok(), "{:?}", outcome);
    }
}

#[test]
fn explicit_infeasible_and_unbounded_sweeps() {
    // x0 ≤ 1 and x0 ≥ 3: phase 1 fails, and every objective gets the error.
    let infeasible = Rows {
        n: 2,
        rows: vec![
            (vec![(0, 1.0)], ConstraintOp::Le, 1.0),
            (vec![(0, 1.0)], ConstraintOp::Ge, 3.0),
        ],
        sense: Sense::Maximize,
        budget: None,
    };
    let objectives = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![f64::NAN, 0.0]];
    check_all(&infeasible, &objectives).unwrap();
    let sweep = infeasible
        .problem(&[])
        .solve_objectives_with(&objectives, &mut SimplexWorkspace::new());
    assert_eq!(sweep[0].as_ref().unwrap_err(), &LpError::Infeasible);
    assert_eq!(
        sweep[2].as_ref().unwrap_err(),
        &LpError::NonFiniteCoefficient,
        "objective validation wins over phase 1"
    );

    // x0 + x1 ≥ 1 with x1 free upwards: unbounded for some objectives only.
    let open = Rows {
        n: 2,
        rows: vec![
            (vec![(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 1.0),
            (vec![(0, 1.0)], ConstraintOp::Le, 4.0),
        ],
        sense: Sense::Maximize,
        budget: None,
    };
    let objectives = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![-1.0, -1.0]];
    check_all(&open, &objectives).unwrap();
    let sweep = open
        .problem(&[])
        .solve_objectives_with(&objectives, &mut SimplexWorkspace::new());
    assert!(sweep[0].is_ok());
    assert_eq!(sweep[1].as_ref().unwrap_err(), &LpError::Unbounded);
    assert!(sweep[2].is_ok());
}

/// The ROADMAP's worked case: a `≥` row whose reported dual is `+0.0`
/// although the negated reduced cost of its surplus column is `-0.0`.
#[test]
fn zero_dual_signs_match_the_reference() {
    let mut p = LpProblem::new(Sense::Maximize, 2);
    p.set_objective(0, 1.0);
    p.set_objective(1, 2.0);
    p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 5.0);
    p.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintOp::Le, 1.0);
    p.add_constraint(vec![(1, 1.0)], ConstraintOp::Ge, 1.0);
    p.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 0.5);
    let sparse = p.solve();
    let dense = reference::solve(&p);
    validate::check_same_bits(&dense, &sparse).unwrap();
    assert_eq!(dense.unwrap().dual[2].to_bits(), 0.0f64.to_bits());
}

/// A case the random generator found: phase 1 ends with zero-valued
/// artificials basic in `=` rows and pivots one out on a negative entry,
/// which turns the row's `+0.0`s into `-0.0`s. If that row were eliminated
/// only at the pivot row's non-zeros afterwards, two zero duals would come
/// out as `-0.0` where the dense solver reports `0.0`.
#[test]
fn rows_normalized_by_a_negative_pivot_stay_exact() {
    let mut rows = Rows {
        n: 5,
        rows: vec![
            (
                vec![(2, 3.821778500611769), (4, -0.0)],
                ConstraintOp::Le,
                18.598041850537342,
            ),
            (vec![(0, -0.0), (1, 1.25)], ConstraintOp::Le, 0.0),
            (
                vec![
                    (0, 0.28637537454961537),
                    (1, 2.7020717253058804),
                    (4, 4.6336578616981345),
                ],
                ConstraintOp::Eq,
                0.0,
            ),
            (
                vec![(1, -1.4150607442376426)],
                ConstraintOp::Ge,
                -14.110990676456696,
            ),
            (
                vec![(1, -4.493198037586711), (4, -1.0)],
                ConstraintOp::Ge,
                0.0,
            ),
            (
                vec![(2, 0.0), (3, -2.7687825183260824)],
                ConstraintOp::Eq,
                -0.0,
            ),
            (vec![(3, 0.0), (4, -1.0)], ConstraintOp::Ge, -0.0),
        ],
        sense: Sense::Maximize,
        budget: None,
    };
    rows.rows
        .extend((0..5).map(|j| (vec![(j, 1.0)], ConstraintOp::Le, 30.0)));
    let objective = vec![0.0, 4.377839386290581, 0.0, 0.0, 0.0];
    let p = rows.problem(&objective);
    let dense = reference::solve(&p);
    validate::check_same_bits(&dense, &p.solve()).unwrap();
    let dual = dense.unwrap().dual;
    assert_eq!(dual[2].to_bits(), 0.0f64.to_bits());
    check_all(&rows, &[objective]).unwrap();
}

/// A case the random generator found: phase 1 leaves three zero-valued
/// artificials basic in `=` rows, and a drive-out pivot on a negative entry
/// leaves `-0.0`s in the columns basic in other rows. One of those columns
/// then leaves the basis, and its `-0.0`s reach the duals. The tableau
/// stores no basic column, so only its zero-sign bits carry those signs:
/// without them three duals come out with the wrong zero sign.
#[test]
fn negative_zeros_of_a_leaving_basic_column_stay_exact() {
    let rows = Rows {
        n: 5,
        rows: vec![
            (
                vec![(0, 1.6199503313170436), (1, 0.0), (2, 0.0)],
                ConstraintOp::Ge,
                -18.409334053820746,
            ),
            (
                vec![(0, -4.978111754405614), (2, -1.304293171938145), (4, -1.0)],
                ConstraintOp::Eq,
                -0.0,
            ),
            (
                vec![(1, 0.0), (2, -4.697416791841132), (3, 0.0)],
                ConstraintOp::Eq,
                0.0,
            ),
            (vec![(3, 1.0)], ConstraintOp::Le, 14.665260743348853),
            (
                vec![(4, 1.7675713497326173)],
                ConstraintOp::Le,
                11.357209677401219,
            ),
            (vec![(0, -2.266741256613705)], ConstraintOp::Eq, 0.0),
        ],
        sense: Sense::Minimize,
        budget: Some(1),
    };
    let objective = vec![0.0, 0.0, 4.753345358221298, 0.19916745556256177, 0.0];
    let p = rows.problem(&objective);
    let dense = reference::solve(&p);
    validate::check_same_bits(&dense, &p.solve()).unwrap();
    let dual = dense.unwrap().dual;
    assert!(dual.iter().any(|y| y.to_bits() == (-0.0f64).to_bits()));
    check_all(&rows, &[objective]).unwrap();
}

/// Three `=` rows over two variables, any one of them redundant. Phase 1
/// pivots one row's artificial column back into the basis in another
/// row, and then drops that row, so the first row's dual is the reduced
/// cost of a column basic in a dropped row. That cost is a zero whose sign
/// the dense solver computes while rebuilding the objective: `-0.0`, which
/// this minimization reports as `0.0` (a `+0.0` would come out `-0.0`).
#[test]
fn a_logical_column_basic_in_a_dropped_row_keeps_its_zero_sign() {
    let rows = Rows {
        n: 2,
        rows: vec![
            (vec![(0, 2.0)], ConstraintOp::Eq, 2.0),
            (vec![(0, -2.0), (1, 3.0)], ConstraintOp::Eq, 1.0),
            (vec![(0, 3.0), (1, -2.0)], ConstraintOp::Eq, 1.0),
        ],
        sense: Sense::Minimize,
        budget: None,
    };
    let objective = vec![1.0, 1.0];
    let p = rows.problem(&objective);
    let dense = reference::solve(&p);
    validate::check_same_bits(&dense, &p.solve()).unwrap();
    let dual = dense.unwrap().dual;
    assert_eq!(dual[2].to_bits(), 0.0f64.to_bits());
    check_all(&rows, &[objective]).unwrap();
}

/// The Klee–Minty cube in `n` dimensions plus one `≥` row: Dantzig pricing
/// visits exponentially many vertices, so phase 2 runs past the Bland
/// threshold, and the `≥` row gives the sweep an artificial column to
/// compact away (the threshold must still count it).
fn klee_minty(n: usize) -> Rows {
    let mut rows = Vec::new();
    for i in 0..n {
        let mut coeffs: Vec<(usize, f64)> =
            (0..i).map(|j| (j, 2f64.powi((i - j + 1) as i32))).collect();
        coeffs.push((i, 1.0));
        rows.push((coeffs, ConstraintOp::Le, 5f64.powi(i as i32 + 1)));
    }
    rows.push((vec![(0, 1.0)], ConstraintOp::Ge, 1.0));
    Rows {
        n,
        rows,
        sense: Sense::Maximize,
        budget: None,
    }
}

#[test]
fn klee_minty_runs_past_the_bland_threshold() {
    let n = 10;
    let rows = klee_minty(n);
    let cube: Vec<f64> = (0..n).map(|j| 2f64.powi((n - 1 - j) as i32)).collect();
    let mut flat = vec![1.0; n];
    flat[n - 1] = 3.0;
    let objectives = vec![cube.clone(), flat, vec![0.0; n]];
    check_all(&rows, &objectives).unwrap();

    // m = n + 1 rows; columns = n structural + n + 1 slack/surplus + 1
    // artificial.
    let threshold = 8 * ((n + 1) + (2 * n + 2)) + 64;
    let sol = rows.problem(&cube).solve().unwrap();
    assert!(
        sol.iterations > threshold,
        "{} pivots do not pass the Bland threshold {threshold}",
        sol.iterations
    );
}

fn check_catalog(skewed_queries: bool) {
    let h = catalog(skewed_queries, 60);
    assert!(h.num_edges() > 0 && h.max_degree() > 1);

    let (rows, objectives) = cip_sweep(&h);
    assert!(objectives.len() > 1);
    check_all(&rows, &objectives).unwrap();

    let mut thresholds: Vec<f64> = h.edges().iter().map(|e| e.valuation).collect();
    thresholds.sort_by(|a, b| b.total_cmp(a));
    thresholds.dedup();
    let mut ws = SimplexWorkspace::new();
    for &t in thresholds.iter().step_by(7) {
        let p = lpip_lp(&h, t);
        let solved = p.solve_with(&mut ws);
        validate::check_same_bits(&reference::solve(&p), &solved).unwrap();
        let objective = p.objective().to_vec();
        let sweep = p.solve_objectives_with(&[objective], &mut ws);
        check_sweep(&sweep[0], &solved).unwrap();
    }
}

#[test]
fn skewed_catalog_cip_and_lpip_lps_match() {
    check_catalog(true);
}

#[test]
fn uniform_catalog_cip_and_lpip_lps_match() {
    check_catalog(false);
}
