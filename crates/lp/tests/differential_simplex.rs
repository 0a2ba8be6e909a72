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
//! starved pivot budgets. Fixed cases add a Klee–Minty cube that runs past
//! the Bland threshold, and the CIP and LPIP LPs of the test-scale world
//! catalogs. The random blocks follow `ProptestConfig::default()`, so CI
//! elevates them with `PROPTEST_CASES=256`.

use proptest::prelude::*;
use qp_lp::{
    reference, validate, ConstraintOp, LpError, LpProblem, LpSolution, Sense, SimplexWorkspace,
    SweepSolution,
};
use qp_market::{build_hypergraph, ParallelConflictEngine, SupportConfig, SupportSet};
use qp_pricing::Hypergraph;
use qp_workloads::queries::{skewed, uniform};
use qp_workloads::world::{self, WorldConfig};
use qp_workloads::Scale;

/// One constraint: sparse coefficients, operator, right-hand side.
type Row = (Vec<(usize, f64)>, ConstraintOp, f64);

/// A constraint set over `n` variables.
#[derive(Debug, Clone)]
struct Rows {
    n: usize,
    rows: Vec<Row>,
    sense: Sense,
    /// Pivot budget; `None` keeps the default.
    budget: Option<usize>,
}

impl Rows {
    fn problem(&self, objective: &[f64]) -> LpProblem {
        let mut p = LpProblem::new(self.sense, self.n);
        for (j, &c) in objective.iter().enumerate() {
            p.set_objective(j, c);
        }
        for (coeffs, op, rhs) in &self.rows {
            p.add_constraint(coeffs.clone(), *op, *rhs);
        }
        if let Some(budget) = self.budget {
            p.set_max_iterations(budget);
        }
        p
    }
}

/// A coefficient that is zero about 70 % of the time (sometimes `-0.0`).
fn coeff() -> impl Strategy<Value = f64> {
    (0u32..20, -2.0f64..5.0).prop_map(|(k, v)| match k {
        0..=11 => 0.0,
        12 | 13 => -0.0,
        14 => 1.0,
        _ => v,
    })
}

/// `≤` half the time, `≥` and `=` a quarter each.
fn op() -> impl Strategy<Value = ConstraintOp> {
    (0u32..4).prop_map(|k| match k {
        0 | 1 => ConstraintOp::Le,
        2 => ConstraintOp::Ge,
        _ => ConstraintOp::Eq,
    })
}

/// A right-hand side: a zero of either sign one time in five, otherwise
/// positive.
fn rhs() -> impl Strategy<Value = f64> {
    (0u32..10, 0.5f64..20.0).prop_map(|(k, v)| match k {
        0 => 0.0,
        1 => -0.0,
        _ => v,
    })
}

/// The same constraint multiplied by -1: a negative right-hand side (or
/// `-0.0` for `+0.0`) over the same feasible set.
fn negate((coeffs, op, rhs): Row) -> Row {
    let op = match op {
        ConstraintOp::Le => ConstraintOp::Ge,
        ConstraintOp::Ge => ConstraintOp::Le,
        ConstraintOp::Eq => ConstraintOp::Eq,
    };
    (coeffs.into_iter().map(|(j, a)| (j, -a)).collect(), op, -rhs)
}

/// Random mixed constraint sets. `boxed` caps every variable at 30 (a `≤`
/// row), which keeps most instances bounded; without it unbounded and
/// infeasible outcomes are common. One in five gets a budget of 1–4 pivots.
fn rows_strategy() -> impl Strategy<Value = Rows> {
    (1usize..8, 1usize..9, 0u32..10).prop_flat_map(|(n, m, flags)| {
        let row = (proptest::collection::vec(coeff(), n), op(), rhs(), 0u32..4);
        (
            proptest::collection::vec(row, m),
            Just(n),
            Just(flags),
            1usize..5,
        )
            .prop_map(|(dense_rows, n, flags, budget)| {
                let mut rows: Vec<Row> = dense_rows
                    .into_iter()
                    .enumerate()
                    .map(|(i, (dense, op, rhs, flip))| {
                        let mut sparse: Vec<(usize, f64)> = dense
                            .into_iter()
                            .enumerate()
                            .filter(|(_, a)| a.to_bits() != 0)
                            .collect();
                        // An empty row is infeasible or void; give it one
                        // positive coefficient.
                        if sparse.iter().all(|&(_, a)| a == 0.0) {
                            sparse.push((i % n, 1.0 + i as f64 / 4.0));
                        }
                        let row = (sparse, op, rhs);
                        if flip == 0 {
                            negate(row)
                        } else {
                            row
                        }
                    })
                    .collect();
                if flags % 3 != 0 {
                    rows.extend((0..n).map(|j| (vec![(j, 1.0)], ConstraintOp::Le, 30.0)));
                }
                Rows {
                    n,
                    rows,
                    sense: if flags % 2 == 0 {
                        Sense::Maximize
                    } else {
                        Sense::Minimize
                    },
                    budget: (flags == 9).then_some(budget),
                }
            })
    })
}

/// Larger covering LPs shaped like CIP's: `≥` rows with non-negative
/// coefficients (about 70 % zero) and a unit `z` column each, so every
/// instance is feasible and, minimized under non-negative costs, bounded.
/// They take tens of pivots in both phases.
fn covering_strategy() -> impl Strategy<Value = Rows> {
    (3usize..16, 2usize..14).prop_flat_map(|(n, m)| {
        let row = (proptest::collection::vec(coeff(), n), 0.5f64..20.0);
        proptest::collection::vec(row, m).prop_map(move |dense_rows| Rows {
            n: n + m,
            rows: dense_rows
                .into_iter()
                .enumerate()
                .map(|(i, (dense, rhs))| {
                    let mut coeffs: Vec<(usize, f64)> = dense
                        .into_iter()
                        .enumerate()
                        .filter(|(_, a)| *a > 0.0)
                        .collect();
                    coeffs.push((n + i, 1.0));
                    (coeffs, ConstraintOp::Ge, rhs)
                })
                .collect(),
            sense: Sense::Minimize,
            budget: None,
        })
    })
}

/// Either family, half the time each.
fn lp_strategy() -> impl Strategy<Value = Rows> {
    (0u32..2, rows_strategy(), covering_strategy())
        .prop_map(|(k, mixed, covering)| if k == 0 { mixed } else { covering })
}

/// A dense non-negative objective over `n` variables, zero (of either
/// sign) about 70 % of the time. The sense of the problem decides the
/// direction.
fn objective_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    let c = (0u32..10, 0.1f64..5.0).prop_map(|(k, v)| match k {
        0..=5 => 0.0,
        6 => -0.0,
        7 => 1.0,
        _ => v,
    });
    proptest::collection::vec(c, n)
}

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

/// The hypergraph of a test-scale world catalog: `support` support
/// databases, seeded valuations in `[1, 100)`.
fn catalog(skewed_queries: bool, support: usize) -> Hypergraph {
    let cfg = WorldConfig::at_scale(Scale::Test);
    let db = world::generate(&cfg);
    let queries = if skewed_queries {
        skewed::workload(&db, cfg.countries).queries
    } else {
        uniform::workload(&db, 150).queries
    };
    let support = SupportSet::generate(&db, &SupportConfig::with_size(support));
    let mut h = build_hypergraph(&ParallelConflictEngine::new(&db, &support), &queries);
    h.set_valuations(|i, _| 1.0 + ((i * 7919) % 991) as f64 / 10.0);
    h
}

/// CIP's capacity LP rows, `Σ_{j∈e} y_j + z_e ≥ v_e`, and its objectives
/// `k·Σy + Σz` for the capacities `1, 1.5, 2.25, …` up to the max degree.
fn cip_sweep(h: &Hypergraph) -> (Rows, Vec<Vec<f64>>) {
    let active = h.active_items();
    let mut var_of_item = vec![usize::MAX; h.num_items()];
    for (v, &j) in active.iter().enumerate() {
        var_of_item[j] = v;
    }
    let (n_y, m) = (active.len(), h.num_edges());
    let rows = h
        .edges()
        .iter()
        .enumerate()
        .map(|(ei, e)| {
            let mut coeffs: Vec<(usize, f64)> =
                e.items.iter().map(|j| (var_of_item[j], 1.0)).collect();
            coeffs.push((n_y + ei, 1.0));
            (coeffs, ConstraintOp::Ge, e.valuation)
        })
        .collect();
    let max_degree = h.max_degree().max(1) as f64;
    let mut objectives = Vec::new();
    let mut k = 1.0f64;
    loop {
        let mut c = vec![1.0; n_y + m];
        c[..n_y].fill(k.min(max_degree));
        objectives.push(c);
        if k >= max_degree {
            break;
        }
        k *= 1.5;
    }
    let rows = Rows {
        n: n_y + m,
        rows,
        sense: Sense::Minimize,
        budget: None,
    };
    (rows, objectives)
}

/// LPIP's LP for one threshold: maximize the collected item weights subject
/// to every edge valued at least `threshold` staying affordable.
fn lpip_lp(h: &Hypergraph, threshold: f64) -> LpProblem {
    let mut p = LpProblem::new(Sense::Maximize, h.num_items());
    for e in h.edges().iter().filter(|e| e.valuation >= threshold) {
        for j in e.items.iter() {
            p.add_objective(j, 1.0);
        }
        if !e.items.is_empty() {
            p.add_constraint(
                e.items.iter().map(|j| (j, 1.0)),
                ConstraintOp::Le,
                e.valuation,
            );
        }
    }
    p
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
