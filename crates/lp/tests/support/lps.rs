//! Test LPs shared by `differential_simplex.rs` and `qp-lp`'s own kernel
//! tests, which include this file with `#[path]`: random constraint sets
//! and objectives, and the CIP and LPIP LPs of the test-scale world
//! catalogs. `crate` is either `qp_lp` itself or a test crate that imports
//! these names from it.

use crate::{ConstraintOp, LpProblem, Sense};
use proptest::prelude::*;
use qp_market::{build_hypergraph, ParallelConflictEngine, SupportConfig, SupportSet};
use qp_pricing::Hypergraph;
use qp_workloads::queries::{skewed, uniform};
use qp_workloads::world::{self, WorldConfig};
use qp_workloads::Scale;

/// One constraint: sparse coefficients, operator, right-hand side.
pub type Row = (Vec<(usize, f64)>, ConstraintOp, f64);

/// A constraint set over `n` variables.
#[derive(Debug, Clone)]
pub struct Rows {
    pub n: usize,
    pub rows: Vec<Row>,
    pub sense: Sense,
    /// Pivot budget; `None` keeps the default.
    pub budget: Option<usize>,
}

impl Rows {
    pub fn problem(&self, objective: &[f64]) -> LpProblem {
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
pub fn lp_strategy() -> impl Strategy<Value = Rows> {
    (0u32..2, rows_strategy(), covering_strategy())
        .prop_map(|(k, mixed, covering)| if k == 0 { mixed } else { covering })
}

/// A dense non-negative objective over `n` variables, zero (of either
/// sign) about 70 % of the time. The sense of the problem decides the
/// direction.
pub fn objective_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    let c = (0u32..10, 0.1f64..5.0).prop_map(|(k, v)| match k {
        0..=5 => 0.0,
        6 => -0.0,
        7 => 1.0,
        _ => v,
    });
    proptest::collection::vec(c, n)
}

/// The hypergraph of a test-scale world catalog: `support` support
/// databases, seeded valuations in `[1, 100)`.
pub fn catalog(skewed_queries: bool, support: usize) -> Hypergraph {
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
pub fn cip_sweep(h: &Hypergraph) -> (Rows, Vec<Vec<f64>>) {
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
pub fn lpip_lp(h: &Hypergraph, threshold: f64) -> LpProblem {
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
