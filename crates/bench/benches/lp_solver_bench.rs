//! Benchmarks of the simplex solver on LPs shaped like the pricing LPs
//! (packing constraints with a handful of non-zeros per row), and of a
//! CIP-shaped objective sweep (covering constraints, one constraint set,
//! several objectives) solved as one sweep and one LP at a time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qp_lp::{ConstraintOp, LpProblem, Sense, SimplexWorkspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pricing_like_lp(vars: usize, rows: usize, seed: u64) -> LpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lp = LpProblem::new(Sense::Maximize, vars);
    for j in 0..vars {
        lp.set_objective(j, rng.gen_range(0.5..2.0));
    }
    for _ in 0..rows {
        let nnz = rng.gen_range(2..8);
        let coeffs: Vec<(usize, f64)> = (0..nnz).map(|_| (rng.gen_range(0..vars), 1.0)).collect();
        lp.add_constraint(coeffs, ConstraintOp::Le, rng.gen_range(5.0..50.0));
    }
    // Per-variable caps keep the LP bounded even when a variable appears in
    // no packing row (mirrors the valuation caps of the pricing LPs).
    for j in 0..vars {
        lp.add_constraint(vec![(j, 1.0)], ConstraintOp::Le, 100.0);
    }
    lp
}

/// CIP's capacity LPs in miniature: covering rows `Σ_{j∈e} y_j + z_e ≥ v_e`
/// over `items` prices and one `z` per row, minimized under `k·Σy + Σz`
/// for five capacities `k`.
fn cip_like_sweep(items: usize, rows: usize, seed: u64) -> (LpProblem, Vec<Vec<f64>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lp = LpProblem::new(Sense::Minimize, items + rows);
    for e in 0..rows {
        let nnz = rng.gen_range(2..8);
        let mut coeffs: Vec<(usize, f64)> =
            (0..nnz).map(|_| (rng.gen_range(0..items), 1.0)).collect();
        coeffs.push((items + e, 1.0));
        lp.add_constraint(coeffs, ConstraintOp::Ge, rng.gen_range(1.0..100.0));
    }
    let objectives = [1.0, 1.5, 2.25, 3.375, 5.0625]
        .iter()
        .map(|&k| {
            let mut c = vec![1.0; items + rows];
            c[..items].fill(k);
            c
        })
        .collect();
    (lp, objectives)
}

fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex");
    group.sample_size(10);
    for &(vars, rows) in &[(50usize, 40usize), (200, 150), (400, 300)] {
        let lp = pricing_like_lp(vars, rows, 5);
        group.bench_with_input(
            BenchmarkId::new("solve", format!("{vars}v_{rows}c")),
            &lp,
            |b, lp| b.iter(|| lp.solve().unwrap()),
        );
    }
    for &(items, rows) in &[(60usize, 100usize), (120, 200)] {
        let (lp, objectives) = cip_like_sweep(items, rows, 7);
        let id = format!("{items}y_{rows}c_x{}", objectives.len());
        group.bench_with_input(
            BenchmarkId::new("cip_sweep", &id),
            &(&lp, &objectives),
            |b, (lp, objectives)| {
                b.iter(|| {
                    let results = (*lp)
                        .clone()
                        .solve_objectives_with(objectives, &mut SimplexWorkspace::new());
                    assert!(results.iter().all(|r| r.is_ok()));
                    results
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("cip_one_by_one", &id),
            &(&lp, &objectives),
            |b, (lp, objectives)| {
                b.iter(|| {
                    let mut ws = SimplexWorkspace::new();
                    let mut lp = (*lp).clone();
                    objectives
                        .iter()
                        .map(|c| {
                            for (j, &cj) in c.iter().enumerate() {
                                lp.set_objective(j, cj);
                            }
                            lp.solve_with(&mut ws).unwrap().objective
                        })
                        .sum::<f64>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_simplex);
criterion_main!(benches);
