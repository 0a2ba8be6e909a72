//! Microbenchmarks of the pricing algorithms on synthetic hypergraphs of
//! increasing size (independent of any dataset), used to track algorithmic
//! regressions.
//!
//! The roster comes from the `qp_pricing::algorithms` registry, so a newly
//! registered algorithm is benchmarked automatically. The LP-based
//! algorithms (LPIP / CIP / XOS) are capped to a few LP solves per run and
//! skipped on the largest instance (a dense-simplex solve at 1600 variables
//! takes minutes — the combinatorial algorithms are what the big sizes are
//! tracking); the cap is part of what is being timed, exactly as in the
//! harness's quick scales.
//!
//! Each `algorithm_scaling` iteration runs on a fresh clone of the
//! hypergraph: the graph memoizes LPIP and CIP outcomes (and XOS composes
//! them), so repeated runs on one graph would time memo hits and hide
//! LP-layer regressions. A clone starts with an empty memo, and
//! `iter_batched` keeps the clone out of the timing.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use qp_pricing::algorithms::{self, CipConfig, LpipConfig};
use qp_pricing::Hypergraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_hypergraph(items: usize, edges: usize, max_size: usize, seed: u64) -> Hypergraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Hypergraph::new(items);
    for _ in 0..edges {
        let size = rng.gen_range(1..=max_size);
        let members: Vec<usize> = (0..size).map(|_| rng.gen_range(0..items)).collect();
        h.add_edge(members, rng.gen_range(1.0..100.0));
    }
    h
}

/// The repeated aggregate-query pattern of the CIP capacity sweep and the
/// harness statistics: `max_degree` / `edges_with_unique_item` / `stats` are
/// asked many times per run on one structure. Before the cached `ItemIndex`
/// every call rescanned all edges (O(n·m)); now only the first call builds
/// the index and the rest are O(1) / O(m) lookups.
fn bench_item_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("hypergraph_index");
    group.sample_size(10);
    for &m in &[400usize, 1600] {
        let h = random_hypergraph(m, m, 12, 99);
        group.bench_with_input(BenchmarkId::new("degree_queries_x32", m), &h, |b, h| {
            b.iter(|| {
                let mut acc = 0usize;
                for _ in 0..32 {
                    acc += h.max_degree();
                    acc += h.edges_with_unique_item().iter().filter(|&&u| u).count();
                }
                acc
            })
        });
    }
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    let lpip = LpipConfig {
        max_lps: Some(4),
        max_lp_iterations: 50_000,
    };
    let cip = CipConfig {
        epsilon: 4.0,
        max_lp_iterations: 50_000,
    };
    let mut group = c.benchmark_group("algorithm_scaling");
    group.sample_size(10);
    const LP_BASED: [&str; 3] = ["LPIP", "CIP", "XOS"];
    const LP_SIZE_CAP: usize = 400;
    for &m in &[100usize, 400, 1600] {
        let h = random_hypergraph(m, m, 12, 99);
        for algo in algorithms::all_with(&lpip, &cip) {
            if m > LP_SIZE_CAP && LP_BASED.contains(&algo.name()) {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(algo.name(), m), &h, |b, h| {
                b.iter_batched(|| h.clone(), |h| algo.run(&h), BatchSize::LargeInput)
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scaling, bench_item_index);
criterion_main!(benches);
