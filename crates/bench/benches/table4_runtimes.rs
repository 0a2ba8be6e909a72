//! Criterion counterpart of Table 4: per-algorithm running time on a small
//! skewed-workload hypergraph (Uniform[1,100] valuations), with the roster
//! drawn from the `qp_pricing::algorithms` registry.
//!
//! Every iteration runs on a fresh clone of the hypergraph: the graph
//! memoizes LPIP and CIP outcomes (and XOS composes them), so repeated runs
//! on one graph would time memo hits instead of LP solves. A clone starts
//! with an empty memo, and `iter_batched` keeps the clone out of the timing.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use qp_bench::{build_instance_with_support, AlgoConfig, WorkloadKind};
use qp_workloads::valuations::{assign_valuations, ValuationModel};
use qp_workloads::Scale;

fn bench_algorithms(c: &mut Criterion) {
    let inst = build_instance_with_support(WorkloadKind::Skewed, Scale::Test, 120);
    let mut h = inst.hypergraph.clone();
    assign_valuations(&mut h, &ValuationModel::SampledUniform { k: 100.0 }, 7);
    let cfg = AlgoConfig::at_scale(Scale::Test);

    let mut group = c.benchmark_group("table4_skewed_workload");
    group.sample_size(10);
    for algo in cfg.algorithms() {
        group.bench_function(algo.name().to_string(), |b| {
            b.iter_batched(|| h.clone(), |h| algo.run(&h), BatchSize::LargeInput)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
