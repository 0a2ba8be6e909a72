//! Ablation: naive vs delta-aware conflict-set computation.
//!
//! The paper's Qirana substrate makes conflict-set computation tractable by
//! exploiting the single-tuple structure of support databases; this binary
//! quantifies how much that matters in our reimplementation by timing both
//! engines on the same workload and verifying they agree. It then times the
//! serial delta-aware engine per query shape over the full skewed workload
//! at |S| = 1000 (the README's per-shape table).
//!
//! ```text
//! cargo run --release -p qp-bench --bin ablation_conflict_eval -- --scale test
//! ```

use std::time::{Duration, Instant};

use qp_bench::{scale_from_args, WorkloadKind};
use qp_market::{
    build_hypergraph, ConflictEngine, DeltaConflictEngine, NaiveConflictEngine, SupportConfig,
    SupportSet,
};
use qp_qdb::{Database, Query};
use qp_workloads::queries::skewed;
use qp_workloads::world::{self, WorldConfig};

/// Support-set size of the per-shape table (catalog-skewed's |S|).
const SHAPE_SUPPORT: usize = 1000;
/// Each query's time in the per-shape table is its best of this many runs.
const SHAPE_RUNS: usize = 3;

/// Per-shape table rows, in print order.
const SHAPES: [&str; 6] = [
    "Filter over join",
    "Other joins",
    "Single-table chains",
    "Aggregates",
    "`DISTINCT`",
    "`LIMIT` (naive fallback)",
];

fn main() {
    let scale = scale_from_args();
    println!("Ablation: conflict-set computation, naive vs delta-aware (scale: {scale:?})");

    let cfg = WorldConfig::at_scale(scale);
    let db = world::generate(&cfg);
    let workload = skewed::workload(&db, cfg.countries);
    // Keep the naive pass tractable: cap the number of queries at test scale.
    let queries = &workload.queries[..workload.queries.len().min(200)];
    let support = SupportSet::generate(&db, &SupportConfig::with_size(scale.default_support() / 3));

    let naive = NaiveConflictEngine::new(&db, &support);
    let fast = DeltaConflictEngine::new(&db, &support);

    let start = Instant::now();
    let h_fast = build_hypergraph(&fast, queries);
    let fast_time = start.elapsed();

    let start = Instant::now();
    let h_naive = build_hypergraph(&naive, queries);
    let naive_time = start.elapsed();

    let agree = (0..h_fast.num_edges()).all(|i| h_fast.edge(i).items == h_naive.edge(i).items);
    println!(
        "{} queries ({}) x support {}:",
        queries.len(),
        WorkloadKind::Skewed.name(),
        support.len()
    );
    println!("  naive engine      : {:?}", naive_time);
    println!("  delta-aware engine: {:?}", fast_time);
    println!(
        "  speedup           : {:.2}x   (identical conflict sets: {agree})",
        naive_time.as_secs_f64() / fast_time.as_secs_f64().max(1e-9)
    );
    assert!(agree, "conflict engines disagree");

    shape_table(&db, &workload.queries);
}

/// Prints serial delta-aware time per query shape as a Markdown table.
fn shape_table(db: &Database, queries: &[Query]) {
    let support = SupportSet::generate(db, &SupportConfig::with_size(SHAPE_SUPPORT));
    let engine = DeltaConflictEngine::new(db, &support);
    let mut count = [0usize; SHAPES.len()];
    let mut time = [Duration::ZERO; SHAPES.len()];
    for q in queries {
        let best = (0..SHAPE_RUNS)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(engine.conflict_set(q));
                start.elapsed()
            })
            .min()
            .unwrap_or_default();
        let s = shape(q);
        count[s] += 1;
        time[s] += best;
    }
    println!(
        "\nSerial delta-aware time by query shape, {} {} queries x support {} (best of {SHAPE_RUNS} per query):\n",
        queries.len(),
        WorkloadKind::Skewed.name(),
        support.len()
    );
    println!("| Shape | Queries | Time |\n|---|---:|---:|");
    for (i, name) in SHAPES.iter().enumerate() {
        println!("| {name} | {} | {} |", count[i], ms(time[i]));
    }
    let total: Duration = time.iter().sum();
    println!("| Total | {} | {} |", queries.len(), ms(total));
}

/// Index into [`SHAPES`] of `q`'s shape: its root operator if that is a
/// `LIMIT`, an aggregate or a `DISTINCT`, and otherwise whether it joins.
fn shape(q: &Query) -> usize {
    match q {
        Query::Limit { .. } => 5,
        Query::Aggregate { .. } => 3,
        Query::Distinct { .. } => 4,
        q if filters_a_join(q) => 0,
        q if !q.is_single_table() => 1,
        _ => 2,
    }
}

/// True when some filter in `q` sits directly on a join.
fn filters_a_join(q: &Query) -> bool {
    match q {
        Query::Scan { .. } => false,
        Query::Filter { input, .. } if matches!(**input, Query::Join { .. }) => true,
        Query::Filter { input, .. }
        | Query::Project { input, .. }
        | Query::Aggregate { input, .. }
        | Query::Distinct { input }
        | Query::Limit { input, .. } => filters_a_join(input),
        Query::Join { left, right, .. } => filters_a_join(left) || filters_a_join(right),
    }
}

/// A duration in milliseconds, with two significant decimals below 10 ms.
fn ms(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms < 10.0 {
        format!("{ms:.2} ms")
    } else {
        format!("{ms:.0} ms")
    }
}
