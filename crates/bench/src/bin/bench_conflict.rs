//! Conflict-engine scaling benchmark artifact.
//!
//! Measures wall-clock hypergraph construction (one conflict set per query)
//! with the serial `DeltaConflictEngine` and the `ParallelConflictEngine`
//! at increasing support sizes, verifies the two engines produce identical
//! conflict sets, and writes the trajectory to `BENCH_conflict.json`:
//!
//! ```bash
//! cargo run --release -p qp-bench --bin bench_conflict
//! cargo run --release -p qp-bench --bin bench_conflict -- \
//!     --sizes 1000,5000,10000 --queries 40 --out BENCH_conflict.json
//! ```
//!
//! The recorded `threads` field is `qp_core::parallel::available_workers()` at
//! the time of the run — parallel speedups only materialize on multi-core
//! hardware, and the artifact makes the machine shape part of the record.

use std::time::Instant;

use qp_bench::arg_value;
use qp_market::{
    ConflictEngine, DeltaConflictEngine, ParallelConflictEngine, SupportConfig, SupportSet,
};
use qp_workloads::queries::skewed;
use qp_workloads::world::{self, WorldConfig};
use qp_workloads::Scale;

struct Row {
    support: usize,
    serial_ms: f64,
    parallel_ms: f64,
    forced_4t_ms: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sizes: Vec<usize> = arg_value(&args, "--sizes")
        .map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .unwrap_or_else(|| vec![1000, 5000, 10_000]);
    let num_queries: usize = arg_value(&args, "--queries")
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_conflict.json".to_string());

    let cfg = WorldConfig::at_scale(Scale::Test);
    let db = world::generate(&cfg);
    let workload = skewed::workload(&db, cfg.countries);
    let queries = &workload.queries[..num_queries.min(workload.queries.len())];
    let max_support = sizes.iter().copied().max().unwrap_or(1000);
    let support = SupportSet::generate(&db, &SupportConfig::with_size(max_support));
    let threads = qp_core::parallel::available_workers();

    println!(
        "conflict-engine scaling: {} queries, {threads} hardware threads",
        queries.len()
    );
    let mut rows = Vec::new();
    for &n in &sizes {
        let s = support.truncate(n);

        let serial = DeltaConflictEngine::new(&db, &s);
        let start = Instant::now();
        let serial_sets = serial.conflict_sets(queries);
        let serial_ms = start.elapsed().as_secs_f64() * 1e3;

        let parallel = ParallelConflictEngine::new(&db, &s);
        let start = Instant::now();
        let parallel_sets = parallel.conflict_sets(queries);
        let parallel_ms = start.elapsed().as_secs_f64() * 1e3;

        // Forced 4 workers regardless of core count (bypassing the engine's
        // hardware clamp): on single-core hardware this measures threading
        // overhead, on ≥4 cores it is the speedup.
        let forced = ParallelConflictEngine::with_threads_forced(&db, &s, 4);
        let start = Instant::now();
        let forced_sets = forced.conflict_sets(queries);
        let forced_4t_ms = start.elapsed().as_secs_f64() * 1e3;

        assert_eq!(
            serial_sets, parallel_sets,
            "engines diverged at support {n}"
        );
        assert_eq!(
            serial_sets, forced_sets,
            "forced-thread engine diverged at support {n}"
        );
        println!(
            "  support {n:>6}: serial {serial_ms:>9.1} ms   parallel {parallel_ms:>9.1} ms   4-thread {forced_4t_ms:>9.1} ms   speedup {:.2}x",
            serial_ms / parallel_ms
        );
        rows.push(Row {
            support: s.len(),
            serial_ms,
            parallel_ms,
            forced_4t_ms,
        });
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"conflict_engine_scaling\",\n");
    json.push_str("  \"workload\": \"skewed (world dataset, test scale)\",\n");
    json.push_str(&format!("  \"queries\": {},\n", queries.len()));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"support\": {}, \"serial_ms\": {:.1}, \"parallel_ms\": {:.1}, \"parallel_4threads_ms\": {:.1}, \"speedup\": {:.3}}}{}\n",
            r.support,
            r.serial_ms,
            r.parallel_ms,
            r.forced_4t_ms,
            r.serial_ms / r.parallel_ms,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("writing the benchmark artifact");
    println!("wrote {out_path}");
}
