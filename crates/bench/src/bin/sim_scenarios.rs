//! Market-simulator benchmark artifact.
//!
//! Runs the `qp-sim` scenario library (`steady_state`, `flash_crowd`,
//! `shifting_demand`, `arbitrage_probe`) over at least two of the paper's
//! query workloads, each against a freshly-built live broker, and writes the
//! per-scenario metrics — revenue over time, conversion rate, quotes/sec,
//! repricing latency — to `BENCH_sim.json`:
//!
//! ```bash
//! cargo run --release -p qp-bench --bin sim_scenarios
//! cargo run --release -p qp-bench --bin sim_scenarios -- \
//!     --workloads skewed,uniform --seed 42 --ticks 40 --out BENCH_sim.json
//! cargo run --release -p qp-bench --bin sim_scenarios -- --smoke   # CI-sized
//! ```
//!
//! Every run re-executes the first scenario on a second identically-built
//! broker and asserts bit-identical total revenue — the simulator's
//! same-seed determinism guarantee is checked on every artifact, the same
//! way `bench_conflict` asserts engine equivalence.

use std::time::Instant;

use qp_bench::{arg_value, dataset_and_queries, WorkloadKind};
use qp_market::{Broker, SupportConfig};
use qp_qdb::{Database, Query};
use qp_sim::{bench_json, library, SimConfig, SimReport};
use qp_workloads::Scale;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Sizing {
    /// Support-set size behind every broker.
    support: usize,
    /// Cap on the per-workload query pool.
    pool: usize,
    /// Simulation horizon per scenario.
    ticks: u64,
}

/// Builds a fresh, deterministically-priced broker for a query pool:
/// seeded support, seeded anticipated valuations, registry algorithm.
fn build_broker(
    db: &Database,
    pool: &[Query],
    sizing: &Sizing,
    algorithm: &str,
    seed: u64,
) -> Broker {
    let mut rng = StdRng::seed_from_u64(seed);
    Broker::builder(db.clone())
        .support_config(SupportConfig::with_size(sizing.support))
        .algorithm(algorithm)
        .anticipate_all(pool.iter().map(|q| (q.clone(), rng.gen_range(1.0..=50.0))))
        .build()
        .unwrap_or_else(|e| panic!("broker build failed: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let workload_names: Vec<String> = arg_value(&args, "--workloads")
        .unwrap_or_else(|| "skewed,uniform".to_string())
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let algorithm = arg_value(&args, "--algorithm").unwrap_or_else(|| "UIP".to_string());
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_sim.json".to_string());
    let sizing = if smoke {
        Sizing {
            support: 80,
            pool: 60,
            ticks: 12,
        }
    } else {
        Sizing {
            support: 150,
            pool: 160,
            ticks: 40,
        }
    };
    let ticks = arg_value(&args, "--ticks")
        .and_then(|s| s.parse().ok())
        .unwrap_or(sizing.ticks);
    let sizing = Sizing { ticks, ..sizing };
    let threads = qp_core::parallel::available_workers();

    println!(
        "sim_scenarios: {} workloads, seed {seed}, {} ticks, {threads} hardware threads{}",
        workload_names.len(),
        sizing.ticks,
        if smoke { " (smoke)" } else { "" }
    );

    let cfg = SimConfig {
        seed,
        algorithm: algorithm.clone(),
        ..SimConfig::default()
    };
    let mut runs: Vec<SimReport> = Vec::new();
    for name in &workload_names {
        let kind = WorkloadKind::parse(name).unwrap_or_else(|| {
            panic!("unknown workload {name:?} (expected skewed, uniform, ssb, or tpch)")
        });
        let started = Instant::now();
        let (db, workload) = dataset_and_queries(kind, Scale::Test);
        let mut pool: Vec<Query> = workload.queries;
        pool.truncate(sizing.pool);
        println!(
            "  {name}: {} queries, support {}, built in {:.1}s",
            pool.len(),
            sizing.support,
            started.elapsed().as_secs_f64()
        );

        for scenario in library(&pool, sizing.ticks) {
            // A fresh broker per scenario: runs are independent, and the
            // ledger/pricing state of one scenario never leaks into another.
            let broker = build_broker(&db, &pool, &sizing, &algorithm, seed);
            let mut report = scenario.run(&broker, &cfg);
            report.workload = name.clone();
            println!("    {}", report.summary());
            runs.push(report);
        }

        // Same-seed determinism self-check: rebuild and re-run the first
        // scenario; total revenue must be bit-identical.
        let scenario = library(&pool, sizing.ticks)
            .into_iter()
            .next()
            .expect("library is non-empty");
        let broker = build_broker(&db, &pool, &sizing, &algorithm, seed);
        let again = scenario.run(&broker, &cfg);
        let first = runs
            .iter()
            .find(|r| r.workload == *name && r.scenario == scenario.name)
            .expect("the scenario just ran");
        assert_eq!(
            first.total_revenue().to_bits(),
            again.total_revenue().to_bits(),
            "same-seed reruns of {}/{} diverged",
            name,
            scenario.name
        );
    }

    let json = bench_json(seed, threads, &runs);
    std::fs::write(&out_path, json).expect("writing the benchmark artifact");
    println!(
        "wrote {out_path}: {} runs ({} scenarios x {} workloads), determinism check passed",
        runs.len(),
        runs.len() / workload_names.len(),
        workload_names.len()
    );
}
