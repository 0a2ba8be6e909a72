//! # qp-bench — the experiment harness
//!
//! Shared plumbing for the binaries under `src/bin/`, each of which
//! regenerates one table or figure of the paper (see `EXPERIMENTS.md` at the
//! workspace root for the full index). The harness builds *workload
//! instances* — dataset + query workload + support set + conflict-set
//! hypergraph — and runs every pricing algorithm on them, reporting revenue
//! normalized by the two upper bounds exactly as the paper's figures do.
//!
//! All experiments accept a `--scale {test|quick|full}` argument; the default
//! (`test`) runs each figure in seconds on a laptop at reduced dataset /
//! support sizes, `quick` approaches the paper's workload sizes, and `full`
//! is the largest configuration that is still practical without the paper's
//! multi-hour budget.

pub mod figures;

use std::time::{Duration, Instant};

use qp_market::{build_hypergraph, ParallelConflictEngine, SupportConfig, SupportSet};
use qp_pricing::algorithms::{
    self, refine_uniform_bundle_price, uniform_bundle_price, CipConfig, LpipConfig,
    PricingAlgorithm,
};
use qp_pricing::{bounds, revenue, Hypergraph};
use qp_qdb::Database;
use qp_workloads::queries::{skewed, uniform, Workload};
use qp_workloads::valuations::{assign_valuations, ValuationModel};
use qp_workloads::world::WorldConfig;
use qp_workloads::{ssb, tpch, world, Scale};

/// The four query workloads of the paper (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// 986-query skewed workload over the world dataset.
    Skewed,
    /// ~1000-query equal-selectivity workload over the world dataset.
    Uniform,
    /// 701-query SSB workload.
    Ssb,
    /// 220-query TPC-H workload.
    Tpch,
}

impl WorkloadKind {
    /// All four workloads in the paper's presentation order.
    pub fn all() -> [WorkloadKind; 4] {
        [
            WorkloadKind::Skewed,
            WorkloadKind::Uniform,
            WorkloadKind::Ssb,
            WorkloadKind::Tpch,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Skewed => "skewed",
            WorkloadKind::Uniform => "uniform",
            WorkloadKind::Ssb => "SSB",
            WorkloadKind::Tpch => "TPC-H",
        }
    }

    /// Parses a workload name as used on experiment command lines
    /// (`skewed`, `uniform`, `ssb`, `tpch`; case-insensitive).
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        match name.to_ascii_lowercase().as_str() {
            "skewed" => Some(WorkloadKind::Skewed),
            "uniform" => Some(WorkloadKind::Uniform),
            "ssb" => Some(WorkloadKind::Ssb),
            "tpch" | "tpc-h" => Some(WorkloadKind::Tpch),
            _ => None,
        }
    }
}

/// Parses `--scale {test|quick|full}` from the process arguments
/// (defaulting to `test` so every binary finishes in seconds). An unknown
/// value exits with status 2 and lists the valid ones.
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    let Some(v) = arg_value(&args, "--scale") else {
        return Scale::Test;
    };
    parse_scale(&v).unwrap_or_else(|| {
        eprintln!("unknown --scale value {v:?}; valid values: test, quick, full");
        std::process::exit(2);
    })
}

/// Looks up a `--flag value` or `--flag=value` argument, shared by the
/// artifact binaries (`bench_conflict`, `sim_scenarios`, …).
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    for i in 0..args.len() {
        if args[i] == flag {
            return args.get(i + 1).cloned();
        }
        if let Some(v) = args[i].strip_prefix(&format!("{flag}=")) {
            return Some(v.to_string());
        }
    }
    None
}

fn parse_scale(v: &str) -> Option<Scale> {
    match v {
        "test" => Some(Scale::Test),
        "quick" => Some(Scale::Quick),
        "full" => Some(Scale::Full),
        _ => None,
    }
}

/// A fully-built experiment instance.
pub struct WorkloadInstance {
    /// Which workload this is.
    pub kind: WorkloadKind,
    /// The seller's database.
    pub db: Database,
    /// The sampled support set.
    pub support: SupportSet,
    /// The buyer queries.
    pub workload: Workload,
    /// The conflict-set hypergraph (valuations initially 0).
    pub hypergraph: Hypergraph,
    /// Wall-clock time spent computing conflict sets (the "hypergraph
    /// construction time" of Tables 4–5).
    pub construction_time: Duration,
}

/// Support-set size used per workload at a given scale.
pub fn support_size(kind: WorkloadKind, scale: Scale) -> usize {
    let base = match kind {
        WorkloadKind::Skewed | WorkloadKind::Uniform => 1.0,
        // The paper uses larger supports for the benchmark datasets; the
        // harness keeps the same ratio but smaller absolute sizes.
        WorkloadKind::Ssb | WorkloadKind::Tpch => 1.0,
    };
    (scale.default_support() as f64 * base) as usize
}

/// Builds a workload instance: dataset, queries, support, conflict sets.
pub fn build_instance(kind: WorkloadKind, scale: Scale) -> WorkloadInstance {
    build_instance_with_support(kind, scale, support_size(kind, scale))
}

/// Generates a workload's dataset and query set at a scale — the common
/// front half of [`build_instance_with_support`], also used directly by
/// binaries (e.g. `sim_scenarios`) that build their own broker instead of a
/// hypergraph.
pub fn dataset_and_queries(kind: WorkloadKind, scale: Scale) -> (Database, Workload) {
    match kind {
        WorkloadKind::Skewed => {
            let cfg = WorldConfig::at_scale(scale);
            let db = world::generate(&cfg);
            let w = skewed::workload(&db, cfg.countries);
            (db, w)
        }
        WorkloadKind::Uniform => {
            let cfg = WorldConfig::at_scale(scale);
            let db = world::generate(&cfg);
            let m = match scale {
                Scale::Test => 150,
                _ => 1000,
            };
            let w = uniform::workload(&db, m);
            (db, w)
        }
        WorkloadKind::Ssb => {
            let db = ssb::generate(&ssb::SsbConfig::at_scale(scale));
            (db, ssb::workload())
        }
        WorkloadKind::Tpch => {
            let db = tpch::generate(&tpch::TpchConfig::at_scale(scale));
            (db, tpch::workload())
        }
    }
}

/// Builds a workload instance with an explicit support-set size.
pub fn build_instance_with_support(
    kind: WorkloadKind,
    scale: Scale,
    support: usize,
) -> WorkloadInstance {
    let (db, workload) = dataset_and_queries(kind, scale);

    let support = SupportSet::generate(&db, &SupportConfig::with_size(support));
    let start = Instant::now();
    // Conflict sets fan out across the parallel engine's workers.
    let engine = ParallelConflictEngine::new(&db, &support);
    let hypergraph = build_hypergraph(&engine, &workload.queries);
    let construction_time = start.elapsed();

    WorkloadInstance {
        kind,
        db,
        support,
        workload,
        hypergraph,
        construction_time,
    }
}

/// Re-computes the hypergraph for a truncated support (Figure 8, Tables 5–6).
pub fn hypergraph_for_support(
    inst: &WorkloadInstance,
    support_size: usize,
) -> (Hypergraph, Duration) {
    let support = inst.support.truncate(support_size);
    let start = Instant::now();
    let engine = ParallelConflictEngine::new(&inst.db, &support);
    let h = build_hypergraph(&engine, &inst.workload.queries);
    (h, start.elapsed())
}

/// The result of running one algorithm on one configured hypergraph.
#[derive(Debug, Clone)]
pub struct AlgorithmRun {
    /// Algorithm name as registered in [`qp_pricing::algorithms`] (the
    /// paper's legend names).
    pub name: String,
    /// Absolute revenue.
    pub revenue: f64,
    /// Revenue normalized by Σ valuations.
    pub normalized: f64,
    /// Wall-clock running time of the pricing algorithm alone.
    pub time: Duration,
}

/// Algorithm-tuning knobs used by the harness, chosen per scale so that the
/// full figure suite completes quickly (the paper makes the same trade-off by
/// raising CIP's ε and capping its running time).
pub struct AlgoConfig {
    /// LPIP configuration.
    pub lpip: LpipConfig,
    /// CIP configuration.
    pub cip: CipConfig,
}

impl AlgoConfig {
    /// Harness defaults for a given scale.
    pub fn at_scale(scale: Scale) -> AlgoConfig {
        let (max_lps, epsilon) = match scale {
            // The test-scale LPs are tiny (hundreds of rows), so LPIP can
            // afford one LP per distinct valuation exactly as in the paper.
            Scale::Test => (None, 1.5),
            Scale::Quick => (Some(60), 2.0),
            Scale::Full => (Some(120), 1.0),
        };
        AlgoConfig {
            lpip: LpipConfig {
                max_lps,
                max_lp_iterations: 200_000,
            },
            cip: CipConfig {
                epsilon,
                max_lp_iterations: 200_000,
            },
        }
    }

    /// The paper's six-algorithm roster from the registry, tuned with this
    /// config (the roster every experiment binary iterates).
    pub fn algorithms(&self) -> Vec<Box<dyn PricingAlgorithm>> {
        algorithms::all_with(&self.lpip, &self.cip)
    }
}

/// Runs the registry's six paper algorithms (plus the sum-of-valuations and
/// subadditive bounds) on a hypergraph whose valuations are already set.
///
/// As in the paper's setup, XOS reuses the LPIP and CIP price vectors already
/// computed in the same run instead of solving both LPs again — the
/// hypergraph memoizes them — so its reported time is the cost of composing
/// and evaluating the max, not a second LPIP + CIP solve.
pub fn run_all_algorithms(h: &Hypergraph, cfg: &AlgoConfig) -> (Vec<AlgorithmRun>, f64, f64) {
    let sum = bounds::sum_of_valuations(h);
    let subadd = bounds::subadditive_bound(h, &Default::default());

    let mut runs = Vec::new();
    for algo in cfg.algorithms() {
        let start = Instant::now();
        let out = algo.run(h);
        let time = start.elapsed();
        runs.push(AlgorithmRun {
            name: algo.name().to_string(),
            revenue: out.revenue,
            normalized: if sum > 0.0 { out.revenue / sum } else { 0.0 },
            time,
        });
    }

    (runs, sum, subadd)
}

/// Convenience: sets valuations, runs all algorithms, and returns the rows.
pub fn run_with_model(
    h: &Hypergraph,
    model: &ValuationModel,
    seed: u64,
    cfg: &AlgoConfig,
) -> (Vec<AlgorithmRun>, f64, f64) {
    let mut h = h.clone();
    assign_valuations(&mut h, model, seed);
    run_all_algorithms(&h, cfg)
}

/// Prints one figure panel: a header, the subadditive bound, then the
/// normalized revenue of every algorithm (the same series the paper plots).
pub fn print_panel(title: &str, runs: &[AlgorithmRun], sum: f64, subadditive: f64) {
    println!("\n== {title} ==");
    println!("  sum of valuations            : {sum:.2}");
    println!(
        "  subadditive bound (normalized): {:.3}",
        if sum > 0.0 { subadditive / sum } else { 0.0 }
    );
    for r in runs {
        println!(
            "  {:<14} normalized revenue = {:.3}   (revenue {:.2}, {:?})",
            r.name, r.normalized, r.revenue, r.time
        );
    }
}

/// Formats a duration in seconds with two decimals (Tables 4–6 use seconds).
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Also re-export the refinement experiment helper for the `ubp_refinement`
/// binary.
pub fn ubp_and_refinement(h: &Hypergraph) -> (f64, f64, f64) {
    let sum = bounds::sum_of_valuations(h);
    let ubp = uniform_bundle_price(h);
    let refined = refine_uniform_bundle_price(h);
    let _ = revenue::revenue(h, &refined.pricing);
    (
        if sum > 0.0 { ubp.revenue / sum } else { 0.0 },
        if sum > 0.0 {
            refined.revenue / sum
        } else {
            0.0
        },
        sum,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_tiny_instance_and_runs_everything() {
        let inst = build_instance_with_support(WorkloadKind::Skewed, Scale::Test, 60);
        assert_eq!(inst.hypergraph.num_edges(), inst.workload.len());
        assert_eq!(inst.hypergraph.num_items(), inst.support.len());

        let cfg = AlgoConfig::at_scale(Scale::Test);
        let (runs, sum, subadd) = run_with_model(
            &inst.hypergraph,
            &ValuationModel::SampledUniform { k: 100.0 },
            1,
            &cfg,
        );
        assert_eq!(runs.len(), 6);
        assert!(sum > 0.0);
        assert!(subadd <= sum + 1e-6);
        for r in &runs {
            assert!(
                r.normalized >= 0.0 && r.normalized <= 1.0 + 1e-9,
                "{}",
                r.name
            );
        }
        // LPIP dominates UIP (paper's consistent observation).
        let lpip = runs.iter().find(|r| r.name == "LPIP").unwrap().revenue;
        let uip = runs.iter().find(|r| r.name == "UIP").unwrap().revenue;
        assert!(lpip + 1e-6 >= uip);
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale("test"), Some(Scale::Test));
        assert_eq!(parse_scale("quick"), Some(Scale::Quick));
        assert_eq!(parse_scale("full"), Some(Scale::Full));
        assert_eq!(parse_scale("quik"), None);
    }

    #[test]
    fn support_truncation_shrinks_the_hypergraph() {
        let inst = build_instance_with_support(WorkloadKind::Uniform, Scale::Test, 80);
        let (h_small, _) = hypergraph_for_support(&inst, 20);
        assert_eq!(h_small.num_items(), 20);
        assert_eq!(h_small.num_edges(), inst.hypergraph.num_edges());
        let avg_small = h_small.stats().avg_edge_size;
        let avg_full = inst.hypergraph.stats().avg_edge_size;
        assert!(avg_small <= avg_full);
    }
}
