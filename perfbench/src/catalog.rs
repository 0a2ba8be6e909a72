//! The paper's catalog pipeline: database, queries and valuations in,
//! priced output for all six registry algorithms out.
//!
//! One pipeline is support generation, conflict sets through
//! `ParallelConflictEngine`, the hypergraph build, and every `algo.run`.
//! Untraced runs repeat the whole pipeline for the run's duration and time
//! it end to end; the traced run times each public call serially.

use std::hint::black_box;
use std::time::{Duration, Instant};

use qp_market::{
    ConflictEngine, DeltaConflictEngine, NaiveConflictEngine, ParallelConflictEngine,
    SupportConfig, SupportSet,
};
use qp_pricing::algorithms::{self, PAPER_ALGORITHMS};
use qp_pricing::{revenue, Hypergraph, ItemSet, PricingOutcome};
use qp_qdb::{Database, Query};
use qp_workloads::queries::{skewed, uniform};
use qp_workloads::world::{self, WorldConfig};
use qp_workloads::Scale;

use crate::procfs;
use crate::report::Report;
use crate::schedule::Rng;
use crate::stats;

/// Conflict sets checked against `NaiveConflictEngine` per run.
const NAIVE_SAMPLE: usize = 6;

/// Which database and query family a catalog workload prices.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// World at test scale, the 338 skewed selection, projection and
    /// aggregate chains.
    Skewed,
    /// World at quick scale, `n` equal-selectivity windows over `City`.
    Uniform(usize),
}

#[derive(Debug, Clone, Copy)]
pub struct CatalogSpec {
    pub family: Family,
    /// Support-set size |S|.
    pub support: usize,
}

/// The generated inputs of one catalog.
pub struct Catalog {
    pub db: Database,
    pub queries: Vec<Query>,
    pub valuations: Vec<f64>,
}

impl Catalog {
    /// Generates the database, the queries, and seeded valuations drawn
    /// uniformly from `[1, max_valuation)`.
    pub fn generate(family: Family, seed: u64, max_valuation: f64) -> Catalog {
        let (db, queries) = match family {
            Family::Skewed => {
                let cfg = WorldConfig::at_scale(Scale::Test);
                let db = world::generate(&cfg);
                let queries = skewed::workload(&db, cfg.countries).queries;
                (db, queries)
            }
            Family::Uniform(n) => {
                let db = world::generate(&WorldConfig::at_scale(Scale::Quick));
                let queries = uniform::workload(&db, n).queries;
                (db, queries)
            }
        };
        let mut rng = Rng::new(seed);
        let valuations = queries
            .iter()
            .map(|_| rng.range(1.0, max_valuation))
            .collect();
        Catalog {
            db,
            queries,
            valuations,
        }
    }

    fn hypergraph(&self, support_len: usize, sets: Vec<ItemSet>) -> Hypergraph {
        let mut h = Hypergraph::new(support_len);
        for (set, &v) in sets.into_iter().zip(&self.valuations) {
            h.add_edge_set(set, v);
        }
        black_box(h.item_index());
        h
    }
}

/// One timed pipeline's output.
struct Priced {
    elapsed: Duration,
    hypergraph: Hypergraph,
    outcomes: Vec<PricingOutcome>,
}

fn pipeline(cat: &Catalog, support: usize) -> (Priced, SupportSet) {
    let t = Instant::now();
    let support = SupportSet::generate(&cat.db, &SupportConfig::with_size(support));
    let sets = ParallelConflictEngine::new(&cat.db, &support).conflict_sets(&cat.queries);
    let hypergraph = cat.hypergraph(support.len(), sets);
    let outcomes: Vec<PricingOutcome> = algorithms::all()
        .iter()
        .map(|a| a.run(&hypergraph))
        .collect();
    let elapsed = t.elapsed();
    (
        Priced {
            elapsed,
            hypergraph,
            outcomes,
        },
        support,
    )
}

/// Revenue oracle: every outcome's revenue equals `revenue::revenue` of
/// its own pricing on the hypergraph it was computed for. Returns the
/// number of mismatches.
fn revenue_mismatches(priced: &Priced) -> u64 {
    priced
        .outcomes
        .iter()
        .filter(|o| {
            revenue::revenue(&priced.hypergraph, &o.pricing).to_bits() != o.revenue.to_bits()
        })
        .count() as u64
}

/// Conflict-set oracle: a seeded sample of queries must get the same
/// conflict set from the naive engine as from the engine under test.
fn naive_mismatches(
    cat: &Catalog,
    support: &SupportSet,
    sets: &[ItemSet],
    seed: u64,
    report: &mut Report,
) -> u64 {
    let naive = NaiveConflictEngine::new(&cat.db, support);
    let mut rng = Rng::new(seed ^ 0x00C0_FFEE);
    let mut bad = 0;
    for _ in 0..NAIVE_SAMPLE.min(cat.queries.len()) {
        let i = rng.below(cat.queries.len());
        report.attempted += 1;
        if naive.conflict_set(&cat.queries[i]) != sets[i] {
            bad += 1;
        }
    }
    bad
}

/// Untraced catalog run: set-up repeated for its median, then whole
/// pipelines back to back until `seconds` have passed.
pub fn run(spec: &CatalogSpec, seed: u64, seconds: f64, report: &mut Report) {
    // Set-up takes under a millisecond here, so many repeats are cheap and
    // steady its median.
    const SETUP_REPEATS: usize = 101;
    let mut setup_s = Vec::new();
    let mut cat = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let c = Catalog::generate(spec.family, seed, 100.0);
        setup_s.push(t.elapsed().as_secs_f64());
        cat = Some(c);
    }
    let cat = cat.expect("at least one set-up");
    let total_valuation: f64 = cat.valuations.iter().sum();

    let window = Instant::now();
    let mut times_s = Vec::new();
    let mut first_revenues: Option<Vec<u64>> = None;
    let mut last = None;
    while times_s.is_empty() || window.elapsed().as_secs_f64() < seconds {
        let (priced, support) = pipeline(&cat, spec.support);
        times_s.push(priced.elapsed.as_secs_f64());
        report.attempted += (cat.queries.len() + priced.outcomes.len()) as u64;
        report.failed += revenue_mismatches(&priced);
        // Same inputs, same pricing: revenue repeats bit for bit.
        let bits: Vec<u64> = priced
            .outcomes
            .iter()
            .map(|o| o.revenue.to_bits())
            .collect();
        match &first_revenues {
            None => first_revenues = Some(bits),
            Some(first) if *first != bits => report.failed += 1,
            Some(_) => {}
        }
        last = Some((priced, support));
    }
    let window_s = window.elapsed().as_secs_f64();
    let peak_rss_mb = procfs::peak_rss_mb();
    let (priced, support) = last.expect("at least one pipeline");
    let sets: Vec<ItemSet> = priced
        .hypergraph
        .edges()
        .iter()
        .map(|e| e.items.clone())
        .collect();
    let bad = naive_mismatches(&cat, &support, &sets, seed, report);
    report.failed += bad;

    report.e2e("setup_s", stats::median(&setup_s), "s");
    report.e2e("peak_rss_mb", peak_rss_mb, "MB");
    report.e2e("latency_p50_ms", stats::median(&times_s) * 1e3, "ms");
    report.info("pipelines_per_s", times_s.len() as f64 / window_s, "1/s");
    report.info("catalog_s", stats::median(&times_s), "s");
    report.info("catalog_max_s", stats::percentile_of(&times_s, 100.0), "s");
    report.context("pipelines", times_s.len());
    report.context("queries", cat.queries.len());
    report.context("support", spec.support);
    report.context("setup_repeats", SETUP_REPEATS);
    for o in &priced.outcomes {
        report.info(
            &format!("revenue.{}_norm", o.algorithm),
            o.revenue / total_valuation,
            "ratio",
        );
    }
}

/// Where a traced pipeline spent its time, in seconds.
pub struct StageTimes {
    /// Support generation, parallel conflict sets, hypergraph and every
    /// algorithm: the stages of one untraced pipeline.
    pub pipeline_s: f64,
    pub conflict_s: f64,
    /// LPIP, CIP and XOS together.
    pub lp_s: f64,
}

/// Traced catalog stages: each public call of the pipeline timed serially,
/// plus the serial-versus-parallel conflict comparison. Also used by the
/// serve workloads on their own catalog.
pub fn trace(cat: &Catalog, support: usize, seed: u64, report: &mut Report) -> StageTimes {
    let t = Instant::now();
    let support = SupportSet::generate(&cat.db, &SupportConfig::with_size(support));
    let support_s = t.elapsed().as_secs_f64();
    report.layer("support.generate_ms", support_s * 1e3, "ms");

    let serial = DeltaConflictEngine::new(&cat.db, &support);
    let mut per_query_ms = Vec::with_capacity(cat.queries.len());
    let mut serial_sets = Vec::with_capacity(cat.queries.len());
    for q in &cat.queries {
        let t = Instant::now();
        serial_sets.push(serial.conflict_set(q));
        per_query_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let serial_s: f64 = per_query_ms.iter().sum::<f64>() / 1e3;
    let parallel = ParallelConflictEngine::new(&cat.db, &support);
    let t = Instant::now();
    let sets = parallel.conflict_sets(&cat.queries);
    let parallel_s = t.elapsed().as_secs_f64();
    report.attempted += 2 * cat.queries.len() as u64;
    report.failed += sets
        .iter()
        .zip(&serial_sets)
        .filter(|(a, b)| a != b)
        .count() as u64;
    let bad = naive_mismatches(cat, &support, &sets, seed, report);
    report.failed += bad;
    let sorted = stats::sorted(&per_query_ms);
    report.layer(
        "conflict.query_p50_ms",
        stats::percentile(&sorted, 50.0),
        "ms",
    );
    report.layer(
        "conflict.query_p99_ms",
        stats::percentile(&sorted, 99.0),
        "ms",
    );
    report.layer("conflict.serial_s", serial_s, "s");
    report.layer("conflict.parallel_s", parallel_s, "s");
    report.layer(
        "conflict.parallel_efficiency",
        serial_s / (parallel.threads() as f64 * parallel_s),
        "ratio",
    );

    let t = Instant::now();
    let h = cat.hypergraph(support.len(), sets);
    let hypergraph_s = t.elapsed().as_secs_f64();
    report.layer("hypergraph.build_ms", hypergraph_s * 1e3, "ms");
    let mut times = StageTimes {
        pipeline_s: support_s + parallel_s + hypergraph_s,
        conflict_s: parallel_s,
        lp_s: 0.0,
    };

    let total_valuation: f64 = cat.valuations.iter().sum();
    for algo in algorithms::all() {
        let t = Instant::now();
        let outcome = algo.run(&h);
        let s = t.elapsed().as_secs_f64();
        times.pipeline_s += s;
        if matches!(algo.name(), "LPIP" | "CIP" | "XOS") {
            times.lp_s += s;
        }
        report.attempted += 1;
        if revenue::revenue(&h, &outcome.pricing).to_bits() != outcome.revenue.to_bits() {
            report.failed += 1;
        }
        report.layer(&format!("pricing.{}_ms", algo.name()), s * 1e3, "ms");
        report.layer(
            &format!("revenue.{}_norm", algo.name()),
            outcome.revenue / total_valuation,
            "ratio",
        );
    }
    debug_assert_eq!(PAPER_ALGORITHMS.len(), algorithms::all().len());
    times
}

/// Traced catalog run.
/// Reports whether the traced run spent the bulk of the pipeline in the
/// layer the workload is meant to stress. Printed, not gated: a change that
/// speeds that layer up may rightly end its dominance.
pub fn run_traced(spec: &CatalogSpec, seed: u64, report: &mut Report) {
    let cat = Catalog::generate(spec.family, seed, 100.0);
    let times = trace(&cat, spec.support, seed, report);
    report.layer("proc.peak_rss_mb", procfs::peak_rss_mb(), "MB");
    let (layer, s) = match spec.family {
        Family::Skewed => ("conflict sets", times.conflict_s),
        Family::Uniform(_) => ("LPIP + CIP + XOS", times.lp_s),
    };
    let share = s / times.pipeline_s;
    report.context(
        "exercises_layer",
        format!(
            "{layer} take {share:.3} of the pipeline: {}",
            met(share > 0.5)
        ),
    );
}

pub fn met(ok: bool) -> &'static str {
    if ok {
        "met"
    } else {
        "NOT MET"
    }
}
