//! Workload-level oracle: on the paper's own query workloads, the delta
//! engine's conflict sets equal the naive engine's, query by query.

use qp_market::{
    ConflictEngine, DeltaConflictEngine, NaiveConflictEngine, SupportConfig, SupportSet,
};
use qp_qdb::{Database, DeltaPlan, Query};
use qp_workloads::queries::skewed;
use qp_workloads::world::{self, WorldConfig};
use qp_workloads::{ssb, tpch, Scale};

const SUPPORT: usize = 150;

fn assert_engines_agree(db: &Database, queries: &[Query]) {
    let support = SupportSet::generate(db, &SupportConfig::with_size(SUPPORT));
    let naive = NaiveConflictEngine::new(db, &support);
    let fast = DeltaConflictEngine::new(db, &support);
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            naive.conflict_set(q),
            fast.conflict_set(q),
            "engines disagree on query {i}: {}",
            qp_qdb::pretty::render_plan(q)
        );
    }
}

/// True when some table the query reads has no delta plan, so the delta
/// engine hands the query to the naive engine.
fn falls_back(q: &Query, db: &Database) -> bool {
    q.tables_referenced()
        .iter()
        .any(|t| !matches!(DeltaPlan::compile(q, db, t), Ok(Some(_))))
}

#[test]
fn every_skewed_query_matches_the_naive_engine() {
    let cfg = WorldConfig::at_scale(Scale::Test);
    let db = world::generate(&cfg);
    assert_engines_agree(&db, &skewed::workload(&db, cfg.countries).queries);
}

#[test]
fn sampled_ssb_queries_match_the_naive_engine() {
    let db = ssb::generate(&ssb::SsbConfig::at_scale(Scale::Test));
    let queries = ssb::workload().queries;
    // Every year and region template, then a stride through the nation,
    // city and (region, nation) families.
    let sample: Vec<Query> = queries[..51]
        .iter()
        .chain(queries[51..].iter().step_by(37))
        .cloned()
        .collect();
    assert_engines_agree(&db, &sample);
}

#[test]
fn sampled_tpch_queries_match_the_naive_engine() {
    let db = tpch::generate(&tpch::TpchConfig::at_scale(Scale::Test));
    let queries = tpch::workload().queries;
    // Every per-year (Q1, Q4, Q6, Q12), per-region and per-material
    // query, then a stride through the p_type (Q16) and p_container (Q17)
    // families. Q12, the per-region Q2 and Q17 filter over their joins.
    let sample: Vec<Query> = queries[..30]
        .iter()
        .chain(queries[30..].iter().step_by(7))
        .cloned()
        .collect();
    assert!(sample.iter().all(|q| !falls_back(q, &db)));
    assert_engines_agree(&db, &sample);
}

#[test]
fn only_the_limit_template_falls_back() {
    let db = world::generate(&WorldConfig::at_scale(Scale::Test));
    let fallbacks: Vec<usize> = skewed::base_queries()
        .iter()
        .enumerate()
        .filter(|(_, q)| falls_back(q, &db))
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(fallbacks, vec![16], "templates (Q<n>) without a delta plan");
}
