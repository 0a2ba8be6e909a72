//! Property-based equivalence of the two conflict engines, plus structural
//! invariants of conflict sets.
//!
//! The delta-aware engine decides each support database from a compiled
//! delta plan instead of re-evaluating the query; these tests pit it against
//! the naive engine (full re-evaluation) on randomized databases, support
//! sets, and pools of query shapes: single-table chains, and joins covering
//! every spine operator, every root operator and the fallbacks.

use proptest::prelude::*;
use qp_market::{
    ConflictEngine, DeltaConflictEngine, NaiveConflictEngine, ParallelConflictEngine,
    SupportConfig, SupportSet,
};
use qp_qdb::{AggFunc, ColumnType, Database, DeltaPlan, Expr, Query, Relation, Schema, Value};

#[derive(Debug, Clone)]
struct RandomDb {
    rows: Vec<(u8, i64, u8)>,
    seed: u64,
    support: usize,
}

fn db_strategy() -> impl Strategy<Value = RandomDb> {
    (
        proptest::collection::vec((0u8..4, -30i64..30, 0u8..3), 4..30),
        0u64..1000,
        5usize..40,
    )
        .prop_map(|(rows, seed, support)| RandomDb {
            rows,
            seed,
            support,
        })
}

fn build(rdb: &RandomDb) -> Database {
    let schema = Schema::new(vec![
        ("category", ColumnType::Str),
        ("amount", ColumnType::Int),
        ("region", ColumnType::Str),
    ]);
    let mut rel = Relation::new(schema);
    for (c, a, r) in &rdb.rows {
        rel.push(vec![
            format!("cat{c}").into(),
            Value::Int(*a),
            format!("region{r}").into(),
        ])
        .unwrap();
    }
    let mut db = Database::new();
    db.add_table("Sales", rel);
    db
}

fn query_pool() -> Vec<Query> {
    vec![
        Query::scan("Sales"),
        Query::scan("Sales")
            .filter(Expr::col("amount").ge(Expr::lit(0)))
            .project_cols(&["category", "amount"]),
        Query::scan("Sales")
            .filter(Expr::col("category").eq(Expr::lit("cat1")))
            .project_cols(&["amount"]),
        Query::scan("Sales").project_cols(&["region"]).distinct(),
        Query::scan("Sales")
            .filter(Expr::col("amount").between(Expr::lit(-10), Expr::lit(10)))
            .project_cols(&["category"])
            .distinct(),
        Query::scan("Sales").aggregate(
            vec![],
            vec![
                (AggFunc::Count, None, "c"),
                (AggFunc::Sum, Some("amount"), "s"),
                (AggFunc::Min, Some("amount"), "mn"),
                (AggFunc::Max, Some("amount"), "mx"),
            ],
        ),
        Query::scan("Sales").aggregate(
            vec!["category"],
            vec![
                (AggFunc::Avg, Some("amount"), "a"),
                (AggFunc::Count, None, "c"),
            ],
        ),
        Query::scan("Sales")
            .filter(Expr::col("region").ne(Expr::lit("region0")))
            .aggregate(
                vec!["region"],
                vec![(AggFunc::CountDistinct, Some("category"), "d")],
            ),
        // A self-join and a LIMIT exercise the naive fallback inside the
        // delta engine.
        Query::scan("Sales")
            .join(Query::scan("Sales"), vec![("category", "category")])
            .aggregate(vec![], vec![(AggFunc::Count, None, "c")]),
        Query::scan("Sales").limit(3),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn delta_engine_agrees_with_naive_engine(rdb in db_strategy(), qi in 0usize..10) {
        let db = build(&rdb);
        let support = SupportSet::generate(
            &db,
            &SupportConfig { size: rdb.support, seed: rdb.seed, ..Default::default() },
        );
        let naive = NaiveConflictEngine::new(&db, &support);
        let fast = DeltaConflictEngine::new(&db, &support);
        let q = &query_pool()[qi];
        prop_assert_eq!(naive.conflict_set(q), fast.conflict_set(q));
    }

    #[test]
    fn conflict_sets_iterate_ascending_and_in_range(rdb in db_strategy(), qi in 0usize..10) {
        let db = build(&rdb);
        let support = SupportSet::generate(
            &db,
            &SupportConfig { size: rdb.support, seed: rdb.seed, ..Default::default() },
        );
        let fast = DeltaConflictEngine::new(&db, &support);
        let set = fast.conflict_set(&query_pool()[qi]);
        let items = set.to_vec();
        prop_assert!(items.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(items.iter().all(|&i| i < support.len()));
        prop_assert_eq!(items.len(), set.len());
        prop_assert!(items.iter().all(|&i| set.contains(i)));
    }

    #[test]
    fn full_scan_dominates_every_single_table_query(rdb in db_strategy(), qi in 0usize..8) {
        // Information monotonicity: the full relation determines every query
        // over it, so its conflict set contains every other conflict set.
        let db = build(&rdb);
        let support = SupportSet::generate(
            &db,
            &SupportConfig { size: rdb.support, seed: rdb.seed, ..Default::default() },
        );
        let fast = DeltaConflictEngine::new(&db, &support);
        let full = fast.conflict_set(&Query::scan("Sales"));
        let other = fast.conflict_set(&query_pool()[qi]);
        prop_assert!(other.is_subset(&full));
    }

    #[test]
    fn parallel_engine_agrees_with_serial_engine(rdb in db_strategy(), threads in 1usize..6) {
        let db = build(&rdb);
        let support = SupportSet::generate(
            &db,
            &SupportConfig { size: rdb.support, seed: rdb.seed, ..Default::default() },
        );
        let serial = DeltaConflictEngine::new(&db, &support);
        // Forced: `new` takes the hardware parallelism, which on a
        // single-core runner would quietly make this serial-vs-serial.
        let parallel = ParallelConflictEngine::with_threads_forced(&db, &support, threads);
        let qs = query_pool();
        prop_assert_eq!(parallel.conflict_sets(&qs), serial.conflict_sets(&qs));
    }
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// `Sales` plus a `Targets` table joined to it on `region` (one-to-many,
/// with NULL keys) and on `amount = level` (Int against Float keys).
#[derive(Debug, Clone)]
struct JoinDb {
    sales: RandomDb,
    /// `(region code, level code, bonus tenths)`; region code 4 and level
    /// code 0 stand for NULL.
    targets: Vec<(u8, i8, u8)>,
}

fn join_db_strategy() -> impl Strategy<Value = JoinDb> {
    (
        db_strategy(),
        proptest::collection::vec((0u8..5, -12i8..12, 0u8..40), 3..16),
    )
        .prop_map(|(sales, targets)| JoinDb { sales, targets })
}

fn build_join(jdb: &JoinDb) -> Database {
    let mut db = build(&jdb.sales);
    let mut targets = Relation::new(Schema::new(vec![
        ("region", ColumnType::Str),
        ("level", ColumnType::Float),
        ("bonus", ColumnType::Float),
    ]));
    for &(r, l, b) in &jdb.targets {
        let region = if r == 4 {
            Value::Null
        } else {
            format!("region{r}").into()
        };
        // Even codes are integral levels that can equal an Int amount; odd
        // codes are halves that never do.
        let level = if l == 0 {
            Value::Null
        } else {
            Value::Float(f64::from(l) / 2.0)
        };
        // Tenths are inexact in binary, so float sums depend on fold order.
        let bonus = Value::Float(f64::from(b) * 0.1);
        targets.push(vec![region, level, bonus]).unwrap();
    }
    db.add_table("Targets", targets);
    db
}

fn sales_targets() -> Query {
    Query::scan("Sales").join(Query::scan("Targets"), vec![("region", "region")])
}

/// Join shapes with a delta plan, then (from [`FIRST_FALLBACK`]) shapes the
/// engine must hand to the naive engine.
fn join_pool() -> Vec<Query> {
    vec![
        // Filters below and above the join, spine on the left.
        Query::scan("Sales")
            .filter(Expr::col("amount").ge(Expr::lit(0)))
            .join(Query::scan("Targets"), vec![("region", "region")])
            .filter(Expr::col("bonus").gt(Expr::lit(1.5))),
        // Projection above a one-to-many join.
        sales_targets().project_cols(&["category", "bonus"]),
        // Spine on the right, with a filter on the materialized side.
        Query::scan("Targets")
            .filter(Expr::col("bonus").lt(Expr::lit(3.0)))
            .join(Query::scan("Sales"), vec![("region", "region")])
            .project_cols(&["amount", "level"]),
        // Int amounts against Float levels, and a two-column key.
        Query::scan("Sales").join(Query::scan("Targets"), vec![("amount", "level")]),
        Query::scan("Sales").join(
            Query::scan("Targets"),
            vec![("region", "region"), ("amount", "level")],
        ),
        // DISTINCT over a join whose contributions repeat rows.
        sales_targets().project_cols(&["category"]).distinct(),
        sales_targets()
            .project(vec![(Expr::col("bonus").gt(Expr::lit(2.0)), "big")])
            .distinct(),
        // Global and grouped aggregates over a join.
        sales_targets().aggregate(
            vec![],
            vec![
                (AggFunc::Sum, Some("bonus"), "s"),
                (AggFunc::Avg, Some("amount"), "a"),
                (AggFunc::Min, Some("bonus"), "mn"),
                (AggFunc::Max, Some("amount"), "mx"),
                (AggFunc::Count, None, "c"),
            ],
        ),
        sales_targets().aggregate(
            vec!["category"],
            vec![
                (AggFunc::Sum, Some("bonus"), "s"),
                (AggFunc::Avg, Some("bonus"), "a"),
                (AggFunc::Min, Some("level"), "mn"),
                (AggFunc::Max, Some("bonus"), "mx"),
            ],
        ),
        Query::scan("Targets")
            .join(Query::scan("Sales"), vec![("level", "amount")])
            .project(vec![
                (Expr::col("r.region"), "sales_region"),
                (Expr::col("bonus").mul(Expr::col("amount")), "x"),
            ])
            .aggregate(vec!["sales_region"], vec![(AggFunc::Sum, Some("x"), "s")]),
        // Filters directly over a join. A conjunct that reads one input
        // runs below the join: on the perturbed tuple when that input is
        // the spine, on the side's index otherwise.
        // A side-only conjunct with the spine on the left (T = Sales), a
        // spine-only one with it on the right (T = Targets).
        sales_targets().filter(Expr::col("bonus").gt(Expr::lit(1.5))),
        // A side-only conjunct with the spine on the right (T = Sales).
        Query::scan("Targets")
            .join(Query::scan("Sales"), vec![("region", "region")])
            .filter(Expr::col("bonus").lt(Expr::lit(2.0)))
            .project_cols(&["category", "amount"]),
        // Two spine-only conjuncts for T = Sales.
        sales_targets().filter(
            Expr::col("category")
                .eq(Expr::lit("cat1"))
                .and(Expr::col("amount").ge(Expr::lit(0))),
        ),
        // A mixed conjunct stays above the join; the other one moves.
        sales_targets().filter(
            Expr::col("amount")
                .gt(Expr::col("bonus"))
                .and(Expr::col("level").is_null().not()),
        ),
        // `r.region` is Targets' region: on an `amount = level` join it
        // differs from Sales' `region`.
        Query::scan("Sales")
            .join(Query::scan("Targets"), vec![("amount", "level")])
            .filter(
                Expr::col("r.region")
                    .eq(Expr::lit("region1"))
                    .and(Expr::col("region").ne(Expr::lit("region2"))),
            ),
        // An OR reads both inputs and is not split.
        sales_targets().filter(
            Expr::col("bonus")
                .gt(Expr::lit(2.0))
                .or(Expr::col("amount").lt(Expr::lit(0))),
        ),
        // A grouped float SUM over a filtered side (T = Sales): folding
        // tenths is order-sensitive.
        sales_targets()
            .filter(
                Expr::col("bonus")
                    .lt(Expr::lit(2.5))
                    .and(Expr::col("amount").ge(Expr::lit(-10))),
            )
            .aggregate(vec!["category"], vec![(AggFunc::Sum, Some("bonus"), "s")]),
        // Fallbacks: a self-join and a LIMIT.
        Query::scan("Targets")
            .join(Query::scan("Targets"), vec![("region", "region")])
            .aggregate(vec![], vec![(AggFunc::Sum, Some("bonus"), "s")]),
        sales_targets().limit(4),
    ]
}

/// Index in [`join_pool`] of the first shape without a delta plan.
const FIRST_FALLBACK: usize = 17;

#[test]
fn join_pool_plans_and_fallbacks_are_as_labelled() {
    let db = build_join(&JoinDb {
        sales: RandomDb {
            rows: vec![(0, 1, 0), (1, -2, 1)],
            seed: 0,
            support: 1,
        },
        targets: vec![(0, 2, 3), (4, 0, 1)],
    });
    for (i, q) in join_pool().iter().enumerate() {
        let has_plan = q
            .tables_referenced()
            .iter()
            .all(|t| matches!(DeltaPlan::compile(q, &db, t), Ok(Some(_))));
        assert_eq!(has_plan, i < FIRST_FALLBACK, "join pool query {i}");
    }
}

proptest! {
    // Default config: `PROPTEST_CASES` raises the case count in CI.

    #[test]
    fn delta_engine_agrees_with_naive_engine_on_joins(jdb in join_db_strategy()) {
        let db = build_join(&jdb);
        let support = SupportSet::generate(
            &db,
            &SupportConfig { size: jdb.sales.support, seed: jdb.sales.seed, ..Default::default() },
        );
        let naive = NaiveConflictEngine::new(&db, &support);
        let fast = DeltaConflictEngine::new(&db, &support);
        for (i, q) in join_pool().iter().enumerate() {
            prop_assert_eq!(naive.conflict_set(q), fast.conflict_set(q), "join pool query {}", i);
        }
    }
}
