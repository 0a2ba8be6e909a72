//! Cross-crate integration tests: dataset → queries → support → conflict
//! sets → pricing → broker, exercised through the public facade.
//!
//! Pricing algorithms are driven through the `algorithms` registry
//! (`all` / `by_name`) and the broker through its builder + concurrent
//! engine API, mirroring how an embedding marketplace would consume the
//! library.

use query_pricing::market::{
    build_hypergraph, check_all, Broker, ConflictEngine, DeltaConflictEngine, PurchaseOutcome,
    SupportConfig, SupportSet,
};
use query_pricing::pricing::algorithms::{self, CipConfig, LpipConfig};
use query_pricing::pricing::{bounds, is_monotone, is_subadditive, revenue, Hypergraph, ItemSet};
use query_pricing::qdb::{AggFunc, Expr, Query};
use query_pricing::workloads::queries::{skewed, uniform};
use query_pricing::workloads::valuations::{assign_valuations, ValuationModel};
use query_pricing::workloads::world::{self, WorldConfig};
use query_pricing::workloads::Scale;

fn world_instance() -> (query_pricing::qdb::Database, SupportSet) {
    let cfg = WorldConfig::at_scale(Scale::Test);
    let db = world::generate(&cfg);
    let support = SupportSet::generate(&db, &SupportConfig::with_size(120));
    (db, support)
}

#[test]
fn skewed_workload_end_to_end_pricing() {
    let cfg = WorldConfig::at_scale(Scale::Test);
    let db = world::generate(&cfg);
    let workload = skewed::workload(&db, cfg.countries);
    let support = SupportSet::generate(&db, &SupportConfig::with_size(100));
    let engine = DeltaConflictEngine::new(&db, &support);
    // A slice of the workload keeps the test fast while covering every
    // template family (the first 34 are the base templates).
    let queries = &workload.queries[..80];
    let mut h = build_hypergraph(&engine, queries);
    assert_eq!(h.num_edges(), queries.len());

    assign_valuations(&mut h, &ValuationModel::SampledUniform { k: 100.0 }, 3);
    let sum = bounds::sum_of_valuations(&h);
    assert!(sum > 0.0);

    // The whole paper roster, through the registry.
    let lpip_cfg = LpipConfig {
        max_lps: Some(10),
        ..Default::default()
    };
    let cip_cfg = CipConfig {
        epsilon: 3.0,
        ..Default::default()
    };
    let mut lpip_revenue = None;
    let mut uip_revenue = None;
    for algo in algorithms::all_with(&lpip_cfg, &cip_cfg) {
        let out = algo.run(&h);
        assert!(
            out.revenue >= 0.0 && out.revenue <= sum + 1e-6,
            "{}",
            algo.name()
        );
        let recomputed = revenue::revenue(&h, &out.pricing);
        assert!((recomputed - out.revenue).abs() < 1e-6, "{}", algo.name());
        match algo.name() {
            "LPIP" => lpip_revenue = Some(out.revenue),
            "UIP" => uip_revenue = Some(out.revenue),
            _ => {}
        }
    }
    // The paper's headline finding at small scale: LPIP is at least as good
    // as UIP.
    assert!(lpip_revenue.unwrap() + 1e-6 >= uip_revenue.unwrap());
}

#[test]
fn conflict_engines_agree_on_the_base_templates() {
    let (db, support) = world_instance();
    let naive = query_pricing::market::NaiveConflictEngine::new(&db, &support);
    let fast = DeltaConflictEngine::new(&db, &support);
    for q in skewed::base_queries() {
        assert_eq!(naive.conflict_set(&q), fast.conflict_set(&q));
    }
}

#[test]
fn uniform_workload_has_uniform_edge_sizes() {
    let (db, support) = world_instance();
    let w = uniform::workload(&db, 40);
    let engine = DeltaConflictEngine::new(&db, &support);
    let h = build_hypergraph(&engine, &w.queries);
    let stats = h.stats();
    assert_eq!(stats.num_edges, 40);
    // Every edge selects ~40% of the City rows, so sizes are tightly
    // clustered: the spread should be well below the mean.
    let sizes: Vec<usize> = h.edges().iter().map(|e| e.size()).collect();
    let min = *sizes.iter().min().unwrap() as f64;
    let max = *sizes.iter().max().unwrap() as f64;
    assert!(min > 0.0);
    assert!(
        max - min <= stats.avg_edge_size,
        "sizes {min}..{max} too spread"
    );
}

#[test]
fn broker_quotes_are_arbitrage_free_across_algorithms() {
    let (db, support) = world_instance();
    let broker = Broker::with_support(db, support);
    let queries = vec![
        Query::scan("Country")
            .filter(Expr::col("Continent").eq(Expr::lit("Asia")))
            .aggregate(vec![], vec![(AggFunc::Count, Some("Name"), "c")]),
        Query::scan("Country").project_cols(&["Name", "Population"]),
        Query::scan("Country"),
        Query::scan("City").aggregate(vec!["CountryCode"], vec![(AggFunc::Count, None, "c")]),
    ];
    let conflict_sets: Vec<ItemSet> = queries.iter().map(|q| broker.conflict_set(q)).collect();
    let mut h = Hypergraph::new(broker.support().len());
    for cs in &conflict_sets {
        h.add_edge_set(cs.clone(), 20.0);
    }

    for name in ["UBP", "LPIP", "Layering"] {
        let outcome = algorithms::by_name(name).expect("paper algorithm").run(&h);
        let report = check_all(&conflict_sets, &outcome.pricing);
        assert!(report.is_arbitrage_free(), "{name} produced arbitrage");
        assert!(is_monotone(&outcome.pricing, 8));
        assert!(is_subadditive(&outcome.pricing, 8));
        // Interior-mutable swap: the broker is never declared mut.
        broker.set_pricing(outcome.pricing.clone());
        // The full table determines every other query, so it is the most
        // expensive quote.
        let full_price = broker.quote(&queries[2]).price;
        for q in &queries {
            assert!(broker.quote(q).price <= full_price + 1e-9);
        }
        // quote_batch must agree with per-query quotes under every pricing.
        for (batch, q) in broker.quote_batch(&queries).iter().zip(&queries) {
            let single = broker.quote(q);
            assert_eq!(batch.conflict_set, single.conflict_set);
            assert_eq!(batch.price, single.price);
        }
    }
}

#[test]
fn broker_builder_sells_within_budget() {
    let (db, support) = world_instance();
    // Sum(Population) conflicts with every support database that perturbs a
    // Country population, so this query is reliably priced.
    let q = Query::scan("Country").aggregate(vec![], vec![(AggFunc::Sum, Some("Population"), "s")]);
    let broker = Broker::builder(db)
        .support(support)
        .algorithm("LPIP")
        .anticipate(q.clone(), 9.0)
        .build()
        .expect("LPIP is a registered algorithm");

    let quote = broker.quote(&q);
    assert!(quote.price > 0.0);
    match broker.purchase(&q, quote.price).unwrap() {
        PurchaseOutcome::Sold { price, answer } => {
            assert_eq!(price.to_bits(), quote.price.to_bits());
            assert_eq!(answer.len(), 1);
        }
        PurchaseOutcome::Declined { .. } => panic!("exact budget must be accepted"),
    }
    match broker.purchase(&q, quote.price / 2.0).unwrap() {
        PurchaseOutcome::Declined { price } => assert_eq!(price.to_bits(), quote.price.to_bits()),
        PurchaseOutcome::Sold { .. } => panic!("half budget must be declined"),
    }

    // An unknown algorithm name fails the build instead of silently pricing
    // everything at zero.
    let (db2, support2) = world_instance();
    assert!(Broker::builder(db2)
        .support(support2)
        .algorithm("FancyPants")
        .build()
        .is_err());
}

#[test]
fn figure_pipeline_smoke_test() {
    // A miniature Figure 5 panel: hypergraph + valuations + all algorithms,
    // normalized revenue in [0, 1].
    let (db, support) = world_instance();
    let w = uniform::workload(&db, 25);
    let engine = DeltaConflictEngine::new(&db, &support);
    let base = build_hypergraph(&engine, &w.queries);
    for model in [
        ValuationModel::SampledUniform { k: 200.0 },
        ValuationModel::SampledZipf {
            a: 2.0,
            max_rank: 1000,
        },
        ValuationModel::ScaledNormal {
            k: 1.0,
            variance: 10.0,
        },
        ValuationModel::AdditiveBinomial { k: 100 },
    ] {
        let mut h = base.clone();
        assign_valuations(&mut h, &model, 5);
        let sum = bounds::sum_of_valuations(&h);
        let sub = bounds::subadditive_bound(&h, &Default::default());
        assert!(sub <= sum + 1e-6);
        for name in ["UBP", "UIP", "Layering"] {
            let out = algorithms::by_name(name).expect("paper algorithm").run(&h);
            let norm = out.revenue / sum;
            assert!((0.0..=1.0 + 1e-9).contains(&norm), "{name} -> {norm}");
        }
    }
}
