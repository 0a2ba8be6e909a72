//! Property-based tests across all pricing algorithms.
//!
//! Invariants checked on random hypergraphs:
//! * every algorithm's reported revenue equals the revenue of the pricing
//!   function it returns;
//! * no algorithm exceeds the sum of valuations;
//! * every returned pricing function is monotone and subadditive (i.e.
//!   arbitrage-free by Theorem 1), verified exhaustively on small ground sets;
//! * documented dominance relations hold (LPIP ≥ UIP, refinement ≥ UBP,
//!   Layering ≥ (1/B)·Σv).

use proptest::prelude::*;
use qp_pricing::algorithms::{
    self, capacity_item_price, layering, lp_item_price, refine_uniform_bundle_price,
    uniform_bundle_price, uniform_item_price, xos_pricing, CipConfig, LpipConfig,
};
use qp_pricing::{bounds, is_monotone, is_subadditive, revenue, Hypergraph};

/// Random hypergraph over at most 8 items and at most 10 edges with
/// valuations in (0, 20].
#[derive(Debug, Clone)]
struct RandomInstance {
    num_items: usize,
    edges: Vec<(Vec<usize>, f64)>,
}

fn instance_strategy() -> impl Strategy<Value = RandomInstance> {
    (2usize..=8).prop_flat_map(|n| {
        let edge = (
            proptest::collection::vec(0usize..n, 0..=n.min(5)),
            0.01f64..20.0,
        );
        proptest::collection::vec(edge, 1..10).prop_map(move |edges| RandomInstance {
            num_items: n,
            edges,
        })
    })
}

fn build(inst: &RandomInstance) -> Hypergraph {
    let mut h = Hypergraph::new(inst.num_items);
    for (items, v) in &inst.edges {
        h.add_edge(items.clone(), *v);
    }
    h
}

fn all_outcomes(h: &Hypergraph) -> Vec<qp_pricing::PricingOutcome> {
    vec![
        uniform_bundle_price(h),
        uniform_item_price(h),
        lp_item_price(h, &LpipConfig::default()),
        capacity_item_price(
            h,
            &CipConfig {
                epsilon: 1.0,
                max_lp_iterations: 100_000,
            },
        ),
        layering(h),
        xos_pricing(
            h,
            &LpipConfig::default(),
            &CipConfig {
                epsilon: 1.0,
                max_lp_iterations: 100_000,
            },
        ),
        refine_uniform_bundle_price(h),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn reported_revenue_matches_returned_pricing(inst in instance_strategy()) {
        let h = build(&inst);
        for out in all_outcomes(&h) {
            let recomputed = revenue::revenue(&h, &out.pricing);
            prop_assert!(
                (recomputed - out.revenue).abs() < 1e-6,
                "{}: reported {} but pricing earns {}",
                out.algorithm, out.revenue, recomputed
            );
        }
    }

    #[test]
    fn revenue_is_within_global_bounds(inst in instance_strategy()) {
        let h = build(&inst);
        let sum = bounds::sum_of_valuations(&h);
        for out in all_outcomes(&h) {
            prop_assert!(out.revenue >= -1e-9, "{} negative revenue", out.algorithm);
            prop_assert!(
                out.revenue <= sum + 1e-6,
                "{} exceeds the sum of valuations", out.algorithm
            );
        }
    }

    #[test]
    fn returned_pricings_are_arbitrage_free(inst in instance_strategy()) {
        let h = build(&inst);
        for out in all_outcomes(&h) {
            prop_assert!(
                is_monotone(&out.pricing, h.num_items().min(8)),
                "{} returned a non-monotone pricing", out.algorithm
            );
            prop_assert!(
                is_subadditive(&out.pricing, h.num_items().min(8)),
                "{} returned a non-subadditive pricing", out.algorithm
            );
        }
    }

    #[test]
    fn lpip_dominates_uip(inst in instance_strategy()) {
        let h = build(&inst);
        let uip = uniform_item_price(&h);
        let lpip = lp_item_price(&h, &LpipConfig::default());
        prop_assert!(lpip.revenue + 1e-6 >= uip.revenue,
            "LPIP {} must dominate UIP {}", lpip.revenue, uip.revenue);
    }

    #[test]
    fn refinement_dominates_ubp(inst in instance_strategy()) {
        let h = build(&inst);
        let ubp = uniform_bundle_price(&h);
        let refined = refine_uniform_bundle_price(&h);
        prop_assert!(refined.revenue + 1e-6 >= ubp.revenue);
    }

    #[test]
    fn layering_meets_its_approximation_guarantee(inst in instance_strategy()) {
        let h = build(&inst);
        let non_empty_value: f64 = h
            .edges()
            .iter()
            .filter(|e| !e.items.is_empty())
            .map(|e| e.valuation)
            .sum();
        if non_empty_value > 0.0 {
            let b = h.max_degree().max(1) as f64;
            let out = layering(&h);
            prop_assert!(
                out.revenue + 1e-6 >= non_empty_value / b,
                "layering {} below guarantee {}", out.revenue, non_empty_value / b
            );
        }
    }

    #[test]
    fn ubp_is_optimal_among_uniform_prices(inst in instance_strategy()) {
        let h = build(&inst);
        let out = uniform_bundle_price(&h);
        for e in h.edges() {
            let rev = revenue::uniform_bundle_revenue(&h, e.valuation);
            prop_assert!(out.revenue + 1e-9 >= rev);
        }
    }

    #[test]
    fn subadditive_bound_is_at_most_sum(inst in instance_strategy()) {
        let h = build(&inst);
        let bound = bounds::sell_all_subadditive_bound(&h, &Default::default());
        prop_assert!(bound <= bounds::sum_of_valuations(&h) + 1e-6);
        prop_assert!(bound >= -1e-9);
    }

    #[test]
    fn registry_algorithms_are_arbitrage_free_and_report_true_revenue(
        inst in instance_strategy()
    ) {
        // The registry invariant of the redesigned API: every algorithm in
        // `algorithms::all()` returns a pricing that is monotone and
        // subadditive (arbitrage-free per Theorem 1 — every registered class
        // guarantees both), with a `revenue` field that matches what the
        // returned pricing actually earns on the input.
        let h = build(&inst);
        let n = h.num_items().min(8);
        for algo in algorithms::all() {
            let out = algo.run(&h);
            prop_assert!(
                (revenue::revenue(&h, &out.pricing) - out.revenue).abs() < 1e-6,
                "{} mis-reported its own revenue", algo.name()
            );
            prop_assert!(
                is_monotone(&out.pricing, n),
                "{} returned a non-monotone pricing", algo.name()
            );
            prop_assert!(
                is_subadditive(&out.pricing, n),
                "{} returned a non-subadditive pricing", algo.name()
            );
        }
    }

    #[test]
    fn by_name_resolves_to_the_same_outcome_as_the_roster(inst in instance_strategy()) {
        let h = build(&inst);
        for algo in algorithms::all() {
            let resolved = algorithms::by_name(algo.name()).expect("roster name resolves");
            prop_assert_eq!(resolved.name(), algo.name());
            let a = algo.run(&h);
            let b = resolved.run(&h);
            prop_assert!(
                (a.revenue - b.revenue).abs() < 1e-9,
                "{}: roster and by_name outcomes diverge", algo.name()
            );
        }
    }
}
