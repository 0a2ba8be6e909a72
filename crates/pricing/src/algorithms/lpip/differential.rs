//! Differential oracle for LPIP's two-ended threshold sweep.
//!
//! [`lp_item_price_on`] solves the threshold LPs on one worker, or on two
//! that claim thresholds from opposite ends of the sweep. Either way its
//! weights and revenue must equal, bit for bit, those of the serial sweep
//! kept in [`reference::lp_item_price`]: the same LPs, and the same winner
//! among thresholds of equal revenue (the lowest index).
//!
//! Random hypergraphs draw valuations from a handful of values, so
//! distinct edges share thresholds and different thresholds often earn
//! exactly the same revenue; some add a chain of edges valued `60 / i` on
//! one item, where every threshold earns exactly 60. They include empty
//! edges and single-threshold graphs, subsample thresholds with `max_lps`,
//! and now and then starve every LP of pivots so that some fail. Where the
//! two workers meet depends on thread timing, so the fixed cases solve LPs
//! large enough for both workers to claim thresholds, ties included; the
//! unit tests in `lpip.rs` run every meeting point deterministically. The
//! random block follows `ProptestConfig::default()`, so CI elevates it
//! with `PROPTEST_CASES=256`.

use proptest::prelude::*;

use super::{lp_item_price_on, LpipConfig};
use crate::algorithms::reference;
use crate::{Hypergraph, Pricing, PricingOutcome};

fn weight_bits(out: &PricingOutcome) -> Vec<u64> {
    match &out.pricing {
        Pricing::Item { weights } => weights.iter().map(|w| w.to_bits()).collect(),
        other => panic!("LPIP returned {other:?}"),
    }
}

/// Checks the sweep on `workers` workers against the serial reference.
fn check(h: &Hypergraph, config: &LpipConfig, workers: usize) -> Result<(), String> {
    let expected = reference::lp_item_price(h, config);
    let got = lp_item_price_on(h, config, workers);
    if got.revenue.to_bits() != expected.revenue.to_bits() {
        return Err(format!(
            "workers={workers}: revenue {} vs reference {}",
            got.revenue, expected.revenue
        ));
    }
    if weight_bits(&got) != weight_bits(&expected) {
        return Err(format!(
            "workers={workers}: weights {:?} vs reference {:?}",
            got.pricing, expected.pricing
        ));
    }
    Ok(())
}

/// A valuation from a small set, so thresholds and revenues tie often.
fn valuation() -> impl Strategy<Value = f64> {
    (0usize..8).prop_map(|k| [1.0, 2.0, 3.0, 4.0, 6.0, 12.0, 2.5, 7.0][k])
}

#[derive(Debug, Clone)]
struct Case {
    num_items: usize,
    edges: Vec<(Vec<usize>, f64)>,
    config: LpipConfig,
    workers: usize,
}

impl Case {
    fn hypergraph(&self) -> Hypergraph {
        let mut h = Hypergraph::new(self.num_items);
        for (items, v) in &self.edges {
            h.add_edge(items.iter().copied(), *v);
        }
        h
    }
}

/// Random hypergraphs of up to 24 edges (about one in seven empty), half
/// of them with a tie chain on item 0; `max_lps` in a third of the cases
/// and a budget of 1–3 pivots per LP in one in eight.
fn case_strategy() -> impl Strategy<Value = Case> {
    (1usize..10).prop_flat_map(|n| {
        let edge = (
            proptest::collection::vec(0usize..n, 0..4),
            valuation(),
            0u32..7,
        );
        (
            proptest::collection::vec(edge, 0..24),
            0usize..8,
            0usize..6,
            0u32..8,
            1usize..4,
            1usize..3,
        )
            .prop_map(move |(raw, chain, lps, starve, budget, workers)| {
                let mut edges: Vec<(Vec<usize>, f64)> = raw
                    .into_iter()
                    .map(|(items, v, empty)| (if empty == 0 { vec![] } else { items }, v))
                    .collect();
                // 60 / i for the first `chain` divisors i of 60: each
                // threshold forces the i largest edges at weight 60 / i.
                for i in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0][..chain.min(7)].iter() {
                    edges.push((vec![0], 60.0 / i));
                }
                Case {
                    num_items: n,
                    edges,
                    config: LpipConfig {
                        max_lps: (lps % 3 == 0).then_some(lps / 3 + 1),
                        max_lp_iterations: if starve == 0 { budget } else { 200_000 },
                    },
                    workers,
                }
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn two_ended_sweep_matches_the_serial_reference(case in case_strategy()) {
        let h = case.hypergraph();
        let outcome = check(&h, &case.config, case.workers);
        prop_assert!(outcome.is_ok(), "{:?} on {:?}", outcome, case);
    }
}

/// Item 0 in one edge per divisor `i` of 60, valued `60 / i`, above 120
/// ballast edges of three items each, nobody else's, valued
/// `100 + e mod spread`. The ballast is forced at every threshold of item
/// 0's edges and always sells in full, so those twelve thresholds earn
/// exactly the sweep's maximum, each with a different weight on item 0,
/// and each LP has over 120 rows: slow enough that both workers claim
/// thresholds. With `spread` 1 the tied thresholds lie on both sides of
/// where the workers meet; with `spread` 40 the back worker claims all of
/// them, so its own tie rule picks the winner.
fn ties_under_ballast(spread: usize) -> Hypergraph {
    let mut h = Hypergraph::new(1 + 3 * 120);
    for e in 0..120 {
        let v = 100.0 + (e % spread) as f64;
        h.add_edge((1 + 3 * e)..(4 + 3 * e), v);
    }
    for i in [1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60] {
        h.add_edge([0], 60.0 / i as f64);
    }
    h
}

#[test]
fn ties_keep_the_first_threshold_wherever_the_workers_meet() {
    let config = LpipConfig::default();
    for spread in [1, 40] {
        let h = ties_under_ballast(spread);
        for _ in 0..5 {
            for workers in [1, 2] {
                check(&h, &config, workers).unwrap();
            }
        }
        let out = lp_item_price_on(&h, &config, 2);
        assert_eq!(weight_bits(&out)[0], 60.0f64.to_bits());
    }
}

#[test]
fn empty_edges_and_single_thresholds() {
    let mut only_empty = Hypergraph::new(3);
    only_empty.add_edge(Vec::<usize>::new(), 5.0);
    only_empty.add_edge(Vec::<usize>::new(), 2.0);
    let mut single = Hypergraph::new(3);
    single.add_edge([0, 1], 4.0);
    single.add_edge([1, 2], 4.0);
    single.add_edge(Vec::<usize>::new(), 4.0);
    for h in [Hypergraph::new(2), only_empty, single] {
        for workers in [1, 2] {
            check(&h, &LpipConfig::default(), workers).unwrap();
        }
    }
}

/// A seeded random hypergraph with `edges` edges of 4–19 items over
/// `items` items and valuations in `[1, 100)`: LPs large enough that both
/// workers claim thresholds.
fn large(items: usize, edges: usize, seed: u64) -> Hypergraph {
    let mut x = seed;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    let mut h = Hypergraph::new(items);
    for _ in 0..edges {
        let size = 4 + next() as usize % 16;
        let set: Vec<usize> = (0..size).map(|_| next() as usize % items).collect();
        let v = 1.0 + (next() % 990) as f64 / 10.0;
        h.add_edge(set, v);
    }
    h
}

#[test]
fn large_sweeps_match_on_both_paths() {
    let configs = [
        LpipConfig::default(),
        LpipConfig {
            max_lps: Some(7),
            max_lp_iterations: 200_000,
        },
        LpipConfig {
            max_lps: None,
            max_lp_iterations: 12,
        },
    ];
    for seed in [3, 4] {
        let h = large(120, 80, seed);
        for config in &configs {
            for workers in [1, 2] {
                check(&h, config, workers).unwrap();
            }
        }
    }
}
