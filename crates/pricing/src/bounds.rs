//! Revenue bounds of the paper's figures (§6.1).
//!
//! Two values are printed beside the revenues in the paper's figures:
//!
//! 1. **Sum of valuations** `Σ_e v_e` — the coarse bound every approximation
//!    guarantee in the literature is stated against. This is a true upper
//!    bound on the revenue of *any* pricing, and the figures normalize
//!    revenue by it.
//! 2. **Sell-all subadditive bound** — an LP over one price variable per
//!    bundle, `p_e ∈ [0, v_e]`. For bundles with large valuations it
//!    greedily finds covers by *other* (typically low-valuation) bundles
//!    and adds the subadditivity constraint `p_e ≤ Σ_{e'∈cover} p_{e'}`;
//!    the objective is `max Σ_e p_e`. A monotone subadditive pricing
//!    that sells every bundle satisfies every constraint, so the LP bounds
//!    the best revenue of such a pricing.
//!
//! The second value is **not** an upper bound on revenue. The cap
//! `p_e ≤ v_e` says every buyer buys, and a monotone subadditive pricing
//! need not sell every bundle: on `{0,1}` valued 1, `{2,3}` valued 1 and
//! `{0,1,2,3}` valued 100 the LP reads 4, while pricing every item at 25
//! loses the two small sales and earns 100. The registered algorithms
//! earn more than the LP on many of the figures' panels. `PAPER.md` holds
//! only the paper's title, so whether the paper's own LP has the same gap
//! cannot be checked here.

use qp_lp::{ConstraintOp, LpProblem, Sense};

use crate::Hypergraph;

/// The coarse revenue upper bound `Σ_e v_e`.
pub fn sum_of_valuations(h: &Hypergraph) -> f64 {
    h.total_valuation()
}

/// Configuration of the sell-all subadditive LP.
#[derive(Debug, Clone)]
pub struct SellAllSubadditiveConfig {
    /// Maximum number of cover constraints generated per bundle.
    pub covers_per_edge: usize,
    /// Pivot budget for the LP solve.
    pub max_lp_iterations: usize,
}

impl Default for SellAllSubadditiveConfig {
    fn default() -> Self {
        SellAllSubadditiveConfig {
            covers_per_edge: 1,
            max_lp_iterations: 400_000,
        }
    }
}

/// The sell-all subadditive bound: at least the best revenue of a monotone
/// subadditive pricing that sells every bundle, and at most `Σ_e v_e`. Not
/// an upper bound on revenue (see the module docs).
pub fn sell_all_subadditive_bound(h: &Hypergraph, config: &SellAllSubadditiveConfig) -> f64 {
    let m = h.num_edges();
    if m == 0 {
        return 0.0;
    }

    let mut lp = LpProblem::new(Sense::Maximize, m);
    lp.set_max_iterations(config.max_lp_iterations);
    for e in 0..m {
        lp.set_objective(e, 1.0);
        lp.add_constraint(vec![(e, 1.0)], ConstraintOp::Le, h.edge(e).valuation);
    }

    // Cover candidates in *increasing* valuation order: the paper covers the
    // expensive bundles with cheap ones, which is what makes the bound
    // tighter than Σ v_e.
    let mut ascending: Vec<usize> = (0..m).collect();
    ascending.sort_by(|&a, &b| {
        h.edge(a)
            .valuation
            .partial_cmp(&h.edge(b).valuation)
            .unwrap()
    });
    // Constraints are generated for the most valuable bundles first.
    let descending: Vec<usize> = ascending.iter().rev().copied().collect();

    for &target in &descending {
        let te = h.edge(target);
        if te.items.is_empty() {
            // An empty bundle is covered by the empty set of bundles: any
            // monotone subadditive pricing must price it at 0.
            lp.add_constraint(vec![(target, 1.0)], ConstraintOp::Le, 0.0);
            continue;
        }
        let mut added = 0usize;
        let mut skip_before = 0usize;
        while added < config.covers_per_edge {
            if let Some(cover) = greedy_cover(h, target, &ascending, skip_before) {
                let mut coeffs = vec![(target, 1.0)];
                for &c in &cover {
                    coeffs.push((c, -1.0));
                }
                lp.add_constraint(coeffs, ConstraintOp::Le, 0.0);
                added += 1;
                skip_before += 1;
            } else {
                break;
            }
        }
    }

    match lp.solve() {
        Ok(sol) => sol.objective.min(sum_of_valuations(h)),
        Err(_) => sum_of_valuations(h),
    }
}

/// Greedily covers the items of `target` using other edges, scanning the
/// candidate edges in `order` but ignoring the first `skip` usable candidates
/// (used to generate a few *different* covers per edge). Returns `None` when
/// no full cover by other edges exists.
fn greedy_cover(h: &Hypergraph, target: usize, order: &[usize], skip: usize) -> Option<Vec<usize>> {
    let te = h.edge(target);
    let mut uncovered = te.items.clone();
    let mut cover = Vec::new();
    let mut skipped = 0usize;

    for &cand in order {
        if uncovered.is_empty() {
            break;
        }
        if cand == target {
            continue;
        }
        let ce = h.edge(cand);
        if ce.items.is_disjoint(&uncovered) {
            continue;
        }
        if skipped < skip {
            skipped += 1;
            continue;
        }
        cover.push(cand);
        uncovered.difference_with(&ce.items);
    }

    if uncovered.is_empty() && !cover.is_empty() {
        Some(cover)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested_instance() -> Hypergraph {
        // A big bundle covered by two small ones with low valuations: the
        // sell-all LP caps the big bundle's price at their sum.
        let mut h = Hypergraph::new(4);
        h.add_edge(vec![0, 1], 1.0);
        h.add_edge(vec![2, 3], 1.0);
        h.add_edge(vec![0, 1, 2, 3], 100.0);
        h
    }

    #[test]
    fn only_the_sum_of_valuations_bounds_every_registered_algorithm() {
        // The module docs' counterexample: the sell-all LP reads 4, but a
        // pricing may skip the two small sales and sell the big bundle.
        let h = nested_instance();
        let sum = sum_of_valuations(&h);
        let sell_all = sell_all_subadditive_bound(&h, &SellAllSubadditiveConfig::default());
        let mut best: f64 = 0.0;
        for algo in crate::algorithms::all() {
            let revenue = algo.run(&h).revenue;
            assert!(
                revenue <= sum,
                "{} earns {revenue} above Σ v = {sum}",
                algo.name()
            );
            best = best.max(revenue);
        }
        assert!(
            best > sell_all,
            "best revenue {best} is not above the sell-all LP's {sell_all}"
        );
    }

    #[test]
    fn bound_never_exceeds_sum_of_valuations() {
        for h in [nested_instance(), {
            let mut h = Hypergraph::new(3);
            h.add_edge(vec![0, 1], 6.0);
            h.add_edge(vec![1, 2], 4.0);
            h.add_edge(vec![0, 2], 5.0);
            h
        }] {
            let bound = sell_all_subadditive_bound(&h, &SellAllSubadditiveConfig::default());
            assert!(bound <= sum_of_valuations(&h) + 1e-9);
            assert!(bound > 0.0);
        }
    }

    #[test]
    fn cover_constraints_tighten_the_bound() {
        let h = nested_instance();
        let bound = sell_all_subadditive_bound(&h, &SellAllSubadditiveConfig::default());
        // Without cover constraints the bound would be 102; with the cover
        // {0,1},{2,3} of the big edge it is at most 1 + 1 + (1+1) = 4.
        assert!(bound <= 4.0 + 1e-6, "bound {bound} not tightened");
        assert!(bound >= 2.0 - 1e-9);
    }

    #[test]
    fn disjoint_edges_keep_full_sum() {
        let mut h = Hypergraph::new(4);
        h.add_edge(vec![0], 3.0);
        h.add_edge(vec![1], 5.0);
        h.add_edge(vec![2, 3], 7.0);
        let bound = sell_all_subadditive_bound(&h, &SellAllSubadditiveConfig::default());
        assert!((bound - 15.0).abs() < 1e-6);
    }

    #[test]
    fn empty_bundles_are_priced_at_zero_by_the_bound() {
        let mut h = Hypergraph::new(2);
        h.add_edge(Vec::<usize>::new(), 50.0);
        h.add_edge(vec![0], 3.0);
        let bound = sell_all_subadditive_bound(&h, &SellAllSubadditiveConfig::default());
        assert!((bound - 3.0).abs() < 1e-6);
    }

    #[test]
    fn empty_hypergraph_bound_is_zero() {
        let h = Hypergraph::new(3);
        assert_eq!(
            sell_all_subadditive_bound(&h, &SellAllSubadditiveConfig::default()),
            0.0
        );
        assert_eq!(sum_of_valuations(&h), 0.0);
    }

    #[test]
    fn more_covers_never_loosen_the_bound() {
        let h = nested_instance();
        let one = sell_all_subadditive_bound(
            &h,
            &SellAllSubadditiveConfig {
                covers_per_edge: 1,
                max_lp_iterations: 100_000,
            },
        );
        let three = sell_all_subadditive_bound(
            &h,
            &SellAllSubadditiveConfig {
                covers_per_edge: 3,
                max_lp_iterations: 100_000,
            },
        );
        assert!(three <= one + 1e-6);
    }

    #[test]
    fn identical_overlapping_edges_bound_matches_sum() {
        // Two identical bundles with equal valuations: each covers the other,
        // so the constraints p_a <= p_b and p_b <= p_a are harmless and the
        // bound equals the sum.
        let mut h = Hypergraph::new(2);
        h.add_edge(vec![0, 1], 5.0);
        h.add_edge(vec![0, 1], 5.0);
        let bound = sell_all_subadditive_bound(&h, &SellAllSubadditiveConfig::default());
        assert!((bound - 10.0).abs() < 1e-6);
    }
}
