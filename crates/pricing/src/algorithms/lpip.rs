//! LPIP — LP-based (non-uniform) item pricing (paper §5.2).
//!
//! For every candidate threshold valuation `v_e`, let `F_e` be the set of
//! bundles with valuation at least `v_e`. LPIP solves the linear program
//!
//! ```text
//! maximize   Σ_{e'∈F_e} Σ_{j∈e'} w_j
//! subject to Σ_{j∈e'} w_j ≤ v_{e'}       for every e' ∈ F_e
//!            w ≥ 0
//! ```
//!
//! i.e. it maximizes the revenue collected from the bundles it is forced to
//! sell. The uniform item pricing with rate `v_e / |e|` is always feasible for
//! `LP(e)`, so LPIP weakly improves on UIP for each threshold; the best
//! outcome across thresholds is returned. Worst-case guarantee `O(log m)`.
//!
//! The threshold LPs share one [`SimplexWorkspace`] for the whole sweep, and
//! the outcome is memoized on the hypergraph per config (see the
//! [`Hypergraph`] module docs), so a repeated call — XOS's — solves nothing.

use qp_lp::{ConstraintOp, LpProblem, Sense, SimplexWorkspace};

use crate::hypergraph::LpPriceMemo;
use crate::{revenue, Hypergraph, Pricing, PricingOutcome};

/// Tuning knobs for LPIP.
#[derive(Debug, Clone)]
pub struct LpipConfig {
    /// Maximum number of threshold LPs to solve. When the hypergraph has more
    /// distinct valuations than this, thresholds are subsampled evenly (the
    /// paper solves one LP per edge; subsampling trades a little revenue for
    /// a large running-time reduction on big workloads). `None` solves every
    /// distinct threshold.
    pub max_lps: Option<usize>,
    /// Pivot budget handed to the simplex solver for each threshold LP.
    pub max_lp_iterations: usize,
}

impl Default for LpipConfig {
    fn default() -> Self {
        LpipConfig {
            max_lps: None,
            max_lp_iterations: 200_000,
        }
    }
}

/// Computes a non-uniform item pricing by solving one LP per candidate
/// threshold and keeping the best. Memoized on `h` per config.
pub fn lp_item_price(h: &Hypergraph, config: &LpipConfig) -> PricingOutcome {
    let key = (config.max_lps, config.max_lp_iterations);
    LpPriceMemo::get_or_solve(&h.lp_prices().lpip, key, || solve_lpip(h, config))
}

/// The LPIP threshold sweep behind [`lp_item_price`].
fn solve_lpip(h: &Hypergraph, config: &LpipConfig) -> PricingOutcome {
    let n = h.num_items();
    let mut best_weights = vec![0.0; n];
    let mut best_rev = 0.0;

    // Candidate thresholds: distinct valuations in decreasing order.
    let mut thresholds: Vec<f64> = h.edges().iter().map(|e| e.valuation).collect();
    thresholds.sort_by(|a, b| b.partial_cmp(a).unwrap());
    thresholds.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

    // Optional subsampling of thresholds.
    let thresholds: Vec<f64> = match config.max_lps {
        Some(k) if k > 0 && thresholds.len() > k => {
            let step = thresholds.len() as f64 / k as f64;
            (0..k)
                .map(|i| thresholds[(i as f64 * step) as usize])
                .collect()
        }
        _ => thresholds,
    };

    let mut ws = SimplexWorkspace::new();
    for &threshold in &thresholds {
        if let Some((weights, _)) =
            solve_threshold_lp(h, threshold, config.max_lp_iterations, &mut ws)
        {
            let rev = revenue::item_pricing_revenue(h, &weights);
            if rev > best_rev {
                best_rev = rev;
                best_weights = weights;
            }
        }
    }

    let pricing = Pricing::Item {
        weights: best_weights,
    };
    let rev = revenue::revenue(h, &pricing);
    PricingOutcome {
        algorithm: "LPIP",
        revenue: rev,
        pricing,
    }
}

/// Solves `LP(e)` for the threshold valuation `threshold` and returns the
/// full-length weight vector together with the LP objective, solving in the
/// sweep's workspace `ws`.
pub(crate) fn solve_threshold_lp(
    h: &Hypergraph,
    threshold: f64,
    max_iterations: usize,
    ws: &mut SimplexWorkspace,
) -> Option<(Vec<f64>, f64)> {
    let forced: Vec<usize> = h
        .edges()
        .iter()
        .enumerate()
        .filter(|(_, e)| e.valuation >= threshold - 1e-12)
        .map(|(i, _)| i)
        .collect();
    if forced.is_empty() {
        return None;
    }

    // Restrict LP variables to the items that actually occur in forced edges.
    let mut item_of_var: Vec<usize> = Vec::new();
    let mut var_of_item: Vec<Option<usize>> = vec![None; h.num_items()];
    for &ei in &forced {
        for j in h.edge(ei).items.iter() {
            if var_of_item[j].is_none() {
                var_of_item[j] = Some(item_of_var.len());
                item_of_var.push(j);
            }
        }
    }

    let mut lp = LpProblem::new(Sense::Maximize, item_of_var.len());
    lp.set_max_iterations(max_iterations);
    // Objective: each item weight is collected once per forced edge containing
    // the item.
    for &ei in &forced {
        for j in h.edge(ei).items.iter() {
            lp.add_objective(var_of_item[j].unwrap(), 1.0);
        }
    }
    // Constraints: every forced edge must remain affordable.
    for &ei in &forced {
        let e = h.edge(ei);
        if e.items.is_empty() {
            continue; // 0 <= v_e holds trivially.
        }
        let coeffs: Vec<(usize, f64)> = e
            .items
            .iter()
            .map(|j| (var_of_item[j].unwrap(), 1.0))
            .collect();
        lp.add_constraint(coeffs, ConstraintOp::Le, e.valuation);
    }

    let sol = lp.solve_with(ws).ok()?;
    let mut weights = vec![0.0; h.num_items()];
    for (var, &item) in item_of_var.iter().enumerate() {
        weights[item] = sol.primal[var].max(0.0);
    }
    Some((weights, sol.objective))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{test_support, uniform_item_price};

    #[test]
    fn extracts_full_revenue_when_every_edge_has_unique_item() {
        let h = test_support::unique_items();
        let out = lp_item_price(&h, &LpipConfig::default());
        assert_eq!(out.algorithm, "LPIP");
        assert!((out.revenue - h.total_valuation()).abs() < 1e-6);
    }

    #[test]
    fn dominates_uniform_item_pricing() {
        for h in [
            test_support::small(),
            test_support::unique_items(),
            test_support::star(&[1.0, 2.0, 4.0, 8.0]),
        ] {
            let uip = uniform_item_price(&h);
            let lpip = lp_item_price(&h, &LpipConfig::default());
            assert!(
                lpip.revenue + 1e-6 >= uip.revenue,
                "LPIP ({}) must dominate UIP ({})",
                lpip.revenue,
                uip.revenue
            );
        }
    }

    #[test]
    fn small_instance_known_optimum() {
        // Items {0,1,2}; edges: {0}:8, {1}:2, {0,1}:9, {1,2}:4.
        // Weights (8,1,3) sell every edge: 8+1+9+4 = 22... but {0,1} pays
        // 9 ≤ 9 and {1,2} pays 4 ≤ 4, {1} pays 1 ≤ 2 → revenue 8+1+9+4 = 22?
        // Actually {1} pays w_1 = 1, so total = 8 + 1 + 9 + 4 = 22 out of 23.
        let h = test_support::small();
        let out = lp_item_price(&h, &LpipConfig::default());
        assert!(out.revenue >= 21.0 - 1e-6, "got {}", out.revenue);
        assert!(out.revenue <= h.total_valuation() + 1e-9);
    }

    #[test]
    fn threshold_lp_objective_is_revenue_of_forced_edges() {
        let h = test_support::unique_items();
        let (weights, obj) =
            solve_threshold_lp(&h, 0.0, 100_000, &mut SimplexWorkspace::new()).unwrap();
        let rev = revenue::item_pricing_revenue(&h, &weights);
        assert!((obj - rev).abs() < 1e-6);
    }

    #[test]
    fn subsampling_thresholds_still_returns_valid_pricing() {
        let h = test_support::star(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let full = lp_item_price(&h, &LpipConfig::default());
        let sampled = lp_item_price(
            &h,
            &LpipConfig {
                max_lps: Some(3),
                max_lp_iterations: 100_000,
            },
        );
        assert!(sampled.revenue <= full.revenue + 1e-6);
        assert!(sampled.revenue > 0.0);
    }

    #[test]
    fn empty_hypergraph() {
        let h = Hypergraph::new(4);
        let out = lp_item_price(&h, &LpipConfig::default());
        assert_eq!(out.revenue, 0.0);
    }
}
