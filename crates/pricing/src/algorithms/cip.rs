//! CIP — capacity-constrained item pricing (Cheung & Swamy, paper §5.2).
//!
//! For a capacity `k`, consider the welfare-maximization LP
//!
//! ```text
//! maximize   Σ_e v_e x_e
//! subject to Σ_{e ∋ j} x_e ≤ k   for every item j
//!            0 ≤ x_e ≤ 1
//! ```
//!
//! The optimal duals of the capacity constraints are used as item prices.
//! Rather than solving this primal (which has one row per item — items vastly
//! outnumber bundles in query pricing), we solve its LP dual directly:
//!
//! ```text
//! minimize   k·Σ_j y_j + Σ_e z_e
//! subject to Σ_{j∈e} y_j + z_e ≥ v_e   for every bundle e
//!            y, z ≥ 0
//! ```
//!
//! whose variables `y_j` are exactly the desired item prices and whose row
//! count is the number of bundles. Sweeping `k` over a `(1+ε)`-geometric grid
//! from 1 to the maximum degree `B` and keeping the best revenue yields the
//! `O((1+ε) log B)` guarantee of the paper.
//!
//! The capacity LPs differ only in their objective, so the whole sweep is
//! one [`LpProblem::solve_objectives_with`] call: the constraint rows are
//! built once and phase 1 runs once. The outcome is memoized on the
//! hypergraph per config (see the [`Hypergraph`] module docs), so a
//! repeated call — XOS's — solves nothing.

use qp_lp::{ConstraintOp, LpProblem, Sense, SimplexWorkspace};

use crate::hypergraph::LpPriceMemo;
use crate::{revenue, Hypergraph, Pricing, PricingOutcome};

/// Tuning knobs for CIP.
#[derive(Debug, Clone)]
pub struct CipConfig {
    /// Step factor of the capacity sweep: capacities `1, (1+ε), (1+ε)², …`
    /// up to the maximum degree are tried. Larger ε means fewer (and faster)
    /// LP solves at the cost of a `(1+ε)` factor in the guarantee — exactly
    /// the trade-off the paper makes (ε between 0.2 and 4 in their runs).
    pub epsilon: f64,
    /// Pivot budget per LP solve.
    pub max_lp_iterations: usize,
}

impl Default for CipConfig {
    fn default() -> Self {
        CipConfig {
            epsilon: 0.5,
            max_lp_iterations: 200_000,
        }
    }
}

/// Computes an item pricing via the capacity-constrained primal–dual scheme.
/// Memoized on `h` per config.
pub fn capacity_item_price(h: &Hypergraph, config: &CipConfig) -> PricingOutcome {
    assert!(config.epsilon > 0.0, "epsilon must be positive");
    let key = (config.epsilon.to_bits(), config.max_lp_iterations);
    LpPriceMemo::get_or_solve(&h.lp_prices().cip, key, || solve_cip(h, config))
}

/// The CIP capacity sweep behind [`capacity_item_price`].
fn solve_cip(h: &Hypergraph, config: &CipConfig) -> PricingOutcome {
    let n = h.num_items();
    let mut best_weights = vec![0.0; n];
    let mut best_rev = 0.0;

    let max_degree = h.max_degree().max(1) as f64;
    let mut k = 1.0f64;
    let mut capacities = Vec::new();
    while k <= max_degree * (1.0 + config.epsilon) {
        capacities.push(k.min(max_degree));
        if (k - max_degree).abs() < 1e-12 || k > max_degree {
            break;
        }
        k *= 1.0 + config.epsilon;
    }
    capacities.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

    for weights in capacity_duals(h, &capacities, config.max_lp_iterations).flatten() {
        let rev = revenue::item_pricing_revenue(h, &weights);
        if rev > best_rev {
            best_rev = rev;
            best_weights = weights;
        }
    }

    let pricing = Pricing::Item {
        weights: best_weights,
    };
    let rev = revenue::revenue(h, &pricing);
    PricingOutcome {
        algorithm: "CIP",
        revenue: rev,
        pricing,
    }
}

/// Solves the dual of the capacity-`k` welfare LP for every `k` in
/// `capacities`, as one sweep over shared constraint rows. Returns, in
/// capacity order, the item-price vector `y` (full length, zeros for items
/// outside every bundle), or `None` where that LP failed.
fn capacity_duals<'h>(
    h: &'h Hypergraph,
    capacities: &[f64],
    max_iterations: usize,
) -> impl Iterator<Item = Option<Vec<f64>>> + 'h {
    let active = h.active_items();
    let mut var_of_item: Vec<Option<usize>> = vec![None; h.num_items()];
    for (v, &j) in active.iter().enumerate() {
        var_of_item[j] = Some(v);
    }
    let n_y = active.len();
    let m = h.num_edges();

    // Variables: y_0..y_{n_y-1}, then z_0..z_{m-1}.
    let mut lp = LpProblem::new(Sense::Minimize, n_y + m);
    lp.set_max_iterations(max_iterations);
    for (ei, e) in h.edges().iter().enumerate() {
        let mut coeffs: Vec<(usize, f64)> = e
            .items
            .iter()
            .map(|j| (var_of_item[j].unwrap(), 1.0))
            .collect();
        coeffs.push((n_y + ei, 1.0));
        lp.add_constraint(coeffs, ConstraintOp::Ge, e.valuation);
    }
    // Objective `k·Σ y + Σ z` per capacity.
    let objectives: Vec<Vec<f64>> = capacities
        .iter()
        .map(|&k| {
            let mut c = vec![1.0; n_y + m];
            c[..n_y].fill(k);
            c
        })
        .collect();

    lp.solve_objectives_with(&objectives, &mut SimplexWorkspace::new())
        .into_iter()
        .map(|sol| {
            let sol = sol.ok()?;
            let mut weights = vec![0.0; h.num_items()];
            for (v, &j) in active.iter().enumerate() {
                weights[j] = sol.primal[v].max(0.0);
            }
            Some(weights)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_support;

    #[test]
    fn capacity_one_star_prices_at_top_valuations() {
        // Star with valuations 1..5 sharing item 0; with capacity 1 the
        // welfare LP packs only the most valuable bundle per unit of item 0,
        // and the dual price of item 0 is high.
        let h = test_support::star(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let out = capacity_item_price(&h, &CipConfig::default());
        assert_eq!(out.algorithm, "CIP");
        assert!(out.revenue > 0.0);
        assert!(out.revenue <= h.total_valuation() + 1e-6);
    }

    #[test]
    fn unique_item_instance_extracts_everything() {
        let h = test_support::unique_items();
        let out = capacity_item_price(&h, &CipConfig::default());
        // With capacity >= 1 every bundle is packed and the duals support the
        // full valuations.
        assert!(
            (out.revenue - h.total_valuation()).abs() < 1e-5,
            "got {}",
            out.revenue
        );
    }

    #[test]
    fn dual_solution_supports_all_valuations() {
        // Constraint Σ_{j∈e} y_j + z_e ≥ v_e with z free means that whenever
        // z_e = 0, the item prices cover the valuation. We simply check the
        // returned prices are non-negative and finite.
        let h = test_support::small();
        let w = capacity_duals(&h, &[2.0], 100_000).next().unwrap().unwrap();
        assert_eq!(w.len(), h.num_items());
        assert!(w.iter().all(|&x| x.is_finite() && x >= 0.0));
    }

    #[test]
    fn larger_epsilon_never_crashes_and_stays_bounded() {
        let h = test_support::star(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0]);
        for eps in [0.2, 1.0, 4.0] {
            let out = capacity_item_price(
                &h,
                &CipConfig {
                    epsilon: eps,
                    max_lp_iterations: 100_000,
                },
            );
            assert!(out.revenue >= 0.0);
            assert!(out.revenue <= h.total_valuation() + 1e-6);
        }
    }

    #[test]
    fn empty_hypergraph_is_fine() {
        let h = Hypergraph::new(5);
        let out = capacity_item_price(&h, &CipConfig::default());
        assert_eq!(out.revenue, 0.0);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn zero_epsilon_is_rejected() {
        let h = test_support::small();
        capacity_item_price(
            &h,
            &CipConfig {
                epsilon: 0.0,
                max_lp_iterations: 10,
            },
        );
    }
}
