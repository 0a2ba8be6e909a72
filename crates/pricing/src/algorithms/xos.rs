//! XOS pricing — the maximum of the LPIP and CIP price vectors (paper §5.2).
//!
//! The paper's XOS heuristic combines the two strongest additive pricings by
//! charging each bundle the larger of the two additive prices. The resulting
//! function is XOS (fractionally subadditive), hence still arbitrage-free,
//! but — as the paper observes — taking the max can overshoot valuations and
//! lose sales, so its revenue is *not* the max of the component revenues.
//!
//! [`xos_pricing`] composes the LPIP and CIP prices memoized on the
//! hypergraph (see the [`Hypergraph`] module docs): after LPIP and CIP have
//! run with the same configs, XOS solves no LP at all, and run first it
//! fills the memo the later LPIP and CIP calls hit.

use crate::algorithms::{capacity_item_price, lp_item_price, CipConfig, LpipConfig};
use crate::{revenue, Hypergraph, Pricing, PricingOutcome};

/// Builds the XOS pricing from the LPIP and CIP item-price vectors, both
/// read from (or solved into) `h`'s LP price memo.
pub fn xos_pricing(
    h: &Hypergraph,
    lpip_config: &LpipConfig,
    cip_config: &CipConfig,
) -> PricingOutcome {
    let lpip = lp_item_price(h, lpip_config);
    let cip = capacity_item_price(h, cip_config);
    xos_from_components(h, &[lpip.pricing, cip.pricing])
}

/// Builds an XOS pricing from the additive components of `pricings` and
/// evaluates it on `h`.
///
/// Accepting [`Pricing`] values (rather than raw weight vectors) lets XOS
/// compose directly with registry-produced outcomes: an [`Pricing::Item`]
/// contributes its weight vector, and a [`Pricing::Xos`] contributes every
/// one of its components (so XOS composition is associative). A
/// [`Pricing::UniformBundle`] has no additive representation and cannot
/// participate in an XOS envelope; passing one panics, as that is always a
/// caller bug rather than a recoverable condition.
pub fn xos_from_components(h: &Hypergraph, pricings: &[Pricing]) -> PricingOutcome {
    let mut components: Vec<Vec<f64>> = Vec::with_capacity(pricings.len());
    for p in pricings {
        match p {
            Pricing::Item { weights } => components.push(weights.clone()),
            Pricing::Xos { components: inner } => components.extend(inner.iter().cloned()),
            Pricing::UniformBundle { .. } => {
                panic!("uniform bundle pricing is not additive and cannot be an XOS component")
            }
        }
    }
    let pricing = Pricing::Xos { components };
    let rev = revenue::revenue(h, &pricing);
    PricingOutcome {
        algorithm: "XOS",
        revenue: rev,
        pricing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_support;
    use crate::BundlePricing;

    #[test]
    fn component_prices_lower_bound_the_xos_price() {
        let h = test_support::small();
        let out = xos_pricing(&h, &LpipConfig::default(), &CipConfig::default());
        let Pricing::Xos { components } = &out.pricing else {
            panic!("expected XOS pricing");
        };
        assert_eq!(components.len(), 2);
        for e in h.edges() {
            let p = out.pricing.price_set(&e.items);
            for c in components {
                let add: f64 = e
                    .items
                    .iter()
                    .map(|j| c.get(j).copied().unwrap_or(0.0))
                    .sum();
                assert!(p + 1e-9 >= add);
            }
        }
    }

    #[test]
    fn revenue_is_bounded_by_sum_of_valuations() {
        let h = test_support::star(&[2.0, 5.0, 8.0, 11.0]);
        let out = xos_pricing(&h, &LpipConfig::default(), &CipConfig::default());
        assert!(out.revenue <= h.total_valuation() + 1e-6);
        assert!(out.revenue >= 0.0);
    }

    #[test]
    fn unique_item_instance_keeps_full_revenue() {
        // Both components support full extraction and agree, so the max does
        // not overshoot.
        let h = test_support::unique_items();
        let out = xos_pricing(&h, &LpipConfig::default(), &CipConfig::default());
        assert!((out.revenue - h.total_valuation()).abs() < 1e-5);
    }

    #[test]
    fn composes_with_nested_xos_components() {
        let h = test_support::unique_items();
        let a = Pricing::Item {
            weights: vec![5.0, 0.0, 0.0, 0.0],
        };
        let b = Pricing::Xos {
            components: vec![vec![0.0, 7.0, 0.0, 0.0], vec![0.0, 0.0, 5.5, 5.5]],
        };
        let out = xos_from_components(&h, &[a, b]);
        let Pricing::Xos { components } = &out.pricing else {
            panic!("expected XOS pricing");
        };
        assert_eq!(components.len(), 3, "nested XOS components are flattened");
        assert!((out.revenue - h.total_valuation()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "not additive")]
    fn uniform_bundle_components_are_rejected() {
        let h = test_support::small();
        xos_from_components(&h, &[Pricing::UniformBundle { price: 3.0 }]);
    }

    #[test]
    fn overshooting_max_can_lose_revenue() {
        // Two buyers: {0} at 10 and {0,1} at 11. Component A sells both for
        // 21; component B overprices the second bundle. Their XOS combination
        // inherits B's overshoot on bundle {0,1} (max(11, 14) = 14 > 11) and
        // loses that sale, ending up strictly worse than component A alone —
        // the paper's observation that the max can overshoot v_Q.
        let mut h = Hypergraph::new(2);
        h.add_edge(vec![0], 10.0);
        h.add_edge(vec![0, 1], 11.0);
        let a = vec![10.0, 1.0];
        let b = vec![5.0, 9.0];
        let rev_a = revenue::item_pricing_revenue(&h, &a);
        let rev_b = revenue::item_pricing_revenue(&h, &b);
        assert_eq!(rev_a, 21.0);
        assert_eq!(rev_b, 5.0);
        let xos = xos_from_components(
            &h,
            &[Pricing::Item { weights: a }, Pricing::Item { weights: b }],
        );
        assert_eq!(xos.revenue, 10.0);
        assert!(xos.revenue < rev_a.max(rev_b));
    }
}
