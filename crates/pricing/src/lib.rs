//! # qp-pricing — revenue-maximizing pricing over bundle hypergraphs
//!
//! This crate implements the core contribution of *Revenue Maximization for
//! Query Pricing* (Chawla, Deep, Koutris, Teng — VLDB 2019): given a
//! hypergraph whose vertices are support databases and whose hyperedges are
//! the conflict sets of buyer queries (each with a valuation), compute a
//! succinct, arbitrage-free pricing function that maximizes the seller's
//! revenue in the unlimited-supply, single-minded-buyer setting.
//!
//! ## Pricing-function classes (paper §3.4)
//!
//! * **Uniform bundle pricing** — one price for every bundle.
//! * **Item (additive) pricing** — a weight per item, bundle price is the sum.
//! * **XOS pricing** — the maximum over several additive components.
//!
//! ## Algorithms (paper §5)
//!
//! Every algorithm is registered in the [`algorithms`] registry under its
//! paper name; [`algorithms::all`] returns the full roster as
//! [`algorithms::PricingAlgorithm`] trait objects and
//! [`algorithms::by_name`] resolves a single one:
//!
//! | Registry name | Guarantee | Config struct | Free function |
//! |---------------|-----------|---------------|---------------|
//! | `UBP` uniform bundle pricing | O(log m) | [`algorithms::Ubp`] | [`algorithms::uniform_bundle_price`] |
//! | `UIP` uniform item pricing (Guruswami et al.) | O(log n + log m) | [`algorithms::Uip`] | [`algorithms::uniform_item_price`] |
//! | `LPIP` LP-based item pricing | O(log m) | [`algorithms::Lpip`] | [`algorithms::lp_item_price`] |
//! | `CIP` capacity-constrained item pricing (Cheung–Swamy) | O((1+ε) log B) | [`algorithms::Cip`] | [`algorithms::capacity_item_price`] |
//! | `Layering` (Algorithm 1) | O(B) | [`algorithms::Layering`] | [`algorithms::layering`] |
//! | `XOS` max of the memoized LPIP and CIP prices | — | [`algorithms::Xos`] | [`algorithms::xos_pricing`] |
//!
//! LPIP and CIP memoize their outcome on the hypergraph per config, and
//! every mutation empties that memo, so XOS composes the two price vectors
//! without solving their LPs a second time (see the [`Hypergraph`] docs).
//!
//! The figures' revenue bounds (Σ valuations, the one upper bound on
//! revenue, and the sell-all subadditive LP of §6.1) live in [`bounds`]; the Ω(log m) lower-bound constructions of Lemmas 2–4
//! live in [`instances`].
//!
//! ## Representation
//!
//! Hyperedges store their bundles as [`ItemSet`] bitsets (`qp-core`), and
//! aggregate item queries (degrees, max degree `B`, unique-item flags,
//! item→edge adjacency) are served by the lazily-built [`ItemIndex`],
//! which structural mutations patch **in place** — see the [`Hypergraph`]
//! docs for the maintenance rules.
//!
//! ## Incremental demand deltas
//!
//! Live markets learn demand from buyer interactions, so the hypergraph
//! mutates constantly. [`HypergraphDelta`] batches
//! `add_edge`/`remove_edge`/`revalue_edge` ops, [`Hypergraph::apply_delta`]
//! applies them in O(|delta|) and returns an [`AppliedOp`] log, and
//! algorithms with cheap update rules (UBP, UIP, XOS) expose an
//! [`algorithms::IncrementalRepricer`] through
//! [`algorithms::PricingAlgorithm::reprice_incremental`] that patches their
//! pricing in place — [`algorithms::Repricer`] drives either path
//! uniformly, and [`algorithms::PricingPatch`] carries the minimal change
//! to install.
//!
//! ## Example
//!
//! ```
//! use qp_pricing::{Hypergraph, algorithms, revenue};
//!
//! let mut h = Hypergraph::new(4);
//! h.add_edge(vec![0], 8.0);
//! h.add_edge(vec![0, 1], 12.0);
//! h.add_edge(vec![2, 3], 5.0);
//!
//! let lpip = algorithms::by_name("LPIP").expect("registered");
//! let out = lpip.run(&h);
//! assert!(out.revenue <= 25.0 + 1e-9);
//! assert!(out.revenue >= 24.9); // LPIP extracts (almost) everything here
//! let check = revenue::revenue(&h, &out.pricing);
//! assert!((check - out.revenue).abs() < 1e-6);
//!
//! // The whole roster, uniformly:
//! for algo in algorithms::all() {
//!     assert!(algo.run(&h).revenue <= 25.0 + 1e-9, "{}", algo.name());
//! }
//! ```

pub mod algorithms;
pub mod bounds;
pub mod instances;
pub mod revenue;

mod hypergraph;
mod pricing_fn;

pub use hypergraph::{
    AppliedOp, DeltaOp, Edge, Hypergraph, HypergraphDelta, HypergraphStats, ItemIndex,
};
pub use pricing_fn::{is_monotone, is_subadditive, BundlePricing, Pricing};
pub use qp_core::ItemSet;

/// The result of running a pricing algorithm on a hypergraph.
#[derive(Debug, Clone)]
pub struct PricingOutcome {
    /// Short algorithm name (e.g. `"LPIP"`).
    pub algorithm: &'static str,
    /// Revenue achieved on the input hypergraph.
    pub revenue: f64,
    /// The pricing function that achieves it.
    pub pricing: Pricing,
}

impl PricingOutcome {
    /// Revenue normalized by an upper bound (e.g. Σ valuations), as plotted in
    /// the paper's figures.
    pub fn normalized(&self, upper_bound: f64) -> f64 {
        if upper_bound <= 0.0 {
            0.0
        } else {
            self.revenue / upper_bound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_revenue_handles_zero_bound() {
        let o = PricingOutcome {
            algorithm: "UBP",
            revenue: 5.0,
            pricing: Pricing::UniformBundle { price: 1.0 },
        };
        assert_eq!(o.normalized(10.0), 0.5);
        assert_eq!(o.normalized(0.0), 0.0);
    }
}
