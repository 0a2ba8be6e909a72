//! The pricing algorithms evaluated in the paper (§5).
//!
//! Every algorithm takes a [`crate::Hypergraph`] and returns a
//! [`crate::PricingOutcome`] holding the pricing function it found and the
//! revenue that function achieves on the input. Revenue is always re-computed
//! through [`crate::revenue`], so the reported number is exactly what the
//! returned pricing function earns — not an internal LP objective.
//!
//! Prefer driving algorithms through the [`PricingAlgorithm`] registry
//! ([`all`], [`by_name`]) rather than calling the per-algorithm free
//! functions: the registry gives every algorithm the same `run(&Hypergraph)`
//! shape, so harnesses and brokers can iterate, select, and swap algorithms
//! uniformly. The free functions remain as the underlying implementations.

mod cip;
mod incremental;
mod layering;
mod lpip;
pub mod reference;
mod refine;
mod registry;
mod ubp;
mod uip;
mod xos;

pub use cip::{capacity_item_price, CipConfig};
pub use incremental::{
    IncrementalRepricer, PricingPatch, RateTable, Repricer, UbpIncremental, UipIncremental,
    XosIncremental,
};
pub use layering::layering;
pub use lpip::{lp_item_price, LpipConfig};
pub use refine::refine_uniform_bundle_price;
pub use registry::{
    all, all_with, by_name, by_name_with, Cip, Layering, Lpip, PricingAlgorithm, Ubp, UbpRefined,
    Uip, Xos, PAPER_ALGORITHMS,
};
pub use ubp::uniform_bundle_price;
pub use uip::uniform_item_price;
pub use xos::{xos_from_components, xos_pricing};

#[cfg(test)]
pub(crate) mod test_support {
    use crate::Hypergraph;

    /// A small hand-checkable instance: three items, four buyers.
    pub fn small() -> Hypergraph {
        let mut h = Hypergraph::new(3);
        h.add_edge(vec![0], 8.0);
        h.add_edge(vec![1], 2.0);
        h.add_edge(vec![0, 1], 9.0);
        h.add_edge(vec![1, 2], 4.0);
        h
    }

    /// An instance where every edge has a unique item, so full revenue is
    /// extractable by item pricing.
    pub fn unique_items() -> Hypergraph {
        let mut h = Hypergraph::new(4);
        h.add_edge(vec![0], 5.0);
        h.add_edge(vec![1], 7.0);
        h.add_edge(vec![2, 3], 11.0);
        h
    }

    /// A star instance: every buyer shares item 0.
    pub fn star(valuations: &[f64]) -> Hypergraph {
        let mut h = Hypergraph::new(valuations.len() + 1);
        for (i, &v) in valuations.iter().enumerate() {
            h.add_edge(vec![0, i + 1], v);
        }
        h
    }
}
