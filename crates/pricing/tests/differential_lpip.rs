//! The memoized LPIP entry point against the serial reference sweep.
//!
//! [`algorithms::lp_item_price`] runs the threshold sweep on
//! `min(2, qp_core::parallel::available_workers())` workers and memoizes
//! the outcome on the hypergraph; its weights and revenue must equal, bit
//! for bit, those of [`reference::lp_item_price`]. The one-worker and
//! two-worker paths are checked one by one, ties and failing LPs included,
//! by the differential module inside the crate
//! (`algorithms/lpip/differential.rs`).

use qp_pricing::algorithms::{self, reference, LpipConfig};
use qp_pricing::{Hypergraph, Pricing, PricingOutcome};

fn weight_bits(out: &PricingOutcome) -> Vec<u64> {
    match &out.pricing {
        Pricing::Item { weights } => weights.iter().map(|w| w.to_bits()).collect(),
        other => panic!("LPIP returned {other:?}"),
    }
}

/// 60 edges of 4–19 distinct items over 90 items, valued in `[1, 100)`:
/// LPs large enough that both workers claim thresholds.
fn hypergraph() -> Hypergraph {
    let mut h = Hypergraph::new(90);
    for e in 0..60usize {
        let size = 4 + (e * 7) % 16;
        let items = (0..size).map(|k| (e * 13 + k * 29) % 90);
        h.add_edge(items, 1.0 + ((e * 37) % 99) as f64);
    }
    h
}

#[test]
fn the_memoized_entry_point_matches_the_reference() {
    let h = hypergraph();
    let expected = reference::lp_item_price(&h, &LpipConfig::default());
    for _ in 0..2 {
        // The first call solves and fills the memo; the second reads it.
        let got = algorithms::lp_item_price(&h, &LpipConfig::default());
        assert_eq!(got.revenue.to_bits(), expected.revenue.to_bits());
        assert_eq!(weight_bits(&got), weight_bits(&expected));
    }
}
