//! The differential oracle suite — the incremental-delta pipeline checked
//! against from-scratch rebuilds.
//!
//! Random delta sequences (add / remove / revalue, applied both op-by-op
//! and in batches) drive an incrementally-maintained [`Hypergraph`] while a
//! plain mirror model tracks the same edits with the documented
//! swap-removal semantics. After **every step**:
//!
//! * the incrementally-patched [`ItemIndex`] must equal (`==`) the index a
//!   from-scratch rebuild of the mirror computes — degrees, max degree,
//!   active items, adjacency lists, unique-item flags, all of it;
//! * the exact incremental repricers (UBP, UIP) must return a [`Pricing`]
//!   **identical** to a full algorithm run on the updated hypergraph, with
//!   bit-identical revenue;
//! * the XOS incremental rule (envelope reuse — documented as not exact)
//!   must still report exactly the revenue its envelope earns on the
//!   updated demand;
//! * LPIP, CIP and XOS read through the hypergraph's LP price memo must be
//!   bit-equal to a from-scratch rebuild — after every applied delta and
//!   after `set_valuations` / `revalue_edge` — for the default configs and
//!   for non-default ones sharing the same graph.
//!
//! Case counts follow `ProptestConfig::default()`, so CI elevates the suite
//! with `PROPTEST_CASES=256`.

use proptest::prelude::*;
use qp_pricing::algorithms::{
    capacity_item_price, lp_item_price, uniform_bundle_price, uniform_item_price, xos_pricing,
    CipConfig, IncrementalRepricer, LpipConfig, UbpIncremental, UipIncremental, XosIncremental,
};
use qp_pricing::{revenue, Hypergraph, HypergraphDelta, ItemSet, PricingOutcome};

const MAX_ITEMS: usize = 10;

/// A scripted mutation; indices are resolved against the live edge count at
/// application time (so scripts stay valid whatever the graph size is).
#[derive(Debug, Clone)]
enum ScriptOp {
    Add { items: Vec<usize>, valuation: f64 },
    Remove { slot_seed: usize },
    Revalue { slot_seed: usize, valuation: f64 },
}

#[derive(Debug, Clone)]
struct Script {
    initial: Vec<(Vec<usize>, f64)>,
    ops: Vec<ScriptOp>,
    /// Ops per applied batch (1 = op-by-op differential stepping).
    batch: usize,
}

fn op_strategy() -> impl Strategy<Value = ScriptOp> {
    (
        0usize..3,
        proptest::collection::vec(0usize..MAX_ITEMS, 0..=5),
        0usize..1usize << 16,
        0.0f64..25.0,
    )
        .prop_map(|(kind, items, slot_seed, valuation)| match kind {
            0 => ScriptOp::Add { items, valuation },
            1 => ScriptOp::Remove { slot_seed },
            _ => ScriptOp::Revalue {
                slot_seed,
                valuation,
            },
        })
}

fn script_strategy() -> impl Strategy<Value = Script> {
    (
        proptest::collection::vec(
            (
                proptest::collection::vec(0usize..MAX_ITEMS, 0..=4),
                0.0f64..25.0,
            ),
            0..6,
        ),
        proptest::collection::vec(op_strategy(), 1..24),
        1usize..4,
    )
        .prop_map(|(initial, ops, batch)| Script {
            initial,
            ops,
            batch,
        })
}

/// The plain mirror: a `Vec` of edges mutated with the same swap-removal
/// semantics the hypergraph documents. Rebuilding a fresh hypergraph from
/// it is the from-scratch oracle.
#[derive(Default)]
struct Mirror {
    edges: Vec<(ItemSet, f64)>,
}

impl Mirror {
    fn rebuild(&self, num_items: usize) -> Hypergraph {
        let mut h = Hypergraph::new(num_items);
        for (items, v) in &self.edges {
            h.add_edge_set(items.clone(), *v);
        }
        h
    }
}

/// Turns a script op into a concrete delta op against the current size,
/// mirroring it. Returns false when the op is a no-op (nothing to remove).
fn stage(op: &ScriptOp, mirror: &mut Mirror, delta: &mut HypergraphDelta) -> bool {
    match op {
        ScriptOp::Add { items, valuation } => {
            let set: ItemSet = items.iter().copied().collect();
            mirror.edges.push((set.clone(), *valuation));
            delta.add_edge(set, *valuation);
            true
        }
        ScriptOp::Remove { slot_seed } => {
            if mirror.edges.is_empty() {
                return false;
            }
            let slot = slot_seed % mirror.edges.len();
            mirror.edges.swap_remove(slot);
            delta.remove_edge(slot);
            true
        }
        ScriptOp::Revalue {
            slot_seed,
            valuation,
        } => {
            if mirror.edges.is_empty() {
                return false;
            }
            let slot = slot_seed % mirror.edges.len();
            mirror.edges[slot].1 = *valuation;
            delta.revalue_edge(slot, *valuation);
            true
        }
    }
}

/// The LP configs the memo oracle exercises: the defaults, and
/// non-default ones that must never be served the defaults' answer.
fn lp_configs() -> [(LpipConfig, CipConfig); 2] {
    [
        (LpipConfig::default(), CipConfig::default()),
        (
            LpipConfig {
                max_lps: Some(3),
                ..LpipConfig::default()
            },
            CipConfig {
                epsilon: 4.0,
                ..CipConfig::default()
            },
        ),
    ]
}

/// `h`'s edges in a fresh graph: same state, empty memo.
fn rebuilt(h: &Hypergraph) -> Hypergraph {
    let mut fresh = Hypergraph::new(h.num_items());
    for e in h.edges() {
        fresh.add_edge_set(e.items.clone(), e.valuation);
    }
    fresh
}

/// Bit-for-bit outcome equality. `Debug` prints every `f64` exactly
/// (shortest round-trip form, sign of zero included), so equal strings
/// mean equal bits where `==` would let `-0.0` pass for `0.0`.
fn assert_same_outcome(live: &PricingOutcome, oracle: &PricingOutcome, what: &str) {
    assert_eq!(
        format!("{:?}", live.pricing),
        format!("{:?}", oracle.pricing),
        "{what}: pricing diverged"
    );
    assert_eq!(
        live.revenue.to_bits(),
        oracle.revenue.to_bits(),
        "{what}: revenue diverged"
    );
}

/// LPIP, CIP and XOS on the live (memo-carrying) graph equal the same calls
/// on a from-scratch `rebuild`, for every config in [`lp_configs`]. Each
/// oracle call gets its own rebuild, so no memo sits on the oracle side.
/// `order` rotates which config fills the memo first, so each config is
/// checked both as the memo owner and as a bystander.
fn assert_lp_outcomes_match_rebuild(
    h: &Hypergraph,
    rebuild: impl Fn() -> Hypergraph,
    order: usize,
) {
    let configs = lp_configs();
    for k in 0..configs.len() {
        let (lpip, cip) = &configs[(k + order) % configs.len()];
        let what = format!("{lpip:?} / {cip:?}");
        let xos = xos_pricing(&rebuild(), lpip, cip);
        let lpip_out = lp_item_price(&rebuild(), lpip);
        let cip_out = capacity_item_price(&rebuild(), cip);
        // Twice each: the first call may fill the memo, the second reads it.
        for _ in 0..2 {
            assert_same_outcome(&xos_pricing(h, lpip, cip), &xos, &what);
            assert_same_outcome(&lp_item_price(h, lpip), &lpip_out, &what);
            assert_same_outcome(&capacity_item_price(h, cip), &cip_out, &what);
        }
    }
}

/// `Clone` starts the copy with an empty memo (checked inside the crate);
/// seen from outside, a clone of a memo-carrying graph answers like a
/// rebuild, and mutating the clone leaves the original's answers alone.
#[test]
fn clone_answers_like_a_rebuild_and_mutations_stay_local() {
    let mut h = Hypergraph::new(4);
    h.add_edge(vec![0, 1], 9.0);
    h.add_edge(vec![1, 2], 5.0);
    h.add_edge(vec![2, 3], 7.0);
    h.add_edge(vec![3], 4.0);
    let (lpip, cip) = (LpipConfig::default(), CipConfig::default());
    let xos = xos_pricing(&h, &lpip, &cip);

    let mut copy = h.clone();
    assert_lp_outcomes_match_rebuild(&copy, || rebuilt(&h), 0);

    copy.revalue_edge(0, 1.0);
    assert_lp_outcomes_match_rebuild(&copy, || rebuilt(&copy), 1);
    assert_same_outcome(&xos_pricing(&h, &lpip, &cip), &xos, "original");
    assert_lp_outcomes_match_rebuild(&h, || rebuilt(&h), 1);
}

/// A graph on which both non-default configs give a different answer than
/// the defaults: once the defaults own the memo, the non-default calls
/// must still get their own answer.
#[test]
fn non_default_configs_are_not_served_the_default_answer() {
    let mut h = Hypergraph::new(8);
    h.add_edge(vec![1, 4], 7.0);
    h.add_edge(vec![4, 6], 20.0);
    h.add_edge(vec![5], 10.0);
    h.add_edge(vec![0, 3], 5.0);
    h.add_edge(vec![0, 6], 10.0);
    h.add_edge(vec![0, 4, 5], 17.0);
    h.add_edge(vec![0, 4], 5.0);
    h.add_edge(vec![6, 7], 8.0);
    let [(lpip, cip), (lpip_other, cip_other)] = lp_configs();
    let fresh = || rebuilt(&h);
    let expected_lpip = lp_item_price(&fresh(), &lpip_other);
    let expected_cip = capacity_item_price(&fresh(), &cip_other);
    assert_ne!(
        expected_lpip.pricing,
        lp_item_price(&fresh(), &lpip).pricing
    );
    assert_ne!(
        expected_cip.pricing,
        capacity_item_price(&fresh(), &cip).pricing
    );

    xos_pricing(&h, &lpip, &cip); // the defaults own the memo now
    assert_same_outcome(&lp_item_price(&h, &lpip_other), &expected_lpip, "LPIP");
    assert_same_outcome(&capacity_item_price(&h, &cip_other), &expected_cip, "CIP");
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// The LP price memo never outlives the state it was solved for: after
    /// every applied delta, and after `set_valuations` and `revalue_edge`,
    /// LPIP / CIP / XOS on the live graph are bit-equal to a rebuild.
    #[test]
    fn memoized_lp_outcomes_equal_rebuild_after_every_mutation(script in script_strategy()) {
        let mut mirror = Mirror::default();
        let mut h = Hypergraph::new(MAX_ITEMS);
        for (items, v) in &script.initial {
            let set: ItemSet = items.iter().copied().collect();
            mirror.edges.push((set.clone(), *v));
            h.add_edge_set(set, *v);
        }
        assert_lp_outcomes_match_rebuild(&h, || mirror.rebuild(MAX_ITEMS), 0);

        for (step, chunk) in script.ops.chunks(script.batch).enumerate() {
            let mut delta = HypergraphDelta::new();
            for op in chunk {
                stage(op, &mut mirror, &mut delta);
            }
            h.apply_delta(delta);
            assert_lp_outcomes_match_rebuild(&h, || mirror.rebuild(MAX_ITEMS), step);
        }

        // Valuation-only mutations keep the item index but not the memo.
        h.set_valuations(|i, e| (i % 3) as f64 + e.size() as f64 * 1.5);
        for (i, (items, v)) in mirror.edges.iter_mut().enumerate() {
            *v = (i % 3) as f64 + items.len() as f64 * 1.5;
        }
        assert_lp_outcomes_match_rebuild(&h, || mirror.rebuild(MAX_ITEMS), 1);

        if !mirror.edges.is_empty() {
            let slot = script.ops.len() % mirror.edges.len();
            h.revalue_edge(slot, 17.25);
            mirror.edges[slot].1 = 17.25;
            assert_lp_outcomes_match_rebuild(&h, || mirror.rebuild(MAX_ITEMS), 0);
        }
    }

    /// The incrementally-maintained `ItemIndex` equals a from-scratch
    /// rebuild after every applied batch, and so does the edge list itself.
    #[test]
    fn incremental_index_equals_rebuild_after_every_step(script in script_strategy()) {
        let mut mirror = Mirror::default();
        let mut h = Hypergraph::new(MAX_ITEMS);
        for (items, v) in &script.initial {
            let set: ItemSet = items.iter().copied().collect();
            mirror.edges.push((set.clone(), *v));
            h.add_edge_set(set, *v);
        }
        h.item_index(); // build once; every mutation from here on patches

        for chunk in script.ops.chunks(script.batch) {
            let mut delta = HypergraphDelta::new();
            for op in chunk {
                stage(op, &mut mirror, &mut delta);
            }
            h.apply_delta(delta);

            let oracle = mirror.rebuild(MAX_ITEMS);
            prop_assert_eq!(h.num_edges(), oracle.num_edges());
            for (e, (items, v)) in h.edges().iter().zip(&mirror.edges) {
                prop_assert_eq!(&e.items, items);
                prop_assert_eq!(e.valuation.to_bits(), v.to_bits());
            }
            prop_assert_eq!(h.item_index(), oracle.item_index(),
                "patched index diverged from a from-scratch rebuild");
            // The scalar views go through the same index; spot-check them.
            prop_assert_eq!(h.max_degree(), oracle.max_degree());
            prop_assert_eq!(h.item_degrees(), oracle.item_degrees());
            prop_assert_eq!(h.active_items(), oracle.active_items());
            prop_assert_eq!(h.edges_with_unique_item(), oracle.edges_with_unique_item());
            for j in 0..MAX_ITEMS {
                prop_assert_eq!(h.edges_containing(j), oracle.edges_containing(j));
            }
        }
    }

    /// UBP and UIP incremental repricers return pricings identical to full
    /// reruns — bit-for-bit, including the reported revenue — after every
    /// applied batch.
    #[test]
    fn exact_incremental_pricings_equal_full_reruns(script in script_strategy()) {
        let mut mirror = Mirror::default();
        let mut h = Hypergraph::new(MAX_ITEMS);
        for (items, v) in &script.initial {
            let set: ItemSet = items.iter().copied().collect();
            mirror.edges.push((set.clone(), *v));
            h.add_edge_set(set, *v);
        }

        let mut ubp = UbpIncremental::new();
        let mut uip = UipIncremental::new();
        let primed_ubp = ubp.prime(&h);
        let primed_uip = uip.prime(&h);
        prop_assert_eq!(primed_ubp.pricing, uniform_bundle_price(&h).pricing);
        prop_assert_eq!(primed_uip.pricing, uniform_item_price(&h).pricing);

        for chunk in script.ops.chunks(script.batch) {
            let mut delta = HypergraphDelta::new();
            for op in chunk {
                stage(op, &mut mirror, &mut delta);
            }
            let ops = h.apply_delta(delta);

            let (ubp_out, _) = ubp.apply(&h, &ops);
            let ubp_full = uniform_bundle_price(&h);
            prop_assert_eq!(&ubp_out.pricing, &ubp_full.pricing,
                "UBP incremental pricing diverged from the full rerun");
            prop_assert_eq!(ubp_out.revenue.to_bits(), ubp_full.revenue.to_bits());

            let (uip_out, _) = uip.apply(&h, &ops);
            let uip_full = uniform_item_price(&h);
            prop_assert_eq!(&uip_out.pricing, &uip_full.pricing,
                "UIP incremental pricing diverged from the full rerun");
            prop_assert_eq!(uip_out.revenue.to_bits(), uip_full.revenue.to_bits());

            // And a from-scratch graph (same edge order) agrees too.
            let oracle = mirror.rebuild(MAX_ITEMS);
            prop_assert_eq!(uniform_bundle_price(&oracle).pricing, ubp_out.pricing);
            prop_assert_eq!(uniform_item_price(&oracle).pricing, uip_out.pricing);
        }
    }

    /// The XOS incremental rule reuses its envelope (documented as not
    /// exact) but must report exactly the revenue that envelope earns on
    /// the updated demand, after every batch.
    #[test]
    fn xos_envelope_reuse_reports_true_revenue(script in script_strategy()) {
        let mut mirror = Mirror::default();
        let mut h = Hypergraph::new(MAX_ITEMS);
        for (items, v) in &script.initial {
            let set: ItemSet = items.iter().copied().collect();
            mirror.edges.push((set.clone(), *v));
            h.add_edge_set(set, *v);
        }

        // Refits are covered by unit tests; pinning the envelope here keeps
        // the reuse invariant assertable after every single batch.
        let mut xos = XosIncremental::new(LpipConfig::default(), CipConfig::default())
            .with_refit_after(f64::INFINITY);
        prop_assert!(!xos.exact());
        let primed = xos.prime(&h);
        let envelope = primed.pricing;

        for chunk in script.ops.chunks(script.batch) {
            let mut delta = HypergraphDelta::new();
            for op in chunk {
                stage(op, &mut mirror, &mut delta);
            }
            let ops = h.apply_delta(delta);
            let (out, _) = xos.apply(&h, &ops);
            prop_assert_eq!(&out.pricing, &envelope, "the envelope must be reused as-is");
            prop_assert_eq!(
                out.revenue.to_bits(),
                revenue::revenue(&h, &out.pricing).to_bits()
            );
        }
    }
}
