//! The implementations the optimized code replaced, kept verbatim as
//! differential oracles. They run at the old speed on purpose; do not
//! "fix" them.
//!
//! * The UIP rate-multiset merge: the pre-SoA entry-at-a-time walk, the
//!   oracle for [`RateTable::merge_batch`] (`tests/differential_merge.rs`
//!   and the bench harness both pit the two against each other). These
//!   allocate a fresh result per call.
//! * LPIP's serial threshold sweep ([`lp_item_price`]): one LP per
//!   threshold in decreasing order, each built from freshly allocated
//!   rows, keeping the first strictly better revenue. The oracle for the
//!   two-ended sweep of [`crate::algorithms::lp_item_price`]
//!   (`algorithms/lpip/differential.rs`, `tests/differential_lpip.rs`).

use qp_lp::{ConstraintOp, LpProblem, Sense, SimplexWorkspace};

use crate::algorithms::{LpipConfig, RateTable};
use crate::{revenue, Hypergraph, Pricing, PricingOutcome};

/// One run-length entry: how many non-empty bundles share a rate, and
/// the sum of their sizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RateEntry {
    /// Number of bundles at this rate.
    pub count: usize,
    /// Summed bundle sizes at this rate.
    pub sizes: usize,
}

/// The old three-way walk: applies `ins` then `rem` per key, one entry
/// at a time, with the per-step underflow asserts the batch form of
/// [`RateTable::merge_batch`] collapses into one check per key.
pub fn merge_rates(
    base: &[(u64, RateEntry)],
    ins: &[(u64, usize)],
    rem: &[(u64, usize)],
) -> Vec<(u64, RateEntry)> {
    fn apply_at(
        out: &mut Vec<(u64, RateEntry)>,
        ins: &[(u64, usize)],
        rem: &[(u64, usize)],
        i: &mut usize,
        r: &mut usize,
        k: u64,
        mut e: RateEntry,
    ) {
        while *i < ins.len() && ins[*i].0 == k {
            e.count += 1;
            e.sizes += ins[*i].1;
            *i += 1;
        }
        while *r < rem.len() && rem[*r].0 == k {
            assert!(
                e.count > 0 && e.sizes >= rem[*r].1,
                "incremental repricer out of sync: removing an untracked rate"
            );
            e.count -= 1;
            e.sizes -= rem[*r].1;
            *r += 1;
        }
        if e.count > 0 {
            out.push((k, e));
        }
    }
    fn next_delta_key(
        ins: &[(u64, usize)],
        rem: &[(u64, usize)],
        i: usize,
        r: usize,
    ) -> Option<u64> {
        match (ins.get(i), rem.get(r)) {
            (Some(&(ki, _)), Some(&(kr, _))) => Some(ki.min(kr)),
            (Some(&(ki, _)), None) => Some(ki),
            (None, Some(&(kr, _))) => Some(kr),
            (None, None) => None,
        }
    }
    // alloc: oracle path — a fresh result per call is the point.
    let mut out: Vec<(u64, RateEntry)> = Vec::with_capacity(base.len() + ins.len());
    let (mut i, mut r) = (0usize, 0usize);
    for &(k, e) in base {
        // Delta keys strictly below this base entry form entries of
        // their own first.
        while let Some(next) = next_delta_key(ins, rem, i, r) {
            if next >= k {
                break;
            }
            apply_at(
                &mut out,
                ins,
                rem,
                &mut i,
                &mut r,
                next,
                RateEntry::default(),
            );
        }
        apply_at(&mut out, ins, rem, &mut i, &mut r, k, e);
    }
    while let Some(next) = next_delta_key(ins, rem, i, r) {
        apply_at(
            &mut out,
            ins,
            rem,
            &mut i,
            &mut r,
            next,
            RateEntry::default(),
        );
    }
    out
}

/// A [`RateTable`] holding exactly `entries` (sorted by key).
pub fn table_from_entries(entries: &[(u64, RateEntry)]) -> RateTable {
    let mut t = RateTable::new();
    for &(k, e) in entries {
        t.push(k, e.count, e.sizes);
    }
    t
}

/// A table's entries in the reference AoS form.
pub fn entries_from_table(t: &RateTable) -> Vec<(u64, RateEntry)> {
    t.entries()
        .map(|(k, count, sizes)| (k, RateEntry { count, sizes }))
        // alloc: oracle path — a fresh result per call is the point.
        .collect::<Vec<_>>()
}

/// LPIP's serial threshold sweep, unmemoized: the same outcome as
/// [`crate::algorithms::lp_item_price`], bit for bit.
pub fn lp_item_price(h: &Hypergraph, config: &LpipConfig) -> PricingOutcome {
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
fn solve_threshold_lp(
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
