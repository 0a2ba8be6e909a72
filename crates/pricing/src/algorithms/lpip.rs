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
//! The outcome is memoized on the hypergraph per config (see the
//! [`Hypergraph`] module docs), so a repeated call — XOS's — solves nothing.
//!
//! # The two-ended sweep
//!
//! The threshold LPs are independent, and sorted from the highest
//! threshold down their forced sets only grow, so the LPs grow along the
//! sweep. They run through `qp_core::parallel::claim` on
//! `min(2, available_workers)` workers: the calling thread claims
//! thresholds from the front and one spawned worker from the back (the
//! primitive's module docs say how that worker is placed on a CPU).
//!
//! *Tie rule.* The serial sweep keeps the first threshold whose revenue
//! beats every earlier one and 0, the zero pricing's: the lowest index of
//! a positive maximum. The front worker does the same over its prefix.
//! The back worker walks its suffix downwards, so an equal revenue (a
//! lower index) replaces its best, and it ends with its suffix's
//! lowest-index maximum. The back's result wins only when strictly
//! greater than the front's, so a back maximum of 0 never wins. The
//! outcome is therefore the serial sweep's, bit for bit, wherever the
//! workers meet; every rebuilt LP is the serial sweep's LP too (same
//! variable and row order, `1.0` coefficients, integer objective counts),
//! kept as [`crate::algorithms::reference::lp_item_price`]. The rule needs
//! exactly one back worker, hence at most two workers.
//!
//! *Memory.* Each worker owns one [`LpProblem`] and one
//! [`SimplexWorkspace`], so at most two tableaus are live. A threshold LP
//! has only `≤` rows, whose slack columns start basic, and the simplex
//! stores only the non-basic columns: a tableau holds `rows × (vars + 1)`
//! entries, not the dense `rows × (vars + rows + 1)`. The calling
//! thread sizes both workers' buffers — forced-edge list, item↔variable
//! maps, LP rows, tableau, weights — for the last threshold's LP, whose
//! forced set contains every other's, before the spawn. No buffer grows
//! mid-sweep (so none grows in the second thread's malloc arena), and a
//! warm worker allocates only the solver's primal and dual vectors per
//! threshold.

use qp_core::parallel::{self, End};
use qp_lp::{ConstraintOp, LpProblem, Sense, SimplexWorkspace};

use crate::hypergraph::LpPriceMemo;
use crate::{revenue, Edge, Hypergraph, Pricing, PricingOutcome};

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
    LpPriceMemo::get_or_solve(&h.lp_prices().lpip, key, || {
        lp_item_price_on(h, config, parallel::available_workers().min(2))
    })
}

/// The threshold sweep behind [`lp_item_price`] on exactly `workers`
/// workers (one, or two from opposite ends), without the memo. The worker
/// count is the machine's; the crate's tests pick it to drive both paths.
pub(crate) fn lp_item_price_on(
    h: &Hypergraph,
    config: &LpipConfig,
    workers: usize,
) -> PricingOutcome {
    let thresholds = thresholds(h, config.max_lps);
    let size = thresholds
        .last()
        .map_or(LpSize::default(), |&t| LpSize::of(h, t));
    // alloc: one worker per thread, sized on the calling thread.
    let mut workers: Vec<ThresholdWorker> = (0..workers.min(thresholds.len()).max(1))
        .map(|_| ThresholdWorker::new(h, size))
        .collect();
    parallel::claim(&mut workers, thresholds.len(), |worker, i, end| {
        worker.consider(h, thresholds[i], config.max_lp_iterations, end)
    });
    let best = workers
        .into_iter()
        .reduce(ThresholdWorker::merge)
        .expect("at least one worker")
        .best;

    let pricing = Pricing::Item { weights: best };
    let rev = revenue::revenue(h, &pricing);
    PricingOutcome {
        algorithm: "LPIP",
        revenue: rev,
        pricing,
    }
}

/// Candidate thresholds: the distinct valuations in decreasing order,
/// subsampled evenly down to `max_lps` when there are more.
fn thresholds(h: &Hypergraph, max_lps: Option<usize>) -> Vec<f64> {
    // alloc: one threshold list per sweep.
    let mut thresholds: Vec<f64> = h.edges().iter().map(|e| e.valuation).collect();
    thresholds.sort_by(|a, b| b.partial_cmp(a).unwrap());
    thresholds.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    match max_lps {
        Some(k) if k > 0 && thresholds.len() > k => {
            let step = thresholds.len() as f64 / k as f64;
            (0..k)
                .map(|i| thresholds[(i as f64 * step) as usize])
                // alloc: one subsampled list per sweep.
                .collect()
        }
        _ => thresholds,
    }
}

/// Whether `e` is forced (must stay affordable) at `threshold`.
fn forced(e: &Edge, threshold: f64) -> bool {
    e.valuation >= threshold - 1e-12
}

/// The dimensions of one threshold's LP.
#[derive(Debug, Clone, Copy, Default)]
struct LpSize {
    /// Forced edges, empty ones included.
    forced: usize,
    /// Items occurring in forced edges: the LP's variables.
    vars: usize,
    /// Non-empty forced edges: the LP's rows.
    rows: usize,
    /// Summed sizes of the forced edges: the LP's coefficients.
    nonzeros: usize,
}

impl LpSize {
    fn of(h: &Hypergraph, threshold: f64) -> LpSize {
        // alloc: one membership table per sweep, on the calling thread.
        let mut seen = vec![false; h.num_items()];
        let mut size = LpSize::default();
        for e in h.edges().iter().filter(|e| forced(e, threshold)) {
            size.forced += 1;
            size.rows += usize::from(!e.items.is_empty());
            size.nonzeros += e.items.len();
            for j in e.items.iter() {
                size.vars += usize::from(!seen[j]);
                seen[j] = true;
            }
        }
        size
    }
}

/// Marks an item that is no variable of the current LP.
const NO_VAR: usize = usize::MAX;

/// One worker's buffers, reused from one threshold LP to the next, and
/// the best pricing it has found.
struct ThresholdWorker {
    /// Indices of the edges the current threshold forces.
    forced: Vec<usize>,
    /// The item of each LP variable.
    item_of_var: Vec<usize>,
    /// The LP variable of each item, or [`NO_VAR`].
    var_of_item: Vec<usize>,
    lp: LpProblem,
    ws: SimplexWorkspace,
    /// The current LP's weights, one per item.
    weights: Vec<f64>,
    /// The best weights so far (all zero before the first threshold that
    /// wins), and their revenue.
    best: Vec<f64>,
    best_rev: f64,
}

impl ThresholdWorker {
    /// A worker whose buffers hold an LP of `size` without growing.
    fn new(h: &Hypergraph, size: LpSize) -> ThresholdWorker {
        let n = h.num_items();
        let mut lp = LpProblem::new(Sense::Maximize, 0);
        lp.reserve(size.vars, size.rows, size.nonzeros);
        let mut ws = SimplexWorkspace::new();
        // Every row is a `≤` row over a non-negative valuation: one slack
        // column each.
        ws.reserve(size.rows, size.vars + size.rows);
        // alloc: per-sweep buffers, sized once on the calling thread.
        ThresholdWorker {
            forced: Vec::with_capacity(size.forced),
            item_of_var: Vec::with_capacity(size.vars),
            var_of_item: vec![NO_VAR; n],
            lp,
            ws,
            weights: vec![0.0; n],
            best: vec![0.0; n],
            best_rev: 0.0,
        }
    }

    /// Solves the LP of `threshold`, claimed from `end`, and keeps its
    /// pricing if it is the best so far under the tie rule of the module
    /// docs.
    fn consider(&mut self, h: &Hypergraph, threshold: f64, max_iterations: usize, end: End) {
        if self.solve(h, threshold, max_iterations).is_none() {
            return;
        }
        let rev = revenue::item_pricing_revenue(h, &self.weights);
        let better = match end {
            End::Front => rev > self.best_rev,
            // The back worker walks downwards: an equal revenue is a
            // lower index, which the serial sweep would have kept.
            End::Back => rev >= self.best_rev,
        };
        if better {
            self.best_rev = rev;
            std::mem::swap(&mut self.best, &mut self.weights);
        }
    }

    /// The best of a front worker and the back worker that swept the
    /// rest: the back's only when strictly better.
    fn merge(self, back: ThresholdWorker) -> ThresholdWorker {
        if back.best_rev > self.best_rev {
            back
        } else {
            self
        }
    }

    /// Builds and solves `LP(e)` for the threshold valuation `threshold`,
    /// leaves its weights in `self.weights` and returns its objective;
    /// `None` when no edge is forced or the LP fails.
    fn solve(&mut self, h: &Hypergraph, threshold: f64, max_iterations: usize) -> Option<f64> {
        self.forced.clear();
        self.forced.extend(
            h.edges()
                .iter()
                .enumerate()
                .filter(|(_, e)| forced(e, threshold))
                .map(|(i, _)| i),
        );
        if self.forced.is_empty() {
            return None;
        }

        // Restrict LP variables to the items that actually occur in forced
        // edges, numbered in order of first occurrence.
        for &j in &self.item_of_var {
            self.var_of_item[j] = NO_VAR;
        }
        self.item_of_var.clear();
        for &ei in &self.forced {
            for j in h.edge(ei).items.iter() {
                if self.var_of_item[j] == NO_VAR {
                    self.var_of_item[j] = self.item_of_var.len();
                    self.item_of_var.push(j);
                }
            }
        }

        let lp = &mut self.lp;
        lp.clear(self.item_of_var.len());
        lp.set_max_iterations(max_iterations);
        // Objective: each item weight is collected once per forced edge
        // containing the item.
        for &ei in &self.forced {
            for j in h.edge(ei).items.iter() {
                lp.add_objective(self.var_of_item[j], 1.0);
            }
        }
        // Constraints: every forced edge must remain affordable.
        for &ei in &self.forced {
            let e = h.edge(ei);
            if e.items.is_empty() {
                continue; // 0 <= v_e holds trivially.
            }
            let coeffs = e.items.iter().map(|j| (self.var_of_item[j], 1.0));
            lp.add_constraint(coeffs, ConstraintOp::Le, e.valuation);
        }

        let sol = lp.solve_with(&mut self.ws).ok()?;
        self.weights.fill(0.0);
        for (var, &item) in self.item_of_var.iter().enumerate() {
            self.weights[item] = sol.primal[var].max(0.0);
        }
        Some(sol.objective)
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{self, test_support, uniform_item_price};

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
        let mut worker = ThresholdWorker::new(&h, LpSize::of(&h, 0.0));
        let obj = worker.solve(&h, 0.0, 100_000).unwrap();
        let rev = revenue::item_pricing_revenue(&h, &worker.weights);
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

    /// Item 0 in six edges valued `60 / i`: the threshold `60 / i` forces
    /// `i` of them at weight `60 / i`, so every threshold earns exactly 60
    /// with different weights. An empty edge adds a seventh threshold that
    /// forces all six at weight 10.
    fn all_thresholds_tie() -> Hypergraph {
        let mut h = Hypergraph::new(2);
        for i in 1..=6 {
            h.add_edge(vec![0], 60.0 / i as f64);
        }
        h.add_edge(Vec::<usize>::new(), 3.0);
        h
    }

    fn bits(weights: &[f64]) -> Vec<u64> {
        weights.iter().map(|w| w.to_bits()).collect()
    }

    fn item_weights(out: &PricingOutcome) -> &[f64] {
        match &out.pricing {
            Pricing::Item { weights } => weights,
            other => panic!("LPIP returned {other:?}"),
        }
    }

    /// Runs the front worker over `0..meet` and the back worker over
    /// `meet..len`, one after the other, and merges them.
    fn split_sweep(h: &Hypergraph, config: &LpipConfig, meet: usize) -> Vec<f64> {
        let thresholds = thresholds(h, config.max_lps);
        let size = LpSize::of(h, *thresholds.last().unwrap());
        let run = |indices: &mut dyn Iterator<Item = usize>, end| {
            let mut worker = ThresholdWorker::new(h, size);
            for i in indices {
                worker.consider(h, thresholds[i], config.max_lp_iterations, end);
            }
            worker
        };
        let front = run(&mut (0..meet), End::Front);
        let back = run(&mut (meet..thresholds.len()).rev(), End::Back);
        front.merge(back).best
    }

    #[test]
    fn every_meeting_point_gives_the_serial_weights() {
        let configs = [
            LpipConfig::default(),
            LpipConfig {
                max_lps: Some(4),
                max_lp_iterations: 200_000,
            },
            LpipConfig {
                max_lps: None,
                max_lp_iterations: 1,
            },
        ];
        for h in [
            all_thresholds_tie(),
            test_support::small(),
            test_support::star(&[1.0, 2.0, 4.0, 8.0, 8.0, 3.0]),
        ] {
            for config in &configs {
                let serial = algorithms::reference::lp_item_price(&h, config);
                let len = thresholds(&h, config.max_lps).len();
                for meet in 0..=len {
                    assert_eq!(
                        bits(&split_sweep(&h, config, meet)),
                        bits(item_weights(&serial)),
                        "meeting at {meet} of {len} ({config:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn ties_keep_the_first_threshold() {
        let h = all_thresholds_tie();
        for workers in [1, 2] {
            let out = lp_item_price_on(&h, &LpipConfig::default(), workers);
            assert_eq!(item_weights(&out)[0], 60.0, "workers={workers}");
        }
    }
}

/// A warm worker's allocations, counted by a global allocator that tallies
/// each thread's allocations separately.
#[cfg(test)]
mod alloc_tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    struct Counting;

    thread_local! {
        static ALLOCS: Cell<usize> = const { Cell::new(0) };
    }

    fn count() {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // so the caller's guarantees are exactly the ones `System` needs; the
    // counter is a const-initialized thread-local `Cell`, which never
    // allocates.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            // SAFETY: forwarded as received.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count();
            // SAFETY: forwarded as received.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
            // SAFETY: forwarded as received; `ptr` came from `System`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: forwarded as received; `ptr` came from `System`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    fn allocs() -> usize {
        ALLOCS.with(Cell::get)
    }

    /// `scale` copies of one pattern over disjoint items: eight thresholds
    /// whatever the scale, with `scale` times the rows and items.
    fn scaled(scale: usize) -> Hypergraph {
        let mut h = Hypergraph::new(5 * scale);
        for c in 0..scale {
            let base = 5 * c;
            for (k, v) in [9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0]
                .into_iter()
                .enumerate()
            {
                h.add_edge([base + k % 5, base + (k * 3 + 1) % 5], v);
                h.add_edge([base + (k + 2) % 5], v + 0.5 * (k % 2) as f64);
            }
        }
        h
    }

    /// Allocations of each threshold LP a worker sized for the sweep
    /// solves, in sweep order.
    fn per_threshold(h: &Hypergraph) -> Vec<usize> {
        let thresholds = thresholds(h, None);
        let mut worker = ThresholdWorker::new(h, LpSize::of(h, *thresholds.last().unwrap()));
        thresholds
            .iter()
            .map(|&t| {
                let before = allocs();
                worker.solve(h, t, 200_000).unwrap();
                revenue::item_pricing_revenue(h, &worker.weights);
                allocs() - before
            })
            .collect()
    }

    #[test]
    fn warm_worker_allocations_do_not_grow_with_the_lp() {
        let small = per_threshold(&scaled(1));
        // The primal and dual vectors of each solve, nothing else.
        assert!(small.iter().all(|&n| n == 2), "{small:?}");
        for scale in [4, 16, 64] {
            assert_eq!(per_threshold(&scaled(scale)), small, "scale {scale}");
        }
    }

    /// Each worker's allocations are counted on the thread that runs it.
    #[test]
    fn a_sized_sweep_allocates_only_results_per_threshold() {
        for scale in [1, 16] {
            let h = scaled(scale);
            let thresholds = thresholds(&h, None);
            let size = LpSize::of(&h, *thresholds.last().unwrap());
            for workers in [1, 2] {
                let mut states: Vec<_> = (0..workers)
                    .map(|_| (ThresholdWorker::new(&h, size), 0))
                    .collect();
                let before = allocs();
                parallel::claim(&mut states, thresholds.len(), |(worker, n), i, end| {
                    let before = allocs();
                    worker.consider(&h, thresholds[i], 200_000, end);
                    *n += allocs() - before;
                });
                let on_caller = allocs() - before;
                let worked: usize = states.iter().map(|s| s.1).sum();
                assert_eq!(worked, 2 * thresholds.len(), "scale {scale}");
                if workers == 1 {
                    assert_eq!(on_caller, worked, "the inline claim allocates nothing");
                }
            }
        }
    }
}
