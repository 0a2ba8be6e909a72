//! Incremental repricing: patch a pricing in place as demand changes.
//!
//! The paper's algorithms assume a static demand hypergraph; a live market
//! learns demand from buyer interactions (the online setting of *Pricing
//! Queries (Approximately) Optimally*), so repricing is a hot path. This
//! module is the `RepriceIncremental` capability: algorithms whose optimum
//! has a cheap update rule expose an [`IncrementalRepricer`] through
//! [`super::PricingAlgorithm::reprice_incremental`], and the [`Repricer`]
//! driver transparently falls back to a full recompute for the rest.
//!
//! Cheap update rules implemented here:
//!
//! * **UBP** ([`UbpIncremental`], exact) — the optimal uniform bundle price
//!   depends only on the multiset of valuations. A sorted run-length
//!   multiset (contiguous `Vec`, keyed by the valuation's IEEE-754 bits,
//!   which order identically to the non-negative floats themselves)
//!   absorbs each delta as one O(m + |delta| log |delta|) three-way merge;
//!   the optimum is re-read with one cache-friendly descending scan over
//!   the *distinct* values — no hypergraph rebuild, no O(m log m) re-sort.
//! * **UIP** ([`UipIncremental`], exact) — the same run-length idea over
//!   the candidate rates `v_e / |e|`, but stored as a flat struct-of-arrays
//!   [`RateTable`] (`keys` / `counts` / `sizes` in three parallel `Vec`s)
//!   merged by a **galloping two-pointer batch merge**: the sorted delta is
//!   coalesced per distinct key, the next affected base key is found by
//!   exponential-then-binary search, and the unaffected runs in between are
//!   bulk-copied with `extend_from_slice`. A 1% delta against a 10k-rate
//!   table thus costs a handful of memcpys plus O(|delta| log m) probes
//!   instead of a 10k-entry branchy walk. The pre-rewrite per-entry walk is
//!   kept in [`super::reference`] as the differential oracle
//!   (`tests/differential_merge.rs` proves batch-merge bit-identity) and
//!   the benchmark baseline.
//!
//! Both exact rules double-buffer their state (`merge into next, swap`), so
//! steady-state repricing reuses the same allocations tick after tick.
//! * **XOS** ([`XosIncremental`], *not* exact) — re-fitting the LPIP/CIP
//!   components means re-running LPs, so the incremental rule keeps the
//!   fitted envelope and re-evaluates its revenue on the updated demand,
//!   re-fitting the components (a full LP recompute) once the absorbed
//!   churn exceeds [`XosIncremental::with_refit_after`]'s fraction of the edge count.
//!
//! "Exact" means the incrementally-maintained pricing is **identical** to
//! what a from-scratch run on the updated hypergraph would return — the
//! differential oracle suite (`tests/differential_delta.rs`) asserts exact
//! equality after every random delta. Both exact rules re-read revenue
//! through [`crate::revenue::revenue`] on the maintained graph, so the
//! reported revenue is bit-identical to the full run's too.

use crate::algorithms::{xos_pricing, CipConfig, LpipConfig, PricingAlgorithm};
use crate::{revenue, AppliedOp, Hypergraph, Pricing, PricingOutcome};

/// The minimal change a repricing made to the installed [`Pricing`] — what a
/// broker applies under its write lock instead of swapping a whole pricing.
#[derive(Debug, Clone, PartialEq)]
pub enum PricingPatch {
    /// Nothing changed (e.g. the XOS envelope is reused as-is).
    Keep,
    /// Install this pricing wholesale (the full-recompute fallback).
    Replace(Pricing),
    /// Set the uniform bundle price (UBP's one-float patch).
    SetUniformPrice(f64),
    /// Set every item weight to one value (UIP's in-place patch; replaces
    /// the pricing if the installed one is not an item pricing over
    /// `num_items` items).
    SetUniformWeight {
        /// The uniform per-item weight.
        weight: f64,
        /// Number of items the weight vector covers.
        num_items: usize,
    },
}

impl PricingPatch {
    /// Applies the patch to an installed pricing, reusing its allocation
    /// where the shapes line up.
    pub fn apply(&self, pricing: &mut Pricing) {
        match self {
            PricingPatch::Keep => {}
            PricingPatch::Replace(p) => *pricing = p.clone(),
            PricingPatch::SetUniformPrice(p) => match pricing {
                Pricing::UniformBundle { price } => *price = *p,
                other => *other = Pricing::UniformBundle { price: *p },
            },
            PricingPatch::SetUniformWeight { weight, num_items } => match pricing {
                Pricing::Item { weights } if weights.len() == *num_items => {
                    weights.iter_mut().for_each(|w| *w = *weight);
                }
                other => {
                    *other = Pricing::Item {
                        weights: vec![*weight; *num_items],
                    }
                }
            },
        }
    }
}

/// The incremental-repricing capability: stateful mirror of one algorithm's
/// optimum that absorbs [`AppliedOp`] logs instead of re-reading the whole
/// hypergraph.
///
/// Protocol: [`IncrementalRepricer::prime`] once on a full hypergraph, then
/// [`IncrementalRepricer::apply`] after every [`Hypergraph::apply_delta`]
/// with the ops that call returned. `apply` sees the hypergraph **after**
/// the delta landed.
pub trait IncrementalRepricer: Send {
    /// The underlying algorithm's registry name.
    fn algorithm(&self) -> &'static str;

    /// Whether [`IncrementalRepricer::apply`] is guaranteed to return
    /// exactly what a from-scratch run on the updated hypergraph would.
    fn exact(&self) -> bool;

    /// (Re)builds the internal state from a full hypergraph and returns the
    /// initial outcome (equivalent to the full algorithm run).
    fn prime(&mut self, h: &Hypergraph) -> PricingOutcome;

    /// Absorbs the ops of one applied delta and returns the patched outcome
    /// plus the minimal [`PricingPatch`] a broker needs to install it.
    fn apply(&mut self, h: &Hypergraph, ops: &[AppliedOp]) -> (PricingOutcome, PricingPatch);
}

/// Orderable key for a non-negative (possibly +∞) valuation: for IEEE-754
/// floats in `[+0, +∞]` the bit patterns order exactly like the values.
/// `-0.0` (which passes the `v ≥ 0` asserts) is normalized to `+0.0` first.
fn key(v: f64) -> u64 {
    (v + 0.0).to_bits()
}

/// Merges a sorted run-length multiset with a batch of insertions and
/// removals (each carrying a per-key payload accumulated by `Acc`) into a
/// caller-owned sorted run-length multiset (cleared first) in one three-way
/// linear walk — the double-buffering callers swap `out` back, so
/// steady-state merges allocate nothing.
///
/// `base` entries are `(key, accumulated)`, `ins`/`rem` are sorted
/// `(key, payload)` pairs. Panics if a removal exceeds what the base plus
/// the batch's own insertions hold — that is a state-desync bug, never a
/// recoverable condition.
fn merge_counts<A: Acc>(
    base: &[(u64, A)],
    ins: &[(u64, A::Item)],
    rem: &[(u64, A::Item)],
    out: &mut Vec<(u64, A)>,
) {
    out.clear();
    out.reserve(base.len() + ins.len());
    let (mut b, mut i, mut r) = (0usize, 0usize, 0usize);
    loop {
        let mut k = u64::MAX;
        let mut any = false;
        if b < base.len() {
            k = k.min(base[b].0);
            any = true;
        }
        if i < ins.len() {
            k = k.min(ins[i].0);
            any = true;
        }
        if r < rem.len() {
            k = k.min(rem[r].0);
            any = true;
        }
        if !any {
            break;
        }
        let mut acc = A::default();
        if b < base.len() && base[b].0 == k {
            acc.merge(&base[b].1);
            b += 1;
        }
        while i < ins.len() && ins[i].0 == k {
            acc.add(&ins[i].1);
            i += 1;
        }
        while r < rem.len() && rem[r].0 == k {
            acc.sub(&rem[r].1);
            r += 1;
        }
        if !acc.is_zero() {
            out.push((k, acc));
        }
    }
}

/// Per-key payload accumulated by [`merge_counts`].
trait Acc: Default {
    /// The per-element payload carried by an insertion or removal.
    type Item;
    fn merge(&mut self, other: &Self);
    fn add(&mut self, item: &Self::Item);
    /// Panics when removing more than is tracked (state desync).
    fn sub(&mut self, item: &Self::Item);
    fn is_zero(&self) -> bool;
}

/// UBP payload: the multiplicity of one distinct valuation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Count(usize);

impl Acc for Count {
    type Item = ();
    fn merge(&mut self, other: &Count) {
        self.0 += other.0;
    }
    fn add(&mut self, _: &()) {
        self.0 += 1;
    }
    fn sub(&mut self, _: &()) {
        assert!(
            self.0 > 0,
            "incremental repricer out of sync: removing an untracked valuation"
        );
        self.0 -= 1;
    }
    fn is_zero(&self) -> bool {
        self.0 == 0
    }
}

/// UBP's incremental rule (see the module docs). Exact.
#[derive(Debug, Clone, Default)]
pub struct UbpIncremental {
    /// Run-length multiset of edge valuations: distinct IEEE-bit keys
    /// ascending (= numeric ascending) with multiplicities, contiguous so
    /// the optimum scan streams through cache.
    vals: Vec<(u64, Count)>,
    /// Per-delta staging buffers (insertions, removals) and the merge's
    /// double buffer, all reused across `apply` calls.
    ins: Vec<(u64, ())>,
    rem: Vec<(u64, ())>,
    next: Vec<(u64, Count)>,
}

impl UbpIncremental {
    /// An unprimed UBP repricer.
    pub fn new() -> UbpIncremental {
        UbpIncremental::default()
    }

    /// Replays the full algorithm's price scan over the distinct valuations,
    /// descending: the candidate price `v` sells every bundle valued ≥ `v`.
    /// Tie-breaking matches [`crate::algorithms::uniform_bundle_price`]
    /// exactly (strict improvement, higher price wins revenue ties).
    fn best_price(&self) -> f64 {
        let mut best_price = 0.0;
        let mut best_rev = 0.0;
        let mut sold = 0usize;
        for &(bits, Count(count)) in self.vals.iter().rev() {
            sold += count;
            let v = f64::from_bits(bits);
            let rev = v * sold as f64;
            if rev > best_rev {
                best_rev = rev;
                best_price = v;
            }
        }
        best_price
    }

    fn outcome(&self, h: &Hypergraph) -> PricingOutcome {
        let pricing = Pricing::UniformBundle {
            price: self.best_price(),
        };
        let rev = revenue::revenue(h, &pricing);
        PricingOutcome {
            algorithm: "UBP",
            revenue: rev,
            pricing,
        }
    }
}

impl IncrementalRepricer for UbpIncremental {
    fn algorithm(&self) -> &'static str {
        "UBP"
    }

    fn exact(&self) -> bool {
        true
    }

    fn prime(&mut self, h: &Hypergraph) -> PricingOutcome {
        let mut keys: Vec<u64> = h.edges().iter().map(|e| key(e.valuation)).collect();
        keys.sort_unstable();
        self.vals.clear();
        for k in keys {
            match self.vals.last_mut() {
                Some((last, count)) if *last == k => count.0 += 1,
                _ => self.vals.push((k, Count(1))),
            }
        }
        self.outcome(h)
    }

    fn apply(&mut self, h: &Hypergraph, ops: &[AppliedOp]) -> (PricingOutcome, PricingPatch) {
        self.ins.clear();
        self.rem.clear();
        for op in ops {
            match op {
                AppliedOp::Added { valuation, .. } => self.ins.push((key(*valuation), ())),
                AppliedOp::Removed { edge, .. } => self.rem.push((key(edge.valuation), ())),
                AppliedOp::Revalued { old, new, .. } => {
                    self.rem.push((key(*old), ()));
                    self.ins.push((key(*new), ()));
                }
            }
        }
        self.ins.sort_unstable_by_key(|e| e.0);
        self.rem.sort_unstable_by_key(|e| e.0);
        merge_counts(&self.vals, &self.ins, &self.rem, &mut self.next);
        std::mem::swap(&mut self.vals, &mut self.next);

        let out = self.outcome(h);
        let Pricing::UniformBundle { price } = out.pricing else {
            unreachable!("UBP always returns a uniform bundle pricing");
        };
        (out, PricingPatch::SetUniformPrice(price))
    }
}

/// The candidate rate of a non-empty bundle, or `None` for empty bundles
/// (which contribute no candidate — exactly as the full algorithm filters).
fn rate_key(valuation: f64, size: usize) -> Option<(u64, usize)> {
    (size > 0).then(|| (key(valuation / size as f64), size))
}

/// UIP's run-length rate multiset as a flat struct-of-arrays: three
/// parallel vectors holding, per distinct rate (IEEE-bit key, ascending =
/// numeric ascending), how many non-empty bundles share it and the sum of
/// their sizes.
///
/// The SoA layout is what makes [`RateTable::merge_batch`] fast: the
/// optimum scan touches only `keys` + `sizes` (no padding, no `counts`
/// traffic), and the batch merge moves unaffected runs with three
/// `extend_from_slice` memcpys instead of walking entries one by one.
/// Semantically this is exactly the old `Vec<(u64, RateGroup)>` — the
/// [`super::reference`] module keeps that form and `tests/differential_merge.rs`
/// proves the two merge paths bit-identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RateTable {
    keys: Vec<u64>,
    counts: Vec<usize>,
    sizes: Vec<usize>,
}

impl RateTable {
    /// An empty table.
    pub fn new() -> RateTable {
        RateTable::default()
    }

    /// Number of distinct rates.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no rates are tracked.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Empties the table, keeping its capacity.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.counts.clear();
        self.sizes.clear();
    }

    /// Appends one run-length entry; `key` must exceed the current last key
    /// (entries stay sorted) and `count` must be positive.
    pub fn push(&mut self, key: u64, count: usize, sizes: usize) {
        debug_assert!(self.keys.last().is_none_or(|&last| last < key));
        debug_assert!(count > 0);
        self.keys.push(key);
        self.counts.push(count);
        self.sizes.push(sizes);
    }

    /// The entries as `(key, count, summed sizes)`, ascending by key.
    pub fn entries(&self) -> impl Iterator<Item = (u64, usize, usize)> + '_ {
        self.keys
            .iter()
            .zip(&self.counts)
            .zip(&self.sizes)
            .map(|((&k, &c), &s)| (k, c, s))
    }

    /// Merges a sorted delta batch into `out` (cleared first): `ins`/`rem`
    /// are sorted `(key, bundle size)` pairs, one per inserted/removed
    /// non-empty bundle.
    ///
    /// This is the galloping two-pointer merge (module docs): per distinct
    /// delta key the batch is coalesced into net count/size adjustments,
    /// the run of base entries below that key is located by
    /// exponential-then-binary search and bulk-copied, and the affected
    /// entry is adjusted in one step. Bit-identical to
    /// [`super::reference::merge_rates`], including the desync panic: a batch
    /// that removes more than the base plus its own insertions hold at any
    /// key panics — per-entry asserts and the batch-total assert agree
    /// because the old walk applied all additions before any subtraction,
    /// so its running value decreased monotonically through the removals.
    pub fn merge_batch(&self, ins: &[(u64, usize)], rem: &[(u64, usize)], out: &mut RateTable) {
        out.clear();
        out.keys.reserve(self.len() + ins.len());
        out.counts.reserve(self.len() + ins.len());
        out.sizes.reserve(self.len() + ins.len());
        let (mut i, mut r, mut b) = (0usize, 0usize, 0usize);
        while i < ins.len() || r < rem.len() {
            let k = match (ins.get(i), rem.get(r)) {
                (Some(&(ki, _)), Some(&(kr, _))) => ki.min(kr),
                (Some(&(ki, _)), None) => ki,
                (None, Some(&(kr, _))) => kr,
                (None, None) => unreachable!("loop condition holds one side"),
            };
            // Coalesce the whole batch at this key into net adjustments.
            let (mut n_ins, mut sum_ins) = (0usize, 0usize);
            while i < ins.len() && ins[i].0 == k {
                n_ins += 1;
                sum_ins += ins[i].1;
                i += 1;
            }
            let (mut n_rem, mut sum_rem) = (0usize, 0usize);
            while r < rem.len() && rem[r].0 == k {
                n_rem += 1;
                sum_rem += rem[r].1;
                r += 1;
            }
            // Gallop to the first base entry ≥ k and bulk-copy the
            // unaffected run below it.
            let lo = b + gallop_lower_bound(&self.keys[b..], k);
            out.keys.extend_from_slice(&self.keys[b..lo]);
            out.counts.extend_from_slice(&self.counts[b..lo]);
            out.sizes.extend_from_slice(&self.sizes[b..lo]);
            b = lo;
            let (mut count, mut size_sum) = (0usize, 0usize);
            if b < self.keys.len() && self.keys[b] == k {
                count = self.counts[b];
                size_sum = self.sizes[b];
                b += 1;
            }
            assert!(
                count + n_ins >= n_rem && size_sum + sum_ins >= sum_rem,
                "incremental repricer out of sync: removing an untracked rate"
            );
            let count = count + n_ins - n_rem;
            let size_sum = size_sum + sum_ins - sum_rem;
            if count > 0 {
                out.keys.push(k);
                out.counts.push(count);
                out.sizes.push(size_sum);
            }
        }
        out.keys.extend_from_slice(&self.keys[b..]);
        out.counts.extend_from_slice(&self.counts[b..]);
        out.sizes.extend_from_slice(&self.sizes[b..]);
    }
}

/// The index of the first element of `keys` that is `>= k` (all of `keys`
/// when none is), found by exponential probing from the front followed by a
/// binary search over the bracketed window.
///
/// Batch merges call this once per distinct delta key with `keys` already
/// advanced past the previous key's position, so the cost is O(log gap) in
/// the *distance to the next affected entry*, not O(log m) in the table —
/// the gallop is what keeps sparse deltas near O(|delta|).
fn gallop_lower_bound(keys: &[u64], k: u64) -> usize {
    if keys.first().is_none_or(|&x| x >= k) {
        return 0;
    }
    // keys[hi / 2] < k at every iteration exit.
    let mut hi = 1usize;
    while hi < keys.len() && keys[hi] < k {
        hi *= 2;
    }
    let lo = hi / 2 + 1;
    let hi = hi.min(keys.len());
    lo + keys[lo..hi].partition_point(|&x| x < k)
}

/// UIP's incremental rule (see the module docs). Exact.
#[derive(Debug, Clone, Default)]
pub struct UipIncremental {
    /// Run-length multiset of distinct rates `v/|e|`, struct-of-arrays.
    rates: RateTable,
    /// Per-delta staging buffers (insertions, removals) and the merge's
    /// double buffer, all reused across `apply` calls.
    ins: Vec<(u64, usize)>,
    rem: Vec<(u64, usize)>,
    next: RateTable,
}

impl UipIncremental {
    /// An unprimed UIP repricer.
    pub fn new() -> UipIncremental {
        UipIncremental::default()
    }

    /// Replays [`crate::algorithms::uniform_item_price`]'s candidate scan:
    /// descending rates with cumulative bundle sizes, strict improvement.
    /// Float op order is identical to the pre-SoA scan, so the winning
    /// weight is bit-identical.
    fn best_weight(&self) -> f64 {
        let mut best_w = 0.0;
        let mut best_rev = 0.0;
        let mut sold_items = 0usize;
        for i in (0..self.rates.len()).rev() {
            sold_items += self.rates.sizes[i];
            let rate = f64::from_bits(self.rates.keys[i]);
            let rev = rate * sold_items as f64;
            if rev > best_rev {
                best_rev = rev;
                best_w = rate;
            }
        }
        best_w
    }

    fn outcome(&self, h: &Hypergraph) -> (PricingOutcome, f64) {
        let w = self.best_weight();
        let pricing = Pricing::Item {
            weights: vec![w; h.num_items()],
        };
        let rev = revenue::revenue(h, &pricing);
        (
            PricingOutcome {
                algorithm: "UIP",
                revenue: rev,
                pricing,
            },
            w,
        )
    }
}

impl IncrementalRepricer for UipIncremental {
    fn algorithm(&self) -> &'static str {
        "UIP"
    }

    fn exact(&self) -> bool {
        true
    }

    fn prime(&mut self, h: &Hypergraph) -> PricingOutcome {
        self.ins.clear();
        self.ins.extend(
            h.edges()
                .iter()
                .filter_map(|e| rate_key(e.valuation, e.size())),
        );
        self.ins.sort_unstable_by_key(|e| e.0);
        self.rates.clear();
        for &(k, size) in &self.ins {
            if self.rates.keys.last() == Some(&k) {
                let last = self.rates.len() - 1;
                self.rates.counts[last] += 1;
                self.rates.sizes[last] += size;
            } else {
                self.rates.push(k, 1, size);
            }
        }
        self.ins.clear();
        self.outcome(h).0
    }

    fn apply(&mut self, h: &Hypergraph, ops: &[AppliedOp]) -> (PricingOutcome, PricingPatch) {
        self.ins.clear();
        self.rem.clear();
        for op in ops {
            match op {
                AppliedOp::Added {
                    valuation, size, ..
                } => self.ins.extend(rate_key(*valuation, *size)),
                AppliedOp::Removed { edge, .. } => {
                    self.rem.extend(rate_key(edge.valuation, edge.size()))
                }
                AppliedOp::Revalued { size, old, new, .. } => {
                    self.rem.extend(rate_key(*old, *size));
                    self.ins.extend(rate_key(*new, *size));
                }
            }
        }
        self.ins.sort_unstable_by_key(|e| e.0);
        self.rem.sort_unstable_by_key(|e| e.0);
        self.rates.merge_batch(&self.ins, &self.rem, &mut self.next);
        std::mem::swap(&mut self.rates, &mut self.next);

        let (out, w) = self.outcome(h);
        let patch = PricingPatch::SetUniformWeight {
            weight: w,
            num_items: h.num_items(),
        };
        (out, patch)
    }
}

/// XOS's incremental rule: reuse the fitted LPIP/CIP envelope, re-evaluate
/// its revenue on the updated demand, and **re-fit** (re-run the component
/// LPs) once the demand has churned past the [`XosIncremental::with_refit_after`] fraction —
/// the periodic full recompute that bounds envelope drift. **Not exact** —
/// between refits a full recompute would generally return a different
/// envelope.
#[derive(Debug, Clone)]
pub struct XosIncremental {
    lpip: LpipConfig,
    cip: CipConfig,
    components: Vec<Vec<f64>>,
    /// Re-fit once the ops absorbed since the last fit exceed this fraction
    /// of the current edge count (0.5 by default; `f64::INFINITY` disables
    /// refitting entirely).
    refit_after: f64,
    ops_since_fit: usize,
}

impl XosIncremental {
    /// Ops-per-edge churn fraction that triggers a refit by default.
    pub const DEFAULT_REFIT_AFTER: f64 = 0.5;

    /// An unprimed XOS repricer with the given component configurations and
    /// the default refit threshold.
    pub fn new(lpip: LpipConfig, cip: CipConfig) -> XosIncremental {
        XosIncremental {
            lpip,
            cip,
            // alloc: one-time construction; refits reuse the fitted buffers.
            components: Vec::new(),
            refit_after: Self::DEFAULT_REFIT_AFTER,
            ops_since_fit: 0,
        }
    }

    /// Overrides the churn fraction that triggers an envelope refit
    /// (`f64::INFINITY` reuses the primed envelope forever).
    pub fn with_refit_after(mut self, fraction: f64) -> XosIncremental {
        assert!(fraction >= 0.0, "refit fraction must be non-negative");
        self.refit_after = fraction;
        self
    }
}

impl IncrementalRepricer for XosIncremental {
    fn algorithm(&self) -> &'static str {
        "XOS"
    }

    fn exact(&self) -> bool {
        false
    }

    fn prime(&mut self, h: &Hypergraph) -> PricingOutcome {
        let out = xos_pricing(h, &self.lpip, &self.cip);
        let Pricing::Xos { components } = &out.pricing else {
            unreachable!("XOS always returns an XOS pricing");
        };
        self.components = components.clone();
        self.ops_since_fit = 0;
        out
    }

    fn apply(&mut self, h: &Hypergraph, ops: &[AppliedOp]) -> (PricingOutcome, PricingPatch) {
        self.ops_since_fit += ops.len();
        if self.ops_since_fit as f64 >= self.refit_after * h.num_edges().max(1) as f64 {
            let out = self.prime(h);
            let patch = PricingPatch::Replace(out.pricing.clone());
            return (out, patch);
        }
        let pricing = Pricing::Xos {
            components: self.components.clone(),
        };
        let rev = revenue::revenue(h, &pricing);
        (
            PricingOutcome {
                algorithm: "XOS",
                revenue: rev,
                pricing,
            },
            PricingPatch::Keep,
        )
    }
}

/// Drives one registry algorithm through a stream of repricings, using its
/// incremental capability when it has one and falling back to full
/// recomputes when it does not (or before the first priming).
pub struct Repricer {
    algo: Box<dyn PricingAlgorithm>,
    incremental: Option<Box<dyn IncrementalRepricer>>,
    primed: bool,
}

impl Repricer {
    /// Wraps a registry algorithm, probing its incremental capability.
    pub fn new(algo: Box<dyn PricingAlgorithm>) -> Repricer {
        let incremental = algo.reprice_incremental();
        Repricer {
            algo,
            incremental,
            primed: false,
        }
    }

    /// The wrapped algorithm's registry name.
    pub fn algorithm(&self) -> &str {
        self.algo.name()
    }

    /// Whether repricings after the first will take the incremental path.
    pub fn is_incremental(&self) -> bool {
        self.incremental.is_some()
    }

    /// Runs the full algorithm, bypassing any incremental state (the
    /// full-rebuild baseline; does not prime).
    pub fn run_full(&self, h: &Hypergraph) -> PricingOutcome {
        self.algo.run(h)
    }

    /// Reprices on the updated hypergraph: the first call primes (full run),
    /// later calls absorb `ops` incrementally; algorithms without the
    /// capability run in full every time. Returns the outcome and the
    /// minimal patch to install it.
    pub fn reprice(&mut self, h: &Hypergraph, ops: &[AppliedOp]) -> (PricingOutcome, PricingPatch) {
        match &mut self.incremental {
            Some(inc) if self.primed => inc.apply(h, ops),
            Some(inc) => {
                self.primed = true;
                let out = inc.prime(h);
                let patch = PricingPatch::Replace(out.pricing.clone());
                (out, patch)
            }
            None => {
                let out = self.algo.run(h);
                let patch = PricingPatch::Replace(out.pricing.clone());
                (out, patch)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{self, reference, uniform_bundle_price, uniform_item_price};
    use crate::HypergraphDelta;

    fn graph() -> Hypergraph {
        let mut h = Hypergraph::new(4);
        h.add_edge(vec![0], 8.0);
        h.add_edge(vec![1], 2.0);
        h.add_edge(vec![0, 1], 9.0);
        h.add_edge(vec![1, 2], 4.0);
        h
    }

    #[test]
    fn ubp_incremental_tracks_the_full_algorithm_exactly() {
        let mut h = graph();
        let mut inc = UbpIncremental::new();
        let primed = inc.prime(&h);
        let full = uniform_bundle_price(&h);
        assert_eq!(primed.pricing, full.pricing);
        assert_eq!(primed.revenue.to_bits(), full.revenue.to_bits());

        let mut delta = HypergraphDelta::new();
        delta
            .add_edge([2usize, 3].into_iter().collect(), 11.0)
            .remove_edge(0)
            .revalue_edge(1, 1.0);
        let ops = h.apply_delta(delta);
        let (out, patch) = inc.apply(&h, &ops);
        let full = uniform_bundle_price(&h);
        assert_eq!(out.pricing, full.pricing);
        assert_eq!(out.revenue.to_bits(), full.revenue.to_bits());
        let Pricing::UniformBundle { price } = full.pricing else {
            unreachable!()
        };
        assert_eq!(patch, PricingPatch::SetUniformPrice(price));
    }

    #[test]
    fn uip_incremental_tracks_the_full_algorithm_exactly() {
        let mut h = graph();
        let mut inc = UipIncremental::new();
        inc.prime(&h);

        let mut delta = HypergraphDelta::new();
        delta
            .add_edge([0usize, 2, 3].into_iter().collect(), 12.0)
            .revalue_edge(2, 3.0)
            .remove_edge(1);
        let ops = h.apply_delta(delta);
        let (out, patch) = inc.apply(&h, &ops);
        let full = uniform_item_price(&h);
        assert_eq!(out.pricing, full.pricing);
        assert_eq!(out.revenue.to_bits(), full.revenue.to_bits());
        assert!(matches!(patch, PricingPatch::SetUniformWeight { .. }));
    }

    #[test]
    fn galloping_batch_merge_matches_the_reference_walk() {
        // A base multiset with clustered and isolated keys, plus a delta
        // batch that hits existing keys, creates new ones, annihilates one
        // entirely, and repeats keys within one batch.
        let base = vec![
            (10u64, reference::RateEntry { count: 2, sizes: 7 }),
            (20, reference::RateEntry { count: 1, sizes: 3 }),
            (21, reference::RateEntry { count: 4, sizes: 9 }),
            (50, reference::RateEntry { count: 1, sizes: 2 }),
            (
                90,
                reference::RateEntry {
                    count: 3,
                    sizes: 12,
                },
            ),
        ];
        let ins = vec![(5u64, 4usize), (20, 1), (20, 2), (60, 5), (95, 1)];
        let rem = vec![(10u64, 3usize), (20, 3), (50, 2), (90, 4)];
        let expected = reference::merge_rates(&base, &ins, &rem);

        let table = reference::table_from_entries(&base);
        let mut out = RateTable::new();
        table.merge_batch(&ins, &rem, &mut out);
        assert_eq!(reference::entries_from_table(&out), expected);

        // An empty delta is an identity copy.
        table.merge_batch(&[], &[], &mut out);
        assert_eq!(reference::entries_from_table(&out), base);

        // A delta against an empty base builds the table from scratch.
        RateTable::new().merge_batch(&ins, &[], &mut out);
        assert_eq!(
            reference::entries_from_table(&out),
            reference::merge_rates(&[], &ins, &[])
        );
    }

    #[test]
    #[should_panic(expected = "removing an untracked rate")]
    fn batch_merge_panics_on_untracked_removal() {
        let table =
            reference::table_from_entries(&[(10u64, reference::RateEntry { count: 1, sizes: 2 })]);
        let mut out = RateTable::new();
        // Two removals at a key holding one bundle: state desync.
        table.merge_batch(&[], &[(10, 2), (10, 2)], &mut out);
    }

    #[test]
    fn empty_bundles_never_become_rate_candidates() {
        let mut h = Hypergraph::new(2);
        h.add_edge(Vec::<usize>::new(), 5.0);
        h.add_edge(vec![0], 3.0);
        let mut inc = UipIncremental::new();
        inc.prime(&h);
        let mut delta = HypergraphDelta::new();
        delta.remove_edge(0).add_edge(qp_core::ItemSet::new(), 7.0);
        let ops = h.apply_delta(delta);
        let (out, _) = inc.apply(&h, &ops);
        assert_eq!(out.pricing, uniform_item_price(&h).pricing);
    }

    #[test]
    fn xos_incremental_reuses_the_envelope_and_reports_true_revenue() {
        let mut h = graph();
        let mut inc = XosIncremental::new(LpipConfig::default(), CipConfig::default())
            .with_refit_after(f64::INFINITY); // pin the envelope for this test
        let primed = inc.prime(&h);

        let mut delta = HypergraphDelta::new();
        delta.add_edge([3usize].into_iter().collect(), 6.0);
        let ops = h.apply_delta(delta);
        let (out, patch) = inc.apply(&h, &ops);
        // Envelope unchanged, revenue re-read against the new demand.
        assert_eq!(out.pricing, primed.pricing);
        assert_eq!(
            out.revenue.to_bits(),
            revenue::revenue(&h, &out.pricing).to_bits()
        );
        assert_eq!(patch, PricingPatch::Keep);
        assert!(!inc.exact());
    }

    #[test]
    fn xos_incremental_refits_the_envelope_once_churn_accumulates() {
        // Demand shifts wholesale: with the default threshold the envelope
        // must be re-fitted (a Replace patch) instead of going stale.
        let mut h = graph();
        let mut inc = XosIncremental::new(LpipConfig::default(), CipConfig::default());
        let primed = inc.prime(&h);

        let mut delta = HypergraphDelta::new();
        for _ in 0..h.num_edges() {
            delta.remove_edge(0);
        }
        delta
            .add_edge([0usize].into_iter().collect(), 20.0)
            .add_edge([1usize].into_iter().collect(), 25.0)
            .add_edge([2usize].into_iter().collect(), 30.0)
            .add_edge([3usize].into_iter().collect(), 50.0);
        let ops = h.apply_delta(delta);
        let (out, patch) = inc.apply(&h, &ops);
        assert!(
            matches!(patch, PricingPatch::Replace(_)),
            "churn past the threshold must refit, got {patch:?}"
        );
        // The refit equals a fresh full XOS run on the new demand…
        let full = xos_pricing(&h, &LpipConfig::default(), &CipConfig::default());
        assert_eq!(out.pricing, full.pricing);
        assert_ne!(out.pricing, primed.pricing, "the old envelope was stale");
        // …and the churn counter reset: a tiny follow-up delta reuses it.
        let mut delta = HypergraphDelta::new();
        delta.revalue_edge(0, 31.0);
        let ops = h.apply_delta(delta);
        let (_, patch) = inc.apply(&h, &ops);
        assert_eq!(patch, PricingPatch::Keep);
    }

    #[test]
    fn repricer_falls_back_to_full_runs_without_the_capability() {
        let mut h = graph();
        let mut layering = Repricer::new(algorithms::by_name("Layering").unwrap());
        assert!(!layering.is_incremental());
        let (out, patch) = layering.reprice(&h, &[]);
        assert!(matches!(patch, PricingPatch::Replace(_)));

        let mut delta = HypergraphDelta::new();
        delta.remove_edge(2);
        let ops = h.apply_delta(delta);
        let (out2, patch2) = layering.reprice(&h, &ops);
        assert!(matches!(patch2, PricingPatch::Replace(_)));
        // Full reruns both times: outcomes match direct runs.
        assert!(out.revenue >= 0.0 && out2.revenue >= 0.0);
        assert_eq!(
            out2.revenue.to_bits(),
            layering.run_full(&h).revenue.to_bits()
        );
    }

    #[test]
    fn repricer_primes_then_patches_for_incremental_algorithms() {
        let mut h = graph();
        let mut ubp = Repricer::new(algorithms::by_name("UBP").unwrap());
        assert!(ubp.is_incremental());
        assert_eq!(ubp.algorithm(), "UBP");
        let (_, patch) = ubp.reprice(&h, &[]);
        assert!(
            matches!(patch, PricingPatch::Replace(_)),
            "first call primes"
        );

        let mut delta = HypergraphDelta::new();
        delta.add_edge([0usize].into_iter().collect(), 20.0);
        let ops = h.apply_delta(delta);
        let (out, patch) = ubp.reprice(&h, &ops);
        assert!(matches!(patch, PricingPatch::SetUniformPrice(_)));
        assert_eq!(out.pricing, uniform_bundle_price(&h).pricing);
    }

    #[test]
    fn patches_mutate_pricings_in_place_or_replace_on_shape_mismatch() {
        let mut p = Pricing::UniformBundle { price: 3.0 };
        PricingPatch::SetUniformPrice(5.0).apply(&mut p);
        assert_eq!(p, Pricing::UniformBundle { price: 5.0 });

        PricingPatch::SetUniformWeight {
            weight: 2.0,
            num_items: 3,
        }
        .apply(&mut p);
        assert_eq!(
            p,
            Pricing::Item {
                weights: vec![2.0; 3]
            }
        );
        PricingPatch::SetUniformWeight {
            weight: 4.0,
            num_items: 3,
        }
        .apply(&mut p);
        assert_eq!(
            p,
            Pricing::Item {
                weights: vec![4.0; 3]
            }
        );

        let before = p.clone();
        PricingPatch::Keep.apply(&mut p);
        assert_eq!(p, before);

        PricingPatch::Replace(Pricing::UniformBundle { price: 1.0 }).apply(&mut p);
        assert_eq!(p, Pricing::UniformBundle { price: 1.0 });
    }

    #[test]
    fn negative_zero_valuations_normalize_into_the_positive_key() {
        assert_eq!(key(-0.0), key(0.0));
        assert!(key(1.0) > key(0.5));
        assert!(key(f64::INFINITY) > key(1e300));
    }
}
