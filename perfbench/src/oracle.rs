//! The served-price oracle.
//!
//! The oracle keeps its own copy of the pricing at every epoch: the seed
//! pricing the replicas were built with, then the same patch sequence the
//! server applied, in the epoch order the server reported. A served
//! `(price, epoch)` is correct only if it is bit-equal to the oracle's
//! pricing of that bundle at that epoch.

use std::collections::BTreeMap;

use qp_core::ItemSet;
use qp_pricing::algorithms::PricingPatch;
use qp_pricing::{BundlePricing, Pricing};

/// Budget slack of a settle, as documented for `ShardSet::settle`.
pub const BUDGET_EPSILON: f64 = 1e-9;

pub struct PriceOracle {
    by_epoch: BTreeMap<u64, Pricing>,
}

/// One served session as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub bundle: u32,
    pub budget: f64,
    pub price: f64,
    pub epoch: u64,
    pub sold: bool,
    pub settled_price: f64,
}

impl PriceOracle {
    pub fn new(seed_pricing: Pricing, seed_epoch: u64) -> PriceOracle {
        PriceOracle {
            by_epoch: BTreeMap::from([(seed_epoch, seed_pricing)]),
        }
    }

    /// Records that the server reached `epoch` by applying `patch`.
    /// Repricings may be recorded in any order; they are replayed in epoch
    /// order by [`PriceOracle::from_log`].
    fn push(&mut self, epoch: u64, patch: &PricingPatch) {
        let (_, latest) = self
            .by_epoch
            .iter()
            .next_back()
            .expect("the oracle always holds its seed pricing");
        let mut next = latest.clone();
        patch.apply(&mut next);
        self.by_epoch.insert(epoch, next);
    }

    /// Builds the oracle from the seed pricing and a log of
    /// `(epoch after, patch)` repricings, sorted by epoch here.
    pub fn from_log(seed: Pricing, seed_epoch: u64, log: &[(u64, &PricingPatch)]) -> PriceOracle {
        let mut oracle = PriceOracle::new(seed, seed_epoch);
        let mut sorted: Vec<&(u64, &PricingPatch)> = log.iter().collect();
        sorted.sort_by_key(|(epoch, _)| *epoch);
        for (epoch, patch) in sorted {
            oracle.push(*epoch, patch);
        }
        oracle
    }

    /// The price the pricing at `epoch` assigns `bundle`, if the oracle
    /// knows that epoch.
    pub fn expected(&self, epoch: u64, bundle: &ItemSet) -> Option<f64> {
        self.by_epoch.get(&epoch).map(|p| p.price_set(bundle))
    }

    /// Checks one served session: the quoted price is bit-equal to the
    /// oracle's, the purchase honored the quoted price, and it sold exactly
    /// when the price was within the budget.
    pub fn check(&self, s: &Served, bundles: &[ItemSet]) -> bool {
        let Some(expected) = self.expected(s.epoch, &bundles[s.bundle as usize]) else {
            return false;
        };
        expected.to_bits() == s.price.to_bits()
            && s.settled_price.to_bits() == s.price.to_bits()
            && s.sold == (s.price <= s.budget + BUDGET_EPSILON)
    }

    /// Number of sessions that fail [`PriceOracle::check`].
    pub fn mismatches(&self, served: &[Served], bundles: &[ItemSet]) -> usize {
        served.iter().filter(|s| !self.check(s, bundles)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Rng;

    fn bundles() -> Vec<ItemSet> {
        (0..20usize)
            .map(|i| {
                ItemSet::from(
                    (0..=i % 7)
                        .map(|j| (j * 3 + i) % 40)
                        .collect::<Vec<_>>()
                        .as_slice(),
                )
            })
            .collect()
    }

    /// A correct server: applies the patches in order and serves
    /// `(price, epoch)` from its current pricing.
    fn honest_log(seed: u64) -> (Pricing, Vec<PricingPatch>, Vec<Served>) {
        let seed_pricing = Pricing::Item {
            weights: (0..40).map(|i| 0.5 + i as f64 / 40.0).collect(),
        };
        let mut rng = Rng::new(seed);
        let patches: Vec<PricingPatch> = (0..5)
            .map(|_| PricingPatch::SetUniformWeight {
                weight: rng.range(0.1, 1.0),
                num_items: 40,
            })
            .collect();
        let bundles = bundles();
        let mut live = seed_pricing.clone();
        let mut epoch = 1;
        let mut served = Vec::new();
        for round in 0..=patches.len() {
            for _ in 0..30 {
                let bundle = rng.below(bundles.len()) as u32;
                let budget = rng.range(0.0, 8.0);
                let price = live.price_set(&bundles[bundle as usize]);
                served.push(Served {
                    bundle,
                    budget,
                    price,
                    epoch,
                    sold: price <= budget + BUDGET_EPSILON,
                    settled_price: price,
                });
            }
            if let Some(patch) = patches.get(round) {
                patch.apply(&mut live);
                epoch += 1;
            }
        }
        (seed_pricing, patches, served)
    }

    fn oracle_for(seed_pricing: Pricing, patches: &[PricingPatch]) -> PriceOracle {
        // Log the repricings out of order: the oracle sorts by epoch.
        let mut log: Vec<(u64, &PricingPatch)> = patches
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u64 + 2, p))
            .collect();
        log.reverse();
        PriceOracle::from_log(seed_pricing, 1, &log)
    }

    #[test]
    fn honest_server_passes() {
        let (seed_pricing, patches, served) = honest_log(3);
        let oracle = oracle_for(seed_pricing, &patches);
        assert_eq!(oracle.mismatches(&served, &bundles()), 0);
    }

    #[test]
    fn buggy_twin_with_a_corrupted_price_is_caught() {
        for seed in 0..8u64 {
            let (seed_pricing, patches, mut served) = honest_log(seed);
            let oracle = oracle_for(seed_pricing, &patches);
            // The twin serves one price one ulp off, at a seeded position;
            // it settles consistently at that price, so only the oracle
            // comparison can notice.
            let victim = Rng::new(seed).below(served.len());
            let s = &mut served[victim];
            s.price = f64::from_bits(s.price.to_bits() + 1);
            s.settled_price = s.price;
            s.sold = s.price <= s.budget + BUDGET_EPSILON;
            assert_eq!(oracle.mismatches(&served, &bundles()), 1, "seed {seed}");
            assert!(!oracle.check(&served[victim], &bundles()));
        }
    }

    #[test]
    fn stale_epoch_and_dishonored_purchase_are_caught() {
        let (seed_pricing, patches, served) = honest_log(5);
        let oracle = oracle_for(seed_pricing, &patches);
        let bundles = bundles();
        let mut unknown_epoch = served[0];
        unknown_epoch.epoch = 99;
        assert!(!oracle.check(&unknown_epoch, &bundles));
        let mut dishonored = served[0];
        dishonored.settled_price = dishonored.price + 1.0;
        assert!(!oracle.check(&dishonored, &bundles));
        let mut wrong_verdict = served[0];
        wrong_verdict.sold = !wrong_verdict.sold;
        assert!(!oracle.check(&wrong_verdict, &bundles));
    }
}
