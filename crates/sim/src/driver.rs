//! The transport-agnostic settle driver.
//!
//! The engine's inner loop — fan a tick's buyers across worker threads,
//! quote each buyer's query, settle at the quoted price, collect outcomes
//! in arrival order — does not actually care *where* the quotes come from.
//! [`SettleTransport`] abstracts that boundary: the in-process
//! implementation quotes against a live [`Broker`] (the original `qp-sim`
//! path), and `qp-server`'s loadgen implements the same trait over its TCP
//! wire protocol, so the **same deterministic event loop** drives both an
//! in-process broker and a remote shard set. That sharing is what makes
//! the server's revenue-determinism self-check meaningful: the two runs
//! differ only in transport, never in sampling or aggregation.
//!
//! A transport hands each worker thread its own [`SettleWorker`] (a network
//! transport gives each worker a dedicated — typically pooled — connection;
//! the broker transport just shares the `Sync` broker), and exposes the two
//! repricing entry points
//! the engine needs — install a fresh pricing, or apply an incremental
//! [`PricingPatch`] — so live repricing also flows through the transport.
//!
//! Determinism contract: a worker must settle a quote at exactly the quoted
//! price, and the reported [`SettledQuote`] must carry the buyer's true
//! conflict set (the demand observation repricing is computed from). Two
//! transports fronting the same pricing state then produce bit-identical
//! revenue for the same seed, because [`settle_batch_into`] writes outcomes
//! at each buyer's arrival index regardless of worker interleaving.

use qp_core::parallel::claim_map_into;
use qp_core::ItemSet;
use qp_market::{Broker, PurchaseOutcome};
use qp_pricing::algorithms::PricingPatch;
use qp_pricing::Pricing;

use crate::population::{Buyer, Population};

/// One quoted-and-settled buyer, in arrival order.
#[derive(Debug, Clone)]
pub struct SettledQuote {
    /// Whether the buyer bought at the quoted price.
    pub sold: bool,
    /// The quoted (and, if sold, paid) price.
    pub price: f64,
    /// The buyer's bid — the engine's demand observation for repricing.
    pub budget: f64,
    /// The conflict set of the buyer's query.
    pub conflict_set: ItemSet,
    /// Wall-clock quote+settle round trip in microseconds, as measured by
    /// the worker (in-process broker call or network round trip). Feeds
    /// the per-tick latency quantiles; never feeds pricing.
    pub latency_us: u64,
}

/// Per-thread settle state: quotes one buyer and settles at the quoted
/// price. Workers are handed out by [`SettleTransport::worker`], one per
/// fan-out thread.
pub trait SettleWorker {
    /// Quotes `buyer`'s query (resolved through `population`, which is the
    /// schedule's phase `phase`) and settles it at the quoted price.
    fn quote_and_settle(
        &mut self,
        population: &Population,
        phase: usize,
        buyer: &Buyer,
        tick: u64,
    ) -> SettledQuote;
}

/// A quoting backend the engine can drive: hands out per-thread workers and
/// accepts the two kinds of live repricing.
pub trait SettleTransport: Sync {
    /// The per-thread worker type (e.g. a dedicated network connection).
    type Worker: SettleWorker + Send;

    /// Creates one worker; called once per fan-out thread.
    fn worker(&self) -> Self::Worker;

    /// Installs a freshly computed pricing (the full-rebuild repricing
    /// path). Must not return before the pricing is visible to quotes
    /// issued afterwards.
    fn install_pricing(&self, pricing: Pricing);

    /// Applies an incremental pricing patch (the delta repricing path).
    /// Must not return before the patch is visible to quotes issued
    /// afterwards.
    fn apply_patch(&self, patch: &PricingPatch);

    /// Number of support items behind the pricing (sizes the demand
    /// window's hypergraph).
    fn num_items(&self) -> usize;
}

/// Quotes and settles a batch of buyers on `workers` workers (at least
/// one), the calling thread included, through
/// `qp_core::parallel::claim_map_into`; the workers' [`SettleWorker`]s are
/// built on the calling thread.
///
/// `slots` is cleared, then holds `Some(outcome)` at every buyer's arrival
/// index, so callers aggregate in a thread-independent order — the root of
/// the same-seed determinism guarantee. The engine drains it each tick so
/// only its *capacity* persists.
pub fn settle_batch_into<T: SettleTransport>(
    transport: &T,
    population: &Population,
    phase: usize,
    buyers: &[Buyer],
    tick: u64,
    workers: usize,
    slots: &mut Vec<Option<SettledQuote>>,
) {
    let mut states: Vec<T::Worker> = (0..workers.max(1).min(buyers.len()))
        .map(|_| transport.worker())
        .collect();
    claim_map_into(
        buyers,
        &mut states,
        |worker, buyer| worker.quote_and_settle(population, phase, buyer, tick),
        slots,
    )
}

/// The in-process transport: quotes directly against a shared [`Broker`].
/// This is the original `qp-sim` hot path, now expressed as one
/// [`SettleTransport`] among others.
pub struct BrokerTransport<'a> {
    /// The live broker quotes are priced against.
    pub broker: &'a Broker,
}

impl<'a> SettleTransport for BrokerTransport<'a> {
    // The broker is Sync, so every worker just shares it.
    type Worker = &'a Broker;

    fn worker(&self) -> &'a Broker {
        self.broker
    }

    fn install_pricing(&self, pricing: Pricing) {
        self.broker.set_pricing(pricing);
    }

    fn apply_patch(&self, patch: &PricingPatch) {
        self.broker.apply_delta(patch);
    }

    fn num_items(&self) -> usize {
        self.broker.support().len()
    }
}

impl SettleWorker for &Broker {
    /// Quotes one buyer's query against the live pricing and settles at the
    /// quoted price. A query that fails to evaluate counts as a failed sale
    /// (see [`Broker::settle`]).
    fn quote_and_settle(
        &mut self,
        population: &Population,
        _phase: usize,
        buyer: &Buyer,
        _tick: u64,
    ) -> SettledQuote {
        let query = population.query(buyer);
        // timing: measures the quote+settle round trip for the report's
        // latency quantiles; the outcome never depends on it.
        let started = std::time::Instant::now();
        let quote = self.quote(query);
        let price = quote.price;
        let sold = matches!(
            self.settle(&quote, query, buyer.budget),
            Ok(PurchaseOutcome::Sold { .. })
        );
        SettledQuote {
            sold,
            price,
            budget: buyer.budget,
            conflict_set: quote.conflict_set,
            latency_us: started.elapsed().as_micros() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{BudgetModel, BuyerSegment};
    use parking_lot::Mutex;
    use qp_qdb::Query;

    /// A deterministic fake backend: prices every bundle at `|segment| +
    /// query index`, sells when the budget covers it, and records repricing
    /// calls — enough to pin the driver's plumbing without a database.
    struct FakeTransport {
        patches: Mutex<Vec<String>>,
    }

    struct FakeWorker;

    impl SettleWorker for FakeWorker {
        fn quote_and_settle(
            &mut self,
            _population: &Population,
            phase: usize,
            buyer: &Buyer,
            _tick: u64,
        ) -> SettledQuote {
            let price = (phase * 100 + buyer.segment * 10 + buyer.query) as f64;
            SettledQuote {
                sold: buyer.budget + 1e-9 >= price,
                price,
                budget: buyer.budget,
                conflict_set: [buyer.query].as_slice().into(),
                latency_us: 0,
            }
        }
    }

    impl SettleTransport for FakeTransport {
        type Worker = FakeWorker;
        fn worker(&self) -> FakeWorker {
            FakeWorker
        }
        fn install_pricing(&self, pricing: Pricing) {
            self.patches.lock().push(format!("install:{pricing:?}"));
        }
        fn apply_patch(&self, patch: &PricingPatch) {
            self.patches.lock().push(format!("patch:{patch:?}"));
        }
        fn num_items(&self) -> usize {
            8
        }
    }

    fn population() -> Population {
        Population::new(vec![BuyerSegment::new(
            "all",
            (0..6).map(|i| Query::scan(format!("T{i}"))).collect(),
            BudgetModel::Uniform { lo: 0.0, hi: 10.0 },
        )])
    }

    #[test]
    fn settle_batch_preserves_arrival_order_at_any_worker_count() {
        let transport = FakeTransport {
            patches: Mutex::new(Vec::new()),
        };
        let pop = population();
        let buyers: Vec<Buyer> = (0..37)
            .map(|i| Buyer {
                segment: 0,
                query: i % 6,
                budget: i as f64,
            })
            .collect();
        let settle = |workers, slots: &mut Vec<Option<SettledQuote>>| {
            settle_batch_into(&transport, &pop, 1, &buyers, 7, workers, slots);
            assert_eq!(slots.len(), buyers.len());
            slots
                .iter()
                .map(|o| o.clone().expect("every slot is filled"))
                .collect::<Vec<_>>()
        };
        let serial = settle(1, &mut Vec::new());
        // One buffer across calls, as the engine reuses it.
        let mut slots = Vec::new();
        for workers in [2, 4, 8, 1] {
            let parallel = settle(workers, &mut slots);
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.sold, b.sold, "workers={workers}");
                assert_eq!(a.price.to_bits(), b.price.to_bits());
                assert_eq!(a.conflict_set, b.conflict_set);
            }
        }
        // The phase index reached the worker (prices carry the 100·phase
        // component).
        assert!(serial.iter().all(|s| s.price >= 100.0));
    }

    #[test]
    fn repricing_calls_route_through_the_transport() {
        let transport = FakeTransport {
            patches: Mutex::new(Vec::new()),
        };
        transport.install_pricing(Pricing::UniformBundle { price: 3.0 });
        transport.apply_patch(&PricingPatch::SetUniformPrice(4.0));
        let log = transport.patches.lock();
        assert_eq!(log.len(), 2);
        assert!(log[0].starts_with("install:"));
        assert!(log[1].starts_with("patch:"));
    }
}
