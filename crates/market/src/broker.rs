//! The broker: a concurrent, end-to-end query-pricing engine.
//!
//! A [`Broker`] owns the seller's database, a sampled support set, and a
//! pricing function, and exposes the operations a data marketplace needs:
//! quote a price for an incoming query (singly or in batches) and execute a
//! purchase (returning the answer when the buyer can afford it). It keeps no
//! books: a sale's outcome goes back to the caller, and whoever needs
//! totals keeps them (`qp-sim`'s report, `qp-server`'s WAL-backed shard
//! ledgers). The pricing function lives behind a
//! [`parking_lot::RwLock`], so a live broker can be **re-priced under read
//! traffic**: `set_pricing(&self, ...)` takes a shared reference and swaps
//! the function atomically while other threads keep quoting.
//!
//! Brokers are assembled with [`BrokerBuilder`]: database → support set →
//! pricing algorithm selected from the [`qp_pricing::algorithms`] registry
//! by name → anticipated buyer queries with valuations. `build()` computes
//! the conflict-set hypergraph of the anticipated queries (fanned across the
//! [`ParallelConflictEngine`]'s workers), runs the selected algorithm on it,
//! and installs the resulting pricing. Quotes carry their conflict set as a
//! [`qp_core::ItemSet`] bitset and are priced through
//! [`BundlePricing::price_set`] without materializing index vectors.
//!
//! # The pricing epoch and the cache-invalidation contract
//!
//! Every observable change to the installed pricing — a wholesale
//! [`Broker::set_pricing`] swap or an incremental [`Broker::apply_delta`]
//! patch (other than `PricingPatch::Keep`, which changes nothing) —
//! increments a monotone **pricing epoch**, readable with
//! [`Broker::pricing_epoch`]. The counter is bumped *while holding the same
//! write lock* that guards the pricing, which gives layered caches (e.g.
//! `qp-server`'s per-shard quote caches) a precise contract:
//!
//! 1. A cached price tagged with epoch `e` may be served as long as
//!    `pricing_epoch() == e`. Any repricing strictly increases the epoch,
//!    so a tag mismatch detects **every** pricing change — there is no
//!    ABA window.
//! 2. [`Broker::versioned_price`] returns a `(price, epoch)` pair that is
//!    *atomically consistent*: it reads the epoch while holding the pricing
//!    read lock, and writers bump the epoch while holding the write lock,
//!    so the pair can never mix one epoch's price with another's tag. Fill
//!    caches only from this method.
//! 3. The epoch says nothing about *quotes already issued*: a quote is
//!    honored at its quoted price ([`Broker::settle`]) even if the epoch
//!    has moved on. Invalidation applies to caches, not to contracts with
//!    buyers.
//!
//! # Lock-order and epoch discipline (machine-checked)
//!
//! The rules this module relies on — verified by the `qp-verify` model
//! checker (`cargo run --release -p qp-verify`, models `no-stale-quote`
//! and `rw-atomicity`) and enforced going forward by `qp-lint`:
//!
//! * **The epoch moves only inside the pricing write-lock critical
//!   section** (`set_pricing` / `apply_delta`). Bumping it anywhere else
//!   reopens the stale-quote race the checker's seeded-bug model
//!   demonstrates (lint rule `epoch-outside-lock`).
//! * **Epoch reads that tag a price must happen under the pricing read
//!   lock** — that is what makes `versioned_price`'s pair consistent.
//!   A bare `pricing_epoch()` is only a freshness hint.
//! * **Lock order**: the pricing lock is the broker's only lock, and a
//!   leaf — nothing else is acquired while it is held. Callers layering
//!   caches on top (e.g. `qp-server`'s shards) must release their cache
//!   locks before calling into the broker, or take them strictly after the
//!   broker call returns.
//! * **Synchronization goes through the `parking_lot` facade** (including
//!   its `atomic` module), never `std::sync` directly, so
//!   `--cfg qp_verify` builds can interpose the checker's instrumented
//!   shims on production code (lint rule `std-sync`).

use parking_lot::atomic::{AtomicU64, Ordering};

use parking_lot::{RwLock, RwLockReadGuard};

use qp_core::ItemSet;
use qp_pricing::algorithms::{self, CipConfig, LpipConfig, PricingPatch};
use qp_pricing::{BundlePricing, Hypergraph, Pricing};
use qp_qdb::{Database, QdbError, Query, Relation};
use qp_telemetry::{SpanHandle, TelemetrySink};

use crate::conflict::{ConflictEngine, DeltaConflictEngine, ParallelConflictEngine};
use crate::support::{SupportConfig, SupportSet};

/// Budget slack of a settle: a quote sells when `price <= budget +
/// BUDGET_EPSILON`. [`Broker::settle`] and `qp-server`'s shard settle share
/// it, so the in-process and network paths make identical sold/declined
/// calls.
pub const BUDGET_EPSILON: f64 = 1e-9;

/// A priced query quote.
#[derive(Debug, Clone)]
pub struct QuotedQuery {
    /// The conflict set of the query (the bundle being priced).
    pub conflict_set: ItemSet,
    /// The quoted price.
    pub price: f64,
}

/// The result of a purchase attempt.
#[derive(Debug, Clone)]
pub enum PurchaseOutcome {
    /// The buyer's budget covered the price; the answer is released.
    Sold {
        /// The price charged.
        price: f64,
        /// The query answer.
        answer: Relation,
    },
    /// The quoted price exceeded the buyer's budget; nothing is released.
    Declined {
        /// The price that was quoted.
        price: f64,
    },
}

/// Errors from [`BrokerBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerBuildError {
    /// The requested pricing algorithm is not in the registry.
    UnknownAlgorithm(String),
}

impl std::fmt::Display for BrokerBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrokerBuildError::UnknownAlgorithm(name) => {
                write!(f, "unknown pricing algorithm {name:?}; see qp_pricing::algorithms::PAPER_ALGORITHMS")
            }
        }
    }
}

impl std::error::Error for BrokerBuildError {}

/// Step-by-step construction of a [`Broker`].
///
/// ```no_run
/// # use qp_market::{Broker, SupportConfig};
/// # use qp_qdb::{Database, Query};
/// # let db = Database::new();
/// let broker = Broker::builder(db)
///     .support_config(SupportConfig::with_size(500))
///     .algorithm("LPIP")
///     .anticipate(Query::scan("User"), 25.0)
///     .build()
///     .expect("LPIP is a registered algorithm");
/// ```
pub struct BrokerBuilder {
    db: Database,
    support: Option<SupportSet>,
    support_config: SupportConfig,
    algorithm: Option<String>,
    lpip: LpipConfig,
    cip: CipConfig,
    anticipated: Vec<(Query, f64)>,
    telemetry: TelemetrySink,
}

impl BrokerBuilder {
    /// Starts a builder over the seller's database.
    pub fn new(db: Database) -> BrokerBuilder {
        BrokerBuilder {
            db,
            support: None,
            support_config: SupportConfig::default(),
            algorithm: None,
            lpip: LpipConfig::default(),
            cip: CipConfig::default(),
            anticipated: Vec::new(),
            telemetry: TelemetrySink::Disabled,
        }
    }

    /// Attaches a telemetry sink: quote/reprice/settle stages record spans
    /// and counters into it. The default is `TelemetrySink::Disabled`,
    /// whose handles are inert (no clock reads, no atomics) — telemetry is
    /// strictly out-of-band either way and never affects prices, RNG, or
    /// revenue.
    pub fn telemetry(mut self, sink: TelemetrySink) -> BrokerBuilder {
        self.telemetry = sink;
        self
    }

    /// Samples the support set with `config` (ignored if [`Self::support`]
    /// provides a pre-generated one).
    pub fn support_config(mut self, config: SupportConfig) -> BrokerBuilder {
        self.support_config = config;
        self
    }

    /// Uses a pre-generated support set instead of sampling one.
    pub fn support(mut self, support: SupportSet) -> BrokerBuilder {
        self.support = Some(support);
        self
    }

    /// Selects the pricing algorithm by its registry name (e.g. `"LPIP"`;
    /// see [`algorithms::PAPER_ALGORITHMS`]). Without an algorithm the broker
    /// starts with the all-zero pricing.
    pub fn algorithm(mut self, name: impl Into<String>) -> BrokerBuilder {
        self.algorithm = Some(name.into());
        self
    }

    /// Tunes the LP-based algorithms (LPIP / CIP / XOS) selected by
    /// [`Self::algorithm`].
    pub fn lp_configs(mut self, lpip: LpipConfig, cip: CipConfig) -> BrokerBuilder {
        self.lpip = lpip;
        self.cip = cip;
        self
    }

    /// Registers an anticipated buyer query and its expected valuation; the
    /// selected algorithm prices against the hypergraph of these queries.
    pub fn anticipate(mut self, query: Query, valuation: f64) -> BrokerBuilder {
        self.anticipated.push((query, valuation));
        self
    }

    /// Registers many anticipated `(query, valuation)` pairs at once.
    pub fn anticipate_all(
        mut self,
        queries: impl IntoIterator<Item = (Query, f64)>,
    ) -> BrokerBuilder {
        self.anticipated.extend(queries);
        self
    }

    /// Builds the broker: samples the support (unless given), computes the
    /// conflict-set hypergraph of the anticipated queries, runs the selected
    /// algorithm, and installs its pricing.
    pub fn build(self) -> Result<Broker, BrokerBuildError> {
        let algorithm = match &self.algorithm {
            Some(name) => Some(
                algorithms::by_name_with(name, &self.lpip, &self.cip)
                    .ok_or_else(|| BrokerBuildError::UnknownAlgorithm(name.clone()))?,
            ),
            None => None,
        };

        let support = match self.support {
            Some(s) => s,
            None => SupportSet::generate(&self.db, &self.support_config),
        };
        let broker = Broker::with_support(self.db, support).with_telemetry(self.telemetry);

        if let Some(algo) = algorithm {
            // The anticipated workload is a batch, so the conflict sets fan
            // out across the parallel engine's workers.
            let engine = ParallelConflictEngine::new(&broker.db, &broker.support);
            let queries: Vec<Query> = self.anticipated.iter().map(|(q, _)| q.clone()).collect();
            let conflict_sets = engine.conflict_sets(&queries);
            let mut h = Hypergraph::new(broker.support().len());
            for (set, (_, v)) in conflict_sets.into_iter().zip(&self.anticipated) {
                h.add_edge_set(set, *v);
            }
            broker.set_pricing(algo.run(&h).pricing);
        }
        Ok(broker)
    }
}

/// A data-market broker for a single dataset.
///
/// All operations take `&self`; the broker is `Sync` and safe to share
/// across threads (e.g. behind an `Arc`), with pricing swaps serialized
/// against in-flight quotes by an internal reader–writer lock.
pub struct Broker {
    db: Database,
    support: SupportSet,
    pricing: RwLock<Pricing>,
    /// Monotone count of observable pricing changes; bumped under the
    /// `pricing` write lock (see the module docs for the invalidation
    /// contract this gives layered caches).
    epoch: AtomicU64,
    /// Pre-registered observability handles (inert on a disabled sink).
    telemetry: BrokerTelemetry,
}

/// The broker's pre-registered telemetry handles: span sites resolved once
/// at construction so no hot path touches a registration lock. With a
/// `Disabled` sink every handle is inert — entering a span is a branch,
/// with no clock read and no atomic.
#[derive(Debug, Clone, Default)]
struct BrokerTelemetry {
    sink: TelemetrySink,
    /// `reprice.apply` — installing a pricing swap or patch.
    reprice: SpanHandle,
    /// `settle.ledger` — settling a quote (`qp-server`'s shard settle
    /// records the same series).
    settle: SpanHandle,
}

impl BrokerTelemetry {
    fn new(sink: TelemetrySink) -> BrokerTelemetry {
        BrokerTelemetry {
            reprice: sink.span_handle("reprice.apply"),
            settle: sink.span_handle("settle.ledger"),
            sink,
        }
    }
}

impl Broker {
    /// Starts a [`BrokerBuilder`] over `db`.
    pub fn builder(db: Database) -> BrokerBuilder {
        BrokerBuilder::new(db)
    }

    /// Creates a broker over `db`, sampling a fresh support set.
    pub fn new(db: Database, support_config: &SupportConfig) -> Broker {
        let support = SupportSet::generate(&db, support_config);
        Broker::with_support(db, support)
    }

    /// Creates a broker with a pre-generated support set.
    pub fn with_support(db: Database, support: SupportSet) -> Broker {
        let n = support.len();
        Broker {
            db,
            support,
            pricing: RwLock::new(Pricing::zero_items(n)),
            epoch: AtomicU64::new(0),
            telemetry: BrokerTelemetry::default(),
        }
    }

    /// Attaches a telemetry sink to an already-constructed broker,
    /// pre-registering its span sites. See
    /// [`BrokerBuilder::telemetry`].
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Broker {
        self.telemetry = BrokerTelemetry::new(sink);
        self
    }

    /// The telemetry sink this broker records into (`Disabled` unless one
    /// was attached). Layered components (shards, simulators) share it so
    /// one registry aggregates the whole stack.
    pub fn telemetry_sink(&self) -> &TelemetrySink {
        &self.telemetry.sink
    }

    /// The seller's database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The support set backing the prices.
    pub fn support(&self) -> &SupportSet {
        &self.support
    }

    /// Installs the pricing function to quote against (usually the output of
    /// a registry algorithm).
    ///
    /// Takes `&self`: a broker shared across threads can be re-priced while
    /// other threads quote. In-flight quotes that already read the old
    /// pricing complete against it; quotes that start after the swap see the
    /// new one.
    pub fn set_pricing(&self, pricing: Pricing) {
        let _span = self.telemetry.reprice.enter();
        let mut installed = self.pricing.write();
        *installed = pricing;
        // Bumped while the write lock is held: no reader can observe the
        // new pricing with the old epoch (or vice versa).
        // ordering: Release — pairs with the Acquire loads in
        // pricing_epoch()/versioned_price(), publishing the new pricing to
        // epoch observers.
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Patches the installed pricing **in place** under the same write lock
    /// as [`Broker::set_pricing`] — the incremental-repricing hot path.
    ///
    /// Where a full repricing constructs a fresh [`Pricing`] and swaps it,
    /// an incremental repricer (see [`qp_pricing::algorithms::Repricer`])
    /// usually changes one float (UBP's uniform price, UIP's uniform
    /// weight); this applies that change directly to the installed value,
    /// reusing its allocation where shapes line up. The lock discipline is
    /// identical to `set_pricing`: in-flight quotes that already hold the
    /// read lock finish against the old pricing, quotes that start after
    /// the patch see the new one, and workers keep quoting throughout —
    /// `PricingPatch::Keep` never takes the write lock at all.
    pub fn apply_delta(&self, patch: &PricingPatch) {
        if matches!(patch, PricingPatch::Keep) {
            return; // nothing changes, so the epoch must not move either
        }
        let _span = self.telemetry.reprice.enter();
        let mut installed = self.pricing.write();
        patch.apply(&mut installed);
        // ordering: Release — same pairing as set_pricing's bump.
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The installed pricing and its epoch as one atomically consistent
    /// pair — the snapshot a durability layer persists.
    pub fn pricing_snapshot(&self) -> (Pricing, u64) {
        let pricing = self.pricing.read();
        // ordering: Acquire — pairs with the Release bumps; consistency of
        // the (pricing, epoch) pair comes from holding the read lock.
        let epoch = self.epoch.load(Ordering::Acquire);
        ((*pricing).clone(), epoch)
    }

    /// Installs recovered pricing state with an **absolute** epoch, for
    /// crash recovery only: unlike [`Broker::set_pricing`] this does not
    /// bump the epoch, because recovery reproduces the pre-crash counter
    /// exactly, so epoch-validated caches re-validate against the same
    /// values. The shard set that owns the WAL calls it after replaying
    /// the log (see `qp-server`'s `ShardSet::restore`).
    pub fn restore_pricing(&self, pricing: Pricing, epoch: u64) {
        let mut installed = self.pricing.write();
        *installed = pricing;
        // ordering: Release — published under the write lock like every
        // other epoch move, pairing with the Acquire loads in
        // pricing_epoch()/versioned_price().
        self.epoch.store(epoch, Ordering::Release);
    }

    /// The current pricing epoch: a monotone counter of observable pricing
    /// changes (`set_pricing`, and every `apply_delta` except
    /// `PricingPatch::Keep`). See the module docs for the invalidation
    /// contract; cache fills must pair prices with epochs through
    /// [`Broker::versioned_price`], not through two separate reads.
    pub fn pricing_epoch(&self) -> u64 {
        // ordering: Acquire — pairs with the Release bumps under the write
        // lock; an observed epoch implies the matching pricing is visible.
        self.epoch.load(Ordering::Acquire)
    }

    /// Prices a bundle and returns the epoch the price belongs to, as one
    /// atomically consistent pair.
    ///
    /// The epoch is read while the pricing read lock is held; since writers
    /// bump the epoch while holding the write lock, the returned pair can
    /// never combine epoch `e` with a price from epoch `e' ≠ e` — the
    /// property a quote cache needs to tag entries safely.
    pub fn versioned_price(&self, bundle: &ItemSet) -> (f64, u64) {
        let pricing = self.pricing.read();
        // ordering: Acquire — pairs with the Release bumps; consistency of
        // the (price, epoch) pair comes from holding the read lock, since
        // writers only move the epoch inside the write-lock section.
        let epoch = self.epoch.load(Ordering::Acquire);
        (pricing.price_set(bundle), epoch)
    }

    /// Read access to the currently installed pricing function.
    ///
    /// The returned guard blocks [`Broker::set_pricing`] until dropped; hold
    /// it only briefly.
    pub fn pricing(&self) -> RwLockReadGuard<'_, Pricing> {
        self.pricing.read()
    }

    /// Computes the conflict set of `query` against the support.
    pub fn conflict_set(&self, query: &Query) -> ItemSet {
        DeltaConflictEngine::new(&self.db, &self.support).conflict_set(query)
    }

    /// Quotes a price for `query` without selling it.
    pub fn quote(&self, query: &Query) -> QuotedQuery {
        let conflict_set = self.conflict_set(query);
        let price = self.pricing.read().price_set(&conflict_set);
        QuotedQuery {
            conflict_set,
            price,
        }
    }

    /// Quotes a batch of queries, fanning conflict-set computation across
    /// the [`ParallelConflictEngine`]'s workers and reading the pricing
    /// function once.
    ///
    /// Equivalent to calling [`Broker::quote`] per query (and the test suite
    /// holds it to that), but parallelizes the per-query conflict sets; the
    /// batch is priced against a single consistent pricing snapshot even if
    /// another thread swaps the pricing mid-batch. Conflict sets — the
    /// dominant cost — are computed *before* the pricing lock is taken, so a
    /// long batch never stalls [`Broker::set_pricing`] (or quoters queued
    /// behind a writer).
    pub fn quote_batch(&self, queries: &[Query]) -> Vec<QuotedQuery> {
        let conflict_sets =
            ParallelConflictEngine::new(&self.db, &self.support).conflict_sets(queries);
        let pricing = self.pricing.read();
        conflict_sets
            .into_iter()
            .map(|conflict_set| QuotedQuery {
                price: pricing.price_set(&conflict_set),
                conflict_set,
            })
            .collect()
    }

    /// Attempts to sell `query` to a buyer with the given `budget`: quotes
    /// it against the installed pricing, then [`Broker::settle`]s the quote.
    pub fn purchase(&self, query: &Query, budget: f64) -> Result<PurchaseOutcome, QdbError> {
        let quote = self.quote(query);
        self.settle(&quote, query, budget)
    }

    /// Settles an already-quoted query: sells at the quoted price if the
    /// budget covers it (within [`BUDGET_EPSILON`]), evaluating the query
    /// on the real database and returning the answer; otherwise declines.
    /// The quote is honored as issued — callers that quoted before a
    /// [`Broker::set_pricing`] swap settle at the old price, which is
    /// exactly the guarantee a marketplace quote carries.
    ///
    /// A covered quote whose query then fails to evaluate returns the
    /// evaluation error: the buyer pays nothing. The broker records
    /// nothing either way; callers that keep books tally the outcome.
    pub fn settle(
        &self,
        quote: &QuotedQuery,
        query: &Query,
        budget: f64,
    ) -> Result<PurchaseOutcome, QdbError> {
        let _span = self.telemetry.settle.enter();
        if quote.price <= budget + BUDGET_EPSILON {
            let answer = query.evaluate(&self.db)?;
            Ok(PurchaseOutcome::Sold {
                price: quote.price,
                answer,
            })
        } else {
            Ok(PurchaseOutcome::Declined { price: quote.price })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_qdb::{AggFunc, ColumnType, Expr, Relation, Schema, Value};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn db() -> Database {
        let mut rel = Relation::new(Schema::new(vec![
            ("name", ColumnType::Str),
            ("gender", ColumnType::Str),
            ("age", ColumnType::Int),
        ]));
        let names = ["Abe", "Alice", "Bob", "Cathy", "Dan", "Eve"];
        for (i, n) in names.iter().enumerate() {
            rel.push(vec![
                (*n).into(),
                if i % 2 == 0 { "m".into() } else { "f".into() },
                Value::Int(18 + i as i64 * 3),
            ])
            .unwrap();
        }
        let mut d = Database::new();
        d.add_table("User", rel);
        d
    }

    fn buyer_queries() -> Vec<Query> {
        vec![
            Query::scan("User")
                .filter(Expr::col("gender").eq(Expr::lit("f")))
                .aggregate(vec![], vec![(AggFunc::Count, None, "c")]),
            Query::scan("User").project_cols(&["name"]),
            Query::scan("User").aggregate(vec![], vec![(AggFunc::Avg, Some("age"), "a")]),
        ]
    }

    fn priced_broker() -> Broker {
        Broker::builder(db())
            .support_config(SupportConfig::with_size(80))
            .algorithm("LPIP")
            .anticipate_all(buyer_queries().into_iter().map(|q| (q, 10.0)))
            .build()
            .expect("LPIP is registered")
    }

    #[test]
    fn builder_selects_algorithms_from_the_registry() {
        let broker = priced_broker();
        // The anticipated queries are priced: at least one quote is positive.
        let quotes = broker.quote_batch(&buyer_queries());
        assert!(quotes.iter().any(|q| q.price > 0.0));

        let Err(err) = Broker::builder(db()).algorithm("nope").build() else {
            panic!("unknown algorithm must fail the build");
        };
        assert_eq!(err, BrokerBuildError::UnknownAlgorithm("nope".into()));
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn quote_is_consistent_with_installed_pricing() {
        let broker = priced_broker();
        for q in buyer_queries() {
            let quote = broker.quote(&q);
            assert!(quote.price >= 0.0);
            assert_eq!(quote.price, broker.pricing().price_set(&quote.conflict_set));
        }
    }

    #[test]
    fn quote_batch_matches_per_query_quotes() {
        let broker = priced_broker();
        let queries = buyer_queries();
        let batch = broker.quote_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, b) in queries.iter().zip(&batch) {
            let single = broker.quote(q);
            assert_eq!(single.conflict_set, b.conflict_set);
            assert_eq!(single.price, b.price);
        }
    }

    #[test]
    fn settle_honors_the_quoted_price_across_a_repricing() {
        // Quote, swap the pricing, then settle: the buyer pays the quoted
        // price, not the new one, and gets the answer.
        let broker = priced_broker();
        let q = &buyer_queries()[1];
        let quote = broker.quote(q);
        let n = broker.support().len();
        broker.set_pricing(Pricing::Item {
            weights: vec![1000.0; n],
        });
        assert!(
            broker.quote(q).price > quote.price + 1.0,
            "the repricing moved the price"
        );
        match broker.settle(&quote, q, quote.price + 1.0).unwrap() {
            PurchaseOutcome::Sold { price, answer } => {
                assert_eq!(price.to_bits(), quote.price.to_bits());
                assert_eq!(answer.len(), 6);
            }
            PurchaseOutcome::Declined { .. } => panic!("the old quote must be honored"),
        }
    }

    #[test]
    fn purchase_declines_below_the_quote() {
        let broker = priced_broker();
        let q = &buyer_queries()[0];
        let quote = broker.quote(q);
        assert!(quote.price > 0.0, "the anticipated query is priced");

        // A budget of exactly the quote buys it.
        match broker.purchase(q, quote.price).unwrap() {
            PurchaseOutcome::Sold { price, answer } => {
                assert_eq!(price.to_bits(), quote.price.to_bits());
                assert_eq!(answer.rows()[0][0], Value::Int(3));
            }
            PurchaseOutcome::Declined { .. } => panic!("budget covers the quote"),
        }
        // A shortfall beyond the budget slack declines at the quoted price.
        for budget in [0.0, quote.price - 10.0 * BUDGET_EPSILON] {
            match broker.settle(&quote, q, budget).unwrap() {
                PurchaseOutcome::Declined { price } => {
                    assert_eq!(price.to_bits(), quote.price.to_bits())
                }
                PurchaseOutcome::Sold { .. } => panic!("budget {budget} is below the quote"),
            }
        }
    }

    #[test]
    fn failed_evaluations_are_errors_not_sales() {
        // A query over a missing table quotes at 0 (empty conflict set), so
        // the budget covers it — but evaluation fails, and the settle
        // returns the error instead of a sale.
        let broker = priced_broker();
        let bad = Query::scan("NoSuchTable");
        let quote = broker.quote(&bad);
        assert_eq!(quote.price, 0.0);
        assert!(broker.settle(&quote, &bad, 10.0).is_err());
        assert!(broker.purchase(&bad, 10.0).is_err());
    }

    #[test]
    fn repricing_a_shared_broker_while_another_thread_quotes() {
        let broker = priced_broker();
        let q = buyer_queries().remove(1);
        let n = broker.support().len();

        // Two pricings the writer alternates between; every quote must see
        // exactly one of them, never a mix or a poisoned lock.
        let low = Pricing::Item {
            weights: vec![1.0; n],
        };
        let high = Pricing::Item {
            weights: vec![2.0; n],
        };
        broker.set_pricing(low.clone());
        let edge = broker.conflict_set(&q).len() as f64;
        let stop = AtomicBool::new(false);
        let quotes_done = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut seen_low = 0usize;
                let mut seen_high = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let price = broker.quote(&q).price;
                    if (price - edge).abs() < 1e-9 {
                        seen_low += 1;
                    } else if (price - 2.0 * edge).abs() < 1e-9 {
                        seen_high += 1;
                    } else {
                        panic!("quote {price} matches neither installed pricing");
                    }
                    quotes_done.fetch_add(1, Ordering::Relaxed);
                }
                (seen_low, seen_high)
            });

            // Keep swapping until the reader has quoted against the broker a
            // few times (at least one swap happens concurrently with a quote;
            // the writer must not outrun thread-spawn latency and stop before
            // the reader's first quote).
            let mut i = 0usize;
            while (quotes_done.load(Ordering::Relaxed) < 3 || i < 200) && !reader.is_finished() {
                // set_pricing through &self — this is the interior-mutability
                // swap under read traffic that the engine API promises.
                broker.set_pricing(if i.is_multiple_of(2) {
                    high.clone()
                } else {
                    low.clone()
                });
                i += 1;
            }
            stop.store(true, Ordering::Relaxed);
            let (seen_low, seen_high) = reader.join().expect("reader must not panic");
            assert!(seen_low + seen_high > 0, "reader never completed a quote");
        });

        // The writer's last swap installed one of the two pricings; the final
        // quote must match it exactly.
        let final_price = broker.quote(&q).price;
        assert!(
            (final_price - edge).abs() < 1e-9 || (final_price - 2.0 * edge).abs() < 1e-9,
            "final quote {final_price} matches neither installed pricing"
        );
    }

    #[test]
    fn apply_delta_patches_the_live_pricing_in_place() {
        let broker = priced_broker();
        let q = &buyer_queries()[1];
        let n = broker.support().len();
        broker.set_pricing(Pricing::UniformBundle { price: 4.0 });
        assert_eq!(broker.quote(q).price, 4.0);

        // The UBP one-float patch lands under the write lock.
        broker.apply_delta(&PricingPatch::SetUniformPrice(9.0));
        assert_eq!(broker.quote(q).price, 9.0);

        // Keep is a no-op (and never takes the lock).
        broker.apply_delta(&PricingPatch::Keep);
        assert_eq!(broker.quote(q).price, 9.0);

        // A shape-changing patch replaces the pricing wholesale.
        broker.apply_delta(&PricingPatch::SetUniformWeight {
            weight: 2.0,
            num_items: n,
        });
        let edge = broker.conflict_set(q).len() as f64;
        assert!((broker.quote(q).price - 2.0 * edge).abs() < 1e-9);

        broker.apply_delta(&PricingPatch::Replace(Pricing::zero_items(n)));
        assert_eq!(broker.quote(q).price, 0.0);
    }

    #[test]
    fn pricing_epoch_counts_observable_changes_only() {
        let broker = priced_broker();
        let e0 = broker.pricing_epoch();
        broker.set_pricing(Pricing::UniformBundle { price: 4.0 });
        assert_eq!(broker.pricing_epoch(), e0 + 1);
        // Keep is a no-op: no change, no bump.
        broker.apply_delta(&PricingPatch::Keep);
        assert_eq!(broker.pricing_epoch(), e0 + 1);
        broker.apply_delta(&PricingPatch::SetUniformPrice(9.0));
        assert_eq!(broker.pricing_epoch(), e0 + 2);
        broker.apply_delta(&PricingPatch::Replace(Pricing::zero_items(3)));
        assert_eq!(broker.pricing_epoch(), e0 + 3);
    }

    #[test]
    fn versioned_price_pairs_are_atomically_consistent() {
        // A repricer thread walks the uniform price in lockstep with the
        // epoch; every (price, epoch) pair a reader sees must line up
        // exactly. Two separate reads would fail this under load.
        let broker = priced_broker();
        broker.set_pricing(Pricing::UniformBundle { price: 1000.0 });
        let e0 = broker.pricing_epoch();
        let bundle: ItemSet = [0usize, 2].into_iter().collect();
        let stop = AtomicBool::new(false);
        let sampled = AtomicU64::new(0);

        // Keep repricing until the reader has raced us at least a few
        // times — a fixed patch count can complete before the reader
        // thread is even scheduled on a loaded single-core box.
        let mut repricings = 0u64;
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut checked = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let (price, epoch) = broker.versioned_price(&bundle);
                    let step = epoch - e0;
                    assert_eq!(
                        price,
                        1000.0 + step as f64,
                        "price from epoch {epoch} served under the wrong tag"
                    );
                    checked += 1;
                    // ordering: Relaxed — progress counter, no data published.
                    sampled.fetch_add(1, Ordering::Relaxed);
                }
                checked
            });
            while repricings < 400 || sampled.load(Ordering::Relaxed) < 10 {
                repricings += 1;
                broker.apply_delta(&PricingPatch::SetUniformPrice(1000.0 + repricings as f64));
            }
            stop.store(true, Ordering::Relaxed);
            assert!(reader.join().unwrap() > 0, "reader never sampled");
        });
        assert_eq!(broker.pricing_epoch(), e0 + repricings);
    }

    #[test]
    fn more_informative_queries_never_cost_less() {
        // Information arbitrage at the broker level: the full scan determines
        // every other query, so it must be at least as expensive.
        let broker = priced_broker();
        let full = broker.quote(&Query::scan("User"));
        for q in buyer_queries() {
            let quote = broker.quote(&q);
            assert!(quote.price <= full.price + 1e-9);
        }
    }

    #[test]
    fn default_pricing_is_free() {
        let broker = Broker::new(db(), &SupportConfig::with_size(30));
        let quote = broker.quote(&Query::scan("User"));
        assert_eq!(quote.price, 0.0);
    }

    #[test]
    fn telemetry_observes_without_changing_quotes() {
        use qp_telemetry::TelemetrySink;

        let plain = priced_broker();
        let sink = TelemetrySink::enabled();
        let instrumented = Broker::builder(db())
            .support_config(SupportConfig::with_size(80))
            .algorithm("LPIP")
            .anticipate_all(buyer_queries().into_iter().map(|q| (q, 10.0)))
            .telemetry(sink.clone())
            .build()
            .expect("LPIP is registered");

        // Out-of-band: identical quotes bit for bit, telemetry on or off.
        let queries = buyer_queries();
        for q in &queries {
            let a = plain.quote(q);
            let b = instrumented.quote(q);
            assert_eq!(a.conflict_set, b.conflict_set);
            assert_eq!(a.price.to_bits(), b.price.to_bits());
        }
        let q = &queries[0];
        let quote = instrumented.quote(q);
        instrumented.purchase(q, quote.price + 1.0).unwrap();
        instrumented.purchase(q, -1.0).unwrap();
        instrumented.set_pricing(Pricing::zero_items(instrumented.support().len()));

        let snap = sink.snapshot();
        for name in ["reprice.apply", "settle.ledger"] {
            let count = snap.histogram(name).map(|h| h.count()).unwrap_or(0);
            assert!(count > 0, "no observations for {name}");
        }
        // The broker registers only the series it records: quoting
        // registers none.
        for name in ["broker.conflict", "broker.price", "broker.batch"] {
            assert!(snap.histogram(name).is_none(), "{name} is registered");
        }
        for name in ["broker.quote", "broker.sale", "broker.decline"] {
            assert_eq!(snap.counter(name), None, "{name} is registered");
        }

        // The disabled default hands out a disabled sink.
        assert!(!plain.telemetry_sink().is_enabled());
        assert!(instrumented.telemetry_sink().is_enabled());
    }
}
