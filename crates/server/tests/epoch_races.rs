//! Cache-vs-repricing race tests.
//!
//! The serving layer's core safety claim: **no stale quote is ever
//! served**. Precisely — every served quote carries a `(price, epoch)`
//! pair, and the price must be exactly what the pricing installed at that
//! epoch assigns the bundle, no matter how quoting races with repricing.
//!
//! The tests encode the epoch *into* the price: the repricer's `k`-th patch
//! installs `UniformBundle { price: BASE + k }`, and every patch bumps the
//! epoch by exactly 1. A served quote `(price, epoch)` is then consistent
//! iff `price - BASE == epoch - epoch₀`. Any cache bug — serving an entry
//! after its epoch was bumped, or tagging a price with the wrong epoch —
//! breaks the equation.
//!
//! Run once against the in-process [`ShardSet`] (maximum race pressure, no
//! syscall pacing) and once over real TCP through the full server stack.
//! A third test covers the same invariant by **enumeration** instead of
//! sampling: a bounded `qp-verify` model of the shard-cache protocol,
//! checked over every explored thread interleaving (see
//! `no_stale_quote_holds_under_exhaustive_interleaving`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use qp_core::ItemSet;
use qp_market::{Broker, SupportConfig};
use qp_pricing::algorithms::PricingPatch;
use qp_qdb::{ColumnType, Database, Query, Relation, Schema, Value};
use qp_server::{QuoteClient, QuoteServer, SettleOutcome, ShardSet};

const BASE: f64 = 10_000.0;
const REPRICINGS: u64 = 300;

fn tiny_broker() -> Arc<Broker> {
    let mut rel = Relation::new(Schema::new(vec![
        ("name", ColumnType::Str),
        ("size", ColumnType::Int),
    ]));
    for i in 0..10 {
        rel.push(vec![format!("row{i}").into(), Value::Int(i)])
            .unwrap();
    }
    let mut db = Database::new();
    db.add_table("T", rel);
    Arc::new(
        Broker::builder(db)
            .support_config(SupportConfig::with_size(40))
            .algorithm("UBP")
            .anticipate(Query::scan("T"), 30.0)
            .build()
            .expect("UBP is registered"),
    )
}

/// A small pool of bundles so quoters revisit them and the cache actually
/// serves hits under the races.
fn bundle_pool() -> Vec<ItemSet> {
    (0..8usize)
        .map(|i| [i, i + 5, 2 * i + 11].as_slice().into())
        .collect()
}

/// `price == BASE + (epoch - epoch0)` — the consistency equation.
fn assert_consistent(price: f64, epoch: u64, epoch0: u64, context: &str) {
    let step = (epoch - epoch0) as f64;
    assert_eq!(
        price.to_bits(),
        (BASE + step).to_bits(),
        "{context}: price {price} does not match the pricing installed at epoch {epoch} \
         (epoch0 {epoch0}) — a stale or mistagged quote was served"
    );
}

#[test]
fn concurrent_quoters_never_see_a_stale_price_in_process() {
    let set = ShardSet::new(vec![tiny_broker(); 2]);
    // Step 0 installs BASE in the one pricing both shards quote from.
    set.apply_patch(&PricingPatch::SetUniformPrice(BASE));
    let epoch0 = set.broker(0).pricing_epoch();

    let stop = AtomicBool::new(false);
    let progress = AtomicU64::new(0);
    let pool = bundle_pool();

    let mut repricings = 0u64;
    std::thread::scope(|scope| {
        let quoters: Vec<_> = (0..4)
            .map(|t| {
                let set = &set;
                let stop = &stop;
                let progress = &progress;
                let pool = &pool;
                scope.spawn(move || {
                    let mut quotes = 0u64;
                    let mut hits = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let bundle = &pool[(t + quotes as usize) % pool.len()];
                        let q = set.quote(bundle);
                        assert_consistent(q.price, q.epoch, epoch0, "in-process quoter");
                        // The settlement must honor the quoted price even
                        // though the repricer keeps moving the pricing.
                        let SettleOutcome::Settled { sold, price } =
                            set.settle(q.quote_id, q.price, 0)
                        else {
                            panic!("pending quote must settle");
                        };
                        assert!(sold, "budget == quoted price always sells");
                        assert_eq!(price.to_bits(), q.price.to_bits());
                        quotes += 1;
                        hits += u64::from(q.cache_hit);
                        progress.fetch_add(1, Ordering::Relaxed);
                    }
                    (quotes, hits)
                })
            })
            .collect();

        // Keep repricing until the quoters have raced us a meaningful
        // number of times — a fixed patch count could finish before the
        // quoter threads are even scheduled on a loaded single-core box.
        while repricings < REPRICINGS || progress.load(Ordering::Relaxed) < 50 {
            repricings += 1;
            set.apply_patch(&PricingPatch::SetUniformPrice(BASE + repricings as f64));
        }
        stop.store(true, Ordering::Relaxed);
        let (quotes, hits): (u64, u64) = quoters
            .into_iter()
            .map(|h| h.join().expect("quoter must not panic"))
            .fold((0, 0), |(q, h), (dq, dh)| (q + dq, h + dh));
        assert!(quotes >= 50, "quoters never ran");
        // Not asserting a hit *rate* (timing-dependent), but the machinery
        // must have exercised both paths across the run.
        assert!(hits < quotes, "every quote a hit is impossible from cold");
    });

    // Quiescent end state: one patch per repricing moved the one epoch,
    // every shard reports it, and the caches are consistent again.
    assert_eq!(set.broker(0).pricing_epoch(), epoch0 + repricings);
    assert!(set.stats().iter().all(|s| s.epoch == epoch0 + repricings));
    for bundle in &pool {
        let q = set.quote(bundle);
        assert_consistent(q.price, q.epoch, epoch0, "quiescent");
        assert_eq!(q.epoch, epoch0 + repricings);
    }
}

#[test]
fn concurrent_quoters_never_see_a_stale_price_over_tcp() {
    let set = ShardSet::new(vec![tiny_broker(); 2]);
    set.apply_patch(&PricingPatch::SetUniformPrice(BASE));
    let epoch0 = set.broker(0).pricing_epoch();
    let mut server = QuoteServer::bind("127.0.0.1:0", set).expect("bind loopback");
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicU64::new(0));
    let pool = bundle_pool();

    let quoters: Vec<_> = (0..3)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let progress = Arc::clone(&progress);
            let pool = pool.clone();
            std::thread::spawn(move || {
                let mut client = QuoteClient::connect(addr).expect("connect");
                let mut quotes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let bundle = &pool[(t + quotes as usize) % pool.len()];
                    let q = client.quote(bundle).expect("quote");
                    assert_consistent(q.price, q.epoch, epoch0, "tcp quoter");
                    let (sold, price) = client
                        .purchase(q.quote_id, q.price, quotes)
                        .expect("purchase");
                    assert!(sold);
                    assert_eq!(price.to_bits(), q.price.to_bits());
                    quotes += 1;
                    progress.fetch_add(1, Ordering::Relaxed);
                }
                quotes
            })
        })
        .collect();

    // The repricer is just another client racing the quoters over TCP,
    // repricing until the quoters have completed enough round trips that
    // the two traffic streams genuinely interleaved.
    let mut admin = QuoteClient::connect(addr).expect("admin connect");
    let mut repricings = 0u64;
    while repricings < 100 || progress.load(Ordering::Relaxed) < 30 {
        repricings += 1;
        let epochs = admin
            .reprice(&PricingPatch::SetUniformPrice(BASE + repricings as f64))
            .expect("reprice");
        assert_eq!(epochs, vec![epoch0 + repricings, epoch0 + repricings]);
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = quoters.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total >= 30, "quoters never completed a round trip");

    // Every settlement was at the quoted price with budget == price, so
    // the shard ledgers must account one sale per quote and the final
    // stats must reflect the last installed pricing.
    let stats = admin.stats().expect("stats");
    assert_eq!(stats.iter().map(|s| s.sales).sum::<u64>(), total);
    assert_eq!(stats.iter().map(|s| s.declines).sum::<u64>(), 0);
    for s in &stats {
        assert_eq!(s.epoch, epoch0 + repricings);
    }
    let mut probe = QuoteClient::connect(addr).expect("probe connect");
    let q = probe.quote(&pool[0]).expect("final quote");
    assert_consistent(q.price, q.epoch, epoch0, "final probe");

    drop((admin, probe));
    server.shutdown();
}

/// The in-process stress case above as a bounded `qp-verify` model: the
/// catalog's `no-stale-quote` model (one pricing and its epoch, two shard
/// caches, the same epoch-encoded-in-price trick) with the scheduler
/// *enumerating* interleavings rather than sampling them. The stress test
/// covers depth (hundreds of repricings against the real stack); this
/// covers breadth (every schedule the budget reaches, ≥ 1,000 of them).
#[test]
fn no_stale_quote_holds_under_exhaustive_interleaving() {
    let model = qp_verify::models::catalog()
        .into_iter()
        .find(|m| m.name == "no-stale-quote")
        .expect("the catalog holds the no-stale-quote model");
    let report = model.check(&qp_verify::Config::with_max_schedules(1_500));
    assert!(
        report.failure.is_none(),
        "no-stale-quote violated: {}",
        report.failure.unwrap()
    );
    assert!(
        report.schedules >= 1_000,
        "only {} interleavings explored",
        report.schedules
    );
}
