//! The sharded quote engine: one [`Broker`] behind `k` epoch-validated
//! quote caches.
//!
//! A [`ShardSet`] prices every bundle through **one** broker — one catalog,
//! one pricing `RwLock`, one epoch — and splits only the quote cache, its
//! counters and the books into `k` shards. Every bundle is routed to the
//! shard `stable_hash(bundle) mod k`, which spreads load and gives each
//! bundle **cache affinity**: repeated quotes for the same bundle hit the
//! same shard's cache and never touch the pricing lock.
//!
//! # Cache correctness
//!
//! Each cache entry is a `(price, epoch)` pair filled from
//! [`Broker::versioned_price`], which is atomically consistent (the epoch
//! is read under the pricing read lock; writers bump it under the write
//! lock — see the `qp_market::broker` module docs). A hit is served only
//! when the entry's epoch equals the broker's *current* epoch, which every
//! shard reads from the same broker; since every
//! observable repricing strictly increases the epoch, a stale entry can
//! never satisfy that check. The pair served to the client is therefore
//! always self-consistent: the price is exactly what the pricing at the
//! claimed epoch assigns the bundle. (The concurrent proof of this lives
//! in `tests/epoch_races.rs`.)
//!
//! Quotes are **one-shot contracts**: [`ShardSet::quote`] registers the
//! quoted price under a fresh id, and [`ShardSet::settle`] consumes the id
//! and settles at that price — honored even if the epoch has moved on,
//! matching `Broker::settle`'s guarantee (and its budget tolerance, the
//! shared `qp_market::BUDGET_EPSILON`).
//!
//! # Durability
//!
//! With a store attached ([`ShardSet::with_store`]), every settle — sales,
//! declines, and pressure evictions alike — appends a WAL record *before*
//! the call returns (append-before-ack), and every repricing appends its
//! patch; on a cadence of repricings the full state is written
//! as an epoch-stamped snapshot. The shard set is the only durability
//! owner: each shard's books are a [`LedgerSnapshot`], and every settle or
//! eviction builds its [`WalRecord`] once, appends it, and folds that same
//! record in with [`LedgerSnapshot::apply`] — the fold
//! [`Recovery::replay`](qp_store::Recovery::replay) runs over the log. Live
//! and recovered books are therefore one function of the WAL, and
//! [`ShardSet::restore`] rebuilds revenue **bit-identically**. All WAL
//! appends and ledger mutations happen under one durability lock, so a
//! snapshot captured under that lock is exactly consistent with its
//! `wal_seq`. Lock order: `pending` → `durability` → shard `ledger`.

use parking_lot::atomic::{AtomicU64, Ordering};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;

use qp_core::ItemSet;
use qp_market::{Broker, BUDGET_EPSILON};
use qp_pricing::algorithms::PricingPatch;
use qp_store::{LedgerSnapshot, ReplayedState, SharedStore, Snapshot, StoreError, WalRecord};
use qp_telemetry::{Counter, SpanHandle, TelemetrySink};

use crate::protocol::ShardStats;

/// Default per-shard cache capacity (entries). When full, the cache is
/// flushed wholesale rather than evicted piecemeal — bundles follow a
/// workload's query pool, so the working set either fits or churns.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Cap on outstanding (quoted, unsettled) quotes. Quote ids are issued in
/// increasing order, so when the table is full the **oldest** pending quote
/// is expired to make room — a peer that quotes without ever purchasing
/// (a crashed client, or a hostile one) cannot grow server memory without
/// bound, the same posture `protocol::MAX_FRAME` takes against oversized
/// frames. An eviction is **accounted**, not silently dropped: the serving
/// shard records it as a declined quote (and logs it when a store is
/// attached), and settling the expired id reports
/// [`SettleOutcome::Expired`] so clients know to re-quote.
pub const MAX_PENDING_QUOTES: usize = 1 << 16;

/// Default snapshot cadence: a full state snapshot is written every this
/// many non-`Keep` repricings. Repricings are the natural beat —
/// they bound how many `Reprice` records a recovery replays, and settle
/// records between snapshots replay cheaply.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 8;

struct CacheEntry {
    epoch: u64,
    price: f64,
}

/// One cache partition: its entries, its counters and its books. The
/// pricing lives in the [`ShardSet`]'s one broker.
#[derive(Default)]
struct Shard {
    cache: Mutex<HashMap<ItemSet, CacheEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Cache entries dropped because a repricing bumped the epoch (each
    /// repricing counts the entries it stranded). A `REPRICE` storm
    /// is visible here long before hit rates decay.
    invalidations: AtomicU64,
    /// Pending quotes this shard served that were expired under table
    /// pressure before the client settled them (each is also recorded as a
    /// decline in the ledger).
    evictions: AtomicU64,
    /// The shard's books: the fold of its WAL records (see the module
    /// docs). Wire purchases settle bundles, not queries, so nothing is
    /// evaluated on the database here.
    ledger: Mutex<LedgerSnapshot>,
}

/// A served quote: the one-shot id plus everything the wire reply carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardQuote {
    /// One-shot settlement id.
    pub quote_id: u64,
    /// The shard that served (and will settle) the quote.
    pub shard: usize,
    /// The quoted price.
    pub price: f64,
    /// The pricing epoch the price belongs to.
    pub epoch: u64,
    /// Whether the cache answered without touching the pricing lock.
    pub cache_hit: bool,
}

struct PendingQuote {
    shard: usize,
    price: f64,
    bundle_len: usize,
}

/// What [`ShardSet::settle`] found for a quote id. `Expired` and `Unknown`
/// are deliberately distinct: an expired quote was real and was evicted
/// under pending-table pressure (the client should re-quote), while an
/// unknown id was never issued or has already been settled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SettleOutcome {
    /// The quote was pending and settled at its quoted price.
    Settled {
        /// Whether the budget covered the price (sale vs. decline).
        sold: bool,
        /// The honored quote price.
        price: f64,
    },
    /// The quote was evicted under pending-table pressure before the
    /// client settled it; it was already recorded as a decline.
    Expired,
    /// The id was never issued, or the quote was already settled.
    Unknown,
}

/// The store hookup plus the snapshot cadence state. One mutex serializes
/// every WAL append *and* every ledger mutation (see the module docs), so
/// a snapshot taken while holding it captures ledgers exactly consistent
/// with the store's `wal_seq`.
struct Durability {
    store: Option<SharedStore>,
    /// Snapshot every this many non-`Keep` repricings.
    snapshot_every: u64,
    reprices_since_snapshot: u64,
}

impl Durability {
    fn detached() -> Durability {
        Durability {
            store: None,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            reprices_since_snapshot: 0,
        }
    }

    /// Appends a record, or panics: once a settle has mutated in-memory
    /// state we must not ack it to the client unlogged, and the append
    /// happens *before* the mutation precisely so a failure aborts the
    /// whole operation.
    fn log(&self, record: &WalRecord) {
        if let Some(store) = &self.store {
            if let Err(e) = store.append(record) {
                panic!("WAL append failed, refusing to ack an unlogged settle: {e}");
            }
        }
    }

    /// Logs a settle or eviction record, then folds the same record into
    /// the shard's ledger with the fold recovery replays.
    fn book(&self, ledger: &Mutex<LedgerSnapshot>, record: &WalRecord) {
        self.log(record);
        ledger.lock().apply(record);
    }
}

/// One broker, a router, `k` epoch-validated caches, and the
/// outstanding-quote table. The transport-independent core of the server:
/// the TCP layer only decodes frames into these calls.
pub struct ShardSet {
    /// The one pricing every shard quotes from.
    broker: Arc<Broker>,
    shards: Vec<Shard>,
    cache_capacity: usize,
    pending_cap: usize,
    next_quote_id: AtomicU64,
    /// Highest quote id ever evicted under pending-table pressure (0 =
    /// none). Evictions pop the *smallest* pending id and ids are issued
    /// in increasing order, so "id ≤ watermark" exactly identifies quotes
    /// that either expired or settled before the watermark passed them —
    /// enough to tell [`SettleOutcome::Expired`] from `Unknown`.
    evicted_watermark: AtomicU64,
    /// Outstanding quotes by id. A `BTreeMap` because ids are issued in
    /// increasing order, which makes "expire the oldest" when
    /// [`MAX_PENDING_QUOTES`] is reached an O(log n) `pop_first`.
    pending: Mutex<BTreeMap<u64, PendingQuote>>,
    /// WAL/snapshot hookup; also the lock every ledger mutation runs under.
    durability: Mutex<Durability>,
    /// Pre-registered observability handles (inert on a disabled sink).
    telemetry: ShardSetTelemetry,
}

/// The shard set's pre-registered telemetry: one span handle per stage of
/// the server-side quote path plus the cache outcome counters. All handles
/// resolve their registry entries once here, so the quote hot path records
/// without touching a registration lock; with `TelemetrySink::Disabled`
/// every operation is a branch on `None`.
#[derive(Debug, Clone, Default)]
struct ShardSetTelemetry {
    sink: TelemetrySink,
    /// `quote.route` — bundle → shard routing.
    route: SpanHandle,
    /// `quote.cache` — epoch-validated cache lookup.
    cache: SpanHandle,
    /// `quote.price` — pricing read on a cache miss.
    price: SpanHandle,
    /// `settle.ledger` — settling a pending quote into the shard ledger.
    settle: SpanHandle,
    /// `reprice.broadcast` — patching the pricing and clearing the caches
    /// it stranded.
    broadcast: SpanHandle,
    /// `cache.hit` / `cache.miss` / `cache.invalidated` totals.
    cache_hits: Counter,
    cache_misses: Counter,
    cache_invalidations: Counter,
    /// `quote.evicted` — pending quotes expired under table pressure.
    evicted: Counter,
}

impl ShardSetTelemetry {
    fn new(sink: TelemetrySink) -> ShardSetTelemetry {
        ShardSetTelemetry {
            route: sink.span_handle("quote.route"),
            cache: sink.span_handle("quote.cache"),
            price: sink.span_handle("quote.price"),
            settle: sink.span_handle("settle.ledger"),
            broadcast: sink.span_handle("reprice.broadcast"),
            cache_hits: sink.counter("cache.hit"),
            cache_misses: sink.counter("cache.miss"),
            cache_invalidations: sink.counter("cache.invalidated"),
            evicted: sink.counter("quote.evicted"),
            sink,
        }
    }
}

impl ShardSet {
    /// Builds a shard set with the default cache capacity. The list's
    /// length is the shard count and its first entry is the broker every
    /// shard prices through; pass `vec![Arc::clone(&broker); k]`.
    ///
    /// # Panics
    ///
    /// Panics on an empty list, or if any later entry is neither the first
    /// `Arc` nor priced identically to it (pricing and epoch): the set has
    /// one pricing, so it cannot honour a second one.
    pub fn new(brokers: Vec<Arc<Broker>>) -> ShardSet {
        ShardSet::with_cache_capacity(brokers, DEFAULT_CACHE_CAPACITY)
    }

    /// [`ShardSet::new`] with an explicit per-shard cache capacity
    /// (0 disables caching: every quote reads the pricing).
    pub fn with_cache_capacity(brokers: Vec<Arc<Broker>>, cache_capacity: usize) -> ShardSet {
        let shards = brokers.len();
        let mut brokers = brokers.into_iter();
        let Some(broker) = brokers.next() else {
            panic!("a shard set needs at least one broker");
        };
        for other in brokers {
            assert!(
                Arc::ptr_eq(&broker, &other)
                    || other.pricing_snapshot() == broker.pricing_snapshot(),
                "every broker of a shard set must carry the first one's pricing and epoch"
            );
        }
        ShardSet {
            broker,
            shards: (0..shards).map(|_| Shard::default()).collect(),
            cache_capacity,
            pending_cap: MAX_PENDING_QUOTES,
            next_quote_id: AtomicU64::new(0),
            evicted_watermark: AtomicU64::new(0),
            pending: Mutex::new(BTreeMap::new()),
            durability: Mutex::new(Durability::detached()),
            telemetry: ShardSetTelemetry::default(),
        }
    }

    /// Overrides the pending-quote cap (default [`MAX_PENDING_QUOTES`]).
    /// Tests use small caps to exercise eviction pressure without issuing
    /// 2^16 quotes.
    ///
    /// # Panics
    ///
    /// Panics on a cap of 0 — the table must hold at least the quote
    /// being registered.
    pub fn with_pending_cap(mut self, cap: usize) -> ShardSet {
        assert!(cap > 0, "pending-quote cap must be at least 1");
        self.pending_cap = cap;
        self
    }

    /// Attaches a durable store: every settle and eviction appends a WAL
    /// record before returning, every non-`Keep` repricing appends its
    /// patch, and a full snapshot is written every `snapshot_every`
    /// non-`Keep` repricings (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `snapshot_every` is 0.
    pub fn with_store(mut self, store: SharedStore, snapshot_every: u64) -> ShardSet {
        assert!(snapshot_every > 0, "snapshot cadence must be at least 1");
        self.durability = Mutex::new(Durability {
            store: Some(store),
            snapshot_every,
            reprices_since_snapshot: 0,
        });
        self
    }

    /// Rebuilds a shard set from a store after a crash: loads the newest
    /// valid snapshot, replays the WAL suffix, and installs the recovered
    /// pricing, epoch, per-shard ledgers, quote-id counter, and eviction
    /// watermark. The store stays attached, so the recovered set resumes
    /// logging where the crashed one stopped.
    ///
    /// `brokers` is read as by [`ShardSet::new`]; its broker must be
    /// **freshly rebuilt the same deterministic way** as the crashed set's
    /// (same database, support, algorithm, anticipated workload), and its
    /// length must be the crashed set's shard count. The broker's
    /// pricing/epoch seed the replay for the no-snapshot,
    /// no-`Replace`-record case. Returns the replayed state alongside the
    /// set so callers can use it as the recovery oracle.
    ///
    /// # Panics
    ///
    /// Panics as [`ShardSet::new`] does, and if the recovered state's
    /// shard count differs from `brokers.len()` — revenue recorded by a
    /// shard that no longer exists cannot be restored, so a changed
    /// topology must be rejected loudly rather than silently dropping
    /// ledgers.
    pub fn restore(
        brokers: Vec<Arc<Broker>>,
        cache_capacity: usize,
        store: SharedStore,
        snapshot_every: u64,
    ) -> Result<(ShardSet, ReplayedState), StoreError> {
        let set = ShardSet::with_cache_capacity(brokers, cache_capacity);
        let recovery = store.recover()?;
        let (seed_pricing, seed_epoch) = set.broker.pricing_snapshot();
        let state = recovery.replay(seed_pricing, seed_epoch, set.num_shards());
        assert_eq!(
            state.shards.len(),
            set.num_shards(),
            "recovered state has a different shard count than the rebuilt set"
        );
        set.broker
            .restore_pricing(state.pricing.clone(), state.epoch);
        let set = set.with_store(store, snapshot_every);
        for (shard, ledger) in set.shards.iter().zip(&state.shards) {
            *shard.ledger.lock() = *ledger;
        }
        // The counter holds the count of ids issued so far; replayed
        // `next_quote_id` is the next id to hand out, i.e. counter + 1.
        set.next_quote_id
            .store(state.next_quote_id.saturating_sub(1), Ordering::SeqCst);
        set.evicted_watermark
            .store(state.evicted_watermark, Ordering::SeqCst);
        Ok((set, state))
    }

    /// Attaches a telemetry sink: the quote path records per-stage spans
    /// (`quote.route` → `quote.cache` → `quote.price`), cache outcomes
    /// count into `cache.hit`/`cache.miss`/`cache.invalidated`, and
    /// repricings time into `reprice.broadcast`. Telemetry is
    /// strictly out-of-band: prices, epochs, and ledgers are identical
    /// with it on or off.
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> ShardSet {
        self.telemetry = ShardSetTelemetry::new(sink);
        self
    }

    /// The telemetry sink this shard set records into (`Disabled` unless
    /// one was attached). The server's `METRICS` frame snapshots it.
    pub fn telemetry_sink(&self) -> &TelemetrySink {
        &self.telemetry.sink
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a bundle routes to: `stable_hash(bundle) mod k`, so the
    /// same bundle lands on the same shard across connections, runs, and
    /// processes.
    pub fn route(&self, bundle: &ItemSet) -> usize {
        (bundle.stable_hash() % self.shards.len() as u64) as usize
    }

    /// The broker a shard prices through (tests and embedders): the same
    /// one for every shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not below [`ShardSet::num_shards`].
    pub fn broker(&self, shard: usize) -> &Arc<Broker> {
        assert!(shard < self.shards.len(), "shard {shard} out of range");
        &self.broker
    }

    /// Quotes a bundle: routes, serves from the epoch-validated cache when
    /// possible, and registers a one-shot pending quote at the served
    /// price.
    pub fn quote(&self, bundle: &ItemSet) -> ShardQuote {
        let idx = {
            let _span = self.telemetry.route.enter();
            self.route(bundle)
        };
        // Tag the thread's ambient trace context with the serving shard:
        // every span event recorded below (cache, price, the open server
        // root) carries it, making exemplar JSON joinable by shard.
        if self.telemetry.sink.is_enabled() {
            qp_telemetry::set_current_shard(idx as u32);
        }
        let shard = &self.shards[idx];

        let current_epoch = self.broker.pricing_epoch();
        let cached = {
            let _span = self.telemetry.cache.enter();
            shard
                .cache
                .lock()
                .get(bundle)
                .filter(|e| e.epoch == current_epoch)
                .map(|e| (e.price, e.epoch))
        };

        let (price, epoch, cache_hit) = match cached {
            Some((price, epoch)) => {
                // ordering: Relaxed — hits is a statistics counter; no
                // other memory depends on its value.
                shard.hits.fetch_add(1, Ordering::Relaxed);
                self.telemetry.cache_hits.inc();
                (price, epoch, true)
            }
            None => {
                // ordering: Relaxed — statistics counter, as above.
                shard.misses.fetch_add(1, Ordering::Relaxed);
                self.telemetry.cache_misses.inc();
                let _span = self.telemetry.price.enter();
                // The only way a (price, epoch) pair enters the system:
                // atomically consistent by the broker's contract.
                let (price, epoch) = self.broker.versioned_price(bundle);
                if self.cache_capacity > 0 {
                    let mut cache = shard.cache.lock();
                    if cache.len() >= self.cache_capacity && !cache.contains_key(bundle) {
                        cache.clear();
                    }
                    match cache.entry(bundle.clone()) {
                        Entry::Occupied(mut slot) => {
                            // Concurrent fills race benignly; keep the
                            // newest epoch so progress is monotone.
                            if slot.get().epoch < epoch {
                                slot.insert(CacheEntry { epoch, price });
                            }
                        }
                        Entry::Vacant(slot) => {
                            slot.insert(CacheEntry { epoch, price });
                        }
                    }
                }
                (price, epoch, false)
            }
        };

        // ordering: Relaxed — the counter only needs uniqueness; the id is
        // published to other threads via the pending-table mutex below.
        let quote_id = self.next_quote_id.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut pending = self.pending.lock();
            while pending.len() >= self.pending_cap {
                let Some((evicted_id, evicted)) = pending.pop_first() else {
                    break;
                };
                // Expiring the oldest unsettled quote is a business event,
                // not a silent drop: the quoted price is forgone revenue,
                // so it lands in the serving shard's ledger as a decline
                // (and in the WAL, so recovery reproduces it). Evictions
                // pop the smallest id, so the watermark stays the exact
                // boundary below which `settle` reports `Expired`; it moves
                // under the durability lock, so a snapshot reads exactly
                // the watermark its `wal_seq` implies.
                let shard = &self.shards[evicted.shard];
                // ordering: Relaxed — statistics counter.
                shard.evictions.fetch_add(1, Ordering::Relaxed);
                self.telemetry.evicted.inc();
                let dur = self.durability.lock();
                dur.book(
                    &shard.ledger,
                    &WalRecord::Decline {
                        quote_id: evicted_id,
                        shard: evicted.shard as u32,
                        price: evicted.price,
                        tick: 0,
                        evicted: true,
                    },
                );
                self.evicted_watermark
                    .fetch_max(evicted_id, Ordering::SeqCst);
            }
            pending.insert(
                quote_id,
                PendingQuote {
                    shard: idx,
                    price,
                    bundle_len: bundle.len(),
                },
            );
        }
        ShardQuote {
            quote_id,
            shard: idx,
            price,
            epoch,
            cache_hit,
        }
    }

    /// Settles a pending quote at its quoted price: sold if the budget
    /// covers it, declined otherwise, recorded in the serving shard's
    /// ledger at `tick`. An id the set does not hold is classified as
    /// [`SettleOutcome::Expired`] (evicted under table pressure — the
    /// client should re-quote) or [`SettleOutcome::Unknown`] (never
    /// issued, or already settled — ids are one-shot).
    pub fn settle(&self, quote_id: u64, budget: f64, tick: u64) -> SettleOutcome {
        let _span = self.telemetry.settle.enter();
        let pending = match self.pending.lock().remove(&quote_id) {
            Some(p) => p,
            None => {
                let watermark = self.evicted_watermark.load(Ordering::SeqCst);
                // Below the watermark the quote existed and was evicted
                // (or settled before the watermark reached it — either
                // way "re-quote" is the right client response). Above it,
                // the id was never issued or was settled normally.
                return if quote_id != 0 && quote_id <= watermark {
                    SettleOutcome::Expired
                } else {
                    SettleOutcome::Unknown
                };
            }
        };
        // See `quote`: shard-tag the ambient trace context for exemplars.
        if self.telemetry.sink.is_enabled() {
            qp_telemetry::set_current_shard(pending.shard as u32);
        }
        let sold = pending.price <= budget + BUDGET_EPSILON;
        let record = if sold {
            WalRecord::Sale {
                quote_id,
                shard: pending.shard as u32,
                bundle_len: pending.bundle_len as u32,
                price: pending.price,
                tick,
            }
        } else {
            WalRecord::Decline {
                quote_id,
                shard: pending.shard as u32,
                price: pending.price,
                tick,
                evicted: false,
            }
        };
        // WAL append strictly before the ledger write and the return: if
        // the append panics, no in-memory state has changed and nothing
        // unlogged is ever acked.
        self.durability
            .lock()
            .book(&self.shards[pending.shard].ledger, &record);
        SettleOutcome::Settled {
            sold,
            price: pending.price,
        }
    }

    /// Applies a pricing patch to the one pricing and returns the
    /// post-patch epoch once per shard, in shard order. A non-`Keep` patch
    /// bumps the epoch under the pricing write lock, instantly invalidating
    /// every shard's cache (entries carry the old epoch); the stranded
    /// entries are counted per shard and dropped eagerly so memory follows
    /// the live epoch.
    pub fn apply_patch(&self, patch: &PricingPatch) -> Vec<u64> {
        let _span = self.telemetry.broadcast.enter();
        // The durability lock is held across the whole repricing: the WAL
        // patch record, the install, and (on cadence) the snapshot form one
        // atomic unit relative to settles, so recovery never sees a
        // half-applied pricing.
        let mut dur = self.durability.lock();
        if !matches!(patch, PricingPatch::Keep) {
            dur.log(&WalRecord::Reprice {
                patch: patch.clone(),
            });
            self.broker.apply_delta(patch);
            // Every cached entry carries an older epoch and can never be
            // served again: count and drop them now.
            for s in &self.shards {
                let stranded = {
                    let mut cache = s.cache.lock();
                    let n = cache.len();
                    cache.clear();
                    n as u64
                };
                if stranded > 0 {
                    // ordering: Relaxed — statistics counter.
                    s.invalidations.fetch_add(stranded, Ordering::Relaxed);
                    self.telemetry.cache_invalidations.add(stranded);
                }
            }
            if dur.store.is_some() {
                dur.reprices_since_snapshot += 1;
                if dur.reprices_since_snapshot >= dur.snapshot_every {
                    dur.reprices_since_snapshot = 0;
                    self.write_snapshot_locked(&dur);
                }
            }
        }
        vec![self.broker.pricing_epoch(); self.shards.len()]
    }

    /// Writes a full-state snapshot. The caller holds the durability lock,
    /// which keeps settles and evictions out: the ledgers and watermark
    /// copied here are exactly the state produced by WAL records
    /// `1..=wal_seq`.
    fn write_snapshot_locked(&self, dur: &Durability) {
        let Some(store) = &dur.store else { return };
        let (pricing, epoch) = self.broker.pricing_snapshot();
        let snapshot = Snapshot {
            epoch,
            wal_seq: store.wal_seq(),
            // The counter holds the count of ids issued; the next id to
            // hand out is one past it. Ids issued after the snapshot's
            // wal_seq only ever push this forward during replay.
            next_quote_id: self.next_quote_id.load(Ordering::SeqCst) + 1,
            evicted_watermark: self.evicted_watermark.load(Ordering::SeqCst),
            pricing,
            shards: self.shards.iter().map(|s| *s.ledger.lock()).collect(),
        };
        if let Err(e) = store.write_snapshot(&snapshot) {
            // Snapshot failure is not data loss (the WAL still has every
            // record), but limping on silently would hide a dying disk.
            panic!("snapshot write failed: {e}");
        }
    }

    /// Forces a snapshot now, regardless of the repricing cadence (shutdown
    /// paths and tests). A no-op without a store.
    pub fn snapshot_now(&self) {
        let mut dur = self.durability.lock();
        dur.reprices_since_snapshot = 0;
        self.write_snapshot_locked(&dur);
    }

    /// Per-shard serving statistics, in shard order.
    pub fn stats(&self) -> Vec<ShardStats> {
        let epoch = self.broker.pricing_epoch();
        self.shards
            .iter()
            .map(|s| {
                let ledger = s.ledger.lock();
                // Load each counter exactly once: deriving `quotes` from
                // two loads of `hits` could report cache_hits > quotes
                // under concurrent quoting.
                // ordering: Relaxed — monotone counters read for reporting;
                // a momentarily stale value is acceptable.
                let hits = s.hits.load(Ordering::Relaxed);
                // ordering: Relaxed — as above.
                let misses = s.misses.load(Ordering::Relaxed);
                // ordering: Relaxed — as above.
                let invalidations = s.invalidations.load(Ordering::Relaxed);
                // ordering: Relaxed — as above.
                let evictions = s.evictions.load(Ordering::Relaxed);
                ShardStats {
                    epoch,
                    quotes: hits + misses,
                    cache_hits: hits,
                    invalidations,
                    evictions,
                    sales: ledger.sales.len(),
                    declines: ledger.declined_count,
                    revenue: ledger.total(),
                }
            })
            .collect()
    }

    /// Quotes issued but not yet settled.
    pub fn pending_quotes(&self) -> usize {
        self.pending.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_market::SupportConfig;
    use qp_pricing::Pricing;
    use qp_qdb::{ColumnType, Database, Query, Relation, Schema, Value};
    use qp_store::{MemStore, Store};
    use std::collections::VecDeque;

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

    fn shard_set(shards: usize) -> ShardSet {
        ShardSet::new(vec![tiny_broker(); shards])
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let set = shard_set(3);
        for i in 0..50usize {
            let bundle: ItemSet = [i, i + 3].as_slice().into();
            let shard = set.route(&bundle);
            assert!(shard < 3);
            assert_eq!(shard, set.route(&bundle.clone()));
        }
    }

    #[test]
    fn cache_hits_after_first_quote_and_invalidates_on_epoch_bump() {
        let set = shard_set(2);
        let bundle: ItemSet = [1usize, 4].as_slice().into();
        let first = set.quote(&bundle);
        assert!(!first.cache_hit, "cold cache must miss");
        let second = set.quote(&bundle);
        assert!(second.cache_hit, "warm cache must hit");
        assert_eq!(second.price.to_bits(), first.price.to_bits());
        assert_eq!(second.epoch, first.epoch);

        // An epoch bump invalidates every cached entry on the patched
        // shards...
        set.apply_patch(&PricingPatch::SetUniformPrice(123.0));
        let after = set.quote(&bundle);
        assert!(!after.cache_hit, "stale entry must not be served");
        assert_eq!(after.price, 123.0);
        assert_eq!(after.epoch, first.epoch + 1);
        // ...but a Keep patch bumps nothing and the refill keeps serving.
        set.apply_patch(&PricingPatch::Keep);
        assert!(set.quote(&bundle).cache_hit);
    }

    #[test]
    fn quotes_are_one_shot_and_settle_at_the_quoted_price() {
        let set = shard_set(1);
        set.apply_patch(&PricingPatch::SetUniformPrice(10.0));
        let bundle: ItemSet = [0usize, 2].as_slice().into();
        let q = set.quote(&bundle);
        assert_eq!(set.pending_quotes(), 1);

        // Reprice between quote and purchase: the quote is honored.
        set.apply_patch(&PricingPatch::SetUniformPrice(99.0));
        assert_eq!(
            set.settle(q.quote_id, 10.0, 5),
            SettleOutcome::Settled {
                sold: true,
                price: 10.0
            },
            "budget exactly covers the quoted price"
        );
        assert_eq!(set.pending_quotes(), 0);
        // The id is consumed — and nothing was evicted, so it reports
        // Unknown rather than Expired.
        assert_eq!(set.settle(q.quote_id, 100.0, 5), SettleOutcome::Unknown);
        // Never-issued ids (including 0) are Unknown too.
        assert_eq!(set.settle(0, 100.0, 5), SettleOutcome::Unknown);
        assert_eq!(set.settle(u64::MAX, 100.0, 5), SettleOutcome::Unknown);

        // A decline records forgone revenue, not a sale.
        let q2 = set.quote(&bundle);
        assert_eq!(
            set.settle(q2.quote_id, 1.0, 6),
            SettleOutcome::Settled {
                sold: false,
                price: 99.0
            }
        );

        let stats = set.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].sales, 1);
        assert_eq!(stats[0].declines, 1);
        assert_eq!(stats[0].quotes, 2);
        assert!((stats[0].revenue - 10.0).abs() < 1e-12);
    }

    #[test]
    fn full_caches_flush_and_keep_serving_correctly() {
        let brokers = vec![tiny_broker()];
        let set = ShardSet::with_cache_capacity(brokers, 4);
        // More distinct bundles than capacity: the cache flushes but every
        // quote still matches the direct pricing read.
        for round in 0..3 {
            for i in 0..10usize {
                let bundle: ItemSet = [i].as_slice().into();
                let q = set.quote(&bundle);
                let (expect, _) = set.broker(0).versioned_price(&bundle);
                assert_eq!(
                    q.price.to_bits(),
                    expect.to_bits(),
                    "round {round} bundle {i}"
                );
            }
        }
        // Capacity 0 disables caching entirely.
        let uncached = ShardSet::with_cache_capacity(vec![tiny_broker()], 0);
        let b: ItemSet = [1usize].as_slice().into();
        uncached.quote(&b);
        assert!(!uncached.quote(&b).cache_hit);
    }

    #[test]
    fn pending_quotes_are_bounded_by_expiring_the_oldest() {
        let set = shard_set(1)
            .with_pending_cap(8)
            .with_telemetry(qp_telemetry::TelemetrySink::enabled());
        let bundle: ItemSet = [0usize, 2].as_slice().into();
        let first = set.quote(&bundle);
        // Fill the table past the cap: the earliest quote is expired.
        let mut last = first;
        for _ in 0..8 {
            last = set.quote(&bundle);
        }
        assert_eq!(set.pending_quotes(), 8);
        assert_eq!(
            set.settle(first.quote_id, 1e9, 0),
            SettleOutcome::Expired,
            "the oldest quote must have been expired, distinguishably"
        );
        assert!(
            matches!(
                set.settle(last.quote_id, 1e9, 0),
                SettleOutcome::Settled { sold: true, .. }
            ),
            "recent quotes survive"
        );

        // The eviction was accounted, not dropped: one decline at the
        // evicted quote's price, one eviction in stats and telemetry.
        let stats = set.stats();
        assert_eq!(stats[0].evictions, 1);
        assert_eq!(stats[0].declines, 1);
        assert_eq!(
            set.telemetry_sink().snapshot().counter("quote.evicted"),
            Some(1)
        );
    }

    #[test]
    fn eviction_pressure_matches_a_no_eviction_oracle() {
        // Same quote/settle sequence against a pressured set (cap 4) and
        // an unpressured oracle (default cap). Quotes the pressured set
        // evicts must surface as declines at the quoted price, so
        // sales + declines and total quoted value reconcile exactly.
        let pressured = shard_set(2).with_pending_cap(4);
        let oracle = shard_set(2);
        let n = 64usize;
        let mut quotes = Vec::new();
        for i in 0..n {
            let bundle: ItemSet = [i % 8, (i / 8) % 8].as_slice().into();
            let p = pressured.quote(&bundle);
            let o = oracle.quote(&bundle);
            assert_eq!(p.price.to_bits(), o.price.to_bits());
            assert_eq!(p.quote_id, o.quote_id);
            quotes.push((p.quote_id, p.price));
        }
        // Settle everything; evicted ids report Expired on the pressured
        // set and settle normally on the oracle.
        let mut expired = 0usize;
        let mut forgone_expected = 0.0f64;
        for &(id, price) in &quotes {
            match pressured.settle(id, 1e9, 1) {
                SettleOutcome::Settled { sold, .. } => assert!(sold),
                SettleOutcome::Expired => {
                    expired += 1;
                    forgone_expected += price;
                }
                SettleOutcome::Unknown => panic!("issued id must not be Unknown"),
            }
            assert!(matches!(
                oracle.settle(id, 1e9, 1),
                SettleOutcome::Settled { sold: true, .. }
            ));
        }
        assert_eq!(expired, n - 4, "all but the last cap-full were evicted");

        let p_stats = pressured.stats();
        let o_stats = oracle.stats();
        let (mut p_sales, mut p_declines, mut p_evictions) = (0u64, 0u64, 0u64);
        let (mut p_total, mut o_total) = (0.0f64, 0.0f64);
        for (p, o) in p_stats.iter().zip(&o_stats) {
            p_sales += p.sales;
            p_declines += p.declines;
            p_evictions += p.evictions;
            p_total += p.revenue;
            o_total += o.revenue;
            // Forgone revenue is per-shard attributable: every decline on
            // a shard came from one of its own evicted quotes.
            assert_eq!(p.declines, p.evictions);
        }
        assert_eq!(p_sales, 4);
        assert_eq!(p_declines as usize, expired);
        assert_eq!(p_evictions as usize, expired);
        assert_eq!(
            o_stats.iter().map(|s| s.sales).sum::<u64>(),
            n as u64,
            "the oracle sold everything"
        );
        // Ledger reconciliation: every quote the oracle sold shows up on
        // the pressured side as either realized revenue or an evicted
        // decline at the same quoted price — nothing vanished.
        // float-eq: partitioned sums differ only by association order.
        assert!((o_total - (p_total + forgone_expected)).abs() < 1e-9 * o_total.abs().max(1.0));
    }

    /// A ledger with its floats as bit patterns, for exact comparison.
    fn ledger_bits(l: &LedgerSnapshot) -> [u64; 4] {
        [
            l.sales.len(),
            l.total().to_bits(),
            l.declined_count,
            l.declined_total.to_bits(),
        ]
    }

    /// What the log alone pins of the quote-id allocator: one past every
    /// logged id (or the snapshot's counter), and the highest eviction.
    /// Quotes are not logged, so the next id trails the live counter until
    /// the quote is settled or evicted; evictions are logged as they
    /// happen, so the watermark never trails.
    #[derive(Default)]
    struct LoggedIds {
        next_quote_id: u64,
        evicted_watermark: u64,
    }

    /// Recovers `store` and asserts the replay equals the live set: the
    /// per-shard ledgers bit for bit, the pricing and its epoch, the
    /// eviction watermark, and the id allocator state the log pins.
    /// Returns whether the recovery started from a snapshot.
    fn assert_live_is_replay(live: &ShardSet, store: &dyn Store, logged: &LoggedIds) -> bool {
        let recovery = store.recover().expect("recover");
        let (seed_pricing, seed_epoch) = tiny_broker().pricing_snapshot();
        let state = recovery.replay(seed_pricing, seed_epoch, live.num_shards());
        assert_eq!(state.shards.len(), live.num_shards());
        for (replayed, shard) in state.shards.iter().zip(&live.shards) {
            assert_eq!(ledger_bits(replayed), ledger_bits(&shard.ledger.lock()));
        }
        let (pricing, epoch) = live.broker(0).pricing_snapshot();
        assert_eq!((state.pricing, state.epoch), (pricing, epoch));
        assert_eq!(state.next_quote_id, logged.next_quote_id);
        assert_eq!(state.evicted_watermark, logged.evicted_watermark);
        // Never past the live allocator: no id a live quote holds is lost.
        assert!(state.next_quote_id <= live.next_quote_id.load(Ordering::SeqCst) + 1);
        assert_eq!(
            state.evicted_watermark,
            live.evicted_watermark.load(Ordering::SeqCst)
        );
        recovery.snapshot.is_some()
    }

    #[test]
    fn stored_set_recovers_bit_identically_after_a_crash() {
        enum Step {
            Quote(usize),
            /// Settles the oldest outstanding quote with this budget.
            Settle(f64),
            Reprice(PricingPatch),
        }
        use Step::{Quote, Reprice, Settle};

        const CAP: usize = 3;
        let store = Arc::new(MemStore::new());
        let live = shard_set(2)
            .with_pending_cap(CAP)
            .with_store(store.clone(), 2);
        // Interleave sales, declines, evictions, and repricings; with a
        // snapshot every 2 non-`Keep` repricings, recoveries run from the
        // WAL alone and from a snapshot plus suffix.
        let script = [
            Reprice(PricingPatch::SetUniformPrice(10.0)),
            Quote(0),
            Quote(1),
            Settle(1e9),
            Quote(2),
            Quote(3),
            Quote(4), // evicts
            Settle(0.0),
            Reprice(PricingPatch::SetUniformPrice(12.5)), // snapshot
            Quote(5),
            Settle(1e9),
            Quote(6),
            Quote(7), // evicts
            Reprice(PricingPatch::Keep),
            Quote(8), // evicts
            Settle(1e9),
            Settle(0.0),
            Reprice(PricingPatch::SetUniformPrice(7.25)),
            Quote(9),
            Quote(10),
            Quote(11),
            Quote(12), // evicts
            Settle(1e9),
            Settle(0.0),
            Settle(1e9), // nothing left outstanding
        ];
        let mut logged = LoggedIds::default();
        let mut outstanding = VecDeque::new();
        let mut ids = Vec::new();
        let (mut reprices, mut from_wal, mut from_snapshot) = (0u64, 0, 0);
        for (tick, step) in script.into_iter().enumerate() {
            match step {
                Quote(i) => {
                    if outstanding.len() == CAP {
                        let evicted = outstanding.pop_front().unwrap();
                        logged.next_quote_id = logged.next_quote_id.max(evicted + 1);
                        logged.evicted_watermark = evicted;
                    }
                    let bundle: ItemSet = [i % 5, i % 3 + 5].as_slice().into();
                    let id = live.quote(&bundle).quote_id;
                    outstanding.push_back(id);
                    ids.push(id);
                }
                Settle(budget) => {
                    let id = outstanding.pop_front().unwrap();
                    let outcome = live.settle(id, budget, tick as u64);
                    assert!(
                        matches!(outcome, SettleOutcome::Settled { sold, .. } if sold == (budget > 0.0))
                    );
                    logged.next_quote_id = logged.next_quote_id.max(id + 1);
                }
                Reprice(patch) => {
                    let seq = store.wal_seq();
                    live.apply_patch(&patch);
                    if matches!(patch, PricingPatch::Keep) {
                        assert_eq!(store.wal_seq(), seq, "Keep must not log");
                    } else {
                        reprices += 1;
                        if reprices % 2 == 0 {
                            logged.next_quote_id = live.next_quote_id.load(Ordering::SeqCst) + 1;
                        }
                    }
                }
            }
            if assert_live_is_replay(&live, store.as_ref(), &logged) {
                from_snapshot += 1;
            } else {
                from_wal += 1;
            }
        }
        assert!(outstanding.is_empty());
        assert!(from_wal > 0 && from_snapshot > 0, "both recovery paths ran");
        assert!(live.stats().iter().map(|s| s.evictions).sum::<u64>() >= 4);
        let live_stats = live.stats();
        drop(live); // the crash

        let (recovered, state) =
            ShardSet::restore(vec![tiny_broker(); 2], DEFAULT_CACHE_CAPACITY, store, 2)
                .expect("recovery succeeds");
        let rec_stats = recovered.stats();
        assert_eq!(rec_stats.len(), live_stats.len());
        for (r, l) in rec_stats.iter().zip(&live_stats) {
            assert_eq!(r.epoch, l.epoch);
            assert_eq!(r.sales, l.sales);
            assert_eq!(r.declines, l.declines);
            assert_eq!(r.revenue.to_bits(), l.revenue.to_bits(), "bit-identical");
        }
        let rec_total: f64 = rec_stats.iter().map(|s| s.revenue).sum();
        let live_total: f64 = live_stats.iter().map(|s| s.revenue).sum();
        assert_eq!(rec_total.to_bits(), live_total.to_bits());
        assert_eq!(state.revenue().to_bits(), live_total.to_bits());

        // Fresh quote ids continue past the crashed run's — no id reuse.
        let bundle: ItemSet = [1usize].as_slice().into();
        let q = recovered.quote(&bundle);
        assert!(q.quote_id > *ids.last().unwrap());
    }

    #[test]
    fn quotes_evicted_before_a_snapshot_stay_expired_after_restore() {
        let store = Arc::new(MemStore::new());
        let live = shard_set(1)
            .with_pending_cap(2)
            .with_store(store.clone(), 2);
        let bundle: ItemSet = [0usize, 2].as_slice().into();
        let evicted = live.quote(&bundle).quote_id;
        for _ in 0..2 {
            live.quote(&bundle);
        }
        assert_eq!(live.settle(evicted, 1e9, 0), SettleOutcome::Expired);
        // The snapshot covers the eviction, so no logged record after it
        // could rebuild the watermark.
        live.snapshot_now();
        drop(live);

        let (recovered, state) =
            ShardSet::restore(vec![tiny_broker()], DEFAULT_CACHE_CAPACITY, store, 2)
                .expect("recovery succeeds");
        assert!(state.evicted_watermark >= evicted);
        assert_eq!(recovered.settle(evicted, 1e9, 0), SettleOutcome::Expired);
    }

    #[test]
    #[should_panic(expected = "different shard count")]
    fn restoring_a_two_shard_wal_into_one_shard_is_rejected() {
        let store = Arc::new(MemStore::new());
        let live = shard_set(2).with_store(store.clone(), 2);
        // Settle on both shards; no repricing, so the WAL has no snapshot.
        for i in 0..8usize {
            let q = live.quote(&[i].as_slice().into());
            live.settle(q.quote_id, 1e9, 0);
        }
        assert!(live.stats().iter().all(|s| s.sales > 0));
        assert!(store.recover().unwrap().snapshot.is_none());
        let _ = ShardSet::restore(vec![tiny_broker()], DEFAULT_CACHE_CAPACITY, store, 2);
    }

    #[test]
    fn invalidation_counts_surface_in_stats_and_metrics() {
        let set = shard_set(1).with_telemetry(qp_telemetry::TelemetrySink::enabled());
        // Warm three distinct entries, then strand them with a repricing.
        for i in 0..3usize {
            let bundle: ItemSet = [i, i + 4].as_slice().into();
            set.quote(&bundle);
            set.quote(&bundle);
        }
        assert_eq!(set.stats()[0].invalidations, 0);
        let epoch_before = set.stats()[0].epoch;
        set.apply_patch(&PricingPatch::SetUniformPrice(9.0));
        let stats = set.stats();
        assert_eq!(stats[0].invalidations, 3, "three stranded cache entries");
        assert_eq!(stats[0].epoch, epoch_before + 1);
        // A Keep patch bumps no epoch and strands nothing.
        set.apply_patch(&PricingPatch::Keep);
        assert_eq!(set.stats()[0].invalidations, 3);

        // The telemetry registry counted the same events the STATS path
        // did, and the quote path fed its hit/miss counters and spans.
        let snap = set.telemetry_sink().snapshot();
        assert_eq!(snap.counter("cache.invalidated"), Some(3));
        assert_eq!(snap.counter("cache.hit"), Some(3));
        assert_eq!(snap.counter("cache.miss"), Some(3));
        let routed = snap.histogram("quote.route").expect("span histogram");
        assert_eq!(routed.count(), 6);
    }

    /// One bundle per shard of `set`, each routed to its shard.
    fn bundle_per_shard(set: &ShardSet) -> Vec<ItemSet> {
        (0..set.num_shards())
            .map(|shard| {
                (0..64usize)
                    .map(|i| ItemSet::from([i, i + 1].as_slice()))
                    .find(|b| set.route(b) == shard)
                    .expect("some small bundle routes to every shard")
            })
            .collect()
    }

    #[test]
    fn one_patch_moves_the_one_epoch_and_clears_every_shard_cache() {
        let set = shard_set(3);
        assert!(Arc::ptr_eq(set.broker(0), set.broker(2)));
        let bundles = bundle_per_shard(&set);
        for b in &bundles {
            set.quote(b);
            assert!(set.quote(b).cache_hit, "warm entry");
        }
        let before = set.broker(0).pricing_epoch();
        let epochs = set.apply_patch(&PricingPatch::Replace(Pricing::UniformBundle {
            price: 7.0,
        }));
        assert_eq!(epochs, vec![before + 1; 3]);
        assert_eq!(set.broker(1).pricing_epoch(), before + 1);
        for (shard, b) in bundles.iter().enumerate() {
            let q = set.quote(b);
            assert_eq!(q.shard, shard);
            assert!(!q.cache_hit, "shard {shard} served a stranded entry");
            assert_eq!((q.price, q.epoch), (7.0, before + 1));
        }
        assert!(set.stats().iter().all(|s| s.invalidations == 1));
    }

    #[test]
    #[should_panic(expected = "first one's pricing and epoch")]
    fn differently_priced_brokers_are_rejected() {
        let other = tiny_broker();
        let (_, epoch) = other.pricing_snapshot();
        other.restore_pricing(Pricing::UniformBundle { price: 7.0 }, epoch);
        let _ = ShardSet::new(vec![tiny_broker(), other]);
    }

    #[test]
    fn distinct_identical_brokers_serve_the_bits_of_one_shared_broker() {
        let shared = shard_set(3);
        let distinct = ShardSet::new((0..3).map(|_| tiny_broker()).collect());
        let bundles = bundle_per_shard(&shared);
        for round in 0..3u64 {
            for (i, b) in bundles.iter().enumerate() {
                let (s, d) = (shared.quote(b), distinct.quote(b));
                assert_eq!(
                    (s.quote_id, s.shard, s.price.to_bits(), s.epoch, s.cache_hit),
                    (d.quote_id, d.shard, d.price.to_bits(), d.epoch, d.cache_hit)
                );
                let budget = (round * 3 + i as u64) as f64;
                assert_eq!(
                    shared.settle(s.quote_id, budget, round),
                    distinct.settle(d.quote_id, budget, round)
                );
            }
            let patch = PricingPatch::SetUniformPrice(2.5 + round as f64);
            assert_eq!(shared.apply_patch(&patch), distinct.apply_patch(&patch));
        }
        assert_eq!(
            crate::protocol::Response::Stats(shared.stats()).encode(),
            crate::protocol::Response::Stats(distinct.stats()).encode()
        );
    }
}
