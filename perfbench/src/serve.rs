//! The serving workloads: buyer sessions against a live `QuoteServer`.
//!
//! A session is a `QUOTE` followed by a `PURCHASE`. Sessions arrive on a
//! seeded open-loop Poisson schedule and are timed from their *due* time,
//! so a stall that delays later sessions shows in their latency. Two
//! worker threads, each with its own connection, claim the next event and
//! wait for its due time; `REPRICE` events ride the same connections. A
//! closed-loop phase after the open-loop phase measures saturation
//! throughput.
//!
//! The traced run replays the identical schedule twice: over TCP with
//! spans around each `QuoteClient` call, and in-process through
//! `Request::decode` → `ShardSet` → `Response::encode` on an identically
//! built shard set whose store is wrapped in a [`TimingStore`]. The
//! in-process layer means plus the unattributed remainder add up to the
//! traced mean session round trip.

use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use qp_core::ItemSet;
use qp_market::{Broker, ConflictEngine, ParallelConflictEngine, SupportConfig};
use qp_pricing::algorithms::PricingPatch;
use qp_pricing::Pricing;
use qp_server::{QuoteClient, QuoteReply, QuoteServer, Request, Response, SettleOutcome, ShardSet};
use qp_store::{FileStore, SharedStore, Store};

use crate::catalog::{self, Catalog, Family};
use crate::oracle::{PriceOracle, Served};
use crate::procfs;
use crate::report::Report;
use crate::schedule::{self, Action, Event, Rng, TrafficSpec};
use crate::stats;
use crate::timing_store::TimingStore;

/// Load-generator threads, and connections: one each.
pub const WORKERS: usize = 2;
/// Budgets are uniform in `[0, BUDGET_MAX)`.
const BUDGET_MAX: f64 = 60.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Share of the run given to the closed-loop phase. The phase makes a
/// fixed number of claims, three times what the open-loop rate would offer
/// in that time, so every run does the same work.
const CLOSED_SHARE: f64 = 0.125;
const CLOSED_SPEEDUP: f64 = 3.0;
/// Session latency percentiles are taken per window of due times and the
/// median over windows is reported, so a burst of host noise moves one
/// window rather than the run's figure. On serve-churn a snapshot lands in
/// almost every window, so the windowed tail still carries its stall.
const WINDOW_NS: u64 = 500_000_000;

#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Bundle pool: the first `pool` skewed queries, or all of them.
    pub pool: Option<usize>,
    /// Support-set size |S|.
    pub support: usize,
    pub shards: usize,
    /// Open-loop offered rate, sessions per second.
    pub rate_per_s: f64,
    /// A `REPRICE` after every this many sessions.
    pub reprice_every: Option<u32>,
    /// Attach a `FileStore`, snapshotting every this many repricings.
    pub snapshot_every: Option<u64>,
}

/// Patch number `idx` of a run: every item weight set to one seeded value.
fn patch(seed: u64, idx: u32, num_items: usize) -> PricingPatch {
    let mut rng = Rng::new(seed ^ (u64::from(idx) + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    PricingPatch::SetUniformWeight {
        weight: rng.range(0.05, 0.5),
        num_items,
    }
}

/// The serving catalog: world at test scale, the skewed queries as the
/// bundle pool, valuations uniform in `[1, 50)`.
fn catalog(spec: &ServeSpec, seed: u64) -> Catalog {
    let mut cat = Catalog::generate(Family::Skewed, seed, 50.0);
    if let Some(pool) = spec.pool {
        cat.queries.truncate(pool);
        cat.valuations.truncate(pool);
    }
    cat
}

/// `shards` identically built UBP replicas, each computing its own conflict
/// sets through the public builder.
fn brokers(cat: &Catalog, spec: &ServeSpec) -> Vec<Arc<Broker>> {
    (0..spec.shards)
        .map(|_| {
            Arc::new(
                Broker::builder(cat.db.clone())
                    .support_config(SupportConfig::with_size(spec.support))
                    .algorithm("UBP")
                    .anticipate_all(
                        cat.queries
                            .iter()
                            .cloned()
                            .zip(cat.valuations.iter().copied()),
                    )
                    .build()
                    .expect("UBP is a registered algorithm"),
            )
        })
        .collect()
}

/// What the load generator needs to know about a stood-up catalog.
struct Shape {
    bundles: Vec<ItemSet>,
    num_items: usize,
    seed_pricing: Pricing,
    seed_epoch: u64,
}

fn shape(broker: &Broker, cat: &Catalog) -> Shape {
    let bundles = ParallelConflictEngine::new(broker.database(), broker.support())
        .conflict_sets(&cat.queries);
    let (seed_pricing, seed_epoch) = broker.pricing_snapshot();
    Shape {
        bundles,
        num_items: broker.support().len(),
        seed_pricing,
        seed_epoch,
    }
}

/// A scratch data directory inside the working directory.
fn data_dir(tag: &str) -> PathBuf {
    let dir = std::env::current_dir()
        .expect("working directory")
        .join(".bench_tmp")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Removes a data directory, and its parent once that is empty.
fn remove_data_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

struct Stack {
    server: QuoteServer,
    shape: Shape,
    dir: Option<PathBuf>,
}

/// Set-up: data and queries, broker replicas, the bundle table, the
/// store, and the bound server.
fn stand_up(spec: &ServeSpec, seed: u64, tag: &str) -> Stack {
    let cat = catalog(spec, seed);
    let brokers = brokers(&cat, spec);
    let shape = shape(&brokers[0], &cat);
    let mut set = ShardSet::new(brokers);
    let mut dir = None;
    if let Some(every) = spec.snapshot_every {
        let d = data_dir(tag);
        let store: SharedStore = Arc::new(FileStore::open(&d).expect("open the data directory"));
        set = set.with_store(store, every);
        dir = Some(d);
    }
    let server = QuoteServer::bind("127.0.0.1:0", set).expect("bind loopback");
    Stack { server, shape, dir }
}

fn tear_down(mut stack: Stack) {
    stack.server.shutdown();
    drop(stack.server);
    if let Some(dir) = &stack.dir {
        remove_data_dir(dir);
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Warm,
    Open,
    Closed,
}

#[derive(Debug, Clone, Copy)]
struct SessionRec {
    phase: Phase,
    due_ns: u64,
    start_ns: u64,
    /// Span boundaries; zero for sessions recorded without spans.
    quote_end_ns: u64,
    purchase_start_ns: u64,
    end_ns: u64,
    traced: bool,
    served: Served,
}

#[derive(Debug, Clone, Copy)]
struct RepriceRec {
    start_ns: u64,
    end_ns: u64,
    epoch: u64,
    patch: u32,
}

#[derive(Default)]
struct Log {
    sessions: Vec<SessionRec>,
    reprices: Vec<RepriceRec>,
    attempted: u64,
    failed: u64,
}

impl Log {
    fn merge(&mut self, other: Log) {
        self.sessions.extend(other.sessions);
        self.reprices.extend(other.reprices);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One connection's view of the run.
struct Conn<'a> {
    addr: SocketAddr,
    client: Option<QuoteClient>,
    shape: &'a Shape,
    seed: u64,
    t0: Instant,
    log: Log,
}

impl Conn<'_> {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Performs one action; a failed call counts as failed and the
    /// connection is re-established for the next one.
    fn perform(&mut self, action: Action, phase: Phase, due_ns: u64, traced: bool) {
        self.log.attempted += 1;
        if self.client.is_none() {
            self.client = QuoteClient::connect(self.addr).ok();
        }
        let t0 = self.t0;
        let now = || t0.elapsed().as_nanos() as u64;
        let Some(client) = self.client.as_mut() else {
            self.log.failed += 1;
            return;
        };
        match action {
            Action::Session { bundle, budget } => {
                let start_ns = now();
                let quoted = client.quote(&self.shape.bundles[bundle as usize]);
                let quote_end_ns = if traced { now() } else { 0 };
                let Ok(q) = quoted else {
                    self.fail();
                    return;
                };
                let purchase_start_ns = if traced { now() } else { 0 };
                let Ok((sold, settled_price)) = client.purchase(q.quote_id, budget, 0) else {
                    self.fail();
                    return;
                };
                let end_ns = now();
                self.log.sessions.push(SessionRec {
                    phase,
                    due_ns,
                    start_ns,
                    quote_end_ns,
                    purchase_start_ns,
                    end_ns,
                    traced,
                    served: Served {
                        bundle,
                        budget,
                        price: q.price,
                        epoch: q.epoch,
                        sold,
                        settled_price,
                    },
                });
            }
            Action::Reprice { patch: idx } => {
                let p = patch(self.seed, idx, self.shape.num_items);
                let start_ns = now();
                let Ok(epochs) = client.reprice(&p) else {
                    self.fail();
                    return;
                };
                let end_ns = now();
                // Every shard applies every patch: their epochs agree.
                if epochs.is_empty() || epochs.iter().any(|&e| e != epochs[0]) {
                    self.log.failed += 1;
                    return;
                }
                self.log.reprices.push(RepriceRec {
                    start_ns,
                    end_ns,
                    epoch: epochs[0],
                    patch: idx,
                });
            }
        }
    }

    fn fail(&mut self) {
        self.log.failed += 1;
        self.client = None;
    }
}

/// Sleeps until shortly before `due_ns`, then yields the rest of the way:
/// the core stays awake, and the server's threads, which share the cores,
/// still run whenever they are ready.
fn wait_until(t0: Instant, due_ns: u64) {
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(left - SPIN_NS));
        } else {
            std::thread::yield_now();
        }
    }
}

/// How close to the due time [`wait_until`] stops sleeping.
const SPIN_NS: u64 = 150_000;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Asks the kernel to end this thread's sleeps within 1 µs of their
/// deadline rather than the default 50 µs, so the generator can sleep
/// until shortly before each due time. Best effort: on failure sleeps are
/// just less precise.
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: prctl(PR_SET_TIMERSLACK, ns) reads only its unsigned long
    // argument and changes only the calling thread's timer slack.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1_000u64) };
}

/// Quotes and settles every bundle once (budget 0), so caches are warm
/// before timing.
fn warm_up(addr: SocketAddr, shape: &Shape, seed: u64) -> Log {
    let mut conn = Conn {
        addr,
        client: None,
        shape,
        seed,
        t0: Instant::now(),
        log: Log::default(),
    };
    for b in 0..shape.bundles.len() {
        conn.perform(
            Action::Session {
                bundle: b as u32,
                budget: 0.0,
            },
            Phase::Warm,
            0,
            false,
        );
    }
    conn.log
}

/// Result of driving the server.
struct Drive {
    log: Log,
    closed_sessions: u64,
    closed_elapsed_s: f64,
    end_of_window: procfs::Snapshot,
}

/// Runs the open-loop schedule and, when `closed_claims` is set, a
/// closed-loop phase of that many claims after it. With `trace`, every
/// other session records spans around each client call.
fn drive(
    addr: SocketAddr,
    shape: &Shape,
    traffic: &TrafficSpec,
    events: &[Event],
    seed: u64,
    closed_claims: Option<u64>,
    trace: bool,
) -> Drive {
    let next = AtomicUsize::new(0);
    let closed_next = AtomicU64::new(0);
    let closed_start = AtomicU64::new(u64::MAX);
    let closed_end = AtomicU64::new(0);
    let barrier = Barrier::new(WORKERS);
    let end_of_window = std::sync::Mutex::new(None);
    let first_patch = schedule::reprices(events) as u32;
    let t0 = Instant::now();
    // Capacity for the whole run up front: growth would copy the log
    // inside the timed window and make peak RSS jump in steps.
    let capacity = (events.len() + closed_claims.unwrap_or(0) as usize) / WORKERS + 16;
    let logs: Vec<Log> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(|| {
                    tighten_timer_slack();
                    let mut conn = Conn {
                        addr,
                        client: QuoteClient::connect(addr).ok(),
                        shape,
                        seed,
                        t0,
                        log: Log {
                            sessions: Vec::with_capacity(capacity),
                            ..Log::default()
                        },
                    };
                    loop {
                        // ordering: Relaxed — a claim counter; the events
                        // are immutable and shared before the spawn.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(ev) = events.get(i) else { break };
                        wait_until(t0, ev.due_ns);
                        conn.perform(
                            ev.action,
                            Phase::Open,
                            ev.due_ns,
                            trace && i.is_multiple_of(2),
                        );
                    }
                    if let Some(claims) = closed_claims {
                        barrier.wait();
                        // ordering: Relaxed — statistics, read after the
                        // scope joins every worker.
                        closed_start.fetch_min(conn.now(), Ordering::Relaxed);
                        loop {
                            // ordering: Relaxed — a claim counter.
                            let n = closed_next.fetch_add(1, Ordering::Relaxed);
                            if n >= claims {
                                break;
                            }
                            let action =
                                schedule::closed_loop_action(traffic, seed, n, first_patch);
                            let now = conn.now();
                            conn.perform(action, Phase::Closed, now, false);
                        }
                        // ordering: Relaxed — statistics, as above.
                        closed_end.fetch_max(conn.now(), Ordering::Relaxed);
                    }
                    // The end of the window, read while both connections
                    // are still open.
                    if barrier.wait().is_leader() {
                        *end_of_window.lock().expect("snapshot lock poisoned") =
                            Some(procfs::snapshot());
                    }
                    barrier.wait();
                    conn.log
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load-generator worker panicked"))
            .collect()
    });
    let end_of_window = end_of_window
        .into_inner()
        .expect("snapshot lock poisoned")
        .expect("the barrier leader took the snapshot");
    let mut log = Log::default();
    for l in logs {
        log.merge(l);
    }
    let closed_sessions = log
        .sessions
        .iter()
        .filter(|s| s.phase == Phase::Closed)
        .count() as u64;
    // ordering: Relaxed — the scope above joined every writer.
    let closed_elapsed_s = closed_end
        .load(Ordering::Relaxed)
        .saturating_sub(closed_start.load(Ordering::Relaxed)) as f64
        / 1e9;
    Drive {
        log,
        closed_sessions,
        closed_elapsed_s,
        end_of_window,
    }
}

/// Oracle checks after the timed window. Returns the failures found and
/// adds the checks made to `attempted`.
fn check_served(
    log: &Log,
    shape: &Shape,
    seed: u64,
    stats: &[qp_server::ShardStats],
    report: &mut Report,
) -> u64 {
    let patches: Vec<(u64, PricingPatch)> = log
        .reprices
        .iter()
        .map(|r| (r.epoch, patch(seed, r.patch, shape.num_items)))
        .collect();
    let refs: Vec<(u64, &PricingPatch)> = patches.iter().map(|(e, p)| (*e, p)).collect();
    let oracle = PriceOracle::from_log(shape.seed_pricing.clone(), shape.seed_epoch, &refs);
    let served: Vec<Served> = log.sessions.iter().map(|s| s.served).collect();
    let mut failed = oracle.mismatches(&served, &shape.bundles) as u64;
    // The server's ledgers agree with the client's tallies.
    let sold = served.iter().filter(|s| s.sold).count() as u64;
    let declined = served.len() as u64 - sold;
    report.attempted += 2;
    if stats.iter().map(|s| s.sales).sum::<u64>() != sold {
        failed += 1;
    }
    if stats.iter().map(|s| s.declines).sum::<u64>() != declined {
        failed += 1;
    }
    failed
}

/// An independent recovery of the data directory must reproduce every
/// live shard ledger bit for bit.
fn check_recovery(
    dir: &Path,
    shape: &Shape,
    stats: &[qp_server::ShardStats],
    report: &mut Report,
) -> u64 {
    report.attempted += stats.len() as u64;
    let Ok(recovery) = FileStore::open(dir).and_then(|s| s.recover()) else {
        return stats.len() as u64;
    };
    let state = recovery.replay(shape.seed_pricing.clone(), shape.seed_epoch, stats.len());
    state
        .shards
        .iter()
        .zip(stats)
        .filter(|(ledger, live)| {
            ledger.total().to_bits() != live.revenue.to_bits()
                || ledger.sales.len() as u64 != live.sales
                || ledger.declined_count != live.declines
        })
        .count() as u64
        + state.shards.len().abs_diff(stats.len()) as u64
}

fn traffic(spec: &ServeSpec, bundles: usize, open_ns: u64) -> TrafficSpec {
    TrafficSpec {
        rate_per_s: spec.rate_per_s,
        duration_ns: open_ns,
        bundles,
        budget_max: BUDGET_MAX,
        reprice_every: spec.reprice_every,
    }
}

/// Stops the server, then runs every post-window check.
fn finish(
    stack: Stack,
    drive: &Drive,
    seed: u64,
    report: &mut Report,
) -> Vec<qp_server::ShardStats> {
    let stats = QuoteClient::connect(stack.server.local_addr())
        .and_then(|mut c| c.stats())
        .unwrap_or_default();
    report.attempted += 1;
    if stats.is_empty() {
        report.failed += 1;
    }
    let mut stack = stack;
    stack.server.shutdown();
    let bad = check_served(&drive.log, &stack.shape, seed, &stats, report);
    report.failed += bad;
    if let Some(dir) = &stack.dir {
        let bad = check_recovery(dir, &stack.shape, &stats, report);
        report.failed += bad;
        let bytes = procfs::dir_bytes(dir);
        let sales: u64 = stats.iter().map(|s| s.sales).sum();
        report.info("store.dir_bytes_end", bytes as f64, "B");
        report.info(
            "store.bytes_per_sale",
            bytes as f64 / sales.max(1) as f64,
            "B",
        );
    }
    tear_down(stack);
    stats
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Untraced serve run: the end-to-end metrics.
pub fn run(name: &str, spec: &ServeSpec, seed: u64, seconds: f64, report: &mut Report) {
    let mut setup_s = Vec::new();
    let mut stack = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let s = stand_up(spec, seed, &format!("{name}-{i}"));
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(previous) = stack.replace(s) {
            tear_down(previous);
        }
    }
    let stack = stack.expect("at least one set-up");
    let addr = stack.server.local_addr();
    let open_ns = (seconds * (1.0 - CLOSED_SHARE) * 1e9) as u64;
    let closed_claims = (spec.rate_per_s * CLOSED_SPEEDUP * seconds * CLOSED_SHARE) as u64;
    let traffic = traffic(spec, stack.shape.bundles.len(), open_ns);
    let events = schedule::build(&traffic, seed);

    let warm = warm_up(addr, &stack.shape, seed);
    let start_of_window = procfs::snapshot();
    let mut drive = drive(
        addr,
        &stack.shape,
        &traffic,
        &events,
        seed,
        Some(closed_claims),
        false,
    );
    drive.log.merge(warm);
    report.attempted += drive.log.attempted;
    report.failed += drive.log.failed;

    let open: Vec<&SessionRec> = drive
        .log
        .sessions
        .iter()
        .filter(|s| s.phase == Phase::Open)
        .collect();
    let latency_us: Vec<f64> = open.iter().map(|s| us(s.end_ns - s.due_ns)).collect();
    let sorted = stats::sorted(&latency_us);
    let windowed: Vec<(u64, f64)> = open
        .iter()
        .map(|s| (s.due_ns, us(s.end_ns - s.due_ns)))
        .collect();
    let p50_windowed = stats::windowed_percentile(&windowed, WINDOW_NS, 50.0, 1_000);
    let p99_windowed = stats::windowed_percentile(&windowed, WINDOW_NS, 99.0, 1_000);
    let late_us: Vec<f64> = open
        .iter()
        .map(|s| us(s.start_ns.saturating_sub(s.due_ns)))
        .collect();
    let max_sps = drive.closed_sessions as f64 / drive.closed_elapsed_s.max(1e-9);
    let reprice_us: Vec<f64> = drive
        .log
        .reprices
        .iter()
        .map(|r| us(r.end_ns - r.start_ns))
        .collect();

    let stats = finish(stack, &drive, seed, report);
    let peak = drive.end_of_window.peak_rss_mb;

    report.e2e("setup_s", stats::median(&setup_s), "s");
    report.e2e("peak_rss_mb", peak, "MB");
    report.e2e("latency_p50_ms", p50_windowed / 1e3, "ms");

    report.info("session_p50_us", p50_windowed, "us");
    report.info(
        "session_p50_whole_run_us",
        stats::percentile(&sorted, 50.0),
        "us",
    );
    report.info("session_p99_us", p99_windowed, "us");
    report.info(
        "session_p99_whole_run_us",
        stats::percentile(&sorted, 99.0),
        "us",
    );
    report.info("session_p999_us", stats::percentile(&sorted, 99.9), "us");
    report.info("max_sps", max_sps, "1/s");
    if spec.reprice_every.is_some() {
        let r = stats::sorted(&reprice_us);
        report.info("reprice_p50_us", stats::percentile(&r, 50.0), "us");
        report.info("reprice_p95_us", stats::percentile(&r, 95.0), "us");
    }
    report.info(
        "gen.late_p99_us",
        stats::percentile_of(&late_us, 99.0),
        "us",
    );
    report.info(
        "proc.threads_start",
        start_of_window.threads as f64,
        "count",
    );
    report.info(
        "proc.threads_end",
        drive.end_of_window.threads as f64,
        "count",
    );
    report.info("proc.fds_start", start_of_window.fds as f64, "count");
    report.info("proc.fds_end", drive.end_of_window.fds as f64, "count");
    report.info("proc.peak_rss_start_mb", start_of_window.peak_rss_mb, "MB");
    report.info("error_rate", report.error_rate(), "ratio");

    report.context("offered_rate_per_s", spec.rate_per_s);
    report.context("closed_loop_connections", WORKERS);
    report.context("open_loop_s", open_ns as f64 / 1e9);
    report.context("closed_loop_s", drive.closed_elapsed_s);
    report.context("open_sessions", open.len());
    report.context("p99_samples_beyond", stats::beyond(&sorted, 99.0));
    report.context("closed_sessions", drive.closed_sessions);
    report.context("reprices", drive.log.reprices.len());
    report.context("setup_repeats", SETUP_REPEATS);
    report.context("shards", stats.len());
}

/// In-process replay figures.
#[derive(Default)]
struct Replay {
    encode_ns: Vec<f64>,
    decode_ns: Vec<f64>,
    route_ns: Vec<f64>,
    quote_ns: Vec<f64>,
    settle_ns: Vec<f64>,
    price_ns: Vec<f64>,
    reprice_ns: Vec<f64>,
    bytes: u64,
    hits: u64,
    log: Log,
}

fn elapsed_ns(t: &mut Instant) -> f64 {
    let now = Instant::now();
    let ns = now.duration_since(*t).as_nanos() as f64;
    *t = now;
    ns
}

/// Replays `events` in order through the protocol codec and the shard set,
/// timing each layer call. Frame sizes include the 4-byte length prefix.
fn replay(set: &ShardSet, shape: &Shape, seed: u64, events: &[Event], warm: bool) -> Replay {
    let mut r = Replay::default();
    for ev in events {
        r.log.attempted += 1;
        match ev.action {
            Action::Session { bundle, budget } => {
                let b = &shape.bundles[bundle as usize];
                let mut t = Instant::now();
                let req = Request::Quote(b.clone()).encode();
                let mut enc = elapsed_ns(&mut t);
                let decoded = Request::decode(&req);
                let mut dec = elapsed_ns(&mut t);
                let Ok(Request::Quote(bundle_set)) = decoded else {
                    r.log.failed += 1;
                    continue;
                };
                black_box(set.route(&bundle_set));
                let route = elapsed_ns(&mut t);
                let q = set.quote(&bundle_set);
                let quote = elapsed_ns(&mut t);
                if !q.cache_hit {
                    black_box(set.broker(q.shard).versioned_price(&bundle_set));
                    r.price_ns.push(elapsed_ns(&mut t));
                }
                let resp = Response::Quoted(QuoteReply {
                    quote_id: q.quote_id,
                    price: q.price,
                    epoch: q.epoch,
                    shard: q.shard as u32,
                    cache_hit: q.cache_hit,
                })
                .encode();
                enc += elapsed_ns(&mut t);
                let quoted = Response::decode(&resp);
                dec += elapsed_ns(&mut t);
                let preq = Request::Purchase {
                    quote_id: q.quote_id,
                    budget,
                    tick: 0,
                }
                .encode();
                enc += elapsed_ns(&mut t);
                let pdecoded = Request::decode(&preq);
                dec += elapsed_ns(&mut t);
                let outcome = set.settle(q.quote_id, budget, 0);
                let settle = elapsed_ns(&mut t);
                let SettleOutcome::Settled { sold, price } = outcome else {
                    r.log.failed += 1;
                    continue;
                };
                let presp = Response::Purchased { sold, price }.encode();
                enc += elapsed_ns(&mut t);
                let purchased = Response::decode(&presp);
                dec += elapsed_ns(&mut t);
                let codec_ok = matches!(quoted, Ok(Response::Quoted(_)))
                    && matches!(pdecoded, Ok(Request::Purchase { .. }))
                    && matches!(purchased, Ok(Response::Purchased { .. }));
                if !codec_ok {
                    r.log.failed += 1;
                }
                r.log.sessions.push(SessionRec {
                    phase: if warm { Phase::Warm } else { Phase::Open },
                    due_ns: ev.due_ns,
                    start_ns: 0,
                    quote_end_ns: 0,
                    purchase_start_ns: 0,
                    end_ns: 0,
                    traced: true,
                    served: Served {
                        bundle,
                        budget,
                        price: q.price,
                        epoch: q.epoch,
                        sold,
                        settled_price: price,
                    },
                });
                if warm {
                    continue;
                }
                r.hits += u64::from(q.cache_hit);
                r.encode_ns.push(enc);
                r.decode_ns.push(dec);
                r.route_ns.push(route);
                r.quote_ns.push(quote);
                r.settle_ns.push(settle);
                r.bytes += (req.len() + resp.len() + preq.len() + presp.len() + 16) as u64;
            }
            Action::Reprice { patch: idx } => {
                let p = patch(seed, idx, shape.num_items);
                let req = Request::Reprice(p).encode();
                let Ok(Request::Reprice(p)) = Request::decode(&req) else {
                    r.log.failed += 1;
                    continue;
                };
                let t = Instant::now();
                let epochs = set.apply_patch(&p);
                r.reprice_ns.push(t.elapsed().as_nanos() as f64);
                let resp = Response::Repriced { epochs }.encode();
                match Response::decode(&resp) {
                    Ok(Response::Repriced { epochs })
                        if !epochs.is_empty() && epochs.iter().all(|&e| e == epochs[0]) =>
                    {
                        r.log.reprices.push(RepriceRec {
                            start_ns: 0,
                            end_ns: 0,
                            epoch: epochs[0],
                            patch: idx,
                        })
                    }
                    _ => r.log.failed += 1,
                }
            }
        }
    }
    r
}

/// The session budget: the traced mean round trip minus the in-process
/// layer means. Returns `(unattributed, rows + unattributed)`; the second
/// equals `total` up to rounding.
pub fn budget(total: f64, rows: &[f64]) -> (f64, f64) {
    let attributed: f64 = rows.iter().sum();
    let unattributed = total - attributed;
    (unattributed, attributed + unattributed)
}

/// Traced serve run: the per-layer metrics.
pub fn run_traced(name: &str, spec: &ServeSpec, seed: u64, seconds: f64, report: &mut Report) {
    let stack = stand_up(spec, seed, &format!("{name}-tcp"));
    let addr = stack.server.local_addr();
    let open_ns = (seconds * (1.0 - CLOSED_SHARE) * 1e9) as u64;
    let traffic = traffic(spec, stack.shape.bundles.len(), open_ns);
    let events = schedule::build(&traffic, seed);

    // 1. The schedule over TCP, every other session with client spans.
    let warm = warm_up(addr, &stack.shape, seed);
    let mut tcp = drive(addr, &stack.shape, &traffic, &events, seed, None, true);
    tcp.log.merge(warm);
    report.attempted += tcp.log.attempted;
    report.failed += tcp.log.failed;
    let open: Vec<&SessionRec> = tcp
        .log
        .sessions
        .iter()
        .filter(|s| s.phase == Phase::Open)
        .collect();
    let traced: Vec<&&SessionRec> = open.iter().filter(|s| s.traced).collect();
    let quote_us = stats::sorted(
        &traced
            .iter()
            .map(|s| us(s.quote_end_ns - s.start_ns))
            .collect::<Vec<_>>(),
    );
    let purchase_us = stats::sorted(
        &traced
            .iter()
            .map(|s| us(s.end_ns - s.purchase_start_ns))
            .collect::<Vec<_>>(),
    );
    let traced_rtt: Vec<f64> = traced.iter().map(|s| us(s.end_ns - s.start_ns)).collect();
    let plain_rtt: Vec<f64> = open
        .iter()
        .filter(|s| !s.traced)
        .map(|s| us(s.end_ns - s.start_ns))
        .collect();
    let late_us: Vec<f64> = open
        .iter()
        .map(|s| us(s.start_ns.saturating_sub(s.due_ns)))
        .collect();
    let reprice_us = stats::sorted(
        &tcp.log
            .reprices
            .iter()
            .map(|r| us(r.end_ns - r.start_ns))
            .collect::<Vec<_>>(),
    );
    let tcp_reprices = tcp.log.reprices.len();
    let end_of_window = tcp.end_of_window;
    finish(stack, &tcp, seed, report);

    report.layer(
        "client.quote_p50_us",
        stats::percentile(&quote_us, 50.0),
        "us",
    );
    report.layer(
        "client.quote_p99_us",
        stats::percentile(&quote_us, 99.0),
        "us",
    );
    report.layer(
        "client.purchase_p50_us",
        stats::percentile(&purchase_us, 50.0),
        "us",
    );
    report.layer(
        "client.purchase_p99_us",
        stats::percentile(&purchase_us, 99.0),
        "us",
    );
    report.layer(
        "client.reprice_p50_us",
        stats::percentile(&reprice_us, 50.0),
        "us",
    );
    report.layer(
        "client.reprice_p95_us",
        stats::percentile(&reprice_us, 95.0),
        "us",
    );
    report.count("client.traced_sessions", traced.len() as f64);
    report.count("client.reprices", tcp_reprices as f64);
    report.layer(
        "gen.late_p99_us",
        stats::percentile_of(&late_us, 99.0),
        "us",
    );
    report.count("proc.threads_end", end_of_window.threads as f64);
    report.count("proc.fds_end", end_of_window.fds as f64);
    let session_mean_us = stats::mean(&traced_rtt);
    let plain_mean_us = stats::mean(&plain_rtt);
    report.layer(
        "tracing.overhead_share",
        (session_mean_us - plain_mean_us) / plain_mean_us,
        "ratio",
    );

    // 2. The same schedule in-process on an identically built shard set.
    let cat = catalog(spec, seed);
    let brokers = brokers(&cat, spec);
    let shape = shape(&brokers[0], &cat);
    let mut set = ShardSet::new(brokers);
    let mut timing = None;
    let dir = data_dir(&format!("{name}-replay"));
    if let Some(every) = spec.snapshot_every {
        let file: SharedStore = Arc::new(FileStore::open(&dir).expect("open the data directory"));
        let store = Arc::new(TimingStore::new(file, dir.clone()));
        set = set.with_store(Arc::clone(&store) as SharedStore, every);
        timing = Some(store);
    }
    let warm_events: Vec<Event> = (0..shape.bundles.len())
        .map(|b| Event {
            due_ns: 0,
            action: Action::Session {
                bundle: b as u32,
                budget: 0.0,
            },
        })
        .collect();
    let warm = replay(&set, &shape, seed, &warm_events, true);
    let mut r = replay(&set, &shape, seed, &events, false);
    r.log.merge(warm.log);
    report.attempted += r.log.attempted;
    report.failed += r.log.failed;
    let stats_now = set.stats();
    let bad = check_served(&r.log, &shape, seed, &stats_now, report);
    report.failed += bad;

    let sessions = r.quote_ns.len().max(1) as f64;
    let enc = stats::mean(&r.encode_ns);
    let dec = stats::mean(&r.decode_ns);
    let quote = stats::mean(&r.quote_ns);
    let settle = stats::mean(&r.settle_ns);
    report.layer("protocol.encode_mean_ns", enc, "ns");
    report.layer("protocol.decode_mean_ns", dec, "ns");
    report.count("protocol.bytes_per_session", r.bytes as f64 / sessions);
    report.layer("shard.route_mean_ns", stats::mean(&r.route_ns), "ns");
    let q = stats::sorted(&r.quote_ns);
    let s = stats::sorted(&r.settle_ns);
    report.layer("shard.quote_mean_ns", quote, "ns");
    report.layer("shard.quote_p50_ns", stats::percentile(&q, 50.0), "ns");
    report.layer("shard.quote_p99_ns", stats::percentile(&q, 99.0), "ns");
    report.layer("shard.settle_mean_ns", settle, "ns");
    report.layer("shard.settle_p50_ns", stats::percentile(&s, 50.0), "ns");
    report.layer("shard.settle_p99_ns", stats::percentile(&s, 99.0), "ns");
    report.layer("shard.cache_hit_ratio", r.hits as f64 / sessions, "ratio");
    let rp = stats::sorted(&r.reprice_ns);
    report.count("shard.reprices", rp.len() as f64);
    report.layer(
        "shard.reprice_p50_us",
        stats::percentile(&rp, 50.0) / 1e3,
        "us",
    );
    report.layer(
        "shard.reprice_max_us",
        stats::percentile(&rp, 100.0) / 1e3,
        "us",
    );
    report.count("broker.price_calls", r.price_ns.len() as f64);
    report.layer(
        "broker.price_p50_ns",
        stats::percentile_of(&r.price_ns, 50.0),
        "ns",
    );

    let timings = timing.map(|t| t.timings()).unwrap_or_default();
    let a = stats::sorted(&timings.append_ns);
    let sn = stats::sorted(&timings.snapshot_ns);
    let dir_bytes = procfs::dir_bytes(&dir);
    let sales: u64 = stats_now.iter().map(|s| s.sales).sum();
    report.count("store.appends", a.len() as f64);
    report.layer("store.append_p50_ns", stats::percentile(&a, 50.0), "ns");
    report.layer("store.append_p99_ns", stats::percentile(&a, 99.0), "ns");
    report.count("store.snapshots", sn.len() as f64);
    report.layer(
        "store.snapshot_p50_ms",
        stats::percentile(&sn, 50.0) / 1e6,
        "ms",
    );
    report.layer(
        "store.snapshot_max_ms",
        stats::percentile(&sn, 100.0) / 1e6,
        "ms",
    );
    report.layer(
        "store.snapshot_bytes_last",
        timings.snapshot_bytes_last as f64,
        "B",
    );
    report.layer(
        "store.bytes_per_sale",
        if a.is_empty() {
            0.0
        } else {
            dir_bytes as f64 / sales.max(1) as f64
        },
        "B",
    );
    report.layer("store.dir_bytes_end", dir_bytes as f64, "B");
    drop(set);
    remove_data_dir(&dir);

    // 3. The budget: means add up, quantiles do not.
    let rows_us = [enc / 1e3, dec / 1e3, quote / 1e3, settle / 1e3];
    let (unattributed, sum) = budget(session_mean_us, &rows_us);
    report.attempted += 1;
    if (sum - session_mean_us).abs() > 1e-9 * session_mean_us.abs().max(1.0) {
        report.failed += 1;
    }
    report.layer("budget.session_mean_us", session_mean_us, "us");
    report.layer("budget.unattributed_mean_us", unattributed, "us");
    report.layer(
        "budget.unattributed_share",
        unattributed / session_mean_us,
        "ratio",
    );

    // 4. The serving catalog's own pipeline, stage by stage.
    catalog::trace(&cat, spec.support, seed, report);

    // Printed, not gated: does the run exercise the layers it is meant to?
    let hit_ratio = r.hits as f64 / sessions;
    let exercised = match spec.snapshot_every {
        None => format!(
            "cache hit ratio {hit_ratio:.4} >= 0.99 and {} store calls: {}",
            a.len(),
            catalog::met(hit_ratio >= 0.99 && a.is_empty())
        ),
        Some(_) => format!(
            "{tcp_reprices} repricings >= 200 and {} snapshots >= 10: {}",
            sn.len(),
            catalog::met(tcp_reprices >= 200 && sn.len() >= 10)
        ),
    };
    report.context("exercises_layer", exercised);
    report.layer("proc.peak_rss_mb", procfs::peak_rss_mb(), "MB");
    report.context("offered_rate_per_s", spec.rate_per_s);
    report.context("open_sessions", open.len());
    report.context("replayed_sessions", r.quote_ns.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_rows_and_remainder_sum_to_the_total() {
        let rows = [0.4, 1.25, 2.5, 3.0];
        let (unattributed, sum) = budget(40.0, &rows);
        assert_eq!(unattributed, 40.0 - 7.15);
        assert!((sum - 40.0).abs() < 1e-12);
        // A remainder can be negative when the layers over-account; the
        // sum still closes.
        let (neg, sum) = budget(5.0, &rows);
        assert!(neg < 0.0);
        assert!((sum - 5.0).abs() < 1e-12);
    }

    #[test]
    fn patches_are_seeded_and_distinct() {
        assert_eq!(patch(1, 3, 10), patch(1, 3, 10));
        assert_ne!(patch(1, 3, 10), patch(1, 4, 10));
        assert_ne!(patch(1, 3, 10), patch(2, 3, 10));
    }
}
