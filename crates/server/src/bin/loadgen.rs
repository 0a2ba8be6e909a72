//! Seeded open-loop traffic against the quote server → `BENCH_server.json`.
//!
//! For each requested shard count, the binary:
//!
//! 1. builds one [`Broker`] over the world/skewed workload and starts a
//!    [`QuoteServer`] on a loopback port whose shards all price through
//!    it;
//! 2. drives it with `qp-sim`'s seeded event loop over the network
//!    transport — buyers arrive by `qp_workloads::arrivals`, quote and
//!    purchase over TCP from multiple worker connections, and the engine's
//!    live repricings travel as `REPRICE` frames (the incremental-delta
//!    path end-to-end from wire to patched pricing);
//! 3. re-runs the **same seed in-process** (`qp_sim::run` against one more
//!    identically built broker, telemetry off) and asserts the revenue
//!    totals are **bit-identical** — the transport must be
//!    revenue-invisible, and so must telemetry, which runs *enabled* on
//!    the server side of every network run;
//! 4. records throughput, client round-trip latency percentiles, and —
//!    via the `METRICS` frame — the server's own quote-latency
//!    p50/p95/p99 and cache hit/miss/invalidation counters, which land in
//!    each row's `server_metrics` object.
//!
//! ```bash
//! cargo run --release -p qp-server --bin loadgen              # full sizes
//! cargo run --release -p qp-server --bin loadgen -- --smoke   # CI-sized
//! cargo run --release -p qp-server --bin loadgen -- \
//!     --shards 1,2,4 --ticks 30 --seed 7 --out BENCH_server.json \
//!     --metrics-out METRICS_server.prom
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::atomic::{AtomicBool, Ordering};
use qp_market::{Broker, SupportConfig};
use qp_qdb::{Database, Query};
use qp_server::{
    BundleTable, CrashSwitch, Endpoint, FlightRecorder, NetTransport, QuoteClient, QuoteServer,
    ShardSet, DEFAULT_CACHE_CAPACITY, DEFAULT_SNAPSHOT_EVERY,
};
use qp_sim::{
    run, run_with, BudgetModel, BuyerSegment, EveryNTicks, Population, RepricingMode, SimConfig,
    SimReport,
};
use qp_store::{FileStore, SharedStore, Store};
use qp_telemetry::{MetricsSnapshot, TelemetrySink};
use qp_workloads::arrivals::ArrivalProcess;
use qp_workloads::queries::skewed;
use qp_workloads::world::{self, WorldConfig};
use qp_workloads::Scale;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Sizing {
    support: usize,
    pool: usize,
    ticks: u64,
    rate: f64,
    workers: usize,
    shard_counts: Vec<usize>,
}

struct RunResult {
    shards: usize,
    report: SimReport,
    baseline: SimReport,
    latencies_us: Vec<u64>,
    cache_hits: u64,
    cache_misses: u64,
    cache_invalidations: u64,
    final_epochs: Vec<u64>,
    /// The server's own telemetry registry, fetched over the `METRICS`
    /// frame after the run.
    server_metrics: MetricsSnapshot,
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    for i in 0..args.len() {
        if args[i] == flag {
            return args.get(i + 1).cloned();
        }
        if let Some(v) = args[i].strip_prefix(&format!("{flag}=")) {
            return Some(v.to_string());
        }
    }
    None
}

/// A deterministically-priced broker — every call with the same inputs
/// builds the same support, hypergraph, and pricing, which is what makes a
/// recovered server's rebuilt broker and the in-process baseline's broker
/// interchangeable with the served one, and the determinism check exact.
fn build_broker(
    db: &Database,
    pool: &[Query],
    support: usize,
    algorithm: &str,
    seed: u64,
    telemetry: TelemetrySink,
) -> Broker {
    let mut rng = StdRng::seed_from_u64(seed);
    Broker::builder(db.clone())
        .support_config(SupportConfig::with_size(support))
        .algorithm(algorithm)
        .anticipate_all(pool.iter().map(|q| (q.clone(), rng.gen_range(1.0..=50.0))))
        .telemetry(telemetry)
        .build()
        .unwrap_or_else(|e| panic!("broker build failed: {e}"))
}

/// A two-phase buyer schedule: a broad mix up front, a long-tail shift at
/// the midpoint — enough phase structure to exercise the bundle table's
/// phase indexing and the repricer's reaction to changing demand.
fn schedule(pool: &[Query], ticks: u64) -> Vec<(u64, Population)> {
    let phase0 = Population::new(vec![
        BuyerSegment::new(
            "regulars",
            pool.to_vec(),
            BudgetModel::Uniform { lo: 2.0, hi: 35.0 },
        ),
        BuyerSegment::new(
            "premium",
            pool.to_vec(),
            BudgetModel::Normal {
                mean: 60.0,
                variance: 100.0,
            },
        )
        .weight(0.35)
        .skew(1.2),
    ]);
    let phase1 = Population::new(vec![BuyerSegment::new(
        "long-tail",
        pool.to_vec(),
        BudgetModel::Exponential { mean: 10.0 },
    )
    .skew(1.4)]);
    vec![(0, phase0), ((ticks / 2).max(1), phase1)]
}

fn percentile_ms(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[idx] as f64 / 1000.0
}

/// The per-row `server_metrics` JSON object: the server's own view of the
/// run, straight off the `METRICS` snapshot — quote-latency quantiles from
/// the `server.request` span histogram and the epoch-cache counters.
fn server_metrics_json(snap: &MetricsSnapshot) -> String {
    let latency = snap
        .histogram("server.request")
        .cloned()
        .unwrap_or_default();
    let (p50, p95, p99) = latency.percentiles();
    format!(
        "{{\"requests\": {}, \"latency_ms\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}}}, \
         \"cache_hits\": {}, \"cache_misses\": {}, \"cache_invalidations\": {}}}",
        latency.count(),
        json_f64(p50 as f64 / 1e6),
        json_f64(p95 as f64 / 1e6),
        json_f64(p99 as f64 / 1e6),
        snap.counter("cache.hit").unwrap_or(0),
        snap.counter("cache.miss").unwrap_or(0),
        snap.counter("cache.invalidated").unwrap_or(0)
    )
}

/// Renders a finite f64 exactly; NaN/∞ become 0 (JSON cannot carry them).
fn json_f64(x: f64) -> String {
    if !x.is_finite() {
        return "0.0".to_string();
    }
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    db: &Database,
    pool: &[Query],
    sizing: &Sizing,
    shards: usize,
    algorithm: &str,
    seed: u64,
    arrivals: &ArrivalProcess,
    cfg: &SimConfig,
    trace: bool,
) -> RunResult {
    let sched = schedule(pool, sizing.ticks);

    // The whole serving side runs with telemetry ENABLED — the determinism
    // assertion below is also the proof that measurement is out-of-band.
    let telemetry = TelemetrySink::enabled();
    if trace {
        // Capture every root span as an exemplar: the stitching assertion
        // below needs both halves of each trace, not just the slow ones.
        telemetry.set_slow_threshold(Duration::ZERO);
    }

    // One broker for every shard; the bundle table reads its catalog too.
    let broker = Arc::new(build_broker(
        db,
        pool,
        sizing.support,
        algorithm,
        seed,
        telemetry.clone(),
    ));
    let shard_set =
        ShardSet::new(vec![Arc::clone(&broker); shards]).with_telemetry(telemetry.clone());
    let mut server = QuoteServer::bind("127.0.0.1:0", shard_set).expect("bind loopback");

    let bundles = BundleTable::for_schedule(&broker, &sched);
    let mut net = NetTransport::connect(server.local_addr(), bundles).expect("connect transport");
    // Distributed tracing: a separate client-side registry (threshold 0)
    // receives the `client.settle` root spans; the transport mints trace
    // ids and sends every request in a `TRACED` envelope.
    let client_sink = if trace {
        let sink = TelemetrySink::enabled();
        sink.set_slow_threshold(Duration::ZERO);
        net.enable_tracing(sink.clone());
        Some(sink)
    } else {
        None
    };
    let mut policy = EveryNTicks::new(4);
    let net_cfg = SimConfig {
        telemetry: telemetry.clone(),
        ..cfg.clone()
    };
    let report = run_with(&net, &sched, arrivals, &mut policy, &net_cfg);

    let mut latencies_us = net.take_latencies_us();
    latencies_us.sort_unstable();
    let stats = net.admin().stats().expect("server stats");
    let server_metrics = net.admin().metrics().expect("server metrics");
    let cache_hits: u64 = stats.iter().map(|s| s.cache_hits).sum();
    let cache_misses: u64 = stats.iter().map(|s| s.quotes - s.cache_hits).sum();
    let cache_invalidations: u64 = stats.iter().map(|s| s.invalidations).sum();
    let final_epochs: Vec<u64> = stats.iter().map(|s| s.epoch).collect();

    // STATS and METRICS count the same events on the same paths; a drift
    // between them is an instrumentation bug.
    assert_eq!(
        server_metrics.counter("cache.hit").unwrap_or(0),
        cache_hits,
        "METRICS cache.hit drifted from STATS"
    );
    assert_eq!(
        server_metrics.counter("cache.miss").unwrap_or(0),
        cache_misses,
        "METRICS cache.miss drifted from STATS"
    );
    assert_eq!(
        server_metrics.counter("cache.invalidated").unwrap_or(0),
        cache_invalidations,
        "METRICS cache.invalidated drifted from STATS"
    );

    // The server-side ledgers saw exactly the traffic the engine drove.
    let server_sales: u64 = stats.iter().map(|s| s.sales).sum();
    let server_declines: u64 = stats.iter().map(|s| s.declines).sum();
    assert_eq!(
        server_sales as usize,
        report.sales(),
        "ledger sales drifted"
    );
    assert_eq!(
        server_declines as usize,
        report.declines(),
        "ledger declines drifted"
    );

    // Tracing mode: prove the span trees stitch across the wire. The
    // client half (`client.settle` roots) and the server half
    // (`server.request` roots) must share trace ids, and the `TRACE`
    // lookup frame must return the server half for a stitched id.
    if let Some(client_sink) = &client_sink {
        let client_snap = client_sink.snapshot();
        let client_ids: std::collections::HashSet<u64> = client_snap
            .exemplars
            .iter()
            .filter(|e| e.root == "client.settle" && e.trace_id != 0)
            .map(|e| e.trace_id)
            .collect();
        // Newest-last on the server side; pick the freshest stitched id so
        // the follow-up TRACE lookup finds it still in the exemplar ring.
        let stitched: Vec<u64> = server_metrics
            .exemplars
            .iter()
            .filter(|e| e.root == "server.request" && client_ids.contains(&e.trace_id))
            .map(|e| e.trace_id)
            .collect();
        assert!(
            !stitched.is_empty(),
            "no cross-process stitched exemplar: {} client roots vs {} server roots \
             shared no trace id",
            client_ids.len(),
            server_metrics.exemplars.len()
        );
        assert!(
            server_metrics
                .exemplars
                .iter()
                .filter(|e| stitched.contains(&e.trace_id))
                .any(|e| e.events.iter().any(|ev| ev.shard != qp_telemetry::NO_SHARD)),
            "stitched server exemplars carry no shard tag"
        );
        let freshest = *stitched.last().expect("non-empty");
        let looked_up = net.admin().trace(freshest).expect("TRACE lookup frame");
        assert!(
            looked_up.iter().any(|e| e.root == "server.request"),
            "TRACE frame for {freshest:#x} returned no server.request exemplar"
        );
        println!(
            "  tracing: {} stitched cross-process exemplars, TRACE lookup OK",
            stitched.len()
        );
    }

    drop(net);
    server.shutdown();

    // The in-process baseline: one more identical broker, the same seed,
    // the same event loop — only the transport differs, and telemetry is
    // OFF, so the bit-identical assertion also covers the sink.
    let baseline_broker = build_broker(
        db,
        pool,
        sizing.support,
        algorithm,
        seed,
        TelemetrySink::default(),
    );
    let mut baseline_policy = EveryNTicks::new(4);
    let baseline = run(
        &baseline_broker,
        &sched,
        arrivals,
        &mut baseline_policy,
        cfg,
    );

    RunResult {
        shards,
        report,
        baseline,
        latencies_us,
        cache_hits,
        cache_misses,
        cache_invalidations,
        final_epochs,
        server_metrics,
    }
}

/// One crash-recovery run in the run directory `dir`: a durable server is
/// killed mid-run after `kill_after` dispatched requests, a supervisor
/// thread recovers it from `dir` onto a fresh port, and the seeded engine
/// (resilient transport) rides through the outage. Asserts, bit-for-bit:
///
/// 1. the crash-run revenue equals an uninterrupted in-process run of the
///    same seed (recovery lost nothing, replayed nothing twice);
/// 2. an independent WAL replay (newest snapshot + suffix) reproduces the
///    recovered server's final per-shard ledgers exactly.
#[allow(clippy::too_many_arguments)]
fn run_crash_one(
    db: &Database,
    pool: &[Query],
    sizing: &Sizing,
    shards: usize,
    algorithm: &str,
    seed: u64,
    arrivals: &ArrivalProcess,
    cfg: &SimConfig,
    dir: &Path,
    kill_after: u64,
    snapshot_every: u64,
) -> (SimReport, SimReport) {
    let _ = std::fs::remove_dir_all(dir);
    let sched = schedule(pool, sizing.ticks);
    let telemetry = TelemetrySink::enabled();

    let broker = Arc::new(build_broker(
        db,
        pool,
        sizing.support,
        algorithm,
        seed,
        telemetry.clone(),
    ));
    let store: SharedStore = Arc::new(FileStore::open(dir).expect("open data dir"));
    // The flight recorder rides along: the crash-switch fire freezes the
    // registry, the recent root spans, the last protocol events, and the
    // store's WAL sequence into `flight.dump` inside the data directory.
    let recorder = FlightRecorder::new(dir, telemetry.clone(), Some(Arc::clone(&store)));
    let shard_set = ShardSet::new(vec![Arc::clone(&broker); shards])
        .with_store(store, snapshot_every)
        .with_telemetry(telemetry.clone());
    let crash = CrashSwitch::after(kill_after);
    let server = QuoteServer::bind_with_options(
        "127.0.0.1:0",
        shard_set,
        Some(crash.clone()),
        Some(Arc::clone(&recorder)),
    )
    .expect("bind loopback");
    let endpoint = Endpoint::new(server.local_addr());
    let done = Arc::new(AtomicBool::new(false));
    // The WAL sequence the supervisor's recovery scan finds — the value
    // the flight dump's own wal_seq must match exactly.
    let recovered_seq = Arc::new(parking_lot::atomic::AtomicU64::new(u64::MAX));

    // The supervisor: the "operator" that notices the dead process,
    // recovers from the data directory, and republishes the endpoint.
    let supervisor = {
        let crash = crash.clone();
        let endpoint = Arc::clone(&endpoint);
        let done = Arc::clone(&done);
        let db = db.clone();
        let pool = pool.to_vec();
        let algorithm = algorithm.to_string();
        let telemetry = telemetry.clone();
        let dir = dir.to_path_buf();
        let support = sizing.support;
        let recovered_seq = Arc::clone(&recovered_seq);
        std::thread::spawn(move || {
            let mut server = server;
            let mut recoveries = 0u32;
            loop {
                if crash.crashed() && recoveries == 0 {
                    // Drain in-flight dispatches before touching the dir:
                    // after quiesce the dead server can never append again.
                    server.quiesce();
                    let broker = Arc::new(build_broker(
                        &db,
                        &pool,
                        support,
                        &algorithm,
                        seed,
                        telemetry.clone(),
                    ));
                    let store: SharedStore =
                        Arc::new(FileStore::open(&dir).expect("reopen data dir"));
                    // ordering: SeqCst — published for the post-run flight
                    // dump assertion; exactness over speed off the hot path.
                    recovered_seq.store(store.wal_seq(), Ordering::SeqCst);
                    let (set, _state) = ShardSet::restore(
                        vec![broker; shards],
                        DEFAULT_CACHE_CAPACITY,
                        store,
                        snapshot_every,
                    )
                    .expect("crash recovery");
                    let set = set.with_telemetry(telemetry.clone());
                    server = QuoteServer::bind("127.0.0.1:0", set).expect("rebind after crash");
                    endpoint.update(server.local_addr());
                    recoveries += 1;
                }
                // ordering: Acquire pairs with the main thread's Release
                // store after the run completes.
                if done.load(Ordering::Acquire) {
                    server.shutdown();
                    return recoveries;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let bundles = BundleTable::for_schedule(&broker, &sched);
    let net = NetTransport::connect_endpoint(Arc::clone(&endpoint), bundles).expect("connect");
    let mut policy = EveryNTicks::new(4);
    let net_cfg = SimConfig {
        telemetry: telemetry.clone(),
        ..cfg.clone()
    };
    let report = run_with(&net, &sched, arrivals, &mut policy, &net_cfg);
    drop(net);

    assert!(
        crash.crashed(),
        "the kill offset ({kill_after} requests) never fired — this workload makes more \
         requests than that; pick a smaller --kill-after"
    );

    // Final per-shard stats from the *recovered* server, over a fresh
    // connection (the endpoint may point at the post-crash port).
    let stats = {
        let mut tries = 0u32;
        loop {
            let (addr, _) = endpoint.current();
            match QuoteClient::connect(addr).and_then(|mut c| c.stats()) {
                Ok(s) => break s,
                Err(e) => {
                    tries += 1;
                    assert!(tries < 1000, "final STATS unreachable: {e}");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    };
    // ordering: Release pairs with the supervisor's Acquire poll of `done`.
    done.store(true, Ordering::Release);
    let recoveries = supervisor.join().expect("supervisor thread");
    assert_eq!(recoveries, 1, "exactly one crash, exactly one recovery");

    // The crash must have left a parseable flight dump whose frozen WAL
    // sequence is exactly what the supervisor's recovery scan found — the
    // dump and the recovered store describe the same instant of death.
    let dump = qp_telemetry::FlightDump::read_from(dir)
        .expect("read flight dump")
        .expect("the crash fire site writes flight.dump");
    assert_eq!(dump.reason, "crash-switch kill", "dump reason");
    assert!(!dump.truncated, "flight dump tail torn on a clean kill");
    assert_eq!(
        dump.wal_seq,
        recovered_seq.load(Ordering::SeqCst),
        "flight dump wal_seq diverged from the recovered WAL sequence"
    );
    assert!(
        !dump.protocol_events.is_empty(),
        "flight dump carries no protocol events despite {kill_after} dispatches"
    );
    assert!(
        !dump.roots.is_empty(),
        "flight dump carries no root spans despite telemetry enabled"
    );
    println!(
        "  flight dump: {} proto events, {} root spans, wal_seq {} == recovered",
        dump.protocol_events.len(),
        dump.roots.len(),
        dump.wal_seq
    );

    // Oracle 1: the ledgers the engine saw are the ledgers the server kept.
    let server_sales: u64 = stats.iter().map(|s| s.sales).sum();
    let server_declines: u64 = stats.iter().map(|s| s.declines).sum();
    assert_eq!(
        server_sales as usize,
        report.sales(),
        "ledger sales drifted"
    );
    assert_eq!(
        server_declines as usize,
        report.declines(),
        "ledger declines drifted"
    );

    // Oracle 2: an independent replay of the data directory — newest valid
    // snapshot plus WAL suffix — reproduces every shard ledger bit-exactly.
    let oracle_broker = build_broker(
        db,
        pool,
        sizing.support,
        algorithm,
        seed,
        TelemetrySink::default(),
    );
    let replay_store = FileStore::open(dir).expect("reopen for replay");
    let recovery = replay_store.recover().expect("recover for replay");
    let (seed_pricing, seed_epoch) = oracle_broker.pricing_snapshot();
    let state = recovery.replay(seed_pricing, seed_epoch, shards);
    assert_eq!(state.shards.len(), stats.len(), "replay shard count");
    for (i, (ledger, s)) in state.shards.iter().zip(&stats).enumerate() {
        assert_eq!(
            ledger.total().to_bits(),
            s.revenue.to_bits(),
            "WAL replay revenue diverged from the live ledger on shard {i}"
        );
        assert_eq!(ledger.sales.len(), s.sales, "shard {i} sales");
        assert_eq!(ledger.declined_count, s.declines, "shard {i} declines");
    }

    // Oracle 3: the uninterrupted same-seed in-process run.
    let mut baseline_policy = EveryNTicks::new(4);
    let baseline = run(&oracle_broker, &sched, arrivals, &mut baseline_policy, cfg);
    (report, baseline)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let trace = args.iter().any(|a| a == "--trace");
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let algorithm = arg_value(&args, "--algorithm").unwrap_or_else(|| "UBP".to_string());
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_server.json".to_string());
    let mut sizing = if smoke {
        Sizing {
            support: 60,
            pool: 40,
            ticks: 10,
            rate: 6.0,
            workers: 3,
            shard_counts: vec![1, 2],
        }
    } else {
        Sizing {
            support: 120,
            pool: 100,
            ticks: 30,
            rate: 12.0,
            workers: 4,
            shard_counts: vec![1, 2, 4],
        }
    };
    if let Some(t) = arg_value(&args, "--ticks").and_then(|s| s.parse().ok()) {
        sizing.ticks = t;
    }
    if let Some(w) = arg_value(&args, "--workers").and_then(|s| s.parse().ok()) {
        sizing.workers = w;
    }
    if let Some(list) = arg_value(&args, "--shards") {
        sizing.shard_counts = list
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .filter(|&s| s > 0)
            .collect();
        assert!(
            !sizing.shard_counts.is_empty(),
            "--shards parsed to nothing"
        );
    }

    println!(
        "loadgen: workload skewed, seed {seed}, {} ticks, shard counts {:?}, {} workers{}{}",
        sizing.ticks,
        sizing.shard_counts,
        sizing.workers,
        if smoke { " (smoke)" } else { "" },
        if trace { " (traced)" } else { "" }
    );

    let world_cfg = WorldConfig::at_scale(Scale::Test);
    let db = world::generate(&world_cfg);
    let mut pool = skewed::workload(&db, world_cfg.countries).queries;
    pool.truncate(sizing.pool);
    let arrivals = ArrivalProcess::Poisson { rate: sizing.rate };
    let cfg = SimConfig {
        ticks: sizing.ticks,
        seed,
        workers: sizing.workers,
        algorithm: algorithm.clone(),
        demand_window: 2048,
        repricing_mode: RepricingMode::Incremental,
        telemetry: TelemetrySink::default(),
    };

    // Crash-recovery harness: `--kill-after N[,N2,...]` kills the durable
    // server after N dispatched requests (per offset, per shard count),
    // recovers it from `--data-dir`, and demands bit-identical revenue
    // against the uninterrupted in-process run. No benchmark artifact —
    // this mode is a correctness gate. Each run's directory is removed once
    // its oracles pass (a failing run keeps it for post-mortem), and so is
    // the default root once every run has passed.
    if let Some(kill_list) = arg_value(&args, "--kill-after") {
        let offsets: Vec<u64> = kill_list
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect();
        assert!(!offsets.is_empty(), "--kill-after parsed to nothing");
        let given_dir = arg_value(&args, "--data-dir").map(PathBuf::from);
        let data_dir = given_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("qp-crash-{}", std::process::id()))
        });
        let snapshot_every: u64 = arg_value(&args, "--snapshot-every")
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_SNAPSHOT_EVERY);
        println!(
            "crash harness: kill offsets {:?}, data dir {}, snapshot every {snapshot_every}",
            offsets,
            data_dir.display()
        );
        let mut runs = 0usize;
        for &shards in &sizing.shard_counts {
            for &kill in &offsets {
                let run_dir = data_dir.join(format!("s{shards}-k{kill}"));
                let (report, baseline) = run_crash_one(
                    &db,
                    &pool,
                    &sizing,
                    shards,
                    &algorithm,
                    seed,
                    &arrivals,
                    &cfg,
                    &run_dir,
                    kill,
                    snapshot_every,
                );
                let revenue = report.total_revenue();
                let baseline_revenue = baseline.total_revenue();
                let identical = revenue.to_bits() == baseline_revenue.to_bits()
                    && report.sales() == baseline.sales()
                    && report.declines() == baseline.declines();
                println!(
                    "  shards {:>2}  kill@{:>4}: revenue {:.2} ({} sales) vs uninterrupted \
                     {:.2} ({} sales) — {}",
                    shards,
                    kill,
                    revenue,
                    report.sales(),
                    baseline_revenue,
                    baseline.sales(),
                    if identical {
                        "BIT-IDENTICAL"
                    } else {
                        "MISMATCH"
                    }
                );
                assert!(
                    identical,
                    "crash recovery diverged at {shards} shards, kill@{kill}: \
                     {revenue:.17} vs {baseline_revenue:.17}"
                );
                std::fs::remove_dir_all(&run_dir)
                    .unwrap_or_else(|e| panic!("removing {}: {e}", run_dir.display()));
                runs += 1;
            }
        }
        if given_dir.is_none() {
            std::fs::remove_dir(&data_dir)
                .unwrap_or_else(|e| panic!("removing {}: {e}", data_dir.display()));
        }
        println!("crash harness: {runs} kill/recover runs, every one bit-identical");
        return;
    }

    let mut rows: Vec<String> = Vec::new();
    let mut merged_metrics = MetricsSnapshot::default();
    for &shards in &sizing.shard_counts {
        let r = run_one(
            &db, &pool, &sizing, shards, &algorithm, seed, &arrivals, &cfg, trace,
        );
        let revenue = r.report.total_revenue();
        let baseline_revenue = r.baseline.total_revenue();
        let deterministic = revenue.to_bits() == baseline_revenue.to_bits()
            && r.report.sales() == r.baseline.sales()
            && r.report.declines() == r.baseline.declines();
        let hit_rate = if r.cache_hits + r.cache_misses == 0 {
            0.0
        } else {
            r.cache_hits as f64 / (r.cache_hits + r.cache_misses) as f64
        };
        println!(
            "  shards {:>2}: {:>5} quotes  {:>8.0} q/s  p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms  \
             cache {:>5.1}%  revenue {:.2}  determinism {}",
            r.shards,
            r.report.quotes(),
            r.report.quotes_per_sec(),
            percentile_ms(&r.latencies_us, 50.0),
            percentile_ms(&r.latencies_us, 95.0),
            percentile_ms(&r.latencies_us, 99.0),
            100.0 * hit_rate,
            revenue,
            if deterministic { "OK" } else { "MISMATCH" }
        );
        assert!(
            deterministic,
            "revenue determinism check FAILED at {} shards: network {:.17} ({} sales) vs \
             in-process {:.17} ({} sales)",
            r.shards,
            revenue,
            r.report.sales(),
            baseline_revenue,
            r.baseline.sales()
        );

        let epochs: Vec<String> = r.final_epochs.iter().map(u64::to_string).collect();
        rows.push(format!(
            "{{\n      \"shards\": {},\n      \"ticks\": {},\n      \"quotes\": {},\n      \
             \"sales\": {},\n      \"declines\": {},\n      \"repricings\": {},\n      \
             \"throughput_qps\": {},\n      \"latency_ms\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}}},\n      \
             \"cache_hits\": {},\n      \"cache_misses\": {},\n      \"cache_invalidations\": {},\n      \
             \"cache_hit_rate\": {},\n      \
             \"server_metrics\": {},\n      \
             \"final_epochs\": [{}],\n      \"revenue\": {},\n      \"revenue_bits\": {},\n      \
             \"baseline_revenue\": {},\n      \"baseline_revenue_bits\": {},\n      \
             \"determinism_ok\": {}\n    }}",
            r.shards,
            sizing.ticks,
            r.report.quotes(),
            r.report.sales(),
            r.report.declines(),
            r.report.repricings.len(),
            json_f64(r.report.quotes_per_sec()),
            json_f64(percentile_ms(&r.latencies_us, 50.0)),
            json_f64(percentile_ms(&r.latencies_us, 95.0)),
            json_f64(percentile_ms(&r.latencies_us, 99.0)),
            r.cache_hits,
            r.cache_misses,
            r.cache_invalidations,
            json_f64(hit_rate),
            server_metrics_json(&r.server_metrics),
            epochs.join(", "),
            json_f64(revenue),
            revenue.to_bits(),
            json_f64(baseline_revenue),
            baseline_revenue.to_bits(),
            deterministic
        ));
        merged_metrics.merge(&r.server_metrics);
    }

    let json = format!(
        "{{\n  \"benchmark\": \"qp_server\",\n  \"workload\": \"skewed\",\n  \"seed\": {},\n  \
         \"algorithm\": {:?},\n  \"workers\": {},\n  \"runs\": [\n    {}\n  ]\n}}\n",
        seed,
        algorithm,
        sizing.workers,
        rows.join(",\n    ")
    );
    std::fs::write(&out_path, json).expect("writing the benchmark artifact");
    println!(
        "wrote {out_path}: {} shard counts, every determinism check bit-exact",
        sizing.shard_counts.len()
    );

    // Prometheus-style exposition of the merged server registries, for
    // eyeballing or scraping-pipeline smoke tests.
    if let Some(prom_path) = arg_value(&args, "--metrics-out") {
        let text = qp_telemetry::expose::prometheus_text(&merged_metrics);
        std::fs::write(&prom_path, text).expect("writing the metrics exposition");
        println!("wrote {prom_path}: merged server METRICS in Prometheus text form");
    }
}
