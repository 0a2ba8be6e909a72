//! A standalone quote server over a generated workload.
//!
//! Builds one broker for the world/skewed workload, splits its quote cache
//! into `--shards` shards, binds `--addr`, and serves until a `SHUTDOWN` frame
//! arrives (e.g. `QuoteClient::shutdown_server`) or the process is killed:
//!
//! ```bash
//! cargo run --release -p qp-server --bin serve -- --addr 127.0.0.1:7979 --shards 2
//! ```
//!
//! With `--data-dir DIR` the server is **durable**: every settle and
//! repricing is WAL-logged to `DIR` before it is acknowledged, snapshots
//! are written every `--snapshot-every` repricings (default 8), and on
//! startup any existing state in `DIR` is recovered — newest valid
//! snapshot plus WAL suffix — before the listener binds. `--fsync`
//! selects the flush policy (`always`, `never`, `group:<N>`; default
//! `group:32`). Kill the process mid-run and restart with the same
//! `--data-dir` and flags: every acknowledged sale survives.
//!
//! Telemetry is always on: clients can pull the live registry with a
//! `METRICS` frame, and `--metrics-dump` additionally prints the final
//! registry as Prometheus text on shutdown.

use std::sync::Arc;

use qp_market::{Broker, SupportConfig};
use qp_server::{
    FlightRecorder, QuoteServer, ShardSet, DEFAULT_CACHE_CAPACITY, DEFAULT_SNAPSHOT_EVERY,
};
use qp_store::{FileStore, FsyncPolicy, SharedStore};
use qp_telemetry::{FlightDump, TelemetrySink};
use qp_workloads::queries::skewed;
use qp_workloads::world::{self, WorldConfig};
use qp_workloads::Scale;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr = arg_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7979".to_string());
    let shards: usize = arg_value(&args, "--shards")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let support: usize = arg_value(&args, "--support")
        .and_then(|s| s.parse().ok())
        .unwrap_or(120);
    let pool_size: usize = arg_value(&args, "--pool")
        .and_then(|s| s.parse().ok())
        .unwrap_or(100);
    let algorithm = arg_value(&args, "--algorithm").unwrap_or_else(|| "UIP".to_string());
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let metrics_dump = args.iter().any(|a| a == "--metrics-dump");
    let data_dir = arg_value(&args, "--data-dir");
    let fsync = arg_value(&args, "--fsync")
        .map(|s| {
            FsyncPolicy::parse(&s)
                .unwrap_or_else(|| panic!("bad --fsync {s:?} (always | never | group:<N>)"))
        })
        .unwrap_or_default();
    let snapshot_every: u64 = arg_value(&args, "--snapshot-every")
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SNAPSHOT_EVERY);
    assert!(shards > 0, "--shards must be positive");

    let world_cfg = WorldConfig::at_scale(Scale::Test);
    let db = world::generate(&world_cfg);
    let mut pool = skewed::workload(&db, world_cfg.countries).queries;
    pool.truncate(pool_size);
    println!(
        "serve: building {shards} {algorithm} shard(s), support {support}, {} anticipated queries",
        pool.len()
    );

    let telemetry = TelemetrySink::enabled();
    let mut rng = StdRng::seed_from_u64(seed);
    let broker = Arc::new(
        Broker::builder(db)
            .support_config(SupportConfig::with_size(support))
            .algorithm(&algorithm)
            .anticipate_all(pool.iter().map(|q| (q.clone(), rng.gen_range(1.0..=50.0))))
            .telemetry(telemetry.clone())
            .build()
            .unwrap_or_else(|e| panic!("broker build failed: {e}")),
    );
    let brokers = vec![broker; shards];

    let (shard_set, recorder) = if let Some(dir) = &data_dir {
        // A previous crash leaves `flight.dump` in the data directory:
        // report its black-box summary (the dump stays on disk for
        // `qp_top --postmortem` until the next crash overwrites it).
        match FlightDump::read_from(dir.as_ref()) {
            Ok(Some(dump)) => println!(
                "previous crash: {} (wal_seq {}, {} proto events, {} root spans{})",
                dump.reason,
                dump.wal_seq,
                dump.protocol_events.len(),
                dump.roots.len(),
                if dump.truncated { ", tail torn" } else { "" }
            ),
            Ok(None) => {}
            Err(e) => println!("unreadable flight dump in {dir}: {e}"),
        }
        // Durable mode: recovery first (a fresh directory recovers to the
        // broker's own initial state), then keep logging into the same
        // store. Recovery must finish before the listener binds so no
        // client ever sees pre-recovery state.
        let store: SharedStore = Arc::new(
            FileStore::open_with(dir, fsync, &telemetry)
                .unwrap_or_else(|e| panic!("opening data dir {dir}: {e}")),
        );
        let recorder =
            FlightRecorder::new(dir.clone(), telemetry.clone(), Some(Arc::clone(&store)));
        // Any panic from here on writes the flight dump before unwinding.
        FlightRecorder::install_panic_hook(&recorder);
        let (set, state) =
            ShardSet::restore(brokers, DEFAULT_CACHE_CAPACITY, store, snapshot_every)
                .unwrap_or_else(|e| panic!("recovering {dir}: {e}"));
        // `+ 0.0` only normalizes an empty ledger's -0.0 for display.
        println!(
            "recovered {dir}: epoch {}, {} sales / {} declines, revenue {:.2}",
            state.epoch,
            state.sales(),
            state.declines(),
            state.revenue() + 0.0
        );
        (set.with_telemetry(telemetry.clone()), Some(recorder))
    } else {
        (
            ShardSet::new(brokers).with_telemetry(telemetry.clone()),
            None,
        )
    };
    let mut server = QuoteServer::bind_with_options(addr.as_str(), shard_set, None, recorder)
        .unwrap_or_else(|e| panic!("binding {addr}: {e}"));
    println!(
        "serving on {} — send a SHUTDOWN frame to stop",
        server.local_addr()
    );
    server.wait();
    // Parting snapshot (no-op without a store): the next recovery replays
    // an empty WAL suffix instead of everything since the last cadence.
    server.shards().snapshot_now();
    if metrics_dump {
        print!(
            "{}",
            qp_telemetry::expose::prometheus_text(&telemetry.snapshot())
        );
    }
    println!("shut down");
}
