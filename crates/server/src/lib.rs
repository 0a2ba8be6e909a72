//! # qp-server — the sharded network quote-serving front-end
//!
//! Everything below this crate computes prices; this crate **serves** them.
//! The ROADMAP's north star is a system fronting heavy traffic from many
//! buyers, and the online-marketplace framing of *Pricing Queries
//! (Approximately) Optimally* (Syrgkanis & Gehrke) treats each served quote
//! as a priced query against a live pricing function — which means quoting
//! and repricing must race safely, at network speed.
//!
//! The layers, bottom to top:
//!
//! * [`protocol`] — a dependency-free (std::net only) length-prefixed
//!   binary protocol: `QUOTE` a bundle, `PURCHASE` a one-shot quote id,
//!   `STATS`, and `REPRICE` carrying a `PricingPatch` — the PR 4
//!   incremental-delta path arriving over the wire. Floats travel as bit
//!   patterns, so revenue survives the network bit-exactly. Specified
//!   byte-by-byte in `PROTOCOL.md`.
//! * [`shard`] — the [`ShardSet`]: one [`qp_market::Broker`] and `k`
//!   quote caches, bundle routing by `ItemSet::stable_hash mod k`, each
//!   cache's entries `(price, epoch)` pairs validated against the broker's
//!   pricing epoch — any repricing bumps the epoch, so a stale price can
//!   never be served (the contract documented in `qp_market::broker`).
//! * [`server`] / [`client`] — the TCP accept loop fanning connections
//!   across handler threads, and the blocking request/reply client.
//! * [`transport`] — the network implementation of `qp-sim`'s
//!   transport-agnostic settle driver: the simulator's seeded event loop
//!   drives the server over the wire, which is what makes the `loadgen`
//!   binary's revenue-determinism self-check (network run ≡ in-process run,
//!   bit for bit) possible.
//!
//! Binaries: `loadgen` (seeded open-loop traffic → `BENCH_server.json`
//! with throughput/latency per shard count, cache hit rate, and the
//! determinism check) and `serve` (a standalone server over a generated
//! workload).

pub mod client;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod top;
pub mod transport;

pub use client::QuoteClient;
pub use protocol::{ErrorCode, QuoteReply, Request, Response, ShardStats, WireError};
pub use server::{CrashSwitch, FlightRecorder, QuoteServer};
pub use shard::{
    SettleOutcome, ShardQuote, ShardSet, DEFAULT_CACHE_CAPACITY, DEFAULT_SNAPSHOT_EVERY,
    MAX_PENDING_QUOTES,
};
pub use transport::{BundleTable, Endpoint, NetTransport, NetWorker};
