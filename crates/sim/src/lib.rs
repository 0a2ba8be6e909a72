//! # qp-sim — a discrete-event data-market simulator
//!
//! The paper evaluates its pricing algorithms on static hypergraph
//! instances; this crate adds the dimension the ROADMAP's production story
//! needs: **time**. Buyers arrive over simulated ticks, quote against a live
//! [`qp_market::Broker`] from multiple worker threads, purchase or decline
//! against their budget, and a pluggable repricing policy re-runs a registry
//! algorithm on the observed demand and hot-swaps the pricing mid-traffic —
//! the online setting of *Pricing Queries (Approximately) Optimally*
//! (Syrgkanis & Gehrke) layered over the paper's static machinery.
//!
//! The moving parts:
//!
//! * [`population`] — buyer segments with budget distributions (built on
//!   [`qp_workloads::dist`]) and per-segment query pools, mixed by weight.
//! * [`qp_workloads::arrivals`] — Poisson / bursty / flash-crowd tick-based
//!   arrival processes (exported by the workloads crate so traffic shapes
//!   live next to the other workload generators).
//! * [`repricing`] — the [`repricing::RepricingPolicy`] trait and the three
//!   standard policies: [`repricing::Never`], [`repricing::EveryNTicks`],
//!   [`repricing::OnConversionDrift`].
//! * [`demand`] — the sliding [`DemandWindow`]: observed quotes accumulate
//!   a `HypergraphDelta` between repricings and apply to one live demand
//!   hypergraph in O(|delta|), instead of rebuilding it from scratch.
//! * [`driver`] — the transport-agnostic settle fan-out: the
//!   [`driver::SettleTransport`] boundary between the event loop and
//!   whatever answers quotes (the in-process broker here; `qp-server`'s
//!   TCP client in the serving layer), plus the arrival-order
//!   [`driver::settle_batch_into`] used by both.
//! * [`engine`] — the seeded, deterministic event loop: per-tick sampling on
//!   the coordinator, concurrent quote-and-settle across worker threads,
//!   arrival-order aggregation (same seed ⇒ bit-identical revenue,
//!   regardless of worker count), and live pricing updates on tick
//!   boundaries — incremental in-place patches through
//!   `Broker::apply_delta` by default, with [`RepricingMode::FullRebuild`]
//!   as the legacy baseline.
//! * [`scenario`] — the scenario library (`steady_state`, `flash_crowd`,
//!   `shifting_demand`, `arbitrage_probe`), instantiable over any query
//!   pool.
//! * [`metrics`] — per-tick stats, repricing events, and the
//!   [`metrics::SimReport`] that serializes into `BENCH_sim.json`
//!   (revenue-over-time, conversion rate, quotes/sec, repricing latency).

pub mod demand;
pub mod driver;
pub mod engine;
pub mod metrics;
pub mod population;
pub mod repricing;
pub mod scenario;

pub use demand::DemandWindow;
pub use driver::{settle_batch_into, BrokerTransport, SettleTransport, SettleWorker, SettledQuote};
pub use engine::{run, run_with, RepricingMode, SimConfig};
pub use metrics::{bench_json, RepricingEvent, SimReport, TickStats};
pub use population::{BudgetModel, Buyer, BuyerSegment, Population};
pub use repricing::{EveryNTicks, Never, OnConversionDrift, RepricingPolicy};
pub use scenario::{library, PolicyKind, Scenario};
