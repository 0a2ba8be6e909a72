//! # qp-telemetry — observability substrate for the query-pricing stack
//!
//! The serving stack (broker → shards → TCP front-end → simulator) needs
//! to *see itself* to reprice well: cache hit rates, per-stage quote
//! latency, repricing stalls, and decline spikes are exactly the signals
//! the online-pricing literature says a revenue-maximizing seller must
//! observe. This crate is the measurement substrate, built around three
//! pieces:
//!
//! * **Metrics registry** ([`TelemetrySink`] / [`Registry`]) — sharded
//!   atomic [`Counter`]s, signed [`Gauge`]s, and log-bucketed
//!   [`Histogram`]s (power-of-two buckets, mergeable, p50/p95/p99
//!   estimation), registered by static name and read by snapshot-merge.
//!   Hot paths are lock-free; registration order is deterministic. All
//!   atomics go through the `parking_lot::atomic` facade so the
//!   `--cfg qp_verify` build can model them.
//! * **Tracing spans** ([`Span`], [`SpanEvent`]) — cheap drop guards
//!   recording stage timings into a bounded per-thread ring-buffer
//!   journal, with full span trees retained as [`Exemplar`]s for requests
//!   over a slow threshold.
//! * **Exposition** ([`expose`]) — deterministic Prometheus-style text
//!   and hand-rolled JSON renderings of a [`MetricsSnapshot`], the same
//!   structure the server's `METRICS` protocol frame ships.
//! * **Distributed trace context** ([`set_current_trace_id`],
//!   [`set_current_shard`]) — a per-thread ambient trace/shard id the
//!   server installs from the wire-level `TRACED` envelope; root spans
//!   stamp it into [`Exemplar`]s so client and server span trees sharing
//!   a trace id stitch into one cross-process trace.
//! * **Windows and the flight recorder** ([`window`], [`flight`]) —
//!   rolling per-window snapshot deltas (rates and p99-over-last-10s for
//!   the `qp-top` dashboard) and a CRC-framed crash dump of the registry,
//!   the recent-root-span flight journal, and the server's last protocol
//!   events, written on kill/panic and read back post-mortem.
//!
//! ## Out-of-band by construction
//!
//! Telemetry must never change what the system computes. Nothing in this
//! crate touches an RNG, reorders work, or feeds back into pricing; the
//! [`TelemetrySink::Disabled`] default hands out handles whose every
//! operation is a branch on `None` — no clock read, no atomic, no
//! allocation — so instrumented kernels stay allocation-free and the
//! bit-identical-revenue assertions hold with telemetry on or off.
//!
//! ```
//! use qp_telemetry::TelemetrySink;
//!
//! let sink = TelemetrySink::enabled();
//! let hits = sink.counter("cache.hit");
//! let latency = sink.histogram("quote.ns");
//! {
//!     let _span = sink.span("quote.route");
//!     hits.inc();
//!     latency.record(1_500);
//! } // span records its duration here
//! let snap = sink.snapshot();
//! assert_eq!(snap.counter("cache.hit"), Some(1));
//! println!("{}", qp_telemetry::expose::prometheus_text(&snap));
//! ```

pub mod expose;
pub mod flight;
mod histogram;
mod registry;
mod span;
pub mod window;

pub use flight::{FlightDump, ProtocolEvent, FLIGHT_FILE_NAME, FLIGHT_MAGIC};
pub use histogram::{
    bucket_bounds, bucket_index, bucket_midpoint, Histogram, HistogramSnapshot, HistogramTimer,
    NUM_BUCKETS,
};
pub use registry::{
    put_metrics, take_metrics, Counter, Gauge, MetricsSnapshot, Registry, TelemetrySink,
    FLIGHT_JOURNAL_CAPACITY,
};
pub use span::{
    current_trace_id, put_exemplars, reset_thread_journal, set_current_shard, set_current_trace_id,
    take_exemplars, with_thread_journal, Exemplar, FlightRoot, Span, SpanEvent, SpanHandle,
    SpanRecord, JOURNAL_CAPACITY, NO_SHARD,
};
pub use window::{snapshot_delta, RollingWindows};
