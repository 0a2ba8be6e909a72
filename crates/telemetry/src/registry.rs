//! The metrics registry and the [`TelemetrySink`] handed through the
//! stack.
//!
//! Registration (name → core) takes a short mutex on a `BTreeMap` — it
//! happens once per metric at startup, and the `BTreeMap` keeps every
//! exposition surface in deterministic name order. The *hot* paths never
//! touch that lock: counter and histogram handles hold `Arc`s to their
//! cores and record with relaxed `fetch_add`s. Counters are additionally
//! sharded across cache-line-padded slots indexed by a per-thread tag, so
//! concurrent workers don't serialize on one cell.
//!
//! Everything atomic goes through the `parking_lot::atomic` facade, so the
//! `--cfg qp_verify` instrumented build swaps in the model-checker shims.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::atomic::{AtomicU64, AtomicUsize, Ordering};
use parking_lot::Mutex;

use qp_core::codec::{put_str, put_u64, ByteReader, CodecError};
use qp_core::RingBuffer;

use crate::histogram::{Histogram, HistogramCore, HistogramSnapshot, NUM_BUCKETS};
use crate::span::{put_exemplars, take_exemplars, Exemplar, FlightRoot, Span};

/// Counter shard count. Eight padded slots cover the worker counts this
/// stack runs (≤ 8 shard threads) without false sharing; `get` sums them.
const COUNTER_SHARDS: usize = 8;

/// How many slow-request exemplars the registry retains (newest win).
const EXEMPLAR_CAPACITY: usize = 16;

/// How many completed root span trees the flight journal retains for the
/// crash recorder (newest win). Bounded: a dump is at most this many
/// trees of at most `MAX_TREE_EVENTS` spans each.
pub const FLIGHT_JOURNAL_CAPACITY: usize = 64;

/// Monotonic thread tag source for counter-shard selection.
static NEXT_THREAD_TAG: AtomicUsize = AtomicUsize::new(0);

/// This thread's counter-shard slot, assigned once on first use.
#[inline]
fn thread_slot() -> usize {
    thread_local! {
        static SLOT: usize =
            // ordering: Relaxed — a unique-tag ticket; no other memory
            // depends on its order.
            NEXT_THREAD_TAG.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
    }
    SLOT.with(|s| *s)
}

/// One cache-line-padded counter cell.
#[derive(Debug)]
#[repr(align(64))]
struct PaddedCell(AtomicU64);

/// Sharded monotonic counter core.
#[derive(Debug)]
pub(crate) struct CounterCore {
    slots: [PaddedCell; COUNTER_SHARDS],
}

impl CounterCore {
    fn new() -> Self {
        CounterCore {
            slots: std::array::from_fn(|_| PaddedCell(AtomicU64::new(0))),
        }
    }

    #[inline]
    fn add(&self, delta: u64) {
        let cell = &self.slots[thread_slot()].0;
        // ordering: Relaxed — monotonic counter; readers only need eventual totals.
        cell.fetch_add(delta, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.slots
            .iter()
            // ordering: Relaxed — statistical read of monotonic cells.
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::saturating_add)
    }
}

/// Signed gauge core: an `AtomicU64` holding an `i64` in two's complement
/// (wrapping `fetch_add` implements signed addition exactly).
#[derive(Debug)]
pub(crate) struct GaugeCore {
    value: AtomicU64,
}

impl GaugeCore {
    fn new() -> Self {
        GaugeCore {
            value: AtomicU64::new(0),
        }
    }

    #[inline]
    fn add(&self, delta: i64) {
        // ordering: Relaxed — independent scalar, readers want any recent
        // value, not an ordering guarantee.
        self.value.fetch_add(delta as u64, Ordering::Relaxed);
    }

    #[inline]
    fn set(&self, value: i64) {
        // ordering: Relaxed — see `add`.
        self.value.store(value as u64, Ordering::Relaxed);
    }

    fn get(&self) -> i64 {
        // ordering: Relaxed — see `add`.
        self.value.load(Ordering::Relaxed) as i64
    }
}

/// Handle to a registered counter; inert (`None`) from a disabled sink.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    core: Option<Arc<CounterCore>>,
}

impl Counter {
    /// A no-op handle.
    pub fn disabled() -> Self {
        Counter { core: None }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta` (no-op when disabled).
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(core) = &self.core {
            core.add(delta);
        }
    }

    /// Current total across all shards (0 when disabled).
    pub fn get(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.get())
    }
}

/// Handle to a registered gauge; inert (`None`) from a disabled sink.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    core: Option<Arc<GaugeCore>>,
}

impl Gauge {
    /// A no-op handle.
    pub fn disabled() -> Self {
        Gauge { core: None }
    }

    /// Adds `delta` (may be negative; no-op when disabled).
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(core) = &self.core {
            core.add(delta);
        }
    }

    /// Sets the gauge (no-op when disabled).
    #[inline]
    pub fn set(&self, value: i64) {
        if let Some(core) = &self.core {
            core.set(value);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> i64 {
        self.core.as_ref().map_or(0, |c| c.get())
    }
}

/// The registry behind an enabled sink: three name-keyed core maps, the
/// slow-request exemplar store, and the capture threshold.
#[derive(Debug)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<CounterCore>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<GaugeCore>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<HistogramCore>>>,
    exemplars: Mutex<RingBuffer<Exemplar>>,
    flight: Mutex<RingBuffer<FlightRoot>>,
    slow_threshold_ns: AtomicU64,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry with exemplar capture off (`u64::MAX` threshold).
    pub fn new() -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            exemplars: Mutex::new(RingBuffer::new(EXEMPLAR_CAPACITY)),
            flight: Mutex::new(RingBuffer::new(FLIGHT_JOURNAL_CAPACITY)),
            slow_threshold_ns: AtomicU64::new(u64::MAX),
        }
    }

    pub(crate) fn counter_core(&self, name: &'static str) -> Arc<CounterCore> {
        Arc::clone(
            self.counters
                .lock()
                .entry(name)
                .or_insert_with(|| Arc::new(CounterCore::new())),
        )
    }

    pub(crate) fn gauge_core(&self, name: &'static str) -> Arc<GaugeCore> {
        Arc::clone(
            self.gauges
                .lock()
                .entry(name)
                .or_insert_with(|| Arc::new(GaugeCore::new())),
        )
    }

    pub(crate) fn histogram_core(&self, name: &'static str) -> Arc<HistogramCore> {
        Arc::clone(
            self.histograms
                .lock()
                .entry(name)
                .or_insert_with(|| Arc::new(HistogramCore::new())),
        )
    }

    /// The root-span duration at or above which the full span tree is
    /// retained as an [`Exemplar`].
    pub(crate) fn slow_threshold_ns(&self) -> u64 {
        // ordering: Relaxed — a tuning knob read racily by design.
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    pub(crate) fn set_slow_threshold_ns(&self, threshold: u64) {
        // ordering: Relaxed — see `slow_threshold_ns`.
        self.slow_threshold_ns.store(threshold, Ordering::Relaxed);
    }

    pub(crate) fn capture_exemplar(&self, exemplar: Exemplar) {
        self.exemplars.lock().push(exemplar);
    }

    pub(crate) fn record_flight_root(&self, root: FlightRoot) {
        self.flight.lock().push(root);
    }

    /// The flight journal: the last [`FLIGHT_JOURNAL_CAPACITY`] completed
    /// root span trees across every thread, oldest first. This is what the
    /// crash flight recorder dumps.
    pub fn flight_roots(&self) -> Vec<FlightRoot> {
        self.flight.lock().to_vec()
    }

    /// Retained exemplars whose trace id matches (the `TRACE` frame's
    /// lookup path).
    pub fn exemplars_for_trace(&self, trace_id: u64) -> Vec<Exemplar> {
        self.exemplars
            .lock()
            .iter()
            .filter(|e| e.trace_id == trace_id)
            .cloned()
            .collect()
    }

    /// Reads every metric into a mergeable, wire-shippable snapshot, in
    /// deterministic (sorted-name) order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(name, core)| ((*name).to_string(), core.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(name, core)| ((*name).to_string(), core.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(name, core)| ((*name).to_string(), core.snapshot()))
                .collect(),
            exemplars: self.exemplars.lock().to_vec(),
        }
    }
}

/// A point-in-time read of a whole registry: what the `METRICS` frame
/// ships and the exposition renderers consume. Plain data — safe to
/// merge, encode, and compare.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, total)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, histogram)` pairs, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Retained slow-request span trees, oldest first.
    pub exemplars: Vec<Exemplar>,
}

impl MetricsSnapshot {
    /// Looks up a counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Merges `other` into `self`: counters and gauges add, histograms
    /// merge bucketwise, exemplars concatenate. Used to aggregate
    /// snapshots from several registries (e.g. per-process shards).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        fn merge_into<V: Clone, M: Fn(&mut V, &V)>(
            mine: &mut Vec<(String, V)>,
            theirs: &[(String, V)],
            merge: M,
        ) {
            for (name, value) in theirs {
                match mine.iter_mut().find(|(n, _)| n == name) {
                    Some((_, existing)) => merge(existing, value),
                    None => {
                        mine.push((name.clone(), value.clone()));
                        mine.sort_by(|a, b| a.0.cmp(&b.0));
                    }
                }
            }
        }
        merge_into(&mut self.counters, &other.counters, |a: &mut u64, b| {
            *a = a.saturating_add(*b)
        });
        merge_into(&mut self.gauges, &other.gauges, |a: &mut i64, b| {
            *a = a.saturating_add(*b)
        });
        merge_into(
            &mut self.histograms,
            &other.histograms,
            |a: &mut HistogramSnapshot, b| a.merge(b),
        );
        self.exemplars.extend(other.exemplars.iter().cloned());
    }
}

/// Appends a metrics snapshot: `u64`-counted counters and gauges (name,
/// then the value; a gauge as its two's complement), histograms (name,
/// sum, every bucket), then the exemplars as [`put_exemplars`] writes
/// them. The flight dump and the `METRICS` reply both carry this encoding.
pub fn put_metrics(buf: &mut Vec<u8>, snapshot: &MetricsSnapshot) {
    put_u64(buf, snapshot.counters.len() as u64);
    for (name, value) in &snapshot.counters {
        put_str(buf, name);
        put_u64(buf, *value);
    }
    put_u64(buf, snapshot.gauges.len() as u64);
    for (name, value) in &snapshot.gauges {
        put_str(buf, name);
        put_u64(buf, *value as u64);
    }
    put_u64(buf, snapshot.histograms.len() as u64);
    for (name, hist) in &snapshot.histograms {
        put_str(buf, name);
        put_u64(buf, hist.sum);
        for bucket in hist.buckets.iter() {
            put_u64(buf, *bucket);
        }
    }
    put_exemplars(buf, &snapshot.exemplars);
}

/// Reads a metrics snapshot written by [`put_metrics`].
pub fn take_metrics(r: &mut ByteReader<'_>) -> Result<MetricsSnapshot, CodecError> {
    let mut snapshot = MetricsSnapshot::default();
    let ncounters = r.checked_count(4 + 8)?;
    for _ in 0..ncounters {
        let name = r.str()?.to_string();
        snapshot.counters.push((name, r.u64()?));
    }
    let ngauges = r.checked_count(4 + 8)?;
    for _ in 0..ngauges {
        let name = r.str()?.to_string();
        snapshot.gauges.push((name, r.u64()? as i64));
    }
    let nhists = r.checked_count(4 + 8 + 8 * NUM_BUCKETS)?;
    for _ in 0..nhists {
        let name = r.str()?.to_string();
        let mut hist = HistogramSnapshot::new();
        hist.sum = r.u64()?;
        for bucket in hist.buckets.iter_mut() {
            *bucket = r.u64()?;
        }
        snapshot.histograms.push((name, hist));
    }
    snapshot.exemplars = take_exemplars(r)?;
    Ok(snapshot)
}

/// The telemetry capability threaded through broker, shards, server, and
/// simulator. `Disabled` is the default and costs a branch per call site;
/// `Enabled` carries the shared registry.
#[derive(Debug, Clone, Default)]
pub enum TelemetrySink {
    /// No-op sink: every handle it hands out is inert.
    #[default]
    Disabled,
    /// Live sink recording into the shared [`Registry`].
    Enabled(Arc<Registry>),
}

impl TelemetrySink {
    /// A fresh enabled sink with its own registry.
    pub fn enabled() -> Self {
        TelemetrySink::Enabled(Arc::new(Registry::new()))
    }

    /// True when metrics actually record.
    pub fn is_enabled(&self) -> bool {
        matches!(self, TelemetrySink::Enabled(_))
    }

    /// Registers (or re-resolves) the counter `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        match self {
            TelemetrySink::Disabled => Counter::disabled(),
            TelemetrySink::Enabled(reg) => Counter {
                core: Some(reg.counter_core(name)),
            },
        }
    }

    /// Registers (or re-resolves) the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        match self {
            TelemetrySink::Disabled => Gauge::disabled(),
            TelemetrySink::Enabled(reg) => Gauge {
                core: Some(reg.gauge_core(name)),
            },
        }
    }

    /// Registers (or re-resolves) the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        match self {
            TelemetrySink::Disabled => Histogram::disabled(),
            TelemetrySink::Enabled(reg) => Histogram {
                core: Some(reg.histogram_core(name)),
            },
        }
    }

    /// Opens a tracing span named `name`; the guard records on drop. On a
    /// disabled sink the guard is inert and no clock is read.
    pub fn span(&self, name: &'static str) -> Span {
        match self {
            TelemetrySink::Disabled => Span::disabled(),
            TelemetrySink::Enabled(reg) => Span::open(Arc::clone(reg), name),
        }
    }

    /// Pre-registers a span site: the returned handle resolves `name`'s
    /// histogram once, so entering on the hot path touches no
    /// registration lock.
    pub fn span_handle(&self, name: &'static str) -> crate::span::SpanHandle {
        match self {
            TelemetrySink::Disabled => crate::span::SpanHandle::disabled(),
            TelemetrySink::Enabled(reg) => crate::span::SpanHandle::resolved(Arc::clone(reg), name),
        }
    }

    /// Sets the slow-request exemplar threshold (root spans at or over
    /// `threshold` retain their full tree). No-op when disabled.
    pub fn set_slow_threshold(&self, threshold: Duration) {
        if let TelemetrySink::Enabled(reg) = self {
            reg.set_slow_threshold_ns(threshold.as_nanos().min(u128::from(u64::MAX)) as u64);
        }
    }

    /// Reads the registry (empty snapshot when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match self {
            TelemetrySink::Disabled => MetricsSnapshot::default(),
            TelemetrySink::Enabled(reg) => reg.snapshot(),
        }
    }

    /// Reads the flight journal (empty when disabled).
    pub fn flight_roots(&self) -> Vec<FlightRoot> {
        match self {
            TelemetrySink::Disabled => Vec::new(),
            TelemetrySink::Enabled(reg) => reg.flight_roots(),
        }
    }

    /// Retained exemplars stamped with `trace_id` (empty when disabled).
    pub fn exemplars_for_trace(&self, trace_id: u64) -> Vec<Exemplar> {
        match self {
            TelemetrySink::Disabled => Vec::new(),
            TelemetrySink::Enabled(reg) => reg.exemplars_for_trace(trace_id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_shard_and_sum() {
        let sink = TelemetrySink::enabled();
        let c = sink.counter("t.hits");
        c.add(3);
        c.inc();
        // A second handle to the same name shares the core.
        assert_eq!(sink.counter("t.hits").get(), 4);
        let snap = sink.snapshot();
        assert_eq!(snap.counter("t.hits"), Some(4));
    }

    #[test]
    fn gauges_go_up_and_down() {
        let sink = TelemetrySink::enabled();
        let g = sink.gauge("t.inflight");
        g.add(5);
        g.add(-7);
        assert_eq!(g.get(), -2);
        g.set(9);
        assert_eq!(sink.snapshot().gauge("t.inflight"), Some(9));
    }

    #[test]
    fn disabled_sink_hands_out_inert_handles() {
        let sink = TelemetrySink::Disabled;
        assert!(!sink.is_enabled());
        sink.counter("t.x").inc();
        sink.gauge("t.y").set(1);
        sink.histogram("t.z").record(10);
        drop(sink.span("t.span"));
        let snap = sink.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn snapshot_is_name_sorted_and_merges_additively() {
        let a = TelemetrySink::enabled();
        a.counter("z.late").add(1);
        a.counter("a.early").add(2);
        a.histogram("h.lat").record(100);
        let b = TelemetrySink::enabled();
        b.counter("a.early").add(10);
        b.histogram("h.lat").record(100);

        let mut merged = a.snapshot();
        let names: Vec<&str> = merged.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.early", "z.late"]);

        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("a.early"), Some(12));
        assert_eq!(merged.counter("z.late"), Some(1));
        assert_eq!(merged.histogram("h.lat").map(|h| h.count()), Some(2));
    }

    #[test]
    fn concurrent_counting_loses_nothing() {
        let sink = TelemetrySink::enabled();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let sink = sink.clone();
                std::thread::spawn(move || {
                    let c = sink.counter("t.racy");
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("counting thread panicked");
        }
        assert_eq!(sink.snapshot().counter("t.racy"), Some(40_000));
    }
}
