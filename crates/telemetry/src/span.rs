//! Quote-path tracing spans.
//!
//! A [`Span`] is a drop guard: opening one stamps the clock, dropping it
//! records the stage's duration (a) into the histogram registered under
//! the span's name and (b) into a bounded per-thread ring-buffer journal
//! of [`SpanEvent`]s. Nesting is tracked per thread, so the journal reads
//! as an indented trace of the request path:
//!
//! ```text
//! server.request          depth 0
//!   quote.decode          depth 1
//!   quote.route           depth 1
//!   quote.cache           depth 1
//!   quote.price           depth 1
//! ```
//!
//! When a **root** span (depth 0) finishes over the registry's slow
//! threshold, its full span tree is captured as an [`Exemplar`] — a small
//! bounded store of the slowest recent requests, readable from the
//! `METRICS` exposition. Capture allocates, but only on the slow path by
//! definition; the per-span fast path is two clock reads, two relaxed
//! `fetch_add`s, and a ring-buffer write.
//!
//! On a `Disabled` sink, [`Span`] holds `None` and the entire machinery —
//! clock, thread-local, histogram — is skipped.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use qp_core::codec::{put_str, put_u32, put_u64, ByteReader, CodecError};
use qp_core::RingBuffer;

use crate::histogram::HistogramCore;
use crate::registry::Registry;

/// Per-thread journal capacity: enough for ~100 requests of trace at
/// typical span fan-out, bounded so an idle reader never sees unbounded
/// growth.
pub const JOURNAL_CAPACITY: usize = 1024;

/// Cap on events retained for a single root's tree (exemplar capture);
/// beyond this the tree is truncated, never reallocated without bound.
const MAX_TREE_EVENTS: usize = 128;

/// Sentinel shard id for spans recorded outside any shard's scope.
pub const NO_SHARD: u32 = u32::MAX;

/// One completed span, as recorded in the per-thread journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (`quote.route`, `reprice.broadcast`, …).
    pub name: &'static str,
    /// Nesting depth at open time (0 = root).
    pub depth: u16,
    /// Shard the span ran against ([`NO_SHARD`] when none was set).
    pub shard: u32,
    /// Start offset in nanoseconds, relative to the enclosing root's start.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// One span inside a captured [`Exemplar`] (owned name: exemplars cross
/// the wire, where `&'static str` cannot follow).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name.
    pub name: String,
    /// Nesting depth (0 = root).
    pub depth: u32,
    /// Shard the span ran against ([`NO_SHARD`] when none was set).
    pub shard: u32,
    /// Start offset in nanoseconds from the root's start.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A retained span tree for one slow request: the root's name and total
/// duration plus every stage recorded under it, in start order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// Wire-level trace id the request carried (0 = untraced).
    pub trace_id: u64,
    /// Name of the root span that crossed the slow threshold.
    pub root: String,
    /// The root's total duration in nanoseconds.
    pub total_ns: u64,
    /// All spans of the tree (including the root), ordered by start time.
    pub events: Vec<SpanRecord>,
}

/// Smallest encoding of one span record: an empty name's length prefix,
/// depth, shard, start and duration.
const MIN_SPAN_BYTES: usize = 4 + 4 + 4 + 8 + 8;

/// Smallest encoding of one exemplar: trace id, an empty root name's
/// length prefix, total and event count.
const MIN_EXEMPLAR_BYTES: usize = 8 + 4 + 8 + 8;

/// Appends a list of span trees: a `u64` count, then per tree its trace
/// id, root name, total, and `u64`-counted span records. The flight dump,
/// the `METRICS` snapshot and the `TRACE` reply all carry trees this way.
pub fn put_exemplars(buf: &mut Vec<u8>, exemplars: &[Exemplar]) {
    put_u64(buf, exemplars.len() as u64);
    for ex in exemplars {
        put_u64(buf, ex.trace_id);
        put_str(buf, &ex.root);
        put_u64(buf, ex.total_ns);
        put_u64(buf, ex.events.len() as u64);
        for e in &ex.events {
            put_str(buf, &e.name);
            put_u32(buf, e.depth);
            put_u32(buf, e.shard);
            put_u64(buf, e.start_ns);
            put_u64(buf, e.dur_ns);
        }
    }
}

/// Reads a list of span trees written by [`put_exemplars`].
pub fn take_exemplars(r: &mut ByteReader<'_>) -> Result<Vec<Exemplar>, CodecError> {
    let n = r.checked_count(MIN_EXEMPLAR_BYTES)?;
    let mut exemplars = Vec::with_capacity(n);
    for _ in 0..n {
        let trace_id = r.u64()?;
        let root = r.str()?.to_string();
        let total_ns = r.u64()?;
        let nevents = r.checked_count(MIN_SPAN_BYTES)?;
        let mut events = Vec::with_capacity(nevents);
        for _ in 0..nevents {
            events.push(SpanRecord {
                name: r.str()?.to_string(),
                depth: r.u32()?,
                shard: r.u32()?,
                start_ns: r.u64()?,
                dur_ns: r.u64()?,
            });
        }
        exemplars.push(Exemplar {
            trace_id,
            root,
            total_ns,
            events,
        });
    }
    Ok(exemplars)
}

/// One completed root span tree as retained in the registry's flight
/// journal (the crash recorder's view of recent requests). Names stay
/// `&'static str` — the journal never crosses a process boundary until
/// the flight recorder encodes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRoot {
    /// Wire-level trace id the request carried (0 = untraced).
    pub trace_id: u64,
    /// Name of the root span.
    pub root: &'static str,
    /// The root's total duration in nanoseconds.
    pub total_ns: u64,
    /// The tree's spans, ordered by start time.
    pub events: Vec<SpanEvent>,
}

/// Per-thread tracing state: current nesting depth, the running root's
/// start instant and accumulated tree, the ambient trace/shard context,
/// and the bounded event journal.
struct ThreadTrace {
    depth: u16,
    root_start: Option<Instant>,
    trace_id: u64,
    shard: u32,
    tree: Vec<SpanEvent>,
    journal: RingBuffer<SpanEvent>,
}

impl ThreadTrace {
    fn new() -> Self {
        ThreadTrace {
            depth: 0,
            root_start: None,
            trace_id: 0,
            shard: NO_SHARD,
            tree: Vec::new(),
            journal: RingBuffer::new(JOURNAL_CAPACITY),
        }
    }
}

thread_local! {
    static TRACE: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::new());
}

/// Reads this thread's journal (oldest → newest). Test/debug hook; the
/// production read path is exemplar capture through the registry.
pub fn with_thread_journal<R>(f: impl FnOnce(&[SpanEvent]) -> R) -> R {
    TRACE.with(|t| {
        let trace = t.borrow();
        let events: Vec<SpanEvent> = trace.journal.iter().copied().collect();
        f(&events)
    })
}

/// Clears this thread's journal and any in-flight tree state (tests).
pub fn reset_thread_journal() {
    TRACE.with(|t| {
        let mut trace = t.borrow_mut();
        trace.journal.clear();
        trace.tree.clear();
        trace.depth = 0;
        trace.root_start = None;
        trace.trace_id = 0;
        trace.shard = NO_SHARD;
    });
}

/// Installs the wire-level trace id for the request this thread is
/// currently serving. Spans closing while it is set stamp it into their
/// exemplar/flight captures; the context resets to 0 (untraced) when the
/// enclosing root span closes.
pub fn set_current_trace_id(trace_id: u64) {
    TRACE.with(|t| t.borrow_mut().trace_id = trace_id);
}

/// The trace id currently installed on this thread (0 = untraced).
pub fn current_trace_id() -> u64 {
    TRACE.with(|t| t.borrow().trace_id)
}

/// Installs the shard id spans on this thread are attributed to until the
/// enclosing root span closes (or [`NO_SHARD`] is set explicitly).
pub fn set_current_shard(shard: u32) {
    TRACE.with(|t| t.borrow_mut().shard = shard);
}

/// An open tracing span; dropping it records the stage. Obtained from
/// [`TelemetrySink::span`](crate::TelemetrySink::span) — `None` inside
/// means the sink was disabled and the guard is inert.
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    registry: Arc<Registry>,
    hist: Arc<HistogramCore>,
    name: &'static str,
    start: Instant,
    /// Offset of this span's start from the root's start.
    start_ns: u64,
    /// Depth this span was opened at (0 = it is the root).
    depth: u16,
}

impl Span {
    /// The inert guard a disabled sink hands out.
    pub(crate) fn disabled() -> Self {
        Span { inner: None }
    }

    /// Opens a live span against `registry`, resolving the histogram by
    /// name (one registration-map lock; hot paths pre-resolve through a
    /// [`SpanHandle`] instead).
    pub(crate) fn open(registry: Arc<Registry>, name: &'static str) -> Self {
        let hist = registry.histogram_core(name);
        Span::open_with(registry, hist, name)
    }

    /// Opens a live span with a pre-resolved histogram core.
    pub(crate) fn open_with(
        registry: Arc<Registry>,
        hist: Arc<HistogramCore>,
        name: &'static str,
    ) -> Self {
        let start = Instant::now();
        let (depth, start_ns) = TRACE.with(|t| {
            let mut trace = t.borrow_mut();
            let depth = trace.depth;
            if depth == 0 {
                trace.root_start = Some(start);
                trace.tree.clear();
            }
            let start_ns = trace
                .root_start
                .map(|root| {
                    start
                        .duration_since(root)
                        .as_nanos()
                        .min(u128::from(u64::MAX)) as u64
                })
                .unwrap_or(0);
            trace.depth += 1;
            (depth, start_ns)
        });
        Span {
            inner: Some(SpanInner {
                registry,
                hist,
                name,
                start,
                start_ns,
                depth,
            }),
        }
    }

    /// True when the guard will record on drop.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }
}

/// A pre-registered span site: resolves its histogram once at setup so
/// entering the span on the hot path touches no registration lock.
/// Obtained from [`TelemetrySink::span_handle`](crate::TelemetrySink::span_handle);
/// a handle from a disabled sink hands out inert guards.
#[derive(Debug, Clone, Default)]
pub struct SpanHandle {
    inner: Option<(Arc<Registry>, Arc<HistogramCore>, &'static str)>,
}

impl SpanHandle {
    /// The inert handle a disabled sink hands out.
    pub fn disabled() -> Self {
        SpanHandle { inner: None }
    }

    pub(crate) fn resolved(registry: Arc<Registry>, name: &'static str) -> Self {
        let hist = registry.histogram_core(name);
        SpanHandle {
            inner: Some((registry, hist, name)),
        }
    }

    /// True when entering actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens the span; the returned guard records on drop.
    #[inline]
    pub fn enter(&self) -> Span {
        match &self.inner {
            None => Span::disabled(),
            Some((registry, hist, name)) => {
                Span::open_with(Arc::clone(registry), Arc::clone(hist), name)
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_ns = inner.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        inner.hist.record(dur_ns);
        let finished_root = TRACE.with(|t| {
            let mut trace = t.borrow_mut();
            let event = SpanEvent {
                name: inner.name,
                depth: inner.depth,
                shard: trace.shard,
                start_ns: inner.start_ns,
                dur_ns,
            };
            trace.depth = trace.depth.saturating_sub(1);
            trace.journal.push(event);
            if trace.tree.len() < MAX_TREE_EVENTS {
                trace.tree.push(event);
            }
            if inner.depth == 0 {
                // The root closed: hand the completed tree out (flight
                // journal always, exemplar capture when slow) and reset
                // the ambient trace/shard context for the next request.
                trace.root_start = None;
                let trace_id = trace.trace_id;
                trace.trace_id = 0;
                trace.shard = NO_SHARD;
                return Some((std::mem::take(&mut trace.tree), trace_id));
            }
            None
        });
        if let Some((mut tree, trace_id)) = finished_root {
            // Completion order is children-first; start order reads as the
            // request actually unfolded.
            tree.sort_by_key(|e| (e.start_ns, e.depth));
            if dur_ns >= inner.registry.slow_threshold_ns() {
                let exemplar = Exemplar {
                    trace_id,
                    root: inner.name.to_string(),
                    total_ns: dur_ns,
                    events: tree
                        .iter()
                        .map(|e| SpanRecord {
                            name: e.name.to_string(),
                            depth: u32::from(e.depth),
                            shard: e.shard,
                            start_ns: e.start_ns,
                            dur_ns: e.dur_ns,
                        })
                        .collect(),
                };
                inner.registry.capture_exemplar(exemplar);
            }
            inner.registry.record_flight_root(FlightRoot {
                trace_id,
                root: inner.name,
                total_ns: dur_ns,
                events: tree,
            });
        }
    }
}
