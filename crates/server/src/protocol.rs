//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Dependency-free by design (std only): every message is one **frame** —
//! a big-endian `u32` payload length followed by the payload, whose first
//! byte is the opcode. Integers are big-endian; floats travel as their
//! IEEE-754 bit patterns (`f64::to_bits`), so prices survive the wire
//! **bit-exactly** — the revenue-determinism self-check depends on that.
//! Bundles travel as their canonical bitset blocks
//! ([`ItemSet::as_blocks`]), least-significant block first.
//!
//! The full frame catalogue, byte layouts, and error codes are specified in
//! `PROTOCOL.md` at the workspace root; this module is the executable form
//! of that document. Requests and responses are symmetric enums with
//! `encode`/`decode` pairs, and the round-trip property is pinned by the
//! tests below.

use parking_lot::atomic::{AtomicBool, Ordering};
use std::fmt;
use std::io::{self, Read, Write};

use qp_core::ItemSet;
use qp_pricing::algorithms::PricingPatch;
use qp_pricing::Pricing;
use qp_telemetry::{Exemplar, HistogramSnapshot, MetricsSnapshot, SpanRecord, NUM_BUCKETS};

/// Upper bound on a frame payload (16 MiB). A peer announcing more is
/// answered with [`ErrorCode::Malformed`] and disconnected — it is either
/// broken or hostile, and `Vec::with_capacity` on its say-so would be a
/// memory-exhaustion gift.
pub const MAX_FRAME: usize = 1 << 24;

// Request opcodes.
const OP_QUOTE: u8 = 0x01;
const OP_PURCHASE: u8 = 0x02;
const OP_STATS: u8 = 0x03;
const OP_REPRICE: u8 = 0x04;
const OP_SHUTDOWN: u8 = 0x05;
const OP_METRICS: u8 = 0x06;
const OP_TRACE: u8 = 0x07;
/// Trace-context envelope: `[0x10][u64 trace id][inner request frame]`.
/// A new opcode rather than trailing bytes on existing bodies, so every
/// pre-trace frame still parses byte-identically and an old server
/// rejects the envelope with a clean `UNKNOWN_OPCODE` instead of
/// misreading it.
const OP_TRACED: u8 = 0x10;
// Response opcodes (request opcode | 0x80).
const OP_QUOTED: u8 = 0x81;
const OP_PURCHASED: u8 = 0x82;
const OP_STATS_REPLY: u8 = 0x83;
const OP_REPRICED: u8 = 0x84;
const OP_SHUTDOWN_ACK: u8 = 0x85;
const OP_METRICS_REPLY: u8 = 0x86;
const OP_TRACE_REPLY: u8 = 0x87;
const OP_ERROR: u8 = 0xFF;

/// Why a peer's bytes could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the announced structure did.
    Truncated,
    /// The payload continued past the announced structure.
    TrailingBytes(usize),
    /// The leading opcode byte is not in the catalogue.
    UnknownOpcode(u8),
    /// A tag byte inside the payload (pricing class, patch kind, error
    /// code) is not in the catalogue.
    UnknownTag(u8),
    /// A declared length would exceed [`MAX_FRAME`].
    Oversized(usize),
    /// A string field is not UTF-8.
    BadUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the message"),
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            WireError::UnknownTag(t) => write!(f, "unknown tag 0x{t:02x}"),
            WireError::Oversized(n) => write!(f, "declared length {n} exceeds MAX_FRAME"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// Error codes carried by [`Response::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request opcode is not in the catalogue.
    UnknownOpcode = 1,
    /// The request payload did not decode.
    Malformed = 2,
    /// `PURCHASE` named a quote id the server does not hold (never issued,
    /// or already settled — quotes are one-shot).
    UnknownQuote = 3,
    /// `PURCHASE` named a quote that was evicted under pending-table
    /// pressure before it was settled. Distinct from [`UnknownQuote`][u]
    /// so clients know the quote *was* real and the right response is to
    /// re-quote, not to treat the id as a bug.
    ///
    /// [u]: ErrorCode::UnknownQuote
    QuoteExpired = 4,
}

impl ErrorCode {
    fn from_byte(b: u8) -> Result<ErrorCode, WireError> {
        match b {
            1 => Ok(ErrorCode::UnknownOpcode),
            2 => Ok(ErrorCode::Malformed),
            3 => Ok(ErrorCode::UnknownQuote),
            4 => Ok(ErrorCode::QuoteExpired),
            other => Err(WireError::UnknownTag(other)),
        }
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Quote a bundle (a conflict set as bitset blocks). Answered with
    /// [`Response::Quoted`].
    Quote(ItemSet),
    /// Settle a previously issued quote against a budget. Quotes are
    /// honored at their quoted price even across repricings, and are
    /// one-shot: settling consumes the id.
    Purchase {
        /// The id returned by the matching `QUOTE`.
        quote_id: u64,
        /// The buyer's willingness to pay.
        budget: f64,
        /// Simulation tick stamped on the ledger entry (0 outside a
        /// simulation).
        tick: u64,
    },
    /// Fetch per-shard serving statistics.
    Stats,
    /// Apply a pricing patch to **every** shard (each bumps its pricing
    /// epoch unless the patch is `Keep`). This is the PR 4 incremental
    /// delta path arriving over the wire.
    Reprice(PricingPatch),
    /// Ask the server to stop accepting connections and wind down.
    Shutdown,
    /// Fetch the server's telemetry registry as a structured snapshot
    /// (counters, gauges, log-bucketed histograms, slow-request
    /// exemplars). The client renders it — Prometheus text, JSON, or
    /// direct quantile extraction — without the server committing to a
    /// text format on the wire.
    Metrics,
    /// Fetch the retained exemplars stamped with `trace_id` — the lookup
    /// half of distributed tracing: a client that minted a trace id asks
    /// the server for the span trees its request produced there.
    Trace {
        /// The wire-level trace id to look up.
        trace_id: u64,
    },
    /// Trace-context envelope: any other request wrapped with the 64-bit
    /// trace id the client minted for it. The server serves `request`
    /// exactly as if it had arrived bare, but stamps `trace_id` into the
    /// spans/exemplars the request produces, so client- and server-side
    /// span trees stitch. Envelopes do not nest.
    Traced {
        /// Client-minted trace id (0 is reserved for "untraced").
        trace_id: u64,
        /// The request being carried.
        request: Box<Request>,
    },
}

/// One shard's serving counters, as reported by `STATS`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// The shard's current pricing epoch.
    pub epoch: u64,
    /// Quotes served (cache hits + misses).
    pub quotes: u64,
    /// Quotes answered from the epoch-validated cache.
    pub cache_hits: u64,
    /// Cache entries invalidated by repricing epoch bumps — the counter
    /// that makes a `REPRICE` storm visible in `STATS`.
    pub invalidations: u64,
    /// Pending quotes this shard served that were expired under
    /// pending-table pressure (each is also counted in `declines`).
    pub evictions: u64,
    /// Purchases that closed.
    pub sales: u64,
    /// Purchases that were declined.
    pub declines: u64,
    /// Revenue realized on this shard.
    pub revenue: f64,
}

/// The fields of a successful quote reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuoteReply {
    /// One-shot id to settle the quote with.
    pub quote_id: u64,
    /// The quoted price.
    pub price: f64,
    /// The pricing epoch the price belongs to.
    pub epoch: u64,
    /// Which shard served it.
    pub shard: u32,
    /// Whether the epoch-validated cache answered it.
    pub cache_hit: bool,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to `QUOTE`.
    Quoted(QuoteReply),
    /// Answer to `PURCHASE`: whether it sold, at the honored quoted price.
    Purchased {
        /// Whether the budget covered the quoted price.
        sold: bool,
        /// The (quoted) price the settlement used.
        price: f64,
    },
    /// Answer to `STATS`, one entry per shard in shard order.
    Stats(Vec<ShardStats>),
    /// Answer to `REPRICE`: every shard's pricing epoch after the patch.
    Repriced {
        /// Post-patch epochs, in shard order.
        epochs: Vec<u64>,
    },
    /// Answer to `SHUTDOWN`.
    ShutdownAck,
    /// Answer to `METRICS`: the whole telemetry registry at once.
    Metrics(MetricsSnapshot),
    /// Answer to `TRACE`: every retained exemplar stamped with the
    /// requested trace id (possibly empty — exemplar retention is
    /// bounded and threshold-gated).
    Trace(Vec<Exemplar>),
    /// Any request the server could not honor.
    Error {
        /// The machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail (diagnostic only; not stable).
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Frame IO
// ---------------------------------------------------------------------------

/// Writes one frame: `u32` big-endian payload length, then the payload.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame payload. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer hung up between messages); EOF mid-frame is an error.
/// The announced length is checked against [`MAX_FRAME`] before anything
/// is allocated.
///
/// Read timeouts (`WouldBlock`/`TimedOut`, from a socket with a read
/// timeout) are retried. Before a frame's first header byte each timeout
/// also polls `stop`, and a set flag ends the read with `Ok(None)`, so an
/// idle keep-alive connection neither busy-spins nor outlives shutdown. A
/// timeout *inside* a frame keeps reading: the peer has committed to
/// sending it. Callers without a read timeout pass `None`.
pub fn read_frame<R: Read>(r: &mut R, stop: Option<&AtomicBool>) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    if !read_full(r, &mut header, true, stop)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::Oversized(len).to_string(),
        ));
    }
    let mut payload = vec![0u8; len];
    read_full(r, &mut payload, false, None)?;
    Ok(Some(payload))
}

/// Fills `buf` for [`read_frame`], retrying interrupts and read timeouts.
/// Returns `Ok(false)` with nothing read when `buf` is a frame `header` and
/// the peer hangs up, or `stop` is set, before its first byte.
fn read_full<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    header: bool,
    stop: Option<&AtomicBool>,
) -> io::Result<bool> {
    let mut got = 0;
    while got < buf.len() {
        let at_boundary = header && got == 0;
        match r.read(&mut buf[got..]) {
            Ok(0) if at_boundary => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    if header {
                        "EOF inside a frame header"
                    } else {
                        "EOF inside a frame payload"
                    },
                ))
            }
            Ok(n) => got += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // ordering: Acquire — pairs with the Release stores of the
                // stop flag.
                if at_boundary && stop.is_some_and(|s| s.load(Ordering::Acquire)) {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

// ---------------------------------------------------------------------------
// Primitive encoders / the payload cursor
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// A bounds-checked reader over a frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Like [`Cursor::take`] but returns a fixed-size array, so multi-byte
    /// decoders need no fallible (or panicking) slice conversion.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take_array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take_array()?))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A declared count of fixed-`width`-byte records, rejected before
    /// allocation if it could not possibly fit in a legal frame.
    fn checked_count(&mut self, width: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(width) > MAX_FRAME {
            return Err(WireError::Oversized(n));
        }
        Ok(n)
    }

    /// Consumes and returns every remaining byte (the `TRACED` envelope's
    /// inner frame, decoded recursively).
    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.buf.len() - self.pos))
        }
    }
}

// ---------------------------------------------------------------------------
// Composite codecs: bundles, pricings, patches
// ---------------------------------------------------------------------------

fn put_bundle(out: &mut Vec<u8>, bundle: &ItemSet) {
    let blocks = bundle.as_blocks();
    put_u32(out, blocks.len() as u32);
    for &b in blocks {
        put_u64(out, b);
    }
}

fn take_bundle(c: &mut Cursor<'_>) -> Result<ItemSet, WireError> {
    let n = c.checked_count(8)?;
    let mut blocks = Vec::with_capacity(n);
    for _ in 0..n {
        blocks.push(c.u64()?);
    }
    // from_blocks re-normalizes, so even a peer that pads with zero blocks
    // yields the canonical set (hash/route/compare-safe).
    Ok(ItemSet::from_blocks(blocks))
}

const PRICING_UNIFORM_BUNDLE: u8 = 0;
const PRICING_ITEM: u8 = 1;
const PRICING_XOS: u8 = 2;

fn put_pricing(out: &mut Vec<u8>, pricing: &Pricing) {
    match pricing {
        Pricing::UniformBundle { price } => {
            out.push(PRICING_UNIFORM_BUNDLE);
            put_f64(out, *price);
        }
        Pricing::Item { weights } => {
            out.push(PRICING_ITEM);
            put_u32(out, weights.len() as u32);
            for &w in weights {
                put_f64(out, w);
            }
        }
        Pricing::Xos { components } => {
            out.push(PRICING_XOS);
            put_u32(out, components.len() as u32);
            for comp in components {
                put_u32(out, comp.len() as u32);
                for &w in comp {
                    put_f64(out, w);
                }
            }
        }
    }
}

fn take_pricing(c: &mut Cursor<'_>) -> Result<Pricing, WireError> {
    match c.u8()? {
        PRICING_UNIFORM_BUNDLE => Ok(Pricing::UniformBundle { price: c.f64()? }),
        PRICING_ITEM => {
            let n = c.checked_count(8)?;
            let mut weights = Vec::with_capacity(n);
            for _ in 0..n {
                weights.push(c.f64()?);
            }
            Ok(Pricing::Item { weights })
        }
        PRICING_XOS => {
            let ncomp = c.checked_count(4)?;
            let mut components = Vec::with_capacity(ncomp);
            for _ in 0..ncomp {
                let n = c.checked_count(8)?;
                let mut comp = Vec::with_capacity(n);
                for _ in 0..n {
                    comp.push(c.f64()?);
                }
                components.push(comp);
            }
            Ok(Pricing::Xos { components })
        }
        other => Err(WireError::UnknownTag(other)),
    }
}

const PATCH_KEEP: u8 = 0;
const PATCH_REPLACE: u8 = 1;
const PATCH_SET_UNIFORM_PRICE: u8 = 2;
const PATCH_SET_UNIFORM_WEIGHT: u8 = 3;

fn put_patch(out: &mut Vec<u8>, patch: &PricingPatch) {
    match patch {
        PricingPatch::Keep => out.push(PATCH_KEEP),
        PricingPatch::Replace(pricing) => {
            out.push(PATCH_REPLACE);
            put_pricing(out, pricing);
        }
        PricingPatch::SetUniformPrice(p) => {
            out.push(PATCH_SET_UNIFORM_PRICE);
            put_f64(out, *p);
        }
        PricingPatch::SetUniformWeight { weight, num_items } => {
            out.push(PATCH_SET_UNIFORM_WEIGHT);
            put_f64(out, *weight);
            put_u64(out, *num_items as u64);
        }
    }
}

fn take_patch(c: &mut Cursor<'_>) -> Result<PricingPatch, WireError> {
    match c.u8()? {
        PATCH_KEEP => Ok(PricingPatch::Keep),
        PATCH_REPLACE => Ok(PricingPatch::Replace(take_pricing(c)?)),
        PATCH_SET_UNIFORM_PRICE => Ok(PricingPatch::SetUniformPrice(c.f64()?)),
        PATCH_SET_UNIFORM_WEIGHT => Ok(PricingPatch::SetUniformWeight {
            weight: c.f64()?,
            num_items: c.u64()? as usize,
        }),
        other => Err(WireError::UnknownTag(other)),
    }
}

// ---------------------------------------------------------------------------
// Metrics snapshot codec
// ---------------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn take_str(c: &mut Cursor<'_>) -> Result<String, WireError> {
    let len = c.checked_count(1)?;
    Ok(std::str::from_utf8(c.take(len)?)
        .map_err(|_| WireError::BadUtf8)?
        .to_string())
}

fn put_exemplar(out: &mut Vec<u8>, ex: &Exemplar) {
    put_u64(out, ex.trace_id);
    put_str(out, &ex.root);
    put_u64(out, ex.total_ns);
    put_u32(out, ex.events.len() as u32);
    for ev in &ex.events {
        put_str(out, &ev.name);
        put_u32(out, ev.depth);
        put_u32(out, ev.shard);
        put_u64(out, ev.start_ns);
        put_u64(out, ev.dur_ns);
    }
}

fn take_exemplar(c: &mut Cursor<'_>) -> Result<Exemplar, WireError> {
    let trace_id = c.u64()?;
    let root = take_str(c)?;
    let total_ns = c.u64()?;
    let n_events = c.checked_count(24)?;
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let name = take_str(c)?;
        events.push(SpanRecord {
            name,
            depth: c.u32()?,
            shard: c.u32()?,
            start_ns: c.u64()?,
            dur_ns: c.u64()?,
        });
    }
    Ok(Exemplar {
        trace_id,
        root,
        total_ns,
        events,
    })
}

fn put_metrics(out: &mut Vec<u8>, snap: &MetricsSnapshot) {
    put_u32(out, snap.counters.len() as u32);
    for (name, total) in &snap.counters {
        put_str(out, name);
        put_u64(out, *total);
    }
    put_u32(out, snap.gauges.len() as u32);
    for (name, value) in &snap.gauges {
        put_str(out, name);
        // Two's complement on the wire; the decode side casts back.
        put_u64(out, *value as u64);
    }
    put_u32(out, snap.histograms.len() as u32);
    for (name, hist) in &snap.histograms {
        put_str(out, name);
        put_u64(out, hist.sum);
        for &b in hist.buckets.iter() {
            put_u64(out, b);
        }
    }
    put_u32(out, snap.exemplars.len() as u32);
    for ex in &snap.exemplars {
        put_exemplar(out, ex);
    }
}

fn take_metrics(c: &mut Cursor<'_>) -> Result<MetricsSnapshot, WireError> {
    // Minimum record widths (empty name string counts its 4-byte length
    // prefix) keep declared counts honest before any allocation.
    let n_counters = c.checked_count(12)?;
    let mut counters = Vec::with_capacity(n_counters);
    for _ in 0..n_counters {
        let name = take_str(c)?;
        counters.push((name, c.u64()?));
    }
    let n_gauges = c.checked_count(12)?;
    let mut gauges = Vec::with_capacity(n_gauges);
    for _ in 0..n_gauges {
        let name = take_str(c)?;
        gauges.push((name, c.u64()? as i64));
    }
    let n_hists = c.checked_count(4 + 8 + 8 * NUM_BUCKETS)?;
    let mut histograms = Vec::with_capacity(n_hists);
    for _ in 0..n_hists {
        let name = take_str(c)?;
        let sum = c.u64()?;
        let mut buckets = [0u64; NUM_BUCKETS];
        for b in buckets.iter_mut() {
            *b = c.u64()?;
        }
        histograms.push((name, HistogramSnapshot { sum, buckets }));
    }
    let n_exemplars = c.checked_count(24)?;
    let mut exemplars = Vec::with_capacity(n_exemplars);
    for _ in 0..n_exemplars {
        exemplars.push(take_exemplar(c)?);
    }
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
        exemplars,
    })
}

// ---------------------------------------------------------------------------
// Request / Response codecs
// ---------------------------------------------------------------------------

impl Request {
    /// Serializes into a frame payload (opcode byte + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Quote(bundle) => {
                out.push(OP_QUOTE);
                put_bundle(&mut out, bundle);
            }
            Request::Purchase {
                quote_id,
                budget,
                tick,
            } => {
                out.push(OP_PURCHASE);
                put_u64(&mut out, *quote_id);
                put_f64(&mut out, *budget);
                put_u64(&mut out, *tick);
            }
            Request::Stats => out.push(OP_STATS),
            Request::Reprice(patch) => {
                out.push(OP_REPRICE);
                put_patch(&mut out, patch);
            }
            Request::Shutdown => out.push(OP_SHUTDOWN),
            Request::Metrics => out.push(OP_METRICS),
            Request::Trace { trace_id } => {
                out.push(OP_TRACE);
                put_u64(&mut out, *trace_id);
            }
            Request::Traced { trace_id, request } => {
                out.push(OP_TRACED);
                put_u64(&mut out, *trace_id);
                out.extend_from_slice(&request.encode());
            }
        }
        out
    }

    /// The opcode byte this request encodes with ([`Request::Traced`]
    /// reports the envelope opcode; the flight recorder unwraps it).
    pub fn wire_opcode(&self) -> u8 {
        match self {
            Request::Quote(_) => OP_QUOTE,
            Request::Purchase { .. } => OP_PURCHASE,
            Request::Stats => OP_STATS,
            Request::Reprice(_) => OP_REPRICE,
            Request::Shutdown => OP_SHUTDOWN,
            Request::Metrics => OP_METRICS,
            Request::Trace { .. } => OP_TRACE,
            Request::Traced { .. } => OP_TRACED,
        }
    }

    /// Parses a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        Request::decode_inner(payload, true)
    }

    fn decode_inner(payload: &[u8], allow_envelope: bool) -> Result<Request, WireError> {
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            OP_QUOTE => Request::Quote(take_bundle(&mut c)?),
            OP_PURCHASE => Request::Purchase {
                quote_id: c.u64()?,
                budget: c.f64()?,
                tick: c.u64()?,
            },
            OP_STATS => Request::Stats,
            OP_REPRICE => Request::Reprice(take_patch(&mut c)?),
            OP_SHUTDOWN => Request::Shutdown,
            OP_METRICS => Request::Metrics,
            OP_TRACE => Request::Trace { trace_id: c.u64()? },
            // Envelopes carry exactly one level: a Traced inside a Traced
            // is rejected as an unknown opcode at the inner position.
            OP_TRACED if allow_envelope => {
                let trace_id = c.u64()?;
                let request = Box::new(Request::decode_inner(c.rest(), false)?);
                Request::Traced { trace_id, request }
            }
            other => return Err(WireError::UnknownOpcode(other)),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serializes into a frame payload (opcode byte + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Quoted(q) => {
                out.push(OP_QUOTED);
                put_u64(&mut out, q.quote_id);
                put_f64(&mut out, q.price);
                put_u64(&mut out, q.epoch);
                put_u32(&mut out, q.shard);
                out.push(u8::from(q.cache_hit));
            }
            Response::Purchased { sold, price } => {
                out.push(OP_PURCHASED);
                out.push(u8::from(*sold));
                put_f64(&mut out, *price);
            }
            Response::Stats(shards) => {
                out.push(OP_STATS_REPLY);
                put_u32(&mut out, shards.len() as u32);
                for s in shards {
                    put_u64(&mut out, s.epoch);
                    put_u64(&mut out, s.quotes);
                    put_u64(&mut out, s.cache_hits);
                    put_u64(&mut out, s.invalidations);
                    put_u64(&mut out, s.evictions);
                    put_u64(&mut out, s.sales);
                    put_u64(&mut out, s.declines);
                    put_f64(&mut out, s.revenue);
                }
            }
            Response::Repriced { epochs } => {
                out.push(OP_REPRICED);
                put_u32(&mut out, epochs.len() as u32);
                for &e in epochs {
                    put_u64(&mut out, e);
                }
            }
            Response::ShutdownAck => out.push(OP_SHUTDOWN_ACK),
            Response::Metrics(snap) => {
                out.push(OP_METRICS_REPLY);
                put_metrics(&mut out, snap);
            }
            Response::Trace(exemplars) => {
                out.push(OP_TRACE_REPLY);
                put_u32(&mut out, exemplars.len() as u32);
                for ex in exemplars {
                    put_exemplar(&mut out, ex);
                }
            }
            Response::Error { code, message } => {
                out.push(OP_ERROR);
                out.push(*code as u8);
                let bytes = message.as_bytes();
                put_u32(&mut out, bytes.len() as u32);
                out.extend_from_slice(bytes);
            }
        }
        out
    }

    /// Parses a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut c = Cursor::new(payload);
        let resp = match c.u8()? {
            OP_QUOTED => Response::Quoted(QuoteReply {
                quote_id: c.u64()?,
                price: c.f64()?,
                epoch: c.u64()?,
                shard: c.u32()?,
                cache_hit: c.u8()? != 0,
            }),
            OP_PURCHASED => Response::Purchased {
                sold: c.u8()? != 0,
                price: c.f64()?,
            },
            OP_STATS_REPLY => {
                let n = c.checked_count(64)?;
                let mut shards = Vec::with_capacity(n);
                for _ in 0..n {
                    shards.push(ShardStats {
                        epoch: c.u64()?,
                        quotes: c.u64()?,
                        cache_hits: c.u64()?,
                        invalidations: c.u64()?,
                        evictions: c.u64()?,
                        sales: c.u64()?,
                        declines: c.u64()?,
                        revenue: c.f64()?,
                    });
                }
                Response::Stats(shards)
            }
            OP_REPRICED => {
                let n = c.checked_count(8)?;
                let mut epochs = Vec::with_capacity(n);
                for _ in 0..n {
                    epochs.push(c.u64()?);
                }
                Response::Repriced { epochs }
            }
            OP_SHUTDOWN_ACK => Response::ShutdownAck,
            OP_METRICS_REPLY => Response::Metrics(take_metrics(&mut c)?),
            OP_TRACE_REPLY => {
                let n = c.checked_count(24)?;
                let mut exemplars = Vec::with_capacity(n);
                for _ in 0..n {
                    exemplars.push(take_exemplar(&mut c)?);
                }
                Response::Trace(exemplars)
            }
            OP_ERROR => {
                let code = ErrorCode::from_byte(c.u8()?)?;
                let len = c.checked_count(1)?;
                let message = std::str::from_utf8(c.take(len)?)
                    .map_err(|_| WireError::BadUtf8)?
                    .to_string();
                Response::Error { code, message }
            }
            other => return Err(WireError::UnknownOpcode(other)),
        };
        c.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn roundtrip_request(req: Request) {
        let decoded = Request::decode(&req.encode()).expect("decodes");
        assert_eq!(decoded, req);
    }

    fn roundtrip_response(resp: Response) {
        let decoded = Response::decode(&resp.encode()).expect("decodes");
        assert_eq!(decoded, resp);
    }

    #[test]
    fn requests_roundtrip_bit_exactly() {
        roundtrip_request(Request::Quote([0usize, 63, 64, 200].into_iter().collect()));
        roundtrip_request(Request::Quote(ItemSet::new()));
        roundtrip_request(Request::Purchase {
            quote_id: u64::MAX,
            budget: 0.1 + 0.2, // a value with a messy bit pattern
            tick: 77,
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Reprice(PricingPatch::Keep));
        roundtrip_request(Request::Reprice(PricingPatch::SetUniformPrice(3.25)));
        roundtrip_request(Request::Reprice(PricingPatch::SetUniformWeight {
            weight: 0.3333333333333333,
            num_items: 150,
        }));
        roundtrip_request(Request::Reprice(PricingPatch::Replace(Pricing::Xos {
            components: vec![vec![1.0, 0.0, 2.5], vec![0.1, 0.2, 0.3]],
        })));
        roundtrip_request(Request::Reprice(PricingPatch::Replace(Pricing::Item {
            weights: vec![],
        })));
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Metrics);
    }

    #[test]
    fn responses_roundtrip_bit_exactly() {
        roundtrip_response(Response::Quoted(QuoteReply {
            quote_id: 9,
            price: 12.7,
            epoch: 3,
            shard: 1,
            cache_hit: true,
        }));
        roundtrip_response(Response::Purchased {
            sold: false,
            price: f64::MAX,
        });
        roundtrip_response(Response::Stats(vec![
            ShardStats {
                epoch: 1,
                quotes: 100,
                cache_hits: 40,
                invalidations: 12,
                evictions: 7,
                sales: 30,
                declines: 25,
                revenue: 123.456,
            },
            ShardStats {
                epoch: 2,
                quotes: 0,
                cache_hits: 0,
                invalidations: 0,
                evictions: 0,
                sales: 0,
                declines: 0,
                revenue: 0.0,
            },
        ]));
        roundtrip_response(Response::Repriced {
            epochs: vec![4, 4, 5],
        });
        roundtrip_response(Response::ShutdownAck);
        roundtrip_response(Response::Error {
            code: ErrorCode::UnknownQuote,
            message: "quote 7 unknown".into(),
        });
        roundtrip_response(Response::Error {
            code: ErrorCode::QuoteExpired,
            message: "quote 3 expired under pressure; re-quote".into(),
        });
        roundtrip_response(Response::Metrics(MetricsSnapshot::default()));
        let mut latency = HistogramSnapshot::default();
        latency.record(900);
        latency.record(4_200);
        latency.record(1 << 40);
        roundtrip_response(Response::Metrics(MetricsSnapshot {
            counters: vec![("cache.hit".into(), 41), ("cache.miss".into(), 9)],
            gauges: vec![("inflight".into(), -3)],
            histograms: vec![("quote.route".into(), latency)],
            exemplars: vec![Exemplar {
                trace_id: 0xFEED_BEEF_u64,
                root: "req".into(),
                total_ns: 2_000_000,
                events: vec![
                    SpanRecord {
                        name: "req".into(),
                        depth: 0,
                        shard: 1,
                        start_ns: 0,
                        dur_ns: 2_000_000,
                    },
                    SpanRecord {
                        name: "req.price".into(),
                        depth: 1,
                        shard: qp_telemetry::NO_SHARD,
                        start_ns: 150,
                        dur_ns: 1_500_000,
                    },
                ],
            }],
        }));
        roundtrip_response(Response::Trace(vec![Exemplar {
            trace_id: 7,
            root: "server.request".into(),
            total_ns: 900,
            events: vec![SpanRecord {
                name: "server.request".into(),
                depth: 0,
                shard: 0,
                start_ns: 0,
                dur_ns: 900,
            }],
        }]));
        roundtrip_response(Response::Trace(Vec::new()));
    }

    #[test]
    fn traced_envelopes_roundtrip_and_reject_nesting() {
        for inner in [
            Request::Quote([3usize, 99].into_iter().collect()),
            Request::Purchase {
                quote_id: 12,
                budget: 7.5,
                tick: 3,
            },
            Request::Reprice(PricingPatch::SetUniformPrice(2.0)),
            Request::Metrics,
        ] {
            roundtrip_request(Request::Traced {
                trace_id: 0xDEAD_BEEF_CAFE_0001,
                request: Box::new(inner),
            });
        }
        roundtrip_request(Request::Trace { trace_id: u64::MAX });

        // An envelope inside an envelope is not a legal frame.
        let nested = Request::Traced {
            trace_id: 1,
            request: Box::new(Request::Traced {
                trace_id: 2,
                request: Box::new(Request::Stats),
            }),
        };
        assert_eq!(
            Request::decode(&nested.encode()),
            Err(WireError::UnknownOpcode(0x10))
        );
        // A truncated envelope (id but no inner frame) fails cleanly.
        let mut bare = vec![0x10u8];
        bare.extend_from_slice(&9u64.to_be_bytes());
        assert_eq!(Request::decode(&bare), Err(WireError::Truncated));
    }

    #[test]
    fn pre_trace_frames_are_byte_identical() {
        // The envelope is purely additive: wrapping never rewrites the
        // inner encoding, and no bare request ever begins with 0x10.
        let requests = [
            Request::Quote([0usize, 7].into_iter().collect()),
            Request::Purchase {
                quote_id: 3,
                budget: 1.5,
                tick: 9,
            },
            Request::Stats,
            Request::Reprice(PricingPatch::Keep),
            Request::Shutdown,
            Request::Metrics,
        ];
        for req in requests {
            let bare = req.encode();
            assert_ne!(bare[0], 0x10, "bare frame collides with TRACED");
            let wrapped = Request::Traced {
                trace_id: 42,
                request: Box::new(req.clone()),
            }
            .encode();
            assert_eq!(&wrapped[9..], &bare[..], "envelope rewrote the inner frame");
            assert_eq!(Request::decode(&bare).expect("old frame decodes"), req);
        }
    }

    #[test]
    fn decoded_bundles_are_canonical_even_when_padded() {
        let bundle: ItemSet = [5usize, 70].into_iter().collect();
        // Hand-build a QUOTE whose block vector carries trailing zeros.
        let mut payload = vec![0x01u8];
        let mut blocks = bundle.as_blocks().to_vec();
        blocks.extend([0u64, 0u64]);
        payload.extend_from_slice(&(blocks.len() as u32).to_be_bytes());
        for b in blocks {
            payload.extend_from_slice(&b.to_be_bytes());
        }
        match Request::decode(&payload).expect("decodes") {
            Request::Quote(decoded) => assert_eq!(decoded, bundle),
            other => panic!("wrong request {other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_yield_typed_errors() {
        assert_eq!(Request::decode(&[]), Err(WireError::Truncated));
        assert_eq!(
            Request::decode(&[0x42]),
            Err(WireError::UnknownOpcode(0x42))
        );
        // A QUOTE that announces more blocks than it carries.
        let mut truncated = vec![0x01u8];
        truncated.extend_from_slice(&5u32.to_be_bytes());
        assert_eq!(Request::decode(&truncated), Err(WireError::Truncated));
        // A count that could never fit a legal frame is rejected before
        // any allocation happens.
        let mut oversized = vec![0x01u8];
        oversized.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            Request::decode(&oversized),
            Err(WireError::Oversized(_))
        ));
        // Trailing garbage after a well-formed message.
        let mut trailing = Request::Stats.encode();
        trailing.push(0);
        assert_eq!(Request::decode(&trailing), Err(WireError::TrailingBytes(1)));
        // An unknown patch kind.
        assert_eq!(
            Request::decode(&[0x04, 0x77]),
            Err(WireError::UnknownTag(0x77))
        );
    }

    #[test]
    fn frames_roundtrip_over_a_byte_stream() {
        let payloads: Vec<Vec<u8>> = vec![
            Request::Stats.encode(),
            Request::Quote([1usize, 2, 3].as_slice().into()).encode(),
            Vec::new(), // an empty payload is a legal frame
        ];
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        let mut reader = &wire[..];
        for p in &payloads {
            assert_eq!(
                read_frame(&mut reader, None).unwrap().as_deref(),
                Some(&p[..])
            );
        }
        // Clean EOF at the frame boundary.
        assert_eq!(read_frame(&mut reader, None).unwrap(), None);
        // EOF inside a header is an error, not a clean end.
        let mut partial = &[0u8, 0][..];
        assert!(read_frame(&mut partial, None).is_err());
        // An oversized announced length is rejected without allocating.
        let huge = (MAX_FRAME as u32 + 1).to_be_bytes();
        let mut reader = &huge[..];
        assert!(read_frame(&mut reader, None).is_err());

        // A socket with a read timeout: timeouts before the first header
        // byte poll the stop flag, timeouts mid-frame keep reading.
        let start = 4 + payloads[0].len();
        let frame = &wire[start..start + 4 + payloads[1].len()];
        let (head, body) = frame.split_at(6);
        let timeouts_everywhere = || {
            Scripted(VecDeque::from(vec![
                Err(io::ErrorKind::WouldBlock),
                Err(io::ErrorKind::TimedOut),
                Ok(head.to_vec()),
                Err(io::ErrorKind::WouldBlock),
                Err(io::ErrorKind::Interrupted),
                Err(io::ErrorKind::TimedOut),
                Ok(body.to_vec()),
            ]))
        };
        let running = AtomicBool::new(false);
        let stopped = AtomicBool::new(true);
        for stop in [None, Some(&running)] {
            let mut reader = timeouts_everywhere();
            let got = read_frame(&mut reader, stop).unwrap();
            assert_eq!(got.as_deref(), Some(&payloads[1][..]));
            assert_eq!(read_frame(&mut reader, stop).unwrap(), None, "clean EOF");
        }
        // A set stop flag ends an idle wait at the frame boundary...
        let mut reader = timeouts_everywhere();
        assert_eq!(read_frame(&mut reader, Some(&stopped)).unwrap(), None);
        assert_eq!(reader.0.len(), 6, "nothing past the first timeout was read");
        // ...but not a frame the peer has started sending.
        let mut reader = Scripted(VecDeque::from(vec![
            Ok(frame[..2].to_vec()),
            Err(io::ErrorKind::TimedOut),
            Ok(frame[2..6].to_vec()),
            Err(io::ErrorKind::WouldBlock),
            Ok(frame[6..].to_vec()),
        ]));
        let got = read_frame(&mut reader, Some(&stopped)).unwrap();
        assert_eq!(got.as_deref(), Some(&payloads[1][..]));
        // EOF mid-payload is an error even between timeouts.
        let mut reader = Scripted(VecDeque::from(vec![
            Ok(head.to_vec()),
            Err(io::ErrorKind::WouldBlock),
        ]));
        assert!(read_frame(&mut reader, Some(&running)).is_err());
    }

    /// A `Read` that replays a script of chunks and errors, then reports
    /// EOF. A chunk larger than the caller's buffer is split, with the
    /// rest served by the next read.
    struct Scripted(VecDeque<Result<Vec<u8>, io::ErrorKind>>);

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Err(kind)) => Err(kind.into()),
                Some(Ok(mut chunk)) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.0.push_front(Ok(chunk.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }
}
