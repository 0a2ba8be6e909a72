//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Dependency-free by design (std only): every message is one **frame** —
//! a big-endian `u32` payload length followed by the payload. The payload
//! opens with the [`WIRE_VERSION`] byte, then the opcode, then the body.
//! Bodies are built from the same encoders the WAL, snapshots and flight
//! dumps use ([`qp_core::codec`], `qp_store`'s pricing and patch codecs,
//! `qp_telemetry`'s metrics and exemplar codecs): integers little-endian,
//! counts `u64`, strings a `u32` length and strict UTF-8, floats as their
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
//!
//! Frame IO costs one syscall per frame in the common case:
//! [`write_frame`] encodes header and payload into the connection's
//! reusable buffer and sends them with one `write_all`, and each
//! connection reads through one [`FrameReader`], whose buffered `read`s
//! usually return a whole frame.

use parking_lot::atomic::{AtomicBool, Ordering};
use std::fmt;
use std::io::{self, Read, Write};

use qp_core::codec::{put_f64, put_str, put_u32, put_u64, ByteReader, CodecError};
use qp_core::ItemSet;
use qp_pricing::algorithms::PricingPatch;
use qp_store::{put_patch, take_patch};
use qp_telemetry::{put_exemplars, put_metrics, take_exemplars, take_metrics};
use qp_telemetry::{Exemplar, MetricsSnapshot};

/// Upper bound on a frame payload (16 MiB). A frame header announcing more
/// fails the read and the server drops the connection — the peer is either
/// broken or hostile. Nothing is ever sized on a peer's say-so alone:
/// [`FrameReader`] grows only with bytes that have arrived, and a count
/// inside a payload is checked against the bytes left before anything is
/// allocated for it.
pub const MAX_FRAME: usize = 1 << 24;

/// The first byte of every request and response payload, once per frame
/// (a `TRACED` envelope's inner request carries none). It is none of the
/// pre-version opcodes, so a frame from a peer of the unversioned protocol
/// is refused as [`WireError::UnsupportedVersion`] rather than misread, and
/// such a peer reads this byte as an unknown opcode.
pub const WIRE_VERSION: u8 = 0x20;

// Request opcodes.
const OP_QUOTE: u8 = 0x01;
const OP_PURCHASE: u8 = 0x02;
const OP_STATS: u8 = 0x03;
const OP_REPRICE: u8 = 0x04;
const OP_SHUTDOWN: u8 = 0x05;
const OP_METRICS: u8 = 0x06;
const OP_TRACE: u8 = 0x07;
/// Trace-context envelope: `[0x10][u64 trace id][inner opcode + body]`.
/// A new opcode rather than trailing bytes on existing bodies, so a bare
/// request's bytes do not depend on tracing and a server without tracing
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
    /// The payload does not open with [`WIRE_VERSION`]; carries the byte
    /// it opens with.
    UnsupportedVersion(u8),
    /// The opcode byte is not in the catalogue.
    UnknownOpcode(u8),
    /// The body did not decode: truncated, trailing bytes, an unknown tag,
    /// an implausible count, or a string that is not UTF-8.
    Codec(CodecError),
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnsupportedVersion(b) => write!(
                f,
                "payload opens with 0x{b:02x}, not wire version 0x{WIRE_VERSION:02x}"
            ),
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            WireError::Codec(e) => write!(f, "malformed payload: {e}"),
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
    /// The request payload did not open with [`WIRE_VERSION`]: the peer
    /// speaks another version of the protocol.
    UnsupportedVersion = 5,
}

impl ErrorCode {
    fn from_byte(b: u8) -> Result<ErrorCode, CodecError> {
        match b {
            1 => Ok(ErrorCode::UnknownOpcode),
            2 => Ok(ErrorCode::Malformed),
            3 => Ok(ErrorCode::UnknownQuote),
            4 => Ok(ErrorCode::QuoteExpired),
            5 => Ok(ErrorCode::UnsupportedVersion),
            other => Err(CodecError::BadTag(other)),
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

/// Bytes a [`FrameReader`] asks the stream for at once, and the most it
/// grows its buffer by before the bytes to fill it have arrived.
const READ_CHUNK: usize = 8 * 1024;

/// Buffer capacity a connection keeps between frames. A large frame
/// (`METRICS`, a `REPRICE` carrying a whole pricing) may grow a buffer
/// past it; the next frame starts from this cap again.
const RETAIN_CAP: usize = 64 * 1024;

fn oversized(len: usize) -> String {
    format!("frame payload of {len} bytes exceeds MAX_FRAME")
}

/// Writes one frame — `u32` big-endian payload length, then the payload —
/// with a single `write_all`, so a small frame leaves as one TCP segment.
///
/// `buf` is the connection's reusable frame buffer: it is cleared, given a
/// 4-byte header placeholder, filled by `payload` (e.g.
/// `|out| request.encode_into(out)`), and the length patched in. A steady
/// connection therefore allocates nothing per frame. A payload over
/// [`MAX_FRAME`] is refused with `InvalidInput` and nothing is written.
pub fn write_frame<W: Write>(
    w: &mut W,
    buf: &mut Vec<u8>,
    payload: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    buf.clear();
    buf.extend_from_slice(&[0; 4]);
    payload(buf);
    let len = buf.len() - 4;
    let sent = if len > MAX_FRAME {
        Err(io::Error::new(io::ErrorKind::InvalidInput, oversized(len)))
    } else {
        buf[..4].copy_from_slice(&(len as u32).to_be_bytes());
        w.write_all(buf).and_then(|()| w.flush())
    };
    if buf.capacity() > RETAIN_CAP {
        buf.clear();
        buf.shrink_to(RETAIN_CAP);
    }
    sent
}

/// One connection's read side: the bytes read from the stream but not yet
/// returned as frames.
///
/// Reads ask for up to 8 KiB at a time, so a small frame usually costs one
/// `read`, and bytes of a following frame stay buffered for the next call.
/// Each frame is returned as a slice of the buffer, so nothing is allocated
/// per frame either. The buffer grows only with bytes that have actually
/// arrived — never to a length the peer merely announced — and is cut back
/// to 64 KiB between frames.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Read buffer; `buf[start..end]` holds the unconsumed bytes.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// An empty reader; its buffer is allocated by the first read.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Reads one frame payload. Returns `Ok(None)` on a clean EOF at a
    /// frame boundary (the peer hung up between messages); EOF mid-frame is
    /// an error. The announced length is checked against [`MAX_FRAME`]
    /// before anything is sized from it.
    ///
    /// Read timeouts (`WouldBlock`/`TimedOut`, from a socket with a read
    /// timeout) are retried. Before a frame's first header byte each
    /// timeout also polls `stop`, and a set flag ends the read with
    /// `Ok(None)`, so an idle keep-alive connection neither busy-spins nor
    /// outlives shutdown. A timeout *inside* a frame keeps reading: the
    /// peer has committed to sending it. Callers without a read timeout
    /// pass `None`.
    pub fn read_frame<R: Read>(
        &mut self,
        r: &mut R,
        stop: Option<&AtomicBool>,
    ) -> io::Result<Option<&[u8]>> {
        if self.start == self.end {
            // Drained: read the next frame into the front of the buffer.
            self.start = 0;
            self.end = 0;
        }
        if self.buf.capacity() > RETAIN_CAP && self.end - self.start <= RETAIN_CAP {
            self.compact();
            self.buf.truncate(RETAIN_CAP);
            self.buf.shrink_to_fit();
        }
        if !self.fill(r, 4, stop)? {
            return Ok(None);
        }
        let mut header = [0u8; 4];
        header.copy_from_slice(&self.buf[self.start..self.start + 4]);
        let len = u32::from_be_bytes(header) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(io::ErrorKind::InvalidData, oversized(len)));
        }
        // Never `false`: the header is buffered, so this is not a boundary.
        self.fill(r, 4 + len, stop)?;
        let payload = self.start + 4..self.start + 4 + len;
        self.start = payload.end;
        Ok(Some(&self.buf[payload]))
    }

    /// Reads until `need` unconsumed bytes are buffered, retrying
    /// interrupts and read timeouts. Returns `Ok(false)` with nothing read
    /// when the peer hangs up, or `stop` is set, before the next frame's
    /// first byte.
    fn fill<R: Read>(
        &mut self,
        r: &mut R,
        need: usize,
        stop: Option<&AtomicBool>,
    ) -> io::Result<bool> {
        while self.end - self.start < need {
            let at_boundary = self.end == self.start;
            if self.end == self.buf.len() {
                self.make_room(need);
            }
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) if at_boundary => return Ok(false),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        if self.end - self.start < 4 {
                            "EOF inside a frame header"
                        } else {
                            "EOF inside a frame payload"
                        },
                    ))
                }
                Ok(n) => self.end += n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // ordering: Acquire — pairs with the Release stores of
                    // the stop flag.
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

    /// Frees space to read into once the buffer is full: moves the
    /// unconsumed bytes to the front, and if that frees nothing, grows the
    /// buffer toward `need` — by at most the bytes already buffered, or
    /// [`READ_CHUNK`] if that is more. A peer announcing a 16 MiB frame and
    /// sending 10 bytes thus costs a [`READ_CHUNK`]-sized buffer, not 16 MiB.
    fn make_room(&mut self, need: usize) {
        self.compact();
        if self.end == self.buf.len() {
            let ahead = self.end.max(READ_CHUNK);
            let len = need.min(self.end + ahead).max(READ_CHUNK);
            self.buf.resize(len, 0);
        }
    }

    fn compact(&mut self) {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
    }
}

// ---------------------------------------------------------------------------
// Bundles
// ---------------------------------------------------------------------------

fn put_bundle(out: &mut Vec<u8>, bundle: &ItemSet) {
    let blocks = bundle.as_blocks();
    put_u64(out, blocks.len() as u64);
    for &b in blocks {
        put_u64(out, b);
    }
}

fn take_bundle(r: &mut ByteReader<'_>) -> Result<ItemSet, CodecError> {
    let n = r.checked_count(8)?;
    let mut blocks = Vec::with_capacity(n);
    for _ in 0..n {
        blocks.push(r.u64()?);
    }
    // from_blocks re-normalizes, so even a peer that pads with zero blocks
    // yields the canonical set (hash/route/compare-safe).
    Ok(ItemSet::from_blocks(blocks))
}

/// Reads the version byte every payload opens with.
fn take_version(r: &mut ByteReader<'_>) -> Result<(), WireError> {
    match r.u8()? {
        WIRE_VERSION => Ok(()),
        other => Err(WireError::UnsupportedVersion(other)),
    }
}

// ---------------------------------------------------------------------------
// Request / Response codecs
// ---------------------------------------------------------------------------

impl Request {
    /// Serializes into a frame payload (version byte, opcode, body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the frame payload to `out` — the allocation-free form of
    /// `encode`, used with [`write_frame`]'s reusable buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(WIRE_VERSION);
        self.encode_body(out);
    }

    /// Appends the opcode and body (an envelope's inner request has no
    /// version byte of its own).
    fn encode_body(&self, out: &mut Vec<u8>) {
        out.push(self.wire_opcode());
        match self {
            Request::Quote(bundle) => put_bundle(out, bundle),
            Request::Purchase {
                quote_id,
                budget,
                tick,
            } => {
                put_u64(out, *quote_id);
                put_f64(out, *budget);
                put_u64(out, *tick);
            }
            Request::Stats | Request::Shutdown | Request::Metrics => {}
            Request::Reprice(patch) => put_patch(out, patch),
            Request::Trace { trace_id } => put_u64(out, *trace_id),
            Request::Traced { trace_id, request } => {
                put_u64(out, *trace_id);
                request.encode_body(out);
            }
        }
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
        let mut r = ByteReader::new(payload);
        take_version(&mut r)?;
        let req = Request::decode_body(&mut r, true)?;
        r.finish()?;
        Ok(req)
    }

    fn decode_body(r: &mut ByteReader<'_>, allow_envelope: bool) -> Result<Request, WireError> {
        Ok(match r.u8()? {
            OP_QUOTE => Request::Quote(take_bundle(r)?),
            OP_PURCHASE => Request::Purchase {
                quote_id: r.u64()?,
                budget: r.f64()?,
                tick: r.u64()?,
            },
            OP_STATS => Request::Stats,
            OP_REPRICE => Request::Reprice(take_patch(r)?),
            OP_SHUTDOWN => Request::Shutdown,
            OP_METRICS => Request::Metrics,
            OP_TRACE => Request::Trace { trace_id: r.u64()? },
            // Envelopes carry exactly one level: a Traced inside a Traced
            // is rejected as an unknown opcode at the inner position.
            OP_TRACED if allow_envelope => Request::Traced {
                trace_id: r.u64()?,
                request: Box::new(Request::decode_body(r, false)?),
            },
            other => return Err(WireError::UnknownOpcode(other)),
        })
    }
}

impl Response {
    /// Serializes into a frame payload (version byte, opcode, body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the frame payload to `out` — the allocation-free form of
    /// `encode`, used with [`write_frame`]'s reusable buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(WIRE_VERSION);
        match self {
            Response::Quoted(q) => {
                out.push(OP_QUOTED);
                put_u64(out, q.quote_id);
                put_f64(out, q.price);
                put_u64(out, q.epoch);
                put_u32(out, q.shard);
                out.push(u8::from(q.cache_hit));
            }
            Response::Purchased { sold, price } => {
                out.push(OP_PURCHASED);
                out.push(u8::from(*sold));
                put_f64(out, *price);
            }
            Response::Stats(shards) => {
                out.push(OP_STATS_REPLY);
                put_u64(out, shards.len() as u64);
                for s in shards {
                    put_u64(out, s.epoch);
                    put_u64(out, s.quotes);
                    put_u64(out, s.cache_hits);
                    put_u64(out, s.invalidations);
                    put_u64(out, s.evictions);
                    put_u64(out, s.sales);
                    put_u64(out, s.declines);
                    put_f64(out, s.revenue);
                }
            }
            Response::Repriced { epochs } => {
                out.push(OP_REPRICED);
                put_u64(out, epochs.len() as u64);
                for &e in epochs {
                    put_u64(out, e);
                }
            }
            Response::ShutdownAck => out.push(OP_SHUTDOWN_ACK),
            Response::Metrics(snap) => {
                out.push(OP_METRICS_REPLY);
                put_metrics(out, snap);
            }
            Response::Trace(exemplars) => {
                out.push(OP_TRACE_REPLY);
                put_exemplars(out, exemplars);
            }
            Response::Error { code, message } => {
                out.push(OP_ERROR);
                out.push(*code as u8);
                put_str(out, message);
            }
        }
    }

    /// Parses a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = ByteReader::new(payload);
        take_version(&mut r)?;
        let resp = match r.u8()? {
            OP_QUOTED => Response::Quoted(QuoteReply {
                quote_id: r.u64()?,
                price: r.f64()?,
                epoch: r.u64()?,
                shard: r.u32()?,
                cache_hit: r.bool()?,
            }),
            OP_PURCHASED => Response::Purchased {
                sold: r.bool()?,
                price: r.f64()?,
            },
            OP_STATS_REPLY => {
                let n = r.checked_count(64)?;
                let mut shards = Vec::with_capacity(n);
                for _ in 0..n {
                    shards.push(ShardStats {
                        epoch: r.u64()?,
                        quotes: r.u64()?,
                        cache_hits: r.u64()?,
                        invalidations: r.u64()?,
                        evictions: r.u64()?,
                        sales: r.u64()?,
                        declines: r.u64()?,
                        revenue: r.f64()?,
                    });
                }
                Response::Stats(shards)
            }
            OP_REPRICED => {
                let n = r.checked_count(8)?;
                let mut epochs = Vec::with_capacity(n);
                for _ in 0..n {
                    epochs.push(r.u64()?);
                }
                Response::Repriced { epochs }
            }
            OP_SHUTDOWN_ACK => Response::ShutdownAck,
            OP_METRICS_REPLY => Response::Metrics(take_metrics(&mut r)?),
            OP_TRACE_REPLY => Response::Trace(take_exemplars(&mut r)?),
            OP_ERROR => Response::Error {
                code: ErrorCode::from_byte(r.u8()?)?,
                message: r.str()?.to_string(),
            },
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_pricing::Pricing;
    use qp_telemetry::{HistogramSnapshot, SpanRecord};
    use std::collections::VecDeque;

    /// One frame as `write_frame` sends it.
    fn frame_of(payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, &mut Vec::new(), payload).expect("a Vec accepts every write");
        wire
    }

    /// Checks that the single-write frame is byte-identical to a 4-byte
    /// header followed by `encode()`'s payload, and returns that payload as
    /// a `FrameReader` reads it back.
    fn frame_roundtrip(wire: &[u8], payload: &[u8]) -> Vec<u8> {
        let mut header_then_payload = (payload.len() as u32).to_be_bytes().to_vec();
        header_then_payload.extend_from_slice(payload);
        assert_eq!(wire, &header_then_payload[..], "frame bytes changed");
        let mut reader = FrameReader::new();
        let got = reader.read_frame(&mut &wire[..], None).expect("reads");
        got.expect("one frame").to_vec()
    }

    fn roundtrip_request(req: Request) {
        let payload = frame_roundtrip(&frame_of(|out| req.encode_into(out)), &req.encode());
        assert_eq!(Request::decode(&payload).expect("decodes"), req);
    }

    fn roundtrip_response(resp: Response) {
        let payload = frame_roundtrip(&frame_of(|out| resp.encode_into(out)), &resp.encode());
        assert_eq!(Response::decode(&payload).expect("decodes"), resp);
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
        let mut bare = vec![WIRE_VERSION, 0x10];
        put_u64(&mut bare, 9);
        assert_eq!(
            Request::decode(&bare),
            Err(WireError::Codec(CodecError::Truncated))
        );
    }

    #[test]
    fn pre_trace_frames_are_byte_identical() {
        // The envelope is purely additive: wrapping never rewrites the
        // inner opcode and body, the version byte appears once, and no
        // bare request's opcode is 0x10.
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
            assert_eq!(bare[0], WIRE_VERSION);
            assert_ne!(bare[1], 0x10, "bare frame collides with TRACED");
            let wrapped = Request::Traced {
                trace_id: 42,
                request: Box::new(req.clone()),
            }
            .encode();
            assert_eq!(&wrapped[..2], &[WIRE_VERSION, 0x10]);
            assert_eq!(
                &wrapped[10..],
                &bare[1..],
                "envelope rewrote the inner frame"
            );
            assert_eq!(Request::decode(&bare).expect("old frame decodes"), req);
        }
    }

    #[test]
    fn decoded_bundles_are_canonical_even_when_padded() {
        let bundle: ItemSet = [5usize, 70].into_iter().collect();
        // Hand-build a QUOTE whose block vector carries trailing zeros.
        let mut payload = vec![WIRE_VERSION, 0x01];
        let mut blocks = bundle.as_blocks().to_vec();
        blocks.extend([0u64, 0u64]);
        put_u64(&mut payload, blocks.len() as u64);
        for b in blocks {
            put_u64(&mut payload, b);
        }
        match Request::decode(&payload).expect("decodes") {
            Request::Quote(decoded) => assert_eq!(decoded, bundle),
            other => panic!("wrong request {other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_yield_typed_errors() {
        fn codec<T>(e: CodecError) -> Result<T, WireError> {
            Err(WireError::Codec(e))
        }
        assert_eq!(Request::decode(&[]), codec(CodecError::Truncated));
        assert_eq!(
            Request::decode(&[WIRE_VERSION]),
            codec(CodecError::Truncated)
        );
        assert_eq!(
            Request::decode(&[WIRE_VERSION, 0x42]),
            Err(WireError::UnknownOpcode(0x42))
        );
        // A payload that does not open with the version byte: a frame of
        // the unversioned protocol, whatever follows.
        assert_eq!(
            Request::decode(&[0x01, 0, 0, 0, 0]),
            Err(WireError::UnsupportedVersion(0x01))
        );
        assert_eq!(
            Response::decode(&[0x81]),
            Err(WireError::UnsupportedVersion(0x81))
        );
        // A QUOTE that announces more blocks than it carries is rejected
        // before any allocation happens.
        let mut short = vec![WIRE_VERSION, 0x01];
        put_u64(&mut short, 5);
        assert_eq!(Request::decode(&short), codec(CodecError::BadLength(5)));
        let mut huge = vec![WIRE_VERSION, 0x01];
        put_u64(&mut huge, u64::MAX);
        assert_eq!(
            Request::decode(&huge),
            codec(CodecError::BadLength(u64::MAX))
        );
        // Trailing garbage after a well-formed message.
        let mut trailing = Request::Stats.encode();
        trailing.push(0);
        assert_eq!(Request::decode(&trailing), codec(CodecError::Trailing));
        // An unknown patch kind, and a reply flag that is neither 0 nor 1.
        assert_eq!(
            Request::decode(&[WIRE_VERSION, 0x04, 0x77]),
            codec(CodecError::BadTag(0x77))
        );
        let mut purchased = Response::Purchased {
            sold: true,
            price: 1.0,
        }
        .encode();
        purchased[2] = 2;
        assert_eq!(Response::decode(&purchased), codec(CodecError::BadTag(2)));
        // A string that is not UTF-8.
        let mut error = vec![WIRE_VERSION, 0xFF, 2];
        put_str(&mut error, "ok");
        let last = error.len() - 1;
        error[last] = 0xFF;
        assert_eq!(Response::decode(&error), codec(CodecError::BadUtf8));
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
            wire.extend(frame_of(|out| out.extend_from_slice(p)));
        }
        let mut reader = &wire[..];
        let mut frames = FrameReader::new();
        for p in &payloads {
            assert_eq!(frames.read_frame(&mut reader, None).unwrap(), Some(&p[..]));
        }
        // Clean EOF at the frame boundary.
        assert_eq!(frames.read_frame(&mut reader, None).unwrap(), None);
        // EOF inside a header is an error, not a clean end.
        let mut partial = &[0u8, 0][..];
        assert!(FrameReader::new().read_frame(&mut partial, None).is_err());
        // An oversized announced length is rejected without allocating.
        let huge = (MAX_FRAME as u32 + 1).to_be_bytes();
        let mut reader = &huge[..];
        assert!(FrameReader::new().read_frame(&mut reader, None).is_err());

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
            let mut frames = FrameReader::new();
            let got = frames.read_frame(&mut reader, stop).unwrap();
            assert_eq!(got, Some(&payloads[1][..]));
            assert_eq!(
                frames.read_frame(&mut reader, stop).unwrap(),
                None,
                "clean EOF"
            );
        }
        // A set stop flag ends an idle wait at the frame boundary...
        let mut reader = timeouts_everywhere();
        let mut frames = FrameReader::new();
        assert_eq!(
            frames.read_frame(&mut reader, Some(&stopped)).unwrap(),
            None
        );
        assert_eq!(reader.0.len(), 6, "nothing past the first timeout was read");
        // ...but not a frame the peer has started sending.
        let mut reader = Scripted(VecDeque::from(vec![
            Ok(frame[..2].to_vec()),
            Err(io::ErrorKind::TimedOut),
            Ok(frame[2..6].to_vec()),
            Err(io::ErrorKind::WouldBlock),
            Ok(frame[6..].to_vec()),
        ]));
        let mut frames = FrameReader::new();
        let got = frames.read_frame(&mut reader, Some(&stopped)).unwrap();
        assert_eq!(got, Some(&payloads[1][..]));
        // EOF mid-payload is an error even between timeouts.
        let mut reader = Scripted(VecDeque::from(vec![
            Ok(head.to_vec()),
            Err(io::ErrorKind::WouldBlock),
        ]));
        assert!(FrameReader::new()
            .read_frame(&mut reader, Some(&running))
            .is_err());
    }

    #[test]
    fn one_write_per_frame_and_one_read_per_buffered_frame() {
        // The hot-path frames, spelled out from PROTOCOL.md: QUOTE {0, 7}
        // (one bitset block, 0x81) and PURCHASE {id 3, budget 1.5, tick 9},
        // each a big-endian length, the version byte, the opcode and a
        // little-endian body.
        let quote = Request::Quote([0usize, 7].into_iter().collect());
        let quote_frame = [
            0, 0, 0, 18, 0x20, 0x01, 1, 0, 0, 0, 0, 0, 0, 0, 0x81, 0, 0, 0, 0, 0, 0, 0,
        ];
        let purchase = Request::Purchase {
            quote_id: 3,
            budget: 1.5,
            tick: 9,
        };
        let mut purchase_frame = vec![0, 0, 0, 26, 0x20, 0x02];
        purchase_frame.extend_from_slice(&3u64.to_le_bytes());
        purchase_frame.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        purchase_frame.extend_from_slice(&9u64.to_le_bytes());

        let mut buf = Vec::new();
        for (req, frame) in [(&quote, &quote_frame[..]), (&purchase, &purchase_frame[..])] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, &mut buf, |out| req.encode_into(out)).unwrap();
            assert_eq!(w.writes, 1, "{req:?} took {} writes", w.writes);
            assert_eq!(w.bytes, frame, "{req:?}");
        }

        // A frame delivered in one chunk costs one read.
        let mut frames = FrameReader::new();
        let mut r = CountingReader::new(vec![Ok(quote_frame.to_vec())]);
        assert_eq!(
            frames.read_frame(&mut r, None).unwrap(),
            Some(&quote_frame[4..])
        );
        assert_eq!(r.reads, 1);
        // Two frames in one chunk both come back, in order, from one read:
        // the second stays buffered across the call.
        let mut both = quote_frame.to_vec();
        both.extend_from_slice(&purchase_frame);
        let mut r = CountingReader::new(vec![Ok(both)]);
        assert_eq!(
            frames.read_frame(&mut r, None).unwrap(),
            Some(&quote_frame[4..])
        );
        assert_eq!(
            frames.read_frame(&mut r, None).unwrap(),
            Some(&purchase_frame[4..])
        );
        assert_eq!(r.reads, 1, "the second frame came from the buffer");
        assert_eq!(frames.read_frame(&mut r, None).unwrap(), None);
    }

    #[test]
    fn buffers_grow_with_bytes_received_and_shrink_between_frames() {
        // A peer announces MAX_FRAME, sends 10 bytes and hangs up: the read
        // fails, and the buffer holds what arrived, not what was announced.
        let mut hostile = (MAX_FRAME as u32).to_be_bytes().to_vec();
        hostile.extend_from_slice(&[7; 10]);
        let mut frames = FrameReader::new();
        let err = frames
            .read_frame(&mut Scripted(VecDeque::from(vec![Ok(hostile)])), None)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            frames.buf.capacity() <= READ_CHUNK,
            "{}",
            frames.buf.capacity()
        );
        // Past the first chunk the buffer grows with the bytes received:
        // 100 KiB of a claimed 16 MiB frame costs at most twice 100 KiB.
        let received = 100 << 10;
        let mut hostile = (MAX_FRAME as u32).to_be_bytes().to_vec();
        hostile.resize(4 + received, 7);
        let mut frames = FrameReader::new();
        let err = frames
            .read_frame(&mut Scripted(VecDeque::from(vec![Ok(hostile)])), None)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            frames.buf.capacity() <= 2 * received,
            "{}",
            frames.buf.capacity()
        );

        // A 1 MiB frame grows the buffer geometrically with its bytes; the
        // next frame starts from the retained cap again.
        let big = vec![0xAB; 1 << 20];
        let mut wire = frame_of(|out| out.extend_from_slice(&big));
        wire.extend(frame_of(|out| out.push(OP_STATS)));
        let mut frames = FrameReader::new();
        let mut r = CountingReader::new(vec![Ok(wire)]);
        let got = frames.read_frame(&mut r, None).unwrap();
        assert_eq!(got, Some(&big[..]));
        assert!(r.reads <= 16, "{} reads for 1 MiB", r.reads);
        assert_eq!(
            frames.read_frame(&mut r, None).unwrap(),
            Some(&[OP_STATS][..])
        );
        assert!(
            frames.buf.capacity() <= RETAIN_CAP,
            "{}",
            frames.buf.capacity()
        );

        // The write side keeps the same cap, and refuses an oversized
        // payload without writing anything.
        let mut buf = Vec::new();
        let mut w = CountingWriter::default();
        write_frame(&mut w, &mut buf, |out| out.extend_from_slice(&big)).unwrap();
        assert!(buf.capacity() <= RETAIN_CAP, "{}", buf.capacity());
        let mut w = CountingWriter::default();
        let err = write_frame(&mut w, &mut buf, |out| {
            out.resize(out.len() + MAX_FRAME + 1, 0)
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(w.writes, 0);
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

    /// A [`Scripted`] reader that counts the `read` calls reaching it.
    struct CountingReader {
        inner: Scripted,
        reads: usize,
    }

    impl CountingReader {
        fn new(script: Vec<Result<Vec<u8>, io::ErrorKind>>) -> CountingReader {
            CountingReader {
                inner: Scripted(VecDeque::from(script)),
                reads: 0,
            }
        }
    }

    impl Read for CountingReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            self.inner.read(buf)
        }
    }

    /// A `Write` that records the bytes and counts the `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
}
