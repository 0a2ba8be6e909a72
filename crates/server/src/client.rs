//! A blocking client for the quote-server protocol: one TCP connection,
//! strictly request/reply.
//!
//! Each method sends one frame and blocks for the matching reply. A typed
//! [`Response::Error`] from the server surfaces as an
//! [`io::ErrorKind::Other`] error carrying the server's message; a reply of
//! the wrong kind (a protocol violation) surfaces as
//! [`io::ErrorKind::InvalidData`].

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use qp_core::ItemSet;
use qp_pricing::algorithms::PricingPatch;

use crate::protocol::{
    read_frame, write_frame, ErrorCode, QuoteReply, Request, Response, ShardStats,
};
use crate::shard::SettleOutcome;

/// One client connection to a [`crate::QuoteServer`].
pub struct QuoteClient {
    stream: TcpStream,
    /// Trace id stamped onto outgoing requests via the `TRACED` envelope;
    /// 0 means untraced and frames go out in their pre-trace byte layout.
    trace_id: u64,
}

impl QuoteClient {
    /// Connects (with `TCP_NODELAY`, since the protocol is small
    /// request/reply frames on the quoting hot path).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<QuoteClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(QuoteClient {
            stream,
            trace_id: 0,
        })
    }

    /// Sets the trace id wrapped around subsequent requests (`0` turns
    /// tracing back off). The id travels in a `TRACED` envelope, so the
    /// server's span tree for each request carries it — join it against
    /// the client-side spans to stitch a cross-process trace.
    pub fn set_trace_id(&mut self, trace_id: u64) {
        self.trace_id = trace_id;
    }

    /// One request/reply exchange, typed errors included in the result.
    fn call_raw(&mut self, request: Request) -> io::Result<Response> {
        let request = if self.trace_id == 0 {
            request
        } else {
            Request::Traced {
                trace_id: self.trace_id,
                request: Box::new(request),
            }
        };
        write_frame(&mut self.stream, &request.encode())?;
        let payload = read_frame(&mut self.stream, None)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        Response::decode(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    fn call(&mut self, request: Request) -> io::Result<Response> {
        let response = self.call_raw(request)?;
        if let Response::Error { code, message } = &response {
            return Err(io::Error::other(format!(
                "server error {code:?}: {message}"
            )));
        }
        Ok(response)
    }

    fn protocol_violation<T>(got: &Response) -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected reply {got:?}"),
        ))
    }

    /// Quotes a bundle.
    pub fn quote(&mut self, bundle: &ItemSet) -> io::Result<QuoteReply> {
        match self.call(Request::Quote(bundle.clone()))? {
            Response::Quoted(reply) => Ok(reply),
            other => Self::protocol_violation(&other),
        }
    }

    /// Settles a quote; returns `(sold, price)` with the price honored as
    /// quoted.
    pub fn purchase(&mut self, quote_id: u64, budget: f64, tick: u64) -> io::Result<(bool, f64)> {
        match self.call(Request::Purchase {
            quote_id,
            budget,
            tick,
        })? {
            Response::Purchased { sold, price } => Ok((sold, price)),
            other => Self::protocol_violation(&other),
        }
    }

    /// Settles a quote with eviction surfaced as a typed outcome instead
    /// of an opaque error: `Expired` means the quote was evicted under
    /// pending-table pressure and the right response is to **re-quote**,
    /// while `Unknown` means the id was never issued or already settled.
    /// Transport failures and other server errors still return `Err`.
    pub fn try_purchase(
        &mut self,
        quote_id: u64,
        budget: f64,
        tick: u64,
    ) -> io::Result<SettleOutcome> {
        match self.call_raw(Request::Purchase {
            quote_id,
            budget,
            tick,
        })? {
            Response::Purchased { sold, price } => Ok(SettleOutcome::Settled { sold, price }),
            Response::Error {
                code: ErrorCode::QuoteExpired,
                ..
            } => Ok(SettleOutcome::Expired),
            Response::Error {
                code: ErrorCode::UnknownQuote,
                ..
            } => Ok(SettleOutcome::Unknown),
            Response::Error { code, message } => Err(io::Error::other(format!(
                "server error {code:?}: {message}"
            ))),
            other => Self::protocol_violation(&other),
        }
    }

    /// Fetches per-shard serving statistics.
    pub fn stats(&mut self) -> io::Result<Vec<ShardStats>> {
        match self.call(Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Self::protocol_violation(&other),
        }
    }

    /// Applies a pricing patch on every shard; returns the post-patch
    /// epochs in shard order. When this returns, the new pricing is live:
    /// quotes issued afterwards are priced (and epoch-tagged) against it.
    pub fn reprice(&mut self, patch: &PricingPatch) -> io::Result<Vec<u64>> {
        match self.call(Request::Reprice(patch.clone()))? {
            Response::Repriced { epochs } => Ok(epochs),
            other => Self::protocol_violation(&other),
        }
    }

    /// Fetches the server's telemetry registry: counters, gauges,
    /// log-bucketed latency histograms, and slow-request exemplars. The
    /// snapshot is structured — render it with [`qp_telemetry::expose`]
    /// or read quantiles straight off the histograms.
    pub fn metrics(&mut self) -> io::Result<qp_telemetry::MetricsSnapshot> {
        match self.call(Request::Metrics)? {
            Response::Metrics(snapshot) => Ok(snapshot),
            other => Self::protocol_violation(&other),
        }
    }

    /// Looks up the server's recent exemplars for one trace id (`TRACE`
    /// frame): the server-side halves of a distributed trace, ready to
    /// stitch against the client-side span trees sharing the id.
    pub fn trace(&mut self, trace_id: u64) -> io::Result<Vec<qp_telemetry::Exemplar>> {
        match self.call(Request::Trace { trace_id })? {
            Response::Trace(exemplars) => Ok(exemplars),
            other => Self::protocol_violation(&other),
        }
    }

    /// Asks the server to shut down; returns once the server acknowledges.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        match self.call(Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Self::protocol_violation(&other),
        }
    }
}
