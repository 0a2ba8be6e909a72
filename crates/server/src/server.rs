//! The TCP front-end: an accept loop fanning connections across handler
//! threads, each speaking the frame protocol against the shared
//! [`ShardSet`].
//!
//! The server is deliberately boring: **all** pricing logic lives in the
//! shard set; a connection handler only decodes a frame, dispatches, and
//! encodes the reply. Malformed payloads are answered with a typed
//! [`Response::Error`] rather than a dropped connection, so clients can
//! tell a protocol bug from a network failure.
//!
//! Shutdown is cooperative: a `SHUTDOWN` frame (or [`QuoteServer::shutdown`])
//! sets a stop flag and wakes the accept loop with a dummy connection.
//! Handler threads notice the flag at their next idle read timeout and wind
//! down; in-flight requests always complete.

use parking_lot::atomic::{AtomicBool, Ordering};
use parking_lot::Mutex;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use qp_core::RingBuffer;
use qp_store::SharedStore;
use qp_telemetry::{FlightDump, ProtocolEvent, TelemetrySink};

use crate::protocol::{write_frame, ErrorCode, FrameReader, QuoteReply, Request, Response};
use crate::shard::{SettleOutcome, ShardSet};

/// How often an idle handler thread re-checks the stop flag.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// How many protocol events the flight recorder retains (newest win).
const PROTO_EVENT_CAPACITY: usize = 256;

/// The crash flight recorder: a bounded, preallocated ring of the last-N
/// protocol events plus handles to everything else a post-mortem wants
/// (the registry, the flight span journal, the store's WAL sequence), and
/// a single-shot `dump()` that freezes it all into `flight.dump` in the
/// data directory — CRC-framed, torn-tail tolerant (see
/// [`qp_telemetry::flight`]).
///
/// `dump()` is called from crash paths — the `CrashSwitch` fire site and
/// the panic hook — so it never panics and never blocks unboundedly.
pub struct FlightRecorder {
    dir: PathBuf,
    sink: TelemetrySink,
    store: Option<SharedStore>,
    events: Mutex<RingBuffer<ProtocolEvent>>,
    dumped: AtomicBool,
}

impl FlightRecorder {
    /// A recorder dumping into `dir` (normally the server's `--data-dir`),
    /// reading the registry behind `sink` and, when `store` is present,
    /// stamping the dump with its WAL sequence number.
    pub fn new(
        dir: impl Into<PathBuf>,
        sink: TelemetrySink,
        store: Option<SharedStore>,
    ) -> Arc<Self> {
        Arc::new(FlightRecorder {
            dir: dir.into(),
            sink,
            store,
            events: Mutex::new(RingBuffer::new(PROTO_EVENT_CAPACITY)),
            dumped: AtomicBool::new(false),
        })
    }

    /// Records one protocol event (called per dispatched frame).
    pub fn record_event(&self, opcode: u8, trace_id: u64, frame_len: u32) {
        self.events.lock().push(ProtocolEvent {
            opcode,
            trace_id,
            frame_len,
        });
    }

    /// Writes the dump, once: later calls (a panic racing the crash
    /// switch, say) are no-ops. Returns the path on the first successful
    /// write. I/O failures are swallowed — a crash path has nobody to
    /// report to, and the WAL's own durability never depends on the dump.
    pub fn dump(&self, reason: &str) -> Option<PathBuf> {
        // ordering: SeqCst — single-shot latch; exactness beats speed on a
        // path that runs at most once.
        if self.dumped.swap(true, Ordering::SeqCst) {
            return None;
        }
        let wal_seq = self.store.as_ref().map_or(0, |s| s.wal_seq());
        let dump = FlightDump::capture(
            reason,
            wal_seq,
            self.sink.snapshot(),
            self.sink.flight_roots(),
            self.events.lock().to_vec(),
        );
        dump.write_to(&self.dir).ok()
    }

    /// Whether the dump has already been written (or is being written).
    pub fn already_dumped(&self) -> bool {
        // ordering: SeqCst — pairs with the swap in `dump`.
        self.dumped.load(Ordering::SeqCst)
    }

    /// Installs a process-wide panic hook that writes the dump (chained:
    /// the previous hook still runs, so backtraces keep printing).
    pub fn install_panic_hook(recorder: &Arc<Self>) {
        let recorder = Arc::clone(recorder);
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            recorder.dump(&format!("panic: {info}"));
            previous(info);
        }));
    }

    /// Reads a previously written dump back from `dir` (recovery /
    /// post-mortem side). `Ok(None)` when no dump was ever written.
    pub fn read_dump(dir: &Path) -> io::Result<Option<FlightDump>> {
        FlightDump::read_from(dir)
    }
}

/// Crash injection for durability testing: arms a budget of `n` dispatched
/// requests, after which the server "crashes" — it stops serving instantly
/// and drops every connection without a reply, exactly as if the process
/// died between requests.
///
/// The check runs at **dispatch entry**, so a request is either never
/// dispatched (the client sees a dead connection and must retry against
/// the recovered server) or fully dispatched with its reply written. There
/// is no settled-but-unacked window, which is what lets the crash harness
/// demand *bit-identical* revenue against an uninterrupted run: combined
/// with the store's append-before-ack ordering, every settle is either
/// durable or observably never happened.
#[derive(Clone)]
pub struct CrashSwitch {
    /// Remaining dispatches before the crash fires.
    budget: Arc<parking_lot::atomic::AtomicU64>,
    crashed: Arc<AtomicBool>,
}

impl CrashSwitch {
    /// Crash after `n` dispatched requests (the `n+1`-th is refused).
    pub fn after(n: u64) -> CrashSwitch {
        CrashSwitch {
            budget: Arc::new(parking_lot::atomic::AtomicU64::new(n)),
            crashed: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Whether the crash has fired (the supervisor's cue to recover).
    pub fn crashed(&self) -> bool {
        // ordering: Acquire — pairs with the Release store in
        // `should_crash`; the supervisor that observes the crash also sees
        // every WAL append the server performed before it.
        self.crashed.load(Ordering::Acquire)
    }

    fn should_crash(&self) -> bool {
        // ordering: Acquire — see `crashed`.
        if self.crashed.load(Ordering::Acquire) {
            return true;
        }
        // ordering: SeqCst — the budget handoff decides *which* request
        // crashes; keep the strongest ordering so the count is exact
        // across handler threads.
        let exhausted = self
            .budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_err();
        if exhausted {
            // ordering: Release — pairs with the Acquire loads above.
            self.crashed.store(true, Ordering::Release);
        }
        exhausted
    }
}

struct ServerState {
    shards: ShardSet,
    stop: AtomicBool,
    crash: Option<CrashSwitch>,
    flight: Option<Arc<FlightRecorder>>,
    /// Requests past the crash check but before their reply write. A crash
    /// supervisor must not reopen the data directory until this drains —
    /// an in-flight dispatch may still be appending to the WAL.
    in_flight: parking_lot::atomic::AtomicU64,
}

/// A running quote server: the accept loop runs on its own thread from
/// `bind` until [`QuoteServer::shutdown`] (or drop).
pub struct QuoteServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept_handle: Option<JoinHandle<()>>,
}

impl QuoteServer {
    /// Binds a listener and starts serving `shards` immediately.
    ///
    /// Bind to port 0 to let the OS pick a free port; the actual address is
    /// available from [`QuoteServer::local_addr`].
    pub fn bind(addr: impl ToSocketAddrs, shards: ShardSet) -> io::Result<QuoteServer> {
        QuoteServer::bind_inner(addr, shards, None, None)
    }

    /// [`QuoteServer::bind`] with crash injection armed: once `crash`'s
    /// dispatch budget is exhausted the server stops serving instantly,
    /// simulating a process kill (durability test harnesses only).
    pub fn bind_with_crash_switch(
        addr: impl ToSocketAddrs,
        shards: ShardSet,
        crash: CrashSwitch,
    ) -> io::Result<QuoteServer> {
        QuoteServer::bind_inner(addr, shards, Some(crash), None)
    }

    /// The fully-armed bind: optional crash injection *and* an optional
    /// [`FlightRecorder`]. With a recorder attached, every dispatched
    /// frame is logged to its protocol-event ring and a crash-switch fire
    /// writes the flight dump before the server goes dark.
    pub fn bind_with_options(
        addr: impl ToSocketAddrs,
        shards: ShardSet,
        crash: Option<CrashSwitch>,
        flight: Option<Arc<FlightRecorder>>,
    ) -> io::Result<QuoteServer> {
        QuoteServer::bind_inner(addr, shards, crash, flight)
    }

    fn bind_inner(
        addr: impl ToSocketAddrs,
        shards: ShardSet,
        crash: Option<CrashSwitch>,
        flight: Option<Arc<FlightRecorder>>,
    ) -> io::Result<QuoteServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            shards,
            stop: AtomicBool::new(false),
            crash,
            flight,
            in_flight: parking_lot::atomic::AtomicU64::new(0),
        });
        let accept_state = Arc::clone(&state);
        let accept_handle = std::thread::Builder::new()
            .name("qp-server-accept".into())
            .spawn(move || accept_loop(listener, accept_state))?;
        Ok(QuoteServer {
            addr,
            state,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shard set being served (stats, direct quoting in tests).
    pub fn shards(&self) -> &ShardSet {
        &self.state.shards
    }

    /// Stops accepting connections and joins the accept loop. Idempotent.
    /// Connection handlers finish their in-flight request and exit at
    /// their next idle poll.
    pub fn shutdown(&mut self) {
        // ordering: Release — pairs with the Acquire loads in the accept
        // loop and idle polls, so work done before shutdown is visible to
        // the threads that observe the flag.
        self.state.stop.store(true, Ordering::Release);
        // Wake the accept loop: a throwaway connection, immediately closed.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }

    /// Blocks until the server shuts down (a `SHUTDOWN` frame arrives or
    /// another thread calls [`QuoteServer::shutdown`]). Used by the
    /// standalone `serve` binary.
    pub fn wait(&mut self) {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }

    /// Crash-harness quiesce: stops accepting and blocks until no request
    /// is between its crash check and its reply write. After this returns,
    /// the old server will never append to the store again, so a
    /// supervisor may safely reopen the data directory and recover.
    pub fn quiesce(&mut self) {
        self.shutdown();
        // ordering: SeqCst — the handler's increment precedes its budget
        // RMW (program order), budget RMWs are totally ordered, and the
        // crashing RMW precedes the Release store that made `crashed()`
        // true for the supervisor; so after observing the crash, every
        // dispatching handler's increment is visible here, and seeing the
        // matching decrement means its dispatch (and WAL append) completed.
        while self.state.in_flight.load(Ordering::SeqCst) != 0 {
            // timing: quiesce poll only; never affects a settled outcome.
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for QuoteServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    for stream in listener.incoming() {
        // ordering: Acquire — pairs with the Release stores of the stop
        // flag; everything the stopping thread did is visible here.
        if state.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_state = Arc::clone(&state);
        // Handlers are detached: they exit on peer EOF or at the first
        // idle poll after the stop flag is set.
        let _ = std::thread::Builder::new()
            .name("qp-server-conn".into())
            .spawn(move || handle_connection(stream, conn_state));
    }
}

fn handle_connection(mut stream: TcpStream, state: Arc<ServerState>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    // Span sites resolved once per connection: the per-frame path below
    // never touches the registry map.
    let sink = state.shards.telemetry_sink().clone();
    let request_span = sink.span_handle("server.request");
    let decode_span = sink.span_handle("frame.decode");
    // One read buffer and one write buffer for the connection's lifetime:
    // bytes a pipelining peer sent past this frame stay in `reader`.
    let mut reader = FrameReader::new();
    let mut out = Vec::new();
    loop {
        let payload = match reader.read_frame(&mut stream, Some(&state.stop)) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(_) => return, // peer EOF, stop flag, or broken pipe
        };
        // Crash injection point: the "process" dies between requests —
        // this frame is never dispatched and never answered. In-flight
        // requests on other threads complete and write their replies.
        // The in-flight count brackets the check itself (see `quiesce`):
        // incrementing *before* the check is what makes "crashed and
        // in_flight == 0" mean no dispatch can ever touch the WAL again.
        // ordering: SeqCst — see `QuoteServer::quiesce`.
        state.in_flight.fetch_add(1, Ordering::SeqCst);
        if let Some(crash) = &state.crash {
            if crash.should_crash() {
                // ordering: Release — as in shutdown(): the WAL appends of
                // every dispatched request happen-before the flag.
                state.stop.store(true, Ordering::Release);
                // ordering: SeqCst — see `QuoteServer::quiesce`.
                state.in_flight.fetch_sub(1, Ordering::SeqCst);
                // Black-box moment: freeze the flight recorder at the
                // instant of death. In-flight dispatches on other threads
                // are waited out first (bounded — they always complete),
                // so the dump's WAL sequence number is exactly the
                // sequence recovery will replay to.
                if let Some(recorder) = &state.flight {
                    if !recorder.already_dumped() {
                        for _ in 0..1000 {
                            // ordering: SeqCst — see `QuoteServer::quiesce`.
                            if state.in_flight.load(Ordering::SeqCst) == 0 {
                                break;
                            }
                            // timing: crash-dump drain poll only.
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        recorder.dump("crash-switch kill");
                    }
                }
                let _ = stream.local_addr().map(TcpStream::connect);
                return;
            }
        }
        // Root span over the whole serve path (decode → dispatch → write);
        // idle time waiting for the frame is deliberately excluded.
        let req_guard = request_span.enter();
        let decoded = {
            let _guard = decode_span.enter();
            Request::decode(payload)
        };
        let (response, shutdown) = match decoded {
            Ok(request) => {
                if let Some(recorder) = &state.flight {
                    // Log the *inner* opcode for envelopes so a post-mortem
                    // reads real traffic, with the trace id alongside.
                    let (op, tid) = match &request {
                        Request::Traced { trace_id, request } => (request.wire_opcode(), *trace_id),
                        other => (other.wire_opcode(), 0),
                    };
                    recorder.record_event(op, tid, payload.len() as u32);
                }
                dispatch(&state, request)
            }
            Err(err) => (error_response(&err), false),
        };
        let write_failed =
            write_frame(&mut stream, &mut out, |out| response.encode_into(out)).is_err();
        drop(req_guard);
        // ordering: SeqCst — see `QuoteServer::quiesce`; the decrement
        // comes after the reply write, so quiesce implies every dispatched
        // request was also acked.
        state.in_flight.fetch_sub(1, Ordering::SeqCst);
        if write_failed {
            return;
        }
        if shutdown {
            // ordering: Release — pairs with the Acquire loads in the
            // accept loop and idle polls (see shutdown()).
            state.stop.store(true, Ordering::Release);
            // Wake the accept loop so it observes the flag.
            let _ = stream.local_addr().map(TcpStream::connect);
            return;
        }
    }
}

/// Executes one request against the shard set. Returns the reply and
/// whether the connection asked the server to shut down.
fn dispatch(state: &ServerState, request: Request) -> (Response, bool) {
    match request {
        Request::Quote(bundle) => {
            let q = state.shards.quote(&bundle);
            (
                Response::Quoted(QuoteReply {
                    quote_id: q.quote_id,
                    price: q.price,
                    epoch: q.epoch,
                    shard: q.shard as u32,
                    cache_hit: q.cache_hit,
                }),
                false,
            )
        }
        Request::Purchase {
            quote_id,
            budget,
            tick,
        } => match state.shards.settle(quote_id, budget, tick) {
            SettleOutcome::Settled { sold, price } => (Response::Purchased { sold, price }, false),
            SettleOutcome::Expired => (
                Response::Error {
                    code: ErrorCode::QuoteExpired,
                    message: format!(
                        "quote {quote_id} expired under pending-table pressure; re-quote"
                    ),
                },
                false,
            ),
            SettleOutcome::Unknown => (
                Response::Error {
                    code: ErrorCode::UnknownQuote,
                    message: format!("quote {quote_id} was never issued or is already settled"),
                },
                false,
            ),
        },
        Request::Stats => (Response::Stats(state.shards.stats()), false),
        Request::Reprice(patch) => (
            Response::Repriced {
                epochs: state.shards.apply_patch(&patch),
            },
            false,
        ),
        Request::Shutdown => (Response::ShutdownAck, true),
        Request::Metrics => (
            Response::Metrics(state.shards.telemetry_sink().snapshot()),
            false,
        ),
        Request::Trace { trace_id } => (
            Response::Trace(state.shards.telemetry_sink().exemplars_for_trace(trace_id)),
            false,
        ),
        Request::Traced { trace_id, request } => {
            // Install the wire trace id as this thread's ambient trace
            // context. The `server.request` root span is already open in
            // `handle_connection`; at its drop the id is stamped into the
            // exemplar, which is what stitches the server span tree to the
            // client's under one trace id.
            if state.shards.telemetry_sink().is_enabled() {
                qp_telemetry::set_current_trace_id(trace_id);
            }
            dispatch(state, *request)
        }
    }
}

fn error_response(err: &crate::protocol::WireError) -> Response {
    use crate::protocol::WireError;
    let code = match err {
        WireError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
        WireError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
        WireError::Codec(_) => ErrorCode::Malformed,
    };
    Response::Error {
        code,
        message: err.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::QuoteClient;
    use crate::protocol::WIRE_VERSION;
    use qp_core::ItemSet;
    use qp_market::{Broker, SupportConfig};
    use qp_pricing::algorithms::PricingPatch;
    use qp_qdb::{ColumnType, Database, Query, Relation, Schema, Value};
    use std::io::Write;

    fn tiny_broker() -> Arc<Broker> {
        let mut rel = Relation::new(Schema::new(vec![
            ("name", ColumnType::Str),
            ("size", ColumnType::Int),
        ]));
        for i in 0..10 {
            rel.push(vec![format!("row{i}").into(), Value::Int(i)])
                .unwrap();
        }
        let mut db = Database::new();
        db.add_table("T", rel);
        Arc::new(
            Broker::builder(db)
                .support_config(SupportConfig::with_size(40))
                .algorithm("UBP")
                .anticipate(Query::scan("T"), 30.0)
                .build()
                .expect("UBP is registered"),
        )
    }

    fn start_server(shards: usize) -> QuoteServer {
        let set = ShardSet::new(vec![tiny_broker(); shards]);
        QuoteServer::bind("127.0.0.1:0", set).expect("bind loopback")
    }

    #[test]
    fn quote_purchase_stats_roundtrip_over_tcp() {
        let mut server = start_server(2);
        let mut client = QuoteClient::connect(server.local_addr()).expect("connect");

        client
            .reprice(&PricingPatch::SetUniformPrice(5.0))
            .expect("reprice");
        let bundle: ItemSet = [0usize, 3].as_slice().into();
        let q = client.quote(&bundle).expect("quote");
        assert_eq!(q.price, 5.0);
        assert!((q.shard as usize) < 2);

        // Repricing between quote and purchase: the quote is honored.
        let epochs = client
            .reprice(&PricingPatch::SetUniformPrice(50.0))
            .expect("reprice");
        assert_eq!(epochs.len(), 2);
        let (sold, price) = client.purchase(q.quote_id, 5.0, 3).expect("purchase");
        assert!(sold);
        assert_eq!(price, 5.0);

        // One-shot: the second settlement attempt is a typed error.
        let err = client.purchase(q.quote_id, 5.0, 3).expect_err("consumed");
        assert!(err.to_string().contains("already settled"), "{err}");

        let stats = client.stats().expect("stats");
        assert_eq!(stats.len(), 2);
        assert_eq!(stats.iter().map(|s| s.sales).sum::<u64>(), 1);
        let revenue: f64 = stats.iter().map(|s| s.revenue).sum();
        assert!((revenue - 5.0).abs() < 1e-12);
        // The idle shard's STATS carry the empty sum's `-0.0`, bit for bit.
        let idle = stats
            .iter()
            .find(|s| s.sales == 0)
            .expect("one shard is idle");
        assert_eq!(idle.revenue.to_bits(), (-0.0f64).to_bits());

        drop(client);
        server.shutdown();
    }

    /// A raw connection: frames go out through `write_frame` and replies
    /// come back through one `FrameReader`, with no `QuoteClient` in between.
    /// A reply that has not started within the read timeout reads as
    /// `None`, so a lost reply fails the test instead of hanging it.
    struct RawConn {
        stream: TcpStream,
        out: Vec<u8>,
        reader: FrameReader,
        give_up: AtomicBool,
    }

    impl RawConn {
        fn new(stream: TcpStream) -> RawConn {
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("set read timeout");
            RawConn {
                stream,
                out: Vec::new(),
                reader: FrameReader::new(),
                give_up: AtomicBool::new(true),
            }
        }

        fn send(&mut self, payload: &[u8]) -> io::Result<()> {
            write_frame(&mut self.stream, &mut self.out, |out| {
                out.extend_from_slice(payload)
            })
        }

        fn reply(&mut self) -> io::Result<Option<Response>> {
            let payload = self
                .reader
                .read_frame(&mut self.stream, Some(&self.give_up))?;
            Ok(payload.map(|p| Response::decode(p).expect("reply decodes")))
        }
    }

    #[test]
    fn malformed_and_unknown_frames_get_typed_errors_not_hangups() {
        let mut server = start_server(1);
        let mut conn = RawConn::new(TcpStream::connect(server.local_addr()).expect("connect"));

        // Unknown opcode.
        conn.send(&[WIRE_VERSION, 0x42]).unwrap();
        match conn.reply().unwrap().expect("reply") {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownOpcode),
            other => panic!("expected error, got {other:?}"),
        }

        // Truncated QUOTE body — the connection survives to serve a good
        // request afterwards.
        conn.send(&[WIRE_VERSION, 0x01, 0, 0]).unwrap();
        match conn.reply().unwrap().expect("reply") {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected error, got {other:?}"),
        }
        conn.send(&Request::Stats.encode()).unwrap();
        assert!(matches!(
            conn.reply().unwrap().expect("reply"),
            Response::Stats(_)
        ));

        drop(conn);
        server.shutdown();
    }

    #[test]
    fn two_requests_in_one_write_get_two_replies_in_order() {
        let mut server = start_server(1);
        server
            .shards()
            .apply_patch(&PricingPatch::SetUniformPrice(4.0));
        let mut conn = RawConn::new(TcpStream::connect(server.local_addr()).expect("connect"));
        // Both frames leave in one write, so the server's first read
        // returns both, and the second must survive in its buffer.
        let bundle: ItemSet = [1usize, 2].as_slice().into();
        let mut wire = Vec::new();
        for request in [Request::Quote(bundle), Request::Stats] {
            write_frame(&mut wire, &mut conn.out, |out| request.encode_into(out)).unwrap();
        }
        conn.stream.write_all(&wire).unwrap();
        match conn.reply().unwrap().expect("first reply") {
            Response::Quoted(q) => assert_eq!(q.price, 4.0),
            other => panic!("expected a quote, got {other:?}"),
        }
        match conn.reply().unwrap().expect("second reply") {
            Response::Stats(shards) => assert_eq!(shards[0].quotes, 1, "served after the quote"),
            other => panic!("expected stats, got {other:?}"),
        }

        drop(conn);
        server.shutdown();
    }

    #[test]
    fn shutdown_frame_winds_the_server_down() {
        let mut server = start_server(1);
        let addr = server.local_addr();
        let mut client = QuoteClient::connect(addr).expect("connect");
        client.shutdown_server().expect("acked");
        // The accept loop exits; wait() returns rather than blocking
        // forever.
        server.wait();
        // New connections are no longer served (either refused outright or
        // accepted by the OS backlog and never answered — sending must not
        // yield a reply).
        if let Ok(stream) = TcpStream::connect(addr) {
            let mut conn = RawConn::new(stream);
            let _ = conn.send(&Request::Stats.encode());
            conn.stream
                .set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            let got_reply = matches!(conn.reply(), Ok(Some(_)));
            assert!(!got_reply, "a shut-down server must not serve");
        }
    }

    #[test]
    fn concurrent_clients_each_get_their_own_answers() {
        let server = start_server(2);
        let addr = server.local_addr();
        server
            .shards()
            .apply_patch(&PricingPatch::SetUniformPrice(2.0));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut client = QuoteClient::connect(addr).expect("connect");
                    let mut bought = 0usize;
                    for i in 0..25usize {
                        let bundle: ItemSet = [t, i % 7].as_slice().into();
                        let q = client.quote(&bundle).expect("quote");
                        let (sold, price) = client
                            .purchase(q.quote_id, 2.0, i as u64)
                            .expect("purchase");
                        assert_eq!(price.to_bits(), q.price.to_bits());
                        bought += usize::from(sold);
                    }
                    bought
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100, "uniform price 2 with budget 2 always sells");
        let stats = server.shards().stats();
        assert_eq!(stats.iter().map(|s| s.sales).sum::<u64>(), 100);
    }
}
