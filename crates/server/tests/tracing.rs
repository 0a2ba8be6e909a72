//! Wire-level distributed tracing and crash flight recorder, end to end.
//!
//! Three layers under test over real TCP:
//!
//! 1. **Trace-context propagation** — a client-side `client.settle` root
//!    span and the server's `server.request` root span must end up as
//!    exemplars sharing the trace id the `TRACED` envelope carried, with
//!    the serving shard stamped into the server-side span events; the
//!    `TRACE` frame must return the server half by id.
//! 2. **Protocol compatibility** — a proptest pinning that pre-trace
//!    frames are byte-identical with tracing off, that the envelope is a
//!    pure 9-byte prefix over the inner opcode and body, and that
//!    envelopes never nest.
//! 3. **Crash flight recorder** — killing a durable server via the crash
//!    switch must leave a parseable `flight.dump` whose WAL sequence
//!    matches the store's final (recoverable) sequence and whose protocol
//!    event ring saw the traffic.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use qp_core::ItemSet;
use qp_market::{Broker, SupportConfig};
use qp_qdb::{ColumnType, Database, Query, Relation, Schema, Value};
use qp_server::protocol::{Request, WireError, WIRE_VERSION};
use qp_server::server::FlightRecorder;
use qp_server::{CrashSwitch, QuoteClient, QuoteServer, ShardSet};
use qp_store::{FileStore, SharedStore};
use qp_telemetry::{FlightDump, TelemetrySink, NO_SHARD};

fn tiny_broker(telemetry: TelemetrySink) -> Arc<Broker> {
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
            .telemetry(telemetry)
            .build()
            .expect("UBP is registered"),
    )
}

#[test]
fn traced_settles_stitch_across_the_wire() {
    // Threshold 0: every root span becomes an exemplar on both sides.
    let server_sink = TelemetrySink::enabled();
    server_sink.set_slow_threshold(Duration::ZERO);
    let set = ShardSet::new(vec![tiny_broker(server_sink.clone()); 2])
        .with_telemetry(server_sink.clone());
    let mut server = QuoteServer::bind("127.0.0.1:0", set).expect("bind loopback");
    let mut client = QuoteClient::connect(server.local_addr()).expect("connect");

    let client_sink = TelemetrySink::enabled();
    client_sink.set_slow_threshold(Duration::ZERO);
    let settle_span = client_sink.span_handle("client.settle");

    qp_telemetry::reset_thread_journal();
    let trace_id: u64 = 0x00AB_0000_0001;
    client.set_trace_id(trace_id);
    qp_telemetry::set_current_trace_id(trace_id);
    {
        let _root = settle_span.enter();
        let bundle: ItemSet = [0usize, 3].as_slice().into();
        let q = client.quote(&bundle).expect("quote");
        client.purchase(q.quote_id, 1e9, 1).expect("purchase");
    }

    // Client half: the settle root, stamped with the id.
    let client_exemplars = client_sink.snapshot().exemplars;
    assert!(
        client_exemplars
            .iter()
            .any(|e| e.root == "client.settle" && e.trace_id == trace_id),
        "client exemplars: {client_exemplars:?}"
    );

    // Server half over METRICS: one server.request root per frame (QUOTE
    // and PURCHASE), both under the same id, shard-tagged.
    client.set_trace_id(0);
    let server_exemplars = client.metrics().expect("metrics").exemplars;
    let stitched: Vec<_> = server_exemplars
        .iter()
        .filter(|e| e.root == "server.request" && e.trace_id == trace_id)
        .collect();
    assert!(
        stitched.len() >= 2,
        "server exemplars: {server_exemplars:?}"
    );
    assert!(
        stitched
            .iter()
            .all(|e| e.events.iter().any(|ev| ev.shard != NO_SHARD)),
        "stitched server spans lost the shard tag: {stitched:?}"
    );

    // The TRACE frame finds the same trees by id; an unknown id is empty.
    let looked_up = client.trace(trace_id).expect("TRACE frame");
    assert!(looked_up.iter().any(|e| e.root == "server.request"));
    assert!(looked_up.iter().all(|e| e.trace_id == trace_id));
    assert!(client.trace(0xDEAD_BEEF).expect("TRACE miss").is_empty());

    drop(client);
    server.shutdown();
}

#[test]
fn crash_switch_kill_writes_a_consistent_flight_dump() {
    let dir = std::env::temp_dir().join(format!("qp-flight-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let telemetry = TelemetrySink::enabled();
    let store: SharedStore = Arc::new(FileStore::open(&dir).expect("open data dir"));
    let recorder = FlightRecorder::new(&dir, telemetry.clone(), Some(Arc::clone(&store)));
    let set = ShardSet::new(vec![tiny_broker(telemetry.clone())])
        .with_store(Arc::clone(&store), 1_000_000)
        .with_telemetry(telemetry.clone());
    let crash = CrashSwitch::after(6);
    let mut server = QuoteServer::bind_with_options(
        "127.0.0.1:0",
        set,
        Some(crash.clone()),
        Some(Arc::clone(&recorder)),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // Drive settles (2 dispatches each) until the kill fires; every I/O
    // error is the crash surfacing as a dead connection.
    let bundle: ItemSet = [1usize, 4].as_slice().into();
    for tick in 0..50u64 {
        let Ok(mut client) = QuoteClient::connect(addr) else {
            break;
        };
        client.set_trace_id(0x7000 + tick);
        let settled = client
            .quote(&bundle)
            .and_then(|q| client.purchase(q.quote_id, 1e9, tick));
        if settled.is_err() && crash.crashed() {
            break;
        }
    }
    assert!(crash.crashed(), "the 6-dispatch budget never fired");
    server.quiesce();

    let dump = FlightDump::read_from(&dir)
        .expect("read flight dump")
        .expect("the crash fire site writes flight.dump");
    assert_eq!(dump.reason, "crash-switch kill");
    assert!(!dump.truncated, "clean kill, torn dump");
    // The dump froze the WAL at the instant of death; after quiesce the
    // store can never grow again, so the sequences must agree — this is
    // exactly the dump-vs-recovered-WAL consistency the harness asserts.
    assert_eq!(dump.wal_seq, store.wal_seq(), "dump wal_seq vs final WAL");
    assert!(
        !dump.protocol_events.is_empty(),
        "no protocol events despite 6 dispatches"
    );
    assert!(
        dump.protocol_events.iter().any(|e| e.trace_id >= 0x7000),
        "trace ids missing from the protocol event ring: {:?}",
        dump.protocol_events
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A generator over every untraced request shape the protocol ships.
fn arb_request() -> impl Strategy<Value = Request> {
    (
        0usize..6,
        proptest::collection::vec(0usize..512, 0..12),
        0u64..u64::MAX,
        -1e9f64..1e9,
        0u64..1_000_000,
    )
        .prop_map(|(shape, items, id, budget, tick)| match shape {
            0 => Request::Quote(items.as_slice().into()),
            1 => Request::Purchase {
                quote_id: id,
                budget,
                tick,
            },
            2 => Request::Stats,
            3 => Request::Shutdown,
            4 => Request::Metrics,
            _ => Request::Trace { trace_id: id },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The envelope is a pure 9-byte prefix after the version byte:
    /// wrapping changes no inner opcode or body byte, the version byte
    /// appears once, unwrapping recovers the request, and untraced frames
    /// never see the envelope opcode.
    #[test]
    fn traced_envelope_is_a_transparent_prefix(
        request in arb_request(),
        trace_id in 1u64..u64::MAX,
    ) {
        let bare = request.encode();
        prop_assert_eq!(bare[0], WIRE_VERSION);
        prop_assert_ne!(bare[1], 0x10, "untraced frames must not collide with TRACED");
        prop_assert_eq!(&Request::decode(&bare).unwrap(), &request);

        let wrapped = Request::Traced {
            trace_id,
            request: Box::new(request.clone()),
        };
        let bytes = wrapped.encode();
        prop_assert_eq!(&bytes[..2], &[WIRE_VERSION, 0x10][..]);
        prop_assert_eq!(&bytes[2..10], &trace_id.to_le_bytes()[..]);
        prop_assert_eq!(&bytes[10..], &bare[1..]);
        prop_assert_eq!(&Request::decode(&bytes).unwrap(), &wrapped);

        // One level only: a nested envelope is rejected, not recursed.
        let nested = Request::Traced {
            trace_id,
            request: Box::new(wrapped),
        };
        prop_assert_eq!(
            Request::decode(&nested.encode()),
            Err(WireError::UnknownOpcode(0x10))
        );
    }
}
