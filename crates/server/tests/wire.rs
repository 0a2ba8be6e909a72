//! The versioned wire protocol, end to end.
//!
//! 1. **Every decoder is total.** For a random request or response —
//!    random pricings, patches, metrics snapshots and exemplars included —
//!    the encoding round-trips bit-exactly, while every strict prefix and
//!    every encoding with one byte appended decodes to an error, never a
//!    panic. CI runs it at `PROPTEST_CASES=256`.
//! 2. **The version byte, both ways over a socket.** A frame of the
//!    unversioned protocol gets an `UnsupportedVersion` error reply from a
//!    current server and is never misread (a byte-swapped `PURCHASE` would
//!    settle a garbage budget); a current frame reaches a peer of the
//!    unversioned protocol as an unknown opcode.
//! 3. **A hostile `REPRICE`.** A `SetUniformWeight` naming more items than
//!    one snapshot frame could price gets `Malformed` before it reaches the
//!    WAL or allocates, and the server keeps serving.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use qp_core::ItemSet;
use qp_market::{Broker, SupportConfig};
use qp_pricing::algorithms::PricingPatch;
use qp_pricing::Pricing;
use qp_qdb::{ColumnType, Database, Query, Relation, Schema, Value};
use qp_server::protocol::{write_frame, FrameReader, WIRE_VERSION};
use qp_server::{
    ErrorCode, QuoteClient, QuoteReply, QuoteServer, Request, Response, ShardSet, ShardStats,
};
use qp_store::{MemStore, Store};
use qp_telemetry::{Exemplar, HistogramSnapshot, MetricsSnapshot, SpanRecord};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

// ---------------------------------------------------------------------------
// Random messages
// ---------------------------------------------------------------------------

/// Any 64 bits as a float, NaNs and signed zeros included: the wire must
/// carry the bits, not the value.
fn any_f64(rng: &mut StdRng) -> f64 {
    f64::from_bits(rng.next_u64())
}

fn floats(rng: &mut StdRng, max: usize) -> Vec<f64> {
    let n = rng.gen_range(0..max);
    (0..n).map(|_| any_f64(rng)).collect()
}

/// A short string drawn from ASCII and multi-byte characters.
fn any_str(rng: &mut StdRng) -> String {
    const CHARS: [char; 8] = ['a', 'z', '.', '_', 'é', '€', '𝄞', '0'];
    let n = rng.gen_range(0..6);
    (0..n)
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

fn any_pricing(rng: &mut StdRng) -> Pricing {
    match rng.gen_range(0..3) {
        0 => Pricing::UniformBundle {
            price: any_f64(rng),
        },
        1 => Pricing::Item {
            weights: floats(rng, 8),
        },
        _ => {
            let n = rng.gen_range(0..4);
            Pricing::Xos {
                components: (0..n).map(|_| floats(rng, 5)).collect(),
            }
        }
    }
}

fn any_patch(rng: &mut StdRng) -> PricingPatch {
    match rng.gen_range(0..4) {
        0 => PricingPatch::Keep,
        1 => PricingPatch::Replace(any_pricing(rng)),
        2 => PricingPatch::SetUniformPrice(any_f64(rng)),
        _ => PricingPatch::SetUniformWeight {
            weight: any_f64(rng),
            num_items: rng.gen_range(0..1usize << 20),
        },
    }
}

fn any_exemplars(rng: &mut StdRng) -> Vec<Exemplar> {
    let n = rng.gen_range(0..3);
    (0..n)
        .map(|_| Exemplar {
            trace_id: rng.next_u64(),
            root: any_str(rng),
            total_ns: rng.next_u64(),
            events: (0..rng.gen_range(0..4))
                .map(|_| SpanRecord {
                    name: any_str(rng),
                    depth: rng.next_u32(),
                    shard: rng.next_u32(),
                    start_ns: rng.next_u64(),
                    dur_ns: rng.next_u64(),
                })
                .collect(),
        })
        .collect()
}

fn any_metrics(rng: &mut StdRng) -> MetricsSnapshot {
    let named = |rng: &mut StdRng| (any_str(rng), rng.next_u64());
    MetricsSnapshot {
        counters: (0..rng.gen_range(0..4)).map(|_| named(rng)).collect(),
        gauges: (0..rng.gen_range(0..3))
            .map(|_| (any_str(rng), rng.next_u64() as i64))
            .collect(),
        histograms: (0..rng.gen_range(0..3))
            .map(|_| {
                let mut hist = HistogramSnapshot::default();
                for _ in 0..rng.gen_range(0..5) {
                    hist.record(rng.next_u64() >> rng.gen_range(0..64));
                }
                (any_str(rng), hist)
            })
            .collect(),
        exemplars: any_exemplars(rng),
    }
}

fn any_request(rng: &mut StdRng) -> Request {
    let bare = match rng.gen_range(0..7) {
        0 => Request::Quote(ItemSet::from_blocks(
            (0..rng.gen_range(0..4)).map(|_| rng.next_u64()).collect(),
        )),
        1 => Request::Purchase {
            quote_id: rng.next_u64(),
            budget: any_f64(rng),
            tick: rng.next_u64(),
        },
        2 => Request::Stats,
        3 => Request::Reprice(any_patch(rng)),
        4 => Request::Shutdown,
        5 => Request::Metrics,
        _ => Request::Trace {
            trace_id: rng.next_u64(),
        },
    };
    if rng.gen_bool(0.3) {
        Request::Traced {
            trace_id: rng.next_u64(),
            request: Box::new(bare),
        }
    } else {
        bare
    }
}

fn any_response(rng: &mut StdRng) -> Response {
    match rng.gen_range(0..8) {
        0 => Response::Quoted(QuoteReply {
            quote_id: rng.next_u64(),
            price: any_f64(rng),
            epoch: rng.next_u64(),
            shard: rng.next_u32(),
            cache_hit: rng.gen_bool(0.5),
        }),
        1 => Response::Purchased {
            sold: rng.gen_bool(0.5),
            price: any_f64(rng),
        },
        2 => Response::Stats(
            (0..rng.gen_range(0..4))
                .map(|_| ShardStats {
                    epoch: rng.next_u64(),
                    quotes: rng.next_u64(),
                    cache_hits: rng.next_u64(),
                    invalidations: rng.next_u64(),
                    evictions: rng.next_u64(),
                    sales: rng.next_u64(),
                    declines: rng.next_u64(),
                    revenue: any_f64(rng),
                })
                .collect(),
        ),
        3 => Response::Repriced {
            epochs: (0..rng.gen_range(0..5)).map(|_| rng.next_u64()).collect(),
        },
        4 => Response::ShutdownAck,
        5 => Response::Metrics(any_metrics(rng)),
        6 => Response::Trace(any_exemplars(rng)),
        _ => Response::Error {
            code: [
                ErrorCode::UnknownOpcode,
                ErrorCode::Malformed,
                ErrorCode::UnknownQuote,
                ErrorCode::QuoteExpired,
                ErrorCode::UnsupportedVersion,
            ][rng.gen_range(0..5usize)],
            message: any_str(rng),
        },
    }
}

/// The encoding opens with the version byte and re-encodes to itself after
/// a decode (byte equality is bit equality for every float); every strict
/// prefix, and the encoding with `extra` appended, is an error.
fn check_decoder<T: std::fmt::Debug, E: std::fmt::Debug>(
    bytes: &[u8],
    extra: u8,
    decode: impl Fn(&[u8]) -> Result<T, E>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    assert_eq!(bytes[0], WIRE_VERSION);
    let back = decode(bytes).expect("a fresh encoding decodes");
    assert_eq!(encode(&back), bytes, "{back:?} did not round-trip");
    for cut in 0..bytes.len() {
        let got = decode(&bytes[..cut]);
        assert!(got.is_err(), "prefix of {cut} bytes decoded to {got:?}");
    }
    let mut longer = bytes.to_vec();
    longer.push(extra);
    let got = decode(&longer);
    assert!(got.is_err(), "a trailing byte decoded to {got:?}");
}

proptest! {
    #[test]
    fn every_wire_message_round_trips_and_every_cut_fails(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let request = any_request(&mut rng);
        let extra = rng.next_u32() as u8;
        check_decoder(&request.encode(), extra, Request::decode, Request::encode);
        let response = any_response(&mut rng);
        check_decoder(&response.encode(), extra, Response::decode, Response::encode);
    }
}

// ---------------------------------------------------------------------------
// Over a socket
// ---------------------------------------------------------------------------

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

/// Sends one raw payload as a frame and reads the reply's payload.
fn exchange(stream: &mut TcpStream, reader: &mut FrameReader, payload: &[u8]) -> Vec<u8> {
    write_frame(stream, &mut Vec::new(), |out| {
        out.extend_from_slice(payload)
    })
    .expect("send");
    reader
        .read_frame(stream, None)
        .expect("read reply")
        .expect("the server replied")
        .to_vec()
}

fn error_code(reply: &[u8]) -> ErrorCode {
    match Response::decode(reply).expect("the reply is a current frame") {
        Response::Error { code, .. } => code,
        other => panic!("expected an error reply, got {other:?}"),
    }
}

fn raw_conn(server: &QuoteServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set read timeout");
    stream
}

#[test]
fn unversioned_frames_get_an_error_and_settle_nothing() {
    let mut server =
        QuoteServer::bind("127.0.0.1:0", ShardSet::new(vec![tiny_broker(); 2])).expect("bind");
    let mut client = QuoteClient::connect(server.local_addr()).expect("connect");
    client
        .reprice(&PricingPatch::SetUniformPrice(5.0))
        .expect("reprice");
    let bundle: ItemSet = [0usize, 7].as_slice().into();
    let quote = client.quote(&bundle).expect("quote");

    // The same QUOTE and a PURCHASE of that quote in the unversioned
    // layout: opcode first, big-endian fields, u32 counts.
    let mut v1_quote = vec![0x01, 0, 0, 0, 1];
    v1_quote.extend_from_slice(&0x81u64.to_be_bytes());
    let mut v1_purchase = vec![0x02];
    v1_purchase.extend_from_slice(&quote.quote_id.to_be_bytes());
    v1_purchase.extend_from_slice(&100.0f64.to_bits().to_be_bytes());
    v1_purchase.extend_from_slice(&3u64.to_be_bytes());
    let mut stream = raw_conn(&server);
    let mut reader = FrameReader::new();
    for frame in [&v1_quote, &v1_purchase] {
        let reply = exchange(&mut stream, &mut reader, frame);
        assert_eq!(error_code(&reply), ErrorCode::UnsupportedVersion);
    }

    // Nothing was quoted or settled, and the quote is still pending: it
    // settles now, once, at its quoted price.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.iter().map(|s| s.quotes).sum::<u64>(), 1);
    assert_eq!(stats.iter().map(|s| s.sales + s.declines).sum::<u64>(), 0);
    assert_eq!(
        client.purchase(quote.quote_id, 5.0, 3).expect("purchase"),
        (true, 5.0)
    );
    drop((client, stream));
    server.shutdown();
}

/// The opcodes of the unversioned protocol, requests then replies.
const V1_OPCODES: [u8; 16] = [
    0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x10, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0xFF,
];

#[test]
fn an_unversioned_peer_reads_a_current_frame_as_an_unknown_opcode() {
    assert!(!V1_OPCODES.contains(&WIRE_VERSION));
    // A stand-in for a server of the unversioned protocol: it dispatches on
    // the first payload byte and answers an opcode it does not know with
    // its ERROR frame (0xFF, code 1, u32 big-endian message length).
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let old_server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = FrameReader::new();
        let first = reader
            .read_frame(&mut stream, None)
            .expect("read")
            .expect("a frame")[0];
        assert!(!V1_OPCODES.contains(&first), "0x{first:02x} is a v1 opcode");
        let message = format!("unknown opcode 0x{first:02x}");
        write_frame(&mut stream, &mut Vec::new(), |out| {
            out.extend_from_slice(&[0xFF, 1]);
            out.extend_from_slice(&(message.len() as u32).to_be_bytes());
            out.extend_from_slice(message.as_bytes());
        })
        .expect("reply");
        first
    });

    let mut client = QuoteClient::connect(addr).expect("connect");
    let err = client.stats().expect_err("an old server cannot answer");
    assert_eq!(old_server.join().expect("old server"), WIRE_VERSION);
    // Its reply is no current frame either: a typed error, not a misread.
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("0xff"), "{err}");
}

#[test]
fn oversized_uniform_weight_reprice_is_refused_before_the_wal() {
    let store = Arc::new(MemStore::new());
    let set = ShardSet::new(vec![tiny_broker(); 2]).with_store(store.clone(), 1_000);
    let mut server = QuoteServer::bind("127.0.0.1:0", set).expect("bind");
    let mut client = QuoteClient::connect(server.local_addr()).expect("connect");
    let epochs = client
        .reprice(&PricingPatch::SetUniformPrice(4.0))
        .expect("reprice");
    let wal_seq = store.wal_seq();

    // One past the most weights one snapshot frame can hold (8,126,457),
    // and the largest count a u64 can name: each would have the server
    // allocate num_items × 8 bytes under the durability lock.
    let mut stream = raw_conn(&server);
    let mut reader = FrameReader::new();
    for num_items in [8_126_458, usize::MAX] {
        let hostile = Request::Reprice(PricingPatch::SetUniformWeight {
            weight: 1.0,
            num_items,
        });
        let reply = exchange(&mut stream, &mut reader, &hostile.encode());
        assert_eq!(error_code(&reply), ErrorCode::Malformed, "{num_items}");
    }

    assert_eq!(
        store.wal_seq(),
        wal_seq,
        "the refused patches reached the WAL"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stats.iter().map(|s| s.epoch).collect::<Vec<_>>(), epochs);
    let quote = client
        .quote(&[1usize, 2].as_slice().into())
        .expect("the server keeps serving");
    assert_eq!((quote.price, quote.epoch), (4.0, epochs[0]));
    drop((client, stream));
    server.shutdown();
}
