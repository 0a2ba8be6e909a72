//! Golden bytes of the flight dump file. The dump shares its metrics and
//! span-tree encoders with the wire protocol, so this pins that sharing
//! them leaves the on-disk format exactly as it was, and that the pinned
//! bytes still decode to the same dump.

use qp_telemetry::{
    Exemplar, FlightDump, HistogramSnapshot, MetricsSnapshot, ProtocolEvent, SpanRecord, NO_SHARD,
};

/// Parses a golden hex string, ignoring whitespace.
fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn tree(trace_id: u64, root: &str, spans: &[(&str, u32, u32, u64, u64)]) -> Exemplar {
    Exemplar {
        trace_id,
        root: root.to_string(),
        total_ns: spans[0].4,
        events: spans
            .iter()
            .map(|&(name, depth, shard, start_ns, dur_ns)| SpanRecord {
                name: name.to_string(),
                depth,
                shard,
                start_ns,
                dur_ns,
            })
            .collect(),
    }
}

fn golden_dump() -> FlightDump {
    let mut latency = HistogramSnapshot::default();
    latency.record(3);
    latency.record(1000);
    FlightDump {
        reason: "kill é".to_string(),
        wal_seq: 17,
        snapshot: MetricsSnapshot {
            counters: vec![("q".to_string(), 41)],
            gauges: vec![("d".to_string(), -2)],
            histograms: vec![("l".to_string(), latency)],
            exemplars: vec![tree(
                0xABCD,
                "r",
                &[("r", 0, 1, 0, 900), ("r.p", 1, NO_SHARD, 5, 600)],
            )],
        },
        roots: vec![tree(7, "s", &[("s", 0, 0, 0, 50)])],
        protocol_events: vec![ProtocolEvent {
            opcode: 0x02,
            trace_id: 0xABCD,
            frame_len: 25,
        }],
        truncated: false,
    }
}

/// `FlightDump::encode` of [`golden_dump`], 32 bytes a line.
const GOLDEN: &str = "
    5150464c5430310a14000000afc5deca01070000006b696c6c20c3a911000000
    00000000a9020000dc3185e60201000000000000000100000071290000000000
    000001000000000000000100000064feffffffffffffff010000000000000001
    0000006ceb030000000000000000000000000000000000000000000001000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000001000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    00000000000000000000000000000000000000000100000000000000cdab0000
    0000000001000000728403000000000000020000000000000001000000720000
    0000010000000000000000000000840300000000000003000000722e70010000
    00ffffffff0500000000000000580200000000000043000000d09cf7f8030100
    0000000000000700000000000000010000007332000000000000000100000000
    0000000100000073000000000000000000000000000000003200000000000000
    16000000d2e8483a04010000000000000002cdab00000000000019000000
";

#[test]
fn flight_dump_encodes_to_its_golden_bytes() {
    let dump = golden_dump();
    assert_eq!(dump.encode(), unhex(GOLDEN));
    assert_eq!(FlightDump::decode(&unhex(GOLDEN)).unwrap(), dump);
}
