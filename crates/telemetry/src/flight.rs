//! Crash flight recorder: a bounded dump of what the process was doing
//! when it died.
//!
//! The per-thread span journals, the registry, and the server's
//! last-N protocol events all evaporate in exactly the scenarios the
//! `--kill-after` crash harness exercises. A [`FlightDump`] freezes them
//! into one file (`flight.dump` in the server's `--data-dir`) written at
//! the kill site or from a panic hook, and read back by `serve` recovery
//! and `qp-top --postmortem`.
//!
//! ## On-disk format
//!
//! Little-endian, CRC-framed like the `qp-store` WAL (see `STORAGE.md`):
//!
//! ```text
//! [ 8B magic "QPFLT01\n" ]
//! [u32 len][u32 crc32][payload]      repeated; crc covers payload
//! ```
//!
//! Each payload starts with a one-byte section tag: `0x01` meta (reason
//! string + the WAL sequence number at dump time), `0x02` the full
//! [`MetricsSnapshot`], `0x03` the merged flight journal (recent root
//! span trees, decoded as [`Exemplar`]s), `0x04` the last-N protocol
//! events. A decoder stops at the first frame whose length, CRC, or body
//! fails — everything before it is still returned, so a torn tail or a
//! bit flip yields a *partial but parseable* dump, never a lost one.
//! Unknown section tags are skipped for forward compatibility.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use qp_core::codec::{crc32, put_str, put_u32, put_u64, ByteReader, CodecError};

use crate::registry::{put_metrics, take_metrics, MetricsSnapshot};
use crate::span::{put_exemplars, take_exemplars, Exemplar, FlightRoot, SpanRecord};

/// File name of the dump inside a data directory.
pub const FLIGHT_FILE_NAME: &str = "flight.dump";

/// Magic prefix of a flight dump file.
pub const FLIGHT_MAGIC: &[u8; 8] = b"QPFLT01\n";

/// Largest section frame a reader will accept (matches the store's
/// sanity bound philosophy: corrupt lengths become errors, not OOMs).
const MAX_SECTION: usize = 1 << 24;

const SECTION_META: u8 = 0x01;
const SECTION_SNAPSHOT: u8 = 0x02;
const SECTION_SPANS: u8 = 0x03;
const SECTION_PROTO: u8 = 0x04;

/// One protocol-level event as retained by the server's event ring:
/// which opcode arrived, the trace id it carried (0 = untraced), and the
/// frame's payload length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolEvent {
    /// Wire opcode of the request frame.
    pub opcode: u8,
    /// Trace id carried by the frame (0 when untraced).
    pub trace_id: u64,
    /// Payload length of the frame in bytes.
    pub frame_len: u32,
}

/// A decoded (or about-to-be-written) flight recorder dump.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightDump {
    /// Why the dump was written (`"crash-switch kill"`, `"panic: …"`).
    pub reason: String,
    /// WAL sequence number of the durable store at dump time (0 when the
    /// server ran without a store).
    pub wal_seq: u64,
    /// Full registry snapshot at dump time.
    pub snapshot: MetricsSnapshot,
    /// Recent completed root span trees from the flight journal, oldest
    /// first, owned (`Exemplar`-shaped) so they survive the process.
    pub roots: Vec<Exemplar>,
    /// Last-N protocol events, oldest first.
    pub protocol_events: Vec<ProtocolEvent>,
    /// Set by [`FlightDump::decode`] when the byte stream ended at a
    /// torn or corrupt frame: the sections before it are intact, the
    /// tail is lost.
    pub truncated: bool,
}

fn frame(out: &mut Vec<u8>, payload: &[u8]) {
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(payload));
    out.extend_from_slice(payload);
}

impl FlightDump {
    /// Assembles a dump from live state: the registry snapshot, the
    /// flight journal, and the server's protocol-event ring.
    pub fn capture(
        reason: &str,
        wal_seq: u64,
        snapshot: MetricsSnapshot,
        roots: Vec<FlightRoot>,
        protocol_events: Vec<ProtocolEvent>,
    ) -> Self {
        FlightDump {
            reason: reason.to_string(),
            wal_seq,
            snapshot,
            roots: roots
                .into_iter()
                .map(|root| Exemplar {
                    trace_id: root.trace_id,
                    root: root.root.to_string(),
                    total_ns: root.total_ns,
                    events: root
                        .events
                        .iter()
                        .map(|e| SpanRecord {
                            name: e.name.to_string(),
                            depth: u32::from(e.depth),
                            shard: e.shard,
                            start_ns: e.start_ns,
                            dur_ns: e.dur_ns,
                        })
                        .collect(),
                })
                .collect(),
            protocol_events,
            truncated: false,
        }
    }

    /// Encodes the dump: magic followed by one CRC frame per section.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(FLIGHT_MAGIC);

        let mut meta = vec![SECTION_META];
        put_str(&mut meta, &self.reason);
        put_u64(&mut meta, self.wal_seq);
        frame(&mut out, &meta);

        let mut snap = vec![SECTION_SNAPSHOT];
        put_metrics(&mut snap, &self.snapshot);
        frame(&mut out, &snap);

        let mut spans = vec![SECTION_SPANS];
        put_exemplars(&mut spans, &self.roots);
        frame(&mut out, &spans);

        let mut proto = vec![SECTION_PROTO];
        put_u64(&mut proto, self.protocol_events.len() as u64);
        for event in &self.protocol_events {
            proto.push(event.opcode);
            put_u64(&mut proto, event.trace_id);
            put_u32(&mut proto, event.frame_len);
        }
        frame(&mut out, &proto);
        out
    }

    /// Decodes a dump. Fails only when the magic is wrong — a corrupt or
    /// torn section stops the scan and sets [`truncated`](Self::truncated),
    /// returning every section that survived intact.
    pub fn decode(bytes: &[u8]) -> Result<FlightDump, CodecError> {
        if bytes.len() < FLIGHT_MAGIC.len() || &bytes[..FLIGHT_MAGIC.len()] != FLIGHT_MAGIC {
            return Err(CodecError::BadTag(*bytes.first().unwrap_or(&0)));
        }
        let mut dump = FlightDump::default();
        let mut pos = FLIGHT_MAGIC.len();
        loop {
            let rest = &bytes[pos..];
            if rest.is_empty() {
                break;
            }
            if rest.len() < 8 {
                dump.truncated = true;
                break;
            }
            let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
            if len > MAX_SECTION || rest.len() < 8 + len {
                dump.truncated = true;
                break;
            }
            let payload = &rest[8..8 + len];
            if crc32(payload) != crc || payload.is_empty() {
                dump.truncated = true;
                break;
            }
            let mut r = ByteReader::new(&payload[1..]);
            let parsed = match payload[0] {
                SECTION_META => (|| {
                    dump.reason = r.str()?.to_string();
                    dump.wal_seq = r.u64()?;
                    r.finish()
                })(),
                SECTION_SNAPSHOT => (|| {
                    dump.snapshot = take_metrics(&mut r)?;
                    r.finish()
                })(),
                SECTION_SPANS => (|| {
                    dump.roots = take_exemplars(&mut r)?;
                    r.finish()
                })(),
                SECTION_PROTO => (|| {
                    let nevents = r.checked_count(1 + 8 + 4)?;
                    for _ in 0..nevents {
                        dump.protocol_events.push(ProtocolEvent {
                            opcode: r.u8()?,
                            trace_id: r.u64()?,
                            frame_len: r.u32()?,
                        });
                    }
                    r.finish()
                })(),
                // Unknown section: skip it (forward compatibility).
                _ => Ok(()),
            };
            if parsed.is_err() {
                dump.truncated = true;
                break;
            }
            pos += 8 + len;
        }
        Ok(dump)
    }

    /// Writes the encoded dump to `dir/flight.dump`, synced, overwriting
    /// any previous dump. Called from crash paths — must not panic.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(FLIGHT_FILE_NAME);
        let mut file = std::fs::File::create(&path)?;
        file.write_all(&self.encode())?;
        file.sync_data()?;
        Ok(path)
    }

    /// Reads `dir/flight.dump`; `Ok(None)` when no dump exists.
    pub fn read_from(dir: &Path) -> io::Result<Option<FlightDump>> {
        let path = dir.join(FLIGHT_FILE_NAME);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        FlightDump::decode(&bytes)
            .map(Some)
            .map_err(|e| io::Error::other(format!("corrupt flight dump {path:?}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::NO_SHARD;
    use crate::TelemetrySink;

    fn sample_dump() -> FlightDump {
        let sink = TelemetrySink::enabled();
        sink.counter("f.requests").add(41);
        sink.gauge("f.depth").set(-2);
        sink.histogram("f.lat").record(1000);
        crate::span::set_current_trace_id(0xABCD);
        drop(sink.span("f.request"));
        let roots = sink.flight_roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].trace_id, 0xABCD);
        FlightDump::capture(
            "unit test",
            17,
            sink.snapshot(),
            roots,
            vec![
                ProtocolEvent {
                    opcode: 0x01,
                    trace_id: 0xABCD,
                    frame_len: 32,
                },
                ProtocolEvent {
                    opcode: 0x02,
                    trace_id: 0,
                    frame_len: 16,
                },
            ],
        )
    }

    #[test]
    fn dump_round_trips_bit_exactly() {
        let dump = sample_dump();
        let decoded = FlightDump::decode(&dump.encode()).expect("valid dump decodes");
        assert_eq!(decoded, dump);
        assert!(!decoded.truncated);
        assert_eq!(decoded.wal_seq, 17);
        assert_eq!(decoded.reason, "unit test");
        assert_eq!(decoded.roots[0].root, "f.request");
        assert_eq!(decoded.roots[0].events[0].shard, NO_SHARD);
        assert_eq!(decoded.snapshot.counter("f.requests"), Some(41));
        assert_eq!(decoded.protocol_events.len(), 2);
    }

    #[test]
    fn torn_tail_yields_a_partial_dump() {
        let bytes = sample_dump().encode();
        // Chop mid-way through the final (protocol events) section.
        let decoded = FlightDump::decode(&bytes[..bytes.len() - 5]).expect("magic intact");
        assert!(decoded.truncated);
        assert_eq!(decoded.reason, "unit test");
        assert_eq!(decoded.wal_seq, 17);
        assert!(!decoded.roots.is_empty());
        assert!(decoded.protocol_events.is_empty(), "torn section dropped");
    }

    #[test]
    fn bit_flip_stops_the_scan_at_the_bad_frame() {
        let dump = sample_dump();
        let clean = dump.encode();
        // Flip one bit inside the snapshot section's payload (section 2 —
        // after magic + meta frame).
        let meta_len = u32::from_le_bytes([clean[8], clean[9], clean[10], clean[11]]) as usize;
        let flip_at = 8 + 8 + meta_len + 8 + 4;
        let mut corrupt = clean.clone();
        corrupt[flip_at] ^= 0x10;
        let decoded = FlightDump::decode(&corrupt).expect("magic intact");
        assert!(decoded.truncated);
        // Meta survived; the snapshot and everything after is gone.
        assert_eq!(decoded.reason, "unit test");
        assert!(decoded.snapshot.counters.is_empty());
        assert!(decoded.roots.is_empty());
    }

    #[test]
    fn wrong_magic_is_an_error() {
        assert!(FlightDump::decode(b"NOTADUMP").is_err());
        assert!(FlightDump::decode(b"").is_err());
    }

    #[test]
    fn write_read_round_trips_through_a_directory() {
        let dir = std::env::temp_dir().join(format!(
            "qp-flight-test-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let dump = sample_dump();
        dump.write_to(&dir).expect("write dump");
        let read = FlightDump::read_from(&dir)
            .expect("read dump")
            .expect("present");
        assert_eq!(read, dump);
        std::fs::remove_dir_all(&dir).ok();
        assert!(FlightDump::read_from(Path::new("/nonexistent-qp"))
            .expect("absent dir reads as none")
            .is_none());
    }
}
