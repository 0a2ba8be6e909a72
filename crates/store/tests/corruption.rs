//! WAL/snapshot corruption suite: every way bytes can rot on disk must
//! degrade recovery gracefully — truncate the torn tail, fall back to an
//! older snapshot — and must never replay a corrupt record.

use std::fs::{self, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

use qp_core::codec::{crc32, put_f64, put_u32, put_u64};
use qp_pricing::Pricing;
use qp_store::{
    put_pricing, snapshot_file_name, FileStore, LedgerSnapshot, Snapshot, Store, WalRecord,
    WAL_FILE_NAME,
};

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qp-corrupt-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn sale(quote_id: u64, price: f64) -> WalRecord {
    WalRecord::Sale {
        quote_id,
        shard: 0,
        bundle_len: 2,
        price,
        tick: quote_id,
    }
}

fn snapshot(epoch: u64, wal_seq: u64) -> Snapshot {
    let mut ledger = LedgerSnapshot::default();
    ledger.sales.push(9.0);
    Snapshot {
        epoch,
        wal_seq,
        next_quote_id: wal_seq,
        evicted_watermark: 0,
        pricing: Pricing::UniformBundle { price: 9.0 },
        shards: vec![ledger],
    }
}

/// Appends `n` sales and returns the store.
fn seed_wal(dir: &PathBuf, n: u64) -> FileStore {
    let store = FileStore::open(dir).unwrap();
    for i in 0..n {
        store.append(&sale(i, 1.0 + i as f64)).unwrap();
    }
    store
}

#[test]
fn torn_final_record_is_truncated_not_replayed() {
    let dir = test_dir("torn");
    drop(seed_wal(&dir, 6));
    // Tear the last record: chop bytes off the file tail, landing inside
    // the final frame's payload.
    let wal_path = dir.join(WAL_FILE_NAME);
    let len = fs::metadata(&wal_path).unwrap().len();
    let f = OpenOptions::new().write(true).open(&wal_path).unwrap();
    f.set_len(len - 5).unwrap();
    drop(f);

    let store = FileStore::open(&dir).unwrap();
    assert_eq!(store.wal_seq(), 5, "the torn sixth record is gone");
    let recovery = store.recover().unwrap();
    assert_eq!(recovery.wal.len(), 5);
    assert!(recovery
        .wal
        .iter()
        .all(|r| matches!(r, WalRecord::Sale { quote_id, .. } if *quote_id < 5)));
    // Open truncated the tear away: appends land frame-aligned.
    store.append(&sale(100, 3.0)).unwrap();
    let recovery = FileStore::open(&dir).unwrap().recover().unwrap();
    assert_eq!(recovery.wal.len(), 6);
    assert_eq!(recovery.truncated_bytes, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_record_stops_replay_at_the_flip() {
    let dir = test_dir("bitflip");
    drop(seed_wal(&dir, 8));
    // Flip one bit in the middle of the file (inside record ~4's payload).
    let wal_path = dir.join(WAL_FILE_NAME);
    let mut bytes = fs::read(&wal_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    fs::write(&wal_path, &bytes).unwrap();

    let store = FileStore::open(&dir).unwrap();
    let recovery = store.recover().unwrap();
    assert!(
        recovery.wal.len() < 8,
        "the flipped record and everything after it must be dropped"
    );
    assert_eq!(recovery.truncated_bytes, 0, "open() already truncated");
    // Every surviving record is a prefix of what was written, bit-exact.
    for (i, record) in recovery.wal.iter().enumerate() {
        assert_eq!(record.encode(), sale(i as u64, 1.0 + i as f64).encode());
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flipped_crc_field_rejects_an_intact_payload() {
    let dir = test_dir("crcflip");
    drop(seed_wal(&dir, 1));
    let wal_path = dir.join(WAL_FILE_NAME);
    let mut bytes = fs::read(&wal_path).unwrap();
    // Frame starts right after the 8-byte magic: [len][crc][payload].
    bytes[12] ^= 0x01; // first CRC byte
    fs::write(&wal_path, &bytes).unwrap();
    let recovery = FileStore::open(&dir).unwrap().recover().unwrap();
    assert!(recovery.wal.is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_snapshot_falls_back_to_the_previous_one() {
    let dir = test_dir("snapfall");
    let store = seed_wal(&dir, 4);
    store.write_snapshot(&snapshot(1, 2)).unwrap();
    store.write_snapshot(&snapshot(2, 4)).unwrap();
    drop(store);
    // Truncate the newest snapshot mid-payload.
    let newest = dir.join(snapshot_file_name(4));
    let len = fs::metadata(&newest).unwrap().len();
    let f = OpenOptions::new().write(true).open(&newest).unwrap();
    f.set_len(len / 2).unwrap();
    drop(f);

    let recovery = FileStore::open(&dir).unwrap().recover().unwrap();
    assert_eq!(recovery.snapshots_skipped, 1);
    let snap = recovery.snapshot.expect("older snapshot must be used");
    assert_eq!(snap.epoch, 1);
    assert_eq!(snap.wal_seq, 2);
    assert_eq!(
        recovery.wal.len(),
        2,
        "replay resumes from the older snapshot's sequence number"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_snapshot_corrupt_means_full_wal_replay() {
    let dir = test_dir("snapnone");
    let store = seed_wal(&dir, 3);
    store.write_snapshot(&snapshot(1, 3)).unwrap();
    drop(store);
    // Flip a payload bit in the only snapshot.
    let snap_path = dir.join(snapshot_file_name(3));
    let mut bytes = fs::read(&snap_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x80;
    fs::write(&snap_path, &bytes).unwrap();

    let recovery = FileStore::open(&dir).unwrap().recover().unwrap();
    assert!(recovery.snapshot.is_none());
    assert_eq!(recovery.snapshots_skipped, 1);
    assert_eq!(recovery.wal.len(), 3, "the full WAL still replays");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_magic_resets_the_wal_instead_of_guessing() {
    let dir = test_dir("magic");
    drop(seed_wal(&dir, 2));
    let wal_path = dir.join(WAL_FILE_NAME);
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&wal_path)
        .unwrap();
    f.seek(SeekFrom::Start(0)).unwrap();
    f.write_all(b"garbage!").unwrap();
    let mut rest = Vec::new();
    f.read_to_end(&mut rest).unwrap();
    drop(f);

    let store = FileStore::open(&dir).unwrap();
    assert_eq!(store.wal_seq(), 0, "an unrecognizable log is not replayed");
    store.append(&sale(0, 1.0)).unwrap();
    let recovery = FileStore::open(&dir).unwrap().recover().unwrap();
    assert_eq!(recovery.wal.len(), 1);
    let _ = fs::remove_dir_all(&dir);
}

/// A snapshot file in the version-1 format, which listed every sale
/// (`bundle_len: u32, price: f64, tick: u64`) and carried no eviction
/// watermark, holding one shard that sold at `prices`.
fn v1_snapshot_file(wal_seq: u64, prices: &[f64]) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u64(&mut payload, 0); // epoch
    put_u64(&mut payload, wal_seq);
    put_u64(&mut payload, wal_seq); // next_quote_id
    put_pricing(&mut payload, &Pricing::UniformBundle { price: 9.0 });
    put_u64(&mut payload, 1); // shards
    put_u64(&mut payload, prices.len() as u64);
    for (tick, &price) in prices.iter().enumerate() {
        put_u32(&mut payload, 2); // bundle_len
        put_f64(&mut payload, price);
        put_u64(&mut payload, tick as u64);
    }
    put_u64(&mut payload, 0); // declined_count
    put_f64(&mut payload, 0.0); // declined_total
    let mut bytes = b"QPSNAP1\n".to_vec();
    put_u32(&mut bytes, payload.len() as u32);
    put_u32(&mut bytes, crc32(&payload));
    bytes.extend_from_slice(&payload);
    bytes
}

#[test]
fn version_one_snapshot_is_skipped_and_the_wal_replayed() {
    let dir = test_dir("snapv1");
    drop(seed_wal(&dir, 5));
    let prices: Vec<f64> = (0..5).map(|i| 1.0 + i as f64).collect();
    fs::write(
        dir.join(snapshot_file_name(5)),
        v1_snapshot_file(5, &prices),
    )
    .unwrap();

    let recovery = FileStore::open(&dir).unwrap().recover().unwrap();
    assert!(recovery.snapshot.is_none(), "a v1 file is never decoded");
    assert_eq!(recovery.snapshots_skipped, 1);
    assert_eq!(recovery.wal.len(), 5, "the full WAL replays instead");
    let state = recovery.replay(Pricing::UniformBundle { price: 9.0 }, 0, 1);
    let revenue: f64 = prices.iter().sum();
    let ledger = &state.shards[0];
    assert_eq!(ledger.sales.len(), 5);
    assert_eq!(ledger.total().to_bits(), revenue.to_bits());
    assert_eq!(ledger.declined_count, 0);
    assert_eq!(state.next_quote_id, 5);
    let _ = fs::remove_dir_all(&dir);
}
