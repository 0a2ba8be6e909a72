//! A [`Store`] that times every call into the store it wraps.
//!
//! The shard set under test holds this wrapper in place of its
//! `FileStore`, so WAL appends and snapshots are timed at the layer
//! boundary without touching the store's own code.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use qp_store::{snapshot_file_name, Recovery, SharedStore, Snapshot, Store, StoreError, WalRecord};

#[derive(Debug, Default, Clone)]
pub struct StoreTimings {
    /// Duration of each `append`, ns.
    pub append_ns: Vec<f64>,
    /// Duration of each `write_snapshot`, ns.
    pub snapshot_ns: Vec<f64>,
    /// Size of the last snapshot file written, bytes.
    pub snapshot_bytes_last: u64,
}

pub struct TimingStore {
    inner: SharedStore,
    dir: PathBuf,
    timings: Mutex<StoreTimings>,
}

impl TimingStore {
    /// Wraps `inner`, whose snapshots land in `dir`.
    pub fn new(inner: SharedStore, dir: PathBuf) -> TimingStore {
        TimingStore {
            inner,
            dir,
            timings: Mutex::new(StoreTimings::default()),
        }
    }

    pub fn timings(&self) -> StoreTimings {
        self.timings.lock().expect("timing lock poisoned").clone()
    }
}

impl Store for TimingStore {
    fn append(&self, record: &WalRecord) -> Result<u64, StoreError> {
        let t = Instant::now();
        let seq = self.inner.append(record);
        let ns = t.elapsed().as_nanos() as f64;
        self.timings
            .lock()
            .expect("timing lock poisoned")
            .append_ns
            .push(ns);
        seq
    }

    fn sync(&self) -> Result<(), StoreError> {
        self.inner.sync()
    }

    fn write_snapshot(&self, snapshot: &Snapshot) -> Result<(), StoreError> {
        let t = Instant::now();
        let out = self.inner.write_snapshot(snapshot);
        let ns = t.elapsed().as_nanos() as f64;
        let bytes = std::fs::metadata(self.dir.join(snapshot_file_name(snapshot.wal_seq)))
            .map(|m| m.len())
            .unwrap_or(0);
        let mut timings = self.timings.lock().expect("timing lock poisoned");
        timings.snapshot_ns.push(ns);
        timings.snapshot_bytes_last = bytes;
        out
    }

    fn recover(&self) -> Result<Recovery, StoreError> {
        self.inner.recover()
    }

    fn wal_seq(&self) -> u64 {
        self.inner.wal_seq()
    }
}
