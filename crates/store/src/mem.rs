//! The in-memory [`Store`] backend: tests and ephemeral servers.
//!
//! Records round-trip through the real codec on every append, so the
//! in-memory backend still exercises the exact byte formats the file
//! backend persists — a `MemStore`-backed test cannot pass with a codec
//! the `FileStore` would choke on.

use parking_lot::Mutex;

use crate::{Recovery, Snapshot, Store, StoreError, WalRecord};

#[derive(Default)]
struct MemInner {
    /// Encoded record payloads, in append order.
    records: Vec<Vec<u8>>,
    /// Encoded snapshot payloads, newest last.
    snapshots: Vec<Vec<u8>>,
    syncs: u64,
}

/// A heap-backed store. "Durable" only for the lifetime of the handle —
/// which is exactly what the crash harness needs: the handle survives the
/// simulated server death, the server state does not.
#[derive(Default)]
pub struct MemStore {
    inner: Mutex<MemInner>,
}

impl MemStore {
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Number of `sync` calls observed (test introspection).
    pub fn sync_count(&self) -> u64 {
        self.inner.lock().syncs
    }

    /// Number of snapshots written (test introspection).
    pub fn snapshot_count(&self) -> usize {
        self.inner.lock().snapshots.len()
    }
}

impl Store for MemStore {
    fn append(&self, record: &WalRecord) -> Result<u64, StoreError> {
        let payload = record.encode();
        // Decode-after-encode keeps the in-memory backend honest about the
        // wire format (it is free at test scale).
        WalRecord::decode(&payload)?;
        let mut inner = self.inner.lock();
        inner.records.push(payload);
        Ok(inner.records.len() as u64)
    }

    fn sync(&self) -> Result<(), StoreError> {
        self.inner.lock().syncs += 1;
        Ok(())
    }

    fn write_snapshot(&self, snapshot: &Snapshot) -> Result<(), StoreError> {
        let payload = snapshot.encode();
        Snapshot::decode(&payload)?;
        self.inner.lock().snapshots.push(payload);
        Ok(())
    }

    fn recover(&self) -> Result<Recovery, StoreError> {
        let inner = self.inner.lock();
        let snapshot = match inner.snapshots.last() {
            Some(payload) => Some(Snapshot::decode(payload)?),
            None => None,
        };
        let skip = snapshot.as_ref().map_or(0, |s| s.wal_seq) as usize;
        let wal = inner
            .records
            .iter()
            .skip(skip)
            .map(|payload| WalRecord::decode(payload))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Recovery {
            snapshot,
            wal,
            truncated_bytes: 0,
            snapshots_skipped: 0,
        })
    }

    fn wal_seq(&self) -> u64 {
        self.inner.lock().records.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LedgerSnapshot;
    use qp_pricing::Pricing;

    #[test]
    fn mem_store_recovers_snapshot_plus_suffix() {
        let store = MemStore::new();
        for i in 0..4u64 {
            let seq = store
                .append(&WalRecord::Sale {
                    quote_id: i,
                    shard: 0,
                    bundle_len: 1,
                    price: 1.0,
                    tick: i,
                })
                .unwrap();
            assert_eq!(seq, i + 1);
        }
        store
            .write_snapshot(&Snapshot {
                epoch: 1,
                wal_seq: 3,
                next_quote_id: 3,
                evicted_watermark: 0,
                pricing: Pricing::UniformBundle { price: 1.0 },
                shards: vec![LedgerSnapshot::default()],
            })
            .unwrap();
        let recovery = store.recover().unwrap();
        assert_eq!(recovery.snapshot.as_ref().unwrap().wal_seq, 3);
        assert_eq!(recovery.wal.len(), 1, "only the post-snapshot suffix");
        assert_eq!(recovery.wal[0].quote_id(), Some(3));
        assert_eq!(store.wal_seq(), 4);
        store.sync().unwrap();
        assert_eq!(store.sync_count(), 1);
        assert_eq!(store.snapshot_count(), 1);
    }
}
