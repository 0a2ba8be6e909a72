//! # qp-store — log-structured durability for broker state
//!
//! Everything revenue-relevant a broker shard set holds in memory — the
//! installed [`Pricing`], the pricing epoch, and every shard's
//! [`LedgerSnapshot`] — is reconstructible from two artifacts this crate
//! owns:
//!
//! * an **append-only WAL** of [`WalRecord`]s (every sale, every decline —
//!   including pressure evictions — and every `PricingPatch` repricing),
//!   each framed as `[u32 len][u32 crc32][payload]`;
//! * periodic **snapshots** ([`Snapshot`]) of the full state, stamped with
//!   the pricing epoch and the WAL sequence number they reflect, so replay
//!   starts from the snapshot instead of the beginning of time.
//!
//! Both sit behind the [`Store`] trait so backends stay swappable — the
//! same shape Oxigraph uses for its persistent stores. Two backends ship:
//! [`MemStore`] (tests, ephemeral servers) and [`FileStore`] (a data
//! directory with a `wal.log` plus `snap-*.snap` files and a configurable
//! [`FsyncPolicy`]).
//!
//! ## Recovery contract
//!
//! [`Store::recover`] returns the newest snapshot that passes its CRC
//! (falling back to older ones, skipping corrupt files) plus every valid
//! WAL record after that snapshot's sequence number; the file backend
//! truncates the WAL at the first torn or corrupt frame on open, so a
//! partially-written tail is dropped, never replayed. [`Recovery::replay`]
//! then folds the records into a [`ReplayedState`] through
//! [`LedgerSnapshot::apply`], the same fold the live shard set runs on
//! every record it appends — so the replay is the live books,
//! **bit-identically**:
//! floats travel as raw bit patterns end to end, and each shard's revenue
//! is a running sum in WAL order, so order-sensitive float summation
//! reproduces exactly.
//!
//! ## Durability model
//!
//! Appends issue one `write` syscall per record — an acknowledged settle
//! survives a process crash (the bytes are in the page cache) under every
//! fsync policy. What [`FsyncPolicy`] controls is *power-loss* durability:
//! `Always` fsyncs per append, the default `GroupCommit` amortizes one
//! fsync over N records and runs it on a background flusher thread so the
//! settle path never blocks on stable storage, `Never` leaves flushing to
//! the OS. See `STORAGE.md` for the byte-level format specification.

mod file;
mod mem;
mod record;

use std::fmt;
use std::sync::Arc;

use qp_core::codec::CodecError;
use qp_pricing::algorithms::PricingPatch;
use qp_pricing::Pricing;

pub use file::{snapshot_file_name, FileStore, FsyncPolicy, WAL_FILE_NAME, WAL_MAGIC};
pub use mem::MemStore;
pub use record::{
    put_patch, put_pricing, take_patch, take_pricing, LedgerSnapshot, SaleTally, Snapshot,
    WalRecord,
};

/// Failures a store operation can produce.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying file system failed.
    Io(std::io::Error),
    /// A record failed to encode or decode.
    Codec(CodecError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Codec(e) => write!(f, "store codec error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

/// A durability backend: an append-only record log plus a snapshot shelf.
///
/// Implementations must be thread-safe; the shard set calls [`append`]
/// concurrently from settle paths (serialized by its own durability lock)
/// and [`write_snapshot`] from the repricing broadcast.
///
/// [`append`]: Store::append
/// [`write_snapshot`]: Store::write_snapshot
pub trait Store: Send + Sync {
    /// Appends one record, returning its 1-based sequence number. The
    /// record is crash-consistent (but not necessarily power-loss durable;
    /// see the crate docs) when this returns.
    fn append(&self, record: &WalRecord) -> Result<u64, StoreError>;

    /// Forces everything appended so far to stable storage.
    fn sync(&self) -> Result<(), StoreError>;

    /// Persists a snapshot; its `wal_seq` keys it into the log.
    fn write_snapshot(&self, snapshot: &Snapshot) -> Result<(), StoreError>;

    /// Loads the newest valid snapshot and the valid WAL suffix after it.
    fn recover(&self) -> Result<Recovery, StoreError>;

    /// Sequence number of the last appended record (0 when empty).
    fn wal_seq(&self) -> u64;
}

/// Most shards a replayed log may name. Shard indices are read from the
/// log, so replay bounds them before growing the ledger vector to one.
pub(crate) const MAX_REPLAY_SHARDS: usize = 1 << 16;

/// What [`Store::recover`] found.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// Newest snapshot whose CRC and decode both passed, if any.
    pub snapshot: Option<Snapshot>,
    /// Valid WAL records with sequence numbers after `snapshot.wal_seq`
    /// (all valid records when there is no snapshot), in log order.
    pub wal: Vec<WalRecord>,
    /// Bytes dropped from the WAL tail at the first corrupt frame.
    pub truncated_bytes: u64,
    /// Snapshot files skipped because they failed CRC or decode.
    pub snapshots_skipped: usize,
}

impl Recovery {
    /// True when nothing durable was found — a fresh data directory.
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.wal.is_empty()
    }

    /// Folds the snapshot and WAL suffix into concrete state.
    ///
    /// `seed_pricing`/`seed_epoch` describe the state a freshly built (not
    /// yet crashed) server starts from — they are used only when no
    /// snapshot exists and no `Replace` record has been replayed yet, and
    /// must be rebuilt deterministically by the caller (the serve binary
    /// re-derives them from its seed). `num_shards` pads the ledger vector
    /// so shards that never settled still get an empty ledger; a log that
    /// names more shards grows it further, so a changed shard count shows
    /// up as a longer `shards` vector rather than a panic here.
    ///
    /// # Panics
    ///
    /// Panics on a record naming a shard index of 65 536 or more: no
    /// shard set writes one, so the log is corrupt.
    pub fn replay(
        &self,
        seed_pricing: Pricing,
        seed_epoch: u64,
        num_shards: usize,
    ) -> ReplayedState {
        let (mut pricing, mut epoch, mut next_quote_id, mut evicted_watermark, mut shards) =
            match &self.snapshot {
                Some(snap) => (
                    snap.pricing.clone(),
                    snap.epoch,
                    snap.next_quote_id,
                    snap.evicted_watermark,
                    snap.shards.clone(),
                ),
                None => (seed_pricing, seed_epoch, 0, 0, Vec::new()),
            };
        if shards.len() < num_shards {
            shards.resize(num_shards, LedgerSnapshot::default());
        }
        for record in &self.wal {
            match record {
                WalRecord::Sale {
                    quote_id, shard, ..
                }
                | WalRecord::Decline {
                    quote_id, shard, ..
                } => {
                    let shard = *shard as usize;
                    assert!(
                        shard < MAX_REPLAY_SHARDS,
                        "WAL record names shard {shard}, past the replay shard limit"
                    );
                    if shards.len() <= shard {
                        shards.resize(shard + 1, LedgerSnapshot::default());
                    }
                    shards[shard].apply(record);
                    next_quote_id = next_quote_id.max(quote_id + 1);
                    if let WalRecord::Decline { evicted: true, .. } = record {
                        evicted_watermark = evicted_watermark.max(*quote_id);
                    }
                }
                WalRecord::Reprice { patch } => {
                    // Mirrors the broker contract exactly: `Keep` is a
                    // no-op that never takes the write lock, so it must
                    // not bump the replayed epoch either.
                    if !matches!(patch, PricingPatch::Keep) {
                        patch.apply(&mut pricing);
                        epoch += 1;
                    }
                }
            }
        }
        ReplayedState {
            pricing,
            epoch,
            next_quote_id,
            evicted_watermark,
            shards,
        }
    }
}

/// Concrete state reconstructed by [`Recovery::replay`] — the replay
/// oracle, and the seed a recovering shard set installs.
#[derive(Debug, Clone)]
pub struct ReplayedState {
    /// The pricing function after the last replayed repricing.
    pub pricing: Pricing,
    /// The pricing epoch after the last replayed repricing.
    pub epoch: u64,
    /// First quote id safe to issue (past every id the log ever settled).
    pub next_quote_id: u64,
    /// Highest quote id recorded as pressure-evicted (0 when none).
    pub evicted_watermark: u64,
    /// Per-shard ledger state, in shard order.
    pub shards: Vec<LedgerSnapshot>,
}

impl LedgerSnapshot {
    /// Folds one WAL record into this ledger: a `Sale` adds its price to the
    /// sales tally, a `Decline` (buyer decline or pressure eviction) bumps
    /// the decline tallies, and a `Reprice` leaves the ledger alone. This
    /// is the one ledger fold: the live shard set applies each record right
    /// after appending it, and [`Recovery::replay`] applies the same
    /// records from the log, so live and recovered books agree by
    /// construction.
    pub fn apply(&mut self, record: &WalRecord) {
        match record {
            WalRecord::Sale { price, .. } => self.sales.push(*price),
            WalRecord::Decline { price, .. } => {
                self.declined_count += 1;
                self.declined_total += *price;
            }
            WalRecord::Reprice { .. } => {}
        }
    }

    /// Realized revenue: sale prices summed in booking order. Float
    /// addition is order-sensitive, so the live books and a replay agree
    /// bit for bit only because both fold records in log order.
    pub fn total(&self) -> f64 {
        self.sales.revenue
    }
}

impl ReplayedState {
    /// Total realized revenue across shards, shard-major — the same
    /// summation order (and `Sum` impl) the server's STATS aggregation uses.
    pub fn revenue(&self) -> f64 {
        self.shards.iter().map(|s| s.total()).sum()
    }

    /// Total sales across shards.
    pub fn sales(&self) -> u64 {
        self.shards.iter().map(|s| s.sales.len()).sum()
    }

    /// Total declines across shards (buyer declines + evictions).
    pub fn declines(&self) -> u64 {
        self.shards.iter().map(|s| s.declined_count).sum()
    }
}

/// A shared, dynamically-typed store handle, as attached to a shard set
/// and its flight recorder.
pub type SharedStore = Arc<dyn Store>;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tally(prices: &[f64]) -> SaleTally {
        let mut tally = SaleTally::default();
        for &price in prices {
            tally.push(price);
        }
        tally
    }

    fn sale(quote_id: u64, shard: u32, price: f64, tick: u64) -> WalRecord {
        WalRecord::Sale {
            quote_id,
            shard,
            bundle_len: 1,
            price,
            tick,
        }
    }

    #[test]
    fn replay_folds_wal_onto_snapshot() {
        let recovery = Recovery {
            snapshot: Some(Snapshot {
                epoch: 5,
                wal_seq: 10,
                next_quote_id: 100,
                evicted_watermark: 90,
                pricing: Pricing::UniformBundle { price: 2.0 },
                shards: vec![LedgerSnapshot {
                    sales: tally(&[2.0]),
                    declined_count: 1,
                    declined_total: 2.0,
                }],
            }),
            wal: vec![
                sale(120, 1, 3.5, 7),
                WalRecord::Decline {
                    quote_id: 121,
                    shard: 0,
                    price: 3.5,
                    tick: 7,
                    evicted: true,
                },
                WalRecord::Reprice {
                    patch: PricingPatch::SetUniformPrice(4.0),
                },
                WalRecord::Reprice {
                    patch: PricingPatch::Keep,
                },
            ],
            ..Recovery::default()
        };
        let state = recovery.replay(Pricing::UniformBundle { price: 0.0 }, 0, 2);
        assert_eq!(state.epoch, 6, "Keep must not bump the epoch");
        assert_eq!(state.next_quote_id, 122);
        assert_eq!(state.evicted_watermark, 121);
        assert_eq!(state.shards.len(), 2);
        assert_eq!(state.sales(), 2);
        assert_eq!(state.declines(), 2);
        assert_eq!(state.revenue().to_bits(), (2.0f64 + 3.5).to_bits());
        assert_eq!(state.pricing, Pricing::UniformBundle { price: 4.0 });
    }

    #[test]
    fn replay_starts_the_watermark_from_the_snapshot() {
        let snapshot = Snapshot {
            epoch: 1,
            wal_seq: 4,
            next_quote_id: 9,
            evicted_watermark: 6,
            pricing: Pricing::UniformBundle { price: 1.0 },
            shards: vec![LedgerSnapshot::default()],
        };
        let recovery = Recovery {
            snapshot: Some(snapshot),
            wal: vec![sale(8, 0, 1.0, 3)],
            ..Recovery::default()
        };
        let state = recovery.replay(Pricing::UniformBundle { price: 0.0 }, 0, 1);
        assert_eq!(
            state.evicted_watermark, 6,
            "no eviction follows the snapshot"
        );
        assert_eq!(state.next_quote_id, 9);
    }

    #[test]
    #[should_panic(expected = "past the replay shard limit")]
    fn replay_bounds_the_shard_index_before_allocating() {
        let recovery = Recovery {
            wal: vec![sale(0, u32::MAX, 1.0, 0)],
            ..Recovery::default()
        };
        recovery.replay(Pricing::UniformBundle { price: 1.0 }, 0, 1);
    }

    #[test]
    fn replay_without_snapshot_starts_from_the_seed() {
        let recovery = Recovery {
            wal: vec![sale(0, 0, 1.25, 1), sale(1, 0, 1.25, 1)],
            ..Recovery::default()
        };
        let state = recovery.replay(Pricing::UniformBundle { price: 1.25 }, 1, 1);
        assert_eq!(state.epoch, 1);
        assert_eq!(state.next_quote_id, 2);
        assert_eq!(state.revenue().to_bits(), 2.5f64.to_bits());
        assert!(recovery.snapshot.is_none() && !recovery.is_empty());
    }

    /// A sale price from one of the float classes a running sum can trip
    /// on: signed zeros, subnormals, magnitudes near `f64::MAX` (whose sums
    /// overflow to infinity), and ordinary prices.
    fn price() -> impl Strategy<Value = f64> {
        (0u8..5, 0u64..=u64::MAX).prop_map(|(class, bits)| match class {
            0 => {
                if bits & 1 == 0 {
                    0.0
                } else {
                    -0.0
                }
            }
            1 => f64::from_bits(bits & ((1 << 52) - 1)),
            2 => f64::from_bits((0x7FEu64 << 52) | (bits & ((1 << 52) - 1))),
            3 => (bits % 1_000_000) as f64 / 64.0,
            _ => f64::from_bits((bits & !(0x7FFu64 << 52)) | ((bits % 0x7FF) << 52)),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn tally_fold_is_the_in_order_sum(
            prices in proptest::collection::vec(price(), 0..64),
        ) {
            let mut ledger = LedgerSnapshot::default();
            for (i, &price) in prices.iter().enumerate() {
                ledger.apply(&sale(i as u64, 0, price, 0));
            }
            let sum: f64 = prices.iter().sum();
            prop_assert_eq!(ledger.total().to_bits(), sum.to_bits());
            prop_assert_eq!(ledger.sales.len(), prices.len() as u64);
            prop_assert_eq!(ledger.sales.is_empty(), prices.is_empty());
        }
    }

    #[test]
    fn an_empty_tally_is_the_empty_sum() {
        let empty: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(LedgerSnapshot::default().total().to_bits(), empty.to_bits());
        assert_eq!(empty.to_bits(), (-0.0f64).to_bits());
    }
}
