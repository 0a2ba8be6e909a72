//! The file-backed [`Store`] backend: a data directory holding one
//! append-only `wal.log` plus `snap-<seq>.snap` snapshot files.
//!
//! ## On-disk layout
//!
//! * `wal.log` — 8-byte magic, then back-to-back frames of
//!   `[u32 len][u32 crc32(payload)][payload]`, little-endian. Appends are
//!   one `write` syscall each; fsync cadence is the [`FsyncPolicy`].
//! * `snap-<wal_seq padded to 20 digits>.snap` — 8-byte magic plus one
//!   frame holding an encoded [`Snapshot`]. Written to a temp file, fsynced
//!   and renamed into place, so a snapshot is either entirely present or
//!   absent. The three newest are kept; older ones are pruned.
//!
//! ## Corruption handling
//!
//! Opening scans the WAL and truncates the file at the first frame whose
//! length field overruns the file, whose CRC mismatches, or whose payload
//! fails to decode — a torn tail from a crash is dropped, never replayed.
//! Recovery picks the newest snapshot that passes both CRC and decode,
//! falling back file by file (a snapshot that fails is skipped, not
//! trusted partially).

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use parking_lot::atomic::{AtomicBool, Ordering};
use parking_lot::Mutex;
use qp_core::codec::{crc32, put_u32, CodecError};
use qp_telemetry::{Counter, Gauge, TelemetrySink};

use crate::{Recovery, Snapshot, Store, StoreError, WalRecord};

/// WAL file name inside a data directory.
pub const WAL_FILE_NAME: &str = "wal.log";
/// Magic bytes opening a WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"QPWAL01\n";
/// Magic bytes opening a snapshot file. A file of another format version
/// fails this check and is skipped like any corrupt snapshot; recovery then
/// replays the WAL from an older snapshot or from the start.
const SNAP_MAGIC: &[u8; 8] = b"QPSNAP2\n";
/// Ceiling on a single frame payload: anything larger is corruption.
pub(crate) const MAX_FRAME: usize = 1 << 26;
/// How many snapshot files to retain.
const SNAPSHOTS_KEPT: usize = 3;

/// Snapshot file name for a given WAL sequence number (zero-padded so
/// lexicographic order is numeric order).
pub fn snapshot_file_name(wal_seq: u64) -> String {
    format!("snap-{wal_seq:020}.snap")
}

/// When appended records are forced to stable storage.
///
/// Every policy is crash-consistent for a process kill (appends are
/// `write` syscalls, so the page cache holds acknowledged records); the
/// policy buys increasing resistance to power loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every append, inline on the appending thread.
    /// Power-loss durable, slowest.
    Always,
    /// Fsync once every `every` appends (and on every explicit `sync` or
    /// snapshot). The default, with `every = 32`. The group fsync runs on
    /// a background flusher thread over its own descriptor, so the settle
    /// path pays one `write` syscall per append and never blocks on
    /// stable storage; under a hot append rate the flusher coalesces
    /// group boundaries to at most one fsync per `FLUSH_COALESCE` (5 ms),
    /// bounding its duty cycle. Explicit
    /// [`Store::sync`](crate::Store::sync) stays synchronous and covers
    /// any group the flusher has not reached yet.
    GroupCommit {
        /// Appends per fsync.
        every: u32,
    },
    /// Never fsync from the store; the OS flushes when it pleases.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::GroupCommit { every: 32 }
    }
}

impl FsyncPolicy {
    /// Parses the CLI spelling: `always`, `never`, or `group:<N>`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            _ => {
                let n: u32 = s.strip_prefix("group:")?.parse().ok()?;
                if n == 0 {
                    return None;
                }
                Some(FsyncPolicy::GroupCommit { every: n })
            }
        }
    }
}

struct FileInner {
    wal: File,
    /// Records in the WAL (valid ones; the corrupt tail was truncated).
    seq: u64,
    /// Appends since the last fsync (or, under group commit, since the
    /// last group handed to the flusher).
    unsynced: u32,
}

/// Floor between background group-commit fsyncs: group boundaries that
/// pass within this of the previous fsync coalesce into the next one, so
/// the flusher's fsync duty cycle stays bounded (an fsync costs ~100 µs on
/// commodity storage) no matter how hot the append rate runs. Explicit
/// [`Store::sync`](crate::Store::sync) ignores the floor.
const FLUSH_COALESCE: Duration = Duration::from_millis(5);

/// Flags shared between appenders and the background group-commit flusher.
struct FlushState {
    /// Set by `append` when a group boundary passes; cleared by whoever
    /// performs the fsync — the flusher, or an explicit `sync`.
    dirty: AtomicBool,
    /// Set once by `Drop` to retire the flusher thread.
    stop: AtomicBool,
}

/// Background group-commit loop: parked until an appender crosses a group
/// boundary, then `sync_data` on its own clone of the WAL descriptor (same
/// file description, so it flushes the appenders' writes) off the settle
/// path. See [`FsyncPolicy::GroupCommit`].
fn flusher_loop(
    wal: File,
    shared: Arc<FlushState>,
    span: qp_telemetry::SpanHandle,
    fsyncs: Counter,
) {
    loop {
        // ordering: AcqRel pairs with the appender's Release store; only
        // the flag needs sequencing — the frame bytes reached the kernel
        // via `write` before the store, so `sync_data` flushes them
        // without any user-space fence.
        if shared.dirty.swap(false, Ordering::AcqRel) {
            let _span = span.enter();
            match wal.sync_data() {
                Ok(()) => {
                    fsyncs.inc();
                    // Coalescing floor: boundaries crossed during this
                    // sleep fold into one fsync on the next loop pass
                    // (`sleep`, unlike `park_timeout`, ignores unparks, so
                    // the floor holds under a hot append rate).
                    thread::sleep(FLUSH_COALESCE);
                }
                Err(_) => {
                    // ordering: Release — re-mark the group dirty so an
                    // explicit `sync` retries and surfaces the error
                    // synchronously; this thread has nowhere to report it.
                    shared.dirty.store(true, Ordering::Release);
                    // ordering: Acquire pairs with Drop's Release store.
                    if shared.stop.load(Ordering::Acquire) {
                        return;
                    }
                    // Back off instead of hot-spinning on a wedged disk.
                    thread::park_timeout(Duration::from_millis(50));
                }
            }
        // ordering: Acquire pairs with Drop's Release store; checked only
        // with no group pending so the final group is always flushed.
        } else if shared.stop.load(Ordering::Acquire) {
            return;
        } else {
            // Woken by `unpark` from the next group boundary (a missed
            // unpark just before this park leaves a token, so park
            // returns immediately — no lost wakeups).
            thread::park();
        }
    }
}

/// Pre-resolved telemetry handles — one `TelemetrySink` lookup at
/// construction, zero-cost when the sink is disabled.
struct StoreTelemetry {
    append_span: qp_telemetry::SpanHandle,
    fsync_span: qp_telemetry::SpanHandle,
    records: Counter,
    bytes: Counter,
    fsyncs: Counter,
    snapshots: Counter,
    /// `wal.flush_queue_depth` — records appended but not yet covered by
    /// an fsync (under group commit: accumulated toward the next group).
    flush_queue: Gauge,
    /// `recovery.*` — what the last `recover()` / open scan found.
    recovery_records: Counter,
    recovery_truncated: Counter,
    recovery_snapshots_skipped: Counter,
}

impl StoreTelemetry {
    fn new(sink: &TelemetrySink) -> Self {
        StoreTelemetry {
            append_span: sink.span_handle("wal.append"),
            fsync_span: sink.span_handle("wal.fsync"),
            records: sink.counter("wal.records"),
            bytes: sink.counter("wal.bytes"),
            fsyncs: sink.counter("wal.fsyncs"),
            snapshots: sink.counter("store.snapshots"),
            flush_queue: sink.gauge("wal.flush_queue_depth"),
            recovery_records: sink.counter("recovery.records_replayed"),
            recovery_truncated: sink.counter("recovery.truncated_frames"),
            recovery_snapshots_skipped: sink.counter("recovery.snapshots_skipped"),
        }
    }
}

/// The file-backed store. See the module docs for the layout.
pub struct FileStore {
    dir: PathBuf,
    policy: FsyncPolicy,
    inner: Mutex<FileInner>,
    telemetry: StoreTelemetry,
    flush: Arc<FlushState>,
    /// The group-commit flusher; `None` under `Always`/`Never`.
    flusher: Option<thread::JoinHandle<()>>,
}

impl FileStore {
    /// Opens (creating if needed) a data directory with the default
    /// group-commit fsync policy and telemetry disabled.
    pub fn open(dir: impl AsRef<Path>) -> Result<FileStore, StoreError> {
        FileStore::open_with(dir, FsyncPolicy::default(), &TelemetrySink::default())
    }

    /// Opens a data directory with explicit policy and telemetry sink.
    ///
    /// Scans the existing WAL (if any) and truncates it at the first
    /// corrupt frame, so the file is append-clean before the first write.
    pub fn open_with(
        dir: impl AsRef<Path>,
        policy: FsyncPolicy,
        sink: &TelemetrySink,
    ) -> Result<FileStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let wal_path = dir.join(WAL_FILE_NAME);
        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            // An existing WAL is scanned and kept (truncated only at the
            // first corrupt frame below), never blown away on open.
            .truncate(false)
            .open(&wal_path)?;
        let mut bytes = Vec::new();
        wal.read_to_end(&mut bytes)?;
        let (records, valid_end, _) = scan_wal(&bytes);
        let seq = records.len() as u64;
        if bytes.len() < WAL_MAGIC.len() || bytes[..WAL_MAGIC.len()] != WAL_MAGIC[..] {
            // Fresh file, or a tear inside the magic itself: start over.
            wal.set_len(0)?;
            wal.seek(SeekFrom::Start(0))?;
            wal.write_all(WAL_MAGIC)?;
        } else if (valid_end as u64) < bytes.len() as u64 {
            wal.set_len(valid_end as u64)?;
        }
        wal.seek(SeekFrom::End(0))?;
        let telemetry = StoreTelemetry::new(sink);
        let flush = Arc::new(FlushState {
            dirty: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        });
        let flusher = if matches!(policy, FsyncPolicy::GroupCommit { .. }) {
            let clone = wal.try_clone()?;
            let shared = Arc::clone(&flush);
            let span = telemetry.fsync_span.clone();
            let fsyncs = telemetry.fsyncs.clone();
            Some(
                thread::Builder::new()
                    .name("qp-store-flush".to_string())
                    .spawn(move || flusher_loop(clone, shared, span, fsyncs))?,
            )
        } else {
            None
        };
        Ok(FileStore {
            dir,
            policy,
            inner: Mutex::new(FileInner {
                wal,
                seq,
                unsynced: 0,
            }),
            telemetry,
            flush,
            flusher,
        })
    }

    /// The data directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn fsync_locked(&self, inner: &mut FileInner) -> Result<(), StoreError> {
        let _span = self.telemetry.fsync_span.enter();
        inner.wal.sync_data()?;
        inner.unsynced = 0;
        self.telemetry.fsyncs.inc();
        self.telemetry.flush_queue.set(0);
        Ok(())
    }

    /// Snapshot files in the directory, oldest first.
    fn snapshot_paths(&self) -> Result<Vec<PathBuf>, StoreError> {
        let mut paths: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension().is_some_and(|e| e == "snap")
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("snap-"))
            })
            .collect();
        paths.sort();
        Ok(paths)
    }
}

impl Store for FileStore {
    fn append(&self, record: &WalRecord) -> Result<u64, StoreError> {
        let _span = self.telemetry.append_span.enter();
        let payload = record.encode();
        let mut frame = Vec::with_capacity(8 + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        let mut inner = self.inner.lock();
        inner.wal.write_all(&frame)?;
        inner.seq += 1;
        inner.unsynced += 1;
        let seq = inner.seq;
        self.telemetry.flush_queue.set(i64::from(inner.unsynced));
        match self.policy {
            FsyncPolicy::Always => self.fsync_locked(&mut inner)?,
            FsyncPolicy::GroupCommit { every } => {
                if inner.unsynced >= every {
                    inner.unsynced = 0;
                    self.telemetry.flush_queue.set(0);
                    // ordering: Release publishes the group boundary to the
                    // flusher's AcqRel swap; the frame bytes are already in
                    // the kernel via the `write_all` above.
                    self.flush.dirty.store(true, Ordering::Release);
                    if let Some(flusher) = &self.flusher {
                        flusher.thread().unpark();
                    }
                }
            }
            FsyncPolicy::Never => {}
        }
        drop(inner);
        self.telemetry.records.inc();
        self.telemetry.bytes.add(frame.len() as u64);
        Ok(seq)
    }

    fn sync(&self) -> Result<(), StoreError> {
        if matches!(self.policy, FsyncPolicy::Never) {
            return Ok(());
        }
        let mut inner = self.inner.lock();
        // ordering: AcqRel — claim any group the flusher has not fsynced
        // yet so this call's own `sync_data` covers it (and the flusher
        // skips a now-redundant one).
        let background_pending = self.flush.dirty.swap(false, Ordering::AcqRel);
        if inner.unsynced == 0 && !background_pending {
            return Ok(());
        }
        self.fsync_locked(&mut inner)
    }

    fn write_snapshot(&self, snapshot: &Snapshot) -> Result<(), StoreError> {
        let bytes = snapshot_file_bytes(&snapshot.encode())?;
        // The snapshot claims every record ≤ wal_seq is reflected; make
        // those records at least as durable as the snapshot itself first.
        self.sync()?;
        let final_path = self.dir.join(snapshot_file_name(snapshot.wal_seq));
        let tmp_path = self.dir.join("snap.tmp");
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(&bytes)?;
            if !matches!(self.policy, FsyncPolicy::Never) {
                tmp.sync_data()?;
            }
        }
        fs::rename(&tmp_path, &final_path)?;
        self.telemetry.snapshots.inc();
        // Prune everything but the newest few.
        let paths = self.snapshot_paths()?;
        if paths.len() > SNAPSHOTS_KEPT {
            for stale in &paths[..paths.len() - SNAPSHOTS_KEPT] {
                let _ = fs::remove_file(stale);
            }
        }
        Ok(())
    }

    fn recover(&self) -> Result<Recovery, StoreError> {
        // Newest snapshot that passes CRC + decode wins; corrupt ones are
        // skipped entirely (never trusted partially).
        let mut snapshot = None;
        let mut snapshots_skipped = 0;
        for path in self.snapshot_paths()?.iter().rev() {
            match read_snapshot(path) {
                Some(snap) => {
                    snapshot = Some(snap);
                    break;
                }
                None => snapshots_skipped += 1,
            }
        }
        let bytes = fs::read(self.dir.join(WAL_FILE_NAME))?;
        let (mut records, valid_end, _) = scan_wal(&bytes);
        let truncated_bytes = (bytes.len() - valid_end) as u64;
        let skip = snapshot.as_ref().map_or(0, |s: &Snapshot| s.wal_seq) as usize;
        let wal = records.split_off(skip.min(records.len()));
        self.telemetry.recovery_records.add(wal.len() as u64);
        if truncated_bytes > 0 {
            // The scan stops at the first bad frame; everything after the
            // tear is one untrusted region, counted as one truncated frame.
            self.telemetry.recovery_truncated.inc();
        }
        self.telemetry
            .recovery_snapshots_skipped
            .add(snapshots_skipped as u64);
        Ok(Recovery {
            snapshot,
            wal,
            truncated_bytes,
            snapshots_skipped,
        })
    }

    fn wal_seq(&self) -> u64 {
        self.inner.lock().seq
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        if let Some(flusher) = self.flusher.take() {
            // ordering: Release pairs with the flusher's Acquire load of
            // `stop`; the unpark below guarantees it observes the store.
            self.flush.stop.store(true, Ordering::Release);
            flusher.thread().unpark();
            let _ = flusher.join();
        }
        // Parting flush of any partial group — best-effort, since Drop has
        // nowhere to report; callers needing the error use `sync`.
        let _ = self.sync();
    }
}

/// Walks WAL bytes, returning the decoded records, the byte offset of the
/// end of the last valid frame, and the number of frames dropped (0 or the
/// rest of the file — the scan stops at the first bad frame, because
/// nothing after a tear can be trusted to be frame-aligned).
fn scan_wal(bytes: &[u8]) -> (Vec<WalRecord>, usize, bool) {
    if bytes.len() < WAL_MAGIC.len() || bytes[..WAL_MAGIC.len()] != WAL_MAGIC[..] {
        return (Vec::new(), 0, !bytes.is_empty());
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            return (records, pos, false);
        }
        if rest.len() < 8 {
            return (records, pos, true); // torn header
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_FRAME || rest.len() < 8 + len {
            return (records, pos, true); // implausible length or torn payload
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != crc {
            return (records, pos, true); // bit rot
        }
        match WalRecord::decode(payload) {
            Ok(record) => records.push(record),
            Err(_) => return (records, pos, true),
        }
        pos += 8 + len;
    }
}

/// A snapshot file's bytes: the magic, then `payload` in one CRC frame.
/// A payload over [`MAX_FRAME`] is an error, since [`read_snapshot`] would
/// skip the file as corrupt.
fn snapshot_file_bytes(payload: &[u8]) -> Result<Vec<u8>, StoreError> {
    if payload.len() > MAX_FRAME {
        return Err(CodecError::BadLength(payload.len() as u64).into());
    }
    let mut bytes = Vec::with_capacity(16 + payload.len());
    bytes.extend_from_slice(SNAP_MAGIC);
    put_u32(&mut bytes, payload.len() as u32);
    put_u32(&mut bytes, crc32(payload));
    bytes.extend_from_slice(payload);
    Ok(bytes)
}

/// Reads and validates one snapshot file; any failure means "skip it".
fn read_snapshot(path: &Path) -> Option<Snapshot> {
    let bytes = fs::read(path).ok()?;
    if bytes.len() < 16 || bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC[..] {
        return None;
    }
    let rest = &bytes[SNAP_MAGIC.len()..];
    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
    let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
    if len > MAX_FRAME || rest.len() < 8 + len {
        return None;
    }
    let payload = &rest[8..8 + len];
    if crc32(payload) != crc {
        return None;
    }
    Snapshot::decode(payload).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LedgerSnapshot;
    use qp_pricing::Pricing;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qp-store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sale(quote_id: u64) -> WalRecord {
        WalRecord::Sale {
            quote_id,
            shard: 0,
            bundle_len: 1,
            price: 1.5,
            tick: quote_id,
        }
    }

    #[test]
    fn file_store_round_trips_across_reopen() {
        let dir = test_dir("reopen");
        {
            let store = FileStore::open(&dir).unwrap();
            for i in 0..5 {
                store.append(&sale(i)).unwrap();
            }
            store
                .write_snapshot(&Snapshot {
                    epoch: 2,
                    wal_seq: 3,
                    next_quote_id: 3,
                    evicted_watermark: 0,
                    pricing: Pricing::UniformBundle { price: 1.5 },
                    shards: vec![LedgerSnapshot::default()],
                })
                .unwrap();
        }
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.wal_seq(), 5);
        let recovery = store.recover().unwrap();
        assert_eq!(recovery.snapshot.as_ref().unwrap().epoch, 2);
        assert_eq!(recovery.wal.len(), 2, "records 4 and 5 follow the snapshot");
        assert_eq!(recovery.truncated_bytes, 0);
        // Appends continue after the recovered sequence.
        assert_eq!(store.append(&sale(5)).unwrap(), 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_policy_parses_the_cli_spellings() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("group:8"),
            Some(FsyncPolicy::GroupCommit { every: 8 })
        );
        assert_eq!(FsyncPolicy::parse("group:0"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }

    #[test]
    fn snapshots_are_pruned_to_the_newest_three() {
        let dir = test_dir("prune");
        let store = FileStore::open(&dir).unwrap();
        for seq in 0..6u64 {
            store.append(&sale(seq)).unwrap();
            store
                .write_snapshot(&Snapshot {
                    epoch: seq,
                    wal_seq: seq + 1,
                    next_quote_id: seq + 1,
                    evicted_watermark: 0,
                    pricing: Pricing::UniformBundle { price: 0.0 },
                    shards: vec![],
                })
                .unwrap();
        }
        let kept = store.snapshot_paths().unwrap();
        assert_eq!(kept.len(), SNAPSHOTS_KEPT);
        let newest = kept.last().unwrap().file_name().unwrap().to_str().unwrap();
        assert_eq!(newest, snapshot_file_name(6));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_snapshots_are_refused_not_written() {
        // Zeroed pages are mapped lazily and the check runs before any
        // copy, so this 64 MiB payload costs next to no memory.
        let payload = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(
            snapshot_file_bytes(&payload),
            Err(StoreError::Codec(CodecError::BadLength(n))) if n == MAX_FRAME as u64 + 1
        ));
        let bytes = snapshot_file_bytes(&[7, 8]).unwrap();
        assert_eq!(&bytes[..8], SNAP_MAGIC);
        assert_eq!(bytes.len(), 16 + 2);
    }

    #[test]
    fn recovery_keeps_only_the_suffix_past_the_snapshot() {
        let dir = test_dir("suffix");
        let store = FileStore::open(&dir).unwrap();
        for i in 0..4 {
            store.append(&sale(i)).unwrap();
        }
        let snapshot = |wal_seq| Snapshot {
            epoch: 0,
            wal_seq,
            next_quote_id: wal_seq,
            evicted_watermark: 0,
            pricing: Pricing::UniformBundle { price: 1.5 },
            shards: vec![],
        };
        store.write_snapshot(&snapshot(4)).unwrap();
        assert!(store.recover().unwrap().wal.is_empty());
        // A snapshot past the log's end (its tail was torn) leaves no suffix.
        store.write_snapshot(&snapshot(9)).unwrap();
        assert!(store.recover().unwrap().wal.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
