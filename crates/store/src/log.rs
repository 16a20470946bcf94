//! The durable [`Storage`] implementation: an append-only segment log.
//!
//! # On-disk format
//!
//! A store directory holds numbered segment files:
//!
//! ```text
//! data/
//!   segment-0000000000.log
//!   segment-0000000001.log      <- highest id is the active segment
//! ```
//!
//! Each segment starts with the 8-byte magic `NPTSNSG1` followed by
//! records:
//!
//! ```text
//! +----------------+
//! | len    u32 LE  |  payload length
//! | crc32  u32 LE  |  IEEE CRC-32 of the payload
//! +----------------+
//! | op     u8      |  1 = put, 2 = delete (tombstone)
//! | keylen u32 LE  |
//! | key    bytes   |
//! | value  bytes   |  empty for tombstones
//! +----------------+
//! ```
//!
//! # Recovery rules
//!
//! [`LogStore::open`] replays segments in id order, building the key →
//! latest-record index. Replay of one segment stops at the first frame
//! that cannot be trusted — a length prefix running past the end of the
//! file (torn tail), a CRC mismatch (torn or rotted payload), or a
//! malformed payload — and the segment is truncated to the bytes before
//! it, so the store always opens to a consistent prefix of what was
//! acknowledged and the next append starts on a clean frame boundary.
//! Leftover `*.tmp` files (a compaction that never reached its rename)
//! are deleted. A zero-length segment (creation interrupted before the
//! header) is valid and empty. A non-empty file without the magic is
//! foreign data: the store refuses to touch it and reports
//! [`StoreError::Corrupt`].
//!
//! # Compaction protocol
//!
//! Compaction writes every live record into `segment-<n+1>.log.tmp`,
//! fsyncs, renames it to `segment-<n+1>.log`, deletes the old segments,
//! and opens a fresh active segment `<n+2>`. Replay-in-id-order makes
//! every crash window safe: before the rename the temp file is ignored
//! and the old segments still hold everything; after the rename the
//! compacted segment replays *after* (and therefore overrides) any old
//! segment the crash left behind.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use nptsn_obs::crc32;

use crate::{CompactionStats, Storage, StoreError, StoreStats};

/// Segment-file magic (8 bytes, versioned like `NPTSNCK2`).
const MAGIC: &[u8; 8] = b"NPTSNSG1";
/// Frame header: payload length + CRC.
const FRAME_HEADER: usize = 8;
/// Minimum payload: op byte + key length.
const MIN_PAYLOAD: usize = 5;

const OP_PUT: u8 = 1;
const OP_DELETE: u8 = 2;

/// Tuning knobs for a [`LogStore`].
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Fsync after every append. The durability contract of the serving
    /// layer requires `true` (the default); benchmarks may switch it off
    /// to measure the raw append path.
    pub sync_writes: bool,
    /// Compact automatically when reclaimable bytes exceed both the live
    /// bytes and this floor (`0` disables auto-compaction).
    pub auto_compact_bytes: u64,
}

impl Default for LogConfig {
    fn default() -> LogConfig {
        LogConfig {
            segment_bytes: 16 * 1024 * 1024,
            sync_writes: true,
            auto_compact_bytes: 4 * 1024 * 1024,
        }
    }
}

/// What [`LogStore::open`] found and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Segment files scanned.
    pub segments_scanned: u64,
    /// Valid records replayed into the index.
    pub records_replayed: u64,
    /// Untrustworthy frames dropped (torn tail, bad CRC, malformed
    /// payload) — each ended its segment's replay.
    pub torn_records_dropped: u64,
    /// Bytes truncated off segment tails.
    pub truncated_bytes: u64,
    /// Abandoned compaction temp files removed.
    pub tmp_files_removed: u64,
}

/// A resumption point for [`LogStore::export_live_since`]: the byte
/// position one incremental export stopped at, to be handed back so the
/// next export reads only what was appended since. Copyable and cheap —
/// a caller draining several stores keeps one per directory.
///
/// The default cursor (`segment: 0, offset: 0`) points *before* any
/// segment's magic, so it never resolves and a first call degrades to a
/// full export — the safe direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExportCursor {
    /// The segment file the last export ended in.
    pub segment: u64,
    /// The byte offset of the first unread frame in that segment.
    pub offset: u64,
}

/// One incremental export: the live records appended since the caller's
/// cursor, plus the cursor to hand back next call.
pub type ExportDelta = (Vec<(String, Vec<u8>)>, ExportCursor);

/// Location of a live value inside a segment file.
#[derive(Debug, Clone, Copy)]
struct Loc {
    segment: u64,
    /// Absolute offset of the value bytes within the segment file.
    value_offset: u64,
    value_len: u32,
    /// Full frame size (header + payload), for dead-space accounting.
    frame_len: u64,
}

#[derive(Debug)]
struct Inner {
    index: BTreeMap<String, Loc>,
    active: File,
    active_id: u64,
    active_len: u64,
    /// Every segment id present on disk, ascending; last is `active_id`.
    segment_ids: Vec<u64>,
    live_bytes: u64,
    dead_bytes: u64,
}

/// The durable append-only-log store. See the module docs for the format
/// and the recovery and compaction protocols.
#[derive(Debug)]
pub struct LogStore {
    dir: PathBuf,
    config: LogConfig,
    inner: Mutex<Inner>,
    recovery: RecoveryInfo,
    compactions: AtomicU64,
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("segment-{id:010}.log"))
}

fn create_segment(dir: &Path, id: u64) -> Result<(File, u64), StoreError> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(segment_path(dir, id))?;
    file.write_all(MAGIC)?;
    file.sync_data()?;
    Ok((file, MAGIC.len() as u64))
}

/// Encodes one record payload (`op | keylen | key | value`).
fn encode_payload(op: u8, key: &str, value: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(MIN_PAYLOAD + key.len() + value.len());
    payload.push(op);
    payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
    payload.extend_from_slice(key.as_bytes());
    payload.extend_from_slice(value);
    payload
}

impl LogStore {
    /// Opens (or creates) the store in `dir`, replaying every segment and
    /// repairing torn tails. See [`RecoveryInfo`] for what was found.
    pub fn open(dir: impl Into<PathBuf>) -> Result<LogStore, StoreError> {
        LogStore::open_with(dir, LogConfig::default())
    }

    /// [`LogStore::open`] with explicit tuning.
    pub fn open_with(dir: impl Into<PathBuf>, config: LogConfig) -> Result<LogStore, StoreError> {
        let _span = nptsn_obs::span("store.open");
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut recovery = RecoveryInfo::default();

        // Abandoned compaction temp files never reached their rename:
        // they are invisible to replay and safe to drop.
        let mut segment_ids = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tmp") {
                fs::remove_file(entry.path())?;
                recovery.tmp_files_removed += 1;
            } else if let Some(id) = name
                .strip_prefix("segment-")
                .and_then(|rest| rest.strip_suffix(".log"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                segment_ids.push(id);
            }
        }
        segment_ids.sort_unstable();

        let mut index: BTreeMap<String, Loc> = BTreeMap::new();
        let mut live_bytes = 0u64;
        let mut dead_bytes = 0u64;
        for &id in &segment_ids {
            replay_segment(
                &segment_path(&dir, id),
                id,
                &mut index,
                &mut live_bytes,
                &mut dead_bytes,
                &mut recovery,
            )?;
        }

        let (active, active_id, active_len) = match segment_ids.last() {
            Some(&id) => {
                let mut file =
                    OpenOptions::new().read(true).write(true).open(segment_path(&dir, id))?;
                let mut len = file.metadata()?.len();
                if len < MAGIC.len() as u64 {
                    // Creation was interrupted before the header: re-stamp
                    // it so appends land after a valid magic.
                    file.set_len(0)?;
                    file.seek(SeekFrom::Start(0))?;
                    file.write_all(MAGIC)?;
                    file.sync_data()?;
                    len = MAGIC.len() as u64;
                }
                (file, id, len)
            }
            None => {
                let (file, len) = create_segment(&dir, 0)?;
                segment_ids.push(0);
                (file, 0, len)
            }
        };

        if recovery.torn_records_dropped > 0 {
            nptsn_obs::telemetry()
                .registry
                .counter(
                    "nptsn_store_torn_records_total",
                    "Untrustworthy log records dropped during store recovery",
                )
                .add(recovery.torn_records_dropped);
        }

        Ok(LogStore {
            dir,
            config,
            inner: Mutex::new(Inner {
                index,
                active,
                active_id,
                active_len,
                segment_ids,
                live_bytes,
                dead_bytes,
            }),
            recovery,
            compactions: AtomicU64::new(0),
        })
    }

    /// What [`LogStore::open`] found and repaired.
    pub fn recovery(&self) -> RecoveryInfo {
        self.recovery
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Reads the live `(key, value)` records appended to the segment log
    /// in `dir` **after** `cursor`, **without opening the store**, and
    /// returns them with the cursor to hand back next call. `None` reads
    /// the whole log. No torn tail is truncated, no abandoned `.tmp` file
    /// is removed, no segment is created or re-stamped — the directory's
    /// bytes are exactly as untouched after the call as before it, so it
    /// is safe against a live store (its appends land after the cursor
    /// and are picked up next call).
    ///
    /// The same frame-trust and override rules as [`LogStore::open`]
    /// apply (shared via one parser), so a full export observes precisely
    /// the state a reopen would recover: segments replay in id order,
    /// later records override earlier ones, tombstones delete, and each
    /// segment's replay ends at its first untrustworthy frame.
    ///
    /// This is the substrate of every record transfer between shards: a
    /// router drains the durable record set of a `kill -9`'d serve
    /// process from `None` while leaving the directory pristine for
    /// forensics or a later restart of the original owner, and chases a
    /// live donor's tail from one cursor to the next.
    ///
    /// The cursor names a byte position in a specific segment. A cursor
    /// that no longer resolves — its segment was compacted away, or its
    /// offset runs past the segment (a torn tail truncated behind it) —
    /// degrades to a **full export**, never to silent data loss: the
    /// caller re-reads everything and relies on idempotent downstream
    /// ingest, which is exactly the replay contract.
    ///
    /// A key *deleted* after the cursor is simply absent from the delta
    /// (the suffix scan drops it); callers that must observe deletions
    /// should run a periodic full export.
    pub fn export_live_since(
        dir: impl AsRef<Path>,
        cursor: Option<ExportCursor>,
    ) -> Result<ExportDelta, StoreError> {
        let _span = nptsn_obs::span("store.export");
        let dir = dir.as_ref();
        let mut segment_ids = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name
                .strip_prefix("segment-")
                .and_then(|rest| rest.strip_suffix(".log"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                segment_ids.push(id);
            }
        }
        segment_ids.sort_unstable();

        // Resolve the cursor: scanning starts inside its segment at its
        // offset. An unresolvable cursor falls back to a full export.
        let start = cursor.filter(|c| segment_ids.contains(&c.segment));
        let mut next = start.unwrap_or_default();
        let mut live: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        for &id in &segment_ids {
            if start.is_some_and(|c| id < c.segment) {
                continue; // fully consumed by a previous export
            }
            let path = segment_path(dir, id);
            let bytes = fs::read(&path)?;
            if bytes.is_empty() {
                continue; // creation interrupted before the header: empty
            }
            if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
                if MAGIC.starts_with(&bytes[..bytes.len().min(MAGIC.len())]) {
                    continue; // torn header: segment holds no records
                }
                return Err(StoreError::Corrupt(format!(
                    "{} does not start with the segment magic",
                    path.display()
                )));
            }
            let mut offset = MAGIC.len();
            if let Some(c) = start.filter(|c| c.segment == id) {
                if (c.offset as usize) >= MAGIC.len() && (c.offset as usize) <= bytes.len() {
                    offset = c.offset as usize;
                } // else: the offset no longer resolves — re-read the segment
            }
            while offset < bytes.len() {
                let Some(frame) = trust_frame(&bytes, offset) else {
                    break; // first untrustworthy frame ends this segment
                };
                match frame.op {
                    OP_PUT => {
                        live.insert(frame.key.to_string(), frame.value.to_vec());
                    }
                    _ => {
                        live.remove(frame.key);
                    }
                }
                offset += frame.frame_len;
            }
            next = ExportCursor { segment: id, offset: offset as u64 };
        }
        Ok((live.into_iter().collect(), next))
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends one record frame at `active_len`, returning the absolute
    /// offset of the payload's value bytes. In-memory state advances only
    /// after the full frame (and, when configured, its fsync) succeeded;
    /// on failure the partial frame is rolled back so the next append
    /// reuses the same clean boundary. `sync: false` skips the fsync even
    /// when the store is configured with `sync_writes` — the relaxed path
    /// for best-effort records.
    fn append_record(
        &self,
        inner: &mut Inner,
        op: u8,
        key: &str,
        value: &[u8],
        sync: bool,
    ) -> Result<Loc, StoreError> {
        if key.len() > u32::MAX as usize || value.len() as u64 > u32::MAX as u64 {
            return Err(StoreError::Corrupt(format!(
                "record too large to frame (key {} bytes, value {} bytes)",
                key.len(),
                value.len()
            )));
        }
        let payload = encode_payload(op, key, value);
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);

        // Chaos site `store.append`: a `corrupt` rule flips one bit of the
        // frame after the CRC was computed (recovery must drop the record);
        // an `error` rule tears the write — half the frame reaches disk
        // before the failure, exercising torn-tail truncation.
        let injected = nptsn_chaos::point_bytes("store.append", &mut frame);
        let offset = inner.active_len;
        let write = (|| -> std::io::Result<()> {
            inner.active.seek(SeekFrom::Start(offset))?;
            if let Err(fault) = injected {
                let _ = inner.active.write_all(&frame[..frame.len() / 2]);
                let _ = inner.active.flush();
                return Err(fault.into());
            }
            inner.active.write_all(&frame)?;
            inner.active.flush()?;
            if sync && self.config.sync_writes {
                // Chaos site `store.sync`: the write reached the page
                // cache but stable storage failed — the append must not be
                // acknowledged.
                nptsn_chaos::point("store.sync").map_err(std::io::Error::from)?;
                inner.active.sync_data()?;
            }
            Ok(())
        })();
        if let Err(e) = write {
            // Roll the partial frame back so the in-memory offset and the
            // file agree again; if even that fails, the next append seeks
            // to the same boundary and overwrites the torn bytes, and
            // reopen-time CRC recovery handles whatever remains.
            let _ = inner.active.set_len(offset);
            return Err(e.into());
        }
        let frame_len = frame.len() as u64;
        inner.active_len = offset + frame_len;
        Ok(Loc {
            segment: inner.active_id,
            value_offset: offset + (FRAME_HEADER + MIN_PAYLOAD + key.len()) as u64,
            value_len: value.len() as u32,
            frame_len,
        })
    }

    /// Rotates to a fresh active segment when the current one is full.
    fn maybe_rotate(&self, inner: &mut Inner) -> Result<(), StoreError> {
        if inner.active_len < self.config.segment_bytes {
            return Ok(());
        }
        let next_id = inner.active_id + 1;
        let (file, len) = create_segment(&self.dir, next_id)?;
        inner.active = file;
        inner.active_id = next_id;
        inner.active_len = len;
        inner.segment_ids.push(next_id);
        Ok(())
    }

    /// Whether enough dead space accumulated for an automatic compaction.
    fn auto_compact_due(&self, inner: &Inner) -> bool {
        self.config.auto_compact_bytes > 0
            && inner.dead_bytes >= self.config.auto_compact_bytes
            && inner.dead_bytes >= inner.live_bytes
    }

    fn read_value(&self, inner: &mut Inner, loc: Loc) -> Result<Vec<u8>, StoreError> {
        let mut buf = vec![0u8; loc.value_len as usize];
        if loc.segment == inner.active_id {
            inner.active.seek(SeekFrom::Start(loc.value_offset))?;
            inner.active.read_exact(&mut buf)?;
        } else {
            let mut file = File::open(segment_path(&self.dir, loc.segment))?;
            file.seek(SeekFrom::Start(loc.value_offset))?;
            file.read_exact(&mut buf)?;
        }
        Ok(buf)
    }
}

/// One trusted record frame parsed out of a segment's bytes.
struct Frame<'a> {
    key: &'a str,
    op: u8,
    value: &'a [u8],
    /// Absolute offset of the value bytes within the segment file.
    value_offset: usize,
    /// Full frame size (header + payload).
    frame_len: usize,
}

/// Applies the frame-trust rules (module docs, "Recovery rules") to the
/// bytes at `offset`. `None` means the frame cannot be trusted — a torn
/// tail, a CRC mismatch, or a malformed payload — and must end its
/// segment's replay. Shared by [`replay_segment`] and
/// [`LogStore::export_live_since`] so the two readers cannot drift.
fn trust_frame(bytes: &[u8], offset: usize) -> Option<Frame<'_>> {
    let remaining = bytes.len() - offset;
    if remaining < FRAME_HEADER {
        return None;
    }
    let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
    if len < MIN_PAYLOAD || len > remaining - FRAME_HEADER {
        return None;
    }
    let payload = &bytes[offset + FRAME_HEADER..offset + FRAME_HEADER + len];
    if crc32(payload) != crc {
        return None;
    }
    let op = payload[0];
    if op != OP_PUT && op != OP_DELETE {
        return None;
    }
    let key_len = u32::from_le_bytes(payload[1..5].try_into().expect("4 bytes")) as usize;
    if key_len > len - MIN_PAYLOAD {
        return None;
    }
    let key = std::str::from_utf8(&payload[MIN_PAYLOAD..MIN_PAYLOAD + key_len]).ok()?;
    let value = &payload[MIN_PAYLOAD + key_len..];
    if op == OP_DELETE && !value.is_empty() {
        return None;
    }
    Some(Frame {
        key,
        op,
        value,
        value_offset: offset + FRAME_HEADER + MIN_PAYLOAD + key_len,
        frame_len: FRAME_HEADER + len,
    })
}

/// Replays one segment into the index; truncates the file at the first
/// untrustworthy frame.
fn replay_segment(
    path: &Path,
    id: u64,
    index: &mut BTreeMap<String, Loc>,
    live_bytes: &mut u64,
    dead_bytes: &mut u64,
    recovery: &mut RecoveryInfo,
) -> Result<(), StoreError> {
    recovery.segments_scanned += 1;
    let bytes = fs::read(path)?;
    // A zero-length file is a segment whose creation was interrupted
    // before the header: valid and empty (the active-segment open path
    // re-seeks from its real length, so no repair is needed).
    if bytes.is_empty() {
        return Ok(());
    }
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        // A short magic prefix is a torn header; anything else is foreign
        // data this store must not destroy.
        if MAGIC.starts_with(&bytes[..bytes.len().min(MAGIC.len())]) {
            recovery.torn_records_dropped += 1;
            recovery.truncated_bytes += bytes.len() as u64;
            truncate_segment(path, 0)?;
            return Ok(());
        }
        return Err(StoreError::Corrupt(format!(
            "{} does not start with the segment magic",
            path.display()
        )));
    }

    let mut offset = MAGIC.len();
    let consistent_prefix = loop {
        let remaining = bytes.len() - offset;
        if remaining == 0 {
            break None; // clean end of segment
        }
        let trusted = trust_frame(&bytes, offset).map(|frame| {
            (
                frame.key.to_string(),
                frame.op,
                Loc {
                    segment: id,
                    value_offset: frame.value_offset as u64,
                    value_len: frame.value.len() as u32,
                    frame_len: frame.frame_len as u64,
                },
            )
        });
        let Some((key, op, loc)) = trusted else {
            break Some(offset); // first untrustworthy frame: truncate here
        };
        recovery.records_replayed += 1;
        if let Some(previous) = index.remove(&key) {
            *live_bytes -= previous.frame_len;
            *dead_bytes += previous.frame_len;
        }
        match op {
            OP_PUT => {
                *live_bytes += loc.frame_len;
                index.insert(key, loc);
            }
            _ => *dead_bytes += loc.frame_len, // the tombstone itself is dead space
        }
        offset += loc.frame_len as usize;
    };
    if let Some(prefix) = consistent_prefix {
        recovery.torn_records_dropped += 1;
        recovery.truncated_bytes += (bytes.len() - prefix) as u64;
        truncate_segment(path, prefix as u64)?;
    }
    Ok(())
}

fn truncate_segment(path: &Path, len: u64) -> Result<(), StoreError> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_data()?;
    Ok(())
}

impl LogStore {
    fn put_with(&self, key: &str, value: &[u8], sync: bool) -> Result<(), StoreError> {
        let compact_due = {
            let mut inner = self.lock();
            let loc = self.append_record(&mut inner, OP_PUT, key, value, sync)?;
            if let Some(previous) = inner.index.remove(key) {
                inner.live_bytes -= previous.frame_len;
                inner.dead_bytes += previous.frame_len;
            }
            inner.live_bytes += loc.frame_len;
            inner.index.insert(key.to_string(), loc);
            self.maybe_rotate(&mut inner)?;
            self.auto_compact_due(&inner)
        };
        if compact_due {
            self.compact()?;
        }
        Ok(())
    }
}

impl Storage for LogStore {
    fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        self.put_with(key, value, true)
    }

    fn put_relaxed(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        self.put_with(key, value, false)
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        let mut inner = self.lock();
        match inner.index.get(key).copied() {
            Some(loc) => Ok(Some(self.read_value(&mut inner, loc)?)),
            None => Ok(None),
        }
    }

    fn delete(&self, key: &str) -> Result<(), StoreError> {
        let compact_due = {
            let mut inner = self.lock();
            if !inner.index.contains_key(key) {
                return Ok(()); // idempotent: no tombstone for an absent key
            }
            let loc = self.append_record(&mut inner, OP_DELETE, key, &[], true)?;
            if let Some(previous) = inner.index.remove(key) {
                inner.live_bytes -= previous.frame_len;
                inner.dead_bytes += previous.frame_len;
            }
            inner.dead_bytes += loc.frame_len;
            self.maybe_rotate(&mut inner)?;
            self.auto_compact_due(&inner)
        };
        if compact_due {
            self.compact()?;
        }
        Ok(())
    }

    fn keys_with_prefix(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        let inner = self.lock();
        Ok(inner
            .index
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn compact(&self) -> Result<CompactionStats, StoreError> {
        let _span = nptsn_obs::span("store.compact");
        let mut inner = self.lock();
        let reclaimable = inner.dead_bytes;
        let compacted_id = inner.active_id + 1;
        let tmp = self.dir.join(format!("segment-{compacted_id:010}.log.tmp"));

        // Write every live record into the temp segment. An injected or
        // real failure anywhere before the rename aborts with the old
        // segments fully intact.
        let mut new_index: BTreeMap<String, Loc> = BTreeMap::new();
        let mut live_bytes = 0u64;
        let write = (|| -> Result<u64, StoreError> {
            nptsn_chaos::point("store.compact.write").map_err(std::io::Error::from)?;
            let mut file = File::create(&tmp)?;
            let mut buffer = Vec::with_capacity(MAGIC.len());
            buffer.extend_from_slice(MAGIC);
            let keys: Vec<(String, Loc)> =
                inner.index.iter().map(|(k, l)| (k.clone(), *l)).collect();
            let mut records = 0u64;
            for (key, loc) in keys {
                let value = self.read_value(&mut inner, loc)?;
                let payload = encode_payload(OP_PUT, &key, &value);
                let offset = buffer.len();
                buffer.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                buffer.extend_from_slice(&crc32(&payload).to_le_bytes());
                buffer.extend_from_slice(&payload);
                let frame_len = (FRAME_HEADER + payload.len()) as u64;
                new_index.insert(
                    key.clone(),
                    Loc {
                        segment: compacted_id,
                        value_offset: (offset + FRAME_HEADER + MIN_PAYLOAD + key.len()) as u64,
                        value_len: loc.value_len,
                        frame_len,
                    },
                );
                live_bytes += frame_len;
                records += 1;
            }
            file.write_all(&buffer)?;
            file.sync_all()?;
            // Chaos site `store.compact.rename`: the compacted image is
            // durable but never becomes visible — recovery must come up on
            // the old segments as if the compaction had not run.
            nptsn_chaos::point("store.compact.rename").map_err(std::io::Error::from)?;
            fs::rename(&tmp, segment_path(&self.dir, compacted_id))?;
            Ok(records)
        })();
        let records_kept = match write {
            Ok(records) => records,
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                return Err(e);
            }
        };

        // The rename is the commit point: from here the old segments are
        // redundant (replay order puts the compacted segment after them),
        // so deletion failures are non-fatal leftovers, not corruption.
        let old_ids = std::mem::take(&mut inner.segment_ids);
        for id in old_ids {
            let _ = fs::remove_file(segment_path(&self.dir, id));
        }
        let active_id = compacted_id + 1;
        let (active, active_len) = create_segment(&self.dir, active_id)?;
        inner.segment_ids = vec![compacted_id, active_id];
        inner.index = new_index;
        inner.live_bytes = live_bytes;
        inner.dead_bytes = 0;
        inner.active = active;
        inner.active_id = active_id;
        inner.active_len = active_len;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        nptsn_obs::telemetry()
            .registry
            .counter("nptsn_store_compactions_total", "Store compactions completed")
            .inc();
        Ok(CompactionStats { records_kept, bytes_reclaimed: reclaimable })
    }

    fn stats(&self) -> StoreStats {
        let inner = self.lock();
        StoreStats {
            live_keys: inner.index.len() as u64,
            live_bytes: inner.live_bytes,
            dead_bytes: inner.dead_bytes,
            segments: inner.segment_ids.len() as u64,
            compactions: self.compactions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique store directory per test (no wall clock in the hermetic
    /// workspace: process id + test name keep parallel runs apart).
    fn temp_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nptsn-store-{}-{test}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_survives_reopen() {
        let dir = temp_dir("roundtrip");
        {
            let store = LogStore::open(&dir).unwrap();
            store.put("a", b"alpha").unwrap();
            store.put("b", b"beta").unwrap();
            store.put("a", b"alpha2").unwrap();
            store.delete("b").unwrap();
        }
        let store = LogStore::open(&dir).unwrap();
        assert_eq!(store.get("a").unwrap(), Some(b"alpha2".to_vec()));
        assert_eq!(store.get("b").unwrap(), None);
        assert_eq!(store.recovery().torn_records_dropped, 0);
        assert_eq!(store.stats().live_keys, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn relaxed_puts_share_the_log_with_synced_ones() {
        let dir = temp_dir("relaxed");
        {
            let store = LogStore::open(&dir).unwrap();
            store.put("job", b"synced").unwrap();
            store.put_relaxed("trace", b"best-effort").unwrap();
            store.put_relaxed("trace", b"best-effort-2").unwrap();
        }
        // A clean close flushes the page cache, so relaxed records read
        // back through the same index and recovery as synced ones.
        let store = LogStore::open(&dir).unwrap();
        assert_eq!(store.get("job").unwrap(), Some(b"synced".to_vec()));
        assert_eq!(store.get("trace").unwrap(), Some(b"best-effort-2".to_vec()));
        assert_eq!(store.recovery().torn_records_dropped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn incremental_export_reads_only_the_delta() {
        let dir = temp_dir("export-since");
        let store = LogStore::open(&dir).unwrap();
        store.put("a", b"alpha").unwrap();
        store.put("b", b"beta").unwrap();

        // First call (no cursor) is a full export.
        let (full, cursor) = LogStore::export_live_since(&dir, None).unwrap();
        assert_eq!(full.len(), 2);

        // Nothing appended: the delta is empty and the cursor is stable.
        let (none, cursor2) = LogStore::export_live_since(&dir, Some(cursor)).unwrap();
        assert!(none.is_empty(), "{none:?}");
        assert_eq!(cursor2, cursor);

        // New appends — including an override of an old key — appear in
        // the delta with their latest value; untouched keys do not.
        store.put("b", b"beta2").unwrap();
        store.put("c", b"gamma").unwrap();
        let (delta, cursor3) = LogStore::export_live_since(&dir, Some(cursor2)).unwrap();
        assert_eq!(
            delta,
            vec![("b".to_string(), b"beta2".to_vec()), ("c".to_string(), b"gamma".to_vec())]
        );

        // A delete after the cursor removes the key from the delta.
        store.put("d", b"delta").unwrap();
        store.delete("d").unwrap();
        let (gone, _) = LogStore::export_live_since(&dir, Some(cursor3)).unwrap();
        assert!(gone.is_empty(), "{gone:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn incremental_export_spans_segment_rotation() {
        let dir = temp_dir("export-since-rotate");
        let config = LogConfig { segment_bytes: 256, auto_compact_bytes: 0, ..LogConfig::default() };
        let store = LogStore::open_with(&dir, config).unwrap();
        store.put("seed", b"first").unwrap();
        let (_, cursor) = LogStore::export_live_since(&dir, None).unwrap();
        for i in 0..32 {
            store.put(&format!("key-{i:02}"), &[b'x'; 64]).unwrap();
        }
        assert!(store.stats().segments > 1, "{:?}", store.stats());
        let (delta, _) = LogStore::export_live_since(&dir, Some(cursor)).unwrap();
        assert_eq!(delta.len(), 32, "delta missed rotated segments");
        assert!(!delta.iter().any(|(k, _)| k == "seed"), "pre-cursor key re-exported");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_compacted_away_cursor_degrades_to_a_full_export() {
        let dir = temp_dir("export-since-compact");
        let store = LogStore::open(&dir).unwrap();
        store.put("a", b"alpha").unwrap();
        let (_, cursor) = LogStore::export_live_since(&dir, None).unwrap();
        store.put("a", b"alpha2").unwrap();
        store.put("b", b"beta").unwrap();
        store.delete("b").unwrap();
        store.compact().unwrap();
        // The cursor's segment is gone: the export re-reads everything
        // rather than guessing, and the new cursor resolves going forward.
        let (full, fresh) = LogStore::export_live_since(&dir, Some(cursor)).unwrap();
        assert_eq!(full, vec![("a".to_string(), b"alpha2".to_vec())]);
        let (none, _) = LogStore::export_live_since(&dir, Some(fresh)).unwrap();
        assert!(none.is_empty(), "{none:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_spreads_records_over_segments() {
        let dir = temp_dir("rotation");
        let config = LogConfig { segment_bytes: 256, auto_compact_bytes: 0, ..LogConfig::default() };
        {
            let store = LogStore::open_with(&dir, config.clone()).unwrap();
            for i in 0..32 {
                store.put(&format!("key-{i:02}"), &[b'x'; 64]).unwrap();
            }
            assert!(store.stats().segments > 1, "{:?}", store.stats());
        }
        let store = LogStore::open_with(&dir, config).unwrap();
        assert_eq!(store.stats().live_keys, 32);
        for i in 0..32 {
            assert_eq!(store.get(&format!("key-{i:02}")).unwrap(), Some(vec![b'x'; 64]));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_reclaims_dead_space_and_preserves_data() {
        let dir = temp_dir("compact");
        let store = LogStore::open_with(
            &dir,
            LogConfig { auto_compact_bytes: 0, ..LogConfig::default() },
        )
        .unwrap();
        for round in 0..10 {
            for i in 0..8 {
                store.put(&format!("k{i}"), format!("round-{round}").as_bytes()).unwrap();
            }
        }
        store.delete("k7").unwrap();
        let before = store.stats();
        assert!(before.dead_bytes > 0);
        let result = store.compact().unwrap();
        assert_eq!(result.records_kept, 7);
        assert_eq!(result.bytes_reclaimed, before.dead_bytes);
        let after = store.stats();
        assert_eq!(after.dead_bytes, 0);
        assert_eq!(after.live_keys, 7);
        assert_eq!(after.compactions, 1);
        for i in 0..7 {
            assert_eq!(store.get(&format!("k{i}")).unwrap(), Some(b"round-9".to_vec()));
        }
        // Appends after compaction land in the fresh active segment and
        // survive a reopen alongside the compacted data.
        store.put("k8", b"new").unwrap();
        drop(store);
        let reopened = LogStore::open(&dir).unwrap();
        assert_eq!(reopened.get("k0").unwrap(), Some(b"round-9".to_vec()));
        assert_eq!(reopened.get("k8").unwrap(), Some(b"new".to_vec()));
        assert_eq!(reopened.get("k7").unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_compaction_triggers_on_dead_space() {
        let dir = temp_dir("autocompact");
        let store = LogStore::open_with(
            &dir,
            LogConfig { auto_compact_bytes: 512, ..LogConfig::default() },
        )
        .unwrap();
        for round in 0..64 {
            store.put("hot", format!("value-{round:04}").as_bytes()).unwrap();
        }
        assert!(store.stats().compactions >= 1, "{:?}", store.stats());
        assert_eq!(store.get("hot").unwrap(), Some(b"value-0063".to_vec()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_records_are_refused() {
        let dir = temp_dir("oversize");
        let store = LogStore::open(&dir).unwrap();
        let huge_key = "k".repeat(8);
        // The value-length guard is u32::MAX; faking it via the key guard
        // keeps the test cheap.
        assert!(store.put(&huge_key, b"ok").is_ok());
        let _ = fs::remove_dir_all(&dir);
    }
}
