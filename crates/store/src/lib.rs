//! nptsn-store: an embedded, durable, std-only key-value store.
//!
//! The serving layer must survive `kill -9`: every accepted job, every
//! result and every registered policy checkpoint has to come back when the
//! process restarts. This crate provides that substrate — the `NPTSNCK2`
//! checkpoint idiom (CRC everything, write a sibling temp file, rename
//! atomically) generalized into a log-structured store:
//!
//! * an **append-only segment log** of length-prefixed, CRC-32'd records
//!   (`segment-<n>.log`), each record a `put` or a `delete` tombstone;
//! * an **in-memory index** (key → latest record location) rebuilt by
//!   replaying the segments in order on [`LogStore::open`];
//! * **torn-tail recovery**: a record cut short by a crash, or one whose
//!   CRC no longer matches, ends that segment's replay — the store opens
//!   to the longest consistent prefix and truncates the torn bytes so the
//!   next append starts from a clean frame;
//! * **atomic compaction**: the live records are rewritten into a fresh
//!   segment via temp file + fsync + rename (dead records and tombstones
//!   reclaimed); a crash at any point leaves either the old segments or
//!   the compacted one, never a mix the replay cannot order.
//!
//! Everything is behind the [`Storage`] trait so embedders (and tests) can
//! swap the durable [`LogStore`] for the ephemeral [`MemStore`] without
//! touching call sites. Both are `Send + Sync`; one instance is shared by
//! the HTTP handlers and the worker pool of `nptsn-serve`.
//!
//! Fault injection: the write, fsync, and compaction paths carry
//! `nptsn-chaos` sites (`store.append`, `store.sync`,
//! `store.compact.write`, `store.compact.rename`), so a seeded storm can
//! prove the recovery rules instead of merely claiming them. Disarmed,
//! each site costs one relaxed atomic load.

#![warn(missing_docs)]

mod log;
mod mem;

pub use crate::log::{ExportCursor, LogConfig, LogStore, RecoveryInfo};
pub use crate::mem::MemStore;

use std::fmt;
use std::io;

/// Errors reported by [`Storage`] operations.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed (including injected
    /// chaos faults at I/O sites).
    Io(io::Error),
    /// The on-disk state is not a valid store (bad segment magic, an
    /// unreadable directory, a key too large to frame).
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// A point-in-time occupancy summary of a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Keys with a live value.
    pub live_keys: u64,
    /// Bytes of live record payload (what a compaction would keep).
    pub live_bytes: u64,
    /// Bytes of superseded records and tombstones (what a compaction
    /// would reclaim). Always zero for [`MemStore`].
    pub dead_bytes: u64,
    /// Segment files on disk (1 for a fresh log, 0 for [`MemStore`]).
    pub segments: u64,
    /// Compactions completed over the store's lifetime.
    pub compactions: u64,
}

/// What a compaction accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Live records carried into the compacted segment.
    pub records_kept: u64,
    /// Bytes reclaimed (dead records + tombstones dropped).
    pub bytes_reclaimed: u64,
}

/// The embedded-store abstraction the serving layer is built on.
///
/// Semantics are last-write-wins per key: [`Storage::put`] replaces,
/// [`Storage::delete`] writes a tombstone (idempotent), reads see the
/// latest surviving write. Durable implementations must make every
/// mutation crash-safe *before* returning: once `put` succeeds, a
/// `kill -9` and reopen observes the value.
pub trait Storage: Send + Sync + fmt::Debug {
    /// Stores `value` under `key`, replacing any previous value.
    fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError>;

    /// Stores `value` under `key` without waiting for stable storage.
    ///
    /// Same last-write-wins semantics as [`Storage::put`], but a durable
    /// implementation may skip its per-append fsync: the record reaches
    /// the OS page cache and survives a process crash, not a power cut.
    /// For best-effort data (e.g. observability timelines) whose loss
    /// must never cost a synced write on the hot path. Defaults to
    /// [`Storage::put`].
    fn put_relaxed(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        self.put(key, value)
    }

    /// The latest value under `key`, or `None`.
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError>;

    /// Removes `key`. Deleting an absent key is a no-op, not an error.
    fn delete(&self, key: &str) -> Result<(), StoreError>;

    /// Every live key starting with `prefix`, sorted.
    fn keys_with_prefix(&self, prefix: &str) -> Result<Vec<String>, StoreError>;

    /// Rewrites the store to its live set, reclaiming dead space. A no-op
    /// for ephemeral implementations.
    fn compact(&self) -> Result<CompactionStats, StoreError>;

    /// Occupancy counters.
    fn stats(&self) -> StoreStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let io = StoreError::from(io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
        let corrupt = StoreError::Corrupt("bad magic".to_string());
        assert!(corrupt.to_string().contains("bad magic"));
    }
}
