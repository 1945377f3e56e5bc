//! The store for version histories.
//!
//! The engine's working representation is and stays in-memory — query
//! evaluation runs over [`crate::Relation`]'s row vectors and hash
//! indexes, which is what keeps citations byte-identical after a
//! restart (pinned by `tests/storage_equivalence.rs`). What the
//! [`Storage`] owns is the *system of record* for a
//! [`VersionedDatabase`]: where committed versions live, how they
//! survive a process restart, and what a cold start costs.
//!
//! One backend ships, [`DiskStorage`]: append-only segment files plus
//! a write-ahead log under a data directory. A version with a
//! [`crate::DatabaseDelta`] (see [`VersionedDatabase::delta`]) becomes
//! a WAL record, every other version a segment file. A manifest,
//! rewritten atomically (temp file + rename), is the commit point:
//! cold start reads the manifest and reconstructs the full version
//! chain — each segment read whole and checksummed, deltas by replay,
//! untouched relations shared — without re-running the text loader.
//!
//! The write path is a deliberate *write-behind*: callers mutate
//! their `VersionedDatabase` first and then [`Storage::sync`] the
//! result. `sync` is idempotent (it persists only versions the
//! store has not seen) so staged multi-commit loads like
//! [`crate::loader::load_commits`] — which apply commits to a clone
//! and swap on success — persist nothing until the whole load has
//! succeeded.

mod disk;
mod vfs;

pub use disk::DiskStorage;
pub use vfs::{FaultVfs, RealVfs, Vfs};

use crate::error::Result;
use crate::version::VersionedDatabase;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Tuning for the disk store. The WAL compaction threshold is
/// floored, not trusted, so a zero or tiny setting cannot make every
/// commit rewrite every segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageOptions {
    /// WAL size (bytes) past which a sync triggers compaction —
    /// delta-backed versions are folded into full segment files and
    /// the WAL is truncated. Floored to
    /// [`StorageOptions::MIN_WAL_COMPACT_BYTES`].
    pub wal_compact_bytes: u64,
}

impl StorageOptions {
    /// Smallest accepted WAL compaction threshold.
    pub const MIN_WAL_COMPACT_BYTES: u64 = 4096;

    /// Copy with the documented floor applied.
    pub fn clamped(self) -> Self {
        StorageOptions {
            wal_compact_bytes: self.wal_compact_bytes.max(Self::MIN_WAL_COMPACT_BYTES),
        }
    }
}

impl Default for StorageOptions {
    fn default() -> Self {
        StorageOptions {
            wal_compact_bytes: 16 * 1024 * 1024,
        }
    }
}

/// A point-in-time report of the store's footprint, surfaced as the
/// `storage` block of `GET /stats` and the `fgcite_storage_*` metric
/// families.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageStats {
    /// Versions the store has persisted.
    pub versions: usize,
    /// Versions stored as full segment files.
    pub segments: usize,
    /// Versions stored as WAL delta records.
    pub wal_records: usize,
    /// Current WAL length in bytes.
    pub wal_bytes: u64,
    /// Total bytes on disk (manifest + segments + WAL).
    pub disk_bytes: u64,
    /// Completed compactions.
    pub compactions: u64,
}

impl StorageStats {
    /// Always `0.0`: the store reads each segment whole, once, and
    /// caches no pages. Kept only because the benchmark harness
    /// (`benchmark/src/stack.rs:160`) still reads it.
    pub fn cache_hit_rate(&self) -> f64 {
        0.0
    }
}

/// A durability self-report, surfaced as the `degraded` flag and
/// `causes` list of disk-backed roles' `GET /healthz`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageHealth {
    /// Whether any degradation cause is present.
    pub degraded: bool,
    /// Human-readable causes, empty when healthy.
    pub causes: Vec<String>,
    /// The manifest on disk currently reads and decodes cleanly (or
    /// has legitimately never been written).
    pub manifest_readable: bool,
    /// The most recent [`Storage::sync`] succeeded.
    pub last_sync_ok: bool,
    /// Current WAL length in bytes (degraded when past the
    /// compaction threshold — compaction should have truncated it).
    pub wal_bytes: u64,
}

/// A store that persists a [`VersionedDatabase`].
///
/// The store is shared behind `Arc<dyn Storage>` across engines,
/// servers, and CLI paths; every method takes `&self`.
pub trait Storage: Send + Sync + fmt::Debug {
    /// Persist every version of `history` the store has not yet
    /// seen. Idempotent: syncing the same history twice writes
    /// nothing the second time. Errors if `history` is not an
    /// append-only extension of what was previously synced (the
    /// store refuses to silently fork its system of record):
    /// overlapping versions are verified by metadata *and* snapshot
    /// content — Arc-shared snapshots make the content check a
    /// pointer comparison in the common case. One documented gap:
    /// [`DiskStorage`] freshly opened over an existing manifest has
    /// no in-memory mirror until [`Storage::load_history`] runs, so
    /// until then its overlap check is metadata-only.
    fn sync(&self, history: &VersionedDatabase) -> Result<()>;

    /// Reconstruct the full persisted version chain — the cold-start
    /// path: each segment is read whole and checksummed, and
    /// delta-backed versions are replayed, reproducing the snapshots,
    /// their deltas and the relations they share.
    fn load_history(&self) -> Result<VersionedDatabase>;

    /// Footprint report.
    fn stats(&self) -> StorageStats;

    /// Fold delta-backed versions into full segment files and
    /// truncate the WAL. A no-op when the WAL holds nothing. Runs
    /// automatically when a sync pushes the WAL past
    /// [`StorageOptions::wal_compact_bytes`].
    fn compact(&self) -> Result<()>;

    /// Durability self-report for `/healthz`.
    fn health(&self) -> StorageHealth;
}

/// Open the disk store over `dir`, with every byte routed through
/// the process-wide fault plane so CLI-armed `storage.*` points reach
/// production disk I/O (an inactive plane costs one relaxed atomic
/// load per operation). An unusable directory is a structured
/// [`crate::RelationError::Storage`], not a panic.
pub fn open(dir: &Path, options: StorageOptions) -> Result<Arc<dyn Storage>> {
    let vfs = Arc::new(FaultVfs::over_real(fgc_fault::global_arc()));
    Ok(Arc::new(DiskStorage::open_with_vfs(dir, options, vfs)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_floors_apply() {
        let opts = StorageOptions {
            wal_compact_bytes: 0,
        }
        .clamped();
        assert_eq!(
            opts.wal_compact_bytes,
            StorageOptions::MIN_WAL_COMPACT_BYTES
        );
    }
}
