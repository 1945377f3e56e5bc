//! Pluggable storage backends for version histories.
//!
//! The engine's working representation is and stays in-memory — query
//! evaluation runs over [`crate::Relation`]'s row vectors and hash
//! indexes regardless of backend, which is what keeps citations
//! byte-identical across backends (pinned by
//! `tests/storage_equivalence.rs`). What a [`Storage`] implementation
//! owns is the *system of record* for a [`VersionedDatabase`]: where
//! committed versions live, how they survive a process restart, and
//! what a cold start costs.
//!
//! Two backends ship:
//!
//! * [`MemStorage`] — the reference implementation. The history lives
//!   only in RAM (a mirror of the caller's own chain); restarts
//!   re-run the load path. This is exactly the pre-refactor behavior.
//! * [`DiskStorage`] — append-only segment files plus a write-ahead
//!   log under a data directory. A version with a
//!   [`crate::DatabaseDelta`] (see [`VersionedDatabase::delta`])
//!   becomes a WAL record, every other version a segment file. A
//!   manifest, rewritten atomically (temp file + rename), is the
//!   commit point: cold start reads the manifest and reconstructs the
//!   full version chain — segments through a page-granular buffer
//!   cache, deltas by replay, untouched relations shared — without
//!   re-running the text loader.
//!
//! The write path is a deliberate *write-behind*: callers mutate
//! their `VersionedDatabase` first and then [`Storage::sync`] the
//! result. `sync` is idempotent (it persists only versions the
//! backend has not seen) so staged multi-commit loads like
//! [`crate::loader::load_commits`] — which apply commits to a clone
//! and swap on success — persist nothing until the whole load has
//! succeeded.

mod disk;
mod mem;
mod vfs;

pub use disk::DiskStorage;
pub use mem::{MemSegment, MemStorage};
pub use vfs::{FaultVfs, RealVfs, Vfs};

use crate::error::{RelationError, Result};
use crate::version::VersionedDatabase;
use std::fmt;
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

/// Which backend a [`Storage`] implementation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageKind {
    /// In-memory reference backend (no persistence).
    Mem,
    /// Disk-backed segments + WAL under a data directory.
    Disk,
}

impl fmt::Display for StorageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StorageKind::Mem => "mem",
            StorageKind::Disk => "disk",
        })
    }
}

impl FromStr for StorageKind {
    type Err = RelationError;
    fn from_str(s: &str) -> Result<Self> {
        match s {
            "mem" => Ok(StorageKind::Mem),
            "disk" => Ok(StorageKind::Disk),
            other => Err(RelationError::Storage(format!(
                "unknown storage backend `{other}` (expected `mem` or `disk`)"
            ))),
        }
    }
}

/// Tuning knobs for disk-backed storage. Degenerate values are
/// guarded, not trusted: a zero cache capacity disables the buffer
/// cache (it never divides by it), and the WAL compaction threshold
/// is floored so a zero or tiny setting cannot make every commit
/// rewrite every segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageOptions {
    /// Buffer-cache page size in bytes (floored to
    /// [`StorageOptions::MIN_PAGE_SIZE`]).
    pub page_size: usize,
    /// Buffer-cache capacity in pages. `0` disables the cache
    /// entirely: every segment read goes to the file.
    pub cache_pages: usize,
    /// WAL size (bytes) past which a sync triggers compaction —
    /// delta-backed versions are folded into full segment files and
    /// the WAL is truncated. Floored to
    /// [`StorageOptions::MIN_WAL_COMPACT_BYTES`].
    pub wal_compact_bytes: u64,
}

impl StorageOptions {
    /// Smallest accepted page size.
    pub const MIN_PAGE_SIZE: usize = 512;
    /// Smallest accepted WAL compaction threshold.
    pub const MIN_WAL_COMPACT_BYTES: u64 = 4096;

    /// Copy with the documented floors applied.
    pub fn clamped(self) -> Self {
        StorageOptions {
            page_size: self.page_size.max(Self::MIN_PAGE_SIZE),
            cache_pages: self.cache_pages,
            wal_compact_bytes: self.wal_compact_bytes.max(Self::MIN_WAL_COMPACT_BYTES),
        }
    }
}

impl Default for StorageOptions {
    fn default() -> Self {
        StorageOptions {
            page_size: 4096,
            cache_pages: 256,
            wal_compact_bytes: 16 * 1024 * 1024,
        }
    }
}

/// A point-in-time report of a backend's footprint, surfaced as the
/// `storage` block of `GET /stats` and the `fgcite_storage_*` metric
/// families.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageStats {
    /// Which backend produced the report.
    pub kind: StorageKind,
    /// Versions the backend has persisted.
    pub versions: usize,
    /// Versions stored as full segment files.
    pub segments: usize,
    /// Versions stored as WAL delta records.
    pub wal_records: usize,
    /// Current WAL length in bytes.
    pub wal_bytes: u64,
    /// Total bytes on disk (manifest + segments + WAL).
    pub disk_bytes: u64,
    /// Buffer-cache capacity in pages (0 = disabled).
    pub cache_pages: usize,
    /// Buffer-cache hits.
    pub cache_hits: u64,
    /// Buffer-cache misses.
    pub cache_misses: u64,
    /// Completed compactions.
    pub compactions: u64,
}

impl StorageStats {
    /// An all-zero report for the in-memory backend.
    pub fn mem(versions: usize) -> Self {
        StorageStats {
            kind: StorageKind::Mem,
            versions,
            segments: 0,
            wal_records: 0,
            wal_bytes: 0,
            disk_bytes: 0,
            cache_pages: 0,
            cache_hits: 0,
            cache_misses: 0,
            compactions: 0,
        }
    }

    /// Buffer-cache hit rate in `[0, 1]`; `0.0` when the cache has
    /// seen no traffic (never divides by zero).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// A durability self-report, surfaced as the `degraded` flag and
/// `causes` list of disk-backed roles' `GET /healthz`. Backends with
/// nothing on disk (e.g. [`MemStorage`]) report `None` from
/// [`Storage::health`] and stay out of the health check entirely.
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

/// A backend that persists (or mirrors) a [`VersionedDatabase`].
///
/// Implementations are shared behind `Arc<dyn Storage>` across
/// engines, servers, and CLI paths; every method takes `&self`.
pub trait Storage: Send + Sync + fmt::Debug {
    /// Which backend this is.
    fn kind(&self) -> StorageKind;

    /// Persist every version of `history` the backend has not yet
    /// seen. Idempotent: syncing the same history twice writes
    /// nothing the second time. Errors if `history` is not an
    /// append-only extension of what was previously synced (the
    /// backend refuses to silently fork its system of record):
    /// overlapping versions are verified by metadata *and* snapshot
    /// content — Arc-shared snapshots make the content check a
    /// pointer comparison in the common case. One documented gap:
    /// [`DiskStorage`] freshly opened over an existing manifest has
    /// no in-memory mirror until [`Storage::load_history`] runs, so
    /// until then its overlap check is metadata-only.
    fn sync(&self, history: &VersionedDatabase) -> Result<()>;

    /// Reconstruct the full persisted version chain. For
    /// [`DiskStorage`] this is the cold-start path: segments are read
    /// through the buffer cache and delta-backed versions are
    /// replayed, reproducing the snapshots, their deltas and the
    /// relations they share.
    fn load_history(&self) -> Result<VersionedDatabase>;

    /// Footprint report.
    fn stats(&self) -> StorageStats;

    /// Fold delta-backed versions into full segment files and
    /// truncate the WAL. A no-op for backends without a WAL. Runs
    /// automatically when a sync pushes the WAL past
    /// [`StorageOptions::wal_compact_bytes`].
    fn compact(&self) -> Result<()>;

    /// Durability self-report for `/healthz`. `None` (the default)
    /// means the backend has no durability story to degrade — only
    /// disk-backed implementations return `Some`.
    fn health(&self) -> Option<StorageHealth> {
        None
    }
}

/// Open a storage backend. `dir` is required for (and only used by)
/// [`StorageKind::Disk`]; a missing or unwritable directory is a
/// structured [`RelationError::Storage`], not a panic.
pub fn open(
    kind: StorageKind,
    dir: Option<&Path>,
    options: StorageOptions,
) -> Result<Arc<dyn Storage>> {
    match kind {
        StorageKind::Mem => Ok(Arc::new(MemStorage::new())),
        StorageKind::Disk => {
            let dir = dir.ok_or_else(|| {
                RelationError::Storage(
                    "disk storage requires a data directory (pass --data-dir)".into(),
                )
            })?;
            // Route every byte through the process-wide fault plane
            // so CLI-armed `storage.*` points reach production disk
            // I/O; an inactive plane costs one relaxed atomic load
            // per operation.
            let vfs = Arc::new(FaultVfs::over_real(fgc_fault::global_arc()));
            Ok(Arc::new(DiskStorage::open_with_vfs(dir, options, vfs)?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_str() {
        for kind in [StorageKind::Mem, StorageKind::Disk] {
            assert_eq!(kind.to_string().parse::<StorageKind>().unwrap(), kind);
        }
        assert!(matches!(
            "lsm".parse::<StorageKind>(),
            Err(RelationError::Storage(_))
        ));
    }

    #[test]
    fn options_floors_apply() {
        let opts = StorageOptions {
            page_size: 0,
            cache_pages: 0,
            wal_compact_bytes: 0,
        }
        .clamped();
        assert_eq!(opts.page_size, StorageOptions::MIN_PAGE_SIZE);
        assert_eq!(opts.cache_pages, 0, "0 cache pages means disabled, kept");
        assert_eq!(
            opts.wal_compact_bytes,
            StorageOptions::MIN_WAL_COMPACT_BYTES
        );
    }

    #[test]
    fn hit_rate_guards_division_by_zero() {
        let mut stats = StorageStats::mem(3);
        assert_eq!(stats.cache_hit_rate(), 0.0);
        stats.cache_hits = 3;
        stats.cache_misses = 1;
        assert_eq!(stats.cache_hit_rate(), 0.75);
    }

    #[test]
    fn open_disk_without_dir_is_a_structured_error() {
        let err = open(StorageKind::Disk, None, StorageOptions::default()).unwrap_err();
        assert!(err.to_string().contains("--data-dir"), "{err}");
    }
}
