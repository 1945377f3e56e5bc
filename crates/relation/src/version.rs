//! Versioned databases — the paper's *fixity* requirement (§4).
//!
//! > "data may evolve over time, and citations should bring back the
//! > data as seen at the time it was cited. Thus data sources must
//! > support versioning, and citations must include timestamps or
//! > version numbers."
//!
//! [`VersionedDatabase`] keeps an append-only chain of immutable
//! snapshots. Each commit stores a full [`Database`] clone behind an
//! `Arc`; at the scale of curated scientific databases (GtoPdb has
//! tens of versions, released quarterly) snapshot-per-version is the
//! honest baseline, and sharing `Arc<str>` values keeps copies cheap.
//!
//! Commits made through [`VersionedDatabase::commit_with`]
//! additionally record a [`DatabaseDelta`] — the effective inserts
//! and removals the commit performed — retrievable via
//! [`VersionedDatabase::delta`]. Consumers holding state for version
//! *v* (e.g. a citation engine) can replay the delta to reach *v+1*
//! instead of rebuilding from the snapshot (`tests/reproduce.rs`,
//! `claim_8_*`, counts what that path derives and shares).

use crate::database::Database;
use crate::delta::DatabaseDelta;
use crate::error::{RelationError, Result};
use std::fmt;
use std::sync::Arc;

/// Identifier of a committed version (0 = first commit).
pub type VersionId = u64;

/// Metadata attached to a committed version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionInfo {
    /// Sequential id, starting at 0.
    pub id: VersionId,
    /// Caller-supplied logical timestamp (e.g. seconds since epoch or
    /// a curation-release counter). Must be non-decreasing.
    pub timestamp: u64,
    /// Human-readable label, e.g. `"GtoPdb 23"`.
    pub label: String,
}

impl fmt::Display for VersionInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{} ({} @t={})", self.id, self.label, self.timestamp)
    }
}

/// One committed version: metadata, snapshot, and (when known) the
/// delta that produced it from its predecessor.
#[derive(Debug, Clone)]
struct VersionEntry {
    info: VersionInfo,
    snapshot: Arc<Database>,
    /// Recorded by [`VersionedDatabase::commit_with`]; `None` for
    /// snapshots committed whole (no parent lineage is known).
    delta: Option<Arc<DatabaseDelta>>,
}

/// An append-only chain of immutable database snapshots.
#[derive(Debug, Clone, Default)]
pub struct VersionedDatabase {
    versions: Vec<VersionEntry>,
}

impl VersionedDatabase {
    /// Empty history.
    pub fn new() -> Self {
        VersionedDatabase::default()
    }

    /// Commit a snapshot. Timestamps must be non-decreasing.
    pub fn commit(
        &mut self,
        db: Database,
        timestamp: u64,
        label: impl Into<String>,
    ) -> Result<VersionId> {
        if let Some(last) = self.versions.last() {
            if timestamp < last.info.timestamp {
                return Err(RelationError::InvalidSchema(format!(
                    "version timestamp {timestamp} precedes previous timestamp {}",
                    last.info.timestamp
                )));
            }
        }
        let id = self.versions.len() as VersionId;
        self.versions.push(VersionEntry {
            info: VersionInfo {
                id,
                timestamp,
                label: label.into(),
            },
            snapshot: Arc::new(db),
            delta: None,
        });
        Ok(id)
    }

    /// Derive the next version by mutating a copy of the head snapshot.
    ///
    /// The closure receives a working copy; the mutated copy becomes
    /// the new head. Errors from the closure abort the commit. The
    /// effective ops the closure performs are captured as the new
    /// version's [`delta`](Self::delta).
    pub fn commit_with<F>(
        &mut self,
        timestamp: u64,
        label: impl Into<String>,
        mutate: F,
    ) -> Result<VersionId>
    where
        F: FnOnce(&mut Database) -> Result<()>,
    {
        // Version 0 has no parent to replay from ([`Self::delta`]
        // documents `None` there), so don't record its ops at all —
        // the log of a from-scratch first commit can be as large as
        // the whole initial load.
        let (mut working, record) = match self.head() {
            Some((_, db)) => ((**db).clone(), true),
            None => (Database::new(), false),
        };
        if record {
            working.begin_delta();
        }
        mutate(&mut working)?;
        let delta = record.then(|| Arc::new(working.take_delta()));
        let id = self.commit(working, timestamp, label)?;
        self.versions[id as usize].delta = delta;
        Ok(id)
    }

    /// Append a version reconstructed by a storage backend: metadata,
    /// snapshot, and (when the backend preserved one) the delta that
    /// produced it. Enforces the same invariants as live commits —
    /// sequential ids and non-decreasing timestamps — so a reloaded
    /// chain is indistinguishable from the one that was persisted.
    pub(crate) fn restore(
        &mut self,
        info: VersionInfo,
        snapshot: Arc<Database>,
        delta: Option<Arc<DatabaseDelta>>,
    ) -> Result<()> {
        if info.id != self.versions.len() as VersionId {
            return Err(RelationError::Storage(format!(
                "restored version id {} out of order (expected {})",
                info.id,
                self.versions.len()
            )));
        }
        if let Some(last) = self.versions.last() {
            if info.timestamp < last.info.timestamp {
                return Err(RelationError::Storage(format!(
                    "restored version timestamp {} precedes previous timestamp {}",
                    info.timestamp, last.info.timestamp
                )));
            }
        }
        self.versions.push(VersionEntry {
            info,
            snapshot,
            delta,
        });
        Ok(())
    }

    /// Number of committed versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Is the history empty?
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// The most recent version, if any.
    pub fn head(&self) -> Option<(&VersionInfo, &Arc<Database>)> {
        self.versions.last().map(|e| (&e.info, &e.snapshot))
    }

    /// Snapshot by version id.
    pub fn snapshot(&self, id: VersionId) -> Result<(&VersionInfo, &Arc<Database>)> {
        self.versions
            .get(id as usize)
            .map(|e| (&e.info, &e.snapshot))
            .ok_or(RelationError::UnknownVersion(id))
    }

    /// The delta that produced version `id` from version `id - 1`.
    /// `None` when unknown: version 0, snapshots committed whole via
    /// [`commit`](Self::commit), or an id out of range.
    pub fn delta(&self, id: VersionId) -> Option<&Arc<DatabaseDelta>> {
        if id == 0 {
            return None;
        }
        self.versions.get(id as usize)?.delta.as_ref()
    }

    /// Latest version whose timestamp is `<= at` — "the data as seen
    /// at the time it was cited".
    pub fn snapshot_at(&self, at: u64) -> Option<(&VersionInfo, &Arc<Database>)> {
        // Versions are timestamp-sorted by construction: binary search.
        let idx = self.versions.partition_point(|e| e.info.timestamp <= at);
        idx.checked_sub(1)
            .map(|i| (&self.versions[i].info, &self.versions[i].snapshot))
    }

    /// Iterate over `(info, snapshot)` pairs oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = (&VersionInfo, &Arc<Database>)> {
        self.versions.iter().map(|e| (&e.info, &e.snapshot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tuple;
    use crate::value::DataType;

    fn base() -> Database {
        let mut db = Database::new();
        db.create_relation(
            RelationSchema::with_names("R", &[("x", DataType::Int)], &["x"]).unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn commit_and_snapshot() {
        let mut v = VersionedDatabase::new();
        let id0 = v.commit(base(), 100, "v0").unwrap();
        assert_eq!(id0, 0);
        let (info, db) = v.snapshot(0).unwrap();
        assert_eq!(info.label, "v0");
        assert_eq!(db.total_tuples(), 0);
    }

    #[test]
    fn commit_with_derives_from_head() {
        let mut v = VersionedDatabase::new();
        v.commit(base(), 100, "v0").unwrap();
        v.commit_with(200, "v1", |db| db.insert("R", tuple![1]).map(|_| ()))
            .unwrap();
        assert_eq!(v.snapshot(0).unwrap().1.total_tuples(), 0);
        assert_eq!(v.snapshot(1).unwrap().1.total_tuples(), 1);
    }

    #[test]
    fn snapshots_are_immutable_under_later_commits() {
        let mut v = VersionedDatabase::new();
        v.commit(base(), 100, "v0").unwrap();
        for ts in 1..5u64 {
            v.commit_with(100 + ts, format!("v{ts}"), |db| {
                db.insert("R", tuple![ts as i64]).map(|_| ())
            })
            .unwrap();
        }
        for (i, (_, db)) in v.iter().enumerate() {
            assert_eq!(db.total_tuples(), i);
        }
    }

    #[test]
    fn snapshot_at_picks_latest_not_after() {
        let mut v = VersionedDatabase::new();
        v.commit(base(), 100, "v0").unwrap();
        v.commit_with(200, "v1", |_| Ok(())).unwrap();
        v.commit_with(300, "v2", |_| Ok(())).unwrap();
        assert!(v.snapshot_at(99).is_none());
        assert_eq!(v.snapshot_at(100).unwrap().0.id, 0);
        assert_eq!(v.snapshot_at(250).unwrap().0.id, 1);
        assert_eq!(v.snapshot_at(1000).unwrap().0.id, 2);
    }

    #[test]
    fn decreasing_timestamp_rejected() {
        let mut v = VersionedDatabase::new();
        v.commit(base(), 100, "v0").unwrap();
        assert!(v.commit(base(), 50, "bad").is_err());
    }

    #[test]
    fn unknown_version_errors() {
        let v = VersionedDatabase::new();
        assert!(matches!(
            v.snapshot(3).unwrap_err(),
            RelationError::UnknownVersion(3)
        ));
    }

    #[test]
    fn commit_with_records_a_replayable_delta() {
        let mut v = VersionedDatabase::new();
        v.commit(base(), 100, "v0").unwrap();
        v.commit_with(200, "v1", |db| {
            db.insert("R", tuple![1]).map(|_| ())?;
            db.insert("R", tuple![2]).map(|_| ())
        })
        .unwrap();
        v.commit_with(300, "v2", |db| db.remove("R", &tuple![1]).map(|_| ()))
            .unwrap();
        let d1 = v.delta(1).expect("delta recorded");
        assert_eq!((d1.inserted(), d1.removed()), (2, 0));
        let d2 = v.delta(2).expect("delta recorded");
        assert_eq!((d2.inserted(), d2.removed()), (0, 1));
        // replaying delta 2 onto snapshot 1 reproduces snapshot 2
        let mut replayed = (**v.snapshot(1).unwrap().1).clone();
        replayed.apply_delta(d2).unwrap();
        assert!(replayed.content_eq(v.snapshot(2).unwrap().1));
        // plain commits and version 0 have no delta
        assert!(v.delta(0).is_none());
        assert!(v.delta(99).is_none());
        v.commit(base(), 400, "whole").unwrap();
        assert!(v.delta(3).is_none());
    }

    #[test]
    fn empty_commit_records_an_empty_delta() {
        let mut v = VersionedDatabase::new();
        v.commit(base(), 100, "v0").unwrap();
        v.commit_with(200, "v1", |_| Ok(())).unwrap();
        assert!(v.delta(1).unwrap().is_empty());
    }
}
