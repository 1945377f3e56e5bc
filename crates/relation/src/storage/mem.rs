//! The in-memory reference backend.
//!
//! [`MemSegment`] is the row store carved out of [`crate::Relation`]:
//! rows in insertion order, the set-semantics guard, the primary-key
//! index, and secondary postings. `Relation` delegates every data
//! operation to it, so the segment is the single definition of
//! insert/remove/probe semantics that both backends rely on —
//! [`crate::storage::DiskStorage`] reconstructs relations by feeding
//! persisted rows back through the same segment code, which is why a
//! reloaded relation is structurally identical (same row order, same
//! index state) to the one that was persisted.
//!
//! [`MemStorage`] is the trivial [`Storage`] implementation: a
//! mirror of the synced history (snapshots are `Arc`-shared with the
//! caller, so the mirror costs pointers, not copies). It persists
//! nothing across processes — exactly the pre-refactor behavior.

use super::{Storage, StorageKind, StorageStats};
use crate::error::{RelationError, Result};
use crate::schema::RelationSchema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::version::VersionedDatabase;
use std::collections::HashMap;
use std::sync::Mutex;

/// An in-memory row segment: ordered rows plus the hash indexes the
/// evaluator probes. Constraint *checking* stays in
/// [`crate::Relation`] (which owns the schema); the segment enforces
/// set semantics and key uniqueness given the schema it is handed.
#[derive(Debug, Clone, Default)]
pub struct MemSegment {
    /// All tuples in insertion order — the global order evaluation,
    /// sharding, and citations rely on.
    rows: Vec<Tuple>,
    /// Set-semantics guard: every stored row, for O(1) duplicate
    /// checks. Values are row positions.
    row_set: HashMap<Tuple, usize>,
    /// Primary-key index: key projection -> row position.
    key_index: HashMap<Tuple, usize>,
    /// Secondary postings: column -> (value -> row positions, in
    /// ascending order).
    secondary: HashMap<usize, HashMap<Value, Vec<usize>>>,
}

impl MemSegment {
    /// An empty segment.
    pub fn new() -> Self {
        MemSegment::default()
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the segment empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All tuples in insertion order.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Whether an identical tuple is stored.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.row_set.contains_key(tuple)
    }

    /// Look up a row by primary-key projection.
    pub fn get_by_key(&self, key: &Tuple) -> Option<&Tuple> {
        self.key_index.get(key).map(|&i| &self.rows[i])
    }

    /// Insert a tuple whose shape has already been checked against
    /// `schema`. Duplicate tuples are ignored (set semantics);
    /// duplicate *keys* with different non-key columns are an error.
    /// Returns `true` if the tuple was actually added.
    pub fn insert(&mut self, schema: &RelationSchema, tuple: Tuple) -> Result<bool> {
        if self.row_set.contains_key(&tuple) {
            return Ok(false);
        }
        if schema.has_key() {
            let key = tuple.project(&schema.key);
            if self.key_index.contains_key(&key) {
                return Err(RelationError::KeyViolation {
                    relation: schema.name.clone(),
                    key: key.to_string(),
                });
            }
            self.key_index.insert(key, self.rows.len());
        }
        let pos = self.rows.len();
        for (&col, index) in &mut self.secondary {
            index.entry(tuple[col].clone()).or_default().push(pos);
        }
        self.row_set.insert(tuple.clone(), pos);
        self.rows.push(tuple);
        Ok(true)
    }

    /// Remove a stored tuple. Returns `true` if it was present.
    ///
    /// Removal preserves insertion order for the surviving rows: the
    /// row is taken out of the middle and every stored position past
    /// it shifts down — O(rows + index entries) per removal, the
    /// right trade for curated databases whose commits remove a
    /// handful of tuples.
    pub fn remove(&mut self, schema: &RelationSchema, tuple: &Tuple) -> bool {
        let Some(pos) = self.row_set.remove(tuple) else {
            return false;
        };
        self.rows.remove(pos);
        if schema.has_key() {
            self.key_index.remove(&tuple.project(&schema.key));
        }
        for p in self.row_set.values_mut() {
            if *p > pos {
                *p -= 1;
            }
        }
        for p in self.key_index.values_mut() {
            if *p > pos {
                *p -= 1;
            }
        }
        for (&col, index) in &mut self.secondary {
            if let Some(list) = index.get_mut(&tuple[col]) {
                list.retain(|&p| p != pos);
                if list.is_empty() {
                    index.remove(&tuple[col]);
                }
            }
            for list in index.values_mut() {
                for p in list {
                    if *p > pos {
                        *p -= 1;
                    }
                }
            }
        }
        true
    }

    /// Ensure a secondary posting list exists on `column` (assumed in
    /// range).
    pub fn build_index(&mut self, column: usize) {
        let rows = &self.rows;
        self.secondary.entry(column).or_insert_with(|| {
            let mut index: HashMap<Value, Vec<usize>> = HashMap::new();
            for (pos, row) in rows.iter().enumerate() {
                index.entry(row[column].clone()).or_default().push(pos);
            }
            index
        });
    }

    /// Columns with a secondary index, ascending.
    pub fn indexed_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.secondary.keys().copied().collect();
        cols.sort_unstable();
        cols
    }

    /// Row positions whose `column` equals `value`, using a secondary
    /// index if one exists, otherwise `None` (caller should scan).
    pub fn probe(&self, column: usize, value: &Value) -> Option<&[usize]> {
        self.secondary
            .get(&column)
            .map(|idx| idx.get(value).map(Vec::as_slice).unwrap_or(&[]))
    }

    /// Rough resident size in bytes: row payloads plus the hash-map
    /// entries of the set guard, key index, and secondary postings.
    /// An estimate (hash-table load factors and allocator slack are
    /// not modeled), intended for relative memory reporting.
    pub fn approx_bytes(&self) -> usize {
        let rows: usize = self.rows.iter().map(Tuple::approx_bytes).sum();
        let entry = std::mem::size_of::<(Tuple, usize)>();
        let row_set = self.row_set.len() * entry
            + self
                .row_set
                .keys()
                .map(|t| t.approx_bytes() - std::mem::size_of::<Tuple>())
                .sum::<usize>();
        let key_index = self.key_index.len() * entry
            + self
                .key_index
                .keys()
                .map(|t| t.approx_bytes() - std::mem::size_of::<Tuple>())
                .sum::<usize>();
        let secondary: usize = self
            .secondary
            .values()
            .map(|idx| {
                idx.iter()
                    .map(|(v, list)| {
                        std::mem::size_of::<Value>()
                            + v.heap_bytes()
                            + list.len() * std::mem::size_of::<usize>()
                    })
                    .sum::<usize>()
            })
            .sum();
        rows + row_set + key_index + secondary
    }
}

/// The in-memory [`Storage`] backend: a mirror of the synced history.
#[derive(Debug, Default)]
pub struct MemStorage {
    history: Mutex<VersionedDatabase>,
}

impl MemStorage {
    /// An empty in-memory backend.
    pub fn new() -> Self {
        MemStorage::default()
    }
}

impl Storage for MemStorage {
    fn kind(&self) -> StorageKind {
        StorageKind::Mem
    }

    fn sync(&self, history: &VersionedDatabase) -> Result<()> {
        let mut mirror = self.history.lock().expect("mem storage poisoned");
        if history.len() < mirror.len() {
            return Err(RelationError::Storage(format!(
                "history has {} versions but {} were already synced",
                history.len(),
                mirror.len()
            )));
        }
        // Refuse to fork: every already-synced version must match,
        // metadata and content. Snapshots are Arc-shared, so the
        // common case is a pointer comparison per version.
        for (i, (info, db)) in mirror.iter().enumerate() {
            let (new_info, new_db) = history.snapshot(i as crate::version::VersionId)?;
            if new_info != info {
                return Err(RelationError::Storage(format!(
                    "history diverged from the synced chain at version {i}"
                )));
            }
            if !std::sync::Arc::ptr_eq(new_db, db) && !new_db.content_eq(db) {
                return Err(RelationError::Storage(format!(
                    "history diverged from the synced chain at version {i} \
                     (same metadata, different content)"
                )));
            }
        }
        // Snapshots are Arc-shared: this mirrors pointers, not data.
        *mirror = history.clone();
        Ok(())
    }

    fn load_history(&self) -> Result<VersionedDatabase> {
        Ok(self.history.lock().expect("mem storage poisoned").clone())
    }

    fn stats(&self) -> StorageStats {
        StorageStats::mem(self.history.lock().expect("mem storage poisoned").len())
    }

    fn compact(&self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
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
    fn mem_storage_mirrors_and_reloads() {
        let storage = MemStorage::new();
        let mut h = VersionedDatabase::new();
        h.commit(base(), 100, "v0").unwrap();
        storage.sync(&h).unwrap();
        h.commit_with(200, "v1", |db| db.insert("R", tuple![1]).map(|_| ()))
            .unwrap();
        storage.sync(&h).unwrap();
        // idempotent
        storage.sync(&h).unwrap();
        let loaded = storage.load_history().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.snapshot(1).unwrap().1.total_tuples(), 1);
        assert!(loaded.delta(1).is_some());
        assert_eq!(storage.stats().versions, 2);
        assert_eq!(storage.stats().kind, StorageKind::Mem);
    }

    #[test]
    fn mem_storage_rejects_forked_content_with_matching_metadata() {
        let storage = MemStorage::new();
        let mut h = VersionedDatabase::new();
        h.commit(base(), 100, "v0").unwrap();
        h.commit_with(200, "v1", |db| db.insert("R", tuple![1]).map(|_| ()))
            .unwrap();
        storage.sync(&h).unwrap();
        // same infos (timestamps + labels), different tuple data
        let mut fork = VersionedDatabase::new();
        fork.commit(base(), 100, "v0").unwrap();
        fork.commit_with(200, "v1", |db| db.insert("R", tuple![2]).map(|_| ()))
            .unwrap();
        fork.commit_with(300, "v2", |_| Ok(())).unwrap();
        let err = storage.sync(&fork).unwrap_err();
        assert!(err.to_string().contains("different content"), "{err}");
    }

    #[test]
    fn mem_storage_rejects_shrunk_history() {
        let storage = MemStorage::new();
        let mut h = VersionedDatabase::new();
        h.commit(base(), 100, "v0").unwrap();
        h.commit_with(200, "v1", |_| Ok(())).unwrap();
        storage.sync(&h).unwrap();
        let mut shorter = VersionedDatabase::new();
        shorter.commit(base(), 100, "v0").unwrap();
        assert!(matches!(
            storage.sync(&shorter).unwrap_err(),
            RelationError::Storage(_)
        ));
    }
}
