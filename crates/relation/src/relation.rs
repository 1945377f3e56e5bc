//! A single relation instance: schema + set of tuples + indexes.
//!
//! Storage is a row store with set semantics (the paper's model is
//! set-based conjunctive queries): rows in insertion order, a set
//! guard, a hash index over the primary key that enforces key
//! constraints, and secondary hash indexes over arbitrary columns,
//! built on demand and used by the query evaluator for
//! index-nested-loop joins. The disk store
//! ([`crate::storage::DiskStorage`]) reloads a relation by feeding its
//! persisted rows back through [`Relation::insert`], which is why a
//! reloaded relation is structurally identical (same row order, same
//! index state) to the one that was persisted.

use crate::error::{RelationError, Result};
use crate::schema::RelationSchema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The last instance id handed out; ids are never reused.
static LAST_INSTANCE: AtomicU64 = AtomicU64::new(0);

/// A process-wide id no relation has held before (never 0).
fn fresh_instance() -> u64 {
    // Relaxed: the id publishes no other data, and `fetch_add` alone
    // makes every id distinct
    LAST_INSTANCE.fetch_add(1, Ordering::Relaxed) + 1
}

/// One relation instance.
#[derive(Debug)]
pub struct Relation {
    /// This instance's identity (see [`Relation::instance`]).
    instance: u64,
    schema: Arc<RelationSchema>,
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

impl Relation {
    /// Empty relation with the given schema.
    pub fn new(schema: Arc<RelationSchema>) -> Self {
        Relation {
            instance: fresh_instance(),
            schema,
            rows: Vec::new(),
            row_set: HashMap::new(),
            key_index: HashMap::new(),
            secondary: HashMap::new(),
        }
    }

    /// This instance's identity: drawn from one process-wide counter
    /// when the relation is constructed or cloned, and again whenever
    /// a stored relation is handed out for mutation
    /// ([`crate::Database::relation_mut`]); an `Arc`-shared relation
    /// keeps it. Ids are never reused, so a value cached under an id
    /// was computed from these very rows. Not persisted, and not a
    /// content hash: equal rows may carry different ids.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// Take a fresh [`Self::instance`] id: the rows are about to
    /// change.
    pub(crate) fn renew_instance(&mut self) {
        self.instance = fresh_instance();
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<RelationSchema> {
        &self.schema
    }

    /// Swap in a replacement schema (same shape; see
    /// [`crate::schema::Catalog::replace`]). Stored rows and indexes
    /// are untouched — only constraint metadata may differ.
    pub(crate) fn set_schema(&mut self, schema: Arc<RelationSchema>) {
        debug_assert_eq!(self.schema.attributes, schema.attributes);
        self.schema = schema;
    }

    /// Relation name (shorthand).
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All tuples in insertion order.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Iterate over tuples.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.rows.iter()
    }

    /// Check arity and column types of a candidate tuple.
    fn check_shape(&self, tuple: &Tuple) -> Result<()> {
        if tuple.arity() != self.schema.arity() {
            return Err(RelationError::ArityMismatch {
                relation: self.schema.name.clone(),
                expected: self.schema.arity(),
                actual: tuple.arity(),
            });
        }
        for (i, attr) in self.schema.attributes.iter().enumerate() {
            if !tuple[i].conforms_to(attr.ty) {
                return Err(RelationError::TypeMismatch {
                    relation: self.schema.name.clone(),
                    attribute: attr.name.clone(),
                    expected: attr.ty.to_string(),
                    actual: tuple[i].data_type().to_string(),
                });
            }
        }
        Ok(())
    }

    /// Insert a tuple. Duplicate tuples are ignored (set semantics);
    /// duplicate *keys* with different non-key columns are an error.
    /// Returns `true` if the tuple was actually added.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        self.check_shape(&tuple)?;
        if self.row_set.contains_key(&tuple) {
            return Ok(false);
        }
        if self.schema.has_key() {
            let key = tuple.project(&self.schema.key);
            if self.key_index.contains_key(&key) {
                return Err(RelationError::KeyViolation {
                    relation: self.schema.name.clone(),
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
    pub fn remove(&mut self, tuple: &Tuple) -> Result<bool> {
        self.check_shape(tuple)?;
        let Some(pos) = self.row_set.remove(tuple) else {
            return Ok(false);
        };
        self.rows.remove(pos);
        if self.schema.has_key() {
            self.key_index.remove(&tuple.project(&self.schema.key));
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
        Ok(true)
    }

    /// Whether an identical tuple is stored.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.row_set.contains_key(tuple)
    }

    /// Look up a row by primary key (key must match schema key arity).
    pub fn get_by_key(&self, key: &Tuple) -> Option<&Tuple> {
        self.key_index.get(key).map(|&i| &self.rows[i])
    }

    /// Ensure a secondary hash index exists on `column`.
    pub fn build_index(&mut self, column: usize) -> Result<()> {
        if column >= self.schema.arity() {
            return Err(RelationError::UnknownAttribute {
                relation: self.schema.name.clone(),
                attribute: format!("#{column}"),
            });
        }
        let rows = &self.rows;
        self.secondary.entry(column).or_insert_with(|| {
            let mut index: HashMap<Value, Vec<usize>> = HashMap::new();
            for (pos, row) in rows.iter().enumerate() {
                index.entry(row[column].clone()).or_default().push(pos);
            }
            index
        });
        Ok(())
    }

    /// Columns with a secondary hash index, in ascending order. Used
    /// to persist index state in segment files.
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
        let keys = |map: &HashMap<Tuple, usize>| -> usize {
            let payload = |t: &Tuple| t.approx_bytes() - std::mem::size_of::<Tuple>();
            map.len() * entry + map.keys().map(payload).sum::<usize>()
        };
        let secondary: usize = self
            .secondary
            .values()
            .flat_map(|idx| idx.iter())
            .map(|(v, list)| {
                std::mem::size_of::<Value>()
                    + v.heap_bytes()
                    + list.len() * std::mem::size_of::<usize>()
            })
            .sum();
        rows + keys(&self.row_set) + keys(&self.key_index) + secondary
    }
}

impl Clone for Relation {
    /// A deep copy under a fresh [`Relation::instance`] id.
    fn clone(&self) -> Self {
        Relation {
            instance: fresh_instance(),
            schema: Arc::clone(&self.schema),
            rows: self.rows.clone(),
            row_set: self.row_set.clone(),
            key_index: self.key_index.clone(),
            secondary: self.secondary.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tuple;
    use crate::value::DataType;

    fn family() -> Relation {
        let schema = RelationSchema::with_names(
            "Family",
            &[
                ("FID", DataType::Str),
                ("FName", DataType::Str),
                ("Type", DataType::Str),
            ],
            &["FID"],
        )
        .unwrap();
        Relation::new(Arc::new(schema))
    }

    #[test]
    fn insert_and_lookup_by_key() {
        let mut r = family();
        assert!(r.insert(tuple!["11", "Calcitonin", "gpcr"]).unwrap());
        assert_eq!(
            r.get_by_key(&tuple!["11"]),
            Some(&tuple!["11", "Calcitonin", "gpcr"])
        );
        assert_eq!(r.get_by_key(&tuple!["12"]), None);
    }

    #[test]
    fn duplicate_tuple_is_noop() {
        let mut r = family();
        assert!(r.insert(tuple!["11", "Calcitonin", "gpcr"]).unwrap());
        assert!(!r.insert(tuple!["11", "Calcitonin", "gpcr"]).unwrap());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn conflicting_key_rejected() {
        let mut r = family();
        r.insert(tuple!["11", "Calcitonin", "gpcr"]).unwrap();
        let err = r.insert(tuple!["11", "Other", "gpcr"]).unwrap_err();
        assert!(matches!(err, RelationError::KeyViolation { .. }));
    }

    #[test]
    fn arity_checked() {
        let mut r = family();
        let err = r.insert(tuple!["11", "x"]).unwrap_err();
        assert!(matches!(err, RelationError::ArityMismatch { .. }));
    }

    #[test]
    fn type_checked() {
        let mut r = family();
        let err = r.insert(tuple![11, "x", "y"]).unwrap_err();
        assert!(matches!(err, RelationError::TypeMismatch { .. }));
    }

    #[test]
    fn null_conforms_to_column_type() {
        let mut r = family();
        r.insert(tuple!["11", crate::value::Value::Null, "gpcr"])
            .unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn secondary_index_agrees_with_scan() {
        let mut r = family();
        r.insert(tuple!["11", "Calcitonin", "gpcr"]).unwrap();
        r.insert(tuple!["12", "Orexin", "gpcr"]).unwrap();
        r.insert(tuple!["13", "Kinase", "enzyme"]).unwrap();
        let gpcr = Value::str("gpcr");
        let scan: Vec<usize> = (0..r.len()).filter(|&i| r.rows()[i][2] == gpcr).collect();
        r.build_index(2).unwrap();
        assert_eq!(r.probe(2, &gpcr).unwrap(), scan);
        assert_eq!(scan.len(), 2);
    }

    #[test]
    fn index_maintained_by_later_inserts() {
        let mut r = family();
        r.build_index(2).unwrap();
        r.insert(tuple!["11", "Calcitonin", "gpcr"]).unwrap();
        assert_eq!(r.probe(2, &Value::str("gpcr")).unwrap().len(), 1);
        assert_eq!(r.probe(2, &Value::str("nope")).unwrap().len(), 0);
    }

    #[test]
    fn build_index_out_of_range() {
        let mut r = family();
        assert!(r.build_index(9).is_err());
    }

    #[test]
    fn remove_preserves_row_order_and_indexes() {
        let mut r = family();
        r.build_index(2).unwrap();
        r.insert(tuple!["11", "Calcitonin", "gpcr"]).unwrap();
        r.insert(tuple!["12", "Orexin", "gpcr"]).unwrap();
        r.insert(tuple!["13", "Kinase", "enzyme"]).unwrap();
        assert!(r.remove(&tuple!["11", "Calcitonin", "gpcr"]).unwrap());
        // order preserved, positions shifted
        assert_eq!(
            r.rows(),
            &[
                tuple!["12", "Orexin", "gpcr"],
                tuple!["13", "Kinase", "enzyme"]
            ]
        );
        assert_eq!(r.get_by_key(&tuple!["11"]), None);
        assert_eq!(
            r.get_by_key(&tuple!["12"]),
            Some(&tuple!["12", "Orexin", "gpcr"])
        );
        assert_eq!(r.probe(2, &Value::str("gpcr")).unwrap(), &[0]);
        assert_eq!(r.probe(2, &Value::str("enzyme")).unwrap(), &[1]);
        // the key can be reused after removal
        r.insert(tuple!["11", "Calcitonin-2", "gpcr"]).unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut r = family();
        r.insert(tuple!["11", "Calcitonin", "gpcr"]).unwrap();
        assert!(!r.remove(&tuple!["11", "Other", "gpcr"]).unwrap());
        assert_eq!(r.len(), 1);
        // shape is still checked
        assert!(r.remove(&tuple!["11"]).is_err());
    }

    #[test]
    fn index_build_while_recording_is_structural() {
        use crate::database::Database;
        use crate::delta::DatabaseDelta;
        let mut parent = Database::new();
        parent
            .create_relation((**family().schema()).clone())
            .unwrap();
        parent
            .insert("Family", tuple!["11", "Calcitonin", "gpcr"])
            .unwrap();
        let mut child = parent.clone();
        child
            .relation_mut("Family")
            .unwrap()
            .build_index(1)
            .unwrap();
        // a new index has no delta: consumers take the snapshot
        assert!(DatabaseDelta::between(&parent, &child).is_none());
        // re-building an existing index changes nothing
        let mut rebuilt = child.clone();
        rebuilt
            .relation_mut("Family")
            .unwrap()
            .build_index(1)
            .unwrap();
        assert!(DatabaseDelta::between(&child, &rebuilt).unwrap().is_empty());
    }

    #[test]
    fn instance_is_fresh_on_new_clone_and_mutation_and_kept_by_sharing() {
        use crate::database::Database;
        let (a, b) = (family(), family());
        assert_ne!(a.instance(), b.instance());
        let copy = a.clone();
        assert_ne!(copy.instance(), a.instance());
        assert_eq!(copy.rows(), a.rows());

        let mut db = Database::new();
        db.create_relation((**a.schema()).clone()).unwrap();
        let stored = db.relation("Family").unwrap().instance();
        // a clone of the database shares the relation, id and all
        let mut shared = db.clone();
        assert_eq!(shared.relation("Family").unwrap().instance(), stored);
        // mutation copies the shared relation under a new id ...
        shared
            .relation_mut("Family")
            .unwrap()
            .insert(tuple!["11", "Calcitonin", "gpcr"])
            .unwrap();
        let copied = shared.relation("Family").unwrap().instance();
        assert_ne!(copied, stored);
        assert_eq!(db.relation("Family").unwrap().instance(), stored);
        // ... and a sole owner's relation takes one too
        db.relation_mut("Family").unwrap();
        let renewed = db.relation("Family").unwrap().instance();
        assert!(renewed != stored && renewed != copied);
    }
}
