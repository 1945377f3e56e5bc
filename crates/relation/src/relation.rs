//! A single relation instance: schema + set of tuples + indexes.
//!
//! Storage is a row store with set semantics (the paper's model is
//! set-based conjunctive queries). A hash index over the primary key
//! enforces key constraints; secondary hash indexes over arbitrary
//! columns are built on demand and used by the query evaluator for
//! index-nested-loop joins.
//!
//! The row store itself — rows, set guard, key index, secondary
//! postings — lives in [`crate::storage::MemSegment`]; `Relation`
//! owns the schema, performs shape checking, and records the
//! effective-op log for commit deltas. Keeping the data plane in one
//! place is what lets the disk backend
//! ([`crate::storage::DiskStorage`]) reload a relation through the
//! exact same code path that built it.

use crate::delta::{DeltaOp, RelationLog};
use crate::error::{RelationError, Result};
use crate::schema::RelationSchema;
use crate::storage::MemSegment;
use crate::tuple::Tuple;
use crate::value::Value;
use std::sync::Arc;

/// One relation instance.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Arc<RelationSchema>,
    /// The row store: rows in insertion order plus hash indexes.
    segment: MemSegment,
    /// Effective-op log, recording while the owning database captures
    /// a commit delta (see [`crate::Database::begin_delta`]). Lives
    /// here rather than on the database so mutations through
    /// [`crate::Database::relation_mut`] are captured too.
    log: Option<RelationLog>,
}

impl Relation {
    /// Empty relation with the given schema.
    pub fn new(schema: Arc<RelationSchema>) -> Self {
        Relation {
            schema,
            segment: MemSegment::new(),
            log: None,
        }
    }

    /// Start recording effective ops (idempotent: an active log is
    /// kept).
    pub(crate) fn start_recording(&mut self) {
        if self.log.is_none() {
            self.log = Some(RelationLog::default());
        }
    }

    /// Stop recording and hand back the log (`None` when recording
    /// was never started).
    pub(crate) fn take_log(&mut self) -> Option<RelationLog> {
        self.log.take()
    }

    /// Whether an effective-op log is attached (i.e. this relation
    /// saw a mutable access since recording began).
    pub(crate) fn has_log(&self) -> bool {
        self.log.is_some()
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
        self.segment.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.segment.is_empty()
    }

    /// All tuples in insertion order.
    pub fn rows(&self) -> &[Tuple] {
        self.segment.rows()
    }

    /// Iterate over tuples.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.segment.rows().iter()
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
        if !self.segment.insert(&self.schema, tuple.clone())? {
            return Ok(false);
        }
        if let Some(log) = &mut self.log {
            log.ops.push(DeltaOp::Insert(tuple));
        }
        Ok(true)
    }

    /// Remove a stored tuple. Returns `true` if it was present.
    ///
    /// Removal preserves insertion order for the surviving rows (see
    /// [`MemSegment::remove`]).
    pub fn remove(&mut self, tuple: &Tuple) -> Result<bool> {
        self.check_shape(tuple)?;
        if !self.segment.remove(&self.schema, tuple) {
            return Ok(false);
        }
        if let Some(log) = &mut self.log {
            log.ops.push(DeltaOp::Remove(tuple.clone()));
        }
        Ok(true)
    }

    /// Whether an identical tuple is stored.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.segment.contains(tuple)
    }

    /// The row position of a stored tuple, if present.
    pub fn position_of(&self, tuple: &Tuple) -> Option<usize> {
        self.segment.position_of(tuple)
    }

    /// Look up a row by primary key (key must match schema key arity).
    pub fn get_by_key(&self, key: &Tuple) -> Option<&Tuple> {
        self.segment.get_by_key(key)
    }

    /// Ensure a secondary hash index exists on `column` and return it.
    pub fn build_index(&mut self, column: usize) -> Result<()> {
        if column >= self.schema.arity() {
            return Err(RelationError::UnknownAttribute {
                relation: self.schema.name.clone(),
                attribute: format!("#{column}"),
            });
        }
        if self.segment.build_index(column) {
            if let Some(log) = &mut self.log {
                // a mid-commit index build changes evaluation structure
                // in a way op replay cannot reproduce: force a rebuild
                log.structural = true;
            }
        }
        Ok(())
    }

    /// Columns with a secondary hash index, in ascending order. Used
    /// to persist index state in segment files.
    pub fn indexed_columns(&self) -> Vec<usize> {
        self.segment.indexed_columns()
    }

    /// Row positions whose `column` equals `value`, using a secondary
    /// index if one exists, otherwise `None` (caller should scan).
    pub fn probe(&self, column: usize, value: &Value) -> Option<&[usize]> {
        self.segment.probe(column, value)
    }

    /// Rough resident size of this relation's data in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.segment.approx_bytes()
    }

    /// Rows whose `column` equals `value` (scans if no index exists).
    pub fn select_eq<'a>(&'a self, column: usize, value: &'a Value) -> Vec<&'a Tuple> {
        match self.probe(column, value) {
            Some(positions) => positions.iter().map(|&i| &self.rows()[i]).collect(),
            None => self
                .rows()
                .iter()
                .filter(|row| &row[column] == value)
                .collect(),
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
        let scan: Vec<_> = r
            .select_eq(2, &Value::str("gpcr"))
            .into_iter()
            .cloned()
            .collect();
        r.build_index(2).unwrap();
        let indexed: Vec<_> = r
            .select_eq(2, &Value::str("gpcr"))
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(scan, indexed);
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
    fn recording_captures_effective_ops_only() {
        use crate::delta::DeltaOp;
        let mut r = family();
        r.insert(tuple!["10", "Pre", "gpcr"]).unwrap();
        r.start_recording();
        r.insert(tuple!["11", "Calcitonin", "gpcr"]).unwrap();
        r.insert(tuple!["11", "Calcitonin", "gpcr"]).unwrap(); // duplicate: no-op
        r.remove(&tuple!["99", "Absent", "gpcr"]).unwrap(); // absent: no-op
        r.remove(&tuple!["10", "Pre", "gpcr"]).unwrap();
        let log = r.take_log().unwrap();
        assert_eq!(
            log.ops,
            vec![
                DeltaOp::Insert(tuple!["11", "Calcitonin", "gpcr"]),
                DeltaOp::Remove(tuple!["10", "Pre", "gpcr"]),
            ]
        );
        assert!(!log.structural);
        assert!(r.take_log().is_none());
    }

    #[test]
    fn index_build_while_recording_is_structural() {
        let mut r = family();
        r.start_recording();
        r.build_index(1).unwrap();
        assert!(r.take_log().unwrap().structural);
        // re-building an existing index is not structural
        let mut r2 = family();
        r2.build_index(1).unwrap();
        r2.start_recording();
        r2.build_index(1).unwrap();
        assert!(!r2.take_log().unwrap().structural);
    }
}
