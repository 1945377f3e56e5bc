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
//! owns the schema and performs shape checking. Keeping the data
//! plane in one place is what lets the disk backend
//! ([`crate::storage::DiskStorage`]) reload a relation through the
//! exact same code path that built it.

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
}

impl Relation {
    /// Empty relation with the given schema.
    pub fn new(schema: Arc<RelationSchema>) -> Self {
        Relation {
            schema,
            segment: MemSegment::new(),
        }
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
        self.segment.insert(&self.schema, tuple)
    }

    /// Remove a stored tuple. Returns `true` if it was present.
    ///
    /// Removal preserves insertion order for the surviving rows (see
    /// [`MemSegment::remove`]).
    pub fn remove(&mut self, tuple: &Tuple) -> Result<bool> {
        self.check_shape(tuple)?;
        Ok(self.segment.remove(&self.schema, tuple))
    }

    /// Whether an identical tuple is stored.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.segment.contains(tuple)
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
        self.segment.build_index(column);
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
        parent.adopt_relation_arc(Arc::new(family())).unwrap();
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
}
