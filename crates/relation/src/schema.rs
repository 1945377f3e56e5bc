//! Relation schemas and the database catalog.
//!
//! The paper's GtoPdb schema (Example 2.1) drives the feature set:
//! named attributes, typed columns, primary keys (underlined in the
//! paper) and foreign keys (`FC.FID references Family`, ...).

use crate::error::{RelationError, Result};
use crate::value::DataType;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A single column declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name, unique within its relation.
    pub name: String,
    /// Declared type.
    pub ty: DataType,
}

impl Attribute {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Attribute {
            name: name.into(),
            ty,
        }
    }
}

/// A foreign-key constraint: `columns` of this relation reference the
/// primary key of `references`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing column positions (in this relation).
    pub columns: Vec<usize>,
    /// Name of the referenced relation (whose primary key is targeted).
    pub references: String,
}

/// Schema of one relation: name, attributes, optional primary key,
/// and foreign keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSchema {
    /// Relation name, unique within the catalog.
    pub name: String,
    /// Ordered attribute list.
    pub attributes: Vec<Attribute>,
    /// Positions of the primary-key columns (empty = no declared key).
    pub key: Vec<usize>,
    /// Foreign-key constraints.
    pub foreign_keys: Vec<ForeignKey>,
}

impl RelationSchema {
    /// Build a schema. Attribute names must be unique; key positions
    /// must be in range and duplicate-free.
    pub fn new(
        name: impl Into<String>,
        attributes: Vec<Attribute>,
        key: Vec<usize>,
    ) -> Result<Self> {
        let name = name.into();
        let mut seen = HashMap::new();
        for (i, attr) in attributes.iter().enumerate() {
            if let Some(prev) = seen.insert(attr.name.clone(), i) {
                return Err(RelationError::InvalidSchema(format!(
                    "attribute `{}` declared twice in `{name}` (positions {prev} and {i})",
                    attr.name
                )));
            }
        }
        let mut key_seen = vec![false; attributes.len()];
        for &k in &key {
            if k >= attributes.len() {
                return Err(RelationError::InvalidSchema(format!(
                    "key position {k} out of range for `{name}` (arity {})",
                    attributes.len()
                )));
            }
            if key_seen[k] {
                return Err(RelationError::InvalidSchema(format!(
                    "key position {k} repeated in `{name}`"
                )));
            }
            key_seen[k] = true;
        }
        Ok(RelationSchema {
            name,
            attributes,
            key,
            foreign_keys: Vec::new(),
        })
    }

    /// Convenience builder: all columns typed, key given by attribute
    /// names. `specs` is `(name, type)`, `key_names` must appear in it.
    pub fn with_names(
        name: impl Into<String>,
        specs: &[(&str, DataType)],
        key_names: &[&str],
    ) -> Result<Self> {
        let attributes = specs
            .iter()
            .map(|(n, t)| Attribute::new(*n, *t))
            .collect::<Vec<_>>();
        let name = name.into();
        let mut key = Vec::with_capacity(key_names.len());
        for k in key_names {
            let pos = attributes
                .iter()
                .position(|a| a.name == *k)
                .ok_or_else(|| RelationError::UnknownAttribute {
                    relation: name.clone(),
                    attribute: (*k).to_string(),
                })?;
            key.push(pos);
        }
        RelationSchema::new(name, attributes, key)
    }

    /// Add a foreign key by attribute names. Validation of the target
    /// key's arity happens when the schema is registered in a catalog.
    pub fn add_foreign_key(&mut self, columns: &[&str], references: &str) -> Result<()> {
        let mut positions = Vec::with_capacity(columns.len());
        for c in columns {
            positions.push(self.position(c)?);
        }
        self.foreign_keys.push(ForeignKey {
            columns: positions,
            references: references.to_string(),
        });
        Ok(())
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Position of an attribute by name.
    pub fn position(&self, attribute: &str) -> Result<usize> {
        self.attributes
            .iter()
            .position(|a| a.name == attribute)
            .ok_or_else(|| RelationError::UnknownAttribute {
                relation: self.name.clone(),
                attribute: attribute.to_string(),
            })
    }

    /// Attribute names in order.
    pub fn attribute_names(&self) -> impl Iterator<Item = &str> {
        self.attributes.iter().map(|a| a.name.as_str())
    }

    /// Whether the relation declares a primary key.
    pub fn has_key(&self) -> bool {
        !self.key.is_empty()
    }
}

impl fmt::Display for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            if self.key.contains(&i) {
                write!(f, "_{}_: {}", a.name, a.ty)?;
            } else {
                write!(f, "{}: {}", a.name, a.ty)?;
            }
        }
        f.write_str(")")
    }
}

/// The catalog: an immutable map from relation name to schema.
///
/// Schemas are `Arc`-shared between the catalog, relations, versions,
/// and query plans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Catalog {
    schemas: HashMap<String, Arc<RelationSchema>>,
    /// Insertion order, so iteration and dumps are deterministic.
    order: Vec<String>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a schema. Rejects duplicates and validates foreign-key
    /// targets that are already present (targets registered later are
    /// validated by [`Catalog::validate`]).
    pub fn add(&mut self, schema: RelationSchema) -> Result<Arc<RelationSchema>> {
        if self.schemas.contains_key(&schema.name) {
            return Err(RelationError::DuplicateRelation(schema.name));
        }
        let arc = Arc::new(schema);
        self.order.push(arc.name.clone());
        self.schemas.insert(arc.name.clone(), Arc::clone(&arc));
        Ok(arc)
    }

    /// Replace a registered schema with a modified one of the same
    /// name (e.g. to add foreign keys after creation). The attribute
    /// list and key must be unchanged.
    pub fn replace(&mut self, schema: RelationSchema) -> Result<Arc<RelationSchema>> {
        let existing = self.get(&schema.name)?;
        if existing.attributes != schema.attributes || existing.key != schema.key {
            return Err(RelationError::InvalidSchema(format!(
                "replace of `{}` may only change constraints, not shape",
                schema.name
            )));
        }
        let arc = Arc::new(schema);
        self.schemas.insert(arc.name.clone(), Arc::clone(&arc));
        Ok(arc)
    }

    /// Look up a schema by name.
    pub fn get(&self, name: &str) -> Result<&Arc<RelationSchema>> {
        self.schemas
            .get(name)
            .ok_or_else(|| RelationError::UnknownRelation(name.to_string()))
    }

    /// Whether a relation is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.schemas.contains_key(name)
    }

    /// Schemas in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<RelationSchema>> {
        self.order.iter().map(|n| &self.schemas[n])
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Is the catalog empty?
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Check that every foreign key references an existing relation
    /// with a declared primary key of matching arity.
    pub fn validate(&self) -> Result<()> {
        for schema in self.iter() {
            for fk in &schema.foreign_keys {
                let target = self.get(&fk.references)?;
                if !target.has_key() {
                    return Err(RelationError::InvalidSchema(format!(
                        "`{}` references `{}` which has no primary key",
                        schema.name, fk.references
                    )));
                }
                if target.key.len() != fk.columns.len() {
                    return Err(RelationError::InvalidSchema(format!(
                        "`{}` references `{}` with {} columns but its key has {}",
                        schema.name,
                        fk.references,
                        fk.columns.len(),
                        target.key.len()
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family_schema() -> RelationSchema {
        RelationSchema::with_names(
            "Family",
            &[
                ("FID", DataType::Str),
                ("FName", DataType::Str),
                ("Type", DataType::Str),
            ],
            &["FID"],
        )
        .unwrap()
    }

    #[test]
    fn with_names_resolves_key_positions() {
        let s = family_schema();
        assert_eq!(s.key, vec![0]);
        assert_eq!(s.arity(), 3);
        assert!(s.has_key());
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err =
            RelationSchema::with_names("R", &[("a", DataType::Int), ("a", DataType::Str)], &[])
                .unwrap_err();
        assert!(matches!(err, RelationError::InvalidSchema(_)));
    }

    #[test]
    fn key_position_out_of_range_rejected() {
        let err = RelationSchema::new("R", vec![Attribute::new("a", DataType::Int)], vec![3])
            .unwrap_err();
        assert!(matches!(err, RelationError::InvalidSchema(_)));
    }

    #[test]
    fn unknown_key_name_rejected() {
        let err = RelationSchema::with_names("R", &[("a", DataType::Int)], &["nope"]).unwrap_err();
        assert!(matches!(err, RelationError::UnknownAttribute { .. }));
    }

    #[test]
    fn catalog_rejects_duplicates() {
        let mut cat = Catalog::new();
        cat.add(family_schema()).unwrap();
        let err = cat.add(family_schema()).unwrap_err();
        assert!(matches!(err, RelationError::DuplicateRelation(_)));
    }

    #[test]
    fn catalog_validates_fk_targets() {
        let mut cat = Catalog::new();
        cat.add(family_schema()).unwrap();
        let mut fc = RelationSchema::with_names(
            "FC",
            &[("FID", DataType::Str), ("PID", DataType::Str)],
            &["FID", "PID"],
        )
        .unwrap();
        fc.add_foreign_key(&["FID"], "Family").unwrap();
        cat.add(fc).unwrap();
        cat.validate().unwrap();
    }

    #[test]
    fn catalog_validate_rejects_missing_target() {
        let mut cat = Catalog::new();
        let mut fc = RelationSchema::with_names("FC", &[("FID", DataType::Str)], &[]).unwrap();
        fc.add_foreign_key(&["FID"], "Family").unwrap();
        cat.add(fc).unwrap();
        assert!(matches!(
            cat.validate().unwrap_err(),
            RelationError::UnknownRelation(_)
        ));
    }

    #[test]
    fn catalog_validate_rejects_arity_mismatch() {
        let mut cat = Catalog::new();
        cat.add(family_schema()).unwrap();
        let mut r =
            RelationSchema::with_names("R", &[("a", DataType::Str), ("b", DataType::Str)], &[])
                .unwrap();
        r.add_foreign_key(&["a", "b"], "Family").unwrap();
        cat.add(r).unwrap();
        assert!(matches!(
            cat.validate().unwrap_err(),
            RelationError::InvalidSchema(_)
        ));
    }

    #[test]
    fn display_marks_key_columns() {
        let s = family_schema();
        let shown = s.to_string();
        assert!(shown.contains("_FID_"), "{shown}");
        assert!(shown.contains("FName: str"), "{shown}");
    }

    #[test]
    fn iteration_is_in_registration_order() {
        let mut cat = Catalog::new();
        cat.add(RelationSchema::with_names("B", &[("x", DataType::Int)], &[]).unwrap())
            .unwrap();
        cat.add(RelationSchema::with_names("A", &[("x", DataType::Int)], &[]).unwrap())
            .unwrap();
        let names: Vec<_> = cat.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, vec!["B", "A"]);
    }
}
