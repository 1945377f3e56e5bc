//! Error types for the relational substrate.

use std::fmt;

/// Errors raised by schema validation, data loading, and integrity
/// enforcement in the relational substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationError {
    /// A relation name was looked up but is not present in the catalog.
    UnknownRelation(String),
    /// An attribute name was looked up but is not part of the schema.
    UnknownAttribute {
        /// Relation in which the attribute was sought.
        relation: String,
        /// The missing attribute.
        attribute: String,
    },
    /// A tuple's arity does not match its relation schema.
    ArityMismatch {
        /// Relation being inserted into.
        relation: String,
        /// Arity declared by the schema.
        expected: usize,
        /// Arity of the offending tuple.
        actual: usize,
    },
    /// A tuple's value has the wrong type for its column.
    TypeMismatch {
        /// Relation being inserted into.
        relation: String,
        /// Attribute with the mismatched value.
        attribute: String,
        /// Type declared by the schema.
        expected: String,
        /// Type of the offending value.
        actual: String,
    },
    /// Inserting a tuple would duplicate an existing primary key.
    KeyViolation {
        /// Relation being inserted into.
        relation: String,
        /// Rendered key values.
        key: String,
    },
    /// A foreign key points at a non-existent referenced tuple.
    ForeignKeyViolation {
        /// Referencing relation.
        relation: String,
        /// Referenced relation.
        references: String,
        /// Rendered dangling key values.
        key: String,
    },
    /// A schema definition is internally inconsistent.
    InvalidSchema(String),
    /// A relation with this name already exists in the catalog.
    DuplicateRelation(String),
    /// Errors from the plain-text loader.
    Parse {
        /// 1-based line number of the offending input line.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// A version id was requested that does not exist.
    UnknownVersion(u64),
    /// A commit delta could not be replayed: one of its ops had no
    /// effect, so the base database is not the delta's parent.
    DeltaMismatch(String),
    /// A storage backend failed: unusable data directory, corrupt
    /// manifest/segment/WAL, or a history that diverged from the
    /// persisted chain.
    Storage(String),
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            RelationError::UnknownAttribute {
                relation,
                attribute,
            } => write!(f, "unknown attribute `{attribute}` in relation `{relation}`"),
            RelationError::ArityMismatch {
                relation,
                expected,
                actual,
            } => write!(
                f,
                "arity mismatch for `{relation}`: schema has {expected} attributes, tuple has {actual}"
            ),
            RelationError::TypeMismatch {
                relation,
                attribute,
                expected,
                actual,
            } => write!(
                f,
                "type mismatch for `{relation}.{attribute}`: expected {expected}, got {actual}"
            ),
            RelationError::KeyViolation { relation, key } => {
                write!(f, "key violation in `{relation}`: duplicate key {key}")
            }
            RelationError::ForeignKeyViolation {
                relation,
                references,
                key,
            } => write!(
                f,
                "foreign key violation: `{relation}` references `{references}` with missing key {key}"
            ),
            RelationError::InvalidSchema(msg) => write!(f, "invalid schema: {msg}"),
            RelationError::DuplicateRelation(name) => {
                write!(f, "relation `{name}` already exists")
            }
            RelationError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            RelationError::UnknownVersion(v) => write!(f, "unknown database version {v}"),
            RelationError::DeltaMismatch(msg) => write!(f, "delta not applicable: {msg}"),
            RelationError::Storage(msg) => write!(f, "storage error: {msg}"),
        }
    }
}

impl std::error::Error for RelationError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, RelationError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_relation() {
        let err = RelationError::UnknownRelation("Family".into());
        assert_eq!(err.to_string(), "unknown relation `Family`");
    }

    #[test]
    fn display_arity_mismatch_mentions_counts() {
        let err = RelationError::ArityMismatch {
            relation: "Person".into(),
            expected: 3,
            actual: 2,
        };
        let msg = err.to_string();
        assert!(msg.contains("Person"));
        assert!(msg.contains('3'));
        assert!(msg.contains('2'));
    }

    #[test]
    fn display_fk_violation() {
        let err = RelationError::ForeignKeyViolation {
            relation: "FC".into(),
            references: "Family".into(),
            key: "(\"99\")".into(),
        };
        assert!(err.to_string().contains("FC"));
        assert!(err.to_string().contains("Family"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            RelationError::UnknownVersion(4),
            RelationError::UnknownVersion(4)
        );
        assert_ne!(
            RelationError::UnknownVersion(4),
            RelationError::UnknownVersion(5)
        );
    }
}
