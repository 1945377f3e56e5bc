//! Commit deltas — what one version changed, as a diff of two
//! snapshots.
//!
//! A [`DatabaseDelta`] is derived from two immutable snapshots (the
//! paper's fixity, §4), never recorded while a commit runs.
//! [`DatabaseDelta::between`] skips every relation that is the same
//! `Arc` in parent and child and diffs each other one in a single
//! lockstep pass: the removals `R` in parent order, then the inserts
//! `I` in child order, so that child = parent − R ++ I. That holds as
//! [`crate::Relation::remove`] preserves the order of the surviving
//! rows and [`crate::Relation::insert`] appends; and as a relation's
//! index postings are a function of its rows and indexed columns,
//! [`crate::Database::apply_delta`] reproduces the child exactly:
//! same row order, same index state.
//!
//! A change that replay cannot express — a different catalog (a
//! relation created or adopted, a schema replaced) or a different set
//! of indexed columns on any relation — has no delta: `between`
//! returns `None`, and the disk backend persists that version whole.

use crate::database::Database;
use crate::tuple::Tuple;
use std::sync::Arc;

/// One effective mutation of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// The tuple was inserted (it was not stored before).
    Insert(Tuple),
    /// The tuple was removed (it was stored before).
    Remove(Tuple),
}

/// The ops that turn one relation of the parent into the child's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationDelta {
    /// Relation name.
    pub relation: String,
    /// Effective ops, replayed in order: every removal (parent order)
    /// before every insert (child order).
    pub ops: Vec<DeltaOp>,
}

/// Everything one commit changed, relation by relation.
///
/// Ops on *different* relations commute (inserts and removes never
/// consult other relations), so the per-relation deltas are kept in
/// catalog registration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatabaseDelta {
    pub(crate) relations: Vec<RelationDelta>,
}

impl DatabaseDelta {
    /// The ops that turn `parent` into `child`, or `None` when the
    /// catalogs or any relation's indexed columns differ. Relations
    /// that are the same `Arc` in both are skipped unread, and a
    /// relation whose rows came out equal has no entry.
    pub fn between(parent: &Database, child: &Database) -> Option<DatabaseDelta> {
        if parent.catalog() != child.catalog() {
            return None;
        }
        let mut relations = Vec::new();
        for (old, new) in parent.relation_arcs().zip(child.relation_arcs()) {
            if Arc::ptr_eq(old, new) {
                continue;
            }
            if old.indexed_columns() != new.indexed_columns() {
                return None;
            }
            let (parent_rows, child_rows) = (old.rows(), new.rows());
            let mut kept = 0;
            let mut ops = Vec::new();
            for row in parent_rows {
                if child_rows.get(kept) == Some(row) {
                    kept += 1;
                } else {
                    ops.push(DeltaOp::Remove(row.clone()));
                }
            }
            ops.extend(child_rows[kept..].iter().cloned().map(DeltaOp::Insert));
            if !ops.is_empty() {
                relations.push(RelationDelta {
                    relation: new.name().to_string(),
                    ops,
                });
            }
        }
        Some(DatabaseDelta { relations })
    }

    /// Per-relation deltas, catalog order. Relations the commit left
    /// unchanged are absent.
    pub fn relations(&self) -> impl Iterator<Item = &RelationDelta> {
        self.relations.iter()
    }

    /// Number of inserts.
    pub fn inserted(&self) -> usize {
        self.ops()
            .filter(|op| matches!(op, DeltaOp::Insert(_)))
            .count()
    }

    /// Number of removals.
    pub fn removed(&self) -> usize {
        self.ops().count() - self.inserted()
    }

    /// No ops (an empty commit).
    pub fn is_empty(&self) -> bool {
        self.ops().next().is_none()
    }

    fn ops(&self) -> impl Iterator<Item = &DeltaOp> {
        self.relations.iter().flat_map(|r| &r.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::DeltaOp::{Insert, Remove};
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tuple;
    use crate::value::DataType;

    /// `R(x)` holding 1..=4 with an index on `x`, and an empty `S(x)`.
    fn parent() -> Database {
        let mut db = Database::new();
        for name in ["R", "S"] {
            let schema = RelationSchema::with_names(name, &[("x", DataType::Int)], &[]).unwrap();
            db.create_relation(schema).unwrap();
        }
        db.insert_all("R", (1..=4).map(|i| tuple![i])).unwrap();
        db.relation_mut("R").unwrap().build_index(0).unwrap();
        db
    }

    /// The ops from `parent()` to what `mutate` makes of a copy, after
    /// checking that replaying them onto the parent gives that copy.
    fn diff(
        mutate: impl FnOnce(&mut Database) -> crate::error::Result<()>,
    ) -> Option<Vec<DeltaOp>> {
        let parent = parent();
        let mut child = parent.clone();
        mutate(&mut child).unwrap();
        let delta = DatabaseDelta::between(&parent, &child)?;
        let mut replayed = parent.clone();
        replayed.apply_delta(&delta).unwrap();
        assert!(replayed.content_eq(&child));
        assert_eq!(replayed.relation("R").unwrap().indexed_columns(), [0]);
        Some(delta.relations().flat_map(|r| r.ops.clone()).collect())
    }

    #[test]
    fn removals_in_parent_order_then_inserts_in_child_order() {
        let ops = diff(|db| {
            db.insert("R", tuple![9])?;
            db.remove("R", &tuple![3])?;
            db.insert("R", tuple![8])?;
            db.remove("R", &tuple![1]).map(drop)
        });
        let [r1, r3, i9, i8] = [1, 3, 9, 8].map(|x| tuple![x]);
        assert_eq!(
            ops.unwrap(),
            [Remove(r1), Remove(r3), Insert(i9), Insert(i8)]
        );
    }

    #[test]
    fn remove_then_reinsert_moves_the_row_to_the_end() {
        let ops = diff(|db| {
            db.remove("R", &tuple![2])?;
            db.insert("R", tuple![2]).map(drop)
        });
        assert_eq!(ops.unwrap(), [Remove(tuple![2]), Insert(tuple![2])]);
    }

    #[test]
    fn churn_that_cancels_out_has_no_ops() {
        // insert-then-remove of a fresh row, a duplicate insert, an
        // absent remove and a read-only touch of a copied relation
        let ops = diff(|db| {
            db.insert("R", tuple![7])?;
            db.remove("R", &tuple![7])?;
            assert!(!db.insert("R", tuple![1])?);
            assert!(!db.remove("S", &tuple![5])?);
            db.relation_mut("S").map(drop)
        });
        assert_eq!(ops.unwrap(), []);
    }

    #[test]
    fn counts_and_emptiness() {
        let parent = parent();
        let mut child = parent.clone();
        child.insert_all("R", [tuple![5], tuple![6]]).unwrap();
        child.remove("R", &tuple![1]).unwrap();
        let delta = DatabaseDelta::between(&parent, &child).unwrap();
        assert_eq!((delta.inserted(), delta.removed()), (2, 1));
        // `S` is the same `Arc` in both: absent, not an empty entry
        let names: Vec<&str> = delta.relations().map(|r| r.relation.as_str()).collect();
        assert_eq!(names, ["R"]);
        assert!(!delta.is_empty());
        assert!(DatabaseDelta::between(&parent, &parent.clone())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn catalog_and_index_changes_have_no_delta() {
        let t = RelationSchema::with_names("T", &[("x", DataType::Int)], &[]).unwrap();
        assert_eq!(diff(|db| db.create_relation(t)), None);
        assert_eq!(diff(|db| db.relation_mut("S")?.build_index(0)), None);
        // re-building an index that exists changes nothing
        assert_eq!(
            diff(|db| db.relation_mut("R")?.build_index(0)),
            Some(vec![])
        );
    }
}
