//! Per-commit deltas — the change a commit made to a database.
//!
//! The paper's fixity requirement (§4) forces one immutable snapshot
//! per version, but serving citations over a long commit history must
//! not pay O(|DB|) per version touched. A [`DatabaseDelta`] records
//! what a commit actually did — the *effective* inserts and removals
//! per relation, in execution order — so a consumer holding version
//! *v* can reproduce version *v+1* by replay instead of rebuilding
//! from the snapshot.
//!
//! Replay is exact: applying the delta to a database that is
//! structurally identical to the parent snapshot yields a database
//! structurally identical to the child snapshot — same row order,
//! same index state — because [`crate::Relation::insert`] and
//! [`crate::Relation::remove`] are deterministic functions of state
//! and the log keeps their original order. That is what lets derived
//! citation engines stay byte-identical to rebuilt ones.
//!
//! Structural changes (creating relations, replacing schemas,
//! building indexes mid-commit) are not replayed; they flip the
//! [`DatabaseDelta::is_structural`] flag and consumers fall back to a
//! full rebuild.

use crate::tuple::Tuple;
use std::fmt;

/// One effective mutation recorded against a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// The tuple was inserted (it was not stored before).
    Insert(Tuple),
    /// The tuple was removed (it was stored before).
    Remove(Tuple),
}

/// The ordered effective ops a commit performed on one relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationDelta {
    /// Relation name.
    pub relation: String,
    /// Effective ops in execution order (no-op inserts of duplicate
    /// tuples and removes of absent tuples are never recorded).
    pub ops: Vec<DeltaOp>,
}

/// Everything one commit changed, relation by relation.
///
/// Ops on *different* relations commute (inserts and removes never
/// consult other relations), so the per-relation logs are kept in
/// catalog registration order; within one relation the op order is
/// the execution order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatabaseDelta {
    relations: Vec<RelationDelta>,
    structural: bool,
}

impl DatabaseDelta {
    /// Assemble a delta from per-relation logs.
    pub(crate) fn new(relations: Vec<RelationDelta>, structural: bool) -> Self {
        DatabaseDelta {
            relations,
            structural,
        }
    }

    /// Did the commit change schema-level structure (created a
    /// relation, replaced a schema, built an index)? Structural
    /// deltas cannot be replayed; consumers must rebuild.
    pub fn is_structural(&self) -> bool {
        self.structural
    }

    /// Per-relation logs, catalog order. Relations the commit never
    /// touched are absent.
    pub fn relations(&self) -> impl Iterator<Item = &RelationDelta> {
        self.relations.iter()
    }

    /// Number of recorded inserts.
    pub fn inserted(&self) -> usize {
        self.count(|op| matches!(op, DeltaOp::Insert(_)))
    }

    /// Number of recorded removals.
    pub fn removed(&self) -> usize {
        self.count(|op| matches!(op, DeltaOp::Remove(_)))
    }

    /// No ops and no structural change (an empty commit).
    pub fn is_empty(&self) -> bool {
        !self.structural && self.relations.iter().all(|r| r.ops.is_empty())
    }

    fn count(&self, pred: impl Fn(&DeltaOp) -> bool) -> usize {
        self.relations
            .iter()
            .flat_map(|r| r.ops.iter())
            .filter(|op| pred(op))
            .count()
    }
}

impl fmt::Display for DatabaseDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delta(+{} -{}{})",
            self.inserted(),
            self.removed(),
            if self.structural { ", structural" } else { "" }
        )
    }
}

/// The in-flight log one [`crate::Relation`] keeps while its database
/// records a delta.
#[derive(Debug, Clone, Default)]
pub(crate) struct RelationLog {
    /// Effective ops in execution order.
    pub(crate) ops: Vec<DeltaOp>,
    /// An index was built on this relation mid-commit.
    pub(crate) structural: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn counts_and_emptiness() {
        let delta = DatabaseDelta::new(
            vec![RelationDelta {
                relation: "R".into(),
                ops: vec![
                    DeltaOp::Insert(tuple![1]),
                    DeltaOp::Insert(tuple![2]),
                    DeltaOp::Remove(tuple![1]),
                ],
            }],
            false,
        );
        assert_eq!(delta.inserted(), 2);
        assert_eq!(delta.removed(), 1);
        assert!(!delta.is_empty());
        assert!(!delta.is_structural());
        let relations: Vec<&str> = delta.relations().map(|r| r.relation.as_str()).collect();
        assert_eq!(relations, ["R"]);
        assert_eq!(delta.to_string(), "delta(+2 -1)");
    }

    #[test]
    fn structural_flag_blocks_emptiness() {
        let delta = DatabaseDelta::new(Vec::new(), true);
        assert!(delta.is_structural());
        assert!(!delta.is_empty());
        assert_eq!(delta.to_string(), "delta(+0 -0, structural)");
        assert!(DatabaseDelta::default().is_empty());
    }
}
