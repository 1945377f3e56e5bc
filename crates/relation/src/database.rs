//! A database instance: a catalog plus one [`Relation`] per schema.

use crate::delta::{DatabaseDelta, DeltaOp, RelationDelta};
use crate::error::{RelationError, Result};
use crate::relation::Relation;
use crate::schema::{Catalog, RelationSchema};
use crate::tuple::Tuple;
use std::collections::HashMap;
use std::sync::Arc;

/// An in-memory relational database.
///
/// Relations are held behind [`Arc`] so cloning a database is O(1)
/// per relation: the clone structurally *shares* every relation with
/// the original, and a relation is deep-copied only on first mutable
/// access ([`Database::relation_mut`] goes through [`Arc::make_mut`]).
/// This is what makes versioned serving O(changed): a derived version
/// pays only for the relations its delta touches.
#[derive(Debug, Clone, Default)]
pub struct Database {
    catalog: Catalog,
    relations: HashMap<String, Arc<Relation>>,
    /// Whether a commit delta is being captured (see
    /// [`Database::begin_delta`]).
    recording: bool,
    /// A structural change (relation created, schema replaced)
    /// happened while recording.
    structural_change: bool,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Register a schema and create its (empty) relation instance.
    pub fn create_relation(&mut self, schema: RelationSchema) -> Result<()> {
        let arc = self.catalog.add(schema)?;
        let mut relation = Relation::new(arc);
        if self.recording {
            self.structural_change = true;
            relation.start_recording();
        }
        self.relations
            .insert(relation.name().to_string(), Arc::new(relation));
        Ok(())
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Replace a relation's schema with a constraint-modified clone
    /// (same name/attributes/key). Used by the loader's `@fk` lines.
    pub fn replace_schema(&mut self, schema: RelationSchema) -> Result<()> {
        let name = schema.name.clone();
        let arc = self.catalog.replace(schema)?;
        let rel = self
            .relations
            .get_mut(&name)
            .ok_or(RelationError::UnknownRelation(name))?;
        Arc::make_mut(rel).set_schema(arc);
        if self.recording {
            self.structural_change = true;
        }
        Ok(())
    }

    /// A relation by name.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .map(|arc| arc.as_ref())
            .ok_or_else(|| RelationError::UnknownRelation(name.to_string()))
    }

    /// The shared handle for a relation, for structural sharing
    /// across derived databases (see [`Database::adopt_relation_arc`]).
    pub fn relation_arc(&self, name: &str) -> Result<&Arc<Relation>> {
        self.relations
            .get(name)
            .ok_or_else(|| RelationError::UnknownRelation(name.to_string()))
    }

    /// A mutable relation by name. Copy-on-write: if the relation is
    /// shared with another database (a parent or derived version), it
    /// is deep-copied here first, so mutations never leak into a
    /// sharer. While a delta is being captured the first mutable
    /// access also attaches the effective-op log (recording is lazy —
    /// untouched relations stay shared and logless).
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        let arc = self
            .relations
            .get_mut(name)
            .ok_or_else(|| RelationError::UnknownRelation(name.to_string()))?;
        let rel = Arc::make_mut(arc);
        if self.recording {
            rel.start_recording();
        }
        Ok(rel)
    }

    /// Insert one tuple (key/type/arity checked; FKs are checked by
    /// [`Database::check_integrity`], which is deliberately separate so
    /// bulk loads can insert in any order).
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> Result<bool> {
        self.relation_mut(relation)?.insert(tuple)
    }

    /// Insert many tuples into one relation.
    pub fn insert_all<I>(&mut self, relation: &str, tuples: I) -> Result<usize>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let rel = self.relation_mut(relation)?;
        let mut added = 0;
        for t in tuples {
            if rel.insert(t)? {
                added += 1;
            }
        }
        Ok(added)
    }

    /// Remove one tuple. Returns `true` if it was stored. Like
    /// [`Database::insert`], foreign keys are not enforced here;
    /// [`Database::check_integrity`] validates the whole instance.
    pub fn remove(&mut self, relation: &str, tuple: &Tuple) -> Result<bool> {
        self.relation_mut(relation)?.remove(tuple)
    }

    /// Start capturing a commit delta: every subsequent effective
    /// insert or removal (including through
    /// [`Database::relation_mut`]) is logged until
    /// [`Database::take_delta`]. Structural changes — creating a
    /// relation, replacing a schema, building an index — mark the
    /// delta structural, which tells consumers to rebuild instead of
    /// replay.
    ///
    /// Recording is lazy: no relation is touched here. The op log is
    /// attached on a relation's first mutable access, which is also
    /// when copy-on-write unshares it — so a commit that touches k of
    /// n relations costs O(k), not O(n).
    pub fn begin_delta(&mut self) {
        self.recording = true;
        self.structural_change = false;
    }

    /// Stop capturing and return the recorded delta. Per-relation
    /// logs come back in catalog (registration) order; ops on
    /// different relations commute, so that order is canonical.
    pub fn take_delta(&mut self) -> DatabaseDelta {
        self.recording = false;
        let mut structural = self.structural_change;
        self.structural_change = false;
        let mut relations = Vec::new();
        let names: Vec<String> = self.catalog.iter().map(|s| s.name.clone()).collect();
        for name in names {
            let Some(arc) = self.relations.get_mut(&name) else {
                continue;
            };
            // Only relations that saw a mutable access carry a log,
            // and that access already unshared them — `make_mut` on
            // the rest would deep-copy shared data for nothing.
            if !arc.has_log() {
                continue;
            }
            let Some(log) = Arc::make_mut(arc).take_log() else {
                continue;
            };
            structural |= log.structural;
            if !log.ops.is_empty() {
                relations.push(RelationDelta {
                    relation: name,
                    ops: log.ops,
                });
            }
        }
        DatabaseDelta::new(relations, structural)
    }

    /// Replay a recorded delta onto this database.
    ///
    /// Sound only when `self` is structurally identical to the
    /// database the delta was recorded against (its parent version):
    /// then every logged op is effective again and the result is
    /// structurally identical — same row order, same index state — to
    /// the database the recording produced. A structural delta, or an
    /// op that is not effective (evidence the base diverged), aborts
    /// with [`RelationError::DeltaMismatch`]; the database may then
    /// be partially updated and should be discarded.
    pub fn apply_delta(&mut self, delta: &DatabaseDelta) -> Result<()> {
        if delta.is_structural() {
            return Err(RelationError::DeltaMismatch(
                "structural delta cannot be replayed".into(),
            ));
        }
        for rd in delta.relations() {
            let relation = self.relation_mut(&rd.relation)?;
            for op in &rd.ops {
                let effective = match op {
                    DeltaOp::Insert(t) => relation.insert(t.clone())?,
                    DeltaOp::Remove(t) => relation.remove(t)?,
                };
                if !effective {
                    return Err(RelationError::DeltaMismatch(format!(
                        "op had no effect on `{}`: base is not the delta's parent",
                        rd.relation
                    )));
                }
            }
        }
        Ok(())
    }

    /// Adopt a fully built relation (rows and indexes included) under
    /// its existing schema. Used when deriving one database from
    /// another to carry over relations known to be unchanged.
    pub fn adopt_relation(&mut self, relation: Relation) -> Result<()> {
        self.adopt_relation_arc(Arc::new(relation))
    }

    /// Adopt a relation by shared handle: the adopting database
    /// structurally shares the rows and indexes with every other
    /// holder of the `Arc` (copy-on-write protects sharers if either
    /// side later mutates). This is the O(1) carry-over path for
    /// derived versions.
    pub fn adopt_relation_arc(&mut self, relation: Arc<Relation>) -> Result<()> {
        self.catalog.add((**relation.schema()).clone())?;
        let mut relation = relation;
        if self.recording {
            // like create_relation: op replay cannot reproduce a
            // wholesale adoption, so the delta must force a rebuild
            self.structural_change = true;
            Arc::make_mut(&mut relation).start_recording();
        }
        self.relations.insert(relation.name().to_string(), relation);
        Ok(())
    }

    /// Shared relation handles in catalog (registration) order. Used
    /// by memory accounting to deduplicate structurally shared
    /// relations across versions by pointer identity.
    pub fn relation_arcs(&self) -> impl Iterator<Item = &Arc<Relation>> {
        self.catalog
            .iter()
            .filter_map(move |s| self.relations.get(&s.name))
    }

    /// Rough resident size of the stored data in bytes (rows plus
    /// index structures). Shared relations are counted in full here;
    /// callers that hold several versions deduplicate via
    /// [`Database::relation_arcs`] pointer identity.
    pub fn approx_bytes(&self) -> usize {
        self.relations.values().map(|r| r.approx_bytes()).sum()
    }

    /// Structural equality of the stored data: same catalog (names,
    /// registration order) and, per relation, the same rows in the
    /// same order. Used by the disk backend's fork check and to check
    /// that replaying a delta reproduces a snapshot.
    pub fn content_eq(&self, other: &Database) -> bool {
        let mine: Vec<&str> = self.catalog.iter().map(|s| s.name.as_str()).collect();
        let theirs: Vec<&str> = other.catalog.iter().map(|s| s.name.as_str()).collect();
        mine == theirs
            && mine
                .iter()
                .all(|name| match (self.relation(name), other.relation(name)) {
                    (Ok(a), Ok(b)) => a.rows() == b.rows(),
                    _ => false,
                })
    }

    /// Total number of stored tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Validate every foreign key in the instance: for each
    /// referencing tuple, the referenced key must exist.
    pub fn check_integrity(&self) -> Result<()> {
        self.catalog.validate()?;
        for schema in self.catalog.iter() {
            let rel = self.relation(&schema.name)?;
            for fk in &schema.foreign_keys {
                let target = self.relation(&fk.references)?;
                for row in rel.iter() {
                    let key = row.project(&fk.columns);
                    if key.iter().any(|v| v.is_null()) {
                        continue; // SQL semantics: null FKs are not checked
                    }
                    if target.get_by_key(&key).is_none() {
                        return Err(RelationError::ForeignKeyViolation {
                            relation: schema.name.clone(),
                            references: fk.references.clone(),
                            key: key.to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Build secondary indexes on every foreign-key column and every
    /// key prefix column; useful before running query workloads.
    pub fn build_default_indexes(&mut self) -> Result<()> {
        let plans: Vec<(String, Vec<usize>)> = self
            .catalog
            .iter()
            .map(|s| {
                let mut cols: Vec<usize> = s
                    .foreign_keys
                    .iter()
                    .flat_map(|fk| fk.columns.clone())
                    .collect();
                cols.extend(s.key.first().copied());
                cols.sort_unstable();
                cols.dedup();
                (s.name.clone(), cols)
            })
            .collect();
        for (name, cols) in plans {
            let rel = self.relation_mut(&name)?;
            for c in cols {
                rel.build_index(c)?;
            }
        }
        Ok(())
    }

    /// Schemas of all relations (registration order).
    pub fn schemas(&self) -> impl Iterator<Item = &Arc<RelationSchema>> {
        self.catalog.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::DataType;

    fn gtopdb_skeleton() -> Database {
        let mut db = Database::new();
        db.create_relation(
            RelationSchema::with_names(
                "Family",
                &[
                    ("FID", DataType::Str),
                    ("FName", DataType::Str),
                    ("Type", DataType::Str),
                ],
                &["FID"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut fc = RelationSchema::with_names(
            "FC",
            &[("FID", DataType::Str), ("PID", DataType::Str)],
            &["FID", "PID"],
        )
        .unwrap();
        fc.add_foreign_key(&["FID"], "Family").unwrap();
        db.create_relation(fc).unwrap();
        db
    }

    #[test]
    fn create_insert_query() {
        let mut db = gtopdb_skeleton();
        db.insert("Family", tuple!["11", "Calcitonin", "gpcr"])
            .unwrap();
        assert_eq!(db.relation("Family").unwrap().len(), 1);
        assert_eq!(db.total_tuples(), 1);
    }

    #[test]
    fn unknown_relation_errors() {
        let mut db = gtopdb_skeleton();
        assert!(db.insert("Nope", tuple!["x"]).is_err());
        assert!(db.relation("Nope").is_err());
    }

    #[test]
    fn integrity_accepts_satisfied_fk() {
        let mut db = gtopdb_skeleton();
        db.insert("Family", tuple!["11", "Calcitonin", "gpcr"])
            .unwrap();
        db.insert("FC", tuple!["11", "p1"]).unwrap();
        db.check_integrity().unwrap();
    }

    #[test]
    fn integrity_rejects_dangling_fk() {
        let mut db = gtopdb_skeleton();
        db.insert("FC", tuple!["99", "p1"]).unwrap();
        let err = db.check_integrity().unwrap_err();
        assert!(matches!(err, RelationError::ForeignKeyViolation { .. }));
    }

    #[test]
    fn integrity_skips_null_fk() {
        let mut db = gtopdb_skeleton();
        db.insert("FC", tuple![crate::value::Value::Null, "p1"])
            .unwrap();
        db.check_integrity().unwrap();
    }

    #[test]
    fn default_indexes_cover_fk_columns() {
        let mut db = gtopdb_skeleton();
        db.insert("Family", tuple!["11", "Calcitonin", "gpcr"])
            .unwrap();
        db.insert("FC", tuple!["11", "p1"]).unwrap();
        db.build_default_indexes().unwrap();
        let fc = db.relation("FC").unwrap();
        assert!(fc.probe(0, &crate::value::Value::str("11")).is_some());
    }

    #[test]
    fn delta_round_trip_reproduces_the_mutated_database() {
        let mut parent = gtopdb_skeleton();
        parent
            .insert("Family", tuple!["11", "Calcitonin", "gpcr"])
            .unwrap();
        parent.insert("FC", tuple!["11", "p1"]).unwrap();
        parent.build_default_indexes().unwrap();

        let mut child = parent.clone();
        child.begin_delta();
        child
            .insert("Family", tuple!["12", "Orexin", "gpcr"])
            .unwrap();
        child.remove("FC", &tuple!["11", "p1"]).unwrap();
        child.insert("FC", tuple!["12", "p2"]).unwrap();
        let delta = child.take_delta();
        assert!(!delta.is_structural());
        assert_eq!(delta.inserted() + delta.removed(), 3);

        let mut replayed = parent.clone();
        replayed.apply_delta(&delta).unwrap();
        assert!(replayed.content_eq(&child));
        // indexes replayed identically too
        assert_eq!(
            replayed.relation("FC").unwrap().indexed_columns(),
            child.relation("FC").unwrap().indexed_columns()
        );
    }

    #[test]
    fn relation_mut_mutations_are_recorded() {
        let mut db = gtopdb_skeleton();
        db.begin_delta();
        db.relation_mut("Family")
            .unwrap()
            .insert(tuple!["11", "Calcitonin", "gpcr"])
            .unwrap();
        let delta = db.take_delta();
        assert_eq!(delta.inserted() + delta.removed(), 1);
        let relations: Vec<&str> = delta.relations().map(|r| r.relation.as_str()).collect();
        assert_eq!(relations, ["Family"]);
    }

    #[test]
    fn structural_commits_are_flagged_and_not_replayable() {
        let mut db = gtopdb_skeleton();
        db.begin_delta();
        db.create_relation(
            RelationSchema::with_names("New", &[("x", DataType::Int)], &[]).unwrap(),
        )
        .unwrap();
        let delta = db.take_delta();
        assert!(delta.is_structural());
        let mut other = gtopdb_skeleton();
        assert!(matches!(
            other.apply_delta(&delta).unwrap_err(),
            RelationError::DeltaMismatch(_)
        ));
    }

    #[test]
    fn apply_delta_rejects_diverged_base() {
        let mut parent = gtopdb_skeleton();
        parent.begin_delta();
        parent
            .insert("Family", tuple!["11", "Calcitonin", "gpcr"])
            .unwrap();
        let delta = parent.take_delta();
        // replaying onto a base that already holds the tuple: the
        // insert is ineffective, which is evidence of divergence
        assert!(matches!(
            parent.apply_delta(&delta).unwrap_err(),
            RelationError::DeltaMismatch(_)
        ));
    }

    #[test]
    fn content_eq_detects_row_and_catalog_differences() {
        let mut a = gtopdb_skeleton();
        let mut b = gtopdb_skeleton();
        assert!(a.content_eq(&b));
        a.insert("Family", tuple!["11", "Calcitonin", "gpcr"])
            .unwrap();
        assert!(!a.content_eq(&b));
        b.insert("Family", tuple!["11", "Calcitonin", "gpcr"])
            .unwrap();
        assert!(a.content_eq(&b));
        b.create_relation(RelationSchema::with_names("Z", &[("x", DataType::Int)], &[]).unwrap())
            .unwrap();
        assert!(!a.content_eq(&b));
    }

    #[test]
    fn adopt_relation_while_recording_is_structural() {
        let mut src = gtopdb_skeleton();
        src.insert("Family", tuple!["11", "Calcitonin", "gpcr"])
            .unwrap();
        let mut db = Database::new();
        db.begin_delta();
        db.adopt_relation(src.relation("Family").unwrap().clone())
            .unwrap();
        // adoption cannot be replayed op-by-op: the delta must force
        // consumers down the rebuild path, and later inserts into the
        // adopted relation are still logged
        db.insert("Family", tuple!["12", "Orexin", "gpcr"]).unwrap();
        let delta = db.take_delta();
        assert!(delta.is_structural());
        assert_eq!(delta.inserted() + delta.removed(), 1);
    }

    #[test]
    fn adopt_relation_carries_rows_and_indexes() {
        let mut src = gtopdb_skeleton();
        src.insert("Family", tuple!["11", "Calcitonin", "gpcr"])
            .unwrap();
        src.relation_mut("Family").unwrap().build_index(2).unwrap();
        let mut dst = Database::new();
        dst.adopt_relation(src.relation("Family").unwrap().clone())
            .unwrap();
        assert_eq!(dst.relation("Family").unwrap().len(), 1);
        assert_eq!(dst.relation("Family").unwrap().indexed_columns(), vec![2]);
        // adopting a second relation with the same name collides
        assert!(dst
            .adopt_relation(src.relation("Family").unwrap().clone())
            .is_err());
    }

    #[test]
    fn insert_all_counts_new_tuples() {
        let mut db = gtopdb_skeleton();
        let n = db
            .insert_all(
                "Family",
                vec![
                    tuple!["11", "Calcitonin", "gpcr"],
                    tuple!["11", "Calcitonin", "gpcr"],
                    tuple!["12", "Orexin", "gpcr"],
                ],
            )
            .unwrap();
        assert_eq!(n, 2);
    }
}
