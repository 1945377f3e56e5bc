//! Horizontal partitioning as ownership: a [`Partition`] assigns
//! every row of every relation to one of `N` shards by a
//! deterministic hash of a configurable **shard-key column** (falling
//! back to a whole-tuple hash when no key column is configured).
//!
//! Nothing is copied: a replica holds the whole snapshot and keeps,
//! of the lead atom of each evaluation, only the rows its shard owns
//! (see `fgc_query::sharded`). A row's global id is its position in
//! the whole relation, so the per-shard pieces merge back into
//! exactly the enumeration an unsharded evaluation makes — which keeps
//! distributed citations **byte-identical** to single-process ones.
//!
//! Ownership is value-based ([`ShardKeySpec`] + FNV-1a over the
//! canonical value encoding), so an equality selection on the shard
//! key can be proven to touch a single shard: every tuple matching
//! `R.key = c` is owned by shard `hash(c) % N`. That proof is exactly
//! what the query-side `ShardRouter` uses to prune fan-out.

use crate::database::Database;
use crate::error::{RelationError, Result};
use crate::schema::Catalog;
use crate::tuple::Tuple;
use crate::value::Value;
use fgc_fault::Fnv64;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The shard a value routes to under `shards`-way partitioning.
/// Values that compare equal hash identically (`Value`'s `Hash`
/// contract), so `Int(2)` and `Float(2.0)` route together.
pub fn shard_of_value(value: &Value, shards: usize) -> usize {
    let mut h = Fnv64::default();
    value.hash(&mut h);
    (h.finish() % shards.max(1) as u64) as usize
}

/// The shard a whole tuple routes to (fallback when a relation has no
/// configured shard-key column).
pub fn shard_of_tuple(tuple: &Tuple, shards: usize) -> usize {
    let mut h = Fnv64::default();
    tuple.hash(&mut h);
    (h.finish() % shards.max(1) as u64) as usize
}

/// Which column each relation is partitioned on. Relations absent
/// from the spec fall back to whole-tuple hashing (still balanced,
/// but equality selections on them can never prune to one shard).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardKeySpec {
    columns: Vec<(String, String)>,
}

impl ShardKeySpec {
    /// An empty spec: every relation uses whole-tuple hashing.
    pub fn new() -> Self {
        ShardKeySpec::default()
    }

    /// Builder: partition `relation` on `column` (by attribute name).
    pub fn with(mut self, relation: impl Into<String>, column: impl Into<String>) -> Self {
        let (relation, column) = (relation.into(), column.into());
        self.columns.retain(|(r, _)| r != &relation);
        self.columns.push((relation, column));
        self
    }

    /// Parse the CLI syntax `Rel=Col,Rel2=Col2`. Whitespace around
    /// names is trimmed; an empty string is the empty spec.
    pub fn parse(text: &str) -> Result<ShardKeySpec> {
        let mut spec = ShardKeySpec::new();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let Some((rel, col)) = part.split_once('=') else {
                return Err(RelationError::InvalidSchema(format!(
                    "shard-key entry `{part}` is not of the form Relation=Column"
                )));
            };
            let (rel, col) = (rel.trim(), col.trim());
            if rel.is_empty() || col.is_empty() {
                return Err(RelationError::InvalidSchema(format!(
                    "shard-key entry `{part}` is not of the form Relation=Column"
                )));
            }
            spec = spec.with(rel, col);
        }
        Ok(spec)
    }

    /// The configured column for a relation, if any.
    pub fn column(&self, relation: &str) -> Option<&str> {
        self.columns
            .iter()
            .find(|(r, _)| r == relation)
            .map(|(_, c)| c.as_str())
    }

    /// Is any relation configured?
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Resolve every configured column against a catalog. Unknown
    /// relations or attributes are errors (a typo would silently
    /// disable pruning otherwise).
    pub fn resolve(&self, catalog: &Catalog) -> Result<HashMap<String, usize>> {
        let mut resolved = HashMap::new();
        for (relation, column) in &self.columns {
            let schema = catalog.get(relation)?;
            resolved.insert(relation.clone(), schema.position(column)?);
        }
        Ok(resolved)
    }
}

impl fmt::Display for ShardKeySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (r, c)) in self.columns.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{r}={c}")?;
        }
        Ok(())
    }
}

/// Static distribution figures for diagnostics and `GET /stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of shards.
    pub shards: usize,
    /// Owned tuples per shard (all relations).
    pub tuples_per_shard: Vec<usize>,
    /// Total stored tuples.
    pub total_tuples: usize,
    /// The shard-key spec, rendered in CLI syntax.
    pub key_spec: String,
}

impl ShardStats {
    /// Largest shard divided by the ideal even share — 1.0 is a
    /// perfectly balanced partition.
    pub fn imbalance(&self) -> f64 {
        let max = self.tuples_per_shard.iter().copied().max().unwrap_or(0);
        if self.total_tuples == 0 {
            1.0
        } else {
            max as f64 / (self.total_tuples as f64 / self.shards.max(1) as f64)
        }
    }
}

/// A shard count and a [`ShardKeySpec`] resolved against a catalog:
/// which of `N` shards *owns* each row. Nothing is copied or moved —
/// a shard is a predicate over the one store, and a row's global id
/// stays its position in the whole relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    shards: usize,
    spec: ShardKeySpec,
    /// Resolved shard-key column per relation (absent = whole-tuple).
    key_cols: HashMap<String, usize>,
}

impl Partition {
    /// `shards` partitions (clamped to at least one) under `spec`,
    /// whose every column must resolve against `catalog`.
    pub fn new(shards: usize, spec: ShardKeySpec, catalog: &Catalog) -> Result<Partition> {
        Ok(Partition {
            shards: shards.max(1),
            key_cols: spec.resolve(catalog)?,
            spec,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The configured key spec.
    pub fn spec(&self) -> &ShardKeySpec {
        &self.spec
    }

    /// Resolved shard-key column of a relation, if configured.
    pub fn shard_key_column(&self, relation: &str) -> Option<usize> {
        self.key_cols.get(relation).copied()
    }

    /// The shard that owns a tuple of `relation`: the hash of its
    /// shard-key value, or of the whole tuple when the relation has
    /// no key column (or the tuple is too short to have one).
    pub fn owner(&self, relation: &str, tuple: &Tuple) -> usize {
        match self.key_cols.get(relation) {
            Some(&col) if col < tuple.arity() => shard_of_value(&tuple[col], self.shards),
            _ => shard_of_tuple(tuple, self.shards),
        }
    }

    /// How `db`'s tuples spread over the shards (one counting pass).
    pub fn stats(&self, db: &Database) -> ShardStats {
        let mut tuples_per_shard = vec![0; self.shards];
        for relation in db.relation_arcs() {
            for row in relation.iter() {
                tuples_per_shard[self.owner(relation.name(), row)] += 1;
            }
        }
        ShardStats {
            shards: self.shards,
            total_tuples: tuples_per_shard.iter().sum(),
            tuples_per_shard,
            key_spec: self.spec.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tuple;
    use crate::value::DataType;

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

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_relation(family_schema()).unwrap();
        for i in 0..20 {
            db.insert(
                "Family",
                tuple![format!("f{i}"), format!("Name{i}"), "gpcr"],
            )
            .unwrap();
        }
        db
    }

    fn partition(shards: usize) -> Partition {
        let spec = ShardKeySpec::new().with("Family", "FID");
        Partition::new(shards, spec, sample_db().catalog()).unwrap()
    }

    #[test]
    fn routing_is_deterministic_and_value_based() {
        let p = partition(4);
        let t = tuple!["f3", "Name3", "gpcr"];
        assert_eq!(p.owner("Family", &t), p.owner("Family", &t));
        // the key column alone decides: a selection `FID = "f3"` can
        // be proven to touch one shard
        assert_eq!(p.owner("Family", &t), shard_of_value(&Value::str("f3"), 4));
        assert_eq!(
            p.owner("Family", &tuple!["f3", "Other", "enzyme"]),
            p.owner("Family", &t)
        );
        // a relation without a key column hashes the whole tuple
        assert_eq!(p.owner("Other", &t), shard_of_tuple(&t, 4));
        // numeric values that compare equal route identically
        assert_eq!(
            shard_of_value(&Value::Int(2), 7),
            shard_of_value(&Value::Float(2.0), 7)
        );
    }

    #[test]
    fn shards_partition_all_tuples() {
        let stats = partition(4).stats(&sample_db());
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.total_tuples, 20);
        assert_eq!(stats.tuples_per_shard.iter().sum::<usize>(), 20);
        assert!(stats.key_spec.contains("Family=FID"));
        // more than one shard actually owns data at this size
        assert!(stats.tuples_per_shard.iter().filter(|&&n| n > 0).count() > 1);
        assert!(stats.imbalance() >= 1.0);
    }

    #[test]
    fn duplicate_tuple_is_noop_across_shards() {
        let p = partition(2);
        let mut db = sample_db();
        let before = p.stats(&db);
        assert!(!db.insert("Family", tuple!["f3", "Name3", "gpcr"]).unwrap());
        assert_eq!(p.stats(&db), before);
        assert_eq!(before.total_tuples, 20);
    }

    #[test]
    fn key_violation_detected_even_across_shards() {
        // whole-tuple hashing: two tuples with the same key but
        // different payloads may be owned by different shards; the
        // one store's key index still rejects the second
        let mut db = Database::new();
        db.create_relation(family_schema()).unwrap();
        let p = Partition::new(8, ShardKeySpec::new(), db.catalog()).unwrap();
        let first = tuple!["11", "Calcitonin", "gpcr"];
        db.insert("Family", first.clone()).unwrap();
        let mut elsewhere = 0;
        for i in 0..16 {
            let other = tuple!["11", format!("Other{i}"), "gpcr"];
            if p.owner("Family", &other) != p.owner("Family", &first) {
                elsewhere += 1;
            }
            let result = db.insert("Family", other);
            assert!(
                matches!(result, Err(RelationError::KeyViolation { .. })),
                "{result:?}"
            );
        }
        assert!(elsewhere > 0, "some duplicate key hashes to another shard");
        assert_eq!(p.stats(&db).total_tuples, 1);
    }

    #[test]
    fn remove_preserves_global_order_and_key_guard() {
        let p = partition(4);
        let mut db = sample_db();
        let owners = |db: &Database| -> Vec<(Tuple, usize)> {
            let rows = db.relation("Family").unwrap().iter();
            rows.map(|t| (t.clone(), p.owner("Family", t))).collect()
        };
        let before = owners(&db);
        let gone = tuple!["f7", "Name7", "gpcr"];
        assert!(db.remove("Family", &gone).unwrap());
        // survivors keep their order and their owners: ownership is a
        // function of the row, not of its position
        let survivors: Vec<_> = before.into_iter().filter(|(t, _)| *t != gone).collect();
        assert_eq!(owners(&db), survivors);
        let stats = p.stats(&db);
        assert_eq!(stats.total_tuples, 19);
        // the key is reusable after removal
        assert!(db.insert("Family", tuple!["f7", "Again", "gpcr"]).unwrap());
    }

    #[test]
    fn spec_parse_and_display_round_trip() {
        let spec = ShardKeySpec::parse("Family=FID, FC = FID").unwrap();
        assert_eq!(spec.column("Family"), Some("FID"));
        assert_eq!(spec.column("FC"), Some("FID"));
        assert_eq!(spec.column("Person"), None);
        let rendered = spec.to_string();
        assert_eq!(ShardKeySpec::parse(&rendered).unwrap(), spec);
        assert!(ShardKeySpec::parse("oops").is_err());
        assert!(ShardKeySpec::parse("=FID").is_err());
        assert!(ShardKeySpec::parse("").unwrap().is_empty());
    }

    #[test]
    fn spec_resolve_validates_names() {
        let db = sample_db();
        let ok = ShardKeySpec::new().with("Family", "FID");
        assert_eq!(ok.resolve(db.catalog()).unwrap()["Family"], 0);
        let bad_col = ShardKeySpec::new().with("Family", "Nope");
        assert!(bad_col.resolve(db.catalog()).is_err());
        let bad_rel = ShardKeySpec::new().with("Nope", "FID");
        assert!(bad_rel.resolve(db.catalog()).is_err());
    }

    #[test]
    fn unknown_shard_key_column_rejected_at_create() {
        let spec = ShardKeySpec::new().with("Family", "Bogus");
        assert!(Partition::new(2, spec, sample_db().catalog()).is_err());
    }

    #[test]
    fn one_shard_degenerates_to_a_database() {
        let p = partition(1);
        assert_eq!(p.shard_count(), 1);
        assert_eq!(p.shard_key_column("Family"), Some(0));
        let db = sample_db();
        for row in db.relation("Family").unwrap().iter() {
            assert_eq!(p.owner("Family", row), 0);
        }
        assert_eq!(p.stats(&db).tuples_per_shard, [20]);
        // zero shards clamp to one
        let spec = ShardKeySpec::new();
        assert_eq!(
            Partition::new(0, spec, db.catalog()).unwrap().shard_count(),
            1
        );
    }
}
