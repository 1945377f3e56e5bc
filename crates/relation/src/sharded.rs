//! Horizontally sharded storage: a [`ShardedDatabase`] partitions
//! every relation's tuples across `N` shards by a deterministic hash
//! of a configurable **shard-key column** (falling back to a
//! whole-tuple hash when no key column is configured).
//!
//! Each shard is a complete [`Database`] over the same catalog, so
//! the existing per-relation machinery (typed inserts, set semantics,
//! secondary hash indexes) works unchanged inside a shard. On top of
//! the shards the `ShardedDatabase` keeps, per relation, the **global
//! placement order**: the sequence `(shard, local position)` in
//! insertion order. This is what lets routed evaluation (see
//! `fgc_query::sharded`) visit tuples in exactly the order an
//! unsharded [`Database`] would, which in turn makes sharded
//! citations **byte-identical** to unsharded ones — Definition 3.2's
//! sum over bindings is preserved term by term, not just up to
//! reordering.
//!
//! Routing is value-based and deterministic ([`ShardKeySpec`] +
//! FNV-1a over the canonical value encoding), so an equality
//! selection on the shard key can be proven to touch a single shard:
//! every tuple matching `R.key = c` lives on shard `hash(c) % N`.
//! That proof is exactly what the query-side `ShardRouter` uses to
//! prune fan-out.

use crate::database::Database;
use crate::error::{RelationError, Result};
use crate::relation::Relation;
use crate::schema::{Catalog, RelationSchema};
use crate::tuple::Tuple;
use crate::value::Value;
use fgc_fault::Fnv64;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

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

/// One row's physical location: `(shard, local position)` inside the
/// shard's relation.
pub type Placement = (u32, u32);

/// Static distribution figures for diagnostics and `GET /stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of shards.
    pub shards: usize,
    /// Stored tuples per shard (all relations).
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

/// A horizontally partitioned database: `N` shard [`Database`]s plus
/// the per-relation global placement order.
///
/// The per-relation bookkeeping (placement order, its inverse, the
/// global key guard) is `Arc`-shared so cloning a sharded database
/// costs pointers; a relation's bookkeeping is deep-copied only when
/// an insert or removal actually touches it (the shard [`Database`]s
/// are themselves copy-on-write at the relation level).
#[derive(Debug, Clone)]
pub struct ShardedDatabase {
    shards: Vec<Database>,
    /// Resolved shard-key column per relation (absent = whole-tuple).
    key_cols: HashMap<String, usize>,
    /// Per relation: global insertion order -> physical placement.
    placement: HashMap<String, Arc<Vec<Placement>>>,
    /// Per relation and shard: local position -> global rank (the
    /// inverse of `placement`, precomputed so routed evaluation can
    /// borrow it instead of rebuilding per query).
    global_ids: HashMap<String, Arc<Vec<Vec<usize>>>>,
    /// Global primary-key guard: shard-local key indexes cannot see
    /// a duplicate key whose tuple routed to a different shard.
    key_guard: HashMap<String, Arc<HashSet<Tuple>>>,
    spec: ShardKeySpec,
}

impl ShardedDatabase {
    /// An empty sharded database with `shards` partitions (clamped to
    /// at least one) under the given key spec.
    pub fn new(shards: usize, spec: ShardKeySpec) -> Self {
        ShardedDatabase {
            shards: (0..shards.max(1)).map(|_| Database::new()).collect(),
            key_cols: HashMap::new(),
            placement: HashMap::new(),
            global_ids: HashMap::new(),
            key_guard: HashMap::new(),
            spec,
        }
    }

    /// Partition an existing database: same catalog on every shard,
    /// every tuple routed by the spec, secondary indexes mirrored
    /// shard-locally so routed probes behave like unsharded probes.
    pub fn from_database(db: &Database, shards: usize, spec: ShardKeySpec) -> Result<Self> {
        let mut sharded = ShardedDatabase::new(shards, spec);
        for schema in db.catalog().iter() {
            sharded.create_relation(schema.as_ref().clone())?;
        }
        let names: Vec<String> = db.catalog().iter().map(|s| s.name.clone()).collect();
        for name in &names {
            let relation = db.relation(name)?;
            for row in relation.iter() {
                sharded.insert(name, row.clone())?;
            }
            for column in relation.indexed_columns() {
                sharded.build_index(name, column)?;
            }
        }
        Ok(sharded)
    }

    /// Register a schema on every shard. The shard-key column (if
    /// configured) is resolved and validated here.
    pub fn create_relation(&mut self, schema: RelationSchema) -> Result<()> {
        if let Some(column) = self.spec.column(&schema.name) {
            self.key_cols
                .insert(schema.name.clone(), schema.position(column)?);
        }
        let name = schema.name.clone();
        for shard in &mut self.shards {
            shard.create_relation(schema.clone())?;
        }
        self.placement.insert(name.clone(), Arc::new(Vec::new()));
        self.global_ids
            .insert(name.clone(), Arc::new(vec![Vec::new(); self.shards.len()]));
        self.key_guard.insert(name, Arc::new(HashSet::new()));
        Ok(())
    }

    /// The shard a tuple of `relation` routes to.
    pub fn route_tuple(&self, relation: &str, tuple: &Tuple) -> usize {
        match self.key_cols.get(relation) {
            Some(&col) if col < tuple.arity() => shard_of_value(&tuple[col], self.shards.len()),
            _ => shard_of_tuple(tuple, self.shards.len()),
        }
    }

    /// The shard an equality selection `relation.shard_key = value`
    /// is guaranteed to be confined to — `None` when the relation has
    /// no shard-key column (whole-tuple hashing spreads matches).
    pub fn route_value(&self, relation: &str, value: &Value) -> Option<usize> {
        self.key_cols
            .get(relation)
            .map(|_| shard_of_value(value, self.shards.len()))
    }

    /// Resolved shard-key column of a relation, if configured.
    pub fn shard_key_column(&self, relation: &str) -> Option<usize> {
        self.key_cols.get(relation).copied()
    }

    /// Insert one tuple, routed to its shard. Set semantics and key
    /// constraints match [`Database::insert`] exactly — including
    /// key violations whose two tuples live on different shards.
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> Result<bool> {
        let shard = self.route_tuple(relation, &tuple);
        // same check order as `Database::insert`: shape first, then
        // set-semantics dedup, then the key constraint — with the
        // *global* guard standing in for the key index, because the
        // shard-local one only sees its own fragment
        {
            let rel = self.shards[shard].relation(relation)?;
            rel.check_shape(&tuple)?;
            if rel.contains(&tuple) {
                return Ok(false);
            }
            let schema = rel.schema();
            if schema.has_key() {
                let key = tuple.project(&schema.key);
                let guard = self
                    .key_guard
                    .get_mut(relation)
                    .expect("relation registered");
                if guard.contains(&key) {
                    return Err(RelationError::KeyViolation {
                        relation: relation.to_string(),
                        key: key.to_string(),
                    });
                }
            }
        }
        let added = self.shards[shard].insert(relation, tuple)?;
        if added {
            let local = self.shards[shard].relation(relation)?.len() - 1;
            let placement = Arc::make_mut(
                self.placement
                    .get_mut(relation)
                    .expect("relation registered"),
            );
            let rank = placement.len();
            placement.push((shard as u32, local as u32));
            Arc::make_mut(
                self.global_ids
                    .get_mut(relation)
                    .expect("relation registered"),
            )[shard]
                .push(rank);
            let rel = self.shards[shard].relation(relation)?;
            let schema = rel.schema();
            if schema.has_key() {
                let key = rel.rows()[local].project(&schema.key);
                Arc::make_mut(
                    self.key_guard
                        .get_mut(relation)
                        .expect("relation registered"),
                )
                .insert(key);
            }
        }
        Ok(added)
    }

    /// Remove one tuple, preserving the global insertion order of the
    /// survivors — the sharded twin of [`Database::remove`]. Returns
    /// `true` if the tuple was stored. The removed row's shard
    /// compacts its local positions (exactly like
    /// [`Relation::remove`]), and the placement order, its inverse,
    /// and the key guard are patched to match, so a derived sharded
    /// database is structurally identical to re-partitioning the
    /// derived unsharded one.
    pub fn remove(&mut self, relation: &str, tuple: &Tuple) -> Result<bool> {
        let shard = self.route_tuple(relation, tuple);
        let (local, key) = {
            let rel = self.shards[shard].relation(relation)?;
            rel.check_shape(tuple)?;
            let Some(local) = rel.position_of(tuple) else {
                return Ok(false);
            };
            let schema = rel.schema();
            let key = schema.has_key().then(|| tuple.project(&schema.key));
            (local, key)
        };
        let removed = self.shards[shard].remove(relation, tuple)?;
        debug_assert!(removed, "position_of said the tuple was stored");
        let ids = Arc::make_mut(
            self.global_ids
                .get_mut(relation)
                .expect("relation registered"),
        );
        let rank = ids[shard][local];
        ids[shard].remove(local);
        for shard_ids in ids.iter_mut() {
            for r in shard_ids.iter_mut() {
                if *r > rank {
                    *r -= 1;
                }
            }
        }
        let placement = Arc::make_mut(
            self.placement
                .get_mut(relation)
                .expect("relation registered"),
        );
        placement.remove(rank);
        for p in placement.iter_mut() {
            if p.0 == shard as u32 && p.1 > local as u32 {
                p.1 -= 1;
            }
        }
        if let Some(key) = key {
            Arc::make_mut(
                self.key_guard
                    .get_mut(relation)
                    .expect("relation registered"),
            )
            .remove(&key);
        }
        Ok(true)
    }

    /// Insert many tuples into one relation, returning the number
    /// actually added.
    pub fn insert_all<I>(&mut self, relation: &str, tuples: I) -> Result<usize>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let mut added = 0;
        for t in tuples {
            if self.insert(relation, t)? {
                added += 1;
            }
        }
        Ok(added)
    }

    /// Build a secondary hash index on `column` in every shard.
    pub fn build_index(&mut self, relation: &str, column: usize) -> Result<()> {
        for shard in &mut self.shards {
            shard.relation_mut(relation)?.build_index(column)?;
        }
        Ok(())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard databases, in shard order.
    pub fn shards(&self) -> &[Database] {
        &self.shards
    }

    /// The catalog (identical on every shard).
    pub fn catalog(&self) -> &Catalog {
        self.shards[0].catalog()
    }

    /// The configured key spec.
    pub fn spec(&self) -> &ShardKeySpec {
        &self.spec
    }

    /// A relation's fragment on every shard, in shard order.
    pub fn fragments(&self, relation: &str) -> Result<Vec<&Relation>> {
        self.shards.iter().map(|s| s.relation(relation)).collect()
    }

    /// A relation's global placement order: entry `g` is the physical
    /// location of the tuple that an unsharded database would store
    /// at row position `g`.
    pub fn placement(&self, relation: &str) -> Result<&[Placement]> {
        self.placement
            .get(relation)
            .map(|v| v.as_slice())
            .ok_or_else(|| RelationError::UnknownRelation(relation.to_string()))
    }

    /// The inverse of [`Self::placement`], per shard: entry `s[l]` is
    /// the global rank of shard `s`'s local row `l` (ascending, since
    /// locals are appended in global order). Routed evaluation borrows
    /// these instead of rebuilding the mapping per query.
    pub fn shard_global_ids(&self, relation: &str) -> Result<&[Vec<usize>]> {
        self.global_ids
            .get(relation)
            .map(|v| v.as_slice())
            .ok_or_else(|| RelationError::UnknownRelation(relation.to_string()))
    }

    /// Total number of stored tuples across shards.
    pub fn total_tuples(&self) -> usize {
        self.shards.iter().map(Database::total_tuples).sum()
    }

    /// Distribution statistics.
    pub fn stats(&self) -> ShardStats {
        let tuples_per_shard: Vec<usize> = self.shards.iter().map(Database::total_tuples).collect();
        ShardStats {
            shards: self.shards.len(),
            total_tuples: tuples_per_shard.iter().sum(),
            tuples_per_shard,
            key_spec: self.spec.to_string(),
        }
    }

    /// Reassemble the unsharded database: every relation's tuples in
    /// global insertion order. Mostly for tests and migrations.
    pub fn assemble(&self) -> Result<Database> {
        let mut db = Database::new();
        for schema in self.catalog().iter() {
            db.create_relation(schema.as_ref().clone())?;
        }
        let names: Vec<String> = self.catalog().iter().map(|s| s.name.clone()).collect();
        for name in &names {
            for &(shard, local) in self.placement(name)? {
                let row =
                    self.shards[shard as usize].relation(name)?.rows()[local as usize].clone();
                db.insert(name, row)?;
            }
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn sample(shards: usize) -> ShardedDatabase {
        let mut s = ShardedDatabase::new(shards, ShardKeySpec::new().with("Family", "FID"));
        s.create_relation(family_schema()).unwrap();
        for i in 0..20 {
            s.insert(
                "Family",
                tuple![format!("f{i}"), format!("Name{i}"), "gpcr"],
            )
            .unwrap();
        }
        s
    }

    #[test]
    fn routing_is_deterministic_and_value_based() {
        let s = sample(4);
        let t = tuple!["f3", "Name3", "gpcr"];
        assert_eq!(s.route_tuple("Family", &t), s.route_tuple("Family", &t));
        assert_eq!(
            s.route_tuple("Family", &t),
            s.route_value("Family", &Value::str("f3")).unwrap()
        );
        // numeric values that compare equal route identically
        assert_eq!(
            shard_of_value(&Value::Int(2), 7),
            shard_of_value(&Value::Float(2.0), 7)
        );
    }

    #[test]
    fn placement_preserves_global_insertion_order() {
        let s = sample(4);
        let assembled = s.assemble().unwrap();
        let rows = assembled.relation("Family").unwrap().rows();
        assert_eq!(rows.len(), 20);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0], Value::str(format!("f{i}")));
        }
    }

    #[test]
    fn shards_partition_all_tuples() {
        let s = sample(4);
        assert_eq!(s.total_tuples(), 20);
        let stats = s.stats();
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.total_tuples, 20);
        assert_eq!(stats.tuples_per_shard.iter().sum::<usize>(), 20);
        assert!(stats.key_spec.contains("Family=FID"));
        // more than one shard actually holds data at this size
        assert!(stats.tuples_per_shard.iter().filter(|&&n| n > 0).count() > 1);
    }

    #[test]
    fn duplicate_tuple_is_noop_across_shards() {
        let mut s = sample(2);
        assert!(!s.insert("Family", tuple!["f3", "Name3", "gpcr"]).unwrap());
        assert_eq!(s.total_tuples(), 20);
    }

    #[test]
    fn key_violation_detected_even_across_shards() {
        // whole-tuple hashing: two tuples with the same key but
        // different payloads may route to different shards; the
        // global guard must still reject the second
        let mut s = ShardedDatabase::new(8, ShardKeySpec::new());
        s.create_relation(family_schema()).unwrap();
        s.insert("Family", tuple!["11", "Calcitonin", "gpcr"])
            .unwrap();
        let mut rejected = false;
        for i in 0..16 {
            let result = s.insert("Family", tuple!["11", format!("Other{i}"), "gpcr"]);
            match result {
                Err(RelationError::KeyViolation { .. }) => rejected = true,
                other => panic!("expected key violation, got {other:?}"),
            }
        }
        assert!(rejected);
        assert_eq!(s.total_tuples(), 1);
    }

    #[test]
    fn shape_errors_win_over_the_key_guard() {
        // a mistyped tuple with a duplicate key must report the shape
        // problem, exactly like Database::insert would
        let mut s = sample(2);
        let err = s.insert("Family", tuple!["f3", 5, "gpcr"]).unwrap_err();
        assert!(matches!(err, RelationError::TypeMismatch { .. }), "{err:?}");
        let err = s.insert("Family", tuple!["f3", "x"]).unwrap_err();
        assert!(
            matches!(err, RelationError::ArityMismatch { .. }),
            "{err:?}"
        );
        assert_eq!(s.total_tuples(), 20);
    }

    #[test]
    fn global_ids_invert_placement() {
        let s = sample(4);
        let placement = s.placement("Family").unwrap();
        let ids = s.shard_global_ids("Family").unwrap();
        for (g, &(shard, local)) in placement.iter().enumerate() {
            assert_eq!(ids[shard as usize][local as usize], g);
        }
        // per-shard locals appear in ascending global order
        for shard_ids in ids {
            assert!(shard_ids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn from_database_round_trips() {
        let mut db = Database::new();
        db.create_relation(family_schema()).unwrap();
        for i in 0..15 {
            db.insert(
                "Family",
                tuple![format!("f{i}"), format!("Name{i}"), "gpcr"],
            )
            .unwrap();
        }
        db.relation_mut("Family").unwrap().build_index(2).unwrap();
        let s = ShardedDatabase::from_database(&db, 3, ShardKeySpec::new().with("Family", "FID"))
            .unwrap();
        assert_eq!(s.total_tuples(), 15);
        let assembled = s.assemble().unwrap();
        assert_eq!(
            assembled.relation("Family").unwrap().rows(),
            db.relation("Family").unwrap().rows()
        );
        // the secondary index was mirrored into each shard
        for fragment in s.fragments("Family").unwrap() {
            assert!(fragment.probe(2, &Value::str("gpcr")).is_some());
        }
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
        let mut db = Database::new();
        db.create_relation(family_schema()).unwrap();
        let ok = ShardKeySpec::new().with("Family", "FID");
        assert_eq!(ok.resolve(db.catalog()).unwrap()["Family"], 0);
        let bad_col = ShardKeySpec::new().with("Family", "Nope");
        assert!(bad_col.resolve(db.catalog()).is_err());
        let bad_rel = ShardKeySpec::new().with("Nope", "FID");
        assert!(bad_rel.resolve(db.catalog()).is_err());
    }

    #[test]
    fn unknown_shard_key_column_rejected_at_create() {
        let mut s = ShardedDatabase::new(2, ShardKeySpec::new().with("Family", "Bogus"));
        assert!(s.create_relation(family_schema()).is_err());
    }

    #[test]
    fn remove_preserves_global_order_and_key_guard() {
        let mut s = sample(4);
        assert!(s.remove("Family", &tuple!["f7", "Name7", "gpcr"]).unwrap());
        assert!(!s.remove("Family", &tuple!["f7", "Name7", "gpcr"]).unwrap());
        assert_eq!(s.total_tuples(), 19);
        // placement still inverts global_ids after compaction
        let placement = s.placement("Family").unwrap();
        let ids = s.shard_global_ids("Family").unwrap();
        for (g, &(shard, local)) in placement.iter().enumerate() {
            assert_eq!(ids[shard as usize][local as usize], g);
        }
        // global order of survivors is the unsharded removal order
        let assembled = s.assemble().unwrap();
        let fids: Vec<String> = assembled
            .relation("Family")
            .unwrap()
            .iter()
            .map(|t| t[0].to_string())
            .collect();
        let expected: Vec<String> = (0..20)
            .filter(|&i| i != 7)
            .map(|i| format!("f{i}"))
            .collect();
        assert_eq!(fids, expected);
        // the key is reusable after removal (guard was patched)
        assert!(s.insert("Family", tuple!["f7", "Again", "gpcr"]).unwrap());
    }

    #[test]
    fn one_shard_degenerates_to_a_database() {
        let s = sample(1);
        assert_eq!(s.shard_count(), 1);
        assert_eq!(s.shards()[0].total_tuples(), 20);
        let placement = s.placement("Family").unwrap();
        for (i, &(shard, local)) in placement.iter().enumerate() {
            assert_eq!(shard, 0);
            assert_eq!(local as usize, i);
        }
    }
}
