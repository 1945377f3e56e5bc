//! Shard ownership over one store: routing, lead fragments, merges.
//!
//! A shard replica holds the whole snapshot and answers for the rows
//! a [`Partition`] says it owns. The [`ShardRouter`] statically plans
//! which shards each atom of a [`ConjunctiveQuery`] can touch: an
//! equality selection on the relation's shard-key column — a
//! constant in the atom itself, or a `Var = Const` comparison —
//! proves every matching tuple is owned by one shard
//! (`hash(const) % N`); anything else fans out to all shards. A
//! coordinator uses the route to call only the shards an answer
//! query implicates.
//!
//! [`lead_fragment_answers`] and [`lead_fragment_bindings`] cut the
//! one enumeration [`crate::evaluate_plan_with`] makes into per-shard
//! pieces: a replica runs the plan over the whole database and keeps
//! a derivation only when its lead row (the first atom of the join
//! order) is one its shard owns. Every derivation has exactly one
//! lead row, so the pieces partition the enumeration, and tagging
//! each with `(gid, seq)` — the lead row's position in the whole
//! relation, the emission index under it — lets [`merge_answers`]
//! and [`merge_groups`] restore the single-process order byte for
//! byte.

use crate::ast::{CompOp, ConjunctiveQuery, Term};
use crate::error::Result;
use crate::eval::{Binding, EvalOptions};
use crate::plan::{for_each_frame, Frame, QueryPlan};
use fgc_relation::sharded::{shard_of_value, Partition};
use fgc_relation::{Database, Tuple, Value};
use std::collections::{HashMap, HashSet};

/// The shards one atom's scan must touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSet {
    /// Routing proved the atom confined to a single shard.
    One(usize),
    /// No usable selection on the shard key: every shard.
    All,
}

/// Plans shard routing for conjunctive queries under one partition.
#[derive(Debug, Clone, Copy)]
pub struct ShardRouter<'a> {
    partition: &'a Partition,
}

impl<'a> ShardRouter<'a> {
    /// A router over a partition.
    pub fn new(partition: &'a Partition) -> Self {
        ShardRouter { partition }
    }

    /// Statically plan the shards each atom must touch, one entry per
    /// query atom in atom order. Only
    /// selections that hold *before* enumeration starts are used
    /// (constants in atom positions and `Var = Const` comparisons);
    /// bindings produced mid-join are deliberately ignored so the
    /// plan is a pure function of the query.
    pub fn plan(&self, q: &ConjunctiveQuery) -> Vec<ShardSet> {
        let shards = self.partition.shard_count();
        // Seed constants exactly like the evaluator does. On a
        // contradictory second constant the first seed stays: the
        // evaluation is empty either way, and any single-shard route
        // of an empty result is sound.
        let mut consts: HashMap<String, Value> = HashMap::new();
        for c in &q.comparisons {
            let n = c.normalized();
            if n.op == CompOp::Eq {
                if let (Term::Var(v), Term::Const(val)) = (&n.left, &n.right) {
                    consts.entry(v.clone()).or_insert_with(|| val.clone());
                }
            }
        }
        q.atoms
            .iter()
            .map(|atom| {
                let Some(col) = self.partition.shard_key_column(&atom.relation) else {
                    return ShardSet::All;
                };
                match atom.terms.get(col) {
                    Some(Term::Const(v)) => ShardSet::One(shard_of_value(v, shards)),
                    Some(Term::Var(x)) => match consts.get(x.as_str()) {
                        Some(v) => ShardSet::One(shard_of_value(v, shards)),
                        None => ShardSet::All,
                    },
                    None => ShardSet::All, // arity mismatch: caught by the catalog check
                }
            })
            .collect()
    }
}

/// Walk this shard's piece of the global enumeration over the whole
/// database: a derivation is kept only when `shard` owns its lead row,
/// and `sink` receives it as `(gid, seq, frame)` — `gid` the lead
/// row's position in its relation, `seq` the emission index under
/// that lead row.
fn for_each_lead_frame(
    db: &Database,
    partition: &Partition,
    plan: &QueryPlan,
    shard: usize,
    options: EvalOptions,
    sink: &mut dyn FnMut(usize, usize, &Frame),
) -> Result<()> {
    let lead = plan
        .join_order()
        .first()
        .map(|&atom| &plan.atom_relations()[atom]);
    // Zero-atom plans have no lead row to own: shard 0 serves the (at
    // most one) constant answer, the rest stay empty.
    if lead.is_none() && shard != 0 {
        return Ok(());
    }
    let owns = |row: &Tuple| lead.is_some_and(|relation| partition.owner(relation, row) == shard);
    let relations = plan.relations(db)?;
    let mut last_gid = None;
    let mut seq = 0usize;
    for_each_frame(
        plan,
        &relations,
        options,
        Some(&owns),
        &mut |frame, matched| {
            let gid = matched.first().map_or(0, |m| m.2);
            if last_gid != Some(gid) {
                last_gid = Some(gid);
                seq = 0;
            }
            sink(gid, seq, frame);
            seq += 1;
            Ok(())
        },
    )?;
    Ok(())
}
/// This shard's fragment of [`crate::evaluate_plan_with`]'s output:
/// `(gid, seq, tuple)` rows, each tuple once (its first derivation on
/// this shard). [`merge_answers`] over every shard's fragment
/// reproduces the global evaluation byte for byte: a tuple's globally
/// first derivation has one lead row, owned by one shard, which keeps
/// it.
pub fn lead_fragment_answers(
    db: &Database,
    partition: &Partition,
    plan: &QueryPlan,
    shard: usize,
    options: EvalOptions,
) -> Result<Vec<(usize, usize, Tuple)>> {
    let mut rows = Vec::new();
    let mut seen = HashSet::new();
    for_each_lead_frame(
        db,
        partition,
        plan,
        shard,
        options,
        &mut |gid, seq, frame| {
            let t = plan.project_head(frame);
            if seen.insert(t.clone()) {
                rows.push((gid, seq, t));
            }
        },
    )?;
    Ok(rows)
}

/// This shard's fragment of [`crate::evaluate_grouped_plan_with`]'s
/// emissions: `(gid, seq, head tuple, binding)` per derivation, no
/// dedup. [`merge_groups`] over every shard's fragment reproduces the
/// global grouped evaluation exactly.
pub fn lead_fragment_bindings(
    db: &Database,
    partition: &Partition,
    plan: &QueryPlan,
    shard: usize,
    options: EvalOptions,
) -> Result<Vec<(usize, usize, Tuple, Binding)>> {
    let mut rows = Vec::new();
    for_each_lead_frame(
        db,
        partition,
        plan,
        shard,
        options,
        &mut |gid, seq, frame| {
            rows.push((gid, seq, plan.project_head(frame), plan.binding(frame)));
        },
    )?;
    Ok(rows)
}

/// Every shard's [`lead_fragment_answers`] rows, concatenated in any
/// order, back in global `(gid, seq)` order with each tuple once (its
/// first derivation): [`crate::evaluate_plan_with`]'s output.
pub fn merge_answers(mut rows: Vec<(usize, usize, Tuple)>) -> Vec<Tuple> {
    rows.sort_by_key(|(gid, seq, _)| (*gid, *seq));
    let mut seen = HashSet::new();
    rows.into_iter()
        .filter_map(|(_, _, t)| seen.insert(t.clone()).then_some(t))
        .collect()
}

/// Every shard's [`lead_fragment_bindings`] rows, concatenated in any
/// order, back in global `(gid, seq)` order and grouped by tuple in
/// first-derivation order: [`crate::evaluate_grouped_plan_with`]'s
/// output.
pub fn merge_groups(mut rows: Vec<(usize, usize, Tuple, Binding)>) -> Vec<(Tuple, Vec<Binding>)> {
    rows.sort_by_key(|row| (row.0, row.1));
    let mut merged: Vec<(Tuple, Vec<Binding>)> = Vec::new();
    let mut index: HashMap<Tuple, usize> = HashMap::new();
    for (_, _, t, b) in rows {
        match index.get(&t) {
            Some(&i) => merged[i].1.push(b),
            None => {
                index.insert(t.clone(), merged.len());
                merged.push((t, vec![b]));
            }
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::{evaluate, evaluate_grouped, evaluate_plan_with};
    use fgc_relation::schema::RelationSchema;
    use fgc_relation::sharded::ShardKeySpec;
    use fgc_relation::{tuple, DataType};

    fn plain_db(families: usize) -> Database {
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
        db.create_relation(
            RelationSchema::with_names(
                "FamilyIntro",
                &[("FID", DataType::Str), ("Text", DataType::Str)],
                &["FID"],
            )
            .unwrap(),
        )
        .unwrap();
        let types = ["gpcr", "enzyme", "channel"];
        for i in 0..families {
            db.insert(
                "Family",
                tuple![format!("f{i}"), format!("Name{i}"), types[i % 3]],
            )
            .unwrap();
            if i % 2 == 0 {
                db.insert("FamilyIntro", tuple![format!("f{i}"), format!("Intro{i}")])
                    .unwrap();
            }
        }
        db
    }

    fn spec() -> ShardKeySpec {
        ShardKeySpec::new()
            .with("Family", "FID")
            .with("FamilyIntro", "FID")
    }

    fn partition(db: &Database, shards: usize) -> Partition {
        Partition::new(shards, spec(), db.catalog()).unwrap()
    }

    fn queries() -> Vec<ConjunctiveQuery> {
        [
            "Q(N) :- Family(F, N, Ty)",
            "Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"",
            "Q(N) :- Family(\"f3\", N, Ty)",
            "Q(N) :- Family(F, N, Ty), F = \"f4\"",
            "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)",
            "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = \"f2\"",
            "Q(Ty) :- Family(F, N, Ty)",
            "Q(A, B) :- Family(A, N1, T), Family(B, N2, T), A != B",
            "Q(X) :- X = \"zero atoms\"",
        ]
        .iter()
        .map(|q| parse_query(q).unwrap())
        .collect()
    }

    /// Every shard's answer fragment, in shard order.
    fn answer_fragments(
        db: &Database,
        partition: &Partition,
        q: &ConjunctiveQuery,
    ) -> Vec<Vec<(usize, usize, Tuple)>> {
        let plan = QueryPlan::compile(q, db).unwrap();
        (0..partition.shard_count())
            .map(|s| {
                lead_fragment_answers(db, partition, &plan, s, EvalOptions::default()).unwrap()
            })
            .collect()
    }

    /// Every shard's binding fragment, in shard order.
    fn binding_fragments(
        db: &Database,
        partition: &Partition,
        q: &ConjunctiveQuery,
    ) -> Vec<Vec<(usize, usize, Tuple, Binding)>> {
        let plan = QueryPlan::compile(q, db).unwrap();
        (0..partition.shard_count())
            .map(|s| {
                lead_fragment_bindings(db, partition, &plan, s, EvalOptions::default()).unwrap()
            })
            .collect()
    }

    #[test]
    fn sharded_evaluation_matches_unsharded_exactly() {
        // a shard's binding fragment is exactly the slice of the whole
        // enumeration whose lead rows it owns, `(gid, seq)` included
        let db = plain_db(23);
        for shards in [1, 2, 4, 7] {
            let partition = partition(&db, shards);
            for q in queries() {
                let plan = QueryPlan::compile(&q, &db).unwrap();
                let whole = lead_fragment_bindings(
                    &db,
                    &partition_of_one(&db),
                    &plan,
                    0,
                    EvalOptions::default(),
                )
                .unwrap();
                let lead = plan
                    .join_order()
                    .first()
                    .map(|&a| q.atoms[a].relation.clone());
                for (shard, fragment) in binding_fragments(&db, &partition, &q).iter().enumerate() {
                    let owned: Vec<_> = whole
                        .iter()
                        .filter(|(gid, ..)| match &lead {
                            Some(relation) => {
                                let row = &db.relation(relation).unwrap().rows()[*gid];
                                partition.owner(relation, row) == shard
                            }
                            None => shard == 0,
                        })
                        .cloned()
                        .collect();
                    assert_eq!(fragment, &owned, "shards={shards} shard={shard} q={q}");
                }
            }
        }
    }

    /// One shard owning every row: its fragment is the whole
    /// enumeration.
    fn partition_of_one(db: &Database) -> Partition {
        Partition::new(1, ShardKeySpec::new(), db.catalog()).unwrap()
    }

    #[test]
    fn sharded_grouped_matches_unsharded_exactly() {
        let db = plain_db(17);
        for shards in [2, 5] {
            let partition = partition(&db, shards);
            for q in queries() {
                let rows = binding_fragments(&db, &partition, &q).concat();
                let grouped = evaluate_grouped(&db, &q).unwrap();
                assert_eq!(
                    rows.len(),
                    grouped.iter().map(|(_, b)| b.len()).sum::<usize>(),
                    "every derivation on exactly one shard: shards={shards} q={q}"
                );
                assert_eq!(merge_groups(rows), grouped, "shards={shards} q={q}");
            }
        }
    }

    #[test]
    fn router_prunes_constant_selections_on_the_shard_key() {
        let db = plain_db(12);
        let partition = partition(&db, 4);
        let router = ShardRouter::new(&partition);
        let f3 = ShardSet::One(shard_of_value(&Value::str("f3"), 4));

        // constant in the atom's shard-key position
        let route = router.plan(&parse_query("Q(N) :- Family(\"f3\", N, Ty)").unwrap());
        assert_eq!(route, vec![f3]);

        // equality comparison binding the shard-key variable
        let route = router.plan(&parse_query("Q(N) :- Family(F, N, Ty), F = \"f3\"").unwrap());
        assert_eq!(route, vec![f3]);

        // selection on a non-key column cannot prune
        let route = router.plan(&parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").unwrap());
        assert_eq!(route, vec![ShardSet::All]);

        // joins route per atom: the keyed selection prunes its atom,
        // the join partner fans out
        let route = router.plan(
            &parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(G, Tx), F = \"f3\"").unwrap(),
        );
        assert_eq!(route, vec![f3, ShardSet::All]);
    }

    #[test]
    fn whole_tuple_fallback_never_prunes() {
        let db = plain_db(12);
        let partition = Partition::new(4, ShardKeySpec::new(), db.catalog()).unwrap();
        let q = parse_query("Q(N) :- Family(\"f3\", N, Ty)").unwrap();
        assert_eq!(ShardRouter::new(&partition).plan(&q), vec![ShardSet::All]);
        // ... but the merged fragments are still exact
        let rows = answer_fragments(&db, &partition, &q).concat();
        assert_eq!(evaluate(&db, &q).unwrap(), merge_answers(rows));
    }

    #[test]
    fn pruned_scan_sees_only_one_fragment_yet_stays_exact() {
        // indexes so the lead atom is probed, not scanned
        let mut db = plain_db(40);
        db.relation_mut("Family").unwrap().build_index(0).unwrap();
        db.relation_mut("FamilyIntro")
            .unwrap()
            .build_index(0)
            .unwrap();
        let partition = partition(&db, 4);
        for fid in ["f0", "f7", "f13", "f39"] {
            let q = parse_query(&format!(
                "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = \"{fid}\""
            ))
            .unwrap();
            let ShardSet::One(owner) = ShardRouter::new(&partition).plan(&q)[0] else {
                panic!("a keyed selection routes to one shard");
            };
            let fragments = answer_fragments(&db, &partition, &q);
            for (shard, fragment) in fragments.iter().enumerate() {
                assert!(shard == owner || fragment.is_empty(), "{fid} shard={shard}");
            }
            assert_eq!(
                evaluate(&db, &q).unwrap(),
                merge_answers(fragments.concat()),
                "{fid}"
            );
        }
    }

    #[test]
    fn merged_answer_fragments_reproduce_global_evaluation() {
        let db = plain_db(23);
        for shards in [1, 2, 4, 7] {
            let partition = partition(&db, shards);
            for q in queries() {
                let mut rows = answer_fragments(&db, &partition, &q);
                // the merge owes nothing to the order fragments arrive in
                rows.reverse();
                assert_eq!(
                    evaluate(&db, &q).unwrap(),
                    merge_answers(rows.concat()),
                    "shards={shards} q={q}"
                );
            }
        }
    }

    #[test]
    fn merged_binding_fragments_reproduce_grouped_evaluation() {
        let db = plain_db(17);
        for shards in [1, 2, 5] {
            let partition = partition(&db, shards);
            for q in queries() {
                let mut rows = binding_fragments(&db, &partition, &q);
                rows.reverse();
                assert_eq!(
                    evaluate_grouped(&db, &q).unwrap(),
                    merge_groups(rows.concat()),
                    "shards={shards} q={q}"
                );
            }
        }
    }

    #[test]
    fn errors_match_the_unsharded_evaluator() {
        let db = plain_db(5);
        let partition = partition(&db, 3);
        let q = parse_query("Q(A, B) :- Family(A, X, Y), Family(B, Z, W)").unwrap();
        let plan = QueryPlan::compile(&q, &db).unwrap();
        let options = EvalOptions { max_bindings: 4 };
        let whole = evaluate_plan_with(&db, &plan, options).unwrap_err();
        assert!(matches!(
            whole,
            crate::QueryError::BudgetExceeded { limit: 4, .. }
        ));
        // 5 × 5 derivations over 3 shards: some shard owns more than 4
        let errors: Vec<_> = (0..3)
            .filter_map(|s| lead_fragment_answers(&db, &partition, &plan, s, options).err())
            .collect();
        assert!(!errors.is_empty());
        for e in errors {
            assert_eq!(e.to_string(), whole.to_string());
        }
    }
}
