//! Routed evaluation over a [`ShardedDatabase`].
//!
//! The [`ShardRouter`] statically plans which shards each atom of a
//! [`ConjunctiveQuery`] must touch: an equality selection on the
//! relation's shard-key column — a constant in the atom itself, or a
//! `Var = Const` comparison — proves every matching tuple lives on
//! one shard (`hash(const) % N`), so that atom scans a single
//! fragment; anything else fans out to all shards.
//!
//! A [`RoutePlan`] is one half of a routed [`Source`]: evaluation is
//! the standard backtracking join, through the same [`crate::evaluate`]
//! family a plain database uses, over per-shard fragments presented
//! in **global insertion order** (see [`crate::eval`]'s `AtomView`).
//! Derivations whose rows live on different shards merge exactly where
//! the unsharded source merges them — set-semantics union, and the
//! semiring `+` over bindings of Definition 3.2, accumulated in the
//! identical sequence — which keeps citations **byte-for-byte** equal
//! to the unsharded engine (not merely set-equal).
//!
//! [`lead_fragment_answers`] and [`lead_fragment_bindings`] cut that
//! one enumeration into per-shard pieces a coordinator can merge.

use crate::ast::{CompOp, ConjunctiveQuery, Term};
use crate::error::Result;
use crate::eval::{Binding, EvalOptions, Source};
use crate::plan::{for_each_frame, Frame, QueryPlan};
use fgc_relation::sharded::{shard_of_value, ShardedDatabase};
use fgc_relation::{Tuple, Value};
use std::collections::{HashMap, HashSet};

/// The shards one atom's scan must touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSet {
    /// Routing proved the atom confined to a single shard.
    One(usize),
    /// No usable selection on the shard key: scan every shard.
    All,
}

/// A per-atom routing plan for one query.
#[derive(Debug, Clone)]
pub struct RoutePlan {
    /// Number of shards in the store the plan was made for.
    pub shards: usize,
    /// One entry per query atom, in atom order.
    pub atoms: Vec<ShardSet>,
}

impl RoutePlan {
    /// Atoms routed to exactly one shard.
    pub fn pruned_atoms(&self) -> usize {
        self.atoms
            .iter()
            .filter(|s| matches!(s, ShardSet::One(_)))
            .count()
    }

    /// Atoms that fan out to every shard.
    pub fn fanout_atoms(&self) -> usize {
        self.atoms.len() - self.pruned_atoms()
    }

    /// Whether every atom was pruned to a single shard.
    pub fn fully_routed(&self) -> bool {
        !self.atoms.is_empty() && self.fanout_atoms() == 0
    }

    /// Total fragments scanned under this plan (the unsharded
    /// equivalent would scan `atoms.len()` whole relations).
    pub fn fragments_scanned(&self) -> usize {
        self.atoms
            .iter()
            .map(|s| match s {
                ShardSet::One(_) => 1,
                ShardSet::All => self.shards,
            })
            .sum()
    }
}

/// Plans shard routing for conjunctive queries against one store.
#[derive(Debug, Clone, Copy)]
pub struct ShardRouter<'a> {
    db: &'a ShardedDatabase,
}

impl<'a> ShardRouter<'a> {
    /// A router over a sharded store.
    pub fn new(db: &'a ShardedDatabase) -> Self {
        ShardRouter { db }
    }

    /// Statically plan the shards each atom must touch. Only
    /// selections that hold *before* enumeration starts are used
    /// (constants in atom positions and `Var = Const` comparisons);
    /// bindings produced mid-join are deliberately ignored so the
    /// plan — like the unsharded planner's statistics — is a pure
    /// function of the query.
    pub fn plan(&self, q: &ConjunctiveQuery) -> RoutePlan {
        let shards = self.db.shard_count();
        // Seed constants exactly like the evaluator does. On a
        // contradictory second constant the first seed stays: the
        // evaluation is empty either way, and any single-shard scan
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
        let atoms = q
            .atoms
            .iter()
            .map(|atom| {
                let Some(col) = self.db.shard_key_column(&atom.relation) else {
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
            .collect();
        RoutePlan { shards, atoms }
    }
}

/// Walk this shard's piece of the global enumeration: the route is
/// restricted so only `shard`'s fragment of the join-order lead atom
/// is scanned, and `sink` receives each derivation as `(gid, seq,
/// frame)` — `gid` the lead atom's global row id, `seq` the emission
/// index under that lead row. Every derivation's lead row lives on
/// exactly one shard, so the pieces of all shards partition the
/// global enumeration and `(gid, seq)` restores its order; non-lead
/// atoms keep their original routing (a pure function of the query,
/// hence identical on every replica).
fn for_each_lead_frame(
    db: &ShardedDatabase,
    plan: &QueryPlan,
    route: &RoutePlan,
    shard: usize,
    options: EvalOptions,
    sink: &mut dyn FnMut(usize, usize, &Frame),
) -> Result<()> {
    let mut lead = route.clone();
    match plan.join_order().first() {
        Some(&first) => lead.atoms[first] = ShardSet::One(shard),
        // Zero-atom plans have no lead row to partition on: shard 0
        // serves the (at most one) constant answer, the rest stay
        // empty.
        None if shard != 0 => return Ok(()),
        None => {}
    }
    let views = Source::Routed(db, Some(lead)).views(plan)?;
    let mut last_gid = None;
    let mut seq = 0usize;
    for_each_frame(plan, &views, options, &mut |frame, matched| {
        let gid = matched.first().map(|m| m.2).unwrap_or(0);
        if last_gid != Some(gid) {
            last_gid = Some(gid);
            seq = 0;
        }
        sink(gid, seq, frame);
        seq += 1;
        Ok(())
    })?;
    Ok(())
}

/// This shard's fragment of [`crate::evaluate_plan_with`]'s output
/// over the routed store: `(gid, seq, tuple)` rows (see
/// `for_each_lead_frame`). Concatenating all shards' fragments,
/// sorting by `(gid, seq)` and deduplicating keep-first reproduces
/// the global evaluation byte-for-byte (the per-shard keep-first
/// dedup here is sound because every lead row — and with it a tuple's
/// globally first derivation — lives on exactly one shard).
pub fn lead_fragment_answers(
    db: &ShardedDatabase,
    plan: &QueryPlan,
    route: &RoutePlan,
    shard: usize,
    options: EvalOptions,
) -> Result<Vec<(usize, usize, Tuple)>> {
    let mut rows = Vec::new();
    let mut seen = HashSet::new();
    for_each_lead_frame(db, plan, route, shard, options, &mut |gid, seq, frame| {
        let t = plan.project_head(frame);
        if seen.insert(t.clone()) {
            rows.push((gid, seq, t));
        }
    })?;
    Ok(rows)
}

/// This shard's fragment of [`crate::evaluate_grouped_plan_with`]'s
/// emissions: `(gid, seq, head tuple, binding)` per derivation, no
/// dedup. Sorting the union of all shards' fragments by `(gid, seq)`
/// and grouping by head tuple in first-appearance order reproduces
/// the global grouped evaluation exactly.
pub fn lead_fragment_bindings(
    db: &ShardedDatabase,
    plan: &QueryPlan,
    route: &RoutePlan,
    shard: usize,
    options: EvalOptions,
) -> Result<Vec<(usize, usize, Tuple, Binding)>> {
    let mut rows = Vec::new();
    for_each_lead_frame(db, plan, route, shard, options, &mut |gid, seq, frame| {
        rows.push((gid, seq, plan.project_head(frame), plan.binding(frame)));
    })?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::{evaluate, evaluate_annotated, evaluate_grouped, evaluate_plan_with};
    use fgc_relation::schema::RelationSchema;
    use fgc_relation::sharded::ShardKeySpec;
    use fgc_relation::{tuple, DataType, Database};
    use fgc_semiring::Polynomial;

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
        ]
        .iter()
        .map(|q| parse_query(q).unwrap())
        .collect()
    }

    #[test]
    fn sharded_evaluation_matches_unsharded_exactly() {
        let db = plain_db(23);
        for shards in [1, 2, 4, 7] {
            let store = ShardedDatabase::from_database(&db, shards, spec()).unwrap();
            for q in queries() {
                let plain = evaluate(&db, &q).unwrap();
                let routed = evaluate(&store, &q).unwrap();
                assert_eq!(plain, routed, "shards={shards} q={q}");
            }
        }
    }

    #[test]
    fn sharded_grouped_matches_unsharded_exactly() {
        let db = plain_db(17);
        for shards in [2, 5] {
            let store = ShardedDatabase::from_database(&db, shards, spec()).unwrap();
            for q in queries() {
                let plain = evaluate_grouped(&db, &q).unwrap();
                let routed = evaluate_grouped(&store, &q).unwrap();
                assert_eq!(plain, routed, "shards={shards} q={q}");
            }
        }
    }

    #[test]
    fn sharded_annotated_polynomials_are_byte_identical() {
        let db = plain_db(17);
        for shards in [1, 2, 4, 7] {
            let store = ShardedDatabase::from_database(&db, shards, spec()).unwrap();
            for q in queries() {
                let plain: Vec<(Tuple, Polynomial<String>)> =
                    evaluate_annotated(&db, &q, |rel, row| {
                        Polynomial::token(format!("{rel}:{row}"))
                    })
                    .unwrap();
                let routed: Vec<(Tuple, Polynomial<String>)> =
                    evaluate_annotated(&store, &q, |rel, row| {
                        Polynomial::token(format!("{rel}:{row}"))
                    })
                    .unwrap();
                assert_eq!(plain.len(), routed.len(), "shards={shards} q={q}");
                for ((t1, p1), (t2, p2)) in plain.iter().zip(&routed) {
                    assert_eq!(t1, t2, "shards={shards} q={q}");
                    assert_eq!(
                        format!("{p1:?}"),
                        format!("{p2:?}"),
                        "shards={shards} q={q}"
                    );
                }
            }
        }
    }

    #[test]
    fn router_prunes_constant_selections_on_the_shard_key() {
        let db = plain_db(12);
        let store = ShardedDatabase::from_database(&db, 4, spec()).unwrap();
        let router = ShardRouter::new(&store);

        // constant in the atom's shard-key position
        let plan = router.plan(&parse_query("Q(N) :- Family(\"f3\", N, Ty)").unwrap());
        assert_eq!(plan.pruned_atoms(), 1);
        assert_eq!(plan.fragments_scanned(), 1);
        assert!(plan.fully_routed());

        // equality comparison binding the shard-key variable
        let plan = router.plan(&parse_query("Q(N) :- Family(F, N, Ty), F = \"f3\"").unwrap());
        assert_eq!(
            plan.atoms,
            vec![ShardSet::One(shard_of_value(&Value::str("f3"), 4))]
        );

        // selection on a non-key column cannot prune
        let plan = router.plan(&parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").unwrap());
        assert_eq!(plan.atoms, vec![ShardSet::All]);
        assert_eq!(plan.fragments_scanned(), 4);

        // joins route per atom: the keyed selection prunes its atom,
        // the join partner fans out
        let plan = router.plan(
            &parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(G, Tx), F = \"f3\"").unwrap(),
        );
        assert_eq!(plan.pruned_atoms(), 1);
        assert_eq!(plan.fanout_atoms(), 1);
        assert_eq!(plan.fragments_scanned(), 5);
    }

    #[test]
    fn whole_tuple_fallback_never_prunes() {
        let db = plain_db(12);
        let store = ShardedDatabase::from_database(&db, 4, ShardKeySpec::new()).unwrap();
        let router = ShardRouter::new(&store);
        let plan = router.plan(&parse_query("Q(N) :- Family(\"f3\", N, Ty)").unwrap());
        assert_eq!(plan.atoms, vec![ShardSet::All]);
        // ... but evaluation is still exact
        let q = parse_query("Q(N) :- Family(\"f3\", N, Ty)").unwrap();
        assert_eq!(evaluate(&db, &q).unwrap(), evaluate(&store, &q).unwrap());
    }

    #[test]
    fn pruned_scan_sees_only_one_fragment_yet_stays_exact() {
        // indexes on each shard so the pruned path exercises probes
        let db = plain_db(40);
        let mut store = ShardedDatabase::from_database(&db, 4, spec()).unwrap();
        store.build_index("Family", 0).unwrap();
        store.build_index("FamilyIntro", 0).unwrap();
        for fid in ["f0", "f7", "f13", "f39"] {
            let q = parse_query(&format!(
                "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = \"{fid}\""
            ))
            .unwrap();
            assert_eq!(
                evaluate(&db, &q).unwrap(),
                evaluate(&store, &q).unwrap(),
                "{fid}"
            );
        }
    }

    #[test]
    fn merged_answer_fragments_reproduce_global_evaluation() {
        let db = plain_db(23);
        for shards in [1, 2, 4, 7] {
            let store = ShardedDatabase::from_database(&db, shards, spec()).unwrap();
            for q in queries() {
                let plan = QueryPlan::compile(&q, &store).unwrap();
                let route = ShardRouter::new(&store).plan(&q);
                let mut frags = Vec::new();
                for s in 0..shards {
                    frags.extend(
                        lead_fragment_answers(&store, &plan, &route, s, EvalOptions::default())
                            .unwrap(),
                    );
                }
                frags.sort_by_key(|(gid, seq, _)| (*gid, *seq));
                let mut merged = Vec::new();
                let mut seen = HashSet::new();
                for (_, _, t) in frags {
                    if seen.insert(t.clone()) {
                        merged.push(t);
                    }
                }
                assert_eq!(evaluate(&db, &q).unwrap(), merged, "shards={shards} q={q}");
            }
        }
    }

    #[test]
    fn merged_binding_fragments_reproduce_grouped_evaluation() {
        let db = plain_db(17);
        for shards in [1, 2, 5] {
            let store = ShardedDatabase::from_database(&db, shards, spec()).unwrap();
            for q in queries() {
                let plan = QueryPlan::compile(&q, &store).unwrap();
                let route = ShardRouter::new(&store).plan(&q);
                let mut frags = Vec::new();
                for s in 0..shards {
                    frags.extend(
                        lead_fragment_bindings(&store, &plan, &route, s, EvalOptions::default())
                            .unwrap(),
                    );
                }
                frags.sort_by_key(|frag| (frag.0, frag.1));
                let mut merged: Vec<(Tuple, Vec<Binding>)> = Vec::new();
                for (_, _, t, b) in frags {
                    match merged.iter_mut().find(|(mt, _)| *mt == t) {
                        Some((_, bs)) => bs.push(b),
                        None => merged.push((t, vec![b])),
                    }
                }
                assert_eq!(
                    evaluate_grouped(&db, &q).unwrap(),
                    merged,
                    "shards={shards} q={q}"
                );
            }
        }
    }

    #[test]
    fn errors_match_the_unsharded_evaluator() {
        let db = plain_db(5);
        let store = ShardedDatabase::from_database(&db, 3, spec()).unwrap();
        let unsafe_q = parse_query("Q(X) :- Family(F, N, Ty)").unwrap();
        assert!(matches!(
            evaluate(&store, &unsafe_q).unwrap_err(),
            crate::QueryError::Unsafe { .. }
        ));
        let unknown = parse_query("Q(X) :- Nope(X)").unwrap();
        assert!(evaluate(&store, &unknown).is_err());
        let q = parse_query("Q(A, B) :- Family(A, X, Y), Family(B, Z, W)").unwrap();
        let plan = QueryPlan::compile(&q, &store).unwrap();
        let routed = Source::Routed(&store, Some(ShardRouter::new(&store).plan(&q)));
        let err = evaluate_plan_with(routed, &plan, EvalOptions { max_bindings: 4 }).unwrap_err();
        assert!(matches!(
            err,
            crate::QueryError::BudgetExceeded { limit: 4, .. }
        ));
    }
}
