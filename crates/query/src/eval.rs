//! Evaluation of conjunctive queries: one evaluator over one
//! [`Database`].
//!
//! The evaluator is a backtracking index-nested-loop join with a
//! greedy atom order (most-bound atom first), compiled once into a
//! [`QueryPlan`]. Three collectors fold the one enumeration of
//! bindings per distinct output tuple, in first-derivation order —
//! each compiling a plan per call, with a `_plan_with` form that runs
//! a plan compiled earlier:
//!
//! * [`evaluate`] — distinct output tuples (set semantics);
//! * [`evaluate_grouped`] — output tuples with *all* their bindings,
//!   the raw material for Definition 3.2's sum over bindings;
//! * [`evaluate_annotated`] — semiring-annotated evaluation: each
//!   base tuple carries an annotation, joins multiply (`·`), multiple
//!   derivations of the same output add (`+`) — §3.1 of the paper.
//!   This is the "changes ... in terms of query processing (to
//!   combine citation annotations)" the paper anticipates in §4.

use crate::ast::ConjunctiveQuery;
use crate::error::Result;
use crate::plan::{for_each_frame, Frame, PlanMatchedRows, QueryPlan};
use fgc_relation::{Database, Tuple, Value};
use fgc_semiring::CommutativeSemiring;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// A total assignment of values to the query's variables.
pub type Binding = HashMap<String, Value>;

/// Resource limits for evaluation.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Maximum number of bindings enumerated before
    /// [`QueryError::BudgetExceeded`](crate::QueryError::BudgetExceeded)
    /// is raised.
    pub max_bindings: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            max_bindings: 10_000_000,
        }
    }
}

/// The one collector under all three entry points: enumerate the
/// plan's bindings over `db`, fold them per distinct head tuple
/// (`first` opens a tuple's accumulator with its first derivation's
/// item, `more` absorbs each later one, in enumeration order), and
/// yield the tuples in first-derivation order. The map *owns* each
/// distinct tuple — nothing is cloned per emission — and the order is
/// restored from insertion ranks at the end.
fn fold_by_head<I, X>(
    db: &Database,
    plan: &QueryPlan,
    options: EvalOptions,
    mut item: impl FnMut(&Frame, &PlanMatchedRows<'_>) -> I,
    first: impl Fn(I) -> X,
    more: impl Fn(&mut X, I),
) -> Result<impl Iterator<Item = (Tuple, X)>> {
    let relations = plan.relations(db)?;
    // Pre-sized by the only statically known bound on distinct outputs,
    // the bindings budget — capped, so a large default budget is not a
    // large upfront allocation.
    let mut acc = HashMap::<Tuple, (usize, X)>::with_capacity(options.max_bindings.min(1024));
    for_each_frame(plan, &relations, options, &mut |frame, matched| {
        let rank = acc.len();
        match acc.entry(plan.project_head(frame)) {
            Entry::Occupied(mut e) => more(&mut e.get_mut().1, item(frame, matched)),
            Entry::Vacant(e) => {
                e.insert((rank, first(item(frame, matched))));
            }
        }
        Ok(())
    })?;
    let mut out: Vec<(usize, Tuple, X)> = acc.into_iter().map(|(t, (i, x))| (i, t, x)).collect();
    out.sort_unstable_by_key(|(i, _, _)| *i);
    Ok(out.into_iter().map(|(_, t, x)| (t, x)))
}

/// Evaluate a query, returning distinct output tuples (set semantics)
/// in first-derivation order. Compiles a [`QueryPlan`] and executes
/// it; callers evaluating the same query repeatedly should compile
/// once (or use the engine's plan cache) and call
/// [`evaluate_plan_with`].
pub fn evaluate(db: &Database, q: &ConjunctiveQuery) -> Result<Vec<Tuple>> {
    evaluate_plan_with(db, &QueryPlan::compile(q, db)?, EvalOptions::default())
}

/// Execute a pre-compiled plan: the distinct output tuples.
pub fn evaluate_plan_with(
    db: &Database,
    plan: &QueryPlan,
    options: EvalOptions,
) -> Result<Vec<Tuple>> {
    let tuples = fold_by_head(db, plan, options, |_, _| (), |()| (), |(), ()| ())?;
    Ok(tuples.map(|(t, ())| t).collect())
}

/// Evaluate and group *all* bindings by output tuple — Definition 3.2
/// needs "the set of all bindings for Q' that yield a tuple t".
pub fn evaluate_grouped(db: &Database, q: &ConjunctiveQuery) -> Result<Vec<(Tuple, Vec<Binding>)>> {
    evaluate_grouped_plan_with(db, &QueryPlan::compile(q, db)?, EvalOptions::default())
}

/// [`evaluate_grouped`] over a pre-compiled plan. Frames convert to
/// name-keyed [`Binding`]s only at emission.
pub fn evaluate_grouped_plan_with(
    db: &Database,
    plan: &QueryPlan,
    options: EvalOptions,
) -> Result<Vec<(Tuple, Vec<Binding>)>> {
    let binding = |frame: &Frame, _: &PlanMatchedRows<'_>| plan.binding(frame);
    Ok(fold_by_head(db, plan, options, binding, |b| vec![b], Vec::push)?.collect())
}

/// Semiring-annotated evaluation (§3.1): `annotate(relation, row)`
/// supplies the base annotation of each tuple; per binding the atom
/// annotations are multiplied, per output tuple the binding products
/// are summed. Output order is first-derivation order, and the sums
/// accumulate in enumeration order.
pub fn evaluate_annotated<S, F>(
    db: &Database,
    q: &ConjunctiveQuery,
    annotate: F,
) -> Result<Vec<(Tuple, S)>>
where
    S: CommutativeSemiring,
    F: FnMut(&str, usize) -> S,
{
    let plan = QueryPlan::compile(q, db)?;
    evaluate_annotated_plan_with(db, &plan, EvalOptions::default(), annotate)
}

/// [`evaluate_annotated`] over a pre-compiled plan.
pub fn evaluate_annotated_plan_with<S, F>(
    db: &Database,
    plan: &QueryPlan,
    options: EvalOptions,
    mut annotate: F,
) -> Result<Vec<(Tuple, S)>>
where
    S: CommutativeSemiring,
    F: FnMut(&str, usize) -> S,
{
    let product = |_: &Frame, matched: &PlanMatchedRows<'_>| {
        matched
            .iter()
            .fold(S::one(), |p, (_, rel, row)| p.times(&annotate(rel, *row)))
    };
    let sum = |s: &mut S, p: S| *s = s.plus(&p);
    Ok(fold_by_head(db, plan, options, product, |p| p, sum)?.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::QueryError;
    use crate::parser::parse_query;
    use fgc_relation::schema::RelationSchema;
    use fgc_relation::{tuple, DataType};
    use fgc_semiring::{Natural, Polynomial};

    fn sample_db() -> Database {
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
        db.insert_all(
            "Family",
            vec![
                tuple!["11", "Calcitonin", "gpcr"],
                tuple!["12", "Orexin", "gpcr"],
                tuple!["13", "Kinase", "enzyme"],
            ],
        )
        .unwrap();
        db.insert_all(
            "FamilyIntro",
            vec![
                tuple!["11", "The calcitonin peptide family"],
                tuple!["13", "Kinases catalyse"],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn select_with_comparison() {
        let db = sample_db();
        let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").unwrap();
        let out = evaluate(&db, &q).unwrap();
        assert_eq!(out, vec![tuple!["Calcitonin"], tuple!["Orexin"]]);
    }

    #[test]
    fn join_via_shared_variable() {
        let db = sample_db();
        let q = parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)").unwrap();
        let mut out = evaluate(&db, &q).unwrap();
        out.sort();
        assert_eq!(
            out,
            vec![
                tuple!["Calcitonin", "The calcitonin peptide family"],
                tuple!["Kinase", "Kinases catalyse"],
            ]
        );
    }

    #[test]
    fn paper_example_2_2_query() {
        // names of gpcr families that have an introduction page
        let db = sample_db();
        let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\", FamilyIntro(F, Tx)").unwrap();
        let out = evaluate(&db, &q).unwrap();
        assert_eq!(out, vec![tuple!["Calcitonin"]]);
    }

    #[test]
    fn constants_in_atoms_act_as_selection() {
        let db = sample_db();
        let q = parse_query("Q(N) :- Family(\"11\", N, Ty)").unwrap();
        let out = evaluate(&db, &q).unwrap();
        assert_eq!(out, vec![tuple!["Calcitonin"]]);
    }

    #[test]
    fn projection_deduplicates() {
        let db = sample_db();
        let q = parse_query("Q(Ty) :- Family(F, N, Ty)").unwrap();
        let out = evaluate(&db, &q).unwrap();
        assert_eq!(out.len(), 2); // gpcr, enzyme
    }

    #[test]
    fn grouped_collects_all_bindings() {
        let db = sample_db();
        let q = parse_query("Q(Ty) :- Family(F, N, Ty)").unwrap();
        let grouped = evaluate_grouped(&db, &q).unwrap();
        let gpcr = grouped.iter().find(|(t, _)| t == &tuple!["gpcr"]).unwrap();
        assert_eq!(gpcr.1.len(), 2); // two gpcr families
        let enzyme = grouped
            .iter()
            .find(|(t, _)| t == &tuple!["enzyme"])
            .unwrap();
        assert_eq!(enzyme.1.len(), 1);
    }

    #[test]
    fn annotated_eval_counts_derivations() {
        let db = sample_db();
        let q = parse_query("Q(Ty) :- Family(F, N, Ty)").unwrap();
        let out: Vec<(Tuple, Natural)> = evaluate_annotated(&db, &q, |_, _| Natural(1)).unwrap();
        let gpcr = out.iter().find(|(t, _)| t == &tuple!["gpcr"]).unwrap();
        assert_eq!(gpcr.1, Natural(2));
    }

    #[test]
    fn annotated_eval_builds_provenance_polynomials() {
        let db = sample_db();
        let q = parse_query("Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx)").unwrap();
        let out: Vec<(Tuple, Polynomial<String>)> = evaluate_annotated(&db, &q, |rel, row| {
            Polynomial::token(format!("{rel}:{row}"))
        })
        .unwrap();
        let calci = out
            .iter()
            .find(|(t, _)| t == &tuple!["Calcitonin"])
            .unwrap();
        // exactly one derivation joining Family row 0 and Intro row 0
        assert_eq!(calci.1.num_monomials(), 1);
        let m = calci.1.monomials().next().unwrap();
        assert_eq!(m.degree(), 2);
        assert_eq!(m.exponent(&"Family:0".to_string()), 1);
        assert_eq!(m.exponent(&"FamilyIntro:0".to_string()), 1);
    }

    #[test]
    fn inequality_comparisons() {
        let db = sample_db();
        let q = parse_query("Q(N) :- Family(F, N, Ty), F > \"11\"").unwrap();
        let out = evaluate(&db, &q).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn var_to_var_comparison() {
        let db = sample_db();
        let q = parse_query("Q(A, B) :- Family(F1, A, T1), Family(F2, B, T2), F1 < F2").unwrap();
        let out = evaluate(&db, &q).unwrap();
        assert_eq!(out.len(), 3); // (11,12) (11,13) (12,13)
    }

    #[test]
    fn empty_result_is_ok() {
        let db = sample_db();
        let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"nope\"").unwrap();
        assert!(evaluate(&db, &q).unwrap().is_empty());
    }

    #[test]
    fn contradictory_selection_yields_empty() {
        let db = sample_db();
        let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\", Ty = \"enzyme\"").unwrap();
        assert!(evaluate(&db, &q).unwrap().is_empty());
    }

    #[test]
    fn unsafe_query_rejected() {
        let db = sample_db();
        let q = parse_query("Q(X) :- Family(F, N, Ty)").unwrap();
        assert!(matches!(
            evaluate(&db, &q).unwrap_err(),
            QueryError::Unsafe { .. }
        ));
    }

    #[test]
    fn budget_enforced() {
        let db = sample_db();
        let q = parse_query("Q(A, B) :- Family(A, X, Y), Family(B, Z, W)").unwrap();
        let plan = QueryPlan::compile(&q, &db).unwrap();
        let err = evaluate_plan_with(&db, &plan, EvalOptions { max_bindings: 4 }).unwrap_err();
        assert!(matches!(err, QueryError::BudgetExceeded { limit: 4, .. }));
        // the client reads the limit it set, not "more than 0 bindings"
        assert!(err.to_string().contains('4'), "{err}");
    }

    #[test]
    fn self_join_uses_distinct_atom_occurrences() {
        let db = sample_db();
        // pairs of distinct families with the same type
        let q = parse_query("Q(A, B) :- Family(A, N1, T), Family(B, N2, T), A != B").unwrap();
        let out = evaluate(&db, &q).unwrap();
        assert_eq!(out.len(), 2); // (11,12) and (12,11)
    }

    #[test]
    fn count_bindings_counts_derivations() {
        let db = sample_db();
        let q = parse_query("Q(Ty) :- Family(F, N, Ty)").unwrap();
        // three derivations fold into two distinct tuples; the count
        // the executor returns is of derivations
        let plan = QueryPlan::compile(&q, &db).unwrap();
        let relations = plan.relations(&db).unwrap();
        let count = for_each_frame(
            &plan,
            &relations,
            EvalOptions::default(),
            &mut |_, _| Ok(()),
        );
        assert_eq!(count.unwrap(), 3);
    }

    #[test]
    fn indexes_do_not_change_results() {
        let mut db = sample_db();
        let q = parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)").unwrap();
        let plain = evaluate(&db, &q).unwrap();
        db.build_default_indexes().unwrap();
        db.relation_mut("Family").unwrap().build_index(2).unwrap();
        let indexed = evaluate(&db, &q).unwrap();
        let mut a = plain;
        let mut b = indexed;
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
