//! The compiled evaluator against the oracle: on every query of every
//! instance, over the unsharded database and every sharding of it, the
//! three collectors — distinct answers, grouped bindings, provenance
//! polynomials — must equal the folds of
//! [`fgcite::query::reference_derivations`], which enumerates every
//! derivation by definition (atoms in text order, full scans, no
//! index, no plan). The comparison ignores order; what the order *is*
//! is pinned once, literally, by `first_derivation_order_is_pinned`,
//! and `one_plan_serves_every_source` holds it byte-identical across
//! sources.

mod common;

use common::{Collected, QUERIES};
use fgcite::gtopdb::{generate, paper_instance, paper_shard_spec, GeneratorConfig};
use fgcite::query::{
    evaluate, evaluate_annotated_plan_with, evaluate_grouped, evaluate_grouped_plan_with,
    evaluate_plan_with, parse_query, Binding, ConjunctiveQuery, EvalOptions, QueryError, QueryPlan,
    ShardRouter, Source,
};
use fgcite::relation::sharded::ShardedDatabase;
use fgcite::relation::{tuple, Database, Tuple, Value};
use fgcite::semiring::Polynomial;

/// The shared mix plus the shapes only the evaluator needs: a
/// duplicate-heavy projection, a cross product with `<`, a non-key
/// comparison, and a head variable bound by a constant alone.
const MORE_QUERIES: &[&str] = &[
    "Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"",
    "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)",
    "Q(Ty) :- Family(F, N, Ty)",
    "Q(A, B) :- Family(A, N1, T1), Family(B, N2, T2), A < B",
    "Q(N) :- Family(F, N, Ty), F > \"11\"",
    "Q(N, X) :- Family(F, N, Ty), X = \"const\"",
    // X is bound only through the chain X = Z = Y
    "Q(X) :- Family(Y, N, T), X = Z, Z = Y",
    "Q(X, N) :- Family(Y, N, T), X = Z, Z = Y, X > \"11\"",
];

fn paper_queries() -> Vec<ConjunctiveQuery> {
    let all = QUERIES.iter().chain(MORE_QUERIES);
    all.map(|q| parse_query(q).expect("static query")).collect()
}

/// All three collectors over `source` — `db` itself or any sharding
/// of it — against the oracle's folds over `db`.
fn assert_agrees(source: Source<'_>, db: &Database, q: &ConjunctiveQuery, context: &str) {
    assert_eq!(
        Collected::by_executor(source, q),
        Collected::by_definition(db, q),
        "{context} q={q}"
    );
}

#[test]
fn paper_instance_queries_are_byte_identical() {
    let db = paper_instance();
    for q in paper_queries() {
        assert_agrees(Source::Whole(&db), &db, &q, "paper instance");
    }
}

#[test]
fn randomized_gtopdb_instances_are_byte_identical() {
    // property-style sweep: several seeds and scales, template plus
    // ad-hoc workload queries
    for (seed, families) in [(3u64, 30usize), (17, 75), (91, 140)] {
        let db = common::gtopdb(families, seed);
        let mut w = fgcite::gtopdb::WorkloadGenerator::new(&db, seed ^ 0x5eed);
        let mut queries = w.ad_hoc_batch(10);
        queries.extend(
            (0..fgcite::gtopdb::WorkloadGenerator::template_count())
                .map(|t| w.query_from_template(t)),
        );
        for q in &queries {
            let context = format!("seed={seed} families={families}");
            assert_agrees(Source::Whole(&db), &db, q, &context);
        }
    }
}

#[test]
fn hand_written_queries_survive_generated_instances() {
    let db = common::gtopdb(50, 7);
    for q in paper_queries() {
        assert_agrees(Source::Whole(&db), &db, &q, "generated instance");
    }
}

#[test]
fn compiled_sharded_evaluation_matches_the_reference() {
    // routed over the sharded store vs the oracle over the unsharded
    // one: routing, scatter and global row ids must all be exact
    let db = common::gtopdb(90, 23);
    let queries = common::workload(&db, 29, 8);
    for shards in [1usize, 2, 4, 7] {
        let store = ShardedDatabase::from_database(&db, shards, paper_shard_spec()).unwrap();
        for q in queries.iter().chain(&paper_queries()) {
            assert_agrees(Source::from(&store), &db, q, &format!("shards={shards}"));
        }
    }
}

#[test]
fn one_plan_serves_every_source() {
    // compile once from the unsharded database, then run that plan
    // over the database, over every sharding of it unrouted (each
    // atom fans out) and under the router's pruned route: the plan
    // fixes join order and slots from global sizes, the source only
    // picks which fragments are scanned, so all outputs coincide
    type Collected = (Vec<Tuple>, Vec<(Tuple, Vec<Binding>)>, String);
    fn collect(source: Source<'_>, plan: &QueryPlan) -> Collected {
        let options = EvalOptions::default();
        let tuples = evaluate_plan_with(source.clone(), plan, options).unwrap();
        let grouped = evaluate_grouped_plan_with(source.clone(), plan, options).unwrap();
        let annotated: Vec<(Tuple, Polynomial<String>)> =
            evaluate_annotated_plan_with(source, plan, options, common::row_token).unwrap();
        (tuples, grouped, format!("{annotated:?}"))
    }
    let db = common::gtopdb(60, 41);
    let queries = common::workload(&db, 43, 6);
    let stores: Vec<ShardedDatabase> = [1usize, 2, 4, 7]
        .iter()
        .map(|&n| ShardedDatabase::from_database(&db, n, paper_shard_spec()).unwrap())
        .collect();
    for q in queries.iter().chain(&paper_queries()) {
        let plan = QueryPlan::compile(q, &db).unwrap();
        let whole = collect(Source::Whole(&db), &plan);
        for store in &stores {
            let shards = store.shard_count();
            assert_eq!(
                whole,
                collect(Source::from(store), &plan),
                "unrouted: shards={shards} q={q}"
            );
            let route = ShardRouter::new(store).plan(q);
            assert_eq!(
                whole,
                collect(Source::Routed(store, Some(route)), &plan),
                "routed: shards={shards} q={q}"
            );
        }
    }
}

#[test]
fn agrees_with_the_brute_force_oracle() {
    // An index on every column: the executor probes wherever a value
    // is bound, the oracle never probes, so an index that returned
    // the wrong rows would show here.
    let mut db = paper_instance();
    let columns: Vec<(String, usize)> = db
        .catalog()
        .iter()
        .flat_map(|schema| (0..schema.arity()).map(|c| (schema.name.clone(), c)))
        .collect();
    for (relation, column) in columns {
        db.relation_mut(&relation)
            .unwrap()
            .build_index(column)
            .unwrap();
    }
    let store = ShardedDatabase::from_database(&db, 2, paper_shard_spec()).unwrap();
    let metadata = parse_query("Q(T1) :- MetaData(T1, X1)").unwrap();
    for q in paper_queries().iter().chain([&metadata]) {
        assert_agrees(Source::Whole(&db), &db, q, "every column indexed");
        assert_agrees(
            Source::from(&store),
            &db,
            q,
            "every column indexed, 2 shards",
        );
    }
}

/// The order contract, stated literally: answers and groups come out
/// in the order of their first derivation, and bindings within a
/// group in derivation order. Rows are met in insertion order, atoms
/// in the plan's greedy order: the join scans the smaller
/// `FamilyIntro` first and probes `Family` by key, so its answers
/// follow `FamilyIntro`'s rows (families 11, 13, 14), not `Family`'s.
#[test]
fn first_derivation_order_is_pinned() {
    let db = paper_instance();
    let q = parse_query("Q(Ty) :- Family(F, N, Ty)").unwrap();
    assert_eq!(
        evaluate(&db, &q).unwrap(),
        [tuple!["gpcr"], tuple!["enzyme"]]
    );
    let families: Vec<Vec<Value>> = evaluate_grouped(&db, &q)
        .unwrap()
        .into_iter()
        .map(|(_, bindings)| bindings.iter().map(|b| b["F"].clone()).collect())
        .collect();
    let fid = |ids: &[&str]| ids.iter().map(|id| Value::str(*id)).collect::<Vec<_>>();
    assert_eq!(families, [fid(&["11", "12", "13", "14"]), fid(&["15"])]);
    let join = parse_query("Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx)").unwrap();
    assert_eq!(QueryPlan::compile(&join, &db).unwrap().join_order(), [1, 0]);
    assert_eq!(
        evaluate(&db, &join).unwrap(),
        [tuple!["Calcitonin"], tuple!["b"], tuple!["Orexin"]]
    );
}

#[test]
fn errors_match_the_reference() {
    let db = paper_instance();

    let unsafe_q = parse_query("Q(X) :- Family(F, N, Ty)").unwrap();
    assert!(matches!(
        evaluate(&db, &unsafe_q).unwrap_err(),
        QueryError::Unsafe { .. }
    ));
    assert!(matches!(
        fgcite::query::reference_derivations(&db, &unsafe_q).unwrap_err(),
        QueryError::Unsafe { .. }
    ));

    let unknown = parse_query("Q(X) :- Nope(X)").unwrap();
    assert!(evaluate(&db, &unknown).is_err());
    assert!(fgcite::query::reference_derivations(&db, &unknown).is_err());

    // budget exhaustion reports the limit the caller set
    let q = parse_query("Q(A, B) :- Family(A, X, Y), Family(B, Z, W)").unwrap();
    let plan = QueryPlan::compile(&q, &db).unwrap();
    let options = EvalOptions { max_bindings: 4 };
    assert!(matches!(
        evaluate_plan_with(&db, &plan, options).unwrap_err(),
        QueryError::BudgetExceeded { limit: 4, .. }
    ));
    // ...and a budget exactly at the derivation count (5 × 5
    // families) succeeds with the reference's answers
    assert_eq!(
        fgcite::query::reference_derivations(&db, &q).unwrap().len(),
        25
    );
    let enough = EvalOptions { max_bindings: 25 };
    let mut answers = evaluate_plan_with(&db, &plan, enough).unwrap();
    answers.sort();
    assert_eq!(answers, Collected::by_definition(&db, &q).answers);
}

#[test]
fn plans_are_reusable_across_evaluations() {
    // one compiled plan, many executions — the engine plan-cache
    // contract at the query-crate level
    let db = generate(&GeneratorConfig::default().with_families(40).with_seed(11));
    let q = parse_query(QUERIES[0]).unwrap();
    let plan = QueryPlan::compile(&q, &db).unwrap();
    let first = evaluate_plan_with(&db, &plan, EvalOptions::default()).unwrap();
    for _ in 0..3 {
        let again = evaluate_plan_with(&db, &plan, EvalOptions::default()).unwrap();
        assert_eq!(first, again);
    }
    let mut sorted = first;
    sorted.sort();
    assert_eq!(sorted, Collected::by_definition(&db, &q).answers);
}
