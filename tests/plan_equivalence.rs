//! The compiled evaluator against the oracle: on every query of every
//! instance the three collectors — distinct answers, grouped bindings,
//! provenance polynomials — must equal the folds of
//! [`fgcite::query::reference_derivations`], which enumerates every
//! derivation by definition (atoms in text order, full scans, no
//! index, no plan), and so must every shard's lead fragments, merged,
//! under every partition. The comparison ignores order; what the
//! order *is* is pinned once, literally, by
//! `first_derivation_order_is_pinned`, and `one_plan_serves_every_source`
//! holds the merged fragments to it byte for byte.

mod common;

use common::{Collected, QUERIES};
use fgcite::gtopdb::{generate, paper_instance, paper_shard_spec, GeneratorConfig};
use fgcite::query::{
    evaluate, evaluate_grouped, evaluate_grouped_plan_with, evaluate_plan_with,
    lead_fragment_answers, lead_fragment_bindings, merge_answers, merge_groups, parse_query,
    Binding, ConjunctiveQuery, EvalOptions, QueryError, QueryPlan,
};
use fgcite::relation::{tuple, Database, Partition, Tuple, Value};

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

/// All three collectors over `db` against the oracle's folds.
fn assert_agrees(db: &Database, q: &ConjunctiveQuery, context: &str) {
    assert_eq!(
        Collected::by_executor(db, q),
        Collected::by_definition(db, q),
        "{context} q={q}"
    );
}

/// `shards` shards owning `db`'s rows under the paper's shard keys.
fn partition(db: &Database, shards: usize) -> Partition {
    Partition::new(shards, paper_shard_spec(), db.catalog()).unwrap()
}

/// Every shard's lead fragments of `plan` over `db`, merged: the
/// distinct answers and the grouped bindings a coordinator gathers.
fn merged(
    db: &Database,
    partition: &Partition,
    plan: &QueryPlan,
) -> (Vec<Tuple>, Vec<(Tuple, Vec<Binding>)>) {
    let options = EvalOptions::default();
    let (mut answers, mut bindings) = (Vec::new(), Vec::new());
    for shard in 0..partition.shard_count() {
        answers.extend(lead_fragment_answers(db, partition, plan, shard, options).unwrap());
        bindings.extend(lead_fragment_bindings(db, partition, plan, shard, options).unwrap());
    }
    (merge_answers(answers), merge_groups(bindings))
}

/// The merged lead fragments under `partition` against the oracle's
/// answers and grouped bindings over `db`.
fn assert_fragments_agree(
    db: &Database,
    partition: &Partition,
    q: &ConjunctiveQuery,
    context: &str,
) {
    let (answers, grouped) = merged(db, partition, &QueryPlan::compile(q, db).unwrap());
    let fragments = Collected::sorted(answers, grouped, Vec::new());
    let oracle = Collected::by_definition(db, q);
    let shards = partition.shard_count();
    assert_eq!(
        (fragments.answers, fragments.grouped),
        (oracle.answers, oracle.grouped),
        "{context} shards={shards} q={q}"
    );
}

#[test]
fn paper_instance_queries_are_byte_identical() {
    let db = paper_instance();
    for q in paper_queries() {
        assert_agrees(&db, &q, "paper instance");
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
            assert_agrees(&db, q, &context);
        }
    }
}

#[test]
fn hand_written_queries_survive_generated_instances() {
    let db = common::gtopdb(50, 7);
    for q in paper_queries() {
        assert_agrees(&db, &q, "generated instance");
    }
}

#[test]
fn compiled_sharded_evaluation_matches_the_reference() {
    // every shard's lead fragments over the whole store, merged, vs
    // the oracle: ownership, global row ids and the merge must all be
    // exact
    let db = common::gtopdb(90, 23);
    let queries = common::workload(&db, 29, 8);
    for shards in [1usize, 2, 4, 7] {
        let partition = partition(&db, shards);
        for q in queries.iter().chain(&paper_queries()) {
            assert_fragments_agree(&db, &partition, q, "generated instance");
        }
    }
}

#[test]
fn one_plan_serves_every_source() {
    // compile once, then run that plan over the whole store and as
    // every shard's lead fragment under every partition: the plan
    // fixes join order and slots, ownership only picks which lead rows
    // a shard keeps, so the merged fragments equal the whole
    // evaluation byte for byte, order included
    let db = common::gtopdb(60, 41);
    let queries = common::workload(&db, 43, 6);
    let partitions: Vec<Partition> = [1usize, 2, 4, 7]
        .iter()
        .map(|&n| partition(&db, n))
        .collect();
    for q in queries.iter().chain(&paper_queries()) {
        let plan = QueryPlan::compile(q, &db).unwrap();
        let options = EvalOptions::default();
        let whole = (
            evaluate_plan_with(&db, &plan, options).unwrap(),
            evaluate_grouped_plan_with(&db, &plan, options).unwrap(),
        );
        for partition in &partitions {
            let shards = partition.shard_count();
            assert_eq!(
                whole,
                merged(&db, partition, &plan),
                "shards={shards} q={q}"
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
    let partition = partition(&db, 2);
    let metadata = parse_query("Q(T1) :- MetaData(T1, X1)").unwrap();
    for q in paper_queries().iter().chain([&metadata]) {
        assert_agrees(&db, q, "every column indexed");
        assert_fragments_agree(&db, &partition, q, "every column indexed");
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
