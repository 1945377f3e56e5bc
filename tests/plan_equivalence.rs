//! Compiled-plan vs seed-interpreter equivalence — the acceptance
//! bar of the compiled [`fgcite::query::QueryPlan`] evaluator: on
//! every query of every instance, the compiled executor must produce
//! **byte-identical** results to the seed interpreter it replaced —
//! same tuples in the same (first-derivation) order, same grouped
//! bindings in the same order, same provenance polynomials term for
//! term, same errors. Differential, property-style: the retained
//! interpreter (`evaluate_interpreted` and friends, deprecated but
//! kept exactly for this) is the ground truth.

#![allow(deprecated)]

use fgcite::gtopdb::{
    generate, paper_instance, paper_shard_spec, GeneratorConfig, WorkloadGenerator,
};
use fgcite::query::{
    evaluate, evaluate_annotated, evaluate_annotated_interpreted, evaluate_annotated_plan_with,
    evaluate_grouped, evaluate_grouped_interpreted, evaluate_grouped_plan_with,
    evaluate_interpreted, evaluate_interpreted_with, evaluate_plan_with, parse_query,
    reference_evaluate, Binding, ConjunctiveQuery, EvalOptions, QueryError, QueryPlan, ShardRouter,
    Source,
};
use fgcite::relation::sharded::ShardedDatabase;
use fgcite::relation::{Database, Tuple};
use fgcite::semiring::Polynomial;

/// Hand-written queries covering the shapes the evaluator supports:
/// scans, selections (atom constants and comparisons), joins,
/// self-joins, inequalities, duplicate-heavy projections, empty and
/// contradictory results.
const PAPER_QUERIES: &[&str] = &[
    "Q(N) :- Family(F, N, Ty)",
    "Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"",
    "Q(N) :- Family(\"11\", N, Ty)",
    "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)",
    "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"",
    "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = \"11\"",
    "Q(N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)",
    "Q(Ty) :- Family(F, N, Ty)",
    "Q(A, B) :- Family(A, N1, T), Family(B, N2, T), A != B",
    "Q(A, B) :- Family(A, N1, T1), Family(B, N2, T2), A < B",
    "Q(N) :- Family(F, N, Ty), F > \"11\"",
    "Q(N) :- Family(F, N, Ty), Ty = \"nope\"",
    "Q(N) :- Family(F, N, Ty), Ty = \"a\", Ty = \"b\"",
    "Q(N, X) :- Family(F, N, Ty), X = \"const\"",
];

fn paper_queries() -> Vec<ConjunctiveQuery> {
    PAPER_QUERIES
        .iter()
        .map(|q| parse_query(q).expect("static query"))
        .collect()
}

/// All three collectors over `source` — the unsharded `db` itself or
/// any sharding of it — against the interpreter over `db`.
fn assert_equivalent<'a>(
    source: impl Into<Source<'a>>,
    db: &Database,
    q: &ConjunctiveQuery,
    context: &str,
) {
    let source = source.into();
    // distinct outputs, first-derivation order
    let compiled = evaluate(source.clone(), q).expect("compiled evaluation");
    let interpreted = evaluate_interpreted(db, q).expect("interpreted evaluation");
    assert_eq!(compiled, interpreted, "evaluate diverges: {context} q={q}");

    // grouped bindings, tuple order and binding order
    let compiled_g = evaluate_grouped(source.clone(), q).expect("compiled grouped");
    let interpreted_g = evaluate_grouped_interpreted(db, q).expect("interpreted grouped");
    assert_eq!(
        compiled_g, interpreted_g,
        "evaluate_grouped diverges: {context} q={q}"
    );

    // provenance polynomials, term for term (Debug formatting is the
    // canonical monomial order)
    let compiled_a: Vec<(Tuple, Polynomial<String>)> = evaluate_annotated(source, q, |rel, row| {
        Polynomial::token(format!("{rel}:{row}"))
    })
    .expect("compiled annotated");
    let interpreted_a: Vec<(Tuple, Polynomial<String>)> =
        evaluate_annotated_interpreted(db, q, |rel, row| Polynomial::token(format!("{rel}:{row}")))
            .expect("interpreted annotated");
    assert_eq!(
        compiled_a.len(),
        interpreted_a.len(),
        "annotated arity diverges: {context} q={q}"
    );
    for ((t1, p1), (t2, p2)) in compiled_a.iter().zip(&interpreted_a) {
        assert_eq!(t1, t2, "annotated tuple order diverges: {context} q={q}");
        assert_eq!(
            format!("{p1:?}"),
            format!("{p2:?}"),
            "polynomials diverge: {context} q={q}"
        );
    }
}

#[test]
fn paper_instance_queries_are_byte_identical() {
    let db = paper_instance();
    for q in paper_queries() {
        assert_equivalent(&db, &db, &q, "paper instance");
    }
}

#[test]
fn randomized_gtopdb_instances_are_byte_identical() {
    // property-style sweep: several seeds and scales, template plus
    // ad-hoc workload queries, with and without secondary indexes
    for (seed, families) in [(3u64, 30usize), (17, 75), (91, 140)] {
        let db = generate(
            &GeneratorConfig::default()
                .with_families(families)
                .with_seed(seed),
        );
        let queries: Vec<ConjunctiveQuery> = {
            let mut w = WorkloadGenerator::new(&db, seed ^ 0x5eed);
            let mut qs = w.ad_hoc_batch(10);
            for t in 0..WorkloadGenerator::template_count() {
                qs.push(w.query_from_template(t));
            }
            qs
        };
        for q in &queries {
            assert_equivalent(&db, &db, q, &format!("seed={seed} families={families}"));
        }
    }
}

#[test]
fn hand_written_queries_survive_generated_instances() {
    let db = generate(&GeneratorConfig::default().with_families(50).with_seed(7));
    for q in paper_queries() {
        assert_equivalent(&db, &db, &q, "generated instance");
    }
}

#[test]
fn compiled_sharded_evaluation_matches_the_interpreter() {
    // interpreted unsharded vs compiled routed: both the sharding
    // layer and the compiled executor must preserve bindings exactly
    let db = generate(&GeneratorConfig::default().with_families(90).with_seed(23));
    let queries: Vec<ConjunctiveQuery> = {
        let mut w = WorkloadGenerator::new(&db, 29);
        w.ad_hoc_batch(8)
    };
    for shards in [1usize, 2, 4, 7] {
        let store = ShardedDatabase::from_database(&db, shards, paper_shard_spec()).unwrap();
        for q in queries.iter().chain(&paper_queries()) {
            assert_equivalent(&store, &db, q, &format!("shards={shards}"));
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
            evaluate_annotated_plan_with(source, plan, options, |rel, row| {
                Polynomial::token(format!("{rel}:{row}"))
            })
            .unwrap();
        (tuples, grouped, format!("{annotated:?}"))
    }
    let db = generate(&GeneratorConfig::default().with_families(60).with_seed(41));
    let queries: Vec<ConjunctiveQuery> = {
        let mut w = WorkloadGenerator::new(&db, 43);
        w.ad_hoc_batch(6)
    };
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
    // small instance so the exponential oracle stays tractable
    let db = paper_instance();
    for src in [
        "Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"",
        "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)",
        "Q(T1) :- MetaData(T1, X1)",
    ] {
        let q = parse_query(src).unwrap();
        let mut compiled = evaluate(&db, &q).unwrap();
        compiled.sort();
        let oracle = reference_evaluate(&db, &q).unwrap();
        assert_eq!(compiled, oracle, "oracle divergence on {src}");
    }
}

#[test]
fn errors_match_the_interpreter() {
    let db = paper_instance();

    let unsafe_q = parse_query("Q(X) :- Family(F, N, Ty)").unwrap();
    assert!(matches!(
        evaluate(&db, &unsafe_q).unwrap_err(),
        QueryError::Unsafe { .. }
    ));
    assert!(matches!(
        evaluate_interpreted(&db, &unsafe_q).unwrap_err(),
        QueryError::Unsafe { .. }
    ));

    let unknown = parse_query("Q(X) :- Nope(X)").unwrap();
    assert!(evaluate(&db, &unknown).is_err());
    assert!(evaluate_interpreted(&db, &unknown).is_err());

    // budget exhaustion fires at the same binding count
    let q = parse_query("Q(A, B) :- Family(A, X, Y), Family(B, Z, W)").unwrap();
    let options = EvalOptions { max_bindings: 4 };
    let plan = QueryPlan::compile(&q, &db).unwrap();
    let compiled = evaluate_plan_with(&db, &plan, options).unwrap_err();
    let interpreted = evaluate_interpreted_with(&db, &q, options).unwrap_err();
    // ...and both report the limit the caller set
    assert!(matches!(
        compiled,
        QueryError::BudgetExceeded { limit: 4, .. }
    ));
    assert!(matches!(
        interpreted,
        QueryError::BudgetExceeded { limit: 4, .. }
    ));
    // ...and a budget exactly at the binding count (5 × 5 families)
    // succeeds on both
    let enough = EvalOptions { max_bindings: 25 };
    assert_eq!(
        evaluate_plan_with(&db, &plan, enough).unwrap(),
        evaluate_interpreted_with(&db, &q, enough).unwrap()
    );
}

#[test]
fn plans_are_reusable_across_evaluations() {
    // one compiled plan, many executions — the engine plan-cache
    // contract at the query-crate level
    let db = generate(&GeneratorConfig::default().with_families(40).with_seed(11));
    let q = parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
    let plan = QueryPlan::compile(&q, &db).unwrap();
    let first = evaluate_plan_with(&db, &plan, EvalOptions::default()).unwrap();
    for _ in 0..3 {
        let again = evaluate_plan_with(&db, &plan, EvalOptions::default()).unwrap();
        assert_eq!(first, again);
    }
    assert_eq!(first, evaluate_interpreted(&db, &q).unwrap());
}
