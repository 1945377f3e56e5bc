//! Sharded vs. unsharded equivalence — the acceptance bar of the
//! sharded backend: `cite()` over a `ShardedDatabase` with n ∈
//! {1, 2, 4, 7} shards must return **byte-identical** results to the
//! single-store engine — same tuples in the same order, same symbolic
//! expressions, same interpreted citations and aggregate, same
//! provenance polynomials under annotated evaluation. Routing is an
//! execution detail; Definition 3.2's sum over bindings must come out
//! term for term, not merely set-equal.

use fgcite::engine::{CitationEngine, EngineOptions, Policy, QueryCitation, RewriteMode};
use fgcite::gtopdb::{generate, paper_instance, paper_shard_spec, paper_views, GeneratorConfig};
use fgcite::prelude::*;
use fgcite::query::parse_query;
use fgcite::semiring::Polynomial;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// The worked-example queries `tests/paper_examples.rs` exercises,
/// plus shapes that stress routing: keyed constants (prune to one
/// shard), non-key selections (fan out), self-joins, empty and
/// unsatisfiable results.
const QUERIES: &[&str] = &[
    "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"",
    "Q(N) :- Family(F, N, Ty)",
    "Q(N) :- Family(\"11\", N, Ty)",
    "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = \"11\"",
    "Q(N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)",
    "Q(A, B) :- Family(A, N1, T), Family(B, N2, T), A != B",
    "Q(N) :- Family(F, N, Ty), Ty = \"nope\"",
    "Q(N) :- Family(F, N, Ty), Ty = \"a\", Ty = \"b\"",
];

/// Render a citation completely: tuple order, symbolic expressions,
/// interpreted citations, aggregate, rewriting labels and flags.
fn render(citation: &QueryCitation) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for tc in &citation.tuples {
        let _ = writeln!(out, "{} | {:?} | {}", tc.tuple, tc.expr, tc.citation);
    }
    let _ = writeln!(out, "aggregate: {}", citation.aggregate.to_compact());
    for (label, r) in &citation.rewritings {
        let _ = writeln!(out, "{label}: {r}");
    }
    let _ = writeln!(
        out,
        "exhaustive={} unsatisfiable={}",
        citation.exhaustive, citation.unsatisfiable
    );
    out
}

fn engine_with(mode: RewriteMode, policy: Policy) -> CitationEngine {
    CitationEngine::new(paper_instance(), paper_views())
        .expect("paper views validate")
        .with_policy(policy)
        .with_options(EngineOptions {
            mode,
            ..EngineOptions::default()
        })
}

#[test]
fn paper_instance_citations_are_byte_identical_across_shard_counts() {
    for (mode, policy) in [
        (RewriteMode::Pruned, Policy::default()),
        (RewriteMode::Exhaustive, Policy::union_all()),
    ] {
        let reference = engine_with(mode, policy.clone());
        for shards in SHARD_COUNTS {
            let sharded = engine_with(mode, policy.clone())
                .with_shards(shards, paper_shard_spec())
                .expect("spec resolves");
            for q in QUERIES {
                let q = parse_query(q).unwrap();
                assert_eq!(
                    render(&reference.cite(&q).unwrap()),
                    render(&sharded.cite(&q).unwrap()),
                    "shards={shards} mode={mode:?} q={q}"
                );
            }
        }
    }
}

#[test]
fn generated_gtopdb_workload_is_byte_identical_across_shard_counts() {
    // property-style: every workload template at a non-trivial scale,
    // fresh generator per engine so both sides see identical queries
    let db = generate(&GeneratorConfig::default().with_families(120));
    let reference = CitationEngine::new(db.clone(), paper_views()).expect("views validate");
    let queries: Vec<ConjunctiveQuery> = {
        let mut w = fgcite::gtopdb::WorkloadGenerator::new(&db, 71);
        w.ad_hoc_batch(12)
    };
    for shards in SHARD_COUNTS {
        let sharded = CitationEngine::new(db.clone(), paper_views())
            .expect("views validate")
            .with_shards(shards, paper_shard_spec())
            .expect("spec resolves");
        for q in &queries {
            assert_eq!(
                render(&reference.cite(q).unwrap()),
                render(&sharded.cite(q).unwrap()),
                "shards={shards} q={q}"
            );
        }
    }
}

#[test]
fn annotated_provenance_polynomials_are_byte_identical() {
    let db = generate(&GeneratorConfig::default().with_families(60));
    let sharded_spec = paper_shard_spec();
    let queries: Vec<ConjunctiveQuery> = {
        let mut w = fgcite::gtopdb::WorkloadGenerator::new(&db, 73);
        w.ad_hoc_batch(8)
    };
    for shards in SHARD_COUNTS {
        let store = ShardedDatabase::from_database(&db, shards, sharded_spec.clone()).unwrap();
        for q in &queries {
            let plain: Vec<(Tuple, Polynomial<String>)> =
                fgcite::query::evaluate_annotated(&db, q, |rel, row| {
                    Polynomial::token(format!("{rel}:{row}"))
                })
                .unwrap();
            let routed: Vec<(Tuple, Polynomial<String>)> =
                fgcite::query::evaluate_annotated(&store, q, |rel, row| {
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
fn plan_cache_on_and_off_cite_byte_identically_across_shard_counts() {
    // the compiled-plan cache is an execution detail: citations must
    // come out byte-identical with caching enabled (warm AND cold
    // passes) and disabled (every cite re-compiles), sharded or not
    let reference = engine_with(RewriteMode::Pruned, Policy::default());
    let expected: Vec<String> = QUERIES
        .iter()
        .map(|q| render(&reference.cite(&parse_query(q).unwrap()).unwrap()))
        .collect();
    for shards in SHARD_COUNTS {
        let cached = engine_with(RewriteMode::Pruned, Policy::default())
            .with_shards(shards, paper_shard_spec())
            .expect("spec resolves");
        let uncached = engine_with(RewriteMode::Pruned, Policy::default())
            .with_plan_cache_capacity(0)
            .with_shards(shards, paper_shard_spec())
            .expect("spec resolves");
        for (q, want) in QUERIES.iter().zip(&expected) {
            let q = parse_query(q).unwrap();
            // two passes through the cached engine: the second runs
            // entirely on cached plans
            assert_eq!(
                &render(&cached.cite(&q).unwrap()),
                want,
                "cold plans, shards={shards} q={q}"
            );
            assert_eq!(
                &render(&cached.cite(&q).unwrap()),
                want,
                "warm plans, shards={shards} q={q}"
            );
            assert_eq!(
                &render(&uncached.cite(&q).unwrap()),
                want,
                "plan cache disabled, shards={shards} q={q}"
            );
        }
        let cached_stats = cached.plan_stats();
        assert!(
            cached_stats.hits > 0,
            "second pass must hit the plan cache: {cached_stats:?}"
        );
        let uncached_stats = uncached.plan_stats();
        assert_eq!(uncached_stats.hits, 0, "{uncached_stats:?}");
        assert_eq!(uncached_stats.entries, 0, "{uncached_stats:?}");
    }
}

#[test]
fn per_request_overrides_survive_sharding() {
    let reference = engine_with(RewriteMode::Pruned, Policy::default());
    let sharded = engine_with(RewriteMode::Pruned, Policy::default())
        .with_shards(4, paper_shard_spec())
        .expect("spec resolves");
    let q = parse_query(QUERIES[0]).unwrap();
    let request = CiteRequest::query(q)
        .with_policy(Policy::union_all())
        .with_mode(RewriteMode::Exhaustive);
    let a = reference.cite_request(&request).unwrap();
    let b = sharded.cite_request(&request).unwrap();
    assert_eq!(render(&a.citation), render(&b.citation));
}

#[test]
fn routing_counters_account_for_the_workload() {
    let sharded = engine_with(RewriteMode::Pruned, Policy::default())
        .with_shards(4, paper_shard_spec())
        .expect("spec resolves");
    assert_eq!(sharded.shard_stats().unwrap().routed_evals, 0);
    // keyed constant: the answer scan itself must be pruned
    let q = parse_query("Q(N) :- Family(\"11\", N, Ty)").unwrap();
    sharded.cite(&q).unwrap();
    let stats = sharded.shard_stats().unwrap();
    assert!(stats.routed_evals >= 1);
    assert!(stats.atoms_pruned >= 1, "{stats:?}");
    assert_eq!(stats.store.shards, 4);
    assert_eq!(
        stats.store.total_tuples,
        stats.store.tuples_per_shard.iter().sum::<usize>()
    );
}
