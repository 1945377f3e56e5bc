//! Sharded vs. unsharded equivalence — the acceptance bar of the
//! sharded backend: `cite()` over a `ShardedDatabase` with n ∈
//! {1, 2, 4, 7} shards must return **byte-identical** results to the
//! reference — same tuples in the same order, same symbolic
//! expressions, same interpreted citations and aggregate, same
//! provenance polynomials under annotated evaluation. Routing is an
//! execution detail; Definition 3.2's sum over bindings must come out
//! term for term, not merely set-equal.

mod common;

use common::{
    assert_same, both_modes, cites, named, queries, sharded, Candidate, Reference, Request,
};
use fgcite::gtopdb::{paper_instance, paper_shard_spec};
use fgcite::prelude::*;
use fgcite::semiring::Polynomial;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// One sharded engine per shard count, named for failure messages.
fn shardings(db: &Database) -> Vec<(String, CitationEngine)> {
    let each = |&n: &usize| (format!("shards={n}"), sharded(db.clone(), n));
    SHARD_COUNTS.iter().map(each).collect()
}

#[test]
fn paper_instance_citations_are_byte_identical_across_shard_counts() {
    let reference = Reference::new("paper instance", paper_instance());
    let engines = shardings(&paper_instance());
    assert_same(&reference, &named(&engines), &both_modes(&queries()));
}

#[test]
fn generated_gtopdb_workload_is_byte_identical_across_shard_counts() {
    // property-style: every workload template at a non-trivial scale
    let db = common::gtopdb(120, common::default_seed());
    let reference = Reference::new("gtopdb families=120 default seed", db.clone());
    let requests = cites(&common::workload(&db, 71, 12));
    assert_same(&reference, &named(&shardings(&db)), &requests);
}

#[test]
fn annotated_provenance_polynomials_are_byte_identical() {
    let db = common::gtopdb(60, common::default_seed());
    for shards in SHARD_COUNTS {
        let store = ShardedDatabase::from_database(&db, shards, paper_shard_spec()).unwrap();
        for q in &common::workload(&db, 73, 8) {
            let annotated = |source: fgcite::query::Source<'_>| {
                let polynomials: Vec<(Tuple, Polynomial<String>)> =
                    fgcite::query::evaluate_annotated(source, q, common::row_token).unwrap();
                format!("{polynomials:?}")
            };
            assert_eq!(
                annotated((&db).into()),
                annotated((&store).into()),
                "shards={shards} q={q}"
            );
        }
    }
}

#[test]
fn plan_cache_on_and_off_cite_byte_identically_across_shard_counts() {
    // the compiled-plan cache is an execution detail: citations must
    // come out byte-identical with caching enabled (cold AND warm
    // passes) and disabled (every cite re-compiles), sharded or not
    let reference = Reference::new("paper instance", paper_instance());
    let requests = cites(&queries());
    for shards in SHARD_COUNTS {
        let cached = sharded(paper_instance(), shards);
        let uncached = common::engine(paper_instance())
            .with_plan_cache_capacity(0)
            .with_shards(shards, paper_shard_spec())
            .expect("spec resolves");
        let candidates: [(&str, &dyn Candidate); 2] =
            [("cached", &cached), ("uncached", &uncached)];
        // the second pass runs entirely on cached plans
        for _pass in ["cold", "warm"] {
            assert_same(&reference, &candidates, &requests);
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
    let reference = Reference::new("paper instance", paper_instance());
    let engine = sharded(paper_instance(), 4);
    let q = parse_query(common::QUERIES[0]).unwrap();
    let request = CiteRequest::query(q)
        .with_policy(Policy::union_all())
        .with_mode(RewriteMode::Exhaustive);
    assert_same(
        &reference,
        &[("shards=4", &engine)],
        &[Request::Cite(request)],
    );
}

#[test]
fn routing_counters_account_for_the_workload() {
    let sharded = sharded(paper_instance(), 4);
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
