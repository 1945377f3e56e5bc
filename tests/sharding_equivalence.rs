//! The fragment contract, in process: for n ∈ {1, 2, 4, 7} shards,
//! every shard's `cite_fragment` of one replica engine, merged by
//! `merge_answers` / `merge_groups` (the [`common::Fragments`]
//! candidate), must cite **byte-identically** to the reference — same
//! tuples in the same order, same symbolic expressions, same
//! interpreted citations and aggregate, under the engine's defaults
//! and under per-request overrides (both modes). A shard only decides
//! which lead rows a replica keeps; Definition 3.2's sum over bindings
//! must come out term for term, not merely set-equal.

mod common;

use common::{
    assert_same, both_modes, cites, queries, sharded, Candidate, Fragments, Reference, Request,
};
use fgcite::gtopdb::{paper_instance, paper_shard_spec};
use fgcite::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// In-process fragments of one replica engine per shard count, named
/// for failure messages.
fn shardings(db: &Database) -> Vec<(String, Fragments)> {
    let each = |&n: &usize| (format!("shards={n}"), Fragments(sharded(db.clone(), n)));
    SHARD_COUNTS.iter().map(each).collect()
}

#[test]
fn paper_instance_citations_are_byte_identical_across_shard_counts() {
    let reference = Reference::new("paper instance", paper_instance());
    let engines = shardings(&paper_instance());
    assert_same(
        &reference,
        &common::named(&engines),
        &both_modes(&queries()),
    );
}

#[test]
fn generated_gtopdb_workload_is_byte_identical_across_shard_counts() {
    // property-style: every workload template at a non-trivial scale
    let db = common::gtopdb(120, common::default_seed());
    let reference = Reference::new("gtopdb families=120 default seed", db.clone());
    let requests = both_modes(&common::workload(&db, 71, 12));
    assert_same(&reference, &common::named(&shardings(&db)), &requests);
}

#[test]
fn plan_cache_on_and_off_cite_byte_identically_across_shard_counts() {
    // the compiled-plan cache is an execution detail: merged fragments
    // must come out byte-identical with caching enabled (cold AND warm
    // passes) and disabled (every fragment re-compiles)
    let reference = Reference::new("paper instance", paper_instance());
    let requests = cites(&queries());
    for shards in SHARD_COUNTS {
        let cached = Fragments(sharded(paper_instance(), shards));
        let uncached = Fragments(
            common::engine(paper_instance())
                .with_plan_cache_capacity(0)
                .with_shards(shards, paper_shard_spec())
                .expect("spec resolves"),
        );
        let candidates: [(&str, &dyn Candidate); 2] =
            [("cached", &cached), ("uncached", &uncached)];
        // the second pass runs entirely on cached plans
        for _pass in ["cold", "warm"] {
            assert_same(&reference, &candidates, &requests);
        }
        let cached_stats = cached.0.plan_stats();
        assert!(
            cached_stats.hits > 0,
            "second pass must hit the plan cache: {cached_stats:?}"
        );
        let uncached_stats = uncached.0.plan_stats();
        assert_eq!(uncached_stats.hits, 0, "{uncached_stats:?}");
        assert_eq!(uncached_stats.entries, 0, "{uncached_stats:?}");
    }
}

#[test]
fn per_request_overrides_survive_sharding() {
    let reference = Reference::new("paper instance", paper_instance());
    let fragments = Fragments(sharded(paper_instance(), 4));
    let q = parse_query(common::QUERIES[0]).unwrap();
    let request = CiteRequest::query(q)
        .with_policy(Policy::union_all())
        .with_mode(RewriteMode::Exhaustive);
    assert_same(
        &reference,
        &[("shards=4", &fragments)],
        &[Request::Cite(request)],
    );
}
