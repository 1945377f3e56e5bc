//! Differential suite for versioned serving: across randomized commit
//! histories over GtoPdb-shaped relations, every engine a
//! [`VersionedCitationEngine`] borrows from a warm engine of another
//! version must cite **byte-identically** to an engine built from
//! scratch on the same snapshot — tuples and their global order,
//! provenance polynomials, interpreted citations, aggregates,
//! rewriting labels, and the fixity stamp.
//!
//! The reference is the harness's `Reference`: a plain
//! `CitationEngine` built from scratch on the version's snapshot, not
//! a mode of the engine under test.
//! Randomized histories (seeded, deterministic, drawn by the
//! harness's `random_commit`) cover inserts, deletes, mixed commits
//! and empty commits; the walks make first touches in ascending,
//! shuffled, backward and gapped order.

mod common;

use common::{
    assert_same, history_queries as queries, random_commit, render_versioned, walk, Reference,
};
use fgcite::gtopdb::rng::SmallRng;
use fgcite::gtopdb::{generate, paper_views, GeneratorConfig};
use fgcite::prelude::*;
use fgcite::query::parse_query;

/// The reference over every version of `history`.
fn reference(seed: u64, history: &VersionedDatabase) -> Reference {
    Reference::versioned(format!("history seed={seed}"), history.clone())
}

fn history_for_seed(seed: u64, commits: usize) -> VersionedDatabase {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut history = VersionedDatabase::new();
    history
        .commit(generate(&GeneratorConfig::tiny().with_seed(seed)), 0, "v0")
        .unwrap();
    for step in 0..commits {
        // bias towards mixed traffic but guarantee coverage of every
        // kind across the suite, including empty commits
        let kind = if step == commits - 1 {
            3
        } else {
            rng.gen_range(0..3)
        };
        random_commit(&mut history, &mut rng, step, kind);
    }
    history
}

/// A seeded Fisher–Yates shuffle of `0..n`.
fn shuffled_versions(n: usize, rng: &mut SmallRng) -> Vec<u64> {
    let mut order: Vec<u64> = (0..n as u64).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

#[test]
fn randomized_histories_derived_equals_rebuilt() {
    const SEEDS: u64 = 20;
    const COMMITS: usize = 5;
    let queries = queries();
    let mut total_derived = 0;
    for seed in 0..SEEDS {
        let history = history_for_seed(seed, COMMITS);
        let versions = history.len();
        let reference = reference(seed, &history);
        // ascending walk: every version past 0 borrows from its
        // freshly warmed predecessor
        let ascending = VersionedCitationEngine::new(history.clone(), paper_views());
        let in_order: Vec<u64> = (0..versions as u64).collect();
        assert_same(
            &reference,
            &[("ascending", &ascending)],
            &walk(&in_order, &queries),
        );
        // shuffled walk: first touches out of order, each borrowing
        // from whichever warm engine is nearest
        let shuffled = VersionedCitationEngine::new(history, paper_views());
        let order = shuffled_versions(versions, &mut SmallRng::seed_from_u64(seed ^ 0x5EED));
        assert_same(
            &reference,
            &[("shuffled", &shuffled)],
            &walk(&order, &queries),
        );

        let asc = ascending.version_stats();
        // empty commits (and deletes that found nothing) derive too
        assert_eq!(
            asc.derived as usize,
            versions - 1,
            "ascending walk must derive every non-root version: {asc:?}"
        );
        assert_eq!(asc.rebuilt, 1, "{asc:?}");
        // out of order as well, the first touch is the only build
        let shuf = shuffled.version_stats();
        assert_eq!(shuf.rebuilt, 1, "{shuf:?}");
        total_derived += shuf.derived;
    }
    assert!(
        total_derived > 0,
        "shuffled walks must borrow across changed relations"
    );
}

/// Borrowing is not tied to `v - 1`. Under a two-engine warm map, a
/// seeded walk opens with the head and then version 0 (a backward
/// first touch across the whole history) and goes on with shuffled,
/// repeated passes, where evictions leave versions cold between warm
/// engines on either side. Each history builds from scratch exactly
/// once and cites every version byte-identically to the reference.
#[test]
fn random_access_borrows_in_both_directions_and_matches_scratch() {
    const SEEDS: u64 = 20;
    const COMMITS: usize = 5;
    const PASSES: usize = 3;
    let queries = queries();
    for seed in 0..SEEDS {
        let history = history_for_seed(seed, COMMITS);
        let versions = history.len();
        let reference = reference(seed, &history);
        let engine = VersionedCitationEngine::new(history, paper_views()).with_engine_capacity(2);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xBAC4);
        let mut order = vec![versions as u64 - 1, 0];
        for _ in 0..PASSES {
            order.extend(shuffled_versions(versions, &mut rng));
        }
        assert_same(
            &reference,
            &[("capacity 2", &engine)],
            &walk(&order, &queries),
        );
        let stats = engine.version_stats();
        assert_eq!(
            stats.rebuilt, 1,
            "seed {seed}: only the first touch builds from scratch: {stats:?}"
        );
        assert!(stats.engine_evictions > 0, "{stats:?}");
        assert_eq!(
            stats.hits + stats.derived + stats.shared + stats.rebuilt,
            (order.len() * queries.len()) as u64,
            "every lookup is a hit or one first touch: {stats:?}"
        );
    }
}

#[test]
fn timeline_and_timestamp_resolution_match_rebuild() {
    let history = history_for_seed(77, 4);
    let reference = reference(77, &history);
    let incremental = VersionedCitationEngine::new(history.clone(), paper_views());
    let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").unwrap();
    let request = CiteRequest::query(q.clone());
    let timeline = incremental.citation_timeline(&q).unwrap();
    assert_eq!(timeline.len(), history.len());
    for (v, stamped) in &timeline {
        let expected = reference.cite_at(*v, &request).unwrap().stamped_aggregate();
        assert_eq!(stamped.to_compact(), expected.to_compact(), "version {v}");
    }
    for at in [0, 150, 250, 10_000] {
        let (info, _) = history.snapshot_at(at).unwrap();
        let expected = render_versioned(&reference.cite_at(info.id, &request).unwrap());
        let got = render_versioned(&incremental.cite(VersionSelector::At(at), &request).unwrap());
        assert_eq!(got, expected, "at={at}");
    }
}

/// A derived engine starts with empty token and plan caches and cites
/// what a scratch build cites — here under per-request overrides
/// (union policy, exhaustive mode), which the derived version's engine
/// honors as any engine does.
#[test]
fn derived_engine_invalidates_stale_plans_and_tokens() {
    let mut history = VersionedDatabase::new();
    history
        .commit(generate(&GeneratorConfig::tiny().with_seed(5)), 0, "v0")
        .unwrap();
    history
        .commit_with(100, "v1", |db| {
            // rewrite one introduction, which V2 and V5 read
            let intro = db.relation("FamilyIntro")?.rows()[0].clone();
            db.remove("FamilyIntro", &intro)?;
            db.insert(
                "FamilyIntro",
                tuple![intro[0].clone(), "A rewritten introduction"],
            )
            .map(|_| ())
        })
        .unwrap();
    let subject = VersionedCitationEngine::new(history.clone(), paper_views());

    // exhaustive mode cites every rewriting, so all caches fill
    let intro = parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)").unwrap();
    let request = CiteRequest::query(intro)
        .with_policy(Policy::union_all())
        .with_mode(RewriteMode::Exhaustive);
    let v0_result = subject.cite(VersionSelector::Id(0), &request).unwrap();
    let v0 = subject.engine_for_version(0).unwrap();
    assert!(v0.plan_stats().entries > 0);
    assert!(v0.cache_stats().entries > 0);

    // the first touch of v1 derives from the warm v0 (read before
    // citing at v1: serving refills the caches)
    let v1 = subject.engine_for_version(1).unwrap();
    assert_eq!(subject.version_stats().derived, 1);
    assert_eq!(v1.plan_stats().entries, 0, "{:?}", v1.plan_stats());
    assert_eq!(v1.cache_stats().entries, 0, "{:?}", v1.cache_stats());

    // result diff: v1 sees the rewritten introduction, v0 does not,
    // and both match the reference byte for byte
    let v1_result = subject.cite(VersionSelector::Id(1), &request).unwrap();
    assert_ne!(render_versioned(&v0_result), render_versioned(&v1_result));
    let at = |v| common::Request::At(v, request.clone());
    assert_same(
        &reference(5, &history),
        &[("borrowed", &subject)],
        &[at(0), at(1)],
    );
}

/// Tentpole: the 1,000-commit randomized walk. Every non-root version
/// borrows from its warm predecessor, and sampled versions cite
/// byte-identically to the scratch reference. Debug builds walk a
/// shorter history so the tier-1 suite stays fast — CI runs the full
/// length in release.
#[test]
fn thousand_commit_walk_derives_and_matches_rebuild_at_samples() {
    const COMMITS: usize = if cfg!(debug_assertions) { 250 } else { 1_000 };
    let history = history_for_seed(0xC1D2, COMMITS);
    let versions = history.len();
    let ascending = VersionedCitationEngine::new(history.clone(), paper_views());
    // warm every version in order: each derived engine runs over its
    // snapshot and copies nothing, never O(|DB|)
    for v in 0..versions as u64 {
        ascending.engine_for_version(v).unwrap();
    }
    let stats = ascending.version_stats();
    assert_eq!(stats.rebuilt, 1, "{stats:?}");
    assert_eq!(stats.derived as usize, versions - 1, "{stats:?}");
    assert_eq!(stats.warm_engines, versions, "{stats:?}");
    // every warm engine runs over its snapshot's own relation
    // instances, which the snapshots share wherever commits did not
    // touch them
    let memory = ascending.memory_stats();
    assert!(
        memory.shared_relations as usize >= versions,
        "warm engines must share relations, not copy them: {memory:?}"
    );
    // byte-identical citations at sampled versions (a reference build
    // at every version would be O(versions × |DB|))
    let mut samples: Vec<u64> = (0..versions as u64).step_by(101).collect();
    samples.push(versions as u64 - 1);
    let reference = reference(0xC1D2, &history);
    assert_same(
        &reference,
        &[("ascending", &ascending)],
        &walk(&samples, &queries()),
    );
}

/// Satellite: copy-on-write isolation. Mutating a derived child
/// database never leaks into the parent it structurally shares
/// relations with, and relations the child did not touch stay
/// pointer-identical (shared, not copied).
#[test]
fn derived_child_never_mutates_shared_parent() {
    use std::sync::Arc;

    // Database-level: a clone shares every relation; mutation copies
    // only the touched one.
    let parent = fgcite::gtopdb::generate(&GeneratorConfig::tiny().with_seed(1));
    let parent_rows = parent.relation("Family").unwrap().rows().to_vec();
    let mut child = parent.clone();
    child
        .insert("Family", tuple!["zz", "Leak-Probe", "gpcr"])
        .unwrap();
    assert_eq!(parent.relation("Family").unwrap().rows(), &parent_rows[..]);
    assert_eq!(
        child.relation("Family").unwrap().len(),
        parent_rows.len() + 1
    );
    assert!(
        Arc::ptr_eq(
            parent.relation_arc("Person").unwrap(),
            child.relation_arc("Person").unwrap()
        ),
        "untouched relations must stay shared"
    );
    // removal compacts the child's copy only
    let victim = parent_rows[0].clone();
    child.remove("Family", &victim).unwrap();
    assert_eq!(&parent.relation("Family").unwrap().rows()[0], &victim);
    assert!(!child.relation("Family").unwrap().contains(&victim));

    // Engine-level: borrowing engines for later versions leaves the
    // donor's store and citations bit-for-bit intact, while the
    // never-touched Person relation is shared across every engine.
    let history = history_for_seed(99, 3);
    let e = VersionedCitationEngine::new(history, paper_views());
    let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
    let parent_render = render_versioned(&common::cite_at(&e, VersionSelector::Id(0), &q).unwrap());
    let v0 = e.engine_for_version(0).unwrap();
    let v0_family = v0.database().relation("Family").unwrap().rows().to_vec();
    for v in 1..4 {
        common::cite_at(&e, VersionSelector::Id(v), &q).unwrap();
    }
    assert_eq!(
        v0.database().relation("Family").unwrap().rows(),
        &v0_family[..],
        "borrowing children must not disturb the donor's relations"
    );
    assert_eq!(
        render_versioned(&common::cite_at(&e, VersionSelector::Id(0), &q).unwrap()),
        parent_render
    );
    let v3 = e.engine_for_version(3).unwrap();
    assert!(
        Arc::ptr_eq(
            v0.database().relation_arc("Person").unwrap(),
            v3.database().relation_arc("Person").unwrap()
        ),
        "a relation no commit touches must be one shared instance"
    );
}
