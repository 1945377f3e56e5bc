//! Differential suite for versioned serving: across randomized commit
//! histories over GtoPdb-shaped relations, every version a
//! [`VersionedCitationEngine`] serves through its one catalog engine
//! (and the caches every version shares) must cite
//! **byte-identically** to an engine built from scratch on the same
//! snapshot — tuples and their global order, provenance polynomials,
//! interpreted citations, aggregates, rewriting labels, and the fixity
//! stamp.
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
    assert_same, history_queries as queries, random_commit, render_versioned, walk, Candidate,
    Reference,
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
    for seed in 0..SEEDS {
        let history = history_for_seed(seed, COMMITS);
        let versions = history.len();
        let reference = reference(seed, &history);
        // ascending walk: every version past 0 is served through the
        // engine v0 built, with caches its predecessors filled
        let ascending = VersionedCitationEngine::new(history.clone(), paper_views());
        let in_order: Vec<u64> = (0..versions as u64).collect();
        assert_same(
            &reference,
            &[("ascending", &ascending)],
            &walk(&in_order, &queries),
        );
        // shuffled walk: first touches out of order
        let shuffled = VersionedCitationEngine::new(history, paper_views());
        let order = shuffled_versions(versions, &mut SmallRng::seed_from_u64(seed ^ 0x5EED));
        assert_same(
            &reference,
            &[("shuffled", &shuffled)],
            &walk(&order, &queries),
        );

        // empty commits (and deletes that found nothing) are served
        // like any other: the first resolve is the only build
        let lookups = (versions * queries.len()) as u64;
        for (walked, stats) in [("ascending", &ascending), ("shuffled", &shuffled)]
            .map(|(name, e)| (name, e.version_stats()))
        {
            assert_eq!(
                (stats.rebuilt, stats.hits),
                (1, lookups - 1),
                "{walked}: {stats:?}"
            );
        }
    }
}

/// Sharing is not tied to `v - 1`. A seeded walk opens with the head
/// and then version 0 (a backward jump across the whole history) and
/// goes on with shuffled, repeated passes. Each history builds one
/// engine, and cites every version byte-identically to the
/// reference.
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
        let engine = VersionedCitationEngine::new(history, paper_views());
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xBAC4);
        let mut order = vec![versions as u64 - 1, 0];
        for _ in 0..PASSES {
            order.extend(shuffled_versions(versions, &mut rng));
        }
        assert_same(
            &reference,
            &[("random access", &engine)],
            &walk(&order, &queries),
        );
        let stats = engine.version_stats();
        assert_eq!(
            stats.rebuilt, 1,
            "seed {seed}: only the first touch builds from scratch: {stats:?}"
        );
        assert_eq!(
            stats.hits + stats.rebuilt,
            (order.len() * queries.len()) as u64,
            "every lookup is a hit or the one build: {stats:?}"
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

/// A one-version history over the tiny generated fixture, plus `v1`,
/// the commit `change` makes.
fn one_commit_history(
    change: fn(&mut Database) -> fgcite::relation::error::Result<()>,
) -> VersionedDatabase {
    let mut history = VersionedDatabase::new();
    history
        .commit(generate(&GeneratorConfig::tiny().with_seed(5)), 0, "v0")
        .unwrap();
    history.commit_with(100, "v1", change).unwrap();
    history
}

/// Cite `request` at `version` through `subject`, with the plan-cache
/// `(hits, misses)` the request caused.
fn cite_counting_plans(
    subject: &VersionedCitationEngine,
    version: u64,
    request: &CiteRequest,
) -> (CiteResponse, (u64, u64)) {
    let engine = subject.engine_for_version(version).unwrap();
    let before = engine.plan_stats();
    let response = engine.cite_request(request).unwrap();
    let after = engine.plan_stats();
    (
        response,
        (after.hits - before.hits, after.misses - before.misses),
    )
}

/// `Family` alone: cited by V1, V3 or V4 tokens, whose citation queries
/// read neither `FamilyIntro` nor `FIC`.
fn family_request() -> CiteRequest {
    CiteRequest::query(parse_query("Q(N) :- Family(F, N, Ty)").unwrap())
}

/// `Family ⋈ FamilyIntro`: every plan of it reads `FamilyIntro`, and its
/// best rewriting is `V5("gpcr")`, whose citation query reads
/// `FamilyIntro` and `FIC`.
fn intro_request() -> CiteRequest {
    CiteRequest::query(
        parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap(),
    )
}

/// Every version is served through one catalog engine whose caches are
/// keyed by relation instance. After a commit that rewrote a
/// `FamilyIntro` row, the V5 tokens and the plans of queries that read
/// `FamilyIntro` miss, while the tokens and plans over unchanged
/// relations hit. Both versions cite what a scratch build cites — also
/// under per-request overrides (union policy, exhaustive mode).
#[test]
fn derived_engine_invalidates_stale_plans_and_tokens() {
    let history = one_commit_history(|db| {
        // rewrite one introduction, which V2 and V5 read
        let intro = db.relation("FamilyIntro")?.rows()[0].clone();
        db.remove("FamilyIntro", &intro)?;
        db.insert(
            "FamilyIntro",
            tuple![intro[0].clone(), "A rewritten introduction"],
        )
        .map(|_| ())
    });
    let subject = VersionedCitationEngine::new(history.clone(), paper_views());
    let (family, intro) = (family_request(), intro_request());
    for request in [&family, &intro] {
        cite_counting_plans(&subject, 0, request);
    }

    let (response, plans) = cite_counting_plans(&subject, 1, &family);
    assert_eq!(response.cache_misses, 0, "unchanged tokens hit");
    assert!(response.cache_hits > 0);
    assert_eq!(plans.1, 0, "plans over unchanged relations hit: {plans:?}");
    assert!(plans.0 > 0);

    let (response, plans) = cite_counting_plans(&subject, 1, &intro);
    let rewritings = &response.citation.rewritings;
    assert!(
        rewritings
            .iter()
            .all(|(_, r)| r.view_atoms().all(|v| v.view == "V5")),
        "{rewritings:?}"
    );
    assert_eq!(response.cache_hits, 0, "every V5 token misses");
    assert!(response.cache_misses > 0);
    assert_eq!(plans.0, 0, "every plan reads FamilyIntro: {plans:?}");
    assert!(plans.1 > 0);

    // exhaustive mode cites every rewriting, so all caches fill
    let exhaustive = intro
        .with_policy(Policy::union_all())
        .with_mode(RewriteMode::Exhaustive);
    let at = |v| common::Request::At(v, exhaustive.clone());
    assert_ne!(
        subject.answer(&at(0)),
        subject.answer(&at(1)),
        "v1 sees the rewritten introduction, v0 does not"
    );
    assert_same(
        &reference(5, &history),
        &[("shared caches", &subject)],
        &[at(0), at(1), at(0), at(1)],
    );
}

/// A commit that changes only `FIC`, which no query here and no view
/// definition reads: every plan is shared across the two versions,
/// and only the tokens whose citation queries read `FIC` (V2, V5) are
/// computed again.
#[test]
fn fic_only_commit_shares_every_plan() {
    let history = one_commit_history(|db| {
        let contributor = db.relation("FIC")?.rows()[0].clone();
        db.remove("FIC", &contributor).map(|_| ())
    });
    let subject = VersionedCitationEngine::new(history.clone(), paper_views());
    let (family, intro) = (family_request(), intro_request());
    for request in [&family, &intro] {
        cite_counting_plans(&subject, 0, request);
    }
    let (response, plans) = cite_counting_plans(&subject, 1, &family);
    assert_eq!(response.cache_misses, 0);
    assert_eq!(plans.1, 0, "{plans:?}");
    let (response, plans) = cite_counting_plans(&subject, 1, &intro);
    assert_eq!(plans.1, 0, "the answer and expansion plans hit: {plans:?}");
    assert!(plans.0 > 0);
    assert_eq!(response.cache_hits, 0, "V5's citation query reads FIC");
    let at = |v| common::Request::At(v, intro.clone());
    assert_same(
        &reference(5, &history),
        &[("shared caches", &subject)],
        &[at(0), at(1), at(0), at(1)],
    );
}

/// Tentpole: the 1,000-commit randomized walk. Every version is served
/// through the one engine the first built, and sampled versions cite
/// byte-identically to the scratch reference. Debug builds walk a
/// shorter history so the tier-1 suite stays fast — CI runs the full
/// length in release.
#[test]
fn thousand_commit_walk_derives_and_matches_rebuild_at_samples() {
    const COMMITS: usize = if cfg!(debug_assertions) { 250 } else { 1_000 };
    let history = history_for_seed(0xC1D2, COMMITS);
    let versions = history.len();
    let ascending = VersionedCitationEngine::new(history.clone(), paper_views());
    // resolve every version in order: each engine runs over its
    // snapshot and copies nothing, never O(|DB|)
    for v in 0..versions as u64 {
        ascending.engine_for_version(v).unwrap();
    }
    let stats = ascending.version_stats();
    assert_eq!(stats.rebuilt, 1, "{stats:?}");
    assert_eq!(stats.hits as usize, versions - 1, "{stats:?}");
    // the snapshots share every relation their commits did not touch
    let memory = ascending.memory_stats();
    assert!(
        memory.shared_relations as usize >= versions,
        "versions must share relations, not copy them: {memory:?}"
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

    // Engine-level: serving later versions leaves v0's store and
    // citations bit-for-bit intact, while the never-touched Person
    // relation is shared across every version's engine.
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
        "later versions must not disturb v0's relations"
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
