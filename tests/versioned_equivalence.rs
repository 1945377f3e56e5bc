//! Differential suite for incremental snapshot maintenance: across
//! randomized commit histories over GtoPdb-shaped relations, the
//! *derived* engines of a [`VersionedCitationEngine`] (delta replay
//! from a warm neighbor) must produce citations **byte-identical** to
//! engines rebuilt from the snapshot — tuples and their global order,
//! provenance polynomials, interpreted citations, aggregates,
//! rewriting labels, and the fixity stamp.
//!
//! The reference is the same engine type with the derivation
//! threshold at 0, which forces every first touch down the rebuild
//! path; randomized histories (seeded, deterministic) cover inserts,
//! deletes, mixed commits, empty commits, and out-of-order version
//! access.

use fgcite::gtopdb::rng::SmallRng;
use fgcite::gtopdb::{generate, paper_views, type_name, GeneratorConfig};
use fgcite::prelude::*;
use fgcite::query::parse_query;

/// Render every byte a citation carries (same bar as the sharding and
/// plan equivalence suites) plus the fixity stamp.
fn render(cited: &fgcite::engine::VersionedCitation) -> String {
    let mut out = String::new();
    out.push_str(&cited.stamped_aggregate().to_compact());
    out.push('\n');
    for (label, rewriting) in &cited.citation.rewritings {
        out.push_str(&format!("{label} := {rewriting}\n"));
    }
    for tc in &cited.citation.tuples {
        out.push_str(&format!(
            "{} | {:?} | {}\n",
            tc.tuple,
            tc.expr,
            tc.citation.to_compact()
        ));
    }
    out.push_str(&format!(
        "exhaustive={} unsatisfiable={}",
        cited.citation.exhaustive, cited.citation.unsatisfiable
    ));
    out
}

fn queries() -> Vec<ConjunctiveQuery> {
    [
        "Q(N) :- Family(F, N, Ty)",
        "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"",
        "Q(Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)",
    ]
    .iter()
    .map(|s| parse_query(s).unwrap())
    .collect()
}

/// Append one randomized commit to the history. `kind`: 0 inserts,
/// 1 deletes, 2 mixed, 3 empty. Decisions are drawn from `rng`
/// *inside* the commit closure so deletes can target rows that exist
/// in the working copy.
fn random_commit(history: &mut VersionedDatabase, rng: &mut SmallRng, step: usize, kind: usize) {
    let timestamp = (step as u64 + 1) * 100;
    history
        .commit_with(timestamp, format!("v{}", step + 1), |db| {
            if kind == 0 || kind == 2 {
                let inserts = rng.gen_range(1..=3);
                for i in 0..inserts {
                    let fid = format!("nf{step}-{i}");
                    let ty = type_name(rng.gen_range(0..3));
                    db.insert("Family", tuple![fid.clone(), format!("New-{step}-{i}"), ty])?;
                    db.insert(
                        "FC",
                        tuple![fid.clone(), format!("p{}", rng.gen_range(0..20))],
                    )?;
                    if rng.gen_bool(0.5) {
                        db.insert(
                            "FamilyIntro",
                            tuple![fid.clone(), format!("Intro {step}-{i}")],
                        )?;
                        db.insert("FIC", tuple![fid, format!("p{}", rng.gen_range(0..20))])?;
                    }
                }
            }
            if kind == 1 || kind == 2 {
                for _ in 0..rng.gen_range(1..=3) {
                    let relation = ["Family", "FC", "FamilyIntro", "FIC"][rng.gen_range(0..4)];
                    let rows = db.relation(relation)?.rows();
                    if rows.is_empty() {
                        continue;
                    }
                    let victim = rows[rng.gen_range(0..rows.len())].clone();
                    db.remove(relation, &victim)?;
                }
            }
            Ok(())
        })
        .expect("commit applies");
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
        // reference: every first touch rebuilds from the snapshot
        let reference =
            VersionedCitationEngine::new(history.clone(), paper_views()).with_derive_threshold(0);
        // ascending walk: every version past 0 derives from its
        // freshly warmed neighbor
        let ascending = VersionedCitationEngine::new(history.clone(), paper_views());
        // shuffled walk: first touches out of order, so some versions
        // rebuild (cold neighbor) and later ones derive
        let shuffled = VersionedCitationEngine::new(history, paper_views());
        let mut order_rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        let order = shuffled_versions(versions, &mut order_rng);

        for v in 0..versions as u64 {
            for q in &queries {
                let expected = render(&reference.cite_at_version(v, q).unwrap());
                let got = render(&ascending.cite_at_version(v, q).unwrap());
                assert_eq!(
                    got, expected,
                    "seed {seed} version {v} query {q} (ascending)"
                );
            }
        }
        for &v in &order {
            for q in &queries {
                let expected = render(&reference.cite_at_version(v, q).unwrap());
                let got = render(&shuffled.cite_at_version(v, q).unwrap());
                assert_eq!(
                    got, expected,
                    "seed {seed} version {v} query {q} (shuffled)"
                );
            }
        }

        let asc = ascending.version_stats();
        // empty commits (and deletes that found nothing) serve by
        // pure structural sharing, counted under `shared`
        assert_eq!(
            (asc.derived + asc.shared) as usize,
            versions - 1,
            "ascending walk must derive or share every non-root version: {asc:?}"
        );
        assert!(
            asc.shared >= 1,
            "the trailing empty commit must be served by sharing: {asc:?}"
        );
        assert_eq!(asc.rebuilt, 1, "{asc:?}");
        let ref_stats = reference.version_stats();
        assert_eq!(ref_stats.derived, 0, "{ref_stats:?}");
        assert_eq!(ref_stats.rebuilt as usize, versions, "{ref_stats:?}");
        total_derived += shuffled.version_stats().derived;
    }
    assert!(
        total_derived > 0,
        "shuffled walks should still find warm neighbors sometimes"
    );
}

#[test]
fn timeline_and_timestamp_resolution_match_rebuild() {
    let history = history_for_seed(77, 4);
    let incremental = VersionedCitationEngine::new(history.clone(), paper_views());
    let reference = VersionedCitationEngine::new(history, paper_views()).with_derive_threshold(0);
    let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").unwrap();
    let a = incremental.citation_timeline(&q).unwrap();
    let b = reference.citation_timeline(&q).unwrap();
    assert_eq!(a.len(), b.len());
    for ((va, ja), (vb, jb)) in a.iter().zip(&b) {
        assert_eq!(va, vb);
        assert_eq!(ja.to_compact(), jb.to_compact());
    }
    for at in [0, 150, 250, 10_000] {
        let x = incremental.cite_at_time(at, &q).unwrap();
        let y = reference.cite_at_time(at, &q).unwrap();
        assert_eq!(render(&x), render(&y), "at={at}");
    }
}

/// Satellite: a plan cached at version *v* must not serve stale
/// results at *v+1* once a delta touches one of its relations —
/// pinned through the engine's plan/token cache counters plus a
/// result diff against the rebuild reference.
#[test]
fn derived_engine_invalidates_stale_plans_and_tokens() {
    let base = generate(&GeneratorConfig::tiny().with_seed(5));
    let probe_fid = "f0";
    let mut history = VersionedDatabase::new();
    history.commit(base, 0, "v0").unwrap();
    history
        .commit_with(100, "v1", |db| {
            // touch FC only: V1/V4 cite through FC and are affected,
            // while V2/V3/V5 extents and tokens stay valid
            db.insert("FC", tuple![probe_fid, "p19"]).map(|_| ())
        })
        .unwrap();

    let exhaustive = EngineOptions {
        mode: RewriteMode::Exhaustive,
        ..EngineOptions::default()
    };
    let subject = VersionedCitationEngine::new(history.clone(), paper_views())
        .with_policy(Policy::union_all())
        .with_options(exhaustive);
    let reference = VersionedCitationEngine::new(history, paper_views())
        .with_policy(Policy::union_all())
        .with_options(exhaustive)
        .with_derive_threshold(0);

    // the committee query scans FC: its plan and its rewritings'
    // extent plans go stale at v1
    let committee = parse_query(&format!(
        "Q(Pn) :- Family(\"{probe_fid}\", N, Ty), FC(\"{probe_fid}\", C), Person(C, Pn, A)"
    ))
    .unwrap();
    // the intro query never mentions FC: its plans survive
    let intro = parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)").unwrap();

    let v0 = subject.engine_for_version(0).unwrap();
    subject.cite_at_version(0, &committee).unwrap();
    subject.cite_at_version(0, &intro).unwrap();
    let parent_plans = v0.plan_stats();
    let parent_cache = v0.cache_stats();
    assert!(parent_plans.entries > 0);
    assert!(parent_cache.entries > 0);

    // first touch of v1 derives from the warm v0
    let v0_result = subject.cite_at_version(0, &committee).unwrap();
    let v1 = subject.engine_for_version(1).unwrap();
    assert_eq!(subject.version_stats().derived, 1);

    // the carried caches dropped the stale entries but kept the rest
    // (read before citing at v1 — serving refills what was dropped)
    let derived_plans = v1.plan_stats();
    let derived_cache = v1.cache_stats();
    assert!(
        derived_plans.entries < parent_plans.entries,
        "stale plans must be dropped: {derived_plans:?} vs {parent_plans:?}"
    );
    assert!(derived_plans.entries > 0, "unaffected plans must survive");
    assert!(
        derived_cache.entries < parent_cache.entries,
        "stale tokens must be dropped: {derived_cache:?} vs {parent_cache:?}"
    );
    assert!(derived_cache.entries > 0, "unaffected tokens must survive");

    let v1_result = subject.cite_at_version(1, &committee).unwrap();
    // serving the stale query recompiled its plan (a miss, no hit-only path)
    assert!(v1.plan_stats().misses > 0, "{:?}", v1.plan_stats());

    // result diff: v1 sees the new committee member, v0 does not,
    // and both match the rebuild reference byte for byte
    assert_ne!(render(&v0_result), render(&v1_result));
    assert!(
        v1_result.citation.tuples.len() > v0_result.citation.tuples.len(),
        "the inserted FC row must surface at v1"
    );
    for (v, got) in [(0, &v0_result), (1, &v1_result)] {
        let expected = reference.cite_at_version(v, &committee).unwrap();
        assert_eq!(render(got), render(&expected), "version {v}");
    }
    // the unaffected query is served from carried plans, identically
    let warm_intro = subject.cite_at_version(1, &intro).unwrap();
    let rebuilt_intro = reference.cite_at_version(1, &intro).unwrap();
    assert_eq!(render(&warm_intro), render(&rebuilt_intro));
}

/// Commits that exceed the derivation threshold rebuild — and still
/// cite identically.
#[test]
fn over_threshold_commits_fall_back_and_stay_identical() {
    let history = history_for_seed(13, 3);
    let tiny_threshold =
        VersionedCitationEngine::new(history.clone(), paper_views()).with_derive_threshold(1);
    let reference = VersionedCitationEngine::new(history, paper_views()).with_derive_threshold(0);
    let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
    for v in 0..4 {
        assert_eq!(
            render(&tiny_threshold.cite_at_version(v, &q).unwrap()),
            render(&reference.cite_at_version(v, &q).unwrap()),
            "version {v}"
        );
    }
    let stats = tiny_threshold.version_stats();
    // commits of >1 op rebuilt; the trailing empty commit is served
    // by pure structural sharing
    assert!(stats.fallbacks >= 1, "{stats:?}");
    assert!(stats.shared >= 1, "{stats:?}");
}

/// Tentpole: the 1,000-commit randomized walk. Every non-root version
/// is served by delta replay (or pure sharing) off its warm neighbor,
/// and sampled versions cite byte-identically to a threshold-0
/// rebuild reference. Debug builds walk a shorter history so the
/// tier-1 suite stays fast — CI runs the full length in release.
#[test]
fn thousand_commit_walk_derives_and_matches_rebuild_at_samples() {
    const COMMITS: usize = if cfg!(debug_assertions) { 250 } else { 1_000 };
    let history = history_for_seed(0xC1D2, COMMITS);
    let versions = history.len();
    let ascending = VersionedCitationEngine::new(history.clone(), paper_views());
    let reference = VersionedCitationEngine::new(history, paper_views()).with_derive_threshold(0);
    // warm every version in order: O(changed) per step, never O(|DB|)
    for v in 0..versions as u64 {
        ascending.engine_for_version(v).unwrap();
    }
    let stats = ascending.version_stats();
    assert_eq!(stats.rebuilt, 1, "{stats:?}");
    assert_eq!(stats.fallbacks, 0, "{stats:?}");
    assert_eq!(
        (stats.derived + stats.shared) as usize,
        versions - 1,
        "{stats:?}"
    );
    assert!(stats.shared >= 1, "{stats:?}");
    assert_eq!(stats.warm_engines, versions, "{stats:?}");
    // every warm engine rides on structural sharing with its
    // neighbors and the history snapshots
    let memory = ascending.memory_stats();
    assert!(
        memory.shared_relations as usize >= versions,
        "warm engines must share relations, not copy them: {memory:?}"
    );
    // byte-identical citations at sampled versions (rebuilding the
    // reference at all versions would be O(versions × |DB|))
    let queries = queries();
    let mut samples: Vec<u64> = (0..versions as u64).step_by(101).collect();
    samples.push(versions as u64 - 1);
    for &v in &samples {
        for q in &queries {
            assert_eq!(
                render(&ascending.cite_at_version(v, q).unwrap()),
                render(&reference.cite_at_version(v, q).unwrap()),
                "version {v} query {q}"
            );
        }
    }
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
    assert!(child
        .relation("Family")
        .unwrap()
        .position_of(&victim)
        .is_none());

    // Engine-level: deriving children off a warm parent leaves the
    // parent's store and citations bit-for-bit intact, while the
    // never-touched Person relation is shared across every engine.
    let history = history_for_seed(99, 3);
    let e = VersionedCitationEngine::new(history, paper_views());
    let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
    let parent_render = render(&e.cite_at_version(0, &q).unwrap());
    let v0 = e.engine_for_version(0).unwrap();
    let v0_family = v0.database().relation("Family").unwrap().rows().to_vec();
    for v in 1..4 {
        e.cite_at_version(v, &q).unwrap();
    }
    assert_eq!(
        v0.database().relation("Family").unwrap().rows(),
        &v0_family[..],
        "deriving children must not disturb the parent's relations"
    );
    assert_eq!(render(&e.cite_at_version(0, &q).unwrap()), parent_render);
    let v3 = e.engine_for_version(3).unwrap();
    assert!(
        Arc::ptr_eq(
            v0.database().relation_arc("Person").unwrap(),
            v3.database().relation_arc("Person").unwrap()
        ),
        "a relation no commit touches must be one shared instance"
    );
}
