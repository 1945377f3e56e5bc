//! Differential suite for versioned serving: across randomized commit
//! histories over GtoPdb-shaped relations, every engine a
//! [`VersionedCitationEngine`] borrows from a warm engine of another
//! version must cite **byte-identically** to an engine built from
//! scratch on the same snapshot — tuples and their global order,
//! provenance polynomials, interpreted citations, aggregates,
//! rewriting labels, and the fixity stamp.
//!
//! The reference ([`scratch`]) is a plain `CitationEngine` built on
//! the version's snapshot, not a mode of the engine under test.
//! Randomized histories (seeded, deterministic) cover inserts,
//! deletes, mixed commits and empty commits; the walks make first
//! touches in ascending, shuffled, backward and gapped order.

use fgcite::gtopdb::rng::SmallRng;
use fgcite::gtopdb::{generate, paper_views, type_name, GeneratorConfig};
use fgcite::prelude::*;
use fgcite::query::parse_query;

/// Render every byte a citation carries (same bar as the sharding and
/// plan equivalence suites) plus the fixity stamp.
fn render(cited: &VersionedCitation) -> String {
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

/// The reference: `q` cited by an engine built from scratch on
/// version `v`'s snapshot (after `configure`), stamped with the
/// version's label and timestamp.
fn scratch(
    history: &VersionedDatabase,
    v: u64,
    q: &ConjunctiveQuery,
    configure: fn(CitationEngine) -> CitationEngine,
) -> VersionedCitation {
    let (info, snapshot) = history.snapshot(v).unwrap();
    let engine = configure(CitationEngine::new((**snapshot).clone(), paper_views()).unwrap());
    VersionedCitation {
        citation: engine.cite(q).unwrap(),
        version: v,
        label: info.label.clone(),
        timestamp: info.timestamp,
    }
}

/// The reference render of every (version, query) pair.
fn scratch_renders(history: &VersionedDatabase, queries: &[ConjunctiveQuery]) -> Vec<Vec<String>> {
    (0..history.len() as u64)
        .map(|v| {
            queries
                .iter()
                .map(|q| render(&scratch(history, v, q, |e| e)))
                .collect()
        })
        .collect()
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
        let expected = scratch_renders(&history, &queries);
        // ascending walk: every version past 0 borrows from its
        // freshly warmed predecessor
        let ascending = VersionedCitationEngine::new(history.clone(), paper_views());
        // shuffled walk: first touches out of order, each borrowing
        // from whichever warm engine is nearest
        let shuffled = VersionedCitationEngine::new(history, paper_views());
        let mut order_rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        let order = shuffled_versions(versions, &mut order_rng);

        for v in 0..versions as u64 {
            for (q, expected) in queries.iter().zip(&expected[v as usize]) {
                let got = render(&ascending.cite_at_version(v, q).unwrap());
                assert_eq!(
                    &got, expected,
                    "seed {seed} version {v} query {q} (ascending)"
                );
            }
        }
        for &v in &order {
            for (q, expected) in queries.iter().zip(&expected[v as usize]) {
                let got = render(&shuffled.cite_at_version(v, q).unwrap());
                assert_eq!(
                    &got, expected,
                    "seed {seed} version {v} query {q} (shuffled)"
                );
            }
        }

        let asc = ascending.version_stats();
        // empty commits (and deletes that found nothing) borrow with
        // nothing cited changed, counted under `shared`
        assert_eq!(
            (asc.derived + asc.shared) as usize,
            versions - 1,
            "ascending walk must borrow every non-root version: {asc:?}"
        );
        assert!(
            asc.shared >= 1,
            "the trailing empty commit must be served by sharing: {asc:?}"
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
        let expected = scratch_renders(&history, &queries);
        let engine = VersionedCitationEngine::new(history, paper_views()).with_engine_capacity(2);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xBAC4);
        let mut walk = vec![versions as u64 - 1, 0];
        for _ in 0..PASSES {
            walk.extend(shuffled_versions(versions, &mut rng));
        }
        for &v in &walk {
            for (q, expected) in queries.iter().zip(&expected[v as usize]) {
                let got = render(&engine.cite_at_version(v, q).unwrap());
                assert_eq!(&got, expected, "seed {seed} version {v} query {q}");
            }
        }
        let stats = engine.version_stats();
        assert_eq!(
            stats.rebuilt, 1,
            "seed {seed}: only the first touch builds from scratch: {stats:?}"
        );
        assert!(stats.engine_evictions > 0, "{stats:?}");
        assert_eq!(
            stats.hits + stats.derived + stats.shared + stats.rebuilt,
            (walk.len() * queries.len()) as u64,
            "every lookup is a hit or one first touch: {stats:?}"
        );
    }
}

#[test]
fn timeline_and_timestamp_resolution_match_rebuild() {
    let history = history_for_seed(77, 4);
    let incremental = VersionedCitationEngine::new(history.clone(), paper_views());
    let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").unwrap();
    let timeline = incremental.citation_timeline(&q).unwrap();
    assert_eq!(timeline.len(), history.len());
    for (v, stamped) in &timeline {
        let expected = scratch(&history, *v, &q, |e| e).stamped_aggregate();
        assert_eq!(stamped.to_compact(), expected.to_compact(), "version {v}");
    }
    for at in [0, 150, 250, 10_000] {
        let (info, _) = history.snapshot_at(at).unwrap();
        let expected = scratch(&history, info.id, &q, |e| e);
        let got = incremental.cite_at_time(at, &q).unwrap();
        assert_eq!(render(&got), render(&expected), "at={at}");
    }
}

/// A borrowed engine adopts exactly the view extents whose inputs its
/// snapshot shares with the donor's store, starts with empty token and
/// plan caches, and cites what a scratch build cites.
#[test]
fn derived_engine_invalidates_stale_plans_and_tokens() {
    use std::sync::Arc;

    fn exhaustive_union(engine: CitationEngine) -> CitationEngine {
        engine
            .with_policy(Policy::union_all())
            .with_options(EngineOptions {
                mode: RewriteMode::Exhaustive,
                ..EngineOptions::default()
            })
    }

    let mut history = VersionedDatabase::new();
    history
        .commit(generate(&GeneratorConfig::tiny().with_seed(5)), 0, "v0")
        .unwrap();
    history
        .commit_with(100, "v1", |db| {
            // rewrite one introduction: of the view queries, only V2's
            // and V5's read FamilyIntro
            let intro = db.relation("FamilyIntro")?.rows()[0].clone();
            db.remove("FamilyIntro", &intro)?;
            db.insert(
                "FamilyIntro",
                tuple![intro[0].clone(), "A rewritten introduction"],
            )
            .map(|_| ())
        })
        .unwrap();
    let subject = VersionedCitationEngine::new(history.clone(), paper_views())
        .with_policy(Policy::union_all())
        .with_options(EngineOptions {
            mode: RewriteMode::Exhaustive,
            ..EngineOptions::default()
        });

    // exhaustive mode cites every rewriting, so all five extents are
    // read and all caches fill
    let intro = parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)").unwrap();
    let v0_result = subject.cite_at_version(0, &intro).unwrap();
    let v0 = subject.engine_for_version(0).unwrap();
    assert!(v0.plan_stats().entries > 0);
    assert!(v0.cache_stats().entries > 0);

    // the first touch of v1 borrows from the warm v0 (read before
    // citing at v1: serving refills the caches)
    let v1 = subject.engine_for_version(1).unwrap();
    assert_eq!(subject.version_stats().derived, 1);
    assert_eq!(v1.plan_stats().entries, 0, "{:?}", v1.plan_stats());
    assert_eq!(v1.cache_stats().entries, 0, "{:?}", v1.cache_stats());
    let donor = v0.extent_database_if_built().expect("v0 has cited");
    let borrowed = v1
        .extent_database_if_built()
        .expect("borrowed with the donor's extents");
    for (view, adopted) in [
        ("V1", true),
        ("V2", false),
        ("V3", true),
        ("V4", true),
        ("V5", false),
    ] {
        assert_eq!(
            Arc::ptr_eq(
                donor.relation_arc(view).unwrap(),
                borrowed.relation_arc(view).unwrap()
            ),
            adopted,
            "{view}"
        );
    }

    // result diff: v1 sees the rewritten introduction, v0 does not,
    // and both match the reference byte for byte
    let v1_result = subject.cite_at_version(1, &intro).unwrap();
    assert_ne!(render(&v0_result), render(&v1_result));
    for (v, got) in [(0, &v0_result), (1, &v1_result)] {
        let expected = scratch(&history, v, &intro, exhaustive_union);
        assert_eq!(render(got), render(&expected), "version {v}");
    }
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
    // warm every version in order: each borrow materializes only the
    // extents its commit changed, never O(|DB|)
    for v in 0..versions as u64 {
        ascending.engine_for_version(v).unwrap();
    }
    let stats = ascending.version_stats();
    assert_eq!(stats.rebuilt, 1, "{stats:?}");
    assert_eq!(
        (stats.derived + stats.shared) as usize,
        versions - 1,
        "{stats:?}"
    );
    assert!(stats.shared >= 1, "{stats:?}");
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
    let queries = queries();
    let mut samples: Vec<u64> = (0..versions as u64).step_by(101).collect();
    samples.push(versions as u64 - 1);
    for &v in &samples {
        for q in &queries {
            assert_eq!(
                render(&ascending.cite_at_version(v, q).unwrap()),
                render(&scratch(&history, v, q, |e| e)),
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

    // Engine-level: borrowing engines for later versions leaves the
    // donor's store and citations bit-for-bit intact, while the
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
        "borrowing children must not disturb the donor's relations"
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
