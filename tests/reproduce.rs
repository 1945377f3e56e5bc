//! The paper's qualitative claims (*A Model for Fine-Grained Data
//! Citation*, CIDR 2017), each re-derived as deterministic counts.
//!
//! One test per claim (`REPRODUCE.md` maps them to the paper). Each
//! builds a [`Json`] of counts — never a wall time, which is the
//! `benchmark/` ruler's job — and compares its pretty rendering with
//! the committed `results/claim-N.json`. When a change moves a count on
//! purpose, the failure message prints the fresh document; that is
//! the file's new content.

use fgcite::engine::{
    baseline_coverage, CitationEngine, EngineOptions, OrderChoice, PageCitationStore, Policy,
    RewriteMode, VersionedCitationEngine, WorkloadItem,
};
use fgcite::gtopdb::{generate, paper_instance, paper_views, GeneratorConfig, WorkloadGenerator};
use fgcite::prelude::*;
use fgcite::query::{evaluate, evaluate_annotated, parse_query};
use fgcite::relation::VersionedDatabase;
use fgcite::rewrite::{best_rewritings, enumerate_rewritings, RewriteOptions, ViewDefs};
use fgcite::semiring::{Natural, Polynomial, Why};

/// Compare a claim's counts with `results/claim-{n}.json`.
fn check(n: usize, counts: Json) {
    let path = format!("{}/results/claim-{n}.json", env!("CARGO_MANIFEST_DIR"));
    let fresh = counts.to_pretty() + "\n";
    let committed = std::fs::read_to_string(&path).unwrap_or_default();
    assert_eq!(
        committed, fresh,
        "{path} does not match; the fresh counts are:\n{fresh}"
    );
}

fn int(n: impl TryInto<i64>) -> Json {
    Json::Int(n.try_into().unwrap_or(i64::MAX))
}

/// The answers of an annotated evaluation, sorted.
fn tuples<S>(annotated: &[(Tuple, S)]) -> Vec<Tuple> {
    let mut tuples: Vec<Tuple> = annotated.iter().map(|(t, _)| t.clone()).collect();
    tuples.sort();
    tuples
}

fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::from_pairs(pairs)
}

/// The Example 2.3 query.
fn example_query() -> ConjunctiveQuery {
    parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap()
}

/// A view set of size `n`: the paper's five views plus `n - 5`
/// renamed selection/projection copies over the same relations — the
/// "many similar landing pages" case that blows up enumeration.
fn view_defs_of_size(n: usize) -> ViewDefs {
    let mut defs: Vec<ConjunctiveQuery> = paper_views().iter().map(|v| v.view.clone()).collect();
    for i in 0..n.saturating_sub(defs.len()) {
        let q = match i % 4 {
            0 => format!("lambda F. W{i}(F, N, Ty) :- Family(F, N, Ty)"),
            1 => format!("lambda Ty. W{i}(F, N, Ty) :- Family(F, N, Ty)"),
            2 => format!("lambda F. W{i}(F, Tx) :- FamilyIntro(F, Tx)"),
            _ => format!("lambda Ty. W{i}(F, N, Ty, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)"),
        };
        defs.push(parse_query(&q).unwrap());
    }
    defs.truncate(n);
    ViewDefs::new(defs)
}

/// The generated GtoPdb-shaped instance with `families` families.
fn db_at_scale(families: usize) -> Database {
    generate(&GeneratorConfig::default().with_families(families))
}

fn engine(db: Database, policy: Policy, mode: RewriteMode) -> CitationEngine {
    CitationEngine::new(db, paper_views())
        .unwrap()
        .with_policy(policy)
        .with_options(EngineOptions {
            mode,
            ..EngineOptions::default()
        })
}

/// A history of `commits` small deltas over a generated instance:
/// contributor churn on `FIC` (one row added, the first row removed
/// per commit). No view query reads `FIC` (only the citation queries
/// CV2 and CV5 do), so an engine borrowed for the next version adopts
/// all five view extents.
fn commit_history(families: usize, commits: usize) -> VersionedDatabase {
    let mut history = VersionedDatabase::new();
    history.commit(db_at_scale(families), 0, "v0").unwrap();
    for i in 1..=commits {
        history
            .commit_with(i as u64 * 10, format!("v{i}"), |db| {
                let fid = format!("f{}", (i * 13) % families.max(1));
                let pid = format!("p{}", (i * 7) % (families / 2).max(10));
                db.insert("FIC", fgcite::relation::tuple![fid, pid])?;
                if let Some(t) = db.relation("FIC")?.rows().first().cloned() {
                    db.remove("FIC", &t)?;
                }
                Ok(())
            })
            .unwrap();
    }
    history
}

/// §3.2/§4: exhaustive rewriting is impractical as views multiply;
/// the preference-pruned search stays small when a small cover exists.
#[test]
fn claim_1_pruned_search_stays_small() {
    let q = example_query();
    let rows = [5, 8, 12, 16, 24].map(|n| {
        let defs = view_defs_of_size(n);
        let all = enumerate_rewritings(&q, &defs, RewriteOptions::default()).unwrap();
        let best = best_rewritings(&q, &defs, RewriteOptions::default()).unwrap();
        obj([
            ("views", int(n)),
            ("rewritings", int(all.rewritings.len())),
            ("best_rewritings", int(best.rewritings.len())),
            ("combinations_exhaustive", int(all.combinations_tried)),
            ("combinations_pruned", int(best.combinations_tried)),
            ("exhaustive", Json::Bool(all.exhaustive)),
        ])
    });
    check(
        1,
        obj([
            ("query", Json::str("Example 2.3")),
            ("sweep", Json::Array(rows.into())),
        ]),
    );
}

/// Def. 3.4: citations for general queries are generated
/// automatically, at every scale and query class.
#[test]
fn claim_2_general_queries_are_cited_at_scale() {
    let mut rows = Vec::new();
    for families in [100, 1_000] {
        let engine = engine(
            db_at_scale(families),
            Policy::default(),
            RewriteMode::Pruned,
        );
        let mut workload = WorkloadGenerator::new(engine.database(), 11);
        for class in 0..3 {
            let cited = engine.cite(&workload.query_from_template(class)).unwrap();
            rows.push(obj([
                ("families", int(families)),
                ("query", Json::str(format!("T{class}"))),
                ("tuples", int(cited.tuples.len())),
                ("rewritings", int(cited.rewritings.len())),
            ]));
        }
    }
    check(
        2,
        obj([("mode", Json::str("pruned")), ("rows", Json::Array(rows))]),
    );
}

/// §3.4: orders on citation expressions make citations concise.
#[test]
fn claim_3_orders_make_citations_concise() {
    let q = example_query();
    let rows = [
        ("none", OrderChoice::None),
        ("fewest-views", OrderChoice::FewestViews),
        ("fewest-uncovered", OrderChoice::FewestUncovered),
        ("view-inclusion", OrderChoice::ViewInclusion),
        ("composite", OrderChoice::Composite),
    ]
    .map(|(name, order)| {
        let policy = Policy::union_all().with_order(order);
        let cited = engine(paper_instance(), policy, RewriteMode::Exhaustive)
            .cite(&q)
            .unwrap();
        obj([
            ("order", Json::str(name)),
            ("rewritings", int(cited.rewritings.len())),
            ("total_monomials", int(cited.total_monomials())),
            ("total_json_bytes", int(cited.total_json_bytes())),
        ])
    });
    check(
        3,
        obj([
            ("instance", Json::str("paper, Example 2.3, exhaustive")),
            ("orders", Json::Array(rows.into())),
        ]),
    );
}

/// §3.3: the interpretations of `+`, `·`, `+R` and `Agg` trade
/// citation size for detail on the same answers.
#[test]
fn claim_4_policies_trade_size_for_detail() {
    let families = 1_000;
    let db = db_at_scale(families);
    let q = WorkloadGenerator::new(&db, 13).query_from_template(1);
    let rows = [
        ("union", Policy::union_all()),
        ("join", Policy::join_all()),
        ("default", Policy::default()),
    ]
    .map(|(name, policy)| {
        let cited = engine(db.clone(), policy, RewriteMode::Exhaustive)
            .cite(&q)
            .unwrap();
        obj([
            ("policy", Json::str(name)),
            ("tuples", int(cited.tuples.len())),
            ("total_json_bytes", int(cited.total_json_bytes())),
        ])
    });
    check(
        4,
        obj([
            ("families", int(families)),
            ("query", Json::str("T1, exhaustive")),
            ("policies", Json::Array(rows.into())),
        ]),
    );
}

/// §1: hard-coded page citations cover only the pages; the engine
/// also answers the ad-hoc half of a mixed workload.
#[test]
fn claim_5_pages_cover_only_pages() {
    let families = 1_000;
    let db = db_at_scale(families);
    let views = paper_views();
    let store = PageCitationStore::materialize(&db, &views).unwrap();
    let mut workload = WorkloadGenerator::new(&db, 17);
    let pages_only = workload.mixed(100, 0);
    let mixed = workload.mixed(50, 50);
    let covered = |items: &[WorkloadItem]| {
        int((baseline_coverage(&store, items) * items.len() as f64).round() as i64)
    };
    let engine = CitationEngine::new(db, views).unwrap();
    let engine_answered = mixed
        .iter()
        .filter(|item| match item {
            WorkloadItem::AdHoc(q) => engine.cite(q).is_ok(),
            WorkloadItem::Page(_) => true,
        })
        .count();
    check(
        5,
        obj([
            ("families", int(families)),
            ("materialized_pages", int(store.len())),
            ("page_only_requests", int(pages_only.len())),
            ("page_only_baseline_covered", covered(&pages_only)),
            ("mixed_requests", int(mixed.len())),
            ("mixed_baseline_covered", covered(&mixed)),
            ("mixed_engine_answered", int(engine_answered)),
        ]),
    );
}

/// §4: tuple-level annotations ride on query evaluation — the
/// annotated answers are the plain answers, with provenance attached.
#[test]
fn claim_6_annotations_keep_the_answers() {
    let families = 1_000;
    let db = db_at_scale(families);
    let q = WorkloadGenerator::new(&db, 23).query_from_template(2);
    let mut plain = evaluate(&db, &q).unwrap();
    plain.sort();
    let token = |rel: &str, row: usize| format!("{rel}:{row}");
    let counts: Vec<(Tuple, Natural)> = evaluate_annotated(&db, &q, |_, _| Natural(1)).unwrap();
    let why: Vec<(Tuple, Why<String>)> =
        evaluate_annotated(&db, &q, |rel, row| Why::token(token(rel, row))).unwrap();
    let poly: Vec<(Tuple, Polynomial<String>)> =
        evaluate_annotated(&db, &q, |rel, row| Polynomial::token(token(rel, row))).unwrap();
    let same = [tuples(&counts), tuples(&why), tuples(&poly)]
        .iter()
        .all(|t| *t == plain);
    check(
        6,
        obj([
            ("families", int(families)),
            ("query", Json::str("T2")),
            ("answers", int(plain.len())),
            ("annotated_equal_plain", Json::Bool(same)),
            (
                "derivations",
                int(counts.iter().map(|(_, n)| n.0).sum::<u64>()),
            ),
            (
                "why_witnesses",
                int(why.iter().map(|(_, w)| w.witnesses.len()).sum::<usize>()),
            ),
            (
                "nx_monomials",
                int(poly.iter().map(|(_, p)| p.num_monomials()).sum::<usize>()),
            ),
        ]),
    );
}

/// §4: caching citations is a lever — a warm pass over the same
/// queries is served from the token cache.
#[test]
fn claim_7_warm_caches_serve_repeats() {
    let families = 1_000;
    let db = db_at_scale(families);
    let engine = engine(db, Policy::default(), RewriteMode::Pruned);
    let queries = WorkloadGenerator::new(engine.database(), 29).ad_hoc_batch(20);
    let pass = |cold: bool| {
        let before = engine.cache_stats();
        for q in &queries {
            if cold {
                engine.clear_caches();
            }
            engine.cite(q).unwrap();
        }
        let after = engine.cache_stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        obj([
            ("hits", int(hits)),
            ("misses", int(misses)),
            ("hit_rate_pct", int(100 * hits / (hits + misses).max(1))),
            ("entries", int(after.entries)),
        ])
    };
    let cold = pass(true);
    let warm = pass(false);
    check(
        7,
        obj([
            ("families", int(families)),
            ("queries", int(queries.len())),
            ("cold", cold),
            ("warm", warm),
        ]),
    );
}

/// Fixity: a citation names the version it was computed against, and
/// a commit history costs what its commits touched — versions derive
/// from their neighbour and share the relations the delta left alone.
#[test]
fn claim_8_fixity_resolves_and_shares_versions() {
    let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").unwrap();
    let mut small = VersionedDatabase::new();
    small.commit(paper_instance(), 0, "v0").unwrap();
    for i in 1..4 {
        small
            .commit_with(i * 10, format!("v{i}"), |db| {
                let family = fgcite::relation::tuple![format!("g{i}"), format!("G-{i}"), "gpcr"];
                db.insert("Family", family).map(|_| ())
            })
            .unwrap();
    }
    let small = VersionedCitationEngine::new(small, paper_views());
    let resolved = [0u64, 5, 10, 25, 30, 1_000].map(|at| {
        let cited = small.cite_at_time(at, &q).unwrap();
        obj([
            ("at", int(at)),
            ("label", Json::str(cited.label)),
            ("tuples", int(cited.citation.tuples.len())),
        ])
    });

    let (families, commits) = (1_000, 64);
    let walked = VersionedCitationEngine::new(commit_history(families, commits), paper_views());
    let mut memory = Vec::new();
    for v in 0..=commits as u64 {
        walked.cite_at_version(v, &q).unwrap();
        if v.is_power_of_two() || v == 0 {
            let m = walked.memory_stats();
            memory.push(obj([
                ("through_version", int(v)),
                ("resident_kib", int(m.resident_bytes / 1024)),
                ("shared_relations", int(m.shared_relations)),
            ]));
        }
    }
    let stats = walked.version_stats();
    check(
        8,
        obj([
            ("resolved", Json::Array(resolved.into())),
            ("families", int(families)),
            ("commits", int(commits)),
            ("derived", int(stats.derived)),
            ("shared", int(stats.shared)),
            ("rebuilt", int(stats.rebuilt)),
            ("memory", Json::Array(memory)),
        ]),
    );
}
