//! Cross-crate integration scenarios: generated data at scale, mixed
//! workloads, the suggest→adopt loop, SQL round-trips, and failure
//! injection.

mod common;

use common::{engine, gtopdb as scale_db, Reference};
use fgcite::engine::{
    baseline_coverage, suggest_views, CitationEngine, CoreError, PageCitationStore, Policy,
    QueryLog, RewriteMode, WorkloadItem,
};
use fgcite::gtopdb::{paper_views, WorkloadGenerator};
use fgcite::prelude::*;
use fgcite::query::parse_query;

#[test]
fn every_workload_template_is_citable_at_scale() {
    let db = scale_db(200, 1);
    let engine = engine(db);
    let mut workload = WorkloadGenerator::new(engine.database(), 2);
    for t in 0..WorkloadGenerator::template_count() {
        let q = workload.query_from_template(t);
        let cited = engine
            .cite(&q)
            .unwrap_or_else(|e| panic!("template {t} failed: {e}"));
        // every tuple must carry a citation expression (there is
        // always at least the partial/base rewriting)
        for tc in &cited.tuples {
            assert!(
                !tc.expr.is_zero_r(),
                "template {t}: tuple {} has no citation",
                tc.tuple
            );
        }
    }
}

#[test]
fn citations_respect_the_data_families_cited_by_their_own_curators() {
    // For a single-family query, the citation must mention exactly
    // the curators of that family (via V1's citation query).
    let db = scale_db(50, 3);
    // pick a family and find its committee from the raw data
    let fid = db.relation("Family").unwrap().rows()[7][0].clone();
    let committee_q = parse_query(&format!(
        "Q(Pn) :- FC(F, P), Person(P, Pn, A), F = {:?}",
        fid.to_string()
    ))
    .unwrap();
    let committee = fgcite::query::evaluate(&db, &committee_q).unwrap();
    assert!(!committee.is_empty());

    let engine = engine(db);
    let q = parse_query(&format!(
        "Q(N, Ty) :- Family(F, N, Ty), F = {:?}",
        fid.to_string()
    ))
    .unwrap();
    let cited = engine.cite(&q).unwrap();
    assert_eq!(cited.tuples.len(), 1);
    let text = cited.tuples[0].citation.to_compact();
    for member in &committee {
        let name = member[0].to_string();
        assert!(
            text.contains(&name),
            "citation {text} misses curator {name}"
        );
    }
}

#[test]
fn pruned_and_exhaustive_agree_on_best_rewriting_score() {
    let db = scale_db(100, 5);
    let mut workload = WorkloadGenerator::new(&db, 5);
    let engine = engine(db.clone());
    for t in 0..WorkloadGenerator::template_count() {
        let q = workload.query_from_template(t);
        let cite = |mode| {
            let request = CiteRequest::query(q.clone()).with_mode(mode);
            engine.cite_request(&request).unwrap().citation
        };
        let (cp, ce) = (cite(RewriteMode::Pruned), cite(RewriteMode::Exhaustive));
        let best_of = |c: &fgcite::engine::QueryCitation| {
            c.rewritings
                .iter()
                .map(|(_, r)| fgcite::rewrite::score(r))
                .min()
        };
        assert_eq!(
            best_of(&cp),
            best_of(&ce),
            "template {t}: pruned missed the optimum for {q}"
        );
    }
}

#[test]
fn suggest_then_adopt_improves_rewritings() {
    // A log dominated by a join pattern the owner has no view for;
    // adopting the suggestion turns partial rewritings into total ones.
    let db = scale_db(60, 8);
    let mut log = QueryLog::new();
    let q = parse_query("Q(Pn, N) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)").unwrap();
    for _ in 0..5 {
        log.record(q.clone());
    }
    // suggest against an *empty* view set
    let suggestions = suggest_views(&log, &[], 3, 3);
    assert!(!suggestions.is_empty());
    let def = &suggestions[0].definition;
    fgcite::query::check_safety(def).unwrap();

    // adopt: wrap the suggested definition as a citation view
    let mut views = ViewRegistry::new();
    views
        .add(CitationView::new(
            def.clone(),
            def.clone(), // placeholder citation query: same shape
            CitationFunction::from_spec(vec![CitationFunction::collect("Keys", 0)]),
        ))
        .unwrap();
    let engine = CitationEngine::new(db, views).unwrap();
    let cited = engine.cite(&q).unwrap();
    assert!(
        cited.rewritings.iter().any(|(_, r)| r.is_total()),
        "adopted view should totally rewrite the logged query: {:?}",
        cited
            .rewritings
            .iter()
            .map(|(_, r)| r.to_string())
            .collect::<Vec<_>>()
    );
}

#[test]
fn sql_and_datalog_citations_agree_at_scale() {
    let engine = engine(scale_db(150, 13));
    let a = engine
        .cite(&parse_query(common::QUERIES[0]).unwrap())
        .unwrap();
    let b = engine
        .cite_sql(
            "SELECT f.FName, i.Text FROM Family f, FamilyIntro i \
             WHERE f.FID = i.FID AND f.Type = 'gpcr'",
        )
        .unwrap();
    assert_eq!(a.tuples.len(), b.tuples.len());
    assert!(a.aggregate.equivalent(&b.aggregate));
}

#[test]
fn baseline_covers_pages_but_not_ad_hoc() {
    let db = scale_db(100, 21);
    let store = PageCitationStore::materialize(&db, &paper_views()).unwrap();
    let mut workload = WorkloadGenerator::new(&db, 22);
    let mixed: Vec<WorkloadItem> = workload.mixed(30, 30);
    let coverage = baseline_coverage(&store, &mixed);
    // ad-hoc half is always uncovered; some pages miss too (V2 pages
    // for families without intros)
    assert!(coverage <= 0.5 + 1e-9, "got {coverage}");
    assert!(coverage > 0.0);
}

#[test]
fn engine_rejects_queries_over_unknown_relations() {
    let db = scale_db(20, 30);
    let engine = engine(db);
    let q = parse_query("Q(X) :- Nope(X)").unwrap();
    assert!(matches!(engine.cite(&q).unwrap_err(), CoreError::Query(_)));
}

#[test]
fn engine_rejects_unsafe_queries() {
    let db = scale_db(20, 30);
    let engine = engine(db);
    let q = parse_query("Q(X) :- Family(F, N, Ty)").unwrap();
    assert!(engine.cite(&q).is_err());
}

#[test]
fn global_citation_survives_every_policy() {
    let db = scale_db(50, 31);
    let nar = Json::from_pairs([("NARIssue", Json::str("Pawson et al. 2014"))]);
    for policy in [Policy::union_all(), Policy::join_all(), Policy::default()] {
        let engine = engine(db.clone()).with_policy(policy.with_global(nar.clone()));
        let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").unwrap();
        let cited = engine.cite(&q).unwrap();
        assert!(
            cited.aggregate.to_compact().contains("Pawson"),
            "global citation lost: {}",
            cited.aggregate
        );
    }
}

/// Def. 3.4: the aggregate is `Agg` over the global citations, then
/// over every output tuple's citation. The render stage folds each
/// distinct citation once, which is only the same value because both
/// `Agg` interpretations are idempotent; this pins that claim.
#[test]
fn aggregate_equals_agg_folded_over_every_tuple_citation() {
    let nar = Json::from_pairs([("NARIssue", Json::str("Pawson et al. 2014"))]);
    let generated = scale_db(60, 7);
    let mut workload = WorkloadGenerator::new(&generated, 5);
    let mut queries =
        vec![
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap(),
        ];
    queries.extend((0..3).map(|t| workload.query_from_template(t)));
    for db in [fgcite::gtopdb::paper_instance(), generated.clone()] {
        for policy in [Policy::union_all(), Policy::join_all(), Policy::default()] {
            let policy = policy.with_global(nar.clone());
            let engine = engine(db.clone()).with_policy(policy.clone());
            for q in &queries {
                let cited = engine.cite(q).unwrap();
                let mut folded = Json::Null;
                for g in &policy.global_citations {
                    folded = policy.agg.apply(&folded, g);
                }
                for tc in &cited.tuples {
                    folded = policy.agg.apply(&folded, &tc.citation);
                }
                assert_eq!(cited.aggregate, folded, "{q}");
            }
        }
    }
}

#[test]
fn dump_load_round_trip_preserves_citations() {
    let db = scale_db(40, 41);
    let text = fgcite::relation::loader::dump_text(&db);
    let mut restored = fgcite::gtopdb::create_schema();
    fgcite::relation::loader::load_text(&mut restored, &text).unwrap();

    let reference = Reference::new("gtopdb families=40 seed=41", db);
    let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").unwrap();
    let requests = common::cites(&[q]);
    common::assert_same(&reference, &[("reloaded", &engine(restored))], &requests);
}
