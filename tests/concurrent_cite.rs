//! Concurrency tests for the shared-reference serving API: one
//! engine, many threads, byte-identical citations.

use fgcite::gtopdb::{generate, paper_views, GeneratorConfig, WorkloadGenerator};
use fgcite::prelude::*;
use std::sync::Arc;

fn engine_at(families: usize, seed: u64) -> CitationEngine {
    let db = generate(
        &GeneratorConfig::default()
            .with_families(families)
            .with_seed(seed),
    );
    CitationEngine::new(db, paper_views()).unwrap()
}

/// Render every byte a citation carries: tuples, symbolic
/// expressions, interpreted citations, aggregate, rewriting labels.
fn render(citation: &QueryCitation) -> String {
    let mut out = String::new();
    for (label, rewriting) in &citation.rewritings {
        out.push_str(&format!("{label} := {rewriting}\n"));
    }
    for tc in &citation.tuples {
        out.push_str(&format!(
            "{} | {} | {}\n",
            tc.tuple,
            tc.expr,
            tc.citation.to_compact()
        ));
    }
    out.push_str(&citation.aggregate.to_compact());
    out
}

#[test]
fn eight_threads_byte_identical_to_serial() {
    let engine = Arc::new(engine_at(200, 11));
    let mut workload = WorkloadGenerator::new(engine.database(), 5);
    let queries: Vec<ConjunctiveQuery> = (0..WorkloadGenerator::template_count())
        .map(|t| workload.query_from_template(t))
        .collect();

    // serial ground truth on a *fresh* engine (cold caches), so the
    // comparison also proves cache state never leaks into results
    let serial_engine = engine_at(200, 11);
    let serial: Vec<String> = queries
        .iter()
        .map(|q| render(&serial_engine.cite(q).unwrap()))
        .collect();

    std::thread::scope(|scope| {
        for thread in 0..8 {
            let engine = Arc::clone(&engine);
            let queries = &queries;
            let serial = &serial;
            scope.spawn(move || {
                // each thread walks the workload at a different
                // offset so the cache interleaving differs per thread
                for step in 0..queries.len() {
                    let i = (thread + step) % queries.len();
                    let cited = engine.cite(&queries[i]).unwrap();
                    assert_eq!(
                        render(&cited),
                        serial[i],
                        "thread {thread} diverged on query {i}"
                    );
                }
            });
        }
    });
}

#[test]
fn batch_results_deterministic_across_thread_counts() {
    let engine = engine_at(100, 23);
    let mut workload = WorkloadGenerator::new(engine.database(), 9);
    let requests: Vec<CiteRequest> = workload
        .ad_hoc_batch(24)
        .into_iter()
        .map(CiteRequest::query)
        .collect();

    let reference: Vec<String> = engine
        .cite_batch_threads(&requests, 1)
        .into_iter()
        .map(|r| render(&r.unwrap().citation))
        .collect();

    for threads in [2usize, 4, 8] {
        let got: Vec<String> = engine
            .cite_batch_threads(&requests, threads)
            .into_iter()
            .map(|r| render(&r.unwrap().citation))
            .collect();
        assert_eq!(
            got, reference,
            "{threads}-thread batch reordered or changed results"
        );
    }
}

#[test]
fn per_request_overrides_isolated_under_concurrency() {
    // Interleave join-policy and union-policy requests in one batch:
    // each response must reflect its own request's policy, never a
    // neighbor's.
    let engine = engine_at(60, 3);
    let q = fgcite::query::parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)").unwrap();
    let requests: Vec<CiteRequest> = (0..16)
        .map(|i| {
            let policy = if i % 2 == 0 {
                Policy::join_all()
            } else {
                Policy::union_all()
            };
            CiteRequest::query(q.clone()).with_policy(policy)
        })
        .collect();

    let join_expected = render(
        &engine
            .cite_request(&CiteRequest::query(q.clone()).with_policy(Policy::join_all()))
            .unwrap()
            .citation,
    );
    let union_expected = render(
        &engine
            .cite_request(&CiteRequest::query(q).with_policy(Policy::union_all()))
            .unwrap()
            .citation,
    );
    assert_ne!(
        join_expected, union_expected,
        "policies must differ on this workload"
    );

    for (i, response) in engine.cite_batch_threads(&requests, 8).iter().enumerate() {
        let got = render(&response.as_ref().unwrap().citation);
        let expected = if i % 2 == 0 {
            &join_expected
        } else {
            &union_expected
        };
        assert_eq!(
            &got, expected,
            "request {i} was served under the wrong policy"
        );
    }
}

#[test]
fn eight_threads_racing_to_derive_one_version_agree() {
    // Build a short history, pre-warm version 1, then race 8 threads
    // at versions 2 and 3: every thread borrows from a warm engine,
    // first insert wins, and the debug assertion inside
    // `engine_for_version` checks the racers hold the same snapshot
    // relations. All results must be byte-identical to a cold
    // single-threaded engine.
    let mut history = VersionedDatabase::new();
    history
        .commit(
            generate(&GeneratorConfig::default().with_families(120).with_seed(7)),
            0,
            "v0",
        )
        .unwrap();
    for step in 0u64..3 {
        history
            .commit_with((step + 1) * 10, format!("v{}", step + 1), |db| {
                db.insert(
                    "Family",
                    tuple![format!("r{step}"), format!("Race-{step}"), "gpcr"],
                )
                .map(|_| ())?;
                let doomed = db.relation("FC")?.rows().first().cloned();
                if let Some(t) = doomed {
                    db.remove("FC", &t)?;
                }
                Ok(())
            })
            .unwrap();
    }
    let q = fgcite::query::parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").unwrap();

    let reference = VersionedCitationEngine::new(history.clone(), paper_views());
    let expected: Vec<String> = (0..4u64)
        .map(|v| {
            reference
                .cite_at_version(v, &q)
                .unwrap()
                .stamped_aggregate()
                .to_compact()
        })
        .collect();

    let engine = Arc::new(VersionedCitationEngine::new(history, paper_views()));
    engine.cite_at_version(1, &q).unwrap(); // warm the shared neighbor
    std::thread::scope(|scope| {
        for thread in 0..8 {
            let engine = Arc::clone(&engine);
            let q = q.clone();
            let expected = &expected;
            scope.spawn(move || {
                // half the threads start at v2, half at v3, so racers
                // borrow from different donors
                for &version in &[2 + (thread % 2) as u64, 3, 2, 0, 1] {
                    let cited = engine.cite_at_version(version, &q).unwrap();
                    assert_eq!(
                        cited.stamped_aggregate().to_compact(),
                        expected[version as usize],
                        "thread {thread} diverged at version {version}"
                    );
                }
            });
        }
    });
    let stats = engine.version_stats();
    assert_eq!(stats.warm_engines, 4, "{stats:?}");
    assert!(stats.derived + stats.rebuilt >= 4, "{stats:?}");
    assert!(stats.derived >= 1, "{stats:?}");
}

#[test]
fn versioned_engine_serves_concurrent_historical_citations() {
    let mut history = VersionedDatabase::new();
    history
        .commit(fgcite::gtopdb::paper_instance(), 100, "v23")
        .unwrap();
    history
        .commit_with(200, "v24", |db| {
            db.insert("Family", tuple!["20", "Melatonin", "gpcr"])
                .map(|_| ())
        })
        .unwrap();
    let engine = Arc::new(VersionedCitationEngine::new(history, paper_views()));
    let q = fgcite::query::parse_query("Q(N) :- Family(F, N, Ty)").unwrap();

    let old_tuples = engine.cite_at_version(0, &q).unwrap().citation.tuples.len();
    let new_tuples = engine.cite_at_version(1, &q).unwrap().citation.tuples.len();
    assert_eq!(new_tuples, old_tuples + 1);

    std::thread::scope(|scope| {
        for thread in 0..8 {
            let engine = Arc::clone(&engine);
            let q = q.clone();
            scope.spawn(move || {
                let version = (thread % 2) as u64;
                let expected = if version == 0 { old_tuples } else { new_tuples };
                for _ in 0..5 {
                    let cited = engine.cite_at_version(version, &q).unwrap();
                    assert_eq!(cited.citation.tuples.len(), expected);
                    assert_eq!(cited.version, version);
                }
            });
        }
    });
}
