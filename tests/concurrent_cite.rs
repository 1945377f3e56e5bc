//! Concurrency tests for the shared-reference serving API: one
//! engine, many threads, byte-identical citations.

mod common;

use common::{render, Candidate, Reference, Request};
use fgcite::gtopdb::{paper_views, WorkloadGenerator};
use fgcite::prelude::*;
use std::sync::Arc;

fn engine_at(families: usize, seed: u64) -> CitationEngine {
    common::engine(common::gtopdb(families, seed))
}

#[test]
fn eight_threads_byte_identical_to_serial() {
    let engine = Arc::new(engine_at(200, 11));
    let mut workload = WorkloadGenerator::new(engine.database(), 5);
    let requests: Vec<Request> = (0..WorkloadGenerator::template_count())
        .map(|t| Request::cite(&workload.query_from_template(t)))
        .collect();

    // serial ground truth from the reference (caches off), so the
    // comparison also proves cache state never leaks into results
    let reference = Reference::new("gtopdb families=200 seed=11", common::gtopdb(200, 11));
    let serial: Vec<String> = requests.iter().map(|r| reference.answer(r)).collect();

    std::thread::scope(|scope| {
        for thread in 0..8 {
            let engine = Arc::clone(&engine);
            let (requests, serial) = (&requests, &serial);
            scope.spawn(move || {
                // each thread walks the workload at a different
                // offset so the cache interleaving differs per thread
                for step in 0..requests.len() {
                    let i = (thread + step) % requests.len();
                    assert_eq!(
                        engine.answer(&requests[i]),
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
    let queries = common::workload(engine.database(), 9, 24);
    let requests: Vec<CiteRequest> = queries.iter().cloned().map(CiteRequest::query).collect();
    let reference = Reference::new("gtopdb families=100 seed=23", common::gtopdb(100, 23));
    let expected: Vec<String> = common::cites(&queries)
        .iter()
        .map(|r| reference.answer(r))
        .collect();

    for threads in [1usize, 2, 4, 8] {
        let got: Vec<String> = engine
            .cite_batch_threads(&requests, threads)
            .into_iter()
            .map(|r| render(&r.unwrap().citation))
            .collect();
        assert_eq!(
            got, expected,
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
    let q = parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)").unwrap();
    let under = |policy: Policy| CiteRequest::query(q.clone()).with_policy(policy);
    let policies = [Policy::join_all(), Policy::union_all()];
    let reference = Reference::new("gtopdb families=60 seed=3", common::gtopdb(60, 3));
    let expected = policies
        .clone()
        .map(|p| reference.answer(&Request::Cite(under(p))));
    assert_ne!(
        expected[0], expected[1],
        "policies must differ on this workload"
    );

    let requests: Vec<CiteRequest> = (0..16).map(|i| under(policies[i % 2].clone())).collect();
    for (i, response) in engine.cite_batch_threads(&requests, 8).iter().enumerate() {
        assert_eq!(
            render(&response.as_ref().unwrap().citation),
            expected[i % 2],
            "request {i} was served under the wrong policy"
        );
    }
}

#[test]
fn eight_threads_racing_to_derive_one_version_agree() {
    // Build a short history, then race 8 threads from a cold start at
    // versions 2 and 3: the first resolve builds the one catalog
    // engine under the write lock, every racer is served through it,
    // and all of them share its caches. All results must be
    // byte-identical to a cold single-threaded engine.
    let mut history = VersionedDatabase::new();
    history.commit(common::gtopdb(120, 7), 0, "v0").unwrap();
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
    let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").unwrap();
    let at = |v: u64| Request::At(v, CiteRequest::query(q.clone()));
    let reference = Reference::versioned("gtopdb families=120 seed=7, 3 commits", history.clone());
    let expected: Vec<String> = (0..4).map(|v| reference.answer(&at(v))).collect();

    let engine = Arc::new(VersionedCitationEngine::new(history, paper_views()));
    let start = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        for thread in 0..8 {
            let (engine, expected, at, start) = (Arc::clone(&engine), &expected, &at, &start);
            scope.spawn(move || {
                start.wait();
                // half the threads start at v2, half at v3
                for version in [2 + (thread % 2) as u64, 3, 2, 0, 1] {
                    assert_eq!(
                        engine.answer(&at(version)),
                        expected[version as usize],
                        "thread {thread} diverged at version {version}"
                    );
                }
            });
        }
    });
    // 40 resolves, one catalog engine
    let stats = engine.version_stats();
    assert_eq!((stats.rebuilt, stats.hits), (1, 39), "{stats:?}");
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
    let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();

    let tuples =
        |v| common::cite_at(&engine, VersionSelector::Id(v), &q).map(|c| c.citation.tuples.len());
    let (old_tuples, new_tuples) = (tuples(0).unwrap(), tuples(1).unwrap());
    assert_eq!(new_tuples, old_tuples + 1);

    std::thread::scope(|scope| {
        for thread in 0..8 {
            let engine = Arc::clone(&engine);
            let q = q.clone();
            scope.spawn(move || {
                let version = (thread % 2) as u64;
                let expected = if version == 0 { old_tuples } else { new_tuples };
                for _ in 0..5 {
                    let cited = common::cite_at(&engine, VersionSelector::Id(version), &q).unwrap();
                    assert_eq!(cited.citation.tuples.len(), expected);
                    assert_eq!(cited.version, version);
                }
            });
        }
    });
}
