//! Citation bytes pinned across commits.
//!
//! The differential suites compare a candidate with a reference built
//! from the same engine code, so a byte change that both sides share
//! passes them all. This suite pins the bytes themselves: every case's
//! [`common::render`] is hashed with `fnv64`, one line per case
//! (fixture, config, query, digest), and the lines must equal
//! `results/citation-digests.txt`. A deliberate change fails with the
//! fresh file in the message; that text is the file's new content.

mod common;

use fgcite::fault::fnv64;
use fgcite::gtopdb::paper_instance;
use fgcite::prelude::*;
use std::fmt::Write as _;

/// Sets one engine configuration up.
type Configure = fn(CitationEngine) -> CitationEngine;

/// The engine configurations every query is cited under: the default
/// policy under each §3.4 order, the union policy citing exhaustively
/// (no order) and the join policy.
fn configs() -> [(&'static str, Configure); 6] {
    [
        ("default", |e| e),
        ("exhaustive+union", common::exhaustive_union),
        ("join", |e| e.with_policy(Policy::join_all())),
        ("fewest-views", |e| {
            e.with_policy(Policy::default().with_order(OrderChoice::FewestViews))
        }),
        ("fewest-uncovered", |e| {
            e.with_policy(Policy::default().with_order(OrderChoice::FewestUncovered))
        }),
        ("view-inclusion", |e| {
            e.with_policy(Policy::default().with_order(OrderChoice::ViewInclusion))
        }),
    ]
}

/// One line per (config, query) for one fixture.
fn digests(fixture: &str, seed: u64, db: Database) -> String {
    let mut queries = common::queries();
    queries.extend(common::history_queries());
    queries.extend(common::workload(&db, seed, 36));
    let mut lines = String::new();
    for (config, configure) in configs() {
        let engine = configure(common::engine(db.clone()));
        for q in &queries {
            let rendered = match engine.cite(q) {
                Ok(citation) => common::render(&citation),
                Err(e) => format!("error: {e}"),
            };
            let digest = fnv64(rendered.as_bytes());
            let _ = writeln!(lines, "{fixture} | {config} | {q} | {digest:016x}");
        }
    }
    lines
}

#[test]
fn citation_bytes_match_the_committed_digests() {
    let seed = common::default_seed();
    let fixtures = [
        ("paper".to_string(), seed, paper_instance()),
        (
            format!("gtopdb-100-{seed}"),
            seed,
            common::gtopdb(100, seed),
        ),
        ("gtopdb-100-2".to_string(), 2, common::gtopdb(100, 2)),
    ];
    // one thread per fixture; the lines are joined in fixture order
    let sections: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = fixtures
            .into_iter()
            .map(|(fixture, seed, db)| scope.spawn(move || digests(&fixture, seed, db)))
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let fresh = sections.concat();
    let path = format!(
        "{}/results/citation-digests.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let committed = std::fs::read_to_string(&path).unwrap_or_default();
    assert_eq!(
        committed, fresh,
        "{path} does not match; the fresh digests are:\n{fresh}"
    );
}
