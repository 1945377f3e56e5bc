//! Quickstart: cite a query over the paper's GtoPdb example instance.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use fgcite::prelude::*;

fn main() {
    // The running example of the paper: the simplified GtoPdb
    // database (Example 2.1) and its citation views V1–V5.
    let db = fgcite::gtopdb::paper_instance();
    let views = fgcite::gtopdb::paper_views();

    let engine = CitationEngine::new(db, views)
        .expect("views validate against the schema")
        .with_policy(Policy::default().with_global(Json::from_pairs([
            ("Database", Json::str("IUPHAR/BPS Guide to Pharmacology")),
            ("NARIssue", Json::str("Pawson et al., NAR 42(D1), 2014")),
        ])));

    // A general query the web site never anticipated (Example 2.3):
    // names and introduction texts of all gpcr families.
    let q = parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"")
        .expect("valid query");

    let cited = engine.cite(&q).expect("citation succeeds");

    println!("query      : {q}");
    println!(
        "rewriting  : {} (of {} considered)",
        cited.rewritings[0].1,
        cited.rewritings.len()
    );
    println!("result set : {} tuples", cited.tuples.len());
    for tc in &cited.tuples {
        println!("  {}", tc.tuple);
        println!("    symbolic  {}", tc.expr);
    }
    println!("\ncitation for the result set:");
    println!("{}", cited.aggregate.to_pretty());

    // The same query through the SQL front-end.
    let sql_cited = engine
        .cite_sql(
            "SELECT f.FName, i.Text FROM Family f, FamilyIntro i \
             WHERE f.FID = i.FID AND f.Type = 'gpcr'",
        )
        .expect("SQL citation succeeds");
    assert_eq!(sql_cited.tuples.len(), cited.tuples.len());
    println!(
        "\n(SQL front-end produced the same {} tuples)",
        sql_cited.tuples.len()
    );

    // Serving-style usage: a batch of requests with per-call policy
    // overrides, fanned out across threads over this one engine.
    let batch = [
        CiteRequest::query(q.clone()),
        CiteRequest::query(q.clone()).with_policy(Policy::join_all()),
        CiteRequest::sql("SELECT f.FName FROM Family f WHERE f.Type = 'gpcr'"),
    ];
    let responses: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = batch
            .iter()
            .map(|request| scope.spawn(|| engine.cite_request(request)))
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    println!("\nbatch of {} requests:", responses.len());
    for (i, r) in responses.iter().enumerate() {
        let r = r.as_ref().expect("request succeeds");
        println!(
            "  #{i}: {} tuples in {:?} (cache hit rate {:.2})",
            r.citation.tuples.len(),
            r.elapsed,
            r.cache_hit_rate()
        );
    }
}
