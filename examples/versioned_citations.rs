//! Fixity (§4): versioned data, time-stamped citations, and citation
//! evolution across releases.
//!
//! ```sh
//! cargo run --example versioned_citations
//! ```

use fgcite::gtopdb::{paper_instance, paper_views};
use fgcite::prelude::*;

fn main() {
    // Release history of the curated database: quarterly releases,
    // each adding curation work.
    let mut history = VersionedDatabase::new();
    history
        .commit(paper_instance(), 1_391_212_800, "GtoPdb 2014.1")
        .unwrap();
    history
        .commit_with(1_399_161_600, "GtoPdb 2014.2", |db| {
            // a new family is curated in
            db.insert("Family", tuple!["20", "Melatonin", "gpcr"])?;
            db.insert("FC", tuple!["20", "p8"])?;
            Ok(())
        })
        .unwrap();
    history
        .commit_with(1_406_851_200, "GtoPdb 2014.3", |db| {
            // the melatonin family gains an introduction page
            db.insert("FamilyIntro", tuple!["20", "The melatonin receptors"])?;
            db.insert("FIC", tuple!["20", "p9"])?;
            Ok(())
        })
        .unwrap();

    let engine = VersionedCitationEngine::new(history, paper_views());

    let q = parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
    let request = CiteRequest::query(q.clone());

    println!("== Citing against the head release ==");
    let head = engine.cite(VersionSelector::Head, &request).unwrap();
    println!(
        "{} tuples under {}:",
        head.citation.tuples.len(),
        head.label
    );
    println!("{}", head.stamped_aggregate().to_pretty());

    println!("\n== \"The data as seen at the time it was cited\" ==");
    // a reader following a citation minted in May 2014
    let old = engine
        .cite(VersionSelector::At(1_400_000_000), &request)
        .unwrap();
    println!(
        "citation resolves to {} ({} tuples), not the head release",
        old.label,
        old.citation.tuples.len()
    );
    assert!(old.citation.tuples.len() < head.citation.tuples.len());

    println!("\n== Per-request overrides at a version ==");
    let joined = request.with_policy(Policy::join_all());
    let joined = engine.cite(VersionSelector::Id(0), &joined).unwrap();
    println!("{} under the join policy:", joined.label);
    println!("{}", joined.stamped_aggregate().to_pretty());

    println!("\n== Citation evolution across releases ==");
    for (version, stamped) in engine.citation_timeline(&q).unwrap() {
        let label = stamped.get("Version").cloned().unwrap_or(Json::Null);
        let bytes = stamped.size_bytes();
        println!("  v{version} {label}: {bytes} bytes of citation");
    }
}
