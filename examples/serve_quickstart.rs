//! Serving quickstart: start the HTTP citation service over the
//! paper's GtoPdb instance, talk to every route, and shut down
//! gracefully.
//!
//! ```sh
//! cargo run --example serve_quickstart
//! ```
//!
//! The same service runs standalone as `fgcite serve --data DB.fgd
//! --views VIEWS.fgv --addr 127.0.0.1:8787`.

use fgcite::prelude::*;
use fgcite::server::Client;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One shared engine (the `&self` serving API) behind the server.
    let db = fgcite::gtopdb::paper_instance();
    let views = fgcite::gtopdb::paper_views();
    let engine = Arc::new(CitationEngine::new(db, views)?);

    let server = CiteServer::start(
        engine,
        ServerConfig::default()
            .with_addr("127.0.0.1:0") // port 0: pick any free port
            .with_threads(4),
    )?;
    println!("serving on http://{}\n", server.addr());

    let mut client = Client::connect(server.addr())?;

    // liveness
    let health = client.get("/healthz")?;
    println!("GET /healthz        -> {} {}", health.status, health.body);

    // the registered citation views
    let views = client.get("/views")?;
    println!(
        "GET /views          -> {} ({} bytes)",
        views.status,
        views.body.len()
    );

    // a citation over the wire — Example 2.3's query
    let response = client.post(
        "/cite",
        r#"{"query": "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\""}"#,
    )?;
    println!("POST /cite          -> {}", response.status);
    let parsed = fgcite::server::parse_json(&response.body)?;
    if let Some(aggregate) = parsed.get("aggregate") {
        println!("aggregate citation:\n{}\n", aggregate.to_pretty());
    }

    // the same result set via SQL, with per-request overrides
    let sql = client.post(
        "/cite_sql",
        r#"{"sql": "SELECT f.FName, i.Text FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'",
            "policy": "join", "mode": "exhaustive"}"#,
    )?;
    println!("POST /cite_sql      -> {}", sql.status);

    // serving counters (per endpoint + engine cache)
    let stats = client.get("/stats")?;
    println!("GET /stats          -> {} {}", stats.status, stats.body);

    drop(client);
    server.shutdown(); // graceful: drains the queue, joins all workers
    println!("\nserver shut down cleanly");
    Ok(())
}
