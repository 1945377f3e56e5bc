//! The replica side: the `/fragment/*` [`Route`] rows an ordinary
//! [`fgc_server::CiteServer`] adds to its route table.
//!
//! A replica is a full citation server (it still answers `/cite`,
//! `/views`, `/stats`, `/healthz`) over the whole snapshot whose
//! engine knows which rows its shard *owns* (a
//! [`Partition`](fgc_relation::Partition)). Two rows expose it to a
//! coordinator: `GET /fragment/meta`
//! bootstraps the coordinator's control plane once, and one
//! `POST /fragment/cite` per citation returns this shard's answer
//! rows, its binding rows for every rewriting's extent query (the
//! expansion of it over the replica's own view definitions), and the
//! citation of every token those bindings mention (see
//! [`crate::proto`]). Engine-reported errors (unknown relation,
//! out-of-range shard, budget blown) answer 400 with the exact
//! message and the phase that raised it; the coordinator relays the
//! message verbatim, so distributed error bodies match single-process
//! ones byte for byte. `/fragment/cite` works against the request's
//! deadline: a call whose budget the coordinator already spent
//! answers 504 before any evaluation.

use crate::proto;
use fgc_core::CitationEngine;
use fgc_server::{parse_body, Call, Response, Route};
use fgc_views::Json;
use std::sync::Arc;

/// The `/fragment/*` route rows for a replica serving `engine` (which
/// must be sharded — an unsharded engine answers every
/// `/fragment/cite` with a 400, as does a request naming a shard the
/// engine does not have). Both record into the one `/fragment`
/// endpoint.
pub fn fragment_handler(engine: Arc<CitationEngine>) -> Vec<Route> {
    let row = |method, path, handler: fn(&CitationEngine, &Call<'_>) -> Response| {
        Route::new(method, path, |s| &s.fragment, &engine, handler)
    };
    vec![
        row("GET", "/fragment/meta", |e, _| {
            Response::json(200, serve_meta(e))
        }),
        row("POST", "/fragment/cite", |e, call| {
            serve_cite(e, &call.request.body)
        })
        .budgeted(),
    ]
}

/// `GET /fragment/meta`: everything a stateless coordinator needs to
/// reconstruct the control plane — shard count, shard-key spec,
/// relation schemas (keys *and* foreign keys, in catalog registration
/// order, so constraint-driven rewriting is identical), and the view
/// definition / citation-query texts.
fn serve_meta(engine: &CitationEngine) -> String {
    let relations: Vec<Json> = engine
        .database()
        .catalog()
        .iter()
        .map(|schema| proto::schema_to_json(schema))
        .collect();
    let views: Vec<Json> = engine
        .registry()
        .iter()
        .map(|v| {
            Json::from_pairs([
                ("view", Json::str(v.view.to_string())),
                ("citation_query", Json::str(v.citation_query.to_string())),
            ])
        })
        .collect();
    let (shards, key_spec) = match engine.partition() {
        Some(p) => (p.shard_count(), p.spec().to_string()),
        None => (0, String::new()),
    };
    Json::from_pairs([
        ("shards", Json::Int(shards as i64)),
        ("key_spec", Json::str(key_spec)),
        ("relations", Json::Array(relations)),
        ("views", Json::Array(views)),
    ])
    .to_compact()
}

/// `POST /fragment/cite`: this shard's share of one citation. A
/// failure is a 400 naming its phase; a body that does not decode
/// fails phase 0.
fn serve_cite(engine: &CitationEngine, body: &[u8]) -> Response {
    // fragment decode is the replica's share of the `parse` stage
    let decoded = engine.stage_stats().time("parse", || {
        parse_body(body).and_then(|j| proto::decode_cite_request(&j))
    });
    let request = match decoded {
        Ok(request) => request,
        Err(message) => return Response::json(400, proto::phase_error_body(0, &message)),
    };
    match engine.cite_fragment(request.answer.as_ref(), &request.extents, request.shard) {
        Ok(fragment) => {
            Response::json(200, proto::encode_cite_fragment(&request.extents, fragment))
        }
        Err((phase, e)) => Response::json(400, proto::phase_error_body(phase, &e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgc_server::{CiteServer, Client, ServerConfig};

    /// A `/fragment/cite` the engine cannot serve — a shard it does
    /// not have, or any shard of an unsharded engine — is the
    /// engine's phase-0 error as a 400, on a replica that keeps
    /// serving.
    #[test]
    fn a_foreign_shard_is_a_phase_0_error() {
        let paper = || {
            CitationEngine::new(fgc_gtopdb::paper_instance(), fgc_gtopdb::paper_views()).unwrap()
        };
        let sharded = paper()
            .with_shards(2, fgc_gtopdb::paper_shard_spec())
            .unwrap();
        let query = "Q(N) :- Family(F, N, Ty)";
        let extents = [query.to_string()];
        let refusals = [
            (sharded, 2, "shard 2 out of range (store has 2)"),
            (paper(), 0, "engine is not sharded"),
        ];
        for (engine, shard, message) in refusals {
            let parsed = fgc_query::parse_query(query).unwrap();
            let (phase, err) = engine
                .cite_fragment(Some(&parsed), std::slice::from_ref(&parsed), shard)
                .unwrap_err();
            assert_eq!(phase, 0);
            assert!(err.to_string().contains(message), "{err}");
            let expected = proto::phase_error_body(0, &err.to_string());

            let engine = Arc::new(engine);
            let config = ServerConfig::default()
                .with_addr("127.0.0.1:0")
                .with_threads(1)
                .with_role("replica")
                .with_shard(0, 2);
            let handler = fragment_handler(Arc::clone(&engine));
            let replica = CiteServer::start_with_handler(engine, config, handler).unwrap();
            let mut client = Client::connect(replica.addr()).unwrap();
            let body = proto::encode_cite_request(Some(query), &extents, shard);
            let response = client.post("/fragment/cite", &body).unwrap();
            assert_eq!((response.status, response.body), (400, expected));
            assert_eq!(client.get("/healthz").unwrap().status, 200);
            replica.shutdown();
        }
    }
}
