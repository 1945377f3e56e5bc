//! The replica side: the `/fragment/*` [`Route`] rows an ordinary
//! [`fgc_server::CiteServer`] adds to its route table.
//!
//! A replica is a full citation server (it still answers `/cite`,
//! `/views`, `/stats`, `/healthz`) whose engine runs over a sharded
//! store. Two rows expose it to a coordinator: `GET /fragment/meta`
//! bootstraps the coordinator's control plane once, and one
//! `POST /fragment/cite` per citation returns this shard's answer
//! rows, its binding rows for every rewriting's extent query, and the
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
/// `/fragment/cite` with a 400). Both record into the one `/fragment`
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
    let (shards, key_spec) = match engine.shard_spec() {
        Some(spec) => (
            engine.shard_stats().map_or(0, |s| s.store.shards),
            spec.to_string(),
        ),
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
