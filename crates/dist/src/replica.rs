//! The replica side: the `/fragment/*` [`Route`] rows an ordinary
//! [`fgc_server::CiteServer`] adds to its route table.
//!
//! A replica is a full citation server (it still answers `/cite`,
//! `/views`, `/stats`, `/healthz`) whose engine runs over a sharded
//! store; the rows expose the per-shard fragment evaluation a
//! coordinator scatters to. Engine-reported errors (unknown relation,
//! out-of-range shard, budget blown) answer 400 with the exact
//! message, which the coordinator relays verbatim so distributed
//! error bodies match single-process ones byte for byte.

use crate::proto;
use fgc_core::CitationEngine;
use fgc_server::{parse_body, Call, Response, Route};
use fgc_views::Json;
use std::sync::Arc;

/// The `/fragment/*` route rows for a replica serving `engine` (which
/// must be sharded — unsharded engines answer every fragment call
/// with a 400). All four record into the one `/fragment` endpoint.
pub fn fragment_handler(engine: Arc<CitationEngine>) -> Vec<Route> {
    let row = |method, path, handler: fn(&CitationEngine, &Call<'_>) -> Response| {
        Route::new(method, path, |s| &s.fragment, &engine, handler)
    };
    vec![
        row("GET", "/fragment/meta", |e, _| {
            Response::json(200, serve_meta(e))
        }),
        row("POST", "/fragment/answers", |e, call| {
            Response::ok_or_400(serve_rows(e, &call.request.body, false))
        }),
        row("POST", "/fragment/bindings", |e, call| {
            Response::ok_or_400(serve_rows(e, &call.request.body, true))
        }),
        row("POST", "/fragment/tokens", |e, call| {
            Response::ok_or_400(serve_tokens(e, &call.request.body))
        }),
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

/// `POST /fragment/answers` and `/fragment/bindings`: evaluate one
/// query's `(gid, seq, ...)` fragment for the requested shard. The
/// error (a decode failure, or the engine's message) is the 400 body.
fn serve_rows(engine: &CitationEngine, body: &[u8], bindings: bool) -> Result<String, String> {
    // fragment decode is the replica's share of the `parse` stage
    let (query, shard) = engine
        .stage_stats()
        .time("parse", || decode_query_shard(body))?;
    let body = if bindings {
        let vars = proto::query_vars(&query);
        let rows: Vec<Json> = engine
            .fragment_bindings(&query, shard)
            .map_err(|e| e.to_string())?
            .iter()
            .map(|(gid, seq, t, b)| proto::binding_row_to_json(*gid, *seq, t, b, &vars))
            .collect();
        Json::from_pairs([
            (
                "vars",
                Json::Array(vars.into_iter().map(Json::str).collect()),
            ),
            ("rows", Json::Array(rows)),
        ])
    } else {
        let rows: Vec<Json> = engine
            .fragment_answers(&query, shard)
            .map_err(|e| e.to_string())?
            .iter()
            .map(|(gid, seq, t)| proto::answer_row_to_json(*gid, *seq, t))
            .collect();
        Json::from_pairs([("rows", Json::Array(rows))])
    };
    Ok(body.to_compact())
}

/// `POST /fragment/tokens`: interpret a token batch through the
/// replica's shared citation cache.
fn serve_tokens(engine: &CitationEngine, body: &[u8]) -> Result<String, String> {
    let parsed = parse_body(body)?;
    let Some(Json::Array(items)) = parsed.get("tokens") else {
        return Err("missing `tokens` array".into());
    };
    let tokens = items
        .iter()
        .map(proto::json_to_token)
        .collect::<Result<Vec<_>, _>>()?;
    let (citations, hits, misses) = engine.token_citations(&tokens);
    let body = Json::from_pairs([
        ("citations", Json::Array(citations)),
        ("hits", Json::Int(hits as i64)),
        ("misses", Json::Int(misses as i64)),
    ]);
    Ok(body.to_compact())
}

fn decode_query_shard(body: &[u8]) -> Result<(fgc_query::ConjunctiveQuery, usize), String> {
    let parsed = parse_body(body)?;
    let Some(Json::Str(text)) = parsed.get("query") else {
        return Err("missing `query` string".into());
    };
    let query = fgc_query::parse_query(text).map_err(|e| format!("bad query: {e}"))?;
    let shard = match parsed.get("shard") {
        Some(Json::Int(n)) if *n >= 0 => *n as usize,
        _ => return Err("missing or invalid `shard`".into()),
    };
    Ok((query, shard))
}
