//! JSON wire format ⇄ the engine's request/response types.
//!
//! A request body is one JSON object whose fields map onto
//! [`CiteRequest`] and its per-call overrides:
//!
//! ```json
//! {
//!   "query": "Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"",  // POST /cite
//!   "sql":   "SELECT f.FName FROM Family f",              // POST /cite_sql
//!   "policy": "union" | "join" | "default",
//!   "order": "none" | "fewest-views" | "fewest-uncovered"
//!          | "view-inclusion" | "composite",
//!   "mode": "exhaustive" | "pruned",
//!   "max_views": 6,
//!   "max_combinations": 200000,
//!   "stages": true
//! }
//! ```
//!
//! Every field except the query itself is optional; **unknown and
//! repeated fields are rejected** (a typo silently ignored, or a
//! second `"query"` read differently by another JSON reader, would
//! serve the wrong citation semantics). Decode failures carry a
//! message destined for a 400 body, never a panic.

use crate::json::parse_json;
use fgc_core::{CitationEngine, CiteRequest, CiteResponse, OrderChoice, Policy, RewriteMode};
use fgc_query::parse_query;
use fgc_relation::Value;
use fgc_rewrite::RewriteOptions;
use fgc_views::Json;

/// Which query field the endpoint expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `POST /cite`: a Datalog conjunctive query in `"query"`.
    Datalog,
    /// `POST /cite_sql`: an SPJ SQL string in `"sql"`.
    Sql,
}

/// A request-decoding failure; the message becomes the 400 body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for WireError {}

fn expect_str<'a>(field: &str, value: &'a Json) -> Result<&'a str, WireError> {
    match value {
        Json::Str(s) => Ok(s),
        other => Err(WireError(format!(
            "field `{field}` must be a string, got {other}"
        ))),
    }
}

fn expect_usize(field: &str, value: &Json) -> Result<usize, WireError> {
    match value {
        Json::Int(i) if *i >= 0 => Ok(*i as usize),
        other => Err(WireError(format!(
            "field `{field}` must be a non-negative integer, got {other}"
        ))),
    }
}

fn expect_bool(field: &str, value: &Json) -> Result<bool, WireError> {
    match value {
        Json::Bool(b) => Ok(*b),
        other => Err(WireError(format!(
            "field `{field}` must be a boolean, got {other}"
        ))),
    }
}

fn policy_named(name: &str) -> Result<Policy, WireError> {
    match name {
        "union" => Ok(Policy::union_all()),
        "join" => Ok(Policy::join_all()),
        "default" => Ok(Policy::default()),
        other => Err(WireError(format!(
            "unknown policy `{other}` (expected union|join|default)"
        ))),
    }
}

fn order_named(name: &str) -> Result<OrderChoice, WireError> {
    match name {
        "none" => Ok(OrderChoice::None),
        "fewest-views" => Ok(OrderChoice::FewestViews),
        "fewest-uncovered" => Ok(OrderChoice::FewestUncovered),
        "view-inclusion" => Ok(OrderChoice::ViewInclusion),
        "composite" => Ok(OrderChoice::Composite),
        other => Err(WireError(format!("unknown order `{other}`"))),
    }
}

/// Parse a request body as UTF-8 JSON; the error is the 400 message.
pub fn parse_body(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not valid utf-8".to_string())?;
    parse_json(text).map_err(|e| format!("invalid JSON: {e}"))
}

/// The body → [`CiteRequest`] decode every cite front door runs
/// (single server, replica, coordinator), timed as the front door's
/// share of the served engine's `parse` stage. The error is the 400
/// message.
pub fn decode_cite_body(
    engine: &CitationEngine,
    body: &[u8],
    kind: QueryKind,
) -> Result<CiteRequest, String> {
    engine.stage_stats().time("parse", || {
        decode_cite_request(&parse_body(body)?, kind, engine.policy()).map_err(|e| e.0)
    })
}

/// Decode a request body into a [`CiteRequest`], applying the wire
/// overrides. `kind` selects which query field is mandatory.
/// `default_policy` is the served engine's policy: an `order` sent
/// *without* a `policy` changes only the order of that policy rather
/// than silently resetting the rest of the citation semantics.
pub fn decode_cite_request(
    body: &Json,
    kind: QueryKind,
    default_policy: &Policy,
) -> Result<CiteRequest, WireError> {
    let Json::Object(fields) = body else {
        return Err(WireError("request body must be a JSON object".into()));
    };

    let mut request: Option<CiteRequest> = None;
    let mut policy: Option<Policy> = None;
    let mut order: Option<OrderChoice> = None;
    let mut rewrite: Option<RewriteOptions> = None;
    let mut mode: Option<RewriteMode> = None;
    let mut stages: Option<bool> = None;

    if let Some(key) = repeated_key(fields) {
        return Err(WireError(format!("duplicate field `{key}`")));
    }
    for (key, value) in fields {
        match key.as_str() {
            "query" => {
                if kind != QueryKind::Datalog {
                    return Err(WireError("`query` is only valid on /cite".into()));
                }
                let text = expect_str(key, value)?;
                let q = parse_query(text).map_err(|e| WireError(format!("bad query: {e}")))?;
                request = Some(CiteRequest::query(q));
            }
            "sql" => {
                if kind != QueryKind::Sql {
                    return Err(WireError("`sql` is only valid on /cite_sql".into()));
                }
                request = Some(CiteRequest::sql(expect_str(key, value)?));
            }
            "policy" => policy = Some(policy_named(expect_str(key, value)?)?),
            "order" => order = Some(order_named(expect_str(key, value)?)?),
            "mode" => {
                mode = Some(match expect_str(key, value)? {
                    "exhaustive" => RewriteMode::Exhaustive,
                    "pruned" => RewriteMode::Pruned,
                    other => {
                        return Err(WireError(format!(
                            "unknown mode `{other}` (expected exhaustive|pruned)"
                        )))
                    }
                })
            }
            "max_views" => {
                let opts = rewrite.get_or_insert_with(RewriteOptions::default);
                opts.max_views = expect_usize(key, value)?;
            }
            "max_combinations" => {
                let opts = rewrite.get_or_insert_with(RewriteOptions::default);
                opts.max_combinations = expect_usize(key, value)?;
            }
            "stages" => stages = Some(expect_bool(key, value)?),
            other => return Err(WireError(format!("unknown field `{other}`"))),
        }
    }

    let field = match kind {
        QueryKind::Datalog => "query",
        QueryKind::Sql => "sql",
    };
    let mut request = request.ok_or_else(|| WireError(format!("missing field `{field}`")))?;
    if let Some(mut p) = policy {
        if let Some(o) = order {
            p = p.with_order(o);
        }
        request = request.with_policy(p);
    } else if let Some(o) = order {
        request = request.with_policy(default_policy.clone().with_order(o));
    }
    if let Some(m) = mode {
        request = request.with_mode(m);
    }
    if let Some(r) = rewrite {
        request = request.with_rewrite(r);
    }
    if let Some(s) = stages {
        request = request.with_stages(s);
    }
    Ok(request)
}

/// The first key that appears twice in an object's fields. Readers
/// disagree on which copy wins (a decode loop keeps the last,
/// [`Json::get`] the first), so a body that repeats a key is refused.
pub fn repeated_key(fields: &[(String, Json)]) -> Option<&str> {
    let mut seen = std::collections::HashSet::with_capacity(fields.len());
    fields
        .iter()
        .map(|(key, _)| key.as_str())
        .find(|key| !seen.insert(*key))
}

/// Render a database value for the wire.
pub fn value_to_json(value: &Value) -> Json {
    match value {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Float(*f),
        Value::Str(s) => Json::str(s.as_ref()),
    }
}

/// Encode a served [`CiteResponse`] as the `POST /cite` reply body.
///
/// The `citation` fields are the engine's own [`Json`] values passed
/// through untouched, so a response rendered with `to_compact` is
/// byte-identical to rendering the direct `cite()` result — the
/// property `tests/server_http.rs` pins down.
pub fn encode_response(response: &CiteResponse) -> Json {
    encode_response_with(response, false)
}

/// [`encode_response`] with an opt-in `stages` object: per-stage
/// pipeline durations in microseconds, present **only** when the
/// request asked for them (`"stages": true`) so default response
/// bodies stay byte-identical across serving topologies.
pub fn encode_response_with(response: &CiteResponse, include_stages: bool) -> Json {
    let citation = &response.citation;
    let tuples: Vec<Json> = citation
        .tuples
        .iter()
        .map(|t| {
            Json::from_pairs([
                (
                    "row",
                    Json::Array(t.tuple.values().iter().map(value_to_json).collect()),
                ),
                ("citation", t.citation.clone()),
            ])
        })
        .collect();
    let mut body = Json::from_pairs([
        ("tuples", Json::Array(tuples)),
        ("aggregate", citation.aggregate.clone()),
        ("rewritings", Json::Int(citation.rewritings.len() as i64)),
        ("exhaustive", Json::Bool(citation.exhaustive)),
        ("unsatisfiable", Json::Bool(citation.unsatisfiable)),
        (
            "elapsed_us",
            Json::Int(response.elapsed.as_micros().min(i64::MAX as u128) as i64),
        ),
        ("cache_hits", Json::Int(response.cache_hits as i64)),
        ("cache_misses", Json::Int(response.cache_misses as i64)),
    ]);
    if include_stages {
        let stages: Vec<(&str, Json)> = response
            .stages
            .iter()
            .map(|(name, d)| (*name, Json::Int(d.as_micros().min(i64::MAX as u128) as i64)))
            .collect();
        body.set("stages", Json::from_pairs(stages));
    }
    body
}

/// The uniform error body: `{"error": "..."}`.
pub fn error_body(message: &str) -> String {
    Json::from_pairs([("error", Json::str(message))]).to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use fgc_core::QuerySpec;

    fn decode(text: &str, kind: QueryKind) -> Result<CiteRequest, WireError> {
        decode_cite_request(&parse_json(text).unwrap(), kind, &Policy::default())
    }

    #[test]
    fn decodes_full_override_set() {
        let r = decode(
            r#"{"query": "Q(N) :- Family(F, N, Ty)", "policy": "join",
               "order": "composite", "mode": "exhaustive",
               "max_views": 3, "max_combinations": 500}"#,
            QueryKind::Datalog,
        )
        .unwrap();
        assert!(matches!(r.query, QuerySpec::Datalog(_)));
        assert!(r.policy.is_some());
        assert_eq!(r.mode, Some(RewriteMode::Exhaustive));
        let opts = r.rewrite.unwrap();
        assert_eq!(opts.max_views, 3);
        assert_eq!(opts.max_combinations, 500);
    }

    #[test]
    fn sql_kind_takes_sql_field() {
        let r = decode(r#"{"sql": "SELECT f.FName FROM Family f"}"#, QueryKind::Sql).unwrap();
        assert!(matches!(r.query, QuerySpec::Sql(ref s) if s.contains("FName")));
        assert!(decode(r#"{"query": "Q(X) :- R(X)"}"#, QueryKind::Sql).is_err());
        assert!(decode(r#"{"sql": "SELECT 1"}"#, QueryKind::Datalog).is_err());
    }

    #[test]
    fn order_without_policy_rides_on_the_engine_policy() {
        use fgc_core::CombineOp;
        // the served engine runs join-all: an order-only override
        // must keep those combinators, changing only the order
        let r = decode_cite_request(
            &parse_json(r#"{"query": "Q(X) :- Family(X, N, T)", "order": "fewest-views"}"#)
                .unwrap(),
            QueryKind::Datalog,
            &Policy::join_all(),
        )
        .unwrap();
        let p = r.policy.expect("order override sets a policy");
        assert_eq!(p.times, CombineOp::Join);
        assert_eq!(p.order, OrderChoice::FewestViews);
    }

    #[test]
    fn rejects_unknown_and_mistyped_fields() {
        for bad in [
            r#"{"query": "Q(X) :- Family(X, N, T)", "polcy": "union"}"#,
            r#"{"query": 42}"#,
            r#"{"query": "Q(X) :- Family(X, N, T)", "policy": "maximal"}"#,
            r#"{"query": "Q(X) :- Family(X, N, T)", "mode": "fast"}"#,
            r#"{"query": "Q(X) :- Family(X, N, T)", "max_views": -1}"#,
            r#"{"query": "Q(X) :- Family(X, N, T)", "memoize": false}"#,
            r#"{"query": "Q(X) :- Family(X, N, T)", "mode": "pruned", "mode": "exhaustive"}"#,
            r#"{"query": "this is not datalog"}"#,
            r#"{}"#,
            r#"[1, 2]"#,
        ] {
            assert!(
                decode(bad, QueryKind::Datalog).is_err(),
                "should reject {bad}"
            );
        }
    }

    #[test]
    fn a_repeated_field_is_named_not_resolved() {
        // last-wins here and first-wins in `Json::get` would disagree
        let err = decode(
            r#"{"query": "Q(X) :- Family(X, N, T)", "query": "Q(N) :- Family(X, N, T)"}"#,
            QueryKind::Datalog,
        )
        .unwrap_err();
        assert_eq!(err.0, "duplicate field `query`");
    }

    #[test]
    fn error_body_is_json() {
        assert_eq!(error_body("boom"), r#"{"error": "boom"}"#);
    }
}
