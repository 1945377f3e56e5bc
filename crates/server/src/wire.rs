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
//! `POST /cite_at` takes the same fields plus `"version"` or `"at"`.
//!
//! Every field except the query itself is optional; **unknown and
//! repeated fields are rejected** (a typo silently ignored, or a
//! second `"query"` read differently by another JSON reader, would
//! serve the wrong citation semantics). Decode failures carry a
//! message destined for a 400 body, never a panic.
//!
//! A reply body is written straight to text by
//! [`write_response_body`], the one writer behind every engine
//! server's `/cite` and `/cite_sql` (a coordinator relays a replica's
//! bytes). The engine
//! interprets each distinct normalized citation expression once and
//! shares the result by `Arc` among the tuples it cites; the writer
//! prints each shared citation once per body and copies those bytes
//! for every later tuple. [`encode_response`] builds the same body as
//! a [`Json`] tree — the by-definition form the writer must match
//! byte for byte.

use crate::json::parse_json;
use fgc_core::{
    CitationEngine, CiteRequest, CiteResponse, OrderChoice, Policy, RewriteMode, VersionSelector,
};
use fgc_query::parse_query;
use fgc_relation::Value;
use fgc_rewrite::RewriteOptions;
use fgc_views::Json;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

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

/// The policy a wire (or CLI) name selects.
pub fn policy_named(name: &str) -> Result<Policy, WireError> {
    match name {
        "union" => Ok(Policy::union_all()),
        "join" => Ok(Policy::join_all()),
        "default" => Ok(Policy::default()),
        other => Err(WireError(format!(
            "unknown policy `{other}` (expected union|join|default)"
        ))),
    }
}

/// The rewriting order a wire (or CLI) name selects.
pub fn order_named(name: &str) -> Result<OrderChoice, WireError> {
    match name {
        "none" => Ok(OrderChoice::None),
        "fewest-views" => Ok(OrderChoice::FewestViews),
        "fewest-uncovered" => Ok(OrderChoice::FewestUncovered),
        "view-inclusion" => Ok(OrderChoice::ViewInclusion),
        "composite" => Ok(OrderChoice::Composite),
        other => Err(WireError(format!("unknown order `{other}`"))),
    }
}

/// The 400 message for a request body that is not UTF-8 — the same on
/// a single server and a coordinator, which cannot forward such a body.
pub const NON_UTF8_BODY: &str = "body is not valid utf-8";

/// Parse a request body as UTF-8 JSON; the error is the 400 message.
pub fn parse_body(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| NON_UTF8_BODY.to_string())?;
    parse_json(text).map_err(|e| format!("invalid JSON: {e}"))
}

/// The body → [`CiteRequest`] decode every engine front door runs
/// (a single server or a replica), timed as the front door's
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

/// Decode a `POST /cite_at` body: an optional `"version"` id or `"at"`
/// timestamp (neither: the head), the rest decoded as a `/cite` body.
/// The error is the 400 message.
pub(crate) fn decode_cite_at_body(
    body: &[u8],
    default_policy: &Policy,
) -> Result<(VersionSelector, CiteRequest), String> {
    let Json::Object(mut fields) = parse_body(body)? else {
        return Err("request body must be a JSON object".into());
    };
    // checked before the selector is taken out, or a second copy of
    // `version` would silently win
    if let Some(key) = repeated_key(&fields) {
        return Err(format!("duplicate field `{key}`"));
    }
    let mut take = |name: &str| match fields.iter().position(|(key, _)| key == name) {
        None => Ok(None),
        Some(i) => match expect_usize(name, &fields.remove(i).1) {
            Ok(n) => Ok(Some(n as u64)),
            Err(e) => Err(e.0),
        },
    };
    let at = match (take("version")?, take("at")?) {
        (Some(_), Some(_)) => return Err("`version` and `at` are mutually exclusive".into()),
        (Some(id), None) => VersionSelector::Id(id),
        (None, Some(timestamp)) => VersionSelector::At(timestamp),
        (None, None) => VersionSelector::Head,
    };
    let request = decode_cite_request(&Json::Object(fields), QueryKind::Datalog, default_policy)
        .map_err(|e| e.0)?;
    Ok((at, request))
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

/// A served [`CiteResponse`] as the `POST /cite` reply body, built
/// as a [`Json`] tree: the by-definition form of the body that
/// [`write_response_body`] must match byte for byte (its
/// `to_compact`, plus a trailing `stages` object when asked for).
///
/// The `citation` fields are the engine's own [`Json`] values passed
/// through untouched, so the body is byte-identical to rendering the
/// direct `cite()` result — the property `tests/server_http.rs` pins
/// down.
pub fn encode_response(response: &CiteResponse) -> Json {
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
                ("citation", Json::clone(&t.citation)),
            ])
        })
        .collect();
    Json::from_pairs([
        ("tuples", Json::Array(tuples)),
        ("aggregate", citation.aggregate.clone()),
        ("rewritings", Json::Int(citation.rewritings.len() as i64)),
        ("exhaustive", Json::Bool(citation.exhaustive)),
        ("unsatisfiable", Json::Bool(citation.unsatisfiable)),
        ("elapsed_us", Json::Int(micros(response.elapsed))),
        ("cache_hits", Json::Int(response.cache_hits as i64)),
        ("cache_misses", Json::Int(response.cache_misses as i64)),
    ])
}

/// Write a served [`CiteResponse`] as the `POST /cite` reply body,
/// with an opt-in trailing `stages` object (per-stage pipeline
/// durations in microseconds) present **only** when the request asked
/// for it (`"stages": true`), so default bodies stay byte-identical
/// across serving topologies.
///
/// Each distinct citation `Arc` is printed once; a later tuple holding
/// the same `Arc` copies the bytes already written. The pointer is a
/// sound key because `response` keeps every `Arc` alive meanwhile.
pub fn write_response_body(response: &CiteResponse, include_stages: bool) -> String {
    let citation = &response.citation;
    let mut out = String::new();
    let mut printed: HashMap<*const Json, Range<usize>> = HashMap::new();
    out.push_str("{\"tuples\": [");
    for (i, t) in citation.tuples.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"row\": [");
        for (j, value) in t.tuple.values().iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            value_to_json(value).write_compact(&mut out);
        }
        out.push_str("], \"citation\": ");
        match printed.get(&Arc::as_ptr(&t.citation)) {
            Some(bytes) => out.extend_from_within(bytes.clone()),
            None => {
                let start = out.len();
                t.citation.write_compact(&mut out);
                printed.insert(Arc::as_ptr(&t.citation), start..out.len());
            }
        }
        out.push('}');
    }
    out.push_str("], \"aggregate\": ");
    citation.aggregate.write_compact(&mut out);
    let _ = write!(
        out,
        ", \"rewritings\": {}, \"exhaustive\": {}, \"unsatisfiable\": {}, \
         \"elapsed_us\": {}, \"cache_hits\": {}, \"cache_misses\": {}",
        citation.rewritings.len() as i64,
        citation.exhaustive,
        citation.unsatisfiable,
        micros(response.elapsed),
        response.cache_hits as i64,
        response.cache_misses as i64,
    );
    close_body(&mut out, include_stages.then_some(&response.stages[..]));
    out
}

/// Close a reply object: the opt-in trailing `stages` object
/// (per-stage durations in microseconds) when the request asked for
/// it, then the closing brace. `/cite` and `/cite_at` both end here.
pub(crate) fn close_body(out: &mut String, stages: Option<&[(&'static str, Duration)]>) {
    if let Some(stages) = stages {
        out.push_str(", \"stages\": {");
        for (i, (name, d)) in stages.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            Json::str(*name).write_compact(out);
            let _ = write!(out, ": {}", micros(*d));
        }
        out.push('}');
    }
    out.push('}');
}

fn micros(d: Duration) -> i64 {
    d.as_micros().min(i64::MAX as u128) as i64
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

    /// The by-definition body: the tree's compact print, with the
    /// `stages` object set on it when asked for.
    fn by_definition(response: &CiteResponse, include_stages: bool) -> String {
        let mut body = encode_response(response);
        if include_stages {
            let stages = response
                .stages
                .iter()
                .map(|(name, d)| (*name, Json::Int(micros(*d))));
            body.set("stages", Json::from_pairs(stages));
        }
        body.to_compact()
    }

    fn paper_engine() -> CitationEngine {
        let db = fgc_gtopdb::paper_instance();
        CitationEngine::new(db, fgc_gtopdb::paper_views()).unwrap()
    }

    #[test]
    fn the_writer_prints_the_tree_byte_for_byte() {
        let engine = paper_engine();
        for policy in [Policy::default(), Policy::union_all(), Policy::join_all()] {
            for text in fgc_gtopdb::PAPER_QUERIES {
                for include_stages in [false, true] {
                    let request = CiteRequest::query(parse_query(text).unwrap())
                        .with_policy(policy.clone())
                        .with_stages(include_stages);
                    let response = engine.cite_request(&request).unwrap();
                    assert_eq!(
                        write_response_body(&response, include_stages),
                        by_definition(&response, include_stages),
                        "{text} stages={include_stages}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_writer_survives_odd_values_and_an_empty_result() {
        use fgc_relation::Tuple;
        let engine = paper_engine();
        let query = parse_query(fgc_gtopdb::PAPER_QUERIES[0]).unwrap();
        let mut response = engine.cite_request(&CiteRequest::query(query)).unwrap();
        let expr = response.citation.tuples[0].expr.clone();
        let odd = Json::from_pairs([
            ("Title", Json::str("say \"hi\" \\ back\n\t\r\u{1}\u{1f}")),
            ("Name", Json::str("Caf\u{e9} \u{2713} \u{1d11e}")),
            ("Scores", Json::Array(vec![Json::Float(0.5), Json::Null])),
        ]);
        // two distinct `Arc`s holding equal JSON, the first used twice
        let shared = Arc::new(odd.clone());
        let twin = Arc::new(odd);
        let rows = [
            vec![Value::str("\"quoted\" \\ slash"), Value::Null],
            vec![Value::str("ctl \u{0}\u{7}\n"), Value::Float(-0.0)],
            vec![Value::str("\u{3b1}\u{3b2} \u{1f600}"), Value::Float(1e300)],
            vec![Value::Int(-7), Value::Bool(true)],
        ];
        let citations = [&shared, &twin, &shared, &twin];
        response.citation.tuples = rows
            .into_iter()
            .zip(citations)
            .map(|(row, citation)| fgc_core::TupleCitation {
                tuple: Tuple::new(row),
                expr: expr.clone(),
                citation: Arc::clone(citation),
            })
            .collect();
        for include_stages in [false, true] {
            assert_eq!(
                write_response_body(&response, include_stages),
                by_definition(&response, include_stages)
            );
        }

        response.citation.tuples.clear();
        let body = write_response_body(&response, false);
        assert!(
            body.starts_with(r#"{"tuples": [], "aggregate": "#),
            "{body}"
        );
        assert_eq!(body, by_definition(&response, false));
    }

    #[test]
    fn error_body_is_json() {
        assert_eq!(error_body("boom"), r#"{"error": "boom"}"#);
    }
}
