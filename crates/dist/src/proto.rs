//! The fragment wire protocol: JSON encodings shared by the replica
//! endpoints and the coordinator client.
//!
//! Two endpoints ride on the existing HTTP/1.1 JSON dialect of
//! [`fgc_server`]:
//!
//! | route                 | request                                   | response |
//! |-----------------------|-------------------------------------------|----------|
//! | `GET  /fragment/meta` | —                                         | shard count, key spec, relation schemas, view texts |
//! | `POST /fragment/cite` | `{"answer": query or null, "extents": [query, ...], "shard"}` | `{"answer": rows or null, "extents": [rows, ...], "tokens": [[token, citation], ...], "hits", "misses"}` |
//!
//! A `/fragment/cite` answer row is `[gid, seq, [values]]`; an extent
//! row is `[gid, seq, [tuple], [binding values]]`, the binding values
//! in [`query_vars`] order, which both sides compute from the extent
//! query. A replica that fails answers 400 with
//! `{"error": message, "phase": p}`, where phase 0 is the answer
//! query and `i + 1` extent query `i`.
//!
//! Queries travel as Datalog text (the [`std::fmt::Display`] form of
//! [`ConjunctiveQuery`], which the parser round-trips, string escapes
//! included). Values travel in the same scalar JSON mapping the
//! `/cite` response uses; `Float` round-trips through decimal text,
//! which is exact for the string/int-valued paper and GtoPdb
//! workloads and documented as the protocol's precision limit.

use fgc_core::{CiteFragment, CiteToken};
use fgc_query::{parse_query, Binding, ConjunctiveQuery, Term};
use fgc_relation::schema::RelationSchema;
use fgc_relation::{DataType, Tuple, Value};
use fgc_server::wire::value_to_json;
use fgc_views::Json;
use std::collections::BTreeSet;

/// A decode failure; the offending field is named in the message.
pub type ProtoError = String;

/// Inverse of [`value_to_json`] for the scalar values tuples carry.
pub fn json_to_value(j: &Json) -> Result<Value, ProtoError> {
    match j {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Float(x) => Ok(Value::Float(*x)),
        Json::Str(s) => Ok(Value::str(s.clone())),
        other => Err(format!("expected a scalar value, got {other}")),
    }
}

/// The distinct variable names of a query's atoms, sorted — the
/// binding column order of an extent query's rows, computable
/// identically on both sides of the wire.
pub fn query_vars(q: &ConjunctiveQuery) -> Vec<String> {
    let mut vars: BTreeSet<&str> = BTreeSet::new();
    for atom in &q.atoms {
        for term in &atom.terms {
            if let Term::Var(v) = term {
                vars.insert(v.as_str());
            }
        }
    }
    vars.into_iter().map(String::from).collect()
}

/// Encode one `(gid, seq, tuple)` answer-fragment row.
pub fn answer_row_to_json(gid: usize, seq: usize, tuple: &Tuple) -> Json {
    Json::Array(vec![
        Json::Int(gid as i64),
        Json::Int(seq as i64),
        Json::Array(tuple.iter().map(value_to_json).collect()),
    ])
}

/// Decode one answer-fragment row.
pub fn json_to_answer_row(j: &Json) -> Result<(usize, usize, Tuple), ProtoError> {
    let Json::Array(parts) = j else {
        return Err(format!("row must be an array, got {j}"));
    };
    let [gid, seq, values] = parts.as_slice() else {
        return Err(format!("row must have 3 elements, got {}", parts.len()));
    };
    Ok((
        json_to_index(gid, "gid")?,
        json_to_index(seq, "seq")?,
        json_to_tuple(values)?,
    ))
}

/// Encode one `(gid, seq, tuple, binding)` bindings-fragment row;
/// `vars` fixes the binding column order. Unbound variables encode as
/// `null` (the engine resolves missing and null bindings identically).
pub fn binding_row_to_json(
    gid: usize,
    seq: usize,
    tuple: &Tuple,
    binding: &Binding,
    vars: &[String],
) -> Json {
    Json::Array(vec![
        Json::Int(gid as i64),
        Json::Int(seq as i64),
        Json::Array(tuple.iter().map(value_to_json).collect()),
        Json::Array(
            vars.iter()
                .map(|v| binding.get(v).map_or(Json::Null, value_to_json))
                .collect(),
        ),
    ])
}

/// Decode one bindings-fragment row against the response's `vars`.
/// `null` slots are dropped from the rebuilt [`Binding`] (bound-null
/// and unbound resolve the same way downstream).
pub fn json_to_binding_row(
    j: &Json,
    vars: &[String],
) -> Result<(usize, usize, Tuple, Binding), ProtoError> {
    let Json::Array(parts) = j else {
        return Err(format!("row must be an array, got {j}"));
    };
    let [gid, seq, values, bound] = parts.as_slice() else {
        return Err(format!("row must have 4 elements, got {}", parts.len()));
    };
    let Json::Array(bound) = bound else {
        return Err(format!("binding values must be an array, got {bound}"));
    };
    if bound.len() != vars.len() {
        return Err(format!(
            "binding row has {} values for {} vars",
            bound.len(),
            vars.len()
        ));
    }
    let mut binding = Binding::new();
    for (var, value) in vars.iter().zip(bound) {
        if !value.is_null() {
            binding.insert(var.clone(), json_to_value(value)?);
        }
    }
    Ok((
        json_to_index(gid, "gid")?,
        json_to_index(seq, "seq")?,
        json_to_tuple(values)?,
        binding,
    ))
}

/// Encode a token.
pub fn token_to_json(token: &CiteToken) -> Json {
    match token {
        CiteToken::View { view, valuation } => Json::from_pairs([
            ("view", Json::str(view.clone())),
            (
                "valuation",
                Json::Array(valuation.iter().map(value_to_json).collect()),
            ),
        ]),
        CiteToken::Base { relation } => Json::from_pairs([("base", Json::str(relation.clone()))]),
    }
}

/// Decode a token.
pub fn json_to_token(j: &Json) -> Result<CiteToken, ProtoError> {
    if let Some(Json::Str(relation)) = j.get("base") {
        return Ok(CiteToken::base(relation.clone()));
    }
    let Some(Json::Str(view)) = j.get("view") else {
        return Err(format!("token must have `view` or `base`, got {j}"));
    };
    let Some(Json::Array(valuation)) = j.get("valuation") else {
        return Err(format!("view token `{view}` is missing `valuation`"));
    };
    let valuation = valuation
        .iter()
        .map(json_to_value)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CiteToken::view(view.clone(), valuation))
}

/// A decoded `/fragment/cite` request.
#[derive(Debug, Clone, PartialEq)]
pub struct CiteExchange {
    /// The answer query, when this shard is in its scatter set.
    pub answer: Option<ConjunctiveQuery>,
    /// The extent query of every rewriting, in rank order.
    pub extents: Vec<ConjunctiveQuery>,
    /// The shard whose fragment is asked for.
    pub shard: usize,
}

/// Encode a `/fragment/cite` request from query texts.
pub fn encode_cite_request(answer: Option<&str>, extents: &[String], shard: usize) -> String {
    Json::from_pairs([
        ("answer", answer.map_or(Json::Null, Json::str)),
        (
            "extents",
            Json::Array(extents.iter().map(Json::str).collect()),
        ),
        ("shard", Json::Int(shard as i64)),
    ])
    .to_compact()
}

/// Decode a `/fragment/cite` request.
pub fn decode_cite_request(j: &Json) -> Result<CiteExchange, ProtoError> {
    let parse = |text: &Json| match text {
        Json::Str(text) => parse_query(text).map_err(|e| format!("bad query: {e}")),
        other => Err(format!("a query must be a string, got {other}")),
    };
    let answer = match j.get("answer") {
        None | Some(Json::Null) => None,
        Some(text) => Some(parse(text)?),
    };
    let Some(Json::Array(extents)) = j.get("extents") else {
        return Err("missing `extents` array".into());
    };
    let extents = extents.iter().map(parse).collect::<Result<Vec<_>, _>>()?;
    let shard = match j.get("shard") {
        Some(shard) => json_to_index(shard, "shard")?,
        None => return Err("missing `shard`".into()),
    };
    Ok(CiteExchange {
        answer,
        extents,
        shard,
    })
}

/// Encode a replica's `/fragment/cite` reply; `extents` are the
/// request's extent queries, which fix each one's binding columns.
pub fn encode_cite_fragment(extents: &[ConjunctiveQuery], fragment: CiteFragment) -> String {
    let answer = fragment.answers.map_or(Json::Null, |rows| {
        Json::Array(
            rows.iter()
                .map(|(gid, seq, t)| answer_row_to_json(*gid, *seq, t))
                .collect(),
        )
    });
    let groups = extents
        .iter()
        .zip(&fragment.extents)
        .map(|(q, rows)| {
            let vars = query_vars(q);
            Json::Array(
                rows.iter()
                    .map(|(gid, seq, t, b)| binding_row_to_json(*gid, *seq, t, b, &vars))
                    .collect(),
            )
        })
        .collect();
    let tokens = fragment
        .tokens
        .into_iter()
        .map(|(token, citation)| Json::Array(vec![token_to_json(&token), citation]))
        .collect();
    Json::from_pairs([
        ("answer", answer),
        ("extents", Json::Array(groups)),
        ("tokens", Json::Array(tokens)),
        ("hits", Json::Int(fragment.hits as i64)),
        ("misses", Json::Int(fragment.misses as i64)),
    ])
    .to_compact()
}

/// Decode a `/fragment/cite` reply. `vars` holds the [`query_vars`] of
/// each extent query the request carried; `answer` says whether it
/// carried the answer query.
pub fn decode_cite_fragment(
    j: &Json,
    answer: bool,
    vars: &[Vec<String>],
) -> Result<CiteFragment, ProtoError> {
    let answers = if answer {
        let rows = array(j.get("answer"), "answer")?;
        Some(
            rows.iter()
                .map(json_to_answer_row)
                .collect::<Result<Vec<_>, _>>()?,
        )
    } else {
        None
    };
    let groups = array(j.get("extents"), "extents")?;
    if groups.len() != vars.len() {
        return Err(format!(
            "fragment reply has {} extents for {} extent queries",
            groups.len(),
            vars.len()
        ));
    }
    let extents = groups
        .iter()
        .zip(vars)
        .map(|(group, vars)| {
            array(Some(group), "extents")?
                .iter()
                .map(|row| json_to_binding_row(row, vars))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let tokens = array(j.get("tokens"), "tokens")?
        .iter()
        .map(|pair| match pair {
            Json::Array(pair) if pair.len() == 2 => Ok((json_to_token(&pair[0])?, pair[1].clone())),
            other => Err(format!(
                "a token entry must be [token, citation], got {other}"
            )),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let count = |field: &str| match j.get(field) {
        Some(Json::Int(n)) => Ok((*n).max(0) as u64),
        _ => Err(format!("fragment reply is missing `{field}`")),
    };
    Ok(CiteFragment {
        answers,
        extents,
        tokens,
        hits: count("hits")?,
        misses: count("misses")?,
    })
}

fn array<'a>(value: Option<&'a Json>, field: &str) -> Result<&'a [Json], ProtoError> {
    match value {
        Some(Json::Array(items)) => Ok(items),
        _ => Err(format!("fragment reply is missing the `{field}` array")),
    }
}

/// The 400 body of a failed `/fragment/cite`: the error message and
/// the phase that raised it.
pub fn phase_error_body(phase: usize, message: &str) -> String {
    Json::from_pairs([
        ("error", Json::str(message)),
        ("phase", Json::Int(phase as i64)),
    ])
    .to_compact()
}

/// Encode one relation schema for `/fragment/meta`. Keys **and**
/// foreign keys ship because the coordinator's rewriting search
/// chases both; a coordinator missing a constraint would find
/// different rewritings and drift from the single-process citation.
pub fn schema_to_json(schema: &RelationSchema) -> Json {
    let name_of = |i: &usize| Json::str(schema.attributes[*i].name.clone());
    Json::from_pairs([
        ("name", Json::str(schema.name.clone())),
        (
            "columns",
            Json::Array(
                schema
                    .attributes
                    .iter()
                    .map(|a| {
                        Json::from_pairs([
                            ("name", Json::str(a.name.clone())),
                            ("type", Json::str(a.ty.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "keys",
            Json::Array(schema.key.iter().map(name_of).collect()),
        ),
        (
            "foreign_keys",
            Json::Array(
                schema
                    .foreign_keys
                    .iter()
                    .map(|fk| {
                        Json::from_pairs([
                            (
                                "columns",
                                Json::Array(fk.columns.iter().map(name_of).collect()),
                            ),
                            ("references", Json::str(fk.references.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decode one relation schema.
pub fn json_to_schema(j: &Json) -> Result<RelationSchema, ProtoError> {
    let Some(Json::Str(name)) = j.get("name") else {
        return Err(format!("relation is missing `name`: {j}"));
    };
    let Some(Json::Array(columns)) = j.get("columns") else {
        return Err(format!("relation `{name}` is missing `columns`"));
    };
    let mut specs: Vec<(String, DataType)> = Vec::with_capacity(columns.len());
    for c in columns {
        let (Some(Json::Str(cname)), Some(Json::Str(ty))) = (c.get("name"), c.get("type")) else {
            return Err(format!("bad column in `{name}`: {c}"));
        };
        specs.push((cname.clone(), parse_type(ty)?));
    }
    let keys = string_array(j.get("keys"), "keys", name)?;
    let spec_refs: Vec<(&str, DataType)> = specs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
    let mut schema = RelationSchema::with_names(name.clone(), &spec_refs, &key_refs)
        .map_err(|e| e.to_string())?;
    if let Some(Json::Array(fks)) = j.get("foreign_keys") {
        for fk in fks {
            let cols = string_array(fk.get("columns"), "columns", name)?;
            let Some(Json::Str(references)) = fk.get("references") else {
                return Err(format!("foreign key in `{name}` is missing `references`"));
            };
            let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            schema
                .add_foreign_key(&col_refs, references)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(schema)
}

fn parse_type(text: &str) -> Result<DataType, ProtoError> {
    match text {
        "str" => Ok(DataType::Str),
        "int" => Ok(DataType::Int),
        "float" => Ok(DataType::Float),
        "bool" => Ok(DataType::Bool),
        "any" => Ok(DataType::Any),
        other => Err(format!("unknown column type `{other}`")),
    }
}

fn string_array(j: Option<&Json>, field: &str, owner: &str) -> Result<Vec<String>, ProtoError> {
    match j {
        None => Ok(Vec::new()),
        Some(Json::Array(items)) => items
            .iter()
            .map(|s| match s {
                Json::Str(s) => Ok(s.clone()),
                other => Err(format!(
                    "`{field}` of `{owner}` must hold strings, got {other}"
                )),
            })
            .collect(),
        Some(other) => Err(format!(
            "`{field}` of `{owner}` must be an array, got {other}"
        )),
    }
}

fn json_to_index(j: &Json, field: &str) -> Result<usize, ProtoError> {
    match j {
        Json::Int(n) if *n >= 0 => Ok(*n as usize),
        other => Err(format!(
            "`{field}` must be a non-negative integer, got {other}"
        )),
    }
}

fn json_to_tuple(j: &Json) -> Result<Tuple, ProtoError> {
    let Json::Array(values) = j else {
        return Err(format!("tuple must be an array, got {j}"));
    };
    let values = values
        .iter()
        .map(json_to_value)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Tuple::from(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgc_query::parse_query;
    use fgc_relation::tuple;

    #[test]
    fn values_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::Float(1.5),
            Value::str("a \"quoted\" string"),
        ] {
            assert_eq!(json_to_value(&value_to_json(&v)).unwrap(), v);
        }
        assert!(json_to_value(&Json::Array(vec![])).is_err());
    }

    #[test]
    fn query_text_round_trips_with_escapes() {
        let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"g\\\"pcr\\\\\"").unwrap();
        let reparsed = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, reparsed);
    }

    #[test]
    fn query_vars_sorted_and_distinct() {
        let q = parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)").unwrap();
        assert_eq!(query_vars(&q), vec!["F", "N", "Tx", "Ty"]);
    }

    #[test]
    fn rows_round_trip() {
        let t = tuple!["a", 3];
        let row = answer_row_to_json(5, 2, &t);
        assert_eq!(json_to_answer_row(&row).unwrap(), (5, 2, t.clone()));

        let vars = vec!["F".to_string(), "N".to_string()];
        let mut binding = Binding::new();
        binding.insert("N".into(), Value::str("x"));
        let row = binding_row_to_json(1, 0, &t, &binding, &vars);
        let (gid, seq, tuple, decoded) = json_to_binding_row(&row, &vars).unwrap();
        assert_eq!((gid, seq), (1, 0));
        assert_eq!(tuple, t);
        assert_eq!(decoded.get("N"), Some(&Value::str("x")));
        assert!(!decoded.contains_key("F"));
    }

    #[test]
    fn cite_exchanges_round_trip() {
        let answer = "Q(N) :- Family(F, N, Ty), F = \"11\"";
        let extent = parse_query("Q(N) :- V1(F, N, Ty), F = \"11\"").unwrap();
        let body = encode_cite_request(Some(answer), &[extent.to_string()], 1);
        let decoded = decode_cite_request(&fgc_server::parse_json(&body).unwrap()).unwrap();
        assert_eq!(decoded.answer, Some(parse_query(answer).unwrap()));
        assert_eq!(
            (decoded.extents.clone(), decoded.shard),
            (vec![extent.clone()], 1)
        );
        let body = encode_cite_request(None, &[], 0);
        let decoded = decode_cite_request(&fgc_server::parse_json(&body).unwrap()).unwrap();
        assert_eq!((decoded.answer, decoded.extents.len()), (None, 0));

        let mut binding = Binding::new();
        binding.insert("F".into(), Value::str("11"));
        binding.insert("N".into(), Value::str("Calcitonin"));
        let token = CiteToken::view("V1", vec![Value::str("11")]);
        let fragment = CiteFragment {
            answers: Some(vec![(3, 0, tuple!["Calcitonin"])]),
            extents: vec![vec![(3, 0, tuple!["Calcitonin"], binding)]],
            tokens: vec![(token.clone(), Json::str("cite me"))],
            hits: 2,
            misses: 1,
        };
        let vars = vec![query_vars(&extent)];
        let body = encode_cite_fragment(std::slice::from_ref(&extent), fragment);
        let decoded =
            decode_cite_fragment(&fgc_server::parse_json(&body).unwrap(), true, &vars).unwrap();
        assert_eq!(decoded.answers, Some(vec![(3, 0, tuple!["Calcitonin"])]));
        let (gid, seq, t, b) = &decoded.extents[0][0];
        assert_eq!((*gid, *seq, t), (3, 0, &tuple!["Calcitonin"]));
        assert_eq!(b.get("F"), Some(&Value::str("11")));
        assert_eq!(decoded.tokens, vec![(token, Json::str("cite me"))]);
        assert_eq!((decoded.hits, decoded.misses), (2, 1));
        // a reply short of an extent is refused, not misread
        let short = Json::from_pairs([
            ("answer", Json::Null),
            ("extents", Json::Array(vec![])),
            ("tokens", Json::Array(vec![])),
            ("hits", Json::Int(0)),
            ("misses", Json::Int(0)),
        ]);
        assert!(decode_cite_fragment(&short, false, &vars).is_err());
    }

    #[test]
    fn tokens_round_trip() {
        for token in [
            CiteToken::view("V4", vec![Value::str("gpcr")]),
            CiteToken::base("Family"),
        ] {
            assert_eq!(json_to_token(&token_to_json(&token)).unwrap(), token);
        }
    }

    #[test]
    fn schemas_round_trip_with_keys_and_foreign_keys() {
        let mut schema = RelationSchema::with_names(
            "FC",
            &[("FID", DataType::Str), ("PID", DataType::Str)],
            &["FID", "PID"],
        )
        .unwrap();
        schema.add_foreign_key(&["FID"], "Family").unwrap();
        let decoded = json_to_schema(&schema_to_json(&schema)).unwrap();
        assert_eq!(decoded, schema);
    }
}
