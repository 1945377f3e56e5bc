//! An owned JSON value with the merge combinators the paper's §3.3
//! gives as "natural interpretations" of `·` and `+R` (Example 3.5).
//!
//! This is intentionally *not* a general-purpose JSON library: the
//! union/join combinators are part of the citation model itself
//! ("One natural interpretation of · is simply the union of the
//! records ... A different choice of · 'joins' the records, i.e.
//! factors out common elements"), so the representation is tuned for
//! them — objects keep insertion order (citations read like the
//! paper's examples), arrays used as *sets* deduplicate.

use std::fmt;
use std::fmt::Write as _;

/// An owned JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer number (citations use ids and counts).
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array. Combinators treat arrays as sets (dedup, order kept).
    Array(Vec<Json>),
    /// Object with insertion-ordered fields.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand string constructor.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// An empty object.
    pub fn object() -> Self {
        Json::Object(Vec::new())
    }

    /// Build an object from `(key, value)` pairs.
    pub fn from_pairs<I, K>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (K, Json)>,
        K: Into<String>,
    {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Field lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Insert or replace a field (objects only; no-op otherwise).
    pub fn set(&mut self, key: impl Into<String>, value: Json) {
        if let Json::Object(fields) = self {
            let key = key.into();
            match fields.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => *v = value,
                None => fields.push((key, value)),
            }
        }
    }

    /// Is this `null`?
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Structural equality up to object-field order and array order
    /// (citations assembled along different paths may enumerate
    /// fields differently).
    pub fn equivalent(&self, other: &Json) -> bool {
        self.canonical() == other.canonical()
    }

    /// Canonical form: object fields sorted by key, arrays sorted by
    /// rendered form and deduplicated.
    pub fn canonical(&self) -> Json {
        match self {
            Json::Array(items) => {
                let mut canon: Vec<Json> = items.iter().map(Json::canonical).collect();
                canon.sort_by_key(|a| a.to_compact());
                canon.dedup();
                Json::Array(canon)
            }
            Json::Object(fields) => {
                let mut canon: Vec<(String, Json)> = fields
                    .iter()
                    .map(|(k, v)| (k.clone(), v.canonical()))
                    .collect();
                canon.sort_by(|a, b| a.0.cmp(&b.0));
                Json::Object(canon)
            }
            other => other.clone(),
        }
    }

    /// Compact serialization (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with 2-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// Approximate size in bytes of the compact serialization —
    /// the "size of the resulting citation" that `claim_3_*` in
    /// `tests/reproduce.rs` compares across orders.
    pub fn size_bytes(&self) -> usize {
        self.to_compact().len()
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(x) => {
                let _ = write!(out, "{x:?}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline_indent(out, indent, depth + 1);
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..(width * depth) {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::str(s)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Self {
        Json::Int(i)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<fgc_relation::Value> for Json {
    fn from(v: fgc_relation::Value) -> Self {
        use fgc_relation::Value;
        match v {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(b),
            Value::Int(i) => Json::Int(i),
            Value::Float(x) => Json::Float(x),
            Value::Str(s) => Json::Str(s.to_string()),
        }
    }
}

// ---------------------------------------------------------------------
// The Example 3.5 combinators
// ---------------------------------------------------------------------

/// `·`/`+R` as **union of records**: collect the operands into a set
/// (array) of records. Flattens nested unions and deduplicates, so
/// the operation is associative, commutative, and idempotent.
pub fn union_records(a: &Json, b: &Json) -> Json {
    let mut items = Vec::new();
    collect_records(a, &mut items);
    collect_records(b, &mut items);
    dedup_preserving_order(&mut items);
    match items.len() {
        0 => Json::Null, // the empty citation is the neutral element
        1 => items.pop().expect("non-empty"),
        _ => Json::Array(items),
    }
}

fn collect_records(j: &Json, out: &mut Vec<Json>) {
    match j {
        // Null is the empty citation: it contributes nothing, whether
        // it appears as an operand or as an array element. Arrays are
        // record sets and flatten recursively, so `[]` ≡ Null and the
        // union is associative and closed on its own output.
        Json::Null => {}
        Json::Array(items) => {
            for item in items {
                collect_records(item, out);
            }
        }
        other => out.push(other.clone()),
    }
}

fn dedup_preserving_order(items: &mut Vec<Json>) {
    let mut seen: Vec<Json> = Vec::new();
    items.retain(|j| {
        let c = j.canonical();
        if seen.contains(&c) {
            false
        } else {
            seen.push(c);
            true
        }
    });
}

/// `·`/`+R` as **join**: "factors out common elements". Two objects
/// merge field-wise — shared keys merge recursively; equal scalars
/// collapse; arrays union; genuinely conflicting scalars widen into
/// an array (set) of both. Non-objects fall back to union semantics.
pub fn join_records(a: &Json, b: &Json) -> Json {
    match (a, b) {
        (Json::Null, x) | (x, Json::Null) => x.clone(),
        (Json::Object(fa), Json::Object(fb)) => {
            let mut fields: Vec<(String, Json)> = fa.clone();
            for (k, vb) in fb {
                match fields.iter_mut().find(|(fk, _)| fk == k) {
                    Some((_, va)) => {
                        *va = join_field(va, vb);
                    }
                    None => fields.push((k.clone(), vb.clone())),
                }
            }
            Json::Object(fields)
        }
        (Json::Array(_), _) | (_, Json::Array(_)) => union_records(a, b),
        (x, y) if x == y => x.clone(),
        _ => union_records(a, b),
    }
}

/// Merge two values sitting under the same object key.
fn join_field(a: &Json, b: &Json) -> Json {
    match (a, b) {
        (x, y) if x == y => x.clone(),
        (Json::Null, x) | (x, Json::Null) => x.clone(),
        (Json::Array(_), _) | (_, Json::Array(_)) => union_records(a, b),
        (Json::Object(_), Json::Object(_)) => join_records(a, b),
        _ => union_records(a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calcitonin_committee() -> Json {
        Json::from_pairs([
            ("ID", Json::str("11")),
            ("Name", Json::str("Calcitonin")),
            (
                "Committee",
                Json::Array(vec![Json::str("Hay"), Json::str("Poyner")]),
            ),
        ])
    }

    fn calcitonin_contributors() -> Json {
        Json::from_pairs([
            ("ID", Json::str("11")),
            ("Name", Json::str("Calcitonin")),
            ("Text", Json::str("The calcitonin peptide family")),
            (
                "Contributors",
                Json::Array(vec![Json::str("Brown"), Json::str("Smith")]),
            ),
        ])
    }

    #[test]
    fn compact_serialization_matches_paper_style() {
        let c = calcitonin_committee();
        assert_eq!(
            c.to_compact(),
            r#"{"ID": "11", "Name": "Calcitonin", "Committee": ["Hay", "Poyner"]}"#
        );
    }

    #[test]
    fn pretty_serialization_indents() {
        let c = Json::from_pairs([("a", Json::Int(1))]);
        assert_eq!(c.to_pretty(), "{\n  \"a\": 1\n}");
    }

    #[test]
    fn string_escaping() {
        let s = Json::str("a\"b\\c\nd");
        assert_eq!(s.to_compact(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn example_3_5_union_interpretation() {
        // union of the two Calcitonin records: a set of both records
        let u = union_records(&calcitonin_committee(), &calcitonin_contributors());
        match &u {
            Json::Array(items) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[0], calcitonin_committee());
                assert_eq!(items[1], calcitonin_contributors());
            }
            other => panic!("expected array, got {other}"),
        }
    }

    #[test]
    fn example_3_5_join_interpretation() {
        // join factors out ID and Name
        let j = join_records(&calcitonin_committee(), &calcitonin_contributors());
        let expected = Json::from_pairs([
            ("ID", Json::str("11")),
            ("Name", Json::str("Calcitonin")),
            (
                "Committee",
                Json::Array(vec![Json::str("Hay"), Json::str("Poyner")]),
            ),
            ("Text", Json::str("The calcitonin peptide family")),
            (
                "Contributors",
                Json::Array(vec![Json::str("Brown"), Json::str("Smith")]),
            ),
        ]);
        assert_eq!(j, expected);
    }

    #[test]
    fn example_3_5_plus_r_join_merges_committees() {
        // {ID, Name, Committee: [Hay, Poyner]} +R {ID, Committee: [Brown], Contributors: [Smith]}
        let a = calcitonin_committee();
        let b = Json::from_pairs([
            ("ID", Json::str("11")),
            ("Committee", Json::Array(vec![Json::str("Brown")])),
            ("Contributors", Json::Array(vec![Json::str("Smith")])),
        ]);
        let merged = join_records(&a, &b);
        assert_eq!(
            merged.get("Committee"),
            Some(&Json::Array(vec![
                Json::str("Hay"),
                Json::str("Poyner"),
                Json::str("Brown")
            ]))
        );
        assert_eq!(
            merged.get("Contributors"),
            Some(&Json::Array(vec![Json::str("Smith")]))
        );
        assert_eq!(merged.get("Name"), Some(&Json::str("Calcitonin")));
    }

    #[test]
    fn union_is_idempotent_and_flattens() {
        let a = calcitonin_committee();
        let u1 = union_records(&a, &a);
        assert_eq!(u1, a); // single record stays a record
        let u2 = union_records(&union_records(&a, &calcitonin_contributors()), &a);
        match u2 {
            Json::Array(items) => assert_eq!(items.len(), 2),
            other => panic!("expected array, got {other}"),
        }
    }

    #[test]
    fn union_with_null_is_identity() {
        let a = calcitonin_committee();
        assert_eq!(union_records(&a, &Json::Null), a);
        assert_eq!(union_records(&Json::Null, &a), a);
        assert_eq!(join_records(&Json::Null, &a), a);
    }

    #[test]
    fn join_conflicting_scalars_widen_to_set() {
        let a = Json::from_pairs([("Owner", Json::str("Harmar"))]);
        let b = Json::from_pairs([("Owner", Json::str("Davenport"))]);
        let j = join_records(&a, &b);
        assert_eq!(
            j.get("Owner"),
            Some(&Json::Array(vec![
                Json::str("Harmar"),
                Json::str("Davenport")
            ]))
        );
    }

    #[test]
    fn equivalence_ignores_field_and_array_order() {
        let a = Json::from_pairs([
            ("x", Json::Int(1)),
            ("y", Json::Array(vec![Json::Int(1), Json::Int(2)])),
        ]);
        let b = Json::from_pairs([
            ("y", Json::Array(vec![Json::Int(2), Json::Int(1)])),
            ("x", Json::Int(1)),
        ]);
        assert!(a.equivalent(&b));
        assert_ne!(a, b); // plain equality is order-sensitive
    }

    #[test]
    fn get_and_set() {
        let mut o = Json::object();
        o.set("a", Json::Int(1));
        o.set("a", Json::Int(2));
        assert_eq!(o.get("a"), Some(&Json::Int(2)));
        assert_eq!(o.get("b"), None);
        assert_eq!(Json::Int(3).get("a"), None);
    }

    #[test]
    fn size_bytes_reflects_compactness() {
        let single = calcitonin_committee();
        let unioned = union_records(&single, &calcitonin_contributors());
        assert!(unioned.size_bytes() > single.size_bytes());
    }

    #[test]
    fn from_value_conversions() {
        use fgc_relation::Value;
        assert_eq!(Json::from(Value::str("x")), Json::str("x"));
        assert_eq!(Json::from(Value::Int(3)), Json::Int(3));
        assert_eq!(Json::from(Value::Null), Json::Null);
    }
}
