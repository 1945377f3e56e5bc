//! Atomic values stored in relations.
//!
//! The paper's model is typed only loosely (identifiers, names, free
//! text, version numbers). We support the four scalar types needed by
//! the GtoPdb schema and general workloads: strings, 64-bit integers,
//! 64-bit floats, and booleans, plus SQL-style `NULL`.
//!
//! `Value` implements total `Eq`/`Ord`/`Hash` so it can key hash and
//! tree indexes; floats are compared by their IEEE total order with
//! `-0.0` normalized to `0.0` and all NaNs collapsed to one canonical
//! NaN.

use std::borrow::Cow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// UTF-8 string.
    Str,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// Boolean.
    Bool,
    /// Any type accepted (used by loosely-typed scratch relations).
    Any,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Str => "str",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Bool => "bool",
            DataType::Any => "any",
        };
        f.write_str(s)
    }
}

/// An atomic relational value.
///
/// Strings are reference-counted (`Arc<str>`) because the citation
/// pipeline copies values freely between tuples, bindings, citation
/// atoms, and JSON output; cloning must stay cheap.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL-style null. Compares equal to itself (so it can live in
    /// indexes); query semantics never produce joins on null because
    /// the evaluator skips null bindings for equality predicates.
    Null,
    /// Boolean value.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float, canonicalized (see module docs).
    Float(f64),
    /// UTF-8 string.
    Str(Arc<str>),
}

impl Value {
    /// A string value. Accepts anything convertible into an `Arc<str>`.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Heap bytes behind this value (string payload; scalars are 0).
    pub fn heap_bytes(&self) -> usize {
        match self {
            Value::Str(s) => s.len(),
            _ => 0,
        }
    }

    /// An integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// A float value (canonicalized).
    pub fn float(f: f64) -> Self {
        Value::Float(canonical_f64(f))
    }

    /// Runtime type of the value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Any,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
        }
    }

    /// Whether the value conforms to the declared column type.
    /// `Null` conforms to every type; every value conforms to `Any`.
    pub fn conforms_to(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (_, DataType::Any)
                | (Value::Bool(_), DataType::Bool)
                | (Value::Int(_), DataType::Int)
                | (Value::Float(_), DataType::Float)
                | (Value::Str(_), DataType::Str)
        )
    }

    /// Is this the null value?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// View a string value as `&str`, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Render the value the way the loader parses it (round-trips).
    pub fn render(&self) -> Cow<'static, str> {
        match self {
            Value::Null => Cow::Borrowed("NULL"),
            Value::Bool(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Float(x) => Cow::Owned(format!("{x:?}")),
            Value::Str(s) => Cow::Owned(format!("{s:?}")),
        }
    }

    /// Parse a value from loader syntax: `NULL`, `true`/`false`,
    /// integers, floats (must contain `.`, `e`, `inf` or `NaN`), and
    /// double-quoted strings with `\"`/`\\` escapes. Bare words are
    /// accepted as strings for convenience.
    pub fn parse(text: &str) -> Option<Value> {
        let t = text.trim();
        if t.is_empty() {
            return None;
        }
        if t == "NULL" {
            return Some(Value::Null);
        }
        if t == "true" {
            return Some(Value::Bool(true));
        }
        if t == "false" {
            return Some(Value::Bool(false));
        }
        if let Ok(i) = t.parse::<i64>() {
            return Some(Value::Int(i));
        }
        if t.contains(['.', 'e', 'E']) || t.contains("inf") || t.contains("NaN") {
            if let Ok(f) = t.parse::<f64>() {
                return Some(Value::float(f));
            }
        }
        if t.starts_with('"') {
            return parse_quoted(t).map(Value::Str);
        }
        Some(Value::str(t))
    }
}

fn parse_quoted(t: &str) -> Option<Arc<str>> {
    let inner = t.strip_prefix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    loop {
        match chars.next()? {
            '"' => {
                // must be the end of input
                return if chars.next().is_none() {
                    Some(Arc::from(out.as_str()))
                } else {
                    None
                };
            }
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                other => {
                    out.push('\\');
                    out.push(other);
                }
            },
            c => out.push(c),
        }
    }
}

/// Canonicalize a float for total ordering: `-0.0 -> 0.0`, every NaN
/// becomes the canonical positive quiet NaN.
fn canonical_f64(f: f64) -> f64 {
    if f.is_nan() {
        f64::NAN
    } else if f == 0.0 {
        0.0
    } else {
        f
    }
}

/// Rank used to order values of different types: Null < Bool < Int ~
/// Float < Str. Ints and floats compare numerically against each other.
fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 2,
        Value::Str(_) => 3,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Float(a), Float(b)) => canonical_f64(*a).total_cmp(&canonical_f64(*b)),
            (Int(a), Float(b)) => (*a as f64).total_cmp(&canonical_f64(*b)),
            (Float(a), Int(b)) => canonical_f64(*a).total_cmp(&(*b as f64)),
            _ => type_rank(self).cmp(&type_rank(other)),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and whole-valued floats must hash identically since
            // they compare equal (Int(2) == Float(2.0)).
            Value::Int(i) => {
                2u8.hash(state);
                canonical_f64(*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                canonical_f64(*f).to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn string_values_compare_lexicographically() {
        assert!(Value::str("abc") < Value::str("abd"));
        assert_eq!(Value::str("x"), Value::str("x"));
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn numeric_equality_implies_equal_hash() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
    }

    #[test]
    fn negative_zero_is_zero() {
        assert_eq!(Value::float(-0.0), Value::float(0.0));
        assert_eq!(hash_of(&Value::float(-0.0)), hash_of(&Value::float(0.0)));
    }

    #[test]
    fn nan_is_self_equal_after_canonicalization() {
        let a = Value::float(f64::NAN);
        let b = Value::float(-f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn cross_type_ordering_is_total() {
        let mut vals = [
            Value::str("a"),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
            Value::float(0.5),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[4], Value::str("a"));
    }

    #[test]
    fn parse_round_trips_render() {
        let samples = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::float(2.5),
            Value::str("hello \"world\"\\"),
            Value::str(""),
        ];
        for v in samples {
            let rendered = v.render();
            let back = Value::parse(&rendered).unwrap_or_else(|| panic!("parse {rendered}"));
            assert_eq!(back, v, "round trip failed for {rendered}");
        }
    }

    #[test]
    fn parse_bare_word_is_string() {
        assert_eq!(Value::parse("gpcr"), Some(Value::str("gpcr")));
    }

    #[test]
    fn parse_rejects_unterminated_string() {
        assert_eq!(Value::parse("\"abc"), None);
        assert_eq!(Value::parse("\"abc\"x"), None);
    }

    #[test]
    fn conformance_rules() {
        assert!(Value::Null.conforms_to(DataType::Int));
        assert!(Value::Int(1).conforms_to(DataType::Any));
        assert!(Value::Int(1).conforms_to(DataType::Int));
        assert!(!Value::Int(1).conforms_to(DataType::Str));
    }

    #[test]
    fn display_is_unquoted() {
        assert_eq!(Value::str("gpcr").to_string(), "gpcr");
        assert_eq!(Value::Int(11).to_string(), "11");
    }
}
