//! Citation functions `F_V` — "the citation function which transforms
//! the output of the citation query into a citation in some desired
//! format, such as JSON or XML" (Definition 2.1).
//!
//! The paper leaves `F_V` a black box and calls for "designing a
//! language for the specification of the black boxes, allowing for
//! their analysis" (§4). [`CitationFunction`] is that small language:
//! a declarative mapping from citation-query output columns to a JSON
//! structure, with scalar fields, collected arrays, and nested
//! grouping (needed for V4/V5-style citations, which group committee
//! members per family). An escape hatch admits arbitrary closures.

use crate::json::Json;
use fgc_relation::Tuple;
use std::fmt;
use std::sync::Arc;

/// One field of the output citation object.
#[derive(Debug, Clone)]
pub enum FieldSpec {
    /// A scalar field taken from a column of the *first* row
    /// (well-defined when the column is functionally determined by
    /// the citation query's parameters, as in all paper examples).
    Scalar {
        /// JSON field label.
        label: String,
        /// Column index into the citation-query output.
        column: usize,
    },
    /// An array collecting the distinct values of a column across
    /// all rows, in first-appearance order (e.g. `Committee:
    /// ["Hay", "Poyner"]`).
    Collect {
        /// JSON field label.
        label: String,
        /// Column index into the citation-query output.
        column: usize,
    },
    /// A constant field (e.g. a fixed database name).
    Constant {
        /// JSON field label.
        label: String,
        /// The value.
        value: Json,
    },
    /// An array of sub-objects, one per distinct value combination of
    /// the key columns, each built from `fields` evaluated on the
    /// rows of that group (e.g. V4's `Contributors: [{Name, Committee:
    /// [...]}, ...]`).
    Group {
        /// JSON field label for the array.
        label: String,
        /// Key columns defining the groups.
        key: Vec<usize>,
        /// Fields of each group object.
        fields: Vec<FieldSpec>,
    },
}

impl FieldSpec {
    /// Largest column index referenced (for arity validation).
    fn max_column(&self) -> Option<usize> {
        match self {
            FieldSpec::Scalar { column, .. } | FieldSpec::Collect { column, .. } => Some(*column),
            FieldSpec::Constant { .. } => None,
            FieldSpec::Group { key, fields, .. } => key
                .iter()
                .copied()
                .chain(fields.iter().filter_map(FieldSpec::max_column))
                .max(),
        }
    }

    fn apply(&self, rows: &[&Tuple]) -> (String, Json) {
        match self {
            FieldSpec::Scalar { label, column } => {
                let v = rows
                    .first()
                    .map(|r| Json::from(r[*column].clone()))
                    .unwrap_or(Json::Null);
                (label.clone(), v)
            }
            FieldSpec::Collect { label, column } => {
                let mut items: Vec<Json> = Vec::new();
                for r in rows {
                    let v = Json::from(r[*column].clone());
                    if !items.contains(&v) {
                        items.push(v);
                    }
                }
                (label.clone(), Json::Array(items))
            }
            FieldSpec::Constant { label, value } => (label.clone(), value.clone()),
            FieldSpec::Group { label, key, fields } => {
                // group rows by key projection, preserving order
                let mut groups: Vec<(Vec<fgc_relation::Value>, Vec<&Tuple>)> = Vec::new();
                for r in rows {
                    let k: Vec<fgc_relation::Value> = key.iter().map(|&c| r[c].clone()).collect();
                    match groups.iter_mut().find(|(gk, _)| gk == &k) {
                        Some((_, members)) => members.push(r),
                        None => groups.push((k, vec![r])),
                    }
                }
                let items = groups
                    .into_iter()
                    .map(|(_, members)| {
                        Json::Object(fields.iter().map(|f| f.apply(&members)).collect())
                    })
                    .collect();
                (label.clone(), Json::Array(items))
            }
        }
    }
}

/// Boxed custom transformation.
type CustomFn = Arc<dyn Fn(&[Tuple]) -> Json + Send + Sync>;

/// The body of a citation function.
#[derive(Clone)]
enum Body {
    /// Declarative field mapping.
    Spec(Vec<FieldSpec>),
    /// Arbitrary transformation.
    Custom(CustomFn),
}

/// A citation function `F_V`.
#[derive(Clone)]
pub struct CitationFunction {
    body: Body,
}

impl CitationFunction {
    /// A declarative citation function from field specs.
    pub fn from_spec(fields: Vec<FieldSpec>) -> Self {
        CitationFunction {
            body: Body::Spec(fields),
        }
    }

    /// An arbitrary (closure-backed) citation function.
    pub fn custom<F>(f: F) -> Self
    where
        F: Fn(&[Tuple]) -> Json + Send + Sync + 'static,
    {
        CitationFunction {
            body: Body::Custom(Arc::new(f)),
        }
    }

    /// Apply the function to citation-query output rows.
    ///
    /// An empty row set yields `Json::Null` — "no citation
    /// information for this valuation"; policy-level neutral
    /// citations (Def. 3.4) are added by the engine.
    pub fn apply(&self, rows: &[Tuple]) -> Json {
        match &self.body {
            Body::Spec(fields) => {
                if rows.is_empty() {
                    return Json::Null;
                }
                let refs: Vec<&Tuple> = rows.iter().collect();
                Json::Object(fields.iter().map(|f| f.apply(&refs)).collect())
            }
            Body::Custom(f) => f(rows),
        }
    }

    /// Largest column index referenced by a declarative spec
    /// (`None` for custom functions, which cannot be validated).
    pub fn max_column(&self) -> Option<usize> {
        match &self.body {
            Body::Spec(fields) => fields.iter().filter_map(FieldSpec::max_column).max(),
            Body::Custom(_) => None,
        }
    }
}

impl fmt::Debug for CitationFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.body {
            Body::Spec(fields) => f.debug_tuple("CitationFunction").field(fields).finish(),
            Body::Custom(_) => f.write_str("CitationFunction(<custom>)"),
        }
    }
}

/// Builder shorthands used all over the GtoPdb setup.
impl CitationFunction {
    /// `Scalar` field shorthand.
    pub fn scalar(label: impl Into<String>, column: usize) -> FieldSpec {
        FieldSpec::Scalar {
            label: label.into(),
            column,
        }
    }

    /// `Collect` field shorthand.
    pub fn collect(label: impl Into<String>, column: usize) -> FieldSpec {
        FieldSpec::Collect {
            label: label.into(),
            column,
        }
    }

    /// `Constant` field shorthand.
    pub fn constant(label: impl Into<String>, value: Json) -> FieldSpec {
        FieldSpec::Constant {
            label: label.into(),
            value,
        }
    }

    /// `Group` field shorthand.
    pub fn group(label: impl Into<String>, key: Vec<usize>, fields: Vec<FieldSpec>) -> FieldSpec {
        FieldSpec::Group {
            label: label.into(),
            key,
            fields,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgc_relation::tuple;

    #[test]
    fn fv1_formats_family_citation() {
        // CV1 output: (F, N, Pn) rows, one per committee member
        let rows = vec![
            tuple!["11", "Calcitonin", "Hay"],
            tuple!["11", "Calcitonin", "Poyner"],
        ];
        let fv1 = CitationFunction::from_spec(vec![
            CitationFunction::scalar("ID", 0),
            CitationFunction::scalar("Name", 1),
            CitationFunction::collect("Committee", 2),
        ]);
        let citation = fv1.apply(&rows);
        assert_eq!(
            citation.to_compact(),
            r#"{"ID": "11", "Name": "Calcitonin", "Committee": ["Hay", "Poyner"]}"#
        );
    }

    #[test]
    fn fv4_groups_families_by_name() {
        // CV4 output: (Ty, N, Pn)
        let rows = vec![
            tuple!["gpcr", "Calcitonin", "Hay"],
            tuple!["gpcr", "Calcitonin", "Poyner"],
            tuple!["gpcr", "Calcium-sensing", "Bilke"],
            tuple!["gpcr", "Calcium-sensing", "Conigrave"],
            tuple!["gpcr", "Calcium-sensing", "Shoback"],
        ];
        let fv4 = CitationFunction::from_spec(vec![
            CitationFunction::scalar("Type", 0),
            CitationFunction::group(
                "Contributors",
                vec![1],
                vec![
                    CitationFunction::scalar("Name", 1),
                    CitationFunction::collect("Committee", 2),
                ],
            ),
        ]);
        let citation = fv4.apply(&rows);
        assert_eq!(
            citation.to_compact(),
            r#"{"Type": "gpcr", "Contributors": [{"Name": "Calcitonin", "Committee": ["Hay", "Poyner"]}, {"Name": "Calcium-sensing", "Committee": ["Bilke", "Conigrave", "Shoback"]}]}"#
        );
    }

    #[test]
    fn collect_deduplicates() {
        let rows = vec![tuple!["a", "X"], tuple!["a", "X"], tuple!["a", "Y"]];
        let f = CitationFunction::from_spec(vec![CitationFunction::collect("Vals", 1)]);
        assert_eq!(
            f.apply(&rows).get("Vals"),
            Some(&Json::Array(vec![Json::str("X"), Json::str("Y")]))
        );
    }

    #[test]
    fn empty_rows_yield_null() {
        let f = CitationFunction::from_spec(vec![CitationFunction::scalar("ID", 0)]);
        assert!(f.apply(&[]).is_null());
    }

    #[test]
    fn constant_fields() {
        let rows = vec![tuple!["x"]];
        let f = CitationFunction::from_spec(vec![
            CitationFunction::constant("Database", Json::str("GtoPdb")),
            CitationFunction::scalar("Key", 0),
        ]);
        assert_eq!(f.apply(&rows).get("Database"), Some(&Json::str("GtoPdb")));
    }

    #[test]
    fn custom_function() {
        let f = CitationFunction::custom(|rows| Json::Int(rows.len() as i64));
        assert_eq!(f.apply(&[tuple![1], tuple![2]]), Json::Int(2));
        assert!(!matches!(f.body, Body::Spec(_)));
        assert!(f.max_column().is_none());
    }

    #[test]
    fn max_column_covers_nested_groups() {
        let f = CitationFunction::from_spec(vec![CitationFunction::group(
            "G",
            vec![1],
            vec![CitationFunction::collect("C", 4)],
        )]);
        assert_eq!(f.max_column(), Some(4));
        assert!(matches!(f.body, Body::Spec(_)));
    }

    #[test]
    fn debug_formats() {
        let f = CitationFunction::from_spec(vec![CitationFunction::scalar("ID", 0)]);
        assert!(format!("{f:?}").contains("Scalar"));
        let c = CitationFunction::custom(|_| Json::Null);
        assert!(format!("{c:?}").contains("custom"));
    }
}
