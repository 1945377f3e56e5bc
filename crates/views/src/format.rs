//! Citation output formats beyond JSON.
//!
//! Definition 2.1: the citation function transforms the citation
//! query's output "into a citation in some desired format, **such as
//! JSON or XML**". JSON is the engine's native value ([`crate::json`]);
//! this module renders the same values as XML and as human-readable
//! citation text (the string a repository would display under
//! "Cite this result").

use crate::json::Json;
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// XML
// ---------------------------------------------------------------------

/// Render a citation as XML. Objects become elements (field name =
/// tag), arrays repeat an `<item>` element, scalars become text.
/// Tag names are sanitized to XML NCName-safe ASCII.
pub fn to_xml(citation: &Json, root: &str) -> String {
    let mut out = String::new();
    write_xml(citation, &sanitize_tag(root), &mut out, 0);
    out
}

fn sanitize_tag(raw: &str) -> String {
    let mut tag: String = raw
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if tag.is_empty() || tag.starts_with(|c: char| c.is_ascii_digit() || c == '-') {
        tag.insert(0, '_');
    }
    tag
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_xml(j: &Json, tag: &str, out: &mut String, depth: usize) {
    indent(out, depth);
    match j {
        Json::Null => {
            let _ = writeln!(out, "<{tag}/>");
        }
        Json::Bool(b) => {
            let _ = writeln!(out, "<{tag}>{b}</{tag}>");
        }
        Json::Int(i) => {
            let _ = writeln!(out, "<{tag}>{i}</{tag}>");
        }
        Json::Float(x) => {
            let _ = writeln!(out, "<{tag}>{x:?}</{tag}>");
        }
        Json::Str(s) => {
            let _ = writeln!(out, "<{tag}>{}</{tag}>", escape_xml(s));
        }
        Json::Array(items) => {
            let _ = writeln!(out, "<{tag}>");
            for item in items {
                write_xml(item, "item", out, depth + 1);
            }
            indent(out, depth);
            let _ = writeln!(out, "</{tag}>");
        }
        Json::Object(fields) => {
            let _ = writeln!(out, "<{tag}>");
            for (k, v) in fields {
                write_xml(v, &sanitize_tag(k), out, depth + 1);
            }
            indent(out, depth);
            let _ = writeln!(out, "</{tag}>");
        }
    }
}

fn escape_xml(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Human-readable citation text
// ---------------------------------------------------------------------

/// A text citation style: which fields name the *creators*, which
/// field titles the cited unit, and static snippets around them.
/// Mirrors how repositories render "how to cite this page".
#[derive(Debug, Clone)]
pub struct TextStyle {
    /// Fields (in priority order) holding person lists to credit.
    pub creator_fields: Vec<String>,
    /// Fields (in priority order) holding the cited unit's title.
    pub title_fields: Vec<String>,
    /// Fields appended verbatim as `key: value` trailers (e.g.
    /// `URL`, `Version`).
    pub trailer_fields: Vec<String>,
    /// Repository name appended to every citation.
    pub repository: String,
}

impl Default for TextStyle {
    fn default() -> Self {
        TextStyle {
            creator_fields: vec![
                "Committee".into(),
                "Contributors".into(),
                "Curators".into(),
                "Owner".into(),
            ],
            title_fields: vec!["Name".into(), "Type".into(), "Title".into()],
            trailer_fields: vec!["URL".into(), "Version".into(), "Timestamp".into()],
            repository: String::new(),
        }
    }
}

/// Render a citation value as one or more lines of citation text.
/// Arrays of records produce one line each; single records produce
/// one line of `creators. title. trailers. repository`.
pub fn to_text(citation: &Json, style: &TextStyle) -> String {
    let mut lines = Vec::new();
    collect_lines(citation, style, &mut lines);
    if lines.is_empty() {
        let fallback = if style.repository.is_empty() {
            "(no citation information)".to_string()
        } else {
            format!("(no citation information). {}.", style.repository)
        };
        lines.push(fallback);
    }
    lines.join("\n")
}

fn collect_lines(j: &Json, style: &TextStyle, lines: &mut Vec<String>) {
    match j {
        Json::Array(items) => {
            for item in items {
                collect_lines(item, style, lines);
            }
        }
        Json::Object(_) => {
            if let Some(line) = record_line(j, style) {
                lines.push(line);
            }
        }
        Json::Null => {}
        other => lines.push(other.to_compact()),
    }
}

fn names_of(j: &Json) -> Vec<String> {
    match j {
        Json::Str(s) => vec![s.clone()],
        Json::Array(items) => items.iter().flat_map(names_of).collect(),
        Json::Object(_) => {
            // nested contributor group: prefer its Name field
            j.get("Name").map(names_of).unwrap_or_default()
        }
        _ => Vec::new(),
    }
}

fn record_line(record: &Json, style: &TextStyle) -> Option<String> {
    let mut parts: Vec<String> = Vec::new();
    for f in &style.creator_fields {
        if let Some(v) = record.get(f) {
            let names = names_of(v);
            if !names.is_empty() {
                parts.push(format!("{} ({})", names.join(", "), f.to_lowercase()));
                break;
            }
        }
    }
    for f in &style.title_fields {
        if let Some(Json::Str(title)) = record.get(f) {
            parts.push(title.clone());
            break;
        }
    }
    // nested contributor groups (V4/V5-style citations)
    if let Some(Json::Array(groups)) = record.get("Contributors") {
        let mut group_parts = Vec::new();
        for g in groups {
            if let (Some(Json::Str(name)), Some(members)) = (g.get("Name"), g.get("Committee")) {
                let members = names_of(members);
                if !members.is_empty() {
                    group_parts.push(format!("{name} [{}]", members.join(", ")));
                }
            }
        }
        if !group_parts.is_empty() {
            parts.push(group_parts.join("; "));
        }
    }
    for f in &style.trailer_fields {
        if let Some(v) = record.get(f) {
            match v {
                Json::Str(s) => parts.push(format!("{f}: {s}")),
                Json::Int(i) => parts.push(format!("{f}: {i}")),
                _ => {}
            }
        }
    }
    if !style.repository.is_empty() {
        parts.push(style.repository.clone());
    }
    if parts.is_empty() {
        None
    } else {
        Some(format!("{}.", parts.join(". ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calcitonin() -> Json {
        Json::from_pairs([
            ("ID", Json::str("11")),
            ("Name", Json::str("Calcitonin")),
            (
                "Committee",
                Json::Array(vec![Json::str("Hay"), Json::str("Poyner")]),
            ),
        ])
    }

    #[test]
    fn xml_renders_objects_and_arrays() {
        let xml = to_xml(&calcitonin(), "citation");
        assert!(xml.contains("<citation>"));
        assert!(xml.contains("<ID>11</ID>"));
        assert!(xml.contains("<Committee>"));
        assert!(xml.contains("<item>Hay</item>"));
        assert!(xml.ends_with("</citation>\n"));
    }

    #[test]
    fn xml_escapes_special_characters() {
        let j = Json::from_pairs([("Text", Json::str("a < b & \"c\""))]);
        let xml = to_xml(&j, "c");
        assert!(xml.contains("a &lt; b &amp; &quot;c&quot;"));
    }

    #[test]
    fn xml_sanitizes_tags() {
        let j = Json::from_pairs([("weird field!", Json::Int(1))]);
        let xml = to_xml(&j, "9root");
        assert!(xml.contains("<weird_field_>1</weird_field_>"));
        assert!(xml.contains("<_9root>"));
    }

    #[test]
    fn xml_null_is_self_closing() {
        assert_eq!(to_xml(&Json::Null, "empty"), "<empty/>\n");
    }

    #[test]
    fn text_single_record() {
        let style = TextStyle {
            repository: "IUPHAR/BPS Guide to Pharmacology".into(),
            ..TextStyle::default()
        };
        let text = to_text(&calcitonin(), &style);
        assert_eq!(
            text,
            "Hay, Poyner (committee). Calcitonin. IUPHAR/BPS Guide to Pharmacology."
        );
    }

    #[test]
    fn text_record_set_yields_one_line_each() {
        let set = Json::Array(vec![calcitonin(), calcitonin()]);
        let text = to_text(&set, &TextStyle::default());
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn text_grouped_contributors() {
        let v4_citation = Json::from_pairs([
            ("Type", Json::str("gpcr")),
            (
                "Contributors",
                Json::Array(vec![Json::from_pairs([
                    ("Name", Json::str("Calcitonin")),
                    (
                        "Committee",
                        Json::Array(vec![Json::str("Hay"), Json::str("Poyner")]),
                    ),
                ])]),
            ),
        ]);
        let text = to_text(&v4_citation, &TextStyle::default());
        assert!(text.contains("gpcr"));
        assert!(text.contains("Calcitonin [Hay, Poyner]"));
    }

    #[test]
    fn text_trailers_and_fallback() {
        let with_meta = Json::from_pairs([
            ("Owner", Json::str("Tony Harmar")),
            ("URL", Json::str("guidetopharmacology.org")),
        ]);
        let text = to_text(&with_meta, &TextStyle::default());
        assert!(text.contains("Tony Harmar (owner)"));
        assert!(text.contains("URL: guidetopharmacology.org"));
        let style = TextStyle {
            repository: "X".into(),
            ..TextStyle::default()
        };
        let empty = to_text(&Json::Null, &style);
        assert!(empty.contains("no citation information"));
    }
}
