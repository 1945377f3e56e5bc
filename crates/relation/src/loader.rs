//! Plain-text bulk load/dump for database instances.
//!
//! Format (line-oriented, `#` comments, blank lines ignored):
//!
//! ```text
//! @create Family(FID* str, FName str, Type str)
//! @create FC(FID* str, PID* str)
//! @fk FC(FID) -> Family
//! @relation Family
//! "11" | "Calcitonin" | "gpcr"
//! "12" | "Orexin"     | "gpcr"
//! ```
//!
//! * `@create R(col[*] type, ...)` declares a relation; `*` marks a
//!   primary-key column; types are `str`, `int`, `float`, `bool`,
//!   `any`;
//! * `@fk R(col, ...) -> S` declares a foreign key to `S`'s key;
//! * `@relation R` switches the insertion target for data lines;
//! * values use [`crate::value::Value::parse`] syntax.
//!
//! Relations may also be pre-registered programmatically and the
//! file restricted to data lines.

use crate::database::Database;
use crate::error::{RelationError, Result};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::version::VersionedDatabase;
use std::fmt::Write as _;

/// Load tuples from the text format into an existing database.
/// Returns the number of tuples inserted.
pub fn load_text(db: &mut Database, text: &str) -> Result<usize> {
    let mut current: Option<String> = None;
    let mut inserted = 0;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("@create") {
            let schema = parse_create(rest.trim(), lineno)?;
            db.create_relation(schema)?;
            continue;
        }
        if let Some(rest) = line.strip_prefix("@fk") {
            apply_fk(db, rest.trim(), lineno)?;
            continue;
        }
        if let Some(rest) = line.strip_prefix("@relation") {
            let name = rest.trim();
            if name.is_empty() {
                return Err(RelationError::Parse {
                    line: lineno,
                    message: "@relation needs a name".into(),
                });
            }
            // Fail fast on unknown relations.
            db.relation(name)?;
            current = Some(name.to_string());
            continue;
        }
        let target = current.as_ref().ok_or_else(|| RelationError::Parse {
            line: lineno,
            message: "tuple before any @relation header".into(),
        })?;
        let mut values = Vec::new();
        for field in split_fields(line) {
            let v = Value::parse(&field).ok_or_else(|| RelationError::Parse {
                line: lineno,
                message: format!("cannot parse value `{field}`"),
            })?;
            values.push(v);
        }
        if db.insert(target, Tuple::new(values))? {
            inserted += 1;
        }
    }
    Ok(inserted)
}

/// Parse `R(col[*] type, ...)` into a schema.
fn parse_create(spec: &str, lineno: usize) -> Result<crate::schema::RelationSchema> {
    use crate::schema::RelationSchema;
    use crate::value::DataType;
    let err = |message: String| RelationError::Parse {
        line: lineno,
        message,
    };
    let open = spec
        .find('(')
        .ok_or_else(|| err("@create expects R(col type, ...)".into()))?;
    let close = spec
        .rfind(')')
        .ok_or_else(|| err("@create: missing `)`".into()))?;
    let name = spec[..open].trim();
    if name.is_empty() {
        return Err(err("@create: missing relation name".into()));
    }
    let mut specs: Vec<(String, DataType)> = Vec::new();
    let mut keys: Vec<String> = Vec::new();
    for col in spec[open + 1..close].split(',') {
        let col = col.trim();
        if col.is_empty() {
            continue;
        }
        let mut parts = col.split_whitespace();
        let mut col_name = parts
            .next()
            .ok_or_else(|| err(format!("@create: bad column `{col}`")))?
            .to_string();
        let ty = match parts.next().unwrap_or("any") {
            "str" => DataType::Str,
            "int" => DataType::Int,
            "float" => DataType::Float,
            "bool" => DataType::Bool,
            "any" => DataType::Any,
            other => return Err(err(format!("@create: unknown type `{other}`"))),
        };
        if let Some(stripped) = col_name.strip_suffix('*') {
            col_name = stripped.to_string();
            keys.push(col_name.clone());
        }
        specs.push((col_name, ty));
    }
    let spec_refs: Vec<(&str, DataType)> = specs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
    RelationSchema::with_names(name, &spec_refs, &key_refs)
}

/// Parse and apply `R(col, ...) -> S`.
fn apply_fk(db: &mut Database, spec: &str, lineno: usize) -> Result<()> {
    let err = |message: String| RelationError::Parse {
        line: lineno,
        message,
    };
    let arrow = spec
        .find("->")
        .ok_or_else(|| err("@fk expects R(cols) -> S".into()))?;
    let left = spec[..arrow].trim();
    let target = spec[arrow + 2..].trim();
    let open = left
        .find('(')
        .ok_or_else(|| err("@fk: missing `(`".into()))?;
    let close = left
        .rfind(')')
        .ok_or_else(|| err("@fk: missing `)`".into()))?;
    let rel = left[..open].trim().to_string();
    let cols: Vec<&str> = left[open + 1..close]
        .split(',')
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .collect();
    if rel.is_empty() || target.is_empty() || cols.is_empty() {
        return Err(err("@fk expects R(cols) -> S".into()));
    }
    // Rebuild the schema with the new FK: schemas are Arc-shared, so
    // register a modified clone.
    let mut schema = (**db.catalog().get(&rel)?).clone();
    schema.add_foreign_key(&cols, target)?;
    db.replace_schema(schema)
}

/// Split a line on `|` separators that are *outside* quoted strings.
fn split_fields(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut buf = String::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in line.chars() {
        if in_str {
            buf.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '"' {
            in_str = true;
            buf.push(c);
        } else if c == '|' {
            fields.push(buf.trim().to_string());
            buf.clear();
        } else {
            buf.push(c);
        }
    }
    fields.push(buf.trim().to_string());
    fields
}

/// Load a commit history from the commits text format into a
/// [`VersionedDatabase`] (appending after its current head). Returns
/// the number of commits applied.
///
/// Format, one commit per `@commit` section:
///
/// ```text
/// # deltas over the base snapshot
/// @commit 200 GtoPdb 24
/// + Family | "20" | "Melatonin" | "gpcr"
/// - FC | "11" | "p1"
/// ```
///
/// `@commit TIMESTAMP LABEL...` opens a commit; `+ R | v...` inserts
/// a tuple into `R`, `- R | v...` removes one. Commits go through
/// [`VersionedDatabase::commit_with`], so each version records its
/// delta and derived engines can replay it.
///
/// Application is **all-or-nothing**: commits are staged on a copy of
/// the history (snapshots are `Arc`-shared, so the copy is cheap) and
/// the history is only replaced once every section applied — on error
/// it is left exactly as passed in, so a caller can fix the file and
/// retry without double-applying earlier commits.
pub fn load_commits(history: &mut VersionedDatabase, text: &str) -> Result<usize> {
    let commits = parse_commits(text)?;
    apply_commits(history, commits)
}

/// Catch a history up to a commits file it may already partially (or
/// fully) contain: version `i + 1` of the chain is expected to be the
/// file's section `i`. Sections already in the chain are verified —
/// timestamp and label must match the recorded
/// [`VersionInfo`](crate::version::VersionInfo), a
/// mismatch is a structured error, never a silent skip — and only the
/// sections past the head are applied (all-or-nothing, like
/// [`load_commits`]). Returns the number of commits newly applied;
/// `0` when the chain already contains the whole file.
///
/// This is the `serve --commits` restart path: a persisted history
/// (even just the base version a non-versioned run wrote) plus the
/// same commits file resumes exactly where the chain left off,
/// without re-running the text loader.
pub fn resume_commits(history: &mut VersionedDatabase, text: &str) -> Result<usize> {
    if history.is_empty() {
        return Err(RelationError::Storage(
            "cannot resume commits on an empty history (no base version to anchor them)".into(),
        ));
    }
    let commits = parse_commits(text)?;
    let have = history.len() - 1; // sections already in the chain
    for (i, (timestamp, label, _)) in commits.iter().take(have).enumerate() {
        let (info, _) = history.snapshot((i + 1) as crate::version::VersionId)?;
        if info.timestamp != *timestamp || info.label != *label {
            return Err(RelationError::Storage(format!(
                "commit section {} (`{label}` @ {timestamp}) conflicts with already-applied \
                 version {} (`{}` @ {}): the commits file and the history have diverged",
                i + 1,
                info.id,
                info.label,
                info.timestamp,
            )));
        }
    }
    apply_commits(history, commits.into_iter().skip(have).collect())
}

// (timestamp, label, ops); op = (lineno, insert?, relation, tuple)
type CommitOp = (usize, bool, String, Tuple);
type CommitSection = (u64, String, Vec<CommitOp>);

/// Parse the commits text format into its sections without touching
/// any history.
fn parse_commits(text: &str) -> Result<Vec<CommitSection>> {
    let mut commits: Vec<CommitSection> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = lineno + 1;
        let err = |message: String| RelationError::Parse {
            line: lineno,
            message,
        };
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("@commit") {
            let rest = rest.trim();
            let (ts, label) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
            let timestamp: u64 = ts
                .parse()
                .map_err(|_| err(format!("@commit expects a numeric timestamp, got `{ts}`")))?;
            let label = if label.trim().is_empty() {
                format!("commit@{timestamp}")
            } else {
                label.trim().to_string()
            };
            commits.push((timestamp, label, Vec::new()));
            continue;
        }
        let (insert, rest) = match (line.strip_prefix('+'), line.strip_prefix('-')) {
            (Some(rest), _) => (true, rest),
            (_, Some(rest)) => (false, rest),
            _ => return Err(err("expected `@commit`, `+ R | ...`, or `- R | ...`".into())),
        };
        let mut fields = split_fields(rest);
        if fields.len() < 2 {
            return Err(err("op needs a relation and at least one value".into()));
        }
        let relation = fields.remove(0);
        if relation.is_empty() {
            return Err(err("op is missing its relation name".into()));
        }
        let mut values = Vec::with_capacity(fields.len());
        for field in fields {
            values.push(
                Value::parse(&field).ok_or_else(|| err(format!("cannot parse value `{field}`")))?,
            );
        }
        commits
            .last_mut()
            .ok_or_else(|| err("op before any @commit header".into()))?
            .2
            .push((lineno, insert, relation, Tuple::new(values)));
    }
    Ok(commits)
}

/// Stage `commits` on a copy of the history and swap on success —
/// the all-or-nothing contract both loaders document.
fn apply_commits(history: &mut VersionedDatabase, commits: Vec<CommitSection>) -> Result<usize> {
    let applied = commits.len();
    let mut staged = history.clone();
    for (timestamp, label, ops) in commits {
        staged.commit_with(timestamp, label, |db| {
            for (lineno, insert, relation, tuple) in ops {
                let effective = if insert {
                    db.insert(&relation, tuple)?
                } else {
                    db.remove(&relation, &tuple)?
                };
                if !effective {
                    return Err(RelationError::Parse {
                        line: lineno,
                        message: format!(
                            "{} on `{relation}` had no effect (tuple {})",
                            if insert { "insert" } else { "remove" },
                            if insert { "already stored" } else { "absent" },
                        ),
                    });
                }
            }
            Ok(())
        })?;
    }
    *history = staged;
    Ok(applied)
}

/// Dump a database to the text format (relations in catalog order,
/// tuples in insertion order). `load_text` of the output reproduces
/// the instance.
pub fn dump_text(db: &Database) -> String {
    let mut out = String::new();
    for schema in db.catalog().iter() {
        let rel = db.relation(&schema.name).expect("catalog relation exists");
        let _ = writeln!(out, "@relation {}", schema.name);
        for row in rel.iter() {
            let rendered: Vec<String> = row.iter().map(|v| v.render().into_owned()).collect();
            let _ = writeln!(out, "{}", rendered.join(" | "));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tuple;
    use crate::value::DataType;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation(
            RelationSchema::with_names(
                "Family",
                &[
                    ("FID", DataType::Str),
                    ("FName", DataType::Str),
                    ("Type", DataType::Str),
                ],
                &["FID"],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::with_names(
                "MetaData",
                &[("Type", DataType::Str), ("Value", DataType::Str)],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn load_basic() {
        let mut db = db();
        let n = load_text(
            &mut db,
            r#"
            # GtoPdb sample
            @relation Family
            "11" | "Calcitonin" | "gpcr"
            "12" | "Orexin" | "gpcr"
            @relation MetaData
            "Owner" | "Tony Harmar"
            "#,
        )
        .unwrap();
        assert_eq!(n, 3);
        assert_eq!(db.relation("Family").unwrap().len(), 2);
    }

    #[test]
    fn load_commits_builds_versions_with_deltas() {
        let mut db = db();
        load_text(
            &mut db,
            "@relation Family\n\"11\" | \"Calcitonin\" | \"gpcr\"",
        )
        .unwrap();
        let mut history = VersionedDatabase::new();
        history.commit(db, 100, "base").unwrap();
        let n = load_commits(
            &mut history,
            r#"
            # two curation releases
            @commit 200 GtoPdb 24
            + Family | "12" | "Orexin" | "gpcr"
            + MetaData | "Curator" | "Hay"
            @commit 300
            - Family | "11" | "Calcitonin" | "gpcr"
            "#,
        )
        .unwrap();
        assert_eq!(n, 2);
        assert_eq!(history.len(), 3);
        assert_eq!(history.snapshot(1).unwrap().0.label, "GtoPdb 24");
        assert_eq!(history.snapshot(2).unwrap().0.label, "commit@300");
        assert_eq!(history.snapshot(2).unwrap().1.total_tuples(), 2);
        let d1 = history.delta(1).unwrap();
        assert_eq!((d1.inserted(), d1.removed()), (2, 0));
        assert_eq!((history.delta(2).unwrap().removed()), 1);
    }

    #[test]
    fn resume_commits_applies_only_the_missing_tail() {
        const COMMITS: &str = "@commit 200 r1\n+ Family | \"12\" | \"Orexin\" | \"gpcr\"\n\
                               @commit 300 r2\n+ Family | \"13\" | \"Melatonin\" | \"gpcr\"";
        let mut db = db();
        load_text(
            &mut db,
            "@relation Family\n\"11\" | \"Calcitonin\" | \"gpcr\"",
        )
        .unwrap();
        // a chain that already contains the file's first section
        let mut partial = VersionedDatabase::new();
        partial.commit(db.clone(), 100, "base").unwrap();
        assert_eq!(
            load_commits(
                &mut partial,
                "@commit 200 r1\n+ Family | \"12\" | \"Orexin\" | \"gpcr\""
            )
            .unwrap(),
            1
        );
        assert_eq!(resume_commits(&mut partial, COMMITS).unwrap(), 1);
        assert_eq!(partial.len(), 3);
        // it now matches the chain built from scratch
        let mut full = VersionedDatabase::new();
        full.commit(db, 100, "base").unwrap();
        load_commits(&mut full, COMMITS).unwrap();
        assert!(partial.head().unwrap().1.content_eq(full.head().unwrap().1));
        // resuming again is a no-op
        assert_eq!(resume_commits(&mut partial, COMMITS).unwrap(), 0);
        assert_eq!(partial.len(), 3);
        // a chain with *extra* versions past the file is fine too
        partial.commit_with(400, "live", |_| Ok(())).unwrap();
        assert_eq!(resume_commits(&mut partial, COMMITS).unwrap(), 0);
    }

    #[test]
    fn resume_commits_refuses_a_divergent_file_and_empty_history() {
        let mut history = VersionedDatabase::new();
        history.commit(db(), 100, "base").unwrap();
        load_commits(&mut history, "@commit 200 r1\n+ MetaData | \"a\" | \"b\"").unwrap();
        // same position, different label: conflict, not silent skip
        let err = resume_commits(
            &mut history,
            "@commit 200 other\n+ MetaData | \"a\" | \"b\"",
        )
        .unwrap_err();
        assert!(err.to_string().contains("diverged"), "{err}");
        assert_eq!(history.len(), 2, "history untouched on conflict");
        // an empty history has no base to anchor the sections
        let mut empty = VersionedDatabase::new();
        assert!(resume_commits(&mut empty, "@commit 200 r1\n+ MetaData | \"a\" | \"b\"").is_err());
    }

    #[test]
    fn load_commits_rejects_malformed_input() {
        let mut history = VersionedDatabase::new();
        history.commit(db(), 100, "base").unwrap();
        // op before any @commit
        assert!(matches!(
            load_commits(&mut history, "+ Family | \"x\" | \"y\" | \"z\""),
            Err(RelationError::Parse { line: 1, .. })
        ));
        // bad timestamp
        assert!(load_commits(&mut history, "@commit soon v1").is_err());
        // neither +/- nor @commit
        assert!(load_commits(&mut history, "@commit 200 v1\nFamily | \"x\"").is_err());
        // ineffective op aborts the commit (and the history is unchanged)
        let before = history.len();
        let err = load_commits(
            &mut history,
            "@commit 200 v1\n- Family | \"99\" | \"no\" | \"pe\"",
        )
        .unwrap_err();
        assert!(err.to_string().contains("no effect"), "{err}");
        assert_eq!(history.len(), before);
        // all-or-nothing: a failure in a *later* section rolls back
        // the earlier (valid) commits too, so a fixed file can be
        // retried without double-applying
        let err = load_commits(
            &mut history,
            "@commit 200 ok\n+ Family | \"55\" | \"Fifty\" | \"gpcr\"\n\
             @commit 300 bad\n- Family | \"99\" | \"no\" | \"pe\"",
        )
        .unwrap_err();
        assert!(err.to_string().contains("no effect"), "{err}");
        assert_eq!(history.len(), before);
        assert!(!history
            .head()
            .unwrap()
            .1
            .relation("Family")
            .unwrap()
            .contains(&tuple!["55", "Fifty", "gpcr"]));
        // and the retry of the fixed file succeeds cleanly
        assert_eq!(
            load_commits(
                &mut history,
                "@commit 200 ok\n+ Family | \"55\" | \"Fifty\" | \"gpcr\""
            )
            .unwrap(),
            1
        );
        assert_eq!(history.len(), before + 1);
    }

    #[test]
    fn pipe_inside_string_is_data() {
        let mut db = db();
        load_text(&mut db, "@relation MetaData\n\"URL\" | \"a|b\"").unwrap();
        let rel = db.relation("MetaData").unwrap();
        assert_eq!(rel.rows()[0][1], Value::str("a|b"));
    }

    #[test]
    fn tuple_before_header_is_error() {
        let mut db = db();
        let err = load_text(&mut db, "\"x\" | \"y\"").unwrap_err();
        assert!(matches!(err, RelationError::Parse { line: 1, .. }));
    }

    #[test]
    fn unknown_relation_is_error() {
        let mut db = db();
        assert!(load_text(&mut db, "@relation Nope").is_err());
    }

    #[test]
    fn create_and_fk_directives() {
        let mut db = Database::new();
        let n = load_text(
            &mut db,
            r#"
            @create Family(FID* str, FName str, Type str)
            @create FC(FID* str, PID* str)
            @fk FC(FID) -> Family
            @relation Family
            "11" | "Calcitonin" | "gpcr"
            @relation FC
            "11" | "p1"
            "#,
        )
        .unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.catalog().get("Family").unwrap().key, vec![0]);
        assert_eq!(db.catalog().get("FC").unwrap().foreign_keys.len(), 1);
        db.check_integrity().unwrap();
    }

    #[test]
    fn fk_violation_detected_after_directive_load() {
        let mut db = Database::new();
        load_text(
            &mut db,
            r#"@create Family(FID* str)
@create FC(FID* str)
@fk FC(FID) -> Family
@relation FC
"99""#,
        )
        .unwrap();
        assert!(db.check_integrity().is_err());
    }

    #[test]
    fn create_rejects_bad_type() {
        let mut db = Database::new();
        let err = load_text(&mut db, "@create R(a wibble)").unwrap_err();
        assert!(matches!(err, RelationError::Parse { .. }));
    }

    #[test]
    fn create_defaults_untyped_columns_to_any() {
        let mut db = Database::new();
        load_text(&mut db, "@create R(a, b int)").unwrap();
        let schema = db.catalog().get("R").unwrap();
        assert_eq!(schema.attributes[0].ty, crate::value::DataType::Any);
        assert_eq!(schema.attributes[1].ty, crate::value::DataType::Int);
    }

    #[test]
    fn fk_requires_arrow_syntax() {
        let mut db = Database::new();
        load_text(&mut db, "@create R(a str)").unwrap();
        assert!(load_text(&mut db, "@fk R(a) Family").is_err());
    }

    #[test]
    fn dump_then_load_round_trips() {
        let mut original = db();
        original
            .insert("Family", tuple!["11", "Calci | tonin", "gpcr"])
            .unwrap();
        original
            .insert("MetaData", tuple!["Version", "23"])
            .unwrap();
        let text = dump_text(&original);
        let mut restored = db();
        let n = load_text(&mut restored, &text).unwrap();
        assert_eq!(n, 2);
        assert_eq!(
            restored.relation("Family").unwrap().rows(),
            original.relation("Family").unwrap().rows()
        );
        assert_eq!(
            restored.relation("MetaData").unwrap().rows(),
            original.relation("MetaData").unwrap().rows()
        );
    }
}
