//! The paper's simplified GtoPdb schema (Example 2.1):
//!
//! ```text
//! Family(FID, FName, Type)
//! FamilyIntro(FID, Text)
//! Person(PID, PName, Affiliation)
//! FC(FID, PID)   FID references Family, PID references Person
//! FIC(FID, PID)  FID references FamilyIntro, PID references Person
//! MetaData(Type, Value)
//! ```

use fgc_relation::schema::RelationSchema;
use fgc_relation::{DataType, Database, ShardKeySpec};

/// Create the six GtoPdb relations (with keys and foreign keys) in a
/// fresh database.
pub fn create_schema() -> Database {
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
        .expect("static schema"),
    )
    .expect("fresh database");
    let mut intro = RelationSchema::with_names(
        "FamilyIntro",
        &[("FID", DataType::Str), ("Text", DataType::Str)],
        &["FID"],
    )
    .expect("static schema");
    intro
        .add_foreign_key(&["FID"], "Family")
        .expect("FID exists");
    db.create_relation(intro).expect("fresh database");
    db.create_relation(
        RelationSchema::with_names(
            "Person",
            &[
                ("PID", DataType::Str),
                ("PName", DataType::Str),
                ("Affiliation", DataType::Str),
            ],
            &["PID"],
        )
        .expect("static schema"),
    )
    .expect("fresh database");
    let mut fc = RelationSchema::with_names(
        "FC",
        &[("FID", DataType::Str), ("PID", DataType::Str)],
        &["FID", "PID"],
    )
    .expect("static schema");
    fc.add_foreign_key(&["FID"], "Family").expect("FID exists");
    db.create_relation(fc).expect("fresh database");
    let mut fic = RelationSchema::with_names(
        "FIC",
        &[("FID", DataType::Str), ("PID", DataType::Str)],
        &["FID", "PID"],
    )
    .expect("static schema");
    fic.add_foreign_key(&["FID"], "FamilyIntro")
        .expect("FID exists");
    db.create_relation(fic).expect("fresh database");
    db.create_relation(
        RelationSchema::with_names(
            "MetaData",
            &[("Type", DataType::Str), ("Value", DataType::Str)],
            &[],
        )
        .expect("static schema"),
    )
    .expect("fresh database");
    db
}

/// The GtoPdb shard-key spec, which nothing reads any more: every
/// replica holds the whole snapshot. Kept for
/// `benchmark/src/stack.rs:178`.
pub fn paper_shard_spec() -> ShardKeySpec {
    ShardKeySpec::new()
        .with("Family", "FID")
        .with("FamilyIntro", "FID")
        .with("FC", "FID")
        .with("FIC", "FID")
        .with("Person", "PID")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_six_relations() {
        let db = create_schema();
        assert_eq!(db.catalog().len(), 6);
        for name in ["Family", "FamilyIntro", "Person", "FC", "FIC", "MetaData"] {
            assert!(db.catalog().contains(name), "missing {name}");
        }
    }

    #[test]
    fn foreign_keys_validate() {
        let db = create_schema();
        db.catalog().validate().unwrap();
        assert_eq!(db.catalog().get("FC").unwrap().foreign_keys.len(), 1);
        assert_eq!(
            db.catalog().get("FIC").unwrap().foreign_keys[0].references,
            "FamilyIntro"
        );
    }

    #[test]
    fn keys_match_paper_underlines() {
        let db = create_schema();
        assert_eq!(db.catalog().get("Family").unwrap().key, vec![0]);
        assert_eq!(db.catalog().get("FC").unwrap().key, vec![0, 1]);
        assert!(db.catalog().get("MetaData").unwrap().key.is_empty());
    }
}
