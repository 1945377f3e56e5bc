//! The exact data the paper uses in its running examples: family 11
//! "Calcitonin" with committee Hay/Poyner and contributors
//! Brown/Smith (Examples 2.1, 3.1), the "Calcium-sensing" family with
//! committee Bilke/Conigrave/Shoback (Example 2.1's V4 citation),
//! family 13 "b" (Example 3.3), and the MetaData rows
//! Owner/URL/Version.

use crate::schema::create_schema;
use fgc_relation::{tuple, Database};

/// The query mix the tests run over the paper instance: the paper's
/// worked-example join, a scan, keyed constants, a non-key selection
/// and joins, a self-join, and empty and unsatisfiable results.
pub const PAPER_QUERIES: &[&str] = &[
    "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"",
    "Q(N) :- Family(F, N, Ty)",
    "Q(N) :- Family(\"11\", N, Ty)",
    "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = \"11\"",
    "Q(N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)",
    "Q(A, B) :- Family(A, N1, T), Family(B, N2, T), A != B",
    "Q(N) :- Family(F, N, Ty), Ty = \"nope\"",
    "Q(N) :- Family(F, N, Ty), Ty = \"a\", Ty = \"b\"",
];

/// Build the paper's example instance.
pub fn paper_instance() -> Database {
    let mut db = create_schema();
    db.insert_all(
        "Family",
        vec![
            tuple!["11", "Calcitonin", "gpcr"],
            tuple!["12", "Calcium-sensing", "gpcr"],
            tuple!["13", "b", "gpcr"],
            tuple!["14", "Orexin", "gpcr"],
            tuple!["15", "Kinase", "enzyme"],
        ],
    )
    .expect("static rows");
    db.insert_all(
        "FamilyIntro",
        vec![
            tuple!["11", "The calcitonin peptide family"],
            tuple!["13", "Familyb"],
            tuple!["14", "The orexin receptors"],
        ],
    )
    .expect("static rows");
    db.insert_all(
        "Person",
        vec![
            tuple!["p1", "Hay", "University of Auckland"],
            tuple!["p2", "Poyner", "Aston University"],
            tuple!["p3", "Brown", "University of Cambridge"],
            tuple!["p4", "Smith", "University of Oxford"],
            tuple!["p5", "Bilke", "Uppsala University"],
            tuple!["p6", "Conigrave", "University of Sydney"],
            tuple!["p7", "Shoback", "UCSF"],
            tuple!["p8", "Nichols", "WUSTL"],
            tuple!["p9", "Palmer", "University of Bristol"],
            tuple!["p10", "Alda", "Dalhousie University"],
        ],
    )
    .expect("static rows");
    // committee members curating family pages
    db.insert_all(
        "FC",
        vec![
            tuple!["11", "p1"], // Hay
            tuple!["11", "p2"], // Poyner
            tuple!["12", "p5"], // Bilke
            tuple!["12", "p6"], // Conigrave
            tuple!["12", "p7"], // Shoback
            tuple!["13", "p1"],
            tuple!["14", "p2"],
            tuple!["15", "p8"],
        ],
    )
    .expect("static rows");
    // contributors who wrote family introduction pages
    db.insert_all(
        "FIC",
        vec![
            tuple!["11", "p3"], // Brown
            tuple!["11", "p4"], // Smith
            tuple!["13", "p3"],
            tuple!["14", "p10"], // Alda
            tuple!["14", "p9"],  // Palmer
        ],
    )
    .expect("static rows");
    db.insert_all(
        "MetaData",
        vec![
            tuple!["Owner", "Tony Harmar"],
            tuple!["URL", "guidetopharmacology.org"],
            tuple!["Version", "23"],
        ],
    )
    .expect("static rows");
    db.check_integrity().expect("paper instance is consistent");
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgc_query::{evaluate, parse_query};
    use fgc_relation::tuple;

    #[test]
    fn instance_is_consistent() {
        let db = paper_instance();
        db.check_integrity().unwrap();
        assert_eq!(db.relation("Family").unwrap().len(), 5);
        assert_eq!(db.relation("MetaData").unwrap().len(), 3);
    }

    #[test]
    fn family_11_is_calcitonin_with_hay_poyner() {
        let db = paper_instance();
        let q = parse_query("Q(Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A), F = \"11\"")
            .unwrap();
        let mut names = evaluate(&db, &q).unwrap();
        names.sort();
        assert_eq!(names, vec![tuple!["Hay"], tuple!["Poyner"]]);
    }

    #[test]
    fn family_11_contributors_are_brown_smith() {
        let db = paper_instance();
        let q = parse_query("Q(Pn) :- FamilyIntro(F, Tx), FIC(F, C), Person(C, Pn, A), F = \"11\"")
            .unwrap();
        let mut names = evaluate(&db, &q).unwrap();
        names.sort();
        assert_eq!(names, vec![tuple!["Brown"], tuple!["Smith"]]);
    }

    #[test]
    fn example_3_3_family_13() {
        let db = paper_instance();
        let q =
            parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\", FamilyIntro(F, Tx), F = \"13\"")
                .unwrap();
        assert_eq!(evaluate(&db, &q).unwrap(), vec![tuple!["b"]]);
    }
}
