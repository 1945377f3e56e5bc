//! Every worked example of the paper (*A Model for Fine-Grained Data
//! Citation*, CIDR 2017), executed end to end against the paper's
//! GtoPdb instance. This file is the reproduction's ground truth:
//! each test states which example it reproduces and asserts the
//! paper's printed output (or the property the example illustrates).

mod common;

use fgcite::engine::{CitationEngine, CiteToken, OrderChoice, Policy};
use fgcite::gtopdb::{paper_instance, paper_views, v1, v2, v3, v4, v5};
use fgcite::prelude::*;
use fgcite::query::parse_query;
use fgcite::rewrite::{enumerate_rewritings, RewriteOptions, ViewDefs};
use fgcite::semiring::{CitationExpr, Monomial, Polynomial};
use fgcite::views::{join_records, union_records};

fn engine() -> CitationEngine {
    common::engine(paper_instance())
}

fn exhaustive_engine() -> CitationEngine {
    common::exhaustive_union(engine())
}

fn paper_view_defs() -> ViewDefs {
    ViewDefs::new(paper_views().iter().map(|v| v.view.clone()))
}

// =====================================================================
// Example 2.1 — citation views V1–V5 and their JSON citations
// =====================================================================

#[test]
fn example_2_1_v1_citation_for_family_11() {
    let db = paper_instance();
    let citation = v1().citation_for(&db, &[Value::str("11")]).unwrap();
    // the paper: {ID: "11", Name: "Calcitonin", Committee: ["Hay", "Poyner"]}
    assert_eq!(
        citation.to_compact(),
        r#"{"ID": "11", "Name": "Calcitonin", "Committee": ["Hay", "Poyner"]}"#
    );
}

#[test]
fn example_2_1_v2_citation_for_family_11() {
    let db = paper_instance();
    let citation = v2().citation_for(&db, &[Value::str("11")]).unwrap();
    // the paper: {ID, Name, Text: "The calcitonin peptide family",
    //             Contributors: ["Brown", "Smith"]}
    assert_eq!(
        citation.to_compact(),
        r#"{"ID": "11", "Name": "Calcitonin", "Text": "The calcitonin peptide family", "Contributors": ["Brown", "Smith"]}"#
    );
}

#[test]
fn example_2_1_v3_citation_is_owner_and_url() {
    let db = paper_instance();
    let citation = v3().citation_for(&db, &[]).unwrap();
    assert_eq!(citation.get("Owner"), Some(&Json::str("Tony Harmar")));
    assert_eq!(
        citation.get("URL"),
        Some(&Json::str("guidetopharmacology.org"))
    );
}

#[test]
fn example_2_1_v1_single_tuple_per_valuation() {
    // "V1 and V2 restrict the output to a single tuple since the
    // parameter, F, corresponds to the key FID in Family"
    let db = paper_instance();
    assert_eq!(db.relation("Family").unwrap().len(), 5);
    for fid in ["11", "12", "13", "14", "15"] {
        let rows = v1().instance(&db, &[Value::str(fid)]).unwrap();
        assert_eq!(rows.len(), 1, "family {fid}");
    }
}

#[test]
fn example_2_1_v4_selects_subset_by_type() {
    // "V4 and V5 restrict the output to a subset of tuples"
    let db = paper_instance();
    let gpcr = v4().instance(&db, &[Value::str("gpcr")]).unwrap();
    assert_eq!(gpcr.len(), 4);
    let enzyme = v4().instance(&db, &[Value::str("enzyme")]).unwrap();
    assert_eq!(enzyme.len(), 1);
}

#[test]
fn example_2_1_v3_contains_all_families() {
    // "V3 contains all tuples in Family"
    let db = paper_instance();
    assert_eq!(v3().extent(&db).unwrap().len(), 5);
}

#[test]
fn example_2_1_v4_citation_groups_committees_by_family() {
    let db = paper_instance();
    let citation = v4().citation_for(&db, &[Value::str("gpcr")]).unwrap();
    let Json::Array(groups) = citation.get("Contributors").unwrap() else {
        panic!("Contributors should be an array");
    };
    // the paper shows Calcitonin: [Hay, Poyner] and Calcium-sensing:
    // [Bilke, Conigrave, Shoback]
    let calcitonin = groups
        .iter()
        .find(|g| g.get("Name") == Some(&Json::str("Calcitonin")))
        .unwrap();
    assert_eq!(
        calcitonin.get("Committee"),
        Some(&Json::Array(vec![Json::str("Hay"), Json::str("Poyner")]))
    );
    let calcium = groups
        .iter()
        .find(|g| g.get("Name") == Some(&Json::str("Calcium-sensing")))
        .unwrap();
    assert_eq!(
        calcium.get("Committee"),
        Some(&Json::Array(vec![
            Json::str("Bilke"),
            Json::str("Conigrave"),
            Json::str("Shoback")
        ]))
    );
}

#[test]
fn example_2_1_v5_credits_contributors_not_committee() {
    let db = paper_instance();
    let c = v5().citation_for(&db, &[Value::str("gpcr")]).unwrap();
    let text = c.to_compact();
    assert!(text.contains("Brown") && text.contains("Alda"));
    assert!(
        !text.contains("Hay"),
        "V5 must not credit committees: {text}"
    );
}

// =====================================================================
// Example 2.2 — rewriting trade-offs and λ-absorption
// =====================================================================

#[test]
fn example_2_2_both_rewritings_exist() {
    let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\", FamilyIntro(F, Tx)").unwrap();
    let e = enumerate_rewritings(&q, &paper_view_defs(), RewriteOptions::default()).unwrap();
    assert!(e.exhaustive);
    let shown: Vec<String> = e.rewritings.iter().map(|r| r.to_string()).collect();
    // Q1(N) :- V1(F,N,Ty), Ty="gpcr", V2(F,Tx)  — constant at V1's
    // non-λ output position (our normalized form of the residual
    // comparison predicate)
    let q1 = e
        .rewritings
        .iter()
        .find(|r| r.view_atoms().any(|v| v.view == "V1") && r.view_atoms().any(|v| v.view == "V2"))
        .unwrap_or_else(|| panic!("missing Q1 in {shown:#?}"));
    assert_eq!(q1.num_uncovered(), 1, "Q1 keeps a residual predicate");
    // Q2(N) :- V4(F,N,Ty)("gpcr"), V2(F,Tx) — the comparison is
    // absorbed by V4's λ-term
    let q2 = e
        .rewritings
        .iter()
        .find(|r| r.view_atoms().any(|v| v.view == "V4") && r.view_atoms().any(|v| v.view == "V2"))
        .unwrap_or_else(|| panic!("missing Q2 in {shown:#?}"));
    let v4_atom = q2.view_atoms().find(|v| v.view == "V4").unwrap();
    assert_eq!(v4_atom.absorbed_params(), 1);
    assert_eq!(q2.num_uncovered(), 0, "Q2 has no remaining predicates");
}

#[test]
fn example_2_2_citation_granularity_differs() {
    // "Q2 leads to a more specific citation than Q1 ... This groups
    // together all tuples sharing the type gpcr, yielding a single
    // citation" — with Q1 (V1), each family id yields its own token.
    let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\", FamilyIntro(F, Tx)").unwrap();
    let e = exhaustive_engine();
    let result = e.cite(&q).unwrap();
    // collect V4 valuations (one per type) vs V1 valuations (one per family)
    let mut v4_valuations = std::collections::BTreeSet::new();
    let mut v1_valuations = std::collections::BTreeSet::new();
    for tc in &result.tuples {
        for (_, poly) in tc.expr.alternatives() {
            for token in poly.support() {
                match token {
                    CiteToken::View { view, valuation } if view == "V4" => {
                        v4_valuations.insert(valuation.clone());
                    }
                    CiteToken::View { view, valuation } if view == "V1" => {
                        v1_valuations.insert(valuation.clone());
                    }
                    _ => {}
                }
            }
        }
    }
    assert_eq!(v4_valuations.len(), 1, "one V4 citation for all of gpcr");
    assert!(
        v1_valuations.len() >= 3,
        "one V1 citation per gpcr family with an intro"
    );
}

// =====================================================================
// Example 2.3 — four rewritings, preference for Q4
// =====================================================================

#[test]
fn example_2_3_all_four_rewritings_found() {
    let q = parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
    let e = enumerate_rewritings(&q, &paper_view_defs(), RewriteOptions::default()).unwrap();
    let uses = |r: &fgcite::rewrite::Rewriting, names: &[&str]| {
        names.iter().all(|n| r.view_atoms().any(|v| v.view == *n)) && r.num_views() == names.len()
    };
    assert!(e.rewritings.iter().any(|r| uses(r, &["V1", "V2"])), "Q1");
    assert!(e.rewritings.iter().any(|r| uses(r, &["V3", "V2"])), "Q2");
    assert!(e.rewritings.iter().any(|r| uses(r, &["V4", "V2"])), "Q3");
    assert!(e.rewritings.iter().any(|r| uses(r, &["V5"])), "Q4");
    // all total
    for r in &e.rewritings {
        assert!(r.is_total(), "{r}");
    }
}

#[test]
fn example_2_3_preference_selects_q4() {
    // "(i) it is a total rewriting; (ii) it uses the smallest number
    // of views; and (iii) the comparison predicate ... is matched by
    // the lambda term"
    let e = engine(); // pruned mode by default
    let q = parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
    let result = e.cite(&q).unwrap();
    let (label, best) = &result.rewritings[0];
    assert_eq!(label, "Q1"); // best-ranked label
    assert!(best.is_total());
    assert_eq!(best.num_views(), 1);
    assert!(best.view_atoms().any(|v| v.view == "V5"));
    assert_eq!(best.view_atoms().next().unwrap().absorbed_params(), 1);
}

// =====================================================================
// Example 3.1 — the · of citations within one binding
// =====================================================================

#[test]
fn example_3_1_joint_use_of_v1_and_v2() {
    // Binding F="11" for Q1 = V1 ⋈ V2: citation is FV1("11") · FV2("11")
    let db = paper_instance();
    let c1 = v1().citation_for(&db, &[Value::str("11")]).unwrap();
    let c2 = v2().citation_for(&db, &[Value::str("11")]).unwrap();
    // the union interpretation keeps both records
    let u = union_records(&c1, &c2);
    let Json::Array(items) = &u else {
        panic!("union of distinct records is a set")
    };
    assert_eq!(items.len(), 2);
    assert!(items[0].to_compact().contains("Hay"));
    assert!(items[1].to_compact().contains("Brown"));
}

#[test]
fn example_3_1_engine_builds_the_product() {
    // The engine's symbolic expression for the Calcitonin tuple under
    // the V1·V2 rewriting is a single monomial CV1("11")·CV2("11").
    let q = parse_query("Q(N) :- Family(F, N, Ty), F = \"11\", FamilyIntro(F, Tx)").unwrap();
    let e = exhaustive_engine();
    let result = e.cite(&q).unwrap();
    assert_eq!(result.tuples.len(), 1);
    let has_product = result.tuples[0].expr.alternatives().any(|(_, poly)| {
        poly.monomials().any(|m| {
            m.exponent(&CiteToken::view("V1", vec![Value::str("11")])) == 1
                && m.exponent(&CiteToken::view("V2", vec![Value::str("11")])) == 1
        })
    });
    assert!(has_product, "{}", result.tuples[0].expr);
}

// =====================================================================
// Example 3.2 — + over multiple bindings
// =====================================================================

#[test]
fn example_3_2_shared_family_name_sums_bindings() {
    // Two families named "Calcitonin" -> two bindings for the output
    // tuple ("Calcitonin") -> the citation is a + of two monomials.
    let mut db = paper_instance();
    db.insert("Family", tuple!["16", "Calcitonin", "gpcr"])
        .unwrap();
    db.insert("FamilyIntro", tuple!["16", "Another calcitonin intro"])
        .unwrap();
    db.insert("FIC", tuple!["16", "p4"]).unwrap();
    let e = common::exhaustive_union(common::engine(db));
    let q =
        parse_query("Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx), N = \"Calcitonin\"").unwrap();
    let result = e.cite(&q).unwrap();
    assert_eq!(result.tuples.len(), 1);
    // under the V1·V2 rewriting, the polynomial has two monomials:
    // one for family 11, one for family 16
    let v1v2_poly = result.tuples[0]
        .expr
        .alternatives()
        .find(|(_, poly)| poly.support().iter().any(|t| t.view_name() == Some("V1")))
        .map(|(_, p)| p.clone())
        .expect("V1-based rewriting present");
    assert_eq!(v1v2_poly.num_monomials(), 2, "{v1v2_poly}");
}

// =====================================================================
// Example 3.3 — +R across rewritings, plan independence
// =====================================================================

#[test]
fn example_3_3_family_13_citation_structure() {
    // Output tuple ("b"): per Q1 the citation is CV1("13")·CV2("13"),
    // per Q2 it is CV4("gpcr")·CV2("13"); the combination factors as
    // (CV1("13") +R CV4("gpcr")) · CV2("13").
    let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\", FamilyIntro(F, Tx), N = \"b\"")
        .unwrap();
    let e = exhaustive_engine();
    let result = e.cite(&q).unwrap();
    assert_eq!(result.tuples.len(), 1);
    let expr = &result.tuples[0].expr;
    let cv1 = CiteToken::view("V1", vec![Value::str("13")]);
    let cv4 = CiteToken::view("V4", vec![Value::str("gpcr")]);
    let cv2 = CiteToken::view("V2", vec![Value::str("13")]);
    let mut saw_q1_shape = false;
    let mut saw_q2_shape = false;
    for (_, poly) in expr.alternatives() {
        for m in poly.monomials() {
            if m.exponent(&cv1) == 1 && m.exponent(&cv2) == 1 {
                saw_q1_shape = true;
            }
            if m.exponent(&cv4) == 1 && m.exponent(&cv2) == 1 {
                saw_q2_shape = true;
            }
        }
    }
    assert!(saw_q1_shape, "missing CV1(13)·CV2(13) in {expr}");
    assert!(saw_q2_shape, "missing CV4(gpcr)·CV2(13) in {expr}");
    // distributivity: ·CV2("13") appears in every alternative that
    // mentions CV1/CV4 — verified by the factoring helper
    let factored = expr.flatten();
    for m in factored.monomials() {
        if m.exponent(&cv1) == 1 || m.exponent(&cv4) == 1 {
            assert_eq!(m.exponent(&cv2), 1);
        }
    }
}

#[test]
fn example_3_3_citations_insensitive_to_query_plans() {
    // "the citations obtained for two equivalent queries will always
    // be the same" — atom order and variable names don't matter.
    let qa = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\", FamilyIntro(F, Tx)").unwrap();
    let qb = parse_query("Q(Z) :- FamilyIntro(K, W), Family(K, Z, T2), T2 = \"gpcr\"").unwrap();
    let ea = exhaustive_engine();
    let eb = exhaustive_engine();
    let ca = ea.cite(&qa).unwrap();
    let cb = eb.cite(&qb).unwrap();
    assert_eq!(ca.tuples.len(), cb.tuples.len());
    for ta in &ca.tuples {
        let tb = cb
            .tuples
            .iter()
            .find(|t| t.tuple == ta.tuple)
            .expect("same result set");
        assert_eq!(
            ta.expr, tb.expr,
            "symbolic citations must be identical for equivalent queries"
        );
        assert!(ta.citation.equivalent(&tb.citation));
    }
}

// =====================================================================
// Example 3.4 — idempotence: a single citation for the result set
// =====================================================================

#[test]
fn example_3_4_fully_absorbed_rewriting_gives_single_citation() {
    // Query whose best rewriting binds every λ-parameter to a
    // constant: all tuples share one citation; with idempotent + and
    // Agg we get a single citation for the whole result set.
    let q = parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
    let e = engine(); // pruned: the V5("gpcr") rewriting wins
    let result = e.cite(&q).unwrap();
    assert!(result.tuples.len() > 1);
    let first = &result.tuples[0].citation;
    for tc in &result.tuples {
        assert_eq!(
            &tc.citation, first,
            "all tuples share the single V5(\"gpcr\") citation"
        );
    }
    // Agg (union, idempotent) collapses them to one record
    assert!(
        matches!(result.aggregate, Json::Object(_)),
        "aggregate is a single citation, got {}",
        result.aggregate
    );
}

// =====================================================================
// Example 3.5 — union vs join interpretations of · and +R
// =====================================================================

#[test]
fn example_3_5_union_interpretation() {
    let db = paper_instance();
    let c1 = v1().citation_for(&db, &[Value::str("11")]).unwrap();
    let c2 = v2().citation_for(&db, &[Value::str("11")]).unwrap();
    let union = union_records(&c1, &c2);
    // "{ {ID, Name, Committee}, {ID, Name, Text, Contributors} }"
    let Json::Array(items) = &union else {
        panic!("expected a set of records")
    };
    assert_eq!(items.len(), 2);
    assert_eq!(items[0], c1);
    assert_eq!(items[1], c2);
}

#[test]
fn example_3_5_join_interpretation_factors_common_fields() {
    let db = paper_instance();
    let c1 = v1().citation_for(&db, &[Value::str("11")]).unwrap();
    let c2 = v2().citation_for(&db, &[Value::str("11")]).unwrap();
    let joined = join_records(&c1, &c2);
    // "{ID, Name, Committee, Text, Contributors}" — one record
    assert_eq!(
        joined.to_compact(),
        r#"{"ID": "11", "Name": "Calcitonin", "Committee": ["Hay", "Poyner"], "Text": "The calcitonin peptide family", "Contributors": ["Brown", "Smith"]}"#
    );
}

#[test]
fn example_3_5_plus_r_join_merges_member_lists() {
    // the paper's +R-as-join example merges Committee lists
    let a = Json::from_pairs([
        ("ID", Json::str("11")),
        ("Name", Json::str("Calcitonin")),
        (
            "Committee",
            Json::Array(vec![Json::str("Hay"), Json::str("Poyner")]),
        ),
    ]);
    let b = Json::from_pairs([
        ("ID", Json::str("11")),
        ("Committee", Json::Array(vec![Json::str("Brown")])),
        ("Contributors", Json::Array(vec![Json::str("Smith")])),
    ]);
    let merged = join_records(&a, &b);
    assert_eq!(
        merged.to_compact(),
        r#"{"ID": "11", "Name": "Calcitonin", "Committee": ["Hay", "Poyner", "Brown"], "Contributors": ["Smith"]}"#
    );
}

// =====================================================================
// Examples 3.6–3.8 — order relations (§3.4)
// =====================================================================

#[test]
fn example_3_6_fewest_views_order() {
    // the Q4 (one view) citation dominates the Q3 (two views) one
    let m_q4 = Monomial::token(CiteToken::view("V5", vec![Value::str("gpcr")]));
    let m_q3 = Monomial::token(CiteToken::view("V4", vec![Value::str("gpcr")])).times(
        &Monomial::token(CiteToken::view("V2", vec![Value::str("11")])),
    );
    let expr = CitationExpr::single("Q3".to_string(), Polynomial::from_monomial(m_q3)).plus_r(
        &CitationExpr::single("Q4".to_string(), Polynomial::from_monomial(m_q4)),
    );
    let policy = Policy::union_all().with_order(OrderChoice::FewestViews);
    let nf = policy.normalize(&expr, &std::collections::BTreeMap::new());
    assert_eq!(nf.num_alternatives(), 1);
    assert_eq!(nf.alternatives().next().unwrap().0, "Q4");
}

#[test]
fn example_3_7_fewest_uncovered_order() {
    // a partial rewriting's C_R marker makes it less preferable
    let covered = Monomial::token(CiteToken::view("V1", vec![Value::str("11")]));
    let partial = Monomial::token(CiteToken::view("V2", vec![Value::str("11")]))
        .times(&Monomial::token(CiteToken::base("Family")));
    let expr =
        CitationExpr::single("Qpartial".to_string(), Polynomial::from_monomial(partial)).plus_r(
            &CitationExpr::single("Qtotal".to_string(), Polynomial::from_monomial(covered)),
        );
    let policy = Policy::union_all().with_order(OrderChoice::FewestUncovered);
    let nf = policy.normalize(&expr, &std::collections::BTreeMap::new());
    assert_eq!(nf.num_alternatives(), 1);
    assert_eq!(nf.alternatives().next().unwrap().0, "Qtotal");
}

#[test]
fn example_3_8_view_inclusion_order_end_to_end() {
    // V1 (per-family) is included in V3 (whole table): prefer the
    // best-fit V1 citation over the general V3 citation.
    let views = paper_view_defs();
    let inclusion = fgcite::rewrite::view_inclusion_matrix(&views);
    // V1 ⊑ V3 holds (same body); the matrix records both directions
    assert!(inclusion[&("V3".to_string(), "V1".to_string())]);
    let expr = CitationExpr::single(
        "Qgeneral".to_string(),
        Polynomial::token(CiteToken::view("V3", vec![])),
    )
    .plus_r(&CitationExpr::single(
        "Qspecific".to_string(),
        Polynomial::token(CiteToken::view("V1", vec![Value::str("11")])),
    ));
    let policy = Policy::union_all().with_order(OrderChoice::ViewInclusion);
    let nf = policy.normalize(&expr, &inclusion);
    // V3's citation is dominated; V1 also dominated by V3? No: the
    // order prefers the included (more specific) view's citation.
    assert_eq!(nf.num_alternatives(), 1);
}

// =====================================================================
// Section 4 — fixity: versions and timestamps
// =====================================================================

#[test]
fn section_4_fixity_citations_bring_back_the_data_as_cited() {
    let mut history = VersionedDatabase::new();
    history.commit(paper_instance(), 1000, "GtoPdb 23").unwrap();
    history
        .commit_with(2000, "GtoPdb 24", |db| {
            db.insert("Family", tuple!["20", "Melatonin", "gpcr"])
                .map(|_| ())
        })
        .unwrap();
    let engine = VersionedCitationEngine::new(history, paper_views());
    let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").unwrap();
    let old = common::cite_at(&engine, VersionSelector::At(1500), &q).unwrap();
    let new = common::cite_at(&engine, VersionSelector::At(2500), &q).unwrap();
    assert_eq!(old.citation.tuples.len(), 4);
    assert_eq!(new.citation.tuples.len(), 5);
    assert_eq!(
        old.stamped_aggregate().get("Version"),
        Some(&Json::str("GtoPdb 23"))
    );
    assert_eq!(
        new.stamped_aggregate().get("Version"),
        Some(&Json::str("GtoPdb 24"))
    );
}
