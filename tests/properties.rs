//! Property-based tests over the core invariants of the model.
//!
//! The workspace builds offline, so instead of `proptest` these use a
//! small hand-rolled harness: seeded generators over
//! [`fgcite::gtopdb::rng::SmallRng`] drive each property across a few
//! hundred random cases. Failures print the failing case; rerunning
//! is deterministic because every case derives from its loop index.

mod common;

use common::order::{expr_normal_form, poly_leq, reference_order, ORDERS};
use fgcite::engine::CiteToken;
use fgcite::gtopdb::rng::SmallRng;
use fgcite::prelude::*;
use fgcite::query::{equivalent, evaluate, minimize, parse_query};
use fgcite::semiring::{
    laws, Bool, CitationExpr, CommutativeSemiring, Monomial, Natural, Polynomial, Why,
};
use fgcite::views::{join_records, union_records};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

fn token(g: &mut SmallRng) -> String {
    const TOKENS: [&str; 5] = ["v1", "v2", "v3", "CR_Family", "CR_Intro"];
    TOKENS[g.gen_range(0..TOKENS.len())].to_string()
}

fn monomial(g: &mut SmallRng) -> Monomial<String> {
    let n = g.gen_range(0..4);
    Monomial::from_pairs(
        (0..n)
            .map(|_| (token(g), g.gen_range(1..3) as u32))
            .collect::<Vec<_>>(),
    )
}

fn polynomial(g: &mut SmallRng) -> Polynomial<String> {
    let n = g.gen_range(0..4);
    Polynomial::from_terms(
        (0..n)
            .map(|_| (monomial(g), g.gen_range(1..3) as u64))
            .collect::<Vec<_>>(),
    )
}

fn lowercase_str(g: &mut SmallRng, min: usize, max: usize) -> String {
    let n = g.gen_range(min..=max);
    (0..n)
        .map(|_| (b'a' + g.gen_range(0..26) as u8) as char)
        .collect()
}

fn json_leaf(g: &mut SmallRng) -> Json {
    match g.gen_range(0..4) {
        0 => Json::Null,
        1 => Json::Bool(g.gen_bool(0.5)),
        2 => Json::Int(g.gen_range(0..200) as i64 - 100),
        _ => Json::str(lowercase_str(g, 0, 6)),
    }
}

fn json_value_at(g: &mut SmallRng, depth: usize) -> Json {
    if depth == 0 || g.gen_bool(0.4) {
        return json_leaf(g);
    }
    if g.gen_bool(0.5) {
        let n = g.gen_range(0..4);
        Json::Array((0..n).map(|_| json_value_at(g, depth - 1)).collect())
    } else {
        let n = g.gen_range(0..4);
        Json::from_pairs(
            (0..n)
                .map(|_| (lowercase_str(g, 1, 4), json_value_at(g, depth - 1)))
                .collect::<Vec<_>>(),
        )
    }
}

fn json_value(g: &mut SmallRng) -> Json {
    json_value_at(g, 3)
}

fn value(g: &mut SmallRng) -> Value {
    match g.gen_range(0..5) {
        0 => Value::Null,
        1 => Value::Bool(g.gen_bool(0.5)),
        2 => Value::Int(g.next_u64() as i64),
        3 => {
            // finite floats only (the loader round-trips those)
            let numerator = g.gen_range(0..2_000_001) as f64 - 1_000_000.0;
            let denominator = [1.0, 2.0, 4.0, 10.0, 1000.0][g.gen_range(0..5)];
            Value::float(numerator / denominator)
        }
        _ => {
            let n = g.gen_range(0..=12);
            Value::str(
                (0..n)
                    .map(|_| (b' ' + g.gen_range(0..95) as u8) as char)
                    .collect::<String>(),
            )
        }
    }
}

/// Run `body` over `cases` deterministic seeds.
fn forall(cases: u64, mut body: impl FnMut(&mut SmallRng)) {
    for case in 0..cases {
        let mut g = SmallRng::seed_from_u64(0xF0F0_0000 + case);
        body(&mut g);
    }
}

// ---------------------------------------------------------------------
// Semiring laws on random polynomials
// ---------------------------------------------------------------------

#[test]
fn polynomial_semiring_laws() {
    forall(128, |g| {
        let (a, b, c) = (polynomial(g), polynomial(g), polynomial(g));
        assert_eq!(laws::check_axioms(&a, &b, &c), None, "{a} {b} {c}");
    });
}

#[test]
fn polynomial_eval_is_homomorphic() {
    forall(128, |g| {
        let (a, b) = (polynomial(g), polynomial(g));
        let val = |t: &String| Natural(t.len() as u64 % 3);
        assert_eq!(a.plus(&b).eval(val), a.eval(val).plus(&b.eval(val)));
        assert_eq!(a.times(&b).eval(val), a.eval(val).times(&b.eval(val)));
    });
}

#[test]
fn polynomial_eval_bool_tracks_zero() {
    forall(128, |g| {
        // valuating everything true: zero polynomial ⇔ false
        let p = polynomial(g);
        let truth = p.eval(|_| Bool(true));
        assert_eq!(truth, Bool(!p.is_zero_poly()), "{p}");
    });
}

#[test]
fn why_provenance_laws() {
    forall(128, |g| {
        let (a, b, c) = (polynomial(g), polynomial(g), polynomial(g));
        let to_why = |p: &Polynomial<String>| p.eval(|t| Why::token(t.clone()));
        assert_eq!(
            laws::check_axioms(&to_why(&a), &to_why(&b), &to_why(&c)),
            None
        );
    });
}

#[test]
fn squash_is_idempotent() {
    forall(128, |g| {
        let p = polynomial(g);
        assert_eq!(p.squash().squash(), p.squash());
        assert_eq!(
            p.squash_coefficients().squash_coefficients(),
            p.squash_coefficients()
        );
    });
}

// ---------------------------------------------------------------------
// §3.4 normal forms
// ---------------------------------------------------------------------

/// The paper's five views: every view token cites one of them.
const VIEWS: [&str; 5] = ["V1", "V2", "V3", "V4", "V5"];

/// A view token (one of three valuations, the empty one included) or,
/// one time in five, a `C_R` marker.
fn cite_token(g: &mut SmallRng) -> CiteToken {
    if g.gen_bool(0.2) {
        return CiteToken::base(["Family", "FC"][g.gen_range(0..2)]);
    }
    let valuation = match g.gen_range(0..3) {
        0 => Vec::new(),
        1 => vec![Value::str("11")],
        _ => vec![Value::str("12")],
    };
    CiteToken::view(VIEWS[g.gen_range(0..VIEWS.len())], valuation)
}

/// 1–8 monomials of 0–3 tokens, exponents and coefficients up to 2.
fn cite_polynomial(g: &mut SmallRng) -> Polynomial<CiteToken> {
    let n = g.gen_range(1..9);
    Polynomial::from_terms(
        (0..n)
            .map(|_| {
                let k = g.gen_range(0..4);
                let m = Monomial::from_pairs(
                    (0..k)
                        .map(|_| (cite_token(g), g.gen_range(1..3) as u32))
                        .collect::<Vec<_>>(),
                );
                (m, g.gen_range(1..3) as u64)
            })
            .collect::<Vec<_>>(),
    )
}

/// 1–6 alternatives over six labels (a repeated label merges with `+`).
fn cite_expr(g: &mut SmallRng) -> CitationExpr<String, CiteToken> {
    let n = g.gen_range(1..7);
    (0..n).fold(CitationExpr::zero_r(), |acc, _| {
        let label = format!("Q{}", g.gen_range(0..6));
        acc.plus_r(&CitationExpr::single(label, cite_polynomial(g)))
    })
}

/// The engine's view-inclusion matrix over the paper's views.
fn paper_inclusion() -> BTreeMap<(String, String), bool> {
    use fgcite::query::Dependencies;
    use fgcite::rewrite::{view_inclusion_matrix, ViewDefs};
    let catalog = fgcite::gtopdb::paper_instance().catalog().clone();
    let defs = ViewDefs::new(fgcite::gtopdb::paper_views().iter().map(|v| v.view.clone()))
        .with_dependencies(Dependencies::from_catalog(&catalog));
    view_inclusion_matrix(&defs)
}

/// A random matrix over the paper's view names: not reflexive,
/// transitive or antisymmetric unless by chance.
fn random_inclusion(g: &mut SmallRng) -> BTreeMap<(String, String), bool> {
    let mut matrix = BTreeMap::new();
    for a in VIEWS {
        for b in VIEWS {
            matrix.insert((a.to_string(), b.to_string()), g.gen_bool(0.35));
        }
    }
    matrix
}

/// `Policy::normalize` under `order`, as (label, polynomial) pairs.
fn normalized(
    order: OrderChoice,
    expr: &CitationExpr<String, CiteToken>,
    inclusion: &BTreeMap<(String, String), bool>,
) -> Vec<(String, Polynomial<CiteToken>)> {
    let nf = Policy::default()
        .with_order(order)
        .normalize(expr, inclusion);
    nf.alternatives()
        .map(|(r, p)| (r.clone(), p.clone()))
        .collect()
}

/// The engine's normal forms equal the pairwise definitions for every
/// order, under the paper's inclusion matrix and under random ones.
#[test]
fn normalize_matches_the_pairwise_reference() {
    let paper = paper_inclusion();
    forall(256, |g| {
        let expr = cite_expr(g);
        let random = random_inclusion(g);
        for inclusion in [&paper, &random] {
            for order in ORDERS {
                let reference = expr_normal_form(&expr, &*reference_order(order, inclusion));
                assert_eq!(
                    normalized(order, &expr, inclusion),
                    reference,
                    "{order:?} on {expr} under {inclusion:?}"
                );
            }
        }
    });
}

#[test]
fn normal_form_is_idempotent() {
    let paper = paper_inclusion();
    forall(128, |g| {
        let expr = cite_expr(g);
        for order in ORDERS {
            let policy = Policy::default().with_order(order);
            let nf = policy.normalize(&expr, &paper);
            assert_eq!(policy.normalize(&nf, &paper), nf, "{order:?} on {expr}");
        }
    });
}

#[test]
fn normal_form_never_grows() {
    let paper = paper_inclusion();
    forall(128, |g| {
        let expr = cite_expr(g);
        for order in ORDERS {
            let nf = Policy::default().with_order(order).normalize(&expr, &paper);
            assert!(nf.num_alternatives() <= expr.num_alternatives());
            assert!(
                nf.total_monomials() <= expr.total_monomials(),
                "{order:?} on {expr}"
            );
        }
    });
}

#[test]
fn normal_form_equivalent_to_original() {
    let paper = paper_inclusion();
    forall(128, |g| {
        // p ≤ nf(p) and nf(p) ≤ p under the lifted order
        let p = cite_polynomial(g);
        let expr = CitationExpr::single("Q".to_string(), p.clone());
        for order in ORDERS {
            let nf = Policy::default().with_order(order).normalize(&expr, &paper);
            let (_, q) = nf.alternatives().next().expect("one alternative");
            let reference = reference_order(order, &paper);
            assert!(poly_leq(q, &p, &*reference), "{order:?}: {q} vs {p}");
            assert!(poly_leq(&p, q, &*reference), "{order:?}: {p} vs {q}");
        }
    });
}

#[test]
fn poly_leq_is_reflexive_and_transitive() {
    let paper = paper_inclusion();
    forall(128, |g| {
        let (a, b, c) = (cite_polynomial(g), cite_polynomial(g), cite_polynomial(g));
        for order in ORDERS {
            let reference = reference_order(order, &paper);
            assert!(poly_leq(&a, &a, &*reference));
            if poly_leq(&a, &b, &*reference) && poly_leq(&b, &c, &*reference) {
                assert!(poly_leq(&a, &c, &*reference), "{order:?}: {a} {b} {c}");
            }
        }
    });
}

// ---------------------------------------------------------------------
// JSON combinators (Example 3.5 algebra)
// ---------------------------------------------------------------------

/// Union treats its operands as record *sets*: flatten one level,
/// drop the empty citation (`Null`), deduplicate. The algebra laws
/// hold on union-normalized values (the closure of that domain).
fn norm(a: &Json) -> Json {
    union_records(a, &Json::Null)
}

#[test]
fn union_is_commutative_up_to_equivalence() {
    forall(256, |g| {
        let (a, b) = (json_value(g), json_value(g));
        let ab = union_records(&a, &b);
        let ba = union_records(&b, &a);
        assert!(ab.equivalent(&ba), "{ab} vs {ba}");
    });
}

#[test]
fn union_is_idempotent() {
    forall(256, |g| {
        let n = norm(&json_value(g));
        let u = union_records(&n, &n);
        assert!(u.equivalent(&n), "{u} vs {n}");
    });
}

#[test]
fn union_is_associative_up_to_equivalence() {
    forall(256, |g| {
        let (a, b, c) = (
            norm(&json_value(g)),
            norm(&json_value(g)),
            norm(&json_value(g)),
        );
        let l = union_records(&union_records(&a, &b), &c);
        let r = union_records(&a, &union_records(&b, &c));
        assert!(l.equivalent(&r), "{l} vs {r}");
    });
}

#[test]
fn null_is_neutral_for_both_combinators() {
    forall(256, |g| {
        let n = norm(&json_value(g));
        assert_eq!(union_records(&n, &Json::Null), n.clone());
        assert_eq!(join_records(&n, &Json::Null), n.clone());
    });
}

#[test]
fn join_is_idempotent_on_objects() {
    forall(256, |g| {
        let a = json_value(g);
        if matches!(a, Json::Object(_)) {
            assert!(join_records(&a, &a).equivalent(&a));
        }
    });
}

#[test]
fn serialization_round_trips_canonical() {
    forall(256, |g| {
        let a = json_value(g);
        // canonical is a fixpoint
        assert_eq!(a.canonical().canonical(), a.canonical());
        // compact output of canonical forms decides equivalence
        assert!(a.canonical().to_compact() == a.canonical().to_compact());
    });
}

// ---------------------------------------------------------------------
// Value total order and loader round-trip
// ---------------------------------------------------------------------

#[test]
fn value_render_parse_round_trips() {
    forall(512, |g| {
        let v = value(g);
        let rendered = v.render();
        let parsed = Value::parse(&rendered);
        assert_eq!(parsed, Some(v), "rendered as {rendered}");
    });
}

#[test]
fn value_ordering_is_total_and_antisymmetric() {
    forall(512, |g| {
        use std::cmp::Ordering;
        let (a, b) = (value(g), value(g));
        match a.cmp(&b) {
            Ordering::Less => assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => assert_eq!(b.cmp(&a), Ordering::Less),
            Ordering::Equal => assert_eq!(b.cmp(&a), Ordering::Equal),
        }
    });
}

#[test]
fn equal_values_hash_equal() {
    forall(512, |g| {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let (a, b) = (value(g), value(g));
        if a == b {
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            assert_eq!(ha.finish(), hb.finish());
        }
    });
}

// ---------------------------------------------------------------------
// Query layer: containment, minimization, evaluation consistency
// ---------------------------------------------------------------------

/// A pool of small safe queries over the GtoPdb schema.
fn query_pool() -> Vec<ConjunctiveQuery> {
    [
        "Q(N) :- Family(F, N, Ty)",
        "Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"",
        "Q(N) :- Family(F, N, \"gpcr\")",
        "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)",
        "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"",
        "Q(Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)",
        "Q(N) :- Family(F, N, Ty), Family(F, N2, Ty2)",
        "Q(F) :- FC(F, P), FIC(F, P2)",
    ]
    .iter()
    .map(|s| parse_query(s).unwrap())
    .collect()
}

#[test]
fn containment_is_reflexive_and_respects_renaming() {
    for q in &query_pool() {
        assert!(equivalent(q, q));
        let renamed = q.freshen("_zz");
        assert!(equivalent(q, &renamed));
    }
}

#[test]
fn minimization_preserves_equivalence() {
    for q in &query_pool() {
        let min = minimize(q);
        assert!(equivalent(&min, q), "{min} vs {q}");
        assert!(min.atoms.len() <= q.atoms.len());
    }
}

#[test]
fn evaluation_agrees_with_minimized_query() {
    for seed in 0u64..8 {
        let db = fgcite::gtopdb::generate(&fgcite::gtopdb::GeneratorConfig::tiny().with_seed(seed));
        for q in &query_pool() {
            let min = minimize(q);
            let mut a = evaluate(&db, q).unwrap();
            let mut b = evaluate(&db, &min).unwrap();
            a.sort();
            b.sort();
            assert_eq!(a, b, "seed {seed}, query {q}");
        }
    }
}

#[test]
fn atom_order_does_not_change_results() {
    for seed in 0u64..5 {
        let db = fgcite::gtopdb::generate(&fgcite::gtopdb::GeneratorConfig::tiny().with_seed(seed));
        for q in &query_pool() {
            let mut reversed = q.clone();
            reversed.atoms.reverse();
            reversed.comparisons.reverse();
            let mut a = evaluate(&db, q).unwrap();
            let mut b = evaluate(&db, &reversed).unwrap();
            a.sort();
            b.sort();
            assert_eq!(a, b, "seed {seed}, query {q}");
        }
    }
}

// ---------------------------------------------------------------------
// Engine: rewriting soundness and plan independence at scale
// ---------------------------------------------------------------------

#[test]
fn rewriting_expansions_evaluate_like_the_query() {
    use fgcite::rewrite::{enumerate_rewritings, RewriteOptions, ViewDefs};
    for seed in 0u64..4 {
        let db = fgcite::gtopdb::generate(&fgcite::gtopdb::GeneratorConfig::tiny().with_seed(seed));
        let views = ViewDefs::new(fgcite::gtopdb::paper_views().iter().map(|v| v.view.clone()));
        for q in query_pool().iter().take(5) {
            let e = enumerate_rewritings(q, &views, RewriteOptions::default()).unwrap();
            let mut expected = evaluate(&db, q).unwrap();
            expected.sort();
            for r in &e.rewritings {
                let expansion = r.expand(&views).unwrap();
                let mut got = evaluate(&db, &expansion).unwrap();
                got.sort();
                assert_eq!(&got, &expected, "rewriting {r} diverges on seed {seed}");
            }
        }
    }
}

/// Views whose heads repeat a variable (`W1`) or carry a constant
/// (`W2`), one that projects a column away (`W3`, so one extent tuple
/// has several derivations), and the paper's `V2` to join with.
fn odd_views() -> Vec<CitationView> {
    [
        "lambda F. W1(F, F, N) :- Family(F, N, Ty)",
        "lambda F. W2(F, N, \"gpcr\") :- Family(F, N, \"gpcr\")",
        "lambda F. W3(F) :- FC(F, C)",
    ]
    .iter()
    .map(|text| {
        let view = parse_query(text).unwrap();
        let citation_query = parse_query("lambda F. C(F, N) :- Family(F, N, Ty)").unwrap();
        let function = CitationFunction::from_spec(vec![CitationFunction::scalar("ID", 0)]);
        CitationView::new(view, citation_query, function)
    })
    .chain([fgcite::gtopdb::views::v2()])
    .collect()
}

/// Per answer tuple of a rewriting, the λ-valuation each of its view
/// subgoals takes under each binding (Def. 3.3's input), as a set.
type Valuations = std::collections::BTreeSet<(Tuple, Vec<Vec<Value>>)>;

fn valuations(
    rewriting: &fgcite::rewrite::Rewriting,
    grouped: Vec<(Tuple, Vec<fgcite::query::Binding>)>,
) -> Valuations {
    let mut out = Valuations::new();
    for (tuple, bindings) in grouped {
        for binding in bindings {
            let resolve = |t: &&fgcite::query::Term| match t {
                fgcite::query::Term::Const(v) => v.clone(),
                fgcite::query::Term::Var(v) => binding[v.as_str()].clone(),
            };
            let per_view = rewriting
                .view_atoms()
                .map(|v| v.param_terms().iter().map(resolve).collect())
                .collect();
            out.insert((tuple.clone(), per_view));
        }
    }
    out
}

/// `db` plus one relation per view holding its extent
/// ([`CitationView::extent`]), typed after the base column each head
/// term comes from.
fn with_extents(db: &Database, views: &[CitationView]) -> Database {
    let mut extended = db.clone();
    for view in views {
        let types: Vec<(String, DataType)> = view
            .view
            .head
            .iter()
            .enumerate()
            .map(|(i, term)| {
                let ty = match term {
                    fgcite::query::Term::Const(v) => v.data_type(),
                    fgcite::query::Term::Var(x) => view
                        .view
                        .atoms
                        .iter()
                        .find_map(|a| {
                            let column = a.terms.iter().position(|t| t.as_var() == Some(x))?;
                            let schema = db.relation(&a.relation).unwrap().schema();
                            Some(schema.attributes[column].ty)
                        })
                        .unwrap(),
                };
                (format!("c{i}"), ty)
            })
            .collect();
        let columns: Vec<(&str, DataType)> = types.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        extended
            .create_relation(RelationSchema::with_names(view.name.clone(), &columns, &[]).unwrap())
            .unwrap();
        extended
            .insert_all(&view.name, view.extent(db).unwrap())
            .unwrap();
    }
    extended
}

/// Def. 3.3 needs, per answer tuple, only the set of λ-valuations a
/// rewriting's view subgoals take. Evaluating the rewriting over
/// materialized view extents and evaluating its expansion over the
/// base data give the same set, for the paper's views and for views
/// with repeated variables, constants and projections in their heads.
#[test]
fn extent_and_expansion_give_the_same_valuations() {
    use fgcite::query::evaluate_grouped;
    use fgcite::rewrite::{enumerate_rewritings, RewriteOptions, ViewDefs};
    let view_sets = [
        fgcite::gtopdb::paper_views()
            .iter()
            .map(|v| (**v).clone())
            .collect(),
        odd_views(),
    ];
    let mut used: std::collections::BTreeSet<String> = Default::default();
    for seed in 0u64..4 {
        let db = fgcite::gtopdb::generate(&fgcite::gtopdb::GeneratorConfig::tiny().with_seed(seed));
        for views in &view_sets {
            let defs = ViewDefs::new(views.iter().map(|v| v.view.clone()));
            let extents = with_extents(&db, views);
            for q in &query_pool() {
                let e = enumerate_rewritings(q, &defs, RewriteOptions::default()).unwrap();
                for r in &e.rewritings {
                    let over_extents = evaluate_grouped(&extents, &r.as_extent_query()).unwrap();
                    let over_base = evaluate_grouped(&db, &r.expand(&defs).unwrap()).unwrap();
                    assert_eq!(
                        valuations(r, over_extents),
                        valuations(r, over_base),
                        "rewriting {r} of {q}, seed {seed}"
                    );
                    used.extend(r.view_atoms().map(|v| v.view.clone()));
                }
            }
        }
    }
    for view in ["W1", "W2", "W3", "V1", "V4", "V5"] {
        assert!(used.contains(view), "no rewriting used {view}: {used:?}");
    }
}

/// The four `adhoc` templates of the benchmark over type `ty` and
/// family `fid`: T0–T3 of `fgc_gtopdb::workload` (type selection over
/// 1–4 joined atoms) with an `F != k` slot.
fn adhoc_queries(ty: &str, fid: &Value) -> Vec<ConjunctiveQuery> {
    [
        "Q(N) :- Family(F, N, Ty), Ty = {TYPE}, F != {FID}",
        "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = {TYPE}, F != {FID}",
        "Q(Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A), Ty = {TYPE}, F != {FID}",
        "Q(Pn) :- Family(F, N, Ty), FamilyIntro(F, Tx), FIC(F, C), Person(C, Pn, A), Ty = {TYPE}, F != {FID}",
    ]
    .iter()
    .map(|t| {
        let text = t
            .replace("{TYPE}", &format!("{ty:?}"))
            .replace("{FID}", &fid.render());
        parse_query(&text).unwrap()
    })
    .collect()
}

/// The engine's symbolic build — each derivation of a rewriting's
/// expansion projected to its λ-valuation row, each distinct row made
/// one monomial, `+R` accumulated in place — gives every answer tuple
/// the citation Defs. 3.1–3.3 define binding by binding
/// ([`common::build`]), once both pass through the same
/// `Policy::normalize`. Under the union and the default policy, in
/// both modes; over the paper's views and views with repeated
/// variables, constants and projections in their heads; for the
/// paper's queries, seeded random workload queries and the four
/// `adhoc` templates. A view atom with a constant λ-argument and a
/// rewriting that cites one view twice are among the cases.
#[test]
fn symbolic_build_matches_the_per_binding_definition() {
    use common::build::citations_by_definition;
    use fgcite::rewrite::{view_inclusion_matrix, ViewDefs};
    let mut odd = ViewRegistry::new();
    for view in odd_views() {
        odd.add(view).unwrap();
    }
    let view_sets = [fgcite::gtopdb::paper_views(), odd];
    let mut cases = vec![(fgcite::gtopdb::paper_instance(), common::queries())];
    for seed in 0u64..3 {
        let db = fgcite::gtopdb::generate(&fgcite::gtopdb::GeneratorConfig::tiny().with_seed(seed));
        let mut queries = common::workload(&db, seed, 6);
        let fid = db.relation("Family").unwrap().rows()[seed as usize][0].clone();
        queries.extend(adhoc_queries(
            &fgcite::gtopdb::type_name(seed as usize),
            &fid,
        ));
        cases.push((db, queries));
    }
    let (mut constant_param, mut repeated_view) = (false, false);
    for (db, queries) in &cases {
        for registry in &view_sets {
            let defs = ViewDefs::new(registry.iter().map(|v| v.view.clone()))
                .with_dependencies(fgcite::query::Dependencies::from_catalog(db.catalog()));
            let inclusion = view_inclusion_matrix(&defs);
            for policy in [Policy::union_all(), Policy::default()] {
                for mode in [RewriteMode::Exhaustive, RewriteMode::Pruned] {
                    let engine = CitationEngine::new(db.clone(), registry.clone())
                        .unwrap()
                        .with_policy(policy.clone())
                        .with_options(EngineOptions {
                            mode,
                            ..EngineOptions::default()
                        });
                    for q in queries {
                        let cited = engine.cite(q).unwrap();
                        let mut expected = citations_by_definition(db, &defs, &cited.rewritings);
                        for tc in &cited.tuples {
                            let reference = expected
                                .remove(&tc.tuple)
                                .unwrap_or_else(CitationExpr::zero_r);
                            assert_eq!(
                                policy.normalize(&tc.expr, &inclusion),
                                policy.normalize(&reference, &inclusion),
                                "{q}, tuple {}, {:?}, {mode:?}",
                                tc.tuple,
                                policy.order
                            );
                        }
                        assert!(expected.is_empty(), "{q}: tuples beyond the answers");
                        for (_, r) in &cited.rewritings {
                            let views: Vec<&str> =
                                r.view_atoms().map(|v| v.view.as_str()).collect();
                            constant_param |= r.view_atoms().any(|v| v.absorbed_params() > 0);
                            repeated_view |=
                                (1..views.len()).any(|i| views[..i].contains(&views[i]));
                        }
                    }
                }
            }
        }
    }
    assert!(constant_param, "no view atom with a constant λ-argument");
    assert!(repeated_view, "no rewriting citing one view twice");
}

#[test]
fn engine_citations_are_plan_independent() {
    for seed in 0u64..10 {
        let db = fgcite::gtopdb::generate(&fgcite::gtopdb::GeneratorConfig::tiny().with_seed(seed));
        let q =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        let mut permuted = q.clone();
        permuted.atoms.reverse();
        let e1 = common::exhaustive_union(common::engine(db.clone()));
        let e2 = common::exhaustive_union(common::engine(db));
        let c1 = e1.cite(&q).unwrap();
        let c2 = e2.cite(&permuted).unwrap();
        assert_eq!(c1.tuples.len(), c2.tuples.len());
        for tc in &c1.tuples {
            let other = c2.tuples.iter().find(|t| t.tuple == tc.tuple).unwrap();
            assert_eq!(&tc.expr, &other.expr);
        }
    }
}

// ---------------------------------------------------------------------
// Versioning: snapshot immutability
// ---------------------------------------------------------------------

#[test]
fn snapshots_immutable_under_later_commits() {
    for extra in 1usize..6 {
        let mut history = VersionedDatabase::new();
        history
            .commit(fgcite::gtopdb::paper_instance(), 0, "v0")
            .unwrap();
        let baseline = history.snapshot(0).unwrap().1.total_tuples();
        for i in 0..extra {
            history
                .commit_with((i as u64 + 1) * 10, format!("v{}", i + 1), |db| {
                    db.insert(
                        "Family",
                        tuple![format!("x{i}"), format!("Fam-x{i}"), "gpcr"],
                    )
                    .map(|_| ())
                })
                .unwrap();
        }
        assert_eq!(history.snapshot(0).unwrap().1.total_tuples(), baseline);
        assert_eq!(history.head().unwrap().1.total_tuples(), baseline + extra);
    }
}

#[test]
fn old_version_citations_unaffected_by_later_commits() {
    // Cite a version, keep committing (inserts *and* removals), cite
    // it again: the rendered citation must not move by a byte, even
    // though every later version is served through the same engine
    // and caches as the version being pinned.
    let mut engine = {
        let mut history = VersionedDatabase::new();
        history
            .commit(fgcite::gtopdb::paper_instance(), 0, "v0")
            .unwrap();
        VersionedCitationEngine::new(history, fgcite::gtopdb::paper_views())
    };
    let q = parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)").unwrap();
    let mut pinned: Vec<String> = Vec::new();
    for step in 0u64..5 {
        pinned.push(common::render_versioned(
            &common::cite_at(&engine, VersionSelector::Id(step), &q).unwrap(),
        ));
        engine
            .commit_with((step + 1) * 10, format!("v{}", step + 1), |db| {
                let removed = db.relation("FamilyIntro")?.rows().first().cloned();
                if let Some(t) = removed {
                    db.remove("FamilyIntro", &t)?;
                }
                db.insert(
                    "FamilyIntro",
                    tuple![format!("1{step}"), format!("intro {step}")],
                )
                .map(|_| ())
            })
            .unwrap();
        for (v, expected) in pinned.iter().enumerate() {
            let again = common::render_versioned(
                &common::cite_at(&engine, VersionSelector::Id(v as u64), &q).unwrap(),
            );
            assert_eq!(&again, expected, "version {v} drifted after commit {step}");
        }
    }
    let stats = engine.version_stats();
    assert_eq!(
        stats.rebuilt, 1,
        "one engine serves every version: {stats:?}"
    );
}

#[test]
fn unknown_version_cite_is_a_structured_error_not_a_panic() {
    let mut history = VersionedDatabase::new();
    history
        .commit(fgcite::gtopdb::paper_instance(), 0, "v0")
        .unwrap();
    history
        .commit_with(10, "v1", |db| {
            db.insert("Family", tuple!["zz", "Z", "gpcr"]).map(|_| ())
        })
        .unwrap();
    let engine = VersionedCitationEngine::new(history, fgcite::gtopdb::paper_views());
    let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
    common::cite_at(&engine, VersionSelector::Id(1), &q).unwrap(); // warm the delta path
    for bad in [2u64, 17, u64::MAX] {
        assert!(
            matches!(
                common::cite_at(&engine, VersionSelector::Id(bad), &q).unwrap_err(),
                fgcite::engine::CoreError::NoSuchVersion(_)
            ),
            "version {bad}"
        );
    }
}

// ---------------------------------------------------------------------
// Differential testing against the by-definition reference
// ---------------------------------------------------------------------

/// Random tiny databases over a two-relation schema, plus random
/// small queries: all three collectors must agree with the folds of
/// the oracle's derivations on all of them.
mod differential {
    use super::*;
    use common::Collected;
    use fgcite::relation::schema::RelationSchema;

    fn tiny_random_db(rows_r: &[(i64, i64)], rows_s: &[(i64, i64)]) -> Database {
        let mut db = Database::new();
        for (name, columns) in [
            ("R", [("a", DataType::Int), ("b", DataType::Int)]),
            ("S", [("b", DataType::Int), ("c", DataType::Int)]),
        ] {
            db.create_relation(RelationSchema::with_names(name, &columns, &[]).unwrap())
                .unwrap();
        }
        for (a, b) in rows_r {
            db.insert("R", tuple![*a, *b]).unwrap();
        }
        for (b, c) in rows_s {
            db.insert("S", tuple![*b, *c]).unwrap();
        }
        db
    }

    fn random_rows(g: &mut SmallRng) -> Vec<(i64, i64)> {
        let n = g.gen_range(0..6);
        (0..n)
            .map(|_| (g.gen_range(0..4) as i64, g.gen_range(0..4) as i64))
            .collect()
    }

    fn small_queries() -> Vec<ConjunctiveQuery> {
        [
            "Q(A, B) :- R(A, B)",
            "Q(A) :- R(A, B)",
            "Q(A, C) :- R(A, B), S(B, C)",
            "Q(A) :- R(A, B), S(B, C), C > 1",
            "Q(A, A2) :- R(A, B), R(A2, B), A != A2",
            "Q(A) :- R(A, B), B = 1",
            "Q(A) :- R(A, 2)",
            "Q(A, C) :- R(A, B), S(B, C), A <= C",
            "Q() :- R(A, B), S(B, C)",
            "Q(B) :- R(A, B), R(A2, B), A < A2",
        ]
        .iter()
        .map(|src| parse_query(src).unwrap())
        .collect()
    }

    fn assert_matches_reference(db: &Database) {
        for q in small_queries() {
            let expected = Collected::by_definition(db, &q);
            assert_eq!(
                Collected::by_executor(db, &q),
                expected,
                "divergence on {q}"
            );
        }
    }

    #[test]
    fn optimized_evaluator_matches_reference() {
        forall(48, |g| {
            assert_matches_reference(&tiny_random_db(&random_rows(g), &random_rows(g)));
        });
    }

    #[test]
    fn indexes_never_change_semantics() {
        // an index on every column: the executor probes wherever a
        // value is bound, the oracle only scans
        forall(48, |g| {
            let mut db = tiny_random_db(&random_rows(g), &random_rows(g));
            for rel in ["R", "S"] {
                for col in 0..2 {
                    db.relation_mut(rel).unwrap().build_index(col).unwrap();
                }
            }
            assert_matches_reference(&db);
        });
    }
}
