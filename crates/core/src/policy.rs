//! Citation policies — the owner-chosen interpretations of the
//! abstract combining functions (§3.3 of the paper):
//!
//! > "The database owner specifies a policy by which citations to
//! > general queries are constructed by choosing an interpretation of
//! > the combining functions +, ·, +R, and Agg."

use crate::token::CiteToken;
use fgc_semiring::{maximal, CitationExpr, Monomial};
use fgc_views::{join_records, union_records, Json};
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// Interpretation of a binary combining function on JSON citations —
/// the two "natural interpretations" of Example 3.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CombineOp {
    /// "simply the union of the records": collect into a set.
    #[default]
    Union,
    /// "'joins' the records, i.e. factors out common elements".
    Join,
}

impl CombineOp {
    /// Apply the interpretation.
    pub fn apply(self, a: &Json, b: &Json) -> Json {
        match self {
            CombineOp::Union => union_records(a, b),
            CombineOp::Join => join_records(a, b),
        }
    }
}

/// Which §3.4 order to use for citation normal forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderChoice {
    /// No order: only equal monomials compare. Every monomial stays;
    /// `+R` drops only an alternative whose monomials another
    /// alternative also has (§3.4's lifting of the trivial order).
    #[default]
    None,
    /// Example 3.6: prefer citations built from fewer views.
    FewestViews,
    /// Example 3.7: prefer citations with fewer uncovered `C_R`
    /// markers.
    FewestUncovered,
    /// Example 3.8: prefer citations from *included* ("best fit")
    /// views; requires the view-inclusion matrix.
    ViewInclusion,
    /// Fewest uncovered, then fewest views, then view inclusion —
    /// the composite matching §2.3's full preference discussion.
    Composite,
}

/// A citation policy: interpretations for `+`, `·`, `+R`, `Agg`, an
/// order for normal forms, and the neutral citations `Agg` always
/// includes ("for example, this could be the database name or its NAR
/// Database issue publication", §3.2).
#[derive(Debug, Clone)]
pub struct Policy {
    /// Interpretation of `·` (joint use within a binding).
    pub times: CombineOp,
    /// Interpretation of `+` (alternative bindings).
    pub plus: CombineOp,
    /// Interpretation of `+R` (alternative rewritings).
    pub plus_r: CombineOp,
    /// Interpretation of `Agg` (across output tuples).
    pub agg: CombineOp,
    /// Order used to normalize citation expressions before
    /// interpretation (§3.4). `None` keeps every monomial.
    pub order: OrderChoice,
    /// Citations included by `Agg`'s neutral element — present even
    /// when the query output is empty.
    pub global_citations: Vec<Json>,
}

impl Default for Policy {
    /// The paper's "concise" default: join-merge everything, prefer
    /// the composite order.
    fn default() -> Self {
        Policy {
            times: CombineOp::Join,
            plus: CombineOp::Union,
            plus_r: CombineOp::Union,
            agg: CombineOp::Union,
            order: OrderChoice::Composite,
            global_citations: Vec::new(),
        }
    }
}

impl Policy {
    /// A fully union-based policy (most verbose, lossless).
    pub fn union_all() -> Self {
        Policy {
            times: CombineOp::Union,
            plus: CombineOp::Union,
            plus_r: CombineOp::Union,
            agg: CombineOp::Union,
            order: OrderChoice::None,
            global_citations: Vec::new(),
        }
    }

    /// A fully join-based policy (most compact single record).
    pub fn join_all() -> Self {
        Policy {
            times: CombineOp::Join,
            plus: CombineOp::Join,
            plus_r: CombineOp::Join,
            agg: CombineOp::Join,
            order: OrderChoice::Composite,
            global_citations: Vec::new(),
        }
    }

    /// Add a neutral (always-present) citation.
    pub fn with_global(mut self, citation: Json) -> Self {
        self.global_citations.push(citation);
        self
    }

    /// Set the order choice.
    pub fn with_order(mut self, order: OrderChoice) -> Self {
        self.order = order;
        self
    }

    /// Normalize a citation expression under the policy's order.
    /// `inclusion` is the view-inclusion matrix
    /// (`(general, specific) → specific ⊑ general`), needed by
    /// [`OrderChoice::ViewInclusion`] and [`OrderChoice::Composite`].
    ///
    /// Each order is a key per monomial plus a dominance preorder
    /// within one key class ([`CitationExpr::normal_form`]). Examples
    /// 3.6 and 3.7 are scalar keys — fewer views, fewer `C_R` markers
    /// — whose classes are all equivalent; the composite keys by
    /// both, uncovered first. Example 3.8 is the dominance: one
    /// monomial is below another when each of its inclusion-reduced
    /// tokens is below one of the other's.
    pub fn normalize<R: Ord + Clone + std::fmt::Debug>(
        &self,
        expr: &CitationExpr<R, CiteToken>,
        inclusion: &BTreeMap<(String, String), bool>,
    ) -> CitationExpr<R, CiteToken> {
        let views = |m: &Monomial<CiteToken>| Reverse(m.degree_where(CiteToken::is_view));
        let uncovered = |m: &Monomial<CiteToken>| Reverse(m.degree_where(CiteToken::is_base));
        match self.order {
            // no order: only equal monomials compare
            OrderChoice::None => expr.normal_form(|m| ((), m), |a, b| a == b),
            OrderChoice::FewestViews => expr.normal_form(|m| (views(m), ()), |_, _| true),
            OrderChoice::FewestUncovered => expr.normal_form(|m| (uncovered(m), ()), |_, _| true),
            // one monomial has nothing to be compared with
            OrderChoice::ViewInclusion | OrderChoice::Composite if expr.total_monomials() < 2 => {
                expr.normal_form(|_| ((), ()), |_, _| true)
            }
            OrderChoice::ViewInclusion => {
                let tokens = TokenInclusion::new(expr, inclusion);
                expr.normal_form(|m| ((), tokens.reduce(m)), |a, b| tokens.below(a, b))
            }
            OrderChoice::Composite => {
                let tokens = TokenInclusion::new(expr, inclusion);
                expr.normal_form(
                    |m| ((uncovered(m), views(m)), tokens.reduce(m)),
                    |a, b| tokens.below(a, b),
                )
            }
        }
    }
}

/// Example 3.8's token preorder over one expression's tokens: `a ≤ b`
/// iff `a == b`, or both cite views and `b`'s view is included in
/// `a`'s (the more general view is less preferable). `C_R` markers
/// compare with themselves only.
struct TokenInclusion<'a> {
    /// The expression's distinct tokens, sorted: a token's id is its
    /// index here.
    tokens: Vec<&'a CiteToken>,
    /// Per token id, its view's row in `included` (`None`: a marker).
    views: Vec<Option<usize>>,
    /// `included[g * width + s]`: view `s` is included in view `g`.
    included: Vec<bool>,
    width: usize,
}

impl<'a> TokenInclusion<'a> {
    /// Look each pair of the expression's views up once.
    fn new<R: Ord + Clone + std::fmt::Debug>(
        expr: &'a CitationExpr<R, CiteToken>,
        inclusion: &BTreeMap<(String, String), bool>,
    ) -> Self {
        let mut tokens: Vec<&CiteToken> = expr
            .alternatives()
            .flat_map(|(_, p)| p.monomials())
            .flat_map(|m| m.tokens())
            .collect();
        tokens.sort_unstable();
        tokens.dedup();
        // view tokens sort by view name first
        let mut names: Vec<&str> = tokens.iter().filter_map(|t| t.view_name()).collect();
        names.dedup();
        let views = tokens
            .iter()
            .map(|t| t.view_name().and_then(|v| names.binary_search(&v).ok()))
            .collect();
        let included = names
            .iter()
            .flat_map(|g| names.iter().map(move |s| (g.to_string(), s.to_string())))
            .map(|pair| inclusion.get(&pair) == Some(&true))
            .collect();
        TokenInclusion {
            tokens,
            views,
            included,
            width: names.len(),
        }
    }

    /// Is token `a ≤` token `b` (by id)?
    fn leq(&self, a: usize, b: usize) -> bool {
        a == b
            || matches!((self.views[a], self.views[b]),
                (Some(g), Some(s)) if self.included[g * self.width + s])
    }

    /// A monomial's token ids less every token another of them beats
    /// (`a · b = a if b ≤ a`; equivalent tokens keep the `Ord`-least):
    /// the form Example 3.8 compares.
    fn reduce(&self, m: &Monomial<CiteToken>) -> Vec<usize> {
        let ids: Vec<usize> = m
            .tokens()
            .map(|t| {
                self.tokens
                    .binary_search(&t)
                    .expect("a token of the expression")
            })
            .collect();
        maximal(ids.len(), |_| (), |i, j| self.leq(ids[i], ids[j]))
            .into_iter()
            .map(|i| ids[i])
            .collect()
    }

    /// Is reduced monomial `a` below `b`: each of `a`'s tokens `≤` one
    /// of `b`'s?
    fn below(&self, a: &[usize], b: &[usize]) -> bool {
        a.iter().all(|&t| b.iter().any(|&u| self.leq(t, u)))
    }
}

/// Interpret one monomial (product of tokens) under the policy's `·`,
/// given a token valuation. The empty monomial yields `Json::Null`
/// (the `1` of the citation algebra: a content-free citation).
pub fn interpret_monomial<F>(
    policy: &Policy,
    monomial: &Monomial<CiteToken>,
    mut value_of: F,
) -> Json
where
    F: FnMut(&CiteToken) -> Json,
{
    let mut acc = Json::Null;
    for (token, exponent) in monomial.iter() {
        // idempotent ·: exponents do not repeat content
        let _ = exponent;
        let v = value_of(token);
        acc = policy.times.apply(&acc, &v);
    }
    acc
}

/// Interpret a whole citation expression: `·` within monomials, `+`
/// across monomials of a rewriting's polynomial, `+R` across
/// rewritings. Returns `None` for the empty expression (`0R`).
pub fn interpret_expr<R, F>(
    policy: &Policy,
    expr: &CitationExpr<R, CiteToken>,
    mut value_of: F,
) -> Option<Json>
where
    R: Ord + Clone + std::fmt::Debug,
    F: FnMut(&CiteToken) -> Json,
{
    let mut result: Option<Json> = None;
    for (_, poly) in expr.alternatives() {
        let mut poly_value: Option<Json> = None;
        for monomial in poly.monomials() {
            let m = interpret_monomial(policy, monomial, &mut value_of);
            poly_value = Some(match poly_value {
                None => m,
                Some(prev) => policy.plus.apply(&prev, &m),
            });
        }
        if let Some(pv) = poly_value {
            result = Some(match result {
                None => pv,
                Some(prev) => policy.plus_r.apply(&prev, &pv),
            });
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgc_relation::Value;
    use fgc_semiring::Polynomial;

    fn token_v1() -> CiteToken {
        CiteToken::view("V1", vec![Value::str("11")])
    }
    fn token_v2() -> CiteToken {
        CiteToken::view("V2", vec![Value::str("11")])
    }

    fn value_of(t: &CiteToken) -> Json {
        match t {
            CiteToken::View { view, .. } if view == "V1" => Json::from_pairs([
                ("ID", Json::str("11")),
                ("Committee", Json::Array(vec![Json::str("Hay")])),
            ]),
            CiteToken::View { view, .. } if view == "V2" => Json::from_pairs([
                ("ID", Json::str("11")),
                ("Contributors", Json::Array(vec![Json::str("Brown")])),
            ]),
            _ => Json::Null,
        }
    }

    #[test]
    fn monomial_interpretation_union_vs_join() {
        let m = Monomial::token(token_v1()).times(&Monomial::token(token_v2()));
        let union_policy = Policy::union_all();
        let joined_policy = Policy::join_all();
        let u = interpret_monomial(&union_policy, &m, value_of);
        let j = interpret_monomial(&joined_policy, &m, value_of);
        // union: a set of two records; join: one merged record
        assert!(matches!(u, Json::Array(items) if items.len() == 2));
        assert_eq!(j.get("ID"), Some(&Json::str("11")));
        assert!(j.get("Committee").is_some());
        assert!(j.get("Contributors").is_some());
    }

    #[test]
    fn empty_expression_interprets_to_none() {
        let expr: CitationExpr<String, CiteToken> = CitationExpr::zero_r();
        assert_eq!(interpret_expr(&Policy::default(), &expr, value_of), None);
    }

    #[test]
    fn plus_r_union_keeps_alternatives() {
        let e = CitationExpr::single("Q1".to_string(), Polynomial::token(token_v1())).plus_r(
            &CitationExpr::single("Q2".to_string(), Polynomial::token(token_v2())),
        );
        let policy = Policy::union_all();
        let out = interpret_expr(&policy, &e, value_of).unwrap();
        assert!(matches!(out, Json::Array(items) if items.len() == 2));
    }

    #[test]
    fn normalize_with_fewest_views_drops_bigger_monomial() {
        let poly_small = Polynomial::token(token_v1());
        let poly_big = Polynomial::from_monomial(
            Monomial::token(token_v1()).times(&Monomial::token(token_v2())),
        );
        let e = CitationExpr::single("Qbig".to_string(), poly_big)
            .plus_r(&CitationExpr::single("Qsmall".to_string(), poly_small));
        let policy = Policy::default().with_order(OrderChoice::FewestViews);
        let nf = policy.normalize(&e, &BTreeMap::new());
        assert_eq!(nf.num_alternatives(), 1);
        assert_eq!(*nf.alternatives().next().unwrap().0, "Qsmall".to_string());
    }

    #[test]
    fn normalize_with_view_inclusion() {
        // V3 ⊒ V1 (V1 included in V3): citation from V1 preferred
        let mut inclusion = BTreeMap::new();
        inclusion.insert(("V3".to_string(), "V1".to_string()), true);
        let tok_v3 = CiteToken::view("V3", vec![]);
        let e = CitationExpr::single("Qgen".to_string(), Polynomial::token(tok_v3)).plus_r(
            &CitationExpr::single("Qspec".to_string(), Polynomial::token(token_v1())),
        );
        let policy = Policy::default().with_order(OrderChoice::ViewInclusion);
        let nf = policy.normalize(&e, &inclusion);
        assert_eq!(nf.num_alternatives(), 1);
        assert_eq!(*nf.alternatives().next().unwrap().0, "Qspec".to_string());
    }

    #[test]
    fn normalize_none_keeps_everything() {
        let e = CitationExpr::single("Q1".to_string(), Polynomial::token(token_v1())).plus_r(
            &CitationExpr::single("Q2".to_string(), Polynomial::token(token_v2())),
        );
        let policy = Policy::union_all(); // OrderChoice::None
        assert_eq!(policy.normalize(&e, &BTreeMap::new()).num_alternatives(), 2);
    }

    #[test]
    fn default_policy_is_composite_join() {
        let p = Policy::default();
        assert_eq!(p.times, CombineOp::Join);
        assert_eq!(p.order, OrderChoice::Composite);
    }

    #[test]
    fn with_global_accumulates() {
        let p = Policy::default()
            .with_global(Json::str("GtoPdb"))
            .with_global(Json::str("NAR 2014"));
        assert_eq!(p.global_citations.len(), 2);
    }

    fn v(view: &str) -> CiteToken {
        CiteToken::view(view, vec![Value::str("11")])
    }

    fn poly(monomials: &[&[CiteToken]]) -> Polynomial<CiteToken> {
        Polynomial::from_terms(monomials.iter().map(|m| {
            let factors = m.iter().map(|t| (t.clone(), 1));
            (Monomial::from_pairs(factors), 1)
        }))
    }

    #[test]
    fn alternatives_compare_by_their_normal_forms() {
        let none = BTreeMap::new();
        let concise = CitationExpr::single("Qc".to_string(), poly(&[&[v("V5")]]));
        let verbose = CitationExpr::single(
            "Qv".to_string(),
            poly(&[&[v("V4"), v("V2")], &[v("V1"), v("V2")]]),
        );
        let e = concise.plus_r(&verbose);
        let policy = Policy::default().with_order(OrderChoice::FewestViews);
        assert_eq!(
            policy.normalize(&e, &none).to_string(),
            r#"[Qc: CV5("11")]"#
        );
        // with no order, an alternative whose monomials another holds
        // too is below it
        let small = CitationExpr::single("Q1".to_string(), poly(&[&[v("V1")]]));
        let big = CitationExpr::single("Q2".to_string(), poly(&[&[v("V1")], &[v("V2")]]));
        let nf = Policy::union_all().normalize(&small.plus_r(&big), &none);
        assert_eq!(nf.to_string(), r#"[Q2: CV1("11") + CV2("11")]"#);
    }
}
