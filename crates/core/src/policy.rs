//! Citation policies — the owner-chosen interpretations of the
//! abstract combining functions (§3.3 of the paper):
//!
//! > "The database owner specifies a policy by which citations to
//! > general queries are constructed by choosing an interpretation of
//! > the combining functions +, ·, +R, and Agg."

use crate::token::CiteToken;
use fgc_semiring::order::{FewestUncovered, FewestViews, Lexicographic, NoOrder, TokenDominance};
use fgc_semiring::{CitationExpr, Monomial};
use fgc_views::{join_records, union_records, Json};
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
    /// No order: keep every rewriting's citation (the raw Def. 3.3
    /// semantics).
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
    /// interpretation (§3.4). `None` keeps all alternatives.
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
    pub fn normalize<R: Ord + Clone + std::fmt::Debug>(
        &self,
        expr: &CitationExpr<R, CiteToken>,
        inclusion: &BTreeMap<(String, String), bool>,
    ) -> CitationExpr<R, CiteToken> {
        match self.order {
            OrderChoice::None => expr.normal_form(&NoOrder),
            OrderChoice::FewestViews => expr.normal_form(&FewestViews::new(CiteToken::is_view)),
            OrderChoice::FewestUncovered => {
                expr.normal_form(&FewestUncovered::new(CiteToken::is_base))
            }
            OrderChoice::ViewInclusion => {
                expr.normal_form(&TokenDominance::new(token_inclusion_leq(inclusion)))
            }
            OrderChoice::Composite => {
                let order = Lexicographic::new(
                    FewestUncovered::new(CiteToken::is_base),
                    Lexicographic::new(
                        FewestViews::new(CiteToken::is_view),
                        TokenDominance::new(token_inclusion_leq(inclusion)),
                    ),
                );
                expr.normal_form(&order)
            }
        }
    }
}

/// Token-level preorder for Example 3.8: token `a ≤ b` iff both are
/// view citations and `b`'s view is included in `a`'s view (the more
/// general view is less preferable). `C_R` markers are incomparable
/// to everything except themselves.
fn token_inclusion_leq(
    inclusion: &BTreeMap<(String, String), bool>,
) -> impl Fn(&CiteToken, &CiteToken) -> bool + '_ {
    move |a: &CiteToken, b: &CiteToken| {
        if a == b {
            return true;
        }
        match (a, b) {
            (CiteToken::View { view: va, .. }, CiteToken::View { view: vb, .. }) => {
                *inclusion.get(&(va.clone(), vb.clone())).unwrap_or(&false)
            }
            _ => false,
        }
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
}
