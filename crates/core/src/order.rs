//! Unit cases of the paper's §3.4 orders (Examples 3.6–3.8), each
//! stated through [`Policy::normalize`](crate::Policy::normalize): the
//! orders are [`OrderChoice`](crate::OrderChoice)s, a key per monomial
//! plus a dominance preorder within one key class.

mod tests {
    use crate::{CiteToken, OrderChoice, Policy};
    use fgc_relation::Value;
    use fgc_semiring::{CitationExpr, CommutativeSemiring, Monomial, Polynomial};
    use std::collections::BTreeMap;

    fn v(view: &str) -> CiteToken {
        CiteToken::view(view, vec![Value::str("11")])
    }

    fn poly(monomials: &[&[CiteToken]]) -> Polynomial<CiteToken> {
        Polynomial::from_terms(monomials.iter().map(|m| {
            let factors = m.iter().map(|t| (t.clone(), 1));
            (Monomial::from_pairs(factors), 1)
        }))
    }

    /// An inclusion matrix holding `(general, specific)` pairs.
    fn includes(pairs: &[(&str, &str)]) -> BTreeMap<(String, String), bool> {
        let pairs = pairs
            .iter()
            .map(|(g, s)| ((g.to_string(), s.to_string()), true));
        pairs.collect()
    }

    /// `p` as one alternative normalized under `order`, printed.
    fn normal(
        order: OrderChoice,
        p: Polynomial<CiteToken>,
        inclusion: &BTreeMap<(String, String), bool>,
    ) -> String {
        let e = CitationExpr::single("Q".to_string(), p);
        let policy = Policy::default().with_order(order);
        policy.normalize(&e, inclusion).to_string()
    }

    #[test]
    fn fewest_views_prefers_smaller_monomials() {
        // more multiplicands is less preferable: V4·V2 < V5
        let p = poly(&[&[v("V4"), v("V2")], &[v("V5")]]);
        assert_eq!(
            normal(OrderChoice::FewestViews, p, &BTreeMap::new()),
            r#"[Q: CV5("11")]"#
        );
    }

    #[test]
    fn fewest_views_ignores_base_tokens() {
        // both are one view, so equivalent: the Ord-least stays
        let p = poly(&[&[v("V1"), CiteToken::base("Family")], &[v("V2")]]);
        assert_eq!(
            normal(OrderChoice::FewestViews, p, &BTreeMap::new()),
            r#"[Q: CV1("11")·C_Family]"#
        );
    }

    #[test]
    fn fewest_uncovered_counts_cr_atoms() {
        let p = poly(&[&[v("V1"), v("V2")], &[v("V1"), CiteToken::base("Family")]]);
        assert_eq!(
            normal(OrderChoice::FewestUncovered, p, &BTreeMap::new()),
            r#"[Q: CV1("11")·CV2("11")]"#
        );
    }

    #[test]
    fn token_dominance_normalizes_monomials() {
        // a ≤ b if a stems from V3, b from V1, and V1 ⊑ V3: the more
        // general view is less preferable, and not the other way round
        let inclusion = includes(&[("V3", "V1")]);
        let p = poly(&[&[v("V1")], &[v("V3")]]);
        let order = OrderChoice::ViewInclusion;
        assert_eq!(normal(order, p, &inclusion), r#"[Q: CV1("11")]"#);
        // V3 ≤ V1 reduces V1·V3 to V1, and V1 ≤ V2: V2 beats it,
        // though V3 alone is not below V2
        let p = poly(&[&[v("V1"), v("V3")], &[v("V2")]]);
        let inclusion = includes(&[("V3", "V1"), ("V1", "V2")]);
        assert_eq!(normal(order, p, &inclusion), r#"[Q: CV2("11")]"#);
    }

    #[test]
    fn token_dominance_equivalent_tokens_keep_one() {
        // equivalent views: V1·V3 reduces to V1 ≡ V3, the monomials
        // are equivalent and the Ord-least stays
        let v3 = || CiteToken::view("V3", vec![]);
        let p = poly(&[&[v3()], &[v("V1"), v3()]]);
        let inclusion = includes(&[("V1", "V3"), ("V3", "V1")]);
        assert_eq!(
            normal(OrderChoice::ViewInclusion, p, &inclusion),
            r#"[Q: CV1("11")·CV3]"#
        );
    }

    #[test]
    fn no_order_normal_form_is_identity_on_monomial_sets() {
        // only coefficients drop
        let p = poly(&[&[v("V1")], &[v("V1"), v("V2")]]).plus(&poly(&[&[v("V1")]]));
        assert_eq!(
            normal(OrderChoice::None, p, &BTreeMap::new()),
            r#"[Q: CV1("11") + CV1("11")·CV2("11")]"#
        );
    }

    #[test]
    fn normal_form_drops_dominated_monomials() {
        // one view beats two and three; the survivor's coefficient is 1
        let p = Polynomial::from_terms([
            (Monomial::token(v("V5")), 2),
            (Monomial::from_pairs([(v("V4"), 1), (v("V2"), 1)]), 1),
            (
                Monomial::from_pairs([(v("V1"), 1), (v("V2"), 1), (v("V3"), 1)]),
                1,
            ),
        ]);
        assert_eq!(
            normal(OrderChoice::FewestViews, p, &BTreeMap::new()),
            r#"[Q: CV5("11")]"#
        );
    }

    #[test]
    fn normal_form_keeps_one_of_equivalent_class() {
        // one view each: equivalent, and the Ord-least survives
        let p = poly(&[&[v("V2")], &[v("V1")]]);
        assert_eq!(
            normal(OrderChoice::FewestViews, p, &BTreeMap::new()),
            r#"[Q: CV1("11")]"#
        );
    }

    #[test]
    fn lexicographic_breaks_ties() {
        // the composite keys by fewest uncovered, then fewest views
        let none = BTreeMap::new();
        let p = poly(&[
            &[v("V1"), v("V2")],
            &[v("V3")],
            &[v("V4"), CiteToken::base("Family")],
        ]);
        assert_eq!(
            normal(OrderChoice::Composite, p, &none),
            r#"[Q: CV3("11")]"#
        );
        // then by inclusion: V1 ⊑ V3 beats V3; V2 is incomparable
        let p = poly(&[&[v("V1")], &[v("V2")], &[v("V3")]]);
        assert_eq!(
            normal(OrderChoice::Composite, p, &includes(&[("V3", "V1")])),
            r#"[Q: CV1("11") + CV2("11")]"#
        );
    }

    #[test]
    fn partial_cmp_reports_incomparability() {
        // incomparable views: both stay
        let order = OrderChoice::ViewInclusion;
        let p = poly(&[&[v("V1")], &[v("V2")]]);
        assert_eq!(
            normal(order, p, &BTreeMap::new()),
            r#"[Q: CV1("11") + CV2("11")]"#
        );
        // equal monomials are equivalent: the least label stays
        let e = CitationExpr::single("Q2".to_string(), poly(&[&[v("V1")]]))
            .plus_r(&CitationExpr::single("Q1".to_string(), poly(&[&[v("V1")]])));
        let nf = Policy::default()
            .with_order(order)
            .normalize(&e, &BTreeMap::new());
        assert_eq!(nf.to_string(), r#"[Q1: CV1("11")]"#);
    }
}
