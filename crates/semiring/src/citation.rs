//! The citation-semiring expression — the paper's two-level structure
//! (§3.2, Definitions 3.1–3.3).
//!
//! For a fixed rewriting `Q'` of a query `Q`, the citation of an
//! output tuple is a **polynomial** over citation atoms: products
//! (`·`, Def 3.1) of per-view citations within one binding, summed
//! (`+`, Def 3.2) across bindings. Across **alternative rewritings**
//! the results are combined with a *different* operation `+R`
//! (Def 3.3), with its own neutral element `0R`.
//!
//! A [`CitationExpr`] is therefore a finite set of labelled
//! polynomials, one per rewriting, combined associatively and
//! commutatively by `+R`. It is a *formal semantics* object: the
//! engine materializes it symbolically and interprets it later under
//! an owner policy — which makes citations plan-independent by
//! construction ("the citations obtained for two equivalent queries
//! will always be the same").
//!
//! [`CitationExpr::normal_form`] is §3.4's normal form under any of
//! the paper's orders, given as a key per monomial plus a dominance
//! preorder within one key class; which order is which is the
//! policy's business.

use crate::polynomial::{Monomial, Polynomial};
use crate::traits::CommutativeSemiring;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Debug;

/// A citation expression: `+R` over per-rewriting polynomials.
///
/// `R` is the rewriting label type (kept so that explanations can
/// point back at the rewriting that produced each alternative);
/// `T` is the citation-atom token type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct CitationExpr<R: Ord + Clone, T: Ord + Clone> {
    /// One polynomial per rewriting. `BTreeMap` gives `+R` its
    /// commutativity/associativity for free and keeps iteration
    /// deterministic. Polynomials from identically-labelled rewritings
    /// are merged with `+` (they denote the same rewriting).
    alternatives: BTreeMap<R, Polynomial<T>>,
}

impl<R: Ord + Clone + Debug, T: Ord + Clone + Debug> CitationExpr<R, T> {
    /// The neutral element `0R` of `+R`.
    pub fn zero_r() -> Self {
        CitationExpr {
            alternatives: BTreeMap::new(),
        }
    }

    /// An expression with a single rewriting alternative.
    pub fn single(rewriting: R, polynomial: Polynomial<T>) -> Self {
        let mut alternatives = BTreeMap::new();
        if !polynomial.is_zero_poly() {
            alternatives.insert(rewriting, polynomial);
        }
        CitationExpr { alternatives }
    }

    /// `+R`: combine alternatives from different rewritings.
    pub fn plus_r(&self, other: &Self) -> Self {
        let mut sum = self.clone();
        for (r, p) in &other.alternatives {
            sum.add_alternative(r.clone(), p.clone());
        }
        sum
    }

    /// `+R` in place with one alternative: `self +R single(rewriting,
    /// polynomial)`, without copying what `self` holds.
    pub fn add_alternative(&mut self, rewriting: R, polynomial: Polynomial<T>) {
        if polynomial.is_zero_poly() {
            return;
        }
        match self.alternatives.get_mut(&rewriting) {
            Some(existing) => *existing = existing.plus(&polynomial),
            None => {
                self.alternatives.insert(rewriting, polynomial);
            }
        }
    }

    /// Is this `0R` (no alternative at all)?
    pub fn is_zero_r(&self) -> bool {
        self.alternatives.is_empty()
    }

    /// Number of rewriting alternatives.
    pub fn num_alternatives(&self) -> usize {
        self.alternatives.len()
    }

    /// Iterate `(rewriting label, polynomial)`.
    pub fn alternatives(&self) -> impl Iterator<Item = (&R, &Polynomial<T>)> {
        self.alternatives.iter()
    }

    /// Total number of monomials across all alternatives — the
    /// "size of the resulting citation" the paper wants minimized.
    pub fn total_monomials(&self) -> usize {
        self.alternatives
            .values()
            .map(Polynomial::num_monomials)
            .sum()
    }

    /// Flatten to a single polynomial by interpreting `+R` as `+`
    /// (the "union" interpretation of §3.3).
    pub fn flatten(&self) -> Polynomial<T> {
        self.alternatives
            .values()
            .fold(Polynomial::zero(), |acc, p| acc.plus(p))
    }

    /// Normal form under a §3.4 order, given as a key per monomial
    /// (larger is preferable) and a dominance preorder `leq` within
    /// one key class, over a form `prepare` computes once per monomial
    /// with its key. `b` *beats* `a` when `a ≤ b` and either `b ≰ a`
    /// or `b` is `Ord`-less ([`maximal`]):
    /// 1. each polynomial keeps the unbeaten monomials of its max-key
    ///    class, with coefficient 1 ("removing every monomial M2 for
    ///    which there exists a monomial M1 ≥ M2");
    /// 2. `+R` keeps the unbeaten alternatives of the max-key class by
    ///    the same rule (`p1 +R p2 = p1 if p2 ≤ p1`). An alternative's
    ///    key is its normal form's (`None`, the least, when that is
    ///    empty), and `p2 ≤ p1` within a class when every monomial of
    ///    `p2`'s normal form is `leq` one of `p1`'s. Equivalent
    ///    alternatives keep the `Ord`-least rewriting label.
    pub fn normal_form<'a, K: Ord + Copy, N>(
        &'a self,
        prepare: impl Fn(&'a Monomial<T>) -> (K, N),
        leq: impl Fn(&N, &N) -> bool,
    ) -> Self {
        // per alternative: (monomial, key, form) in `Ord` order, and
        // the indices its normal form keeps
        let polys: Vec<_> = self
            .alternatives
            .iter()
            .map(|(r, p)| {
                let monomials: Vec<_> = p
                    .monomials()
                    .map(|m| {
                        let (key, form) = prepare(m);
                        (m, key, form)
                    })
                    .collect();
                let kept = maximal(
                    monomials.len(),
                    |i| monomials[i].1,
                    |i, j| leq(&monomials[i].2, &monomials[j].2),
                );
                (r, monomials, kept)
            })
            .collect();
        let key = |a: usize| {
            let (_, monomials, kept) = &polys[a];
            kept.first().map(|&i| monomials[i].1)
        };
        let alternatives = maximal(polys.len(), key, |a, b| {
            let ((_, ma, ka), (_, mb, kb)) = (&polys[a], &polys[b]);
            ka.iter()
                .all(|&i| kb.iter().any(|&j| leq(&ma[i].2, &mb[j].2)))
        })
        .into_iter()
        .map(|a| {
            let (r, monomials, kept) = &polys[a];
            let terms = kept.iter().map(|&i| (monomials[i].0.clone(), 1));
            ((*r).clone(), Polynomial::from_terms(terms))
        })
        .collect();
        CitationExpr { alternatives }
    }
}

/// §3.4's keep rule over items `0..n` numbered in `Ord` order: of the
/// items with the greatest key, keep each one no other of them beats.
/// `j` beats `i` when `leq(i, j)` and either `!leq(j, i)` (strictly
/// preferable) or `j < i` (equivalent, and `Ord`-less). Returns the
/// kept numbers in order; no items keep nothing.
pub fn maximal<K: Ord>(
    n: usize,
    key: impl Fn(usize) -> K,
    leq: impl Fn(usize, usize) -> bool,
) -> Vec<usize> {
    let Some(top) = (0..n).map(&key).max() else {
        return Vec::new();
    };
    let class: Vec<usize> = (0..n).filter(|&i| key(i) == top).collect();
    if class.len() == 1 {
        return class;
    }
    let beaten = |i: usize| {
        class
            .iter()
            .any(|&j| j != i && leq(i, j) && (j < i || !leq(j, i)))
    };
    class.iter().copied().filter(|&i| !beaten(i)).collect()
}

impl<R: Ord + Clone + fmt::Display, T: Ord + Clone + fmt::Display> fmt::Display
    for CitationExpr<R, T>
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.alternatives.is_empty() {
            return f.write_str("0R");
        }
        let mut first = true;
        for (r, p) in &self.alternatives {
            if !first {
                f.write_str(" +R ")?;
            }
            first = false;
            write!(f, "[{r}: {p}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    type Expr = CitationExpr<&'static str, &'static str>;

    /// Example 3.6 over `v`-tokens: one key, every member of a class
    /// equivalent.
    fn fewest_views(e: &Expr) -> Expr {
        e.normal_form(
            |m| (Reverse(m.degree_where(|t| t.starts_with('v'))), ()),
            |_, _| true,
        )
    }

    fn poly(monos: &[&[&'static str]]) -> Polynomial<&'static str> {
        Polynomial::from_terms(
            monos
                .iter()
                .map(|ts| (Monomial::from_pairs(ts.iter().map(|t| (*t, 1))), 1)),
        )
    }

    #[test]
    fn plus_r_is_commutative_and_associative() {
        let a = Expr::single("Q1", poly(&[&["v1"]]));
        let b = Expr::single("Q2", poly(&[&["v2"]]));
        let c = Expr::single("Q3", poly(&[&["v3"]]));
        assert_eq!(a.plus_r(&b), b.plus_r(&a));
        assert_eq!(a.plus_r(&b).plus_r(&c), a.plus_r(&b.plus_r(&c)));
    }

    #[test]
    fn add_alternative_is_plus_r_in_place() {
        let mut sum = Expr::single("Q1", poly(&[&["v1"]]));
        sum.add_alternative("Q2", poly(&[&["v2"]]));
        sum.add_alternative("Q1", poly(&[&["v3"]]));
        sum.add_alternative("Q3", Polynomial::zero());
        let expected = Expr::single("Q1", poly(&[&["v1"]]))
            .plus_r(&Expr::single("Q2", poly(&[&["v2"]])))
            .plus_r(&Expr::single("Q1", poly(&[&["v3"]])))
            .plus_r(&Expr::single("Q3", Polynomial::zero()));
        assert_eq!(sum, expected);
        assert_eq!(sum.num_alternatives(), 2);
    }

    #[test]
    fn zero_r_is_neutral() {
        let a = Expr::single("Q1", poly(&[&["v1"]]));
        assert_eq!(a.plus_r(&Expr::zero_r()), a);
        assert_eq!(Expr::zero_r().plus_r(&a), a);
        assert!(Expr::zero_r().is_zero_r());
    }

    #[test]
    fn same_rewriting_merges_with_plus() {
        let a = Expr::single("Q1", poly(&[&["v1"]]));
        let b = Expr::single("Q1", poly(&[&["v2"]]));
        let merged = a.plus_r(&b);
        assert_eq!(merged.num_alternatives(), 1);
        let (_, p) = merged.alternatives().next().unwrap();
        assert_eq!(p.num_monomials(), 2);
    }

    #[test]
    fn normal_form_keeps_preferable_rewriting() {
        // Q4 uses one view; Q3 uses two — Example 2.3's preference
        let e = Expr::single("Q3", poly(&[&["v4", "v2"]]))
            .plus_r(&Expr::single("Q4", poly(&[&["v5"]])));
        let nf = fewest_views(&e);
        assert_eq!(nf.num_alternatives(), 1);
        assert_eq!(*nf.alternatives().next().unwrap().0, "Q4");
    }

    #[test]
    fn normal_form_keeps_incomparable_alternatives() {
        // token-identity order: different monomials incomparable
        let e = Expr::single("Q1", poly(&[&["v1"]])).plus_r(&Expr::single("Q2", poly(&[&["v2"]])));
        let nf = e.normal_form(|m| ((), m), |a, b| a == b);
        assert_eq!(nf.num_alternatives(), 2);
    }

    #[test]
    fn normal_form_equivalent_keeps_least_label() {
        let e = Expr::single("Q2", poly(&[&["v1"]])).plus_r(&Expr::single("Q1", poly(&[&["v2"]])));
        let nf = fewest_views(&e);
        assert_eq!(nf.num_alternatives(), 1);
        assert_eq!(*nf.alternatives().next().unwrap().0, "Q1");
    }

    #[test]
    fn normal_form_keeps_the_best_class_less_dominated_monomials() {
        // one view beats two and three; of two equivalent one-view
        // monomials the `Ord`-least stays, with coefficient 1
        let p = Polynomial::from_terms([
            (Monomial::from_pairs([("v5", 1)]), 2),
            (Monomial::from_pairs([("v6", 1)]), 1),
            (Monomial::from_pairs([("v4", 1), ("v2", 1)]), 1),
            (Monomial::from_pairs([("v1", 1), ("v2", 1), ("v3", 1)]), 1),
        ]);
        let nf = fewest_views(&Expr::single("Q1", p));
        assert_eq!(nf.to_string(), "[Q1: v5]");
        // under token identity nothing is dominated: coefficients drop
        let e = Expr::single(
            "Q1",
            poly(&[&["v1"], &["v1", "v2"]]).plus(&poly(&[&["v1"]])),
        );
        let nf = e.normal_form(|m| ((), m), |a, b| a == b);
        assert_eq!(nf.to_string(), "[Q1: v1 + v1·v2]");
    }

    #[test]
    fn maximal_keeps_the_top_class_less_beaten_members() {
        // keys [1, 2, 2, 2]: item 0 is out; 1 ≤ 3 strictly; 2 and 3
        // are equivalent, so the smaller number stays
        let keys = [1, 2, 2, 2];
        let leq = |i: usize, j: usize| i == j || (i == 1 && j == 3) || (i + j == 5);
        assert_eq!(maximal(4, |i| keys[i], leq), vec![2]);
        // incomparable members all stay; no items keep nothing
        assert_eq!(maximal(3, |_| (), |i, j| i == j), vec![0, 1, 2]);
        assert!(maximal(0, |_| (), |_, _| true).is_empty());
    }

    #[test]
    fn flatten_unions_alternatives() {
        let e = Expr::single("Q1", poly(&[&["v1"]])).plus_r(&Expr::single("Q2", poly(&[&["v2"]])));
        assert_eq!(e.flatten().num_monomials(), 2);
        assert_eq!(e.total_monomials(), 2);
    }

    #[test]
    fn display_shows_structure() {
        let e = Expr::single("Q1", poly(&[&["v1", "v2"]]));
        assert_eq!(e.to_string(), "[Q1: v1·v2]");
        assert_eq!(Expr::zero_r().to_string(), "0R");
    }
}
