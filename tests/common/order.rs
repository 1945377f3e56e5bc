//! The §3.4 orders by definition: the reference the engine's normal
//! forms are compared with.
//!
//! > "We first define a partial order ≤ over monomials in the citation
//! > semiring ... We then impose that a + b = a if b ≤ a ... Such
//! > order relation can then be lifted to order relation over
//! > polynomials: to compare polynomials p1 and p2 we first transform
//! > each polynomial into a 'normal form', removing every monomial M2
//! > for which there exists a monomial M1 ≥ M2. Then, we say that
//! > p2 ≤ p1 if for every monomial M2 in the normal form of p2 there
//! > exists a monomial M1 in the normal form of p1 such that M2 ≤ M1.
//! > Finally, we impose p1 +R p2 = p1 if p2 ≤ p1."
//!
//! Every order here is a pairwise `leq` over monomials, composed
//! lexicographically, and every normal form compares every pair:
//! slow and literal on purpose. The three concrete orders are the
//! paper's Examples 3.6 (fewest views), 3.7 (fewest uncovered/base
//! terms) and 3.8 (view inclusion); [`reference_order`] composes them
//! for each [`OrderChoice`].
//!
//! Orders here are *preorders* (reflexive + transitive) when the
//! inclusion matrix is one; antisymmetry may fail, so two distinct
//! monomials can be equivalent. Normal forms keep one canonical
//! representative (the `Ord`-least) per equivalence class.

use fgcite::engine::CiteToken;
use fgcite::prelude::OrderChoice;
use fgcite::semiring::{CitationExpr, Monomial, Polynomial};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// A preorder over monomials. `leq(a, b)` means "b is at least as
/// preferable as a" — larger is better, matching the paper's
/// convention (`a + b = a if b ≤ a`: keep the preferable one).
pub trait MonomialOrder<T: Ord + Clone> {
    /// Is `a ≤ b` (b at least as preferable)?
    fn leq(&self, a: &Monomial<T>, b: &Monomial<T>) -> bool;

    /// Strict comparison: `a < b`.
    fn lt(&self, a: &Monomial<T>, b: &Monomial<T>) -> bool {
        self.leq(a, b) && !self.leq(b, a)
    }

    /// Equivalence: `a ≤ b` and `b ≤ a`.
    fn equivalent(&self, a: &Monomial<T>, b: &Monomial<T>) -> bool {
        self.leq(a, b) && self.leq(b, a)
    }
}

/// Example 3.6: "M1 ≤ M2 if the number of multiplicands in M1 is
/// greater or equal to that of M2 (note that we only cite views, not
/// base relations)." `is_view` selects the tokens that count.
pub struct FewestViews<F> {
    is_view: F,
}

impl<F> FewestViews<F> {
    /// Build the order with a token classifier.
    pub fn new(is_view: F) -> Self {
        FewestViews { is_view }
    }
}

impl<T, F> MonomialOrder<T> for FewestViews<F>
where
    T: Ord + Clone,
    F: Fn(&T) -> bool,
{
    fn leq(&self, a: &Monomial<T>, b: &Monomial<T>) -> bool {
        a.degree_where(|t| (self.is_view)(t)) >= b.degree_where(|t| (self.is_view)(t))
    }
}

/// Example 3.7: "M1 ≤ M2 ... if the number of atoms of the form C_R
/// in M1 is greater or equal than that in M2."
pub struct FewestUncovered<F> {
    is_base: F,
}

impl<F> FewestUncovered<F> {
    /// Build the order with a base-relation-marker classifier.
    pub fn new(is_base: F) -> Self {
        FewestUncovered { is_base }
    }
}

impl<T, F> MonomialOrder<T> for FewestUncovered<F>
where
    T: Ord + Clone,
    F: Fn(&T) -> bool,
{
    fn leq(&self, a: &Monomial<T>, b: &Monomial<T>) -> bool {
        a.degree_where(|t| (self.is_base)(t)) >= b.degree_where(|t| (self.is_base)(t))
    }
}

/// Example 3.8's lifting of a token preorder: first normalize each
/// monomial w.r.t. the token order (`a · b = a if b ≤ a` — drop
/// dominated factors), then `a1·...·an ≤ b1·...·bm` if for every `ai`
/// there is a `bj` with `ai ≤ bj`.
pub struct TokenDominance<F> {
    token_leq: F,
}

impl<F> TokenDominance<F> {
    /// Build from the underlying token preorder.
    pub fn new(token_leq: F) -> Self {
        TokenDominance { token_leq }
    }

    /// Normalize a monomial w.r.t. the token order: keep only factors
    /// not strictly dominated by another factor, and collapse
    /// equivalent factors to one representative.
    pub fn normalize_monomial<T>(&self, m: &Monomial<T>) -> Monomial<T>
    where
        T: Ord + Clone,
        F: Fn(&T, &T) -> bool,
    {
        let tokens: Vec<&T> = m.tokens().collect();
        let leq = &self.token_leq;
        let mut keep: Vec<&T> = Vec::new();
        for t in &tokens {
            let dominated = tokens.iter().any(|other| {
                if std::ptr::eq(*other, *t) {
                    return false;
                }
                let oge = leq(t, other); // t ≤ other
                let ole = leq(other, t); // other ≤ t
                if oge && !ole {
                    true // strictly dominated
                } else if oge && ole {
                    // equivalent: keep the Ord-least representative
                    *other < *t
                } else {
                    false
                }
            });
            if !dominated {
                keep.push(t);
            }
        }
        Monomial::from_pairs(keep.into_iter().map(|t| (t.clone(), 1)))
    }
}

impl<T, F> MonomialOrder<T> for TokenDominance<F>
where
    T: Ord + Clone,
    F: Fn(&T, &T) -> bool,
{
    fn leq(&self, a: &Monomial<T>, b: &Monomial<T>) -> bool {
        let na = self.normalize_monomial(a);
        let nb = self.normalize_monomial(b);
        let leq = &self.token_leq;
        let result = na.tokens().all(|ai| nb.tokens().any(|bj| leq(ai, bj)));
        result
    }
}

/// The trivial order: no two distinct monomials comparable.
pub struct NoOrder;

impl<T: Ord + Clone> MonomialOrder<T> for NoOrder {
    fn leq(&self, a: &Monomial<T>, b: &Monomial<T>) -> bool {
        a == b
    }
}

/// Lexicographic composition: use `first`; on ties (equivalence),
/// refine by `second`.
pub struct Lexicographic<A, B> {
    first: A,
    second: B,
}

impl<A, B> Lexicographic<A, B> {
    /// Compose two orders lexicographically.
    pub fn new(first: A, second: B) -> Self {
        Lexicographic { first, second }
    }
}

impl<T, A, B> MonomialOrder<T> for Lexicographic<A, B>
where
    T: Ord + Clone,
    A: MonomialOrder<T>,
    B: MonomialOrder<T>,
{
    fn leq(&self, a: &Monomial<T>, b: &Monomial<T>) -> bool {
        if self.first.equivalent(a, b) {
            self.second.leq(a, b)
        } else {
            self.first.leq(a, b)
        }
    }
}

/// Normal form of a polynomial under a monomial order: drop every
/// monomial strictly dominated by another; among equivalent monomials
/// keep the `Ord`-least representative. Coefficients are squashed to 1.
pub fn normal_form<T, O>(p: &Polynomial<T>, order: &O) -> Polynomial<T>
where
    T: Ord + Clone + Debug,
    O: MonomialOrder<T> + ?Sized,
{
    let monomials: Vec<&Monomial<T>> = p.monomials().collect();
    let keep = monomials.iter().filter(|m| {
        !monomials.iter().any(|other| {
            if other == *m {
                return false;
            }
            if order.lt(m, other) {
                true
            } else if order.equivalent(m, other) {
                // keep the Ord-least representative of the class
                *other < **m
            } else {
                false
            }
        })
    });
    Polynomial::from_terms(keep.map(|m| ((*m).clone(), 1)))
}

/// Lifted order on polynomials: `p2 ≤ p1` iff every monomial in
/// `nf(p2)` is ≤ some monomial in `nf(p1)`.
pub fn poly_leq<T, O>(p2: &Polynomial<T>, p1: &Polynomial<T>, order: &O) -> bool
where
    T: Ord + Clone + Debug,
    O: MonomialOrder<T> + ?Sized,
{
    let n2 = normal_form(p2, order);
    let n1 = normal_form(p1, order);
    let result = n2
        .monomials()
        .all(|m2| n1.monomials().any(|m1| order.leq(m2, m1)));
    result
}

/// Normal form of a citation expression: normalize each alternative's
/// polynomial, then apply `p1 +R p2 = p1 if p2 ≤ p1` — keep only the
/// maximal alternatives under the lifted order; among equivalent
/// alternatives keep the one with the `Ord`-least rewriting label.
pub fn expr_normal_form<R, T, O>(expr: &CitationExpr<R, T>, order: &O) -> Vec<(R, Polynomial<T>)>
where
    R: Ord + Clone + Debug,
    T: Ord + Clone + Debug,
    O: MonomialOrder<T> + ?Sized,
{
    let normalized: Vec<(R, Polynomial<T>)> = expr
        .alternatives()
        .map(|(r, p)| (r.clone(), normal_form(p, order)))
        .collect();
    let keep = normalized.iter().filter(|(r1, p1)| {
        !normalized.iter().any(|(r2, p2)| {
            if r1 == r2 {
                return false;
            }
            let le = poly_leq(p1, p2, order);
            let ge = poly_leq(p2, p1, order);
            if le && !ge {
                true // strictly dominated
            } else if le && ge {
                r2 < r1 // equivalent: keep Ord-least label
            } else {
                false
            }
        })
    });
    keep.cloned().collect()
}

/// Token-level preorder for Example 3.8: token `a ≤ b` iff both are
/// view citations and `b`'s view is included in `a`'s view (the more
/// general view is less preferable). `C_R` markers are incomparable
/// to everything except themselves.
pub fn token_inclusion_leq(
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

/// The monomial order each [`OrderChoice`] names: Example 3.6, 3.7 or
/// 3.8 alone, none, or fewest uncovered, then fewest views, then view
/// inclusion.
pub fn reference_order(
    choice: OrderChoice,
    inclusion: &BTreeMap<(String, String), bool>,
) -> Box<dyn MonomialOrder<CiteToken> + '_> {
    match choice {
        OrderChoice::None => Box::new(NoOrder),
        OrderChoice::FewestViews => Box::new(FewestViews::new(CiteToken::is_view)),
        OrderChoice::FewestUncovered => Box::new(FewestUncovered::new(CiteToken::is_base)),
        OrderChoice::ViewInclusion => Box::new(TokenDominance::new(token_inclusion_leq(inclusion))),
        OrderChoice::Composite => Box::new(Lexicographic::new(
            FewestUncovered::new(CiteToken::is_base),
            Lexicographic::new(
                FewestViews::new(CiteToken::is_view),
                TokenDominance::new(token_inclusion_leq(inclusion)),
            ),
        )),
    }
}

/// Every [`OrderChoice`], in declaration order.
pub const ORDERS: [OrderChoice; 5] = [
    OrderChoice::None,
    OrderChoice::FewestViews,
    OrderChoice::FewestUncovered,
    OrderChoice::ViewInclusion,
    OrderChoice::Composite,
];
