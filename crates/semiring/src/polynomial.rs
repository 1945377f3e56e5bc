//! Provenance polynomials `ℕ[X]` — the free commutative semiring over
//! a set of tokens (Green et al., PODS 2007; the paper's model for the
//! joint (`·`) and alternative (`+`) use of citation annotations,
//! §3.1–3.2).
//!
//! A [`Monomial`] is a multiset of tokens (token → exponent); a
//! [`Polynomial`] is a multiset of monomials (monomial → coefficient).
//! `ℕ[X]` is *universal*: any token valuation into any commutative
//! semiring extends uniquely to a semiring homomorphism, implemented
//! by [`Polynomial::eval`]. This is exactly why the citation engine
//! can compute the symbolic citation once and interpret it under any
//! owner-chosen policy afterwards.

use crate::traits::CommutativeSemiring;
use std::collections::BTreeMap;
use std::fmt;

/// A monomial: finite multiset of tokens with positive exponents.
/// The empty monomial is the multiplicative unit `1`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Monomial<T: Ord + Clone> {
    factors: BTreeMap<T, u32>,
}

impl<T: Ord + Clone> Monomial<T> {
    /// The unit monomial (`1`).
    pub fn unit() -> Self {
        Monomial {
            factors: BTreeMap::new(),
        }
    }

    /// A single-token monomial.
    pub fn token(t: T) -> Self {
        Monomial {
            factors: BTreeMap::from([(t, 1)]),
        }
    }

    /// Build from `(token, exponent)` pairs; zero exponents dropped.
    pub fn from_pairs<I: IntoIterator<Item = (T, u32)>>(pairs: I) -> Self {
        let mut factors = BTreeMap::new();
        for (t, e) in pairs {
            if e > 0 {
                *factors.entry(t).or_insert(0) += e;
            }
        }
        Monomial { factors }
    }

    /// Multiply two monomials (add exponents).
    pub fn times(&self, other: &Self) -> Self {
        let mut factors = self.factors.clone();
        for (t, e) in &other.factors {
            *factors.entry(t.clone()).or_insert(0) += e;
        }
        Monomial { factors }
    }

    /// Total degree (sum of exponents) — "number of multiplicands".
    pub fn degree(&self) -> u32 {
        self.factors.values().sum()
    }

    /// Degree counting only tokens satisfying the predicate. Used by
    /// the order relations of §3.4, which count only *view* citations
    /// (Ex 3.6) or only *base-relation* markers `C_R` (Ex 3.7).
    pub fn degree_where(&self, mut pred: impl FnMut(&T) -> bool) -> u32 {
        self.factors
            .iter()
            .filter(|(t, _)| pred(t))
            .map(|(_, e)| *e)
            .sum()
    }

    /// Is this the unit monomial?
    pub fn is_unit(&self) -> bool {
        self.factors.is_empty()
    }

    /// Distinct tokens with exponents.
    pub fn iter(&self) -> impl Iterator<Item = (&T, u32)> {
        self.factors.iter().map(|(t, e)| (t, *e))
    }

    /// Distinct tokens.
    pub fn tokens(&self) -> impl Iterator<Item = &T> {
        self.factors.keys()
    }

    /// Exponent of a token (0 if absent).
    pub fn exponent(&self, t: &T) -> u32 {
        self.factors.get(t).copied().unwrap_or(0)
    }

    /// Drop exponents to 1 (the `exp(a·a) = a` part of working in an
    /// idempotent-`·` quotient like PosBool\[X\]).
    pub fn squash_exponents(&self) -> Self {
        Monomial {
            factors: self.factors.keys().map(|t| (t.clone(), 1)).collect(),
        }
    }

    /// Map tokens through `f`, multiplying the images (a homomorphism
    /// into any semiring restricted to this monomial).
    pub fn eval<S: CommutativeSemiring>(&self, mut f: impl FnMut(&T) -> S) -> S {
        let mut acc = S::one();
        for (t, e) in &self.factors {
            let img = f(t);
            for _ in 0..*e {
                acc = acc.times(&img);
            }
        }
        acc
    }
}

impl<T: Ord + Clone + fmt::Display> fmt::Display for Monomial<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unit() {
            return f.write_str("1");
        }
        let mut first = true;
        for (t, e) in &self.factors {
            if !first {
                f.write_str("·")?;
            }
            first = false;
            if *e == 1 {
                write!(f, "{t}")?;
            } else {
                write!(f, "{t}^{e}")?;
            }
        }
        Ok(())
    }
}

/// A provenance polynomial: multiset of monomials with positive
/// natural coefficients.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Polynomial<T: Ord + Clone> {
    terms: BTreeMap<Monomial<T>, u64>,
}

impl<T: Ord + Clone> Polynomial<T> {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Polynomial {
            terms: BTreeMap::new(),
        }
    }

    /// The unit polynomial (`1`).
    pub fn one() -> Self {
        Polynomial {
            terms: BTreeMap::from([(Monomial::unit(), 1)]),
        }
    }

    /// A single-token polynomial.
    pub fn token(t: T) -> Self {
        Polynomial::from_monomial(Monomial::token(t))
    }

    /// A polynomial with one monomial (coefficient 1).
    pub fn from_monomial(m: Monomial<T>) -> Self {
        Polynomial {
            terms: BTreeMap::from([(m, 1)]),
        }
    }

    /// Build from `(monomial, coefficient)` pairs; zero coefficients
    /// dropped, duplicates summed.
    pub fn from_terms<I: IntoIterator<Item = (Monomial<T>, u64)>>(pairs: I) -> Self {
        let mut terms = BTreeMap::new();
        for (m, c) in pairs {
            if c > 0 {
                *terms.entry(m).or_insert(0) += c;
            }
        }
        Polynomial { terms }
    }

    /// The sum of `monomials` in the idempotent-`+` quotient: each
    /// distinct monomial once, with coefficient 1 — what
    /// [`Self::squash_coefficients`] makes of their plain sum.
    pub fn from_monomials<I: IntoIterator<Item = Monomial<T>>>(monomials: I) -> Self {
        Polynomial {
            terms: monomials.into_iter().map(|m| (m, 1)).collect(),
        }
    }

    /// Number of distinct monomials.
    pub fn num_monomials(&self) -> usize {
        self.terms.len()
    }

    /// Is this the zero polynomial?
    pub fn is_zero_poly(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterate `(monomial, coefficient)`.
    pub fn terms(&self) -> impl Iterator<Item = (&Monomial<T>, u64)> {
        self.terms.iter().map(|(m, c)| (m, *c))
    }

    /// Monomials only.
    pub fn monomials(&self) -> impl Iterator<Item = &Monomial<T>> {
        self.terms.keys()
    }

    /// All distinct tokens across all monomials.
    pub fn support(&self) -> Vec<&T> {
        let mut out: Vec<&T> = Vec::new();
        for m in self.terms.keys() {
            for t in m.tokens() {
                if !out.contains(&t) {
                    out.push(t);
                }
            }
        }
        out
    }

    /// Idempotent-`+` normal form: all coefficients become 1 — the
    /// `a + a = a` quotient the paper assumes for set-union-like
    /// interpretations (Example 3.4).
    pub fn squash_coefficients(&self) -> Self {
        Polynomial {
            terms: self.terms.keys().map(|m| (m.clone(), 1)).collect(),
        }
    }

    /// Fully idempotent quotient (coefficients and exponents to 1):
    /// the PosBool\[X\]-style normal form.
    pub fn squash(&self) -> Self {
        let mut terms: BTreeMap<Monomial<T>, u64> = BTreeMap::new();
        for m in self.terms.keys() {
            terms.insert(m.squash_exponents(), 1);
        }
        Polynomial { terms }
    }

    /// Evaluate under a token valuation — the universal homomorphism
    /// from `ℕ[X]` into `S`.
    pub fn eval<S: CommutativeSemiring>(&self, mut f: impl FnMut(&T) -> S) -> S {
        let mut acc = S::zero();
        for (m, c) in &self.terms {
            let v = m.eval(&mut f);
            for _ in 0..*c {
                acc = acc.plus(&v);
            }
        }
        acc
    }
}

impl<T: Ord + Clone> CommutativeSemiring for Polynomial<T>
where
    T: fmt::Debug,
{
    fn zero() -> Self {
        Polynomial::zero()
    }
    fn one() -> Self {
        Polynomial::one()
    }
    fn plus(&self, other: &Self) -> Self {
        let mut terms = self.terms.clone();
        for (m, c) in &other.terms {
            *terms.entry(m.clone()).or_insert(0) += c;
        }
        Polynomial { terms }
    }
    fn times(&self, other: &Self) -> Self {
        let mut terms: BTreeMap<Monomial<T>, u64> = BTreeMap::new();
        for (m1, c1) in &self.terms {
            for (m2, c2) in &other.terms {
                *terms.entry(m1.times(m2)).or_insert(0) += c1 * c2;
            }
        }
        Polynomial { terms }
    }
}

impl<T: Ord + Clone + fmt::Display> fmt::Display for Polynomial<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return f.write_str("0");
        }
        let mut first = true;
        for (m, c) in &self.terms {
            if !first {
                f.write_str(" + ")?;
            }
            first = false;
            if *c != 1 {
                write!(f, "{c}")?;
                if !m.is_unit() {
                    f.write_str("·")?;
                }
            }
            if *c == 1 || !m.is_unit() {
                write!(f, "{m}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::{Bool, Natural, Why};
    use crate::traits::laws;

    fn x() -> Polynomial<&'static str> {
        Polynomial::token("x")
    }
    fn y() -> Polynomial<&'static str> {
        Polynomial::token("y")
    }
    fn z() -> Polynomial<&'static str> {
        Polynomial::token("z")
    }

    #[test]
    fn semiring_laws_on_small_polynomials() {
        let samples = [
            Polynomial::zero(),
            Polynomial::one(),
            x(),
            x().plus(&y()),
            x().times(&y()).plus(&z()),
            x().times(&x()),
        ];
        for a in &samples {
            for b in &samples {
                for c in &samples {
                    assert_eq!(laws::check_axioms(a, b, c), None);
                }
            }
        }
    }

    #[test]
    fn display_is_readable() {
        let p = x()
            .times(&x())
            .plus(&x().times(&y()))
            .plus(&x().times(&y()));
        assert_eq!(p.to_string(), "2·x·y + x^2");
        assert_eq!(Polynomial::<&str>::zero().to_string(), "0");
        assert_eq!(Polynomial::<&str>::one().to_string(), "1");
    }

    #[test]
    fn eval_to_naturals_counts_derivations() {
        // (x + y) · z with all tokens valued 1 => 2 derivations
        let p = x().plus(&y()).times(&z());
        assert_eq!(p.eval(|_| Natural(1)), Natural(2));
        // zero out y: 1 derivation
        assert_eq!(
            p.eval(|t| if *t == "y" { Natural(0) } else { Natural(1) }),
            Natural(1)
        );
    }

    #[test]
    fn eval_to_bool_is_satisfiability() {
        let p = x().times(&y());
        assert_eq!(p.eval(|_| Bool(true)), Bool(true));
        assert_eq!(p.eval(|t| Bool(*t != "y")), Bool(false));
    }

    #[test]
    fn eval_to_why_matches_direct_computation() {
        let p = x().plus(&y()).times(&z());
        let direct = Why::token("x")
            .plus(&Why::token("y"))
            .times(&Why::token("z"));
        assert_eq!(p.eval(|t| Why::token(*t)), direct);
    }

    #[test]
    fn eval_is_homomorphic() {
        // h(p1 + p2) = h(p1) + h(p2), h(p1 * p2) = h(p1) * h(p2)
        let p1 = x().plus(&y().times(&y()));
        let p2 = z().plus(&Polynomial::one());
        let val = |t: &&str| Natural(t.len() as u64 + 1);
        assert_eq!(p1.plus(&p2).eval(val), p1.eval(val).plus(&p2.eval(val)));
        assert_eq!(p1.times(&p2).eval(val), p1.eval(val).times(&p2.eval(val)));
    }

    #[test]
    fn squash_models_idempotence() {
        let p = x().plus(&x()).plus(&x().times(&x()));
        let sq = p.squash();
        assert_eq!(sq.num_monomials(), 1);
        assert_eq!(sq, x().squash());
    }

    #[test]
    fn squash_coefficients_only() {
        let p = x().plus(&x()).plus(&x().times(&x()));
        let sc = p.squash_coefficients();
        assert_eq!(sc.num_monomials(), 2); // x and x^2 kept distinct
    }

    #[test]
    fn from_monomials_is_the_squashed_sum() {
        let monomials =
            [x(), y(), x(), x().times(&y())].map(|p| p.monomials().next().unwrap().clone());
        let sum = monomials.iter().fold(Polynomial::zero(), |acc, m| {
            acc.plus(&Polynomial::from_monomial(m.clone()))
        });
        assert_eq!(sum.num_monomials(), 3);
        assert_eq!(
            Polynomial::from_monomials(monomials),
            sum.squash_coefficients()
        );
    }

    #[test]
    fn degree_where_counts_predicate_tokens() {
        let m = Monomial::from_pairs([("v1", 2), ("CR", 1)]);
        assert_eq!(m.degree(), 3);
        assert_eq!(m.degree_where(|t| t.starts_with('v')), 2);
        assert_eq!(m.degree_where(|t| t.starts_with("CR")), 1);
    }

    #[test]
    fn support_lists_all_tokens() {
        let p = x().times(&y()).plus(&z());
        let mut s = p.support();
        s.sort();
        assert_eq!(s, vec![&"x", &"y", &"z"]);
    }
}
