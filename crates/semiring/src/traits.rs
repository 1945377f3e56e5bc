//! The commutative-semiring abstraction (§3.1 of the paper).
//!
//! > "we start with a set of basic citations C, and introduce an
//! > abstract operation + on it with the properties that + is
//! > commutative, associative, and has some neutral element 0 in C.
//! > Similarly we introduce an operation · with the same properties,
//! > but with a different neutral element 1. Last, we impose that ·
//! > is distributive over +."

use std::fmt::Debug;

/// A commutative semiring `(C, +, ·, 0, 1)`.
///
/// Implementations must satisfy the usual axioms (checked by the
/// property tests in this crate and re-checked for each concrete
/// instance by [`crate::laws`]):
///
/// * `+` commutative, associative, neutral `0`
/// * `·` commutative, associative, neutral `1`
/// * `·` distributes over `+`
/// * `0 · a = 0` (annihilation)
pub trait CommutativeSemiring: Clone + PartialEq + Debug {
    /// Neutral element of `+`.
    fn zero() -> Self;
    /// Neutral element of `·`.
    fn one() -> Self;
    /// Alternative use of annotations (union / projection collapse).
    fn plus(&self, other: &Self) -> Self;
    /// Joint use of annotations (join).
    fn times(&self, other: &Self) -> Self;

    /// Is this the additive neutral?
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }

    /// Is this the multiplicative neutral?
    fn is_one(&self) -> bool {
        *self == Self::one()
    }

    /// Sum of an iterator of elements (`0` if empty).
    fn sum<I: IntoIterator<Item = Self>>(items: I) -> Self {
        items.into_iter().fold(Self::zero(), |acc, x| acc.plus(&x))
    }

    /// Product of an iterator of elements (`1` if empty).
    fn product<I: IntoIterator<Item = Self>>(items: I) -> Self {
        items.into_iter().fold(Self::one(), |acc, x| acc.times(&x))
    }
}

/// Law-checking helpers, used by unit and property tests of every
/// semiring instance in this crate (and available to downstream
/// crates for their own instances).
pub mod laws {
    use super::CommutativeSemiring;

    /// Check all semiring axioms on a triple of sample values.
    /// Returns the name of the first violated law, if any.
    pub fn check_axioms<S: CommutativeSemiring>(a: &S, b: &S, c: &S) -> Option<&'static str> {
        let zero = S::zero();
        let one = S::one();
        if a.plus(b) != b.plus(a) {
            return Some("+ commutativity");
        }
        if a.plus(&b.plus(c)) != a.plus(b).plus(c) {
            return Some("+ associativity");
        }
        if a.plus(&zero) != *a {
            return Some("+ neutral");
        }
        if a.times(b) != b.times(a) {
            return Some("* commutativity");
        }
        if a.times(&b.times(c)) != a.times(b).times(c) {
            return Some("* associativity");
        }
        if a.times(&one) != *a {
            return Some("* neutral");
        }
        if a.times(&b.plus(c)) != a.times(b).plus(&a.times(c)) {
            return Some("distributivity");
        }
        if a.times(&zero) != zero {
            return Some("annihilation");
        }
        None
    }

    /// Check idempotence of `+` on a sample value.
    pub fn check_idempotent<S: CommutativeSemiring>(a: &S) -> bool {
        a.plus(a) == *a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal instance for exercising the default methods.
    #[derive(Debug, Clone, PartialEq)]
    struct MaxPlus(i64);

    impl CommutativeSemiring for MaxPlus {
        fn zero() -> Self {
            MaxPlus(i64::MIN)
        }
        fn one() -> Self {
            MaxPlus(0)
        }
        fn plus(&self, other: &Self) -> Self {
            MaxPlus(self.0.max(other.0))
        }
        fn times(&self, other: &Self) -> Self {
            // saturating to keep annihilation exact at i64::MIN
            if self.0 == i64::MIN || other.0 == i64::MIN {
                MaxPlus(i64::MIN)
            } else {
                MaxPlus(self.0 + other.0)
            }
        }
    }

    #[test]
    fn default_sum_and_product() {
        let xs = vec![MaxPlus(1), MaxPlus(5), MaxPlus(3)];
        assert_eq!(MaxPlus::sum(xs.clone()), MaxPlus(5));
        assert_eq!(MaxPlus::product(xs), MaxPlus(9));
        assert_eq!(MaxPlus::sum(Vec::<MaxPlus>::new()), MaxPlus::zero());
        assert_eq!(MaxPlus::product(Vec::<MaxPlus>::new()), MaxPlus::one());
    }

    #[test]
    fn laws_hold_for_max_plus() {
        let samples = [MaxPlus(i64::MIN), MaxPlus(-2), MaxPlus(0), MaxPlus(7)];
        for a in &samples {
            assert!(laws::check_idempotent(a));
            for b in &samples {
                for c in &samples {
                    assert_eq!(laws::check_axioms(a, b, c), None);
                }
            }
        }
    }

    #[test]
    fn is_zero_is_one() {
        assert!(MaxPlus(i64::MIN).is_zero());
        assert!(MaxPlus(0).is_one());
        assert!(!MaxPlus(3).is_zero());
    }
}
