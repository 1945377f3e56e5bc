//! Stock semiring instances from the provenance literature
//! (Green, Karvounarakis, Tannen — "Provenance semirings", PODS 2007,
//! the paper's reference \[5\]).

use crate::traits::CommutativeSemiring;
use std::collections::BTreeSet;
use std::fmt;

// ---------------------------------------------------------------------
// Natural numbers (bag semantics)
// ---------------------------------------------------------------------

/// `(ℕ, +, ·, 0, 1)` — counts how many derivations a tuple has
/// (bag semantics). Saturating arithmetic keeps the laws exact in the
/// presence of overflow at the extremes used by tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Natural(pub u64);

impl CommutativeSemiring for Natural {
    fn zero() -> Self {
        Natural(0)
    }
    fn one() -> Self {
        Natural(1)
    }
    fn plus(&self, other: &Self) -> Self {
        Natural(self.0.saturating_add(other.0))
    }
    fn times(&self, other: &Self) -> Self {
        Natural(self.0.saturating_mul(other.0))
    }
}

impl fmt::Display for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

// ---------------------------------------------------------------------
// Booleans (set semantics)
// ---------------------------------------------------------------------

/// `(𝔹, ∨, ∧, false, true)` — set semantics / tuple presence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bool(pub bool);

impl CommutativeSemiring for Bool {
    fn zero() -> Self {
        Bool(false)
    }
    fn one() -> Self {
        Bool(true)
    }
    fn plus(&self, other: &Self) -> Self {
        Bool(self.0 || other.0)
    }
    fn times(&self, other: &Self) -> Self {
        Bool(self.0 && other.0)
    }
}

// ---------------------------------------------------------------------
// Why-provenance (witness sets)
// ---------------------------------------------------------------------

/// Why-provenance: a set of witnesses, each witness being the set of
/// tokens jointly used by one derivation. `+` is union of witness
/// sets, `·` is pairwise union of witnesses.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Why<T: Ord + Clone + fmt::Debug> {
    /// The witness sets. Empty set of witnesses = additive neutral;
    /// the singleton `{∅}` = multiplicative neutral.
    pub witnesses: BTreeSet<BTreeSet<T>>,
}

impl<T: Ord + Clone + fmt::Debug> Why<T> {
    /// Provenance of a base tuple: one witness containing one token.
    pub fn token(t: T) -> Self {
        Why {
            witnesses: BTreeSet::from([BTreeSet::from([t])]),
        }
    }

    /// Minimize to the *minimal witness basis*: drop every witness
    /// that is a strict superset of another witness.
    pub fn minimal(&self) -> Self {
        let keep: BTreeSet<BTreeSet<T>> = self
            .witnesses
            .iter()
            .filter(|w| {
                !self
                    .witnesses
                    .iter()
                    .any(|other| other != *w && other.is_subset(w))
            })
            .cloned()
            .collect();
        Why { witnesses: keep }
    }
}

impl<T: Ord + Clone + fmt::Debug> CommutativeSemiring for Why<T> {
    fn zero() -> Self {
        Why {
            witnesses: BTreeSet::new(),
        }
    }
    fn one() -> Self {
        Why {
            witnesses: BTreeSet::from([BTreeSet::new()]),
        }
    }
    fn plus(&self, other: &Self) -> Self {
        Why {
            witnesses: self.witnesses.union(&other.witnesses).cloned().collect(),
        }
    }
    fn times(&self, other: &Self) -> Self {
        let mut out = BTreeSet::new();
        for a in &self.witnesses {
            for b in &other.witnesses {
                out.insert(a.union(b).cloned().collect());
            }
        }
        Why { witnesses: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::laws;

    #[test]
    fn natural_laws() {
        let samples = [Natural(0), Natural(1), Natural(2), Natural(17)];
        for a in &samples {
            for b in &samples {
                for c in &samples {
                    assert_eq!(laws::check_axioms(a, b, c), None);
                }
            }
        }
    }

    #[test]
    fn bool_laws_and_idempotence() {
        let samples = [Bool(false), Bool(true)];
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
    fn why_provenance_distinguishes_witnesses() {
        // (x + y) * z  has witnesses {x,z} and {y,z}
        let x = Why::token("x");
        let y = Why::token("y");
        let z = Why::token("z");
        let result = x.plus(&y).times(&z);
        assert_eq!(result.witnesses.len(), 2);
        assert!(result.witnesses.contains(&BTreeSet::from(["x", "z"])));
        assert!(result.witnesses.contains(&BTreeSet::from(["y", "z"])));
    }

    #[test]
    fn why_minimal_drops_supersets() {
        let x = Why::token("x");
        let xy = x.times(&Why::token("y"));
        let both = x.plus(&xy);
        assert_eq!(both.witnesses.len(), 2);
        let min = both.minimal();
        assert_eq!(min.witnesses, BTreeSet::from([BTreeSet::from(["x"])]));
    }

    #[test]
    fn why_laws() {
        let samples = [
            Why::zero(),
            Why::one(),
            Why::token("x"),
            Why::token("x").times(&Why::token("y")),
            Why::token("x").plus(&Why::token("y")),
        ];
        for a in &samples {
            assert!(laws::check_idempotent(a));
            for b in &samples {
                for c in &samples {
                    assert_eq!(laws::check_axioms(a, b, c), None);
                }
            }
        }
    }
}
