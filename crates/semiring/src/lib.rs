//! # fgc-semiring — provenance semirings and the citation algebra
//!
//! The algebraic heart of the `fgcite` workspace (reproduction of
//! *"A Model for Fine-Grained Data Citation"*, CIDR 2017). The paper
//! models citations as annotations manipulated through queries,
//! "tak\[ing\] inspiration from work on database provenance, in
//! particular that of provenance semirings":
//!
//! * [`traits`] — the commutative-semiring abstraction plus law
//!   checkers;
//! * [`instances`] — ℕ (bag), 𝔹 (set) and why-provenance;
//! * [`polynomial`] — the free semiring `ℕ[X]` with its universal
//!   evaluation homomorphism;
//! * [`citation`] — the paper's two-level citation expressions:
//!   per-rewriting polynomials combined by the distinct operation
//!   `+R` (Definitions 3.1–3.3), and their §3.4 normal form under an
//!   order given as a key per monomial plus a dominance preorder
//!   within one key class (the orders themselves are `fgc-core`'s
//!   policy).

#![warn(missing_docs)]

pub mod citation;
pub mod instances;
pub mod polynomial;
pub mod traits;

pub use citation::{maximal, CitationExpr};
pub use instances::{Bool, Natural, Why};
pub use polynomial::{Monomial, Polynomial};
pub use traits::{laws, CommutativeSemiring};
