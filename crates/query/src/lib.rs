//! # fgc-query — conjunctive queries: AST, parsing, evaluation,
//! containment
//!
//! The query substrate for the `fgcite` workspace (reproduction of
//! *"A Model for Fine-Grained Data Citation"*, CIDR 2017). The paper
//! works "in a relational setting with queries and views expressed as
//! Conjunctive Queries":
//!
//! * [`ast`] — terms, atoms, comparison predicates, and (possibly
//!   λ-parameterized) conjunctive queries (Definition 2.1);
//! * [`parser`] — the Datalog-style syntax used throughout the paper;
//! * [`sql`] — an SPJ SQL front-end translating to CQs;
//! * [`safety`] — range restriction and schema checks;
//! * [`eval`] — the one evaluator: [`evaluate`] (distinct tuples),
//!   [`evaluate_projected_plan_with`] (one projection of each
//!   derivation per tuple), [`evaluate_grouped`] (all bindings per
//!   tuple, Def. 3.2) and [`evaluate_annotated`] (semiring
//!   annotations, §3.1) collect the same enumeration of bindings over
//!   one [`Database`](fgc_relation::Database);
//! * [`plan`] — the compiled [`QueryPlan`] they execute;
//! * [`containment`] — homomorphism-based containment/equivalence
//!   (needed by Def. 2.2 rewriting validity and Ex. 3.8 view
//!   inclusion);
//! * [`chase`] — the chase with key dependencies: equivalence over
//!   key-respecting databases, which validates rewritings that join
//!   views on declared keys;
//! * [`mod@minimize`] — CQ cores (Def. 2.2's non-redundancy);
//! * [`mod@reference`] — the oracle: [`reference_derivations`]
//!   enumerates every derivation (head tuple, binding, matched rows)
//!   by definition, with no index or plan, so the differential tests
//!   check all three collectors against folds of one list.

#![warn(missing_docs)]

pub mod ast;
pub mod chase;
pub mod containment;
pub mod error;
pub mod eval;
pub mod minimize;
pub mod parser;
pub mod plan;
pub mod reference;
pub mod safety;
pub mod sql;
pub mod subst;

pub use ast::{Atom, CompOp, Comparison, ConjunctiveQuery, Term};
pub use chase::{chase_keys, equivalent_under, is_contained_in_under, Chased, Dependencies};
pub use containment::{equivalent, is_contained_in, normalize, Normalized};
pub use error::{QueryError, Result};
pub use eval::{
    evaluate, evaluate_annotated, evaluate_annotated_plan_with, evaluate_grouped,
    evaluate_grouped_plan_with, evaluate_plan_with, evaluate_projected_plan_with, Binding,
    EvalOptions,
};
pub use minimize::{is_minimal, minimize};
pub use parser::{parse_program, parse_query};
pub use plan::{Frame, QueryPlan, ValueRef};
pub use reference::{reference_derivations, Derivation};
pub use safety::{check_against_catalog, check_safety};
pub use sql::parse_sql;
pub use subst::Substitution;
