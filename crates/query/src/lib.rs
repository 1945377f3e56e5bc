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
//!   [`evaluate_grouped`] (all bindings per tuple, Def. 3.2) and
//!   [`evaluate_annotated`] (semiring annotations, §3.1) collect the
//!   same enumeration of bindings over a [`Source`] — an unsharded
//!   [`Database`](fgc_relation::Database), or a partitioned
//!   [`ShardedDatabase`](fgc_relation::sharded::ShardedDatabase)
//!   under a [`RoutePlan`] — with identical bytes either way;
//! * [`plan`] — the compiled [`QueryPlan`] every source executes;
//! * [`sharded`] — shard routing ([`ShardRouter`]) and the per-shard
//!   fragments of an evaluation a coordinator merges;
//! * [`containment`] — homomorphism-based containment/equivalence
//!   (needed by Def. 2.2 rewriting validity and Ex. 3.8 view
//!   inclusion);
//! * [`chase`] — the chase with key dependencies: equivalence over
//!   key-respecting databases, which validates rewritings that join
//!   views on declared keys;
//! * [`mod@minimize`] — CQ cores (Def. 2.2's non-redundancy);
//! * [`mod@reference`] — a brute-force oracle evaluator for differential
//!   testing of the optimized engine.

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
pub mod sharded;
pub mod sql;
pub mod subst;

pub use ast::{Atom, CompOp, Comparison, ConjunctiveQuery, Term};
pub use chase::{chase_keys, equivalent_under, is_contained_in_under, Chased, Dependencies};
pub use containment::{equivalent, is_contained_in, normalize, Normalized};
pub use error::{QueryError, Result};
pub use eval::{
    evaluate, evaluate_annotated, evaluate_annotated_plan_with, evaluate_grouped,
    evaluate_grouped_plan_with, evaluate_plan_with, Binding, EvalOptions, Source,
};
#[allow(deprecated)]
pub use eval::{
    evaluate_annotated_interpreted, evaluate_grouped_interpreted, evaluate_interpreted,
    evaluate_interpreted_with,
};
pub use minimize::{is_minimal, minimize};
pub use parser::{parse_program, parse_query};
pub use plan::QueryPlan;
pub use reference::reference_evaluate;
pub use safety::{check_against_catalog, check_safety};
pub use sharded::{
    lead_fragment_answers, lead_fragment_bindings, RoutePlan, ShardRouter, ShardSet,
};
pub use sql::parse_sql;
pub use subst::Substitution;
