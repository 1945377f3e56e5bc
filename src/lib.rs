//! # fgcite — fine-grained data citation for relational queries
//!
//! A comprehensive Rust implementation of *"A Model for Fine-Grained
//! Data Citation"* (Davidson, Deutch, Milo, Silvello — CIDR 2017).
//!
//! Database owners attach citations to a small set of (possibly
//! λ-parameterized) *citation views*; `fgcite` automatically
//! constructs citations for arbitrary conjunctive queries by
//! rewriting them over the views and combining the views' citations
//! through the paper's citation semiring (`+`, `·`, `+R`, `Agg`).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`relation`] — in-memory relational substrate with versioning;
//! * [`query`] — conjunctive queries: parsing, evaluation (plain and
//!   semiring-annotated), containment, minimization;
//! * [`semiring`] — provenance semirings, polynomials, citation
//!   expressions, §3.4 orders;
//! * [`views`] — citation views `(V, C_V, F_V)` and JSON citations;
//! * [`rewrite`] — answering queries using views with λ-absorption;
//! * [`engine`] — the citation engine, policies, caching, fixity,
//!   view suggestion, and the hard-coded-pages baseline;
//! * [`gtopdb`] — the paper's GtoPdb running example, a synthetic
//!   scale generator, and query workloads;
//! * [`server`] — the std-only HTTP/1.1 citation service (`fgcite
//!   serve`): one front door whose worker pool runs each request's
//!   engine call on the worker that read it, plus per-endpoint
//!   serving stats;
//! * [`dist`] — the distributed scatter/gather serving tier: shard
//!   replicas and a stateless coordinator over the same wire format
//!   (`fgcite serve --role replica|coordinator`);
//! * [`fault`] — the deterministic fault-injection plane: named
//!   fault points with seeded triggers, driven by `--fault` specs and
//!   the crash-consistency/chaos test harnesses.
//!
//! ## Quickstart
//!
//! ```
//! use fgcite::prelude::*;
//!
//! // The paper's example database and citation views V1–V5.
//! let db = fgcite::gtopdb::paper_instance();
//! let views = fgcite::gtopdb::paper_views();
//!
//! // `cite` takes `&self`: share one engine across threads via
//! // `Arc` and serve batches with `cite_batch`.
//! let engine = CitationEngine::new(db, views).unwrap();
//!
//! // Example 2.3's query: names and intro texts of gpcr families.
//! let q = parse_query(
//!     "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"",
//! ).unwrap();
//!
//! let cited = engine.cite(&q).unwrap();
//! assert!(!cited.tuples.is_empty());
//! println!("{}", cited.aggregate.to_pretty());
//!
//! // Per-request overrides without rebuilding the engine:
//! let response = engine
//!     .cite_request(&CiteRequest::query(q).with_policy(Policy::join_all()))
//!     .unwrap();
//! assert!(response.elapsed.as_nanos() > 0);
//! ```

pub mod cli;

pub use fgc_core as engine;
pub use fgc_dist as dist;
pub use fgc_fault as fault;
pub use fgc_gtopdb as gtopdb;
pub use fgc_query as query;
pub use fgc_relation as relation;
pub use fgc_rewrite as rewrite;
pub use fgc_semiring as semiring;
pub use fgc_server as server;
pub use fgc_views as views;

/// The common imports for applications.
pub mod prelude {
    pub use fgc_core::{
        CitationEngine, CiteRequest, CiteResponse, CombineOp, EngineOptions, OrderChoice, Policy,
        QueryCitation, RewriteMode, VersionStats, VersionedCitation, VersionedCitationEngine,
    };
    pub use fgc_query::{parse_query, parse_sql, ConjunctiveQuery};
    pub use fgc_relation::prelude::*;
    pub use fgc_server::{CiteServer, ServerConfig};
    pub use fgc_views::{CitationFunction, CitationView, Json, ViewRegistry};
}
