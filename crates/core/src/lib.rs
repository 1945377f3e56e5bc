//! # fgc-core — the fine-grained data-citation engine
//!
//! The primary contribution of *"A Model for Fine-Grained Data
//! Citation"* (Davidson, Deutch, Milo, Silvello — CIDR 2017),
//! implemented end to end:
//!
//! * [`token`] — citation atoms: `(view, λ-valuation)` pairs and the
//!   `C_R` base markers of Example 3.7;
//! * [`policy`] — owner-chosen interpretations of `+`, `·`, `+R` and
//!   `Agg` (§3.3) and the §3.4 order choices;
//! * [`engine`] — `cite(D, Q, V)`: evaluate, rewrite using citation
//!   views, build the symbolic citation expression (Defs. 3.1–3.3),
//!   normalize, interpret, aggregate (Def. 3.4); every serving entry
//!   point takes `&self`, so an `Arc`-shared engine cites
//!   concurrently;
//! * [`request`] — the serving layer: [`CiteRequest`] per-call
//!   overrides (policy, mode, budgets, memoization) and
//!   [`CiteResponse`] timing/cache metadata, plus batch fan-out via
//!   [`CitationEngine::cite_batch`];
//! * [`cache`] — sharded, thread-safe memoized
//!   `(view, valuation) → citation` (§4: caching/materialization);
//! * [`plan_cache`] — sharded, thread-safe memoized
//!   `query → compiled QueryPlan`, so warm serving skips
//!   order-and-validate query compilation entirely;
//! * [`mod@explain`] — human-readable provenance of a citation (which
//!   rewritings, views, valuations, and policy produced it);
//! * [`fixity`] — versioned citations with timestamps (§4: fixity);
//! * [`suggest`] — citation-view suggestion from query logs (§4);
//! * [`baseline`] — GtoPdb's current practice (hard-coded per-page
//!   citations), the engine's comparison baseline.
//!
//! ```
//! use fgc_core::{CitationEngine, Policy};
//! use fgc_views::{CitationFunction, CitationView, ViewRegistry};
//! use fgc_relation::{Database, DataType, RelationSchema, tuple};
//! use fgc_query::parse_query;
//!
//! let mut db = Database::new();
//! db.create_relation(RelationSchema::with_names(
//!     "Family",
//!     &[("FID", DataType::Str), ("FName", DataType::Str), ("Type", DataType::Str)],
//!     &["FID"],
//! ).unwrap()).unwrap();
//! db.insert("Family", tuple!["11", "Calcitonin", "gpcr"]).unwrap();
//!
//! let mut views = ViewRegistry::new();
//! views.add(CitationView::new(
//!     parse_query("lambda F. V1(F, N, Ty) :- Family(F, N, Ty)").unwrap(),
//!     parse_query("lambda F. CV1(F, N) :- Family(F, N, Ty)").unwrap(),
//!     CitationFunction::from_spec(vec![
//!         CitationFunction::scalar("ID", 0),
//!         CitationFunction::scalar("Name", 1),
//!     ]),
//! )).unwrap();
//!
//! // `cite` takes `&self`: no `mut`, and the engine can be shared
//! // across threads via `Arc` for concurrent serving.
//! let engine = CitationEngine::new(db, views).unwrap();
//! let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").unwrap();
//! let cited = engine.cite(&q).unwrap();
//! assert_eq!(cited.tuples.len(), 1);
//! assert!(!cited.tuples[0].citation.is_null());
//!
//! // Per-request overrides and batch serving:
//! use fgc_core::{CiteRequest, RewriteMode};
//! let requests = vec![
//!     CiteRequest::query(q.clone()),
//!     CiteRequest::query(q).with_mode(RewriteMode::Exhaustive),
//! ];
//! let responses = engine.cite_batch(&requests);
//! assert!(responses.iter().all(|r| r.is_ok()));
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod cache;
pub mod engine;
pub mod error;
pub mod explain;
pub mod fixity;
pub mod plan_cache;
pub mod policy;
pub mod request;
pub mod suggest;
pub mod token;

pub use baseline::{baseline_coverage, PageCitationStore, WorkloadItem};
pub use cache::{CacheStats, CitationCache, ClockCache};
pub use engine::{
    CitationEngine, CiteDataPlane, EngineOptions, QueryCitation, RewriteMode, ShardServingStats,
    TupleCitation,
};
pub use error::{CoreError, Result};
pub use explain::explain;
pub use fgc_relation::sharded::{ShardKeySpec, ShardStats};
pub use fixity::{VersionMemoryStats, VersionStats, VersionedCitation, VersionedCitationEngine};
pub use plan_cache::{PlanCache, PlanCacheStats};
pub use policy::{CombineOp, OrderChoice, Policy};
pub use request::{CiteRequest, CiteResponse, QuerySpec};
pub use suggest::{suggest_views, QueryLog, SuggestedView};
pub use token::CiteToken;
