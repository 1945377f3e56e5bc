//! # fgc-gtopdb — the IUPHAR/BPS Guide to Pharmacology substrate
//!
//! Data and workloads for the `fgcite` experiments, mirroring the
//! running example of *"A Model for Fine-Grained Data Citation"*
//! (CIDR 2017):
//!
//! * [`schema`] — the paper's simplified GtoPdb schema with keys and
//!   foreign keys (Example 2.1);
//! * [`mod@paper_instance`] — the exact example rows (family 11
//!   "Calcitonin", committee Hay/Poyner, contributors Brown/Smith,
//!   MetaData Owner/URL/Version, ...);
//! * [`views`] — the citation views V1–V5 with citation queries
//!   CV1–CV5 and citation functions;
//! * [`generator`] — a seeded synthetic generator scaling the
//!   instance to ~10⁵ families while preserving the hierarchy's
//!   shape (substitution documented in DESIGN.md);
//! * [`workload`] — page-view and ad-hoc query workloads for the
//!   benchmarks.

#![warn(missing_docs)]

pub mod generator;
pub mod paper_instance;
pub mod rng;
pub mod schema;
pub mod views;
pub mod workload;

pub use generator::{generate, present_types, type_name, GeneratorConfig};
pub use paper_instance::{paper_instance, PAPER_QUERIES};
pub use schema::{create_schema, paper_shard_spec};
pub use views::{paper_views, v1, v2, v3, v4, v5};
pub use workload::WorkloadGenerator;
