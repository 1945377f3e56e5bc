//! # fgc-relation — relational substrate for fine-grained data citation
//!
//! In-memory relational storage used by the `fgcite` workspace, a
//! reproduction of *"A Model for Fine-Grained Data Citation"*
//! (Davidson, Deutch, Milo, Silvello — CIDR 2017).
//!
//! The paper assumes "structured, evolving, curated databases": this
//! crate provides typed relations with primary/foreign keys
//! ([`schema`], [`relation`], [`database`]), a plain-text loader
//! ([`loader`]), and — for the paper's *fixity* discussion (§4) —
//! an append-only version chain of immutable snapshots ([`version`]).
//! For serving beyond one node's memory budget, [`sharded`] partitions
//! every relation across hash-routed shards while preserving the
//! global tuple order routed evaluation depends on. [`clock`] is the
//! bounded second-chance ring every cache in the workspace is built on.
//!
//! ```
//! use fgc_relation::prelude::*;
//!
//! let mut db = Database::new();
//! db.create_relation(RelationSchema::with_names(
//!     "Family",
//!     &[("FID", DataType::Str), ("FName", DataType::Str), ("Type", DataType::Str)],
//!     &["FID"],
//! ).unwrap()).unwrap();
//! db.insert("Family", tuple!["11", "Calcitonin", "gpcr"]).unwrap();
//! assert_eq!(db.relation("Family").unwrap().len(), 1);
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod database;
pub mod delta;
pub mod error;
pub mod loader;
pub mod relation;
pub mod schema;
pub mod sharded;
pub mod storage;
pub mod tuple;
pub mod value;
pub mod version;

/// Convenient glob-import of the common types.
pub mod prelude {
    pub use crate::database::Database;
    pub use crate::delta::{DatabaseDelta, DeltaOp, RelationDelta};
    pub use crate::error::{RelationError, Result as RelationResult};
    pub use crate::relation::Relation;
    pub use crate::schema::{Attribute, Catalog, ForeignKey, RelationSchema};
    pub use crate::sharded::{ShardKeySpec, ShardStats, ShardedDatabase};
    pub use crate::storage::{Storage, StorageKind, StorageOptions, StorageStats};
    pub use crate::tuple;
    pub use crate::tuple::Tuple;
    pub use crate::value::{DataType, Value};
    pub use crate::version::{VersionId, VersionInfo, VersionedDatabase};
}

pub use clock::Clock;
pub use database::Database;
pub use delta::{DatabaseDelta, DeltaOp, RelationDelta};
pub use error::RelationError;
pub use relation::Relation;
pub use schema::{Attribute, Catalog, ForeignKey, RelationSchema};
pub use sharded::{ShardKeySpec, ShardStats, ShardedDatabase};
pub use storage::{
    DiskStorage, FaultVfs, MemSegment, MemStorage, RealVfs, Storage, StorageHealth, StorageKind,
    StorageOptions, StorageStats, Vfs,
};
pub use tuple::Tuple;
pub use value::{DataType, Value};
pub use version::{VersionId, VersionInfo, VersionedDatabase};
