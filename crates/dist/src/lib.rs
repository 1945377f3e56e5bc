//! # fgc-dist — the distributed scatter/gather serving tier
//!
//! Splits the single-process citation service into two roles over the
//! existing `fgc-server` wire format:
//!
//! - **Replica** (`fgcite serve --role replica --shard-id i/n`): loads
//!   the full database, shards it with the same [`ShardKeySpec`]
//!   partitioning the in-process sharded store uses, and *owns* shard
//!   `i`: it answers per-shard fragment requests (`/fragment/answers`,
//!   `/fragment/bindings`, `/fragment/tokens`) plus a `/fragment/meta`
//!   bootstrap route — four extra rows in the route table of an
//!   ordinary [`fgc_server::CiteServer`].
//! - **Coordinator** (`fgcite serve --role coordinator --replicas
//!   a,b,...`): holds **no data** — it bootstraps schemas (keys and
//!   foreign keys included, so the rewriting search is identical) and
//!   view texts from `/fragment/meta`, then serves `POST /cite` /
//!   `/cite_sql` by scattering each query's fragments to only the
//!   shards its [`RoutePlan`] implicates, gathering over keep-alive
//!   connections, and merging in global `(gid, seq)` tuple order, so
//!   rendered citations are **byte-identical** to single-process
//!   output. Its front end ([`DistServer`]) is the same
//!   [`fgc_server::HttpService`] every role runs, with the
//!   coordinator's rows.
//!
//! Robustness: per-replica health tracking, bounded retry with
//! backoff, failover to a configured twin replica, per-replica read
//! timeouts, and a consecutive-failure circuit breaker whose state is
//! surfaced in the coordinator's `GET /stats`. When every candidate
//! for a shard is down the coordinator answers a structured `503`
//! naming the shard and the replicas it tried.
//!
//! [`ShardKeySpec`]: fgc_relation::ShardKeySpec
//! [`RoutePlan`]: fgc_query::RoutePlan

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coordinator;
pub mod pool;
pub mod proto;
pub mod replica;
pub mod server;

pub use coordinator::{Coordinator, CoordinatorConfig};
pub use pool::{PoolConfig, ReplicaPool};
pub use replica::fragment_handler;
pub use server::DistServer;
