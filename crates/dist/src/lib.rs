//! # fgc-dist — the coordinator tier: whole cites routed to full replicas
//!
//! Every replica is an ordinary engine server (`fgcite serve`) over
//! the whole snapshot. A coordinator (`fgcite serve --replicas
//! a,b,...`) holds no data and runs no engine: it forwards each
//! `POST /cite`, `/cite_sql` and `/cite_at` body unchanged to one
//! replica — picked
//! by a hash of the body, with failover to the next — and relays the
//! answer verbatim, so its replies are byte-identical to a single
//! server's by construction. Its front end ([`DistServer`]) is the
//! same [`fgc_server::HttpService`] every role runs, with the
//! coordinator's rows.
//!
//! Robustness: bounded retry with backoff, per-replica read timeouts
//! clamped to the request's remaining deadline, and a
//! consecutive-failure circuit breaker per replica whose state is
//! surfaced in the coordinator's `GET /stats` ([`ReplicaPool`]). When
//! every replica is down the coordinator answers a structured `503`
//! naming the replicas it tried.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coordinator;
pub mod pool;
pub mod server;

pub use coordinator::{Coordinator, CoordinatorConfig};
pub use pool::{PoolConfig, ReplicaPool};
pub use server::DistServer;

use fgc_core::CitationEngine;
use fgc_server::Route;
use std::sync::Arc;

/// No routes: a replica is an ordinary engine server. Kept for
/// `benchmark/src/stack.rs:186`.
pub fn fragment_handler(_engine: Arc<CitationEngine>) -> Vec<Route> {
    Vec::new()
}
