//! # fgc-server — the std-only HTTP citation service
//!
//! The network front-end over the `&self` serving API of
//! [`fgc_core::CitationEngine`] (the production-scale direction of
//! §4), dependency-free on [`std::net::TcpListener`]. There is **one
//! front door**: [`HttpService`] owns everything between the socket
//! and a route's handler (acceptor, worker pool, framing errors,
//! request IDs, deadlines, slow log, per-route stats, 404/405), and
//! every role is that service plus a table of [`Route`] rows —
//! [`CiteServer`] adds the engine routes (acceptor → connection
//! queue → worker → engine: the worker that read a `POST /cite` calls
//! [`fgc_core::CitationEngine::cite_request`] on the one shared engine,
//! so every worker shares the same token cache and materialized
//! extents); `fgc-dist` adds a replica's `/fragment/*` rows and the
//! coordinator's scatter routes.
//!
//! Routes:
//!
//! | route            | body                                   |
//! |------------------|----------------------------------------|
//! | `POST /cite`     | `{"query": "Q(N) :- ...", ...}`        |
//! | `POST /cite_sql` | `{"sql": "SELECT ...", ...}`           |
//! | `POST /cite_at`  | `{"query": ..., "version": 2}` (versioned deployments; `"at": ts` resolves a timestamp) |
//! | `GET /views`     | the registered citation views          |
//! | `GET /versions`  | the commit history (versioned deployments) |
//! | `GET /stats`     | per-endpoint latency/throughput + cache|
//! | `GET /healthz`   | liveness probe                         |
//! | `GET /metrics`   | Prometheus text exposition             |
//! | `GET /debug/slow`| slowest requests with stage breakdowns (the service's own row, on every role) |
//!
//! Every response carries an `x-request-id` header — honored from the
//! request when the client (or an upstream coordinator) sent one,
//! assigned at the front door otherwise.
//!
//! A versioned deployment ([`CiteServer::start_versioned`]) serves
//! `/cite` from the head version's engine and historical citations
//! from per-version engines, each *borrowed* on first touch from the
//! nearest warm engine — adopting every view extent its snapshot did
//! not change — or built from scratch when no warm engine shares its
//! catalog (`GET /stats` reports the derived-vs-rebuilt counters
//! under `fixity`).
//!
//! Per-request overrides (policy, order, mode, rewrite budgets,
//! memoization) ride on the JSON body — see [`wire`] for the exact
//! field set. Malformed HTTP or JSON, oversized bodies, unknown
//! routes, and bad request fields all answer 4xx without wedging a
//! worker; saturated `/cite_at` capacity answers 503, a spent
//! deadline 504.
//!
//! ```no_run
//! use fgc_core::CitationEngine;
//! use fgc_server::{CiteServer, ServerConfig};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(CitationEngine::new(
//!     fgc_gtopdb::paper_instance(),
//!     fgc_gtopdb::paper_views(),
//! ).unwrap());
//! let server = CiteServer::start(
//!     engine,
//!     ServerConfig::default().with_addr("127.0.0.1:0"),
//! ).unwrap();
//! println!("serving on http://{}", server.addr());
//! server.shutdown(); // graceful: drains and joins every thread
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod json;
pub mod server;
pub mod service;
pub mod stats;
pub mod wire;

pub use client::{Client, ClientResponse};
pub use json::{parse_json, JsonError};
pub use server::{views_body, write_engine_metrics, write_storage_metrics, CiteServer};
pub use service::{Call, HttpService, Response, Route, ServerConfig};
pub use stats::{EndpointStats, ServerStats};
pub use wire::{
    decode_cite_body, decode_cite_request, encode_response, encode_response_with, error_body,
    parse_body, QueryKind, WireError,
};
