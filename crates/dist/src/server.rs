//! The coordinator role: the one [`HttpService`] front door — the
//! same acceptor → bounded queue → worker loop, framing, request-ID,
//! deadline, slow-log and routing code every role runs — plus the
//! coordinator's route rows, speaking the single server's wire format:
//!
//! | route            | body                                     |
//! |------------------|------------------------------------------|
//! | `POST /cite`     | standard cite body, forwarded to one replica |
//! | `POST /cite_sql` | standard SQL cite body, forwarded likewise |
//! | `GET /views`     | the replicas' views, cached at bootstrap |
//! | `GET /stats`     | endpoint stats + per-replica circuit state |
//! | `GET /healthz`   | role, liveness                           |
//! | `GET /metrics`   | Prometheus exposition (incl. replica pool) |
//! | `GET /debug/slow`| slowest requests seen (the service's own row) |
//!
//! As on every role, the worker that read a request serves it: the
//! replica call is made on that worker, with the request ID and the
//! remaining deadline the front door assigned.
//!
//! Shutdown is graceful and total: every worker finishes its in-flight
//! forwarded request before joining — the `in_flight` gauge on
//! `GET /stats` and `GET /metrics` makes the drain observable.

use crate::coordinator::Coordinator;
use fgc_obs::PromWriter;
use fgc_server::wire::QueryKind;
use fgc_server::{Call, HttpService, Response, Route, ServerConfig, ServerStats};
use fgc_views::Json;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

/// A running coordinator service. Dropping the handle shuts it down.
#[derive(Debug)]
pub struct DistServer {
    service: HttpService,
    coordinator: Arc<Coordinator>,
}

impl DistServer {
    /// Bind and serve `coordinator` under `config` (`role` does not
    /// apply: a coordinator always reports itself as one).
    pub fn start(coordinator: Arc<Coordinator>, config: ServerConfig) -> io::Result<DistServer> {
        let state = &coordinator;
        let routes = vec![
            Route::new("POST", "/cite", |s| &s.cite, state, serve_datalog).budgeted(),
            Route::new("POST", "/cite_sql", |s| &s.cite_sql, state, serve_sql).budgeted(),
            Route::new("GET", "/views", |s| &s.views, state, serve_views),
            Route::new("GET", "/stats", |s| &s.stats, state, serve_stats),
            Route::new("GET", "/healthz", |s| &s.healthz, state, serve_healthz),
            Route::new("GET", "/metrics", |s| &s.observe, state, serve_metrics),
        ];
        let service = HttpService::start(&config, Arc::default(), routes)?;
        Ok(DistServer {
            service,
            coordinator,
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.service.addr()
    }

    /// The coordinator being served.
    pub fn coordinator(&self) -> Arc<Coordinator> {
        Arc::clone(&self.coordinator)
    }

    /// The shared serving counters.
    pub fn stats(&self) -> Arc<ServerStats> {
        self.service.stats()
    }

    /// Graceful shutdown: stop accepting, drain the connection queue,
    /// and join every worker — each finishes the forwarded request it
    /// is serving before exiting.
    pub fn shutdown(self) {
        self.service.shutdown();
    }

    /// Block until the server is shut down from elsewhere.
    pub fn wait(self) {
        self.service.wait();
    }
}

fn serve_datalog(coordinator: &Coordinator, call: &Call<'_>) -> Response {
    serve_cite(coordinator, call, QueryKind::Datalog)
}

fn serve_sql(coordinator: &Coordinator, call: &Call<'_>) -> Response {
    serve_cite(coordinator, call, QueryKind::Sql)
}

/// `GET /views`: the replicas' body, cached at bootstrap, so it keeps
/// answering while they are down.
fn serve_views(coordinator: &Coordinator, _: &Call<'_>) -> Response {
    Response::json(200, coordinator.views().to_string())
}

fn serve_cite(coordinator: &Coordinator, call: &Call<'_>, kind: QueryKind) -> Response {
    let (status, body) = coordinator.serve_cite_with_deadline(
        &call.request.body,
        kind,
        call.request_id,
        Some(call.deadline),
    );
    Response::json(status, body)
}

/// `GET /healthz`: the same shape a replica reports, with the
/// coordinator's role. The coordinator is `degraded` while any
/// replica circuit is open — it still serves (failover, partial
/// capacity) but cannot promise every replica is reachable.
fn serve_healthz(coordinator: &Coordinator, _: &Call<'_>) -> Response {
    let open = coordinator.pool().open_addrs();
    let degraded = !open.is_empty();
    let causes: Vec<Json> = open
        .iter()
        .map(|addr| Json::str(format!("replica circuit open: {addr}")))
        .collect();
    let body = Json::from_pairs([
        (
            "status",
            Json::str(if degraded { "degraded" } else { "ok" }),
        ),
        ("degraded", Json::Bool(degraded)),
        ("causes", Json::Array(causes)),
        ("role", Json::str("coordinator")),
        ("versions", Json::Int(1)),
    ]);
    Response::json(200, body.to_compact())
}

/// `GET /stats`: endpoint counters plus the forwarding tier's state —
/// per-replica circuit/traffic and the in-flight gauge.
fn serve_stats(coordinator: &Coordinator, call: &Call<'_>) -> Response {
    let mut body = call.stats.to_json();
    body.set("role", Json::str("coordinator"));
    body.set("replicas", coordinator.pool().to_json());
    body.set("served", Json::Int(call.stats.served() as i64));
    Response::json(200, body.to_compact())
}

/// `GET /metrics`: Prometheus exposition of the coordinator's serving
/// tier and its per-replica pool.
fn serve_metrics(coordinator: &Coordinator, call: &Call<'_>) -> Response {
    let mut w = PromWriter::new();
    let base = [("role", "coordinator")];
    call.stats.write_prometheus(&mut w, &base);
    coordinator.pool().write_prometheus(&mut w, &base);
    // Per-fault-point counters (empty unless the plane is armed).
    fgc_fault::global().write_prometheus(&mut w, &base);
    Response::prometheus(w.finish())
}
