//! The coordinator: a thin forwarder over full replicas.
//!
//! Every replica is an ordinary engine server (`fgcite serve`) over
//! the whole snapshot, so any one of them can serve any citation. A
//! [`Coordinator`] holds the [`ReplicaPool`] and the `GET /views` body
//! it fetched at bootstrap, and nothing else: it never parses a cite
//! body. Each `POST /cite` and `/cite_sql` body goes unchanged to one
//! replica's own route — replica `fnv64(body) % n` first, then the
//! next ones in order — and the first answer's status and body come
//! back verbatim, 200 and 4xx alike. A replica's reply *is* the single
//! server's reply, so distributed citations are byte-identical by
//! construction, and equal bodies reach the same replica, so each
//! replica's caches see a stable slice of the traffic.
//!
//! Each try uses the pool's bounded retry and circuit breaker, and a
//! 5xx counts as a transport failure. The request ID rides along as
//! `x-request-id`, and `x-deadline-ms` carries the budget that is left
//! when that replica is tried. A spent budget answers a structured
//! 504; when every replica fails the coordinator answers a structured
//! 503 naming the replicas it tried.

use crate::pool::{CallError, PoolConfig, ReplicaPool};
use fgc_core::{CitationEngine, CiteRequest, QuerySpec};
use fgc_relation::Database;
use fgc_server::parse_json;
use fgc_server::wire::{error_body, QueryKind, NON_UTF8_BODY};
use fgc_views::{Json, ViewRegistry};
use std::net::SocketAddr;
use std::sync::OnceLock;
use std::time::Instant;

/// Coordinator deployment settings.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// The replicas, each a full engine server over the same data.
    pub replicas: Vec<SocketAddr>,
    /// Retry/timeout/circuit tuning for replica calls.
    pub pool: PoolConfig,
}

impl CoordinatorConfig {
    /// A coordinator over `replicas` with default pool settings.
    pub fn new(replicas: Vec<SocketAddr>) -> Self {
        CoordinatorConfig {
            replicas,
            pool: PoolConfig::default(),
        }
    }

    /// Builder: pool tuning.
    pub fn with_pool(mut self, pool: PoolConfig) -> Self {
        self.pool = pool;
        self
    }
}

/// The running coordinator.
#[derive(Debug)]
pub struct Coordinator {
    pool: ReplicaPool,
    /// The replicas' `GET /views` body, fetched once at bootstrap.
    views: String,
}

impl Coordinator {
    /// Bootstrap against a live replica set: every listed replica must
    /// answer `GET /healthz` with a role other than `coordinator` (a
    /// coordinator listed as a replica would forward in a loop), and
    /// the first one's `GET /views` body is kept for serving.
    pub fn connect(config: CoordinatorConfig) -> Result<Coordinator, String> {
        if config.replicas.is_empty() {
            return Err("a coordinator needs at least one replica".into());
        }
        let pool = ReplicaPool::new(config.replicas, config.pool);
        for index in 0..pool.replicas() {
            let addr = pool.addr(index);
            let health = pool
                .request(index, "GET", "/healthz", None)
                .map_err(|e| format!("replica {addr} is unreachable: {e}"))?;
            check_health(&health.body).map_err(|e| format!("replica {addr}: {e}"))?;
        }
        let views = pool
            .request(0, "GET", "/views", None)
            .map_err(|e| format!("replica {}: {e}", pool.addr(0)))?;
        if views.status != 200 {
            return Err(format!(
                "replica {} answered GET /views with {}",
                pool.addr(0),
                views.status
            ));
        }
        Ok(Coordinator {
            pool,
            views: views.body,
        })
    }

    /// The `GET /views` body the replicas served at bootstrap.
    pub fn views(&self) -> &str {
        &self.views
    }

    /// An engine over an empty database and registry: a coordinator
    /// runs none, so its counters read 0. Kept for
    /// `benchmark/src/stack.rs:266`.
    pub fn engine(&self) -> &CitationEngine {
        static EMPTY: OnceLock<CitationEngine> = OnceLock::new();
        EMPTY.get_or_init(|| {
            CitationEngine::new(Database::new(), ViewRegistry::new())
                .expect("an empty registry validates")
        })
    }

    /// The replica connection pool (per-replica circuit state for
    /// `GET /stats`, counters for `GET /metrics`).
    pub fn pool(&self) -> &ReplicaPool {
        &self.pool
    }

    /// Serve one `POST /cite` / `/cite_sql` body under the front
    /// door's request ID and deadline by forwarding it whole. Returns
    /// `(status, body)`: the replica's answer verbatim, the single
    /// server's 400 for a body that is not UTF-8, a structured 504
    /// when the budget ran out, or a structured 503 when no replica
    /// answered.
    pub fn serve_cite_with_deadline(
        &self,
        body: &[u8],
        kind: QueryKind,
        request_id: &str,
        deadline: Option<Instant>,
    ) -> (u16, String) {
        let Ok(body) = std::str::from_utf8(body) else {
            return (400, error_body(NON_UTF8_BODY));
        };
        let path = match kind {
            QueryKind::Datalog => "/cite",
            QueryKind::Sql => "/cite_sql",
        };
        self.forward(path, body, request_id, deadline)
    }

    /// Forward a decoded request as `{"query"|"sql": text}` with no
    /// deadline; a request carrying a policy, mode, budget or stages
    /// override answers 400. Honors `request.request_id` when set,
    /// assigns one otherwise. Kept for `benchmark/src/layers.rs:468`.
    pub fn serve_request(&self, request: &CiteRequest) -> (u16, String) {
        let overridden = request.policy.is_some()
            || request.mode.is_some()
            || request.rewrite.is_some()
            || request.include_stages;
        if overridden {
            return (400, error_body("a forwarded request carries no overrides"));
        }
        let (path, field, text) = match &request.query {
            QuerySpec::Datalog(q) => ("/cite", "query", q.to_string()),
            QuerySpec::Sql(sql) => ("/cite_sql", "sql", sql.clone()),
        };
        let body = Json::from_pairs([(field, Json::str(text))]);
        let request_id = match &request.request_id {
            Some(id) => id.clone(),
            None => fgc_obs::next_request_id(),
        };
        self.forward(path, &body.to_compact(), &request_id, None)
    }

    /// Try replica `fnv64(body) % n`, then the next ones in order, and
    /// relay the first answer.
    fn forward(
        &self,
        path: &str,
        body: &str,
        request_id: &str,
        deadline: Option<Instant>,
    ) -> (u16, String) {
        let replicas = self.pool.replicas();
        let first = (fgc_fault::fnv64(body.as_bytes()) % replicas as u64) as usize;
        let mut tried = Vec::new();
        for index in (first..first + replicas).map(|i| i % replicas) {
            let budget_ms = deadline.map(|d| {
                d.saturating_duration_since(Instant::now())
                    .as_millis()
                    .to_string()
            });
            let mut headers = vec![("x-request-id", request_id)];
            if let Some(ms) = &budget_ms {
                headers.push(("x-deadline-ms", ms.as_str()));
            }
            let addr = self.pool.addr(index);
            match self.pool.request_with_headers(
                index,
                "POST",
                path,
                Some(body),
                &headers,
                deadline,
            ) {
                Ok(response) => return (response.status, response.body),
                Err(CallError::DeadlineExceeded) => return deadline_exceeded(request_id),
                Err(CallError::CircuitOpen) => tried.push(format!("{addr} (circuit open)")),
                Err(CallError::Transport(_)) => tried.push(addr.to_string()),
            }
            // A transport failure that used up the whole budget (a
            // stalled read clamped to the deadline) is the client's
            // 504, not an outage.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return deadline_exceeded(request_id);
            }
        }
        let body = Json::from_pairs([
            (
                "error",
                Json::str(format!("no live replica (tried {})", tried.join(", "))),
            ),
            (
                "replicas_tried",
                Json::Array(tried.into_iter().map(Json::str).collect()),
            ),
            ("request_id", Json::str(request_id)),
        ]);
        (503, body.to_compact())
    }
}

/// The structured 504 for a request whose budget ran out while it was
/// being forwarded.
fn deadline_exceeded(request_id: &str) -> (u16, String) {
    let body = Json::from_pairs([
        (
            "error",
            Json::str("deadline exceeded while forwarding to a replica"),
        ),
        ("request_id", Json::str(request_id)),
    ]);
    (504, body.to_compact())
}

/// Refuse a replica whose `/healthz` names no role or names the
/// coordinator's.
fn check_health(body: &str) -> Result<(), String> {
    let parsed = parse_json(body).map_err(|e| format!("unparseable /healthz body: {e}"))?;
    match parsed.get("role") {
        Some(Json::Str(role)) if role == "coordinator" => {
            Err("is a coordinator, not a replica: forwarding to it would loop".into())
        }
        Some(Json::Str(_)) => Ok(()),
        _ => Err("/healthz reports no role".into()),
    }
}
