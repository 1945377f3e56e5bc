//! The engine role: [`CiteServer`] is the one [`HttpService`] front
//! door plus the engine's route rows.
//!
//! ```text
//! HttpService (acceptor ──► connection queue ──► N workers ──► route table)
//!     │  every row answers on the worker that read the request
//!     ▼  POST /cite, /cite_sql
//! CitationEngine::cite_request(&self, ..)
//! ```
//!
//! One [`CitationEngine`] is shared by everything (the whole point of
//! the `&self` serving API): each worker decodes its request and calls
//! the engine itself, and all of them share its token and plan
//! caches. Two concurrent citations have nothing else
//! to amortise, so nothing coalesces them; the worker pool bounds
//! engine concurrency at `threads`. A replica behind a coordinator is
//! this same server: the coordinator forwards each cite body to one
//! replica's own `POST /cite`.
//!
//! `POST /cite_at` is `/cite` plus a version selector: the same
//! decoder, then an engine over the selected version's snapshot —
//! sharing the head engine's catalog-level state and caches when the
//! catalogs agree — serves the request through its `cite_request`.
//!
//! Shutdown ([`CiteServer::shutdown`]) is graceful and total: the
//! service stops accepting, drains and joins its workers.

use crate::service::{Call, HttpService, Response, Route, ServerConfig};
use crate::stats::ServerStats;
use crate::wire::{
    close_body, decode_cite_at_body, decode_cite_body, write_response_body, QueryKind,
};
use fgc_core::{CitationEngine, VersionSelector, VersionedCitation, VersionedCitationEngine};
use fgc_obs::PromWriter;
use fgc_relation::storage::{Storage, StorageStats};
use fgc_views::Json;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

/// A running citation service. Dropping the handle shuts it down.
#[derive(Debug)]
pub struct CiteServer {
    service: HttpService,
    engine: Arc<CitationEngine>,
}

impl CiteServer {
    /// Bind and start serving `engine` under `config`.
    pub fn start(engine: Arc<CitationEngine>, config: ServerConfig) -> io::Result<CiteServer> {
        CiteServer::start_inner(engine, None, config, Vec::new())
    }

    /// [`CiteServer::start`] with extra route rows: `extra` joins the
    /// engine's rows in the one route table. No serving role adds rows;
    /// kept for `benchmark/src/stack.rs:181`.
    pub fn start_with_handler(
        engine: Arc<CitationEngine>,
        config: ServerConfig,
        extra: Vec<Route>,
    ) -> io::Result<CiteServer> {
        CiteServer::start_inner(engine, None, config, extra)
    }

    /// Bind and start serving a **versioned** engine: the engine over
    /// the head version answers `/cite` and `/cite_sql` (as in
    /// [`CiteServer::start`]), while `POST /cite_at` serves
    /// fixity-stamped citations against any committed version and
    /// `GET /versions` lists the history. `GET /stats` gains a
    /// `fixity` block with the catalog-engine counters.
    pub fn start_versioned(
        versioned: Arc<VersionedCitationEngine>,
        config: ServerConfig,
    ) -> io::Result<CiteServer> {
        let (_, head) = versioned
            .resolve(VersionSelector::Head)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        CiteServer::start_inner(Arc::new(head), Some(versioned), config, Vec::new())
    }

    fn start_inner(
        engine: Arc<CitationEngine>,
        versioned: Option<Arc<VersionedCitationEngine>>,
        config: ServerConfig,
        extra: Vec<Route>,
    ) -> io::Result<CiteServer> {
        let stats = Arc::new(ServerStats::default());
        let storage = versioned
            .as_ref()
            .and_then(|v| v.storage())
            .or_else(|| engine.storage())
            .cloned();
        let app = Arc::new(App {
            engine: Arc::clone(&engine),
            versioned,
            storage,
            role: config.role.clone(),
        });
        let mut routes = vec![
            Route::new("POST", "/cite", |s| &s.cite, &app, serve_datalog).budgeted(),
            Route::new("POST", "/cite_sql", |s| &s.cite_sql, &app, serve_sql).budgeted(),
            Route::new("POST", "/cite_at", |s| &s.cite_at, &app, serve_cite_at).budgeted(),
            Route::new("GET", "/versions", |s| &s.versions, &app, serve_versions),
            Route::new("GET", "/views", |s| &s.views, &app, serve_views),
            Route::new("GET", "/stats", |s| &s.stats, &app, serve_stats),
            Route::new("GET", "/healthz", |s| &s.healthz, &app, serve_healthz),
            Route::new("GET", "/metrics", |s| &s.observe, &app, serve_metrics),
        ];
        routes.extend(extra);
        let service = HttpService::start(&config, stats, routes)?;
        Ok(CiteServer { service, engine })
    }

    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.service.addr()
    }

    /// The shared serving counters.
    pub fn stats(&self) -> Arc<ServerStats> {
        self.service.stats()
    }

    /// The engine being served.
    pub fn engine(&self) -> Arc<CitationEngine> {
        Arc::clone(&self.engine)
    }

    /// Graceful shutdown: stop accepting, drain, join every thread.
    pub fn shutdown(self) {
        self.service.shutdown();
    }

    /// Block until the server is shut down from elsewhere (the
    /// `fgcite serve` foreground mode; runs until the process dies).
    pub fn wait(self) {
        self.service.wait();
    }
}

/// What the engine routes share.
struct App {
    /// The engine `/cite`, `/cite_sql` and `/views` serve: the head
    /// version's in a versioned deployment.
    engine: Arc<CitationEngine>,
    /// Present in versioned deployments; enables `/cite_at`,
    /// `/versions`, and the `fixity` stats block.
    versioned: Option<Arc<VersionedCitationEngine>>,
    /// The store behind the deployment, if any — the versioned
    /// engine's, or else the engine's — read by `/stats`, `/healthz`
    /// and `/metrics`.
    storage: Option<Arc<dyn Storage>>,
    /// Role reported on `/healthz` and as the `/metrics` label.
    role: String,
}

fn serve_datalog(app: &App, call: &Call<'_>) -> Response {
    serve_cite(app, call, QueryKind::Datalog)
}

fn serve_sql(app: &App, call: &Call<'_>) -> Response {
    serve_cite(app, call, QueryKind::Sql)
}

fn serve_views(app: &App, _: &Call<'_>) -> Response {
    Response::json(200, views_body(&app.engine))
}

fn serve_cite(app: &App, call: &Call<'_>, kind: QueryKind) -> Response {
    // Wire decode is this worker's share of the `parse` stage (the
    // engine times the query resolution itself).
    let request = match decode_cite_body(&app.engine, &call.request.body, kind) {
        Ok(r) => r,
        Err(message) => return Response::error(400, &message),
    };
    let include_stages = request.include_stages;
    let request = request.with_request_id(call.request_id);
    // The engine call is not pre-empted: the service refused a spent
    // budget before this handler, and an overrun holds this one
    // worker until the answer is ready.
    match app.engine.cite_request(&request) {
        Ok(response) => {
            let body = write_response_body(&response, include_stages);
            Response {
                stages: response.stages,
                ..Response::json(200, body)
            }
        }
        // engine errors are request-shaped (unknown relation, SQL
        // parse failure against the catalog, ...): the client's fault
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// `POST /cite_at`: a fixity-stamped citation against a specific
/// version (`"version": id`), a point in time (`"at": timestamp`),
/// or the head when neither is given. The rest of the body is a
/// `/cite` body: `{"query": "Q(...) :- ...", "version": 2, "policy":
/// "join"}`.
fn serve_cite_at(app: &App, call: &Call<'_>) -> Response {
    let Some(versioned) = &app.versioned else {
        return Response::error(404, NOT_VERSIONED);
    };
    let (at, request) = match decode_cite_at_body(&call.request.body, app.engine.policy()) {
        Ok(decoded) => decoded,
        Err(message) => return Response::error(400, &message),
    };
    let include_stages = request.include_stages;
    let request = request.with_request_id(call.request_id);
    let served = versioned
        .resolve(at)
        .and_then(|(info, engine)| Ok((info, engine.cite_request(&request)?)));
    match served {
        Ok((info, response)) => {
            let tuples = response.citation.tuples.len() as i64;
            let mut body = VersionedCitation::new(info, response.citation).stamped_aggregate();
            body.set("Tuples", Json::Int(tuples));
            let mut out = body.to_compact();
            out.pop(); // the closing brace, written back by `close_body`
            close_body(&mut out, include_stages.then_some(&response.stages[..]));
            Response {
                stages: response.stages,
                ..Response::json(200, out)
            }
        }
        // an unknown version is the client's fault, as are the
        // engine's request-shaped errors
        Err(e) => Response::error(400, &e.to_string()),
    }
}

const NOT_VERSIONED: &str = "this deployment is not versioned (start with a commit history)";

/// `GET /versions`: the committed history, oldest first.
fn serve_versions(app: &App, _: &Call<'_>) -> Response {
    let Some(versioned) = &app.versioned else {
        return Response::error(404, NOT_VERSIONED);
    };
    let versions: Vec<Json> = versioned
        .history()
        .iter()
        .map(|(info, db)| {
            Json::from_pairs([
                ("id", Json::Int(info.id as i64)),
                ("label", Json::str(info.label.clone())),
                ("timestamp", Json::Int(info.timestamp as i64)),
                ("tuples", Json::Int(db.total_tuples() as i64)),
            ])
        })
        .collect();
    Response::json(
        200,
        Json::from_pairs([
            ("count", Json::Int(versions.len() as i64)),
            ("versions", Json::Array(versions)),
        ])
        .to_compact(),
    )
}

/// `GET /healthz`: liveness plus deployment identity — role and the
/// number of loaded versions — so a coordinator's health check and an
/// operator see the same truth. When the disk store reports trouble (a
/// failed sync, an unreadable manifest, a WAL backlog) the body gains
/// `degraded: true` plus the cause list while `status` stays a 200 —
/// the process still serves reads, it just cannot promise durability.
fn serve_healthz(app: &App, _: &Call<'_>) -> Response {
    let versions = app
        .versioned
        .as_ref()
        .map_or(1, |v| v.history().len() as i64);
    let health = app.storage.as_ref().map(|s| s.health());
    let degraded = health.as_ref().is_some_and(|h| h.degraded);
    let causes: Vec<Json> = health
        .map(|h| h.causes.into_iter().map(Json::str).collect())
        .unwrap_or_default();
    let body = Json::from_pairs([
        (
            "status",
            Json::str(if degraded { "degraded" } else { "ok" }),
        ),
        ("degraded", Json::Bool(degraded)),
        ("causes", Json::Array(causes)),
        ("role", Json::str(app.role.clone())),
        ("versions", Json::Int(versions)),
    ]);
    Response::json(200, body.to_compact())
}

/// The `GET /views` body: the registered citation views (a
/// coordinator serves its replicas' body verbatim).
fn views_body(engine: &CitationEngine) -> String {
    let views: Vec<Json> = engine
        .registry()
        .iter()
        .map(|v| {
            Json::from_pairs([
                ("name", Json::str(v.name.clone())),
                ("definition", Json::str(v.view.to_string())),
                ("citation_query", Json::str(v.citation_query.to_string())),
            ])
        })
        .collect();
    Json::from_pairs([
        ("count", Json::Int(views.len() as i64)),
        ("views", Json::Array(views)),
    ])
    .to_compact()
}

fn serve_stats(app: &App, call: &Call<'_>) -> Response {
    // ratios are server-computed to three places, so dashboards don't
    // have to divide
    let ratio = |r: f64| Json::Float((r * 1000.0).round() / 1000.0);
    let cache = app.engine.cache_stats();
    let plans = app.engine.plan_stats();
    let mut body = call.stats.to_json();
    if let Some(versioned) = &app.versioned {
        let fixity = versioned.version_stats();
        let memory = versioned.memory_stats();
        body.set(
            "fixity",
            Json::from_pairs([
                ("versions", Json::Int(fixity.versions as i64)),
                ("hits", Json::Int(fixity.hits as i64)),
                ("rebuilt", Json::Int(fixity.rebuilt as i64)),
                (
                    "resident_bytes",
                    Json::Int(memory.resident_bytes.min(i64::MAX as usize) as i64),
                ),
                (
                    "shared_relations",
                    Json::Int(memory.shared_relations as i64),
                ),
            ]),
        );
    }
    if let Some(storage) = app.storage.as_ref().map(|s| s.stats()) {
        body.set(
            "storage",
            Json::from_pairs([
                ("versions", Json::Int(storage.versions as i64)),
                ("segments", Json::Int(storage.segments as i64)),
                ("wal_records", Json::Int(storage.wal_records as i64)),
                ("wal_bytes", Json::Int(storage.wal_bytes as i64)),
                ("disk_bytes", Json::Int(storage.disk_bytes as i64)),
                ("compactions", Json::Int(storage.compactions as i64)),
            ]),
        );
    }
    body.set("served", Json::Int(call.stats.served() as i64));
    body.set(
        "engine_cache",
        Json::from_pairs([
            ("hits", Json::Int(cache.hits as i64)),
            ("misses", Json::Int(cache.misses as i64)),
            ("entries", Json::Int(cache.entries as i64)),
            ("evictions", Json::Int(cache.evictions as i64)),
            ("hit_rate", ratio(cache.hit_rate())),
        ]),
    );
    body.set(
        "plan_cache",
        Json::from_pairs([
            ("hits", Json::Int(plans.hits as i64)),
            ("misses", Json::Int(plans.misses as i64)),
            ("size", Json::Int(plans.entries as i64)),
            ("evictions", Json::Int(plans.evictions as i64)),
            ("hit_rate", ratio(plans.hit_rate())),
        ]),
    );
    body.set(
        "cache_hit_rates",
        Json::from_pairs([
            ("tokens", ratio(cache.hit_rate())),
            ("plans", ratio(plans.hit_rate())),
        ]),
    );
    Response::json(200, body.to_compact())
}

/// `GET /metrics`: Prometheus text exposition of the serving tier,
/// the engine (stage histograms, cache counters) and the store.
fn serve_metrics(app: &App, call: &Call<'_>) -> Response {
    let mut w = PromWriter::new();
    let base = [("role", app.role.as_str())];
    call.stats.write_prometheus(&mut w, &base);
    write_engine_metrics(&mut w, &base, &app.engine);
    if let Some(storage) = &app.storage {
        write_storage_metrics(&mut w, &base, &storage.stats());
    }
    // Per-fault-point hit/injection counters: empty (and free) unless
    // the process-global plane has been armed or set to observe.
    fgc_fault::global().write_prometheus(&mut w, &base);
    Response::prometheus(w.finish())
}

/// Append the engine-level metric families — per-stage cite pipeline
/// latency and token/plan cache counters — to a Prometheus
/// exposition, on every engine role's `GET /metrics`.
fn write_engine_metrics(w: &mut PromWriter, base: &[(&str, &str)], engine: &CitationEngine) {
    w.help(
        "fgcite_stage_duration_seconds",
        "histogram",
        "Cite pipeline stage latency (`evaluate` contains the `plan` sub-span).",
    );
    for (stage, h) in engine.stage_stats().iter() {
        let snap = h.snapshot();
        if snap.count() == 0 {
            continue;
        }
        let mut labels = base.to_vec();
        labels.push(("stage", stage));
        w.histogram("fgcite_stage_duration_seconds", &labels, &snap, 1e-9);
    }
    let tokens = engine.cache_stats();
    let plans = engine.plan_stats();
    for (name, help, token_v, plan_v) in [
        (
            "fgcite_cache_hits_total",
            "Cache hits, by cache.",
            tokens.hits,
            plans.hits,
        ),
        (
            "fgcite_cache_misses_total",
            "Cache misses, by cache.",
            tokens.misses,
            plans.misses,
        ),
        (
            "fgcite_cache_evictions_total",
            "Cache evictions, by cache.",
            tokens.evictions,
            plans.evictions,
        ),
    ] {
        w.help(name, "counter", help);
        let mut labels = base.to_vec();
        labels.push(("cache", "tokens"));
        w.int(name, &labels, token_v);
        let mut labels = base.to_vec();
        labels.push(("cache", "plans"));
        w.int(name, &labels, plan_v);
    }
    w.help(
        "fgcite_cache_entries",
        "gauge",
        "Live cache entries, by cache.",
    );
    let mut labels = base.to_vec();
    labels.push(("cache", "tokens"));
    w.int("fgcite_cache_entries", &labels, tokens.entries as u64);
    let mut labels = base.to_vec();
    labels.push(("cache", "plans"));
    w.int("fgcite_cache_entries", &labels, plans.entries as u64);

    let miss = engine.cache_compute_latency();
    if miss.count() > 0 {
        w.help(
            "fgcite_cache_miss_seconds",
            "histogram",
            "Token-extent compute latency on a cache miss.",
        );
        w.histogram("fgcite_cache_miss_seconds", base, &miss, 1e-9);
    }
    let compile = engine.plan_compile_latency();
    if compile.count() > 0 {
        w.help(
            "fgcite_plan_compile_seconds",
            "histogram",
            "Query-plan compile latency on a plan-cache miss.",
        );
        w.histogram("fgcite_plan_compile_seconds", base, &compile, 1e-9);
    }
}

/// Append the disk store's metric families (`fgcite_storage_*`) to a
/// Prometheus exposition.
pub fn write_storage_metrics(w: &mut PromWriter, base: &[(&str, &str)], stats: &StorageStats) {
    for (name, help, value) in [
        (
            "fgcite_storage_versions",
            "Versions the store holds.",
            stats.versions as u64,
        ),
        (
            "fgcite_storage_segments",
            "Full segment files in the manifest.",
            stats.segments as u64,
        ),
        (
            "fgcite_storage_wal_records",
            "Delta records currently served from the WAL.",
            stats.wal_records as u64,
        ),
        (
            "fgcite_storage_wal_bytes",
            "Referenced bytes in the write-ahead log.",
            stats.wal_bytes,
        ),
        (
            "fgcite_storage_disk_bytes",
            "Bytes on disk across manifest, WAL, and segments.",
            stats.disk_bytes,
        ),
    ] {
        w.help(name, "gauge", help);
        w.int(name, base, value);
    }
    let name = "fgcite_storage_compactions_total";
    w.help(name, "counter", "WAL compactions folded into segments.");
    w.int(name, base, stats.compactions);
}
