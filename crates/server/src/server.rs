//! The engine role: [`CiteServer`] is the one [`HttpService`] front
//! door plus the engine's route rows, over a commit history (§4:
//! "data sources must support versioning") and nothing else.
//!
//! ```text
//! HttpService (acceptor ──► connection queue ──► N workers ──► route table)
//!     │  every row answers on the worker that read the request
//!     ▼  POST /cite, /cite_sql, /cite_at
//! VersionedCitationEngine::resolve(selector) ──► CitationEngine::cite_request(&self, ..)
//! ```
//!
//! A version is an argument: each cite resolves its selector (the
//! head on `/cite` and `/cite_sql`; `"version"` or `"at"` on
//! `/cite_at`) to an engine over that version's snapshot, so `/cite`
//! is `/cite_at` at the head without the fixity stamp. `/views`,
//! `/stats` and `/metrics` read the head's engine the same way. A
//! server started over one engine serves it as a one-version history.
//!
//! The engines of a catalog share its state and caches (the whole
//! point of the `&self` serving API): each worker calls the engine
//! itself. Two concurrent citations have nothing else to amortise, so
//! nothing coalesces them; the worker pool bounds engine concurrency
//! at `threads`. A replica behind a coordinator is this same server.
//!
//! Shutdown ([`CiteServer::shutdown`]) is graceful and total: the
//! service stops accepting, drains and joins its workers.

use crate::service::{Call, HttpService, Response, Route, ServerConfig};
use crate::stats::ServerStats;
use crate::wire::{close_body, decode_cite_body, write_response_body, QueryKind};
use fgc_core::{CitationEngine, VersionSelector, VersionedCitation, VersionedCitationEngine};
use fgc_obs::PromWriter;
use fgc_relation::storage::StorageStats;
use fgc_views::Json;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

/// A running citation service. Dropping the handle shuts it down.
#[derive(Debug)]
pub struct CiteServer {
    service: HttpService,
    versioned: Arc<VersionedCitationEngine>,
}

impl CiteServer {
    /// Bind and start serving `engine` under `config`, as a
    /// one-version history
    /// ([`VersionedCitationEngine::from_engine`]): the engine keeps
    /// its policy, options and caches, and [`Self::engine`] reads its
    /// counters.
    pub fn start(engine: Arc<CitationEngine>, config: ServerConfig) -> io::Result<CiteServer> {
        CiteServer::start_with_handler(engine, config, Vec::new())
    }

    /// [`CiteServer::start`] with extra route rows: `extra` joins the
    /// engine's rows in the one route table. No serving role adds rows;
    /// kept for `benchmark/src/stack.rs:181`.
    pub fn start_with_handler(
        engine: Arc<CitationEngine>,
        config: ServerConfig,
        extra: Vec<Route>,
    ) -> io::Result<CiteServer> {
        let versioned = Arc::new(VersionedCitationEngine::from_engine(engine));
        CiteServer::start_inner(versioned, config, extra)
    }

    /// Bind and start serving a commit history: every cite route
    /// resolves its version per request — `/cite` and `/cite_sql` the
    /// head, `POST /cite_at` any committed version, fixity-stamped —
    /// while `GET /versions` lists the history and `GET /stats` has a
    /// `fixity` block with the catalog-engine counters.
    pub fn start_versioned(
        versioned: Arc<VersionedCitationEngine>,
        config: ServerConfig,
    ) -> io::Result<CiteServer> {
        CiteServer::start_inner(versioned, config, Vec::new())
    }

    fn start_inner(
        versioned: Arc<VersionedCitationEngine>,
        config: ServerConfig,
        extra: Vec<Route>,
    ) -> io::Result<CiteServer> {
        // refuses an empty history, or views that do not validate
        // against the head's catalog, before a port is bound
        versioned
            .resolve(VersionSelector::Head)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let stats = Arc::new(ServerStats::default());
        let app = Arc::new(App {
            versioned: Arc::clone(&versioned),
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
        Ok(CiteServer { service, versioned })
    }

    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.service.addr()
    }

    /// The shared serving counters.
    pub fn stats(&self) -> Arc<ServerStats> {
        self.service.stats()
    }

    /// The engine over the head version, resolved on each call; it
    /// shares the catalog engine's counters and caches. Kept for
    /// `benchmark/src/layers.rs:90`, `benchmark/src/stack.rs:265` and
    /// `tests/server_http.rs:265`.
    pub fn engine(&self) -> Arc<CitationEngine> {
        let head = self.versioned.resolve(VersionSelector::Head);
        Arc::new(head.expect("the head resolved at start-up").1)
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
    /// The history every route serves; its store, if any, is read by
    /// `/stats`, `/healthz` and `/metrics`.
    versioned: Arc<VersionedCitationEngine>,
    /// Role reported on `/healthz` and as the `/metrics` label.
    role: String,
}

/// Serve a route that reads the head's engine (`/views`, `/stats`,
/// `/metrics`). The head resolved at start-up and a served history
/// cannot shrink, so the 500 is only a guard.
fn at_head(app: &App, serve: impl FnOnce(&CitationEngine) -> Response) -> Response {
    match app.versioned.resolve(VersionSelector::Head) {
        Ok((_, engine)) => serve(&engine),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

// The route picks only the query field and whether the reply is
// stamped; `serve_cite` does the rest.
fn serve_datalog(app: &App, call: &Call<'_>) -> Response {
    serve_cite(app, call, QueryKind::Datalog, false)
}

fn serve_sql(app: &App, call: &Call<'_>) -> Response {
    serve_cite(app, call, QueryKind::Sql, false)
}

fn serve_cite_at(app: &App, call: &Call<'_>) -> Response {
    serve_cite(app, call, QueryKind::Datalog, true)
}

fn serve_views(app: &App, _: &Call<'_>) -> Response {
    at_head(app, |engine| Response::json(200, views_body(engine)))
}

/// The one cite path: decode the body and resolve its version, cite
/// through that version's engine, then write the `/cite` body or,
/// when `stamped` (`/cite_at`), the fixity-stamped one.
fn serve_cite(app: &App, call: &Call<'_>, kind: QueryKind, stamped: bool) -> Response {
    let (info, engine, request) =
        match decode_cite_body(&app.versioned, &call.request.body, kind, stamped) {
            Ok(decoded) => decoded,
            // an unknown version is the client's fault
            Err(message) => return Response::error(400, &message),
        };
    let include_stages = request.include_stages;
    let request = request.with_request_id(call.request_id);
    // The engine call is not pre-empted: the service refused a spent
    // budget before this handler, and an overrun holds this one
    // worker until the answer is ready.
    let response = match engine.cite_request(&request) {
        Ok(response) => response,
        // engine errors are request-shaped (unknown relation, SQL
        // parse failure against the catalog, ...): the client's fault
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let body = if stamped {
        let tuples = response.citation.tuples.len() as i64;
        let mut body = VersionedCitation::new(info, response.citation).stamped_aggregate();
        body.set("Tuples", Json::Int(tuples));
        let mut out = body.to_compact();
        out.pop(); // the closing brace, written back by `close_body`
        close_body(&mut out, include_stages.then_some(&response.stages[..]));
        out
    } else {
        write_response_body(&response, include_stages)
    };
    Response {
        stages: response.stages,
        ..Response::json(200, body)
    }
}

/// `GET /versions`: the committed history, oldest first.
fn serve_versions(app: &App, _: &Call<'_>) -> Response {
    let versions: Vec<Json> = app
        .versioned
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
    let versions = app.versioned.history().len() as i64;
    let health = app.versioned.storage().map(|s| s.health());
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
    at_head(app, |engine| {
        // ratios are server-computed to three places, so dashboards don't
        // have to divide
        let ratio = |r: f64| Json::Float((r * 1000.0).round() / 1000.0);
        let cache = engine.cache_stats();
        let plans = engine.plan_stats();
        let mut body = call.stats.to_json();
        let fixity = app.versioned.version_stats();
        let memory = app.versioned.memory_stats();
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
        if let Some(storage) = app.versioned.storage().map(|s| s.stats()) {
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
    })
}

/// `GET /metrics`: Prometheus text exposition of the serving tier,
/// the engine (stage histograms, cache counters) and the store.
fn serve_metrics(app: &App, call: &Call<'_>) -> Response {
    let mut w = PromWriter::new();
    let base = [("role", app.role.as_str())];
    call.stats.write_prometheus(&mut w, &base);
    at_head(app, |engine| {
        write_engine_metrics(&mut w, &base, engine);
        if let Some(storage) = app.versioned.storage() {
            write_storage_metrics(&mut w, &base, &storage.stats());
        }
        // Per-fault-point hit/injection counters: empty (and free)
        // unless the process-global plane has been armed or set to
        // observe.
        fgc_fault::global().write_prometheus(&mut w, &base);
        Response::prometheus(w.finish())
    })
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
