//! The stateless coordinator: bootstrap, scatter/gather, failover.
//!
//! A [`Coordinator`] holds **no data**. At startup it validates every
//! replica's `/healthz` (role and `i/n` shard ownership), fetches
//! `/fragment/meta` once, and rebuilds from it (a) a schema-only
//! [`CitationEngine`] — empty relations, real constraints, real view
//! texts — that runs the entire citation control plane, and (b) a
//! schema-only [`ShardedDatabase`] shell whose [`ShardRouter`]
//! computes the same per-atom [`RoutePlan`] every replica computes
//! (routing is a pure function of query and spec, independent of the
//! stored tuples).
//!
//! Serving a request drives the engine through a [`ScatterPlane`]:
//! answer and extent evaluations scatter to the implicated shards'
//! replicas in parallel, fragments come back as `(gid, seq, ...)`
//! rows, and gathering is a sort-merge in global tuple order — which
//! is exactly the single-process enumeration order, so citations are
//! byte-identical. Per shard the coordinator tries the primary, then
//! its twin, each with the pool's bounded retry; when every candidate
//! is down the request fails with a structured outage the server
//! layer maps to 503.

use crate::pool::{CallError, PoolConfig, ReplicaPool};
use crate::proto;
use fgc_core::{
    CitationEngine, CiteDataPlane, CiteRequest, CiteToken, CoreError, Result as CoreResult,
};
use fgc_query::{Binding, ConjunctiveQuery, RoutePlan, ShardRouter, ShardSet};
use fgc_relation::sharded::{ShardKeySpec, ShardedDatabase};
use fgc_relation::{Database, Tuple};
use fgc_server::wire::{encode_response_with, error_body, QueryKind};
use fgc_server::{decode_cite_body, parse_json};
use fgc_views::{CitationFunction, CitationView, Json, ViewRegistry};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Instant;

/// Coordinator deployment settings.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Primary replica of each shard, in shard order (`replicas[i]`
    /// must own shard `i` of `replicas.len()`).
    pub replicas: Vec<SocketAddr>,
    /// Optional failover twin per shard (same shard ownership).
    /// Empty, or one entry per shard.
    pub twins: Vec<Option<SocketAddr>>,
    /// Retry/timeout/circuit tuning for replica calls.
    pub pool: PoolConfig,
}

impl CoordinatorConfig {
    /// A coordinator over `replicas` with no twins and default pool
    /// settings.
    pub fn new(replicas: Vec<SocketAddr>) -> Self {
        CoordinatorConfig {
            replicas,
            twins: Vec::new(),
            pool: PoolConfig::default(),
        }
    }

    /// Builder: per-shard failover twins.
    pub fn with_twins(mut self, twins: Vec<Option<SocketAddr>>) -> Self {
        self.twins = twins;
        self
    }

    /// Builder: pool tuning.
    pub fn with_pool(mut self, pool: PoolConfig) -> Self {
        self.pool = pool;
        self
    }
}

/// A shard whose whole replica set (primary and twin) is unreachable.
#[derive(Debug, Clone)]
pub struct ShardOutage {
    /// The shard no candidate could serve, when the failed call was
    /// shard-addressed (`None` for token interpretation, which any
    /// replica can serve).
    pub shard: Option<usize>,
    /// The replica addresses tried, in failover order.
    pub tried: Vec<String>,
}

/// How one shard-addressed call failed.
enum ShardCallError {
    /// The replica answered 4xx: a request-shaped error whose message
    /// must reach the client verbatim. Never retried or failed over —
    /// every replica would refuse identically.
    Query(String),
    /// Every candidate failed at the transport layer.
    Exhausted(ShardOutage),
    /// The request's end-to-end budget ran out mid-scatter; the
    /// server layer answers 504 instead of the outage 503.
    Deadline,
}

/// The running coordinator.
#[derive(Debug)]
pub struct Coordinator {
    engine: CitationEngine,
    shell: ShardedDatabase,
    pool: ReplicaPool,
    /// Per shard: pool indices to try, in failover order.
    candidates: Vec<Vec<usize>>,
    shards: usize,
}

impl Coordinator {
    /// Bootstrap against a live replica set: health-check and
    /// validate every configured replica, fetch `/fragment/meta`,
    /// and rebuild the schema-only engine and routing shell.
    pub fn connect(config: CoordinatorConfig) -> Result<Coordinator, String> {
        let shards = config.replicas.len();
        if shards == 0 {
            return Err("a coordinator needs at least one replica".into());
        }
        if !config.twins.is_empty() && config.twins.len() != shards {
            return Err(format!(
                "got {} twins for {shards} replicas (give one per shard, `-` for none)",
                config.twins.len()
            ));
        }
        let mut addrs = config.replicas.clone();
        let mut candidates: Vec<Vec<usize>> = (0..shards).map(|i| vec![i]).collect();
        for (shard, twin) in config.twins.iter().enumerate() {
            if let Some(addr) = twin {
                candidates[shard].push(addrs.len());
                addrs.push(*addr);
            }
        }
        let pool = ReplicaPool::new(addrs, config.pool);

        // Validate the topology: each candidate must self-report as
        // the replica owning the shard we will route to it. A twin is
        // allowed to be down at bootstrap (that is what failover is
        // for) but a reachable one must not be mis-sharded.
        let mut meta = None;
        for (shard, cands) in candidates.iter().enumerate() {
            let mut live = false;
            for (rank, &idx) in cands.iter().enumerate() {
                match pool.request(idx, "GET", "/healthz", None) {
                    Ok(response) => {
                        check_health(&response.body, shard, shards)
                            .map_err(|e| format!("replica {}: {e}", pool.addr(idx)))?;
                        live = true;
                        if meta.is_none() {
                            let m = pool
                                .request(idx, "GET", "/fragment/meta", None)
                                .map_err(|e| format!("replica {}: {e}", pool.addr(idx)))?;
                            meta = Some(m.body);
                        }
                    }
                    Err(e) if rank == 0 => {
                        return Err(format!(
                            "replica {} (shard {shard}) is unreachable: {e}",
                            pool.addr(idx)
                        ))
                    }
                    Err(_) => {} // a dead twin is tolerable
                }
            }
            if !live {
                return Err(format!("no live replica for shard {shard}"));
            }
        }
        let meta = meta.ok_or_else(|| "no replica served /fragment/meta".to_string())?;
        let (engine, shell) = build_from_meta(&meta, shards)?;
        Ok(Coordinator {
            engine,
            shell,
            pool,
            candidates,
            shards,
        })
    }

    /// The schema-only control-plane engine.
    pub fn engine(&self) -> &CitationEngine {
        &self.engine
    }

    /// Number of shards in the topology.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The replica connection pool (per-replica circuit state for
    /// `GET /stats`, counters for `GET /metrics`).
    pub fn pool(&self) -> &ReplicaPool {
        &self.pool
    }

    /// Serve one `POST /cite` / `/cite_sql` body end to end under
    /// the front door's request ID and deadline: decode, scatter,
    /// gather, encode. Returns `(status, body)` — 200 with the
    /// standard response, 400 with the engine's error relayed
    /// verbatim, a structured 503 naming the dead shard and every
    /// replica tried when a replica set is exhausted, or a structured
    /// 504 when the budget ran out mid-scatter. The ID rides as
    /// `x-request-id` and the remaining budget as `x-deadline-ms` on
    /// every `/fragment/*` call; the budget also bounds each replica
    /// read and stops the retry/failover ladder.
    pub fn serve_cite_with_deadline(
        &self,
        body: &[u8],
        kind: QueryKind,
        request_id: &str,
        deadline: Option<Instant>,
    ) -> (u16, String) {
        match decode_cite_body(&self.engine, body, kind) {
            Ok(request) => {
                self.serve_request_with_deadline(&request.with_request_id(request_id), deadline)
            }
            Err(message) => (400, error_body(&message)),
        }
    }

    /// Serve an already-decoded request with no deadline. Honors
    /// `request.request_id` when set, assigns one otherwise.
    pub fn serve_request(&self, request: &CiteRequest) -> (u16, String) {
        self.serve_request_with_deadline(request, None)
    }

    /// [`Coordinator::serve_request`] under an optional end-to-end
    /// deadline.
    pub fn serve_request_with_deadline(
        &self,
        request: &CiteRequest,
        deadline: Option<Instant>,
    ) -> (u16, String) {
        let rid = match &request.request_id {
            Some(id) => id.clone(),
            None => fgc_obs::next_request_id(),
        };
        let mut plane = ScatterPlane::new(self, &rid, deadline);
        match self.engine.cite_request_with(request, &mut plane) {
            Ok(response) => (
                200,
                encode_response_with(&response, request.include_stages).to_compact(),
            ),
            Err(e) if plane.deadline_hit => {
                let body = Json::from_pairs([
                    ("error", Json::str(e.to_string())),
                    ("request_id", Json::str(rid.clone())),
                ]);
                (504, body.to_compact())
            }
            Err(e) => match plane.outage.take() {
                Some(outage) => {
                    let mut body = Json::from_pairs([
                        ("error", Json::str(e.to_string())),
                        (
                            "replicas_tried",
                            Json::Array(outage.tried.iter().map(Json::str).collect()),
                        ),
                    ]);
                    body.set(
                        "shard",
                        outage.shard.map_or(Json::Null, |s| Json::Int(s as i64)),
                    );
                    // the outage body is coordinator-only (never
                    // compared against a reference server), so it can
                    // carry the request ID for log correlation
                    body.set("request_id", Json::str(rid.clone()));
                    (503, body.to_compact())
                }
                None => (400, error_body(&e.to_string())),
            },
        }
    }

    /// The shards an answer query must scatter to. When every atom is
    /// routed to a single shard the union of those shards covers the
    /// lead atom *whichever* atom a replica's plan picks as lead (the
    /// coordinator's statistics-free plan may pick a different join
    /// order); any fan-out atom forces all shards.
    fn scatter_set(&self, q: &ConjunctiveQuery) -> Vec<usize> {
        let route: RoutePlan = ShardRouter::new(&self.shell).plan(q);
        let mut one = Vec::new();
        for set in &route.atoms {
            match set {
                ShardSet::One(s) => one.push(*s),
                ShardSet::All => return (0..self.shards).collect(),
            }
        }
        if one.is_empty() {
            // zero-atom query: shard 0 owns the constant answer
            return vec![0];
        }
        one.sort_unstable();
        one.dedup();
        one
    }

    /// Call one shard's replica set in failover order, propagating the
    /// request ID (and remaining deadline budget) so replica-side
    /// logs and admission correlate with the front door.
    fn call_shard(
        &self,
        shard: usize,
        path: &str,
        body: &str,
        request_id: &str,
        deadline: Option<Instant>,
    ) -> Result<Json, ShardCallError> {
        let budget_ms = deadline.map(|d| {
            d.saturating_duration_since(Instant::now())
                .as_millis()
                .to_string()
        });
        let mut headers = vec![("x-request-id", request_id)];
        if let Some(ms) = &budget_ms {
            headers.push(("x-deadline-ms", ms.as_str()));
        }
        let mut tried = Vec::new();
        for &idx in &self.candidates[shard] {
            match self
                .pool
                .request_with_headers(idx, "POST", path, Some(body), &headers, deadline)
            {
                Ok(response) if response.status == 200 => match parse_json(&response.body) {
                    Ok(json) => return Ok(json),
                    // a mangled body means the replica is unhealthy:
                    // fail over like a transport error
                    Err(_) => tried.push(self.pool.addr(idx).to_string()),
                },
                Ok(response) => {
                    let message = parse_json(&response.body)
                        .ok()
                        .and_then(|j| match j.get("error") {
                            Some(Json::Str(m)) => Some(m.clone()),
                            _ => None,
                        })
                        .unwrap_or(response.body);
                    return Err(ShardCallError::Query(message));
                }
                Err(CallError::CircuitOpen) => {
                    tried.push(format!("{} (circuit open)", self.pool.addr(idx)));
                }
                Err(CallError::Transport(_)) => tried.push(self.pool.addr(idx).to_string()),
                // no budget left for the twin either: stop the ladder
                Err(CallError::DeadlineExceeded) => return Err(ShardCallError::Deadline),
            }
            // A transport failure that consumed the whole budget (a
            // stalled replica read clamped to the deadline) is the
            // client's 504, not a shard outage: stop the ladder here.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(ShardCallError::Deadline);
            }
        }
        Err(ShardCallError::Exhausted(ShardOutage {
            shard: Some(shard),
            tried,
        }))
    }

    /// Scatter one fragment query to `shards` in parallel; results
    /// come back in shard order. The first failure (by shard index,
    /// for determinism) wins.
    fn scatter(
        &self,
        shards: &[usize],
        path: &str,
        query_text: &str,
        request_id: &str,
        deadline: Option<Instant>,
    ) -> Result<Vec<Json>, ShardCallError> {
        let results: Vec<Result<Json, ShardCallError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .map(|&s| {
                    let body = Json::from_pairs([
                        ("query", Json::str(query_text)),
                        ("shard", Json::Int(s as i64)),
                    ])
                    .to_compact();
                    scope.spawn(move || self.call_shard(s, path, &body, request_id, deadline))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scatter thread"))
                .collect()
        });
        results.into_iter().collect()
    }
}

/// Validate one replica's `/healthz` body against its expected role
/// and shard ownership.
fn check_health(body: &str, shard: usize, shards: usize) -> Result<(), String> {
    let parsed = parse_json(body).map_err(|e| format!("unparseable /healthz body: {e}"))?;
    match parsed.get("role") {
        Some(Json::Str(role)) if role == "replica" => {}
        Some(Json::Str(role)) => return Err(format!("role is `{role}`, expected `replica`")),
        _ => return Err("/healthz reports no role (old server?)".into()),
    }
    let expected = format!("{shard}/{shards}");
    match parsed.get("shard") {
        Some(Json::Str(owned)) if *owned == expected => Ok(()),
        Some(Json::Str(owned)) => Err(format!("owns shard {owned}, expected {expected}")),
        _ => Err("/healthz reports no shard ownership".into()),
    }
}

/// Rebuild the schema-only engine and routing shell from a
/// `/fragment/meta` body.
fn build_from_meta(body: &str, shards: usize) -> Result<(CitationEngine, ShardedDatabase), String> {
    let meta = parse_json(body).map_err(|e| format!("unparseable /fragment/meta: {e}"))?;
    match meta.get("shards") {
        Some(Json::Int(n)) if *n as usize == shards => {}
        Some(Json::Int(n)) => {
            return Err(format!(
                "replicas shard the store {n} ways but {shards} replicas are configured"
            ))
        }
        _ => return Err("/fragment/meta reports no shard count".into()),
    }
    let Some(Json::Str(spec_text)) = meta.get("key_spec") else {
        return Err("/fragment/meta reports no key_spec".into());
    };
    let spec = ShardKeySpec::parse(spec_text).map_err(|e| format!("bad key_spec: {e}"))?;
    let Some(Json::Array(relations)) = meta.get("relations") else {
        return Err("/fragment/meta reports no relations".into());
    };

    // Recreate relations in the replica's catalog order so foreign-key
    // targets resolve and downstream iteration order matches.
    let mut db = Database::new();
    let mut shell = ShardedDatabase::new(shards, spec);
    for r in relations {
        let schema = proto::json_to_schema(r)?;
        shell
            .create_relation(schema.clone())
            .map_err(|e| e.to_string())?;
        db.create_relation(schema).map_err(|e| e.to_string())?;
    }

    let Some(Json::Array(views)) = meta.get("views") else {
        return Err("/fragment/meta reports no views".into());
    };
    let mut registry = ViewRegistry::new();
    for v in views {
        let (Some(Json::Str(view)), Some(Json::Str(citation))) =
            (v.get("view"), v.get("citation_query"))
        else {
            return Err(format!("bad view entry in /fragment/meta: {v}"));
        };
        let view = fgc_query::parse_query(view).map_err(|e| format!("bad view: {e}"))?;
        let citation_query =
            fgc_query::parse_query(citation).map_err(|e| format!("bad citation query: {e}"))?;
        // The coordinator never interprets tokens locally (replicas
        // do), so the citation *function* need not cross the wire —
        // an empty spec satisfies registration.
        registry
            .add(CitationView::new(
                view,
                citation_query,
                CitationFunction::from_spec(vec![]),
            ))
            .map_err(|e| e.to_string())?;
    }
    let engine = CitationEngine::new(db, registry).map_err(|e| e.to_string())?;
    Ok((engine, shell))
}

/// The distributed [`CiteDataPlane`]: every data access the control
/// plane makes becomes a scatter/gather over the replica set.
struct ScatterPlane<'a> {
    coord: &'a Coordinator,
    /// The front door's request ID, propagated as `x-request-id` on
    /// every replica call this plane issues.
    request_id: &'a str,
    /// The request's end-to-end deadline; its remaining budget is
    /// propagated as `x-deadline-ms` on every replica call.
    deadline: Option<Instant>,
    prefetched: HashMap<CiteToken, Json>,
    hits: u64,
    misses: u64,
    /// Set when a call died because a whole replica set is down; the
    /// server layer turns it into the structured 503.
    outage: Option<ShardOutage>,
    /// Set when a call died because the budget ran out; the server
    /// layer turns it into the structured 504.
    deadline_hit: bool,
}

impl<'a> ScatterPlane<'a> {
    fn new(coord: &'a Coordinator, request_id: &'a str, deadline: Option<Instant>) -> Self {
        ScatterPlane {
            coord,
            request_id,
            deadline,
            prefetched: HashMap::new(),
            hits: 0,
            misses: 0,
            outage: None,
            deadline_hit: false,
        }
    }

    fn fail(&mut self, e: ShardCallError) -> CoreError {
        match e {
            ShardCallError::Query(message) => CoreError::Remote(message),
            ShardCallError::Deadline => {
                self.deadline_hit = true;
                CoreError::Remote("deadline exceeded while scattering to replicas".into())
            }
            ShardCallError::Exhausted(outage) => {
                let message = match outage.shard {
                    Some(s) => format!(
                        "shard {s} has no live replica (tried {})",
                        outage.tried.join(", ")
                    ),
                    None => format!(
                        "no live replica for token interpretation (tried {})",
                        outage.tried.join(", ")
                    ),
                };
                self.outage = Some(outage);
                CoreError::Remote(message)
            }
        }
    }

    /// One POST to *any* live replica (all replicas hold the full
    /// store, so token interpretation is not shard-addressed).
    fn call_any(&mut self, path: &str, body: &str) -> CoreResult<Json> {
        let budget_ms = self.deadline.map(|d| {
            d.saturating_duration_since(Instant::now())
                .as_millis()
                .to_string()
        });
        let mut headers = vec![("x-request-id", self.request_id)];
        if let Some(ms) = &budget_ms {
            headers.push(("x-deadline-ms", ms.as_str()));
        }
        let mut tried = Vec::new();
        for idx in 0..self.coord.pool.addrs().len() {
            match self.coord.pool.request_with_headers(
                idx,
                "POST",
                path,
                Some(body),
                &headers,
                self.deadline,
            ) {
                Ok(response) if response.status == 200 => match parse_json(&response.body) {
                    Ok(json) => return Ok(json),
                    Err(_) => tried.push(self.coord.pool.addr(idx).to_string()),
                },
                Ok(response) => {
                    let message = parse_json(&response.body)
                        .ok()
                        .and_then(|j| match j.get("error") {
                            Some(Json::Str(m)) => Some(m.clone()),
                            _ => None,
                        })
                        .unwrap_or(response.body);
                    return Err(CoreError::Remote(message));
                }
                Err(CallError::DeadlineExceeded) => return Err(self.fail(ShardCallError::Deadline)),
                Err(_) => tried.push(self.coord.pool.addr(idx).to_string()),
            }
        }
        Err(self.fail(ShardCallError::Exhausted(ShardOutage {
            shard: None,
            tried,
        })))
    }
}

impl CiteDataPlane for ScatterPlane<'_> {
    fn answer_tuples(&mut self, q: &ConjunctiveQuery) -> CoreResult<Vec<Tuple>> {
        let shards = self.coord.scatter_set(q);
        let fragments = self
            .coord
            .scatter(
                &shards,
                "/fragment/answers",
                &q.to_string(),
                self.request_id,
                self.deadline,
            )
            .map_err(|e| self.fail(e))?;
        let mut rows: Vec<(usize, usize, Tuple)> = Vec::new();
        for fragment in &fragments {
            let Some(Json::Array(items)) = fragment.get("rows") else {
                return Err(CoreError::Remote("fragment response missing `rows`".into()));
            };
            for item in items {
                rows.push(proto::json_to_answer_row(item).map_err(CoreError::Remote)?);
            }
        }
        rows.sort_by_key(|(gid, seq, _)| (*gid, *seq));
        let mut seen = std::collections::HashSet::new();
        let mut merged = Vec::new();
        for (_, _, t) in rows {
            if seen.insert(t.clone()) {
                merged.push(t);
            }
        }
        Ok(merged)
    }

    fn extent_groups(&mut self, q: &ConjunctiveQuery) -> CoreResult<Vec<(Tuple, Vec<Binding>)>> {
        // extent queries join view extents (not shard-key routed):
        // always scatter to every shard
        let shards: Vec<usize> = (0..self.coord.shards).collect();
        let fragments = self
            .coord
            .scatter(
                &shards,
                "/fragment/bindings",
                &q.to_string(),
                self.request_id,
                self.deadline,
            )
            .map_err(|e| self.fail(e))?;
        let mut rows: Vec<(usize, usize, Tuple, Binding)> = Vec::new();
        for fragment in &fragments {
            let vars = match fragment.get("vars") {
                Some(Json::Array(vars)) => vars
                    .iter()
                    .map(|v| match v {
                        Json::Str(s) => Ok(s.clone()),
                        other => Err(CoreError::Remote(format!("bad var name {other}"))),
                    })
                    .collect::<CoreResult<Vec<_>>>()?,
                _ => return Err(CoreError::Remote("fragment response missing `vars`".into())),
            };
            let Some(Json::Array(items)) = fragment.get("rows") else {
                return Err(CoreError::Remote("fragment response missing `rows`".into()));
            };
            for item in items {
                rows.push(proto::json_to_binding_row(item, &vars).map_err(CoreError::Remote)?);
            }
        }
        rows.sort_by_key(|row| (row.0, row.1));
        let mut merged: Vec<(Tuple, Vec<Binding>)> = Vec::new();
        let mut index: HashMap<Tuple, usize> = HashMap::new();
        for (_, _, t, b) in rows {
            match index.get(&t) {
                Some(&i) => merged[i].1.push(b),
                None => {
                    index.insert(t.clone(), merged.len());
                    merged.push((t, vec![b]));
                }
            }
        }
        Ok(merged)
    }

    fn prefetch_tokens(&mut self, tokens: &[CiteToken]) -> CoreResult<()> {
        let body = Json::from_pairs([(
            "tokens",
            Json::Array(tokens.iter().map(proto::token_to_json).collect()),
        )])
        .to_compact();
        let response = self.call_any("/fragment/tokens", &body)?;
        let Some(Json::Array(citations)) = response.get("citations") else {
            return Err(CoreError::Remote(
                "token response missing `citations`".into(),
            ));
        };
        if citations.len() != tokens.len() {
            return Err(CoreError::Remote(format!(
                "token response has {} citations for {} tokens",
                citations.len(),
                tokens.len()
            )));
        }
        for (token, citation) in tokens.iter().zip(citations) {
            self.prefetched.insert(token.clone(), citation.clone());
        }
        if let Some(Json::Int(h)) = response.get("hits") {
            self.hits += (*h).max(0) as u64;
        }
        if let Some(Json::Int(m)) = response.get("misses") {
            self.misses += (*m).max(0) as u64;
        }
        Ok(())
    }

    fn token_citation(&mut self, token: &CiteToken) -> CoreResult<Json> {
        if let Some(citation) = self.prefetched.get(token) {
            return Ok(citation.clone());
        }
        // the prefetched superset covers every token the normalized
        // expressions mention; this path only runs if normalization
        // surfaces a token the symbolic pass did not (defensive)
        self.prefetch_tokens(std::slice::from_ref(token))?;
        self.prefetched
            .get(token)
            .cloned()
            .ok_or_else(|| CoreError::Remote("replica returned no citation for token".into()))
    }

    fn cache_traffic(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}
