//! The stateless coordinator: bootstrap, scatter/gather, failover.
//!
//! A [`Coordinator`] holds **no data**. At startup it validates every
//! replica's `/healthz` (role and `i/n` shard ownership), fetches
//! `/fragment/meta` once, and rebuilds from it (a) a schema-only
//! [`CitationEngine`] — empty relations, real constraints, real view
//! texts — that runs the entire citation control plane, and (b) the
//! replicas' [`Partition`], resolved against that catalog, whose
//! [`ShardRouter`] computes the per-atom route of a query
//! (routing is a pure function of query and spec, independent of the
//! stored tuples).
//!
//! Serving a request drives the engine through a scatter
//! [`CiteDataPlane`]. The engine finds the rewritings from the schemas
//! alone, then the plane makes **one** `POST /fragment/cite` per shard
//! replica, in parallel: the answer query rides only to the shards its
//! route implicates, every rewriting's extent query to every
//! shard (view extents carry no shard key), and each replica answers
//! with its `(gid, seq, ...)` rows plus the citation of every token its
//! bindings mention. Gathering is [`merge_answers`] /
//! [`merge_groups`], a sort-merge in global tuple order — exactly the
//! single-process enumeration order, so citations are byte-identical —
//! and no token needs a second round trip. Per shard
//! the coordinator tries the primary, then its twin, each with the
//! pool's bounded retry; when every candidate is down the request
//! fails with a structured outage the server layer maps to 503.

use crate::pool::{CallError, PoolConfig, ReplicaPool};
use crate::proto;
use fgc_core::{
    CitationEngine, CiteData, CiteDataPlane, CiteFragment, CiteRequest, CiteToken, CoreError,
    Result as CoreResult,
};
use fgc_query::{merge_answers, merge_groups, Binding, ConjunctiveQuery, ShardRouter, ShardSet};
use fgc_relation::sharded::{Partition, ShardKeySpec};
use fgc_relation::{Database, Tuple};
use fgc_server::wire::{error_body, write_response_body, QueryKind};
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
    /// The shard no candidate could serve.
    pub shard: usize,
    /// The replica addresses tried, in failover order.
    pub tried: Vec<String>,
}

/// How one shard-addressed call failed.
#[derive(Debug)]
enum ShardCallError {
    /// The replica answered 4xx: a request-shaped error whose message
    /// must reach the client verbatim, raised in the named exchange
    /// phase (0 the answer query, `i + 1` extent query `i`). Never
    /// retried or failed over — every replica would refuse
    /// identically.
    Query { phase: usize, message: String },
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
    partition: Partition,
    pool: ReplicaPool,
    /// Per shard: pool indices to try, in failover order.
    candidates: Vec<Vec<usize>>,
    shards: usize,
}

impl Coordinator {
    /// Bootstrap against a live replica set: health-check and
    /// validate every configured replica, fetch `/fragment/meta`,
    /// and rebuild the schema-only engine and the partition.
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
        let (engine, partition) = build_from_meta(&meta, shards)?;
        Ok(Coordinator {
            engine,
            partition,
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
            Ok(response) => (200, write_response_body(&response, request.include_stages)),
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
                    body.set("shard", Json::Int(outage.shard as i64));
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
        let mut one = Vec::new();
        for set in ShardRouter::new(&self.partition).plan(q) {
            match set {
                ShardSet::One(s) => one.push(s),
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

    /// One `/fragment/cite` per shard replica, in parallel: the answer
    /// query to the shards in its scatter set, every extent query to
    /// every shard (view extents carry no shard key — with no extent
    /// query, only the answer shards are called). Fragments come back
    /// in shard order. Of several failures the one with the least
    /// `(phase, shard)` wins, which is the error the single server
    /// meets first; a call that failed before any phase ran counts at
    /// the first phase it carried.
    fn exchange(
        &self,
        q: &ConjunctiveQuery,
        extent_queries: &[ConjunctiveQuery],
        request_id: &str,
        deadline: Option<Instant>,
    ) -> Result<Vec<CiteFragment>, ShardCallError> {
        let answer_shards = self
            .engine
            .stage_stats()
            .time("route", || self.scatter_set(q));
        let shards: Vec<usize> = if extent_queries.is_empty() {
            answer_shards.clone()
        } else {
            (0..self.shards).collect()
        };
        let answer = q.to_string();
        let extents: Vec<String> = extent_queries.iter().map(|e| e.to_string()).collect();
        let vars: Vec<Vec<String>> = extent_queries.iter().map(proto::query_vars).collect();
        let call = |shard: usize| {
            let asks_answer = answer_shards.contains(&shard);
            let first_phase = usize::from(!asks_answer);
            let body =
                proto::encode_cite_request(asks_answer.then_some(answer.as_str()), &extents, shard);
            let reply = match self.call_shard(shard, &body, request_id, deadline) {
                Ok(reply) => reply,
                Err(e @ ShardCallError::Query { phase, .. }) => return Err((phase, e)),
                Err(e) => return Err((first_phase, e)),
            };
            proto::decode_cite_fragment(&reply, asks_answer, &vars).map_err(|message| {
                let e = ShardCallError::Query {
                    phase: first_phase,
                    message,
                };
                (first_phase, e)
            })
        };
        let call = &call;
        let (first, rest) = shards.split_first().expect("a scatter set is never empty");
        let results: Vec<Result<CiteFragment, (usize, ShardCallError)>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = rest.iter().map(|&s| scope.spawn(move || call(s))).collect();
                let mut results = vec![call(*first)];
                results.extend(
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("exchange thread")),
                );
                results
            });
        gather(results)
    }

    /// Call one shard's replica set in failover order, propagating the
    /// request ID (and remaining deadline budget) so replica-side
    /// logs and admission correlate with the front door.
    fn call_shard(
        &self,
        shard: usize,
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
            match self.pool.request_with_headers(
                idx,
                "POST",
                "/fragment/cite",
                Some(body),
                &headers,
                deadline,
            ) {
                Ok(response) if response.status == 200 => match parse_json(&response.body) {
                    Ok(json) => return Ok(json),
                    // a mangled body means the replica is unhealthy:
                    // fail over like a transport error
                    Err(_) => tried.push(self.pool.addr(idx).to_string()),
                },
                Ok(response) => return Err(query_error(&response.body)),
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
        Err(ShardCallError::Exhausted(ShardOutage { shard, tried }))
    }
}

/// Per-shard results in shard order, or the failure with the least
/// `(phase, shard)`.
fn gather<T>(results: Vec<Result<T, (usize, ShardCallError)>>) -> Result<Vec<T>, ShardCallError> {
    let mut gathered = Vec::with_capacity(results.len());
    let mut failure: Option<(usize, ShardCallError)> = None;
    // shards ascend, so a strictly lower phase is a lower (phase, shard)
    for result in results {
        match result {
            Ok(value) => gathered.push(value),
            Err((phase, e)) => {
                if failure.as_ref().is_none_or(|(first, _)| phase < *first) {
                    failure = Some((phase, e));
                }
            }
        }
    }
    match failure {
        Some((_, e)) => Err(e),
        None => Ok(gathered),
    }
}

/// A replica's 4xx: its message, relayed verbatim, and the phase that
/// raised it (0 when the body names none).
fn query_error(body: &str) -> ShardCallError {
    let parsed = parse_json(body).ok();
    let field = |name: &str| parsed.as_ref().and_then(|j| j.get(name));
    let message = match field("error") {
        Some(Json::Str(m)) => m.clone(),
        _ => body.to_string(),
    };
    let phase = match field("phase") {
        Some(Json::Int(p)) if *p >= 0 => *p as usize,
        _ => 0,
    };
    ShardCallError::Query { phase, message }
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

/// Rebuild the schema-only engine and the partition from a
/// `/fragment/meta` body.
fn build_from_meta(body: &str, shards: usize) -> Result<(CitationEngine, Partition), String> {
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
    for r in relations {
        let schema = proto::json_to_schema(r)?;
        db.create_relation(schema).map_err(|e| e.to_string())?;
    }
    let partition = Partition::new(shards, spec, db.catalog()).map_err(|e| e.to_string())?;

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
    Ok((engine, partition))
}

/// The distributed [`CiteDataPlane`]: a citation's data is one
/// exchange with the replica set.
struct ScatterPlane<'a> {
    coord: &'a Coordinator,
    /// The front door's request ID, propagated as `x-request-id` on
    /// every replica call this plane issues.
    request_id: &'a str,
    /// The request's end-to-end deadline; its remaining budget is
    /// propagated as `x-deadline-ms` on every replica call.
    deadline: Option<Instant>,
    /// The citation of every token the replicas' bindings mention.
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
            ShardCallError::Query { message, .. } => CoreError::Remote(message),
            ShardCallError::Deadline => {
                self.deadline_hit = true;
                CoreError::Remote("deadline exceeded while scattering to replicas".into())
            }
            ShardCallError::Exhausted(outage) => {
                let message = format!(
                    "shard {} has no live replica (tried {})",
                    outage.shard,
                    outage.tried.join(", ")
                );
                self.outage = Some(outage);
                CoreError::Remote(message)
            }
        }
    }
}

impl CiteDataPlane for ScatterPlane<'_> {
    fn fetch(
        &mut self,
        q: &ConjunctiveQuery,
        extent_queries: &[ConjunctiveQuery],
    ) -> CoreResult<CiteData> {
        // the whole exchange is this engine's `evaluate` stage
        let coord = self.coord;
        let fragments = coord.engine.stage_stats().time("evaluate", || {
            coord.exchange(q, extent_queries, self.request_id, self.deadline)
        });
        let fragments = fragments.map_err(|e| self.fail(e))?;
        let mut answers = Vec::new();
        let mut extents: Vec<Vec<(usize, usize, Tuple, Binding)>> =
            vec![Vec::new(); extent_queries.len()];
        for fragment in fragments {
            answers.extend(fragment.answers.unwrap_or_default());
            for (gathered, rows) in extents.iter_mut().zip(fragment.extents) {
                gathered.extend(rows);
            }
            self.prefetched.extend(fragment.tokens);
            self.hits += fragment.hits;
            self.misses += fragment.misses;
        }
        Ok(CiteData {
            answers: merge_answers(answers),
            extents: extents.into_iter().map(merge_groups).collect(),
        })
    }

    fn token_citation(&mut self, token: &CiteToken) -> CoreResult<Json> {
        // Normalization only drops monomials, so every token it leaves
        // came from a binding whose replica sent that token's citation.
        self.prefetched.get(token).cloned().ok_or_else(|| {
            CoreError::Remote(format!("no replica returned a citation for token {token}"))
        })
    }

    fn cache_traffic(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(phase: usize, message: &str) -> (usize, ShardCallError) {
        let message = message.to_string();
        (phase, ShardCallError::Query { phase, message })
    }

    fn outage(phase: usize, shard: usize) -> (usize, ShardCallError) {
        let tried = vec![format!("replica {shard}")];
        (
            phase,
            ShardCallError::Exhausted(ShardOutage { shard, tried }),
        )
    }

    /// The single server meets the answer query's error before any
    /// extent query's, and extent query `i`'s before `i + 1`'s; among
    /// shards failing in one phase the lowest shard speaks.
    #[test]
    fn the_least_phase_then_the_least_shard_wins() {
        let first = |results: Vec<Result<(), (usize, ShardCallError)>>| match gather(results) {
            Err(ShardCallError::Query { message, .. }) => message,
            Err(ShardCallError::Exhausted(outage)) => format!("outage {}", outage.shard),
            Err(ShardCallError::Deadline) => "deadline".into(),
            Ok(_) => "ok".into(),
        };
        // an extent error on shard 0 loses to an answer error on shard 1
        let results = vec![Err(query(2, "extent 1")), Err(query(0, "answer"))];
        assert_eq!(first(results), "answer");
        // one phase: the lower shard, whatever each failure is
        let results = vec![Ok(()), Err(outage(1, 1)), Err(query(1, "extent 0 on 2"))];
        assert_eq!(first(results), "outage 1");
        // a shard outside the answer scatter set fails at phase 1, so
        // an answer error on a later shard still wins
        let results = vec![Err(outage(1, 0)), Err(query(0, "answer on 1"))];
        assert_eq!(first(results), "answer on 1");
        let results = vec![
            Err(query(3, "extent 2")),
            Err((1, ShardCallError::Deadline)),
        ];
        assert_eq!(first(results), "deadline");
        assert_eq!(first(vec![Ok(()), Ok(())]), "ok");
    }

    #[test]
    fn a_replica_error_names_its_phase() {
        let body = proto::phase_error_body(3, "budget blown");
        match query_error(&body) {
            ShardCallError::Query { phase, message } => {
                assert_eq!((phase, message.as_str()), (3, "budget blown"));
            }
            other => panic!("expected a query error, got {other:?}"),
        }
        // a body that names no phase is the first phase's
        match query_error("not json") {
            ShardCallError::Query { phase, message } => {
                assert_eq!((phase, message.as_str()), (0, "not json"));
            }
            other => panic!("expected a query error, got {other:?}"),
        }
    }
}
