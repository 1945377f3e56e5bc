//! Layers measured from outside: the same request bytes pushed through
//! each crate's public functions in pipeline order under spans, plus
//! fixed-input probes of the layers a request does not cross (data
//! generation, engine build, storage, fixity derivation, the
//! coordinator). Nothing in the program is edited or instrumented.

use crate::load::{run_phase, Phase, Until};
use crate::stack::{
    cold_open, dataset, ms, persist_history, start_dist, DistStack, HistoryCosts, Stack, TempDir,
};
use crate::stats::{median, median_u64, percentile};
use crate::stream::{self, Class, Stream, Workload};
use crate::trace::Tracer;
use crate::verify;
use crate::Metrics;
use fgc_core::{CitationEngine, CiteRequest, VersionedCitation, VersionedCitationEngine};
use fgc_gtopdb::paper_views;
use fgc_query::{evaluate_plan_with, parse_query, EvalOptions, QueryPlan};
use fgc_relation::Database;
use fgc_rewrite::{best_rewritings, RewriteOptions, ViewDefs};
use fgc_server::http::{read_request, write_response};
use fgc_server::wire::QueryKind;
use fgc_server::{decode_cite_request, encode_response, parse_json};
use fgc_views::Json;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::Path;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests replayed through the layers (fewer when the time budget
/// runs out first, never fewer than `MIN_REPLAY`).
const REPLAY: usize = 200;
const MIN_REPLAY: usize = 20;

/// Repetitions of each fixed-input probe; the median is reported.
const PROBE_REPS: usize = 5;

/// Commits in the probe history that stands in for `versioned`'s 256
/// on the workloads that serve no history.
const PROBE_COMMITS: usize = 16;

/// Requests of the `dist` stream sent through the probe coordinator on
/// the workloads that serve without one.
const DIST_PROBE_REQUESTS: usize = 256;

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Median duration of the spans called `name`, in microseconds.
fn span_median_us(tracer: &Tracer, name: &str) -> f64 {
    let mut durations = tracer.durations(name);
    if durations.is_empty() {
        return 0.0;
    }
    us(median_u64(&mut durations))
}

/// The layer spans whose medians add up to the server's share of a
/// request; `trace.unexplained_us` is time-to-first-byte minus these.
const PIPELINE: [&str; 9] = [
    "server.http_read",
    "server.json_parse",
    "server.wire_decode",
    "core.engine_for_version",
    "core.cite",
    "server.wire_encode",
    "views.json_print",
    "server.http_write",
    "server.response_drop",
];

/// Push the first requests of `stream` through each layer's public
/// function, in pipeline order, under nested spans.
pub fn replay(
    stack: &Stack,
    stream: &Stream,
    budget: Duration,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) {
    let views = ViewDefs::new(paper_views().iter().map(|v| v.view.clone()));
    let versioned: Option<&VersionedCitationEngine> = match stack {
        Stack::Versioned { engine, .. } => Some(engine),
        _ => None,
    };
    let served: Arc<CitationEngine> = match stack {
        Stack::Single(server) | Stack::Versioned { server, .. } => server.engine(),
        // a replica's engine: the sharded store the fragments come from
        Stack::Dist(dist) => dist.replicas[0].engine(),
    };
    let began = Instant::now();
    let mut answers = Vec::new();
    let mut combinations = Vec::new();
    let mut stages: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut printed_bytes = 0usize;
    let mut sink = Vec::with_capacity(4 << 20);
    let mut replayed = 0;
    for position in 0..REPLAY {
        if position >= MIN_REPLAY && began.elapsed() >= budget {
            break;
        }
        replayed += 1;
        let (_, request) = stream.at(position);
        let id = position as u32;
        // opened now so the children can name it; closed below
        let root_start = Instant::now();
        let root = tracer.span("replay.request", root_start, root_start, None, id);

        let http = tracer.time("server.http_read", Some(root), id, || {
            read_request(&mut BufReader::new(request.wire.as_slice()), 1024 * 1024)
                .expect("stream requests are valid HTTP")
        });
        let text = std::str::from_utf8(&http.body).expect("utf-8 body");
        let parsed = tracer.time("server.json_parse", Some(root), id, || {
            parse_json(text).expect("stream bodies are JSON")
        });
        // `/cite_at` decodes inline (no public function); the same
        // query text goes through the `/cite` decoder instead
        let decodable = match request.version {
            Some(_) => Json::from_pairs([("query", Json::str(request.query.clone()))]),
            None => parsed,
        };
        let cite_request = tracer.time("server.wire_decode", Some(root), id, || {
            decode_cite_request(&decodable, QueryKind::Datalog, served.policy())
                .expect("stream requests decode")
        });

        let engine = match (versioned, request.version) {
            (Some(versioned), Some(version)) => {
                tracer.time("core.engine_for_version", Some(root), id, || {
                    versioned
                        .engine_for_version(version)
                        .expect("version exists")
                })
            }
            _ => Arc::clone(&served),
        };
        let cite_start = Instant::now();
        let response = engine.cite_request(&cite_request).expect("replayed cite");
        let cite = tracer.span("core.cite", cite_start, Instant::now(), Some(root), id);
        for (stage, d) in &response.stages {
            stages.entry(stage).or_default().push(d.as_nanos() as u64);
        }

        // the engine's parts, measured side by side: the parent link
        // says whose time they explain, the timestamps are their own
        let query = tracer.time("query.parse", Some(cite), id, || {
            parse_query(&request.query).expect("stream queries parse")
        });
        let db: &Database = engine.database();
        let plan = tracer.time("query.plan_compile", Some(cite), id, || {
            QueryPlan::compile(&query, db).expect("stream queries compile")
        });
        let rows = tracer.time("query.evaluate", Some(cite), id, || {
            evaluate_plan_with(db, &plan, EvalOptions::default()).expect("stream queries evaluate")
        });
        answers.push(rows.len() as u64);
        let found = tracer.time("rewrite.search", Some(cite), id, || {
            best_rewritings(&query, &views, RewriteOptions::default()).expect("rewriting search")
        });
        combinations.push(found.combinations_tried as u64);

        let encoded = tracer.time("server.wire_encode", Some(root), id, || {
            match request.version {
                None => encode_response(&response),
                Some(version) => {
                    let (info, _) = versioned
                        .expect("versioned stack")
                        .history()
                        .snapshot(version)
                        .expect("version exists");
                    let mut body = VersionedCitation {
                        citation: response.citation.clone(),
                        version,
                        label: info.label.clone(),
                        timestamp: info.timestamp,
                    }
                    .stamped_aggregate();
                    body.set("Tuples", Json::Int(response.citation.tuples.len() as i64));
                    body
                }
            }
        });
        let body = tracer.time("views.json_print", Some(root), id, || encoded.to_compact());
        printed_bytes += body.len();
        sink.clear();
        tracer.time("server.http_write", Some(root), id, || {
            write_response(&mut sink, 200, &body, true).expect("write into a Vec")
        });
        // Freeing a response (the citation tree and its encoded copy)
        // is work the server does per request too. glibc defers the
        // coalescing of the freed nodes to the next allocation of 1 KiB
        // or more, so make one here: otherwise the cost lands on the
        // next request's first read.
        tracer.time("server.response_drop", Some(root), id, || {
            drop((response, encoded, body));
            drop(std::hint::black_box(Vec::<u8>::with_capacity(64 * 1024)));
        });
        tracer.set_end(root, Instant::now());
    }

    for (metric, span) in [
        ("server.http_read_us", "server.http_read"),
        ("server.json_parse_us", "server.json_parse"),
        ("server.wire_decode_us", "server.wire_decode"),
        ("server.wire_encode_us", "server.wire_encode"),
        ("server.http_write_us", "server.http_write"),
        ("server.response_drop_us", "server.response_drop"),
        ("views.json_print_us", "views.json_print"),
        ("query.parse_us", "query.parse"),
        ("query.plan_compile_us", "query.plan_compile"),
        ("query.evaluate_us", "query.evaluate"),
        ("rewrite.search_us", "rewrite.search"),
        ("core.cite_us", "core.cite"),
    ] {
        metrics.set(metric, span_median_us(tracer, span));
    }
    let print_ns: u64 = tracer.durations("views.json_print").iter().sum();
    metrics.set(
        "views.json_print_mib_s",
        printed_bytes as f64 / (1024.0 * 1024.0) / (print_ns as f64 / 1e9),
    );
    metrics.set("query.answers_per_request", median_u64(&mut answers) as f64);
    metrics.set(
        "rewrite.combinations_tried",
        median_u64(&mut combinations) as f64,
    );
    metrics.set("trace.replayed_requests", replayed as f64);
    // the engine's own stage timers, as the wire's `"stages": true`
    // block reports them
    for (metric, stage) in [
        ("core.stage_parse_us", "parse"),
        ("core.stage_plan_us", "plan"),
        ("core.stage_route_us", "route"),
        ("core.stage_evaluate_us", "evaluate"),
        ("core.stage_rewrite_us", "rewrite"),
        ("core.stage_extent_us", "extent"),
        ("core.stage_render_us", "render"),
    ] {
        let median_ns = stages.get_mut(stage).map_or(0, |ns| median_u64(ns));
        metrics.set(metric, us(median_ns));
    }

    // scoped-thread spawn/join: a batch of two against the same two
    // requests one after the other
    let pair: Vec<CiteRequest> = (0..2)
        .map(|p| {
            let (_, request) = stream.at(p);
            CiteRequest::query(parse_query(&request.query).expect("stream queries parse"))
        })
        .collect();
    let (mut batched, mut sequential) = (Vec::new(), Vec::new());
    for _ in 0..(replayed / 2).clamp(PROBE_REPS, 20) {
        let t = Instant::now();
        std::hint::black_box(served.cite_batch_threads(&pair, crate::stack::SERVER_THREADS));
        batched.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        for request in &pair {
            std::hint::black_box(served.cite_request(request).expect("cite"));
        }
        sequential.push(t.elapsed().as_nanos() as u64);
    }
    metrics.set(
        "core.batch_overhead_us",
        us(median_u64(&mut batched)) - us(median_u64(&mut sequential)),
    );
}

/// What the replayed layers leave of time-to-first-byte unexplained:
/// batch wait, thread hops and kernel socket time, which no outside
/// call can see.
pub fn close_the_account(workload: Workload, tracer: &Tracer, metrics: &mut Metrics) {
    let explained: f64 = PIPELINE
        .iter()
        // on `dist` the coordinator's scatter (which encodes and
        // prints its own reply) stands where a single server runs the
        // engine
        .map(|&span| match (workload, span) {
            (Workload::Dist, "core.cite") => metrics.get("dist.serve_us"),
            (Workload::Dist, "server.wire_encode" | "views.json_print") => 0.0,
            _ => span_median_us(tracer, span),
        })
        .sum();
    metrics.set(
        "trace.unexplained_us",
        span_median_us(tracer, "load.ttfb") - explained,
    );
}

/// Fixed-input probes of the layers below or beside the request path.
pub fn probes(
    stack: &Stack,
    stream: &Stream,
    seed: u64,
    traced: &Phase,
    out_dir: &Path,
    metrics: &mut Metrics,
) {
    let first = parse_query(&stream.at(0).1.query).expect("stream queries parse");
    let db = engine_probes(&first, metrics);
    storage_and_fixity_probes(stack, &db, &first, out_dir, metrics);
    coordinator_probes(stack, stream, seed, traced, &db, metrics);
}

/// Data generation, engine build, the cold first cite (= extent
/// materialisation) and `parse_json` on a large document. Returns the
/// generated data set for the probes that follow.
fn engine_probes(first: &fgc_query::ConjunctiveQuery, metrics: &mut Metrics) -> Database {
    let (mut generate_ms, mut new_ms, mut first_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut db = dataset();
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        db = std::hint::black_box(dataset());
        generate_ms.push(ms(t));
        let t = Instant::now();
        let engine = CitationEngine::new(db.clone(), paper_views()).expect("views validate");
        new_ms.push(ms(t));
        let t = Instant::now();
        std::hint::black_box(engine.cite(first).expect("first cite"));
        first_ms.push(ms(t));
    }
    metrics.set("gtopdb.generate_ms", median(&mut generate_ms));
    metrics.set("core.engine_new_ms", median(&mut new_ms));
    metrics.set("core.first_cite_ms", median(&mut first_ms));

    // parse_json on 64 KiB of response-shaped JSON (the coordinator
    // runs it on every replica fragment)
    let engine = CitationEngine::new(db.clone(), paper_views()).expect("views validate");
    let listing = parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)").expect("static");
    let response = engine
        .cite_request(&CiteRequest::query(listing))
        .expect("listing cites");
    let Some(Json::Array(tuples)) = encode_response(&response).get("tuples").cloned() else {
        panic!("encoded responses carry a tuples array");
    };
    let mut document = String::from("[]");
    for n in 1..=tuples.len() {
        document = Json::Array(tuples[..n].to_vec()).to_compact();
        if document.len() >= 64 * 1024 {
            break;
        }
    }
    let mut mib_s = Vec::new();
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        std::hint::black_box(parse_json(&document).expect("printed JSON parses"));
        mib_s.push(document.len() as f64 / (1024.0 * 1024.0) / t.elapsed().as_secs_f64());
    }
    metrics.set("server.json_parse_mib_s", median(&mut mib_s));
    db
}

/// Storage and fixity: the workload's own history where it serves one,
/// a small probe history elsewhere.
fn storage_and_fixity_probes(
    stack: &Stack,
    db: &Database,
    first: &fgc_query::ConjunctiveQuery,
    out_dir: &Path,
    metrics: &mut Metrics,
) {
    let probe_dir;
    let probe_engine;
    let (versioned, costs): (&VersionedCitationEngine, HistoryCosts) = match stack {
        Stack::Versioned { engine, costs, .. } => (engine, *costs),
        _ => {
            probe_dir = TempDir::new(out_dir);
            let mut costs = persist_history(db.clone(), PROBE_COMMITS, probe_dir.path());
            probe_engine = cold_open(probe_dir.path(), &mut costs);
            (&probe_engine, costs)
        }
    };
    metrics.set("relation.commit_ms", costs.commit_ms);
    metrics.set("relation.storage_sync_ms", costs.increment_sync_ms);
    metrics.set("relation.storage_bulk_sync_ms", costs.bulk_sync_ms);
    metrics.set("relation.storage_cold_load_ms", costs.cold_load_ms);
    metrics.set(
        "relation.storage_disk_kib",
        costs.disk_bytes as f64 / 1024.0,
    );
    metrics.set(
        "relation.storage_write_amp",
        costs.disk_bytes as f64 / costs.history_bytes as f64,
    );
    metrics.set("relation.storage_cache_hit_ratio", costs.cache_hit_ratio);
    let history = versioned.history();
    let (mut derive_ms, mut rebuild_ms) = (Vec::new(), Vec::new());
    for version in 0..PROBE_REPS as u64 {
        let (_, snapshot) = history.snapshot(version).expect("probe version");
        let t = Instant::now();
        let parent = CitationEngine::new((**snapshot).clone(), paper_views()).expect("rebuild");
        std::hint::black_box(parent.cite(first).expect("first cite"));
        rebuild_ms.push(ms(t));
        let delta = history
            .delta(version + 1)
            .expect("churn commits record deltas");
        let t = Instant::now();
        std::hint::black_box(parent.derive_with_delta(delta).expect("derive"));
        derive_ms.push(ms(t));
    }
    metrics.set("core.rebuild_ms", median(&mut rebuild_ms));
    metrics.set("core.derive_ms", median(&mut derive_ms));
    let memory = versioned.memory_stats();
    metrics.set(
        "core.resident_mib",
        memory.resident_bytes as f64 / (1024.0 * 1024.0),
    );
    metrics.set("core.shared_relations", memory.shared_relations as f64);
}

/// The coordinator: the workload's own on `dist` (its traced pass is
/// the 1-client sample), a probe stack fed the head of the seed's
/// `dist` stream elsewhere.
fn coordinator_probes(
    stack: &Stack,
    stream: &Stream,
    seed: u64,
    traced: &Phase,
    db: &Database,
    metrics: &mut Metrics,
) {
    let probe_dist;
    let probe_stream;
    let probe_pass;
    let (dist, dist_stream, pass): (&DistStack, &Stream, &Phase) = match stack {
        Stack::Dist(dist) => (dist, stream, traced),
        _ => {
            probe_dist = start_dist(db);
            probe_stream = stream::build(Workload::Dist, seed, db, DIST_PROBE_REQUESTS);
            let before = PoolCounters::read(&probe_dist);
            let mut pass = run_phase(
                probe_dist.front.addr(),
                1,
                &probe_stream,
                &AtomicUsize::new(0),
                Until::Requests(DIST_PROBE_REQUESTS),
                None,
            );
            let after = PoolCounters::read(&probe_dist);
            verify::judge([&mut pass], &probe_stream, db);
            probe_pass = pass;
            pool_metrics(&before, &after, &probe_pass, metrics);
            (&probe_dist, &probe_stream, &probe_pass)
        }
    };
    for (metric, class) in [
        ("dist.pruned_p50_ms", Class::Keyed),
        ("dist.scatter_p50_ms", Class::Scatter),
    ] {
        let mut latencies: Vec<u64> = pass
            .samples
            .iter()
            .filter(|s| dist_stream.pool[s.pool_id as usize].class == class)
            .map(|s| s.latency_ns)
            .collect();
        latencies.sort_unstable();
        metrics.set(metric, percentile(&latencies, 50.0) as f64 / 1e6);
    }
    let coordinator = dist.front.coordinator();
    let mut serve_ns = Vec::new();
    for position in 0..REPLAY.min(dist_stream.order.len()) {
        let (_, request) = dist_stream.at(position);
        let cite = CiteRequest::query(parse_query(&request.query).expect("stream queries parse"));
        let t = Instant::now();
        let (status, _) = std::hint::black_box(coordinator.serve_request(&cite));
        serve_ns.push(t.elapsed().as_nanos() as u64);
        assert_eq!(status, 200, "coordinator serves the dist stream");
    }
    metrics.set("dist.serve_us", us(median_u64(&mut serve_ns)));
}

/// The coordinator's public per-replica counters, summed over
/// replicas, read from its Prometheus exposition (the only public
/// place the call-latency sum and count appear).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolCounters {
    calls: f64,
    failures: f64,
    latency_sum_s: f64,
    latency_count: f64,
}

impl PoolCounters {
    pub fn read(dist: &DistStack) -> PoolCounters {
        let mut writer = fgc_obs::PromWriter::new();
        dist.front
            .coordinator()
            .pool()
            .write_prometheus(&mut writer, &[]);
        let mut out = PoolCounters::default();
        for line in writer.finish().lines() {
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let family = series.split('{').next().unwrap_or(series);
            match family {
                "fgcite_replica_calls_total" => out.calls += value,
                "fgcite_replica_failures_total" => out.failures += value,
                "fgcite_replica_request_seconds_sum" => out.latency_sum_s += value,
                "fgcite_replica_request_seconds_count" => out.latency_count += value,
                _ => {}
            }
        }
        out
    }
}

/// `dist.*` counter metrics over one pass.
pub fn pool_metrics(
    before: &PoolCounters,
    after: &PoolCounters,
    pass: &Phase,
    metrics: &mut Metrics,
) {
    let calls = after.calls - before.calls;
    let timed = after.latency_count - before.latency_count;
    metrics.set(
        "dist.calls_per_request",
        calls / pass.samples.len().max(1) as f64,
    );
    metrics.set(
        "dist.pool_call_us",
        if timed > 0.0 {
            (after.latency_sum_s - before.latency_sum_s) / timed * 1e6
        } else {
            0.0
        },
    );
    metrics.set("dist.pool_failures", after.failures - before.failures);
}

/// The public counters the program already exposes, read before and
/// after a phase. Their histograms are log-bucketed to 2×, so timings
/// derived from them use sum / count, never a quantile.
#[derive(Debug, Clone)]
pub struct Counters {
    batch_wait: (u64, u64),
    batches: u64,
    batched_requests: u64,
    rejected: u64,
    deadline_exceeded: u64,
    /// `/cite_at` handler time, (sum µs, count).
    cite_at: (u64, u64),
    citation_for: (u64, u64),
    tokens: fgc_core::CacheStats,
    plans: fgc_core::PlanCacheStats,
    fixity: Option<fgc_core::VersionStats>,
    pool: Option<PoolCounters>,
}

impl Counters {
    pub fn read(stack: &Stack) -> Counters {
        let sum_count = |snap: fgc_obs::HistogramSnapshot| (snap.sum, snap.count());
        let stats = stack.server_stats();
        let load = |counter: &std::sync::atomic::AtomicU64| {
            counter.load(std::sync::atomic::Ordering::Relaxed)
        };
        let (citation_for, tokens, plans) = stack.with_engine(|engine| {
            (
                sum_count(engine.cache_compute_latency()),
                engine.cache_stats(),
                engine.plan_stats(),
            )
        });
        Counters {
            batch_wait: sum_count(stats.batch_wait.snapshot()),
            batches: load(&stats.batches),
            batched_requests: load(&stats.batched_requests),
            rejected: load(&stats.rejected),
            deadline_exceeded: load(&stats.deadline_exceeded),
            cite_at: sum_count(stats.cite_at.snapshot()),
            citation_for,
            tokens,
            plans,
            fixity: match stack {
                Stack::Versioned { engine, .. } => Some(engine.version_stats()),
                _ => None,
            },
            pool: match stack {
                Stack::Dist(dist) => Some(PoolCounters::read(dist)),
                _ => None,
            },
        }
    }

    /// Mean `/cite_at` handler time between two reads, microseconds.
    pub fn cite_at_mean_us(&self, after: &Counters) -> f64 {
        mean_between(self.cite_at, after.cite_at)
    }
}

fn mean_between(before: (u64, u64), after: (u64, u64)) -> f64 {
    match after.1 - before.1 {
        0 => 0.0,
        n => (after.0 - before.0) as f64 / n as f64,
    }
}

fn ratio(part: u64, rest: u64) -> f64 {
    match part + rest {
        0 => 0.0,
        total => part as f64 / total as f64,
    }
}

/// The counter-backed layer metrics over one phase.
pub fn counter_metrics(before: &Counters, after: &Counters, phase: &Phase, metrics: &mut Metrics) {
    metrics.set(
        "server.batch_wait_us",
        mean_between(before.batch_wait, after.batch_wait),
    );
    metrics.set(
        "server.batch_size_mean",
        match after.batches - before.batches {
            0 => 0.0,
            n => (after.batched_requests - before.batched_requests) as f64 / n as f64,
        },
    );
    metrics.set("server.rejected", (after.rejected - before.rejected) as f64);
    metrics.set(
        "server.deadline_exceeded",
        (after.deadline_exceeded - before.deadline_exceeded) as f64,
    );
    // this histogram alone records nanoseconds
    metrics.set(
        "views.citation_for_us",
        mean_between(before.citation_for, after.citation_for) / 1e3,
    );
    metrics.set(
        "core.token_cache_hit_ratio",
        ratio(
            after.tokens.hits - before.tokens.hits,
            after.tokens.misses - before.tokens.misses,
        ),
    );
    metrics.set(
        "core.plan_cache_hit_ratio",
        ratio(
            after.plans.hits - before.plans.hits,
            after.plans.misses - before.plans.misses,
        ),
    );
    metrics.set(
        "core.plan_cache_evictions",
        (after.plans.evictions - before.plans.evictions) as f64,
    );

    let kreq = phase.samples.len().max(1) as f64 / 1000.0;
    let fixity = |pick: fn(&fgc_core::VersionStats) -> u64| match (&before.fixity, &after.fixity) {
        (Some(b), Some(a)) => pick(a) - pick(b),
        _ => 0,
    };
    let (hits, derived, rebuilt, shared) = (
        fixity(|s| s.hits),
        fixity(|s| s.derived),
        fixity(|s| s.rebuilt),
        fixity(|s| s.shared),
    );
    metrics.set(
        "core.fixity_hit_ratio",
        ratio(hits, derived + rebuilt + shared),
    );
    metrics.set("core.fixity_derived_per_kreq", derived as f64 / kreq);
    metrics.set("core.fixity_rebuilt_per_kreq", rebuilt as f64 / kreq);
    metrics.set("core.fixity_shared_per_kreq", shared as f64 / kreq);
    metrics.set(
        "core.fixity_evictions_per_kreq",
        fixity(|s| s.engine_evictions) as f64 / kreq,
    );
    if let (Some(b), Some(a)) = (&before.pool, &after.pool) {
        pool_metrics(b, a, phase, metrics);
    }
}
