//! Loopback integration tests for the `fgc-server` HTTP citation
//! service: concurrent clients must receive **byte-identical**
//! citations to direct `CitationEngine::cite` calls, `/stats` must
//! account for every served request, shutdown must join all workers,
//! and malformed input of every flavor must come back 4xx without
//! panicking or wedging a worker.

use fgcite::dist::{Coordinator, CoordinatorConfig, DistServer};
use fgcite::prelude::*;
use fgcite::server::{parse_json, CiteServer, Client, ServerConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn engine() -> Arc<CitationEngine> {
    Arc::new(
        CitationEngine::new(
            fgcite::gtopdb::paper_instance(),
            fgcite::gtopdb::paper_views(),
        )
        .expect("paper views validate"),
    )
}

fn start_server(threads: usize) -> (CiteServer, SocketAddr) {
    let config = ServerConfig::default()
        .with_addr("127.0.0.1:0")
        .with_threads(threads);
    let server = CiteServer::start(engine(), config).expect("bind loopback");
    let addr = server.addr();
    (server, addr)
}

/// The wire queries the concurrency test cycles through, with the
/// Datalog text the server will parse.
const QUERIES: &[&str] = &[
    "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"",
    "Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"",
    "Q(N) :- Family(F, N, Ty), Ty = \"enzyme\"",
    "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = \"11\"",
];

fn cite_body(query: &str) -> String {
    format!(
        r#"{{"query": "{}"}}"#,
        query.replace('\\', "\\\\").replace('"', "\\\"")
    )
}

/// Extract and compact-render the `aggregate` field of a response.
fn aggregate_of(body: &str) -> String {
    parse_json(body)
        .expect("response is valid JSON")
        .get("aggregate")
        .expect("response has an aggregate")
        .to_compact()
}

/// Compact-render every per-tuple citation of a response.
fn tuple_citations_of(body: &str) -> Vec<String> {
    let parsed = parse_json(body).expect("response is valid JSON");
    let Some(fgcite::views::Json::Array(tuples)) = parsed.get("tuples") else {
        panic!("response has no tuples array: {body}");
    };
    tuples
        .iter()
        .map(|t| t.get("citation").expect("tuple has citation").to_compact())
        .collect()
}

#[test]
fn eight_concurrent_clients_get_byte_identical_citations() {
    let reference = engine();
    let (server, addr) = start_server(8);

    // ground truth from direct &self cite() calls
    let expected: Vec<(String, Vec<String>)> = QUERIES
        .iter()
        .map(|q| {
            let cited = reference
                .cite(&fgcite::query::parse_query(q).unwrap())
                .unwrap();
            (
                cited.aggregate.to_compact(),
                cited
                    .tuples
                    .iter()
                    .map(|t| t.citation.to_compact())
                    .collect(),
            )
        })
        .collect();

    let clients = 8;
    let rounds = 6;
    std::thread::scope(|scope| {
        for c in 0..clients {
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for r in 0..rounds {
                    let i = (c + r) % QUERIES.len();
                    let response = client.post("/cite", &cite_body(QUERIES[i])).expect("post");
                    assert_eq!(response.status, 200, "client {c}: {}", response.body);
                    assert_eq!(
                        aggregate_of(&response.body),
                        expected[i].0,
                        "client {c} round {r}: aggregate differs from direct cite()"
                    );
                    assert_eq!(
                        tuple_citations_of(&response.body),
                        expected[i].1,
                        "client {c} round {r}: tuple citations differ from direct cite()"
                    );
                }
            });
        }
    });

    // /stats accounts for every served request
    let mut client = Client::connect(addr).unwrap();
    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    let parsed = parse_json(&stats.body).unwrap();
    assert_eq!(
        parsed.get("served"),
        Some(&fgcite::views::Json::Int((clients * rounds) as i64)),
        "stats: {}",
        stats.body
    );
    let cite = parsed.get("cite").unwrap();
    assert_eq!(
        cite.get("requests"),
        Some(&fgcite::views::Json::Int((clients * rounds) as i64))
    );
    assert_eq!(cite.get("errors"), Some(&fgcite::views::Json::Int(0)));

    // the plan cache block reports hits/misses/size: the few distinct
    // queries compile once each (misses == size) and every repeat is
    // a hit
    let plans = parsed.get("plan_cache").expect("plan_cache block");
    let int_of = |key: &str| match plans.get(key) {
        Some(fgcite::views::Json::Int(n)) => *n,
        other => panic!("plan_cache.{key} missing: {other:?} in {}", stats.body),
    };
    assert!(int_of("misses") >= 1, "stats: {}", stats.body);
    assert!(int_of("size") >= 1, "stats: {}", stats.body);
    assert!(
        int_of("hits") >= 1,
        "repeated queries must hit the plan cache: {}",
        stats.body
    );
    drop(client);

    // graceful shutdown joins every worker (returning at all is the
    // assertion; a wedged worker would hang the test here)
    server.shutdown();
}

#[test]
fn sql_endpoint_matches_datalog_citations() {
    let reference = engine();
    let (server, addr) = start_server(4);
    let datalog = fgcite::query::parse_query(QUERIES[0]).unwrap();
    let expected = reference.cite(&datalog).unwrap().aggregate;

    let mut client = Client::connect(addr).unwrap();
    let response = client
        .post(
            "/cite_sql",
            r#"{"sql": "SELECT f.FName, i.Text FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"}"#,
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    // SQL and Datalog render the same result set: equivalent
    // citations (field order may differ across assembly paths)
    let sql_aggregate = parse_json(&response.body)
        .unwrap()
        .get("aggregate")
        .unwrap()
        .clone();
    assert!(
        sql_aggregate.equivalent(&expected),
        "{sql_aggregate} vs {expected}"
    );
    drop(client);
    server.shutdown();
}

#[test]
fn per_request_overrides_ride_the_wire() {
    let (server, addr) = start_server(4);
    let mut client = Client::connect(addr).unwrap();

    let pruned = client.post("/cite", &cite_body(QUERIES[0])).unwrap();
    assert_eq!(pruned.status, 200);
    let exhaustive = client
        .post(
            "/cite",
            &format!(
                r#"{{"query": "{}", "mode": "exhaustive", "policy": "union"}}"#,
                QUERIES[0].replace('"', "\\\"")
            ),
        )
        .unwrap();
    assert_eq!(exhaustive.status, 200);

    let n = |body: &str, field: &str| -> i64 {
        match parse_json(body).unwrap().get(field) {
            Some(fgcite::views::Json::Int(i)) => *i,
            other => panic!("field {field} missing or non-int: {other:?}"),
        }
    };
    assert!(
        n(&exhaustive.body, "rewritings") > n(&pruned.body, "rewritings"),
        "exhaustive mode must widen the search on the wire"
    );
    assert_eq!(
        parse_json(&exhaustive.body).unwrap().get("exhaustive"),
        Some(&fgcite::views::Json::Bool(true))
    );
    drop(client);
    server.shutdown();
}

#[test]
fn views_and_healthz_routes_answer() {
    let (server, addr) = start_server(2);
    let mut client = Client::connect(addr).unwrap();

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let parsed = parse_json(&health.body).unwrap();
    assert_eq!(
        parsed.get("status"),
        Some(&fgcite::views::Json::str("ok")),
        "{}",
        health.body
    );
    assert_eq!(
        parsed.get("role"),
        Some(&fgcite::views::Json::str("single")),
        "{}",
        health.body
    );
    assert_eq!(parsed.get("shard"), Some(&fgcite::views::Json::Null));
    assert_eq!(parsed.get("versions"), Some(&fgcite::views::Json::Int(1)));

    let views = client.get("/views").unwrap();
    assert_eq!(views.status, 200);
    let parsed = parse_json(&views.body).unwrap();
    assert_eq!(parsed.get("count"), Some(&fgcite::views::Json::Int(5)));
    let body = views.body;
    for name in ["V1", "V2", "V3", "V4", "V5"] {
        assert!(body.contains(name), "missing {name} in {body}");
    }
    drop(client);
    server.shutdown();
}

/// Malformed traffic of every flavor: 4xx, no panic, and — the
/// important part — the worker that handled the garbage keeps
/// serving wellformed requests afterwards.
#[test]
fn versioned_routes_serve_history_and_unversioned_deployments_404() {
    // unversioned: the versioned routes answer 404, /stats has no fixity
    let (server, addr) = start_server(2);
    let mut client = Client::connect(addr).expect("connect");
    let response = client
        .post("/cite_at", &cite_body(QUERIES[1]))
        .expect("response");
    assert_eq!(response.status, 404, "{}", response.body);
    assert_eq!(client.get("/versions").expect("response").status, 404);
    let stats = client.get("/stats").expect("response");
    assert!(parse_json(&stats.body).unwrap().get("fixity").is_none());
    drop(client);
    server.shutdown();

    // versioned: /cite_at serves any committed version, /cite serves
    // the head, and /stats reports the derived/rebuilt counters
    let mut history = VersionedDatabase::new();
    history
        .commit(fgcite::gtopdb::paper_instance(), 100, "v23")
        .unwrap();
    history
        .commit_with(200, "v24", |db| {
            db.insert("Family", tuple!["20", "Melatonin", "gpcr"])
                .map(|_| ())
        })
        .unwrap();
    history
        .commit_with(300, "v25", |db| {
            db.insert("Family", tuple!["21", "Ghrelin", "gpcr"])
                .map(|_| ())
        })
        .unwrap();
    let versioned = Arc::new(VersionedCitationEngine::new(
        history,
        fgcite::gtopdb::paper_views(),
    ));
    let server = CiteServer::start_versioned(
        versioned,
        ServerConfig::default()
            .with_addr("127.0.0.1:0")
            .with_threads(2),
    )
    .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    let old = client
        .post(
            "/cite_at",
            &format!(
                r#"{{"query": "{}", "version": 0}}"#,
                QUERIES[1].replace('"', "\\\"")
            ),
        )
        .expect("response");
    assert_eq!(old.status, 200, "{}", old.body);
    let parsed = parse_json(&old.body).unwrap();
    assert_eq!(parsed.get("Version"), Some(&Json::str("v23")));
    // version 1's first touch derives from the now-warm version 0
    let at = client
        .post(
            "/cite_at",
            &format!(
                r#"{{"query": "{}", "at": 250}}"#,
                QUERIES[1].replace('"', "\\\"")
            ),
        )
        .expect("response");
    assert!(at.body.contains("v24"), "{}", at.body);
    for bad in [
        r#"{"at": 500}"#,
        r#"{"query": "Q(N) :- Family(F, N, Ty)", "version": 0, "at": 1}"#,
        r#"{"query": "Q(N) :- Family(F, N, Ty)", "version": 99}"#,
        r#"{"query": "Q(N) :- Family(F, N, Ty)", "version": -3}"#,
        // a typo'd selector must not silently serve the head version
        r#"{"query": "Q(N) :- Family(F, N, Ty)", "verison": 2}"#,
        r#"{"query": "Q(N) :- Family(F, N, Ty)", "version": 0, "version": 1}"#,
    ] {
        let response = client.post("/cite_at", bad).expect("response");
        assert_eq!(response.status, 400, "{bad} -> {}", response.body);
    }
    // /cite serves the head version's engine
    let head = client
        .post("/cite", &cite_body(QUERIES[1]))
        .expect("response");
    assert_eq!(head.status, 200, "{}", head.body);
    assert!(head.body.contains("Melatonin"), "{}", head.body);
    // /versions + fixity block
    let versions = client.get("/versions").expect("response");
    assert!(versions.body.contains("\"count\": 3"), "{}", versions.body);
    let stats = client.get("/stats").expect("response");
    let fixity = parse_json(&stats.body)
        .unwrap()
        .get("fixity")
        .cloned()
        .expect("fixity block");
    assert_eq!(
        fixity.get("versions"),
        Some(&Json::Int(3)),
        "{}",
        stats.body
    );
    match fixity.get("derived") {
        Some(Json::Int(n)) => assert!(*n >= 1, "{}", stats.body),
        other => panic!("derived missing: {other:?}"),
    }
    drop(client);
    server.shutdown();
}

/// The framing and routing contract of the one `HttpService`, as a
/// table run against whichever role is listening on `addr`. Opens one
/// connection at a time, so it also passes against a single worker.
fn assert_front_door_contract(role: &str, addr: SocketAddr) {
    let is_error_json = |response: &fgcite::server::ClientResponse, what: &str| {
        assert_eq!(
            response.header("content-type"),
            Some("application/json"),
            "{role}: {what}"
        );
        assert!(
            parse_json(&response.body).unwrap().get("error").is_some(),
            "{role}: {what}: error body expected, got {}",
            response.body
        );
    };

    // Routing errors: 404, and 405 for *any* unsupported method on a
    // known path. A supplied request ID is echoed on every one, the
    // error is labelled as the JSON it is (`/metrics` included), and
    // the keep-alive connection survives them all.
    let mut client = Client::connect(addr).unwrap();
    for (method, path, body, status) in [
        ("GET", "/nope", None, 404),
        ("GET", "/cite", None, 405),
        ("POST", "/healthz", Some("{}"), 405),
        ("DELETE", "/cite", None, 405),
        ("PUT", "/stats", None, 405),
        ("POST", "/metrics", Some("{}"), 405),
        ("POST", "/debug/slow", Some("{}"), 405),
        ("POST", "/cite", Some("{not json"), 400),
    ] {
        let what = format!("{method} {path}");
        let response = client
            .request_with_headers(method, path, body, &[("x-request-id", "contract-7")])
            .unwrap_or_else(|e| panic!("{role}: {what}: {e}"));
        assert_eq!(response.status, status, "{role}: {what}: {}", response.body);
        assert_eq!(
            response.header("x-request-id"),
            Some("contract-7"),
            "{role}: {what}"
        );
        is_error_json(&response, &what);
    }

    // Framing errors: answered with the right 4xx and an assigned
    // request ID (no head was parsed, so none could be honored). The
    // oversized declaration goes down the connection that survived the
    // routing errors; the rest need a fresh one each.
    let raws: [(&[u8], u16, &str); 4] = [
        (
            b"POST /cite HTTP/1.1\r\nHost: x\r\nContent-Length: 99999999\r\n\r\n",
            413,
            "declared body over the limit",
        ),
        // regression: used to read an empty body and answer a
        // confusing JSON parse error
        (
            b"POST /cite HTTP/1.1\r\nHost: x\r\n\r\n",
            411,
            "POST without Content-Length",
        ),
        (
            b"POST /cite HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            400,
            "chunked framing",
        ),
        (b"echo hello world\r\n\r\n", 400, "raw garbage"),
    ];
    for (raw, status, what) in raws {
        let response = client.send_raw(raw).unwrap();
        assert_eq!(response.status, status, "{role}: {what}: {}", response.body);
        assert!(
            response
                .header("x-request-id")
                .is_some_and(|id| !id.is_empty()),
            "{role}: {what}: no request id"
        );
        is_error_json(&response, what);
        if status == 411 {
            assert!(
                response.body.contains("Content-Length"),
                "{role}: 411 body should name the missing header: {}",
                response.body
            );
        }
        client = Client::connect(addr).unwrap();
    }
    drop(client);

    // A truncated request: half a request line, then hang up (a raw
    // stream, not `Client`: nobody waits for a response). The worker
    // sees EOF mid-head and must recover.
    {
        use std::io::Write as _;
        let mut truncated = std::net::TcpStream::connect(addr).unwrap();
        truncated.write_all(b"POST /ci").unwrap();
    }

    // A head dripped slower than the header deadline: 408, not a held
    // worker. Never complete a line; stop writing as soon as anything
    // comes back so the buffered 408 can't be discarded by a reset.
    {
        use std::io::{Read as _, Write as _};
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        stream.write_all(b"POST /cite HTTP/1.1\r\n").unwrap();
        let mut raw = Vec::new();
        let mut buf = [0u8; 1024];
        let give_up = std::time::Instant::now() + Duration::from_secs(10);
        while raw.is_empty() && std::time::Instant::now() < give_up {
            if stream.write_all(b"x").is_err() {
                break;
            }
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => raw.extend_from_slice(&buf[..n]),
                Err(_) => {} // read timeout: keep dripping
            }
        }
        while let Ok(n) = stream.read(&mut buf) {
            if n == 0 {
                break;
            }
            raw.extend_from_slice(&buf[..n]);
        }
        let text = String::from_utf8_lossy(&raw);
        assert!(
            text.starts_with("HTTP/1.1 408"),
            "{role}: expected a 408, got: {text:?}"
        );
        assert!(text.contains("x-request-id: "), "{role}: {text:?}");
    }

    // Nothing above wedged a worker: wellformed traffic still serves,
    // and every framing error was counted.
    let mut client = Client::connect(addr).unwrap();
    let response = client.post("/cite", &cite_body(QUERIES[1])).unwrap();
    assert_eq!(response.status, 200, "{role}: {}", response.body);
    let stats = client.get("/stats").unwrap();
    match parse_json(&stats.body).unwrap().get("malformed") {
        Some(fgcite::views::Json::Int(n)) => assert!(*n >= 5, "{role}: stats: {}", stats.body),
        other => panic!("{role}: malformed counter missing: {other:?}"),
    }
}

#[test]
fn malformed_input_is_4xx_and_never_wedges_workers() {
    // One conformance table, three roles, each behind a single worker:
    // if anything wedged it, the follow-up requests would hang (the
    // harness timeout would catch it). The short header deadline keeps
    // the 408 drip quick; the replica *behind* the coordinator keeps
    // the default, because a pooled connection parked on it for longer
    // than its header deadline would be answered 408.
    let config = || {
        ServerConfig::default()
            .with_addr("127.0.0.1:0")
            .with_threads(1)
            .with_header_read_timeout(Duration::from_secs(1))
    };
    let start_replica = |config: ServerConfig| {
        let sharded = Arc::new(
            CitationEngine::new(
                fgcite::gtopdb::paper_instance(),
                fgcite::gtopdb::paper_views(),
            )
            .expect("paper views validate")
            .with_shards(1, fgcite::gtopdb::paper_shard_spec())
            .expect("spec resolves"),
        );
        CiteServer::start_with_handler(
            Arc::clone(&sharded),
            config.with_role("replica").with_shard(0, 1),
            fgcite::dist::fragment_handler(sharded),
        )
        .expect("replica starts")
    };
    let server = CiteServer::start(engine(), config()).expect("bind loopback");
    let addr = server.addr();
    let replica = start_replica(config());
    let backing = start_replica(
        ServerConfig::default()
            .with_addr("127.0.0.1:0")
            .with_threads(2),
    );
    let coordinator = Coordinator::connect(CoordinatorConfig::new(vec![backing.addr()]))
        .expect("coordinator connects");
    let front = DistServer::start(Arc::new(coordinator), config()).expect("coordinator serves");
    for (role, addr) in [
        ("single", addr),
        ("replica", replica.addr()),
        ("coordinator", front.addr()),
    ] {
        assert_front_door_contract(role, addr);
    }
    front.shutdown();
    backing.shutdown();
    replica.shutdown();

    // The body half: invalid JSON, bad fields, bad query text.
    let mut client = Client::connect(addr).unwrap();
    for (body, what) in [
        ("{not json", "unparsable JSON"),
        (
            r#"{"query": "Q(N) :- Family(F, N, Ty)", "polcy": "union"}"#,
            "unknown field",
        ),
        (
            r#"{"query": "Q(N) :- Family(F, N, Ty)", "policy": "maximal"}"#,
            "bad policy",
        ),
        (r#"{"query": "not datalog at all"}"#, "bad query"),
        (
            r#"{"query": "Q(N) :- Family(F, N, Ty)", "memoize": false}"#,
            "retired memoize field",
        ),
        (
            r#"{"query": "Q(N) :- Family(F, N, Ty)", "query": "Q(F) :- Family(F, N, Ty)"}"#,
            "repeated field",
        ),
        (r#"{"sql": "SELECT 1"}"#, "sql on /cite"),
        (r#"{}"#, "missing query"),
        (r#"[1,2,3]"#, "non-object body"),
        (
            r#"{"query": "Q(X) :- NoSuchRelation(X)"}"#,
            "unknown relation",
        ),
    ] {
        let response = client.post("/cite", body).unwrap();
        assert_eq!(response.status, 400, "{what}: {}", response.body);
        assert!(
            parse_json(&response.body).unwrap().get("error").is_some(),
            "{what}: error body expected, got {}",
            response.body
        );
    }

    // the single worker still serves wellformed traffic
    let mut client = Client::connect(addr).unwrap();
    let response = client.post("/cite", &cite_body(QUERIES[1])).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let stats = client.get("/stats").unwrap();
    let parsed = parse_json(&stats.body).unwrap();
    match parsed.get("malformed") {
        Some(fgcite::views::Json::Int(n)) => assert!(*n >= 2, "stats: {}", stats.body),
        other => panic!("malformed counter missing: {other:?}"),
    }
    drop(client);
    server.shutdown();
}

/// The observability surface: request IDs ride the response headers
/// (honored when supplied, assigned otherwise), `/metrics` speaks
/// Prometheus text with role/endpoint/stage labels, `/debug/slow`
/// retains recent requests by ID, `/stats` reports uptime / in-flight
/// / server-computed hit rates, and the per-request stage breakdown
/// is strictly opt-in (default bodies stay byte-identical).
#[test]
fn observability_surface_rides_every_response() {
    let (server, addr) = start_server(2);
    let mut client = Client::connect(addr).unwrap();

    // a supplied x-request-id comes back verbatim...
    let response = client
        .request_with_headers(
            "POST",
            "/cite",
            Some(&cite_body(QUERIES[1])),
            &[("x-request-id", "test-rid-42")],
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(response.header("x-request-id"), Some("test-rid-42"));
    // ...and the default body carries no stage breakdown
    assert!(
        parse_json(&response.body).unwrap().get("stages").is_none(),
        "stages must be opt-in: {}",
        response.body
    );

    // without one, the server assigns a non-empty ID
    let response = client.post("/cite", &cite_body(QUERIES[1])).unwrap();
    let assigned = response
        .header("x-request-id")
        .expect("assigned request id")
        .to_string();
    assert!(!assigned.is_empty());

    // "stages": true opts the per-request breakdown into the body
    let body = format!(
        r#"{{"query": "{}", "stages": true}}"#,
        QUERIES[1].replace('"', "\\\"")
    );
    let response = client.post("/cite", &body).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let stages = parse_json(&response.body)
        .unwrap()
        .get("stages")
        .cloned()
        .expect("stages block");
    for stage in ["parse", "evaluate", "rewrite", "extent", "render"] {
        assert!(
            stages.get(stage).is_some(),
            "missing stage {stage}: {}",
            response.body
        );
    }

    // /metrics: Prometheus text exposition with role/endpoint/stage
    // labels
    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    for needle in [
        "# TYPE fgcite_requests_total counter",
        "fgcite_requests_total{role=\"single\",shard=\"\",endpoint=\"/cite\"} 3",
        "fgcite_request_duration_seconds_bucket",
        "fgcite_stage_duration_seconds_count{role=\"single\",shard=\"\",stage=\"evaluate\"}",
        "fgcite_cache_hits_total{role=\"single\",shard=\"\",cache=\"plans\"}",
        "fgcite_uptime_seconds",
        "fgcite_in_flight",
    ] {
        assert!(
            metrics.body.contains(needle),
            "missing {needle} in:\n{}",
            metrics.body
        );
    }
    // there is no batcher, so no batch families to export
    assert!(!metrics.body.contains("fgcite_batch"), "{}", metrics.body);

    // /debug/slow retains the recent requests under their IDs
    let slow = client.get("/debug/slow").unwrap();
    assert_eq!(slow.status, 200);
    assert!(slow.body.contains("test-rid-42"), "{}", slow.body);
    assert!(slow.body.contains(&assigned), "{}", slow.body);
    assert!(slow.body.contains("total_us"), "{}", slow.body);

    // /stats: uptime, the in-flight gauge, and server-computed cache
    // hit-rate ratios
    let stats = client.get("/stats").unwrap();
    let parsed = parse_json(&stats.body).unwrap();
    assert!(parsed.get("uptime_s").is_some(), "{}", stats.body);
    assert!(parsed.get("in_flight").is_some(), "{}", stats.body);
    assert!(!stats.body.contains("batch"), "{}", stats.body);
    let rates = parsed.get("cache_hit_rates").expect("cache_hit_rates");
    assert!(
        rates.get("tokens").is_some() && rates.get("plans").is_some(),
        "{}",
        stats.body
    );
    // the cite endpoint block reports real quantiles now
    let cite = parsed.get("cite").expect("cite block");
    for field in ["p50_us", "p90_us", "p99_us", "max_us"] {
        assert!(cite.get(field).is_some(), "missing {field}: {}", stats.body);
    }

    drop(client);
    server.shutdown();
}

/// Independent requests share nothing but the engine, so nothing
/// queues them behind one another: while one worker is busy with a
/// join whose reply is MB-scale, another answers a keyed lookup.
#[test]
fn a_slow_cite_does_not_delay_a_fast_one() {
    use fgcite::gtopdb::{generate, paper_views, GeneratorConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    let db = generate(&GeneratorConfig::default());
    let engine = Arc::new(CitationEngine::new(db, paper_views()).expect("views validate"));
    let slow = "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)";
    let fast = "Q(N, Ty) :- Family(F, N, Ty), F = \"f7\"";
    // The direct renders double as the warm-up: what is left of the
    // slow request is the per-byte work on its own reply.
    let direct = |query: &str| {
        let request = CiteRequest::query(parse_query(query).unwrap());
        let response = engine.cite_request(&request).expect("direct cite");
        stable(&fgcite::server::encode_response(&response).to_compact())
    };
    let (slow_expected, fast_expected) = (direct(slow), direct(fast));
    assert!(slow_expected.len() > 1 << 20, "{}", slow_expected.len());
    // `render` is the last stage of an engine call: its sample count
    // is the number of citations the engine has finished
    let finished = || {
        let mut stages = engine.stage_stats().iter();
        let (_, render) = stages.find(|(stage, _)| *stage == "render").unwrap();
        render.count()
    };
    let finished_before = finished();

    let config = ServerConfig::default()
        .with_addr("127.0.0.1:0")
        .with_threads(2);
    let server = CiteServer::start(Arc::clone(&engine), config).expect("bind loopback");
    let (addr, stats) = (server.addr(), server.stats());
    let slow_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let slow_client = scope.spawn(|| {
            let mut client = Client::connect(addr).expect("connect");
            let response = client.post("/cite", &cite_body(slow)).expect("post");
            slow_done.store(true, Ordering::SeqCst);
            response
        });
        // `in_flight` counts routed requests: once it is up the slow
        // request is inside its handler on one of the two workers
        while stats.in_flight.load(Ordering::Relaxed) == 0 {
            assert!(
                !slow_done.load(Ordering::SeqCst),
                "the slow request finished before it was seen in flight"
            );
            std::thread::yield_now();
        }
        let mut client = Client::connect(addr).expect("connect");
        let response = client.post("/cite", &cite_body(fast)).expect("post");
        // Sampled on arrival of the fast answer. The client-side flag
        // alone cannot tell: a reply released by the slow request's
        // engine call still beats that request's MB-scale encode and
        // write. The engine must have finished the lookup and only it.
        let (finished, overtook) = (finished(), !slow_done.load(Ordering::SeqCst));
        assert_eq!(response.status, 200, "{}", response.body);
        assert!(overtook, "the keyed lookup arrived after the MB-scale join");
        assert_eq!(
            finished - finished_before,
            1,
            "the keyed lookup waited for the MB-scale join's engine call"
        );
        assert_eq!(stable(&response.body), fast_expected);

        let response = slow_client.join().expect("slow client");
        assert_eq!(response.status, 200);
        assert!(stable(&response.body) == slow_expected, "slow body differs");
    });
    server.shutdown();
}

/// A `/cite` body with its volatile fields (timing, cache counters)
/// zeroed, so two renders of one citation compare byte for byte.
fn stable(body: &str) -> String {
    let mut parsed = parse_json(body).expect("response is valid JSON");
    for volatile in ["elapsed_us", "cache_hits", "cache_misses"] {
        parsed.set(volatile, Json::Int(0));
    }
    parsed.to_compact()
}
