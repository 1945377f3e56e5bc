//! Distributed vs. single-process equivalence — the acceptance bar
//! of the scatter/gather tier: a coordinator over {1, 2, 4} shard
//! replicas must answer `POST /cite` with responses **byte-identical**
//! to a single-process `CiteServer` over the same data (modulo the
//! explicitly volatile fields: `elapsed_us` and the cache counters).
//! That must survive the failure of one replica whose shard has a
//! configured twin; without a twin the coordinator must answer a
//! structured 503 naming the dead shard and the replicas it tried.

use fgcite::dist::{Coordinator, CoordinatorConfig, DistServer, PoolConfig};
use fgcite::engine::CitationEngine;
use fgcite::gtopdb::{generate, paper_instance, paper_shard_spec, paper_views, GeneratorConfig};
use fgcite::relation::Database;
use fgcite::server::{parse_json, CiteServer, Client, ServerConfig};
use fgcite::views::Json;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Queries that stress the scatter set: keyed constants (prune to one
/// shard), non-key selections (fan out), multi-way joins driving the
/// extent/bindings path, self-joins, empty and unsatisfiable results.
const QUERIES: &[&str] = &[
    "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"",
    "Q(N) :- Family(F, N, Ty)",
    "Q(N) :- Family(\"11\", N, Ty)",
    "Q(N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)",
    "Q(A, B) :- Family(A, N1, T), Family(B, N2, T), A != B",
    "Q(N) :- Family(F, N, Ty), Ty = \"nope\"",
    "Q(N) :- Family(F, N, Ty), Ty = \"a\", Ty = \"b\"",
];

fn cite_body(query: &str) -> String {
    format!(r#"{{"query": "{}"}}"#, query.replace('"', "\\\""))
}

/// Zero the explicitly nondeterministic response fields; everything
/// else — tuples, citations, aggregate, rewriting count, flags — must
/// match byte for byte.
fn normalized(body: &str) -> String {
    let mut parsed = parse_json(body).expect("response is JSON");
    for volatile in ["elapsed_us", "cache_hits", "cache_misses"] {
        if parsed.get(volatile).is_some() {
            parsed.set(volatile, Json::Int(0));
        }
    }
    parsed.to_compact()
}

fn replica_config(shard: usize, shards: usize) -> ServerConfig {
    ServerConfig::default()
        .with_addr("127.0.0.1:0")
        .with_threads(2)
        .with_role("replica")
        .with_shard(shard, shards)
}

fn start_replica(db: &Database, shard: usize, shards: usize) -> CiteServer {
    let engine = CitationEngine::new(db.clone(), paper_views())
        .expect("views validate")
        .with_shards(shards, paper_shard_spec())
        .expect("spec resolves");
    let engine = Arc::new(engine);
    CiteServer::start_with_handler(
        Arc::clone(&engine),
        replica_config(shard, shards),
        fgcite::dist::fragment_handler(engine),
    )
    .expect("replica starts")
}

fn start_cluster(db: &Database, shards: usize) -> (Vec<CiteServer>, DistServer) {
    let replicas: Vec<CiteServer> = (0..shards).map(|i| start_replica(db, i, shards)).collect();
    let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();
    let coordinator = Coordinator::connect(
        CoordinatorConfig::new(addrs)
            .with_pool(PoolConfig::default().with_timeout(Duration::from_secs(5))),
    )
    .expect("coordinator connects");
    let front = DistServer::start(
        Arc::new(coordinator),
        ServerConfig::default()
            .with_addr("127.0.0.1:0")
            .with_threads(2),
    )
    .expect("coordinator serves");
    (replicas, front)
}

fn start_reference(db: &Database) -> CiteServer {
    let engine = CitationEngine::new(db.clone(), paper_views()).expect("views validate");
    CiteServer::start(
        Arc::new(engine),
        ServerConfig::default()
            .with_addr("127.0.0.1:0")
            .with_threads(2),
    )
    .expect("reference starts")
}

/// POST the same body to both servers and demand identical status and
/// normalized bodies.
fn assert_matches(reference: &mut Client, distributed: &mut Client, path: &str, body: &str) {
    let expected = reference.post(path, body).expect("reference answers");
    let actual = distributed.post(path, body).expect("coordinator answers");
    assert_eq!(
        expected.status, actual.status,
        "status diverged for {body}: {} vs {}",
        expected.body, actual.body
    );
    if expected.status == 200 {
        assert_eq!(
            normalized(&expected.body),
            normalized(&actual.body),
            "body diverged for {body}"
        );
    } else {
        // error bodies carry no volatile fields: byte-identical as-is
        assert_eq!(expected.body, actual.body, "error diverged for {body}");
    }
}

#[test]
fn coordinator_matches_single_process_on_paper_instance() {
    let db = paper_instance();
    let reference = start_reference(&db);
    for shards in [1, 2, 4] {
        let (replicas, front) = start_cluster(&db, shards);
        let mut ref_client = Client::connect(reference.addr()).unwrap();
        let mut dist_client = Client::connect(front.addr()).unwrap();
        for q in QUERIES {
            assert_matches(&mut ref_client, &mut dist_client, "/cite", &cite_body(q));
        }
        // the SQL route shares the scatter path
        assert_matches(
            &mut ref_client,
            &mut dist_client,
            "/cite_sql",
            r#"{"query": "SELECT f.FName FROM Family f WHERE f.FID = '11'"}"#,
        );
        // errors relay byte-identically: unknown relation, bad syntax
        assert_matches(
            &mut ref_client,
            &mut dist_client,
            "/cite",
            &cite_body("Q(X) :- Nope(X)"),
        );
        assert_matches(&mut ref_client, &mut dist_client, "/cite", "{not json");
        drop(dist_client);
        drop(ref_client);
        front.shutdown();
        for r in replicas {
            r.shutdown();
        }
    }
    reference.shutdown();
}

#[test]
fn coordinator_matches_single_process_on_generated_gtopdb() {
    let db = generate(&GeneratorConfig::default().with_families(60));
    let queries: Vec<String> = {
        let mut w = fgcite::gtopdb::WorkloadGenerator::new(&db, 71);
        w.ad_hoc_batch(6).iter().map(|q| q.to_string()).collect()
    };
    let reference = start_reference(&db);
    for shards in [1, 2, 4] {
        let (replicas, front) = start_cluster(&db, shards);
        let mut ref_client = Client::connect(reference.addr()).unwrap();
        let mut dist_client = Client::connect(front.addr()).unwrap();
        for q in &queries {
            assert_matches(&mut ref_client, &mut dist_client, "/cite", &cite_body(q));
        }
        drop(dist_client);
        drop(ref_client);
        front.shutdown();
        for r in replicas {
            r.shutdown();
        }
    }
    reference.shutdown();
}

#[test]
fn failover_to_twin_is_byte_identical() {
    let db = paper_instance();
    let shards = 2;
    let replicas: Vec<CiteServer> = (0..shards).map(|i| start_replica(&db, i, shards)).collect();
    // shard 0 gets a twin — an identical replica owning the same shard
    let twin = start_replica(&db, 0, shards);
    let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();
    let coordinator = Coordinator::connect(
        CoordinatorConfig::new(addrs)
            .with_twins(vec![Some(twin.addr()), None])
            .with_pool(PoolConfig::default().with_timeout(Duration::from_secs(2))),
    )
    .expect("coordinator connects");
    let front = DistServer::start(
        Arc::new(coordinator),
        ServerConfig::default()
            .with_addr("127.0.0.1:0")
            .with_threads(2),
    )
    .expect("coordinator serves");
    let mut client = Client::connect(front.addr()).unwrap();

    // baseline with every replica alive
    let before: Vec<(u16, String)> = QUERIES
        .iter()
        .map(|q| {
            let r = client.post("/cite", &cite_body(q)).unwrap();
            (r.status, normalized(&r.body))
        })
        .collect();

    // kill shard 0's primary; the twin must keep every answer intact.
    // The kill drains the dead replica's workers, which can outlast
    // the front end's idle read timeout — reconnect like any client.
    drop(client);
    let mut replicas = replicas.into_iter();
    replicas.next().unwrap().shutdown();
    let survivors: Vec<CiteServer> = replicas.collect();
    let mut client = Client::connect(front.addr()).unwrap();
    for (q, (status, body)) in QUERIES.iter().zip(&before) {
        let r = client.post("/cite", &cite_body(q)).unwrap();
        assert_eq!(r.status, *status, "{q}: {}", r.body);
        assert_eq!(&normalized(&r.body), body, "{q}");
    }

    // the dead primary surfaces in the coordinator's replica stats
    let stats = client.get("/stats").unwrap();
    let parsed = parse_json(&stats.body).unwrap();
    let Some(Json::Array(slots)) = parsed.get("replicas") else {
        panic!("no replicas block in {}", stats.body);
    };
    assert!(
        slots
            .iter()
            .any(|slot| { matches!(slot.get("failures"), Some(Json::Int(n)) if *n > 0) }),
        "expected recorded failures in {}",
        stats.body
    );

    drop(client);
    front.shutdown();
    twin.shutdown();
    for r in survivors {
        r.shutdown();
    }
}

#[test]
fn exhausted_shard_answers_structured_503() {
    let db = paper_instance();
    let shards = 2;
    let (replicas, front) = start_cluster(&db, shards);

    // kill shard 1's only replica (no twin configured): citations
    // need every shard — answer fragments may prune, but extent
    // queries always fan out — so cites must fail *loudly*
    let dead_shard = 1;
    let mut replicas: Vec<Option<CiteServer>> = replicas.into_iter().map(Some).collect();
    replicas[dead_shard].take().unwrap().shutdown();

    // connect only after the kill: the drain above can outlast the
    // front end's idle keep-alive timeout
    let mut client = Client::connect(front.addr()).unwrap();
    // a structured 503 naming the dead shard and the replicas tried
    let outage = client
        .post("/cite", &cite_body("Q(N) :- Family(F, N, Ty)"))
        .unwrap();
    assert_eq!(outage.status, 503, "{}", outage.body);
    let parsed = parse_json(&outage.body).unwrap();
    assert!(
        matches!(parsed.get("error"), Some(Json::Str(m)) if m.contains("no live replica")),
        "{}",
        outage.body
    );
    assert_eq!(
        parsed.get("shard"),
        Some(&Json::Int(dead_shard as i64)),
        "{}",
        outage.body
    );
    let Some(Json::Array(tried)) = parsed.get("replicas_tried") else {
        panic!("no replicas_tried in {}", outage.body);
    };
    assert!(!tried.is_empty(), "{}", outage.body);

    // a second attempt keeps answering 503 (the opened circuit fails
    // fast instead of hanging), and the structure is intact
    let again = client
        .post("/cite", &cite_body("Q(N) :- Family(F, N, Ty)"))
        .unwrap();
    assert_eq!(again.status, 503, "{}", again.body);
    assert!(again.body.contains("replicas_tried"), "{}", again.body);

    // the front end itself stays healthy: control-plane routes and
    // request validation never touch the dead shard
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    assert_eq!(client.get("/views").unwrap().status, 200);
    let malformed = client.post("/cite", "{not json").unwrap();
    assert_eq!(malformed.status, 400, "{}", malformed.body);

    drop(client);
    front.shutdown();
    for r in replicas.into_iter().flatten() {
        r.shutdown();
    }
}

/// The request ID honored (or assigned) at the coordinator's front
/// door rides the `x-request-id` header onto every replica-side
/// `/fragment/*` call, every role answers `GET /metrics`, and the
/// outage 503 — the one body never reference-compared — names the
/// request that hit it.
#[test]
fn request_ids_propagate_coordinator_to_replicas() {
    let db = paper_instance();
    let (replicas, front) = start_cluster(&db, 2);
    let mut client = Client::connect(front.addr()).unwrap();

    // a supplied ID echoes on the coordinator's response...
    let response = client
        .request_with_headers(
            "POST",
            "/cite",
            Some(&cite_body(QUERIES[0])),
            &[("x-request-id", "dist-rid-7")],
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(response.header("x-request-id"), Some("dist-rid-7"));

    // ...and lands replica-side on the fragment calls it fanned out
    let mut seen = 0;
    for replica in &replicas {
        let mut rc = Client::connect(replica.addr()).unwrap();
        let slow = rc.get("/debug/slow").unwrap();
        assert_eq!(slow.status, 200);
        if slow.body.contains("dist-rid-7") {
            assert!(slow.body.contains("/fragment/"), "{}", slow.body);
            seen += 1;
        }
    }
    assert!(
        seen >= 1,
        "no replica recorded the coordinator's request id"
    );
    // ...where the fragment traffic is visible on /metrics under the
    // one `/fragment` endpoint label (this query's extent evaluation
    // scatters to every shard, so every replica was touched)
    for replica in &replicas {
        let mut rc = Client::connect(replica.addr()).unwrap();
        let metrics = rc.get("/metrics").unwrap();
        let fragments = metrics
            .body
            .lines()
            .find(|l| {
                l.starts_with("fgcite_requests_total{") && l.contains("endpoint=\"/fragment\"")
            })
            .and_then(|l| l.split_whitespace().last()?.parse::<u64>().ok());
        assert!(
            fragments.is_some_and(|n| n >= 1),
            "replica fragment traffic not counted in:\n{}",
            metrics.body
        );
    }

    // without one, the coordinator assigns a non-empty ID
    let response = client.post("/cite", &cite_body(QUERIES[0])).unwrap();
    assert!(response
        .header("x-request-id")
        .is_some_and(|id| !id.is_empty()));

    // every role speaks /metrics: the coordinator with its replica
    // pool families, the replicas with their shard label
    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    for needle in ["role=\"coordinator\"", "fgcite_replica_calls_total"] {
        assert!(
            metrics.body.contains(needle),
            "missing {needle} in:\n{}",
            metrics.body
        );
    }
    {
        let mut rc = Client::connect(replicas[0].addr()).unwrap();
        let rm = rc.get("/metrics").unwrap();
        assert_eq!(rm.status, 200);
        assert!(rm.body.contains("role=\"replica\""), "{}", rm.body);
        assert!(rm.body.contains("shard=\"0/2\""), "{}", rm.body);
    }

    // the relayed outage 503 carries the request ID in its body (the
    // one body never compared against the reference server)
    let mut replicas: Vec<Option<CiteServer>> = replicas.into_iter().map(Some).collect();
    replicas[1].take().unwrap().shutdown();
    drop(client);
    let mut client = Client::connect(front.addr()).unwrap();
    let outage = client
        .request_with_headers(
            "POST",
            "/cite",
            Some(&cite_body("Q(N) :- Family(F, N, Ty)")),
            &[("x-request-id", "dist-rid-outage")],
        )
        .unwrap();
    assert_eq!(outage.status, 503, "{}", outage.body);
    let parsed = parse_json(&outage.body).unwrap();
    assert_eq!(
        parsed.get("request_id"),
        Some(&Json::str("dist-rid-outage")),
        "{}",
        outage.body
    );

    drop(client);
    front.shutdown();
    for r in replicas.into_iter().flatten() {
        r.shutdown();
    }
}

#[test]
fn coordinator_shutdown_drains_in_flight_requests() {
    let db = paper_instance();
    let (replicas, front) = start_cluster(&db, 2);
    let addr = front.addr();

    // fire a request from another thread, then shut the front end down
    // while it may still be in flight: the drain must let it finish.
    // The worker first completes a /healthz round trip so its
    // keep-alive connection is provably accepted before the shutdown
    // starts racing the /cite request.
    let (accepted_tx, accepted_rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        accepted_tx.send(()).unwrap();
        client
            .post(
                "/cite",
                &cite_body("Q(N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)"),
            )
            .unwrap()
    });
    accepted_rx.recv().unwrap();
    front.shutdown();
    let response = worker.join().expect("request thread");
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(response.body.contains("tuples"), "{}", response.body);

    // the listener is actually gone
    assert!(
        Client::connect(addr).is_err() || {
            let mut c = Client::connect(addr).unwrap();
            c.get("/healthz").is_err()
        }
    );
    for r in replicas {
        r.shutdown();
    }
}
