//! Distributed vs. single-process equivalence — the acceptance bar
//! of the coordinator tier: a coordinator over {1, 2, 4} replicas
//! must answer `POST /cite` with responses **byte-identical** to a
//! single-process `CiteServer` over the same data (modulo the
//! explicitly volatile fields: `elapsed_us` and the cache counters).
//! Each cite costs one replica call, an equal body always reaches the
//! same replica, and answers stay identical with any one replica
//! down; with every replica down the coordinator answers a structured
//! 503 naming the replicas it tried. Replicas that serve a commit
//! history answer `POST /cite_at` through the coordinator the same
//! way, and replicas over different histories are refused at connect.

mod common;

use common::{
    assert_outage, assert_same, cite_body, metric, posts, server_config, start_coordinator,
    start_reference, start_replica, Candidate, Reference, Request, QUERIES,
};
use fgcite::dist::{Coordinator, CoordinatorConfig, DistServer, PoolConfig};
use fgcite::gtopdb::{paper_instance, paper_views};
use fgcite::prelude::VersionedCitationEngine;
use fgcite::relation::Database;
use fgcite::server::{parse_json, CiteServer, Client, ServerConfig};
use fgcite::views::Json;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// A coordinator and its replicas. Fields drop in order: the front
/// door first, so its pooled connections never hold a replica's drain.
struct Cluster {
    front: DistServer,
    replicas: Vec<CiteServer>,
}

/// A coordinator over `n` replicas of `db`.
fn start_cluster(db: &Database, n: usize) -> Cluster {
    let replicas: Vec<CiteServer> = (0..n).map(|_| start_replica(db)).collect();
    let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();
    let pool = PoolConfig::default().with_timeout(Duration::from_secs(5));
    let front = start_coordinator(CoordinatorConfig::new(addrs).with_pool(pool));
    Cluster { front, replicas }
}

/// Coordinators over {1, 2, 4} replicas against the reference.
fn assert_clusters_match(reference: &Reference, db: &Database, requests: &[Request]) {
    let clusters = [1, 2, 4].map(|n| (n, start_cluster(db, n)));
    let fronts: Vec<(String, SocketAddr)> = clusters
        .iter()
        .map(|(n, c)| (format!("coordinator over {n} replicas"), c.front.addr()))
        .collect();
    assert_same(reference, &common::named(&fronts), requests);
}

#[test]
fn coordinator_matches_single_process_on_paper_instance() {
    let reference = Reference::new("paper instance", paper_instance());
    let mut requests = posts(QUERIES);
    requests.extend([
        // the SQL route forwards the same way, refusals included
        Request::Post(
            "/cite_sql",
            r#"{"sql": "SELECT f.FName FROM Family f WHERE f.FID = '11'"}"#.into(),
        ),
        Request::Post(
            "/cite_sql",
            r#"{"query": "SELECT f.FName FROM Family f WHERE f.FID = '11'"}"#.into(),
        ),
        // errors relay byte-identically: unknown relation, bad syntax,
        // an override the wire refuses
        Request::post("Q(X) :- Nope(X)"),
        Request::Post("/cite", "{not json".into()),
        Request::Post(
            "/cite",
            r#"{"query": "Q(N) :- Family(F, N, Ty)", "policy": "maximal"}"#.into(),
        ),
    ]);
    assert_clusters_match(&reference, &paper_instance(), &requests);
}

#[test]
fn coordinator_matches_single_process_on_generated_gtopdb() {
    let db = common::gtopdb(60, common::default_seed());
    let queries = common::workload(&db, 71, 6)
        .iter()
        .map(|q| q.to_string())
        .collect::<Vec<_>>();
    let reference = Reference::new("gtopdb families=60 default seed", db.clone());
    assert_clusters_match(&reference, &db, &posts(&queries));
}

/// Every replica serves the same commit history, so `/cite_at`
/// forwards like `/cite`: a coordinator over two replicas of the paper
/// history answers at the head, at each version id and at a timestamp
/// byte for byte as a single versioned server does, the 400 for an
/// unknown version included.
#[test]
fn coordinator_forwards_cite_at_over_a_history() {
    let serve = |config: ServerConfig| {
        let versioned = VersionedCitationEngine::new(common::paper_history(), paper_views());
        CiteServer::start_versioned(Arc::new(versioned), config).expect("history serves")
    };
    let single = serve(server_config());
    let replicas: Vec<CiteServer> = (0..2)
        .map(|_| serve(server_config().with_role("replica")))
        .collect();
    let addrs = replicas.iter().map(CiteServer::addr).collect();
    let front = start_coordinator(CoordinatorConfig::new(addrs));
    let selectors = ["", r#""version": 0"#, r#""version": 1"#, r#""at": 250"#];
    let mut requests = Vec::new();
    for query in QUERIES {
        let body = cite_body(query);
        for selector in selectors {
            let body = match selector {
                "" => body.clone(),
                _ => format!("{}, {selector}}}", body.trim_end_matches('}')),
            };
            requests.push(Request::Post("/cite_at", body));
        }
    }
    let unknown = r#"{"query": "Q(N) :- Family(F, N, Ty)", "version": 9}"#;
    requests.push(Request::Post("/cite_at", unknown.into()));
    for request in &requests {
        let expected = single.addr().answer(request);
        assert_eq!(front.addr().answer(request), expected, "{request}");
    }
    assert!(single.addr().answer(&requests[1]).contains("\"v23\""));
    let last = single.addr().answer(requests.last().unwrap());
    assert!(last.starts_with("400 "), "{last}");
    let forwarded = front.stats().cite_at.requests();
    assert_eq!(forwarded, requests.len() as u64);
    assert_eq!(healthz_versions(front.addr()), 3);
}

/// The `versions` count on `GET /healthz` at `addr`.
fn healthz_versions(addr: SocketAddr) -> i64 {
    let health = Client::connect(addr).unwrap().get("/healthz").unwrap();
    match parse_json(&health.body).unwrap().get("versions") {
        Some(Json::Int(n)) => *n,
        other => panic!("no versions count ({other:?}) in {}", health.body),
    }
}

/// `connect` refuses replicas over different commit histories: one
/// `/cite_at` version would name a different snapshot on each.
#[test]
fn connect_refuses_replicas_over_different_histories() {
    let plain = start_replica(&paper_instance());
    let history = VersionedCitationEngine::new(common::paper_history(), paper_views());
    let config = server_config().with_role("replica");
    let versioned = CiteServer::start_versioned(Arc::new(history), config).expect("history serves");
    let listed = vec![plain.addr(), versioned.addr()];
    let err = Coordinator::connect(CoordinatorConfig::new(listed)).unwrap_err();
    assert!(err.contains(&versioned.addr().to_string()), "{err}");
    assert!(err.contains("different commit history"), "{err}");
    let front = start_coordinator(CoordinatorConfig::new(vec![plain.addr()]));
    assert_eq!(healthz_versions(front.addr()), 1);
}

/// The `calls` of every replica in the coordinator's `/stats`.
fn replica_calls(client: &mut Client) -> Vec<i64> {
    let stats = client.get("/stats").unwrap();
    let parsed = parse_json(&stats.body).unwrap();
    let Some(Json::Array(slots)) = parsed.get("replicas") else {
        panic!("no replicas block in {}", stats.body);
    };
    slots
        .iter()
        .map(|slot| match slot.get("calls") {
            Some(Json::Int(n)) => *n,
            other => panic!("no calls count ({other:?}) in {}", stats.body),
        })
        .collect()
}

/// POST `body` to the coordinator; the per-replica change in `calls`.
fn calls_for(client: &mut Client, body: &str) -> Vec<i64> {
    let before = replica_calls(client);
    let response = client.post("/cite", body).unwrap();
    assert_eq!(response.status, 200, "{body}: {}", response.body);
    let after = replica_calls(client);
    after.iter().zip(&before).map(|(a, b)| a - b).collect()
}

/// A citation is one replica call in total, whatever the query: the
/// whole cite rides to one replica.
#[test]
fn one_replica_call_per_cite() {
    let db = paper_instance();
    for n in [2, 4] {
        let cluster = start_cluster(&db, n);
        let mut client = Client::connect(cluster.front.addr()).unwrap();
        for query in QUERIES {
            let calls = calls_for(&mut client, &cite_body(query));
            assert_eq!(calls.iter().sum::<i64>(), 1, "{query} over {n}: {calls:?}");
        }
    }
}

/// An equal body reaches the same replica every time, so each
/// replica's caches see a stable slice of the traffic, and distinct
/// bodies spread over the replicas.
#[test]
fn equal_bodies_reach_the_same_replica() {
    let db = paper_instance();
    let cluster = start_cluster(&db, 4);
    let mut client = Client::connect(cluster.front.addr()).unwrap();
    let mut used = std::collections::BTreeSet::new();
    for query in QUERIES {
        let body = cite_body(query);
        let first = calls_for(&mut client, &body);
        let again = calls_for(&mut client, &body);
        assert_eq!(first, again, "{query}");
        used.insert(first.iter().position(|&c| c == 1).unwrap());
    }
    assert!(used.len() > 1, "every body reached one replica: {used:?}");
}

/// Any replica serves any cite — each is a twin of every other — so
/// with any one of them down every answer is still byte-identical.
#[test]
fn failover_to_twin_is_byte_identical() {
    let db = paper_instance();
    let reference = Reference::new("paper instance", db.clone());
    let requests = posts(QUERIES);
    for dead in 0..3 {
        let mut cluster = start_cluster(&db, 3);
        cluster.replicas.remove(dead).shutdown();
        let name = format!("replica {dead} of 3 down");
        assert_same(&reference, &[(&name, &cluster.front.addr())], &requests);

        // some body hashed to the dead replica first and failed over:
        // it surfaces in the coordinator's replica stats
        let stats = Client::connect(cluster.front.addr())
            .unwrap()
            .get("/stats")
            .unwrap();
        let parsed = parse_json(&stats.body).unwrap();
        let Some(Json::Array(slots)) = parsed.get("replicas") else {
            panic!("no replicas block in {}", stats.body);
        };
        let failed = matches!(slots[dead].get("failures"), Some(Json::Int(n)) if *n > 0);
        assert!(failed, "{name}: no recorded failure in {}", stats.body);
    }
}

/// A POST of raw body bytes on a fresh connection.
fn post_raw(addr: SocketAddr, body: &[u8]) -> fgcite::server::ClientResponse {
    let mut raw = format!(
        "POST /cite HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    Client::connect(addr).unwrap().send_raw(&raw).unwrap()
}

#[test]
fn exhausted_replicas_answer_structured_503() {
    let db = paper_instance();
    let mut cluster = start_cluster(&db, 2);
    for replica in cluster.replicas.drain(..) {
        replica.shutdown();
    }

    // connect only after the kill: the drain above can outlast the
    // front end's idle keep-alive timeout
    let mut client = Client::connect(cluster.front.addr()).unwrap();
    // a structured 503 naming every replica tried
    let all = cite_body("Q(N) :- Family(F, N, Ty)");
    let parsed = assert_outage(&client.post("/cite", &all).unwrap());
    let Some(Json::Array(tried)) = parsed.get("replicas_tried") else {
        panic!("no replicas_tried in {parsed}");
    };
    assert_eq!(tried.len(), 2, "{parsed}");
    assert!(parsed.get("shard").is_none(), "{parsed}");

    // a second attempt keeps answering 503 (the opened circuit fails
    // fast instead of hanging), and the structure is intact
    assert_outage(&client.post("/cite", &all).unwrap());

    // the front end itself stays healthy: health, the cached views and
    // the 400s it answers itself never touch a replica
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    let views = client.get("/views").unwrap();
    let reference = start_reference(&db);
    let expected = Client::connect(reference.addr())
        .unwrap()
        .get("/views")
        .unwrap();
    assert_eq!((views.status, views.body), (200, expected.body));
    let not_utf8 = post_raw(cluster.front.addr(), b"\xff\xfe");
    let single = post_raw(reference.addr(), b"\xff\xfe");
    assert_eq!((not_utf8.status, &not_utf8.body), (400, &single.body));
    let garbage = client.send_raw(b"echo hello world\r\n\r\n").unwrap();
    assert_eq!(garbage.status, 400, "{}", garbage.body);
}

/// `connect` refuses a coordinator listed as a replica: forwarding to
/// it would loop.
#[test]
fn connect_refuses_a_coordinator_listed_as_a_replica() {
    let db = paper_instance();
    let cluster = start_cluster(&db, 1);
    let listed = vec![cluster.replicas[0].addr(), cluster.front.addr()];
    let err = Coordinator::connect(CoordinatorConfig::new(listed)).unwrap_err();
    assert!(err.contains(&cluster.front.addr().to_string()), "{err}");
    assert!(err.contains("coordinator"), "{err}");
}

/// The request ID honored (or assigned) at the coordinator's front
/// door rides the `x-request-id` header onto the replica's own `/cite`
/// entry, every role answers `GET /metrics`, and the outage 503 — the
/// one body never reference-compared — names the request that hit it.
#[test]
fn request_ids_propagate_coordinator_to_replicas() {
    let db = paper_instance();
    let mut cluster = start_cluster(&db, 2);
    let mut client = Client::connect(cluster.front.addr()).unwrap();

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

    // ...and lands on the `/cite` entry of the one replica that served
    // it, which counts it on /metrics under its own role
    let mut seen = 0;
    for replica in &cluster.replicas {
        let mut rc = Client::connect(replica.addr()).unwrap();
        let slow = rc.get("/debug/slow").unwrap();
        assert_eq!(slow.status, 200);
        if slow.body.contains("dist-rid-7") {
            assert!(slow.body.contains("\"/cite\""), "{}", slow.body);
            let metrics = rc.get("/metrics").unwrap();
            let cites = metric(
                &metrics.body,
                "fgcite_requests_total{",
                "role=\"replica\",endpoint=\"/cite\"",
            );
            assert_eq!(cites, 1, "{}", metrics.body);
            seen += 1;
        }
    }
    assert_eq!(seen, 1, "one replica records the coordinator's request id");

    // without one, the coordinator assigns a non-empty ID
    let response = client.post("/cite", &cite_body(QUERIES[0])).unwrap();
    assert!(response
        .header("x-request-id")
        .is_some_and(|id| !id.is_empty()));

    // the coordinator speaks /metrics with its replica pool families
    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    for needle in ["role=\"coordinator\"", "fgcite_replica_calls_total"] {
        assert!(
            metrics.body.contains(needle),
            "missing {needle} in:\n{}",
            metrics.body
        );
    }

    // the outage 503 carries the request ID in its body (the one body
    // never compared against the reference server)
    drop(client);
    for replica in cluster.replicas.drain(..) {
        replica.shutdown();
    }
    let mut client = Client::connect(cluster.front.addr()).unwrap();
    let outage = client
        .request_with_headers(
            "POST",
            "/cite",
            Some(&cite_body("Q(N) :- Family(F, N, Ty)")),
            &[("x-request-id", "dist-rid-outage")],
        )
        .unwrap();
    let parsed = assert_outage(&outage);
    assert_eq!(
        parsed.get("request_id"),
        Some(&Json::str("dist-rid-outage")),
        "{}",
        outage.body
    );
}

#[test]
fn coordinator_shutdown_drains_in_flight_requests() {
    let db = paper_instance();
    let Cluster {
        front,
        replicas: _replicas,
    } = start_cluster(&db, 2);
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
}
