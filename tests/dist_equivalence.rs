//! Distributed vs. single-process equivalence — the acceptance bar
//! of the scatter/gather tier: a coordinator over {1, 2, 4} shard
//! replicas must answer `POST /cite` with responses **byte-identical**
//! to a single-process `CiteServer` over the same data (modulo the
//! explicitly volatile fields: `elapsed_us` and the cache counters).
//! That must survive the failure of one replica whose shard has a
//! configured twin; without a twin the coordinator must answer a
//! structured 503 naming the dead shard and the replicas it tried.

mod common;

use common::{
    assert_outage, assert_same, cite_body, metric, posts, start_coordinator, start_replica,
    Reference, Request, QUERIES,
};
use fgcite::dist::{CoordinatorConfig, DistServer, PoolConfig};
use fgcite::gtopdb::paper_instance;
use fgcite::relation::Database;
use fgcite::server::{parse_json, CiteServer, Client};
use fgcite::views::Json;
use std::net::SocketAddr;
use std::time::Duration;

/// A coordinator and its replicas. Fields drop in order: the front
/// door first, so its pooled connections never hold a replica's drain.
struct Cluster {
    front: DistServer,
    replicas: Vec<CiteServer>,
}

/// A coordinator over `shards` replicas of `db`.
fn start_cluster(db: &Database, shards: usize) -> Cluster {
    let replicas: Vec<CiteServer> = (0..shards).map(|i| start_replica(db, i, shards)).collect();
    let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();
    let pool = PoolConfig::default().with_timeout(Duration::from_secs(5));
    let front = start_coordinator(CoordinatorConfig::new(addrs).with_pool(pool));
    Cluster { front, replicas }
}

/// Coordinators over {1, 2, 4} shards against the reference.
fn assert_clusters_match(reference: &Reference, db: &Database, requests: &[Request]) {
    let clusters = [1, 2, 4].map(|n| (n, start_cluster(db, n)));
    let fronts: Vec<(String, SocketAddr)> = clusters
        .iter()
        .map(|(n, c)| (format!("coordinator over {n} shards"), c.front.addr()))
        .collect();
    assert_same(reference, &common::named(&fronts), requests);
}

#[test]
fn coordinator_matches_single_process_on_paper_instance() {
    let reference = Reference::new("paper instance", paper_instance());
    let mut requests = posts(QUERIES);
    requests.extend([
        // the SQL route shares the scatter path
        Request::Post(
            "/cite_sql",
            r#"{"query": "SELECT f.FName FROM Family f WHERE f.FID = '11'"}"#.into(),
        ),
        // errors relay byte-identically: unknown relation, bad syntax
        Request::post("Q(X) :- Nope(X)"),
        Request::Post("/cite", "{not json".into()),
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

#[test]
fn failover_to_twin_is_byte_identical() {
    let db = paper_instance();
    let shards = 2;
    let mut replicas: Vec<CiteServer> =
        (0..shards).map(|i| start_replica(&db, i, shards)).collect();
    // shard 0 gets a twin — an identical replica owning the same shard
    let twin = start_replica(&db, 0, shards);
    let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();
    let front = start_coordinator(
        CoordinatorConfig::new(addrs)
            .with_twins(vec![Some(twin.addr()), None])
            .with_pool(PoolConfig::default().with_timeout(Duration::from_secs(2))),
    );
    let reference = Reference::new("paper instance", db);
    let requests = posts(QUERIES);
    assert_same(&reference, &[("all replicas up", &front.addr())], &requests);

    // kill shard 0's primary; the twin must keep every answer intact
    replicas.remove(0).shutdown();
    assert_same(
        &reference,
        &[("twin serving shard 0", &front.addr())],
        &requests,
    );

    // the dead primary surfaces in the coordinator's replica stats
    let stats = Client::connect(front.addr())
        .unwrap()
        .get("/stats")
        .unwrap();
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
}

#[test]
fn exhausted_shard_answers_structured_503() {
    let db = paper_instance();
    let shards = 2;
    let mut cluster = start_cluster(&db, shards);

    // kill shard 1's only replica (no twin configured): citations
    // need every shard — answer fragments may prune, but extent
    // queries always fan out — so cites must fail *loudly*
    let dead_shard = 1;
    cluster.replicas.remove(dead_shard).shutdown();

    // connect only after the kill: the drain above can outlast the
    // front end's idle keep-alive timeout
    let mut client = Client::connect(cluster.front.addr()).unwrap();
    // a structured 503 naming the dead shard and the replicas tried
    let all = cite_body("Q(N) :- Family(F, N, Ty)");
    assert_outage(&client.post("/cite", &all).unwrap(), dead_shard);

    // a second attempt keeps answering 503 (the opened circuit fails
    // fast instead of hanging), and the structure is intact
    assert_outage(&client.post("/cite", &all).unwrap(), dead_shard);

    // the front end itself stays healthy: control-plane routes and
    // request validation never touch the dead shard
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    assert_eq!(client.get("/views").unwrap().status, 200);
    let malformed = client.post("/cite", "{not json").unwrap();
    assert_eq!(malformed.status, 400, "{}", malformed.body);
}

/// The request ID honored (or assigned) at the coordinator's front
/// door rides the `x-request-id` header onto every replica-side
/// `/fragment/*` call, every role answers `GET /metrics`, and the
/// outage 503 — the one body never reference-compared — names the
/// request that hit it.
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

    // ...and lands replica-side on the fragment calls it fanned out
    let mut seen = 0;
    for replica in &cluster.replicas {
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
    for replica in &cluster.replicas {
        let mut rc = Client::connect(replica.addr()).unwrap();
        let metrics = rc.get("/metrics").unwrap();
        let fragments = metric(
            &metrics.body,
            "fgcite_requests_total{",
            "endpoint=\"/fragment\"",
        );
        assert!(
            fragments >= 1,
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
        let mut rc = Client::connect(cluster.replicas[0].addr()).unwrap();
        let rm = rc.get("/metrics").unwrap();
        assert_eq!(rm.status, 200);
        assert!(rm.body.contains("role=\"replica\""), "{}", rm.body);
        assert!(rm.body.contains("shard=\"0/2\""), "{}", rm.body);
    }

    // the relayed outage 503 carries the request ID in its body (the
    // one body never compared against the reference server)
    drop(client);
    cluster.replicas.remove(1).shutdown();
    let mut client = Client::connect(cluster.front.addr()).unwrap();
    let outage = client
        .request_with_headers(
            "POST",
            "/cite",
            Some(&cite_body("Q(N) :- Family(F, N, Ty)")),
            &[("x-request-id", "dist-rid-outage")],
        )
        .unwrap();
    let parsed = assert_outage(&outage, 1);
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
