//! Chaos-tested distribution — the acceptance bar of the fault plane's
//! network layer: a coordinator whose replicas sit behind an
//! in-process chaos proxy (connection resets, garbage and truncated
//! responses, stalled reads) must either answer **byte-identical** to
//! the healthy reference or fail *structurally* — a 503 naming the
//! replicas it tried or a 504 when the end-to-end deadline ran out — and no
//! request may ever hang past its budget. The deterministic
//! `fgc_fault` plane's `dist.pool.send` hook and the deadline /
//! header-timeout / response-cap hardening ride the same fleet.

mod common;

use common::{
    assert_outage, assert_same, cite_body, posts, start_coordinator, start_reference,
    start_replica, Reference, Request, QUERIES,
};
use fgcite::dist::{CoordinatorConfig, DistServer, PoolConfig};
use fgcite::gtopdb::{paper_instance, paper_views};
use fgcite::server::{parse_json, CiteServer, Client};
use fgcite::views::Json;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Chaos tuning small enough that every failure mode resolves in
/// single-digit seconds: short read timeouts, tight backoff, a fast
/// circuit cooldown so healing tests don't wait out the default.
fn chaos_pool() -> PoolConfig {
    PoolConfig {
        timeout: Duration::from_secs(1),
        attempts: 2,
        backoff: Duration::from_millis(10),
        failure_threshold: 3,
        cooldown: Duration::from_millis(100),
    }
}

fn start_front(addrs: Vec<SocketAddr>) -> DistServer {
    start_coordinator(CoordinatorConfig::new(addrs).with_pool(chaos_pool()))
}

// ---------------------------------------------------------------------------
// The chaos proxy
// ---------------------------------------------------------------------------

/// Failure mode applied on the replica→coordinator response path. The
/// mode is consulted per forwarded chunk, not per connection, so
/// flipping it also poisons connections the pool opened earlier while
/// the proxy was healthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chaos {
    /// Forward bytes untouched.
    Passthrough,
    /// Drop connections: new ones at accept, pooled ones mid-response.
    Reset,
    /// Replace the response with bytes that are not HTTP.
    Garbage,
    /// Forward only this many response bytes, then close.
    TruncateAfter(usize),
    /// Hold every response byte until the mode changes (bounded at
    /// 10 s so a wedged test still unwinds).
    Stall,
}

/// In-process TCP proxy in front of one replica. Requests always pass
/// through unmodified; the configured [`Chaos`] applies to responses.
struct ChaosProxy {
    addr: SocketAddr,
    mode: Arc<Mutex<Chaos>>,
    stop: Arc<AtomicBool>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl ChaosProxy {
    fn start(upstream: SocketAddr) -> ChaosProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("proxy binds");
        let addr = listener.local_addr().unwrap();
        let mode = Arc::new(Mutex::new(Chaos::Passthrough));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let mode = Arc::clone(&mode);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(client) = conn else { continue };
                    if *mode.lock().unwrap() == Chaos::Reset {
                        // dropping the accepted socket resets the caller
                        continue;
                    }
                    let Ok(server) = TcpStream::connect(upstream) else {
                        continue;
                    };
                    let (c_read, s_write) = (
                        client.try_clone().expect("clone client"),
                        server.try_clone().expect("clone server"),
                    );
                    thread::spawn(move || copy_requests(c_read, s_write));
                    let mode = Arc::clone(&mode);
                    thread::spawn(move || copy_responses(server, client, mode));
                }
            })
        };
        ChaosProxy {
            addr,
            mode,
            stop,
            acceptor: Some(acceptor),
        }
    }

    fn set(&self, chaos: Chaos) {
        *self.mode.lock().unwrap() = chaos;
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // wake the acceptor so it observes the stop flag
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

/// Coordinator→replica direction: always a faithful copy.
fn copy_requests(mut from: TcpStream, mut to: TcpStream) {
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

/// Replica→coordinator direction: the chaos mode is applied to every
/// chunk right before it would be forwarded.
fn copy_responses(mut from: TcpStream, mut to: TcpStream, mode: Arc<Mutex<Chaos>>) {
    let mut buf = [0u8; 4096];
    let mut forwarded = 0usize;
    'outer: loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        // copy the mode out before matching: the scrutinee's
        // MutexGuard would otherwise live for the whole match,
        // deadlocking the re-lock inside the Stall arm
        let current = *mode.lock().unwrap();
        match current {
            Chaos::Passthrough => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
                forwarded += n;
            }
            Chaos::Reset => break,
            Chaos::Garbage => {
                let _ = to.write_all(b"\x00\x01this is not http\r\n\r\n");
                break;
            }
            Chaos::TruncateAfter(limit) => {
                let allow = limit.saturating_sub(forwarded).min(n);
                if allow > 0 {
                    let _ = to.write_all(&buf[..allow]);
                }
                break;
            }
            Chaos::Stall => {
                let start = Instant::now();
                loop {
                    thread::sleep(Duration::from_millis(25));
                    let now = *mode.lock().unwrap();
                    if now != Chaos::Stall {
                        if now == Chaos::Passthrough && to.write_all(&buf[..n]).is_ok() {
                            forwarded += n;
                            continue 'outer;
                        }
                        break 'outer;
                    }
                    if start.elapsed() > Duration::from_secs(10) {
                        break 'outer;
                    }
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// Connection resets on one replica (including connections the pool
/// already holds) fail over to its twin — any other replica — with
/// answers byte-identical to the single-process reference.
#[test]
fn resets_fail_over_to_twin_byte_identically() {
    let db = paper_instance();
    let primary = start_replica(&db);
    let twin = start_replica(&db);
    let proxy = ChaosProxy::start(primary.addr());
    let front = start_front(vec![proxy.addr, twin.addr()]);
    let reference = Reference::new("paper instance", db);
    let requests = posts(QUERIES);

    // healthy baseline: the proxied cluster matches the reference
    assert_same(&reference, &[("healthy", &front.addr())], &requests);

    // now every primary connection resets; the twin must keep every
    // answer intact, still byte-identical to the reference, and the
    // whole failed-over mix stays bounded
    proxy.set(Chaos::Reset);
    let start = Instant::now();
    assert_same(
        &reference,
        &[("primary resetting", &front.addr())],
        &requests,
    );
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "failover took {elapsed:?}"
    );
    // some body hashed to the resetting replica first
    let stats = Client::connect(front.addr())
        .unwrap()
        .get("/stats")
        .unwrap();
    let parsed = parse_json(&stats.body).unwrap();
    let Some(Json::Array(slots)) = parsed.get("replicas") else {
        panic!("no replicas block in {}", stats.body);
    };
    let failed = matches!(slots[0].get("failures"), Some(Json::Int(n)) if *n > 0);
    assert!(failed, "no failover recorded in {}", stats.body);
}

/// Garbage and truncated responses from the only replica produce the
/// structured 503 in bounded time — never a hang, never a mangled
/// 200 — and the cluster heals once the proxy behaves again.
#[test]
fn garbage_and_truncation_yield_structured_503_then_heal() {
    let db = paper_instance();
    let replica = start_replica(&db);
    let proxy = ChaosProxy::start(replica.addr());
    let front = start_front(vec![proxy.addr]);
    let reference = Reference::new("paper instance", db);
    let requests = [Request::post(QUERIES[0])];
    let mut client = Client::connect(front.addr()).unwrap();
    let body = cite_body(QUERIES[0]);

    for chaos in [Chaos::Garbage, Chaos::TruncateAfter(20)] {
        proxy.set(chaos);
        let start = Instant::now();
        let outage = client.post("/cite", &body).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "{chaos:?} took {:?}",
            start.elapsed()
        );
        assert_outage(&outage);

        // while degraded, the coordinator's health check says so
        let health = client.get("/healthz").unwrap();
        if health.body.contains("\"degraded\": true") {
            assert!(
                health.body.contains("circuit open"),
                "degraded healthz names no cause: {}",
                health.body
            );
        }

        // heal: wait out the circuit cooldown, then demand the exact
        // reference answer again
        proxy.set(Chaos::Passthrough);
        thread::sleep(Duration::from_millis(300));
        let healed = format!("healed after {chaos:?}");
        assert_same(&reference, &[(&healed, &front.addr())], &requests);
    }
}

/// A stalled replica is bounded twice over: with an `x-deadline-ms`
/// budget the coordinator clamps its read timeout to the remaining
/// budget and answers a structured 504; without one the pool's own
/// read timeout converts the stall into the structured 503.
#[test]
fn stalled_replica_is_bounded_by_deadline_and_timeout() {
    let db = paper_instance();
    let replica = start_replica(&db);
    let proxy = ChaosProxy::start(replica.addr());
    let front = start_front(vec![proxy.addr]);
    let mut client = Client::connect(front.addr()).unwrap();
    let body = cite_body(QUERIES[0]);

    proxy.set(Chaos::Stall);

    // with a 600 ms budget: 504 at roughly the deadline, not the pool
    // timeout ladder
    let start = Instant::now();
    let timed_out = client
        .request_with_headers(
            "POST",
            "/cite",
            Some(&body),
            &[("x-deadline-ms", "600"), ("x-request-id", "stall-504")],
        )
        .unwrap();
    let elapsed = start.elapsed();
    assert_eq!(timed_out.status, 504, "{}", timed_out.body);
    assert!(
        elapsed >= Duration::from_millis(500) && elapsed < Duration::from_secs(5),
        "504 landed after {elapsed:?}"
    );
    let parsed = parse_json(&timed_out.body).unwrap();
    assert!(
        matches!(parsed.get("error"), Some(Json::Str(m)) if m.contains("deadline")),
        "{}",
        timed_out.body
    );
    assert_eq!(
        parsed.get("request_id"),
        Some(&Json::str("stall-504")),
        "{}",
        timed_out.body
    );

    // the 504 shows up on the coordinator's metrics
    let metrics = client.get("/metrics").unwrap();
    assert!(
        metrics.body.contains("fgcite_deadline_exceeded_total"),
        "{}",
        metrics.body
    );

    // without a deadline header: the pool read timeout bounds the
    // stall and the outage is the structured 503
    let start = Instant::now();
    let outage = client.post("/cite", &body).unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "undeadlined stall took {:?}",
        start.elapsed()
    );
    assert_outage(&outage);
    proxy.set(Chaos::Passthrough);
}

/// A spent budget at the front door — `x-deadline-ms: 0` — is answered
/// 504 before any engine or replica work, on the single server and the
/// coordinator alike, and the counter is visible on `/metrics`.
#[test]
fn zero_deadline_is_rejected_at_both_front_doors() {
    let db = paper_instance();
    let reference = start_reference(&db);
    let replica = start_replica(&db);
    let front = start_front(vec![replica.addr()]);
    let body = cite_body(QUERIES[0]);

    for addr in [reference.addr(), front.addr()] {
        let mut client = Client::connect(addr).unwrap();
        let spent = client
            .request_with_headers("POST", "/cite", Some(&body), &[("x-deadline-ms", "0")])
            .unwrap();
        assert_eq!(spent.status, 504, "{}", spent.body);
        assert!(spent.body.contains("deadline"), "{}", spent.body);

        let metrics = client.get("/metrics").unwrap();
        let counted = common::metric(&metrics.body, "fgcite_deadline_exceeded_total", "");
        assert!(
            counted >= 1,
            "no nonzero deadline counter in:\n{}",
            metrics.body
        );

        // a sane budget on the same connection still serves
        let fine = client
            .request_with_headers("POST", "/cite", Some(&body), &[("x-deadline-ms", "30000")])
            .unwrap();
        assert_eq!(fine.status, 200, "{}", fine.body);
    }

    // `/cite_at` sits inside the same deadline plane: a spent budget
    // is refused before any version is resolved or engine rebuilt
    let mut history = fgcite::relation::VersionedDatabase::new();
    history.commit(paper_instance(), 100, "v23").unwrap();
    let versioned = Arc::new(fgcite::engine::VersionedCitationEngine::new(
        history,
        paper_views(),
    ));
    let server = CiteServer::start_versioned(Arc::clone(&versioned), common::server_config())
        .expect("versioned server starts");
    let mut client = Client::connect(server.addr()).unwrap();
    let touches = || {
        let stats = versioned.version_stats();
        (stats.hits, stats.derived, stats.rebuilt)
    };
    let before = touches();
    let spent = client
        .request_with_headers("POST", "/cite_at", Some(&body), &[("x-deadline-ms", "0")])
        .unwrap();
    assert_eq!(spent.status, 504, "{}", spent.body);
    assert!(spent.body.contains("deadline"), "{}", spent.body);
    assert_eq!(
        touches(),
        before,
        "a spent budget must not reach the versioned engine"
    );
    assert_eq!(
        server.stats().deadline_exceeded.load(Ordering::Relaxed),
        1,
        "one 504, one increment"
    );
    let fine = client.post("/cite_at", &body).unwrap();
    assert_eq!(fine.status, 200, "{}", fine.body);
}

/// A client that dribbles header bytes slower than the server's header
/// deadline gets a 408, not a held worker.
#[test]
fn slow_header_drip_is_answered_408() {
    let engine = common::engine(paper_instance());
    let config = common::server_config().with_header_read_timeout(Duration::from_millis(200));
    let server = CiteServer::start(Arc::new(engine), config).expect("server starts");
    let text = common::drip_header(server.addr());
    assert!(
        text.starts_with("HTTP/1.1 408"),
        "expected a 408, got: {text:?}"
    );

    // the worker is free again: a well-behaved request on a fresh
    // connection still serves
    let mut client = Client::connect(server.addr()).unwrap();
    let fine = client.post("/cite", &cite_body(QUERIES[0])).unwrap();
    assert_eq!(fine.status, 200, "{}", fine.body);
}

/// The client refuses to buffer a response whose declared
/// Content-Length exceeds its cap — before allocating anything.
#[test]
fn client_refuses_oversized_content_length() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let liar = thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        // take the whole request head before answering: closing with
        // unread bytes would reset the connection under the client
        let mut head = Vec::new();
        let mut buf = [0u8; 1024];
        while !head.ends_with(b"\r\n\r\n") {
            match s.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => head.extend_from_slice(&buf[..n]),
            }
        }
        let _ = s.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 109951162777600\r\n\r\n");
    });

    let mut client = Client::connect(addr).unwrap();
    client.set_read_timeout(Duration::from_secs(5)).unwrap();
    let err = client.get("/healthz").expect_err("cap must reject");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("client cap"), "{err}");
    liar.join().unwrap();
}

/// The deterministic plane's `dist.pool.send` hook: an armed one-shot
/// error is absorbed by the pool's retry, and the injection shows up
/// in the per-point Prometheus families on the coordinator's
/// `/metrics` — which read the same global plane.
#[test]
fn injected_pool_fault_is_retried_and_counted() {
    let db = paper_instance();
    let replica = start_replica(&db);
    let front = start_front(vec![replica.addr()]);
    let mut client = Client::connect(front.addr()).unwrap();

    let plane = fgcite::fault::global();
    plane.arm(
        "dist.pool.send",
        fgcite::fault::FaultAction::Error,
        fgcite::fault::Trigger::Nth(1),
    );
    // the injected first attempt fails; the retry answers anyway
    let served = client.post("/cite", &cite_body(QUERIES[0])).unwrap();
    plane.disarm("dist.pool.send");
    assert_eq!(served.status, 200, "{}", served.body);

    let metrics = client.get("/metrics").unwrap();
    for needle in [
        "fgcite_fault_point_hits_total",
        "fgcite_fault_point_injected_total",
        "point=\"dist.pool.send\"",
    ] {
        assert!(
            metrics.body.contains(needle),
            "missing {needle} in:\n{}",
            metrics.body
        );
    }
}
