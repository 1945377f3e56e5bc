//! An in-process HTTP load generator for the serving benchmark
//! (E10), modelled on crud-bench's closed/open-loop split:
//!
//! * **closed loop** — `clients` connections, each issuing its next
//!   request the moment the previous response lands. Measures peak
//!   sustainable throughput; latency excludes think time.
//! * **open loop** — requests *depart on a fixed schedule* (`rate`
//!   per second) regardless of how fast responses return, issued by a
//!   pool of `clients` connections. Latency is measured from the
//!   **scheduled departure**, not the actual send, so queueing delay
//!   under overload is charged to the server — the
//!   coordinated-omission-free measurement.
//!
//! Both loops drive the real `fgc-server` HTTP path end to end
//! (TCP, framing, JSON decode, batching admission, `cite_batch`),
//! not the engine API.

use fgc_obs::Histogram;
use fgc_server::Client;
use fgc_views::Json;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How requests are generated.
#[derive(Debug, Clone, Copy)]
pub enum LoadMode {
    /// Each client fires its next request when the previous response
    /// arrives; `requests_per_client` requests per connection.
    Closed {
        /// Requests each client issues.
        requests_per_client: usize,
    },
    /// `total` requests depart at `rate` per second, spread over the
    /// client pool.
    Open {
        /// Scheduled departures per second.
        rate: f64,
        /// Total requests in the run.
        total: usize,
    },
}

/// A load-generation run description.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Concurrent connections.
    pub clients: usize,
    /// Closed or open loop.
    pub mode: LoadMode,
}

/// The measured outcome of one run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests issued.
    pub sent: usize,
    /// 200 responses.
    pub ok: usize,
    /// Non-200 responses plus transport failures.
    pub errors: usize,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Per-request latency, microseconds, log-bucketed. Client
    /// threads record into it lock-free (no per-sample `Vec` and no
    /// merge/sort pass), the same structure the server reports from.
    pub latency: Histogram,
}

impl LoadReport {
    /// Served requests per second over the run.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.sent as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// The `p`-th percentile latency out of the log-bucketed
    /// histogram (within 2× of the exact order statistic). `p` is
    /// clamped to `[0, 100]` (so `p < 0` is the minimum bucket and
    /// `p > 100` the maximum) and a NaN argument returns
    /// `Duration::ZERO` — a bad percentile must never pick a garbage
    /// rank.
    pub fn percentile(&self, p: f64) -> Duration {
        if p.is_nan() {
            return Duration::ZERO;
        }
        Duration::from_micros(self.latency.snapshot().quantile(p / 100.0))
    }
}

/// Run one load generation pass against a served address. `bodies`
/// are the JSON payloads POSTed to `path`, cycled per request.
pub fn run_load(
    addr: SocketAddr,
    path: &str,
    bodies: &[String],
    config: &LoadConfig,
) -> std::io::Result<LoadReport> {
    assert!(!bodies.is_empty(), "need at least one request body");
    let clients = config.clients.max(1);
    let started = Instant::now();
    let results: Mutex<(usize, usize)> = Mutex::new((0, 0));
    // client threads record wait-free into the shared histogram
    let latency = Histogram::new();
    // open-loop departure cursor, shared by the pool
    let next_departure = AtomicUsize::new(0);

    std::thread::scope(|scope| -> std::io::Result<()> {
        let mut handles = Vec::new();
        for c in 0..clients {
            let results = &results;
            let latency = &latency;
            let next_departure = &next_departure;
            handles.push(scope.spawn(move || -> std::io::Result<()> {
                let mut client = Client::connect(addr)?;
                let mut local: (usize, usize) = (0, 0);
                match config.mode {
                    LoadMode::Closed {
                        requests_per_client,
                    } => {
                        for r in 0..requests_per_client {
                            let body = &bodies[(c * requests_per_client + r) % bodies.len()];
                            let t0 = Instant::now();
                            match client.post(path, body) {
                                Ok(response) if response.status == 200 => local.0 += 1,
                                Ok(_) | Err(_) => local.1 += 1,
                            }
                            latency.record_micros(t0.elapsed());
                        }
                    }
                    LoadMode::Open { rate, total } => {
                        let interval = Duration::from_secs_f64(1.0 / rate.max(1e-6));
                        loop {
                            let i = next_departure.fetch_add(1, Ordering::Relaxed);
                            if i >= total {
                                break;
                            }
                            let departure = started + interval.mul_f64(i as f64);
                            if let Some(wait) = departure.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            match client.post(path, &bodies[i % bodies.len()]) {
                                Ok(response) if response.status == 200 => local.0 += 1,
                                Ok(_) | Err(_) => local.1 += 1,
                            }
                            // latency from *scheduled* departure
                            latency.record_micros(departure.elapsed());
                        }
                    }
                }
                let mut merged = results.lock().expect("results lock");
                merged.0 += local.0;
                merged.1 += local.1;
                Ok(())
            }));
        }
        for handle in handles {
            handle.join().expect("load client thread panicked")?;
        }
        Ok(())
    })?;

    let elapsed = started.elapsed();
    let (ok, errors) = results.into_inner().expect("results lock");
    Ok(LoadReport {
        sent: ok + errors,
        ok,
        errors,
        elapsed,
        latency,
    })
}

/// Render Datalog queries as `POST /cite` JSON bodies.
pub fn cite_bodies<I>(queries: I) -> Vec<String>
where
    I: IntoIterator,
    I::Item: std::fmt::Display,
{
    queries
        .into_iter()
        .map(|q| Json::from_pairs([("query", Json::str(q.to_string()))]).to_compact())
        .collect()
}

// =====================================================================
// Shared serving-bench scaffolding (E10 / E11)
// =====================================================================

/// Start the serving-bench server (loopback, 8 workers) over an
/// engine and a query workload, warm the extents and token cache
/// with one pass over the bodies, and return the handle.
/// E10 and E11 must measure the same protocol — change it here.
fn start_warmed_server(
    engine: std::sync::Arc<fgc_core::CitationEngine>,
    bodies: &[String],
) -> fgc_server::CiteServer {
    let server = fgc_server::CiteServer::start(
        engine,
        fgc_server::ServerConfig::default()
            .with_addr("127.0.0.1:0")
            .with_threads(8),
    )
    .expect("bind loopback");
    let warmup = LoadConfig {
        clients: 1,
        mode: LoadMode::Closed {
            requests_per_client: bodies.len(),
        },
    };
    let _ = run_load(server.addr(), "/cite", bodies, &warmup).expect("warmup");
    server
}

/// The 16-query ad-hoc workload both serving benches POST.
fn serving_bodies(db: &fgc_relation::Database, seed: u64) -> Vec<String> {
    let mut workload = fgc_gtopdb::WorkloadGenerator::new(db, seed);
    cite_bodies(workload.ad_hoc_batch(16))
}

/// One closed-loop measurement, milliseconds formatter included.
fn closed_loop(addr: SocketAddr, bodies: &[String], clients: usize) -> LoadReport {
    run_load(
        addr,
        "/cite",
        bodies,
        &LoadConfig {
            clients,
            mode: LoadMode::Closed {
                requests_per_client: 32,
            },
        },
    )
    .expect("closed loop")
}

fn fmt_ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

// =====================================================================
// E10 — serving throughput through the HTTP front-end
// =====================================================================

/// E10 table: end-to-end serving latency/throughput through the full
/// HTTP path (TCP → framing → JSON → `cite_request` on the worker →
/// encode), closed-loop client sweep plus one open-loop row at a
/// fixed arrival rate. Claim: one shared engine serves concurrent
/// clients at near-linear throughput (the network-side complement
/// of E9).
pub fn e10_table(families: usize, client_sweep: &[usize]) -> crate::Table {
    use std::sync::Arc;

    let engine = Arc::new(crate::engine_at_scale(
        families,
        fgc_core::RewriteMode::Pruned,
        fgc_core::Policy::default(),
    ));
    let db = Arc::clone(engine.database());
    let bodies = serving_bodies(&db, 59);
    let server = start_warmed_server(engine, &bodies);
    let addr = server.addr();

    let mut rows = Vec::new();
    for &clients in client_sweep {
        let report = closed_loop(addr, &bodies, clients);
        rows.push(vec![
            "closed".into(),
            clients.to_string(),
            report.sent.to_string(),
            format!("{:.0}", report.throughput()),
            fmt_ms(report.percentile(50.0)),
            fmt_ms(report.percentile(95.0)),
            fmt_ms(report.percentile(99.0)),
            report.errors.to_string(),
        ]);
    }
    let open = run_load(
        addr,
        "/cite",
        &bodies,
        &LoadConfig {
            clients: 4,
            mode: LoadMode::Open {
                rate: 200.0,
                total: 100,
            },
        },
    )
    .expect("open loop");
    rows.push(vec![
        "open@200/s".into(),
        "4".into(),
        open.sent.to_string(),
        format!("{:.0}", open.throughput()),
        fmt_ms(open.percentile(50.0)),
        fmt_ms(open.percentile(95.0)),
        fmt_ms(open.percentile(99.0)),
        open.errors.to_string(),
    ]);
    server.shutdown();
    crate::Table {
        title: format!("E10 — HTTP serving: closed-loop sweep + open loop ({families} families)"),
        headers: vec![
            "mode".into(),
            "clients".into(),
            "requests".into(),
            "rps".into(),
            "p50 ms".into(),
            "p95 ms".into(),
            "p99 ms".into(),
            "errors".into(),
        ],
        rows,
    }
}

// =====================================================================
// E11 — shard scaling through the HTTP front-end
// =====================================================================

/// E11 table: the same closed-loop serving workload as E10, swept
/// over shard counts. Claim: hash-partitioning the relation store
/// (with routed evaluation pruning keyed selections to one shard)
/// serves the ad-hoc workload at throughput comparable to the
/// unsharded engine — sharding buys capacity headroom, not citation
/// drift (citations stay byte-identical; see
/// `tests/sharding_equivalence.rs`).
pub fn e11_table(families: usize, shard_counts: &[usize]) -> crate::Table {
    use std::sync::Arc;

    let mut rows = Vec::new();
    for &shards in shard_counts {
        let engine = Arc::new(crate::sharded_engine_at_scale(families, shards));
        let db = Arc::clone(engine.database());
        let bodies = serving_bodies(&db, 67);
        let server = start_warmed_server(Arc::clone(&engine), &bodies);

        let report = closed_loop(server.addr(), &bodies, 8);
        let sharding = engine.shard_stats().expect("engine is sharded");
        rows.push(vec![
            shards.to_string(),
            report.sent.to_string(),
            format!("{:.0}", report.throughput()),
            fmt_ms(report.percentile(50.0)),
            fmt_ms(report.percentile(95.0)),
            fmt_ms(report.percentile(99.0)),
            sharding.atoms_pruned.to_string(),
            sharding.atoms_fanout.to_string(),
            format!("{:.2}", sharding.store.imbalance()),
            report.errors.to_string(),
        ]);
        server.shutdown();
    }
    crate::Table {
        title: format!(
            "E11 — sharded serving: closed loop, 8 clients ({families} families, key spec {})",
            fgc_gtopdb::paper_shard_spec()
        ),
        headers: vec![
            "shards".into(),
            "requests".into(),
            "rps".into(),
            "p50 ms".into(),
            "p95 ms".into(),
            "p99 ms".into(),
            "pruned".into(),
            "fanout".into(),
            "imbalance".into(),
            "errors".into(),
        ],
        rows,
    }
}

// =====================================================================
// E14 — distributed scatter/gather serving
// =====================================================================

/// Start an N-shard scatter/gather cluster at benchmark scale: N
/// replica `CiteServer`s (each holding shard `i/N` of the identical
/// deterministic store, with the `/fragment/*` handler mounted) and a
/// stateless coordinator front end over them. Returns the replica
/// handles and the coordinator server; shut the coordinator down
/// first.
pub fn start_dist_cluster(
    families: usize,
    shards: usize,
) -> (Vec<fgc_server::CiteServer>, fgc_dist::DistServer) {
    use std::sync::Arc;

    let replicas: Vec<fgc_server::CiteServer> = (0..shards)
        .map(|shard| {
            let engine = Arc::new(crate::sharded_engine_at_scale(families, shards));
            fgc_server::CiteServer::start_with_handler(
                Arc::clone(&engine),
                fgc_server::ServerConfig::default()
                    .with_addr("127.0.0.1:0")
                    .with_threads(8)
                    .with_role("replica")
                    .with_shard(shard, shards),
                fgc_dist::fragment_handler(engine),
            )
            .expect("bind replica")
        })
        .collect();
    let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();
    let coordinator = fgc_dist::Coordinator::connect(fgc_dist::CoordinatorConfig::new(addrs))
        .expect("coordinator connects");
    let front = fgc_dist::DistServer::start(
        Arc::new(coordinator),
        fgc_server::ServerConfig::default()
            .with_addr("127.0.0.1:0")
            .with_threads(8)
            .with_role("coordinator"),
    )
    .expect("bind coordinator");
    (replicas, front)
}

/// E14 table: the E10 serving workload POSTed at a scatter/gather
/// cluster, swept over replica counts. Claim: the stateless
/// coordinator serves the ad-hoc workload correctly (zero errors —
/// responses are byte-identical to single-process serving, see
/// `tests/dist_equivalence.rs`) at a bounded scatter overhead per
/// added shard: each request costs one fragment round trip per
/// scattered shard plus the global-order merge.
pub fn e14_table(families: usize, shard_counts: &[usize]) -> crate::Table {
    let db = crate::db_at_scale(families);
    let bodies = serving_bodies(&db, 73);
    let mut rows = Vec::new();
    for &shards in shard_counts {
        let (replicas, front) = start_dist_cluster(families, shards);
        let addr = front.addr();
        // warm replica extents + token caches through the coordinator
        let warmup = LoadConfig {
            clients: 1,
            mode: LoadMode::Closed {
                requests_per_client: bodies.len(),
            },
        };
        let _ = run_load(addr, "/cite", &bodies, &warmup).expect("warmup");

        let report = closed_loop(addr, &bodies, 8);
        rows.push(vec![
            shards.to_string(),
            report.sent.to_string(),
            format!("{:.0}", report.throughput()),
            fmt_ms(report.percentile(50.0)),
            fmt_ms(report.percentile(95.0)),
            fmt_ms(report.percentile(99.0)),
            report.errors.to_string(),
        ]);
        front.shutdown();
        for replica in replicas {
            replica.shutdown();
        }
    }
    crate::Table {
        title: format!(
            "E14 — distributed serving: coordinator scatter/gather, closed loop, 8 clients \
             ({families} families, key spec {})",
            fgc_gtopdb::paper_shard_spec()
        ),
        headers: vec![
            "replicas".into(),
            "requests".into(),
            "rps".into(),
            "p50 ms".into(),
            "p95 ms".into(),
            "p99 ms".into(),
            "errors".into(),
        ],
        rows,
    }
}

// =====================================================================
// E16 — storage backend comparison (mem vs disk)
// =====================================================================

/// E16 table: the E10 serving workload over each storage backend,
/// crud-bench style (PAPERS.md: the embedded-engine comparison
/// matrix). Per scale, one row per backend:
///
/// * **mem** — cold start is the full load path (generate/parse the
///   instance, build the engine);
/// * **disk** — cold start opens the persisted manifest and decodes
///   segment pages through the buffer cache; the text loader never
///   runs.
///
/// Claim (ROADMAP "pluggable storage"): the disk backend trades a
/// one-time persist cost for manifest-open cold starts, and serving
/// throughput is backend-independent because both backends serve the
/// same in-memory `Database` — the storage seam sits below the
/// relation API, not on the hot path.
pub fn e16_table(scales: &[usize]) -> crate::Table {
    use fgc_relation::storage::{DiskStorage, Storage, StorageOptions};
    use std::sync::Arc;

    let mut rows = Vec::new();
    for &families in scales {
        // the mem backend's cold start: run the full load path
        let t0 = Instant::now();
        let db = crate::db_at_scale(families);
        let t_generate = t0.elapsed();

        // persist once (the write path, priced in its own column)
        let dir =
            std::env::temp_dir().join(format!("fgc-bench-e16-{}-{families}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let storage = DiskStorage::open(&dir, StorageOptions::default()).expect("open data dir");
        let mut history = fgc_relation::VersionedDatabase::new();
        history.commit(db.clone(), 0, "base").expect("base commit");
        let t0 = Instant::now();
        storage.sync(&history).expect("persist history");
        let t_persist = t0.elapsed();
        let disk_bytes = storage.stats().disk_bytes;
        drop(storage);

        let bodies = serving_bodies(&db, 79);
        for backend in ["mem", "disk"] {
            let (t_cold, engine): (Duration, Arc<fgc_core::CitationEngine>) = if backend == "mem" {
                let t0 = Instant::now();
                let engine = fgc_core::CitationEngine::new(db.clone(), fgc_gtopdb::paper_views())
                    .expect("views validate");
                (t_generate + t0.elapsed(), Arc::new(engine))
            } else {
                // cold start from the manifest: fresh handle, no loader
                let t0 = Instant::now();
                let storage: Arc<dyn Storage> = Arc::new(
                    DiskStorage::open(&dir, StorageOptions::default()).expect("reopen data dir"),
                );
                let restored = storage.load_history().expect("cold load");
                let (_, head) = restored.head().expect("persisted head");
                let engine =
                    fgc_core::CitationEngine::new((**head).clone(), fgc_gtopdb::paper_views())
                        .expect("views validate")
                        .with_storage(Arc::clone(&storage));
                (t0.elapsed(), Arc::new(engine))
            };
            let server = start_warmed_server(Arc::clone(&engine), &bodies);
            let report = closed_loop(server.addr(), &bodies, 8);
            server.shutdown();
            let (persist_cell, bytes_cell, hit_cell) = match engine.storage_stats() {
                Some(stats) => (
                    fmt_ms(t_persist),
                    (disk_bytes / 1024).to_string(),
                    format!("{:.2}", stats.cache_hit_rate()),
                ),
                None => ("-".into(), "-".into(), "-".into()),
            };
            rows.push(vec![
                families.to_string(),
                backend.into(),
                fmt_ms(t_cold),
                persist_cell,
                bytes_cell,
                format!("{:.0}", report.throughput()),
                fmt_ms(report.percentile(50.0)),
                fmt_ms(report.percentile(99.0)),
                hit_cell,
                report.errors.to_string(),
            ]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    crate::Table {
        title: "E16 — storage backends: cold start + closed-loop serving, 8 clients \
                (mem = full load path, disk = manifest open)"
            .into(),
        headers: vec![
            "families".into(),
            "backend".into(),
            "cold start ms".into(),
            "persist ms".into(),
            "disk KiB".into(),
            "rps".into(),
            "p50 ms".into(),
            "p99 ms".into(),
            "cache hit".into(),
            "errors".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgc_core::CitationEngine;
    use fgc_gtopdb::{paper_instance, paper_views};
    use fgc_server::{CiteServer, ServerConfig};
    use std::sync::Arc;

    fn server() -> CiteServer {
        let engine = Arc::new(CitationEngine::new(paper_instance(), paper_views()).unwrap());
        CiteServer::start(
            engine,
            ServerConfig::default()
                .with_addr("127.0.0.1:0")
                .with_threads(4),
        )
        .unwrap()
    }

    fn bodies() -> Vec<String> {
        cite_bodies([
            "Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"",
            "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"",
        ])
    }

    fn report_with(latencies: Vec<Duration>) -> LoadReport {
        let latency = Histogram::new();
        for d in &latencies {
            latency.record_micros(*d);
        }
        LoadReport {
            sent: latencies.len(),
            ok: latencies.len(),
            errors: 0,
            elapsed: Duration::from_secs(1),
            latency,
        }
    }

    // log-bucketed quantiles are exact only at the observed maximum;
    // everywhere else they are bounded by the 2× bucket edges
    fn within_2x(got: Duration, exact: Duration) {
        assert!(got >= exact / 2, "{got:?} < {exact:?}/2");
        assert!(got <= exact * 2, "{got:?} > {exact:?}*2");
    }

    #[test]
    fn percentile_clamps_and_rejects_nan() {
        let sorted: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        let report = report_with(sorted);
        // p = 0 is the minimum bucket, p = 100 the exact observed max
        within_2x(report.percentile(0.0), Duration::from_millis(1));
        assert_eq!(report.percentile(100.0), Duration::from_millis(10));
        // out-of-range inputs clamp instead of picking a garbage rank
        assert_eq!(report.percentile(-5.0), report.percentile(0.0));
        assert_eq!(report.percentile(150.0), Duration::from_millis(10));
        assert_eq!(report.percentile(f64::INFINITY), Duration::from_millis(10));
        assert_eq!(report.percentile(f64::NEG_INFINITY), report.percentile(0.0));
        // NaN is rejected outright
        assert_eq!(report.percentile(f64::NAN), Duration::ZERO);
        // interior quantiles land within the 2× bucket-edge bound
        within_2x(report.percentile(50.0), Duration::from_millis(5));
        within_2x(report.percentile(90.0), Duration::from_millis(9));
    }

    #[test]
    fn percentile_single_sample_and_empty() {
        // a single sample is its bucket's only occupant, and the
        // bucket interpolation clamps to the observed max: exact
        let single = report_with(vec![Duration::from_millis(7)]);
        for p in [-1.0, 0.0, 50.0, 100.0, 400.0] {
            assert_eq!(single.percentile(p), Duration::from_millis(7), "p={p}");
        }
        assert_eq!(single.percentile(f64::NAN), Duration::ZERO);
        let empty = report_with(Vec::new());
        assert_eq!(empty.percentile(50.0), Duration::ZERO);
    }

    #[test]
    fn e11_small_sweep_reports_per_shard_rows() {
        let t = e11_table(60, &[1, 2]);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let rps: f64 = row[2].parse().unwrap();
            assert!(rps > 0.0, "{row:?}");
            assert_eq!(row[9], "0", "errors in {row:?}");
        }
    }

    #[test]
    fn e14_small_sweep_serves_without_errors() {
        let t = e14_table(60, &[1, 2]);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let rps: f64 = row[2].parse().unwrap();
            assert!(rps > 0.0, "{row:?}");
            assert_eq!(row[6], "0", "errors in {row:?}");
        }
        // the persisted artifact shape: {title, headers, rows}
        let json = t.to_json().to_compact();
        for field in ["title", "headers", "rows", "E14"] {
            assert!(json.contains(field), "{json}");
        }
    }

    #[test]
    fn e16_small_sweep_compares_backends() {
        let t = e16_table(&[60]);
        assert_eq!(t.rows.len(), 2);
        let (mem, disk) = (&t.rows[0], &t.rows[1]);
        assert_eq!(mem[1], "mem");
        assert_eq!(disk[1], "disk");
        // the mem row has no storage attached, the disk row does
        assert_eq!(mem[4], "-");
        assert!(disk[4].parse::<u64>().unwrap() > 0, "{disk:?}");
        for row in &t.rows {
            let rps: f64 = row[5].parse().unwrap();
            assert!(rps > 0.0, "{row:?}");
            assert_eq!(row[9], "0", "errors in {row:?}");
        }
        // the persisted artifact shape: {title, headers, rows}
        let json = t.to_json().to_compact();
        for field in ["title", "headers", "rows", "E16"] {
            assert!(json.contains(field), "{json}");
        }
    }

    #[test]
    fn closed_loop_serves_everything() {
        let server = server();
        let report = run_load(
            server.addr(),
            "/cite",
            &bodies(),
            &LoadConfig {
                clients: 4,
                mode: LoadMode::Closed {
                    requests_per_client: 5,
                },
            },
        )
        .unwrap();
        assert_eq!(report.sent, 20);
        assert_eq!(report.ok, 20);
        assert_eq!(report.errors, 0);
        assert_eq!(report.latency.count(), 20);
        assert!(report.throughput() > 0.0);
        assert!(report.percentile(99.0) >= report.percentile(50.0));
        server.shutdown();
    }

    #[test]
    fn open_loop_issues_the_scheduled_total() {
        let server = server();
        let report = run_load(
            server.addr(),
            "/cite",
            &bodies(),
            &LoadConfig {
                clients: 2,
                mode: LoadMode::Open {
                    rate: 500.0,
                    total: 12,
                },
            },
        )
        .unwrap();
        assert_eq!(report.sent, 12);
        assert_eq!(report.errors, 0);
        // 12 departures spaced 2ms apart: the run takes ≥ 22ms
        assert!(report.elapsed >= Duration::from_millis(20), "{report:?}");
        server.shutdown();
    }

    #[test]
    fn generated_workload_queries_survive_the_wire() {
        // Display → JSON body → server-side parse_query must round
        // trip for the synthetic workload the E10 bench uses
        let db = crate::db_at_scale(100);
        let engine = Arc::new(CitationEngine::new(db, paper_views()).unwrap());
        let db_arc = Arc::clone(engine.database());
        let mut workload = fgc_gtopdb::WorkloadGenerator::new(&db_arc, 53);
        let queries = workload.ad_hoc_batch(4);
        let server = CiteServer::start(
            engine,
            ServerConfig::default()
                .with_addr("127.0.0.1:0")
                .with_threads(2),
        )
        .unwrap();
        let report = run_load(
            server.addr(),
            "/cite",
            &cite_bodies(queries),
            &LoadConfig {
                clients: 2,
                mode: LoadMode::Closed {
                    requests_per_client: 4,
                },
            },
        )
        .unwrap();
        assert_eq!(report.ok, 8, "errors: {}", report.errors);
        server.shutdown();
    }
}
