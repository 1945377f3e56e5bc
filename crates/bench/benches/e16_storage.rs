//! E16 — storage backend comparison, mem vs disk.
//!
//! Two measurements per backend, crud-bench style:
//!
//! * **cold start, swept at 10× and 100× the E10 serving scale** —
//!   mem pays the full load path (generate the instance); disk opens
//!   the persisted manifest and decodes segment pages through the
//!   buffer cache, the loader never runs. This is where the backends
//!   differ, and both sides are linear in the store size;
//! * **closed-loop serving at the E10 scale** — the E10 HTTP
//!   workload over an engine built from each backend. Throughput
//!   should be backend-independent: the storage seam sits below the
//!   relation API, both backends serve the same in-memory
//!   `Database`. (The generated ad-hoc workload grows multi-second
//!   cold joins past 10k families, so the serving comparison stays
//!   at E10 parity — `fgc-bench -- e16 full` prints the large-scale
//!   serving table.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fgc_bench::{cite_bodies, db_at_scale, run_load, LoadConfig, LoadMode};
use fgc_core::CitationEngine;
use fgc_gtopdb::{paper_views, WorkloadGenerator};
use fgc_relation::storage::{DiskStorage, Storage, StorageOptions};
use fgc_relation::VersionedDatabase;
use fgc_server::{CiteServer, ServerConfig};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

const SERVE_FAMILIES: usize = 1_000; // the E10 serving scale
const COLD_SCALES: [usize; 2] = [10_000, 100_000]; // 10× and 100×

fn persist(families: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fgc-bench-e16-{}-{families}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = DiskStorage::open(&dir, StorageOptions::default()).expect("open data dir");
    let mut history = VersionedDatabase::new();
    history
        .commit(db_at_scale(families), 0, "base")
        .expect("base commit");
    storage.sync(&history).expect("persist history");
    dir
}

fn bench_e16(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_storage");
    group.sample_size(10);

    for families in COLD_SCALES {
        let dir = persist(families);
        group.bench_with_input(
            BenchmarkId::new("cold_start_mem", families),
            &families,
            |b, &families| b.iter(|| black_box(db_at_scale(families))),
        );
        group.bench_with_input(
            BenchmarkId::new("cold_start_disk", families),
            &families,
            |b, _| {
                b.iter(|| {
                    let storage = DiskStorage::open(&dir, StorageOptions::default())
                        .expect("reopen data dir");
                    black_box(storage.load_history().expect("cold load"))
                })
            },
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    let db = db_at_scale(SERVE_FAMILIES);
    let dir = persist(SERVE_FAMILIES);
    for backend in ["mem", "disk"] {
        let engine = if backend == "mem" {
            Arc::new(CitationEngine::new(db.clone(), paper_views()).expect("views validate"))
        } else {
            let storage: Arc<dyn Storage> = Arc::new(
                DiskStorage::open(&dir, StorageOptions::default()).expect("reopen data dir"),
            );
            let restored = storage.load_history().expect("cold load");
            let (_, head) = restored.head().expect("persisted head");
            Arc::new(
                CitationEngine::new((**head).clone(), paper_views())
                    .expect("views validate")
                    .with_storage(storage),
            )
        };
        let shared = Arc::clone(engine.database());
        let mut workload = WorkloadGenerator::new(&shared, 61); // E10's seed
        let bodies = cite_bodies(workload.ad_hoc_batch(16));
        let server = CiteServer::start(
            engine,
            ServerConfig::default()
                .with_addr("127.0.0.1:0")
                .with_threads(8),
        )
        .expect("bind loopback");
        let addr = server.addr();
        let warmup = LoadConfig {
            clients: 1,
            mode: LoadMode::Closed {
                requests_per_client: bodies.len(),
            },
        };
        let _ = run_load(addr, "/cite", &bodies, &warmup).expect("warmup");

        group.bench_with_input(
            BenchmarkId::new("closed_loop_8c", backend),
            &backend,
            |b, _| {
                let config = LoadConfig {
                    clients: 8,
                    mode: LoadMode::Closed {
                        requests_per_client: 8,
                    },
                };
                b.iter(|| black_box(run_load(addr, "/cite", &bodies, &config).expect("load")));
            },
        );
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);

    group.finish();
}

criterion_group!(benches, bench_e16);
criterion_main!(benches);
