//! E11 — serving throughput over a sharded relation store.
//!
//! The same end-to-end HTTP serving stack as E10, with the base
//! store partitioned across n ∈ {1, 2, 4, 8} hash-routed shards
//! (GtoPdb key spec: the family hierarchy co-partitions on FID).
//! Routed evaluation prunes keyed selections to one shard and fans
//! projections out to all of them; citations stay byte-identical to
//! the unsharded engine, so this measures the cost/benefit of the
//! sharded layout alone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fgc_bench::{cite_bodies, run_load, sharded_engine_at_scale, LoadConfig, LoadMode};
use fgc_gtopdb::WorkloadGenerator;
use fgc_server::{CiteServer, ServerConfig};
use std::hint::black_box;
use std::sync::Arc;

fn bench_e11(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_sharding");
    group.sample_size(10);

    for shards in [1usize, 2, 4, 8] {
        let engine = Arc::new(sharded_engine_at_scale(1_000, shards));
        let db = Arc::clone(engine.database());
        let mut workload = WorkloadGenerator::new(&db, 67);
        let bodies = cite_bodies(workload.ad_hoc_batch(16));
        let server = CiteServer::start(
            engine,
            ServerConfig::default()
                .with_addr("127.0.0.1:0")
                .with_threads(8),
        )
        .expect("bind loopback");
        let addr = server.addr();

        // warm extents + token cache so the sweep measures serving
        let warmup = LoadConfig {
            clients: 1,
            mode: LoadMode::Closed {
                requests_per_client: bodies.len(),
            },
        };
        let _ = run_load(addr, "/cite", &bodies, &warmup).expect("warmup");

        group.bench_with_input(
            BenchmarkId::new("closed_loop_8clients", shards),
            &shards,
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

    group.finish();
}

criterion_group!(benches, bench_e11);
criterion_main!(benches);
