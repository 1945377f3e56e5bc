//! E10 — end-to-end HTTP serving throughput.
//!
//! Where E9 measures `cite_batch` at the engine API, E10 measures the
//! whole serving stack: TCP accept → HTTP framing → JSON decode →
//! `cite_request` over the shared engine on the worker → response
//! encode. The closed-loop client sweep shows how throughput scales
//! with concurrent connections.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fgc_bench::{cite_bodies, engine_at_scale, run_load, LoadConfig, LoadMode};
use fgc_core::{Policy, RewriteMode};
use fgc_gtopdb::WorkloadGenerator;
use fgc_server::{CiteServer, ServerConfig};
use std::hint::black_box;
use std::sync::Arc;

fn bench_e10(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_serving");
    group.sample_size(10);

    let engine = Arc::new(engine_at_scale(
        1_000,
        RewriteMode::Pruned,
        Policy::default(),
    ));
    let db = Arc::clone(engine.database());
    let mut workload = WorkloadGenerator::new(&db, 61);
    let bodies = cite_bodies(workload.ad_hoc_batch(16));
    let server = CiteServer::start(
        engine,
        ServerConfig::default()
            .with_addr("127.0.0.1:0")
            .with_threads(8),
    )
    .expect("bind loopback");
    let addr = server.addr();

    // warm extents + token cache: the sweep measures serving, not
    // first-touch materialization
    let warmup = LoadConfig {
        clients: 1,
        mode: LoadMode::Closed {
            requests_per_client: bodies.len(),
        },
    };
    let _ = run_load(addr, "/cite", &bodies, &warmup).expect("warmup");

    for clients in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("closed_loop_8rpc", clients),
            &clients,
            |b, &clients| {
                let config = LoadConfig {
                    clients,
                    mode: LoadMode::Closed {
                        requests_per_client: 8,
                    },
                };
                b.iter(|| black_box(run_load(addr, "/cite", &bodies, &config).expect("load")));
            },
        );
    }

    group.finish();
    server.shutdown();
}

criterion_group!(benches, bench_e10);
criterion_main!(benches);
