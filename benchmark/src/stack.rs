//! Starting the real serving stack in-process, through the same public
//! constructors `fgcite serve` uses. Every knob the issue does not name
//! (batch window, max batch, deadlines, cache capacities) stays at the
//! program's default.

use crate::stream::{Workload, COMMITS};
use fgc_core::{CitationEngine, VersionedCitationEngine};
use fgc_dist::{Coordinator, CoordinatorConfig, DistServer};
use fgc_gtopdb::{generate, paper_shard_spec, paper_views, GeneratorConfig};
use fgc_relation::storage::{DiskStorage, Storage, StorageOptions};
use fgc_relation::{tuple, Database, Relation, VersionedDatabase};
use fgc_server::{CiteServer, ServerConfig};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Server worker threads: at least twice the clients, so neither the
/// connection-per-worker pool nor `/cite_at`'s `threads − 1` admission
/// cap is what gets measured.
pub const SERVER_THREADS: usize = 4;

/// Warm per-version engines `versioned` keeps: a sixteenth of its 257
/// versions, so the workload is larger than the program's own cache.
pub const ENGINE_CAPACITY: usize = 16;

const SHARDS: usize = 2;

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn server_config() -> ServerConfig {
    ServerConfig::default()
        .with_addr("127.0.0.1:0")
        .with_threads(SERVER_THREADS)
}

/// The data set every workload serves.
pub fn dataset() -> Database {
    generate(&GeneratorConfig::default())
}

/// Commit `i` of the `FIC` churn history (the shape of
/// `fgc_bench::commit_history`): one contributor row added, the oldest
/// one removed. `FIC` feeds only V2 and V5, so a derived engine
/// recomputes two view extents and carries the rest over.
pub fn commit_churn(history: &mut VersionedDatabase, i: usize) {
    let (_, head) = history.head().expect("base version committed");
    let families = head.relation("Family").expect("Family").len();
    let persons = head.relation("Person").expect("Person").len();
    history
        .commit_with(i as u64 * 10, format!("v{i}"), |db| {
            let fid = format!("f{}", (i * 13) % families);
            let pid = format!("p{}", (i * 7) % persons);
            db.insert("FIC", tuple![fid, pid])?;
            let oldest = db.relation("FIC")?.rows().first().cloned();
            if let Some(row) = oldest {
                db.remove("FIC", &row)?;
            }
            Ok(())
        })
        .expect("churn commit");
}

/// A directory under the benchmark's output directory, removed when
/// dropped — on every exit path that unwinds or returns.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(out_dir: &Path) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = out_dir.join(format!(
            "tmp-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch data dir");
        TempDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What building, persisting and cold-loading a churn history cost —
/// the `relation.*` layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistoryCosts {
    /// Median `VersionedDatabase::commit_with`.
    pub commit_ms: f64,
    /// `Storage::sync` of base + all commits but the last.
    pub bulk_sync_ms: f64,
    /// `Storage::sync` of the one remaining commit.
    pub increment_sync_ms: f64,
    /// `DiskStorage::open` + `VersionedCitationEngine::from_storage`
    /// (= `load_history`) on a fresh handle.
    pub cold_load_ms: f64,
    pub disk_bytes: u64,
    /// `approx_bytes` of the distinct relations the history holds.
    pub history_bytes: usize,
    pub cache_hit_ratio: f64,
}

/// Commit `commits` churn versions over `db`, persist them through
/// `DiskStorage::sync`, and drop the process-local handle.
pub fn persist_history(db: Database, commits: usize, dir: &Path) -> HistoryCosts {
    let mut costs = HistoryCosts::default();
    let mut history = VersionedDatabase::new();
    history.commit(db, 0, "v0").expect("base commit");
    let storage = DiskStorage::open(dir, StorageOptions::default()).expect("open data dir");
    let mut commit_ms = Vec::with_capacity(commits);
    for i in 1..=commits {
        if i == commits {
            let t = Instant::now();
            storage.sync(&history).expect("persist history");
            costs.bulk_sync_ms = ms(t);
        }
        let t = Instant::now();
        commit_churn(&mut history, i);
        commit_ms.push(ms(t));
    }
    let t = Instant::now();
    storage.sync(&history).expect("persist last commit");
    costs.increment_sync_ms = ms(t);
    costs.commit_ms = crate::stats::median(&mut commit_ms);
    costs.disk_bytes = storage.stats().disk_bytes;
    let mut seen: HashSet<*const Relation> = HashSet::new();
    for (_, snapshot) in history.iter() {
        for relation in snapshot.relation_arcs() {
            if seen.insert(Arc::as_ptr(relation)) {
                costs.history_bytes += relation.approx_bytes();
            }
        }
    }
    costs
}

/// Cold-open a persisted history on a fresh backend handle, the way a
/// restarted `fgcite serve --data-dir` does.
pub fn cold_open(dir: &Path, costs: &mut HistoryCosts) -> Arc<VersionedCitationEngine> {
    let t = Instant::now();
    let storage: Arc<dyn Storage> =
        Arc::new(DiskStorage::open(dir, StorageOptions::default()).expect("reopen data dir"));
    let engine = VersionedCitationEngine::from_storage(Arc::clone(&storage), paper_views())
        .expect("cold load")
        .with_engine_capacity(ENGINE_CAPACITY);
    costs.cold_load_ms = ms(t);
    costs.cache_hit_ratio = storage.stats().cache_hit_rate();
    Arc::new(engine)
}

/// Two loopback shard replicas and a coordinator over them.
#[derive(Debug)]
pub struct DistStack {
    // declared first so it drops (and stops calling replicas) first
    pub front: DistServer,
    pub replicas: Vec<CiteServer>,
}

pub fn start_dist(db: &Database) -> DistStack {
    let replicas: Vec<CiteServer> = (0..SHARDS)
        .map(|shard| {
            let engine = Arc::new(
                CitationEngine::new(db.clone(), paper_views())
                    .expect("views validate")
                    .with_shards(SHARDS, paper_shard_spec())
                    .expect("GtoPdb shard spec resolves"),
            );
            CiteServer::start_with_handler(
                Arc::clone(&engine),
                server_config()
                    .with_role("replica")
                    .with_shard(shard, SHARDS),
                fgc_dist::fragment_handler(engine),
            )
            .expect("bind replica")
        })
        .collect();
    let addrs: Vec<SocketAddr> = replicas.iter().map(CiteServer::addr).collect();
    let coordinator =
        Coordinator::connect(CoordinatorConfig::new(addrs)).expect("coordinator bootstrap");
    let front = DistServer::start(
        Arc::new(coordinator),
        server_config().with_role("coordinator"),
    )
    .expect("bind coordinator");
    DistStack { front, replicas }
}

/// A running serving stack for one workload.
pub enum Stack {
    Single(CiteServer),
    Versioned {
        server: CiteServer,
        engine: Arc<VersionedCitationEngine>,
        costs: HistoryCosts,
        // after the server, so the data dir outlives every reader
        _dir: TempDir,
    },
    Dist(DistStack),
}

impl Stack {
    /// Generate the data, build the engine(s), and start serving —
    /// everything `setup_s` counts except the warm-up requests.
    pub fn start(workload: Workload, out_dir: &Path) -> Stack {
        let db = dataset();
        match workload {
            Workload::Lookup | Workload::Adhoc => {
                let engine = CitationEngine::new(db, paper_views()).expect("views validate");
                Stack::Single(
                    CiteServer::start(Arc::new(engine), server_config()).expect("bind server"),
                )
            }
            Workload::Versioned => {
                let dir = TempDir::new(out_dir);
                let mut costs = persist_history(db, COMMITS, dir.path());
                let engine = cold_open(dir.path(), &mut costs);
                let server = CiteServer::start_versioned(Arc::clone(&engine), server_config())
                    .expect("bind versioned server");
                Stack::Versioned {
                    server,
                    engine,
                    costs,
                    _dir: dir,
                }
            }
            Workload::Dist => Stack::Dist(start_dist(&db)),
        }
    }

    /// Where the clients connect.
    pub fn addr(&self) -> SocketAddr {
        match self {
            Stack::Single(server) | Stack::Versioned { server, .. } => server.addr(),
            Stack::Dist(dist) => dist.front.addr(),
        }
    }

    /// The front door's public counters.
    pub fn server_stats(&self) -> Arc<fgc_server::ServerStats> {
        match self {
            Stack::Single(server) | Stack::Versioned { server, .. } => server.stats(),
            Stack::Dist(dist) => dist.front.stats(),
        }
    }

    /// The engine whose caches the workload's requests run through:
    /// the served engine, the head version's engine, or (for `dist`)
    /// the coordinator's control-plane engine.
    pub fn with_engine<T>(&self, f: impl FnOnce(&CitationEngine) -> T) -> T {
        match self {
            Stack::Single(server) | Stack::Versioned { server, .. } => f(&server.engine()),
            Stack::Dist(dist) => f(dist.front.coordinator().engine()),
        }
    }
}
