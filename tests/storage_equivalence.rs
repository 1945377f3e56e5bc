//! Storage-backend equivalence — the acceptance bar of the pluggable
//! storage engine: citations served from a `DiskStorage`-restored
//! database must be **byte-identical** to the in-memory reference —
//! same tuples in the same order, same symbolic expressions, same
//! interpreted citations and aggregate, same rewriting labels — on
//! the paper instance and on generated GtoPdb data, unsharded and
//! sharded (n ∈ {1, 2, 4}), warm (same process) and cold (a fresh
//! handle over the same data dir, the loader never re-run). Versioned
//! histories — built by `load_commits` or drawn at random, churn
//! commits included — must survive a disk round trip with every
//! version's rows, index state and citation walk unchanged, and
//! reloaded versions share what their commits did not change.

mod common;

use common::{
    assert_same, both_modes, cites, history_queries, named, queries, random_commit,
    render_versioned, walk, Reference, TempDir,
};
use fgcite::engine::{CitationEngine, VersionedCitationEngine};
use fgcite::gtopdb::rng::SmallRng;
use fgcite::gtopdb::{generate, paper_instance, paper_views, GeneratorConfig};
use fgcite::prelude::*;
use fgcite::relation::loader::load_commits;
use fgcite::relation::storage::{open, DiskStorage};
use std::path::Path;
use std::sync::Arc;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Persist `db` as a 1-version history and read it back through a
/// fresh cold handle on the same dir — the restart path, byte-wise:
/// the loader never re-runs, all rows come from segment files.
fn disk_round_trip(db: &Database, dir: &Path, options: StorageOptions) -> Database {
    let storage = DiskStorage::open(dir, options).expect("open data dir");
    let mut history = VersionedDatabase::new();
    history.commit(db.clone(), 0, "base").unwrap();
    storage.sync(&history).unwrap();
    drop(storage);
    let reopened = DiskStorage::open(dir, options).expect("reopen data dir");
    let restored = reopened.load_history().expect("cold load");
    let (_, head) = restored.head().expect("persisted head");
    (**head).clone()
}

#[test]
fn paper_instance_citations_are_byte_identical_mem_vs_disk() {
    let dir = TempDir::new("paper");
    let restored = disk_round_trip(&paper_instance(), &dir, StorageOptions::default());
    let reference = Reference::new("paper instance", paper_instance());
    let from_disk = common::engine(restored);
    assert_same(&reference, &[("disk", &from_disk)], &both_modes(&queries()));
}

#[test]
fn generated_gtopdb_is_byte_identical_across_shard_counts_after_cold_reopen() {
    let dir = TempDir::new("gtopdb");
    let db = common::gtopdb(120, common::default_seed());
    // page-size floor + small cache: many pages per segment, evictions
    let options = StorageOptions {
        page_size: 0,   // floored to the 512-byte minimum
        cache_pages: 8, // smaller than the segment: CLOCK must evict
        ..StorageOptions::default()
    };
    let restored = disk_round_trip(&db, &dir, options);
    let shardings: Vec<(String, CitationEngine)> = SHARD_COUNTS
        .iter()
        .map(|&n| {
            (
                format!("disk, shards={n}"),
                common::sharded(restored.clone(), n),
            )
        })
        .collect();
    let reference = Reference::new("gtopdb families=120 default seed", db.clone());
    let requests = cites(&common::workload(&db, 71, 10));
    assert_same(&reference, &named(&shardings), &requests);
}

#[test]
fn buffer_cache_disabled_is_still_byte_identical() {
    // capacity 0 fully disables the page cache (the degenerate
    // capacity must not divide by zero or change any byte served)
    let dir = TempDir::new("nocache");
    let options = StorageOptions {
        cache_pages: 0,
        ..StorageOptions::default()
    };
    let from_disk = common::engine(disk_round_trip(&paper_instance(), &dir, options));
    let reference = Reference::new("paper instance", paper_instance());
    assert_same(
        &reference,
        &[("disk, no page cache", &from_disk)],
        &cites(&queries()),
    );
}

/// A `load_commits`-style history over the paper instance: inserts,
/// removals, a mixed commit, and an empty commit.
const COMMITS: &str = r#"
@commit 100 GtoPdb 24
+ Family | "91" | "Melatonin" | "gpcr"
+ FC | "91" | "p1"
@commit 200 GtoPdb 25
- FC | "91" | "p1"
- Family | "91" | "Melatonin" | "gpcr"
+ Family | "92" | "Histamine" | "gpcr"
@commit 300 GtoPdb 26
"#;

fn commit_history() -> VersionedDatabase {
    let mut history = VersionedDatabase::new();
    history.commit(paper_instance(), 0, "base").unwrap();
    load_commits(&mut history, COMMITS).unwrap();
    history
}

/// A disk store over `dir` with default options.
fn disk(dir: &Path) -> Arc<dyn Storage> {
    Arc::new(DiskStorage::open(dir, StorageOptions::default()).expect("open data dir"))
}

/// Every query at every version of the commit history, in order.
fn history_walk() -> Vec<common::Request> {
    walk(&[0, 1, 2, 3], &queries())
}

#[test]
fn load_commits_history_walks_identically_after_disk_restart() {
    let dir = TempDir::new("commits");
    let history = commit_history();
    disk(&dir).sync(&history).unwrap();
    // cold restart: fresh handle, history reconstructed from the
    // manifest (v0 from its segment, v1..v3 by WAL delta replay)
    let storage = disk(&dir);
    let stats = storage.stats();
    assert_eq!(stats.versions, 4);
    assert_eq!(stats.segments, 1, "only v0 is a segment: {stats:?}");
    assert_eq!(stats.wal_records, 3, "{stats:?}");
    let reopened = VersionedCitationEngine::from_storage(storage, paper_views()).unwrap();
    // deltas survive the restart
    assert!(reopened.history().delta(1).is_some());
    let reference = Reference::versioned("load_commits history", history);
    assert_same(&reference, &[("reopened", &reopened)], &history_walk());
    assert!(
        reopened.version_stats().derived >= 1,
        "sequential walk should derive warm neighbors: {:?}",
        reopened.version_stats()
    );
}

#[test]
fn compaction_preserves_versioned_walks() {
    let dir = TempDir::new("compacted");
    let history = commit_history();
    {
        let storage = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
        storage.sync(&history).unwrap();
        storage.compact().unwrap();
        let stats = storage.stats();
        assert_eq!(stats.segments, 4, "all versions folded: {stats:?}");
        assert_eq!(stats.wal_bytes, 0, "{stats:?}");
    }
    let reopened = VersionedCitationEngine::from_storage(disk(&dir), paper_views()).unwrap();
    // every version is a whole segment now, yet each adjacent pair
    // shares every relation its commit left untouched
    assert_sharing_survives(&history, reopened.history());
    let reference = Reference::versioned("load_commits history", history);
    assert_same(&reference, &[("compacted", &reopened)], &history_walk());
}

/// Per adjacent pair of versions and per relation: one instance?
fn sharing(history: &VersionedDatabase) -> Vec<bool> {
    let snapshots: Vec<_> = history.iter().map(|(_, db)| db).collect();
    let pairs = snapshots.windows(2);
    let arcs = pairs.flat_map(|pair| pair[0].relation_arcs().zip(pair[1].relation_arcs()));
    arcs.map(|(a, b)| Arc::ptr_eq(a, b)).collect()
}

/// Every relation two neighbours in `history` share is one instance
/// in `reopened` too (the catalog must not change).
fn assert_sharing_survives(history: &VersionedDatabase, reopened: &VersionedDatabase) {
    let (before, after) = (sharing(history), sharing(reopened));
    assert!(before.contains(&true));
    let kept = before.iter().zip(&after).all(|(&b, &a)| a || !b);
    assert!(kept, "a shared relation is a copy after the reopen");
}

/// Seeded random histories — inserts, deletes, mixed and empty
/// commits, and the churn commits where the diff of two snapshots and
/// the ops as performed differ — round-trip through the disk: every
/// version reloads with the reference's rows in the reference's order,
/// its index state and its sharing, and cites byte-identically, first
/// from WAL records and again from segments after a compaction.
#[test]
fn seeded_random_histories_round_trip_through_the_disk() {
    const COMMITS: usize = 24;
    for seed in [1, 2] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut history = VersionedDatabase::new();
        history
            .commit(generate(&GeneratorConfig::tiny().with_seed(seed)), 0, "v0")
            .unwrap();
        for step in 0..COMMITS {
            random_commit(&mut history, &mut rng, step, step % 5);
        }
        let dir = TempDir::new(&format!("random-{seed}"));
        disk(&dir).sync(&history).unwrap();
        let mut engines = Vec::new();
        for (name, wal_records) in [("wal", COMMITS), ("compacted", 0)] {
            let storage = disk(&dir);
            if wal_records == 0 {
                storage.compact().unwrap();
            }
            let stats = storage.stats();
            assert_eq!(stats.wal_records, wal_records, "seed {seed}: {stats:?}");
            let reopened = storage.load_history().unwrap();
            for ((info, want), (_, got)) in history.iter().zip(reopened.iter()) {
                let indexes = |db: &Database| -> Vec<Vec<usize>> {
                    db.relation_arcs().map(|r| r.indexed_columns()).collect()
                };
                let same = got.content_eq(want) && indexes(got) == indexes(want);
                assert!(same, "seed {seed}, {name}: {info} reloads differently");
            }
            assert_sharing_survives(&history, &reopened);
            let engine = VersionedCitationEngine::new(reopened, paper_views());
            engines.push((name.to_string(), engine));
        }
        let versions: Vec<u64> = (0..history.len() as u64).collect();
        let reference = Reference::versioned(format!("random history seed={seed}"), history);
        let requests = walk(&versions, &history_queries());
        assert_same(&reference, &named(&engines), &requests);
    }
}

#[test]
fn commits_through_the_versioned_engine_persist_write_behind() {
    let dir = TempDir::new("writebehind");
    let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
    let before;
    {
        let mut engine = VersionedCitationEngine::new(commit_history(), paper_views())
            .with_storage(disk(&dir))
            .unwrap();
        engine
            .commit_with(400, "GtoPdb 27", |db| {
                db.insert("Family", tuple!["93", "Orexin-B", "gpcr"])
                    .map(|_| ())
            })
            .unwrap();
        before = render_versioned(&engine.cite_head(&q).unwrap());
        assert_eq!(engine.storage_stats().unwrap().versions, 5);
    }
    // the process "dies" here; the commit must already be durable
    let reopened = VersionedCitationEngine::from_storage(disk(&dir), paper_views()).unwrap();
    assert_eq!(reopened.history().len(), 5);
    assert_eq!(before, render_versioned(&reopened.cite_head(&q).unwrap()));
}

#[test]
fn mem_backend_mirrors_and_reloads_identically() {
    // the in-memory reference backend satisfies the same contract
    let storage = open(StorageKind::Mem, None, StorageOptions::default()).unwrap();
    let history = commit_history();
    storage.sync(&history).unwrap();
    let from_mem = VersionedCitationEngine::new(storage.load_history().unwrap(), paper_views());
    let reference = Reference::versioned("load_commits history", history);
    assert_same(&reference, &[("mem", &from_mem)], &history_walk());
}

#[test]
fn unusable_data_dir_is_a_clear_error_not_a_panic() {
    let dir = TempDir::new("file-in-the-way");
    std::fs::write(&*dir, b"not a directory").unwrap();
    let err = open(StorageKind::Disk, Some(&dir), StorageOptions::default()).unwrap_err();
    assert!(
        err.to_string().contains("storage error"),
        "unexpected error: {err}"
    );
    // disk without a directory at all is refused up front
    let err = open(StorageKind::Disk, None, StorageOptions::default()).unwrap_err();
    assert!(err.to_string().contains("--data-dir"), "{err}");
    // unknown backend names are a parse error, not a panic
    assert!("papyrus".parse::<StorageKind>().is_err());
}
