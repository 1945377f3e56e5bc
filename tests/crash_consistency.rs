//! Crash-consistency sweep over the disk backend.
//!
//! Pass 1 runs a representative workload (segment writes, WAL
//! appends, fsyncs, manifest renames, compaction) over a fault-plane
//! VFS in observe-all mode to enumerate every filesystem mutation the
//! workload performs. Pass 2 then replays the workload once per
//! (mutation site, hit number, crash mode), killing the "process" at
//! exactly that operation, cold-reopens the directory with the plain
//! production VFS, and asserts the store is a clean prefix of the
//! expected version chain — at least everything the workload saw a
//! successful sync for, never a panic, and never silently corrupted
//! data.

mod common;

use common::TempDir;
use fgcite::fault::{FaultAction, FaultPlane, Trigger};
use fgcite::relation::storage::{DiskStorage, FaultVfs, Storage, StorageOptions};
use fgcite::relation::tuple;
use fgcite::relation::{DataType, Database, RelationSchema, VersionedDatabase};
use std::path::Path;
use std::sync::Arc;

fn base() -> Database {
    let mut db = Database::new();
    db.create_relation(
        RelationSchema::with_names(
            "Family",
            &[
                ("FID", DataType::Str),
                ("FName", DataType::Str),
                ("Type", DataType::Str),
            ],
            &["FID"],
        )
        .unwrap(),
    )
    .unwrap();
    db.insert("Family", tuple!["11", "Calcitonin", "gpcr"])
        .unwrap();
    db.insert("Family", tuple!["12", "Orexin", "gpcr"]).unwrap();
    db.build_default_indexes().unwrap();
    db
}

/// One step of the workload: extend `h` to `versions` versions.
/// Deterministic, so every replay builds the identical chain.
fn extend_to(h: &mut VersionedDatabase, versions: usize) {
    while h.len() < versions {
        let id = h.len() as u64;
        if id == 0 {
            h.commit(base(), 100, "v0").unwrap();
        } else {
            h.commit_with(100 + id, format!("v{id}"), move |db| {
                db.insert(
                    "Family",
                    tuple![format!("f{id}"), format!("Fam{id}"), "gpcr"],
                )
                .map(|_| ())
            })
            .unwrap();
        }
    }
}

/// Run the workload against `storage`. After each successful sync the
/// caller-visible durable floor advances; the returned value is the
/// number of versions the last successful sync covered (0 if none).
/// Stops at the first storage error (the simulated crash).
fn run_workload(storage: &DiskStorage) -> (usize, VersionedDatabase) {
    let mut h = VersionedDatabase::new();
    let mut durable = 0usize;
    // v0 (segment) + two deltas, a manual compaction, one more delta:
    // touches segment writes, WAL appends + fsyncs, manifest
    // tmp/rename/dir-fsync, and the compaction truncate.
    for (versions, compact_after) in [(1, false), (2, false), (3, true), (4, false)] {
        extend_to(&mut h, versions);
        if storage.sync(&h).is_err() {
            return (durable, h);
        }
        durable = versions;
        if compact_after && storage.compact().is_err() {
            return (durable, h);
        }
    }
    (durable, h)
}

/// Cold-reopen `dir` with the production VFS and verify the persisted
/// chain is a clean prefix of `expected` that is at least `floor`
/// versions long. A structured open/load error is also acceptable —
/// what is *not* acceptable is a panic or a chain whose content
/// differs from the expected versions.
fn verify_recovery(dir: &Path, expected: &VersionedDatabase, floor: usize, site: &str) {
    let storage = match DiskStorage::open(dir, StorageOptions::default()) {
        Ok(s) => s,
        Err(e) => panic!("{site}: a fault-free reopen must succeed, got {e}"),
    };
    let loaded = match storage.load_history() {
        Ok(h) => h,
        Err(e) => panic!("{site}: recovery lost the durable floor ({floor} versions): {e}"),
    };
    assert!(
        loaded.len() >= floor,
        "{site}: recovered {} versions, durable floor is {floor}",
        loaded.len()
    );
    assert!(
        loaded.len() <= expected.len(),
        "{site}: recovered {} versions, workload only built {}",
        loaded.len(),
        expected.len()
    );
    for ((ia, da), (ib, db)) in expected.iter().zip(loaded.iter()) {
        assert_eq!(ia, ib, "{site}: version metadata diverged");
        assert!(
            da.content_eq(db),
            "{site}: version {} content diverged after recovery",
            ia.id
        );
    }
}

/// Enumerate the workload's filesystem mutations via observe-all.
fn enumerate_sites() -> Vec<(String, u64)> {
    let dir = TempDir::new("crash-enumerate");
    let plane = Arc::new(FaultPlane::new());
    plane.set_observe_all(true);
    let vfs = Arc::new(FaultVfs::over_real(Arc::clone(&plane)));
    let storage = DiskStorage::open_with_vfs(&dir, StorageOptions::default(), vfs).unwrap();
    let (durable, h) = run_workload(&storage);
    assert_eq!(durable, h.len(), "fault-free run must fully persist");
    plane
        .snapshot()
        .into_iter()
        // Only mutations can corrupt state; a torn WAL tail and a
        // flipped byte in a WAL record, a segment file or the
        // `MANIFEST` on the read path are the checksum tests in
        // `crates/relation/src/storage/disk.rs`.
        .filter(|p| {
            let op = p.name.split('.').nth(1).unwrap_or("");
            matches!(
                op,
                "write" | "append" | "truncate" | "fsync" | "fsync-dir" | "rename" | "remove"
            )
        })
        .map(|p| (p.name, p.hits))
        .collect()
}

#[test]
fn every_crash_point_recovers_to_a_durable_prefix() {
    let sites = enumerate_sites();
    assert!(
        sites.len() >= 6,
        "expected the workload to exercise many mutation sites, got {sites:?}"
    );
    let mut swept = 0u32;
    for (point, hits) in &sites {
        let torn_applies =
            point.starts_with("storage.write.") || point.starts_with("storage.append.");
        for n in 1..=*hits {
            let mut modes = vec![FaultAction::CrashBefore, FaultAction::CrashAfter];
            if torn_applies {
                modes.push(FaultAction::Torn);
            }
            for mode in modes {
                let dir = TempDir::new("crash-sweep");
                let plane = Arc::new(FaultPlane::new());
                plane.arm(point, mode, Trigger::Nth(n));
                let vfs = Arc::new(FaultVfs::over_real(Arc::clone(&plane)));
                let site = format!("{point}#{n} {mode:?}");
                // The crash may land inside `open` itself; that run
                // simply never persists anything and the directory
                // must still reopen cleanly.
                let (floor, expected) =
                    match DiskStorage::open_with_vfs(&dir, StorageOptions::default(), vfs) {
                        Ok(storage) => run_workload(&storage),
                        Err(_) => {
                            let mut h = VersionedDatabase::new();
                            extend_to(&mut h, 4);
                            (0, h)
                        }
                    };
                verify_recovery(&dir, &expected, floor, &site);
                swept += 1;
            }
        }
    }
    // The sweep must actually have killed the workload somewhere —
    // a trivially-passing sweep would mean the VFS seam is bypassed.
    assert!(swept > 30, "only {swept} crash scenarios swept");
}

#[test]
fn injected_io_errors_surface_as_structured_errors_and_heal() {
    // An io-error (not a crash) at every mutation site: sync returns
    // a structured error, the process keeps running, and a retry
    // (fault disarmed) fully recovers without a reopen.
    let sites = enumerate_sites();
    for (point, _) in &sites {
        let dir = TempDir::new("crash-ioerr");
        let plane = Arc::new(FaultPlane::new());
        plane.arm(point, FaultAction::Error, Trigger::Nth(1));
        let vfs = Arc::new(FaultVfs::over_real(Arc::clone(&plane)));
        let storage = match DiskStorage::open_with_vfs(&dir, StorageOptions::default(), vfs) {
            // Probe-path faults fail open with a structured error.
            Err(_) => continue,
            Ok(s) => s,
        };
        let _ = run_workload(&storage);
        // Whatever failed mid-way, a retry of the full chain succeeds
        // (the fault was one-shot) and the result matches.
        let mut full = VersionedDatabase::new();
        extend_to(&mut full, 4);
        storage
            .sync(&full)
            .unwrap_or_else(|e| panic!("{point}: retry after one-shot io-error failed: {e}"));
        verify_recovery(&dir, &full, full.len(), point);
    }
}
