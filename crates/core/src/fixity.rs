//! Fixity — versioned citations (§4 of the paper):
//!
//! > "data may evolve over time, and citations should bring back the
//! > data as seen at the time it was cited. Thus data sources must
//! > support versioning, and citations must include timestamps or
//! > version numbers."
//!
//! [`VersionedCitationEngine`] keeps one [`CitationEngine`] per
//! committed snapshot (built lazily). A [`VersionSelector`] resolves to
//! a version and its engine, which serves an ordinary [`CiteRequest`];
//! the citation is stamped with the version id, label, and timestamp
//! it was computed against.
//!
//! A version's engine runs over the history's own snapshot, which
//! shares every relation a commit did not touch with its neighbours;
//! the engine materializes nothing of its own (a citation evaluates
//! each rewriting's expansion over the snapshot). Its first touch
//! **derives** it from the nearest warm engine whose catalog matches
//! (min `|w − v|`, ties to the lower version; before or after,
//! adjacent or not), reusing that engine's catalog-level state: view
//! definitions, inclusion matrix, policy and options. No delta is read
//! or replayed. Only when no warm engine shares the catalog is an
//! engine built from scratch. Either path cites byte-identically to an
//! engine built directly on the snapshot (the differential suite in
//! `tests/versioned_equivalence.rs` pins this); the [`VersionStats`]
//! counters report which path served each first touch.

use crate::engine::{CitationEngine, QueryCitation};
use crate::error::{CoreError, Result};
use crate::request::CiteRequest;
use fgc_query::ast::ConjunctiveQuery;
use fgc_relation::storage::Storage;
use fgc_relation::version::{VersionId, VersionInfo, VersionedDatabase};
use fgc_relation::{Clock, Database, Relation};
use fgc_views::{Json, ViewRegistry};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A citation together with its fixity stamp.
#[derive(Debug, Clone)]
pub struct VersionedCitation {
    /// The underlying citation result.
    pub citation: QueryCitation,
    /// Version id it was computed against.
    pub version: VersionId,
    /// Version label (e.g. `"GtoPdb 23"`).
    pub label: String,
    /// Version timestamp.
    pub timestamp: u64,
}

impl VersionedCitation {
    /// `citation`, stamped with the version it was computed against.
    pub fn new(info: &VersionInfo, citation: QueryCitation) -> Self {
        VersionedCitation {
            citation,
            version: info.id,
            label: info.label.clone(),
            timestamp: info.timestamp,
        }
    }

    /// The aggregate citation wrapped with the fixity fields —
    /// "citations must include timestamps or version numbers". The
    /// aggregate is nested (not merged) so the stamp stays accessible
    /// whatever shape the policy produced.
    pub fn stamped_aggregate(&self) -> Json {
        Json::from_pairs([
            ("Version", Json::str(self.label.clone())),
            ("VersionId", Json::Int(self.version as i64)),
            ("Timestamp", Json::Int(self.timestamp as i64)),
            ("Citation", self.citation.aggregate.clone()),
        ])
    }
}

/// Which committed version a citation is computed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionSelector {
    /// The newest version.
    Head,
    /// The version with this id.
    Id(VersionId),
    /// "The data as seen at" a timestamp: the latest version not after
    /// it.
    At(u64),
}

/// How a versioned engine has served its versions so far — the
/// derived-vs-rebuilt accounting surfaced as the `fixity` block of
/// `GET /stats` and counted by `claim_8_*` in `tests/reproduce.rs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionStats {
    /// Committed versions in the history.
    pub versions: usize,
    /// Versions whose engine is currently warm (built and cached).
    pub warm_engines: usize,
    /// [`VersionedCitationEngine::resolve`] calls answered from the
    /// warm map.
    pub hits: u64,
    /// First touches derived from a warm engine of the same catalog,
    /// of any version — before or after, adjacent or not.
    pub derived: u64,
    /// First touches built from scratch: no warm engine shared the
    /// snapshot's catalog.
    pub rebuilt: u64,
    /// Always 0: nothing increments it. Kept because
    /// `benchmark/src/layers.rs:663` reads it.
    pub shared: u64,
    /// Warm engines evicted by the retention policy (see
    /// [`VersionedCitationEngine::with_engine_capacity`]).
    pub engine_evictions: u64,
    /// Warm-engine retention capacity (`0` = unbounded).
    pub engine_capacity: usize,
}

/// Approximate memory footprint of the history plus all warm
/// engines, deduplicating structurally-shared relations by `Arc`
/// identity. `relation_refs - unique_relations` is the number of
/// references that cost a pointer instead of a copy — the figure
/// that shows resident memory grows with O(changed), not
/// O(versions × |DB|).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionMemoryStats {
    /// Bytes held by distinct relation instances (rows + indexes).
    pub resident_bytes: usize,
    /// Relation references across snapshots and warm engines.
    pub relation_refs: usize,
    /// Distinct relation instances behind those references.
    pub unique_relations: usize,
    /// References served by sharing (`relation_refs -
    /// unique_relations`).
    pub shared_relations: usize,
}

/// Relaxed counters behind [`VersionStats`] (same contract as
/// [`crate::cache::CacheStats`]: exact when quiescent, monotone under
/// concurrency).
#[derive(Debug, Default)]
struct VersionCounters {
    hits: AtomicU64,
    derived: AtomicU64,
    rebuilt: AtomicU64,
    engine_evictions: AtomicU64,
}

/// The warm-engine map, retained second-chance ([`Clock`]). Evicted
/// engines are derived or built again on demand — eviction never
/// loses information, only warmth, because every engine is a
/// deterministic function of the history. `engine_capacity` 0 means
/// unbounded here, where the ring's own 0 means "store nothing".
fn warm_map(engine_capacity: usize) -> RwLock<Clock<VersionId, Arc<CitationEngine>>> {
    RwLock::new(Clock::new(match engine_capacity {
        0 => usize::MAX,
        bounded => bounded,
    }))
}

/// A citation engine over an evolving, versioned database.
///
/// Citation entry points take `&self`: per-snapshot engines are built
/// lazily behind a lock and shared via `Arc`, so one versioned engine
/// can serve concurrent historical citations. Only
/// [`commit_with`](Self::commit_with) (which appends a version)
/// needs `&mut self`. Every per-version engine runs with the default
/// policy and options; a [`CiteRequest`]'s overrides carry any other.
pub struct VersionedCitationEngine {
    history: VersionedDatabase,
    registry: ViewRegistry,
    engines: RwLock<Clock<VersionId, Arc<CitationEngine>>>,
    engine_capacity: usize,
    counters: VersionCounters,
    /// Write-behind persistence: after every successful
    /// [`commit_with`](Self::commit_with) the whole history is synced
    /// (the backend persists only versions it has not seen — syncs
    /// are idempotent and incremental).
    storage: Option<Arc<dyn Storage>>,
}

impl VersionedCitationEngine {
    /// Build over a version history. Engines per snapshot are
    /// constructed lazily on first citation.
    pub fn new(history: VersionedDatabase, registry: ViewRegistry) -> Self {
        VersionedCitationEngine {
            history,
            registry,
            engines: warm_map(0),
            engine_capacity: 0,
            counters: VersionCounters::default(),
            storage: None,
        }
    }

    /// Reopen an engine from a persisted history — the disk cold
    /// start: the backend's manifest is replayed into a
    /// [`VersionedDatabase`] (no loader involved) and the backend
    /// stays attached for subsequent commits.
    pub fn from_storage(storage: Arc<dyn Storage>, registry: ViewRegistry) -> Result<Self> {
        let history = storage.load_history()?;
        let mut engine = VersionedCitationEngine::new(history, registry);
        engine.storage = Some(storage);
        Ok(engine)
    }

    /// Attach a storage backend (builder style) and persist the
    /// current history through it immediately. Subsequent
    /// [`commit_with`](Self::commit_with) calls sync write-behind:
    /// the commit happens in memory first, then the new version is
    /// appended to the backend.
    pub fn with_storage(mut self, storage: Arc<dyn Storage>) -> Result<Self> {
        storage.sync(&self.history)?;
        self.storage = Some(storage);
        Ok(self)
    }

    /// The attached storage backend, if any.
    pub fn storage(&self) -> Option<&Arc<dyn Storage>> {
        self.storage.as_ref()
    }

    /// Bound the warm-engine map: at most `capacity` per-version
    /// engines stay warm, evicted second-chance (CLOCK) — recently
    /// cited versions survive, cold ones fall out and are derived
    /// again on their next touch. `0` (the default) keeps every
    /// engine warm, which is only safe for short histories: without a
    /// bound the map grows with every distinct version ever cited.
    /// Builder style: replaces the map, dropping any warm engines.
    pub fn with_engine_capacity(mut self, capacity: usize) -> Self {
        self.engine_capacity = capacity;
        self.engines = warm_map(capacity);
        self
    }

    /// Derived-vs-rebuilt serving counters.
    pub fn version_stats(&self) -> VersionStats {
        VersionStats {
            versions: self.history.len(),
            warm_engines: self.engines.read().expect("engine map poisoned").len(),
            hits: self.counters.hits.load(Ordering::Relaxed),
            derived: self.counters.derived.load(Ordering::Relaxed),
            rebuilt: self.counters.rebuilt.load(Ordering::Relaxed),
            shared: 0,
            engine_evictions: self.counters.engine_evictions.load(Ordering::Relaxed),
            engine_capacity: self.engine_capacity,
        }
    }

    /// Approximate resident footprint of the history snapshots and
    /// every warm engine's store, deduplicated by `Arc` identity —
    /// structurally shared relations are counted (and sized) once.
    pub fn memory_stats(&self) -> VersionMemoryStats {
        fn tally(
            db: &Database,
            seen: &mut HashSet<*const Relation>,
            stats: &mut VersionMemoryStats,
        ) {
            for arc in db.relation_arcs() {
                stats.relation_refs += 1;
                if seen.insert(Arc::as_ptr(arc)) {
                    stats.unique_relations += 1;
                    stats.resident_bytes += arc.approx_bytes();
                }
            }
        }
        let mut seen: HashSet<*const Relation> = HashSet::new();
        let mut stats = VersionMemoryStats::default();
        for (_, db) in self.history.iter() {
            tally(db, &mut seen, &mut stats);
        }
        let map = self.engines.read().expect("engine map poisoned");
        for (_, engine) in map.iter() {
            tally(engine.database(), &mut seen, &mut stats);
        }
        stats.shared_relations = stats.relation_refs - stats.unique_relations;
        stats
    }

    /// The version history.
    pub fn history(&self) -> &VersionedDatabase {
        &self.history
    }

    /// Append a new version (see
    /// [`VersionedDatabase::commit_with`]).
    pub fn commit_with<F>(
        &mut self,
        timestamp: u64,
        label: impl Into<String>,
        mutate: F,
    ) -> Result<VersionId>
    where
        F: FnOnce(&mut fgc_relation::Database) -> fgc_relation::error::Result<()>,
    {
        let id = self.history.commit_with(timestamp, label, mutate)?;
        // Write-behind: the in-memory commit is the source of truth;
        // sync persists exactly the versions the backend has not seen.
        if let Some(storage) = &self.storage {
            storage.sync(&self.history)?;
        }
        Ok(id)
    }

    /// The version `at` selects and the engine serving it, derived
    /// or built on first touch. An unknown id, a timestamp before the
    /// first version, or an empty history is a structured
    /// [`CoreError::NoSuchVersion`].
    pub fn resolve(&self, at: VersionSelector) -> Result<(&VersionInfo, Arc<CitationEngine>)> {
        let found = match at {
            VersionSelector::Head => self.history.head().ok_or_else(|| "empty history".into()),
            VersionSelector::Id(id) => self
                .history
                .snapshot(id)
                .map_err(|_| format!("version id {id}")),
            VersionSelector::At(t) => self
                .history
                .snapshot_at(t)
                .ok_or_else(|| format!("timestamp {t}")),
        };
        let (info, snapshot) = found.map_err(CoreError::NoSuchVersion)?;
        let version = info.id;
        if let Some(engine) = self
            .engines
            .read()
            .expect("engine map poisoned")
            .get(&version)
        {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((info, Arc::clone(engine)));
        }
        // Build outside any lock: a rebuild validates every view and
        // computes the inclusion matrix, and holding the write lock
        // for it would stall concurrent citations against warm
        // versions. Both paths are deterministic functions of the
        // history, so when two threads race the loser's work is
        // wasted, not divergent; the first insert wins so all callers
        // share one (cache-warm) engine.
        let (engine, counter) = match self.nearest_warm(version, snapshot) {
            Some(donor) => (donor.rebase(Arc::clone(snapshot))?, &self.counters.derived),
            None => (
                CitationEngine::build(Arc::clone(snapshot), self.registry.clone())?,
                &self.counters.rebuilt,
            ),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let engine = Arc::new(engine);
        let mut map = self.engines.write().expect("engine map poisoned");
        if let Some(existing) = map.get(&version) {
            // every engine for a version runs over that snapshot's own
            // relation instances, whichever path built it
            debug_assert!(
                existing
                    .database()
                    .relation_arcs()
                    .zip(engine.database().relation_arcs())
                    .all(|(a, b)| Arc::ptr_eq(a, b)),
                "racing builders of version {version} hold different relations"
            );
            return Ok((info, Arc::clone(existing)));
        }
        let evicted = map.insert(version, Arc::clone(&engine));
        drop(map); // an evicted engine is freed outside the lock
        if evicted.is_some() {
            self.counters
                .engine_evictions
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok((info, engine))
    }

    /// The warm engine nearest `version` (min `|w − v|`, ties to the
    /// lower version) among those whose catalog is `snapshot`'s — the
    /// donor a first touch derives from.
    fn nearest_warm(&self, version: VersionId, snapshot: &Database) -> Option<Arc<CitationEngine>> {
        let map = self.engines.read().expect("engine map poisoned");
        map.iter()
            .filter(|(_, engine)| engine.database().catalog() == snapshot.catalog())
            .min_by_key(|(w, _)| (w.abs_diff(version), **w))
            .map(|(_, engine)| Arc::clone(engine))
    }

    /// The engine serving `version` ([`Self::resolve`] by id). Public
    /// so tests can inspect per-version cache counters.
    pub fn engine_for_version(&self, version: VersionId) -> Result<Arc<CitationEngine>> {
        Ok(self.resolve(VersionSelector::Id(version))?.1)
    }

    /// Serve `request` against the version `at` selects: that
    /// version's engine answers it through
    /// [`CitationEngine::cite_request`], overrides included, and the
    /// citation is stamped with the version.
    pub fn cite(&self, at: VersionSelector, request: &CiteRequest) -> Result<VersionedCitation> {
        let (info, engine) = self.resolve(at)?;
        Ok(VersionedCitation::new(
            info,
            engine.cite_request(request)?.citation,
        ))
    }

    /// How a tuple's citation evolved across all versions — §4's
    /// "the choice of proper citation for output tuples may change".
    pub fn citation_timeline(&self, q: &ConjunctiveQuery) -> Result<Vec<(VersionId, Json)>> {
        let request = CiteRequest::query(q.clone());
        self.history
            .iter()
            .map(|(info, _)| {
                let cited = self.cite(VersionSelector::Id(info.id), &request)?;
                Ok((info.id, cited.stamped_aggregate()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::VersionSelector::{At, Head, Id};
    use super::*;
    use fgc_query::parse_query;
    use fgc_relation::schema::RelationSchema;
    use fgc_relation::{tuple, DataType, Database};
    use fgc_views::{CitationFunction, CitationView};

    fn cite(
        e: &VersionedCitationEngine,
        at: VersionSelector,
        q: &ConjunctiveQuery,
    ) -> Result<VersionedCitation> {
        e.cite(at, &CiteRequest::query(q.clone()))
    }

    fn base_db() -> Database {
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
        db
    }

    fn registry() -> ViewRegistry {
        let mut reg = ViewRegistry::new();
        reg.add(CitationView::new(
            parse_query("lambda F. V1(F, N, Ty) :- Family(F, N, Ty)").unwrap(),
            parse_query("lambda F. CV1(F, N) :- Family(F, N, Ty)").unwrap(),
            CitationFunction::from_spec(vec![
                CitationFunction::scalar("ID", 0),
                CitationFunction::scalar("Name", 1),
            ]),
        ))
        .unwrap();
        reg
    }

    fn history() -> VersionedDatabase {
        let mut h = VersionedDatabase::new();
        h.commit(base_db(), 100, "v23").unwrap();
        h.commit_with(200, "v24", |db| {
            db.insert("Family", tuple!["12", "Orexin", "gpcr"])
                .map(|_| ())
        })
        .unwrap();
        h
    }

    #[test]
    fn cite_at_old_version_sees_old_data() {
        let e = VersionedCitationEngine::new(history(), registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        let old = cite(&e, Id(0), &q).unwrap();
        assert_eq!(old.citation.tuples.len(), 1);
        assert_eq!(old.label, "v23");
        let new = cite(&e, Id(1), &q).unwrap();
        assert_eq!(new.citation.tuples.len(), 2);
    }

    #[test]
    fn a_timestamp_selects_the_latest_version_not_after_it() {
        let e = VersionedCitationEngine::new(history(), registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        assert_eq!(cite(&e, At(150), &q).unwrap().version, 0);
        assert_eq!(cite(&e, At(500), &q).unwrap().version, 1);
        assert!(matches!(
            cite(&e, At(50), &q).unwrap_err(),
            CoreError::NoSuchVersion(_)
        ));
    }

    #[test]
    fn stamped_aggregate_includes_fixity_fields() {
        let e = VersionedCitationEngine::new(history(), registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        let cited = cite(&e, Head, &q).unwrap();
        let stamped = cited.stamped_aggregate();
        assert_eq!(stamped.get("Version"), Some(&Json::str("v24")));
        assert_eq!(stamped.get("Timestamp"), Some(&Json::Int(200)));
    }

    #[test]
    fn timeline_tracks_citation_evolution() {
        let e = VersionedCitationEngine::new(history(), registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        let timeline = e.citation_timeline(&q).unwrap();
        assert_eq!(timeline.len(), 2);
        assert_ne!(timeline[0].1, timeline[1].1);
    }

    #[test]
    fn commit_through_engine() {
        let mut e = VersionedCitationEngine::new(history(), registry());
        let id = e
            .commit_with(300, "v25", |db| {
                db.insert("Family", tuple!["13", "Kinase", "enzyme"])
                    .map(|_| ())
            })
            .unwrap();
        assert_eq!(id, 2);
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        assert_eq!(cite(&e, Head, &q).unwrap().citation.tuples.len(), 3);
    }

    #[test]
    fn empty_history_errors() {
        let e = VersionedCitationEngine::new(VersionedDatabase::new(), registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        assert!(matches!(
            cite(&e, Head, &q).unwrap_err(),
            CoreError::NoSuchVersion(_)
        ));
        assert!(matches!(
            e.resolve(Head).unwrap_err(),
            CoreError::NoSuchVersion(_)
        ));
    }

    #[test]
    fn unknown_version_is_a_structured_error() {
        let e = VersionedCitationEngine::new(history(), registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        assert!(matches!(
            cite(&e, Id(99), &q).unwrap_err(),
            CoreError::NoSuchVersion(_)
        ));
    }

    #[test]
    fn warm_neighbor_derives_instead_of_rebuilding() {
        let e = VersionedCitationEngine::new(history(), registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        cite(&e, Id(0), &q).unwrap(); // rebuild (nothing warm)
        cite(&e, Id(1), &q).unwrap(); // borrow from warm v0
        let stats = e.version_stats();
        assert_eq!(stats.rebuilt, 1, "{stats:?}");
        assert_eq!(stats.derived, 1, "{stats:?}");
        assert_eq!(stats.warm_engines, 2);
        assert_eq!(stats.versions, 2);
        // second touch hits the warm map
        cite(&e, Id(1), &q).unwrap();
        assert!(e.version_stats().hits >= 1);
    }

    #[test]
    fn derived_engine_cites_identically_to_rebuilt() {
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        let h = history();
        let incremental = VersionedCitationEngine::new(h.clone(), registry());
        for v in 0..2 {
            cite(&incremental, Id(0), &q).unwrap(); // keep the donor warm
            let a = cite(&incremental, Id(v), &q).unwrap().citation;
            // the reference: an engine built directly on the snapshot
            let (_, snapshot) = h.snapshot(v).unwrap();
            let b = CitationEngine::new((**snapshot).clone(), registry())
                .unwrap()
                .cite(&q)
                .unwrap();
            assert_eq!(a.aggregate.to_compact(), b.aggregate.to_compact());
            assert_eq!(a.tuples.len(), b.tuples.len());
            for (ta, tb) in a.tuples.iter().zip(&b.tuples) {
                assert_eq!(ta.tuple, tb.tuple);
                assert_eq!(ta.citation.to_compact(), tb.citation.to_compact());
            }
        }
        let stats = incremental.version_stats();
        assert_eq!((stats.rebuilt, stats.derived), (1, 1), "{stats:?}");
    }

    #[test]
    fn out_of_order_first_touch_rebuilds_then_later_versions_derive() {
        let mut h = history();
        h.commit_with(300, "v25", |db| {
            db.insert("Family", tuple!["13", "Kinase", "enzyme"])
                .map(|_| ())
        })
        .unwrap();
        let e = VersionedCitationEngine::new(h, registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        // first touch of v1 has nothing warm to borrow from: rebuild
        cite(&e, Id(1), &q).unwrap();
        // v2 borrows from the now-warm v1
        cite(&e, Id(2), &q).unwrap();
        let stats = e.version_stats();
        assert_eq!(stats.rebuilt, 1, "{stats:?}");
        assert_eq!(stats.derived, 1, "{stats:?}");
    }

    #[test]
    fn snapshot_commits_borrow_when_the_catalog_is_unchanged() {
        let mut h = history();
        h.commit(base_db(), 300, "whole-snapshot").unwrap();
        let e = VersionedCitationEngine::new(h, registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        cite(&e, Id(1), &q).unwrap();
        // no delta, but the catalog matches the warm v1: borrow
        let whole = cite(&e, Id(2), &q).unwrap();
        assert_eq!(whole.citation.tuples.len(), 1);
        let stats = e.version_stats();
        assert_eq!((stats.rebuilt, stats.derived), (1, 1), "{stats:?}");
    }

    #[test]
    fn empty_or_view_untouched_commits_derive_like_any_other() {
        let mut db = base_db();
        db.create_relation(
            RelationSchema::with_names("Unrelated", &[("x", DataType::Int)], &[]).unwrap(),
        )
        .unwrap();
        let mut h = VersionedDatabase::new();
        h.commit(db, 100, "v0").unwrap();
        h.commit_with(200, "noop", |_| Ok(())).unwrap();
        h.commit_with(300, "off-view", |db| {
            db.insert("Unrelated", tuple![1]).map(|_| ())
        })
        .unwrap();
        h.commit_with(400, "on-view", |db| {
            db.insert("Family", tuple!["12", "Orexin", "gpcr"])
                .map(|_| ())
        })
        .unwrap();
        let e = VersionedCitationEngine::new(h, registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        for v in 0..4 {
            cite(&e, Id(v), &q).unwrap();
        }
        // an engine materializes nothing of its own, so whether a
        // commit touched what a view reads makes no difference
        let stats = e.version_stats();
        assert_eq!((stats.rebuilt, stats.derived, stats.shared), (1, 3, 0));
        // derived engines answer correctly
        assert_eq!(cite(&e, Id(1), &q).unwrap().citation.tuples.len(), 1);
        assert_eq!(cite(&e, Id(3), &q).unwrap().citation.tuples.len(), 2);
    }

    #[test]
    fn first_touch_borrows_from_the_nearest_warm_engine_ties_to_the_lower() {
        // Family (which V1 reads) changes only at v2; every other
        // commit touches a relation no view or citation query reads
        let mut db = base_db();
        db.create_relation(
            RelationSchema::with_names("Unrelated", &[("x", DataType::Int)], &[]).unwrap(),
        )
        .unwrap();
        let mut h = VersionedDatabase::new();
        h.commit(db, 0, "v0").unwrap();
        for i in 1..5i64 {
            h.commit_with(i as u64 * 100, format!("v{i}"), |db| {
                let inserted = if i == 2 {
                    db.insert("Family", tuple!["12", "Orexin", "gpcr"])
                } else {
                    db.insert("Unrelated", tuple![i])
                };
                inserted.map(|_| ())
            })
            .unwrap();
        }
        let e = VersionedCitationEngine::new(h, registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        // (rebuilt, derived, shared) after citing `v`. Which donor
        // lends cannot be seen: every warm engine of one catalog hands
        // on the same catalog-level state
        let touch = |v: VersionId| {
            cite(&e, Id(v), &q).unwrap();
            let stats = e.version_stats();
            (stats.rebuilt, stats.derived, stats.shared)
        };
        assert_eq!(touch(0), (1, 0, 0));
        // backward across a gap, and in between
        assert_eq!(touch(4), (1, 1, 0));
        assert_eq!(touch(3), (1, 2, 0));
        assert_eq!(touch(1), (1, 3, 0));
        assert_eq!(touch(2), (1, 4, 0));
        // every version cites its own snapshot
        for v in 0..5 {
            let tuples = cite(&e, Id(v), &q).unwrap().citation.tuples.len();
            assert_eq!(tuples, if v < 2 { 1 } else { 2 }, "v{v}");
        }
    }

    #[test]
    fn engine_capacity_bounds_warm_map_with_clock_eviction() {
        let mut h = history();
        h.commit_with(300, "v25", |db| {
            db.insert("Family", tuple!["13", "Kinase", "enzyme"])
                .map(|_| ())
        })
        .unwrap();
        let e = VersionedCitationEngine::new(h, registry()).with_engine_capacity(2);
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        cite(&e, Id(0), &q).unwrap(); // rebuild
        cite(&e, Id(1), &q).unwrap(); // borrow from warm v0
        cite(&e, Id(2), &q).unwrap(); // borrow from warm v1, evict one
        let stats = e.version_stats();
        assert_eq!(stats.warm_engines, 2, "{stats:?}");
        assert_eq!(stats.engine_evictions, 1, "{stats:?}");
        assert_eq!(stats.engine_capacity, 2);
        // eviction loses only warmth: every version still answers,
        // borrowed again on demand, and the bound holds
        for v in 0..3 {
            let cited = cite(&e, Id(v), &q).unwrap();
            assert_eq!(cited.citation.tuples.len(), (v as usize) + 1);
        }
        let after = e.version_stats();
        assert!(after.warm_engines <= 2, "{after:?}");
        assert!(
            after.rebuilt + after.derived + after.shared > stats.rebuilt + stats.derived,
            "evicted versions must be borrowed again: {after:?}"
        );
    }

    #[test]
    fn unbounded_capacity_keeps_every_engine_warm() {
        let e = VersionedCitationEngine::new(history(), registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        cite(&e, Id(0), &q).unwrap();
        cite(&e, Id(1), &q).unwrap();
        let stats = e.version_stats();
        assert_eq!(stats.warm_engines, 2);
        assert_eq!(stats.engine_evictions, 0);
        assert_eq!(stats.engine_capacity, 0);
    }

    #[test]
    fn memory_stats_count_structural_sharing() {
        let e = VersionedCitationEngine::new(history(), registry());
        let baseline = e.memory_stats();
        assert!(baseline.resident_bytes > 0);
        assert_eq!(
            baseline.shared_relations,
            baseline.relation_refs - baseline.unique_relations
        );
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        cite(&e, Id(0), &q).unwrap();
        cite(&e, Id(1), &q).unwrap();
        let warm = e.memory_stats();
        // warm engines hold their snapshots' relation instances
        assert!(
            warm.relation_refs > warm.unique_relations,
            "warm engines should structurally share relations: {warm:?}"
        );
        assert!(warm.resident_bytes >= baseline.resident_bytes);
    }

    #[test]
    fn storage_round_trip_reproduces_citations() {
        use fgc_relation::storage::{DiskStorage, Storage, StorageOptions};
        let dir = std::env::temp_dir().join(format!("fgc-fixity-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let storage: Arc<dyn Storage> =
            Arc::new(DiskStorage::open(&dir, StorageOptions::default()).unwrap());
        let mut e = VersionedCitationEngine::new(history(), registry())
            .with_storage(Arc::clone(&storage))
            .unwrap();
        e.commit_with(300, "v25", |db| {
            db.insert("Family", tuple!["13", "Kinase", "enzyme"])
                .map(|_| ())
        })
        .unwrap();
        assert_eq!(e.storage().unwrap().stats().versions, 3);
        // "restart": a fresh handle over the same directory, without
        // the original history
        let storage = Arc::new(DiskStorage::open(&dir, StorageOptions::default()).unwrap());
        let reopened = VersionedCitationEngine::from_storage(storage, registry()).unwrap();
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        for v in 0..3 {
            let a = cite(&e, Id(v), &q).unwrap();
            let b = cite(&reopened, Id(v), &q).unwrap();
            assert_eq!(
                a.stamped_aggregate().to_compact(),
                b.stamped_aggregate().to_compact()
            );
        }
        // the reopened engine can keep committing through the store
        let mut reopened = reopened;
        reopened
            .commit_with(400, "v26", |db| {
                db.insert("Family", tuple!["14", "Histamine", "gpcr"])
                    .map(|_| ())
            })
            .unwrap();
        assert_eq!(reopened.storage().unwrap().stats().versions, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn structural_commit_falls_back_to_rebuild() {
        let mut h = history();
        h.commit_with(300, "schema-change", |db| {
            db.create_relation(
                RelationSchema::with_names("Extra", &[("x", DataType::Int)], &[]).unwrap(),
            )
        })
        .unwrap();
        let e = VersionedCitationEngine::new(h, registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        cite(&e, Id(1), &q).unwrap();
        cite(&e, Id(2), &q).unwrap();
        let stats = e.version_stats();
        // a new catalog cannot borrow, even from a warm neighbor
        assert_eq!(
            (stats.rebuilt, stats.derived, stats.shared),
            (2, 0, 0),
            "{stats:?}"
        );
        // yet both engines read the one Family relation the versions
        // share
        let store = |v| e.engine_for_version(v).unwrap().database().clone();
        assert!(Arc::ptr_eq(
            store(1).relation_arc("Family").unwrap(),
            store(2).relation_arc("Family").unwrap()
        ));
    }
}
