//! Fixity — versioned citations (§4 of the paper):
//!
//! > "data may evolve over time, and citations should bring back the
//! > data as seen at the time it was cited. Thus data sources must
//! > support versioning, and citations must include timestamps or
//! > version numbers."
//!
//! A version is an argument to a citation, not an engine. A
//! [`VersionSelector`] resolves to a committed snapshot, and
//! [`CitationEngine::at`] serves an ordinary [`CiteRequest`] over it;
//! the citation is stamped with the version id, label, and timestamp
//! it was computed against.
//!
//! [`VersionedCitationEngine`] keeps one engine per distinct catalog
//! in the history (usually one), built on first use. Every version of
//! that catalog is served through its catalog-level state: view
//! definitions, inclusion matrix, policy, options and caches. The
//! caches are keyed by relation instance, so versions share every
//! plan and token citation computed over relations their commits did
//! not touch, and nothing is reused over a relation that changed.
//! Every version cites byte-identically to an engine built directly
//! on its snapshot (the differential suite in
//! `tests/versioned_equivalence.rs` pins this).

use crate::engine::{CitationEngine, QueryCitation};
use crate::error::{CoreError, Result};
use crate::request::CiteRequest;
use fgc_query::ast::ConjunctiveQuery;
use fgc_relation::storage::Storage;
use fgc_relation::version::{VersionId, VersionInfo, VersionedDatabase};
use fgc_relation::{Database, Relation};
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

/// How a versioned engine has served its versions so far, surfaced
/// as the `fixity` block of `GET /stats` and counted by `claim_8_*` in
/// `tests/reproduce.rs`. The fields that always read 0 stay for
/// `benchmark/src/layers.rs:553–674`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionStats {
    /// Committed versions in the history.
    pub versions: usize,
    /// Always 0.
    pub warm_engines: usize,
    /// [`VersionedCitationEngine::resolve`] calls served by an
    /// existing catalog engine.
    pub hits: u64,
    /// Always 0.
    pub derived: u64,
    /// Catalog engines built: one per distinct catalog resolved, or
    /// the engine a [`VersionedCitationEngine::from_engine`] history
    /// was seeded with.
    pub rebuilt: u64,
    /// Always 0.
    pub shared: u64,
    /// Always 0.
    pub engine_evictions: u64,
    /// Always 0.
    pub engine_capacity: usize,
}

/// Approximate memory footprint of the history plus the catalog
/// engines' stores, deduplicating structurally-shared relations by `Arc`
/// identity. `relation_refs - unique_relations` is the number of
/// references that cost a pointer instead of a copy — the figure
/// that shows resident memory grows with O(changed), not
/// O(versions × |DB|).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionMemoryStats {
    /// Bytes held by distinct relation instances (rows + indexes).
    pub resident_bytes: usize,
    /// Relation references across snapshots and catalog engines.
    pub relation_refs: usize,
    /// Distinct relation instances behind those references.
    pub unique_relations: usize,
    /// References served by sharing (`relation_refs -
    /// unique_relations`).
    pub shared_relations: usize,
}

/// A citation engine over an evolving, versioned database.
///
/// Citation entry points take `&self`: catalog engines are built
/// lazily behind a lock and shared via `Arc`, so one versioned engine
/// can serve concurrent historical citations. Only
/// [`commit_with`](Self::commit_with) (which appends a version)
/// needs `&mut self`. Every version is served with the catalog
/// engine's policy and options — the defaults, unless the history was
/// seeded with a configured engine ([`Self::from_engine`]); a
/// [`CiteRequest`]'s overrides carry any other.
#[derive(Debug)]
pub struct VersionedCitationEngine {
    history: VersionedDatabase,
    registry: ViewRegistry,
    /// One engine per distinct catalog seen, each over the first
    /// snapshot resolved with it.
    catalogs: RwLock<Vec<Arc<CitationEngine>>>,
    /// Relaxed counters behind [`VersionStats`] (same contract as
    /// [`crate::cache::CacheStats`]: exact when quiescent, monotone
    /// under concurrency).
    hits: AtomicU64,
    rebuilt: AtomicU64,
    /// Write-behind persistence: after every successful
    /// [`commit_with`](Self::commit_with) the whole history is synced
    /// (the backend persists only versions it has not seen — syncs
    /// are idempotent and incremental).
    storage: Option<Arc<dyn Storage>>,
}

impl VersionedCitationEngine {
    /// Build over a version history. Catalog engines are constructed
    /// lazily on first citation.
    pub fn new(history: VersionedDatabase, registry: ViewRegistry) -> Self {
        VersionedCitationEngine {
            history,
            registry,
            catalogs: RwLock::new(Vec::new()),
            hits: AtomicU64::new(0),
            rebuilt: AtomicU64::new(0),
            storage: None,
        }
    }

    /// A one-version history served by `engine` itself: version 0,
    /// label `base`, timestamp 0, over the engine's own relation
    /// instances (no row is copied). The engine is the history's
    /// catalog engine, counted as built, so every version — the one
    /// there is — is served with its policy, options and caches.
    pub fn from_engine(engine: Arc<CitationEngine>) -> Self {
        let mut history = VersionedDatabase::new();
        history
            .commit((**engine.database()).clone(), 0, "base")
            .expect("a first commit has no timestamp to precede");
        VersionedCitationEngine {
            history,
            registry: engine.registry().clone(),
            catalogs: RwLock::new(vec![engine]),
            hits: AtomicU64::new(0),
            rebuilt: AtomicU64::new(1),
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

    /// Returns `self` unchanged: versions are served through one
    /// engine per catalog, so there is no warm-engine map to bound.
    /// Kept for `benchmark/src/stack.rs:158`.
    pub fn with_engine_capacity(self, _capacity: usize) -> Self {
        self
    }

    /// Catalog-engine serving counters.
    pub fn version_stats(&self) -> VersionStats {
        VersionStats {
            versions: self.history.len(),
            hits: self.hits.load(Ordering::Relaxed),
            rebuilt: self.rebuilt.load(Ordering::Relaxed),
            ..VersionStats::default()
        }
    }

    /// Approximate resident footprint of the history snapshots and
    /// every catalog engine's store, deduplicated by `Arc` identity —
    /// structurally shared relations are counted (and sized) once.
    pub fn memory_stats(&self) -> VersionMemoryStats {
        let catalogs = self.catalogs.read().expect("catalog engines poisoned");
        let snapshots = self.history.iter().map(|(_, db)| db);
        let stores = snapshots.chain(catalogs.iter().map(|e| e.database()));
        let mut seen: HashSet<*const Relation> = HashSet::new();
        let mut stats = VersionMemoryStats::default();
        for arc in stores.flat_map(|db| db.relation_arcs()) {
            stats.relation_refs += 1;
            if seen.insert(Arc::as_ptr(arc)) {
                stats.unique_relations += 1;
                stats.resident_bytes += arc.approx_bytes();
            }
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

    /// The version `at` selects and an engine over its snapshot:
    /// [`CitationEngine::at`] on the engine of the snapshot's catalog,
    /// built on first use. An unknown id, a timestamp before the first
    /// version, or an empty history is a structured
    /// [`CoreError::NoSuchVersion`].
    pub fn resolve(&self, at: VersionSelector) -> Result<(&VersionInfo, CitationEngine)> {
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
        let engine = self.catalog_engine(snapshot)?.at(Arc::clone(snapshot))?;
        Ok((info, engine))
    }

    /// The engine of `snapshot`'s catalog, built over it on first use.
    /// Racing first users build once: the build runs under the write
    /// lock, and the losers find the winner's engine there.
    fn catalog_engine(&self, snapshot: &Arc<Database>) -> Result<Arc<CitationEngine>> {
        let of_catalog = |engines: &[Arc<CitationEngine>]| {
            let found = engines
                .iter()
                .find(|e| e.database().catalog() == snapshot.catalog());
            if found.is_some() {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            found.map(Arc::clone)
        };
        if let Some(engine) = of_catalog(&self.catalogs.read().expect("catalog engines poisoned")) {
            return Ok(engine);
        }
        let mut engines = self.catalogs.write().expect("catalog engines poisoned");
        if let Some(engine) = of_catalog(&engines) {
            return Ok(engine);
        }
        // a later catalog's engine is built under the first one's
        // policy and options, which a seeded history configured
        let engine = Arc::new(match engines.first() {
            Some(first) => first.at(Arc::clone(snapshot))?,
            None => CitationEngine::build(Arc::clone(snapshot), self.registry.clone())?,
        });
        self.rebuilt.fetch_add(1, Ordering::Relaxed);
        engines.push(Arc::clone(&engine));
        Ok(engine)
    }

    /// The engine serving `version` ([`Self::resolve`] by id). Kept
    /// for `benchmark/src/layers.rs:135`.
    pub fn engine_for_version(&self, version: VersionId) -> Result<Arc<CitationEngine>> {
        Ok(Arc::new(self.resolve(VersionSelector::Id(version))?.1))
    }

    /// Serve `request` against the version `at` selects: an engine
    /// over that version's snapshot answers it through
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
        cite(&e, Id(0), &q).unwrap(); // builds the catalog engine
        cite(&e, Id(1), &q).unwrap(); // served through it
        let stats = e.version_stats();
        assert_eq!((stats.rebuilt, stats.hits), (1, 1), "{stats:?}");
        assert_eq!(stats.versions, 2);
        cite(&e, Id(1), &q).unwrap();
        assert_eq!(e.version_stats().hits, 2);
    }

    #[test]
    fn derived_engine_cites_identically_to_rebuilt() {
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        let h = history();
        let incremental = VersionedCitationEngine::new(h.clone(), registry());
        for v in 0..2 {
            cite(&incremental, Id(0), &q).unwrap();
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
        assert_eq!((stats.rebuilt, stats.hits), (1, 3), "{stats:?}");
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
        // the first touch, at v1, builds the catalog engine
        cite(&e, Id(1), &q).unwrap();
        // v2 is served through it
        cite(&e, Id(2), &q).unwrap();
        let stats = e.version_stats();
        assert_eq!((stats.rebuilt, stats.hits), (1, 1), "{stats:?}");
    }

    #[test]
    fn snapshot_commits_borrow_when_the_catalog_is_unchanged() {
        let mut h = history();
        h.commit(base_db(), 300, "whole-snapshot").unwrap();
        let e = VersionedCitationEngine::new(h, registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        cite(&e, Id(1), &q).unwrap();
        // no delta, but the catalog matches v1's: the same engine
        let whole = cite(&e, Id(2), &q).unwrap();
        assert_eq!(whole.citation.tuples.len(), 1);
        let stats = e.version_stats();
        assert_eq!((stats.rebuilt, stats.hits), (1, 1), "{stats:?}");
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
        // whether a commit touched what a view reads makes no
        // difference to which engine serves it
        let stats = e.version_stats();
        assert_eq!((stats.rebuilt, stats.hits), (1, 3), "{stats:?}");
        // every version answers from its own snapshot
        assert_eq!(cite(&e, Id(1), &q).unwrap().citation.tuples.len(), 1);
        assert_eq!(cite(&e, Id(3), &q).unwrap().citation.tuples.len(), 2);
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
        // the catalog engine holds its snapshot's relation instances
        assert!(
            warm.relation_refs > warm.unique_relations,
            "the catalog engine should structurally share relations: {warm:?}"
        );
        assert!(warm.resident_bytes >= baseline.resident_bytes);
    }

    #[test]
    fn an_engine_serves_as_a_one_version_history() {
        let db = Arc::new(base_db());
        let engine = Arc::new(
            CitationEngine::build(Arc::clone(&db), registry())
                .unwrap()
                .with_policy(crate::Policy::union_all()),
        );
        let e = VersionedCitationEngine::from_engine(Arc::clone(&engine));
        let stats = e.version_stats();
        assert_eq!((stats.versions, stats.rebuilt, stats.hits), (1, 1, 0));
        let (info, head) = e.history().head().unwrap();
        assert_eq!(
            (info.id, info.label.as_str(), info.timestamp),
            (0, "base", 0)
        );
        // the history holds the engine's own relation instances
        assert!(Arc::ptr_eq(
            head.relation_arc("Family").unwrap(),
            db.relation_arc("Family").unwrap()
        ));
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        let cited = cite(&e, Head, &q).unwrap();
        assert_eq!(cited.label, "base");
        // served through the engine: its policy, its caches
        let direct = engine.cite(&q).unwrap();
        assert_eq!(cited.citation.aggregate, direct.aggregate);
        let (_, served) = e.resolve(Head).unwrap();
        assert!(std::ptr::eq(served.policy(), engine.policy()));
        assert_eq!(served.plan_stats(), engine.plan_stats());
        assert_eq!(e.version_stats().rebuilt, 1);
    }

    #[test]
    fn a_new_catalog_keeps_the_seeded_engines_policy() {
        use crate::{CombineOp, EngineOptions, RewriteMode};
        let engine = CitationEngine::build(Arc::new(base_db()), registry())
            .unwrap()
            .with_policy(crate::Policy::union_all())
            .with_options(EngineOptions {
                mode: RewriteMode::Exhaustive,
                ..EngineOptions::default()
            });
        let mut e = VersionedCitationEngine::from_engine(Arc::new(engine));
        e.commit_with(100, "schema-change", |db| {
            db.create_relation(
                RelationSchema::with_names("Extra", &[("x", DataType::Int)], &[]).unwrap(),
            )
        })
        .unwrap();
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        for v in 0..2 {
            let (_, served) = e.resolve(Id(v)).unwrap();
            assert_eq!(served.policy().times, CombineOp::Union, "version {v}");
            assert!(cite(&e, Id(v), &q).unwrap().citation.exhaustive, "v{v}");
        }
        // version 1's catalog has an engine of its own
        assert_eq!(e.version_stats().rebuilt, 2);
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
        // a new catalog builds a second engine
        assert_eq!((stats.rebuilt, stats.hits), (2, 0), "{stats:?}");
        // yet both engines read the one Family relation the versions
        // share
        let store = |v| e.engine_for_version(v).unwrap().database().clone();
        assert!(Arc::ptr_eq(
            store(1).relation_arc("Family").unwrap(),
            store(2).relation_arc("Family").unwrap()
        ));
    }
}
