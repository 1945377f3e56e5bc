//! Fixity — versioned citations (§4 of the paper):
//!
//! > "data may evolve over time, and citations should bring back the
//! > data as seen at the time it was cited. Thus data sources must
//! > support versioning, and citations must include timestamps or
//! > version numbers."
//!
//! [`VersionedCitationEngine`] keeps one [`CitationEngine`] per
//! committed snapshot (built lazily) and stamps every citation with
//! the version id, label, and timestamp it was computed against.
//!
//! First touch of a version no longer always pays O(|DB|): when the
//! previous version's engine is warm and the commit recorded a
//! [`fgc_relation::DatabaseDelta`], the new engine is **derived** by
//! replaying the delta ([`CitationEngine::derive_with_delta`]) —
//! updating the relation store, recomputing only affected view
//! extents, and invalidating only the touched entries of the token
//! and plan caches. Derivation falls back to a full rebuild when no
//! warm neighbor exists, the delta is structural, or it exceeds the
//! [`derive threshold`](VersionedCitationEngine::with_derive_threshold).
//! Either path produces byte-identical citations (the differential
//! suite in `tests/versioned_equivalence.rs` pins this); the
//! [`VersionStats`] counters report which path served each first
//! touch.

use crate::engine::{CitationEngine, EngineOptions, QueryCitation};
use crate::error::{CoreError, Result};
use crate::policy::Policy;
use fgc_query::ast::ConjunctiveQuery;
use fgc_relation::storage::{Storage, StorageStats};
use fgc_relation::version::{VersionId, VersionedDatabase};
use fgc_relation::{Clock, Database, Relation};
use fgc_views::{Json, ViewRegistry};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Default maximum delta size (effective ops) the engine will replay
/// instead of rebuilding. Curated-database commits are far smaller.
/// The op count is not the whole story — removals compact their
/// relation, so the engine additionally falls back when a delta's
/// size-weighted removal cost exceeds a few database scans (see
/// [`VersionedCitationEngine::with_derive_threshold`]).
pub const DEFAULT_DERIVE_THRESHOLD: usize = 4096;

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

/// How a versioned engine has served its versions so far — the
/// derived-vs-rebuilt accounting surfaced as the `fixity` block of
/// `GET /stats` and counted by `claim_8_*` in `tests/reproduce.rs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionStats {
    /// Committed versions in the history.
    pub versions: usize,
    /// Versions whose engine is currently warm (built and cached).
    pub warm_engines: usize,
    /// `engine_for` calls answered from the warm map.
    pub hits: u64,
    /// First touches served by delta replay from a warm neighbor.
    pub derived: u64,
    /// First touches served by a full rebuild from the snapshot.
    pub rebuilt: u64,
    /// Rebuilds forced although a delta existed (structural delta,
    /// over-threshold delta, or replay mismatch) — a warm-neighbor
    /// miss is counted only under `rebuilt`.
    pub fallbacks: u64,
    /// First touches whose delta was empty or touched no view — the
    /// engine is pure structural sharing of its warm neighbor (no
    /// extent recomputation, caches carried whole). A subset of
    /// what `derived` would otherwise count, reported separately.
    pub shared: u64,
    /// Warm engines evicted by the retention policy (see
    /// [`VersionedCitationEngine::with_engine_capacity`]).
    pub engine_evictions: u64,
    /// Current derivation threshold (max delta ops to replay).
    pub derive_threshold: usize,
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
    /// Relation references across snapshots, warm engines, and their
    /// extent stores.
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
    fallbacks: AtomicU64,
    shared: AtomicU64,
    engine_evictions: AtomicU64,
}

/// The warm-engine map, retained second-chance ([`Clock`]). Evicted
/// engines are rebuilt or re-derived on demand — eviction never loses
/// information, only warmth, because every engine is a deterministic
/// function of the history. `engine_capacity` 0 means unbounded here,
/// where the ring's own 0 means "store nothing".
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
/// needs `&mut self`.
pub struct VersionedCitationEngine {
    history: VersionedDatabase,
    registry: ViewRegistry,
    policy: Policy,
    options: EngineOptions,
    engines: RwLock<Clock<VersionId, Arc<CitationEngine>>>,
    derive_threshold: usize,
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
            policy: Policy::default(),
            options: EngineOptions::default(),
            engines: warm_map(0),
            derive_threshold: DEFAULT_DERIVE_THRESHOLD,
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

    /// Counters of the attached storage backend — `None` for a purely
    /// in-memory engine with no backend attached.
    pub fn storage_stats(&self) -> Option<StorageStats> {
        self.storage.as_ref().map(|s| s.stats())
    }

    /// Replace the policy for subsequently-built engines.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the engine options.
    pub fn with_options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    /// Replace the derivation threshold: deltas with more effective
    /// ops than this rebuild from the snapshot instead of replaying.
    /// `0` disables derivation entirely (every first touch rebuilds —
    /// the rebuild reference). Independently of this knob, removal-heavy
    /// deltas rebuild when their size-weighted removal cost (each
    /// removal compacts its relation, O(rows)) exceeds a few database
    /// scans, since replay would then be slower than the rebuild it
    /// replaces.
    pub fn with_derive_threshold(mut self, max_ops: usize) -> Self {
        self.derive_threshold = max_ops;
        self
    }

    /// Bound the warm-engine map: at most `capacity` per-version
    /// engines stay warm, evicted second-chance (CLOCK) — recently
    /// cited versions survive, cold ones fall out and are re-derived
    /// or rebuilt on their next touch. `0` (the default) keeps every
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
            fallbacks: self.counters.fallbacks.load(Ordering::Relaxed),
            shared: self.counters.shared.load(Ordering::Relaxed),
            engine_evictions: self.counters.engine_evictions.load(Ordering::Relaxed),
            derive_threshold: self.derive_threshold,
            engine_capacity: self.engine_capacity,
        }
    }

    /// Approximate resident footprint of the history snapshots and
    /// every warm engine (base store plus materialized extent store),
    /// deduplicated by `Arc` identity — structurally shared relations
    /// are counted (and sized) once.
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
            if let Some(extent) = engine.extent_database_if_built() {
                tally(&extent, &mut seen, &mut stats);
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

    /// Resolve a version id, mapping the relation-layer error to the
    /// engine's structured [`CoreError::NoSuchVersion`].
    fn snapshot_of(
        &self,
        version: VersionId,
    ) -> Result<(
        &fgc_relation::version::VersionInfo,
        &Arc<fgc_relation::Database>,
    )> {
        self.history
            .snapshot(version)
            .map_err(|_| CoreError::NoSuchVersion(format!("version id {version}")))
    }

    /// Try to derive `version`'s engine by replaying its commit delta
    /// onto the previous version's warm engine. `None` (with the
    /// fallback accounting) sends the caller to the rebuild path; the
    /// flag is `true` when the delta was empty or touched no view, so
    /// derivation was pure structural sharing.
    fn derive_from_neighbor(&self, version: VersionId) -> Option<(Arc<CitationEngine>, bool)> {
        let delta = self.history.delta(version)?;
        // threshold 0 is a full disable (even empty deltas rebuild)
        if self.derive_threshold == 0
            || delta.is_structural()
            || delta.op_count() > self.derive_threshold
        {
            self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let parent = self
            .engines
            .read()
            .expect("engine map poisoned")
            .get(&(version - 1))
            .map(Arc::clone)?;
        // The op threshold alone is blind to removal cost:
        // `Relation::remove` keeps insertion order by compacting, so
        // each removal is O(relation size). Weight removals by their
        // relation's size and rebuild when replay would cost several
        // database scans — the point past which the rebuild's own
        // O(|DB|) work is the cheaper path.
        let parent_db = parent.database();
        let removal_cost: usize = delta
            .relations()
            .map(|rd| {
                let removes = rd
                    .ops
                    .iter()
                    .filter(|op| matches!(op, fgc_relation::DeltaOp::Remove(_)))
                    .count();
                let rows = parent_db.relation(&rd.relation).map_or(0, |r| r.len());
                removes.saturating_mul(rows)
            })
            .fold(0usize, usize::saturating_add);
        if removal_cost > parent_db.total_tuples().saturating_mul(4) {
            self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let shared = delta.is_empty() || !parent.delta_affects_views(delta);
        match parent.derive_with_delta(delta) {
            Ok(engine) => Some((Arc::new(engine), shared)),
            Err(_) => {
                // replay mismatch: evidence the warm neighbor diverged
                // from its snapshot — rebuild from the source of truth
                self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The engine serving `version`, derived or (re)built on first
    /// touch. Public so servers can pin the head engine and tests can
    /// inspect per-version cache counters.
    pub fn engine_for_version(&self, version: VersionId) -> Result<Arc<CitationEngine>> {
        if let Some(engine) = self
            .engines
            .read()
            .expect("engine map poisoned")
            .get(&version)
        {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(engine));
        }
        // Build outside any lock: derivation is O(delta) and rebuild
        // O(|DB|), and holding the write lock for either would stall
        // concurrent citations against warm versions. Both paths are
        // deterministic functions of the history, so when two threads
        // race — even one deriving while the other rebuilds — the
        // loser's work is wasted, not divergent; the first insert
        // wins so all callers share one (cache-warm) engine. The
        // debug assertion below checks the agreement that reasoning
        // relies on.
        let engine = match self.derive_from_neighbor(version) {
            Some((derived, shared)) => {
                if shared {
                    self.counters.shared.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.counters.derived.fetch_add(1, Ordering::Relaxed);
                }
                derived
            }
            None => {
                let (_, db) = self.snapshot_of(version)?;
                let mut built = CitationEngine::new((**db).clone(), self.registry.clone())?
                    .with_policy(self.policy.clone())
                    .with_options(self.options);
                // Hand the backend handle down so per-version serving
                // stats can report storage counters; derived engines
                // inherit it from their parent.
                if let Some(storage) = &self.storage {
                    built = built.with_storage(Arc::clone(storage));
                }
                let rebuilt = Arc::new(built);
                self.counters.rebuilt.fetch_add(1, Ordering::Relaxed);
                rebuilt
            }
        };
        let mut map = self.engines.write().expect("engine map poisoned");
        if let Some(existing) = map.get(&version) {
            debug_assert!(
                existing.database().content_eq(engine.database()),
                "racing builders derived different databases for version {version}"
            );
            return Ok(Arc::clone(existing));
        }
        let evicted = map.insert(version, Arc::clone(&engine));
        drop(map); // an evicted engine is freed outside the lock
        if evicted.is_some() {
            self.counters
                .engine_evictions
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(engine)
    }

    /// The engine serving the newest version.
    pub fn head_engine(&self) -> Result<Arc<CitationEngine>> {
        let version = self
            .history
            .head()
            .map(|(info, _)| info.id)
            .ok_or_else(|| CoreError::NoSuchVersion("empty history".into()))?;
        self.engine_for_version(version)
    }

    /// Cite against a specific version.
    pub fn cite_at_version(
        &self,
        version: VersionId,
        q: &ConjunctiveQuery,
    ) -> Result<VersionedCitation> {
        let (label, timestamp) = {
            let (info, _) = self.snapshot_of(version)?;
            (info.label.clone(), info.timestamp)
        };
        let citation = self.engine_for_version(version)?.cite(q)?;
        Ok(VersionedCitation {
            citation,
            version,
            label,
            timestamp,
        })
    }

    /// Cite against "the data as seen at" a timestamp: the latest
    /// version not after `at`.
    pub fn cite_at_time(&self, at: u64, q: &ConjunctiveQuery) -> Result<VersionedCitation> {
        let version = self
            .history
            .snapshot_at(at)
            .map(|(info, _)| info.id)
            .ok_or_else(|| CoreError::NoSuchVersion(format!("timestamp {at}")))?;
        self.cite_at_version(version, q)
    }

    /// Cite against the newest version.
    pub fn cite_head(&self, q: &ConjunctiveQuery) -> Result<VersionedCitation> {
        let version = self
            .history
            .head()
            .map(|(info, _)| info.id)
            .ok_or_else(|| CoreError::NoSuchVersion("empty history".into()))?;
        self.cite_at_version(version, q)
    }

    /// How a tuple's citation evolved across all versions — §4's
    /// "the choice of proper citation for output tuples may change".
    pub fn citation_timeline(&self, q: &ConjunctiveQuery) -> Result<Vec<(VersionId, Json)>> {
        let versions: Vec<VersionId> = self.history.iter().map(|(info, _)| info.id).collect();
        let mut timeline = Vec::with_capacity(versions.len());
        for v in versions {
            let cited = self.cite_at_version(v, q)?;
            timeline.push((v, cited.stamped_aggregate()));
        }
        Ok(timeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgc_query::parse_query;
    use fgc_relation::schema::RelationSchema;
    use fgc_relation::{tuple, DataType, Database};
    use fgc_views::{CitationFunction, CitationView};

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
        let old = e.cite_at_version(0, &q).unwrap();
        assert_eq!(old.citation.tuples.len(), 1);
        assert_eq!(old.label, "v23");
        let new = e.cite_at_version(1, &q).unwrap();
        assert_eq!(new.citation.tuples.len(), 2);
    }

    #[test]
    fn cite_at_time_resolves_version() {
        let e = VersionedCitationEngine::new(history(), registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        assert_eq!(e.cite_at_time(150, &q).unwrap().version, 0);
        assert_eq!(e.cite_at_time(500, &q).unwrap().version, 1);
        assert!(matches!(
            e.cite_at_time(50, &q).unwrap_err(),
            CoreError::NoSuchVersion(_)
        ));
    }

    #[test]
    fn stamped_aggregate_includes_fixity_fields() {
        let e = VersionedCitationEngine::new(history(), registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        let cited = e.cite_head(&q).unwrap();
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
        assert_eq!(e.cite_head(&q).unwrap().citation.tuples.len(), 3);
    }

    #[test]
    fn empty_history_errors() {
        let e = VersionedCitationEngine::new(VersionedDatabase::new(), registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        assert!(matches!(
            e.cite_head(&q).unwrap_err(),
            CoreError::NoSuchVersion(_)
        ));
        assert!(matches!(
            e.head_engine().unwrap_err(),
            CoreError::NoSuchVersion(_)
        ));
    }

    #[test]
    fn unknown_version_is_a_structured_error() {
        let e = VersionedCitationEngine::new(history(), registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        assert!(matches!(
            e.cite_at_version(99, &q).unwrap_err(),
            CoreError::NoSuchVersion(_)
        ));
    }

    #[test]
    fn warm_neighbor_derives_instead_of_rebuilding() {
        let e = VersionedCitationEngine::new(history(), registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        e.cite_at_version(0, &q).unwrap(); // rebuild (no delta for v0)
        e.cite_at_version(1, &q).unwrap(); // derive from warm v0
        let stats = e.version_stats();
        assert_eq!(stats.rebuilt, 1, "{stats:?}");
        assert_eq!(stats.derived, 1, "{stats:?}");
        assert_eq!(stats.fallbacks, 0, "{stats:?}");
        assert_eq!(stats.warm_engines, 2);
        assert_eq!(stats.versions, 2);
        // second touch hits the warm map
        e.cite_at_version(1, &q).unwrap();
        assert!(e.version_stats().hits >= 1);
    }

    #[test]
    fn derived_engine_cites_identically_to_rebuilt() {
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        let incremental = VersionedCitationEngine::new(history(), registry());
        let rebuild_only =
            VersionedCitationEngine::new(history(), registry()).with_derive_threshold(0);
        for v in 0..2 {
            incremental.cite_at_version(0, &q).unwrap(); // keep neighbor warm
            let a = incremental.cite_at_version(v, &q).unwrap();
            let b = rebuild_only.cite_at_version(v, &q).unwrap();
            assert_eq!(
                a.stamped_aggregate().to_compact(),
                b.stamped_aggregate().to_compact()
            );
            assert_eq!(a.citation.tuples.len(), b.citation.tuples.len());
            for (ta, tb) in a.citation.tuples.iter().zip(&b.citation.tuples) {
                assert_eq!(ta.tuple, tb.tuple);
                assert_eq!(ta.citation.to_compact(), tb.citation.to_compact());
            }
        }
        assert!(incremental.version_stats().derived >= 1);
        let stats = rebuild_only.version_stats();
        assert_eq!(stats.derived, 0);
        assert_eq!(stats.rebuilt, 2);
        // threshold 0 counts the skipped replayable delta as fallback
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.derive_threshold, 0);
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
        // first touch of v1 has no warm neighbor: rebuild
        e.cite_at_version(1, &q).unwrap();
        // v2 derives from the now-warm v1
        e.cite_at_version(2, &q).unwrap();
        let stats = e.version_stats();
        assert_eq!(stats.rebuilt, 1, "{stats:?}");
        assert_eq!(stats.derived, 1, "{stats:?}");
        assert_eq!(stats.fallbacks, 0, "{stats:?}");
    }

    #[test]
    fn snapshot_commits_have_no_delta_and_rebuild() {
        let mut h = history();
        h.commit(base_db(), 300, "whole-snapshot").unwrap();
        let e = VersionedCitationEngine::new(h, registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        e.cite_at_version(1, &q).unwrap();
        e.cite_at_version(2, &q).unwrap(); // no delta: rebuild despite warm v1
        let stats = e.version_stats();
        assert_eq!(stats.rebuilt, 2);
        assert_eq!(stats.derived, 0);
    }

    #[test]
    fn removal_heavy_commit_falls_back_even_under_the_op_threshold() {
        let mut db = base_db();
        for i in 0..50 {
            db.insert(
                "Family",
                tuple![format!("b{i}"), format!("Bulk-{i}"), "gpcr"],
            )
            .unwrap();
        }
        let mut h = VersionedDatabase::new();
        h.commit(db, 100, "v0").unwrap();
        h.commit_with(200, "purge", |db| {
            let doomed: Vec<_> = db
                .relation("Family")?
                .rows()
                .iter()
                .take(25)
                .cloned()
                .collect();
            for t in doomed {
                db.remove("Family", &t)?;
            }
            Ok(())
        })
        .unwrap();
        // 25 ops is far under the op threshold, but 25 removals × ~50
        // rows ≫ 4×|DB|: replay would out-cost the rebuild
        let e = VersionedCitationEngine::new(h, registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        e.cite_at_version(0, &q).unwrap();
        let cited = e.cite_at_version(1, &q).unwrap();
        assert_eq!(cited.citation.tuples.len(), 26);
        let stats = e.version_stats();
        assert_eq!(stats.derived, 0, "{stats:?}");
        assert_eq!(stats.fallbacks, 1, "{stats:?}");
        assert_eq!(stats.rebuilt, 2, "{stats:?}");
    }

    #[test]
    fn empty_or_view_untouched_commits_share_instead_of_deriving() {
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
            e.cite_at_version(v, &q).unwrap();
        }
        let stats = e.version_stats();
        assert_eq!(stats.rebuilt, 1, "{stats:?}");
        assert_eq!(stats.shared, 2, "{stats:?}");
        assert_eq!(stats.derived, 1, "{stats:?}");
        assert_eq!(stats.fallbacks, 0, "{stats:?}");
        // shared engines still answer correctly
        assert_eq!(e.cite_at_version(1, &q).unwrap().citation.tuples.len(), 1);
        assert_eq!(e.cite_at_version(3, &q).unwrap().citation.tuples.len(), 2);
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
        e.cite_at_version(0, &q).unwrap(); // rebuild
        e.cite_at_version(1, &q).unwrap(); // derive from warm v0
        e.cite_at_version(2, &q).unwrap(); // derive from warm v1, evict one
        let stats = e.version_stats();
        assert_eq!(stats.warm_engines, 2, "{stats:?}");
        assert_eq!(stats.engine_evictions, 1, "{stats:?}");
        assert_eq!(stats.engine_capacity, 2);
        // eviction loses only warmth: every version still answers,
        // re-derived or rebuilt on demand, and the bound holds
        for v in 0..3 {
            let cited = e.cite_at_version(v, &q).unwrap();
            assert_eq!(cited.citation.tuples.len(), (v as usize) + 1);
        }
        let after = e.version_stats();
        assert!(after.warm_engines <= 2, "{after:?}");
        assert!(
            after.rebuilt + after.derived + after.shared > stats.rebuilt + stats.derived,
            "evicted versions must be rebuilt or re-derived: {after:?}"
        );
    }

    #[test]
    fn unbounded_capacity_keeps_every_engine_warm() {
        let e = VersionedCitationEngine::new(history(), registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        e.cite_at_version(0, &q).unwrap();
        e.cite_at_version(1, &q).unwrap();
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
        e.cite_at_version(0, &q).unwrap();
        e.cite_at_version(1, &q).unwrap();
        let warm = e.memory_stats();
        // warm engines share relation instances with their snapshots
        // (and, after derivation, with their parent engine)
        assert!(
            warm.relation_refs > warm.unique_relations,
            "warm engines should structurally share relations: {warm:?}"
        );
        assert!(warm.resident_bytes >= baseline.resident_bytes);
    }

    #[test]
    fn storage_round_trip_reproduces_citations() {
        use fgc_relation::storage::{MemStorage, Storage};
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let mut e = VersionedCitationEngine::new(history(), registry())
            .with_storage(Arc::clone(&storage))
            .unwrap();
        e.commit_with(300, "v25", |db| {
            db.insert("Family", tuple!["13", "Kinase", "enzyme"])
                .map(|_| ())
        })
        .unwrap();
        assert_eq!(e.storage_stats().unwrap().versions, 3);
        // "restart": reopen from the backend without the original history
        let reopened = VersionedCitationEngine::from_storage(storage, registry()).unwrap();
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        for v in 0..3 {
            let a = e.cite_at_version(v, &q).unwrap();
            let b = reopened.cite_at_version(v, &q).unwrap();
            assert_eq!(
                a.stamped_aggregate().to_compact(),
                b.stamped_aggregate().to_compact()
            );
        }
        // the reopened engine can keep committing through the backend
        let mut reopened = reopened;
        reopened
            .commit_with(400, "v26", |db| {
                db.insert("Family", tuple!["14", "Histamine", "gpcr"])
                    .map(|_| ())
            })
            .unwrap();
        assert_eq!(reopened.storage_stats().unwrap().versions, 4);
    }

    #[test]
    fn structural_commit_falls_back_to_rebuild() {
        use fgc_relation::schema::RelationSchema;
        let mut h = history();
        h.commit_with(300, "schema-change", |db| {
            db.create_relation(
                RelationSchema::with_names("Extra", &[("x", DataType::Int)], &[]).unwrap(),
            )
        })
        .unwrap();
        let e = VersionedCitationEngine::new(h, registry());
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        e.cite_at_version(1, &q).unwrap();
        e.cite_at_version(2, &q).unwrap();
        let stats = e.version_stats();
        assert_eq!(stats.derived, 0);
        assert_eq!(stats.fallbacks, 1, "{stats:?}");
    }
}
