//! The citation engine — Definitions 3.1–3.4 end to end.
//!
//! Pipeline for `cite(D, Q, V)`:
//!
//! 1. rewrite `Q` using the citation views (exhaustively, or with the
//!    pruned preference search — the engine's *mode*); this half reads
//!    only view definitions and schemas (§3.2);
//! 2. in one data-plane fetch, evaluate `Q` over `D` (the result set
//!    being cited) and every rewriting's extent query;
//! 3. per rewriting `Q'` and output tuple `t`, take the bindings
//!    `β_t` and build the citation polynomial
//!    `Σ_B Π_i token(V_i, B_i)` (Defs. 3.1–3.2) — symbolically, over
//!    [`CiteToken`]s;
//! 4. combine the per-rewriting polynomials with `+R` (Def. 3.3);
//! 5. normalize under the policy's order (§3.4);
//! 6. interpret: tokens valuate to `F_V(C_V(...))` (memoized), the
//!    operations to the policy's union/join choices (§3.3);
//! 7. aggregate across tuples with `Agg`, including the neutral
//!    global citations (Def. 3.4).

use crate::cache::{CacheStats, CitationCache};
use crate::error::{CoreError, Result};
use crate::plan_cache::{PlanCache, PlanCacheStats};
use crate::policy::{interpret_expr, Policy};
use crate::request::{CiteRequest, CiteResponse, QuerySpec};
use crate::token::CiteToken;
use fgc_obs::{StageSet, Trace, CITE_STAGES};
use fgc_query::ast::{Atom, ConjunctiveQuery, Term};
use fgc_query::eval::EvalOptions;
use fgc_query::{evaluate_grouped_plan_with, evaluate_plan_with, parse_sql, Binding, QueryPlan};
use fgc_relation::schema::RelationSchema;
use fgc_relation::sharded::{Partition, ShardKeySpec, ShardStats};
use fgc_relation::storage::{Storage, StorageStats};
use fgc_relation::{DataType, Database, DatabaseDelta, Tuple, Value};
use fgc_rewrite::{best_rewritings, enumerate_rewritings, RewriteOptions, Rewriting, ViewDefs};
use fgc_semiring::{CitationExpr, CommutativeSemiring, Monomial, Polynomial};
use fgc_views::{Json, ViewRegistry};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use std::time::Instant;

/// How rewritings are obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RewriteMode {
    /// Enumerate all rewritings — the formal Def. 3.3 semantics
    /// (`+R` over *all* rewritings).
    Exhaustive,
    /// Iterative-deepening preference search (§3.4's pruned search).
    /// The citation is built from the best-scoring rewritings only.
    #[default]
    Pruned,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineOptions {
    /// Budgets for the rewriting search.
    pub rewrite: RewriteOptions,
    /// Exhaustive vs pruned.
    pub mode: RewriteMode,
}

/// The citation for one output tuple.
#[derive(Debug, Clone)]
pub struct TupleCitation {
    /// The output tuple.
    pub tuple: Tuple,
    /// The symbolic citation expression (after normalization).
    pub expr: CitationExpr<String, CiteToken>,
    /// The interpreted citation, shared by every tuple of the result
    /// whose normalized expression is equal.
    pub citation: Arc<Json>,
}

/// Rewritings labelled `Q1, Q2, ...` plus the (exhaustive,
/// unsatisfiable) flags of the search that produced them.
type LabelledRewritings = (Vec<(String, Rewriting)>, bool, bool);

/// Per-tuple symbolic citation expressions.
type SymbolicCitations = HashMap<Tuple, CitationExpr<String, CiteToken>>;

/// The citation for a whole query result (Def. 3.4).
#[derive(Debug, Clone)]
pub struct QueryCitation {
    /// Per-tuple citations, in result order.
    pub tuples: Vec<TupleCitation>,
    /// The aggregate citation for the result set.
    pub aggregate: Json,
    /// The rewritings that contributed (label → rewriting).
    pub rewritings: Vec<(String, Rewriting)>,
    /// Whether the rewriting search was exhaustive.
    pub exhaustive: bool,
    /// Whether the query was syntactically unsatisfiable.
    pub unsatisfiable: bool,
}

impl QueryCitation {
    /// Total number of monomials across all tuple citations — the
    /// symbolic citation size the §3.4 orders shrink.
    pub fn total_monomials(&self) -> usize {
        self.tuples.iter().map(|t| t.expr.total_monomials()).sum()
    }

    /// Total JSON size (bytes, compact) across tuple citations.
    pub fn total_json_bytes(&self) -> usize {
        self.tuples
            .iter()
            .map(|t| t.citation.size_bytes())
            .sum::<usize>()
            + self.aggregate.size_bytes()
    }
}

/// Per-request view of the engine configuration after applying
/// [`CiteRequest`] overrides.
struct EffectiveConfig<'a> {
    policy: &'a Policy,
    mode: RewriteMode,
    rewrite: RewriteOptions,
}

/// Token-cache traffic attributable to a single request.
#[derive(Default)]
struct RequestCounters {
    hits: u64,
    misses: u64,
}

/// Grouped bindings of one extent query: each output tuple with the
/// bindings that derive it, in global derivation order (the order
/// [`fgc_query::evaluate_grouped`] produces).
pub type ExtentGroups = Vec<(Tuple, Vec<Binding>)>;

/// Everything a citation reads from the data, fetched in one
/// [`CiteDataPlane::fetch`].
#[derive(Debug, Clone)]
pub struct CiteData {
    /// The answer set of the cited query, in global first-derivation
    /// order (the order [`fgc_query::evaluate`] produces).
    pub answers: Vec<Tuple>,
    /// Per extent query, in the order they were asked for, its grouped
    /// bindings over base relations *plus* view extents.
    pub extents: Vec<ExtentGroups>,
}

/// One shard's share of a citation exchange, as
/// [`CitationEngine::cite_fragment`] computes it.
#[derive(Debug, Clone)]
pub struct CiteFragment {
    /// The answer query's `(gid, seq, tuple)` rows on this shard, when
    /// the exchange carried one.
    pub answers: Option<Vec<(usize, usize, Tuple)>>,
    /// Per extent query, its `(gid, seq, tuple, binding)` rows on this
    /// shard.
    pub extents: Vec<Vec<(usize, usize, Tuple, Binding)>>,
    /// Every distinct token those bindings mention, with its citation.
    pub tokens: Vec<(CiteToken, Json)>,
    /// Token-cache hits of this exchange.
    pub hits: u64,
    /// Token-cache misses of this exchange.
    pub misses: u64,
}

/// The data-access half of the citation pipeline.
///
/// [`CitationEngine::cite_request_with`] drives the *whole* Def.
/// 3.1–3.4 control plane — rewriting search, polynomial construction,
/// normalization, interpretation, aggregation — through this trait.
/// The rewritings come from the view definitions and schemas alone
/// (§3.2), so the engine finds them first and then asks the plane for
/// all the data the citation needs in one [`fetch`](Self::fetch): the
/// answer tuples and each rewriting's extent bindings. The local
/// implementation reads the engine's own store; a distributed one
/// makes one exchange per shard replica. Because every byte of
/// citation assembly is shared, any data plane that returns the same
/// rows in the same order produces byte-identical citations.
pub trait CiteDataPlane {
    /// The answers of `q` and the grouped bindings of every query in
    /// `extent_queries`. Errors keep the single server's precedence:
    /// an answer-evaluation error first, then the first failing
    /// extent query in order.
    fn fetch(
        &mut self,
        q: &ConjunctiveQuery,
        extent_queries: &[ConjunctiveQuery],
    ) -> Result<CiteData>;

    /// Interpret one token to its JSON citation.
    fn token_citation(&mut self, token: &CiteToken) -> Result<Json>;

    /// Token-cache `(hits, misses)` attributable to the current
    /// request, for [`CiteResponse`] metadata.
    fn cache_traffic(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// The in-process data plane: reads the engine's whole store.
/// [`CitationEngine::cite`] and friends are thin wrappers over this.
struct LocalDataPlane<'a> {
    engine: &'a CitationEngine,
    counters: RequestCounters,
}

impl<'a> LocalDataPlane<'a> {
    fn new(engine: &'a CitationEngine) -> Self {
        LocalDataPlane {
            engine,
            counters: RequestCounters::default(),
        }
    }
}

impl CiteDataPlane for LocalDataPlane<'_> {
    fn fetch(
        &mut self,
        q: &ConjunctiveQuery,
        extent_queries: &[ConjunctiveQuery],
    ) -> Result<CiteData> {
        let engine = self.engine;
        // `evaluate` wraps the whole answer evaluation, so the `plan`
        // span recorded inside it nests under it
        let answers = engine.stages.time("evaluate", || engine.answers(q))?;
        let extents = engine.stages.time("extent", || {
            extent_queries
                .iter()
                .map(|e| engine.extent_groups(e))
                .collect::<Result<Vec<_>>>()
        })?;
        Ok(CiteData { answers, extents })
    }

    fn token_citation(&mut self, token: &CiteToken) -> Result<Json> {
        Ok(self.engine.token_citation(token, &mut self.counters))
    }

    fn cache_traffic(&self) -> (u64, u64) {
        (self.counters.hits, self.counters.misses)
    }
}

/// The citation engine over one database snapshot.
///
/// All serving entry points ([`cite`](Self::cite),
/// [`cite_sql`](Self::cite_sql), [`cite_request`](Self::cite_request),
/// [`cite_batch`](Self::cite_batch)) take `&self`: the mutable state
/// (token-citation cache, lazily materialized view extents) sits
/// behind interior mutability, so one engine wrapped in an `Arc` can
/// serve many threads concurrently, all sharing the same caches.
#[derive(Debug)]
pub struct CitationEngine {
    db: Arc<Database>,
    registry: ViewRegistry,
    view_defs: ViewDefs,
    policy: Policy,
    options: EngineOptions,
    inclusion: BTreeMap<(String, String), bool>,
    extent_db: RwLock<Option<Arc<Database>>>,
    cache: CitationCache,
    /// The shard ownership [`Self::with_shards`] set, and how the
    /// store's tuples spread under it (counted once, there). Only
    /// [`Self::cite_fragment`] reads it: the engine's own citations
    /// always read the whole store.
    partition: Option<(Partition, ShardStats)>,
    /// Compiled [`QueryPlan`]s, keyed by query — answer queries and
    /// rewriting extent queries share it (see [`crate::plan_cache`]
    /// for why one keyspace is sound). Warm `cite`/`cite_sql`/
    /// `cite_batch` calls skip parse-order-validate entirely.
    plans: PlanCache,
    /// Per-stage latency histograms over the cite pipeline
    /// ([`fgc_obs::CITE_STAGES`]); every serving entry point records
    /// into them, and an active [`fgc_obs::Trace`] additionally
    /// collects a per-request breakdown.
    stages: StageSet,
    /// Storage backend the snapshot was loaded from or persists to,
    /// when one is attached ([`Self::with_storage`]). The engine
    /// itself never writes through it — snapshots are immutable —
    /// but keeps the handle so `GET /stats` and `GET /metrics` can
    /// surface backend counters next to the serving stats.
    storage: Option<Arc<dyn Storage>>,
}

impl CitationEngine {
    /// Build an engine. Validates every view against the database
    /// catalog and precomputes the view-inclusion matrix (Ex. 3.8).
    pub fn new(db: Database, registry: ViewRegistry) -> Result<Self> {
        Self::build(Arc::new(db), registry)
    }

    /// [`Self::new`] over a snapshot that is already shared, so the
    /// engine holds the caller's relation instances.
    pub(crate) fn build(db: Arc<Database>, registry: ViewRegistry) -> Result<Self> {
        registry.validate(db.catalog())?;
        for v in registry.iter() {
            if db.catalog().contains(&v.name) {
                return Err(CoreError::ViewNameClash(v.name.clone()));
            }
        }
        let view_defs = ViewDefs::new(registry.iter().map(|v| v.view.clone()))
            .with_dependencies(fgc_query::Dependencies::from_catalog(db.catalog()));
        let inclusion = fgc_rewrite::view_inclusion_matrix(&view_defs);
        Ok(Self::assemble(db, registry, view_defs, inclusion, None))
    }

    /// An engine with default policy, options and caches over already
    /// validated parts.
    fn assemble(
        db: Arc<Database>,
        registry: ViewRegistry,
        view_defs: ViewDefs,
        inclusion: BTreeMap<(String, String), bool>,
        extent: Option<Arc<Database>>,
    ) -> Self {
        CitationEngine {
            db,
            registry,
            view_defs,
            policy: Policy::default(),
            options: EngineOptions::default(),
            inclusion,
            extent_db: RwLock::new(extent),
            cache: CitationCache::default(),
            partition: None,
            plans: PlanCache::default(),
            stages: StageSet::new(CITE_STAGES),
            storage: None,
        }
    }

    /// Replace the policy (builder style).
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the options (builder style).
    pub fn with_options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    /// Bound the token cache at `per_shard` entries per shard
    /// (builder style; replaces the cache, dropping any entries).
    /// Excess entries are evicted second-chance (CLOCK) — see
    /// [`CitationCache`]. A capacity of 0 disables the cache.
    pub fn with_cache_capacity(mut self, per_shard: usize) -> Self {
        self.cache = CitationCache::with_shard_capacity(per_shard);
        self
    }

    /// Bound the compiled-plan cache at `per_shard` entries per
    /// shard (builder style; replaces the cache, dropping any
    /// plans). A capacity of 0 disables plan caching: every
    /// evaluation re-compiles — the interpreter-era cost model,
    /// kept switchable for the equivalence tests.
    pub fn with_plan_cache_capacity(mut self, per_shard: usize) -> Self {
        self.plans = PlanCache::with_shard_capacity(per_shard);
        self
    }

    /// Make this engine a shard replica's (builder style): every row
    /// is owned by one of `shards` shards, by the hash of the shard-key
    /// column `key_spec` names for its relation (CLI syntax:
    /// `Family=FID,FC=FID`); relations it omits fall back to
    /// whole-tuple hashing — still balanced, but equality selections on
    /// them can never prune to one shard. Nothing is copied: the
    /// engine keeps its one store, and [`Self::cite_fragment`] keeps
    /// only the lead rows a shard owns.
    pub fn with_shards(mut self, shards: usize, key_spec: ShardKeySpec) -> Result<Self> {
        let partition = Partition::new(shards, key_spec, self.db.catalog())?;
        let stats = partition.stats(&self.db);
        self.partition = Some((partition, stats));
        Ok(self)
    }

    /// Attach the storage backend this snapshot came from (builder
    /// style). Purely observational at the single-snapshot level:
    /// persistence happens when the owner of the history syncs, but
    /// the handle lets servers report backend stats alongside cache
    /// and shard layout.
    pub fn with_storage(mut self, storage: Arc<dyn Storage>) -> Self {
        self.storage = Some(storage);
        self
    }

    /// The attached storage backend, if any.
    pub fn storage(&self) -> Option<&Arc<dyn Storage>> {
        self.storage.as_ref()
    }

    /// Counters of the attached storage backend — `None` when the
    /// engine is purely in-memory with no backend attached.
    pub fn storage_stats(&self) -> Option<StorageStats> {
        self.storage.as_ref().map(|s| s.stats())
    }

    /// The underlying database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The view registry.
    pub fn registry(&self) -> &ViewRegistry {
        &self.registry
    }

    /// The current policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Citation-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Compiled-plan cache statistics (surfaced on `GET /stats` as
    /// `plan_cache` and by `fgcite cite --explain`).
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Per-stage latency histograms over the cite pipeline, exposed
    /// on `GET /metrics` (stage label) and summarized by `cite
    /// --explain`. Samples are nanoseconds.
    pub fn stage_stats(&self) -> &StageSet {
        &self.stages
    }

    /// Latency distribution of token-cache miss computations
    /// (nanoseconds).
    pub fn cache_compute_latency(&self) -> fgc_obs::HistogramSnapshot {
        self.cache.miss_latency()
    }

    /// Latency distribution of plan-cache miss compiles
    /// (nanoseconds).
    pub fn plan_compile_latency(&self) -> fgc_obs::HistogramSnapshot {
        self.plans.miss_latency()
    }

    /// Number of shards the store's rows are owned by (1 when
    /// unsharded).
    pub fn shard_count(&self) -> usize {
        self.partition().map_or(1, Partition::shard_count)
    }

    /// The shard ownership a replica serves under — `None` when the
    /// engine is not sharded. Replicas publish it so a coordinator
    /// routes with the identical partition.
    pub fn partition(&self) -> Option<&Partition> {
        self.partition.as_ref().map(|(p, _)| p)
    }

    /// How the store's tuples spread over the shards — `None` when the
    /// engine is not sharded.
    pub fn shard_stats(&self) -> Option<&ShardStats> {
        self.partition.as_ref().map(|(_, stats)| stats)
    }

    /// The engine for the database `delta` produces from this one's:
    /// clone the store (every relation stays shared until replay
    /// touches it), replay the delta, and rebase onto the result, so
    /// only the view extents that read a replayed relation are
    /// materialized again. Versioned serving rebases onto the
    /// history's own snapshots instead.
    ///
    /// Errors with [`fgc_relation::RelationError::DeltaMismatch`]
    /// (via [`CoreError::Relation`]) when this engine's database is
    /// not the delta's parent.
    pub fn derive_with_delta(&self, delta: &DatabaseDelta) -> Result<CitationEngine> {
        let mut db = (*self.db).clone();
        db.apply_delta(delta)?;
        self.rebase(Arc::new(db))
    }

    /// This engine's registry, policy, options, view definitions,
    /// inclusion matrix and storage handle over another snapshot.
    ///
    /// Identity decides what is reused: when the catalogs are equal,
    /// every view extent whose view-query inputs are the same
    /// `Arc<Relation>` instances in both databases is adopted by
    /// pointer (an extent is a function of those inputs alone), and
    /// the rest are materialized over the snapshot. A different
    /// catalog changes the view definitions' dependencies and the
    /// inclusion matrix, so it means a from-scratch build. A sharded
    /// engine keeps its shard count and key spec.
    ///
    /// The token and plan caches start empty at this engine's
    /// capacities: carrying them over would deep-copy every key, which
    /// costs more than refilling them.
    pub(crate) fn rebase(&self, snapshot: Arc<Database>) -> Result<CitationEngine> {
        let mut engine = if self.db.catalog() == snapshot.catalog() {
            let extent = self
                .extent_database_if_built()
                .map(|donor| self.borrow_extents(&donor, &snapshot))
                .transpose()?;
            Self::assemble(
                snapshot,
                self.registry.clone(),
                self.view_defs.clone(),
                self.inclusion.clone(),
                extent,
            )
        } else {
            Self::build(snapshot, self.registry.clone())?
        };
        engine.policy = self.policy.clone();
        engine.options = self.options;
        engine.cache = self.cache.empty_like();
        engine.plans = self.plans.empty_like();
        engine.storage = self.storage.clone();
        match self.partition() {
            None => Ok(engine),
            Some(p) => engine.with_shards(p.shard_count(), p.spec().clone()),
        }
    }

    /// The extent store over `snapshot`: the donor's extent relation
    /// for every view whose inputs `snapshot` shares with this
    /// engine's store, a fresh materialization for the rest.
    fn borrow_extents(&self, donor: &Database, snapshot: &Database) -> Result<Arc<Database>> {
        // Shares every base relation with the snapshot, so this clone
        // costs pointers.
        let mut extended = snapshot.clone();
        for view in self.registry.iter() {
            if Self::same_instances(&self.db, snapshot, &view.view.atoms) {
                extended.adopt_relation_arc(Arc::clone(donor.relation_arc(&view.name)?))?;
            } else {
                Self::materialize_extent(&mut extended, view, snapshot)?;
            }
        }
        Ok(Arc::new(extended))
    }

    /// Whether `snapshot` holds the very relation instances that every
    /// view and citation query reads in this engine's store — a rebase
    /// onto it changes nothing a citation can see.
    pub(crate) fn cites_same_relations(&self, snapshot: &Database) -> bool {
        self.registry.iter().all(|v| {
            Self::same_instances(&self.db, snapshot, &v.view.atoms)
                && Self::same_instances(&self.db, snapshot, &v.citation_query.atoms)
        })
    }

    /// Whether every relation `atoms` read is one `Arc` instance in
    /// both databases.
    fn same_instances(a: &Database, b: &Database, atoms: &[Atom]) -> bool {
        atoms.iter().all(|atom| {
            match (
                a.relation_arc(&atom.relation),
                b.relation_arc(&atom.relation),
            ) {
                (Ok(x), Ok(y)) => Arc::ptr_eq(x, y),
                _ => false,
            }
        })
    }

    /// Drop cached citations, extents, and compiled plans (e.g. for
    /// cold-start runs).
    pub fn clear_caches(&self) {
        self.cache.clear();
        self.plans.clear();
        *self.extent_db.write().expect("extent lock poisoned") = None;
    }

    /// The engine's default configuration, with a request's overrides
    /// applied on top.
    fn effective<'a>(&'a self, request: Option<&'a CiteRequest>) -> EffectiveConfig<'a> {
        match request {
            None => EffectiveConfig {
                policy: &self.policy,
                mode: self.options.mode,
                rewrite: self.options.rewrite,
            },
            Some(r) => EffectiveConfig {
                policy: r.policy.as_ref().unwrap_or(&self.policy),
                mode: r.mode.unwrap_or(self.options.mode),
                rewrite: r.rewrite.unwrap_or(self.options.rewrite),
            },
        }
    }

    /// The extent store, if this engine has materialized one — no
    /// build is forced. Memory accounting walks this next to the base
    /// store to attribute extent relations to warm engines.
    pub fn extent_database_if_built(&self) -> Option<Arc<Database>> {
        self.extent_db
            .read()
            .expect("extent lock poisoned")
            .as_ref()
            .map(Arc::clone)
    }

    /// The database extended with one relation per view extent;
    /// rewritings evaluate against this. Built lazily under the write
    /// lock (double-checked), shared by all threads afterwards.
    fn extent_database(&self) -> Result<Arc<Database>> {
        if let Some(db) = self
            .extent_db
            .read()
            .expect("extent lock poisoned")
            .as_ref()
        {
            return Ok(Arc::clone(db));
        }
        let mut slot = self.extent_db.write().expect("extent lock poisoned");
        if let Some(db) = slot.as_ref() {
            return Ok(Arc::clone(db));
        }
        let mut extended = (*self.db).clone();
        for view in self.registry.iter() {
            Self::materialize_extent(&mut extended, view, &self.db)?;
        }
        let arc = Arc::new(extended);
        *slot = Some(Arc::clone(&arc));
        Ok(arc)
    }

    /// Materialize one view's extent relation into `extended`,
    /// evaluating the view over `db`. Indexes every parameter
    /// position and the first column: rewritings probe extents on
    /// parameter constants.
    fn materialize_extent(
        extended: &mut Database,
        view: &fgc_views::CitationView,
        db: &Database,
    ) -> Result<()> {
        let arity = view.view.arity();
        let specs: Vec<(String, DataType)> = (0..arity)
            .map(|i| (format!("c{i}"), DataType::Any))
            .collect();
        let spec_refs: Vec<(&str, DataType)> =
            specs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        extended.create_relation(RelationSchema::with_names(
            view.name.clone(),
            &spec_refs,
            &[],
        )?)?;
        let extent = view.extent(db)?;
        extended.insert_all(&view.name, extent)?;
        let rel = extended.relation_mut(&view.name)?;
        for p in view.param_positions()? {
            rel.build_index(p)?;
        }
        if arity > 0 {
            rel.build_index(0)?;
        }
        Ok(())
    }

    /// The cached compiled plan for a query evaluated against the
    /// given database (compiling on miss); one plan serves the whole
    /// evaluation and every shard's fragment of it.
    fn cached_plan(&self, q: &ConjunctiveQuery, db: &Database) -> Result<Arc<QueryPlan>> {
        Ok(self.stages.time("plan", || {
            self.plans.get_or_compile(q, || QueryPlan::compile(q, db))
        })?)
    }

    /// The answer set of `q` over the whole store. Plans come from
    /// the engine's plan cache.
    fn answers(&self, q: &ConjunctiveQuery) -> Result<Vec<Tuple>> {
        let plan = self.cached_plan(q, &self.db)?;
        Ok(evaluate_plan_with(&self.db, &plan, EvalOptions::default())?)
    }

    /// The rewritings used for citations, labelled `Q1, Q2, ...` in
    /// rank order (best first).
    fn rewritings(
        &self,
        q: &ConjunctiveQuery,
        mode: RewriteMode,
        options: RewriteOptions,
    ) -> Result<LabelledRewritings> {
        let enumeration = match mode {
            RewriteMode::Exhaustive => {
                let e = enumerate_rewritings(q, &self.view_defs, options)?;
                fgc_rewrite::Enumeration {
                    rewritings: fgc_rewrite::rank(e.rewritings),
                    ..e
                }
            }
            RewriteMode::Pruned => best_rewritings(q, &self.view_defs, options)?,
        };
        let labelled = enumeration
            .rewritings
            .into_iter()
            .enumerate()
            .map(|(i, r)| (format!("Q{}", i + 1), r))
            .collect();
        Ok((labelled, enumeration.exhaustive, enumeration.unsatisfiable))
    }

    /// Resolve a term under a binding to a concrete value.
    fn resolve(binding: &Binding, t: &Term) -> Value {
        match t {
            Term::Const(v) => v.clone(),
            Term::Var(v) => binding.get(v.as_str()).cloned().unwrap_or(Value::Null),
        }
    }

    /// The grouped bindings of one extent query, evaluated over the
    /// extent database (base relations + view extents). Extent
    /// queries share the engine's plan cache, so a repeated `cite`
    /// re-plans nothing.
    fn extent_groups(&self, q: &ConjunctiveQuery) -> Result<ExtentGroups> {
        let extent_db = self.extent_database()?;
        let plan = self.cached_plan(q, &extent_db)?;
        Ok(evaluate_grouped_plan_with(
            &extent_db,
            &plan,
            EvalOptions::default(),
        )?)
    }

    /// The symbolic citation expressions for every output tuple of
    /// `q` (Defs. 3.1–3.3), before normalization, from each
    /// rewriting's grouped extent bindings (`extents[i]` belongs to
    /// `rewritings[i]`).
    fn symbolic_citations(
        rewritings: &[(String, Rewriting)],
        extents: Vec<ExtentGroups>,
    ) -> SymbolicCitations {
        let mut exprs: SymbolicCitations = HashMap::new();
        for ((label, rewriting), grouped) in rewritings.iter().zip(extents) {
            for (tuple, bindings) in grouped {
                let mut poly: Polynomial<CiteToken> = Polynomial::zero();
                for binding in &bindings {
                    let mut monomial = Monomial::unit();
                    for sub in &rewriting.subgoals {
                        let token = match sub {
                            fgc_rewrite::Subgoal::View(v) => {
                                let valuation: Vec<Value> = v
                                    .param_terms()
                                    .iter()
                                    .map(|t| Self::resolve(binding, t))
                                    .collect();
                                CiteToken::view(v.view.clone(), valuation)
                            }
                            fgc_rewrite::Subgoal::Base(a) => CiteToken::base(a.relation.clone()),
                        };
                        monomial = monomial.times(&Monomial::token(token));
                    }
                    poly = poly.plus(&Polynomial::from_monomial(monomial));
                }
                // idempotent +: identical binding citations collapse
                let poly = poly.squash_coefficients();
                let expr = CitationExpr::single(label.clone(), poly);
                exprs
                    .entry(tuple)
                    .and_modify(|e| *e = e.plus_r(&expr))
                    .or_insert(expr);
            }
        }
        exprs
    }

    /// Interpret a token to its JSON citation (memoized in the shared
    /// cache; hit/miss attributed to the current request).
    fn token_citation(&self, token: &CiteToken, counters: &mut RequestCounters) -> Json {
        let db = Arc::clone(&self.db);
        let registry = &self.registry;
        let (citation, hit) = self.cache.lookup_or_compute(token, || match token {
            CiteToken::View { view, valuation } => registry
                .get(view)
                .map(|v| v.citation_for(&db, valuation).unwrap_or(Json::Null))
                .unwrap_or(Json::Null),
            CiteToken::Base { relation } => {
                Json::from_pairs([("UncitedRelation", Json::str(relation.clone()))])
            }
        });
        if hit {
            counters.hits += 1;
        } else {
            counters.misses += 1;
        }
        citation
    }

    /// The full Def. 3.1–3.4 pipeline under an effective (engine
    /// defaults ⊕ request overrides) configuration, reading rows and
    /// token citations through the data plane.
    fn cite_under(
        &self,
        q: &ConjunctiveQuery,
        config: &EffectiveConfig<'_>,
        plane: &mut dyn CiteDataPlane,
    ) -> Result<QueryCitation> {
        let policy = config.policy;
        // The rewritings are a function of the views and schemas alone
        // (§3.2): find them first, so the data plane fetches the
        // answers and every extent in one call.
        let rewritten = self.stages.time("rewrite", || {
            self.rewritings(q, config.mode, config.rewrite)
        });
        let extent_queries: Vec<ConjunctiveQuery> = match &rewritten {
            Ok((rewritings, ..)) => rewritings
                .iter()
                .map(|(_, r)| r.as_extent_query())
                .collect(),
            Err(_) => Vec::new(),
        };
        // an answer-evaluation error outranks a rewriting-search one
        let CiteData { answers, extents } = plane.fetch(q, &extent_queries)?;
        let (rewritings, exhaustive, unsatisfiable) = rewritten?;
        let mut exprs = self
            .stages
            .time("extent", || Self::symbolic_citations(&rewritings, extents));

        // Equal symbolic expressions interpret to equal citations, and
        // result sets over curated hierarchies share few distinct
        // expressions (e.g. one per family type) — memoize the
        // interpretation per normalized expression and share it by
        // `Arc`, so a memo hit is a refcount bump. The memo is
        // request-local: it depends on the (possibly overridden)
        // policy, unlike the policy-independent shared token cache.
        self.stages
            .time("render", move || -> Result<QueryCitation> {
                let mut interp_memo: HashMap<CitationExpr<String, CiteToken>, Arc<Json>> =
                    HashMap::new();
                let mut distinct_citations: Vec<Arc<Json>> = Vec::new();
                let mut tuples = Vec::with_capacity(answers.len());
                for tuple in answers {
                    let expr = exprs.remove(&tuple).unwrap_or_else(CitationExpr::zero_r);
                    let normalized = policy.normalize(&expr, &self.inclusion);
                    let citation = match interp_memo.get(&normalized) {
                        Some(hit) => Arc::clone(hit),
                        None => {
                            // `interpret_expr`'s token valuation is infallible
                            // by signature; remote token failures surface
                            // through this side channel instead of silently
                            // citing Null.
                            let mut token_err: Option<CoreError> = None;
                            let citation = Arc::new({
                                let mut value_of = |t: &CiteToken| match plane.token_citation(t) {
                                    Ok(json) => json,
                                    Err(e) => {
                                        token_err.get_or_insert(e);
                                        Json::Null
                                    }
                                };
                                interpret_expr(policy, &normalized, &mut value_of)
                                    .unwrap_or(Json::Null)
                            });
                            if let Some(e) = token_err {
                                return Err(e);
                            }
                            interp_memo.insert(normalized.clone(), Arc::clone(&citation));
                            distinct_citations.push(Arc::clone(&citation));
                            citation
                        }
                    };
                    tuples.push(TupleCitation {
                        tuple,
                        expr: normalized,
                        citation,
                    });
                }

                // Def. 3.4: Agg over tuple citations, neutral = the global
                // citations (present even for empty outputs). Both Agg
                // interpretations are idempotent, so aggregating the distinct
                // citations once each is equivalent to folding all tuples.
                let mut aggregate = Json::Null;
                for g in &policy.global_citations {
                    aggregate = policy.agg.apply(&aggregate, g);
                }
                for citation in &distinct_citations {
                    aggregate = policy.agg.apply(&aggregate, citation);
                }

                Ok(QueryCitation {
                    tuples,
                    aggregate,
                    rewritings,
                    exhaustive,
                    unsatisfiable,
                })
            })
    }

    /// Cite a query with the engine's default policy and options: the
    /// full Def. 3.1–3.4 pipeline.
    pub fn cite(&self, q: &ConjunctiveQuery) -> Result<QueryCitation> {
        let mut plane = LocalDataPlane::new(self);
        self.cite_under(q, &self.effective(None), &mut plane)
    }

    /// Cite an SQL query (SPJ fragment).
    pub fn cite_sql(&self, sql: &str) -> Result<QueryCitation> {
        let q = parse_sql(self.db.catalog(), sql)?;
        self.cite(&q)
    }

    /// Serve one [`CiteRequest`]: apply its per-call overrides on top
    /// of the engine defaults and wrap the result with timing and
    /// cache metadata.
    pub fn cite_request(&self, request: &CiteRequest) -> Result<CiteResponse> {
        let mut plane = LocalDataPlane::new(self);
        self.cite_request_with(request, &mut plane)
    }

    /// [`Self::cite_request`] over a caller-supplied data plane; the
    /// response's cache counters come from
    /// [`CiteDataPlane::cache_traffic`].
    pub fn cite_request_with(
        &self,
        request: &CiteRequest,
        plane: &mut dyn CiteDataPlane,
    ) -> Result<CiteResponse> {
        let started = Instant::now();
        let trace = Trace::start(request.request_id.clone().unwrap_or_default());
        let q = self.stages.time("parse", || match &request.query {
            QuerySpec::Datalog(q) => Ok(q.clone()),
            QuerySpec::Sql(sql) => parse_sql(self.db.catalog(), sql).map_err(CoreError::from),
        })?;
        let citation = self.cite_under(&q, &self.effective(Some(request)), plane);
        let report = trace.finish();
        let citation = citation?;
        let (cache_hits, cache_misses) = plane.cache_traffic();
        Ok(CiteResponse {
            citation,
            elapsed: started.elapsed(),
            cache_hits,
            cache_misses,
            stages: report.stages,
            request_id: request.request_id.clone(),
        })
    }

    /// Serve a batch of requests, fanning out across a scoped thread
    /// pool over this shared engine. Results come back in request
    /// order regardless of scheduling, and each request honors its
    /// own overrides; all threads share the engine's caches.
    ///
    /// The pool is sized `min(batch len, available parallelism)`;
    /// pass `threads` through [`Self::cite_batch_threads`] to pin it.
    pub fn cite_batch(&self, requests: &[CiteRequest]) -> Vec<Result<CiteResponse>> {
        let parallelism = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        self.cite_batch_threads(requests, parallelism)
    }

    /// [`Self::cite_batch`] with an explicit worker count.
    pub fn cite_batch_threads(
        &self,
        requests: &[CiteRequest],
        threads: usize,
    ) -> Vec<Result<CiteResponse>> {
        let workers = threads.clamp(1, requests.len().max(1));
        if workers <= 1 || requests.len() <= 1 {
            return requests.iter().map(|r| self.cite_request(r)).collect();
        }
        // Materialize extents once up front: otherwise every worker
        // would immediately queue on the build write-lock. A failure
        // here recurs deterministically inside each request.
        let _ = self.extent_database();

        let next = AtomicUsize::new(0);
        let (sender, receiver) = mpsc::channel::<(usize, Result<CiteResponse>)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let sender = sender.clone();
                let next = &next;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(request) = requests.get(i) else {
                        break;
                    };
                    if sender.send((i, self.cite_request(request))).is_err() {
                        break;
                    }
                });
            }
        });
        drop(sender);

        let mut slots: Vec<Option<Result<CiteResponse>>> =
            (0..requests.len()).map(|_| None).collect();
        for (i, result) in receiver {
            slots[i] = Some(result);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every request produced a result"))
            .collect()
    }

    /// This shard's share of one citation exchange — the one entry
    /// point a shard replica serves:
    ///
    /// - with `answer`, the `(gid, seq, tuple)` fragment of its global
    ///   evaluation (see [`fgc_query::lead_fragment_answers`]);
    /// - per extent query, the `(gid, seq, tuple, binding)` fragment of
    ///   its grouped evaluation over the extent database (base
    ///   relations + view extents);
    /// - the citation of every token those bindings mention, memoized
    ///   in the shared cache.
    ///
    /// A failure names its phase: 0 is the answer query, `i + 1` is
    /// extent query `i`. An engine that is not sharded, or a `shard`
    /// out of range, fails phase 0 with [`CoreError::Remote`].
    pub fn cite_fragment(
        &self,
        answer: Option<&ConjunctiveQuery>,
        extent_queries: &[ConjunctiveQuery],
        shard: usize,
    ) -> std::result::Result<CiteFragment, (usize, CoreError)> {
        let partition = self.require_shard(shard).map_err(|e| (0, e))?;
        let answers = answer
            .map(|q| self.fragment_answers(partition, q, shard))
            .transpose()
            .map_err(|e| (0, e))?;
        let mut extents = Vec::with_capacity(extent_queries.len());
        for (i, q) in extent_queries.iter().enumerate() {
            let rows = self
                .fragment_bindings(partition, q, shard)
                .map_err(|e| (i + 1, e))?;
            extents.push(rows);
        }
        let mut counters = RequestCounters::default();
        let tokens = self.stages.time("render", || {
            self.fragment_tokens(extent_queries, &extents, &mut counters)
        });
        Ok(CiteFragment {
            answers,
            extents,
            tokens,
            hits: counters.hits,
            misses: counters.misses,
        })
    }

    fn fragment_answers(
        &self,
        partition: &Partition,
        q: &ConjunctiveQuery,
        shard: usize,
    ) -> Result<Vec<(usize, usize, Tuple)>> {
        let plan = self.cached_plan(q, &self.db)?;
        let options = EvalOptions::default();
        Ok(self.stages.time("evaluate", || {
            fgc_query::lead_fragment_answers(&self.db, partition, &plan, shard, options)
        })?)
    }

    fn fragment_bindings(
        &self,
        partition: &Partition,
        q: &ConjunctiveQuery,
        shard: usize,
    ) -> Result<Vec<(usize, usize, Tuple, Binding)>> {
        let extent_db = self.extent_database()?;
        let plan = self.cached_plan(q, &extent_db)?;
        let options = EvalOptions::default();
        Ok(self.stages.time("extent", || {
            fgc_query::lead_fragment_bindings(&extent_db, partition, &plan, shard, options)
        })?)
    }

    /// Every distinct token the extent bindings mention, with its
    /// citation, in first-mention order. An extent atom is a view
    /// token when its relation names a view — no base relation can
    /// share a view's name ([`CoreError::ViewNameClash`]) — valuated
    /// at the view's parameter positions, and a base marker otherwise:
    /// the tokens [`Self::symbolic_citations`] builds from the
    /// rewriting's subgoals.
    fn fragment_tokens(
        &self,
        extent_queries: &[ConjunctiveQuery],
        extents: &[Vec<(usize, usize, Tuple, Binding)>],
        counters: &mut RequestCounters,
    ) -> Vec<(CiteToken, Json)> {
        let mut seen: HashSet<CiteToken> = HashSet::new();
        let mut tokens = Vec::new();
        for (q, rows) in extent_queries.iter().zip(extents) {
            let params: Vec<Option<Vec<usize>>> = q
                .atoms
                .iter()
                .map(|a| {
                    let view = self.registry.get(&a.relation)?;
                    // validation put every parameter in the view head
                    Some(view.param_positions().unwrap_or_default())
                })
                .collect();
            for (_, _, _, binding) in rows {
                for (atom, positions) in q.atoms.iter().zip(&params) {
                    let token = match positions {
                        Some(positions) => CiteToken::view(
                            atom.relation.clone(),
                            positions
                                .iter()
                                .map(|&p| {
                                    atom.terms
                                        .get(p)
                                        .map_or(Value::Null, |t| Self::resolve(binding, t))
                                })
                                .collect(),
                        ),
                        None => CiteToken::base(atom.relation.clone()),
                    };
                    if seen.insert(token.clone()) {
                        let citation = self.token_citation(&token, counters);
                        tokens.push((token, citation));
                    }
                }
            }
        }
        tokens
    }

    fn require_shard(&self, shard: usize) -> Result<&Partition> {
        let partition = self
            .partition()
            .ok_or_else(|| CoreError::Remote("engine is not sharded".into()))?;
        if shard >= partition.shard_count() {
            return Err(CoreError::Remote(format!(
                "shard {shard} out of range (store has {})",
                partition.shard_count()
            )));
        }
        Ok(partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CombineOp, OrderChoice};
    use fgc_query::parse_query;
    use fgc_relation::tuple;
    use fgc_views::CitationFunction;

    /// The paper's running database fragment (families 11/12/13).
    fn paper_db() -> Database {
        let mut db = Database::new();
        for (name, specs, key) in [
            (
                "Family",
                vec![
                    ("FID", DataType::Str),
                    ("FName", DataType::Str),
                    ("Type", DataType::Str),
                ],
                vec!["FID"],
            ),
            (
                "FamilyIntro",
                vec![("FID", DataType::Str), ("Text", DataType::Str)],
                vec!["FID"],
            ),
            (
                "Person",
                vec![
                    ("PID", DataType::Str),
                    ("PName", DataType::Str),
                    ("Affiliation", DataType::Str),
                ],
                vec!["PID"],
            ),
            (
                "FC",
                vec![("FID", DataType::Str), ("PID", DataType::Str)],
                vec!["FID", "PID"],
            ),
            (
                "FIC",
                vec![("FID", DataType::Str), ("PID", DataType::Str)],
                vec!["FID", "PID"],
            ),
            (
                "MetaData",
                vec![("Type", DataType::Str), ("Value", DataType::Str)],
                vec![],
            ),
        ] {
            let specs: Vec<(&str, DataType)> = specs.into_iter().collect();
            let keys: Vec<&str> = key;
            db.create_relation(RelationSchema::with_names(name, &specs, &keys).unwrap())
                .unwrap();
        }
        db.insert_all(
            "Family",
            vec![
                tuple!["11", "Calcitonin", "gpcr"],
                tuple!["12", "Orexin", "gpcr"],
                tuple!["13", "Kinase", "enzyme"],
            ],
        )
        .unwrap();
        db.insert_all(
            "FamilyIntro",
            vec![
                tuple!["11", "The calcitonin peptide family"],
                tuple!["12", "The orexin family"],
            ],
        )
        .unwrap();
        db.insert_all(
            "Person",
            vec![
                tuple!["p1", "Hay", "U1"],
                tuple!["p2", "Poyner", "U2"],
                tuple!["p3", "Brown", "U3"],
                tuple!["p4", "Smith", "U4"],
            ],
        )
        .unwrap();
        db.insert_all(
            "FC",
            vec![tuple!["11", "p1"], tuple!["11", "p2"], tuple!["12", "p1"]],
        )
        .unwrap();
        db.insert_all(
            "FIC",
            vec![tuple!["11", "p3"], tuple!["11", "p4"], tuple!["12", "p4"]],
        )
        .unwrap();
        db.insert_all(
            "MetaData",
            vec![
                tuple!["Owner", "Tony Harmar"],
                tuple!["URL", "guidetopharmacology.org"],
                tuple!["Version", "23"],
            ],
        )
        .unwrap();
        db
    }

    /// V1, V2, V4, V5 and V3 with their citation queries/functions.
    fn paper_registry() -> ViewRegistry {
        let mut reg = ViewRegistry::new();
        reg.add(fgc_views::CitationView::new(
            parse_query("lambda F. V1(F, N, Ty) :- Family(F, N, Ty)").unwrap(),
            parse_query("lambda F. CV1(F, N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)")
                .unwrap(),
            CitationFunction::from_spec(vec![
                CitationFunction::scalar("ID", 0),
                CitationFunction::scalar("Name", 1),
                CitationFunction::collect("Committee", 2),
            ]),
        ))
        .unwrap();
        reg.add(fgc_views::CitationView::new(
            parse_query("lambda F. V2(F, Tx) :- FamilyIntro(F, Tx)").unwrap(),
            parse_query(
                "lambda F. CV2(F, N, Tx, Pn) :- Family(F, N, Ty), FamilyIntro(F, Tx), FIC(F, C), Person(C, Pn, A)",
            )
            .unwrap(),
            CitationFunction::from_spec(vec![
                CitationFunction::scalar("ID", 0),
                CitationFunction::scalar("Name", 1),
                CitationFunction::scalar("Text", 2),
                CitationFunction::collect("Contributors", 3),
            ]),
        ))
        .unwrap();
        reg.add(fgc_views::CitationView::new(
            parse_query("V3(F, N, Ty) :- Family(F, N, Ty)").unwrap(),
            parse_query(
                "CV3(X1, X2) :- MetaData(T1, X1), T1 = \"Owner\", MetaData(T2, X2), T2 = \"URL\"",
            )
            .unwrap(),
            CitationFunction::from_spec(vec![
                CitationFunction::scalar("Owner", 0),
                CitationFunction::scalar("URL", 1),
            ]),
        ))
        .unwrap();
        reg.add(fgc_views::CitationView::new(
            parse_query("lambda Ty. V4(F, N, Ty) :- Family(F, N, Ty)").unwrap(),
            parse_query(
                "lambda Ty. CV4(Ty, N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)",
            )
            .unwrap(),
            CitationFunction::from_spec(vec![
                CitationFunction::scalar("Type", 0),
                CitationFunction::group(
                    "Contributors",
                    vec![1],
                    vec![
                        CitationFunction::scalar("Name", 1),
                        CitationFunction::collect("Committee", 2),
                    ],
                ),
            ]),
        ))
        .unwrap();
        reg.add(fgc_views::CitationView::new(
            parse_query(
                "lambda Ty. V5(F, N, Ty, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)",
            )
            .unwrap(),
            parse_query(
                "lambda Ty. CV5(N, Ty, Tx, Pn) :- Family(F, N, Ty), FamilyIntro(F, Tx), FIC(F, C), Person(C, Pn, A)",
            )
            .unwrap(),
            CitationFunction::from_spec(vec![
                CitationFunction::scalar("Type", 1),
                CitationFunction::group(
                    "Contributors",
                    vec![0],
                    vec![
                        CitationFunction::scalar("Name", 0),
                        CitationFunction::collect("Committee", 3),
                    ],
                ),
            ]),
        ))
        .unwrap();
        reg
    }

    fn engine() -> CitationEngine {
        CitationEngine::new(paper_db(), paper_registry()).unwrap()
    }

    #[test]
    fn cite_example_2_3_query_pruned() {
        let e = engine();
        let q =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        let result = e.cite(&q).unwrap();
        assert_eq!(result.tuples.len(), 2); // Calcitonin, Orexin rows
                                            // pruned mode with the preference model lands on Q4 = V5("gpcr")
        assert_eq!(result.rewritings[0].1.num_views(), 1);
        assert!(result.rewritings[0].1.view_atoms().any(|v| v.view == "V5"));
        // every tuple cites V5 with valuation "gpcr"
        for tc in &result.tuples {
            let tokens: Vec<String> = tc
                .expr
                .alternatives()
                .flat_map(|(_, p)| p.support().into_iter().map(|t| t.to_string()))
                .collect();
            assert!(tokens.contains(&"CV5(\"gpcr\")".to_string()), "{tokens:?}");
        }
        // interpreted citation carries the contributors of the type
        let c = &result.tuples[0].citation;
        assert_eq!(c.get("Type"), Some(&Json::str("gpcr")));
        assert!(c.get("Contributors").is_some());
    }

    #[test]
    fn cite_exhaustive_keeps_alternatives_without_order() {
        let e = engine()
            .with_policy(Policy::union_all())
            .with_options(EngineOptions {
                mode: RewriteMode::Exhaustive,
                ..EngineOptions::default()
            });
        let q =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        let result = e.cite(&q).unwrap();
        assert!(result.exhaustive);
        assert!(
            result.rewritings.len() >= 4,
            "found {}",
            result.rewritings.len()
        );
        // with no order, each tuple's expression keeps >1 alternative
        assert!(result.tuples[0].expr.num_alternatives() >= 4);
    }

    #[test]
    fn normalization_shrinks_citations() {
        let q =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        let raw = engine()
            .with_policy(Policy::union_all())
            .with_options(EngineOptions {
                mode: RewriteMode::Exhaustive,
                ..EngineOptions::default()
            });
        let ordered = engine()
            .with_policy(Policy::union_all().with_order(OrderChoice::Composite))
            .with_options(EngineOptions {
                mode: RewriteMode::Exhaustive,
                ..EngineOptions::default()
            });
        let raw_size = raw.cite(&q).unwrap().total_monomials();
        let ordered_size = ordered.cite(&q).unwrap().total_monomials();
        assert!(
            ordered_size < raw_size,
            "order should shrink citations: {ordered_size} vs {raw_size}"
        );
    }

    #[test]
    fn unparameterized_view_gives_single_citation() {
        // Q over all families rewrites (among others) to V3; citation
        // of V3 is the owner/URL record, same for all tuples
        let e = engine();
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        let result = e.cite(&q).unwrap();
        assert_eq!(result.tuples.len(), 3);
        for tc in &result.tuples {
            assert!(!tc.expr.is_zero_r());
        }
    }

    #[test]
    fn empty_result_still_aggregates_globals() {
        let e = engine().with_policy(
            Policy::default().with_global(Json::from_pairs([("Database", Json::str("GtoPdb"))])),
        );
        let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"nope\"").unwrap();
        let result = e.cite(&q).unwrap();
        assert!(result.tuples.is_empty());
        assert_eq!(result.aggregate.get("Database"), Some(&Json::str("GtoPdb")));
    }

    #[test]
    fn unsatisfiable_query_flagged() {
        let e = engine();
        let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"a\", Ty = \"b\"").unwrap();
        let result = e.cite(&q).unwrap();
        assert!(result.unsatisfiable);
        assert!(result.tuples.is_empty());
    }

    #[test]
    fn cache_capacity_zero_disables_caching_but_cites_correctly() {
        // regression: capacity 0 used to be clamped to 1 (and an
        // unclamped 0 panicked in the CLOCK sweep)
        let cached = engine();
        let uncached = engine().with_cache_capacity(0);
        let q =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        let a = cached.cite(&q).unwrap();
        let b = uncached.cite(&q).unwrap();
        uncached.cite(&q).unwrap(); // repeat: still no stored entries
        assert_eq!(a.tuples.len(), b.tuples.len());
        for (ta, tb) in a.tuples.iter().zip(&b.tuples) {
            assert_eq!(ta.citation.to_compact(), tb.citation.to_compact());
        }
        let stats = uncached.cache_stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 0);
        assert!(stats.misses > 0);
    }

    #[test]
    fn cache_hits_on_repeated_citations() {
        let e = engine();
        let q =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        e.cite(&q).unwrap();
        let first = e.cache_stats();
        e.cite(&q).unwrap();
        let second = e.cache_stats();
        assert!(second.hits > first.hits);
    }

    #[test]
    fn cite_sql_matches_cite_datalog() {
        let e1 = engine();
        let e2 = engine();
        let datalog =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        let a = e1.cite(&datalog).unwrap();
        let b = e2
            .cite_sql(
                "SELECT f.FName, i.Text FROM Family f, FamilyIntro i \
                 WHERE f.FID = i.FID AND f.Type = 'gpcr'",
            )
            .unwrap();
        assert_eq!(a.tuples.len(), b.tuples.len());
        for (ta, tb) in a.tuples.iter().zip(&b.tuples) {
            assert_eq!(ta.tuple, tb.tuple);
            assert!(ta.citation.equivalent(&tb.citation));
        }
    }

    #[test]
    fn plan_independence_equivalent_queries_same_citation() {
        // reordered atoms and renamed variables: same citations
        let e1 = engine().with_options(EngineOptions {
            mode: RewriteMode::Exhaustive,
            ..EngineOptions::default()
        });
        let e2 = engine().with_options(EngineOptions {
            mode: RewriteMode::Exhaustive,
            ..EngineOptions::default()
        });
        let qa =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        let qb =
            parse_query("Q(A, B) :- FamilyIntro(X, B), Family(X, A, T), T = \"gpcr\"").unwrap();
        let ca = e1.cite(&qa).unwrap();
        let cb = e2.cite(&qb).unwrap();
        assert_eq!(ca.tuples.len(), cb.tuples.len());
        let find = |c: &QueryCitation, t: &Tuple| {
            c.tuples
                .iter()
                .find(|tc| &tc.tuple == t)
                .map(|tc| tc.citation.clone())
        };
        for tc in &ca.tuples {
            let other = find(&cb, &tc.tuple).expect("same result set");
            assert!(
                tc.citation.equivalent(&other),
                "citations differ for {}: {} vs {}",
                tc.tuple,
                tc.citation,
                other
            );
        }
    }

    /// Render a citation result in full: tuple order, symbolic
    /// expressions, interpreted citations, aggregate, rewriting
    /// labels. Byte-level equality of this string is the sharding
    /// acceptance bar.
    fn render(citation: &QueryCitation) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for tc in &citation.tuples {
            let _ = writeln!(out, "{} | {:?} | {}", tc.tuple, tc.expr, tc.citation);
        }
        let _ = writeln!(out, "aggregate: {}", citation.aggregate.to_compact());
        for (label, r) in &citation.rewritings {
            let _ = writeln!(out, "{label}: {r}");
        }
        let _ = writeln!(
            out,
            "exhaustive={} unsatisfiable={}",
            citation.exhaustive, citation.unsatisfiable
        );
        out
    }

    fn paper_shard_spec() -> ShardKeySpec {
        ShardKeySpec::new()
            .with("Family", "FID")
            .with("FamilyIntro", "FID")
            .with("FC", "FID")
            .with("FIC", "FID")
            .with("Person", "PID")
    }

    #[test]
    fn sharded_engine_cites_byte_identically() {
        let reference = engine();
        let queries = [
            "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"",
            "Q(N) :- Family(F, N, Ty)",
            "Q(N) :- Family(\"11\", N, Ty)",
            "Q(N) :- Family(F, N, Ty), Ty = \"nope\"",
        ];
        for shards in [1, 2, 4, 7] {
            let sharded = engine().with_shards(shards, paper_shard_spec()).unwrap();
            for q in queries {
                let q = parse_query(q).unwrap();
                assert_eq!(
                    render(&reference.cite(&q).unwrap()),
                    render(&sharded.cite(&q).unwrap()),
                    "shards={shards}"
                );
            }
        }
    }

    #[test]
    fn sharded_engine_reports_stats_and_routing() {
        let e = engine().with_shards(4, paper_shard_spec()).unwrap();
        assert_eq!(e.shard_count(), 4);
        let stats = e.shard_stats().unwrap();
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.total_tuples, e.database().total_tuples());
        assert_eq!(
            stats.total_tuples,
            stats.tuples_per_shard.iter().sum::<usize>()
        );
        // a keyed selection's answer comes from the shard owning the key
        let q = parse_query("Q(N) :- Family(\"11\", N, Ty)").unwrap();
        let owner = fgc_relation::sharded::shard_of_value(&Value::str("11"), 4);
        for shard in 0..4 {
            let fragment = e.cite_fragment(Some(&q), &[], shard).unwrap();
            let answers = fragment.answers.unwrap();
            assert_eq!(answers.len(), usize::from(shard == owner), "shard {shard}");
        }
        // the unsharded engine has no shard stats
        assert!(engine().shard_stats().is_none());
        assert!(engine().partition().is_none());
        assert_eq!(engine().shard_count(), 1);
    }

    #[test]
    fn rebase_adopts_unchanged_extents_and_rebuilds_on_a_new_catalog() {
        let q =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        let donor = engine().with_shards(2, paper_shard_spec()).unwrap();
        donor.cite(&q).unwrap(); // materializes the extents
        let scratch = |db: &Database| {
            let e = CitationEngine::new(db.clone(), paper_registry()).unwrap();
            render(&e.cite(&q).unwrap())
        };

        // same catalog, FamilyIntro changed: only V2 and V5 read it
        let mut changed = (**donor.database()).clone();
        changed
            .insert("FamilyIntro", tuple!["13", "The kinase family"])
            .unwrap();
        let borrowed = donor.rebase(Arc::new(changed.clone())).unwrap();
        let (before, after) = (
            donor.extent_database_if_built().unwrap(),
            borrowed.extent_database_if_built().unwrap(),
        );
        for (view, adopted) in [("V1", true), ("V2", false), ("V5", false)] {
            let same = Arc::ptr_eq(
                before.relation_arc(view).unwrap(),
                after.relation_arc(view).unwrap(),
            );
            assert_eq!(same, adopted, "{view}");
        }
        assert_eq!(borrowed.shard_count(), 2);
        assert_eq!(borrowed.cache_stats().entries, 0);
        assert_eq!(render(&borrowed.cite(&q).unwrap()), scratch(&changed));

        // a new relation changes the catalog: nothing is borrowed
        let mut extended = changed;
        extended
            .create_relation(
                RelationSchema::with_names("Extra", &[("x", DataType::Int)], &[]).unwrap(),
            )
            .unwrap();
        let rebuilt = donor.rebase(Arc::new(extended.clone())).unwrap();
        assert!(rebuilt.extent_database_if_built().is_none());
        assert_eq!(render(&rebuilt.cite(&q).unwrap()), scratch(&extended));
    }

    #[test]
    fn with_shards_validates_the_key_spec() {
        assert!(engine()
            .with_shards(2, ShardKeySpec::new().with("Family", "Bogus"))
            .is_err());
        assert!(engine()
            .with_shards(2, ShardKeySpec::new().with("Nope", "FID"))
            .is_err());
    }

    #[test]
    fn sharded_engine_serves_batches_identically() {
        let reference = engine();
        let sharded = engine().with_shards(3, paper_shard_spec()).unwrap();
        let requests: Vec<CiteRequest> = [
            "Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"",
            "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)",
        ]
        .iter()
        .map(|q| CiteRequest::query(parse_query(q).unwrap()))
        .collect();
        let a = reference.cite_batch_threads(&requests, 4);
        let b = sharded.cite_batch_threads(&requests, 4);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(
                render(&ra.as_ref().unwrap().citation),
                render(&rb.as_ref().unwrap().citation)
            );
        }
    }

    #[test]
    fn view_name_clash_rejected() {
        let mut reg = ViewRegistry::new();
        reg.add(fgc_views::CitationView::new(
            parse_query("Family(F, N, Ty) :- Family(F, N, Ty)").unwrap(),
            parse_query("CFam(F) :- Family(F, N, Ty)").unwrap(),
            CitationFunction::from_spec(vec![]),
        ))
        .unwrap();
        assert!(matches!(
            CitationEngine::new(paper_db(), reg).unwrap_err(),
            CoreError::ViewNameClash(_)
        ));
    }

    #[test]
    fn join_policy_produces_single_record_per_tuple() {
        let e = engine().with_policy(Policy::join_all());
        let q =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        let result = e.cite(&q).unwrap();
        for tc in &result.tuples {
            assert!(
                matches!(*tc.citation, Json::Object(_)),
                "join policy should merge into one record, got {}",
                tc.citation
            );
        }
        assert_eq!(
            result.tuples[0].citation.get("Type"),
            Some(&Json::str("gpcr"))
        );
    }

    #[test]
    fn equal_expressions_share_one_citation() {
        let queries = [
            "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"",
            "Q(N) :- Family(F, N, Ty)",
        ];
        for policy in [Policy::default(), Policy::union_all(), Policy::join_all()] {
            let e = engine().with_policy(policy.clone());
            for q in queries {
                let result = e.cite(&parse_query(q).unwrap()).unwrap();
                if q == queries[0] {
                    // both gpcr tuples cite V5("gpcr")
                    let [a, b] = &result.tuples[..] else {
                        panic!("two gpcr tuples")
                    };
                    assert!(Arc::ptr_eq(&a.citation, &b.citation));
                }
                for a in &result.tuples {
                    for b in &result.tuples {
                        assert_eq!(a.expr == b.expr, Arc::ptr_eq(&a.citation, &b.citation));
                    }
                }
                // Def. 3.4 by definition: Agg over the global citations,
                // then over every tuple's citation
                let mut folded = Json::Null;
                for g in &policy.global_citations {
                    folded = policy.agg.apply(&folded, g);
                }
                for tc in &result.tuples {
                    folded = policy.agg.apply(&folded, &tc.citation);
                }
                assert_eq!(result.aggregate, folded, "{q}");
            }
        }
    }

    #[test]
    fn agg_union_collects_tuple_citations() {
        let e = engine().with_policy(Policy {
            agg: CombineOp::Union,
            ..Policy::default()
        });
        let q =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        let result = e.cite(&q).unwrap();
        // both tuples share the V5("gpcr") citation: union dedups to 1
        assert!(matches!(result.aggregate, Json::Object(_)));
    }

    #[test]
    fn request_overrides_do_not_rebuild_the_engine() {
        let e = engine(); // defaults: pruned mode, default policy
        let q =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        let pruned = e.cite_request(&CiteRequest::query(q.clone())).unwrap();
        let exhaustive = e
            .cite_request(
                &CiteRequest::query(q.clone())
                    .with_policy(Policy::union_all())
                    .with_mode(RewriteMode::Exhaustive),
            )
            .unwrap();
        assert!(!pruned.citation.exhaustive || pruned.citation.rewritings.len() == 1);
        assert!(exhaustive.citation.exhaustive);
        assert!(
            exhaustive.citation.rewritings.len() > pruned.citation.rewritings.len(),
            "exhaustive override must widen the search: {} vs {}",
            exhaustive.citation.rewritings.len(),
            pruned.citation.rewritings.len()
        );
        // the engine's own defaults are untouched by the overrides
        let again = e.cite(&q).unwrap();
        assert_eq!(again.rewritings.len(), pruned.citation.rewritings.len());
    }

    #[test]
    fn request_reports_timing_and_cache_metadata() {
        let e = engine();
        let q =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        let first = e.cite_request(&CiteRequest::query(q.clone())).unwrap();
        assert!(first.cache_misses > 0);
        assert_eq!(first.cache_hits, 0);
        let second = e.cite_request(&CiteRequest::query(q)).unwrap();
        assert_eq!(second.cache_misses, 0);
        assert!(second.cache_hits > 0);
        assert!((second.cache_hit_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sql_requests_parse_against_the_catalog() {
        let e = engine();
        let response = e
            .cite_request(&CiteRequest::sql(
                "SELECT f.FName FROM Family f WHERE f.Type = 'gpcr'",
            ))
            .unwrap();
        assert_eq!(response.citation.tuples.len(), 2);
        assert!(e
            .cite_request(&CiteRequest::sql("SELECT nope FROM"))
            .is_err());
    }

    #[test]
    fn cite_batch_preserves_request_order() {
        let e = engine();
        let requests: Vec<CiteRequest> = (0..8)
            .map(|i| {
                let ty = if i % 2 == 0 { "gpcr" } else { "enzyme" };
                CiteRequest::query(
                    parse_query(&format!("Q(N) :- Family(F, N, Ty), Ty = \"{ty}\"")).unwrap(),
                )
            })
            .collect();
        for threads in [1, 2, 4, 8] {
            let responses = e.cite_batch_threads(&requests, threads);
            assert_eq!(responses.len(), 8);
            for (i, r) in responses.iter().enumerate() {
                let citation = &r.as_ref().unwrap().citation;
                let expected = if i % 2 == 0 { 2 } else { 1 };
                assert_eq!(
                    citation.tuples.len(),
                    expected,
                    "slot {i} at {threads} threads answered the wrong query"
                );
            }
        }
    }

    #[test]
    fn cite_batch_keeps_per_request_errors_in_place() {
        let e = engine();
        let good =
            CiteRequest::query(parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").unwrap());
        let bad = CiteRequest::query(parse_query("Q(X) :- Nope(X)").unwrap());
        let responses = e.cite_batch_threads(&[good.clone(), bad, good], 4);
        assert!(responses[0].is_ok());
        assert!(responses[1].is_err());
        assert!(responses[2].is_ok());
    }

    #[test]
    fn shared_engine_cites_identically_across_threads() {
        let e = Arc::new(engine());
        let q =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        let serial = e.cite(&q).unwrap();
        let rendered: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let e = Arc::clone(&e);
                    let q = q.clone();
                    scope.spawn(move || {
                        let c = e.cite(&q).unwrap();
                        c.tuples
                            .iter()
                            .map(|t| t.citation.to_compact())
                            .collect::<Vec<_>>()
                            .join("\n")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let expected = serial
            .tuples
            .iter()
            .map(|t| t.citation.to_compact())
            .collect::<Vec<_>>()
            .join("\n");
        for r in rendered {
            assert_eq!(r, expected);
        }
    }
}
