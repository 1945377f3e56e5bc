//! The citation engine — Definitions 3.1–3.4 end to end.
//!
//! Pipeline for `cite(D, Q, V)`:
//!
//! 1. rewrite `Q` using the citation views (exhaustively, or with the
//!    pruned preference search — the engine's *mode*); this half reads
//!    only view definitions and schemas (§3.2);
//! 2. evaluate `Q` over `D` (the result set being cited) and every
//!    rewriting's expansion: its view subgoals replaced by the views'
//!    bodies, so the views stay definitions and are never
//!    materialized;
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
use fgc_query::ast::{ConjunctiveQuery, Term};
use fgc_query::eval::EvalOptions;
use fgc_query::{evaluate_grouped_plan_with, evaluate_plan_with, parse_sql, Binding, QueryPlan};
use fgc_relation::storage::Storage;
use fgc_relation::{Database, DatabaseDelta, ShardKeySpec, Tuple, Value};
use fgc_rewrite::{best_rewritings, enumerate_rewritings, RewriteOptions, Rewriting, ViewDefs};
use fgc_semiring::{CitationExpr, CommutativeSemiring, Monomial, Polynomial};
use fgc_views::{Json, ViewRegistry};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
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
/// bindings that derive it, in derivation order (the order
/// [`fgc_query::evaluate_grouped`] produces).
type ExtentGroups = Vec<(Tuple, Vec<Binding>)>;

/// What every snapshot of one catalog shares. Each cache key names the
/// relation instances its entry was computed from ([`crate::plan_cache`]).
#[derive(Debug)]
struct CatalogState {
    registry: ViewRegistry,
    view_defs: ViewDefs,
    policy: Policy,
    options: EngineOptions,
    inclusion: BTreeMap<(String, String), bool>,
    cache: CitationCache,
    /// Compiled [`QueryPlan`]s — answer queries and rewriting
    /// expansions share it (see [`crate::plan_cache`] for the key).
    /// Warm `cite`/`cite_sql` calls skip parse-order-validate
    /// entirely.
    plans: PlanCache,
    /// Per-stage latency histograms over the cite pipeline
    /// ([`fgc_obs::CITE_STAGES`]); every serving entry point records
    /// into them, and an active [`fgc_obs::Trace`] additionally
    /// collects a per-request breakdown.
    stages: StageSet,
}

/// The citation engine: one catalog's shared state over one database
/// snapshot.
///
/// All serving entry points ([`cite`](Self::cite),
/// [`cite_sql`](Self::cite_sql), [`cite_request`](Self::cite_request))
/// take `&self`: the mutable state (the token-citation and plan
/// caches) sits behind interior mutability, so one engine wrapped in
/// an `Arc` can serve many threads concurrently, all sharing the same
/// caches. [`Self::at`] serves another snapshot of the same catalog
/// through the same state, caches included.
#[derive(Debug)]
pub struct CitationEngine {
    state: Arc<CatalogState>,
    db: Arc<Database>,
    /// Storage backend the snapshot was loaded from or persists to,
    /// when one is attached ([`Self::with_storage`]). The engine
    /// itself never writes through it — snapshots are immutable —
    /// but keeps the handle so `GET /stats` and `GET /metrics` can
    /// surface backend counters next to the serving stats. A
    /// versioned engine holds its own handle; the engines it serves
    /// versions with carry none.
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
        let state = CatalogState {
            registry,
            view_defs,
            policy: Policy::default(),
            options: EngineOptions::default(),
            inclusion,
            cache: CitationCache::default(),
            plans: PlanCache::default(),
            stages: StageSet::new(CITE_STAGES),
        };
        Ok(CitationEngine {
            state: Arc::new(state),
            db,
            storage: None,
        })
    }

    /// The catalog-level state, for a builder to configure. Panics
    /// once [`Self::at`] shares it: replacing shared caches or
    /// defaults would silently split the engines that share them.
    fn state_mut(&mut self) -> &mut CatalogState {
        Arc::get_mut(&mut self.state)
            .expect("an engine is configured before `at` shares its catalog state")
    }

    /// Replace the policy (builder style).
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.state_mut().policy = policy;
        self
    }

    /// Replace the options (builder style).
    pub fn with_options(mut self, options: EngineOptions) -> Self {
        self.state_mut().options = options;
        self
    }

    /// Bound the token cache at `per_shard` entries per shard
    /// (builder style; replaces the cache, dropping any entries).
    /// Excess entries are evicted second-chance (CLOCK) — see
    /// [`CitationCache`]. A capacity of 0 disables the cache.
    pub fn with_cache_capacity(mut self, per_shard: usize) -> Self {
        self.state_mut().cache = CitationCache::with_shard_capacity(per_shard);
        self
    }

    /// Bound the compiled-plan cache at `per_shard` entries per
    /// shard (builder style; replaces the cache, dropping any
    /// plans). A capacity of 0 disables plan caching: every
    /// evaluation re-compiles — the interpreter-era cost model,
    /// kept switchable for the equivalence tests.
    pub fn with_plan_cache_capacity(mut self, per_shard: usize) -> Self {
        self.state_mut().plans = PlanCache::with_shard_capacity(per_shard);
        self
    }

    /// The engine unchanged: every replica cites from its whole store,
    /// so nothing is owned by a shard. Kept for
    /// `benchmark/src/stack.rs:178`.
    pub fn with_shards(self, _shards: usize, _key_spec: ShardKeySpec) -> Result<Self> {
        Ok(self)
    }

    /// Attach the storage backend this snapshot came from (builder
    /// style). Purely observational at the single-snapshot level:
    /// persistence happens when the owner of the history syncs, but
    /// the handle lets servers report backend stats alongside the
    /// cache counters.
    pub fn with_storage(mut self, storage: Arc<dyn Storage>) -> Self {
        self.storage = Some(storage);
        self
    }

    /// The attached storage backend, if any.
    pub fn storage(&self) -> Option<&Arc<dyn Storage>> {
        self.storage.as_ref()
    }

    /// The underlying database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The view registry.
    pub fn registry(&self) -> &ViewRegistry {
        &self.state.registry
    }

    /// The current policy.
    pub fn policy(&self) -> &Policy {
        &self.state.policy
    }

    /// Citation-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.state.cache.stats()
    }

    /// Compiled-plan cache statistics (surfaced on `GET /stats` as
    /// `plan_cache` and by `fgcite cite --explain`).
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.state.plans.stats()
    }

    /// Per-stage latency histograms over the cite pipeline, exposed
    /// on `GET /metrics` (stage label) and summarized by `cite
    /// --explain`. Samples are nanoseconds.
    pub fn stage_stats(&self) -> &StageSet {
        &self.state.stages
    }

    /// Latency distribution of token-cache miss computations
    /// (nanoseconds).
    pub fn cache_compute_latency(&self) -> fgc_obs::HistogramSnapshot {
        self.state.cache.miss_latency()
    }

    /// Latency distribution of plan-cache miss compiles
    /// (nanoseconds).
    pub fn plan_compile_latency(&self) -> fgc_obs::HistogramSnapshot {
        self.state.plans.miss_latency()
    }

    /// The engine for the database `delta` produces from this one's:
    /// clone the store (every relation stays shared until replay
    /// touches it), replay the delta, and serve the result through
    /// [`Self::at`]. Versioned serving calls `at` with the history's
    /// own snapshots instead; this shim stays for
    /// `benchmark/src/layers.rs:401`.
    ///
    /// Errors with [`fgc_relation::RelationError::DeltaMismatch`]
    /// (via [`CoreError::Relation`]) when this engine's database is
    /// not the delta's parent.
    pub fn derive_with_delta(&self, delta: &DatabaseDelta) -> Result<CitationEngine> {
        let mut db = (*self.db).clone();
        db.apply_delta(delta)?;
        self.at(Arc::new(db))
    }

    /// This engine over another snapshot — a version is an argument,
    /// not an engine. With an equal catalog the new engine shares this
    /// one's catalog-level state, caches included (their keys name
    /// the relation instances each entry was computed from); that
    /// costs two `Arc` clones. A different catalog changes the view
    /// definitions' dependencies and the inclusion matrix, so it means
    /// a from-scratch build under this engine's policy and options,
    /// with fresh caches at their default capacities.
    pub fn at(&self, snapshot: Arc<Database>) -> Result<CitationEngine> {
        if self.db.catalog() == snapshot.catalog() {
            return Ok(CitationEngine {
                state: Arc::clone(&self.state),
                db: snapshot,
                storage: None,
            });
        }
        Ok(Self::build(snapshot, self.state.registry.clone())?
            .with_policy(self.state.policy.clone())
            .with_options(self.state.options))
    }

    /// Drop cached citations and compiled plans (e.g. for cold-start
    /// runs).
    pub fn clear_caches(&self) {
        self.state.cache.clear();
        self.state.plans.clear();
    }

    /// The engine's default configuration, with a request's overrides
    /// applied on top.
    fn effective<'a>(&'a self, request: Option<&'a CiteRequest>) -> EffectiveConfig<'a> {
        let (policy, options) = (&self.state.policy, self.state.options);
        EffectiveConfig {
            policy: request.and_then(|r| r.policy.as_ref()).unwrap_or(policy),
            mode: request.and_then(|r| r.mode).unwrap_or(options.mode),
            rewrite: request.and_then(|r| r.rewrite).unwrap_or(options.rewrite),
        }
    }

    /// The instance ids of the relations `q`'s atoms name in this
    /// engine's store, in atom order (0 for a relation the store
    /// lacks): what a cached value computed from `q` read.
    fn instances(&self, q: &ConjunctiveQuery) -> Vec<u64> {
        q.atoms
            .iter()
            .map(|a| self.db.relation(&a.relation).map_or(0, |r| r.instance()))
            .collect()
    }

    /// The cached compiled plan for a query over the store (compiling
    /// on miss).
    fn cached_plan(&self, q: ConjunctiveQuery) -> Result<Arc<QueryPlan>> {
        let key = (self.instances(&q), q);
        Ok(self.state.stages.time("plan", || {
            self.state
                .plans
                .get_or_compile(&key, || QueryPlan::compile(&key.1, &self.db))
        })?)
    }

    /// The cached plan of extent query `e`'s expansion. The plan is
    /// keyed by the expansion, an ordinary query over the store, never
    /// by the view-named `e`.
    fn expansion_plan(&self, e: &ConjunctiveQuery) -> Result<Arc<QueryPlan>> {
        self.cached_plan(self.state.view_defs.expand(e)?)
    }

    /// The answer set of `q` over the whole store. Plans come from
    /// the engine's plan cache.
    fn answers(&self, q: &ConjunctiveQuery) -> Result<Vec<Tuple>> {
        let plan = self.cached_plan(q.clone())?;
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
                let e = enumerate_rewritings(q, &self.state.view_defs, options)?;
                fgc_rewrite::Enumeration {
                    rewritings: fgc_rewrite::rank(e.rewritings),
                    ..e
                }
            }
            RewriteMode::Pruned => best_rewritings(q, &self.state.view_defs, options)?,
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

    /// The grouped bindings of one extent query's expansion over the
    /// store. Def. 3.3 needs only the set of λ-valuations each view
    /// subgoal takes per answer tuple, and the expansion derives every
    /// one of them; a valuation with several derivations repeats, and
    /// [`Polynomial::squash_coefficients`] collapses it.
    fn extent_groups(&self, e: &ConjunctiveQuery) -> Result<ExtentGroups> {
        let plan = self.expansion_plan(e)?;
        Ok(evaluate_grouped_plan_with(
            &self.db,
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
    /// cache; hit/miss attributed to the current request). A view
    /// token's key carries the instances its citation query reads; a
    /// base token's citation reads no data.
    fn token_citation(&self, token: &CiteToken, counters: &mut RequestCounters) -> Json {
        let view = match token {
            CiteToken::View { view, .. } => self.state.registry.get(view),
            CiteToken::Base { .. } => None,
        };
        let inputs = view.map_or_else(Vec::new, |v| self.instances(&v.citation_query));
        let key = (inputs, token.clone());
        let (citation, hit) = self.state.cache.lookup_or_compute(&key, || match token {
            CiteToken::View { valuation, .. } => view
                .map(|v| v.citation_for(&self.db, valuation).unwrap_or(Json::Null))
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
    /// defaults ⊕ request overrides) configuration; token-cache
    /// traffic is counted into `counters`.
    fn cite_under(
        &self,
        q: &ConjunctiveQuery,
        config: &EffectiveConfig<'_>,
        counters: &mut RequestCounters,
    ) -> Result<QueryCitation> {
        let policy = config.policy;
        let stages = &self.state.stages;
        // The rewritings are a function of the views and schemas alone
        // (§3.2), but an answer-evaluation error outranks a
        // rewriting-search one.
        let rewritten = stages.time("rewrite", || {
            self.rewritings(q, config.mode, config.rewrite)
        });
        // `evaluate` wraps the whole answer evaluation, so the `plan`
        // span recorded inside it nests under it
        let answers = stages.time("evaluate", || self.answers(q))?;
        let (rewritings, exhaustive, unsatisfiable) = rewritten?;
        let extents = stages.time("extent", || {
            rewritings
                .iter()
                .map(|(_, r)| self.extent_groups(&r.as_extent_query()))
                .collect::<Result<Vec<_>>>()
        })?;
        let mut exprs = self
            .state
            .stages
            .time("extent", || Self::symbolic_citations(&rewritings, extents));

        // Equal symbolic expressions interpret to equal citations, and
        // result sets over curated hierarchies share few distinct
        // expressions (e.g. one per family type) — memoize the
        // interpretation per normalized expression and share it by
        // `Arc`, so a memo hit is a refcount bump. The memo is
        // request-local: it depends on the (possibly overridden)
        // policy, unlike the policy-independent shared token cache.
        self.state
            .stages
            .time("render", move || -> Result<QueryCitation> {
                let mut interp_memo: HashMap<CitationExpr<String, CiteToken>, Arc<Json>> =
                    HashMap::new();
                let mut distinct_citations: Vec<Arc<Json>> = Vec::new();
                let mut tuples = Vec::with_capacity(answers.len());
                for tuple in answers {
                    let expr = exprs.remove(&tuple).unwrap_or_else(CitationExpr::zero_r);
                    let normalized = policy.normalize(&expr, &self.state.inclusion);
                    let citation = match interp_memo.get(&normalized) {
                        Some(hit) => Arc::clone(hit),
                        None => {
                            let mut value_of = |t: &CiteToken| self.token_citation(t, counters);
                            let citation = Arc::new(
                                interpret_expr(policy, &normalized, &mut value_of)
                                    .unwrap_or(Json::Null),
                            );
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
        self.cite_under(q, &self.effective(None), &mut RequestCounters::default())
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
        let started = Instant::now();
        let trace = Trace::start(request.request_id.clone().unwrap_or_default());
        let q = self.state.stages.time("parse", || match &request.query {
            QuerySpec::Datalog(q) => Ok(q.clone()),
            QuerySpec::Sql(sql) => parse_sql(self.db.catalog(), sql).map_err(CoreError::from),
        })?;
        let mut counters = RequestCounters::default();
        let citation = self.cite_under(&q, &self.effective(Some(request)), &mut counters);
        let report = trace.finish();
        Ok(CiteResponse {
            citation: citation?,
            elapsed: started.elapsed(),
            cache_hits: counters.hits,
            cache_misses: counters.misses,
            stages: report.stages,
            request_id: request.request_id.clone(),
        })
    }

    /// Serve a batch of requests over `threads` scoped workers sharing
    /// this engine, results in request order. No server calls it; it
    /// stays for `benchmark/src/layers.rs:258`.
    pub fn cite_batch_threads(
        &self,
        requests: &[CiteRequest],
        threads: usize,
    ) -> Vec<Result<CiteResponse>> {
        let workers = threads.clamp(1, requests.len().max(1));
        if workers <= 1 || requests.len() <= 1 {
            return requests.iter().map(|r| self.cite_request(r)).collect();
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CombineOp, OrderChoice};
    use fgc_query::parse_query;
    use fgc_relation::schema::RelationSchema;
    use fgc_relation::{tuple, DataType};
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
    /// labels. Byte-level equality of this string is what sharing a
    /// catalog's state across snapshots must keep.
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

    #[test]
    fn rebase_keeps_the_catalog_state_and_rebuilds_on_a_new_catalog() {
        let q =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        let donor = engine();
        donor.cite(&q).unwrap(); // fills the caches
        let scratch = |db: &Database| {
            let e = CitationEngine::new(db.clone(), paper_registry()).unwrap();
            render(&e.cite(&q).unwrap())
        };

        // same catalog, FamilyIntro changed: only V2 and V5 read it
        let mut changed = (**donor.database()).clone();
        changed
            .insert("FamilyIntro", tuple!["13", "The kinase family"])
            .unwrap();
        let borrowed = donor.at(Arc::new(changed.clone())).unwrap();
        // one cache: what the donor filled, the borrower sees
        assert!(donor.cache_stats().entries > 0);
        assert_eq!(borrowed.cache_stats(), donor.cache_stats());
        assert_eq!(render(&borrowed.cite(&q).unwrap()), scratch(&changed));
        assert_eq!(borrowed.plan_stats(), donor.plan_stats());

        // a new relation changes the catalog: a from-scratch build
        let mut extended = changed;
        extended
            .create_relation(
                RelationSchema::with_names("Extra", &[("x", DataType::Int)], &[]).unwrap(),
            )
            .unwrap();
        let rebuilt = donor.at(Arc::new(extended.clone())).unwrap();
        assert_eq!(rebuilt.cache_stats().entries, 0);
        assert_eq!(render(&rebuilt.cite(&q).unwrap()), scratch(&extended));
    }

    #[test]
    fn a_view_named_query_never_reads_a_cached_expansion_plan() {
        let e = engine();
        let q = parse_query("Q(N) :- Family(F, N, Ty), F = \"11\"").unwrap();
        let cited = e.cite(&q).unwrap();
        let extent = cited.rewritings[0].1.as_extent_query();
        assert_eq!(extent.to_string(), "Q(N) :- V1(\"11\", N, Ty)");
        // the warm engine holds the plan of that query's expansion, but
        // the view-named text is no query over the store
        let err = e.cite(&extent).unwrap_err().to_string();
        assert!(err.contains("unknown relation `V1`"), "{err}");
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
