//! Evaluation of conjunctive queries: one evaluator over a [`Source`].
//!
//! The evaluator is a backtracking index-nested-loop join with a
//! greedy atom order (most-bound atom first), compiled once into a
//! [`QueryPlan`]. *What the plan scans* is a value, not a function
//! name: a [`Source`] is an unsharded [`Database`] or a
//! [`ShardedDatabase`] under a [`RoutePlan`]. Three collectors fold
//! the one enumeration of bindings per distinct output tuple, in
//! first-derivation order — each compiling a plan per call, with a
//! `_plan_with` form that runs a plan compiled earlier:
//!
//! * [`evaluate`] — distinct output tuples (set semantics);
//! * [`evaluate_grouped`] — output tuples with *all* their bindings,
//!   the raw material for Definition 3.2's sum over bindings;
//! * [`evaluate_annotated`] — semiring-annotated evaluation: each
//!   base tuple carries an annotation, joins multiply (`·`), multiple
//!   derivations of the same output add (`+`) — §3.1 of the paper.
//!   This is the "changes ... in terms of query processing (to
//!   combine citation annotations)" the paper anticipates in §4.

use crate::ast::{ConjunctiveQuery, Term};
use crate::error::{QueryError, Result};
use crate::plan::{for_each_frame, Frame, PlanMatchedRows, QueryPlan};
use crate::safety::{check_against_catalog, check_safety};
use crate::sharded::{RoutePlan, ShardRouter, ShardSet};
use fgc_relation::schema::Catalog;
use fgc_relation::sharded::ShardedDatabase;
use fgc_relation::{Database, Tuple, Value};
use fgc_semiring::CommutativeSemiring;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// A total assignment of values to the query's variables.
pub type Binding = HashMap<String, Value>;

/// Resource limits for evaluation.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Maximum number of bindings enumerated before
    /// [`QueryError::BudgetExceeded`] is raised.
    pub max_bindings: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            max_bindings: 10_000_000,
        }
    }
}

/// Row provenance: which row of which relation each atom matched.
/// Entries are `(atom index, relation name, row position)` — for a
/// sharded store the position is the **global** insertion rank, equal
/// to the row position the unsharded database would report.
pub type MatchedRows<'q> = Vec<(usize, &'q str, usize)>;

/// What one atom scans: the whole relation, or the routed shard
/// fragments presented in **global insertion order**. Keeping the
/// global order (and reporting global row ids) is what makes routed
/// evaluation bit-compatible with the unsharded evaluator: the same
/// bindings are enumerated in the same sequence, so first-derivation
/// output order, grouped binding order, and semiring accumulation
/// order all coincide.
/// All three variants borrow straight from the store — building a
/// view is O(shards), not O(tuples), so a routed lookup pays for the
/// fragment it scans, never for the relation it skipped.
#[derive(Debug)]
pub(crate) enum AtomView<'a> {
    /// An unsharded relation: view position = row position.
    Whole(&'a fgc_relation::Relation),
    /// One routed shard fragment: view position = local position
    /// (per-shard locals are appended in global order, so local order
    /// *is* the global order restricted to the shard).
    Fragment {
        /// The single fragment the router proved sufficient.
        fragment: &'a fgc_relation::Relation,
        /// Local position → global row id (ascending).
        global_ids: &'a [usize],
        /// Global relation size (all shards), so the greedy atom
        /// order sees the same statistics as the unsharded planner.
        planned_len: usize,
    },
    /// Fan-out over every shard: view position = global rank.
    Scatter {
        /// One fragment per shard, indexed by shard id.
        fragments: Vec<&'a fgc_relation::Relation>,
        /// Global rank → `(shard, local position)`.
        placement: &'a [(u32, u32)],
        /// Per shard: local position → global rank.
        global_ids: Vec<&'a [usize]>,
    },
}

impl AtomView<'_> {
    /// Size used by the greedy atom-order heuristic. For routed views
    /// this is the *global* relation size: the plan must not depend
    /// on how much routing pruned, or sharded and unsharded runs
    /// could pick different join orders (and different output order).
    fn planned_len(&self) -> usize {
        match self {
            AtomView::Whole(rel) => rel.len(),
            AtomView::Fragment { planned_len, .. } => *planned_len,
            AtomView::Scatter { placement, .. } => placement.len(),
        }
    }

    /// Number of rows this view actually scans.
    pub(crate) fn scan_len(&self) -> usize {
        match self {
            AtomView::Whole(rel) => rel.len(),
            AtomView::Fragment { fragment, .. } => fragment.len(),
            AtomView::Scatter { placement, .. } => placement.len(),
        }
    }

    /// The tuple at a view position.
    pub(crate) fn row(&self, pos: usize) -> &Tuple {
        match self {
            AtomView::Whole(rel) => &rel.rows()[pos],
            AtomView::Fragment { fragment, .. } => &fragment.rows()[pos],
            AtomView::Scatter {
                fragments,
                placement,
                ..
            } => {
                let (shard, local) = placement[pos];
                &fragments[shard as usize].rows()[local as usize]
            }
        }
    }

    /// The global row id at a view position (what [`MatchedRows`]
    /// reports).
    pub(crate) fn global_id(&self, pos: usize) -> usize {
        match self {
            AtomView::Whole(_) | AtomView::Scatter { .. } => pos,
            AtomView::Fragment { global_ids, .. } => global_ids[pos],
        }
    }

    /// Index probe: view positions whose `column` equals `value`, in
    /// ascending (global) order — `None` when any underlying fragment
    /// lacks the index (caller scans). Thin materializing wrapper
    /// over [`Self::probe_positions`] (the one authoritative probe
    /// implementation, in [`crate::plan`]) so the interpreter and
    /// the compiled executor can never diverge here.
    fn probe(&self, column: usize, value: &Value) -> Option<Vec<usize>> {
        use crate::plan::Candidates;
        self.probe_positions(column, value).map(|c| match c {
            Candidates::Borrowed(positions) => positions.to_vec(),
            Candidates::Owned(positions) => positions,
            Candidates::Scan(_) => unreachable!("probe_positions never returns Scan"),
        })
    }
}

/// What a plan scans. An unsharded database is the one-fragment case
/// of the same evaluation: both stores present the same catalog and
/// the same **global** relation sizes to [`QueryPlan::compile`], so
/// one plan serves every source, and the collectors below never ask
/// which store they run over.
#[derive(Debug, Clone)]
pub enum Source<'a> {
    /// An unsharded database: every atom scans its whole relation.
    Whole(&'a Database),
    /// A sharded store and the per-atom route that prunes its scans;
    /// the route must come from the query the plan was compiled from.
    /// `None` is a store nobody routed yet (what `From` yields): the
    /// compile-then-run entry points route it from their query, and
    /// under a pre-compiled plan every atom fans out to all shards —
    /// routing only ever prunes, so the output is the same.
    Routed(&'a ShardedDatabase, Option<RoutePlan>),
}

impl<'a> From<&'a Database> for Source<'a> {
    fn from(db: &'a Database) -> Self {
        Source::Whole(db)
    }
}

impl<'a> From<&'a ShardedDatabase> for Source<'a> {
    fn from(db: &'a ShardedDatabase) -> Self {
        Source::Routed(db, None)
    }
}

impl<'a> Source<'a> {
    /// The catalog queries are checked against.
    pub(crate) fn catalog(&self) -> &'a Catalog {
        match self {
            Source::Whole(db) => db.catalog(),
            Source::Routed(db, _) => db.catalog(),
        }
    }

    /// Global size of a relation (all shards) — the statistic the
    /// greedy join order is frozen from.
    pub(crate) fn relation_len(&self, relation: &str) -> Result<usize> {
        Ok(match self {
            Source::Whole(db) => db.relation(relation)?.len(),
            Source::Routed(db, _) => db.placement(relation)?.len(),
        })
    }

    /// The view each atom of `plan` scans, in original atom order.
    pub(crate) fn views(&self, plan: &QueryPlan) -> Result<Vec<AtomView<'a>>> {
        let relations = plan.atom_relations().iter();
        match self {
            Source::Whole(db) => relations
                .map(|r| Ok(AtomView::Whole(db.relation(r)?)))
                .collect(),
            Source::Routed(db, None) => relations
                .map(|r| routed_view(db, r, ShardSet::All))
                .collect(),
            Source::Routed(db, Some(route)) => {
                // A plan/route pair from different queries would
                // zip-truncate here and index out of bounds (or scan
                // wrong fragments) in the executor — fail fast
                // instead, in release builds too.
                assert_eq!(
                    relations.len(),
                    route.atoms.len(),
                    "QueryPlan and RoutePlan must come from the same query"
                );
                relations
                    .zip(&route.atoms)
                    .map(|(r, set)| routed_view(db, r, *set))
                    .collect()
            }
        }
    }
}

fn routed_view<'a>(db: &'a ShardedDatabase, relation: &str, set: ShardSet) -> Result<AtomView<'a>> {
    match set {
        // a single shard holds the whole relation: the fragment *is*
        // the relation, in global order already
        ShardSet::All if db.shard_count() == 1 => {
            Ok(AtomView::Whole(db.shards()[0].relation(relation)?))
        }
        ShardSet::All => Ok(AtomView::Scatter {
            fragments: db.fragments(relation)?,
            placement: db.placement(relation)?,
            global_ids: db
                .shard_global_ids(relation)?
                .iter()
                .map(Vec::as_slice)
                .collect(),
        }),
        ShardSet::One(s) => Ok(AtomView::Fragment {
            fragment: db.shards()[s].relation(relation)?,
            global_ids: &db.shard_global_ids(relation)?[s],
            planned_len: db.placement(relation)?.len(),
        }),
    }
}

/// Core enumeration of the **seed interpreter**, over pre-built atom
/// views: call `sink` once per complete binding.
///
/// The atom order is chosen greedily: at each step pick the atom with
/// the most already-bound argument positions (constants count as
/// bound), breaking ties by smaller relation. Comparisons run as soon
/// as both sides are bound. Safety and catalog checks are the
/// caller's responsibility.
///
/// The serving paths no longer run this; [`crate::plan`] compiles
/// the same choices once and executes them over slot frames. This
/// interpreter is the ground truth the compiled executor is diffed
/// against (`tests/plan_equivalence.rs`).
pub(crate) fn for_each_binding_views<'q>(
    q: &'q ConjunctiveQuery,
    relations: &[AtomView<'_>],
    options: EvalOptions,
    sink: &mut dyn FnMut(&Binding, &MatchedRows<'q>) -> Result<()>,
) -> Result<usize> {
    let mut binding: Binding = Binding::new();
    // Seed bindings from `Var = Const` equality comparisons so they
    // act as selections, and collect residual comparisons.
    let mut residual = Vec::new();
    for c in &q.comparisons {
        let n = c.normalized();
        if n.op == crate::ast::CompOp::Eq {
            if let (Term::Var(v), Term::Const(val)) = (&n.left, &n.right) {
                if let Some(prev) = binding.get(v.as_str()) {
                    if prev != val {
                        return Ok(0); // contradictory selections
                    }
                } else {
                    binding.insert(v.clone(), val.clone());
                }
                continue;
            }
        }
        residual.push(n);
    }

    let mut used = vec![false; q.atoms.len()];
    let mut comp_done = vec![false; residual.len()];
    let mut matched: MatchedRows<'q> = Vec::with_capacity(q.atoms.len());
    let mut budget = options.max_bindings;

    fn resolve_term(binding: &Binding, t: &Term) -> Option<Value> {
        match t {
            Term::Const(v) => Some(v.clone()),
            Term::Var(v) => binding.get(v.as_str()).cloned(),
        }
    }

    // Recursive walker. Implemented with an explicit helper fn to keep
    // the borrow checker happy about the shared state.
    #[allow(clippy::too_many_arguments)]
    fn walk<'q>(
        q: &'q ConjunctiveQuery,
        relations: &[AtomView<'_>],
        residual: &[crate::ast::Comparison],
        binding: &mut Binding,
        used: &mut [bool],
        comp_done: &mut [bool],
        matched: &mut MatchedRows<'q>,
        budget: &mut usize,
        limit: usize,
        sink: &mut dyn FnMut(&Binding, &MatchedRows<'q>) -> Result<()>,
    ) -> Result<()> {
        // Apply every not-yet-applied comparison whose terms are bound.
        let mut applied_here = Vec::new();
        for (i, c) in residual.iter().enumerate() {
            if comp_done[i] {
                continue;
            }
            let l = resolve_term(binding, &c.left);
            let r = resolve_term(binding, &c.right);
            if let (Some(l), Some(r)) = (l, r) {
                comp_done[i] = true;
                applied_here.push(i);
                if !c.op.eval(&l, &r) {
                    for j in applied_here {
                        comp_done[j] = false;
                    }
                    return Ok(());
                }
            }
        }

        // All atoms used: emit the binding.
        if used.iter().all(|u| *u) {
            if *budget == 0 {
                return Err(QueryError::BudgetExceeded {
                    what: "bindings".into(),
                    limit,
                });
            }
            *budget -= 1;
            let result = sink(binding, matched);
            for j in applied_here {
                comp_done[j] = false;
            }
            return result;
        }

        // Greedy choice: atom with most bound positions.
        let mut best: Option<(usize, usize, usize)> = None; // (bound count, -size, idx)
        for (i, a) in q.atoms.iter().enumerate() {
            if used[i] {
                continue;
            }
            let bound = a
                .terms
                .iter()
                .filter(|t| resolve_term(binding, t).is_some())
                .count();
            let size = relations[i].planned_len();
            let candidate = (bound, usize::MAX - size, i);
            if best.is_none_or(|b| candidate > b) {
                best = Some(candidate);
            }
        }
        let (_, _, idx) = best.expect("at least one unused atom");
        let atom = &q.atoms[idx];
        let rel = &relations[idx];
        used[idx] = true;

        // Candidate rows: probe a secondary index on the first bound
        // column if available, otherwise scan.
        let bound_col = atom
            .terms
            .iter()
            .enumerate()
            .find_map(|(col, t)| resolve_term(binding, t).map(|v| (col, v)));
        let positions: Vec<usize> = match &bound_col {
            Some((col, v)) => match rel.probe(*col, v) {
                Some(p) => p,
                None => (0..rel.scan_len()).collect(),
            },
            None => (0..rel.scan_len()).collect(),
        };

        'rows: for pos in positions {
            let row = rel.row(pos);
            // match atom terms against the row
            let mut newly_bound: Vec<&str> = Vec::new();
            for (col, t) in atom.terms.iter().enumerate() {
                match t {
                    Term::Const(c) => {
                        if &row[col] != c {
                            for v in newly_bound.drain(..) {
                                binding.remove(v);
                            }
                            continue 'rows;
                        }
                    }
                    Term::Var(v) => match binding.get(v.as_str()) {
                        Some(existing) => {
                            if existing != &row[col] {
                                for v in newly_bound.drain(..) {
                                    binding.remove(v);
                                }
                                continue 'rows;
                            }
                        }
                        None => {
                            binding.insert(v.clone(), row[col].clone());
                            newly_bound.push(v.as_str());
                        }
                    },
                }
            }
            matched.push((idx, atom.relation.as_str(), rel.global_id(pos)));
            let r = walk(
                q, relations, residual, binding, used, comp_done, matched, budget, limit, sink,
            );
            matched.pop();
            let owned: Vec<String> = newly_bound.iter().map(|s| s.to_string()).collect();
            for v in owned {
                binding.remove(&v);
            }
            r?;
        }

        used[idx] = false;
        for j in applied_here {
            comp_done[j] = false;
        }
        Ok(())
    }

    let mut count = 0usize;
    let mut counting_sink = |b: &Binding, m: &MatchedRows<'q>| {
        count += 1;
        sink(b, m)
    };
    walk(
        q,
        relations,
        &residual,
        &mut binding,
        &mut used,
        &mut comp_done,
        &mut matched,
        &mut budget,
        options.max_bindings,
        &mut counting_sink,
    )?;
    Ok(count)
}

/// Project the head of `q` under a binding. Head terms must resolve
/// (guaranteed by the safety check).
fn project_head(q: &ConjunctiveQuery, binding: &Binding) -> Tuple {
    q.head
        .iter()
        .map(|t| match t {
            Term::Const(v) => v.clone(),
            Term::Var(v) => binding.get(v.as_str()).cloned().unwrap_or(Value::Null),
        })
        .collect()
}

/// The one collector under all three entry points: enumerate the
/// plan's bindings over the source, fold them per distinct head tuple
/// (`first` opens a tuple's accumulator with its first derivation's
/// item, `more` absorbs each later one, in enumeration order), and
/// yield the tuples in first-derivation order. The map *owns* each
/// distinct tuple — nothing is cloned per emission — and the order is
/// restored from insertion ranks at the end.
fn fold_by_head<I, X>(
    source: Source<'_>,
    plan: &QueryPlan,
    options: EvalOptions,
    mut item: impl FnMut(&Frame, &PlanMatchedRows<'_>) -> I,
    first: impl Fn(I) -> X,
    more: impl Fn(&mut X, I),
) -> Result<impl Iterator<Item = (Tuple, X)>> {
    let views = source.views(plan)?;
    // Pre-sized by the only statically known bound on distinct outputs,
    // the bindings budget — capped, so a large default budget is not a
    // large upfront allocation.
    let mut acc = HashMap::<Tuple, (usize, X)>::with_capacity(options.max_bindings.min(1024));
    for_each_frame(plan, &views, options, &mut |frame, matched| {
        let rank = acc.len();
        match acc.entry(plan.project_head(frame)) {
            Entry::Occupied(mut e) => more(&mut e.get_mut().1, item(frame, matched)),
            Entry::Vacant(e) => {
                e.insert((rank, first(item(frame, matched))));
            }
        }
        Ok(())
    })?;
    let mut out: Vec<(usize, Tuple, X)> = acc.into_iter().map(|(t, (i, x))| (i, t, x)).collect();
    out.sort_unstable_by_key(|(i, _, _)| *i);
    Ok(out.into_iter().map(|(_, t, x)| (t, x)))
}

/// The compile half of the compile-then-run entry points: compile `q`
/// and route a sharded store nobody routed yet (via [`ShardRouter`]).
fn compiled<'a>(source: Source<'a>, q: &ConjunctiveQuery) -> Result<(Source<'a>, QueryPlan)> {
    let plan = QueryPlan::compile(q, source.clone())?;
    let source = match source {
        Source::Routed(db, None) => Source::Routed(db, Some(ShardRouter::new(db).plan(q))),
        routed => routed,
    };
    Ok((source, plan))
}

/// Evaluate a query over either store, returning distinct output
/// tuples (set semantics) in first-derivation order — identical bytes
/// whether the source is sharded or not. Compiles a [`QueryPlan`] and
/// executes it; callers evaluating the same query repeatedly should
/// compile once (or use the engine's plan cache) and call
/// [`evaluate_plan_with`].
pub fn evaluate<'a>(source: impl Into<Source<'a>>, q: &ConjunctiveQuery) -> Result<Vec<Tuple>> {
    let (source, plan) = compiled(source.into(), q)?;
    evaluate_plan_with(source, &plan, EvalOptions::default())
}

/// Execute a pre-compiled plan: the distinct output tuples.
pub fn evaluate_plan_with<'a>(
    source: impl Into<Source<'a>>,
    plan: &QueryPlan,
    options: EvalOptions,
) -> Result<Vec<Tuple>> {
    distinct(source.into(), plan, options)
}

/// [`evaluate_plan_with`] proper. Like [`grouped`], not generic: the
/// evaluator is compiled once, in this crate, and a caller's crate
/// instantiates only the `impl Into<Source>` shim above.
fn distinct(source: Source<'_>, plan: &QueryPlan, options: EvalOptions) -> Result<Vec<Tuple>> {
    let tuples = fold_by_head(source, plan, options, |_, _| (), |()| (), |(), ()| ())?;
    Ok(tuples.map(|(t, ())| t).collect())
}

/// Evaluate and group *all* bindings by output tuple — Definition 3.2
/// needs "the set of all bindings for Q' that yield a tuple t".
pub fn evaluate_grouped<'a>(
    source: impl Into<Source<'a>>,
    q: &ConjunctiveQuery,
) -> Result<Vec<(Tuple, Vec<Binding>)>> {
    let (source, plan) = compiled(source.into(), q)?;
    evaluate_grouped_plan_with(source, &plan, EvalOptions::default())
}

/// [`evaluate_grouped`] over a pre-compiled plan. Frames convert to
/// name-keyed [`Binding`]s only at emission.
pub fn evaluate_grouped_plan_with<'a>(
    source: impl Into<Source<'a>>,
    plan: &QueryPlan,
    options: EvalOptions,
) -> Result<Vec<(Tuple, Vec<Binding>)>> {
    grouped(source.into(), plan, options)
}

/// [`evaluate_grouped_plan_with`] proper.
fn grouped(
    source: Source<'_>,
    plan: &QueryPlan,
    options: EvalOptions,
) -> Result<Vec<(Tuple, Vec<Binding>)>> {
    let binding = |frame: &Frame, _: &PlanMatchedRows<'_>| plan.binding(frame);
    Ok(fold_by_head(source, plan, options, binding, |b| vec![b], Vec::push)?.collect())
}

/// Semiring-annotated evaluation (§3.1): `annotate(relation, row)`
/// supplies the base annotation of each tuple; per binding the atom
/// annotations are multiplied, per output tuple the binding products
/// are summed. Output order is first-derivation order. Row ids handed
/// to `annotate` are **global** insertion ranks and the sums
/// accumulate in enumeration order, so provenance polynomials come
/// out byte-identical over a sharded and an unsharded source.
pub fn evaluate_annotated<'a, S, F>(
    source: impl Into<Source<'a>>,
    q: &ConjunctiveQuery,
    annotate: F,
) -> Result<Vec<(Tuple, S)>>
where
    S: CommutativeSemiring,
    F: FnMut(&str, usize) -> S,
{
    let (source, plan) = compiled(source.into(), q)?;
    evaluate_annotated_plan_with(source, &plan, EvalOptions::default(), annotate)
}

/// [`evaluate_annotated`] over a pre-compiled plan.
pub fn evaluate_annotated_plan_with<'a, S, F>(
    source: impl Into<Source<'a>>,
    plan: &QueryPlan,
    options: EvalOptions,
    mut annotate: F,
) -> Result<Vec<(Tuple, S)>>
where
    S: CommutativeSemiring,
    F: FnMut(&str, usize) -> S,
{
    let product = |_: &Frame, matched: &PlanMatchedRows<'_>| {
        matched
            .iter()
            .fold(S::one(), |p, (_, rel, row)| p.times(&annotate(rel, *row)))
    };
    let sum = |s: &mut S, p: S| *s = s.plus(&p);
    Ok(fold_by_head(source.into(), plan, options, product, |p| p, sum)?.collect())
}

// =====================================================================
// The seed interpreter — retained as the differential baseline
// =====================================================================

/// Whole-relation views for an unsharded database (checks first, so
/// error order matches the historical behavior).
fn whole_views<'a>(db: &'a Database, q: &ConjunctiveQuery) -> Result<Vec<AtomView<'a>>> {
    check_safety(q)?;
    check_against_catalog(q, db.catalog())?;
    q.atoms
        .iter()
        .map(|a| db.relation(&a.relation).map(AtomView::Whole))
        .collect::<std::result::Result<_, _>>()
        .map_err(Into::into)
}

/// [`evaluate`] on the seed interpreter (per-step `HashMap` bindings,
/// no compiled plan). Kept so `tests/plan_equivalence.rs` can diff
/// the compiled executor against the original semantics; not a
/// serving path.
#[deprecated(
    note = "superseded by compiled QueryPlan execution; retained only as the \
            differential-testing baseline"
)]
pub fn evaluate_interpreted(db: &Database, q: &ConjunctiveQuery) -> Result<Vec<Tuple>> {
    #[allow(deprecated)]
    evaluate_interpreted_with(db, q, EvalOptions::default())
}

/// [`evaluate_interpreted`] with explicit limits.
#[deprecated(
    note = "superseded by compiled QueryPlan execution; retained only as the \
            differential-testing baseline"
)]
pub fn evaluate_interpreted_with(
    db: &Database,
    q: &ConjunctiveQuery,
    options: EvalOptions,
) -> Result<Vec<Tuple>> {
    let views = whole_views(db, q)?;
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for_each_binding_views(q, &views, options, &mut |binding, _| {
        let t = project_head(q, binding);
        if seen.insert(t.clone()) {
            out.push(t);
        }
        Ok(())
    })?;
    Ok(out)
}

/// [`evaluate_grouped`] on the seed interpreter.
#[deprecated(
    note = "superseded by compiled QueryPlan execution; retained only as the \
            differential-testing baseline"
)]
pub fn evaluate_grouped_interpreted(
    db: &Database,
    q: &ConjunctiveQuery,
) -> Result<Vec<(Tuple, Vec<Binding>)>> {
    let views = whole_views(db, q)?;
    let mut order: Vec<Tuple> = Vec::new();
    let mut groups: HashMap<Tuple, Vec<Binding>> = HashMap::new();
    for_each_binding_views(q, &views, EvalOptions::default(), &mut |binding, _| {
        let t = project_head(q, binding);
        let entry = groups.entry(t.clone()).or_default();
        if entry.is_empty() {
            order.push(t);
        }
        entry.push(binding.clone());
        Ok(())
    })?;
    Ok(order
        .into_iter()
        .map(|t| {
            let b = groups.remove(&t).expect("group exists");
            (t, b)
        })
        .collect())
}

/// [`evaluate_annotated`] on the seed interpreter.
#[deprecated(
    note = "superseded by compiled QueryPlan execution; retained only as the \
            differential-testing baseline"
)]
pub fn evaluate_annotated_interpreted<S, F>(
    db: &Database,
    q: &ConjunctiveQuery,
    mut annotate: F,
) -> Result<Vec<(Tuple, S)>>
where
    S: CommutativeSemiring,
    F: FnMut(&str, usize) -> S,
{
    let views = whole_views(db, q)?;
    let mut order: Vec<Tuple> = Vec::new();
    let mut acc: HashMap<Tuple, S> = HashMap::new();
    for_each_binding_views(
        q,
        &views,
        EvalOptions::default(),
        &mut |binding, matched| {
            let product = matched
                .iter()
                .fold(S::one(), |p, (_, rel, row)| p.times(&annotate(rel, *row)));
            let t = project_head(q, binding);
            match acc.get_mut(&t) {
                Some(existing) => *existing = existing.plus(&product),
                None => {
                    order.push(t.clone());
                    acc.insert(t, product);
                }
            }
            Ok(())
        },
    )?;
    Ok(order
        .into_iter()
        .map(|t| {
            let s = acc.remove(&t).expect("annotation exists");
            (t, s)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use fgc_relation::schema::RelationSchema;
    use fgc_relation::{tuple, DataType};
    use fgc_semiring::{Natural, Polynomial};

    fn sample_db() -> Database {
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
        db.create_relation(
            RelationSchema::with_names(
                "FamilyIntro",
                &[("FID", DataType::Str), ("Text", DataType::Str)],
                &["FID"],
            )
            .unwrap(),
        )
        .unwrap();
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
                tuple!["13", "Kinases catalyse"],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn select_with_comparison() {
        let db = sample_db();
        let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").unwrap();
        let out = evaluate(&db, &q).unwrap();
        assert_eq!(out, vec![tuple!["Calcitonin"], tuple!["Orexin"]]);
    }

    #[test]
    fn join_via_shared_variable() {
        let db = sample_db();
        let q = parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)").unwrap();
        let mut out = evaluate(&db, &q).unwrap();
        out.sort();
        assert_eq!(
            out,
            vec![
                tuple!["Calcitonin", "The calcitonin peptide family"],
                tuple!["Kinase", "Kinases catalyse"],
            ]
        );
    }

    #[test]
    fn paper_example_2_2_query() {
        // names of gpcr families that have an introduction page
        let db = sample_db();
        let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\", FamilyIntro(F, Tx)").unwrap();
        let out = evaluate(&db, &q).unwrap();
        assert_eq!(out, vec![tuple!["Calcitonin"]]);
    }

    #[test]
    fn constants_in_atoms_act_as_selection() {
        let db = sample_db();
        let q = parse_query("Q(N) :- Family(\"11\", N, Ty)").unwrap();
        let out = evaluate(&db, &q).unwrap();
        assert_eq!(out, vec![tuple!["Calcitonin"]]);
    }

    #[test]
    fn projection_deduplicates() {
        let db = sample_db();
        let q = parse_query("Q(Ty) :- Family(F, N, Ty)").unwrap();
        let out = evaluate(&db, &q).unwrap();
        assert_eq!(out.len(), 2); // gpcr, enzyme
    }

    #[test]
    fn grouped_collects_all_bindings() {
        let db = sample_db();
        let q = parse_query("Q(Ty) :- Family(F, N, Ty)").unwrap();
        let grouped = evaluate_grouped(&db, &q).unwrap();
        let gpcr = grouped.iter().find(|(t, _)| t == &tuple!["gpcr"]).unwrap();
        assert_eq!(gpcr.1.len(), 2); // two gpcr families
        let enzyme = grouped
            .iter()
            .find(|(t, _)| t == &tuple!["enzyme"])
            .unwrap();
        assert_eq!(enzyme.1.len(), 1);
    }

    #[test]
    fn annotated_eval_counts_derivations() {
        let db = sample_db();
        let q = parse_query("Q(Ty) :- Family(F, N, Ty)").unwrap();
        let out: Vec<(Tuple, Natural)> = evaluate_annotated(&db, &q, |_, _| Natural(1)).unwrap();
        let gpcr = out.iter().find(|(t, _)| t == &tuple!["gpcr"]).unwrap();
        assert_eq!(gpcr.1, Natural(2));
    }

    #[test]
    fn annotated_eval_builds_provenance_polynomials() {
        let db = sample_db();
        let q = parse_query("Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx)").unwrap();
        let out: Vec<(Tuple, Polynomial<String>)> = evaluate_annotated(&db, &q, |rel, row| {
            Polynomial::token(format!("{rel}:{row}"))
        })
        .unwrap();
        let calci = out
            .iter()
            .find(|(t, _)| t == &tuple!["Calcitonin"])
            .unwrap();
        // exactly one derivation joining Family row 0 and Intro row 0
        assert_eq!(calci.1.num_monomials(), 1);
        let m = calci.1.monomials().next().unwrap();
        assert_eq!(m.degree(), 2);
        assert_eq!(m.exponent(&"Family:0".to_string()), 1);
        assert_eq!(m.exponent(&"FamilyIntro:0".to_string()), 1);
    }

    #[test]
    fn inequality_comparisons() {
        let db = sample_db();
        let q = parse_query("Q(N) :- Family(F, N, Ty), F > \"11\"").unwrap();
        let out = evaluate(&db, &q).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn var_to_var_comparison() {
        let db = sample_db();
        let q = parse_query("Q(A, B) :- Family(F1, A, T1), Family(F2, B, T2), F1 < F2").unwrap();
        let out = evaluate(&db, &q).unwrap();
        assert_eq!(out.len(), 3); // (11,12) (11,13) (12,13)
    }

    #[test]
    fn empty_result_is_ok() {
        let db = sample_db();
        let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"nope\"").unwrap();
        assert!(evaluate(&db, &q).unwrap().is_empty());
    }

    #[test]
    fn contradictory_selection_yields_empty() {
        let db = sample_db();
        let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\", Ty = \"enzyme\"").unwrap();
        assert!(evaluate(&db, &q).unwrap().is_empty());
    }

    #[test]
    fn unsafe_query_rejected() {
        let db = sample_db();
        let q = parse_query("Q(X) :- Family(F, N, Ty)").unwrap();
        assert!(matches!(
            evaluate(&db, &q).unwrap_err(),
            QueryError::Unsafe { .. }
        ));
    }

    #[test]
    fn budget_enforced() {
        let db = sample_db();
        let q = parse_query("Q(A, B) :- Family(A, X, Y), Family(B, Z, W)").unwrap();
        let plan = QueryPlan::compile(&q, &db).unwrap();
        let err = evaluate_plan_with(&db, &plan, EvalOptions { max_bindings: 4 }).unwrap_err();
        assert!(matches!(err, QueryError::BudgetExceeded { limit: 4, .. }));
        // the client reads the limit it set, not "more than 0 bindings"
        assert!(err.to_string().contains('4'), "{err}");
    }

    #[test]
    fn self_join_uses_distinct_atom_occurrences() {
        let db = sample_db();
        // pairs of distinct families with the same type
        let q = parse_query("Q(A, B) :- Family(A, N1, T), Family(B, N2, T), A != B").unwrap();
        let out = evaluate(&db, &q).unwrap();
        assert_eq!(out.len(), 2); // (11,12) and (12,11)
    }

    #[test]
    fn count_bindings_counts_derivations() {
        let db = sample_db();
        let q = parse_query("Q(Ty) :- Family(F, N, Ty)").unwrap();
        // three derivations fold into two distinct tuples; the count
        // the executor returns is of derivations
        let plan = QueryPlan::compile(&q, &db).unwrap();
        let views = Source::from(&db).views(&plan).unwrap();
        let count = for_each_frame(&plan, &views, EvalOptions::default(), &mut |_, _| Ok(()));
        assert_eq!(count.unwrap(), 3);
    }

    #[test]
    fn indexes_do_not_change_results() {
        let mut db = sample_db();
        let q = parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)").unwrap();
        let plain = evaluate(&db, &q).unwrap();
        db.build_default_indexes().unwrap();
        db.relation_mut("Family").unwrap().build_index(2).unwrap();
        let indexed = evaluate(&db, &q).unwrap();
        let mut a = plain;
        let mut b = indexed;
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
