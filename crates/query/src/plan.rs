//! Compiled query plans: compile-once, execute-many evaluation.
//!
//! The seed evaluator in [`crate::eval`] interprets a
//! [`ConjunctiveQuery`] from scratch on every call: bindings live in
//! a `HashMap<String, Value>` that clones the variable *name* on
//! every insert, the greedy atom order is recomputed at every
//! recursion step, and safety/catalog validation re-runs per
//! evaluation. [`QueryPlan`] hoists all of that to *plan time*:
//!
//! * variables are resolved to dense [`Slot`]s (`u16`), so a binding
//!   becomes a flat `Vec<Option<Value>>` frame — no hashing, no name
//!   clones, O(1) bind/check/unbind;
//! * the greedy atom order (most-bound atom first, smaller relation
//!   as tie-break) is fixed once. It is a pure function of the query
//!   and the per-atom relation sizes — which variables are bound
//!   after k join steps never depends on the data — so freezing it
//!   is exactly equivalent to the interpreter's per-step choice;
//! * each ordered atom step carries a precomputed per-column op
//!   (`ColOp`): match a constant, check an already-bound slot, or
//!   bind a free slot — plus the secondary-index probe column chosen
//!   at plan time;
//! * comparisons are compiled to slot form and scheduled at the
//!   first join depth where both sides are bound (the same point the
//!   interpreter would first apply them);
//! * safety and catalog validation run once, at compile time.
//!
//! Execution enumerates **exactly the same bindings in exactly the
//! same order** as the interpreter — first-derivation output order,
//! grouped binding order, and semiring accumulation order all
//! coincide, so citations (including provenance polynomials and
//! global row ids) are byte-identical. `tests/plan_equivalence.rs`
//! holds that bar differentially against the retained interpreter.
//!
//! A plan compiled against one [`Source`] remains valid for any
//! source presenting the same catalog and per-relation (global)
//! sizes — in particular one plan serves the unsharded database and
//! every routing of a sharded one, because the router prunes *which
//! fragments* each atom scans while the plan fixes the join order and
//! slot layout from global sizes.

use crate::ast::{CompOp, Comparison, ConjunctiveQuery, Term};
use crate::error::{QueryError, Result};
use crate::eval::{AtomView, Binding, EvalOptions, Source};
use crate::safety::{check_against_catalog, check_safety};
use fgc_relation::{Tuple, Value};
use std::collections::HashMap;

/// A dense variable slot. Queries are small; `u16` keeps the frame
/// ops compact.
pub type Slot = u16;

/// A runtime binding frame: one entry per variable slot, `None`
/// until the slot is bound.
pub type Frame = [Option<Value>];

/// Row provenance reported by plan execution: `(original atom index,
/// relation name, global row id)` — same contract as
/// [`crate::eval::MatchedRows`], borrowing relation names from the
/// plan instead of the query.
pub type PlanMatchedRows<'p> = Vec<(usize, &'p str, usize)>;

/// What one column of an ordered atom step does against a candidate
/// row.
#[derive(Debug, Clone, PartialEq)]
enum ColOp {
    /// The column must equal this constant.
    Const(Value),
    /// The column must equal the value already in this slot (bound
    /// by a seed, an earlier atom, or an earlier column of the same
    /// atom).
    Check(Slot),
    /// First occurrence: bind the slot to the column value.
    Bind(Slot),
}

/// A value source known at plan time: a constant or a bound slot.
#[derive(Debug, Clone, PartialEq)]
enum ValueRef {
    Const(Value),
    Slot(Slot),
}

/// One atom of the join, in execution order.
#[derive(Debug, Clone)]
struct AtomStep {
    /// Index of the atom in the *original* query (and in the views
    /// slice handed to the executor).
    atom: usize,
    /// Relation name (owned, so [`PlanMatchedRows`] can borrow from
    /// the plan).
    relation: String,
    /// Secondary-index probe chosen at plan time: the first column
    /// whose value is known when this step runs. Falls back to a
    /// scan at runtime when the store has no index on that column.
    probe: Option<(usize, ValueRef)>,
    /// Per-column ops, one per schema column.
    cols: Vec<ColOp>,
}

/// A comparison with both sides resolved to slot/constant form.
#[derive(Debug, Clone)]
struct CompiledComparison {
    left: ValueRef,
    op: CompOp,
    right: ValueRef,
}

impl CompiledComparison {
    fn holds(&self, frame: &Frame) -> bool {
        let value = |r: &ValueRef| -> Option<Value> {
            match r {
                ValueRef::Const(v) => Some(v.clone()),
                ValueRef::Slot(s) => frame[*s as usize].clone(),
            }
        };
        match (value(&self.left), value(&self.right)) {
            (Some(l), Some(r)) => self.op.eval(&l, &r),
            // Scheduled only at depths where both sides are bound;
            // an unbound side would be a planner bug. The
            // interpreter skips comparisons it cannot resolve, so
            // mirror that (filter nothing) rather than panic.
            _ => {
                debug_assert!(false, "comparison scheduled before its slots were bound");
                true
            }
        }
    }
}

/// One head position: a bound slot or a constant.
#[derive(Debug, Clone)]
enum HeadSource {
    Slot(Slot),
    Const(Value),
}

/// A compiled, reusable evaluation plan for one conjunctive query.
///
/// Build with [`QueryPlan::compile`]; execute through
/// [`crate::evaluate_plan_with`] and friends, or the engine's plan
/// cache. Compilation runs the safety and catalog checks the
/// interpreter used to repeat per evaluation.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Slot → variable name (for the [`Binding`] conversion).
    var_names: Vec<String>,
    /// Relation name per atom, in *original* atom order (the views
    /// slice the executor receives uses this order).
    atom_relations: Vec<String>,
    /// Atoms in the frozen greedy execution order.
    steps: Vec<AtomStep>,
    /// `checks[d]` — comparisons first fully bound after `d` join
    /// steps (`checks[0]` holds seed-only and constant-constant
    /// comparisons). Length is `steps.len() + 1`.
    checks: Vec<Vec<CompiledComparison>>,
    /// Slot assignments from `Var = Const` equality comparisons,
    /// applied before enumeration starts.
    seeds: Vec<(Slot, Value)>,
    /// Head projection.
    head: Vec<HeadSource>,
    /// Contradictory equality selections: the result is empty, no
    /// enumeration runs (the interpreter short-circuits the same
    /// way).
    unsatisfiable: bool,
}

impl QueryPlan {
    /// Compile `q` against a source: safety check, catalog check,
    /// then slot assignment and join ordering from the source's
    /// **global** relation sizes (all shards) — so a sharded store
    /// yields the very plan the unsharded database would. Error order
    /// matches the interpreter (`Unsafe` before catalog errors).
    pub fn compile<'a>(q: &ConjunctiveQuery, source: impl Into<Source<'a>>) -> Result<QueryPlan> {
        Self::compile_from(q, &source.into())
    }

    /// [`Self::compile`] proper — not generic, so it is compiled once,
    /// here, and a caller's crate instantiates only the shim above.
    fn compile_from(q: &ConjunctiveQuery, source: &Source<'_>) -> Result<QueryPlan> {
        check_safety(q)?;
        check_against_catalog(q, source.catalog())?;
        let sizes: Vec<usize> = q
            .atoms
            .iter()
            .map(|a| source.relation_len(&a.relation))
            .collect::<Result<_>>()?;

        // Slot assignment: all variables (atoms, comparisons, head,
        // params), in sorted order for determinism.
        let var_names: Vec<String> = q.all_vars().into_iter().map(str::to_string).collect();
        if var_names.len() > Slot::MAX as usize {
            return Err(QueryError::BudgetExceeded {
                what: "variable slots".into(),
                limit: Slot::MAX as usize,
            });
        }
        let slot_of: HashMap<&str, Slot> = var_names
            .iter()
            .enumerate()
            .map(|(i, v)| (v.as_str(), i as Slot))
            .collect();
        let slot = |v: &str| -> Slot { slot_of[v] };

        // Seed `Var = Const` equalities, exactly like the
        // interpreter: first value wins, a contradictory second
        // value empties the result, duplicates are dropped.
        let mut seeds: Vec<(Slot, Value)> = Vec::new();
        let mut seeded: HashMap<Slot, Value> = HashMap::new();
        let mut residual: Vec<Comparison> = Vec::new();
        let mut unsatisfiable = false;
        for c in &q.comparisons {
            let n = c.normalized();
            if n.op == CompOp::Eq {
                if let (Term::Var(v), Term::Const(val)) = (&n.left, &n.right) {
                    let s = slot(v);
                    match seeded.get(&s) {
                        Some(prev) if prev != val => {
                            unsatisfiable = true;
                        }
                        Some(_) => {}
                        None => {
                            seeded.insert(s, val.clone());
                            seeds.push((s, val.clone()));
                        }
                    }
                    continue;
                }
            }
            residual.push(n);
        }

        let value_ref = |t: &Term| -> ValueRef {
            match t {
                Term::Const(v) => ValueRef::Const(v.clone()),
                Term::Var(v) => ValueRef::Slot(slot(v)),
            }
        };

        // Static boundness: a term is bound at a given depth iff it
        // is a constant or its variable was seeded / bound by an
        // earlier step. This never depends on the data, which is why
        // the order and comparison schedule can be frozen.
        let mut bound = vec![false; var_names.len()];
        for (s, _) in &seeds {
            bound[*s as usize] = true;
        }
        let term_bound = |t: &Term, bound: &[bool]| match t {
            Term::Const(_) => true,
            Term::Var(v) => bound[slot(v) as usize],
        };

        // Schedule residual comparisons: each runs at the first
        // depth where both sides are bound (residual order preserved
        // within a depth — the interpreter applies them in that
        // order too). Comparisons whose variables never bind — legal
        // when safety is satisfied through an unbound equality chain
        // — are never applied, exactly like the interpreter.
        let mut comp_scheduled = vec![false; residual.len()];
        let mut checks: Vec<Vec<CompiledComparison>> = Vec::with_capacity(q.atoms.len() + 1);
        let schedule = |scheduled: &mut [bool], bound: &[bool]| -> Vec<CompiledComparison> {
            let mut out = Vec::new();
            for (i, c) in residual.iter().enumerate() {
                if scheduled[i] || !term_bound(&c.left, bound) || !term_bound(&c.right, bound) {
                    continue;
                }
                scheduled[i] = true;
                out.push(CompiledComparison {
                    left: value_ref(&c.left),
                    op: c.op,
                    right: value_ref(&c.right),
                });
            }
            out
        };
        checks.push(schedule(&mut comp_scheduled, &bound));

        // Freeze the greedy order: most bound argument positions
        // first, then smaller relation, then the *last* qualifying
        // atom (the interpreter replaces its candidate only on a
        // strictly greater key, so ties go to the highest index).
        let mut used = vec![false; q.atoms.len()];
        let mut steps: Vec<AtomStep> = Vec::with_capacity(q.atoms.len());
        for _ in 0..q.atoms.len() {
            let mut best: Option<(usize, usize, usize)> = None;
            for (i, a) in q.atoms.iter().enumerate() {
                if used[i] {
                    continue;
                }
                let bound_count = a.terms.iter().filter(|t| term_bound(t, &bound)).count();
                let candidate = (bound_count, usize::MAX - sizes[i], i);
                if best.is_none_or(|b| candidate > b) {
                    best = Some(candidate);
                }
            }
            let (_, _, idx) = best.expect("at least one unused atom");
            used[idx] = true;
            let atom = &q.atoms[idx];

            // Probe column: first position whose value is known at
            // step entry (before this atom binds anything).
            let probe = atom.terms.iter().enumerate().find_map(|(col, t)| match t {
                Term::Const(v) => Some((col, ValueRef::Const(v.clone()))),
                Term::Var(v) => bound[slot(v) as usize].then(|| (col, ValueRef::Slot(slot(v)))),
            });

            // Column ops; a variable repeated within the atom binds
            // at its first occurrence and checks at the rest.
            let cols = atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(v) => ColOp::Const(v.clone()),
                    Term::Var(v) => {
                        let s = slot(v);
                        if bound[s as usize] {
                            ColOp::Check(s)
                        } else {
                            bound[s as usize] = true;
                            ColOp::Bind(s)
                        }
                    }
                })
                .collect();

            steps.push(AtomStep {
                atom: idx,
                relation: atom.relation.clone(),
                probe,
                cols,
            });
            checks.push(schedule(&mut comp_scheduled, &bound));
        }

        let head = q
            .head
            .iter()
            .map(|t| match t {
                Term::Const(v) => HeadSource::Const(v.clone()),
                Term::Var(v) => HeadSource::Slot(slot(v)),
            })
            .collect();

        Ok(QueryPlan {
            var_names,
            atom_relations: q.atoms.iter().map(|a| a.relation.clone()).collect(),
            steps,
            checks,
            seeds,
            head,
            unsatisfiable,
        })
    }

    /// Number of variable slots in the frame.
    pub fn num_slots(&self) -> usize {
        self.var_names.len()
    }

    /// Number of atoms (= join steps).
    pub fn num_atoms(&self) -> usize {
        self.steps.len()
    }

    /// Relation names in original atom order — what the executor's
    /// views slice must line up with.
    pub fn atom_relations(&self) -> &[String] {
        &self.atom_relations
    }

    /// Whether compilation proved the result empty (contradictory
    /// equality selections).
    pub fn is_unsatisfiable(&self) -> bool {
        self.unsatisfiable
    }

    /// The frozen join order as original atom indices.
    pub fn join_order(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.atom).collect()
    }

    /// The thin slot → name conversion keeping [`Binding`] in the
    /// public API: bound slots become name-keyed entries, unbound
    /// slots are omitted (matching the interpreter, which never
    /// inserts an unbound variable).
    pub fn binding(&self, frame: &Frame) -> Binding {
        self.var_names
            .iter()
            .zip(frame)
            .filter_map(|(name, v)| v.as_ref().map(|v| (name.clone(), v.clone())))
            .collect()
    }

    /// Project the head under a frame. Head variables left unbound
    /// (possible for queries made safe by unbound equality chains)
    /// project as `Null`, like the interpreter.
    pub fn project_head(&self, frame: &Frame) -> Tuple {
        self.head
            .iter()
            .map(|h| match h {
                HeadSource::Const(v) => v.clone(),
                HeadSource::Slot(s) => frame[*s as usize].clone().unwrap_or(Value::Null),
            })
            .collect()
    }
}

/// Candidate row positions for one step: a borrowed index posting
/// list, a merged (scatter) list, or a full scan.
pub(crate) enum Candidates<'a> {
    Borrowed(&'a [usize]),
    Owned(Vec<usize>),
    Scan(usize),
}

/// Plan execution state. The frame, provenance stack, and per-depth
/// scratch buffers are allocated once per evaluation and reused
/// across the whole enumeration.
struct Exec<'p, 'v> {
    plan: &'p QueryPlan,
    views: &'v [AtomView<'v>],
    frame: Vec<Option<Value>>,
    matched: PlanMatchedRows<'p>,
    /// Per-depth scratch: slots bound by the current row of that
    /// depth's atom (rolled back on mismatch/backtrack).
    scratch: Vec<Vec<Slot>>,
    /// [`EvalOptions::max_bindings`].
    limit: usize,
    /// Bindings emitted so far.
    count: usize,
}

impl<'p, 'v> Exec<'p, 'v> {
    fn walk(
        &mut self,
        depth: usize,
        sink: &mut dyn FnMut(&Frame, &PlanMatchedRows<'p>) -> Result<()>,
    ) -> Result<()> {
        // Copy the long-lived references out of `self` so posting
        // lists borrowed from the store do not pin `self` immutably
        // across the recursive calls below.
        let plan = self.plan;
        let views = self.views;
        for c in &plan.checks[depth] {
            if !c.holds(&self.frame) {
                return Ok(());
            }
        }
        if depth == plan.steps.len() {
            if self.count == self.limit {
                return Err(QueryError::BudgetExceeded {
                    what: "bindings".into(),
                    limit: self.limit,
                });
            }
            self.count += 1;
            return sink(&self.frame, &self.matched);
        }

        let step = &plan.steps[depth];
        let view = &views[step.atom];
        let candidates = match &step.probe {
            Some((col, source)) => {
                let value = match source {
                    ValueRef::Const(v) => Some(v.clone()),
                    ValueRef::Slot(s) => self.frame[*s as usize].clone(),
                };
                match value.and_then(|v| view.probe_positions(*col, &v)) {
                    Some(positions) => positions,
                    None => Candidates::Scan(view.scan_len()),
                }
            }
            None => Candidates::Scan(view.scan_len()),
        };

        match candidates {
            Candidates::Borrowed(positions) => {
                for &pos in positions {
                    self.try_row(step, view, depth, pos, sink)?;
                }
            }
            Candidates::Owned(positions) => {
                for pos in positions {
                    self.try_row(step, view, depth, pos, sink)?;
                }
            }
            Candidates::Scan(len) => {
                for pos in 0..len {
                    self.try_row(step, view, depth, pos, sink)?;
                }
            }
        }
        Ok(())
    }

    /// Match one candidate row against a step: apply the per-column
    /// ops, recurse on success, roll the frame back either way.
    fn try_row(
        &mut self,
        step: &'p AtomStep,
        view: &AtomView<'v>,
        depth: usize,
        pos: usize,
        sink: &mut dyn FnMut(&Frame, &PlanMatchedRows<'p>) -> Result<()>,
    ) -> Result<()> {
        let row = view.row(pos);
        let mut newly = std::mem::take(&mut self.scratch[depth]);
        for (col, op) in step.cols.iter().enumerate() {
            let ok = match op {
                ColOp::Const(c) => &row[col] == c,
                ColOp::Check(s) => self.frame[*s as usize].as_ref() == Some(&row[col]),
                ColOp::Bind(s) => {
                    self.frame[*s as usize] = Some(row[col].clone());
                    newly.push(*s);
                    true
                }
            };
            if !ok {
                for s in newly.drain(..) {
                    self.frame[s as usize] = None;
                }
                self.scratch[depth] = newly;
                return Ok(());
            }
        }
        self.matched
            .push((step.atom, step.relation.as_str(), view.global_id(pos)));
        let r = self.walk(depth + 1, sink);
        self.matched.pop();
        for s in newly.drain(..) {
            self.frame[s as usize] = None;
        }
        self.scratch[depth] = newly;
        r
    }
}

/// Execute a plan over pre-built views (original atom order),
/// calling `sink` once per complete binding frame. Returns the
/// number of bindings enumerated — the same count, in the same
/// order, as the interpreter's [`crate::eval`] core.
pub(crate) fn for_each_frame<'p>(
    plan: &'p QueryPlan,
    views: &[AtomView<'_>],
    options: EvalOptions,
    sink: &mut dyn FnMut(&Frame, &PlanMatchedRows<'p>) -> Result<()>,
) -> Result<usize> {
    if plan.unsatisfiable {
        return Ok(0);
    }
    let mut exec = Exec {
        plan,
        views,
        frame: vec![None; plan.var_names.len()],
        matched: Vec::with_capacity(plan.steps.len()),
        scratch: vec![Vec::new(); plan.steps.len()],
        limit: options.max_bindings,
        count: 0,
    };
    for (s, v) in &plan.seeds {
        exec.frame[*s as usize] = Some(v.clone());
    }
    exec.walk(0, sink)?;
    Ok(exec.count)
}

impl AtomView<'_> {
    /// Index probe that borrows the posting list when the store
    /// allows it (single fragment), merging only in the scatter
    /// case. `None` when any underlying fragment lacks the index.
    pub(crate) fn probe_positions(&self, column: usize, value: &Value) -> Option<Candidates<'_>> {
        match self {
            AtomView::Whole(rel) => rel.probe(column, value).map(Candidates::Borrowed),
            // fragment-local positions are already ascending in the
            // global order
            AtomView::Fragment { fragment, .. } => {
                fragment.probe(column, value).map(Candidates::Borrowed)
            }
            AtomView::Scatter {
                fragments,
                global_ids,
                ..
            } => {
                let mut merged = Vec::new();
                for (shard, fragment) in fragments.iter().enumerate() {
                    let locals = fragment.probe(column, value)?;
                    merged.extend(locals.iter().map(|&l| global_ids[shard][l]));
                }
                merged.sort_unstable();
                Some(Candidates::Owned(merged))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use fgc_relation::schema::RelationSchema;
    use fgc_relation::{tuple, DataType, Database};

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
    fn compile_validates_like_the_interpreter() {
        let db = sample_db();
        let unsafe_q = parse_query("Q(X) :- Family(F, N, Ty)").unwrap();
        assert!(matches!(
            QueryPlan::compile(&unsafe_q, &db).unwrap_err(),
            QueryError::Unsafe { .. }
        ));
        let unknown = parse_query("Q(X) :- Nope(X)").unwrap();
        assert!(QueryPlan::compile(&unknown, &db).is_err());
    }

    #[test]
    fn join_order_prefers_selective_atoms() {
        let db = sample_db();
        // the constant-selected FamilyIntro atom must run first
        let q = parse_query("Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = \"11\"").unwrap();
        let plan = QueryPlan::compile(&q, &db).unwrap();
        // both atoms have the seeded F bound; the smaller relation
        // (FamilyIntro, 2 rows) wins the tie-break
        assert_eq!(plan.join_order(), vec![1, 0]);
        assert!(!plan.is_unsatisfiable());
    }

    #[test]
    fn contradictory_seeds_mark_the_plan_unsatisfiable() {
        let db = sample_db();
        let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"a\", Ty = \"b\"").unwrap();
        let plan = QueryPlan::compile(&q, &db).unwrap();
        assert!(plan.is_unsatisfiable());
        let out = crate::evaluate_plan_with(&db, &plan, EvalOptions::default()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn binding_conversion_names_bound_slots_only() {
        let db = sample_db();
        let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").unwrap();
        let plan = QueryPlan::compile(&q, &db).unwrap();
        let views = Source::from(&db).views(&plan).unwrap();
        let mut bindings: Vec<Binding> = Vec::new();
        for_each_frame(&plan, &views, EvalOptions::default(), &mut |frame, _| {
            bindings.push(plan.binding(frame));
            Ok(())
        })
        .unwrap();
        assert_eq!(bindings.len(), 2);
        for b in &bindings {
            assert_eq!(b.get("Ty"), Some(&Value::str("gpcr")));
            assert!(b.contains_key("F") && b.contains_key("N"));
        }
    }

    #[test]
    fn plans_survive_many_variables() {
        let db = sample_db();
        let q = parse_query("Q(A, B, C) :- Family(A, B, C)").unwrap();
        let plan = QueryPlan::compile(&q, &db).unwrap();
        assert_eq!(plan.num_slots(), 3);
        assert_eq!(plan.num_atoms(), 1);
        assert_eq!(plan.atom_relations(), ["Family".to_string()]);
    }
}
