//! Compiled query plans: compile-once, execute-many evaluation.
//!
//! [`QueryPlan`] does once, at *plan time*, everything about an
//! evaluation that does not depend on the data:
//!
//! * variables are resolved to dense [`Slot`]s (`u16`), so a binding
//!   becomes a flat `Vec<Option<Value>>` frame — no hashing, no name
//!   clones, O(1) bind/check/unbind;
//! * the greedy atom order (most-bound atom first, smaller relation
//!   as tie-break) is fixed once. It is a pure function of the query
//!   and the per-atom relation sizes — which variables are bound
//!   after k join steps never depends on the data — so freezing it
//!   loses nothing against choosing per step;
//! * each ordered atom step carries a precomputed per-column op
//!   (`ColOp`): match a constant, check an already-bound slot, or
//!   bind a free slot — plus the secondary-index probe column chosen
//!   at plan time;
//! * comparisons are compiled to slot form and scheduled at the
//!   first join depth where both sides are bound;
//! * safety and catalog validation run once, at compile time.
//!
//! Execution enumerates every binding once, in an order fixed by the
//! plan and the rows' global insertion order — first-derivation output
//! order, grouped binding order and semiring accumulation order follow
//! from it. `tests/plan_equivalence.rs` diffs all three collectors
//! against the by-definition oracle in [`crate::reference`].
//!
//! A plan compiled against one database remains valid for any
//! database with the same catalog and relation sizes.

use crate::ast::{CompOp, Comparison, ConjunctiveQuery, Term};
use crate::error::{QueryError, Result};
use crate::eval::{Binding, EvalOptions};
use crate::safety::{check_against_catalog, check_safety};
use fgc_relation::{Database, Relation, Tuple, Value};
use std::collections::HashMap;

/// A dense variable slot. Queries are small; `u16` keeps the frame
/// ops compact.
pub type Slot = u16;

/// A runtime binding frame: one entry per variable slot, `None`
/// until the slot is bound.
pub type Frame = [Option<Value>];

/// Row provenance reported by plan execution: `(original atom index,
/// relation name, row id)`, relation names borrowed from the plan.
/// The row id is the row's position in the relation.
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

/// A value source known at plan time: a constant or a frame slot.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueRef {
    /// A constant.
    Const(Value),
    /// Whatever the frame holds in this slot.
    Slot(Slot),
}

impl ValueRef {
    /// The value under `frame`; `None` while the slot is unbound.
    #[inline]
    pub fn read(&self, frame: &Frame) -> Option<Value> {
        match self {
            ValueRef::Const(v) => Some(v.clone()),
            ValueRef::Slot(s) => frame[*s as usize].clone(),
        }
    }
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
        match (self.left.read(frame), self.right.read(frame)) {
            (Some(l), Some(r)) => self.op.eval(&l, &r),
            // Scheduled only at depths where both sides are bound;
            // an unbound side would be a planner bug. Release builds
            // filter nothing rather than panic.
            _ => {
                debug_assert!(false, "comparison scheduled before its slots were bound");
                true
            }
        }
    }
}

/// One head position: a bound slot or a constant.
#[derive(Debug, Clone)]
enum HeadTerm {
    Slot(Slot),
    Const(Value),
}

/// A compiled, reusable evaluation plan for one conjunctive query.
///
/// Build with [`QueryPlan::compile`]; execute through
/// [`crate::evaluate_plan_with`] and friends, or the engine's plan
/// cache. Compilation runs the safety and catalog checks once.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Variable names in slot order (for the [`Binding`] conversion).
    var_names: Vec<String>,
    /// The slot holding each variable's value, parallel to
    /// `var_names`: its own, or for a variable bound only through a
    /// `Var = Var` chain, the slot of the member that anchors it.
    value_slots: Vec<Slot>,
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
    head: Vec<HeadTerm>,
    /// Contradictory equality selections: the result is empty, no
    /// enumeration runs.
    unsatisfiable: bool,
}

impl QueryPlan {
    /// Compile `q` against a database: safety check, catalog check,
    /// then slot assignment and join ordering from the relation
    /// sizes. `Unsafe` is reported before catalog errors.
    pub fn compile(q: &ConjunctiveQuery, db: &Database) -> Result<QueryPlan> {
        check_safety(q)?;
        check_against_catalog(q, db.catalog())?;
        let sizes: Vec<usize> = q
            .atoms
            .iter()
            .map(|a| Ok(db.relation(&a.relation)?.len()))
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
        let value_slots = chain_aliases(q, &var_names);
        let slot_of: HashMap<&str, Slot> = var_names
            .iter()
            .zip(&value_slots)
            .map(|(v, s)| (v.as_str(), *s))
            .collect();
        let slot = |v: &str| -> Slot { slot_of[v] };

        // Seed `Var = Const` equalities: first value wins, a
        // contradictory second value empties the result, duplicates
        // are dropped.
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
        // within a depth). Every variable has a slot some seed or
        // atom binds, so every comparison is scheduled.
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
        // atom (the candidate is replaced only on a strictly greater
        // key, so ties go to the highest index).
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
                Term::Const(v) => HeadTerm::Const(v.clone()),
                Term::Var(v) => HeadTerm::Slot(slot(v)),
            })
            .collect();

        Ok(QueryPlan {
            var_names,
            value_slots,
            atom_relations: q.atoms.iter().map(|a| a.relation.clone()).collect(),
            steps,
            checks,
            seeds,
            head,
            unsatisfiable,
        })
    }

    /// Number of atoms (= join steps).
    pub fn num_atoms(&self) -> usize {
        self.steps.len()
    }

    /// Relation names in original atom order.
    pub fn atom_relations(&self) -> &[String] {
        &self.atom_relations
    }

    /// The relation each atom scans in `db`, in original atom order —
    /// the slice the executor runs over.
    pub(crate) fn relations<'a>(&self, db: &'a Database) -> Result<Vec<&'a Relation>> {
        let relation = |name: &String| Ok(db.relation(name)?);
        self.atom_relations.iter().map(relation).collect()
    }

    /// The frozen join order as original atom indices.
    pub fn join_order(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.atom).collect()
    }

    /// The thin slot → name conversion keeping [`Binding`] in the
    /// public API: every variable whose value slot is bound becomes a
    /// name-keyed entry (a chained variable reads its anchor's slot),
    /// the others are omitted.
    pub fn binding(&self, frame: &Frame) -> Binding {
        self.var_names
            .iter()
            .zip(&self.value_slots)
            .filter_map(|(name, s)| {
                frame[*s as usize]
                    .as_ref()
                    .map(|v| (name.clone(), v.clone()))
            })
            .collect()
    }

    /// The frame slot holding `var`'s value, read the way
    /// [`Self::binding`] reads it (a chained variable reads its
    /// anchor's slot); `None` for a variable the query lacks.
    pub fn value_slot(&self, var: &str) -> Option<Slot> {
        let i = self.var_names.binary_search_by(|n| n.as_str().cmp(var));
        i.ok().map(|i| self.value_slots[i])
    }

    /// Project the head under a complete frame, where every head
    /// slot is bound; an unbound one would be a planner bug and
    /// projects as `Null`.
    pub fn project_head(&self, frame: &Frame) -> Tuple {
        self.head
            .iter()
            .map(|h| match h {
                HeadTerm::Const(v) => v.clone(),
                HeadTerm::Slot(s) => frame[*s as usize].clone().unwrap_or(Value::Null),
            })
            .collect()
    }
}

/// The value slot of each variable (indexed like `var_names`). A
/// variable that no atom and no `Var = Const` seed binds — safe only
/// through a `Var = Var` chain — takes the slot of the first variable
/// of its equality class that one does, so it holds that member's
/// value; the chain's comparisons stay in the plan as checks. Every
/// other variable keeps its own slot.
fn chain_aliases(q: &ConjunctiveQuery, var_names: &[String]) -> Vec<Slot> {
    let index = |v: &str| {
        var_names
            .binary_search_by(|n| n.as_str().cmp(v))
            .expect("every variable has a slot")
    };
    fn root(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut anchored = vec![false; var_names.len()];
    for v in q.body_vars() {
        anchored[index(v)] = true;
    }
    // Union–find over the `Var = Var` equalities.
    let mut parent: Vec<usize> = (0..var_names.len()).collect();
    for c in q.comparisons.iter().filter(|c| c.op == CompOp::Eq) {
        match (&c.left, &c.right) {
            (Term::Var(v), Term::Const(_)) | (Term::Const(_), Term::Var(v)) => {
                anchored[index(v)] = true;
            }
            (Term::Var(a), Term::Var(b)) => {
                let (ra, rb) = (root(&mut parent, index(a)), root(&mut parent, index(b)));
                parent[ra.max(rb)] = ra.min(rb);
            }
            _ => {}
        }
    }
    let mut anchor: Vec<Option<usize>> = vec![None; var_names.len()];
    for (i, _) in anchored.iter().enumerate().filter(|(_, a)| **a) {
        anchor[root(&mut parent, i)].get_or_insert(i);
    }
    (0..var_names.len())
        .map(|i| {
            let slot = if anchored[i] {
                i
            } else {
                anchor[root(&mut parent, i)].unwrap_or(i)
            };
            slot as Slot
        })
        .collect()
}

/// Candidate row positions for one step: a borrowed index posting
/// list or a full scan.
enum Candidates<'a> {
    Probe(&'a [usize]),
    Scan(usize),
}

/// Plan execution state. The frame, provenance stack, and per-depth
/// scratch buffers are allocated once per evaluation and reused
/// across the whole enumeration.
struct Exec<'p, 'v> {
    plan: &'p QueryPlan,
    relations: &'v [&'v Relation],
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
        let relations = self.relations;
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
        let relation = relations[step.atom];
        let candidates = match &step.probe {
            Some((col, source)) => {
                match source
                    .read(&self.frame)
                    .and_then(|v| relation.probe(*col, &v))
                {
                    Some(positions) => Candidates::Probe(positions),
                    None => Candidates::Scan(relation.len()),
                }
            }
            None => Candidates::Scan(relation.len()),
        };

        match candidates {
            Candidates::Probe(positions) => {
                for &pos in positions {
                    self.try_row(step, relation, depth, pos, sink)?;
                }
            }
            Candidates::Scan(len) => {
                for pos in 0..len {
                    self.try_row(step, relation, depth, pos, sink)?;
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
        relation: &Relation,
        depth: usize,
        pos: usize,
        sink: &mut dyn FnMut(&Frame, &PlanMatchedRows<'p>) -> Result<()>,
    ) -> Result<()> {
        let row = &relation.rows()[pos];
        let mut newly = std::mem::take(&mut self.scratch[depth]);
        let frame = &mut self.frame;
        let matches = step.cols.iter().enumerate().all(|(col, op)| match op {
            ColOp::Const(c) => &row[col] == c,
            ColOp::Check(s) => frame[*s as usize].as_ref() == Some(&row[col]),
            ColOp::Bind(s) => {
                frame[*s as usize] = Some(row[col].clone());
                newly.push(*s);
                true
            }
        });
        let r = if matches {
            self.matched.push((step.atom, step.relation.as_str(), pos));
            let r = self.walk(depth + 1, sink);
            self.matched.pop();
            r
        } else {
            Ok(())
        };
        for s in newly.drain(..) {
            self.frame[s as usize] = None;
        }
        self.scratch[depth] = newly;
        r
    }
}

/// Execute a plan over the relations its atoms scan (original atom
/// order, see [`QueryPlan::relations`]), calling `sink` once per
/// complete binding frame. Returns the number of bindings enumerated.
pub(crate) fn for_each_frame<'p>(
    plan: &'p QueryPlan,
    relations: &[&Relation],
    options: EvalOptions,
    sink: &mut dyn FnMut(&Frame, &PlanMatchedRows<'p>) -> Result<()>,
) -> Result<usize> {
    if plan.unsatisfiable {
        return Ok(0);
    }
    let mut exec = Exec {
        plan,
        relations,
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
        assert!(!plan.unsatisfiable);
    }

    #[test]
    fn contradictory_seeds_mark_the_plan_unsatisfiable() {
        let db = sample_db();
        let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"a\", Ty = \"b\"").unwrap();
        let plan = QueryPlan::compile(&q, &db).unwrap();
        assert!(plan.unsatisfiable);
        let out = crate::evaluate_plan_with(&db, &plan, EvalOptions::default()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn binding_conversion_names_bound_slots_only() {
        let db = sample_db();
        let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").unwrap();
        let plan = QueryPlan::compile(&q, &db).unwrap();
        let relations = plan.relations(&db).unwrap();
        let mut bindings: Vec<Binding> = Vec::new();
        for_each_frame(
            &plan,
            &relations,
            EvalOptions::default(),
            &mut |frame, _| {
                bindings.push(plan.binding(frame));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(bindings.len(), 2);
        for b in &bindings {
            assert_eq!(b.get("Ty"), Some(&Value::str("gpcr")));
            assert!(b.contains_key("F") && b.contains_key("N"));
        }
    }

    #[test]
    fn value_slot_reads_what_binding_reads() {
        let db = sample_db();
        // `X` is bound only through the chain `X = F`
        let q = parse_query("Q(N, X) :- Family(F, N, Ty), X = F").unwrap();
        let plan = QueryPlan::compile(&q, &db).unwrap();
        assert_eq!(plan.value_slot("X"), plan.value_slot("F"));
        assert_eq!(plan.value_slot("Nope"), None);
        let relations = plan.relations(&db).unwrap();
        let mut frames = 0;
        let mut check = |frame: &Frame, _: &PlanMatchedRows<'_>| {
            let binding = plan.binding(frame);
            for var in ["F", "N", "Ty", "X"] {
                let slot = plan.value_slot(var).unwrap() as usize;
                assert_eq!(frame[slot].as_ref(), binding.get(var));
            }
            frames += 1;
            Ok(())
        };
        for_each_frame(&plan, &relations, EvalOptions::default(), &mut check).unwrap();
        assert_eq!(frames, 3);
    }

    #[test]
    fn plans_survive_many_variables() {
        let db = sample_db();
        let q = parse_query("Q(A, B, C) :- Family(A, B, C)").unwrap();
        let plan = QueryPlan::compile(&q, &db).unwrap();
        assert_eq!(plan.var_names.len(), 3);
        assert_eq!(plan.num_atoms(), 1);
        assert_eq!(plan.atom_relations(), ["Family".to_string()]);
    }
}
