//! Rewritings of a query using views — Definition 2.2 of the paper.
//!
//! > "The query Q′ is a rewriting of Q using V if: the subgoals of Q′
//! > are either relation names in R, views in V, or comparison
//! > predicates; Q′ is equivalent to Q; no subgoal of Q′ can be
//! > removed and obtain an equivalent query; and no subset of
//! > subgoals of Q′ can be replaced by a view in V and obtain an
//! > equivalent query. A rewriting is total if its subgoals contain
//! > only views and comparison predicates; otherwise ... partial."

use crate::error::{Result, RewriteError};
use fgc_query::ast::{Atom, CompOp, Comparison, ConjunctiveQuery, Term};
use std::collections::BTreeMap;
use std::fmt;

/// A view occurrence in a rewriting: `V(args)` — where `args` aligns
/// with the view's head `Y`. Because Def. 2.1 requires `X ⊆ Y`, the
/// λ-parameter terms are simply the args at the parameter positions:
/// a constant there means the parameter was *absorbed* (e.g.
/// `V4(F, N, Ty)("gpcr")` appears as `V4(F, N, "gpcr")` with
/// parameter position 2).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ViewAtom {
    /// View name.
    pub view: String,
    /// Terms aligned with the view head.
    pub args: Vec<Term>,
    /// Positions of the view's λ-parameters within `args`.
    pub param_positions: Vec<usize>,
}

impl ViewAtom {
    /// The λ-parameter terms (`args` at the parameter positions).
    pub fn param_terms(&self) -> Vec<&Term> {
        self.param_positions
            .iter()
            .map(|&i| &self.args[i])
            .collect()
    }

    /// Number of parameters already bound to constants (absorbed
    /// comparison predicates, as in Example 2.2's `Q2`).
    pub fn absorbed_params(&self) -> usize {
        self.param_terms().iter().filter(|t| !t.is_var()).count()
    }
}

impl fmt::Display for ViewAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.view)?;
        for (i, t) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        f.write_str(")")
    }
}

/// A subgoal of a rewriting.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subgoal {
    /// A view occurrence.
    View(ViewAtom),
    /// A base-relation atom (makes the rewriting *partial*).
    Base(Atom),
}

impl fmt::Display for Subgoal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subgoal::View(v) => write!(f, "{v}"),
            Subgoal::Base(a) => write!(f, "{a}"),
        }
    }
}

/// A (candidate) rewriting of a query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rewriting {
    /// Head predicate name (inherited from the query).
    pub name: String,
    /// Head terms.
    pub head: Vec<Term>,
    /// Subgoals: views and base atoms.
    pub subgoals: Vec<Subgoal>,
    /// Residual comparison predicates.
    pub comparisons: Vec<Comparison>,
}

impl Rewriting {
    /// Is the rewriting total (no base-relation subgoal)?
    pub fn is_total(&self) -> bool {
        self.subgoals.iter().all(|s| matches!(s, Subgoal::View(_)))
    }

    /// Number of view subgoals.
    pub fn num_views(&self) -> usize {
        self.subgoals
            .iter()
            .filter(|s| matches!(s, Subgoal::View(_)))
            .count()
    }

    /// Number of base-relation subgoals.
    pub fn num_base(&self) -> usize {
        self.subgoals.len() - self.num_views()
    }

    /// The paper's "uncovered terms": subgoals "captured by directly
    /// accessing base relations or appearing as comparison
    /// predicates". Constants sitting in a *non-parameter* view-arg
    /// position count as residual comparison predicates (the
    /// normalized form of Example 2.2's `Q1`, where `Ty = "gpcr"`
    /// survives next to `V1`).
    pub fn num_uncovered(&self) -> usize {
        let residual_constants: usize = self
            .subgoals
            .iter()
            .map(|s| match s {
                Subgoal::View(v) => v
                    .args
                    .iter()
                    .enumerate()
                    .filter(|(i, t)| !t.is_var() && !v.param_positions.contains(i))
                    .count(),
                Subgoal::Base(_) => 0,
            })
            .sum();
        self.num_base() + self.comparisons.len() + residual_constants
    }

    /// View subgoals.
    pub fn view_atoms(&self) -> impl Iterator<Item = &ViewAtom> {
        self.subgoals.iter().filter_map(|s| match s {
            Subgoal::View(v) => Some(v),
            Subgoal::Base(_) => None,
        })
    }

    /// Base subgoals.
    pub fn base_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.subgoals.iter().filter_map(|s| match s {
            Subgoal::Base(a) => Some(a),
            Subgoal::View(_) => None,
        })
    }

    /// The rewriting as a plain conjunctive query over *view extents*:
    /// every view subgoal becomes an atom over a relation named after
    /// the view. Evaluating this against materialized extents gives
    /// the rewriting's output and bindings.
    pub fn as_extent_query(&self) -> ConjunctiveQuery {
        ConjunctiveQuery {
            name: self.name.clone(),
            params: Vec::new(),
            head: self.head.clone(),
            atoms: self
                .subgoals
                .iter()
                .map(|s| match s {
                    Subgoal::View(v) => Atom::new(v.view.clone(), v.args.clone()),
                    Subgoal::Base(a) => a.clone(),
                })
                .collect(),
            comparisons: self.comparisons.clone(),
        }
    }

    /// The *expansion* of the rewriting ([`ViewDefs::expand`] of
    /// [`Self::as_extent_query`]). Equivalence of the expansion with
    /// the original query is Def. 2.2's condition 2.
    pub fn expand(&self, views: &ViewDefs) -> Result<ConjunctiveQuery> {
        for v in self.view_atoms() {
            views.get(&v.view)?;
        }
        views.expand(&self.as_extent_query())
    }

    /// Check Def. 2.2 condition 2: the expansion is equivalent to `q`
    /// (over databases satisfying the view set's key dependencies).
    pub fn is_equivalent_to(&self, q: &ConjunctiveQuery, views: &ViewDefs) -> Result<bool> {
        Ok(fgc_query::equivalent_under(
            &self.expand(views)?,
            q,
            views.dependencies(),
        ))
    }

    /// Canonical form for deduplication: subgoals and comparisons
    /// sorted, variables renamed in order of first appearance.
    pub fn canonical_key(&self) -> String {
        let mut sorted = self.clone();
        sorted.subgoals.sort();
        sorted.comparisons.sort();
        let mut renaming: BTreeMap<String, String> = BTreeMap::new();
        let mut fresh = 0usize;
        let mut rename = |t: &Term| -> Term {
            match t {
                Term::Var(v) => {
                    let name = renaming.entry(v.clone()).or_insert_with(|| {
                        let n = format!("v{fresh}");
                        fresh += 1;
                        n
                    });
                    Term::Var(name.clone())
                }
                c => c.clone(),
            }
        };
        let mut parts: Vec<String> = Vec::new();
        parts.push(
            sorted
                .head
                .iter()
                .map(|t| rename(t).to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
        for s in &sorted.subgoals {
            match s {
                Subgoal::View(v) => parts.push(format!(
                    "{}({})",
                    v.view,
                    v.args
                        .iter()
                        .map(|t| rename(t).to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                )),
                Subgoal::Base(a) => parts.push(format!(
                    "@{}({})",
                    a.relation,
                    a.terms
                        .iter()
                        .map(|t| rename(t).to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                )),
            }
        }
        for c in &sorted.comparisons {
            parts.push(format!("{} {} {}", rename(&c.left), c.op, rename(&c.right)));
        }
        parts.join(" & ")
    }
}

impl fmt::Display for Rewriting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, t) in self.head.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        f.write_str(") :- ")?;
        let mut first = true;
        for s in &self.subgoals {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "{s}")?;
        }
        for c in &self.comparisons {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// `stem`, lengthened with `x`s until no variable of `q` contains it.
/// A name `{v}{tag}…` built from the result can then never be one of
/// `q`'s own variables, so a view's existential variables cannot
/// capture them.
pub(crate) fn unused_tag(q: &ConjunctiveQuery, stem: &str) -> String {
    // every expansion the rewriting search checks asks for a tag, so
    // the variables are scanned in place rather than collected
    let vars = || {
        let body = q.atoms.iter().flat_map(Atom::vars);
        let compared = q.comparisons.iter().flat_map(Comparison::vars);
        let head = q.head.iter().filter_map(Term::as_var);
        body.chain(compared)
            .chain(head)
            .chain(q.params.iter().map(String::as_str))
    };
    let mut tag = stem.to_string();
    while vars().any(|v| v.contains(tag.as_str())) {
        tag.push('x');
    }
    tag
}

/// The view definitions available for rewriting (name → λ-query),
/// together with the key dependencies under which rewriting
/// equivalence is judged (rewritings that re-join projections of one
/// relation are only valid when its key is declared — see
/// `fgc_query::chase`).
#[derive(Debug, Clone, Default)]
pub struct ViewDefs {
    defs: BTreeMap<String, ConjunctiveQuery>,
    deps: fgc_query::Dependencies,
}

impl ViewDefs {
    /// Build from an iterator of view definitions (λ-queries). The
    /// head predicate name is the view name.
    pub fn new<I: IntoIterator<Item = ConjunctiveQuery>>(defs: I) -> Self {
        ViewDefs {
            defs: defs.into_iter().map(|q| (q.name.clone(), q)).collect(),
            deps: fgc_query::Dependencies::none(),
        }
    }

    /// Attach key dependencies (builder style). Equivalence checks of
    /// rewritings then hold over key-respecting databases.
    pub fn with_dependencies(mut self, deps: fgc_query::Dependencies) -> Self {
        self.deps = deps;
        self
    }

    /// The key dependencies in force.
    pub fn dependencies(&self) -> &fgc_query::Dependencies {
        &self.deps
    }

    /// Look up a view definition.
    pub fn get(&self, name: &str) -> Result<&ConjunctiveQuery> {
        self.defs
            .get(name)
            .ok_or_else(|| RewriteError::UnknownView(name.to_string()))
    }

    /// The *expansion* of `q`, whose atoms may name views: each view
    /// atom is replaced by the view's body, its head matched to the
    /// atom's terms and its other variables named afresh per
    /// occurrence, with a tag no variable of `q` contains. Atoms over other relations are kept as they are.
    /// The query's own variables are never rebound: where the view
    /// head repeats a variable or carries a constant, the match becomes
    /// an equality comparison, so every variable of `q` survives and
    /// the expansion is safe whenever `q` is.
    pub fn expand(&self, q: &ConjunctiveQuery) -> Result<ConjunctiveQuery> {
        let tag = unused_tag(q, "_x");
        let mut atoms: Vec<Atom> = Vec::new();
        let mut comparisons: Vec<Comparison> = q.comparisons.clone();
        for (occurrence, atom) in q.atoms.iter().enumerate() {
            let Some(def) = self.defs.get(&atom.relation) else {
                atoms.push(atom.clone());
                continue;
            };
            if def.head.len() != atom.terms.len() {
                return Err(RewriteError::ViewArity {
                    view: atom.relation.clone(),
                    expected: def.head.len(),
                    actual: atom.terms.len(),
                });
            }
            // the view's head variables, bound to the atom's terms
            let mut bound: Vec<(&str, &Term)> = Vec::with_capacity(def.head.len());
            for (ht, at) in def.head.iter().zip(&atom.terms) {
                let earlier = match ht {
                    Term::Var(v) => match bound.iter().find(|(w, _)| *w == v.as_str()) {
                        Some(&(_, t)) => t,
                        None => {
                            bound.push((v, at));
                            continue;
                        }
                    },
                    Term::Const(_) => ht,
                };
                match (earlier, at) {
                    _ if earlier == at => {}
                    (Term::Const(_), Term::Const(_)) => {
                        return Err(RewriteError::Inconsistent {
                            view: atom.relation.clone(),
                            detail: format!("cannot unify head term {ht} with arg {at}"),
                        })
                    }
                    _ => comparisons.push(Comparison::new(at.clone(), CompOp::Eq, earlier.clone())),
                }
            }
            let term = |t: &Term| match t {
                Term::Var(v) => match bound.iter().find(|(w, _)| *w == v.as_str()) {
                    Some(&(_, t)) => t.clone(),
                    None => Term::Var(format!("{v}{tag}{occurrence}")),
                },
                Term::Const(_) => t.clone(),
            };
            atoms.extend(
                def.atoms
                    .iter()
                    .map(|a| Atom::new(a.relation.clone(), a.terms.iter().map(term).collect())),
            );
            comparisons.extend(
                def.comparisons
                    .iter()
                    .map(|c| Comparison::new(term(&c.left), c.op, term(&c.right))),
            );
        }
        Ok(ConjunctiveQuery {
            name: q.name.clone(),
            params: Vec::new(),
            head: q.head.clone(),
            atoms,
            comparisons,
        })
    }

    /// All definitions, name-sorted.
    pub fn iter(&self) -> impl Iterator<Item = &ConjunctiveQuery> {
        self.defs.values()
    }

    /// Number of views.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Parameter positions in the head of a view (Def. 2.1's X ⊆ Y).
    pub fn param_positions(&self, name: &str) -> Result<Vec<usize>> {
        let def = self.get(name)?;
        def.params
            .iter()
            .map(|p| {
                def.head
                    .iter()
                    .position(|t| t.as_var() == Some(p.as_str()))
                    .ok_or_else(|| RewriteError::ParamNotInHead {
                        view: name.to_string(),
                        parameter: p.clone(),
                    })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgc_query::parse_query;

    fn views() -> ViewDefs {
        ViewDefs::new(vec![
            parse_query("lambda F. V1(F, N, Ty) :- Family(F, N, Ty)").unwrap(),
            parse_query("lambda F. V2(F, Tx) :- FamilyIntro(F, Tx)").unwrap(),
            parse_query("V3(F, N, Ty) :- Family(F, N, Ty)").unwrap(),
            parse_query("lambda Ty. V4(F, N, Ty) :- Family(F, N, Ty)").unwrap(),
            parse_query("lambda Ty. V5(F, N, Ty, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)")
                .unwrap(),
        ])
    }

    fn q4_rewriting() -> Rewriting {
        // Q4(N, Tx) :- V5(F, N, "gpcr", Tx)
        Rewriting {
            name: "Q4".into(),
            head: vec![Term::var("N"), Term::var("Tx")],
            subgoals: vec![Subgoal::View(ViewAtom {
                view: "V5".into(),
                args: vec![
                    Term::var("F"),
                    Term::var("N"),
                    Term::val("gpcr"),
                    Term::var("Tx"),
                ],
                param_positions: vec![2],
            })],
            comparisons: vec![],
        }
    }

    #[test]
    fn totality_and_counts() {
        let r = q4_rewriting();
        assert!(r.is_total());
        assert_eq!(r.num_views(), 1);
        assert_eq!(r.num_base(), 0);
        assert_eq!(r.num_uncovered(), 0); // "gpcr" sits at a λ position
        assert_eq!(r.view_atoms().next().unwrap().absorbed_params(), 1);
    }

    #[test]
    fn constant_at_non_param_position_counts_uncovered() {
        // V1(F, N, "gpcr"): Ty is not a λ-param of V1
        let r = Rewriting {
            name: "Q1".into(),
            head: vec![Term::var("N")],
            subgoals: vec![Subgoal::View(ViewAtom {
                view: "V1".into(),
                args: vec![Term::var("F"), Term::var("N"), Term::val("gpcr")],
                param_positions: vec![0],
            })],
            comparisons: vec![],
        };
        assert_eq!(r.num_uncovered(), 1);
    }

    #[test]
    fn expansion_of_q4_matches_paper() {
        let r = q4_rewriting();
        let exp = r.expand(&views()).unwrap();
        let original =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        assert!(
            fgc_query::equivalent(&exp, &original),
            "expansion was {exp}"
        );
        assert!(r.is_equivalent_to(&original, &views()).unwrap());
    }

    #[test]
    fn expansion_with_two_views_example_2_3_q1() {
        // Q1(N, Tx) :- V1(F, N, Ty), V2(F, Tx), Ty = "gpcr"
        let r = Rewriting {
            name: "Q1".into(),
            head: vec![Term::var("N"), Term::var("Tx")],
            subgoals: vec![
                Subgoal::View(ViewAtom {
                    view: "V1".into(),
                    args: vec![Term::var("F"), Term::var("N"), Term::var("Ty")],
                    param_positions: vec![0],
                }),
                Subgoal::View(ViewAtom {
                    view: "V2".into(),
                    args: vec![Term::var("F"), Term::var("Tx")],
                    param_positions: vec![0],
                }),
            ],
            comparisons: vec![Comparison::new(
                Term::var("Ty"),
                fgc_query::CompOp::Eq,
                Term::val("gpcr"),
            )],
        };
        assert!(r.is_total());
        assert_eq!(r.num_uncovered(), 1); // the residual comparison
        let original =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        assert!(r.is_equivalent_to(&original, &views()).unwrap());
    }

    #[test]
    fn partial_rewriting_with_base_atom() {
        let r = Rewriting {
            name: "Qp".into(),
            head: vec![Term::var("N")],
            subgoals: vec![
                Subgoal::View(ViewAtom {
                    view: "V2".into(),
                    args: vec![Term::var("F"), Term::var("Tx")],
                    param_positions: vec![0],
                }),
                Subgoal::Base(Atom::new(
                    "Family",
                    vec![Term::var("F"), Term::var("N"), Term::val("gpcr")],
                )),
            ],
            comparisons: vec![],
        };
        assert!(!r.is_total());
        assert_eq!(r.num_base(), 1);
        let original =
            parse_query("Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        assert!(r.is_equivalent_to(&original, &views()).unwrap());
    }

    #[test]
    fn non_equivalent_rewriting_detected() {
        // V2 alone loses the Family selection
        let r = Rewriting {
            name: "Qbad".into(),
            head: vec![Term::var("Tx")],
            subgoals: vec![Subgoal::View(ViewAtom {
                view: "V2".into(),
                args: vec![Term::var("F"), Term::var("Tx")],
                param_positions: vec![0],
            })],
            comparisons: vec![],
        };
        let original =
            parse_query("Q(Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        assert!(!r.is_equivalent_to(&original, &views()).unwrap());
    }

    #[test]
    fn as_extent_query_uses_view_names_as_relations() {
        let q = q4_rewriting().as_extent_query();
        assert_eq!(q.atoms[0].relation, "V5");
        assert_eq!(q.atoms[0].terms.len(), 4);
    }

    #[test]
    fn canonical_key_identifies_renamed_duplicates() {
        let a = q4_rewriting();
        let mut b = q4_rewriting();
        // rename F -> G, N -> M consistently
        b.head = vec![Term::var("M"), Term::var("U")];
        if let Subgoal::View(v) = &mut b.subgoals[0] {
            v.args = vec![
                Term::var("G"),
                Term::var("M"),
                Term::val("gpcr"),
                Term::var("U"),
            ];
        }
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn unknown_view_in_expansion_errors() {
        let mut r = q4_rewriting();
        if let Subgoal::View(v) = &mut r.subgoals[0] {
            v.view = "V99".into();
        }
        assert!(matches!(
            r.expand(&views()).unwrap_err(),
            RewriteError::UnknownView(_)
        ));
    }

    #[test]
    fn expansion_keeps_every_rewriting_variable() {
        // view heads that repeat a variable or carry a constant
        let views = ViewDefs::new(vec![
            parse_query("lambda F. W1(F, F) :- FC(F, F)").unwrap(),
            parse_query("lambda F. W2(F, \"gpcr\") :- Family(F, N, \"gpcr\")").unwrap(),
        ]);
        for (view, expected) in [
            ("W1", "Q(X, Y) :- FC(X, X), Y = X"),
            ("W2", "Q(X, Y) :- Family(X, N, \"gpcr\"), Y = \"gpcr\""),
        ] {
            let r = Rewriting {
                name: "Q".into(),
                head: vec![Term::var("X"), Term::var("Y")],
                subgoals: vec![Subgoal::View(ViewAtom {
                    view: view.into(),
                    args: vec![Term::var("X"), Term::var("Y")],
                    param_positions: vec![0],
                })],
                comparisons: vec![],
            };
            let exp = r.expand(&views).unwrap();
            fgc_query::check_safety(&exp).unwrap_or_else(|e| panic!("{exp}: {e}"));
            assert_eq!(exp.head, r.head);
            let vars = exp.all_vars();
            assert!(vars.contains("X") && vars.contains("Y"), "{exp}");
            let expected = parse_query(expected).unwrap();
            assert!(fgc_query::equivalent(&exp, &expected), "{exp}");
        }
    }

    #[test]
    fn fresh_view_variables_never_capture_the_query_s_own() {
        let views = ViewDefs::new(vec![parse_query("lambda F. W(F) :- FC(F, C)").unwrap()]);
        let rewritings = |q: &str| {
            let q = parse_query(q).unwrap();
            let found = crate::enumerate_rewritings(&q, &views, Default::default()).unwrap();
            let mut keys: Vec<String> =
                found.rewritings.iter().map(|r| r.canonical_key()).collect();
            keys.sort();
            keys
        };
        // `C_x1` is the name the expansion of a view atom at position 1
        // would give the view's `C`, and `C_v` the bucket generator's
        let plain = rewritings("Q(F, C_x0) :- FC(F, C), Person(C_x0, Pn, A)");
        assert!(plain.iter().any(|r| r.contains("W(")), "{plain:?}");
        for spelling in ["C_x1", "C_v", "C_xx1"] {
            let q = format!("Q(F, {spelling}) :- FC(F, C), Person({spelling}, Pn, A)");
            assert_eq!(rewritings(&q), plain, "{q}");
        }
    }

    #[test]
    fn view_defs_param_positions() {
        let vd = views();
        assert_eq!(vd.param_positions("V1").unwrap(), vec![0]);
        assert_eq!(vd.param_positions("V4").unwrap(), vec![2]);
        assert_eq!(vd.param_positions("V3").unwrap(), Vec::<usize>::new());
    }
}
