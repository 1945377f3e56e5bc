//! Candidate generation: which views can cover which query subgoals.
//!
//! For each view `V` we enumerate *cover mappings* ψ from the body of
//! `V` into the atoms of the (equality-normalized) query. The image
//! of ψ is the set of query atoms the view occurrence covers; the
//! instantiated view atom is `V(ψ(Y))`.
//!
//! λ-absorption (Example 2.2) falls out naturally: the query is
//! normalized first, so a selection `Ty = "gpcr"` appears as the
//! constant `"gpcr"` inside the query atom; when ψ maps the view's
//! parameter variable onto that constant, the parameter position of
//! the view atom carries the constant — i.e. `V4(F, N, "gpcr")`,
//! the paper's `V4(F,N,Ty)("gpcr")`.
//!
//! This is a generate-liberally/validate-later design (the validity
//! oracle is expansion-equivalence, Def. 2.2): mappings that drop a
//! needed existential variable produce candidates that simply fail
//! validation. For the minimal rewritings of CQs this candidate space
//! is the same one the bucket/MiniCon algorithms search.

use crate::error::Result;
use crate::rewriting::{ViewAtom, ViewDefs};
use fgc_query::ast::{ConjunctiveQuery, Term};
use fgc_query::subst::{apply_term, Substitution};
use std::collections::BTreeSet;

/// A candidate use of one view, covering a set of query atoms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The instantiated view atom.
    pub view_atom: ViewAtom,
    /// Indices of the query atoms covered by this occurrence.
    pub covered: BTreeSet<usize>,
}

/// Enumerate all cover mappings of every view into the query.
/// The query must already be normalized (no `=` comparisons); pass
/// the output of [`fgc_query::normalize`].
pub fn candidates(query: &ConjunctiveQuery, views: &ViewDefs) -> Result<Vec<Candidate>> {
    let mut out: Vec<Candidate> = Vec::new();
    // freshen so view vars can't collide with query vars
    let tag = crate::rewriting::unused_tag(query, "_v");
    for def in views.iter() {
        let param_positions = views.param_positions(&def.name)?;
        let fresh = def.freshen(&tag);
        let mut assignment = Substitution::new();
        let mut image = Vec::with_capacity(fresh.atoms.len());
        map_atoms(
            query,
            &fresh,
            0,
            &mut assignment,
            &mut image,
            &param_positions,
            &mut out,
        );
    }
    // dedup identical candidates (same view atom + same cover)
    let mut seen = BTreeSet::new();
    out.retain(|c| {
        let key = (format!("{}", c.view_atom), c.covered.clone());
        seen.insert(key)
    });
    Ok(out)
}

/// Backtracking over the view's body atoms.
fn map_atoms(
    query: &ConjunctiveQuery,
    view: &ConjunctiveQuery,
    idx: usize,
    assignment: &mut Substitution,
    image: &mut Vec<usize>,
    param_positions: &[usize],
    out: &mut Vec<Candidate>,
) {
    if idx == view.atoms.len() {
        // all body atoms mapped: emit candidate
        let args: Vec<Term> = view
            .head
            .iter()
            .map(|t| apply_term(assignment, t))
            .collect();
        out.push(Candidate {
            view_atom: ViewAtom {
                view: view.name.clone(),
                args,
                param_positions: param_positions.to_vec(),
            },
            covered: image.iter().copied().collect(),
        });
        return;
    }
    let body_atom = &view.atoms[idx];
    for (qi, q_atom) in query.atoms.iter().enumerate() {
        if q_atom.relation != body_atom.relation || q_atom.terms.len() != body_atom.terms.len() {
            continue;
        }
        // try extending the assignment so body_atom ↦ q_atom
        let mut added: Vec<String> = Vec::new();
        let mut ok = true;
        for (vt, qt) in body_atom.terms.iter().zip(&q_atom.terms) {
            match vt {
                Term::Const(c) => {
                    // view constant must match the query term exactly
                    if qt.as_const() != Some(c) {
                        ok = false;
                        break;
                    }
                }
                Term::Var(v) => match assignment.get(v.as_str()) {
                    Some(existing) => {
                        if existing != qt {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        assignment.insert(v.clone(), qt.clone());
                        added.push(v.clone());
                    }
                },
            }
        }
        if ok {
            image.push(qi);
            map_atoms(
                query,
                view,
                idx + 1,
                assignment,
                image,
                param_positions,
                out,
            );
            image.pop();
        }
        for v in added {
            assignment.remove(&v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgc_query::{normalize, parse_query, Normalized};

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

    fn normalized(src: &str) -> ConjunctiveQuery {
        match normalize(&parse_query(src).unwrap()) {
            Normalized::Query(q) => q,
            Normalized::Unsatisfiable => panic!("unsatisfiable"),
        }
    }

    #[test]
    fn single_atom_query_gets_family_views() {
        let q = normalized("Q(N) :- Family(F, N, Ty)");
        let cands = candidates(&q, &views()).unwrap();
        let names: BTreeSet<&str> = cands.iter().map(|c| c.view_atom.view.as_str()).collect();
        // V1, V3, V4 cover Family; V5 needs FamilyIntro too, and its
        // body cannot map (no FamilyIntro atom in Q)
        assert_eq!(names, BTreeSet::from(["V1", "V3", "V4"]));
    }

    #[test]
    fn lambda_absorption_on_normalized_selection() {
        // after normalization the selection constant is inline
        let q = normalized("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"");
        let cands = candidates(&q, &views()).unwrap();
        let v4 = cands
            .iter()
            .find(|c| c.view_atom.view == "V4")
            .expect("V4 candidate");
        // V4's λ-param Ty sits at position 2 and was absorbed
        assert_eq!(v4.view_atom.args[2], Term::val("gpcr"));
        assert_eq!(v4.view_atom.absorbed_params(), 1);
    }

    #[test]
    fn multi_atom_view_covers_both_atoms() {
        let q = normalized("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"");
        let cands = candidates(&q, &views()).unwrap();
        let v5 = cands
            .iter()
            .find(|c| c.view_atom.view == "V5")
            .expect("V5 candidate");
        assert_eq!(v5.covered, BTreeSet::from([0, 1]));
        assert_eq!(v5.view_atom.args[2], Term::val("gpcr"));
    }

    #[test]
    fn view_with_unmatchable_constant_is_skipped() {
        let mut vd = views();
        // add a view hard-wired to enzyme families
        let enzyme = parse_query("VE(F, N) :- Family(F, N, \"enzyme\")").unwrap();
        vd = ViewDefs::new(vd.iter().cloned().chain([enzyme]));
        let q = normalized("Q(N) :- Family(F, N, \"gpcr\")");
        let cands = candidates(&q, &vd).unwrap();
        assert!(cands.iter().all(|c| c.view_atom.view != "VE"));
    }

    #[test]
    fn constant_in_query_binds_view_variable() {
        let q = normalized("Q(N) :- Family(\"11\", N, Ty)");
        let cands = candidates(&q, &views()).unwrap();
        let v1 = cands.iter().find(|c| c.view_atom.view == "V1").unwrap();
        assert_eq!(v1.view_atom.args[0], Term::val("11"));
        // λ-param F absorbed with "11"
        assert_eq!(v1.view_atom.absorbed_params(), 1);
    }

    #[test]
    fn self_join_produces_multiple_mappings() {
        let q = normalized("Q(A, B) :- Family(A, N1, T), Family(B, N2, T)");
        let cands = candidates(&q, &views()).unwrap();
        let v1_covers: Vec<&BTreeSet<usize>> = cands
            .iter()
            .filter(|c| c.view_atom.view == "V1")
            .map(|c| &c.covered)
            .collect();
        // V1 can map its single Family atom to either query atom
        assert_eq!(v1_covers.len(), 2);
    }

    #[test]
    fn no_views_no_candidates() {
        let q = normalized("Q(N) :- Family(F, N, Ty)");
        let cands = candidates(&q, &ViewDefs::default()).unwrap();
        assert!(cands.is_empty());
    }

    #[test]
    fn duplicate_mappings_are_deduplicated() {
        // V5 maps (Family,FamilyIntro); on a query with one of each
        // there is exactly one mapping
        let q = normalized("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)");
        let cands = candidates(&q, &views()).unwrap();
        let v5_count = cands.iter().filter(|c| c.view_atom.view == "V5").count();
        assert_eq!(v5_count, 1);
    }
}
