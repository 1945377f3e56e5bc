//! Enumeration of valid rewritings (Definition 2.2).
//!
//! The paper warns that "going through all rewritings would be an
//! impractical implementation" — this module does it anyway (it is
//! the formal semantics, and `claim_1_*` in `tests/reproduce.rs`
//! counts exactly how impractical), but under explicit budgets and
//! with the pruned search of [`crate::prefer`] as the practical
//! alternative.

use crate::bucket::{candidates, Candidate};
use crate::error::Result;
use crate::rewriting::{Rewriting, Subgoal, ViewDefs};
use fgc_query::ast::ConjunctiveQuery;
use fgc_query::{check_safety, normalize, Normalized};
use std::collections::BTreeSet;

/// Options controlling the enumeration.
#[derive(Debug, Clone, Copy)]
pub struct RewriteOptions {
    /// Maximum number of view subgoals per rewriting.
    pub max_views: usize,
    /// Also produce partial rewritings (with base-relation subgoals).
    pub include_partial: bool,
    /// Abort after this many *candidate combinations* were examined.
    pub max_combinations: usize,
    /// Stop early once this many valid rewritings were found
    /// (`usize::MAX` = find all).
    pub stop_after: usize,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        RewriteOptions {
            max_views: 6,
            include_partial: true,
            max_combinations: 200_000,
            stop_after: usize::MAX,
        }
    }
}

/// The result of an enumeration.
#[derive(Debug, Clone)]
pub struct Enumeration {
    /// The valid rewritings found, deduplicated up to variable
    /// renaming, in discovery order.
    pub rewritings: Vec<Rewriting>,
    /// Whether the search space was fully explored (false when a
    /// budget or `stop_after` cut it short).
    pub exhaustive: bool,
    /// Number of candidate combinations examined.
    pub combinations_tried: usize,
    /// `true` when the input query was unsatisfiable (it then has no
    /// rewritings and evaluates to ∅ on every database).
    pub unsatisfiable: bool,
}

/// Enumerate the valid rewritings of `query` using `views`.
pub fn enumerate_rewritings(
    query: &ConjunctiveQuery,
    views: &ViewDefs,
    options: RewriteOptions,
) -> Result<Enumeration> {
    check_safety(query)?;
    let normalized = match normalize(query) {
        Normalized::Unsatisfiable => {
            return Ok(Enumeration {
                rewritings: Vec::new(),
                exhaustive: true,
                combinations_tried: 0,
                unsatisfiable: true,
            })
        }
        Normalized::Query(q) => q,
    };
    let cands = candidates(&normalized, views)?;

    let mut state = Search {
        query,
        normalized: &normalized,
        views,
        candidates: &cands,
        options,
        chosen: Vec::new(),
        base: BTreeSet::new(),
        found: Vec::new(),
        seen: BTreeSet::new(),
        combinations: 0,
        exhausted: true,
    };
    state.cover();
    Ok(Enumeration {
        rewritings: state.found,
        exhaustive: state.exhausted,
        combinations_tried: state.combinations,
        unsatisfiable: false,
    })
}

struct Search<'a> {
    query: &'a ConjunctiveQuery,
    normalized: &'a ConjunctiveQuery,
    views: &'a ViewDefs,
    candidates: &'a [Candidate],
    options: RewriteOptions,
    /// Candidate indices chosen so far.
    chosen: Vec<usize>,
    /// Query atoms (indices into `normalized.atoms`) left uncovered.
    base: BTreeSet<usize>,
    found: Vec<Rewriting>,
    seen: BTreeSet<String>,
    combinations: usize,
    exhausted: bool,
}

impl<'a> Search<'a> {
    fn covered(&self) -> BTreeSet<usize> {
        let mut c: BTreeSet<usize> = self.base.clone();
        for &i in &self.chosen {
            c.extend(self.candidates[i].covered.iter().copied());
        }
        c
    }

    fn done(&self) -> bool {
        self.found.len() >= self.options.stop_after
            || self.combinations >= self.options.max_combinations
    }

    /// Variables the rewriting must expose: head variables and
    /// variables of residual comparisons.
    fn needed_vars(&self) -> BTreeSet<&str> {
        let mut vars: BTreeSet<&str> = self
            .normalized
            .head
            .iter()
            .filter_map(|t| t.as_var())
            .collect();
        for c in &self.normalized.comparisons {
            vars.extend(c.vars());
        }
        vars
    }

    /// Variables currently exposed by the chosen subgoals.
    fn bound_vars(&self) -> BTreeSet<&str> {
        let mut vars: BTreeSet<&str> = BTreeSet::new();
        for &i in &self.base {
            vars.extend(self.normalized.atoms[i].vars());
        }
        for &ci in &self.chosen {
            vars.extend(
                self.candidates[ci]
                    .view_atom
                    .args
                    .iter()
                    .filter_map(|t| t.as_var()),
            );
        }
        vars
    }

    /// Set-cover DFS: branch on how the lowest uncovered atom gets
    /// covered — by each covering candidate, or (for partial
    /// rewritings) by remaining a base subgoal. Once all atoms are
    /// covered, a head/comparison variable may still be unbound
    /// (every covering view projected it away): branch over
    /// candidates that expose it.
    fn cover(&mut self) {
        if self.done() {
            self.exhausted = false;
            return;
        }
        self.combinations += 1;
        let covered = self.covered();
        let next_uncovered = (0..self.normalized.atoms.len()).find(|i| !covered.contains(i));
        match next_uncovered {
            None => {
                let bound = self.bound_vars();
                let missing: Option<String> = self
                    .needed_vars()
                    .into_iter()
                    .find(|v| !bound.contains(v))
                    .map(str::to_string);
                match missing {
                    None => self.emit(),
                    Some(var) => {
                        // augment with a candidate exposing `var`
                        for ci in 0..self.candidates.len() {
                            if self.done() {
                                self.exhausted = false;
                                return;
                            }
                            if self.chosen.len() >= self.options.max_views
                                || self.chosen.contains(&ci)
                            {
                                continue;
                            }
                            let exposes = self.candidates[ci]
                                .view_atom
                                .args
                                .iter()
                                .any(|t| t.as_var() == Some(var.as_str()));
                            if !exposes {
                                continue;
                            }
                            self.chosen.push(ci);
                            self.cover();
                            self.chosen.pop();
                        }
                    }
                }
            }
            Some(atom) => {
                for ci in 0..self.candidates.len() {
                    if self.done() {
                        self.exhausted = false;
                        return;
                    }
                    if !self.candidates[ci].covered.contains(&atom) {
                        continue;
                    }
                    if self.chosen.len() >= self.options.max_views {
                        continue;
                    }
                    self.chosen.push(ci);
                    self.cover();
                    self.chosen.pop();
                }
                if self.options.include_partial {
                    self.base.insert(atom);
                    self.cover();
                    self.base.remove(&atom);
                }
            }
        }
    }

    fn build(&self, base: &BTreeSet<usize>, chosen: &[usize]) -> Rewriting {
        let mut subgoals: Vec<Subgoal> = Vec::new();
        for &i in base {
            subgoals.push(Subgoal::Base(self.normalized.atoms[i].clone()));
        }
        for &ci in chosen {
            subgoals.push(Subgoal::View(self.candidates[ci].view_atom.clone()));
        }
        Rewriting {
            name: self.normalized.name.clone(),
            head: self.normalized.head.clone(),
            subgoals,
            comparisons: self.normalized.comparisons.clone(),
        }
    }

    /// Assemble the current selection into a rewriting and validate
    /// it against Definition 2.2.
    fn emit(&mut self) {
        let rewriting = self.build(&self.base, &self.chosen);
        let key = rewriting.canonical_key();
        if !self.seen.insert(key) {
            return;
        }
        if self.validate(&rewriting) == Some(true) {
            self.found.push(rewriting);
        }
    }

    /// Definition 2.2 validity. `None` means an internal error (the
    /// combination is skipped — generate-liberally design).
    ///
    /// * condition 2 — the expansion is equivalent to the query;
    /// * condition 3 — no subgoal (or residual comparison) is
    ///   removable; removable combinations are rejected rather than
    ///   reduced (the reduced combination has its own DFS branch);
    /// * condition 4 — no subset of **base** subgoals can be replaced
    ///   by a view. The paper's Example 2.3 presents `Q1 = V1 ⋈ V2`
    ///   as a rewriting even though `V5` could replace both view
    ///   subgoals, so condition 4 cannot be read as applying to view
    ///   subgoals; we read it as *maximal view coverage of the
    ///   remaining base part* (see DESIGN.md §3).
    fn validate(&mut self, rewriting: &Rewriting) -> Option<bool> {
        if !rewriting.is_equivalent_to(self.query, self.views).ok()? {
            return Some(false);
        }

        // condition 3: subgoals
        for i in 0..rewriting.subgoals.len() {
            if rewriting.subgoals.len() == 1 {
                break;
            }
            let mut reduced = rewriting.clone();
            reduced.subgoals.remove(i);
            if check_safety(&reduced.as_extent_query()).is_err() {
                continue;
            }
            if reduced.is_equivalent_to(self.query, self.views).ok()? {
                return Some(false);
            }
        }
        // condition 3: residual comparisons
        for i in 0..rewriting.comparisons.len() {
            let mut reduced = rewriting.clone();
            reduced.comparisons.remove(i);
            if check_safety(&reduced.as_extent_query()).is_err() {
                continue;
            }
            if reduced.is_equivalent_to(self.query, self.views).ok()? {
                return Some(false);
            }
        }

        // condition 4: can any candidate absorb base atoms?
        if !self.base.is_empty() {
            for cand in self.candidates {
                // the candidate must cover only currently-base atoms,
                // at least one of them
                if !cand.covered.iter().all(|qi| self.base.contains(qi)) {
                    continue;
                }
                if cand.covered.is_empty() {
                    continue;
                }
                let reduced_base: BTreeSet<usize> =
                    self.base.difference(&cand.covered).copied().collect();
                let mut replaced = self.build(&reduced_base, &self.chosen);
                replaced
                    .subgoals
                    .push(Subgoal::View(cand.view_atom.clone()));
                if check_safety(&replaced.as_extent_query()).is_err() {
                    continue;
                }
                if replaced.is_equivalent_to(self.query, self.views).ok()? {
                    return Some(false);
                }
            }
        }

        Some(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgc_query::parse_query;

    fn paper_views() -> ViewDefs {
        ViewDefs::new(vec![
            parse_query("lambda F. V1(F, N, Ty) :- Family(F, N, Ty)").unwrap(),
            parse_query("lambda F. V2(F, Tx) :- FamilyIntro(F, Tx)").unwrap(),
            parse_query("V3(F, N, Ty) :- Family(F, N, Ty)").unwrap(),
            parse_query("lambda Ty. V4(F, N, Ty) :- Family(F, N, Ty)").unwrap(),
            parse_query("lambda Ty. V5(F, N, Ty, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)")
                .unwrap(),
        ])
    }

    fn enumerate(src: &str) -> Enumeration {
        enumerate_rewritings(
            &parse_query(src).unwrap(),
            &paper_views(),
            RewriteOptions::default(),
        )
        .unwrap()
    }

    /// Example 2.3: Q(N,Tx) :- Family(F,N,Ty), FamilyIntro(F,Tx), Ty="gpcr"
    /// has (at least) the four rewritings Q1..Q4 from the paper.
    #[test]
    fn example_2_3_rewritings_found() {
        let e = enumerate("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"");
        assert!(e.exhaustive);
        let shown: Vec<String> = e.rewritings.iter().map(|r| r.to_string()).collect();
        let has = |needle: &[&str]| shown.iter().any(|s| needle.iter().all(|n| s.contains(n)));
        // Q1: V1 + V2 (with residual "gpcr" on V1's Ty output)
        assert!(has(&["V1(", "V2("]), "missing Q1 in {shown:#?}");
        // Q2: V3 + V2
        assert!(has(&["V3(", "V2("]), "missing Q2 in {shown:#?}");
        // Q3: V4("gpcr") + V2
        assert!(has(&["V4(", "\"gpcr\"", "V2("]), "missing Q3 in {shown:#?}");
        // Q4: V5("gpcr") alone
        assert!(has(&["V5("]), "missing Q4 in {shown:#?}");
        // Q4 must be a single-view rewriting
        let q4 = e
            .rewritings
            .iter()
            .find(|r| r.view_atoms().any(|v| v.view == "V5"))
            .unwrap();
        assert_eq!(q4.num_views(), 1);
        assert!(q4.is_total());
        assert_eq!(q4.num_uncovered(), 0);
    }

    /// Example 2.2: Q(N) :- Family(F,N,Ty), Ty="gpcr", FamilyIntro(F,Tx)
    #[test]
    fn example_2_2_rewritings_found() {
        let e = enumerate("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\", FamilyIntro(F, Tx)");
        let shown: Vec<String> = e.rewritings.iter().map(|r| r.to_string()).collect();
        // Q1 uses V1 and V2; Q2 uses V4("gpcr") and V2
        assert!(shown.iter().any(|s| s.contains("V1(") && s.contains("V2(")));
        assert!(shown
            .iter()
            .any(|s| s.contains("V4(") && s.contains("\"gpcr\"") && s.contains("V2(")));
        // V5("gpcr") also covers this query (projecting away Tx)
        assert!(shown.iter().any(|s| s.contains("V5(")));
        for r in &e.rewritings {
            assert!(r
                .is_equivalent_to(
                    &parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\", FamilyIntro(F, Tx)")
                        .unwrap(),
                    &paper_views()
                )
                .unwrap());
        }
    }

    #[test]
    fn all_rewritings_are_equivalent_and_minimal() {
        let q =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        let e = enumerate("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"");
        for r in &e.rewritings {
            assert!(r.is_equivalent_to(&q, &paper_views()).unwrap(), "{r}");
            // no subgoal removable
            for i in 0..r.subgoals.len() {
                if r.subgoals.len() == 1 {
                    continue;
                }
                let mut reduced = r.clone();
                reduced.subgoals.remove(i);
                if check_safety(&reduced.as_extent_query()).is_err() {
                    continue;
                }
                assert!(
                    !reduced.is_equivalent_to(&q, &paper_views()).unwrap(),
                    "subgoal {i} of {r} is removable"
                );
            }
        }
    }

    #[test]
    fn no_views_means_single_all_base_rewriting() {
        let e = enumerate_rewritings(
            &parse_query("Q(N) :- Family(F, N, Ty)").unwrap(),
            &ViewDefs::default(),
            RewriteOptions::default(),
        )
        .unwrap();
        assert_eq!(e.rewritings.len(), 1);
        assert_eq!(e.rewritings[0].num_base(), 1);
        assert!(!e.rewritings[0].is_total());
    }

    #[test]
    fn totals_only_when_partial_disabled() {
        let e = enumerate_rewritings(
            &parse_query("Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx)").unwrap(),
            &paper_views(),
            RewriteOptions {
                include_partial: false,
                ..RewriteOptions::default()
            },
        )
        .unwrap();
        assert!(!e.rewritings.is_empty());
        assert!(e.rewritings.iter().all(Rewriting::is_total));
    }

    #[test]
    fn partial_rewriting_not_emitted_when_view_could_cover() {
        // With V2 available, leaving FamilyIntro as a base atom
        // violates condition 4 (V2 can replace it).
        let e = enumerate("Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx)");
        for r in &e.rewritings {
            for b in r.base_atoms() {
                assert_ne!(b.relation, "FamilyIntro", "condition 4 violated by {r}");
                assert_ne!(b.relation, "Family", "condition 4 violated by {r}");
            }
        }
    }

    #[test]
    fn unsatisfiable_query_reports_flag() {
        let e = enumerate("Q(N) :- Family(F, N, Ty), Ty = \"a\", Ty = \"b\"");
        assert!(e.unsatisfiable);
        assert!(e.rewritings.is_empty());
    }

    #[test]
    fn budget_cuts_off_search() {
        let e = enumerate_rewritings(
            &parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"")
                .unwrap(),
            &paper_views(),
            RewriteOptions {
                max_combinations: 2,
                ..RewriteOptions::default()
            },
        )
        .unwrap();
        assert!(!e.exhaustive);
    }

    #[test]
    fn stop_after_limits_results() {
        let e = enumerate_rewritings(
            &parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"")
                .unwrap(),
            &paper_views(),
            RewriteOptions {
                stop_after: 1,
                ..RewriteOptions::default()
            },
        )
        .unwrap();
        assert_eq!(e.rewritings.len(), 1);
        assert!(!e.exhaustive);
    }

    #[test]
    fn max_views_bounds_rewriting_size() {
        let e = enumerate_rewritings(
            &parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"")
                .unwrap(),
            &paper_views(),
            RewriteOptions {
                max_views: 1,
                include_partial: false,
                ..RewriteOptions::default()
            },
        )
        .unwrap();
        assert!(e.rewritings.iter().all(|r| r.num_views() <= 1));
        // Q4 (single V5) must still be there
        assert!(e
            .rewritings
            .iter()
            .any(|r| r.view_atoms().any(|v| v.view == "V5")));
    }
}

#[cfg(test)]
mod augmentation_tests {
    use super::*;
    use fgc_query::parse_query;

    fn family_key() -> fgc_query::Dependencies {
        fgc_query::Dependencies::none().with_key("Family", vec![0])
    }

    /// Projection-split views: no single view exposes both head
    /// variables, so a valid rewriting must join two views over the
    /// *same* query atom — sound only because `FID` is a key
    /// (re-joining the projections on a non-key could multiply rows).
    /// Exercises the unbound-head-var branch and the key chase.
    #[test]
    fn two_views_over_one_atom_recover_projected_vars() {
        let views = ViewDefs::new(vec![
            parse_query("lambda F. V6(F, N) :- Family(F, N, Ty)").unwrap(),
            parse_query("lambda F. V7(F, Ty) :- Family(F, N, Ty)").unwrap(),
        ])
        .with_dependencies(family_key());
        let q = parse_query("Q(N, Ty) :- Family(F, N, Ty)").unwrap();
        let e = enumerate_rewritings(&q, &views, RewriteOptions::default()).unwrap();
        let total = e
            .rewritings
            .iter()
            .find(|r| r.is_total())
            .unwrap_or_else(|| {
                panic!(
                    "no total rewriting in {:?}",
                    e.rewritings
                        .iter()
                        .map(|r| r.to_string())
                        .collect::<Vec<_>>()
                )
            });
        assert_eq!(total.num_views(), 2);
        let names: std::collections::BTreeSet<&str> =
            total.view_atoms().map(|v| v.view.as_str()).collect();
        assert_eq!(names, std::collections::BTreeSet::from(["V6", "V7"]));
    }

    /// Without the key declared, the projection-split rewriting is
    /// *invalid* (plain CQ semantics) and must not be emitted.
    #[test]
    fn projection_split_requires_the_key() {
        let views = ViewDefs::new(vec![
            parse_query("lambda F. V6(F, N) :- Family(F, N, Ty)").unwrap(),
            parse_query("lambda F. V7(F, Ty) :- Family(F, N, Ty)").unwrap(),
        ]);
        let q = parse_query("Q(N, Ty) :- Family(F, N, Ty)").unwrap();
        let e = enumerate_rewritings(&q, &views, RewriteOptions::default()).unwrap();
        assert!(
            e.rewritings.iter().all(|r| !r.is_total()),
            "projection-split rewriting accepted without the key: {:?}",
            e.rewritings
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
        );
    }

    /// A comparison over a projected-away variable also triggers
    /// augmentation: the variable must be re-exposed by a second view.
    #[test]
    fn comparison_variable_recovered_by_second_view() {
        let views = ViewDefs::new(vec![
            parse_query("lambda F. V6(F, N) :- Family(F, N, Ty)").unwrap(),
            parse_query("lambda F. V7(F, Ty) :- Family(F, N, Ty)").unwrap(),
        ])
        .with_dependencies(family_key());
        let q = parse_query("Q(N) :- Family(F, N, Ty), Ty > \"a\"").unwrap();
        let e = enumerate_rewritings(&q, &views, RewriteOptions::default()).unwrap();
        assert!(e.rewritings.iter().any(|r| {
            r.is_total() && r.comparisons.len() == 1 && r.view_atoms().any(|v| v.view == "V7")
        }));
    }

    /// A view that self-joins the base relation can still cover a
    /// self-join query (two cover mappings of a two-atom body).
    #[test]
    fn self_join_view_covers_self_join_query() {
        let views = ViewDefs::new(vec![parse_query(
            "lambda T. VPair(A, B, T) :- Family(A, N1, T), Family(B, N2, T)",
        )
        .unwrap()]);
        let q = parse_query("Q(A, B) :- Family(A, N1, T), Family(B, N2, T), T = \"gpcr\"").unwrap();
        let e = enumerate_rewritings(&q, &views, RewriteOptions::default()).unwrap();
        let total = e.rewritings.iter().find(|r| r.is_total());
        assert!(
            total.is_some(),
            "expected VPair rewriting in {:?}",
            e.rewritings
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
        );
        let total = total.unwrap();
        let atom = total.view_atoms().next().unwrap();
        assert_eq!(atom.view, "VPair");
        assert_eq!(atom.absorbed_params(), 1); // T = "gpcr" absorbed
    }

    /// A view over a different relation can never participate.
    #[test]
    fn irrelevant_views_ignored() {
        let views = ViewDefs::new(vec![parse_query(
            "lambda F. V2(F, Tx) :- FamilyIntro(F, Tx)",
        )
        .unwrap()]);
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        let e = enumerate_rewritings(&q, &views, RewriteOptions::default()).unwrap();
        assert_eq!(e.rewritings.len(), 1);
        assert_eq!(e.rewritings[0].num_base(), 1);
    }
}
