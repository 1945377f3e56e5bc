//! The preference model over rewritings (§2.3) and the pruned search
//! the paper hopes for in §3.4:
//!
//! > "With such an order relation in place, there is hope for
//! > generating a citation for a query output which avoids an
//! > exhaustive materialization of all rewritings."
//!
//! [`score`] encodes §2.3's criteria lexicographically: total before
//! partial, fewer uncovered terms, fewer views. [`best_rewritings`]
//! implements the pruned search as iterative deepening on the number
//! of views — when a 1-view total rewriting exists (the common case
//! the owner designed the views for) the exponential tail is never
//! explored. `claim_1_*` in `tests/reproduce.rs` counts both.

use crate::enumerate::{enumerate_rewritings, Enumeration, RewriteOptions};
use crate::error::Result;
use crate::rewriting::{Rewriting, ViewDefs};
use fgc_query::ast::ConjunctiveQuery;
use fgc_query::is_contained_in;
use std::collections::BTreeMap;

/// A preference score, compared lexicographically: smaller is better.
/// `(partial?, uncovered terms, number of views)` — §2.3's two
/// bullets plus the total/partial distinction.
pub fn score(r: &Rewriting) -> (bool, usize, usize) {
    (!r.is_total(), r.num_uncovered(), r.num_views())
}

/// Sort rewritings best-first (stable: discovery order on ties).
pub fn rank(mut rewritings: Vec<Rewriting>) -> Vec<Rewriting> {
    rewritings.sort_by_key(score);
    rewritings
}

/// Iterative-deepening search for the best rewritings without
/// exhausting the combination space:
///
/// 1. for `k = 1, 2, ...` up to `options.max_views`, enumerate
///    *total* rewritings with at most `k` views; if any are valid,
///    return them ranked — deeper levels can only add rewritings with
///    more views, which the preference orders below the ones found;
/// 2. if no total rewriting exists at any depth, fall back to partial
///    rewritings (which the preference ranks below all totals).
///
/// The score-optimal rewriting returned is identical to ranking the
/// full enumeration (property-tested), but the search stops at the
/// shallowest successful depth.
pub fn best_rewritings(
    query: &ConjunctiveQuery,
    views: &ViewDefs,
    options: RewriteOptions,
) -> Result<Enumeration> {
    let mut combinations = 0usize;
    for k in 1..=options.max_views {
        let attempt = enumerate_rewritings(
            query,
            views,
            RewriteOptions {
                max_views: k,
                include_partial: false,
                ..options
            },
        )?;
        combinations += attempt.combinations_tried;
        if attempt.unsatisfiable {
            return Ok(attempt);
        }
        if !attempt.rewritings.is_empty() {
            let ranked = rank(attempt.rewritings);
            // `uncovered` dominates `views` in the preference score, so
            // deepen once more only while the optimum still has
            // uncovered terms (a larger cover might eliminate them).
            if ranked[0].num_uncovered() == 0 || k == options.max_views {
                return Ok(Enumeration {
                    rewritings: ranked,
                    combinations_tried: combinations,
                    ..attempt
                });
            }
            let deeper = enumerate_rewritings(
                query,
                views,
                RewriteOptions {
                    include_partial: false,
                    ..options
                },
            )?;
            combinations += deeper.combinations_tried;
            return Ok(Enumeration {
                rewritings: rank(deeper.rewritings),
                combinations_tried: combinations,
                ..deeper
            });
        }
    }
    let fallback = enumerate_rewritings(query, views, options)?;
    Ok(Enumeration {
        rewritings: rank(fallback.rewritings),
        ..fallback
    })
}

/// The view-inclusion preorder of Example 3.8: `leq(a, b)` iff view
/// `b` is included in view `a` (`b ⊑ a`), i.e. the citation stemming
/// from the *more general* view `a` is less preferable than the one
/// from the best-fit view `b`. Parameters are ignored (inclusion is
/// judged on the unparameterized extents).
pub fn view_inclusion_matrix(views: &ViewDefs) -> BTreeMap<(String, String), bool> {
    let defs: Vec<&ConjunctiveQuery> = views.iter().collect();
    let mut out = BTreeMap::new();
    for a in &defs {
        for b in &defs {
            // Compare definitions head-to-head only when arities
            // match; otherwise incomparable.
            let included = a.head.len() == b.head.len() && {
                let mut ua = (*a).clone();
                ua.params.clear();
                let mut ub = (*b).clone();
                ub.params.clear();
                is_contained_in(&ub, &ua)
            };
            out.insert((a.name.clone(), b.name.clone()), included);
        }
    }
    out
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

    /// "Overall, we might prefer Q4 to the other rewritings because:
    /// (i) it is a total rewriting; (ii) it uses the smallest number
    /// of views; and (iii) the comparison predicate of the query is
    /// matched by the lambda term of the view."
    #[test]
    fn example_2_3_preference_picks_q4() {
        let q =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        let best = best_rewritings(&q, &paper_views(), RewriteOptions::default()).unwrap();
        let top = &best.rewritings[0];
        assert!(top.is_total());
        assert_eq!(top.num_views(), 1);
        assert!(top.view_atoms().any(|v| v.view == "V5"));
        assert_eq!(top.num_uncovered(), 0);
    }

    #[test]
    fn pruned_matches_exhaustive_optimum() {
        let q = parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\", FamilyIntro(F, Tx)").unwrap();
        let exhaustive =
            enumerate_rewritings(&q, &paper_views(), RewriteOptions::default()).unwrap();
        let full_ranked = rank(exhaustive.rewritings);
        let pruned = best_rewritings(&q, &paper_views(), RewriteOptions::default()).unwrap();
        assert_eq!(
            score(&full_ranked[0]),
            score(&pruned.rewritings[0]),
            "pruned optimum must match exhaustive optimum"
        );
    }

    #[test]
    fn pruned_is_cheaper_when_single_view_suffices() {
        let q =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        let exhaustive =
            enumerate_rewritings(&q, &paper_views(), RewriteOptions::default()).unwrap();
        let pruned = best_rewritings(&q, &paper_views(), RewriteOptions::default()).unwrap();
        assert!(
            pruned.combinations_tried < exhaustive.combinations_tried,
            "pruned {} vs exhaustive {}",
            pruned.combinations_tried,
            exhaustive.combinations_tried
        );
    }

    #[test]
    fn fallback_to_partial_when_no_total_exists() {
        // only V2 available: Family must stay a base atom
        let views = ViewDefs::new(vec![parse_query(
            "lambda F. V2(F, Tx) :- FamilyIntro(F, Tx)",
        )
        .unwrap()]);
        let q = parse_query("Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx)").unwrap();
        let best = best_rewritings(&q, &views, RewriteOptions::default()).unwrap();
        assert!(!best.rewritings.is_empty());
        assert!(!best.rewritings[0].is_total());
        assert!(best.rewritings[0].view_atoms().any(|v| v.view == "V2"));
    }

    #[test]
    fn rank_orders_by_score() {
        let q =
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"").unwrap();
        let e = enumerate_rewritings(&q, &paper_views(), RewriteOptions::default()).unwrap();
        let ranked = rank(e.rewritings);
        for pair in ranked.windows(2) {
            assert!(score(&pair[0]) <= score(&pair[1]));
        }
    }

    #[test]
    fn inclusion_matrix_v1_v3() {
        // V1 and V3 have the same definition body (modulo λ): each is
        // included in the other.
        let m = view_inclusion_matrix(&paper_views());
        assert!(m[&("V1".to_string(), "V3".to_string())]);
        assert!(m[&("V3".to_string(), "V1".to_string())]);
        // V5 (join) vs V1: different arities — incomparable
        assert!(!m[&("V1".to_string(), "V5".to_string())]);
        assert!(!m[&("V5".to_string(), "V1".to_string())]);
    }

    #[test]
    fn inclusion_matrix_with_selection() {
        let views = ViewDefs::new(vec![
            parse_query("Va(F, N, Ty) :- Family(F, N, Ty)").unwrap(),
            parse_query("Vb(F, N, Ty) :- Family(F, N, Ty), Ty = \"gpcr\"").unwrap(),
        ]);
        let m = view_inclusion_matrix(&views);
        // Vb ⊑ Va
        assert!(m[&("Va".to_string(), "Vb".to_string())]);
        assert!(!m[&("Vb".to_string(), "Va".to_string())]);
    }
}
