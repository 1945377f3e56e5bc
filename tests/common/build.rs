//! Defs. 3.1–3.3 by definition: the reference the engine's symbolic
//! build is compared with.
//!
//! > "the citation for t is ... Σ_{B ∈ β_t} F_{V1}(C_{V1}(B1)) · ... ·
//! > F_{Vn}(C_{Vn}(Bn))", summed over "the set of all bindings for Q'
//! > that yield a tuple t", and combined across rewritings with `+R`.
//!
//! Per rewriting this evaluates the expansion to *all* its bindings,
//! grouped per answer tuple, resolves each view subgoal's λ-parameter
//! terms under each binding by name, multiplies the tokens into one
//! monomial per binding, sums the monomials, squashes the coefficients
//! (the idempotent `+`) and combines the rewritings with `+R` — one
//! binding, one `times`, one `plus` at a time: slow and literal on
//! purpose.

use fgcite::engine::CiteToken;
use fgcite::prelude::*;
use fgcite::query::{evaluate_grouped, Binding, Term};
use fgcite::rewrite::{Rewriting, Subgoal, ViewDefs};
use fgcite::semiring::{CitationExpr, CommutativeSemiring, Monomial, Polynomial};
use std::collections::HashMap;

/// Per output tuple, the `+R` of every rewriting's citation
/// polynomial, before normalization (§3.4).
pub type Citations = HashMap<Tuple, CitationExpr<String, CiteToken>>;

/// Resolve a term under a binding to a concrete value.
fn resolve(binding: &Binding, t: &Term) -> Value {
    match t {
        Term::Const(v) => v.clone(),
        Term::Var(v) => binding.get(v.as_str()).cloned().unwrap_or(Value::Null),
    }
}

/// The symbolic citation of every output tuple of `db` under the
/// labelled `rewritings`, by definition.
pub fn citations_by_definition(
    db: &Database,
    views: &ViewDefs,
    rewritings: &[(String, Rewriting)],
) -> Citations {
    let mut exprs: Citations = HashMap::new();
    for (label, rewriting) in rewritings {
        let expansion = rewriting.expand(views).expect("a rewriting expands");
        let grouped = evaluate_grouped(db, &expansion).expect("an expansion evaluates");
        for (tuple, bindings) in grouped {
            let mut poly: Polynomial<CiteToken> = Polynomial::zero();
            for binding in &bindings {
                let mut monomial = Monomial::unit();
                for sub in &rewriting.subgoals {
                    let token = match sub {
                        Subgoal::View(v) => {
                            let valuation: Vec<Value> = v
                                .param_terms()
                                .iter()
                                .map(|t| resolve(binding, t))
                                .collect();
                            CiteToken::view(v.view.clone(), valuation)
                        }
                        Subgoal::Base(a) => CiteToken::base(a.relation.clone()),
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
