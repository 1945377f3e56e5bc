//! The oracle: every derivation of a query, straight from the
//! definition.
//!
//! A *derivation* picks one row of its relation for every atom such
//! that constants match, a variable takes one value everywhere it
//! occurs, and every comparison holds. Relations are sets, so a
//! derivation is exactly one binding. Definition 3.2 sums a citation
//! over the bindings that yield a tuple, and §3.1's annotated answer
//! sums, over the same derivations, the product of the matched rows'
//! annotations — so answers, grouped bindings and annotated
//! polynomials are all folds of the one list [`reference_derivations`]
//! returns.
//!
//! It is computed by brute force: atoms in the order the query text
//! gives them, every relation scanned in full, no index, no join
//! order, no [`QueryPlan`](crate::QueryPlan). Nothing is shared with
//! [`crate::eval`] or [`crate::plan`] but the [`Binding`] type and the
//! safety/catalog checks, so an index, routing or join-order bug in
//! the executor cannot hide in the oracle. It costs a product of
//! relation sizes (pruned only by repeated variables and constants)
//! and exists purely for differential tests.

use crate::ast::{Atom, CompOp, ConjunctiveQuery, Term};
use crate::error::Result;
use crate::eval::Binding;
use crate::safety::{check_against_catalog, check_safety};
use fgc_relation::{Database, Relation, Tuple, Value};
use std::collections::hash_map::Entry;

/// One derivation of a query: the head tuple it yields, the binding,
/// and the row each atom matched.
#[derive(Debug, Clone, PartialEq)]
pub struct Derivation<'q> {
    /// The head tuple under [`Self::binding`].
    pub head: Tuple,
    /// A value for every variable of the query, including those bound
    /// only through equality comparisons.
    pub binding: Binding,
    /// Per atom, in query order: its relation and the position of the
    /// row it matched (the row id annotated evaluation is handed).
    pub rows: Vec<(&'q str, usize)>,
}

/// Every derivation of `q` over `db`, atom 0's row varying slowest.
/// Errors are the evaluator's: an unsafe query, then an unknown
/// relation or a wrong arity.
pub fn reference_derivations<'q>(
    db: &Database,
    q: &'q ConjunctiveQuery,
) -> Result<Vec<Derivation<'q>>> {
    check_safety(q)?;
    check_against_catalog(q, db.catalog())?;
    let relations = q
        .atoms
        .iter()
        .map(|a| db.relation(&a.relation))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let mut out = Vec::new();
    extend(q, &relations, &Binding::new(), &mut Vec::new(), &mut out);
    Ok(out)
}

/// Match atom `rows.len()` against every row of its relation, then
/// recurse; past the last atom, finish the derivation.
fn extend<'q>(
    q: &'q ConjunctiveQuery,
    relations: &[&Relation],
    binding: &Binding,
    rows: &mut Vec<(&'q str, usize)>,
    out: &mut Vec<Derivation<'q>>,
) {
    let Some(atom) = q.atoms.get(rows.len()) else {
        out.extend(finish(q, binding.clone(), rows.clone()));
        return;
    };
    for (position, row) in relations[rows.len()].iter().enumerate() {
        if let Some(next) = matched(atom, row, binding) {
            rows.push((atom.relation.as_str(), position));
            extend(q, relations, &next, rows, out);
            rows.pop();
        }
    }
}

/// `binding` extended by `atom` matching `row`, or `None` when a
/// constant or an already-bound variable disagrees with the row.
fn matched(atom: &Atom, row: &Tuple, binding: &Binding) -> Option<Binding> {
    let mut next = binding.clone();
    for (term, value) in atom.terms.iter().zip(row.iter()) {
        match term {
            Term::Const(c) if c != value => return None,
            Term::Const(_) => {}
            Term::Var(v) => match next.entry(v.clone()) {
                Entry::Occupied(e) if e.get() != value => return None,
                Entry::Occupied(_) => {}
                Entry::Vacant(e) => {
                    e.insert(value.clone());
                }
            },
        }
    }
    Some(next)
}

/// Bind the variables no atom binds through the equality comparisons
/// (safety guarantees a chain reaches each one), check every
/// comparison, and project the head.
fn finish<'q>(
    q: &ConjunctiveQuery,
    mut binding: Binding,
    rows: Vec<(&'q str, usize)>,
) -> Option<Derivation<'q>> {
    loop {
        let bound = binding.len();
        for c in q.comparisons.iter().filter(|c| c.op == CompOp::Eq) {
            for (unbound, other) in [(&c.left, &c.right), (&c.right, &c.left)] {
                if let (Term::Var(v), Some(value)) = (unbound, value_of(&binding, other)) {
                    binding.entry(v.clone()).or_insert(value);
                }
            }
        }
        if binding.len() == bound {
            break;
        }
    }
    for c in &q.comparisons {
        let (left, right) = (value_of(&binding, &c.left)?, value_of(&binding, &c.right)?);
        if !c.op.eval(&left, &right) {
            return None;
        }
    }
    let head = q
        .head
        .iter()
        .map(|t| value_of(&binding, t))
        .collect::<Option<Tuple>>()?;
    Some(Derivation {
        head,
        binding,
        rows,
    })
}

fn value_of(binding: &Binding, term: &Term) -> Option<Value> {
    match term {
        Term::Const(v) => Some(v.clone()),
        Term::Var(v) => binding.get(v).cloned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use fgc_relation::schema::RelationSchema;
    use fgc_relation::{tuple, DataType};
    use std::collections::BTreeSet;

    fn tiny_db() -> Database {
        let mut db = Database::new();
        db.create_relation(
            RelationSchema::with_names("R", &[("a", DataType::Str), ("b", DataType::Str)], &[])
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::with_names("S", &[("b", DataType::Str), ("c", DataType::Str)], &[])
                .unwrap(),
        )
        .unwrap();
        db.insert_all(
            "R",
            vec![tuple!["1", "x"], tuple!["2", "y"], tuple!["3", "x"]],
        )
        .unwrap();
        db.insert_all("S", vec![tuple!["x", "u"], tuple!["y", "v"]])
            .unwrap();
        db
    }

    /// The distinct answers the oracle derives, sorted.
    fn answers(db: &Database, src: &str) -> Vec<Tuple> {
        let q = parse_query(src).unwrap();
        let heads: BTreeSet<Tuple> = reference_derivations(db, &q)
            .unwrap()
            .into_iter()
            .map(|d| d.head)
            .collect();
        heads.into_iter().collect()
    }

    /// The oracle agrees with the compiled evaluator's answer set.
    fn diff(db: &Database, src: &str) {
        let mut fast = crate::eval::evaluate(db, &parse_query(src).unwrap()).unwrap();
        fast.sort();
        assert_eq!(fast, answers(db, src), "divergence on {src}");
    }

    #[test]
    fn agrees_on_scan() {
        diff(&tiny_db(), "Q(A, B) :- R(A, B)");
    }

    #[test]
    fn agrees_on_join() {
        diff(&tiny_db(), "Q(A, C) :- R(A, B), S(B, C)");
    }

    #[test]
    fn agrees_on_selection() {
        diff(&tiny_db(), "Q(A) :- R(A, B), B = \"x\"");
        diff(&tiny_db(), "Q(A) :- R(A, \"x\")");
    }

    #[test]
    fn agrees_on_inequalities() {
        diff(&tiny_db(), "Q(A) :- R(A, B), A != \"2\"");
        diff(&tiny_db(), "Q(A, A2) :- R(A, B), R(A2, B), A < A2");
    }

    #[test]
    fn agrees_on_self_join() {
        diff(&tiny_db(), "Q(A, A2) :- R(A, B), R(A2, B)");
    }

    #[test]
    fn agrees_on_empty_result() {
        diff(&tiny_db(), "Q(A) :- R(A, B), B = \"zzz\"");
    }

    #[test]
    fn agrees_on_constant_head() {
        diff(&tiny_db(), "Q(A, B) :- R(A, C), B = \"k\"");
    }

    #[test]
    fn rejects_unsafe_queries_too() {
        let q = parse_query("Q(X) :- R(A, B)").unwrap();
        assert!(reference_derivations(&tiny_db(), &q).is_err());
    }

    #[test]
    fn one_derivation_per_binding_with_its_rows() {
        // R(1,x) and R(3,x) both join S(x,u): two derivations of one
        // tuple, each naming the rows it matched
        let q = parse_query("Q(C) :- R(A, B), S(B, C), C = \"u\"").unwrap();
        let derivations = reference_derivations(&tiny_db(), &q).unwrap();
        let rows: Vec<_> = derivations.iter().map(|d| d.rows.clone()).collect();
        assert_eq!(rows, [[("R", 0), ("S", 0)], [("R", 2), ("S", 0)]]);
        assert!(derivations.iter().all(|d| d.head == tuple!["u"]));
        assert_eq!(derivations[1].binding["A"], Value::str("3"));
    }

    #[test]
    fn equality_chains_bind_variables_no_atom_binds() {
        let q = parse_query("Q(X) :- R(Y, B), X = Z, Z = Y, B = \"y\"").unwrap();
        let derivations = reference_derivations(&tiny_db(), &q).unwrap();
        assert_eq!(derivations.len(), 1);
        assert_eq!(derivations[0].head, tuple!["2"]);
        assert_eq!(derivations[0].binding["Z"], Value::str("2"));
    }
}
