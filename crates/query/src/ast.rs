//! Abstract syntax of (parameterized) conjunctive queries.
//!
//! Definition 2.1 of the paper writes view definitions as
//! `λX. V(Y) :- Q` where `Q` is a conjunction of atoms, `X ⊆ Y` are
//! the *parameters*, and comparison predicates may appear in the body
//! (the paper's rewriting definition, Def. 2.2, explicitly allows
//! "comparison predicates" as subgoals).

use crate::error::{QueryError, Result};
use fgc_relation::Value;
use std::collections::BTreeSet;
use std::fmt;

/// A term: variable or constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A variable, identified by name.
    Var(String),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// Shorthand variable constructor.
    pub fn var(name: impl Into<String>) -> Self {
        Term::Var(name.into())
    }

    /// Shorthand constant constructor.
    pub fn val(v: impl Into<Value>) -> Self {
        Term::Const(v.into())
    }

    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// The constant value, if this is a constant.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Term::Var(_) => None,
            Term::Const(c) => Some(c),
        }
    }

    /// Is this term a variable?
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => f.write_str(v),
            Term::Const(c) => write!(f, "{}", c.render()),
        }
    }
}

/// A relational atom `R(t1, ..., tn)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom {
    /// Relation name.
    pub relation: String,
    /// Argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Build an atom.
    pub fn new(relation: impl Into<String>, terms: Vec<Term>) -> Self {
        Atom {
            relation: relation.into(),
            terms,
        }
    }

    /// Variables occurring in the atom, in order of first occurrence.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.terms.iter().filter_map(Term::as_var)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        f.write_str(")")
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CompOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompOp {
    /// Evaluate the operator on two values.
    pub fn eval(self, l: &Value, r: &Value) -> bool {
        match self {
            CompOp::Eq => l == r,
            CompOp::Ne => l != r,
            CompOp::Lt => l < r,
            CompOp::Le => l <= r,
            CompOp::Gt => l > r,
            CompOp::Ge => l >= r,
        }
    }

    /// The operator with sides swapped (`a op b` ⇔ `b op.flip() a`).
    pub fn flip(self) -> CompOp {
        match self {
            CompOp::Eq => CompOp::Eq,
            CompOp::Ne => CompOp::Ne,
            CompOp::Lt => CompOp::Gt,
            CompOp::Le => CompOp::Ge,
            CompOp::Gt => CompOp::Lt,
            CompOp::Ge => CompOp::Le,
        }
    }
}

impl fmt::Display for CompOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompOp::Eq => "=",
            CompOp::Ne => "!=",
            CompOp::Lt => "<",
            CompOp::Le => "<=",
            CompOp::Gt => ">",
            CompOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A comparison predicate `t1 op t2`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Comparison {
    /// Left term.
    pub left: Term,
    /// Operator.
    pub op: CompOp,
    /// Right term.
    pub right: Term,
}

impl Comparison {
    /// Build a comparison.
    pub fn new(left: Term, op: CompOp, right: Term) -> Self {
        Comparison { left, op, right }
    }

    /// Normalize so that a constant (if any) is on the right and,
    /// for two variables, the lexicographically smaller is on the
    /// left. Makes syntactic comparison of predicates robust.
    pub fn normalized(&self) -> Comparison {
        match (&self.left, &self.right) {
            (Term::Const(_), Term::Var(_)) => Comparison {
                left: self.right.clone(),
                op: self.op.flip(),
                right: self.left.clone(),
            },
            (Term::Var(a), Term::Var(b)) if b < a => Comparison {
                left: self.right.clone(),
                op: self.op.flip(),
                right: self.left.clone(),
            },
            _ => self.clone(),
        }
    }

    /// Variables occurring in the comparison.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        [&self.left, &self.right]
            .into_iter()
            .filter_map(Term::as_var)
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.right)
    }
}

/// A (possibly parameterized) conjunctive query
/// `λ x1,...,xn. H(y1,...,ym) :- A1, ..., Ak, C1, ..., Cl`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConjunctiveQuery {
    /// Head predicate name (`V1`, `Q`, ...).
    pub name: String,
    /// λ-parameters (possibly empty). Per Def. 2.1, `X ⊆ Y`:
    /// validated by [`crate::safety::check_safety`].
    pub params: Vec<String>,
    /// Head terms (variables or constants).
    pub head: Vec<Term>,
    /// Relational atoms.
    pub atoms: Vec<Atom>,
    /// Comparison predicates.
    pub comparisons: Vec<Comparison>,
}

impl ConjunctiveQuery {
    /// A query with no parameters and no comparisons.
    pub fn new(name: impl Into<String>, head: Vec<Term>, atoms: Vec<Atom>) -> Self {
        ConjunctiveQuery {
            name: name.into(),
            params: Vec::new(),
            head,
            atoms,
            comparisons: Vec::new(),
        }
    }

    /// Add comparisons (builder style).
    pub fn with_comparisons(mut self, comparisons: Vec<Comparison>) -> Self {
        self.comparisons = comparisons;
        self
    }

    /// Is the query parameterized (has a λ-term)?
    pub fn is_parameterized(&self) -> bool {
        !self.params.is_empty()
    }

    /// All variables occurring anywhere (body, comparisons, head),
    /// sorted.
    pub fn all_vars(&self) -> BTreeSet<&str> {
        let mut out: BTreeSet<&str> = BTreeSet::new();
        for a in &self.atoms {
            out.extend(a.vars());
        }
        for c in &self.comparisons {
            out.extend(c.vars());
        }
        out.extend(self.head.iter().filter_map(Term::as_var));
        out.extend(self.params.iter().map(String::as_str));
        out
    }

    /// Variables occurring in relational atoms.
    pub fn body_vars(&self) -> BTreeSet<&str> {
        self.atoms.iter().flat_map(Atom::vars).collect()
    }

    /// Arity of the head.
    pub fn arity(&self) -> usize {
        self.head.len()
    }

    /// Bind the λ-parameters to values, producing an unparameterized
    /// query: each parameter variable is replaced by its value
    /// everywhere (head, atoms, comparisons).
    ///
    /// This realizes the paper's *view instantiation*
    /// `V(Y)(a1,...,an)`.
    pub fn instantiate(&self, args: &[Value]) -> Result<ConjunctiveQuery> {
        if args.len() != self.params.len() {
            return Err(QueryError::ParameterMismatch {
                query: self.name.clone(),
                expected: self.params.len(),
                actual: args.len(),
            });
        }
        let subst: crate::subst::Substitution = self
            .params
            .iter()
            .zip(args)
            .map(|(p, v)| (p.clone(), Term::Const(v.clone())))
            .collect();
        let mut out = crate::subst::apply_query(&subst, self);
        out.params.clear();
        Ok(out)
    }

    /// Rename every variable with a suffix, producing a query that
    /// shares no variables with the original (for expansions).
    pub fn freshen(&self, suffix: &str) -> ConjunctiveQuery {
        let subst: crate::subst::Substitution = self
            .all_vars()
            .into_iter()
            .map(|v| (v.to_string(), Term::Var(format!("{v}{suffix}"))))
            .collect();
        let mut renamed = crate::subst::apply_query(&subst, self);
        renamed.params = self.params.iter().map(|p| format!("{p}{suffix}")).collect();
        renamed
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.params.is_empty() {
            write!(f, "lambda {}. ", self.params.join(", "))?;
        }
        write!(f, "{}(", self.name)?;
        for (i, t) in self.head.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        f.write_str(") :- ")?;
        let mut first = true;
        for a in &self.atoms {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "{a}")?;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn v1() -> ConjunctiveQuery {
        // lambda F. V1(F, N, Ty) :- Family(F, N, Ty)
        ConjunctiveQuery {
            params: vec!["F".into()],
            ..ConjunctiveQuery::new(
                "V1",
                vec![Term::var("F"), Term::var("N"), Term::var("Ty")],
                vec![Atom::new(
                    "Family",
                    vec![Term::var("F"), Term::var("N"), Term::var("Ty")],
                )],
            )
        }
    }

    #[test]
    fn display_matches_paper_style() {
        assert_eq!(
            v1().to_string(),
            "lambda F. V1(F, N, Ty) :- Family(F, N, Ty)"
        );
    }

    #[test]
    fn display_with_comparison() {
        let q = ConjunctiveQuery::new(
            "Q",
            vec![Term::var("N")],
            vec![Atom::new(
                "Family",
                vec![Term::var("F"), Term::var("N"), Term::var("Ty")],
            )],
        )
        .with_comparisons(vec![Comparison::new(
            Term::var("Ty"),
            CompOp::Eq,
            Term::val("gpcr"),
        )]);
        assert_eq!(q.to_string(), "Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"");
    }

    #[test]
    fn instantiate_binds_parameters() {
        let inst = v1().instantiate(&[Value::str("11")]).unwrap();
        assert!(inst.params.is_empty());
        assert_eq!(inst.head[0], Term::val("11"));
        assert_eq!(inst.atoms[0].terms[0], Term::val("11"));
    }

    #[test]
    fn instantiate_checks_arity() {
        let err = v1().instantiate(&[]).unwrap_err();
        assert!(matches!(err, QueryError::ParameterMismatch { .. }));
    }

    #[test]
    fn freshen_renames_everything() {
        let fresh = v1().freshen("_1");
        assert_eq!(fresh.params, vec!["F_1"]);
        assert_eq!(fresh.atoms[0].terms[0], Term::var("F_1"));
        let original_vars = v1().all_vars().len();
        assert_eq!(fresh.all_vars().len(), original_vars);
        assert!(fresh.all_vars().iter().all(|v| v.ends_with("_1")));
    }

    #[test]
    fn normalized_comparison_puts_constant_right() {
        let c = Comparison::new(Term::val("gpcr"), CompOp::Eq, Term::var("Ty"));
        let n = c.normalized();
        assert_eq!(n.left, Term::var("Ty"));
        assert_eq!(n.right, Term::val("gpcr"));
    }

    #[test]
    fn normalized_orders_variables() {
        let c = Comparison::new(Term::var("Z"), CompOp::Lt, Term::var("A"));
        let n = c.normalized();
        assert_eq!(n.left, Term::var("A"));
        assert_eq!(n.op, CompOp::Gt);
        assert_eq!(n.right, Term::var("Z"));
    }

    #[test]
    fn comp_op_eval_and_flip() {
        use fgc_relation::Value;
        assert!(CompOp::Lt.eval(&Value::Int(1), &Value::Int(2)));
        assert!(!CompOp::Ge.eval(&Value::Int(1), &Value::Int(2)));
        for op in [
            CompOp::Eq,
            CompOp::Ne,
            CompOp::Lt,
            CompOp::Le,
            CompOp::Gt,
            CompOp::Ge,
        ] {
            // a op b == b flip(op) a on samples
            let a = Value::Int(3);
            let b = Value::Int(5);
            assert_eq!(op.eval(&a, &b), op.flip().eval(&b, &a));
        }
    }

    #[test]
    fn all_vars_includes_head_only_vars() {
        // unsafe query, but all_vars must still report X
        let q = ConjunctiveQuery::new("Q", vec![Term::var("X")], vec![]);
        assert!(q.all_vars().contains("X"));
    }
}
