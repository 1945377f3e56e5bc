//! Tuples: ordered sequences of [`Value`]s.

use crate::value::Value;
use std::fmt;
use std::ops::Index;

/// A relational tuple. Cheap to clone (values are scalars or
/// reference-counted strings).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// Arity of the tuple.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Is the tuple empty (arity 0)?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at a position, if in range.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// All values, in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Project onto the given positions (positions must be in range).
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple::new(positions.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Iterate over values.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.values.iter()
    }

    /// Rough resident size in bytes (inline enum slots plus string
    /// heap payloads). String data shared across clones via `Arc` is
    /// counted at every holder — an upper bound, which is the safe
    /// direction for memory budgeting.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Tuple>()
            + self
                .values
                .iter()
                .map(|v| std::mem::size_of::<Value>() + v.heap_bytes())
                .sum::<usize>()
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.values[i]
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple::new(iter.into_iter().collect())
    }
}

impl fmt::Display for Tuple {
    /// `(v1, v2, ...)` with loader-syntax rendering so keys in error
    /// messages are unambiguous.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}", v.render())?;
        }
        f.write_str(")")
    }
}

/// Build a [`Tuple`] from a list of expressions convertible to
/// [`Value`]: `tuple!["11", "Calcitonin", "gpcr"]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn macro_builds_tuples() {
        let t = tuple!["11", 7, true];
        assert_eq!(t.arity(), 3);
        assert_eq!(t[0], Value::str("11"));
        assert_eq!(t[1], Value::Int(7));
        assert_eq!(t[2], Value::Bool(true));
    }

    #[test]
    fn project_selects_positions() {
        let t = tuple!["a", "b", "c"];
        assert_eq!(t.project(&[2, 0]), tuple!["c", "a"]);
        assert_eq!(t.project(&[]), Tuple::default());
    }

    #[test]
    fn display_uses_render() {
        let t = tuple!["gp|cr", 3];
        assert_eq!(t.to_string(), "(\"gp|cr\", 3)");
    }

    #[test]
    fn tuples_order_lexicographically() {
        assert!(tuple![1, 2] < tuple![1, 3]);
        assert!(tuple![1] < tuple![1, 0]);
    }

    #[test]
    fn from_iterator_collects() {
        let t: Tuple = (0..3).map(Value::from).collect();
        assert_eq!(t, tuple![0i64, 1i64, 2i64]);
    }
}
