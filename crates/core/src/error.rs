//! Error type for the citation engine.

use std::fmt;

/// Errors raised by the citation engine.
#[derive(Debug)]
pub enum CoreError {
    /// A view is named like a base relation: expanding an extent
    /// query tells view atoms from base atoms by name.
    ViewNameClash(String),
    /// Relational substrate error.
    Relation(fgc_relation::RelationError),
    /// Query-layer error.
    Query(fgc_query::QueryError),
    /// View-layer error.
    View(fgc_views::ViewError),
    /// Rewriting-layer error.
    Rewrite(fgc_rewrite::RewriteError),
    /// A version id or timestamp did not resolve to a snapshot.
    NoSuchVersion(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ViewNameClash(name) => write!(
                f,
                "view `{name}` collides with a base relation of the same name"
            ),
            CoreError::Relation(e) => write!(f, "{e}"),
            CoreError::Query(e) => write!(f, "{e}"),
            CoreError::View(e) => write!(f, "{e}"),
            CoreError::Rewrite(e) => write!(f, "{e}"),
            CoreError::NoSuchVersion(what) => write!(f, "no such version: {what}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Relation(e) => Some(e),
            CoreError::Query(e) => Some(e),
            CoreError::View(e) => Some(e),
            CoreError::Rewrite(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fgc_relation::RelationError> for CoreError {
    fn from(e: fgc_relation::RelationError) -> Self {
        CoreError::Relation(e)
    }
}

impl From<fgc_query::QueryError> for CoreError {
    fn from(e: fgc_query::QueryError) -> Self {
        CoreError::Query(e)
    }
}

impl From<fgc_views::ViewError> for CoreError {
    fn from(e: fgc_views::ViewError) -> Self {
        CoreError::View(e)
    }
}

impl From<fgc_rewrite::RewriteError> for CoreError {
    fn from(e: fgc_rewrite::RewriteError) -> Self {
        CoreError::Rewrite(e)
    }
}

/// Result alias for the crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = fgc_relation::RelationError::UnknownRelation("R".into()).into();
        assert!(e.to_string().contains('R'));
        assert!(std::error::Error::source(&e).is_some());
        let clash = CoreError::ViewNameClash("Family".into());
        assert!(clash.to_string().contains("Family"));
    }
}
