//! The set of citation views declared by a database owner.
//!
//! "Database owners specify a set of citation views, from which the
//! citation for a general query over the database will be
//! constructed" (§2.2).

use crate::view::{CitationView, Result, ViewError};
use fgc_relation::Catalog;
use std::collections::HashMap;
use std::sync::Arc;

/// An ordered, name-indexed collection of citation views.
#[derive(Debug, Clone, Default)]
pub struct ViewRegistry {
    views: Vec<Arc<CitationView>>,
    by_name: HashMap<String, usize>,
}

impl ViewRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ViewRegistry::default()
    }

    /// Add a view. Duplicate names are rejected.
    pub fn add(&mut self, view: CitationView) -> Result<()> {
        if self.by_name.contains_key(&view.name) {
            return Err(ViewError::Query(fgc_query::QueryError::Relation(
                fgc_relation::RelationError::DuplicateRelation(view.name.clone()),
            )));
        }
        self.by_name.insert(view.name.clone(), self.views.len());
        self.views.push(Arc::new(view));
        Ok(())
    }

    /// Look up a view by name.
    pub fn get(&self, name: &str) -> Option<&Arc<CitationView>> {
        self.by_name.get(name).map(|&i| &self.views[i])
    }

    /// All views in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<CitationView>> {
        self.views.iter()
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Validate every view against the catalog.
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        for v in &self.views {
            v.validate(catalog)?;
        }
        Ok(())
    }
}

impl FromIterator<CitationView> for ViewRegistry {
    fn from_iter<T: IntoIterator<Item = CitationView>>(iter: T) -> Self {
        let mut reg = ViewRegistry::new();
        for v in iter {
            reg.add(v).expect("duplicate view name in FromIterator");
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::CitationFunction;
    use fgc_query::parse_query;
    use fgc_relation::schema::RelationSchema;
    use fgc_relation::{tuple, DataType, Database};

    fn db() -> Database {
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
        db.insert("Family", tuple!["11", "Calcitonin", "gpcr"])
            .unwrap();
        db
    }

    fn view(name: &str) -> CitationView {
        CitationView::new(
            parse_query(&format!("lambda F. {name}(F, N, Ty) :- Family(F, N, Ty)")).unwrap(),
            parse_query(&format!("lambda F. C{name}(F, N) :- Family(F, N, Ty)")).unwrap(),
            CitationFunction::from_spec(vec![CitationFunction::scalar("ID", 0)]),
        )
    }

    #[test]
    fn add_get_iter() {
        let mut reg = ViewRegistry::new();
        reg.add(view("V1")).unwrap();
        reg.add(view("V2")).unwrap();
        assert_eq!(reg.len(), 2);
        assert!(reg.get("V1").is_some());
        assert!(reg.get("V9").is_none());
        let names: Vec<_> = reg.iter().map(|v| v.name.clone()).collect();
        assert_eq!(names, vec!["V1", "V2"]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut reg = ViewRegistry::new();
        reg.add(view("V1")).unwrap();
        assert!(reg.add(view("V1")).is_err());
    }

    #[test]
    fn validate_all() {
        let db = db();
        let reg: ViewRegistry = [view("V1"), view("V2")].into_iter().collect();
        reg.validate(db.catalog()).unwrap();
    }
}
