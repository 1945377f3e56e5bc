//! The baseline the paper's introduction describes: hard-coded
//! per-web-page citations.
//!
//! > "Currently, citations for these views are hard-coded into the
//! > web pages ... Thus, GtoPdb in fact does generate citations, but
//! > only to a subset of the possible queries against the underlying
//! > relational database, i.e. those corresponding to web-page views
//! > of the data."
//!
//! [`PageCitationStore`] materializes the citation of every
//! (view, valuation) *page* up front. It can answer exactly those
//! page lookups — general queries fall outside its coverage, which is
//! what `claim_5_*` in `tests/reproduce.rs` counts against the engine.

use crate::error::Result;
use fgc_query::evaluate;
use fgc_relation::{Database, Value};
use fgc_views::{Json, ViewRegistry};
use std::collections::HashMap;

/// Identifier of a hard-coded page: the view it renders and the
/// parameter values baked into its URL.
pub type PageKey = (String, Vec<Value>);

/// Materialized per-page citations.
#[derive(Debug, Clone, Default)]
pub struct PageCitationStore {
    pages: HashMap<PageKey, Json>,
}

impl PageCitationStore {
    /// Materialize pages for every parameterized view in the
    /// registry: one page per distinct parameter valuation occurring
    /// in the current data, plus one page for each unparameterized
    /// view. This mirrors GtoPdb generating its family pages from
    /// the database.
    pub fn materialize(db: &Database, registry: &ViewRegistry) -> Result<Self> {
        let mut pages = HashMap::new();
        for view in registry.iter() {
            let positions = view.param_positions()?;
            if positions.is_empty() {
                let citation = view.citation_for(db, &[])?;
                pages.insert((view.name.clone(), Vec::new()), citation);
                continue;
            }
            // distinct valuations present in the view extent
            let mut unparameterized = view.view.clone();
            unparameterized.params.clear();
            let extent = evaluate(db, &unparameterized)?;
            let mut seen: Vec<Vec<Value>> = Vec::new();
            for row in &extent {
                let valuation: Vec<Value> = positions.iter().map(|&p| row[p].clone()).collect();
                if !seen.contains(&valuation) {
                    seen.push(valuation);
                }
            }
            for valuation in seen {
                let citation = view.citation_for(db, &valuation)?;
                pages.insert((view.name.clone(), valuation), citation);
            }
        }
        Ok(PageCitationStore { pages })
    }

    /// Number of materialized pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The hard-coded citation of a page, if that page exists.
    pub fn cite_page(&self, view: &str, params: &[Value]) -> Option<&Json> {
        self.pages.get(&(view.to_string(), params.to_vec()))
    }

    /// Fraction of a workload answerable by page lookups. Each
    /// workload item is a page request `(view, params)`; general
    /// queries have no page representation at all and score 0 —
    /// the paper's point.
    pub fn coverage(&self, workload: &[PageKey]) -> f64 {
        if workload.is_empty() {
            return 1.0;
        }
        let hit = workload
            .iter()
            .filter(|k| self.pages.contains_key(*k))
            .count();
        hit as f64 / workload.len() as f64
    }

    /// All materialized page keys (diagnostics).
    pub fn keys(&self) -> impl Iterator<Item = &PageKey> {
        self.pages.keys()
    }
}

/// A workload item: either a page request (baseline can try)
/// or a general ad-hoc query (baseline cannot).
#[derive(Debug, Clone)]
pub enum WorkloadItem {
    /// A page request.
    Page(PageKey),
    /// A general query (only the engine can cite it).
    AdHoc(fgc_query::ConjunctiveQuery),
}

/// Baseline coverage over a mixed workload: page requests answered
/// from the store count as covered; ad-hoc queries never do.
pub fn baseline_coverage(store: &PageCitationStore, workload: &[WorkloadItem]) -> f64 {
    if workload.is_empty() {
        return 1.0;
    }
    let covered = workload
        .iter()
        .filter(|item| match item {
            WorkloadItem::Page((view, params)) => store.cite_page(view, params).is_some(),
            WorkloadItem::AdHoc(_) => false,
        })
        .count();
    covered as f64 / workload.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgc_query::parse_query;
    use fgc_relation::schema::RelationSchema;
    use fgc_relation::{tuple, DataType};
    use fgc_views::{CitationFunction, CitationView};

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
        db.create_relation(
            RelationSchema::with_names(
                "MetaData",
                &[("Type", DataType::Str), ("Value", DataType::Str)],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        db.insert_all(
            "Family",
            vec![
                tuple!["11", "Calcitonin", "gpcr"],
                tuple!["12", "Orexin", "gpcr"],
                tuple!["13", "Kinase", "enzyme"],
            ],
        )
        .unwrap();
        db.insert("MetaData", tuple!["Owner", "Tony Harmar"])
            .unwrap();
        db
    }

    fn registry() -> ViewRegistry {
        let mut reg = ViewRegistry::new();
        reg.add(CitationView::new(
            parse_query("lambda F. V1(F, N, Ty) :- Family(F, N, Ty)").unwrap(),
            parse_query("lambda F. CV1(F, N) :- Family(F, N, Ty)").unwrap(),
            CitationFunction::from_spec(vec![
                CitationFunction::scalar("ID", 0),
                CitationFunction::scalar("Name", 1),
            ]),
        ))
        .unwrap();
        reg.add(CitationView::new(
            parse_query("V3(F, N, Ty) :- Family(F, N, Ty)").unwrap(),
            parse_query("CV3(X) :- MetaData(T, X), T = \"Owner\"").unwrap(),
            CitationFunction::from_spec(vec![CitationFunction::scalar("Owner", 0)]),
        ))
        .unwrap();
        reg
    }

    #[test]
    fn materializes_one_page_per_valuation() {
        let store = PageCitationStore::materialize(&db(), &registry()).unwrap();
        // 3 families (V1) + 1 unparameterized V3 page
        assert_eq!(store.len(), 4);
        let page = store
            .cite_page("V1", &[Value::str("11")])
            .expect("family 11 page");
        assert_eq!(page.get("Name"), Some(&Json::str("Calcitonin")));
    }

    #[test]
    fn missing_page_is_none() {
        let store = PageCitationStore::materialize(&db(), &registry()).unwrap();
        assert!(store.cite_page("V1", &[Value::str("99")]).is_none());
        assert!(store.cite_page("V9", &[]).is_none());
    }

    #[test]
    fn coverage_on_page_workload_is_full() {
        let store = PageCitationStore::materialize(&db(), &registry()).unwrap();
        let workload: Vec<PageKey> = vec![
            ("V1".into(), vec![Value::str("11")]),
            ("V1".into(), vec![Value::str("12")]),
            ("V3".into(), vec![]),
        ];
        assert_eq!(store.coverage(&workload), 1.0);
    }

    #[test]
    fn ad_hoc_queries_uncovered() {
        let store = PageCitationStore::materialize(&db(), &registry()).unwrap();
        let workload = vec![
            WorkloadItem::Page(("V1".into(), vec![Value::str("11")])),
            WorkloadItem::AdHoc(parse_query("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"").unwrap()),
        ];
        assert_eq!(baseline_coverage(&store, &workload), 0.5);
    }

    #[test]
    fn page_instance_matches_view() {
        let d = db();
        let reg = registry();
        // the rows a page lookup corresponds to: the page's instance
        let rows = reg
            .get("V1")
            .unwrap()
            .instance(&d, &[Value::str("11")])
            .unwrap();
        assert_eq!(rows, vec![tuple!["11", "Calcitonin", "gpcr"]]);
    }

    #[test]
    fn empty_workload_is_trivially_covered() {
        let store = PageCitationStore::materialize(&db(), &registry()).unwrap();
        assert_eq!(store.coverage(&[]), 1.0);
        assert_eq!(baseline_coverage(&store, &[]), 1.0);
    }
}
