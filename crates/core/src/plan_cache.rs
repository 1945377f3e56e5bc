//! The engine's compiled-plan cache.
//!
//! [`fgc_query::QueryPlan`] compilation re-runs the safety check,
//! the catalog check, and the greedy join ordering — work that is a
//! pure function of the query once the database is fixed. Serving
//! workloads repeat queries (landing pages, dashboards, retries) and
//! every `cite` call additionally evaluates one extent query per
//! rewriting, so an engine that caches plans skips
//! parse-order-validate entirely on the warm path. The table itself
//! (sharding, bounding, counters) is [`ClockCache`]'s.
//!
//! **Key invariant:** plans are keyed by the [`ConjunctiveQuery`]
//! alone. That is sound inside one engine because every database a
//! plan can be compiled against here (base store, extent store)
//! presents identical sizes for the relations they share, and
//! relations exclusive to one store (view extents)
//! can only appear in queries that compile against that store — so a
//! query never has two distinct valid plans. Engines over different
//! snapshots ([`crate::fixity`]) each own their cache and start it
//! empty: the greedy order and probe choices depend on relation
//! sizes.

use crate::cache::{CacheStats, ClockCache};
use fgc_query::{ConjunctiveQuery, QueryPlan};
use std::sync::Arc;

/// Default per-shard plan capacity (total default capacity is
/// `SHARDS * DEFAULT_SHARD_CAPACITY` plans). Plans are small (a few
/// hundred bytes), but distinct queries are far fewer than distinct
/// citation tokens, so the default is modest.
pub const DEFAULT_SHARD_CAPACITY: usize = 512;

/// Plan-cache counters are the one cache stats struct.
pub type PlanCacheStats = CacheStats;

/// The plan cache: compiled plans by query, `Arc`-shared with every
/// evaluation in flight.
pub type PlanCache = ClockCache<ConjunctiveQuery, Arc<QueryPlan>>;

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::with_shard_capacity(DEFAULT_SHARD_CAPACITY)
    }
}

impl PlanCache {
    /// Fetch the plan for `q`, compiling on miss. Compilation errors
    /// are returned and never cached, so invalid queries keep
    /// reporting their error.
    pub fn get_or_compile(
        &self,
        q: &ConjunctiveQuery,
        compile: impl FnOnce() -> fgc_query::Result<QueryPlan>,
    ) -> fgc_query::Result<Arc<QueryPlan>> {
        self.get_or_compute(q, Arc::clone, || compile().map(Arc::new))
            .map(|(plan, _hit)| plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgc_query::parse_query;
    use fgc_relation::schema::RelationSchema;
    use fgc_relation::{tuple, DataType, Database};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation(
            RelationSchema::with_names("R", &[("a", DataType::Str), ("b", DataType::Str)], &[])
                .unwrap(),
        )
        .unwrap();
        db.insert_all("R", vec![tuple!["1", "x"], tuple!["2", "y"]])
            .unwrap();
        db
    }

    #[test]
    fn caches_compiled_plans() {
        let db = db();
        let cache = PlanCache::default();
        let q = parse_query("Q(A, B) :- R(A, B)").unwrap();
        let mut compiles = 0;
        for _ in 0..3 {
            let plan = cache
                .get_or_compile(&q, || {
                    compiles += 1;
                    QueryPlan::compile(&q, &db)
                })
                .unwrap();
            assert_eq!(plan.num_atoms(), 1);
        }
        assert_eq!(compiles, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn errors_are_not_cached() {
        let db = db();
        let cache = PlanCache::default();
        let bad = parse_query("Q(X) :- R(A, B)").unwrap(); // unsafe
        for _ in 0..2 {
            assert!(cache
                .get_or_compile(&bad, || QueryPlan::compile(&bad, &db))
                .is_err());
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 0);
    }
}
