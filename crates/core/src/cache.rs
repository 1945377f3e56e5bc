//! Citation caching and materialization (§4: "caching and
//! materialization" is one of the paper's open directions).
//!
//! [`ClockCache`] is the engine's one concurrent memo table: the
//! entries are spread over [`SHARDS`] `RwLock`-protected
//! [`Clock`] rings (the shard is picked by key hash, so unrelated keys
//! never contend), a hit takes only its shard's *read* lock, and the
//! hit/miss/eviction counters are relaxed atomics, so
//! [`ClockCache::stats`] stays accurate under concurrency. Bounding,
//! eviction and the capacity-0 rule are the ring's — see
//! [`fgc_relation::clock`]. Eviction never touches the hit/miss
//! accounting: a re-computed evictee is simply a miss again.
//!
//! [`CitationCache`] instantiates it for `(view, λ-valuation) →
//! citation` — the result of `F_V(C_V(...))`, the hot path of
//! citation interpretation, where a miss costs one citation query
//! against the database. [`crate::plan_cache::PlanCache`] is the
//! other instance. Every snapshot of one catalog is served through
//! the same caches (§4's fixity), so each key names the relation
//! instances its value was computed from ([`TokenKey`]).

use crate::token::CiteToken;
use fgc_relation::Clock;
use fgc_views::Json;
use std::convert::Infallible;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of independent lock shards in a [`ClockCache`].
pub const SHARDS: usize = 16;

/// Default per-shard token capacity (total default capacity is
/// `SHARDS * DEFAULT_SHARD_CAPACITY` entries).
pub const DEFAULT_SHARD_CAPACITY: usize = 4096;

/// Hit/miss counters for diagnostics, `GET /stats` and the benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups answered from the cache.
    pub hits: u64,
    /// Number of lookups that had to compute.
    pub misses: u64,
    /// Number of entries currently stored.
    pub entries: usize,
    /// Number of entries evicted to make room (CLOCK second-chance).
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded, thread-safe, size-bounded memo table.
///
/// All methods take `&self`; an engine holding one of these can be
/// shared across threads (`Arc<CitationEngine>`) with every thread
/// reading from and filling the same cache. Values are cloned out,
/// so instances store `Arc`s.
#[derive(Debug)]
pub struct ClockCache<K, V> {
    shards: Vec<RwLock<Clock<K, V>>>,
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Nanosecond latency of miss computations (the cost a hit
    /// saves); the mean a counter pair could offer hides the tail.
    miss_latency: fgc_obs::Histogram,
}

impl<K: Hash + Eq + Clone, V: Clone> ClockCache<K, V> {
    /// An empty cache holding at most `capacity` entries **per
    /// shard** (total capacity is `SHARDS` times this). A capacity
    /// of 0 disables caching entirely: every lookup computes, nothing
    /// is stored, and no eviction runs.
    pub fn with_shard_capacity(capacity: usize) -> Self {
        ClockCache {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(Clock::new(capacity)))
                .collect(),
            hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            miss_latency: fgc_obs::Histogram::new(),
        }
    }

    /// Fetch the value for `key`, or compute and store it. Returns
    /// `read` applied to the value — under the shard's read lock on a
    /// hit, so a caller that needs a copy clones exactly once — and
    /// whether it was a hit.
    ///
    /// `compute` runs *outside* any lock: two threads missing the
    /// same key may both compute (the result is deterministic, so
    /// either insert wins harmlessly), but a slow computation never
    /// blocks unrelated lookups. An `Err` is returned as is and never
    /// cached, so a failing key keeps reporting its error.
    pub fn get_or_compute<R, E>(
        &self,
        key: &K,
        read: impl Fn(&V) -> R,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(R, bool), E> {
        let shard = &self.shards[(self.hasher.hash_one(key) as usize) % SHARDS];
        if let Some(value) = shard.read().expect("cache shard poisoned").get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((read(value), true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let computed_at = std::time::Instant::now();
        let value = compute()?;
        self.miss_latency.record_nanos(computed_at.elapsed());
        let result = read(&value);
        let evicted = shard
            .write()
            .expect("cache shard poisoned")
            .insert(key.clone(), value);
        if evicted.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok((result, false))
    }

    /// Current statistics. Counters are read with relaxed ordering:
    /// exact for quiescent engines, monotone under concurrency.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.read().expect("cache shard poisoned").len())
                .sum(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Latency distribution of miss computations (nanoseconds),
    /// surfaced on `GET /metrics` so cache sizing decisions can weigh
    /// the tail cost of a miss, not its mean.
    pub fn miss_latency(&self) -> fgc_obs::HistogramSnapshot {
        self.miss_latency.snapshot()
    }

    /// Drop all entries (keeps counters).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().expect("cache shard poisoned").clear();
        }
    }
}

/// A token-cache key: the instance ids
/// ([`fgc_relation::Relation::instance`]) of the relations the
/// token's citation query reads, in atom order, and the token. A base
/// token's citation reads no data, so it carries no ids.
pub type TokenKey = (Vec<u64>, CiteToken);

/// The token cache: the interpreted citation of each token, over the
/// relation instances its key names.
pub type CitationCache = ClockCache<TokenKey, Arc<Json>>;

impl Default for CitationCache {
    fn default() -> Self {
        CitationCache::with_shard_capacity(DEFAULT_SHARD_CAPACITY)
    }
}

impl CitationCache {
    /// Fetch or compute the citation for a token. Returns the
    /// citation and whether it was a hit (per-request metadata for
    /// [`crate::request::CiteResponse`]).
    pub fn lookup_or_compute(
        &self,
        key: &TokenKey,
        compute: impl FnOnce() -> Json,
    ) -> (Json, bool) {
        self.get_or_compute(
            key,
            |cached| Json::clone(cached),
            || Ok::<_, Infallible>(Arc::new(compute())),
        )
        .unwrap_or_else(|never| match never {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgc_relation::Value;
    use std::sync::Arc;

    fn token() -> CiteToken {
        CiteToken::view("V1", vec![Value::str("11")])
    }

    fn nth_token(i: usize) -> CiteToken {
        CiteToken::view("V1", vec![Value::str(format!("t{i}"))])
    }

    fn key(token: &CiteToken) -> TokenKey {
        (Vec::new(), token.clone())
    }

    fn get(cache: &CitationCache, token: &CiteToken, compute: impl FnOnce() -> Json) -> Json {
        cache.lookup_or_compute(&key(token), compute).0
    }

    #[test]
    fn memoizes_computation() {
        let cache = CitationCache::default();
        let mut computed = 0;
        for _ in 0..3 {
            let v = get(&cache, &token(), || {
                computed += 1;
                Json::str("citation")
            });
            assert_eq!(v, Json::str("citation"));
        }
        assert_eq!(computed, 1);
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn lookup_reports_hit_flag() {
        let cache = CitationCache::default();
        let (_, hit) = cache.lookup_or_compute(&key(&token()), || Json::str("a"));
        assert!(!hit);
        let (v, hit) = cache.lookup_or_compute(&key(&token()), || Json::str("other"));
        assert!(hit);
        assert_eq!(v, Json::str("a"));
    }

    #[test]
    fn distinct_tokens_distinct_entries() {
        let cache = CitationCache::default();
        get(&cache, &nth_token(1), || Json::str("a"));
        get(&cache, &nth_token(2), || Json::str("b"));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn empty_cache_hit_rate_is_zero() {
        assert_eq!(CitationCache::default().stats().hit_rate(), 0.0);
    }

    #[test]
    fn capacity_bounds_entries_and_counts_evictions() {
        let capacity = 4 * SHARDS;
        let cache = CitationCache::with_shard_capacity(4);
        for i in 0..10 * capacity {
            get(&cache, &nth_token(i), || Json::str(format!("{i}")));
        }
        let stats = cache.stats();
        assert!(
            stats.entries <= capacity,
            "{} entries exceed capacity {capacity}",
            stats.entries
        );
        assert!(stats.evictions > 0);
        // every lookup above was a distinct token: all misses
        assert_eq!(stats.misses, 10 * capacity as u64);
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn capacity_zero_disables_the_cache_without_panicking() {
        // regression: the CLOCK sweep divided by `slots.len()` when a
        // full shard had zero slots
        let cache = CitationCache::with_shard_capacity(0);
        let mut computed = 0;
        for _ in 0..3 {
            let v = get(&cache, &token(), || {
                computed += 1;
                Json::str("fresh")
            });
            assert_eq!(v, Json::str("fresh"));
        }
        // every lookup computes; nothing is stored or evicted
        assert_eq!(computed, 3);
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.evictions, 0);
        // churn across many distinct tokens stays panic-free
        for i in 0..100 {
            get(&cache, &nth_token(i), || Json::str("x"));
        }
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn hot_token_survives_scan_churn() {
        let cache = CitationCache::with_shard_capacity(4);
        let hot = token();
        get(&cache, &hot, || Json::str("hot"));
        let mut hot_computes = 0;
        for i in 0..20 * 4 * SHARDS {
            // touch the hot token before every filler insert: its
            // referenced bit is always set when the hand sweeps by
            get(&cache, &hot, || {
                hot_computes += 1;
                Json::str("hot")
            });
            get(&cache, &nth_token(i), || Json::str("cold"));
        }
        assert_eq!(hot_computes, 0, "second chance must spare the hot token");
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn clear_resets_the_clock() {
        let cache = CitationCache::with_shard_capacity(2);
        for i in 0..10 * 2 * SHARDS {
            get(&cache, &nth_token(i), || Json::str("x"));
        }
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        get(&cache, &token(), || Json::str("fresh"));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn concurrent_fill_counts_every_lookup() {
        let cache = Arc::new(CitationCache::default());
        let threads = 8;
        let per_thread = 100u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let t = CiteToken::view("V1", vec![Value::str(format!("{}", i % 10))]);
                        let v = get(&cache, &t, || Json::str(format!("{}", i % 10)));
                        assert_eq!(v, Json::str(format!("{}", i % 10)));
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, threads * per_thread);
        assert_eq!(stats.entries, 10);
    }

    #[test]
    fn concurrent_churn_respects_capacity() {
        let cache = Arc::new(CitationCache::with_shard_capacity(8));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..2_000usize {
                        let tok = nth_token(t * 10_000 + i);
                        get(&cache, &tok, || Json::str("v"));
                    }
                });
            }
        });
        assert!(cache.stats().entries <= 8 * SHARDS);
    }
}
