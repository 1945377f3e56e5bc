//! What is left of row ownership: a shard-key spec that names nothing.
//!
//! Every replica holds the whole snapshot and answers whole cites, so
//! no row is owned by a shard any more and nothing reads a key
//! column. [`ShardKeySpec`] stays only as the argument type of
//! `CitationEngine::with_shards`, for `benchmark/src/stack.rs:178`.

/// A shard-key spec: accepted and ignored. Kept for
/// `benchmark/src/stack.rs:178`, which builds one through
/// `fgc_gtopdb::paper_shard_spec`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardKeySpec;

impl ShardKeySpec {
    /// The spec.
    pub fn new() -> Self {
        ShardKeySpec
    }

    /// Builder: names a key column, which nothing reads.
    pub fn with(self, _relation: impl Into<String>, _column: impl Into<String>) -> Self {
        self
    }
}
