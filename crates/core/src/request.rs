//! The request/response layer of the serving API.
//!
//! [`CitationEngine`](crate::engine::CitationEngine) is built once
//! with a default policy and options; real query traffic (§4's
//! scaling discussion) needs *per-call* variation without rebuilding
//! the engine. A [`CiteRequest`] carries the query plus optional
//! overrides — policy, rewrite mode, rewrite budgets — and a
//! [`CiteResponse`] wraps the resulting [`QueryCitation`] with timing
//! and cache metadata, so callers can observe the cost of each
//! citation.

use crate::engine::{QueryCitation, RewriteMode};
use crate::policy::Policy;
use fgc_query::ast::ConjunctiveQuery;
use fgc_rewrite::RewriteOptions;
use std::time::Duration;

/// The query payload of a request: already-parsed Datalog or raw SQL
/// (parsed against the engine's catalog at serve time).
#[derive(Debug, Clone)]
pub enum QuerySpec {
    /// A parsed conjunctive query.
    Datalog(ConjunctiveQuery),
    /// An SPJ SQL string, parsed per request.
    Sql(String),
}

/// One citation request: a query plus per-call overrides of the
/// engine's defaults. Build with [`CiteRequest::query`] or
/// [`CiteRequest::sql`] and chain `with_*` calls.
///
/// ```
/// use fgc_core::{CiteRequest, Policy, RewriteMode};
/// use fgc_query::parse_query;
///
/// let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
/// let request = CiteRequest::query(q)
///     .with_policy(Policy::join_all())
///     .with_mode(RewriteMode::Exhaustive);
/// assert!(request.mode.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct CiteRequest {
    /// The query to cite.
    pub query: QuerySpec,
    /// Override the engine's citation policy for this call.
    pub policy: Option<Policy>,
    /// Override the rewrite mode (exhaustive vs pruned).
    pub mode: Option<RewriteMode>,
    /// Override the rewriting search budgets.
    pub rewrite: Option<RewriteOptions>,
    /// The request ID assigned (or honored from `x-request-id`) at
    /// the front door; the engine's [`fgc_obs::Trace`] is started
    /// under it and the response echoes it back.
    pub request_id: Option<String>,
    /// Ask the wire encoding to include the per-stage `stages`
    /// breakdown in the response body (off by default so response
    /// bodies stay byte-identical across serving topologies).
    pub include_stages: bool,
}

impl CiteRequest {
    /// A request citing a parsed conjunctive query.
    pub fn query(q: ConjunctiveQuery) -> Self {
        CiteRequest {
            query: QuerySpec::Datalog(q),
            policy: None,
            mode: None,
            rewrite: None,
            request_id: None,
            include_stages: false,
        }
    }

    /// A request citing an SPJ SQL query.
    pub fn sql(sql: impl Into<String>) -> Self {
        CiteRequest {
            query: QuerySpec::Sql(sql.into()),
            policy: None,
            mode: None,
            rewrite: None,
            request_id: None,
            include_stages: false,
        }
    }

    /// Use this policy instead of the engine default.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Use this rewrite mode instead of the engine default.
    pub fn with_mode(mut self, mode: RewriteMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Use these rewriting budgets instead of the engine default.
    pub fn with_rewrite(mut self, options: RewriteOptions) -> Self {
        self.rewrite = Some(options);
        self
    }

    /// Attach the front door's request ID (see
    /// [`fgc_obs::next_request_id`]).
    pub fn with_request_id(mut self, id: impl Into<String>) -> Self {
        self.request_id = Some(id.into());
        self
    }

    /// Ask for the per-stage breakdown in the encoded response body.
    pub fn with_stages(mut self, include: bool) -> Self {
        self.include_stages = include;
        self
    }
}

/// A served citation together with per-call observability metadata.
#[derive(Debug, Clone)]
pub struct CiteResponse {
    /// The citation result.
    pub citation: QueryCitation,
    /// Wall-clock time spent serving this request.
    pub elapsed: Duration,
    /// Token-cache hits incurred by this request alone.
    pub cache_hits: u64,
    /// Token-cache misses incurred by this request alone.
    pub cache_misses: u64,
    /// Per-stage durations of this request's trip through the cite
    /// pipeline (parse → plan → evaluate → rewrite → extent →
    /// render), in first-entered order. `evaluate` covers the whole
    /// answer evaluation and therefore *contains* the `plan`
    /// sub-span.
    pub stages: Vec<(&'static str, Duration)>,
    /// The request ID this citation was served under, when one was
    /// assigned at the front door.
    pub request_id: Option<String>,
}

impl CiteResponse {
    /// This request's token-cache hit rate in `[0, 1]`; 0 when the
    /// request touched no tokens.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgc_query::parse_query;

    #[test]
    fn builder_sets_overrides() {
        let q = parse_query("Q(N) :- Family(F, N, Ty)").unwrap();
        let r = CiteRequest::query(q)
            .with_policy(Policy::union_all())
            .with_mode(RewriteMode::Exhaustive)
            .with_rewrite(RewriteOptions::default());
        assert!(r.policy.is_some());
        assert_eq!(r.mode, Some(RewriteMode::Exhaustive));
        assert!(r.rewrite.is_some());
    }

    #[test]
    fn sql_requests_carry_the_text() {
        let r = CiteRequest::sql("SELECT f.FName FROM Family f");
        assert!(matches!(r.query, QuerySpec::Sql(ref s) if s.contains("FName")));
        assert!(r.policy.is_none());
    }
}
