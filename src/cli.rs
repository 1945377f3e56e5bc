//! The `fgcite` command-line interface.
//!
//! ```text
//! fgcite cite    --data DB.fgd --views VIEWS.fgv --query "Q(N) :- ..." \
//!                [--sql "SELECT ..."] [--policy union|join|default]
//!                [--order none|fewest-views|fewest-uncovered|view-inclusion|composite]
//!                [--format json|xml|text] [--exhaustive] [--explain]
//!                [--commits FILE [--version N | --at TS]]
//! fgcite views   --data DB.fgd --views VIEWS.fgv        # validate & list
//! fgcite suggest --data DB.fgd --log QUERIES.fgq [--min-support N]
//! ```
//!
//! The logic lives here (library-testable); `src/bin/fgcite.rs` is a
//! thin wrapper doing I/O.

use fgc_core::{
    suggest_views, CitationEngine, CiteRequest, Policy, QueryLog, RewriteMode, VersionSelector,
    VersionedCitation, VersionedCitationEngine,
};
use fgc_query::{parse_program, parse_query};
use fgc_relation::loader::{load_commits, load_text, resume_commits};
use fgc_relation::storage::{self, Storage, StorageOptions};
use fgc_relation::{Database, VersionedDatabase};
use fgc_server::wire::{order_named, policy_named};
use fgc_views::{parse_view_file, to_text, to_xml, TextStyle, ViewRegistry};
use std::collections::HashMap;
use std::fmt::Write as _;

/// A CLI failure: message for stderr, non-zero exit.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

macro_rules! stringify_errors {
    ($($ty:ty),* $(,)?) => {
        $(impl From<$ty> for CliError {
            fn from(e: $ty) -> Self {
                CliError(e.to_string())
            }
        })*
    };
}

stringify_errors!(
    fgc_relation::RelationError,
    fgc_query::QueryError,
    fgc_views::ViewError,
    fgc_rewrite::RewriteError,
    fgc_core::CoreError,
);

/// Parsed command line: flag → value (flags are `--name value` or
/// `--name=value`).
pub struct Args {
    pub command: String,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse raw arguments. Both `--name value` and `--name=value`
    /// are accepted; boolean flags get the value `"true"` when no
    /// `=value` is attached. An unknown command, or a flag the command
    /// does not take, is an error naming it.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, CliError> {
        let mut iter = raw.into_iter().peekable();
        let command = iter.next().ok_or_else(|| CliError(USAGE.to_string()))?;
        let accepted = ACCEPTED_FLAGS
            .iter()
            .find(|(name, _)| *name == command)
            .map(|(_, flags)| *flags)
            .ok_or_else(|| CliError(format!("unknown command `{command}`\n{USAGE}")))?;
        let mut flags = HashMap::new();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(CliError(format!("unexpected argument `{arg}`\n{USAGE}")));
            };
            if name.is_empty() || name.starts_with('=') {
                return Err(CliError(format!("malformed flag `{arg}`\n{USAGE}")));
            }
            let (name, attached) = match name.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (name, None),
            };
            // a flag the command does not take is a typo or a retired
            // knob: starting anyway would silently drop what it asked for
            if !accepted.split_whitespace().any(|flag| flag == name) {
                return Err(CliError(format!(
                    "unknown flag --{name} for `{command}`\n{USAGE}"
                )));
            }
            let value = match attached {
                Some(value) => value,
                None if matches!(name, "exhaustive" | "explain") => "true".to_string(),
                None => iter
                    .next()
                    .ok_or_else(|| CliError(format!("flag --{name} needs a value")))?,
            };
            // `--fault` is repeatable: each occurrence appends another
            // `;`-separated spec instead of overwriting the last one
            if name == "fault" {
                flags
                    .entry(name.to_string())
                    .and_modify(|prior: &mut String| {
                        prior.push(';');
                        prior.push_str(&value);
                    })
                    .or_insert(value);
            } else {
                flags.insert(name.to_string(), value);
            }
        }
        Ok(Args { command, flags })
    }

    /// Look up a flag value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Look up a flag value, erroring when absent.
    pub fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError(format!("missing required flag --{name}")))
    }

    /// Whether a boolean flag is enabled: present as `--name` or
    /// `--name=true`; `--name=false` explicitly disables it.
    pub fn enabled(&self, name: &str) -> bool {
        matches!(self.get(name), Some(v) if v != "false")
    }
}

/// The flags each command takes (space-separated); [`Args::parse`]
/// refuses any other, and any command not listed. `USAGE` documents
/// the same sets — a unit test keeps the two from drifting.
const ACCEPTED_FLAGS: &[(&str, &str)] = &[
    (
        "cite",
        "data views query sql policy order format exhaustive explain commits version at",
    ),
    ("views", "data views"),
    ("suggest", "data log min-support"),
    (
        "serve",
        "data views addr threads commits data-dir \
         deadline-ms max-deadline-ms header-timeout-ms fault fault-seed \
         replicas replica-timeout-ms",
    ),
    ("help", ""),
    ("--help", ""),
    ("-h", ""),
];

/// Usage text.
pub const USAGE: &str = "\
usage:
  fgcite cite    --data FILE --views FILE (--query Q | --sql S)
                 [--policy union|join|default] [--order ORDER]
                 [--format json|xml|text] [--exhaustive] [--explain]
                 [--commits FILE [--version N | --at TS]]
  fgcite views   --data FILE --views FILE
  fgcite suggest --data FILE --log FILE [--min-support N]
  fgcite serve   --data FILE --views FILE [--addr HOST:PORT]
                 [--threads N]
                 [--commits FILE]
                 [--data-dir DIR]
                 [--deadline-ms MS] [--max-deadline-ms MS]
                 [--header-timeout-ms MS]
                 [--fault POINT=ACTION[@TRIGGER]] [--fault-seed N]
  fgcite serve   --replicas HOST:PORT,... [--replica-timeout-ms MS]
                 [--addr HOST:PORT] [--threads N]
                 [--deadline-ms MS] [--max-deadline-ms MS]
                 [--fault POINT=ACTION[@TRIGGER]] [--fault-seed N]

Flags accept both `--name value` and `--name=value`.
ORDER: none | fewest-views | fewest-uncovered | view-inclusion | composite
files: --data uses the fgc-relation text format (@create/@fk/@relation),
       --views uses the fgc-views @view/@fields format,
       --log holds one Datalog query per line,
       --commits holds versioned deltas over the --data snapshot:
       `@commit TIMESTAMP LABEL` sections of `+ Rel | v...` inserts
       and `- Rel | v...` removals.
cite with --commits answers against the commit history (--version id,
       --at timestamp, default head; both need --commits) and stamps
       the citation with the version fixity fields (§4); every other
       cite flag applies as usual, and --explain adds a `fixity:` line.
       One engine per catalog serves every version, and its caches
       are shared across versions (see `fixity` in GET /stats).
serve: HTTP routes POST /cite, POST /cite_sql, GET /views, GET /stats,
       GET /healthz, GET /metrics (Prometheus text exposition),
       GET /debug/slow (slowest recent requests, with request IDs
       and per-stage breakdowns); default --addr 127.0.0.1:8787.
       Every response echoes `x-request-id` (assigned when the
       request carries none), and a /cite body with `stages: true`
       adds the per-stage latency breakdown. With --commits
       also POST /cite_at (a /cite body plus `version` or `at`) and
       GET /versions, and GET /stats gains a
       `fixity` block (catalog-engine hits and builds). The
       compiled-plan cache's hits/misses/size appear under
       `plan_cache` (and in `cite --explain` output).
distributed serving:
       `--replicas a:p,b:p,...` starts a coordinator instead of an
       engine (no --data/--views). Each replica is an ordinary
       `fgcite serve` over the same data; the coordinator forwards
       every POST /cite and /cite_sql body unchanged to one replica,
       picked by a hash of the body and failing over to the next,
       and relays its answer. GET /views is the replicas' body,
       fetched at start-up. `--replica-timeout-ms` bounds each
       replica call. Per-replica circuit state appears under
       `replicas` in GET /stats.
storage:
       --data-dir DIR persists the snapshots as append-only segment
       files plus a delta WAL under DIR, each file checksummed;
       without it nothing is persisted.
       First run loads --data (and --commits) and persists it; a
       restart with the same --data-dir cold-starts from the
       manifest — the text loader never runs, --data may be omitted,
       and a --commits file resumes where the persisted chain left
       off (new sections applied, a divergent file refused).
       Versioned deployments persist each commit
       write-behind. Store counters (segments, WAL bytes,
       compactions) appear under `storage` in GET /stats and as
       `fgcite_storage_*` in GET /metrics.
deadlines & fault injection:
       Every request gets an end-to-end deadline: the `x-deadline-ms`
       request header when present (capped by --max-deadline-ms,
       default 300000), else --deadline-ms (default 30000). A spent
       budget answers a structured 504 and counts in
       `fgcite_deadline_exceeded_total`; a coordinator passes the
       remaining budget on to each replica it tries. A client
       that dribbles its request head slower than --header-timeout-ms
       (default 10000) gets a 408 instead of holding a worker.
       --fault arms the deterministic fault plane at a named point:
       `--fault storage.wal.append=torn@nth:3` injects a torn write
       on the 3rd WAL append, `--fault dist.pool.send=error@p:0.01`
       fails 1% of replica sends (seeded by --fault-seed; repeat
       --fault or separate specs with `;` for more points). ACTION:
       error | torn | crash-before | crash-after | delay:MS. TRIGGER:
       always (default) | nth:N | every:K | p:P. Per-point counters
       appear as `fgcite_fault_point_*` in GET /metrics; /healthz
       reports `degraded` (with causes) when the storage backend is
       failing or a replica circuit is open.";

fn load_database(text: &str) -> Result<Database, CliError> {
    let mut db = Database::new();
    load_text(&mut db, text)?;
    db.check_integrity()?;
    Ok(db)
}

fn load_registry(text: &str) -> Result<ViewRegistry, CliError> {
    let mut registry = ViewRegistry::new();
    for view in parse_view_file(text)? {
        registry.add(view)?;
    }
    Ok(registry)
}

/// `--policy` and `--order`, by the names the wire decoder takes.
fn policy_from(args: &Args) -> Result<Policy, CliError> {
    let named = |e: fgc_server::WireError| CliError(e.0);
    let mut policy = policy_named(args.get("policy").unwrap_or("default")).map_err(named)?;
    if let Some(order) = args.get("order") {
        policy = policy.with_order(order_named(order).map_err(named)?);
    }
    Ok(policy)
}

/// Build a commit history: the `--data` snapshot becomes version 0
/// (timestamp 0, label `base`), the `--commits` file appends one
/// version per `@commit` section.
fn build_history(data: &str, commits: &str) -> Result<VersionedDatabase, CliError> {
    let db = load_database(data)?;
    let mut history = VersionedDatabase::new();
    history.commit(db, 0, "base")?;
    load_commits(&mut history, commits)?;
    Ok(history)
}

/// Open the disk store under `--data-dir`; `None` when serving
/// without one (the default). An unusable directory is a structured
/// error, never a panic.
fn open_storage(args: &Args) -> Result<Option<std::sync::Arc<dyn Storage>>, CliError> {
    let Some(dir) = args.get("data-dir") else {
        return Ok(None);
    };
    let dir = std::path::Path::new(dir);
    Ok(Some(storage::open(dir, StorageOptions::default())?))
}

/// The base snapshot for single-engine (and replica) serving when a
/// storage backend is configured: a non-empty manifest is the source
/// of truth (cold start — the text loader never runs); otherwise the
/// `--data` text is loaded and persisted as a 1-version history
/// before serving.
fn base_snapshot(
    storage: Option<&std::sync::Arc<dyn Storage>>,
    data: Option<&str>,
) -> Result<Database, CliError> {
    if let Some(s) = storage {
        if s.stats().versions > 0 {
            let history = s.load_history()?;
            let (_, head) = history.head().expect("non-empty manifest has a head");
            return Ok((**head).clone());
        }
    }
    let data = data.ok_or_else(|| {
        CliError("--data is required (no persisted history to cold-start from)".into())
    })?;
    let db = load_database(data)?;
    match storage {
        Some(s) => {
            let mut history = VersionedDatabase::new();
            history.commit(db, 0, "base")?;
            s.sync(&history)?;
            let (_, head) = history.head().expect("just committed");
            Ok((**head).clone())
        }
        None => Ok(db),
    }
}

/// `fgcite cite`: returns the rendered citation output.
///
/// The engine is built with defaults; the policy/mode flags become
/// per-request [`CiteRequest`] overrides — the same path a serving
/// deployment would take for each query of its traffic. Without
/// `commits` the data is a one-version history; with it,
/// `--version`/`--at` select a snapshot (default head) and the output
/// carries the fixity stamp.
pub fn run_cite(
    args: &Args,
    data: &str,
    views: &str,
    commits: Option<&str>,
) -> Result<String, CliError> {
    let request = match (args.get("query"), args.get("sql")) {
        (Some(q), None) => CiteRequest::query(parse_query(q)?),
        (None, Some(sql)) => CiteRequest::sql(sql),
        (Some(_), Some(_)) => {
            return Err(CliError("--query and --sql are mutually exclusive".into()))
        }
        (None, None) => return Err(CliError("need --query or --sql".into())),
    };
    let policy = policy_from(args)?;
    let mut request = request.with_policy(policy.clone());
    if args.enabled("exhaustive") {
        request = request.with_mode(RewriteMode::Exhaustive);
    }
    let parse_u64 = |name: &str| -> Result<Option<u64>, CliError> {
        args.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError(format!("--{name} must be a non-negative number")))
            })
            .transpose()
    };
    let at = match (parse_u64("version")?, parse_u64("at")?) {
        (Some(_), Some(_)) => {
            return Err(CliError("--version and --at are mutually exclusive".into()))
        }
        // a version picked with nothing to pick from would silently
        // cite the unversioned data, unstamped
        (Some(_), _) | (_, Some(_)) if commits.is_none() => {
            return Err(CliError("--version and --at need --commits FILE".into()))
        }
        (Some(id), None) => VersionSelector::Id(id),
        (None, Some(timestamp)) => VersionSelector::At(timestamp),
        (None, None) => VersionSelector::Head,
    };
    let history = build_history(data, commits.unwrap_or_default())?;
    let versioned = VersionedCitationEngine::new(history, load_registry(views)?);
    let (info, engine) = versioned.resolve(at)?;
    let response = engine.cite_request(&request)?;
    let stages = response.stages;
    let cited = response.citation;
    let stamped = commits.map(|_| VersionedCitation::new(info, cited.clone()).stamped_aggregate());
    let shown = stamped.as_ref().unwrap_or(&cited.aggregate);

    let mut out = String::new();
    match args.get("format").unwrap_or("json") {
        "json" => {
            let _ = writeln!(out, "{}", shown.to_pretty());
        }
        "xml" => {
            let _ = write!(out, "{}", to_xml(shown, "citation"));
        }
        "text" => {
            let _ = writeln!(out, "{}", to_text(shown, &TextStyle::default()));
        }
        other => return Err(CliError(format!("unknown format `{other}`"))),
    }
    if args.enabled("explain") {
        let _ = writeln!(out, "\n{}", fgc_core::explain(&cited, &policy));
        if !stages.is_empty() {
            let breakdown: Vec<String> = stages
                .iter()
                .map(|(name, d)| format!("{name}={}us", d.as_micros()))
                .collect();
            let _ = writeln!(out, "stages: {}", breakdown.join(" "));
        }
        let plans = engine.plan_stats();
        let _ = writeln!(
            out,
            "plan cache: hits={} misses={} size={}",
            plans.hits, plans.misses, plans.entries
        );
        if commits.is_some() {
            let stats = versioned.version_stats();
            let _ = writeln!(
                out,
                "fixity: versions={} rebuilt={}",
                stats.versions, stats.rebuilt
            );
        }
    }
    Ok(out)
}

/// `fgcite views`: validate the view file against the data's catalog
/// and list the views.
pub fn run_views(data: &str, views: &str) -> Result<String, CliError> {
    let db = load_database(data)?;
    let registry = load_registry(views)?;
    registry.validate(db.catalog())?;
    let mut out = String::new();
    let _ = writeln!(out, "{} citation view(s), all valid:", registry.len());
    for v in registry.iter() {
        let _ = writeln!(out, "  {}", v.view);
        let _ = writeln!(out, "    citation query: {}", v.citation_query);
    }
    Ok(out)
}

/// `fgcite suggest`: analyze a query log and propose view definitions.
pub fn run_suggest(args: &Args, data: &str, log_text: &str) -> Result<String, CliError> {
    let db = load_database(data)?;
    let min_support: usize = args
        .get("min-support")
        .unwrap_or("2")
        .parse()
        .map_err(|_| CliError("--min-support must be a number".into()))?;
    let mut log = QueryLog::new();
    for q in parse_program(log_text)? {
        fgc_query::check_against_catalog(&q, db.catalog())?;
        log.record(q);
    }
    let suggestions = suggest_views(&log, &[], 10, min_support);
    let mut out = String::new();
    if suggestions.is_empty() {
        let _ = writeln!(
            out,
            "no patterns with support >= {min_support} in {} queries",
            log.len()
        );
    } else {
        let _ = writeln!(
            out,
            "suggested citation-view definitions (from {} logged queries):",
            log.len()
        );
        for s in suggestions {
            let _ = writeln!(out, "  support {:>3}: {}", s.support, s.definition);
        }
    }
    Ok(out)
}

/// Build a [`fgc_server::ServerConfig`] from the `serve` flags
/// (`--addr`, `--threads`, and the deadline/timeout flags in
/// milliseconds).
pub fn serve_config(args: &Args) -> Result<fgc_server::ServerConfig, CliError> {
    let mut config = fgc_server::ServerConfig::default();
    if let Some(addr) = args.get("addr") {
        config = config.with_addr(addr);
    }
    if let Some(threads) = args.get("threads") {
        let threads: usize = threads
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| CliError("--threads must be a positive number".into()))?;
        config = config.with_threads(threads);
    }
    let positive_ms = |name: &str| -> Result<Option<std::time::Duration>, CliError> {
        args.get(name)
            .map(|v| {
                v.parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .map(std::time::Duration::from_millis)
                    .ok_or_else(|| {
                        CliError(format!(
                            "--{name} must be a positive number of milliseconds"
                        ))
                    })
            })
            .transpose()
    };
    if let Some(deadline) = positive_ms("deadline-ms")? {
        config = config.with_default_deadline(deadline);
    }
    if let Some(max) = positive_ms("max-deadline-ms")? {
        config = config.with_max_deadline(max);
    }
    if let Some(timeout) = positive_ms("header-timeout-ms")? {
        config = config.with_header_read_timeout(timeout);
    }
    Ok(config)
}

/// Arm the process-wide fault plane from the `--fault` /
/// `--fault-seed` flags. Each `--fault` takes a
/// `point=action[@trigger]` spec (repeat the flag, or separate specs
/// with `;`); a malformed spec is a structured error before anything
/// starts serving. Without the flags this is a no-op and the plane
/// stays inactive (zero-cost checks on the hot paths).
pub fn apply_faults(args: &Args) -> Result<(), CliError> {
    if let Some(seed) = args.get("fault-seed") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| CliError("--fault-seed must be a non-negative number".into()))?;
        fgc_fault::global().set_seed(seed);
    }
    if let Some(specs) = args.get("fault") {
        for spec in specs.split(';').filter(|s| !s.trim().is_empty()) {
            fgc_fault::global()
                .arm_spec(spec.trim())
                .map_err(|e| CliError(format!("--fault {spec}: {e}")))?;
        }
    }
    Ok(())
}

/// `fgcite serve`: build an engine from the data/view files and start
/// the HTTP citation service. Returns the running server; the binary
/// blocks on [`fgc_server::CiteServer::wait`]. With `commits`, the
/// service is versioned: `/cite` answers from the head version and
/// `/cite_at` serves the history.
pub fn run_serve(
    args: &Args,
    data: Option<&str>,
    views: &str,
    commits: Option<&str>,
) -> Result<fgc_server::CiteServer, CliError> {
    apply_faults(args)?;
    if args.get("replicas").is_some() {
        return Err(CliError(
            "--replicas starts a coordinator, which takes no --data/--views: call \
             run_serve_coordinator (the fgcite binary dispatches it)"
                .into(),
        ));
    }
    if args.get("replica-timeout-ms").is_some() {
        return Err(CliError("--replica-timeout-ms requires --replicas".into()));
    }
    let config = serve_config(args)?;
    let registry = load_registry(views)?;
    let storage = open_storage(args)?;
    // Versioned serving: requested via --commits, or implied by a
    // persisted multi-version history in the data dir.
    let versioned_persisted = storage.as_ref().is_some_and(|s| s.stats().versions > 1);
    if commits.is_some() || versioned_persisted {
        let history = match &storage {
            // Warm manifest: cold start from disk, the loader never
            // runs. A --commits file is still honored — the persisted
            // chain is verified against it and any sections past the
            // persisted head are applied (and re-persisted via
            // with_storage's sync); a divergent file is a structured
            // error, never silently ignored.
            Some(s) if s.stats().versions > 0 => {
                let mut history = s.load_history()?;
                if let Some(commits) = commits {
                    resume_commits(&mut history, commits)?;
                }
                history
            }
            _ => {
                let data = data.ok_or_else(|| {
                    CliError("--data is required (no persisted history to cold-start from)".into())
                })?;
                let commits = commits.expect("versioned without a persisted history has commits");
                build_history(data, commits)?
            }
        };
        let mut versioned = VersionedCitationEngine::new(history, registry);
        if let Some(s) = &storage {
            versioned = versioned.with_storage(std::sync::Arc::clone(s))?;
        }
        return fgc_server::CiteServer::start_versioned(std::sync::Arc::new(versioned), config)
            .map_err(|e| CliError(format!("cannot start server: {e}")));
    }
    let db = base_snapshot(storage.as_ref(), data)?;
    let mut engine = CitationEngine::new(db, registry)?;
    if let Some(s) = storage {
        engine = engine.with_storage(s);
    }
    fgc_server::CiteServer::start(std::sync::Arc::new(engine), config)
        .map_err(|e| CliError(format!("cannot start server: {e}")))
}

fn parse_addr(text: &str) -> Result<std::net::SocketAddr, CliError> {
    use std::net::ToSocketAddrs;
    text.to_socket_addrs()
        .ok()
        .and_then(|mut addrs| addrs.next())
        .ok_or_else(|| CliError(format!("cannot resolve replica address `{text}`")))
}

fn parse_addr_list(text: &str) -> Result<Vec<std::net::SocketAddr>, CliError> {
    let addrs: Vec<_> = text
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse_addr)
        .collect::<Result<_, _>>()?;
    if addrs.is_empty() {
        return Err(CliError("--replicas needs at least one HOST:PORT".into()));
    }
    Ok(addrs)
}

/// `fgcite serve --replicas a,b,...`: start a coordinator, which
/// forwards each cite whole to one of the listed replicas (ordinary
/// `fgcite serve` processes over the same data). It takes no data or
/// view files and keeps no state but the replicas' `GET /views` body,
/// so it can be restarted or scaled horizontally at will.
pub fn run_serve_coordinator(args: &Args) -> Result<fgc_dist::DistServer, CliError> {
    apply_faults(args)?;
    if args.get("data").is_some() || args.get("views").is_some() {
        return Err(CliError(
            "--replicas starts a coordinator, which takes no --data/--views \
             (its replicas serve the data)"
                .into(),
        ));
    }
    let replicas = parse_addr_list(args.require("replicas")?)?;
    let mut pool = fgc_dist::PoolConfig::default();
    if let Some(ms) = args.get("replica-timeout-ms") {
        let ms: u64 = ms
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| CliError("--replica-timeout-ms must be a positive number".into()))?;
        pool = pool.with_timeout(std::time::Duration::from_millis(ms));
    }
    let config = fgc_dist::CoordinatorConfig::new(replicas).with_pool(pool);
    let coordinator = fgc_dist::Coordinator::connect(config).map_err(CliError)?;
    fgc_dist::DistServer::start(
        std::sync::Arc::new(coordinator),
        serve_config(args)?.with_role("coordinator"),
    )
    .map_err(|e| CliError(format!("cannot start coordinator: {e}")))
}

/// Dispatch a full command line (excluding argv 0); returns stdout
/// content.
pub fn run<I: IntoIterator<Item = String>>(
    raw: I,
    read_file: &dyn Fn(&str) -> Result<String, CliError>,
) -> Result<String, CliError> {
    let args = Args::parse(raw)?;
    match args.command.as_str() {
        "cite" => {
            let data = read_file(args.require("data")?)?;
            let views = read_file(args.require("views")?)?;
            let commits = args.get("commits").map(read_file).transpose()?;
            run_cite(&args, &data, &views, commits.as_deref())
        }
        "views" => {
            let data = read_file(args.require("data")?)?;
            let views = read_file(args.require("views")?)?;
            run_views(&data, &views)
        }
        "suggest" => {
            let data = read_file(args.require("data")?)?;
            let log = read_file(args.require("log")?)?;
            run_suggest(&args, &data, &log)
        }
        // long-running: the binary dispatches serve before run() so
        // it can block on the handle; reaching this branch means a
        // library caller wants the handle-returning API instead
        "serve" => Err(CliError(
            "`serve` starts a long-running server: use the fgcite binary, or call \
             fgcite::cli::run_serve for the handle"
                .into(),
        )),
        // `Args::parse` refused every command outside its table:
        // what is left is `help` / `--help` / `-h`
        _ => Ok(USAGE.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DATA: &str = r#"
@create Family(FID* str, FName str, Type str)
@create FC(FID str, PID str)
@create Person(PID* str, PName str, Affiliation str)
@fk FC(FID) -> Family
@relation Family
"11" | "Calcitonin" | "gpcr"
"12" | "Orexin" | "gpcr"
@relation Person
"p1" | "Hay" | "U1"
"p2" | "Poyner" | "U2"
@relation FC
"11" | "p1"
"11" | "p2"
"#;

    const VIEWS: &str = r#"
@view
lambda F. V1(F, N, Ty) :- Family(F, N, Ty)
lambda F. CV1(F, N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)
@fields ID = 0, Name = 1, Committee = [2]
"#;

    const COMMITS: &str = r#"
@commit 100 GtoPdb 24
+ Family | "13" | "Melatonin" | "gpcr"
+ FC | "13" | "p1"
@commit 200 GtoPdb 25
- Family | "12" | "Orexin" | "gpcr"
"#;

    fn files() -> impl Fn(&str) -> Result<String, CliError> {
        |name: &str| match name {
            "db" => Ok(DATA.to_string()),
            "views" => Ok(VIEWS.to_string()),
            "commits" => Ok(COMMITS.to_string()),
            "log" => Ok("Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"\n\
                         Q(N) :- Family(F, N, Ty), Ty = \"gpcr\"\n"
                .to_string()),
            other => Err(CliError(format!("no such file {other}"))),
        }
    }

    fn run_line(line: &[&str]) -> Result<String, CliError> {
        run(line.iter().map(|s| s.to_string()), &files())
    }

    #[test]
    fn cite_json() {
        let out = run_line(&[
            "cite",
            "--data",
            "db",
            "--views",
            "views",
            "--query",
            "Q(N) :- Family(F, N, Ty), F = \"11\"",
        ])
        .unwrap();
        assert!(out.contains("Calcitonin"));
        assert!(out.contains("Hay"));
    }

    #[test]
    fn cite_text_format() {
        let out = run_line(&[
            "cite",
            "--data",
            "db",
            "--views",
            "views",
            "--format",
            "text",
            "--query",
            "Q(N) :- Family(F, N, Ty), F = \"11\"",
        ])
        .unwrap();
        assert!(out.contains("Hay, Poyner (committee). Calcitonin."));
    }

    #[test]
    fn cite_xml_format() {
        let out = run_line(&[
            "cite",
            "--data",
            "db",
            "--views",
            "views",
            "--format",
            "xml",
            "--query",
            "Q(N) :- Family(F, N, Ty), F = \"11\"",
        ])
        .unwrap();
        assert!(out.contains("<citation>"));
        assert!(out.contains("<item>Hay</item>"));
    }

    #[test]
    fn cite_sql_and_explain() {
        let out = run_line(&[
            "cite",
            "--data",
            "db",
            "--views",
            "views",
            "--explain",
            "--sql",
            "SELECT f.FName FROM Family f WHERE f.FID = '11'",
        ])
        .unwrap();
        assert!(out.contains("rewritings considered:"));
    }

    #[test]
    fn explain_reports_plan_cache_counters() {
        let out = run_line(&[
            "cite",
            "--data",
            "db",
            "--views",
            "views",
            "--explain",
            "--query",
            "Q(N) :- Family(F, N, Ty), F = \"11\"",
        ])
        .unwrap();
        // one cite on a fresh engine: every plan (answer query +
        // extent queries) is a compile miss, and all are retained
        assert!(out.contains("plan cache: hits="), "{out}");
        let misses: u64 = out
            .split("misses=")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .expect("misses counter present");
        assert!(misses >= 1, "{out}");
    }

    #[test]
    fn explain_reports_stage_breakdown() {
        let out = run_line(&[
            "cite",
            "--data",
            "db",
            "--views",
            "views",
            "--explain",
            "--query",
            "Q(N) :- Family(F, N, Ty), F = \"11\"",
        ])
        .unwrap();
        assert!(out.contains("stages: "), "{out}");
        for stage in ["evaluate=", "rewrite=", "extent=", "render="] {
            assert!(out.contains(stage), "missing {stage} in {out}");
        }
    }

    #[test]
    fn cite_with_commits_stamps_versions() {
        let base = |version: &[&str]| {
            let mut line = vec![
                "cite",
                "--data",
                "db",
                "--views",
                "views",
                "--commits",
                "commits",
                "--query",
                "Q(N) :- Family(F, N, Ty)",
            ];
            line.extend_from_slice(version);
            run_line(&line).unwrap()
        };
        // head (version 2): Orexin removed, Melatonin present
        let head = base(&[]);
        assert!(head.contains("GtoPdb 25"), "{head}");
        assert!(head.contains("\"VersionId\": 2"), "{head}");
        // explicit historical version
        let v0 = base(&["--version", "0"]);
        assert!(v0.contains("\"base\""), "{v0}");
        // timestamp resolution lands on version 1
        let at = base(&["--at", "150"]);
        assert!(at.contains("GtoPdb 24"), "{at}");
        // --explain surfaces the fixity counters
        let explained = run_line(&[
            "cite",
            "--data",
            "db",
            "--views",
            "views",
            "--commits",
            "commits",
            "--explain",
            "--query",
            "Q(N) :- Family(F, N, Ty)",
        ])
        .unwrap();
        assert!(explained.contains("fixity: versions=3"), "{explained}");
        // --sql is the same request: the same stamped bytes as --query
        let mut sql: Vec<&str> = "cite --data db --views views --commits commits --sql"
            .split(' ')
            .collect();
        sql.push("SELECT f.FName FROM Family f");
        assert_eq!(run_line(&sql).unwrap(), head);
    }

    #[test]
    fn a_version_without_commits_is_refused() {
        for selector in ["--version=7", "--at=150"] {
            let line = [
                "cite",
                "--data=db",
                "--views=views",
                "--query=Q(N) :- R(N)",
                selector,
            ];
            let err = run_line(&line).unwrap_err();
            assert!(err.0.contains("--commits"), "{}", err.0);
        }
    }

    #[test]
    fn cite_with_commits_rejects_bad_flags() {
        let run_with = |extra: &[&str]| {
            let mut line = vec![
                "cite",
                "--data",
                "db",
                "--views",
                "views",
                "--commits",
                "commits",
            ];
            line.extend_from_slice(extra);
            run_line(&line)
        };
        assert!(run_with(&["--query", "Q(N) :- Family(F, N, Ty)", "--version", "9"]).is_err());
        assert!(run_with(&[
            "--query",
            "Q(N) :- Family(F, N, Ty)",
            "--version",
            "1",
            "--at",
            "100"
        ])
        .is_err());
        assert!(run_with(&["--query", "Q(N) :- Family(F, N, Ty)", "--version", "soon"]).is_err());
        assert!(run_with(&["--query", "Q(N) :- Family(F, N, Ty)", "--format", "bogus"]).is_err());
    }

    #[test]
    fn cite_with_commits_honors_format_and_exhaustive() {
        let run_with = |extra: &[&str]| {
            let mut line = vec![
                "cite",
                "--data",
                "db",
                "--views",
                "views",
                "--commits",
                "commits",
                "--query",
                "Q(N) :- Family(F, N, Ty), F = \"11\"",
            ];
            line.extend_from_slice(extra);
            run_line(&line).unwrap()
        };
        let xml = run_with(&["--format", "xml", "--version", "0"]);
        assert!(xml.contains("<citation>"), "{xml}");
        assert!(xml.contains("<Version>base</Version>"), "{xml}");
        let text = run_with(&["--format", "text", "--version", "0"]);
        assert!(text.contains("Version: base"), "{text}");
        assert!(
            !text.contains('{'),
            "text format must not emit JSON: {text}"
        );
        // --exhaustive reaches the versioned engine's rewrite search
        // (the single-view fixture makes pruned and exhaustive agree
        // on content; this pins that the flag is at least accepted
        // and still produces the stamped citation)
        let exhaustive = run_with(&["--exhaustive"]);
        assert!(exhaustive.contains("\"VersionId\": 2"), "{exhaustive}");
        assert!(exhaustive.contains("Calcitonin"), "{exhaustive}");
    }

    #[test]
    fn serve_with_commits_is_versioned() {
        let args = Args::parse(
            ["serve", "--addr=127.0.0.1:0", "--threads=2"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        let server = run_serve(&args, Some(DATA), VIEWS, Some(COMMITS)).unwrap();
        let mut client = fgc_server::Client::connect(server.addr()).unwrap();
        // historical citation via /cite_at
        let response = client
            .post(
                "/cite_at",
                r#"{"query": "Q(N) :- Family(F, N, Ty)", "version": 0}"#,
            )
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        assert!(response.body.contains("\"base\""), "{}", response.body);
        // /versions lists the whole history
        let versions = client.get("/versions").unwrap();
        assert_eq!(versions.status, 200);
        assert!(versions.body.contains("\"count\": 3"), "{}", versions.body);
        // /stats carries the fixity block
        let stats = client.get("/stats").unwrap();
        let parsed = fgc_server::parse_json(&stats.body).unwrap();
        let fixity = parsed.get("fixity").expect("fixity block");
        // one engine serves every version of the one catalog
        let int = |n| Some(fgc_views::Json::Int(n));
        assert_eq!(fixity.get("versions"), int(3).as_ref(), "{}", stats.body);
        assert_eq!(fixity.get("rebuilt"), int(1).as_ref(), "{}", stats.body);
        assert!(fixity.get("engine_capacity").is_none(), "{}", stats.body);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn serve_resumes_commits_over_a_persisted_history() {
        let dir = std::env::temp_dir().join(format!("fgc-cli-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = Args::parse(
            [
                "serve",
                "--addr=127.0.0.1:0",
                "--threads=2",
                &format!("--data-dir={}", dir.display()),
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        // first run: non-versioned, persists the base snapshot only
        let server = run_serve(&args, Some(DATA), VIEWS, None).unwrap();
        server.shutdown();
        // second run: same data dir plus --commits — the persisted
        // base is caught up to the file, not served as a 1-version
        // history with the flag silently dropped
        let server = run_serve(&args, None, VIEWS, Some(COMMITS)).unwrap();
        let mut client = fgc_server::Client::connect(server.addr()).unwrap();
        let versions = client.get("/versions").unwrap();
        assert_eq!(versions.status, 200);
        assert!(versions.body.contains("\"count\": 3"), "{}", versions.body);
        drop(client);
        server.shutdown();
        // third run: a commits file that conflicts with the now
        // fully-persisted chain is a structured error
        let err = run_serve(
            &args,
            None,
            VIEWS,
            Some("@commit 100 other\n+ Family | \"99\" | \"X\" | \"gpcr\""),
        )
        .unwrap_err();
        assert!(err.to_string().contains("diverged"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn views_command_lists() {
        let out = run_line(&["views", "--data", "db", "--views", "views"]).unwrap();
        assert!(out.contains("1 citation view(s)"));
        assert!(out.contains("V1(F, N, Ty)"));
    }

    #[test]
    fn suggest_command() {
        let out = run_line(&["suggest", "--data", "db", "--log", "log"]).unwrap();
        assert!(out.contains("support"), "{out}");
    }

    #[test]
    fn errors_are_reported() {
        assert!(run_line(&["cite", "--data", "db", "--views", "views"]).is_err());
        assert!(run_line(&["nope"]).is_err());
        assert!(run_line(&[
            "cite",
            "--data",
            "missing",
            "--views",
            "views",
            "--query",
            "Q(X) :- R(X)"
        ])
        .is_err());
        let bad_policy = run_line(&[
            "cite",
            "--data",
            "db",
            "--views",
            "views",
            "--policy",
            "wat",
            "--query",
            "Q(N) :- Family(F, N, Ty)",
        ]);
        assert!(bad_policy.is_err());
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_line(&["help"]).unwrap().contains("usage:"));
    }

    #[test]
    fn equals_syntax_parses_like_spaced() {
        let spaced = run_line(&[
            "cite",
            "--data",
            "db",
            "--views",
            "views",
            "--query",
            "Q(N) :- Family(F, N, Ty), F = \"11\"",
        ])
        .unwrap();
        let equals = run_line(&[
            "cite",
            "--data=db",
            "--views=views",
            "--query=Q(N) :- Family(F, N, Ty), F = \"11\"",
        ])
        .unwrap();
        assert_eq!(spaced, equals);
    }

    #[test]
    fn equals_syntax_mixes_with_spaced_and_bools() {
        let out = run_line(&[
            "cite",
            "--data=db",
            "--views",
            "views",
            "--format=text",
            "--explain",
            "--query",
            "Q(N) :- Family(F, N, Ty), F = \"11\"",
        ])
        .unwrap();
        assert!(out.contains("Hay, Poyner"));
        assert!(out.contains("rewritings considered:"));
    }

    #[test]
    fn equals_syntax_edge_cases() {
        // empty value is allowed (flag explicitly set to "")
        let args = Args::parse(["views".to_string(), "--data=".to_string()]).unwrap();
        assert_eq!(args.get("data"), Some(""));
        // value may itself contain `=`: split at the first one only
        let args = Args::parse([
            "cite".to_string(),
            "--query=Q(X) :- R(X), X = \"a\"".to_string(),
        ])
        .unwrap();
        assert_eq!(args.get("query"), Some("Q(X) :- R(X), X = \"a\""));
        // a boolean flag works in both spellings, and `=false`
        // actually disables it
        let args = Args::parse(["cite".to_string(), "--exhaustive=false".to_string()]).unwrap();
        assert_eq!(args.get("exhaustive"), Some("false"));
        assert!(!args.enabled("exhaustive"));
        let args = Args::parse(["cite".to_string(), "--exhaustive".to_string()]).unwrap();
        assert!(args.enabled("exhaustive"));
        let args = Args::parse(["cite".to_string(), "--exhaustive=true".to_string()]).unwrap();
        assert!(args.enabled("exhaustive"));
        assert!(!args.enabled("absent"));
        // malformed: no name before `=`
        assert!(Args::parse(["cite".to_string(), "--=x".to_string()]).is_err());
        assert!(Args::parse(["cite".to_string(), "--".to_string()]).is_err());
    }

    #[test]
    fn serve_config_parses_flags() {
        let args = Args::parse(
            ["serve", "--addr=127.0.0.1:9900", "--threads=3"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        let config = serve_config(&args).unwrap();
        assert_eq!(config.addr, "127.0.0.1:9900");
        assert_eq!(config.threads, 3);

        let bad = Args::parse(["serve".to_string(), "--threads=zero".to_string()]).unwrap();
        assert!(serve_config(&bad).is_err());
        let zero = Args::parse(["serve".to_string(), "--threads=0".to_string()]).unwrap();
        assert!(serve_config(&zero).is_err());
    }

    #[test]
    fn flags_a_command_does_not_take_are_rejected_by_name() {
        // a retired knob, a typo, and a real flag on the wrong command
        for (command, flag, name) in [
            ("serve", "--batch-window=1", "--batch-window"),
            ("serve", "--thread=8", "--thread"),
            ("serve", "--storage=disk", "--storage"),
            ("views", "--query=Q(X) :- R(X)", "--query"),
        ] {
            let Err(err) = Args::parse([command.to_string(), flag.to_string()]) else {
                panic!("`{command} {flag}` should be rejected");
            };
            let message = err.to_string();
            assert!(message.contains(name), "{message}");
            assert!(message.contains("usage:"), "{message}");
        }
        // the spaced spelling is refused before it swallows a value
        let spaced = ["serve", "--thread", "8"].map(String::from);
        assert!(Args::parse(spaced).is_err());
    }

    #[test]
    fn usage_and_accepted_flags_list_the_same_flags() {
        // a `  fgcite CMD ...` line opens a synopsis block (`serve`
        // has two) that runs to the blank line ending the synopsis
        let mut listed: HashMap<&str, std::collections::BTreeSet<&str>> = HashMap::new();
        let mut command = None;
        for line in USAGE.lines().skip(1).take_while(|l| !l.is_empty()) {
            if let Some(rest) = line.strip_prefix("  fgcite ") {
                command = rest.split_whitespace().next();
            }
            let flags = listed.entry(command.expect("synopsis line")).or_default();
            for word in line.split(|c: char| !(c.is_ascii_lowercase() || c == '-')) {
                if let Some(flag) = word.strip_prefix("--") {
                    flags.insert(flag);
                }
            }
        }
        for (command, accepted) in ACCEPTED_FLAGS {
            let accepted: std::collections::BTreeSet<&str> = accepted.split_whitespace().collect();
            assert_eq!(
                listed.remove(command).unwrap_or_default(),
                accepted,
                "USAGE and ACCEPTED_FLAGS disagree on `{command}`"
            );
        }
        assert!(listed.is_empty(), "USAGE-only commands: {listed:?}");
    }

    #[test]
    fn serve_config_parses_deadline_flags() {
        let args = Args::parse(
            [
                "serve",
                "--deadline-ms=1500",
                "--max-deadline-ms=60000",
                "--header-timeout-ms=250",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        let config = serve_config(&args).unwrap();
        assert_eq!(
            config.default_deadline,
            std::time::Duration::from_millis(1500)
        );
        assert_eq!(config.max_deadline, std::time::Duration::from_millis(60000));
        assert_eq!(
            config.header_read_timeout,
            std::time::Duration::from_millis(250)
        );
        for bad in [
            "--deadline-ms=0",
            "--max-deadline-ms=soon",
            "--header-timeout-ms=-5",
        ] {
            let args = Args::parse(["serve".to_string(), bad.to_string()]).unwrap();
            assert!(serve_config(&args).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn fault_flags_accumulate_and_arm_the_plane() {
        // the flag is repeatable: occurrences join with `;`
        let args = Args::parse(
            [
                "serve",
                "--fault=cli.test.point=error@nth:1",
                "--fault",
                "cli.test.other=delay:1",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(
            args.get("fault"),
            Some("cli.test.point=error@nth:1;cli.test.other=delay:1")
        );
        apply_faults(&args).unwrap();
        let plane = fgcite_fault_plane();
        let armed: Vec<String> = plane
            .snapshot()
            .into_iter()
            .filter(|p| p.armed)
            .map(|p| p.name)
            .collect();
        assert!(armed.iter().any(|p| p == "cli.test.point"), "{armed:?}");
        assert!(armed.iter().any(|p| p == "cli.test.other"), "{armed:?}");
        plane.disarm("cli.test.point");
        plane.disarm("cli.test.other");

        // malformed specs and seeds are structured errors
        let bad = Args::parse(["serve".to_string(), "--fault=nonsense".to_string()]).unwrap();
        let err = apply_faults(&bad).unwrap_err();
        assert!(err.to_string().contains("point=action"), "{err}");
        let bad_seed =
            Args::parse(["serve".to_string(), "--fault-seed=entropy".to_string()]).unwrap();
        assert!(apply_faults(&bad_seed).is_err());
    }

    fn fgcite_fault_plane() -> &'static fgc_fault::FaultPlane {
        fgc_fault::global()
    }

    #[test]
    fn run_serve_starts_and_answers_healthz() {
        let args = Args::parse(
            ["serve", "--addr=127.0.0.1:0", "--threads=2"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        let server = run_serve(&args, Some(DATA), VIEWS, None).unwrap();
        let mut client = fgc_server::Client::connect(server.addr()).unwrap();
        let response = client.get("/healthz").unwrap();
        assert_eq!(response.status, 200);
        assert!(response.body.contains("ok"));
        server.shutdown();
    }

    #[test]
    fn shard_flags_validate() {
        // no replica owns a shard: the role, shard and twin flags are
        // refused by name, before anything binds
        for flag in [
            "--role=replica",
            "--shard-id=0/2",
            "--shard-key=Family=FID",
            "--shards=2",
            "--twins=127.0.0.1:1",
        ] {
            let line = ["serve".to_string(), flag.to_string()];
            let Err(err) = Args::parse(line) else {
                panic!("{flag} must be refused");
            };
            let name = flag.split('=').next().unwrap();
            assert!(err.0.contains(&format!("unknown flag {name}")), "{err}");
        }
    }

    fn parse_args(line: &[String]) -> Args {
        Args::parse(line.to_vec()).unwrap()
    }

    fn replica_args() -> Args {
        parse_args(&[
            "serve".to_string(),
            "--addr=127.0.0.1:0".to_string(),
            "--threads=2".to_string(),
        ])
    }

    #[test]
    fn serve_replica_and_coordinator_roles() {
        // a replica is a plain engine server
        let r0 = run_serve(&replica_args(), Some(DATA), VIEWS, None).unwrap();
        let r1 = run_serve(&replica_args(), Some(DATA), VIEWS, None).unwrap();

        // --replicas makes a coordinator, which serves the same wire
        // format by forwarding to them
        let coord = run_serve_coordinator(&parse_args(&[
            "serve".to_string(),
            "--addr=127.0.0.1:0".to_string(),
            "--threads=2".to_string(),
            format!("--replicas={},{}", r0.addr(), r1.addr()),
        ]))
        .unwrap();
        let mut client = fgc_server::Client::connect(coord.addr()).unwrap();
        let response = client
            .post(
                "/cite",
                r#"{"query": "Q(N) :- Family(F, N, Ty), F = \"11\""}"#,
            )
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        assert!(response.body.contains("Calcitonin"), "{}", response.body);
        let health = client.get("/healthz").unwrap();
        assert!(health.body.contains("coordinator"), "{}", health.body);
        let stats = client.get("/stats").unwrap();
        let parsed = fgc_server::parse_json(&stats.body).unwrap();
        assert!(parsed.get("replicas").is_some(), "{}", stats.body);
        drop(client);
        coord.shutdown();
        r0.shutdown();
        r1.shutdown();
    }

    #[test]
    fn distributed_role_flags_validate() {
        let serve_with = |extra: &[&str]| {
            let mut line = vec!["serve".to_string(), "--addr=127.0.0.1:0".to_string()];
            line.extend(extra.iter().map(|s| s.to_string()));
            run_serve(&parse_args(&line), Some(DATA), VIEWS, None)
        };
        // a coordinator never goes through run_serve, and an engine
        // server has no replica calls to time out
        let err = serve_with(&["--replicas=127.0.0.1:1"]).unwrap_err();
        assert!(err.0.contains("run_serve_coordinator"), "{err}");
        let err = serve_with(&["--replica-timeout-ms=5"]).unwrap_err();
        assert!(err.0.contains("requires --replicas"), "{err}");
        // run_serve_coordinator rejects data files, missing or empty
        // replica lists, bad addresses, and bad timeouts
        let coordinate = |extra: &[&str]| {
            let mut line = vec!["serve".to_string()];
            line.extend(extra.iter().map(|s| s.to_string()));
            run_serve_coordinator(&parse_args(&line))
        };
        assert!(coordinate(&["--replicas=127.0.0.1:1", "--data=db"]).is_err());
        assert!(coordinate(&[]).is_err());
        assert!(coordinate(&["--replicas=,"]).is_err());
        assert!(coordinate(&["--replicas=not an address"]).is_err());
        assert!(coordinate(&["--replicas=127.0.0.1:1", "--replica-timeout-ms=soon"]).is_err());
        assert!(coordinate(&["--replicas=127.0.0.1:1", "--replica-timeout-ms=0"]).is_err());
        // a dead replica is a hard connect error
        assert!(coordinate(&["--replicas=127.0.0.1:1"]).is_err());
    }

    #[test]
    fn serve_via_run_points_at_the_binary() {
        let err = run_line(&["serve", "--data", "db", "--views", "views"]).unwrap_err();
        assert!(err.0.contains("run_serve"), "{err}");
    }
}
