//! The shared harness of the integration suites.
//!
//! Every equivalence suite checks one claim: a *candidate* — a
//! disk-backed engine, a versioned engine walked in some order, a
//! coordinator over replicas, a fleet behind a chaos proxy — answers
//! every request exactly as the [`Reference`] does. The reference is
//! the simplest configuration there is: one process, in memory, an engine built from scratch per version with its token and
//! plan caches off. [`assert_same`] runs the comparison and names the
//! candidate, the fixture (seed included) and the first request that
//! differs.
//!
//! The rest is what the suites share: the fixtures and one query mix,
//! the strict renders, request bodies, a temp dir that deletes itself,
//! server start-up, and the evaluator-level folds of the oracle's
//! derivations. Each suite uses only part of this module.

#![allow(dead_code)]

pub mod build;
pub mod order;

use fgcite::dist::{Coordinator, CoordinatorConfig, DistServer};
use fgcite::engine::QuerySpec;
use fgcite::gtopdb::rng::SmallRng;
use fgcite::gtopdb::{
    generate, paper_instance, paper_views, type_name, GeneratorConfig, WorkloadGenerator,
};
use fgcite::prelude::*;
use fgcite::query::{
    evaluate, evaluate_annotated, evaluate_grouped, reference_derivations, Binding,
};
use fgcite::semiring::{CommutativeSemiring, Polynomial};
use fgcite::server::{parse_json, Client, ClientResponse};
use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write as _};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

/// The shared query mix (the crates' own tests use it too).
pub use fgcite::gtopdb::PAPER_QUERIES as QUERIES;

/// [`QUERIES`], parsed.
pub fn queries() -> Vec<ConjunctiveQuery> {
    QUERIES.iter().map(|q| parse_query(q).unwrap()).collect()
}

/// Generated GtoPdb-shaped data.
pub fn gtopdb(families: usize, seed: u64) -> Database {
    generate(
        &GeneratorConfig::default()
            .with_families(families)
            .with_seed(seed),
    )
}

/// The generator's default seed.
pub fn default_seed() -> u64 {
    GeneratorConfig::default().seed
}

/// `n` ad-hoc workload queries over `db`, drawn with `seed`.
pub fn workload(db: &Database, seed: u64, n: usize) -> Vec<ConjunctiveQuery> {
    WorkloadGenerator::new(db, seed).ad_hoc_batch(n)
}

/// The versioned suites' query mix: one query per join depth over the
/// relations [`random_commit`] changes.
pub fn history_queries() -> Vec<ConjunctiveQuery> {
    [
        "Q(N) :- Family(F, N, Ty)",
        "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = \"gpcr\"",
        "Q(Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)",
    ]
    .iter()
    .map(|s| parse_query(s).unwrap())
    .collect()
}

/// Append one randomized commit to `history`. `kind`: 0 inserts,
/// 1 deletes, 2 mixed, 3 empty, 4 churn — the shapes where the diff of
/// two snapshots and the ops as performed differ: one row removed and
/// reinserted (it moves to the end), a fresh row inserted and removed,
/// a duplicate insert, an absent remove and a read-only `relation_mut`
/// touch. Decisions are drawn from `rng` *inside* the commit closure so
/// deletes can target rows that exist in the working copy.
pub fn random_commit(
    history: &mut VersionedDatabase,
    rng: &mut SmallRng,
    step: usize,
    kind: usize,
) {
    let timestamp = (step as u64 + 1) * 100;
    history
        .commit_with(timestamp, format!("v{}", step + 1), |db| {
            if kind == 0 || kind == 2 {
                let inserts = rng.gen_range(1..=3);
                for i in 0..inserts {
                    let fid = format!("nf{step}-{i}");
                    let ty = type_name(rng.gen_range(0..3));
                    db.insert("Family", tuple![fid.clone(), format!("New-{step}-{i}"), ty])?;
                    db.insert(
                        "FC",
                        tuple![fid.clone(), format!("p{}", rng.gen_range(0..20))],
                    )?;
                    if rng.gen_bool(0.5) {
                        db.insert(
                            "FamilyIntro",
                            tuple![fid.clone(), format!("Intro {step}-{i}")],
                        )?;
                        db.insert("FIC", tuple![fid, format!("p{}", rng.gen_range(0..20))])?;
                    }
                }
            }
            if kind == 1 || kind == 2 {
                for _ in 0..rng.gen_range(1..=3) {
                    let relation = ["Family", "FC", "FamilyIntro", "FIC"][rng.gen_range(0..4)];
                    let rows = db.relation(relation)?.rows();
                    if rows.is_empty() {
                        continue;
                    }
                    let victim = rows[rng.gen_range(0..rows.len())].clone();
                    db.remove(relation, &victim)?;
                }
            }
            if kind == 4 {
                let relation = ["Family", "FC", "FamilyIntro", "FIC"][rng.gen_range(0..4)];
                let rows = db.relation(relation)?.rows();
                if !rows.is_empty() {
                    let row = rows[rng.gen_range(0..rows.len())].clone();
                    db.remove(relation, &row)?;
                    db.insert(relation, row.clone())?;
                    assert!(!db.insert(relation, row)?, "a duplicate insert is a no-op");
                }
                let fresh = tuple![format!("gone{step}"), format!("p{}", rng.gen_range(0..20))];
                db.insert("FC", fresh.clone())?;
                db.remove("FC", &fresh)?;
                assert!(!db.remove("FIC", &tuple!["absent", "absent"])?);
                db.relation_mut("Person")?;
            }
            Ok(())
        })
        .expect("commit applies");
}

/// The paper instance committed three times: `v23` at 100, `v24` (adds
/// Melatonin) at 200, `v25` (adds Ghrelin) at 300.
pub fn paper_history() -> VersionedDatabase {
    let mut history = VersionedDatabase::new();
    history.commit(paper_instance(), 100, "v23").unwrap();
    for (at, label, id, name) in [
        (200, "v24", "20", "Melatonin"),
        (300, "v25", "21", "Ghrelin"),
    ] {
        let family = tuple![id, name, "gpcr"];
        let insert = |db: &mut Database| db.insert("Family", family).map(|_| ());
        history.commit_with(at, label, insert).unwrap();
    }
    history
}

/// An engine citing `db` through the paper's views.
pub fn engine(db: Database) -> CitationEngine {
    CitationEngine::new(db, paper_views()).expect("paper views validate")
}

/// `engine` citing exhaustively under the union policy.
pub fn exhaustive_union(engine: CitationEngine) -> CitationEngine {
    engine
        .with_policy(Policy::union_all())
        .with_options(EngineOptions {
            mode: RewriteMode::Exhaustive,
            ..EngineOptions::default()
        })
}

// ---------------------------------------------------------------------
// Renders and request bodies
// ---------------------------------------------------------------------

/// Every byte a citation carries: tuples in order with their symbolic
/// expressions (`Debug`, so polynomials compare term for term) and
/// citations, the aggregate, the rewriting labels and the flags.
pub fn render(citation: &QueryCitation) -> String {
    let mut out = String::new();
    for tc in &citation.tuples {
        let _ = writeln!(
            out,
            "{} | {:?} | {}",
            tc.tuple,
            tc.expr,
            tc.citation.to_compact()
        );
    }
    let _ = writeln!(out, "aggregate: {}", citation.aggregate.to_compact());
    for (label, rewriting) in &citation.rewritings {
        let _ = writeln!(out, "{label} := {rewriting}");
    }
    let _ = write!(
        out,
        "exhaustive={} unsatisfiable={}",
        citation.exhaustive, citation.unsatisfiable
    );
    out
}

/// [`render`] under the fixity stamp.
pub fn render_versioned(cited: &VersionedCitation) -> String {
    let stamp = cited.stamped_aggregate().to_compact();
    format!("{stamp}\n{}", render(&cited.citation))
}

/// A `/cite` body for Datalog text, escaped for JSON.
pub fn cite_body(query: &str) -> String {
    let escaped = query.replace('\\', "\\\\").replace('"', "\\\"");
    format!(r#"{{"query": "{escaped}"}}"#)
}

/// A response body with its volatile fields (timing, cache counters)
/// zeroed, so two answers to one request compare byte for byte.
pub fn normalized(body: &str) -> String {
    let mut parsed = parse_json(body).expect("response is JSON");
    for volatile in ["elapsed_us", "cache_hits", "cache_misses"] {
        if parsed.get(volatile).is_some() {
            parsed.set(volatile, Json::Int(0));
        }
    }
    parsed.to_compact()
}

// ---------------------------------------------------------------------
// Temp dirs and servers
// ---------------------------------------------------------------------

/// A unique path under the system temp dir, removed (directory or
/// file) on drop — also when an assertion fails first.
pub struct TempDir(PathBuf);

impl TempDir {
    /// A fresh path; nothing is created on disk.
    pub fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let name = format!("fgc-test-{tag}-{}-{n}", std::process::id());
        TempDir(std::env::temp_dir().join(name))
    }
}

impl Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A loopback server config on an ephemeral port, two workers.
pub fn server_config() -> ServerConfig {
    ServerConfig::default()
        .with_addr("127.0.0.1:0")
        .with_threads(2)
}

/// A single-process server over `db`.
pub fn start_reference(db: &Database) -> CiteServer {
    CiteServer::start(Arc::new(engine(db.clone())), server_config()).expect("server starts")
}

/// A replica over `db`: an ordinary engine server, reporting the
/// `replica` role.
pub fn start_replica(db: &Database) -> CiteServer {
    start_replica_with(db, server_config())
}

/// [`start_replica`] under a given server config.
pub fn start_replica_with(db: &Database, config: ServerConfig) -> CiteServer {
    let engine = Arc::new(engine(db.clone()));
    CiteServer::start(engine, config.with_role("replica")).expect("replica starts")
}

/// A coordinator front door.
pub fn start_coordinator(config: CoordinatorConfig) -> DistServer {
    let coordinator = Coordinator::connect(config).expect("coordinator connects");
    DistServer::start(Arc::new(coordinator), server_config()).expect("coordinator serves")
}

/// The sum of the `/metrics` samples whose line starts with `family`
/// and contains `label`.
pub fn metric(body: &str, family: &str, label: &str) -> u64 {
    let sample = |l: &str| l.split_whitespace().last()?.parse::<u64>().ok();
    let lines = body
        .lines()
        .filter(|l| l.starts_with(family) && l.contains(label));
    lines.filter_map(sample).sum()
}

/// Assert `response` is the structured outage a coordinator answers
/// when no replica is live: a 503 naming the replicas it tried.
/// Returns the parsed body.
pub fn assert_outage(response: &ClientResponse) -> Json {
    let body = &response.body;
    assert_eq!(response.status, 503, "{body}");
    let parsed = parse_json(body).unwrap();
    let error = parsed.get("error");
    let named = matches!(error, Some(Json::Str(m)) if m.contains("no live replica"));
    assert!(named, "{body}");
    let tried = parsed.get("replicas_tried");
    assert!(
        matches!(tried, Some(Json::Array(t)) if !t.is_empty()),
        "{body}"
    );
    parsed
}

/// Open a request head on `addr` and drip one header byte at a time,
/// never completing a line, until the server answers; returns
/// everything the server sent before closing. Writing stops as soon as anything comes back,
/// so a buffered 408 cannot be discarded by a reset.
pub fn drip_header(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    stream.write_all(b"POST /cite HTTP/1.1\r\n").unwrap();
    let mut raw = Vec::new();
    let mut buf = [0u8; 1024];
    let give_up = Instant::now() + Duration::from_secs(10);
    while raw.is_empty() && Instant::now() < give_up {
        if stream.write_all(b"x").is_err() {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(_) => {} // read timeout: keep dripping
        }
    }
    while let Ok(n) = stream.read(&mut buf) {
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&buf[..n]);
    }
    String::from_utf8_lossy(&raw).into_owned()
}

// ---------------------------------------------------------------------
// The reference and the comparison
// ---------------------------------------------------------------------

/// One request every candidate answers.
#[derive(Debug, Clone)]
pub enum Request {
    /// `cite_request` at the head version, overrides honored.
    Cite(CiteRequest),
    /// `cite_request` at one version, overrides honored, fixity stamp
    /// included.
    At(u64, CiteRequest),
    /// A POST of a body to a path on a server.
    Post(&'static str, String),
}

impl Request {
    /// A plain query cited at the head.
    pub fn cite(q: &ConjunctiveQuery) -> Request {
        Request::Cite(CiteRequest::query(q.clone()))
    }

    /// `POST /cite` of Datalog text.
    pub fn post(query: &str) -> Request {
        Request::Post("/cite", cite_body(query))
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Cite(r) => {
                match &r.query {
                    QuerySpec::Datalog(q) => write!(f, "cite {q}")?,
                    QuerySpec::Sql(sql) => write!(f, "cite sql {sql}")?,
                }
                write!(f, " mode={:?} policy={:?}", r.mode, r.policy)
            }
            Request::At(v, r) => write!(f, "{} at version {v}", Request::Cite(r.clone())),
            Request::Post(path, body) => write!(f, "POST {path} {body}"),
        }
    }
}

/// Plain queries cited at the head, in order.
pub fn cites(queries: &[ConjunctiveQuery]) -> Vec<Request> {
    queries.iter().map(Request::cite).collect()
}

/// Datalog texts posted to `/cite`, in order.
pub fn posts(queries: &[impl AsRef<str>]) -> Vec<Request> {
    queries.iter().map(|q| Request::post(q.as_ref())).collect()
}

/// Each query as given, and again exhaustive under the union policy.
pub fn both_modes(queries: &[ConjunctiveQuery]) -> Vec<Request> {
    let exhaustive = |q: &ConjunctiveQuery| {
        let request = CiteRequest::query(q.clone()).with_policy(Policy::union_all());
        Request::Cite(request.with_mode(RewriteMode::Exhaustive))
    };
    let mut requests = cites(queries);
    requests.extend(queries.iter().map(exhaustive));
    requests
}

/// Every query at every version of a walk, in walk order.
pub fn walk(versions: &[u64], queries: &[ConjunctiveQuery]) -> Vec<Request> {
    let requests: Vec<CiteRequest> = queries.iter().cloned().map(CiteRequest::query).collect();
    let at = |&v| requests.iter().map(move |r| Request::At(v, r.clone()));
    versions.iter().flat_map(at).collect()
}

/// `q` cited at the version `at` selects, through the versioned
/// engine's one entry point.
pub fn cite_at(
    engine: &VersionedCitationEngine,
    at: VersionSelector,
    q: &ConjunctiveQuery,
) -> fgcite::engine::Result<VersionedCitation> {
    engine.cite(at, &CiteRequest::query(q.clone()))
}

/// Something that answers [`Request`]s. An answer is a string: the
/// strict render in process, status plus normalized body over HTTP.
/// Errors render too, so a candidate must fail where the reference
/// fails.
pub trait Candidate {
    /// The rendered answer to `request`.
    fn answer(&self, request: &Request) -> String;
}

fn outcome<E: fmt::Display>(result: Result<String, E>) -> String {
    result.unwrap_or_else(|e| format!("error: {e}"))
}

impl Candidate for CitationEngine {
    fn answer(&self, request: &Request) -> String {
        let Request::Cite(r) = request else {
            panic!("an unversioned engine cannot answer {request}");
        };
        outcome(self.cite_request(r).map(|r| render(&r.citation)))
    }
}

impl Candidate for VersionedCitationEngine {
    fn answer(&self, request: &Request) -> String {
        let Request::At(v, r) = request else {
            panic!("a versioned engine answers requests at a version, not {request}");
        };
        let cited = self.cite(VersionSelector::Id(*v), r);
        outcome(cited.map(|c| render_versioned(&c)))
    }
}

/// A server, one fresh connection per request.
impl Candidate for SocketAddr {
    fn answer(&self, request: &Request) -> String {
        let Request::Post(path, body) = request else {
            panic!("a server answers POSTs, not {request}");
        };
        match Client::connect(*self).and_then(|mut client| client.post(path, body)) {
            Ok(r) if r.status == 200 => format!("200 {}", normalized(&r.body)),
            // error bodies carry no volatile fields
            Ok(r) => format!("{} {}", r.status, r.body),
            Err(e) => format!("transport error: {e}"),
        }
    }
}

/// The ground truth: one process, in memory, the paper's
/// views; per version an engine built from scratch on the snapshot,
/// token and plan caches off. POSTs go to a single-process server over
/// the head version's engine, started on first use.
pub struct Reference {
    /// What the data is, seed included: failure messages name it.
    fixture: String,
    history: VersionedDatabase,
    engines: Mutex<HashMap<u64, Arc<CitationEngine>>>,
    server: OnceLock<CiteServer>,
    /// Answers by request (its `Debug` text): the reference is a pure
    /// function of the request, so each one is computed once.
    answers: Mutex<HashMap<String, String>>,
}

impl Reference {
    /// The reference over one database.
    pub fn new(fixture: impl Into<String>, db: Database) -> Reference {
        let mut history = VersionedDatabase::new();
        history.commit(db, 0, "v0").expect("first commit");
        Reference::versioned(fixture, history)
    }

    /// The reference over every version of a history.
    pub fn versioned(fixture: impl Into<String>, history: VersionedDatabase) -> Reference {
        Reference {
            fixture: fixture.into(),
            history,
            engines: Mutex::default(),
            server: OnceLock::new(),
            answers: Mutex::default(),
        }
    }

    fn engine(&self, version: u64) -> Arc<CitationEngine> {
        let mut engines = self.engines.lock().unwrap();
        let build = || {
            let (_, snapshot) = self.history.snapshot(version).expect("reference version");
            let engine = engine((**snapshot).clone())
                .with_cache_capacity(0)
                .with_plan_cache_capacity(0);
            Arc::new(engine)
        };
        Arc::clone(engines.entry(version).or_insert_with(build))
    }

    fn head(&self) -> u64 {
        self.history.len() as u64 - 1
    }

    /// `request` served at version `v`, with its fixity stamp.
    pub fn cite_at(
        &self,
        v: u64,
        request: &CiteRequest,
    ) -> fgcite::engine::Result<VersionedCitation> {
        let (info, _) = self.history.snapshot(v).expect("reference version");
        let response = self.engine(v).cite_request(request)?;
        Ok(VersionedCitation::new(info, response.citation))
    }
}

impl Candidate for Reference {
    fn answer(&self, request: &Request) -> String {
        let key = format!("{request:?}");
        if let Some(answer) = self.answers.lock().unwrap().get(&key) {
            return answer.clone();
        }
        let answer = self.compute(request);
        self.answers.lock().unwrap().insert(key, answer.clone());
        answer
    }
}

impl Reference {
    fn compute(&self, request: &Request) -> String {
        match request {
            Request::Cite(_) => self.engine(self.head()).answer(request),
            Request::At(v, r) => outcome(self.cite_at(*v, r).map(|c| render_versioned(&c))),
            Request::Post(..) => {
                let engine = self.engine(self.head());
                let server = self.server.get_or_init(|| {
                    CiteServer::start(engine, server_config()).expect("reference server starts")
                });
                server.addr().answer(request)
            }
        }
    }
}

/// Borrow `(name, candidate)` pairs as [`assert_same`] takes them.
pub fn named<C: Candidate>(candidates: &[(String, C)]) -> Vec<(&str, &dyn Candidate)> {
    candidates
        .iter()
        .map(|(name, c)| (name.as_str(), c as &dyn Candidate))
        .collect()
}

/// Every candidate answers every request exactly as `reference` does.
/// Requests run in order, each candidate in turn, so a candidate with
/// state (a warm cache, a warm version) sees the requests in the order
/// given.
pub fn assert_same(
    reference: &Reference,
    candidates: &[(&str, &dyn Candidate)],
    requests: &[Request],
) {
    for (i, request) in requests.iter().enumerate() {
        let expected = reference.answer(request);
        for (name, candidate) in candidates {
            let actual = candidate.answer(request);
            assert!(
                actual == expected,
                "{name} differs from the reference ({}) at request {i}: {request}\n\
                 --- reference\n{expected}\n--- {name}\n{actual}",
                reference.fixture
            );
        }
    }
}

// ---------------------------------------------------------------------
// The evaluator's collectors against the oracle
// ---------------------------------------------------------------------

/// The three collectors' outputs in a form that ignores order: sorted
/// answers, sorted `(tuple, sorted bindings)` groups, and provenance
/// polynomials over `relation:row` tokens sorted by tuple.
#[derive(Debug, PartialEq)]
pub struct Collected {
    pub answers: Vec<Tuple>,
    pub grouped: Vec<(Tuple, Vec<BTreeMap<String, Value>>)>,
    pub annotated: Vec<(Tuple, Polynomial<String>)>,
}

/// The annotation of a base row: its own provenance token.
pub fn row_token(relation: &str, row: usize) -> Polynomial<String> {
    Polynomial::token(format!("{relation}:{row}"))
}

impl Collected {
    /// The oracle's derivations, folded: distinct heads, bindings
    /// grouped by head, and per head the sum over its derivations of
    /// the product of the matched rows' tokens.
    pub fn by_definition(db: &Database, q: &ConjunctiveQuery) -> Collected {
        let mut grouped: BTreeMap<Tuple, Vec<Binding>> = BTreeMap::new();
        let mut annotated: BTreeMap<Tuple, Polynomial<String>> = BTreeMap::new();
        for d in reference_derivations(db, q).expect("reference derivations") {
            let product = d.rows.iter().fold(Polynomial::one(), |p, (relation, row)| {
                p.times(&row_token(relation, *row))
            });
            let sum = annotated
                .entry(d.head.clone())
                .or_insert_with(Polynomial::zero);
            *sum = sum.plus(&product);
            grouped.entry(d.head).or_default().push(d.binding);
        }
        let answers = grouped.keys().cloned().collect();
        Collected::sorted(
            answers,
            grouped.into_iter().collect(),
            annotated.into_iter().collect(),
        )
    }

    /// What `evaluate`, `evaluate_grouped` and `evaluate_annotated`
    /// return over `db`.
    pub fn by_executor(db: &Database, q: &ConjunctiveQuery) -> Collected {
        Collected::sorted(
            evaluate(db, q).expect("evaluate"),
            evaluate_grouped(db, q).expect("evaluate_grouped"),
            evaluate_annotated(db, q, row_token).expect("evaluate_annotated"),
        )
    }

    /// The three collectors' outputs in order-insensitive form.
    pub fn sorted(
        mut answers: Vec<Tuple>,
        grouped: Vec<(Tuple, Vec<Binding>)>,
        mut annotated: Vec<(Tuple, Polynomial<String>)>,
    ) -> Collected {
        answers.sort();
        let mut grouped: Vec<_> = grouped
            .into_iter()
            .map(|(t, bindings)| {
                let mut bindings: Vec<BTreeMap<_, _>> = bindings
                    .into_iter()
                    .map(|b| b.into_iter().collect())
                    .collect();
                bindings.sort();
                (t, bindings)
            })
            .collect();
        grouped.sort();
        annotated.sort_by(|a, b| a.0.cmp(&b.0));
        Collected {
            answers,
            grouped,
            annotated,
        }
    }
}
