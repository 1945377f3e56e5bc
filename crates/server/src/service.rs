//! The one HTTP front door: everything between the socket and a
//! route's handler, shared by every serving role.
//!
//! ```text
//! acceptor thread ──► bounded connection queue ──► N worker threads
//!                                                    │ keep-alive loop: read → route → write
//!                                                    ▼
//!                                   route table (method, path, stats, handler)
//!                                                    │ the handler runs on this worker
//!                                                    ▼
//!                                       engine (or a replica call)
//! ```
//!
//! [`HttpService`] owns bind, the accept loop, the worker pool, the
//! framing-error → 4xx mapping, request-ID and deadline assignment,
//! the `in_flight` gauge, the slow log (and its `GET /debug/slow`
//! row), per-route [`EndpointStats`] timing, 404/405 generation, and
//! graceful shutdown. A role is nothing but the [`Route`] rows it
//! hands to [`HttpService::start`]: the engine routes of
//! [`crate::CiteServer`] and the coordinator's forwarding routes
//! both plug into this one loop.
//!
//! Shutdown ([`HttpService::shutdown`], or dropping the handle) is
//! graceful and total: the accept loop is woken and exits, the
//! connection queue drains, and every worker finishes its in-flight
//! response before joining.

use crate::http::{
    deadline_from, read_request_with_deadline, remaining_ms, write_response_with, HttpError,
    HttpRequest,
};
use crate::stats::{EndpointStats, ServerStats};
use crate::wire::error_body;
use fgc_obs::{next_request_id, SlowEntry, SlowLog};
use fgc_views::Json;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many of the slowest requests `GET /debug/slow` retains.
pub const SLOW_LOG_CAPACITY: usize = 32;
/// Depth of the bounded connection queue (overflow blocks the
/// acceptor).
pub const QUEUE_DEPTH: usize = 1024;
/// Largest accepted request body (overflow → 413).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Idle keep-alive read timeout before a connection is recycled.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// The one 504 body, whichever stage noticed the budget was gone.
const DEADLINE_EXCEEDED: &str = "deadline exceeded before a response was produced";

const JSON_TYPE: &str = "application/json";
const PROMETHEUS_TYPE: &str = "text/plain; version=0.0.4";

/// Server configuration; the defaults suit a loopback deployment.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker threads handling connections; a handler runs on the
    /// worker that read its request, so this also bounds how many
    /// engine calls run at once.
    pub threads: usize,
    /// Total time a client gets to deliver a complete request head
    /// (request line + headers) once the worker starts reading it. A
    /// slow-drip head (one byte per read timeout) is cut off with a
    /// 408 when this budget runs out instead of occupying the worker
    /// indefinitely.
    pub header_read_timeout: Duration,
    /// End-to-end budget assigned to a request that carries no
    /// `x-deadline-ms` header.
    pub default_deadline: Duration,
    /// Ceiling clamped onto any client-supplied `x-deadline-ms` — a
    /// client cannot pin a worker longer than the operator allows.
    pub max_deadline: Duration,
    /// Deployment role reported on `GET /healthz` and as the `role`
    /// label on `GET /metrics` (`"single"`, `"replica"`, or
    /// `"coordinator"`).
    pub role: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8787".into(),
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
            header_read_timeout: Duration::from_secs(10),
            default_deadline: Duration::from_secs(30),
            max_deadline: Duration::from_secs(300),
            role: "single".into(),
        }
    }
}

impl ServerConfig {
    /// Builder: bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Builder: worker thread count (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builder: default end-to-end deadline for requests without an
    /// `x-deadline-ms` header.
    pub fn with_default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = deadline;
        self
    }

    /// Builder: ceiling on any client-supplied `x-deadline-ms`.
    pub fn with_max_deadline(mut self, deadline: Duration) -> Self {
        self.max_deadline = deadline;
        self
    }

    /// Builder: total budget for receiving one request head.
    pub fn with_header_read_timeout(mut self, timeout: Duration) -> Self {
        self.header_read_timeout = timeout;
        self
    }

    /// Builder: deployment role reported on `/healthz`.
    pub fn with_role(mut self, role: impl Into<String>) -> Self {
        self.role = role.into();
        self
    }

    /// The config unchanged: no replica owns a shard. Kept for
    /// `benchmark/src/stack.rs:185`.
    pub fn with_shard(self, _shard: usize, _shards: usize) -> Self {
        self
    }
}

/// One routed request as a handler sees it: the parsed request, the
/// identity and budget the front door assigned to it, and the
/// service's counters.
#[derive(Debug)]
pub struct Call<'a> {
    /// The parsed request.
    pub request: &'a HttpRequest,
    /// The `x-request-id` honored from the client or assigned here;
    /// echoed on the response and keyed into the slow log.
    pub request_id: &'a str,
    /// The end-to-end deadline (`x-deadline-ms` clamped, or the
    /// server default); every downstream stage works against it.
    pub deadline: Instant,
    /// The serving counters this service records into.
    pub stats: &'a ServerStats,
}

/// What a handler answers. The content type travels with the
/// response, so an error on any route is labelled as the JSON it is.
#[derive(Debug)]
pub struct Response {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Per-stage durations for the slow log (cite routes only; other
    /// routes report an empty breakdown).
    pub stages: Vec<(&'static str, Duration)>,
}

impl Response {
    /// A JSON response (every route's errors, and most routes' 200s).
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            body,
            content_type: JSON_TYPE,
            stages: Vec::new(),
        }
    }

    /// A 200 Prometheus text exposition (`GET /metrics`).
    pub fn prometheus(body: String) -> Response {
        Response {
            content_type: PROMETHEUS_TYPE,
            ..Response::json(200, body)
        }
    }

    /// A JSON error body with the given status.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, error_body(message))
    }
}

/// One row of a role's route table.
pub struct Route {
    method: &'static str,
    path: &'static str,
    endpoint: fn(&ServerStats) -> &EndpointStats,
    budgeted: bool,
    handler: Box<dyn Fn(&Call<'_>) -> Response + Send + Sync>,
}

impl Route {
    /// `method path` answered by `handler` over the role's shared
    /// `state`, timed into the [`EndpointStats`] that `endpoint`
    /// selects. A path carries one method; any other answers 405.
    pub fn new<S: Send + Sync + 'static>(
        method: &'static str,
        path: &'static str,
        endpoint: fn(&ServerStats) -> &EndpointStats,
        state: &Arc<S>,
        handler: fn(&S, &Call<'_>) -> Response,
    ) -> Route {
        let state = Arc::clone(state);
        Route {
            method,
            path,
            endpoint,
            budgeted: false,
            handler: Box::new(move |call| handler(&state, call)),
        }
    }

    /// Mark the route as working against the request's deadline: a
    /// request that arrives with its budget already spent (e.g. a
    /// coordinator hop consumed it) is answered 504 before the
    /// handler runs. A handler that has started is not pre-empted:
    /// its answer is sent when it returns, however late.
    pub fn budgeted(mut self) -> Route {
        self.budgeted = true;
        self
    }
}

/// Everything a worker needs to serve connections.
struct Shared {
    routes: Vec<Route>,
    stats: Arc<ServerStats>,
    slow: Arc<SlowLog>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

/// A running front door. Dropping the handle shuts it down.
#[derive(Debug)]
pub struct HttpService {
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpService {
    /// Bind `config.addr` and serve `routes` (plus the service's own
    /// `GET /debug/slow`), recording into `stats`.
    pub fn start(
        config: &ServerConfig,
        stats: Arc<ServerStats>,
        mut routes: Vec<Route>,
    ) -> io::Result<HttpService> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let slow = Arc::new(SlowLog::new(SLOW_LOG_CAPACITY));
        let shutdown = Arc::new(AtomicBool::new(false));
        routes.push(Route::new(
            "GET",
            "/debug/slow",
            |s| &s.observe,
            &slow,
            |slow, _| Response::json(200, slow_log_body(slow)),
        ));
        let shared = Arc::new(Shared {
            routes,
            stats: Arc::clone(&stats),
            slow,
            shutdown: Arc::clone(&shutdown),
            config: config.clone(),
        });

        // Bounded connection queue: when every worker is busy and the
        // queue is full, `send` blocks the acceptor — kernel-level
        // backpressure instead of unbounded connection pile-up.
        let (conn_tx, conn_rx) = std::sync::mpsc::sync_channel::<TcpStream>(QUEUE_DEPTH);
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let workers = (0..config.threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let conn_rx = Arc::clone(&conn_rx);
                std::thread::Builder::new()
                    .name(format!("fgcite-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &conn_rx))
                    .expect("spawn worker thread")
            })
            .collect();
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("fgcite-acceptor".into())
                .spawn(move || accept_loop(&listener, &conn_tx, &shutdown))
                .expect("spawn acceptor thread")
        };
        Ok(HttpService {
            addr,
            stats,
            shutdown,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared serving counters.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Graceful shutdown: stop accepting, drain, join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Block until the service is shut down from elsewhere (the
    /// `fgcite serve` foreground mode; runs until the process dies).
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // wake the blocking accept with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // acceptor gone → its conn_tx is dropped → workers drain the
        // queue and see Disconnected
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpService {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, conn_tx: &SyncSender<TcpStream>, shutdown: &AtomicBool) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        if conn_tx.send(stream).is_err() {
            return; // workers gone
        }
    }
}

fn worker_loop(shared: &Shared, conn_rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        // take the lock only to pop one connection
        let stream = {
            let rx = conn_rx.lock().expect("connection queue lock");
            rx.recv()
        };
        match stream {
            Ok(stream) => handle_connection(shared, stream),
            Err(_) => return, // acceptor hung up: shutdown
        }
    }
}

/// Serve requests off one connection until it closes, errors, times
/// out, or the server shuts down. Never panics on malformed input —
/// the worker answers 4xx and recycles itself.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    let Ok(mut write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    loop {
        // The head deadline starts when we begin waiting for a
        // request: a client dripping one header byte per read-timeout
        // can no longer hold a worker forever.
        let head_deadline = Instant::now() + shared.config.header_read_timeout;
        let request =
            match read_request_with_deadline(&mut reader, MAX_BODY_BYTES, Some(head_deadline)) {
                Ok(request) => request,
                Err(error) => {
                    let (status, message) = match error {
                        // peer hung up, timed out idle, or broke the pipe
                        HttpError::Closed | HttpError::Io(_) => return,
                        HttpError::HeaderTimeout => (
                            408,
                            "request head not received within the server's header deadline".into(),
                        ),
                        HttpError::BadRequest(message) => (400, message),
                        HttpError::LengthRequired => {
                            (411, "POST requires a Content-Length header".into())
                        }
                        HttpError::PayloadTooLarge(n) => (
                            413,
                            format!("body of {n} bytes exceeds limit of {MAX_BODY_BYTES}"),
                        ),
                    };
                    shared.stats.malformed.fetch_add(1, Ordering::Relaxed);
                    // no head parsed, so no client ID to honor: assign one
                    let _ = write_response_with(
                        &mut write_half,
                        status,
                        &error_body(&message),
                        false,
                        JSON_TYPE,
                        &[("x-request-id", &next_request_id())],
                    );
                    // Framing is lost (mid-head, or an undeclared or
                    // oversized body still in flight): resync is
                    // impossible, drop the stream.
                    return;
                }
            };
        let keep_alive = request.keep_alive() && !shared.shutdown.load(Ordering::SeqCst);
        // Assign (or honor) the request ID at the front door: it is
        // echoed on the response, carried through the engine trace,
        // and keyed into the slow log.
        let rid = request
            .header("x-request-id")
            .map(str::to_string)
            .unwrap_or_else(next_request_id);
        let call = Call {
            request: &request,
            request_id: &rid,
            // Honor (clamped) or assign the end-to-end deadline.
            deadline: deadline_from(
                &request,
                shared.config.default_deadline,
                shared.config.max_deadline,
            ),
            stats: &shared.stats,
        };
        let started = Instant::now();
        shared.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        let response = route(shared, &call);
        shared.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        shared.slow.observe(SlowEntry {
            request_id: rid.clone(),
            endpoint: request.path.clone(),
            status: response.status,
            total: started.elapsed(),
            stages: response
                .stages
                .iter()
                .map(|(n, d)| (n.to_string(), *d))
                .collect(),
        });
        let written = write_response_with(
            &mut write_half,
            response.status,
            &response.body,
            keep_alive,
            response.content_type,
            &[("x-request-id", &rid)],
        );
        if written.is_err() || !keep_alive {
            return;
        }
    }
}

/// Dispatch one request through the route table. A known path with
/// the wrong method (any method, not just GET/POST) answers 405
/// rather than a misleading 404.
fn route(shared: &Shared, call: &Call<'_>) -> Response {
    let (method, path) = (call.request.method.as_str(), call.request.path.as_str());
    let routes = &shared.routes;
    let Some(route) = routes.iter().find(|r| r.path == path && r.method == method) else {
        shared.stats.unrouted.fetch_add(1, Ordering::Relaxed);
        return match routes.iter().find(|r| r.path == path) {
            Some(known) => Response::error(
                405,
                &format!(
                    "method {method} not allowed on {path} (use {})",
                    known.method
                ),
            ),
            None => Response::error(404, &format!("no such route `{path}`")),
        };
    };
    let response = timed((route.endpoint)(&shared.stats), || {
        if route.budgeted && remaining_ms(call.deadline) == 0 {
            return Response::error(504, DEADLINE_EXCEEDED);
        }
        (route.handler)(call)
    });
    // every exhaustion path — spent on arrival, ran out while forwarding —
    // is counted here and only here
    if response.status == 504 {
        shared
            .stats
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
    }
    response
}

fn timed(endpoint: &EndpointStats, serve: impl FnOnce() -> Response) -> Response {
    let started = Instant::now();
    let response = serve();
    endpoint.record(started.elapsed(), response.status < 400);
    response
}

/// The `GET /debug/slow` body: the slowest requests seen so far,
/// slowest first, each with its request ID and stage breakdown.
fn slow_log_body(slow: &SlowLog) -> String {
    let micros = |d: Duration| Json::Int(d.as_micros().min(i64::MAX as u128) as i64);
    let entries: Vec<Json> = slow
        .snapshot()
        .into_iter()
        .map(|e| {
            let stages: Vec<(String, Json)> = e
                .stages
                .iter()
                .map(|(n, d)| (n.clone(), micros(*d)))
                .collect();
            Json::from_pairs([
                ("request_id", Json::str(e.request_id)),
                ("endpoint", Json::str(e.endpoint)),
                ("status", Json::Int(e.status as i64)),
                ("total_us", micros(e.total)),
                ("stages", Json::from_pairs(stages)),
            ])
        })
        .collect();
    Json::from_pairs([
        ("count", Json::Int(entries.len() as i64)),
        ("requests", Json::Array(entries)),
    ])
    .to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spent_budget_stops_budgeted_rows_only() {
        let row = |path| {
            Route::new(
                "POST",
                path,
                |s| &s.cite,
                &Arc::new(()),
                |_, _| Response::prometheus("ran".into()),
            )
        };
        let shared = Shared {
            routes: vec![row("/cite").budgeted(), row("/views")],
            stats: Arc::default(),
            slow: Arc::new(SlowLog::new(1)),
            shutdown: Arc::default(),
            config: ServerConfig::default(),
        };
        let spent = |path: &str| {
            let request = HttpRequest {
                method: "POST".into(),
                path: path.into(),
                headers: Vec::new(),
                body: Vec::new(),
            };
            route(
                &shared,
                &Call {
                    request: &request,
                    request_id: "t-1",
                    deadline: Instant::now(),
                    stats: &shared.stats,
                },
            )
        };
        // the handler never runs: one JSON 504, one counter increment,
        // recorded as an error of the route
        let refused = spent("/cite");
        assert_eq!((refused.status, refused.content_type), (504, JSON_TYPE));
        assert_eq!(refused.body, error_body(DEADLINE_EXCEEDED));
        assert_eq!(shared.stats.deadline_exceeded.load(Ordering::Relaxed), 1);
        assert_eq!(shared.stats.cite.errors.load(Ordering::Relaxed), 1);
        // an unbudgeted row still runs, and the handler's own content
        // type travels with its 200
        let served = spent("/views");
        assert_eq!((served.status, served.content_type), (200, PROMETHEUS_TYPE));
        assert_eq!(shared.stats.deadline_exceeded.load(Ordering::Relaxed), 1);
    }
}
