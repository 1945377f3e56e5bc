//! Keep-alive connection pooling, bounded retry, and per-replica
//! circuit breaking for the cites a coordinator forwards.
//!
//! One [`ReplicaPool`] serves a fixed address set. Per address it
//! keeps a stack of idle keep-alive [`Client`]s (popped for a call,
//! pushed back on success, dropped on any transport error) and a
//! consecutive-failure circuit: after [`PoolConfig::failure_threshold`]
//! straight transport failures the circuit *opens* and calls fail
//! fast for [`PoolConfig::cooldown`]; the first call after the
//! cooldown is the half-open probe that either closes the circuit
//! (success) or re-arms the cooldown. The circuit state of every
//! address is surfaced in the coordinator's `GET /stats`.

use fgc_server::{Client, ClientResponse};
use fgc_views::Json;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Retry/timeout/circuit tuning for replica calls.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Per-call read timeout on the replica connection.
    pub timeout: Duration,
    /// Attempts per call before the candidate is declared failed.
    pub attempts: usize,
    /// Sleep between attempts (linear backoff: `n * backoff`).
    pub backoff: Duration,
    /// Consecutive transport failures that open the circuit.
    pub failure_threshold: u32,
    /// How long an open circuit fails fast before the half-open probe.
    pub cooldown: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            timeout: Duration::from_secs(10),
            attempts: 2,
            backoff: Duration::from_millis(25),
            failure_threshold: 3,
            cooldown: Duration::from_millis(500),
        }
    }
}

impl PoolConfig {
    /// Builder: per-call read timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }
}

/// Why a call to one replica failed.
#[derive(Debug)]
pub enum CallError {
    /// The circuit is open: the replica failed repeatedly and its
    /// cooldown has not elapsed, so the call was not attempted.
    CircuitOpen,
    /// Every attempt failed at the transport layer (connect, write,
    /// read, timeout) or with a 5xx status.
    Transport(io::Error),
    /// The request's end-to-end deadline ran out before (or while)
    /// calling the replica; no further attempt or failover makes
    /// sense — the client has already given up.
    DeadlineExceeded,
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::CircuitOpen => write!(f, "circuit open"),
            CallError::Transport(e) => write!(f, "{e}"),
            CallError::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// Per-address pool state.
#[derive(Debug)]
struct Slot {
    addr: SocketAddr,
    idle: Mutex<Vec<Client>>,
    /// Transport failures since the last success.
    consecutive_failures: AtomicU32,
    /// When an open circuit may half-open again, as micros since the
    /// pool was built (0 = closed).
    open_until: Mutex<Option<Instant>>,
    /// Lifetime counters for `GET /stats`.
    calls: AtomicU64,
    failures: AtomicU64,
    /// Successful call latency, microseconds, log-bucketed — the
    /// coordinator's view of each replica's tail.
    latency: fgc_obs::Histogram,
}

impl Slot {
    fn new(addr: SocketAddr) -> Self {
        Slot {
            addr,
            idle: Mutex::new(Vec::new()),
            consecutive_failures: AtomicU32::new(0),
            open_until: Mutex::new(None),
            calls: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            latency: fgc_obs::Histogram::new(),
        }
    }
}

/// A keep-alive client pool over a fixed replica address set.
#[derive(Debug)]
pub struct ReplicaPool {
    slots: Vec<Slot>,
    config: PoolConfig,
}

impl ReplicaPool {
    /// A pool over `addrs` (indexed by position ever after).
    pub fn new(addrs: Vec<SocketAddr>, config: PoolConfig) -> Self {
        ReplicaPool {
            slots: addrs.into_iter().map(Slot::new).collect(),
            config,
        }
    }

    /// The number of pooled replicas.
    pub fn replicas(&self) -> usize {
        self.slots.len()
    }

    /// The address at `index`.
    pub fn addr(&self, index: usize) -> SocketAddr {
        self.slots[index].addr
    }

    /// Issue `method path` against the replica at `index`, with the
    /// pool's bounded retry and backoff. Responses below 500 close the
    /// circuit and count as success at this layer; the caller maps
    /// replica-reported 4xx to its own semantics. A 504 is the
    /// replica refusing a spent budget: it answers
    /// [`CallError::DeadlineExceeded`] at once, with no retry and no
    /// strike against the circuit. Any other 5xx is a retried
    /// transport failure.
    pub fn request(
        &self,
        index: usize,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ClientResponse, CallError> {
        self.request_with_headers(index, method, path, body, &[], None)
    }

    /// [`Self::request`] with extra request headers — how the
    /// coordinator propagates `x-request-id` to every replica call —
    /// and an optional end-to-end deadline. The deadline bounds the
    /// whole call: a spent budget fails fast, the per-attempt read
    /// timeout is clamped to the remaining budget, and the retry loop
    /// stops rather than sleep through the deadline.
    pub fn request_with_headers(
        &self,
        index: usize,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
        deadline: Option<Instant>,
    ) -> Result<ClientResponse, CallError> {
        let slot = &self.slots[index];
        slot.calls.fetch_add(1, Ordering::Relaxed);
        if self.circuit_open(slot) {
            slot.failures.fetch_add(1, Ordering::Relaxed);
            return Err(CallError::CircuitOpen);
        }
        let mut last = None;
        for attempt in 0..self.config.attempts.max(1) {
            if attempt > 0 {
                let pause = self.config.backoff * attempt as u32;
                // never sleep past the deadline: the budget belongs
                // to the client, not the retry loop
                if deadline.is_some_and(|d| Instant::now() + pause >= d) {
                    break;
                }
                std::thread::sleep(pause);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            let started = Instant::now();
            match self.try_once(slot, method, path, body, extra_headers, deadline) {
                // the replica is up; the client's budget is what ran out
                Ok(response) if response.status == 504 => return Err(CallError::DeadlineExceeded),
                Ok(response) => {
                    slot.latency.record_micros(started.elapsed());
                    slot.consecutive_failures.store(0, Ordering::Relaxed);
                    *slot.open_until.lock().expect("circuit lock") = None;
                    return Ok(response);
                }
                Err(e) => last = Some(e),
            }
        }
        // A call that never reached the replica (budget spent before
        // the first attempt) says nothing about the replica's health:
        // don't charge its circuit.
        let Some(e) = last else {
            return Err(CallError::DeadlineExceeded);
        };
        slot.failures.fetch_add(1, Ordering::Relaxed);
        let failures = slot.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if failures >= self.config.failure_threshold {
            *slot.open_until.lock().expect("circuit lock") =
                Some(Instant::now() + self.config.cooldown);
        }
        Err(CallError::Transport(e))
    }

    /// Addresses whose circuit currently fails fast — the
    /// coordinator's `/healthz` degradation signal and its causes.
    pub fn open_addrs(&self) -> Vec<SocketAddr> {
        self.slots
            .iter()
            .filter(|s| self.circuit_open(s))
            .map(|s| s.addr)
            .collect()
    }

    fn circuit_open(&self, slot: &Slot) -> bool {
        let mut open_until = slot.open_until.lock().expect("circuit lock");
        match *open_until {
            Some(until) if Instant::now() < until => true,
            Some(_) => {
                // cooldown elapsed: let one probe through (half-open);
                // re-armed on its failure by the threshold check
                *open_until = None;
                false
            }
            None => false,
        }
    }

    fn try_once(
        &self,
        slot: &Slot,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
        deadline: Option<Instant>,
    ) -> io::Result<ClientResponse> {
        // Named fault point: chaos tests inject transport errors and
        // delays here, exercising the exact retry/circuit/failover
        // paths a real network fault would take. One relaxed atomic
        // load when the plane is idle.
        if let Some(action) = fgc_fault::check("dist.pool.send") {
            match action {
                fgc_fault::FaultAction::Delay(pause) => std::thread::sleep(pause),
                _ => return Err(fgc_fault::injected_error("dist.pool.send")),
            }
        }
        let mut client = {
            let mut idle = slot.idle.lock().expect("idle pool lock");
            idle.pop()
        };
        if client.is_none() {
            let fresh = Client::connect(slot.addr)?;
            client = Some(fresh);
        }
        let mut client = client.expect("pooled or fresh client");
        // Clamp the read timeout to the remaining budget so a stalled
        // replica cannot hold the call past the caller's deadline.
        let timeout = match deadline {
            Some(d) => self
                .config
                .timeout
                .min(d.saturating_duration_since(Instant::now()))
                .max(Duration::from_millis(1)),
            None => self.config.timeout,
        };
        client.set_read_timeout(timeout)?;
        let response = client.request_with_headers(method, path, body, extra_headers)?;
        if response.status >= 500 && response.status != 504 {
            // replica-side failure: retryable, and the connection's
            // state is suspect — drop it
            return Err(io::Error::other(format!(
                "replica answered {}: {}",
                response.status, response.body
            )));
        }
        slot.idle.lock().expect("idle pool lock").push(client);
        Ok(response)
    }

    /// Per-replica circuit and traffic state for `GET /stats`.
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.slots
                .iter()
                .map(|slot| {
                    let state = if self.circuit_open(slot) {
                        "open"
                    } else if slot.consecutive_failures.load(Ordering::Relaxed) > 0 {
                        "degraded"
                    } else {
                        "closed"
                    };
                    let latency = slot.latency.snapshot();
                    Json::from_pairs([
                        ("addr", Json::str(slot.addr.to_string())),
                        ("circuit", Json::str(state)),
                        (
                            "consecutive_failures",
                            Json::Int(slot.consecutive_failures.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "calls",
                            Json::Int(slot.calls.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "failures",
                            Json::Int(slot.failures.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "idle_connections",
                            Json::Int(slot.idle.lock().expect("idle pool lock").len() as i64),
                        ),
                        ("p50_us", Json::Int(latency.quantile(0.5) as i64)),
                        ("p99_us", Json::Int(latency.quantile(0.99) as i64)),
                    ])
                })
                .collect(),
        )
    }

    /// Append the forwarding tier's metric families — per-replica call and
    /// failure counters plus successful-call latency histograms — to
    /// the coordinator's Prometheus exposition.
    pub fn write_prometheus(&self, w: &mut fgc_obs::PromWriter, base: &[(&str, &str)]) {
        w.help(
            "fgcite_replica_calls_total",
            "counter",
            "Replica calls attempted, by replica address.",
        );
        for slot in &self.slots {
            let addr = slot.addr.to_string();
            let mut labels = base.to_vec();
            labels.push(("replica", addr.as_str()));
            w.int(
                "fgcite_replica_calls_total",
                &labels,
                slot.calls.load(Ordering::Relaxed),
            );
        }
        w.help(
            "fgcite_replica_failures_total",
            "counter",
            "Replica calls that failed after retry/failover, by replica address.",
        );
        for slot in &self.slots {
            let addr = slot.addr.to_string();
            let mut labels = base.to_vec();
            labels.push(("replica", addr.as_str()));
            w.int(
                "fgcite_replica_failures_total",
                &labels,
                slot.failures.load(Ordering::Relaxed),
            );
        }
        w.help(
            "fgcite_replica_request_seconds",
            "histogram",
            "Successful replica call latency, by replica address.",
        );
        for slot in &self.slots {
            let snap = slot.latency.snapshot();
            if snap.count() == 0 {
                continue;
            }
            let addr = slot.addr.to_string();
            let mut labels = base.to_vec();
            labels.push(("replica", addr.as_str()));
            w.histogram("fgcite_replica_request_seconds", &labels, &snap, 1e-6);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dead_addr() -> SocketAddr {
        // bind-then-drop: the port is closed by the time we dial it
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    }

    /// A replica refusing a spent budget is the client's deadline, not
    /// a replica fault: no retry, no next replica, no strike on its
    /// circuit.
    #[test]
    fn a_spent_budget_is_a_deadline_not_a_strike() {
        use fgc_server::{CiteServer, ServerConfig};
        use std::sync::Arc;
        let engine =
            fgc_core::CitationEngine::new(fgc_gtopdb::paper_instance(), fgc_gtopdb::paper_views())
                .unwrap();
        let config = ServerConfig::default()
            .with_addr("127.0.0.1:0")
            .with_threads(1)
            .with_role("replica");
        let replica = CiteServer::start(Arc::new(engine), config).unwrap();
        let pool = ReplicaPool::new(
            vec![replica.addr()],
            PoolConfig {
                failure_threshold: 1,
                ..PoolConfig::default()
            },
        );
        let body = r#"{"query": "Q(N) :- Family(F, N, Ty)"}"#;
        let spent = [("x-deadline-ms", "0")];
        for _ in 0..2 {
            let call = pool.request_with_headers(0, "POST", "/cite", Some(body), &spent, None);
            assert!(matches!(call, Err(CallError::DeadlineExceeded)), "{call:?}");
        }
        let Json::Array(slots) = pool.to_json() else {
            panic!("pool stats are an array");
        };
        assert_eq!(slots[0].get("circuit"), Some(&Json::str("closed")));
        assert_eq!(slots[0].get("failures"), Some(&Json::Int(0)));
        // one call per request: nothing was retried
        assert_eq!(slots[0].get("calls"), Some(&Json::Int(2)));
        // with budget left the same call is served
        let served = pool.request(0, "POST", "/cite", Some(body)).unwrap();
        assert_eq!(served.status, 200, "{}", served.body);
    }

    #[test]
    fn circuit_opens_after_threshold_and_half_opens_after_cooldown() {
        let pool = ReplicaPool::new(
            vec![dead_addr()],
            PoolConfig {
                timeout: Duration::from_millis(200),
                attempts: 1,
                backoff: Duration::from_millis(1),
                failure_threshold: 2,
                cooldown: Duration::from_millis(50),
            },
        );
        assert!(matches!(
            pool.request(0, "GET", "/healthz", None),
            Err(CallError::Transport(_))
        ));
        assert!(!pool.circuit_open(&pool.slots[0]));
        assert!(matches!(
            pool.request(0, "GET", "/healthz", None),
            Err(CallError::Transport(_))
        ));
        assert!(pool.circuit_open(&pool.slots[0]));
        assert!(matches!(
            pool.request(0, "GET", "/healthz", None),
            Err(CallError::CircuitOpen)
        ));
        std::thread::sleep(Duration::from_millis(60));
        // half-open: the probe is attempted (and fails at transport)
        assert!(matches!(
            pool.request(0, "GET", "/healthz", None),
            Err(CallError::Transport(_))
        ));
        let stats = pool.to_json();
        let slot = match &stats {
            Json::Array(slots) => &slots[0],
            other => panic!("expected array, got {other}"),
        };
        assert_eq!(slot.get("circuit"), Some(&Json::str("open")));
    }
}
